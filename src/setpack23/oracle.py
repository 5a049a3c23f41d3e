"""Exact maximum-weight disjoint sub-collection solver (branch and bound).

Small-instance ground truth for ratio audits, in integer arithmetic.  A node
branches on one element.  A packing holds at most one set through it, so the
children "take S", for each available S holding it, and "leave it uncovered"
split the node's packings without gap or overlap; pruning drops only nodes
that cannot beat the best packing found, so the search stays exact.

One loop, ``_branch_and_bound``, serves two callers.  ``solve_exact`` ranks
packings by weight alone and keeps raising its incumbent to the optimum.
``packing_above`` is the global-optimality gate of the local search: it
starts from a packing's key (weight, weight-2 count) and stops at the first
packing that beats it lexicographically, or answers that none does.  It
also bounds the weight-2 count: the available 3-sets hold at most
min(their number, |E3| // 3) disjoint ones, E3 being their union.

A transposition table skips repeated subproblems.  It is keyed on ``live``,
the union of a node's available sets.  Every available set misses the
blocked elements, so ``live`` does too, and every set inside ``live`` is
available: the available family is exactly the sets inside ``live``.
Branching reads only ``live``, through its lowest element, so two nodes
with the same ``live`` have identical subtrees.  A child's ``live`` lacks
its parent's lowest element, so an earlier node with the same ``live`` is
no ancestor and its subtree is done.  A node whose (weight, weight-2
count) is no higher than that earlier node's can reach no packing that
the earlier subtree did not match or beat, so it is dropped.
``solve_exact`` raises its incumbent only on a strictly heavier packing,
so its optimum and witness stay those of the table-free loop, and so do
the gate's answers; only node counts fall.  The table holds at most
``TABLE_CAP`` entries.  Once full it takes no new ones, but lookups go
on, so the search stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Sequence

from .instance import Instance, Packing


ORACLE_NODE_BUDGET = 10_000_000  # the most nodes one solve may pop
# The most transposition-table entries one search keeps: about 19 MB on
# 120-element universes (the 80-triple 3DM oracle fills it).  The 60-triple
# 3DM oracle keeps 49,773 entries, a hereditary-cert gate call 1,759 at most.
TABLE_CAP = 1 << 17

# The answers of ``packing_above``.
NONE_ABOVE, FOUND, UNKNOWN = "none-above", "found", "unknown"


class OracleBudgetExceeded(RuntimeError):
    """Node budget exhausted; the instance is too large for the oracle."""


@dataclass(frozen=True)
class OracleResult:
    optimum_weight: int
    witness: Packing
    nodes_explored: int


def _branch_and_bound(masks: Sequence[int], key: tuple[int, float], budget: int,
                      first: bool) -> tuple[int, tuple[int, ...], int]:
    """(final key weight, chosen element masks, nodes popped); nothing is
    chosen unless a packing beat ``key``, which must be at least (0, 0).

    Packings rank by (weight, weight-2 count).  Sets that miss every chosen
    and uncovered element are available.  A node takes each available set
    holding the lowest element they cover, heaviest first by
    ``(-weight, id)`` (``masks`` come in id order), then leaves it
    uncovered.  Weight is size minus one, so a covered element earns at most
    2/3 in a 3-set and 1/2 in a 2-set: no packing of the available sets
    outweighs their total weight or ``(4*|E3| + 3*|E2 - E3|) // 6``, E3 and
    E2 being their 3-set and 2-set unions, and none holds more than
    ``min(len(a3), |E3| // 3)`` 3-sets.  A node is pruned unless those two
    bounds could beat ``key``.  With ``first`` the search returns at the
    first packing above ``key``; otherwise each such packing raises the
    key's weight and keeps its second part, so an infinite second part ranks
    by weight alone.  A node is dropped before its bounds when an earlier
    node with the same union of available sets had a key at least as high;
    the table keeps the highest key seen per union.  Raises
    ``OracleBudgetExceeded`` once popped nodes exceed ``budget``.
    """
    key_w, key_w2 = key
    best_sel: tuple[int, ...] = ()
    nodes = 0
    table: dict[int, tuple[int, int]] = {}
    # Iterative stack: (parent's 3-sets, its 2-sets, blocked elements,
    # weight, weight-2 count, chosen).
    stack = [([m for m in masks if m.bit_count() == 3], [m for m in masks if m.bit_count() == 2],
              0, 0, 0, ())]
    while stack:
        p3, p2, blocked, cur_w, cur_w2, chosen = stack.pop()
        nodes += 1
        if nodes > budget:
            raise OracleBudgetExceeded(f"exceeded {budget} nodes")
        if cur_w > key_w or cur_w == key_w and cur_w2 > key_w2:
            if first:
                return cur_w, chosen, nodes
            key_w, best_sel = cur_w, chosen
        a3 = [m for m in p3 if not m & blocked]
        a2 = [m for m in p2 if not m & blocked]
        e3, e2 = reduce(or_, a3, 0), reduce(or_, a2, 0)
        live = e3 | e2
        here = (cur_w, cur_w2)
        seen = table.get(live)
        if seen is not None and here <= seen:
            continue
        if seen is not None or len(table) < TABLE_CAP:
            table[live] = here
        n3 = e3.bit_count()
        top = cur_w + min(2 * len(a3) + len(a2), (4 * n3 + 3 * (e2 & ~e3).bit_count()) // 6)
        if top < key_w or top == key_w and cur_w2 + min(len(a3), n3 // 3) <= key_w2:
            continue
        low = live & -live
        # Last pushed pops first: 3-sets by id, then 2-sets, then "uncovered".
        stack.append((a3, a2, blocked | low, cur_w, cur_w2, chosen))
        stack += [(a3, a2, blocked | m, cur_w + 1, cur_w2, chosen + (m,))
                  for m in reversed(a2) if m & low]
        stack += [(a3, a2, blocked | m, cur_w + 2, cur_w2 + 1, chosen + (m,))
                  for m in reversed(a3) if m & low]
    return key_w, best_sel, nodes


def solve_exact(instance: Instance, budget: int = ORACLE_NODE_BUDGET) -> OracleResult:
    """Exact optimum; ``OracleBudgetExceeded`` once popped nodes exceed ``budget``."""
    ids = {sum(1 << e for e in s.elements): s.id for s in instance.sets}
    best_w, best_sel, nodes = _branch_and_bound(sorted(ids, key=ids.__getitem__), (0, math.inf),
                                                budget, first=False)
    witness = Packing(frozenset(ids[m] for m in best_sel))
    if witness.weight(instance) != best_w:
        raise AssertionError("oracle witness does not weigh the optimum")
    return OracleResult(best_w, witness, nodes)


def packing_above(masks: Sequence[int], key: tuple[int, int], budget: int) -> tuple[str, int]:
    """(answer, nodes popped): whether some packing of the sets with element
    masks ``masks`` (in id order) beats ``key`` = (weight, weight-2 count)
    lexicographically.  The answer is FOUND at the first such packing,
    NONE_ABOVE when the search proves there is none, and UNKNOWN, with
    ``budget`` nodes, once more would be popped."""
    try:
        _, chosen, nodes = _branch_and_bound(masks, key, budget, first=True)
    except OracleBudgetExceeded:
        return UNKNOWN, budget
    return (FOUND if chosen else NONE_ABOVE), nodes
