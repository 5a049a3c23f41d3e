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

A node is the bitmask ``avail`` of its available sets, one bit per set,
and each child narrows it with one AND.  A transposition table skips
repeated subproblems.  It is keyed on ``avail``, which is all that
branching reads, so two nodes with the same ``avail`` have identical
subtrees.  A child lacks the sets holding its parent's lowest covered
element, so an earlier node with the same ``avail`` is no ancestor and its
subtree is done.  A node whose (weight, weight-2 count) is no higher than
that earlier node's can reach no packing that the earlier subtree did not
match or beat, so it is dropped.  Keying on ``live``, the union of the
available sets, gives the same table: the available sets are those that
miss every blocked element, so they are exactly the sets inside ``live``,
and each of ``avail`` and ``live`` determines the other.
``solve_exact`` raises its incumbent only on a strictly heavier packing,
so its optimum and witness stay those of the table-free loop, and so do
the gate's answers; only node counts fall.  The table holds at most
``TABLE_CAP`` entries.  Once full it takes no new ones, but lookups go
on, so the search stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .instance import Instance, Packing


ORACLE_NODE_BUDGET = 10_000_000  # the most nodes one solve may pop
# The most transposition-table entries one search keeps.  The 80-triple 3DM
# oracle at seed 0 fills it: 16.5 MB of dict, keys and values by
# sys.getsizeof, in a process that peaks at 36 MB RSS.  The 60-triple 3DM
# oracle keeps 49,773 entries, a hereditary-cert gate call 1,759 at most.
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
    ``min(c3, |E3| // 3)`` 3-sets, c3 being their number.  A node is pruned
    unless those two bounds could beat ``key``.  With ``first`` the search
    returns at the first packing above ``key``; otherwise each such packing
    raises the key's weight, and the key's second part must be infinite, so
    that packings rank by weight alone.  A node is dropped before its
    unions are built when an earlier node with the same available sets had
    a key at least as high; the table keeps the highest key seen per
    ``avail``.  Raises ``OracleBudgetExceeded`` once popped nodes exceed
    ``budget``.
    """
    key_w, key_w2 = key
    # One bit per set: the 3-sets by id in the low n3 bits, then the 2-sets.
    sets = [m for m in masks if m.bit_count() == 3]
    n3 = len(sets)
    sets += [m for m in masks if m.bit_count() == 2]
    three = (1 << n3) - 1
    # cover[b]: the sets holding the element with bit b; hit[i]: the sets
    # meeting set i.
    cover: dict[int, int] = {}
    for i, m in enumerate(sets):
        while m:
            b = m & -m
            cover[b] = cover.get(b, 0) | 1 << i
            m ^= b
    hit = []
    for m in sets:
        h = 0
        while m:
            b = m & -m
            h |= cover[b]
            m ^= b
        hit.append(h)
    best_sel: tuple[int, ...] = ()
    nodes = 0
    table: dict[int, tuple[int, int]] = {}
    # Iterative stack: (available sets, weight, weight-2 count, chosen).
    stack = [((1 << len(sets)) - 1, 0, 0, ())]
    while stack:
        avail, cur_w, cur_w2, chosen = stack.pop()
        nodes += 1
        if nodes > budget:
            raise OracleBudgetExceeded(f"exceeded {budget} nodes")
        if cur_w > key_w or cur_w == key_w and cur_w2 > key_w2:
            if first:
                return cur_w, chosen, nodes
            key_w, best_sel = cur_w, chosen
        here = (cur_w, cur_w2)
        seen = table.get(avail)
        if seen is not None and here <= seen:
            continue
        if seen is not None or len(table) < TABLE_CAP:
            table[avail] = here
        a3, a2 = avail & three, avail >> n3
        c3, c2 = a3.bit_count(), a2.bit_count()
        e3 = e2 = 0
        while a3:
            b = a3 & -a3
            e3 |= sets[b.bit_length() - 1]
            a3 ^= b
        while a2:
            b = a2 & -a2
            e2 |= sets[n3 + b.bit_length() - 1]
            a2 ^= b
        n3e = e3.bit_count()
        top = cur_w + min(2 * c3 + c2, (4 * n3e + 3 * (e2 & ~e3).bit_count()) // 6)
        if top < key_w or top == key_w and cur_w2 + min(c3, n3e // 3) <= key_w2:
            continue
        # An empty avail was pruned: its bounds are its own key, which
        # beats ``key`` only where ``first`` has returned.
        live = e3 | e2
        at_low = cover[live & -live]
        # Last pushed pops first: 3-sets by id, then 2-sets, then "uncovered".
        stack.append((avail & ~at_low, cur_w, cur_w2, chosen))
        take = avail & at_low
        while take:
            i = take.bit_length() - 1
            take ^= 1 << i
            if i < n3:
                stack.append((avail & ~hit[i], cur_w + 2, cur_w2 + 1, chosen + (sets[i],)))
            else:
                stack.append((avail & ~hit[i], cur_w + 1, cur_w2, chosen + (sets[i],)))
    return key_w, best_sel, nodes


def solve_exact(instance: Instance, budget: int = ORACLE_NODE_BUDGET) -> OracleResult:
    """Exact optimum; ``OracleBudgetExceeded`` once popped nodes exceed ``budget``."""
    masks = [sum(1 << e for e in s.elements) for s in instance.sets]
    best_w, best_sel, nodes = _branch_and_bound(masks, (0, math.inf), budget, first=False)
    witness = Packing(frozenset(masks.index(m) for m in best_sel))
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
