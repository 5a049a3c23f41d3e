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

The search runs on the instance's conflict graph ``g``.  A node is the
bitmask ``avail`` of its available sets, bit i for set i, and each child
narrows it with one AND: leaving the branching element uncovered drops the
sets holding it (``g.by_elem``), and taking set i drops those and i's
neighbors.  The bounds read the element unions of the available 3-sets and
of all available sets.  A node looks them up ``CHUNK`` bits of ``avail``
at a time, in one table per chunk of ``CHUNK`` consecutive ids from its
bits to the unions of its sets, filled on first lookup within one search.
Children pop heaviest first by (-weight, id), then "uncovered": that
order, like the table below, reads weights, ids and available sets, not
how ``avail`` numbers the sets.

A transposition table skips repeated subproblems.  It is keyed on
``avail``, which is all that branching reads, so two nodes with the same
``avail`` have identical subtrees.  A child lacks the sets holding its
parent's lowest covered element, so an earlier node with the same
``avail`` is no ancestor and its subtree is done.  A node whose (weight,
weight-2 count) is no higher than that earlier node's can reach no packing
that the earlier subtree did not match or beat, so it is dropped.  Keying
on ``live``, the union of the available sets, gives the same table: the
available sets miss every blocked element, so they are the sets inside
``live``.  ``solve_exact`` raises its incumbent only on a strictly heavier
packing, so its optimum and witness stay those of the table-free loop, and
so do the gate's answers; only node counts fall.  The table holds at most
``TABLE_CAP`` entries.  Once full it takes no new ones, but lookups go on,
so the search stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conflict import ConflictGraph, bit_positions, build_conflict_graph
from .instance import Instance, Packing


ORACLE_NODE_BUDGET = 10_000_000  # the most nodes one solve may pop
# The most transposition-table entries one search keeps.  The 80-triple 3DM
# oracle at seed 0 fills it: 16.5 MB of dict, keys and values by
# sys.getsizeof, in a process that peaks at 36 MB RSS.  The 60-triple 3DM
# oracle keeps 49,773 entries, a hereditary-cert gate call 1,759 at most.
TABLE_CAP = 1 << 17
# Set ids per union lookup table, whose 2**CHUNK entries fill on first lookup.
CHUNK = 6

# The answers of ``packing_above``.
NONE_ABOVE, FOUND, UNKNOWN = "none-above", "found", "unknown"


class OracleBudgetExceeded(RuntimeError):
    """Node budget exhausted; the instance is too large for the oracle."""


@dataclass(frozen=True)
class OracleResult:
    optimum_weight: int
    witness: Packing
    nodes_explored: int


def _branch_and_bound(g: ConflictGraph, key: tuple[int, float], budget: int,
                      first: bool) -> tuple[int, int, int]:
    """(final key weight, chosen set-id mask, nodes popped); nothing is
    chosen unless a packing beat ``key``, which must be at least (0, 0).

    Packings rank by (weight, weight-2 count).  Sets that miss every chosen
    and uncovered element are available.  A node takes each available set
    holding the lowest element they cover, heaviest first by
    ``(-weight, id)``, then leaves it uncovered.  Weight is size minus one,
    so a covered element earns at most 2/3 in a 3-set and 1/2 in a 2-set: no
    packing of the available sets outweighs their total weight or
    ``(4*|E3| + 3*|E2 - E3|) // 6``, E3 and E2 being their 3-set and 2-set
    unions, and none holds more than ``min(c3, |E3| // 3)`` 3-sets, c3 being
    their number.  A node is pruned unless those two bounds could beat
    ``key``.  With ``first`` the search returns at the first packing above
    ``key``; otherwise each such packing raises the key's weight, and the
    key's second part must be infinite, so that packings rank by weight
    alone.  A node is dropped before its unions are built when an earlier
    node with the same available sets had a key at least as high; the table
    keeps the highest key seen per ``avail``.  Raises
    ``OracleBudgetExceeded`` once popped nodes exceed ``budget``.
    """
    key_w, key_w2 = key
    three, by_elem, n = g.w2_mask, g.by_elem, g.n
    adj = list(map(g.adj_mask, range(n)))
    # unions[c][x]: the element unions of the sets of chunk c whose bits in
    # avail are x, packed as E3 | (E3 | E2) << shift.  The one-set entries
    # are filled here, the others on first lookup.
    shift = g.universe_size
    low = (1 << shift) - 1
    chunk_bits = (1 << CHUNK) - 1
    unions = [[None] * (chunk_bits + 1) for _ in range(0, n, CHUNK)]
    for i, m in enumerate(g.members):
        unions[i // CHUNK][1 << i % CHUNK] = m << shift | (m if three >> i & 1 else 0)
    best_sel = nodes = 0
    table: dict[int, tuple[int, int]] = {}
    # Iterative stack: (available sets, weight, weight-2 count, chosen mask).
    stack = [((1 << n) - 1, 0, 0, 0)]
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
        e, a = 0, avail
        for u in unions:
            if x := a & chunk_bits:
                v = u[x]
                if v is None:
                    v, y = 0, x
                    while y:
                        b = y & -y
                        v |= u[b]
                        y ^= b
                    u[x] = v
                e |= v
            if not (a := a >> CHUNK):
                break
        c3 = (avail & three).bit_count()
        c2 = avail.bit_count() - c3
        live = e >> shift
        n3e = (e & low).bit_count()
        top = cur_w + min(2 * c3 + c2, (4 * n3e + 3 * (live.bit_count() - n3e)) // 6)
        if top < key_w or top == key_w and cur_w2 + min(c3, n3e // 3) <= key_w2:
            continue
        # An empty avail was pruned: its bounds are its own key, which
        # beats ``key`` only where ``first`` has returned.
        at_low = by_elem[(live & -live).bit_length() - 1]
        # Last pushed pops first: 3-sets by id, then 2-sets, then "uncovered".
        # Taking set i drops the sets at the low element, i too, and i's neighbors.
        rest = avail & ~at_low
        stack.append((rest, cur_w, cur_w2, chosen))
        take = avail & at_low
        t = take & ~three
        while t:
            i = t.bit_length() - 1
            t ^= 1 << i
            stack.append((rest & ~adj[i], cur_w + 1, cur_w2, chosen | 1 << i))
        t = take & three
        while t:
            i = t.bit_length() - 1
            t ^= 1 << i
            stack.append((rest & ~adj[i], cur_w + 2, cur_w2 + 1, chosen | 1 << i))
    return key_w, best_sel, nodes


def solve_exact(instance: Instance, budget: int = ORACLE_NODE_BUDGET) -> OracleResult:
    """Exact optimum; ``OracleBudgetExceeded`` once popped nodes exceed ``budget``."""
    best_w, best_sel, nodes = _branch_and_bound(build_conflict_graph(instance), (0, math.inf),
                                                budget, first=False)
    witness = Packing(frozenset(bit_positions(best_sel)))
    if witness.weight(instance) != best_w:
        raise AssertionError("oracle witness does not weigh the optimum")
    return OracleResult(best_w, witness, nodes)


def packing_above(g: ConflictGraph, key: tuple[int, int], budget: int) -> tuple[str, int]:
    """(answer, nodes popped): whether some packing of the sets of the
    conflict graph ``g`` beats ``key`` = (weight, weight-2 count)
    lexicographically.  The answer is FOUND at the first such packing,
    NONE_ABOVE when the search proves there is none, and UNKNOWN, with
    ``budget`` nodes, once more would be popped."""
    try:
        _, chosen, nodes = _branch_and_bound(g, key, budget, first=True)
    except OracleBudgetExceeded:
        return UNKNOWN, budget
    return (FOUND if chosen else NONE_ABOVE), nodes
