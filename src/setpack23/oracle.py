"""Exact maximum-weight disjoint sub-collection solver (branch and bound).

Small-instance ground truth for ratio audits, in integer arithmetic.  A node
branches on one element.  A packing holds at most one set through it, so the
children "take S", for each available S holding it, and "leave it uncovered"
split the node's packings without gap or overlap; pruning drops only nodes
that cannot beat the best packing found, so the search stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .instance import Instance, Packing


ORACLE_NODE_BUDGET = 10_000_000  # the most nodes one solve may pop


class OracleBudgetExceeded(RuntimeError):
    """Node budget exhausted; the instance is too large for the oracle."""


@dataclass(frozen=True)
class OracleResult:
    optimum_weight: int
    witness: Packing
    nodes_explored: int


def solve_exact(instance: Instance, budget: int = ORACLE_NODE_BUDGET) -> OracleResult:
    """Exact optimum; ``OracleBudgetExceeded`` once popped nodes exceed ``budget``.

    Sets that miss every chosen and uncovered element are available.  A node
    takes each available set holding the lowest element they cover, heaviest
    first by ``(-weight, id)``, then leaves it uncovered.  Weight is size minus
    one, so a covered element earns at most 2/3 in a 3-set and 1/2 in a 2-set:
    no packing of the available sets outweighs their total weight or
    ``(4*|E3| + 3*|E2 - E3|) // 6``, E3 and E2 being their 3-set and 2-set unions.
    """
    ids = {sum(1 << e for e in s.elements): s.id for s in instance.sets}
    by_id = sorted(ids, key=ids.__getitem__)
    best_w, best_sel, nodes = 0, (), 0
    # Iterative stack: (parent's 3-sets, its 2-sets, blocked elements, weight, chosen).
    stack = [([m for m in by_id if m.bit_count() == 3], [m for m in by_id if m.bit_count() == 2],
              0, 0, ())]
    while stack:
        p3, p2, blocked, cur_w, chosen = stack.pop()
        nodes += 1
        if nodes > budget:
            raise OracleBudgetExceeded(f"exceeded {budget} nodes")
        if cur_w > best_w:
            best_w, best_sel = cur_w, chosen
        a3 = [m for m in p3 if not m & blocked]
        a2 = [m for m in p2 if not m & blocked]
        e3, e2 = reduce(or_, a3, 0), reduce(or_, a2, 0)
        bound = min(2 * len(a3) + len(a2), (4 * e3.bit_count() + 3 * (e2 & ~e3).bit_count()) // 6)
        if cur_w + bound <= best_w:
            continue
        low = (e3 | e2) & -(e3 | e2)
        # Last pushed pops first: 3-sets by id, then 2-sets, then "uncovered".
        stack.append((a3, a2, blocked | low, cur_w, chosen))
        stack += [(a3, a2, blocked | m, cur_w + 1, chosen + (m,)) for m in reversed(a2) if m & low]
        stack += [(a3, a2, blocked | m, cur_w + 2, chosen + (m,)) for m in reversed(a3) if m & low]
    witness = Packing(frozenset(ids[m] for m in best_sel))
    if witness.weight(instance) != best_w:
        raise AssertionError("oracle witness does not weigh the optimum")
    return OracleResult(best_w, witness, nodes)
