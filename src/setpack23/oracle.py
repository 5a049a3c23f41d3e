"""Exact maximum-weight disjoint sub-collection solver (branch and bound).

Small-instance ground truth for ratio audits.  Self-contained integer
arithmetic, no LP relaxation: the bound at a node is the current weight plus
the total weight of the remaining sets compatible with the current choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance, Packing


class OracleBudgetExceeded(RuntimeError):
    """Node budget exhausted; the instance is too large for the oracle."""


@dataclass(frozen=True)
class OracleResult:
    optimum_weight: int
    witness: Packing
    nodes_explored: int


def solve_exact(instance: Instance, budget: int = 10_000_000) -> OracleResult:
    """Exact optimum by include/exclude branching in decreasing-weight order."""
    ordered = sorted(instance.sets, key=lambda s: (-s.weight, s.id))
    m = len(ordered)
    elem_mask = [sum(1 << e for e in s.elements) for s in ordered]
    weight = [s.weight for s in ordered]
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weight[i]

    best_w = 0
    best_sel: tuple[int, ...] = ()
    nodes = 0

    # Iterative stack avoids recursion limits; entries are
    # (next index, used-element mask, current weight, chosen ids).
    stack: list[tuple[int, int, int, tuple[int, ...]]] = [(0, 0, 0, ())]
    while stack:
        i, used, cur_w, chosen = stack.pop()
        nodes += 1
        if nodes > budget:
            raise OracleBudgetExceeded(f"exceeded {budget} nodes")
        if cur_w > best_w:
            best_w, best_sel = cur_w, chosen
        if i == m or cur_w + suffix[i] <= best_w:
            continue
        # A tighter bound: only sets still compatible can contribute.
        ub = cur_w
        for j in range(i, m):
            if not elem_mask[j] & used:
                ub += weight[j]
        if ub <= best_w:
            continue
        # Exclude pushed first so the include branch is explored first.
        stack.append((i + 1, used, cur_w, chosen))
        if not elem_mask[i] & used:
            stack.append((i + 1, used | elem_mask[i], cur_w + weight[i], chosen + (ordered[i].id,)))

    witness = Packing(frozenset(best_sel))
    if witness.weight(instance) != best_w:
        raise AssertionError("oracle witness does not weigh the optimum")
    return OracleResult(best_w, witness, nodes)
