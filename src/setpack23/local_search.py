"""Local-improvement predicate, bounded improvement search, and the solver loop.

A set X of vertices improves the current solution A when replacing the
A-vertices touched by X with X either raises the total weight, or keeps it
equal while strictly raising the number of weight-2 vertices.  The solver
applies such improvements of size at most tau until none exist; in general
mode it then additionally searches the auxiliary multigraph for an improving
binocular (a logarithmic-size structured improvement) before terminating.

Two enumeration strategies exist for the bounded search.  The default grows
candidate sets that are connected in a linkage graph (candidates are linked
when their solution neighborhoods intersect or they conflict); a minimal
improvement that split into linkage-disconnected parts would contain a
smaller improvement, so the restriction loses nothing.  The naive
full-subset enumerator serves small tau (below 5) and cross-validation.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .conflict import ConflictGraph, build_conflict_graph
from .instance import Instance, Packing


@dataclass(frozen=True)
class Improvement:
    """An improving vertex set together with the solution vertices it evicts."""

    x: frozenset[int]
    removed: frozenset[int]


@dataclass(frozen=True)
class SearchParams:
    """Knobs for :func:`solve`.

    ``tau`` bounds the plain improvement size; when only ``epsilon`` is
    given, tau is derived as ``4 * ceil(2 / epsilon)``.  Hereditary mode
    forces ``tau >= 10`` and disables the binocular phase.  The improvement
    enumerator follows from tau (grown from 5 up, naive below); the binocular
    phase tries ``coloring_reps`` random colorings, or one injective coloring.
    """

    tau: int | None = None
    epsilon: Fraction | None = None
    mode: str = "general"  # "general" | "hereditary"
    seed: int = 0
    coloring_reps: int = 64
    injective_colorings: bool = False

    def resolved_tau(self) -> int:
        tau = self.tau
        if tau is None and self.epsilon is not None:
            if self.epsilon <= 0:
                raise ValueError("epsilon must be positive")
            tau = 4 * math.ceil(Fraction(2) / Fraction(self.epsilon))
        if self.mode == "hereditary":
            tau = 10 if tau is None else tau
            if tau < 10:
                raise ValueError("hereditary mode needs tau >= 10")
        if tau is None or tau < 1:
            raise ValueError("tau (or epsilon) must be given and positive")
        return tau


@dataclass
class RunStats:
    iterations: int = 0
    improvements_applied: int = 0
    binoculars_applied: int = 0
    final_weight: int = 0
    wall_ms: float = 0.0

    def to_json(self) -> str:
        return json.dumps({
            "iterations": self.iterations,
            "improvements_applied": self.improvements_applied,
            "binoculars_applied": self.binoculars_applied,
            "final_weight": self.final_weight,
            "wall_ms": self.wall_ms,
        })


def _is_improvement_mask(g: ConflictGraph, a_mask: int, x_mask: int) -> bool:
    if not g.independent_mask(x_mask):
        return False
    n_mask = g.neighborhood_mask(x_mask, a_mask)
    wx, wn = g.weight_mask(x_mask), g.weight_mask(n_mask)
    if wx > wn:
        return True
    return wx == wn and g.w2_count_mask(x_mask) > g.w2_count_mask(n_mask)


def is_local_improvement(g: ConflictGraph, A: Iterable[int], X: Iterable[int]) -> bool:
    """True iff X is independent and beats its solution neighborhood.

    The comparison is lexicographic on (total weight, weight-2 count): X wins
    outright on weight, or ties on weight with strictly more weight-2
    vertices than N(X, A).
    """
    return _is_improvement_mask(g, g.mask(A), g.mask(X))


def _find_improvement_mask(g: ConflictGraph, a_mask: int, tau: int, method: str) -> int:
    if method == "auto":
        method = "grown" if tau >= 5 else "naive"
    cands = [v for v in range(g.n) if not (a_mask >> v) & 1]
    if not cands:
        return 0
    k = len(cands)
    vbit = [1 << v for v in cands]
    anb = [g.adj_mask(v) & a_mask for v in cands]
    w = [g.weights[v] for v in cands]

    def visit(x_vmask: int, n_mask: int, wx: int) -> bool:
        wn = g.weight_mask(n_mask)
        if wx > wn:
            return True
        return wx == wn and g.w2_count_mask(x_vmask) > g.w2_count_mask(n_mask)

    if method == "naive":
        # Depth-first over index-sorted subsets: prefixes come first, so the
        # first hit is the lexicographically least improving tuple.
        def rec_naive(last: int, x_vmask: int, n_mask: int, wx: int, size: int) -> int:
            for j in range(last + 1, k):
                if g.adj_mask(cands[j]) & x_vmask:
                    continue  # never independent again along this branch
                x2 = x_vmask | vbit[j]
                n2 = n_mask | anb[j]
                w2 = wx + w[j]
                if visit(x2, n2, w2):
                    return x2
                if size + 1 < tau and w2 - g.weight_mask(n2) + 2 * (tau - size - 1) >= 0:
                    hit = rec_naive(j, x2, n2, w2, size + 1)
                    if hit:
                        return hit
            return 0
        return rec_naive(-1, 0, 0, 0, 0)
    if method != "grown":
        raise ValueError(f"unknown improvement method {method!r}")

    # A vertex untouched by the solution is an improvement on its own.
    for i in range(k):
        if anb[i] == 0:
            return vbit[i]

    link = [0] * k
    for i in range(k):
        bi = 0
        adj_i = g.adj_mask(cands[i])
        for j in range(k):
            if j != i and (anb[i] & anb[j] or adj_i & vbit[j]):
                bi |= 1 << j
        link[i] = bi

    # In genuine conflict graphs every element of a solution set hosts at
    # most one member of an independent candidate set, so the neighborhood
    # offers exactly w(N)+|N| element slots.  Tracking the covered elements
    # the candidates consume makes exhausted slots visible: gains beyond the
    # free slots force fresh neighborhood weight at two slots per unit.
    # When additionally every candidate covers at least as many solution
    # elements as its own weight (true after the no-neighbor pre-scan for
    # 2-sets, and for 3-sets whenever their 2-subsets are present), each
    # unit of future gain costs a slot outright, doubling the penalty.
    # Hand-built graphs carry no such promises and use the plain slack.
    claw_slots = g.members is not None
    if claw_slots:
        covered = set()
        m = a_mask
        while m:
            low = m & -m
            covered |= g.members[low.bit_length() - 1]
            m ^= low
        esum = [len(g.members[v] & covered) for v in cands]
        tight = all(esum[i] >= w[i] for i in range(k))
    else:
        esum = [0] * k
        tight = False

    w1m, w2m = g._w1_mask, g._w2_mask
    adjm = [g.adj_mask(v) for v in cands]
    gain_rate = 2 if tight else 1

    def rec_grown(x_vmask: int, n_mask: int, wx: int, slots_used: int, size: int,
                  ext: int, closed: int, gt_root: int, depth: int) -> int:
        last = size + 1 == depth
        while ext:
            low = ext & -ext
            ext ^= low
            j = low.bit_length() - 1
            if adjm[j] & x_vmask:
                continue
            n2 = n_mask | anb[j]
            w2 = wx + w[j]
            wn = (n2 & w1m).bit_count() + 2 * (n2 & w2m).bit_count()
            if last:
                if w2 > wn or (w2 == wn and ((x_vmask | vbit[j]) & w2m).bit_count()
                               > (n2 & w2m).bit_count()):
                    return x_vmask | vbit[j]
                continue
            slots2 = slots_used + esum[j]
            depth_left = depth - size - 1
            slack = w2 - wn + 2 * depth_left
            if slack < 0:
                continue
            if claw_slots:
                need = gain_rate * depth_left
                cap = wn + n2.bit_count() - slots2
                if need > cap and slack - ((need - cap + 1) // 2) < 0:
                    continue
            fresh = link[j] & ~closed & gt_root
            hit = rec_grown(x_vmask | vbit[j], n2, w2, slots2, size + 1,
                            ext | fresh, closed | link[j] | low, gt_root, depth)
            if hit:
                return hit
        return 0

    # Iterative deepening: candidate sets of size exactly `depth`, smallest
    # first, so the frequent small improvements stay cheap and only the
    # final no-improvement certification pays for the full depth.  Root r
    # enters as the only extension of the empty set and grows only through
    # candidates after it, so every connected set is tried from its least
    # member.
    for depth in range(1, tau + 1):
        for r in range(k):
            hit = rec_grown(0, 0, 0, 0, 0, 1 << r, 0, ~((1 << (r + 1)) - 1), depth)
            if hit:
                return hit
    return 0


def find_improvement(g: ConflictGraph, A: Iterable[int], tau: int,
                     method: str = "auto") -> Improvement | None:
    """Search for an improvement of size at most tau, or report none exists.

    Deterministic for a fixed vertex ordering.  ``method`` picks the grown
    (linkage-connected) enumeration, the naive full-subset enumeration, or
    ``auto`` (grown from tau >= 5 upward).
    """
    a_mask = g.mask(A)
    hit = _find_improvement_mask(g, a_mask, tau, method)
    if not hit:
        return None
    return Improvement(g.unmask(hit), g.unmask(g.neighborhood_mask(hit, a_mask)))


def _apply_mask(g: ConflictGraph, a_mask: int, x_mask: int) -> int:
    """Replace N(X, A) by X in the solution mask and check independence."""
    new_mask = (a_mask & ~g.neighborhood_mask(x_mask, a_mask)) | x_mask
    assert g.independent_mask(new_mask), "solution lost independence"
    return new_mask


def apply_improvement(g: ConflictGraph, A: Iterable[int], imp: Improvement | Iterable[int]) -> frozenset[int]:
    """Replace N(X, A) by X; the result is independent and lexicographically heavier."""
    x = imp.x if isinstance(imp, Improvement) else frozenset(imp)
    a_mask = g.mask(A)
    x_mask = g.mask(x)
    if not _is_improvement_mask(g, a_mask, x_mask):
        raise ValueError("apply_improvement called with a non-improving set")
    return g.unmask(_apply_mask(g, a_mask, x_mask))


def solve(instance: Instance, params: SearchParams) -> tuple[Packing, RunStats]:
    """Run the local-search loop until no improvement and (in general mode) no
    improving binocular remains.

    The pair (weight, weight-2 count) of the solution strictly increases
    lexicographically per iteration, which also enforces the quadratic
    iteration bound asserted on every run.
    """
    from .color_coding import search_improving_binocular
    from .search_graph import enumerate_search_edges, extract_improvement

    g = build_conflict_graph(instance)
    tau = params.resolved_tau()
    stats = RunStats()
    t0 = time.perf_counter()
    a_mask = 0
    prev_key = (-1, -1)
    iteration_bound = 2 * g.n * (g.n + 2)

    while True:
        applied = False
        hit = _find_improvement_mask(g, a_mask, tau, "auto")
        if hit:
            a_mask = _apply_mask(g, a_mask, hit)
            stats.improvements_applied += 1
            applied = True
        elif params.mode == "general":
            members = g.unmask(a_mask)
            sg = enumerate_search_edges(g, members, tau)
            b = search_improving_binocular(
                sg, g, members, params,
                seed=params.seed * 1_000_003 + stats.iterations)
            if b is not None:
                x_mask = g.mask(extract_improvement(b, g, members))
                if not _is_improvement_mask(g, a_mask, x_mask):
                    raise AssertionError("binocular produced a non-improving set")
                a_mask = _apply_mask(g, a_mask, x_mask)
                stats.binoculars_applied += 1
                applied = True
        if not applied:
            break
        stats.iterations += 1
        key = (g.weight_mask(a_mask), g.w2_count_mask(a_mask))
        assert key > prev_key, "solution did not progress lexicographically"
        prev_key = key
        assert stats.iterations <= iteration_bound, "iteration bound exceeded"

    stats.final_weight = g.weight_mask(a_mask)
    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return Packing(g.unmask(a_mask)), stats
