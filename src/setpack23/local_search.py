"""Local-improvement predicate, bounded improvement search, and the solver loop.

A set X of vertices improves the current solution A when replacing the
A-vertices touched by X with X either raises the total weight, or keeps it
equal while strictly raising the number of weight-2 vertices.  The solver
applies such improvements of size at most tau until none exist; in general
mode it then additionally searches the auxiliary multigraph for an improving
binocular (a logarithmic-size structured improvement) before terminating.

The bounded search is one DFS, ``rec_grown``, run in two settings.  For
tau from 5 up, capped runs grow X from each root through later candidates
linked to it (conflicting or sharing a solution neighbor); a minimal
improvement that split into linkage-disconnected parts would contain a
smaller improvement, so the restriction loses nothing.  Below that, and for
cross-validation, a full scan runs one root whose extension holds every
candidate: the index-ordered subset scan, whose first hit, the least
improving tuple, ends it.

The grown search returns the least candidate with no solution neighbor, if
any, and otherwise the least improving set by (size, root, preorder); an
earlier root that improves alone loses to the former.  A capped run tests
every node and lowers its cap to s - 1 on a hit of size s, so its last hit
is the one iterative deepening would return: its prunes only loosen as the
cap grows and never cut off an improving descendant.  The first run caps
at ``_SMALL_CAP``, where the frequent small improvements are cheap; when
it finds none, the second caps at tau.

Before the second capped run, the global-optimality gate
(``oracle.packing_above``) looks for a packing of the instance's sets above
A's key (weight, weight-2 count), within ``GATE_NODE_BUDGET`` nodes.  Any
improvement X of any size gives one, the packing (A minus N(X, A)) plus X,
so when the gate proves that none exists, no improvement does, and the
search returns 0: the second run's own answer.
When the gate finds one or spends its budget, the second run runs as
before, so every hit stays the same.  The binocular phase is not gated.

The second capped run also cuts by claw shares, an admissible bound from the
claw-freeness the guarantee rests on: a solution set a has w(a)+1 elements,
so it meets at most w(a)+1 members of an independent extension F.  Charging
each of them w(a)/(w(a)+1) pays for a, so X together with F gains at most
w(X) - w(N(X, A)) plus, over F, each candidate's weight less its charges
for solution neighbors outside N(X, A).  A node whose gain plus the best
such values its remaining depth can add stays negative has no improving
descendant.  F is independent, so it holds at most one member of any
clique of candidates: the values of the candidates already linked to X are
covered greedily by cliques, and only each clique's largest value counts.
The bound is tested cheapest first, with each linked candidate valued at
its weight, the most its value can be, and no cover: that sum is never
smaller, so the cover is built only where it fails to cut, and every cut
decision stays the same.
The second capped run tests the cut at every child that loses weight with
two or more sizes left below its cap; the first capped run and the full scan
skip it, as their frequent small hits end the search before it would pay
off.  A child whose extension is empty is tested and never entered.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .conflict import ConflictGraph, bit_positions, build_conflict_graph
from .instance import Instance, Packing
from .oracle import NONE_ABOVE, packing_above

# The grown search's first capped run stops at this size, the second at tau.
_SMALL_CAP = 3

# The most nodes the global-optimality gate may pop before the second
# capped run (0.025-0.055 s).  It decides all eight hereditary-cert closures
# (43 to 5,405 nodes), every audit-small call that reaches it, the 84- to
# 164-set closures of generate_random(30, k, 1.0, seed=3) and ten of the
# twelve closures of generate_random(30, 30, 1.0, seed=s), s = 0..11 (up to
# 9,970 nodes at s = 7).  At s = 0 and 8 and on the sparse 45- and
# 60-universe closures it answers "unknown" at this cost.
GATE_NODE_BUDGET = 10_000


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
    enumerator follows from tau (grown from 5 up, naive below).  The
    binocular phase runs one exact, injective coloring whenever the color
    budget covers the universe or ``injective_colorings`` is set, and
    ``color_coding.COLORING_REPS`` seeded random colorings otherwise.
    """

    tau: int | None = None
    epsilon: Fraction | None = None
    mode: str = "general"  # "general" | "hereditary"
    seed: int = 0
    injective_colorings: bool = False

    def resolved_tau(self) -> int:
        if self.mode not in ("general", "hereditary"):
            raise ValueError(f"mode must be 'general' or 'hereditary', got {self.mode!r}")
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


def _candidate_linkage(g: ConflictGraph, free: int, anb: list[int]) -> tuple[list[int], list[int]]:
    """Vertex-indexed masks (cadj, link) over the candidates in ``free``.

    cadj[v] holds the candidates conflicting with candidate v; link[v] adds
    those sharing a solution neighbor, read from ``anb``, with it.  Other
    vertices keep 0.  The cost is one mask union per candidate-solution edge.
    """
    cadj = [0] * g.n
    link = [0] * g.n
    for v in bit_positions(free):
        nbrs = g.adj_mask(v)
        cadj[v] = nbrs & free
        link[v] = (nbrs | g.neighbors_mask(anb[v])) & free & ~(1 << v)
    return cadj, link


def _claw_shares(g: ConflictGraph, anb: list[int], cands: Iterable[int]) -> list[int]:
    """6 g(c) for each candidate c: 6 w(c), less 3 per weight-1 and 4 per
    weight-2 solution neighbor in anb[c], the claw shares of the module docstring."""
    w2m = g.w2_mask
    return [6 * g.weights[v] - 3 * anb[v].bit_count() - (anb[v] & w2m).bit_count()
            for v in cands]


def _clique_leaders(members: list[tuple[int, int, int]]) -> list[int]:
    """The leader values of a greedy clique cover of ``members``, smallest first.

    Each member is (value, bit, conf) with conf the mask of the members it
    conflicts with.  Taken by value, largest first, a member joins the first
    clique it conflicts with entirely and otherwise leads a new one.  An
    independent subset holds at most one member of each clique, worth at
    most its leader, so the k largest leader values bound its weight for
    every size k.  Sorts ``members`` in place.
    """
    members.sort(reverse=True)
    cliques: list[int] = []
    leaders: list[int] = []
    for value, bit, conf in members:
        for i, c in enumerate(cliques):
            if conf & c == c:
                cliques[i] = c | bit
                break
        else:
            cliques.append(bit)
            leaders.append(value)
    leaders.reverse()
    return leaders


def _capped_share_sum(heavy: int, light: int, far: int,
                      share_classes: list[tuple[int, int]], d: int) -> int:
    """The sum of the d largest values over ``heavy`` candidates valued 12,
    ``light`` ones valued 6 and the candidates in ``far``, valued by
    ``share_classes`` ((value, lanes) pairs, largest value first).

    6 g(c) never exceeds its cap 6 w(c), 12 at most, and the clique cover
    only drops values, so valuing each near candidate at its cap bounds from
    above the sum that the exact values and their clique leaders give.
    """
    t = heavy if heavy < d else d
    total = 12 * t
    d -= t
    for value, lanes in share_classes:
        if not d:
            return total
        if light and value < 6:
            t = light if light < d else d
            total += 6 * t
            d -= t
            light = 0
            if not d:
                return total
        t = (far & lanes).bit_count()
        if t > d:
            t = d
        total += value * t
        d -= t
    return total + 6 * (light if light < d else d)


def _find_improvement_mask(g: ConflictGraph, a_mask: int, tau: int, method: str) -> int:
    if method == "auto":
        method = "grown" if tau >= 5 else "naive"
    elif method not in ("grown", "naive"):
        raise ValueError(f"unknown improvement method {method!r}")
    free = ((1 << g.n) - 1) & ~a_mask
    cands = bit_positions(free)
    if not cands:
        return 0
    anb = [g.adj_mask(v) & a_mask for v in range(g.n)]
    if method == "grown":
        # A vertex untouched by the solution is an improvement on its own.
        lone = free & ~g.neighbors_mask(a_mask)
        if lone:
            return lone & -lone
        # Candidates are linked when they conflict or share a solution neighbor.
        cadj, link = _candidate_linkage(g, free, anb)
    else:
        # The full scan grows no root, so link only feeds closed2, which
        # only the claw-share cut reads: the conflicts stand in for it.
        cadj = link = [g.adj_mask(v) & free for v in range(g.n)]
    w = g.weights
    w2m = g.w2_mask
    hit = 0
    # Test sets of size up to cap; a hit of size s ends the search when
    # s <= stop and otherwise lowers cap to s - 1.
    cap = stop = 0
    share_bound = False  # the claw-share cut runs in the second capped run only

    def share_cut(ext: int, far: int, n_mask: int, d: int, deficit: int) -> bool:
        """True when no d candidates of ``ext | far`` make up ``deficit`` sixths.

        6 g(c) counts only c's solution neighbors outside N = ``n_mask``.
        The candidates in ``far`` are linked to no member of X, so none of
        their solution neighbors is in N, and ``share_classes`` (the positive
        values of 6 g with N empty, largest first) holds them.  The few in
        ``ext`` take ``base_share`` plus what their neighbors in N gave up,
        and only the leaders of their clique cover count.  The largest d
        values are summed class by class, ending once the sum covers
        the deficit.  Valuing the near candidates at their caps first
        (``_capped_share_sum``) decides many evaluations without the cover.
        """
        heavy = (ext & w2m).bit_count()
        if _capped_share_sum(heavy, ext.bit_count() - heavy, far, share_classes, d) < deficit:
            return True
        members = []
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            m = anb[v] & n_mask
            g6 = base_share[v] + 3 * m.bit_count() + (m & w2m).bit_count()
            if g6 > 0:
                members.append((g6, low, cadj[v]))
        near = _clique_leaders(members)
        total = 0
        for value, lanes in share_classes:
            t = (far & lanes).bit_count()
            while near and near[-1] >= value:
                total += near.pop()
                d -= 1
                if not d:
                    return total < deficit
            if t >= d:
                return total + value * d < deficit
            total += value * t
            if total >= deficit:
                return False
            d -= t
        while near and d:
            total += near.pop()
            d -= 1
        return total < deficit

    # Every child is tested, then cut when it cannot lead to an improvement
    # within the cap, by two tests in this order:
    # * plain slack: each further candidate gains at most 2;
    # * claw shares (``share_cut``), in the second capped run only, for a
    #   child with depth_left >= 2 that loses weight.
    def rec_grown(x_vmask: int, n_mask: int, wx: int, size: int,
                  ext: int, closed: int, gt_root: int) -> None:
        nonlocal hit, cap
        size += 1  # the size of every child
        while ext and size <= cap:
            low = ext & -ext
            ext ^= low
            j = low.bit_length() - 1
            n2 = n_mask | anb[j]
            w2 = wx + w[j]
            n_heavy = (n2 & w2m).bit_count()
            wn = n2.bit_count() + n_heavy
            # X holds w2 - size weight-2 vertices, N holds n_heavy.
            if w2 > wn or (w2 == wn and w2 - size > n_heavy):
                hit = x_vmask | low
                cap = size - 1 if size > stop else 0
                return
            depth_left = cap - size
            if depth_left == 0:
                continue
            if w2 - wn + 2 * depth_left < 0:
                continue
            # Candidates that conflict with j are in closed | link[j], so
            # dropping them from ext removes them from the branch for good.
            fresh = link[j] & ~closed & gt_root
            ext2 = (ext | fresh) & ~cadj[j]
            if not ext2:
                continue  # a childless child: its own test has run
            closed2 = closed | link[j] | low
            if (share_bound and depth_left >= 2 and wn > w2
                    and share_cut(ext2, gt_root & ~closed2, n2, depth_left, 6 * (wn - w2))):
                continue
            rec_grown(x_vmask | low, n2, w2, size, ext2, closed2, gt_root)

    if method == "naive":
        # The full scan: nothing grows the root (gt_root = 0), and prefixes
        # come first, so the first hit is the least tuple and ends it.
        cap = stop = tau
        rec_grown(0, 0, 0, 0, free, 0, 0)
        return hit

    # Root r enters as the only extension of the empty set and grows only
    # through candidates after it, so every connected set is tried from its
    # least member.  The first run covers sizes up to _SMALL_CAP, the
    # second the larger ones up to tau; each ends when a hit drives the cap
    # below its stop or the roots run out.  The second also tests the small
    # sizes, where the first found no improvement.  The second runs only
    # when the global-optimality gate cannot prove that no packing beats
    # A's key.
    for stop, cap in ((1, min(tau, _SMALL_CAP)), (_SMALL_CAP + 1, tau)):
        if cap < stop:
            break
        if stop > 1:
            key = (g.weight_mask(a_mask), g.w2_count_mask(a_mask))
            if packing_above(g, key, GATE_NODE_BUDGET)[0] == NONE_ABOVE:
                return 0
            base_share = [0] * g.n
            by_value: dict[int, int] = {}
            for v, g6 in zip(cands, _claw_shares(g, anb, cands)):
                base_share[v] = g6
                if g6 > 0:
                    by_value[g6] = by_value.get(g6, 0) | 1 << v
            share_classes = sorted(by_value.items(), reverse=True)
            share_bound = True
        for r in cands:
            if cap < stop:
                break
            rec_grown(0, 0, 0, 0, 1 << r, 0, free & ~((2 << r) - 1))
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
    if tau < 1:
        raise ValueError(f"tau must be positive, got {tau}")
    a_mask = g.mask(A)
    hit = _find_improvement_mask(g, a_mask, tau, method)
    if not hit:
        return None
    return Improvement(g.unmask(hit), g.unmask(g.neighborhood_mask(hit, a_mask)))


def _apply_mask(g: ConflictGraph, a_mask: int, x_mask: int) -> int:
    """Replace N(X, A) by X in the solution mask and check independence."""
    new_mask = (a_mask & ~g.neighborhood_mask(x_mask, a_mask)) | x_mask
    if not g.independent_mask(new_mask):
        raise AssertionError("solution lost independence")
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
    iteration bound checked on every run.
    """
    from .color_coding import search_improving_binocular
    from .search_graph import enumerate_search_edges, extract_improvement

    tau = params.resolved_tau()
    g = build_conflict_graph(instance)
    stats = RunStats()
    t0 = time.perf_counter()
    a_mask = 0
    prev_key = (-1, -1)
    iteration_bound = 2 * g.n * (g.n + 2)

    while True:
        x_mask = _find_improvement_mask(g, a_mask, tau, "auto")
        if x_mask:
            stats.improvements_applied += 1
        elif params.mode == "general":
            sg = enumerate_search_edges(g, a_mask, tau)
            b = search_improving_binocular(
                sg, g, params, seed=params.seed * 1_000_003 + stats.iterations)
            if b is None:
                break
            x_mask = extract_improvement(b, g, a_mask)
            if not _is_improvement_mask(g, a_mask, x_mask):
                raise AssertionError("binocular produced a non-improving set")
            stats.binoculars_applied += 1
        else:
            break
        a_mask = _apply_mask(g, a_mask, x_mask)
        stats.iterations += 1
        key = (g.weight_mask(a_mask), g.w2_count_mask(a_mask))
        if key <= prev_key:
            raise AssertionError("solution did not progress lexicographically")
        prev_key = key
        if stats.iterations > iteration_bound:
            raise AssertionError("iteration bound exceeded")

    stats.final_weight = g.weight_mask(a_mask)
    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return Packing(g.unmask(a_mask)), stats
