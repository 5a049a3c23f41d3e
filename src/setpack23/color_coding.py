"""Polynomial-time improving-binocular search via color coding.

Universe elements receive random colors; a search-graph edge survives into
the colorful subgraph when the color sets of its W-label vertices are
pairwise disjoint.  Colorful walks (loop-free walks whose per-edge W-color
sets are pairwise disjoint) are tabulated once per start vertex by a dynamic
program over reachable states; a state is the bitmask tuple (end vertex,
colors, U-label mask, W-label mask, length) and stores one witness walk.
Each choice of at most two loops projects the tables onto the loops' labels,
and a candidate binocular is stitched together from those loops plus up to
three stored walks.  Everything found is re-checked against the
improving-binocular predicate, so random colorings only ever cost
completeness, never soundness.

Whenever the color budget t covers the universe, the search runs one
injective coloring, which is exact: colorful then means element-disjoint
W-labels, so every walk state reachable under some random coloring is
reachable under the injective one.  Only a universe larger than the budget
falls back to seeded uniform colorings with a repetition count, the
standard substitute for a t-perfect hash family.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .conflict import ConflictGraph
from .search_graph import LabeledBinocular, SearchEdge, SearchGraph, is_improving_binocular


@dataclass(frozen=True)
class Coloring:
    """A total assignment of universe elements to colors 0..t-1."""

    t: int
    assignment: tuple[int, ...]

    def mask_of(self, elements: Iterable[int]) -> int:
        m = 0
        for e in elements:
            m |= 1 << self.assignment[e]
        return m


def default_color_count(tau: int, n_vertices: int) -> int:
    """The default color budget 3 * tau^2 * log2(|V|), at least one color."""
    return max(1, math.ceil(3 * tau * tau * math.log2(max(2, n_vertices))))


def make_colorings(universe_n: int, t: int, reps: int, seed: int,
                   injective: bool = False) -> list[Coloring]:
    """Seeded uniform colorings, or the one injective coloring (needs t >= universe)."""
    if t < 1 or reps < 1:
        raise ValueError("need t >= 1 and reps >= 1")
    if injective:
        if t < universe_n:
            raise ValueError("injective coloring needs t >= universe size")
        return [Coloring(t, tuple(range(universe_n)))]
    rng = random.Random(seed)
    return [Coloring(t, tuple(rng.randrange(t) for _ in range(universe_n)))
            for _ in range(reps)]


@dataclass(frozen=True)
class ColorfulSearchGraph:
    """The search graph restricted to edges whose W-vertices got disjoint colors."""

    vertices: tuple[int, ...]
    edges: tuple[SearchEdge, ...]
    edge_colors: tuple[int, ...]          # per edge, union color mask of its W-label
    vertex_colors: Mapping[int, int]      # conflict vertex id -> color mask

    @property
    def loops(self) -> tuple[int, ...]:
        return tuple(i for i, e in enumerate(self.edges) if e.is_loop)


def colorful_subgraph(sg: SearchGraph, f: Coloring, g: ConflictGraph) -> ColorfulSearchGraph:
    """Filter the search graph down to its colorful edges under f."""
    if g.members is None:
        raise ValueError("color coding needs the element sets behind each vertex")
    vcol = {v: f.mask_of(g.members[v]) for v in range(g.n)}
    kept: list[SearchEdge] = []
    cols: list[int] = []
    for e in sg.edges:
        acc = _disjoint_colors(e.w_mask, vcol)
        if acc < 0:
            continue
        if not acc:
            raise AssertionError("every W-label vertex carries at least one colored element")
        kept.append(e)
        cols.append(acc)
    return ColorfulSearchGraph(sg.vertices, tuple(kept), tuple(cols), vcol)


def _disjoint_colors(mask: int, vertex_colors: Mapping[int, int]) -> int:
    """The union color mask of the vertices in ``mask``, or -1 if two share a color."""
    acc = 0
    while mask:
        low = mask & -mask
        c = vertex_colors[low.bit_length() - 1]
        if acc & c:
            return -1
        acc |= c
        mask ^= low
    return acc


# -- walk dynamic program ---------------------------------------------------

# The most states one walk table may hold before the search gives up.
WALK_STATE_BUDGET = 500_000


class WalkBudgetExceeded(RuntimeError):
    """The reachable state space outgrew ``WALK_STATE_BUDGET``."""


def walk_states(csg: ColorfulSearchGraph, start: int,
                max_len: int) -> dict[tuple[int, int, int, int, int], tuple[int, ...]]:
    """Every reachable colorful-walk state from ``start``, one witness walk each.

    Keys are (end vertex, color mask, U-mask, W-mask, length), where the
    masks carry bit v for every vertex v in the U- and W-labels of the walk's
    edges; witnesses are tuples of edge indices.  The base state is the empty
    walk; a transition appends a non-loop edge whose W-color set is disjoint
    from the colors accumulated so far.  Merging on the full label unions is
    lossless: states with equal keys admit exactly the same extensions and
    the same projections onto any context, so one witness per key suffices.
    """
    incident: dict[int, list[tuple[int, int, int, int, int]]] = {v: [] for v in csg.vertices}
    for i, e in enumerate(csg.edges):
        if e.is_loop:
            continue
        a, b = e.endpoints
        step = (csg.edge_colors[i], e.u_mask, e.w_mask, i)
        incident[a].append((b,) + step)
        incident[b].append((a,) + step)

    states: dict[tuple[int, int, int, int, int], tuple[int, ...]] = {(start, 0, 0, 0, 0): ()}
    frontier = [((start, 0, 0, 0, 0), ())]
    for length in range(1, max_len + 1):
        nxt = []
        for (v, colors, uu, ww, _), witness in frontier:
            for other, col, u_m, w_m, ei in incident[v]:
                if col & colors:
                    continue
                key = (other, colors | col, uu | u_m, ww | w_m, length)
                if key in states:
                    continue
                wit = witness + (ei,)
                states[key] = wit
                nxt.append((key, wit))
                if len(states) > WALK_STATE_BUDGET:
                    raise WalkBudgetExceeded(f"walk table beyond {WALK_STATE_BUDGET} states")
        frontier = nxt
        if not frontier:
            break
    return states


def project_walks(states: dict, ctx_u_mask: int, ctx_w_mask: int) -> dict[int, list]:
    """Project walk states onto a context, grouped by end vertex.

    Returns v -> list of (colors, X, Y, length, witness) with X and Y the
    walk's U- and W-masks restricted to the context; the first witness
    stored under a projected key represents it.
    """
    by_end: dict[int, list] = {}
    seen = set()
    for (v, colors, uu, ww, length), witness in states.items():
        key = (v, colors, uu & ctx_u_mask, ww & ctx_w_mask, length)
        if key in seen:
            continue
        seen.add(key)
        by_end.setdefault(v, []).append((colors, key[2], key[3], length, witness))
    return by_end


# -- structure search --------------------------------------------------------

def find_colorful_binocular(csg: ColorfulSearchGraph, g: ConflictGraph,
                            walk_cap: int) -> LabeledBinocular | None:
    """Assemble a colorful binocular from at most two loops and stored walks.

    For every loop choice L the fixed context is the union of the loop
    labels; a candidate (C, X, Y) must keep the surviving loop W-vertices
    color-disjoint from C and from each other and must win the weight
    inequality by two per loop.  The remaining edge set comes from one of
    four walk shapes: two closed walks plus a connector, three paths between
    two vertices, one loop plus a closed walk and a connector, or two loops
    plus a connector.  Any hit is a binocular by construction and is
    re-verified by the caller.  Every stored walk is at most ``walk_cap``
    long, and a closed walk of nonzero length has at least two edges because
    loops never enter the walk DP.
    """
    tables = {v: walk_states(csg, v, walk_cap) for v in csg.vertices}
    loops = csg.loops

    def loop_choices():
        yield ()
        for i in loops:
            yield (i,)
        for pair in combinations(loops, 2):
            yield pair

    for L in loop_choices():
        ctx_u = ctx_w = 0
        for i in L:
            ctx_u |= csg.edges[i].u_mask
            ctx_w |= csg.edges[i].w_mask

        def conditions(colors: int, x: int, y: int) -> bool:
            remaining = ctx_w & ~y
            acc = _disjoint_colors(remaining, csg.vertex_colors)
            if acc < 0 or acc & colors:
                return False
            return g.weight_mask(remaining) >= g.weight_mask(ctx_u & ~x) + 2 * len(L)

        def assemble(f_witness: tuple[int, ...]) -> LabeledBinocular:
            edge_ids = sorted(set(L) | set(f_witness))
            return LabeledBinocular(tuple(csg.edges[i] for i in edge_ids))

        if len(L) == 2:
            u = csg.edges[L[0]].endpoints[0]
            v = csg.edges[L[1]].endpoints[0]
            for colors, x, y, _, wit in project_walks(tables[u], ctx_u, ctx_w).get(v, []):
                if conditions(colors, x, y):
                    return assemble(wit)
            continue

        projected = {v: project_walks(tables[v], ctx_u, ctx_w) for v in csg.vertices}
        closed = {v: [s for s in projected[v].get(v, []) if s[3]] for v in csg.vertices}
        if len(L) == 1:
            proj_u = projected[csg.edges[L[0]].endpoints[0]]
            for v in csg.vertices:
                if not closed[v]:
                    continue
                for c1, x1, y1, _, wit1 in proj_u.get(v, []):
                    for c2, x2, y2, _, wit2 in closed[v]:
                        if c1 & c2:
                            continue
                        if conditions(c1 | c2, x1 | x2, y1 | y2):
                            return assemble(wit1 + wit2)
            continue

        for u in csg.vertices:
            proj_u = projected[u]
            for v in csg.vertices:
                if v < u:
                    continue
                # Two closed walks joined by a (possibly empty) connector.
                connectors = proj_u.get(v, [])
                for c1, _, _, _, wit1 in closed[u]:
                    for c2, _, _, _, wit2 in closed[v]:
                        if c1 & c2:
                            continue
                        for c3, _, _, _, wit3 in connectors:
                            if c3 & (c1 | c2):
                                continue
                            return assemble(wit1 + wit2 + wit3)
                # Three edge-disjoint walks between two distinct vertices.
                if v == u:
                    continue
                for i, (c1, _, _, _, wit1) in enumerate(connectors):
                    for j in range(i + 1, len(connectors)):
                        c2, _, _, _, wit2 = connectors[j]
                        if c1 & c2:
                            continue  # every triple holding this pair overlaps
                        for c3, _, _, _, wit3 in connectors[j + 1:]:
                            if not c3 & (c1 | c2):
                                return assemble(wit1 + wit2 + wit3)
    return None


def search_improving_binocular(sg: SearchGraph, g: ConflictGraph, A: Iterable[int],
                               params, seed: int = 0) -> LabeledBinocular | None:
    """Color-coding search for an improving binocular in the search graph.

    When the default color budget covers the universe (or
    ``params.injective_colorings`` asks for it), one injective coloring
    runs and a none result is exact.  Otherwise ``params.coloring_reps``
    seeded random colorings run, and none is evidence of absence only.
    The first colorful binocular assembled is returned; colorful implies
    improving, which is checked rather than assumed.
    """
    if not sg.edges:
        return None
    t = default_color_count(sg.tau, g.n)
    if params.injective_colorings or t >= g.universe_size:
        t = max(g.universe_size, 1)
        colorings = make_colorings(g.universe_size, t, 1, seed, injective=True)
    else:
        colorings = make_colorings(g.universe_size, t, params.coloring_reps, seed)
    # Walks inside a minimal binocular are simple paths or cycles, so lengths
    # beyond the vertex count of the search graph cannot be needed.
    cap = min(math.ceil(sg.tau * math.log2(max(2, g.n))), len(sg.vertices) + 1)
    for f in colorings:
        csg = colorful_subgraph(sg, f, g)
        if not csg.edges:
            continue
        hit = find_colorful_binocular(csg, g, cap)
        if hit is not None:
            if not is_improving_binocular(hit, g):
                raise AssertionError("colorful binocular failed the improving predicate")
            return hit
    return None
