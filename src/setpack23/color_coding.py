"""Polynomial-time improving-binocular search via color coding.

Universe elements receive random colors; a search-graph edge survives into
the colorful subgraph when the color sets of its W-label vertices are
pairwise disjoint.  Colorful walks (loop-free walks whose per-edge W-color
sets are pairwise disjoint) are tabulated from every start vertex by one
dynamic program over reachable states, grouped by end vertex; a state is the
bitmask tuple (end vertex, colors, U-label mask, W-label mask) and stores one
witness, its shortest walk.  The label masks keep only the vertices the
assembly reads: the loops' U-vertices, and the vertices whose colors meet a
loop W-vertex's colors, so without loops a state is its end and colors.  The
DP indexes edges by color: per color bit, a clash mask of the edges holding
it, so a state expands only along the incident edges outside the clash masks
of its colors, never touching one that its colors would reject.  A candidate
binocular is stitched together from up to two loops and up to three stored
walks.  One table per search holds each loop's labels, colors and stop set
(the vertices sharing a color with its W-label).  A choice of loops whose
W-labels clash in color is skipped; otherwise it reads only the (start, end)
lists its shape needs and keeps a walk exactly when every loop W-vertex
whose colors the walk meets is one it covers, as the candidate's other walks
are color-disjoint from it and cannot cover that vertex.  One weight test
per walk decides the rest.  Everything found is re-checked against the
improving-binocular predicate, so random colorings only ever cost
completeness, never soundness.

Whenever the color budget t covers the universe, the search runs one
injective coloring, which is exact: colorful then means element-disjoint
W-labels, so every walk state reachable under some random coloring is
reachable under the injective one.  Only a universe larger than the budget
falls back to ``COLORING_REPS`` seeded uniform colorings, the standard
substitute for a t-perfect hash family.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations
from operator import or_
from typing import Mapping

from .conflict import ConflictGraph, bit_positions
from .search_graph import LabeledBinocular, SearchEdge, SearchGraph, is_improving_binocular


# Seeded uniform colorings per search when the universe exceeds the budget.
COLORING_REPS = 64


def default_color_count(tau: int, n_vertices: int) -> int:
    """The default color budget 3 * tau^2 * log2(|V|), at least one color."""
    return max(1, math.ceil(3 * tau * tau * math.log2(max(2, n_vertices))))


def make_colorings(universe_n: int, t: int, seed: int) -> list[tuple[int, ...]]:
    """The one injective coloring when t covers the universe, else
    ``COLORING_REPS`` seeded uniform colorings, each a tuple of one color in
    0..t-1 per universe element."""
    if t < 1:
        raise ValueError("need t >= 1")
    if t >= universe_n:
        return [tuple(range(universe_n))]
    rng = random.Random(seed)
    return [tuple(rng.randrange(t) for _ in range(universe_n)) for _ in range(COLORING_REPS)]


@dataclass(frozen=True)
class ColorfulSearchGraph:
    """The search graph restricted to edges whose W-vertices got disjoint colors."""

    vertices: tuple[int, ...]
    edges: tuple[SearchEdge, ...]
    edge_colors: tuple[int, ...]          # per edge, union color mask of its W-label
    vertex_colors: Mapping[int, int]      # conflict vertex id -> color mask


def colorful_subgraph(sg: SearchGraph, f: tuple[int, ...],
                      g: ConflictGraph) -> ColorfulSearchGraph:
    """Filter the search graph down to its colorful edges under the coloring f."""
    vcol = {v: reduce(or_, (1 << f[e] for e in bit_positions(m)), 0)
            for v, m in enumerate(g.members)}
    kept: list[SearchEdge] = []
    cols: list[int] = []
    for e in sg.edges:
        acc = _mask_colors(e.w_mask, vcol)
        if acc < 0:
            continue
        if not acc:
            raise AssertionError("every W-label vertex carries at least one colored element")
        kept.append(e)
        cols.append(acc)
    return ColorfulSearchGraph(sg.vertices, tuple(kept), tuple(cols), vcol)


def _mask_colors(mask: int, vertex_colors: Mapping[int, int]) -> int:
    """The union color mask of the vertices in ``mask``, or -1 if two of
    them share a color."""
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

# The most states one start vertex's walk table may hold before giving up.
WALK_STATE_BUDGET = 500_000


class WalkBudgetExceeded(RuntimeError):
    """A start vertex's reachable state space outgrew ``WALK_STATE_BUDGET``."""


def walk_states(csg: ColorfulSearchGraph, max_len: int, u_keep: int,
                w_keep: int) -> dict[int, dict[int, list]]:
    """Every colorful-walk state reachable from each start vertex within
    ``max_len`` edges, one witness walk each, as
    start -> end -> [(colors, U-mask, W-mask, witness)].

    The masks carry bit v for every vertex v in the U- and W-labels of the
    walk's edges that lies in ``u_keep`` or ``w_keep`` (-1 keeps every
    vertex); witnesses are tuples of edge indices; rows come in table order.
    The base state is the empty walk; a transition appends a non-loop edge
    whose W-color set is disjoint from the colors accumulated so far.  How a
    state expands depends only on its end vertex and colors, and a child's
    kept masks only on its parent's and the edge's, so merging states on the
    kept masks is lossless for every reader that looks at no other bits:
    each end's list is the full table's list cut to its first row per
    (colors, kept U, kept W), in the same order and with the same
    witnesses.  One witness per state suffices: the first, a shortest walk,
    as the DP runs breadth first.  The budget bounds the number of kept
    states in each start's table.

    Non-loop edges get bit positions in index order.  ``incident[v]`` holds
    the positions of v's edges and ``clash[c]`` those of the edges whose
    colors hold bit c.  A state's ``blocked`` mask, the union of the clash
    masks of its colors, is built once per color mask from its parent's.
    A state expands exactly along ``incident[v] & ~blocked``, in ascending
    position: the order of an incident-list scan that skips every edge
    meeting its colors, so the rows, their order and the state at which the
    budget trips are the scan's.
    """
    steps: list[tuple[int, int, int, int, int, tuple[int, ...]]] = []
    incident = dict.fromkeys(csg.vertices, 0)
    clash = [0] * max(csg.edge_colors, default=0).bit_length()
    for i, e in enumerate(csg.edges):
        if e.is_loop:
            continue
        a, b = e.endpoints
        bit = 1 << len(steps)
        incident[a] |= bit
        incident[b] |= bit
        col = csg.edge_colors[i]
        col_bits = bit_positions(col)
        for c in col_bits:
            clash[c] |= bit
        # a ^ b ^ v is the endpoint other than v
        steps.append((a ^ b, col, e.u_mask & u_keep, e.w_mask & w_keep, i, col_bits))

    blocked_of = {0: 0}
    tables: dict[int, dict[int, list]] = {}
    for start in csg.vertices:
        states = {(start, 0, 0, 0)}
        by_end = tables[start] = {start: [(0, 0, 0, ())]}
        frontier = [((start, 0, 0, 0), ())]
        for _ in range(max_len):
            nxt = []
            for (v, colors, uu, ww), witness in frontier:
                blocked = blocked_of[colors]
                free = incident[v] & ~blocked
                while free:
                    low = free & -free
                    free ^= low
                    ab, col, u_m, w_m, ei, col_bits = steps[low.bit_length() - 1]
                    key = (ab ^ v, colors | col, uu | u_m, ww | w_m)
                    if key in states:
                        continue
                    states.add(key)
                    if key[1] not in blocked_of:
                        grown = blocked
                        for c in col_bits:
                            grown |= clash[c]
                        blocked_of[key[1]] = grown
                    wit = witness + (ei,)
                    by_end.setdefault(key[0], []).append(key[1:] + (wit,))
                    nxt.append((key, wit))
                    if len(states) > WALK_STATE_BUDGET:
                        raise WalkBudgetExceeded(f"walk table beyond {WALK_STATE_BUDGET} states")
            frontier = nxt
    return tables


# -- structure search --------------------------------------------------------

def _loop_choices(loops: list, g: ConflictGraph, vcol: Mapping[int, int]):
    """Yield (loop ids, p, q, U_L, W_L, stop mask, need) for each choice L of
    one loop, then of two, in ``combinations`` order of the ``loops`` table,
    where need = w(U_L) + 2|L| - w(W_L).

    A pair yields nothing, and is skipped, when a W-vertex of one loop
    shares a color with a different W-vertex of the other: a walk covers at
    most one of the two, and one covering neither leaves the clash
    standing.  As each W-label is colorful, that happens exactly when the
    color masks overlap beyond the colors of the shared W-vertices; when it
    does not, neither loop's W-label meets the other's stop set, so the
    pair's stop mask is the union of the two.
    """
    weight = g.weight_mask
    for i, p, uu, ww, _, stop in loops:
        yield (i,), p, p, uu, ww, stop, weight(uu) + 2 - weight(ww)
    for (i, p, ua, wa, ca, sa), (j, q, ub, wb, cb, sb) in combinations(loops, 2):
        common = ca & cb
        if common and common != _mask_colors(wa & wb, vcol):
            continue
        ctx_u, ctx_w = ua | ub, wa | wb
        yield (i, j), p, q, ctx_u, ctx_w, sa | sb, weight(ctx_u) + 4 - weight(ctx_w)


def find_colorful_binocular(csg: ColorfulSearchGraph, g: ConflictGraph,
                            walk_cap: int) -> LabeledBinocular | None:
    """Assemble a colorful binocular from at most two loops and stored walks.

    A table holds each loop's vertex, U- and W-label masks, W-colors and
    stop set, the vertices outside its W-label whose colors meet those
    colors (a loop whose W-label is not colorful yields nothing and gets no
    row).  One ``walk_states`` call tabulates every start vertex, grouped
    by end vertex, keeping only the label bits read below: the loop
    U-labels, and the loop W-labels and stop sets.  Loop-free shapes come
    first: two closed walks plus a (possibly empty) connector, or three
    paths between two vertices; they read only colors and witnesses, so the
    first row of each color set of a list stands for all of its rows.  A
    choice L of one or two loops from ``_loop_choices`` adds a closed walk
    and a connector, or a connector, scanning the rows of their lists in
    table order.  The loop W-vertices are pairwise color-disjoint, as are
    the W-vertices of any walk, so a walk meets the colors of a loop
    W-vertex it leaves standing exactly when it holds a vertex of L's stop
    mask.  Such walks drop out, which is exact: the candidate's walks are
    pairwise color-disjoint, so no other walk can cover that vertex.  The
    rest, with masks X and Y within the labels U_L and W_L of L, pass
    exactly when w(X) - w(Y) >= w(U_L) + 2|L| - w(W_L).  As w(Y) >= 0, the
    scan passes over a two-loop list whose rows' U-labels together meet U_L
    in too little weight, and a one-loop connector row (or list) that even
    the union of the kept closed walks' X cannot lift to the bound; the
    order, and with it the first hit, stays the same.  Any hit is a
    binocular by construction and is re-verified by the caller.  Stored
    walks are at most ``walk_cap`` long; a nonempty closed walk has at
    least two edges, as loops never enter the walk DP.
    """
    vcol = csg.vertex_colors
    loops = []
    u_keep = w_keep = 0
    for i, e in enumerate(csg.edges):
        if not e.is_loop:
            continue
        cols = _mask_colors(e.w_mask, vcol)
        if cols < 0:
            continue  # two of its own W-vertices share a color
        stop = sum(1 << v for v, c in vcol.items() if c & cols) & ~e.w_mask
        loops.append((i, e.endpoints[0], e.u_mask, e.w_mask, cols, stop))
        u_keep |= e.u_mask
        w_keep |= e.w_mask | stop
    ends = walk_states(csg, walk_cap, u_keep, w_keep)

    def walks(u: int, v: int) -> list[tuple[int, tuple[int, ...]]]:
        """(colors, witness) of the first row of each color set of the u->v list."""
        first: dict[int, tuple[int, ...]] = {}
        for colors, _, _, witness in ends[u].get(v, []):
            first.setdefault(colors, witness)
        return list(first.items())

    def assemble(loop_ids: tuple[int, ...], witness: tuple[int, ...]) -> LabeledBinocular:
        edge_ids = sorted(set(loop_ids) | set(witness))
        return LabeledBinocular(tuple(csg.edges[i] for i in edge_ids))

    # Every edge carries colors, so only the empty walk has none.
    cycles = {v: [(c, wit) for c, wit in walks(v, v) if c] for v in csg.vertices}
    for i, u in enumerate(csg.vertices):
        for v in csg.vertices[i:]:
            # Two closed walks joined by a (possibly empty) connector.
            connectors = walks(u, v)
            for c1, wit1 in cycles[u]:
                for c2, wit2 in cycles[v]:
                    if c1 & c2:
                        continue
                    for c3, wit3 in connectors:
                        if not c3 & (c1 | c2):
                            return assemble((), wit1 + wit2 + wit3)
            # Three edge-disjoint walks between two distinct vertices.
            if v == u:
                continue
            for j, (c1, wit1) in enumerate(connectors):
                for k in range(j + 1, len(connectors)):
                    c2, wit2 = connectors[k]
                    if c1 & c2:
                        continue  # every triple holding this pair overlaps
                    for c3, wit3 in connectors[k + 1:]:
                        if not c3 & (c1 | c2):
                            return assemble((), wit1 + wit2 + wit3)

    weight = g.weight_mask

    @cache
    def u_union(p: int, q: int) -> int:
        """The union of the U-masks of the p->q rows."""
        return reduce(or_, (uu for _, uu, _, _ in ends[p].get(q, [])), 0)

    for L, p, q, ctx_u, ctx_w, stop_w, need in _loop_choices(loops, g, vcol):
        if len(L) == 2:
            if weight(u_union(p, q) & ctx_u) < need:
                continue
            for _, uu, ww, wit in ends[p].get(q, []):
                if not ww & stop_w and weight(uu & ctx_u) - weight(ww & ctx_w) >= need:
                    return assemble(L, wit)
            continue
        for v in csg.vertices:
            loop_cycles = [(c2, uu & ctx_u, ww & ctx_w, wit2) for c2, uu, ww, wit2
                           in ends[v].get(v, []) if c2 and not ww & stop_w]
            if not loop_cycles:
                continue
            x_any = reduce(or_, (x2 for _, x2, _, _ in loop_cycles))
            if weight((u_union(p, v) & ctx_u) | x_any) < need:
                continue
            for c1, uu, ww, wit1 in ends[p].get(v, []):
                if ww & stop_w:
                    continue
                x1, y1 = uu & ctx_u, ww & ctx_w
                if weight(x1 | x_any) - weight(y1) < need:
                    continue
                for c2, x2, y2, wit2 in loop_cycles:
                    if not c1 & c2 and weight(x1 | x2) - weight(y1 | y2) >= need:
                        return assemble(L, wit1 + wit2)
    return None


def search_improving_binocular(sg: SearchGraph, g: ConflictGraph, params,
                               seed: int = 0) -> LabeledBinocular | None:
    """Color-coding search for an improving binocular in the search graph.

    When the default color budget covers the universe (or
    ``params.injective_colorings`` asks for it), one injective coloring
    runs and a none result is exact.  Otherwise ``COLORING_REPS`` seeded
    random colorings run, and none is evidence of absence only.
    The first colorful binocular assembled is returned; colorful implies
    improving, which is checked rather than assumed.
    """
    if not sg.edges:
        return None
    t = max(g.universe_size, 1) if params.injective_colorings else default_color_count(sg.tau, g.n)
    # Walks inside a minimal binocular are simple paths or cycles, so lengths
    # beyond the vertex count of the search graph cannot be needed.
    cap = min(math.ceil(sg.tau * math.log2(max(2, g.n))), len(sg.vertices) + 1)
    for f in make_colorings(g.universe_size, t, seed):
        csg = colorful_subgraph(sg, f, g)
        if not csg.edges:
            continue
        hit = find_colorful_binocular(csg, g, cap)
        if hit is not None:
            if not is_improving_binocular(hit, g):
                raise AssertionError("colorful binocular failed the improving predicate")
            return hit
    return None
