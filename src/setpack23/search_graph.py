"""The auxiliary search multigraph over weight-2 solution vertices.

A pair (U, W) with U inside the solution A and W an independent set outside
A induces a labeled edge when w(U) + 2 = w(W), both parts have at most tau
vertices, and the residual neighborhood N(W, A \\ U) consists of one or two
weight-2 solution vertices: the edge's endpoints (one makes a loop).  The
labels are vertex bitmasks; edges sort by endpoints, then by each label's
ascending vertex tuple.  W grows one vertex at a time, and W with all its
supersets is dropped once N(W, A) is too large or the balance slack too
wide for any of them to have an edge.  A sub-multigraph with more edges
than vertices is a binocular; an improving binocular satisfies three label
conditions that force its combined W-sets to be a local improvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from .conflict import ConflictGraph, bit_positions


class SearchEdge(NamedTuple):
    """A labeled edge: sorted endpoints plus the U- and W-label vertex bitmasks."""

    endpoints: tuple[int, ...]
    u_mask: int
    w_mask: int

    @property
    def is_loop(self) -> bool:
        return len(self.endpoints) == 1


@dataclass(frozen=True)
class SearchGraph:
    vertices: tuple[int, ...]       # weight-2 members of the solution, sorted
    edges: tuple[SearchEdge, ...]   # sorted
    tau: int

    @property
    def loops(self) -> tuple[SearchEdge, ...]:
        return tuple(e for e in self.edges if e.is_loop)


@dataclass(frozen=True)
class LabeledBinocular:
    """A sub-multiset of search-graph edges with more edges than touched vertices."""

    edges: tuple[SearchEdge, ...]

    def __post_init__(self) -> None:
        touched = {v for e in self.edges for v in e.endpoints}
        if len(self.edges) <= len(touched):
            raise ValueError("not a binocular: needs more edges than vertices")

    @property
    def u_mask(self) -> int:
        """U(B): every endpoint and U-label vertex, as a bitmask."""
        m = 0
        for e in self.edges:
            m |= e.u_mask | sum(1 << v for v in e.endpoints)
        return m

    @property
    def w_mask(self) -> int:
        """W(B): every W-label vertex, as a bitmask."""
        m = 0
        for e in self.edges:
            m |= e.w_mask
        return m


def enumerate_search_edges(g: ConflictGraph, a_mask: int, tau: int) -> SearchGraph:
    """Build the search graph for the solution A, given as the mask ``a_mask``.

    U is N(W, A) minus a set R of weight-2 vertices, the edge's endpoints.
    With d = w(N(W, A)) - w(W), the balance w(U) + 2 = w(W) forces
    |R| = (d + 2) / 2, so W has edges only when d is 0 or 2.  One recursion
    adds outside vertices to W in ascending order, carries w(W) and N(W, A)
    down, and drops W with every superset in two cases, both exact:

    - size: |N(W, A)| - 2 > tau.  |U| >= |N(W, A)| - 2, and N only grows.
    - balance slack: d - 2 (tau - |W|) > 2.  An added vertex adds at most 2
      to w(W) and takes nothing from w(N(W, A)), so d falls by at most 2 per
      vertex, and at most tau - |W| vertices follow.

    Each W is emitted before its supersets: the lex order of W's ascending
    vertex tuple.  So a stable sort by endpoints and U's tuple gives the edge
    order without building W's tuple.
    """
    if not g.independent_mask(a_mask):
        raise ValueError("solution must be independent")
    a2 = a_mask & g.w2_mask
    table = [(m, m & a_mask, w) for m, w in zip(map(g.adj_mask, range(g.n)), g.weights)]
    edges: list[SearchEdge] = []

    def grow(cands: int, w_mask: int, ww: int, n_mask: int, left: int) -> None:
        # A child adds a vertex of cands; left = tau - |child|; w(N) = |N| + |N & A2|.
        while cands:
            low = cands & -cands
            cands ^= low
            adj, a_nbrs, wv = table[low.bit_length() - 1]
            n2 = n_mask | a_nbrs
            n_size = n2.bit_count()
            d = n_size + (n2 & a2).bit_count() - ww - wv
            if n_size - 2 > tau or d - 2 * left > 2:
                continue
            if (d == 0 or d == 2) and n_size - d // 2 - 1 <= tau:
                for r_combo in combinations(bit_positions(n2 & a2), d // 2 + 1):
                    u_mask = n2 & ~(1 << r_combo[0] | 1 << r_combo[-1])
                    edges.append(SearchEdge(r_combo, u_mask, w_mask | low))
            if left > 0:
                grow(cands & ~adj, w_mask | low, ww + wv, n2, left - 1)

    grow(((1 << g.n) - 1) & ~a_mask, 0, 0, 0, tau - 1)
    edges.sort(key=lambda e: (e.endpoints, bit_positions(e.u_mask)))
    return SearchGraph(bit_positions(a2), tuple(edges), tau)


def is_improving_binocular(b: LabeledBinocular, g: ConflictGraph) -> bool:
    """Check the three improving conditions on a labeled binocular.

    (i) the W-labels of two-endpoint edges are pairwise disjoint, (ii) the
    loop labels outweigh their evicted counterpart by twice the loop count,
    (iii) the union of all W-labels is independent.
    """
    w1_union = u1_union = w2_union = u2_union = 0
    loops = 0
    for e in b.edges:
        if e.is_loop:
            loops += 1
            w1_union |= e.w_mask
            u1_union |= e.u_mask
        elif e.w_mask & w2_union:
            return False
        else:
            w2_union |= e.w_mask
            u2_union |= e.u_mask
    lhs = g.weight_mask(w1_union & ~w2_union)
    rhs = g.weight_mask(u1_union & ~u2_union) + 2 * loops
    if lhs < rhs:
        return False
    return g.independent_mask(w1_union | w2_union)


def extract_improvement(b: LabeledBinocular, g: ConflictGraph, a_mask: int) -> int:
    """Return the mask of W(B), the local improvement that an improving
    binocular encodes for the solution mask ``a_mask``.

    Also re-derives the two facts the caller relies on: every solution
    neighbor of W(B) lies in U(B), and w(W(B)) strictly exceeds w(U(B)).
    """
    if not is_improving_binocular(b, g):
        raise ValueError("extract_improvement needs an improving binocular")
    w_mask, u_mask = b.w_mask, b.u_mask
    if g.neighborhood_mask(w_mask, a_mask) & ~u_mask:
        raise AssertionError("solution neighborhood escaped the U-side of the binocular")
    if g.weight_mask(w_mask) <= g.weight_mask(u_mask):
        raise AssertionError("binocular weight chain violated")
    return w_mask

