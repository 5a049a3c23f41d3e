"""The auxiliary search multigraph over weight-2 solution vertices.

A pair (U, W) with U inside the solution A and W an independent set outside
A induces a labeled edge when w(U) + 2 = w(W), both parts have at most tau
vertices, and the residual neighborhood N(W, A \\ U) consists of one or two
weight-2 solution vertices.  Those residual vertices are the edge's
endpoints (one endpoint makes a loop); the labels are vertex bitmasks, and
edges sort by endpoints, then by each label's ascending vertex tuple.  A
sub-multigraph with more edges than vertices is a binocular; an improving
binocular satisfies three label conditions that force its combined W-sets
to be a local improvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

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


def _independent_subsets(g: ConflictGraph, pool: Sequence[int], max_size: int):
    """Yield the masks of the non-empty independent subsets of pool, lex order."""
    def rec(start: int, mask: int, size: int):
        for i in range(start, len(pool)):
            v = pool[i]
            if g.adj_mask(v) & mask:
                continue
            mask2 = mask | (1 << v)
            yield mask2
            if size < max_size:
                yield from rec(i + 1, mask2, size + 1)
    yield from rec(0, 0, 1)


def enumerate_search_edges(g: ConflictGraph, A: Iterable[int], tau: int) -> SearchGraph:
    """Build the search graph for the solution A.

    W ranges over the independent sets of at most tau vertices outside A,
    and U over N(W, A) minus one or two weight-2 vertices; the
    weight-balance equation pins down how many.  Pairs whose U reaches
    outside N(W, A) are never enumerated.
    """
    a_mask = g.mask(A)
    if not g.independent_mask(a_mask):
        raise ValueError("solution must be independent")
    outside = bit_positions(((1 << g.n) - 1) & ~a_mask)
    # Each (W, R) pair gives its own edge and sort key, in which labels
    # compare as ascending vertex tuples, not as masks.
    keyed: list[tuple[tuple, SearchEdge]] = []
    for w_mask in _independent_subsets(g, outside, tau):
        ww = g.weight_mask(w_mask)
        m_mask = g.neighbors_mask(w_mask) & a_mask
        # U = N(W, A) minus a removed set R of weight-2 vertices; the
        # balance w(U) + 2 = w(W) forces |R| = (w(M) - w(W) + 2) / 2.
        need2, rem = divmod(g.weight_mask(m_mask) - ww + 2, 2)
        if rem or need2 not in (1, 2) or m_mask.bit_count() - need2 > tau:
            continue
        w_key = bit_positions(w_mask)
        for r_combo in combinations(bit_positions(m_mask & g.w2_mask), need2):
            u_mask = m_mask
            for v in r_combo:
                u_mask ^= 1 << v
            keyed.append(((r_combo, bit_positions(u_mask), w_key),
                          SearchEdge(r_combo, u_mask, w_mask)))
    keyed.sort()
    vertices = bit_positions(a_mask & g.w2_mask)
    return SearchGraph(vertices, tuple(e for _, e in keyed), tau)


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


def extract_improvement(b: LabeledBinocular, g: ConflictGraph, A: Iterable[int]) -> frozenset[int]:
    """Return W(B), the local improvement an improving binocular encodes.

    Also re-derives the two facts the caller relies on: every solution
    neighbor of W(B) lies in U(B), and w(W(B)) strictly exceeds w(U(B)).
    """
    if not is_improving_binocular(b, g):
        raise ValueError("extract_improvement needs an improving binocular")
    w_mask, u_mask = b.w_mask, b.u_mask
    if g.neighborhood_mask(w_mask, g.mask(A)) & ~u_mask:
        raise AssertionError("solution neighborhood escaped the U-side of the binocular")
    if g.weight_mask(w_mask) <= g.weight_mask(u_mask):
        raise AssertionError("binocular weight chain violated")
    return g.unmask(w_mask)

