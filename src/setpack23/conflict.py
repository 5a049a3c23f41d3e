"""Conflict-graph construction, the neighborhood algebra and claw detection.

Vertices are set ids of an instance; two vertices are adjacent exactly when
the underlying sets intersect.  Such a graph is 4-claw-free, and every
induced 3-claw is centered at a weight-2 vertex: a set of size k cannot meet
k+1 pairwise-disjoint sets in distinct elements.  Vertex sets are exposed as
frozensets but handled internally as integer bitmasks: the graph stores one
neighbor mask per vertex, the mask of its weight-2 vertices (``w2_mask``)
and one element mask per set (``members``); ``build_conflict_graph`` is its
one constructor.  The sorted neighbor tuples of ``adj`` are derived from the
masks on first read.  Every vertex mask handed to the graph lies inside its
vertex set ``0..n-1``, which ``mask`` checks at the frozenset boundary; the
weight of U is |U| + |U & w2_mask|, and N(U, W) is ``neighborhood_mask``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .instance import Instance


@dataclass(frozen=True)
class ClawViolation:
    center: int
    talons: tuple[int, ...]
    kind: str  # "3-claw at weight-1 vertex" or "4-claw"


def bit_positions(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of a non-negative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class ConflictGraph:
    """Immutable weighted graph over dense vertex ids ``0..n-1``."""

    __slots__ = ("n", "weights", "members", "universe_size", "w2_mask",
                 "_adj_mask", "_adj")

    def __init__(self, weights: tuple[int, ...], adj_mask: tuple[int, ...],
                 members: tuple[int, ...], universe_size: int):
        self.weights = weights
        self.n = len(weights)
        self.members = members
        self.universe_size = universe_size
        self._adj_mask = adj_mask
        self._adj = None
        w2 = 0
        for v, w in enumerate(weights):
            if w == 2:
                w2 |= 1 << v
        self.w2_mask = w2

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuples, derived from the masks on first read."""
        if self._adj is None:
            self._adj = tuple(bit_positions(m) for m in self._adj_mask)
        return self._adj

    # -- bitmask helpers -------------------------------------------------

    def mask(self, vertices: Iterable[int]) -> int:
        vs = set(vertices)
        if outside := sorted(v for v in vs if not 0 <= v < self.n):
            raise ValueError(f"vertex ids {outside} lie outside 0..{self.n - 1}")
        return sum(1 << v for v in vs)

    def unmask(self, mask: int) -> frozenset[int]:
        return frozenset(bit_positions(mask))

    def weight_mask(self, mask: int) -> int:
        """The total weight of a vertex mask, which lies inside ``0..n-1``."""
        return mask.bit_count() + (mask & self.w2_mask).bit_count()

    def w2_count_mask(self, mask: int) -> int:
        return (mask & self.w2_mask).bit_count()

    def adj_mask(self, v: int) -> int:
        return self._adj_mask[v]

    def neighbors_mask(self, mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= self._adj_mask[low.bit_length() - 1]
            mask ^= low
        return out

    def neighborhood_mask(self, x_mask: int, a_mask: int) -> int:
        """N(X, A): the members of A that lie in X or are adjacent to X."""
        return (x_mask | self.neighbors_mask(x_mask)) & a_mask

    def independent_mask(self, mask: int) -> bool:
        return not self.neighbors_mask(mask) & mask


def build_conflict_graph(instance: Instance) -> ConflictGraph:
    """Build the conflict graph of an instance from one set-id mask per element.

    Vertex i is set i: set ids are positions 0..m-1, as ``Instance`` checks.
    Each element's mask holds the sets containing it; a set's neighbors are
    the union of its elements' masks, less the set itself.
    """
    sets = instance.sets
    by_elem = [0] * instance.universe_size
    for s in sets:
        bit = 1 << s.id
        for e in s.elements:
            by_elem[e] |= bit
    adj = []
    for s in sets:
        m = 0
        for e in s.elements:
            m |= by_elem[e]
        adj.append(m ^ (1 << s.id))
    return ConflictGraph(tuple(s.weight for s in sets), tuple(adj),
                         tuple(sum(1 << e for e in s.elements) for s in sets),
                         instance.universe_size)


def find_claw_violations(weights: Mapping[int, int], adj: Mapping[int, Iterable[int]]) -> list[ClawViolation]:
    """Find induced claws that a valid conflict graph cannot contain.

    Works on any adjacency mapping (ids need not be dense), so it also checks
    graphs that no set system built, such as reduced analysis graphs: a
    conflict graph never holds what it reports.  Reports every
    center that has w(center)+2 pairwise non-adjacent neighbors, i.e. a
    3-claw at a weight-1 vertex or a 4-claw anywhere.
    """
    adj_sets = {v: set(nbrs) for v, nbrs in adj.items()}
    violations: list[ClawViolation] = []
    for center in sorted(adj_sets):
        need = weights[center] + 2
        talons = _independent_subset(sorted(adj_sets[center]), adj_sets, need)
        if talons is not None:
            kind = "4-claw" if need == 4 else "3-claw at weight-1 vertex"
            violations.append(ClawViolation(center, tuple(talons), kind))
    return violations


def _independent_subset(candidates: list[int], adj_sets: Mapping[int, set[int]], k: int) -> list[int] | None:
    """Backtracking search for k pairwise non-adjacent vertices among candidates."""
    chosen: list[int] = []

    def grow(start: int) -> bool:
        if len(chosen) == k:
            return True
        for i in range(start, len(candidates)):
            v = candidates[i]
            if len(candidates) - i < k - len(chosen):
                return False
            if all(v not in adj_sets[c] for c in chosen):
                chosen.append(v)
                if grow(i + 1):
                    return True
                chosen.pop()
        return False

    return chosen if grow(0) else None

