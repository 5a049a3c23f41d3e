"""Conflict-graph construction, the neighborhood algebra and claw detection.

Vertices are set ids of an instance; two vertices are adjacent exactly when
the underlying sets intersect.  Such a graph is 4-claw-free, and every
induced 3-claw is centered at a weight-2 vertex: a set of size k cannot meet
k+1 pairwise-disjoint sets in distinct elements.  Vertex sets are exposed as
frozensets but handled internally as integer bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .instance import Instance


@dataclass(frozen=True)
class ClawViolation:
    center: int
    talons: tuple[int, ...]
    kind: str  # "3-claw at weight-1 vertex" or "4-claw"


class ConflictGraph:
    """Immutable weighted graph over dense vertex ids ``0..n-1``."""

    __slots__ = ("n", "weights", "adj", "members", "universe_size",
                 "_adj_mask", "_w1_mask", "_w2_mask")

    def __init__(self, weights: Iterable[int], edges: Iterable[tuple[int, int]],
                 members: tuple[frozenset[int], ...] | None = None,
                 universe_size: int = 0):
        self.weights = tuple(weights)
        self.n = len(self.weights)
        if any(w not in (1, 2) for w in self.weights):
            raise ValueError("vertex weights must be 1 or 2")
        adj_sets: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in edges:
            if u == v:
                raise ValueError("conflict graph is simple, no self-loops")
            adj_sets[u].add(v)
            adj_sets[v].add(u)
        self.adj = tuple(tuple(sorted(s)) for s in adj_sets)
        self.members = members
        self.universe_size = universe_size
        self._adj_mask = tuple(sum(1 << v for v in nbrs) for nbrs in self.adj)
        self._w1_mask = sum(1 << v for v, w in enumerate(self.weights) if w == 1)
        self._w2_mask = sum(1 << v for v, w in enumerate(self.weights) if w == 2)

    # -- bitmask helpers -------------------------------------------------

    def mask(self, vertices: Iterable[int]) -> int:
        return sum(1 << v for v in set(vertices))

    def unmask(self, mask: int) -> frozenset[int]:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return frozenset(out)

    def weight_mask(self, mask: int) -> int:
        return (mask & self._w1_mask).bit_count() + 2 * (mask & self._w2_mask).bit_count()

    def w2_count_mask(self, mask: int) -> int:
        return (mask & self._w2_mask).bit_count()

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
        m = mask
        while m:
            low = m & -m
            if self._adj_mask[low.bit_length() - 1] & mask:
                return False
            m ^= low
        return True

    @property
    def w2_mask(self) -> int:
        return self._w2_mask

    # -- set-level API ---------------------------------------------------

    def weight_of(self, vertices: Iterable[int]) -> int:
        return sum(self.weights[v] for v in set(vertices))


def build_conflict_graph(instance: Instance) -> ConflictGraph:
    """Build the conflict graph of an instance via a per-element inverted index."""
    by_elem: dict[int, list[int]] = {}
    ordered = sorted(instance.sets, key=lambda s: s.id)
    if [s.id for s in ordered] != list(range(len(ordered))):
        raise ValueError("conflict graph needs dense set ids 0..m-1")
    for s in ordered:
        for e in s.elements:
            by_elem.setdefault(e, []).append(s.id)
    edges = set()
    for ids in by_elem.values():
        for u, v in combinations(ids, 2):
            edges.add((min(u, v), max(u, v)))
    return ConflictGraph(
        weights=[s.weight for s in ordered],
        edges=sorted(edges),
        members=tuple(s.key for s in ordered),
        universe_size=instance.universe_size,
    )


def neighborhood(g: ConflictGraph, U: Iterable[int], W: Iterable[int]) -> frozenset[int]:
    """The neighborhood of U inside W: ``(U & W) | {w in W adjacent to some u in U}``."""
    return g.unmask(g.neighborhood_mask(g.mask(U), g.mask(W)))


def find_claw_violations(weights: Mapping[int, int], adj: Mapping[int, Iterable[int]]) -> list[ClawViolation]:
    """Find induced claws that a valid conflict graph cannot contain.

    Works on any adjacency mapping (ids need not be dense), so the same check
    serves hand-built graphs and reduced analysis graphs.  Reports every
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

