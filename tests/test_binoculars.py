"""Multigraph binocular theory, kept here as the oracle for the solver's search.

A binocular is a sub-multigraph with more edges than vertices.  Minimal ones
are connected, have exactly one more edge than vertices, minimum degree two
(loops counting twice), and decompose either into two cycles joined by a
possibly empty path or into three edge-disjoint paths between two vertices.
The top of this module holds the structural minimality test, the two-shape
classification, the dense-graph witness extraction of Berman and Fuerer (a
graph with |E| >= (s+1)/s * |V| contains a binocular of size at most
4*s*log2|V|) and the exhaustive improving-binocular oracle that other test
modules check the color-coding search against.  The solver imports none of
it.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

import pytest

from setpack23.conflict import ConflictGraph, build_conflict_graph
from setpack23.search_graph import (LabeledBinocular, SearchGraph, enumerate_search_edges,
                                    is_improving_binocular)
from conftest import K23_SETS, binocular_gadget, edgeless_graph, graph_from_sets, search_edge


@dataclass(frozen=True)
class MultiEdge:
    id: int
    ends: frozenset[int]  # one vertex for a loop, two otherwise

    def __post_init__(self) -> None:
        if len(self.ends) not in (1, 2):
            raise ValueError("edge needs one or two endpoints")

    @property
    def is_loop(self) -> bool:
        return len(self.ends) == 1


@dataclass(frozen=True)
class Multigraph:
    vertices: tuple[int, ...]
    edges: tuple[MultiEdge, ...]

    def __post_init__(self) -> None:
        vs = set(self.vertices)
        for e in self.edges:
            if not e.ends <= vs:
                raise ValueError(f"edge {e.id} leaves the vertex set")

    def sub(self, edge_ids: Iterable[int]) -> "Multigraph":
        ids = set(edge_ids)
        edges = tuple(e for e in self.edges if e.id in ids)
        verts = tuple(sorted({v for e in edges for v in e.ends}))
        return Multigraph(verts, edges)


def multigraph(n: int, pairs: Sequence[tuple[int, int]]) -> Multigraph:
    """Convenience constructor from (u, v) pairs; u == v makes a loop."""
    return Multigraph(tuple(range(n)),
                      tuple(MultiEdge(i, frozenset((u, v))) for i, (u, v) in enumerate(pairs)))


def is_binocular(h: Multigraph) -> bool:
    return len(h.edges) > len(h.vertices)


def _touched(edges: Sequence[MultiEdge]) -> set[int]:
    return {v for e in edges for v in e.ends}


def _connected(edges: Sequence[MultiEdge]) -> bool:
    verts = _touched(edges)
    if not verts:
        return False
    incident: dict[int, list[MultiEdge]] = {v: [] for v in verts}
    for e in edges:
        for v in e.ends:
            incident[v].append(e)
    seen = set()
    queue = deque([next(iter(verts))])
    while queue:
        v = queue.popleft()
        if v in seen:
            continue
        seen.add(v)
        for e in incident[v]:
            for u in e.ends:
                if u not in seen:
                    queue.append(u)
    return seen == verts


def is_minimal_binocular(edges: Sequence[MultiEdge]) -> bool:
    """Structural minimality test: connected, |E| = |V|+1, min degree >= 2.

    Equivalent to "no proper sub-multigraph is a binocular": a proper
    sub-binocular would need its own cyclomatic number 2, which removing any
    edge from such a graph already destroys.
    """
    verts = _touched(edges)
    if len(edges) != len(verts) + 1:
        return False
    deg = {v: 0 for v in verts}
    for e in edges:
        for v in e.ends:
            deg[v] += 2 if e.is_loop else 1
    if any(d < 2 for d in deg.values()):
        return False
    return _connected(edges)


@dataclass(frozen=True)
class BinocularShape:
    """Witness decomposition of a minimal binocular.

    ``two_cycles_and_path`` carries (cycle_u, cycle_v, path) edge-id tuples,
    the path possibly empty; ``three_paths`` carries three edge-disjoint
    u-v path edge-id tuples.  The parts partition the edge set exactly.
    """

    kind: str
    u: int
    v: int
    parts: tuple[tuple[int, ...], ...]


def classify_minimal_binocular(b: Multigraph) -> BinocularShape:
    """Decompose a minimal binocular into one of its two possible shapes."""
    if not is_minimal_binocular(b.edges):
        raise ValueError("input is not a minimal binocular")
    incident: dict[int, list[MultiEdge]] = {v: [] for v in b.vertices}
    deg = {v: 0 for v in b.vertices}
    for e in b.edges:
        for v in e.ends:
            incident[v].append(e)
            deg[v] += 2 if e.is_loop else 1
    branch = sorted(v for v in b.vertices if deg[v] >= 3)
    used: set[int] = set()

    def chase(start: int, first: MultiEdge) -> tuple[tuple[int, ...], int]:
        """Follow a degree-2 chain from start along first; ends at a branch vertex."""
        chain = [first.id]
        used.add(first.id)
        if first.is_loop:
            return tuple(chain), start
        cur = next(iter(first.ends - {start})) if len(first.ends) == 2 else start
        while cur not in branch:
            nxt = next(e for e in incident[cur] if e.id not in used)
            chain.append(nxt.id)
            used.add(nxt.id)
            if nxt.is_loop:
                raise AssertionError("loop at a degree-2 vertex inside a minimal binocular")
            cur = next(iter(nxt.ends - {cur})) if len(nxt.ends) == 2 else cur
        return tuple(chain), cur

    if len(branch) == 1:
        # One degree-4 vertex: two cycles meeting there, connector empty.
        u = branch[0]
        cycles: list[tuple[int, ...]] = []
        for e in incident[u]:
            if e.id in used:
                continue
            chain, end = chase(u, e)
            assert end == u, "chain from the unique branch vertex must close"
            cycles.append(chain)
        assert len(cycles) == 2
        shape = BinocularShape("two_cycles_and_path", u, u, (cycles[0], cycles[1], ()))
    elif len(branch) == 2:
        u, v = branch
        chains: list[tuple[tuple[int, ...], int]] = []
        for e in incident[u]:
            if e.id not in used:
                chains.append(chase(u, e))
        to_v = [c for c, end in chains if end == v]
        closed = [c for c, end in chains if end == u]
        if len(to_v) == 3:
            shape = BinocularShape("three_paths", u, v, tuple(to_v))
        else:
            assert len(to_v) == 1 and len(closed) == 1, "unexpected chain pattern"
            v_chain = next(chase(v, e) for e in incident[v] if e.id not in used)
            assert v_chain[1] == v
            shape = BinocularShape("two_cycles_and_path", u, v,
                                   (closed[0], v_chain[0], to_v[0]))
    else:
        raise AssertionError("a minimal binocular has one or two branch vertices")

    covered = [eid for part in shape.parts for eid in part]
    assert sorted(covered) == sorted(e.id for e in b.edges), \
        "witness decomposition must reconstruct the edge set exactly"
    return shape


class DensityPreconditionError(ValueError):
    """The graph is too sparse for the dense-binocular guarantee."""


def berman_furer_witness(h: Multigraph, s: int) -> Multigraph:
    """Extract a small binocular from a dense multigraph.

    Requires s * |E| >= (s+1) * |V|.  Finds a shortest cycle in a pruned
    dense component and grows a second cycle or ear from it by breadth-first
    search, which stays well inside the 4*s*log2|V| size guarantee.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    if s * len(h.edges) < (s + 1) * len(h.vertices):
        raise DensityPreconditionError("need |E| >= (s+1)/s * |V|")

    # Vertices of degree <= 1 sit in no binocular; strip them iteratively.
    edges = list(h.edges)
    while True:
        deg: dict[int, int] = {}
        for e in edges:
            for v in e.ends:
                deg[v] = deg.get(v, 0) + (2 if e.is_loop else 1)
        weak = {v for v, d in deg.items() if d <= 1}
        if not weak:
            break
        edges = [e for e in edges if not e.ends & weak]

    comps = _edge_components(edges)
    comp = max(comps, key=lambda c: (len(c) - len(_touched(c)), -min(e.id for e in c)))
    assert len(comp) > len(_touched(comp)), "pruning must preserve the edge surplus"

    cycle = _shortest_cycle(comp)
    ear = _closing_structure(comp, cycle)
    witness_edges = {e.id for e in cycle} | {e.id for e in ear}
    out = h.sub(witness_edges)
    assert is_binocular(out)
    bound = 4 * s * math.log2(len(h.vertices)) if len(h.vertices) > 1 else 0.0
    if bound >= 2.0 and len(out.edges) > bound:
        raise AssertionError("witness exceeded the dense-binocular size bound")
    return out


def _edge_components(edges: list[MultiEdge]) -> list[list[MultiEdge]]:
    verts = _touched(edges)
    parent = {v: v for v in verts}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        ends = sorted(e.ends)
        if len(ends) == 2:
            parent[find(ends[0])] = find(ends[1])
    groups: dict[int, list[MultiEdge]] = {}
    for e in edges:
        groups.setdefault(find(next(iter(e.ends))), []).append(e)
    return list(groups.values())


def _shortest_cycle(edges: list[MultiEdge]) -> list[MultiEdge]:
    loops = sorted((e for e in edges if e.is_loop), key=lambda e: e.id)
    if loops:
        return [loops[0]]
    by_pair: dict[frozenset[int], list[MultiEdge]] = {}
    for e in edges:
        by_pair.setdefault(e.ends, []).append(e)
    parallel = sorted((p for p in by_pair.values() if len(p) >= 2),
                      key=lambda p: (p[0].id, p[1].id))
    if parallel:
        return parallel[0][:2]

    # Simple part: BFS from every vertex, closing on the first non-tree edge.
    verts = sorted(_touched(edges))
    incident: dict[int, list[MultiEdge]] = {v: [] for v in verts}
    for e in edges:
        for v in e.ends:
            incident[v].append(e)
    best: list[MultiEdge] | None = None
    for root in verts:
        dist = {root: 0}
        par_edge: dict[int, MultiEdge] = {}
        par_vert: dict[int, int] = {root: root}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            if best is not None and dist[x] * 2 >= len(best):
                break
            for e in sorted(incident[x], key=lambda e: e.id):
                y = next(iter(e.ends - {x}))
                if y not in dist:
                    dist[y] = dist[x] + 1
                    par_edge[y] = e
                    par_vert[y] = x
                    queue.append(y)
                elif par_edge.get(x) is not e and par_edge.get(y) is not e:
                    cyc = _close_cycle(x, y, e, par_edge, par_vert)
                    if cyc is not None and (best is None or len(cyc) < len(best)):
                        best = cyc
    assert best is not None, "a component with an edge surplus contains a cycle"
    return best


def _tree_path(x: int, par_edge: dict[int, MultiEdge], par_vert: dict[int, int]) -> list[tuple[int, MultiEdge]]:
    path = []
    while par_vert[x] != x:
        e = par_edge[x]
        path.append((x, e))
        x = par_vert[x]
    return path


def _close_cycle(x: int, y: int, e: MultiEdge, par_edge: dict[int, MultiEdge],
                 par_vert: dict[int, int]) -> list[MultiEdge] | None:
    px = _tree_path(x, par_edge, par_vert)
    py = _tree_path(y, par_edge, par_vert)
    ex = [edge for _, edge in px]
    ey = [edge for _, edge in py]
    # Strip the shared tree suffix so the remainder is a simple cycle.
    while ex and ey and ex[-1].id == ey[-1].id:
        ex.pop()
        ey.pop()
    cycle = ex + ey + [e]
    if len({c.id for c in cycle}) != len(cycle):
        return None
    return cycle


def _closing_structure(edges: list[MultiEdge], cycle: list[MultiEdge]) -> list[MultiEdge]:
    """Grow a BFS forest from the cycle; the first closing edge yields the
    ear or second cycle (plus connector) completing a binocular."""
    cyc_ids = {e.id for e in cycle}
    cyc_verts = sorted(_touched(cycle))
    incident: dict[int, list[MultiEdge]] = {}
    for e in edges:
        if e.id in cyc_ids:
            continue
        for v in e.ends:
            incident.setdefault(v, []).append(e)
    root_of: dict[int, int] = {v: v for v in cyc_verts}
    par_edge: dict[int, MultiEdge] = {}
    par_vert: dict[int, int] = {v: v for v in cyc_verts}
    queue = deque(cyc_verts)
    while queue:
        x = queue.popleft()
        for e in sorted(incident.get(x, []), key=lambda e: e.id):
            if e.is_loop:
                return [e] + [edge for _, edge in _tree_path(x, par_edge, par_vert)]
            y = next(iter(e.ends - {x}))
            if par_edge.get(x) is e:
                continue
            if y not in root_of:
                root_of[y] = root_of[x]
                par_edge[y] = e
                par_vert[y] = x
                queue.append(y)
            else:
                px = _tree_path(x, par_edge, par_vert)
                py = _tree_path(y, par_edge, par_vert)
                out = {e.id} | {edge.id for _, edge in px} | {edge.id for _, edge in py}
                return [edge for edge in edges if edge.id in out]
    raise AssertionError("dense component must close a second structure")


class BinocularBudgetExceeded(RuntimeError):
    pass


def naive_improving_binocular(sg: SearchGraph, g: ConflictGraph, max_size: int = 4,
                              budget: int = 8,
                              max_combinations: int = 2_000_000) -> LabeledBinocular | None:
    """Exhaustive oracle: try every minimal-binocular edge subset up to max_size.

    Only intended for small search graphs; refuses oversized requests so the
    combinatorial blow-up stays visible instead of silently hanging.
    """
    if max_size > budget:
        raise BinocularBudgetExceeded(f"max_size {max_size} above budget {budget}")
    m = len(sg.edges)
    total = 0
    for k in range(2, max_size + 1):
        total += comb(m, k) if m >= k else 0
        if total > max_combinations:
            raise BinocularBudgetExceeded("too many edge subsets to enumerate")
        for chosen in combinations(range(m), k):
            edges = [sg.edges[i] for i in chosen]
            touched = {v for e in edges for v in e.endpoints}
            if k <= len(touched):
                continue
            medges = [MultiEdge(i, frozenset(sg.edges[i].endpoints)) for i in chosen]
            if not is_minimal_binocular(medges):
                continue
            cand = LabeledBinocular(tuple(edges))
            if is_improving_binocular(cand, g):
                return cand
    return None


# -- tests -------------------------------------------------------------------

def random_multigraph(rng: random.Random, max_n: int = 7, max_m: int = 10) -> Multigraph:
    n = rng.randrange(1, max_n + 1)
    m = rng.randrange(0, max_m + 1)
    pairs = []
    for _ in range(m):
        u = rng.randrange(n)
        v = u if rng.random() < 0.15 else rng.randrange(n)
        pairs.append((u, v))
    return multigraph(n, pairs)


def definition_minimal_binoculars(h: Multigraph) -> list[frozenset[int]]:
    """All minimal binocular edge-id sets, straight from the definition."""
    m = len(h.edges)
    binos = []
    for mask in range(1, 1 << m):
        chosen = [h.edges[i] for i in range(m) if mask >> i & 1]
        touched = {v for e in chosen for v in e.ends}
        if len(chosen) > len(touched):
            binos.append(mask)
    out = []
    for mask in binos:
        if not any(other != mask and other & mask == other for other in binos):
            out.append(frozenset(i for i in range(m) if mask >> i & 1))
    return out


class TestIsBinocular:
    def test_double_loop(self):
        assert is_binocular(multigraph(1, [(0, 0), (0, 0)]))

    def test_triangle_is_not(self):
        assert not is_binocular(multigraph(3, [(0, 1), (1, 2), (2, 0)]))

    def test_three_parallel_edges(self):
        assert is_binocular(multigraph(2, [(0, 1)] * 3))


class TestFindMinimal:
    def test_forest_has_none(self):
        assert definition_minimal_binoculars(multigraph(5, [(0, 1), (1, 2), (3, 4)])) == []

    def test_cycle_plus_chord(self):
        h = multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert definition_minimal_binoculars(h) == [frozenset(range(5))]

    def test_k4(self):
        # dropping any one of the six edges leaves a minimal binocular
        h = multigraph(4, list(combinations(range(4), 2)))
        found = definition_minimal_binoculars(h)
        assert len(found) == 6 and set(found) == {frozenset(range(6)) - {i} for i in range(6)}

    def test_agrees_with_definition(self, rng):
        # the structural criterion holds on an edge subset exactly when the
        # subset is definition-minimal, which naive_improving_binocular relies on
        for _ in range(120):
            h = random_multigraph(rng)
            by_def = set(definition_minimal_binoculars(h))
            m = len(h.edges)
            for mask in range(1 << m):
                chosen = [h.edges[i] for i in range(m) if mask >> i & 1]
                assert is_minimal_binocular(chosen) == (frozenset(e.id for e in chosen) in by_def)


class TestClassify:
    def test_double_loop_is_two_cycles_with_empty_path(self):
        shape = classify_minimal_binocular(multigraph(1, [(0, 0), (0, 0)]))
        assert shape.kind == "two_cycles_and_path"
        assert shape.parts[2] == ()

    def test_three_parallel_edges_are_three_paths(self):
        shape = classify_minimal_binocular(multigraph(2, [(0, 1)] * 3))
        assert shape.kind == "three_paths"
        assert all(len(p) == 1 for p in shape.parts)

    def test_two_triangles_joined_by_a_path(self):
        pairs = [(0, 1), (1, 2), (2, 0),      # first triangle
                 (3, 4), (4, 5), (5, 3),      # second triangle
                 (0, 6), (6, 3)]              # connecting path
        shape = classify_minimal_binocular(multigraph(7, pairs))
        assert shape.kind == "two_cycles_and_path"
        assert sorted(len(p) for p in shape.parts) == [2, 3, 3]

    def test_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            classify_minimal_binocular(multigraph(3, [(0, 1), (1, 2), (2, 0)]))


class TestBermanFurer:
    def test_k4_with_s2(self):
        h = multigraph(4, list(combinations(range(4), 2)))
        w = berman_furer_witness(h, s=2)
        assert is_binocular(w)
        assert len(w.edges) <= 4 * 2 * math.log2(4)

    def test_single_vertex_double_loop_returns_itself(self):
        h = multigraph(1, [(0, 0), (0, 0)])
        w = berman_furer_witness(h, s=1)
        assert {e.id for e in w.edges} == {0, 1}

    def test_path_fails_precondition(self):
        with pytest.raises(DensityPreconditionError):
            berman_furer_witness(multigraph(4, [(0, 1), (1, 2), (2, 3)]), s=1)

    def test_witness_edges_come_from_the_graph(self, rng):
        for _ in range(40):
            n = rng.randrange(6, 20)
            s = rng.choice([1, 2, 3])
            m = math.ceil((s + 1) / s * n) + rng.randrange(3)
            h = multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
            w = berman_furer_witness(h, s)
            assert is_binocular(w)
            ids = {e.id for e in h.edges}
            assert all(e.id in ids for e in w.edges)


class TestNaiveImproving:
    def test_empty_search_graph(self):
        g = edgeless_graph([2])
        sg = SearchGraph((0,), (), tau=2)
        assert naive_improving_binocular(sg, g) is None

    @pytest.mark.parametrize("kind", ["double_loop", "theta", "dumbbell"])
    def test_gadgets_found(self, kind):
        inst, a = binocular_gadget(kind, random.Random(3))
        g = build_conflict_graph(inst)
        sg = enumerate_search_edges(g, g.mask(a), tau=2)
        b = naive_improving_binocular(sg, g, max_size=4)
        assert b is not None
        assert is_minimal_binocular([MultiEdge(i, frozenset(e.endpoints))
                                     for i, e in enumerate(b.edges)])

    def test_overlapping_w_labels_block_every_candidate(self):
        g = graph_from_sets(K23_SETS)
        edges = (search_edge((0, 1), (), (2, 3)), search_edge((0, 1), (), (3,)),
                 search_edge((0, 1), (), (3, 4)))
        sg = SearchGraph((0, 1), edges, tau=2)
        assert naive_improving_binocular(sg, g, max_size=4) is None

    def test_budget_refusal(self):
        g = edgeless_graph([2])
        sg = SearchGraph((0,), (), tau=2)
        with pytest.raises(BinocularBudgetExceeded):
            naive_improving_binocular(sg, g, max_size=9, budget=8)
