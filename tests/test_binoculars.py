import math
import random
from itertools import combinations

import pytest

from setpack23.binoculars import (BinocularBudgetExceeded, DensityPreconditionError,
                                  Multigraph, MultiEdge, berman_furer_witness,
                                  classify_minimal_binocular, find_minimal_binocular,
                                  is_binocular, is_minimal_binocular, multigraph,
                                  naive_improving_binocular)
from setpack23.conflict import ConflictGraph, build_conflict_graph
from setpack23.search_graph import SearchEdge, SearchGraph, enumerate_search_edges
from conftest import binocular_gadget


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
        assert find_minimal_binocular(multigraph(5, [(0, 1), (1, 2), (3, 4)]), 6) is None

    def test_cycle_plus_chord(self):
        h = multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        b = find_minimal_binocular(h, 6)
        assert b is not None and len(b.edges) == len(b.vertices) + 1

    def test_k4(self):
        h = multigraph(4, list(combinations(range(4), 2)))
        b = find_minimal_binocular(h, 6)
        assert b is not None and len(b.edges) <= 6

    def test_agrees_with_definition(self, rng):
        for _ in range(120):
            h = random_multigraph(rng)
            by_def = definition_minimal_binoculars(h)
            found = find_minimal_binocular(h, max_size=len(h.edges))
            assert (found is None) == (not by_def)


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

    def test_reconstruction_is_exact(self, rng):
        for _ in range(150):
            h = random_multigraph(rng)
            b = find_minimal_binocular(h, max_size=len(h.edges))
            if b is None:
                continue
            shape = classify_minimal_binocular(b)
            covered = sorted(eid for part in shape.parts for eid in part)
            assert covered == sorted(e.id for e in b.edges)


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
        g = build_conflict_graph_from_weights([2], [])
        sg = SearchGraph((0,), (), tau=2)
        assert naive_improving_binocular(sg, g) is None

    @pytest.mark.parametrize("kind", ["double_loop", "theta", "dumbbell"])
    def test_gadgets_found(self, kind):
        inst, a = binocular_gadget(kind, random.Random(3))
        g = build_conflict_graph(inst)
        sg = enumerate_search_edges(g, a, tau=2)
        b = naive_improving_binocular(sg, g, max_size=4)
        assert b is not None
        assert is_minimal_binocular([MultiEdge(i, frozenset(e.endpoints))
                                     for i, e in enumerate(b.edges)])

    def test_overlapping_w_labels_block_every_candidate(self):
        g = build_conflict_graph_from_weights(
            [2, 2, 2, 2, 2], [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
        edges = (SearchEdge((0, 1), (), (2, 3)), SearchEdge((0, 1), (), (3,)),
                 SearchEdge((0, 1), (), (3, 4)))
        sg = SearchGraph((0, 1), edges, tau=2)
        assert naive_improving_binocular(sg, g, max_size=4) is None

    def test_budget_refusal(self):
        g = build_conflict_graph_from_weights([2], [])
        sg = SearchGraph((0,), (), tau=2)
        with pytest.raises(BinocularBudgetExceeded):
            naive_improving_binocular(sg, g, max_size=9, budget=8)


def build_conflict_graph_from_weights(weights, edges):
    return ConflictGraph(weights, edges)
