import hashlib
import json
import random
from pathlib import Path
from unittest import mock

import pytest

import setpack23.search_graph as search_graph
from setpack23 import parse_instance
from setpack23.cli import hereditary_instance, suite_instances, threedm_instance
from setpack23.conflict import build_conflict_graph
from setpack23.local_search import SearchParams, is_local_improvement, solve
from setpack23.search_graph import (LabeledBinocular, SearchEdge,
                                    enumerate_search_edges, extract_improvement,
                                    is_improving_binocular)
from setpack23.instance import generate_random
from conftest import (K23_SETS, binocular_gadget, full_search_edges, graph_from_sets,
                      instance_from_sets, label_key, random_packing, reference_search_edges,
                      search_edge, validate_search_edge)
from test_binoculars import naive_improving_binocular


def two_anchor_instance(v_elements):
    """Two disjoint solution 3-sets plus one outside set with given elements."""
    return instance_from_sets([(1, 2, 3), (4, 5, 6), v_elements])


class TestEnumerate:
    def test_outside_set_meeting_both_anchors_is_an_edge(self):
        g = build_conflict_graph(two_anchor_instance((3, 4, 9)))
        sg = enumerate_search_edges(g, g.mask({0, 1}), tau=1)
        assert sg.vertices == (0, 1)
        assert search_edge((0, 1), (), (2,)) in sg.edges

    def test_outside_set_meeting_one_anchor_is_a_loop(self):
        g = build_conflict_graph(two_anchor_instance((3, 9, 10)))
        sg = enumerate_search_edges(g, g.mask({0, 1}), tau=1)
        assert search_edge((0,), (), (2,)) in sg.edges

    def test_edges_compare_on_endpoints_and_masks(self):
        e = SearchEdge((0, 1), 0b1000, 0b100100)
        assert e == search_edge((0, 1), (3,), (2, 5))
        twin = SearchEdge((0, 1), 0b1000, 0b100100)
        assert e == twin and hash(e) == hash(twin)
        assert e == ((0, 1), 0b1000, 0b100100) and hash(e) == hash(((0, 1), 0b1000, 0b100100))
        for other in (SearchEdge((0,), 0b1000, 0b100100), SearchEdge((0, 1), 0, 0b100100),
                      SearchEdge((0, 1), 0b1000, 0b100)):
            assert e != other
        assert len({e, twin, SearchEdge((0, 1), 0b1000, 0b100)}) == 2
        assert not e.is_loop and SearchEdge((0,), 0, 0b100).is_loop

    def test_dependent_solution_is_rejected(self):
        g = build_conflict_graph(two_anchor_instance((3, 4, 9)))
        with pytest.raises(ValueError, match="solution must be independent"):
            enumerate_search_edges(g, g.mask({0, 2}), tau=1)

    def test_weight_balance_rules_out_small_w(self):
        # a lone 2-set cannot satisfy w(U) + 2 = w(W) with U inside N(W, A)
        g = build_conflict_graph(instance_from_sets([(1, 2, 3), (3, 9)]))
        sg = enumerate_search_edges(g, g.mask({0}), tau=1)
        assert sg.edges == ()

    def test_all_edges_revalidate(self):
        rng = random.Random(4)
        for seed in range(15):
            inst = generate_random(rng.randrange(6, 10), rng.randrange(4, 10),
                                   rng.random(), seed)
            g = build_conflict_graph(inst)
            a = random_packing(g, rng)
            sg = enumerate_search_edges(g, g.mask(a), tau=3)
            for e in sg.edges:
                assert validate_search_edge(g, a, e, tau=3)

    def test_canonical_edges_subset_of_full(self):
        rng = random.Random(11)
        for seed in range(10):
            inst = generate_random(7, rng.randrange(4, 9), rng.random(), seed + 50)
            g = build_conflict_graph(inst)
            a = random_packing(g, rng)
            canonical = enumerate_search_edges(g, g.mask(a), tau=2)
            full = full_search_edges(g, a, tau=2)
            assert set(canonical.edges) <= set(full.edges)


def test_search_edges_keep_label_order():
    # edges are sorted by endpoints, then by each label's ascending vertex
    # tuple; on these states that order differs from the masks' own order
    rng = random.Random(1212)
    states = []
    for _, inst, params in suite_instances("threedm-small", 12, 3):
        g = build_conflict_graph(inst)
        states += [(g, random_packing(g, rng), 3), (g, solve(inst, params)[0].members, 4)]
    for seed in range(12):
        g = build_conflict_graph(generate_random(rng.randrange(7, 12), rng.randrange(6, 14),
                                                 rng.random(), seed + 300))
        states.append((g, random_packing(g, rng), rng.randrange(1, 4)))
    edges = mask_order_differs = 0
    for g, a, tau in states:
        sg = enumerate_search_edges(g, g.mask(a), tau)
        assert sg.edges == tuple(sorted(sg.edges, key=label_key))
        assert len(set(sg.edges)) == len(sg.edges)
        assert list(sg.vertices) == sorted(set(sg.vertices))
        for e in sg.edges:
            assert all(x < y for x, y in zip(e.endpoints, e.endpoints[1:])), e
        edges += len(sg.edges)
        mask_order_differs += sg.edges != tuple(sorted(sg.edges))
    assert edges >= 100, edges
    assert mask_order_differs >= 1


def differential_states():
    """Seeded (conflict graph, solution, tau) triples for the differential test:
    random, 3DM, hereditary-closure and square random graphs (as many sets
    as elements, two thirds of them 3-sets) at every tau from 1 to 8, under a
    maximal packing at alternate tau and a thinned one at the rest."""
    rng = random.Random(2525)
    graphs = []
    for seed in range(8):
        graphs.append(build_conflict_graph(generate_random(
            rng.randrange(10, 17), rng.randrange(12, 22), rng.choice((0.3, 0.6, 0.9)), seed + 900)))
        graphs.append(build_conflict_graph(threedm_instance(rng.randrange(10, 21), seed)))
        graphs.append(build_conflict_graph(hereditary_instance(
            rng.randrange(9, 14), rng.randrange(4, 8), seed + 950)))
        n = rng.randrange(10, 19)
        graphs.append(build_conflict_graph(generate_random(n, n, 2 / 3, seed + 980)))
    for i, g in enumerate(graphs):
        a = random_packing(g, rng)
        thinned = frozenset(v for v in a if rng.random() < 0.6)
        for tau in range(1, 9):
            yield g, (a if (i + tau) % 2 else thinned), tau


def test_pruned_enumeration_matches_the_unpruned_reference():
    graphs = edges = loops = 0
    for g, a, tau in differential_states():
        sg = enumerate_search_edges(g, g.mask(a), tau)
        assert sg == reference_search_edges(g, a, tau), (tau, sorted(a))
        graphs += 1
        edges += len(sg.edges)
        loops += len(sg.loops)
    assert graphs == 256
    assert edges >= 10000 and loops >= 1000, (edges, loops)


def _graph_bytes(sg) -> bytes:
    return json.dumps([sg.tau, list(sg.vertices),
                       [[list(e.endpoints), e.u_mask, e.w_mask] for e in sg.edges]]).encode()


# (graph count, SHA-256 over the search graphs in call order) of every
# SearchGraph that `solve` builds: the `general-tau4` ladder (instance texts
# from perfbench/ladders.json) at tau=4, seed 0, and the `setpack bench`
# suites threedm-small (800) and random-small (200) at seed 0.  Recorded
# with the unpruned enumerator that `reference_search_edges` keeps.
SOLVE_SEARCH_GRAPH_PINS = {
    "general-tau4": (7, "875827d5602c04d866983930f3d7144106faa11faed456399fcc894ee39a28dd"),
    "threedm-small": (800, "4b48e2160c42e61a87ff07b77183c8b2ab2c173da2b612f04e8d6515c767f3c5"),
    "random-small": (200, "56376e514a7c9ac2543d55f9bc9fa7de19c19425a1e662b8e15949f18c594b2e"),
}


@pytest.mark.parametrize("family", sorted(SOLVE_SEARCH_GRAPH_PINS))
def test_solve_search_graphs_are_pinned(family):
    real, digest, count = search_graph.enumerate_search_edges, hashlib.sha256(), [0]

    def spy(g, a, tau):
        sg = real(g, a, tau)
        digest.update(_graph_bytes(sg))
        count[0] += 1
        return sg
    with mock.patch.object(search_graph, "enumerate_search_edges", spy):
        if family == "general-tau4":
            ladders = Path(__file__).resolve().parents[1] / "perfbench" / "ladders.json"
            for d in json.loads(ladders.read_text())["general-tau4"]["instances"]:
                solve(parse_instance(d["text"]), SearchParams(tau=4, seed=0))
        else:
            for _, inst, params in suite_instances(family, SOLVE_SEARCH_GRAPH_PINS[family][0], 0):
                solve(inst, params)
    assert (count[0], digest.hexdigest()) == SOLVE_SEARCH_GRAPH_PINS[family]


# 3-sets where 0 meets 1, 2 and 3, and 2 meets 3; 1 meets neither 2 nor 3.
FAN_SETS = [(0, 1, 2), (0, 4, 5), (1, 3, 6), (2, 3, 7)]


class TestImprovingPredicate:
    def test_disjoint_independent_e2_only_is_improving(self):
        # vertices 0,1 solution anchors; 2,3,4 outside, pairwise non-adjacent
        g = graph_from_sets(K23_SETS)
        edges = tuple(search_edge((0, 1), (), (w,)) for w in (2, 3, 4))
        b = LabeledBinocular(edges)
        assert is_improving_binocular(b, g)

    def test_dependent_w_union_fails(self):
        g = graph_from_sets(FAN_SETS)
        loops = (search_edge((0,), (), (1, 2)), search_edge((0,), (), (1, 3)))
        b = LabeledBinocular(loops)
        # 2 and 3 are adjacent, so the union of W-labels is dependent
        assert not is_improving_binocular(b, g)

    def test_overlapping_e2_w_labels_fail(self):
        g = graph_from_sets(K23_SETS)
        edges = (search_edge((0, 1), (), (2, 3)), search_edge((0, 1), (), (3,)),
                 search_edge((0, 1), (), (4,)))
        assert not is_improving_binocular(LabeledBinocular(edges), g)

    def test_loop_weight_clause(self):
        # one loop whose W-label does not outweigh its U-label by two:
        # 3-set 0 meets the 2-set 1 and the 3-sets 2 and 3, which meet nothing else
        g = graph_from_sets([(0, 1, 2), (0, 3), (1, 4, 5), (2, 6, 7)])
        loops = (search_edge((0,), (2,), (1,)), search_edge((0,), (3,), (1,)))
        assert not is_improving_binocular(LabeledBinocular(loops), g)

    def test_binocular_inequality_enforced_at_construction(self):
        with pytest.raises(ValueError):
            LabeledBinocular((search_edge((0, 1), (), (2,)),))


class TestExtract:
    @pytest.mark.parametrize("kind", ["double_loop", "theta", "dumbbell"])
    def test_gadget_extraction_is_an_improvement(self, kind):
        inst, a = binocular_gadget(kind, random.Random(7))
        g = build_conflict_graph(inst)
        sg = enumerate_search_edges(g, g.mask(a), tau=2)
        b = naive_improving_binocular(sg, g, max_size=4)
        assert b is not None and len(b.edges) <= 4
        x = extract_improvement(b, g, g.mask(a))
        assert is_local_improvement(g, a, g.unmask(x))
        assert g.weight_mask(x) > g.weight_mask(b.u_mask)

    def test_theta_weight_margin(self):
        g = graph_from_sets(K23_SETS)
        edges = tuple(search_edge((0, 1), (), (w,)) for w in (2, 3, 4))
        b = LabeledBinocular(edges)
        x = extract_improvement(b, g, 0b11)
        assert g.weight_mask(x) >= g.weight_mask(b.u_mask) + 2

    def test_extract_rejects_non_improving(self):
        g = graph_from_sets(FAN_SETS)
        loops = (search_edge((0,), (), (1, 2)), search_edge((0,), (), (1, 3)))
        with pytest.raises(ValueError):
            extract_improvement(LabeledBinocular(loops), g, 0b1)
