import json
import random

import pytest

from setpack23.normalize import (NormalizedInstance, analysis_tuple, check_normalized,
                                 deletable_set, dump_normalized, load_tuple, normalize,
                                 validate_tuple)
from conftest import instance_from_sets, random_nice_tuple, tuple_from_instance


def path_tuple(weights, edges, a, b):
    return analysis_tuple(dict(enumerate(weights)), edges, a, b)


class TestValidation:
    def test_rejects_weight1_claw_center(self):
        t = path_tuple([1, 1, 1, 1], [(0, 1), (0, 2), (0, 3)], {0}, {1, 2, 3})
        with pytest.raises(ValueError, match="not nice"):
            validate_tuple(t)

    def test_rejects_dependent_a(self):
        t = path_tuple([1, 1], [(0, 1)], {0, 1}, set())
        with pytest.raises(ValueError, match="independent"):
            validate_tuple(t)

    @pytest.mark.parametrize("weight", [3, 0, -1, 1.7, 2.0, True, "2"])
    def test_rejects_weights_other_than_one_and_two(self, weight):
        t = path_tuple([weight, 1], [(0, 1)], {0}, {1})
        with pytest.raises(ValueError, match="weight must be 1 or 2"):
            validate_tuple(t)
        with pytest.raises(ValueError, match="weight must be 1 or 2"):
            normalize(t)

    def test_load_tuple_keeps_fractional_weights(self):
        t = load_tuple(json.dumps({"weights": [1.7, 1], "edges": [[0, 1]], "A": [0], "B": [1]}))
        assert t.weights == {0: 1.7, 1: 1}
        with pytest.raises(ValueError, match="weight must be 1 or 2"):
            validate_tuple(t)


class TestDeletable:
    def test_vertex_outside_both_sides(self):
        t = path_tuple([1, 1, 2], [(0, 1)], {0}, {1})
        assert 2 in deletable_set(t)

    def test_overlap_vertex(self):
        t = path_tuple([2, 2], [], {0, 1}, {0})
        assert 0 in deletable_set(t)
        assert 1 not in deletable_set(t)

    def test_alternating_cycle_goes_entirely(self):
        t = path_tuple([1, 1, 1, 1], [(0, 1), (1, 2), (2, 3), (3, 0)], {0, 2}, {1, 3})
        assert deletable_set(t) == {0, 1, 2, 3}

    def test_whole_even_path_goes(self):
        t = path_tuple([1, 1], [(0, 1)], {0}, {1})
        assert deletable_set(t) == {0, 1}

    def test_attached_even_path_stays(self):
        # the weight-2 outside neighbor keeps the short path alive
        t = path_tuple([1, 1, 2], [(0, 1), (1, 2)], {0, 2}, {1})
        assert deletable_set(t) == frozenset()

    def test_long_path_trimming(self):
        edges = [(i, i + 1) for i in range(8)]
        a = {0, 2, 4, 6, 8}
        b = {1, 3, 5, 7}
        bare = path_tuple([1] * 9, edges, a, b)
        assert deletable_set(bare) == set(range(9))

        stub = path_tuple([1] * 9 + [2], edges + [(0, 9)], a, b | {9})
        d = deletable_set(stub)
        assert 0 not in d and d >= set(range(1, 9))

    def test_solution_neighborhood_never_escapes(self, rng):
        for _ in range(40):
            t = random_nice_tuple(rng)
            d = deletable_set(t)
            for v in t.a & d:
                assert not t.adj[v] - d, "deleted A-vertex kept an outside neighbor"


def odd_path_gadget():
    # weight-1 path a-b-a with a weight-2 stub behind each endpoint
    inst = instance_from_sets([(1, 2), (2, 3), (3, 4), (1, 8, 9), (4, 10, 11)])
    return tuple_from_instance(inst, frozenset({0, 2}), frozenset({1, 3, 4}))


def even_path_gadget():
    # weight-1 path a-b with stubs on both sides
    inst = instance_from_sets([(1, 2), (2, 3), (1, 8, 9), (3, 10, 11)])
    return tuple_from_instance(inst, frozenset({0, 3}), frozenset({1, 2}))


class TestNormalize:
    def test_already_normalized_is_untouched(self):
        t = path_tuple([2, 2], [(0, 1)], {0}, {1})
        out = normalize(t)
        assert out.weights == t.weights and out.adj == t.adj
        assert not out.certificate.removals and not out.certificate.paths

    def test_odd_path_contracts_into_surviving_endpoint(self):
        out = normalize(odd_path_gadget())
        assert set(out.weights) == {2, 3, 4}
        (record,) = out.certificate.paths
        assert record.side == "A"
        assert record.contracted_into == 2
        assert record.bridge_added
        # the survivor now sees both stubs, its own and the bridged one
        assert out.adj[2] == {3, 4}
        assert check_normalized(out) == []

    def test_even_path_bridges_the_two_stubs(self):
        out = normalize(even_path_gadget())
        assert set(out.weights) == {2, 3}
        assert out.certificate.bridges == ((3, 2),)
        assert out.adj[2] == {3}
        assert check_normalized(out) == []

    def test_one_sided_path_needs_no_bridge(self):
        inst = instance_from_sets([(1, 2), (2, 3), (1, 8, 9)])
        t = tuple_from_instance(inst, frozenset({0}), frozenset({1, 2}))
        out = normalize(t)
        (record,) = out.certificate.paths
        assert record.kind == "P2" and not record.bridge_added
        assert set(out.weights) == {2}

    def test_random_nice_tuples_normalize_cleanly(self, rng):
        for _ in range(60):
            out = normalize(random_nice_tuple(rng))
            assert check_normalized(out) == []
            ones = {v for v, w in out.weights.items() if w == 1}
            for v in ones:
                assert not out.adj[v] & ones


class TestCheckNormalized:
    def test_weight1_adjacency_reported(self):
        broken = NormalizedInstance({0: 1, 1: 1}, {0: frozenset({1}), 1: frozenset({0})},
                                    frozenset({0}), frozenset({1}), None)
        assert any("weight-1" in f for f in check_normalized(broken))

    def test_non_bipartite_reported(self):
        broken = NormalizedInstance({0: 2, 1: 2, 2: 2},
                                    {0: frozenset({1}), 1: frozenset({0}), 2: frozenset()},
                                    frozenset({0, 1}), frozenset({2}), None)
        assert any("cross" in f for f in check_normalized(broken))


def test_wire_roundtrip():
    out = normalize(even_path_gadget())
    doc = json.loads(dump_normalized(out))
    again = load_tuple(json.dumps(doc["normalized"]))
    assert again.a == out.a and again.b == out.b
    assert {v: set(n) for v, n in again.adj.items()} == {v: set(n) for v, n in out.adj.items()}
    # a normalized tuple is a fixpoint of normalization
    fix = normalize(again)
    assert fix.weights == out.weights and not fix.certificate.paths
