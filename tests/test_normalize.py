import hashlib
import json
import random

import pytest

from setpack23.normalize import (AnalysisTuple, NormalizedInstance, _components, _prime,
                                 analysis_tuple, check_normalized, deletable_set,
                                 dump_normalized, load_tuple, normalize, validate_tuple)
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


# -- the deletion stage against a standalone reference -------------------------
#
# ``reference_deletable_set`` classifies the weight-1 components first and
# applies the four cases afterwards; ``normalize`` records one removal per case
# in a single pass, and their union must be exactly the reference set.

def _component_of(start, vertices, adj):
    comp = set()
    stack = [start]
    while stack:
        v = stack.pop()
        if v in comp:
            continue
        comp.add(v)
        stack.extend(adj[v] & vertices - comp)
    return comp


def _classify(t: AnalysisTuple):
    """Split G[A' union B'] into ordered components tagged cycle/path with
    their inner weight-1 A-count and whole-component flag."""
    a1 = _prime(t.weights, t.a - t.b)
    b1 = _prime(t.weights, t.b - t.a)
    ground = a1 | b1
    ab = (t.a | t.b) - (t.a & t.b)
    out = []
    for comp in _components(ground, t.adj):
        cset = set(comp)
        is_cycle = len(comp) >= 3 and all(len(t.adj[v] & cset) == 2 for v in comp)
        inner = comp[1:-1] if not is_cycle else []
        whole = _component_of(comp[0], ab, t.adj) == cset
        out.append({
            "vertices": comp,
            "cycle": is_cycle,
            "inner_a1": sum(1 for v in inner if v in a1),
            "whole": whole,
        })
    return out, a1, b1


def reference_deletable_set(t: AnalysisTuple) -> frozenset[int]:
    """Vertices whose removal keeps improvements and ratio bounds transferable.

    Four cases: vertices outside both sets, vertices in both, whole cycle or
    whole even-path components of the weight-1 subgraph, and all long-path
    vertices without outside B-neighbors.
    """
    validate_tuple(t)
    verts = set(t.weights)
    d: set[int] = set(verts - (t.a | t.b)) | (t.a & t.b)
    comps, _, _ = _classify(t)
    for comp in comps:
        cset = set(comp["vertices"])
        if comp["cycle"] or (len(cset) % 2 == 0 and comp["whole"]):
            d |= cset
        elif not comp["cycle"] and comp["inner_a1"] >= 3:
            for v in comp["vertices"]:
                if not t.adj[v] & (t.b - cset):
                    d.add(v)
    for v in t.a & frozenset(d):
        if t.adj[v] & (verts - d):
            raise AssertionError("a deleted solution vertex kept an outside neighbor")
    return frozenset(d)


# One removal of an outside vertex, one whole even path and one bridged P3
# family path; the CI workflow pipes this tuple through `setpack normalize -`.
BRIDGED_TUPLE = {"weights": {"0": 1, "1": 1, "2": 2, "3": 2, "4": 2, "5": 1, "6": 1},
                 "edges": [[0, 1], [0, 2], [1, 3], [3, 4], [5, 6]],
                 "A": [0, 3, 5], "B": [1, 2, 6]}
BRIDGED_CERTIFICATE = {
    "removals": [{"kind": "outside", "vertices": [4], "removed_a1": 0, "removed_b1": 0},
                 {"kind": "even_whole", "vertices": [5, 6], "removed_a1": 1, "removed_b1": 1}],
    "paths": [{"component_index": 0, "vertices": [0, 1], "kind": "P3", "outside_a": 3,
               "outside_b": 2, "bridge_added": True, "contracted_into": None, "side": None,
               "stubs": [2, 3]}],
    "bridges": [[3, 2]],
}


def hand_tuples() -> list[AnalysisTuple]:
    path9 = [(i, i + 1) for i in range(8)]
    return [
        path_tuple([1, 1, 2], [(0, 1)], {0}, {1}),
        path_tuple([2, 2], [], {0, 1}, {0}),
        path_tuple([1, 1, 1, 1], [(0, 1), (1, 2), (2, 3), (3, 0)], {0, 2}, {1, 3}),
        path_tuple([1, 1], [(0, 1)], {0}, {1}),
        path_tuple([1, 1, 2], [(0, 1), (1, 2)], {0, 2}, {1}),
        path_tuple([1] * 9, path9, {0, 2, 4, 6, 8}, {1, 3, 5, 7}),
        path_tuple([1] * 9 + [2], path9 + [(0, 9)], {0, 2, 4, 6, 8}, {1, 3, 5, 7, 9}),
        path_tuple([2, 2], [(0, 1)], {0}, {1}),
        odd_path_gadget(),
        even_path_gadget(),
        load_tuple(json.dumps(BRIDGED_TUPLE)),
    ]


@pytest.fixture(scope="module")
def seeded_tuples() -> list[AnalysisTuple]:
    rng = random.Random(20260)
    return [random_nice_tuple(rng) for _ in range(1000)]


def test_deletable_set_is_the_union_of_recorded_removals(seeded_tuples):
    kinds = set()
    for t in hand_tuples() + seeded_tuples:
        removals = normalize(t).certificate.removals
        kinds |= {r.kind for r in removals}
        d = deletable_set(t)
        assert d == reference_deletable_set(t)
        assert d == {v for r in removals for v in r.vertices}
    assert kinds == {"outside", "overlap", "cycle", "even_whole", "long_path_trim"}


SEEDED_DIGEST = "6688ecaad832ff25de1f72dd60d6e32c7efa95b4ac8d7a0f78a39fe6bd6b81b6"
HAND_DIGEST = "8ed08f60a5552cf28c70c0144c99ba6589bb774ee493454fab7b372b98e16031"


def test_normalized_output_is_pinned(seeded_tuples):
    # recorded before the deletion stage ran once; the output must not move
    def digest(tuples):
        h = hashlib.sha256()
        for t in tuples:
            h.update(dump_normalized(normalize(t)).encode())
        return h.hexdigest()
    assert digest(seeded_tuples) == SEEDED_DIGEST
    assert digest(hand_tuples()) == HAND_DIGEST

