import json
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from setpack23.instance import (FormatError, Instance, Packing, PackSet, embed_3dm,
                                generate_random, parse_instance, serialize_instance,
                                validate_packing)
from setpack23.local_search import SearchParams
from conftest import brute_force_optimum


def test_parse_text_weights_follow_cardinality():
    inst = parse_instance("1 2 3\n3 4\n")
    assert [s.weight for s in inst.sets] == [2, 1]
    assert inst.universe_size == 4
    # elements interned in first-appearance order
    assert inst.sets[0].elements == (0, 1, 2)
    assert inst.sets[1].elements == (2, 3)


def test_parse_json_single_3set_weighs_two():
    inst = parse_instance(json.dumps({"sets": [["a", "b", "c"]]}), format="json")
    assert inst.sets[0].weight == 2


def test_parse_comments_and_blank_lines():
    inst = parse_instance("# header\n1 2\n\n# tail\n2 3\n")
    assert len(inst) == 2


@pytest.mark.parametrize("bad", ["1 1 2\n", "1\n", "1 2 3 4\n"])
def test_parse_rejects_bad_sets(bad):
    with pytest.raises(FormatError):
        parse_instance(bad)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Instance((PackSet(0, (0, 1)), PackSet(0, (1, 2))), 3),
     FormatError, "set at position 1 has id 0; ids must be positions 0..m-1"),
    (lambda: Instance((PackSet(0, (0, 1)), PackSet(2, (1, 2))), 3),
     FormatError, "set at position 1 has id 2; ids must be positions 0..m-1"),
    (lambda: Instance((PackSet(1, (0, 1)), PackSet(0, (1, 2))), 3),
     FormatError, "set at position 0 has id 1; ids must be positions 0..m-1"),
    (lambda: Instance((PackSet(0, (0, 3)),), 3),
     FormatError, "set 0: element id beyond universe of size 3"),
    (lambda: PackSet(0, (-1, 2)), FormatError, "set 0: negative element id"),
    (lambda: parse_instance("4 5\n1 2 2 3\n"), FormatError,
     "set 1: duplicate element within a set"),
    (lambda: parse_instance(b"1 \xff\n"), UnicodeDecodeError, "utf-8"),
    (lambda: parse_instance("1 2\n", format="xml"), FormatError, "unknown format 'xml'"),
    (lambda: serialize_instance(parse_instance("1 2\n"), format="xml"), FormatError,
     "unknown format 'xml'"),
    (lambda: generate_random(2, 1, 0.5, seed=0), FormatError,
     "universe must have at least 3 elements"),
    (lambda: generate_random(5, 0, 0.5, seed=0), FormatError, "need at least one set"),
    (lambda: generate_random(5, 1, 1.5, seed=0), FormatError, "p3 must be a probability"),
    (lambda: embed_3dm([("a", "b", "a")]), FormatError,
     "parts of the 3DM instance must be disjoint"),
    (lambda: SearchParams(epsilon=0).resolved_tau(), ValueError, "epsilon must be positive"),
])
def test_invalid_input_is_rejected(build, error, message):
    # parsing interns tokens, so a repeated token reaches PackSet as a repeated id
    with pytest.raises(error) as exc:
        build()
    assert message in str(exc.value)


def test_parse_rejects_duplicate_sets():
    with pytest.raises(FormatError):
        parse_instance("1 2\n2 1\n")


def test_parse_rejects_malformed_json():
    with pytest.raises(FormatError):
        parse_instance("{not json", format="json")
    with pytest.raises(FormatError):
        parse_instance(json.dumps({"no_sets": []}), format="json")


def test_parse_json_rejects_bool_tokens():
    # true would otherwise alias the integer token 1
    for doc in ('{"sets": [[true, 2], [1, 3]]}', '{"sets": [[false, 2, 3]]}'):
        with pytest.raises(FormatError, match="string or integer tokens"):
            parse_instance(doc, format="json")


@given(st.integers(0, 2 ** 31), st.integers(5, 12), st.integers(1, 10),
       st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_roundtrip_both_formats(seed, n, m, p3):
    inst = generate_random(n, min(m, n), p3, seed)
    for fmt in ("text", "json"):
        again = parse_instance(serialize_instance(inst, fmt), format=fmt)
        assert again == inst


def test_generate_random_is_pure():
    a = generate_random(10, 20, 0.5, seed=7)
    b = generate_random(10, 20, 0.5, seed=7)
    assert a == b
    assert all(s.weight == len(s.elements) - 1 for s in a.sets)


def test_generate_random_tiny_universe():
    only = generate_random(3, 1, p3=1.0, seed=123)
    assert only.sets[0].key == frozenset({0, 1, 2})
    with pytest.raises(FormatError):
        generate_random(3, 5, p3=1.0, seed=1)


def test_generate_random_draws_pairs_once_the_triples_run_out():
    # 10 sets over 4 elements are all 4 triples and all 6 pairs, so draws
    # that ask for a triple after the fourth one must take a pair instead.
    keys = {s.key for s in generate_random(4, 10, 0.9, seed=0).sets}
    assert keys == {frozenset(c) for k in (2, 3) for c in combinations(range(4), k)}


def test_embed_3dm_weights_and_disjointness():
    one = embed_3dm([("x1", "y1", "z1")])
    assert len(one) == 1 and one.sets[0].weight == 2
    assert brute_force_optimum(one) == 2

    two = embed_3dm([("x1", "y1", "z1"), ("x2", "y2", "z2")])
    assert brute_force_optimum(two) == 4

    sharing = embed_3dm([("x1", "y1", "z1"), ("x1", "y2", "z2")])
    assert brute_force_optimum(sharing) == 2


def test_embed_3dm_rejects_bad_parts():
    with pytest.raises(FormatError):
        embed_3dm([("a", "a", "z")])
    with pytest.raises(FormatError):
        embed_3dm([("a", "b", "c"), ("b", "a", "d")])


def test_validate_packing():
    inst = parse_instance("1 2 3\n3 4\n5 6\n")
    validate_packing(inst, Packing(frozenset({1, 2})))
    with pytest.raises(FormatError):
        validate_packing(inst, Packing(frozenset({0, 1})))
    # members index ``sets``, so -1 must not wrap round to the last set
    for bad in (9, -1, len(inst)):
        with pytest.raises(FormatError, match=f"unknown set id {bad}$"):
            validate_packing(inst, Packing(frozenset({bad})))
    assert Packing(frozenset({0, 2})).weight(inst) == 3


def test_equal_instances_hash_alike():
    inst = parse_instance("1 2 3\n3 4\n")
    twin = parse_instance("1 2 3\n3 4\n")
    assert inst == twin and hash(inst) == hash(twin)
