import random
from itertools import combinations

import pytest

from setpack23.hereditary import (HereditaryInstance, hereditary_closure,
                                  is_hereditary, solve_hereditary)
from setpack23.instance import generate_random, parse_instance
from setpack23.oracle import solve_exact
from conftest import instance_from_sets


def test_only_2sets_is_vacuously_hereditary():
    assert is_hereditary(parse_instance("1 2\n3 4\n"))


def test_lone_3set_is_not():
    assert not is_hereditary(parse_instance("1 2 3\n"))


def test_closed_3set_is():
    assert is_hereditary(parse_instance("1 2 3\n1 2\n1 3\n2 3\n"))


def test_closure_of_one_3set_has_four_sets():
    closed = hereditary_closure(parse_instance("1 2 3\n"))
    assert len(closed.base) == 4
    assert is_hereditary(closed.base)


def test_closure_is_idempotent():
    once = hereditary_closure(parse_instance("1 2 3\n4 5 6\n1 4\n"))
    twice = hereditary_closure(once.base)
    assert once.base == twice.base


def test_shared_pair_added_once():
    closed = hereditary_closure(instance_from_sets([(1, 2, 3), (1, 2, 4)])).base
    keys = [s.key for s in closed.sets]
    assert keys.count(frozenset({1, 2})) == 1
    assert len(closed) == 2 + 5


def test_closure_is_minimal():
    base = parse_instance("1 2 3\n3 4 5\n")
    closed = hereditary_closure(base).base
    for drop in range(len(base), len(closed)):
        pruned = instance_from_sets([s.elements for s in closed.sets if s.id != drop])
        assert not is_hereditary(pruned)


def test_solver_rejects_open_instances():
    with pytest.raises(ValueError):
        solve_hereditary(parse_instance("1 2 3\n"))


def test_tie_rule_prefers_the_3set():
    closed = hereditary_closure(parse_instance("1 2 3\n")).base
    packing, _ = solve_hereditary(closed)
    assert packing.members == {0}
    assert packing.weight(closed) == 2


def test_matching_instances_are_solved_exactly():
    # all-2-set instances are weighted matchings; size-10 swaps cover every
    # augmenting path a small universe can host
    rng = random.Random(71)
    for trial in range(25):
        n = rng.randrange(6, 15)
        pool = list(combinations(range(n), 2))
        rng.shuffle(pool)
        raw = pool[: rng.randrange(4, min(18, len(pool)))]
        inst = instance_from_sets(raw)
        packing, _ = solve_hereditary(inst, seed=trial)
        assert packing.weight(inst) == solve_exact(inst).optimum_weight


def test_guarantee_on_random_closures():
    rng = random.Random(5)
    for trial in range(15):
        base = generate_random(rng.randrange(9, 16), rng.randrange(5, 11),
                               p3=1.0, seed=trial)
        closed = hereditary_closure(base)
        packing, stats = solve_hereditary(closed, seed=trial)
        alg = packing.weight(closed.base)
        opt = solve_exact(closed.base).optimum_weight
        assert 3 * opt <= 4 * alg
        assert stats.binoculars_applied == 0


def test_wrapper_type_accepted():
    closed = hereditary_closure(parse_instance("1 2 3\n"))
    assert isinstance(closed, HereditaryInstance)
    packing, _ = solve_hereditary(closed)
    assert packing.members == {0}


def test_larger_solve_is_pinned():
    # 62 sets; packing, iterations and weight as the iterative-deepening
    # enumerator produced them
    closed = hereditary_closure(generate_random(30, 16, 1.0, seed=3))
    assert len(closed.base) == 62
    packing, stats = solve_hereditary(closed)
    assert sorted(packing.members) == [4, 6, 7, 8, 13, 14, 15]
    assert stats.iterations == stats.improvements_applied == 10
    assert stats.binoculars_applied == 0
    assert stats.final_weight == packing.weight(closed.base) == 14


def test_84_set_solve_is_pinned():
    # 84 sets, the first ladder point at which the tau=10 certification takes
    # most of the solve; packing, iterations and weight as the solver gave
    # them before the capped DFS cut by claw shares
    closed = hereditary_closure(generate_random(30, 22, 1.0, seed=3))
    assert len(closed.base) == 84
    packing, stats = solve_hereditary(closed)
    assert sorted(packing.members) == [4, 7, 8, 14, 15, 16, 18, 55, 80]
    assert stats.iterations == stats.improvements_applied == 13
    assert stats.binoculars_applied == 0
    assert stats.final_weight == packing.weight(closed.base) == 16
