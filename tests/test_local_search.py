import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import setpack23
from setpack23.conflict import ConflictGraph, build_conflict_graph
from setpack23.instance import generate_random, parse_instance
from setpack23.local_search import (SearchParams, apply_improvement, find_improvement,
                                    is_local_improvement, solve)
from setpack23.oracle import solve_exact
from conftest import (brute_force_improvement_exists, chain_instance,
                      instance_from_sets, random_packing)


def critical_gadget():
    """Two solution vertices (weights 1 and 2) and two candidates that tie them."""
    return instance_from_sets([(1, 2), (3, 4, 5), (5, 6), (2, 3, 7)])


class TestPredicate:
    def test_single_set_beats_empty_solution(self):
        g = build_conflict_graph(chain_instance())
        assert is_local_improvement(g, frozenset(), {0})

    def test_weight_and_class_tie_is_no_improvement(self):
        g = build_conflict_graph(critical_gadget())
        # both sides weigh 3 and hold exactly one weight-2 vertex
        assert not is_local_improvement(g, {0, 1}, {2, 3})

    def test_single_weight2_swap_tie_is_no_improvement(self):
        g = build_conflict_graph(instance_from_sets([(1, 2, 3), (3, 4, 5)]))
        assert not is_local_improvement(g, {0}, {1})

    def test_dependent_x_is_rejected(self):
        g = build_conflict_graph(chain_instance())
        assert not is_local_improvement(g, frozenset(), {0, 1})


class TestFindImprovement:
    def test_chain_from_middle(self):
        g = build_conflict_graph(chain_instance())
        imp = find_improvement(g, {1}, tau=2, method="naive")
        assert imp is not None
        assert is_local_improvement(g, {1}, imp.x)
        # the two 3-sets beat the middle 2-set outright
        assert is_local_improvement(g, {1}, {0, 2})

    def test_none_at_optimum(self):
        inst = chain_instance()
        g = build_conflict_graph(inst)
        opt = solve_exact(inst).witness.members
        for method in ("grown", "naive"):
            assert find_improvement(g, opt, tau=4, method=method) is None
        assert not brute_force_improvement_exists(g, frozenset(opt), 4)

    def test_empty_solution_gets_singleton(self):
        g = build_conflict_graph(chain_instance())
        imp = find_improvement(g, frozenset(), tau=1)
        assert imp is not None and len(imp.x) == 1

    def test_untouched_vertex_is_an_instant_improvement(self):
        inst = instance_from_sets([(1, 2), (9, 10, 11)])
        g = build_conflict_graph(inst)
        imp = find_improvement(g, {0}, tau=3, method="grown")
        assert imp == find_improvement(g, {0}, tau=3, method="naive")
        assert imp.x == {1} and imp.removed == frozenset()

    def test_unknown_method_is_rejected_without_candidates(self):
        # A covers every vertex, so no candidate is left to enumerate
        g = ConflictGraph([1, 1], [])
        with pytest.raises(ValueError, match="unknown improvement method"):
            find_improvement(g, {0, 1}, tau=2, method="bogus")


class TestApply:
    def test_apply_singleton_to_empty(self):
        g = build_conflict_graph(chain_instance())
        assert apply_improvement(g, frozenset(), {0}) == {0}

    def test_apply_chain_swap(self):
        g = build_conflict_graph(chain_instance())
        new = apply_improvement(g, {1}, {0, 2})
        assert new == {0, 2}
        assert g.weight_of(new) == 4

    def test_apply_tie_improvement_raises_weight2_count(self):
        g = build_conflict_graph(instance_from_sets([(1, 2), (3, 4), (2, 3, 9)]))
        before = frozenset({0, 1})
        new = apply_improvement(g, before, {2})
        assert g.weight_of(new) == g.weight_of(before) == 2
        assert g.w2_count_mask(g.mask(new)) == 1 > 0

    def test_apply_rejects_non_improvement(self):
        g = build_conflict_graph(chain_instance())
        with pytest.raises(ValueError):
            apply_improvement(g, {0, 2}, {1})


class TestSolve:
    def test_empty_instance(self):
        packing, stats = solve(parse_instance(""), SearchParams(tau=2))
        assert packing.members == frozenset() and stats.iterations == 0

    def test_disjoint_sets_all_taken(self):
        inst = parse_instance("1 2\n3 4 5\n6 7\n")
        packing, _ = solve(inst, SearchParams(tau=1))
        assert packing.members == {0, 1, 2}

    def test_chain_reaches_optimum(self):
        packing, stats = solve(chain_instance(), SearchParams(tau=2))
        assert packing.weight(chain_instance()) == 4 == stats.final_weight

    def test_deterministic(self):
        inst = generate_random(10, 14, 0.5, seed=5)
        p1, _ = solve(inst, SearchParams(tau=3, seed=9))
        p2, _ = solve(inst, SearchParams(tau=3, seed=9))
        assert p1 == p2

    @given(st.integers(0, 2 ** 31), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_local_optimality_and_bounds(self, seed, tau):
        rng = random.Random(seed)
        inst = generate_random(rng.randrange(6, 11), rng.randrange(3, 11),
                               rng.random(), seed)
        packing, stats = solve(inst, SearchParams(tau=tau, seed=seed))
        g = build_conflict_graph(inst)
        assert not brute_force_improvement_exists(g, packing.members, tau)
        assert stats.iterations <= 2 * g.n * (g.n + 2)
        assert stats.final_weight == packing.weight(inst)


@pytest.mark.parametrize("fault, message", [
    ("ConflictGraph.independent_mask = lambda self, mask: False",
     "solution lost independence"),
    ("ConflictGraph.weight_mask = lambda self, mask: 0\n"
     "ConflictGraph.w2_count_mask = lambda self, mask: 0",
     "solution did not progress lexicographically"),
])
def test_solve_checks_survive_optimize(tmp_path, fault, message):
    # python -O strips assert statements; the solve-path checks must still
    # fire, and the CLI must still map them to exit code 3
    path = tmp_path / "chain.txt"
    path.write_text("1 2 3\n3 4\n4 5 6\n6 7\n")
    script = textwrap.dedent("""
        import sys
        if not sys.flags.optimize:
            sys.exit("not running under -O")
        from setpack23.cli import main
        from setpack23.conflict import ConflictGraph
        {fault}
        sys.exit(main(["solve", sys.argv[1], "--tau", "5"]))
    """).format(fault=fault)
    src = str(Path(setpack23.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.strip() == f"internal invariant violated: {message}"


def test_runstats_wire_keys():
    import json
    _, stats = solve(chain_instance(), SearchParams(tau=2))
    doc = json.loads(stats.to_json())
    assert set(doc) == {"iterations", "improvements_applied", "binoculars_applied",
                        "final_weight", "wall_ms"}


class TestParams:
    def test_epsilon_one_gives_tau_eight(self):
        assert SearchParams(epsilon=Fraction(1)).resolved_tau() == 8

    def test_epsilon_table(self):
        assert SearchParams(epsilon=Fraction(1, 2)).resolved_tau() == 16
        assert SearchParams(epsilon=Fraction(2, 3)).resolved_tau() == 12

    def test_hereditary_floor(self):
        assert SearchParams(mode="hereditary").resolved_tau() == 10
        with pytest.raises(ValueError):
            SearchParams(tau=4, mode="hereditary").resolved_tau()

    def test_missing_tau_rejected(self):
        with pytest.raises(ValueError):
            SearchParams().resolved_tau()


@given(st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_grown_matches_naive_on_random_states(seed):
    rng = random.Random(seed)
    inst = generate_random(rng.randrange(6, 11), rng.randrange(3, 13), rng.random(), seed)
    g = build_conflict_graph(inst)
    a = random_packing(g, rng)
    tau = rng.randrange(1, 5)
    grown = find_improvement(g, a, tau, method="grown")
    naive = find_improvement(g, a, tau, method="naive")
    assert (grown is None) == (naive is None)
    for imp in (grown, naive):
        if imp is not None:
            assert is_local_improvement(g, a, imp.x)
            assert len(imp.x) <= tau
