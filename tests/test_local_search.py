import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import asdict
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import setpack23
from setpack23.cli import suite_instances
from setpack23.conflict import ConflictGraph, bit_positions, build_conflict_graph
from setpack23 import local_search
from setpack23.hereditary import hereditary_closure, solve_hereditary
from setpack23.instance import generate_random, parse_instance, serialize_instance
from setpack23.local_search import (SearchParams, _candidate_linkage, _capped_share_sum,
                                    _claw_shares, _clique_leaders, apply_improvement,
                                    find_improvement, is_local_improvement, solve)
from setpack23.oracle import FOUND, NONE_ABOVE, UNKNOWN, packing_above, solve_exact
from conftest import (brute_force_improvement_exists, chain_instance, edgeless_graph,
                      instance_from_sets, random_packing, reference_branch_and_bound)


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

    def test_untouched_vertex_wins_over_an_earlier_improving_root(self):
        # Candidate 1 evicts solution vertex 0 and improves on its own, but
        # the grown enumerator's pre-scan returns the later, untouched 2;
        # the naive enumerator returns the least improving set, {1}.
        g = build_conflict_graph(instance_from_sets([(1, 2), (1, 3, 4), (9, 10, 11)]))
        assert find_improvement(g, {0}, tau=5, method="grown").x == {2}
        naive = find_improvement(g, {0}, tau=5, method="naive")
        assert naive.x == {1} and naive.removed == {0}

    @pytest.mark.parametrize("method", ["auto", "naive", "grown"])
    @pytest.mark.parametrize("tau", [0, -1])
    def test_nonpositive_tau_is_rejected(self, method, tau):
        g = build_conflict_graph(chain_instance())
        with pytest.raises(ValueError, match=f"tau must be positive, got {tau}"):
            find_improvement(g, frozenset(), tau, method=method)

    def test_unknown_method_is_rejected_without_candidates(self):
        # A covers every vertex, so no candidate is left to enumerate
        g = edgeless_graph([1, 1])
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
        assert g.weight_mask(g.mask(new)) == 4

    def test_apply_tie_improvement_raises_weight2_count(self):
        g = build_conflict_graph(instance_from_sets([(1, 2), (3, 4), (2, 3, 9)]))
        before = frozenset({0, 1})
        new = apply_improvement(g, before, {2})
        assert g.weight_mask(g.mask(new)) == g.weight_mask(g.mask(before)) == 2
        assert g.w2_count_mask(g.mask(new)) == 1 > 0

    def test_apply_rejects_non_improvement(self):
        g = build_conflict_graph(chain_instance())
        with pytest.raises(ValueError):
            apply_improvement(g, {0, 2}, {1})


def test_vertex_ids_outside_the_graph_are_rejected():
    # the frozenset boundary names an id outside 0..n-1 instead of folding
    # it into a mask: 9 lies past the last vertex, -1 before the first
    g = build_conflict_graph(chain_instance())
    with pytest.raises(ValueError, match=r"^vertex ids \[9\] lie outside 0\.\.3$"):
        is_local_improvement(g, {9}, {0})
    with pytest.raises(ValueError, match=r"^vertex ids \[9\] lie outside 0\.\.3$"):
        apply_improvement(g, {1, 9}, {0})
    with pytest.raises(ValueError, match=r"^vertex ids \[-1\] lie outside 0\.\.3$"):
        find_improvement(g, {-1}, 2)


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


# Golden outputs of the `general-tau4` benchmark ladder (instance texts read
# from perfbench/ladders.json) at tau=4, seed 0: packing and
# (iterations, improvements_applied, binoculars_applied, final_weight).
GENERAL_TAU4_PINS = {
    "random-19-22-s640904": ([6, 11, 12, 14, 15, 19], (11, 11, 0, 11)),
    "random-20-22-s664117": ([2, 4, 7, 11, 17, 21], (11, 11, 0, 11)),
    "random-16-26-s129897": ([3, 16, 17, 20, 21], (10, 10, 0, 9)),
    "random-18-26-s730636": ([4, 9, 10, 19, 20, 21], (12, 12, 0, 10)),
    "random-20-25-s553224": ([2, 6, 7, 14, 18, 23], (13, 13, 0, 11)),
    "random-18-21-s243966": ([1, 9, 11, 12, 15, 18], (14, 14, 0, 10)),
    "random-17-22-s73609": ([1, 6, 7, 8, 13], (7, 7, 0, 9)),
}


def test_general_tau4_ladder_is_pinned():
    ladders = Path(__file__).resolve().parents[1] / "perfbench" / "ladders.json"
    texts = {d["name"]: d["text"]
             for d in json.loads(ladders.read_text())["general-tau4"]["instances"]}
    assert sorted(texts) == sorted(GENERAL_TAU4_PINS)
    for name, (members, counts) in GENERAL_TAU4_PINS.items():
        packing, stats = solve(parse_instance(texts[name]), SearchParams(tau=4, seed=0))
        assert sorted(packing.members) == members, name
        assert (stats.iterations, stats.improvements_applied, stats.binoculars_applied,
                stats.final_weight) == counts, name


def _hereditary_cert_texts() -> dict[str, str]:
    ladders = Path(__file__).resolve().parents[1] / "perfbench" / "ladders.json"
    return {d["name"]: d["text"]
            for d in json.loads(ladders.read_text())["hereditary-cert"]["instances"]}


# Golden outputs of the `hereditary-cert` benchmark ladder (closures of the
# instance texts in perfbench/ladders.json) at tau=10, seed 0: packing,
# (iterations, final_weight) and the SHA-256 of every _find_improvement_mask
# result in call order, written as space-separated decimals.
HEREDITARY_CERT_PINS = {
    "random-30-18-s0": ([1, 4, 6, 8, 9, 10, 13], (10, 14),
                        "c101677b444ac8f03188fe8f48f74af93c966de9c86c2bd9002ab112f7e08120"),
    "random-30-18-s1": ([2, 3, 4, 5, 11, 13, 15], (11, 14),
                        "9765cc49c7f94be706b091e2343d84f7e10e21dde14c8482cf8a299d06536ed7"),
    "random-30-18-s2": ([1, 2, 3, 8, 11, 13, 49, 54, 65], (12, 15),
                        "2ed08941534c5c1f9e2de26e884c491a620c572b08b581355190cd07207546d7"),
    "random-30-18-s3": ([4, 7, 8, 13, 14, 15, 16], (11, 14),
                        "4530f11ad7dce753fbc222986a52cfd69da31f16fd8c526262a40118c45e2d3d"),
    "random-30-18-s4": ([0, 3, 5, 6, 7, 9, 10, 13, 17], (11, 18),
                        "b1a664b27f720c1f757372eb0eec2fbb689cd7305e58a4bf57fe459956f4b487"),
    "random-30-18-s5": ([3, 5, 9, 10, 15, 16, 21, 31, 43], (10, 15),
                        "cfa154a701f25c0c1ad961bf26aacd5b1776023135d2dfd9d3e30103959b48ec"),
    "random-30-18-s6": ([0, 3, 4, 5, 12, 13, 17, 50], (10, 15),
                        "078b1e9682b715edd0d63e241657e32110e9c913c0036021310bd0d99d27ed3a"),
    "random-30-18-s7": ([0, 3, 9, 12, 14, 17, 50, 61], (10, 14),
                        "c65fea527c377f350d8e7e6d1e9c0bb94ac56a85659f8795036734501f4131c9"),
}


def test_hereditary_cert_ladder_is_pinned(monkeypatch):
    texts = _hereditary_cert_texts()
    assert sorted(texts) == sorted(HEREDITARY_CERT_PINS)
    find = local_search._find_improvement_mask
    hits: list[int] = []

    def recording_find(*args):
        hits.append(find(*args))
        return hits[-1]

    monkeypatch.setattr(local_search, "_find_improvement_mask", recording_find)
    for name, (members, counts, digest) in HEREDITARY_CERT_PINS.items():
        hits.clear()
        packing, stats = solve_hereditary(hereditary_closure(parse_instance(texts[name])))
        assert sorted(packing.members) == members, name
        assert (stats.iterations, stats.final_weight) == counts, name
        assert hashlib.sha256(" ".join(map(str, hits)).encode()).hexdigest() == digest, name


def test_audit_small_hits_are_pinned(monkeypatch):
    # SHA-256 of every _find_improvement_mask result in call order, written
    # as space-separated decimals, over audit-small's inputs: the 800
    # hereditary-small and 800 threedm-small solves at seed 0.  Recorded
    # before one capped run replaced the iterative-deepening passes to
    # size 3: each call must return the same hit, not just an improvement.
    find = local_search._find_improvement_mask
    hits: list[int] = []

    def recording_find(*args):
        hits.append(find(*args))
        return hits[-1]

    monkeypatch.setattr(local_search, "_find_improvement_mask", recording_find)
    for suite in ("hereditary-small", "threedm-small"):
        for _, inst, params in suite_instances(suite, 800, 0):
            solve(inst, params)
    assert (len(hits), sum(hit != 0 for hit in hits)) == (7184, 5584)
    assert hashlib.sha256(" ".join(map(str, hits)).encode()).hexdigest() == (
        "6941dfc3877c70b0b27b2502d6fd81c5112f5935496b5fef39d2fd670be99b9a")


def reference_naive_hit(g: ConflictGraph, a_mask: int, tau: int) -> int:
    """The least improving tuple of size <= tau as a mask, or 0, by the naive
    scan's own recursion, as it ran before it became a single-root run of
    ``rec_grown``."""
    free = ((1 << g.n) - 1) & ~a_mask
    cands = bit_positions(free)
    if not cands:
        return 0
    anb = [g.adj_mask(v) & a_mask for v in range(g.n)]
    w = g.weights
    w2m = g.w2_mask
    # Depth-first over index-sorted subsets: prefixes come first, so the
    # first hit is the lexicographically least improving tuple.
    k = len(cands)

    def rec_naive(last: int, x_vmask: int, n_mask: int, wx: int, size: int) -> int:
        size += 1  # the size of every child
        for i in range(last + 1, k):
            v = cands[i]
            if g.adj_mask(v) & x_vmask:
                continue  # never independent again along this branch
            x2 = x_vmask | 1 << v
            n2 = n_mask | anb[v]
            w2 = wx + w[v]
            n_heavy = (n2 & w2m).bit_count()
            wn = n2.bit_count() + n_heavy
            # X holds w2 - size weight-2 vertices, N holds n_heavy.
            if w2 > wn or (w2 == wn and w2 - size > n_heavy):
                return x2
            if size < tau and w2 - wn + 2 * (tau - size) >= 0:
                hit = rec_naive(i, x2, n2, w2, size)
                if hit:
                    return hit
        return 0
    return rec_naive(-1, 0, 0, 0, 0)


def test_naive_scan_matches_reference_on_solve_calls(monkeypatch):
    # every improvement search that solve makes on random-small (tau 4) and
    # on the general-tau4 ladder, replayed through both scans
    ladders = Path(__file__).resolve().parents[1] / "perfbench" / "ladders.json"
    runs = [(parse_instance(d["text"]), SearchParams(tau=4, seed=0))
            for d in json.loads(ladders.read_text())["general-tau4"]["instances"]]
    runs += [(inst, params) for _, inst, params in suite_instances("random-small", 200, 0)]
    find = local_search._find_improvement_mask
    calls = []

    def recording_find(g, a_mask, tau, method):
        calls.append((g, a_mask, tau))
        return find(g, a_mask, tau, method)

    monkeypatch.setattr(local_search, "_find_improvement_mask", recording_find)
    for inst, params in runs:
        solve(inst, params)
    hits = 0
    for g, a_mask, tau in calls:
        assert tau == 4
        hit = find(g, a_mask, tau, "naive")
        assert hit == reference_naive_hit(g, a_mask, tau)
        hits += hit != 0
    assert (len(calls), hits) == (1167, 960)


def test_naive_scan_matches_reference_on_seeded_states():
    # instance graphs over 6-11 elements and, on even trials, over 5-24
    # elements with 2 to 12 sets, under maximal and thinned packings, for
    # tau 1..7
    rng = random.Random(2323)
    hits = 0
    for trial in range(3000):
        if trial % 2:
            g = build_conflict_graph(generate_random(rng.randrange(6, 12), rng.randrange(3, 13),
                                                     rng.random(), seed=9000 + trial))
        else:
            g = build_conflict_graph(generate_random(rng.randrange(5, 25), rng.randrange(2, 13),
                                                     rng.random(), seed=9000 + trial))
        a = random_packing(g, rng)
        if rng.random() < 0.3:
            a = frozenset(v for v in a if rng.random() < 0.7)
        a_mask = g.mask(a)
        tau = 1 + trial % 7
        hit = local_search._find_improvement_mask(g, a_mask, tau, "naive")
        assert hit == reference_naive_hit(g, a_mask, tau), (trial, tau)
        hits += hit != 0
    assert hits == 1732


# rec_grown frames and share_cut evaluations per `hereditary-cert` closure at
# tau=10, counted with the global-optimality gate answering "unknown", so that
# every final call runs its second capped run.  The evaluations are the cut
# decisions, made at every child that loses weight with two or more sizes
# left below the cap: a cheaper test of the same bound, such as valuing the
# near candidates at their caps first, must make exactly the same ones.  The
# frames also follow how the search stages its capped runs.
HEREDITARY_CERT_FRAMES = {
    "random-30-18-s0": 2474, "random-30-18-s1": 4995, "random-30-18-s2": 1131,
    "random-30-18-s3": 2984, "random-30-18-s4": 673, "random-30-18-s5": 4023,
    "random-30-18-s6": 2614, "random-30-18-s7": 993,
}
HEREDITARY_CERT_SHARE_CUTS = {
    "random-30-18-s0": 4372, "random-30-18-s1": 16125, "random-30-18-s2": 971,
    "random-30-18-s3": 6621, "random-30-18-s4": 987, "random-30-18-s5": 6928,
    "random-30-18-s6": 6382, "random-30-18-s7": 1211,
}


def test_hereditary_cert_frames_are_pinned(monkeypatch):
    texts = _hereditary_cert_texts()
    assert sorted(texts) == sorted(HEREDITARY_CERT_FRAMES) == sorted(HEREDITARY_CERT_SHARE_CUTS)
    monkeypatch.setattr(local_search, "packing_above",
                        lambda g, key, budget: (UNKNOWN, budget))
    counts = {"rec_grown": {}, "share_cut": {}}

    def count_frames(frame, event, arg):
        if event == "call" and frame.f_code.co_name in counts:
            counts[frame.f_code.co_name][name] += 1

    for name in HEREDITARY_CERT_FRAMES:
        closed = hereditary_closure(parse_instance(texts[name]))
        counts["rec_grown"][name] = counts["share_cut"][name] = 0
        sys.setprofile(count_frames)
        try:
            solve_hereditary(closed)
        finally:
            sys.setprofile(None)
    assert counts["share_cut"] == HEREDITARY_CERT_SHARE_CUTS
    assert counts["rec_grown"] == HEREDITARY_CERT_FRAMES


# The gate's answers per `hereditary-cert` closure, in call order: (outcome,
# nodes popped).  Each solve calls it once, before the final second capped run.
HEREDITARY_CERT_GATE = {
    "random-30-18-s0": [(NONE_ABOVE, 5405)],
    "random-30-18-s1": [(NONE_ABOVE, 1655)], "random-30-18-s2": [(NONE_ABOVE, 857)],
    "random-30-18-s3": [(NONE_ABOVE, 2559)], "random-30-18-s4": [(NONE_ABOVE, 43)],
    "random-30-18-s5": [(NONE_ABOVE, 1767)], "random-30-18-s6": [(NONE_ABOVE, 535)],
    "random-30-18-s7": [(NONE_ABOVE, 445)],
}


def test_hereditary_cert_gate_is_pinned(monkeypatch):
    texts = _hereditary_cert_texts()
    assert sorted(texts) == sorted(HEREDITARY_CERT_GATE)
    gate = local_search.packing_above
    answers: list[tuple[str, int]] = []

    def recording_gate(*args):
        answers.append(gate(*args))
        return answers[-1]

    monkeypatch.setattr(local_search, "packing_above", recording_gate)
    for name, pinned in HEREDITARY_CERT_GATE.items():
        answers.clear()
        solve_hereditary(hereditary_closure(parse_instance(texts[name])))
        assert answers == pinned, name


def test_gate_answers_unknown_once_its_budget_runs_out(monkeypatch):
    # The gate's one call on random-30-18-s0 comes at the fixpoint, where it
    # proves in 5405 nodes that no packing beats A's key; with 100 nodes it
    # runs out and answers "unknown".
    text = _hereditary_cert_texts()["random-30-18-s0"]
    gate = local_search.packing_above
    calls = []

    def recording_gate(g, key, budget):
        calls.append((g, key))
        return gate(g, key, budget)

    monkeypatch.setattr(local_search, "packing_above", recording_gate)
    solve_hereditary(hereditary_closure(parse_instance(text)))
    [(g, key)] = calls
    assert packing_above(g, key, 10_000) == (NONE_ABOVE, 5405)
    assert packing_above(g, key, 100) == (UNKNOWN, 100)


def test_hereditary_cert_ladder_without_the_gate(monkeypatch):
    # A one-node budget makes every gate call answer "unknown" from its
    # real budget overrun, so every final call runs its second capped run,
    # which must come to the pinned packing on its own.
    texts = _hereditary_cert_texts()
    gate = local_search.packing_above
    answers: list[tuple[str, int]] = []

    def recording_gate(*args):
        answers.append(gate(*args))
        return answers[-1]

    monkeypatch.setattr(local_search, "packing_above", recording_gate)
    monkeypatch.setattr(local_search, "GATE_NODE_BUDGET", 1)
    for name, (members, counts, _) in HEREDITARY_CERT_PINS.items():
        answers.clear()
        packing, stats = solve_hereditary(hereditary_closure(parse_instance(texts[name])))
        assert answers == [(UNKNOWN, 1)], name
        assert sorted(packing.members) == members, name
        assert (stats.iterations, stats.final_weight) == counts, name


def reference_best_key(masks: list[int]) -> tuple[int, int]:
    """The largest (weight, weight-2 count) of any packing of the sets with
    element masks ``masks``, by a memoized recursion over covered elements:
    the lowest element not yet decided is either left uncovered or covered
    by one set that misses every decided element."""
    memo: dict[int, tuple[int, int]] = {}

    def best(decided: int) -> tuple[int, int]:
        if decided not in memo:
            avail = [m for m in masks if not m & decided]
            out = (0, 0)
            if avail:
                union = 0
                for m in avail:
                    union |= m
                low = union & -union
                out = best(decided | low)
                for m in avail:
                    if m & low:
                        w, w2 = best(decided | m)
                        out = max(out, (w + m.bit_count() - 1, w2 + (m.bit_count() == 3)))
            memo[decided] = out
        return memo[decided]
    return best(0)


def test_gate_matches_reference_on_solve_states(monkeypatch):
    # every improvement search of the seeded solves of random-small,
    # hereditary-small and threedm-small: A is each call's solution, from
    # the empty packing to the fixpoint.  The budget is far above what these
    # need, so a gate that searches too little answers wrongly rather than
    # "unknown".  The gate answers as the table-free loop does, in no more
    # nodes.
    find = local_search._find_improvement_mask
    calls = []

    def recording_find(g, a_mask, tau, method):
        calls.append((g, a_mask, tau))
        return find(g, a_mask, tau, method)

    monkeypatch.setattr(local_search, "_find_improvement_mask", recording_find)
    outcomes = {NONE_ABOVE: 0, FOUND: 0, UNKNOWN: 0}
    for suite in ("random-small", "hereditary-small", "threedm-small"):
        for _, inst, params in suite_instances(suite, 40, 1):
            calls.clear()
            solve(inst, params)
            opt = solve_exact(inst).optimum_weight
            for g, a_mask, tau in calls:
                masks = g.members
                key = (g.weight_mask(a_mask), g.w2_count_mask(a_mask))
                outcome, nodes = packing_above(g, key, 200_000)
                outcomes[outcome] += 1
                _, chosen, ref_nodes = reference_branch_and_bound(masks, key, 200_000, first=True)
                assert outcome == (FOUND if chosen else NONE_ABOVE) and nodes <= ref_nodes
                best = reference_best_key(masks)
                if outcome == NONE_ABOVE:
                    assert best == key and opt == key[0]
                    assert reference_naive_hit(g, a_mask, tau) == 0
                elif outcome == FOUND:
                    assert best > key
    assert outcomes == {NONE_ABOVE: 120, FOUND: 478, UNKNOWN: 0}


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
    proc = _solve_optimized(tmp_path, fault, "1 2 3\n3 4\n4 5 6\n6 7\n", ["--tau", "5"])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.strip() == f"internal invariant violated: {message}"


def test_binocular_checks_survive_optimize(tmp_path):
    # the seeded solve applies one binocular; with the U(B) mask emptied, the
    # check in extract_improvement must fire under -O too
    text = serialize_instance(generate_random(12, 16, 0.6, seed=34))
    fault = "LabeledBinocular.u_mask = property(lambda self: 0)"
    proc = _solve_optimized(tmp_path, fault, text, ["--tau", "2", "--seed", "1"])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.strip() == ("internal invariant violated: solution neighborhood "
                                   "escaped the U-side of the binocular")


def _solve_optimized(tmp_path, fault: str, text: str, args: list[str]):
    """Run ``setpack solve`` under ``python -O`` after executing ``fault``."""
    path = tmp_path / "instance.txt"
    path.write_text(text)
    script = textwrap.dedent("""
        import sys
        if not sys.flags.optimize:
            sys.exit("not running under -O")
        from setpack23.cli import main
        from setpack23.conflict import ConflictGraph
        from setpack23.search_graph import LabeledBinocular
        {fault}
        sys.exit(main(["solve", sys.argv[1]] + sys.argv[2:]))
    """).format(fault=fault)
    src = str(Path(setpack23.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", "-c", script, str(path)] + args,
                          capture_output=True, text=True, env=env, timeout=60)


def reference_linkage(g: ConflictGraph, a_mask: int) -> tuple[list[int], list[int]]:
    """Reference (cadj, link) by vertex id, by a double loop over every candidate pair."""
    cands = [v for v in range(g.n) if not (a_mask >> v) & 1]
    anb = [g.adj_mask(v) & a_mask for v in range(g.n)]
    cadj = [0] * g.n
    link = [0] * g.n
    for u in cands:
        for v in cands:
            if g.adj_mask(u) & (1 << v):
                cadj[u] |= 1 << v
            elif v != u and anb[u] & anb[v]:
                link[u] |= 1 << v
        link[u] |= cadj[u]
    return cadj, link


def test_candidate_linkage_matches_double_loop():
    rng = random.Random(5150)
    states = []
    for trial in range(15):
        base = generate_random(rng.randrange(12, 18), rng.randrange(8, 13),
                               p3=1.0, seed=6200 + trial)
        g = build_conflict_graph(hereditary_closure(base).base)
        states += [(g, frozenset()), (g, random_packing(g, rng))]
    for _, inst, params in suite_instances("threedm-small", 20, 0):
        g = build_conflict_graph(inst)
        states += [(g, frozenset()), (g, random_packing(g, rng)),
                   (g, solve(inst, params)[0].members)]
    for g, a in states:
        a_mask = g.mask(a)
        free = ((1 << g.n) - 1) & ~a_mask
        anb = [g.adj_mask(v) & a_mask for v in range(g.n)]
        assert _candidate_linkage(g, free, anb) == reference_linkage(g, a_mask)


def test_claw_shares_pay_for_every_independent_candidate_set():
    # 6 g(c) = 6 (w(c) - sum of w(a)/(w(a)+1) over c's solution neighbors a);
    # over every independent candidate set F the shares cover
    # w(F) - w(N(F, A)), with equality when F meets each of its solution
    # neighbors in every element, as three 2-sets meeting one 3-set do
    rng = random.Random(6061)
    claws = 0
    for trial in range(100):
        inst = generate_random(rng.randrange(6, 12), rng.randrange(6, 16), rng.random(),
                               seed=6100 + trial)
        g = build_conflict_graph(inst)
        a_mask = g.mask(random_packing(g, rng))
        cands = [v for v in range(g.n) if not (a_mask >> v) & 1]
        anb = [g.adj_mask(v) & a_mask for v in range(g.n)]
        shares = dict(zip(cands, _claw_shares(g, anb, cands)))
        for v in cands:
            charges = sum(Fraction(g.weights[a], g.weights[a] + 1)
                          for a in g.unmask(g.adj_mask(v) & a_mask))
            assert shares[v] == 6 * (g.weights[v] - charges)
        for size in range(1, 5):
            for f in combinations(cands, size):
                f_mask = g.mask(f)
                if not g.independent_mask(f_mask):
                    continue
                n_mask = g.neighborhood_mask(f_mask, a_mask)
                gain6 = 6 * (g.weight_mask(f_mask) - g.weight_mask(n_mask))
                paid = sum(shares[v] for v in f)
                assert gain6 <= paid
                met = [sum(1 for v in f if g.adj_mask(v) >> a & 1) for a in g.unmask(n_mask)]
                if gain6 == paid and 3 in met:
                    claws += 1
    assert claws >= 10, claws


def test_clique_leaders_bound_every_independent_subset():
    # an independent subset holds at most one member of each clique of the
    # cover, so for every k the k largest leader values are at least the
    # weight of any independent subset of at most k members
    rng = random.Random(7331)
    merged = 0
    for trial in range(1500):
        k = rng.randrange(11)
        density = rng.random()
        values = [rng.randrange(1, 40) for _ in range(k)]
        conf = [0] * k
        for i, j in combinations(range(k), 2):
            if rng.random() < density:
                conf[i] |= 1 << j
                conf[j] |= 1 << i
        leaders = _clique_leaders([(values[i], 1 << i, conf[i]) for i in range(k)])
        top = sorted(leaders, reverse=True)
        merged += len(leaders) < k
        best = [0] * (k + 1)  # best independent weight of at most s members
        for f in range(1 << k):
            members = [i for i in range(k) if f >> i & 1]
            if all(not conf[i] & f for i in members):
                size = len(members)
                best[size] = max(best[size], sum(values[i] for i in members))
        for size in range(1, k + 1):
            best[size] = max(best[size], best[size - 1])
            assert sum(top[:size]) >= best[size]
        assert leaders == top[::-1]  # smallest first, as share_cut pops them
    assert merged >= 500, merged


def test_capped_share_sum_bounds_the_clique_leader_sum():
    # share_cut sums the d largest values over the clique leaders of the
    # near candidates' exact values (6 g(c) <= 6 w(c)) and the far classes;
    # valuing every near candidate at its cap 6 w(c) instead, with no cover,
    # never gives less, so a cut on the capped sum is a cut share_cut makes
    rng = random.Random(8117)
    below = 0
    for trial in range(3000):
        k = rng.randrange(9)
        weights = [rng.choice((1, 2)) for _ in range(k)]
        values = [rng.randrange(-6, 6 * w + 1) for w in weights]
        density = rng.random()
        conf = [0] * k
        for i, j in combinations(range(k), 2):
            if rng.random() < density:
                conf[i] |= 1 << j
                conf[j] |= 1 << i
        # far candidates take the bits above the near ones
        far_values = {1 << (k + i): rng.randrange(1, 13) for i in range(rng.randrange(12))}
        by_value: dict[int, int] = {}
        for bit, value in far_values.items():
            by_value[value] = by_value.get(value, 0) | bit
        share_classes = sorted(by_value.items(), reverse=True)
        far = sum(bit for bit in far_values if rng.random() < 0.6)
        d = rng.randrange(1, 9)
        leaders = _clique_leaders([(values[i], 1 << i, conf[i])
                                   for i in range(k) if values[i] > 0])
        far_in = [value for bit, value in far_values.items() if bit & far]
        exact = sum(sorted(leaders + far_in, reverse=True)[:d])
        heavy = weights.count(2)
        capped = _capped_share_sum(heavy, k - heavy, far, share_classes, d)
        assert capped == sum(sorted([6 * w for w in weights] + far_in, reverse=True)[:d])
        assert capped >= exact
        below += exact < capped
    assert below >= 1000, below


def test_runstats_wire_keys():
    _, stats = solve(chain_instance(), SearchParams(tau=2))
    doc = json.loads(json.dumps(asdict(stats)))
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

    def test_unknown_mode_rejected(self):
        # a misspelled mode would otherwise skip both the binocular phase
        # and the hereditary tau floor
        params = SearchParams(tau=2, mode="hereditray")
        with pytest.raises(ValueError, match="got 'hereditray'"):
            params.resolved_tau()
        with pytest.raises(ValueError, match="got 'hereditray'"):
            solve(generate_random(12, 16, 0.6, seed=34), params)


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
