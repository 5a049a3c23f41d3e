"""End-to-end acceptance campaign.

Each criterion runs at its stated tolerance and prints one pass/fail line;
run with ``pytest tests/test_acceptance.py -v -s`` to watch them live.
Exact integer comparisons throughout; no tolerances are loosened here.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

from setpack23.cli import random_triples
from setpack23.color_coding import search_improving_binocular
from setpack23.conflict import build_conflict_graph
from setpack23.hereditary import hereditary_closure, solve_hereditary
from setpack23.instance import embed_3dm, generate_random
from setpack23.local_search import SearchParams, find_improvement, is_local_improvement, solve
from setpack23.normalize import check_normalized, normalize
from setpack23.oracle import solve_exact
from setpack23.search_graph import enumerate_search_edges, extract_improvement

from conftest import binocular_gadget, random_nice_tuple
from test_binoculars import (berman_furer_witness, classify_minimal_binocular,
                             definition_minimal_binoculars, is_binocular, multigraph,
                             naive_improving_binocular, random_multigraph)
from test_color_coding import (brute_force_walk_keys, random_coloring_search, random_csg,
                                walk_table)


def _report(tag: str, message: str) -> None:
    print(f"[{tag}] PASS {message}", flush=True)


# -- shared campaigns ---------------------------------------------------------

@lru_cache(maxsize=None)
def hereditary_campaign():
    """200 random closed instances solved at tau=10 and audited exactly."""
    runs = []
    for i in range(200):
        rng = random.Random(41_000 + i)
        base = generate_random(rng.randrange(9, 16), rng.randrange(5, 11),
                               p3=1.0, seed=41_000 + i)
        closed = hereditary_closure(base).base
        packing, stats = solve_hereditary(closed, seed=i)
        opt = solve_exact(closed)
        runs.append((closed, packing, stats, opt))
    return runs


@lru_cache(maxsize=None)
def threedm_campaign():
    """100 3DM-derived instances, general mode, tau=8, binocular phase on."""
    runs = []
    for i in range(100):
        rng = random.Random(52_000 + i)
        m = rng.randrange(4, 13)
        part = max(2, m // 2 + 1)
        inst = embed_3dm(random_triples(part, part, part, m, 52_000 + i))
        params = SearchParams(tau=8, seed=i, injective_colorings=True)
        packing, stats = solve(inst, params)
        opt = solve_exact(inst)
        runs.append((inst, params, packing, stats, opt))
    return runs


@lru_cache(maxsize=None)
def gadget_solver_campaign():
    """Gadget instances where the solver must fire the binocular phase."""
    runs = []
    kinds = ["double_loop", "theta", "dumbbell"]
    for i in range(30):
        inst, _ = binocular_gadget(kinds[i % 3], random.Random(63_000 + i))
        params = SearchParams(tau=1, seed=i, injective_colorings=True)
        packing, stats = solve(inst, params)
        runs.append((inst, packing, stats))
    return runs


def test_ac1_hereditary_guarantee():
    worst = Fraction(1)
    for closed, packing, stats, opt in hereditary_campaign():
        alg = packing.weight(closed)
        assert 3 * opt.optimum_weight <= 4 * alg, \
            f"hereditary guarantee broken: opt={opt.optimum_weight} alg={alg}"
        assert stats.binoculars_applied == 0
        if alg:
            worst = max(worst, Fraction(opt.optimum_weight, alg))
    _report("AC1", f"(200/200 closed instances, exact 3*opt <= 4*alg, "
                   f"worst ratio {worst.numerator}/{worst.denominator})")


def test_ac2_threedm_worst_ratio():
    worst = Fraction(1)
    for inst, params, packing, stats, opt in threedm_campaign():
        alg = packing.weight(inst)
        assert alg > 0
        ratio = Fraction(opt.optimum_weight, alg)
        worst = max(worst, ratio)
        assert 3 * opt.optimum_weight <= 5 * alg, \
            f"ratio above 5/3: opt={opt.optimum_weight} alg={alg}"
        # double checks: no bounded improvement and no improving minimal
        # binocular survives termination
        g = build_conflict_graph(inst)
        assert find_improvement(g, packing.members, tau=8, method="naive") is None
        sg = enumerate_search_edges(g, g.mask(packing.members), tau=8)
        assert search_improving_binocular(sg, g, params, seed=999) is None
        if len(sg.edges) <= 40:
            assert naive_improving_binocular(sg, g, max_size=4) is None
    _report("AC2", f"(100/100 embeddings at tau=8, worst ratio "
                   f"{worst.numerator}/{worst.denominator} <= 5/3)")


def test_ac3_applied_binoculars_are_sound():
    applications = 0
    for inst, packing, stats in gadget_solver_campaign():
        assert stats.binoculars_applied >= 1, "gadget failed to exercise the binocular phase"
        applications += stats.binoculars_applied
        g = build_conflict_graph(inst)
        assert find_improvement(g, packing.members, tau=4, method="naive") is None
    for _, _, _, stats, _ in threedm_campaign():
        applications += stats.binoculars_applied
    # direct extraction checks on freshly found binoculars
    for i in range(40):
        inst, a = binocular_gadget(["double_loop", "theta", "dumbbell"][i % 3],
                                   random.Random(77_000 + i))
        g = build_conflict_graph(inst)
        sg = enumerate_search_edges(g, g.mask(a), tau=2)
        b = search_improving_binocular(sg, g, SearchParams(tau=2), seed=i)
        assert b is not None
        x = g.unmask(extract_improvement(b, g, g.mask(a)))
        assert is_local_improvement(g, a, x), "extracted set must be a local improvement"
        applications += 1
    _report("AC3", f"({applications} binocular applications, all passed the "
                   f"improvement predicate; zero violations)")


def test_ac4_walk_dp_equals_brute_force():
    rng = random.Random(88_001)
    agreements = 0
    for _ in range(100):
        csg = random_csg(rng, max_vertices=8, max_edges=14)
        start = rng.choice(csg.vertices)
        ctx_u = frozenset(rng.sample(range(200, 206), rng.randrange(4)))
        ctx_w = frozenset(rng.sample(range(100, 106), rng.randrange(4)))
        table = walk_table(csg, start, ctx_u, ctx_w, max_len=6)
        expected = brute_force_walk_keys(csg, start, ctx_u, ctx_w, 6)
        assert {key: len(witness) for key, witness in table.items()} == expected
        agreements += 1
    _report("AC4", f"({agreements}/100 random tables agree with exhaustive "
                   f"walk enumeration on every reachable key and its shortest walk)")


def test_ac5_minimal_binocular_structure():
    rng = random.Random(90_002)
    graphs = classified = 0
    for _ in range(200):
        h = random_multigraph(rng, max_n=7, max_m=10)
        graphs += 1
        for edge_ids in definition_minimal_binoculars(h):
            b = h.sub(edge_ids)
            assert len(b.edges) == len(b.vertices) + 1
            shape = classify_minimal_binocular(b)
            assert shape.kind in ("two_cycles_and_path", "three_paths")
            covered = sorted(e for part in shape.parts for e in part)
            assert covered == sorted(e.id for e in b.edges)
            classified += 1
    assert classified >= 100, "campaign produced too few minimal binoculars to be meaningful"
    _report("AC5", f"({classified} minimal binoculars over {graphs} multigraphs, "
                   f"all |E|=|V|+1, connected, decomposed exactly)")


def test_ac6_dense_graphs_yield_small_binoculars():
    rng = random.Random(91_003)
    for k in range(100):
        s = (k % 3) + 1
        n = rng.randrange(8, 33)
        m = math.ceil((s + 1) / s * n) + rng.randrange(4)
        h = multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
        w = berman_furer_witness(h, s)
        assert is_binocular(w)
        assert len(w.edges) <= 4 * s * math.log2(n)
    _report("AC6", "(100/100 dense graphs returned a binocular within 4*s*log2|V|)")


def test_ac7_color_coding_completeness():
    kinds = ["double_loop", "theta", "dumbbell"]
    per_instance = []
    for i in range(50):
        inst, a = binocular_gadget(kinds[i % 3], random.Random(95_000 + i))
        g = build_conflict_graph(inst)
        sg = enumerate_search_edges(g, g.mask(a), tau=2)
        nb = naive_improving_binocular(sg, g, max_size=4)
        assert nb is not None and len(nb.edges) <= 4, "instance lost its small binocular"
        # The budget covers these universes, so the solver would run one
        # injective coloring; the randomized trials force random colorings.
        hits = sum(random_coloring_search(sg, g, a, seed=31 * i + t) is not None
                   for t in range(100))
        assert hits >= 99, f"instance {i}: only {hits}/100 randomized successes"
        per_instance.append(hits)
        inj = SearchParams(tau=2, injective_colorings=True)
        assert search_improving_binocular(sg, g, inj, seed=0) is not None
    _report("AC7", f"(50 instances x 100 trials, min {min(per_instance)}/100 randomized "
                   f"successes, injective mode 50/50)")


def test_ac8_iteration_bound():
    checked = 0
    for closed, _, stats, _ in hereditary_campaign():
        assert stats.iterations <= 2 * len(closed) * (len(closed) + 2)
        checked += 1
    for inst, _, _, stats, _ in threedm_campaign():
        assert stats.iterations <= 2 * len(inst) * (len(inst) + 2)
        checked += 1
    for inst, _, stats in gadget_solver_campaign():
        assert stats.iterations <= 2 * len(inst) * (len(inst) + 2)
        checked += 1
    _report("AC8", f"({checked} solver runs within the quadratic iteration bound; "
                   f"the bound is also asserted inside every run)")


def test_ac9_normalizer_invariants():
    rng = random.Random(97_004)
    for _ in range(500):
        t = random_nice_tuple(rng)
        out = normalize(t)  # bookkeeping and ratio transfer assert internally
        assert check_normalized(out) == []
        # independent re-check of the ratio transfer at alpha = 4/3
        def wsum(weights, vs):
            return sum(weights[v] for v in vs)
        if 3 * wsum(out.weights, out.b) <= 4 * wsum(out.weights, out.a):
            assert 3 * wsum(t.weights, t.b) <= 4 * wsum(t.weights, t.a)
    _report("AC9", "(500/500 random nice tuples normalized with clean reports, "
                   "bookkeeping and 4/3 transfer exact)")


def test_ac10_grown_matches_naive():
    rng = random.Random(99_005)
    agreements = 0
    for i in range(300):
        inst = generate_random(rng.randrange(5, 13), rng.randrange(3, 13),
                               rng.random(), seed=99_000 + i)
        g = build_conflict_graph(inst)
        # random independent (not necessarily maximal) solution state
        order = list(range(g.n))
        rng.shuffle(order)
        a_mask = 0
        for v in order:
            if not g.adj_mask(v) & a_mask and rng.random() < 0.8:
                a_mask |= 1 << v
        a = g.unmask(a_mask)
        tau = rng.randrange(1, 5)
        grown = find_improvement(g, a, tau, method="grown")
        naive = find_improvement(g, a, tau, method="naive")
        assert (grown is None) == (naive is None)
        for imp in (grown, naive):
            if imp is not None:
                assert is_local_improvement(g, a, imp.x) and len(imp.x) <= tau
        agreements += 1
    _report("AC10", f"({agreements}/300 solution states: grown and naive "
                    f"enumeration agree on improvement existence)")
