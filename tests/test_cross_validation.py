"""Cross-checks that pit independent code paths against each other."""

import random
from itertools import combinations

from setpack23 import local_search
from setpack23.cli import suite_instances
from setpack23.color_coding import search_improving_binocular
from setpack23.conflict import build_conflict_graph
from setpack23.hereditary import hereditary_closure, solve_hereditary
from setpack23.instance import generate_random
from setpack23.local_search import (_SMALL_CAP, SearchParams, apply_improvement,
                                    find_improvement, is_local_improvement)
from setpack23.oracle import UNKNOWN
from setpack23.search_graph import (LabeledBinocular, enumerate_search_edges,
                                    extract_improvement, is_improving_binocular)
from conftest import (full_search_edges, instance_from_sets, random_packing, search_edge,
                      validate_search_edge)
from test_binoculars import naive_improving_binocular


def test_hereditary_outputs_survive_naive_tau10_certification():
    # small enough that the naive full-subset scan at tau=10 is feasible
    rng = random.Random(314)
    certified = 0
    for trial in range(50):
        base = generate_random(rng.randrange(7, 11), rng.randrange(3, 6),
                               p3=1.0, seed=trial)
        closed = hereditary_closure(base).base
        if len(closed) > 18:
            continue
        packing, _ = solve_hereditary(closed, seed=trial)
        g = build_conflict_graph(closed)
        assert find_improvement(g, packing.members, tau=10, method="naive") is None
        certified += 1
    assert certified >= 30


def test_improving_binoculars_always_extract_to_improvements():
    # fuzz the soundness chain on arbitrary small edge subsets of real
    # search graphs, not only on the crafted gadget states
    rng = random.Random(2718)
    improving_seen = 0
    for trial in range(250):
        inst = generate_random(rng.randrange(6, 11), rng.randrange(4, 11),
                               rng.random(), seed=7000 + trial)
        g = build_conflict_graph(inst)
        a = random_packing(g, rng)
        sg = enumerate_search_edges(g, g.mask(a), tau=2)
        if not 2 <= len(sg.edges) <= 14:
            continue
        for k in (2, 3):
            for chosen in combinations(sg.edges, k):
                touched = {v for e in chosen for v in e.endpoints}
                if len(chosen) <= len(touched):
                    continue
                b = LabeledBinocular(tuple(chosen))
                if is_improving_binocular(b, g):
                    improving_seen += 1
                    x = g.unmask(extract_improvement(b, g, g.mask(a)))
                    assert is_local_improvement(g, a, x)
    assert improving_seen >= 20


def test_full_mode_reaches_pairs_canonical_cannot():
    # a detached weight-1 solution vertex can balance the weight equation
    # even though it is no neighbor of W
    inst = instance_from_sets([(1, 2, 3), (4, 5, 6), (8, 9),
                               (1, 4, 7), (2, 10)])
    g = build_conflict_graph(inst)
    a = frozenset({0, 1, 2})
    canonical = enumerate_search_edges(g, g.mask(a), tau=2)
    full = full_search_edges(g, a, tau=2)
    extra = search_edge((0, 1), (2,), (3, 4))
    assert extra not in canonical.edges
    assert extra in full.edges
    assert validate_search_edge(g, a, extra, tau=2)


def test_randomized_search_is_deterministic_per_seed():
    inst = instance_from_sets([(0, 1, 2), (0, 3, 4), (1, 5, 6)])
    g = build_conflict_graph(inst)
    a = frozenset({0})
    sg = enumerate_search_edges(g, g.mask(a), tau=2)
    params = SearchParams(tau=2)
    runs = {search_improving_binocular(sg, g, params, seed=9).edges for _ in range(5)}
    assert len(runs) == 1


def test_grown_matches_naive_on_hand_built_graphs(monkeypatch):
    # instance graphs of 4 to 9 sets over 5 to 14 elements, at tau 1..6:
    # with the global-optimality gate, and with it answering "unknown", so
    # that the second capped run and its claw-share cut decide every call
    # from tau 4 up instead of the gate
    rng = random.Random(4242)
    states = []
    for trial in range(80):
        g = build_conflict_graph(generate_random(rng.randrange(5, 15), rng.randrange(4, 10),
                                                 rng.random(), seed=4300 + trial))
        states.append((g, random_packing(g, rng), rng.randrange(1, 7)))
    unknown_keys = []

    def unknown(masks, key, budget):
        unknown_keys.append(key)
        return UNKNOWN, budget
    for gate in (local_search.packing_above, unknown):
        monkeypatch.setattr(local_search, "packing_above", gate)
        for g, a, tau in states:
            grown = find_improvement(g, a, tau, method="grown")
            naive = find_improvement(g, a, tau, method="naive")
            assert (grown is None) == (naive is None)
            for imp in (grown, naive):
                if imp is not None:
                    assert is_local_improvement(g, a, imp.x)
    assert len(unknown_keys) >= 10


def test_naive_binocular_and_randomized_search_agree_on_gadget_presence():
    rng = random.Random(13579)
    compared = 0
    for trial in range(60):
        inst = generate_random(rng.randrange(6, 10), rng.randrange(4, 9),
                               rng.random(), seed=8800 + trial)
        g = build_conflict_graph(inst)
        a = random_packing(g, rng)
        sg = enumerate_search_edges(g, g.mask(a), tau=2)
        if len(sg.edges) > 12:
            continue
        naive = naive_improving_binocular(sg, g, max_size=3)
        injective = search_improving_binocular(
            sg, g, SearchParams(tau=2, injective_colorings=True), seed=trial)
        if naive is not None:
            # exact completeness: the injective search cannot miss it
            assert injective is not None
        compared += 1
    assert compared >= 30


def alternating_paths(lengths: list[int], seed: int):
    """Disjoint element paths of 2-sets, set ids shuffled by ``seed``.

    A path with m solution sets (every other set) is improved only by its
    m + 1 other sets taken whole, so the least improvement has size
    min(lengths) + 1.  Returns the instance and the solution.
    """
    raw, solution, start = [], [], 0
    for m in lengths:
        for i in range(2 * m + 1):
            if i % 2:
                solution.append(len(raw))
            raw.append((start + i, start + i + 1))
        start += 2 * m + 2
    order = list(range(len(raw)))
    random.Random(seed).shuffle(order)
    inst = instance_from_sets([raw[i] for i in order])
    return inst, frozenset(order.index(i) for i in solution)


def test_grown_hit_has_the_least_size():
    # the grown hit's size must be the least s at which the naive search with
    # tau = s finds an improvement, also past the first capped run's cap
    rng = random.Random(4711)
    states = []
    for trial in range(20):
        base = generate_random(rng.randrange(12, 18), rng.randrange(8, 13),
                               p3=1.0, seed=7100 + trial)
        closed = hereditary_closure(base).base
        g = build_conflict_graph(closed)
        states += [(closed, frozenset(), 10), (closed, random_packing(g, rng), 10)]
    for _, inst, params in suite_instances("threedm-small", 20, 0):
        g = build_conflict_graph(inst)
        states += [(inst, frozenset(), params.resolved_tau()),
                   (inst, random_packing(g, rng), params.resolved_tau())]
    for trial in range(12):
        lengths = [rng.randrange(2, 7) for _ in range(rng.randrange(1, 4))]
        inst, a = alternating_paths(lengths, seed=trial)
        states.append((inst, a, 8))
    sizes = []
    for inst, a, tau in states:
        g = build_conflict_graph(inst)
        # follow the solver's path: apply each least hit until none is left
        while (imp := find_improvement(g, a, tau, method="grown")) is not None:
            size = len(imp.x)
            assert find_improvement(g, a, size, method="naive") is not None
            assert size == 1 or find_improvement(g, a, size - 1, method="naive") is None
            sizes.append(size)
            a = apply_improvement(g, a, imp)
    assert max(sizes) > _SMALL_CAP + 1
    assert sum(size > _SMALL_CAP for size in sizes) >= 10


def three_local(g, a: frozenset[int]) -> frozenset[int]:
    """The packing the solver reaches from ``a`` with improvements of size <= 3."""
    while (imp := find_improvement(g, a, 3, method="grown")) is not None:
        a = apply_improvement(g, a, imp)
    return a


def test_grown_matches_naive_where_claw_shares_cut(monkeypatch):
    # tau 5-7, where the second capped run cuts by claw shares.  States:
    # seeded hereditary closures of 20-40 sets with the empty packing, a random
    # one, the 3-local optimum the solver reaches from the empty one and the
    # packing solve_hereditary returns; and a general draw whose 3-local
    # optimum hides a least improvement of size 4 that is cut when a
    # weight-2 solution neighbor costs 5 sixths instead of its share of 4;
    # and a general draw where share_cut runs out of share classes with near
    # candidates left, so its closing loop sums them.
    # A spy on the clique cover checks that it merges cliques on these
    # states, so the comparison covers the bound it tightens.  The
    # global-optimality gate answers "unknown", so that every second capped
    # run, where the cut runs, is reached and checked against the full scan.
    rng = random.Random(1010)
    states = []
    while len(states) < 4 * 12:
        base = generate_random(rng.randrange(9, 15), rng.randrange(5, 11), p3=1.0,
                               seed=rng.randrange(10 ** 6))
        closed = hereditary_closure(base).base
        if not 20 <= len(closed) <= 40:
            continue
        g = build_conflict_graph(closed)
        states += [(g, a) for a in (frozenset(), random_packing(g, rng),
                                    three_local(g, frozenset()),
                                    solve_hereditary(closed)[0].members)]
    g = build_conflict_graph(generate_random(15, 30, 0.3, seed=75))
    a = three_local(g, frozenset({0, 3, 4, 10, 11, 21}))
    assert a == {1, 4, 9, 24, 29}
    states.append((g, a))
    states.append((build_conflict_graph(generate_random(12, 14, 0.8408114554593497, seed=582)),
                   frozenset({3, 12, 13})))
    clique_leaders = local_search._clique_leaders
    merges = []

    def spy(members):
        leaders = clique_leaders(members)
        merges.append(len(leaders) < len(members))
        return leaders

    monkeypatch.setattr(local_search, "_clique_leaders", spy)
    monkeypatch.setattr(local_search, "packing_above",
                        lambda masks, key, budget: (UNKNOWN, budget))
    sizes = []
    for g, a in states:
        for tau in (5, 6, 7):
            path = a
            while (imp := find_improvement(g, path, tau, method="grown")) is not None:
                size = len(imp.x)
                assert find_improvement(g, path, size, method="naive") is not None
                assert size == 1 or find_improvement(g, path, size - 1, method="naive") is None
                sizes.append(size)
                path = apply_improvement(g, path, imp)
            assert find_improvement(g, path, tau, method="naive") is None
    assert sum(size > _SMALL_CAP for size in sizes) >= 3
    assert sum(merges) >= 100, sum(merges)
