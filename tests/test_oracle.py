import hashlib
import json
import random
from math import comb, inf
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from setpack23 import oracle
from setpack23.cli import hereditary_instance, random_triples, suite_instances, threedm_instance
from setpack23.conflict import bit_positions, build_conflict_graph
from setpack23.hereditary import hereditary_closure, solve_hereditary
from setpack23.instance import (Instance, Packing, embed_3dm, generate_random, parse_instance,
                                validate_packing)
from setpack23.oracle import (FOUND, NONE_ABOVE, OracleBudgetExceeded, OracleResult,
                              _branch_and_bound, packing_above, solve_exact)
from conftest import (brute_force_optimum, chain_instance, graph_from_sets,
                      reference_branch_and_bound, reference_list_branch_and_bound)


def reference_solve_exact(instance: Instance, budget: int = 10_000_000) -> OracleResult:
    """Exact optimum by include/exclude branching in decreasing-weight order."""
    ordered = sorted(instance.sets, key=lambda s: (-s.weight, s.id))
    m = len(ordered)
    elem_mask = [sum(1 << e for e in s.elements) for s in ordered]
    weight = [s.weight for s in ordered]
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weight[i]

    best_w = 0
    best_sel: tuple[int, ...] = ()
    nodes = 0

    # Iterative stack avoids recursion limits; entries are
    # (next index, used-element mask, current weight, chosen ids).
    stack: list[tuple[int, int, int, tuple[int, ...]]] = [(0, 0, 0, ())]
    while stack:
        i, used, cur_w, chosen = stack.pop()
        nodes += 1
        if nodes > budget:
            raise OracleBudgetExceeded(f"exceeded {budget} nodes")
        if cur_w > best_w:
            best_w, best_sel = cur_w, chosen
        if i == m or cur_w + suffix[i] <= best_w:
            continue
        # A tighter bound: only sets still compatible can contribute.
        ub = cur_w
        for j in range(i, m):
            if not elem_mask[j] & used:
                ub += weight[j]
        if ub <= best_w:
            continue
        # Exclude pushed first so the include branch is explored first.
        stack.append((i + 1, used, cur_w, chosen))
        if not elem_mask[i] & used:
            stack.append((i + 1, used | elem_mask[i], cur_w + weight[i], chosen + (ordered[i].id,)))

    witness = Packing(frozenset(best_sel))
    if witness.weight(instance) != best_w:
        raise AssertionError("oracle witness does not weigh the optimum")
    return OracleResult(best_w, witness, nodes)


def test_empty_instance():
    assert solve_exact(parse_instance("")).optimum_weight == 0


def test_chain_optimum_and_witness():
    result = solve_exact(chain_instance())
    assert result.optimum_weight == 4
    assert result.witness.members == {0, 2}


def test_pairwise_disjoint_sums_everything():
    inst = parse_instance("1 2\n3 4 5\n6 7\n8 9 10\n")
    assert solve_exact(inst).optimum_weight == 1 + 2 + 1 + 2


@given(st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_matches_exhaustive_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randrange(5, 11)
    m = rng.randrange(1, 16)
    inst = generate_random(n, m, rng.random(), seed)
    result = solve_exact(inst)
    assert result.optimum_weight == brute_force_optimum(inst)
    validate_packing(inst, result.witness)
    assert result.witness.weight(inst) == result.optimum_weight


def test_budget_error():
    inst = generate_random(30, 60, 0.5, seed=3)
    with pytest.raises(OracleBudgetExceeded):
        solve_exact(inst, budget=10)


@st.composite
def oracle_instances(draw) -> Instance:
    """Random 2-3-set draws, hereditary closures and 3DM embeddings."""
    kind = draw(st.sampled_from(["random", "closure", "threedm"]))
    seed = draw(st.integers(0, 2 ** 31))
    if kind == "random":
        n = draw(st.integers(6, 24))
        p3 = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]))
        limit = comb(n, 3) if p3 == 1.0 else comb(n, 2) if p3 == 0.0 else comb(n, 2) + comb(n, 3)
        return generate_random(n, draw(st.integers(1, min(40, limit))), p3, seed)
    if kind == "closure":
        return hereditary_instance(draw(st.integers(6, 15)), draw(st.integers(1, 12)), seed)
    return threedm_instance(draw(st.integers(1, 24)), seed)


@given(oracle_instances())
@settings(max_examples=150, deadline=None)
def test_matches_reference_oracle(inst):
    result = solve_exact(inst)
    assert result.optimum_weight == reference_solve_exact(inst).optimum_weight
    validate_packing(inst, result.witness)
    assert result.witness.weight(inst) == result.optimum_weight


def loop(g, key, budget, first):
    """``_branch_and_bound`` on ``g``, its chosen sets as their sorted element
    masks, so that it compares with the mask-based reference loops."""
    w, chosen, nodes = _branch_and_bound(g, key, budget, first)
    return w, sorted(g.members[i] for i in bit_positions(chosen)), nodes


def reference(ref):
    """A reference loop's result with its chosen element masks sorted."""
    return ref[0], sorted(ref[1]), ref[2]


@given(oracle_instances())
@settings(max_examples=150, deadline=None)
def test_matches_table_free_reference(inst):
    # The transposition table drops only nodes that repeat an earlier node's
    # available sets at no higher key: solve_exact keeps the table-free
    # loop's optimum and witness, the gate its answer and packing at keys
    # around the optimum's, and neither pops more nodes.
    g = build_conflict_graph(inst)
    budget = 10_000_000
    ref = reference(reference_branch_and_bound(g.members, (0, inf), budget, first=False))
    got = loop(g, (0, inf), budget, first=False)
    assert got[:2] == ref[:2] and got[2] <= ref[2]
    opt = ref[0]
    for key in {(max(w, 0), w2) for w in (opt - 1, opt) for w2 in (0, opt // 4, opt // 2)}:
        ref = reference(reference_branch_and_bound(g.members, key, budget, first=True))
        got = loop(g, key, budget, first=True)
        assert got[:2] == ref[:2] and got[2] <= ref[2], key


@pytest.mark.parametrize("cap", [oracle.TABLE_CAP, 8])
@given(inst=oracle_instances())
@settings(max_examples=150, deadline=None)
def test_matches_list_loop(cap, inst):
    # The available-set mask determines live, the union of the available
    # sets, and is determined by it, so the table keyed on the mask drops
    # the nodes that the list loop's table keyed on live drops: the final
    # key, the chosen masks and the node count are the same, in solve_exact
    # mode and in gate mode at keys around the optimum, with a full table too.
    g = build_conflict_graph(inst)
    budget = 10_000_000
    with mock.patch.object(oracle, "TABLE_CAP", cap):
        ref = reference(reference_list_branch_and_bound(g.members, (0, inf), budget, False, cap))
        assert loop(g, (0, inf), budget, first=False) == ref
        opt = ref[0]
        for key in {(max(w, 0), w2) for w in (opt - 1, opt, opt + 1)
                    for w2 in (0, opt // 4, opt // 2)}:
            ref = reference(reference_list_branch_and_bound(g.members, key, budget, True, cap))
            assert loop(g, key, budget, first=True) == ref, key


def test_empty_family_is_pruned_before_branching():
    # A node with no available set is pruned by its bounds, which are its
    # own key; it never branches on a lowest covered element.
    empty, one = graph_from_sets([]), graph_from_sets([(0, 1)])
    assert packing_above(empty, (0, 0), 10) == (NONE_ABOVE, 1)
    assert _branch_and_bound(empty, (0, inf), 10, first=False) == (0, 0, 1)
    # Taking the one set and leaving its lowest element uncovered both
    # leave nothing available: three nodes, and the set is the optimum.
    assert _branch_and_bound(one, (0, inf), 10, first=False) == (1, 0b1, 3)
    assert packing_above(one, (1, 0), 10) == (NONE_ABOVE, 1)


def test_table_keeps_a_repeat_with_more_3_sets():
    # Leaving 0 uncovered and taking {1, 2, 4} repeats the available sets of
    # an earlier node ({0, 1} and {2, 3} taken, 4 left uncovered) at the same
    # weight but with one more 3-set.  Only the repeat's subtree holds a
    # packing above (4, 1), so a table that compared weights alone would
    # drop it and answer that none exists.
    g = graph_from_sets([(0, 1), (2, 3), (1, 2, 4), (4, 5), (5, 6, 7), (5, 7, 8)])
    assert _branch_and_bound(g, (4, 1), 100, first=True) == (4, 1 << 2 | 1 << 4, 9)
    assert packing_above(g, (4, 1), 100) == (FOUND, 9)


def test_full_table_stays_exact(monkeypatch):
    # Once the table is full it takes no new entries but still answers
    # lookups: the answers stay the table-free loop's, and the node count
    # lies between that of the uncapped table and the table-free loop's.
    insts = [embed_3dm(random_triples(10, 10, 10, 20, seed)) for seed in range(4)]
    insts += [hereditary_closure(generate_random(12, 10, 1.0, seed)).base for seed in range(4)]
    for inst in insts:
        g = build_conflict_graph(inst)
        opt = reference_branch_and_bound(g.members, (0, inf), 10_000_000, first=False)[0]
        for key, first in (((0, inf), False), ((opt - 1, 0), True), ((opt, 0), True)):
            ref = reference(reference_branch_and_bound(g.members, key, 10_000_000, first))
            monkeypatch.setattr(oracle, "TABLE_CAP", 1 << 17)
            uncapped = loop(g, key, 10_000_000, first)
            monkeypatch.setattr(oracle, "TABLE_CAP", 8)
            capped = loop(g, key, 10_000_000, first)
            assert capped[:2] == uncapped[:2] == ref[:2]
            assert uncapped[2] <= capped[2] <= ref[2]


def test_hereditary_cert_closures_match_stored_optima():
    ladders = Path(__file__).resolve().parents[1] / "perfbench" / "ladders.json"
    instances = json.loads(ladders.read_text())["hereditary-cert"]["instances"]
    assert len(instances) == 8
    for d in instances:
        closed = hereditary_closure(parse_instance(d["text"])).base
        assert solve_exact(closed).optimum_weight == d["opt"], d["name"]


def test_84_set_ladder_point_is_solved_within_the_default_budget():
    closed = hereditary_closure(generate_random(30, 22, 1.0, seed=3))
    assert len(closed.base) == 84
    result = solve_exact(closed.base)
    _, stats = solve_hereditary(closed)
    assert result.optimum_weight == stats.final_weight == 16


def test_solve_exact_is_pinned():
    # SHA-256 of one line "optimum [sorted witness ids]" per solve, and of
    # one line "nodes_explored" per solve, over audit-small's 1,600
    # instances (threedm-small, then hereditary-small, 800 each at seed 0)
    # and the 8 hereditary-cert closures.  The optimum and witness digest is
    # unchanged since before the transposition table; the table dropped the
    # total node count from 100,039 to 51,221.
    ladders = Path(__file__).resolve().parents[1] / "perfbench" / "ladders.json"
    insts = [inst for suite in ("threedm-small", "hereditary-small")
             for _, inst, _ in suite_instances(suite, 800, 0)]
    insts += [hereditary_closure(parse_instance(d["text"])).base
              for d in json.loads(ladders.read_text())["hereditary-cert"]["instances"]]
    results = [solve_exact(inst) for inst in insts]
    assert len(results) == 1608
    answers = "\n".join(f"{r.optimum_weight} {sorted(r.witness.members)}" for r in results)
    nodes = "\n".join(str(r.nodes_explored) for r in results)
    assert hashlib.sha256(answers.encode()).hexdigest() == (
        "ea1c58a7f8fe678acf1bb065225ef491206d101f458f3ec472b0e4473244118c")
    assert hashlib.sha256(nodes.encode()).hexdigest() == (
        "3b8314e77852598acf24788a129d1c5a0bfbf74d51ab2676a5e25e7de739d985")
