"""Shared fabricators and independent reference oracles for the test suite."""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations, count
from operator import or_
from typing import Iterable, Sequence

import pytest

from setpack23 import build_conflict_graph, is_local_improvement, parse_instance
from setpack23.conflict import ConflictGraph, bit_positions
from setpack23.instance import Instance, PackSet, generate_random
from setpack23.normalize import AnalysisTuple, analysis_tuple
from setpack23.oracle import OracleBudgetExceeded
from setpack23.search_graph import SearchEdge, SearchGraph


def chain_instance() -> Instance:
    """Four sets whose conflict graph is a path: 3-set, 2-set, 3-set, 2-set."""
    return parse_instance("1 2 3\n3 4\n4 5 6\n6 7\n")


def instance_from_sets(raw: list[tuple[int, ...]]) -> Instance:
    """Build an instance from explicit element tuples without re-interning."""
    universe = max((e for s in raw for e in s), default=-1) + 1
    return Instance(tuple(PackSet(i, s) for i, s in enumerate(raw)), universe)


def graph_from_sets(raw: list[tuple[int, ...]]) -> ConflictGraph:
    """The conflict graph of explicit element tuples, vertex i being set i."""
    return build_conflict_graph(instance_from_sets(raw))


# K_{2,3} of 3-sets: 0 and 1 are disjoint, and each of 2, 3, 4 meets both of
# them in one element and nothing else.
K23_SETS = [(0, 1, 2), (3, 4, 5), (0, 3, 6), (1, 4, 7), (2, 5, 8)]


def fresh_sets(weights: Iterable[int]) -> list[tuple[int, ...]]:
    """One set of w + 1 fresh elements per weight w: no two of them meet."""
    elements = count()
    return [tuple(next(elements) for _ in range(w + 1)) for w in weights]


def edgeless_graph(weights: Iterable[int]) -> ConflictGraph:
    """The conflict graph of ``fresh_sets(weights)``: those weights, no edges."""
    return graph_from_sets(fresh_sets(weights))


def brute_force_optimum(instance: Instance) -> int:
    """Exhaustive maximum packing weight; only for small instances."""
    sets = instance.sets
    best = 0
    for r in range(len(sets) + 1):
        for combo in combinations(sets, r):
            used: set[int] = set()
            ok = True
            for s in combo:
                if used & set(s.elements):
                    ok = False
                    break
                used |= set(s.elements)
            if ok:
                best = max(best, sum(s.weight for s in combo))
    return best


def reference_list_branch_and_bound(masks: Sequence[int], key: tuple[int, float], budget: int,
                                    first: bool, table_cap: int) -> tuple[int, tuple[int, ...], int]:
    """``oracle._branch_and_bound`` over lists of element masks, with a table
    of at most ``table_cap`` entries: the same branching, bounds, return
    value and budget error.  A node filters its parent's 3-set and 2-set
    lists by its blocked elements and keys the table on ``live``, the union
    of the sets that remain, which determines them as the solver's
    available-set mask does."""
    key_w, key_w2 = key
    best_sel: tuple[int, ...] = ()
    nodes = 0
    table: dict[int, tuple[int, int]] = {}
    # Iterative stack: (parent's 3-sets, its 2-sets, blocked elements,
    # weight, weight-2 count, chosen).
    stack = [([m for m in masks if m.bit_count() == 3], [m for m in masks if m.bit_count() == 2],
              0, 0, 0, ())]
    while stack:
        p3, p2, blocked, cur_w, cur_w2, chosen = stack.pop()
        nodes += 1
        if nodes > budget:
            raise OracleBudgetExceeded(f"exceeded {budget} nodes")
        if cur_w > key_w or cur_w == key_w and cur_w2 > key_w2:
            if first:
                return cur_w, chosen, nodes
            key_w, best_sel = cur_w, chosen
        a3 = [m for m in p3 if not m & blocked]
        a2 = [m for m in p2 if not m & blocked]
        e3, e2 = reduce(or_, a3, 0), reduce(or_, a2, 0)
        live = e3 | e2
        here = (cur_w, cur_w2)
        seen = table.get(live)
        if seen is not None and here <= seen:
            continue
        if seen is not None or len(table) < table_cap:
            table[live] = here
        n3 = e3.bit_count()
        top = cur_w + min(2 * len(a3) + len(a2), (4 * n3 + 3 * (e2 & ~e3).bit_count()) // 6)
        if top < key_w or top == key_w and cur_w2 + min(len(a3), n3 // 3) <= key_w2:
            continue
        low = live & -live
        # Last pushed pops first: 3-sets by id, then 2-sets, then "uncovered".
        stack.append((a3, a2, blocked | low, cur_w, cur_w2, chosen))
        stack += [(a3, a2, blocked | m, cur_w + 1, cur_w2, chosen + (m,))
                  for m in reversed(a2) if m & low]
        stack += [(a3, a2, blocked | m, cur_w + 2, cur_w2 + 1, chosen + (m,))
                  for m in reversed(a3) if m & low]
    return key_w, best_sel, nodes


def reference_branch_and_bound(masks: Sequence[int], key: tuple[int, float], budget: int,
                               first: bool) -> tuple[int, tuple[int, ...], int]:
    """``oracle._branch_and_bound`` without its transposition table: a node
    is never dropped for repeating an earlier node's available sets."""
    return reference_list_branch_and_bound(masks, key, budget, first, table_cap=0)


def brute_force_improvement_exists(g: ConflictGraph, A: frozenset[int], tau: int) -> bool:
    """Reference check over ALL vertex subsets up to size tau, including
    subsets that touch the solution itself."""
    verts = list(range(g.n))
    for r in range(1, tau + 1):
        for combo in combinations(verts, r):
            if is_local_improvement(g, A, combo):
                return True
    return False


def search_edge(endpoints: Iterable[int], u_label: Iterable[int],
                w_label: Iterable[int]) -> SearchEdge:
    """A search edge from its endpoint and label vertices."""
    return SearchEdge(tuple(sorted(endpoints)), sum(1 << v for v in set(u_label)),
                      sum(1 << v for v in set(w_label)))


def label_key(e: SearchEdge) -> tuple:
    """The search graph's edge order: endpoints, then each label's ascending vertices."""
    return e.endpoints, bit_positions(e.u_mask), bit_positions(e.w_mask)


def independent_subsets(g: ConflictGraph, pool: Sequence[int], max_size: int):
    """Yield the masks of the non-empty independent subsets of pool, lex order."""
    def rec(start: int, mask: int, size: int):
        for i in range(start, len(pool)):
            v = pool[i]
            if g.adj_mask(v) & mask:
                continue
            mask2 = mask | (1 << v)
            yield mask2
            if size < max_size:
                yield from rec(i + 1, mask2, size + 1)
    yield from rec(0, 0, 1)


def reference_search_edges(g: ConflictGraph, A: Iterable[int], tau: int) -> SearchGraph:
    """Reference search graph from the unpruned scan over every W.

    W ranges over all independent sets of at most tau vertices outside A, and
    U over N(W, A) minus one or two weight-2 vertices, as many as the weight
    balance asks for.  Each edge is keyed by endpoints and both label tuples.
    The solver's ``enumerate_search_edges`` must return this graph exactly.
    """
    a_mask = g.mask(A)
    if not g.independent_mask(a_mask):
        raise ValueError("solution must be independent")
    outside = bit_positions(((1 << g.n) - 1) & ~a_mask)
    keyed: list[tuple[tuple, SearchEdge]] = []
    for w_mask in independent_subsets(g, outside, tau):
        ww = g.weight_mask(w_mask)
        m_mask = g.neighbors_mask(w_mask) & a_mask
        # U = N(W, A) minus a removed set R of weight-2 vertices; the
        # balance w(U) + 2 = w(W) forces |R| = (w(M) - w(W) + 2) / 2.
        need2, rem = divmod(g.weight_mask(m_mask) - ww + 2, 2)
        if rem or need2 not in (1, 2) or m_mask.bit_count() - need2 > tau:
            continue
        w_key = bit_positions(w_mask)
        for r_combo in combinations(bit_positions(m_mask & g.w2_mask), need2):
            u_mask = m_mask
            for v in r_combo:
                u_mask ^= 1 << v
            keyed.append(((r_combo, bit_positions(u_mask), w_key),
                          SearchEdge(r_combo, u_mask, w_mask)))
    keyed.sort()
    vertices = bit_positions(a_mask & g.w2_mask)
    return SearchGraph(vertices, tuple(e for _, e in keyed), tau)


def full_search_edges(g: ConflictGraph, A: frozenset[int], tau: int) -> SearchGraph:
    """Reference search graph: U ranges over every subset of A of size <= tau.

    The solver's ``enumerate_search_edges`` only tries U inside N(W, A);
    every edge it builds must appear here too.  Exponential in |A|, so only
    for tiny graphs.
    """
    a_mask = g.mask(A)
    outside = [v for v in range(g.n) if not (a_mask >> v) & 1]
    a_list = sorted(g.unmask(a_mask))
    u_choices = [0]
    for size in range(1, tau + 1):
        for combo in combinations(a_list, size):
            u_choices.append(g.mask(combo))
    edges: set[SearchEdge] = set()
    for w_mask in independent_subsets(g, outside, tau):
        ww = g.weight_mask(w_mask)
        m_mask = g.neighbors_mask(w_mask) & a_mask
        for u_mask in u_choices:
            if g.weight_mask(u_mask) + 2 != ww:
                continue
            e_mask = m_mask & ~u_mask
            if e_mask & ~g.w2_mask:
                continue
            cnt = e_mask.bit_count()
            if cnt < 1 or cnt > 2:
                continue
            edges.add(SearchEdge(bit_positions(e_mask), u_mask, w_mask))
    vertices = bit_positions(a_mask & g.w2_mask)
    return SearchGraph(vertices, tuple(sorted(edges, key=label_key)), tau)


def validate_search_edge(g: ConflictGraph, A: Iterable[int], edge: SearchEdge, tau: int) -> bool:
    """Re-check the three edge-inducing conditions from scratch."""
    a_mask = g.mask(A)
    u_mask, w_mask = edge.u_mask, edge.w_mask
    if u_mask & ~a_mask or w_mask & a_mask or not g.independent_mask(w_mask):
        return False
    if max(u_mask.bit_count(), w_mask.bit_count()) > tau:
        return False
    if g.weight_mask(u_mask) + 2 != g.weight_mask(w_mask):
        return False
    res_mask = g.neighbors_mask(w_mask) & (a_mask & ~u_mask)
    if res_mask & ~g.w2_mask or not 1 <= res_mask.bit_count() <= 2:
        return False
    return bit_positions(res_mask) == edge.endpoints


def random_packing(g: ConflictGraph, rng: random.Random) -> frozenset[int]:
    """A random maximal independent set in the conflict graph."""
    order = list(range(g.n))
    rng.shuffle(order)
    chosen_mask = 0
    chosen = []
    for v in order:
        if not g.adj_mask(v) & chosen_mask:
            chosen.append(v)
            chosen_mask |= 1 << v
    return frozenset(chosen)


# -- gadget states with a known small improving binocular ---------------------

def binocular_gadget(kind: str, rng: random.Random) -> tuple[Instance, frozenset[int]]:
    """An (instance, solution) pair whose search graph contains an improving
    minimal binocular of at most four edges.

    ``double_loop``: one solution 3-set with two disjoint outside 3-sets each
    meeting it in one element (two loops at one vertex).  ``theta``: two
    solution 3-sets and three disjoint outside 3-sets each meeting both
    (three parallel edges).  ``dumbbell``: a loop at each of two solution
    3-sets plus one outside set meeting both (loop-edge-loop).
    """
    fresh = iter(range(100, 1000))

    def pad(k: int) -> list[int]:
        return [next(fresh) for _ in range(k)]

    if kind == "double_loop":
        a0 = (0, 1, 2)
        raw = [a0, tuple([0] + pad(2)), tuple([1] + pad(2))]
        if rng.random() < 0.5:
            raw.append(tuple([2] + pad(2)))  # optional third loop
        solution = {0}
    elif kind == "theta":
        a0, a1 = (0, 1, 2), (3, 4, 5)
        raw = [a0, a1]
        picks = rng.sample([0, 1, 2], 3), rng.sample([3, 4, 5], 3)
        for i in range(3):
            raw.append((picks[0][i], picks[1][i], pad(1)[0]))
        solution = {0, 1}
    elif kind == "dumbbell":
        a0, a1 = (0, 1, 2), (3, 4, 5)
        raw = [a0, a1,
               tuple([0] + pad(2)), tuple([3] + pad(2)),
               (1, 4, pad(1)[0])]
        solution = {0, 1}
    else:
        raise ValueError(kind)
    if rng.random() < 0.4:
        raw.append(tuple(pad(2)))  # disjoint distractor 2-set
    # Random relabeling of the universe; structure is untouched.
    tokens = sorted({e for s in raw for e in s})
    relabel = dict(zip(tokens, rng.sample(range(len(tokens)), len(tokens))))
    instance = instance_from_sets([tuple(relabel[e] for e in s) for s in raw])
    return instance, frozenset(solution)


# -- analysis tuples -----------------------------------------------------------

def tuple_from_instance(instance: Instance, a: frozenset[int], b: frozenset[int]) -> AnalysisTuple:
    g = build_conflict_graph(instance)
    edges = [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]
    return analysis_tuple({v: g.weights[v] for v in range(g.n)}, edges, a, b)


def random_nice_tuple(rng: random.Random) -> AnalysisTuple:
    """A random nice tuple: either solver-vs-oracle sets on a random instance
    or a crafted chain of 2-sets with 3-set stubs (deep path components)."""
    from setpack23.local_search import SearchParams, solve
    from setpack23.oracle import solve_exact

    if rng.random() < 0.55:
        n = rng.randrange(7, 13)
        m = rng.randrange(5, 14)
        instance = generate_random(n, m, p3=rng.choice([0.3, 0.5, 0.8]), seed=rng.randrange(1 << 30))
        packing, _ = solve(instance, SearchParams(tau=rng.choice([1, 2, 3]), mode="general",
                                                  seed=rng.randrange(1 << 30)))
        opt = solve_exact(instance)
        return tuple_from_instance(instance, packing.members, opt.witness.members)

    # Chain gadget: 2-sets {i, i+1} form a conflict path; alternate them
    # between the two sides and optionally cap the ends with 3-set stubs.
    length = rng.randrange(2, 9)
    raw: list[tuple[int, ...]] = [(i, i + 1) for i in range(length)]
    parity = rng.randrange(2)
    side_a = {i for i in range(length) if i % 2 == parity}
    fresh = iter(range(50, 200))
    a_ids = set(side_a)
    b_ids = set(range(length)) - side_a
    for end_elem, attach_to_a in ((0, 0 in b_ids), (length, (length - 1) in b_ids)):
        if rng.random() < 0.6:
            stub = (end_elem, next(fresh), next(fresh))
            raw.append(stub)
            (a_ids if attach_to_a else b_ids).add(len(raw) - 1)
    if rng.random() < 0.5:
        lone = (next(fresh), next(fresh), next(fresh))
        raw.append(lone)
        (a_ids if rng.random() < 0.5 else b_ids).add(len(raw) - 1)
    instance = instance_from_sets(raw)
    return tuple_from_instance(instance, frozenset(a_ids), frozenset(b_ids))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
