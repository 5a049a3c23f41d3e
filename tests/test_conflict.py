import random

from hypothesis import given, settings, strategies as st

from setpack23.cli import hereditary_instance, threedm_instance
from setpack23.conflict import ConflictGraph, build_conflict_graph, find_claw_violations
from setpack23.instance import Instance, generate_random, parse_instance
from conftest import chain_instance


def claw_report(g: ConflictGraph):
    """Every forbidden induced claw of g, found by enumeration; empty when clean."""
    return find_claw_violations(dict(enumerate(g.weights)), dict(enumerate(g.adj)))


def test_disjoint_sets_no_edges():
    g = build_conflict_graph(parse_instance("1 2\n3 4 5\n"))
    assert all(len(nbrs) == 0 for nbrs in g.adj)


def test_intersecting_sets_one_edge():
    g = build_conflict_graph(parse_instance("1 2 3\n3 4\n"))
    assert g.adj == ((1,), (0,))


def test_chain_is_a_path():
    g = build_conflict_graph(chain_instance())
    assert g.adj == ((1,), (0, 2), (1, 3), (2,))
    assert g.weights == (2, 1, 2, 1)


def _drawn_instance(kind: str, rng: random.Random, seed: int) -> Instance:
    if kind == "random":
        return generate_random(rng.randrange(6, 14), rng.randrange(1, 16), rng.random(), seed)
    if kind == "hereditary":
        return hereditary_instance(rng.randrange(6, 14), rng.randrange(1, 10), seed)
    return threedm_instance(rng.randrange(1, 14), seed)


@given(st.integers(0, 2 ** 31), st.sampled_from(["random", "hereditary", "threedm"]))
@settings(max_examples=60, deadline=None)
def test_masks_match_the_intersection_definition(seed, kind):
    inst = _drawn_instance(kind, random.Random(seed), seed)
    g = build_conflict_graph(inst)
    elems = {s.id: set(s.elements) for s in inst.sets}
    for u in range(g.n):
        for v in range(g.n):
            assert bool(g.adj_mask(u) >> v & 1) == (u != v and bool(elems[u] & elems[v]))
        assert g.adj[u] == tuple(v for v in range(g.n) if g.adj_mask(u) >> v & 1)
    assert g.members == tuple(sum(1 << e for e in elems[v]) for v in range(g.n))
    assert g.weight_mask((1 << g.n) - 1) == sum(s.weight for s in inst.sets)


def test_neighborhood_identities():
    g = build_conflict_graph(chain_instance())
    assert g.neighborhood_mask(0, g.mask([0, 1, 2, 3])) == 0
    assert g.neighborhood_mask(g.mask([0, 2]), g.mask([0, 2])) == g.mask([0, 2])
    assert g.neighborhood_mask(g.mask([1]), g.mask([0, 2, 3])) == g.mask([0, 2])


@given(st.integers(0, 2 ** 31), st.integers(6, 12), st.integers(3, 14))
@settings(max_examples=50, deadline=None)
def test_neighborhood_contained_in_w(seed, n, m):
    rng = random.Random(seed)
    g = build_conflict_graph(generate_random(n, min(m, n), 0.5, seed))
    verts = list(range(g.n))
    u = frozenset(rng.sample(verts, rng.randrange(len(verts) + 1)))
    w = frozenset(rng.sample(verts, rng.randrange(len(verts) + 1)))
    assert not g.neighborhood_mask(g.mask(u), g.mask(w)) & ~g.mask(w)
    expected = {x for x in w if x in u or any(y in u for y in g.adj[x])}
    assert g.neighborhood_mask(g.mask(u), g.mask(w)) == g.mask(expected)


@given(st.integers(0, 2 ** 31))
@settings(max_examples=60, deadline=None)
def test_instance_graphs_have_no_forbidden_claws(seed):
    rng = random.Random(seed)
    n = rng.randrange(6, 14)
    inst = generate_random(n, rng.randrange(4, 2 * n), rng.random(), seed)
    g = build_conflict_graph(inst)
    assert claw_report(g) == []


@given(st.integers(0, 2 ** 31))
@settings(max_examples=40, deadline=None)
def test_solution_degree_bound(seed):
    # weight-1 vertices meet at most 2 members of an independent set, weight-2 at most 3
    rng = random.Random(seed)
    n = rng.randrange(6, 14)
    inst = generate_random(n, rng.randrange(4, 2 * n), rng.random(), seed)
    g = build_conflict_graph(inst)
    a_mask = 0
    for v in range(g.n):
        if not g.adj_mask(v) & a_mask:
            a_mask |= 1 << v
    for v in range(g.n):
        touched = g.neighborhood_mask(1 << v, a_mask)
        assert (touched & ~(1 << v)).bit_count() <= g.weights[v] + 1


def star(weights: list[int]):
    """Weight and adjacency mappings of a star centered at vertex 0."""
    leaves = range(1, len(weights))
    return dict(enumerate(weights)), {0: list(leaves), **{v: [0] for v in leaves}}


def test_hand_built_star_violations():
    # weight-1 center with three pairwise non-adjacent talons
    report = find_claw_violations(*star([1, 1, 1, 1]))
    assert len(report) == 1 and report[0].kind == "3-claw at weight-1 vertex"

    report = find_claw_violations(*star([2, 1, 1, 1, 1]))
    assert any(v.kind == "4-claw" for v in report)

    # weight-2 center tolerates a 3-claw
    assert find_claw_violations(*star([2, 1, 1, 1])) == []
