import functools
import hashlib
import math
import random
from itertools import chain, combinations
from operator import or_
from unittest import mock

import pytest

import setpack23.color_coding as cc
from setpack23.color_coding import (COLORING_REPS, ColorfulSearchGraph, _mask_colors,
                                    colorful_subgraph, default_color_count,
                                    find_colorful_binocular, make_colorings,
                                    search_improving_binocular, walk_states)
from setpack23.conflict import ConflictGraph, bit_positions, build_conflict_graph
from setpack23.local_search import SearchParams, is_local_improvement
from setpack23.search_graph import (LabeledBinocular, enumerate_search_edges,
                                    extract_improvement, is_improving_binocular)
from conftest import (binocular_gadget, edgeless_graph, fresh_sets, graph_from_sets, label_key,
                      search_edge)
from test_binoculars import naive_improving_binocular


def search_walk_cap(sg, g) -> int:
    """The walk length cap that ``search_improving_binocular`` passes on."""
    return min(math.ceil(sg.tau * math.log2(max(2, g.n))), len(sg.vertices) + 1)


def random_colorings(universe_n: int, t: int, reps: int, seed: int) -> list[tuple[int, ...]]:
    """``reps`` seeded uniform colorings with t colors, whatever the universe
    size: what ``make_colorings`` returns when t is short of the universe."""
    rng = random.Random(seed)
    return [tuple(rng.randrange(t) for _ in range(universe_n)) for _ in range(reps)]


def random_coloring_search(sg, g, a, seed: int = 0):
    """The seeded random-coloring search (``COLORING_REPS`` colorings),
    whatever the universe size.

    ``search_improving_binocular`` runs it only when the universe exceeds
    the color budget; the statistical completeness tests call it directly.
    """
    t = default_color_count(sg.tau, g.n)
    cap = search_walk_cap(sg, g)
    for f in random_colorings(g.universe_size, t, COLORING_REPS, seed):
        hit = find_colorful_binocular(colorful_subgraph(sg, f, g), g, cap)
        if hit is not None:
            assert is_improving_binocular(hit, g)
            return hit
    return None


# -- synthetic colorful search graphs -----------------------------------------

def random_csg(rng: random.Random, max_vertices: int = 8, max_edges: int = 14,
               max_len_colors: int = 12, loop_rate: float = 0.2) -> ColorfulSearchGraph:
    k = rng.randrange(2, max_vertices + 1)
    t = rng.randrange(4, max_len_colors + 1)
    w_pool = list(range(100, 100 + rng.randrange(3, 9)))
    u_pool = list(range(200, 206))
    vertex_colors = {}
    for w in w_pool:
        mask = 0
        for _ in range(rng.randrange(1, 4)):
            mask |= 1 << rng.randrange(t)
        vertex_colors[w] = mask
    edges, colors = [], []
    for _ in range(rng.randrange(1, max_edges + 1)):
        if rng.random() < loop_rate:
            ends = (rng.randrange(k),)
        else:
            a, b = rng.randrange(k), rng.randrange(k)
            if a == b:
                b = (a + 1) % k
            ends = tuple(sorted((a, b)))
        w_label = tuple(sorted(rng.sample(w_pool, rng.randrange(1, 3))))
        acc = 0
        ok = True
        for w in w_label:
            if acc & vertex_colors[w]:
                ok = False
                break
            acc |= vertex_colors[w]
        if not ok:
            continue  # mimic the colorful filter
        u_label = tuple(sorted(rng.sample(u_pool, rng.randrange(0, 3))))
        edges.append(search_edge(ends, u_label, w_label))
        colors.append(acc)
    return ColorfulSearchGraph(tuple(range(k)), tuple(edges), tuple(colors), vertex_colors)


def brute_force_walk_keys(csg: ColorfulSearchGraph, start: int,
                          ctx_u: frozenset, ctx_w: frozenset, max_len: int) -> dict:
    """Every (end, colors, X, Y) that a walk of at most ``max_len`` edges
    reaches, by explicit walk enumeration, mapped to its shortest such walk's
    length."""
    keys: dict = {}

    def rec(v, colors, x, y, length):
        key = (v, colors, x, y)
        keys[key] = min(keys.get(key, length), length)
        if length == max_len:
            return
        for i, e in enumerate(csg.edges):
            if e.is_loop or v not in e.endpoints:
                continue
            col = csg.edge_colors[i]
            if col & colors:
                continue
            other = e.endpoints[0] if v == e.endpoints[1] else e.endpoints[1]
            rec(other, colors | col,
                x | (_unmask(e.u_mask) & ctx_u),
                y | (_unmask(e.w_mask) & ctx_w), length + 1)

    rec(start, 0, frozenset(), frozenset(), 0)
    return keys


def _mask(vertices) -> int:
    return sum(1 << v for v in set(vertices))


def _unmask(mask: int) -> frozenset:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def walk_table(csg: ColorfulSearchGraph, start: int, ctx_u, ctx_w, max_len: int) -> dict:
    """The DP's states kept on the context, keyed (end, colors, X, Y).

    ``walk_states`` keeps only the context's label bits, one row per key;
    X and Y come back as frozensets so keys compare with the references
    below.
    """
    table: dict = {}
    for v, rows in walk_states(csg, max_len, _mask(ctx_u), _mask(ctx_w))[start].items():
        for colors, uu, ww, witness in rows:
            assert (v, colors, _unmask(uu), _unmask(ww)) not in table
            table[v, colors, _unmask(uu), _unmask(ww)] = witness
    return table


def replay_walk(csg: ColorfulSearchGraph, start: int, witness, ctx_u, ctx_w):
    """Re-walk a stored witness and return its (end, colors, X, Y)."""
    ctx_u = frozenset(ctx_u)
    ctx_w = frozenset(ctx_w)
    v = start
    colors = 0
    x: frozenset = frozenset()
    y: frozenset = frozenset()
    for ei in witness:
        e = csg.edges[ei]
        if e.is_loop or v not in e.endpoints:
            raise ValueError("witness is not a walk from the start vertex")
        col = csg.edge_colors[ei]
        if col & colors:
            raise ValueError("witness is not colorful")
        colors |= col
        x |= _unmask(e.u_mask) & ctx_u
        y |= _unmask(e.w_mask) & ctx_w
        v = e.endpoints[0] if v == e.endpoints[1] else e.endpoints[1]
    return v, colors, x, y


def reference_walk_states(csg: ColorfulSearchGraph, max_len: int) -> dict:
    """The walk DP as an incident-list scan: each state tries every non-loop
    edge at its end vertex, in edge order, and skips the edges whose colors
    meet its own.  ``walk_states`` must return the same tables, row for row,
    and exceed the budget at the same state."""
    import setpack23.color_coding as cc
    incident = {v: [] for v in csg.vertices}
    for i, e in enumerate(csg.edges):
        if e.is_loop:
            continue
        a, b = e.endpoints
        step = (csg.edge_colors[i], e.u_mask, e.w_mask, i)
        incident[a].append((b,) + step)
        incident[b].append((a,) + step)
    tables = {}
    for start in csg.vertices:
        states = {(start, 0, 0, 0)}
        by_end = tables[start] = {start: [(0, 0, 0, ())]}
        frontier = [((start, 0, 0, 0), ())]
        for _ in range(max_len):
            nxt = []
            for (v, colors, uu, ww), witness in frontier:
                for other, col, u_m, w_m, ei in incident[v]:
                    if col & colors:
                        continue
                    key = (other, colors | col, uu | u_m, ww | w_m)
                    if key in states:
                        continue
                    states.add(key)
                    wit = witness + (ei,)
                    by_end.setdefault(other, []).append(key[1:] + (wit,))
                    nxt.append((key, wit))
                    if len(states) > cc.WALK_STATE_BUDGET:
                        raise cc.WalkBudgetExceeded("reference walk table over budget")
            frontier = nxt
            if not frontier:
                break
    return tables


def keep_masks(csg: ColorfulSearchGraph) -> tuple[int, int]:
    """The label bits the loop stage reads: the loops' U-vertices, and the
    vertices whose colors meet the colors of a loop W-vertex."""
    loops = [e for e in csg.edges if e.is_loop]
    loop_colors = functools.reduce(
        or_, (csg.vertex_colors[w] for e in loops for w in bit_positions(e.w_mask)), 0)
    return (functools.reduce(or_, (e.u_mask for e in loops), 0),
            sum(1 << v for v, c in csg.vertex_colors.items() if c & loop_colors))


def cut_tables(tables: dict, u_keep: int, w_keep: int) -> dict:
    """Full walk tables cut to the first row per (end, colors, U & u_keep,
    W & w_keep) of each start, with the masks cut to the keep masks."""
    out: dict = {}
    for start, by_end in tables.items():
        out[start] = {}
        for end, rows in by_end.items():
            first: dict = {}
            for colors, uu, ww, witness in rows:
                first.setdefault((colors, uu & u_keep, ww & w_keep), witness)
            out[start][end] = [key + (witness,) for key, witness in first.items()]
    return out


def project_walks(rows: list, ctx_u_mask: int, ctx_w_mask: int) -> dict:
    """Project one end vertex's walk rows onto a loop context.

    ``rows`` are (colors, U-mask, W-mask, witness) in table order.  Returns
    (colors, X, Y) -> witness, with X and Y the masks restricted to the
    context; the first row of each projected key represents it, as a first
    hit never needs a later row of the same key.
    """
    out: dict = {}
    for colors, uu, ww, witness in rows:
        out.setdefault((colors, uu & ctx_u_mask, ww & ctx_w_mask), witness)
    return out


def reference_loop_stage(csg: ColorfulSearchGraph, g: ConflictGraph,
                         walk_cap: int):
    """The loop stage of ``find_colorful_binocular`` without the color-clash
    skip or the weight-only test: its first hit, or None (loop-free shapes
    aside).

    Every choice of one or two loops projects the (start, end) lists its
    shape reads onto the loops' labels, dropping the rows that meet a loop
    W-vertex they leave uncovered, and tests each projected (X, Y) with the
    full conditions: the standing loop W-vertices are pairwise
    color-disjoint and outweigh the standing U-vertices by two per loop.
    """
    ends = walk_states(csg, walk_cap, -1, -1)
    loops = [i for i, e in enumerate(csg.edges) if e.is_loop]

    def walks(u, v, ctx_u, ctx_w):
        rows = [(colors, uu, ww, wit) for colors, uu, ww, wit in ends[u].get(v, [])
                if not any(csg.vertex_colors[w] & colors for w in bit_positions(ctx_w & ~ww))]
        return project_walks(rows, ctx_u, ctx_w)

    def assemble(loop_ids, witness):
        return LabeledBinocular(tuple(csg.edges[i] for i in sorted(set(loop_ids) | set(witness))))

    for L in chain(combinations(loops, 1), combinations(loops, 2)):
        ctx_u = ctx_w = 0
        for i in L:
            ctx_u |= csg.edges[i].u_mask
            ctx_w |= csg.edges[i].w_mask

        def conditions(x: int, y: int) -> bool:
            remaining = ctx_w & ~y
            if _mask_colors(remaining, csg.vertex_colors) < 0:
                return False
            return g.weight_mask(remaining) >= g.weight_mask(ctx_u & ~x) + 2 * len(L)

        p = csg.edges[L[0]].endpoints[0]
        if len(L) == 2:
            q = csg.edges[L[1]].endpoints[0]
            for (_, x, y), wit in walks(p, q, ctx_u, ctx_w).items():
                if conditions(x, y):
                    return assemble(L, wit)
            continue
        for v in csg.vertices:
            loop_cycles = [(key, wit) for key, wit in walks(v, v, ctx_u, ctx_w).items() if key[0]]
            if not loop_cycles:
                continue
            for (c1, x1, y1), wit1 in walks(p, v, ctx_u, ctx_w).items():
                for (c2, x2, y2), wit2 in loop_cycles:
                    if not c1 & c2 and conditions(x1 | x2, y1 | y2):
                        return assemble(L, wit1 + wit2)
    return None


def reference_find(csg: ColorfulSearchGraph, g: ConflictGraph, walk_cap: int):
    """``find_colorful_binocular`` with the reference loop stage.  Loop-free
    shapes come first, and the graph without its loops finds exactly those,
    as loops never enter the walk DP."""
    keep = [i for i, e in enumerate(csg.edges) if not e.is_loop]
    loop_free = ColorfulSearchGraph(csg.vertices, tuple(csg.edges[i] for i in keep),
                                    tuple(csg.edge_colors[i] for i in keep), csg.vertex_colors)
    hit = find_colorful_binocular(loop_free, g, walk_cap)
    return hit if hit is not None else reference_loop_stage(csg, g, walk_cap)


@functools.cache
def seeded_searches() -> tuple:
    """(search graph, conflict graph) of every binocular search that ``solve``
    runs on ``generate_random(12, 16, 0.6, seed=s)``, s = 0..399, at tau 2
    and 3, in order.  All of them run the injective coloring."""
    from setpack23.instance import generate_random
    from setpack23.local_search import solve
    real, seen = cc.search_improving_binocular, []

    def spy(sg, g, params, seed=0):
        seen.append((sg, g))
        return real(sg, g, params, seed)
    with mock.patch.object(cc, "search_improving_binocular", spy):
        for s in range(400):
            for tau in (2, 3):
                solve(generate_random(12, 16, 0.6, seed=s), SearchParams(tau=tau))
    return tuple(seen)


def injective_csg(sg, g) -> ColorfulSearchGraph:
    assert default_color_count(sg.tau, g.n) >= g.universe_size
    return colorful_subgraph(sg, tuple(range(g.universe_size)), g)


class TestColorings:
    def test_deterministic(self):
        assert make_colorings(8, 5, seed=42) == make_colorings(8, 5, seed=42)
        assert make_colorings(8, 5, seed=42) != make_colorings(8, 5, seed=43)

    def test_injective_is_identity(self):
        assert make_colorings(6, 6, seed=0) == [tuple(range(6))]
        assert make_colorings(6, 9, seed=0) == [tuple(range(6))]
        assert make_colorings(6, 5, seed=0) == random_colorings(6, 5, COLORING_REPS, 0)
        with pytest.raises(ValueError):
            make_colorings(6, 0, 0)

    def test_default_color_count(self):
        assert default_color_count(2, 8) == math.ceil(3 * 4 * 3)
        assert default_color_count(1, 1) >= 1

    def test_repetition_budget_for_injectivity(self):
        # worst case: 6 colors on a 6-element target; a uniform coloring is
        # injective with probability 6!/6**6, so 300 repetitions push the
        # all-miss probability under 1%.
        p = math.factorial(6) / 6 ** 6
        assert abs(p - 0.015432098765432098) < 1e-15
        reps_needed = math.ceil(math.log(0.01) / math.log(1 - p))
        assert reps_needed == 297


class TestColorfulSubgraph:
    def setup_method(self):
        # two solution anchors plus two outside sets meeting both
        self.inst_sets = "0 1 2\n3 4 5\n0 3 6\n1 4 7\n"
        self.solution = {0, 1}

    def test_injective_keeps_disjoint_w_edges(self):
        from setpack23.instance import parse_instance
        g = build_conflict_graph(parse_instance(self.inst_sets))
        sg = enumerate_search_edges(g, g.mask(self.solution), tau=2)
        f = make_colorings(g.universe_size, g.universe_size, 0)[0]
        csg = colorful_subgraph(sg, f, g)
        assert set(csg.edges) == set(sg.edges)

    def test_shared_color_drops_multi_vertex_edges(self):
        from setpack23.instance import parse_instance
        g = build_conflict_graph(parse_instance(self.inst_sets))
        sg = enumerate_search_edges(g, g.mask(self.solution), tau=2)
        assert any(e.w_mask.bit_count() == 2 for e in sg.edges)
        f = (0,) * g.universe_size
        csg = colorful_subgraph(sg, f, g)
        # single-W edges are vacuously colorful and always survive
        assert set(csg.edges) == {e for e in sg.edges if e.w_mask.bit_count() == 1}


class TestWalkTable:
    def test_base_case(self, rng):
        csg = random_csg(rng)
        table = walk_table(csg, 0, (), (), max_len=3)
        assert table[0, 0, frozenset(), frozenset()] == ()
        # every edge carries colors, so only the empty walk has none
        assert not any(k[1] == 0 and k[0] != 0 for k in table)

    def test_single_edge_step(self):
        e = search_edge((0, 1), (200,), (100,))
        csg = ColorfulSearchGraph((0, 1), (e,), (0b11,), {100: 0b11})
        table = walk_table(csg, 0, (200,), (100,), max_len=2)
        assert table[1, 0b11, frozenset({200}), frozenset({100})] == (0,)

    def test_identical_parallel_colors_block_closing(self):
        edges = (search_edge((0, 1), (), (100,)), search_edge((0, 1), (), (101,)))
        csg = ColorfulSearchGraph((0, 1), edges, (0b1, 0b1), {100: 0b1, 101: 0b1})
        table = walk_table(csg, 0, (), (), max_len=4)
        assert not any(k[0] == 0 and k[1] for k in table)

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            csg = random_csg(rng)
            start = rng.choice(csg.vertices)
            ctx_u = frozenset(rng.sample(range(200, 206), rng.randrange(3)))
            ctx_w = frozenset(rng.sample(range(100, 106), rng.randrange(3)))
            table = walk_table(csg, start, ctx_u, ctx_w, max_len=5)
            shortest = {key: len(witness) for key, witness in table.items()}
            assert shortest == brute_force_walk_keys(csg, start, ctx_u, ctx_w, 5)

    def test_witness_replay(self, rng):
        for _ in range(15):
            csg = random_csg(rng)
            start = rng.choice(csg.vertices)
            ctx_u = frozenset(rng.sample(range(200, 206), 2))
            ctx_w = frozenset(rng.sample(range(100, 105), 2))
            table = walk_table(csg, start, ctx_u, ctx_w, max_len=5)
            for key, witness in table.items():
                assert replay_walk(csg, start, witness, ctx_u, ctx_w) == key

    def test_one_row_per_state_holding_its_shortest_walk(self, rng):
        # End 2 is reached from 0 by edge 2 alone, or through 1 by edges 0
        # and 1, with the same colors and W-vertices: one state, one row.
        edges = (search_edge((0, 1), (), (100,)), search_edge((1, 2), (), (101,)),
                 search_edge((0, 2), (), (100, 101)))
        csg = ColorfulSearchGraph((0, 1, 2), edges, (0b01, 0b10, 0b11), {100: 0b01, 101: 0b10})
        assert walk_states(csg, 3, -1, -1)[0][2] == [(0b11, 0, _mask((100, 101)), (2,))]
        for _ in range(25):
            csg = random_csg(rng)
            for by_end in walk_states(csg, 5, -1, -1).values():
                for rows in by_end.values():
                    assert len({row[:3] for row in rows}) == len(rows)

    def test_budget_counts_per_start_vertex(self, monkeypatch):
        # A 4-cycle of distinct colors: each start reaches the same number of
        # states, so a budget of one table's size holds every table, although
        # together they hold four times as many states.
        import setpack23.color_coding as cc
        edges = tuple(search_edge((a, b), (), (100 + a,))
                      for a, b in ((0, 1), (1, 2), (2, 3), (0, 3)))
        csg = ColorfulSearchGraph((0, 1, 2, 3), edges, (1, 2, 4, 8),
                                  {100 + a: 1 << a for a in range(4)})
        sizes = [sum(map(len, by_end.values())) for by_end in walk_states(csg, 4, -1, -1).values()]
        assert len(set(sizes)) == 1 and sizes[0] > 1
        monkeypatch.setattr(cc, "WALK_STATE_BUDGET", sizes[0])
        assert sum(map(len, walk_states(csg, 4, -1, -1)[0].values())) == sizes[0]
        monkeypatch.setattr(cc, "WALK_STATE_BUDGET", sizes[0] - 1)
        with pytest.raises(cc.WalkBudgetExceeded):
            walk_states(csg, 4, -1, -1)


class TestProjectWalks:
    def test_rows_alike_in_context_collapse(self):
        # (colors, U-mask, W-mask, witness) rows of one end vertex; the first
        # two differ only in U-vertex 0b100, outside every context below
        rows = [(0b01, 0b110, 0b01, (0, 1)), (0b01, 0b010, 0b01, (2, 3, 4)),
                (0b10, 0b100, 0b10, (5,))]
        assert project_walks(rows, 0b010, 0b11) == {
            (0b01, 0b010, 0b01): (0, 1), (0b10, 0b000, 0b10): (5,)}
        assert project_walks(rows, 0b010, 0b10) == {
            (0b01, 0b010, 0b00): (0, 1), (0b10, 0b000, 0b10): (5,)}
        assert project_walks(rows, 0, 0) == {(0b01, 0, 0): (0, 1), (0b10, 0, 0): (5,)}


class TestClashIndexedWalkStates:
    """``walk_states`` against the incident-list scan it replaces."""

    @staticmethod
    def graphs():
        """Seeded colorful graphs: synthetic ones with random vertex colors,
        and search graphs of random instances under the injective coloring
        and under random colorings with few colors, so that edges share
        colors and most edges hold several color bits."""
        from setpack23.instance import generate_random
        from conftest import random_packing
        rng = random.Random(31_337)
        for _ in range(60):
            yield random_csg(rng, max_vertices=6, max_edges=24), rng.randrange(1, 6)
        for trial in range(40):
            inst = generate_random(rng.randrange(10, 17), rng.randrange(10, 21),
                                   rng.choice((0.4, 0.7, 1.0)), seed=5_000 + trial)
            g = build_conflict_graph(inst)
            sg = enumerate_search_edges(g, g.mask(random_packing(g, rng)), rng.choice((2, 3)))
            if not sg.edges:
                continue
            colorings = make_colorings(g.universe_size, g.universe_size, 0)
            colorings += random_colorings(g.universe_size, rng.choice((3, 5, 8)), 2, trial)
            for f in colorings:
                yield colorful_subgraph(sg, f, g), rng.randrange(2, 6)

    def test_tables_equal_the_scan(self):
        shared = multi_bit = 0
        for csg, max_len in self.graphs():
            assert walk_states(csg, max_len, -1, -1) == reference_walk_states(csg, max_len)
            cols = [c for c, e in zip(csg.edge_colors, csg.edges) if not e.is_loop]
            shared += any(a & b for a, b in combinations(cols, 2))
            multi_bit += any(c.bit_count() > 1 for c in cols)
        assert shared >= 60 and multi_bit >= 80

    def test_budget_trips_at_the_same_state(self, monkeypatch):
        import setpack23.color_coding as cc

        def outcome(dp, csg, max_len):
            try:
                return dp(csg, max_len)
            except cc.WalkBudgetExceeded:
                return "over budget"

        full, tripped = cc.WALK_STATE_BUDGET, 0
        for n, (csg, max_len) in enumerate(self.graphs()):
            if n % 4:
                continue
            monkeypatch.setattr(cc, "WALK_STATE_BUDGET", full)
            sizes = [sum(map(len, by_end.values()))
                     for by_end in reference_walk_states(csg, max_len).values()]
            for budget in {max(sizes), max(sizes) - 1, sizes[0] // 2, 1}:
                monkeypatch.setattr(cc, "WALK_STATE_BUDGET", budget)
                expected = outcome(reference_walk_states, csg, max_len)
                assert outcome(lambda c, n: walk_states(c, n, -1, -1), csg, max_len) == expected
                tripped += expected == "over budget"
        assert tripped >= 20


class TestProjectedWalkStates:
    """``walk_states`` kept on the loop stage's label bits against the full
    table cut to its first row per kept key."""

    @staticmethod
    def graphs():
        """The graphs above, then every fourth seeded search graph under
        the injective coloring and under a random coloring of 3 to 8 colors."""
        yield from TestClashIndexedWalkStates.graphs()
        rng = random.Random(8_128)
        for sg, g in seeded_searches()[::4]:
            cap = search_walk_cap(sg, g)
            yield injective_csg(sg, g), cap
            t = rng.randrange(3, 9)
            yield colorful_subgraph(sg, tuple(rng.randrange(t) for _ in range(g.universe_size)), g), cap

    def test_tables_are_the_full_tables_cut(self):
        cut = no_loops = 0
        for csg, max_len in self.graphs():
            u_keep, w_keep = keep_masks(csg)
            full = reference_walk_states(csg, max_len)
            kept = walk_states(csg, max_len, u_keep, w_keep)
            assert kept == cut_tables(full, u_keep, w_keep)
            rows = [sum(len(r) for by_end in t.values() for r in by_end.values())
                    for t in (full, kept)]
            cut += rows[1] < rows[0]
            no_loops += not u_keep | w_keep
        assert cut >= 150 and no_loops >= 150

    def test_budget_trips_at_the_same_point(self, monkeypatch):
        # The kept table of a start exceeds the budget exactly when the cut
        # full table does: the DP keeps its states in the cut table's order.
        full, tripped = cc.WALK_STATE_BUDGET, 0
        for n, (csg, max_len) in enumerate(self.graphs()):
            if n % 4:
                continue
            monkeypatch.setattr(cc, "WALK_STATE_BUDGET", full)
            u_keep, w_keep = keep_masks(csg)
            sizes = [sum(map(len, by_end.values())) for by_end
                     in cut_tables(reference_walk_states(csg, max_len), u_keep, w_keep).values()]
            for budget in {max(sizes), max(sizes) - 1, sizes[0] // 2, 1} - {0}:
                monkeypatch.setattr(cc, "WALK_STATE_BUDGET", budget)
                if max(sizes) > budget:
                    with pytest.raises(cc.WalkBudgetExceeded):
                        walk_states(csg, max_len, u_keep, w_keep)
                    tripped += 1
                else:
                    walk_states(csg, max_len, u_keep, w_keep)
        assert tripped >= 300

    def test_the_search_keeps_what_the_loop_stage_reads(self):
        seen = []
        real = cc.walk_states

        def spy(csg, max_len, u_keep, w_keep):
            seen.append((u_keep, w_keep))
            return real(csg, max_len, u_keep, w_keep)
        with_loops = 0
        for csg, max_len in self.graphs():
            with mock.patch.object(cc, "walk_states", spy):
                find_colorful_binocular(csg, edgeless_graph([2] * 206), max_len)
            assert seen.pop() == keep_masks(csg)
            with_loops += any(e.is_loop for e in csg.edges)
        assert with_loops >= 300


class TestFindColorful:
    def test_no_binocular_means_none(self):
        # a single non-loop edge cannot close anything
        e = search_edge((0, 1), (), (100,))
        csg = ColorfulSearchGraph((0, 1), (e,), (0b1,), {100: 0b1})
        g = edgeless_graph([2, 2])
        assert find_colorful_binocular(csg, g, walk_cap=4) is None

    def test_double_loop_found_through_the_two_loop_case(self):
        from setpack23.instance import parse_instance
        g = build_conflict_graph(parse_instance("0 1 2\n0 3 4\n1 5 6\n"))
        sg = enumerate_search_edges(g, g.mask({0}), tau=2)
        f = make_colorings(g.universe_size, g.universe_size, 0)[0]
        csg = colorful_subgraph(sg, f, g)
        b = find_colorful_binocular(csg, g, walk_cap=4)
        assert b is not None and len(b.edges) == 2 and all(e.is_loop for e in b.edges)

    def test_theta_found_through_the_three_walk_case(self):
        inst_text = "0 1 2\n3 4 5\n0 3 6\n1 4 7\n2 5 8\n"
        from setpack23.instance import parse_instance
        g = build_conflict_graph(parse_instance(inst_text))
        sg = enumerate_search_edges(g, g.mask({0, 1}), tau=1)  # tau=1 rules the loops out
        assert all(not e.is_loop for e in sg.edges)
        f = make_colorings(g.universe_size, g.universe_size, 0)[0]
        csg = colorful_subgraph(sg, f, g)
        b = find_colorful_binocular(csg, g, walk_cap=4)
        assert b is not None and len(b.edges) == 3 and not any(e.is_loop for e in b.edges)


    @pytest.mark.parametrize("covered", [False, True])
    def test_walk_meeting_a_standing_loop_vertex_is_dropped(self, covered):
        # One loop at 0 with W-label {100, 103} and one closed walk 0-1-0.
        # The walk's second edge has W-vertex 102, which shares color 0b001
        # with loop vertex 100 (and so conflicts with it), or is 100 itself.
        from setpack23.search_graph import SearchGraph
        second = 100 if covered else 102
        edges = (search_edge((0,), (), (100, 103)), search_edge((0, 1), (), (101,)),
                 search_edge((0, 1), (), (second,)))
        colors = {100: 0b001, 101: 0b010, 102: 0b001, 103: 0b100}
        csg = ColorfulSearchGraph((0, 1), edges, (0b101, 0b010, 0b001), colors)
        raw = fresh_sets([2, 2] + [1] * 101 + [2])
        if not covered:
            raw[102] = (raw[100][0], raw[102][1])  # 100 and 102 meet
        g = graph_from_sets(raw)
        ctx_w = _mask((100, 103))
        rows = walk_states(csg, 4, -1, -1)[0][0]
        # Per row, the loop W-vertices its colors meet but its W-label misses.
        stops = [sum(1 << v for v in (100, 103) if colors[v] & c and not ww >> v & 1)
                 for c, _, ww, _ in rows]
        closed_walks = {k: w for k, w in project_walks(rows, 0, ctx_w).items() if k[0]}
        unstopped = [row for row, stop in zip(rows, stops) if not stop]
        kept = {k: w for k, w in project_walks(unstopped, 0, ctx_w).items() if k[0]}
        assert len(closed_walks) == 1 and kept == (closed_walks if covered else {})
        b = find_colorful_binocular(csg, g, walk_cap=4)
        naive = naive_improving_binocular(SearchGraph((0, 1), edges, tau=2), g, max_size=3)
        assert b == naive
        assert (b is not None) == covered
        if covered:
            assert b.edges == edges and is_improving_binocular(b, g)

    def test_assembly_is_pinned_on_random_graphs(self):
        # SHA-256 of every result (None included) on seeded synthetic colorful
        # search graphs, recorded before the assembly read end-grouped tables
        # and dropped loop-blocked walks: every first hit must stay the same.
        import hashlib
        digest, hits = hashlib.sha256(), 0
        for i in range(3000):
            rng = random.Random(70_000 + i)
            csg = random_csg(rng)
            g = edgeless_graph([rng.choice((1, 2)) for _ in range(206)])
            b = find_colorful_binocular(csg, g, walk_cap=1 + i % 5)
            hits += b is not None
            found = None if b is None else tuple(
                (e.endpoints, bit_positions(e.u_mask), bit_positions(e.w_mask)) for e in b.edges)
            digest.update(repr(found).encode())
        assert hits == 172
        assert digest.hexdigest() == (
            "ae57db33d11354977c00066ab182b6db866fb536d72a453cb4a5e4305e393623")


class TestLoopChoices:
    """The loop stage against ``reference_loop_stage``."""

    def test_clashing_loop_w_labels_yield_nothing(self):
        # Loops at 0 and 1 with W-labels {100, 102} and {101, 103}, where 100
        # and 101 share color 0b0001.  The one walk 0-1 covers 101 and wins
        # the weight test, but its colors meet 100, which it leaves standing.
        edges = (search_edge((0,), (), (100, 102)), search_edge((1,), (), (101, 103)),
                 search_edge((0, 1), (), (101,)))
        colors = {100: 0b0001, 101: 0b0001, 102: 0b0010, 103: 0b0100}
        csg = ColorfulSearchGraph((0, 1), edges, (0b0011, 0b0101, 0b0001), colors)
        g = edgeless_graph([2] * 104)
        ctx_w = _mask((100, 101, 102, 103))
        assert _mask_colors(ctx_w, colors) < 0
        # w(X) - w(Y) >= w(U_L) + 2|L| - w(W_L)
        assert 0 - g.weight_mask(_mask((101,))) >= 0 + 2 * 2 - g.weight_mask(ctx_w)
        assert find_colorful_binocular(csg, g, walk_cap=3) is None
        assert reference_loop_stage(csg, g, walk_cap=3) is None

    def test_loops_sharing_a_w_vertex_pair_up(self):
        # Two loops at 0 share W-vertex 100 and no other color, so the pair
        # is no clash; with the empty walk it wins the weight test.
        edges = (search_edge((0,), (200,), (100, 101)), search_edge((0,), (200,), (100, 102)))
        colors = {100: 0b001, 101: 0b010, 102: 0b100}
        csg = ColorfulSearchGraph((0,), edges, (0b011, 0b101), colors)
        g = edgeless_graph([2 if 100 <= v <= 102 else 1 for v in range(201)])
        assert _mask_colors(_mask((100, 101, 102)), colors) >= 0
        b = find_colorful_binocular(csg, g, walk_cap=3)
        assert b is not None and b.edges == edges
        assert reference_loop_stage(csg, g, walk_cap=3) == b

    def test_loop_with_a_clashing_w_label_yields_nothing(self):
        # One loop at 0 with W-label {100, 101, 104}, where 100 and 101 share
        # color 0b0001, and one closed walk 0-1-0 covering 100 and 104.  The
        # walk wins the weight test, 0 - w({100, 104}) >= 0 + 2 - w(W_L), and
        # holds no vertex outside W_L, but it leaves 101 standing, whose
        # color it meets.  A loop table that kept this loop would accept it.
        edges = (search_edge((0,), (), (100, 101, 104)), search_edge((0, 1), (), (104,)),
                 search_edge((0, 1), (), (100,)))
        colors = {100: 0b0001, 101: 0b0001, 104: 0b1000}
        csg = ColorfulSearchGraph((0, 1), edges, (0b1001, 0b1000, 0b0001), colors)
        g = edgeless_graph([2] * 105)
        assert _mask_colors(edges[0].w_mask, colors) < 0
        assert 0 - g.weight_mask(_mask((100, 104))) >= 0 + 2 - g.weight_mask(edges[0].w_mask)
        assert walk_states(csg, 3, -1, -1)[0][0][1][2] == _mask((100, 104))
        assert find_colorful_binocular(csg, g, walk_cap=3) is None
        assert reference_loop_stage(csg, g, walk_cap=3) is None

    @staticmethod
    def compare(cases) -> dict:
        """Assert that every (colorful graph, conflict graph, walk cap) case
        gives the reference's result, and count the clash skips, the loop
        pairs by kind and the hits by their number of loops.

        A skip is a choice of one or two loops that the loop stage passes
        over without a scan: one that ``_loop_choices`` does not yield
        before it yields a later choice or runs out.  Choices come in
        ``chain(combinations(loops, 1), combinations(loops, 2))`` order."""
        counts = dict.fromkeys(("skips", "clashing", "apart", "sharing", "one", "two"), 0)
        real = cc._loop_choices
        for csg, g, cap in cases:
            loop_ids = [i for i, e in enumerate(csg.edges) if e.is_loop]
            order = {L: k for k, L in enumerate(
                chain(combinations(loop_ids, 1), combinations(loop_ids, 2)))}

            def spy(*args):
                at = 0
                for choice in real(*args):
                    k = order[choice[0]]
                    assert k >= at
                    counts["skips"] += k - at
                    at = k + 1
                    yield choice
                counts["skips"] += len(order) - at
            for e, f in combinations([csg.edges[i] for i in loop_ids], 2):
                if _mask_colors(e.w_mask | f.w_mask, csg.vertex_colors) < 0:
                    counts["clashing"] += 1
                else:
                    counts["sharing" if e.w_mask & f.w_mask else "apart"] += 1
            with mock.patch.object(cc, "_loop_choices", spy):
                b = find_colorful_binocular(csg, g, cap)
            assert b == reference_find(csg, g, cap)
            if b is not None and any(e.is_loop for e in b.edges):
                counts["one" if sum(e.is_loop for e in b.edges) == 1 else "two"] += 1
        return counts

    def test_matches_reference_on_random_graphs(self):
        # Every other graph has at most three vertices and about half its
        # edges loops, so several loops sit on each vertex.
        def cases():
            for i in range(3200):
                rng = random.Random(90_000 + i)
                csg = (random_csg(rng) if i % 2 else
                       random_csg(rng, max_vertices=3, max_edges=16, loop_rate=0.5))
                yield csg, edgeless_graph([rng.choice((1, 2)) for _ in range(206)]), 1 + i % 5
        counts = self.compare(cases())
        assert counts["skips"] >= 3000 and counts["one"] >= 50 and counts["two"] >= 80
        assert min(counts["clashing"], counts["apart"], counts["sharing"]) >= 3000

    def test_matches_reference_on_seeded_search_graphs(self):
        # The genuine search graphs under the injective coloring and under
        # three random colorings of 3 to 8 colors each.
        def cases():
            rng = random.Random(4_242)
            for sg, g in seeded_searches():
                cap = search_walk_cap(sg, g)
                yield injective_csg(sg, g), g, cap
                for _ in range(3):
                    t = rng.randrange(3, 9)
                    f = tuple(rng.randrange(t) for _ in range(g.universe_size))
                    yield colorful_subgraph(sg, f, g), g, cap
        counts = self.compare(cases())
        assert counts["skips"] >= 10_000 and counts["one"] >= 5 and counts["two"] >= 1
        assert counts["clashing"] >= 10_000 and counts["apart"] >= 300 and counts["sharing"] >= 4000

    def test_seeded_search_results_are_pinned(self):
        # SHA-256 of every find_colorful_binocular result (None included) of
        # the seeded searches, recorded before the loop stage skipped loop
        # pairs whose W-labels clash in color.
        digest, searches, loops_per_hit = hashlib.sha256(), 0, []
        for sg, g in seeded_searches():
            csg = injective_csg(sg, g)
            if not csg.edges:
                continue  # search_improving_binocular stops before the assembly
            b = find_colorful_binocular(csg, g, search_walk_cap(sg, g))
            searches += 1
            digest.update(repr(None if b is None else tuple(map(label_key, b.edges))).encode())
            if b is not None:
                loops_per_hit.append(sum(e.is_loop for e in b.edges))
        assert (searches, sorted(loops_per_hit)) == (806, [1, 1, 1, 1, 1, 2])
        assert digest.hexdigest() == (
            "7b5a9f704d45747ccec02a103b697c230962f39bf512d667bfc182079bdb8c01")

    def test_seeded_random_coloring_results_are_pinned(self):
        # SHA-256 of every find_colorful_binocular result (None included) of
        # the seeded searches under three seeded random colorings of 3 to 8
        # colors each, recorded while the loop stage still read per-row stop
        # masks.  Few colors make walks meet the colors of loop W-vertices
        # they leave uncovered; ``stopped`` counts such rows in the lists
        # that a one-loop choice starts from.  Every result is None, and
        # accepting such rows turns some of them into hits.
        rng, digest = random.Random(2_718), hashlib.sha256()
        searches = stopped = 0
        for sg, g in seeded_searches():
            cap = search_walk_cap(sg, g)
            for _ in range(3):
                t = rng.randrange(3, 9)
                csg = colorful_subgraph(sg, tuple(rng.randrange(t) for _ in range(g.universe_size)), g)
                if not csg.edges:
                    continue
                b = find_colorful_binocular(csg, g, cap)
                searches += 1
                digest.update(repr(None if b is None else tuple(map(label_key, b.edges))).encode())
                ends = walk_states(csg, cap, -1, -1)
                for e in csg.edges:
                    if e.is_loop:
                        stopped += sum(
                            any(csg.vertex_colors[w] & colors for w in bit_positions(e.w_mask & ~ww))
                            for rows in ends[e.endpoints[0]].values() for colors, _, ww, _ in rows)
        assert (searches, stopped) == (2396, 23525)
        assert digest.hexdigest() == (
            "db5d6d504da552d9162ba9b7ee124532092bc62feb17944cd1a93d664a0005d5")


class TestBinocularSearch:
    @pytest.mark.parametrize("kind", ["double_loop", "theta", "dumbbell"])
    def test_injective_mode_finds_gadgets(self, kind):
        inst, a = binocular_gadget(kind, random.Random(13))
        g = build_conflict_graph(inst)
        sg = enumerate_search_edges(g, g.mask(a), tau=2)
        params = SearchParams(tau=2, injective_colorings=True)
        b = search_improving_binocular(sg, g, params, seed=0)
        assert b is not None
        assert is_improving_binocular(b, g)
        assert is_local_improvement(g, a, g.unmask(extract_improvement(b, g, g.mask(a))))

    def test_random_colorings_find_gadget_often(self):
        inst, a = binocular_gadget("double_loop", random.Random(2))
        g = build_conflict_graph(inst)
        sg = enumerate_search_edges(g, g.mask(a), tau=2)
        hits = sum(random_coloring_search(sg, g, a, seed=s) is not None for s in range(20))
        assert hits == 20  # 64 repetitions each; misses would be astronomically rare

    def test_seeded_binocular_solve_is_pinned(self):
        # Golden output of a seeded binocular solve (the budget covers the
        # universe, so one injective coloring): a refactor of the walk DP or
        # the assembly order must keep it.
        from setpack23.instance import generate_random
        from setpack23.local_search import solve
        packing, stats = solve(generate_random(12, 16, 0.6, seed=34), SearchParams(tau=2, seed=1))
        assert sorted(packing.members) == [1, 5, 10, 13]
        assert (stats.iterations, stats.binoculars_applied, stats.final_weight) == (5, 1, 7)

    def test_seeded_random_coloring_solve_is_pinned(self):
        # Golden output of the seeded random-coloring path: at tau=1 the
        # 28-element universe exceeds the 13-color budget.
        from setpack23.instance import generate_random
        from setpack23.local_search import solve
        packing, stats = solve(generate_random(30, 20, 0.8, seed=4), SearchParams(tau=1, seed=1))
        assert sorted(packing.members) == [0, 5, 8, 9, 10, 13, 17, 18]
        assert (stats.iterations, stats.binoculars_applied, stats.final_weight) == (8, 2, 16)

    @pytest.fixture
    def coloring_calls(self, monkeypatch):
        import setpack23.color_coding as cc
        calls = []
        real = cc.make_colorings

        def spy(universe_n, t, seed):
            colorings = real(universe_n, t, seed)
            calls.append((universe_n, t, len(colorings)))
            return colorings
        monkeypatch.setattr(cc, "make_colorings", spy)
        return calls

    def test_injective_coloring_when_budget_covers_universe(self, coloring_calls):
        inst, a = binocular_gadget("theta", random.Random(5))
        g = build_conflict_graph(inst)
        sg = enumerate_search_edges(g, g.mask(a), tau=2)
        assert default_color_count(2, g.n) >= g.universe_size
        hits = {search_improving_binocular(sg, g, SearchParams(tau=2), seed=s)
                for s in range(5)}
        assert len(hits) == 1 and None not in hits  # the seed plays no part
        t = default_color_count(2, g.n)
        assert coloring_calls == [(g.universe_size, t, 1)] * 5

    def test_random_colorings_when_universe_exceeds_budget(self, coloring_calls):
        from setpack23.instance import generate_random
        from conftest import random_packing
        g = build_conflict_graph(generate_random(30, 20, 1.0, seed=4))
        a = random_packing(g, random.Random(4))
        sg = enumerate_search_edges(g, g.mask(a), tau=1)
        t = default_color_count(1, g.n)
        assert sg.edges and g.universe_size > t
        search_improving_binocular(sg, g, SearchParams(tau=1), seed=3)
        assert coloring_calls == [(g.universe_size, t, COLORING_REPS)]
        coloring_calls.clear()
        search_improving_binocular(sg, g, SearchParams(tau=1, injective_colorings=True), 3)
        assert coloring_calls == [(g.universe_size, g.universe_size, 1)]

    def test_auto_random_and_naive_agree_on_existence(self):
        # on search graphs of at most 8 edges the naive oracle tries every
        # minimal binocular; the default search, and seeded random colorings
        # forced even where the budget covers the universe, must agree with it
        from setpack23.instance import generate_random
        from conftest import random_packing
        rng = random.Random(24_680)
        compared = found = randomized = 0
        for trial in range(300):
            inst = generate_random(rng.randrange(6, 11), rng.randrange(4, 10), rng.random(),
                                   seed=12_000 + trial)
            g = build_conflict_graph(inst)
            a = random_packing(g, rng)
            tau = rng.choice([1, 2, 3])
            sg = enumerate_search_edges(g, g.mask(a), tau)
            if not sg.edges or len(sg.edges) > 8:
                continue
            naive = naive_improving_binocular(sg, g, max_size=max(2, len(sg.edges)))
            auto = search_improving_binocular(sg, g, SearchParams(tau=tau), seed=trial)
            forced = random_coloring_search(sg, g, a, seed=trial)
            assert (naive is not None) == (auto is not None) == (forced is not None), trial
            compared += 1
            found += naive is not None
            randomized += g.universe_size > default_color_count(tau, g.n)
        assert compared >= 100 and found >= 20 and randomized >= 5

    def test_empty_search_graph_returns_none(self):
        from setpack23.search_graph import SearchGraph
        g = edgeless_graph([2])
        sg = SearchGraph((0,), (), tau=2)
        assert search_improving_binocular(sg, g, SearchParams(tau=2), 0) is None

    def test_search_agrees_with_naive_absence(self, rng):
        # when the exhaustive oracle finds nothing small, injective search
        # must not fabricate anything improving of that size either
        from setpack23.instance import generate_random
        from conftest import random_packing
        count_checked = 0
        for seed in range(30):
            inst = generate_random(rng.randrange(6, 10), rng.randrange(4, 9),
                                   rng.random(), seed + 900)
            g = build_conflict_graph(inst)
            a = random_packing(g, rng)
            sg = enumerate_search_edges(g, g.mask(a), tau=2)
            if len(sg.edges) > 12:
                continue
            naive = naive_improving_binocular(sg, g, max_size=4)
            found = search_improving_binocular(
                sg, g, SearchParams(tau=2, injective_colorings=True), seed)
            count_checked += 1
            if naive is None and found is not None:
                # anything returned must still be sound, just larger than 4 edges
                assert is_improving_binocular(found, g)
                assert len(found.edges) > 4
        assert count_checked >= 10
