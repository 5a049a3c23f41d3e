"""Normalization of analysis tuples (graph, weights, solution A, benchmark B).

The input is a "nice" weighted graph (4-claw-free, 3-claws only at weight-2
vertices) with two independent sets.  Normalization removes deletable
vertices, then dissolves the remaining weight-1 path components into a
recorded path family, bridging the outer neighbors of paths that touch both
sides.  The output is bipartite with parts A and B whose weight-1 vertices
form an independent set; every removal keeps the 4/3 ratio direction
transferable back to the original tuple, which is checked on every call.

Contractions of odd paths are represented as delete-and-record: the trimmed
endpoint stays behind and plays the contracted vertex, keeping its own stub
edge and receiving the bridge to the far stub when both exist.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

from .conflict import find_claw_violations


@dataclass(frozen=True)
class AnalysisTuple:
    weights: dict[int, int]
    adj: dict[int, frozenset[int]]
    a: frozenset[int]
    b: frozenset[int]


@dataclass(frozen=True)
class ComponentRemoval:
    kind: str                    # "outside" | "overlap" | "cycle" | "even_whole" | "long_path_trim"
    vertices: tuple[int, ...]
    removed_a1: int
    removed_b1: int


@dataclass(frozen=True)
class PathRemoval:
    component_index: int
    vertices: tuple[int, ...]    # family path in traversal order
    kind: str                    # "P1" | "P2" | "P3"
    outside_a: int | None
    outside_b: int | None
    bridge_added: bool
    contracted_into: int | None  # surviving endpoint of a trimmed odd component
    side: str | None             # which side the odd component's endpoints were on
    stubs: tuple[int, ...]       # outside weight-2 neighbors of the component


@dataclass(frozen=True)
class Certificate:
    removals: tuple[ComponentRemoval, ...]
    paths: tuple[PathRemoval, ...]
    bridges: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class NormalizedInstance:
    weights: dict[int, int]
    adj: dict[int, frozenset[int]]
    a: frozenset[int]
    b: frozenset[int]
    certificate: Certificate


def analysis_tuple(weights: Mapping[int, int], edges: Iterable[tuple[int, int]],
                   a: Iterable[int], b: Iterable[int]) -> AnalysisTuple:
    adj: dict[int, set[int]] = {v: set() for v in weights}
    for u, v in edges:
        if u == v:
            raise ValueError("self-loops are not allowed")
        adj[u].add(v)
        adj[v].add(u)
    return AnalysisTuple(dict(weights),
                         {v: frozenset(n) for v, n in adj.items()},
                         frozenset(a), frozenset(b))


def validate_tuple(t: AnalysisTuple) -> None:
    """Reject weights other than 1 and 2, non-nice graphs and dependent A/B sets."""
    for v, w in t.weights.items():
        if type(w) is not int or w not in (1, 2):
            raise ValueError(f"vertex {v}: weight must be 1 or 2, got {w!r}")
    verts = set(t.weights)
    if not (t.a <= verts and t.b <= verts):
        raise ValueError("A and B must be subsets of the vertex set")
    for side, name in ((t.a, "A"), (t.b, "B")):
        for v in side:
            if t.adj[v] & side:
                raise ValueError(f"{name} is not independent")
    violations = find_claw_violations(t.weights, t.adj)
    if violations:
        raise ValueError(f"graph is not nice: {violations[0]}")


def _prime(t_weights: Mapping[int, int], side: frozenset[int]) -> set[int]:
    return {v for v in side if t_weights[v] == 1}


def _components(vertices: set[int], adj: Mapping[int, frozenset[int]]) -> list[list[int]]:
    """Connected components of the induced subgraph, each ordered along its
    path when it is one (cycles come back in rotation order)."""
    comps: list[list[int]] = []
    seen: set[int] = set()
    for start in sorted(vertices):
        if start in seen:
            continue
        comp: set[int] = set()
        stack = [start]
        while stack:
            v = stack.pop()
            if v not in comp:
                comp.add(v)
                stack.extend(adj[v] & vertices - comp)
        seen |= comp
        deg = {v: len(adj[v] & comp) for v in comp}
        if any(d > 2 for d in deg.values()):
            raise ValueError("weight-1 component is neither a path nor a cycle")
        ends = sorted(v for v in comp if deg[v] <= 1)
        order: list[int] = []
        cur = ends[0] if ends else min(comp)
        prev = None
        while len(order) < len(comp):
            order.append(cur)
            nxts = sorted(x for x in adj[cur] & comp if x != prev and x not in order)
            if not nxts:
                break
            prev, cur = cur, nxts[0]
        comps.append(order)
    return comps


def _removals(t: AnalysisTuple) -> tuple[list[ComponentRemoval], frozenset[int]]:
    """Validate the tuple once and record its deletion stage, one removal per
    case: vertices outside both sets, vertices in both, whole cycle or whole
    even-path components of the weight-1 subgraph G[A' union B'], and the
    vertices without outside B-neighbors of a path with at least three inner
    weight-1 A-vertices.  The deletable set is the union of the removals."""
    validate_tuple(t)
    removals: list[ComponentRemoval] = []
    outside = sorted(set(t.weights) - (t.a | t.b))
    if outside:
        removals.append(ComponentRemoval("outside", tuple(outside), 0, 0))
    overlap = sorted(t.a & t.b)
    if overlap:
        removals.append(ComponentRemoval("overlap", tuple(overlap), 0, 0))
    a1, b1 = _prime(t.weights, t.a - t.b), _prime(t.weights, t.b - t.a)
    ab = (t.a | t.b) - (t.a & t.b)
    for comp in _components(a1 | b1, t.adj):
        cset = set(comp)
        ca, cb = len(cset & a1), len(cset & b1)
        if len(comp) >= 3 and all(len(t.adj[v] & cset) == 2 for v in comp):
            if ca != cb:
                raise AssertionError("alternating cycle must balance its sides")
            removals.append(ComponentRemoval("cycle", tuple(comp), ca, cb))
        elif len(comp) % 2 == 0 and not any(t.adj[v] & (ab - cset) for v in comp):
            if ca != cb:
                raise AssertionError("whole even path must balance its sides")
            removals.append(ComponentRemoval("even_whole", tuple(comp), ca, cb))
        elif sum(1 for v in comp[1:-1] if v in a1) >= 3:
            trim = [v for v in comp if not t.adj[v] & (t.b - cset)]
            ta, tb = len(set(trim) & a1), len(set(trim) & b1)
            # Long trims lose at most one more weight-1 B-vertex than A-vertices.
            if 3 * tb > 4 * ta:
                raise AssertionError("long-path trim broke the 4/3 bookkeeping")
            removals.append(ComponentRemoval("long_path_trim", tuple(trim), ta, tb))
    d = frozenset(v for r in removals for v in r.vertices)
    for v in t.a & d:
        if t.adj[v] - d:
            raise AssertionError("a deleted solution vertex kept an outside neighbor")
    return removals, d


def deletable_set(t: AnalysisTuple) -> frozenset[int]:
    """Vertices whose removal keeps improvements and ratio bounds transferable:
    the union of the removals ``normalize`` records."""
    return _removals(t)[1]


def normalize(t: AnalysisTuple) -> NormalizedInstance:
    """Produce the bipartite normalized tuple plus a certificate of every step."""
    removals, d = _removals(t)
    verts2 = set(t.weights) - d
    adj2 = {v: t.adj[v] & verts2 for v in verts2}
    w2 = {v: t.weights[v] for v in verts2}
    a2 = t.a & verts2
    b2 = t.b & verts2
    for u in sorted(verts2):
        for v in adj2[u]:
            if (u in a2) == (v in a2):
                raise AssertionError("reduced graph must be bipartite on A/B")

    a1r = _prime(w2, frozenset(a2))
    b1r = _prime(w2, frozenset(b2))
    paths: list[PathRemoval] = []
    bridges: list[tuple[int, int]] = []
    doomed: set[int] = set()
    for idx, comp in enumerate(_components(a1r | b1r, adj2)):
        if len(comp) == 1:
            continue
        cset = set(comp)
        if any(len(adj2[v] & cset) > 2 for v in cset):
            raise AssertionError("family component is not a path")
        inner_a1 = sum(1 for v in comp[1:-1] if v in a1r)
        if inner_a1 > 2:
            raise AssertionError("long paths must be gone before the family stage")
        contracted_into: int | None = None
        side: str | None = None
        family = list(comp)
        if len(comp) % 2 == 1:
            side = "A" if comp[0] in a1r else "B"
            if (comp[-1] in a1r) != (comp[0] in a1r):
                raise AssertionError("odd paths have same-side endpoints")
            contracted_into = max(comp[0], comp[-1])
            family = comp[1:] if comp[0] == contracted_into else comp[:-1]
        fset = set(family)
        stubs = tuple(sorted(v for u in cset for v in adj2[u] - cset if w2[v] == 2))
        out = {v for u in fset for v in adj2[u] - fset}
        out_a = sorted(out & a2)
        out_b = sorted(out & b2)
        if len(out_a) > 1 or len(out_b) > 1:
            raise AssertionError("family paths have one outer neighbor per side")
        if not (out_a or out_b):
            raise AssertionError("family paths always keep an outer neighbor")
        if len(fset & a2) != len(fset & b2):
            raise AssertionError("family paths balance their sides")
        kind = "P3" if out_a and out_b else ("P1" if out_a else "P2")
        bridge = False
        if kind == "P3":
            bridges.append((out_a[0], out_b[0]))
            bridge = True
        paths.append(PathRemoval(idx, tuple(family), kind,
                                 out_a[0] if out_a else None,
                                 out_b[0] if out_b else None,
                                 bridge, contracted_into, side, stubs))
        doomed |= fset

    verts3 = verts2 - doomed
    adj3 = {v: set(adj2[v] & verts3) for v in verts3}
    for u, v in bridges:
        adj3[u].add(v)
        adj3[v].add(u)
    out = NormalizedInstance(
        weights={v: w2[v] for v in verts3},
        adj={v: frozenset(adj3[v]) for v in verts3},
        a=frozenset(a2 & verts3),
        b=frozenset(b2 & verts3),
        certificate=Certificate(tuple(removals), tuple(paths), tuple(bridges)),
    )

    def wsum(weights: Mapping[int, int], vs: Iterable[int]) -> int:
        return sum(weights[v] for v in vs)

    family_b = sum(len(set(p.vertices) & b2) for p in paths)
    if wsum(w2, a2) - wsum(out.weights, out.a) != family_b:
        raise AssertionError("family paths took A-weight other than their B-count")
    if wsum(w2, b2) - wsum(out.weights, out.b) != family_b:
        raise AssertionError("family paths took B-weight other than their B-count")
    report = check_normalized(out)
    if report:
        raise AssertionError(f"normalization violated its own invariants: {report}")
    if 3 * wsum(out.weights, out.b) <= 4 * wsum(out.weights, out.a):
        if 3 * wsum(t.weights, t.b) > 4 * wsum(t.weights, t.a):
            raise AssertionError("4/3 ratio did not transfer back to the original tuple")
    return out


def check_normalized(n: NormalizedInstance) -> list[str]:
    """Re-verify every normalized-instance invariant; empty report means pass."""
    findings: list[str] = []
    verts = set(n.weights)
    if n.a & n.b:
        findings.append("A and B overlap")
    if n.a | n.b != verts:
        findings.append("A and B do not cover the vertex set")
    for u in sorted(verts):
        for v in n.adj[u]:
            if (u in n.a) == (v in n.a):
                findings.append(f"edge {{{u},{v}}} does not cross the bipartition")
    ones = {v for v in verts if n.weights[v] == 1}
    for u in sorted(ones):
        if n.adj[u] & ones:
            findings.append(f"weight-1 vertices {u} and a neighbor are adjacent")
    findings.extend(str(v) for v in find_claw_violations(n.weights, n.adj))
    return findings


# -- wire format -------------------------------------------------------------

def load_tuple(data: str | bytes) -> AnalysisTuple:
    """Read a tuple file: JSON with weights, edges, A-ids and B-ids.

    A malformed document raises ``ValueError`` with a one-line message.
    """
    doc = json.loads(data)
    if not isinstance(doc, dict) or not {"weights", "A", "B"} <= doc.keys():
        raise ValueError('tuple file must be a JSON object with "weights", "A" and "B"')
    try:
        raw_w = doc["weights"]
        if isinstance(raw_w, list):
            weights = dict(enumerate(raw_w))
        else:
            weights = {_weight_key(k): v for k, v in raw_w.items()}
        edges = [(_vertex_id(u), _vertex_id(v)) for u, v in doc.get("edges", [])]
        return analysis_tuple(weights, edges, [_vertex_id(x) for x in doc["A"]],
                              [_vertex_id(x) for x in doc["B"]])
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed tuple file: {type(exc).__name__}: {exc}") from None


def _weight_key(k: str) -> int:
    """A vertex id from a ``weights`` key, in canonical decimal only: ``int()``
    would merge "01" into vertex 1 and read "1_0" as 10 and " 3 " as 3."""
    if str(int(k)) != k:
        raise ValueError(f"weight keys must be vertex ids in decimal, got {json.dumps(k)}")
    return int(k)


def _vertex_id(x) -> int:
    """A vertex id from ``edges``, ``A`` or ``B``: a JSON integer, never a
    float or a boolean that ``int()`` would truncate or alias."""
    if type(x) is not int:
        raise ValueError(f"vertex ids must be integers, got {json.dumps(x)}")
    return x


def dump_normalized(n: NormalizedInstance) -> str:
    verts = sorted(n.weights)
    edges = sorted({(min(u, v), max(u, v)) for u in verts for v in n.adj[u]})
    return json.dumps({
        "normalized": {
            "weights": {str(v): n.weights[v] for v in verts},
            "edges": [list(e) for e in edges],
            "A": sorted(n.a),
            "B": sorted(n.b),
        },
        "certificate": n.certificate.to_dict(),
    }, indent=2)
