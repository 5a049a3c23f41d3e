"""In-memory spans around the package's public functions, for the traced run.

A span records its name, start and end (read from the tracer's clock),
the index of the span that was open when it began (-1 for none), the
benchmark request (instance) it belongs to, counts taken from the wrapped
call's arguments and return value, and the name of any exception that left
it.  Wrappers are installed into every
``setpack23`` module that binds the wrapped function, only inside
:meth:`Tracer.installed`, and the originals are put back on exit, so the
untraced passes run the package unchanged.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable

PACKAGE = "setpack23"

Count = Callable[[object, tuple], dict]

# (module, function, span name, counts from (result, args)).  These are the
# public functions that solve(), solve_hereditary() and the audit path reach.
TARGETS: tuple[tuple[str, str, str, Count | None], ...] = (
    ("instance", "parse_instance", "instance.parse",
     lambda r, a: {"sets": len(r)}),
    ("conflict", "build_conflict_graph", "conflict.build",
     lambda r, a: {"edges": sum(len(nbrs) for nbrs in r.adj) // 2}),
    ("local_search", "solve", "local_search.solve",
     lambda r, a: {"iterations": r[1].iterations,
                   "improvements": r[1].improvements_applied}),
    ("hereditary", "hereditary_closure", "hereditary.closure",
     lambda r, a: {"sets_added": len(r.base) - len(a[0])}),
    ("search_graph", "enumerate_search_edges", "search_graph.enumerate",
     lambda r, a: {"vertices": len(r.vertices), "edges": len(r.edges),
                   "loops": len(r.loops)}),
    ("search_graph", "extract_improvement", "search_graph.extract", None),
    ("color_coding", "search_improving_binocular", "color_coding.search",
     lambda r, a: {"hits": int(r is not None)}),
    ("color_coding", "make_colorings", "color_coding.colorings",
     lambda r, a: {"colorings": len(r)}),
    ("color_coding", "colorful_subgraph", "color_coding.filter",
     lambda r, a: {"colorful_edges": len(r.edges), "search_edges": len(a[0].edges)}),
    ("color_coding", "find_colorful_binocular", "color_coding.assemble", None),
    ("oracle", "solve_exact", "oracle.solve",
     lambda r, a: {"nodes": r.nodes_explored}),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "counts", "error")

    def __init__(self, name: str, start: float, parent: int, request: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.counts: dict = {}
        self.error: str | None = None

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "start": self.start, "end": self.end,
                           "parent": self.parent, "request": self.request,
                           "counts": self.counts, "error": self.error})


class Tracer:
    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.request = -1
        self._open: list[int] = []

    def _wrap(self, name: str, fn: Callable, count: Count | None) -> Callable:
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), open_[-1] if open_ else -1, self.request)
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                open_.pop()
            if count is not None:
                span.counts = count(result, args)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for module, attr, name, count in TARGETS:
            fn = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, count))
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(span.to_json() + "\n")


def summarize(spans: Iterable[Span], first_index: int = 0) -> dict:
    """Per span name: inclusive seconds, self seconds, calls, counts, errors.

    Self time is a span's duration minus the durations of its direct
    children; spans nest without overlap, since the run has one thread.
    """
    spans = list(spans)
    child_s: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent >= first_index:
            child_s[span.parent] += span.end - span.start
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    errors: Counter = Counter()
    for i, span in enumerate(spans, start=first_index):
        dur = span.end - span.start
        total[span.name] += dur
        self_s[span.name] += dur - child_s[i]
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value
        if span.error is not None:
            errors[f"{span.name}.{span.error}"] += 1
    return {"total": total, "self": self_s, "calls": calls, "counts": counts,
            "errors": errors}
