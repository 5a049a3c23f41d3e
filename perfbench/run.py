#!/usr/bin/env python3
"""Outside-in benchmark of the setpack23 solver.

Run from the repository root (Python 3.10+, nothing to install):

    python3 perfbench/run.py --workload hereditary-cert --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

One process on one thread drives a closed loop with one caller: each
instance is parsed, solved, given its optimum and checked before the next
one starts.  A pass runs every instance of the workload once; passes repeat
while one more fits into ``--seconds``, and an instance's time is the
median over passes.  Times are read from a clock that runs at a fixed host speed
(``refclock.py``), because the shared host's own speed drifts.
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics, taken from spans around
the package's public functions (see ``spans.py``).  The last line of the
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, with names and units as listed in ``BENCHMARK.json``.

See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from quantile import harrell_davis
from refclock import RefClock
from spans import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "setpack23"

WORKLOADS = ("hereditary-cert", "general-tau4", "audit-small")
SETUP_REPEATS = 9
# General mode is heavy-tailed: one instance can run for many minutes.  An
# instance over the limit fails, and every limit is cut short at the run cap,
# so a run ends within three minutes whatever the program does.
WALL_LIMIT_S = 30.0
RUN_CAP_S = 150.0


class WallLimitExceeded(Exception):
    """Raised by the interval timer when an instance runs past its limit."""


def _on_alarm(signum, frame):
    raise WallLimitExceeded


@dataclass(frozen=True)
class Item:
    """One instance as a user hands it to the CLI: text plus solve settings."""

    name: str
    text: str
    mode: str                 # "hereditary" or "general"
    seed: int
    tau: int
    injective: bool = False
    close: bool = False       # solve-hereditary --close
    opt: int | None = None    # stored optimum; None runs the oracle in the loop


@dataclass
class Outcome:
    item: Item
    solve_s: float
    audit_s: float
    members: frozenset[int] | None = None
    weight: int = 0
    opt: int = 0
    error: str | None = None   # budget, wall limit or invariant: counted as failed
    wrong: str | None = None   # a failed output check: failed and incorrect

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None


# -- inputs ----------------------------------------------------------------

def audit_suite_items(suites: dict[str, int], seed: int) -> list[Item]:
    """The instances ``setpack bench --suite S --count N --seed seed`` audits."""
    from setpack23 import serialize_instance
    from setpack23.cli import suite_instances
    items = []
    for suite, count in suites.items():
        for name, inst, params in suite_instances(suite, count, seed):
            items.append(Item(name, serialize_instance(inst), params.mode, params.seed,
                              params.resolved_tau(), params.injective_colorings))
    return items


def audit_fingerprint(items: list[Item]) -> str:
    rows = [[i.name, i.text, i.mode, i.seed, i.tau, i.injective] for i in items]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def build_items(workload: str, ladders: dict) -> list[Item]:
    spec = ladders[workload]
    if workload == "hereditary-cert":
        return [Item(d["name"], d["text"], "hereditary", 0, 10, close=True, opt=d["opt"])
                for d in spec["instances"]]
    if workload == "general-tau4":
        return [Item(d["name"], d["text"], "general", 0, 4) for d in spec["instances"]]
    items = audit_suite_items(spec["suites"], spec["seed"])
    if audit_fingerprint(items) != spec["sha256"]:
        raise RuntimeError("the bench suites no longer generate the instances recorded "
                           "in ladders.json; rerun make_ladders.py in a separate change")
    return items


def set_up(workload: str, seed: int):
    """Import the package afresh and build the workload's inputs.

    The instances are fixed (``ladders.json``); the seed orders them.
    """
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    items = build_items(workload, json.loads((HERE / "ladders.json").read_text()))
    random.Random(seed).shuffle(items)
    return pkg, items


# -- the loop --------------------------------------------------------------

def check(pkg, item: Item, inst, packing, stats, opt: int) -> str | None:
    """Why the output is wrong, or None when every check passes."""
    try:
        pkg.instance.validate_packing(inst, packing)
    except pkg.FormatError as exc:
        return f"invalid packing: {exc}"
    weight = packing.weight(inst)
    if weight != stats.final_weight:
        return f"packing weighs {weight}, stats.final_weight says {stats.final_weight}"
    if weight > opt:
        return f"packing weighs {weight}, above the optimum {opt}"
    if item.mode == "hereditary" and 3 * opt > 4 * weight:
        return f"4/3 guarantee violated: opt {opt}, alg {weight}"
    return None


def run_item(pkg, item: Item, limit: float, clock) -> Outcome:
    start = clock()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        try:
            inst = pkg.parse_instance(item.text)
            if item.close:
                inst = pkg.hereditary_closure(inst).base
            if item.mode == "hereditary":
                packing, stats = pkg.solve_hereditary(inst, seed=item.seed, tau=item.tau)
            else:
                params = pkg.SearchParams(tau=item.tau, seed=item.seed,
                                          injective_colorings=item.injective)
                packing, stats = pkg.solve(inst, params)
            solved = clock()
            opt = item.opt if item.opt is not None else pkg.solve_exact(inst).optimum_weight
            done = clock()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (WallLimitExceeded, AssertionError, pkg.color_coding.WalkBudgetExceeded,
            pkg.oracle.OracleBudgetExceeded) as exc:
        elapsed = clock() - start
        return Outcome(item, elapsed, elapsed, error=type(exc).__name__)
    return Outcome(item, solved - start, done - start, packing.members, stats.final_weight,
                   opt, wrong=check(pkg, item, inst, packing, stats, opt))


def run_pass(pkg, items: list[Item], deadline: float, clock, tracer=None) -> list[Outcome]:
    out = []
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.request = index
        limit = min(WALL_LIMIT_S, deadline - perf_counter())
        if limit <= 0:
            out.append(Outcome(item, 0.0, 0.0, error="RunCapExceeded"))
        else:
            out.append(run_item(pkg, item, limit, clock))
    return out


def settle() -> None:
    """Collect garbage, then exempt every object alive now from collection.

    The benchmark keeps its inputs, earlier outcomes and spans alive.  Frozen,
    they no longer lengthen the program's full collections, which then cost
    what they cost in a one-instance CLI run.
    """
    gc.collect()
    gc.freeze()


def measure(pkg, items, seconds: float, deadline: float, clock, tracer=None):
    """Plain passes (and, with a tracer, a traced pass after each) for ``seconds``.

    Another round starts only while one more of the same length still fits.
    """
    plain, traced = [], []
    begin = perf_counter()
    while True:
        start = perf_counter()
        settle()
        plain.append(run_pass(pkg, items, deadline, clock))
        if tracer is not None:
            first = len(tracer.spans)
            settle()
            with tracer.installed():
                outcomes = run_pass(pkg, items, deadline, clock, tracer)
            traced.append((outcomes, first))
        now = perf_counter()
        if (now - begin) + (now - start) > seconds:
            return plain, traced


def disagreements(reference: list[Outcome], other: list[Outcome]) -> list[str]:
    """Names of instances whose packing differs between two passes."""
    ref = {o.item.name: o.members for o in reference}
    return [o.item.name for o in other
            if o.members is not None and ref[o.item.name] is not None
            and o.members != ref[o.item.name]]


# -- metrics ---------------------------------------------------------------

def instance_times(passes: list[list[Outcome]], field: str) -> list[float]:
    """Each instance's time, as the median over passes.

    Every pass does the same work, so passes differ only by machine noise;
    the median drops the first, cold pass and any pass a burst slowed down.
    """
    return [statistics.median(getattr(o, field) for o in runs) for runs in zip(*passes)]


def end_to_end(plain: list[list[Outcome]], setup_s: list[float]) -> dict:
    first = plain[0]
    attempted = sum(len(p) for p in plain)
    failed = sum(o.failed for p in plain for o in p)
    ratios = [Fraction(o.opt, o.weight) for o in first if not o.failed and o.weight]
    solve_s = instance_times(plain, "solve_s")
    return {
        "setup_s": statistics.median(setup_s),
        "solve_s_total": sum(solve_s),
        "solve_s_p50": harrell_davis(solve_s, 0.50),
        "solve_s_p99": harrell_davis(solve_s, 0.99),
        "audit_s_total": sum(instance_times(plain, "audit_s")),
        "weight_total": sum(o.weight for o in first if not o.failed),
        "ratio_worst": float(max(ratios, default=Fraction(1))),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# metric: (summary table, key) -- see spans.summarize
LAYER_METRICS = {
    "instance.parse_s": ("total", "instance.parse"),
    "instance.parse_calls": ("calls", "instance.parse"),
    "instance.sets": ("counts", "instance.parse.sets"),
    "conflict.build_s": ("total", "conflict.build"),
    "conflict.build_calls": ("calls", "conflict.build"),
    "conflict.edges": ("counts", "conflict.build.edges"),
    "local_search.self_s": ("self", "local_search.solve"),
    "local_search.iterations": ("counts", "local_search.solve.iterations"),
    "local_search.improvements": ("counts", "local_search.solve.improvements"),
    "hereditary.closure_s": ("total", "hereditary.closure"),
    "hereditary.sets_added": ("counts", "hereditary.closure.sets_added"),
    "search_graph.enumerate_s": ("total", "search_graph.enumerate"),
    "search_graph.enumerate_calls": ("calls", "search_graph.enumerate"),
    "search_graph.vertices": ("counts", "search_graph.enumerate.vertices"),
    "search_graph.edges": ("counts", "search_graph.enumerate.edges"),
    "search_graph.loops": ("counts", "search_graph.enumerate.loops"),
    "search_graph.extract_s": ("total", "search_graph.extract"),
    "search_graph.extract_calls": ("calls", "search_graph.extract"),
    "color_coding.search_s": ("total", "color_coding.search"),
    "color_coding.search_calls": ("calls", "color_coding.search"),
    "color_coding.colorings": ("counts", "color_coding.colorings.colorings"),
    "color_coding.filter_s": ("total", "color_coding.filter"),
    "color_coding.filter_calls": ("calls", "color_coding.filter"),
    "color_coding.candidate_edges": ("counts", "color_coding.filter.search_edges"),
    "color_coding.colorful_edges": ("counts", "color_coding.filter.colorful_edges"),
    "color_coding.assemble_s": ("total", "color_coding.assemble"),
    "color_coding.assemble_calls": ("calls", "color_coding.assemble"),
    "color_coding.hits": ("counts", "color_coding.search.hits"),
    "color_coding.budget_failures": ("errors", "color_coding.search.WalkBudgetExceeded"),
    "oracle.solve_s": ("total", "oracle.solve"),
    "oracle.calls": ("calls", "oracle.solve"),
    "oracle.nodes": ("counts", "oracle.solve.nodes"),
}


def per_layer(plain, traced, tracer) -> dict:
    """Per-layer metrics of each traced pass, then the median over passes."""
    bounds = [first for _, first in traced[1:]] + [len(tracer.spans)]
    per_pass = []
    for (_, first), end in zip(traced, bounds):
        s = summarize(tracer.spans[first:end], first)
        m = {name: s[table][key] for name, (table, key) in LAYER_METRICS.items()}
        m["color_coding.keep_ratio"] = (m["color_coding.colorful_edges"]
                                        / m["color_coding.candidate_edges"]
                                        if m["color_coding.candidate_edges"] else 0.0)
        m["color_coding.hit_rate"] = (m["color_coding.hits"] / m["color_coding.search_calls"]
                                      if m["color_coding.search_calls"] else 0.0)
        m["trace.spans"] = end - first
        per_pass.append(m)
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        exact = all(isinstance(v, int) for v in values)
        out[name] = statistics.median_low(values) if exact else statistics.median(values)
    traced_passes = [o for o, _ in traced]
    out["trace.solve_s_total"] = sum(instance_times(traced_passes, "solve_s"))
    out["trace.overhead_s"] = (sum(instance_times(traced_passes, "audit_s"))
                               - sum(instance_times(plain, "audit_s")))
    return out


# -- entry points ----------------------------------------------------------

def run_workload(args, spec: dict, deadline: float) -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    setup_s = []
    with RefClock() as clock:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            settle()
            t0 = clock()
            pkg, items = set_up(args.workload, args.seed)
            setup_s.append(clock() - t0)
        if not Path(pkg.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: imported {pkg.__file__}, not the package under {SRC}",
                  file=sys.stderr)
            return 2
        tracer = Tracer(clock) if args.trace else None
        wall = perf_counter()
        plain, traced = measure(pkg, items, args.seconds, deadline, clock, tracer)
        wall = perf_counter() - wall

    passes = plain + [o for o, _ in traced]
    unstable = sorted({n for p in passes[1:] for n in disagreements(plain[0], p)})
    wrong = sorted({f"{o.item.name}: {o.wrong}" for p in passes for o in p if o.wrong})
    errors = sorted({f"{o.item.name}: {o.error}" for p in passes for o in p if o.error})
    for line in wrong + errors:
        print(f"# failed {line}")
    for name in unstable:
        print(f"# packing differs between passes: {name}")

    if tracer is not None:
        values = per_layer(plain, traced, tracer)
        listed = spec["per_layer"]
        (HERE / "out").mkdir(exist_ok=True)
        tracer.write(HERE / "out" / f"spans-{args.workload}.jsonl")
    else:
        values = end_to_end(plain, setup_s)
        listed = spec["end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        print("perfbench: computed metrics do not match BENCHMARK.json", file=sys.stderr)
        return 2

    print(f"# {args.workload}: {len(items)} instances, seed {args.seed}, "
          f"{len(plain)} plain and {len(traced)} traced passes in {wall:.2f} s of wall time")
    print(f"# host speed: reference kernel median {statistics.median(clock.samples) * 1e6:.1f} us "
          f"over {len(clock.samples)} samples, range "
          f"{min(clock.samples) * 1e6:.1f}-{max(clock.samples) * 1e6:.1f} us")
    for label, group in (("plain", plain), ("traced", [o for o, _ in traced])):
        if group:
            totals = " ".join(f"{sum(o.audit_s for o in p):.4f}" for p in group)
            print(f"# {label} pass audit_s_total: {totals}")
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:32s} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong and not unstable,
                      "attempted": sum(len(p) for p in passes),
                      "failed": sum(o.failed for p in passes for o in p),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so that peak RSS stays per workload."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in results[workload]["metrics"].items():
            print(f"{workload:16s} {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    deadline = perf_counter() + RUN_CAP_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec, deadline)


if __name__ == "__main__":
    sys.exit(main())
