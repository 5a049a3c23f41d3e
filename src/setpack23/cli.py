"""Command-line interface: solving, exact audits, generators, benchmarks.

Audit ratios are reported as exact integer fractions (opt/alg), never
floats; an empty packing against a positive optimum reads 1/0.  Hereditary
rows additionally carry the 4/3 guarantee; any violation of 3*opt <= 4*alg
flips the exit code, since it would falsify the implementation rather than
the bound.  SETPACK_SEED in the environment overrides ``--seed`` wherever
the command takes one.  Exit codes: 0 success, 1 hereditary guarantee
violated, 2 bad input, 3 internal invariant violated, 4 a search or oracle
budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import instance as inst
from .color_coding import WalkBudgetExceeded
from .hereditary import hereditary_closure, is_hereditary, solve_hereditary
from .local_search import SearchParams, solve
from .oracle import ORACLE_NODE_BUDGET, OracleBudgetExceeded, solve_exact

CSV_COLUMNS = ["instance", "alg_weight", "opt_weight", "ratio_num", "ratio_den",
               "iterations", "binoculars", "wall_ms"]


def audit_instance(name: str, instance: inst.Instance, params: SearchParams,
                   oracle_budget: int) -> dict:
    """Solve and compare against the exact oracle on one instance.

    The row holds the ``CSV_COLUMNS`` and ``guarantee_bound``: "4/3" in
    hereditary mode, where the audit checks 3*opt <= 4*alg, else None.
    """
    packing, stats = solve(instance, params)
    opt = solve_exact(instance, budget=oracle_budget).optimum_weight
    alg = packing.weight(instance)
    num, den = Fraction(opt, alg).as_integer_ratio() if alg else (1, 0 if opt else 1)
    return {"instance": name, "alg_weight": alg, "opt_weight": opt,
            "ratio_num": num, "ratio_den": den,
            "iterations": stats.iterations, "binoculars": stats.binoculars_applied,
            "wall_ms": stats.wall_ms,
            "guarantee_bound": "4/3" if params.mode == "hereditary" else None}


# -- instance suites ----------------------------------------------------------

def random_triples(nx: int, ny: int, nz: int, m: int, seed: int) -> list[tuple]:
    """m distinct random triples over disjoint parts, for 3DM-style instances."""
    rng = random.Random(seed)
    pool = set()
    limit = nx * ny * nz
    if not 1 <= m <= limit:
        raise ValueError("need at least one set" if m < 1 else "more triples requested than exist")
    while len(pool) < m:
        pool.add((("x", rng.randrange(nx)), ("y", rng.randrange(ny)), ("z", rng.randrange(nz))))
    return sorted(pool)


def threedm_instance(m: int, seed: int) -> inst.Instance:
    """m random triples over three parts of max(2, m // 2) elements, as 3-sets."""
    part = max(2, m // 2)
    return inst.embed_3dm(random_triples(part, part, part, m, seed))


def hereditary_instance(universe: int, k: int, seed: int) -> inst.Instance:
    """The hereditary closure of k random 3-sets over ``universe`` elements."""
    return hereditary_closure(inst.generate_random(universe, k, p3=1.0, seed=seed)).base


def suite_instances(suite: str, count: int, seed: int):
    """Yield (name, instance, params) triples for a named benchmark family."""
    for i in range(count):
        sub = seed * 1_000_003 + i
        rng = random.Random(sub)
        if suite == "hereditary-small":
            universe = rng.randrange(9, 16)
            k = rng.randrange(5, 11)
            yield (f"{suite}-{i:04d}", hereditary_instance(universe, k, sub),
                   SearchParams(tau=10, mode="hereditary", seed=sub))
        elif suite == "threedm-small":
            yield (f"{suite}-{i:04d}", threedm_instance(rng.randrange(6, 13), sub),
                   SearchParams(tau=8, mode="general", seed=sub, injective_colorings=True))
        elif suite == "random-small":
            n = rng.randrange(8, 15)
            m = rng.randrange(6, 18)
            yield (f"{suite}-{i:04d}", inst.generate_random(n, m, p3=0.6, seed=sub),
                   SearchParams(tau=4, mode="general", seed=sub))
        else:
            raise ValueError(f"unknown suite {suite!r}")


# -- command handlers ---------------------------------------------------------

def _read_text(path: str) -> str:
    return sys.stdin.read() if path == "-" else Path(path).read_text()


def _read_instance(path: str, wire: str) -> inst.Instance:
    if wire == "auto":
        wire = "json" if path.endswith(".json") else "text"
    return inst.parse_instance(_read_text(path), format=wire)


def _params_from_args(args, mode: str = "general") -> SearchParams:
    try:
        epsilon = Fraction(args.epsilon) if args.epsilon else None
    except ZeroDivisionError:
        raise ValueError(f"epsilon has a zero denominator, got {args.epsilon!r}") from None
    return SearchParams(tau=args.tau, epsilon=epsilon,
                        mode=mode, seed=args.seed, injective_colorings=args.injective_colorings)


def _cmd_solve(args) -> int:
    instance = _read_instance(args.instance, args.input_format)
    packing, stats = solve(instance, _params_from_args(args))
    print(json.dumps({"packing": sorted(packing.members),
                      "stats": asdict(stats)}))
    return 0


def _cmd_solve_hereditary(args) -> int:
    instance = _read_instance(args.instance, args.input_format)
    if args.close:
        instance = hereditary_closure(instance).base
    elif not is_hereditary(instance):
        print("instance is not hereditary (use --close to complete it)", file=sys.stderr)
        return 2
    packing, stats = solve_hereditary(instance, tau=args.tau)
    print(json.dumps({"packing": sorted(packing.members),
                      "stats": asdict(stats)}))
    return 0


def _cmd_oracle(args) -> int:
    instance = _read_instance(args.instance, args.input_format)
    result = solve_exact(instance, budget=args.budget)
    print(json.dumps({"optimum_weight": result.optimum_weight,
                      "witness": sorted(result.witness.members),
                      "nodes_explored": result.nodes_explored}))
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "random":
        instance = inst.generate_random(args.universe, args.sets, args.p3, args.seed)
    elif args.kind == "threedm":
        instance = threedm_instance(args.sets, args.seed)
    else:
        instance = hereditary_instance(args.universe, args.sets, args.seed)
    text = inst.serialize_instance(instance, format=args.wire)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return 0


def _cmd_normalize(args) -> int:
    from .normalize import dump_normalized, load_tuple, normalize
    t = load_tuple(_read_text(args.tuple))
    out = dump_normalized(normalize(t))
    if args.output == "-":
        print(out)
    else:
        Path(args.output).write_text(out)
    return 0


def _emit_rows(rows: list[dict], fmt: str) -> int:
    rows = sorted(rows, key=lambda r: r["instance"])
    if fmt == "csv":
        writer = csv.DictWriter(sys.stdout, CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    else:
        print(json.dumps(rows, indent=2), end="")
    violations = [r for r in rows
                  if r["guarantee_bound"] and 3 * r["opt_weight"] > 4 * r["alg_weight"]]
    for r in violations:
        print(f"guarantee violation on {r['instance']}: opt={r['opt_weight']} "
              f"alg={r['alg_weight']}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_audit(args) -> int:
    mode = "hereditary" if args.hereditary else "general"
    rows = []
    for path in args.instances:
        instance = _read_instance(path, args.input_format)
        if len(instance) > args.max_oracle_sets:
            print(f"{path}: {len(instance)} sets exceeds the oracle comfort zone "
                  f"(raise --max-oracle-sets to override)", file=sys.stderr)
            return 2
        if mode == "hereditary" and not is_hereditary(instance):
            print(f"{path}: not hereditary", file=sys.stderr)
            return 2
        params = _params_from_args(args, mode=mode)
        rows.append(audit_instance(Path(path).stem, instance, params, args.oracle_budget))
    return _emit_rows(rows, args.format)


def _cmd_bench(args) -> int:
    rows = [audit_instance(name, instance, params, args.oracle_budget)
            for name, instance, params in suite_instances(args.suite, args.count, args.seed)]
    return _emit_rows(rows, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="setpack",
                                     description="2-3-set packing local search, oracle and audits")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, solver=False):
        p.add_argument("--input-format", choices=["auto", "text", "json"], default="auto")
        if solver:
            p.add_argument("--seed", type=int, default=0)
            group = p.add_mutually_exclusive_group()
            group.add_argument("--tau", type=int)
            group.add_argument("--epsilon", type=str,
                               help="positive rational; tau becomes 4*ceil(2/epsilon)")
            p.add_argument("--injective-colorings", action="store_true")

    p = sub.add_parser("solve", help="general-mode local search with the binocular phase")
    p.add_argument("instance")
    add_common(p, solver=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("solve-hereditary", help="tau>=10 local search, no binocular phase")
    p.add_argument("instance")
    p.add_argument("--close", action="store_true", help="apply the hereditary closure first")
    p.add_argument("--tau", type=int, default=10)
    add_common(p)
    p.set_defaults(func=_cmd_solve_hereditary)

    p = sub.add_parser("oracle", help="exact optimum by branch and bound")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=ORACLE_NODE_BUDGET)
    add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="write a generated instance")
    p.add_argument("--kind", choices=["random", "threedm", "hereditary"], default="random")
    p.add_argument("--universe", type=int, default=12)
    p.add_argument("--sets", type=int, default=10)
    p.add_argument("--p3", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wire", choices=["text", "json"], default="text")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("normalize", help="normalize an analysis tuple file")
    p.add_argument("tuple")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("audit", help="solver vs oracle on instance files")
    p.add_argument("instances", nargs="+")
    p.add_argument("--hereditary", action="store_true")
    p.add_argument("--oracle-budget", type=int, default=ORACLE_NODE_BUDGET)
    p.add_argument("--max-oracle-sets", type=int, default=40)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    add_common(p, solver=True)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("bench", help="run a named instance suite with audits")
    p.add_argument("--suite", choices=["hereditary-small", "threedm-small", "random-small"],
                   required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle-budget", type=int, default=ORACLE_NODE_BUDGET)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        env_seed = os.environ.get("SETPACK_SEED")
        if env_seed is not None and hasattr(args, "seed"):
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise ValueError(f"SETPACK_SEED must be an integer, got {env_seed!r}") from None
        for option, least in ("budget", 1), ("oracle_budget", 1), ("count", 0), ("max_oracle_sets", 0):
            if (value := getattr(args, option, least)) < least:
                raise ValueError(f"--{option.replace('_', '-')} must be at least {least}, got {value}")
        return args.func(args)
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except (OracleBudgetExceeded, WalkBudgetExceeded) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except (inst.FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
