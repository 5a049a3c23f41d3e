#!/usr/bin/env python3
"""The scale ladder: hereditary tau=10 certifications, one subprocess per point.

Run from the repository root (Python 3.10+, nothing to install):

    python3 bench/ladder.py                    # measure this checkout
    python3 bench/ladder.py --root ../other    # measure another checkout of the repository

Each point is the hereditary closure of ``generate_random(universe, k, 1.0,
seed)``, solved by ``solve_hereditary`` at tau=10.  A point runs in its own
subprocess under a ``TIMEOUT_S`` limit; it solves the closure ``REPEATS``
times, then solves it once more to count the work: ``rec_grown`` frames and
``share_cut`` evaluations through a profile hook, and the answers of the
global-optimality gate through a wrapper around
``local_search.packing_above`` (``null`` where the checkout has no gate).
The counts do not depend on host speed.  Nothing under ``src/`` is edited.
The same process samples the host's speed next to each timed solve: it
times the reference kernel of ``perfbench/refclock.py`` ``KERNEL_RUNS``
times before the first solve and after each one.  A solve's kernel time is
the median of the samples just before and just after it, and the point
keeps the solve with the least CPU time per kernel time, so that times
taken at different host speeds can be compared (see README.md).

One run appends one record to ``BENCH_scale.json`` at the repository root
(the one holding this script): the measured checkout's commit
(``git describe --always --dirty``), a SHA-256 over its ``src/`` files, the
Python version, and per point the closure size, CPU seconds, the kernel's
median time, weight, packing, outcome (``finished``, ``timeout`` or the
exception's name) and the counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_scale.json"
TIMEOUT_S = 600.0  # per point; the slowest point before the gate took about 11 s
REPEATS = 3
KERNEL_RUNS = 15  # reference-kernel timings per host-speed sample

# (name, universe, k, seed): the closure of generate_random(universe, k, 1.0, seed).
POINTS = (
    ("closure-30-22-s3", 30, 22, 3),
    ("closure-30-30-s3", 30, 30, 3),
    ("closure-30-38-s3", 30, 38, 3),
    ("closure-30-46-s3", 30, 46, 3),
    ("closure-45-30-s3", 45, 30, 3),
    ("closure-60-30-s3", 60, 30, 3),
    ("closure-45-20-s3", 45, 20, 3),
    ("closure-30-30-s0", 30, 30, 0),
    ("closure-30-30-s7", 30, 30, 7),
    ("closure-30-30-s8", 30, 30, 8),
)


def run_point(universe: int, k: int, seed: int) -> dict:
    """Solve one point in this process; the package comes from PYTHONPATH."""
    from setpack23 import local_search
    from setpack23.hereditary import hereditary_closure, solve_hereditary
    from setpack23.instance import generate_random
    sys.path.insert(0, str(ROOT / "perfbench"))
    from refclock import kernel

    def kernel_times() -> list[float]:
        out = []
        for _ in range(KERNEL_RUNS):
            start = time.process_time()
            kernel()
            out.append(time.process_time() - start)
        return out

    closed = hereditary_closure(generate_random(universe, k, 1.0, seed=seed))
    runs = []  # (CPU seconds, kernel seconds) per timed solve
    before = kernel_times()
    for _ in range(REPEATS):
        start = time.process_time()
        packing, stats = solve_hereditary(closed)
        cpu = time.process_time() - start
        after = kernel_times()
        runs.append((cpu, median(before + after)))
        before = after
    cpu, ref = min(runs, key=lambda run: run[0] / run[1])

    gate = None
    real_gate = getattr(local_search, "packing_above", None)
    if real_gate is not None:
        gate = []

        def recording_gate(*args):
            gate.append(real_gate(*args))
            return gate[-1]
        local_search.packing_above = recording_gate
    counts = {"rec_grown": 0, "share_cut": 0}

    def count_frames(frame, event, arg):
        if event == "call" and frame.f_code.co_name in counts:
            counts[frame.f_code.co_name] += 1

    sys.setprofile(count_frames)
    try:
        solve_hereditary(closed)
    finally:
        sys.setprofile(None)
    return {"sets": len(closed.base), "cpu_s": round(cpu, 4), "ref_kernel_s": round(ref, 7),
            "weight": stats.final_weight, "packing": sorted(packing.members),
            "outcome": "finished", "gate": gate,
            "rec_grown_frames": counts["rec_grown"], "share_cut_evals": counts["share_cut"]}


def describe(root: Path) -> tuple[str, str]:
    """(commit, SHA-256 over the sorted src/ files) of the checkout at ``root``."""
    proc = subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return commit, digest.hexdigest()


def write_records(path: Path, records: list[dict]) -> None:
    """JSON with one line per point, so that a record's diff reads by point."""
    out = []
    for r in records:
        head = json.dumps({k: v for k, v in r.items() if k != "points"})
        points = ",\n  ".join(json.dumps(p) for p in r["points"])
        out.append(f'{head[:-1]}, "points": [\n  {points}\n ]}}')
    path.write_text("[\n " + ",\n ".join(out) + "\n]\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout to measure")
    ap.add_argument("--point", help=argparse.SUPPRESS)  # internal: run one point here
    args = ap.parse_args(argv)

    if args.point:
        _, universe, k, seed = next(p for p in POINTS if p[0] == args.point)
        print(json.dumps(run_point(universe, k, seed)))
        return 0

    root = args.root.resolve()
    commit, src_sha = describe(root)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    points = []
    for name, *_ in POINTS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--point", name]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            row = {"outcome": "timeout"}
        else:
            if proc.returncode == 0:
                row = json.loads(proc.stdout.splitlines()[-1])
            else:
                lines = proc.stderr.strip().splitlines() or ["exit %d" % proc.returncode]
                row = {"outcome": lines[-1].split(":")[0]}
        row = {"name": name, "commit": commit, **row}
        print(json.dumps(row), flush=True)
        points.append(row)

    records = json.loads(OUT.read_text()) if OUT.exists() else []
    records.append({"commit": commit, "src_sha256": src_sha,
                    "python": platform.python_version(), "points": points})
    write_records(OUT, records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
