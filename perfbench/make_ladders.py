#!/usr/bin/env python3
"""Regenerate ``perfbench/ladders.json``, the fixed inputs of the benchmark.

Run from the repository root:

    python3 perfbench/make_ladders.py

It takes a few minutes, mostly the exact optima of the hereditary ladder.
The file it writes holds:

* ``hereditary-cert``: the instance text of ``generate_random(30, 18, 1.0,
  seed=s)`` for s = 0..7, which ``solve-hereditary --close`` closes before
  solving, and the optimum of each closure from ``solve_exact``.  The oracle
  takes 1-14 s on each ~70-set closure, so the benchmark checks against
  these stored optima instead of calling it.
* ``general-tau4``: seven ``generate_random(n, m, 0.6, seed)`` instances
  drawn with n in 16..20 and m in 20..26 from ``random.Random(2023)``.  A
  draw is kept when ``solve(..., SearchParams(tau=4))`` finishes within
  ``GENERAL_ACCEPT_S``; general mode is heavy-tailed (about one draw in
  three runs past it, and some for many minutes), and a workload must not
  fail on its default inputs.
* ``audit-small``: the ``setpack bench`` suites, their size and seed, and a
  SHA-256 fingerprint of the instances and parameters they generate, so
  that the benchmark notices when a change to the generators alters them.
"""

from __future__ import annotations

import json
import random
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from setpack23 import (SearchParams, generate_random, hereditary_closure,  # noqa: E402
                       serialize_instance, solve, solve_exact)

from run import audit_fingerprint, audit_suite_items  # noqa: E402

HEREDITARY_SEEDS = range(8)
GENERAL_COUNT = 7
GENERAL_ACCEPT_S = 4
AUDIT_SUITES = {"threedm-small": 800, "hereditary-small": 800}
AUDIT_SEED = 0


class _TooSlow(Exception):
    pass


def _alarm(signum, frame):
    raise _TooSlow


def hereditary_ladder() -> list[dict]:
    out = []
    for s in HEREDITARY_SEEDS:
        base = generate_random(30, 18, 1.0, seed=s)
        opt = solve_exact(hereditary_closure(base).base).optimum_weight
        out.append({"name": f"random-30-18-s{s}", "text": serialize_instance(base), "opt": opt})
        print(f"hereditary-cert: seed {s}, optimum {opt}", file=sys.stderr)
    return out


def general_ladder() -> list[dict]:
    rng = random.Random(2023)
    out = []
    signal.signal(signal.SIGALRM, _alarm)
    while len(out) < GENERAL_COUNT:
        n, m, seed = rng.randrange(16, 21), rng.randrange(20, 27), rng.randrange(10**6)
        inst = generate_random(n, m, 0.6, seed=seed)
        signal.setitimer(signal.ITIMER_REAL, GENERAL_ACCEPT_S)
        try:
            try:
                solve(inst, SearchParams(tau=4))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _TooSlow:
            print(f"general-tau4: skip ({n}, {m}, {seed})", file=sys.stderr)
            continue
        out.append({"name": f"random-{n}-{m}-s{seed}", "text": serialize_instance(inst)})
        print(f"general-tau4: keep ({n}, {m}, {seed})", file=sys.stderr)
    return out


def main() -> None:
    items = audit_suite_items(AUDIT_SUITES, AUDIT_SEED)
    ladders = {
        "hereditary-cert": {"instances": hereditary_ladder()},
        "general-tau4": {"instances": general_ladder()},
        "audit-small": {"suites": AUDIT_SUITES, "seed": AUDIT_SEED,
                        "sha256": audit_fingerprint(items)},
    }
    (HERE / "ladders.json").write_text(json.dumps(ladders, indent=1) + "\n")


if __name__ == "__main__":
    main()
