"""The benchmark script perfbench/run.py calls the package through a few seams.

The file is read, never edited.  A change that broke one of its calls --
``SearchParams(tau=, seed=, injective_colorings=)``, ``solve_hereditary(inst,
seed=, tau=)``, the audit fingerprint's read of ``params.injective_colorings``
or ``instance.validate_packing`` -- would otherwise fail only when the
benchmark runs.  ``set_up`` is never called: it drops the package from
``sys.modules``.
"""

import importlib.util
import json
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

import setpack23

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SIBLINGS = ("quantile", "refclock", "spans")
NAME = "perfbench_run"


@pytest.fixture(scope="module")
def run():
    """perfbench/run.py as a module, with sys.path and sys.modules restored after."""
    added = [m for m in (NAME,) + SIBLINGS if m not in sys.modules]
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(NAME, PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[NAME] = module  # its dataclasses look their module up here
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))
        for m in added:
            sys.modules.pop(m, None)


@pytest.fixture(scope="module")
def ladders():
    return json.loads((PERFBENCH / "ladders.json").read_text())


@pytest.fixture(scope="module")
def items(run, ladders):
    return {w: run.build_items(w, ladders) for w in run.WORKLOADS}


def test_build_items_counts(items):
    assert {w: len(i) for w, i in items.items()} == {
        "hereditary-cert": 8, "general-tau4": 7, "audit-small": 1600}


def test_audit_small_checks_the_recorded_fingerprint(run, ladders):
    stale = dict(ladders, **{"audit-small": dict(ladders["audit-small"], sha256="0" * 64)})
    with pytest.raises(RuntimeError, match="no longer generate"):
        run.build_items("audit-small", stale)


@pytest.mark.parametrize("workload", ["hereditary-cert", "general-tau4", "audit-small"])
def test_run_item_solves_and_checks_the_first_item(run, items, workload):
    item = items[workload][0]
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        outcome = run.run_item(setpack23, item, 60.0, perf_counter)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not outcome.failed, (outcome.error, outcome.wrong)
    assert outcome.weight > 0 and outcome.opt >= outcome.weight
