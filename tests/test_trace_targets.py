"""The traced benchmark pass wraps package functions named in perfbench/spans.py.

The file is read, never edited: a target that no longer resolves, or a count
that reads a removed attribute, would only fail inside the traced run.
"""

import importlib
import importlib.util
from pathlib import Path

from setpack23.conflict import build_conflict_graph
from setpack23.search_graph import enumerate_search_edges
from conftest import chain_instance, instance_from_sets

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.TARGETS


def test_every_target_resolves_on_the_package():
    package, targets = load_targets()
    for module, function, _, _ in targets:
        assert callable(getattr(importlib.import_module(f"{package}.{module}"), function)), \
            (module, function)


def test_enumerate_counts_run_on_a_real_search_graph():
    _, targets = load_targets()
    (count,) = [c for _, _, name, c in targets if name == "search_graph.enumerate"]
    # One outside set meets both anchors (an edge), one meets only the first (a loop).
    g = build_conflict_graph(instance_from_sets([(1, 2, 3), (4, 5, 6), (3, 4, 9), (1, 7, 8)]))
    sg = enumerate_search_edges(g, g.mask({0, 1}), tau=1)
    assert count(sg, (g, {0, 1}, 1)) == {"vertices": 2, "edges": 2, "loops": 1}


def test_conflict_build_count_runs_on_a_real_graph():
    _, targets = load_targets()
    (count,) = [c for _, _, name, c in targets if name == "conflict.build"]
    # The chain is a path of four sets; the count reads the derived ``adj``.
    inst = chain_instance()
    assert count(build_conflict_graph(inst), (inst,)) == {"edges": 3}
