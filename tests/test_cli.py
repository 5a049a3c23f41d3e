import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import setpack23
import setpack23.cli
from setpack23.cli import hereditary_instance, main, suite_instances, threedm_instance
from setpack23.hereditary import is_hereditary
from setpack23.instance import Packing, generate_random, parse_instance, serialize_instance
from setpack23.local_search import RunStats
from test_normalize import BRIDGED_CERTIFICATE, BRIDGED_TUPLE

SRC = Path(setpack23.__file__).resolve().parents[1]


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("1 2 3\n3 4\n4 5 6\n6 7\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_reports_packing_and_stats(capsys, chain_file):
    code, out, _ = run_cli(capsys, "solve", chain_file, "--tau", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["stats"]["final_weight"] == 4
    assert sorted(doc["packing"]) == [0, 2]


def test_epsilon_one_resolves_to_tau_eight(capsys, chain_file):
    code, out, _ = run_cli(capsys, "solve", chain_file, "--epsilon", "1")
    assert code == 0 and json.loads(out)["stats"]["final_weight"] == 4


def test_tau_and_epsilon_are_mutually_exclusive(chain_file):
    with pytest.raises(SystemExit):
        main(["solve", chain_file, "--tau", "2", "--epsilon", "1"])


def test_oracle_command(capsys, chain_file):
    code, out, _ = run_cli(capsys, "oracle", chain_file)
    doc = json.loads(out)
    assert code == 0 and doc["optimum_weight"] == 4 and doc["witness"] == [0, 2]


def _gen_random(capsys, path, universe: int, sets: int) -> str:
    code, _, _ = run_cli(capsys, "gen", "--kind", "random", "--universe", str(universe),
                         "--sets", str(sets), "--seed", "1", "-o", str(path))
    assert code == 0
    return str(path)


def test_oracle_budget_overrun_exits_four(tmp_path, capsys):
    path = _gen_random(capsys, tmp_path / "i60.txt", 30, 60)
    code, out, err = run_cli(capsys, "oracle", path, "--budget", "100")
    assert code == 4 and out == ""
    assert err == "budget exceeded: exceeded 100 nodes\n"


@pytest.mark.parametrize("flag", [["--pair-mode", "full"], ["--naive-improve"],
                                  ["--t-override", "9"], ["--colorings", "7"]])
def test_removed_solver_flags_are_rejected(chain_file, flag):
    with pytest.raises(SystemExit):
        main(["solve", chain_file, "--tau", "2", *flag])


def test_gen_solve_roundtrip(tmp_path, capsys):
    target = tmp_path / "inst.json"
    code, _, _ = run_cli(capsys, "gen", "--kind", "random", "--universe", "10",
                         "--sets", "8", "--seed", "3", "--wire", "json",
                         "-o", str(target))
    assert code == 0
    inst = parse_instance(target.read_text(), format="json")
    assert len(inst) == 8
    code, out, _ = run_cli(capsys, "solve", str(target), "--tau", "2")
    assert code == 0 and json.loads(out)["stats"]["final_weight"] >= 1


def test_solve_hereditary_requires_closure(tmp_path, capsys):
    path = tmp_path / "open.txt"
    path.write_text("1 2 3\n")
    code, _, err = run_cli(capsys, "solve-hereditary", str(path))
    assert code == 2 and "not hereditary" in err
    code, out, _ = run_cli(capsys, "solve-hereditary", str(path), "--close")
    assert code == 0 and json.loads(out)["stats"]["final_weight"] == 2


@pytest.mark.parametrize("argv, expected", [
    (["--kind", "threedm", "--sets", "9", "--seed", "4"], threedm_instance(9, 4)),
    (["--kind", "hereditary", "--universe", "11", "--sets", "6", "--seed", "2"],
     hereditary_instance(11, 6, 2)),
    ([], generate_random(12, 10, 0.5, 0))], ids=["threedm", "hereditary", "random-defaults"])
def test_gen_writes_each_family_to_stdout(capsys, monkeypatch, argv, expected):
    monkeypatch.delenv("SETPACK_SEED", raising=False)
    assert run_cli(capsys, "gen", *argv) == (0, serialize_instance(expected), "")


def test_family_constructors():
    threedm = threedm_instance(9, 4)
    assert len(threedm) == 9 and threedm.universe_size <= 3 * 4
    assert all(s.weight == 2 for s in threedm.sets)
    closed = hereditary_instance(11, 6, 2)
    assert is_hereditary(closed) and sum(s.weight == 2 for s in closed.sets) == 6


def test_audit_hereditary_rejects_a_non_hereditary_file(tmp_path, capsys):
    path = tmp_path / "open.txt"
    path.write_text("1 2 3\n")
    assert run_cli(capsys, "audit", str(path), "--hereditary") == (
        2, "", f"{path}: not hereditary\n")


def test_audit_csv_shape(tmp_path, capsys, chain_file):
    code, out, _ = run_cli(capsys, "audit", chain_file, "--tau", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["alg_weight"] == "4" and rows[0]["opt_weight"] == "4"
    assert rows[0]["ratio_num"] == "1" and rows[0]["ratio_den"] == "1"


def test_audit_ratio_of_an_empty_packing(tmp_path, capsys, monkeypatch):
    # a solver that packs nothing reads 1/0 against a positive optimum, and
    # only an empty optimum makes it 1/1
    path = tmp_path / "h.txt"
    path.write_text("1 2 3\n1 2\n1 3\n2 3\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    monkeypatch.setattr(setpack23.cli, "solve", lambda instance, params: (Packing(), RunStats()))
    code, out, _ = run_cli(capsys, "audit", str(path), str(empty), "--tau", "2",
                           "--format", "json")
    assert code == 0
    rows = {r["instance"]: r for r in json.loads(out)}
    assert [(rows[k]["opt_weight"], rows[k]["alg_weight"], rows[k]["ratio_num"],
             rows[k]["ratio_den"]) for k in ("empty", "h")] == [(0, 0, 1, 1), (2, 0, 1, 0)]


def test_audit_hereditary_guarantee_exit(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text("1 2 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run_cli(capsys, "audit", str(path), "--hereditary", "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["guarantee_bound"] == "4/3"


NORMALIZE_TUPLE = {"weights": {"0": 1, "1": 1, "2": 2, "3": 2},
                   "edges": [[0, 1], [0, 2], [1, 3]],
                   "A": [0, 3], "B": [1, 2]}


def test_normalize_command(tmp_path, capsys):
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(NORMALIZE_TUPLE))
    code, out, _ = run_cli(capsys, "normalize", str(path))
    assert code == 0
    result = json.loads(out)
    assert result["normalized"]["A"] == [3]
    assert result["normalized"]["edges"] == [[2, 3]]


def test_normalize_checks_survive_optimize(tmp_path):
    # with the invariant report faulted, normalize's self-check must fire under -O too
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(NORMALIZE_TUPLE))
    script = ("import sys\n"
              "if not sys.flags.optimize:\n"
              "    sys.exit('not running under -O')\n"
              "import setpack23.normalize\n"
              "setpack23.normalize.check_normalized = lambda n: ['fault']\n"
              "from setpack23.cli import main\n"
              "sys.exit(main(['normalize', sys.argv[1]]))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(path)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.strip() == ("internal invariant violated: normalization violated its "
                                   "own invariants: ['fault']")


def test_normalize_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(BRIDGED_TUPLE)))
    code, out, _ = run_cli(capsys, "normalize", "-")
    assert code == 0
    assert json.loads(out)["certificate"] == BRIDGED_CERTIFICATE


@pytest.mark.parametrize("key", ["01", "1_0", " 3 "])
def test_normalize_rejects_non_canonical_weight_keys(tmp_path, capsys, key):
    # int() would merge "01" into vertex 1 (weight 2), read "1_0" as 10 and " 3 " as 3
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"weights": {"1": 1, key: 2, "2": 1}, "edges": [[1, 2]],
                                "A": [1], "B": [2]}))
    code, out, err = run_cli(capsys, "normalize", str(path))
    assert code == 2 and out == ""
    assert err == f"error: weight keys must be vertex ids in decimal, got {json.dumps(key)}\n"


def test_normalize_accepts_canonical_weight_keys(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"weights": {"1": 1, "2": 1, "10": 2}, "edges": [[1, 2]],
                                "A": [1], "B": [2]}))
    code, out, _ = run_cli(capsys, "normalize", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["normalized"]["weights"] == {}
    assert [r["vertices"] for r in doc["certificate"]["removals"]] == [[10], [1, 2]]


def test_bench_random_suite(capsys):
    code, out, _ = run_cli(capsys, "bench", "--suite", "random-small", "--count", "3")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert all(r["ratio_num"] >= r["ratio_den"] for r in rows)


def test_bench_hereditary_suite_upholds_guarantee(capsys):
    code, out, _ = run_cli(capsys, "bench", "--suite", "hereditary-small",
                           "--count", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    for r in rows:
        assert 3 * int(r["opt_weight"]) <= 4 * int(r["alg_weight"])


def test_seed_env_override(capsys, monkeypatch, tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    main(["gen", "--sets", "6", "--seed", "1", "-o", str(out1)])
    monkeypatch.setenv("SETPACK_SEED", "1")
    main(["gen", "--sets", "6", "--seed", "999", "-o", str(out2)])
    assert out1.read_text() == out2.read_text()


def test_bad_seed_env_exits_two(capsys, monkeypatch, chain_file):
    monkeypatch.setenv("SETPACK_SEED", "abc")
    code, out, err = run_cli(capsys, "solve", chain_file, "--tau", "2")
    assert code == 2 and out == ""
    assert err == "error: SETPACK_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("argv", [["oracle", "--seed", "1"],
                                  ["solve-hereditary", "--seed", "1"],
                                  ["audit", "--force-oracle"]])
def test_options_that_change_no_output_are_rejected(capsys, chain_file, argv):
    # The oracle is deterministic and hereditary mode never colors, so
    # neither takes a seed; --max-oracle-sets lifts the audit's size guard.
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + [chain_file] + argv[1:])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_audit_size_guard_names_its_override(capsys, chain_file):
    code, out, err = run_cli(capsys, "audit", chain_file, "--tau", "2", "--max-oracle-sets", "3")
    assert code == 2 and out == ""
    assert err.endswith("4 sets exceeds the oracle comfort zone (raise --max-oracle-sets "
                        "to override)\n")
    code, _, _ = run_cli(capsys, "audit", chain_file, "--tau", "2", "--max-oracle-sets", "4")
    assert code == 0


@pytest.mark.parametrize("doc", [{"weights": {"0": 1}, "B": []}, [1, 2],
                                 {"weights": 5, "A": [], "B": []}])
def test_malformed_tuple_exits_two(tmp_path, capsys, doc):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "normalize", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("doc, bad", [
    ('{"weights":[1,1],"edges":[[0,1.9]],"A":[0.2],"B":[true]}', "1.9"),
    ('{"weights":[1,1],"edges":[[0,1]],"A":[0.2],"B":[]}', "0.2"),
    ('{"weights":[1,1],"edges":[[0,1]],"A":[],"B":[true]}', "true")])
def test_normalize_rejects_float_and_bool_vertex_ids(tmp_path, capsys, doc, bad):
    # int() would read the first document as edge [0, 1], A = [0] and B = [1]
    path = tmp_path / "t.json"
    path.write_text(doc)
    code, out, err = run_cli(capsys, "normalize", str(path))
    assert code == 2 and out == ""
    assert err == f"error: vertex ids must be integers, got {bad}\n"


@pytest.mark.parametrize("weights", [[3, 1], [0, 1], [1.7, 1], {"0": 2, "1": 1.5}])
def test_normalize_rejects_weights_other_than_one_and_two(tmp_path, capsys, weights):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"weights": weights, "edges": [[0, 1]], "A": [0], "B": [1]}))
    code, out, err = run_cli(capsys, "normalize", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "weight must be 1 or 2" in err


def test_solve_rejects_bool_json_tokens(tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text('{"sets": [[true, 2], [1, 3]]}')
    code, out, err = run_cli(capsys, "solve", str(path), "--tau", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "tokens" in err


def test_walk_budget_overrun_exits_four(tmp_path, capsys, monkeypatch):
    # a walk table beyond the state budget is a reported outcome, not a traceback
    import setpack23.color_coding as cc
    monkeypatch.setattr(cc, "WALK_STATE_BUDGET", 1)
    monkeypatch.delenv("SETPACK_SEED", raising=False)
    path = tmp_path / "instance.txt"
    path.write_text(serialize_instance(generate_random(12, 16, 0.6, seed=34)))
    code, out, err = run_cli(capsys, "solve", str(path), "--tau", "4")
    assert code == 4 and out == ""
    assert err == "budget exceeded: walk table beyond 1 states\n"


# SHA-256 of the `setpack bench --count 20 --seed 0` JSON rows with `wall_ms`
# dropped, serialized with sorted keys.  A change here means a seeded solver
# output moved.
BENCH_DIGESTS = {
    "random-small": "68eec73ce0fc78250e091c4068b7c2bca0123fd8fdec48f19350b591ff1fc7fb",
    "threedm-small": "14585ac57d25ae7a2b11dceeec45c36372eb1c150006decfa07b35cfc67a8409",
    "hereditary-small": "e483a5b32e2056a50128a887810ad330307372ae3fde5fd7d4e03c9695fac574",
}


@pytest.mark.parametrize("suite", sorted(BENCH_DIGESTS))
def test_bench_output_is_pinned(capsys, monkeypatch, suite):
    monkeypatch.delenv("SETPACK_SEED", raising=False)
    code, out, _ = run_cli(capsys, "bench", "--suite", suite, "--count", "20", "--seed", "0")
    assert code == 0
    rows = json.loads(out)
    for r in rows:
        del r["wall_ms"]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == BENCH_DIGESTS[suite]


def test_bench_json_and_csv_rows_agree(capsys, monkeypatch):
    monkeypatch.delenv("SETPACK_SEED", raising=False)
    argv = ["bench", "--suite", "random-small", "--count", "5"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    docs = json.loads(out)
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *lines = csv.reader(io.StringIO(out))
    # CSV carries exactly the JSON core columns, in order, row for row
    assert header == ["instance", "alg_weight", "opt_weight", "ratio_num",
                      "ratio_den", "iterations", "binoculars", "wall_ms"]
    assert [line[0] for line in lines] == [d["instance"] for d in docs]
    for line, d in zip(lines, docs):
        # wall_ms is timed afresh by each run
        assert line[:-1] == [str(d[k]) for k in header[:-1]]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_audit_rows_are_sorted_by_instance(tmp_path, capsys, chain_file, fmt):
    late = tmp_path / "zeta.txt"
    late.write_text("1 2\n")
    code, out, _ = run_cli(capsys, "audit", str(late), chain_file, "--tau", "2",
                           "--format", fmt)
    assert code == 0
    rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
    assert [r["instance"] for r in rows] == ["chain", "zeta"]


@pytest.mark.parametrize("mode, expected", [
    (["--hereditary"], (1, "guarantee violation on h: opt=2 alg=0\n", "4/3")),
    (["--tau", "2"], (0, "", None))], ids=["hereditary", "general"])
def test_audit_guarantee_violation_exits_one(tmp_path, capsys, monkeypatch, mode, expected):
    # a solver that returns nothing falsifies 3*opt <= 4*alg, which only
    # hereditary rows are held to
    monkeypatch.setattr(setpack23.cli, "solve", lambda instance, params: (Packing(), RunStats()))
    path = tmp_path / "h.txt"
    path.write_text("1 2 3\n1 2\n1 3\n2 3\n")
    code, out, err = run_cli(capsys, "audit", str(path), *mode)
    (row,) = json.loads(out)
    assert (code, err, row["guarantee_bound"]) == expected
    assert (row["alg_weight"], row["opt_weight"]) == (0, 2)


def test_suite_instances_are_deterministic():
    a = [(n, i.sets) for n, i, _ in suite_instances("hereditary-small", 3, seed=5)]
    b = [(n, i.sets) for n, i, _ in suite_instances("hereditary-small", 3, seed=5)]
    assert a == b


def test_package_import_leaves_test_only_modules_out():
    # the package and its CLI import the solve path only; normalize loads
    # from its submodule when a caller asks for it, and the binocular theory
    # lives in tests/test_binoculars.py
    script = ("import sys, importlib.util, setpack23, setpack23.cli\n"
              "print(importlib.util.find_spec('setpack23.binoculars'))\n"
              "print(' '.join(sorted(m for m in sys.modules if m.startswith('setpack23'))))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    spec, loaded = proc.stdout.splitlines()
    assert spec == "None"
    solve_path = {"instance", "conflict", "local_search", "hereditary", "search_graph",
                  "color_coding", "oracle", "cli"}
    assert set(loaded.split()) == {"setpack23"} | {f"setpack23.{m}" for m in solve_path}
    assert setpack23.__all__ == [
        "FormatError", "Instance", "Packing", "PackSet", "embed_3dm", "generate_random",
        "parse_instance", "serialize_instance",
        "build_conflict_graph",
        "Improvement", "RunStats", "SearchParams", "apply_improvement", "find_improvement",
        "is_local_improvement", "solve",
        "hereditary_closure", "is_hereditary", "solve_hereditary",
        "OracleResult", "solve_exact",
    ]


def test_package_has_no_bare_asserts():
    # a bare assert vanishes under python -O; package checks raise AssertionError
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "setpack23").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
