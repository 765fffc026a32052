import ast
import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastgas import cli
from fastgas.cli import _write_json, main
from fastgas.embeddings import EmbeddingMatrix, generate_synthetic, save_embeddings
from fastgas.errors import FastgasError, FormatError, InternalError, InvalidParameter
from fastgas.graph import graph_from_edges
from fastgas.partition import partition_kway


@pytest.fixture
def workspace(tmp_path):
    pool = generate_synthetic(120, 8, 4, 0.1, seed=1)
    tests = generate_synthetic(6, 8, 2, 0.2, seed=2)
    pool_path = tmp_path / "pool.jsonl"
    tests_path = tmp_path / "tests.bin"
    save_embeddings(pool, str(pool_path), "jsonl")
    save_embeddings(tests, str(tests_path), "binary")
    return tmp_path, pool_path, tests_path


def test_missing_input_exits_1(tmp_path, capsys):
    rc = main(["build-graph", "--input", str(tmp_path / "nope.jsonl"), "-o", str(tmp_path / "g.json")])
    assert rc == 1
    assert "nope.jsonl" in capsys.readouterr().err


def test_float32_overflow_exits_1_with_one_error_line(tmp_path, capsys):
    """A JSONL value beyond the float32 range is named as a non-finite
    value, with no numpy warning before the CLI's own message."""
    p = tmp_path / "big.jsonl"
    p.write_text('{"id": "a", "vector": [1e39, 1.0]}\n', encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["build-graph", "--input", str(p), "-o", str(tmp_path / "g.json")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: non-finite value at record 0"]


def test_bad_k_exits_2(workspace):
    tmp, pool, _ = workspace
    assert main(["build-graph", "--input", str(pool), "--k", "0", "-o", str(tmp / "g.json")]) == 2


def test_budget_exceeds_pool_exits_2(workspace):
    tmp, pool, _ = workspace
    assert main(["build-graph", "--input", str(pool), "--k", "5", "-o", str(tmp / "g.json")]) == 0
    rc = main(["select", "--input", str(tmp / "g.json"), "--method", "fastgas",
               "--K", "4", "--budget", "500", "-o", str(tmp / "s.json")])
    assert rc == 2


def test_full_pipeline_and_determinism(workspace):
    tmp, pool, tests = workspace
    assert main(["build-graph", "--input", str(pool), "--k", "10",
                 "--no-timings", "-o", str(tmp / "g.json")]) == 0

    for tag in ("a", "b"):
        assert main(["partition", "--input", str(tmp / "g.json"), "--K", "4", "--seed", "7",
                     "--no-timings", "-o", str(tmp / f"p_{tag}.json")]) == 0
        assert main(["select", "--input", str(tmp / "g.json"), "--method", "fastgas",
                     "--K", "4", "--budget", "12", "--seed", "7",
                     "--no-timings", "-o", str(tmp / f"s_{tag}.json")]) == 0
        assert main(["retrieve", "--input", str(pool), "--selection", str(tmp / "s_a.json"),
                     "--tests", str(tests), "--tests-format", "binary", "--m", "3",
                     "--seed", "7", "--no-timings", "-o", str(tmp / f"r_{tag}.json")]) == 0
    for stem in ("p", "s", "r"):
        assert (tmp / f"{stem}_a.json").read_bytes() == (tmp / f"{stem}_b.json").read_bytes()

    sel = json.loads((tmp / "s_a.json").read_text())
    assert len(sel["selected"]) == 12
    plan = json.loads((tmp / "r_a.json").read_text())
    assert len(plan["per_test"]) == 6
    assert all(len(v) == 3 for v in plan["per_test"].values())


def test_select_attaches_ids(workspace):
    """Every method names its picks: a graph method by the ids in the graph
    file, subcluster by the ids of its embeddings."""
    tmp, pool, _ = workspace
    ids = [f"syn-{i}" for i in range(120)]
    assert main(["build-graph", "--input", str(pool), "--k", "5", "-o", str(tmp / "g.json")]) == 0
    assert json.loads((tmp / "g.json").read_text())["ids"] == ids
    for method in ("fastgas", "random", "top-degree", "pagerank", "subcluster"):
        src = pool if method == "subcluster" else tmp / "g.json"
        assert main(["select", "--input", str(src), "--method", method, "--budget", "4",
                     "-o", str(tmp / "s.json")]) == 0
        sel = json.loads((tmp / "s.json").read_text())
        assert sel["selected_ids"] == [ids[i] for i in sel["selected"]], method


def test_graph_without_ids_selects_without_ids(workspace):
    tmp, pool, _ = workspace
    assert main(["build-graph", "--input", str(pool), "--k", "5", "-o", str(tmp / "g.json")]) == 0
    doc = json.loads((tmp / "g.json").read_text())
    del doc["ids"]
    (tmp / "g.json").write_text(json.dumps(doc))
    assert main(["select", "--input", str(tmp / "g.json"), "--method", "top-degree", "--budget", "4",
                 "-o", str(tmp / "s.json")]) == 0
    assert json.loads((tmp / "s.json").read_text())["selected_ids"] is None


def test_select_embeddings_flag_is_gone(workspace, capsys):
    """Ids come from the graph file, so no second embeddings file is read."""
    tmp, pool, _ = workspace
    assert main(["build-graph", "--input", str(pool), "--k", "5", "-o", str(tmp / "g.json")]) == 0
    argv = ["select", "--input", str(tmp / "g.json"), "--method", "top-degree", "-o", str(tmp / "s.json")]
    with pytest.raises(SystemExit) as e:
        main([*argv, "--embeddings", str(pool)])
    assert e.value.code == 2
    assert "unrecognized arguments: --embeddings" in capsys.readouterr().err
    assert not (tmp / "s.json").exists()


@pytest.mark.parametrize("method", ["fastgas", "random", "top-degree", "pagerank"])
def test_graph_method_rejects_format(workspace, capsys, method):
    """--format sets subcluster's embeddings format; a graph method, whose
    input is a graph JSON, exits 2 naming both settings."""
    tmp, pool, _ = workspace
    assert main(["build-graph", "--input", str(pool), "--k", "5", "-o", str(tmp / "g.json")]) == 0
    out = tmp / "s.json"
    capsys.readouterr()
    assert main(["select", "--input", str(tmp / "g.json"), "--method", method, "--budget", "4",
                 "--format", "jsonl", "-o", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: format jsonl needs method subcluster; method {method} reads a graph JSON, "
        "whose format is fixed"]
    assert not out.exists()


def test_random_retrieve_mode(workspace):
    tmp, pool, tests = workspace
    main(["build-graph", "--input", str(pool), "--k", "5", "-o", str(tmp / "g.json")])
    main(["select", "--input", str(tmp / "g.json"), "--method", "random", "--budget", "10",
          "--seed", "1", "-o", str(tmp / "s.json")])
    assert main(["retrieve", "--input", str(pool), "--selection", str(tmp / "s.json"),
                 "--tests", str(tests), "--tests-format", "binary", "--mode", "random",
                 "--m", "4", "--seed", "1", "-o", str(tmp / "r.json")]) == 0
    plan = json.loads((tmp / "r.json").read_text())
    assert plan["mode"] == "random"


def test_preset(workspace):
    tmp, pool, _ = workspace
    main(["build-graph", "--input", str(pool), "--k", "5", "-o", str(tmp / "g.json")])
    main(["select", "--input", str(tmp / "g.json"), "--method", "fastgas",
          "--preset", "paper-18", "--seed", "0", "-o", str(tmp / "s.json")])
    sel = json.loads((tmp / "s.json").read_text())
    assert sel["budget"] == 18 and sel["K"] == 6


def test_verify_subcommand(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--instances", "30", "--seed", "1", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["argmax_violations"] == 0
    assert rep["min_ratio"] >= 1 - 1 / 2.718281828


@pytest.mark.parametrize("flag,value", [("--max-n", "2"), ("--max-n", "25"), ("--max-budget", "0"),
                                        ("--instances", "-1")])
def test_verify_bad_arguments_exit_2(tmp_path, capsys, flag, value):
    assert main(["verify", flag, value, "-o", str(tmp_path / "v.json")]) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


def test_verify_zero_instances_checks_the_fixture(tmp_path):
    assert main(["verify", "--instances", "0", "-o", str(tmp_path / "v.json")]) == 0
    assert json.loads((tmp_path / "v.json").read_text())["instances"] == 1


def test_out_of_range_graph_edge_exits_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"num_vertices": 3, "k": 1, "edges": [[0, 7, 1]]}))
    assert main(["select", "--budget", "1", "--K", "1", "--input", str(g), "-o", str(tmp_path / "s.json")]) == 1
    assert "edge 0 [0, 7, 1]" in capsys.readouterr().err


def test_non_string_graph_id_exits_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"num_vertices": 3, "k": 1, "edges": [[0, 1, 1], [1, 2, 1]],
                             "ids": ["a", "b", None]}))
    assert main(["select", "--method", "random", "--budget", "1", "--input", str(g),
                 "-o", str(tmp_path / "s.json")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: bad graph JSON: id 2 null: not a string"]


def test_non_integer_graph_numbers_exit_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"num_vertices": 3, "edges": [[0, "2", 1.9], [1.7, 2, 1]]}))
    assert main(["partition", "--K", "2", "--input", str(g), "-o", str(tmp_path / "p.json")]) == 1
    assert 'edge 0 [0, "2", 1.9]: not all integers' in capsys.readouterr().err


def test_weighted_graph_cannot_be_partitioned(tmp_path):
    """A graph file has unit vertex weights: a `vertex_weights` key that an
    older build-graph wrote, or any other, is not read, so every command
    gives the same bytes with it as without it. Only a library caller can
    hand the partitioner a weighted graph, which it refuses."""
    doc = {"num_vertices": 4, "k": 1, "edges": [[0, 1, 1], [2, 3, 1]]}
    outputs = []
    for weights in (None, [1, 3, 1, 1], [1, True, "x", -1]):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(doc if weights is None else {**doc, "vertex_weights": weights}))
        for i, argv in enumerate((["partition", "--K", "2"],
                                  ["select", "--method", "fastgas", "--K", "2", "--budget", "2"],
                                  ["select", "--method", "top-degree", "--budget", "2"])):
            out = tmp_path / f"o{i}.json"
            assert main([*argv, "--input", str(g), "--no-timings", "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
    assert outputs[:3] == outputs[3:6] == outputs[6:]
    weighted = graph_from_edges(4, [(0, 1, 1), (2, 3, 1)], vertex_weights=[1, 3, 1, 1])
    with pytest.raises(FormatError, match="every vertex weight to be 1"):
        partition_kway(weighted, 2, 0)


@pytest.mark.parametrize("n, method", [(10**12, "random"), (10**20, "top-degree")])
def test_huge_graph_vertex_count_exits_1(tmp_path, capsys, n, method):
    """num_vertices beyond 2**31 - 1 exits 1 naming the count, before
    anything of that size is allocated."""
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"num_vertices": n, "edges": []}))
    out = tmp_path / "s.json"
    assert main(["select", "--method", method, "--budget", "1", "--input", str(g), "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: bad graph JSON: num_vertices {n}: above 2147483647, the most a graph holds"]
    assert not out.exists()


def test_allocation_failure_exits_1(built, monkeypatch, capsys):
    tmp, _, _ = built

    def fail(path):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "load_graph", fail)
    assert main(["select", "--method", "random", "--input", str(tmp / "g.json"), "-o", str(tmp / "o.json")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: out of memory: Unable to allocate 7.28 TiB"]


def test_empty_graph_exits_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"num_vertices": 0, "k": 1, "edges": [], "vertex_weights": []}))
    assert main(["select", "--method", "pagerank", "--budget", "0", "--input", str(g),
                 "-o", str(tmp_path / "s.json")]) == 1
    assert "num_vertices 0: a graph needs at least one vertex" in capsys.readouterr().err


def test_subcluster_on_duplicate_rows(tmp_path):
    pool, out = tmp_path / "pool.jsonl", tmp_path / "s.json"
    pool.write_text("".join(json.dumps({"id": f"d{i}", "vector": v}) + "\n"
                            for i, v in enumerate([[1, 0]] * 5 + [[0, 1]])))
    assert main(["select", "--method", "subcluster", "--K", "1", "--budget", "4", "--input", str(pool),
                 "-o", str(out)]) == 0
    assert len(set(json.loads(out.read_text())["selected"])) == 4


def test_verify_has_no_preset_or_threads(tmp_path, capsys):
    """No preset key applies to verify, which runs on one thread."""
    out = tmp_path / "v.json"
    argv = ["verify", "--instances", "3", "-o", str(out)]
    for flag, value in (("--preset", "paper-18"), ("--threads", "2")):
        with pytest.raises(SystemExit) as e:
            main([*argv, flag, value])
        assert e.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_fastgas_bench_exits_2(tmp_path, capsys):
    """The benchmark is `perfbench/run.py`: the package has no timing
    harness of its own."""
    out = tmp_path / "b.json"
    with pytest.raises(SystemExit) as e:
        main(["bench", "-o", str(out)])
    assert e.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["build-graph", "--input", "pool.jsonl"],
    ["partition", "--input", "g.json"],
    ["select", "--input", "g.json"],
    ["retrieve", "--input", "pool.jsonl", "--selection", "s.json", "--tests", "t.jsonl"],
    ["bench"],
    ["verify"],
])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_2(argv, threads, tmp_path, capsys):
    """A thread count below one exits 2; verify, which runs on one thread,
    has no --threads flag, and bench is no subcommand, so argparse refuses
    both with the same code."""
    out = tmp_path / "out.json"
    argv = [*argv, "--threads", threads, "-o", str(out)]
    refused = {"verify": "unrecognized arguments: --threads", "bench": "invalid choice: 'bench'"}
    if argv[0] in refused:
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert refused[argv[0]] in capsys.readouterr().err
    else:
        assert main(argv) == 2
        assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats() | st.sampled_from([1e300, 0.1, -0.0, 1e-320])
)
_int_rows = st.integers(0, 4).flatmap(
    lambda w: st.lists(st.lists(st.integers(), min_size=w, max_size=w), max_size=6))
_json_values = st.recursive(
    _json_scalars | _int_rows | st.lists(st.integers()) | st.lists(st.text()),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text() | st.integers(), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_write_json_matches_json_dumps(obj):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        _write_json(None, obj)
    assert buf.getvalue() == json.dumps(obj, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(lambda w: st.tuples(st.just(w), st.lists(
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=w, max_size=w), max_size=9))),
    st.integers(1, 4))
def test_write_json_writes_int_arrays_as_lists(shape, chunk):
    """An int64 array such as the graph's edges is written as the list of
    its rows, however its rows fall into chunks."""
    width, rows = shape
    array = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), mock.patch.object(cli, "_ENCODE_ROWS", chunk):
        _write_json(None, {"edges": array})
    assert buf.getvalue() == json.dumps({"edges": rows}, indent=2) + "\n"


@pytest.fixture
def built(workspace):
    tmp, pool, tests = workspace
    assert main(["build-graph", "--input", str(pool), "--k", "5", "-o", str(tmp / "g.json")]) == 0
    assert main(["select", "--input", str(tmp / "g.json"), "--method", "random", "--budget", "6",
                 "-o", str(tmp / "s.json")]) == 0
    return tmp, pool, tests


def _argv(command, tmp, pool, tests):
    return {
        "build-graph": ["build-graph", "--input", str(pool)],
        "select": ["select", "--input", str(tmp / "g.json")],
        "retrieve": ["retrieve", "--input", str(pool), "--tests", str(tests),
                     "--tests-format", "binary", "--selection", str(tmp / "s.json")],
        "partition": ["partition", "--input", str(tmp / "g.json")],
        "verify": ["verify", "--max-n", "5", "--instances", "3"],
    }[command]


@pytest.mark.parametrize("timings", [[], ["--no-timings"]])
@pytest.mark.parametrize("command, call", [
    ("build-graph", "knn"), ("partition", "partition"), ("select", "select"),
    ("retrieve", "retrieve"), ("verify", "verify"),
])
def test_output_times_its_one_library_call(built, command, call, timings):
    """Each output file is indented JSON whose `timings_ms` holds the wall
    time of the command's one library call, and nothing under --no-timings."""
    tmp, pool, tests = built
    out = tmp / "out.json"
    assert main([*_argv(command, tmp, pool, tests), *timings, "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    if timings:
        assert "timings_ms" not in doc
    else:
        assert list(doc["timings_ms"]) == [call] and doc["timings_ms"][call] >= 0


def test_only_the_cli_reads_a_clock():
    """Timing stays out of the library: no other module imports `time`."""
    for path in Path(cli.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert ("time" in modules) == (path.name == "cli.py"), path.name


def test_every_raise_names_one_exit_code():
    """One error class per exit code: every raise in the package names
    FormatError, InvalidParameter or InternalError, or re-raises, and no
    module defines another exception class."""
    assert {c: c.exit_code for c in FastgasError.__subclasses__()} == {
        FormatError: 1, InvalidParameter: 2, InternalError: 3}
    allowed = {"FormatError", "InvalidParameter", "InternalError"}
    for path in Path(cli.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                assert isinstance(node.exc, ast.Call) and getattr(node.exc.func, "id", None) in allowed, \
                    (path.name, node.lineno)
        classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
        if path.name == "errors.py":
            assert classes == ["FastgasError", "FormatError", "InvalidParameter", "InternalError"]
        elif classes:
            module = importlib.import_module(f"fastgas.{path.stem}")
            assert not [c for c in classes if issubclass(getattr(module, c), BaseException)], path.name


# (subcommand, flag) pairs that are accepted but never read, each named by a
# FOUND line in CHANGES.md: nothing seeds build-graph, no preset key is a
# retrieve flag, and only build-graph runs threads. The benchmark
# passes all of them, so each can go only with a benchmark change.
_UNREAD_FLAGS = {
    ("build-graph", "seed"), ("retrieve", "preset"),
    ("partition", "threads"), ("select", "threads"), ("retrieve", "threads"),
}


def test_every_flag_is_read():
    """Every flag of every subcommand is read as `args.<dest>` in its
    `_cmd_*` or in the `_write_output` that it calls, and `--preset` sets at
    least one of its flags, but for the `_UNREAD_FLAGS`. A flag that only
    some of a command's paths read passes here: select's --K, which the
    methods without parts reject when it is given (see
    `test_k_without_parts_exits_2`), and its --seed, which top-degree and
    pagerank ignore (ROADMAP item 6)."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(name):
        fn = functions[name]
        calls = {node.func.id for node in ast.walk(fn) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)}
        return {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"} | (
            reads("_write_output") if "_write_output" in calls else set())

    preset_keys = {key for preset in cli.PRESETS.values() for key in preset}
    unread = set()
    for command, sp in cli._build_parser()[1].items():
        dests = {action.dest for action in sp._actions} - {"help"}
        used = reads(sp.get_default("run").__name__) | ({"preset"} if preset_keys & dests else set())
        unread |= {(command, dest) for dest in dests - used}
    assert unread == _UNREAD_FLAGS


@pytest.mark.parametrize("command", ["build-graph", "partition", "select", "retrieve", "verify"])
def test_config_flag_is_gone(tmp_path, capsys, command):
    """A setting comes from its flag, the preset or its default: no
    subcommand reads a config file."""
    (tmp_path / "c.json").write_text(json.dumps({"seed": 1}))
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as e:
        main([*_argv(command, tmp_path, tmp_path / "pool.jsonl", tmp_path / "tests.bin"),
              "--config", str(tmp_path / "c.json"), "-o", str(out)])
    assert e.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


def test_start_up_leaves_out_bench_csv_and_thread_pools():
    """`import fastgas.cli`, which every stage pays for, loads none of the
    modules that only verify and a multi-threaded kNN use, nor `csv`."""
    code = ("import sys, fastgas.cli; "
            "print(*[m for m in ('concurrent.futures', 'csv', 'fastgas.verify') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


@pytest.mark.parametrize("value", ["abc", "5"])
def test_fastgas_seed_env_is_ignored(built, monkeypatch, value):
    tmp, _, _ = built
    argv = ["select", "--input", str(tmp / "g.json"), "--method", "random", "--no-timings"]
    assert main([*argv, "-o", str(tmp / "a.json")]) == 0
    monkeypatch.setenv("FASTGAS_SEED", value)
    assert main([*argv, "-o", str(tmp / "b.json")]) == 0
    assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()


@pytest.mark.parametrize("command, flag", [
    ("select", "--epsilon"), ("select", "--damping"), ("select", "--tol"), ("select", "--max-iters"),
    ("partition", "--epsilon"),
])
def test_removed_setting_exits_2(built, capsys, command, flag):
    """The balance tolerance and PageRank's damping, tolerance and step
    limit are constants: no flag sets them."""
    tmp, _, _ = built
    out = tmp / "o.json"
    argv = [command, "--input", str(tmp / "g.json"), "-o", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_retrieve_order_flag_is_gone(built, capsys):
    """A plan always lists each test's examples from least to most similar,
    so no flag sets the order."""
    tmp, pool, tests = built
    out = tmp / "r.json"
    with pytest.raises(SystemExit) as e:
        main([*_argv("retrieve", tmp, pool, tests), "--order", "asc", "-o", str(out)])
    assert e.value.code == 2
    assert "unrecognized arguments: --order" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["select", "--method", "subcluster", "--input", "{pool}", "--K", "10", "--budget", "5"],
])
def test_subcluster_budget_below_k_exits_2(built, capsys, argv):
    tmp, pool, _ = built
    out = tmp / "o.json"
    assert main([*(a.format(pool=pool) for a in argv), "-o", str(out)]) == 2
    assert ("subcluster needs a budget of at least K = 10, one instance per cluster; got budget 5"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("method", ["random", "top-degree", "pagerank"])
def test_k_without_parts_exits_2(built, capsys, method):
    """A method that makes no parts refuses an explicit --K, naming both
    settings; a preset's K, which every select argv of the benchmark
    carries, passes."""
    tmp, _, _ = built
    out = tmp / "o.json"
    argv = ["select", "--input", str(tmp / "g.json"), "--method", method, "--budget", "4", "-o", str(out)]
    for k, value in ((["--K", "7"], 7), (["--K=2", "--preset", "paper-100"], 2)):
        assert main([*argv, *k]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: K {value} needs method fastgas or subcluster; method {method} picks from the whole "
            "pool, in no parts"]
        assert not out.exists()
    assert main([*argv, "--preset", "paper-18"]) == 0


def test_preset_and_flags_both_apply(built):
    """Presets carry no seed, so the seed keeps its default under a preset."""
    tmp, _, _ = built
    assert main(["select", "--input", str(tmp / "g.json"), "--preset", "paper-18",
                 "--no-timings", "-o", str(tmp / "s.json")]) == 0
    sel = json.loads((tmp / "s.json").read_text())
    assert (sel["budget"], sel["K"], sel["seed"]) == (18, 6, 0)
    assert main(["select", "--input", str(tmp / "g.json"), "--preset", "paper-18", "--K", "3",
                 "--seed", "2", "--no-timings", "-o", str(tmp / "s.json")]) == 0
    sel = json.loads((tmp / "s.json").read_text())
    assert (sel["budget"], sel["K"], sel["seed"]) == (18, 3, 2)


@pytest.mark.parametrize("doc", [
    {"method": "random"},
    {"selected": [0, -1]},
    {"selected": [0, 120]},
    {"selected": [0, True]},
    {"selected": "0,1"},
    [0, 1],
    # a file's text: nested deeper than the JSON parser recurses
    pytest.param("[" * 100000 + "]" * 100000, id="deep"),
])
@pytest.mark.parametrize("mode", ["similar", "random"])
def test_bad_selection_file_exits_1(built, capsys, doc, mode):
    tmp, pool, tests = built
    sel = tmp / "bad-sel.json"
    sel.write_text(doc if type(doc) is str else json.dumps(doc))
    assert main(["retrieve", "--input", str(pool), "--tests", str(tests), "--tests-format", "binary",
                 "--selection", str(sel), "--mode", mode, "-o", str(tmp / "r.json")]) == 1
    assert "bad-sel.json" in capsys.readouterr().err


def test_repeated_selection_index_exits_1(built, capsys):
    tmp, pool, tests = built
    sel = tmp / "repeat.json"
    sel.write_text(json.dumps({"selected": [1, 1, 2]}))
    assert main(["retrieve", "--input", str(pool), "--tests", str(tests), "--tests-format", "binary",
                 "--selection", str(sel), "--m", "3", "-o", str(tmp / "r.json")]) == 1
    assert f"{sel}: selected[1] = 1 repeats an earlier entry" in capsys.readouterr().err


@pytest.mark.parametrize("change, words", [
    ("another pool", 'selected_ids[0] is "syn-'),
    ("renamed", 'selected_ids[2] is "elsewhere", but the pool\'s id at selected[2]'),
    ("shorter", "5 selected_ids for 6 selected"),
    ("string", '"selected_ids" must be null or a list of pool ids'),
])
def test_selection_from_another_pool_exits_1(built, capsys, change, words):
    """`retrieve` checks a selection's selected_ids against the pool: a
    selection made on another pool of the same size is refused and the
    first mismatch named."""
    tmp, pool, tests = built
    sel = tmp / "named.json"
    assert main(["select", "--input", str(tmp / "g.json"), "--method", "random", "--budget", "6",
                 "-o", str(sel)]) == 0
    argv = ["retrieve", "--input", str(pool), "--tests", str(tests), "--tests-format", "binary",
            "--selection", str(sel), "-o", str(tmp / "r.json")]
    assert main(argv) == 0
    doc = json.loads(sel.read_text())
    if change == "another pool":
        # the same vectors under other ids, in the reverse order
        other = generate_synthetic(120, 8, 4, 0.1, seed=1)
        other = EmbeddingMatrix(ids=[f"x{i}" for i in range(120)][::-1], vectors=other.vectors[::-1])
        save_embeddings(other, str(tmp / "other.jsonl"), "jsonl")
        argv[2] = str(tmp / "other.jsonl")
    elif change == "renamed":
        doc["selected_ids"][2] = "elsewhere"
    elif change == "shorter":
        doc["selected_ids"].pop()
    else:
        doc["selected_ids"] = "syn-0"
    sel.write_text(json.dumps(doc))
    assert main(argv) == 1
    assert words in capsys.readouterr().err


@pytest.mark.parametrize("method", ["fastgas", "random", "top-degree", "pagerank"])
def test_selection_from_another_pools_graph_exits_1(built, capsys, method):
    """A graph method names its picks by the graph's ids, so `retrieve`
    refuses a selection made on another pool's graph with no extra flag."""
    tmp, pool, tests = built
    other = generate_synthetic(100, 8, 4, 0.1, seed=5)
    other = EmbeddingMatrix(ids=[f"other-{i}" for i in range(100)], vectors=other.vectors)
    save_embeddings(other, str(tmp / "other.jsonl"), "jsonl")
    assert main(["build-graph", "--input", str(tmp / "other.jsonl"), "--k", "5",
                 "-o", str(tmp / "other-g.json")]) == 0
    sel = tmp / "other-s.json"
    assert main(["select", "--input", str(tmp / "other-g.json"), "--method", method, "--budget", "6",
                 "-o", str(sel)]) == 0
    first = json.loads(sel.read_text())["selected"][0]
    out = tmp / "r.json"
    capsys.readouterr()
    assert main(["retrieve", "--input", str(pool), "--tests", str(tests), "--tests-format", "binary",
                 "--selection", str(sel), "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f'error: {sel}: selected_ids[0] is "other-{first}", but the pool\'s id at selected[0] = '
        f'{first} is "syn-{first}"']
    assert not out.exists()


@pytest.mark.parametrize("args, words", [
    (["select", "--method", "pagerank", "--budget", "-1"], "budget -1 outside [1, 120]"),
    (["select", "--method", "fastgas", "--budget", "0"], "budget 0 outside [1, 120]"),
    (["partition", "--K", "121"], "K must satisfy 1 <= K <= 120, got 121"),
    (["select", "--method", "random", "--budget", "-1"], "budget -1 outside"),
    (["select", "--method", "top-degree", "--budget", "-1"], "budget -1 outside"),
    (["select", "--method", "fastgas", "--K", "0", "--budget", "5"], "K must satisfy 1 <= K <= 120, got 0"),
    (["select", "--method", "random", "--budget", "0"], "budget 0 outside [1, 120]"),
    (["select", "--method", "top-degree", "--budget", "0"], "budget 0 outside [1, 120]"),
    (["select", "--method", "pagerank", "--budget", "0"], "budget 0 outside [1, 120]"),
])
def test_bad_library_parameter_exits_2(built, capsys, args, words):
    tmp, _, _ = built
    assert main([*args, "--input", str(tmp / "g.json"), "-o", str(tmp / "o.json")]) == 2
    assert words in capsys.readouterr().err


@pytest.mark.parametrize("command, args, message", [
    ("build-graph", ["--k", "0"], "k must satisfy 1 <= k <= N-1, got k=0, N=120"),
    ("retrieve", ["--m", "0"], "m must be >= 1, got 0"),
    ("retrieve", ["--selection", "empty.json"], "no selected instances to retrieve from"),
])
def test_bad_command_parameter_exits_2(built, capsys, command, args, message):
    tmp, pool, tests = built
    (tmp / "empty.json").write_text(json.dumps({"selected": []}))
    args = [str(tmp / a) if a.endswith(".json") else a for a in args]
    assert main([*_argv(command, tmp, pool, tests), *args, "-o", str(tmp / "o.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_tests_of_another_dimension_exit_1(built, capsys):
    tmp, pool, _ = built
    save_embeddings(generate_synthetic(3, 4, 1, 0.2, seed=0), str(tmp / "t4.jsonl"), "jsonl")
    assert main(["retrieve", "--input", str(pool), "--tests", str(tmp / "t4.jsonl"),
                 "--selection", str(tmp / "s.json"), "-o", str(tmp / "r.json")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: pool dim 8 != test dim 4"]


@pytest.mark.parametrize("ident", [None, 7, ["a"]])
def test_non_string_jsonl_id_exits_1(tmp_path, capsys, ident):
    p = tmp_path / "pool.jsonl"
    p.write_text(json.dumps({"id": "a", "vector": [1, 0]}) + "\n"
                 + json.dumps({"id": ident, "vector": [0, 1]}) + "\n", encoding="utf-8")
    assert main(["build-graph", "--input", str(p), "--k", "1", "-o", str(tmp_path / "g.json")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: record 1: 'id' must be a string"]


@pytest.mark.parametrize("case", ["random", "subcluster", "verify"])
def test_negative_seed_is_accepted(built, case):
    tmp, pool, _ = built
    argv = {
        "random": ["select", "--method", "random", "--input", str(tmp / "g.json")],
        "subcluster": ["select", "--method", "subcluster", "--input", str(pool)],
        "verify": ["verify", "--instances", "5"],
    }[case]
    assert main([*argv, "--seed", "-1", "-o", str(tmp / "o.json")]) == 0


@pytest.fixture(scope="module")
def tiny_pool(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    save_embeddings(generate_synthetic(40, 4, 4, 0.2, seed=3), str(tmp / "pool.jsonl"), "jsonl")
    save_embeddings(generate_synthetic(3, 4, 2, 0.2, seed=4), str(tmp / "tests.jsonl"), "jsonl")
    assert main(["build-graph", "--input", str(tmp / "pool.jsonl"), "--k", "4",
                 "-o", str(tmp / "g.json")]) == 0
    (tmp / "s.json").write_text(json.dumps({"selected": [0, 5, 17, 39]}))
    return tmp


def _flag_argv(command: str, flags: dict) -> list[str]:
    """`command` with `flags`, each written `--flag=value` so a negative
    value is not read as a flag, and a switch drawn as True as itself."""
    return [command, *(flag if value is True else f"{flag}={value}" for flag, value in flags.items())]


# select's and retrieve's flags, edge values included
_common = {"--seed": st.integers(-3, 5), "--threads": st.integers(-1, 3), "--no-timings": st.just(True),
           "--format": st.sampled_from(["jsonl", "binary"]),
           "--preset": st.sampled_from(["paper-18", "paper-100"])}
_select_flags = st.fixed_dictionaries({}, optional={
    **_common, "--budget": st.integers(-2, 45), "--K": st.integers(-1, 45),
})
_retrieve_flags = st.fixed_dictionaries({}, optional={
    **_common, "--tests-format": st.sampled_from(["jsonl", "binary"]), "--m": st.integers(-1, 6),
})


@settings(max_examples=150, deadline=None)
@given(select=_select_flags, retrieve=_retrieve_flags)
def test_random_select_and_retrieve_flags_never_traceback(tiny_pool, select, retrieve):
    tmp = tiny_pool
    # every method and mode meets every draw of the other flags
    argvs = [[*_flag_argv("select", select), "--input", str(tmp / "g.json"), "--method", method]
             for method in ("fastgas", "random", "top-degree", "pagerank", "subcluster")]
    argvs += [[*_flag_argv("retrieve", retrieve), "--input", str(tmp / "pool.jsonl"),
               "--tests", str(tmp / "tests.jsonl"), "--selection", str(tmp / "s.json"), "--mode", mode]
              for mode in ("similar", "random")]
    for argv in argvs:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([*argv, "-o", str(tmp / "out.json")])
        assert rc in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


# verify's flags, edge values included; its budget stays small enough for
# the exhaustive oracle
_verify_budgets = (st.fixed_dictionaries({"--max-n": st.integers(-1, 25), "--max-budget": st.integers(-1, 3)})
                   | st.fixed_dictionaries({"--max-n": st.integers(-1, 6), "--max-budget": st.integers(4, 30)}))
_verify_argvs = st.builds(lambda budgets, flags: _flag_argv("verify", {**budgets, **flags}), _verify_budgets,
                          st.fixed_dictionaries({"--instances": st.integers(-1, 20)},
                                                optional={"--seed": st.integers(-3, 5),
                                                          "--no-timings": st.just(True)}))


@settings(max_examples=100, deadline=None)
@given(argv=_verify_argvs)
def test_random_bench_and_verify_flags_never_traceback(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("run") / "out.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([*argv, "-o", str(out)])
    assert rc in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    pool = generate_synthetic(30, 4, 3, 0.2, seed=5)
    save_embeddings(pool, str(tmp / "pool.jsonl"), "jsonl")
    save_embeddings(pool, str(tmp / "pool.bin"), "binary")
    save_embeddings(generate_synthetic(5, 4, 2, 0.2, seed=6), str(tmp / "tests.jsonl"), "jsonl")
    assert main(["build-graph", "--input", str(tmp / "pool.jsonl"), "--k", "3", "--no-timings",
                 "-o", str(tmp / "g.json")]) == 0
    assert main(["select", "--input", str(tmp / "g.json"), "--K", "3", "--budget", "4",
                 "--no-timings", "-o", str(tmp / "s.json")]) == 0
    return tmp, {kind: (tmp / name).read_bytes()
                 for kind, name in (("jsonl", "pool.jsonl"), ("binary", "pool.bin"), ("graph", "g.json"),
                                    ("selection", "s.json"), ("tests", "tests.jsonl"))}


_numbers_re = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_values = st.sampled_from([b"-1", b"0", b"1", b"2", b"29", b"30", b"99999", b"1e999", b"-0.5", b"NaN",
                           b"null", b"true", b'"1"', b"[]", b"[1]", b"{}"])
_tokens = _values | st.sampled_from([b",", b"]", b"\xff", b"\x00", b"\n", b""])


@st.composite
def _mutations(draw, data: bytes):
    """`data` after a few edits: a number replaced by another JSON value, a
    byte or a span replaced, a span deleted or repeated, the end cut off, or
    a token appended."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["number"] * 5 + ["byte", "span", "delete", "repeat", "truncate",
                                                      "append"]))
        numbers = list(_numbers_re.finditer(data))
        if kind == "number" and numbers:
            m = numbers[draw(st.integers(0, len(numbers) - 1))]
            data = data[:m.start()] + draw(_values) + data[m.end():]
            continue
        a = draw(st.integers(0, len(data)))
        b = draw(st.integers(a, min(len(data), a + 64)))
        if kind == "byte":
            data = data[:a] + bytes([draw(st.integers(0, 255))]) + data[a + 1:]
        elif kind == "span":
            data = data[:a] + draw(_tokens) + data[b:]
        elif kind == "delete":
            data = data[:a] + data[b:]
        elif kind == "repeat":
            data = data[:b] + data[a:b] + data[b:]
        elif kind == "truncate":
            data = data[:a]
        else:
            data += draw(_tokens)
    return data


# per kind of mutated file: the flag that takes it, and the argvs to run;
# "{tmp}" stands for the directory of the unmutated files
_retrieve = ["retrieve", "--input", "{tmp}/pool.jsonl"]
_fuzz_argvs = {
    "jsonl": ("--input", [["build-graph", "--k", "3"],
                          ["select", "--method", "subcluster", "--K", "3", "--budget", "4"]]),
    "binary": ("--input", [["build-graph", "--k", "3", "--format", "binary"]]),
    "graph": ("--input", [["select", "--method", "fastgas", "--K", "3", "--budget", "4"]]
              + [["select", "--method", method, "--budget", "4"] for method in ("random", "top-degree", "pagerank")]
              + [["partition", "--K", "3"]]),
    "selection": ("--selection", [[*_retrieve, "--tests", "{tmp}/tests.jsonl", "--mode", mode]
                                  for mode in ("similar", "random")]),
    "tests": ("--tests", [[*_retrieve, "--selection", "{tmp}/s.json", "--mode", mode]
                          for mode in ("similar", "random")]),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_fuzz_argvs)))
def test_mutated_input_files_never_traceback(fuzz_inputs, data, kind):
    tmp, originals = fuzz_inputs
    path = tmp / f"mutated.{kind}"
    path.write_bytes(data.draw(_mutations(originals[kind])))
    flag, argvs = _fuzz_argvs[kind]
    for argv in argvs:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            argv = [a.format(tmp=tmp) for a in argv]
            rc = main([*argv, flag, str(path), "-o", str(tmp / "out.json")])
        assert rc in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
