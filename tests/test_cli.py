import contextlib
import io
import json
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastgas import cli
from fastgas.cli import _write_json, main
from fastgas.embeddings import EmbeddingMatrix, generate_synthetic, save_embeddings


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
                     "--seed", "7", "-o", str(tmp / f"r_{tag}.json")]) == 0
    for stem in ("p", "s", "r"):
        assert (tmp / f"{stem}_a.json").read_bytes() == (tmp / f"{stem}_b.json").read_bytes()

    sel = json.loads((tmp / "s_a.json").read_text())
    assert len(sel["selected"]) == 12
    plan = json.loads((tmp / "r_a.json").read_text())
    assert len(plan["per_test"]) == 6
    assert all(len(v) == 3 for v in plan["per_test"].values())


def test_select_attaches_ids(workspace):
    tmp, pool, _ = workspace
    main(["build-graph", "--input", str(pool), "--k", "5", "-o", str(tmp / "g.json")])
    main(["select", "--input", str(tmp / "g.json"), "--method", "top-degree", "--budget", "4",
          "--embeddings", str(pool), "-o", str(tmp / "s.json")])
    sel = json.loads((tmp / "s.json").read_text())
    assert all(i.startswith("syn-") for i in sel["selected_ids"])


@pytest.mark.parametrize("method", ["top-degree", "subcluster"])
def test_select_embeddings_of_another_size_exits_1(workspace, capsys, method):
    tmp, pool, _ = workspace
    short = tmp / "short.jsonl"
    save_embeddings(generate_synthetic(5, 8, 2, 0.1, seed=3), str(short), "jsonl")
    main(["build-graph", "--input", str(pool), "--k", "5", "-o", str(tmp / "g.json")])
    src = pool if method == "subcluster" else tmp / "g.json"
    assert main(["select", "--input", str(src), "--method", method, "--budget", "10",
                 "--embeddings", str(short), "-o", str(tmp / "s.json")]) == 1
    err = capsys.readouterr().err
    assert f"{short}: 5 embeddings for the 120 vertices of {src}" in err
    assert not (tmp / "s.json").exists()


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


def test_config_file_precedence(workspace):
    tmp, pool, _ = workspace
    main(["build-graph", "--input", str(pool), "--k", "5", "-o", str(tmp / "g.json")])
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"budget": 6, "seed": 3}))
    main(["select", "--input", str(tmp / "g.json"), "--method", "random",
          "--config", str(cfg), "-o", str(tmp / "s1.json")])
    assert len(json.loads((tmp / "s1.json").read_text())["selected"]) == 6
    # flag overrides config
    main(["select", "--input", str(tmp / "g.json"), "--method", "random",
          "--config", str(cfg), "--budget", "9", "-o", str(tmp / "s2.json")])
    assert len(json.loads((tmp / "s2.json").read_text())["selected"]) == 9


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
    g.write_text(json.dumps({"num_vertices": 3, "k": 1, "edges": [[0, 7, 1]], "vertex_weights": [1, 1, 1]}))
    assert main(["select", "--budget", "1", "--K", "1", "--input", str(g), "-o", str(tmp_path / "s.json")]) == 1
    assert "edge 0 [0, 7, 1]" in capsys.readouterr().err


def test_non_integer_graph_numbers_exit_1(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"num_vertices": 3, "edges": [[0, "2", 1.9], [1.7, 2, 1]],
                             "vertex_weights": [1, True, 1.5]}))
    assert main(["partition", "--K", "2", "--input", str(g), "-o", str(tmp_path / "p.json")]) == 1
    assert 'edge 0 [0, "2", 1.9]: not all integers' in capsys.readouterr().err


def test_weighted_graph_cannot_be_partitioned(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"num_vertices": 4, "k": 1, "edges": [[0, 1, 1], [2, 3, 1]],
                             "vertex_weights": [1, 3, 1, 1]}))
    for argv in (["partition"], ["select", "--method", "fastgas", "--budget", "2"]):
        assert main([*argv, "--K", "2", "--input", str(g), "-o", str(tmp_path / "o.json")]) == 2
        assert "vertex weight" in capsys.readouterr().err
    assert main(["select", "--method", "top-degree", "--budget", "2", "--input", str(g),
                 "-o", str(tmp_path / "o.json")]) == 0


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


def test_bench_rejects_no_timings(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["bench", "--sizes", "60", "--budget", "6", "--no-timings", "-o", str(out)]) == 2
    assert "--no-timings" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["report.csv", "report.v2.csv"])
def test_bench_refuses_a_json_path_that_is_its_csv_path(tmp_path, capsys, name):
    # the CSV goes to the JSON path with the suffix .csv, which would
    # overwrite a report whose path already has it
    out = tmp_path / name
    assert main(["bench", "--sizes", "60", "--budget", "6", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out.with_suffix(".csv")) in err and "Traceback" not in err
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_bench_subcommand(tmp_path):
    out = tmp_path / "b.json"
    assert main(["bench", "--sizes", "200,400", "--budget", "20", "--K", "4",
                 "--d", "8", "--seed", "0", "-o", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert [r["n"] for r in rep["rows"]] == [200, 400]
    assert len(rep["per_doubling_ratios"]) == 1
    assert (tmp_path / "b.csv").exists()


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
    out = tmp_path / "out.json"
    assert main([*argv, "--threads", threads, "-o", str(out)]) == 2
    assert f"--threads must be at least 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_threads_below_one_from_config_exits_2(workspace, capsys):
    tmp, pool, _ = workspace
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"threads": 0}))
    assert main(["build-graph", "--input", str(pool), "--config", str(cfg),
                 "-o", str(tmp / "g.json")]) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err


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
        _write_json(None, {"edges": array, "n": [array]})
    assert buf.getvalue() == json.dumps({"edges": rows, "n": [rows]}, indent=2) + "\n"


@pytest.mark.parametrize("timings", [[], ["--no-timings"]])
def test_build_graph_output_is_indented_json(workspace, timings):
    tmp, pool, _ = workspace
    out = tmp / "g.json"
    assert main(["build-graph", "--input", str(pool), "--k", "5", *timings, "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert ("timings_ms" in doc) == (not timings)
    assert text == json.dumps(doc, indent=2) + "\n"


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
        "bench": ["bench", "--sizes", "100"],
    }[command]


@pytest.mark.parametrize("command, text, words", [
    ("select", "{bad", ["cannot read"]),
    ("select", "[1, 2]", ["expected a JSON object"]),
    ("build-graph", '{"k": "abc"}', ["'k'", "an integer"]),
    ("select", '{"budgte": 5}', ["'budgte'", "unknown key"]),
    ("retrieve", '{"mode": "nope"}', ["'mode'", "one of similar, random"]),
    ("select", '{"budget": 6.7}', ["'budget'", "an integer"]),
    ("select", '{"budget": true}', ["'budget'", "an integer"]),
    ("select", '{"damping": "0.5"}', ["'damping'", "unknown key"]),
    ("select", '{"no_timings": 1}', ["'no_timings'", "true or false"]),
    ("select", '{"epsilon": 0.5}', ["'epsilon'", "unknown key"]),
    ("select", '{"input": "g.json"}', ["'input'", "unknown key"]),
    ("select", '{"config": "c.json"}', ["'config'", "unknown key"]),
    ("retrieve", '{"budget": 5}', ["'budget'", "unknown key"]),
    ("bench", '{"sizes": "1,x"}', ["'sizes'", "comma-separated"]),
    ("bench", '{"sizes": [100]}', ["'sizes'", "comma-separated"]),
])
def test_bad_config_exits_2(built, capsys, command, text, words):
    tmp, pool, tests = built
    cfg = tmp / "cfg.json"
    cfg.write_text(text)
    out = tmp / "out.json"
    assert main([*_argv(command, tmp, pool, tests), "--config", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and all(w in err for w in words), err
    assert not out.exists()


def test_missing_config_exits_2(built, capsys):
    tmp, pool, tests = built
    assert main(["select", "--input", str(tmp / "g.json"), "--config", str(tmp / "nope.json"),
                 "-o", str(tmp / "out.json")]) == 2
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "5"])
def test_fastgas_seed_env_is_ignored(built, monkeypatch, value):
    tmp, _, _ = built
    argv = ["select", "--input", str(tmp / "g.json"), "--method", "random", "--no-timings"]
    assert main([*argv, "-o", str(tmp / "a.json")]) == 0
    monkeypatch.setenv("FASTGAS_SEED", value)
    assert main([*argv, "-o", str(tmp / "b.json")]) == 0
    assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()


def test_config_no_timings_takes_effect(built):
    tmp, _, _ = built
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"no_timings": True}))
    assert main(["select", "--input", str(tmp / "g.json"), "--config", str(cfg),
                 "-o", str(tmp / "out.json")]) == 0
    assert "timings_ms" not in json.loads((tmp / "out.json").read_text())


@pytest.mark.parametrize("command, flag", [
    ("select", "--epsilon"), ("select", "--damping"), ("select", "--tol"), ("select", "--max-iters"),
    ("partition", "--epsilon"),
])
def test_removed_setting_exits_2(built, capsys, command, flag):
    """The balance tolerance and PageRank's damping, tolerance and step
    limit are constants: neither a flag nor a config key sets them."""
    tmp, _, _ = built
    out = tmp / "o.json"
    argv = [command, "--input", str(tmp / "g.json"), "-o", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    key = flag[2:].replace("-", "_")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    assert main([*argv, "--config", str(cfg)]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flags", "config"])
def test_random_retrieve_rejects_desc_order(built, capsys, source):
    tmp, pool, tests = built
    settings = {"mode": "random", "order": "desc"}
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(settings))
    given = ["--config", str(cfg)] if source == "config" else [
        f"--{key}={value}" for key, value in settings.items()]
    out = tmp / "r.json"
    assert main([*_argv("retrieve", tmp, pool, tests), *given, "-o", str(out)]) == 2
    assert "order desc needs mode similar; mode random" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["select", "--method", "subcluster", "--input", "{pool}", "--K", "10", "--budget", "5"],
    ["bench", "--sizes", "60", "--K", "10", "--budget", "5"],
])
def test_subcluster_budget_below_k_exits_2(built, capsys, argv):
    tmp, pool, _ = built
    out = tmp / "o.json"
    assert main([*(a.format(pool=pool) for a in argv), "-o", str(out)]) == 2
    assert ("subcluster needs a budget of at least K = 10, one instance per cluster; got budget 5"
            in capsys.readouterr().err)
    assert not out.exists()


def test_config_beats_preset(built):
    tmp, _, _ = built
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"budget": 7, "seed": 9}))
    assert main(["select", "--input", str(tmp / "g.json"), "--preset", "paper-18",
                 "--config", str(cfg), "--no-timings", "-o", str(tmp / "s.json")]) == 0
    sel = json.loads((tmp / "s.json").read_text())
    assert (sel["budget"], sel["K"], sel["seed"]) == (7, 6, 9)


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
])
@pytest.mark.parametrize("mode", ["similar", "random"])
def test_bad_selection_file_exits_1(built, capsys, doc, mode):
    tmp, pool, tests = built
    sel = tmp / "bad-sel.json"
    sel.write_text(json.dumps(doc))
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
                 "--embeddings", str(pool), "-o", str(sel)]) == 0
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


@pytest.mark.parametrize("args, words", [
    (["select", "--method", "pagerank", "--budget", "-1"], "budget -1 outside [0, 120]"),
    (["select", "--method", "fastgas", "--budget", "0"], "budget 0 outside [1, 120]"),
    (["partition", "--K", "121"], "K must satisfy 1 <= K <= 120, got 121"),
    (["select", "--method", "random", "--budget", "-1"], "budget -1 outside"),
    (["select", "--method", "top-degree", "--budget", "-1"], "budget -1 outside"),
])
def test_bad_library_parameter_exits_2(built, capsys, args, words):
    tmp, _, _ = built
    assert main([*args, "--input", str(tmp / "g.json"), "-o", str(tmp / "o.json")]) == 2
    assert words in capsys.readouterr().err


@pytest.mark.parametrize("case", ["random", "subcluster", "verify", "bench"])
def test_negative_seed_is_accepted(built, case):
    tmp, pool, _ = built
    argv = {
        "random": ["select", "--method", "random", "--input", str(tmp / "g.json")],
        "subcluster": ["select", "--method", "subcluster", "--input", str(pool)],
        "verify": ["verify", "--instances", "5"],
        "bench": ["bench", "--sizes", "60", "--budget", "6"],
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


# plausible values of select's or retrieve's keys, edge values included
_common = {"seed": st.integers(-3, 5), "threads": st.integers(-1, 3), "no_timings": st.booleans(),
           "format": st.sampled_from(["jsonl", "binary"])}
_plausible = st.fixed_dictionaries({}, optional={
    **_common, "method": st.sampled_from(["fastgas", "random", "top-degree", "pagerank", "subcluster"]),
    "budget": st.integers(-2, 45), "K": st.integers(-1, 45),
}) | st.fixed_dictionaries({}, optional={
    **_common, "tests_format": st.sampled_from(["jsonl", "binary"]),
    "mode": st.sampled_from(["similar", "random"]), "m": st.integers(-1, 6),
    "order": st.sampled_from(["asc", "desc"]),
})
_config_keys = st.sampled_from([
    # select and retrieve keys
    "seed", "threads", "no_timings", "output", "format", "method", "budget", "K", "embeddings",
    "tests_format", "mode", "m", "order",
    # typos, removed settings, other subcommands' keys and non-flag names
    "budgte", "max-iters", "damping", "tol", "max_iters", "epsilon", "k", "sizes", "instances",
    "input", "selection", "config", "preset", "command", "",
])
_config_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 45) | st.floats() | st.text(max_size=6)
    | st.sampled_from(["jsonl", "binary", "fastgas", "random", "similar", "asc", "paper-18"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_configs = _plausible | st.builds(lambda a, b: {**a, **b}, _plausible,
                                  st.dictionaries(_config_keys, _config_values, max_size=3))


@settings(max_examples=150, deadline=None)
@given(config=_configs)
def test_random_config_never_tracebacks(tiny_pool, config):
    tmp = tiny_pool
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(config))
    # each method and mode as a flag, so every one meets every config
    argvs = [["select", "--input", str(tmp / "g.json"), "--method", method]
             for method in ("fastgas", "random", "top-degree", "pagerank", "subcluster")]
    argvs += [["retrieve", "--input", str(tmp / "pool.jsonl"), "--tests", str(tmp / "tests.jsonl"),
               "--selection", str(tmp / "s.json"), "--mode", mode] for mode in ("similar", "random")]
    for argv in argvs:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([*argv, "--config", str(cfg), "-o", str(tmp / "out.json")])
        assert rc in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


# bench and verify flags, edge values included, written `--flag=value` so a
# negative value is not read as a flag; pools stay at most 64 vectors and
# verify's budget small enough for its exhaustive oracle
_run_flags = {"--seed": st.integers(-3, 5), "--threads": st.integers(-1, 3), "--no-timings": st.just(True)}
_bench_argvs = st.fixed_dictionaries({
    "--sizes": st.lists(st.integers(-1, 64), max_size=3).map(lambda s: ",".join(map(str, s))),
}, optional={
    **_run_flags, "--d": st.integers(-1, 8), "--k": st.integers(-1, 12), "--K": st.integers(-1, 12),
    "--budget": st.integers(-1, 70), "--repeats": st.integers(-1, 2),
}).map(lambda flags: ["bench", *flags.items()])
_verify_budgets = (st.fixed_dictionaries({"--max-n": st.integers(-1, 25), "--max-budget": st.integers(-1, 3)})
                   | st.fixed_dictionaries({"--max-n": st.integers(-1, 6), "--max-budget": st.integers(4, 30)}))
_verify_argvs = st.builds(lambda budgets, flags: ["verify", *budgets.items(), *flags.items()], _verify_budgets,
                          st.fixed_dictionaries({"--instances": st.integers(-1, 20)}, optional=_run_flags))


@settings(max_examples=100, deadline=None)
@given(argv=_bench_argvs | _verify_argvs)
def test_random_bench_and_verify_flags_never_traceback(tmp_path_factory, argv):
    out = tmp_path_factory.mktemp("run") / "out.json"
    argv = [argv[0], *(flag if value is True else f"{flag}={value}" for flag, value in argv[1:])]
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
                 "--embeddings", str(tmp / "pool.jsonl"), "--no-timings", "-o", str(tmp / "s.json")]) == 0
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
    byte or a span replaced, a span deleted or repeated, or the end cut off."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["number"] * 5 + ["byte", "span", "delete", "repeat", "truncate"]))
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
        else:
            data = data[:a]
    return data


# per kind of mutated file: the flag that takes it, and the argvs to run;
# "{tmp}" stands for the directory of the unmutated files
_retrieve = ["retrieve", "--input", "{tmp}/pool.jsonl"]
_fuzz_argvs = {
    "jsonl": ("--input", [["build-graph", "--k", "3"],
                          ["select", "--method", "subcluster", "--K", "3", "--budget", "4"]]),
    "binary": ("--input", [["build-graph", "--k", "3", "--format", "binary"]]),
    "graph": ("--input", [["select", "--method", method, "--K", "3", "--budget", "4"]
                          for method in ("fastgas", "random", "top-degree", "pagerank")]
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
