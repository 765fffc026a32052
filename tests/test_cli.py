import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastgas.cli import _write_json, main
from fastgas.embeddings import generate_synthetic, save_embeddings


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


def test_env_seed_fallback(workspace, monkeypatch):
    tmp, pool, _ = workspace
    main(["build-graph", "--input", str(pool), "--k", "5", "-o", str(tmp / "g.json")])
    monkeypatch.setenv("FASTGAS_SEED", "42")
    main(["select", "--input", str(tmp / "g.json"), "--method", "random", "--budget", "5",
          "-o", str(tmp / "s_env.json")])
    monkeypatch.delenv("FASTGAS_SEED")
    main(["select", "--input", str(tmp / "g.json"), "--method", "random", "--budget", "5",
          "--seed", "42", "-o", str(tmp / "s_flag.json")])
    a = json.loads((tmp / "s_env.json").read_text())
    b = json.loads((tmp / "s_flag.json").read_text())
    assert a["selected"] == b["selected"]


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


@pytest.mark.parametrize("timings", [[], ["--no-timings"]])
def test_build_graph_output_is_indented_json(workspace, timings):
    tmp, pool, _ = workspace
    out = tmp / "g.json"
    assert main(["build-graph", "--input", str(pool), "--k", "5", *timings, "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert ("timings_ms" in doc) == (not timings)
    assert text == json.dumps(doc, indent=2) + "\n"
