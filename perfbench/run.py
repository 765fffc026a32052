"""End-to-end benchmark of the fastgas CLI pipeline, with a per-layer traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload overlap-d64-n16k --seed 1 --seconds 30 --trace 0

`--trace 0` drives the shipped CLI as subprocesses, one closed-loop pass at a
time, and reports the end-to-end metrics. `--trace 1` runs one CLI pass plus
the same call sequence in this process, with timing wrappers around the
library's module attributes, and reports the per-layer metrics. Every output
is checked; the last stdout line is the JSON result, the line before it the
machine, config and per-metric sample details.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# One BLAS thread (<= nproc) and CLI --threads 1: no pass oversubscribes the
# cores, and on a shared 2-core machine single-threaded GEMM times spread far
# less than two-threaded ones. BLAS reads these variables at import, so they
# are set before numpy is imported here and passed to every stage process.
BLAS_THREADS = "1"
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

K_NEIGHBORS = 10
M_EXAMPLES = 5
CLI_SEED = 0  # the program's own seed; the workload seed only shapes the inputs
MIN_PASSES = 2
MIN_SETUPS = 3  # setup_s is a median over at least three build-graph runs
STAGE_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # a run exits within 180 s; no pass starts that could overrun this
REF_SAMPLE = 64  # vertices / tests checked against an independent numpy ranking
ENTRY = "import sys; from fastgas.cli import main; sys.exit(main())"

# Why each workload: see README.md in this directory.
WORKLOADS = {
    "sep-d768-n8k": dict(n=8000, d=768, spread=0.1, fmt="binary", preset="paper-100",
                         K=10, M=100, tests=2000),
    "overlap-d64-n16k": dict(n=16000, d=64, spread=1.0, fmt="binary", preset="paper-100",
                             K=10, M=100, tests=2000),
    "jsonl-d384-n6k": dict(n=6000, d=384, spread=0.3, fmt="jsonl", preset="paper-18",
                           K=6, M=18, tests=3000),
}
CLUSTERS = 10
BASELINES = ("random", "top-degree", "pagerank", "subcluster")


# ---------------------------------------------------------------- inputs

def make_vectors(n: int, d: int, spread: float, rng: np.random.Generator, labels) -> np.ndarray:
    """Gaussian clusters around axis-aligned unit-separated means; each point's
    total deviation has scale `spread` (per-coordinate sigma spread/sqrt(d)).

    The geometry follows fastgas.generate_synthetic, but the benchmark owns
    its generator so that a change to the package never changes the inputs."""
    means = np.zeros((CLUSTERS, d))
    for c in range(CLUSTERS):
        means[c, c % d] = (1.0 + 2.0 * (c // d)) / math.sqrt(2.0)
    x = means[labels] + rng.normal(0.0, spread / math.sqrt(d), size=(n, d))
    return x.astype(np.float32)


def write_binary(path: Path, ids: list[str], x: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(b"FGEM" + struct.pack("<IQI", 1, x.shape[0], x.shape[1]))
        f.write(np.ascontiguousarray(x, dtype="<f4").tobytes())
        f.write(b"".join(struct.pack("<H", len(i)) + i.encode() for i in ids))


def write_jsonl(path: Path, ids: list[str], x: np.ndarray) -> None:
    # 9 significant digits round-trip float32, so the CLI sees exactly `x`
    row = ",".join(["%.9g"] * x.shape[1])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for ident, v in zip(ids, x.tolist()):
            f.write('{"id": "%s", "vector": [%s]}\n' % (ident, row % tuple(v)))


def make_inputs(spec: dict, seed: int, work: Path) -> dict:
    rng = np.random.default_rng([seed, 0xFA57])
    n, d, nt = spec["n"], spec["d"], spec["tests"]
    pool = make_vectors(n, d, spec["spread"], rng, np.arange(n) % CLUSTERS)
    tests = make_vectors(nt, d, spec["spread"], rng, rng.integers(0, CLUSTERS, size=nt))
    pool_ids = [f"p{i}" for i in range(n)]
    test_ids = [f"t{i}" for i in range(nt)]
    ext = "bin" if spec["fmt"] == "binary" else "jsonl"
    write = write_binary if spec["fmt"] == "binary" else write_jsonl
    pool_path, tests_path = work / f"pool.{ext}", work / f"tests.{ext}"
    write(pool_path, pool_ids, pool)
    write(tests_path, test_ids, tests)
    return dict(pool=pool, tests=tests, pool_ids=pool_ids, test_ids=test_ids,
                pool_path=pool_path, tests_path=tests_path)


# ---------------------------------------------------------------- CLI stages

def stage_argvs(spec: dict, inp: dict, out: Path) -> list[tuple[str, list[str], Path]]:
    """One pass: (stage name, CLI argv, output file), in execution order."""
    fmt, preset = spec["fmt"], spec["preset"]
    common = ["--preset", preset, "--seed", str(CLI_SEED), "--threads", "1", "--no-timings"]
    pool, tests, graph = str(inp["pool_path"]), str(inp["tests_path"]), out / "graph.json"
    stages = [("build-graph", ["build-graph", "--input", pool, "--format", fmt,
                               "--k", str(K_NEIGHBORS), *common], graph)]
    for method in ("fastgas", *BASELINES):
        src = ["--input", pool, "--format", fmt] if method == "subcluster" else ["--input", str(graph)]
        stages.append((method, ["select", "--method", method, *src, *common],
                       out / f"select-{method}.json"))
    stages.append(("retrieve", ["retrieve", "--input", pool, "--format", fmt, "--tests", tests,
                                "--tests-format", fmt, "--selection", str(out / "select-fastgas.json"),
                                "--mode", "similar", "--m", str(M_EXAMPLES), *common],
                   out / "plan.json"))
    return [(name, argv + ["-o", str(path)], path) for name, argv, path in stages]


def stage_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}  # carries the BLAS thread settings


def run_stage(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run one CLI process; return (wall s, peak RSS MB, exit code)."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_stage_code(code: str, env: dict, log: Path) -> float:
    """Wall time of a fresh interpreter running `code`."""
    with open(log, "ab") as err:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=err, check=True, timeout=STAGE_TIMEOUT_S)
        return time.perf_counter() - t0


def run_pass(stages, env: dict, log: Path) -> dict:
    rec = {"wall": {}, "rss": 0.0, "exit": {}, "digest": {}}
    t0 = time.perf_counter()
    for name, argv, _ in stages:
        wall, rss, code = run_stage(argv, env, log)
        rec["wall"][name], rec["exit"][name] = wall, code
        rec["rss"] = max(rec["rss"], rss)
    rec["pass_s"] = time.perf_counter() - t0
    for name, _, path in stages:
        rec["digest"][name] = digest(path)
    return rec


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


# ---------------------------------------------------------------- output checks

class CheckFailed(Exception):
    pass


def need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def unit_rows(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    return x / np.linalg.norm(x, axis=1)[:, None]


def sample_rows(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(REF_SAMPLE, n)).astype(np.int64))


def check_graph(doc: dict, inp: dict) -> np.ndarray:
    """The graph has N vertices, u < v, unit weights, no duplicate edges,
    degree >= k, and holds every sampled vertex's exact cosine top-k."""
    n = len(inp["pool_ids"])
    need(doc.get("num_vertices") == n, f"graph has {doc.get('num_vertices')} vertices, want {n}")
    need(doc.get("ids") == inp["pool_ids"], "graph ids differ from the pool ids")
    e = np.asarray(doc["edges"], dtype=np.int64).reshape(-1, 3)
    need(len(e) > 0 and bool((e[:, 0] < e[:, 1]).all()), "graph edge with u >= v")
    need(int(e[:, 0].min()) >= 0 and int(e[:, 1].max()) < n, "graph edge out of range")
    need(bool((e[:, 2] == 1).all()), "graph edge weight != 1")
    need(len(np.unique(e[:, 0] * n + e[:, 1])) == len(e), "duplicate graph edge")
    deg = np.bincount(e[:, :2].ravel(), minlength=n)
    need(int(deg.min()) >= K_NEIGHBORS, f"vertex degree {int(deg.min())} < k={K_NEIGHBORS}")
    x = unit_rows(inp["pool"])
    adj = {int(v): set() for v in sample_rows(n)}
    for u, v in e[:, :2].tolist():
        if u in adj:
            adj[u].add(v)
        if v in adj:
            adj[v].add(u)
    for v, nbrs in adj.items():
        sims = x @ x[v]
        sims[v] = -np.inf
        kth = np.sort(sims)[-K_NEIGHBORS]
        # every vertex clearly above the k-th similarity must be a neighbour
        must = set(np.nonzero(sims > kth + 1e-9)[0].tolist())
        need(must <= nbrs, f"vertex {v} misses a true top-{K_NEIGHBORS} neighbour")
    return e[:, :2]


def check_selection(doc: dict, method: str, spec: dict) -> list[int]:
    sel = doc.get("selected")
    n, M = spec["n"], spec["M"]
    need(doc.get("method") == method, f"{method}: method field {doc.get('method')!r}")
    need(isinstance(sel, list) and len(sel) == M, f"{method}: {len(sel or [])} picks, want {M}")
    need(all(isinstance(i, int) and 0 <= i < n for i in sel), f"{method}: pick out of range")
    need(len(set(sel)) == M, f"{method}: duplicate picks")
    parts = doc.get("per_part") or {}
    if method in ("fastgas", "subcluster"):
        need(len(parts) == spec["K"], f"{method}: {len(parts)} parts, want {spec['K']}")
        flat = [i for p in parts.values() for i in p]
        need(len(flat) == M and set(flat) == set(sel), f"{method}: per-part lists != selection")
    return sel


def reference_plan(inp: dict, selected: list[int], rows: np.ndarray) -> dict:
    """Independent cosine ranking: best first, ties to the lower pool index,
    then reversed so the most similar example comes last (--order asc)."""
    sel = np.asarray(selected, dtype=np.int64)
    sims = unit_rows(inp["tests"][rows]) @ unit_rows(inp["pool"][sel]).T
    take = min(M_EXAMPLES, len(sel))
    out = {}
    for r, t in enumerate(rows.tolist()):
        order = sorted(range(len(sel)), key=lambda j: (-sims[r, j], sel[j]))[:take]
        out[inp["test_ids"][t]] = [inp["pool_ids"][sel[j]] for j in reversed(order)]
    return out


def check_plan(doc: dict, inp: dict, selected: list[int], mode: str = "similar") -> None:
    per_test = doc.get("per_test") or {}
    need(doc.get("mode") == mode and doc.get("m") == M_EXAMPLES, "plan mode/m fields")
    need(set(per_test) == set(inp["test_ids"]), "plan test ids differ from the tests")
    allowed = {inp["pool_ids"][i] for i in selected}
    take = min(M_EXAMPLES, len(selected))
    for tid, ids in per_test.items():
        need(len(ids) == take and len(set(ids)) == take and set(ids) <= allowed,
             f"plan for {tid}: want {take} distinct selected ids")
    if mode != "similar":
        return
    for tid, ids in reference_plan(inp, selected, sample_rows(len(inp["test_ids"]))).items():
        need(per_test[tid] == ids, f"plan for {tid} differs from the numpy cosine ranking")


def check_partition(doc: dict, edges: np.ndarray, spec: dict, selection: dict) -> int:
    """The K-way partition `select` used: balanced, its cut matches the edges,
    and every fastgas pick of part p lies in part p."""
    n, K = spec["n"], spec["K"]
    a = np.asarray(doc.get("assignment"), dtype=np.int64)
    need(a.shape == (n,) and int(a.min()) == 0 and int(a.max()) == K - 1, "partition assignment")
    sizes = np.bincount(a, minlength=K)
    need(int(sizes.max()) <= part_cap(n, K), f"part size {int(sizes.max())} > cap {part_cap(n, K)}")
    cut = int((a[edges[:, 0]] != a[edges[:, 1]]).sum())
    need(doc.get("cut") == cut, f"partition cut {doc.get('cut')} != recomputed {cut}")
    for p, picks in selection["per_part"].items():
        need(bool((a[np.asarray(picks, dtype=np.int64)] == int(p)).all()),
             f"fastgas picks of part {p} lie outside it")
    return cut


def part_cap(n: int, K: int, epsilon: float = 0.03) -> int:
    return int(math.ceil(n / K) * (1 + epsilon))


def check_outputs(stages, spec: dict, inp: dict) -> tuple[dict, dict]:
    """Check one pass's files; return (failure message per stage, facts)."""
    fails: dict[str, str] = {}
    facts: dict = {}
    docs = {}
    for name, _, path in stages:
        try:
            docs[name] = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            fails[name] = f"unreadable output: {e}"
    try:
        facts["edges"] = check_graph(docs["build-graph"], inp)
    except (CheckFailed, KeyError, TypeError, ValueError) as e:
        fails.setdefault("build-graph", str(e))
    for method in ("fastgas", *BASELINES):
        try:
            facts[method] = check_selection(docs[method], method, spec)
        except (CheckFailed, KeyError, TypeError, ValueError) as e:
            fails.setdefault(method, str(e))
    try:
        check_plan(docs["retrieve"], inp, facts["fastgas"])
    except (CheckFailed, KeyError, TypeError, ValueError) as e:
        fails.setdefault("retrieve", str(e))
    if "edges" in facts and "fastgas" in facts:
        e, sel = facts["edges"], np.zeros(spec["n"], dtype=bool)
        sel[facts["fastgas"]] = True
        facts["coverage_frac"] = float((sel[e[:, 0]] | sel[e[:, 1]]).sum()) / len(e)
        facts["fastgas_doc"] = docs["fastgas"]
    return fails, facts


# ---------------------------------------------------------------- statistics and output

def summarize(values: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest percentile with at
    least ten samples beyond it (None when the sample is too small)."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals)}
    if n >= 2:
        q = statistics.quantiles(vals, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    tail = [p for p in (99, 95, 90, 75, 50) if n * (100 - p) / 100 >= 10]
    out["tail"] = None
    if tail:
        p = tail[0]
        out["tail"] = {"p": p, "value": float(np.percentile(vals, p))}
    return out


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {"cli_threads": 1, **{v: BLAS_THREADS for v in _BLAS_VARS}},
    }


def emit(detail: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
                      "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}))


# ---------------------------------------------------------------- runs

def end_to_end(spec: dict, inp: dict, work: Path, seconds: float, t_start: float) -> tuple:
    out = work / "cli"
    out.mkdir()
    stages = stage_argvs(spec, inp, out)
    env, log = stage_env(), work / "stderr.log"
    passes: list[dict] = []
    passes_start = time.perf_counter()
    while True:
        passes.append(run_pass(stages, env, log))
        if len(passes) == 1:
            fails, facts = check_outputs(stages, spec, inp)
        now = time.perf_counter()
        typical = statistics.median(p["pass_s"] for p in passes)
        select = statistics.median(p["wall"]["fastgas"] for p in passes)
        if now - t_start + typical + select > RUN_LIMIT_S:  # leave room for the partition run
            break
        if len(passes) >= MIN_PASSES and now - passes_start + typical > seconds:
            break

    # fewer passes than MIN_SETUPS are topped up with extra build-graph runs
    graph_stage, graph_argv, graph_path = stages[0]
    setup_s = [p["wall"][graph_stage] for p in passes]
    extra = []  # (exit code, output digest) of each extra build-graph run
    while len(setup_s) < MIN_SETUPS:
        wall, _, code = run_stage(graph_argv, env, log)
        setup_s.append(wall)
        extra.append((code, digest(graph_path)))

    # one partition run, outside every timing, gives the cut `select` used
    part_path = out / "partition.json"
    part_argv = ["partition", "--input", str(graph_path), "--preset", spec["preset"],
                 "--seed", str(CLI_SEED), "--threads", "1", "--no-timings", "-o", str(part_path)]
    _, _, part_exit = run_stage(part_argv, env, log)
    cut = None
    try:
        need(part_exit == 0, f"partition exited {part_exit}")
        cut = check_partition(json.loads(part_path.read_text(encoding="utf-8")),
                              facts["edges"], spec, facts["fastgas_doc"])
    except (CheckFailed, KeyError, TypeError, ValueError, OSError) as e:
        fails["partition"] = str(e)

    runs = [(p["exit"][n], p["digest"][n], n) for p in passes for n, _, _ in stages]
    runs += [(code, dig, graph_stage) for code, dig in extra]
    attempted = len(runs) + 1
    failed = int("partition" in fails)
    first = passes[0]["digest"]
    for code, dig, n in runs:
        bad = code != 0 or n in fails or dig != first[n]
        if bad and n not in fails:
            fails[n] = f"exit {code}" if code else "output not byte-identical to the first pass"
        failed += bad

    series = {
        "pipeline_s": [p["pass_s"] for p in passes],
        "setup_s": setup_s,
        "select_s": [p["wall"]["fastgas"] for p in passes],
        "baselines_s": [sum(p["wall"][b] for b in BASELINES) for p in passes],
        "retrieve_s": [p["wall"]["retrieve"] for p in passes],
        "peak_rss_mb": [p["rss"] for p in passes],
    }
    stats = {k: summarize(v) for k, v in series.items()}
    # the other times stay in the detail line, without a bound: see README.md, Noise
    metrics = {"setup_s": (stats["setup_s"]["median"], "s"),
               "peak_rss_mb": (stats["peak_rss_mb"]["median"], "MB")}
    n_edges = len(facts["edges"]) if "edges" in facts else 0
    metrics["coverage_frac"] = (facts.get("coverage_frac", float("nan")), "ratio")
    # edges inside a part: the cut itself is 0 on the separable workload
    metrics["edge_kept_frac"] = (1.0 - cut / n_edges if cut is not None and n_edges else float("nan"),
                                 "ratio")
    detail = {"detail": "end_to_end", "machine": machine_info(), "passes": len(passes),
              "setups": len(setup_s),
              "samples": stats, "failed_frac": failed / attempted, "failures": fails,
              "stage_s": {name: [p["wall"][name] for p in passes] for name, _, _ in stages}}
    return detail, not fails, attempted, failed, metrics


def traced_run(spec: dict, inp: dict, work: Path) -> tuple:
    """One CLI pass, then the same calls in this process: once untraced and
    twice traced. Per-layer self times are the median of the two traced runs;
    every count must repeat exactly."""
    import spans  # this directory is sys.path[0]

    out = work / "cli"
    out.mkdir()
    stages = stage_argvs(spec, inp, out)
    env, log = stage_env(), work / "stderr.log"
    cli_pass = run_pass(stages, env, log)
    fails, facts = check_outputs(stages, spec, inp)
    for name, _, _ in stages:
        if cli_pass["exit"][name]:
            fails.setdefault(name, f"exit {cli_pass['exit'][name]}")
    bad = {f"cli:{name}" for name in fails}  # ids of the stage runs that failed

    sys.path.insert(0, str(SRC))
    from fastgas import cli

    inproc = work / "inproc"
    inproc.mkdir()
    calls = [argv for _, argv, _ in stage_argvs(spec, inp, inproc)]
    random_plan = calls[-1][:-1] + [str(inproc / "plan-random.json")]
    calls.append([a if a != "similar" else "random" for a in random_plan])
    tags = ("untraced", "traced0", "traced1")

    def fail(key: str, msg: str, runs) -> None:
        fails[key] = msg
        bad.update(runs)

    def sequence(tag: str) -> float:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            for i, argv in enumerate(calls):
                code = cli.main(argv)
                if code:
                    fail(f"{tag}:{i}", f"in-process {argv[0]} exited {code}", [f"{tag}:{i}"])
        return time.perf_counter() - t0

    untraced_s = sequence("untraced")
    tracers, traced_s = [], []
    for i in range(2):
        t = spans.Tracer()
        spans.install(t, part_cap)
        try:
            traced_s.append(sequence(f"traced{i}"))
        finally:
            t.restore()
        tracers.append(t)

    for i, (name, _, path) in enumerate(stages):
        if digest(inproc / path.name) != cli_pass["digest"][name]:
            fail(f"inproc:{name}", "in-process output differs from the CLI output",
                 [f"{tag}:{i}" for tag in tags])
    try:
        check_plan(json.loads((inproc / "plan-random.json").read_text(encoding="utf-8")),
                   inp, facts["fastgas"], mode="random")
    except (CheckFailed, KeyError, TypeError, ValueError, OSError) as e:
        fail("retrieve-random", str(e), [f"{tag}:{len(calls) - 1}" for tag in tags])
    # the run-level checks below concern the traced fastgas select calls
    traced_select = [f"{tag}:1" for tag in tags[1:]]
    counts = [spans.count_metrics(t) for t in tracers]
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        fail("counts", f"counts differ between traced runs: {diff}", traced_select)
    c = counts[0]
    if c["partition.bisect_calls"] != spec["K"] - 1:
        fail("bisect_calls", f"{c['partition.bisect_calls']} bisections, want K-1 = {spec['K'] - 1}",
             traced_select)
    if not c["partition.max_part_over_cap"] <= 1:
        fail("max_part_over_cap", f"max part / cap = {c['partition.max_part_over_cap']}", traced_select)
    want = {k: facts["fastgas_doc"][k] for k in ("selected", "per_part")} if "fastgas_doc" in facts else None
    if any(t.last.get("fastgas") != want for t in tracers):
        fail("fastgas_select", "CLI selection differs from the traced run's fastgas_select", traced_select)

    n, d = spec["n"], spec["d"]
    x = unit_rows(inp["pool"])
    gemm = []
    for _ in range(3):
        t0 = time.perf_counter()
        for s in range(0, n, 256):  # the same 256-row blocks the kNN search uses
            x[s:s + 256] @ x.T
        gemm.append(time.perf_counter() - t0)
    startup = []
    for _ in range(5):
        startup.append(run_stage_code("import fastgas.cli", env, log))

    def self_s(span: str) -> float:
        return statistics.median(t.self_s[span] for t in tracers)

    m: dict[str, tuple[float, str]] = {}
    for metric, span in spans.SELF_TIMES.items():
        m[metric] = (self_s(span), "s")
    for metric, value in c.items():
        if metric != "cli.output_bytes":
            m[metric] = (value, "ratio" if metric.endswith("_over_cap") else "count")
    gemm_ref_s = statistics.median(gemm)
    startup_s = statistics.median(startup)
    pass_traced_s = statistics.median(sum(t.root_s[:len(stages)]) for t in tracers)
    m.update({
        "embeddings.load_mb_per_s": (c["embeddings.bytes_read"] / 1e6 / m["embeddings.load_s"][0], "MB/s"),
        "graph.knn_gflop": (2.0 * n * n * d / 1e9, "GFLOP"),
        "graph.gemm_ref_s": (gemm_ref_s, "s"),
        "graph.topk_est_s": (m["graph.knn_s"][0] - gemm_ref_s, "s"),
        "graph.json_mb": ((inproc / "graph.json").stat().st_size / 1e6, "MB"),
        "retrieval.tests_per_s": (spec["tests"] / m["retrieval.similar_s"][0], "1/s"),
        "cli.startup_s": (startup_s, "s"),
        "cli.output_mb": (c["cli.output_bytes"] / 1e6, "MB"),
        "trace.overhead_frac": (statistics.median(traced_s) / untraced_s - 1.0, "ratio"),
        "trace.unaccounted_frac": (
            (cli_pass["pass_s"] - pass_traced_s - len(stages) * startup_s) / cli_pass["pass_s"], "ratio"),
    })
    attempted = len(stages) + 3 * len(calls)
    detail = {"detail": "traced", "machine": machine_info(), "failures": fails,
              "cli_pass_s": cli_pass["pass_s"], "untraced_s": untraced_s, "traced_s": traced_s,
              "gemm_ref_runs_s": gemm, "startup_runs_s": startup,
              "labels": {"graph.knn_gflop": "computed 2*N*N*d",
                         "graph.topk_est_s": "estimate: knn_s - gemm_ref_s"}}
    return detail, not fails, attempted, len(bad), m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fastgas" / "cli.py").is_file():
        print(f"error: no fastgas sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    t_start = time.perf_counter()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        t0 = time.perf_counter()
        inp = make_inputs(spec, args.seed, work)
        gen_s = time.perf_counter() - t0
        if args.trace:
            detail, correct, attempted, failed, metrics = traced_run(spec, inp, work)
        else:
            detail, correct, attempted, failed, metrics = end_to_end(
                spec, inp, work, args.seconds, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  config={**spec, "k": K_NEIGHBORS, "m": M_EXAMPLES, "clusters": CLUSTERS,
                          "cli_seed": CLI_SEED},
                  input_gen_s=gen_s, run_s=time.perf_counter() - t_start)
    emit(detail, correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
