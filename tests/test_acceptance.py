"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (lines go to the real stderr so
they are visible even under capture).
"""

import json
import math
import sys
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import fastgas as fg
from fastgas.cli import main as cli_main
from fastgas.embeddings import generate_synthetic, save_embeddings, synthetic_labels
from fastgas.graph import edge_cut
from fastgas.knn import build_knn_graph
from fastgas.retrieval import retrieve_similar
from fastgas.selection import fastgas_select, select_per_part
from fastgas.verify import run_verify

GREEDY_GUARANTEE = 1 - 1 / math.e


# lines are printed immediately and replayed by the conftest terminal-summary
# hook, since pytest's fd capture can swallow direct stderr writes
ACCEPTANCE_LINES: list[str] = []


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__)
    assert ok, detail


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    t0 = time.perf_counter()
    rep = run_verify(max_n=12, max_budget=4, instances=500, seed=20240601)
    rep["_elapsed_s"] = time.perf_counter() - t0
    path = tmp_path_factory.mktemp("verify") / "counterexamples.json"
    path.write_text(json.dumps(rep["counterexamples"], indent=2))
    rep["_archive"] = str(path)
    return rep


@pytest.fixture(scope="module")
def big_graph():
    emb = generate_synthetic(3000, 768, 10, 0.1, seed=7)
    return build_knn_graph(emb, 10)


def test_criterion_1_coverage_oracle(verify_report):
    rep = verify_report
    ok = (
        rep["min_ratio"] >= GREEDY_GUARANTEE - 1e-12
        and rep["instances"] >= 500
        and rep["_elapsed_s"] < 60
    )
    report(
        1,
        ok,
        f"greedy/optimal >= 1-1/e on {rep['instances']}/{rep['instances']} instances in "
        f"{rep['_elapsed_s']:.1f}s; exact-optimality rate {rep['exact_rate']} "
        f"(counterexamples archived at {rep['_archive']}); min ratio {rep['min_ratio']}",
    )


def test_criterion_2_per_step_argmax(verify_report):
    ok = verify_report["argmax_violations"] == 0
    report(2, ok, f"per-step argmax violations: {verify_report['argmax_violations']}")


def test_criterion_3_partitioner_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    checked = 0
    for i in range(100):
        n = int(rng.integers(50, 2001))
        k = int(rng.choice([5, 10]))
        emb = generate_synthetic(n, 16, min(8, n), 0.4, seed=int(rng.integers(1 << 31)))
        g = build_knn_graph(emb, min(k, n - 1))
        # refine_kl raises InternalError unless, at every level of every
        # bisection, the projected cut equals the coarse one, its tracked cut
        # equals the recomputed one, and the cut of a feasible state never rises
        for K in (2, 3, 6, 9, 10, 25):
            if K > n:
                continue
            p = fg.partition_kway(g, K, seed=i)
            sizes = p.part_sizes
            assert sum(sizes) == n and len(sizes) == K and min(sizes) >= 1
            assert max(sizes) <= math.ceil(n / K) * 1.03
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300
    report(3, ok, f"invariants held on 100 graphs / {checked} partitions in {elapsed:.1f}s")


def test_criterion_4_planted_structure_recovery():
    emb = generate_synthetic(600, 768, 6, 0.1, seed=11)
    g = build_knn_graph(emb, 10)
    planted = synthetic_labels(600, 6)
    p = fg.partition_kway(g, 6, seed=0)
    conf = np.zeros((6, 6), dtype=np.int64)
    np.add.at(conf, (planted, p.assignment), 1)
    rows, cols = linear_sum_assignment(-conf)
    agreement = conf[rows, cols].sum() / 600
    cut = edge_cut(g, p.assignment)
    planted_cut = edge_cut(g, planted)
    ok = agreement >= 0.90 and cut <= max(2 * planted_cut, 1)
    report(4, ok, f"agreement {agreement:.3f} (>=0.90), cut {cut} vs planted {planted_cut}")


def test_criterion_5_pipeline_under_10s(tmp_path):
    emb = generate_synthetic(3000, 768, 10, 0.1, seed=7)
    path = tmp_path / "pool.bin"
    save_embeddings(emb, str(path), "binary")
    t0 = time.perf_counter()
    loaded = fg.load_embeddings(str(path), "binary")
    g = build_knn_graph(loaded, 10)
    part = fg.partition_kway(g, 10, seed=0)
    t1 = time.perf_counter()
    select_per_part(g, part, 100, seed=0)
    t2 = time.perf_counter()
    total, select_s = t2 - t0, t2 - t1
    ok = total <= 10.0 and select_s <= 1.0
    report(5, ok, f"load+knn+partition+select {total:.2f}s (<=10s), selection {select_s*1e3:.1f}ms (<=1s)")


def test_criterion_6_divide_and_conquer_speedup(big_graph):
    # the partitions are made once; interleave the two configurations and
    # take the min so warmup and scheduler noise cannot flip the comparison
    parts = {K: fg.partition_kway(big_graph, K, seed=0) for K in (10, 1)}
    times = {K: [] for K in parts}
    for _ in range(15):
        for K, part in parts.items():
            t0 = time.perf_counter()
            select_per_part(big_graph, part, 100, seed=0)
            times[K].append((time.perf_counter() - t0) * 1e3)
    k10, k1 = min(times[10]), min(times[1])
    ok = k10 < k1
    report(6, ok, f"selection stage best-of-15: K=10 {k10:.2f}ms < K=1 {k1:.2f}ms")


def test_criterion_7_near_linear_scaling():
    """The kNN graph and `fastgas_select`, the calls of `build-graph` and
    `select --method fastgas`, take at most 2.6 times as long per doubling of
    the pool; each size's time is the best of 2. The two runs of a size fall
    in two rounds over all sizes, so that one stretch of load from other
    processes on the machine does not slow both of them."""
    sizes = (1000, 2000, 4000, 8000)
    pools = [generate_synthetic(n, 64, 10, 0.1, seed=0) for n in sizes]
    totals = [math.inf] * len(sizes)
    for _ in range(2):
        for i, emb in enumerate(pools):
            t0 = time.perf_counter()
            fastgas_select(build_knn_graph(emb, 10), 10, 100, 0)
            totals[i] = min(totals[i], time.perf_counter() - t0)
    ratios = [round(b / a, 3) for a, b in zip(totals, totals[1:])]
    ok = max(ratios) <= 2.6
    report(7, ok, f"per-doubling total-time ratios {ratios} (max <= 2.6)")


def test_criterion_8_determinism_across_threads(tmp_path):
    pool = generate_synthetic(400, 32, 5, 0.15, seed=4)
    tests = generate_synthetic(10, 32, 3, 0.2, seed=5)
    pool_p = tmp_path / "pool.jsonl"
    tests_p = tmp_path / "tests.jsonl"
    save_embeddings(pool, str(pool_p), "jsonl")
    save_embeddings(tests, str(tests_p), "jsonl")
    outputs = {}
    for threads in (1, 8):
        for run in ("a", "b"):
            tag = f"{threads}{run}"
            g = tmp_path / f"g{tag}.json"
            p = tmp_path / f"p{tag}.json"
            s = tmp_path / f"s{tag}.json"
            r = tmp_path / f"r{tag}.json"
            assert cli_main(["build-graph", "--input", str(pool_p), "--k", "10",
                             "--threads", str(threads), "--no-timings", "-o", str(g)]) == 0
            assert cli_main(["partition", "--input", str(g), "--K", "5", "--seed", "3",
                             "--threads", str(threads), "--no-timings", "-o", str(p)]) == 0
            assert cli_main(["select", "--input", str(g), "--method", "fastgas", "--K", "5",
                             "--budget", "20", "--seed", "3", "--threads", str(threads),
                             "--no-timings", "-o", str(s)]) == 0
            assert cli_main(["retrieve", "--input", str(pool_p), "--selection", str(s),
                             "--tests", str(tests_p), "--m", "4", "--seed", "3",
                             "--threads", str(threads), "--no-timings", "-o", str(r)]) == 0
            outputs[tag] = tuple(x.read_bytes() for x in (g, p, s, r))
    ok = len(set(outputs.values())) == 1
    report(8, ok, "build-graph/partition/select/retrieve byte-identical across reruns at 1 and 8 threads")


def test_criterion_9_retrieval_oracle():
    from fastgas.embeddings import cosine_similarity

    rng = np.random.default_rng(9)
    discrepancies = 0
    fixtures = 0
    for trial in range(50):
        pool = generate_synthetic(30, 6, 3, 0.5, seed=trial)
        tests = generate_synthetic(20, 6, 2, 0.5, seed=5000 + trial)
        selected = sorted(rng.choice(30, size=15, replace=False).tolist())
        m = int(rng.integers(1, 15))
        plan = retrieve_similar(pool, selected, tests, m)
        for t in range(tests.n):
            fixtures += 1
            ranked = sorted(
                selected,
                key=lambda i: (-cosine_similarity(pool.vectors[i], tests.vectors[t]), i),
            )
            expected = {pool.ids[i] for i in ranked[:m]}
            if set(plan.per_test[tests.ids[t]]) != expected:
                discrepancies += 1
    ok = fixtures >= 1000 and discrepancies == 0
    report(9, ok, f"{fixtures} (pool, test) fixtures, {discrepancies} top-m discrepancies")


def test_criterion_10_quota_arithmetic(big_graph):
    res18 = fastgas_select(big_graph, 6, 18, seed=0)
    per_part_18 = sorted(len(v) for v in res18.per_part.values())
    res10 = fastgas_select(big_graph, 3, 10, seed=0)
    per_part_10 = sorted(len(v) for v in res10.per_part.values())
    ok = per_part_18 == [3] * 6 and per_part_10 == [3, 3, 4]
    report(10, ok, f"M=18,K=6 -> {per_part_18}; M=10,K=3 -> {per_part_10}")
