"""Benchmark and verification harnesses behind the `bench` and `verify` subcommands."""

from __future__ import annotations

import time

import numpy as np

from .embeddings import generate_synthetic
from .errors import InternalError, InvalidParameter
from .graph import build_knn_graph, graph_from_edges
from .selection import (
    brute_force_max_coverage,
    coverage_objective,
    fastgas_select,
    greedy_select_trace,
    pagerank_select,
    random_select,
    subcluster_select,
    top_degree_select,
)

GREEDY_GUARANTEE = 1.0 - 1.0 / np.e
BENCH_CLUSTERS = 10
BENCH_SPREAD = 0.1
VERIFY_EDGE_PROBS = (0.2, 0.5, 0.8)


def run_bench(
    sizes: list[int],
    d: int = 64,
    k: int = 10,
    K: int = 10,
    M: int = 100,
    seed: int = 0,
    repeats: int = 1,
    threads: int = 1,
) -> dict:
    """Time the full pipeline and each baseline on synthetic pools of the
    given sizes; per-stage wall-clock in ms, best of `repeats` runs."""
    if repeats < 1 or not sizes:
        raise InvalidParameter("need at least one size and one repeat")
    rows = []
    for n in sizes:
        emb = generate_synthetic(n, d, min(BENCH_CLUSTERS, n), BENCH_SPREAD, seed)
        best: dict[str, float] | None = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            g = build_knn_graph(emb, min(k, n - 1), threads=threads)
            t1 = time.perf_counter()
            res = fastgas_select(g, min(K, n), min(M, n), seed)
            t2 = time.perf_counter()
            stage = {
                "knn": (t1 - t0) * 1e3,
                "partition_total": res.timings_ms.get("partition_total", 0.0),
                "select": res.timings_ms["select"],
                "fastgas_total": (t2 - t0) * 1e3,
            }
            if best is None or stage["fastgas_total"] < best["fastgas_total"]:
                best = stage
        baselines = {}
        for name, fn in (
            ("random", lambda: random_select(n, min(M, n), seed)),
            ("top_degree", lambda: top_degree_select(g, min(M, n))),
            ("pagerank", lambda: pagerank_select(g, min(M, n))),
            ("subcluster", lambda: subcluster_select(emb, min(K, n), min(M, n), seed)),
        ):
            t0 = time.perf_counter()
            fn()
            baselines[name] = (time.perf_counter() - t0) * 1e3
        rows.append(
            {
                "n": n,
                "num_edges": g.num_edges,
                **{key: round(val, 3) for key, val in best.items()},
                **{f"{key}_ms": round(val, 3) for key, val in baselines.items()},
            }
        )
    ratios = []
    for a, b in zip(rows, rows[1:]):
        if b["n"] == 2 * a["n"] and a["fastgas_total"] > 0:
            ratios.append(round(b["fastgas_total"] / a["fastgas_total"], 3))
    return {
        "config": {"sizes": sizes, "d": d, "k": k, "K": K, "M": M, "seed": seed, "repeats": repeats},
        "rows": rows,
        "per_doubling_ratios": ratios,
        "max_per_doubling_ratio": max(ratios) if ratios else None,
    }


def random_graph(n: int, p: float, rng: np.random.Generator):
    """G(n, p) with unit weights; one `rng.random()` per pair u < v, in row order."""
    edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from_edges(n, edges)


def _residual_degrees(g, removed: set[int]) -> np.ndarray:
    """Independent residual-degree oracle: recount neighbors from scratch."""
    deg = np.full(g.num_vertices, -1, dtype=np.int64)
    for v in range(g.num_vertices):
        if v in removed:
            continue
        deg[v] = sum(1 for u in g.neighbors_of(v)[0].tolist() if u not in removed)
    return deg


def run_verify(
    max_n: int = 12,
    max_budget: int = 4,
    instances: int = 500,
    seed: int = 0,
) -> dict:
    """Audit greedy selection against the exhaustive coverage oracle.

    Asserts the (1 - 1/e) submodular bound and the per-step argmax property
    on every instance; exact optimality is reported, not asserted, with any
    counterexample archived verbatim.
    """
    if not 3 <= max_n <= 24:
        raise InvalidParameter(f"max_n must be in [3, 24] (the brute-force limit), got {max_n}")
    if max_budget < 1:
        raise InvalidParameter(f"max_budget must be at least 1, got {max_budget}")
    if instances < 0:
        raise InvalidParameter(f"instances must be non-negative, got {instances}")
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    exact = 0
    min_ratio = 1.0
    argmax_violations = 0
    counterexamples = []

    cases = [("p5-fixture", graph_from_edges(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)]), 2)]
    for i in range(instances):
        n = int(rng.integers(3, max_n + 1))
        p = VERIFY_EDGE_PROBS[int(rng.integers(len(VERIFY_EDGE_PROBS)))]
        budget = int(rng.integers(1, min(max_budget, n) + 1))
        cases.append((f"random-{i}", random_graph(n, p, rng), budget))

    for name, g, budget in cases:
        picks, recorded = greedy_select_trace(g, budget)
        removed: set[int] = set()
        for pick, rec in zip(picks, recorded):
            oracle = _residual_degrees(g, removed)
            if rec != oracle[pick] or (oracle >= 0).any() and rec < oracle[oracle >= 0].max():
                argmax_violations += 1
            removed.add(pick)
        greedy_val = coverage_objective(g, picks)
        _, opt_val = brute_force_max_coverage(g, budget)
        ratio = 1.0 if opt_val == 0 else greedy_val / opt_val
        if ratio < GREEDY_GUARANTEE - 1e-12:
            raise InternalError(
                f"{name}: greedy/optimal ratio {ratio:.4f} below the (1-1/e) guarantee"
            )
        min_ratio = min(min_ratio, ratio)
        if greedy_val == opt_val:
            exact += 1
        elif len(counterexamples) < 10:
            counterexamples.append(
                {
                    "name": name,
                    "num_vertices": g.num_vertices,
                    "edges": g.edge_list().tolist(),
                    "budget": budget,
                    "greedy": picks,
                    "greedy_value": greedy_val,
                    "optimal_value": opt_val,
                }
            )
    total = len(cases)
    return {
        "instances": total,
        "exact_optimal": exact,
        "exact_rate": round(exact / total, 4),
        "min_ratio": round(min_ratio, 6),
        "guarantee": round(GREEDY_GUARANTEE, 6),
        "argmax_violations": argmax_violations,
        "counterexamples": counterexamples,
    }
