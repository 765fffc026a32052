"""The verification harness behind the `verify` subcommand."""

from __future__ import annotations

import numpy as np

from .errors import InternalError, InvalidParameter
from .graph import graph_from_edges
from .selection import brute_force_max_coverage, coverage_objective, greedy_select

GREEDY_GUARANTEE = 1.0 - 1.0 / np.e
VERIFY_EDGE_PROBS = (0.2, 0.5, 0.8)


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

    Asserts the (1 - 1/e) submodular bound and counts picks that are not the
    lowest-index maximum of the recounted residual degrees; exact optimality
    is reported, not asserted, with any counterexample archived verbatim.
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
        picks = greedy_select(g, [budget], np.zeros(g.num_vertices, dtype=np.int64))
        removed: set[int] = set()
        for pick in picks:
            # the lowest-index maximum; removed vertices read -1
            if pick != int(np.argmax(_residual_degrees(g, removed))):
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
