import numpy as np
import pytest

from fastgas.verify import random_graph  # noqa: F401  (re-exported to the tests)
from fastgas.graph import graph_from_edges


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n, 1) for i in range(n)])


def complete_graph(n):
    return graph_from_edges(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves):
    """Center is vertex 0."""
    return graph_from_edges(leaves + 1, [(0, i, 1) for i in range(1, leaves + 1)])


def two_triangles_bridge():
    """Triangles {0,1,2} and {3,4,5} joined by the single edge 2-3."""
    edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1), (2, 3, 1)]
    return graph_from_edges(6, edges)


def assert_same_csr(g, ref):
    """g holds the same int64 CSR arrays as ref."""
    for name in ("indptr", "neighbors", "edge_weights", "vertex_weights"):
        got, want = getattr(g, name), getattr(ref, name)
        assert got.dtype == want.dtype == np.int64 and got.tolist() == want.tolist(), name


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance PASS/FAIL lines after the run, outside capture."""
    import sys

    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
