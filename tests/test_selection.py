import tracemalloc

import numpy as np
import pytest

from conftest import complete_graph, cycle_graph, path_graph, random_graph, star_graph
from fastgas import selection
from fastgas.verify import _residual_degrees
from fastgas.embeddings import EmbeddingMatrix, generate_synthetic
from fastgas.errors import InternalError, InvalidParameter
from fastgas.graph import graph_from_edges, induced_subgraph
from fastgas.knn import build_knn_graph
from fastgas.partition import Partition
from fastgas.selection import (
    allocate_quotas,
    brute_force_max_coverage,
    coverage_objective,
    fastgas_select,
    greedy_select,
    lloyd_kmeans,
    pagerank_scores,
    pagerank_select,
    random_select,
    subcluster_select,
    top_degree_select,
)


def greedy_one_part(g, n):
    """The greedy over the whole graph as a single part."""
    return greedy_select(g, [n], np.zeros(g.num_vertices, dtype=np.int64))


class TestGreedySelect:
    def test_star_picks_center(self):
        assert greedy_one_part(star_graph(5), 1) == [0]

    def test_path5_residual_recomputation(self):
        picks = greedy_one_part(path_graph(5), 2)
        assert picks == [1, 3]
        assert coverage_objective(path_graph(5), picks) == 4
        _, opt = brute_force_max_coverage(path_graph(5), 2)
        assert opt == 4

    def test_edgeless_tie_rule(self):
        g = graph_from_edges(5, [])
        assert greedy_one_part(g, 3) == [0, 1, 2]

    def test_budget_exceeds(self):
        with pytest.raises(InvalidParameter, match=r"part 0: quota 4 outside \[0, 3\]"):
            greedy_one_part(path_graph(3), 4)
        with pytest.raises(InvalidParameter, match=r"part 1: quota -1 outside \[0, 2\]"):
            greedy_select(path_graph(4), [1, -1], [0, 0, 1, 1])

    def test_each_pick_is_oracle_argmax(self, rng):
        # np.argmax takes the lowest index among the maxima: the tie rule
        for _ in range(30):
            g = random_graph(int(rng.integers(4, 15)), 0.4, rng)
            removed = set()
            for pick in greedy_one_part(g, int(rng.integers(1, g.num_vertices + 1))):
                assert pick == int(np.argmax(_residual_degrees(g, removed)))
                removed.add(pick)

    def test_per_part_matches_greedy_on_induced_subgraph(self, rng):
        # random labels, so many edges cross parts and must not count
        for _ in range(40):
            n = int(rng.integers(4, 30))
            g = random_graph(n, float(rng.choice([0.2, 0.5])), rng)
            K = int(rng.integers(1, min(n, 5) + 1))
            part = Partition(assignment=rng.permutation(np.arange(n) % K), K=K)
            res = selection.select_per_part(g, part, int(rng.integers(1, n + 1)), seed=0)
            for p, picks in res.per_part.items():
                sub, mapping = induced_subgraph(g, np.flatnonzero(part.assignment == p))
                assert picks == [int(mapping[v]) for v in greedy_one_part(sub, len(picks))]
            assert res.selected == [v for p in range(K) for v in res.per_part[p]]


class TestCoverageObjective:
    def test_all_vertices(self, rng):
        g = random_graph(10, 0.4, rng)
        assert coverage_objective(g, range(10)) == g.num_edges

    def test_triangle_single_vertex(self):
        assert coverage_objective(complete_graph(3), [0]) == 2

    def test_empty_set(self):
        assert coverage_objective(complete_graph(3), []) == 0


class TestBruteForce:
    def test_path5(self):
        best, val = brute_force_max_coverage(path_graph(5), 2)
        assert val == 4
        assert best == [1, 3]

    def test_k4_single(self):
        _, val = brute_force_max_coverage(complete_graph(4), 1)
        assert val == 3

    def test_full_budget(self, rng):
        g = random_graph(8, 0.5, rng)
        _, val = brute_force_max_coverage(g, 8)
        assert val == g.num_edges

    def test_too_large(self):
        with pytest.raises(InvalidParameter, match="30 vertices exceeds the brute-force limit 24"):
            brute_force_max_coverage(path_graph(30), 2)


class TestQuotas:
    def test_remainder_to_largest(self):
        assert allocate_quotas([12, 10, 10], 10) == [4, 3, 3]
        assert allocate_quotas([10, 12, 10], 10) == [3, 4, 3]
        assert allocate_quotas([10, 10, 10], 10) == [4, 3, 3]  # tie -> lowest part index

    def test_overflow_reassigned(self):
        # part 0 can only hold 1; its excess goes to the next-largest part
        assert allocate_quotas([1, 10, 10], 9) == [1, 5, 3]

    def test_exact_split(self):
        assert allocate_quotas([500] * 6, 18) == [3] * 6

    def test_budget_exceeds_pool(self):
        with pytest.raises(InvalidParameter, match="budget 5 exceeds pool size 4"):
            allocate_quotas([2, 2], 5)


@pytest.fixture(scope="module")
def pool_graph():
    return build_knn_graph(generate_synthetic(300, 16, 6, 0.1, seed=2), 10)


class TestFastgasSelect:
    def test_quota_18_over_6(self, pool_graph):
        res = fastgas_select(pool_graph, 6, 18, seed=0)
        assert all(len(v) == 3 for v in res.per_part.values())
        assert len(res.selected) == 18

    def test_quota_10_over_3(self, pool_graph):
        res = fastgas_select(pool_graph, 3, 10, seed=0)
        assert sorted(len(v) for v in res.per_part.values()) == [3, 3, 4]

    def test_k1_equals_plain_greedy(self, pool_graph):
        res = fastgas_select(pool_graph, 1, 20, seed=5)
        assert res.selected == greedy_one_part(pool_graph, 20)

    def test_builds_no_subgraph(self, pool_graph, monkeypatch):
        def no_subgraph(*args):
            raise AssertionError("select_per_part built an induced subgraph")

        monkeypatch.setattr(selection, "induced_subgraph", no_subgraph)
        assert len(fastgas_select(pool_graph, 6, 18, seed=0).selected) == 18

    def test_per_part_disjoint_union(self, pool_graph):
        res = fastgas_select(pool_graph, 6, 30, seed=1)
        flat = [v for part in res.per_part.values() for v in part]
        assert sorted(flat) == sorted(res.selected)
        assert len(set(flat)) == len(flat)

    def test_deterministic(self, pool_graph):
        a = fastgas_select(pool_graph, 6, 18, seed=3)
        b = fastgas_select(pool_graph, 6, 18, seed=3)
        assert a.selected == b.selected

    def test_invalid_parameters(self, pool_graph):
        with pytest.raises(InvalidParameter, match="K must satisfy 1 <= K <= 300, got 0"):
            fastgas_select(pool_graph, 0, 5, seed=0)
        with pytest.raises(InvalidParameter, match=r"budget 301 outside \[1, 300\]"):
            fastgas_select(pool_graph, 2, 301, seed=0)


class TestRandomSelect:
    def test_full_budget(self):
        assert sorted(random_select(10, 10, seed=0).selected) == list(range(10))

    def test_deterministic(self):
        assert random_select(100, 10, seed=4).selected == random_select(100, 10, seed=4).selected

    def test_overlap_near_hypergeometric_expectation(self):
        # E[overlap] = 100*100/3000 ~ 3.3; 20 is a generous tail bound
        for s in range(50):
            a = set(random_select(3000, 100, seed=2 * s).selected)
            b = set(random_select(3000, 100, seed=2 * s + 1).selected)
            assert a != b
            assert len(a & b) <= 20

    def test_budget_exceeds(self):
        with pytest.raises(InvalidParameter, match=r"budget 6 outside \[1, 5\]"):
            random_select(5, 6, seed=0)


class TestTopDegree:
    def test_star_with_isolated(self):
        g = graph_from_edges(8, [(0, i, 1) for i in range(1, 6)])
        assert top_degree_select(g, 1).selected == [0]

    def test_regular_graph_tie_rule(self):
        assert top_degree_select(cycle_graph(6), 3).selected == [0, 1, 2]

    def test_path5_static_vs_residual(self):
        # static degrees on P5 are 1,2,2,2,1: top-2 = [1,2]; greedy gives [1,3]
        assert top_degree_select(path_graph(5), 2).selected == [1, 2]
        assert greedy_one_part(path_graph(5), 2) == [1, 3]


class TestPagerank:
    def test_regular_graph_uniform(self):
        g = cycle_graph(8)
        scores = pagerank_scores(g)
        np.testing.assert_allclose(scores, 1 / 8, atol=1e-9)
        assert pagerank_select(g, 3).selected == [0, 1, 2]

    def test_running_out_of_steps_is_internal(self, monkeypatch):
        # at the fixed damping, PageRank converges long before its step limit
        monkeypatch.setattr(selection, "PAGERANK_MAX_ITERS", 1)
        with pytest.raises(InternalError, match="pagerank L1 change .* after 1 iterations"):
            pagerank_scores(path_graph(5))

    def test_star_analytic_stationary(self):
        # star with 5 leaves: c = (1+5d)/(6(1+d)), leaves share the rest
        d = 0.85
        g = star_graph(5)
        scores = pagerank_scores(g)
        center = (1 + 5 * d) / (6 * (1 + d))
        assert scores[0] == pytest.approx(center, abs=1e-8)
        np.testing.assert_allclose(scores[1:], (1 - center) / 5, atol=1e-8)
        assert pagerank_select(g, 1).selected == [0]

    def test_isolated_vertices_dangling(self):
        g = graph_from_edges(4, [(0, 1, 1)])
        scores = pagerank_scores(g)
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)


class TestSubcluster:
    def test_two_blobs(self):
        rng = np.random.default_rng(0)
        a = rng.normal([0, 10], 0.1, size=(20, 2))
        b = rng.normal([10, 0], 0.1, size=(20, 2))
        x = np.vstack([a, b])
        emb = EmbeddingMatrix(ids=[f"p{i}" for i in range(40)], vectors=x)
        res = subcluster_select(emb, 2, 2, seed=1)
        sides = {int(i >= 20) for i in res.selected}
        assert sides == {0, 1}
        for pick in res.selected:
            blob = x[:20] if pick < 20 else x[20:]
            offset = 0 if pick < 20 else 20
            d2 = ((blob - blob.mean(axis=0)) ** 2).sum(axis=1)
            # pick is the blob point nearest the blob centroid
            assert d2[pick - offset] <= d2.min() + 1e-6

    def test_k_equals_m_one_per_cluster(self):
        emb = generate_synthetic(60, 8, 3, 0.05, seed=6)
        res = subcluster_select(emb, 3, 3, seed=2)
        assert len(res.selected) == 3
        assert all(len(v) == 1 for v in res.per_part.values())

    def test_duplicate_points_lowest_index(self):
        x = np.array([[1.0, 0]] * 5 + [[0, 1.0]] * 5)
        emb = EmbeddingMatrix(ids=[f"d{i}" for i in range(10)], vectors=x)
        res = subcluster_select(emb, 2, 2, seed=0)
        assert sorted(res.selected) == [0, 5]

    def test_more_subclusters_than_distinct_rows(self):
        # the farthest-point seeds repeat a row, so several clusters start empty
        x = np.array([[1.0, 0]] * 5 + [[0, 1.0]])
        for seed in range(6):
            labels, _ = lloyd_kmeans(x, 4, np.random.default_rng(seed))
            assert (np.bincount(labels, minlength=4) >= 1).all()
        emb = EmbeddingMatrix(ids=[f"d{i}" for i in range(6)], vectors=x)
        res = subcluster_select(emb, 1, 4, seed=0)
        assert len(set(res.selected)) == 4

    def test_kmeans_takes_distances_in_row_chunks(self):
        """k-means' squared distances to one point, in its farthest-point
        seeding and its row norms, are the whole-pool sum bit for bit but
        taken a chunk of rows at a time, so no temporary is pool-sized."""
        # eight separated clusters, so no cluster's copy in the Lloyd steps is pool-sized
        x = 10 * np.eye(128)[np.arange(4096) % 8] + np.random.default_rng(4).normal(size=(4096, 128))
        for c in (x[7], 0.0):
            assert selection._squared_distances(x, c).tobytes() == np.sum((x - c) ** 2, axis=1).tobytes()
        tracemalloc.start()
        try:
            lloyd_kmeans(x, 8, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 2

    def test_deterministic(self):
        emb = generate_synthetic(80, 6, 4, 0.2, seed=9)
        assert subcluster_select(emb, 4, 8, seed=3).selected == subcluster_select(emb, 4, 8, seed=3).selected


class TestSubmodularBound:
    def test_greedy_within_1_minus_1_over_e(self, rng):
        bound = 1 - 1 / np.e
        for _ in range(100):
            n = int(rng.integers(4, 13))
            p = [0.2, 0.5, 0.8][int(rng.integers(3))]
            g = random_graph(n, p, rng)
            budget = int(rng.integers(1, 5))
            budget = min(budget, n)
            val = coverage_objective(g, greedy_one_part(g, budget))
            _, opt = brute_force_max_coverage(g, budget)
            assert val >= bound * opt - 1e-9
