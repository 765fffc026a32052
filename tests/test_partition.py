import itertools
import math

import numpy as np
import pytest

from conftest import assert_same_csr, complete_graph, cycle_graph, path_graph, random_graph, two_triangles_bridge
from fastgas import partition
from fastgas.embeddings import generate_synthetic
from fastgas.errors import InternalError, InvalidParameter
from fastgas.graph import SimilarityGraph, edge_cut, graph_from_edges
from fastgas.knn import build_knn_graph
from fastgas.partition import (
    Bisection,
    bfs_initial_bisect,
    multilevel_bisect,
    partition_kway,
    random_matching_coarsen,
    refine_kl,
)


def kway2_bounds(g):
    """The SideBounds that partition_kway gives the one bisection of a K = 2 split of g."""
    seen = []
    bisect = partition.multilevel_bisect

    def spy(sub, rng, bounds):
        seen.append(bounds)
        return bisect(sub, rng, bounds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partition, "multilevel_bisect", spy)
        partition_kway(g, 2, seed=0)
    (bounds,) = seen
    return bounds


def grown_bisect_oracle(g, rng, target0):
    """Reference: the growth loop bfs_initial_bisect replaced. Each trial
    adds BFS-visited vertices to side 0 one at a time until it holds target0
    weight, restarting from the lowest-index untouched vertex when the
    queue runs out."""
    n = g.num_vertices
    weights = g.vertex_weights
    best = None
    for start in rng.integers(0, n, size=partition.BFS_TRIALS):
        side = np.ones(n, dtype=np.int8)
        side[start] = 0
        acc = int(weights[start])
        queue = [int(start)]
        qi = 0
        grown = 1
        next_fallback = 0
        while acc < target0 and grown < n:
            if qi >= len(queue):
                while side[next_fallback] == 0:
                    next_fallback += 1
                v = next_fallback
                side[v] = 0
                acc += int(weights[v])
                grown += 1
                queue.append(v)
                qi = len(queue) - 1
                continue
            u = queue[qi]
            qi += 1
            for v in g.neighbors_of(u)[0]:
                if side[v] == 1:
                    side[v] = 0
                    acc += int(weights[v])
                    grown += 1
                    queue.append(int(v))
                    if acc >= target0 or grown >= n:
                        break
        cut = edge_cut(g, side)
        if best is None or cut < best.cut:
            best = Bisection(side=side, cut=cut)
    return best


def exhaustive_min_balanced_cut(g, max_imbalance=0):
    """Oracle: enumerate all bisections whose side sizes differ by at most
    max_imbalance (plus parity slack) and return the minimum cut."""
    n = g.num_vertices
    best = None
    for size0 in range(1, n):
        if abs(2 * size0 - n) > max_imbalance + (n % 2):
            continue
        for side0 in itertools.combinations(range(n), size0):
            side = np.ones(n, dtype=np.int8)
            side[list(side0)] = 0
            cut = edge_cut(g, side)
            best = cut if best is None else min(best, cut)
    return best


class TestRandomMatchingCoarsen:
    def test_edgeless_graph_is_bijection(self, rng):
        g = graph_from_edges(6, [])
        lvl = random_matching_coarsen(g, rng)
        assert lvl.graph.num_vertices == 6
        assert sorted(lvl.match_map.tolist()) == list(range(6))

    def test_single_edge(self, rng):
        g = graph_from_edges(2, [(0, 1, 1)])
        lvl = random_matching_coarsen(g, rng)
        assert lvl.graph.num_vertices == 1
        assert lvl.graph.num_edges == 0
        assert lvl.graph.vertex_weights.tolist() == [2]

    def test_cycle4_all_outcomes(self):
        # every seed must give 2 or 3 coarse vertices, weight 4 conserved,
        # and non-self-loop edge weight at most the original 4
        g = cycle_graph(4)
        for seed in range(50):
            lvl = random_matching_coarsen(g, np.random.default_rng(seed))
            assert lvl.graph.num_vertices in (2, 3)
            assert lvl.graph.total_vertex_weight == 4
            assert int(lvl.graph.edge_weights.sum()) // 2 <= 4

    def test_matching_property_and_weight_conservation(self, rng):
        knn = build_knn_graph(generate_synthetic(400, 16, 8, 0.4, seed=5), 10)
        graphs = itertools.chain((random_graph(int(rng.integers(5, 60)), 0.2, rng) for _ in range(20)), [knn])
        for g in graphs:
            lvl = random_matching_coarsen(g, rng)
            sizes = np.bincount(lvl.match_map)
            assert set(sizes.tolist()) <= {1, 2}
            assert lvl.graph.total_vertex_weight == g.total_vertex_weight
            assert int(lvl.graph.edge_weights.sum()) // 2 <= int(g.edge_weights.sum()) // 2
            # coarse edge weights aggregate crossing fine edges exactly
            agg = {}
            for u, v, w in g.edge_list().tolist():
                cu, cv = lvl.match_map[u], lvl.match_map[v]
                if cu != cv:
                    agg[(min(cu, cv), max(cu, cv))] = agg.get((min(cu, cv), max(cu, cv)), 0) + w
            got = {(u, v): w for u, v, w in lvl.graph.edge_list().tolist()}
            assert got == agg

    @pytest.mark.parametrize("seed", range(8))
    def test_csr_matches_graph_from_edges(self, seed):
        # the coarse graph skips graph_from_edges' sort; it must still give its arrays
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15]
        g = graph_from_edges(n, [(u, v, int(rng.integers(1, 4))) for u, v in pairs],
                             vertex_weights=rng.integers(1, 5, size=n))
        coarse = random_matching_coarsen(g, rng).graph
        assert_same_csr(coarse, graph_from_edges(coarse.num_vertices, coarse.edge_list(), coarse.vertex_weights))

    def test_too_small(self, rng):
        with pytest.raises(InvalidParameter, match="cannot coarsen a graph with 1 vertices"):
            random_matching_coarsen(graph_from_edges(1, []), rng)


class TestBfsInitialBisect:
    def test_two_triangles_bridge(self, rng):
        g = two_triangles_bridge()
        b = bfs_initial_bisect(g, rng, kway2_bounds(g).target0)
        assert b.cut == 1
        assert sorted(np.nonzero(b.side == b.side[0])[0].tolist()) in ([0, 1, 2], [3, 4, 5])
        assert exhaustive_min_balanced_cut(g) == 1

    def test_path4(self, rng):
        g = path_graph(4)
        b = bfs_initial_bisect(g, rng, kway2_bounds(g).target0)
        assert b.cut == 1
        assert exhaustive_min_balanced_cut(g) == 1

    def test_k4_any_split_cuts_4(self, rng):
        g = complete_graph(4)
        b = bfs_initial_bisect(g, rng, kway2_bounds(g).target0)
        assert b.cut == 4

    def test_matches_growth_loop_oracle(self):
        rng = np.random.default_rng(2025)
        for i in range(1000):
            n = int(rng.integers(2, 40))
            p = (0.02, 0.1, 0.3)[i % 3]  # 0.02 leaves most graphs disconnected
            edges = [(u, v, int(rng.integers(1, 4))) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p]
            g = graph_from_edges(n, edges, vertex_weights=rng.integers(1, 5, size=n))
            target0 = g.total_vertex_weight * rng.uniform(0.3, 0.9)
            if i % 2:
                target0 = float(round(target0))  # whole, as w·kl/kt often is: it can equal a prefix weight
            seed = int(rng.integers(1 << 32))
            got = bfs_initial_bisect(g, np.random.default_rng(seed), target0)
            want = grown_bisect_oracle(g, np.random.default_rng(seed), target0)
            assert got.cut == want.cut
            assert np.array_equal(got.side, want.side)

    def test_side_weights_sum(self, rng):
        for _ in range(10):
            g = random_graph(int(rng.integers(6, 40)), 0.3, rng)
            b = bfs_initial_bisect(g, rng, kway2_bounds(g).target0)
            # side 0 grows until it holds half the weight
            assert g.total_vertex_weight / 2 <= g.vertex_weights[b.side == 0].sum() < g.total_vertex_weight
            assert b.cut == edge_cut(g, b.side)


class TestRefineKl:
    def test_local_minimum_unchanged(self, rng):
        g = two_triangles_bridge()
        side = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        b = Bisection(side=side, cut=1)
        out = refine_kl(g, b, kway2_bounds(g))
        assert out.cut == 1
        assert np.array_equal(out.side, side)

    def test_cycle4_alternating_refines_to_2(self):
        g = cycle_graph(4)
        side = np.array([0, 1, 0, 1], dtype=np.int8)
        b = Bisection(side=side, cut=4)
        out = refine_kl(g, b, kway2_bounds(g))
        assert out.cut == 2
        assert exhaustive_min_balanced_cut(g) == 2

    def test_monotone_never_worse(self, rng):
        for _ in range(30):
            g = random_graph(int(rng.integers(6, 50)), 0.25, rng)
            side = rng.integers(0, 2, size=g.num_vertices).astype(np.int8)
            if len(set(side.tolist())) < 2:
                side[0] = 1 - side[0]
            cut0 = edge_cut(g, side)
            w0 = int(g.vertex_weights[side == 0].sum())
            b = Bisection(side=side, cut=cut0)
            bounds = kway2_bounds(g)
            out = refine_kl(g, b, bounds)
            assert out.cut == edge_cut(g, out.side)
            # monotone whenever the input was already feasible
            if bounds.lo[0] <= w0 <= bounds.hi[0]:
                assert out.cut <= cut0

    def test_misreported_cut_raises(self):
        g = two_triangles_bridge()
        side = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        with pytest.raises(InternalError, match="claims cut 2"):
            refine_kl(g, Bisection(side=side, cut=2), kway2_bounds(g))

    def test_no_move_from_feasible_zero_cut(self, monkeypatch):
        # two disjoint triangles split along their components: score (0, 0)
        g = graph_from_edges(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
        bounds = kway2_bounds(g)
        side = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
        moved = []
        neighbors_of = SimilarityGraph.neighbors_of

        def counting(self, v):
            moved.append(v)
            return neighbors_of(self, v)

        monkeypatch.setattr(SimilarityGraph, "neighbors_of", counting)
        out = refine_kl(g, Bisection(side=side, cut=0), bounds)
        assert moved == []
        assert out.cut == 0
        assert np.array_equal(out.side, side)

    def test_tracked_cut_is_checked_after_each_pass(self, monkeypatch):
        # edge_cut answers truly on entry, then one too high after the first pass
        calls = []

        def misreport(g, side):
            calls.append(None)
            return edge_cut(g, side) + (len(calls) > 1)

        g = cycle_graph(4)
        bounds = kway2_bounds(g)
        monkeypatch.setattr(partition, "edge_cut", misreport)
        side = np.array([0, 1, 0, 1], dtype=np.int8)
        with pytest.raises(InternalError, match="tracked cut 2, its sides cut 3"):
            refine_kl(g, Bisection(side=side, cut=4), bounds)


class TestMultilevelBisect:
    def test_small_graph_base_case(self, rng):
        g = two_triangles_bridge()
        b = multilevel_bisect(g, rng, kway2_bounds(g))
        assert b.cut == 1

    def test_too_small(self, rng):
        with pytest.raises(InvalidParameter, match="cannot bisect a graph with 1 vertices"):
            multilevel_bisect(graph_from_edges(1, []), rng, kway2_bounds(path_graph(4)))

    def test_balance_contract(self, rng):
        for _ in range(10):
            g = random_graph(int(rng.integers(20, 200)), 0.1, rng)
            b = multilevel_bisect(g, rng, kway2_bounds(g))
            half = g.total_vertex_weight / 2
            assert np.bincount(b.side, weights=g.vertex_weights).max() <= math.ceil(half) * 1.03 + 1e-9

    def test_planted_two_clusters_recovered(self):
        rng = np.random.default_rng(42)
        edges = []
        for lo, hi in ((0, 500), (500, 1000)):
            for u in range(lo, hi):
                for v in rng.integers(lo, hi, size=6).tolist():
                    if u != v:
                        edges.append((min(u, v), max(u, v), 1))
        for _ in range(25):
            u, v = int(rng.integers(0, 500)), int(rng.integers(500, 1000))
            edges.append((u, v, 1))
        g = graph_from_edges(1000, set(edges))
        b = multilevel_bisect(g, np.random.default_rng(7), kway2_bounds(g))
        planted = np.array([0] * 500 + [1] * 500)
        agree = max((b.side == planted).mean(), (b.side != planted).mean())
        assert agree >= 0.95

    def test_projection_before_refinement_preserves_cut(self, rng):
        for _ in range(10):
            g = random_graph(100, 0.08, rng)
            lvl = random_matching_coarsen(g, rng)
            b = bfs_initial_bisect(lvl.graph, rng, kway2_bounds(g).target0)
            fine_side = b.side[lvl.match_map]
            assert edge_cut(g, fine_side) == edge_cut(lvl.graph, b.side) == b.cut


class TestPartitionKway:
    def test_k1_trivial(self, rng):
        g = random_graph(20, 0.3, rng)
        p = partition_kway(g, 1, seed=0)
        assert p.part_sizes == [20]
        assert edge_cut(g, p.assignment) == 0
        assert (p.assignment == 0).all()

    def test_k_equals_n_singletons(self, rng):
        g = random_graph(12, 0.4, rng)
        p = partition_kway(g, 12, seed=0)
        assert sorted(p.assignment.tolist()) == list(range(12))

    def test_invalid_k(self, rng):
        g = random_graph(10, 0.3, rng)
        with pytest.raises(InvalidParameter, match="K must satisfy 1 <= K <= 10, got 0"):
            partition_kway(g, 0, seed=0)
        with pytest.raises(InvalidParameter, match="K must satisfy 1 <= K <= 10, got 11"):
            partition_kway(g, 11, seed=0)

    def test_invariants_random_graphs(self, rng):
        for _ in range(8):
            n = int(rng.integers(30, 150))
            g = random_graph(n, 0.08, rng)
            for K in (2, 3, 5, 7):
                p = partition_kway(g, K, seed=int(rng.integers(1e6)))
                sizes = p.part_sizes
                assert sum(sizes) == n and len(sizes) == K
                assert min(sizes) >= 1
                assert max(sizes) <= math.ceil(n / K) * 1.03

    def test_deterministic(self, rng):
        g = random_graph(120, 0.08, rng)
        a = partition_kway(g, 6, seed=99)
        b = partition_kway(g, 6, seed=99)
        assert np.array_equal(a.assignment, b.assignment)

    def test_planted_six_clusters(self):
        from scipy.optimize import linear_sum_assignment

        from fastgas.embeddings import generate_synthetic, synthetic_labels
        from fastgas.knn import build_knn_graph

        emb = generate_synthetic(600, 32, 6, 0.1, seed=3)
        g = build_knn_graph(emb, 10)
        planted = synthetic_labels(600, 6)
        p = partition_kway(g, 6, seed=0)
        assert all(97 <= s <= 103 for s in p.part_sizes)
        conf = np.zeros((6, 6), dtype=np.int64)
        np.add.at(conf, (planted, p.assignment), 1)
        rows, cols = linear_sum_assignment(-conf)
        assert conf[rows, cols].sum() / 600 >= 0.95
        planted_cut = edge_cut(g, planted)
        assert edge_cut(g, p.assignment) <= max(2 * planted_cut, 1)
