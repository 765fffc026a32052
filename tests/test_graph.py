import contextlib
import json
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, path_graph, random_graph, star_graph
from fastgas import graph
from fastgas.embeddings import EmbeddingMatrix, cosine_similarity, generate_synthetic
from fastgas.errors import EmptyVertexSet, FormatError, IndexOutOfRange, InvalidK, PartitionMismatch
from fastgas.graph import (
    build_knn_graph,
    edge_cut,
    graph_from_edges,
    graph_from_dict,
    graph_to_dict,
    induced_subgraph,
    load_graph,
)


def brute_force_knn_edges(emb, k):
    """Independent oracle: exhaustive pairwise cosine, union symmetrization."""
    n = emb.n
    edges = set()
    for u in range(n):
        sims = [
            (-cosine_similarity(emb.vectors[u], emb.vectors[v]), v)
            for v in range(n)
            if v != u
        ]
        sims.sort()
        for _, v in sims[:k]:
            edges.add((min(u, v), max(u, v)))
    return edges


def per_row_knn_oracle(emb, k):
    """Exhaustive float64 top-k, one full similarity row at a time.

    The selection is the per-row loop `build_knn_graph` used before its
    float32 screen. The rows come from einsum rather than a BLAS GEMM: a GEMM
    may round the same pair differently depending on where it sits in the
    output, which splits exact ties between duplicate rows.
    """
    n = emb.n
    x = emb.vectors.astype(np.float64)
    x /= np.linalg.norm(x, axis=1)[:, None]
    nbrs = np.empty((n, k), dtype=np.int64)
    for u in range(n):
        s = np.einsum("ij,ij->i", np.broadcast_to(x[u], x.shape), x)
        s[u] = -np.inf
        kth = np.partition(s, n - 1 - k)[n - 1 - k]
        cand = np.nonzero(s >= kth)[0]
        cand = cand[np.lexsort((cand, -s[cand]))]
        nbrs[u] = cand[:k]
    src = np.repeat(np.arange(n), k).tolist()
    return {(min(u, v), max(u, v)) for u, v in zip(src, nbrs.reshape(-1).tolist())}


def knn_edges(emb, k, threads=1, block_rows=None):
    """The kNN edge set; `block_rows` overrides the block size, so that a
    small pool spans several blocks."""
    rows = graph._BLOCK_ROWS if block_rows is None else block_rows
    with mock.patch.object(graph, "_BLOCK_ROWS", rows):
        g = build_knn_graph(emb, k, threads=threads)
    return {tuple(e[:2]) for e in g.edge_list().tolist()}


def small_blocks(n):
    """A block size that cuts an n-row pool into four or more blocks."""
    return max(1, n // 4)


@contextlib.contextmanager
def counted_similarities():
    """Counts the similarities the kNN screen computes: every product it
    writes into a buffer through `np.matmul(..., out=...)`."""
    count = [0]
    matmul = np.matmul

    def counting(a, b, out=None):
        if out is not None:
            count[0] += out.size
        return matmul(a, b, out=out)

    with mock.patch.object(graph.np, "matmul", counting):
        yield count


def as_emb(x):
    return EmbeddingMatrix(ids=[str(i) for i in range(len(x))], vectors=x)


@st.composite
def knn_inputs(draw):
    """Random float32 pools with duplicated rows, rows one float32 ulp apart,
    and one-hot rows whose similarities all tie."""
    n = draw(st.integers(2, 70))
    d = draw(st.sampled_from([1, 2, 3, 8, 768, 1536]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, d)).astype(np.float32)
    for _ in range(draw(st.integers(0, n))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["copy", "ulp", "onehot"]))
        if kind == "onehot":
            x[dst] = 0.0
            x[dst, src % d] = 1.0
        else:
            x[dst] = x[src]
            if kind == "ulp":
                c = src % d
                x[dst, c] = np.nextafter(x[dst, c], np.float32(np.inf))
    return as_emb(x), draw(st.integers(1, n - 1))


class TestKnnExactness:
    @settings(max_examples=60, deadline=None)
    @given(knn_inputs())
    def test_matches_per_row_oracle(self, case):
        emb, k = case
        expected = per_row_knn_oracle(emb, k)
        assert knn_edges(emb, k) == expected
        # several blocks: the bound, the screen's raised thresholds and the
        # final filter all take part
        assert knn_edges(emb, k, block_rows=small_blocks(emb.n)) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 14), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_brute_force_on_tiny_inputs(self, n, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)).astype(np.float32)
        x[n // 2] = x[0]
        emb = as_emb(x)
        for k in (1, n // 2, n - 1):
            expected = brute_force_knn_edges(emb, k)
            assert knn_edges(emb, k) == expected
            assert knn_edges(emb, k, block_rows=small_blocks(n)) == expected

    def test_duplicates_tie_to_the_lower_index(self):
        x = np.random.default_rng(3).normal(size=(60, 8)).astype(np.float32)
        x[[26, 31, 59]] = x[26]
        x[35] = x[26] + np.float32(0.01)
        emb = as_emb(x)
        edges = knn_edges(emb, 2)
        # vertex 35's two nearest are three copies of one vector: 26 and 31
        # win the tie, and 59 (whose own nearest are 26 and 31) is no neighbour
        assert {(26, 35), (31, 35)} <= edges and (35, 59) not in edges
        assert edges == per_row_knn_oracle(emb, 2)

    def test_rows_one_ulp_apart(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(600, 16)).astype(np.float32)
        for i in range(0, 600, 3):
            x[i + 1] = x[i]
            x[i + 1, i % 16] = np.nextafter(x[i, i % 16], np.float32(np.inf))
            x[i + 2] = x[i]
            x[i + 2, i % 16] = np.nextafter(x[i, i % 16], np.float32(-np.inf))
        emb = as_emb(x)
        for k in (1, 2, 7):
            assert knn_edges(emb, k) == per_row_knn_oracle(emb, k)

    @pytest.mark.parametrize("n, d", [(40, 40), (300, 300), (589, 64)])
    def test_one_hot_rows_all_tie(self, n, d):
        # row i is the unit vector on axis i mod d: similarities are 1 on the
        # same axis and 0 elsewhere, and each tie goes to the lower index
        emb = as_emb(np.eye(d, dtype=np.float32)[np.arange(n) % d])
        k = 5
        expected = set()
        for u in range(n):
            ranked = sorted((v for v in range(n) if v != u), key=lambda v: (v % d != u % d, v))
            expected |= {(min(u, v), max(u, v)) for v in ranked[:k]}
        assert knn_edges(emb, k) == expected

    @pytest.mark.parametrize("n, d", [(300, 2), (512, 1), (1101, 64), (600, 768), (130, 1536)])
    def test_group_shapes_and_dimensions(self, n, d):
        x = np.random.default_rng(n + d).normal(size=(n, d)).astype(np.float32)
        x[1::7] = x[::7][: len(x[1::7])]
        emb = as_emb(x)
        for k in (1, 10):
            assert knn_edges(emb, k) == per_row_knn_oracle(emb, k)

    @pytest.mark.parametrize("rows", [1, 100, 128, 300])
    def test_strips_of_any_height(self, rows):
        # a strip is one block's rows against the blocks to their right:
        # blocks of one row (each has k rows or fewer, so its thresholds
        # widen to the nearest blocks), of 100, of 128, and of 300 rows,
        # more than the pool's k-means clusters hold; one and three workers
        x = np.random.default_rng(rows).normal(size=(700, 16)).astype(np.float32)
        x[3::11] = x[::11][: len(x[3::11])]
        emb = as_emb(x)
        for k in (1, 10):
            expected = per_row_knn_oracle(emb, k)
            for threads in (1, 3):
                assert knn_edges(emb, k, threads, block_rows=rows) == expected

    def test_many_workers_on_a_short_switch_interval(self):
        # the workers share the tops and thresholds of the vertices: a lost
        # or crossed update that broke a threshold would change the graph
        x = np.random.default_rng(8).normal(size=(3000, 8)).astype(np.float32)
        emb = as_emb(x)
        expected = per_row_knn_oracle(emb, 5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # about 60 blocks of up to 64 rows
            assert knn_edges(emb, 5, threads=8, block_rows=64) == expected
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("pool", ["clustered", "isotropic"])
    def test_traced_peak_is_bounded_by_the_strip_budget(self, pool):
        n, d = 4096, 64
        if pool == "clustered":
            emb = generate_synthetic(n, d, 8, 0.5, seed=3)
        else:
            # no block pair is skipped and most strip columns are live, so
            # the screen filters most strips whole rather than a copy
            emb = as_emb(np.random.default_rng(3).normal(size=(n, d)).astype(np.float32))
        tracemalloc.start()
        try:
            build_knn_graph(emb, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a strip holds at most _BLOCK_ROWS rows by n columns plus the
        # screen's group padding: the strip, the float32 rows, and the
        # candidates with the filter's temporaries and its copy of the live
        # columns within a second strip; a float32 n x n array (16 strips)
        # would not fit
        strip = 4 * graph._BLOCK_ROWS * (n + graph._GROUP_COLUMNS)
        assert peak <= 2 * strip + n * d * 4

    @pytest.mark.parametrize("threads", [1, 8])
    def test_separable_pools_skip_block_pairs(self, threads):
        # eight tight clusters on orthogonal axes: the bound rules out every
        # block pair across clusters, so well under half of the upper
        # triangle is computed, and the graph stays exact
        rng = np.random.default_rng(11)
        x = np.eye(64, dtype=np.float32)[np.arange(800) % 8] * 3
        x += rng.normal(0, 0.05, size=x.shape).astype(np.float32)
        emb = as_emb(x)
        with counted_similarities() as count:
            got = knn_edges(emb, 10, threads, block_rows=32)
        assert count[0] < 0.3 * 800 * 800 / 2
        assert got == per_row_knn_oracle(emb, 10)

    @pytest.mark.parametrize("threads", [1, 8])
    def test_isotropic_pools_skip_nothing(self, threads):
        # no structure: no block pair can be ruled out, so the screen
        # computes at least the whole upper triangle
        x = np.random.default_rng(12).normal(size=(600, 32)).astype(np.float32)
        emb = as_emb(x)
        with counted_similarities() as count:
            got = knn_edges(emb, 10, threads, block_rows=32)
        assert count[0] >= 600 * 599 / 2
        assert got == per_row_knn_oracle(emb, 10)

    @pytest.mark.parametrize("k", [3, 12, 40])
    def test_blocks_of_k_rows_or_fewer(self, k):
        # blocks of 3 rows: each widens its thresholds to its nearest blocks
        x = np.random.default_rng(k).normal(size=(200, 6)).astype(np.float32)
        x[::9] = x[1::9][: len(x[::9])]
        emb = as_emb(x)
        assert knn_edges(emb, k, block_rows=3) == per_row_knn_oracle(emb, k)

    def test_all_rows_equal(self):
        # every similarity ties at 1: each vertex takes the k lowest others
        emb = as_emb(np.tile(np.float32([0.3, -1.2, 2.0]), (150, 1)))
        k = 7
        expected = {(min(u, v), max(u, v)) for u in range(150)
                    for v in [w for w in range(150) if w != u][:k]}
        for rows in (5, 64):
            assert knn_edges(emb, k, block_rows=rows) == expected

    def test_antipodal_rows(self):
        # rows come in pairs x, -x, so a block's rows can sum to about 0
        # and its centre falls back to a row
        h = np.random.default_rng(13).normal(size=(150, 5)).astype(np.float32)
        x = np.empty((300, 5), dtype=np.float32)
        x[0::2], x[1::2] = h, -h
        emb = as_emb(x)
        for rows in (2, 16, 64):
            assert knn_edges(emb, 6, block_rows=rows) == per_row_knn_oracle(emb, 6)

    @pytest.mark.parametrize("n", [7, 600])
    def test_k_equals_n_minus_1_is_complete(self, n):
        emb = generate_synthetic(n, 4, 2, 0.5, seed=n)
        assert build_knn_graph(emb, n - 1).num_edges == n * (n - 1) // 2

    def test_threads_do_not_change_the_graph(self):
        x = np.random.default_rng(6).normal(size=(1100, 24)).astype(np.float32)
        x[500:520] = x[0]
        emb = as_emb(x)
        one = build_knn_graph(emb, 10, threads=1).edge_list()
        four = build_knn_graph(emb, 10, threads=4).edge_list()
        assert np.array_equal(one, four)
        assert {tuple(e[:2]) for e in one.tolist()} == per_row_knn_oracle(emb, 10)


class TestBuildKnn:
    def test_complete_graph_at_k_equals_n_minus_1(self, rng):
        emb = generate_synthetic(8, 4, 2, 0.5, seed=1)
        g = build_knn_graph(emb, 7)
        assert g.num_edges == 8 * 7 // 2

    def test_three_rays(self):
        angles = [0.0, math.pi / 6, math.pi / 3]
        vecs = np.array([[math.cos(a), math.sin(a)] for a in angles])
        emb = EmbeddingMatrix(ids=["a", "b", "c"], vectors=vecs)
        g = build_knn_graph(emb, 1)
        got = {tuple(e[:2]) for e in g.edge_list().tolist()}
        assert got == brute_force_knn_edges(emb, 1)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(5):
            emb = generate_synthetic(int(rng.integers(10, 30)), 6, 3, 0.4, seed=int(rng.integers(1e6)))
            k = int(rng.integers(1, 6))
            g = build_knn_graph(emb, k)
            got = {tuple(e[:2]) for e in g.edge_list().tolist()}
            assert got == brute_force_knn_edges(emb, k)

    def test_min_degree_at_least_k(self):
        emb = generate_synthetic(400, 16, 8, 0.3, seed=5)
        g = build_knn_graph(emb, 10)
        assert g.degrees().min() >= 10

    def test_level0_weights_are_one(self):
        emb = generate_synthetic(20, 4, 2, 0.3, seed=5)
        g = build_knn_graph(emb, 3)
        assert (g.vertex_weights == 1).all()
        assert (g.edge_weights == 1).all()

    def test_invalid_k(self):
        emb = generate_synthetic(5, 3, 1, 0.2, seed=0)
        with pytest.raises(InvalidK):
            build_knn_graph(emb, 0)
        with pytest.raises(InvalidK):
            build_knn_graph(emb, 5)

    def test_symmetry_full_scan(self):
        emb = generate_synthetic(60, 8, 4, 0.3, seed=9)
        g = build_knn_graph(emb, 5)
        for v in range(g.num_vertices):
            nbrs, ws = g.neighbors_of(v)
            for u, w in zip(nbrs.tolist(), ws.tolist()):
                back_n, back_w = g.neighbors_of(u)
                i = np.searchsorted(back_n, v)
                assert back_n[i] == v and back_w[i] == w

    def test_no_self_loops_no_duplicates(self):
        emb = generate_synthetic(50, 6, 3, 0.3, seed=4)
        g = build_knn_graph(emb, 4)
        for v in range(g.num_vertices):
            nbrs = g.neighbors_of(v)[0]
            assert v not in nbrs
            assert len(np.unique(nbrs)) == len(nbrs)

    def test_deterministic_and_thread_count_independent(self):
        emb = generate_synthetic(300, 12, 5, 0.3, seed=8)
        blobs = {
            json.dumps({**graph_to_dict(g, 10), "edges": g.edge_list().tolist()}, sort_keys=True)
            for g in (build_knn_graph(emb, 10, threads=t) for t in (1, 1, 4, 8))
        }
        assert len(blobs) == 1


def reference_csr(n, edges):
    """CSR arrays of the undirected weighted edge list `edges`, by a
    lexsort of the (source, neighbour) entries and a count per vertex."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    wgt = np.concatenate([e[:, 2], e[:, 2]])
    order = np.lexsort((dst, src))
    indptr = np.cumsum([0] + [int(np.count_nonzero(src == v)) for v in range(n)])
    return indptr, dst[order], wgt[order]


class TestGraphFromEdges:
    @pytest.mark.parametrize("orientation", ["low-high", "high-low", "mixed"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_on_shuffled_weighted_edges(self, seed, orientation):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        # the last vertex stays isolated
        pairs = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1)]
        pairs = [pairs[i] for i in rng.permutation(len(pairs))[: int(rng.integers(0, len(pairs) + 1))]]
        flip = {"low-high": np.zeros(len(pairs), dtype=bool), "high-low": np.ones(len(pairs), dtype=bool),
                "mixed": rng.random(len(pairs)) < 0.5}[orientation]
        edges = [(v, u, int(w)) if f else (u, v, int(w))
                 for (u, v), f, w in zip(pairs, flip, rng.integers(1, 100, size=len(pairs)))]
        self.check(n, edges)
        assert graph_from_edges(n, edges).degree(n - 1) == 0

    @pytest.mark.parametrize("n, edges", [(1, []), (5, []), (3, [(2, 0, 7)]), (4, [(3, 1, 2), (0, 3, 5)])])
    def test_small_and_empty_edge_lists(self, n, edges):
        self.check(n, edges)

    @staticmethod
    def check(n, edges):
        g = graph_from_edges(n, edges)
        indptr, nbrs, wgts = reference_csr(n, edges)
        assert g.indptr.dtype == g.neighbors.dtype == g.edge_weights.dtype == np.int64
        assert g.indptr.tolist() == indptr.tolist()
        assert g.neighbors.tolist() == nbrs.tolist()
        assert g.edge_weights.tolist() == wgts.tolist()
        for v in range(n):
            got = g.neighbors_of(v)[0]
            assert got.tolist() == sorted(got.tolist())


class TestDegree:
    def test_star_center(self):
        assert star_graph(5).degree(0) == 5

    def test_isolated_vertex(self):
        from fastgas.graph import graph_from_edges

        g = graph_from_edges(3, [(0, 1, 1)])
        assert g.degree(2) == 0

    def test_k4(self):
        from conftest import complete_graph

        assert complete_graph(4).degree(2) == 3

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            star_graph(3).degree(9)


class TestInducedSubgraph:
    def test_full_vertex_set_is_identity(self):
        g = cycle_graph(6)
        sub, mapping = induced_subgraph(g, range(6))
        assert np.array_equal(mapping, np.arange(6))
        assert np.array_equal(sub.edge_list(), g.edge_list())

    def test_single_vertex(self):
        sub, mapping = induced_subgraph(cycle_graph(4), [2])
        assert sub.num_vertices == 1 and sub.num_edges == 0
        assert mapping.tolist() == [2]

    def test_cycle_three_consecutive_gives_path(self):
        sub, mapping = induced_subgraph(cycle_graph(4), [0, 1, 2])
        assert sub.num_edges == 2
        # brute-force enumeration of surviving edges of C4 on {0,1,2}
        expected = {(0, 1), (1, 2)}
        assert {tuple(e[:2]) for e in sub.edge_list().tolist()} == expected

    def test_empty_set(self):
        with pytest.raises(EmptyVertexSet):
            induced_subgraph(cycle_graph(4), [])

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            induced_subgraph(cycle_graph(4), [0, 7])


class TestEdgeCut:
    def test_single_part(self):
        g = cycle_graph(5)
        assert edge_cut(g, [0] * 5) == 0

    def test_cycle_adjacent_pairs(self):
        assert edge_cut(cycle_graph(4), [0, 0, 1, 1]) == 2

    def test_two_triangles_own_parts(self):
        from fastgas.graph import graph_from_edges

        g = graph_from_edges(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
        assert edge_cut(g, [0, 0, 0, 1, 1, 1]) == 0

    def test_mismatched_partition(self):
        with pytest.raises(PartitionMismatch):
            edge_cut(cycle_graph(4), [0, 1])

    def test_cut_plus_internal_equals_total(self, rng):
        for _ in range(20):
            g = random_graph(int(rng.integers(5, 30)), 0.3, rng)
            assignment = rng.integers(0, 3, size=g.num_vertices)
            internal = sum(
                w for u, v, w in g.edge_list().tolist() if assignment[u] == assignment[v]
            )
            assert edge_cut(g, assignment) + internal == g.total_edge_weight


class TestSerialization:
    def test_round_trip(self):
        emb = generate_synthetic(40, 6, 3, 0.3, seed=2)
        g = build_knn_graph(emb, 4)
        back = graph_from_dict(graph_to_dict(g, 4))
        assert np.array_equal(back.edge_list(), g.edge_list())
        assert np.array_equal(back.vertex_weights, g.vertex_weights)

    @pytest.mark.parametrize("edges,vertex_weights,words", [
        ([[0, 7, 1]], [1, 1, 1], "edge 0 [0, 7, 1]: endpoint outside [0, 3)"),
        ([[0, 1, 1], [-1, 2, 1]], None, "edge 1 [-1, 2, 1]: endpoint outside"),
        ([[0, 1, 1], [2, 2, 1]], None, "edge 1 [2, 2, 1]: self-loop"),
        ([[0, 1, 1], [1, 2, 1], [0, 1, 1]], None, "edge 2 [0, 1, 1]: duplicate edge"),
        ([[0, 1, 1], [2, 1, 1], [1, 2, 3]], None, "edge 2 [1, 2, 3]: duplicate edge"),
        ([[0, 1, 1], [1, 2, -1]], None, "edge 1 [1, 2, -1]: negative weight"),
        # the first bad edge is named, whatever is wrong with it
        ([[0, 1, 1], [1, 1, 1], [0, 9, 1]], None, "edge 1 [1, 1, 1]: self-loop"),
        ([[0, 1, 1]], [1, 1], "vertex_weights must be a list of 3 integers"),
        ([[0, 1, 1]], [[1], [1], [1]], "vertex_weights must be a list of 3 integers"),
        ([[0, 1]], None, "bad graph JSON"),
        ([[0, 1, 2**70]], None, "bad graph JSON"),
        # every number is a JSON integer: no float, numeric string or bool
        ([[0, "2", 1]], None, 'edge 0 [0, "2", 1]: not all integers'),
        ([[0, 1, 1], [1.7, 2, 1]], None, "edge 1 [1.7, 2, 1]: not all integers"),
        ([[0, 1, 1.0]], None, "edge 0 [0, 1, 1.0]: not all integers"),
        ([[0, 1, 1], [1, 2, True]], None, "edge 1 [1, 2, true]: not all integers"),
        ([[True, 2, 1]], None, "edge 0 [true, 2, 1]: not all integers"),
        ([[0, 1, 1]], [1, True, 1], "vertex weight 1 true: not an integer"),
        ([[0, 1, 1]], [1, 1, 1.5], "vertex weight 2 1.5: not an integer"),
        ([[0, 1, 1]], [False, False, False], "vertex weight 0 false: not an integer"),
        ([[0, 1, 2**63]], None, "edges hold an integer outside the int64 range"),
        # edges are [u, v, weight] triples: not pairs, flat or nested deeper
        ([[0, 1]], None, "edges must be a list of [u, v, weight] triples"),
        ([[0, 1], [2, 1], [1, 2]], None, "edges must be a list of [u, v, weight] triples"),
        ([0, 1, 1], None, "edges must be a list of [u, v, weight] triples"),
        ([[[0, 1, 1]]], None, "edges must be a list of [u, v, weight] triples"),
        ([[[0, 1, True]]], None, "edges must be a list of [u, v, weight] triples"),
    ])
    def test_malformed_graph_names_the_edge(self, edges, vertex_weights, words):
        doc = {"num_vertices": 3, "k": 1, "edges": edges}
        if vertex_weights is not None:
            doc["vertex_weights"] = vertex_weights
        with pytest.raises(FormatError) as e:
            graph_from_dict(doc)
        assert words in str(e.value)

    @pytest.mark.parametrize("n", ["3", 3.0, True])
    def test_num_vertices_must_be_an_integer(self, n):
        with pytest.raises(FormatError, match="num_vertices .* is not an integer"):
            graph_from_dict({"num_vertices": n, "edges": []})

    def test_graph_file_with_true_is_rejected(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"num_vertices": 3, "edges": [[0, 1, 1], [1, 2, true]]}')
        with pytest.raises(FormatError, match="edge 1"):
            load_graph(str(p))
        p.write_text('{"num_vertices": 3, "edges": [[0, 1, 1], [1, 2, 1]], "k": 1}')
        assert load_graph(str(p)).num_edges == 2

    def test_negative_num_vertices(self):
        with pytest.raises(FormatError, match="num_vertices -1"):
            graph_from_dict({"num_vertices": -1, "edges": []})

    def test_either_orientation_is_accepted(self):
        g = graph_from_dict({"num_vertices": 3, "k": 1, "edges": [[1, 0, 1], [2, 1, 4]]})
        assert g.edge_list().tolist() == [[0, 1, 1], [1, 2, 4]]

    @pytest.mark.parametrize("data", [b"{", b'{"num_vertices": 3}\n{}', b"\xff", b"[" * 100000])
    def test_unreadable_graph_file(self, tmp_path, data):
        p = tmp_path / "g.json"
        p.write_bytes(data)
        with pytest.raises(FormatError, match="g.json"):
            load_graph(str(p))
