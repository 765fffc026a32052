import contextlib
import json
import math
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, path_graph, random_graph, star_graph
from fastgas import knn
from fastgas.embeddings import EmbeddingMatrix, cosine_similarity, generate_synthetic
from fastgas.errors import FormatError, InvalidParameter
from fastgas.graph import (
    edge_cut,
    graph_from_edges,
    graph_from_dict,
    graph_to_dict,
    induced_subgraph,
    load_graph,
)
from fastgas.knn import build_knn_graph


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
    rows = knn._BLOCK_ROWS if block_rows is None else block_rows
    with mock.patch.object(knn, "_BLOCK_ROWS", rows):
        g = build_knn_graph(emb, k, threads=threads)
    return {tuple(e[:2]) for e in g.edge_list().tolist()}


def screened(emb, k, block_rows=None):
    """The float32 similarities of the screen's candidate pairs, their
    float64 similarities, and the screen's eps."""
    rows = knn._BLOCK_ROWS if block_rows is None else block_rows
    got = {}
    screen_rows, screen = knn._screen_rows, knn._knn_screen

    def capture_rows(vecs, perm, starts):
        got["perm"] = perm
        return screen_rows(vecs, perm, starts)

    def capture(*args):
        got["found"], got["eps"] = screen(*args)
        return got["found"], got["eps"]

    with mock.patch.object(knn, "_BLOCK_ROWS", rows), mock.patch.object(knn, "_screen_rows", capture_rows), \
            mock.patch.object(knn, "_knn_screen", capture):
        build_knn_graph(emb, k)
    x = emb.vectors.astype(np.float64)
    unit = (x / np.linalg.norm(x, axis=1)[:, None])[got["perm"]]
    v, c, s32 = (np.concatenate(x) for x in zip(*got["found"]))
    return s32.astype(np.float64), np.einsum("ij,ij->i", unit[v], unit[c]), got["eps"]


def small_blocks(n):
    """A block size that cuts an n-row pool into four or more blocks."""
    return max(1, n // 4)


@contextlib.contextmanager
def counted_work():
    """Counts the kNN's work: "similarities", every product the screen
    writes into a buffer through `np.matmul(..., out=...)`; "corrected",
    every similarity it adds float64 terms to through `np.add(...,
    casting="same_kind")`; and "reranked", the pairs the float64 re-rank
    sorts with `np.lexsort`."""
    count = {"similarities": 0, "corrected": 0, "reranked": 0}
    matmul, add, lexsort = np.matmul, np.add, np.lexsort

    def counting_matmul(a, b, out=None):
        if out is not None:
            count["similarities"] += out.size
        return matmul(a, b, out=out)

    def counting_add(a, b, out=None, **kwargs):
        if kwargs.get("casting") == "same_kind":
            count["corrected"] += out.size
        return add(a, b, out=out, **kwargs)

    def counting_lexsort(keys):
        count["reranked"] += len(keys[0])
        return lexsort(keys)

    counting_add.outer = add.outer
    with mock.patch.object(knn.np, "matmul", counting_matmul), \
            mock.patch.object(knn.np, "add", counting_add), \
            mock.patch.object(knn.np, "lexsort", counting_lexsort):
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


def tight_clusters(rng, n, d, spreads):
    """n float32 rows round-robin over clusters around random unit centres,
    cluster c spread `spreads[c]` in total (spread/sqrt(d) a coordinate)."""
    centres = rng.normal(size=(len(spreads), d))
    centres /= np.linalg.norm(centres, axis=1)[:, None]
    labels = np.arange(n) % len(spreads)
    noise = rng.normal(size=(n, d)) * (np.asarray(spreads)[labels] / np.sqrt(d))[:, None]
    return (centres[labels] + noise).astype(np.float32)


@st.composite
def tight_knn_inputs(draw):
    """Pools of tight clusters, which the screen takes as residuals from
    their blocks' centres: spreads from 1e-4 to 0.3, sometimes mixed with a
    broad cluster; duplicated rows, rows one float32 ulp apart, a row on
    the pool's mean direction (the centre of a one-block pool, so its
    residual is about 0) and antipodal rows."""
    n = draw(st.integers(2, 70))
    d = draw(st.sampled_from([1, 2, 8, 64, 768]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spreads = draw(st.lists(st.sampled_from([1e-4, 1e-3, 0.01, 0.1, 0.3]), min_size=1, max_size=4))
    if draw(st.booleans()):
        spreads.append(1.5)
    x = tight_clusters(rng, n, d, spreads)
    for _ in range(draw(st.integers(0, n // 4 + 1))):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["copy", "ulp", "centre", "antipodal"]))
        if kind == "centre":
            unit = x.astype(np.float64) / np.linalg.norm(x.astype(np.float64), axis=1)[:, None]
            mean = unit.sum(axis=0)
            if np.linalg.norm(mean) > 0:
                x[dst] = mean / np.linalg.norm(mean)
        elif kind == "antipodal":
            x[dst] = -x[src]
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

    @settings(max_examples=60, deadline=None)
    @given(tight_knn_inputs())
    def test_tight_clusters_match_per_row_oracle(self, case):
        # the centred path: residuals from the blocks' centres plus the
        # float64 terms, with one and several blocks, one and three workers
        emb, k = case
        expected = per_row_knn_oracle(emb, k)
        for threads in (1, 3):
            assert knn_edges(emb, k, threads) == expected
            assert knn_edges(emb, k, threads, block_rows=small_blocks(emb.n)) == expected

    @settings(max_examples=40, deadline=None)
    @given(tight_knn_inputs())
    def test_screened_similarities_lie_within_half_eps(self, case):
        emb, k = case
        for rows in (None, small_blocks(emb.n)):
            s32, s64, eps = screened(emb, k, rows)
            assert np.all(np.abs(s32 - s64) <= eps / 2)

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
        # or crossed update that broke a threshold would change the graph;
        # an isotropic pool, and a tight one that the screen centres
        rng = np.random.default_rng(8)
        for x in (rng.normal(size=(3000, 8)).astype(np.float32),
                  tight_clusters(rng, 3000, 8, [0.02, 0.05, 0.1])):
            emb = as_emb(x)
            expected = per_row_knn_oracle(emb, 5)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                # about 60 blocks of up to 64 rows
                assert knn_edges(emb, 5, threads=8, block_rows=64) == expected
            finally:
                sys.setswitchinterval(interval)

    @pytest.mark.parametrize("pool", ["clustered", "isotropic", "tight"])
    def test_traced_peak_is_bounded_by_the_strip_budget(self, pool):
        n, d = 4096, 64
        if pool == "clustered":
            emb = generate_synthetic(n, d, 8, 0.5, seed=3)
        elif pool == "tight":
            # every block is centred: the float64 terms of a strip are
            # added block by block
            emb = as_emb(tight_clusters(np.random.default_rng(3), n, d, [0.1] * 8))
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
        strip = 4 * knn._BLOCK_ROWS * (n + knn._GROUP_COLUMNS)
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
        with counted_work() as count:
            got = knn_edges(emb, 10, threads, block_rows=32)
        assert count["similarities"] < 0.3 * 800 * 800 / 2
        assert got == per_row_knn_oracle(emb, 10)

    @pytest.mark.parametrize("threads", [1, 8])
    def test_isotropic_pools_skip_nothing(self, threads):
        # no structure: no block pair can be ruled out, so the screen
        # computes at least the whole upper triangle
        x = np.random.default_rng(12).normal(size=(600, 32)).astype(np.float32)
        emb = as_emb(x)
        with counted_work() as count:
            got = knn_edges(emb, 10, threads, block_rows=32)
        assert count["similarities"] >= 600 * 599 / 2
        # every block is broad, so the screen adds no float64 terms
        assert count["corrected"] == 0
        assert got == per_row_knn_oracle(emb, 10)

    def test_centred_screen_narrows_the_rerank_band(self):
        # four tight clusters (spread 0.05, radius about 0.07): every block
        # is centred, and eps, about 2·γ_d·rho² + 6u instead of 2·γ_d + 8u,
        # leaves a small fraction of the pairs in the float64 re-rank; the
        # plain screen (no block centred) finds the same graph
        x = tight_clusters(np.random.default_rng(21), 2000, 768, [0.05] * 4)
        emb = as_emb(x)
        with counted_work() as centred:
            got = knn_edges(emb, 10)
        with mock.patch.object(knn, "_CENTRED_RADIUS", -1.0), counted_work() as plain:
            assert knn_edges(emb, 10) == got
        assert centred["corrected"] == centred["similarities"] > 0
        assert plain["corrected"] == 0
        assert centred["reranked"] <= 0.02 * plain["reranked"]

    @pytest.mark.parametrize("threads", [1, 4])
    def test_tight_blocks_then_a_loose_one(self, threads):
        # blocks of 32 rows in pool order: four tight ones, two loose ones
        # and two tight ones; the screen writes the first four as residuals,
        # measures the first loose one, then takes every block as plain rows
        # and measures no radius after it
        rng = np.random.default_rng(14)
        x = np.concatenate([tight_clusters(rng, 64, 16, [s]) for s in (0.05, 0.05, 1.5, 0.05)])
        emb = as_emb(x)
        starts = np.arange(0, 257, 32)
        screen_rows, got = knn._screen_rows, {}

        def capture(vecs, perm, starts):
            got["radius"], got["res"] = (out := screen_rows(vecs, perm, starts))[2:]
            return out

        with mock.patch.object(knn, "_block_order", lambda v: (np.arange(len(v)), starts)), \
                mock.patch.object(knn, "_screen_rows", capture):
            edges = {tuple(e[:2]) for e in build_knn_graph(emb, 5, threads=threads).edge_list().tolist()}
        radius = got["radius"]
        assert np.all(radius[:4] <= knn._CENTRED_RADIUS) and radius[4] > knn._CENTRED_RADIUS
        assert np.all(np.isinf(radius[5:]))
        unit = x.astype(np.float64) / np.linalg.norm(x.astype(np.float64), axis=1)[:, None]
        assert np.array_equal(got["res"], unit.astype(np.float32))
        assert edges == per_row_knn_oracle(emb, 5)

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


class TestRoundingError:
    @staticmethod
    def error(xi, xj, z):
        """|s - x̂_i·x̂_j| in exact arithmetic, s the screen's similarity of
        the float64 rows xi and xj with centre z: the float32 product of
        the float32 residuals plus r_i·z + z·r_j + z·z."""
        xi, xj, z = (np.atleast_1d(np.float64(v)) for v in (xi, xj, z))
        ri, rj = (xi - z).astype(np.float32), (xj - z).astype(np.float32)

        def exact(a, b):
            return sum((Fraction(float(p)) * Fraction(float(q)) for p, q in zip(a, b)), Fraction(0))

        g = Fraction(float(np.matmul(ri, rj)))
        terms = exact(ri, z) + exact(z, rj) + exact(z, z)
        return abs(g + terms - exact(xi, xj)), max(np.linalg.norm(xi - z), np.linalg.norm(xj - z))

    def test_bound_holds_for_maximal_residual_roundings(self):
        # d = 1, centre 1, rows 1 - t whose residual -t lies just inside
        # the midpoint above 1/4, so it rounds to -1/4 by almost u: the
        # rows move by u·rho each, and the error, 3/8·u, exceeds the float32
        # product's share γ_1·(1 + u)²·rho² = u/16 of the bound
        t = 0.25 * (1 + 2.0**-24 - 2.0**-50)
        err, rho = self.error(1 - t, 1 - t, 1.0)
        assert err == pytest.approx(0.375 * 2.0**-24, rel=1e-6)
        assert err <= knn._rounding_error(1, rho)

    @pytest.mark.parametrize("d", [2, 8, 64, 768])
    def test_bound_holds_for_random_tight_rows(self, d):
        rng = np.random.default_rng(d)
        for spread in (1e-4, 0.01, 0.3):
            z = rng.normal(size=d)
            z /= np.linalg.norm(z)
            xi, xj = (v / np.linalg.norm(v) for v in z + rng.normal(size=(2, d)) * spread / np.sqrt(d))
            err, rho = self.error(xi, xj, z)
            assert err <= knn._rounding_error(d, rho)


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
        assert np.diff(g.indptr).min() >= 10

    def test_level0_weights_are_one(self):
        emb = generate_synthetic(20, 4, 2, 0.3, seed=5)
        g = build_knn_graph(emb, 3)
        assert (g.vertex_weights == 1).all()
        assert (g.edge_weights == 1).all()

    def test_invalid_k(self):
        emb = generate_synthetic(5, 3, 1, 0.2, seed=0)
        with pytest.raises(InvalidParameter, match="k must satisfy 1 <= k <= N-1, got k=0, N=5"):
            build_knn_graph(emb, 0)
        with pytest.raises(InvalidParameter, match="k must satisfy 1 <= k <= N-1, got k=5, N=5"):
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
            json.dumps({**graph_to_dict(g, 10, emb.ids), "edges": g.edge_list().tolist()}, sort_keys=True)
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
        assert np.diff(graph_from_edges(n, edges).indptr)[n - 1] == 0

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
        assert np.diff(star_graph(5).indptr).tolist() == [5, 1, 1, 1, 1, 1]

    def test_isolated_vertex(self):
        from fastgas.graph import graph_from_edges

        g = graph_from_edges(3, [(0, 1, 1)])
        assert np.diff(g.indptr).tolist() == [1, 1, 0]

    def test_k4(self):
        from conftest import complete_graph

        assert np.diff(complete_graph(4).indptr).tolist() == [3, 3, 3, 3]

    def test_out_of_range(self):
        with pytest.raises(InvalidParameter, match=r"vertex 9 out of range \[0, 4\)"):
            star_graph(3).neighbors_of(9)


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

    def test_matches_filtered_edge_list(self):
        # brute force: keep the edges of edge_list() with both ends in the set
        rng = np.random.default_rng(25)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2]
            edges = [(u, v, int(rng.integers(1, 6))) for u, v in pairs]
            g = graph_from_edges(n, edges, vertex_weights=rng.integers(1, 5, size=n))
            vertices = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1))).tolist()
            sub, mapping = induced_subgraph(g, vertices)
            members = sorted(set(vertices))
            assert mapping.tolist() == members
            new = {v: i for i, v in enumerate(members)}
            expected = [[new[u], new[v], w] for u, v, w in g.edge_list().tolist() if u in new and v in new]
            assert sub.edge_list().tolist() == expected
            assert sub.vertex_weights.tolist() == g.vertex_weights[members].tolist()

    def test_empty_set(self):
        with pytest.raises(InvalidParameter, match="induced_subgraph needs a nonempty vertex set"):
            induced_subgraph(cycle_graph(4), [])

    def test_out_of_range(self):
        with pytest.raises(InvalidParameter, match=r"vertex set outside \[0, 4\)"):
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
        with pytest.raises(InvalidParameter, match=r"assignment covers \(2,\) vertices, graph has 4"):
            edge_cut(cycle_graph(4), [0, 1])

    def test_cut_plus_internal_equals_total(self, rng):
        for _ in range(20):
            g = random_graph(int(rng.integers(5, 30)), 0.3, rng)
            assignment = rng.integers(0, 3, size=g.num_vertices)
            internal = sum(
                w for u, v, w in g.edge_list().tolist() if assignment[u] == assignment[v]
            )
            assert edge_cut(g, assignment) + internal == int(g.edge_weights.sum()) // 2


class TestSerialization:
    def test_round_trip(self, tmp_path):
        """A graph written as the CLI writes it reads back with its ids."""
        from fastgas.cli import _write_json

        emb = generate_synthetic(40, 6, 3, 0.3, seed=2)
        g = build_knn_graph(emb, 4)
        _write_json(str(tmp_path / "g.json"), graph_to_dict(g, 4, emb.ids))
        assert list(json.loads((tmp_path / "g.json").read_text())) == ["num_vertices", "k", "edges", "ids"]
        back, ids = load_graph(str(tmp_path / "g.json"))
        assert np.array_equal(back.edge_list(), g.edge_list())
        assert np.array_equal(back.vertex_weights, g.vertex_weights)
        assert ids == emb.ids

    @pytest.mark.parametrize("edges,vertex_weights,words", [
        ([[0, 7, 1]], [1, 1, 1], "edge 0 [0, 7, 1]: endpoint outside [0, 3)"),
        ([[0, 1, 1], [-1, 2, 1]], None, "edge 1 [-1, 2, 1]: endpoint outside"),
        ([[0, 1, 1], [2, 2, 1]], None, "edge 1 [2, 2, 1]: self-loop"),
        ([[0, 1, 1], [1, 2, 1], [0, 1, 1]], None, "edge 2 [0, 1, 1]: duplicate edge"),
        ([[0, 1, 1], [2, 1, 1], [1, 2, 3]], None, "edge 2 [1, 2, 3]: duplicate edge"),
        ([[0, 1, 1], [1, 2, -1]], None, "edge 1 [1, 2, -1]: weight other than 1"),
        # the first bad edge is named, whatever is wrong with it
        ([[0, 1, 1], [1, 1, 1], [0, 9, 1]], None, "edge 1 [1, 1, 1]: self-loop"),
        # a dict in place of vertex_weights holds other keys: num_vertices past
        # 2**31 - 1, where an edge's key u·n + v could overflow, is named
        # before anything of its size is allocated
        ([[0, 1, 1]], {"num_vertices": 10**12}, "num_vertices 1000000000000: above 2147483647"),
        ([], {"num_vertices": 10**20}, "num_vertices 100000000000000000000: above 2147483647"),
        ([[0, 1]], None, "bad graph JSON"),
        ([[0, 1, 2**70]], None, "bad graph JSON"),
        # every number is a JSON integer: no float, numeric string or bool
        ([[0, "2", 1]], None, 'edge 0 [0, "2", 1]: not all integers'),
        ([[0, 1, 1], [1.7, 2, 1]], None, "edge 1 [1.7, 2, 1]: not all integers"),
        ([[0, 1, 1.0]], None, "edge 0 [0, 1, 1.0]: not all integers"),
        ([[0, 1, 1], [1, 2, True]], None, "edge 1 [1, 2, true]: not all integers"),
        ([[True, 2, 1]], None, "edge 0 [true, 2, 1]: not all integers"),
        # vertex_weights, which build-graph once wrote, is not read, whatever it holds
        ([[0, 1, 1], [1, 1, 1]], [1, True, 1.5], "edge 1 [1, 1, 1]: self-loop"),
        ([[0, 1, 1], [0, 1, 1]], [False, False, False], "edge 1 [0, 1, 1]: duplicate edge"),
        ([[0, 1, 1], [1, 2, -1]], [1, 1, -1], "edge 1 [1, 2, -1]: weight other than 1"),
        ([[0, 1, 2**63]], None, "edges hold an integer outside the int64 range"),
        # edges are [u, v, weight] triples: not pairs, flat or nested deeper
        ([[0, 1]], None, "edges must be a list of [u, v, weight] triples"),
        ([[0, 1], [2, 1], [1, 2]], None, "edges must be a list of [u, v, weight] triples"),
        ([0, 1, 1], None, "edges must be a list of [u, v, weight] triples"),
        ([[[0, 1, 1]]], None, "edges must be a list of [u, v, weight] triples"),
        ([[[0, 1, True]]], None, "edges must be a list of [u, v, weight] triples"),
        # a count below 1 is named, however large its magnitude
        ([[0, 1, 1]], {"num_vertices": -10**20}, "num_vertices -100000000000000000000: a graph needs"),
        # edges None: the document is a JSON array, not an object
        (None, None, "bad graph JSON: expected a JSON object"),
        # a dict in place of vertex_weights holds other keys: the graph's ids
        ([[0, 1, 1]], {"ids": "a,b,c"}, "bad graph JSON: ids must be a list of 3 strings"),
        ([[0, 1, 1]], {"ids": ["a", "b"]}, "bad graph JSON: ids must be a list of 3 strings"),
        ([[0, 1, 1]], {"ids": ["a", "b", 7]}, "bad graph JSON: id 2 7: not a string"),
        # the selectors count neighbours where the partitioner weighs edges,
        # so a weight that would mean something to one of them only is refused
        ([[0, 1, 1], [1, 2, 0]], None, "edge 1 [1, 2, 0]: weight other than 1"),
        ([[0, 1, 100]], None, "edge 0 [0, 1, 100]: weight other than 1"),
    ])
    def test_malformed_graph_names_the_edge(self, edges, vertex_weights, words):
        doc = [1, 2] if edges is None else {"num_vertices": 3, "k": 1, "edges": edges}
        if type(vertex_weights) is dict:
            doc.update(vertex_weights)
        elif vertex_weights is not None:
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
        g, ids = load_graph(str(p))
        assert g.num_edges == 2 and ids is None

    def test_negative_num_vertices(self):
        with pytest.raises(FormatError, match="num_vertices -1"):
            graph_from_dict({"num_vertices": -1, "edges": []})

    def test_either_orientation_is_accepted(self):
        g = graph_from_dict({"num_vertices": 3, "k": 1, "edges": [[1, 0, 1], [2, 1, 1]]})
        assert g.edge_list().tolist() == [[0, 1, 1], [1, 2, 1]]

    @pytest.mark.parametrize("data", [b"{", b'{"num_vertices": 3}\n{}', b"\xff", b"[" * 100000])
    def test_unreadable_graph_file(self, tmp_path, data):
        p = tmp_path / "g.json"
        p.write_bytes(data)
        with pytest.raises(FormatError, match="g.json"):
            load_graph(str(p))
