"""Undirected vertex- and edge-weighted similarity graph in CSR form.

The same structure holds the original kNN graph (all weights 1)
and the coarse graphs produced during multilevel partitioning.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import (
    EmptyVertexSet,
    FormatError,
    IndexOutOfRange,
    InvalidK,
    PartitionMismatch,
)

# Rows per block of the kNN screen; the k-means that orders the rows has
# about n / _BLOCK_ROWS centres.
_BLOCK_ROWS = 256
# Lloyd iterations of that k-means, and its sample: rows per centre.
_KMEANS_ITERS = 3
_KMEANS_SAMPLE = 16
# Columns per strided group whose maximum raises a row's lo in the screen.
_GROUP_COLUMNS = 16
# Float64 elements per operand in one chunk of the kNN re-rank.
_RERANK_CHUNK = 1 << 18


@dataclass(frozen=True)
class SimilarityGraph:
    indptr: np.ndarray
    neighbors: np.ndarray
    edge_weights: np.ndarray
    vertex_weights: np.ndarray

    def __post_init__(self):
        for a in (self.indptr, self.neighbors, self.edge_weights, self.vertex_weights):
            a.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.neighbors) // 2

    @property
    def total_edge_weight(self) -> int:
        return int(self.edge_weights.sum()) // 2

    @property
    def total_vertex_weight(self) -> int:
        return int(self.vertex_weights.sum())

    def degree(self, v: int) -> int:
        if not 0 <= v < self.num_vertices:
            raise IndexOutOfRange(f"vertex {v} out of range [0, {self.num_vertices})")
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors_of(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted neighbor indices of v and the matching edge weights."""
        if not 0 <= v < self.num_vertices:
            raise IndexOutOfRange(f"vertex {v} out of range [0, {self.num_vertices})")
        lo, hi = self.indptr[v], self.indptr[v + 1]
        return self.neighbors[lo:hi], self.edge_weights[lo:hi]

    def sources(self) -> np.ndarray:
        """The vertex each entry of `neighbors` belongs to, as int64."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr))

    def edge_list(self) -> np.ndarray:
        """Array of (u, v, w) rows with u < v, ordered lexicographically."""
        src = self.sources()
        mask = src < self.neighbors
        return np.column_stack([src[mask], self.neighbors[mask], self.edge_weights[mask]])


def graph_from_edges(n: int, edges, vertex_weights=None) -> SimilarityGraph:
    """Build a SimilarityGraph from (u, v, w) triples with u != v.

    Each undirected edge appears once in `edges`; both directions are stored.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    if vertex_weights is None:
        vertex_weights = np.ones(n, dtype=np.int64)
    else:
        vertex_weights = np.asarray(vertex_weights, dtype=np.int64)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    # one stable sort of the key src·n + dst orders the entries by (src, dst)
    order = np.argsort(src * n + dst, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return SimilarityGraph(
        indptr=indptr,
        neighbors=dst[order],
        edge_weights=np.concatenate([edges[:, 2], edges[:, 2]])[order],
        vertex_weights=vertex_weights,
    )


def _unique_sorted(x: np.ndarray) -> np.ndarray:
    """np.unique(x) of a 1-D array, by a sort and an adjacent-difference mask."""
    x = np.sort(x)
    keep = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def build_knn_graph(emb: EmbeddingMatrix, k: int, threads: int = 1) -> SimilarityGraph:
    """kNN graph under cosine similarity, symmetrized by union.

    An edge (u, v) exists if v is among u's k most similar other vertices or
    vice versa. Similarity is the float64 dot product of the rows normalized
    in float64, and ties go to the lower index.

    The search is exact. For unit rows a float32 similarity s32 lies within
    eps/2 = (d+4)·2⁻²⁴/(1-d·2⁻²⁴) of the float64 one s64 (the dot-product
    bound γ_d of Higham, Accuracy and Stability of Numerical Algorithms,
    §3.1, plus the rounding of the rows); the same holds for a row and any
    unit vector rounded to float32.

    Thresholds. Each vertex v keeps a threshold lo[v]: the k-th largest s32
    of v to k different partners it has been compared with, minus eps,
    rounded down to float32; lo only rises. Those k partners have s64 at
    least lo + eps/2, so every partner in the float64 top k, ties included,
    has s32 >= lo[v], whichever product computed it: a pair below lo[v] at
    any time can be dropped from v's side.

    Screen. `_block_order` orders the rows by a cheap k-means and cuts them
    into blocks. Each block is first compared with itself, widened to its
    nearest blocks when it has k rows or fewer; that sets its rows' lo and
    keeps its own pairs at or above them. For two blocks A and B, let α be
    the smallest angle of a row of A to B's unit centre ĉ and θ the largest
    of a row of B to ĉ, both from float32 products padded by eps/2. By the
    triangle inequality every pair of A × B has s64 <= cos(max(0, α - θ)),
    and the bound is the smaller of that and its mirror through A's centre.
    A pair of blocks whose bound + eps/2 lies below the lo of all their rows
    holds no pair at or above either end's lo and is skipped. The screen
    then takes the blocks from the last: block A's rows against the kept
    blocks to its right, in one product. Before its pairs are filtered, each
    row's lo rises with its maxima over strided groups of these columns and
    each column's with its maximum over these rows (partners that its lo
    has not yet counted). Each vertex tracks the smallest of the k largest
    s32 it has seen, so only the columns whose maximum beats it are
    updated. A pair is kept for each end whose lo it reaches. Such a pair
    has s32 >= lo[i] >= the smallest lo of the rows, or s32 >= lo[j], and
    s32 is at most column j's maximum; so only the live columns, whose
    maximum reaches the smaller of those two, can hold one, and a strip
    with few of them filters a copy of them alone. Going from the last
    block, a column's lo has already risen with its own strip. A last
    filter drops the pairs below the final lo.

    So each vertex's candidates are exactly its partners with s32 >= its
    final lo, the float64 top k among them. Let K be its k-th largest
    candidate s32, which is then its k-th largest s32 over all partners.
    Fewer than k partners have s32 > K and at least k have s32 >= K, so the
    float64 k-th similarity lies within eps/2 of K. A candidate above
    K + eps therefore has s64 above that value and is in the top k; one
    below K - eps is out. Only the band in between is re-ranked in float64
    by (-s64, index), and a vertex whose band holds just the members it
    still needs takes them all. The result is the exact float64 top k, so
    neither the k-means, the block size nor `threads`, which deals the
    blocks to workers, can change it.
    """
    n, d = emb.n, emb.dim
    if k < 1 or k >= n:
        raise InvalidK(f"k must satisfy 1 <= k <= N-1, got k={k}, N={n}")
    vecs = emb.vectors
    chunk = max(1, _RERANK_CHUNK // d)
    norms = np.empty(n)
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        norms[rows] = np.linalg.norm(vecs[rows].astype(np.float64), axis=1)
    perm, starts = _block_order(vecs)
    unit32 = np.empty((n, d), dtype=np.float32)
    for start in range(0, n, chunk):
        rows = perm[start:start + chunk]
        unit32[start:start + chunk] = np.divide(vecs[rows], norms[rows, None])

    # eps is twice (d+4)·u/(1-d·u), which bounds |float32 - float64 similarity|
    # of unit rows while d·u < 1/2: γ_d for the float32 dot product, 2·u for
    # rounding the rows to float32, and slack for the second-order terms.
    u = 2.0**-24
    eps = 2 * (d + 4) * u / (1 - d * u)
    found = _knn_screen(unit32, starts, k, eps, threads)
    del unit32
    v, c, sim = (np.concatenate(x) for x in zip(*found))
    del found
    perm = perm.astype(np.int32)
    v, c = perm[v], perm[c]

    # K, each vertex's k-th largest float32 similarity, from one argsort of
    # uint64 keys ordered as (vertex, -similarity)
    bits = sim.view(np.uint32)
    rising = np.where(bits >> 31, ~bits, bits | np.uint32(1 << 31))
    key = (v.astype(np.uint64) << np.uint64(32)) | (~rising).astype(np.uint64)
    counts = np.bincount(v, minlength=n)
    kth = sim[np.argsort(key)[np.cumsum(counts) - counts + k - 1]].astype(np.float64)[v]
    sim = sim.astype(np.float64)
    above = sim > kth + eps
    band = ~above & (sim >= kth - eps)
    need = k - np.bincount(v[above], minlength=n)
    bv, bc = v[band], c[band]
    rerank = np.bincount(bv, minlength=n)[bv] > need[bv]
    rv, rc = bv[rerank], bc[rerank]
    order = np.argsort(rv, kind="stable")
    rv, rc = rv[order], rc[order]
    # a chunk normalizes each of its vertices' rows once, for all their pairs
    s64 = np.empty(len(rv))
    for i in range(0, len(rv), chunk):
        j = slice(i, i + chunk)
        first = np.flatnonzero(np.diff(rv[j], prepend=-1))
        query = np.divide(vecs[rv[j][first]], norms[rv[j][first], None])
        s64[j] = np.einsum("ij,ij->i", np.repeat(query, np.diff(first, append=len(rv[j])), axis=0),
                           np.divide(vecs[rc[j]], norms[rc[j], None]))
    order = np.lexsort((rc, -s64, rv))
    rv, rc = rv[order], rc[order]
    counts = np.bincount(rv, minlength=n)
    take = np.arange(len(rv)) - (np.cumsum(counts) - counts)[rv] < need[rv]

    src = np.concatenate([v[above], bv[~rerank], rv[take]]).astype(np.int64)
    dst = np.concatenate([c[above], bc[~rerank], rc[take]]).astype(np.int64)
    key = _unique_sorted(np.minimum(src, dst) * n + np.maximum(src, dst))
    edges = np.column_stack([key // n, key % n, np.ones(len(key), dtype=np.int64)])
    return graph_from_edges(n, edges)


def _block_order(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row order of the kNN screen and the starts of its blocks, n last.

    A few Lloyd iterations of spherical k-means with about n/(2·`_BLOCK_ROWS`)
    centres, fitted on a fixed random sample of the rows from farthest-point
    seeds, group the rows; each cluster is cut into blocks of
    `_BLOCK_ROWS` rows and one of the rest. Any order gives the same graph."""
    n = len(vecs)
    m = -(-n // (2 * _BLOCK_ROWS))  # clusters of about two blocks
    x = vecs[np.sort(np.random.default_rng(0).choice(n, min(n, _KMEANS_SAMPLE * m), replace=False))]
    x = x.astype(np.float64) / np.linalg.norm(x.astype(np.float64), axis=1)[:, None]
    # farthest-point seeds: each next seed is the row least similar to its
    # nearest seed so far, so separated groups all get one
    seeds = [0]
    closest = x @ x[0]
    for _ in range(m - 1):
        seeds.append(int(np.argmin(closest)))
        np.maximum(closest, x @ x[seeds[-1]], out=closest)
    centres = x[seeds]
    for _ in range(_KMEANS_ITERS):
        member = np.zeros((m, len(x)))
        member[np.argmax(x @ centres.T, axis=1), np.arange(len(x))] = 1
        sums = member @ x
        norm = np.linalg.norm(sums, axis=1)
        # an empty cluster, or one whose rows cancel, keeps its centre
        centres[norm > 0] = sums[norm > 0] / norm[norm > 0, None]
    # the nearest centre of a row does not depend on the row's length; a
    # product that overflows float32 only moves the row to another block
    with np.errstate(over="ignore", invalid="ignore"):
        labels = np.argmax(vecs @ centres.astype(np.float32).T, axis=1)
    sizes = np.bincount(labels, minlength=m)
    cuts = np.concatenate([np.arange(end - size, end, _BLOCK_ROWS)
                           for size, end in zip(sizes, np.cumsum(sizes)) if size])
    return np.argsort(labels, kind="stable"), np.append(cuts, n)


def _floor32(x: np.ndarray) -> np.ndarray:
    """float64 `x` rounded down to float32."""
    y = x.astype(np.float32)
    return np.where(y > x, np.nextafter(y, np.float32(-np.inf)), y)


def _knn_screen(unit32: np.ndarray, starts: np.ndarray, k: int, eps: float, threads: int) -> list:
    """The float32 screen of `build_knn_graph` over the blocks [starts[i],
    starts[i+1]) of the rows: pieces of int32 vertices, int32 partners and
    float32 similarities, among them every pair with s32 >= the vertex's lo."""
    nb = len(starts) - 1
    sizes = np.diff(starts)

    # a block's centre is its normalized row sum, or its first row if that is 0
    cent = np.array([unit32[starts[a]:starts[a + 1]].sum(axis=0, dtype=np.float64)
                     for a in range(nb)])
    zero = np.linalg.norm(cent, axis=1) == 0
    cent[zero] = unit32[starts[:-1][zero]]
    cent = (cent / np.linalg.norm(cent, axis=1)[:, None]).astype(np.float32)
    # near[a, b]: the largest s32 of a row of block a to the centre of b;
    # far[b]: the smallest of a row of b to its own centre
    near = np.empty((nb, nb), dtype=np.float32)
    far = np.empty(nb, dtype=np.float32)
    for a in range(nb):
        g = unit32[starts[a]:starts[a + 1]] @ cent.T
        near[a], far[a] = g.max(axis=0), g[:, a].min()
    # the angles to a centre, within eps/2 of their s32, bound every float64
    # similarity between two blocks through the triangle inequality
    alpha = np.arccos(np.clip(near.astype(np.float64) + eps / 2, -1, 1))
    theta = np.arccos(np.clip(far.astype(np.float64) - eps / 2, -1, 1))
    bound = np.cos(np.maximum(alpha - theta, 0))
    bound = np.minimum(bound, bound.T)

    # top[v]: the k largest s32 of v seen so far, each to a different
    # partner; kth[v]: their smallest; lo[v] never falls below kth[v] minus
    # eps, rounded down
    top = np.empty((len(unit32), k), dtype=np.float32)
    kth = np.empty(len(unit32), dtype=np.float32)
    lo = np.empty(len(unit32), dtype=np.float32)
    lo_min = np.empty(nb, dtype=np.float32)
    lock = threading.Lock()

    def spans(blocks: np.ndarray) -> list:
        """The row ranges of the runs of consecutive blocks in `blocks`."""
        cut = np.flatnonzero(np.diff(blocks) != 1) + 1
        return list(zip(starts[blocks[np.r_[0, cut]]], starts[blocks[np.r_[cut, len(blocks)] - 1] + 1]))

    def gemm(a: int, ranges: list, buf: np.ndarray, group: int = 1) -> np.ndarray:
        """Similarities of block a's rows to the rows in `ranges`, in `buf`,
        one product per range; -inf pads the columns to a multiple of `group`."""
        rows = unit32[starts[a]:starts[a + 1]]
        width = sum(end - first for first, end in ranges)
        s = buf[: len(rows) * -(-width // group) * group].reshape(len(rows), -1)
        s[:, width:] = -np.inf
        off = 0
        for first, end in ranges:
            np.matmul(rows, unit32[first:end].T, out=s[:, off:off + end - first])
            off += end - first
        return s

    def thresholds(a: int, buf: np.ndarray):
        """top and lo of block a's rows from the block, widened to its
        nearest blocks if it has k rows or fewer, and the block's own pairs
        at or above their row's lo."""
        nearest = np.argsort(-bound[a], kind="stable")
        nearest = np.concatenate([[a], nearest[nearest != a]])
        s = gemm(a, spans(nearest[: np.searchsorted(np.cumsum(sizes[nearest]), k + 1) + 1]), buf)
        b, w = sizes[a], s.shape[1]
        s[np.arange(b), np.arange(b)] = -np.inf
        rows = slice(starts[a], starts[a + 1])
        largest = np.partition(s, w - k, axis=1)[:, w - k:]
        lo[rows] = _floor32(largest[:, 0].astype(np.float64) - eps)
        # the screen meets the nearest blocks again, so top takes the block's own pairs only
        top[rows] = largest if w == b else -np.inf
        kth[rows] = largest[:, 0] if w == b else -np.inf
        r, j = np.divmod(np.flatnonzero(s[:, :b] >= lo[rows, None]), b)
        return (starts[a] + r).astype(np.int32), (starts[a] + j).astype(np.int32), s[r, j]

    def screen(a: int, buf: np.ndarray):
        """Block a's rows against the blocks to their right that the bound
        keeps, and the pairs at or above the lo of either end. Before the
        pairs are kept, each row's top takes in its maxima over strided
        groups of `_GROUP_COLUMNS` of these columns, and each column's its
        maximum over these rows. Only the live columns, whose maximum
        reaches their own lo or the smallest lo of the rows, can hold a
        kept pair; where they are at most a quarter of the strip, a copy of
        them alone is filtered."""
        rows = slice(starts[a], starts[a + 1])
        blocks = a + 1 + np.flatnonzero(bound[a, a + 1:] + eps / 2
                                        >= np.minimum(lo_min[a], lo_min[a + 1:]))
        if not len(blocks):
            return ()
        ranges = spans(blocks)
        s = gemm(a, ranges, buf, _GROUP_COLUMNS)
        # column j goes to group j % groups
        groups = s.shape[1] // _GROUP_COLUMNS
        gmax = s.reshape(len(s), _GROUP_COLUMNS, groups).max(axis=1)
        cols = np.concatenate([np.arange(first, end, dtype=np.int32) for first, end in ranges])
        s = s[:, :len(cols)]
        cmax = s.max(axis=0)
        with lock:
            row_top = np.partition(np.concatenate([top[rows], gmax], axis=1), groups, axis=1)
            top[rows], kth[rows] = row_top[:, groups:], row_top[:, groups]
            lo[rows] = np.maximum(lo[rows], _floor32(kth[rows].astype(np.float64) - eps))
            # a column's top changes only where its maximum beats its k-th
            beat = np.flatnonzero(cmax > kth[cols])
            up = cols[beat]
            top[up, top[up].argmin(axis=1)] = cmax[beat]
            kth[up] = top[up].min(axis=1)
            lo[up] = np.maximum(lo[up], _floor32(kth[up].astype(np.float64) - eps))
            lo_r, lo_c = lo[rows].copy(), lo[cols]
            lo_min[a] = lo_r.min()
            lo_min[blocks] = np.minimum.reduceat(lo_c, np.cumsum(sizes[blocks]) - sizes[blocks])
        # a kept pair has s >= lo_r[i] >= min(lo_r) or s >= lo_c[j], and
        # s <= cmax[j]: only the live columns can hold one
        live = np.flatnonzero(cmax >= np.minimum(lo_c, lo_r.min()))
        # s[i, j] pairs the ends u[i] and w[j], whose lo are lu[i] and lw[j]
        u, lu, w, lw = np.arange(starts[a], starts[a + 1], dtype=np.int32), lo_r, cols, lo_c
        if 4 * len(live) <= len(cols):
            # the live columns as rows, a copy of a quarter of the strip at most
            s, u, lu, w, lw = s.T[live], cols[live], lo_c[live], u, lu
        # the pairs kept for u, then for w: one comparison's temporary at a time
        (ui, uj), (wi, wj) = (np.divmod(np.flatnonzero(s >= lo), s.shape[1]) for lo in (lu[:, None], lw))
        return (np.concatenate([u[ui], w[wj]]), np.concatenate([w[uj], u[wi]]),
                np.concatenate([s[ui, uj], s[wi, wj]]))

    workers = min(threads, nb)

    def run(stage, width: int) -> list:
        """stage(a, buf) for every block a from the last, the blocks dealt
        round-robin to the workers, each reusing one buffer of `width`
        columns, so that strips of growing size do not fragment the heap."""
        def work(t: int):
            buf = np.empty(sizes.max() * width, dtype=np.float32)
            return [stage(a, buf) for a in range(nb - 1 - t, -1, -workers)]
        if workers == 1:
            per_worker = [work(0)]
        else:
            with ThreadPoolExecutor(max_workers=workers) as ex:
                per_worker = list(ex.map(work, range(workers)))
        return [x for w in per_worker for x in w if len(x)]

    found = run(thresholds, min(len(unit32), k + 1 + sizes.max()))
    lo_min[:] = np.minimum.reduceat(lo, starts[:-1])
    found += run(screen, len(unit32) + _GROUP_COLUMNS)
    for i, (v, c, sim) in enumerate(found):
        keep = sim >= lo[v]
        found[i] = v[keep], c[keep], sim[keep]
    return found


def induced_subgraph(g: SimilarityGraph, vertices) -> tuple[SimilarityGraph, np.ndarray]:
    """Subgraph on `vertices` plus the sub-index -> original-index mapping."""
    mapping = _unique_sorted(np.asarray(list(vertices), dtype=np.int64))
    if mapping.size == 0:
        raise EmptyVertexSet("induced_subgraph needs a nonempty vertex set")
    if mapping[0] < 0 or mapping[-1] >= g.num_vertices:
        raise IndexOutOfRange(f"vertex set outside [0, {g.num_vertices})")
    member = np.zeros(g.num_vertices, dtype=bool)
    member[mapping] = True
    # gather only the members' adjacency slices (cost is their edges, not |E|)
    starts = g.indptr[mapping]
    counts = g.indptr[mapping + 1] - starts
    total = int(counts.sum())
    ends = np.cumsum(counts)
    idx = np.arange(total, dtype=np.int64) + np.repeat(starts - (ends - counts), counts)
    nbr = g.neighbors[idx]
    src = np.repeat(mapping, counts)
    keep = member[nbr] & (src < nbr)
    su = np.searchsorted(mapping, src[keep])
    sv = np.searchsorted(mapping, nbr[keep])
    edges = np.column_stack([su, sv, g.edge_weights[idx[keep]]])
    sub = graph_from_edges(len(mapping), edges, vertex_weights=g.vertex_weights[mapping])
    return sub, mapping


def edge_cut(g: SimilarityGraph, assignment) -> int:
    """Total weight of edges whose endpoints lie in different parts."""
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (g.num_vertices,):
        raise PartitionMismatch(
            f"assignment covers {assignment.shape} vertices, graph has {g.num_vertices}"
        )
    src = g.sources()
    mask = (src < g.neighbors) & (assignment[src] != assignment[g.neighbors])
    return int(g.edge_weights[mask].sum())


def graph_to_dict(g: SimilarityGraph, k: int) -> dict:
    """The JSON document of `g`, the kNN graph built with `k` neighbors.
    `edges` is the (E, 3) int64 `edge_list()`, which `cli._write_json`
    writes as a list of [u, v, weight] rows."""
    return {
        "num_vertices": g.num_vertices,
        "k": k,
        "edges": g.edge_list(),
        "vertex_weights": g.vertex_weights.tolist(),
    }


def graph_from_dict(d: dict) -> SimilarityGraph:
    """The graph of a graph JSON document; anything malformed raises FormatError.

    `num_vertices` is at least 1, `edges` is a list of [u, v, weight]
    triples and `vertex_weights`, if given, a list of num_vertices numbers;
    other keys, such as build-graph's `k`, are not read.
    Every number must be a JSON integer: a float, a numeric string, true or
    false is named and rejected."""
    try:
        n = d["num_vertices"]
        edges = np.asarray(d["edges"])
        vertex_weights = d.get("vertex_weights")
        if vertex_weights is not None:
            vertex_weights = np.asarray(vertex_weights)
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad graph JSON: {e}") from e
    if type(n) is not int:
        raise FormatError(f"bad graph JSON: num_vertices {json.dumps(n)} is not an integer")
    if n < 1:
        raise FormatError(f"bad graph JSON: num_vertices {n}: a graph needs at least one vertex")
    if edges.shape == (0,):
        edges = edges.reshape(0, 3)
    if edges.ndim != 2 or edges.shape[1] != 3:
        raise FormatError("bad graph JSON: edges must be a list of [u, v, weight] triples")
    edges = _integers(edges, d["edges"], chain.from_iterable(d["edges"]), "edge")
    if vertex_weights is not None:
        if vertex_weights.shape != (n,):
            raise FormatError(f"bad graph JSON: vertex_weights must be a list of {n} integers")
        vertex_weights = _integers(vertex_weights, d["vertex_weights"], d["vertex_weights"],
                                   "vertex weight")
    _check_edges(edges, n)
    return graph_from_edges(n, edges, vertex_weights=vertex_weights)


def _integers(arr: np.ndarray, entries: list, numbers, what: str) -> np.ndarray:
    """`arr`, numpy's reading of the JSON array `entries`, as int64 if all
    `numbers`, the numbers in `entries`, are integers; otherwise a
    FormatError names the first entry that holds anything else."""
    # numpy reads [1, True] as int64, so a bool needs a scan of its own
    if arr.dtype == np.int64 and bool not in set(map(type, numbers)):
        return arr
    if arr.size == 0:
        return arr.astype(np.int64)
    for j, entry in enumerate(entries):
        values = entry if isinstance(entry, list) else [entry]
        if any(type(v) is not int for v in values):
            kind = "not all integers" if isinstance(entry, list) else "not an integer"
            raise FormatError(f"bad graph JSON: {what} {j} {json.dumps(entry)}: {kind}")
    raise FormatError(f"bad graph JSON: {what}s hold an integer outside the int64 range")


def _check_edges(edges: np.ndarray, n: int) -> None:
    """Raise FormatError naming the first edge that is out of range, a
    self-loop, negatively weighted, or a repeat of an earlier edge."""
    u, v, w = edges.T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(edges), dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    problems = (
        ((lo < 0) | (hi >= n), f"endpoint outside [0, {n})"),
        (u == v, "self-loop"),
        (w < 0, "negative weight"),
        (repeat, "duplicate edge"),
    )
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in problems]))
    if bad.size:
        j = bad[0]
        reason = next(why for mask, why in problems if mask[j])
        raise FormatError(f"bad graph JSON: edge {j} {edges[j].tolist()}: {reason}")


def load_graph(path: str) -> SimilarityGraph:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as e:
            raise FormatError(f"{path}: not a graph JSON: {e}") from None
    return graph_from_dict(doc)
