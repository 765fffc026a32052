"""Undirected vertex- and edge-weighted similarity graph in CSR form.

The same structure holds the original kNN graph (all weights 1)
and the coarse graphs produced during multilevel partitioning.
"""

from __future__ import annotations

import json
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

# One strip of the kNN screen holds as many float32 similarities as this
# many rows of n: 16 MB at n = 16k.
_KNN_STRIP_ROWS = 256
# Strided partner groups of the kNN screen; one float32 max per vertex and group.
_KNN_GROUPS = 128
# Columns of a strip whose column side is handled at once; bounds its temporaries.
_KNN_COLUMN_CHUNK = 2048
# Float64 elements per operand in one chunk of the kNN re-rank.
_RERANK_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimilarityGraph:
    indptr: np.ndarray
    neighbors: np.ndarray
    edge_weights: np.ndarray
    vertex_weights: np.ndarray
    k: int | None = None

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

    def edge_list(self) -> np.ndarray:
        """Array of (u, v, w) rows with u < v, ordered lexicographically."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        mask = src < self.neighbors
        return np.column_stack([src[mask], self.neighbors[mask], self.edge_weights[mask]])


def graph_from_edges(
    n: int,
    edges,
    vertex_weights=None,
    k: int | None = None,
) -> SimilarityGraph:
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
    if len(edges):
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        wgt = np.concatenate([edges[:, 2], edges[:, 2]])
        order = np.lexsort((dst, src))
        src, dst, wgt = src[order], dst[order], wgt[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        indptr = np.cumsum(indptr)
    else:
        src = dst = wgt = np.empty(0, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
    return SimilarityGraph(
        indptr=indptr,
        neighbors=dst,
        edge_weights=wgt,
        vertex_weights=vertex_weights,
        k=k,
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

    The search is exact, and a float32 GEMM computes each similarity once.
    For unit rows a float32 similarity s32 lies within eps/2 = (d+4)·2⁻²⁴/(1-d·2⁻²⁴)
    of the float64 one s64 (the dot-product bound γ_d of Higham, Accuracy and
    Stability of Numerical Algorithms, §3.1, plus the rounding of the rows).
    The screen covers the upper triangle of U·Uᵀ in strips, rows [a, a+b)
    against the columns [a, n), each strip at most `_KNN_STRIP_ROWS`·n
    similarities. A table keeps, for each vertex v and each of
    `_KNN_GROUPS` strided groups r, the largest similarity of v to a partner
    i ≡ r screened so far. Each strip serves both ends of its pairs:

    - Row side. The strip's columns fold onto its rows' table. A strip row
      has now met every partner: the strip's columns here, the earlier
      vertices as a column of earlier strips. So its threshold lo is final:
      the k-th largest of its table minus eps. Those k maxima belong to k
      distinct partners, so the float64 k-th similarity is at least that
      group max - eps/2, and every column of the float64 top k, ties
      included, has s32 >= lo. The row keeps the strip's columns at or
      above lo.
    - Column side. A vertex v past the strip meets the strip's rows as
      columns, which fold onto v's table. v keeps the rows at or above a
      provisional threshold: the k-th largest of its table so far minus
      eps, refreshed after 1, 2, 4, 8, ... strips. The table only grows, so
      that threshold never exceeds v's final lo and the kept rows are a
      superset of those at or above lo. A last filter against lo drops the
      rest.

    Thresholds are rounded down to float32, which only adds candidates and
    keeps float64 temporaries out of the comparisons with float32 strips.

    So each vertex's candidates are exactly its columns with s32 >= lo. Let K
    be its k-th largest s32. Fewer than k columns have s32 > K and at least k
    have s32 >= K, so the float64 k-th similarity lies within eps/2 of K. A
    candidate above K + eps therefore has s64 above that value and is in the
    top k; one below K - eps is out. Only the band in between is re-ranked in
    float64 by (-s64, index), and a vertex whose band holds just the members
    it still needs takes them all. The result is the exact float64 top k, so
    neither the strip sizes nor `threads`, which splits each strip's columns
    across workers, can change it.
    """
    n, d = emb.n, emb.dim
    if k < 1 or k >= n:
        raise InvalidK(f"k must satisfy 1 <= k <= N-1, got k={k}, N={n}")
    vecs = emb.vectors
    chunk = max(1, _RERANK_CHUNK // d)
    norms = np.empty(n)
    unit32 = np.empty((n, d), dtype=np.float32)
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        norms[rows] = np.linalg.norm(vecs[rows].astype(np.float64), axis=1)
        unit32[rows] = np.divide(vecs[rows], norms[rows, None])

    # eps is twice (d+4)·u/(1-d·u), which bounds |float32 - float64 similarity|
    # of unit rows while d·u < 1/2: γ_d for the float32 dot product, 2·u for
    # rounding the rows to float32, and slack for the second-order terms.
    u = 2.0**-24
    eps = 2 * (d + 4) * u / (1 - d * u)
    v, c, sim = _knn_screen(unit32, k, eps, threads)
    del unit32

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
    s64 = np.empty(len(rv))
    for i in range(0, len(rv), chunk):
        j = slice(i, i + chunk)
        s64[j] = np.einsum("ij,ij->i", np.divide(vecs[rv[j]], norms[rv[j], None]),
                           np.divide(vecs[rc[j]], norms[rc[j], None]))
    order = np.lexsort((rc, -s64, rv))
    rv, rc = rv[order], rc[order]
    counts = np.bincount(rv, minlength=n)
    take = np.arange(len(rv)) - (np.cumsum(counts) - counts)[rv] < need[rv]

    src = np.concatenate([v[above], bv[~rerank], rv[take]]).astype(np.int64)
    dst = np.concatenate([c[above], bc[~rerank], rc[take]]).astype(np.int64)
    key = _unique_sorted(np.minimum(src, dst) * n + np.maximum(src, dst))
    edges = np.column_stack([key // n, key % n, np.ones(len(key), dtype=np.int64)])
    return graph_from_edges(n, edges, k=k)


def _knn_screen(unit32: np.ndarray, k: int, eps: float, threads: int):
    """The float32 screen of `build_knn_graph`: int32 vertices, int32 columns
    and the float32 similarities of every pair with s32 >= the vertex's lo."""
    n = len(unit32)
    # table[r, v] is the largest similarity of v to a partner i screened so
    # far with i % g == r
    g = min(n, max(_KNN_GROUPS, k + 1))
    table = np.full((g, n), -np.inf, dtype=np.float32)
    prov = np.full(n, -np.inf, dtype=np.float32)  # provisional thresholds
    lo = np.empty(n, dtype=np.float32)

    def floor_kth(t: np.ndarray) -> np.ndarray:
        """Per column of t: its k-th largest value minus eps, rounded down to float32."""
        t = t.T.copy()
        t.partition(g - k, axis=1)
        x = t[:, -k].astype(np.float64) - eps
        y = x.astype(np.float32)
        return np.where(y > x, np.nextafter(y, np.float32(-np.inf)), y)

    # a strip is b rows by ceil((n-a)/g)·g columns, at most _KNN_STRIP_ROWS·n
    # similarities; b is below g or a multiple of it, so its rows fold onto the table
    strips, a = [], 0
    while a < n:
        b = max(1, _KNN_STRIP_ROWS * n // (g * -(-(n - a) // g)))
        b = min(b - b % g if b >= g else b, n - a)
        strips.append((a, b))
        a += b
    buf = np.empty(max(b * g * -(-(n - a) // g) for a, b in strips), dtype=np.float32)

    def screen(a: int, b: int, s: np.ndarray, c0: int, c1: int, refresh: bool):
        """GEMM of the strip's columns [c0, c1) (relative to a) and the
        column side of those past the strip; returns its candidates."""
        hi = min(c1, n - a)
        if c0 < hi:
            np.matmul(unit32[a:a + b], unit32[a + c0:a + hi].T, out=s[:, c0:hi])
        s[:, max(c0, hi):c1] = -np.inf
        diag = np.arange(c0, min(c1, b))
        s[diag, diag] = -np.inf

        h = min(b, g)  # row a+i goes to group (a+i) % g
        grp = slice(None) if h == g and a % g == 0 else (a + np.arange(h)) % g
        found = []
        for j0 in range(max(c0, b), hi, _KNN_COLUMN_CHUNK):
            j1 = min(j0 + _KNN_COLUMN_CHUNK, hi)
            cols = slice(a + j0, a + j1)
            part = s[:, j0:j1].reshape(b // h, h, j1 - j0)
            fold = part.max(axis=0) if b > h else part[0]
            table[grp, cols] = np.maximum(table[grp, cols], fold)
            if refresh:
                prov[cols] = floor_kth(table[:, cols])
            th = prov[cols]
            hit_r, hit_j = np.divmod(np.flatnonzero(fold >= th), j1 - j0)
            vals = part[:, hit_r, hit_j]
            p, i = np.divmod(np.flatnonzero(vals >= th[hit_j]), len(hit_j))
            found.append(((a + j0 + hit_j[i]).astype(np.int32),
                          (a + p * h + hit_r[i]).astype(np.int32), vals[p, i]))
        return found

    ex = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    found, provisional = [], []
    try:
        for strip, (a, b) in enumerate(strips):
            steps = -(-(n - a) // g)
            s = buf[: b * steps * g].reshape(b, steps * g)
            refresh = strip & (strip + 1) == 0  # after 1, 2, 4, 8, ... strips
            cuts = [g * (steps * t // threads) for t in range(threads + 1)]
            args = [(a, b, s, c0, c1, refresh) for c0, c1 in zip(cuts, cuts[1:]) if c0 < c1]
            for cands in ex.map(lambda x: screen(*x), args) if ex else [screen(*x) for x in args]:
                provisional += cands
            if refresh:
                provisional = [(v[keep], r[keep], sim[keep])
                               for v, r, sim in provisional for keep in [sim >= prov[v]]]

            # row side: the strip's columns fold onto its rows' table, which
            # then covers every partner, so their thresholds are final
            groups = s.reshape(b, steps, g)
            gmax = groups.max(axis=1)  # column a+j goes to group (a+j) % g
            rows = slice(a, a + b)
            grp = (a + np.arange(g)) % g
            table[grp, rows] = np.maximum(table[grp, rows], gmax.T)
            lo[rows] = floor_kth(table[:, rows])
            hit_rows, hit_groups = np.divmod(np.flatnonzero(gmax >= lo[rows, None]), g)
            vals = groups[hit_rows, :, hit_groups]
            pair, step = np.divmod(np.flatnonzero(vals >= lo[a + hit_rows, None]), steps)
            found.append(((a + hit_rows[pair]).astype(np.int32),
                          (a + hit_groups[pair] + g * step).astype(np.int32), vals[pair, step]))
    finally:
        if ex:
            ex.shutdown()
    found += [(v[keep], r[keep], sim[keep]) for v, r, sim in provisional for keep in [sim >= lo[v]]]
    return tuple(np.concatenate(x) for x in zip(*found))


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
    src = np.repeat(np.arange(g.num_vertices, dtype=np.int64), np.diff(g.indptr))
    mask = (src < g.neighbors) & (assignment[src] != assignment[g.neighbors])
    return int(g.edge_weights[mask].sum())


def graph_to_dict(g: SimilarityGraph) -> dict:
    return {
        "num_vertices": g.num_vertices,
        "k": g.k,
        "edges": g.edge_list().tolist(),
        "vertex_weights": g.vertex_weights.tolist(),
    }


def graph_from_dict(d: dict) -> SimilarityGraph:
    """The graph of a graph JSON document; anything malformed raises FormatError.

    `edges` is a list of [u, v, weight] triples and `vertex_weights`, if
    given, a list of num_vertices numbers. Every number must be a JSON
    integer: a float, a numeric string, true or false is named and rejected."""
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
    if n < 0:
        raise FormatError(f"bad graph JSON: num_vertices {n} is negative")
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
    return graph_from_edges(n, edges, vertex_weights=vertex_weights, k=d.get("k"))


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
