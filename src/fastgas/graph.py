"""Undirected vertex- and edge-weighted similarity graph in CSR form.

The same structure holds the original kNN graph (all weights 1)
and the coarse graphs produced during multilevel partitioning.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import (
    EmptyVertexSet,
    FormatError,
    IndexOutOfRange,
    InvalidK,
    PartitionMismatch,
)

# Fixed query block size for kNN search. Independent of the worker count so
# the adjacency is byte-identical at any --threads setting.
_KNN_BLOCK = 256
# Strided column groups of the float32 kNN screen; one max per group and row.
_KNN_GROUPS = 512
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


def build_knn_graph(emb: EmbeddingMatrix, k: int, threads: int = 1) -> SimilarityGraph:
    """kNN graph under cosine similarity, symmetrized by union.

    An edge (u, v) exists if v is among u's k most similar other vertices or
    vice versa. Similarity is the float64 dot product of the rows normalized
    in float64, and ties go to the lower index.

    The search is exact. Each block of `_KNN_BLOCK` query rows is screened
    with a float32 GEMM. For unit rows a float32 similarity is within about
    (d+2)·2⁻²⁴ of the float64 one (the dot-product bound γ_d of Higham,
    Accuracy and Stability of Numerical Algorithms, §3.1). The k-th largest
    of the `_KNN_GROUPS` strided group maxima is therefore at most that far
    above the float64 k-th similarity. Every column whose float32 similarity
    is at least that group max minus twice the bound (`eps`) is kept, a set
    that holds the float64 top-k and every tie at its k-th value. Only those
    candidates are re-ranked in float64. The block size and the grouping are
    fixed, so `threads` never changes the result.
    """
    n, d = emb.n, emb.dim
    if k < 1 or k >= n:
        raise InvalidK(f"k must satisfy 1 <= k <= N-1, got k={k}, N={n}")
    vecs = emb.vectors
    norms = np.empty(n)
    unit32 = np.empty((n, d), dtype=np.float32)

    def unit64(rows) -> np.ndarray:
        return np.divide(vecs[rows], norms[rows, None])

    for start in range(0, n, _KNN_BLOCK):
        rows = slice(start, start + _KNN_BLOCK)
        norms[rows] = np.linalg.norm(vecs[rows].astype(np.float64), axis=1)
        unit32[rows] = unit64(rows)

    # eps is twice (d+4)·u/(1-d·u), which bounds |float32 - float64 similarity|
    # of unit rows while d·u < 1/2: γ_d for the float32 dot product, 2·u for
    # rounding the rows to float32, and slack for the second-order terms.
    u = 2.0**-24
    eps = 2 * (d + 4) * u / (1 - d * u)
    # g strided column groups: group j holds the columns j, j+g, j+2g, ...
    # At least k of them must have a finite max (one may hold only -inf).
    g = min(n, max(_KNN_GROUPS, k + 1))
    width = -(-n // g) * g
    chunk = max(1, _RERANK_CHUNK // d)

    def block_topk(start: int) -> np.ndarray:
        stop = min(start + _KNN_BLOCK, n)
        b = stop - start
        # float32 screen; the padding columns past n and the diagonal are -inf
        s = np.empty((b, width), dtype=np.float32)
        np.matmul(unit32[start:stop], unit32.T, out=s[:, :n])
        s[:, n:] = -np.inf
        s[np.arange(b), np.arange(start, stop)] = -np.inf
        groups = s.reshape(b, -1, g)
        gmax = groups.max(axis=1)
        lo = np.partition(gmax, g - k, axis=1)[:, g - k].astype(np.float64) - eps
        hit_rows, hit_groups = np.nonzero(gmax >= lo[:, None])
        pair, step = np.nonzero(groups[hit_rows, :, hit_groups] >= lo[hit_rows, None])
        rows, cols = hit_rows[pair], hit_groups[pair] + g * step

        # float64 re-rank of the candidates, ordered by (row, -sim, col)
        q = unit64(slice(start, stop))
        sim = np.empty(len(rows))
        for i in range(0, len(rows), chunk):
            j = slice(i, i + chunk)
            sim[j] = np.einsum("ij,ij->i", q[rows[j]], unit64(cols[j]))
        cols = cols[np.lexsort((cols, -sim, rows))]
        counts = np.bincount(rows, minlength=b)
        first = np.cumsum(counts) - counts
        return cols[first[:, None] + np.arange(k)]

    starts = range(0, n, _KNN_BLOCK)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            blocks = list(ex.map(block_topk, starts))
    else:
        blocks = [block_topk(s) for s in starts]
    nbrs = np.vstack(blocks)

    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = nbrs.reshape(-1)
    key = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst))
    edges = np.column_stack([key // n, key % n, np.ones(len(key), dtype=np.int64)])
    return graph_from_edges(n, edges, k=k)


def induced_subgraph(g: SimilarityGraph, vertices) -> tuple[SimilarityGraph, np.ndarray]:
    """Subgraph on `vertices` plus the sub-index -> original-index mapping."""
    mapping = np.unique(np.asarray(list(vertices), dtype=np.int64))
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
    """The graph of a graph JSON document; anything malformed raises FormatError."""
    try:
        n = int(d["num_vertices"])
        edges = np.asarray(d["edges"], dtype=np.int64).reshape(-1, 3)
        vertex_weights = d.get("vertex_weights")
        if vertex_weights is not None:
            vertex_weights = np.asarray(vertex_weights, dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"bad graph JSON: {e}") from e
    if n < 0:
        raise FormatError(f"bad graph JSON: num_vertices {n} is negative")
    if vertex_weights is not None and vertex_weights.shape != (n,):
        raise FormatError(f"bad graph JSON: vertex_weights must be a list of {n} integers")
    _check_edges(edges, n)
    return graph_from_edges(n, edges, vertex_weights=vertex_weights, k=d.get("k"))


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
