"""The undirected similarity graph in CSR form, and its file.

- `SimilarityGraph`, built by `graph_from_edges`, holds the kNN graph
  (every weight 1) and the coarse graphs of multilevel partitioning;
- `induced_subgraph` and `edge_cut` serve the partitioner and selectors;
- `graph_to_dict`, `graph_from_dict` and `load_graph` write and read the
  graph JSON file that build-graph writes.

`fastgas.knn` builds the kNN graph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import FormatError, InvalidParameter

# The most vertices a graph file may name, so that an edge's int64 key
# u·n + v stays exact.
_MAX_VERTICES = 2**31 - 1


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
    def total_vertex_weight(self) -> int:
        return int(self.vertex_weights.sum())

    def neighbors_of(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted neighbor indices of v and the matching edge weights."""
        if not 0 <= v < self.num_vertices:
            raise InvalidParameter(f"vertex {v} out of range [0, {self.num_vertices})")
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


def induced_subgraph(g: SimilarityGraph, vertices) -> tuple[SimilarityGraph, np.ndarray]:
    """Subgraph on `vertices` plus the sub-index -> original-index mapping."""
    mapping = _unique_sorted(np.asarray(list(vertices), dtype=np.int64))
    if mapping.size == 0:
        raise InvalidParameter("induced_subgraph needs a nonempty vertex set")
    if mapping[0] < 0 or mapping[-1] >= g.num_vertices:
        raise InvalidParameter(f"vertex set outside [0, {g.num_vertices})")
    # old -> new index, -1 off the set; increasing on it, so u < v is kept
    new_id = np.full(g.num_vertices, -1, dtype=np.int64)
    new_id[mapping] = np.arange(len(mapping))
    su, sv = np.repeat(new_id, np.diff(g.indptr)), new_id[g.neighbors]
    keep = (su >= 0) & (su < sv)
    edges = np.column_stack([su[keep], sv[keep], g.edge_weights[keep]])
    sub = graph_from_edges(len(mapping), edges, vertex_weights=g.vertex_weights[mapping])
    return sub, mapping


def edge_cut(g: SimilarityGraph, assignment) -> int:
    """Total weight of edges whose endpoints lie in different parts."""
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (g.num_vertices,):
        raise InvalidParameter(
            f"assignment covers {assignment.shape} vertices, graph has {g.num_vertices}"
        )
    src = g.sources()
    mask = (src < g.neighbors) & (assignment[src] != assignment[g.neighbors])
    return int(g.edge_weights[mask].sum())


def graph_to_dict(g: SimilarityGraph, k: int, ids: list[str]) -> dict:
    """The JSON document of `g`, the kNN graph built with `k` neighbors from
    the embeddings named `ids`. `edges` is the (E, 3) int64 `edge_list()`,
    which `cli._write_json` writes as a list of [u, v, weight] rows."""
    return {
        "num_vertices": g.num_vertices,
        "k": k,
        "edges": g.edge_list(),
        "ids": ids,
    }


def graph_from_dict(d: dict) -> SimilarityGraph:
    """The unit-weight graph of a graph JSON document; anything
    malformed raises FormatError.

    `num_vertices` is from 1 to `_MAX_VERTICES`, `edges` is a list of
    [u, v, weight] triples and `ids`, if given, a list of num_vertices
    strings; other keys, such as build-graph's `k`, are not read.
    Every number must be a JSON integer: a float, a numeric string, true or
    false is named and rejected."""
    if type(d) is not dict:
        raise FormatError("bad graph JSON: expected a JSON object")
    try:
        n = d["num_vertices"]
        edges = np.asarray(d["edges"])
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad graph JSON: {e}") from e
    if type(n) is not int:
        raise FormatError(f"bad graph JSON: num_vertices {json.dumps(n)} is not an integer")
    if n < 1:
        raise FormatError(f"bad graph JSON: num_vertices {n}: a graph needs at least one vertex")
    if n > _MAX_VERTICES:
        raise FormatError(f"bad graph JSON: num_vertices {n}: above {_MAX_VERTICES}, the most a graph holds")
    if edges.shape == (0,):
        edges = edges.reshape(0, 3)
    if edges.ndim != 2 or edges.shape[1] != 3:
        raise FormatError("bad graph JSON: edges must be a list of [u, v, weight] triples")
    edges = _integer_edges(edges, d["edges"])
    ids = d.get("ids")
    if ids is not None:
        if type(ids) is not list or len(ids) != n:
            raise FormatError(f"bad graph JSON: ids must be a list of {n} strings")
        for j, ident in enumerate(ids):
            if type(ident) is not str:
                raise FormatError(f"bad graph JSON: id {j} {json.dumps(ident)}: not a string")
    _check_edges(edges, n)
    return graph_from_edges(n, edges)


def _integer_edges(edges: np.ndarray, triples: list) -> np.ndarray:
    """`edges`, numpy's reading of the JSON list `triples`, as int64 if every
    number in them is an integer; otherwise a FormatError names the first
    triple that holds anything else."""
    # numpy reads [1, True] as int64, so a bool needs a scan of its own
    if edges.dtype == np.int64 and bool not in set(map(type, chain.from_iterable(triples))):
        return edges
    if edges.size == 0:
        return edges.astype(np.int64)
    for j, triple in enumerate(triples):
        if any(type(v) is not int for v in triple):
            raise FormatError(f"bad graph JSON: edge {j} {json.dumps(triple)}: not all integers")
    raise FormatError("bad graph JSON: edges hold an integer outside the int64 range")


def _check_edges(edges: np.ndarray, n: int) -> None:
    """Raise FormatError naming the first edge that is out of range, a
    self-loop, a repeat of an earlier edge, or weighted other than 1.
    The greedy and top-degree selectors count neighbours where the partitioner
    and PageRank weigh edges, so an edge of a graph file weighs 1, as
    build-graph writes it, and every method reads the same graph."""
    u, v, w = edges.T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(edges), dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    problems = (
        ((lo < 0) | (hi >= n), f"endpoint outside [0, {n})"),
        (u == v, "self-loop"),
        (repeat, "duplicate edge"),
        (w != 1, "weight other than 1"),
    )
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in problems]))
    if bad.size:
        j = bad[0]
        reason = next(why for mask, why in problems if mask[j])
        raise FormatError(f"bad graph JSON: edge {j} {edges[j].tolist()}: {reason}")


def load_graph(path: str) -> tuple[SimilarityGraph, list[str] | None]:
    """The graph of the graph JSON file `path` and its vertex ids, or None
    if the file names none."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as e:
            raise FormatError(f"{path}: not a graph JSON: {e}") from None
    return graph_from_dict(doc), doc.get("ids")
