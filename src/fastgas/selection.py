"""Greedy per-part selection plus the baseline strategies and coverage oracle."""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import (
    BudgetExceedsPool,
    BudgetExceedsVertices,
    GraphTooLarge,
    IndexOutOfRange,
    InternalError,
    InvalidK,
)
from .graph import SimilarityGraph, induced_subgraph
from .partition import partition_kway

BRUTE_FORCE_MAX_VERTICES = 24
PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-10
PAGERANK_MAX_ITERS = 200
KMEANS_MAX_ITERS = 100


@dataclass(frozen=True)
class SelectionResult:
    selected: list[int]
    method: str
    budget: int
    per_part: dict[int, list[int]] = field(default_factory=dict)
    K: int | None = None
    seed: int | None = None
    timings_ms: dict[str, float] = field(default_factory=dict)

    def to_dict(self, ids: list[str] | None = None, with_timings: bool = True) -> dict:
        d = {
            "method": self.method,
            "budget": self.budget,
            "K": self.K,
            "seed": self.seed,
            "selected": list(self.selected),
            "selected_ids": [ids[i] for i in self.selected] if ids is not None else None,
            "per_part": {str(p): v for p, v in self.per_part.items()},
        }
        if with_timings:
            d["timings_ms"] = {k: round(v, 3) for k, v in self.timings_ms.items()}
        return d


def greedy_select(sub: SimilarityGraph, n: int) -> list[int]:
    """Pick n vertices of maximum residual degree, deleting each pick's edges."""
    return greedy_select_trace(sub, n)[0]


def greedy_select_trace(sub: SimilarityGraph, n: int) -> tuple[list[int], list[int]]:
    """greedy_select plus the residual degree of each pick at pick time."""
    nv = sub.num_vertices
    if not 0 <= n <= nv:
        raise BudgetExceedsVertices(f"budget {n} exceeds {nv} vertices")
    deg = np.diff(sub.indptr).astype(np.int64)
    alive = np.ones(nv, dtype=bool)
    heap = [(-int(deg[v]), v) for v in range(nv)]
    heapq.heapify(heap)
    picks: list[int] = []
    pick_degs: list[int] = []
    for _ in range(n):
        while True:
            d, v = heapq.heappop(heap)
            if alive[v] and -d == deg[v]:
                break
        alive[v] = False
        picks.append(v)
        pick_degs.append(-d)
        for u in sub.neighbors_of(v)[0].tolist():
            if alive[u]:
                deg[u] -= 1
                heapq.heappush(heap, (-int(deg[u]), u))
    return picks, pick_degs


def coverage_objective(g: SimilarityGraph, S) -> int:
    """Number of edges with at least one endpoint in S."""
    S = np.asarray(list(S), dtype=np.int64)
    if len(S) == 0:
        return 0
    if S.min() < 0 or S.max() >= g.num_vertices:
        raise IndexOutOfRange(f"vertex set outside [0, {g.num_vertices})")
    member = np.zeros(g.num_vertices, dtype=bool)
    member[S] = True
    edges = g.edge_list()
    return int((member[edges[:, 0]] | member[edges[:, 1]]).sum())


def brute_force_max_coverage(g: SimilarityGraph, n: int) -> tuple[list[int], int]:
    """Exhaustive maximum-coverage oracle; lexicographically smallest maximizer."""
    nv = g.num_vertices
    if nv > BRUTE_FORCE_MAX_VERTICES:
        raise GraphTooLarge(f"{nv} vertices exceeds the brute-force limit {BRUTE_FORCE_MAX_VERTICES}")
    if not 0 <= n <= nv:
        raise BudgetExceedsVertices(f"budget {n} exceeds {nv} vertices")
    edges = g.edge_list()
    best_set: tuple[int, ...] = ()
    best_val = -1
    for S in itertools.combinations(range(nv), n):
        member = np.zeros(nv, dtype=bool)
        member[list(S)] = True
        val = int((member[edges[:, 0]] | member[edges[:, 1]]).sum()) if len(edges) else 0
        if val > best_val:
            best_val = val
            best_set = S
    return list(best_set), best_val


def allocate_quotas(sizes: list[int], M: int) -> list[int]:
    """Per-part budgets: floor(M/K) each, remainder to the largest parts,
    overflow beyond a part's size reassigned to the next-largest with room."""
    K = len(sizes)
    quotas = [M // K] * K
    order = sorted(range(K), key=lambda i: (-sizes[i], i))
    for i in range(M % K):
        quotas[order[i]] += 1
    deficit = 0
    for i in range(K):
        if quotas[i] > sizes[i]:
            deficit += quotas[i] - sizes[i]
            quotas[i] = sizes[i]
    for i in order:
        if deficit == 0:
            break
        room = sizes[i] - quotas[i]
        take = min(room, deficit)
        quotas[i] += take
        deficit -= take
    if deficit:
        raise BudgetExceedsPool(f"budget {M} exceeds pool size {sum(sizes)}")
    return quotas


def fastgas_select(g: SimilarityGraph, K: int, M: int, seed: int) -> SelectionResult:
    """Partition into K parts and greedily pick each part's quota by residual degree."""
    n = g.num_vertices
    if not 1 <= K <= n:
        raise InvalidK(f"K must satisfy 1 <= K <= {n}, got {K}")
    if not 1 <= M <= n:
        raise BudgetExceedsPool(f"budget {M} outside [1, {n}]")
    timings: dict[str, float] = {}
    part = partition_kway(g, K, seed, timings=timings)

    t0 = time.perf_counter()
    sizes = part.part_sizes
    quotas = allocate_quotas(sizes, M)
    selected: list[int] = []
    per_part: dict[int, list[int]] = {}
    for p in range(K):
        members = np.nonzero(part.assignment == p)[0]
        sub, mapping = induced_subgraph(g, members)
        picks = [int(mapping[v]) for v in greedy_select(sub, quotas[p])]
        per_part[p] = picks
        selected.extend(picks)
    timings["select"] = (time.perf_counter() - t0) * 1e3
    timings["total"] = timings.get("partition_total", 0.0) + timings["select"]
    return SelectionResult(
        selected=selected,
        method="fastgas",
        budget=M,
        per_part=per_part,
        K=K,
        seed=seed,
        timings_ms=timings,
    )


def random_select(N: int, M: int, seed: int) -> SelectionResult:
    if not 0 <= M <= N:
        raise BudgetExceedsPool(f"budget {M} outside [0, {N}]")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    picks = rng.choice(N, size=M, replace=False).tolist()
    ms = (time.perf_counter() - t0) * 1e3
    return SelectionResult(
        selected=picks, method="random", budget=M, seed=seed,
        timings_ms={"select": ms, "total": ms},
    )


def top_degree_select(g: SimilarityGraph, M: int) -> SelectionResult:
    """Static baseline: the M highest-degree vertices, no residual updates."""
    if not 0 <= M <= g.num_vertices:
        raise BudgetExceedsPool(f"budget {M} outside [0, {g.num_vertices}]")
    t0 = time.perf_counter()
    deg = np.diff(g.indptr)
    idx = np.arange(g.num_vertices)
    order = np.lexsort((idx, -deg))
    picks = order[:M].tolist()
    ms = (time.perf_counter() - t0) * 1e3
    return SelectionResult(
        selected=picks, method="top-degree", budget=M,
        timings_ms={"select": ms, "total": ms},
    )


def pagerank_scores(g: SimilarityGraph) -> np.ndarray:
    """Power iteration on the row-normalized adjacency with uniform teleport,
    damping PAGERANK_DAMPING, until the L1 change falls below PAGERANK_TOL;
    dangling vertices redistribute their mass uniformly.

    Each step contracts the L1 distance by the damping d, so the change at
    step t is at most 2·d^(t-1): below PAGERANK_TOL by step 147 at d = 0.85.
    Reaching PAGERANK_MAX_ITERS is a program fault and raises InternalError.
    """
    n = g.num_vertices
    src = g.sources()
    wsum = np.zeros(n)
    np.add.at(wsum, src, g.edge_weights.astype(np.float64))
    dangling = wsum == 0
    norm_w = g.edge_weights / np.where(wsum[src] == 0, 1.0, wsum[src])
    scores = np.full(n, 1.0 / n)
    for _ in range(PAGERANK_MAX_ITERS):
        spread = np.zeros(n)
        np.add.at(spread, g.neighbors, scores[src] * norm_w)
        nxt = PAGERANK_DAMPING * (spread + scores[dangling].sum() / n) + (1 - PAGERANK_DAMPING) / n
        delta = np.abs(nxt - scores).sum()
        scores = nxt
        if delta < PAGERANK_TOL:
            return scores
    raise InternalError(f"pagerank L1 change {delta:.3e} after {PAGERANK_MAX_ITERS} iterations")


def pagerank_select(g: SimilarityGraph, M: int) -> SelectionResult:
    if not 0 <= M <= g.num_vertices:
        raise BudgetExceedsPool(f"budget {M} outside [0, {g.num_vertices}]")
    t0 = time.perf_counter()
    scores = pagerank_scores(g)
    idx = np.arange(g.num_vertices)
    order = np.lexsort((idx, -scores))
    picks = order[:M].tolist()
    ms = (time.perf_counter() - t0) * 1e3
    return SelectionResult(
        selected=picks, method="pagerank", budget=M,
        timings_ms={"select": ms, "total": ms},
    )


def lloyd_kmeans(x: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic Lloyd iteration with farthest-point initialization, at
    most KMEANS_MAX_ITERS rounds.

    The first center is drawn from rng; each further center is the point
    farthest from its nearest chosen center (ties toward the lower index).
    Returns (labels, centroids).
    """
    n = len(x)
    centers = [int(rng.integers(n))]
    d2 = np.sum((x - x[centers[0]]) ** 2, axis=1)
    for _ in range(k - 1):
        c = int(np.argmax(d2))  # argmax takes the lowest index on ties
        centers.append(c)
        d2 = np.minimum(d2, np.sum((x - x[c]) ** 2, axis=1))
    centroids = x[centers].astype(np.float64)
    x2 = (x**2).sum(axis=1)
    labels = None
    for _ in range(KMEANS_MAX_ITERS):
        dists = x2[:, None] + (centroids**2).sum(axis=1)[None, :] - 2.0 * (x @ centroids.T)
        np.maximum(dists, 0.0, out=dists)
        new_labels = np.argmin(dists, axis=1)
        for c in range(k):
            if not (new_labels == c).any():
                # reseed an empty cluster with the worst-fit point among the
                # clusters that keep another member; one exists since k <= n
                donor = np.bincount(new_labels, minlength=k)[new_labels] > 1
                far = int(np.argmax(np.where(donor, dists[np.arange(n), new_labels], -1.0)))
                new_labels[far] = c
        if labels is not None and (new_labels == labels).all():
            break
        labels = new_labels
        for c in range(k):
            centroids[c] = x[labels == c].mean(axis=0)
    return labels, centroids


def subcluster_select(E: EmbeddingMatrix, K: int, M: int, seed: int) -> SelectionResult:
    """K-means into K groups, then per-group k-means into its quota of
    subclusters; each subcluster contributes its most central instance."""
    n = E.n
    if not 1 <= K <= n:
        raise InvalidK(f"K must satisfy 1 <= K <= {n}, got {K}")
    if M < K:
        raise BudgetExceedsPool(f"subcluster needs a budget of at least K = {K}, one instance "
                                f"per cluster; got budget {M}")
    if M > n:
        raise BudgetExceedsPool(f"budget {M} outside [{K}, {n}]")
    t0 = time.perf_counter()
    x = E.vectors.astype(np.float64)
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    labels, _ = lloyd_kmeans(x, K, rng)
    sizes = [int((labels == c).sum()) for c in range(K)]
    quotas = allocate_quotas(sizes, M)
    selected: list[int] = []
    per_part: dict[int, list[int]] = {}
    for c in range(K):
        members = np.nonzero(labels == c)[0]
        q = quotas[c]
        if q == 0:
            per_part[c] = []
            continue
        sub_labels, centroids = lloyd_kmeans(x[members], q, rng)
        picks = []
        for s in range(q):
            inside = members[sub_labels == s]
            d2 = np.sum((x[inside] - centroids[s]) ** 2, axis=1)
            picks.append(int(inside[np.argmin(d2)]))
        picks.sort()
        per_part[c] = picks
        selected.extend(picks)
    ms = (time.perf_counter() - t0) * 1e3
    return SelectionResult(
        selected=selected, method="subcluster", budget=M, per_part=per_part,
        K=K, seed=seed, timings_ms={"select": ms, "total": ms},
    )
