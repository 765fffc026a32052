"""Balanced K-way partitioning by multilevel recursive bisection.

Each bisection coarsens the graph by random matchings, puts on side 0 the
shortest BFS prefix that holds side 0's target weight from each of 10 random
starts on the coarsest graph, keeps the trial with the smallest cut, and
projects the result back level by level with refinement. Each refinement
pass seeds every vertex, makes single highest-gain moves until no admissible
move remains, then rewinds to its best prefix and recounts the side weights
from the sides; no pass starts at or runs past (balance violation, cut) =
(0, 0), the lowest.
Refinement checks its cut bookkeeping against recomputed cuts, and never
lets the cut of a feasible bisection rise; a violation raises InternalError
(exit 3).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InternalError, InvalidParameter
from .graph import SimilarityGraph, edge_cut, graph_from_edges, induced_subgraph

# METIS's default imbalance tolerance
BALANCE_EPSILON = 0.03
COARSEN_STOP_VERTICES = 100
COARSEN_MIN_SHRINK = 0.10
BFS_TRIALS = 10
DEFAULT_MAX_PASSES = 4


@dataclass(frozen=True)
class Bisection:
    side: np.ndarray  # per-vertex flag in {0, 1}
    cut: int


@dataclass(frozen=True)
class Partition:
    assignment: np.ndarray  # per-vertex part index in [0, K)
    K: int

    @property
    def part_sizes(self) -> list[int]:
        return np.bincount(self.assignment, minlength=self.K).tolist()


@dataclass(frozen=True)
class CoarseningLevel:
    graph: SimilarityGraph  # the coarser graph
    match_map: np.ndarray  # fine vertex -> coarse vertex


@dataclass
class SideBounds:
    """Admissible vertex-weight window per side of one bisection."""

    lo: tuple[int, int]
    hi: tuple[int, int]
    target0: float


def random_matching_coarsen(g: SimilarityGraph, rng: np.random.Generator) -> CoarseningLevel:
    """One coarsening level: contract a random matching.

    Vertices are visited in random order; an unmatched vertex merges with a
    uniformly random unmatched neighbor, or stays a singleton coarse vertex.
    """
    n = g.num_vertices
    if n < 2:
        raise InvalidParameter(f"cannot coarsen a graph with {n} vertices")
    coarse_id = np.full(n, -1, dtype=np.int64)
    indptr, nbrs = g.indptr, g.neighbors
    cid = 0
    for u in rng.permutation(n):
        if coarse_id[u] != -1:
            continue
        cand = nbrs[indptr[u] : indptr[u + 1]]
        cand = cand[coarse_id[cand] == -1]
        if len(cand):
            v = cand[rng.integers(len(cand))]
            coarse_id[v] = cid
        coarse_id[u] = cid
        cid += 1

    cw = np.bincount(coarse_id, weights=g.vertex_weights).astype(np.int64)
    cu = coarse_id[g.sources()]
    cv = coarse_id[nbrs]
    keep = cu < cv  # drops self-loops and keeps one direction
    uniq, inv = np.unique(cu[keep] * cid + cv[keep], return_inverse=True)
    wsum = np.bincount(inv, weights=g.edge_weights[keep]).astype(np.int64)
    edges = np.column_stack([uniq // cid, uniq % cid, wsum])
    coarse = graph_from_edges(cid, edges, vertex_weights=cw)
    return CoarseningLevel(graph=coarse, match_map=coarse_id)


def bfs_initial_bisect(
    g: SimilarityGraph,
    rng: np.random.Generator,
    target0: float,
) -> Bisection:
    """From each of BFS_TRIALS random starts, put on side 0 the shortest
    prefix of the BFS visit order that holds target0 vertex weight; keep the
    trial with the smallest cut (earlier trial wins ties)."""
    n = g.num_vertices
    if n < 2:
        raise InvalidParameter(f"cannot bisect a graph with {n} vertices")
    best: Bisection | None = None
    starts = rng.integers(0, n, size=BFS_TRIALS)
    for start in starts:
        order = _bfs_order(g, int(start))
        grown = np.searchsorted(np.cumsum(g.vertex_weights[order]), target0) + 1
        side = np.ones(n, dtype=np.int8)
        side[order[:grown]] = 0
        cut = edge_cut(g, side)
        if best is None or cut < best.cut:
            best = Bisection(side=side, cut=cut)
    return best


def _bfs_order(g: SimilarityGraph, start: int) -> np.ndarray:
    """Every vertex in BFS visit order from `start`, neighbors in index
    order; when the search runs out it restarts from the lowest-index
    unvisited vertex."""
    seen = np.zeros(g.num_vertices, dtype=bool)
    order: list[int] = []
    qi = 0
    for root in (start, *range(g.num_vertices)):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        while qi < len(order):
            nbr = g.neighbors_of(order[qi])[0]
            fresh = nbr[~seen[nbr]]
            seen[fresh] = True
            order.extend(fresh.tolist())
            qi += 1
    return np.array(order, dtype=np.int64)


def refine_kl(
    g: SimilarityGraph,
    b: Bisection,
    bounds: SideBounds,
) -> Bisection:
    """Single-move refinement of a bisection, in up to DEFAULT_MAX_PASSES passes.

    Each pass seeds every vertex, then repeatedly moves the highest-gain
    unlocked vertex whose move is admissible and locks it, until no
    admissible move remains or the score (balance violation, cut) reaches
    (0, 0), which no state beats; it then rewinds to its best prefix
    (feasible states preferred, then lowest cut) in one flip of the undone
    moves, and recounts side weights and sizes. No pass starts at (0, 0),
    and refinement stops after a pass that does not improve on its start.
    Returned cut <= input cut whenever the input state is feasible.

    Three checks raise InternalError (exit 3): `b.cut` must be the cut of
    `b.side` (inside multilevel_bisect, the projection keeps the coarse
    cut); each pass's tracked cut must equal the cut recomputed after its
    rewind; and the cut of a feasible input must not rise.
    """
    n = g.num_vertices
    side = np.asarray(b.side, dtype=np.int8).copy()
    if side.shape != (n,) or not np.isin(side, (0, 1)).all():
        raise InvalidParameter("side flags must cover every vertex with values in {0,1}")
    weights = g.vertex_weights
    maxw = int(weights.max()) if n else 1
    sw = [int(weights[side == s].sum()) for s in (0, 1)]
    counts = [int((side == s).sum()) for s in (0, 1)]
    cut = edge_cut(g, side)
    if cut != b.cut:
        raise InternalError(f"refinement got a bisection of cut {cut} that claims cut {b.cut}")
    src = g.sources()

    def violation(w0: int, w1: int) -> int:
        v = max(0, w0 - bounds.hi[0]) + max(0, bounds.lo[0] - w0)
        v += max(0, w1 - bounds.hi[1]) + max(0, bounds.lo[1] - w1)
        return v

    start_score, best_score = None, (violation(sw[0], sw[1]), cut)
    feasible = best_score[0] == 0
    for _ in range(DEFAULT_MAX_PASSES):
        # stop once a pass gained nothing, or at (0, 0), which no state beats
        if best_score in (start_score, (0, 0)):
            break
        start_score = best_score
        crossing = side[src] != side[g.neighbors]
        gain = np.bincount(src, weights=np.where(crossing, g.edge_weights, -g.edge_weights),
                           minlength=n).astype(np.int64)

        locked = np.zeros(n, dtype=bool)
        heaps = [[], []]
        for v in range(n):
            heapq.heappush(heaps[side[v]], (-int(gain[v]), v))

        best_len = 0
        moves: list[int] = []

        while best_score > (0, 0):
            # peek the best admissible move on each side
            cand = []
            for s in (0, 1):
                h = heaps[s]
                # an unlocked vertex has not moved, so it is still on side s
                while h and (locked[h[0][1]] or -h[0][0] != gain[h[0][1]]):
                    heapq.heappop(h)
                if not h:
                    continue
                v = h[0][1]
                r = 1 - s
                if counts[s] <= 1:
                    continue
                wv = int(weights[v])
                over_s = sw[s] > bounds.hi[s]
                over_r = sw[r] > bounds.hi[r]
                if over_r and not over_s:
                    continue  # only drain the overweight side
                if not over_s and sw[r] + wv > bounds.hi[r] + maxw:
                    continue  # in-pass slack of one vertex weight
                cand.append((h[0][0], v, s))
            if not cand:
                break
            _, v, s = min(cand)
            heapq.heappop(heaps[s])
            r = 1 - s
            locked[v] = True
            cut -= int(gain[v])
            sw[s] -= int(weights[v])
            sw[r] += int(weights[v])
            counts[s] -= 1
            counts[r] += 1
            side[v] = r
            moves.append(v)
            nbr, w = g.neighbors_of(v)
            for u, wu in zip(nbr.tolist(), w.tolist()):
                if locked[u]:
                    continue
                gain[u] += 2 * wu if side[u] == s else -2 * wu
                heapq.heappush(heaps[side[u]], (-int(gain[u]), u))
            score = (violation(sw[0], sw[1]), cut)
            if score < best_score:
                best_score = score
                best_len = len(moves)

        # rewind to the best prefix, then recount from the sides
        side[np.array(moves[best_len:], dtype=np.int64)] ^= 1
        sw = [int(weights[side == s].sum()) for s in (0, 1)]
        counts = [int((side == s).sum()) for s in (0, 1)]
        cut = edge_cut(g, side)
        if cut != best_score[1]:
            raise InternalError(f"refinement tracked cut {best_score[1]}, its sides cut {cut}")

    if feasible and cut > b.cut:
        raise InternalError(f"refinement raised the cut of a feasible bisection from {b.cut} to {cut}")
    return Bisection(side=side, cut=cut)


def multilevel_bisect(
    g: SimilarityGraph,
    rng: np.random.Generator,
    bounds: SideBounds,
) -> Bisection:
    """Coarsen, bisect the coarsest graph, project back with refinement."""
    levels: list[tuple[SimilarityGraph, np.ndarray]] = []  # (fine graph, its match_map)
    cur = g
    while cur.num_vertices > COARSEN_STOP_VERTICES:
        lvl = random_matching_coarsen(cur, rng)
        if lvl.graph.num_vertices > (1 - COARSEN_MIN_SHRINK) * cur.num_vertices:
            break
        levels.append((cur, lvl.match_map))
        cur = lvl.graph

    b = bfs_initial_bisect(cur, rng, target0=bounds.target0)
    b = refine_kl(cur, b, bounds=bounds)
    for fine_g, match_map in reversed(levels):
        b = refine_kl(fine_g, Bisection(side=b.side[match_map], cut=b.cut), bounds=bounds)
    return b


def partition_kway(g: SimilarityGraph, K: int, seed: int) -> Partition:
    """Recursive bisection into K parts of at most
    ceil(n/K)·(1 + BALANCE_EPSILON) vertices each.

    Left recursion branches receive ceil(K/2) parts and a proportional
    vertex-weight target; per-branch RNG streams derive from (seed, path) so
    the result is independent of evaluation order.
    """
    n = g.num_vertices
    if not 1 <= K <= n:
        raise InvalidParameter(f"K must satisfy 1 <= K <= {n}, got {K}")
    if (g.vertex_weights != 1).any():
        # the part cap below counts vertices
        raise FormatError("K-way partitioning needs every vertex weight to be 1")
    assignment = np.zeros(n, dtype=np.int64)
    # global per-part weight cap, threaded through every bisection
    part_cap = int(math.ceil(n / K) * (1 + BALANCE_EPSILON))
    next_part = [0]

    def recurse(sub: SimilarityGraph, mapping: np.ndarray, kt: int, path: tuple[int, ...]):
        if kt == 1:
            assignment[mapping] = next_part[0]
            next_part[0] += 1
            return
        if sub.num_vertices == kt:
            assignment[mapping] = np.arange(next_part[0], next_part[0] + kt)
            next_part[0] += kt
            return
        kl = (kt + 1) // 2
        kr = kt // 2
        w = sub.total_vertex_weight
        bounds = SideBounds(
            lo=(max(kl, w - kr * part_cap), max(kr, w - kl * part_cap)),
            hi=(kl * part_cap, kr * part_cap),
            target0=w * kl / kt,
        )
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, *path])
        b = multilevel_bisect(sub, rng, bounds=bounds)
        left = np.nonzero(b.side == 0)[0]
        right = np.nonzero(b.side == 1)[0]
        if len(left) == 0 or len(right) == 0:
            raise InternalError("bisection produced an empty side")
        for child, kc, tag in ((left, kl, 0), (right, kr, 1)):
            if kc == 1:
                assignment[mapping[child]] = next_part[0]
                next_part[0] += 1
            else:
                csub, cmap = induced_subgraph(sub, child)
                recurse(csub, mapping[cmap], kc, path + (tag,))

    recurse(g, np.arange(n, dtype=np.int64), K, ())

    part = Partition(assignment=assignment, K=K)
    sizes = part.part_sizes
    if next_part[0] != K or min(sizes) < 1:
        raise InternalError(f"partition produced {next_part[0]} parts with sizes {sizes}")
    if max(sizes) > part_cap:
        raise InternalError(f"balance violated: max part size {max(sizes)} > cap {part_cap}")
    return part


def partition_to_dict(g: SimilarityGraph, p: Partition, seed: int) -> dict:
    return {
        "K": p.K,
        "seed": seed,
        "assignment": p.assignment.tolist(),
        "cut": edge_cut(g, p.assignment),
        "part_sizes": p.part_sizes,
    }
