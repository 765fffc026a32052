"""The exact kNN graph of an embedding pool under cosine similarity; the
comment above `_floor32` shows why it is exact."""

from __future__ import annotations

import threading

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import InvalidParameter
from .graph import SimilarityGraph, _unique_sorted, graph_from_edges

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
# The largest block radius at which the screen takes the rows as residuals
# from their blocks' centres ("Rows" below). That narrows the re-rank but
# adds float64 terms to every similarity: at radius 0.45 (the jsonl
# workload) they cost more than the smaller re-rank saves.
_CENTRED_RADIUS = 0.25


def build_knn_graph(emb: EmbeddingMatrix, k: int, threads: int = 1) -> SimilarityGraph:
    """kNN graph under cosine similarity, symmetrized by union.

    An edge (u, v) exists if v is among u's k most similar other vertices or
    vice versa. Similarity is the float64 dot product of the rows normalized
    in float64, and ties go to the lower index. The search is exact (see the
    comment above `_floor32`), so neither the block order, the block size
    nor `threads`, which deals the blocks to workers, can change the graph.
    """
    n, d = emb.n, emb.dim
    if k < 1 or k >= n:
        raise InvalidParameter(f"k must satisfy 1 <= k <= N-1, got k={k}, N={n}")
    vecs = emb.vectors
    perm, starts = _block_order(vecs)
    norms, centres, radius, res = _screen_rows(vecs, perm, starts)
    found, eps = _knn_screen(res, centres, radius, starts, k, threads)
    del res
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
    chunk = max(1, _RERANK_CHUNK // d)
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


# Why the search is exact. s32 is a pair's float32 similarity in the
# screen, s64 its float64 one.
#
# Rows. `_block_order` orders the rows by a cheap k-means and cuts them
# into blocks. A block's centre c is the normalized sum of its unit rows
# x̂, or its first row if that sum is 0, and its radius the largest
# |x̂ - c| of its rows. If every block's radius is at most 1/4
# (_CENTRED_RADIUS), each row is screened as its residual r = x̂ - z from
# z = c, its block's centre; otherwise as itself, with z = 0, r = x̂ and
# radius 1 (one eps serves all pairs, so centring some blocks would not
# shrink it). The similarity of row i of block a and row j of block b is
# then x̂_i·x̂_j = r_i·r_j + r_i·z_b + z_a·r_j + z_a·z_b: the float32
# product of the residuals rounded to float32, plus, when centred, the
# other three terms in float64, added to it in one rounding to float32.
#
# Error. Let ρ be the largest radius and u = 2⁻²⁴. Rounding a residual to
# float32 moves its row by at most u·ρ, which moves a similarity by at
# most 2u·ρ + u²·ρ². The float32 product of the rounded residuals adds at
# most γ_d·(1 + u)²·ρ², with γ_d = d·u/(1 - d·u) the dot-product bound
# of Higham, Accuracy and Stability of Numerical Algorithms, §3.1
# (`_rounding_error` is these two terms). Adding the float64 terms to a
# sum of size at most 1 plus that error adds u times that size. With 2u of
# slack for the float64 roundings, each of about d·2⁻⁵³, s32 lies within
# eps/2 of s64, eps/2 being the sum of these terms. Uncentred, ρ is 1, no
# float64 terms are added, and eps/2 is the plain bound of unit rows,
# about (d+4)·u/(1-d·u). Centring shrinks the product's error from γ_d to
# γ_d·ρ²: on tight clusters eps is tens of times smaller, and so is the
# band that the re-rank takes.
#
# Thresholds. Each vertex v keeps a threshold lo[v]: the k-th largest s32
# of v to k different partners it has been compared with, minus eps,
# rounded down to float32; lo only rises. Those k partners have s64 at
# least lo + eps/2, so every partner in the float64 top k, ties included,
# has s32 >= lo[v], whichever product computed it: a pair below lo[v] at
# any time can be dropped from v's side.
#
# Screen. Each block is first compared with itself, widened to its
# nearest blocks when it has k rows or fewer; that sets its rows' lo and
# keeps its own pairs at or above them. For two blocks A and B, let α be
# the smallest angle of a row of A to B's centre ĉ and θ the largest of a
# row of B to ĉ, both from the float64 products of ĉ and the screened
# rows z + r (within u·ρ of the rows) padded by eps/2. By the
# triangle inequality every pair of A × B has s64 <= cos(max(0, α - θ)),
# and the bound is the smaller of that and its mirror through A's centre.
# A pair of blocks whose bound + eps/2 lies below the lo of all their rows
# holds no pair at or above either end's lo and is skipped. The screen
# then takes the blocks from the last: block A's rows against the kept
# blocks to its right, in one product. Before its pairs are filtered, each
# row's lo rises with its maxima over strided groups of these columns and
# each column's with its maximum over these rows (partners that its lo
# has not yet counted). Each vertex tracks the smallest of the k largest
# s32 it has seen, so only the columns whose maximum beats it are
# updated. A pair is kept for each end whose lo it reaches. Such a pair
# has s32 >= lo[i] >= the smallest lo of the rows, or s32 >= lo[j], and
# s32 is at most column j's maximum; so only the live columns, whose
# maximum reaches the smaller of those two, can hold one, and a strip
# with few of them filters a copy of them alone. Going from the last
# block, a column's lo has already risen with its own strip. A last
# filter drops the pairs below the final lo.
#
# Re-rank, in `build_knn_graph`. Each vertex's candidates are exactly its
# partners with s32 >= its final lo, the float64 top k among them. Let K
# be its k-th largest candidate s32, which is then its k-th largest s32
# over all partners. Fewer than k partners have s32 > K and at least k
# have s32 >= K, so the float64 k-th similarity lies within eps/2 of K. A
# candidate above K + eps therefore has s64 above that value and is in the
# top k; one below K - eps is out. Only the band in between is re-ranked
# in float64 by (-s64, index), and a vertex whose band holds just the
# members it still needs takes them all. The result is the exact float64
# top k, so neither the k-means, the block size nor `threads`, which deals
# the blocks to workers, can change it.


def _floor32(x: np.ndarray) -> np.ndarray:
    """float64 `x` rounded down to float32."""
    y = x.astype(np.float32)
    return np.where(y > x, np.nextafter(y, np.float32(-np.inf)), y)


def _rounding_error(d: int, rho: float) -> float:
    """A bound on |s - x̂_i·x̂_j| for rows x̂ of norm at most 1 screened as
    float32 residuals r = x̂ - z of norm at most rho from float64 centres z,
    where s is the float32 product of the residuals plus the float64 terms
    r_i·z_b + z_a·r_j + z_a·z_b taken exactly: the residuals' rounding and
    the product's error of "Error" above."""
    u = 2.0**-24
    return d * u / (1 - d * u) * (1 + u) ** 2 * rho**2 + 2 * u * rho + u * u * rho**2


def _screen_rows(vecs: np.ndarray, perm: np.ndarray, starts: np.ndarray) -> tuple:
    """The float64 norms of the rows of `vecs`; the centres and radii of the
    blocks [starts[a], starts[a+1]) of their unit rows taken in the order
    `perm`; and, in that order, the rows the screen multiplies, in float32:
    residuals from their blocks' centres if every block's radius is at most
    _CENTRED_RADIUS, else the rows themselves ("Rows" above). Once one
    block's radius exceeds that, the radii of the blocks after it are not
    measured and are inf."""
    (n, d), nb = vecs.shape, len(starts) - 1
    norms = np.empty(n)
    centres = np.empty((nb, d))
    radius = np.full(nb, np.inf)
    res = np.empty((n, d), dtype=np.float32)
    r = np.empty((np.diff(starts).max(), d))
    centred = True
    for a in range(nb):
        rows = perm[starts[a]:starts[a + 1]]
        x = vecs[rows].astype(np.float64)
        norms[rows] = np.linalg.norm(x, axis=1)
        x /= norms[rows, None]
        total = x.sum(axis=0)
        norm = np.linalg.norm(total)
        centres[a] = total / norm if norm > 0 else x[0]
        if centred:
            ra = np.subtract(x, centres[a], out=r[:len(x)])
            radius[a] = np.sqrt(np.einsum("ij,ij->i", ra, ra).max())
            centred = radius[a] <= _CENTRED_RADIUS
        res[starts[a]:starts[a + 1]] = ra if centred else x
    if not centred:
        for a in np.flatnonzero(radius <= _CENTRED_RADIUS):
            rows = perm[starts[a]:starts[a + 1]]
            res[starts[a]:starts[a + 1]] = np.divide(vecs[rows], norms[rows, None])
    return norms, centres, radius, res


def _knn_screen(res: np.ndarray, centres: np.ndarray, radius: np.ndarray, starts: np.ndarray,
                k: int, threads: int) -> tuple[list, float]:
    """The float32 screen of `build_knn_graph` over the blocks [starts[i],
    starts[i+1]) of the rows `res` from `_screen_rows`, with the blocks'
    centres and radii: pieces of int32 vertices, int32 partners and float32
    similarities, among them every pair with s32 >= the vertex's lo, and
    eps."""
    nb, d = len(starts) - 1, res.shape[1]
    sizes = np.diff(starts)

    centred = radius.max() <= _CENTRED_RADIUS
    # zc[a, b]: z_a·z_b, with z the centres if centred, else 0
    zc = centres @ centres.T if centred else np.zeros((nb, nb))
    # rz[i, b]: r_i·c_b in float64, from which the centred product takes its
    # terms r_i·z_b and z_a·r_j; the plain one needs none and skips the table
    rz = np.empty((len(res), nb)) if centred else None

    # eps/2 bounds |s32 - s64| ("Error" above): _rounding_error for
    # the largest radius, the rounding of the float64 terms' sum, and 2u of
    # slack
    u = 2.0**-24
    err = _rounding_error(d, radius.max() if centred else 1)
    eps = 2 * (err + (u * (1 + err) if centred else 0) + 2 * u)
    # near[a, b]: the largest similarity of a screened row z + r of block a
    # to the centre of b; far[b]: the smallest of a row of b to its own
    # centre; within eps/2 of those of the rows, they bound every float64
    # similarity between two blocks through the triangle inequality
    near = np.empty((nb, nb))
    far = np.empty(nb)
    for a in range(nb):
        g = res[starts[a]:starts[a + 1]] @ centres.T
        if centred:
            rz[starts[a]:starts[a + 1]] = g
        g += zc[a]
        near[a], far[a] = g.max(axis=0), g[:, a].min()
    alpha = np.arccos(np.clip(near + eps / 2, -1, 1))
    theta = np.arccos(np.clip(far - eps / 2, -1, 1))
    bound = np.cos(np.maximum(alpha - theta, 0))
    bound = np.minimum(bound, bound.T)

    # top[v]: the k largest s32 of v seen so far, each to a different
    # partner; kth[v]: their smallest; lo[v] never falls below kth[v] minus
    # eps, rounded down
    top = np.empty((len(res), k), dtype=np.float32)
    kth = np.empty(len(res), dtype=np.float32)
    lo = np.empty(len(res), dtype=np.float32)
    lo_min = np.empty(nb, dtype=np.float32)
    lock = threading.Lock()

    def spans(blocks: np.ndarray) -> list:
        """The row ranges of the runs of consecutive blocks in `blocks`."""
        cut = np.flatnonzero(np.diff(blocks) != 1) + 1
        return list(zip(starts[blocks[np.r_[0, cut]]], starts[blocks[np.r_[cut, len(blocks)] - 1] + 1]))

    def gemm(a: int, blocks: np.ndarray, buf: np.ndarray, group: int = 1) -> np.ndarray:
        """Similarities of block a's rows to the rows of `blocks`, in `buf`:
        the float32 product of the residuals, one per run of consecutive
        blocks, plus, if the blocks are centred, the float64 terms in one
        rounding; -inf pads the columns to a multiple of `group`."""
        rows = res[starts[a]:starts[a + 1]]
        width = sizes[blocks].sum()
        s = buf[: len(rows) * -(-width // group) * group].reshape(len(rows), -1)
        s[:, width:] = -np.inf
        off = 0
        for first, end in spans(blocks):
            np.matmul(rows, res[first:end].T, out=s[:, off:off + end - first])
            off += end - first
        if centred:
            # r_i·c_b + c_a·c_b of each row i and block b, plus c_a·r_j of
            # each column j
            row = rz[starts[a]:starts[a + 1], blocks] + zc[a, blocks]
            off = 0
            for i, b in enumerate(blocks):
                cols = s[:, off:off + sizes[b]]
                off += sizes[b]
                np.add(cols, np.add.outer(row[:, i], rz[starts[b]:starts[b + 1], a]), out=cols,
                       casting="same_kind")
        return s

    def thresholds(a: int, buf: np.ndarray):
        """top and lo of block a's rows from the block, widened to its
        nearest blocks if it has k rows or fewer, and the block's own pairs
        at or above their row's lo."""
        nearest = np.argsort(-bound[a], kind="stable")
        nearest = np.concatenate([[a], nearest[nearest != a]])
        s = gemm(a, nearest[: np.searchsorted(np.cumsum(sizes[nearest]), k + 1) + 1], buf)
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
        keeps, and the pairs at or above the lo of either end ("Screen"
        above); where the live columns are at most a quarter of the strip,
        a copy of them alone is filtered."""
        rows = slice(starts[a], starts[a + 1])
        blocks = a + 1 + np.flatnonzero(bound[a, a + 1:] + eps / 2
                                        >= np.minimum(lo_min[a], lo_min[a + 1:]))
        if not len(blocks):
            return ()
        s = gemm(a, blocks, buf, _GROUP_COLUMNS)
        # column j goes to group j % groups
        groups = s.shape[1] // _GROUP_COLUMNS
        gmax = s.reshape(len(s), _GROUP_COLUMNS, groups).max(axis=1)
        cols = np.concatenate([np.arange(first, end, dtype=np.int32) for first, end in spans(blocks)])
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
        # only the live columns can hold a kept pair ("Screen" above)
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
            # imported here, so that a one-thread run does not load it at start-up
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as ex:
                per_worker = list(ex.map(work, range(workers)))
        return [x for w in per_worker for x in w if len(x)]

    found = run(thresholds, min(len(res), k + 1 + sizes.max()))
    lo_min[:] = np.minimum.reduceat(lo, starts[:-1])
    found += run(screen, len(res) + _GROUP_COLUMNS)
    for i, (v, c, sim) in enumerate(found):
        keep = sim >= lo[v]
        found[i] = v[keep], c[keep], sim[keep]
    return found, eps
