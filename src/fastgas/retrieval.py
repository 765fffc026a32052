"""Per-test-instance prompt example orderings from the selected subset."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import FormatError, InvalidParameter


@dataclass(frozen=True)
class RetrievalPlan:
    per_test: dict[str, list[str]]  # test id -> ordered selected-instance ids
    m: int
    mode: str  # "similar" or "random"

    def to_dict(self) -> dict:
        return {"mode": self.mode, "m": self.m, "per_test": self.per_test}


def retrieve_similar(
    pool: EmbeddingMatrix,
    selected: list[int],
    tests: EmbeddingMatrix,
    m: int,
) -> RetrievalPlan:
    """Each test's m most similar selected instances by cosine similarity,
    listed from least to most similar, so the most similar example comes last
    (adjacent to the test input in the prompt). Ties break toward the lower
    pool index.
    """
    if not selected:
        raise InvalidParameter("no selected instances to retrieve from")
    if m < 1:
        raise InvalidParameter(f"m must be >= 1, got {m}")
    sel = np.asarray(selected, dtype=np.int64)
    if sel.min() < 0 or sel.max() >= pool.n:
        raise InvalidParameter(f"selected index outside [0, {pool.n})")
    if pool.dim != tests.dim:
        raise FormatError(f"pool dim {pool.dim} != test dim {tests.dim}")

    sel = np.sort(sel)  # pool-index order, so the stable sort below breaks ties to the lower index
    xs = pool.vectors[sel].astype(np.float64)
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    xt = tests.vectors.astype(np.float64)
    xt /= np.linalg.norm(xt, axis=1)[:, None]
    sims = xt @ xs.T  # tests x selected

    rank = np.argsort(-sims, axis=1, kind="stable")[:, :min(m, len(sel))]  # best first
    chosen = sel[rank[:, ::-1]].tolist()  # most similar last
    ids = pool.ids
    per_test = {tid: [ids[i] for i in row] for tid, row in zip(tests.ids, chosen)}
    return RetrievalPlan(per_test=per_test, m=m, mode="similar")


def retrieve_random(
    selected_ids: list[str], test_ids: list[str], m: int, seed: int
) -> RetrievalPlan:
    """Uniform without-replacement sample per test, stream derived from (seed, test index)."""
    if not selected_ids:
        raise InvalidParameter("no selected instances to retrieve from")
    if m < 1:
        raise InvalidParameter(f"m must be >= 1, got {m}")
    take = min(m, len(selected_ids))
    per_test: dict[str, list[str]] = {}
    for t, tid in enumerate(test_ids):
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, t])
        idx = rng.choice(len(selected_ids), size=take, replace=False)
        per_test[tid] = [selected_ids[i] for i in idx]
    return RetrievalPlan(per_test=per_test, m=m, mode="random")
