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
    order: str = "asc"

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "m": self.m,
            "order": self.order,
            "per_test": self.per_test,
        }


def retrieve_similar(
    pool: EmbeddingMatrix,
    selected: list[int],
    tests: EmbeddingMatrix,
    m: int,
    order: str = "asc",
) -> RetrievalPlan:
    """Rank the selected instances by cosine similarity to each test vector.

    Ties break toward the lower pool index. With order="asc" the most similar
    example comes last (adjacent to the test input in the prompt).
    """
    if not selected:
        raise InvalidParameter("no selected instances to retrieve from")
    if m < 1:
        raise InvalidParameter(f"m must be >= 1, got {m}")
    if order not in ("asc", "desc"):
        raise InvalidParameter(f"order must be asc or desc, got {order!r}")
    sel = np.asarray(selected, dtype=np.int64)
    if sel.min() < 0 or sel.max() >= pool.n:
        raise InvalidParameter(f"selected index outside [0, {pool.n})")
    if pool.dim != tests.dim:
        raise FormatError(f"pool dim {pool.dim} != test dim {tests.dim}")

    xs = pool.vectors[sel].astype(np.float64)
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    xt = tests.vectors.astype(np.float64)
    xt /= np.linalg.norm(xt, axis=1)[:, None]
    sims = xt @ xs.T  # tests x selected

    take = min(m, len(sel))
    per_test: dict[str, list[str]] = {}
    for t in range(tests.n):
        rank = np.lexsort((sel, -sims[t]))[:take]  # best first, ties to low pool index
        chosen = sel[rank]
        if order == "asc":
            chosen = chosen[::-1]  # most similar last
        per_test[tests.ids[t]] = [pool.ids[i] for i in chosen]
    return RetrievalPlan(per_test=per_test, m=m, mode="similar", order=order)


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
