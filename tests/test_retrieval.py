import numpy as np
import pytest

from fastgas.embeddings import EmbeddingMatrix, cosine_similarity, generate_synthetic
from fastgas.errors import FormatError, InvalidParameter
from fastgas.retrieval import retrieve_random, retrieve_similar


def brute_force_top_m(pool, selected, test_vec, m):
    """Oracle: rank by exhaustive pairwise cosine, ties to lower pool index."""
    ranked = sorted(
        selected, key=lambda i: (-cosine_similarity(pool.vectors[i], test_vec), i)
    )
    return [pool.ids[i] for i in ranked[:m]]


class TestRetrieveSimilar:
    def test_identical_vector_wins(self):
        pool = generate_synthetic(20, 8, 4, 0.3, seed=1)
        tests = EmbeddingMatrix(ids=["t0"], vectors=pool.vectors[7:8].copy())
        plan = retrieve_similar(pool, list(range(20)), tests, 1)
        assert plan.per_test["t0"] == ["syn-7"]

    def test_m_at_least_selection_returns_all(self):
        pool = generate_synthetic(10, 4, 2, 0.3, seed=2)
        tests = generate_synthetic(3, 4, 1, 0.3, seed=5)
        selected = [1, 4, 8]
        plan = retrieve_similar(pool, selected, tests, 7)
        for ids in plan.per_test.values():
            assert sorted(ids) == ["syn-1", "syn-4", "syn-8"]

    def test_ascending_similarity_order(self):
        pool = generate_synthetic(30, 6, 3, 0.4, seed=3)
        tests = generate_synthetic(4, 6, 2, 0.4, seed=9)
        plan = retrieve_similar(pool, list(range(30)), tests, 5)
        for t in range(4):
            ids = plan.per_test[tests.ids[t]]
            sims = [
                cosine_similarity(pool.vectors[int(i.split("-")[1])], tests.vectors[t])
                for i in ids
            ]
            assert sims == sorted(sims)  # most similar last

    def test_matches_brute_force_oracle(self, rng):
        for trial in range(20):
            pool = generate_synthetic(25, 5, 3, 0.5, seed=trial)
            tests = generate_synthetic(5, 5, 2, 0.5, seed=1000 + trial)
            selected = sorted(rng.choice(25, size=12, replace=False).tolist())
            m = int(rng.integers(1, 12))
            plan = retrieve_similar(pool, selected, tests, m)
            for t in range(tests.n):
                expected = brute_force_top_m(pool, selected, tests.vectors[t], m)
                assert set(plan.per_test[tests.ids[t]]) == set(expected)

    def test_matches_brute_force_ranking_in_order(self):
        """An unsorted selection with tied rows: each plan is the oracle's
        ranking reversed, the most similar last and ties to the lower index."""
        pool = generate_synthetic(16, 5, 3, 0.5, seed=4)
        vectors = pool.vectors.copy()
        vectors[[5, 9]] = vectors[2]
        pool = EmbeddingMatrix(ids=pool.ids, vectors=vectors)
        selected = [9, 2, 5, 14, 0, 7, 11]
        tests = generate_synthetic(6, 5, 2, 0.5, seed=8)
        tests = EmbeddingMatrix(ids=tests.ids, vectors=np.vstack([vectors[2:3], tests.vectors[1:]]))
        for m in range(1, len(selected) + 2):
            plan = retrieve_similar(pool, selected, tests, m)
            for t in range(tests.n):
                expected = brute_force_top_m(pool, selected, tests.vectors[t], m)
                assert plan.per_test[tests.ids[t]] == expected[::-1], (m, t)
        assert plan.per_test["syn-0"][-3:] == ["syn-9", "syn-5", "syn-2"]

    def test_empty_selection(self):
        pool = generate_synthetic(5, 3, 1, 0.2, seed=0)
        with pytest.raises(InvalidParameter, match="no selected instances to retrieve from"):
            retrieve_similar(pool, [], pool, 2)

    def test_dim_mismatch(self):
        pool = generate_synthetic(5, 3, 1, 0.2, seed=0)
        tests = generate_synthetic(2, 4, 1, 0.2, seed=0)
        with pytest.raises(FormatError, match="pool dim 3 != test dim 4"):
            retrieve_similar(pool, [0, 1], tests, 2)


class TestRetrieveRandom:
    def test_full_m_is_permutation(self):
        sel = [f"s{i}" for i in range(6)]
        plan = retrieve_random(sel, ["t0", "t1"], 10, seed=0)
        for ids in plan.per_test.values():
            assert sorted(ids) == sorted(sel)

    def test_deterministic(self):
        sel = [f"s{i}" for i in range(20)]
        a = retrieve_random(sel, ["t0", "t1"], 5, seed=7)
        b = retrieve_random(sel, ["t0", "t1"], 5, seed=7)
        assert a.per_test == b.per_test

    def test_distinct_streams_per_test(self):
        sel = [f"s{i}" for i in range(30)]
        differing = sum(
            retrieve_random(sel, ["a", "b"], 5, seed=s).per_test["a"]
            != retrieve_random(sel, ["a", "b"], 5, seed=s).per_test["b"]
            for s in range(100)
        )
        assert differing >= 95

    def test_no_duplicates(self):
        sel = [f"s{i}" for i in range(10)]
        plan = retrieve_random(sel, [f"t{i}" for i in range(20)], 4, seed=3)
        for ids in plan.per_test.values():
            assert len(set(ids)) == len(ids) == 4

    def test_empty_selection(self):
        with pytest.raises(InvalidParameter, match="no selected instances to retrieve from"):
            retrieve_random([], ["t0"], 2, seed=0)
