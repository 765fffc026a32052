import json
import math
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastgas import embeddings
from fastgas.embeddings import (
    EmbeddingMatrix,
    cosine_similarity,
    generate_synthetic,
    load_embeddings,
    save_embeddings,
    synthetic_labels,
)
from fastgas.errors import FormatError, InvalidParameter
from fastgas.knn import build_knn_graph
from fastgas.selection import lloyd_kmeans


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


class TestLoadJsonl:
    def test_two_rows(self, tmp_path):
        p = tmp_path / "e.jsonl"
        write_jsonl(p, [{"id": "a", "vector": [1, 0]}, {"id": "b", "vector": [0, 1]}])
        emb = load_embeddings(str(p), "jsonl")
        assert emb.n == 2 and emb.dim == 2
        assert emb.ids == ["a", "b"]
        np.testing.assert_array_equal(emb.vectors, [[1, 0], [0, 1]])

    def test_dimension_mismatch_names_record(self, tmp_path):
        p = tmp_path / "e.jsonl"
        write_jsonl(p, [
            {"id": "a", "vector": [1.0, 0, 0, 0]},
            {"id": "b", "vector": [0, 1.0, 0, 0]},
            {"id": "c", "vector": [0, 0, 1.0, 0, 0]},
        ])
        with pytest.raises(FormatError, match="record 2"):
            load_embeddings(str(p), "jsonl")

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "e.jsonl"
        write_jsonl(p, [{"id": "a", "vector": [1, 0]}, {"id": "a", "vector": [0, 1]}])
        with pytest.raises(FormatError, match="duplicate"):
            load_embeddings(str(p), "jsonl")

    def test_non_finite(self, tmp_path):
        p = tmp_path / "e.jsonl"
        p.write_text('{"id":"a","vector":[1,NaN]}\n', encoding="utf-8")
        with pytest.raises(FormatError):
            load_embeddings(str(p), "jsonl")

    def test_float32_overflow_is_named_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FormatError, match="non-finite value at record 0"):
                EmbeddingMatrix(ids=["a"], vectors=[[1e39, 1.0]])

    def test_matrix_names_its_first_bad_row(self):
        rows = [[1, 1], [0, 0], [np.inf, 1], [1, 2]]
        with pytest.raises(FormatError, match="zero vector at record 1$"):
            EmbeddingMatrix(ids=["a", "b", "c", "a"], vectors=rows)
        with pytest.raises(FormatError, match="duplicate id 'a' at record 1$"):
            EmbeddingMatrix(ids=["a", "a", "c", "d"], vectors=rows)

    def test_value_check_is_gated_on_a_boolean(self, tmp_path):
        # ids and an extra key holding u, f and true read as under plain ids
        rows = generate_synthetic(50, 8, 3, 0.5, seed=2).vectors.tolist()
        rows[0] = [1, -2, 3, 4, 5, 6, 7, 8]
        plain, lettered = tmp_path / "plain.jsonl", tmp_path / "lettered.jsonl"
        write_jsonl(plain, [{"id": f"p{i}", "vector": v} for i, v in enumerate(rows)])
        write_jsonl(lettered, [{"id": f"uf-true-{i}", "source": "features", "vector": v}
                               for i, v in enumerate(rows)])
        assert load_embeddings(str(lettered)).vectors.tobytes() == load_embeddings(str(plain)).vectors.tobytes()
        # a boolean or a null is still named on its line
        for vec in ([1, True], [False, 2.5], [1, None]):
            p = tmp_path / "bad.jsonl"
            p.write_text('{"id": "a", "vector": [1, 2]}\n\n' + json.dumps({"id": "b", "vector": vec}) + "\n",
                         encoding="utf-8")
            with pytest.raises(FormatError, match=r"^record 2: 'vector' must be a non-empty array of numbers$"):
                load_embeddings(str(p))

    def test_zero_vector_rejected(self, tmp_path):
        p = tmp_path / "e.jsonl"
        write_jsonl(p, [{"id": "a", "vector": [0.0, 0.0]}])
        with pytest.raises(FormatError, match="zero vector"):
            load_embeddings(str(p), "jsonl")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_embeddings("/nonexistent/file.jsonl", "jsonl")


def _reference_load_jsonl(path: str) -> EmbeddingMatrix:
    """A record-by-record JSONL loader that checks each record in full before
    it reads the next: the oracle."""
    ids: list[str] = []
    rows: list[np.ndarray] = []
    seen = set()
    dim = None
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise FormatError(f"record {i}: invalid JSON ({e})") from e
            if not isinstance(obj, dict) or "id" not in obj or "vector" not in obj:
                raise FormatError(f"record {i}: expected object with 'id' and 'vector'")
            if not isinstance(obj["id"], str):
                raise FormatError(f"record {i}: 'id' must be a string")
            vec = obj["vector"]
            if not isinstance(vec, list) or not vec or not all(type(x) in (int, float) for x in vec):
                raise FormatError(f"record {i}: 'vector' must be a non-empty array of numbers")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise FormatError(f"record {i}: dimension {len(vec)} != {dim}")
            with np.errstate(over="ignore"):
                row = np.asarray(vec, dtype=np.float64).astype(np.float32)
            if obj["id"] in seen:
                raise FormatError(f"duplicate id {obj['id']!r} at record {i}")
            if not np.isfinite(row).all():
                raise FormatError(f"non-finite value at record {i}")
            if not row.any():
                raise FormatError(f"zero vector at record {i}")
            seen.add(obj["id"])
            ids.append(obj["id"])
            rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no records")
    return EmbeddingMatrix(ids=ids, vectors=np.asarray(rows))


def _outcome(load, path):
    try:
        emb = load(str(path))
    except Exception as e:
        return type(e), str(e)
    return emb.ids, emb.vectors.dtype, emb.vectors.shape, emb.vectors.tobytes()


def _assert_parity(path):
    """Same ids and float32 bits, or the same FormatError; where the oracle
    raised anything else, the loader raises a FormatError naming a record."""
    want = _outcome(_reference_load_jsonl, path)
    got = _outcome(embeddings._load_jsonl, path)
    if want[0] is FormatError or type(want[0]) is list:
        assert got == want
    else:
        assert got[0] is FormatError and "record" in got[1], (want, got)


_numbers = (
    st.floats(-3e38, 3e38)
    | st.floats(-1e6, 1e6, width=32)
    | st.integers(-(2**70), 2**70)
    | st.integers(-5, 5)
    # float64 then float32 rounds the first differently from a direct cast
    | st.sampled_from([2**54 + 2**30 + 1, 2**63 - 1, 2**64 - 1, -(2**63), 2**63 + 2**39 + 1])
)


@st.composite
def _jsonl_files(draw):
    """Lines of a JSONL file as bytes: valid records, then maybe one mutation."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 5))
    ints_only = draw(st.booleans())  # all-integer rows take numpy's int64 path
    num = st.integers(-(2**70), 2**70) if ints_only else _numbers
    ids = draw(st.lists(st.text(max_size=3), min_size=n, max_size=n, unique=True))
    recs = [{"id": ident, "vector": draw(st.lists(num, min_size=d, max_size=d))} for ident in ids]
    lines = [json.dumps(r).encode() for r in recs]
    j = draw(st.integers(0, n - 1))
    vec = recs[j]["vector"]
    k = draw(st.integers(0, d - 1))

    def with_element(x):
        return json.dumps({"id": recs[j]["id"], "vector": vec[:k] + [x] + vec[k + 1:]}).encode()

    mutation = draw(st.sampled_from([
        "none", "string", "bool", "null", "nested", "longer", "shorter", "empty", "non-object",
        "no-vector", "vector-scalar", "truncated", "garbage", "nan", "infinity", "beyond-2^64",
        "beyond-float64", "float32-overflow", "blank", "crlf", "bad-utf8", "mixed", "duplicate-id",
        "non-string-id",
    ]))
    if mutation == "string":
        lines[j] = with_element(str(vec[k]))
    elif mutation == "bool":
        lines[j] = with_element(draw(st.booleans()))
    elif mutation == "null":
        lines[j] = with_element(None)
    elif mutation == "nested":
        lines[j] = with_element([vec[k]])
    elif mutation == "longer":
        lines[j] = json.dumps({"id": recs[j]["id"], "vector": vec + [1.0]}).encode()
    elif mutation == "shorter":
        lines[j] = json.dumps({"id": recs[j]["id"], "vector": vec[1:]}).encode()
    elif mutation == "empty":
        lines = [json.dumps({"id": r["id"], "vector": []}).encode() for r in recs]
    elif mutation == "non-object":
        lines[j] = json.dumps(draw(st.sampled_from([vec, 3, "x", None, [recs[j]]]))).encode()
    elif mutation == "no-vector":
        lines[j] = json.dumps({"id": recs[j]["id"], "vectors": vec}).encode()
    elif mutation == "vector-scalar":
        lines[j] = json.dumps({"id": recs[j]["id"], "vector": draw(st.sampled_from([1.0, "1,2", {"0": 1}]))}).encode()
    elif mutation == "truncated":
        lines[j] = lines[j][: draw(st.integers(1, len(lines[j]) - 1))]
    elif mutation == "garbage":
        cut = draw(st.integers(0, len(lines[j])))
        lines[j] = lines[j][:cut] + draw(st.sampled_from([b",", b"]", b"+1", b"01", b".5", b"}"])) + lines[j][cut:]
    elif mutation in ("nan", "infinity"):
        lines[j] = with_element(math.nan if mutation == "nan" else -math.inf)
    elif mutation == "beyond-2^64":
        lines[j] = with_element(draw(st.integers(2**64, 2**100) | st.integers(-(2**100), -(2**64))))
    elif mutation == "beyond-float64":
        lines[j] = with_element(10**400)
    elif mutation == "float32-overflow":
        lines[j] = with_element(1e39)
    elif mutation == "blank":
        lines.insert(j, draw(st.sampled_from([b"", b"   ", b"\t"])))
    elif mutation == "crlf":
        lines = [line + b"\r" for line in lines]
    elif mutation == "bad-utf8":
        cut = draw(st.integers(0, len(lines[j])))
        lines[j] = lines[j][:cut] + b"\xff" + lines[j][cut:]
    elif mutation == "duplicate-id":
        lines[j] = json.dumps({"id": recs[0]["id"], "vector": vec}).encode()
    elif mutation == "non-string-id":
        lines[j] = json.dumps({"id": draw(st.sampled_from([None, 7, 1.5, True, ["a"], {}])), "vector": vec}).encode()
    elif mutation == "mixed":
        lines[j] = with_element(int(vec[k]) if isinstance(vec[k], float) else float(vec[k]))
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))


# a faulty JSONL line and the error that names it, each with its line number as %(i)d
_FAULTS = {
    "invalid-json": ('{"id": "x%(i)d", "vector": [1, 2]', r"record %(i)d: invalid JSON"),
    "non-object": ("[1, 2]", r"record %(i)d: expected object"),
    "bad-vector": ('{"id": "x%(i)d", "vector": [1, "2"]}', r"record %(i)d: 'vector' must be"),
    "ragged": ('{"id": "x%(i)d", "vector": [1, 2, 3]}', r"record %(i)d: dimension 3 != 2"),
    "duplicate-id": ('{"id": "a", "vector": [1, %(i)d]}', r"duplicate id 'a' at record %(i)d$"),
    "zero-vector": ('{"id": "x%(i)d", "vector": [0, 0]}', r"zero vector at record %(i)d$"),
    "float32-overflow": ('{"id": "x%(i)d", "vector": [1e39, 1]}', r"non-finite value at record %(i)d$"),
}


@pytest.fixture(scope="module")
def jsonl_path():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "e.jsonl"


class TestJsonlParity:
    """The loader against the record-by-record oracle above."""

    @settings(max_examples=400, deadline=None)
    @given(data=_jsonl_files())
    def test_matches_reference(self, jsonl_path, data):
        jsonl_path.write_bytes(data)
        _assert_parity(jsonl_path)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("bad", [None, "string", "ragged", "invalid-json", "non-object", "null",
                                     "true", "false", "int-id"])
    def test_chunk_boundaries(self, tmp_path, offset, bad):
        chunk = 1024  # the loader once converted records in chunks of this many
        n = chunk + offset
        rows = [{"id": f"r{i}", "vector": [i + 1, 0.5, -i / 7, 2.0]} for i in range(n)]
        lines = [json.dumps(r) for r in rows]
        j = n - 1  # the last record
        if bad == "string":
            lines[j] = json.dumps({"id": "x", "vector": [1, "2", 3, 4]})
        elif bad == "ragged":
            lines[j] = json.dumps({"id": "x", "vector": [1, 2, 3]})
        elif bad == "invalid-json":
            lines[j] = lines[j][:-1]
        elif bad == "non-object":
            lines[j] = "[1, 2, 3, 4]"
        elif bad == "null":
            lines[j] = json.dumps({"id": "x", "vector": [1, None, 3, 4]})
        elif bad == "true":  # numpy reads the row as int64
            lines[j] = json.dumps({"id": "x", "vector": [1, True, 3, 4]})
        elif bad == "false":  # numpy reads the row as float64
            lines[j] = json.dumps({"id": "x", "vector": [0.5, False, 3, 4]})
        elif bad == "int-id":
            lines[j] = json.dumps({"id": 7, "vector": [1, 2, 3, 4]})
        p = tmp_path / "e.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        _assert_parity(p)
        if bad is None:
            assert load_embeddings(str(p)).n == n
        else:
            with pytest.raises(FormatError, match=f"record {j}:"):
                load_embeddings(str(p))

    @pytest.mark.parametrize("later", ["invalid-json", "non-object", "bad-utf8", "int-id"])
    def test_bad_vector_before_a_worse_line_in_the_same_chunk(self, tmp_path, later):
        chunk = 1024
        lines = [json.dumps({"id": f"r{i}", "vector": [1.0, i]}).encode() for i in range(2 * chunk)]
        lines[chunk + 3] = json.dumps({"id": "x", "vector": [1.0, "2"]}).encode()
        lines[chunk + 5] = {"invalid-json": b"{\"id\": 1, \"vector\": [1, 2]",
                            "non-object": b"[1, 2]", "bad-utf8": b"{\"id\": \"\xff\", \"vector\": [1, 2]}",
                            "int-id": b"{\"id\": 7, \"vector\": [1, 2]}"}[later]
        p = tmp_path / "e.jsonl"
        p.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match=f"record {chunk + 3}: 'vector' must be"):
            load_embeddings(str(p))
        if later != "bad-utf8":  # the oracle dies decoding the file
            _assert_parity(p)

    @pytest.mark.parametrize("first,second", [(a, b) for a in _FAULTS for b in _FAULTS if a != b])
    def test_first_of_two_faults_is_named(self, tmp_path, first, second):
        # blank lines before both faults: each is named by its line, not its row
        lines = ['{"id": "a", "vector": [1, 2]}', "", "  ", _FAULTS[first][0] % {"i": 3},
                 '{"id": "c", "vector": [3, 4]}', "", _FAULTS[second][0] % {"i": 6}]
        p = tmp_path / "e.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=_FAULTS[first][1] % {"i": 3}):
            load_embeddings(str(p))
        _assert_parity(p)

    def test_behaviour_beyond_the_reference(self, tmp_path):
        p = tmp_path / "e.jsonl"
        cases = {
            b'{"id": "a", "vector": [1, 2]}\n{"id": "\xff", "vector": [1, 2]}\n': "record 1: not valid UTF-8",
            b'{"id": "a", "vector": [1, 2]}\n{"id": "b", "vector": [1, 1%s]}\n' % (b"0" * 400):
                "record 1: value out of float64 range",
            b'{"id": "a", "vector": [1, 2]}\n{"id": "b", "vector": [1, 1%s]}\n' % (b"0" * 5000):
                "record 1: invalid JSON",
            b'{"id": "a", "vector": [1, 2]}\n' + b"[" * 100000 + b"\n": "record 1: invalid JSON",
        }
        for data, message in cases.items():
            p.write_bytes(data)
            with pytest.raises(FormatError, match=message):
                load_embeddings(str(p))

    def test_traced_peak_is_a_few_float32_matrices(self, tmp_path):
        # a loader that kept the parsed lists peaked at 12.5x the float32
        # matrix here, one that converted them 1024 records at a time at 4.8x
        n, d = 3 * 1024 + 1, 64
        p = tmp_path / "e.jsonl"
        save_embeddings(generate_synthetic(n, d, 5, 0.5, seed=1), str(p), "jsonl")
        tracemalloc.start()
        try:
            emb = load_embeddings(str(p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emb.vectors.shape == (n, d)
        assert peak <= 6.5 * n * d * 4


class TestRoundTrip:
    def test_binary_bit_identical_100_matrices(self, tmp_path, rng):
        for i in range(100):
            n = int(rng.integers(1, 20))
            d = int(rng.integers(1, 16))
            vecs = rng.normal(size=(n, d)).astype(np.float32)
            vecs[np.linalg.norm(vecs, axis=1) == 0] = 1.0
            emb = EmbeddingMatrix(ids=[f"r{i}-{j}" for j in range(n)], vectors=vecs)
            p = tmp_path / "m.bin"
            save_embeddings(emb, str(p), "binary")
            back = load_embeddings(str(p), "binary")
            assert back.ids == emb.ids
            assert back.vectors.tobytes() == emb.vectors.tobytes()

    def test_jsonl_within_1e9(self, tmp_path, rng):
        emb = generate_synthetic(50, 8, 5, 0.3, seed=2)
        p = tmp_path / "m.jsonl"
        save_embeddings(emb, str(p), "jsonl")
        back = load_embeddings(str(p), "jsonl")
        assert back.ids == emb.ids
        assert np.abs(back.vectors - emb.vectors).max() <= 1e-9

    def test_binary_id_not_utf8(self, tmp_path):
        emb = EmbeddingMatrix(ids=["a", "b", "c"], vectors=np.eye(3))
        p = tmp_path / "m.bin"
        save_embeddings(emb, str(p), "binary")
        data = p.read_bytes()
        p.write_bytes(data[:-1] + b"\xff")
        with pytest.raises(FormatError, match="id of record 2 is not valid UTF-8"):
            load_embeddings(str(p), "binary")

    def test_tiny_rows_are_not_zero(self, tmp_path):
        # their float32 norms underflow to 0, but no entry is 0
        x = np.array([[1e-30, 1e-30], [1e-45, 0], [1, 0]], dtype=np.float32)
        emb = EmbeddingMatrix(ids=["a", "b", "c"], vectors=x)
        p = tmp_path / "m.bin"
        save_embeddings(emb, str(p), "binary")
        back = load_embeddings(str(p), "binary")
        assert back.vectors.tobytes() == x.tobytes()
        assert build_knn_graph(back, 1).edge_list().tolist() == [[0, 1, 1], [1, 2, 1]]
        with pytest.raises(FormatError, match="zero vector at record 1"):
            EmbeddingMatrix(ids=["a", "b"], vectors=[[1e-30, 0], [-0.0, 0]])

    def test_binary_load_keeps_one_copy(self, tmp_path):
        n, d = 2000, 64
        p = tmp_path / "m.bin"
        save_embeddings(generate_synthetic(n, d, 5, 0.5, seed=1), str(p), "binary")
        tracemalloc.start()
        try:
            emb = load_embeddings(str(p), "binary")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not emb.vectors.flags.writeable
        # the file's bytes, the ids and boolean temporaries: below one more
        # float32 matrix, which a copy of the rows or float32 norms would take
        assert peak < p.stat().st_size + n * d * 4

    def test_binary_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "m.bin"
        save_embeddings(generate_synthetic(50, 4, 5, 0.5, seed=1), str(p), "binary")
        size = p.stat().st_size
        p.write_bytes(p.read_bytes() + b"garbage")
        with pytest.raises(FormatError, match=f"7 bytes after the last id, at offset {size}"):
            load_embeddings(str(p), "binary")

    def test_binary_header_checked(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_embeddings(str(p), "binary")
        # a pool of no rows or no columns is named before any array is built
        for n, d in ((2**64 - 1, 0), (0, 4), (0, 0)):
            p.write_bytes(b"FGEM" + struct.pack("<IQI", 1, n, d))
            with pytest.raises(FormatError, match=f"m.bin: header gives N={n} d={d}"):
                load_embeddings(str(p), "binary")


class TestCosine:
    def test_identical_direction(self):
        assert cosine_similarity([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_analytic(self):
        assert cosine_similarity([1, 1], [1, 0]) == pytest.approx(1 / math.sqrt(2))

    def test_zero_vector(self):
        with pytest.raises(FormatError, match="cosine similarity undefined for zero vectors"):
            cosine_similarity([0, 0], [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameter, match=r"dim \(2,\) != \(3,\)"):
            cosine_similarity([1, 0], [1, 0, 0])

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
    )
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, u, v):
        d = min(len(u), len(v))
        u, v = u[:d], v[:d]
        if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
            return
        a = cosine_similarity(u, v)
        assert a == cosine_similarity(v, u)
        assert -1.0 <= a <= 1.0

    @given(
        # keep components out of the denormal range where squaring underflows
        st.lists(st.floats(-100, 100).map(lambda x: 0.0 if abs(x) < 1e-6 else x),
                 min_size=3, max_size=3),
        st.floats(0.001, 1000),
    )
    @settings(max_examples=200)
    def test_scale_invariance(self, u, alpha):
        if np.linalg.norm(u) == 0:
            return
        v = [1.0, 2.0, -0.5]
        assert abs(cosine_similarity([alpha * x for x in u], v) - cosine_similarity(u, v)) <= 1e-12


class TestSynthetic:
    def test_degenerate_spread(self):
        emb = generate_synthetic(4, 3, 1, 1e-12, seed=0)
        assert np.abs(emb.vectors - emb.vectors[0]).max() < 1e-6

    def test_deterministic(self):
        a = generate_synthetic(30, 5, 3, 0.2, seed=11)
        b = generate_synthetic(30, 5, 3, 0.2, seed=11)
        assert a.ids == b.ids
        assert a.vectors.tobytes() == b.vectors.tobytes()

    def test_ids(self):
        emb = generate_synthetic(3, 2, 1, 0.1, seed=0)
        assert emb.ids == ["syn-0", "syn-1", "syn-2"]

    @pytest.mark.parametrize("n,d,c,s", [(2, 3, 3, 0.1), (5, 0, 2, 0.1), (5, 3, 2, 0.0), (5, 3, 0, 0.1)])
    def test_bad_parameters(self, n, d, c, s):
        with pytest.raises(InvalidParameter):
            generate_synthetic(n, d, c, s, seed=0)

    def test_kmeans_recovers_planted_clusters(self):
        from scipy.optimize import linear_sum_assignment

        emb = generate_synthetic(3000, 768, 10, 0.1, seed=7)
        planted = synthetic_labels(3000, 10)
        labels, _ = lloyd_kmeans(emb.vectors.astype(np.float64), 10, np.random.default_rng(7))
        # optimal relabeling via assignment on the confusion matrix
        conf = np.zeros((10, 10), dtype=np.int64)
        np.add.at(conf, (planted, labels), 1)
        rows, cols = linear_sum_assignment(-conf)
        agreement = conf[rows, cols].sum() / 3000
        assert agreement >= 0.99
