"""Embedding matrix I/O, validation, synthesis, and cosine similarity."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvalidParameter

_MAGIC = b"FGEM"
_VERSION = 1
# JSONL records parsed before their vectors become one float32 block.
_JSONL_CHUNK = 1024


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Immutable pool of N instance vectors of dimension d with stable ids.

    Vectors are held as float32 row-major; the binary on-disk format is
    float32, so a save/load round trip is bit-exact.
    """

    ids: list[str]
    vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        with np.errstate(over="ignore"):  # a value beyond float32 becomes inf, named below
            vecs = np.asarray(self.vectors, dtype=np.float32)
        if vecs.ndim != 2 or vecs.shape[0] < 1 or vecs.shape[1] < 1:
            raise FormatError(f"expected a non-empty 2-D matrix, got shape {vecs.shape}")
        if len(self.ids) != vecs.shape[0]:
            raise FormatError(f"{len(self.ids)} ids for {vecs.shape[0]} rows")
        if len(set(self.ids)) != len(self.ids):
            seen = set()
            for i, x in enumerate(self.ids):
                if x in seen:
                    raise FormatError(f"duplicate id {x!r} at record {i}")
                seen.add(x)
        # row extremes take no n x d temporary: a row is finite iff both are
        # (max and min propagate NaN), and zero iff both are 0
        top, bottom = vecs.max(axis=1), vecs.min(axis=1)
        bad = np.flatnonzero(~(np.isfinite(top) & np.isfinite(bottom)))
        if bad.size:
            raise FormatError(f"non-finite value at record {bad[0]}")
        zero = np.flatnonzero((top == 0) & (bottom == 0))
        if zero.size:
            raise FormatError(f"zero vector at record {zero[0]}")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def load_embeddings(path: str, format: str = "jsonl") -> EmbeddingMatrix:
    """Load an embedding matrix from ``path`` in jsonl or binary format."""
    if format == "jsonl":
        return _load_jsonl(path)
    if format == "binary":
        return _load_binary(path)
    raise InvalidParameter(f"unknown format {format!r}")


def save_embeddings(emb: EmbeddingMatrix, path: str, format: str = "jsonl") -> None:
    if format == "jsonl":
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            for i in range(emb.n):
                row = [float(x) for x in emb.vectors[i]]
                f.write(json.dumps({"id": emb.ids[i], "vector": row}) + "\n")
    elif format == "binary":
        with open(path, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<IQI", _VERSION, emb.n, emb.dim))
            f.write(np.ascontiguousarray(emb.vectors, dtype="<f4").tobytes())
            for ident in emb.ids:
                raw = ident.encode("utf-8")
                if len(raw) > 0xFFFF:
                    raise FormatError(f"id too long ({len(raw)} bytes): {ident[:32]!r}...")
                f.write(struct.pack("<H", len(raw)))
                f.write(raw)
    else:
        raise InvalidParameter(f"unknown format {format!r}")


def _load_jsonl(path: str) -> EmbeddingMatrix:
    """Parse one JSON object per line into float32 rows, `_JSONL_CHUNK` at a time.

    A chunk whose vectors numpy reads as one 2-D numeric array of the file's
    width skips the per-record checks, unless a line of it holds a `u` or an
    `f`, as `true` and `false` do: numpy reads [1, true] as a number. Any
    other chunk, and the records before a line that fails, are checked
    record by record, so the first bad record in file order is the one named.
    """
    ids: list[str] = []
    blocks: list[np.ndarray] = []
    pending: list[tuple[int, object]] = []  # (line number, vector) not yet converted
    dim = None
    maybe_bool = False  # a pending line might hold true or false
    # surrogateescape keeps a bad byte on its line, where it can be named
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for i, line in enumerate(f):
            if not line.strip():
                continue
            try:
                if not line.isascii():
                    line.encode("utf-8")
                obj = json.loads(line)
            except UnicodeEncodeError as e:
                _check_records(pending, dim)
                raise FormatError(f"record {i}: not valid UTF-8") from e
            except (ValueError, RecursionError) as e:
                _check_records(pending, dim)
                raise FormatError(f"record {i}: invalid JSON ({e})") from e
            if not isinstance(obj, dict) or "id" not in obj or "vector" not in obj:
                _check_records(pending, dim)
                raise FormatError(f"record {i}: expected object with 'id' and 'vector'")
            if not isinstance(obj["id"], str):
                _check_records(pending, dim)
                raise FormatError(f"record {i}: 'id' must be a string")
            ids.append(obj["id"])
            pending.append((i, obj["vector"]))
            maybe_bool = maybe_bool or "u" in line or "f" in line
            if len(pending) == _JSONL_CHUNK:
                dim = _convert_records(pending, dim, blocks, maybe_bool)
                maybe_bool = False
        if pending:
            _convert_records(pending, dim, blocks, maybe_bool)
    if not blocks:
        raise FormatError(f"{path}: no records")
    vectors = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    blocks.clear()  # before EmbeddingMatrix's checks allocate their temporaries
    return EmbeddingMatrix(ids=ids, vectors=vectors)


def _check_records(pending: list, dim: int | None) -> int | None:
    """The per-record vector checks; raises at the first bad record, else returns the width."""
    for i, vec in pending:
        if not isinstance(vec, list) or not all(type(x) in (int, float) for x in vec):
            raise FormatError(f"record {i}: 'vector' must be an array of numbers")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise FormatError(f"record {i}: dimension {len(vec)} != {dim}")
    return dim


def _convert_records(pending: list, dim: int | None, blocks: list, maybe_bool: bool) -> int:
    """Append the pending vectors to `blocks` as one float32 block; returns
    the width. `maybe_bool` sends them through the per-record checks."""
    rows = [vec for _, vec in pending]
    try:
        arr = np.array(rows)
    except ValueError:  # ragged or nested
        arr = None
    if (maybe_bool or arr is None or arr.ndim != 2 or arr.dtype.kind not in "iuf"
            or dim is not None and arr.shape[1] != dim):
        dim = _check_records(pending, dim)
        try:
            arr = np.asarray(rows, dtype=np.float64)
        except OverflowError:  # an integer beyond the float64 range
            for i, vec in pending:
                try:
                    np.asarray(vec, dtype=np.float64)
                except OverflowError as e:
                    raise FormatError(f"record {i}: value out of float64 range") from e
            raise
    pending.clear()
    # through float64, so integers round exactly as float64(x) would; a value
    # beyond float32 becomes inf, which EmbeddingMatrix names
    with np.errstate(over="ignore"):
        blocks.append(arr.astype(np.float64, copy=False).astype(np.float32))
    return arr.shape[1]


def _load_binary(path: str) -> EmbeddingMatrix:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != _MAGIC:
        raise FormatError(f"{path}: bad magic bytes")
    try:
        version, n, dim = struct.unpack_from("<IQI", data, 4)
    except struct.error as e:
        raise FormatError(f"{path}: truncated header") from e
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if n < 1 or dim < 1:
        raise FormatError(f"{path}: header gives N={n} d={dim}; a pool needs N >= 1 and d >= 1")
    off = 4 + 16
    need = n * dim * 4
    if len(data) < off + need:
        raise FormatError(f"{path}: truncated vector block")
    vecs = np.frombuffer(data, dtype="<f4", count=n * dim, offset=off).reshape(n, dim)
    off += need
    ids = []
    for i in range(n):
        if len(data) < off + 2:
            raise FormatError(f"{path}: truncated id block at record {i}")
        (ln,) = struct.unpack_from("<H", data, off)
        off += 2
        if len(data) < off + ln:
            raise FormatError(f"{path}: truncated id at record {i}")
        try:
            ids.append(data[off : off + ln].decode("utf-8"))
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: id of record {i} is not valid UTF-8") from e
        off += ln
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} bytes after the last id, at offset {off}")
    return EmbeddingMatrix(ids=ids, vectors=vecs)  # a read-only view of `data`


def generate_synthetic(n: int, d: int, clusters: int, spread: float, seed: int) -> EmbeddingMatrix:
    """Draw n points from `clusters` isotropic Gaussians with unit-separated
    means, assigned round-robin (point i belongs to component i % clusters).

    `spread` is the scale of a point's total deviation from its component
    mean (per-coordinate sigma is spread/sqrt(d)), so planted structure has
    the same geometry at any dimension.
    """
    if not (n >= clusters >= 1) or d < 1:
        raise InvalidParameter(f"need n >= clusters >= 1 and d >= 1, got n={n} clusters={clusters} d={d}")
    if not spread > 0:
        raise InvalidParameter(f"spread must be positive, got {spread}")
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    means = np.zeros((clusters, d), dtype=np.float64)
    for c in range(clusters):
        # axis-aligned means, pairwise distance >= 1, never at the origin
        means[c, c % d] = (1.0 + 2.0 * (c // d)) / np.sqrt(2.0)
    labels = np.arange(n) % clusters
    vecs = means[labels] + rng.normal(0.0, spread / np.sqrt(d), size=(n, d))
    return EmbeddingMatrix(ids=[f"syn-{i}" for i in range(n)], vectors=vecs)


def synthetic_labels(n: int, clusters: int) -> np.ndarray:
    """Planted component labels matching generate_synthetic's round-robin rule."""
    return np.arange(n) % clusters


def cosine_similarity(u, v) -> float:
    """dot(u,v) / (|u||v|), clamped to [-1, 1] against rounding."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise InvalidParameter(f"dim {u.shape} != {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise FormatError("cosine similarity undefined for zero vectors")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))
