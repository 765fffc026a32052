"""Embedding matrix I/O, validation, synthesis, and cosine similarity."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvalidParameter

_MAGIC = b"FGEM"
_VERSION = 1


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
        fault = _first_bad_row(self.ids, vecs)
        if fault:
            raise FormatError(f"{fault[1]} at record {fault[0]}")
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


def _first_bad_row(ids: list[str], vecs: np.ndarray) -> tuple[int, str] | None:
    """The first row with a repeated id, a non-finite value or no nonzero
    value, and its fault; None if there is none."""
    first: dict[str, int] = {}
    faults = [] if len(set(ids)) == len(ids) else [
        next((i, f"duplicate id {x!r}") for i, x in enumerate(ids) if first.setdefault(x, i) != i)]
    # row extremes take no n x d temporary: a row is finite iff both are
    # (max and min propagate NaN), and zero iff both are 0
    top, bottom = vecs.max(axis=1), vecs.min(axis=1)
    for bad, what in ((~(np.isfinite(top) & np.isfinite(bottom)), "non-finite value"),
                      ((top == 0) & (bottom == 0), "zero vector")):
        if bad.any():
            faults.append((int(bad.argmax()), what))
    return min(faults, key=lambda f: f[0], default=None)


def _load_jsonl(path: str) -> EmbeddingMatrix:
    """Parse each line into a float32 row before reading the next, checking a
    vector value by value unless numpy reads it as a numeric row as wide as
    the first and its line holds no `true` or `false` (numpy reads true as 1)."""
    first: dict[str, int] = {}  # each id and its line
    rows: list[np.ndarray] = []
    # surrogateescape keeps a bad byte on its line; a float32 overflow becomes inf
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f, np.errstate(over="ignore"):
        try:
            for i, line in enumerate(f):
                if not line.strip():
                    continue
                try:
                    if not line.isascii():
                        line.encode("utf-8")
                    obj = json.loads(line)
                except UnicodeEncodeError as e:
                    raise FormatError(f"record {i}: not valid UTF-8") from e
                except (ValueError, RecursionError) as e:
                    raise FormatError(f"record {i}: invalid JSON ({e})") from e
                if not isinstance(obj, dict) or "id" not in obj or "vector" not in obj:
                    raise FormatError(f"record {i}: expected object with 'id' and 'vector'")
                if not isinstance(obj["id"], str):
                    raise FormatError(f"record {i}: 'id' must be a string")
                vec = obj["vector"]
                try:
                    row = np.array(vec)
                except ValueError:  # ragged or nested
                    row = None
                shape = rows[0].shape if rows else None
                if (row is None or row.shape != shape or row.dtype.kind not in "iuf"
                        or ("u" in line or "f" in line) and ("true" in line or "false" in line)):
                    if not isinstance(vec, list) or not vec or not all(type(x) in (int, float) for x in vec):
                        raise FormatError(f"record {i}: 'vector' must be a non-empty array of numbers")
                    if shape and len(vec) != shape[0]:
                        raise FormatError(f"record {i}: dimension {len(vec)} != {shape[0]}")
                    try:
                        row = np.asarray(vec, dtype=np.float64)
                    except OverflowError as e:  # an integer beyond the float64 range
                        raise FormatError(f"record {i}: value out of float64 range") from e
                if first.setdefault(obj["id"], i) != i:
                    raise FormatError(f"duplicate id {obj['id']!r} at record {i}")
                # through float64, so integers round exactly as float64(x) would
                rows.append(row.astype(np.float64, copy=False).astype(np.float32))
        except FormatError:
            if rows:  # a value fault on an earlier line is the first fault
                _matrix(first, rows)
            raise
    if not rows:
        raise FormatError(f"{path}: no records")
    return _matrix(first, rows)


def _matrix(first: dict[str, int], rows: list[np.ndarray]) -> EmbeddingMatrix:
    try:
        return EmbeddingMatrix(ids=list(first), vectors=np.stack(rows))
    except FormatError:  # a value fault, which EmbeddingMatrix names by its row
        row, what = _first_bad_row(list(first), np.stack(rows))
        raise FormatError(f"{what} at record {list(first.values())[row]}") from None


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
