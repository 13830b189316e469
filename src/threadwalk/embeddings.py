"""Comment embeddings.

Two providers satisfy the same contract (a fixed dimension and a vector
for every comment): a built-in hashed bag-of-words embedder and a loader
for externally computed sentence embeddings, which lets precomputed
transformer vectors plug into the pipeline unchanged.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from pathlib import Path
from typing import Protocol

import numpy as np

from .corpus import text_lines, write_lines
from .errors import DimensionMismatchError, MalformedFileError, MissingEmbeddingError
from .tree import CommentNode

DEFAULT_BOW_DIM = 256

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def _token_hash(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def hashed_bow_embed(text: str, d: int = DEFAULT_BOW_DIM, normalize: bool = False) -> np.ndarray:
    """Feature-hash unigram counts into ``d`` signed buckets.

    Deterministic across runs and platforms; empty text maps to the zero
    vector (also after normalization).
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    vec = np.zeros(d, dtype=np.float64)
    for token in tokenize(text):
        h = _token_hash(token)
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        vec[h % d] += sign
    if normalize:
        norm = math.sqrt(float(vec @ vec))
        if norm > 0.0:
            vec /= norm
    return vec


class EmbeddingProvider(Protocol):
    """Fixed-dimension vectors for every comment of a corpus."""

    @property
    def dimension(self) -> int: ...

    def vector_for(self, node: CommentNode) -> np.ndarray: ...


class HashedBowProvider:
    """Embeds comments by their text via the hashing trick.

    Vectors are cached per distinct text; the cache is read-only after a
    text has been seen, so concurrent lookups are safe in practice.
    """

    def __init__(self, dimension: int = DEFAULT_BOW_DIM, normalize: bool = True) -> None:
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self._dimension = dimension
        self.normalize = normalize
        self._cache: dict[str, np.ndarray] = {}

    @property
    def dimension(self) -> int:
        return self._dimension

    def vector_for(self, node: CommentNode) -> np.ndarray:
        cached = self._cache.get(node.text)
        if cached is None:
            cached = hashed_bow_embed(node.text, self._dimension, normalize=self.normalize)
            cached.setflags(write=False)
            self._cache[node.text] = cached
        return cached


class ExternalEmbeddingProvider:
    """Embeddings resolved by node id from a loaded table."""

    def __init__(self, vectors: dict[str, np.ndarray], dimension: int) -> None:
        self._vectors = vectors
        self._dimension = dimension

    @property
    def dimension(self) -> int:
        return self._dimension

    def vector_for(self, node: CommentNode) -> np.ndarray:
        vec = self._vectors.get(node.id)
        if vec is None:
            raise MissingEmbeddingError(f"no embedding for node id {node.id!r}")
        return vec

    def __len__(self) -> int:
        return len(self._vectors)


def load_external_embeddings(path: str | Path) -> ExternalEmbeddingProvider:
    """Load an embedding file.

    Format: first line ``d=<int>``, then one ``<node_id> v1 ... vd`` row
    per comment. Node ids are treated as corpus-unique.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    lines = text_lines(path)
    header = next(lines, "").strip()
    if not header.startswith("d=") or not header[2:].isdecimal():
        raise MalformedFileError(f"{path}: first line must be 'd=<int>', got {header!r}")
    dim = int(header[2:])
    if dim < 1:
        raise MalformedFileError(f"{path}: dimension must be >= 1, got {dim}")
    for lineno, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        node_id, raw_values = parts[0], parts[1:]
        if node_id in vectors:
            raise MalformedFileError(f"{path}:{lineno}: duplicate id {node_id!r}")
        if len(raw_values) != dim:
            raise DimensionMismatchError(
                f"{path}:{lineno}: expected {dim} values, got {len(raw_values)}"
            )
        try:
            vec = np.array([float(v) for v in raw_values], dtype=np.float64)
        except ValueError:
            raise MalformedFileError(f"{path}:{lineno}: non-numeric value") from None
        if not np.all(np.isfinite(vec)):
            raise MalformedFileError(f"{path}:{lineno}: non-finite value")
        vec.setflags(write=False)
        vectors[node_id] = vec
    return ExternalEmbeddingProvider(vectors, dim)


def save_external_embeddings(vectors: dict[str, np.ndarray], path: str | Path) -> None:
    """Write an embedding table in the format read back by the loader."""
    dims = {np.asarray(v).shape[0] for v in vectors.values()}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed dimensions in embedding table: {sorted(dims)}")
    dim = dims.pop() if dims else 0
    rows = (
        f"{node_id} {' '.join(repr(float(x)) for x in np.asarray(vec))}\n"
        for node_id, vec in vectors.items()
    )
    write_lines(path, itertools.chain([f"d={dim}\n"], rows))
