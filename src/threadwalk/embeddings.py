"""Comment embeddings.

Two providers satisfy the same contract (one matrix row, of a fixed width,
for each of a list of comments): a built-in hashed bag-of-words
embedder and a loader for externally computed sentence embeddings, which
lets precomputed transformer vectors plug into the pipeline unchanged.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from pathlib import Path
from typing import Iterator, NoReturn, Protocol, Sequence

import numpy as np

from .corpus import text_lines, write_lines
from .errors import DimensionMismatchError, MalformedFileError, MissingEmbeddingError, quote
from .tree import CommentNode

DEFAULT_BOW_DIM = 256

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def _token_hash(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def hashed_bow_matrix(
    texts: Sequence[str], d: int = DEFAULT_BOW_DIM, normalize: bool = False
) -> np.ndarray:
    """Feature-hash the unigram counts of each text into ``d`` signed
    buckets: one row per text, shape ``(len(texts), d)``.

    Deterministic across runs and platforms; an empty text maps to the zero
    row (also after normalization). Each distinct token is hashed once per
    call. The counts and their squared norms are small integers, so they sum
    exactly in any order: a row has the same bits whatever texts share the
    call.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    codes: dict[str, int] = {}  # token -> 2 * bucket, plus 1 if its sign is negative

    def token_codes() -> Iterator[int]:
        for row, text in enumerate(texts):
            for token in tokenize(text):
                code = codes.get(token)
                if code is None:
                    h = _token_hash(token)
                    code = codes[token] = 2 * (h % d) + (h >> 63)
                yield 2 * d * row + code

    flat = np.fromiter(token_codes(), dtype=np.int64)  # 2 * (row * d + bucket) + sign bit
    # bincount of no tokens returns int64 zeros, hence the cast
    counts = np.bincount(flat >> 1, weights=1.0 - 2.0 * (flat & 1), minlength=len(texts) * d)
    matrix = counts.astype(np.float64, copy=False).reshape(len(texts), d)
    if normalize:
        norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
        matrix /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return matrix


def hashed_bow_embed(text: str, d: int = DEFAULT_BOW_DIM, normalize: bool = False) -> np.ndarray:
    """The :func:`hashed_bow_matrix` row of one text, shape ``(d,)``."""
    return hashed_bow_matrix([text], d, normalize)[0]


class EmbeddingProvider(Protocol):
    """Fixed-dimension vectors for the comments of a corpus."""

    def vectors(self, nodes: Sequence[CommentNode]) -> np.ndarray:
        """One row per node, shape ``(len(nodes), d)`` with ``d`` fixed by the provider."""
        ...


class HashedBowProvider:
    """Embeds comments by their text via the hashing trick. Nothing is
    cached: featurization embeds each corpus side once."""

    def __init__(self, dimension: int = DEFAULT_BOW_DIM, normalize: bool = True) -> None:
        self.dimension = dimension
        self.normalize = normalize

    def vectors(self, nodes: Sequence[CommentNode]) -> np.ndarray:
        texts = [node.text for node in nodes]
        return hashed_bow_matrix(texts, self.dimension, normalize=self.normalize)

    def vector_for(self, node: CommentNode) -> np.ndarray:
        return self.vectors([node])[0]


class ExternalEmbeddingProvider:
    """Embeddings resolved by node id from a loaded table: one read-only
    ``(n, d)`` matrix and the row of each node id."""

    def __init__(self, rows: dict[str, int], matrix: np.ndarray) -> None:
        self._rows = rows
        self._matrix = matrix

    def vectors(self, nodes: Sequence[CommentNode]) -> np.ndarray:
        """The rows of ``nodes``; MissingEmbeddingError names the first node
        without one, before anything is allocated."""
        try:
            rows = [self._rows[node.id] for node in nodes]
        except KeyError as exc:
            raise MissingEmbeddingError(f"no embedding for node id {exc.args[0]!r}") from None
        return self._matrix[np.array(rows, dtype=np.intp)]

    def vector_for(self, node: CommentNode) -> np.ndarray:
        return self.vectors([node])[0]


def load_external_embeddings(path: str | Path) -> ExternalEmbeddingProvider:
    """Load an embedding file.

    Format: first line ``d=<int>``, then one ``<node_id> v1 ... vd`` row
    per comment, fields split on whitespace; blank lines are skipped.
    Values are decimal floats as numpy reads them (``1.5``, ``-2e-3``; not
    ``1_0``) and must be finite. Node ids are treated as corpus-unique. A
    bad file raises for its first bad line.
    """
    path = Path(path)
    lines = text_lines(path)
    header = next(lines, "").strip()
    try:
        if not header.startswith("d=") or not header[2:].isdecimal():
            raise ValueError
        dim = int(header[2:])  # ValueError past the interpreter's digit limit
    except ValueError:
        message = f"first line must be 'd=<int>', got {quote(header)}"
        raise MalformedFileError(f"{path}: {message}") from None
    if dim < 1:
        raise MalformedFileError(f"{path}: dimension must be >= 1, got {dim}")
    rows: dict[str, int] = {}

    def value_texts() -> Iterator[str]:
        for line in lines:
            parts = line.split(None, 1)
            if not parts:
                continue
            if len(parts) == 1 or parts[0] in rows:
                raise ValueError("an id without values, or a repeated id")
            rows[parts[0]] = len(rows)
            yield parts[1]

    # The table is parsed in one call over lazily read lines. The first
    # line is taken apart, so that a table without rows reads as (0, d)
    # without numpy's empty-input warning.
    texts = value_texts()
    try:
        first = next(texts, None)
        matrix = (
            np.empty((0, dim))
            if first is None
            else np.loadtxt(
                itertools.chain([first], texts), dtype=np.float64, comments=None, ndmin=2
            )
        )
    except ValueError:
        _raise_first_fault(path, dim)
    if matrix.shape != (len(rows), dim) or not np.isfinite(matrix).all():
        _raise_first_fault(path, dim)
    matrix.setflags(write=False)
    return ExternalEmbeddingProvider(rows, matrix)


def _raise_first_fault(path: Path, dim: int) -> NoReturn:
    """Raise for the first bad line of an embedding file that failed to load."""
    seen: set[str] = set()
    for lineno, line in enumerate(itertools.islice(text_lines(path), 1, None), start=2):
        parts = line.split(None, 1)
        if not parts:
            continue
        node_id, values = parts[0], parts[1:]
        if node_id in seen:
            raise MalformedFileError(f"{path}:{lineno}: duplicate id {node_id!r}")
        seen.add(node_id)
        count = len(values[0].split()) if values else 0
        if count != dim:
            raise DimensionMismatchError(f"{path}:{lineno}: expected {dim} values, got {count}")
        try:
            vec = np.loadtxt(values, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            raise MalformedFileError(f"{path}:{lineno}: non-numeric value") from None
        if not np.isfinite(vec).all():
            raise MalformedFileError(f"{path}:{lineno}: non-finite value")
    raise MalformedFileError(f"{path}: unreadable embedding table")


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
