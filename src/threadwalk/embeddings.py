"""Comment embeddings.

Two providers satisfy the same contract (one row of a fixed width for each
of a list of comments, as exact values and a divisor): a built-in hashed
bag-of-words embedder and a loader for externally computed sentence
embeddings, which lets precomputed transformer vectors plug into the
pipeline unchanged.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import os
import re
import stat
import zlib
from array import array
from pathlib import Path
from typing import BinaryIO, Iterator, NoReturn, Protocol, Sequence

import numpy as np

from .corpus import text_lines, write_bytes, write_lines
from .errors import (
    DimensionMismatchError,
    MalformedFileError,
    MissingEmbeddingError,
    cut_path,
    quote,
)
from .tree import CommentNode

DEFAULT_BOW_DIM = 256
_BLOCK_CELLS = 1 << 20  # float64 counts held at once by hashed_bow_rows: 8 MiB
# Tokens counted at once: their codes, buckets and signed weights take 8 MiB.
_BLOCK_TOKENS = _BLOCK_CELLS // 4

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The largest |value| of an embedding table: u * v, |u - v| and the sum of a
# walk's context rows (at most pipeline.MAX_WALK_LENGTH - 1) stay finite.
MAX_EMBEDDING_VALUE = 1e150


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def hashed_bow_rows(
    texts: Sequence[str], d: int = DEFAULT_BOW_DIM, normalize: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Feature-hash the unigram counts of each text into ``d`` signed
    buckets, one row per text, shape ``(len(texts), d)``, in the narrowest
    signed integer dtype that holds them; and one divisor per row, its norm
    under ``normalize`` and otherwise (or for an empty text) 1.0.

    Deterministic across runs and platforms. Each distinct token is hashed
    once per call. The counts and their squared norms are small integers,
    so they sum exactly in any order: a row has the same bits whatever
    texts share the call.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    codes: dict[str, int] = {}  # token -> 2 * bucket, plus 1 if its sign is negative
    step = max(1, _BLOCK_CELLS // d)

    def blocks() -> Iterator[tuple[int, int, array]]:
        """Each block's rows and their tokens' codes ``2 * (row * d + bucket)
        + sign``: at most ``step`` rows and, unless one text alone has more,
        _BLOCK_TOKENS tokens."""
        start, flat = 0, array("q")
        for row, text in enumerate(texts):
            tokens = tokenize(text)
            if row - start == step or (flat and len(flat) + len(tokens) > _BLOCK_TOKENS):
                yield start, row, flat
                start, flat = row, array("q")
            for token in tokens:
                code = codes.get(token)
                if code is None:
                    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
                    h = int.from_bytes(digest, "little")
                    code = codes[token] = 2 * (h % d) + (h >> 63)
                flat.append(2 * d * (row - start) + code)
        yield start, len(texts), flat

    # Rows are counted a block at a time, so the float64 counts take at
    # most _BLOCK_CELLS cells; the result widens when a block needs it.
    values = np.empty((len(texts), d), dtype=np.int8)
    divisors = np.empty(len(texts))
    low = high = 0.0
    for start, stop, block in blocks():
        flat = np.frombuffer(block, dtype=np.int64)
        # bincount of no tokens returns int64 zeros, hence the cast
        counts = np.bincount(flat >> 1, weights=1.0 - 2.0 * (flat & 1), minlength=(stop - start) * d)
        counts = counts.astype(np.float64, copy=False).reshape(stop - start, d)
        norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
        divisors[start:stop] = np.where(normalize & (norms > 0.0), norms, 1.0)
        low, high = min(low, counts.min(initial=0.0)), max(high, counts.max(initial=0.0))
        limits = map(np.iinfo, (np.int8, np.int16, np.int32, np.int64))
        dtype = next(t.dtype for t in limits if t.min <= low and high <= t.max)
        values = values.astype(dtype, copy=False)
        values[start:stop] = counts
    return values, divisors


def hashed_bow_embed(text: str, d: int = DEFAULT_BOW_DIM, normalize: bool = False) -> np.ndarray:
    """The :func:`hashed_bow_rows` row of one text divided out, shape ``(d,)``."""
    # perfbench/inputs.py writes its table with this; one divisor broadcasts over one row.
    return np.divide(*hashed_bow_rows([text], d, normalize))[0]


class EmbeddingProvider(Protocol):
    """Fixed-dimension vectors for the comments of a corpus."""

    def scaled_rows(self, nodes: Sequence[CommentNode]) -> tuple[np.ndarray, np.ndarray]:
        """One row of exact values per node, shape ``(len(nodes), d)`` with
        ``d`` fixed by the provider, in the narrowest dtype that holds them,
        and the float64 divisor of each: node ``i`` is ``values[i] / divisors[i]``."""
        ...


class HashedBowProvider:
    """Embeds comments by their text via the hashing trick. Nothing is
    cached: featurization embeds each corpus side once."""

    def __init__(self, dimension: int = DEFAULT_BOW_DIM, normalize: bool = True) -> None:
        self.dimension = dimension
        self.normalize = normalize

    def scaled_rows(self, nodes: Sequence[CommentNode]) -> tuple[np.ndarray, np.ndarray]:
        """The signed counts and divisors of :func:`hashed_bow_rows`."""
        return hashed_bow_rows([node.text for node in nodes], self.dimension, self.normalize)

    def vector_for(self, node: CommentNode) -> np.ndarray:
        # Timed by perfbench/tracer.py TARGETS; nothing in the package calls it.
        return np.divide(*self.scaled_rows([node]))[0]


class ExternalEmbeddingProvider:
    """Embeddings resolved by node id from a loaded table: one read-only
    ``(n, d)`` matrix and the row of each node id."""

    def __init__(self, rows: dict[str, int], matrix: np.ndarray) -> None:
        self._rows = rows
        self._matrix = matrix

    def scaled_rows(self, nodes: Sequence[CommentNode]) -> tuple[np.ndarray, np.ndarray]:
        """The float64 rows of ``nodes``, each with a divisor of 1.0;
        MissingEmbeddingError names the first node without one, before any allocation."""
        try:
            rows = [self._rows[node.id] for node in nodes]
        except KeyError as exc:
            raise MissingEmbeddingError(f"no embedding for node id {quote(exc.args[0])}") from None
        return self._matrix[np.array(rows, dtype=np.intp)], np.ones(len(nodes))

    def vector_for(self, node: CommentNode) -> np.ndarray:
        # Timed by perfbench/tracer.py TARGETS; nothing in the package calls it.
        return np.divide(*self.scaled_rows([node]))[0]


def load_external_embeddings(path: str | Path) -> ExternalEmbeddingProvider:
    """Load an embedding file.

    Format: first line ``d=<int>``, then one ``<node_id> v1 ... vd`` row
    per comment, fields split on whitespace; blank lines are skipped.
    Values are decimal floats as numpy reads them (``1.5``, ``-2e-3``; not
    ``1_0``) within +-MAX_EMBEDDING_VALUE. Node ids are treated as
    corpus-unique. A bad file raises for its first bad line.

    Each regular file's bytes are parsed once: a parse leaves a sidecar,
    ``.<name>.threadwalk-cache`` beside the file, and a later load of bytes
    with the sha256 it records reads the ids and rows from it instead. The
    sidecar only caches: a load that cannot use it, read it or write it
    parses, and a parse that fails writes none. Any other file, such as a
    named pipe, is read once, into memory, and parsed every time.
    """
    path = Path(path)
    sidecar = path.with_name(f".{path.name}{_CACHE_SUFFIX}")
    with path.open("rb", buffering=0) as file:
        info = os.fstat(file.fileno())
        regular = stat.S_ISREG(info.st_mode)
        source = file if regular else io.BytesIO(file.readall())
        if regular:
            cached = _read_cache(sidecar, _HashingReader(source), info)
            if cached is not None:
                return ExternalEmbeddingProvider(*cached)
            source.seek(0)
        hashing = _HashingReader(source)
        rows, matrix = _parse_table(path, text_lines(path, io.BufferedReader(hashing)), source)
    if regular:
        _write_cache(sidecar, hashing, rows, matrix)
    return ExternalEmbeddingProvider(rows, matrix)


def _parse_table(
    path: Path, lines: Iterator[str], source: BinaryIO
) -> tuple[dict[str, int], np.ndarray]:
    """The row of each id and the read-only ``(n, d)`` matrix of the
    embedding file ``path``, whose ``lines`` are read from ``source``."""
    where = cut_path(path)
    header = next(lines, "").strip()
    try:
        if not header.startswith("d=") or not header[2:].isdecimal():
            raise ValueError
        dim = int(header[2:])  # ValueError past the interpreter's digit limit
    except ValueError:
        message = f"first line must be 'd=<int>', got {quote(header)}"
        raise MalformedFileError(f"{where}: {message}") from None
    if dim < 1:
        raise MalformedFileError(f"{where}: dimension must be >= 1, got {dim}")
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
        _raise_first_fault(path, source, dim)
    if matrix.shape != (len(rows), dim) or _value_fault(matrix):
        _raise_first_fault(path, source, dim)
    matrix.setflags(write=False)
    return rows, matrix


# The sidecar of an embedding file: one ASCII header line, then the ids in
# file order, one a line (UTF-8), then the rows as little-endian float64,
# row-major. The header names the format, the numpy version that parsed
# the file, the sha256 and length of the file's bytes, n, d, the length of
# the id block and the CRC-32 of everything after the header.
_CACHE_SUFFIX = ".threadwalk-cache"
_CACHE_FORMAT = "threadwalk-embedding-cache/1"
_CACHE_HEADER = re.compile(
    re.escape(_CACHE_FORMAT.encode()) + rb" numpy=(?P<numpy>\S+) sha256=(?P<sha256>[0-9a-f]{64})"
    rb" size=(?P<size>\d{1,18}) n=(?P<n>\d{1,18}) d=(?P<d>[1-9]\d{0,17})"
    rb" ids=(?P<ids>\d{1,18}) crc32=(?P<crc32>[0-9a-f]{8})\n"
)


class _HashingReader(io.RawIOBase):
    """A binary stream of what it reads from ``source``, keeping the sha256
    and the length of every byte that passes."""

    def __init__(self, source: BinaryIO) -> None:
        self._source = source
        self.sha256 = hashlib.sha256()
        self.size = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._source.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:count])
        self.size += count
        return count


def _read_cache(
    sidecar: Path, source: _HashingReader, info: os.stat_result
) -> tuple[dict[str, int], np.ndarray] | None:
    """The ids and rows that ``sidecar`` holds for the bytes of ``source``,
    a regular file with the status ``info``, not yet read; None if it holds
    none. ``source`` is read through only if the header records its size.

    A sidecar is trusted only if it is owned by the table's owner or by
    this process's user, and only with what a parse could give: distinct
    ids that are non-empty and hold no whitespace, and rows in range.
    """
    try:
        # Non-blocking, so that a FIFO planted at the sidecar path is no hang;
        # a symlink is not followed, since the writer never makes one.
        flags = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_NOFOLLOW", 0)
        with open(os.open(sidecar, flags), "rb") as cache:
            header = cache.readline(512)
            match = _CACHE_HEADER.fullmatch(header)
            if match is None:
                return None
            n, d, id_bytes = (int(match[k]) for k in ("n", "d", "ids"))
            owned = os.fstat(cache.fileno())
            if (
                (owned.st_uid != info.st_uid and owned.st_uid != os.getuid())
                or match["numpy"] != np.__version__.encode()
                or int(match["size"]) != info.st_size
                or owned.st_size != len(header) + id_bytes + 8 * n * d
            ):
                return None
            chunk = bytearray(1 << 20)
            while source.readinto(chunk):
                pass
            if source.sha256.hexdigest().encode() != match["sha256"]:
                return None
            ids = cache.read(id_bytes)
            matrix = np.empty((n, d), dtype="<f8")
            values = matrix.view(np.uint8).reshape(-1)
            if cache.readinto(values) != values.size or zlib.crc32(
                values, zlib.crc32(ids)
            ) != int(match["crc32"], 16):
                return None
            text = ids.decode("utf-8")
    except (OSError, ValueError):
        return None
    # The parser splits fields on str.split's whitespace, so the ids of a
    # parse are exactly the fields that split gives of their block.
    names = text.split()
    rows = dict(zip(names, range(n)))
    if (
        text != "".join(f"{name}\n" for name in names)
        or len(names) != n
        or len(rows) != n
        or _value_fault(matrix)
    ):
        return None
    matrix = matrix.astype(np.float64, copy=False)
    matrix.setflags(write=False)
    return rows, matrix


def _write_cache(
    sidecar: Path, source: _HashingReader, rows: dict[str, int], matrix: np.ndarray
) -> None:
    """Write the sidecar of the parsed bytes of ``source``; quietly write
    none when the file system refuses it."""
    ids = "".join(f"{node_id}\n" for node_id in rows).encode("utf-8")
    values = np.ascontiguousarray(matrix, dtype="<f8").view(np.uint8).reshape(-1)
    header = (
        f"{_CACHE_FORMAT} numpy={np.__version__} sha256={source.sha256.hexdigest()}"
        f" size={source.size} n={matrix.shape[0]} d={matrix.shape[1]} ids={len(ids)}"
        f" crc32={zlib.crc32(values, zlib.crc32(ids)):08x}\n"
    )
    try:
        write_bytes(sidecar, [header.encode("ascii"), ids, values])
    except OSError:
        pass


def _raise_first_fault(path: Path, source: BinaryIO, dim: int) -> NoReturn:
    """Raise for the first bad line of an embedding file that failed to load,
    searching the bytes of ``source``: a pipe's writer may be gone, so ``path`` is not reopened."""
    seen: set[str] = set()
    where = cut_path(path)
    source.seek(0)
    lines = text_lines(path, io.BufferedReader(source))
    for lineno, line in enumerate(itertools.islice(lines, 1, None), start=2):
        parts = line.split(None, 1)
        if not parts:
            continue
        node_id, values = parts[0], parts[1:]
        if node_id in seen:
            raise MalformedFileError(f"{where}:{lineno}: duplicate id {quote(node_id)}")
        seen.add(node_id)
        count = len(values[0].split()) if values else 0
        if count != dim:
            raise DimensionMismatchError(f"{where}:{lineno}: expected {dim} values, got {count}")
        try:
            vec = np.loadtxt(values, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            raise MalformedFileError(f"{where}:{lineno}: non-numeric value") from None
        if fault := _value_fault(vec):
            raise MalformedFileError(f"{where}:{lineno}: {fault}")
    raise MalformedFileError(f"{where}: unreadable embedding table")


def _value_fault(values: np.ndarray) -> str | None:
    """Why the loader refuses ``values``, or None; found from their min and
    max, without a temporary the size of ``values``."""
    low, high = (values.min(), values.max()) if values.size else (0.0, 0.0)
    if not (np.isfinite(low) and np.isfinite(high)):
        return "non-finite value"
    if max(-low, high) > MAX_EMBEDDING_VALUE:
        return f"value outside [-{MAX_EMBEDDING_VALUE:.0e}, {MAX_EMBEDDING_VALUE:.0e}]"
    return None


def save_external_embeddings(vectors: dict[str, np.ndarray], path: str | Path) -> None:
    """Write an embedding table in the format read back by the loader.
    A table the loader would refuse raises, before anything is written."""
    dims = {np.asarray(v).shape[0] for v in vectors.values()}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed dimensions in embedding table: {sorted(dims)}")
    dim = dims.pop() if dims else 0
    if dim < 1:
        raise DimensionMismatchError(f"embedding dimension must be >= 1, got {dim}")
    for node_id, vec in vectors.items():
        if node_id.split() != [node_id]:
            raise MalformedFileError(f"embedding id {quote(node_id)} is empty or holds whitespace")
        if fault := _value_fault(np.asarray(vec, dtype=np.float64)):
            raise MalformedFileError(f"{fault} for embedding id {quote(node_id)}")
    rows = (
        f"{node_id} {' '.join(repr(float(x)) for x in np.asarray(vec))}\n"
        for node_id, vec in vectors.items()
    )
    write_lines(path, itertools.chain([f"d={dim}\n"], rows))
