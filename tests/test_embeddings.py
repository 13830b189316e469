"""Hashed bag-of-words embedder and external embedding tables."""

import os
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import hashed_bow_oracle, parse_embeddings_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from threadwalk import embeddings
from threadwalk.embeddings import (
    MAX_EMBEDDING_VALUE,
    ExternalEmbeddingProvider,
    HashedBowProvider,
    hashed_bow_embed,
    hashed_bow_rows,
    load_external_embeddings,
    save_external_embeddings,
    tokenize,
)
from threadwalk.errors import DimensionMismatchError, MalformedFileError, MissingEmbeddingError
from threadwalk.tree import CommentNode


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


_OPENS: dict[str, int] = {}  # absolute path -> times opened, for the paths being counted


def _count_opens(event: str, args: tuple) -> None:
    if event == "open" and _OPENS and isinstance(args[0], (str, os.PathLike)):
        path = os.path.abspath(args[0])
        if path in _OPENS:
            _OPENS[path] += 1


# An audit hook cannot be removed: this one stays and counts nothing while _OPENS is empty.
sys.addaudithook(_count_opens)


def _opens_of(path: Path, action) -> int:
    """How many times ``action()`` opens ``path``, by any means of opening
    a file that the interpreter audits."""
    key = os.path.abspath(path)
    _OPENS[key] = 0
    try:
        action()
    finally:
        count = _OPENS.pop(key)
    return count


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Hello, World!!") == ["hello", "world"]

    def test_unicode(self):
        assert tokenize("Café näive 42") == ["café", "näive", "42"]

    def test_underscore_splits(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_empty(self):
        assert tokenize("") == []


class TestHashedBow:
    def test_empty_text_is_zero(self):
        assert not hashed_bow_embed("", 16).any()
        assert not hashed_bow_embed("", 16, normalize=True).any()

    def test_deterministic(self):
        a = hashed_bow_embed("the quick brown fox", 64)
        b = hashed_bow_embed("the quick brown fox", 64)
        assert np.array_equal(a, b)

    def test_count_linearity(self):
        once = hashed_bow_embed("good", 32)
        twice = hashed_bow_embed("good good", 32)
        # oracle: token counts double, so the raw vector doubles
        assert np.array_equal(twice, 2 * once)

    def test_bag_property_permutation_invariant(self):
        a = hashed_bow_embed("alpha beta gamma", 64)
        b = hashed_bow_embed("gamma alpha beta", 64)
        assert np.array_equal(a, b)

    def test_normalized_unit_norm(self):
        vec = hashed_bow_embed("some words to hash", 64, normalize=True)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            hashed_bow_embed("x", 0)

    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=80), st.integers(min_value=1, max_value=128))
    def test_norm_bound_and_finiteness(self, text, d):
        vec = hashed_bow_embed(text, d, normalize=True)
        assert vec.shape == (d,)
        assert np.all(np.isfinite(vec))
        norm = np.linalg.norm(vec)
        assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0


_TEXTS = st.lists(
    st.text(max_size=40)
    | st.sampled_from(["", "Café CAFÉ café", "γειά σου κόσμε", "日本語 テキスト", "a_b 42"])
    | st.lists(st.sampled_from(["good", "bad", "x"]), max_size=30).map(" ".join),
    max_size=8,
)


class TestHashedBowMatrix:
    @settings(max_examples=150, deadline=None)
    @given(_TEXTS, st.integers(min_value=1, max_value=64), st.booleans())
    def test_equals_token_at_a_time_oracle(self, texts, d, normalize):
        """Each scaled row decodes to the oracle's vector, bit for bit, and
        so does the one-text embedding of the same text."""
        nodes = [CommentNode(f"n{i}", None, text) for i, text in enumerate(texts)]
        values, divisors = HashedBowProvider(d, normalize).scaled_rows(nodes)
        assert values.shape == (len(texts), d) and divisors.shape == (len(texts),)
        matrix = values / divisors[:, None]
        expected = np.array([hashed_bow_oracle(t, d, normalize) for t in texts]).reshape(-1, d)
        assert np.array_equal(_bits(matrix), _bits(expected))
        for text, row in zip(texts, expected):
            assert np.array_equal(_bits(hashed_bow_embed(text, d, normalize)), _bits(row))


class TestHashedBowRows:
    @pytest.mark.parametrize("normalize", [True, False])
    def test_rows_counted_in_blocks_keep_their_bits(self, monkeypatch, normalize):
        """Counted one row at a time, rows that widen the dtype twice (int8,
        then int16, then int32) give the bytes of one block and the oracle."""
        texts = ["a b", "", "w " * 200, "c", "w " * 40_000, "d d e"]
        whole = hashed_bow_rows(texts, 8, normalize)
        monkeypatch.setattr(embeddings, "_BLOCK_CELLS", 1)
        values, divisors = hashed_bow_rows(texts, 8, normalize)
        assert values.dtype == whole[0].dtype == np.int32
        assert values.tobytes() == whole[0].tobytes()
        assert divisors.tobytes() == whole[1].tobytes()
        oracle = np.array([hashed_bow_oracle(text, 8, normalize) for text in texts])
        assert np.array_equal(_bits(values / divisors[:, None]), _bits(oracle))

    def test_float64_counts_are_bounded(self):
        """2,000 texts at d = 16,384 give a 32.8 MB int8 result, and the
        call's traced peak stays under twice that (the float64 counts of the
        whole call would take 262 MB)."""
        texts = [" ".join(f"w{(7 * i + 13 * j) % 3001}" for j in range(40)) for i in range(2000)]
        tracemalloc.start()
        try:
            values, _ = hashed_bow_rows(texts, 16_384, normalize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.dtype == np.int8 and values.nbytes == 2000 * 16_384
        assert peak < 2 * values.nbytes

    def test_token_arrays_are_bounded(self):
        """2,000 texts of 400 tokens at d = 256 fit one block of rows, but
        their 800,000 tokens are counted in blocks of _BLOCK_TOKENS: the
        call's traced peak above its result stays under the float64 counts
        of one block (at most 8 MiB) plus 8 MiB for its tokens (about 26 MB
        when the tokens of a block of rows were counted at once)."""
        texts = [" ".join(f"w{(7 * i + 13 * j) % 1009}" for j in range(400)) for i in range(2000)]
        tracemalloc.start()
        try:
            values, divisors = hashed_bow_rows(texts, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.dtype == np.int8 and values.shape == (2000, 256)
        assert peak - values.nbytes - divisors.nbytes < 16 * 2**20


class TestHashedBowProvider:
    def test_dimension_constant_and_vector_by_text(self):
        provider = HashedBowProvider(32, normalize=False)
        node = CommentNode("n", None, "hello hello")
        first = provider.vector_for(node)
        second = provider.vector_for(CommentNode("other", None, "hello hello"))
        assert np.array_equal(first, second)  # the text alone decides the vector
        assert np.array_equal(first, hashed_bow_embed("hello hello", 32))

    def test_vectors_one_row_per_node(self):
        provider = HashedBowProvider(16)
        nodes = [CommentNode(f"n{i}", None, text) for i, text in enumerate(["a b", "", "a b"])]
        values, divisors = provider.scaled_rows(nodes)
        assert values.shape == (3, 16) and divisors.shape == (3,)
        for node, row in zip(nodes, values / divisors[:, None]):
            assert np.array_equal(_bits(provider.vector_for(node)), _bits(row))
        assert np.array_equal(values[0], values[2]) and divisors[0] == divisors[2]

    def test_no_nodes_give_empty_rows(self):
        values, divisors = HashedBowProvider(16).scaled_rows([])
        assert values.shape == (0, 16) and divisors.shape == (0,)


_ID = st.text(st.characters(blacklist_categories=("C", "Z")), min_size=1, max_size=6)
_VALUE = st.floats(-MAX_EMBEDDING_VALUE, MAX_EMBEDDING_VALUE) | st.sampled_from(
    [-0.0, 5e-324, MAX_EMBEDDING_VALUE, -MAX_EMBEDDING_VALUE]
)
_TABLES = st.integers(min_value=1, max_value=6).flatmap(
    lambda d: st.dictionaries(
        _ID, st.lists(_VALUE, min_size=d, max_size=d).map(np.array), min_size=1, max_size=8
    )
)


def _write(tmp_path, text: str) -> Path:
    path = tmp_path / "emb.txt"
    path.write_text(text, encoding="utf-8")
    return path


class TestExternalEmbeddings:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.txt"
        table = {"n1": np.array([1.0, -2.5]), "n2": np.array([0.25, 4.0])}
        save_external_embeddings(table, path)
        provider = load_external_embeddings(path)
        values, divisors = provider.scaled_rows([])
        assert values.shape == (0, 2) and divisors.shape == (0,)
        for node_id, vector in table.items():
            got = provider.vector_for(CommentNode(node_id, None, "ignored"))
            assert np.array_equal(got, vector)

    @settings(max_examples=100, deadline=None)
    @given(_TABLES)
    def test_round_trip_equals_table_and_oracle(self, table):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "emb.txt"
            save_external_embeddings(table, path)
            provider = load_external_embeddings(path)
            oracle = parse_embeddings_oracle(path)
        nodes = [CommentNode(node_id, None, "") for node_id in table]
        matrix, divisors = provider.scaled_rows(nodes)
        assert matrix.dtype == np.float64 and divisors.tolist() == [1.0] * len(table)
        assert list(oracle) == list(table)
        assert np.array_equal(_bits(matrix), _bits(np.array(list(table.values()))))
        assert np.array_equal(_bits(matrix), _bits(np.array(list(oracle.values()))))

    @pytest.mark.parametrize("dim", [8, 10_000_000_000])
    def test_header_only_file_is_an_empty_table(self, tmp_path, dim):
        path = _write(tmp_path, f"d={dim}\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            provider = load_external_embeddings(path)
        values, divisors = provider.scaled_rows([])
        assert values.shape == (0, dim) and divisors.shape == (0,)
        with pytest.raises(MissingEmbeddingError, match="'n1'"):
            provider.scaled_rows([CommentNode("n1", None, "x")])

    def test_header_declares_dimension(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("d=8\n" + "n1 " + " ".join(["0.0"] * 8) + "\n")
        assert load_external_embeddings(path).scaled_rows([])[0].shape == (0, 8)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "emb.txt"
        for header in ("dim 8", "d=\u00b2"):  # a superscript two is a digit but not an int
            path.write_text(header + "\nn1 0\n", encoding="utf-8")
            with pytest.raises(MalformedFileError):
                load_external_embeddings(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("d=8\nn1 " + " ".join(["0.0"] * 7) + "\n")
        with pytest.raises(DimensionMismatchError):
            load_external_embeddings(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("d=2\nn1 0.0 oops\n")
        with pytest.raises(MalformedFileError):
            load_external_embeddings(path)

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("d=2\nn1 0.0 inf\n")
        with pytest.raises(MalformedFileError):
            load_external_embeddings(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("d=1\nn1 0.0\nn1 1.0\n")
        with pytest.raises(MalformedFileError):
            load_external_embeddings(path)

    def test_missing_node(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("d=1\nn1 0.5\n")
        provider = load_external_embeddings(path)
        with pytest.raises(MissingEmbeddingError, match="'absent'"):
            provider.vector_for(CommentNode("absent", None, "x"))

    def test_first_missing_node_in_node_order(self):
        provider = ExternalEmbeddingProvider({"n1": 0}, np.zeros((1, 2)))
        nodes = [CommentNode(node_id, None, "") for node_id in ("n1", "late", "early")]
        with pytest.raises(MissingEmbeddingError, match="'late'"):
            provider.scaled_rows(nodes)

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            (["n1 0.0 oops", "n1 1.0 2.0"], MalformedFileError, ":2: non-numeric value"),
            (["n1 0 0", "n1 1 2", "n2 1"], MalformedFileError, ":3: duplicate id 'n1'"),
            (["n1 0 0", "", "n2", "n3 x"], DimensionMismatchError, ":4: expected 2 values, got 0"),
            (["n1 0 0", "n2 1 2 3", "n3 1 2 3"], DimensionMismatchError,
             ":3: expected 2 values, got 3"),
            (["n1 0 0", "n2 1 inf", "n2 x"], MalformedFileError, ":3: non-finite value"),
            (["n1 1e150 -1e150", "n2 1 -1.0000000000000002e150", "n2 x"], MalformedFileError,
             ":3: value outside [-1e+150, 1e+150]"),
            (["n1 1e308 -1e308"], MalformedFileError, ":2: value outside [-1e+150, 1e+150]"),
            (["n1 0 1_0", "n1 0 0"], MalformedFileError, ":2: non-numeric value"),
            (["n1 0 0", "n2 \u0661 0"], MalformedFileError, ":3: non-numeric value"),
            (["n1 0 0 # note", "n2 0 0"], DimensionMismatchError,
             ":2: expected 2 values, got 4"),
        ],
        ids=[
            "non-numeric-then-duplicate",
            "duplicate-then-short",
            "id-without-values",
            "every-row-too-long",
            "non-finite-then-short",
            "past-the-bound-then-duplicate",
            "huge-but-finite",
            "underscore-digits",
            "non-ascii-digit",
            "hash-is-no-comment",
        ],
    )
    def test_first_bad_line_is_reported(self, tmp_path, rows, error, message):
        path = _write(tmp_path, "d=2\n" + "\n".join(rows) + "\n")
        with pytest.raises(error) as excinfo:
            load_external_embeddings(path)
        assert str(excinfo.value) == f"{path}{message}"


def _sidecar(path: Path) -> Path:
    return path.with_name(f".{path.name}.threadwalk-cache")


def _loaded(path: Path) -> tuple[dict, np.ndarray]:
    """The rows and matrix bits a load of ``path`` gives."""
    provider = load_external_embeddings(path)
    assert not provider._matrix.flags.writeable
    return provider._rows, _bits(provider._matrix)


def _table(path: Path, seed: int = 4) -> Path:
    """A table with extreme values, a negative zero and a non-ASCII id."""
    rng = np.random.default_rng(seed)
    table = {f"n{i}": rng.standard_normal(3) for i in range(40)}
    table["café"] = np.array([-0.0, 5e-324, -MAX_EMBEDDING_VALUE])
    save_external_embeddings(table, path)
    return path


def _plant(path: Path, rows: dict, matrix: np.ndarray) -> None:
    """Write the sidecar of the current bytes of ``path`` as holding
    ``rows`` and ``matrix``, with a true digest and CRC."""
    with path.open("rb", buffering=0) as source:
        hashing = embeddings._HashingReader(source)
        hashing.readall()
    embeddings._write_cache(_sidecar(path), hashing, rows, np.asarray(matrix, dtype=np.float64))


def _parsed_only():
    """np.loadtxt counted; the one parser of a table."""
    return mock.patch.object(np, "loadtxt", wraps=np.loadtxt)


# How a sidecar can be wrong: cut, a flipped byte in each part, empty,
# another table's, or of another format or numpy version.
_FAULTS = ["truncate", "flip-header", "flip-ids", "flip-rows", "empty", "other-table",
           "other-format", "other-numpy"]


def _fault(data, kind: str, good: bytes, other: bytes) -> bytes:
    header_end = good.index(b"\n") + 1
    ids_end = header_end + int(good[:header_end].split(b" ids=")[1].split(b" ")[0])
    if kind == "truncate":
        return good[: data.draw(st.integers(0, len(good) - 1))]
    if kind.startswith("flip"):
        start, end = {"header": (0, header_end), "ids": (header_end, ids_end),
                      "rows": (ids_end, len(good))}[kind[5:]]
        at = data.draw(st.integers(start, end - 1))
        return good[:at] + bytes([good[at] ^ data.draw(st.integers(1, 255))]) + good[at + 1 :]
    if kind == "other-format":
        return good.replace(b"threadwalk-embedding-cache/1 ", b"threadwalk-embedding-cache/2 ", 1)
    if kind == "other-numpy":
        return good.replace(f"numpy={np.__version__} ".encode(), b"numpy=1.0.0 ", 1)
    return {"empty": b"", "other-table": other}[kind]


class TestSidecarCache:
    def test_second_load_reads_the_sidecar(self, tmp_path, monkeypatch):
        path = _table(tmp_path / "emb.txt")
        rows, bits = _loaded(path)
        assert _sidecar(path).is_file()
        assert sorted(p.name for p in tmp_path.iterdir()) == [_sidecar(path).name, "emb.txt"]

        def refuse(*args, **kwargs):
            raise AssertionError("parsed a table with a valid sidecar")

        monkeypatch.setattr(np, "loadtxt", refuse)
        cached_rows, cached_bits = _loaded(path)
        assert cached_rows == rows and list(cached_rows) == list(rows)
        assert np.array_equal(cached_bits, bits)

    def test_leading_byte_order_mark_gives_the_same_rows(self, tmp_path):
        """A marked table parses to the same rows, and is then read from
        its own sidecar, which keys its raw bytes."""
        path = _table(tmp_path / "emb.txt")
        rows, bits = _loaded(path)
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for parses in (1, 0):
            with _parsed_only() as parse:
                marked_rows, marked_bits = _loaded(marked)
            assert parse.call_count == parses
            assert list(marked_rows) == list(rows) and np.array_equal(marked_bits, bits)
        assert _sidecar(marked).read_bytes() != _sidecar(path).read_bytes()

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(_FAULTS), data=st.data())
    def test_faulty_sidecar_is_a_miss_and_is_replaced(self, kind, data):
        with tempfile.TemporaryDirectory() as scratch:
            path, other = _table(Path(scratch) / "emb.txt"), _table(Path(scratch) / "b.txt", 5)
            with _parsed_only() as parse:
                rows, bits = _loaded(path)
                _loaded(other)
                assert parse.call_count == 2
            good = _sidecar(path).read_bytes()
            _sidecar(path).write_bytes(_fault(data, kind, good, _sidecar(other).read_bytes()))
            with _parsed_only() as parse:
                got_rows, got_bits = _loaded(path)
                assert parse.call_count == 1
            assert got_rows == rows and np.array_equal(got_bits, bits)
            assert _sidecar(path).read_bytes() == good

    @pytest.mark.parametrize(
        "plant",
        [
            lambda rows, matrix: (rows, np.where(matrix == matrix[0, 0], np.nan, matrix)),
            lambda rows, matrix: (rows, np.where(matrix == matrix[1, 1], -np.inf, matrix)),
            lambda rows, matrix: (rows, np.where(matrix == matrix[1, 1], 1e151, matrix)),
            lambda rows, matrix: ({"" if k == "n1" else k: v for k, v in rows.items()}, matrix),
            lambda rows, matrix: ({"n 1" if k == "n1" else k: v for k, v in rows.items()}, matrix),
            lambda rows, matrix: ({"n\x1f1" if k == "n1" else k: v for k, v in rows.items()},
                                  matrix),
            lambda rows, matrix: ({"n 1" if k == "n1" else "" if k == "n2" else k: v
                                   for k, v in rows.items()}, matrix),
        ],
        ids=["nan-row", "infinite-row", "out-of-range-row", "empty-id", "id-with-space", "id-with-separator",
             "space-and-empty-id"],
    )
    def test_planted_sidecar_no_parse_gives_is_a_miss(self, tmp_path, plant):
        """A sidecar with a true digest and CRC but ids or rows that no
        parse gives is not read: the load parses and rewrites it."""
        path = _table(tmp_path / "emb.txt")
        rows, bits = _loaded(path)
        good = _sidecar(path).read_bytes()
        _plant(path, *plant(rows, load_external_embeddings(path)._matrix))
        assert _sidecar(path).read_bytes() != good
        with _parsed_only() as parse:
            got_rows, got_bits = _loaded(path)
            assert parse.call_count == 1
        assert got_rows == rows and np.array_equal(got_bits, bits)
        assert _sidecar(path).read_bytes() == good

    def test_sidecar_of_another_owner_is_a_miss(self, tmp_path, monkeypatch):
        """A valid sidecar that neither the table's owner nor this user owns
        is not read; one this user owns is."""
        path = _table(tmp_path / "emb.txt")
        rows, bits = _loaded(path)
        matrix = load_external_embeddings(path)._matrix
        _plant(path, rows, -matrix)
        planted = _sidecar(path).stat().st_ino
        fstat = os.fstat

        def other_owner(fd):
            info = fstat(fd)
            if info.st_ino != planted:
                return info
            fields = list(info[:10])
            fields[4] = max(info.st_uid, os.getuid()) + 1  # st_uid
            return os.stat_result(fields)

        monkeypatch.setattr(os, "fstat", other_owner)
        with _parsed_only() as parse:
            got_rows, got_bits = _loaded(path)
            assert parse.call_count == 1
        assert got_rows == rows and np.array_equal(got_bits, bits)
        monkeypatch.undo()
        _plant(path, rows, -matrix)
        assert np.array_equal(_loaded(path)[1], _bits(-matrix))

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
    def test_symlink_at_the_sidecar_path_is_not_followed(self, tmp_path):
        path = _table(tmp_path / "emb.txt")
        rows, bits = _loaded(path)
        _plant(path, rows, -load_external_embeddings(path)._matrix)
        _sidecar(path).rename(tmp_path / "planted")
        _sidecar(path).symlink_to(tmp_path / "planted")
        with _parsed_only() as parse:
            got_rows, got_bits = _loaded(path)
            assert parse.call_count == 1
        assert got_rows == rows and np.array_equal(got_bits, bits)
        assert not _sidecar(path).is_symlink()

    def test_directory_at_the_sidecar_path_writes_nothing(self, tmp_path):
        path = _table(tmp_path / "emb.txt")
        _sidecar(path).mkdir()
        with _parsed_only() as parse:
            first, again = _loaded(path), _loaded(path)
            assert parse.call_count == 2
        assert first[0] == again[0] and np.array_equal(first[1], again[1])
        assert sorted(p.name for p in tmp_path.iterdir()) == [_sidecar(path).name, "emb.txt"]
        assert list(_sidecar(path).iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_at_the_sidecar_path_is_replaced(self, tmp_path):
        """Reading a named pipe planted at the sidecar path does not wait
        for a writer; the parse's sidecar takes its place."""
        path = _table(tmp_path / "emb.txt")
        os.mkfifo(_sidecar(path))
        with _parsed_only() as parse:
            rows, bits = _loaded(path)
            assert parse.call_count == 1
        assert _sidecar(path).is_file()
        with _parsed_only() as parse:
            cached_rows, cached_bits = _loaded(path)
            assert parse.call_count == 0
        assert cached_rows == rows and np.array_equal(cached_bits, bits)

    def test_refused_write_is_quiet(self, tmp_path, monkeypatch):
        def full_disk(path, chunks):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(embeddings, "write_bytes", full_disk)
        path = _table(tmp_path / "emb.txt")
        _loaded(path)
        assert list(tmp_path.iterdir()) == [path]

    def test_edited_source_is_parsed_again(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("d=2\nn1 0.25 1.0\nn2 2.0 3.0\n")
        assert load_external_embeddings(path).vector_for(CommentNode("n1", None, "")).tolist() == [
            0.25, 1.0
        ]
        size = path.stat().st_size
        with path.open("r+b") as handle:  # in place, the length kept
            handle.seek(len("d=2\nn1 0."))
            handle.write(b"75")
        assert path.stat().st_size == size
        provider = load_external_embeddings(path)
        assert provider.vector_for(CommentNode("n1", None, "")).tolist() == [0.75, 1.0]

    def test_failed_parse_writes_no_sidecar(self, tmp_path):
        path = _write(tmp_path, "d=2\nn1 0.0 1.0\nn2 0.0 oops\n")
        for _ in range(2):
            with pytest.raises(MalformedFileError, match=":3: non-numeric value"):
                load_external_embeddings(path)
        assert list(tmp_path.iterdir()) == [path]

    def test_each_load_opens_the_table_once(self, tmp_path):
        """A parse, a sidecar read and a failed parse each open the table's
        path once: the first bad line is searched for in the open file."""
        good, bad = _table(tmp_path / "emb.txt"), tmp_path / "bad.txt"
        bad.write_text("d=2\nn1 0.0 1.0\nn2 0.0 oops\n")

        def load_bad():
            with pytest.raises(MalformedFileError, match=":3: non-numeric value"):
                load_external_embeddings(bad)

        with _parsed_only() as parse:
            opens = [_opens_of(good, lambda: load_external_embeddings(good)) for _ in range(2)]
            assert parse.call_count == 1
        assert opens == [1, 1]
        assert [_opens_of(bad, load_bad) for _ in range(2)] == [1, 1]

    def test_fault_is_reported_in_the_bytes_parsed(self, tmp_path, monkeypatch):
        """A table replaced while it is parsed is reported for the first bad
        line of the bytes that were parsed, not of the new file."""
        path = _write(tmp_path, "d=2\nn1 0.0 oops\n")
        later = tmp_path / "later.txt"
        later.write_text("d=2\nn1 0 0\nn2 1\n")
        loadtxt = np.loadtxt

        def replace_then_parse(*args, **kwargs):
            if later.exists():
                os.replace(later, path)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", replace_then_parse)
        with pytest.raises(MalformedFileError) as excinfo:
            load_external_embeddings(path)
        assert not later.exists()
        assert str(excinfo.value) == f"{path}:2: non-numeric value"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_is_parsed_and_not_cached(self, tmp_path):
        table = _table(tmp_path / "source.txt").read_bytes()
        fifo = tmp_path / "emb.txt"
        os.mkfifo(fifo)
        want = _loaded(tmp_path / "source.txt")
        for _ in range(2):
            writer = threading.Thread(target=fifo.write_bytes, args=(table,), daemon=True)
            writer.start()
            got = _loaded(fifo)
            writer.join(timeout=60)
            assert not writer.is_alive()
            assert got[0] == want[0] and np.array_equal(got[1], want[1])
        assert not _sidecar(fifo).exists()


class TestSaveExternalEmbeddings:
    @pytest.mark.parametrize(
        "table, error, message",
        [
            ({"a b": [1.0]}, MalformedFileError, "embedding id 'a b' is empty or holds whitespace"),
            ({"n1": [1.0], "a\nb": [2.0]}, MalformedFileError,
             "embedding id 'a\\nb' is empty or holds whitespace"),
            ({"": [1.0]}, MalformedFileError, "embedding id '' is empty or holds whitespace"),
            ({"n1": [1.0], "n2": [np.nan], "n3": [np.inf]}, MalformedFileError,
             "non-finite value for embedding id 'n2'"),
            ({"n1": [0.5, -np.inf]}, MalformedFileError, "non-finite value for embedding id 'n1'"),
            ({"n1": [1e150], "n2": [-1e151]}, MalformedFileError,
             "value outside [-1e+150, 1e+150] for embedding id 'n2'"),
            ({"n1": [1.0], "n2": [1.0, 2.0], "n3": [1.0, 2.0, 3.0]}, DimensionMismatchError,
             "mixed dimensions in embedding table: [1, 2, 3]"),
            ({"n1": [1.0], "x" * 50 + " y": [1.0], "c\td": [1.0]}, MalformedFileError,
             f"embedding id '{'x' * 40}'... is empty or holds whitespace"),
            ({}, DimensionMismatchError, "embedding dimension must be >= 1, got 0"),
            ({"n1": []}, DimensionMismatchError, "embedding dimension must be >= 1, got 0"),
        ],
        ids=["id-with-space", "id-with-newline", "empty-id", "nan-value", "infinite-value",
             "out-of-range-value", "mixed-dimensions",
             "first-bad-id-cut", "empty-table", "zero-width-rows"],
    )
    def test_table_the_loader_refuses_is_not_written(self, tmp_path, table, error, message):
        path = tmp_path / "emb.txt"
        table = {node_id: np.array(row, dtype=np.float64) for node_id, row in table.items()}
        with pytest.raises(error) as excinfo:
            save_external_embeddings(table, path)
        assert str(excinfo.value) == message
        assert list(tmp_path.iterdir()) == []
