"""Hashed bag-of-words embedder and external embedding tables."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import hashed_bow_oracle, parse_embeddings_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from threadwalk.embeddings import (
    ExternalEmbeddingProvider,
    HashedBowProvider,
    hashed_bow_embed,
    hashed_bow_matrix,
    load_external_embeddings,
    save_external_embeddings,
    tokenize,
)
from threadwalk.errors import DimensionMismatchError, MalformedFileError, MissingEmbeddingError
from threadwalk.tree import CommentNode


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


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
        matrix = hashed_bow_matrix(texts, d, normalize)
        assert matrix.dtype == np.float64 and matrix.shape == (len(texts), d)
        expected = np.array([hashed_bow_oracle(t, d, normalize) for t in texts]).reshape(-1, d)
        assert np.array_equal(_bits(matrix), _bits(expected))
        for text, row in zip(texts, expected):
            assert np.array_equal(_bits(hashed_bow_embed(text, d, normalize)), _bits(row))


class TestHashedBowProvider:
    def test_dimension_constant_and_vector_by_text(self):
        provider = HashedBowProvider(32, normalize=False)
        node = CommentNode("n", None, "hello hello")
        first = provider.vector_for(node)
        second = provider.vector_for(CommentNode("other", None, "hello hello"))
        assert provider.vectors([]).shape == (0, 32)
        assert np.array_equal(first, second)  # the text alone decides the vector
        assert np.array_equal(first, hashed_bow_embed("hello hello", 32))

    def test_vectors_one_row_per_node(self):
        provider = HashedBowProvider(16)
        nodes = [CommentNode(f"n{i}", None, text) for i, text in enumerate(["a b", "", "a b"])]
        matrix = provider.vectors(nodes)
        assert matrix.shape == (3, 16)
        for node, row in zip(nodes, matrix):
            assert np.array_equal(provider.vector_for(node), row)
        assert provider.vectors([]).shape == (0, 16)


_ID = st.text(st.characters(blacklist_categories=("C", "Z")), min_size=1, max_size=6)
_VALUE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
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
        assert provider.vectors([]).shape == (0, 2)
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
        matrix = provider.vectors(nodes)
        assert list(oracle) == list(table)
        assert np.array_equal(_bits(matrix), _bits(np.array(list(table.values()))))
        assert np.array_equal(_bits(matrix), _bits(np.array(list(oracle.values()))))

    @pytest.mark.parametrize("dim", [8, 10_000_000_000])
    def test_header_only_file_is_an_empty_table(self, tmp_path, dim):
        path = _write(tmp_path, f"d={dim}\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            provider = load_external_embeddings(path)
        assert provider.vectors([]).shape == (0, dim)
        with pytest.raises(MissingEmbeddingError, match="'n1'"):
            provider.vectors([CommentNode("n1", None, "x")])

    def test_header_declares_dimension(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("d=8\n" + "n1 " + " ".join(["0.0"] * 8) + "\n")
        assert load_external_embeddings(path).vectors([]).shape == (0, 8)

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
        with pytest.raises(MissingEmbeddingError):
            provider.vector_for(CommentNode("absent", None, "x"))

    def test_first_missing_node_in_node_order(self):
        provider = ExternalEmbeddingProvider({"n1": 0}, np.zeros((1, 2)))
        nodes = [CommentNode(node_id, None, "") for node_id in ("n1", "late", "early")]
        with pytest.raises(MissingEmbeddingError, match="'late'"):
            provider.vectors(nodes)

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            (["n1 0.0 oops", "n1 1.0 2.0"], MalformedFileError, ":2: non-numeric value"),
            (["n1 0 0", "n1 1 2", "n2 1"], MalformedFileError, ":3: duplicate id 'n1'"),
            (["n1 0 0", "", "n2", "n3 x"], DimensionMismatchError, ":4: expected 2 values, got 0"),
            (["n1 0 0", "n2 1 2 3", "n3 1 2 3"], DimensionMismatchError,
             ":3: expected 2 values, got 3"),
            (["n1 0 0", "n2 1 inf", "n2 x"], MalformedFileError, ":3: non-finite value"),
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
