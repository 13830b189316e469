"""Hashed bag-of-words embedder and external embedding tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadwalk.embeddings import (
    HashedBowProvider,
    hashed_bow_embed,
    load_external_embeddings,
    save_external_embeddings,
    tokenize,
)
from threadwalk.errors import DimensionMismatchError, MalformedFileError, MissingEmbeddingError
from threadwalk.tree import CommentNode


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


class TestHashedBowProvider:
    def test_dimension_constant_and_vector_by_text(self):
        provider = HashedBowProvider(32, normalize=False)
        node = CommentNode("n", None, "hello hello")
        first = provider.vector_for(node)
        second = provider.vector_for(CommentNode("other", None, "hello hello"))
        assert provider.dimension == 32
        assert np.array_equal(first, second)  # the text alone decides the vector
        assert np.array_equal(first, hashed_bow_embed("hello hello", 32))


class TestExternalEmbeddings:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.txt"
        table = {"n1": np.array([1.0, -2.5]), "n2": np.array([0.25, 4.0])}
        save_external_embeddings(table, path)
        provider = load_external_embeddings(path)
        assert provider.dimension == 2
        for node_id, vector in table.items():
            got = provider.vector_for(CommentNode(node_id, None, "ignored"))
            assert np.array_equal(got, vector)

    def test_header_declares_dimension(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("d=8\n" + "n1 " + " ".join(["0.0"] * 8) + "\n")
        assert load_external_embeddings(path).dimension == 8

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
