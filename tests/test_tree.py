"""Discussion tree construction, traversal and per-tree stats."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadwalk.errors import (
    CycleDetectedError,
    DanglingParentError,
    DuplicateIdError,
    MultipleRootsError,
    NoRootError,
    UnknownIdError,
)
from threadwalk.tree import CommentNode, build_tree, tree_stats

from conftest import ancestors, make_chain, random_records, random_tree


class TestBuildTree:
    def test_fan_shape(self, fan_tree):
        assert fan_tree.root_id == "a0"
        assert fan_tree.children("a1") == ("a2", "a3", "a4")
        assert fan_tree.parent("a1") == "a0"
        assert len(fan_tree) == 5

    def test_single_record(self):
        tree = build_tree([CommentNode("only", None, "hi")])
        assert tree.root_id == "only"
        assert len(tree) == 1
        assert tree.children("only") == ()

    def test_mutual_reference_is_a_cycle(self):
        records = [CommentNode("x", "y", "a"), CommentNode("y", "x", "b")]
        with pytest.raises(CycleDetectedError):
            build_tree(records)

    def test_self_reference_is_a_cycle(self):
        with pytest.raises(CycleDetectedError):
            build_tree([CommentNode("x", "x", "a")])

    def test_duplicate_id(self):
        records = [CommentNode("r", None, "a"), CommentNode("r", "r0", "b")]
        with pytest.raises(DuplicateIdError):
            build_tree(records)

    def test_dangling_parent(self):
        records = [CommentNode("r", None, "a"), CommentNode("s", "ghost", "b")]
        with pytest.raises(DanglingParentError):
            build_tree(records)

    def test_multiple_roots(self):
        records = [CommentNode("r1", None, "a"), CommentNode("r2", None, "b")]
        with pytest.raises(MultipleRootsError):
            build_tree(records)

    def test_empty_records(self):
        with pytest.raises(NoRootError):
            build_tree([])

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            build_tree([CommentNode("", None, "a")])

    def test_empty_text_warns(self):
        """An empty comment is kept without a warning: load_corpus warns
        once per file instead."""
        records = [CommentNode("r", None, ""), CommentNode("s", "r", "ok")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = build_tree(records)
        assert len(tree) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
    def test_edge_count_and_single_root(self, size, seed):
        tree = random_tree(np.random.default_rng(seed), size)
        edges = sum(1 for n in tree if n.parent_id is not None)
        assert edges == len(tree) - 1
        roots = [n.id for n in tree if n.parent_id is None]
        assert roots == [tree.root_id]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
    def test_permutation_insensitive_validity(self, size, seed):
        rng = np.random.default_rng(seed)
        records = random_records(rng, size)
        tree = build_tree(records)
        shuffled = list(records)
        rng.shuffle(shuffled)
        other = build_tree(shuffled)
        assert other.root_id == tree.root_id
        assert set(other.node_ids()) == set(tree.node_ids())
        assert {n.id: n.parent_id for n in other} == {n.id: n.parent_id for n in tree}
        # children order follows input order, so only the sets must agree
        for nid in tree.node_ids():
            assert set(other.children(nid)) == set(tree.children(nid))


class TestAncestors:
    def test_two_levels_up(self, forked_tree):
        assert ancestors(forked_tree, "a2") == ["a1", "a0"]

    def test_root_has_none(self, forked_tree):
        assert ancestors(forked_tree, "a0") == []

    def test_chain_depth_ten(self):
        tree = make_chain(10)
        chain = ancestors(tree, "n10")
        # brute-force oracle: follow parent pointers one by one
        expected = []
        cur = tree.parent("n10")
        while cur is not None:
            expected.append(cur)
            cur = tree.parent(cur)
        assert chain == expected
        assert len(chain) == 10
        assert "n10" not in chain
        assert chain[-1] == tree.root_id

    def test_unknown_id(self, forked_tree):
        with pytest.raises(UnknownIdError):
            ancestors(forked_tree, "nope")


class TestTreeStats:
    def test_debate_counts(self, debate_tree):
        stats = tree_stats(debate_tree)
        assert stats.nodes == 4
        assert stats.label_counts == {"attack": 2, "support": 1}
        assert stats.depth == 3

    def test_single_node(self):
        stats = tree_stats(build_tree([CommentNode("solo", None, "x")]))
        assert stats.nodes == 1
        assert stats.depth == 0
        assert stats.label_counts == {}

    def test_fraction_matches_label_draw(self):
        rng = np.random.default_rng(3)
        records = [CommentNode("m0000", None, "root")]
        n_support = 0
        for i in range(1, 1000):
            label = "support" if rng.random() < 0.431 else "attack"
            n_support += label == "support"
            records.append(CommentNode(f"m{i:04d}", f"m{int(rng.integers(0, i)):04d}", "t", label=label))
        stats = tree_stats(build_tree(records))
        assert stats.label_counts == {"support": n_support, "attack": 999 - n_support}
        assert n_support / 999 == pytest.approx(0.431, abs=0.05)
