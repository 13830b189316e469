"""Discussion tree construction, traversal and per-tree stats."""

import dataclasses
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

from conftest import ancestors, make_chain, oracle_build_tree, random_records, random_tree


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


_FAULTS = (
    "none", "duplicate-id", "self-reply", "dangling-parent", "cycle-inside", "cycle-beside",
    "second-root", "no-root",
)


def _plant(records: list[CommentNode], fault: str, rng: np.random.Generator) -> list:
    """``records`` (a valid tree, root first) with one fault of the kind named."""
    records, size = list(records), len(records)

    def reparent(i: int, parent_id: str | None) -> None:
        records[i] = dataclasses.replace(records[i], parent_id=parent_id)

    if fault == "duplicate-id":
        records.append(CommentNode(records[rng.integers(size)].id, records[0].id, "again"))
    elif fault == "self-reply":
        i = int(rng.integers(size))
        reparent(i, records[i].id)
    elif fault == "dangling-parent":
        # Several records, replying to one of two unknown ids.
        for i in rng.choice(size, size=min(size, 3), replace=False):
            reparent(int(i), str(rng.choice(["ghost", "phantom"])))
    elif fault == "cycle-inside" and size > 2:
        # Non-root nodes that reply round a loop of 2 to 5; their subtrees hang off it.
        length = min(size - 1, int(rng.integers(2, 6)))
        ring = rng.choice(np.arange(1, size), size=length, replace=False)
        for at, nxt in zip(ring, np.roll(ring, -1)):
            reparent(int(at), records[nxt].id)
    elif fault.startswith("cycle"):
        # Beside the tree (also when it has too few replies for a loop
        # inside), with a reply hanging off the loop.
        ring = [f"c{k}" for k in range(int(rng.integers(2, 6)))]
        records += [CommentNode(nid, ring[k - 1], "loop") for k, nid in enumerate(ring)]
        records.append(CommentNode("hanger", ring[int(rng.integers(len(ring)))], "off the loop"))
    elif fault == "second-root":
        records.append(CommentNode("other-root", None, "another thread"))
    elif fault == "no-root":
        reparent(0, records[rng.integers(size)].id if size > 1 else "m0000")
    rng.shuffle(records)
    return records


def _outcome(build, records):
    """The tree ``build`` makes of ``records`` (its root, parents and
    children in order), or the type and message of what it raises."""
    try:
        tree = build(records, tree_id="t")
    except Exception as exc:
        return type(exc), str(exc)
    return tree.root_id, [(n.id, n.parent_id, tree.children(n.id)) for n in tree]


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(_FAULTS),
)
def test_build_tree_matches_the_chain_walking_oracle(size, seed, fault):
    """Validating on the child index gives the tree, or the error and
    message, of checking each parent chain for a cycle."""
    rng = np.random.default_rng(seed)
    records = _plant(random_records(rng, size), fault, rng)
    expected = _outcome(oracle_build_tree, records)
    assert _outcome(build_tree, records) == expected
    raised = isinstance(expected[0], type)
    assert raised == (fault != "none")


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
