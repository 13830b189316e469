"""Walk sampling: transition law, revisit semantics, discount weights.

The transition law is checked on the listed distribution of
``conftest.transition_distribution``; ``sample_walk`` is pinned step for
step to ``conftest.oracle_walk``, which draws from that list."""

import json
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadwalk.errors import UnknownIdError
from threadwalk.pipeline import RunConfig
from threadwalk.tree import CommentNode, build_tree
from threadwalk.seeding import derived_rng
from threadwalk.walks import WalkSample, sample_walk, walk_rng, walk_weights

from conftest import ancestors, make_chain, oracle_walk, random_tree, transition_distribution


def root_seeking_walk(tree, start, L):
    """Oracle for p = 1: the ancestor chain from ``start``, truncated to ``L``."""
    collected = tuple(([start] + ancestors(tree, start))[:L])
    return WalkSample(collected, collected[1:])


class TestWalkWeights:
    def test_half_discount(self):
        assert walk_weights(4, 0.5) == [1.0, 0.5, 0.25, 0.125]

    def test_gamma_one_is_uniform(self):
        assert walk_weights(6, 1.0) == [1.0] * 6

    def test_gamma_zero_keeps_only_start(self):
        assert walk_weights(3, 0.0) == [1.0, 0.0, 0.0]

    def test_length_must_be_positive(self):
        with pytest.raises(ValueError):
            walk_weights(0, 0.5)


class TestTransitionDistribution:
    def test_parent_bias_and_child_shares(self, fan_tree):
        dist = transition_distribution(fan_tree, "a1", 0.75)
        assert dist == [
            ("a0", 0.75),
            ("a2", pytest.approx(1 / 12)),
            ("a3", pytest.approx(1 / 12)),
            ("a4", pytest.approx(1 / 12)),
        ]

    def test_isolated_node(self):
        tree = build_tree([CommentNode("solo", None, "x")])
        assert transition_distribution(tree, "solo", 0.9) == []

    def test_root_renormalizes_over_children(self, fan_tree):
        # a1 has children a2..a4 plus sibling structure; use a fresh root with 4 kids
        records = [CommentNode("r", None, "x")] + [
            CommentNode(f"k{i}", "r", "y") for i in range(4)
        ]
        tree = build_tree(records)
        dist = transition_distribution(tree, "r", 0.8)
        assert [prob for _, prob in dist] == [0.25] * 4
        assert sum(prob for _, prob in dist) == pytest.approx(1.0, abs=1e-12)

    def test_leaf_sends_all_mass_up(self, fan_tree):
        assert transition_distribution(fan_tree, "a3", 0.3) == [("a1", 1.0)]

    def test_unknown_id(self, fan_tree):
        with pytest.raises(UnknownIdError):
            transition_distribution(fan_tree, "zz", 0.5)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    )
    def test_sums_to_one_with_neighbors(self, size, seed, p):
        tree = random_tree(np.random.default_rng(seed), size)
        for nid in tree.node_ids():
            dist = transition_distribution(tree, nid, p)
            assert dist, "every node of a 2+ node tree has a neighbor"
            assert sum(prob for _, prob in dist) == pytest.approx(1.0, abs=1e-12)


class TestSampleWalk:
    def test_deterministic_walk_stops_at_root(self, forked_tree):
        cfg = RunConfig(p=1.0, gamma=0.5, walk_length=4)
        sample = sample_walk(forked_tree, "a2", cfg, derived_rng(0).random)
        assert sample.node_ids == ("a2", "a1", "a0")

    def test_single_node(self):
        tree = build_tree([CommentNode("solo", None, "x")])
        cfg = RunConfig(p=0.5, gamma=0.7, walk_length=5)
        sample = sample_walk(tree, "solo", cfg, derived_rng(1).random)
        assert sample.node_ids == ("solo",)
        assert sample.raw_steps == ()

    def test_start_at_root_with_p_one(self, fan_tree):
        cfg = RunConfig(p=1.0, gamma=1.0, walk_length=4)
        sample = sample_walk(fan_tree, "a0", cfg, derived_rng(2).random)
        assert sample.node_ids == ("a0",)

    def test_first_step_frequencies(self, fan_tree):
        cfg = RunConfig(p=0.75, gamma=1.0, walk_length=2)
        counts = Counter(
            sample_walk(fan_tree, "a1", cfg, derived_rng(99, i).random).node_ids[1]
            for i in range(4000)
        )
        assert counts["a0"] / 4000 == pytest.approx(0.75, abs=0.03)
        for kid in ("a2", "a3", "a4"):
            assert counts[kid] / 4000 == pytest.approx(1 / 12, abs=0.03)

    def test_same_seed_same_walk(self, forked_tree):
        cfg = RunConfig(p=0.6, gamma=0.9, walk_length=4, seed=5)
        first = sample_walk(forked_tree, "a4", cfg, walk_rng(5, "forked", "a4").random)
        second = sample_walk(forked_tree, "a4", cfg, walk_rng(5, "forked", "a4").random)
        assert first == second

    def test_p_one_matches_ancestor_chain_for_any_seed(self):
        rng = np.random.default_rng(13)
        cfg = RunConfig(p=1.0, gamma=1.0, walk_length=4)
        for _ in range(50):
            tree = random_tree(rng, int(rng.integers(2, 60)))
            start = str(rng.choice(tree.node_ids()))
            expected = ([start] + ancestors(tree, start))[:4]
            for seed in (0, 1, 2):
                sample = sample_walk(tree, start, cfg, derived_rng(seed).random)
                assert list(sample.node_ids) == expected

    def test_step_cap_breaks_oscillation(self):
        # with p = 0 the walk can never climb above the start's subtree,
        # so the nodes above stay unvisited and only the cap stops it
        records = [
            CommentNode("r", None, "x"),
            CommentNode("x", "r", "x"),
            CommentNode("y", "r", "x"),
            CommentNode("z", "x", "x"),
        ]
        tree = build_tree(records)
        cfg = RunConfig(p=0.0, gamma=1.0, walk_length=4, step_cap=11)
        sample = sample_walk(tree, "x", cfg, derived_rng(3).random)
        assert sample.node_ids == ("x", "z")
        assert len(sample.raw_steps) == 11

    def test_stops_when_tree_exhausted(self, fan_tree):
        cfg = RunConfig(p=0.5, gamma=1.0, walk_length=50)
        sample = sample_walk(fan_tree, "a2", cfg, derived_rng(4).random)
        assert set(sample.node_ids) == set(fan_tree.node_ids())
        assert len(sample.node_ids) == 5

    def test_unknown_start(self, fan_tree):
        with pytest.raises(UnknownIdError):
            sample_walk(fan_tree, "zz", RunConfig(p=1.0, gamma=1.0), derived_rng(0).random)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.0, 0.3, 0.6, 0.8, 1.0]),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.integers(min_value=1, max_value=8),
    )
    def test_sample_invariants_and_replay(self, size, seed, p, gamma, L):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, size)
        start = str(rng.choice(tree.node_ids()))
        cfg = RunConfig(p=p, gamma=gamma, walk_length=L)
        sample = sample_walk(tree, start, cfg, derived_rng(seed, "walks").random)

        assert len(set(sample.node_ids)) == len(sample.node_ids)
        assert 1 <= len(sample.node_ids) <= L
        assert sample.node_ids[0] == start
        # trace weights are exactly gamma ** position
        weights = json.loads(sample.trace_line("t", gamma))["weights"]
        assert weights == [gamma**k for k in range(len(sample.node_ids))]
        # replaying the raw step log reproduces the distinct sequence and
        # shows each raw step is graph-adjacent to the previous position
        position = start
        replayed = [start]
        seen = {start}
        for step in sample.raw_steps:
            neighbors = set(tree.children(position))
            if tree.parent(position) is not None:
                neighbors.add(tree.parent(position))
            assert step in neighbors
            position = step
            if step not in seen:
                seen.add(step)
                replayed.append(step)
        assert tuple(replayed) == sample.node_ids


def star_tree(fan_out: int, hub_parent: bool):
    """A hub with ``fan_out`` leaf replies; the hub is the root, or it
    replies to a root of its own when ``hub_parent``."""
    records = [CommentNode("root", None, "x")]
    hub = "root"
    if hub_parent:
        records.append(CommentNode("hub", "root", "x"))
        hub = "hub"
    records += [CommentNode(f"k{i:03d}", hub, "y") for i in range(fan_out)]
    return build_tree(records)


class _FixedRng:
    """Stands in for a Generator whose every draw is ``r``."""

    def __init__(self, r: float):
        self.r = r

    def random(self) -> float:
        return self.r


class TestMatchesOracleWalk:
    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(["random", "star", "hub"]),
        size=st.integers(min_value=1, max_value=60),
        fan_out=st.integers(min_value=130, max_value=160),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        p=st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        L=st.integers(min_value=1, max_value=7),
        extra_steps=st.none() | st.integers(min_value=0, max_value=30),
    )
    def test_same_steps_and_draws(self, shape, size, fan_out, seed, p, L, extra_steps):
        rng = np.random.default_rng(seed)
        if shape == "random":
            tree = random_tree(rng, size)
        else:
            tree = star_tree(fan_out, hub_parent=shape == "hub")
        start = str(rng.choice(tree.node_ids()))
        step_cap = None if extra_steps is None else L - 1 + extra_steps
        cfg = RunConfig(p=p, gamma=1.0, walk_length=L, step_cap=step_cap)
        ours, theirs = derived_rng(seed, "walk"), derived_rng(seed, "walk")
        assert sample_walk(tree, start, cfg, ours.random) == oracle_walk(tree, start, cfg, theirs)
        # both consumed the same draws
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("hub_parent, p", [(False, 0.5), (True, 0.0)], ids=["root", "hub"])
    def test_rounding_falls_back_to_last_child(self, hub_parent, p):
        # six shares of 1/6 sum to nextafter(1.0, 0.0), so a draw of that
        # value is below none of the running sums
        r = np.nextafter(1.0, 0.0)
        acc = 0.0
        for _ in range(6):
            acc += 1.0 / 6
            assert not r < acc
        tree = star_tree(6, hub_parent)
        start = "hub" if hub_parent else "root"
        cfg = RunConfig(p=p, gamma=1.0, walk_length=2)
        expected = WalkSample((start, "k005"), ("k005",))
        assert oracle_walk(tree, start, cfg, _FixedRng(r)) == expected
        assert sample_walk(tree, start, cfg, _FixedRng(r).random) == expected


class TestRootSeekingWalk:
    def test_two_hops_to_root(self, forked_tree):
        sample = root_seeking_walk(forked_tree, "a2", 4)
        assert sample.node_ids == ("a2", "a1", "a0")

    def test_start_at_root(self, forked_tree):
        assert root_seeking_walk(forked_tree, "a0", 7).node_ids == ("a0",)

    def test_truncates_to_l(self):
        tree = make_chain(6)
        sample = root_seeking_walk(tree, "n6", 4)
        # oracle: brute-force path following, then truncate
        expected = ["n6"]
        cur = tree.parent("n6")
        while cur is not None:
            expected.append(cur)
            cur = tree.parent(cur)
        assert list(sample.node_ids) == expected[:4]
        assert len(sample.node_ids) == 4

    def test_equals_sampled_p_one(self, forked_tree):
        for start in forked_tree.node_ids():
            direct = root_seeking_walk(forked_tree, start, 4)
            sampled = sample_walk(
                forked_tree, start, RunConfig(p=1.0, gamma=0.5, walk_length=4), derived_rng(8).random
            )
            assert direct == sampled

    def test_gamma_default_uniform(self, forked_tree):
        # gamma = 1.0 weights every collected node alike
        trace = root_seeking_walk(forked_tree, "a4", 4).trace_line("forked", 1.0)
        assert json.loads(trace)["weights"] == [1.0, 1.0, 1.0, 1.0]


def test_trace_line_round_trip(forked_tree):
    sample = root_seeking_walk(forked_tree, "a4", 4)
    record = json.loads(sample.trace_line("forked", 0.5))
    assert record["tree_id"] == "forked"
    assert record["start"] == "a4"
    assert record["node_ids"] == ["a4", "a2", "a1", "a0"]
    assert record["raw_steps"] == list(sample.raw_steps)
    assert record["weights"] == [1.0, 0.5, 0.25, 0.125]


@pytest.mark.parametrize(
    "record", [CommentNode("a", "r", "text", "hate"), WalkSample(("a", "r"), ("r",))]
)
def test_records_are_slotted_and_survive_pickling(record):
    """One record per comment and per walk, each without a ``__dict__``;
    ``grid-search --jobs`` pickles both into its workers."""
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record
