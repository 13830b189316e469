"""Context aggregation and feature construction around a PoI node."""

import numpy as np
import pytest
from conftest import hashed_bow_oracle, parse_embeddings_oracle, random_tree, side_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from threadwalk.embeddings import (
    HashedBowProvider,
    load_external_embeddings,
    save_external_embeddings,
)
from threadwalk.errors import DimensionMismatchError, MissingLabelError, NegativeWeightError
from threadwalk import features
from threadwalk.features import (
    AggregationStrategy,
    ConcatScheme,
    CorpusSide,
    aggregate_context,
    concat_features,
    featurize_split,
    labeled_pois,
)
from threadwalk.pipeline import RunConfig
from threadwalk.seeding import derived_rng
from threadwalk.synthetic import CorpusSpec, generate
from threadwalk.tree import CommentNode, build_tree
from threadwalk.walks import sample_walk, walk_rng, walk_weights

STRATEGIES = list(AggregationStrategy)


def features_from_walk(
    tree, sample, gamma, provider, strategy, scheme, *, normalize_weights=True
):
    """Per-row reference: the feature row of one already-sampled walk,
    discounted under ``gamma``."""
    u = provider.vector_for(tree.node(sample.node_ids[0]))
    context = [provider.vector_for(tree.node(nid)) for nid in sample.node_ids[1:]]
    v = np.zeros_like(u)  # an empty context aggregates to zero
    if context:
        v = aggregate_context(
            context,
            walk_weights(len(sample.node_ids), gamma)[1:],
            strategy,
            normalize=normalize_weights,
        )
    return concat_features(u, v, scheme)


def featurize_node(tree, poi, provider, config, rng):
    """Walk from ``poi`` on ``rng`` and build its feature row under ``config``."""
    sample = sample_walk(tree, poi, config, rng.random)
    strategy, scheme = AggregationStrategy(config.aggregation), ConcatScheme(config.scheme)
    return features_from_walk(
        tree, sample, config.gamma, provider, strategy, scheme,
        normalize_weights=config.normalize_weights,
    )


def per_row_features(trees, provider, config):
    """Per-row reference for featurize_split: one walk on each PoI's own
    stream, one row at a time."""
    return np.array(
        [
            featurize_node(
                tree, node.id, provider, config, walk_rng(config.seed, tree.tree_id, node.id)
            )
            for tree, node in labeled_pois(trees, config.task)
        ]
    )


def _context_sets(min_vecs=1):
    return st.integers(min_value=min_vecs, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(
                    st.floats(min_value=-10, max_value=10, allow_nan=False),
                    min_size=3,
                    max_size=3,
                ),
                min_size=n,
                max_size=n,
            ),
            st.lists(
                st.floats(min_value=0.01, max_value=5, allow_nan=False),
                min_size=n,
                max_size=n,
            ),
        )
    )


class TestAggregateContext:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_singleton_identity(self, strategy):
        x = np.array([2.0, -1.0, 0.5])
        out = aggregate_context([x], [0.8], strategy)
        assert np.allclose(out, x, atol=1e-12)

    def test_weighted_average_two_vectors(self):
        out = aggregate_context(
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
            [0.8, 0.64],
            AggregationStrategy.WEIGHTED_AVERAGE,
        )
        # oracle: sum(w x) / sum(w) computed by hand
        assert out == pytest.approx([0.8 / 1.44, 0.64 / 1.44], abs=1e-12)
        assert out == pytest.approx([0.5556, 0.4444], abs=1e-4)

    def test_sum_and_average(self):
        vecs = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        total = aggregate_context(vecs, [1, 1], AggregationStrategy.SUM)
        mean = aggregate_context(vecs, [1, 1], AggregationStrategy.AVERAGE)
        assert np.array_equal(total, [4.0, 6.0])
        assert np.array_equal(mean, [2.0, 3.0])

    def test_sum_is_linear(self):
        vecs = [np.array([1.0, -2.0]), np.array([0.5, 3.0])]
        once = aggregate_context(vecs, [1, 1], AggregationStrategy.SUM)
        scaled = aggregate_context([3 * v for v in vecs], [1, 1], AggregationStrategy.SUM)
        assert np.allclose(scaled, 3 * once, atol=1e-12)

    def test_empty_context_raises(self):
        for strategy in STRATEGIES:
            with pytest.raises(DimensionMismatchError):
                aggregate_context(np.zeros((0, 4)), [], strategy)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            aggregate_context(
                [np.zeros(2), np.zeros(3)], [1, 1], AggregationStrategy.SUM
            )
        with pytest.raises(DimensionMismatchError):
            aggregate_context([np.zeros(2)], [1, 1], AggregationStrategy.SUM)
        with pytest.raises(DimensionMismatchError):  # weights must be a sequence
            aggregate_context([np.zeros(2)], 1.0, AggregationStrategy.SUM)

    def test_negative_weight(self):
        with pytest.raises(NegativeWeightError):
            aggregate_context(
                [np.zeros(2), np.zeros(2)], [0.5, -0.1], AggregationStrategy.WEIGHTED_AVERAGE
            )

    def test_zero_total_weight_gives_zero(self):
        out = aggregate_context(
            [np.ones(3), np.ones(3)], [0.0, 0.0], AggregationStrategy.WEIGHTED_AVERAGE
        )
        assert np.array_equal(out, np.zeros(3))

    def test_unnormalized_is_discounted_sum(self):
        vecs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        out = aggregate_context(
            vecs, [0.5, 0.25], AggregationStrategy.WEIGHTED_AVERAGE, normalize=False
        )
        assert np.allclose(out, [0.5, 0.25], atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(_context_sets())
    def test_uniform_weights_equal_average(self, data):
        vecs, _ = data
        arrays = [np.array(v) for v in vecs]
        uniform = [1.0] * len(arrays)
        weighted = aggregate_context(arrays, uniform, AggregationStrategy.WEIGHTED_AVERAGE)
        average = aggregate_context(arrays, uniform, AggregationStrategy.AVERAGE)
        assert np.max(np.abs(weighted - average)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(_context_sets())
    def test_weighted_average_in_convex_hull(self, data):
        vecs, weights = data
        arrays = [np.array(v) for v in vecs]
        out = aggregate_context(arrays, weights, AggregationStrategy.WEIGHTED_AVERAGE)
        stack = np.stack(arrays)
        assert np.all(out >= stack.min(axis=0) - 1e-9)
        assert np.all(out <= stack.max(axis=0) + 1e-9)


class TestConcatFeatures:
    def test_lengths_per_scheme(self):
        u, v = np.arange(4.0), np.ones(4)
        assert concat_features(u, v, ConcatScheme.UV).shape == (8,)
        assert concat_features(u, v, ConcatScheme.UV_MUL).shape == (12,)
        assert concat_features(u, v, ConcatScheme.UV_ABSDIFF).shape == (12,)
        assert concat_features(u, v, ConcatScheme.UV_ABSDIFF_MUL).shape == (16,)

    def test_block_contents(self):
        u = np.array([1.0, -2.0])
        v = np.array([3.0, 1.0])
        out = concat_features(u, v, ConcatScheme.UV_ABSDIFF_MUL)
        assert np.array_equal(out[:2], u)
        assert np.array_equal(out[2:4], v)
        assert np.array_equal(out[4:6], np.abs(u - v))
        assert np.array_equal(out[6:], u * v)
        assert np.all(out[4:6] >= 0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            concat_features(np.zeros(3), np.zeros(4), ConcatScheme.UV)


@pytest.fixture
def known_provider(tmp_path, forked_tree):
    # hand-set vectors so expected feature values can be derived by hand
    table = {
        "a0": np.array([1.0, 0.0, 0.0]),
        "a1": np.array([0.0, 1.0, 0.0]),
        "a2": np.array([0.0, 0.0, 1.0]),
        "a3": np.array([1.0, 1.0, 0.0]),
        "a4": np.array([0.0, 1.0, 1.0]),
    }
    path = tmp_path / "emb.txt"
    save_external_embeddings(table, path)
    return load_external_embeddings(path)


class TestFeaturizeNode:
    def test_single_node_tree_absdiff(self):
        tree = build_tree([CommentNode("solo", None, "alpha beta")])
        provider = HashedBowProvider(16, normalize=False)
        row = featurize_node(
            tree,
            "solo",
            provider,
            RunConfig(p=0.5, gamma=0.9, walk_length=4),
            derived_rng(0),
        )
        u = provider.vector_for(tree.node("solo"))
        assert np.array_equal(row[:16], u)
        assert np.array_equal(row[16:32], np.zeros(16))
        assert np.array_equal(row[32:], np.abs(u))

    def test_gamma_zero_context_vanishes(self, forked_tree, known_provider):
        row = featurize_node(
            forked_tree,
            "a4",
            known_provider,
            RunConfig(p=0.7, gamma=0.0, walk_length=4),
            derived_rng(1),
        )
        v_block = row[3:6]
        assert np.array_equal(v_block, np.zeros(3))

    def test_deterministic_chain_weighted_average(self, forked_tree, known_provider):
        row = featurize_node(
            forked_tree,
            "a2",
            known_provider,
            RunConfig(p=1.0, gamma=0.5, walk_length=4),
            derived_rng(2),
        )
        # walk is (a2, a1, a0); oracle v = (0.5 x(a1) + 0.25 x(a0)) / 0.75
        x_a1 = np.array([0.0, 1.0, 0.0])
        x_a0 = np.array([1.0, 0.0, 0.0])
        expected_v = (0.5 * x_a1 + 0.25 * x_a0) / 0.75
        assert np.allclose(row[3:6], expected_v, atol=1e-12)
        assert np.allclose(row[:3], [0.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(row[6:], np.abs(row[:3] - expected_v), atol=1e-12)

    def test_p_one_is_rng_independent(self, forked_tree, known_provider):
        runs = [
            featurize_node(
                forked_tree,
                "a4",
                known_provider,
                RunConfig(p=1.0, gamma=0.8, walk_length=4),
                derived_rng(seed),
            )
            for seed in (0, 1, 2)
        ]
        for row in runs[1:]:
            assert np.array_equal(row, runs[0])


def _label_all(tree_records, label):
    return [
        CommentNode(r.id, r.parent_id, r.text, label if r.parent_id is not None else None)
        for r in tree_records
    ]


class TestFeaturizeCorpus:
    def _polarity_tree(self):
        return build_tree(
            [
                CommentNode("r", None, "root"),
                CommentNode("b", "r", "one", label="attack"),
                CommentNode("c", "b", "two", label="support"),
                CommentNode("d", "b", "three", label="attack"),
            ],
            tree_id="poltree",
        )

    def _hate_tree(self):
        return build_tree(
            [
                CommentNode("r", None, "root", label="non-hate"),
                CommentNode("b", "r", "one", label="hate"),
                CommentNode("c", "b", "two", label="non-hate"),
                CommentNode("d", "b", "three", label="non-hate"),
                CommentNode("e", "d", "four", label="hate"),
            ],
            tree_id="hatetree",
        )

    def test_polarity_example_per_non_root(self):
        examples = featurize_split(
            CorpusSide([self._polarity_tree()], HashedBowProvider(8), "polarity"),
            RunConfig(p=0.8, gamma=0.8, walk_length=4, seed=0),
        )
        assert len(examples) == 3
        assert examples.node_ids == ("b", "c", "d")
        assert examples.labels == ("attack", "support", "attack")
        assert examples.X.shape == (3, 24)
        assert not examples.X.flags.writeable
        assert [walk.start for walk in examples.walks] == ["b", "c", "d"]

    def test_hate_example_per_node(self):
        examples = featurize_split(
            CorpusSide([self._hate_tree()], HashedBowProvider(8), "hate"),
            RunConfig(task="hate", p=0.8, gamma=0.8, walk_length=4, seed=0),
        )
        assert len(examples) == 5

    def test_missing_label_raises(self, forked_tree):
        with pytest.raises(MissingLabelError):
            CorpusSide([forked_tree], HashedBowProvider(8), "polarity")

    def test_wrong_label_domain_raises(self):
        with pytest.raises(MissingLabelError):
            CorpusSide([self._hate_tree()], HashedBowProvider(8), "polarity")

    def test_canonical_order_and_determinism(self):
        trees = [self._hate_tree(), self._polarity_tree()]
        # order by tree id then node id, regardless of input order
        config = RunConfig(task="hate", p=0.6, gamma=0.5, walk_length=4, seed=3)
        first = featurize_split(CorpusSide([trees[0]], HashedBowProvider(8), "hate"), config)
        again = featurize_split(CorpusSide([trees[0]], HashedBowProvider(8), "hate"), config)
        assert list(first.node_ids) == sorted(first.node_ids)
        assert first.node_ids == again.node_ids
        assert np.array_equal(first.X, again.X)
        assert first.walks == again.walks

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            CorpusSide([self._hate_tree()], HashedBowProvider(8), "stance")

    def test_into_a_stack_row(self):
        side = CorpusSide([self._hate_tree()], HashedBowProvider(8), "hate")
        config = RunConfig(task="hate", p=0.6, gamma=0.5, walk_length=4, seed=3, scheme="uv_mul")
        alone = featurize_split(side, config)
        stack = np.zeros((2, 5, 24))
        into = featurize_split(side, config, out=stack[1])
        assert into.X.base is stack and not into.X.flags.writeable
        assert stack[1].tobytes() == alone.X.tobytes() and not stack[0].any()
        for scheme in ("uv", "uv_absdiff_mul"):  # 16 and 32 wide
            with pytest.raises(DimensionMismatchError):
                featurize_split(side, config.replace(scheme=scheme), out=stack[0])


class TestBatchAxis:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("normalize", [True, False])
    def test_batch_gives_the_bits_of_each_row(self, strategy, normalize):
        rng = np.random.default_rng(0)
        for k, d in ((1, 5), (3, 5), (12, 1), (12, 4)):
            stacks = rng.standard_normal((9, k, d)) * 10.0 ** rng.integers(-6, 6, (9, k, 1))
            stacks[rng.random(stacks.shape) < 0.2] = -0.0
            weights = walk_weights(k + 1, 0.7)[1:]
            batch = aggregate_context(stacks, weights, strategy, normalize=normalize)
            rows = [aggregate_context(list(s), weights, strategy, normalize=normalize) for s in stacks]
            assert batch.tobytes() == np.array(rows).tobytes()

    def test_concat_rows_and_out(self):
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal((2, 6, 3))
        for scheme in ConcatScheme:
            out = np.empty((6, concat_features(u[0], v[0], scheme).size))
            assert concat_features(u, v, scheme, out=out) is out
            assert np.array_equal(out, [concat_features(a, b, scheme) for a, b in zip(u, v)])


def _side_corpus(task, embedding, tmp_path):
    """A small corpus with its provider: hashed bag-of-words, or an external
    file of signed vectors with some negative zeros."""
    size = 6.0 if task == "hate" else 9.0
    trees = generate(
        CorpusSpec(num_trees=8, mean_tree_size=size, size_dispersion=1.0, seed=4, task=task)
    ).trees
    if embedding == "hashed":
        return trees, HashedBowProvider(8)
    rng = np.random.default_rng(5)
    table = {node.id: rng.standard_normal(6) for tree in trees for node in tree}
    for vec in list(table.values())[::3]:
        vec[:2] = -0.0
    save_external_embeddings(table, tmp_path / "emb.txt")
    return trees, load_external_embeddings(tmp_path / "emb.txt")


class TestCorpusSide:
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize(
        "text, dtype", [("", np.int8), ("w " * 200, np.int16), ("w " * 40_000, np.int32)]
    )
    def test_hashed_rows_decode_to_the_matrix_bytes(self, text, dtype, normalize):
        """A side keeps its counts in the narrowest integer dtype, and each
        row decodes to the row of the oracle's matrix, bit for bit."""
        texts = [text, "a b b c"]
        nodes = [CommentNode("n0", None, text, "hate"), CommentNode("n1", "n0", texts[1], "hate")]
        tree = build_tree(nodes, tree_id="t")
        side = CorpusSide([tree], HashedBowProvider(16, normalize), "hate")
        assert side.values.dtype == dtype
        rows = np.array([side_rows(side)[tree, node.id] for node in nodes])
        want = np.array([hashed_bow_oracle(text, 16, normalize) for text in texts])
        assert side.embeddings(rows).tobytes() == want.tobytes()

    def test_hashed_storage_is_a_quarter_of_float64(self):
        """With every count in int16, a hashed side's values take at most a
        quarter of its float64 matrix, beside one divisor per row."""
        trees = generate(CorpusSpec(num_trees=20, mean_tree_size=6.0, seed=2, task="hate")).trees
        side = CorpusSide(trees, HashedBowProvider(64), "hate")
        n = sum(len(tree) for tree in trees)
        assert side.values.itemsize <= 2 and side.values.shape == (n, 64)
        assert side.values.nbytes <= n * 64 * 8 / 4 and side.divisors.nbytes == n * 8

    def test_external_rows_decode_to_the_table_bytes(self, tmp_path):
        trees, provider = _side_corpus("hate", "external", tmp_path)
        side = CorpusSide(trees, provider, "hate")
        _, rows, _ = side.walks(RunConfig(task="hate", walk_length=1))
        nodes = [tree.node(node_id) for tree, node_id in zip(side.trees, side.node_ids)]
        assert side.values.dtype == np.float64 and np.all(side.divisors == 1.0)
        table = parse_embeddings_oracle(tmp_path / "emb.txt")
        want = np.array([table[node.id] for node in nodes])
        assert side.embeddings(rows[:, 0]).tobytes() == want.tobytes()

    @pytest.mark.parametrize("task", ["hate", "polarity"])
    @pytest.mark.parametrize("embedding", ["hashed", "external"])
    def test_bytes_match_per_row(self, task, embedding, tmp_path):
        trees, provider = _side_corpus(task, embedding, tmp_path)
        side = CorpusSide(trees, provider, task)
        for L in (1, 2, 4, 7):
            for p in (0.0, 0.5, 1.0):
                for gamma in (0.0, 0.3, 1.0):
                    walk = RunConfig(task=task, p=p, gamma=gamma, walk_length=L, seed=11)
                    for strategy in STRATEGIES:
                        for normalize in (True, False):
                            for scheme in ConcatScheme:
                                config = walk.replace(
                                    aggregation=strategy.value,
                                    scheme=scheme.value,
                                    normalize_weights=normalize,
                                )
                                got = featurize_split(side, config)
                                want = per_row_features(trees, provider, config)
                                assert got.X.tobytes() == want.tobytes(), (L, p, gamma)

    @pytest.mark.parametrize("task", ["hate", "polarity"])
    def test_rows_carry_their_trees(self, task, tmp_path):
        trees, provider = _side_corpus(task, "hashed", tmp_path)
        side = CorpusSide(trees, provider, task)
        config = RunConfig(task=task, p=0.5, gamma=1.0, seed=3, aggregation="sum", scheme="uv")
        examples = featurize_split(side, config)
        rows = list(zip(examples.trees, examples.node_ids, examples.walks))
        assert rows and all(node_id in tree for tree, node_id, _ in rows)
        assert all(set(walk.node_ids) <= set(tree.node_ids()) for tree, _, walk in rows)
        in_order = [(tree.tree_id, node.id) for tree, node in labeled_pois(trees, task)]
        assert [(tree.tree_id, node_id) for tree, node_id, _ in rows] == in_order

    def test_reused_walks_match_a_fresh_side(self, tmp_path):
        trees, provider = _side_corpus("hate", "hashed", tmp_path)
        side = CorpusSide(trees, provider, "hate")
        config = RunConfig(task="hate", p=0.5, gamma=0.8, seed=2)
        first = featurize_split(side, config)
        second = featurize_split(side, config.replace(gamma=0.3))
        assert second.walks is first.walks
        fresh = featurize_split(CorpusSide(trees, provider, "hate"), config.replace(gamma=0.3))
        assert second.walks == fresh.walks
        assert second.X.tobytes() == fresh.X.tobytes()

    def test_walks_sampled_once_per_seed(self, sampled_walks, tmp_path):
        trees, provider = _side_corpus("hate", "hashed", tmp_path)
        side = CorpusSide(trees, provider, "hate")
        for seed in (0, 1):
            for gamma in (0.2, 0.9):
                for scheme in ConcatScheme:
                    config = RunConfig(task="hate", p=0.4, gamma=gamma, seed=seed)
                    featurize_split(side, config.replace(aggregation="sum", scheme=scheme.value))
        assert len(sampled_walks) == 2 * len(side.labels)
        featurize_split(side, config.replace(p=0.6, gamma=1.0, seed=0))
        assert len(sampled_walks) == 3 * len(side.labels)

    def test_returning_to_an_earlier_seed_samples_again(self, sampled_walks, tmp_path):
        trees, provider = _side_corpus("hate", "hashed", tmp_path)
        side = CorpusSide(trees, provider, "hate")
        for seed in (0, 1, 0):
            config = RunConfig(task="hate", p=0.4, gamma=1.0, seed=seed)
            featurize_split(side, config.replace(aggregation="sum", scheme="uv"))
        assert len(sampled_walks) == 3 * len(side.labels)

    def test_huge_walk_length_sizes_arrays_by_longest_walk(self, tmp_path):
        trees, provider = _side_corpus("polarity", "hashed", tmp_path)
        side = CorpusSide(trees, provider, "polarity")
        for p in (0.5, 1.0):
            walk = RunConfig(p=p, gamma=0.9, walk_length=10**6, seed=1, scheme="uv_absdiff_mul")
            _, rows, _ = side.walks(walk)
            assert rows.shape[1] <= max(len(tree) for tree in trees)
            for strategy in STRATEGIES:
                config = walk.replace(aggregation=strategy.value)
                got = featurize_split(side, config)
                want = per_row_features(trees, provider, config)
                assert got.X.tobytes() == want.tobytes()

    def test_blocks_cover_every_row(self, monkeypatch, tmp_path):
        trees, provider = _side_corpus("hate", "external", tmp_path)
        monkeypatch.setattr(features, "_BLOCK", 3)
        monkeypatch.setattr(features, "_STREAMS", 2)
        side = CorpusSide(trees, provider, "hate")
        config = RunConfig(
            task="hate", p=0.5, gamma=0.7, walk_length=7, seed=3, aggregation="average",
            scheme="uv_mul",
        )
        got = featurize_split(side, config)
        want = per_row_features(trees, provider, config)
        assert got.X.tobytes() == want.tobytes()


def test_walk_past_the_side_wide_draws_continues_its_stream():
    """At p = 0 the walk from "a" bounces between its two leaves until the
    step cap, three times past the draws taken side-wide; every return to
    "a" reads a draw, so each walk is its own stream's to the end."""
    nodes = [CommentNode("r", None, "r", "hate")]
    nodes += [CommentNode(n, parent, n, "hate") for n, parent in (("a", "r"), ("b", "a"), ("c", "a"))]
    tree = build_tree(nodes, tree_id="t")
    side = CorpusSide([tree], HashedBowProvider(8), "hate")
    for seed in range(4):
        config = RunConfig(task="hate", p=0.0, step_cap=3 * features._DRAWS + 1, seed=seed)
        samples, _, _ = side.walks(config)
        want = [sample_walk(tree, n, config, walk_rng(seed, "t", n).random) for n in side.node_ids]
        assert list(samples) == want
        assert len(samples[side.node_ids.index("a")].raw_steps) == config.step_cap


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    sizes=st.lists(st.integers(1, 15), min_size=1, max_size=4),
    task=st.sampled_from(["hate", "polarity"]),
    L=st.integers(1, 7),
    p=st.sampled_from([0.0, 0.5, 1.0]),
    short_cap=st.booleans(),
)
def test_walk_rows_follow_the_documented_row_order(seed, sizes, task, L, p, short_cap):
    """On a random forest, each walk's rows are its sampled ids mapped
    through the side's documented row order, padded with row 0 to the
    longest walk, and its length is the number of ids it collected."""
    rng = np.random.default_rng(seed)
    labels = features.TASK_LABELS[task]
    trees = [
        random_tree(rng, size, tree_id=f"t{i}", label_choices=labels)
        for i, size in enumerate(sizes)
    ]
    side = CorpusSide(trees, HashedBowProvider(4), task)
    config = RunConfig(
        task=task, p=p, walk_length=L, step_cap=L - 1 if short_cap else None, seed=seed
    )
    _, rows, lengths = side.walks(config)
    order = side_rows(side)
    pois = list(zip(side.trees, side.node_ids))
    walks = [sample_walk(t, n, config, walk_rng(seed, t.tree_id, n).random).node_ids for t, n in pois]
    want = np.zeros((len(walks), max(map(len, walks), default=1)), dtype=np.intp)
    for i, ((tree, _), walk) in enumerate(zip(pois, walks)):
        want[i, : len(walk)] = [order[tree, node_id] for node_id in walk]
    assert lengths.tolist() == list(map(len, walks))
    assert rows.dtype == want.dtype and rows.shape == want.shape
    assert rows.tobytes() == want.tobytes()
