"""Synthetic corpus generator: calibration, determinism, planted signals."""

import pytest

from threadwalk import synthetic
from threadwalk.corpus import save_corpus
from threadwalk.errors import InvalidSpecError
from threadwalk.evaluation import evaluate, report_from_pairs, split_trees
from threadwalk.features import TASK_LABELS, TASKS
from threadwalk.pipeline import RunConfig
from threadwalk.embeddings import tokenize
from threadwalk.synthetic import (
    MAX_BRANCHING,
    MAX_EXPECTED_NODES,
    MAX_MEAN_TREE_SIZE,
    MAX_SIZE_DISPERSION,
    PLANT_PREFIX,
    SELF_NEG_TOKEN,
    SELF_POS_TOKEN,
    _ANCESTOR_DISTANCE,
    CorpusSpec,
    generate,
    plant_token,
)

from conftest import ancestors, bow_examples, bow_logreg_baseline


class TestSpecValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"num_trees": 0},
            {"mean_tree_size": 0.5},
            {"positive_fraction": 1.5},
            {"context_signal": -0.1},
            {"vocabulary_size": 0},
            {"branching": 0.0},
            {"task": "stance"},
            {"size_dispersion": -1.0},
            {"mean_tree_size": float("nan")},
            {"mean_tree_size": float("inf")},
            {"size_dispersion": float("nan")},
            {"size_dispersion": float("inf")},
            {"branching": float("nan")},
            {"branching": float("inf")},
            {"seed": -1},
            {"branching": 1e308},
            {"branching": MAX_BRANCHING * 1.5},
            {"mean_tree_size": 1e300},
            {"mean_tree_size": MAX_MEAN_TREE_SIZE + 1},
            {"num_trees": MAX_EXPECTED_NODES + 1, "mean_tree_size": 1.0},
            {"num_trees": 10**400},
            {"num_trees": MAX_EXPECTED_NODES // 12 + 1, "mean_tree_size": 12.0},
            {"size_dispersion": MAX_SIZE_DISPERSION + 0.5},
            {"size_dispersion": 1e200},
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(InvalidSpecError):
            CorpusSpec(**bad)

    def test_limits_accepted(self):
        CorpusSpec(num_trees=MAX_EXPECTED_NODES, mean_tree_size=1.0)
        CorpusSpec(num_trees=100, mean_tree_size=MAX_MEAN_TREE_SIZE)
        corpus = generate(CorpusSpec(num_trees=3, branching=MAX_BRANCHING, seed=0))
        assert len(corpus.trees) == 3
        corpus = generate(CorpusSpec(num_trees=3, size_dispersion=MAX_SIZE_DISPERSION, seed=0))
        assert len(corpus.trees) == 3


class TestCalibration:
    def test_balanced_polarity_ratio(self):
        spec = CorpusSpec(
            num_trees=1000,
            mean_tree_size=11.0,
            positive_fraction=0.431,
            context_signal=0.5,
            seed=1,
            task="polarity",
        )
        corpus = generate(spec)
        assert sum(len(t) for t in corpus.trees) >= 10_000
        assert corpus.positive_fraction_realized() == pytest.approx(0.431, abs=0.02)

    def test_imbalanced_hate_ratio(self):
        spec = CorpusSpec(
            num_trees=1000,
            mean_tree_size=11.0,
            positive_fraction=0.106,
            context_signal=0.5,
            seed=2,
            task="hate",
        )
        corpus = generate(spec)
        assert sum(len(t) for t in corpus.trees) >= 10_000
        assert corpus.positive_fraction_realized() == pytest.approx(0.106, abs=0.02)

    def test_polarity_example_count_matches_replies(self):
        spec = CorpusSpec(num_trees=50, positive_fraction=0.431, seed=3, task="polarity")
        corpus = generate(spec)
        replies = sum(len(t) - 1 for t in corpus.trees)
        labeled = sum(1 for t in corpus.trees for n in t if n.label is not None)
        assert labeled == replies


class TestLabelTable:
    """``TASK_LABELS[task]``, positive label first, is the only spelling of
    a task's labels: the generator, its realized fraction and the report's
    positive class all read it."""

    @pytest.mark.parametrize("task", TASKS)
    def test_generator_and_report_read_the_table(self, task):
        positive, negative = TASK_LABELS[task]
        corpus = generate(CorpusSpec(num_trees=30, positive_fraction=0.3, seed=5, task=task))
        labels = [n.label for t in corpus.trees for n in t if n.label is not None]
        assert set(labels) == {positive, negative}
        assert corpus.positive_fraction_realized() == labels.count(positive) / len(labels)
        # The negative label is listed last, so only the table picks the positive one.
        report = report_from_pairs([positive, negative], [negative, negative], (positive, negative))
        assert report.positive_label == positive

    @pytest.mark.parametrize("class_names", [None, ("hate", "support"), ("support", "hate")])
    def test_hate_before_support(self, class_names):
        report = report_from_pairs(["hate", "support"], ["support", "support"], class_names)
        assert report.positive_label == "hate"


class TestDeterminism:
    def test_same_spec_same_bytes(self, tmp_path):
        spec = CorpusSpec(num_trees=40, seed=9)
        one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_corpus(generate(spec).trees, one)
        save_corpus(generate(spec).trees, two)
        assert one.read_bytes() == two.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        one, two = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_corpus(generate(CorpusSpec(num_trees=40, seed=9)).trees, one)
        save_corpus(generate(CorpusSpec(num_trees=40, seed=10)).trees, two)
        assert one.read_bytes() != two.read_bytes()

    def test_tree_size_is_capped(self, monkeypatch):
        """Each size draw is clamped to MAX_TREE_SIZE but still taken, so the
        trees before the first clamped one are those of an unclamped run."""
        spec = CorpusSpec(num_trees=40, mean_tree_size=12.0, size_dispersion=1.5, seed=0)
        free = [(tree.tree_id, list(tree)) for tree in generate(spec).trees]
        monkeypatch.setattr(synthetic, "MAX_TREE_SIZE", 20)
        capped = [(tree.tree_id, list(tree)) for tree in generate(spec).trees]
        assert max(len(nodes) for _, nodes in capped) == 20
        first = next(i for i, (_, nodes) in enumerate(free) if len(nodes) > 20)
        assert first > 0 and capped[:first] == free[:first]


class TestPlantedSignals:
    def _corpus(self, task):
        return generate(
            CorpusSpec(
                num_trees=120,
                mean_tree_size=10.0,
                positive_fraction=0.3,
                context_signal=0.7,
                seed=4,
                task=task,
            )
        )

    @pytest.mark.parametrize("task", ["hate", "polarity"])
    def test_plant_only_on_ancestor_never_in_own_text(self, task):
        corpus = self._corpus(task)
        trees = {n.id: t for t in corpus.trees for n in t}
        checked = 0
        for node_id, source in corpus.provenance.items():
            if source != "context":
                continue
            tree = trees[node_id]
            # the planting ancestor sits _ANCESTOR_DISTANCE parents up, and
            # its plant token is tagged with its own depth
            ancestor_id = ancestors(tree, node_id)[_ANCESTOR_DISTANCE[task] - 1]
            token = plant_token(len(ancestors(tree, ancestor_id)), task)
            own_tokens = set(tokenize(tree.node(node_id).text))
            assert token not in own_tokens
            assert SELF_POS_TOKEN not in own_tokens
            assert SELF_NEG_TOKEN not in own_tokens
            # the deciding token sits on the ancestor iff it is hot, and
            # hotness encodes exactly the node's label
            ancestor_tokens = set(tokenize(tree.node(ancestor_id).text))
            positive = tree.node(node_id).label in ("hate", "support")
            assert (token in ancestor_tokens) == positive
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("task", ["hate", "polarity"])
    def test_self_borne_token_matches_label(self, task):
        corpus = self._corpus(task)
        nodes = {n.id: n for t in corpus.trees for n in t}
        checked = 0
        for node_id, source in corpus.provenance.items():
            if source != "self":
                continue
            own = set(tokenize(nodes[node_id].text))
            positive = nodes[node_id].label in ("hate", "support")
            assert (SELF_POS_TOKEN in own) == positive
            assert (SELF_NEG_TOKEN in own) == (not positive)
            checked += 1
        assert checked > 50

    def test_filler_tokens_stay_out_of_signal_vocab(self):
        corpus = self._corpus("hate")
        for tree in corpus.trees:
            for node in tree:
                for token in tokenize(node.text):
                    assert token.startswith(("w", PLANT_PREFIX, "ks"))


class TestContextSignalKnob:
    def _baseline_accuracy(self, context_signal, seed=5):
        spec = CorpusSpec(
            num_trees=300,
            mean_tree_size=8.0,
            positive_fraction=0.2,
            context_signal=context_signal,
            seed=seed,
            task="hate",
        )
        corpus = generate(spec)
        train_trees, test_trees = split_trees(corpus.trees, 0.8, seed=0)
        model = bow_logreg_baseline(
            train_trees, "hate", 256, RunConfig(epochs=40, seed=0, class_weighting=True)
        )
        X, side = bow_examples(test_trees, "hate", 256)
        report = evaluate(model, X, side.labels)
        majority = max(
            sum(1 for t in test_trees for n in t if n.label == "non-hate"),
            sum(1 for t in test_trees for n in t if n.label == "hate"),
        ) / sum(len(t) for t in test_trees)
        return report.accuracy, majority

    def test_no_context_signal_is_fully_decodable(self):
        accuracy, _ = self._baseline_accuracy(0.0)
        assert accuracy >= 0.97

    def test_full_context_signal_blinds_node_text_models(self):
        accuracy, majority = self._baseline_accuracy(1.0)
        assert accuracy <= majority + 0.05
