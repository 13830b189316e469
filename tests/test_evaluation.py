"""Metrics from confusion matrices, tree splits and error analysis."""

import numpy as np
import pytest

from threadwalk.errors import EmptyEvalSetError, NotBinaryTaskError, TooFewTreesError
from threadwalk.evaluation import error_analysis, evaluate, report_from_pairs, split_trees
from threadwalk.model import SoftmaxModel
from threadwalk.tree import CommentNode, build_tree
from threadwalk.walks import WalkSample

from conftest import make_examples


def _pairs_from_counts(counts):
    """Expand {(true, predicted): n} into flat label lists."""
    y_true, y_pred = [], []
    for (t, p), n in counts.items():
        y_true += [t] * n
        y_pred += [p] * n
    return y_true, y_pred


def _identity_model(class_names):
    """Model whose argmax on a one-hot feature returns that class."""
    n = len(class_names)
    return SoftmaxModel(np.eye(n), np.zeros(n), tuple(class_names))


def _examples_for(counts, class_names, prefix="n", tree=None):
    """One example per counted (true, predicted) pair, with a one-hot
    feature on the predicted class; node ids are ``prefix`` + index."""
    y_true, y_pred = _pairs_from_counts(counts)
    rows = [np.eye(len(class_names))[class_names.index(p)] for p in y_pred]
    node_ids = [f"{prefix}{i:04d}" for i in range(len(y_true))]
    return make_examples(rows, y_true, node_ids=node_ids, tree=tree)


def _walk(poi, *context):
    """A walk from ``poi`` that collected ``context``, for error listings."""
    return WalkSample((poi, *context), context)


class TestReportFromPairs:
    def test_hate_row_from_known_counts(self):
        y_true, y_pred = _pairs_from_counts(
            {
                ("non-hate", "non-hate"): 1093,
                ("non-hate", "hate"): 36,
                ("hate", "non-hate"): 62,
                ("hate", "hate"): 40,
            }
        )
        report = report_from_pairs(y_true, y_pred)
        assert report.positive_label == "hate"
        assert report.precision_pos == pytest.approx(0.53, abs=0.005)
        assert report.recall_pos == pytest.approx(0.39, abs=0.005)
        assert report.f1_pos == pytest.approx(0.45, abs=0.005)
        assert int(report.confusion.sum()) == 1231

    def test_accuracy_from_known_counts(self):
        y_true, y_pred = _pairs_from_counts(
            {
                ("non-hate", "non-hate"): 1101,
                ("non-hate", "hate"): 28,
                ("hate", "non-hate"): 54,
                ("hate", "hate"): 48,
            }
        )
        report = report_from_pairs(y_true, y_pred)
        assert report.accuracy == pytest.approx((1101 + 48) / 1231, abs=1e-12)

    def test_perfect_predictor(self):
        labels = ["a", "b", "a", "b", "b"]
        report = report_from_pairs(labels, labels)
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(0)
        classes = ["x", "y", "z"]
        y_true = [classes[i] for i in rng.integers(0, 3, 300)]
        y_pred = [classes[i] for i in rng.integers(0, 3, 300)]
        report = report_from_pairs(y_true, y_pred)

        # independent tally straight over the raw pairs
        acc = sum(t == p for t, p in zip(y_true, y_pred)) / len(y_true)
        assert abs(report.accuracy - acc) < 1e-9
        f1s = []
        for cls in classes:
            tp = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p == cls)
            fp = sum(1 for t, p in zip(y_true, y_pred) if t != cls and p == cls)
            fn = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p != cls)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
        assert abs(report.macro_f1 - sum(f1s) / 3) < 1e-9
        assert 0.0 <= report.macro_f1 <= 1.0
        assert 0.0 <= report.accuracy <= 1.0
        # accuracy equals trace / total
        assert report.accuracy == pytest.approx(
            np.trace(report.confusion) / report.confusion.sum(), abs=1e-12
        )

    def test_zero_support_class_flagged(self):
        report = report_from_pairs(["a", "a"], ["a", "b"], class_names=("a", "b"))
        assert report.zero_support_classes == ("b",)
        assert report.f1_per_class[1] == 0.0

    def test_positive_label_for_polarity(self):
        report = report_from_pairs(["support", "attack"], ["support", "attack"])
        assert report.positive_label == "support"

    def test_pairs_of_unequal_length(self):
        with pytest.raises(ValueError, match="^2 true labels but 1 predictions$"):
            report_from_pairs(["a", "b"], ["a"])

    def test_text_names_classes_without_test_support(self):
        report = report_from_pairs(["a", "a"], ["a", "b"], class_names=("a", "b", "c"))
        assert report.to_text().splitlines()[-1] == "no test support: b, c"

    def test_empty_pairs(self):
        with pytest.raises(EmptyEvalSetError):
            report_from_pairs([], [])

    def test_text_rendering(self):
        report = report_from_pairs(["hate", "non-hate"], ["hate", "hate"])
        text = report.to_text()
        assert "confusion matrix" in text
        assert "accuracy" in text
        assert "positive class  hate" in text


class TestEvaluate:
    def test_through_identity_model(self):
        classes = ["hate", "non-hate"]
        counts = {
            ("non-hate", "non-hate"): 9,
            ("non-hate", "hate"): 2,
            ("hate", "non-hate"): 1,
            ("hate", "hate"): 3,
        }
        report = evaluate(_identity_model(classes), _examples_for(counts, classes))
        assert report.confusion.tolist() == [[3, 1], [2, 9]]
        assert report.accuracy == pytest.approx(12 / 15)

    def test_empty(self):
        with pytest.raises(EmptyEvalSetError):
            evaluate(_identity_model(["a", "b"]), make_examples(np.empty((0, 2)), []))


class TestSplitTrees:
    @staticmethod
    def _single_node_trees(n):
        return [
            build_tree([CommentNode(f"r{i}", None, "x")], tree_id=f"t{i:05d}")
            for i in range(n)
        ]

    def test_eight_two(self):
        train, test = split_trees(self._single_node_trees(10), 0.8, seed=0)
        assert len(train) == 8 and len(test) == 2

    def test_large_split_arithmetic(self):
        train, test = split_trees(self._single_node_trees(1560), 0.8, seed=1)
        assert len(train) == 1248 and len(test) == 312

    def test_deterministic_per_seed(self):
        trees = self._single_node_trees(20)
        a_train, a_test = split_trees(trees, 0.7, seed=5)
        b_train, b_test = split_trees(trees, 0.7, seed=5)
        assert [t.tree_id for t in a_train] == [t.tree_id for t in b_train]
        assert [t.tree_id for t in a_test] == [t.tree_id for t in b_test]
        c_train, _ = split_trees(trees, 0.7, seed=6)
        assert [t.tree_id for t in c_train] != [t.tree_id for t in a_train]

    def test_partition(self):
        trees = self._single_node_trees(17)
        train, test = split_trees(trees, 0.66, seed=2)
        train_ids = {t.tree_id for t in train}
        test_ids = {t.tree_id for t in test}
        assert train_ids | test_ids == {t.tree_id for t in trees}
        assert train_ids & test_ids == set()

    def test_both_sides_non_empty_at_extremes(self):
        trees = self._single_node_trees(2)
        train, test = split_trees(trees, 0.99, seed=0)
        assert len(train) == 1 and len(test) == 1

    def test_too_few(self):
        with pytest.raises(TooFewTreesError):
            split_trees(self._single_node_trees(1), 0.8, seed=0)

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            split_trees(self._single_node_trees(4), 1.0, seed=0)


class TestErrorAnalysis:
    def _setup(self):
        classes = ["hate", "non-hate"]
        tree = build_tree(
            [
                CommentNode("r", None, "root text", label="non-hate"),
                CommentNode("b", "r", "bad text", label="hate"),
                CommentNode("c", "r", "fine text", label="non-hate"),
                CommentNode("d", "c", "more text", label="non-hate"),
            ],
            tree_id="t",
        )
        # b predicted non-hate (FN), d predicted hate (FP), others correct
        rows = [  # node id, true label, predicted label, walk context
            ("r", "non-hate", "non-hate", ()),
            ("b", "hate", "non-hate", ("r",)),
            ("c", "non-hate", "non-hate", ("r",)),
            ("d", "non-hate", "hate", ("c", "r")),
        ]
        examples = make_examples(
            [np.eye(2)[classes.index(pred)] for _, _, pred, _ in rows],
            [true for _, true, _, _ in rows],
            node_ids=[nid for nid, _, _, _ in rows],
            walks=[_walk(nid, *ctx) for nid, _, _, ctx in rows],
            tree=tree,
        )
        return _identity_model(classes), examples, tree

    def test_listings_reconcile_with_confusion(self):
        model, examples, tree = self._setup()
        positive_label, records = error_analysis(model, examples)
        kinds = [record["kind"] for record in records]
        assert (positive_label, kinds) == ("hate", ["fp", "fn"])
        report = evaluate(model, examples)
        confusion = report.confusion
        pos = report.class_names.index("hate")
        neg = 1 - pos
        assert confusion[neg, pos] == kinds.count("fp")
        assert confusion[pos, neg] == kinds.count("fn")

    def test_records_carry_context_texts(self):
        model, examples, tree = self._setup()
        _, records = error_analysis(model, examples)
        assert records[0] == {
            "kind": "fp",
            "tree_id": "t",
            "node_id": "d",
            "text": "more text",
            "true_label": "non-hate",
            "predicted_label": "hate",
            "context": [{"id": "c", "text": "fine text"}, {"id": "r", "text": "root text"}],
        }
        assert records[1]["node_id"] == "b" and len(records) == 2

    def test_perfect_predictor_empty(self):
        model, examples, tree = self._setup()
        keep = [examples.node_ids.index(nid) for nid in ("r", "c")]
        correct = make_examples(
            [*examples.X[keep], np.eye(2)[0]],
            [*(examples.labels[i] for i in keep), "hate"],
            node_ids=["r", "c", "b"],
            walks=[*(examples.walks[i] for i in keep), _walk("b", "r")],
            tree=tree,
        )
        assert error_analysis(model, correct) == ("hate", [])

    def test_counts_from_known_confusion(self):
        classes = ["hate", "non-hate"]
        counts = {
            ("non-hate", "non-hate"): 1093,
            ("non-hate", "hate"): 36,
            ("hate", "non-hate"): 62,
            ("hate", "hate"): 40,
        }
        records = [CommentNode("root", None, "root", label="non-hate")]
        for i, true in enumerate(_pairs_from_counts(counts)[0]):
            records.append(CommentNode(f"e{i:04d}", "root", f"text {i}", label=true))
        tree = build_tree(records, tree_id="t")
        examples = _examples_for(counts, classes, prefix="e", tree=tree)
        _, records = error_analysis(_identity_model(classes), examples)
        kinds = [record["kind"] for record in records]
        assert kinds == ["fp"] * 36 + ["fn"] * 62
        assert all(record["predicted_label"] == "hate" for record in records[:36])

    def test_not_binary(self):
        classes = ["a", "b", "c"]
        tree = build_tree([CommentNode("r", None, "x", label="a")], tree_id="t")
        examples = make_examples([np.eye(3)[0]], ["a"], node_ids=["r"], tree=tree)
        with pytest.raises(NotBinaryTaskError):
            error_analysis(_identity_model(classes), examples)
