"""Tree-level splits, confusion-matrix metrics and error analysis.

All metrics derive from the confusion matrix alone (rows = true label,
columns = prediction). Macro-F1 is the arithmetic mean of per-class F1
scores; classes without test support contribute F1 = 0 and are flagged.
For binary tasks the positive-class view is reported as well.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyEvalSetError, NotBinaryTaskError, TooFewTreesError
from .features import HATE_TASK, POLARITY_TASK, TASK_LABELS, CorpusSide
from .model import SoftmaxModel, predict_labels
from .seeding import derived_rng
from .tree import DiscussionTree
from .walks import WalkSample

# The positive class of a binary report is the first of these among its
# classes (hate before support), else its last class.
_POSITIVE_PREFERENCE = tuple(TASK_LABELS[task][0] for task in (HATE_TASK, POLARITY_TASK))


@dataclass(frozen=True)
class EvalReport:
    """Confusion matrix with every metric derived from it."""

    class_names: tuple[str, ...]
    confusion: np.ndarray  # (C, C) int64, rows = true, cols = predicted
    accuracy: float
    macro_f1: float
    macro_precision: float
    macro_recall: float
    precision_per_class: tuple[float, ...]
    recall_per_class: tuple[float, ...]
    f1_per_class: tuple[float, ...]
    positive_label: str | None
    precision_pos: float | None
    recall_pos: float | None
    f1_pos: float | None
    zero_support_classes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "confusion": self.confusion.tolist()}

    def to_text(self) -> str:
        width = max([len(c) for c in self.class_names] + [10])
        lines = ["confusion matrix (rows = true, cols = predicted)"]
        header = " " * (width + 2) + "  ".join(f"{c:>{width}}" for c in self.class_names)
        lines.append(header)
        for name, row in zip(self.class_names, self.confusion):
            cells = "  ".join(f"{int(v):>{width}}" for v in row)
            lines.append(f"{name:>{width}}  {cells}")
        lines.append("")
        for name in ("accuracy", "macro_f1", "macro_precision", "macro_recall"):
            lines.append(f"{name:<16}{getattr(self, name):.6f}")
        if self.positive_label is not None:
            lines.append(
                f"positive class  {self.positive_label}"
                f"  precision {self.precision_pos:.6f}"
                f"  recall {self.recall_pos:.6f}"
                f"  f1 {self.f1_pos:.6f}"
            )
        if self.zero_support_classes:
            lines.append(f"no test support: {', '.join(self.zero_support_classes)}")
        return "\n".join(lines) + "\n"


def split_trees(
    trees: Sequence[DiscussionTree], train_fraction: float, seed: int
) -> tuple[list[DiscussionTree], list[DiscussionTree]]:
    """Partition whole trees into train and test sets.

    Deterministic per seed; the train side gets round(n * fraction)
    trees, clamped so both sides stay non-empty.
    """
    if len(trees) < 2:
        raise TooFewTreesError(f"need at least 2 trees to split, got {len(trees)}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    ordered = sorted(trees, key=lambda t: t.tree_id)
    perm = derived_rng(seed, "tree-split").permutation(len(ordered))
    k = int(len(ordered) * train_fraction + 0.5)
    k = min(max(k, 1), len(ordered) - 1)
    train = [ordered[i] for i in perm[:k]]
    test = [ordered[i] for i in perm[k:]]
    return train, test


def report_from_pairs(
    y_true: Sequence[str],
    y_pred: Sequence[str],
    class_names: Sequence[str] | None = None,
) -> EvalReport:
    """Tally a confusion matrix from raw (true, predicted) pairs."""
    if len(y_true) == 0:
        raise EmptyEvalSetError("no (true, predicted) pairs to evaluate")
    if len(y_true) != len(y_pred):
        raise ValueError(f"{len(y_true)} true labels but {len(y_pred)} predictions")
    names = tuple(class_names) if class_names else tuple(sorted(set(y_true) | set(y_pred)))
    index = {name: i for i, name in enumerate(names)}
    confusion = np.zeros((len(names), len(names)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        confusion[index[t], index[p]] += 1
    return _report_from_confusion(names, confusion)


def _report_from_confusion(names: tuple[str, ...], confusion: np.ndarray) -> EvalReport:
    total = int(confusion.sum())
    diag = np.diag(confusion).astype(np.float64)
    col_sums = confusion.sum(axis=0).astype(np.float64)
    row_sums = confusion.sum(axis=1).astype(np.float64)

    precision = np.divide(diag, col_sums, out=np.zeros_like(diag), where=col_sums > 0)
    recall = np.divide(diag, row_sums, out=np.zeros_like(diag), where=row_sums > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum, out=np.zeros_like(diag), where=pr_sum > 0)

    zero_support = tuple(names[i] for i in range(len(names)) if row_sums[i] == 0)

    pos = _positive_label(names) if len(names) == 2 else None
    pos_idx = names.index(pos) if pos is not None else None

    return EvalReport(
        class_names=names,
        confusion=confusion,
        accuracy=float(diag.sum() / total),
        macro_f1=float(f1.mean()),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        precision_per_class=tuple(precision.tolist()),
        recall_per_class=tuple(recall.tolist()),
        f1_per_class=tuple(f1.tolist()),
        positive_label=pos,
        precision_pos=float(precision[pos_idx]) if pos_idx is not None else None,
        recall_pos=float(recall[pos_idx]) if pos_idx is not None else None,
        f1_pos=float(f1[pos_idx]) if pos_idx is not None else None,
        zero_support_classes=zero_support,
    )


def _positive_label(names: tuple[str, ...]) -> str:
    for candidate in _POSITIVE_PREFERENCE:
        if candidate in names:
            return candidate
    return names[-1]


def evaluate(model: SoftmaxModel, X: np.ndarray, labels: Sequence[str]) -> EvalReport:
    """Score a model on the feature rows ``X``, labeled ``labels``, by argmax."""
    names = tuple(sorted(set(model.class_names) | set(labels)))
    return report_from_pairs(labels, predict_labels(model, X), names)


def error_analysis(
    model: SoftmaxModel, X: np.ndarray, side: CorpusSide, walks: Sequence[WalkSample]
) -> tuple[str, list[dict]]:
    """The positive label, and the record that one line of ``errors.jsonl``
    holds for each misclassified row of the side's ``X``: false positives
    first, each group in row order. A record's ``context`` lists the nodes
    its row's walk in ``walks`` collected after the PoI, with their texts.

    The FP/FN counts reconcile with the confusion matrix by construction.
    """
    names = tuple(sorted(set(model.class_names) | set(side.labels)))  # as evaluate's report
    if len(names) != 2:
        raise NotBinaryTaskError(f"error analysis needs a binary task, got classes {names}")
    pos = _positive_label(names)
    predictions = predict_labels(model, X)
    rows = zip(side.trees, side.node_ids, side.labels, predictions, walks)
    records = [
        {
            "kind": "fp" if pred == pos else "fn",
            "tree_id": tree.tree_id,
            "node_id": node_id,
            "text": tree.node(node_id).text,
            "true_label": label,
            "predicted_label": pred,
            "context": [{"id": cid, "text": tree.node(cid).text} for cid in walk.node_ids[1:]],
        }
        for tree, node_id, label, pred, walk in rows
        if pred != label
    ]
    # A stable sort, so each kind keeps row order.
    return pos, sorted(records, key=lambda record: record["kind"] == "fn")
