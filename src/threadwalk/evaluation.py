"""Tree-level splits, confusion-matrix metrics and error analysis.

All metrics derive from the confusion matrix alone (rows = true label,
columns = prediction). Macro-F1 is the arithmetic mean of per-class F1
scores; classes without test support contribute F1 = 0 and are flagged.
For binary tasks the positive-class view is reported as well.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyEvalSetError,
    NotBinaryTaskError,
    TooFewTreesError,
    UnknownIdError,
)
from .features import Examples
from .model import SoftmaxModel, predict_labels
from .seeding import derived_rng
from .tree import DiscussionTree

_POSITIVE_CANDIDATES = ("hate", "support")


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

    @property
    def total(self) -> int:
        return int(self.confusion.sum())

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
        lines.append(f"accuracy        {self.accuracy:.6f}")
        lines.append(f"macro_f1        {self.macro_f1:.6f}")
        lines.append(f"macro_precision {self.macro_precision:.6f}")
        lines.append(f"macro_recall    {self.macro_recall:.6f}")
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
    positive_label: str | None = None,
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
    return _report_from_confusion(names, confusion, positive_label)


def _report_from_confusion(
    names: tuple[str, ...], confusion: np.ndarray, positive_label: str | None
) -> EvalReport:
    total = int(confusion.sum())
    diag = np.diag(confusion).astype(np.float64)
    col_sums = confusion.sum(axis=0).astype(np.float64)
    row_sums = confusion.sum(axis=1).astype(np.float64)

    precision = np.divide(diag, col_sums, out=np.zeros_like(diag), where=col_sums > 0)
    recall = np.divide(diag, row_sums, out=np.zeros_like(diag), where=row_sums > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum, out=np.zeros_like(diag), where=pr_sum > 0)

    zero_support = tuple(names[i] for i in range(len(names)) if row_sums[i] == 0)
    if zero_support:
        warnings.warn(
            f"classes with no test support score f1 = 0: {list(zero_support)}",
            stacklevel=3,
        )

    pos = None
    if len(names) == 2:
        pos = positive_label if positive_label is not None else _default_positive(names)
        if pos not in names:
            raise ValueError(f"positive label {pos!r} not among classes {names}")
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


def _default_positive(names: tuple[str, ...]) -> str:
    for candidate in _POSITIVE_CANDIDATES:
        if candidate in names:
            return candidate
    return names[-1]


def evaluate(model: SoftmaxModel, examples: Examples) -> EvalReport:
    """Score a model on labeled examples via argmax predictions."""
    return _predict_and_score(model, examples)[0]


def _predict_and_score(model: SoftmaxModel, examples: Examples) -> tuple[EvalReport, list[str]]:
    predictions = predict_labels(model, examples.X)
    names = tuple(sorted(set(model.class_names) | set(examples.labels)))
    return report_from_pairs(examples.labels, predictions, names), predictions


@dataclass(frozen=True)
class Misclassification:
    """One wrongly predicted example with its walk-sampled context."""

    tree_id: str
    node_id: str
    text: str
    true_label: str
    predicted_label: str
    context: tuple[tuple[str, str], ...]  # (node id, text) pairs

    def to_dict(self) -> dict:
        return {
            "tree_id": self.tree_id,
            "node_id": self.node_id,
            "text": self.text,
            "true_label": self.true_label,
            "predicted_label": self.predicted_label,
            "context": [{"id": cid, "text": ctext} for cid, ctext in self.context],
        }


@dataclass(frozen=True)
class ErrorAnalysisResult:
    """False-positive and false-negative listings for a binary task."""

    positive_label: str
    false_positives: tuple[Misclassification, ...]
    false_negatives: tuple[Misclassification, ...]
    report: EvalReport

    def to_jsonl(self) -> str:
        lines = [
            json.dumps({"kind": "fp", **rec.to_dict()}, sort_keys=True)
            for rec in self.false_positives
        ]
        lines += [
            json.dumps({"kind": "fn", **rec.to_dict()}, sort_keys=True)
            for rec in self.false_negatives
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def error_analysis(
    model: SoftmaxModel,
    examples: Examples,
    trees: Iterable[DiscussionTree],
) -> ErrorAnalysisResult:
    """List every misclassified example with surrounding context texts
    (the nodes its walk collected after the PoI; none without walks).

    The FP/FN counts reconcile with the confusion matrix by construction.
    """
    report, predictions = _predict_and_score(model, examples)
    if len(report.class_names) != 2:
        raise NotBinaryTaskError(
            f"error analysis needs a binary task, got classes {report.class_names}"
        )
    by_id = {tree.tree_id: tree for tree in trees}
    pos = report.positive_label
    walks = examples.walks or (None,) * len(examples)

    fps: list[Misclassification] = []
    fns: list[Misclassification] = []
    rows = zip(examples.tree_ids, examples.node_ids, examples.labels, predictions, walks)
    for tree_id, node_id, label, pred, walk in rows:
        if pred == label:
            continue
        tree = by_id.get(tree_id)
        if tree is None:
            raise UnknownIdError(f"tree {tree_id!r} not in the supplied corpus")
        context_ids = walk.node_ids[1:] if walk is not None else ()
        record = Misclassification(
            tree_id=tree_id,
            node_id=node_id,
            text=tree.node(node_id).text,
            true_label=label,
            predicted_label=pred,
            context=tuple((cid, tree.node(cid).text) for cid in context_ids),
        )
        if pred == pos:
            fps.append(record)
        else:
            fns.append(record)
    return ErrorAnalysisResult(
        positive_label=pos,
        false_positives=tuple(fps),
        false_negatives=tuple(fns),
        report=report,
    )
