"""Classifier input construction around a point-of-interest comment.

The start of a walk is the point of interest (PoI). Its embedding ``u``
and the aggregate ``v`` of the remaining walk nodes (discounted by
``gamma ** k``, so context weights start at ``gamma ** 1``) are
concatenated under one of four schemes; ``(u, v, |u - v|)`` is the
default. An empty context yields ``v = 0``.

Featurizing a corpus side gives one :class:`Examples` record: a read-only
float64 matrix ``X`` with one row per PoI, written in place row by row,
plus the tree id, node id, label and walk of each row in the same order.
Training, evaluation, error analysis and the feature dump all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .embeddings import EmbeddingProvider, HashedBowProvider
from .errors import DimensionMismatchError, MissingLabelError, NegativeWeightError
from .tree import CommentNode, DiscussionTree
from .walks import WalkConfig, WalkSample, sample_walk, walk_rng

POLARITY_TASK = "polarity"
HATE_TASK = "hate"
TASKS = (POLARITY_TASK, HATE_TASK)
TASK_LABELS = {
    POLARITY_TASK: ("support", "attack"),
    HATE_TASK: ("hate", "non-hate"),
}


class AggregationStrategy(Enum):
    SUM = "sum"
    AVERAGE = "average"
    WEIGHTED_AVERAGE = "weighted_average"


class ConcatScheme(Enum):
    """Feature layouts: (u,v), (u,v,u*v), (u,v,|u-v|), (u,v,|u-v|,u*v)."""

    UV = "uv"
    UV_MUL = "uv_mul"
    UV_ABSDIFF = "uv_absdiff"
    UV_ABSDIFF_MUL = "uv_absdiff_mul"


@dataclass(frozen=True, eq=False)
class Examples:
    """The classifier input of one corpus side, one row per PoI.

    Row ``i`` of ``X`` (read-only float64, shape ``(n, D)``) holds the
    features of the PoI ``node_ids[i]`` in tree ``tree_ids[i]``, labeled
    ``labels[i]``. ``walks[i]`` is the walk the row was built from;
    ``walks`` is None for inputs built without walks.
    """

    X: np.ndarray
    tree_ids: tuple[str, ...]
    node_ids: tuple[str, ...]
    labels: tuple[str, ...]
    walks: tuple[WalkSample, ...] | None = None

    def __len__(self) -> int:
        return len(self.labels)


def aggregate_context(
    context_vectors: Sequence[np.ndarray],
    weights: Sequence[float],
    strategy: AggregationStrategy,
    *,
    dim: int | None = None,
    normalize: bool = True,
) -> np.ndarray:
    """Combine context vectors into one vector ``v``.

    SUM and AVERAGE ignore the weights; WEIGHTED_AVERAGE computes
    ``sum(w_i x_i) / sum(w_i)`` (or the raw discounted sum when
    ``normalize`` is off) and returns zero when all weights vanish. An
    empty context yields the zero vector, which needs ``dim``.
    """
    vecs = [np.asarray(v, dtype=np.float64) for v in context_vectors]
    w = np.asarray(list(weights), dtype=np.float64)
    if w.shape[0] != len(vecs):
        raise DimensionMismatchError(
            f"{len(vecs)} context vectors but {w.shape[0]} weights"
        )
    if not vecs:
        if dim is None:
            raise ValueError("dim is required to aggregate an empty context")
        return np.zeros(dim, dtype=np.float64)
    dims = {v.shape for v in vecs}
    if len(dims) > 1 or vecs[0].ndim != 1:
        raise DimensionMismatchError(f"context vectors disagree on shape: {sorted(dims)}")
    if dim is not None and vecs[0].shape[0] != dim:
        raise DimensionMismatchError(
            f"context vectors have dimension {vecs[0].shape[0]}, expected {dim}"
        )

    stack = np.stack(vecs)
    if strategy is AggregationStrategy.SUM:
        return stack.sum(axis=0)
    if strategy is AggregationStrategy.AVERAGE:
        return stack.mean(axis=0)
    if np.any(w < 0):
        raise NegativeWeightError(f"negative weight in {w.tolist()}")
    total = float(w.sum())
    if total == 0.0:
        return np.zeros(stack.shape[1], dtype=np.float64)
    weighted = (stack * w[:, None]).sum(axis=0)
    return weighted / total if normalize else weighted


def concat_features(u: np.ndarray, v: np.ndarray, scheme: ConcatScheme) -> np.ndarray:
    """Lay out ``u`` and ``v`` according to the concatenation scheme."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionMismatchError(f"u has shape {u.shape}, v has shape {v.shape}")
    if scheme is ConcatScheme.UV:
        parts = (u, v)
    elif scheme is ConcatScheme.UV_MUL:
        parts = (u, v, u * v)
    elif scheme is ConcatScheme.UV_ABSDIFF:
        parts = (u, v, np.abs(u - v))
    else:
        parts = (u, v, np.abs(u - v), u * v)
    return np.concatenate(parts)


def features_from_walk(
    tree: DiscussionTree,
    sample: WalkSample,
    provider: EmbeddingProvider,
    strategy: AggregationStrategy,
    scheme: ConcatScheme,
    *,
    normalize_weights: bool = True,
) -> np.ndarray:
    """The feature row for an already-sampled walk."""
    u = provider.vector_for(tree.node(sample.node_ids[0]))
    context = [provider.vector_for(tree.node(nid)) for nid in sample.node_ids[1:]]
    v = aggregate_context(
        context,
        sample.weights[1:],
        strategy,
        dim=provider.dimension,
        normalize=normalize_weights,
    )
    return concat_features(u, v, scheme)


def labeled_pois(
    trees: Iterable[DiscussionTree], task: str
) -> Iterator[tuple[DiscussionTree, CommentNode]]:
    """Every PoI of the corpus with its tree, in canonical order (tree id,
    then node id), its label checked against the task.

    Polarity uses every non-root node (label = polarity of its reply
    edge); hate uses every node.
    """
    _check_task(task)
    for tree in sorted(trees, key=lambda t: t.tree_id):
        for node_id in sorted(tree.node_ids()):
            if task == POLARITY_TASK and node_id == tree.root_id:
                continue
            node = tree.node(node_id)
            _check_label(node.label, node_id, tree.tree_id, task)
            yield tree, node


def featurize_corpus(
    trees: Iterable[DiscussionTree],
    provider: EmbeddingProvider,
    walk_config: WalkConfig,
    strategy: AggregationStrategy,
    scheme: ConcatScheme,
    task: str,
    *,
    normalize_weights: bool = True,
) -> Examples:
    """One row per PoI of the corpus, in :func:`labeled_pois` order. Each
    node walks on its own derived stream, so results do not depend on
    scheduling.
    """
    pois = list(labeled_pois(trees, task))
    zero = np.zeros(provider.dimension)  # only concat_features knows the layout's width
    X = np.empty((len(pois), concat_features(zero, zero, scheme).size))
    walks = []
    for i, (tree, node) in enumerate(pois):
        rng = walk_rng(walk_config.seed, tree.tree_id, node.id)
        sample = sample_walk(tree, node.id, walk_config, rng)
        X[i] = features_from_walk(
            tree, sample, provider, strategy, scheme, normalize_weights=normalize_weights
        )
        walks.append(sample)
    return _examples(pois, X, tuple(walks))


def bow_examples(
    trees: Sequence[DiscussionTree], task: str, d: int, *, normalize: bool = False
) -> Examples:
    """Bag-of-words baseline inputs, built without walks.

    Polarity concatenates the parent and child BoW vectors (the pair
    framing); hate uses the single comment vector.
    """
    provider = HashedBowProvider(d, normalize=normalize)
    pois = list(labeled_pois(trees, task))
    pair = task == POLARITY_TASK
    X = np.empty((len(pois), 2 * d if pair else d))
    for i, (tree, node) in enumerate(pois):
        if pair:
            X[i, :d] = provider.vector_for(tree.node(node.parent_id))
        X[i, -d:] = provider.vector_for(node)
    return _examples(pois, X)


def _examples(pois: list, X: np.ndarray, walks: tuple | None = None) -> Examples:
    X.setflags(write=False)
    return Examples(
        X=X,
        tree_ids=tuple(tree.tree_id for tree, _ in pois),
        node_ids=tuple(node.id for _, node in pois),
        labels=tuple(node.label for _, node in pois),
        walks=walks,
    )


def _check_task(task: str) -> None:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")


def _check_label(label: str | None, node_id: str, tree_id: str, task: str) -> None:
    if label is None:
        raise MissingLabelError(
            f"node {node_id!r} in tree {tree_id!r} has no label for task {task!r}"
        )
    if label not in TASK_LABELS[task]:
        raise MissingLabelError(
            f"node {node_id!r} in tree {tree_id!r} has label {label!r}, "
            f"not a {task} label {TASK_LABELS[task]}"
        )
