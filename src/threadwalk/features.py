"""Classifier input construction around a point-of-interest comment.

The start of a walk is the point of interest (PoI). Its embedding ``u``
and the aggregate ``v`` of the remaining walk nodes (discounted by
``gamma ** k``, so context weights start at ``gamma ** 1``) are
concatenated under one of four schemes; ``(u, v, |u - v|)`` is the
default. An empty context yields ``v = 0``.

A corpus side is compiled once into a :class:`CorpusSide`: its PoIs, one
embedding row per node (its provider's exact values and a divisor) and a
memo of the walks sampled on it.
Featurizing the side gives one :class:`Examples` record: a read-only
float64 matrix ``X`` with one row per PoI, written in place a block of
rows at a time, plus the tree, node id, label and walk of each row in the
same order. Training, evaluation, error analysis and the feature dump
all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .embeddings import EmbeddingProvider
from .errors import DimensionMismatchError, MissingLabelError, NegativeWeightError
from .tree import CommentNode, DiscussionTree
from .walks import WalkSample, sample_walk, walk_rng, walk_weights

if TYPE_CHECKING:
    from .pipeline import RunConfig

POLARITY_TASK = "polarity"
HATE_TASK = "hate"
TASKS = (POLARITY_TASK, HATE_TASK)
TASK_LABELS = {  # task -> its (positive, negative) labels
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
    features of the PoI ``node_ids[i]`` in tree ``trees[i]``, labeled
    ``labels[i]``. ``walks[i]`` is the walk the row was built from.
    """

    X: np.ndarray
    trees: tuple[DiscussionTree, ...]
    node_ids: tuple[str, ...]
    labels: tuple[str, ...]
    walks: tuple[WalkSample, ...]

    def __len__(self) -> int:
        return len(self.labels)


def aggregate_context(
    context_vectors: Sequence[np.ndarray] | np.ndarray,
    weights: Sequence[float],
    strategy: AggregationStrategy,
    *,
    normalize: bool = True,
) -> np.ndarray:
    """Combine context vectors into one vector ``v``.

    ``context_vectors`` is one ``(k, d)`` stack (or a sequence of ``k``
    vectors), or a batch ``(m, k, d)`` of stacks that share the ``k``
    weights; ``v`` has shape ``(d,)`` or ``(m, d)``. Each stack of a batch
    is reduced over its positions exactly as it would be alone, so a batch
    gives the same bits as its rows one at a time.

    SUM and AVERAGE ignore the weights; WEIGHTED_AVERAGE computes
    ``sum(w_i x_i) / sum(w_i)`` (or the raw discounted sum when
    ``normalize`` is off) and returns zero when all weights vanish. An
    empty context raises DimensionMismatchError.
    """
    w = np.asarray(weights, dtype=np.float64)
    try:
        stack = np.asarray(context_vectors, dtype=np.float64)
    except ValueError:  # a ragged sequence of vectors
        raise DimensionMismatchError("context vectors disagree on shape") from None
    if not w.size or w.ndim != 1 or stack.ndim not in (2, 3) or stack.shape[-2] != w.shape[0]:
        raise DimensionMismatchError(
            f"context of shape {stack.shape} does not fit {w.size} weights"
        )

    if strategy is AggregationStrategy.SUM:
        return stack.sum(axis=-2)
    if strategy is AggregationStrategy.AVERAGE:
        return stack.mean(axis=-2)
    if np.any(w < 0):
        raise NegativeWeightError(f"negative weight in {w.tolist()}")
    total = float(w.sum())
    if total == 0.0:
        return np.zeros(stack.shape[:-2] + stack.shape[-1:], dtype=np.float64)
    weighted = (stack * w[:, None]).sum(axis=-2)
    return weighted / total if normalize else weighted


def concat_features(
    u: np.ndarray, v: np.ndarray, scheme: ConcatScheme, out: np.ndarray | None = None
) -> np.ndarray:
    """Lay out ``u`` and ``v`` (shape ``(d,)``, or ``(m, d)`` for ``m`` rows)
    according to the concatenation scheme, into ``out`` when given."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim not in (1, 2):
        raise DimensionMismatchError(f"u has shape {u.shape}, v has shape {v.shape}")
    if scheme is ConcatScheme.UV:
        parts = (u, v)
    elif scheme is ConcatScheme.UV_MUL:
        parts = (u, v, u * v)
    elif scheme is ConcatScheme.UV_ABSDIFF:
        parts = (u, v, np.abs(u - v))
    else:
        parts = (u, v, np.abs(u - v), u * v)
    return np.concatenate(parts, axis=-1, out=out)


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


class CorpusSide:
    """One side of a tree split under a task, built once and featurized
    under any number of settings.

    It holds the PoIs in :func:`labeled_pois` order (their ``trees``,
    ``node_ids`` and ``labels``), one embedding row per node of every tree
    with a PoI as the provider's ``values`` (shape ``(N, d)``, in the
    narrowest dtype that holds them) and float64 ``divisors`` (shape
    ``(N,)``), the row of each node id of a PoI's tree in ``node_rows``, and
    the walks of the last ``(p, L, step cap, seed)`` featurized. Walks do
    not depend on ``gamma``, so featurizing that key again under any gamma,
    aggregation or scheme reuses them; callers that loop over seeds outside
    those settings sample each walk once.
    """

    def __init__(
        self, trees: Iterable[DiscussionTree], provider: EmbeddingProvider, task: str
    ) -> None:
        pois = list(labeled_pois(trees, task))
        self.trees = tuple(tree for tree, _ in pois)
        self.node_ids = tuple(node.id for _, node in pois)
        self.labels = tuple(node.label for _, node in pois)
        walked = list(dict.fromkeys(self.trees))
        nodes = [node for tree in walked for node in tree]
        self.values, self.divisors = provider.scaled_rows(nodes)
        self.values.setflags(write=False)
        rows = iter(range(len(nodes)))
        rows_of = {tree: {node.id: next(rows) for node in tree} for tree in walked}
        self.node_rows = [rows_of[tree] for tree in self.trees]
        self._memo: tuple | None = None  # (p, L, step cap, seed), walks, rows, lengths

    def embeddings(self, rows: np.ndarray) -> np.ndarray:
        """The float64 embeddings of the node rows ``rows`` (an index array
        of any shape), each decoded by one division."""
        return self.values[rows] / self.divisors[rows][..., None]

    def walks(self, config: RunConfig) -> tuple[tuple[WalkSample, ...], np.ndarray, np.ndarray]:
        """The walk of every PoI under ``config``; the embedding row of each
        collected node, shape ``(n, K)`` with ``K`` the longest walk
        collected (not ``L``); and each walk's length.

        Each PoI walks on its own derived stream, so a memoized walk is the
        walk that sampling again would give.
        """
        key = (config.p, config.walk_length, config.resolved_step_cap, config.seed)
        if self._memo is None or self._memo[0] != key:
            samples = tuple(
                sample_walk(tree, node_id, config, walk_rng(config.seed, tree.tree_id, node_id))
                for tree, node_id in zip(self.trees, self.node_ids)
            )
            lengths = np.array([len(s.node_ids) for s in samples], dtype=np.intp)
            rows = np.zeros((len(samples), lengths.max(initial=1)), dtype=np.intp)
            for i, (sample, node_rows) in enumerate(zip(samples, self.node_rows)):
                rows[i, : lengths[i]] = [node_rows[node_id] for node_id in sample.node_ids]
            self._memo = (key, samples, rows, lengths)
        _, samples, rows, lengths = self._memo
        return samples, rows, lengths

    def examples(self, X: np.ndarray, walks: tuple[WalkSample, ...]) -> Examples:
        """``X`` (one row per PoI, made read-only) with the PoIs' columns and walks."""
        X.setflags(write=False)
        return Examples(X, self.trees, self.node_ids, self.labels, walks)


# PoIs per block of feature rows, and context rows per gathered stack: bounds
# the temporaries of featurization to a few MB whatever the side's size.
_BLOCK = 256


def feature_width(dim: int, scheme: ConcatScheme) -> int:
    """Width of a feature row built from ``dim``-wide embeddings."""
    zero = np.zeros(dim)  # only concat_features knows the layout's width
    return concat_features(zero, zero, scheme).size


def featurize_split(side: CorpusSide, config: RunConfig, out: np.ndarray | None = None) -> Examples:
    """One row per PoI of the side, in :func:`labeled_pois` order, under the
    walk, aggregation and concatenation settings of ``config``, its walks
    seeded by ``config.seed``; written into ``out`` (shape ``(n, D)``, made
    read-only) when given. The side must have been built for ``config.task``.

    Rows are built a block of PoIs at a time: ``u`` is decoded from the
    side's embedding rows the block reads, the walks of each length are
    aggregated together, and the concatenation is written into that block
    of ``X``.
    """
    samples, rows, lengths = side.walks(config)
    weights = walk_weights(rows.shape[1], config.gamma)
    strategy = AggregationStrategy(config.aggregation)
    scheme = ConcatScheme(config.scheme)
    shape = (len(samples), feature_width(side.values.shape[1], scheme))
    X = np.empty(shape) if out is None else out
    if X.shape != shape:
        raise DimensionMismatchError(f"out has shape {X.shape}, expected {shape}")
    for start in range(0, len(samples), _BLOCK):
        block_rows, block_lengths = rows[start : start + _BLOCK], lengths[start : start + _BLOCK]
        u = side.embeddings(block_rows[:, 0])
        v = np.zeros_like(u)
        for k in np.unique(block_lengths[block_lengths > 1] - 1):  # context length
            walks_k = np.flatnonzero(block_lengths == k + 1)
            step = max(1, _BLOCK // k)
            for part in (walks_k[i : i + step] for i in range(0, len(walks_k), step)):
                v[part] = aggregate_context(
                    side.embeddings(block_rows[part, 1 : k + 1]),
                    weights[1 : k + 1],
                    strategy,
                    normalize=config.normalize_weights,
                )
        concat_features(u, v, scheme, out=X[start : start + _BLOCK])
    return side.examples(X, samples)


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
