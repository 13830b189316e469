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
from .errors import DimensionMismatchError, MissingLabelError, NegativeWeightError, quote
from .tree import CommentNode, DiscussionTree
from .seeding import _pcg64_doubles, _pcg64_states
from .walks import WalkSample, sample_walk, walk_rng, walk_seed, walk_weights

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
    """Feature layouts: (u,v), (u,v,u*v), (u,v,|u-v|), (u,v,|u-v|,u*v).

    A value names its layout's blocks in column order: ``uv`` (u, then v),
    ``absdiff`` (|u - v|) and ``mul`` (u * v).
    """

    UV = "uv"
    UV_MUL = "uv_mul"
    UV_ABSDIFF = "uv_absdiff"
    UV_ABSDIFF_MUL = "uv_absdiff_mul"


def extends_layout(scheme: ConcatScheme, prefix: ConcatScheme) -> bool:
    """Whether the columns of ``prefix`` are the first columns of ``scheme``,
    for the same ``u`` and ``v``, and ``scheme`` has more."""
    return scheme.value.startswith(prefix.value + "_")


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
    parts = [u, v]
    for block in scheme.value.split("_")[1:]:
        parts.append(np.abs(u - v) if block == "absdiff" else u * v)
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


# Doubles drawn side-wide for each PoI's walk, and PoIs per batch of streams.
# Walks need few draws: at the default p, 5.6 on average on an 8,000-node
# hate corpus (5 % need more than 12, the most was 40) and 3.6 on a
# polarity one.
_DRAWS = 12
_STREAMS = 1024


def _stream(first: np.ndarray, seed: int, tree: DiscussionTree, node_id: str) -> Iterator[float]:
    """The :func:`walk_rng` stream of one PoI: its ``first`` draws, drawn
    side-wide, and past them its Generator advanced by as many."""
    yield from first.tolist()
    rng = walk_rng(seed, tree.tree_id, node_id)
    rng.bit_generator.advance(len(first))
    yield from iter(rng.random, None)  # rng.random never returns None


class CorpusSide:
    """One side of a tree split under a task, built once and featurized
    under any number of settings.

    It holds the PoIs in :func:`labeled_pois` order (their ``trees``,
    ``node_ids`` and ``labels``), one embedding row per node of every tree
    with a PoI as the provider's ``values`` (shape ``(N, d)``, in the
    narrowest dtype that holds them) and float64 ``divisors`` (shape
    ``(N,)``), and the walks of the last ``(p, L, step cap, seed)``
    featurized. The rows are the nodes of each tree with a PoI in tree
    order, the trees in PoI order; one private map per tree gives the row
    of each node id. Walks do not depend on ``gamma``, so featurizing that
    key again under any gamma, aggregation or scheme reuses them; callers
    that loop over seeds outside those settings sample each walk once.
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
        self._rows = {tree: {node.id: next(rows) for node in tree} for tree in walked}
        self._memo: tuple | None = None  # (p, L, step cap, seed), walks, rows, lengths

    def embeddings(self, rows: np.ndarray) -> np.ndarray:
        """The float64 embeddings of the node rows ``rows`` (an index array
        of any shape), each decoded by one division."""
        return self.values[rows] / self.divisors[rows][..., None]

    def walks(self, config: RunConfig) -> tuple[tuple[WalkSample, ...], np.ndarray, np.ndarray]:
        """The walk of every PoI under ``config``; the embedding row of each
        collected node, shape ``(n, K)`` with ``K`` the longest walk
        collected (not ``L``); and each walk's length.

        Each PoI walks on its own :func:`walk_rng` stream, so a memoized walk
        is the walk that sampling again would give. The first draws of a
        block of streams are drawn at once, without a Generator per PoI.
        """
        key = (config.p, config.walk_length, config.resolved_step_cap, config.seed)
        if self._memo is None or self._memo[0] != key:
            samples: list[WalkSample] = []
            for lo in range(0, len(self.node_ids), _STREAMS):
                pois = list(zip(self.trees[lo : lo + _STREAMS], self.node_ids[lo : lo + _STREAMS]))
                seeds = (walk_seed(config.seed, tree.tree_id, node_id) for tree, node_id in pois)
                states = _pcg64_states(np.fromiter(seeds, dtype=np.uint64, count=len(pois)))
                for (tree, node_id), first in zip(pois, _pcg64_doubles(states, _DRAWS)):
                    draw = _stream(first, config.seed, tree, node_id).__next__
                    samples.append(sample_walk(tree, node_id, config, draw))
            lengths = np.array([len(s.node_ids) for s in samples], dtype=np.intp)
            maps = map(self._rows.__getitem__, self.trees)
            ids = (rows_of[node_id] for rows_of, s in zip(maps, samples) for node_id in s.node_ids)
            flat = np.fromiter(ids, np.intp, int(lengths.sum()))
            rows = np.zeros((len(samples), lengths.max(initial=1)), dtype=np.intp)
            rows[np.arange(rows.shape[1]) < lengths[:, None]] = flat
            self._memo = (key, tuple(samples), rows, lengths)
        _, samples, rows, lengths = self._memo
        return samples, rows, lengths


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
        # context lengths in ascending order; np.unique would import numpy.ma
        for k in np.flatnonzero(np.bincount(block_lengths)[2:]) + 1:
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
    X.setflags(write=False)
    return Examples(X, side.trees, side.node_ids, side.labels, samples)


def _check_task(task: str) -> None:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")


def _check_label(label: str | None, node_id: str, tree_id: str, task: str) -> None:
    if label is None:
        raise MissingLabelError(
            f"node {quote(node_id)} in tree {quote(tree_id)} has no label for task {quote(task)}"
        )
    if label not in TASK_LABELS[task]:
        raise MissingLabelError(
            f"node {quote(node_id)} in tree {quote(tree_id)} has label {quote(label)}, "
            f"not a {task} label {TASK_LABELS[task]}"
        )
