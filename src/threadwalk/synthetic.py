"""Synthetic labeled discussion corpora.

Stands in for unavailable production datasets. Tree shapes come from a
preferential-attachment reply process (heavy-tailed thread sizes); texts
are filler tokens plus planted signal tokens. The central knob is
``context_signal``: that fraction of labels is decodable only from a
token planted on an ancestor (the parent for the hate task, the
grandparent for polarity, so the signal sits outside the baseline's
input), while the node's own text stays label-neutral. The rest of the
labels are decodable from a token in the node's own text.

Concretely, every node is independently "hot" with the positive-class
probability and hot nodes carry a depth-tagged plant token; a
context-borne node is positive exactly when its designated ancestor is
hot. Depth tags cycle fast enough that the token deciding a node's label
never appears in that node's own text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .features import HATE_TASK, POLARITY_TASK, TASK_LABELS, TASKS
from .tree import CommentNode, DiscussionTree, build_tree

PLANT_PREFIX = "kcx"
SELF_POS_TOKEN = "ksp"
SELF_NEG_TOKEN = "ksn"
_SIGNAL_REPEATS = 3
_ANCESTOR_DISTANCE = {HATE_TASK: 1, POLARITY_TASK: 2}
# The most comments a spec may expect (num_trees * mean_tree_size), and the
# largest mean tree. Generating takes about 50 us and 0.6 KB per comment of
# small trees (2-core VM, Python 3.11), so 10**6 comments take about a
# minute and 600 MB.
MAX_EXPECTED_NODES = 10**6
MAX_MEAN_TREE_SIZE = 10**4
# The largest tree; each size draw is taken, then clamped to it. Preferential
# attachment is quadratic in a tree's size: a shape took 2.8 s at 10,000 nodes
# and 10.5 s at this cap (same VM), while at the largest mean and spread one
# draw in sixty passes 10**5 nodes, which by that growth would take 4 minutes.
MAX_TREE_SIZE = 20_000
# The largest attachment smoothing weight. Picking a reply target divides by
# the sum of one weight of about ``branching`` per node, which stays finite
# at this limit for any tree below 10**8 nodes.
MAX_BRANCHING = 1e300
# The largest lognormal sigma of tree sizes. Sizes are drawn with mean
# ``mean_tree_size``, but the median falls as ``exp(-sigma**2 / 2)`` and
# each draw is rounded up to at least one comment, so a wide spread turns
# most trees into single comments and the expected total stops holding.
# 200 trees of mean 12 (2,400 comments expected, seeds 0-2) gave 2,216-2,601
# comments at sigma 0.8, 1,570-2,342 at 2.0, 664-1,616 at 3.0 and 202-223
# at 5; above about 1.3e154 ``sigma * sigma`` overflows.
MAX_SIZE_DISPERSION = 2.0


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs of the generator; identical spec and seed give identical files."""

    num_trees: int = 200
    mean_tree_size: float = 12.0
    size_dispersion: float = 0.8
    branching: float = 1.0
    positive_fraction: float = 0.5
    context_signal: float = 0.5
    vocabulary_size: int = 200
    seed: int = 0
    task: str = HATE_TASK

    def __post_init__(self) -> None:
        for name in ("mean_tree_size", "size_dispersion", "branching"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidSpecError(f"{name} must be finite, got {value}")
        if self.num_trees < 1:
            raise InvalidSpecError(f"num_trees must be >= 1, got {self.num_trees}")
        if not 1 <= self.mean_tree_size <= MAX_MEAN_TREE_SIZE:
            raise InvalidSpecError(
                f"mean_tree_size must be in [1, {MAX_MEAN_TREE_SIZE}], got {self.mean_tree_size}"
            )
        if self.num_trees > MAX_EXPECTED_NODES / self.mean_tree_size:
            raise InvalidSpecError(
                f"num_trees * mean_tree_size must be <= {MAX_EXPECTED_NODES}, "
                f"got {self.num_trees} * {self.mean_tree_size}"
            )
        if not 0 <= self.size_dispersion <= MAX_SIZE_DISPERSION:
            raise InvalidSpecError(
                f"size_dispersion must be in [0, {MAX_SIZE_DISPERSION}], got {self.size_dispersion}"
            )
        if not 0 < self.branching <= MAX_BRANCHING:
            raise InvalidSpecError(
                f"branching must be in (0, {MAX_BRANCHING:g}], got {self.branching}"
            )
        for name in ("positive_fraction", "context_signal"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidSpecError(f"{name} must be in [0, 1], got {value}")
        if self.vocabulary_size < 1:
            raise InvalidSpecError(f"vocabulary_size must be >= 1, got {self.vocabulary_size}")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        if self.task not in TASKS:
            raise InvalidSpecError(f"task must be one of {TASKS}, got {self.task!r}")


@dataclass
class GeneratedCorpus:
    """Trees plus the ground truth of each label: ``provenance`` maps each
    labeled node id to ``"context"`` (planted on its ancestor) or
    ``"self"`` (in its own text)."""

    trees: list[DiscussionTree]
    provenance: dict[str, str]
    spec: CorpusSpec

    def positive_fraction_realized(self) -> float:
        labels = [node.label for tree in self.trees for node in tree if node.label is not None]
        return labels.count(TASK_LABELS[self.spec.task][0]) / len(labels) if labels else 0.0

    def context_fraction_realized(self) -> float:
        if not self.provenance:
            return 0.0
        return list(self.provenance.values()).count("context") / len(self.provenance)


def plant_token(depth: int, task: str) -> str:
    """Plant token carried by a hot node at the given depth.

    The depth tag cycles with period (ancestor distance + 1), so the
    token deciding a node's label is never the one in its own text.
    """
    cycle = _ANCESTOR_DISTANCE[task] + 1
    return f"{PLANT_PREFIX}{depth % cycle}"


def generate(spec: CorpusSpec) -> GeneratedCorpus:
    """Generate a labeled corpus; deterministic per spec and seed."""
    rng = np.random.default_rng(spec.seed)
    positive, negative = TASK_LABELS[spec.task]
    distance = _ANCESTOR_DISTANCE[spec.task]

    trees: list[DiscussionTree] = []
    provenance: dict[str, str] = {}
    digits = max(5, len(str(spec.num_trees)))

    for t in range(spec.num_trees):
        tree_id = f"t{t:0{digits}d}"
        size = _draw_size(spec, rng)
        parents = _tree_shape(size, spec.branching, rng)
        depths = [0] * size
        for i in range(1, size):
            depths[i] = depths[parents[i]] + 1

        hot = rng.random(size) < spec.positive_fraction
        node_ids = [f"{tree_id}n{i:05d}" for i in range(size)]

        texts = []
        for i in range(size):
            n_filler = int(rng.integers(4, 9))
            tokens = [f"w{int(k)}" for k in rng.integers(0, spec.vocabulary_size, n_filler)]
            if hot[i]:
                tokens += [plant_token(depths[i], spec.task)] * _SIGNAL_REPEATS
            texts.append(tokens)

        labels: list[str | None] = [None] * size
        for i in range(size):
            if spec.task == POLARITY_TASK and i == 0:
                continue
            ancestor = i
            for _ in range(distance):
                ancestor = parents[ancestor] if ancestor is not None else None
                if ancestor is None:
                    break
            context_borne = ancestor is not None and rng.random() < spec.context_signal
            if context_borne:
                is_positive = bool(hot[ancestor])
            else:
                is_positive = bool(rng.random() < spec.positive_fraction)
                texts[i] += [SELF_POS_TOKEN if is_positive else SELF_NEG_TOKEN] * _SIGNAL_REPEATS
            provenance[node_ids[i]] = "context" if context_borne else "self"
            labels[i] = positive if is_positive else negative

        records = [
            CommentNode(
                id=node_ids[i],
                parent_id=None if parents[i] is None else node_ids[parents[i]],
                text=" ".join(texts[i]),
                label=labels[i],
            )
            for i in range(size)
        ]
        trees.append(build_tree(records, tree_id=tree_id))

    return GeneratedCorpus(trees=trees, provenance=provenance, spec=spec)


def _draw_size(spec: CorpusSpec, rng: np.random.Generator) -> int:
    if spec.size_dispersion == 0:
        return max(1, int(round(spec.mean_tree_size)))
    sigma = spec.size_dispersion
    mu = float(np.log(spec.mean_tree_size)) - 0.5 * sigma * sigma
    return min(MAX_TREE_SIZE, max(1, int(rng.lognormal(mu, sigma) + 0.5)))


def _tree_shape(size: int, branching: float, rng: np.random.Generator) -> list[int | None]:
    """Reply targets via preferential attachment with smoothing."""
    parents: list[int | None] = [None]
    weight = [branching]
    for i in range(1, size):
        w = np.asarray(weight)
        parent = int(rng.choice(i, p=w / w.sum()))
        parents.append(parent)
        weight[parent] += 1.0
        weight.append(branching)
    return parents
