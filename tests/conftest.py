"""Shared fixtures: small reference trees, random-tree helpers and the
test oracles (the tree builder with its parent-chain cycle check, the
ancestor chain, the walk step drawn from a listed transition distribution,
the bag-of-words baseline, the one-text hashed bag-of-words embedder, the
line-by-line embedding file parser, and the softmax's reduction log-softmax
and out-of-place training loop)."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from threadwalk.embeddings import HashedBowProvider, tokenize
from threadwalk.errors import (
    CycleDetectedError,
    DanglingParentError,
    DuplicateIdError,
    MultipleRootsError,
    NoRootError,
    UnknownIdError,
    quote,
    quote_list,
)
from threadwalk.features import POLARITY_TASK, CorpusSide, Examples
from threadwalk.model import train
from threadwalk.pipeline import RunConfig
from threadwalk.seeding import derived_rng
from threadwalk.tree import CommentNode, DiscussionTree, build_tree
from threadwalk.walks import WalkSample


@pytest.fixture
def sampled_walks(monkeypatch) -> list:
    """The walks of every pass in which a side samples, in pass order: each
    ``CorpusSide.walks`` call that does not answer from the side's memo."""
    walks = []
    side_walks = CorpusSide.walks

    def counted(side, config):
        memo = side._memo
        result = side_walks(side, config)
        if side._memo is not memo:
            walks.extend(result[0])
        return result

    monkeypatch.setattr(CorpusSide, "walks", counted)
    return walks


@pytest.fixture
def fan_tree() -> DiscussionTree:
    """Root a0, child a1, and three replies a2/a3/a4 under a1."""
    return build_tree(
        [
            CommentNode("a0", None, "thesis"),
            CommentNode("a1", "a0", "first reply"),
            CommentNode("a2", "a1", "reply one"),
            CommentNode("a3", "a1", "reply two"),
            CommentNode("a4", "a1", "reply three"),
        ],
        tree_id="fan",
    )


@pytest.fixture
def forked_tree() -> DiscussionTree:
    """Root a0, child a1, replies a2/a3 under a1, and a4 under a2."""
    return build_tree(
        [
            CommentNode("a0", None, "thesis"),
            CommentNode("a1", "a0", "first reply"),
            CommentNode("a2", "a1", "reply one"),
            CommentNode("a3", "a1", "reply two"),
            CommentNode("a4", "a2", "deep reply"),
        ],
        tree_id="forked",
    )


@pytest.fixture
def debate_tree() -> DiscussionTree:
    """Four-argument chain: b attacks a, c supports b, d attacks c."""
    return build_tree(
        [
            CommentNode("a", None, "all humans should change their diet"),
            CommentNode("b", "a", "that diet is too restrictive", label="attack"),
            CommentNode("c", "b", "it often needs supplements", label="support"),
            CommentNode("d", "c", "research found no deficiencies", label="attack"),
        ],
        tree_id="debate",
    )


def make_chain(depth: int, tree_id: str = "chain") -> DiscussionTree:
    """A path of depth + 1 nodes: n0 <- n1 <- ... <- n<depth>."""
    records = [CommentNode("n0", None, "root")]
    records += [
        CommentNode(f"n{i}", f"n{i - 1}", f"comment {i}") for i in range(1, depth + 1)
    ]
    return build_tree(records, tree_id=tree_id)


def random_records(
    rng: np.random.Generator, size: int, label_choices: tuple[str, ...] | None = None
) -> list[CommentNode]:
    """Uniform random recursive tree as flat records (node i replies to < i),
    each labeled, the root first, when ``label_choices`` is given."""
    root_label = None if label_choices is None else str(rng.choice(label_choices))
    records = [CommentNode("m0000", None, "root text", label=root_label)]
    for i in range(1, size):
        parent = int(rng.integers(0, i))
        label = None
        if label_choices is not None:
            label = str(rng.choice(label_choices))
        records.append(
            CommentNode(f"m{i:04d}", f"m{parent:04d}", f"text {i}", label=label)
        )
    return records


def random_tree(
    rng: np.random.Generator,
    size: int,
    tree_id: str = "rand",
    label_choices: tuple[str, ...] | None = None,
) -> DiscussionTree:
    return build_tree(random_records(rng, size, label_choices), tree_id=tree_id)


def oracle_build_tree(records: list[CommentNode], tree_id: str = "") -> DiscussionTree:
    """build_tree checked in passes: the records' ids, then their parents,
    then a walk up each parent chain, memoised, for a cycle, then the
    roots, and last the child index."""
    if not records:
        raise NoRootError("cannot build a tree from zero records")
    nodes: dict[str, CommentNode] = {}
    for rec in records:
        if not rec.id:
            raise ValueError("comment ids must be non-empty")
        if rec.id in nodes:
            raise DuplicateIdError(f"duplicate comment id {quote(rec.id)}")
        if rec.parent_id == rec.id:
            raise CycleDetectedError(f"comment {quote(rec.id)} replies to itself")
        nodes[rec.id] = rec
    roots = [r.id for r in records if r.parent_id is None]
    for rec in records:
        if rec.parent_id is not None and rec.parent_id not in nodes:
            raise DanglingParentError(
                f"comment {quote(rec.id)} replies to unknown id {quote(rec.parent_id)}"
            )
    done: set[str] = set()
    for start in nodes:
        chain: list[str] = []
        cur: str | None = start
        while cur is not None and cur not in done:
            if cur in chain:
                raise CycleDetectedError(f"reply cycle through {quote(cur)}")
            chain.append(cur)
            cur = nodes[cur].parent_id
        done.update(chain)
    if len(roots) > 1:
        raise MultipleRootsError(f"multiple parentless records: {quote_list(roots)}")
    children: dict[str, list[str]] = {}
    for rec in records:
        if rec.parent_id is not None:
            children.setdefault(rec.parent_id, []).append(rec.id)
    index = {pid: tuple(kids) for pid, kids in children.items()}
    return DiscussionTree(nodes, roots[0], index, tree_id=tree_id)


def ancestors(tree: DiscussionTree, node_id: str) -> list[str]:
    """Chain [parent, grandparent, ..., root]; empty for the root."""
    chain: list[str] = []
    cur = tree.parent(node_id)
    while cur is not None:
        chain.append(cur)
        cur = tree.parent(cur)
    return chain


def transition_distribution(
    tree: DiscussionTree, current: str, p: float
) -> list[tuple[str, float]]:
    """Next-step distribution from ``current``: parent gets ``p``, each of
    the ``c`` children gets ``(1 - p) / c``. A leaf sends all mass to its
    parent, the root spreads all mass over its children, and an isolated
    node has an empty distribution."""
    if current not in tree:
        raise UnknownIdError(current)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    parent = tree.parent(current)
    children = tree.children(current)
    if parent is None and not children:
        return []
    if parent is None:
        share = 1.0 / len(children)
        return [(kid, share) for kid in children]
    if not children:
        return [(parent, 1.0)]
    share = (1.0 - p) / len(children)
    return [(parent, p)] + [(kid, share) for kid in children]


def draw(dist: list[tuple[str, float]], rng: np.random.Generator) -> str:
    """The first option whose running sum of probabilities exceeds one
    uniform draw, or the last option if none does."""
    r = rng.random()
    acc = 0.0
    for node_id, prob in dist:
        acc += prob
        if r < acc:
            return node_id
    return dist[-1][0]


def oracle_walk(
    tree: DiscussionTree,
    start: str,
    config: RunConfig,
    rng: np.random.Generator,
) -> WalkSample:
    """The biased root-seeking walk, each step drawn from the listed
    :func:`transition_distribution` at the walk's current position."""
    if start not in tree:
        raise UnknownIdError(start)
    collected = [start]
    visited = {start}
    raw: list[str] = []
    position = start
    cap = config.resolved_step_cap
    total = len(tree)
    deterministic = config.p == 1.0

    # Only a one-node tree has an empty distribution; it never enters the loop.
    while len(collected) < config.walk_length and len(raw) < cap and len(visited) < total:
        if deterministic and tree.parent(position) is None:
            break
        position = draw(transition_distribution(tree, position, config.p), rng)
        raw.append(position)
        if position not in visited:
            visited.add(position)
            collected.append(position)

    return WalkSample(tuple(collected), tuple(raw))


def hashed_bow_oracle(text: str, d: int, normalize: bool) -> np.ndarray:
    """The hashed bag-of-words vector of one text, a token at a time: each
    token adds its blake2b sign (the top bit) to bucket ``hash % d``."""
    vec = np.zeros(d, dtype=np.float64)
    for token in tokenize(text):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        vec[h % d] += 1.0 if (h >> 63) & 1 == 0 else -1.0
    if normalize:
        norm = math.sqrt(float(vec @ vec))
        if norm > 0.0:
            vec /= norm
    return vec


def parse_embeddings_oracle(path: Path) -> dict[str, np.ndarray]:
    """The rows of a well-formed embedding file, in file order, each value
    read by ``float()``."""
    table = {}
    with path.open(encoding="utf-8") as handle:
        next(handle)  # the d=<int> header
        for line in filter(str.strip, handle):
            node_id, *values = line.split()
            table[node_id] = np.array([float(v) for v in values], dtype=np.float64)
    return table


def side_rows(side: CorpusSide) -> dict[tuple[DiscussionTree, str], int]:
    """The embedding row of each ``(tree, node id)`` of a side, in its
    documented order: the nodes of each tree with a PoI in tree order, the
    trees in PoI order."""
    walked = dict.fromkeys(side.trees)
    return {key: row for row, key in enumerate((t, node.id) for t in walked for node in t)}


def bow_examples(trees, task, d, *, normalize=False) -> Examples:
    """Bag-of-words baseline inputs, the input the walk features are
    measured against: polarity concatenates the parent and child BoW vectors
    (the pair framing), hate uses the single comment vector. Each row's walk
    is the PoI alone, since the baseline sees no context."""
    side = CorpusSide(trees, HashedBowProvider(d, normalize=normalize), task)
    rows, pois = side_rows(side), list(zip(side.trees, side.node_ids))
    X = side.embeddings([rows[tree, node_id] for tree, node_id in pois])
    if task == POLARITY_TASK:
        parents = side.embeddings([rows[tree, tree.parent(node_id)] for tree, node_id in pois])
        X = np.concatenate([parents, X], axis=1)
    X.setflags(write=False)
    walks = tuple(WalkSample((node_id,), ()) for node_id in side.node_ids)
    return Examples(X, side.trees, side.node_ids, side.labels, walks)


def bow_logreg_baseline(trees, task, d, config, *, normalize=False):
    """Train the bag-of-words logistic-regression baseline."""
    examples = bow_examples(trees, task, d, normalize=normalize)
    (model,) = train(examples.labels, examples.X[None], [config])
    return model


def make_examples(rows, labels, node_ids=None, walks=None, tree=None):
    """Examples from feature rows and labels, all in ``tree``; node ids
    default to n0, n1, ..., walks to the PoI alone and the tree to a one-node
    stand-in "t" that holds none of them, for callers that read no text."""
    if node_ids is None:
        node_ids = [f"n{i}" for i in range(len(labels))]
    if walks is None:
        walks = [WalkSample((node_id,), ()) for node_id in node_ids]
    if tree is None:
        tree = build_tree([CommentNode("stand-in", None, "stand-in text")], tree_id="t")
    return Examples(
        X=np.asarray(rows, dtype=np.float64),
        trees=(tree,) * len(labels),
        node_ids=tuple(node_ids),
        labels=tuple(labels),
        walks=tuple(walks),
    )


def log_softmax_oracle(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis by ``max`` and ``sum`` reductions."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def train_oracle(labels, X: np.ndarray, config: RunConfig):
    """The weights ``(K, C, D)``, bias ``(K, C)`` and loss histories that
    :func:`threadwalk.model.train` should give for the ``(K, n, D)`` stack
    ``X``, by out-of-place steps: each statement allocates its result."""
    names, y = np.unique(labels, return_inverse=True)
    n_models, n, dim = X.shape
    if config.class_weighting:
        counts = np.bincount(y, minlength=len(names)).astype(np.float64)
        sample_w = (n / (len(names) * counts))[y]
    else:
        sample_w = np.ones(n)

    def log_probs(weights, bias, rows):
        return log_softmax_oracle(rows @ np.swapaxes(weights, -1, -2) + bias[..., None, :])

    weights = np.zeros((n_models, len(names), dim))
    bias = np.zeros((n_models, len(names)))
    vel_w, vel_b = np.zeros_like(weights), np.zeros_like(bias)
    rng = derived_rng(config.seed, "train-shuffle")
    histories = [[] for _ in range(n_models)]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, config.batch_size):
                idx = order[lo : lo + config.batch_size]
                rows, m = X[:, idx], len(idx)
                delta = np.exp(log_probs(weights, bias, rows))
                delta[..., np.arange(m), y[idx]] -= 1.0
                delta *= sample_w[idx][:, None]
                grad_w = np.swapaxes(delta, -1, -2) @ rows / m + config.l2 * weights
                grad_b = delta.sum(axis=-2) / m
                vel_w = config.momentum * vel_w - config.learning_rate * grad_w
                vel_b = config.momentum * vel_b - config.learning_rate * grad_b
                weights = weights + vel_w
                bias = bias + vel_b
            for k, history in enumerate(histories):
                picked = np.ascontiguousarray(log_probs(weights[k], bias[k], X[k])[np.arange(n), y])
                loss = -(sample_w * picked).sum(axis=-1) / n
                loss = loss + 0.5 * config.l2 * (weights[k] * weights[k]).sum(axis=(-2, -1))
                history.append(float(loss))
    return weights, bias, histories
