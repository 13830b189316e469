"""Shared fixtures: small reference trees, random-tree helpers and the
test oracles (the ancestor chain, the walk step drawn from a listed
transition distribution, the bag-of-words baseline, the one-text hashed
bag-of-words embedder and the line-by-line embedding file parser)."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from threadwalk import features
from threadwalk.embeddings import HashedBowProvider, tokenize
from threadwalk.errors import UnknownIdError
from threadwalk.features import POLARITY_TASK, CorpusSide, Examples
from threadwalk.model import train
from threadwalk.pipeline import RunConfig
from threadwalk.tree import CommentNode, DiscussionTree, build_tree
from threadwalk.walks import WalkSample


@pytest.fixture
def sampled_walks(monkeypatch) -> list:
    """The arguments of every walk sampled by featurization, in call order."""
    calls = []
    sample_walk = features.sample_walk

    def counted(*args):
        calls.append(args)
        return sample_walk(*args)

    monkeypatch.setattr(features, "sample_walk", counted)
    return calls


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
    """Uniform random recursive tree as flat records (node i replies to < i)."""
    records = [CommentNode("m0000", None, "root text")]
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


def bow_examples(trees, task, d, *, normalize=False) -> Examples:
    """Bag-of-words baseline inputs, the input the walk features are
    measured against: polarity concatenates the parent and child BoW vectors
    (the pair framing), hate uses the single comment vector. Each row's walk
    is the PoI alone, since the baseline sees no context."""
    side = CorpusSide(trees, HashedBowProvider(d, normalize=normalize), task)
    pois = list(zip(side.trees, side.node_ids, side.node_rows))
    X = side.embeddings([rows[node_id] for _, node_id, rows in pois])
    if task == POLARITY_TASK:
        parents = side.embeddings([rows[tree.parent(node_id)] for tree, node_id, rows in pois])
        X = np.concatenate([parents, X], axis=1)
    return side.examples(X, tuple(WalkSample((node_id,), ()) for node_id in side.node_ids))


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
