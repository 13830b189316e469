"""Biased root-seeking walks over discussion trees.

From a starting comment the walk steps to the parent with probability
``p`` and to each of the ``c`` children with probability ``(1 - p) / c``,
ignoring edge directions. Revisited nodes move the walk but are dropped
from the output; the walk ends once ``L`` distinct nodes are collected,
nothing unvisited remains, or a hard step cap is hit. Position ``k`` of
the collected sequence carries discount weight ``gamma ** k`` (with the
``0 ** 0 == 1`` convention, so ``gamma = 0`` keeps only the start).

Boundary rules: at a leaf all probability mass goes to the parent; at the
root it is spread uniformly over the children, except that a ``p == 1``
walk terminates there because a deterministic walk cannot move up any
further. That makes ``p == 1`` exactly the ancestor chain for every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import UnknownIdError
from .seeding import stable_seed
from .tree import DiscussionTree

if TYPE_CHECKING:
    from .pipeline import RunConfig

DEFAULT_WALK_LENGTH = 4


@dataclass(frozen=True, slots=True)
class WalkSample:
    """Ordered distinct nodes collected by one walk.

    ``raw_steps`` is the physical trajectory after the start (revisits
    included), kept so tests can replay a walk step by step. A walk holds
    no weights: they depend only on its length and ``gamma``
    (:func:`walk_weights`), so one walk serves every gamma.
    """

    node_ids: tuple[str, ...]
    raw_steps: tuple[str, ...]

    @property
    def start(self) -> str:
        return self.node_ids[0]

    def trace_line(self, tree_id: str, gamma: float) -> str:
        """One JSON trace record, with the walk's weights under ``gamma``."""
        record = {
            "tree_id": tree_id,
            "start": self.start,
            "raw_steps": list(self.raw_steps),
            "node_ids": list(self.node_ids),
            "weights": walk_weights(len(self.node_ids), gamma),
        }
        return json.dumps(record, sort_keys=True)


def walk_weights(length: int, gamma: float) -> list[float]:
    """Discount weights ``[gamma**0, ..., gamma**(length - 1)]``."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return [float(gamma) ** k for k in range(length)]


def sample_walk(
    tree: DiscussionTree,
    start: str,
    config: RunConfig,
    draw: Callable[[], float],
) -> WalkSample:
    """Run one biased root-seeking walk from ``start`` under ``config.p``,
    ``config.walk_length`` (``L``) and ``config.resolved_step_cap``.

    Each step calls ``draw()`` once for a uniform ``r`` in [0, 1), as a
    Generator's ``random`` gives, and takes the first option, the parent
    and then the children in order, whose running sum of probabilities
    exceeds ``r``, or the last option if rounding leaves ``r`` above every
    sum. With ``p == 1`` the output is seed independent: the ancestor chain
    of ``start``, truncated to ``L``.
    """
    if start not in tree:
        raise UnknownIdError(start)
    collected = [start]
    visited = {start}
    raw: list[str] = []
    position = start
    cap = config.resolved_step_cap
    total = len(tree)
    p = config.p

    # Only a one-node tree has no neighbor; it never enters the loop.
    while len(collected) < config.walk_length and len(raw) < cap and len(visited) < total:
        parent = tree.parent(position)
        if parent is None and p == 1.0:
            break
        children = tree.children(position)
        r = draw()
        # a leaf's parent has probability 1.0, which every draw is below
        if parent is not None and (not children or r < p):
            position = parent
        else:
            acc = 0.0 if parent is None else p
            share = (1.0 if parent is None else 1.0 - p) / len(children)
            position = children[-1]
            for kid in children:
                acc += share
                if r < acc:
                    position = kid
                    break
        raw.append(position)
        if position not in visited:
            visited.add(position)
            collected.append(position)

    return WalkSample(tuple(collected), tuple(raw))


def walk_seed(seed: int, tree_id: str, node_id: str) -> int:
    """The seed of a node's walk stream, independent of featurization order."""
    return stable_seed(seed, "walk", tree_id, node_id)


def walk_rng(seed: int, tree_id: str, node_id: str) -> np.random.Generator:
    """Per-node walk stream: ``np.random.default_rng(walk_seed(...))``."""
    return np.random.default_rng(walk_seed(seed, tree_id, node_id))

