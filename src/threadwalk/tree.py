"""Discussion trees: validated single-rooted reply structures.

A discussion is a tree of comments. Exactly one comment (the root) replies
to nothing; every other comment replies to exactly one existing comment.
Trees are immutable after construction, so concurrent read-only traversal
from multiple workers is safe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import (
    CycleDetectedError,
    DanglingParentError,
    DuplicateIdError,
    MultipleRootsError,
    NoRootError,
    UnknownIdError,
    quote,
    quote_list,
)


@dataclass(frozen=True, slots=True)
class CommentNode:
    """One comment record: an id, an optional parent and a task label.

    The label is task dependent: for polarity it describes the edge to the
    parent (support/attack), for hate detection it describes the node
    itself (hate/non-hate).
    """

    id: str
    parent_id: str | None
    text: str
    label: str | None = None


@dataclass(frozen=True)
class TreeStats:
    """Exact per-tree counts."""

    nodes: int
    depth: int
    label_counts: dict[str, int]


class DiscussionTree:
    """A validated reply tree. Build instances through :func:`build_tree`.

    Children keep the order in which their records were supplied, which
    makes seeded walks reproducible.
    """

    def __init__(
        self,
        nodes: dict[str, CommentNode],
        root_id: str,
        children_index: dict[str, tuple[str, ...]],
        tree_id: str = "",
    ) -> None:
        self._nodes = nodes
        self._children = children_index
        self.root_id = root_id
        self.tree_id = tree_id

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[CommentNode]:
        return iter(self._nodes.values())

    def node(self, node_id: str) -> CommentNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownIdError(node_id) from None

    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def parent(self, node_id: str) -> str | None:
        return self.node(node_id).parent_id

    def children(self, node_id: str) -> tuple[str, ...]:
        if node_id not in self._nodes:
            raise UnknownIdError(node_id)
        return self._children.get(node_id, ())


def build_tree(records: Sequence[CommentNode], tree_id: str = "") -> DiscussionTree:
    """Assemble and validate a discussion tree from flat comment records.

    Raises, checking in this order:
        NoRootError: empty input.
        ValueError, DuplicateIdError, CycleDetectedError: the first record
            with an empty id, a repeated id or a reply to itself.
        DanglingParentError: a reply to an unknown id.
        CycleDetectedError: a longer cycle; the message names a node on it.
        MultipleRootsError: more than one parentless record.
    """
    if not records:
        raise NoRootError("cannot build a tree from zero records")

    nodes: dict[str, CommentNode] = {}
    children: dict[str | None, list[str]] = {}  # roots under None
    for rec in records:
        if not rec.id:
            raise ValueError("comment ids must be non-empty")
        if rec.id in nodes:
            raise DuplicateIdError(f"duplicate comment id {quote(rec.id)}")
        if rec.parent_id == rec.id:
            raise CycleDetectedError(f"comment {quote(rec.id)} replies to itself")
        nodes[rec.id] = rec
        children.setdefault(rec.parent_id, []).append(rec.id)

    roots = children.pop(None, [])
    # Keys keep first-use order: the first unknown one is the first dangling record's.
    for pid, ids in children.items():
        if pid not in nodes:
            raise DanglingParentError(f"comment {quote(ids[0])} replies to unknown id {quote(pid)}")

    reached = list(roots)
    for nid in reached:  # grows as it goes, down to every node below a root
        reached.extend(children.get(nid, ()))
    if len(reached) < len(nodes):
        # No root reaches the parent of an unreached node either, so the chain loops.
        seen = set(reached)
        cur = next(nid for nid in nodes if nid not in seen)
        while cur not in seen:
            seen.add(cur)
            cur = nodes[cur].parent_id
        raise CycleDetectedError(f"reply cycle through {quote(cur)}")

    if len(roots) > 1:
        raise MultipleRootsError(f"multiple parentless records: {quote_list(roots)}")

    index = {pid: tuple(kids) for pid, kids in children.items()}
    return DiscussionTree(nodes, roots[0], index, tree_id=tree_id)


def tree_stats(tree: DiscussionTree) -> TreeStats:
    """Exact node, depth and label counts for one tree."""
    label_counts = dict(Counter(node.label for node in tree if node.label is not None))

    depth, level = -1, [tree.root_id]
    while level:
        depth += 1
        level = [kid for nid in level for kid in tree.children(nid)]
    return TreeStats(nodes=len(tree), depth=depth, label_counts=label_counts)
