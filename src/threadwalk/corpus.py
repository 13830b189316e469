"""Corpus I/O.

A corpus file is newline-delimited JSON, one comment per line with fields
``{tree_id, id, parent_id (null for root), text, label (optional)}``.
Records are grouped by tree id (trees appear in first-seen order, records
keep file order) and each group is validated by :func:`build_tree`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import MalformedFileError, ThreadwalkError
from .tree import CommentNode, DiscussionTree, build_tree, to_baf

_REQUIRED_FIELDS = ("tree_id", "id", "parent_id", "text")


def load_corpus(path: str | Path) -> list[DiscussionTree]:
    """Read a corpus file into a list of validated discussion trees."""
    groups: dict[str, list[CommentNode]] = {}
    path = Path(path)
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedFileError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise MalformedFileError(f"{path}:{lineno}: record is not an object")
        missing = [f for f in _REQUIRED_FIELDS if f not in obj]
        if missing:
            raise MalformedFileError(f"{path}:{lineno}: missing fields {missing}")
        label = obj.get("label")
        if label is not None and not isinstance(label, str):
            raise MalformedFileError(f"{path}:{lineno}: label must be a string or null")
        if not isinstance(obj["text"], str):
            raise MalformedFileError(f"{path}:{lineno}: text must be a string")
        if obj["id"] is None or str(obj["id"]) == "":
            raise MalformedFileError(f"{path}:{lineno}: id must be non-empty")
        groups.setdefault(str(obj["tree_id"]), []).append(
            CommentNode(
                id=str(obj["id"]),
                parent_id=None if obj["parent_id"] is None else str(obj["parent_id"]),
                text=obj["text"],
                label=label,
            )
        )
    trees = []
    for tid, records in groups.items():
        try:
            trees.append(build_tree(records, tree_id=tid))
        except ThreadwalkError as exc:
            raise type(exc)(f"{path}: tree {tid!r}: {exc}") from None
    return trees


def text_lines(path: Path) -> Iterator[str]:
    """The lines of a UTF-8 text file; MalformedFileError if it is not UTF-8."""
    try:
        with path.open("r", encoding="utf-8") as handle:
            yield from handle
    except UnicodeDecodeError:
        raise MalformedFileError(f"{path}: not UTF-8 text") from None


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Stream ``lines`` into a UTF-8 text file atomically.

    The lines go to a temporary file in the target's directory, which
    replaces ``path`` only after the last line is written; on any failure
    the temporary file is removed and ``path`` is left as it was.
    """
    path = Path(os.path.abspath(path))
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    handle = tmp.open("w", encoding="utf-8")
    try:
        with handle:
            handle.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def save_corpus(trees: Iterable[DiscussionTree], path: str | Path) -> None:
    """Write trees back to the newline-delimited record format."""
    records = (
        {
            "tree_id": tree.tree_id,
            "id": node.id,
            "parent_id": node.parent_id,
            "text": node.text,
            "label": node.label,
        }
        for tree in trees
        for node in tree
    )
    write_lines(path, (json.dumps(record, sort_keys=True) + "\n" for record in records))


def export_baf(tree: DiscussionTree, path: str | Path) -> None:
    """Write the tree's argumentation edges, one JSON edge per line."""
    framework = to_baf(tree)
    relation = {edge: "attack" for edge in framework.attacks}
    relation.update({edge: "support" for edge in framework.supports})
    edges = ((node.id, node.parent_id) for node in tree if node.id != tree.root_id)
    write_lines(
        path,
        (
            json.dumps({"source": u, "target": v, "relation": relation[u, v]}, sort_keys=True)
            + "\n"
            for u, v in edges
        ),
    )


def corpus_stats(trees: Sequence[DiscussionTree]) -> dict:
    """Aggregate corpus-level counts used by the CLI validate command."""
    from .tree import tree_stats

    total_nodes = 0
    max_depth = 0
    label_counts: dict[str, int] = {}
    for tree in trees:
        stats = tree_stats(tree)
        total_nodes += stats.nodes
        max_depth = max(max_depth, stats.depth)
        for label, count in stats.label_counts.items():
            label_counts[label] = label_counts.get(label, 0) + count
    return {
        "trees": len(trees),
        "nodes": total_nodes,
        "max_depth": max_depth,
        "label_counts": dict(sorted(label_counts.items())),
    }
