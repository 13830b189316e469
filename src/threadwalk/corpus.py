"""Corpus I/O.

A corpus file is newline-delimited JSON, one comment per line with fields
``{tree_id, id, parent_id (null for root), text, label (optional)}``.
Ids are strings or integers; an integer id is read as its decimal string.
Records are grouped by tree id (trees appear in first-seen order, records
keep file order) and each group is validated by :func:`build_tree`.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import MalformedFileError, ThreadwalkError, cut_path
from .tree import CommentNode, DiscussionTree, build_tree, tree_stats

# The exact JSON types of each id field: a bool is not an integer id.
_ID_TYPES = {"tree_id": {str, int}, "id": {str, int}, "parent_id": {str, int, type(None)}}
_REQUIRED_FIELDS = (*_ID_TYPES, "text")


def parse_int(text: str) -> int:
    """``int(text)``; past the interpreter's digit limit, a ValueError that
    names the limit rather than how to raise it."""
    limit = sys.get_int_max_str_digits()
    if limit and len(text.lstrip("+-")) > limit:
        raise ValueError(f"an integer longer than {limit} digits")
    return int(text)


# Decodes as json.loads does, reading integers with parse_int.
JSON_DECODER = json.JSONDecoder(parse_int=parse_int)


def load_corpus(path: str | Path) -> list[DiscussionTree]:
    """Read a corpus file into a list of validated discussion trees."""
    groups: dict[str, list[CommentNode]] = {}
    path, where = Path(path), cut_path(path)
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = JSON_DECODER.decode(line)
        except (ValueError, RecursionError) as exc:  # also too deep, or too many digits
            raise MalformedFileError(f"{where}:{lineno}: invalid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise MalformedFileError(f"{where}:{lineno}: record is not an object")
        missing = [f for f in _REQUIRED_FIELDS if f not in obj]
        if missing:
            raise MalformedFileError(f"{where}:{lineno}: missing fields {missing}")
        label = obj.get("label")
        if label is not None and not isinstance(label, str):
            raise MalformedFileError(f"{where}:{lineno}: label must be a string or null")
        if not isinstance(obj["text"], str):
            raise MalformedFileError(f"{where}:{lineno}: text must be a string")
        if obj["id"] is None or obj["id"] == "" or obj["tree_id"] == "":
            empty = "tree_id" if obj["tree_id"] == "" else "id"
            raise MalformedFileError(f"{where}:{lineno}: {empty} must be non-empty")
        for name, types in _ID_TYPES.items():
            if type(obj[name]) not in types:
                raise MalformedFileError(f"{where}:{lineno}: {name} must be a string or an integer")
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
            raise type(exc)(f"{where}: tree {tid!r}: {exc}") from None
    return trees


def text_lines(path: Path) -> Iterator[str]:
    """The lines of a UTF-8 text file; MalformedFileError if it is not UTF-8."""
    try:
        with path.open("r", encoding="utf-8") as handle:
            yield from handle
    except UnicodeDecodeError:
        raise MalformedFileError(f"{cut_path(path)}: not UTF-8 text") from None


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


def corpus_stats(trees: Sequence[DiscussionTree]) -> dict:
    """Aggregate corpus-level counts used by the CLI validate command."""
    stats = [tree_stats(tree) for tree in trees]
    label_counts = sum((Counter(s.label_counts) for s in stats), Counter())
    return {
        "trees": len(trees),
        "nodes": sum(s.nodes for s in stats),
        "max_depth": max((s.depth for s in stats), default=0),
        "label_counts": dict(sorted(label_counts.items())),
    }
