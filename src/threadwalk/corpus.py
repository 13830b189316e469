"""Corpus I/O.

A corpus file is newline-delimited JSON, one comment per line with fields
``{tree_id, id, parent_id (null for root), text, label (optional)}``.
Ids are strings or integers; an integer id is read as its decimal string.
Records are grouped by tree id (trees appear in first-seen order, records
keep file order) and each group is validated by :func:`build_tree`.
"""

from __future__ import annotations

import io
import json
import os
import secrets
import sys
import warnings
from collections import Counter
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

from .errors import MalformedFileError, ThreadwalkError, cut_path, quote, quote_list
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
    """Read a corpus file into validated trees; one warning names those with empty texts."""
    groups: dict[str, list[CommentNode]] = {}
    empty: Counter[str] = Counter()  # comments with empty text, by tree
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
        try:
            values = [obj[f] for f in _REQUIRED_FIELDS]
        except KeyError:
            missing = [f for f in _REQUIRED_FIELDS if f not in obj]
            raise MalformedFileError(f"{where}:{lineno}: missing fields {missing}") from None
        tree_id, node_id, parent_id, text = values
        label = obj.get("label")
        if label is not None and not isinstance(label, str):
            raise MalformedFileError(f"{where}:{lineno}: label must be a string or null")
        if not isinstance(text, str):
            raise MalformedFileError(f"{where}:{lineno}: text must be a string")
        if node_id is None or node_id == "" or tree_id == "":
            name = "tree_id" if tree_id == "" else "id"
            raise MalformedFileError(f"{where}:{lineno}: {name} must be non-empty")
        for (name, types), value in zip(_ID_TYPES.items(), values):
            if type(value) not in types:
                raise MalformedFileError(f"{where}:{lineno}: {name} must be a string or an integer")
        tid = str(tree_id)
        if not text:
            empty[tid] += 1
        parent_id = None if parent_id is None else str(parent_id)
        groups.setdefault(tid, []).append(CommentNode(str(node_id), parent_id, text, label))
    trees = []
    for tid, records in groups.items():
        try:
            trees.append(build_tree(records, tree_id=tid))
        except ThreadwalkError as exc:
            raise type(exc)(f"{where}: tree {quote(tid)}: {exc}") from None
    if empty:
        message = f"{where}: {empty.total()} comment(s) with empty text kept, in tree(s) "
        warnings.warn(message + quote_list([tid for tid in groups if tid in empty]), stacklevel=2)
    return trees


def text_lines(path: Path, source: BinaryIO | None = None) -> Iterator[str]:
    """The lines of a UTF-8 text file, less a leading byte-order mark, read from
    ``source`` (an open binary stream of ``path``) if given; MalformedFileError if not UTF-8."""
    try:
        with io.TextIOWrapper(source or path.open("rb"), encoding="utf-8-sig") as handle:
            yield from handle
    except UnicodeDecodeError:
        raise MalformedFileError(f"{cut_path(path)}: not UTF-8 text") from None


def write_bytes(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Stream ``chunks`` into a file atomically.

    The chunks go to a new temporary file in the target's directory, which
    replaces ``path`` only after the last chunk is written. The temporary
    file is created exclusively under an unpredictable name, so a file or
    symlink planted beside the target is never written through, and the
    kernel gives it the mode of any new file (``0o666`` less the umask).
    On any failure the temporary file is removed and ``path`` is left as
    it was.
    """
    path = Path(os.path.abspath(path))
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Stream ``lines`` into a UTF-8 text file atomically (see :func:`write_bytes`)."""
    write_bytes(path, (line.encode("utf-8") for line in lines))


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
