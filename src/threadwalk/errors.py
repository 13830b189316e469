"""Exception types shared across the toolkit, and how their messages
quote a value."""

import os
from typing import Sequence


def cut(text: str, limit: int = 40) -> str:
    """``text`` cut to its first ``limit`` characters; "..." marks a cut."""
    return text if len(text) <= limit else text[:limit] + "..."


def cut_path(path: str | os.PathLike) -> str:
    """A path as an error message names it: cut to its first 200 characters."""
    return cut(os.fspath(path), 200)


def quote(value: object) -> str:
    """``repr(value)`` for an error message, cut to one short line: a string
    shows its first 40 characters, anything else the first 40 of its repr."""
    if isinstance(value, str):
        return repr(value[:40]) + ("..." if len(value) > 40 else "")
    return cut(repr(value))


def quote_list(values: Sequence) -> str:
    """``values`` as a list of quote()d items, the first five of them and
    then the count of the rest; a short list of short strings is its repr."""
    more = f" and {len(values) - 5} more" if len(values) > 5 else ""
    return "[" + ", ".join(map(quote, values[:5])) + "]" + more


class ThreadwalkError(Exception):
    """Base class for every error raised by this package."""


class InputError(ThreadwalkError):
    """Bad input from outside the program: a file, a flag or a config
    value. The command line reports it with exit code 2."""


# --- discussion tree construction ---

class DuplicateIdError(InputError):
    """Two records in one tree share the same id."""


class DanglingParentError(InputError):
    """A record references a parent id that does not exist."""


class MultipleRootsError(InputError):
    """More than one record has no parent."""


class NoRootError(InputError):
    """No record without a parent was found."""


class CycleDetectedError(InputError):
    """The parent relation contains a cycle (including self-reference)."""


class UnknownIdError(ThreadwalkError):
    """An id was looked up that is not part of the tree."""


# --- embeddings and features ---

class DimensionMismatchError(InputError):
    """Vectors, weights or model parameters disagree on dimension."""


class NegativeWeightError(ThreadwalkError):
    """A weighted aggregation received a negative weight."""


class MissingLabelError(InputError):
    """A node required to carry a task label is unlabeled."""


class MissingEmbeddingError(InputError):
    """An external embedding provider has no vector for a node id."""


class MalformedFileError(InputError):
    """An input file does not follow its documented format."""


# --- classifier ---

class SingleClassDataError(ThreadwalkError):
    """Training data contains fewer than two classes."""


class NonFiniteLossError(ThreadwalkError):
    """The training loss became NaN or infinite."""


class NonFiniteScoreError(InputError):
    """A model's class scores for some row are NaN or infinite."""


# --- evaluation ---

class TooFewTreesError(InputError):
    """A tree-level split needs at least two trees."""


class EmptyEvalSetError(ThreadwalkError):
    """Evaluation was requested on an empty example set."""


class NotBinaryTaskError(InputError):
    """Error analysis is only defined for binary tasks."""


# --- synthetic corpora and configuration ---

class InvalidSpecError(InputError):
    """A corpus specification is out of range or inconsistent."""


class ConfigError(InputError):
    """A run configuration is invalid or incomplete."""
