"""Corpus file round trips, the loader against its field-by-field oracle,
and corpus stats."""

import json
import os
import warnings

import pytest
from conftest import oracle_load_corpus
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from threadwalk.corpus import corpus_stats, load_corpus, save_corpus, write_lines
from threadwalk.errors import DanglingParentError, MalformedFileError


def _write(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _record(tree_id, node_id, parent_id, text, label=None):
    return json.dumps(
        {"tree_id": tree_id, "id": node_id, "parent_id": parent_id, "text": text, "label": label}
    )


def test_round_trip(tmp_path, debate_tree, fan_tree):
    path = tmp_path / "corpus.jsonl"
    save_corpus([debate_tree, fan_tree], path)
    trees = load_corpus(path)
    assert [t.tree_id for t in trees] == ["debate", "fan"]
    loaded = {t.tree_id: t for t in trees}
    assert loaded["debate"].node("b").label == "attack"
    assert loaded["fan"].children("a1") == ("a2", "a3", "a4")
    # a second save produces identical bytes
    other = tmp_path / "again.jsonl"
    save_corpus(trees, other)
    assert other.read_bytes() == path.read_bytes()


def test_groups_by_tree_id(tmp_path):
    path = _write(
        tmp_path,
        [
            _record("t1", "r", None, "one"),
            _record("t2", "r", None, "two"),
            _record("t1", "c", "r", "reply", "support"),
        ],
    )
    trees = load_corpus(path)
    assert [t.tree_id for t in trees] == ["t1", "t2"]
    assert len(trees[0]) == 2 and len(trees[1]) == 1


def test_invalid_json_line(tmp_path):
    path = _write(tmp_path, ["{not json"])
    with pytest.raises(MalformedFileError, match="invalid JSON"):
        load_corpus(path)


def test_record_that_is_not_an_object(tmp_path):
    path = _write(tmp_path, [_record("t", "r", None, "x"), "[1]"])
    with pytest.raises(MalformedFileError) as excinfo:
        load_corpus(path)
    assert str(excinfo.value) == f"{path}:2: record is not an object"


def test_missing_field(tmp_path):
    path = _write(tmp_path, [json.dumps({"tree_id": "t", "id": "r", "text": "x"})])
    with pytest.raises(MalformedFileError, match="missing fields"):
        load_corpus(path)


def test_non_string_label(tmp_path):
    path = _write(
        tmp_path,
        [json.dumps({"tree_id": "t", "id": "r", "parent_id": None, "text": "x", "label": 3})],
    )
    with pytest.raises(MalformedFileError, match="label"):
        load_corpus(path)


def test_blank_lines_skipped(tmp_path):
    path = _write(tmp_path, [_record("t", "r", None, "x"), "", _record("t", "c", "r", "y")])
    trees = load_corpus(path)
    assert len(trees) == 1 and len(trees[0]) == 2


def test_empty_texts_warn_once_in_first_appearance_order(tmp_path):
    """Tree ``a`` appears first, tree ``b`` has the first empty comment."""
    lines = [
        _record("a", "r", None, "root"),
        _record("b", "r", None, ""),
        _record("a", "c", "r", ""),
        _record("b", "c", "r", ""),
    ]
    path = _write(tmp_path, lines)
    with pytest.warns(UserWarning) as caught:
        load_corpus(path)
    assert [str(w.message) for w in caught] == [
        f"{path}: 3 comment(s) with empty text kept, in tree(s) ['a', 'b']"
    ]
    # A later tree that fails validation raises, and nothing is warned.
    path = _write(tmp_path, [*lines, _record("z", "r", "ghost", "x")], name="bad.jsonl")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DanglingParentError):
            load_corpus(path)


def test_leading_byte_order_mark_is_not_part_of_the_first_record(tmp_path, debate_tree, fan_tree):
    plain, marked, again = (tmp_path / f"{name}.jsonl" for name in ("plain", "marked", "again"))
    save_corpus([debate_tree, fan_tree], plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    save_corpus(load_corpus(marked), again)
    assert again.read_bytes() == plain.read_bytes()


def test_byte_order_mark_after_the_start_is_invalid_json(tmp_path):
    path = _write(tmp_path, [_record("t", "r", None, "x"), "\ufeff" + _record("t", "c", "r", "y")])
    with pytest.raises(MalformedFileError, match=":2: invalid JSON"):
        load_corpus(path)


_MISSING = object()  # an edit that deletes the field
# The faulty values of each field, for the checks in their documented order;
# an extra key is no fault.
_FIELD_FAULTS = {
    "tree_id": (_MISSING, "", None, True, False, 1.5, [], {}),
    "id": (_MISSING, "", None, True, False, 2.0, ["n0"]),
    "parent_id": (_MISSING, "", True, False, 0.5, [], {"id": "n0"}),
    "text": (_MISSING, None, 3, ["words"]),
    "label": (None, 3, True, ["hate"], {}),
    "extra": ("kept aside",),
}
# Whole lines that are no record, or no JSON.
_BAD_LINES = ["", "   ", "\t", "[1]", "3", '"text"', "null", "true", "{not json", "}", "{}"]


@st.composite
def _corpus_lines(draw) -> list[str]:
    """The lines of a corpus: valid trees (string or integer ids, a null parent,
    a missing or null label, empty texts) in shuffled order, with up to
    three records given an extra key or one or two field faults, blank and
    bad lines, and now and then a trailing ``}``."""
    records = []
    for t in range(draw(st.integers(1, 3))):
        tree_id = draw(st.sampled_from([f"t{t}", t, 70 + t]))
        ids = []
        for i in range(draw(st.integers(1, 4))):
            node_id = draw(st.sampled_from([f"n{i}", 10 * t + i]))
            parent = None if i == 0 else draw(st.sampled_from(ids))
            record = {"tree_id": tree_id, "id": node_id, "parent_id": parent}
            record["text"] = draw(st.sampled_from(["", "some words", "x"]))
            label = draw(st.sampled_from([_MISSING, None, "hate", "non-hate"]))
            if label is not _MISSING:
                record["label"] = label
            if draw(st.booleans()):
                record = dict(reversed(record.items()))
            ids.append(node_id)
            records.append(record)
    records = draw(st.permutations(records))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(records) - 1))
        record = dict(records[i])
        fields = st.sampled_from(sorted(_FIELD_FAULTS))
        for field in draw(st.lists(fields, min_size=1, max_size=2, unique=True)):
            value = draw(st.sampled_from(_FIELD_FAULTS[field]))
            if value is _MISSING:
                record.pop(field, None)
            else:
                record[field] = value
        records[i] = record
    lines = [json.dumps(record) for record in records]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines)))
        lines.insert(i, draw(st.sampled_from(_BAD_LINES)))
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] += "}"
    return lines


def _outcome(load, path):
    """The trees ``load`` reads from ``path`` (tree order, node order, every
    field and the children) or its error, and the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            trees = load(path)
            result = [
                (t.tree_id, t.root_id, list(t), [t.children(n.id) for n in t]) for t in trees
            ]
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(lines=_corpus_lines())
def test_loader_matches_the_field_by_field_oracle(tmp_path, lines):
    path = _write(tmp_path, lines)
    assert _outcome(load_corpus, path) == _outcome(oracle_load_corpus, path)


def test_corpus_stats(debate_tree, fan_tree):
    stats = corpus_stats([debate_tree, fan_tree])
    assert stats["trees"] == 2
    assert stats["nodes"] == 9
    assert stats["label_counts"] == {"attack": 2, "support": 1}


@pytest.mark.parametrize("node_id", ["", None])
def test_empty_id_names_the_line(tmp_path, node_id):
    path = _write(tmp_path, [_record("t", "r", None, "x"), _record("t", node_id, "r", "y")])
    with pytest.raises(MalformedFileError, match=r"corpus\.jsonl:2: id must be non-empty"):
        load_corpus(path)


def test_integer_ids_read_as_strings(tmp_path):
    path = _write(tmp_path, [_record(7, 1, None, "x"), _record(7, 2, 1, "y")])
    (tree,) = load_corpus(path)
    assert (tree.tree_id, tree.root_id, tree.parent("2")) == ("7", "1", "1")


@pytest.mark.parametrize("text", [None, 3, ["words"]])
def test_non_string_text_names_the_line(tmp_path, text):
    path = _write(tmp_path, [_record("t", "r", None, text)])
    with pytest.raises(MalformedFileError, match=r"corpus\.jsonl:1: text must be a string"):
        load_corpus(path)


def test_failed_write_leaves_no_file(tmp_path):
    def lines():
        yield "first\n"
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_lines(tmp_path / "new.txt", lines())
    assert list(tmp_path.iterdir()) == []
    kept = tmp_path / "kept.txt"
    kept.write_text("old\n")
    with pytest.raises(RuntimeError):
        write_lines(kept, lines())
    assert list(tmp_path.iterdir()) == [kept] and kept.read_text() == "old\n"


def test_write_never_follows_a_planted_temp_file(tmp_path, monkeypatch):
    """A symlink planted at the very temporary name the writer draws is
    neither written through nor moved into place: the write fails."""
    victim = tmp_path / "victim.txt"
    victim.write_text("victim\n")
    out = tmp_path / "out.txt"
    monkeypatch.setattr(os, "urandom", lambda n: b"\x5a" * n)
    planted = tmp_path / f".out.txt.{'5a' * 8}.tmp"  # the name those bytes give
    planted.symlink_to(victim)
    with pytest.raises(FileExistsError):
        write_lines(out, ["hello\n"])
    assert victim.read_text() == "victim\n"
    assert not out.exists() and planted.is_symlink()


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002])
def test_written_file_takes_the_mode_of_a_new_file(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_lines(tmp_path / "out.txt", ["x\n"])
    finally:
        os.umask(old)
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == 0o666 & ~umask
