"""Corpus file round trips and BAF export."""

import json

import pytest

from threadwalk.corpus import export_baf, load_corpus, save_corpus, write_lines
from threadwalk.errors import MalformedFileError
from threadwalk.corpus import corpus_stats


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


def test_export_baf(tmp_path, debate_tree):
    path = tmp_path / "edges.jsonl"
    export_baf(debate_tree, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == [
        {"relation": "attack", "source": "b", "target": "a"},
        {"relation": "support", "source": "c", "target": "b"},
        {"relation": "attack", "source": "d", "target": "c"},
    ]


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
