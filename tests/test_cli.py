"""End-to-end command-line behaviour and exit codes."""

import contextlib
import dataclasses
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from threadwalk import cli, features, pipeline
from threadwalk import corpus as corpus_module
from threadwalk import model as model_module
from threadwalk.cli import _resolve_config, build_parser, main
from threadwalk.embeddings import load_external_embeddings, save_external_embeddings
from threadwalk.errors import InputError
from threadwalk.model import SoftmaxModel, load_model, save_model
from threadwalk.corpus import load_corpus
from threadwalk.pipeline import (
    MAX_BOW_DIM,
    MAX_EPOCHS,
    MAX_STEP_CAP,
    MAX_WALK_LENGTH,
    RunConfig,
    read_manifest,
    replicate,
    split_sides,
    write_manifest,
)
from threadwalk.synthetic import CorpusSpec, generate


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    code = main(
        [
            "generate",
            "--output",
            str(path),
            "--task",
            "hate",
            "--num-trees",
            "60",
            "--mean-tree-size",
            "8",
            "--positive-fraction",
            "0.25",
            "--context-signal",
            "0.6",
            "--seed",
            "11",
        ]
    )
    assert code == 0
    return path


def _fast_flags():
    return ["--epochs", "8", "--bow-dim", "32", "--seed", "2"]


def _recorded(config):
    """The settings a model trained under ``config`` records in its metadata."""
    return {name: v for name, v in config.to_dict().items() if name != "embedding_file"}


def test_generate_then_validate(corpus_path, capsys):
    assert main(["validate", str(corpus_path)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["trees"] == 60
    assert set(stats["label_counts"]) == {"hate", "non-hate"}


def test_validate_reports_cycles(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    rows = [
        {"tree_id": "t", "id": "x", "parent_id": "y", "text": "a", "label": "hate"},
        {"tree_id": "t", "id": "y", "parent_id": "x", "text": "b", "label": "hate"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    code = main(["validate", str(path)])
    assert code == 2
    assert "cycle" in capsys.readouterr().err.lower()


def test_run_and_manifest_replay(corpus_path, tmp_path):
    first = tmp_path / "first"
    code = main(
        ["run", "--corpus", str(corpus_path), "--out", str(first), "--task", "hate"]
        + _fast_flags()
    )
    assert code == 0
    for name in ("manifest.json", "model.txt", "report.txt", "metrics.json"):
        assert (first / name).exists()

    second = tmp_path / "second"
    code = main(
        [
            "run",
            "--corpus",
            str(corpus_path),
            "--out",
            str(second),
            "--config",
            str(first / "manifest.json"),
        ]
    )
    assert code == 0
    assert (second / "metrics.json").read_bytes() == (first / "metrics.json").read_bytes()
    assert (second / "model.txt").read_bytes() == (first / "model.txt").read_bytes()


def test_run_artifacts_and_replay(corpus_path, tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["run", "--corpus", str(corpus_path), "--task", "hate", "--dump-features"]
    assert main(argv + _fast_flags() + ["--out", str(first)]) == 0
    names = ["model.txt", "report.txt", "metrics.json", "features.jsonl", "manifest.json"]
    assert sorted(path.name for path in first.iterdir()) == sorted(names)
    artifacts = ", ".join(str(first / name) for name in names)
    assert capsys.readouterr().out.splitlines()[-1] == f"artifacts: {artifacts}"
    metrics = json.loads((first / "metrics.json").read_text())
    assert metrics["train_examples"] > metrics["test_examples"] > 0

    # byte-exact replay from the manifest alone
    replay = ["run", "--corpus", str(corpus_path), "--config", str(first / "manifest.json")]
    assert main(replay + ["--dump-features", "--out", str(second)]) == 0
    for name in ("model.txt", "metrics.json", "features.jsonl"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_run_metrics_content(corpus_path, tmp_path):
    argv = ["run", "--corpus", str(corpus_path), "--out", str(tmp_path), "--task", "hate"]
    assert main(argv + _fast_flags()) == 0
    config = RunConfig(task="hate", epochs=8, bow_dim=32, seed=2)
    train_side, test_side = split_sides(load_corpus(corpus_path), config)
    (result,) = replicate(train_side, test_side, [config])
    payload = json.loads((tmp_path / "metrics.json").read_text())
    assert payload["config"] == config.to_dict()
    assert payload["report"]["accuracy"] == result.report.accuracy
    assert payload["train_examples"] == len(train_side.labels)
    assert payload["test_examples"] == len(test_side.labels)
    assert (tmp_path / "report.txt").read_text() == result.report.to_text()


def test_wrong_task_label_domain_exits_2(corpus_path, tmp_path, capsys):
    code = main(
        [
            "run",
            "--corpus",
            str(corpus_path),
            "--out",
            str(tmp_path / "out"),
            "--task",
            "polarity",
        ]
        + _fast_flags()
    )
    assert code == 2
    assert "label" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    "command",
    ["run", "grid-search", "ablate-concat", "train", "evaluate", "error-analysis"],
)
def test_test_side_without_pois_exits_1_before_featurizing(tmp_path, capsys, monkeypatch, command):
    # Six polarity trees. Seed 3 puts only t3 on the test side, and t3 is a
    # bare root, which is no polarity PoI. Every command that splits the
    # corpus refuses the split before it featurizes either side.
    rows = []
    for t in range(6):
        rows.append({"tree_id": f"t{t}", "id": f"t{t}r", "parent_id": None, "text": "root"})
        if t in (1, 2, 4):
            for label in ("support", "attack"):
                rows.append(
                    {"tree_id": f"t{t}", "id": f"t{t}{label}", "parent_id": f"t{t}r",
                     "text": label, "label": label}
                )
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    monkeypatch.setattr(features.CorpusSide, "walks", lambda *a, **k: pytest.fail("featurized"))
    out = tmp_path / "out"
    argv = [command, "--corpus", str(path), "--out", str(out)]
    if command in ("evaluate", "error-analysis"):
        # The model is loaded before the split, so any valid model file that
        # records these settings does.
        model = tmp_path / "model.txt"
        settings = _recorded(RunConfig(task="polarity", seed=3))
        classes = ("attack", "support")
        save_model(SoftmaxModel(np.zeros((2, 1)), np.zeros(2), classes, settings), model)
        argv += ["--model", str(model)]
    else:
        argv += ["--task", "polarity", "--seed", "3"]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: the test side of the polarity split at seed 3 has no PoIs"]
    assert not (out / "model.txt").exists()
    assert not out.exists() or not any(out.iterdir())


def test_train_then_evaluate_matches_run_report(corpus_path, tmp_path, capsys):
    """``evaluate`` needs nothing but the corpus and the model file to score
    a model trained under settings other than the defaults."""
    rundir = tmp_path / "run"
    flags = ["--task", "hate", "--scheme", "uv_mul", "--p", "0.2", "--walk-length", "3"]
    flags += ["--aggregation", "sum", *_fast_flags(), "--seed", "5"]
    assert main(["run", "--corpus", str(corpus_path), "--out", str(rundir), *flags]) == 0
    capsys.readouterr()

    traindir = tmp_path / "train"
    assert (
        main(
            [
                "train",
                "--corpus",
                str(corpus_path),
                "--out",
                str(traindir),
                "--config",
                str(rundir / "manifest.json"),
            ]
        )
        == 0
    )
    assert (traindir / "model.txt").read_bytes() == (rundir / "model.txt").read_bytes()
    capsys.readouterr()

    code = main(["evaluate", "--corpus", str(corpus_path), "--model", str(traindir / "model.txt")])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed == (rundir / "report.txt").read_text()


def test_featurize_with_traces(corpus_path, tmp_path):
    features = tmp_path / "features.jsonl"
    traces = tmp_path / "traces.jsonl"
    code = main(
        [
            "featurize",
            "--corpus",
            str(corpus_path),
            "--output",
            str(features),
            "--traces",
            str(traces),
            "--task",
            "hate",
        ]
        + _fast_flags()
    )
    assert code == 0
    feature_lines = features.read_text().strip().split("\n")
    trace_lines = traces.read_text().strip().split("\n")
    assert len(feature_lines) == len(trace_lines)
    record = json.loads(feature_lines[0])
    assert set(record) == {"tree_id", "node_id", "label", "features"}
    trace = json.loads(trace_lines[0])
    assert {"tree_id", "start", "raw_steps", "node_ids", "weights"} <= set(trace)


def test_grid_search_csv_and_replay(corpus_path, tmp_path):
    first = tmp_path / "grid1"
    args = [
        "grid-search",
        "--corpus",
        str(corpus_path),
        "--task",
        "hate",
        "--p-values",
        "0.5,1.0",
        "--gamma-values",
        "0.0,0.8",
        "--seeds",
        "0,1",
        "--jobs",
        "1",
    ] + _fast_flags()
    assert main(args + ["--out", str(first)]) == 0
    csv_lines = (first / "grid.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 5

    second = tmp_path / "grid2"
    replay = [
        "grid-search",
        "--corpus",
        str(corpus_path),
        "--config",
        str(first / "manifest.json"),
        "--jobs",
        "1",
        "--out",
        str(second),
    ]
    assert main(replay) == 0
    assert (second / "grid.csv").read_bytes() == (first / "grid.csv").read_bytes()


def test_ablate_concat_rows(corpus_path, tmp_path, capsys):
    out = tmp_path / "ablate"
    code = main(
        [
            "ablate-concat",
            "--corpus",
            str(corpus_path),
            "--task",
            "hate",
            "--seeds",
            "0,1",
            "--out",
            str(out),
        ]
        + _fast_flags()
    )
    assert code == 0
    lines = (out / "ablation.csv").read_text().strip().split("\n")
    assert len(lines) == 5
    assert [row.split(",")[0] for row in lines[1:]] == [
        "uv",
        "uv_mul",
        "uv_absdiff",
        "uv_absdiff_mul",
    ]


@pytest.mark.parametrize("command", ["featurize", "run", "error-analysis"])
def test_walks_read_after_featurizing_are_sampled_once(
    corpus_path, tmp_path, capsys, sampled_walks, command
):
    """``featurize --traces``, ``run --dump-features`` and ``error-analysis``
    read each side's walks from its memo after featurizing it, so every PoI
    of each side they read is walked once."""
    trees = load_corpus(corpus_path)
    argv = [command, "--corpus", str(corpus_path)]
    if command == "error-analysis":
        config = RunConfig(task="hate", epochs=8, bow_dim=32, seed=2)  # _zero_hate_model's
        pois = split_sides(trees, config)[1].node_ids
        argv += ["--model", str(_zero_hate_model(tmp_path / "model.txt"))]
    else:
        pois = [node.id for tree in trees for node in tree]  # every node of a hate corpus
        argv += ["--task", "hate", *_fast_flags()]
    if command == "featurize":
        argv += ["--output", str(tmp_path / "features.jsonl")]
        argv += ["--traces", str(tmp_path / "traces.jsonl")]
    else:
        argv += ["--out", str(tmp_path / "out")]
        argv += ["--dump-features"] if command == "run" else []
    assert main(argv) == 0
    assert len(pois) == len(set(pois)) > 0
    assert sorted(walk.start for walk in sampled_walks) == sorted(pois)


def test_error_analysis_reconciles(corpus_path, tmp_path, capsys):
    rundir = tmp_path / "run"
    assert (
        main(
            ["run", "--corpus", str(corpus_path), "--out", str(rundir), "--task", "hate"]
            + _fast_flags()
        )
        == 0
    )
    metrics = json.loads((rundir / "metrics.json").read_text())
    confusion = metrics["report"]["confusion"]
    names = metrics["report"]["class_names"]
    pos = names.index(metrics["report"]["positive_label"])
    neg = 1 - pos
    capsys.readouterr()

    out = tmp_path / "errors"
    code = main(
        [
            "error-analysis",
            "--corpus",
            str(corpus_path),
            "--model",
            str(rundir / "model.txt"),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = [
        json.loads(line)
        for line in (out / "errors.jsonl").read_text().strip().split("\n")
        if line
    ]
    fps = [r for r in records if r["kind"] == "fp"]
    fns = [r for r in records if r["kind"] == "fn"]
    assert len(fps) == confusion[neg][pos]
    assert len(fns) == confusion[pos][neg]


@pytest.mark.parametrize("command", ["evaluate", "error-analysis"])
def test_model_of_another_width_exits_2(corpus_path, tmp_path, capsys, command):
    """A model trained on an external table, scored with a narrower one."""
    rng = np.random.default_rng(5)
    node_ids = [node.id for tree in load_corpus(corpus_path) for node in tree]
    tables = {d: tmp_path / f"emb{d}.txt" for d in (6, 3)}
    for d, path in tables.items():
        save_external_embeddings({nid: rng.standard_normal(d) for nid in node_ids}, path)
    traindir = tmp_path / "train"
    argv = ["train", "--corpus", str(corpus_path), "--task", "hate", *_fast_flags()]
    argv += ["--out", str(traindir), "--embedding", "external", "--embedding-file", str(tables[6])]
    assert main(argv) == 0
    capsys.readouterr()
    model, out = traindir / "model.txt", tmp_path / "out"
    argv = [command, "--corpus", str(corpus_path), "--model", str(model)]
    assert main([*argv, "--out", str(tmp_path / "ok"), "--embedding-file", str(tables[6])]) == 0
    capsys.readouterr()
    assert main([*argv, "--out", str(out), "--embedding-file", str(tables[3])]) == 2
    line = _single_error_line(capsys)
    assert line == (
        f"error: {model} takes 18 features per row, but these embeddings give 9; "
        "use the table it was trained on"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "error-analysis"])
def test_model_with_non_finite_scores_exits_2(corpus_path, tmp_path, capsys, command):
    """Weights of alternating sign and size 1e308 overflow the scores: the
    error line names the model file, and no numpy warning, file or
    ``--out`` directory is left."""
    traindir = tmp_path / "train"
    argv = ["train", "--corpus", str(corpus_path), "--task", "hate", *_fast_flags()]
    assert main([*argv, "--out", str(traindir)]) == 0
    model, path = load_model(traindir / "model.txt"), traindir / "huge.txt"
    model.weights[:] = np.where(np.indices(model.weights.shape).sum(axis=0) % 2, -1e308, 1e308)
    save_model(model, path)
    capsys.readouterr()
    out = tmp_path / "new"
    assert main([command, "--corpus", str(corpus_path), "--model", str(path), "--out", str(out)]) == 2
    line = _single_error_line(capsys)
    assert re.fullmatch(rf"error: {re.escape(str(path))}: class scores of \d+ of \d+ rows are not finite", line)
    assert not out.exists()


@pytest.mark.parametrize("command", ["featurize", "run"])
def test_embedding_values_past_the_bound_exit_2(corpus_path, tmp_path, capsys, command):
    """A finite table of +-1e308 rows would make infinite features: it is
    refused at its first line, before any output is written."""
    node_ids = [node.id for tree in load_corpus(corpus_path) for node in tree]
    table, out = tmp_path / "huge.txt", tmp_path / "new"
    table.write_text("d=2\n" + "".join(f"{node_id} 1e308 -1e308\n" for node_id in node_ids))
    argv = [command, "--corpus", str(corpus_path), "--task", "hate", "--embedding", "external"]
    argv += ["--embedding-file", str(table), "--output" if command == "featurize" else "--out"]
    assert main([*argv, str(out)]) == 2
    assert _single_error_line(capsys) == f"error: {table}:2: value outside [-1e+150, 1e+150]"
    assert not out.exists()


@pytest.mark.parametrize(
    "classes, tail, message",
    [
        (("hate", "hate"), "", "class names must be two or more, distinct and non-empty"),
        (("", ""), "", "class names must be two or more, distinct and non-empty"),
        (("hate",), "", "class names must be two or more, distinct and non-empty"),
        (("hate", "non-hate"), "0.5 0.5\n", "unexpected line after the bias row"),
    ],
    ids=["repeated-classes", "empty-classes", "one-class", "line-after-bias"],
)
def test_bad_model_file_exits_2(corpus_path, tmp_path, capsys, classes, tail, message):
    model = tmp_path / "model.txt"
    save_model(SoftmaxModel(np.zeros((len(classes), 24)), np.zeros(len(classes)), classes), model)
    with model.open("a") as handle:
        handle.write(tail)
    argv = ["evaluate", "--corpus", str(corpus_path), "--model", str(model)]
    assert main(argv) == 2
    assert _single_error_line(capsys) == f"error: {model}: {message}"


_LINE_LABELS = "lines 2 to 4 must start with ('classes\\t', 'dims ', 'meta ')"


@pytest.mark.parametrize(
    "index, line, message",
    [
        (1, "classez\thate\tnon-hate\n", _LINE_LABELS),
        (2, "dimz 2 24\n", _LINE_LABELS),
        (3, "mota {}\n", _LINE_LABELS),
        (3, "meta [1, 2]\n", "meta must be a JSON object, got [1, 2]"),
        (3, 'meta "' + "m" * 100 + '"\n', "meta must be a JSON object, got '" + "m" * 40 + "'..."),
    ],
    ids=["classes-label", "dims-label", "meta-label", "meta-list", "meta-long-string"],
)
def test_mislabeled_model_header_exits_2(corpus_path, tmp_path, capsys, index, line, message):
    model = tmp_path / "model.txt"
    settings = _recorded(RunConfig(task="hate", bow_dim=8))
    save_model(SoftmaxModel(np.zeros((2, 24)), np.zeros(2), ("hate", "non-hate"), settings), model)
    lines = model.read_text().splitlines(keepends=True)
    lines[index] = line
    model.write_text("".join(lines))
    assert main(["evaluate", "--corpus", str(corpus_path), "--model", str(model)]) == 2
    assert _single_error_line(capsys) == f"error: {model}: {message}"


# The meta of a model written before models recorded their run settings.
_OLD_META = {
    "epochs": 2, "batch_size": 32, "learning_rate": 0.1, "l2": 0.0001, "seed": 0,
    "class_weighting": True, "momentum": 0.0, "n_examples": 30, "feature_dim": 24,
    "loss_history": [0.69, 0.65],
}


@pytest.mark.parametrize(
    "meta, message",
    [
        (_OLD_META, "meta lacks ['task', 'p', 'gamma', 'walk_length', 'step_cap'] and 7 more; "
                    "retrain it"),
        ({**_recorded(RunConfig(task="hate")), "bow_normalize": None},
         "bow_normalize must be true or false, got None"),
        ({**_recorded(RunConfig(task="hate")), "p": 2}, "p must be in [0, 1], got 2"),
        (_recorded(RunConfig(task="spam")), "task must be one of ('polarity', 'hate'), got 'spam'"),
        (_recorded(RunConfig(task="hate", embedding="external")),
         "embedding 'external' needs embedding_file"),
    ],
    ids=[
        "written-without-settings", "mistyped", "out-of-range", "unknown-task",
        "external-without-table",
    ],
)
def test_model_without_usable_settings_exits_2(corpus_path, tmp_path, capsys, meta, message):
    """Every model written before models recorded their run settings is
    refused, and so is one whose settings do not make a valid config."""
    model = tmp_path / "model.txt"
    save_model(SoftmaxModel(np.zeros((2, 24)), np.zeros(2), ("hate", "non-hate"), meta), model)
    assert main(["evaluate", "--corpus", str(corpus_path), "--model", str(model)]) == 2
    assert _single_error_line(capsys) == f"error: {model}: {message}"


@pytest.mark.parametrize("command", ["evaluate", "error-analysis"])
def test_model_of_another_task_exits_2(tmp_path, capsys, command):
    """A hate model whose ``meta`` was edited to name the polarity task."""
    corpus, traindir, out = tmp_path / "hate.jsonl", tmp_path / "train", tmp_path / "out"
    argv = ["generate", "--output", str(corpus), "--task", "hate", "--num-trees", "20"]
    assert main(argv + ["--mean-tree-size", "6", "--seed", "4"]) == 0
    argv = ["train", "--corpus", str(corpus), "--task", "hate", "--out", str(traindir)]
    assert main(argv + ["--epochs", "2", "--bow-dim", "8"]) == 0
    capsys.readouterr()
    model = traindir / "model.txt"
    text = model.read_text()
    assert text.count('"task": "hate"') == 1
    model.write_text(text.replace('"task": "hate"', '"task": "polarity"'))
    argv = [command, "--corpus", str(corpus), "--model", str(model), "--out", str(out)]
    assert main(argv) == 2
    assert _single_error_line(capsys) == (
        f"error: {model} predicts ('hate', 'non-hate'), not the labels "
        "('support', 'attack') of the polarity task its settings name"
    )
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["validate", "run"])
def test_library_warnings_print_one_line_each(corpus_path, tmp_path, capsys, command):
    with corpus_path.open("a") as handle:
        record = {"tree_id": "quiet", "id": "q0", "parent_id": None, "text": "", "label": "hate"}
        handle.write(json.dumps(record) + "\n")
    argv = ["validate", str(corpus_path)]
    if command == "run":
        argv = ["run", "--corpus", str(corpus_path), "--out", str(tmp_path / "out"), *_RUN_HATE]
    assert main(argv) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        f"warning: {corpus_path}: 1 comment(s) with empty text kept, in tree(s) ['quiet']"
    ]


@pytest.mark.parametrize("last", ["t4", "t" * 3_000], ids=["short-ids", "long-id"])
def test_empty_texts_warn_once_per_file(tmp_path, capsys, last):
    """Five trees that each keep an empty comment give one short line."""
    path = tmp_path / "corpus.jsonl"
    tree_ids = ["t0", "t1", "t2", "t3", last]
    rows = [{"tree_id": tid, "id": "r", "parent_id": None, "text": ""} for tid in tree_ids]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert main(["validate", str(path)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and len(lines[0].encode()) < 300, lines
    trees = "['t0', 't1', 't2', 't3', " + ("'t4']" if last == "t4" else f"'{'t' * 40}'...]")
    assert lines[0] == f"warning: {path}: 5 comment(s) with empty text kept, in tree(s) {trees}"


_GRID_4_SEEDS = ["grid-search", "--p-values", "0,1", "--gamma-values", "0.5", "--seeds", "0,1,2,3"]


@pytest.mark.parametrize(
    "argv",
    [[*_GRID_4_SEEDS, "--jobs", "1"], [*_GRID_4_SEEDS, "--jobs", "2"], ["run"]],
    ids=["grid-jobs-1", "grid-jobs-2", "run"],
)
def test_missing_class_warns_once_per_command(tmp_path, argv):
    """A split whose test side lacks a class gives one line that names the
    split seed, however many replicates and workers score it."""
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
    spec = ["--num-trees", "6", "--mean-tree-size", "3", "--positive-fraction", "0.1"]
    assert main(["generate", "--output", str(corpus), "--task", "hate", *spec, "--seed", "0"]) == 0
    common = ["--corpus", str(corpus), "--out", str(out), "--task", "hate", "--epochs", "2"]
    done = _cli([*argv, *common])
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines() == [
        "warning: the test side of the hate split at seed 0 lacks classes ['non-hate']; "
        "they score f1 = 0"
    ]
    if argv == ["run"]:
        report = json.loads((out / "metrics.json").read_text())["report"]
        assert report["zero_support_classes"] == ["non-hate"]


def test_env_var_sets_default_outdir(corpus_path, tmp_path, monkeypatch):
    outdir = tmp_path / "from-env"
    monkeypatch.setenv("THREADWALK_OUT", str(outdir))
    code = main(
        ["train", "--corpus", str(corpus_path), "--task", "hate"] + _fast_flags()
    )
    assert code == 0
    assert (outdir / "model.txt").exists()


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["run", "--corpus", "{corpus}", "--task", "sentiment"], "--task"),
        (["run", "--corpus", "{corpus}", "--epochs", "1.5"], "--epochs"),
        (["run"], "--corpus"),
        (["sentiment"], "invalid choice: 'sentiment'"),
    ],
    ids=["task", "epochs", "no-corpus", "subcommand"],
)
def test_bad_flag_exits_2(corpus_path, capsys, argv, fragment):
    assert main([arg.format(corpus=corpus_path) for arg in argv]) == 2
    assert fragment in _single_error_line(capsys)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--branching", "1e308"], "branching must be in (0, 1e+300], got 1e+308"),
        (["--mean-tree-size", "1e300"], "mean_tree_size must be in [1, 10000], got 1e+300"),
        (["--num-trees", "100001"], "num_trees * mean_tree_size must be <= 1000000"),
        (["--size-dispersion", "1e200"], "size_dispersion must be in [0, 2.0], got 1e+200"),
    ],
    ids=["seed", "branching", "mean-tree-size", "expected-nodes", "size-dispersion"],
)
def test_unrunnable_generate_spec_exits_2(tmp_path, capsys, flags, message):
    output = tmp_path / "corpus.jsonl"
    assert main(["generate", "--output", str(output), *flags]) == 2
    assert _single_error_line(capsys).startswith(f"error: {message}")
    assert not output.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--help"])
    assert excinfo.value.code == 0
    assert "--corpus" in capsys.readouterr().out


def test_import_leaves_out_the_process_pool():
    """Only grid-search with more than one worker imports it."""
    src = Path(__file__).resolve().parents[1] / "src"
    check = "import sys, threadwalk.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert done.stdout == "False\n"


def test_featurizing_commands_leave_out_numpy_ma(corpus_path, tmp_path):
    """numpy.ma costs a command about 1.25 MB and 15 ms to import, and
    neither run nor ablate-concat needs it."""
    src = Path(__file__).resolve().parents[1] / "src"
    flags = ["--corpus", str(corpus_path), "--task", "hate", *_fast_flags()]
    commands = [
        ["run", "--out", str(tmp_path / "run"), *flags],
        ["ablate-concat", "--seeds", "0,1", "--out", str(tmp_path / "ablate"), *flags],
    ]
    check = (
        "import sys, threadwalk.cli as cli; "
        f"print([cli.main(argv) for argv in {commands!r}], 'numpy.ma' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert done.stdout.splitlines()[-1] == "[0, 0] False"


def test_import_validate_and_writes_leave_out_secrets(corpus_path, tmp_path):
    """A temporary file is named from ``os.urandom``, so neither the import,
    nor ``validate`` (which loads a corpus and draws nothing), nor a write
    loads ``secrets`` and the ``hmac`` and ``base64`` it imports. (The
    commands that draw load them through ``numpy.random``.)"""
    src = Path(__file__).resolve().parents[1] / "src"
    check = (
        "import sys, threadwalk.cli as cli; "
        f"status = cli.main(['validate', {str(corpus_path)!r}]); "
        f"cli.write_lines({str(tmp_path / 'out.txt')!r}, ['written\\n']); "
        "print(status, [name for name in ('secrets', 'hmac', 'base64') if name in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert done.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out.txt").read_text() == "written\n"


def test_missing_corpus_exits_2(tmp_path):
    code = main(["validate", str(tmp_path / "absent.jsonl")])
    assert code == 2


def _single_error_line(capsys):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["grid-search", "--jobs", "1", "--p-values", "a,b"],
        ["grid-search", "--jobs", "1", "--gamma-values", "0.5,"],
        ["grid-search", "--jobs", "1", "--p-values", "2.0"],
        ["grid-search", "--jobs", "1", "--seeds", "x"],
        ["grid-search", "--jobs", "1", "--seeds", "1.5"],
        ["ablate-concat", "--seeds", "0,x"],
        ["grid-search", "--jobs", "0", "--task", "hate"],
        ["grid-search", "--jobs", "1", "--task", "hate", "--p-values", "0.5,0.5"],
        ["grid-search", "--jobs", "1", "--task", "hate", "--gamma-values", "0.0,-0.0"],
        ["grid-search", "--jobs", "1", "--task", "hate", "--seeds", "0,0"],
        ["ablate-concat", "--task", "hate", "--seeds", "1,2,1"],
        ["grid-search", "--jobs", "1", "--task", "hate", "--seeds", ""],
        ["grid-search", "--jobs", "1", "--task", "hate", "--p-values", ""],
        ["grid-search", "--jobs", "1", "--task", "hate", "--gamma-values", ""],
        ["ablate-concat", "--task", "hate", "--seeds", ""],
    ],
)
def test_bad_list_flag_exits_2(corpus_path, tmp_path, capsys, monkeypatch, argv):
    # Every list is checked before a corpus side is built.
    monkeypatch.setattr(pipeline, "corpus_sides", lambda *a: pytest.fail("built a side"))
    assert main(argv + ["--corpus", str(corpus_path), "--out", str(tmp_path)]) == 2
    _single_error_line(capsys)


def _zero_hate_model(path: Path) -> Path:
    """A hate model with zero weights, saved at ``path``: it scores the rows
    of its (u, v, |u - v|) layout of 32-wide embeddings."""
    settings = _recorded(RunConfig(task="hate", epochs=8, bow_dim=32, seed=2))
    classes = ("hate", "non-hate")
    save_model(SoftmaxModel(np.zeros((2, 96)), np.zeros(2), classes, settings), path)
    return path


@pytest.mark.parametrize(
    "command", ["run", "train", "evaluate", "grid-search", "ablate-concat", "error-analysis"]
)
def test_out_naming_a_file_exits_2_before_featurizing(
    corpus_path, tmp_path, capsys, monkeypatch, command
):
    """A command that scores a model makes ``--out`` once the model has
    scored, so only it featurizes first."""
    out = tmp_path / "taken"
    out.write_text("")
    argv = [command, "--corpus", str(corpus_path), "--out", str(out)]
    if command in ("evaluate", "error-analysis"):
        argv += ["--model", str(_zero_hate_model(tmp_path / "model.txt"))]
    else:
        monkeypatch.setattr(features.CorpusSide, "walks", lambda *a, **k: pytest.fail("featurized"))
        argv += ["--task", "hate", *_fast_flags()]
    if command == "grid-search":
        argv += ["--jobs", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "File exists" in err, err


@pytest.mark.parametrize("command", ["train", "evaluate", "error-analysis"])
def test_failing_command_leaves_no_out_directory(tmp_path, capsys, command):
    """``--out`` is made only once the inputs are read, as ``run`` makes it."""
    out = tmp_path / "new"
    argv = [command, "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(out)]
    if command == "train":
        argv += ["--task", "hate", *_fast_flags()]
    else:
        argv += ["--model", str(_zero_hate_model(tmp_path / "model.txt"))]
    assert main(argv) == 2
    assert "No such file" in _single_error_line(capsys)
    assert not out.exists()


_DIVERGING = ["--task", "hate", "--learning-rate", "1e150", "--batch-size", "1", "--epochs", "5"]


@pytest.mark.parametrize("parent_exists", [False, True])
def test_diverging_run_removes_the_directories_it_made(
    corpus_path, tmp_path, capsys, parent_exists
):
    """A run that fails once ``--out`` is made removes each directory made
    for it, deepest first, and leaves one that existed before."""
    parent = tmp_path / "parent"
    if parent_exists:
        parent.mkdir()
    out = parent / "new" / "out"
    assert main(["run", "--corpus", str(corpus_path), "--out", str(out), *_DIVERGING]) == 1
    assert _single_error_line(capsys) == "error: loss became nan after an epoch"
    assert parent.exists() == parent_exists and not (parent / "new").exists()


def test_failing_run_keeps_a_directory_that_holds_a_file(
    corpus_path, tmp_path, capsys, monkeypatch
):
    """A run that fails after writing into a new ``--out`` keeps it, and so
    the new directories above it."""
    def fail(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_manifest", fail)
    out = tmp_path / "new" / "out"
    assert main(["run", "--corpus", str(corpus_path), "--out", str(out), *_RUN_HATE]) == 130
    assert capsys.readouterr().err == "interrupted\n"
    written = sorted(path.name for path in out.iterdir())
    assert written == ["metrics.json", "model.txt", "report.txt"]


@pytest.mark.parametrize(
    "command", ["run", "train", "grid-search", "ablate-concat", "evaluate", "error-analysis"]
)
def test_malformed_embedding_table_leaves_no_out_directory(corpus_path, tmp_path, capsys, command):
    """``--out`` is made only once the embedding table is read."""
    table, out = tmp_path / "bad.txt", tmp_path / "new"
    table.write_text("d=2\nn1 0 0\nn2 0 x\n", encoding="utf-8")
    argv = [command, "--corpus", str(corpus_path), "--out", str(out)]
    argv += ["--embedding-file", str(table)]
    if command in ("evaluate", "error-analysis"):
        settings = _recorded(RunConfig(task="hate", embedding="external", epochs=8, seed=2))
        model = SoftmaxModel(np.zeros((2, 6)), np.zeros(2), ("hate", "non-hate"), settings)
        save_model(model, tmp_path / "model.txt")
        argv += ["--model", str(tmp_path / "model.txt")]
    else:
        argv += ["--embedding", "external", "--task", "hate", "--epochs", "8", "--seed", "2"]
    if command == "grid-search":
        argv += ["--jobs", "1"]
    assert main(argv) == 2
    assert _single_error_line(capsys) == f"error: {table}:3: non-numeric value"
    assert not out.exists()


@pytest.mark.parametrize(
    "manifest",
    [
        {"seeds": 3},
        {"seeds": ["0"]},
        {"seeds": [True]},
        {"seeds": [0.5]},
        {"p_values": "0.5"},
        {"p_values": [None]},
    ],
)
def test_bad_list_in_config_exits_2(corpus_path, tmp_path, capsys, manifest):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"task": "hate", **manifest}))
    argv = ["grid-search", "--corpus", str(corpus_path), "--config", str(config), "--jobs", "1"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    _single_error_line(capsys)


@pytest.mark.parametrize(
    "fields",
    [
        {"p": "0.5"},
        {"epochs": 1.5},
        {"epochs": True},
        {"p": True},
        {"bow_normalize": 1},
        {"step_cap": "4"},
        {"task": None},
        {"learning_rate": float("inf")},
        {"l2": 10**400},
        {"walk_lenght": 6},
        {"format": "threadwalk-manifest-v0"},
        {"config": {"p": 0.5}},
        {"config": 3},
    ],
)
def test_mistyped_config_exits_2(corpus_path, tmp_path, capsys, fields):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"task": "hate", **fields}))
    argv = ["run", "--corpus", str(corpus_path), "--config", str(config)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    _single_error_line(capsys)


def test_int_config_value_for_float_field_runs(corpus_path, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"task": "hate", "p": 1, "gamma": 0, "epochs": 2, "bow_dim": 8}))
    argv = ["run", "--corpus", str(corpus_path), "--config", str(config)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "record, message",
    [
        ({"tree_id": "t", "id": "", "parent_id": "r", "text": "y"}, "id must be non-empty"),
        ({"tree_id": "t", "id": "c", "parent_id": "r", "text": None}, "text must be a string"),
        *(
            (
                {"tree_id": "t", "id": "c", "parent_id": "r", "text": "y", name: value},
                f"{name} must be a string or an integer",
            )
            for name, value in [
                ("tree_id", None),
                ("tree_id", True),
                ("id", False),
                ("id", ["x"]),
                ("parent_id", True),
                ("parent_id", {"id": "r"}),
                ("tree_id", 1.0),
                ("id", 2.5),
            ]
        ),
        ({"tree_id": "", "id": "c", "parent_id": "r", "text": "y"}, "tree_id must be non-empty"),
    ],
)
def test_bad_corpus_record_exits_2(tmp_path, capsys, record, message):
    path = tmp_path / "corpus.jsonl"
    root = {"tree_id": "t", "id": "r", "parent_id": None, "text": "x"}
    path.write_text(json.dumps(root) + "\n" + json.dumps(record) + "\n")
    assert main(["validate", str(path)]) == 2
    assert _single_error_line(capsys) == f"error: {path}:2: {message}"


@pytest.mark.parametrize("name", ["task", "aggregation", "scheme", "embedding"])
def test_config_value_outside_choices_exits_2(corpus_path, tmp_path, capsys, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({name: "nonsense"}))
    argv = ["run", "--corpus", str(corpus_path), "--config", str(config)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert _single_error_line(capsys).startswith(f"error: {config}: {name} must be one of (")


_RUN_HATE = ["--task", "hate", "--epochs", "2", "--bow-dim", "8"]


_BOW_DIM_RANGE = f"bow_dim must be in [1, {MAX_BOW_DIM}]"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        pytest.param("--bow-dim", MAX_BOW_DIM + 1, _BOW_DIM_RANGE, id=str(MAX_BOW_DIM + 1)),
        pytest.param("--bow-dim", 100_000_000_000, _BOW_DIM_RANGE, id="100000000000"),
        pytest.param(
            "--walk-length", MAX_WALK_LENGTH + 1, f"walk_length must be <= {MAX_WALK_LENGTH}",
            id="walk_length",
        ),
        pytest.param(
            "--step-cap", MAX_STEP_CAP + 1, f"step_cap must be <= {MAX_STEP_CAP}", id="step_cap"
        ),
        pytest.param("--epochs", MAX_EPOCHS + 1, f"epochs must be <= {MAX_EPOCHS}", id="epochs"),
    ],
)
def test_bow_dim_above_limit_exits_2(corpus_path, tmp_path, capsys, flag, value, message):
    argv = ["run", "--corpus", str(corpus_path), "--out", str(tmp_path), *_RUN_HATE]
    assert main(argv + [flag, str(value)]) == 2
    assert _single_error_line(capsys) == f"error: {message}, got {value}"


# Past the JSON parser's recursion limit, and past int()'s digit limit.
_DEEP_NESTING = "[" * 100_000
_HUGE_INTEGER = "9" * 5_000


@pytest.mark.parametrize(
    "table, message",
    [
        ("d=8\n", "emb.txt: no embedding for node id"),
        ("d=10000000000\n", "emb.txt: no embedding for node id"),
        ("d=2\nn1 1_0 0\n", "emb.txt:2: non-numeric value"),
        ("d=2\nn1 0 0\nn2 \u0661 0\n", "emb.txt:3: non-numeric value"),
        (f"d={_HUGE_INTEGER}\n", "emb.txt: first line must be 'd=<int>', got 'd=9999"),
    ],
    ids=[
        "header-only",
        "header-only-huge-dimension",
        "underscore-digits",
        "non-ascii-digit",
        "dimension-past-digit-limit",
    ],
)
def test_unusable_embedding_file_exits_2(corpus_path, tmp_path, capsys, table, message):
    embeddings = tmp_path / "emb.txt"
    embeddings.write_text(table, encoding="utf-8")
    argv = ["run", "--corpus", str(corpus_path), "--out", str(tmp_path / "out"), *_RUN_HATE]
    assert main(argv + ["--embedding", "external", "--embedding-file", str(embeddings)]) == 2
    assert message in _single_error_line(capsys)


def test_unparsable_embedding_file_leaves_no_sidecar(corpus_path, tmp_path, capsys):
    """A table that fails to parse is parsed again on the next load, with
    the same exit code and line, and no cache is left beside it."""
    embeddings = tmp_path / "emb.txt"
    embeddings.write_text("d=2\nn1 0 0\nn2 0 x\n", encoding="utf-8")
    argv = ["run", "--corpus", str(corpus_path), "--out", str(tmp_path / "out"), *_RUN_HATE]
    argv += ["--embedding", "external", "--embedding-file", str(embeddings)]
    for _ in range(2):
        assert main(argv) == 2
        assert _single_error_line(capsys) == f"error: {embeddings}:3: non-numeric value"
    assert [path.name for path in tmp_path.iterdir() if path.name.startswith(".")] == []


def _cli(
    argv: list[str], stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=None
) -> subprocess.CompletedProcess:
    """The command line run in a child process, killed after two minutes;
    its stdout and stderr are captured unless ``stdout`` or ``stderr`` is
    given, and ``preexec_fn`` runs in the child before the command."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "threadwalk.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=stdout,
        stderr=stderr,
        preexec_fn=preexec_fn,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("command", ["validate", "run"])
def test_closed_stdout_exits_1_without_an_error_line(corpus_path, tmp_path, capsys, command):
    """A reader that left (``| head``) is not bad input: the command exits 1
    and writes nothing to stderr, and ``run`` leaves every artifact whole."""
    run = ["run", "--corpus", str(corpus_path), *_RUN_HATE, "--out"]
    argv = [*run, str(tmp_path / "closed")] if command == "run" else ["validate", str(corpus_path)]
    read_end, write_end = os.pipe()
    os.close(read_end)  # so that the child's first write to stdout fails
    try:
        done = _cli(argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")
    if command == "run":
        assert main([*run, str(tmp_path / "open")]) == 0
        written = {path.name: path.read_bytes() for path in (tmp_path / "closed").iterdir()}
        assert written == {path.name: path.read_bytes() for path in (tmp_path / "open").iterdir()}
        assert sorted(written) == ["manifest.json", "metrics.json", "model.txt", "report.txt"]


@pytest.mark.parametrize("name, status", [("absent.jsonl", 2), ("empty-text.jsonl", 0)])
def test_closed_stderr_keeps_the_exit_status(tmp_path, capsys, name, status):
    """A warning or ``error:`` line that cannot be written is dropped: the
    command exits as it does with stderr open, and prints the same stdout."""
    corpus = tmp_path / name
    if status == 0:  # one comment, of empty text, which the loader warns of
        record = {"tree_id": "t", "id": "a", "parent_id": None, "text": "", "label": "hate"}
        corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(["validate", str(corpus)]) == status
    printed = capsys.readouterr()
    assert printed.err.startswith("warning: " if status == 0 else "error: ")
    done = _cli(["validate", str(corpus)], stderr=None, preexec_fn=lambda: os.close(2))
    assert (done.returncode, done.stdout) == (status, printed.out)


def test_leading_byte_order_mark_changes_no_output(corpus_path, tmp_path, capsys):
    """A corpus or config file that starts with a byte-order mark reads as
    the same file without it."""
    marked = tmp_path / "marked.jsonl"
    marked.write_bytes(b"\xef\xbb\xbf" + corpus_path.read_bytes())
    printed = []
    for path in (corpus_path, marked):
        assert main(["validate", str(path)]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    config, marked = tmp_path / "config.json", tmp_path / "marked.json"
    write_manifest(RunConfig(task="hate", seed=5), config)
    marked.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
    assert read_manifest(marked) == read_manifest(config) == (RunConfig(task="hate", seed=5), {})


@contextlib.contextmanager
def _fed_fifo(path: Path, data: bytes):
    """A named pipe at ``path`` that a thread fills with ``data`` for its
    first reader. On exit the thread has ended, whether a reader came or not."""
    os.mkfifo(path)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as pipe:
            pipe.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        for _ in range(100):  # a reader opened and closed lets a waiting writer's open return
            if not writer.is_alive():
                break
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=0.1)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_piped_embedding_table_runs_like_its_file(corpus_path, tmp_path):
    """A table read from a named pipe gives the model and report of the
    same table read from a file, and leaves no sidecar beside the pipe."""
    rng = np.random.default_rng(3)
    node_ids = [node.id for tree in load_corpus(corpus_path) for node in tree]
    table = tmp_path / "emb.txt"
    save_external_embeddings({nid: rng.standard_normal(6) for nid in node_ids}, table)
    run = ["run", "--corpus", str(corpus_path), *_RUN_HATE, "--embedding", "external"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*run, "--out", str(tmp_path / "file"), "--embedding-file", str(table)]) == 0
    (tmp_path / "pipe").mkdir()
    with _fed_fifo(tmp_path / "pipe" / "emb.txt", table.read_bytes()) as fifo:
        done = _cli([*run, "--out", str(tmp_path / "out"), "--embedding-file", str(fifo)])
    assert done.returncode == 0, done.stderr
    assert os.listdir(tmp_path / "pipe") == ["emb.txt"]
    piped, read = tmp_path / "out", tmp_path / "file"
    assert (piped / "model.txt").read_bytes() == (read / "model.txt").read_bytes()
    reports = [json.loads((out / "metrics.json").read_text())["report"] for out in (piped, read)]
    assert reports[0] == reports[1]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_malformed_piped_embedding_table_exits_2(corpus_path, tmp_path):
    """The first bad line of a piped table is found in the bytes read from
    it: the pipe, whose writer is gone, is not opened again."""
    with _fed_fifo(tmp_path / "emb.txt", b"d=2\nn1 0.0 oops\n") as fifo:
        argv = ["run", "--corpus", str(corpus_path), "--out", str(tmp_path / "out"), *_RUN_HATE]
        done = _cli([*argv, "--embedding", "external", "--embedding-file", str(fifo)])
    assert done.returncode == 2
    assert done.stderr.splitlines() == [f"error: {fifo}:2: non-numeric value"]


def test_deeply_nested_corpus_line_exits_2(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text(_DEEP_NESTING + "\n")
    assert main(["validate", str(path)]) == 2
    assert _single_error_line(capsys).startswith(f"error: {path}:1: invalid JSON (")


def test_huge_integer_corpus_id_exits_2(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text(f'{{"tree_id": "t", "id": {_HUGE_INTEGER}, "parent_id": null, "text": "x"}}\n')
    assert main(["validate", str(path)]) == 2
    assert _single_error_line(capsys).startswith(f"error: {path}:1: invalid JSON (")


@pytest.mark.parametrize(
    "target", ["embedding-header", "corpus-id", "config-seed", "model-meta", "model-dims"]
)
def test_overlong_integer_gives_a_short_error(corpus_path, tmp_path, capsys, target):
    """An integer past the interpreter's digit limit is named by that limit,
    in a line that does not echo it."""
    path = tmp_path / "input"
    argv = ["run", "--corpus", str(corpus_path), "--out", str(tmp_path / "out"), *_RUN_HATE]
    message = f"an integer longer than {sys.get_int_max_str_digits()} digits"
    if target == "embedding-header":
        path.write_text(f"d={_HUGE_INTEGER}\n")
        argv += ["--embedding", "external", "--embedding-file", str(path)]
        message = "first line must be 'd=<int>'"
    elif target == "corpus-id":
        record = f'{{"tree_id": "t", "id": {_HUGE_INTEGER}, "parent_id": null, "text": "x"}}'
        path.write_text(record)
        argv = ["validate", str(path)]
    elif target == "config-seed":
        path.write_text(f'{{"seed": {_HUGE_INTEGER}}}')
        argv += ["--config", str(path)]
    else:
        save_model(SoftmaxModel(np.zeros((2, 3)), np.zeros(2), ("hate", "non-hate")), path)
        lines = path.read_text().splitlines(keepends=True)
        if target == "model-meta":
            lines[3] = f'meta {{"epochs": {_HUGE_INTEGER}}}\n'
        else:
            lines[2] = f"dims 2 {_HUGE_INTEGER}\n"
        path.write_text("".join(lines))
        argv = ["evaluate", "--corpus", str(corpus_path), "--model", str(path)]
    assert main(argv) == 2
    line = _single_error_line(capsys)
    assert len(line.encode()) < 300 and "set_int_max_str_digits" not in line, line
    assert message in line


_LONG = "x" * 100_000


@pytest.mark.parametrize(
    "argv, config, start",
    [
        (["run"], {"task": _LONG}, "task must be one of ('polarity', 'hate'), got 'xxx"),
        (["run"], {"seed": _LONG}, "seed must be an integer, got 'xxx"),
        (["run"], {"config": [_LONG]}, "must be a JSON object, got ['xxx"),
        (["grid-search"], {"p_values": _LONG}, "p_values must be a list of float values, got"),
        (["run", "--seed", "9" * 5_000], None, "argument --seed: invalid int value: '999"),
        (["run", "--task", "y" * 5_000], None, "argument --task: invalid choice: 'yyy"),
        (["run", "--bow-dim", "9" * 4_000], None, "bow_dim must be in [1, 16384], got 999"),
        (["grid-search", "--p-values", "z" * 5_000], None, "p_values needs comma-separated"),
        (["run", "q" * 5_000], None, "unrecognized arguments: qqq"),
    ],
    ids=[
        "config-task",
        "config-seed",
        "config-not-an-object",
        "config-p-values",
        "seed-flag",
        "task-flag",
        "bow-dim-flag",
        "p-values-flag",
        "stray-argument",
    ],
)
def test_long_value_gives_a_short_error(corpus_path, tmp_path, capsys, argv, config, start):
    """An error line quotes at most the start of a long value."""
    argv = [*argv, "--corpus", str(corpus_path), "--out", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert main(argv) == 2
    line = _single_error_line(capsys)
    assert len(line.encode()) < 300 and start in line, line


def _naming_command(tmp_path, corpus_path, target, names):
    """A command whose error line names ``names``: the unknown keys of a
    config or manifest file, the embedding file ``names[0]``, the roots
    of one tree, the ids of a tree named ``names[0]``, or the label ``names[0]``."""
    path = tmp_path / "input"
    run = ["run", "--corpus", str(corpus_path), "--out", str(tmp_path / "out"), *_RUN_HATE]
    if target == "config-keys":
        path.write_text(json.dumps(dict.fromkeys(names, 1)))
        return run + ["--config", str(path)]
    if target == "manifest-keys":
        path.write_text(json.dumps({"config": {}, **dict.fromkeys(names, 1)}))
        return run + ["--config", str(path)]
    if target == "embedding-file":
        return run + ["--embedding", "external", "--embedding-file", str(tmp_path / names[0])]
    if target == "label":
        row = {"tree_id": "odd", "id": "o0", "parent_id": None, "text": "x", "label": names[0]}
        with corpus_path.open("a") as handle:
            handle.write(json.dumps(row) + "\n")
        return run
    tree_id = names[0] if target == "duplicate-ids" else "t"
    rows = [{"tree_id": tree_id, "id": name, "parent_id": None, "text": "x"} for name in names]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return ["validate", str(path)]


@pytest.mark.parametrize(
    "target, names, start",
    [
        ("config-keys", ["x" * 100_000], "unknown config keys: ['xxx"),
        ("config-keys", [f"k{i:04}" for i in range(3_000)], "keys: ['k0000', 'k0001', 'k0002', "),
        ("manifest-keys", ["y" * 100_000], "unknown manifest keys: ['yyy"),
        ("embedding-file", ["e" * 3_000], "embedding file not found: "),
        ("tree-roots", [f"r{i}" for i in range(3_000)], "records: ['r0', 'r1', 'r2', 'r3', 'r4'] "),
        ("tree-roots", ["a" * 5_000, "b" * 5_000], "multiple parentless records: ['aaa"),
        ("duplicate-ids", ["d" * 3_000] * 2, "'...: duplicate comment id 'ddd"),
        ("label", ["l" * 3_000], "has label 'lll"),
    ],
    ids=[
        "long-key", "many-keys", "long-manifest-key", "long-path", "many-roots", "long-roots",
        "long-duplicate-id", "long-label",
    ],
)
def test_long_list_or_path_gives_a_short_error(corpus_path, tmp_path, capsys, target, names, start):
    """An error line shows at most five of the keys or ids it lists, each
    cut, and cuts the path, id or label it names."""
    assert main(_naming_command(tmp_path, corpus_path, target, names)) == 2
    line = _single_error_line(capsys)
    assert len(line.encode()) < 300 and start in line, line


@pytest.mark.parametrize(
    "target, names, message",
    [
        ("config-keys", ["tpyo", "bogus"], "{input}: unknown config keys: ['bogus', 'tpyo']"),
        ("manifest-keys", ["notes", "extra"], "{input}: unknown manifest keys: ['extra', 'notes']"),
        ("embedding-file", ["missing.txt"], "embedding file not found: {tmp}/missing.txt"),
        ("tree-roots", ["a", "b"], "{input}: tree 't': multiple parentless records: ['a', 'b']"),
    ],
    ids=["two-keys", "two-manifest-keys", "path", "two-roots"],
)
def test_short_list_or_path_prints_whole(corpus_path, tmp_path, capsys, target, names, message):
    assert main(_naming_command(tmp_path, corpus_path, target, names)) == 2
    message = message.format(input=tmp_path / "input", tmp=tmp_path)
    assert _single_error_line(capsys) == f"error: {message}"


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("run", {"task": "hate", "seed": "7"}, "seed must be an integer, got '7'"),
        ("grid-search", {"p_values": "abc"}, "p_values must be a list of float values, got 'abc'"),
        ("ablate-concat", {"seeds": [0, 1.5]}, "seeds must be an integer, got 1.5"),
        ("grid-search", {"p_values": []}, "p_values must be non-empty"),
        ("ablate-concat", {"seeds": [3, 3]}, "seeds must not repeat a value, got 3 more than once"),
        ("run", {"bow_dim": 0}, "bow_dim must be in [1, 16384], got 0"),
    ],
    ids=["config-value", "list", "list-item", "empty-list", "repeated-seed", "out-of-range"],
)
def test_config_file_error_names_the_file(corpus_path, tmp_path, capsys, command, config, message):
    """A wrong value in a --config file is one error line that starts with
    the file, as an unknown key is, and no --out directory is made."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--corpus", str(corpus_path), "--out", str(out), "--config", str(path)]) == 2
    assert _single_error_line(capsys) == f"error: {path}: {message}"
    assert not out.exists()


def test_flag_value_fault_does_not_name_the_config_file(corpus_path, tmp_path, capsys):
    """A flag that overrides a bad config value runs; a bad flag value is
    named without the file, even when the file has a fault of its own that
    a flag overrides."""
    path = tmp_path / "cfg.json"
    argv = ["run", "--corpus", str(corpus_path), "--out", str(tmp_path / "out")]
    argv += ["--config", str(path)]
    path.write_text(json.dumps({"task": "hate", "epochs": 2, "bow_dim": 0}))
    assert main([*argv, "--bow-dim", "5"]) == 0
    capsys.readouterr()
    path.write_text(json.dumps({"task": "hate", "walk_length": 10_000}))
    assert main([*argv, "--walk-length", "4", "--bow-dim", "0"]) == 2
    assert _single_error_line(capsys) == "error: bow_dim must be in [1, 16384], got 0"


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{missing}"],
        ["run", "--corpus", "{corpus}", "--out", "{missing}", *_RUN_HATE],
        ["run", "--corpus", "{corpus}", "--config", "{bad_json}"],
        ["evaluate", "--corpus", "{corpus}", "--model", "{no_meta_model}"],
        ["evaluate", "--corpus", "{corpus}", "--model", "{bad_json}"],
        ["run", "--corpus", "{one_tree}", *_RUN_HATE],
        ["validate", "{bad_json}"],
        ["run", "--corpus", "{corpus}", "--embedding", "external", "--embedding-file", "{bad_json}",
         *_RUN_HATE],
    ],
    ids=[
        "os-error", "out", "config", "model-settings", "model-file", "too-few-trees",
        "corpus-file", "embedding-file",
    ],
)
def test_long_path_is_cut_in_the_error_line(corpus_path, tmp_path, capsys, argv):
    """Every path an error line echoes, from the OS, a reader or the command
    line, is cut to 200 characters."""
    deep = tmp_path.joinpath(*["d" * 199] * 15)  # 3,000 characters
    deep.mkdir(parents=True)
    (deep / "bad.json").write_text("[\n")
    save_model(SoftmaxModel(np.zeros((2, 1)), np.zeros(2), ("hate", "non-hate")), deep / "model")
    record = {"tree_id": "t", "id": "a", "parent_id": None, "text": "x", "label": "hate"}
    (deep / "one.jsonl").write_text(json.dumps(record) + "\n")
    paths = {
        "corpus": corpus_path,
        "missing": tmp_path / ("m" * 3_000),
        "bad_json": deep / "bad.json",
        "no_meta_model": deep / "model",
        "one_tree": deep / "one.jsonl",
    }
    assert main([arg.format(**paths) for arg in argv]) == 2
    line = _single_error_line(capsys)
    assert len(line.encode()) < 300 and "..." in line, line


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--corpus", "{corpus}", "--model", "{model}", "--embedding-file", "{missing}"],
        ["run", "--corpus", "{corpus}", "--out", "{out}", "--embedding-file", "{missing}",
         *_RUN_HATE],
    ],
    ids=["evaluate", "run"],
)
def test_embedding_file_without_external_embedding_exits_2(corpus_path, tmp_path, capsys, argv):
    """An embedding file that the settings would not read is refused."""
    model = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus_path), "--out", str(model), *_RUN_HATE]) == 0
    names = {
        "corpus": corpus_path, "model": model / "model.txt", "missing": "/nonexistent/file.txt",
        "out": tmp_path / "out",
    }
    capsys.readouterr()
    assert main([arg.format(**names) for arg in argv]) == 2
    line = _single_error_line(capsys)
    assert "embedding_file is read only by embedding 'external', not 'hashed-bow'" in line, line


def test_deeply_nested_config_exits_2(corpus_path, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(_DEEP_NESTING)
    argv = ["run", "--corpus", str(corpus_path), "--config", str(config)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert _single_error_line(capsys).startswith(f"error: {config}: invalid JSON (")


def test_deeply_nested_model_meta_exits_2(corpus_path, tmp_path, capsys):
    model = tmp_path / "model.txt"
    save_model(SoftmaxModel(np.zeros((2, 3)), np.zeros(2), ("hate", "non-hate")), model)
    lines = model.read_text().splitlines(keepends=True)
    lines[3] = f"meta {_DEEP_NESTING}\n"
    model.write_text("".join(lines))
    argv = ["evaluate", "--corpus", str(corpus_path), "--model", str(model)]
    assert main(argv) == 2
    assert _single_error_line(capsys).startswith(f"error: {model}: truncated or corrupt model file")


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["validate", "{dir}"], "{dir}"),
        (["validate", "{binary}"], "{binary}"),
        (["run", "--corpus", "{corpus}", "--out", "{out}", "--embedding", "external",
          "--embedding-file", "{binary}", *_RUN_HATE], "{binary}"),
        (["evaluate", "--corpus", "{corpus}", "--model", "{dir}"], "{dir}"),
        (["evaluate", "--corpus", "{corpus}", "--model", "{binary}"], "{binary}"),
        (["run", "--corpus", "{corpus}", "--out", "{file}", *_RUN_HATE], "{file}"),
        (["featurize", "--corpus", "{corpus}", "--output", "{dir}", *_RUN_HATE], "{dir}"),
    ],
    ids=[
        "corpus-directory",
        "corpus-not-utf8",
        "embedding-file-not-utf8",
        "model-directory",
        "model-not-utf8",
        "out-is-a-file",
        "featurize-output-directory",
    ],
)
def test_bad_path_exits_2(corpus_path, tmp_path, capsys, argv, bad):
    paths = {
        "corpus": corpus_path,
        "dir": tmp_path / "dir",
        "binary": tmp_path / "binary.txt",
        "file": tmp_path / "file.txt",
        "out": tmp_path / "out",
    }
    paths["dir"].mkdir()
    paths["binary"].write_bytes(b"d=2\n\xff\xfe\n")
    paths["file"].write_text("not a directory")
    names = {key: str(path) for key, path in paths.items()}
    assert main([arg.format(**names) for arg in argv]) == 2
    assert bad.format(**names) in _single_error_line(capsys)


@pytest.mark.parametrize(
    "records, message",
    [
        ([("t", "x", "y"), ("t", "y", "x")], "tree 't': reply cycle"),
        ([("t", "a", None), ("t", "a", "a")], "tree 't': duplicate comment id"),
        ([("t", "a", None), ("t", "b", "z")], "tree 't': comment 'b' replies to unknown id"),
        ([("t", "a", None), ("t", "b", None)], "tree 't': multiple parentless records"),
        ([], "need at least 2 trees"),
        ([("t", "a", None)], "need at least 2 trees"),
    ],
    ids=["cycle", "duplicate-id", "dangling-parent", "two-roots", "empty-file", "one-tree"],
)
def test_bad_corpus_structure_exits_2(tmp_path, capsys, records, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        "".join(
            json.dumps({"tree_id": tree, "id": nid, "parent_id": parent, "text": "x"}) + "\n"
            for tree, nid, parent in records
        )
    )
    assert main(["run", "--corpus", str(path), "--out", str(tmp_path), *_RUN_HATE]) == 2
    line = _single_error_line(capsys)
    assert str(path) in line and message in line


@pytest.mark.parametrize(
    "flags",
    [
        ["--learning-rate", "1e300"],
        ["--l2", "1e300"],
        ["--momentum", "0.999999", "--learning-rate", "1e10"],
    ],
    ids=["learning-rate", "l2", "momentum"],
)
def test_diverging_run_prints_one_line(corpus_path, tmp_path, capsys, flags):
    # Turn any warning into an error, so that none can pass unseen.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["run", "--corpus", str(corpus_path), "--out", str(tmp_path), "--task", "hate"]
        code = main(argv + _fast_flags() + flags)
    assert code == 1
    assert "loss became" in _single_error_line(capsys)


@pytest.mark.parametrize(
    "command, first_writer, flags",
    [
        ("run", "save_model", []),
        ("train", "save_model", []),
        ("grid-search", "write_lines", ["--p-values", "0.5", "--gamma-values", "0.8", "--seeds",
                                        "0", "--jobs", "1"]),
        ("ablate-concat", "write_lines", ["--seeds", "0"]),
    ],
    ids=["run", "train", "grid-search", "ablate-concat"],
)
def test_failed_run_writes_no_manifest(
    corpus_path, tmp_path, capsys, monkeypatch, command, first_writer, flags
):
    def full_disk(content, path):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(cli, first_writer, full_disk)
    out = tmp_path / "out"
    argv = [command, "--corpus", str(corpus_path), "--out", str(out), *_RUN_HATE, *flags]
    assert main(argv) == 2
    _single_error_line(capsys)
    assert not (out / "manifest.json").exists()


def _as_flags(record):
    """A dataclass instance rendered as command-line flags, one per field."""
    flags = []
    for f in dataclasses.fields(record):
        flag, value = f.name.replace("_", "-"), getattr(record, f.name)
        if isinstance(value, bool):
            flags.append(f"--{flag}" if value else f"--no-{flag}")
        else:
            flags.append(f"--{flag}={value}")
    return flags


def _differs_everywhere(record, default):
    return all(
        getattr(record, f.name) != getattr(default, f.name) for f in dataclasses.fields(record)
    )


def test_run_flags_round_trip(tmp_path):
    embeddings = tmp_path / "emb.txt"
    embeddings.write_text("d=1\n")
    config = RunConfig(
        task="hate",
        p=0.3,
        gamma=0.55,
        walk_length=6,
        step_cap=40,
        aggregation="sum",
        scheme="uv_mul",
        embedding="external",
        bow_dim=17,
        bow_normalize=False,
        embedding_file=str(embeddings),
        normalize_weights=False,
        epochs=7,
        batch_size=5,
        learning_rate=0.25,
        l2=0.003,
        class_weighting=False,
        momentum=0.5,
        split_fraction=0.6,
        seed=9,
    )
    assert _differs_everywhere(config, RunConfig())
    args = build_parser().parse_args(["run", "--corpus", "c.jsonl", *_as_flags(config)])
    assert _resolve_config(args) == (config, {})


def test_generate_flags_round_trip(tmp_path, monkeypatch):
    spec = CorpusSpec(
        num_trees=7,
        mean_tree_size=3.5,
        size_dispersion=0.25,
        branching=2.5,
        positive_fraction=0.3,
        context_signal=0.75,
        vocabulary_size=50,
        seed=4,
        task="polarity",
    )
    assert _differs_everywhere(spec, CorpusSpec())
    specs = []
    monkeypatch.setattr(cli, "generate", lambda s: specs.append(s) or generate(s))
    output = tmp_path / "corpus.jsonl"
    assert main(["generate", "--output", str(output), *_as_flags(spec)]) == 0
    assert specs == [spec]


# A model trained under the defaults, with one epoch and its step cap
# spelled out; each run option set to the value it was trained with.
_TRAINED = RunConfig(epochs=1, step_cap=40)
_RUN_OPTIONS = ["--config"] + [f for f in _as_flags(_TRAINED) if "--embedding-file" not in f]


@pytest.fixture(scope="module")
def trained_polarity(tmp_path_factory):
    """A polarity corpus, and the directory of a model trained on it under
    ``_TRAINED`` with its manifest."""
    root = tmp_path_factory.mktemp("trained-polarity")
    corpus = root / "corpus.jsonl"
    argv = ["generate", "--output", str(corpus), "--task", "polarity", "--num-trees", "20"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--mean-tree-size", "6", "--seed", "4"]) == 0
        argv = ["train", "--corpus", str(corpus), "--out", str(root / "train")]
        assert main(argv + ["--epochs", "1", "--step-cap", "40"]) == 0
    return corpus, root / "train"


@pytest.mark.parametrize("option", _RUN_OPTIONS, ids=[o.split("=")[0][2:] for o in _RUN_OPTIONS])
@pytest.mark.parametrize("command", ["evaluate", "error-analysis"])
def test_scoring_commands_take_no_run_option(trained_polarity, tmp_path, capsys, command, option):
    """The model file is the one source of its settings, so even a value
    that agrees with it is refused."""
    corpus, train = trained_polarity
    if option == "--config":
        option = f"--config={train / 'manifest.json'}"
    argv = [command, "--corpus", str(corpus), "--model", str(train / "model.txt")]
    assert main([*argv, "--out", str(tmp_path), option]) == 2
    assert _single_error_line(capsys) == f"error: unrecognized arguments: {option}"
    assert not any(tmp_path.iterdir())


def _shared_id_corpus(path):
    """Six trees that all name their root n0 and its reply n1."""
    rows = [
        {"tree_id": f"t{t}", "id": nid, "parent_id": parent, "text": f"{text} {t}", "label": label}
        for t in range(6)
        for nid, parent, text, label in (
            ("n0", None, "a kind opening", "non-hate"),
            ("n1", "n0", "a rude reply", "hate"),
        )
    ]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--out", "{tmp}/run"],
        ["featurize", "--output", "{tmp}/features.jsonl"],
        ["grid-search", "--out", "{tmp}/grid", "--p-values", "1.0", "--gamma-values", "0.5",
         "--seeds", "0", "--jobs", "1"],
        ["ablate-concat", "--out", "{tmp}/ablate", "--seeds", "0"],
    ],
)
def test_external_embeddings_need_corpus_unique_ids(tmp_path, capsys, argv):
    corpus, embeddings = tmp_path / "corpus.jsonl", tmp_path / "emb.txt"
    _shared_id_corpus(corpus)
    embeddings.write_text("d=2\nn0 1.0 0.0\nn1 0.0 1.0\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv] + ["--corpus", str(corpus), *_RUN_HATE]
    external = ["--embedding", "external", "--embedding-file", str(embeddings)]
    assert main(argv + external) == 2
    line = _single_error_line(capsys)
    assert "'n0'" in line and "'t0'" in line and "'t1'" in line
    # Hashed bag-of-words vectors come from the text, so reused ids are fine.
    assert main(argv) == 0


# --- fuzzing the run command's configuration path ---

_AGGREGATIONS = ["sum", "average", "weighted_average"]
_SCHEMES = ["uv", "uv_mul", "uv_absdiff", "uv_absdiff_mul"]
# A valid value for every config field. The fields that size the work
# (epochs, bow_dim, walk_length) stay small, so one example runs in
# milliseconds on the tiny corpus.
_VALID = {
    "task": st.just("hate"),
    "p": st.floats(0, 1),
    "gamma": st.floats(0, 1),
    "walk_length": st.integers(1, 6),
    "step_cap": st.none() | st.integers(5, 40),
    "aggregation": st.sampled_from(_AGGREGATIONS),
    "scheme": st.sampled_from(_SCHEMES),
    "embedding": st.just("hashed-bow"),
    "bow_dim": st.integers(1, 16),
    "bow_normalize": st.booleans(),
    "embedding_file": st.none(),
    "normalize_weights": st.booleans(),
    "epochs": st.integers(0, 3),
    "batch_size": st.integers(1, 64),
    "learning_rate": st.floats(1e-3, 1),
    "l2": st.floats(0, 0.1),
    "class_weighting": st.booleans(),
    "momentum": st.floats(0, 0.9),
    "split_fraction": st.floats(0.3, 0.9),
    "seed": st.integers(),
}
assert set(_VALID) == set(RunConfig().to_dict())
_NOT_INT = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=4))
_ANY_JSON = _NOT_INT | st.integers() | st.lists(st.integers(), max_size=2)


def _bad_value(name):
    if name in ("epochs", "bow_dim", "walk_length"):
        return st.integers(-3, 0) | _NOT_INT
    return _ANY_JSON


# A valid config object, or one with a single field (possibly an unknown
# one) replaced by an arbitrary JSON value.
_CONFIGS = st.fixed_dictionaries({}, optional=_VALID).flatmap(
    lambda config: st.just(config)
    | st.sampled_from(sorted(_VALID) + ["bogus"]).flatmap(
        lambda name: _bad_value(name).map(lambda value: {**config, name: value})
    )
)
_VALUE_FLAGS = {
    "--task": st.sampled_from(["hate", "polarity"]),
    "--p": st.floats(),
    "--gamma": st.floats(),
    "--walk-length": st.integers(-1, 6),
    "--step-cap": st.integers(-2, 40),
    "--aggregation": st.sampled_from(_AGGREGATIONS),
    "--scheme": st.sampled_from(_SCHEMES),
    "--bow-dim": st.integers(-1, 16),
    "--epochs": st.integers(-1, 3),
    "--batch-size": st.integers(-1, 64),
    "--learning-rate": st.floats(),
    "--l2": st.floats(),
    "--momentum": st.floats(),
    "--split-fraction": st.floats(),
    "--seed": st.integers(),
}
_FLAGS = st.lists(
    st.sampled_from(sorted(_VALUE_FLAGS)).flatmap(
        lambda flag: _VALUE_FLAGS[flag].map(lambda value: f"{flag}={value}")
    )
    | st.sampled_from(["--class-weighting", "--no-bow-normalize", "--no-normalize-weights"]),
    max_size=3,
)
# Runtime failures a well-formed configuration can still meet on a tiny
# corpus: training that diverges, or a split whose train side has one class.
_RUNTIME_FAILURES = ("loss became", "need >= 2 classes")


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"
    argv = ["generate", "--output", str(path), "--num-trees", "12", "--mean-tree-size", "5"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--positive-fraction", "0.4", "--seed", "5"]) == 0
    return path


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=_CONFIGS, flags=_FLAGS)
def test_fuzzed_run_config_exits_cleanly(tiny_corpus, config, flags):
    with tempfile.TemporaryDirectory() as scratch:
        config_path = Path(scratch) / "config.json"
        config_path.write_text(json.dumps(config))
        argv = ["run", "--corpus", str(tiny_corpus), "--out", scratch]
        argv += ["--config", str(config_path)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + flags)
    if code == 0:
        return
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr.getvalue()
    assert code == 2 or any(reason in lines[0] for reason in _RUNTIME_FAILURES), lines[0]


# --- fuzzing the corpus and embedding files ---

_BYTES = st.binary(max_size=200)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    target=st.sampled_from(["corpus", "embedding"]),
    data=_BYTES | _BYTES.map(lambda tail: b"d=2\n" + tail),
)
def test_fuzzed_input_files_exit_cleanly(tiny_corpus, target, data):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "input"
        path.write_bytes(data)
        argv = ["run", "--corpus", str(tiny_corpus), "--out", scratch, *_RUN_HATE]
        if target == "corpus":
            argv[2] = str(path)
        else:
            argv += ["--embedding", "external", "--embedding-file", str(path)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    if code == 0:
        return
    lines = stderr.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), stderr.getvalue()
    assert code == 2, lines[0]


# --- fuzzing the model and manifest files ---

# What a mutation may put in place of one token of a file.
_HOSTILE = (
    _DEEP_NESTING.encode(),
    _HUGE_INTEGER.encode(),
    b"NaN",
    b"Infinity",
    b"-Infinity",
    b"\xff\xfe\x80",
)


def _mutate(data, original: bytes) -> bytes:
    """``original`` truncated at a byte, with a byte flipped or deleted, a
    line duplicated or two lines swapped, or one token replaced by a hostile
    value (deep nesting, a 5,000-digit integer, NaN, Infinity, non-UTF-8)."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "delete", "duplicate", "swap", "token"]))
    at = data.draw(st.integers(0, len(original) - 1))
    if kind == "truncate":
        return original[:at]
    if kind == "flip":
        flipped = original[at] ^ data.draw(st.integers(1, 255))
        return original[:at] + bytes([flipped]) + original[at + 1 :]
    if kind == "delete":
        return original[:at] + original[at + 1 :]
    lines = original.splitlines(keepends=True)
    i, j = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
    if kind == "duplicate":
        lines.insert(j, lines[i])
        return b"".join(lines)
    if kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
        return b"".join(lines)
    token = data.draw(st.sampled_from(list(re.finditer(rb"[\w.+-]+", original))))
    hostile = data.draw(st.sampled_from(_HOSTILE))
    return original[: token.start()] + hostile + original[token.end() :]


# A run setting of a model's meta set to a value of another type, out of
# range, or unknown.
_META_EDITS = [
    ("p", "0.8"), ("walk_length", 4.0), ("bow_dim", True), ("p", 2), ("scheme", "uv_sum"),
    ("task", "spam"),
]


def _edit_meta(data, original: bytes) -> bytes:
    """``original``, a model file, with one run setting of its ``meta``
    dropped, set by one of _META_EDITS or set to a 5,000-digit integer, or
    with a ``meta`` that is not an object."""
    lines = original.splitlines(keepends=True)
    meta = json.loads(lines[3][len("meta ") :])
    settings = sorted(_recorded(RunConfig()))
    kind = data.draw(st.sampled_from(["drop", "edit", "huge", "not-object"]))
    if kind == "drop":
        del meta[data.draw(st.sampled_from(settings))]
    elif kind == "edit":
        name, value = data.draw(st.sampled_from(_META_EDITS))
        meta[name] = value
    elif kind == "huge":
        meta[data.draw(st.sampled_from(settings))] = "HUGE"
    else:
        meta = data.draw(st.sampled_from([[meta], "meta", 3, None]))
    lines[3] = b"meta " + json.dumps(meta).replace('"HUGE"', _HUGE_INTEGER).encode() + b"\n"
    return b"".join(lines)


FUZZED_FILES = {"model": "model.txt", "manifest": "manifest.json"}


@pytest.fixture(scope="module")
def trained_files(tiny_corpus, tmp_path_factory):
    """The ``model.txt`` and ``manifest.json`` of a run on the tiny corpus."""
    out = tmp_path_factory.mktemp("trained")
    argv = ["run", "--corpus", str(tiny_corpus), "--out", str(out), *_RUN_HATE]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return {name: (out / file).read_bytes() for name, file in FUZZED_FILES.items()}


@settings(max_examples=240, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(["model", "meta", "manifest"]), data=st.data())
def test_fuzzed_model_and_manifest_exit_cleanly(tiny_corpus, trained_files, target, data):
    """A mutated file ends in at most one ``error:`` line, and a model whose
    run settings were edited (target "meta") is refused."""
    if target == "meta":
        mutated = _edit_meta(data, trained_files["model"])
    else:
        mutated = _mutate(data, trained_files[target])
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "input"
        path.write_bytes(mutated)
        corpus = ["--corpus", str(tiny_corpus), "--out", scratch]
        if target != "manifest":
            argv, read = ["evaluate", *corpus, "--model", str(path)], load_model
        else:
            argv, read = ["run", *corpus, "--config", str(path)], read_manifest
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        try:
            read(path)
            rejected = False
        except InputError:
            rejected = True
    lines = stderr.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), lines
    assert code in (0, 1, 2) and len(errors) == (code != 0), lines
    assert code == 2 or not (rejected or target == "meta"), lines


@pytest.fixture(scope="module")
def input_files(tiny_corpus):
    """An embedding table for every node of the tiny corpus (16 values a row,
    about 17 KB, so a fault can sit past the first block read) and a bare
    config file, one setting a line."""
    rng = np.random.default_rng(7)
    table = {node.id: rng.standard_normal(16) for tree in load_corpus(tiny_corpus) for node in tree}
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "embeddings.txt"
        save_external_embeddings(table, path)
        embedding = path.read_bytes()
    config = {"task": "hate", "epochs": 2, "bow_dim": 8, "p": 0.5, "step_cap": None, "seeds": [0]}
    return {"embedding": embedding, "config": json.dumps(config, indent=2).encode()}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(target=st.sampled_from(["embedding", "config"]), data=st.data())
def test_fuzzed_embedding_and_config_files_exit_cleanly(tiny_corpus, input_files, target, data):
    """A mutated embedding or config file ends in at most one ``error:``
    line, and one that its reader rejects exits 2."""
    mutated = _mutate(data, input_files[target])
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "input"
        path.write_bytes(mutated)
        run = ["run", "--corpus", str(tiny_corpus), "--out", scratch]
        if target == "embedding":
            argv = [*run, *_RUN_HATE, "--embedding", "external", "--embedding-file", str(path)]
            read = load_external_embeddings
        else:
            argv, read = [*run, "--config", str(path)], read_manifest
        # A table is loaded twice: parsed, then from its sidecar if it has one.
        outcomes = []
        for _ in range(1 + (target == "embedding")):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            outcomes.append((code, stderr.getvalue()))
        assert outcomes[-1] == outcomes[0]
        try:
            read(path)
            rejected = False
        except InputError:
            rejected = True
    lines = stderr.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), lines
    assert code in (0, 1, 2) and len(errors) == (code != 0), lines
    assert code == 2 or not rejected, lines


# A value of each JSON type, for a corpus field given another type.
_JSON_VALUES = [None, True, 0, 1.5, "x", [], {}]


def _retype(data, original: bytes) -> bytes:
    """``original``, a corpus file, with one field of one record set to a
    value of another JSON type."""
    lines = original.splitlines(keepends=True)
    at = data.draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[at])
    name = data.draw(st.sampled_from(sorted(record)))
    others = [value for value in _JSON_VALUES if type(value) is not type(record[name])]
    record[name] = data.draw(st.sampled_from(others))
    lines[at] = json.dumps(record).encode() + b"\n"
    return b"".join(lines)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(retype=st.booleans(), data=st.data())
def test_fuzzed_corpus_file_exits_cleanly(tiny_corpus, retype, data):
    """A corpus file that was cut, had a byte flipped or deleted, a line
    duplicated or swapped, a token made hostile or a field retyped ends in
    at most one ``error:`` line, and one that load_corpus rejects exits 2."""
    original = tiny_corpus.read_bytes()
    mutated = _retype(data, original) if retype else _mutate(data, original)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "corpus.jsonl"
        path.write_bytes(mutated)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--corpus", str(path), "--out", scratch, *_RUN_HATE])
        try:
            load_corpus(path)
            rejected = False
        except InputError:
            rejected = True
    lines = stderr.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), lines
    assert code in (0, 1, 2) and len(errors) == (code != 0), lines
    assert code == 2 or not rejected, lines


# Where each stage can be interrupted: a module and one function it calls.
_STAGES = {
    "loading": (corpus_module, "text_lines"),
    "featurizing": (features.CorpusSide, "walks"),
    "training": (model_module, "loss_and_gradient"),
    "writing": (corpus_module, "write_bytes"),
}


@pytest.mark.parametrize("stage", _STAGES)
@pytest.mark.parametrize("command", ["run", "train", "grid-search"])
def test_interrupt_exits_130_with_one_line(
    corpus_path, tmp_path, capsys, monkeypatch, command, stage
):
    """Ctrl-C at any stage ends the command with ``interrupted``, exit 130 and
    no traceback, and since the manifest is written last, with no manifest."""
    module, name = _STAGES[stage]
    calls = []

    def interrupt(*args, **kwargs):
        calls.append(name)
        raise KeyboardInterrupt

    monkeypatch.setattr(module, name, interrupt)
    out = tmp_path / "out"
    argv = [command, "--corpus", str(corpus_path), "--out", str(out), *_RUN_HATE]
    if command == "grid-search":
        argv += ["--jobs", "1", "--p-values", "0.5", "--gamma-values", "0.5", "--seeds", "0"]
    assert main(argv) == 130
    assert calls == [name]
    assert capsys.readouterr().err == "interrupted\n"
    assert not out.exists()


def _process_group(pgid: int) -> list[int]:
    """The live processes of a process group, read from /proc."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError):
            state, _, group = stat.read_text().rpartition(")")[2].split()[:3]
            if int(group) == pgid and state != "Z":
                pids.append(int(stat.parent.name))
    return pids


def _ignores_sigint(pid: int) -> bool:
    with contextlib.suppress(OSError):
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("SigIgn:"):
                return bool(int(line.split()[1], 16) >> (signal.SIGINT - 1) & 1)
    return False


def _signal_grid_pool(corpus_path, out, send) -> tuple[subprocess.Popen, str, str]:
    """Start ``grid-search --jobs 2`` writing to ``out`` in a process group of
    its own, call ``send(pid, workers)`` once both workers ignore SIGINT, and
    return the ended process with its stdout and stderr."""
    argv = ["grid-search", "--corpus", str(corpus_path), "--out", str(out), "--task", "hate"]
    argv += ["--epochs", "2000", "--bow-dim", "32", "--jobs", "2", "--gamma-values", "0.5"]
    argv += ["--p-values", "0,0.2,0.4,0.6,0.8,1", "--seeds", "0"]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "threadwalk.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while True:
            workers = [pid for pid in _process_group(proc.pid) if pid != proc.pid]
            if len(workers) == 2 and all(map(_ignores_sigint, workers)):
                break
            assert proc.poll() is None and time.monotonic() < deadline, "no pool ignored SIGINT"
            time.sleep(0.005)
        send(proc.pid, workers)
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc, stdout, stderr


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc")
def test_interrupted_pool_exits_130_with_one_line(corpus_path, tmp_path):
    """Ctrl-C sent to the process group of ``grid-search --jobs 2`` once both
    workers ignore it ends the command as a one-process run ends: exit 130,
    one ``interrupted`` line, no manifest and no process of the group left."""
    out = tmp_path / "out"
    proc, stdout, stderr = _signal_grid_pool(
        corpus_path, out, lambda pid, workers: os.killpg(pid, signal.SIGINT)
    )
    assert (proc.returncode, stderr, stdout) == (130, "interrupted\n", "")
    assert not (out / "manifest.json").exists()
    assert _process_group(proc.pid) == []


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc")
def test_killed_pool_worker_exits_1_with_one_line(corpus_path, tmp_path):
    """SIGKILL of one ``grid-search --jobs 2`` worker, once both workers
    ignore SIGINT, ends the command with exit 1, one ``error:`` line, no
    manifest, no new ``--out`` directory and no process of the group left."""
    out = tmp_path / "out"
    proc, stdout, stderr = _signal_grid_pool(
        corpus_path, out, lambda pid, workers: os.kill(workers[0], signal.SIGKILL)
    )
    error = "error: a grid-search worker died (killed, or out of memory)\n"
    assert (proc.returncode, stderr, stdout) == (1, error, "")
    assert not out.exists()
    assert _process_group(proc.pid) == []


# Sends SIGINT to its own process group at the ``argv[1]``-th entry to or exit
# from a pool start-up step, then runs the CLI on the rest of ``argv``.
_INTERRUPT_AT_POOL_START = """
import os, signal, sys
from concurrent.futures.process import ProcessPoolExecutor
from threadwalk.cli import main

at, seen = int(sys.argv[1]), [0]

def event():
    seen[0] += 1
    if seen[0] == at:
        os.killpg(0, signal.SIGINT)

def hooked(step):
    def run(*args):
        event()
        result = step(*args)
        event()
        return result
    return run

for name in {steps!r}:
    setattr(ProcessPoolExecutor, name, hooked(getattr(ProcessPoolExecutor, name)))
sys.exit(main(sys.argv[2:]))
"""
_POOL_START_STEPS = ("_start_executor_manager_thread", "_adjust_process_count", "_spawn_process")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc")
@pytest.mark.parametrize("at", range(1, 7))
def test_interrupt_during_pool_start_exits_130_with_one_line(corpus_path, tmp_path, at):
    """Ctrl-C at each entry to and exit from a step of pool start-up (with
    fork: the manager thread's start, and each worker's fork inside it) ends
    ``grid-search --jobs 2`` with exit 130, one ``interrupted`` line, no
    manifest and no process of the group left."""
    from concurrent.futures.process import ProcessPoolExecutor

    if not all(hasattr(ProcessPoolExecutor, step) for step in _POOL_START_STEPS):
        pytest.skip("this Python's ProcessPoolExecutor has other start-up steps")
    out = tmp_path / "out"
    argv = ["grid-search", "--corpus", str(corpus_path), "--out", str(out), "--task", "hate"]
    argv += ["--epochs", "1", "--bow-dim", "8", "--jobs", "2", "--gamma-values", "0.5"]
    argv += ["--p-values", "0,1", "--seeds", "0"]
    script = _INTERRUPT_AT_POOL_START.format(steps=_POOL_START_STEPS)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-c", script, str(at), *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, stderr, stdout) == (130, "interrupted\n", "")
    assert not (out / "manifest.json").exists()
    assert _process_group(proc.pid) == []
