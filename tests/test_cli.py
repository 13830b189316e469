"""End-to-end command-line behaviour and exit codes."""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from threadwalk import cli, pipeline
from threadwalk.cli import _resolve_config, build_parser, main
from threadwalk.pipeline import RunConfig
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


def test_train_then_evaluate_matches_run_report(corpus_path, tmp_path, capsys):
    rundir = tmp_path / "run"
    assert (
        main(
            ["run", "--corpus", str(corpus_path), "--out", str(rundir), "--task", "hate"]
            + _fast_flags()
        )
        == 0
    )
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

    code = main(
        [
            "evaluate",
            "--corpus",
            str(corpus_path),
            "--model",
            str(traindir / "model.txt"),
            "--config",
            str(rundir / "manifest.json"),
        ]
    )
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
            "--config",
            str(rundir / "manifest.json"),
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


def test_env_var_sets_default_outdir(corpus_path, tmp_path, monkeypatch):
    outdir = tmp_path / "from-env"
    monkeypatch.setenv("THREADWALK_OUT", str(outdir))
    code = main(
        ["train", "--corpus", str(corpus_path), "--task", "hate"] + _fast_flags()
    )
    assert code == 0
    assert (outdir / "model.txt").exists()


def test_bad_flag_exits_2(corpus_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--corpus", str(corpus_path), "--task", "sentiment"])
    assert excinfo.value.code == 2


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
    ],
)
def test_bad_list_flag_exits_2(corpus_path, tmp_path, capsys, argv):
    assert main(argv + ["--corpus", str(corpus_path), "--out", str(tmp_path)]) == 2
    _single_error_line(capsys)


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
    ],
)
def test_bad_corpus_record_exits_2(tmp_path, capsys, record, message):
    path = tmp_path / "corpus.jsonl"
    root = {"tree_id": "t", "id": "r", "parent_id": None, "text": "x"}
    path.write_text(json.dumps(root) + "\n" + json.dumps(record) + "\n")
    assert main(["validate", str(path)]) == 2
    assert _single_error_line(capsys) == f"error: {path}:2: {message}"


_RUN_HATE = ["--task", "hate", "--epochs", "2", "--bow-dim", "8"]


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["validate", "{dir}"], "{dir}"),
        (["validate", "{binary}"], "{binary}"),
        (["run", "--corpus", "{corpus}", "--out", "{out}", "--embedding", "external",
          "--embedding-file", "{binary}", *_RUN_HATE], "{binary}"),
        (["evaluate", "--corpus", "{corpus}", "--model", "{dir}", *_RUN_HATE], "{dir}"),
        (["evaluate", "--corpus", "{corpus}", "--model", "{binary}", *_RUN_HATE], "{binary}"),
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


def test_failed_run_writes_no_manifest(corpus_path, tmp_path, capsys, monkeypatch):
    def full_disk(model, path):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(pipeline, "save_model", full_disk)
    out = tmp_path / "out"
    assert main(["run", "--corpus", str(corpus_path), "--out", str(out), *_RUN_HATE]) == 2
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
