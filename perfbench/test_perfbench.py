"""Self-checks of the benchmark: its inputs, its output digest and its trace."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import run
from inputs import make_inputs
from workloads import WORKLOADS, output_digest


def test_external_embeddings_reproduce_hashed_bow_run(tmp_path):
    """The generated embedding file holds exactly the hashed-bow vectors, so
    reading it must give the hashed-bow run's report and parameters."""
    from threadwalk.cli import main

    workload = dataclasses.replace(WORKLOADS["run-polarity-external"], nodes=1500)
    make_inputs(workload, workload.default_seed, tmp_path)
    corpus, embeddings = tmp_path / "corpus.jsonl", tmp_path / "embeddings.txt"
    assert main(workload.command(corpus, embeddings, tmp_path / "external")) == 0
    hashed = ["run", "--task", "polarity", "--corpus", str(corpus), "--out", str(tmp_path / "bow")]
    assert main(hashed) == 0
    assert output_digest(workload, tmp_path / "external") == output_digest(
        workload, tmp_path / "bow"
    )


def test_traced_run_reports_every_layer_and_keeps_outputs(tmp_path):
    workload = dataclasses.replace(WORKLOADS["run-hate"], nodes=300)
    stats = make_inputs(workload, 1, tmp_path)
    corpus = tmp_path / "corpus.jsonl"
    spans = tmp_path / "spans.npz"
    tracer = [sys.executable, str(run.HERE / "tracer.py"), str(spans)]
    for prefix, out in ((tracer, "traced"), ([sys.executable, "-m", "threadwalk.cli"], "plain")):
        argv = prefix + workload.command(corpus, None, tmp_path / out)
        subprocess.run(argv, env=run.child_env(), check=True, capture_output=True)
    traced, plain = (output_digest(workload, tmp_path / out) for out in ("traced", "plain"))
    assert traced == plain

    layers = run.layer_metrics(spans, stats, traced_wall=1.0, untraced_wall=1.0)
    metrics = {name: m["value"] for name, m in layers["metrics"].items()}
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
    assert metrics["walks.samples"] == stats["pois_per_replicate"] == 300
    assert metrics["pipeline.replicates"] == metrics["embeddings.providers_built"] == 1
    assert metrics["model.epoch_loss_passes"] == 50
    assert min(v for name, v in metrics.items() if name.endswith("self_s")) >= 0.0
    assert layers["baseline"]["train_pois"] < 300
