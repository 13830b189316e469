"""The benchmark's tracer on a small grid search, a small ablation and a
small run that reads an embedding file.

The tracer counts a ``loss_and_gradient`` call as an epoch loss pass when
its ``X`` has as many rows as ``len()`` of the first positional argument of
``train``, and as a mini-batch step otherwise: a keyword call to ``train``
fails a traced run, an epoch pass over a stack of models miscounts, and
so does a step that calls ``loss_and_gradient`` other than once. It times
the embedding file's load inside ``RunConfig.build_provider``. These run
the bench's own commands on a small corpus, traced and untraced, and read
the counters the bench reports.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

from threadwalk.corpus import load_corpus
from threadwalk.evaluation import split_trees
from threadwalk.features import labeled_pois
from threadwalk.pipeline import RunConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
from inputs import make_inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize(
    "name, epochs, groups, walk_passes",
    [
        # 3 p x 6 gammas x 2 seeds; the six gammas of a (p, seed) train in two
        # groups and share one walk per PoI
        ("grid-hate", 20, 3 * 2 * 2, 3 * 2),
        # 4 schemes x 2 seeds; per seed (u, v) and (u, v, |u - v|) are the
        # first columns of (u, v, |u - v|, u*v) and train on its matrix, so
        # the schemes make two groups, and they share one walk per PoI
        ("ablate-hate", 50, 2 * 2, 2),
    ],
)
def test_traced_counts_and_outputs(tmp_path, name, epochs, groups, walk_passes):
    workload, stats, metrics = _traced_and_plain(tmp_path, name)
    assert metrics["model.epoch_loss_passes"] == workload.replicates * epochs
    steps = _steps_per_epoch(workload, tmp_path / "corpus.jsonl")
    assert metrics["model.minibatch_steps"] == groups * steps * epochs
    assert metrics["pipeline.replicates"] == groups
    assert metrics["walks.samples"] == walk_passes * stats["pois_per_replicate"]


def test_traced_external_embedding_run(tmp_path):
    _, stats, metrics = _traced_and_plain(tmp_path, "run-polarity-external")
    assert metrics["embeddings.providers_built"] == 1
    assert metrics["embeddings.provider_s"] > 0.0
    assert metrics["walks.samples"] == stats["pois_per_replicate"]


def _steps_per_epoch(workload, corpus):
    """Mini-batch steps per epoch, ``ceil(n_train / batch_size)``, for the
    train side of the workload's split of ``corpus``."""
    seed = int(workload.args[workload.args.index("--seed") + 1])
    config = RunConfig(seed=seed)
    train_trees, _ = split_trees(load_corpus(corpus), config.split_fraction, config.seed)
    n_train = sum(1 for _ in labeled_pois(train_trees, workload.task))
    return -(-n_train // config.batch_size)


def _traced_and_plain(tmp_path, name):
    """Run workload ``name`` cut to 150 nodes, traced and untraced; check that
    both write the same bytes and return the workload, its input stats and
    the traced run's per-layer metrics."""
    workload = dataclasses.replace(WORKLOADS[name], nodes=150)
    stats = make_inputs(workload, 1, tmp_path)
    spans = tmp_path / "spans.npz"
    tracer = [sys.executable, str(run.HERE / "tracer.py"), str(spans)]
    corpus, embeddings = tmp_path / "corpus.jsonl", tmp_path / "embeddings.txt"
    for prefix, out in ((tracer, "traced"), ([sys.executable, "-m", "threadwalk.cli"], "plain")):
        argv = prefix + workload.command(corpus, embeddings, tmp_path / out)
        subprocess.run(argv, env=run.child_env(), check=True, capture_output=True, timeout=300)
    for output in workload.outputs:
        traced, plain = (tmp_path / out / output for out in ("traced", "plain"))
        assert traced.read_bytes() == plain.read_bytes()
    layers = run.layer_metrics(spans, stats, traced_wall=1.0, untraced_wall=1.0)
    return workload, stats, {metric: m["value"] for metric, m in layers["metrics"].items()}
