"""Workload definitions shared by the harness, its child scripts and its tests.

Each workload is one threadwalk CLI command run on a synthetic corpus that
is generated from the workload seed. Corpora are cut to a fixed node
budget, so that inputs made from different seeds do the same amount of
work and only their content differs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

# Every child process runs on one BLAS thread, so a command keeps one core busy.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HATE_CORPUS = {
    "mean_tree_size": 10.0,
    "size_dispersion": 0.8,
    "positive_fraction": 0.106,
    "context_signal": 0.8,
}
GRID_CORPUS = {
    "mean_tree_size": 7.0,
    "size_dispersion": 0.7,
    "positive_fraction": 0.106,
    "context_signal": 0.8,
}
BUSHY_POLARITY_CORPUS = {"mean_tree_size": 150.0, "size_dispersion": 1.2}


@dataclass(frozen=True)
class Workload:
    """One CLI command on one kind of generated corpus."""

    name: str
    task: str
    corpus: dict  # CorpusSpec knobs besides task, num_trees and seed
    nodes: int  # node budget of the generated corpus
    default_seed: int
    args: tuple[str, ...]
    replicates: int  # featurize-train-evaluate replicates the command runs
    outputs: tuple[str, ...]  # deterministic output files that are digested
    embedding_dim: int | None = None  # write an embedding file of this width

    @property
    def input_key(self) -> str:
        """Names the input spec, so cached inputs of another spec are not reused."""
        spec = [self.task, self.corpus, self.nodes, self.embedding_dim]
        return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:12]

    def command(self, corpus: Path, embeddings: Path | None, out: Path) -> list[str]:
        argv = [*self.args, "--corpus", str(corpus), "--out", str(out)]
        if self.embedding_dim is not None:
            argv += ["--embedding-file", str(embeddings)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run-hate",
            task="hate",
            corpus=HATE_CORPUS,
            nodes=8000,
            default_seed=42,
            args=("run", "--task", "hate"),
            replicates=1,
            outputs=("metrics.json", "model.txt"),
        ),
        Workload(
            name="grid-hate",
            task="hate",
            corpus=GRID_CORPUS,
            nodes=640,
            default_seed=11,
            args=(
                "grid-search", "--task", "hate", "--class-weighting", "--seed", "5",
                "--epochs", "20", "--bow-dim", "128", "--p-values", "0.0,0.4,0.8",
                "--seeds", "0,1", "--jobs", "1",
            ),
            replicates=3 * 6 * 2,
            outputs=("grid.csv",),
        ),
        Workload(
            name="ablate-hate",
            task="hate",
            corpus=GRID_CORPUS,
            nodes=1200,
            default_seed=11,
            args=(
                "ablate-concat", "--task", "hate", "--class-weighting", "--p", "0.8",
                "--gamma", "0.8", "--seed", "5", "--seeds", "0,1",
            ),
            replicates=4 * 2,
            outputs=("ablation.csv",),
        ),
        Workload(
            name="run-polarity-external",
            task="polarity",
            corpus=BUSHY_POLARITY_CORPUS,
            nodes=8000,
            default_seed=3,
            args=("run", "--task", "polarity", "--embedding", "external"),
            replicates=1,
            outputs=("metrics.json", "model.txt"),
            embedding_dim=256,
        ),
    )
}


def output_digest(workload: Workload, outdir: Path) -> str:
    """Hash of the command's deterministic outputs.

    Only the ``report`` of ``metrics.json`` counts, and the ``meta`` line
    of ``model.txt`` is left out, so a changed ``loss_history`` or config
    echo is not a wrong answer.
    """
    digest = hashlib.sha256()
    for name in workload.outputs:
        text = (outdir / name).read_text(encoding="utf-8")
        if name == "metrics.json":
            text = json.dumps(json.loads(text)["report"], sort_keys=True)
        elif name == "model.txt":
            text = "\n".join(line for line in text.splitlines() if not line.startswith("meta "))
        digest.update(name.encode() + b"\0" + text.encode() + b"\0")
    return digest.hexdigest()[:16]
