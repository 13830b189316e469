"""End-to-end experiment orchestration.

Every experiment repeats one replicate: featurize both sides of a fixed
tree split at a seed, train, evaluate. A run is one replicate at the
configured seed; a grid cell and an ablation row each average replicates
over a list of seeds. Every run writes a manifest that captures the full
resolved configuration, and replaying a manifest reproduces metrics and
model files byte for byte: all randomness flows from the single top-level
seed through named streams (tree split, per-node walks, training shuffle).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .corpus import write_lines
from .embeddings import (
    DEFAULT_BOW_DIM,
    EmbeddingProvider,
    HashedBowProvider,
    load_external_embeddings,
)
from .errors import ConfigError
from .evaluation import EvalReport, evaluate, split_trees
from .features import (
    AggregationStrategy,
    ConcatScheme,
    Examples,
    TASKS,
    featurize_corpus,
)
from .model import SoftmaxModel, TrainConfig, save_model, train
from .tree import DiscussionTree
from .walks import DEFAULT_WALK_LENGTH, WalkConfig

MANIFEST_FORMAT = "threadwalk-manifest-v1"
EMBEDDING_SOURCES = ("hashed-bow", "external")
_ACCEPTED = {  # annotation -> (accepted Python types, description)
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a finite number"),
    "bool": ((bool,), "true or false"),
}


def check_type(name: str, value: object, annotation: str) -> None:
    """Raise ConfigError unless ``value`` fits ``annotation``, e.g. ``"int | None"``.

    A bool fits only a bool. A float must be finite, and an int fits a
    float when it is within float range.
    """
    kind, _, optional = annotation.partition(" | ")
    if value is None and optional == "None":
        return
    types, description = _ACCEPTED[kind]
    fits = isinstance(value, types) and (kind == "bool" or not isinstance(value, bool))
    if not fits or (kind == "float" and not abs(value) <= sys.float_info.max):
        null = " or null" if optional else ""
        raise ConfigError(f"{name} must be {description}{null}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run depends on, JSON round-trippable."""

    task: str = "polarity"
    p: float = 0.8
    gamma: float = 0.8
    walk_length: int = DEFAULT_WALK_LENGTH
    step_cap: int | None = None
    aggregation: str = AggregationStrategy.WEIGHTED_AVERAGE.value
    scheme: str = ConcatScheme.UV_ABSDIFF.value
    embedding: str = "hashed-bow"
    bow_dim: int = DEFAULT_BOW_DIM
    bow_normalize: bool = True
    embedding_file: str | None = None
    normalize_weights: bool = True
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.1
    l2: float = 1e-4
    class_weighting: bool = True
    momentum: float = 0.0
    split_fraction: float = 0.8
    seed: int = 0

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"p must be in [0, 1], got {self.p}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.walk_length < 1:
            raise ConfigError(f"walk_length must be >= 1, got {self.walk_length}")
        if self.step_cap is not None and self.step_cap < self.walk_length - 1:
            raise ConfigError(f"step_cap must be >= walk_length - 1, got {self.step_cap}")
        try:
            AggregationStrategy(self.aggregation)
        except ValueError:
            raise ConfigError(f"unknown aggregation {self.aggregation!r}") from None
        try:
            ConcatScheme(self.scheme)
        except ValueError:
            raise ConfigError(f"unknown scheme {self.scheme!r}") from None
        if self.embedding not in EMBEDDING_SOURCES:
            raise ConfigError(f"embedding must be one of {EMBEDDING_SOURCES}")
        if self.embedding == "external" and not self.embedding_file:
            raise ConfigError("embedding 'external' needs embedding_file")
        if self.embedding == "external" and not os.path.isfile(self.embedding_file):
            raise ConfigError(f"embedding file not found: {self.embedding_file}")
        if self.bow_dim < 1:
            raise ConfigError(f"bow_dim must be >= 1, got {self.bow_dim}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        try:
            self.train_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def walk_config(self, seed: int | None = None) -> WalkConfig:
        return WalkConfig(
            p=self.p,
            gamma=self.gamma,
            L=self.walk_length,
            seed=self.seed if seed is None else seed,
            step_cap=self.step_cap,
        )

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            l2=self.l2,
            seed=self.seed if seed is None else seed,
            class_weighting=self.class_weighting,
            momentum=self.momentum,
        )

    def build_provider(self) -> EmbeddingProvider:
        if self.embedding == "external":
            return load_external_embeddings(self.embedding_file)
        return HashedBowProvider(self.bow_dim, normalize=self.bow_normalize)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            check_type(name, value, types[name])
        return cls(**data)

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


def corpus_provider(config: RunConfig, trees: Sequence[DiscussionTree]) -> EmbeddingProvider:
    """The configured embedding provider for a corpus. External vectors are
    keyed by bare node id, so node ids must then be unique across the whole
    corpus: a train tree and a test tree must not share one either."""
    if config.embedding == "external":
        tree_of: dict[str, str] = {}
        for tree in trees:
            for node_id in tree.node_ids():
                if tree_of.setdefault(node_id, tree.tree_id) != tree.tree_id:
                    raise ConfigError(
                        f"node id {node_id!r} appears in trees {tree_of[node_id]!r} and "
                        f"{tree.tree_id!r}; external embeddings need corpus-unique ids"
                    )
    return config.build_provider()


@dataclass
class PipelineResult:
    report: EvalReport
    model: SoftmaxModel
    train_examples: int
    test_examples: int
    artifacts: dict[str, Path]


class Replicate(NamedTuple):
    """What one featurize -> train -> evaluate pass produced."""

    model: SoftmaxModel
    report: EvalReport
    train_examples: Examples
    test_examples: Examples


@dataclass(frozen=True)
class SeedAverage:
    """Metrics of one configuration, each the mean of its per-seed values
    (not of pooled predictions); the per-seed reports ride along."""

    p: float
    gamma: float
    scheme: str
    accuracy: float
    macro_f1: float
    precision_pos: float
    recall_pos: float
    precision_macro: float
    recall_macro: float
    reports: tuple[EvalReport, ...] = field(compare=False)


def featurize_split(
    trees: Sequence[DiscussionTree],
    config: RunConfig,
    provider: EmbeddingProvider,
    seed: int | None = None,
) -> Examples:
    """Featurize one side of a split under the run configuration."""
    return featurize_corpus(
        trees,
        provider,
        config.walk_config(seed),
        AggregationStrategy(config.aggregation),
        ConcatScheme(config.scheme),
        config.task,
        normalize_weights=config.normalize_weights,
    )


def replicate(
    train_trees: Sequence[DiscussionTree],
    test_trees: Sequence[DiscussionTree],
    config: RunConfig,
    provider: EmbeddingProvider,
    seed: int | None = None,
) -> Replicate:
    """Featurize both sides, train, evaluate. ``seed`` (default
    ``config.seed``) reseeds the walks and the training shuffle only; the
    split is the caller's."""
    train_examples = featurize_split(train_trees, config, provider, seed)
    test_examples = featurize_split(test_trees, config, provider, seed)
    model = train(train_examples, config.train_config(seed))
    return Replicate(model, evaluate(model, test_examples), train_examples, test_examples)


def _mean(reports: Sequence[EvalReport], metric: str) -> float:
    values = [getattr(r, metric) for r in reports if getattr(r, metric) is not None]
    return sum(values) / len(values) if values else float("nan")


def average_over_seeds(
    train_trees: Sequence[DiscussionTree],
    test_trees: Sequence[DiscussionTree],
    config: RunConfig,
    provider: EmbeddingProvider,
    seeds: Sequence[int],
) -> SeedAverage:
    """One replicate per seed on the same split, metrics averaged."""
    reports = tuple(
        replicate(train_trees, test_trees, config, provider, seed).report for seed in seeds
    )
    return SeedAverage(
        p=config.p,
        gamma=config.gamma,
        scheme=config.scheme,
        accuracy=_mean(reports, "accuracy"),
        macro_f1=_mean(reports, "macro_f1"),
        precision_pos=_mean(reports, "precision_pos"),
        recall_pos=_mean(reports, "recall_pos"),
        precision_macro=_mean(reports, "macro_precision"),
        recall_macro=_mean(reports, "macro_recall"),
        reports=reports,
    )


def run_pipeline(
    trees: Sequence[DiscussionTree],
    config: RunConfig,
    outdir: str | Path | None = None,
    dump_features: bool = False,
) -> PipelineResult:
    """Execute split -> featurize -> train -> evaluate and write artifacts."""
    config, train_trees, test_trees = _split_for(trees, config.task, config)
    model, report, train_examples, test_examples = replicate(
        train_trees, test_trees, config, corpus_provider(config, trees)
    )

    artifacts: dict[str, Path] = {}
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        artifacts["model"] = outdir / "model.txt"
        save_model(model, artifacts["model"])
        artifacts["report"] = outdir / "report.txt"
        write_lines(artifacts["report"], [report.to_text()])
        artifacts["metrics"] = outdir / "metrics.json"
        metrics = {
            "report": report.to_dict(),
            "train_examples": len(train_examples),
            "test_examples": len(test_examples),
            "config": config.to_dict(),
        }
        write_json(metrics, artifacts["metrics"])
        if dump_features:
            artifacts["features"] = outdir / "features.jsonl"
            write_lines(
                artifacts["features"],
                itertools.chain(
                    feature_dump_lines(train_examples), feature_dump_lines(test_examples)
                ),
            )
        # Last, so that a manifest vouches for a complete set of artifacts.
        artifacts["manifest"] = outdir / "manifest.json"
        write_manifest(config, artifacts["manifest"])
    return PipelineResult(
        report=report,
        model=model,
        train_examples=len(train_examples),
        test_examples=len(test_examples),
        artifacts=artifacts,
    )


def feature_dump_lines(examples: Examples) -> Iterator[str]:
    """One JSON line per example, for cross-implementation diffing."""
    columns = zip(examples.tree_ids, examples.node_ids, examples.labels, examples.X)
    for tree_id, node_id, label, row in columns:
        record = {"tree_id": tree_id, "node_id": node_id, "label": label, "features": row.tolist()}
        yield json.dumps(record, sort_keys=True) + "\n"


def write_json(payload: dict, path: str | Path) -> None:
    """Sorted, indented JSON with a trailing newline."""
    write_lines(path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


def write_manifest(config: RunConfig, path: str | Path, extra: dict | None = None) -> None:
    write_json({"format": MANIFEST_FORMAT, "config": config.to_dict(), **(extra or {})}, path)


def read_manifest(path: str | Path) -> tuple[RunConfig, dict]:
    """Load a manifest or bare config file; returns (config, extras)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    if "config" in payload and isinstance(payload["config"], dict):
        config = RunConfig.from_dict(payload["config"])
        extras = {k: v for k, v in payload.items() if k not in ("config", "format")}
        return config, extras
    known = {f.name for f in dataclasses.fields(RunConfig)}
    extras = {k: v for k, v in payload.items() if k not in known}
    config = RunConfig.from_dict({k: v for k, v in payload.items() if k in known})
    return config, extras


def _split_for(
    trees: Sequence[DiscussionTree], task: str, config: RunConfig
) -> tuple[RunConfig, list[DiscussionTree], list[DiscussionTree]]:
    config = config.replace(task=task)
    config.validate()
    train_trees, test_trees = split_trees(trees, config.split_fraction, config.seed)
    return config, train_trees, test_trees


# --- hyperparameter grid search ---


@dataclass
class GridSearchResult:
    """Full Cartesian grid of seed-averaged reports."""

    p_values: tuple[float, ...]
    gamma_values: tuple[float, ...]
    seeds: tuple[int, ...]
    cells: dict[tuple[float, float], SeedAverage]
    best: tuple[float, float]

    def to_csv(self) -> str:
        return _csv(_GRID_COLUMNS, [self.cells[key] for key in sorted(self.cells)])


def grid_search(
    trees: Sequence[DiscussionTree],
    task: str,
    p_values: Sequence[float],
    gamma_values: Sequence[float],
    config: RunConfig,
    seeds: Sequence[int],
    jobs: int = 1,
) -> GridSearchResult:
    """Evaluate every (p, gamma) cell, averaging metrics over the seeds.

    The tree split is fixed by ``config.seed``; each replicate reseeds
    only the walks and the training shuffle. Ties on macro-F1 break by
    higher accuracy, then lower p, then lower gamma.
    """
    if not p_values or not gamma_values or not seeds:
        raise ConfigError("p_values, gamma_values and seeds must be non-empty")
    config, train_trees, test_trees = _split_for(trees, task, config)
    cell_configs = [config.replace(p=p, gamma=g) for p in p_values for g in gamma_values]
    for cell_config in cell_configs:
        cell_config.validate()
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    cell = functools.partial(
        average_over_seeds,
        train_trees,
        test_trees,
        provider=corpus_provider(config, trees),
        seeds=tuple(seeds),
    )
    # The fork start method launches every worker on the first submit, so
    # ask for no more workers than there are cells.
    workers = min(jobs, len(cell_configs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            averages = list(pool.map(cell, cell_configs))
    else:
        averages = [cell(cell_config) for cell_config in cell_configs]
    cells = {(c.p, c.gamma): c for c in averages}
    return GridSearchResult(
        p_values=tuple(p_values),
        gamma_values=tuple(gamma_values),
        seeds=tuple(seeds),
        cells=cells,
        best=_select_best(cells),
    )


def _select_best(cells: dict[tuple[float, float], SeedAverage]) -> tuple[float, float]:
    """Best cell by macro-F1; ties break by higher accuracy, then lower p,
    then lower gamma."""
    return max(
        cells,
        key=lambda key: (cells[key].macro_f1, cells[key].accuracy, -key[0], -key[1]),
    )


# --- concatenation ablation ---


def ablate_concat(
    trees: Sequence[DiscussionTree],
    task: str,
    config: RunConfig,
    seeds: Sequence[int],
) -> list[SeedAverage]:
    """Compare the four concatenation schemes under identical seeds."""
    if not seeds:
        raise ConfigError("seeds must be non-empty")
    config, train_trees, test_trees = _split_for(trees, task, config)
    provider = corpus_provider(config, trees)
    return [
        average_over_seeds(
            train_trees, test_trees, config.replace(scheme=scheme.value), provider, seeds
        )
        for scheme in ConcatScheme
    ]


def ablation_csv(rows: Sequence[SeedAverage]) -> str:
    return _csv(_ABLATION_COLUMNS, rows)


_METRIC_COLUMNS = ("accuracy", "macro_f1", "precision_pos", "recall_pos")
_GRID_COLUMNS = ("p", "gamma", *_METRIC_COLUMNS, "precision_macro", "recall_macro")
_ABLATION_COLUMNS = ("scheme", *_METRIC_COLUMNS)


def _csv(columns: tuple[str, ...], rows: Sequence[SeedAverage]) -> str:
    """A header of ``columns``, then one line per row: strings as they are,
    numbers as their ``repr``."""
    lines = [",".join(columns)]
    for row in rows:
        values = (getattr(row, column) for column in columns)
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in values))
    return "\n".join(lines) + "\n"
