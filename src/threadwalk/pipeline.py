"""End-to-end experiment orchestration.

Every experiment repeats one replicate: featurize both sides of a fixed tree
split at a seed, train, evaluate. A run is one replicate at the configured
seed; a grid cell and an ablation row each average replicates over a list of
seeds. Replicates of one seed that share a feature width and training
settings train in lockstep, on at most LOCKSTEP_CAP train matrices at a time;
one whose features are the first columns of another's, as ``(u, v)`` and
``(u, v, |u - v|)`` are of ``(u, v, |u - v|, u*v)``, trains on views of that
one's matrix, which the cap does not count, so the ablation trains three
models on one matrix. Each side of the split is compiled once into a
:class:`~threadwalk.features.CorpusSide`, so its comments are embedded once
and its walks are sampled once per (p, seed) for the whole experiment.
Experiments return values; the command line writes their files in the formats
defined here. A manifest captures the full resolved configuration, and
replaying one reproduces metrics and model files byte for byte: all
randomness flows from the single top-level seed through named streams (tree
split, per-node walks, training shuffle).
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .corpus import JSON_DECODER, write_lines
from .embeddings import (
    DEFAULT_BOW_DIM,
    EmbeddingProvider,
    HashedBowProvider,
    load_external_embeddings,
)
from .errors import ConfigError, EmptyEvalSetError, MissingEmbeddingError, cut_path, quote, quote_list
from .evaluation import EvalReport, evaluate, split_trees
from .features import (
    AggregationStrategy,
    ConcatScheme,
    CorpusSide,
    Examples,
    TASK_LABELS,
    TASKS,
    extends_layout,
    feature_width,
    featurize_split,
)
from .model import TRAIN_FIELDS, SoftmaxModel, train
from .tree import DiscussionTree
from .walks import DEFAULT_WALK_LENGTH

MANIFEST_FORMAT = "threadwalk-manifest-v1"
MANIFEST_LISTS = {"p_values": "float", "gamma_values": "float", "seeds": "int"}  # list -> item type
CHOICES = {  # RunConfig field -> its allowed values
    "task": TASKS,
    "aggregation": tuple(s.value for s in AggregationStrategy),
    "scheme": tuple(s.value for s in ConcatScheme),
    "embedding": ("hashed-bow", "external"),
}
# The widest hashed bag-of-words vector. A side keeps each comment's counts in
# the narrowest integer dtype that holds them, bow_dim bytes while every count
# is under 128, and one 8-byte divisor; each PoI costs up to 4 * bow_dim * 8
# bytes in the feature matrix X (n * D * 8 bytes). At this limit that is
# 16 KiB and 512 KiB, so a 2,000-PoI side needs about 1.0 GiB. A run frees
# the train side's X before it builds the test side's.
MAX_BOW_DIM = 1 << 14
# The longest walk, the largest step cap and the most epochs. A side keeps
# each PoI's raw-step log (8 bytes a step) and one row index per collected
# node, so at MAX_STEP_CAP an 8,000-PoI side holds at most 64 MB of walks.
# A raw step takes about 2 us (2-core VM, Python 3.11), so a p = 0 walk that
# oscillates until the cap costs 2 ms, and that side at most 16 s. An epoch
# at 8,000 PoIs, D = 768 and two classes takes about 18 ms there (one core,
# in-process), so MAX_EPOCHS trains one model in about 3 minutes.
MAX_WALK_LENGTH = 100
MAX_STEP_CAP = 10 * MAX_WALK_LENGTH  # the default cap of the longest walk
MAX_EPOCHS = 10_000
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
        raise ConfigError(f"{name} must be {description}{null}, got {quote(value)}")


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
        """Raise ConfigError for the first setting out of its range."""
        for name, choices in CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {quote(value)}")
        if self.embedding == "external" and not self.embedding_file:
            raise ConfigError("embedding 'external' needs embedding_file")
        if self.embedding != "external" and self.embedding_file is not None:
            raise ConfigError(
                f"embedding_file is read only by embedding 'external', not {quote(self.embedding)}"
            )
        if self.embedding == "external" and not os.path.exists(self.embedding_file):
            raise ConfigError(f"embedding file not found: {cut_path(self.embedding_file)}")
        if self.embedding == "external" and os.path.isdir(self.embedding_file):
            raise ConfigError(f"embedding file is a directory: {cut_path(self.embedding_file)}")
        L, cap, rate = self.walk_length, self.step_cap, self.learning_rate
        for fits, name, rule, value in (
            (1 <= self.bow_dim <= MAX_BOW_DIM, "bow_dim", f"in [1, {MAX_BOW_DIM}]", self.bow_dim),
            (L <= MAX_WALK_LENGTH, "walk_length", f"<= {MAX_WALK_LENGTH}", L),
            (cap is None or cap <= MAX_STEP_CAP, "step_cap", f"<= {MAX_STEP_CAP}", cap),
            (self.epochs <= MAX_EPOCHS, "epochs", f"<= {MAX_EPOCHS}", self.epochs),
            (0.0 < self.split_fraction < 1.0, "split_fraction", "in (0, 1)", self.split_fraction),
            (0.0 <= self.p <= 1.0, "p", "in [0, 1]", self.p),
            (0.0 <= self.gamma <= 1.0, "gamma", "in [0, 1]", self.gamma),
            (L >= 1, "walk length L", ">= 1", L),
            (cap is None or cap >= L - 1, "step_cap", ">= L - 1", cap),
            (self.epochs >= 0, "epochs", ">= 0", self.epochs),
            (self.batch_size >= 1, "batch_size", ">= 1", self.batch_size),
            (0 < rate < math.inf, "learning_rate", "> 0 and finite", rate),
            (0 <= self.l2 < math.inf, "l2", ">= 0 and finite", self.l2),
            (0.0 <= self.momentum < 1.0, "momentum", "in [0, 1)", self.momentum),
        ):
            if not fits:
                raise ConfigError(f"{name} must be {rule}, got {quote(value)}")

    @property
    def resolved_step_cap(self) -> int:
        """``step_cap``, or ``10 * walk_length`` when it is None."""
        return self.step_cap if self.step_cap is not None else 10 * self.walk_length

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
            raise ConfigError(f"unknown config keys: {quote_list(sorted(unknown))}")
        for name, value in data.items():
            check_type(name, value, types[name])
        return cls(**data)

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


def corpus_sides(
    config: RunConfig, trees: Sequence[DiscussionTree], *parts: Sequence[DiscussionTree]
) -> list[CorpusSide]:
    """One :class:`CorpusSide` for ``config.task`` per part of the corpus
    ``trees``, embedded by the configured provider, which is dropped once
    the sides hold their vectors. External vectors are keyed by bare node
    id, so node ids must then be unique across the whole corpus: a train
    tree and a test tree must not share one either."""
    if config.embedding == "external":
        tree_of: dict[str, str] = {}
        for tree in trees:
            for node_id in tree.node_ids():
                if tree_of.setdefault(node_id, tree.tree_id) != tree.tree_id:
                    raise ConfigError(
                        f"node id {quote(node_id)} appears in trees {quote(tree_of[node_id])} "
                        f"and {quote(tree.tree_id)}; external embeddings need corpus-unique ids"
                    )
    provider = config.build_provider()
    try:
        return [CorpusSide(part, provider, config.task) for part in parts]
    except MissingEmbeddingError as exc:
        raise MissingEmbeddingError(f"{cut_path(config.embedding_file)}: {exc}") from None


def split_sides(trees: Sequence[DiscussionTree], config: RunConfig) -> list[CorpusSide]:
    """Validate ``config`` and build the train and test sides of its split;
    EmptyEvalSetError before any featurization if the test side has no PoIs,
    and one warning if it lacks a label, which every report then flags."""
    config.validate()
    train_trees, test_trees = split_trees(trees, config.split_fraction, config.seed)
    train_side, test_side = corpus_sides(config, trees, train_trees, test_trees)
    where = f"the test side of the {config.task} split at seed {config.seed}"
    if not test_side.labels:
        raise EmptyEvalSetError(f"{where} has no PoIs")
    missing = sorted(set(TASK_LABELS[config.task]) - set(test_side.labels))
    if missing:
        warnings.warn(f"{where} lacks classes {quote_list(missing)}; they score f1 = 0")
    return [train_side, test_side]


class Replicate(NamedTuple):
    """What one featurize -> train -> evaluate pass produced."""

    model: SoftmaxModel
    report: EvalReport


@dataclass(frozen=True)
class SeedAverage:
    """Metrics of one configuration, each the mean of its per-seed values
    (not of pooled predictions)."""

    p: float
    gamma: float
    scheme: str
    accuracy: float
    macro_f1: float
    precision_pos: float
    recall_pos: float
    precision_macro: float
    recall_macro: float


def replicate(
    train_side: CorpusSide, test_side: CorpusSide, configs: Sequence[RunConfig]
) -> list[Replicate]:
    """Featurize, train and evaluate each of ``configs`` on the split of the
    two sides, in :func:`_lockstep_groups`; one :class:`Replicate` per
    config, in config order. A config's ``seed`` seeds only its walks and
    the training shuffle. A group's train sides form one ``(B, n, D)``
    stack, freed once its models are trained, before its test sides are
    featurized; those are freed before the next group starts. A config
    whose features are the first columns of another's (see
    :func:`_prefix_bases`) reads views of that config's matrices."""
    widths = [feature_width(train_side.values.shape[1], ConcatScheme(c.scheme)) for c in configs]
    replicates: dict[int, Replicate] = {}
    for group in _lockstep_groups(configs, widths):
        held = sorted(set(group.values()))
        stack = np.empty((len(held), len(train_side.labels), widths[held[0]]))
        for j, k in enumerate(held):
            featurize_split(train_side, configs[k], out=stack[j])
        columns = [(held.index(base), widths[k]) for k, base in group.items()]
        models = train(train_side.labels, stack, [configs[k] for k in group], columns=columns)
        del stack
        tests = {k: featurize_split(test_side, configs[k]) for k in held}
        for (k, base), model in zip(group.items(), models):
            test = dataclasses.replace(tests[base], X=tests[base].X[:, : widths[k]])
            replicates[k] = Replicate(model, evaluate(model, test))
        del tests, test
    return [replicates[k] for k in range(len(configs))]


def _prefix_bases(configs: Sequence[RunConfig], widths: Sequence[int]) -> list[int]:
    """The index of the config whose feature matrix each config reads: the
    widest (of ``widths``, the configs' feature widths; the first of equal
    width) of those that differ from it only in a scheme that extends its
    layout, or itself. Such a base reads its own matrix: a layout that
    extended it would extend the config's too, and be wider."""
    def reads(k: int, j: int) -> bool:  # config k reads the matrix of config j
        config, base = configs[k], configs[j]
        schemes = ConcatScheme(base.scheme), ConcatScheme(config.scheme)
        return extends_layout(*schemes) and base.replace(scheme=config.scheme) == config

    ks = range(len(configs))
    return [max((j for j in ks if reads(k, j)), key=widths.__getitem__, default=k) for k in ks]


# The most feature matrices a lockstep group holds. On grid-hate (in-process,
# one core of a 2-core VM, median of 15), its 36 models trained in 0.55 s one
# matrix at a time, 0.38 s in threes and 0.38 s in sixes, and peak RSS grew
# from 40.5 MB to 43.6 MB at three and 48.8 MB at six, as a group holds all
# its train feature matrices at once: groups of six buy no time for 12 % more
# memory. A model that reads a view of another's matrix is not counted.
LOCKSTEP_CAP = 3


def _lockstep_groups(configs: Sequence[RunConfig], widths: Sequence[int]) -> list[dict[int, int]]:
    """The configs that train together, in the order of their first config,
    each group mapping its configs' indices to those of the configs whose
    matrices they read (see :func:`_prefix_bases`): runs of consecutive
    configs that read their own matrix with one of ``widths`` and training
    settings, cut into LOCKSTEP_CAP matrices, with the configs that read them."""
    def key(k: int) -> tuple:
        return widths[k], tuple(getattr(configs[k], name) for name in TRAIN_FIELDS)

    bases = _prefix_bases(configs, widths)
    groups = []
    for _, run in itertools.groupby((k for k, base in enumerate(bases) if base == k), key):
        run = list(run)
        for i in range(0, len(run), LOCKSTEP_CAP):
            held = run[i : i + LOCKSTEP_CAP]
            groups.append({k: base for k, base in enumerate(bases) if base in held})
    return sorted(groups, key=min)


def _mean(reports: Sequence[EvalReport], metric: str) -> float:
    values = [getattr(r, metric) for r in reports if getattr(r, metric) is not None]
    return sum(values) / len(values) if values else float("nan")


def average_over_seeds(
    train_side: CorpusSide,
    test_side: CorpusSide,
    configs: Sequence[RunConfig],
    seeds: Sequence[int],
) -> list[SeedAverage]:
    """One :class:`SeedAverage` per config, in config order, from one
    :func:`replicate` of every config reseeded to every seed on the same
    split, which is made before: the seed reaches only the walks and the
    training shuffle. Seeds are the outer loop, so the configs of one seed
    run together and reuse the walks each side memoizes when they share
    ``p``, ``L`` and the step cap."""
    seeded = [config.replace(seed=seed) for seed in seeds for config in configs]
    every = [result.report for result in replicate(train_side, test_side, seeded)]
    per_config = (every[k :: len(configs)] for k in range(len(configs)))
    return [
        SeedAverage(
            p=config.p,
            gamma=config.gamma,
            scheme=config.scheme,
            accuracy=_mean(reports, "accuracy"),
            macro_f1=_mean(reports, "macro_f1"),
            precision_pos=_mean(reports, "precision_pos"),
            recall_pos=_mean(reports, "recall_pos"),
            precision_macro=_mean(reports, "macro_precision"),
            recall_macro=_mean(reports, "macro_recall"),
        )
        for config, reports in zip(configs, per_config)
    ]


def feature_dump_lines(examples: Examples) -> Iterator[str]:
    """One JSON line per example, for cross-implementation diffing."""
    columns = zip(examples.trees, examples.node_ids, examples.labels, examples.X)
    for tree, node_id, label, row in columns:
        ids = {"tree_id": tree.tree_id, "node_id": node_id}
        yield json.dumps({**ids, "label": label, "features": row.tolist()}, sort_keys=True) + "\n"


def write_json(payload: dict, path: str | Path) -> None:
    """Sorted, indented JSON with a trailing newline."""
    write_lines(path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


def write_manifest(config: RunConfig, path: str | Path, extra: dict | None = None) -> None:
    write_json({"format": MANIFEST_FORMAT, "config": config.to_dict(), **(extra or {})}, path)


def read_manifest(path: str | Path) -> tuple[RunConfig, dict]:
    """Load a manifest or bare config file; returns (config, extras).

    A manifest holds the config under ``config``, a bare config holds its
    fields at the top level. Beside them the file may hold ``format``, which
    must be MANIFEST_FORMAT, and the lists named in MANIFEST_LISTS, which
    are the extras; any other key or value is a ConfigError that names the file.
    """
    where = cut_path(path)
    try:
        payload = JSON_DECODER.decode(Path(path).read_text(encoding="utf-8-sig"))
    except (ValueError, RecursionError) as exc:  # invalid JSON or UTF-8, or too deep
        raise ConfigError(f"{where}: invalid JSON ({exc})") from None
    try:
        if not isinstance(payload, dict):
            raise ConfigError("expected a JSON object")
        if payload.pop("format", MANIFEST_FORMAT) != MANIFEST_FORMAT:
            raise ConfigError(f"format must be {MANIFEST_FORMAT!r}")
        extras = {key: payload.pop(key) for key in MANIFEST_LISTS if key in payload}
        for key, values in extras.items():
            kind = MANIFEST_LISTS[key]
            if not isinstance(values, list):
                raise ConfigError(f"{key} must be a list of {kind} values, got {quote(values)}")
            for value in values:
                check_type(key, value, kind)
        if "config" not in payload:
            return RunConfig.from_dict(payload), extras
        config = payload.pop("config")
        if not isinstance(config, dict):
            raise ConfigError(f"config must be a JSON object, got {quote(config)}")
        if payload:
            raise ConfigError(f"unknown manifest keys: {quote_list(sorted(payload))}")
        return RunConfig.from_dict(config), extras
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _check_values(name: str, values: Sequence[float]) -> None:
    """Raise ConfigError if ``values`` is empty or repeats a value; ``0.0``
    equals ``-0.0``, as they would as cell keys."""
    if not values:
        raise ConfigError(f"{name} must be non-empty")
    repeated = [value for value, count in collections.Counter(values).items() if count > 1]
    if repeated:
        raise ConfigError(f"{name} must not repeat a value, got {repeated[0]!r} more than once")


# --- hyperparameter grid search ---


def grid_search(
    trees: Sequence[DiscussionTree],
    p_values: Sequence[float],
    gamma_values: Sequence[float],
    config: RunConfig,
    seeds: Sequence[int],
    jobs: int = 1,
    on_split: Callable[[], object] = lambda: None,
) -> list[SeedAverage]:
    """One :class:`SeedAverage` per (p, gamma) cell, in (p, gamma) order,
    each averaging its metrics over the seeds.

    The tree split is fixed by ``config.seed``; each replicate reseeds
    only the walks and the training shuffle. Each list must be non-empty
    and repeat no value. ``on_split`` is called once both sides are built,
    before any featurization.
    """
    for name, values in (("p_values", p_values), ("gamma_values", gamma_values), ("seeds", seeds)):
        _check_values(name, values)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    rows = [[config.replace(p=p, gamma=g) for g in gamma_values] for p in p_values]
    for cell_config in itertools.chain(*rows):
        cell_config.validate()
    train_side, test_side = split_sides(trees, config)
    on_split()
    row_averages = functools.partial(average_over_seeds, train_side, test_side, seeds=tuple(seeds))
    # One task per p, so each worker samples the walks of its p once. The
    # fork start method launches every worker on the first submit, so ask
    # for no more workers than there are tasks.
    workers = min(jobs, len(rows))
    if workers > 1:
        # Imported here: on a 2-core VM it adds 20-30 ms to every command's start.
        import signal
        from concurrent.futures import ProcessPoolExecutor
        # Ctrl-C reaches the whole process group. The workers ignore it and
        # finish the tasks they hold, and this process raises once they have.
        # The pool marks every task it queues as running, past the reach of
        # cancelling, so it is handed one task per worker at a time.
        ignore_sigint = (signal.SIGINT, signal.SIG_IGN)
        averages = []
        # The pool forks its workers and starts its manager thread inside the
        # first map, and a Ctrl-C there leaves a pool that cannot shut down (a
        # traceback, or a hang at exit). So SIGINT stays blocked until that map
        # returns, and one that came meanwhile is raised then.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            pool = ProcessPoolExecutor(workers, initializer=signal.signal, initargs=ignore_sigint)
            with pool:
                for lo in range(0, len(rows), workers):
                    batch = pool.map(row_averages, rows[lo : lo + workers])
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    averages += batch
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    else:
        averages = [row_averages(row) for row in rows]
    return sorted(itertools.chain(*averages), key=lambda cell: (cell.p, cell.gamma))


def best_cell(cells: Sequence[SeedAverage]) -> SeedAverage:
    """The cell of highest macro-F1; ties break by higher accuracy, then
    lower p, then lower gamma."""
    return max(cells, key=lambda cell: (cell.macro_f1, cell.accuracy, -cell.p, -cell.gamma))


def grid_csv(cells: Sequence[SeedAverage]) -> str:
    return _csv(_GRID_COLUMNS, cells)


# --- concatenation ablation ---


def ablate_concat(
    trees: Sequence[DiscussionTree],
    config: RunConfig,
    seeds: Sequence[int],
    on_split: Callable[[], object] = lambda: None,
) -> list[SeedAverage]:
    """Compare the four concatenation schemes under identical seeds;
    ``on_split`` as in :func:`grid_search`."""
    _check_values("seeds", seeds)
    train_side, test_side = split_sides(trees, config)
    on_split()
    configs = [config.replace(scheme=scheme.value) for scheme in ConcatScheme]
    return average_over_seeds(train_side, test_side, configs, seeds)


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
