"""Command-line interface.

Subcommands: validate, generate, featurize, train, evaluate, run,
grid-search, ablate-concat, error-analysis. Flags override a JSON config
file (``--config``), which overrides built-in defaults; every run writes
a manifest sufficient for bit-exact replay. Exit status is 0 on success,
1 on runtime failure and 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .corpus import corpus_stats, load_corpus, save_corpus
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidSpecError,
    MalformedFileError,
    MissingEmbeddingError,
    MissingLabelError,
    NotBinaryTaskError,
    ThreadwalkError,
)
from .evaluation import error_analysis, evaluate, split_trees
from .features import AggregationStrategy, ConcatScheme, Examples, TASKS
from .model import load_model, save_model, train
from .pipeline import (
    RunConfig,
    ablate_concat,
    ablation_csv,
    check_type,
    corpus_provider,
    feature_dump_lines,
    featurize_split,
    grid_search,
    read_manifest,
    run_pipeline,
    write_json,
    write_manifest,
)
from .synthetic import CorpusSpec, generate
from .tree import DiscussionTree

_CONFIG_EXIT_ERRORS = (
    ConfigError,
    DimensionMismatchError,
    InvalidSpecError,
    MalformedFileError,
    MissingEmbeddingError,
    MissingLabelError,
    NotBinaryTaskError,
    OSError,  # a path that is absent, unreadable, or a directory where a file belongs
)

_RUN_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig))

DEFAULT_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_EXIT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ThreadwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threadwalk",
        description="Walk-based context features for threaded-discussion classification.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("validate", help="check a corpus file and print its stats")
    p.add_argument("corpus")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("generate", help="write a synthetic labeled corpus")
    p.add_argument("--output", required=True, help="corpus file to write")
    p.add_argument("--task", choices=TASKS, default="hate")
    p.add_argument("--num-trees", type=int, default=200)
    p.add_argument("--mean-tree-size", type=float, default=12.0)
    p.add_argument("--size-dispersion", type=float, default=0.8)
    p.add_argument("--branching", type=float, default=1.0)
    p.add_argument("--positive-fraction", type=float, default=0.5)
    p.add_argument("--context-signal", type=float, default=0.5)
    p.add_argument("--vocabulary-size", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("featurize", help="dump labeled feature vectors for a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True, help="feature dump file (JSON lines)")
    p.add_argument("--traces", help="optional walk trace dump (JSON lines)")
    _add_run_options(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train on the train split and save the model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="output directory (default $THREADWALK_OUT or .)")
    _add_run_options(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a saved model on the test split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="optional directory for report files")
    _add_run_options(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="full pipeline: split, featurize, train, evaluate")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="output directory (default $THREADWALK_OUT or .)")
    p.add_argument("--dump-features", action="store_true")
    _add_run_options(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grid-search", help="(p, gamma) grid with seed averaging")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="output directory (default $THREADWALK_OUT or .)")
    p.add_argument("--p-values", help="comma-separated, default 0,0.2,...,1.0")
    p.add_argument("--gamma-values", help="comma-separated, default 0,0.2,...,1.0")
    p.add_argument("--seeds", help="comma-separated, default 0,1,2,3,4")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    _add_run_options(p)
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("ablate-concat", help="compare the four concatenation schemes")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="output directory (default $THREADWALK_OUT or .)")
    p.add_argument("--seeds", help="comma-separated, default 0,1,2,3,4")
    _add_run_options(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("error-analysis", help="list FPs and FNs with walk context")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="output directory (default $THREADWALK_OUT or .)")
    _add_run_options(p)
    p.set_defaults(func=cmd_error_analysis)

    return parser


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config or manifest file; flags override it")
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--p", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--walk-length", type=int)
    p.add_argument("--step-cap", type=int)
    p.add_argument("--aggregation", choices=[s.value for s in AggregationStrategy])
    p.add_argument("--scheme", choices=[s.value for s in ConcatScheme])
    p.add_argument("--embedding", choices=["hashed-bow", "external"])
    p.add_argument("--bow-dim", type=int)
    p.add_argument("--bow-normalize", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--embedding-file")
    p.add_argument("--normalize-weights", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--class-weighting", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--momentum", type=float)
    p.add_argument("--split-fraction", type=float)
    p.add_argument("--seed", type=int)


def _resolve_config(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    extras: dict = {}
    if getattr(args, "config", None):
        config, extras = read_manifest(args.config)
        base = config.to_dict()
    else:
        base = RunConfig().to_dict()
    for name in _RUN_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            base[name] = value
    config = RunConfig.from_dict(base)
    config.validate()
    return config, extras


def _outdir(args: argparse.Namespace) -> Path:
    out = getattr(args, "out", None) or os.environ.get("THREADWALK_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_list(text: str | None, extras: dict, key: str, cast: type, default: tuple) -> tuple:
    """A comma-separated flag, else the list under ``key`` in the config
    file, else ``default``. Malformed values raise ConfigError."""
    kind = cast.__name__
    if text:
        try:
            return tuple(cast(v) for v in text.split(","))
        except ValueError:
            raise ConfigError(f"{key} needs comma-separated {kind} values, got {text!r}") from None
    if key not in extras:
        return default
    values = extras[key]
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list of {kind} values, got {values!r}")
    for value in values:
        check_type(key, value, kind)
    return tuple(cast(v) for v in values)


def _featurized(
    args: argparse.Namespace, side: str | None
) -> tuple[RunConfig, list[DiscussionTree], Examples]:
    """Resolve the config, load the corpus, keep the ``"train"`` or ``"test"``
    side of the split (or every tree for ``None``) and featurize it."""
    config, _ = _resolve_config(args)
    trees = load_corpus(args.corpus)
    provider = corpus_provider(config, trees)
    if side is not None:
        train_trees, test_trees = split_trees(trees, config.split_fraction, config.seed)
        trees = train_trees if side == "train" else test_trees
    return config, trees, featurize_split(trees, config, provider)


def cmd_validate(args: argparse.Namespace) -> int:
    trees = load_corpus(args.corpus)
    stats = corpus_stats(trees)
    print(json.dumps(stats, sort_keys=True, indent=2))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    spec = CorpusSpec(
        num_trees=args.num_trees,
        mean_tree_size=args.mean_tree_size,
        size_dispersion=args.size_dispersion,
        branching=args.branching,
        positive_fraction=args.positive_fraction,
        context_signal=args.context_signal,
        vocabulary_size=args.vocabulary_size,
        seed=args.seed,
        task=args.task,
    )
    corpus = generate(spec)
    save_corpus(corpus.trees, args.output)
    total = sum(len(t) for t in corpus.trees)
    print(
        f"wrote {len(corpus.trees)} trees / {total} nodes to {args.output} "
        f"(positive fraction {corpus.positive_fraction_realized():.4f}, "
        f"context fraction {corpus.context_fraction_realized():.4f})"
    )
    return 0


def cmd_featurize(args: argparse.Namespace) -> int:
    _, _, examples = _featurized(args, None)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.writelines(feature_dump_lines(examples))
    if args.traces:
        with open(args.traces, "w", encoding="utf-8") as handle:
            for tree_id, walk in zip(examples.tree_ids, examples.walks):
                handle.write(walk.trace_line(tree_id) + "\n")
    print(f"wrote {len(examples)} examples to {args.output}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config, _, examples = _featurized(args, "train")
    model = train(examples, config.train_config())
    outdir = _outdir(args)
    save_model(model, outdir / "model.txt")
    write_manifest(config, outdir / "manifest.json")
    print(f"trained on {len(examples)} examples; model written to {outdir / 'model.txt'}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    _, _, examples = _featurized(args, "test")
    report = evaluate(model, examples)
    print(report.to_text(), end="")
    if args.out:
        outdir = _outdir(args)
        (outdir / "report.txt").write_text(report.to_text(), encoding="utf-8")
        write_json(report.to_dict(), outdir / "metrics.json")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config, _ = _resolve_config(args)
    trees = load_corpus(args.corpus)
    result = run_pipeline(trees, config, outdir=_outdir(args), dump_features=args.dump_features)
    print(result.report.to_text(), end="")
    print(f"artifacts: {', '.join(str(p) for p in result.artifacts.values())}")
    return 0


def cmd_grid_search(args: argparse.Namespace) -> int:
    config, extras = _resolve_config(args)
    trees = load_corpus(args.corpus)
    p_values = _parse_list(args.p_values, extras, "p_values", float, DEFAULT_GRID)
    gamma_values = _parse_list(args.gamma_values, extras, "gamma_values", float, DEFAULT_GRID)
    seeds = _parse_list(args.seeds, extras, "seeds", int, DEFAULT_SEEDS)
    result = grid_search(trees, config.task, p_values, gamma_values, config, seeds, jobs=args.jobs)
    outdir = _outdir(args)
    (outdir / "grid.csv").write_text(result.to_csv(), encoding="utf-8")
    write_manifest(
        config,
        outdir / "manifest.json",
        extra={"p_values": list(p_values), "gamma_values": list(gamma_values), "seeds": list(seeds)},
    )
    best = result.cells[result.best]
    print(f"grid written to {outdir / 'grid.csv'}")
    print(
        f"best cell p={best.p} gamma={best.gamma} "
        f"macro_f1={best.macro_f1:.4f} accuracy={best.accuracy:.4f}"
    )
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    config, extras = _resolve_config(args)
    trees = load_corpus(args.corpus)
    seeds = _parse_list(args.seeds, extras, "seeds", int, DEFAULT_SEEDS)
    rows = ablate_concat(trees, config.task, config, seeds)
    outdir = _outdir(args)
    (outdir / "ablation.csv").write_text(ablation_csv(rows), encoding="utf-8")
    write_manifest(config, outdir / "manifest.json", extra={"seeds": list(seeds)})
    for row in rows:
        print(f"{row.scheme:>16}  accuracy {row.accuracy:.4f}  macro_f1 {row.macro_f1:.4f}")
    return 0


def cmd_error_analysis(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    _, test_trees, examples = _featurized(args, "test")
    result = error_analysis(model, examples, test_trees)
    outdir = _outdir(args)
    (outdir / "errors.jsonl").write_text(result.to_jsonl(), encoding="utf-8")
    print(
        f"{len(result.false_positives)} false positives, "
        f"{len(result.false_negatives)} false negatives "
        f"(positive class {result.positive_label!r}); listings in {outdir / 'errors.jsonl'}"
    )
    return 0


if __name__ == "__main__":
    entrypoint()
