"""Command-line interface.

Subcommands: validate, generate, featurize, train, evaluate, run,
grid-search, ablate-concat, error-analysis. Flags override a JSON config
file (``--config``), which overrides built-in defaults; every run writes
a manifest sufficient for bit-exact replay. Exit status is 0 on success,
1 on runtime failure and 2 on bad input: a flag, a config value, or a
corpus, embedding, model or manifest file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .corpus import corpus_stats, load_corpus, save_corpus, write_lines
from .errors import ConfigError, InputError, ThreadwalkError, TooFewTreesError
from .evaluation import error_analysis, evaluate, split_trees
from .features import AggregationStrategy, ConcatScheme, Examples, TASKS
from .model import load_model, save_model, train
from .pipeline import (
    EMBEDDING_SOURCES,
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

DEFAULT_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
_OUT_HELP = "output directory (default $THREADWALK_OUT or .)"
_FLAG_TYPES = {"int": int, "float": float, "str": str}
_FLAG_CHOICES = {
    "task": TASKS,
    "aggregation": [s.value for s in AggregationStrategy],
    "scheme": [s.value for s in ConcatScheme],
    "embedding": EMBEDDING_SOURCES,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        # Only the --corpus trees are ever split, so name that file.
        where = f"{args.corpus}: " if isinstance(exc, TooFewTreesError) else ""
        print(f"error: {where}{exc}", file=sys.stderr)
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
    _add_field_flags(p, CorpusSpec, use_defaults=True)
    p.set_defaults(func=cmd_generate)

    p = _corpus_command(
        sub, "featurize", "dump labeled feature vectors for a corpus", cmd_featurize, out=None
    )
    p.add_argument("--output", required=True, help="feature dump file (JSON lines)")
    p.add_argument("--traces", help="optional walk trace dump (JSON lines)")

    _corpus_command(sub, "train", "train on the train split and save the model", cmd_train)

    p = _corpus_command(
        sub,
        "evaluate",
        "evaluate a saved model on the test split",
        cmd_evaluate,
        out="optional directory for report files",
    )
    p.add_argument("--model", required=True)

    p = _corpus_command(sub, "run", "full pipeline: split, featurize, train, evaluate", cmd_run)
    p.add_argument("--dump-features", action="store_true")

    p = _corpus_command(sub, "grid-search", "(p, gamma) grid with seed averaging", cmd_grid_search)
    p.add_argument("--p-values", help="comma-separated, default 0,0.2,...,1.0")
    p.add_argument("--gamma-values", help="comma-separated, default 0,0.2,...,1.0")
    p.add_argument("--seeds", help="comma-separated, default 0,1,2,3,4")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)

    p = _corpus_command(sub, "ablate-concat", "compare the four concatenation schemes", cmd_ablate)
    p.add_argument("--seeds", help="comma-separated, default 0,1,2,3,4")

    p = _corpus_command(
        sub, "error-analysis", "list FPs and FNs with walk context", cmd_error_analysis
    )
    p.add_argument("--model", required=True)

    return parser


def _corpus_command(
    sub: argparse._SubParsersAction, name: str, help: str, func, out: str | None = _OUT_HELP
) -> argparse.ArgumentParser:
    """A subcommand that reads ``--corpus`` under the run options; ``out``
    is the help of its ``--out`` flag, or None for a command without one."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--corpus", required=True)
    if out is not None:
        p.add_argument("--out", help=out)
    p.add_argument("--config", help="JSON config or manifest file; flags override it")
    _add_field_flags(p, RunConfig, use_defaults=False)
    p.set_defaults(func=func)
    return p


def _add_field_flags(p: argparse.ArgumentParser, cls: type, use_defaults: bool) -> None:
    """One flag per dataclass field: ``--walk-length`` for ``walk_length``,
    typed from the annotation. Without ``use_defaults`` every flag defaults
    to None, so an unset flag leaves the config file's value in place."""
    for f in dataclasses.fields(cls):
        flag = "--" + f.name.replace("_", "-")
        kind = f.type.partition(" | ")[0]
        default = f.default if use_defaults else None
        if kind == "bool":
            p.add_argument(flag, action=argparse.BooleanOptionalAction, default=default)
        else:
            p.add_argument(
                flag, type=_FLAG_TYPES[kind], choices=_FLAG_CHOICES.get(f.name), default=default
            )


def _resolve_config(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    config, extras = read_manifest(args.config) if args.config else (RunConfig(), {})
    base = config.to_dict()
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name)
        if value is not None:
            base[f.name] = value
    config = RunConfig.from_dict(base)
    config.validate()
    return config, extras


def _outdir(args: argparse.Namespace) -> Path:
    out = args.out or os.environ.get("THREADWALK_OUT") or "."
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
    spec = CorpusSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(CorpusSpec)})
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
    write_lines(args.output, feature_dump_lines(examples))
    if args.traces:
        traces = zip(examples.tree_ids, examples.walks)
        write_lines(args.traces, (walk.trace_line(tree_id) + "\n" for tree_id, walk in traces))
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
        write_lines(outdir / "report.txt", [report.to_text()])
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
    write_lines(outdir / "grid.csv", [result.to_csv()])
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
    write_lines(outdir / "ablation.csv", [ablation_csv(rows)])
    write_manifest(config, outdir / "manifest.json", extra={"seeds": list(seeds)})
    for row in rows:
        print(f"{row.scheme:>16}  accuracy {row.accuracy:.4f}  macro_f1 {row.macro_f1:.4f}")
    return 0


def cmd_error_analysis(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    _, test_trees, examples = _featurized(args, "test")
    result = error_analysis(model, examples, test_trees)
    outdir = _outdir(args)
    write_lines(outdir / "errors.jsonl", [result.to_jsonl()])
    print(
        f"{len(result.false_positives)} false positives, "
        f"{len(result.false_negatives)} false negatives "
        f"(positive class {result.positive_label!r}); listings in {outdir / 'errors.jsonl'}"
    )
    return 0


if __name__ == "__main__":
    entrypoint()
