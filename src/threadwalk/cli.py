"""Command-line interface.

Subcommands: validate, generate, featurize, train, evaluate, run,
grid-search, ablate-concat, error-analysis. Flags override a JSON config
file (``--config``), which overrides built-in defaults; every run writes
a manifest sufficient for bit-exact replay. ``evaluate`` and
``error-analysis`` take their settings from the model file instead. Exit
status is 0 on success, 1 on runtime failure, 2 on bad input (a flag,
a config value, or a corpus, embedding, model or manifest file) and 130
on an interrupt.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import re
import sys
import warnings
from pathlib import Path

from .corpus import corpus_stats, load_corpus, save_corpus, write_lines
from .errors import (
    ConfigError,
    InputError,
    NonFiniteScoreError,
    ThreadwalkError,
    TooFewTreesError,
    cut_path,
    quote,
    quote_list,
)
from .evaluation import error_analysis, evaluate
from .features import TASK_LABELS, Examples, featurize_split
from .model import SoftmaxModel, load_model, save_model, train
from .pipeline import (
    CHOICES,
    RunConfig,
    ablate_concat,
    ablation_csv,
    best_cell,
    corpus_sides,
    feature_dump_lines,
    grid_csv,
    grid_search,
    read_manifest,
    replicate,
    split_sides,
    write_json,
    write_manifest,
)
from .synthetic import CorpusSpec, generate

DEFAULT_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
_OUT_HELP = "output directory (default $THREADWALK_OUT or .)"
_FLAG_TYPES = {"int": int, "float": float, "str": str}


def main(argv: list[str] | None = None) -> int:
    with warnings.catch_warnings():
        # One line per warning, without the source file and line behind it.
        warnings.showwarning = lambda message, *_: _say(f"warning: {message}")
        try:
            args = build_parser().parse_args(argv)
            status = args.func(args)
            sys.stdout.flush()  # so that a closed stdout fails here, not at exit
            return status
        except BrokenPipeError:
            # The reader left (``| head``): the flush at exit goes to /dev/null.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        except KeyboardInterrupt:
            _say("interrupted")
            return 130
        except (InputError, OSError) as exc:
            if isinstance(exc, OSError) and isinstance(exc.filename, str):
                exc.filename = cut_path(exc.filename)  # the OS message echoes it
            # Only the --corpus trees are ever split, and a --model file scores rows.
            flag = {TooFewTreesError: "corpus", NonFiniteScoreError: "model"}.get(type(exc))
            where = f"{cut_path(getattr(args, flag))}: " if flag and hasattr(args, flag) else ""
            _say(f"error: {where}{exc}")
            return 2
        except ThreadwalkError as exc:
            _say(f"error: {exc}")
            return 1


def _say(line: str) -> None:
    """Write ``line`` to stderr; a closed stderr drops it and changes nothing else.
    (Python starts with ``sys.stderr`` None if fd 2 is closed, and ``print``
    would then write to stdout.)"""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)


def entrypoint() -> None:
    sys.exit(main())


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on a bad flag instead of printing usage and exiting,
    so that it ends as one short ``error:`` line and exit 2; subparsers
    inherit it."""

    def error(self, message: str):
        # Each value argparse quotes is cut as quote() cuts it; then a line
        # longer than any argparse writes itself, such as one listing stray
        # arguments, is cut too.
        message = re.sub(r"'([^']{40})[^']+'", r"'\1'...", message)
        raise ConfigError(message[:280] + ("..." if len(message) > 280 else ""))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    _corpus_command(
        sub, "evaluate", "evaluate a saved model on the test split", cmd_evaluate,
        out="optional directory for report files", scores=True,
    )

    p = _corpus_command(sub, "run", "full pipeline: split, featurize, train, evaluate", cmd_run)
    p.add_argument("--dump-features", action="store_true")

    p = _corpus_command(sub, "grid-search", "(p, gamma) grid with seed averaging", cmd_grid_search)
    p.add_argument("--p-values", help="comma-separated, default 0,0.2,...,1.0")
    p.add_argument("--gamma-values", help="comma-separated, default 0,0.2,...,1.0")
    p.add_argument("--seeds", help="comma-separated, default 0,1,2,3,4")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)

    p = _corpus_command(sub, "ablate-concat", "compare the four concatenation schemes", cmd_ablate)
    p.add_argument("--seeds", help="comma-separated, default 0,1,2,3,4")

    _corpus_command(
        sub, "error-analysis", "list FPs and FNs with walk context", cmd_error_analysis,
        scores=True,
    )

    return parser


def _corpus_command(
    sub: argparse._SubParsersAction, name: str, help: str, func, out: str | None = _OUT_HELP,
    scores: bool = False,
) -> argparse.ArgumentParser:
    """A subcommand that reads ``--corpus`` under the run options; ``out``
    is the help of its ``--out`` flag, or None for a command without one.
    A command that ``scores`` a ``--model`` file reads the run settings from
    it and takes only ``--embedding-file`` beside it, and no abbreviated
    flag, so that ``--embedding`` is refused, not read as that one."""
    p = sub.add_parser(name, help=help, allow_abbrev=not scores)
    p.add_argument("--corpus", required=True)
    if out is not None:
        p.add_argument("--out", help=out)
    if scores:
        p.add_argument("--model", required=True)
        p.add_argument("--embedding-file", help="the embedding table, for an external model")
    else:
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
                flag, type=_FLAG_TYPES[kind], choices=CHOICES.get(f.name), default=default
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
    """The output directory, made if it does not exist. Commands call this
    once their inputs are read, so a bad input leaves no new directory."""
    out = args.out or os.environ.get("THREADWALK_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _parse_list(text: str | None, extras: dict, key: str, cast: type, default: tuple) -> tuple:
    """A comma-separated flag, else the list under ``key`` in the config
    file (its items checked by read_manifest), else ``default``. Malformed
    flag values raise ConfigError."""
    if text is not None:
        try:
            return tuple(cast(v) for v in text.split(","))
        except ValueError:
            raise ConfigError(
                f"{key} needs comma-separated {cast.__name__} values, got {quote(text)}"
            ) from None
    return tuple(map(cast, extras[key])) if key in extras else default


def _scored(args: argparse.Namespace) -> tuple[SoftmaxModel, Examples]:
    """The ``--model`` file and the test side it scores, featurized under the
    settings it records and ``--embedding-file``; ConfigError if the model
    records no settings, if its classes are not its task's labels, or if
    the embeddings give rows of another width than it takes."""
    model, where = load_model(args.model), cut_path(args.model)
    settings = {**model.metadata, "embedding_file": args.embedding_file}
    names = [f.name for f in dataclasses.fields(RunConfig)]
    missing = [name for name in names if name not in settings]
    if missing:
        raise ConfigError(f"{where}: meta lacks {quote_list(missing)}; retrain it")
    try:
        config = RunConfig.from_dict({name: settings[name] for name in names})
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    labels = TASK_LABELS[config.task]
    if sorted(model.class_names) != sorted(labels):
        raise ConfigError(
            f"{where} predicts {quote(model.class_names)}, not the labels {labels} "
            f"of the {config.task} task its settings name"
        )
    test_side = split_sides(load_corpus(args.corpus), config)[1]
    examples = featurize_split(test_side, config)
    if examples.X.shape[1] != model.feature_dim:
        raise ConfigError(
            f"{where} takes {model.feature_dim} features per row, but these embeddings "
            f"give {examples.X.shape[1]}; use the table it was trained on"
        )
    return model, examples


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
    config, _ = _resolve_config(args)
    corpus = load_corpus(args.corpus)
    examples = featurize_split(corpus_sides(config, corpus, corpus)[0], config)
    write_lines(args.output, feature_dump_lines(examples))
    if args.traces:
        traces = zip(examples.trees, examples.walks)
        lines = (walk.trace_line(tree.tree_id, config.gamma) + "\n" for tree, walk in traces)
        write_lines(args.traces, lines)
    print(f"wrote {len(examples)} examples to {args.output}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config, _ = _resolve_config(args)
    train_side = split_sides(load_corpus(args.corpus), config)[0]
    outdir = _outdir(args)
    examples = featurize_split(train_side, config)
    (model,) = train(examples.labels, examples.X[None], [config])
    save_model(model, outdir / "model.txt")
    write_manifest(config, outdir / "manifest.json")
    print(f"trained on {len(examples)} examples; model written to {outdir / 'model.txt'}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    report = evaluate(*_scored(args))
    if args.out:
        outdir = _outdir(args)
        write_lines(outdir / "report.txt", [report.to_text()])
        write_json(report.to_dict(), outdir / "metrics.json")
    print(report.to_text(), end="")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config, _ = _resolve_config(args)
    train_side, test_side = split_sides(load_corpus(args.corpus), config)
    outdir = _outdir(args)
    ((model, report),) = replicate(train_side, test_side, [config])
    artifacts = [outdir / "model.txt", outdir / "report.txt", outdir / "metrics.json"]
    save_model(model, artifacts[0])
    write_lines(artifacts[1], [report.to_text()])
    sizes = {"train_examples": len(train_side.labels), "test_examples": len(test_side.labels)}
    write_json({"report": report.to_dict(), **sizes, "config": config.to_dict()}, artifacts[2])
    if args.dump_features:
        artifacts.append(outdir / "features.jsonl")
        # Each side's walks are memoized, so its rows come out as trained or scored on.
        sides = (featurize_split(side, config) for side in (train_side, test_side))
        write_lines(artifacts[-1], itertools.chain.from_iterable(map(feature_dump_lines, sides)))
    # Last, so that a manifest vouches for a complete set of artifacts.
    artifacts.append(outdir / "manifest.json")
    write_manifest(config, artifacts[-1])
    print(report.to_text(), end="")
    print(f"artifacts: {', '.join(map(str, artifacts))}")
    return 0


def cmd_grid_search(args: argparse.Namespace) -> int:
    config, extras = _resolve_config(args)
    trees = load_corpus(args.corpus)
    p_values = _parse_list(args.p_values, extras, "p_values", float, DEFAULT_GRID)
    gamma_values = _parse_list(args.gamma_values, extras, "gamma_values", float, DEFAULT_GRID)
    seeds = _parse_list(args.seeds, extras, "seeds", int, DEFAULT_SEEDS)
    cells = grid_search(
        trees, p_values, gamma_values, config, seeds, jobs=args.jobs, on_split=lambda: _outdir(args)
    )
    outdir = _outdir(args)
    write_lines(outdir / "grid.csv", [grid_csv(cells)])
    write_manifest(
        config,
        outdir / "manifest.json",
        extra={"p_values": list(p_values), "gamma_values": list(gamma_values), "seeds": list(seeds)},
    )
    best = best_cell(cells)
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
    rows = ablate_concat(trees, config, seeds, on_split=lambda: _outdir(args))
    outdir = _outdir(args)
    write_lines(outdir / "ablation.csv", [ablation_csv(rows)])
    write_manifest(config, outdir / "manifest.json", extra={"seeds": list(seeds)})
    for row in rows:
        print(f"{row.scheme:>16}  accuracy {row.accuracy:.4f}  macro_f1 {row.macro_f1:.4f}")
    return 0


def cmd_error_analysis(args: argparse.Namespace) -> int:
    positive_label, records = error_analysis(*_scored(args))
    outdir = _outdir(args)
    write_lines(outdir / "errors.jsonl", (json.dumps(r, sort_keys=True) + "\n" for r in records))
    fps = sum(record["kind"] == "fp" for record in records)
    print(
        f"{fps} false positives, {len(records) - fps} false negatives "
        f"(positive class {positive_label!r}); listings in {outdir / 'errors.jsonl'}"
    )
    return 0


if __name__ == "__main__":
    entrypoint()
