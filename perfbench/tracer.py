"""Traced run: the CLI in-process, with spans around calls into each module.

    python perfbench/tracer.py <spans.npz> <threadwalk CLI arguments...>

Public functions are wrapped where the package looks them up, so the
program itself is unchanged. Each span records its name, start, end and
parent span; spans stay in memory and are written to ``<spans.npz>`` when
the command ends, with counters and timings in ``<spans.npz>.json``. A
target that no longer exists is skipped and its metrics are absent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

import numpy as np

# (module[:class], attribute, span name); a function imported into several
# modules is wrapped in each module that calls it.
TARGETS = (
    ("threadwalk.cli", "load_corpus", "corpus.load"),
    ("threadwalk.corpus", "build_tree", "corpus.validate"),
    ("threadwalk.pipeline:RunConfig", "build_provider", "embeddings.provider"),
    ("threadwalk.pipeline", "load_external_embeddings", "embeddings.load_external"),
    ("threadwalk.embeddings:HashedBowProvider", "vector_for", "embeddings.lookup"),
    ("threadwalk.embeddings:ExternalEmbeddingProvider", "vector_for", "embeddings.lookup"),
    ("threadwalk.embeddings", "hashed_bow_embed", "embeddings.embed"),
    ("threadwalk.features", "walk_rng", "walks.rng"),
    ("threadwalk.features", "sample_walk", "walks.sample"),
    ("threadwalk.features", "aggregate_context", "features.aggregate"),
    ("threadwalk.pipeline", "featurize_split", "features.featurize"),
    ("threadwalk.cli", "featurize_split", "features.featurize"),
    ("threadwalk.pipeline", "train", "model.train"),
    ("threadwalk.cli", "train", "model.train"),
    ("threadwalk.model", "loss_and_gradient", "model.loss"),
    ("threadwalk.pipeline", "split_trees", "evaluation.split"),
    ("threadwalk.cli", "split_trees", "evaluation.split"),
    ("threadwalk.pipeline", "evaluate", "evaluation.evaluate"),
    ("threadwalk.cli", "evaluate", "evaluation.evaluate"),
    ("threadwalk.pipeline", "save_model", "pipeline.artifact_write"),
    ("threadwalk.cli", "save_model", "pipeline.artifact_write"),
    ("threadwalk.pipeline", "write_manifest", "pipeline.artifact_write"),
    ("threadwalk.cli", "write_manifest", "pipeline.artifact_write"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.installed: set[str] = set()
        self.train_rows = -1
        self.walks = {"samples": 0, "raw_steps": 0, "collected": 0, "len_hist": {}}

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, pick, after=None):
        """Wrap ``fn`` in a span named by ``pick(args, kwargs)``."""
        clock = time.perf_counter
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(pick(args, kwargs))
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        for owner_path, attr, span in TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            setattr(owner, attr, self.wrap(fn, *self._hooks(span)))
            self.installed.update(
                ("model.minibatch", "model.epoch_loss") if span == "model.loss" else (span,)
            )

    def _hooks(self, span: str):
        nid = self.name_id(span)
        if span == "model.train":
            def pick_train(args, kwargs):
                examples = args[0] if args else kwargs["examples"]
                self.train_rows = len(examples)
                return nid
            return pick_train, None
        if span == "model.loss":
            # The per-epoch loss pass sees every training row; a mini-batch
            # sees at most batch_size of them (the workloads train on far more).
            minibatch, epoch = self.name_id("model.minibatch"), self.name_id("model.epoch_loss")
            def pick_loss(args, kwargs):
                X = args[2] if len(args) > 2 else kwargs["X"]
                return epoch if X.shape[0] == self.train_rows else minibatch
            return pick_loss, None
        if span == "walks.sample":
            return (lambda args, kwargs: nid), self._count_walk
        return (lambda args, kwargs: nid), None

    def _count_walk(self, sample) -> None:
        walks = self.walks
        k = len(sample.node_ids)
        walks["samples"] += 1
        walks["collected"] += k
        walks["raw_steps"] += len(sample.raw_steps)
        walks["len_hist"][k] = walks["len_hist"].get(k, 0) + 1

    def dump(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def main(spans_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import threadwalk.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.installed.add("cli.main")
    rc = tracer.wrap(cli.main, lambda args, kwargs: tracer.name_id("cli.main"))(argv)
    main_end = time.perf_counter()
    tracer.dump(spans_path)
    meta = {
        "import_s": import_s,
        "installed": sorted(tracer.installed),
        "walks": tracer.walks,
        "post_main_s": time.perf_counter() - main_end,
    }
    with open(spans_path + ".json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
