"""Generate a workload's input files from its seed.

Run with the package under test on ``PYTHONPATH``:

    python perfbench/inputs.py <workload> <seed> <directory>

It writes ``corpus.jsonl``, the embedding file if the workload reads one,
and ``stats.json`` last, so a directory with ``stats.json`` is complete.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from workloads import WORKLOADS, Workload

# Surplus trees generated beyond the expected count, so that the budget can
# be filled exactly with the small trees that follow a tree that does not fit.
_SURPLUS_TREES = 64


def make_inputs(workload: Workload, seed: int, dest: Path) -> dict:
    """Write the corpus (and embedding file) for ``seed`` into ``dest``.

    Trees are taken in generation order while they fit the node budget, so
    every seed gives a corpus of the same size.
    """
    from threadwalk.corpus import save_corpus
    from threadwalk.synthetic import CorpusSpec, generate

    budget = workload.nodes
    num_trees = int(1.3 * budget / workload.corpus["mean_tree_size"]) + _SURPLUS_TREES
    spec = CorpusSpec(num_trees=num_trees, seed=seed, task=workload.task, **workload.corpus)
    picked, total = [], 0
    for tree in generate(spec).trees:
        if total + len(tree) <= budget:
            picked.append(tree)
            total += len(tree)
            if total == budget:
                break

    dest.mkdir(parents=True, exist_ok=True)
    save_corpus(picked, dest / "corpus.jsonl")
    if workload.embedding_dim is not None:
        write_bow_embeddings(picked, workload.embedding_dim, dest / "embeddings.txt")
    stats = input_stats(picked, workload)
    (dest / "stats.json").write_text(json.dumps(stats, sort_keys=True) + "\n", encoding="utf-8")
    return stats


def write_bow_embeddings(trees, dim: int, path: Path) -> None:
    """Write each node's normalized hashed bag-of-words vector, keyed by id.

    These are exactly the vectors the built-in embedder computes, so a run
    that reads this file must reproduce the hashed-bow run bit for bit.
    """
    from threadwalk.embeddings import hashed_bow_embed, save_external_embeddings

    vectors = {
        node.id: hashed_bow_embed(node.text, dim, normalize=True) for tree in trees for node in tree
    }
    save_external_embeddings(vectors, path)


def input_stats(trees, workload: Workload) -> dict:
    from threadwalk.tree import tree_stats

    sizes = [len(tree) for tree in trees]
    nodes = sum(sizes)
    pois = nodes - len(trees) if workload.task == "polarity" else nodes
    return {
        "trees": len(trees),
        "nodes": nodes,
        "pois_per_replicate": pois,
        "replicates": workload.replicates,
        "median_tree_size": statistics.median(sizes),
        "max_depth": max(tree_stats(tree).depth for tree in trees),
        "max_fanout": max(len(tree.children(n)) for tree in trees for n in tree.node_ids()),
    }


if __name__ == "__main__":
    name, seed, dest = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    make_inputs(WORKLOADS[name], seed, dest)
