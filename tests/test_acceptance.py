"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them inline).
Expected values come from independent oracles: hand-derived formulas,
brute-force tallies, Monte-Carlo frequencies and finite differences.
"""

import time
from collections import Counter

import numpy as np
import pytest

from threadwalk.evaluation import evaluate, split_trees
from threadwalk.features import (
    AggregationStrategy,
    ConcatScheme,
    CorpusSide,
    aggregate_context,
    featurize_split,
)
from threadwalk.model import SoftmaxModel, loss_and_gradient, train
from threadwalk.cli import main
from threadwalk.corpus import save_corpus
from threadwalk.pipeline import (
    RunConfig,
    ablate_concat,
    best_cell,
    grid_csv,
    grid_search,
    read_manifest,
)
from threadwalk.synthetic import CorpusSpec, generate
from threadwalk.tree import CommentNode, build_tree
from threadwalk.walks import sample_walk, walk_weights
from threadwalk.seeding import derived_rng

from conftest import ancestors, bow_examples, bow_logreg_baseline, make_examples, random_tree


def _report(num, name, ok, detail=""):
    print(f"\ncriterion {num:>2} ({name}): {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def fan_tree():
    return build_tree(
        [
            CommentNode("a0", None, "thesis"),
            CommentNode("a1", "a0", "first reply"),
            CommentNode("a2", "a1", "reply one"),
            CommentNode("a3", "a1", "reply two"),
            CommentNode("a4", "a1", "reply three"),
        ],
        tree_id="fan",
    )


@pytest.fixture(scope="module")
def context_corpus():
    """Heavily imbalanced corpus with a strong planted context signal."""
    spec = CorpusSpec(
        num_trees=2000,
        mean_tree_size=10.0,
        size_dispersion=0.8,
        positive_fraction=0.106,
        context_signal=0.8,
        seed=42,
        task="hate",
    )
    return generate(spec).trees


def test_criterion_01_walk_distribution_oracle(fan_tree):
    config = RunConfig(p=0.75, gamma=1.0, walk_length=2)
    start = time.perf_counter()
    counts = Counter(
        sample_walk(fan_tree, "a1", config, derived_rng(314, i).random).node_ids[1]
        for i in range(10_000)
    )
    elapsed = time.perf_counter() - start
    freqs = {node: counts[node] / 10_000 for node in ("a0", "a2", "a3", "a4")}
    ok = (
        abs(freqs["a0"] - 0.75) <= 0.02
        and all(abs(freqs[kid] - 1 / 12) <= 0.02 for kid in ("a2", "a3", "a4"))
        and elapsed < 1.0
    )
    _report(1, "walk distribution oracle", ok, f"freqs={freqs} elapsed={elapsed:.2f}s")


def test_criterion_02_deterministic_walk_equivalence():
    rng = np.random.default_rng(2718)
    ok = True
    for i in range(1000):
        tree = random_tree(rng, int(rng.integers(1, 201)), tree_id=f"rt{i}")
        start = str(rng.choice(tree.node_ids()))
        L = int(rng.integers(1, 7))
        config = RunConfig(p=1.0, gamma=1.0, walk_length=L)
        expected = tuple(([start] + ancestors(tree, start))[:L])
        for seed in (0, 1, 2):
            sample = sample_walk(tree, start, config, derived_rng(seed, i).random)
            if sample.node_ids != expected:
                ok = False
                break
        if not ok:
            break
    _report(2, "deterministic walk equivalence", ok, "1000 trees x 3 seeds, exact match")


def test_criterion_03_discount_weight_exactness():
    ok = (
        walk_weights(4, 0.5) == [1.0, 0.5, 0.25, 0.125]
        and walk_weights(5, 1.0) == [1.0] * 5
        and walk_weights(3, 0.0) == [1.0, 0.0, 0.0]
    )
    _report(3, "discount weight exactness", ok)


def test_criterion_04_aggregation_identities():
    rng = np.random.default_rng(99)
    max_gap = 0.0
    hull_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 17))
        vectors = [rng.normal(scale=5.0, size=d) for _ in range(n)]
        uniform = [1.0] * n
        weighted = aggregate_context(vectors, uniform, AggregationStrategy.WEIGHTED_AVERAGE)
        average = aggregate_context(vectors, uniform, AggregationStrategy.AVERAGE)
        max_gap = max(max_gap, float(np.max(np.abs(weighted - average))))

        weights = rng.uniform(0.01, 3.0, size=n)
        out = aggregate_context(vectors, weights, AggregationStrategy.WEIGHTED_AVERAGE)
        stack = np.stack(vectors)
        if np.any(out < stack.min(axis=0) - 1e-9) or np.any(out > stack.max(axis=0) + 1e-9):
            hull_ok = False
    ok = max_gap <= 1e-12 and hull_ok
    _report(4, "aggregation identities", ok, f"max uniform-vs-average gap {max_gap:.2e}")


def test_criterion_05_metric_oracle():
    # known confusion counts fed through evaluate via a model whose argmax
    # on a one-hot feature returns exactly that class
    classes = ("hate", "non-hate")
    model = SoftmaxModel(np.eye(2), np.zeros(2), classes)
    counts = {
        ("non-hate", "non-hate"): 1093,
        ("non-hate", "hate"): 36,
        ("hate", "non-hate"): 62,
        ("hate", "hate"): 40,
    }
    rows, labels = [], []
    for (true, predicted), n in counts.items():
        one_hot = np.zeros(2)
        one_hot[classes.index(predicted)] = 1.0
        rows += [one_hot] * n
        labels += [true] * n
    X, side, _ = make_examples(rows, labels)
    report = evaluate(model, X, side.labels)
    ok = (
        abs(report.precision_pos - 0.53) <= 0.005
        and abs(report.recall_pos - 0.39) <= 0.005
        and abs(report.f1_pos - 0.45) <= 0.005
    )
    detail = (
        f"P={report.precision_pos:.4f} R={report.recall_pos:.4f} F1={report.f1_pos:.4f}"
    )
    _report(5, "metric oracle", ok, detail)


def test_criterion_06_gradient_check():
    rng = np.random.default_rng(7)
    worst = 0.0
    h = 1e-6
    for _ in range(50):
        X = rng.normal(size=(20, 10))
        y = rng.integers(0, 3, size=20)
        W = rng.normal(size=(3, 10))
        b = rng.normal(size=3)
        l2 = float(rng.uniform(0.0, 0.1))
        _, grad_w, grad_b = loss_and_gradient(W, b, X, y, l2)

        flat = np.concatenate([grad_w.ravel(), grad_b])
        fd = np.zeros_like(flat)
        for j in range(flat.size):
            theta_up = np.concatenate([W.ravel(), b])
            theta_dn = theta_up.copy()
            theta_up[j] += h
            theta_dn[j] -= h
            w_up, b_up = theta_up[:30].reshape(3, 10), theta_up[30:]
            w_dn, b_dn = theta_dn[:30].reshape(3, 10), theta_dn[30:]
            loss_up, _, _ = loss_and_gradient(w_up, b_up, X, y, l2)
            loss_dn, _, _ = loss_and_gradient(w_dn, b_dn, X, y, l2)
            fd[j] = (loss_up - loss_dn) / (2 * h)
        rel = np.linalg.norm(flat - fd) / max(np.linalg.norm(flat), np.linalg.norm(fd))
        worst = max(worst, float(rel))
    ok = worst < 1e-5
    _report(6, "gradient check", ok, f"worst relative error {worst:.2e}")


def test_criterion_07_context_helps(context_corpus):
    start = time.perf_counter()
    seeds = (0, 1, 2, 3, 4)
    config = RunConfig(
        task="hate",
        p=0.8,
        gamma=0.8,
        walk_length=4,
        aggregation=AggregationStrategy.WEIGHTED_AVERAGE.value,
        scheme=ConcatScheme.UV_ABSDIFF.value,
        class_weighting=True,
        seed=7,
    )
    train_trees, test_trees = split_trees(context_corpus, config.split_fraction, config.seed)

    def walk_arm(arm_config):
        provider = arm_config.build_provider()
        scores = []
        for seed in seeds:
            seeded = arm_config.replace(seed=seed)
            train_side = CorpusSide(train_trees, provider, "hate")
            test_side = CorpusSide(test_trees, provider, "hate")
            X_train = featurize_split(train_side, seeded)
            X_test = featurize_split(test_side, seeded)
            (model,) = train(train_side.labels, X_train[None], [seeded])
            scores.append(evaluate(model, X_test, test_side.labels).macro_f1)
        return float(np.mean(scores))

    full = walk_arm(config)
    context_free = walk_arm(config.replace(gamma=0.0))

    bow_scores = []
    for seed in seeds:
        bow_config = RunConfig(epochs=100, seed=seed, class_weighting=True)
        model = bow_logreg_baseline(train_trees, "hate", config.bow_dim, bow_config)
        X, side = bow_examples(test_trees, "hate", config.bow_dim)
        bow_scores.append(evaluate(model, X, side.labels).macro_f1)
    bow = float(np.mean(bow_scores))

    elapsed = time.perf_counter() - start
    n_trees = len(context_corpus)
    ok = (
        n_trees >= 2000
        and full - context_free >= 0.10
        and full - bow >= 0.10
        and elapsed < 300.0
    )
    detail = (
        f"full={full:.4f} gamma0={context_free:.4f} bow={bow:.4f} "
        f"trees={n_trees} elapsed={elapsed:.0f}s"
    )
    _report(7, "context-helps experiment", ok, detail)


@pytest.fixture(scope="module")
def grid_corpus():
    spec = CorpusSpec(
        num_trees=300,
        mean_tree_size=7.0,
        size_dispersion=0.7,
        positive_fraction=0.106,
        context_signal=0.8,
        seed=11,
        task="hate",
    )
    return generate(spec).trees


def test_criterion_08_grid_search_shape(grid_corpus):
    values = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    config = RunConfig(
        task="hate", class_weighting=True, seed=5, epochs=20, bow_dim=128
    )
    first = grid_search(grid_corpus, values, values, config, seeds=(0, 1), jobs=2)
    replay = grid_search(grid_corpus, values, values, config, seeds=(0, 1), jobs=1)
    best, best_replay = best_cell(first), best_cell(replay)
    ok = (
        len(first) == 36
        and grid_csv(first) == grid_csv(replay)
        and (best.p, best.gamma) == (best_replay.p, best_replay.gamma)
        and best.gamma != 0.0
    )
    detail = f"36 cells, best=(p={best.p}, gamma={best.gamma}, f1={best.macro_f1:.4f})"
    _report(8, "grid-search shape and replay", ok, detail)


def test_criterion_09_ablation_harness(grid_corpus):
    config = RunConfig(task="hate", p=0.8, gamma=0.8, class_weighting=True, seed=5)
    rows = ablate_concat(grid_corpus, config, seeds=(0, 1, 2, 3, 4))
    by_scheme = {row.scheme: row for row in rows}
    uv = by_scheme["uv"].macro_f1
    absdiff = by_scheme["uv_absdiff"].macro_f1
    ok = (
        [row.scheme for row in rows] == ["uv", "uv_mul", "uv_absdiff", "uv_absdiff_mul"]
        and uv <= absdiff + 0.01
    )
    _report(9, "ablation harness", ok, f"uv={uv:.4f} uv_absdiff={absdiff:.4f}")


def test_criterion_10_manifest_determinism(grid_corpus, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(grid_corpus, corpus)
    first, second = tmp_path / "first", tmp_path / "second"
    flags = ["--task", "hate", "--p", "0.8", "--gamma", "0.6", "--epochs", "15",
             "--bow-dim", "64", "--class-weighting", "--seed", "9"]
    assert main(["run", "--corpus", str(corpus), "--out", str(first), *flags]) == 0
    config = RunConfig(
        task="hate", p=0.8, gamma=0.6, epochs=15, bow_dim=64, class_weighting=True, seed=9
    )
    assert read_manifest(first / "manifest.json") == (config, {})
    replay = ["--config", str(first / "manifest.json")]
    assert main(["run", "--corpus", str(corpus), "--out", str(second), *replay]) == 0
    ok = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for name in ("metrics.json", "model.txt", "report.txt", "manifest.json")
    )
    _report(10, "manifest determinism", ok, "metrics and model files byte-identical")
