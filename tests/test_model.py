"""Softmax classifier: gradients, determinism, persistence, baseline."""

import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from threadwalk.errors import (
    ConfigError,
    DimensionMismatchError,
    MalformedFileError,
    NonFiniteLossError,
    NonFiniteScoreError,
    SingleClassDataError,
)
from threadwalk.model import (
    TRAIN_FIELDS,
    SoftmaxModel,
    _log_softmax,
    load_model,
    loss_and_gradient,
    predict_labels,
    predict_proba,
    save_model,
    train,
)
from threadwalk.pipeline import RunConfig
from threadwalk.tree import CommentNode, build_tree

from conftest import (
    bow_examples,
    bow_logreg_baseline,
    log_softmax_oracle,
    train_oracle,
)

TESTS_DIR = Path(__file__).resolve().parent

# Training settings without class weighting, which a run config turns on.
UNWEIGHTED = RunConfig(class_weighting=False)


def _cluster_examples(rng, n, centers, margin=1.0):
    rows, labels = [], []
    for i in range(n):
        cls = i % len(centers)
        rows.append(np.asarray(centers[cls]) * margin + rng.normal(0, 0.1, size=len(centers[0])))
        labels.append(f"c{cls}")
    return np.asarray(rows), labels


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            X = rng.normal(size=(20, 10))
            y = rng.integers(0, 3, size=20)
            W = rng.normal(size=(3, 10))
            b = rng.normal(size=3)
            sw = rng.uniform(0.5, 2.0, size=20)
            _, grad_w, grad_b = loss_and_gradient(W, b, X, y, l2=0.01, sample_weights=sw)

            fd_w = np.zeros_like(W)
            h = 1e-6
            for i in range(W.shape[0]):
                for j in range(W.shape[1]):
                    up, down = W.copy(), W.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    lu, _, _ = loss_and_gradient(up, b, X, y, 0.01, sw)
                    ld, _, _ = loss_and_gradient(down, b, X, y, 0.01, sw)
                    fd_w[i, j] = (lu - ld) / (2 * h)
            fd_b = np.zeros_like(b)
            for i in range(b.shape[0]):
                up, down = b.copy(), b.copy()
                up[i] += h
                down[i] -= h
                lu, _, _ = loss_and_gradient(W, up, X, y, 0.01, sw)
                ld, _, _ = loss_and_gradient(W, down, X, y, 0.01, sw)
                fd_b[i] = (lu - ld) / (2 * h)

            rel_w = np.linalg.norm(grad_w - fd_w) / max(np.linalg.norm(fd_w), 1e-12)
            rel_b = np.linalg.norm(grad_b - fd_b) / max(np.linalg.norm(fd_b), 1e-12)
            assert rel_w < 1e-5
            assert rel_b < 1e-5



class TestStackedLossAndGradient:
    @pytest.mark.parametrize("n_models", [1, 2, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_slices_match_2d_calls(self, n_models, weighted):
        rng = np.random.default_rng(n_models)
        W = rng.normal(size=(n_models, 3, 6))
        b = rng.normal(size=(n_models, 3))
        X = rng.normal(size=(n_models, 25, 6))
        y = rng.integers(0, 3, size=25)
        sw = rng.uniform(0.5, 2.0, size=25) if weighted else None
        loss, grad_w, grad_b = loss_and_gradient(W, b, X, y, 0.01, sw)
        assert loss.shape == (n_models,)
        for k in range(n_models):
            alone = loss_and_gradient(W[k], b[k], X[k], y, 0.01, sw)
            assert isinstance(alone[0], float)
            assert loss[k].tobytes() == np.float64(alone[0]).tobytes()
            assert grad_w[k].tobytes() == alone[1].tobytes()
            assert grad_b[k].tobytes() == alone[2].tobytes()

    @pytest.mark.parametrize("weighted", [False, True])
    def test_width_stacks_match_2d_calls(self, weighted):
        """Stacks of widths 6 (both matrices), 4 and 2 (the second matrix)
        in one flat buffer: each model's gradient is the bytes of a 2-D call
        on a contiguous copy of its columns."""
        rng = np.random.default_rng(4)
        X, y = rng.normal(size=(2, 25, 6)), rng.integers(0, 3, size=25)
        sw = rng.uniform(0.5, 2.0, size=25) if weighted else None
        weights, bias = rng.normal(size=3 * (2 * 6 + 4 + 2)), rng.normal(size=(4, 3))
        shapes, reads = [(2, 3, 6), (1, 3, 4), (1, 3, 2)], [slice(0, 2), slice(1, 2), [1]]
        ends = itertools.accumulate(int(np.prod(shape)) for shape in shapes)
        stacks = [
            (weights[end - int(np.prod(shape)) : end].reshape(shape), rows)
            for shape, rows, end in zip(shapes, reads, ends)
        ]
        loss, grad_w, grad_b = loss_and_gradient(
            weights, bias, X, y, 0.01, sw, compute="gradient", stacks=stacks
        )
        assert loss is None
        models = [*enumerate(stacks[0][0]), (1, stacks[1][0][0]), (1, stacks[2][0][0])]
        grads = np.split(grad_w, np.cumsum([W.size for _, W in models])[:-1])
        for k, ((base, W), grad) in enumerate(zip(models, grads)):
            columns = np.ascontiguousarray(X[base, :, : W.shape[1]])
            alone = loss_and_gradient(W.copy(), bias[k], columns, y, 0.01, sw)
            assert grad.tobytes() == alone[1].tobytes()
            assert grad_b[k].tobytes() == alone[2].tobytes()

    @pytest.mark.parametrize("compute", ["both", "loss"])
    def test_width_stacks_refuse_a_loss(self, compute):
        W = np.zeros((1, 2, 3))
        with pytest.raises(ValueError, match="gradient only"):
            loss_and_gradient(
                W.ravel(), np.zeros((1, 2)), np.ones((1, 4, 3)), np.array([0, 1, 0, 1]), 0.1,
                compute=compute, stacks=[(W, slice(0, 1))],
            )

    @pytest.mark.parametrize("shape", [(), (2,)])
    def test_selected_parts_match_default_call(self, shape):
        rng = np.random.default_rng(9)
        W, b = rng.normal(size=(*shape, 2, 4)), rng.normal(size=(*shape, 2))
        X, y = rng.normal(size=(*shape, 17, 4)), rng.integers(0, 2, size=17)
        sw = rng.uniform(0.5, 2.0, size=17)
        loss, grad_w, grad_b = loss_and_gradient(W, b, X, y, 0.1, sw)
        loss_only = loss_and_gradient(W, b, X, y, 0.1, sw, compute="loss")
        gradient_only = loss_and_gradient(W, b, X, y, 0.1, sw, compute="gradient")
        assert np.asarray(loss_only[0]).tobytes() == np.asarray(loss).tobytes()
        assert loss_only[1:] == (None, None)
        assert gradient_only[0] is None
        assert gradient_only[1].tobytes() == grad_w.tobytes()
        assert gradient_only[2].tobytes() == grad_b.tobytes()


# Run in a child process: the digest of what training and scoring compute
# with BLAS products, at the sizes they compute it (a loss pass over every
# row, 32-row gradient steps, probabilities for a whole side).
BLAS_DIGEST = """
import hashlib
import numpy as np
from threadwalk.model import SoftmaxModel, loss_and_gradient, predict_proba

rng = np.random.default_rng(7)
digest = hashlib.sha256()
for n, D in [(6580, 768), (2000, 1536), (4385, 64)]:
    W, b = rng.normal(size=(2, D)) * 0.1, rng.normal(size=2)
    X, y, sw = rng.normal(size=(n, D)), rng.integers(0, 2, n), rng.uniform(0.5, 2.0, n)
    digest.update(np.float64(loss_and_gradient(W, b, X, y, 0.01, sw, compute="loss")[0]))
    digest.update(predict_proba(SoftmaxModel(W, b, ("a", "b")), X))
for K, n, D in [(1, 32, 768), (3, 32, 768), (3, 17, 1536)]:
    W, b = rng.normal(size=(K, 2, D)) * 0.1, rng.normal(size=(K, 2))
    X, y, sw = rng.normal(size=(K, n, D)), rng.integers(0, 2, n), rng.uniform(0.5, 2.0, n)
    for part in loss_and_gradient(W, b, X, y, 0.01, sw, compute="gradient")[1:]:
        digest.update(part)
print(digest.hexdigest())
"""


@pytest.mark.parametrize("core", [None, "Haswell", "Sandybridge"])
def test_bytes_do_not_depend_on_the_blas_thread_count(core):
    """One BLAS thread against the default number, under three OpenBLAS
    cores, each set for the child process only. ``W @ X.T`` would fail this
    under Haswell on two threads from about 700 rows of 768 columns; ``X @ W.T``
    gives the same bytes on either."""
    env = _child_env(core)
    digests = [
        subprocess.run(
            [sys.executable, "-c", BLAS_DIGEST],
            env={**env, **threads},
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        ).stdout
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"})
    ]
    assert digests[0] == digests[1]


# Run in a child process: a model that reads the first columns of a
# lockstep group's matrix takes its products on a strided view, written into
# a slice of the group's buffer, where alone it takes them on a contiguous
# copy; prints the products compared after asserting each pair equal. Widths
# 2d, 3d and 4d of d = 256 columns, 2-D at a 32-row batch and at full sides,
# stacked at a batch and at a small side.
PREFIX_VIEW_CHECK = """
import numpy as np

rng = np.random.default_rng(5)
d, compared = 256, 0
for n, stacked in [(32, True), (952, True), (6580, False)]:
    shape = (2, n, 4 * d) if stacked else (n, 4 * d)
    X = rng.normal(size=shape)
    delta = rng.normal(size=(*shape[:-1], 2))
    for width in (2 * d, 3 * d, 4 * d):
        W = rng.normal(size=(*shape[:-2], 2, width)) * 0.1
        view, copy = X[..., :width], np.ascontiguousarray(X[..., :width])
        logits = np.matmul(view, W.swapaxes(-1, -2), out=np.empty((*shape[:-1], 2)))
        grad = np.matmul(delta.swapaxes(-1, -2), view, out=np.empty(W.shape))
        assert logits.tobytes() == (copy @ W.swapaxes(-1, -2)).tobytes(), (n, width, "logits")
        assert grad.tobytes() == (delta.swapaxes(-1, -2) @ copy).tobytes(), (n, width, "gradient")
        assert (view @ W.swapaxes(-1, -2)).tobytes() == logits.tobytes(), (n, width, "scores")
        compared += 3
print(compared)
"""


@pytest.mark.parametrize("core", [None, "Haswell", "Sandybridge"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_prefix_views_give_the_bytes_of_contiguous_copies(core, threads):
    """The BLAS products of a prefix model equal those of a contiguous copy
    of its columns under three OpenBLAS cores, on one and on two threads."""
    result = subprocess.run(
        [sys.executable, "-c", PREFIX_VIEW_CHECK],
        env={**_child_env(core), "OPENBLAS_NUM_THREADS": threads},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "27\n"


def _child_env(core: str | None) -> dict:
    """This process's environment without its BLAS core and thread settings,
    with ``core`` as OPENBLAS_CORETYPE unless it is None, and with the
    package and these tests importable."""
    env = {
        name: v for name, v in os.environ.items()
        if name not in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS_DIR.parent / "src"), str(TESTS_DIR)])
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    return env


# Values that a reduction and a two-value closed form might treat apart.
_EDGE_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1e308, -1.7e308]


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.one_of(
            st.tuples(st.integers(0, 6), st.just(2)),
            st.tuples(st.integers(1, 3), st.integers(0, 6), st.just(2)),
        ),
        elements=st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64)),
    )
)
def test_two_class_log_softmax_matches_the_reductions(logits):
    """The two-class closed form gives the reductions' bytes: finite entries
    bit for bit, NaN and each infinity at the same positions."""
    with np.errstate(all="ignore"):
        got, want = _log_softmax(logits), log_softmax_oracle(logits)
    finite = np.isfinite(want)
    for kind in (np.isfinite, np.isnan, np.isposinf, np.isneginf):
        assert np.array_equal(kind(got), kind(want))
    assert np.array_equal(got[finite].view(np.uint64), want[finite].view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda n_classes: hnp.arrays(
            np.float64,
            st.one_of(
                st.tuples(st.integers(0, 6), st.just(n_classes)),
                st.tuples(st.integers(1, 3), st.integers(0, 6), st.just(n_classes)),
            ),
            elements=st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64)),
        )
    ),
    st.data(),
)
def test_one_hot_subtraction_matches_the_fancy_index(probs, data):
    """Subtracting the one-hot rows as a boolean array gives the bytes of
    subtracting 1.0 at ``[..., arange(n), y]``, NaN payloads included."""
    n, n_classes = probs.shape[-2:]
    y = np.array(data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)), dtype=np.intp)
    want, got = probs.copy(), probs.copy()
    want[..., np.arange(n), y] -= 1.0
    got -= y[:, None] == np.arange(n_classes)
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


_STEP_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1.7e308, np.inf, -np.inf, np.nan]


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 5)),
        elements=st.one_of(st.sampled_from(_STEP_FLOATS), st.floats(width=64)),
    ),
    st.one_of(st.sampled_from([5e-324, 1e-300, 0.1, 1e300]), st.floats(0.0, 1e308, exclude_min=True)),
)
def test_velocity_free_step_matches_the_velocity_form(grads, learning_rate):
    """``param -= lr * grad`` against ``vel = 0 * vel - lr * grad; param +=
    vel`` from parameters at +0.0, one gradient row per step: every entry
    whose velocity is finite gets the same bytes, and a parameter is
    non-finite in both forms or in neither."""
    param, stepped, vel = np.zeros(grads.shape[1]), np.zeros(grads.shape[1]), np.zeros(grads.shape[1])
    with np.errstate(all="ignore"):
        for grad in grads:
            finite_vel = np.isfinite(vel)
            vel *= 0.0
            vel -= learning_rate * grad
            param += vel
            stepped -= learning_rate * grad
            assert param[finite_vel].tobytes() == stepped[finite_vel].tobytes()
            assert np.array_equal(np.isfinite(param), np.isfinite(stepped))


# (learning rate, l2, the feature scale of each model of a stack of up to
# three; a stack of K takes the last K). The penalty overflows first (loss
# inf) tens of epochs in; the logits of the large-scale models overflow in
# the first epoch, with steps left to take on non-finite parameters (nan).
DIVERGING = {
    "penalty": (1e3, 0.01, (1.0, 1e40, 1e20), 5, 40),
    "logits": (1e150, 0.0, (1.0, 1e200, 1e190), 1, 2),
}


@pytest.mark.parametrize("n_models", [1, 3])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("case", DIVERGING)
def test_divergence_matches_the_oracle(case, momentum, n_models):
    """A diverging run stops at the oracle's first non-finite epoch loss,
    with the oracle's value in the message, whether it steps through a
    velocity (momentum 0.9) or without one (momentum 0)."""
    learning_rate, l2, scales, batch, epochs = DIVERGING[case]
    rng = np.random.default_rng([n_models, 7])
    X = rng.normal(size=(n_models, 23, 5)) * np.array(scales[-n_models:])[:, None, None]
    labels = [f"c{min(i % 5, 1)}" for i in range(23)]
    config = UNWEIGHTED.replace(
        epochs=epochs, batch_size=batch, momentum=momentum, l2=l2, learning_rate=learning_rate, seed=3
    )
    _, _, histories = train_oracle(labels, X, config)
    losses = np.array(histories)
    epoch = np.flatnonzero(~np.isfinite(losses).all(axis=0))[0]
    first = losses[np.flatnonzero(~np.isfinite(losses[:, epoch]))[0], epoch]
    train(labels, X, [config.replace(epochs=epoch)] * n_models)
    with pytest.raises(NonFiniteLossError) as raised:
        train(labels, X, [config.replace(epochs=epoch + 1)] * n_models)
    assert str(raised.value) == f"loss became {first} after an epoch"


# (K, classes, momentum, class_weighting, batch_size, n, D, epochs); a batch
# of 64 exceeds the 23 rows, and the last cases take BLAS-sized products.
TRAIN_CASES = [
    (*head, batch, 23, 5, 3)
    for *head, batch in itertools.product((1, 2, 3), (2, 3), (0.0, 0.9), (False, True), (1, 5, 64))
] + [(1, 2, 0.9, True, 32, 300, 768, 2), (3, 2, 0.0, True, 32, 300, 768, 2)]


def assert_train_matches_oracle(n_models, n_classes, momentum, class_weighting, batch, n, dim, epochs):
    rng = np.random.default_rng([n_models, n_classes, batch, dim])
    labels = [f"c{min(i % 5, n_classes - 1)}" for i in range(n)]  # unbalanced classes
    X = rng.normal(size=(n_models, n, dim))
    config = RunConfig(
        epochs=epochs,
        batch_size=batch,
        momentum=momentum,
        class_weighting=class_weighting,
        l2=0.01,
        seed=n_models + batch,
    )
    weights, bias, histories = train_oracle(labels, X, config)
    for k, model in enumerate(train(labels, X, [config] * n_models)):
        assert model.weights.tobytes() == weights[k].tobytes()
        assert model.bias.tobytes() == bias[k].tobytes()
        history = model.metadata["loss_history"]
        assert np.array(history).tobytes() == np.array(histories[k]).tobytes()


@pytest.mark.parametrize("case", TRAIN_CASES)
def test_train_matches_the_out_of_place_oracle(case):
    assert_train_matches_oracle(*case)


TRAIN_ORACLE_CHECK = """
from test_model import TRAIN_CASES, assert_train_matches_oracle
for case in TRAIN_CASES:
    assert_train_matches_oracle(*case)
print(len(TRAIN_CASES))
"""


@pytest.mark.parametrize("core", [None, "Haswell", "Sandybridge"])
def test_train_matches_the_oracle_under_each_blas_core(core):
    """The comparison above in a child process under each OpenBLAS core,
    since each core takes its own route through the products."""
    result = subprocess.run(
        [sys.executable, "-c", TRAIN_ORACLE_CHECK],
        env=_child_env(core),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{len(TRAIN_CASES)}\n"


class TestLockstepTrain:
    @staticmethod
    def _problem(n_models, n=23, dim=5):
        rng = np.random.default_rng(n_models)
        labels = [("a", "b", "b", "c", "c", "c")[i % 6] for i in range(n)]
        return labels, rng.normal(size=(n_models, n, dim))

    @pytest.mark.parametrize("n_models", [1, 2, 3, 4])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("class_weighting", [False, True])
    @pytest.mark.parametrize("batch_size, epochs", [(1, 2), (64, 4), (5, 3), (5, 0)])
    def test_matches_one_at_a_time(self, n_models, momentum, class_weighting, batch_size, epochs):
        labels, X = self._problem(n_models)
        config = RunConfig(
            epochs=epochs,
            batch_size=batch_size,
            seed=11,
            momentum=momentum,
            class_weighting=class_weighting,
        )
        models = train(labels, X, [config] * n_models)
        assert len(models) == n_models
        for k, model in enumerate(models):
            (alone,) = train(labels, X[k][None], [config])
            assert model.weights.tobytes() == alone.weights.tobytes()
            assert model.bias.tobytes() == alone.bias.tobytes()
            assert model.class_names == alone.class_names == ("a", "b", "c")
            assert model.metadata == alone.metadata
            assert len(model.metadata["loss_history"]) == epochs

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_one_diverging_model_fails_the_group(self, order):
        labels = ["a", "b"]
        X = np.array([[[0.0, 0.0], [0.0, 0.0]], [[1e200, 0.0], [0.0, 1e200]]])
        config = UNWEIGHTED.replace(epochs=3, learning_rate=1e150, l2=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            train(labels, X[0][None], [config])  # alone, the first model trains
            with pytest.raises(NonFiniteLossError):
                train(labels, X[list(order)], [config] * 2)

    # (matrices, the (matrix, width) each model reads) of 8-column matrices:
    # one matrix and the ablation's widths 2d, 3d and 4d; prefixes before
    # their matrix; two matrices with a stacked prefix width; a prefix width
    # read from matrices out of order; and a matrix no model reads whole.
    PREFIX_CASES = [
        (1, [(0, 4), (0, 8), (0, 6)]),
        (1, [(0, 2), (0, 6), (0, 8)]),
        (2, [(0, 8), (1, 8), (0, 4), (1, 4)]),
        (3, [(0, 6), (1, 6), (2, 6), (2, 3), (0, 3)]),
        (2, [(1, 8), (0, 5), (1, 2)]),
    ]

    @pytest.mark.parametrize("case", range(len(PREFIX_CASES)))
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("class_weighting", [False, True])
    @pytest.mark.parametrize("batch_size, epochs", [(1, 2), (64, 4), (5, 3), (5, 0)])
    def test_prefix_models_match_one_at_a_time(
        self, case, momentum, class_weighting, batch_size, epochs
    ):
        """A model that reads the first columns of a matrix ends with the
        bytes it gets alone on a contiguous copy of those columns."""
        n_matrices, columns = self.PREFIX_CASES[case]
        labels, X = self._problem(n_matrices, dim=8)
        config = RunConfig(
            epochs=epochs,
            batch_size=batch_size,
            seed=11,
            momentum=momentum,
            class_weighting=class_weighting,
        )
        models = train(labels, X, [config] * len(columns), columns)
        assert len(models) == len(columns)
        for (base, width), model in zip(columns, models):
            (alone,) = train(labels, np.ascontiguousarray(X[base, :, :width])[None], [config])
            assert model.weights.tobytes() == alone.weights.tobytes()
            assert model.bias.tobytes() == alone.bias.tobytes()
            assert model.metadata == alone.metadata
            assert len(model.metadata["loss_history"]) == epochs
            assert np.array(model.metadata["loss_history"]).tobytes() == np.array(
                alone.metadata["loss_history"]
            ).tobytes()

    @pytest.mark.parametrize("columns", [[(0, 4), (0, 2)], [(0, 2), (0, 4)]])
    def test_one_diverging_model_fails_a_prefix_group(self, columns):
        """The first two columns are zeros, so the model that reads only them
        trains; the one that reads all four diverges, alone as in the group."""
        labels = ["a", "b"]
        X = np.array([[[0.0, 0.0, 1e200, 0.0], [0.0, 0.0, 0.0, 1e200]]])
        config = UNWEIGHTED.replace(epochs=3, learning_rate=1e150, l2=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            train(labels, X[:, :, :2].copy(), [config])  # alone, the prefix model trains
            with pytest.raises(NonFiniteLossError) as alone:
                train(labels, X, [config])
            with pytest.raises(NonFiniteLossError) as together:
                train(labels, X, [config] * 2, columns)
        assert str(together.value) == str(alone.value)

    @pytest.mark.parametrize("field, value", [
        ("epochs", 7), ("batch_size", 5), ("learning_rate", 0.5), ("l2", 0.0), ("seed", 5),
        ("class_weighting", False), ("momentum", 0.9),
    ])
    def test_models_must_share_the_training_settings(self, field, value):
        labels, X = self._problem(2)
        base = RunConfig(epochs=3, learning_rate=0.1, seed=4)
        assert field in TRAIN_FIELDS and getattr(base, field) != value
        with pytest.raises(ConfigError, match=f"must share {field}, got "):
            train(labels, X, [base, base.replace(**{field: value})])

    def test_the_first_differing_training_setting_is_named(self):
        labels, X = self._problem(2)
        base = RunConfig(epochs=3, learning_rate=0.1)
        with pytest.raises(ConfigError, match="must share epochs, got 3 and 7"):
            train(labels, X, [base, base.replace(learning_rate=0.5, epochs=7)])

    def test_each_model_records_its_own_config(self):
        labels, X = self._problem(3)
        base = RunConfig(epochs=1, seed=4, embedding_file="vectors.txt")
        configs = [base, base.replace(gamma=0.3, scheme="uv"), base.replace(p=0.1, walk_length=7)]
        for config, model in zip(configs, train(labels, X, configs)):
            recorded = {k: v for k, v in config.to_dict().items() if k != "embedding_file"}
            assert recorded.items() <= model.metadata.items()
            assert "embedding_file" not in model.metadata

    # The last shape stacks two models for the one config.
    @pytest.mark.parametrize("shape", [(4, 2), (1, 1, 4, 2), (1, 3, 2), (2, 5, 2), (2, 4, 2)])
    def test_features_must_be_a_stack_of_n_rows(self, shape):
        with pytest.raises(DimensionMismatchError):
            train(["a", "b", "a", "b"], np.ones(shape), [UNWEIGHTED.replace(epochs=1)])


class TestTrain:
    def test_separable_data_high_accuracy(self):
        rng = np.random.default_rng(1)
        X, labels = _cluster_examples(rng, 200, [(1, 1), (-1, -1)])
        (model,) = train(labels, X[None], [UNWEIGHTED.replace(epochs=50, seed=0)])
        predictions = predict_labels(model, X)
        accuracy = np.mean([p == label for p, label in zip(predictions, labels)])
        assert accuracy >= 0.99

    def test_no_signal_predicts_priors(self):
        X, labels = np.array([[1.0, 1.0]] * 100), ["c0", "c1"] * 50
        (model,) = train(labels, X[None], [UNWEIGHTED.replace(epochs=30, seed=0)])
        probs = predict_proba(model, np.array([[1.0, 1.0]]))[0]
        assert probs == pytest.approx([0.5, 0.5], abs=0.02)

    def test_bit_identical_trajectories(self):
        rng = np.random.default_rng(2)
        X, labels = _cluster_examples(rng, 120, [(1, 0, 1), (0, 1, -1)])
        (a,) = train(labels, X[None], [UNWEIGHTED.replace(epochs=20, seed=42)])
        (b,) = train(labels, X[None], [UNWEIGHTED.replace(epochs=20, seed=42)])
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.metadata["loss_history"] == b.metadata["loss_history"]

    def test_zero_epochs_returns_zero_init(self):
        X, labels = np.array([[1.0, 2.0], [3.0, 4.0]]), ["c0", "c1"]
        (model,) = train(labels, X[None], [UNWEIGHTED.replace(epochs=0)])
        assert not model.weights.any() and not model.bias.any()
        probs = predict_proba(model, np.array([[5.0, -7.0]]))[0]
        assert probs == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_loss_non_increasing_within_tolerance(self):
        rng = np.random.default_rng(3)
        X, labels = _cluster_examples(rng, 150, [(1, 1), (-1, 1), (0, -1)])
        (model,) = train(labels, X[None], [UNWEIGHTED.replace(epochs=30, seed=1)])
        history = model.metadata["loss_history"]
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-3

    def test_class_weighting_lifts_minority_recall(self):
        rng = np.random.default_rng(4)
        # 9:1 imbalance, separable but with a narrow margin and few epochs
        rows = [rng.normal(0, 0.3, 2) + (0.25, 0.0) for _ in range(180)]
        rows += [rng.normal(0, 0.3, 2) + (-0.9, 0.0) for _ in range(20)]
        X, labels = np.array(rows), ["major"] * 180 + ["minor"] * 20

        def minority_recall(model):
            predictions = predict_labels(model, X)
            hits = sum(
                1
                for p, label in zip(predictions, labels)
                if label == "minor" and p == "minor"
            )
            return hits / 20

        plain_config = UNWEIGHTED.replace(epochs=5, seed=0)
        (plain,) = train(labels, X[None], [plain_config])
        weighted_config = RunConfig(epochs=5, seed=0, class_weighting=True)
        (weighted,) = train(labels, X[None], [weighted_config])
        assert minority_recall(weighted) > minority_recall(plain)

    def test_momentum_path_runs(self):
        rng = np.random.default_rng(5)
        X, labels = _cluster_examples(rng, 60, [(1, 1), (-1, -1)])
        config = UNWEIGHTED.replace(epochs=10, seed=0, momentum=0.9)
        (model,) = train(labels, X[None], [config])
        assert np.all(np.isfinite(model.weights))

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassDataError):
            train(["only"], np.ones((1, 1, 1)), [UNWEIGHTED])
        with pytest.raises(SingleClassDataError):
            train([], np.empty((1, 0, 1)), [UNWEIGHTED])

    def test_non_finite_loss_detected(self):
        X, labels = np.array([[1e200, 0.0], [0.0, 1e200]]), ["a", "b"]
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLossError):
            config = UNWEIGHTED.replace(epochs=3, learning_rate=1e150, l2=0.0)
            train(labels, X[None], [config])


class TestPredictProba:
    def test_zero_model_is_uniform(self):
        model = SoftmaxModel(np.zeros((2, 3)), np.zeros(2), ("a", "b"))
        assert predict_proba(model, np.ones((1, 3)))[0] == pytest.approx([0.5, 0.5])

    def test_bias_dominates(self):
        model = SoftmaxModel(np.zeros((2, 1)), np.array([10.0, -10.0]), ("a", "b"))
        probs = predict_proba(model, np.zeros((1, 1)))[0]
        assert probs[0] == pytest.approx(1.0, abs=1e-8)
        assert probs[1] == pytest.approx(0.0, abs=1e-8)

    def test_shift_invariance_of_argmax(self):
        rng = np.random.default_rng(6)
        weights = rng.normal(size=(3, 4))
        base = SoftmaxModel(weights, np.zeros(3), ("a", "b", "c"))
        shifted = SoftmaxModel(weights, np.full(3, 123.4), ("a", "b", "c"))
        x = rng.normal(size=(1, 4))
        assert predict_proba(base, x).argmax() == predict_proba(shifted, x).argmax()

    def test_extreme_logits_stay_finite(self):
        model = SoftmaxModel(np.array([[1.0], [-1.0]]), np.zeros(2), ("a", "b"))
        for x in (np.array([[1e4]]), np.array([[-1e4]])):
            probs = predict_proba(model, x)[0]
            assert np.all(np.isfinite(probs))
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_non_finite_scores_raise(self):
        """Scores that overflow raise, without a numpy warning, instead of
        predicting the first class for every row; finite scores as far
        apart as two doubles can be still give probabilities."""
        model = SoftmaxModel(np.array([[1e308, 0.0], [-1e308, 0.0]]), np.zeros(2), ("a", "b"))
        features = np.array([[1.0, 0.0], [10.0, 0.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteScoreError) as excinfo:
                predict_labels(model, features)
            assert predict_proba(model, features[[0, 2]]).tolist() == [[1.0, 0.0], [0.5, 0.5]]
        assert str(excinfo.value) == "class scores of 1 of 3 rows are not finite"

    def test_dimension_check(self):
        model = SoftmaxModel(np.zeros((2, 3)), np.zeros(2), ("a", "b"))
        for features in (np.zeros((1, 4)), np.zeros(3)):  # wrong width; not a batch
            with pytest.raises(DimensionMismatchError):
                predict_proba(model, features)

    def test_tie_breaks_to_lowest_class_index(self):
        model = SoftmaxModel(np.zeros((3, 2)), np.zeros(3), ("a", "b", "c"))
        assert predict_labels(model, np.zeros((1, 2))) == ["a"]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            min_size=3,
            max_size=3,
        )
    )
    def test_rows_are_distributions(self, logits):
        model = SoftmaxModel(np.eye(3), np.zeros(3), ("a", "b", "c"))
        probs = predict_proba(model, np.array([logits]))[0]
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs >= 0) and np.all(probs <= 1)


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        X, labels = _cluster_examples(rng, 80, [(1, 1, 0), (-1, 0, 1)])
        (model,) = train(labels, X[None], [UNWEIGHTED.replace(epochs=15, seed=3)])
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.bias, model.bias)
        assert loaded.class_names == model.class_names
        assert loaded.metadata == model.metadata
        # saving again is byte-identical
        other = tmp_path / "model2.txt"
        save_model(loaded, other)
        assert other.read_bytes() == path.read_bytes()

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path, marked, again = (tmp_path / name for name in ("model.txt", "marked.txt", "again.txt"))
        save_model(SoftmaxModel(np.eye(3), np.arange(3.0), ("a", "b", "c")), path)
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        save_model(load_model(marked), again)
        assert again.read_bytes() == path.read_bytes()

    def test_three_classes_load(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(SoftmaxModel(np.eye(3), np.arange(3.0), ("a", "b", "c")), path)
        loaded = load_model(path)
        assert loaded.class_names == ("a", "b", "c")
        assert np.array_equal(loaded.weights, np.eye(3))

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("something else\n")
        with pytest.raises(MalformedFileError):
            load_model(path)
        path.write_text("threadwalk-softmax-v1\nclasses\ta\tb\ndims 2 3\n")
        with pytest.raises(MalformedFileError):
            load_model(path)

    @pytest.mark.parametrize(
        "dims, params",
        [
            ("2 2", "nan 0.0\n0.0 0.0\n0.0 0.0"),
            ("2 2", "0.0 0.0\n0.0 0.0\n0.0 inf"),
            ("2 2", "0.0 0.0\n0.0\n0.0 0.0"),
            ("0 2", ""),
        ],
    )
    def test_corrupt_parameters(self, tmp_path, dims, params):
        path = tmp_path / "model.txt"
        path.write_text(f"threadwalk-softmax-v1\nclasses\ta\tb\ndims {dims}\nmeta {{}}\n{params}\n")
        with pytest.raises(MalformedFileError):
            load_model(path)

    def test_class_names_of_another_count(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            "threadwalk-softmax-v1\nclasses\ta\tb\tc\ndims 2 1\nmeta {}\n0.0\n0.0\n0.0 0.0\n"
        )
        with pytest.raises(MalformedFileError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"{path}: 3 class names for 2 classes"

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_bytes(b"threadwalk-softmax-v1\n\xff\n")
        with pytest.raises(MalformedFileError, match="not UTF-8"):
            load_model(path)


class TestBowBaseline:
    def _trees(self):
        polarity = build_tree(
            [
                CommentNode("r", None, "root text here"),
                CommentNode("b", "r", "first reply", label="attack"),
                CommentNode("c", "b", "second reply", label="support"),
            ],
            tree_id="p1",
        )
        hate = build_tree(
            [
                CommentNode("r", None, "root text", label="non-hate"),
                CommentNode("b", "r", "a rude reply", label="hate"),
                CommentNode("c", "r", "a kind reply", label="non-hate"),
            ],
            tree_id="h1",
        )
        return polarity, hate

    def test_polarity_concatenates_parent_and_child(self):
        polarity, _ = self._trees()
        X, side = bow_examples([polarity], "polarity", 16)
        assert X.shape == (2, 32) and side.node_ids == ("b", "c")
        from threadwalk.embeddings import hashed_bow_embed

        expected = np.concatenate(
            [hashed_bow_embed("root text here", 16), hashed_bow_embed("first reply", 16)]
        )
        assert np.array_equal(X[side.node_ids.index("b")], expected)

    def test_hate_uses_single_comment(self):
        _, hate = self._trees()
        X, side = bow_examples([hate], "hate", 16)
        assert len(side.labels) == 3
        assert X.shape == (3, 16)

    def test_baseline_trains(self):
        _, hate = self._trees()
        model = bow_logreg_baseline([hate], "hate", 16, UNWEIGHTED.replace(epochs=5, seed=0))
        assert model.class_names == ("hate", "non-hate")
        assert model.feature_dim == 16
