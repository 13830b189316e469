"""Linear softmax classifier with cross-entropy loss.

Deliberately hand-rolled rather than delegated to a library: the contract
demands all-zero initialization, bit-identical parameter trajectories per
seed, zero-epoch training returning the initialization, and value-exact
save/load, none of which off-the-shelf solvers guarantee. Optimization is
plain mini-batch gradient descent with optional momentum and optional
inverse-frequency class weighting.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    MalformedFileError,
    NonFiniteLossError,
    NonFiniteScoreError,
    SingleClassDataError,
    cut_path,
    quote,
)
from .corpus import JSON_DECODER, parse_int, text_lines, write_lines
from .seeding import derived_rng

if TYPE_CHECKING:
    from .pipeline import RunConfig

MODEL_FORMAT = "threadwalk-softmax-v1"
# The RunConfig fields that training reads, which the models of one stack share.
TRAIN_FIELDS = (
    "epochs", "batch_size", "learning_rate", "l2", "seed", "class_weighting", "momentum"
)


@dataclass
class SoftmaxModel:
    """Trained parameters plus the class order they index."""

    weights: np.ndarray  # (num_classes, feature_dim)
    bias: np.ndarray  # (num_classes,)
    class_names: tuple[str, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    if logits.shape[-1] != 2:
        shifted = logits - logits.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    # Two classes without reductions over the class axis, which cost more per
    # call than the work: the max of two values is one of them and their sum
    # is one rounding, so the bytes are a reduction's.
    shifted = logits - np.maximum(logits[..., :1], logits[..., 1:])
    exps = np.exp(shifted)
    shifted -= np.log(exps[..., :1] + exps[..., 1:])
    return shifted


def loss_and_gradient(
    weights: np.ndarray,
    bias: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    l2: float,
    sample_weights: np.ndarray | None = None,
    *,
    compute: str = "both",
    stacks: Sequence[tuple] | None = None,
) -> tuple:
    """L2-regularized cross-entropy and its analytic gradient.

    ``y`` holds class indices. The data term is the sample-weighted mean
    over the batch; the bias is not regularized. ``weights (..., C, D)``,
    ``bias (..., C)`` and ``X (..., n, D)`` may stack models on leading
    axes, sharing ``y``; each gets the bytes of a 2-D call, with an array
    loss. ``compute="loss"`` or ``"gradient"`` returns the other as None.

    With ``stacks``, the models differ in width: ``weights`` is a flat
    buffer, and ``grad_w`` one like it. Each ``(W, rows)`` of ``stacks``
    holds the weights ``W (m, C, D_j)`` of m models, the next values of the
    buffer, that read the first ``D_j`` columns of the matrices ``X[rows]``;
    ``bias (M, C)`` holds the biases of all M models in order. Each model
    still gets the bytes of a 2-D call on a contiguous copy of its columns.
    Width stacks compute the gradient only (ValueError otherwise).
    """
    if stacks is not None and compute != "gradient":
        raise ValueError(f"width stacks compute the gradient only, not {compute!r}")
    n = X.shape[-2]
    sw = np.ones(n) if sample_weights is None else sample_weights
    # Each in-place step below is the same IEEE operation as its out-of-place
    # form, so the bytes are those of ``X @ W.T + b`` and so on.
    if stacks is None:
        logits = X @ weights.swapaxes(-1, -2)
    else:
        logits = np.empty((*bias.shape[:-1], n, bias.shape[-1]))
        parts, end = [], 0  # (weights, columns, models) of each stack
        for W, rows in stacks:
            x, models = X[rows, :, : W.shape[-1]], slice(end, end + len(W))
            np.matmul(x, W.swapaxes(-1, -2), out=logits[models])
            parts.append((W, x, models))
            end += len(W)
    logits += bias[..., None, :]
    logp = _log_softmax(logits)
    loss = grad_w = grad_b = None
    if compute != "gradient":
        # Contiguous, so each row sums in the order of a 2-D call.
        picked = np.ascontiguousarray(logp[..., np.arange(n), y])
        loss = -(sw * picked).sum(axis=-1) / n
        loss = loss + 0.5 * l2 * (weights * weights).sum(axis=(-2, -1))
        loss = float(loss) if loss.ndim == 0 else loss
    if compute != "loss":
        delta = np.exp(logp)
        # Subtracts the one-hot rows; x - 0.0 is x for every x, -0.0 and NaN
        # included, so the bytes are those of ``delta[..., arange(n), y] -= 1``.
        delta -= y[:, None] == np.arange(delta.shape[-1])
        delta *= sw[:, None]
        if stacks is None:
            grad_w = delta.swapaxes(-1, -2) @ X
        else:
            grad_w, end = np.empty_like(weights), 0
            for W, x, models in parts:
                out = grad_w[end : end + W.size].reshape(W.shape)
                np.matmul(delta[models].swapaxes(-1, -2), x, out=out)
                end += W.size
        grad_w /= n
        grad_w += l2 * weights
        grad_b = delta.sum(axis=-2)
        grad_b /= n
    return loss, grad_w, grad_b


def train(
    labels: Sequence[str],
    features: np.ndarray,
    configs: Sequence[RunConfig],
    columns: Sequence[tuple[int, int]] | None = None,
) -> list[SoftmaxModel]:
    """Fit one softmax model per config, model k under ``configs[k]`` on the
    first ``w`` columns of the matrix ``features[b]`` of the ``(B, n, D)``
    stack ``features``, for ``(b, w) = columns[k]``; without ``columns``,
    model k reads all of ``features[k]``. Every matrix is read by some model,
    and the configs must agree on the settings named in TRAIN_FIELDS.
    Zero epochs return the zero initialization. Each model's metadata
    records every setting of its config but the embedding file, whose path
    would tie the bytes to a directory.

    Deterministic per seed: zero initialization and a shuffle order drawn
    from a stream derived from the shared ``seed``. The models share the
    shuffle and take each mini-batch step together, one gather of the rows
    of every matrix and one product per width stacked over the models of
    that width, and each ends with the bytes it gets alone (a contiguous
    copy of its columns, ``[None]``). The first epoch at which any model's
    loss is non-finite raises NonFiniteLossError.
    """
    X, config = features, configs[0]
    for name in TRAIN_FIELDS:
        values = list(dict.fromkeys(getattr(c, name) for c in configs))
        if len(values) > 1:
            got = f"{quote(values[0])} and {quote(values[1])}"
            raise ConfigError(f"models trained together must share {name}, got {got}")
    if columns is None:
        columns = [(k, X.shape[-1]) for k in range(len(configs))]
    if (
        X.ndim != 3
        or X.shape[1] != len(labels)
        or len(columns) != len(configs)
        or {b for b, _ in columns} != set(range(len(X)))
        or not all(0 < w <= X.shape[2] for _, w in columns)
    ):
        raise DimensionMismatchError(
            f"features of shape {X.shape} do not hold columns {columns[:5]} of {len(labels)} rows"
        )
    names, y = np.unique(labels, return_inverse=True)
    class_names = tuple(names.tolist())
    if len(class_names) < 2:
        raise SingleClassDataError(f"need >= 2 classes, got {class_names}")
    n, n_classes = len(labels), len(class_names)
    # One stack of models per width, the widest first, in config order, with
    # their weights in one buffer; a stack that reads consecutive matrices
    # takes its columns as a view of the gathered rows.
    by_width = sorted(range(len(configs)), key=lambda k: -columns[k][1])
    weights = np.zeros(n_classes * sum(width for _, width in columns))
    stacks, end = [], 0  # (weights, rows) of each stack
    for width, ks in itertools.groupby(by_width, key=lambda k: columns[k][1]):
        r = [columns[k][0] for k in ks]
        reads = slice(r[0], r[-1] + 1) if r == list(range(r[0], r[-1] + 1)) else r
        size = len(r) * n_classes * width
        stacks.append((weights[end : end + size].reshape(len(r), n_classes, width), reads))
        end += size
    bias = np.zeros((len(configs), n_classes))
    params = dict(zip(by_width, zip((W for stack, _ in stacks for W in stack), bias)))
    # One width, each matrix whole: a plain (K, C, D) stack. The width-stack
    # path gives it the same bytes, but each step costs 8-9 % more on one core
    # (K = 1, 32-row batches of a 6,466 x 768 matrix); on run-hate that is
    # about 4 % of the command. Groups with prefix views need the width stacks.
    if len(stacks) == 1 and stacks[0][1] == slice(0, len(X)) and width == X.shape[2]:
        weights, stacks = stacks[0][0], None

    if config.class_weighting:
        counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        class_w = n / (n_classes * counts)
        sample_w = class_w[y]
    else:
        sample_w = np.ones(n, dtype=np.float64)

    # Without momentum, ``param -= lr * grad`` gives the bytes of the velocity
    # step ``param += 0 * vel - lr * grad`` while ``vel`` is finite, as the
    # parameters start at +0.0 and neither form can make one -0.0; a
    # non-finite ``vel`` comes with a non-finite parameter, which the epoch's
    # loss reports either way.
    velocities = (np.zeros_like(weights), np.zeros_like(bias)) if config.momentum else (None, None)
    rng = derived_rng(config.seed, "train-shuffle")
    histories: list[list[float]] = [[] for _ in configs]

    # A diverging run is reported by NonFiniteLossError, not numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(n)
            y_order, w_order = y[order], sample_w[order]
            for lo in range(0, n, config.batch_size):
                batch = slice(lo, lo + config.batch_size)
                rows = X.take(order[batch], axis=1)
                _, grad_w, grad_b = loss_and_gradient(
                    weights, bias, rows, y_order[batch], config.l2, w_order[batch],
                    compute="gradient", stacks=stacks,
                )
                for param, vel, grad in zip((weights, bias), velocities, (grad_w, grad_b)):
                    grad *= config.learning_rate
                    if vel is None:
                        param -= grad
                    else:
                        vel *= config.momentum
                        vel -= grad
                        param += vel
            for k, history in enumerate(histories):
                (base, width), (W, b) = columns[k], params[k]
                epoch_loss, _, _ = loss_and_gradient(
                    W, b, X[base, :, :width], y, config.l2, sample_w, compute="loss"
                )
                if not np.isfinite(epoch_loss):
                    raise NonFiniteLossError(f"loss became {epoch_loss} after an epoch")
                history.append(epoch_loss)

    models = []
    for k, history in enumerate(histories):
        meta = {name: v for name, v in configs[k].to_dict().items() if name != "embedding_file"}
        meta.update(n_examples=int(n), feature_dim=int(columns[k][1]), loss_history=history)
        models.append(SoftmaxModel(*params[k], class_names, meta))
    return models


def predict_proba(model: SoftmaxModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch of feature rows, shape ``(n, D)``.

    Computed with a max-shifted exponential, so extreme logits stay
    finite; each row sums to one. Non-finite logits raise NonFiniteScoreError.
    """
    batch = np.asarray(features, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.feature_dim:
        raise DimensionMismatchError(
            f"features have shape {batch.shape}, model expects (n, {model.feature_dim})"
        )
    # The shift of finite logits may overflow to -inf, whose exponential is 0.
    with np.errstate(over="ignore", invalid="ignore"):
        logits = batch @ model.weights.T + model.bias
        if bad := np.count_nonzero(~np.isfinite(logits).all(axis=1)):
            raise NonFiniteScoreError(f"class scores of {bad} of {len(batch)} rows are not finite")
        return np.exp(_log_softmax(logits))


def predict_labels(model: SoftmaxModel, features: np.ndarray) -> list[str]:
    """Argmax labels for a batch; ties resolve to the lowest class index."""
    probs = predict_proba(model, features)
    return [model.class_names[i] for i in probs.argmax(axis=1)]


def save_model(model: SoftmaxModel, path: str | Path) -> None:
    """Write parameters as decimal text; round-trips are value-exact."""
    n_classes, dim = model.weights.shape
    header = [
        MODEL_FORMAT + "\n",
        "classes\t" + "\t".join(model.class_names) + "\n",
        f"dims {n_classes} {dim}\n",
        "meta " + json.dumps(model.metadata, sort_keys=True) + "\n",
    ]
    rows = (" ".join(repr(float(x)) for x in row) + "\n" for row in (*model.weights, model.bias))
    write_lines(path, itertools.chain(header, rows))


def load_model(path: str | Path) -> SoftmaxModel:
    path, where = Path(path), cut_path(path)
    lines = [line.rstrip("\n") for line in text_lines(path)]
    if not lines or lines[0] != MODEL_FORMAT:
        raise MalformedFileError(f"{where}: not a {MODEL_FORMAT} file")
    labels = ("classes\t", "dims ", "meta ")
    if not all(line.startswith(label) for line, label in zip(lines[1:4], labels)):
        raise MalformedFileError(f"{where}: lines 2 to 4 must start with {labels}")
    try:
        class_names = tuple(lines[1].split("\t")[1:])
        n_classes, dim = (parse_int(x) for x in lines[2].split()[1:])
        metadata = JSON_DECODER.decode(lines[3][len("meta ") :])
        rows = [np.array([float(v) for v in lines[4 + i].split()]) for i in range(n_classes)]
        bias = np.array([float(v) for v in lines[4 + n_classes].split()])
        weights = np.stack(rows)  # ValueError for ragged rows or no classes
    except (IndexError, ValueError, RecursionError) as exc:
        raise MalformedFileError(f"{where}: truncated or corrupt model file ({exc})") from None
    if not isinstance(metadata, dict):
        raise MalformedFileError(f"{where}: meta must be a JSON object, got {quote(metadata)}")
    if weights.shape != (n_classes, dim) or bias.shape != (n_classes,):
        raise MalformedFileError(f"{where}: parameter shapes disagree with header")
    if len(class_names) != n_classes:
        raise MalformedFileError(f"{where}: {len(class_names)} class names for {n_classes} classes")
    if n_classes < 2 or "" in class_names or len(set(class_names)) != n_classes:
        raise MalformedFileError(
            f"{where}: class names must be two or more, distinct and non-empty"
        )
    if any(line.strip() for line in lines[5 + n_classes :]):
        raise MalformedFileError(f"{where}: unexpected line after the bias row")
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise MalformedFileError(f"{where}: non-finite parameter")
    return SoftmaxModel(weights=weights, bias=bias, class_names=class_names, metadata=metadata)
