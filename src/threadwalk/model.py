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
    DimensionMismatchError,
    MalformedFileError,
    NonFiniteLossError,
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
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def loss_and_gradient(
    weights: np.ndarray,
    bias: np.ndarray,
    X: np.ndarray,
    y: np.ndarray,
    l2: float,
    sample_weights: np.ndarray | None = None,
    *,
    compute: str = "both",
) -> tuple:
    """L2-regularized cross-entropy and its analytic gradient.

    ``y`` holds class indices. The data term is the sample-weighted mean
    over the batch; the bias is not regularized. ``weights (..., C, D)``,
    ``bias (..., C)`` and ``X (..., n, D)`` may stack models on leading
    axes, sharing ``y``; each gets the bytes of a 2-D call, with an array
    loss. ``compute="loss"`` or ``"gradient"`` returns the other as None.
    """
    n = X.shape[-2]
    sw = np.ones(n) if sample_weights is None else sample_weights
    logp = _log_softmax(X @ np.swapaxes(weights, -1, -2) + bias[..., None, :])
    loss = grad_w = grad_b = None
    if compute != "gradient":
        # Contiguous, so each row sums in the order of a 2-D call.
        picked = np.ascontiguousarray(logp[..., np.arange(n), y])
        loss = -(sw * picked).sum(axis=-1) / n
        loss = loss + 0.5 * l2 * (weights * weights).sum(axis=(-2, -1))
        loss = float(loss) if loss.ndim == 0 else loss
    if compute != "loss":
        delta = np.exp(logp)
        delta[..., np.arange(n), y] -= 1.0
        delta *= sw[:, None]
        grad_w = np.swapaxes(delta, -1, -2) @ X / n + l2 * weights
        grad_b = delta.sum(axis=-2) / n
    return loss, grad_w, grad_b


def train(
    labels: Sequence[str], features: np.ndarray, configs: Sequence[RunConfig]
) -> list[SoftmaxModel]:
    """Fit one softmax model per matrix of the ``(K, n, D)`` stack ``features``,
    model k under ``configs[k]``; the K configs share the settings named in
    TRAIN_FIELDS. Zero epochs return the zero initialization. Each model's
    metadata records every setting of its config but the embedding file,
    whose path would tie the bytes to a directory.

    Deterministic per seed: zero initialization and a shuffle order drawn
    from a stream derived from the shared ``seed``. The models share the
    shuffle and take each mini-batch step together, and each ends with the
    bytes it gets alone (``features[k][None]``). The first epoch at which
    any model's loss is non-finite raises NonFiniteLossError.
    """
    X, config = features, configs[0]
    if X.ndim != 3 or X.shape[:2] != (len(configs), len(labels)):
        raise DimensionMismatchError(
            f"features of shape {X.shape} are not ({len(configs)}, {len(labels)}, D)"
        )
    names, y = np.unique(labels, return_inverse=True)
    class_names = tuple(names.tolist())
    if len(class_names) < 2:
        raise SingleClassDataError(f"need >= 2 classes, got {class_names}")
    n_models, n, dim = X.shape
    n_classes = len(class_names)
    weights = np.zeros((n_models, n_classes, dim), dtype=np.float64)
    bias = np.zeros((n_models, n_classes), dtype=np.float64)

    if config.class_weighting:
        counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        class_w = n / (n_classes * counts)
        sample_w = class_w[y]
    else:
        sample_w = np.ones(n, dtype=np.float64)

    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(bias)
    rng = derived_rng(config.seed, "train-shuffle")
    histories: list[list[float]] = [[] for _ in range(n_models)]

    # A diverging run is reported by NonFiniteLossError, not numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = rng.permutation(n)
            for lo in range(0, n, config.batch_size):
                idx = order[lo : lo + config.batch_size]
                _, grad_w, grad_b = loss_and_gradient(
                    weights, bias, X[:, idx], y[idx], config.l2, sample_w[idx], compute="gradient"
                )
                vel_w = config.momentum * vel_w - config.learning_rate * grad_w
                vel_b = config.momentum * vel_b - config.learning_rate * grad_b
                weights = weights + vel_w
                bias = bias + vel_b
            for k, history in enumerate(histories):
                epoch_loss, _, _ = loss_and_gradient(
                    weights[k], bias[k], X[k], y, config.l2, sample_w, compute="loss"
                )
                if not np.isfinite(epoch_loss):
                    raise NonFiniteLossError(f"loss became {epoch_loss} after an epoch")
                history.append(epoch_loss)

    models = []
    for k, history in enumerate(histories):
        meta = {name: v for name, v in configs[k].to_dict().items() if name != "embedding_file"}
        meta.update(n_examples=int(n), feature_dim=int(dim), loss_history=history)
        models.append(SoftmaxModel(weights[k], bias[k], class_names, meta))
    return models


def predict_proba(model: SoftmaxModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities for a batch of feature rows, shape ``(n, D)``.

    Computed with a max-shifted exponential, so extreme logits stay
    finite; each row sums to one.
    """
    batch = np.asarray(features, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.feature_dim:
        raise DimensionMismatchError(
            f"features have shape {batch.shape}, model expects (n, {model.feature_dim})"
        )
    return np.exp(_log_softmax(batch @ model.weights.T + model.bias))


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
