"""Linear softmax classifier with cross-entropy loss.

Deliberately hand-rolled rather than delegated to a library: the contract
demands all-zero initialization, bit-identical parameter trajectories per
seed, zero-epoch training returning the initialization, and value-exact
save/load, none of which off-the-shelf solvers guarantee. Optimization is
plain mini-batch gradient descent with optional momentum and optional
inverse-frequency class weighting.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    MalformedFileError,
    NonFiniteLossError,
    SingleClassDataError,
)
from .corpus import text_lines, write_lines
from .features import Examples
from .seeding import derived_rng

MODEL_FORMAT = "threadwalk-softmax-v1"


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings. ``epochs = 0`` returns the zero initialization."""

    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.1
    l2: float = 1e-4
    seed: int = 0
    class_weighting: bool = False
    momentum: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
        if not 0 <= self.l2 < math.inf:
            raise ValueError(f"l2 must be >= 0 and finite, got {self.l2}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


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
) -> tuple[float, np.ndarray, np.ndarray]:
    """L2-regularized cross-entropy and its analytic gradient.

    ``y`` holds class indices. The data term is the sample-weighted mean
    over the batch; the bias is not regularized.
    """
    n = X.shape[0]
    sw = np.ones(n) if sample_weights is None else sample_weights
    logits = X @ weights.T + bias
    logp = _log_softmax(logits)
    loss = float(-(sw * logp[np.arange(n), y]).sum() / n)
    loss += 0.5 * l2 * float((weights * weights).sum())

    probs = np.exp(logp)
    delta = probs
    delta[np.arange(n), y] -= 1.0
    delta *= sw[:, None]
    grad_w = delta.T @ X / n + l2 * weights
    grad_b = delta.sum(axis=0) / n
    return loss, grad_w, grad_b


def train(examples: Examples, config: TrainConfig) -> SoftmaxModel:
    """Fit a softmax model on labeled examples.

    Deterministic per seed: zero initialization and a shuffle order drawn
    from a stream derived from ``config.seed``.
    """
    names, y = np.unique(examples.labels, return_inverse=True)
    class_names = tuple(names.tolist())
    if len(class_names) < 2:
        raise SingleClassDataError(f"need >= 2 classes, got {class_names}")
    X = examples.X
    n, dim = X.shape
    n_classes = len(class_names)
    weights = np.zeros((n_classes, dim), dtype=np.float64)
    bias = np.zeros(n_classes, dtype=np.float64)

    if config.class_weighting:
        counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        class_w = n / (n_classes * counts)
        sample_w = class_w[y]
    else:
        sample_w = np.ones(n, dtype=np.float64)

    vel_w = np.zeros_like(weights)
    vel_b = np.zeros_like(bias)
    rng = derived_rng(config.seed, "train-shuffle")
    history: list[float] = []

    for _ in range(config.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            _, grad_w, grad_b = loss_and_gradient(
                weights, bias, X[idx], y[idx], config.l2, sample_w[idx]
            )
            if config.momentum > 0.0:
                vel_w = config.momentum * vel_w - config.learning_rate * grad_w
                vel_b = config.momentum * vel_b - config.learning_rate * grad_b
                weights = weights + vel_w
                bias = bias + vel_b
            else:
                weights = weights - config.learning_rate * grad_w
                bias = bias - config.learning_rate * grad_b
        epoch_loss, _, _ = loss_and_gradient(weights, bias, X, y, config.l2, sample_w)
        if not np.isfinite(epoch_loss):
            raise NonFiniteLossError(f"loss became {epoch_loss} after an epoch")
        history.append(epoch_loss)

    metadata = {
        **dataclasses.asdict(config),
        "n_examples": int(n),
        "feature_dim": int(dim),
        "loss_history": history,
    }
    return SoftmaxModel(weights=weights, bias=bias, class_names=class_names, metadata=metadata)


def predict_proba(model: SoftmaxModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities for one feature vector or a batch.

    Computed with a max-shifted exponential, so extreme logits stay
    finite; each row sums to one.
    """
    values = np.asarray(features, dtype=np.float64)
    single = values.ndim == 1
    batch = values[None, :] if single else values
    if batch.ndim != 2 or batch.shape[1] != model.feature_dim:
        raise DimensionMismatchError(
            f"features have dimension {batch.shape[-1]}, model expects {model.feature_dim}"
        )
    probs = np.exp(_log_softmax(batch @ model.weights.T + model.bias))
    return probs[0] if single else probs


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
    path = Path(path)
    lines = [line.rstrip("\n") for line in text_lines(path)]
    if not lines or lines[0] != MODEL_FORMAT:
        raise MalformedFileError(f"{path}: not a {MODEL_FORMAT} file")
    try:
        class_names = tuple(lines[1].split("\t")[1:])
        n_classes, dim = (int(x) for x in lines[2].split()[1:])
        metadata = json.loads(lines[3][len("meta ") :])
        rows = [np.array([float(v) for v in lines[4 + i].split()]) for i in range(n_classes)]
        bias = np.array([float(v) for v in lines[4 + n_classes].split()])
        weights = np.stack(rows)  # ValueError for ragged rows or no classes
    except (IndexError, ValueError, json.JSONDecodeError) as exc:
        raise MalformedFileError(f"{path}: truncated or corrupt model file ({exc})") from None
    if weights.shape != (n_classes, dim) or bias.shape != (n_classes,):
        raise MalformedFileError(f"{path}: parameter shapes disagree with header")
    if len(class_names) != n_classes:
        raise MalformedFileError(f"{path}: {len(class_names)} class names for {n_classes} classes")
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise MalformedFileError(f"{path}: non-finite parameter")
    return SoftmaxModel(weights=weights, bias=bias, class_names=class_names, metadata=metadata)
