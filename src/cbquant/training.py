"""Quantization-aware fine-tuning on a small two-layer tanh network.

The network is ``y = W2 @ tanh(W1 @ x + b1) + b2`` with closed-form
gradients.  Either weight matrix can be held in quantized form: its labels
are frozen at quantization time and only the codebook centroids train.  The
forward pass always uses the reconstructed weights; in the backward pass
each centroid receives the average of the gradients of the weights assigned
to it, and is updated with the base learning rate scaled by a multiplier
(biases and unquantized weights use plain SGD at the base rate).
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import core, grouping
from .errors import BadConfigError, LengthMismatchError, ShapeMismatchError

__all__ = [
    "TrainConfig",
    "ToyModel",
    "make_toy_model",
    "synthetic_regression",
    "forward",
    "model_loss",
    "loss_and_gradients",
    "centroid_gradients",
    "train_step",
    "quantize_model",
    "ExperimentArm",
    "ExperimentResult",
    "run_experiment",
    "curve_records",
]


@dataclass(frozen=True)
class TrainConfig:
    """Fine-tuning hyperparameters (plain SGD, no momentum)."""

    base_learning_rate: float
    epochs: int
    batch_size: int = 64
    quantized_lr_multiplier: float = 10.0
    data_seed: int = 0

    def __post_init__(self):
        if self.base_learning_rate <= 0:
            raise BadConfigError("base_learning_rate must be positive")
        if self.epochs < 0:
            raise BadConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise BadConfigError("batch_size must be >= 1")
        if self.quantized_lr_multiplier < 0:
            raise BadConfigError("quantized_lr_multiplier must be >= 0")


@dataclass(frozen=True)
class ToyModel:
    """Two dense layers with tanh in between; weights optionally quantized.

    ``w1``/``w2`` hold full-precision weights; when a layer is quantized the
    corresponding ``q1``/``q2`` carries the codebook + frozen labels instead,
    as one group in the weight's shape, and the dense field is ignored.
    Biases are never quantized.
    """

    w1: np.ndarray  # (hidden, in)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (out, hidden)
    b2: np.ndarray  # (out,)
    q1: Optional[grouping.GroupedQuantizedTensor] = None
    q2: Optional[grouping.GroupedQuantizedTensor] = None

    def weight1(self) -> np.ndarray:
        if self.q1 is not None:
            return grouping.reconstruct_grouped(self.q1).astype(np.float64)
        return self.w1

    def weight2(self) -> np.ndarray:
        if self.q2 is not None:
            return grouping.reconstruct_grouped(self.q2).astype(np.float64)
        return self.w2


def make_toy_model(in_dim: int, hidden_dim: int, out_dim: int, rng: np.random.Generator,
                   weight_scale: float = 0.5) -> ToyModel:
    """Randomly initialized full-precision model."""
    return ToyModel(
        w1=rng.normal(0.0, weight_scale, size=(hidden_dim, in_dim)),
        b1=np.zeros(hidden_dim),
        w2=rng.normal(0.0, weight_scale, size=(out_dim, hidden_dim)),
        b2=np.zeros(out_dim),
    )


def synthetic_regression(n_samples: int, in_dim: int, hidden_dim: int, out_dim: int,
                         rng: np.random.Generator, noise: float = 0.1,
                         weight_scale: float = 0.8) -> tuple[np.ndarray, np.ndarray]:
    """Sample a noisy regression task realizable by the toy model class."""
    b = rng.normal(0.0, weight_scale, size=(hidden_dim, in_dim))
    a = rng.normal(0.0, weight_scale, size=(out_dim, hidden_dim))
    x = rng.normal(size=(n_samples, in_dim))
    y = np.tanh(x @ b.T) @ a.T + noise * rng.normal(size=(n_samples, out_dim))
    return x, y


def forward(model: ToyModel, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Predictions plus the activations needed for the analytic backward pass."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.w1.shape[1]:
        raise ShapeMismatchError(
            f"expected input of shape (batch, {model.w1.shape[1]}), got {x.shape}"
        )
    w1 = model.weight1()
    w2 = model.weight2()
    hidden = np.tanh(x @ w1.T + model.b1)
    pred = hidden @ w2.T + model.b2
    return pred, {"x": x, "hidden": hidden, "w2": w2}


def model_loss(model: ToyModel, x: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error over all batch elements and output dimensions."""
    pred, _ = forward(model, x)
    return float(np.mean(np.square(pred - y)))


def loss_and_gradients(model: ToyModel, x: np.ndarray, y: np.ndarray) -> tuple[float, dict]:
    """MSE loss and per-parameter gradients for both layers and biases."""
    y = np.asarray(y, dtype=np.float64)
    pred, cache = forward(model, x)
    if pred.shape != y.shape:
        raise ShapeMismatchError(f"targets of shape {y.shape} do not match predictions {pred.shape}")
    diff = pred - y
    loss = float(np.mean(np.square(diff)))

    d_pred = 2.0 * diff / diff.size
    hidden = cache["hidden"]
    grad_w2 = d_pred.T @ hidden
    grad_b2 = d_pred.sum(axis=0)
    d_hidden = (d_pred @ cache["w2"]) * (1.0 - np.square(hidden))
    grad_w1 = d_hidden.T @ cache["x"]
    grad_b1 = d_hidden.sum(axis=0)
    return loss, {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}


def centroid_gradients(weight_grads, labels, n_clusters: int) -> np.ndarray:
    """Average the per-weight gradients within each cluster; empty clusters get 0."""
    grads = np.asarray(weight_grads, dtype=np.float64).reshape(-1)
    lab = np.asarray(labels).reshape(-1)
    if grads.size != lab.size:
        raise LengthMismatchError("one gradient per label required")
    counts = np.bincount(lab, minlength=n_clusters)
    sums = np.bincount(lab, weights=grads, minlength=n_clusters)
    return np.divide(sums, counts, out=np.zeros(n_clusters), where=counts > 0)


def _updated_centroids(q: grouping.GroupedQuantizedTensor, weight_grads,
                       lr: float) -> grouping.GroupedQuantizedTensor:
    grad = centroid_gradients(weight_grads, q.labels, q.cfg.n_levels)
    # Labels stay frozen; only the centroid values move.
    return replace(q, centroids=(q.centroids.astype(np.float64) - lr * grad).astype(np.float32))


def train_step(model: ToyModel, batch: tuple[np.ndarray, np.ndarray],
               cfg: TrainConfig) -> tuple[ToyModel, float]:
    """One SGD step; returns the updated model and the pre-update batch loss."""
    x, y = batch
    loss, grads = loss_and_gradients(model, x, y)
    lr = cfg.base_learning_rate
    q_lr = lr * cfg.quantized_lr_multiplier

    updates = {
        "b1": model.b1 - lr * grads["b1"],
        "b2": model.b2 - lr * grads["b2"],
    }
    if model.q1 is not None:
        updates["q1"] = _updated_centroids(model.q1, grads["w1"], q_lr)
    else:
        updates["w1"] = model.w1 - lr * grads["w1"]
    if model.q2 is not None:
        updates["q2"] = _updated_centroids(model.q2, grads["w2"], q_lr)
    else:
        updates["w2"] = model.w2 - lr * grads["w2"]
    return replace(model, **updates), loss


def quantize_model(model: ToyModel, cfg: core.QuantConfig) -> ToyModel:
    """Quantize both weight matrices (never the biases) as one group each; labels freeze here."""
    if cfg.group_count != 1:
        raise BadConfigError("centroid fine-tuning needs one group per weight matrix")
    w1, w2 = model.weight1(), model.weight2()
    return replace(model, q1=grouping.quantize_grouped(w1, cfg, tensor_name="w1"),
                   q2=grouping.quantize_grouped(w2, cfg, tensor_name="w2"), w1=w1, w2=w2)


def _run_epochs(model: ToyModel, x, y, cfg: TrainConfig, epochs: int,
                shuffle_rng: np.random.Generator) -> tuple[ToyModel, list[float]]:
    losses = []
    for _ in range(epochs):
        order = shuffle_rng.permutation(len(x))
        for start in range(0, len(x), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            model, _ = train_step(model, (x[idx], y[idx]), cfg)
        losses.append(model_loss(model, x, y))
    return model, losses


@dataclass(frozen=True)
class ExperimentArm:
    """Fine-tuning trajectory of one quantization scheme."""

    scheme: core.Scheme
    post_quant_loss: float  # before any fine-tuning (recorded as epoch 0)
    losses: tuple[float, ...]  # full-dataset loss after each epoch

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else self.post_quant_loss


@dataclass(frozen=True)
class ExperimentResult:
    bits: int
    task_seed: int
    pretrain_loss: float
    arms: dict = field(default_factory=dict)  # scheme name -> ExperimentArm

    def recovery(self, scheme: core.Scheme) -> float:
        """Fraction of the quantization-induced loss increase recovered."""
        arm = self.arms[scheme.name]
        increase = arm.post_quant_loss - self.pretrain_loss
        if increase <= 0:
            return 1.0
        return (arm.post_quant_loss - arm.final_loss) / increase


def run_experiment(train_cfg: TrainConfig, quant_cfg: core.QuantConfig, task_seed: int = 0,
                   schemes: tuple[core.Scheme, ...] = (core.Scheme.LINEAR, core.Scheme.KMEANS),
                   in_dim: int = 4, hidden_dim: int = 12, out_dim: int = 2,
                   n_samples: int = 256, pretrain_epochs: int = 300) -> ExperimentResult:
    """Pretrain in full precision, quantize, fine-tune once per scheme.

    The pretrained model, dataset, and batch order are shared across arms, so
    per-scheme curves differ only in the quantizer.  ``quant_cfg.scheme`` is
    replaced by each entry of ``schemes``.
    """
    data_rng = np.random.default_rng(train_cfg.data_seed)
    x, y = synthetic_regression(n_samples, in_dim, hidden_dim, out_dim, data_rng)

    model = make_toy_model(in_dim, hidden_dim, out_dim, np.random.default_rng(task_seed))
    model, _ = _run_epochs(model, x, y, train_cfg, pretrain_epochs,
                           np.random.default_rng(train_cfg.data_seed + 1))
    pretrain_loss = model_loss(model, x, y)

    arms = {}
    for scheme in schemes:
        cfg = replace(quant_cfg, scheme=scheme)
        quantized = quantize_model(model, cfg)
        post_quant = model_loss(quantized, x, y)
        _, losses = _run_epochs(quantized, x, y, train_cfg, train_cfg.epochs,
                                np.random.default_rng(train_cfg.data_seed + 2))
        arms[scheme.name] = ExperimentArm(scheme, post_quant, tuple(losses))
    return ExperimentResult(bits=quant_cfg.bits, task_seed=task_seed,
                            pretrain_loss=pretrain_loss, arms=arms)


def curve_records(result: ExperimentResult) -> list[str]:
    """Learning curves as ``epoch,scheme,bits,seed,loss`` lines.

    Field order is fixed; the loss is decimal text with 9 significant digits.
    Epoch 0 is the post-quantization loss before any fine-tuning.
    """
    lines = []
    for name, arm in result.arms.items():
        scheme = name.lower()
        for epoch, loss in enumerate([arm.post_quant_loss, *arm.losses]):
            lines.append(f"{epoch},{scheme},{result.bits},{result.task_seed},{loss:.9g}")
    return lines
