"""Quantization-aware fine-tuning on a small two-layer tanh network.

The network is ``y = W2 @ tanh(W1 @ x + b1) + b2`` with closed-form
gradients.  Each weight matrix is one field of the model, held either as a
dense array or, after ``quantize_model``, as a one-group
``GroupedQuantizedTensor`` in the weight's shape: its labels are frozen at
quantization time and only the codebook centroids train.  ``ToyModel``
rejects a quantized weight of more than one group.  The forward pass uses the
reconstructed weights; in the backward pass each centroid receives the
average of the gradients of the weights assigned to it, and is updated with
the base learning rate scaled by a multiplier (biases and dense weights use
plain SGD at the base rate).  ``train_step`` runs these updates over a
sequence of batches.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import core, grouping
from .errors import BadConfigError, CorruptIndexError, LengthMismatchError, ShapeMismatchError

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

# The toy task of ``run_experiment``: 4 inputs, 2 outputs, 256 samples; the
# teacher's weights are drawn at scale 0.8, the student's at 0.5.
_IN_DIM, _OUT_DIM, _N_SAMPLES = 4, 2, 256
_INIT_SCALE = 0.5
_TASK_SCALE, _TASK_NOISE = 0.8, 0.1
_SCHEMES = (core.Scheme.LINEAR, core.Scheme.KMEANS)


@dataclass(frozen=True)
class TrainConfig:
    """Fine-tuning hyperparameters (plain SGD, no momentum)."""

    base_learning_rate: float
    epochs: int
    batch_size: int = 64
    quantized_lr_multiplier: float = 10.0
    data_seed: int = 0

    def __post_init__(self):
        for name, lo in (("epochs", 0), ("batch_size", 1), ("data_seed", 0)):
            object.__setattr__(self, name, core._integer(name, getattr(self, name), lo))
        if not 0 < self.base_learning_rate < math.inf:
            raise BadConfigError("base_learning_rate must be finite and positive")
        if not 0 <= self.quantized_lr_multiplier < math.inf:
            raise BadConfigError("quantized_lr_multiplier must be finite and >= 0")


@dataclass(frozen=True)
class ToyModel:
    """Two layers with tanh in between; weights optionally quantized.

    ``w1``/``w2`` each hold either a float64 array or a one-group
    ``GroupedQuantizedTensor`` in the weight's shape (codebook + frozen
    labels).  Biases are never quantized.
    """

    w1: np.ndarray | grouping.GroupedQuantizedTensor  # (hidden, in)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray | grouping.GroupedQuantizedTensor  # (out, hidden)
    b2: np.ndarray  # (out,)

    def __post_init__(self):
        if any(isinstance(w, grouping.GroupedQuantizedTensor) and w.cfg.group_count > 1
               for w in (self.w1, self.w2)):
            raise BadConfigError("centroid fine-tuning needs one group per weight matrix")
        w1, w2 = tuple(self.w1.shape), tuple(self.w2.shape)
        if (len(w1) != 2 or len(w2) != 2 or w2[1] != w1[0]
                or np.shape(self.b1) != w1[:1] or np.shape(self.b2) != w2[:1]):
            raise ShapeMismatchError(f"layer shapes do not chain: w1 {w1}, b1 {np.shape(self.b1)}, "
                                     f"w2 {w2}, b2 {np.shape(self.b2)}")


def _dense(w) -> np.ndarray:
    if isinstance(w, grouping.GroupedQuantizedTensor):
        # One group, so every label indexes the one codebook row.
        return w.centroids[0].take(w.labels).reshape(w.shape).astype(np.float64)
    return w


def _sizes(**sizes) -> list[int]:
    """Each of ``sizes`` as an ``int``; one that is not an integer >= 1 raises ``BadConfigError``."""
    return [core._integer(name, value, 1) for name, value in sizes.items()]


def make_toy_model(in_dim: int, hidden_dim: int, out_dim: int, rng: np.random.Generator) -> ToyModel:
    """Randomly initialized full-precision model."""
    in_dim, hidden_dim, out_dim = _sizes(in_dim=in_dim, hidden_dim=hidden_dim, out_dim=out_dim)
    return ToyModel(
        w1=rng.normal(0.0, _INIT_SCALE, size=(hidden_dim, in_dim)),
        b1=np.zeros(hidden_dim),
        w2=rng.normal(0.0, _INIT_SCALE, size=(out_dim, hidden_dim)),
        b2=np.zeros(out_dim),
    )


def synthetic_regression(n_samples: int, in_dim: int, hidden_dim: int, out_dim: int,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample a noisy regression task realizable by the toy model class."""
    n_samples, in_dim, hidden_dim, out_dim = _sizes(n_samples=n_samples, in_dim=in_dim, hidden_dim=hidden_dim,
                                                    out_dim=out_dim)
    b = rng.normal(0.0, _TASK_SCALE, size=(hidden_dim, in_dim))
    a = rng.normal(0.0, _TASK_SCALE, size=(out_dim, hidden_dim))
    x = rng.normal(size=(n_samples, in_dim))
    y = np.tanh(x @ b.T) @ a.T + _TASK_NOISE * rng.normal(size=(n_samples, out_dim))
    return x, y


def forward(model: ToyModel, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Predictions plus the activations needed for the analytic backward pass."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.w1.shape[1]:
        raise ShapeMismatchError(
            f"expected input of shape (batch, {model.w1.shape[1]}), got {x.shape}"
        )
    w2 = _dense(model.w2)
    hidden = np.tanh(x @ _dense(model.w1).T + model.b1)
    pred = hidden @ w2.T + model.b2
    return pred, {"x": x, "hidden": hidden, "w2": w2}


def _residual(model: ToyModel, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, dict]:
    """Predictions minus targets, and the forward cache; targets never broadcast."""
    y = np.asarray(y, dtype=np.float64)
    pred, cache = forward(model, x)
    if pred.shape != y.shape:
        raise ShapeMismatchError(f"targets of shape {y.shape} do not match predictions {pred.shape}")
    return pred - y, cache


def model_loss(model: ToyModel, x: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error over all batch elements and output dimensions."""
    return float(np.mean(np.square(_residual(model, x, y)[0])))


def loss_and_gradients(model: ToyModel, x: np.ndarray, y: np.ndarray) -> tuple[float, dict]:
    """MSE loss and per-parameter gradients for both layers and biases."""
    diff, cache = _residual(model, x, y)
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
    n_clusters = core._integer("n_clusters", n_clusters, 1)
    if grads.size != lab.size:
        raise LengthMismatchError("one gradient per label required")
    core._labels(lab, n_clusters, CorruptIndexError)
    lab = lab.astype(np.intp)
    return _cluster_means(grads, lab, np.bincount(lab, minlength=n_clusters))


def _cluster_means(grads: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``centroid_gradients`` of checked flat ``grads`` and ``labels``, whose
    per-cluster ``counts`` are given."""
    sums = np.bincount(labels, weights=grads, minlength=len(counts))
    return np.divide(sums, counts, out=np.zeros(len(counts)), where=counts > 0)


def train_step(model: ToyModel, batches, cfg: TrainConfig) -> tuple[ToyModel, list[float]]:
    """One SGD step per ``(x, y)`` batch, in order; returns the updated model
    and each batch's pre-update loss.

    The steps run on a dense float64 copy of the model.  A quantized weight
    trains as its float32 centroid row over its frozen labels, whose
    cluster counts are taken once, and its ``GroupedQuantizedTensor`` is
    built once, when the call ends.
    """
    quantized = {name: q for name, q in vars(model).items() if isinstance(q, grouping.GroupedQuantizedTensor)}
    rows = {name: q.centroids[0] for name, q in quantized.items()}
    # The tensor checked its labels against its codebook when it was built.
    labels = {name: q.labels.astype(np.intp) for name, q in quantized.items()}
    counts = {name: np.bincount(labels[name], minlength=q.cfg.n_levels) for name, q in quantized.items()}
    work = ToyModel(**{name: np.array(_dense(p), dtype=np.float64) for name, p in vars(model).items()})
    lr, losses = cfg.base_learning_rate, []
    for x, y in batches:
        loss, grads = loss_and_gradients(work, x, y)
        losses.append(loss)
        for name, q in quantized.items():
            step = _cluster_means(grads.pop(name).reshape(-1), labels[name], counts[name])
            # Labels stay frozen; only the centroid values move.
            rows[name] = (rows[name] - lr * cfg.quantized_lr_multiplier * step).astype(np.float32)
            getattr(work, name)[...] = rows[name].take(labels[name]).reshape(q.shape)
        for name, grad in grads.items():
            getattr(work, name)[...] -= lr * grad
    updates = {name: replace(q, centroids=rows[name][None]) for name, q in quantized.items()}
    return replace(model, **{**vars(work), **updates}), losses


def quantize_model(model: ToyModel, cfg: core.QuantConfig) -> ToyModel:
    """Quantize both weight matrices (never the biases); labels freeze here.

    ``ToyModel`` rejects a ``cfg`` of more than one group with ``BadConfigError``.
    """
    return replace(model, w1=grouping.quantize_grouped(_dense(model.w1), cfg, tensor_name="w1"),
                   w2=grouping.quantize_grouped(_dense(model.w2), cfg, tensor_name="w2"))


def _run_epochs(model: ToyModel, x, y, cfg: TrainConfig, epochs: int,
                shuffle_rng: np.random.Generator) -> tuple[ToyModel, list[float]]:
    losses = []
    for _ in range(epochs):
        order = shuffle_rng.permutation(len(x))
        spans = (order[start : start + cfg.batch_size] for start in range(0, len(x), cfg.batch_size))
        model, _ = train_step(model, ((x[idx], y[idx]) for idx in spans), cfg)
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
                   hidden_dim: int = 12, pretrain_epochs: int = 300) -> ExperimentResult:
    """Pretrain in full precision, quantize, fine-tune once per scheme.

    The pretrained model, dataset, and batch order are shared across arms, so
    per-scheme curves differ only in the quantizer.  ``quant_cfg.scheme`` is
    replaced by linear, then k-means.
    """
    task_seed = core._integer("task_seed", task_seed, 0)
    pretrain_epochs = core._integer("pretrain_epochs", pretrain_epochs, 0)
    hidden_dim = core._integer("hidden_dim", hidden_dim, 1)
    data_rng = np.random.default_rng(train_cfg.data_seed)
    x, y = synthetic_regression(_N_SAMPLES, _IN_DIM, hidden_dim, _OUT_DIM, data_rng)

    model = make_toy_model(_IN_DIM, hidden_dim, _OUT_DIM, np.random.default_rng(task_seed))
    model, _ = _run_epochs(model, x, y, train_cfg, pretrain_epochs,
                           np.random.default_rng(train_cfg.data_seed + 1))
    pretrain_loss = model_loss(model, x, y)

    arms = {}
    for scheme in _SCHEMES:
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
