"""Linear and k-means quantization of flat weight vectors.

Both schemes map a real vector to a shared representation: a codebook of
``2**bits`` centroid values plus a per-element index (label) vector.  All
means and error sums are accumulated in float64; codebooks are stored as
float32, matching the on-disk format.

Randomized operations draw from a PCG64 stream (``numpy.random.default_rng``)
whose seed is derived deterministically from ``(seed, tensor_name,
group_index)``, so results never depend on scheduling or thread count.
"""

import enum
import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BadConfigError, EmptyInputError, LengthMismatchError, NonFiniteInputError

__all__ = [
    "Scheme",
    "QuantConfig",
    "Codebook",
    "IndexVector",
    "QuantizedVector",
    "ErrorStats",
    "LloydState",
    "LloydResult",
    "derive_stream_seed",
    "linear_quantize",
    "linear_quantize_rows",
    "kmeanspp_init",
    "lloyd_step",
    "kmeans_cluster",
    "kmeans_quantize",
    "quantize",
    "error_stats",
]


class Scheme(enum.Enum):
    """Quantization scheme selector.  Values double as on-disk scheme ids."""

    LINEAR = 0
    KMEANS = 1


@dataclass(frozen=True)
class QuantConfig:
    """Configuration shared by both quantization schemes.

    Attributes:
        scheme: which quantizer to run.
        bits: index width in bits; the codebook holds ``2**bits`` entries.
        max_iterations: cap on Lloyd iterations (k-means only).
        seed: base seed for the k-means++ random stream.
        convergence_epsilon: k-means stops early once the relative SSE
            improvement of a step falls below this (0 disables the check;
            label stability always stops the loop).
        group_count: number of independently quantized contiguous groups.
    """

    scheme: Scheme
    bits: int
    max_iterations: int = 3
    seed: int = 0
    convergence_epsilon: float = 0.0
    group_count: int = 1

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise BadConfigError(f"unknown scheme: {self.scheme!r}")
        if not 1 <= self.bits <= 8:
            raise BadConfigError(f"bits must be in [1, 8], got {self.bits}")
        if self.max_iterations < 0:
            raise BadConfigError("max_iterations must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise BadConfigError("seed must fit in an unsigned 64-bit integer")
        if not (math.isfinite(self.convergence_epsilon) and self.convergence_epsilon >= 0):
            raise BadConfigError("convergence_epsilon must be finite and >= 0")
        if self.group_count < 1:
            raise BadConfigError("group_count must be >= 1")

    @property
    def n_levels(self) -> int:
        return 1 << self.bits


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Codebook:
    """``2**bits`` centroid values plus the member count of each cluster."""

    centroids: np.ndarray  # float32, shape (2**bits,)
    occupancy: np.ndarray  # uint32, same length

    def __post_init__(self):
        c = _frozen(np.ascontiguousarray(self.centroids, dtype=np.float32))
        o = _frozen(np.ascontiguousarray(self.occupancy, dtype=np.uint32))
        object.__setattr__(self, "centroids", c)
        object.__setattr__(self, "occupancy", o)
        n = len(c)
        if n < 2 or (n & (n - 1)) or n > 256:
            raise BadConfigError(f"codebook size must be a power of two in [2, 256], got {n}")
        if len(o) != n:
            raise LengthMismatchError("occupancy length differs from centroid count")
        if not np.isfinite(c).all():
            raise NonFiniteInputError("codebook contains non-finite centroids")


@dataclass(frozen=True)
class IndexVector:
    """Per-element cluster labels, one codebook index per source element."""

    labels: np.ndarray  # uint8, shape (n,)

    def __post_init__(self):
        lab = _frozen(np.ascontiguousarray(self.labels, dtype=np.uint8))
        object.__setattr__(self, "labels", lab)


# The return type of the per-vector quantizers, kept for perfbench: trace_shim.py reads
# `.codebook.occupancy` and oracle_step.py reads `.indices.labels` of these results.
@dataclass(frozen=True)
class QuantizedVector:
    """A quantized vector: codebook + index vector."""

    codebook: Codebook
    indices: IndexVector


@dataclass(frozen=True)
class ErrorStats:
    """Reconstruction error summary: sum/mean of squared errors and max |err|."""

    sse: float
    mse: float
    max_abs_error: float
    n: int


@dataclass
class LloydState:
    """Mutable k-means iteration state; centroids and sums stay in float64."""

    centroids: np.ndarray  # float64, shape (m,)
    labels: Optional[np.ndarray] = None  # int64, shape (n,); None before first step
    sse: float = math.inf


def derive_stream_seed(seed: int, tensor_name: str = "", group_index: int = 0) -> int:
    """Derive the per-group RNG seed from ``(seed, tensor_name, group_index)``.

    The rule is fixed so independent runs (and independent implementations of
    this format) can reproduce each group's stream: BLAKE2b with an 8-byte
    digest over ``seed`` (u64 LE) || ``tensor_name`` (UTF-8) || ``group_index``
    (u64 LE), read back as a little-endian integer.  The stream itself is
    PCG64 as constructed by ``numpy.random.default_rng``.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", seed))
    h.update(tensor_name.encode("utf-8"))
    h.update(struct.pack("<Q", group_index))
    return int.from_bytes(h.digest(), "little")


def _validate_input(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise EmptyInputError("cannot quantize an empty vector")
    if not np.isfinite(arr).all():
        raise NonFiniteInputError("input contains NaN or infinity")
    return arr


def linear_quantize(v, cfg: QuantConfig) -> QuantizedVector:
    """Quantize ``v`` into ``2**bits`` equal-width bins over [min, max].

    Each element's label is ``floor((v_i - v_min) / width)`` clamped to
    ``[0, 2**bits - 1]``; the centroid of a non-empty bin is the mean of its
    members, while empty bins store their bin midpoint (never referenced).
    A constant vector degenerates to a single bin with zero error.
    """
    if cfg.scheme is not Scheme.LINEAR:
        raise BadConfigError("linear_quantize requires cfg.scheme == Scheme.LINEAR")
    labels, centroids, occupancy = linear_quantize_rows(np.reshape(v, (1, -1)), cfg.n_levels)
    return QuantizedVector(Codebook(centroids[0], occupancy[0]), IndexVector(labels[0]))


def linear_quantize_rows(rows, n_levels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``linear_quantize`` of each row of a 2-D array, bit for bit.

    Returns uint8 labels shaped like ``rows`` and float32 centroids and
    uint32 occupancy shaped ``(len(rows), n_levels)``.
    """
    x = np.asarray(rows, dtype=np.float64)
    _validate_input(x)
    m = n_levels
    lo = x.min(axis=1, keepdims=True)
    hi = x.max(axis=1, keepdims=True)
    constant = lo == hi
    width = (hi - lo) / m
    # A constant row divides its zero offsets by 1, so all its labels are 0.
    scaled = np.subtract(x, lo)
    np.divide(scaled, np.where(constant, 1.0, width), out=scaled)
    np.floor(scaled, out=scaled)
    labels = scaled.astype(np.int64)
    del scaled
    np.clip(labels, 0, m - 1, out=labels)
    out_labels = labels.astype(np.uint8)
    # One bincount over every row: row i's bins are i*m ... i*m + m - 1.
    labels += m * np.arange(len(x))[:, None]
    occupancy = np.bincount(labels.reshape(-1), minlength=len(x) * m).reshape(-1, m)
    sums = np.bincount(labels.reshape(-1), weights=x.reshape(-1), minlength=len(x) * m)
    midpoints = lo + (np.arange(m) + 0.5) * width
    centroids = np.divide(sums.reshape(-1, m), occupancy, out=midpoints, where=occupancy > 0)
    # A constant row keeps its exact value (and sign of zero) in every slot.
    centroids = np.where(constant, lo, centroids)
    return out_labels, centroids.astype(np.float32), occupancy.astype(np.uint32)


def kmeanspp_init(v, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """Pick ``n_clusters`` initial centroids from ``v`` by squared-distance weighting.

    The first centroid is drawn uniformly from the elements of ``v``; each
    later one is drawn with probability proportional to the squared distance
    to its nearest already-chosen centroid.  Chosen centroids are therefore
    distinct values; once every distinct value is taken, the remaining slots
    are padded with copies of the last pick (they end up with zero members
    because ties in assignment go to the lowest cluster index).
    """
    arr = _validate_input(v)
    if not 1 <= n_clusters <= 256:
        raise BadConfigError(f"n_clusters must be in [1, 256], got {n_clusters}")

    first = arr[int(rng.integers(arr.size))]
    chosen = [first]
    d2 = np.square(arr - first)
    cum = np.empty_like(d2)
    tmp = np.empty_like(d2)
    while len(chosen) < n_clusters:
        np.cumsum(d2, out=cum)
        # The terms are non-negative, so the running total is 0 iff all are.
        if cum[-1] == 0.0:
            break  # every element already coincides with a centroid
        r = rng.random() * cum[-1]
        idx = int(np.searchsorted(cum, r, side="right"))
        if idx >= arr.size:  # r rounded up onto the total
            idx = int(np.flatnonzero(d2 > 0)[-1])
        chosen.append(arr[idx])
        np.subtract(arr, arr[idx], out=tmp)
        np.square(tmp, out=tmp)
        np.minimum(d2, tmp, out=d2)

    out = np.empty(n_clusters, dtype=np.float64)
    out[: len(chosen)] = chosen
    out[len(chosen):] = chosen[-1]
    return out


def _dense_assign(arr: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``argmin_j |x - c_j|`` by brute force; ties go to the lowest index."""
    m = len(centroids)
    labels = np.empty(arr.size, dtype=np.int64)
    chunk = max(1, (2 << 20) // m)
    for start in range(0, arr.size, chunk):
        block = arr[start : start + chunk]
        dist = np.abs(block[:, None] - centroids[None, :])
        labels[start : start + chunk] = dist.argmin(axis=1)
    return labels


_ASSIGN_CHUNK = 1 << 16


def _assign(arr: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels; ties go to the lowest cluster index.

    Equal to ``_dense_assign`` in O(n log m).  For a fixed x, the rounded
    ``|x - c|`` never increases as c rises towards x and never decreases as
    c moves away above it, so the minimum sits at one of the two sorted
    neighbours of x.  A run of equal centroids answers with its lowest
    original index.  Rounding can also give a farther, distinct centroid
    the same distance as the nearest one (x=1 against 0 and 1e-20); when
    the next distinct value beyond either neighbour ties the minimum, that
    element is settled by ``_dense_assign``.
    """
    m = len(centroids)
    order = np.argsort(centroids, kind="stable")
    # Sorted centroids between -inf/+inf sentinels, which never win a label.
    ext = np.concatenate(([-np.inf], centroids[order], [np.inf]))
    run_start = np.searchsorted(ext, ext, side="left")
    next_run = np.searchsorted(ext, ext, side="right")
    # A position answers with the lowest original index of its run of equals.
    rep = np.r_[m, order, m][run_start]
    # The next distinct value below and above each position's run.
    below = ext[np.maximum(run_start - 1, 0)]
    above = ext[np.minimum(next_run, m + 1)]

    labels = np.empty(arr.size, dtype=np.int64)
    for start in range(0, arr.size, _ASSIGN_CHUNK):
        x = arr[start : start + _ASSIGN_CHUNK]
        left = np.searchsorted(ext, x, side="right") - 1  # ext[left] <= x < ext[left + 1]
        right = left + 1
        d_left = np.abs(x - ext[left])
        d_right = np.abs(x - ext[right])
        best = np.minimum(d_left, d_right)
        lab = np.minimum(np.where(d_left == best, rep[left], m),
                         np.where(d_right == best, rep[right], m))
        ambiguous = np.flatnonzero((np.abs(x - below[left]) == best)
                                   | (np.abs(x - above[right]) == best))
        if ambiguous.size:
            lab[ambiguous] = _dense_assign(x[ambiguous], centroids)
        labels[start : start + _ASSIGN_CHUNK] = lab
    return labels


def _state_sse(arr: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    return float(np.sum(np.square(arr - centroids[labels])))


def lloyd_step(v, state: LloydState) -> tuple[LloydState, bool]:
    """One assignment + centroid-update pass of Lloyd's algorithm.

    Every element moves to its nearest centroid, then each centroid with
    members is replaced by their mean (float64 accumulation); a centroid
    with no members keeps its previous value.  Returns the updated state
    (with the SSE of the new labels against the new centroids) and a flag
    that is True iff any label changed.
    """
    arr = _validate_input(v)
    if len(state.centroids) == 0:
        raise BadConfigError("lloyd_step requires at least one centroid")
    centroids = np.asarray(state.centroids, dtype=np.float64)

    labels = _assign(arr, centroids)
    changed = state.labels is None or bool(np.any(labels != state.labels))

    occupancy = np.bincount(labels, minlength=len(centroids))
    sums = np.bincount(labels, weights=arr, minlength=len(centroids))
    new_centroids = np.divide(sums, occupancy, out=centroids.copy(), where=occupancy > 0)

    sse = _state_sse(arr, labels, new_centroids)
    return LloydState(new_centroids, labels, sse), changed


@dataclass(frozen=True)
class LloydResult:
    """Converged (or iteration-capped) k-means clustering in float64."""

    centroids: np.ndarray  # float64
    labels: np.ndarray  # int64
    sse: float
    iterations: int


def kmeans_cluster(v, cfg: QuantConfig, tensor_name: str = "", group_index: int = 0) -> LloydResult:
    """k-means++ init followed by at most ``cfg.max_iterations`` Lloyd steps.

    Stops early when no label changes, or (with ``convergence_epsilon > 0``)
    when the relative SSE improvement of a step drops below the epsilon.
    Deterministic given the input and ``(seed, tensor_name, group_index)``.
    """
    if cfg.scheme is not Scheme.KMEANS:
        raise BadConfigError("k-means operations require cfg.scheme == Scheme.KMEANS")
    arr = _validate_input(v)
    rng = np.random.default_rng(derive_stream_seed(cfg.seed, tensor_name, group_index))
    state = LloydState(kmeanspp_init(arr, cfg.n_levels, rng))

    iterations = 0
    for _ in range(cfg.max_iterations):
        prev_sse = state.sse
        state, changed = lloyd_step(arr, state)
        iterations += 1
        if not changed:
            break
        if cfg.convergence_epsilon > 0 and math.isfinite(prev_sse):
            improvement = 0.0 if prev_sse == 0 else (prev_sse - state.sse) / prev_sse
            if improvement < cfg.convergence_epsilon:
                break

    if state.labels is None:  # max_iterations == 0: assign once, keep init centroids
        labels = _assign(arr, state.centroids)
        state = LloydState(state.centroids, labels, _state_sse(arr, labels, state.centroids))
    return LloydResult(state.centroids, state.labels, state.sse, iterations)


def kmeans_quantize(v, cfg: QuantConfig, tensor_name: str = "", group_index: int = 0) -> QuantizedVector:
    """Quantize ``v`` by k-means clustering into ``2**bits`` clusters."""
    result = kmeans_cluster(v, cfg, tensor_name, group_index)
    occupancy = np.bincount(result.labels, minlength=len(result.centroids))
    return QuantizedVector(Codebook(result.centroids.astype(np.float32), occupancy.astype(np.uint32)),
                           IndexVector(result.labels.astype(np.uint8)))


def quantize(v, cfg: QuantConfig, tensor_name: str = "", group_index: int = 0) -> QuantizedVector:
    """Dispatch to the scheme selected by ``cfg``."""
    if cfg.scheme is Scheme.LINEAR:
        return linear_quantize(v, cfg)
    return kmeans_quantize(v, cfg, tensor_name, group_index)


def error_stats(reference, candidate) -> ErrorStats:
    """SSE / MSE / max-abs error of ``candidate`` against ``reference``, elementwise in float64."""
    if np.size(reference) != np.size(candidate):
        raise LengthMismatchError(f"{np.size(reference)} reference elements against {np.size(candidate)}")
    if np.size(reference) == 0:
        raise EmptyInputError("cannot compare empty tensors")
    # One float64 buffer: the difference, then its square in place.
    diff = np.subtract(np.reshape(reference, -1), np.reshape(candidate, -1), dtype=np.float64)
    max_err = float(max(diff.max(), -diff.min()))
    sse = float(np.sum(np.square(diff, out=diff)))
    return ErrorStats(sse=sse, mse=sse / diff.size, max_abs_error=max_err, n=diff.size)
