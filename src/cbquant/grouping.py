"""Group-wise quantization: split a tensor into contiguous spans, quantize each.

Groups cover the flattened row-major tensor with balanced contiguous spans.
Each group gets its own codebook and its own derived RNG stream, so the
result is bit-identical to quantizing the spans one by one, in any order.
Balanced spans have at most two lengths, so the groups form at most two 2-D
blocks of equal-length groups, and only k-means loops over single groups.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .errors import (
    CorruptIndexError,
    EmptyInputError,
    NonFiniteInputError,
    ShapeMismatchError,
    TooManyGroupsError,
)

__all__ = [
    "GroupedQuantizedTensor",
    "group_blocks",
    "split_groups",
    "quantize_grouped",
    "reconstruct_grouped",
]


def group_blocks(n: int, group_count: int) -> tuple[tuple[slice, slice, int], ...]:
    """Balanced spans of [0, n) as one or two ``(groups, elements, length)`` blocks.

    The groups in slice ``groups`` cover slice ``elements``, ``length`` each:
    the first ``n % G`` get ``ceil(n/G)``, the rest ``floor(n/G)``.
    """
    if n < 1:
        raise EmptyInputError("cannot split zero elements")
    if group_count < 1:
        raise TooManyGroupsError("group count must be >= 1")
    if group_count > n:
        raise TooManyGroupsError(f"{group_count} groups requested for {n} elements")
    base, rem = divmod(n, group_count)
    cut = rem * (base + 1)
    blocks = ((slice(0, rem), slice(0, cut), base + 1), (slice(rem, group_count), slice(cut, n), base))
    return tuple(block for block in blocks if block[0].stop > block[0].start)


def split_groups(n: int, group_count: int) -> tuple[tuple[int, int], ...]:
    """Balanced contiguous (offset, length) spans covering [0, n), one per group."""
    return tuple((offset, length) for _, elements, length in group_blocks(n, group_count)
                 for offset in range(elements.start, elements.stop, length))


@dataclass(frozen=True)
class GroupedQuantizedTensor:
    """A tensor quantized as G independent contiguous groups.

    Group ``i`` covers ``spans[i]`` of the flattened tensor and owns codebook
    ``centroids[i]``/``occupancy[i]``, which ``labels`` index into.
    """

    shape: tuple[int, ...]
    cfg: core.QuantConfig
    centroids: np.ndarray  # float32, (G, 2**bits)
    occupancy: np.ndarray  # uint32, (G, 2**bits)
    labels: np.ndarray  # uint8, (n,)

    def __post_init__(self):
        for name, dtype in (("centroids", np.float32), ("occupancy", np.uint32), ("labels", np.uint8)):
            object.__setattr__(self, name, core._frozen(np.ascontiguousarray(getattr(self, name), dtype=dtype)))
        group_blocks(self.n, self.cfg.group_count)
        levels = (self.cfg.group_count, self.cfg.n_levels)
        if (self.centroids.shape, self.occupancy.shape, self.labels.shape) != (levels, levels, (self.n,)):
            raise ShapeMismatchError(f"expected {levels} codebooks and {self.n} labels")
        if not np.isfinite(self.centroids).all():
            raise NonFiniteInputError("codebook contains non-finite centroids")
        if int(self.labels.max()) >= self.cfg.n_levels:
            raise CorruptIndexError(f"label out of range for codebooks of {self.cfg.n_levels}")

    @property
    def n(self) -> int:
        return math.prod(self.shape)

    @property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """(offset, length) per group."""
        return split_groups(self.n, self.cfg.group_count)

    @property
    def groups(self) -> tuple[core.QuantizedVector, ...]:
        """One ``QuantizedVector`` view per group, built on each access."""
        # Kept for perfbench/trace_shim.py, which counts groups with `len(result.groups)`.
        return tuple(core.QuantizedVector(core.Codebook(c, o), core.IndexVector(self.labels[i : i + length]))
                     for c, o, (i, length) in zip(self.centroids, self.occupancy, self.spans))


def quantize_grouped(tensor, cfg: core.QuantConfig, tensor_name: str = "") -> GroupedQuantizedTensor:
    """Quantize each contiguous span of the flattened tensor independently.

    Per-group RNG streams are derived from ``(cfg.seed, tensor_name, group
    index)``, so the output matches mapping the flat quantizer over the spans
    sequentially with the same arguments.  Linear quantization runs once per
    block of equal-length groups; k-means runs once per group.
    """
    arr = np.asarray(tensor, dtype=np.float64)
    flat = arr.reshape(-1)
    blocks = group_blocks(flat.size, cfg.group_count)  # checks G <= n before the codebooks are allocated
    levels = (cfg.group_count, cfg.n_levels)
    centroids = np.empty(levels, dtype=np.float32)
    occupancy = np.empty(levels, dtype=np.uint32)
    labels = np.empty(flat.size, dtype=np.uint8)
    if cfg.scheme is core.Scheme.LINEAR:
        for groups, elements, length in blocks:
            block_labels, centroids[groups], occupancy[groups] = core.linear_quantize_rows(
                flat[elements].reshape(-1, length), cfg.n_levels)
            labels[elements] = block_labels.reshape(-1)
    else:
        for i, (offset, length) in enumerate(split_groups(flat.size, cfg.group_count)):
            # Copied out of the per-vector result, whose occupancy perfbench/trace_shim.py counts.
            qv = core.kmeans_quantize(flat[offset : offset + length], cfg, tensor_name, i)
            centroids[i], occupancy[i] = qv.codebook.centroids, qv.codebook.occupancy
            labels[offset : offset + length] = qv.indices.labels
    return GroupedQuantizedTensor(arr.shape, cfg, centroids, occupancy, labels)


def reconstruct_grouped(g: GroupedQuantizedTensor) -> np.ndarray:
    """Replace every label with its group's centroid: a float32 tensor of the original shape."""
    m = g.cfg.n_levels
    out = np.empty(g.n, dtype=np.float32)
    for groups, elements, length in group_blocks(g.n, g.cfg.group_count):
        index = g.labels[elements].reshape(-1, length) + m * np.arange(groups.start, groups.stop)[:, None]
        # Labels were checked at construction; "clip" lets take write to out unbuffered.
        np.take(g.centroids.reshape(-1), index, out=out[elements].reshape(-1, length), mode="clip")
    return out.reshape(g.shape)
