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
    n, group_count = core._integer("element count", n), core._integer("group count", group_count)
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
        try:
            shape = tuple(self.shape)
        except TypeError:
            raise ShapeMismatchError(f"shape must be a sequence of integers, got {self.shape!r}") from None
        object.__setattr__(self, "shape", tuple(core._integer("shape entry", d, 0, error=ShapeMismatchError)
                                                for d in shape))
        for name, dtype in (("centroids", np.float32), ("occupancy", np.uint32)):
            object.__setattr__(self, name, core._frozen(np.ascontiguousarray(getattr(self, name), dtype=dtype)))
        labels = np.asarray(self.labels)
        group_blocks(self.n, self.cfg.group_count)
        levels = (self.cfg.group_count, self.cfg.n_levels)
        if (self.centroids.shape, self.occupancy.shape, labels.shape) != (levels, levels, (self.n,)):
            raise ShapeMismatchError(f"expected {levels} codebooks and {self.n} labels")
        if not np.isfinite(self.centroids).all():
            raise NonFiniteInputError("codebook contains non-finite centroids")
        core._labels(labels, self.cfg.n_levels, CorruptIndexError)
        object.__setattr__(self, "labels", core._frozen(np.ascontiguousarray(labels, dtype=np.uint8)))

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
    sequentially with the same arguments.  Linear quantization runs on whole
    rows of a block of equal-length groups, at most ``core._ASSIGN_CHUNK``
    elements at a time unless one row is longer; k-means runs once per group.
    Each chunk or group is cast to float64 on its own, never the whole tensor.

    The sweep's ``_kmeans_widths`` gives the same k-means bytes from a
    ``_value_order`` of the tensor.
    """
    arr = np.asarray(tensor)
    flat = arr.reshape(-1)
    blocks = group_blocks(flat.size, cfg.group_count)  # checks G <= n before the codebooks are allocated
    centroids, occupancy, labels = _empty_result(flat.size, cfg)
    if cfg.scheme is core.Scheme.LINEAR:
        for groups, elements, length in blocks:
            rows, out = flat[elements].reshape(-1, length), labels[elements].reshape(-1, length)
            step = _chunk_shape(length)[0]
            for r in range(0, len(rows), step):
                chunk = slice(r, r + step)
                out[chunk], centroids[groups][chunk], occupancy[groups][chunk] = core.linear_quantize_rows(
                    rows[chunk], cfg.n_levels)
    else:
        for i, (offset, length) in enumerate(split_groups(flat.size, cfg.group_count)):
            span = slice(offset, offset + length)
            # Copied out of the per-vector result, whose occupancy perfbench/trace_shim.py counts.
            qv = core.kmeans_quantize(flat[span], cfg, tensor_name, i)
            centroids[i], occupancy[i] = qv.codebook.centroids, qv.codebook.occupancy
            labels[span] = qv.indices.labels
    return GroupedQuantizedTensor(arr.shape, cfg, centroids, occupancy, labels)


def _empty_result(n: int, cfg: core.QuantConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The centroids, occupancy and labels arrays of a result, to be filled in."""
    levels = (cfg.group_count, cfg.n_levels)
    return np.empty(levels, dtype=np.float32), np.empty(levels, dtype=np.uint32), np.empty(n, dtype=np.uint8)


def _value_order(tensor, group_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Each group of the flattened ``tensor`` in ascending order, as the
    ``(perm, values)`` pair that ``core._kmeanspp_sorted`` and
    ``core._kmeans_cluster`` take.

    Over each group's span, ``perm`` lists the group's element offsets by
    ascending value (int32 below 2**31 elements a group) and ``values`` the
    float64 values in that order: 12 bytes an element, both read-only.
    A block of groups whose values are all float32 values, as every
    tensor of a bundle is, is sorted as 64-bit (value, offset) keys
    (``core._sorted_keys``), which puts equal values in offset order; any
    other block by ``argsort``.  Rejects empty or non-finite input as
    ``quantize_grouped`` does.
    """
    flat = np.asarray(tensor).reshape(-1)
    blocks = group_blocks(flat.size, group_count)
    perm = np.empty(flat.size, dtype=np.int32 if blocks[0][2] < 2**31 else np.int64)
    values = np.empty(flat.size)
    for _, elements, length in blocks:
        rows = flat[elements].reshape(-1, length)
        ascending = values[elements].reshape(-1, length)
        keys = core._sorted_keys(rows)
        if keys is None:
            rows = np.asarray(rows, dtype=np.float64)
            order = np.argsort(rows, axis=1)
            perm[elements] = order.reshape(-1)
            order += length * np.arange(len(rows))[:, None]
            np.take(rows, order, out=ascending)
        else:
            block_perm, block_values = perm[elements], values[elements]
            for s, v, columns in core._split_keys(keys):
                block_values[s : s + v.size] = v
                block_perm[s : s + v.size] = columns
        # NaN sorts last, so each row's ends show any non-finite value.
        if not np.isfinite(ascending[:, [0, -1]]).all():
            raise NonFiniteInputError("input contains NaN or infinity")
    return core._frozen(perm), core._frozen(values)


def _kmeans_widths(tensor, order, cfgs, tensor_name: str = ""):
    """``quantize_grouped(tensor, cfg, tensor_name)`` for each k-means config
    of ``cfgs``, which differ only in bits, from one k-means++ draw per group.

    ``order`` is the ``_value_order`` of ``tensor`` at the configs' group
    count.  The stream of a group's draw is seeded from the seed, the tensor
    name and the group (``core.derive_stream_seed``), not from the bit width,
    and each pick depends only on the picks before it and the stream.  So
    the picks at ``2**b`` clusters are the first ``2**b`` picks at ``2**B``
    for b < B, padding included.  Each group draws once, on the order's
    sorted values, at the widest config's cluster count, after the check
    of its float32 range; then each config in turn runs Lloyd's steps from
    its prefix of the picks.  Yields the results in the order of ``cfgs``,
    one at a time, so each can be dropped before the next is built.
    """
    flat = np.asarray(tensor).reshape(-1)
    perm, values = order
    spans = [slice(offset, offset + length) for offset, length in split_groups(flat.size, cfgs[0].group_count)]
    picks = np.empty((len(spans), max(cfg.n_levels for cfg in cfgs)))
    for i, span in enumerate(spans):
        ascending = values[span]  # the order checked the values; its sorted ends are the group's min and max
        core._check_float32_range(ascending[0], ascending[-1])
        picks[i] = core._kmeanspp_sorted(np.asarray(flat[span], dtype=np.float64), picks.shape[1],
                                         core._kmeans_stream(cfgs[0], tensor_name, i), (perm[span], ascending))
    for cfg in cfgs:
        centroids, occupancy, labels = _empty_result(flat.size, cfg)
        for i, span in enumerate(spans):
            centroids[i], labels[span], occupancy[i], _ = core._kmeans_cluster(
                np.asarray(flat[span], dtype=np.float64), picks[i, : cfg.n_levels], cfg.max_iterations,
                (perm[span], values[span]))
        yield GroupedQuantizedTensor(np.shape(tensor), cfg, centroids, occupancy, labels)


def _chunk_shape(length: int) -> tuple[int, int]:
    """Rows and columns of one chunk of a block of labels with ``length`` labels a
    row: whole rows of at most ``core._ASSIGN_CHUNK`` labels in all, or one
    piece of a longer row."""
    return max(1, core._ASSIGN_CHUNK // length), min(length, core._ASSIGN_CHUNK)


def _label_chunks(rows: int, length: int):
    """Walk a (rows, length) block of labels, one group per row, in chunks of
    ``_chunk_shape(length)``; a piece of a long row starts at a multiple of
    ``core._ASSIGN_CHUNK``.  Yields ``(rows, cols)`` slices of the block.
    """
    rows_per_chunk, cols_per_chunk = _chunk_shape(length)
    for r in range(0, rows, rows_per_chunk):
        for c in range(0, length, cols_per_chunk):
            yield slice(r, r + rows_per_chunk), slice(c, c + cols_per_chunk)


def _codebook_index(labels: np.ndarray, n_levels: int):
    """Walk a 2-D block of labels by ``_label_chunks``.

    Yields ``(rows, cols, index)``: ``index`` is ``labels[rows, cols]`` plus
    ``n_levels`` times each label's row within ``rows``, so it indexes the
    flattened codebooks of those rows.  ``index`` is one buffer, rewritten on
    the next step.
    """
    rows_per_chunk, cols_per_chunk = _chunk_shape(labels.shape[1])
    buf = np.empty(min(labels.size, rows_per_chunk * cols_per_chunk), dtype=np.intp)
    row_base = n_levels * np.arange(min(len(labels), rows_per_chunk), dtype=np.intp)[:, None]
    for rows, cols in _label_chunks(*labels.shape):
        block = labels[rows, cols]
        index = buf[: block.size].reshape(block.shape)
        np.add(block, row_base[: len(block)], out=index)
        yield rows, cols, index


def reconstruct_grouped(g: GroupedQuantizedTensor) -> np.ndarray:
    """Replace every label with its group's centroid: a float32 tensor of the original shape.

    Beyond the output it holds one chunk of ``core._ASSIGN_CHUNK`` indices.
    """
    out = np.empty(g.n, dtype=np.float32)
    _reconstruct_into(g, out)
    return out.reshape(g.shape)


def _reconstruct_into(g: GroupedQuantizedTensor, out: np.ndarray) -> None:
    """Write every label's centroid into the flat ``out``, in ``out``'s float dtype."""
    centroids = g.centroids.astype(out.dtype, copy=False)
    for groups, elements, length in group_blocks(g.n, g.cfg.group_count):
        codebooks, dest = centroids[groups], out[elements].reshape(-1, length)
        for rows, cols, index in _codebook_index(g.labels[elements].reshape(-1, length), g.cfg.n_levels):
            # Labels were checked at construction; "clip" lets take write to out unbuffered.
            np.take(codebooks[rows].reshape(-1), index, out=dest[rows, cols], mode="clip")
