"""Linear and k-means quantization of flat weight vectors.

Both schemes map a real vector to a shared representation: a codebook of
``2**bits`` centroid values plus a per-element index (label) vector.  All
means and error sums are accumulated in float64; codebooks are stored as
float32, matching the on-disk format.

Randomized operations draw from a PCG64 stream (``numpy.random.default_rng``)
whose seed is derived deterministically from ``(seed, tensor_name,
group_index)``, so results never depend on scheduling or worker count.
"""

import bisect
import enum
import hashlib
import math
import operator
import struct
from dataclasses import dataclass

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
    "derive_stream_seed",
    "linear_quantize",
    "linear_quantize_rows",
    "kmeanspp_init",
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
        group_count: number of independently quantized contiguous groups.

    These are exactly the config fields of a CBQ header, so a config
    survives a write/read round trip; the two counts must fit its u32s and
    the seed its u64.  The four numbers are stored as ``int`` (``_integer``).
    """

    scheme: Scheme
    bits: int
    max_iterations: int = 3
    seed: int = 0
    group_count: int = 1

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            raise BadConfigError(f"unknown scheme: {self.scheme!r}")
        for name, lo, hi in (("bits", 1, 8), ("max_iterations", 0, _U32_MAX), ("seed", 0, _U64_MAX),
                             ("group_count", 1, _U32_MAX)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), lo, hi))

    @property
    def n_levels(self) -> int:
        return 1 << self.bits


# The largest values of the CBQ header's unsigned 32- and 64-bit fields, and
# how a range error names the range of each.
_U32_MAX, _U64_MAX = 2**32 - 1, 2**64 - 1
_NAMED_RANGES = {(0, _U32_MAX): "fit in an unsigned 32-bit integer",
                 (0, _U64_MAX): "fit in an unsigned 64-bit integer"}


def _integer(name: str, value, lo=-math.inf, hi=math.inf, error: type = BadConfigError) -> int:
    """``value`` as an ``int`` in ``[lo, hi]``: numpy integers are taken.

    A bool, or anything ``operator.index`` refuses, raises ``error`` ("...
    must be an integer"); an integer out of range raises ``error`` naming
    its bound ("bits must be in [1, 8], got 9", "epochs must be >= 0, got -1").
    """
    if not isinstance(value, bool):
        try:
            index = operator.index(value)
        except TypeError:
            pass
        else:
            if lo <= index <= hi:
                return index
            bound = _NAMED_RANGES.get((lo, hi)) or (f"be >= {lo}" if hi == math.inf else f"be in [{lo}, {hi}]")
            raise error(f"{name} must {bound}, got {index}")
    raise error(f"{name} must be an integer, got {value!r}")


def _labels(labels: np.ndarray, n_levels: int, error: type) -> None:
    """Raise ``error`` unless every label is an integer (or a bool) in
    ``[0, n_levels)``.  Checked before any cast, which would wrap or
    truncate a bad label; an empty array passes whatever its dtype, since
    an empty list is float64 to numpy."""
    if labels.size and labels.dtype.kind not in "biu":
        raise error(f"labels must be integers, got {labels.dtype}")
    # Only a signed dtype can hold a label below 0, so only it pays for the min() pass.
    if labels.size and ((labels.dtype.kind == "i" and labels.min() < 0) or labels.max() >= n_levels):
        raise error(f"labels must lie in [0, {n_levels})")


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


@dataclass(frozen=True)
class LloydState:
    """A finished ``kmeans_cluster`` run of ``iterations`` Lloyd steps; centroids and sums stay in float64."""

    centroids: np.ndarray  # float64, shape (m,)
    labels: np.ndarray  # uint8, shape (n,)
    sse: float
    iterations: int


def derive_stream_seed(seed: int, tensor_name: str = "", group_index: int = 0) -> int:
    """Derive the per-group RNG seed from ``(seed, tensor_name, group_index)``.

    The rule is fixed so independent runs (and independent implementations of
    this format) can reproduce each group's stream: BLAKE2b with an 8-byte
    digest over ``seed`` (u64 LE) || ``tensor_name`` (UTF-8) || ``group_index``
    (u64 LE), read back as a little-endian integer.  The stream itself is
    PCG64 as constructed by ``numpy.random.default_rng``.  The bit width is
    not part of the seed: a group's k-means++ picks at ``2**b`` clusters are
    the first ``2**b`` of its picks at any wider width, so a sweep over bit
    widths draws once per group, at its largest width.  An implementation
    that reproduces a sweep must leave the width out of the seed too.
    """
    seed, group_index = _integer("seed", seed, 0, _U64_MAX), _integer("group_index", group_index, 0, _U64_MAX)
    if not isinstance(tensor_name, str):
        raise BadConfigError(f"tensor_name must be a str, got {tensor_name!r}")
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


_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _check_float32_range(lo: float, hi: float) -> None:
    """Reject input whose min ``lo`` or max ``hi`` lies beyond the float32
    range, where the float32 codebook could not hold its centroids."""
    if lo < -_FLOAT32_MAX or hi > _FLOAT32_MAX:
        raise NonFiniteInputError(f"input has values beyond the float32 range (|x| > {_FLOAT32_MAX:.8g})")


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
    _check_float32_range(lo.min(), hi.max())
    constant = lo == hi
    width = (hi - lo) / m
    # A row whose bin width is 0 (a constant row, or one whose span underflows
    # when split) divides its offsets by 1: they are 0 or subnormal, so its labels are 0.
    divisor = np.where(width == 0, 1.0, width)
    # The scaled values of a long row pass into the int64 labels one chunk of columns at a time.
    labels = np.empty(x.shape, dtype=np.int64)
    for c in range(0, x.shape[1], _ASSIGN_CHUNK):
        scaled = np.subtract(x[:, c : c + _ASSIGN_CHUNK], lo)
        np.divide(scaled, divisor, out=scaled)
        np.floor(scaled, out=scaled)
        labels[:, c : c + _ASSIGN_CHUNK] = scaled
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


# k-means++ sums the squared distances in blocks of this many elements to find each pick.
_PICK_BLOCK = 1024
# kmeanspp_init keeps the squared distances in value order from this many
# clusters and elements on; below either, one full pass per pick is faster.
_SORTED_MIN_CLUSTERS = 64
_SORTED_MIN_SIZE = 1 << 17


def _pick_margin(n: int, depth: float, total: float) -> float:
    """A bound on the distance between any estimate of a prefix sum of n
    non-negative terms, summed along a tree of at most ``depth`` additions
    per term, and the exact sequential one, counting the rounding of the
    draw ``q * total`` too (Higham, ch. 4: each is within ``(n + depth) *
    2**-53`` of the true sum; the factor 4 leaves headroom)."""
    return 4 * (n + depth + 8) * 2.0**-53 * total + n * 2.0**-1074


def _certified_pick(ends: np.ndarray, fill, size: int, n: int, rt: float, margin: float) -> int:
    """The index that ``searchsorted(cumsum(d2), r, side="right")`` gives for
    every ``r`` within ``margin`` of ``rt``, or -1 when the block estimates
    cannot prove one.

    ``ends`` holds the running totals of the sums of the consecutive blocks
    of ``size`` elements of ``d2``, which has ``n``; ``fill`` is as
    ``_sequential_pick`` takes it.  Each estimate of a prefix sum is within
    ``margin`` of the exact sequential one.
    """
    b = int(ends.searchsorted(rt, "right"))
    if b >= len(ends):
        return -1
    before = float(ends[b - 1]) if b else 0.0
    local = np.empty(min(size, n - b * size))
    fill(b * size, local)
    np.add.accumulate(local, out=local)
    local += before
    j = int(local.searchsorted(rt, "right"))
    if j < len(local) and (float(local[j - 1]) if j else before) < rt - margin and local[j] > rt + margin:
        return b * size + j
    return -1


def _padded(chosen: list, n_clusters: int) -> np.ndarray:
    out = np.empty(n_clusters, dtype=np.float64)
    out[: len(chosen)] = chosen
    out[len(chosen):] = chosen[-1]
    return out


def kmeanspp_init(v, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """Pick ``n_clusters`` initial centroids from ``v`` by squared-distance weighting.

    The first centroid is drawn uniformly from the elements of ``v``; each
    later one is drawn with probability proportional to the squared distance
    to its nearest already-chosen centroid.  Chosen centroids are therefore
    distinct values; once every distinct value is taken, the remaining slots
    are padded with copies of the last pick (they end up with zero members
    because ties in assignment go to the lowest cluster index).

    The draw is defined by the sequential prefix sums ``cum`` of the squared
    distances ``d2``: a pick draws ``q = rng.random()`` and takes
    ``searchsorted(cum, q * cum[-1], side="right")``, or the last element
    with ``d2 > 0`` when that index runs off the end.  Each pick finds the
    same index without that full-length sequential ``cumsum``.  It sums
    ``d2`` in blocks, finds the block of ``rt = q * total`` in their running
    totals, and runs a ``cumsum`` within that block only
    (``_certified_pick``).  Any summation order of n non-negative terms is
    within about ``n * 2**-53`` times their true sum (Higham, ch. 4), so
    every estimated prefix, the exact ``cum`` and ``q * cum[-1]`` against
    ``rt`` differ by less than a margin ``m`` (``_pick_margin``).  When the
    estimated prefix before the candidate is below ``rt - m`` and the one
    through it is above ``rt + m``, the candidate is the sequential draw's
    index.  Otherwise (a boundary within ``m`` of ``rt``, ``q == 0``, ``rt``
    at the top of the range, a non-finite or near-overflow total) the pick
    runs the sequential ``cumsum``.  Either way the output is the same, bit
    for bit.  One function, ``_draw``, holds this whole rule, from the
    zero-total stop before ``rng.random()`` to the sequential fallback, and
    both loops below pick through it.

    Two loops keep ``d2`` up to date.  Below ``_SORTED_MIN_CLUSTERS``
    clusters or ``_SORTED_MIN_SIZE`` elements, each pick updates all of
    ``d2`` and sums it in blocks of ``_PICK_BLOCK`` (``_kmeanspp_full_pass``).
    From both on, ``d2`` is kept in value order and each pick updates only
    the range of values it can move (``_kmeanspp_sorted``): a new pick c
    between the sorted picks a < c < b lowers no ``d2`` at or below the
    exact midpoint of a and c, because there ``|x - a| <= |x - c|`` and
    rounded subtraction and squaring are monotone, so the rounded
    ``(x - a)**2``, which ``d2`` already undercuts, is at most the rounded
    ``(x - c)**2``; the same holds at or above the midpoint of c and b.  By
    the same argument an element's ``d2``, the running minimum over every
    pick, is the smaller rounded square distance to its two neighbouring
    picks, so the sorted loop recomputes a chunk of ``d2`` in element order
    from the input rather than keeping a map back from elements to sorted
    positions.
    """
    arr = _validate_input(v)
    n_clusters = _integer("n_clusters", n_clusters, 1, 256)
    if n_clusters >= _SORTED_MIN_CLUSTERS and arr.size >= _SORTED_MIN_SIZE:
        return _kmeanspp_sorted(arr, n_clusters, rng)
    return _kmeanspp_full_pass(arr, n_clusters, rng)


def _kmeanspp_full_pass(arr: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """``kmeanspp_init`` on float64 ``arr`` with one full pass over ``d2`` per pick."""
    n = arr.size
    d2 = np.full(n, np.inf)
    scratch = np.empty_like(d2)
    starts = np.arange(0, n, _PICK_BLOCK)
    ends = np.empty(starts.size)  # the block sums, then their running totals
    chosen = []
    idx = int(rng.integers(n))  # the first pick is uniform
    while idx >= 0:  # -1: every element already coincides with a centroid
        chosen.append(arr[idx])
        # Updated after the last pick too: its overflow warnings are the definition's.
        np.subtract(arr, arr[idx], out=scratch)
        np.square(scratch, out=scratch)
        np.minimum(d2, scratch, out=d2)
        if len(chosen) == n_clusters:
            break
        # An overflow here sends the pick to the sequential cumsum, which warns if it overflows too.
        # The block sums are only estimates for _certified_pick: its depth, 2 * _PICK_BLOCK + n /
        # _PICK_BLOCK, allows any summation order within a block, so every pick stays the sequential draw's.
        with np.errstate(over="ignore"):
            np.add.reduceat(d2, starts, out=ends)
            np.add.accumulate(ends, out=ends)
        idx = _draw(rng, n, ends, _PICK_BLOCK, 2 * _PICK_BLOCK + n / _PICK_BLOCK,
                    lambda s, out: np.copyto(out, d2[s : s + out.size]))
    return _padded(chosen, n_clusters)


def _draw(rng: np.random.Generator, n: int, ends: np.ndarray, size: int, depth: float, fill) -> int:
    """One k-means++ pick from ``d2`` of ``n`` elements: the sequential
    draw's index (``kmeanspp_init``), or -1, with nothing drawn, when every
    ``d2`` is 0.  Both loops of ``kmeanspp_init`` pick through this one rule.

    ``ends`` and ``size`` are as ``_certified_pick`` takes them, and each
    block estimate passes a term through at most ``depth`` additions;
    ``fill`` is as ``_sequential_pick`` takes it.
    """
    total = float(ends[-1])
    # The terms are non-negative, so any sum of them is 0 iff all are.
    if total == 0.0:
        return -1
    q = rng.random()
    # Below 2**1022 no prefix, summed in any order, overflows.
    idx = _certified_pick(ends, fill, size, n, q * total, _pick_margin(n, depth, total)) if total < 2.0**1022 else -1
    return idx if idx >= 0 else _sequential_pick(n, fill, q)


def _sequential_pick(n: int, fill, q: float) -> int:
    """The sequential draw's index, ``searchsorted(cum, q * cum[-1],
    side="right")`` with ``cum = cumsum(d2)``, or the last element with
    ``d2 > 0`` when that runs off the end; ``fill(s, out)`` writes
    ``d2[s : s + len(out)]`` into ``out``.

    The ``cumsum`` runs one chunk at a time, each chunk accumulated after
    the running sum carried from the last, so every prefix, and any overflow
    warning, is the full-length ``cumsum``'s.
    """
    buf = np.empty(min(n, _ASSIGN_CHUNK) + 1)
    carried = [0.0]  # the running sum before each chunk, then the total

    def prefixes(s):
        part = buf[: min(_ASSIGN_CHUNK, n - s) + 1]
        part[0] = carried[s // _ASSIGN_CHUNK]
        fill(s, part[1:])
        np.add.accumulate(part, out=part)
        return part[1:]

    for s in range(0, n, _ASSIGN_CHUNK):
        carried.append(prefixes(s)[-1])
    r = q * carried[-1]
    c = int(np.searchsorted(carried[1:], r, side="right"))
    if c * _ASSIGN_CHUNK < n:
        with np.errstate(over="ignore"):  # this chunk has warned once already
            return c * _ASSIGN_CHUNK + int(np.searchsorted(prefixes(c * _ASSIGN_CHUNK), r, side="right"))
    for s in reversed(range(0, n, _ASSIGN_CHUNK)):  # r rounded up onto the total
        part = buf[: min(_ASSIGN_CHUNK, n - s)]
        fill(s, part)
        positive = np.flatnonzero(part > 0)
        if positive.size:
            return s + int(positive[-1])
    raise AssertionError("a draw from a zero total")


def _neighbour_d2(x: np.ndarray, picks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` each element's smaller rounded square distance to
    its two neighbouring values among the sorted ``picks``, which is the
    minimum over all of them (``kmeanspp_init``).  An element beyond the
    picks on one side takes the outermost pick twice."""
    rank = picks.searchsorted(x, "right")
    # picks[rank - 1] and picks[rank], each clipped into range.
    np.subtract(x, np.append(picks[:1], picks).take(rank, mode="clip"), out=out)
    np.square(out, out=out)
    above = np.subtract(x, picks.take(rank, mode="clip"))
    np.minimum(out, np.square(above, out=above), out=out)
    return out


def _kmeanspp_sorted(arr: np.ndarray, n_clusters: int, rng: np.random.Generator, order=None) -> np.ndarray:
    """``kmeanspp_init`` on float64 ``arr`` with ``d2`` in value order, each
    pick updating only the sorted range it can move.

    ``order`` is ``(perm, values)``: ``perm`` maps sorted positions to
    elements and ``values`` is ``arr[perm]``, ascending.  Without it the
    loop sorts ``arr`` itself.  Either way one reader serves the loop: a
    chunk of sorted values is the order's, or gathered through ``perm``,
    and a value's sorted position comes from every 64th sorted value and
    one short gather, exact for both.  Each pick goes through ``_draw``,
    the one copy of the draw rule, which the full pass uses too.  Layout:
    ``perm``, int32 below 2**31 elements, and ``d2`` in sorted
    order: 12 bytes an element, 8 with a given order.  To locate a pick,
    ``table[row, chunk]`` sums ``d2`` over the sorted positions of one row
    (``side`` consecutive ones) whose elements lie in one chunk (``width``
    consecutive elements, a 32nd of ``side``); a pick recomputes the
    rows its range touched.  The column totals are the chunk sums of ``d2``
    in element order, so ``_certified_pick`` finds the pick's chunk from
    them and accumulates that chunk, recomputed in element order from the
    input and the picks so far (``_neighbour_d2``).  That is the loop's one
    reader of ``d2`` in element order: a pick that falls back to the
    sequential ``cumsum`` recomputes every chunk the same way, so the loop
    keeps no map from elements back to sorted positions.  ``d2`` starts at
    ``+inf`` and the first pick, drawn uniformly, updates all of it, as
    every later pick updates its own range.  A term passes through at most ``side`` additions in its cell, one per
    row and chunk in the totals and ``width + 1`` in the chunk, which sets
    the margin.  When the input's span squared overflows, some squared
    distance warns in the definition on every pick; the full pass then runs
    instead, so that every warning is the definition's.  Nothing overflows
    here otherwise, so ``d2`` is not updated after the last pick.
    """
    n = arr.size
    perm, values = order or (np.argsort(arr).astype(np.int32 if n < 2**31 else np.int64), None)
    # Python floats: the span squared may overflow to inf without a warning.
    lo, hi = float(arr[perm[0]]), float(arr[perm[-1]])
    if not (hi - lo) * (hi - lo) < math.inf:
        return _kmeanspp_full_pass(arr, n_clusters, rng)
    # Every 64th sorted value, to find a value's sorted position with one short gather.
    step = 64
    coarse = arr[perm[::step]]

    def shifted(s: int, e: int, c: float) -> np.ndarray:
        """Sorted values s to e minus c, in a new array."""
        return np.subtract(arr.take(perm[s:e], mode="clip") if values is None else values[s:e], c)

    def rank(x: float, side: str) -> int:
        """The number of values below ``x`` (``side="left"``) or at most ``x`` (``"right"``)."""
        s = step * max(int(coarse.searchsorted(x, side)) - 1, 0)
        return s + int(arr.take(perm[s : s + step]).searchsorted(x, side))

    # Rows of `side` sorted positions and chunks of `width` elements, a
    # 32nd as long: the table holds at most n/8 cells, and the chunk that
    # each pick reads in element order stays short.
    side = 32
    while side < n and (-(-n // side)) ** 2 > n / 256:
        side *= 2
    width = side // 32
    rows, cols = -(-n // side), -(-n // width)
    # Zeros, though the first pick writes every row: a row that an update
    # wrongly skipped would read the same on every run, not whatever the heap
    # held (NaN there hides the fault by sending each pick to the cumsum).
    table = np.zeros((rows, cols))
    sums = np.empty(cols)
    ends = np.empty(cols)
    depth = side + rows + cols + width + 1
    d2 = np.full(n, np.inf)
    picked = []  # the picks so far, ascending
    chosen = []
    idx = int(rng.integers(n))  # the first pick is uniform
    while idx >= 0:  # -1: every element already coincides with a centroid
        c = float(arr[idx])
        chosen.append(c)
        if len(chosen) == n_clusters:
            break
        i = bisect.bisect(picked, c)
        # Two ulps outward of each rounded midpoint lies beyond the exact one.
        start = 0 if i == 0 else rank(_two_ulps(0.5 * picked[i - 1] + 0.5 * c, -math.inf), "right")
        stop = n if i == len(picked) else rank(_two_ulps(0.5 * c + 0.5 * picked[i], math.inf), "left")
        picked.insert(i, c)
        for s in range(start, stop, _ASSIGN_CHUNK):
            e = min(stop, s + _ASSIGN_CHUNK)
            x = shifted(s, e, c)
            np.square(x, out=x)
            np.minimum(d2[s:e], x, out=d2[s:e])
            del x  # before the next chunk is gathered
        # An overflow here sends the pick to the sequential cumsum, which warns if it overflows too.
        with np.errstate(over="ignore"):
            for row in range(start // side, -(-stop // side)):
                s = row * side
                table[row] = np.bincount(perm[s : s + side] // width, weights=d2[s : s + side], minlength=cols)
            np.add.reduce(table, axis=0, out=sums)
            np.add.accumulate(sums, out=ends)
        picks = np.array(picked)
        idx = _draw(rng, n, ends, width, depth, lambda s, out: _neighbour_d2(arr[s : s + out.size], picks, out))
    return _padded(chosen, n_clusters)


def _two_ulps(x: float, toward: float) -> float:
    """The double two steps from ``x`` toward ``toward``."""
    return math.nextafter(math.nextafter(x, toward), toward)


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
# A Lloyd step on a value order widens this many indices at a time for each
# scatter: a scatter through intp indices runs faster than through int32.
_SCATTER_CHUNK = 1 << 13
# Calls with at most this many (element, centroid) pairs go to _dense_assign,
# which is then cheaper than building the threshold table.
_DENSE_PAIRS = 12288
# Midpoints smaller than this go to the search: halving their ends may round.
_NOT_TINY = 2.0**-1020
_MAGNITUDE = (1 << 63) - 1


def _key(x: float) -> int:
    """An integer key for the double x: keys sort as the doubles do, and
    consecutive doubles get consecutive keys (-0.0 gets -1, just below 0.0)."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else ~(bits & _MAGNITUDE)


def _double(key: int) -> float:
    """The double whose ``_key`` is ``key``."""
    bits = key if key >= 0 else ~key - (1 << 63)
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _b_wins(x, a, b, tie):
    """Whether ``_dense_assign`` gives x in [a, b] to b rather than to a: when
    ``|x - b| < |x - a|``, or when the two are equal and ``tie`` (b has the
    lower index)."""
    return (b - x < x - a) | ((b - x == x - a) & tie)


def _search_threshold(a: float, b: float, tie: bool) -> float:
    """The smallest double in (a, b] that ``_b_wins``, by bisection over keys.

    The bracket is the midpoint +- the distances' rounding bound, so a
    typical pair takes a few steps.  Among subnormals, where halving and
    ``ulp`` round, the bracket can miss; each end that fails the test is
    replaced by a or b.
    """
    half = 0.5 * a + 0.5 * b
    bound = math.ulp(half) + (b * 2.0**-53 - a * 2.0**-53)
    lo, hi = max(half - bound, a), min(half + bound, b)
    lo = _key(a if _b_wins(lo, a, b, tie) else lo)
    hi = _key(hi if _b_wins(hi, a, b, tie) else b)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _b_wins(_double(mid), a, b, tie):
            hi = mid
        else:
            lo = mid
    return _double(hi)


def _thresholds(a: np.ndarray, b: np.ndarray, b_first: np.ndarray) -> np.ndarray:
    """For each adjacent pair a < b: the smallest double in (a, b] that goes to b.

    Rounding is monotone, so ``_b_wins`` is false from a up to the threshold
    and true from there to b.  Where a and b have the same sign and are
    within a factor 5/3 of each other (and are not tiny), both distances
    are exact for every x in between (Sterbenz), so b wins just above the
    midpoint, or at it on a tie: the threshold is the rounded midpoint or
    the next double up.  The other pairs, in practice the few around zero,
    go to ``_search_threshold``.
    """
    half = 0.5 * a + 0.5 * b
    t = np.where(_b_wins(half, a, b, b_first), half, np.nextafter(half, b))
    for i in np.flatnonzero(np.maximum(2 * (b - a), _NOT_TINY) > np.abs(half)).tolist():
        t[i] = _search_threshold(float(a[i]), float(b[i]), bool(b_first[i]))
    return t


def _switch_points(centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """``_assign``'s rule as ``(t, rep, band_lo, band_hi)``: an element x in
    ``[band_lo, band_hi]`` goes to ``rep[searchsorted(t, x, side="right")]``.

    ``rep`` holds, for each run of equal sorted centroids, its lowest
    original index, and ``t`` the thresholds between consecutive runs; one
    run has no thresholds and an unbounded band.
    """
    order = np.argsort(centroids, kind="stable")
    ordered = centroids[order]
    run_start = np.empty(len(centroids), dtype=bool)
    run_start[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=run_start[1:])
    values, rep = ordered[run_start], order[run_start]
    if len(values) == 1:
        return values[:0], rep, -math.inf, math.inf
    a, b = values[:-1], values[1:]
    with np.errstate(over="ignore"):
        t = _thresholds(a, b, rep[1:] < rep[:-1])
        reach = min(float((b - a).min()) * 2.0**49, 2.0**1000)
    # Python floats: the band ends may overflow to +-inf without a warning.
    return t, rep, float(values[-1]) - reach, float(values[0]) + reach


def _assign(arr: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels; ties go to the lowest cluster index.

    Equal to ``_dense_assign``, which calls with at most _DENSE_PAIRS
    (element, centroid) pairs run directly.  Otherwise each call builds a
    table from the sorted distinct centroids; a run of equal centroids
    answers with its lowest original index.

    Why it is exact: for a fixed x the rounded ``|x - c|`` never increases
    as c rises towards x and never decreases as c moves away above it, so x
    goes to one of its two sorted neighbours unless rounding gives a farther
    centroid the same distance.  That cannot happen while every distance is
    at most ``D = min_gap * 2**49``, where rounding moves a distance by less
    than an eighth of any gap.  Elements outside the band ``[max - D, min +
    D]`` go to ``_dense_assign``.  Inside it, the winner between neighbours
    a < b switches once, at the threshold from ``_thresholds``, so an
    element's label is that of the run after the last threshold <= x.

    The lookup: cell ``floor((clip(x) - t0) * scale)`` of a uniform grid
    over the thresholds, 4 cells per threshold.  The formula is monotone in
    x and the thresholds are placed with it too, so every threshold in a
    lower cell is < x and every one in a higher cell is > x.  One comparison
    with the cell's first threshold then picks one of the cell's two labels;
    ``searchsorted`` runs only in cells that hold two or more thresholds.
    When the thresholds span more than the float64 range, or lie so close
    that the scale is beyond it, the grid is one cell: every element lands
    in cell 0, which holds every threshold, and ``searchsorted`` serves it.

    Cost per call: O(m) work on the table (a few scalar searches for pairs
    near zero), then about ten passes over the elements.
    """
    if arr.size * len(centroids) <= _DENSE_PAIRS:
        with np.errstate(over="ignore"):
            return _dense_assign(arr, centroids)
    t, rep, band_lo, band_hi = _switch_points(centroids)
    if not len(t):
        return np.full(arr.size, rep[0], dtype=np.int64)

    cells = 4 * len(t)
    t0, t1 = t[0], t[-1]
    with np.errstate(divide="ignore", over="ignore"):
        span = t1 - t0
        scale = cells / span if span else 0.0  # one threshold: every x in cell 0
    if not (span < np.inf and scale < np.inf):
        t0 = t1 = scale = 0.0  # one crowded cell: the search below serves every x

    def cell_of(v, out):  # one monotone formula for thresholds and elements alike
        cell = np.clip(v, t0, t1, out=out)
        cell -= t0
        cell *= scale
        return cell.astype(np.intp)

    count = np.bincount(cell_of(t, np.empty_like(t)), minlength=cells + 1)
    below = np.cumsum(count) - count  # thresholds in the lower cells
    cell_first = np.append(t, np.inf)[below]  # x < every threshold of a higher cell
    # Cell c's label for x below its first threshold is at 2c, for x at or
    # above it at 2c + 1; -1 marks a cell with more than one threshold.
    cell_labels = rep[np.minimum(below[:, None] + [0, 1], len(t))].reshape(-1)
    crowded = count > 1
    cell_labels.reshape(-1, 2)[crowded] = -1
    any_crowded = bool(crowded.any())
    buf = np.empty(min(arr.size, _ASSIGN_CHUNK))

    labels = np.empty(arr.size, dtype=np.int64)
    for start in range(0, arr.size, _ASSIGN_CHUNK):
        x = arr[start : start + _ASSIGN_CHUNK]
        lab = labels[start : start + _ASSIGN_CHUNK]
        cell = cell_of(x, buf[: x.size])
        # The indices are in range by construction; mode="clip" skips the check.
        upper = x >= cell_first.take(cell, mode="clip")
        cell <<= 1
        cell += upper
        cell_labels.take(cell, out=lab, mode="clip")
        if any_crowded:
            busy = np.flatnonzero(lab < 0)
            lab[busy] = rep[np.searchsorted(t, x[busy], side="right")]
        if x.min() < band_lo or x.max() > band_hi:
            far = np.flatnonzero((x < band_lo) | (x > band_hi))
            with np.errstate(over="ignore"):
                lab[far] = _dense_assign(x[far], centroids)
    return labels


def _sorted_runs(values: np.ndarray, centroids: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """``_assign`` of the ascending ``values`` as runs, and each cluster's
    member count.

    The runs are ``(starts, labels)``: ``labels[r]`` is the label of
    ``values[starts[r] : starts[r + 1]]``, the last run reaching the end.
    The starts ascend from 0, and a run may be empty.  Between consecutive
    thresholds of ``_switch_points`` the label is one run's, so one
    ``searchsorted`` of the thresholds into ``values`` cuts them into runs.
    The values outside the band, a prefix and a suffix, go to
    ``_dense_assign``, whose labels are cut into runs where they change.
    """
    t, rep, band_lo, band_hi = _switch_points(centroids)
    n = values.size
    starts, labels = np.append(0, values.searchsorted(t)), rep
    # The band may be empty, and then every value is outside it.
    lo = int(values.searchsorted(band_lo))
    hi = max(lo, int(values.searchsorted(band_hi, "right")))
    if lo or hi < n:
        def dense_runs(s: int, e: int) -> tuple[np.ndarray, np.ndarray]:
            with np.errstate(over="ignore"):
                dense = _dense_assign(values[s:e], centroids)
            first = np.flatnonzero(np.diff(dense, prepend=-1))  # labels are >= 0
            return s + first, dense[first]

        # The band's runs, clipped to it, between the runs of the values below and above it.
        runs = dense_runs(0, lo), (np.clip(starts, lo, hi), labels), dense_runs(hi, n)
        starts, labels = (np.concatenate(part) for part in zip(*runs))
    occupancy = np.zeros(len(centroids), dtype=np.intp)
    np.add.at(occupancy, labels, np.diff(starts, append=n))
    return (starts, labels), occupancy


def _state_sse(arr: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    """``sum((arr - centroids[labels])**2)`` in one float64 buffer: gather, subtract, square.

    The gather runs in chunks, so narrow labels are widened to indices one
    chunk at a time.  Every label indexes ``centroids``, so ``mode="clip"``
    changes nothing; it spares the copy that ``take`` makes to check bounds.
    """
    diff = np.empty(arr.size)
    for c in range(0, arr.size, _ASSIGN_CHUNK):
        np.take(centroids, labels[c : c + _ASSIGN_CHUNK], out=diff[c : c + _ASSIGN_CHUNK], mode="clip")
    np.subtract(arr, diff, out=diff)
    return float(np.sum(np.square(diff, out=diff)))


def _lloyd_update(arr: np.ndarray, centroids: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Assign every element to its nearest centroid, then move each centroid with members to their mean.

    Returns the new centroids, the new labels as uint8, their member counts,
    and whether any label differs from ``labels`` (always True when
    ``labels`` is None).
    """
    # _assign's int64 labels live only for the sums and the change test.
    new_labels = _assign(arr, centroids)
    occupancy = np.bincount(new_labels, minlength=len(centroids))
    changed = labels is None or bool(np.any(new_labels != labels))
    sums = np.bincount(new_labels, weights=arr, minlength=len(centroids))
    new_centroids = np.divide(sums, occupancy, out=centroids.copy(), where=occupancy > 0)
    return new_centroids, new_labels.astype(np.uint8), occupancy, changed


def _sorted_lloyd_update(arr: np.ndarray, order):
    """``_lloyd_update`` of ``arr`` in value order ``(perm, values)``, as
    ``_kmeans_cluster`` calls it, with the same bytes.

    The labels come as runs of the ascending values (``_sorted_runs``), and
    the member counts from the runs' lengths.  Each step compares its runs
    with the previous step's, which is all it keeps of them, and scatters
    through ``perm`` only the stretches whose label moved, into the uint8
    labels in element order and into an intp copy of them that the sums
    read, so that ``bincount`` does not allocate one on every step.  Before
    the first step no label is set: it scatters every run, then widens the
    labels in one pass.  Whether any label moved is the step's change test.
    """
    perm, values = order
    n = arr.size
    wide = np.empty(n, dtype=np.intp)
    runs = (np.zeros(1, dtype=np.intp), np.full(1, -1))  # before the first step: no label

    def update(centroids: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        nonlocal runs
        first = labels is None
        if first:
            labels = np.empty(n, dtype=np.uint8)
        old_starts, old_labels = runs
        runs, occupancy = _sorted_runs(values, centroids)
        starts, run_labels = runs
        # Each stretch between the starts of either step's runs has one label before and one after;
        # a start in both gives an empty stretch, which moves with the one after it.
        bounds = np.sort(np.concatenate((old_starts, starts)))
        bounds = bounds[bounds < n]
        new = run_labels[starts.searchsorted(bounds, "right") - 1]
        moved = np.flatnonzero(old_labels[old_starts.searchsorted(bounds, "right") - 1] != new)
        stops = np.append(bounds[1:], n)
        for start, stop, label in zip(bounds[moved].tolist(), stops[moved].tolist(), new[moved].tolist()):
            for s in range(start, stop, _SCATTER_CHUNK):
                index = perm[s : min(stop, s + _SCATTER_CHUNK)].astype(np.intp)
                labels[index] = label
                if not first:
                    wide[index] = label
        if first:
            np.copyto(wide, labels)
        sums = np.bincount(wide, weights=arr, minlength=len(centroids))
        new_centroids = np.divide(sums, occupancy, out=centroids.copy(), where=occupancy > 0)
        return new_centroids, labels, occupancy, moved.size > 0

    return update


def kmeans_cluster(v, cfg: QuantConfig, tensor_name: str = "", group_index: int = 0) -> LloydState:
    """k-means++ init followed by at most ``cfg.max_iterations`` Lloyd steps.

    Stops early only when a step changes no label, so the result is fixed
    by the input, ``cfg`` and ``(tensor_name, group_index)``.  Returns the
    final state: its ``iterations`` counts the steps run, and with
    ``max_iterations == 0`` it holds the k-means++ centroids and the labels
    and SSE of one assignment to them.  The SSE is computed once, for the
    returned state.
    """
    arr = _validate_input(v)
    init = kmeanspp_init(arr, cfg.n_levels, _kmeans_stream(cfg, tensor_name, group_index))
    centroids, labels, _, iterations = _kmeans_cluster(arr, init, cfg.max_iterations)
    return LloydState(centroids, labels, _state_sse(arr, labels, centroids), iterations)


def _kmeans_stream(cfg: QuantConfig, tensor_name: str, group_index: int) -> np.random.Generator:
    """The k-means++ stream of one group, once ``cfg`` is checked to be a k-means config."""
    if cfg.scheme is not Scheme.KMEANS:
        raise BadConfigError("k-means operations require cfg.scheme == Scheme.KMEANS")
    return np.random.default_rng(derive_stream_seed(cfg.seed, tensor_name, group_index))


def _kmeans_cluster(arr: np.ndarray, centroids: np.ndarray, max_iterations: int,
                    order=None) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """At most ``max_iterations`` Lloyd steps on the checked float64 ``arr``
    from the initial ``centroids``, unscored: the final centroids, uint8
    labels, their member counts and the steps run.  With ``order``,
    ``(perm, values)`` as ``_kmeanspp_sorted`` takes it, every assignment
    takes its labels in value order (``_sorted_lloyd_update``)."""
    update = (lambda c, labels: _lloyd_update(arr, c, labels)) if order is None else _sorted_lloyd_update(arr, order)
    labels, iterations = None, 0
    while iterations < max_iterations:
        centroids, labels, occupancy, changed = update(centroids, labels)
        iterations += 1
        if not changed:
            break

    if labels is None:  # max_iterations == 0: assign once, keep init centroids
        _, labels, occupancy, _ = update(centroids, None)
    return centroids, labels, occupancy, iterations


def kmeans_quantize(v, cfg: QuantConfig, tensor_name: str = "", group_index: int = 0) -> QuantizedVector:
    """Quantize ``v`` by k-means clustering into ``2**bits`` clusters.

    ``grouping.quantize_grouped`` of a ``ValueOrder`` draws on the order's
    sorted values and runs the same ``_kmeans_cluster`` in value order,
    writing its arrays straight into the grouped ones, with the same bytes.
    """
    arr = _validate_input(v)
    _check_float32_range(arr.min(), arr.max())
    init = kmeanspp_init(arr, cfg.n_levels, _kmeans_stream(cfg, tensor_name, group_index))
    centroids, labels, occupancy, _ = _kmeans_cluster(arr, init, cfg.max_iterations)
    return QuantizedVector(Codebook(centroids.astype(np.float32), occupancy.astype(np.uint32)), IndexVector(labels))


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
