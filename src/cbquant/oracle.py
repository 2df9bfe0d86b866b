"""Exact optimal 1-D clustering by dynamic programming.

Ground truth for the quantizers: clusters of an SSE-optimal 1-D clustering
are contiguous in sorted order, so an O(K n^2) DP over the sorted input with
prefix-sum segment costs finds the global minimum.  The DP runs over blocks
of segment ends: each block's (ends x starts) cost matrix is built once and
shared by every cluster count, so the Python loop runs about
K n^2 / _DP_BLOCK_CELLS times rather than once per (cluster count, end).
Within a block, each cluster count skips the runs of starts that a rounding
error bound proves cannot win (``_dp_tables``), with the same bits.

``partition_cost`` evaluates any interval-structured labeling with the same
prefix sums and the same left-to-right accumulation, which makes
``dp.sse <= partition_cost(...)`` hold exactly, without tolerances.
"""

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import BadKError, EmptyInputError, LengthMismatchError, NonFiniteInputError, SplitLabelError

__all__ = ["OptimalClustering", "dp_optimal_quantize", "partition_cost"]

_DP_BLOCK_CELLS = 1 << 17  # cells per block cost matrix (1 MiB of float64); 2**18 is slower at n=1000, 2**16 at n=4000
_DP_START_BLOCK = 16  # consecutive starts per exclusion test; 16 and 32 tie at n=1000..10**4


@dataclass(frozen=True)
class OptimalClustering:
    """Optimal partition of the sorted input into at most K contiguous clusters."""

    boundaries: tuple[int, ...]  # start index (in sorted order) of clusters 2..K
    sse: float
    centroids: tuple[float, ...]  # cluster means, ascending


def _sorted_input(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise EmptyInputError("cannot cluster an empty vector")
    return np.sort(arr)


def _prefix_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of ``x`` and of its squares; rejects input whose costs would overflow.

    A segment's squared sum is at most n times the total sum of squares
    (Cauchy-Schwarz), and every segment cost and DP total is below that
    too, so a finite ``4 n sum(x**2)`` keeps all of them finite.
    """
    s1 = np.zeros(x.size + 1)
    s2 = np.zeros(x.size + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below catches both
        np.cumsum(x, out=s1[1:])
        np.cumsum(np.square(x), out=s2[1:])
    if not s2[-1] <= np.finfo(np.float64).max / (4 * x.size):
        raise NonFiniteInputError("input is not finite, or its sums of squares overflow float64")
    return s1, s2


def _segment_cost(s1, s2, i, j):
    """SSE of sorted elements [i, j) clustered around their mean.

    ``i`` may be an array (vectorized over segment starts).  Small negative
    results are possible from rounding and are kept as-is: all comparisons in
    this module go through this same formula, so they stay consistent.
    """
    m = j - i
    s = s1[j] - s1[i]
    return (s2[j] - s2[i]) - s * s / m


def _cost_error_bound(x: np.ndarray, s2: np.ndarray) -> float:
    """A bound E on |``_segment_cost`` - true SSE| over every segment of sorted ``x``.

    The prefix sums are sequential, so ``s1[j]`` is within about ``j u sum|x|``
    and ``s2[j]`` within ``j u sum(x**2)`` of the exact sums (u = 2**-53;
    Higham, ch. 4).  A cost then errs by at most about
    ``4 n u (sum(x**2) + max|x| sum|x|)``; the factor 16 also absorbs the
    rounding of the sums this bound is computed from.
    """
    return 16 * (x.size + 8) * 2.0**-53 * (s2[-1] + max(-x[0], x[-1]) * np.abs(x).sum())


def _lower_bounds(block_min, last_cost, err: float, scale: float):
    """``block_min + last_cost - 4 err``, rounded so that it is never above the exact value.

    Valid where ``|block_min + last_cost| <= scale``.  Infinite ``block_min``
    (starts below the cluster count) gives ``inf`` without a warning.  The
    slack covers the three roundings of forming the bound.
    """
    lower = block_min + last_cost
    lower -= 4 * err + 2.0**-50 * (scale + 4 * err)
    return lower


def _dp_tables(x: np.ndarray, s1: np.ndarray, s2: np.ndarray, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``dp[k][j]``, the minimal cost of splitting ``x[:j]`` into k segments, and
    ``parent[k][j]``, the start of the last of them, for k <= ``k_max``.

    Bit-identical to the recurrence that takes, for each (k, j), the first
    minimum of ``dp[k-1][p] + _segment_cost(p, j)`` over p = k-1 .. j-1.  It
    runs over blocks of segment ends and evaluates only the starts it cannot
    prove lose.  Cut the starts below the block's first end ``lo`` into start
    blocks of ``_DP_START_BLOCK``.  Level k skips a start block P when
    ``min(dp[k-1][P]) + cost(last of P, lo) - 4E - slack`` is strictly above
    a computed candidate of every end of the block: the candidate of the
    start that won end ``lo - 1``.  A segment's true SSE never falls as it
    gains points, and a computed cost is within E of the true one
    (``_cost_error_bound``), so every candidate from P is then strictly
    larger than that candidate and never the first minimum, ties included.
    The near-diagonal starts, from the first one outside those start blocks
    up to ``hi - 2``, are always evaluated: the bound needs a start block
    wholly below ``lo``, and ``dp[k-1]`` from ``lo`` on is computed in this
    block.
    """
    n = x.size
    block = _DP_START_BLOCK
    dp = np.full((k_max + 1, n + 1), np.inf)
    dp[0][0] = 0.0
    parent = np.zeros((k_max + 1, n + 1), dtype=np.int64)
    err = _cost_error_bound(x, s2)
    # No true SSE exceeds the whole input's, and a computed dp or cost is within
    # about k_max E of a true one: this bounds |dp| + |cost| for _lower_bounds.
    scale = 2 * max(float(_segment_cost(s1, s2, 0, n)), 0.0) + (2 * k_max + 8) * err
    block_min = np.full((max(k_max - 1, 0), n // block), np.inf)  # min of dp[k] over start block b, k < k_max
    done = 0  # start blocks whose minimum is in block_min
    rows = max(1, _DP_BLOCK_CELLS // n)
    cost_buf, work_buf = np.empty(rows * n), np.empty(rows * n)  # work_buf: cost scratch, then candidates
    index = np.arange(n + 1)
    for lo in range(1, n + 1, rows):
        # One block: segment ends lo .. hi-1.
        hi = min(lo + rows, n + 1)
        ends = index[lo:hi]
        dp[1, lo:hi] = dp[0, 0] + _segment_cost(s1, s2, 0, ends)  # k = 1: start 0 is the only one
        top = min(k_max, hi - 1)
        if top < 2:
            continue
        whole = lo // block  # start blocks below lo
        if whole > done:
            block_min[:, done:whole] = dp[1:k_max, done * block : whole * block].reshape(
                k_max - 1, -1, block).min(axis=2)
            done = whole
        # Level k evaluates starts [a, b), then [near, hi - 1), in one buffer; the gap may be empty.
        levels = np.arange(2, top + 1)
        near = np.maximum(whole * block, levels - 1)
        a, b = levels - 1, near.copy()
        probed = min(top, lo - 1) - 1  # levels 2 .. probed + 1 have a final parent at lo - 1
        if whole and probed > 0:
            # A computed candidate for each end: the start that won end lo - 1.
            probe = parent[2 : probed + 2, lo - 1]
            upper = dp[levels[:probed] - 1, probe][:, None] + _segment_cost(s1, s2, probe[:, None], ends)
            upper = upper.max(axis=1)
            last_cost = _segment_cost(s1, s2, index[block - 1 : whole * block : block], lo)
            keep = _lower_bounds(block_min[:probed, :whole], last_cost, err, scale) <= upper[:, None]
            kept = keep.any(axis=1)
            first_kept = keep.argmax(axis=1) * block
            last_kept = (whole - keep[:, ::-1].argmax(axis=1)) * block
            a[:probed] = np.where(kept, np.maximum(first_kept, a[:probed]), near[:probed])
            b[:probed] = np.where(kept, last_kept, near[:probed])
        # Costs of the block against starts from the lowest kept one (never above lo).
        low = int(a.min())
        cost = cost_buf[: (hi - lo) * (hi - 1 - low)].reshape(hi - lo, hi - 1 - low)
        tmp = work_buf[: cost.size].reshape(cost.shape)
        with np.errstate(invalid="ignore"):  # the 0/0 of start == end, masked next
            _segment_costs_into(s1, s2, index[low : hi - 1], ends, cost, tmp)
        cost[:, lo - low :][index[lo : hi - 1] >= ends[:, None]] = np.inf
        for k, a_k, b_k, near_k in zip(levels.tolist(), a.tolist(), b.tolist(), near.tolist()):
            # Ends j >= k against the kept starts in the scalar recurrence's
            # order, so argmin's first minimum picks the same split.  Level
            # k-1 is complete here for every start below hi - 1.
            first = max(lo, k)
            kept_cost = cost[first - lo :]
            if b_k == near_k:  # the runs touch: one run from a_k
                b_k = near_k = a_k
            span = b_k - a_k
            cand = work_buf[: (hi - first) * (span + hi - 1 - near_k)].reshape(hi - first, -1)
            np.add(dp[k - 1, a_k:b_k], kept_cost[:, a_k - low : b_k - low], out=cand[:, :span])
            np.add(dp[k - 1, near_k : hi - 1], kept_cost[:, near_k - low :], out=cand[:, span:])
            best = cand.argmin(axis=1)
            dp[k, first:hi] = cand[index[: hi - first], best]
            parent[k, first:hi] = np.concatenate((index[a_k:b_k], index[near_k : hi - 1]))[best]
    return dp, parent


def _segment_costs_into(s1, s2, starts, ends, out, tmp):
    """``out[r, c] = _segment_cost(s1, s2, starts[c], ends[r])``, by the same operations."""
    np.subtract(ends[:, None], starts, out=out)
    np.subtract(s1[ends][:, None], s1[starts], out=tmp)
    np.multiply(tmp, tmp, out=tmp)
    np.divide(tmp, out, out=tmp)
    np.subtract(s2[ends][:, None], s2[starts], out=out)
    np.subtract(out, tmp, out=out)


def dp_optimal_quantize(v, n_clusters: int) -> OptimalClustering:
    """Globally minimal-SSE partition of ``v`` into at most ``n_clusters`` clusters.

    Intended for modest sizes (n up to ~10^4): the DP is O(K n^2) arithmetic
    at worst, done in blocks of segment ends whose cost matrix holds
    ``_DP_BLOCK_CELLS`` float64, and most start blocks are proven to lose
    and skipped (about 0.09 s at n=4000, K=16 on a 2-core Xeon, and 0.4 s at
    n=10^4).  Deterministic; ties prefer fewer clusters and earlier split
    points.
    """
    n_clusters = core._integer("cluster count", n_clusters, 1, 256, BadKError)
    x = _sorted_input(v)
    n = x.size
    s1, s2 = _prefix_sums(x)
    dp, parent = _dp_tables(x, s1, s2, min(n_clusters, n))

    best_k = int(np.argmin(dp[1:, n])) + 1
    sse = float(dp[best_k][n])

    boundaries = []
    j = n
    for k in range(best_k, 1, -1):
        j = int(parent[k][j])
        boundaries.append(j)
    boundaries.reverse()

    edges = [0, *boundaries, n]
    centroids = tuple(
        float((s1[b] - s1[a]) / (b - a)) for a, b in zip(edges[:-1], edges[1:])
    )
    return OptimalClustering(boundaries=tuple(boundaries), sse=sse, centroids=centroids)


def partition_cost(v, labels) -> float:
    """Cost of a labeling, accumulated exactly as the DP accumulates its own.

    Sorts ``v`` (equal values by label), splits it where the co-sorted labels
    change, and sums the prefix-sum segment costs left to right.  Valid for
    labelings that carve the line into intervals, which holds for both
    quantization schemes; a label that still forms more than one run raises
    ``SplitLabelError``.
    """
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    lab = np.asarray(labels).reshape(-1)
    if arr.size != lab.size:
        raise LengthMismatchError("labels and values differ in length")
    if arr.size == 0:
        raise EmptyInputError("cannot evaluate an empty partition")
    order = np.lexsort((lab, arr))
    x = arr[order]
    run = lab[order]
    s1, s2 = _prefix_sums(x)
    cuts = np.flatnonzero(run[1:] != run[:-1]) + 1
    if cuts.size + 1 != np.unique(run).size:
        raise SplitLabelError("a label covers more than one run of the sorted values")
    edges = [0, *cuts.tolist(), x.size]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total = total + float(_segment_cost(s1, s2, a, b))
    return total
