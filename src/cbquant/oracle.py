"""Exact optimal 1-D clustering by dynamic programming.

Ground truth for the quantizers: clusters of an SSE-optimal 1-D clustering
are contiguous in sorted order, so an O(K n^2) DP over the sorted input with
prefix-sum segment costs finds the global minimum.  The DP runs over blocks
of up to ``_DP_BLOCK_ENDS`` segment ends, so its Python loop runs once per
(block, cluster count) rather than once per (cluster count, end).  Segment
SSE satisfies the quadrangle inequality, so two cuts per cluster count,
widened by a rounding error bound, leave each block a narrow window of
starts that can still win (``_dp_tables``), with the same bits.

``partition_cost`` evaluates any interval-structured labeling with the same
prefix sums and the same left-to-right accumulation, which makes
``dp.sse <= partition_cost(...)`` hold exactly, without tolerances.
"""

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import BadKError, EmptyInputError, LengthMismatchError, NonFiniteInputError, SplitLabelError

__all__ = ["OptimalClustering", "dp_optimal_quantize", "partition_cost"]

_DP_BLOCK_CELLS = 1 << 17  # cells of each cost buffer (1 MiB of float64)
_DP_BLOCK_ENDS = 64  # segment ends per block, fewer where the shared matrix would not fit _DP_BLOCK_CELLS


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
    rounding of the sums this bound is computed from.  Below the normal
    range a product or quotient errs by up to 2**-1075 whatever its size,
    which that relative bound misses, so an input with a nonzero value adds
    ``16 (n + 8) 2**-1074``: all of E once the squares underflow (|x| below
    about 1e-154).  An all-zero input rounds nothing and keeps E = 0.
    """
    top = max(-x[0], x[-1])  # max |x|
    return 16 * (x.size + 8) * (2.0**-53 * (s2[-1] + top * np.abs(x).sum()) + (2.0**-1074 if top else 0.0))


def _cut_margin(err: float, scale: float) -> float:
    """M: a cut drops a start whose candidate is above the winner's candidate + M.

    Every computed cost is within ``err`` of its true SSE and every candidate
    ``dp + cost`` is within ``scale`` of zero, so each of the four candidates
    that a cut rests on (two at the end it reads, two at the end it decides)
    is within ``err`` plus one rounding, ``2**-53 scale``, of its exact value.
    The slack covers those roundings and the roundings of M and of
    ``candidate + M``.
    """
    return 4 * err + 2.0**-50 * (scale + 4 * err)


def _kept(row, r, margin):
    """The starts of ``row`` that no cut drops: those within ``margin`` of the winner ``r``."""
    return (row <= row[r] + margin).nonzero()[0]


def _first_minimum(cand):
    """The scalar recurrence's tie rule: the first minimum along the last axis."""
    return cand.argmin(axis=-1)


def _dp_tables(x: np.ndarray, s1: np.ndarray, s2: np.ndarray, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """``dp[k][j]``, the minimal cost of splitting ``x[:j]`` into k segments, and
    ``parent[k][j]``, the start of the last of them, for k <= ``k_max``.

    Bit-identical to the recurrence that takes, for each (k, j), the first
    minimum of the candidates ``dp[k-1][p] + _segment_cost(p, j)`` over
    p = k-1 .. j-1.  It runs over blocks of at most ``_DP_BLOCK_ENDS`` segment
    ends and evaluates only the starts that two cuts per level k keep.

    Exact segment SSE of sorted data satisfies the quadrangle inequality
    ``SSE(p, j) + SSE(q, j') <= SSE(p, j') + SSE(q, j)`` for p < q < j < j', so
    with ``F(j, p) = dp[k-1][p] + SSE(p, j)`` the lead of q over p,
    ``F(j, p) - F(j, q)``, never falls as j grows.  A computed candidate is
    within E (``_cost_error_bound``) plus one rounding of F, so a start whose
    candidate is more than M (``_cut_margin``) above another's at one end is
    strictly above it at every end on the far side:

    - lower cut, per level and permanent: the starts below the winner of a
      block's last end whose candidates there are more than M above the
      winner's lose at every later end;
    - upper cut, per block: the starts above the winner r of the block's last
      end whose candidates there are more than M above r's lose at every
      earlier end of the block, and r, an earlier start, is a candidate there.

    So each block evaluates its last end against every start from the lower
    cut, then its other ends against the window from that cut up to the last
    start within M of r.  The first minimum of a window is then the first
    minimum over every start, ties included.  Window costs are built per
    level; once a block's windows would cost as much as one shared matrix of
    the block's ends against every start from its lowest cut, that matrix is
    built, and the levels left read every end and start from the cut out of
    it.
    """
    n = x.size
    dp = np.full((k_max + 1, n + 1), np.inf)
    dp[0][0] = 0.0
    parent = np.zeros((k_max + 1, n + 1), dtype=np.int64)
    err = _cost_error_bound(x, s2)
    # No true SSE exceeds the whole input's, and a computed dp or cost is within
    # about k_max E of a true one: this bounds |dp| + |cost| for _cut_margin.
    scale = 2 * max(float(_segment_cost(s1, s2, 0, n)), 0.0) + (2 * k_max + 8) * err
    margin = _cut_margin(err, scale)
    cut = [k - 1 for k in range(k_max + 1)]  # cut[k]: the lowest start level k still evaluates
    cells = min(_DP_BLOCK_CELLS, _DP_BLOCK_ENDS * n)
    shared_buf, work_buf = np.empty(cells), np.empty(cells)
    index = np.arange(n + 1)
    places = index.astype(np.float64)
    dp[1, 1:] = dp[0, 0] + _segment_cost(s1, s2, 0, index[1:])  # k = 1: start 0 is the only one
    lo = 2  # the first end of level 2
    while k_max > 1 and lo <= n:
        # One block: segment ends lo .. last, few enough for its shared matrix to fit in ``cells``.
        low = min(cut[2:])
        rows = max(1, min(_DP_BLOCK_ENDS, cells // (lo - low + _DP_BLOCK_ENDS)))
        last = min(lo + rows, n + 1) - 1
        last_cost = _segment_cost(s1, s2, index[low:last], last)
        shared, spent = None, 0
        budget = (last - lo) * (last - 1 - low)  # the shared matrix's cells that windows would build
        for k in range(2, min(k_max, last) + 1):
            a, first = cut[k], max(lo, k)
            if shared is None:
                # The last end against every start from the cut gives both cuts; then
                # ends first .. last-1 against the window a .. stop-1.
                row = dp[k - 1, a:last] + last_cost[a - low :]
                r = int(_first_minimum(row))
                dp[k, last] = row[r]
                parent[k, last] = a + r
                kept = _kept(row, r, margin)
                cut[k] = a + int(kept[0])
                if first == last:
                    continue
                end, stop = last, min(a + int(kept[-1]) + 1, last - 1)
                if spent + (end - first) * (stop - a) >= budget:
                    shared = shared_buf[: (last + 1 - lo) * (last - low)].reshape(last + 1 - lo, last - low)
                    _segment_costs_into(s1, s2, places, slice(low, last), slice(lo, last + 1), shared,
                                        work_buf[: shared.size].reshape(shared.shape))
            else:
                end, stop = last + 1, last  # every end against every start from the cut
            cand = work_buf[: (end - first) * (stop - a)].reshape(end - first, stop - a)
            if shared is None:
                spent += cand.size
                _segment_costs_into(s1, s2, places, slice(a, stop), slice(first, end), cand,
                                    shared_buf[: cand.size].reshape(cand.shape))
                costs = cand
            else:
                costs = shared[first - lo : end - lo, a - low : stop - low]
            np.add(dp[k - 1, a:stop], costs, out=cand)
            best = _first_minimum(cand)
            dp[k, first:end] = cand[index[: end - first], best]
            np.add(best, a, out=parent[k, first:end])
            if end > last:  # the last end's row came from the shared matrix
                cut[k] = a + int(_kept(cand[-1], best[-1], margin)[0])
        lo = last + 1
    return dp, parent


def _segment_costs_into(s1, s2, places, starts: slice, ends: slice, out, tmp):
    """``out[r, c] = _segment_cost(s1, s2, p, j)`` for the c-th start p of ``starts``
    and the r-th end j of ``ends``, by the same operations, and inf where p >= j.

    ``places`` holds 0.0 .. n.  Each operand that varies by row is copied out
    first and the row subtracted in place, which numpy runs faster than one
    subtraction of a column from a row.
    """
    np.copyto(out, places[ends, None])
    np.subtract(out, places[starts], out=out)
    np.copyto(tmp, s1[ends, None])
    np.subtract(tmp, s1[starts], out=tmp)
    np.multiply(tmp, tmp, out=tmp)
    with np.errstate(invalid="ignore"):  # the 0/0 of p == j, masked below
        np.divide(tmp, out, out=tmp)
    np.copyto(out, s2[ends, None])
    np.subtract(out, s2[starts], out=out)
    np.subtract(out, tmp, out=out)
    near = ends.start - starts.start  # starts from here on reach the first end
    if near < out.shape[1]:
        out[:, near:][places[ends.start : starts.stop] >= places[ends, None]] = np.inf


def dp_optimal_quantize(v, n_clusters: int) -> OptimalClustering:
    """Globally minimal-SSE partition of ``v`` into at most ``n_clusters`` clusters.

    Intended for modest sizes (n up to ~10^4): the DP is O(K n^2) arithmetic
    at worst, done in blocks of segment ends, and on most inputs each block
    and cluster count evaluates only a narrow window of starts that the
    quadrangle inequality cannot rule out (``_dp_tables``).  Deterministic;
    ties prefer fewer clusters and earlier split points.
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


def _distinct_count(labels: np.ndarray) -> int:
    """``np.unique(labels).size``, without the ``numpy.ma`` import that
    ``np.unique`` makes on its first call: in sorted order a value starts
    where it differs from the one before, and NaNs (NaTs), which sort last,
    count once, as ``np.unique`` counts them."""
    ordered = np.sort(labels)
    starts = ordered[1:] != ordered[:-1]
    if ordered.dtype.kind in "cfmM":
        starts &= ~np.isnan(ordered[:-1])
    return 1 + int(np.count_nonzero(starts))


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
    if cuts.size + 1 != _distinct_count(run):
        raise SplitLabelError("a label covers more than one run of the sorted values")
    edges = [0, *cuts.tolist(), x.size]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total = total + float(_segment_cost(s1, s2, a, b))
    return total
