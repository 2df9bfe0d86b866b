"""A standing mutation check for the certified fast paths, the exact DP, CBQ I/O and the CLI's workers.

The exact k-means++ picks of ``core.kmeanspp_init`` rest on rounding-error
margins, block sums that cover every element, widened update ranges and strict
comparisons, and the nearest-centroid labels of ``core._assign`` on its
threshold table's tie rule and the dense assignment of values outside its
band.  Lloyd on a shared value order rewrites only the labels that moved
since the last step, in the uint8 labels and in the intp copy that its sums
read, and a sweep starts each bit width from its prefix of one k-means++
draw.  The exact DP of ``oracle._dp_tables`` takes the first minimum over
the same candidates as the scalar recurrence, masks each start that is not
below its end, and drops a start only when its candidate at a block's last
end is more than M above the winner's, M being four cost error bounds plus a
rounding slack: below the winner for every later end (the lower cut), above
it for the block's earlier ends (the upper cut), whose window reaches the
starts next to those ends; ``oracle.partition_cost`` rejects a labeling in
which one label forms two runs.  The CBQ reader and writer of ``tensorio`` walk labels in chunks, counting
occupancy and unpacking pieces of rows at byte offsets, and check a blob's
length before they allocate for it.
The CLI's worker map puts each forked child's results back at that child's
jobs, passes on the exception that stopped a child, and stops a child whose
parent has died.
Each entry of ``MUTANTS`` breaks one of them in a copy of the source: it
names the file under ``src/cbquant``, the exact source text (which occurs
there exactly once), its replacement and the pytest node ids that must kill
it.  Every killer is deterministic: a fixed case or a derandomized property.
A mutant marked ``expected_survivor`` is equivalent to the source, by an
argument given with it; it must pass its tests, and a kill means the
argument is wrong.

Run from the repository root::

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # only these

The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory and first runs the union of the selected node ids
unmutated there, which must pass.  It then applies one mutant at a time and
counts it killed only when pytest exits 1 (tests failed).  Any other exit,
such as 2 (interrupted or a collection error), 4 (usage) or 5 (no tests
collected), is a failure of the runner, not a kill.  It prints one line per
mutant and exits 0 when every mutant is killed or survives as expected, 1
when one survives unexpectedly or an expected survivor is killed, and 2 when
the runner fails.

``tests/test_mutants.py`` checks in tier-1 that every source text still
occurs exactly once, so a refactor that moves certified code must update
this table.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PICKS = "tests/test_core_kmeans.py::TestKmeansppPicksAreSequential"
LOOPS = "tests/test_core_kmeans.py::TestKmeansppLoops"
CERTIFIED = "tests/test_core_kmeans.py::TestCertifiedPick::test_a_prefix_at_exactly_the_margin_is_not_certified"
ROUNDING = "test_draws_within_rounding_of_a_prefix_match_the_sequential_pick"
CHUNKED = f"{LOOPS}::test_every_pick_on_the_chunked_sequential_path_gives_the_same_bytes"
CBQ_CHUNKS = "tests/test_tensorio.py::TestCbqFormat::test_chunked_unpack_round_trips"
DP_BLOCKS = "tests/test_oracle.py::TestDpAgainstBlockReference::test_tables_bit_identical"
WORKERS = "tests/test_cli.py::TestWorkerProcesses"
LLOYD_ORDERS = "tests/test_value_order.py::test_lloyd_in_value_order_matches_element_order"
DP_FIXED = ("tests/test_oracle.py::TestDpPin",
            "tests/test_oracle.py::TestDpAgainstScalarReference::test_bit_identical_n1500")


def sorted_loops(case: str) -> tuple:
    """The sorted loop's same-bytes test on ``case``, on its own sort and on a shared order."""
    return tuple(f"{LOOPS}::test_{loop}_loop_same_bytes_as_sequential_cumsum[{case}]"
                 for loop in ("sorted", "shared_order"))


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/cbquant
    source: str  # occurs exactly once in the file
    replacement: str
    killers: tuple  # pytest node ids, relative to the repository root
    expected_survivor: bool = False  # equivalent to the source: its killers must pass


MUTANTS = (
    Mutant("zero-margin", "core.py",
           "_pick_margin(n, depth, total)) if total", "0.0) if total",
           (f"{PICKS}::{ROUNDING}", f"{LOOPS}::{ROUNDING}[_kmeanspp_sorted]",
            f"{LOOPS}::{ROUNDING}[kmeanspp_shared_order]")),
    Mutant("non-strict-below", "core.py",
           "(float(local[j - 1]) if j else before) < rt - margin",
           "(float(local[j - 1]) if j else before) <= rt - margin",
           (f"{CERTIFIED}[2.25]",)),
    Mutant("non-strict-above", "core.py",
           "local[j] > rt + margin", "local[j] >= rt + margin",
           (f"{CERTIFIED}[2.75]",)),
    Mutant("no-fallback-carry", "core.py",
           "part[0] = carried[s // _ASSIGN_CHUNK]", "part[0] = 0.0",
           tuple(f"{CHUNKED}[normal-{loop}]" for loop in ("_kmeanspp_full_pass", "_kmeanspp_sorted",
                                                          "kmeanspp_shared_order"))),
    Mutant("only-the-last-chunk-scanned", "core.py",
           "for s in reversed(range(0, n, _ASSIGN_CHUNK)):", "for s in reversed(range(0, n, _ASSIGN_CHUNK))[:1]:",
           tuple(f"{CHUNKED}[normal-{loop}]" for loop in ("_kmeanspp_full_pass", "_kmeanspp_sorted",
                                                          "kmeanspp_shared_order"))),
    Mutant("no-two-ulp-widening", "core.py",
           "return math.nextafter(math.nextafter(x, toward), toward)", "return x",
           sorted_loops("offset_noise-256-131073")),
    # Equivalent: in the normal range halving is exact and the sum rounds by at
    # most half an ulp of the midpoint, so one step outward already passes the
    # exact midpoint; where halving a subnormal rounds, the total error is at
    # most one ulp, so one step lands at worst on the exact midpoint, where
    # |x - a| == |x - c| and d2 does not change.
    Mutant("one-ulp-widening", "core.py",
           "return math.nextafter(math.nextafter(x, toward), toward)", "return math.nextafter(x, toward)",
           sorted_loops("offset_noise-256-131073"), expected_survivor=True),
    Mutant("update-start-one-short", "core.py",
           'rank(_two_ulps(0.5 * picked[i - 1] + 0.5 * c, -math.inf), "right")',
           'rank(_two_ulps(0.5 * picked[i - 1] + 0.5 * c, -math.inf), "right") + 1',
           sorted_loops("mixed_scales-256-131073")),
    Mutant("update-stop-one-short", "core.py",
           'rank(_two_ulps(0.5 * c + 0.5 * picked[i], math.inf), "left")',
           'rank(_two_ulps(0.5 * c + 0.5 * picked[i], math.inf), "left") - 1',
           sorted_loops("mixed_scales-256-131073")),
    Mutant("last-table-row-skipped", "core.py",
           "range(start // side, -(-stop // side))", "range(start // side, -(-stop // side) - 1)",
           sorted_loops("mixed_scales-256-131073")),
    Mutant("no-overflow-hand-off", "core.py",
           "if not (hi - lo) * (hi - lo) < math.inf:", "if False:",
           sorted_loops("d2_overflows-256-131073")
           + ("tests/test_value_order.py::test_span_squared_overflow_gives_the_same_state_and_warnings[8]",)),
    Mutant("draw-before-zero-total-check", "core.py",
           "    if total == 0.0:\n        return -1\n    q = rng.random()\n",
           "    q = rng.random()\n    if total == 0.0:\n        return -1\n",
           (f"{LOOPS}::test_a_zero_total_stops_before_drawing",)),
    Mutant("full-pass-tail-sum-dropped", "core.py",
           "np.add.reduceat(d2, starts, out=ends)\n",
           "np.add.reduceat(d2, starts, out=ends)\n            ends[-1] = 0.0\n",
           (f"{PICKS}::test_same_bytes_as_sequential_cumsum[normal-2-100000]",)),
    Mutant("full-pass-d2-starts-at-zero", "core.py",
           "d2 = np.full(n, np.inf)\n    scratch", "d2 = np.full(n, 0.0)\n    scratch",
           (f"{PICKS}::test_same_bytes_as_sequential_cumsum[normal-2-100000]",)),
    Mutant("sorted-d2-starts-at-zero", "core.py",
           "d2 = np.full(n, np.inf)\n    picked", "d2 = np.full(n, 0.0)\n    picked",
           sorted_loops("normal-256-131073")),
    Mutant("tie-to-higher-index", "core.py",
           "rep[1:] < rep[:-1]", "rep[1:] > rep[:-1]",
           ("tests/test_properties.py::test_assign_between_subnormal_centroids",
            "tests/test_properties.py::test_assign_splits_a_symmetric_pair_within_rounding_of_zero")),
    Mutant("sorted-assign-skips-band", "core.py",
           "if lo or hi < n:", "if False:",
           ("tests/test_value_order.py::test_values_outside_the_band_reach_the_dense_assignment",
            "tests/test_properties.py::test_sorted_assign_matches_dense_argmin_across_the_float64_range")),
    # The sums read labels that a later step moved in the uint8 labels only.
    Mutant("lloyd-intp-buffer-stale", "core.py",
           "                    wide[index] = label\n", "                    pass\n",
           (LLOYD_ORDERS, "tests/test_value_order.py::test_shared_order_gives_the_same_bytes")),
    Mutant("lloyd-later-step-drops-a-moved-run", "core.py",
           'moved = np.flatnonzero(old_labels[old_starts.searchsorted(bounds, "right") - 1] != new)',
           'moved = np.flatnonzero(old_labels[old_starts.searchsorted(bounds, "right") - 1] != new)'
           '[0 if first else 1:]',
           (LLOYD_ORDERS,)),
    # A stretch that a new run covers but an old run boundary splits is read at its start only.
    Mutant("lloyd-old-run-starts-ignored", "core.py",
           "bounds = np.sort(np.concatenate((old_starts, starts)))", "bounds = np.sort(starts)",
           (LLOYD_ORDERS,)),
    Mutant("sweep-width-takes-the-wrong-picks", "grouping.py",
           "picks[i, : cfg.n_levels]", "picks[i, -cfg.n_levels :]",
           ("tests/test_value_order.py::test_one_draw_serves_every_bit_width",
            "tests/test_cli.py::TestSweepCommand::test_each_row_is_a_separate_quantize_grouped_call")),
    Mutant("occupancy-count-overwritten", "tensorio.py",
           "counts[chunk] += np.bincount", "counts[chunk] = np.bincount",
           (CBQ_CHUNKS,)),
    Mutant("row-piece-offset-dropped", "tensorio.py",
           "start = cols.start * bits // 8", "start = 0",
           (CBQ_CHUNKS,)),
    Mutant("labels-allocated-before-length-check", "tensorio.py",
           "    expected = cbq_size_bytes(n, rank, bits, group_count)\n",
           "    np.zeros(n, dtype=np.uint8)\n    expected = cbq_size_bytes(n, rank, bits, group_count)\n",
           ("tests/test_fuzz.py::test_read_cbq_raises_only_cbq_errors",)),
    Mutant("dp-last-minimum", "oracle.py",
           "return cand.argmin(axis=-1)", "return cand.shape[-1] - 1 - cand[..., ::-1].argmin(axis=-1)",
           tuple(f"{DP_BLOCKS}[{case}]" for case in ("zeros", "duplicates", "offset"))),
    Mutant("dp-mask-start-above-end", "oracle.py",
           "places[ends.start : starts.stop] >= places[ends, None]", "places[ends.start : starts.stop] > places[ends, None]",
           DP_FIXED),
    Mutant("dp-previous-level-one-ulp-up", "oracle.py",
           "np.add(dp[k - 1, a:stop],", "np.add(np.nextafter(dp[k - 1, a:stop], np.inf),",
           DP_FIXED),
    Mutant("dp-zero-slack", "oracle.py",
           "return 4 * err + 2.0**-50 * (scale + 4 * err)", "return 4 * err",
           ("tests/test_oracle.py::TestExclusionBound::test_margin_covers_four_errors_and_roundings",)),
    # With M = 0 (all-zero input) a strict comparison keeps no start at all.
    Mutant("dp-non-strict-exclusion", "oracle.py",
           "(row <= row[r] + margin)", "(row < row[r] + margin)",
           (f"{DP_BLOCKS}[zeros]",)),
    Mutant("dp-zero-error-bound", "oracle.py",
           "err = _cost_error_bound(x, s2)", "err = 0.0",
           (f"{DP_BLOCKS}[offset]",)),
    # Below the normal range the relative error model alone gives E = 0.
    Mutant("dp-error-bound-no-underflow-term", "oracle.py",
           " + (2.0**-1074 if top else 0.0)", " + 0.0",
           (f"{DP_BLOCKS}[tiny]", "tests/test_oracle.py::TestExclusionBound::test_error_bound_covers_every_segment_cost")),
    Mutant("dp-near-diagonal-run-dropped", "oracle.py",
           "+ 1, last - 1)", "+ 1, first)",
           (f"{DP_BLOCKS}[paper-eval]", "tests/test_oracle.py::TestDpPin")),
    Mutant("dp-joined-run-skips-its-first-start", "oracle.py",
           "cut[k] = a + int(kept[0])\n", "cut[k] = a + int(kept[0]) + 1\n",
           DP_FIXED + (f"{DP_BLOCKS}[paper-eval]", f"{DP_BLOCKS}[n1000]")),
    # Rounding can make an earlier end's first minimum lie above r, within M of it.
    Mutant("dp-upper-cut-without-margin", "oracle.py",
           "a + int(kept[-1]) + 1", "a + r + 1",
           (f"{DP_BLOCKS}[offset]",)),
    Mutant("split-label-check-dropped", "oracle.py",
           "if cuts.size + 1 != _distinct_count(run):", "if False:",
           tuple(f"tests/test_oracle.py::TestPartitionCost::test_a_label_in_two_runs_is_rejected[{case}]"
                 for case in ("alternating", "two_nans"))),
    Mutant("worker-results-misplaced", "cli.py",
           "results[w::workers] = done", "results[w - 1::workers] = done",
           (f"{WORKERS}::test_results_come_back_in_job_order",)),
    Mutant("child-error-dropped", "cli.py",
           "pickle.dump((done, error), pipe", "pickle.dump((done, None) if error is None else ([], None), pipe",
           (f"{WORKERS}::test_the_first_failing_job_raises_its_error_from_a_child",
            f"{WORKERS}::test_a_child_error_exits_3_and_writes_nothing")),
    Mutant("orphan-check-dropped", "cli.py",
           "if os.getppid() != parent:", "if os.getppid() != parent and False:",
           (f"{WORKERS}::test_a_child_whose_parent_is_killed_stops_after_its_job",)),
)


def pytest_exit(work: Path, node_ids) -> int:
    # -x: the first failing test is enough for a kill.
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids],
                          cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv[1:] if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    selected = [by_name[name] for name in argv[1:]] or list(MUTANTS)
    stale = [m.name for m in selected if (ROOT / "src" / "cbquant" / m.file).read_text().count(m.source) != 1]
    if stale:
        print(f"source text not found exactly once: {', '.join(stale)}", file=sys.stderr)
        return 2
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        code = pytest_exit(work, sorted({node for m in selected for node in m.killers}))
        if code != 0:
            print(f"the unmutated selection exits {code}, not 0", file=sys.stderr)
            return 2
        for m in selected:
            shutil.rmtree(work / "src")
            shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
            path = work / "src" / "cbquant" / m.file
            path.write_text(path.read_text().replace(m.source, m.replacement))
            start = time.perf_counter()
            codes[m] = code = pytest_exit(work, m.killers)
            print(f"{m.name:36} {verdict(m, code):20} {time.perf_counter() - start:6.1f} s  {' '.join(m.killers)}",
                  flush=True)
    if any(code not in (0, 1) for code in codes.values()):
        return 2
    return 1 if any(code != (0 if m.expected_survivor else 1) for m, code in codes.items()) else 0


def verdict(m: Mutant, code: int) -> str:
    """What pytest exit ``code`` on the killers of mutant ``m`` means."""
    if code not in (0, 1):
        return f"RUNNER FAILURE (pytest exit {code})"
    if m.expected_survivor:
        return "survived (expected)" if code == 0 else "KILLED (expected to survive)"
    return "killed" if code == 1 else "SURVIVED"


if __name__ == "__main__":
    sys.exit(main(sys.argv))
