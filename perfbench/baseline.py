"""Record the benchmark's baseline: two sets of ten seeds per workload, and one traced run.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py [--out FILE]

For every workload in BENCHMARK.json and every seed 0..9 it runs
``perfbench/run.py --workload W --seed S --trace 0`` twice, once for set A and
once for set B, alternating which set goes first.  Both sets run the same
code, so they show how far two sets of runs disagree by noise alone.  For
every set and end-to-end metric it reports the median and quartiles of the
ten runs, as ``statistics.quantiles(values, n=4)`` gives them, and the spread:
the distance between the quartiles as a share of the median.  A spread above a
third of the metric's bound is flagged, and so is a set-B median that differs
from set A's by more than the bound.  Then it makes one ``--trace 1 --seed 0``
run per workload for the per-layer metrics.  It exits 1 if anything is flagged
or any run is not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)
SETS = ("A", "B")


def run_once(workload, seed, trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def spread_summary(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "within_third_of_bound": spread <= bound / 3}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {s: [] for s in SETS}
        for seed in SEEDS:
            for s in (SETS if seed % 2 == 0 else SETS[::-1]):
                report, result = run_once(workload, seed, 0)
                ok = ok and result["correct"] and result["failed"] == 0
                runs[s].append({"seed": seed, "correct": result["correct"],
                                "attempted": result["attempted"], "failed": result["failed"],
                                "passes": report["passes"],
                                "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                print(f"{workload} set {s} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      f"passes={report['passes']}", file=sys.stderr, flush=True)
        metrics = {}
        for name, bound in bounds.items():
            sets = {s: spread_summary([r["metrics"][name] for r in runs[s]], bound) for s in SETS}
            drift = sets["B"]["median"] / sets["A"]["median"] - 1
            agree = abs(drift) <= bound
            ok = ok and agree and all(x["within_third_of_bound"] for x in sets.values())
            metrics[name] = {"bound": bound, **sets, "median_drift_B_vs_A": drift,
                             "medians_agree": agree}
            print(f"  {workload:20s} {name:12s} " + " ".join(
                f"{s}: median={x['median']:.6g} spread={x['spread']:.4f}"
                f"{'' if x['within_third_of_bound'] else ' WIDE'}" for s, x in sets.items())
                + f" drift={drift:+.4f}{'' if agree else ' DISAGREE'}", file=sys.stderr)
        report, result = run_once(workload, 0, 1)
        ok = ok and result["correct"] and result["failed"] == 0
        summary["workloads"][workload] = {
            "machine": report["machine"] | {"seed": None}, "metrics": metrics, "runs": runs,
            "traced_seed0": {"correct": result["correct"], "attempted": result["attempted"],
                             "failed": result["failed"],
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()}}}
    text = json.dumps(summary, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
