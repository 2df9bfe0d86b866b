"""The reads the benchmark harness makes of cbquant, on a tiny bundle.

``perfbench/trace_shim.py`` counts groups and empty codebook slots from the
results of ``grouping.quantize_grouped`` and the ``core`` quantizers, and
``perfbench/oracle_step.py`` reads the labels of ``core.quantize``.  These
tests run both as the benchmark does, so an API change that breaks them
fails here rather than only in ``perfbench/run.py --self-test``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from cbquant import tensorio

ROOT = Path(__file__).resolve().parents[1]
SHIM = ROOT / "perfbench" / "trace_shim.py"


def _traced(tmp_path, *argv):
    """Run the shim; return its exit code and the counts recorded per span name."""
    spans_path = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "CBQUANT_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(SHIM), str(spans_path), *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_path.read_text())
    counts = {}
    for name_id, _, _, _, _, span_counts in trace["spans"]:
        counts.setdefault(trace["names"][name_id], []).append(span_counts)
    return counts


def _bundle(tmp_path):
    bundle = tmp_path / "model.json"
    tensorio.write_bundle(bundle, {"w": np.random.default_rng(0).normal(size=(16, 12)).astype(np.float32)})
    return bundle


def test_traced_quantize_counts_groups_and_codebook_slots(tmp_path):
    counts = _traced(tmp_path, "cli", "quantize", str(_bundle(tmp_path)), "-o", str(tmp_path / "q"),
                     "--scheme", "kmeans", "--bits", "3", "--groups", "2")
    assert counts["grouping.quantize_grouped"] == [{"groups": 2}]
    slots = counts["core.kmeans_quantize"]
    assert len(slots) == 2
    assert all(c["levels"] == 8 and 0 <= c["empty"] < 8 for c in slots)


def test_traced_oracle_step_runs_and_counts_codebook_slots(tmp_path):
    out = tmp_path / "oracle.json"
    counts = _traced(tmp_path, "script", str(ROOT / "perfbench" / "oracle_step.py"), str(_bundle(tmp_path)),
                     str(out), "--sample", "64", "--bits", "2", "--seed", "0")
    for name in ("core.linear_quantize", "core.kmeans_quantize"):
        assert [c["levels"] for c in counts[name]] == [4]
    result = json.loads(out.read_text())
    assert result["optimal_sse"] <= min(result["linear_sse"], result["kmeans_sse"])
