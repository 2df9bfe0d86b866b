"""End-to-end CLI behavior: exit codes, summaries, pipeline identity."""

import csv
import hashlib
import importlib.util
import io
import json
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cbquant import cli, core, grouping, tensorio
from cbquant.errors import BadConfigError, CorruptIndexError, NonFiniteInputError

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def golden_bundle(tmp_path):
    path = tmp_path / "bundle.json"
    tensorio.write_bundle(path, {"w": np.array([0.0, 0.5, 1.0, 1.5], np.float32)})
    return path


@pytest.fixture
def gaussian_bundle(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "model.json"
    tensorio.write_bundle(path, {
        "layer.0.weight": rng.normal(size=(24, 16)).astype(np.float32),
        "layer.1.weight": rng.normal(size=(8, 24)).astype(np.float32),
        "classifier.weight": rng.normal(size=(2, 8)).astype(np.float32),
    })
    return path


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestQuantizeCommand:
    def test_golden_bundle_linear_one_bit(self, golden_bundle, tmp_path, capsys):
        out = tmp_path / "q"
        code, text = run_cli(capsys, "quantize", str(golden_bundle), "-o", str(out),
                             "--scheme", "linear", "--bits", "1", "--format", "csv")
        assert code == 0
        rows = read_csv(text)
        assert rows[0]["tensor"] == "w"
        assert float(rows[0]["mse"]) == pytest.approx(0.0625, abs=1e-9)
        assert (out / "manifest.json").exists()

    def test_bits_out_of_range_is_usage_error(self, golden_bundle, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["quantize", str(golden_bundle), "-o", str(tmp_path / "q"),
                      "--bits", "9"])
        assert exc.value.code == 2

    def test_group_count_lands_in_header(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        bundle = tmp_path / "big.json"
        tensorio.write_bundle(bundle, {"w": rng.normal(size=(768, 768)).astype(np.float32)})
        out = tmp_path / "q"
        code, _ = run_cli(capsys, "quantize", str(bundle), "-o", str(out),
                          "--scheme", "linear", "--bits", "2", "--groups", "128")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        blob = (out / manifest["tensors"][0]["file"]).read_bytes()
        g = tensorio.read_cbq(blob)
        assert g.cfg.group_count == 128
        assert len(g.centroids) == 128

    def test_exclusion_pattern_passes_tensor_through(self, gaussian_bundle, tmp_path, capsys):
        out = tmp_path / "q"
        code, text = run_cli(capsys, "quantize", str(gaussian_bundle), "-o", str(out),
                             "--scheme", "linear", "--bits", "2",
                             "--exclude", "classifier", "--format", "csv")
        assert code == 0
        rows = {r["tensor"]: r for r in read_csv(text)}
        assert rows["classifier.weight"]["status"] == "excluded"
        assert rows["layer.0.weight"]["status"] == "quantized"

    def test_invalid_exclusion_pattern_is_usage_error(self, golden_bundle, tmp_path, capsys):
        out = tmp_path / "q"
        with pytest.raises(SystemExit) as exc:
            cli.main(["quantize", str(golden_bundle), "-o", str(out), "--bits", "2", "--exclude", "("])
        assert exc.value.code == 2
        assert not out.exists()

    def test_empty_exclusion_pattern_excludes_nothing(self, gaussian_bundle, tmp_path, capsys):
        code, text = run_cli(capsys, "quantize", str(gaussian_bundle), "-o", str(tmp_path / "q"),
                             "--bits", "2", "--exclude", "", "--format", "csv")
        assert code == 0
        assert {r["status"] for r in read_csv(text)} == {"quantized"}

    def test_huge_group_count_is_data_error(self, golden_bundle, tmp_path, capsys):
        out = tmp_path / "q"
        code, _ = run_cli(capsys, "quantize", str(golden_bundle), "-o", str(out), "--bits", "8",
                          "--groups", str(2**32 - 1))
        assert code == 3
        assert not out.exists()

    def test_missing_bundle_is_data_error(self, tmp_path, capsys):
        code, _ = run_cli(capsys, "quantize", str(tmp_path / "nope.json"),
                          "-o", str(tmp_path / "q"), "--bits", "2")
        assert code == 3

    def test_empty_bundle_is_data_error(self, tmp_path, capsys):
        bundle = tmp_path / "empty.json"
        tensorio.write_bundle(bundle, {})
        code, _ = run_cli(capsys, "quantize", str(bundle), "-o", str(tmp_path / "q"),
                          "--bits", "2")
        assert code == 3
        assert not (tmp_path / "q").exists()

    def test_nan_tensor_is_data_error_and_leaves_no_output(self, tmp_path, capsys):
        bundle = tmp_path / "nan.json"
        tensorio.write_bundle(bundle, {"w": np.array([1.0, np.nan], np.float32)})
        out = tmp_path / "q"
        code, _ = run_cli(capsys, "quantize", str(bundle), "-o", str(out), "--bits", "2")
        assert code == 3
        assert not out.exists()


class TestPipelineIdentity:
    def test_8bit_kmeans_bytes_do_not_depend_on_threads_or_the_kmeanspp_loop(self, tmp_path, monkeypatch,
                                                                             capsys):
        # Each tensor is past core._SORTED_MIN_SIZE, so 8-bit k-means++ keeps its
        # distances in value order; the last run forces the full pass instead.
        rng = np.random.default_rng(5)
        bundle = tmp_path / "big.json"
        tensorio.write_bundle(bundle, {f"w{i}": rng.normal(scale=0.02, size=(384, 384)).astype(np.float32)
                                       for i in range(3)})
        outputs = []
        for threads, sorted_min_clusters in (("1", core._SORTED_MIN_CLUSTERS), ("2", core._SORTED_MIN_CLUSTERS),
                                             ("2", 257)):
            monkeypatch.setenv("CBQUANT_THREADS", threads)
            monkeypatch.setattr(core, "_SORTED_MIN_CLUSTERS", sorted_min_clusters)
            out = tmp_path / f"q{len(outputs)}"
            assert cli.main(["quantize", str(bundle), "-o", str(out), "--bits", "8"]) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        capsys.readouterr()
        assert len(outputs[0]) == 4  # three CBQ files and the manifest
        assert outputs[0] == outputs[1] == outputs[2]

    def test_benchmark_quantize_keeps_its_bytes(self, tmp_path, capsys, monkeypatch):
        # The attn-kmeans8 workload's full-size, seed-0 quantize, with the benchmark's
        # bundle, arguments and thread count; its CBQ digests are read from perfbench.
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        wl = bench.make_workloads()["attn-kmeans8"]
        rng = np.random.default_rng(bench.DEFAULT_SEED)
        source = {name: rng.normal(0.0, 0.02, size=shape).astype(np.float32) for name, shape in wl.tensors}
        bench.write_bundle(tmp_path / "source.json", source)
        monkeypatch.setenv("CBQUANT_THREADS", str(bench.MAX_THREADS))
        out = tmp_path / "q"
        code, _ = run_cli(capsys, "quantize", str(tmp_path / "source.json"), "-o", str(out), "--scheme", wl.scheme,
                          "--bits", str(wl.bits), "--groups", str(wl.groups), "--format", "csv")
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        found = {f"cbq:{e['name']}": hashlib.sha256((out / e["file"]).read_bytes()).hexdigest()
                 for e in manifest["tensors"]}
        expected = json.loads((ROOT / "perfbench" / "digests.json").read_text())["attn-kmeans8"]
        assert found == {key: digest for key, digest in expected.items() if key.startswith("cbq:")}

    def test_cli_reconstruction_matches_library_path(self, gaussian_bundle, tmp_path, capsys):
        out = tmp_path / "q"
        rebuilt = tmp_path / "rebuilt.json"
        assert run_cli(capsys, "quantize", str(gaussian_bundle), "-o", str(out),
                       "--scheme", "kmeans", "--bits", "3", "--groups", "2",
                       "--seed", "11")[0] == 0
        assert run_cli(capsys, "reconstruct", str(out), "-o", str(rebuilt))[0] == 0

        cfg = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=3, group_count=2, seed=11)
        source = tensorio.read_bundle(gaussian_bundle)
        via_cli = tensorio.read_bundle(rebuilt)
        for name, tensor in source.items():
            expected = grouping.reconstruct_grouped(
                grouping.quantize_grouped(tensor, cfg, tensor_name=name))
            np.testing.assert_array_equal(via_cli[name], expected)

    def test_stats_on_empty_tensor_is_data_error(self, tmp_path, capsys):
        bundle = tmp_path / "empty.json"
        tensorio.write_bundle(bundle, {"w": np.zeros(0, np.float32)})
        code, out = run_cli(capsys, "stats", str(bundle), str(bundle))
        assert (code, out) == (3, "")

    def test_stats_on_identical_bundles_reports_zero(self, gaussian_bundle, capsys):
        code, text = run_cli(capsys, "stats", str(gaussian_bundle), str(gaussian_bundle),
                             "--format", "csv")
        assert code == 0
        for row in read_csv(text):
            assert float(row["sse"]) == 0.0
            assert float(row["max_abs_error"]) == 0.0

    def test_stats_with_mismatched_names_is_data_error(self, gaussian_bundle,
                                                       golden_bundle, capsys):
        code, _ = run_cli(capsys, "stats", str(gaussian_bundle), str(golden_bundle))
        assert code == 3

    def test_reconstruct_rejects_raw_entry_of_wrong_length(self, gaussian_bundle, tmp_path, capsys):
        out = tmp_path / "q"
        assert run_cli(capsys, "quantize", str(gaussian_bundle), "-o", str(out), "--bits", "2",
                       "--exclude", "classifier")[0] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        raw = next(e for e in manifest["tensors"] if e["kind"] == "raw")
        path = out / raw["file"]
        path.write_bytes(path.read_bytes()[:-2])
        code, _ = run_cli(capsys, "reconstruct", str(out), "-o", str(tmp_path / "out.json"))
        assert code == 3
        assert not (tmp_path / "out.json").exists()

    def test_reconstruct_rejects_broken_manifest(self, tmp_path, capsys):
        qdir = tmp_path / "q"
        qdir.mkdir()
        (qdir / "manifest.json").write_text(
            json.dumps({"format": "cbq-bundle", "version": 1,
                        "tensors": [{"name": "w", "kind": "cbq"}]}))
        code, _ = run_cli(capsys, "reconstruct", str(qdir),
                          "-o", str(tmp_path / "out.json"))
        assert code == 3


class TestSweepCommand:
    def test_single_cell_report(self, golden_bundle, capsys):
        code, text = run_cli(capsys, "sweep", str(golden_bundle), "--bits", "1",
                             "--schemes", "linear", "--seeds", "0", "--format", "csv")
        assert code == 0
        rows = read_csv(text)
        assert len(rows) == 1
        assert rows[0]["scheme"] == "linear"
        assert float(rows[0]["mse"]) == pytest.approx(0.0625, abs=1e-9)

    def test_empty_bits_list_is_usage_error(self, golden_bundle):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", str(golden_bundle), "--bits"])
        assert exc.value.code == 2

    def test_rows_are_stable_ordered(self, gaussian_bundle, capsys):
        code, text = run_cli(capsys, "sweep", str(gaussian_bundle),
                             "--bits", "2", "1", "--seeds", "1", "0", "--format", "csv")
        assert code == 0
        keys = [(r["scheme"], int(r["bits"]), int(r["seed"])) for r in read_csv(text)]
        assert keys == sorted(keys)

    # SHA-256 of the CSV, recorded before the sweep's workers shared one float64
    # copy of each tensor; 8 workers on 12 combinations read the shared copies at once.
    # The jobs are one per (scheme, tensor, seed): 2 and 3 workers split them unevenly.
    @pytest.mark.parametrize("threads", ["1", "2", "3", "8"])
    @pytest.mark.parametrize("groups,digest", [
        ("1", "9263eb6a2dd9387c28e21fe0c8c7d4d467395beaa2a34a3fb054d7ab42a3805c"),
        ("3", "024242918cc4bef6f39645df0ba13414058274fccc2d38f7ec03655b7528272e"),
    ])
    def test_csv_bytes_are_pinned(self, gaussian_bundle, capsys, monkeypatch, threads, groups, digest):
        monkeypatch.setenv("CBQUANT_THREADS", threads)
        code, text = run_cli(capsys, "sweep", str(gaussian_bundle), "--bits", "1", "2", "3",
                             "--seeds", "0", "1", "--groups", groups, "--format", "csv")
        assert code == 0
        assert len(read_csv(text)) == 12
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # SHA-256 of the default table (one row per bit width, each scheme's MSE
    # averaged over the seeds), recorded before the sweep kept one dict of rows.
    @pytest.mark.parametrize("groups,digest", [
        ("1", "fd023d524f246a986add9f7eb2085c11ba7f2e8bc02850d2c09252df22b41e82"),
        ("3", "cdccc7d7faa19566990a98d8e6089519dcfd2029442e666f23e67de6973d8e76"),
    ])
    def test_table_bytes_are_pinned(self, gaussian_bundle, capsys, groups, digest):
        code, text = run_cli(capsys, "sweep", str(gaussian_bundle), "--bits", "1", "2", "3",
                             "--seeds", "0", "1", "--groups", groups)
        assert code == 0
        assert text.splitlines()[0].split() == ["bits", "kmeans_mse", "linear_mse"]
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("groups", ["1", "3"])
    def test_each_row_is_a_separate_quantize_grouped_call(self, gaussian_bundle, capsys, monkeypatch, groups):
        # Bit widths out of order and with gaps; at 8 bits the 16-element tensor pads its codebooks.
        monkeypatch.setenv("CBQUANT_THREADS", "2")
        code, text = run_cli(capsys, "sweep", str(gaussian_bundle), "--bits", "8", "2", "1", "5",
                             "--seeds", "4", "0", "--groups", groups, "--format", "csv")
        assert code == 0
        tensors = tensorio.read_bundle(gaussian_bundle)
        count = sum(t.size for t in tensors.values())
        rows = read_csv(text)
        assert len(rows) == 2 * 4 * 2
        for row in rows:
            cfg = core.QuantConfig(scheme=core.Scheme[row["scheme"].upper()], bits=int(row["bits"]),
                                   seed=int(row["seed"]), group_count=int(groups))
            sse = 0.0
            for name in sorted(tensors):
                g = grouping.quantize_grouped(tensors[name], cfg, tensor_name=name)
                sse += core.error_stats(tensors[name], grouping.reconstruct_grouped(g)).sse
            assert row["mse"] == f"{sse / count:.9g}", row

    def test_one_order_per_tensor_and_one_linear_run_per_bit_width(self, gaussian_bundle, capsys, monkeypatch):
        # One process: the counters below live in it, and a worker process's calls never reach them.
        monkeypatch.setenv("CBQUANT_THREADS", "1")
        quantized, orders, draws = [], [], []
        quantize_grouped, value_order = grouping.quantize_grouped, grouping._value_order
        kmeans_widths, kmeanspp_sorted = grouping._kmeans_widths, core._kmeanspp_sorted
        built = {}  # the id of each value order: the tensor it sorts

        def counted_quantize(tensor, cfg, tensor_name=""):
            quantized.append((cfg.scheme.name, cfg.bits, cfg.seed, tensor_name, isinstance(tensor, np.ndarray)))
            return quantize_grouped(tensor, cfg, tensor_name)

        def counted_widths(tensor, order, cfgs, tensor_name=""):
            # Each config is one k-means run, here on the order built for its own tensor.
            quantized.extend((cfg.scheme.name, cfg.bits, cfg.seed, tensor_name, built[id(order)] is tensor)
                             for cfg in cfgs)
            return kmeans_widths(tensor, order, cfgs, tensor_name)

        def counted_order(tensor, group_count):
            orders.append(group_count)
            order = value_order(tensor, group_count)
            built[id(order)] = tensor
            return order

        monkeypatch.setattr(grouping, "quantize_grouped", counted_quantize)
        monkeypatch.setattr(grouping, "_kmeans_widths", counted_widths)
        monkeypatch.setattr(grouping, "_value_order", counted_order)
        monkeypatch.setattr(core, "_kmeanspp_sorted", lambda *args: draws.append(args[1]) or kmeanspp_sorted(*args))
        code, text = run_cli(capsys, "sweep", str(gaussian_bundle), "--bits", "1", "2", "--seeds", "0", "1", "2",
                             "--groups", "3", "--format", "csv")
        assert code == 0
        assert orders == [3, 3, 3]
        linear = [q for q in quantized if q[0] == "LINEAR"]
        assert sorted(q[1:4] for q in linear) == sorted((bits, 0, name) for bits in (1, 2)
                                                        for name in ("classifier.weight", "layer.0.weight",
                                                                     "layer.1.weight"))
        assert len(quantized) - len(linear) == 2 * 3 * 3
        assert all(q[4] for q in quantized if q[0] == "KMEANS")
        # One k-means++ draw per (tensor, seed, group), at the widest run's 4 clusters, serves both widths.
        assert draws == [4] * 3 * 3 * 3
        rows = read_csv(text)
        for bits in ("1", "2"):
            assert len({r["mse"] for r in rows if r["scheme"] == "linear" and r["bits"] == bits}) == 1
            assert [r["seed"] for r in rows if r["scheme"] == "linear" and r["bits"] == bits] == ["0", "1", "2"]

    def test_shared_orders_under_many_threads_and_fast_switching(self, gaussian_bundle, capsys, monkeypatch):
        # Eight workers on two cores read each tensor's one value order at once.
        argv = ("sweep", str(gaussian_bundle), "--bits", "1", "3", "--seeds", "0", "1", "2", "--groups", "2",
                "--format", "csv")
        monkeypatch.setenv("CBQUANT_THREADS", "1")
        _, expected = run_cli(capsys, *argv)
        monkeypatch.setenv("CBQUANT_THREADS", "8")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            code, text = run_cli(capsys, *argv)
        finally:
            sys.setswitchinterval(interval)
        assert code == 0
        assert text == expected

    def test_linear_only_sweep_builds_no_order(self, gaussian_bundle, capsys, monkeypatch):
        def no_order(tensor, group_count):
            raise AssertionError("a linear-only sweep built a value order")

        monkeypatch.setattr(grouping, "_value_order", no_order)
        code, _ = run_cli(capsys, "sweep", str(gaussian_bundle), "--bits", "2", "--schemes", "linear",
                          "--format", "csv")
        assert code == 0

    def test_benchmark_sweep_keeps_its_bytes(self, tmp_path, capsys, monkeypatch):
        # The paper-eval workload's full-size, seed-0 sweep, with the benchmark's
        # bundle, arguments and thread count; its stdout digest is read from perfbench.
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        rng = np.random.default_rng(bench.DEFAULT_SEED)
        source = {name: rng.normal(0.0, 0.02, size=shape).astype(np.float32)
                  for name, shape in bench.make_workloads()["paper-eval"].tensors}
        bench.write_bundle(tmp_path / "source.json", source)
        monkeypatch.setenv("CBQUANT_THREADS", str(bench.MAX_THREADS))
        code, text = run_cli(capsys, "sweep", str(tmp_path / "source.json"),
                             "--bits", *map(str, bench.SWEEP_BITS), "--schemes", *bench.SWEEP_SCHEMES,
                             "--seeds", *map(str, bench.SWEEP_SEEDS), "--format", "csv")
        assert code == 0
        digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
        assert hashlib.sha256(text.encode()).hexdigest() == digests["paper-eval"]["sweep.csv"]


# Sizes one below, at and one past a chunk of core._ASSIGN_CHUNK, and past two.
SSE_SIZES = [core._ASSIGN_CHUNK - 1, core._ASSIGN_CHUNK, core._ASSIGN_CHUNK + 1, 2 * core._ASSIGN_CHUNK + 5]


@pytest.mark.parametrize("n", SSE_SIZES)
@pytest.mark.parametrize("groups", [1, 3, 7, 1000])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scheme", [core.Scheme.LINEAR, core.Scheme.KMEANS])
def test_grouped_sse_is_the_error_stats_sse_bit_for_bit(n, groups, dtype, scheme):
    rng = np.random.default_rng(n + groups)
    tensor = (rng.normal(scale=0.02, size=n) * 10.0 ** rng.integers(-3, 3, n)).astype(dtype)
    g = grouping.quantize_grouped(tensor, core.QuantConfig(scheme=scheme, bits=3, max_iterations=1,
                                                           group_count=groups))
    expected = core.error_stats(tensor, grouping.reconstruct_grouped(g)).sse
    assert cli._grouped_sse(tensor, g).hex() == expected.hex()


class TestTrainToyCommand:
    def test_writes_curve_records(self, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        code, text = run_cli(capsys, "train-toy", "--bits", "2", "--epochs", "3",
                             "--pretrain-epochs", "10", "--curves", str(curves),
                             "--format", "csv")
        assert code == 0
        lines = curves.read_text().splitlines()
        assert len(lines) == 8
        first = lines[0].split(",")
        assert len(first) == 5
        assert first[1] in ("linear", "kmeans")

    def test_benchmark_run_keeps_its_bytes(self, tmp_path, capsys):
        # The paper-eval workload's train-toy command.  Its stdout digest is read
        # from perfbench; the curve file's digest was taken from the per-batch
        # fine-tuning loop that train_step's batched form replaced.
        curves = tmp_path / "curves.csv"
        code, text = run_cli(capsys, "train-toy", "--bits", "2", "--seed", "0", "--data-seed", "0",
                             "--task-seed", "0", "--format", "csv", "--curves", str(curves))
        assert code == 0
        digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
        assert hashlib.sha256(text.encode()).hexdigest() == digests["paper-eval"]["train-toy.csv"]
        assert (hashlib.sha256(curves.read_bytes()).hexdigest()
                == "1961e38f8a66b9029df8b2e1bf77aa2771d3b497009d8cad0c2f41559482cdc4")

    def test_diverging_fine_tune_exits_3_and_writes_no_curves(self, tmp_path):
        # A subprocess, because pytest turns the float32 cast's overflow
        # RuntimeWarning into an error, which main reports as exit 4.
        curves = tmp_path / "curves.csv"
        proc = subprocess.run([sys.executable, "-m", "cbquant.cli", "train-toy", "--bits", "2",
                               "--epochs", "3", "--pretrain-epochs", "0", "--lr", "50",
                               "--curves", str(curves)],
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "codebook contains non-finite centroids" in proc.stderr
        assert not curves.exists()



def _raw_entry(manifest):
    return next(e for e in manifest["tensors"] if e["kind"] == "raw")


# Each edit turns a valid quantized manifest (written by `quantize --exclude
# classifier`) into one that `reconstruct` must reject.
QUANTIZED_MANIFEST_EDITS = {
    "raw_shape_not_integer": lambda m, q: _raw_entry(m).update(shape=["x"]),
    "non_object_entry": lambda m, q: m["tensors"].append(7),
    "tensors_is_string": lambda m, q: m.update(tensors="t00000.cbq"),
    "manifest_is_list": lambda m, q: m["tensors"],
    "file_in_parent_directory": lambda m, q: _raw_entry(m).update(file=f"../q/{_raw_entry(m)['file']}"),
    "absolute_file": lambda m, q: _raw_entry(m).update(file=str(q / _raw_entry(m)["file"])),
    "duplicate_names": lambda m, q: m["tensors"][1].update(name=m["tensors"][0]["name"]),
    "unknown_kind": lambda m, q: m["tensors"][0].update(kind="zzz"),
}


class TestHostileManifests:
    @pytest.mark.parametrize("edit", sorted(QUANTIZED_MANIFEST_EDITS))
    def test_reconstruct_rejects_and_writes_nothing(self, edit, gaussian_bundle, tmp_path, capsys):
        q = tmp_path / "q"
        assert run_cli(capsys, "quantize", str(gaussian_bundle), "-o", str(q), "--bits", "2",
                       "--exclude", "classifier")[0] == 0
        manifest = json.loads((q / "manifest.json").read_text())
        edited = QUANTIZED_MANIFEST_EDITS[edit](manifest, q)
        (q / "manifest.json").write_text(json.dumps(manifest if edited is None else edited))
        code = cli.main(["reconstruct", str(q), "-o", str(tmp_path / "out.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert not (tmp_path / "out.json").exists() and not (tmp_path / "out.bin").exists()
        if edit == "unknown_kind":
            assert "'zzz'" in err

    def test_reconstruct_rejects_cbq_rank_beyond_numpy(self, tmp_path, capsys):
        cfg = core.QuantConfig(scheme=core.Scheme.LINEAR, bits=1)
        blob = tensorio.write_cbq(grouping.quantize_grouped(np.ones(1), cfg))
        blob = blob[:12] + bytes([65]) + struct.pack("<65Q", *[1] * 65) + blob[21:]  # rank 65
        tensorio.write_quantized(tmp_path / "q", {"w": blob})
        code = cli.main(["reconstruct", str(tmp_path / "q"), "-o", str(tmp_path / "out.json")])
        capsys.readouterr()
        assert code == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q"]

    @pytest.mark.parametrize("edit", ["negative_shape", "rank_beyond_numpy", "absolute_payload"])
    def test_stats_rejects_bundle(self, edit, tmp_path, capsys):
        bundle = tmp_path / "model.json"
        tensorio.write_bundle(bundle, {"w": np.ones((4, 4), np.float32)})
        manifest = json.loads(bundle.read_text())
        if edit == "negative_shape":
            manifest["tensors"][0]["shape"] = [-4, -4]
        elif edit == "rank_beyond_numpy":
            manifest["tensors"][0]["shape"] = [1] * 65
            manifest["tensors"][0]["length"] = 4
        else:
            manifest["payload"] = str(tmp_path / "model.bin")
        bundle.write_text(json.dumps(manifest))
        code, out = run_cli(capsys, "stats", str(bundle), str(bundle))
        assert (code, out) == (3, "")


class TestWorkerProcesses:
    """``cli._parallel_map`` forks its workers, gives back results in job order
    and the first failing job's exception, and reaps every child on every path."""

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch):
        # Three CPUs whatever the machine has, so that every count below forks.
        monkeypatch.setattr(cli, "_available_cpus", lambda: 3)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("jobs", [0, 1, 2, 7])
    def test_results_come_back_in_job_order(self, monkeypatch, workers, jobs):
        monkeypatch.setenv("CBQUANT_THREADS", str(workers))
        results = cli._parallel_map(lambda job: (job, os.getpid()), range(jobs))
        assert [job for job, _ in results] == list(range(jobs))
        # Job i runs in worker i % W: the parent at 0, one child for each other remainder.
        used = max(1, min(workers, jobs))
        pids = [pid for _, pid in results]
        assert [pid == os.getpid() for pid in pids] == [i % used == 0 for i in range(jobs)]
        assert len(set(pids)) == min(workers, jobs)
        self.assert_no_child_left()

    def test_the_first_failing_job_raises_its_error_from_a_child(self, monkeypatch):
        monkeypatch.setenv("CBQUANT_THREADS", "2")
        parent = os.getpid()

        def job(i):
            if i >= 3:  # job 3 runs in the child, job 4 in the parent
                raise BadConfigError(f"job {i} in {'the parent' if os.getpid() == parent else 'a child'}")
            return i

        with pytest.raises(BadConfigError, match="^job 3 in a child$"):
            cli._parallel_map(job, range(6))
        self.assert_no_child_left()

    def test_a_child_error_exits_3_and_writes_nothing(self, gaussian_bundle, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CBQUANT_THREADS", "2")
        parent, quantize_grouped = os.getpid(), grouping.quantize_grouped

        def failing(tensor, cfg, tensor_name=""):
            if os.getpid() != parent:
                raise NonFiniteInputError(f"{tensor_name} failed in a child")
            return quantize_grouped(tensor, cfg, tensor_name)

        monkeypatch.setattr(grouping, "quantize_grouped", failing)
        out = tmp_path / "q"
        assert cli.main(["quantize", str(gaussian_bundle), "-o", str(out), "--bits", "2"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "cbquant: error: layer.0.weight failed in a child\n")
        assert not out.exists()
        self.assert_no_child_left()

    def test_a_child_that_dies_exits_4_and_writes_nothing(self, gaussian_bundle, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CBQUANT_THREADS", "2")
        parent, quantize_grouped = os.getpid(), grouping.quantize_grouped

        def dying(tensor, cfg, tensor_name=""):
            if os.getpid() != parent:
                os._exit(1)
            return quantize_grouped(tensor, cfg, tensor_name)

        monkeypatch.setattr(grouping, "quantize_grouped", dying)
        out = tmp_path / "q"
        assert cli.main(["quantize", str(gaussian_bundle), "-o", str(out), "--bits", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ended without a result (exit status 1)" in captured.err
        assert not out.exists()
        self.assert_no_child_left()

    def test_quantize_files_keep_their_sorted_index_names(self, gaussian_bundle, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CBQUANT_THREADS", "2")
        q = tmp_path / "q"
        assert cli.main(["quantize", str(gaussian_bundle), "-o", str(q), "--bits", "2", "--exclude", "layer.1"]) == 0
        capsys.readouterr()
        manifest = json.loads((q / "manifest.json").read_text())
        assert [(e["name"], e["file"]) for e in manifest["tensors"]] == [
            ("classifier.weight", "t00000.cbq"), ("layer.0.weight", "t00001.cbq"), ("layer.1.weight", "t00002.f32")]
        assert sorted(os.listdir(q)) == ["manifest.json", "t00000.cbq", "t00001.cbq", "t00002.f32"]
        assert sorted(os.listdir(tmp_path)) == ["model.bin", "model.json", "q"]  # nothing left staged
        self.assert_no_child_left()

    @staticmethod
    def tied_quantized(bundle, tmp_path):
        """A quantized directory of ``bundle``: ``classifier.weight`` passed through raw,
        and a fourth name, ``tied.weight``, that shares the CBQ file of ``layer.0.weight``."""
        q = tmp_path / "q"
        assert cli.main(["quantize", str(bundle), "-o", str(q), "--bits", "3", "--groups", "2",
                         "--exclude", "classifier"]) == 0
        manifest = json.loads((q / "manifest.json").read_text())
        manifest["tensors"].append({**manifest["tensors"][1], "name": "tied.weight"})
        (q / "manifest.json").write_text(json.dumps(manifest))
        return q

    def test_reconstruct_writes_the_same_bytes_for_any_worker_count(self, gaussian_bundle, tmp_path, monkeypatch,
                                                                    capsys):
        q = self.tied_quantized(gaussian_bundle, tmp_path)
        library = tmp_path / "library" / "rebuilt.json"
        tensorio.write_bundle(library, {name: grouping.reconstruct_grouped(t) if isinstance(t, grouping.GroupedQuantizedTensor)
                                        else t for name, t in tensorio.read_quantized(q).items()})
        expected = [library.read_bytes(), library.with_suffix(".bin").read_bytes()]
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("CBQUANT_THREADS", threads)
            out = tmp_path / f"threads{threads}" / "rebuilt.json"
            out.parent.mkdir()
            assert cli.main(["reconstruct", str(q), "-o", str(out)]) == 0
            assert sorted(os.listdir(out.parent)) == ["rebuilt.bin", "rebuilt.json"]
            assert [out.read_bytes(), out.with_suffix(".bin").read_bytes()] == expected
        capsys.readouterr()
        rebuilt = tensorio.read_bundle(out)
        assert list(rebuilt) == ["classifier.weight", "layer.0.weight", "layer.1.weight", "tied.weight"]
        np.testing.assert_array_equal(rebuilt["classifier.weight"], tensorio.read_bundle(gaussian_bundle)["classifier.weight"])
        # Each name that shares a file is still written at its own offset.
        np.testing.assert_array_equal(rebuilt["tied.weight"], rebuilt["layer.0.weight"])
        assert not np.shares_memory(rebuilt["tied.weight"], rebuilt["layer.0.weight"])
        self.assert_no_child_left()

    @pytest.mark.parametrize("failure", ["error", "death"])
    def test_a_reconstruct_child_that_fails_leaves_no_output(self, gaussian_bundle, tmp_path, monkeypatch, capsys,
                                                             failure):
        q = self.tied_quantized(gaussian_bundle, tmp_path)
        monkeypatch.setenv("CBQUANT_THREADS", "2")
        parent, read_cbq = os.getpid(), tensorio.read_cbq

        def failing(data):  # jobs 1 and 3, which read CBQ files, run in the child
            if os.getpid() != parent:
                if failure == "death":
                    os._exit(1)
                raise CorruptIndexError("failed in a child")
            return read_cbq(data)

        monkeypatch.setattr(tensorio, "read_cbq", failing)
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()  # the quantize report
        code = cli.main(["reconstruct", str(q), "-o", str(tmp_path / "rebuilt.json")])
        captured = capsys.readouterr()
        if failure == "error":
            assert (code, captured.out, captured.err) == (3, "", "cbquant: error: failed in a child\n")
        else:
            assert (code, captured.out) == (4, "")
            assert "ended without a result (exit status 1)" in captured.err
        assert sorted(os.listdir(tmp_path)) == before  # no output and no staging directory
        self.assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self"),
                        reason="needs os.fork and /proc")
    def test_a_child_whose_parent_is_killed_stops_after_its_job(self, tmp_path):
        # 24 jobs of 0.2 s at W=2: the child's share takes 2.4 s; killed, it should leave after the one in hand.
        log = tmp_path / "pids"
        code = ("import os, sys, time; from cbquant import cli\n"
                "cli._available_cpus = lambda: 2\n"
                "def job(i):\n"
                "    with open(sys.argv[1], 'a') as f: f.write(f'{os.getpid()}\\n')\n"
                "    time.sleep(0.2)\n"
                "cli._parallel_map(job, list(range(24)))\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), CBQUANT_THREADS="2")
        proc = subprocess.Popen([sys.executable, "-c", code, str(log)], env=env)
        child = None
        try:
            deadline = time.monotonic() + 60
            while child is None and time.monotonic() < deadline and proc.poll() is None:
                time.sleep(0.01)
                lines = log.read_text().split("\n")[:-1] if log.exists() else []  # whole lines only
                pids = {int(line) for line in lines}
                child = next(iter(pids - {proc.pid}), None)
            assert child is not None, "the worker never started a job"
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 1.5
            while not self.exited(child) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert self.exited(child)
        finally:  # leave no process running, whatever failed
            proc.kill()
            proc.wait()
            if child is not None and not self.exited(child):
                os.kill(child, signal.SIGKILL)

    @staticmethod
    def exited(pid):
        """Whether ``pid`` has no process or only a zombie, one that exited but is not yet reaped."""
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return True
        return stat.rsplit(")", 1)[1].split()[0] == "Z"

    # (CBQUANT_THREADS, then the count for 8 CPUs and 3 jobs, and for 2 CPUs and 100 jobs).
    @pytest.mark.parametrize("raw,few_jobs,few_cpus", [("0", 1, 1), ("-3", 1, 1), ("x", 3, 2),
                                                       ("100000", 3, 2), ("2", 2, 2)])
    def test_worker_count_stays_within_the_cpus_and_the_jobs(self, raw, few_jobs, few_cpus):
        assert cli._worker_count(raw, 8, 3) == few_jobs
        assert cli._worker_count(raw, 2, 100) == few_cpus
        assert cli._worker_count(raw, 1, 1) == 1
        assert cli._worker_count(raw, 8, 0) == 1  # no job: the parent alone, with nothing to run


class TestStartup:
    ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def test_importing_the_cli_loads_no_training_and_no_pool(self):
        code = ("import sys, cbquant.cli; "
                "print([m for m in ('cbquant.training', 'concurrent.futures', 'multiprocessing', 'cbquant.oracle') "
                "if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], env=self.ENV, capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    def test_importing_the_package_loads_no_submodule_and_no_numpy(self):
        code = ("import sys, cbquant; "
                "print(sorted(m for m in sys.modules if m.startswith('cbquant.') or m.split('.')[0] == 'numpy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=self.ENV, capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    @pytest.mark.parametrize("case", ["sweep", "quantize-kmeans", "reconstruct", "oracle-step"])
    def test_a_kmeans_sweep_loads_no_masked_arrays(self, case, gaussian_bundle, tmp_path):
        # numpy.ma costs about 15 ms to import; np.union1d and np.unique, for two, import it on
        # their first call.  The oracle case runs the benchmark's oracle step as its script does.
        bundle, quantized = str(gaussian_bundle), str(tmp_path / "q")
        if case == "reconstruct":
            assert cli.main(["quantize", bundle, "-o", quantized, "--bits", "2"]) == 0
        run = {
            "sweep": f"cli.main(['sweep', {bundle!r}, '--bits', '1', '3', '--seeds', '0', '1'])",
            "quantize-kmeans": f"cli.main(['quantize', {bundle!r}, '-o', {quantized!r}, '--scheme', 'kmeans', "
                               "'--bits', '3'])",
            "reconstruct": f"cli.main(['reconstruct', {quantized!r}, '-o', {str(tmp_path / 'r.json')!r}])",
            "oracle-step": f"sys.argv[1:] = [{bundle!r}, {str(tmp_path / 'oracle.json')!r}, '--sample', '64', "
                           "'--bits', '2', '--seed', '0']; "
                           f"runpy.run_path({str(ROOT / 'perfbench' / 'oracle_step.py')!r}, run_name='__main__')",
        }[case]
        code = f"import runpy, sys; from cbquant import cli; {run}; print('numpy.ma' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env={**self.ENV, "CBQUANT_THREADS": "1"},
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "False"), proc.stderr

    @pytest.mark.parametrize("case", ["reconstruct", "quantize-linear"])
    def test_commands_that_draw_no_stream_load_no_random_and_no_hashlib(self, case, gaussian_bundle, tmp_path):
        bundle, quantized = str(gaussian_bundle), str(tmp_path / "q")
        if case == "reconstruct":
            assert cli.main(["quantize", bundle, "-o", quantized, "--bits", "2", "--exclude", "classifier"]) == 0
        run = {
            "reconstruct": f"cli.main(['reconstruct', {quantized!r}, '-o', {str(tmp_path / 'r.json')!r}])",
            "quantize-linear": f"cli.main(['quantize', {bundle!r}, '-o', {quantized!r}, '--scheme', 'linear', "
                               "'--bits', '4', '--groups', '2'])",
        }[case]
        code = (f"import sys; from cbquant import cli; {run}; "
                "print([m for m in ('numpy.random', 'secrets', 'hashlib', '_hashlib') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], env={**self.ENV, "CBQUANT_THREADS": "2"},
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "[]"), proc.stderr

    def test_help_still_imports_numpy_and_core(self):
        # What every real command imports, so that a --help launch times the same start-up.
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "cbquant.cli", "--help"], env=self.ENV,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout.startswith("usage: cbquant")
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert {"numpy", "cbquant.core"} <= imported
        assert "cbquant.training" not in imported


class TestQuantizeOutput:
    def test_failed_write_removes_the_created_directory(self, golden_bundle, tmp_path,
                                                        capsys, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(tensorio.os, "replace", fail)
        out = tmp_path / "q"
        code, _ = run_cli(capsys, "quantize", str(golden_bundle), "-o", str(out), "--bits", "1")
        assert code == 3
        assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--lr", "inf"), ("--lr", "nan"), ("--multiplier", "inf")])
def test_train_toy_rejects_non_finite_rates(flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train-toy", "--bits", "1", "--epochs", "2", "--pretrain-epochs", "2", flag, value])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["0", "-0.0"])
def test_train_toy_rejects_a_zero_learning_rate(value, capsys):
    # The parser rejects it, before TrainConfig would (exit 3).
    with pytest.raises(SystemExit) as exc:
        cli.main(["train-toy", "--bits", "1", "--lr", value])
    assert exc.value.code == 2
    assert "expected a finite float in (0, inf]" in capsys.readouterr().err


def test_train_toy_rejects_groups_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["train-toy", "--bits", "2", "--groups", "4"])
    assert exc.value.code == 2


def _argv(command, bundle, out):
    """A valid ``command`` argv that writes, if at all, to ``out``."""
    return {"quantize": ["quantize", str(bundle), "-o", str(out), "--bits", "2"],
            "sweep": ["sweep", str(bundle), "--bits", "2"],
            "train-toy": ["train-toy", "--bits", "2", "--epochs", "1", "--pretrain-epochs", "1",
                          "--curves", str(out)]}[command]


@pytest.mark.parametrize("command,flag,value", [
    *((c, "--iters", str(2**32)) for c in ("quantize", "sweep", "train-toy")),
    *((c, "--groups", str(2**32)) for c in ("quantize", "sweep")),
    *((c, "--seeds" if c == "sweep" else "--seed", str(2**64)) for c in ("quantize", "sweep", "train-toy")),
    *((c, "--epsilon", "0.1") for c in ("quantize", "sweep", "train-toy")),
])
def test_values_a_cbq_header_cannot_hold_are_usage_errors(command, flag, value, golden_bundle,
                                                           tmp_path, capsys):
    # The header stores the iteration cap and the group count as u32s, the seed as a u64,
    # and no stopping tolerance.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(_argv(command, golden_bundle, out) + [flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["quantize", "sweep", "train-toy"])
def test_largest_iteration_cap_runs(command, golden_bundle, tmp_path, capsys):
    # Lloyd stops when no label changes, long before the cap.
    assert cli.main(_argv(command, golden_bundle, tmp_path / "out") + ["--iters", str(2**32 - 1)]) == 0


@pytest.mark.parametrize("command", ["quantize", "sweep", "train-toy"])
def test_largest_seed_runs(command, golden_bundle, tmp_path, capsys):
    flag = "--seeds" if command == "sweep" else "--seed"
    assert cli.main(_argv(command, golden_bundle, tmp_path / "out") + [flag, str(2**64 - 1)]) == 0
