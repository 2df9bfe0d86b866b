"""End-to-end CLI behavior: exit codes, summaries, pipeline identity."""

import csv
import io
import json
import struct

import numpy as np
import pytest

from cbquant import cli, core, grouping, tensorio


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
                          "--groups", "99999999999")
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


def test_train_toy_rejects_groups_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["train-toy", "--bits", "2", "--groups", "4"])
    assert exc.value.code == 2
