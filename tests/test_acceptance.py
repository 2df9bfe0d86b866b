"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Every tolerance and fixture seed is pinned here; nothing is
calibrated at run time.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from cbquant import cli, core, grouping, oracle, tensorio, training


@contextmanager
def criterion(cid, description):
    try:
        yield
    except BaseException:
        print(f"\nacceptance {cid} [{description}]: FAIL")
        raise
    print(f"\nacceptance {cid} [{description}]: PASS")


def kmeans_cfg(bits, **kw):
    return core.QuantConfig(scheme=core.Scheme.KMEANS, bits=bits, **kw)


def linear_cfg(bits, **kw):
    return core.QuantConfig(scheme=core.Scheme.LINEAR, bits=bits, **kw)


def reconstructed(v, cfg):
    """``v`` quantized as one group, then reconstructed."""
    return grouping.reconstruct_grouped(grouping.quantize_grouped(v, cfg))


def test_c1_scheme_ordering():
    """Mean k-means MSE (3 Lloyd iterations) beats linear at every bit-width."""
    with criterion("C1", "k-means < linear mean MSE for bits 1..5"):
        start = time.perf_counter()
        for bits in range(1, 6):
            km, lin = [], []
            for seed in range(20):
                v = np.random.default_rng(1000 + seed).normal(size=4096)
                km.append(core.error_stats(
                    v, reconstructed(v, kmeans_cfg(bits, max_iterations=3, seed=seed))).mse)
                lin.append(core.error_stats(v, reconstructed(v, linear_cfg(bits))).mse)
            assert np.mean(km) < np.mean(lin), f"ordering violated at bits={bits}"
        assert time.perf_counter() - start < 10.0


def test_c2_oracle_sandwich():
    """DP optimum lower-bounds both schemes exactly; converged k-means wins >= 95/100."""
    with criterion("C2", "oracle sandwich exact; k-means <= linear on >= 95/100"):
        start = time.perf_counter()
        wins = 0
        for i in range(100):
            rng = np.random.default_rng(5000 + i)
            n = int(rng.integers(8, 65))
            bits = 1 + (i % 2)
            v = rng.lognormal(0.0, 3.5, n)
            qk = grouping.quantize_grouped(v, kmeans_cfg(bits, max_iterations=100, seed=i))
            ql = grouping.quantize_grouped(v, linear_cfg(bits))
            opt = oracle.dp_optimal_quantize(v, 2**bits)
            assert opt.sse <= oracle.partition_cost(v, qk.labels)
            assert opt.sse <= oracle.partition_cost(v, ql.labels)
            if (core.error_stats(v, grouping.reconstruct_grouped(qk)).sse
                    <= core.error_stats(v, grouping.reconstruct_grouped(ql)).sse):
                wins += 1
        assert wins >= 95, f"k-means won only {wins}/100"
        assert time.perf_counter() - start < 5.0


def test_c3_iteration_effect():
    """More Lloyd iterations never hurt on the fixed bimodal fixture (exact)."""
    with criterion("C3", "SSE(10 iters) <= SSE(5) <= SSE(3), no tolerance"):
        rng = np.random.default_rng(2024)
        v = np.concatenate([rng.normal(-2.0, 0.5, 3000), rng.normal(2.0, 0.3, 1000)])
        sse = {
            iters: core.kmeans_cluster(v, kmeans_cfg(3, max_iterations=iters, seed=0)).sse
            for iters in (3, 5, 10)
        }
        assert sse[10] <= sse[5] <= sse[3]
        assert sse[10] < sse[3]  # the cap is actually binding on this fixture


def _fd_centroid_gradient(model, which, j, x, y):
    """Loss slope along centroid j, via central differences on the f32 codebook."""
    q = model.q1 if which == "q1" else model.q2

    def loss_with(value):
        centroids = q.centroids.astype(np.float64).copy()
        centroids[0, j] = value
        patched = replace(q, centroids=centroids.astype(np.float32))
        return training.model_loss(replace(model, **{which: patched}), x, y)

    base = float(q.centroids[0, j])
    hi = np.float64(np.float32(base + 1e-4))
    lo = np.float64(np.float32(base - 1e-4))
    return (loss_with(hi) - loss_with(lo)) / (hi - lo)


def test_c4_gradient_rule():
    """Centroid gradients: averaging rule exact; consistent with finite differences."""
    with criterion("C4", "centroid gradients match FD (1e-3 rel) and exact means"):
        hand = training.centroid_gradients([1.0, 3.0, 5.0], [0, 0, 1], 2)
        np.testing.assert_allclose(hand, [2.0, 5.0], atol=1e-12)
        hand2 = training.centroid_gradients([2.0, -4.0, 8.0, 10.0], [3, 3, 3, 3], 4)
        np.testing.assert_allclose(hand2, [0.0, 0.0, 0.0, 4.0], atol=1e-12)

        for task_seed in range(10):
            rng = np.random.default_rng(task_seed)
            model = training.quantize_model(
                training.make_toy_model(3, 6, 2, rng), kmeans_cfg(2, seed=1))
            batch_rng = np.random.default_rng(100 + task_seed)
            x = batch_rng.normal(size=(16, 3))
            y = batch_rng.normal(size=(16, 2))
            _, grads = training.loss_and_gradients(model, x, y)
            for which, key in (("q1", "w1"), ("q2", "w2")):
                q = model.q1 if which == "q1" else model.q2
                analytic = training.centroid_gradients(
                    grads[key].ravel(), q.labels, q.cfg.n_levels)
                occupancy = q.occupancy[0].astype(np.float64)
                for j in range(q.cfg.n_levels):
                    if occupancy[j] == 0:
                        assert analytic[j] == 0.0
                        continue
                    # the loss slope sums member gradients; the rule averages
                    fd = _fd_centroid_gradient(model, which, j, x, y) / occupancy[j]
                    assert analytic[j] == pytest.approx(fd, rel=1e-3, abs=1e-9)


def test_c5_fine_tuning_recovery():
    """1-bit k-means recovers >= 50% of the loss jump; k-means ends <= linear."""
    with criterion("C5", "recovery >= 50% at 1 bit; k-means final <= linear for bits 1..3"):
        start = time.perf_counter()
        train_cfg = training.TrainConfig(base_learning_rate=0.02, epochs=200,
                                         batch_size=64, quantized_lr_multiplier=10.0,
                                         data_seed=2)
        for bits in (1, 2, 3):
            result = training.run_experiment(train_cfg, kmeans_cfg(bits, seed=0),
                                             task_seed=2, hidden_dim=16)
            km = result.arms["KMEANS"]
            lin = result.arms["LINEAR"]
            assert km.final_loss <= lin.final_loss, f"arm ordering violated at bits={bits}"
            if bits == 1:
                assert result.recovery(core.Scheme.KMEANS) >= 0.5
        assert time.perf_counter() - start < 60.0


def test_c6_compression_ratio():
    """Serialized CBQ sizes hit the 8-bit ~4x and 3-bit ~10.7x ratios."""
    with criterion("C6", "ratio in [3.99, 4.00] at 8 bits and [10.5, 10.67] at 3 bits"):
        n = 10**6
        v = np.random.default_rng(0).normal(size=n).astype(np.float32)
        for bits, lo, hi in ((8, 3.99, 4.00), (3, 10.5, 10.67)):
            cfg = linear_cfg(bits)
            blob = tensorio.write_cbq(grouping.quantize_grouped(v, cfg))
            ratio = (32.0 * n) / (8.0 * len(blob))
            assert lo <= ratio <= hi, f"bits={bits}: ratio {ratio}"
            assert tensorio.compression_ratio(n, cfg) == ratio  # formula == actual bytes


def test_c7_format_stability():
    """Golden fixtures match bit-exactly; random round-trips are lossless."""
    with criterion("C7", "golden hex matches; 1000 random round-trips lossless"):
        assert tensorio.pack_indices([1, 0, 1, 1], 1) == bytes([0x0D])
        assert tensorio.pack_indices([3, 2, 1, 0], 2) == bytes([0x1B])
        from test_tensorio import GOLDEN_CBQ_HEX, golden_tensor
        assert tensorio.write_cbq(golden_tensor()).hex() == GOLDEN_CBQ_HEX

        for i in range(1000):
            rng = np.random.default_rng(9000 + i)
            n = int(rng.integers(1, 49))
            cfg = core.QuantConfig(
                scheme=core.Scheme.KMEANS if i % 2 else core.Scheme.LINEAR,
                bits=int(rng.integers(1, 9)),
                group_count=int(rng.integers(1, min(3, n) + 1)),
                seed=i)
            g = grouping.quantize_grouped(rng.normal(size=n), cfg, tensor_name=f"t{i}")
            blob = tensorio.write_cbq(g)
            parsed = tensorio.read_cbq(blob)
            assert tensorio.write_cbq(parsed) == blob
            np.testing.assert_array_equal(grouping.reconstruct_grouped(parsed),
                                          grouping.reconstruct_grouped(g))


def test_c8_thread_determinism(tmp_path, monkeypatch, capsys):
    """CLI quantization output is byte-identical for 1, 4, and 16 threads."""
    with criterion("C8", "identical bytes under CBQUANT_THREADS 1, 4, 16"):
        rng = np.random.default_rng(0)
        bundle = tmp_path / "model.json"
        tensorio.write_bundle(bundle, {
            f"block.{i}.weight": rng.normal(size=(32, 48)).astype(np.float32)
            for i in range(6)
        })
        outputs = {}
        for threads in (1, 4, 16):
            monkeypatch.setenv("CBQUANT_THREADS", str(threads))
            out = tmp_path / f"q{threads}"
            assert cli.main(["quantize", str(bundle), "-o", str(out),
                             "--scheme", "kmeans", "--bits", "3", "--groups", "4",
                             "--seed", "7"]) == 0
            capsys.readouterr()
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert outputs[1] == outputs[4] == outputs[16]


def test_c9_groupwise_compositionality():
    """128-group output equals per-span composition."""
    with criterion("C9", "grouped == composed per-group"):
        tensor = np.random.default_rng(5).normal(size=(64, 256))
        flat = tensor.reshape(-1)
        for scheme in (core.Scheme.LINEAR, core.Scheme.KMEANS):
            cfg = core.QuantConfig(scheme=scheme, bits=2, group_count=128, seed=3)
            g = grouping.quantize_grouped(tensor, cfg, tensor_name="w")
            for idx, (off, length) in enumerate(g.spans):
                solo = core.quantize(flat[off : off + length], cfg,
                                     tensor_name="w", group_index=idx)
                assert g.labels[off : off + length].tobytes() == solo.indices.labels.tobytes()
                assert g.centroids[idx].tobytes() == solo.codebook.centroids.tobytes()
