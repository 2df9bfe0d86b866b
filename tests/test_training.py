"""Toy-model forward/backward, the centroid-averaging rule, and fine-tuning."""

from dataclasses import replace

import numpy as np
import pytest

from cbquant import core, grouping, tensorio, training
from cbquant.errors import BadConfigError, LengthMismatchError, ShapeMismatchError


def constant_quantized(value, shape, bits=1):
    """A 1-layer's worth of weights quantized to a single constant."""
    n = int(np.prod(shape))
    centroids = np.full((1, 2**bits), value, dtype=np.float32)
    occupancy = np.zeros((1, 2**bits), dtype=np.uint32)
    occupancy[0, 0] = n
    cfg = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=bits)
    return grouping.GroupedQuantizedTensor(shape, cfg, centroids, occupancy, np.zeros(n, dtype=np.uint8))


def small_quantized_model(task_seed=0, bits=2, scheme=core.Scheme.KMEANS):
    rng = np.random.default_rng(task_seed)
    model = training.make_toy_model(3, 6, 2, rng)
    cfg = core.QuantConfig(scheme=scheme, bits=bits, seed=1)
    return training.quantize_model(model, cfg)


class TestForward:
    def test_zero_weights_give_zero_predictions(self):
        model = training.ToyModel(w1=np.zeros((4, 3)), b1=np.zeros(4),
                                  w2=np.zeros((2, 4)), b2=np.zeros(2))
        pred, _ = training.forward(model, np.ones((5, 3)))
        np.testing.assert_array_equal(pred, np.zeros((5, 2)))

    def test_scalar_network_hand_value(self):
        w2 = 1.7
        model = training.ToyModel(w1=np.array([[2.0]]), b1=np.zeros(1),
                                  w2=np.array([[w2]]), b2=np.zeros(1),
                                  q1=constant_quantized(2.0, (1, 1)))
        pred, _ = training.forward(model, np.array([[1.0]]))
        assert pred[0, 0] == pytest.approx(np.tanh(2.0) * w2, abs=1e-12)

    def test_quantized_forward_matches_reconstructed_dense_forward(self):
        model = small_quantized_model()
        dense = training.ToyModel(w1=model.weight1(), b1=model.b1,
                                  w2=model.weight2(), b2=model.b2)
        x = np.random.default_rng(3).normal(size=(7, 3))
        np.testing.assert_array_equal(training.forward(model, x)[0],
                                      training.forward(dense, x)[0])

    def test_shape_mismatch(self):
        model = training.ToyModel(w1=np.zeros((4, 3)), b1=np.zeros(4),
                                  w2=np.zeros((2, 4)), b2=np.zeros(2))
        with pytest.raises(ShapeMismatchError):
            training.forward(model, np.ones((5, 2)))


class TestCentroidGradients:
    def test_hand_average(self):
        grads = training.centroid_gradients([1.0, 3.0, 5.0], [0, 0, 1], 2)
        np.testing.assert_array_equal(grads, [2.0, 5.0])

    def test_single_cluster_takes_global_mean(self):
        grads = training.centroid_gradients([2.0, 4.0, 6.0], [1, 1, 1], 4)
        np.testing.assert_array_equal(grads, [0.0, 4.0, 0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            training.centroid_gradients([1.0, 2.0], [0], 2)

    @pytest.mark.parametrize("task_seed", range(10))
    def test_matches_finite_differences(self, task_seed):
        # d(loss)/d(centroid) equals the SUM of member-weight gradients; the
        # update rule averages instead, so the oracle divides by cluster size
        model = small_quantized_model(task_seed)
        rng = np.random.default_rng(100 + task_seed)
        x = rng.normal(size=(16, 3))
        y = rng.normal(size=(16, 2))
        _, grads = training.loss_and_gradients(model, x, y)

        for q, key in ((model.q1, "w1"), (model.q2, "w2")):
            analytic = training.centroid_gradients(grads[key].ravel(), q.labels,
                                                   q.cfg.n_levels)
            occupancy = q.occupancy[0].astype(np.float64)
            step = 1e-4
            for j in range(q.cfg.n_levels):
                if occupancy[j] == 0:
                    assert analytic[j] == 0.0
                    continue
                fd = _centroid_loss_slope(model, q, key, j, step, x, y) / occupancy[j]
                assert analytic[j] == pytest.approx(fd, rel=1e-3, abs=1e-9)


def _centroid_loss_slope(model, q, key, j, step, x, y):
    """Central finite difference of the loss along centroid j."""
    def loss_with(value):
        centroids = q.centroids.astype(np.float64).copy()
        centroids[0, j] = value
        patched = replace(q, centroids=centroids.astype(np.float32))
        return training.model_loss(replace(model, **{("q1" if key == "w1" else "q2"): patched}), x, y)

    base = float(q.centroids[0, j])
    hi = np.float64(np.float32(base + step))
    lo = np.float64(np.float32(base - step))
    return (loss_with(hi) - loss_with(lo)) / (hi - lo)


class TestTrainStep:
    def cfg(self, **kw):
        defaults = dict(base_learning_rate=1e-3, epochs=1, batch_size=8)
        defaults.update(kw)
        return training.TrainConfig(**defaults)

    def test_perfect_fit_leaves_model_unchanged(self):
        model = small_quantized_model()
        x = np.random.default_rng(5).normal(size=(6, 3))
        y, _ = training.forward(model, x)
        updated, loss = training.train_step(model, (x, y), self.cfg())
        assert loss == 0.0
        np.testing.assert_array_equal(updated.q1.centroids, model.q1.centroids)
        np.testing.assert_array_equal(updated.b1, model.b1)

    def test_one_step_decreases_loss(self):
        model = small_quantized_model()
        rng = np.random.default_rng(7)
        x = rng.normal(size=(32, 3))
        y = rng.normal(size=(32, 2))
        before = training.model_loss(model, x, y)
        updated, _ = training.train_step(model, (x, y), self.cfg())
        assert training.model_loss(updated, x, y) < before

    def test_zero_multiplier_freezes_centroids(self):
        model = small_quantized_model()
        rng = np.random.default_rng(8)
        batch = (rng.normal(size=(16, 3)), rng.normal(size=(16, 2)))
        updated, _ = training.train_step(model, batch, self.cfg(quantized_lr_multiplier=0.0))
        np.testing.assert_array_equal(updated.q1.centroids, model.q1.centroids)
        assert not np.array_equal(updated.b1, model.b1)

    def test_labels_frozen_across_steps(self):
        model = small_quantized_model()
        rng = np.random.default_rng(9)
        labels_before = model.q1.labels.tobytes()
        for _ in range(25):
            batch = (rng.normal(size=(16, 3)), rng.normal(size=(16, 2)))
            model, _ = training.train_step(model, batch, self.cfg(base_learning_rate=0.05))
        assert model.q1.labels.tobytes() == labels_before

    def test_distinct_weight_values_stay_bounded(self):
        bits = 2
        model = small_quantized_model(bits=bits)
        rng = np.random.default_rng(10)
        for _ in range(10):
            batch = (rng.normal(size=(16, 3)), rng.normal(size=(16, 2)))
            model, _ = training.train_step(model, batch, self.cfg(base_learning_rate=0.05))
            w1 = grouping.reconstruct_grouped(model.q1)
            assert len(np.unique(w1)) <= 2**bits


class TestQuantizeModel:
    def test_layers_are_single_group_tensors_in_the_weight_shape(self):
        model = small_quantized_model()
        for q, w in ((model.q1, model.w1), (model.q2, model.w2)):
            assert q.shape == w.shape
            assert q.cfg.group_count == 1
            again = tensorio.read_cbq(tensorio.write_cbq(q))
            np.testing.assert_array_equal(grouping.reconstruct_grouped(again),
                                          grouping.reconstruct_grouped(q))

    def test_more_than_one_group_is_rejected(self):
        model = training.make_toy_model(3, 6, 2, np.random.default_rng(0))
        cfg = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=2, group_count=2)
        with pytest.raises(BadConfigError):
            training.quantize_model(model, cfg)


class TestRunExperiment:
    def test_eight_bit_quantization_is_near_lossless(self):
        tc = training.TrainConfig(base_learning_rate=0.02, epochs=0, batch_size=64,
                                  data_seed=2)
        qc = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=8, max_iterations=3, seed=0)
        res = training.run_experiment(tc, qc, task_seed=2, hidden_dim=16)
        for arm in res.arms.values():
            assert abs(arm.post_quant_loss - res.pretrain_loss) <= 0.01 * res.pretrain_loss

    def test_curve_record_format(self):
        tc = training.TrainConfig(base_learning_rate=0.02, epochs=3, batch_size=64,
                                  data_seed=0)
        qc = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=2, max_iterations=3, seed=0)
        res = training.run_experiment(tc, qc, task_seed=0, pretrain_epochs=20)
        lines = training.curve_records(res)
        assert len(lines) == 2 * 4  # both schemes, epoch 0 plus 3 epochs
        for line in lines:
            epoch, scheme, bits, seed, loss = line.split(",")
            assert scheme in ("linear", "kmeans")
            assert (int(bits), int(seed)) == (2, 0)
            float(loss)
            int(epoch)
        # 9 significant digits in the loss field
        assert all(len(line.split(",")[4].replace(".", "").replace("-", "").lstrip("0")) <= 9
                   for line in lines)
