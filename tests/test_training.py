"""Toy-model forward/backward, the centroid-averaging rule, and fine-tuning."""

from dataclasses import replace

import numpy as np
import pytest

from cbquant import core, grouping, tensorio, training
from cbquant.errors import BadConfigError, CorruptIndexError, LengthMismatchError, ShapeMismatchError


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
        model = training.ToyModel(w1=constant_quantized(2.0, (1, 1)), b1=np.zeros(1),
                                  w2=np.array([[w2]]), b2=np.zeros(1))
        pred, _ = training.forward(model, np.array([[1.0]]))
        assert pred[0, 0] == pytest.approx(np.tanh(2.0) * w2, abs=1e-12)

    def test_quantized_forward_matches_reconstructed_dense_forward(self):
        model = small_quantized_model()
        dense = training.ToyModel(w1=grouping.reconstruct_grouped(model.w1).astype(np.float64), b1=model.b1,
                                  w2=grouping.reconstruct_grouped(model.w2).astype(np.float64), b2=model.b2)
        x = np.random.default_rng(3).normal(size=(7, 3))
        np.testing.assert_array_equal(training.forward(model, x)[0],
                                      training.forward(dense, x)[0])

    def test_shape_mismatch(self):
        model = training.ToyModel(w1=np.zeros((4, 3)), b1=np.zeros(4),
                                  w2=np.zeros((2, 4)), b2=np.zeros(2))
        with pytest.raises(ShapeMismatchError):
            training.forward(model, np.ones((5, 2)))

    @pytest.mark.parametrize("w2,b1,b2", [
        (np.ones((2, 3)), np.zeros(4), np.zeros(2)),  # w2's width is not w1's height
        (np.ones((2, 4)), np.zeros(1), np.zeros(1)),  # biases that would broadcast
    ])
    def test_layers_that_do_not_chain_are_rejected_at_construction(self, w2, b1, b2):
        with pytest.raises(ShapeMismatchError):
            training.ToyModel(w1=np.ones((4, 5)), b1=b1, w2=w2, b2=b2)

    def test_quantized_first_layer_sets_the_input_width(self):
        model = training.ToyModel(w1=constant_quantized(0.5, (4, 5)), b1=np.zeros(4),
                                  w2=np.zeros((2, 4)), b2=np.zeros(2))
        pred, _ = training.forward(model, np.ones((2, 5)))
        assert pred.shape == (2, 2)
        with pytest.raises(ShapeMismatchError):
            training.forward(model, np.ones((2, 3)))


class TestLoss:
    @pytest.mark.parametrize("loss", [training.model_loss, training.loss_and_gradients])
    @pytest.mark.parametrize("target_shape", [(4, 1), (2,), (1, 2)])
    def test_targets_must_match_the_predictions(self, loss, target_shape):
        model = small_quantized_model()
        with pytest.raises(ShapeMismatchError):
            loss(model, np.ones((4, 3)), np.zeros(target_shape))


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

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 0]])
    def test_label_out_of_range(self, labels):
        with pytest.raises(CorruptIndexError):
            training.centroid_gradients([1.0, 2.0], labels, 2)

    # Refused as labels, not later as a TypeError from bincount.
    @pytest.mark.parametrize("labels", [[0.0, 1.0], ["0", "1"]])
    def test_labels_that_are_not_integers(self, labels):
        with pytest.raises(CorruptIndexError, match="integers"):
            training.centroid_gradients([1.0, 2.0], labels, 2)

    def test_uint64_labels(self):
        grads = training.centroid_gradients([1.0, 3.0, 5.0], np.array([0, 0, 1], dtype=np.uint64), 2)
        np.testing.assert_array_equal(grads, [2.0, 5.0])

    @pytest.mark.parametrize("task_seed", range(10))
    def test_matches_finite_differences(self, task_seed):
        # d(loss)/d(centroid) equals the SUM of member-weight gradients; the
        # update rule averages instead, so the oracle divides by cluster size
        model = small_quantized_model(task_seed)
        rng = np.random.default_rng(100 + task_seed)
        x = rng.normal(size=(16, 3))
        y = rng.normal(size=(16, 2))
        _, grads = training.loss_and_gradients(model, x, y)

        for q, key in ((model.w1, "w1"), (model.w2, "w2")):
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
        return training.model_loss(replace(model, **{key: patched}), x, y)

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
        updated, losses = training.train_step(model, [(x, y)], self.cfg())
        assert losses[0] == 0.0
        np.testing.assert_array_equal(updated.w1.centroids, model.w1.centroids)
        np.testing.assert_array_equal(updated.b1, model.b1)

    def test_one_step_decreases_loss(self):
        model = small_quantized_model()
        rng = np.random.default_rng(7)
        x = rng.normal(size=(32, 3))
        y = rng.normal(size=(32, 2))
        before = training.model_loss(model, x, y)
        updated, _ = training.train_step(model, [(x, y)], self.cfg())
        assert training.model_loss(updated, x, y) < before

    def test_zero_multiplier_freezes_centroids(self):
        model = small_quantized_model()
        rng = np.random.default_rng(8)
        batch = (rng.normal(size=(16, 3)), rng.normal(size=(16, 2)))
        updated, _ = training.train_step(model, [batch], self.cfg(quantized_lr_multiplier=0.0))
        np.testing.assert_array_equal(updated.w1.centroids, model.w1.centroids)
        assert not np.array_equal(updated.b1, model.b1)

    def test_labels_frozen_across_steps(self):
        model = small_quantized_model()
        rng = np.random.default_rng(9)
        labels_before = model.w1.labels.tobytes()
        for _ in range(25):
            batch = (rng.normal(size=(16, 3)), rng.normal(size=(16, 2)))
            model, _ = training.train_step(model, [batch], self.cfg(base_learning_rate=0.05))
        assert model.w1.labels.tobytes() == labels_before

    def test_distinct_weight_values_stay_bounded(self):
        bits = 2
        model = small_quantized_model(bits=bits)
        rng = np.random.default_rng(10)
        for _ in range(10):
            batch = (rng.normal(size=(16, 3)), rng.normal(size=(16, 2)))
            model, _ = training.train_step(model, [batch], self.cfg(base_learning_rate=0.05))
            w1 = grouping.reconstruct_grouped(model.w1)
            assert len(np.unique(w1)) <= 2**bits

    @pytest.mark.parametrize("scheme", [core.Scheme.LINEAR, core.Scheme.KMEANS])
    @pytest.mark.parametrize("bits", [1, 2, 3])
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    @pytest.mark.parametrize("multiplier", [0.0, 10.0])
    def test_matches_the_per_batch_update_bit_for_bit(self, scheme, bits, batch_size, multiplier):
        rng = np.random.default_rng(bits)
        x, y = training.synthetic_regression(70, 4, 12, 2, rng)
        dense = training.make_toy_model(4, 12, 2, rng)
        model = expected = training.quantize_model(dense, core.QuantConfig(scheme=scheme, bits=bits, seed=3))
        cfg = self.cfg(base_learning_rate=0.05, batch_size=batch_size, quantized_lr_multiplier=multiplier)
        for _ in range(2):
            order = rng.permutation(len(x))
            batches = [(x[order[i : i + batch_size]], y[order[i : i + batch_size]])
                       for i in range(0, len(x), batch_size)]
            model, losses = training.train_step(model, batches, cfg)
            expected, expected_losses = per_batch_steps(expected, batches, cfg)
            assert np.array(losses).tobytes() == np.array(expected_losses).tobytes()
            for name in ("w1", "w2"):
                assert getattr(model, name).centroids.tobytes() == getattr(expected, name).centroids.tobytes()
                assert getattr(model, name).labels.tobytes() == getattr(expected, name).labels.tobytes()
            for name in ("b1", "b2"):
                assert getattr(model, name).tobytes() == getattr(expected, name).tobytes()

    def test_one_call_builds_each_quantized_layer_once(self, monkeypatch):
        model = small_quantized_model()
        rng = np.random.default_rng(11)
        batches = [(rng.normal(size=(8, 3)), rng.normal(size=(8, 2))) for _ in range(6)]
        built = []
        post_init = grouping.GroupedQuantizedTensor.__post_init__

        def counted_post_init(g):
            built.append(g.shape)
            post_init(g)

        def no_reconstruct(g):
            raise AssertionError("fine-tuning reconstructed a grouped tensor")

        monkeypatch.setattr(grouping.GroupedQuantizedTensor, "__post_init__", counted_post_init)
        monkeypatch.setattr(grouping, "reconstruct_grouped", no_reconstruct)
        updated, losses = training.train_step(model, batches, self.cfg(base_learning_rate=0.05))
        assert len(losses) == len(batches)
        assert sorted(built) == sorted([model.w1.shape, model.w2.shape])
        assert updated.w1.centroids.tobytes() != model.w1.centroids.tobytes()

    def test_one_call_counts_each_quantized_layer_once(self, monkeypatch):
        # The labels are frozen, so the cluster counts are taken once per call,
        # not once per batch; the weighted sums still run on every batch.
        model = small_quantized_model()
        rng = np.random.default_rng(12)
        batches = [(rng.normal(size=(8, 3)), rng.normal(size=(8, 2))) for _ in range(6)]
        calls = []
        bincount = np.bincount

        def counted(x, weights=None, minlength=0):
            calls.append(weights is None)
            return bincount(x, weights, minlength)

        monkeypatch.setattr(np, "bincount", counted)
        training.train_step(model, batches, self.cfg(base_learning_rate=0.05))
        assert calls.count(True) == 2
        assert calls.count(False) == 2 * len(batches)


def per_batch_steps(model, batches, cfg):
    """SGD as one model rebuild per batch: the forward pass runs on
    ``reconstruct_grouped`` weights, and each quantized layer is rebuilt with
    ``replace`` from its updated float32 centroids."""
    losses = []
    for x, y in batches:
        dense = replace(model, **{name: grouping.reconstruct_grouped(getattr(model, name)).astype(np.float64)
                                  for name in ("w1", "w2")})
        loss, grads = training.loss_and_gradients(dense, x, y)
        losses.append(loss)
        updates = {}
        for name, grad in grads.items():
            param = getattr(model, name)
            if isinstance(param, grouping.GroupedQuantizedTensor):
                step = training.centroid_gradients(grad, param.labels, param.cfg.n_levels)
                lr = cfg.base_learning_rate * cfg.quantized_lr_multiplier
                updates[name] = replace(param, centroids=(param.centroids.astype(np.float64) - lr * step)
                                        .astype(np.float32))
            else:
                updates[name] = param - cfg.base_learning_rate * grad
        model = replace(model, **updates)
    return model, losses


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("base_learning_rate", np.inf), ("base_learning_rate", np.nan), ("base_learning_rate", 0.0),
        ("quantized_lr_multiplier", np.inf), ("quantized_lr_multiplier", np.nan),
        ("quantized_lr_multiplier", -1.0)])
    def test_rates_must_be_finite(self, field, value):
        with pytest.raises(BadConfigError):
            training.TrainConfig(**{"base_learning_rate": 0.02, "epochs": 1, field: value})

    def test_negative_data_seed_is_rejected(self):
        with pytest.raises(BadConfigError):
            training.TrainConfig(base_learning_rate=0.02, epochs=1, data_seed=-1)


class TestQuantizeModel:
    def test_layers_are_single_group_tensors_in_the_weight_shape(self):
        dense = training.make_toy_model(3, 6, 2, np.random.default_rng(0))
        model = training.quantize_model(dense, core.QuantConfig(scheme=core.Scheme.KMEANS, bits=2, seed=1))
        for q, w in ((model.w1, dense.w1), (model.w2, dense.w2)):
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

    @pytest.mark.parametrize("name", ["w1", "w2"])
    def test_a_two_group_weight_is_rejected_at_construction(self, name):
        dense = training.make_toy_model(3, 6, 2, np.random.default_rng(0))
        cfg = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=1, group_count=2)
        two_groups = grouping.quantize_grouped(getattr(dense, name), cfg)
        with pytest.raises(BadConfigError):
            replace(dense, **{name: two_groups})


class TestRunExperiment:
    @pytest.mark.parametrize("kw", [{"task_seed": -1}, {"pretrain_epochs": -1}])
    def test_negative_seed_or_epoch_count_is_rejected(self, kw):
        tc = training.TrainConfig(base_learning_rate=0.02, epochs=1)
        qc = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=2)
        with pytest.raises(BadConfigError):
            training.run_experiment(tc, qc, **kw)

    @pytest.mark.parametrize("hidden_dim", [0, -1])
    def test_hidden_dim_below_one_is_rejected_before_any_work(self, hidden_dim, monkeypatch):
        def no_task(*args):
            raise AssertionError("the task was sampled")

        monkeypatch.setattr(training, "synthetic_regression", no_task)
        tc = training.TrainConfig(base_learning_rate=0.02, epochs=1)
        qc = core.QuantConfig(scheme=core.Scheme.KMEANS, bits=2)
        with pytest.raises(BadConfigError):
            training.run_experiment(tc, qc, hidden_dim=hidden_dim)

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
