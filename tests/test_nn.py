import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agroyield import ingest, models, nn, pipeline, synthgen
from agroyield.errors import AgroYieldError, DivergedLoss
from agroyield.nn import (
    Network,
    TrainConfig,
    backward_batch,
    forward_batch,
    gradient_check,
    init_network,
    train,
)
from agroyield.schema import Crop
from helpers import scaled_train


def linear_unit(w=0.5, b=0.0):
    return Network(layer_sizes=(1, 1), weights=[np.array([[w]])],
                   biases=[np.array([b])], hidden_activation="relu")


def numeric_gradients(net, x, target, eps=1e-6):
    """Independent central-difference oracle over every parameter."""
    def loss():
        return 0.5 * (forward_batch(net, x)[0][0] - target) ** 2

    grads_w, grads_b = [], []
    for arr_list, out in ((net.weights, grads_w), (net.biases, grads_b)):
        for arr in arr_list:
            g = np.zeros_like(arr)
            flat, gflat = arr.ravel(), g.ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                up = loss()
                flat[k] = orig - eps
                down = loss()
                flat[k] = orig
                gflat[k] = (up - down) / (2 * eps)
            out.append(g)
    return grads_w, grads_b


class TestInit:
    def test_default_shapes(self):
        net = init_network((46, 64, 32, 16, 1), seed=0)
        shapes = [w.shape for w in net.weights]
        assert shapes == [(64, 46), (32, 64), (16, 32), (1, 16)]

    def test_biases_zero(self):
        net = init_network((4, 3, 1), seed=1)
        assert all(np.all(b == 0) for b in net.biases)

    def test_same_seed_identical(self):
        a = init_network((5, 4, 1), seed=7)
        b = init_network((5, 4, 1), seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_weights_within_glorot_bound(self):
        net = init_network((10, 8, 1), seed=3)
        bound = np.sqrt(6.0 / 18.0)
        assert np.all(np.abs(net.weights[0]) <= bound)

    def test_zero_size_layer_rejected(self):
        with pytest.raises(AgroYieldError, match="bad layer sizes"):
            init_network((4, 0, 1))


class TestForward:
    def test_zero_network_predicts_zero(self):
        net = init_network((3, 4, 1), seed=0)
        for w in net.weights:
            w[:] = 0.0
        preds, _ = forward_batch(net, [1.0, -2.0, 3.0])
        assert preds[0] == 0.0

    def test_single_linear_unit(self):
        preds, _ = forward_batch(linear_unit(0.5), [1.0])
        assert preds[0] == 0.5

    def test_relu_clamps_negative_preactivation(self):
        net = Network(layer_sizes=(1, 1, 1),
                      weights=[np.array([[1.0]]), np.array([[1.0]])],
                      biases=[np.array([0.0]), np.array([0.0])],
                      hidden_activation="relu")
        preds, acts = forward_batch(net, [-3.0])
        assert acts[1][0, 0] == 0.0
        assert preds[0] == 0.0

    def test_dimension_mismatch(self):
        net = init_network((4, 3, 1))
        with pytest.raises(AgroYieldError, match="expected 4 inputs, got 2"):
            forward_batch(net, [1.0, 2.0])

    def test_linear_scale_consistency(self):
        # bias-free single linear layer: doubling inputs doubles output
        rng = np.random.default_rng(0)
        net = Network(layer_sizes=(5, 1),
                      weights=[rng.normal(size=(1, 5))],
                      biases=[np.zeros(1)], hidden_activation="relu")
        x = rng.normal(size=5)
        p1, _ = forward_batch(net, x)
        p2, _ = forward_batch(net, 2 * x)
        assert p2[0] == pytest.approx(2 * p1[0], rel=1e-12)


class TestBackward:
    def test_single_linear_unit_hand_gradient(self):
        net = linear_unit(0.5)
        _, acts = forward_batch(net, [1.0])
        grads = backward_batch(net, acts, [0.0])
        # d/dw 1/2 (w*x - t)^2 = (0.5 - 0) * 1
        assert grads.weights[0][0, 0] == pytest.approx(0.5)

    def test_zero_error_gives_zero_gradients(self):
        net = init_network((4, 5, 1), "sigmoid", seed=2)
        x = np.ones(4)
        preds, acts = forward_batch(net, x)
        grads = backward_batch(net, acts, preds)
        assert all(np.allclose(g, 0) for g in grads.weights)
        assert all(np.allclose(g, 0) for g in grads.biases)

    def test_matches_independent_finite_difference_oracle(self):
        rng = np.random.default_rng(11)
        net = init_network((6, 7, 4, 1), "sigmoid", seed=11)
        x = rng.normal(size=6)
        target = rng.normal()
        _, acts = forward_batch(net, x)
        analytic = backward_batch(net, acts, [target])
        num_w, num_b = numeric_gradients(net, x, target)
        for a, n_ in zip(analytic.weights + analytic.biases, num_w + num_b):
            np.testing.assert_allclose(a, n_, rtol=1e-4, atol=1e-7)


class TestTrain:
    def xor_data(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        return x, y

    def test_xor_toy_set_fits(self):
        x, y = self.xor_data()
        net = init_network((2, 8, 8, 8, 1), "relu", seed=4)
        cfg = TrainConfig(learning_rate=0.1, batch_size=4, max_epochs=200,
                          patience=200, seed=4, validation_fraction=0.0)
        trained, history = train(net, x, y, cfg)
        assert min(history.train_mse) < 0.01

    def test_patience_zero_stops_at_first_non_improvement(self):
        # zero network on zero targets: loss is exactly 0 every epoch, so
        # epoch 1 sets the best and epoch 2 is the first non-improvement
        x, _ = self.xor_data()
        y = np.zeros(4)
        net = init_network((2, 4, 1), seed=0)
        for w in net.weights:
            w[:] = 0.0
        cfg = TrainConfig(learning_rate=0.1, batch_size=4, max_epochs=100,
                          patience=0, seed=0, validation_fraction=0.0)
        _, history = train(net, x, y, cfg)
        assert len(history.train_mse) == 2

    def test_deterministic_given_seed(self):
        x, y = self.xor_data()
        results = []
        for _ in range(2):
            net = init_network((2, 6, 1), seed=5)
            trained, _ = train(net, x, y, TrainConfig(
                learning_rate=0.05, batch_size=2, max_epochs=20,
                patience=20, seed=5, validation_fraction=0.0))
            results.append(trained)
        a, b = results
        assert all(np.array_equal(x_, y_)
                   for x_, y_ in zip(a.weights, b.weights))

    def test_diverged_loss_raises(self):
        x, y = self.xor_data()
        net = init_network((2, 8, 1), seed=0)
        cfg = TrainConfig(learning_rate=1e12, batch_size=4, max_epochs=50,
                          patience=50, seed=0, validation_fraction=0.0)
        with pytest.raises(DivergedLoss):
            train(net, x, y, cfg)

    def test_empty_training_set(self):
        net = init_network((2, 4, 1))
        with pytest.raises(AgroYieldError, match="no training examples"):
            train(net, np.empty((0, 2)), np.empty(0), TrainConfig())

    def test_full_batch_step_never_increases_convex_mse(self):
        # single linear layer, 20 full-batch steps of lr = 1e-3
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 4))
        y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + 0.3
        net = Network(layer_sizes=(4, 1),
                      weights=[rng.normal(size=(1, 4))],
                      biases=[np.zeros(1)], hidden_activation="relu")
        _, history = train(net, x, y, TrainConfig(
            learning_rate=1e-3, batch_size=50, max_epochs=20, patience=20,
            validation_fraction=0.0))
        assert len(history.train_mse) == 20
        prev = nn.mse(net, x, y)
        for now in history.train_mse:
            assert now <= prev + 1e-12
            prev = now

    def test_history_csv_shape(self):
        x, y = self.xor_data()
        net = init_network((2, 4, 1), seed=0)
        _, history = train(net, x, y, TrainConfig(
            learning_rate=0.05, batch_size=4, max_epochs=5, patience=5,
            seed=0, validation_fraction=0.0))
        lines = history.to_csv().strip().splitlines()
        assert lines[0] == "epoch,train_mse,val_mse"
        assert len(lines) == len(history.train_mse) + 1


class TestGradientCheck:
    def test_linear_unit_tiny_deviation(self):
        assert gradient_check(linear_unit(0.5), [1.0], 0.0, 1e-5) < 1e-10

    def test_random_sigmoid_net_probes(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for i in range(100):
            net = init_network((4, 5, 3, 2, 1), "sigmoid", seed=i)
            x = rng.normal(size=4)
            target = rng.normal()
            worst = max(worst, gradient_check(net, x, target, 1e-5))
        assert worst < 1e-4

    def test_zero_network_zero_target(self):
        net = init_network((3, 4, 1), seed=0)
        for w in net.weights:
            w[:] = 0.0
        assert gradient_check(net, [0.0, 0.0, 0.0], 0.0, 1e-5) == 0.0

    def test_relu_net_away_from_kinks(self):
        eps = 1e-5
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 20:
            seed = int(rng.integers(1 << 30))
            net = init_network((4, 6, 3, 1), "relu", seed=seed)
            x = rng.normal(size=4)
            _, acts = forward_batch(net, x.reshape(1, -1))
            # recompute pre-activations to filter probes near the kink
            a = x.reshape(1, -1)
            near_kink = False
            for i, (w, b) in enumerate(zip(net.weights[:-1], net.biases[:-1])):
                z = a @ w.T + b
                if np.any(np.abs(z) < 10 * eps):
                    near_kink = True
                    break
                a = np.maximum(z, 0.0)
            if near_kink:
                continue
            assert gradient_check(net, x, float(rng.normal()), eps) < 1e-4
            checked += 1

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            gradient_check(linear_unit(), [1.0], 0.0, 0.0)


def _assert_one_buffer(net):
    """`net`'s arrays are views that tile `params` in the module layout."""
    sizes = net.layer_sizes
    assert net.params.size == sum((fan_in + 1) * fan_out for fan_in, fan_out
                                  in zip(sizes[:-1], sizes[1:]))
    arrays = [a for layer in zip(net.weights, net.biases) for a in layer]
    assert all(np.shares_memory(a, net.params) for a in arrays)
    assert np.array_equal(np.concatenate([a.ravel() for a in arrays]),
                          net.params)


@settings(max_examples=30, deadline=None)
@given(n_inputs=st.integers(1, 5),
       hidden=st.lists(st.integers(1, 6), max_size=2),
       activation=st.sampled_from(nn.HIDDEN_ACTIVATIONS),
       seed=st.integers(0, 2**16))
def test_every_network_is_one_buffer(n_inputs, hidden, activation, seed):
    net = init_network((n_inputs, *hidden, 1), activation, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, n_inputs))
    y = rng.normal(size=4)
    trained, _ = train(net, x, y, TrainConfig(
        batch_size=2, max_epochs=2, seed=seed, validation_fraction=0.0))
    grads = backward_batch(net, forward_batch(net, x)[1], y)
    norm = ingest.Normalizer(column_mins=np.zeros(models.N_FEATURES),
                             column_maxs=np.ones(models.N_FEATURES),
                             target_min=0.0, target_max=1.0)
    wide = init_network((models.N_FEATURES, *hidden, 1), activation, seed)
    loaded = models.model_from_json(models.model_to_json(
        models.Model("dnn", wide, norm))).payload
    for each in (net, trained, grads, loaded):
        _assert_one_buffer(each)

    before = net.params.tobytes()
    gradient_check(net, x[0], y[0])
    assert net.params.tobytes() == before


def _trained_state(net, history):
    """repr of everything `train` returns, -0.0 and NaN included."""
    return repr(([w.tolist() for w in net.weights],
                 [b.tolist() for b in net.biases],
                 history.train_mse, history.val_mse))


def _crop_split(n_records, seed, crop):
    ds = synthgen.generate(synthgen.GenConfig(n_records=n_records, seed=seed))
    _, x, y = scaled_train(pipeline.prepare_crop_split(ds, crop, 0.8, seed))
    return x, y


# sha256 of `_trained_state` after `train` at the default TrainConfig
# (200 epochs, patience 20, lr 0.01, batches of 32) on the default
# 46-64-32-16-1 network: Jute of 1,000 records (132 rows, 119 fit rows
# with a 13-row validation carve-out), AusRice of 1,068 records (142 rows,
# exactly four batches of 32), and Jute again with no validation rows
DNN_TRAIN_SHA256 = {
    "relu": "dec1b0dabcca7f9346d0a4ffc2474c5b3c1f334d0fd91d250c6486ba9a57f418",
    "sigmoid":
        "9fcc4c0b65f73f9f2daadd961dadd6691a70aa2e36cb88d837d607bebf34e005",
    "relu-no-validation":
        "4d40dedfc6d0468cdb27e77b8e9d8adbcb01ad6be4de6212a0109b13bf46acd2",
}
DNN_TRAIN_CASES = {  # (n_records, seed, crop), activation, config
    "relu": ((1000, 1, Crop.Jute), "relu", TrainConfig(seed=1)),
    "sigmoid": ((1068, 2, Crop.AusRice), "sigmoid", TrainConfig(seed=2)),
    "relu-no-validation": ((1000, 1, Crop.Jute), "relu",
                           TrainConfig(seed=3, validation_fraction=0.0)),
}


@pytest.mark.parametrize("case", DNN_TRAIN_CASES)
def test_default_training_unchanged(case):
    data, activation, cfg = DNN_TRAIN_CASES[case]
    x, y = _crop_split(*data)
    net = init_network(nn.DEFAULT_LAYER_SIZES, activation, seed=cfg.seed)
    trained, history = train(net, x, y, cfg)
    digest = hashlib.sha256(_trained_state(trained, history).encode())
    assert digest.hexdigest() == DNN_TRAIN_SHA256[case]


def _reference_sigmoid(z):
    return np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                    np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))


def _reference_forward(weights, biases, activation, x):
    acts = [x]
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w.T + b
        if i < len(weights) - 1:
            z = (_reference_sigmoid(z) if activation == "sigmoid"
                 else np.maximum(z, 0.0))
        acts.append(z)
    return acts


def _reference_mse(weights, biases, activation, x, y):
    preds = _reference_forward(weights, biases, activation, x)[-1][:, 0]
    return float(np.mean((preds - y) ** 2))


def _reference_train(net, x, y, cfg):
    """The per-array loop that the flat-buffer `train` replaced.

    Each step runs a forward pass, the mean gradient of every array, and
    an update that copies every array; `best` is copied every epoch that
    improves.
    """
    act = net.hidden_activation
    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    n_val = int(n * cfg.validation_fraction)
    order = rng.permutation(n)
    val_idx, fit_idx = order[:n_val], order[n_val:]
    x_fit, y_fit, x_val, y_val = x[fit_idx], y[fit_idx], x[val_idx], y[val_idx]
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    best = ([w.copy() for w in weights], [b.copy() for b in biases])
    best_monitor, since_best = np.inf, 0
    history = nn.LossHistory()
    for _ in range(cfg.max_epochs):
        perm = rng.permutation(len(fit_idx))
        for start in range(0, len(fit_idx), cfg.batch_size):
            batch = perm[start:start + cfg.batch_size]
            acts = _reference_forward(weights, biases, act, x_fit[batch])
            m = len(batch)
            delta = acts[-1] - y_fit[batch].reshape(-1, 1)
            grads_w, grads_b = [None] * len(weights), [None] * len(weights)
            for layer in range(len(weights) - 1, -1, -1):
                grads_w[layer] = delta.T @ acts[layer] / m
                grads_b[layer] = delta.mean(axis=0)
                if layer > 0:
                    a = acts[layer]
                    grad = (a * (1.0 - a) if act == "sigmoid"
                            else (a > 0).astype(float))
                    delta = (delta @ weights[layer]) * grad
            weights = [w.copy() for w in weights]
            biases = [b.copy() for b in biases]
            for w, g in zip(weights, grads_w):
                w -= cfg.learning_rate * g
            for b, g in zip(biases, grads_b):
                b -= cfg.learning_rate * g
        train_mse = _reference_mse(weights, biases, act, x_fit, y_fit)
        if not np.isfinite(train_mse):
            raise DivergedLoss(f"training MSE became {train_mse}")
        val_mse = (_reference_mse(weights, biases, act, x_val, y_val)
                   if n_val > 0 else None)
        history.train_mse.append(train_mse)
        history.val_mse.append(val_mse)
        monitor = val_mse if val_mse is not None else train_mse
        if monitor < best_monitor:
            best_monitor, since_best = monitor, 0
            best = ([w.copy() for w in weights], [b.copy() for b in biases])
        else:
            since_best += 1
            if since_best > cfg.patience:
                break
    return Network(tuple(net.layer_sizes), best[0], best[1], act), history


@settings(max_examples=150, deadline=None)
@given(sizes=st.lists(st.integers(1, 20), min_size=2, max_size=5),
       activation=st.sampled_from(nn.HIDDEN_ACTIVATIONS),
       n=st.integers(1, 60), batch_extra=st.integers(0, 65),
       validation_fraction=st.sampled_from([0.0, 0.1, 0.3]),
       patience=st.integers(0, 5), epochs=st.integers(1, 15),
       learning_rate=st.sampled_from([1e-3, 0.05, 0.5, 1e3]),
       seed=st.integers(0, 2**16))
def test_train_equals_reference_loop(sizes, activation, n, batch_extra,
                                     validation_fraction, patience, epochs,
                                     learning_rate, seed):
    sizes = tuple(sizes[:-1]) + (1,)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, sizes[0]))
    y = rng.normal(size=n)
    net = init_network(sizes, activation, seed=seed)
    before = _trained_state(net, nn.LossHistory())
    cfg = TrainConfig(learning_rate=learning_rate,
                      batch_size=1 + batch_extra % (n + 5),
                      max_epochs=epochs, patience=patience, seed=seed,
                      validation_fraction=validation_fraction)
    with np.errstate(all="ignore"):
        try:
            want = _trained_state(*_reference_train(net, x, y, cfg))
        except DivergedLoss:
            want = DivergedLoss
    if want is DivergedLoss:
        with pytest.raises(DivergedLoss):
            train(net, x, y, cfg)
    else:
        trained, history = train(net, x, y, cfg)
        assert _trained_state(trained, history) == want
        assert not any(np.shares_memory(a, b)
                       for a in trained.weights + trained.biases
                       for b in net.weights + net.biases)
    assert _trained_state(net, nn.LossHistory()) == before
