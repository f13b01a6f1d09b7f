import ast
import io
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssinav.model import (
    BatchNormLayer,
    ChecksumFailure,
    CorruptFile,
    DenseLayer,
    DivergenceDetected,
    EmptyDataset,
    MlpRegressor,
    ModelBundle,
    NoKnownAccessPoints,
    ShapeMismatch,
    TrainConfig,
    TrainReport,
    UninitializedStatistics,
    VersionMismatch,
    _pass,
    _predict_vector,
    backward,
    forward,
    initialize_parameters,
    load_model,
    mae_loss,
    predict_position,
    save_model,
    train,
    validation_counts,
)
from rssinav.errors import InvalidParameter, ToolkitError
from rssinav.fileio import write_rows
from rssinav import model as model_module
from rssinav.features import FeatureSelection, NormalizationParams, SidecarFormatError, denormalize_coords
from rssinav.scan_ingest import ScanEntry, ScanSnapshot

# ---------------------------------------------------------------------------
# oracle: central finite differences over the batch MAE loss


def numeric_gradients(model, X, T, step=1e-4):
    from rssinav.model import _loss_and_grads

    def loss_at():
        loss, _, _ = _loss_and_grads(model, X, T)
        return loss

    numeric = []
    for layer in model.layers:
        names = ("weights", "biases") if isinstance(layer, DenseLayer) else ("gamma", "beta")
        grads = {}
        for name in names:
            param = getattr(layer, name)
            grad = np.zeros_like(param)
            flat = param.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + step
                up = loss_at()
                flat[i] = original - step
                down = loss_at()
                flat[i] = original
                grad.reshape(-1)[i] = (up - down) / (2 * step)
            grads[name] = grad
        numeric.append(grads)
    return numeric


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a_layer, n_layer in zip(analytic, numeric):
        for name, a in a_layer.items():
            n = n_layer[name]
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
            worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def random_model_and_batch(rng, with_batchnorm=None, margin=0.02, output_width=None):
    """A random small architecture plus a batch kept away from ReLU/MAE kinks;
    the last dense layer is ``output_width`` wide, or of a random width in 1-8.

    Rejection keeps every pre-activation and residual at least ``margin``
    from zero so the finite-difference window (which moves activations by
    O(step * fan-in), about 1e-3 here) never straddles a non-differentiable
    point.
    """
    while True:
        widths = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 4)))]
        if output_width is not None:
            widths[-1] = output_width
        use_bn = bool(rng.integers(0, 2)) if with_batchnorm is None else with_batchnorm
        use_bn = use_bn and len(widths) >= 2  # batch norm sits after the first dense layer
        layers = []
        in_w = int(rng.integers(1, 9))
        first_in = in_w
        for i, w in enumerate(widths):
            last = i == len(widths) - 1
            layers.append(DenseLayer(rng.uniform(-1, 1, (w, in_w)), rng.uniform(-0.5, 0.5, w), "identity" if last else "relu"))
            if i == 0 and use_bn:
                layers.append(BatchNormLayer(rng.uniform(0.5, 1.5, w), rng.uniform(-0.5, 0.5, w), np.zeros(w), np.ones(w)))
            in_w = w
        model = MlpRegressor(layers)
        n = int(rng.integers(2, 9))
        X = rng.uniform(-1, 1, (n, first_in))
        T = rng.uniform(-1, 1, (n, widths[-1]))
        caches = []
        pred = _pass(model, X, True, caches)
        ok = np.abs(pred - T).min() > margin
        for layer, cache in zip(model.layers, caches):
            if isinstance(layer, DenseLayer) and layer.activation == "relu":
                ok = ok and np.abs(cache[1]).min() > margin  # cache[1] is the pre-activation z
        if ok:
            return model, X, T


# ---------------------------------------------------------------------------
# oracle: the per-array training code (separate dict caches, one optimizer
# update per parameter array through getattr/setattr, ndarray.mean/var batch
# statistics), kept here so the flat-buffer training can be held to it bit
# for bit


def ref_forward(model, batch, mode):
    out = batch
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            z = out @ layer.weights.T + layer.biases
            out = np.maximum(z, 0.0) if layer.activation == "relu" else z
        else:
            if mode == "train":
                mean, var = out.mean(axis=0), out.var(axis=0)
            else:
                mean, var = layer.running_mean, layer.running_var
            out = layer.gamma * (out - mean) / np.sqrt(var + layer.epsilon) + layer.beta
    return out


def ref_forward_cached(model, batch):
    caches = []
    out = batch
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            z = out @ layer.weights.T + layer.biases
            caches.append({"input": out, "z": z})
            out = np.maximum(z, 0.0) if layer.activation == "relu" else z
        else:
            mean = out.mean(axis=0)
            var = out.var(axis=0)
            ivar = 1.0 / np.sqrt(var + layer.epsilon)
            xhat = (out - mean) * ivar
            caches.append({"input": out, "mean": mean, "var": var, "ivar": ivar, "xhat": xhat})
            out = layer.gamma * xhat + layer.beta
    return out, caches


def ref_backward_cached(model, caches, grad_out):
    grads = [None] * len(model.layers)
    g = grad_out
    for i in range(len(model.layers) - 1, -1, -1):
        layer, cache = model.layers[i], caches[i]
        if isinstance(layer, DenseLayer):
            dz = g * (cache["z"] > 0.0) if layer.activation == "relu" else g
            grads[i] = {"weights": dz.T @ cache["input"], "biases": dz.sum(axis=0)}
            g = dz @ layer.weights
        else:
            m = cache["input"].shape[0]
            xhat, ivar = cache["xhat"], cache["ivar"]
            dgamma = (g * xhat).sum(axis=0)
            dbeta = g.sum(axis=0)
            dxhat = g * layer.gamma
            g = (ivar / m) * (m * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
            grads[i] = {"gamma": dgamma, "beta": dbeta}
    return grads


def ref_param_items(model):
    for i, layer in enumerate(model.layers):
        for name in ("weights", "biases") if isinstance(layer, DenseLayer) else ("gamma", "beta"):
            yield i, name


class RefAdam:
    def __init__(self, model, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {key: np.zeros_like(getattr(model.layers[key[0]], key[1])) for key in ref_param_items(model)}
        self.v = {key: np.zeros_like(m) for key, m in self.m.items()}

    def step(self, model, grads):
        self.t += 1
        for key in self.m:
            i, name = key
            g = grads[i][name]
            self.m[key] = self.beta1 * self.m[key] + (1 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1 - self.beta2) * g * g
            mhat = self.m[key] / (1 - self.beta1**self.t)
            vhat = self.v[key] / (1 - self.beta2**self.t)
            param = getattr(model.layers[i], name)
            setattr(model.layers[i], name, param - self.lr * mhat / (np.sqrt(vhat) + self.eps))


class RefSgd:
    def __init__(self, model, lr):
        self.lr = lr

    def step(self, model, grads):
        for i, name in ref_param_items(model):
            param = getattr(model.layers[i], name)
            setattr(model.layers[i], name, param - self.lr * grads[i][name])


def ref_train(model, X, T, config):
    rng = np.random.default_rng(config.seed)
    initialize_parameters(model, rng)
    perm = rng.permutation(len(X))
    n_train, _ = validation_counts(len(X), config.validation_split)
    Xtr, Ttr = X[perm[:n_train]], T[perm[:n_train]]
    Xva, Tva = X[perm[n_train:]], T[perm[n_train:]]
    optimizer = RefAdam(model, config.learning_rate) if config.optimizer == "adam" else RefSgd(model, config.learning_rate)
    report = TrainReport()
    for _ in range(config.epochs):
        order = rng.permutation(len(Xtr))
        total_abs = 0.0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            pred, caches = ref_forward_cached(model, Xtr[idx])
            loss = float(np.abs(pred - Ttr[idx]).mean())
            grads = ref_backward_cached(model, caches, np.sign(pred - Ttr[idx]) / pred.size)
            for layer, cache in zip(model.layers, caches):
                if isinstance(layer, BatchNormLayer):
                    layer.update_running(cache["mean"], cache["var"])
            optimizer.step(model, grads)
            total_abs += loss * idx.size
        epoch_train = total_abs / len(Xtr)
        epoch_val = float(np.abs(ref_forward(model, Xva, "infer") - Tva).mean()) if len(Xva) else epoch_train
        report.train_loss.append(float(epoch_train))
        report.val_loss.append(float(epoch_val))
    return report


def oracle_data():
    rng = np.random.default_rng(41)
    return rng.uniform(0, 1, (30, 3)), rng.uniform(0, 1, (30, 2))


def oracle_model(with_batchnorm):
    if with_batchnorm:
        return MlpRegressor.default(3, hidden=(5, 6))
    return MlpRegressor([DenseLayer(np.zeros((5, 3)), np.zeros(5)), DenseLayer(np.zeros((2, 5)), np.zeros(2), "identity")])


def layer_arrays(model):
    names = {DenseLayer: ("weights", "biases"), BatchNormLayer: ("gamma", "beta", "running_mean", "running_var")}
    return [getattr(layer, name) for layer in model.layers for name in names[type(layer)]]


def linear_model(weights, biases):
    return MlpRegressor([DenseLayer(np.array(weights, float), np.array(biases, float), "identity")])


class TestForward:
    def test_zero_network_outputs_zero(self):
        model = MlpRegressor(
            [DenseLayer(np.zeros((3, 2)), np.zeros(3), "identity"), DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity")]
        )
        assert forward(model, [1.0, -2.0]).tolist() == [0.0, 0.0]

    def test_identity_layer_passes_input_through(self):
        model = linear_model(np.eye(2), [0.0, 0.0])
        assert forward(model, [0.3, -0.7]).tolist() == [0.3, -0.7]

    def test_neutral_batchnorm_is_identity_up_to_epsilon(self):
        bn = BatchNormLayer(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2))
        model = MlpRegressor([DenseLayer(np.eye(2), np.zeros(2), "identity"), bn, DenseLayer(np.eye(2), np.zeros(2), "identity")])
        out = forward(model, [0.5, -1.5])
        assert out == pytest.approx([0.5, -1.5], abs=1e-4)

    def test_infer_without_statistics_rejected(self):
        model = MlpRegressor(
            [DenseLayer(np.eye(2), np.zeros(2), "identity"), BatchNormLayer.fresh(2), DenseLayer(np.eye(2), np.zeros(2), "identity")]
        )
        with pytest.raises(UninitializedStatistics):
            forward(model, [1.0, 2.0])
        _pass(model, np.ones((3, 2)), True)  # train mode needs no history

    def test_infer_output_independent_of_batch_composition(self):
        rng = np.random.default_rng(5)
        model, X, _ = random_model_and_batch(rng, with_batchnorm=True)
        for layer in model.layers:
            if isinstance(layer, BatchNormLayer):
                layer.running_mean = rng.uniform(-1, 1, layer.width)
                layer.running_var = rng.uniform(0.5, 2.0, layer.width)
        # the same row gives bit-identical output no matter who shares the batch
        companions_a = np.vstack([X[0], rng.uniform(-1, 1, (4, X.shape[1]))])
        companions_b = np.vstack([X[0], rng.uniform(5, 9, (4, X.shape[1]))])
        assert np.array_equal(forward(model, companions_a)[0], forward(model, companions_b)[0])
        # and evaluating it alone agrees (up to BLAS kernel rounding)
        alone = forward(model, X[0])
        assert np.allclose(alone, forward(model, companions_a)[0], rtol=0, atol=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            forward(linear_model(np.eye(2), [0, 0]), [1.0, 2.0, 3.0])

    def test_default_architecture_shape(self):
        model = MlpRegressor.default(6)
        kinds = [type(l).__name__ for l in model.layers]
        assert kinds == ["DenseLayer", "BatchNormLayer", "DenseLayer", "DenseLayer"]
        assert [l.out_width for l in model.layers if isinstance(l, DenseLayer)] == [32, 64, 2]
        assert model.layers[0].activation == "relu" and model.layers[-1].activation == "identity"
        assert model.layers[1].width == 32
        assert model.input_width == 6 and model.output_width == 2


class TestMaeLoss:
    def test_identical_batches_give_zero(self):
        assert mae_loss([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0

    def test_single_pair(self):
        assert mae_loss([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(3.5)

    def test_batch_mean_over_components(self):
        assert mae_loss([[0, 0], [1, 1]], [[1, 0], [1, 3]]) == pytest.approx(0.75)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mae_loss([[1, 2]], [[1, 2], [3, 4]])

    def test_empty_batch(self):
        with pytest.raises(EmptyDataset, match="loss over an empty batch"):
            mae_loss(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_non_negative_and_zero_on_self(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = rng.uniform(-100, 100, (int(rng.integers(1, 6)), 2))
            t = rng.uniform(-100, 100, p.shape)
            assert mae_loss(p, t) >= 0.0
            assert mae_loss(p, p) == 0.0


class TestBackward:
    def test_bias_gradient_single_sample(self):
        # one linear layer, positive error on both outputs: dL/db = (1/2, 1/2)
        model = linear_model(np.eye(2), [0.0, 0.0])
        grads = backward(model, [[1.0, 1.0]], [[0.0, 0.0]])
        assert grads[0]["biases"].tolist() == [0.5, 0.5]

    def test_zero_error_gives_zero_gradients(self):
        model = linear_model(np.eye(2), [0.0, 0.0])
        grads = backward(model, [[1.0, -1.0], [0.5, 0.25]], [[1.0, -1.0], [0.5, 0.25]])
        assert not grads[0]["weights"].any() and not grads[0]["biases"].any()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            model, X, T = random_model_and_batch(rng)
            analytic = backward(model, X, T)
            numeric = numeric_gradients(model, X, T)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_input_width_must_match_the_model(self):
        with pytest.raises(ShapeMismatch, match="batch and target shapes do not match the model"):
            backward(MlpRegressor.default(3), np.ones((4, 5)), np.ones((4, 2)))


class TestTrain:
    def test_validation_counts(self):
        assert validation_counts(100, 0.2) == (80, 20)
        assert validation_counts(95, 0.2) == (76, 19)
        assert validation_counts(1, 0.2) == (1, 0)
        assert validation_counts(10, 0.0) == (10, 0)

    def test_linear_identity_target_converges(self):
        # oracle: the least-squares fit of an identity target is exact, so a
        # linear model must drive the loss near zero
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (64, 2))
        model = linear_model(np.zeros((2, 2)), [0.0, 0.0])
        report = train(model, X, X.copy(), TrainConfig(epochs=700, validation_split=0.2, seed=1))
        assert report.train_loss[-1] < 0.05

    def test_report_has_one_entry_per_epoch(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (8, 2))
        model = linear_model(np.zeros((2, 2)), [0.0, 0.0])
        report = train(model, X, X, TrainConfig(epochs=700, seed=0))
        assert len(report.train_loss) == 700 and len(report.val_loss) == 700

    def test_bit_reproducible_given_seed(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (20, 3))
        T = rng.uniform(-1, 1, (20, 2))

        def run():
            model = MlpRegressor.default(3, hidden=(4, 4))
            report = train(model, X, T, TrainConfig(epochs=20, seed=9))
            return model, report

        m1, r1 = run()
        m2, r2 = run()
        assert r1.train_loss == r2.train_loss and r1.val_loss == r2.val_loss
        for l1, l2 in zip(m1.layers, m2.layers):
            if isinstance(l1, DenseLayer):
                assert np.array_equal(l1.weights, l2.weights) and np.array_equal(l1.biases, l2.biases)
            else:
                assert np.array_equal(l1.running_mean, l2.running_mean)

    def test_updates_running_statistics(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (16, 2))
        T = rng.uniform(-1, 1, (16, 2))
        model = MlpRegressor.default(2, hidden=(4, 4))
        train(model, X, T, TrainConfig(epochs=2, seed=0))
        bn = [l for l in model.layers if isinstance(l, BatchNormLayer)][0]
        assert bn.initialized and bn.running_var.min() >= 0

    def test_divergence_detected_with_report_so_far(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(1, 2, (8, 2))
        T = rng.uniform(-1, 1, (8, 2))
        model = linear_model(np.zeros((2, 2)), [0.0, 0.0])
        with pytest.raises(DivergenceDetected) as exc_info, np.errstate(all="ignore"):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                train(model, X, T, TrainConfig(epochs=50, learning_rate=1e308, optimizer="sgd", seed=0))
        assert isinstance(exc_info.value.report, TrainReport)

    @pytest.mark.parametrize("learning_rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_learning_rate_must_be_positive_and_finite(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            TrainConfig(learning_rate=learning_rate)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(learning_rate=True), "learning_rate must be positive and finite, got True"),
            (dict(validation_split=False), "validation_split must be in [0, 1), got False"),
            (dict(validation_split=1.0), "validation_split must be in [0, 1), got 1.0"),
        ],
    )
    def test_rate_and_split_refuse_a_bool_and_name_the_value(self, kwargs, message):
        with pytest.raises(InvalidParameter, match=re.escape(message)):
            TrainConfig(**kwargs)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("name, value", [("epochs", 2.5), ("batch_size", 4.0), ("seed", 1.5), ("epochs", True), ("seed", "1")])
    def test_counts_and_seed_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            TrainConfig(**{name: value})

    def test_sgd_optimizer_also_learns(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (32, 2))
        model = linear_model(np.zeros((2, 2)), [0.0, 0.0])
        report = train(model, X, X.copy(), TrainConfig(epochs=300, learning_rate=0.05, optimizer="sgd", seed=1))
        assert report.train_loss[-1] < report.train_loss[0]

    @pytest.mark.parametrize("optimizer, learning_rate", [("adam", 1e-2), ("sgd", 0.05)])
    @pytest.mark.parametrize("with_batchnorm", [True, False])
    def test_bit_identical_to_per_array_reference(self, optimizer, learning_rate, with_batchnorm):
        X, T = oracle_data()
        # batch size 5 over 24 training rows: batch-norm statistics over 5 and 4 rows
        config = TrainConfig(epochs=25, batch_size=5, learning_rate=learning_rate, optimizer=optimizer, seed=6)
        model, ref_model = oracle_model(with_batchnorm), oracle_model(with_batchnorm)
        report = train(model, X, T, config)
        ref_report = ref_train(ref_model, X, T, config)
        assert np.array_equal(report.train_loss, ref_report.train_loss)
        assert np.array_equal(report.val_loss, ref_report.val_loss)
        assert all(np.array_equal(a, b) for a, b in zip(layer_arrays(model), layer_arrays(ref_model)))
        assert [getattr(l, "initialized", True) for l in model.layers] == [getattr(l, "initialized", True) for l in ref_model.layers]

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(2, 30),
        batch_size=st.integers(1, 9),
        epochs=st.integers(1, 6),
        validation_split=st.sampled_from([0.0, 0.2, 0.5]),
        optimizer=st.sampled_from(["adam", "sgd"]),
        with_batchnorm=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=8, batch_size=7, epochs=2, validation_split=0.0, optimizer="sgd", with_batchnorm=True, seed=0)  # a last batch of 1 row
    def test_any_shape_is_bit_identical_to_per_array_reference(
        self, rows, batch_size, epochs, validation_split, optimizer, with_batchnorm, seed
    ):
        rng = np.random.default_rng(seed)
        X, T = rng.uniform(0, 1, (rows, 3)), rng.uniform(0, 1, (rows, 2))
        learning_rate = 1e-2 if optimizer == "adam" else 0.05
        config = TrainConfig(epochs, validation_split, batch_size, learning_rate, seed, optimizer)
        model, ref_model = oracle_model(with_batchnorm), oracle_model(with_batchnorm)
        report = train(model, X, T, config)
        ref_report = ref_train(ref_model, X, T, config)
        assert np.array_equal(report.train_loss, ref_report.train_loss)
        assert np.array_equal(report.val_loss, ref_report.val_loss)
        assert all(np.array_equal(a, b) for a, b in zip(layer_arrays(model), layer_arrays(ref_model)))
        assert [getattr(l, "initialized", True) for l in model.layers] == [getattr(l, "initialized", True) for l in ref_model.layers]

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_retraining_the_same_model_rebinds_its_parameters(self, optimizer):
        X, T = oracle_data()
        model = oracle_model(with_batchnorm=True)
        train(model, X, T, TrainConfig(epochs=5, batch_size=5, optimizer=optimizer, seed=1))
        first_buffer = model.layers[0].weights.base
        config = TrainConfig(epochs=20, batch_size=5, learning_rate=0.01, optimizer=optimizer, seed=2)
        report = train(model, X, T, config)
        ref_model = oracle_model(with_batchnorm=True)
        ref_report = ref_train(ref_model, X, T, config)
        assert np.array_equal(report.train_loss, ref_report.train_loss) and np.array_equal(report.val_loss, ref_report.val_loss)
        assert all(np.array_equal(a, b) for a, b in zip(layer_arrays(model), layer_arrays(ref_model)))
        # every trainable array is a view of one fresh buffer
        trainable = [model.layers[0].weights, model.layers[0].biases, model.layers[1].gamma, model.layers[1].beta, model.layers[-1].biases]
        assert all(a.base is not None and a.base is trainable[0].base for a in trainable)
        assert trainable[0].base is not first_buffer

    def test_gradients_match_per_array_reference(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            model, X, T = random_model_and_batch(rng)
            pred, caches = ref_forward_cached(model, X)
            expected = ref_backward_cached(model, caches, np.sign(pred - T) / pred.size)
            got = backward(model, X, T)
            assert [sorted(d) for d in got] == [sorted(d) for d in expected]
            assert all(np.array_equal(g[k], e[k]) for g, e in zip(got, expected) for k in e)

    def test_train_mode_forward_equals_cached_pass(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model, X, _ = random_model_and_batch(rng, with_batchnorm=True)
            assert np.array_equal(_pass(model, X, True), _pass(model, X, True, []))
            assert np.allclose(_pass(model, X, True), ref_forward(model, X, "train"), rtol=0, atol=1e-12)

    def test_report_csv_layout(self, tmp_path):
        report = TrainReport(train_loss=[0.5, 0.25], val_loss=[0.6, 0.3])
        path = tmp_path / "report.csv"
        losses = [(i, *pair) for i, pair in enumerate(zip(report.train_loss, report.val_loss), start=1)]  # as cmd_train writes them
        write_rows(path, ["epoch", "train_loss", "val_loss"], losses)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert lines[1].startswith("1,0.5") and lines[2].startswith("2,0.25")


class TestBatchNormInference:
    def test_forward_follows_every_change_of_running_statistics(self):
        # the formula recomputed from scratch (ref_forward) after each way the statistics change
        rng = np.random.default_rng(17)
        X = rng.uniform(-1, 1, (6, 3))
        bn = BatchNormLayer(rng.uniform(0.5, 1.5, 4), rng.uniform(-0.5, 0.5, 4), rng.uniform(-1, 1, 4), rng.uniform(0.5, 2, 4))
        model = MlpRegressor([DenseLayer(rng.uniform(-1, 1, (4, 3)), np.zeros(4), "identity"), bn, DenseLayer(np.eye(2, 4), np.zeros(2), "identity")])

        def agrees():
            return np.array_equal(forward(model, X), ref_forward(model, X, "infer"))

        assert agrees()  # direct construction
        before = forward(model, X)
        bn.update_running(rng.uniform(-1, 1, 4), rng.uniform(0.5, 2, 4))
        assert agrees() and not np.array_equal(forward(model, X), before)
        bn.running_var = rng.uniform(0.5, 2, 4)
        assert agrees()
        bn.epsilon = 0.5
        assert agrees()
        bn.reset(rng)
        with pytest.raises(UninitializedStatistics):
            forward(model, X)
        bn.update_running(rng.uniform(-1, 1, 4), rng.uniform(0.5, 2, 4))  # the first update copies
        assert agrees()
        macs = ("AA:00:00:00:00:01", "AA:00:00:00:00:02", "AA:00:00:00:00:03")
        selection = FeatureSelection(macs, {m: 0.5 for m in macs}, {m: -0.4 for m in macs}, 0.24)
        params = NormalizationParams(np.full(3, -90.0), np.full(3, -30.0), 0.0, 0.0, 11.0)
        buf = io.BytesIO()
        save_model(model, selection, params, buf)
        model = load_model(io.BytesIO(buf.getvalue())).model
        assert agrees()
        train(model, X, rng.uniform(0, 1, (6, 2)), TrainConfig(epochs=3, batch_size=4, seed=2))
        assert agrees()


def small_bundle(rng=None):
    rng = rng or np.random.default_rng(7)
    macs = ("AA:00:00:00:00:01", "AA:00:00:00:00:02", "AA:00:00:00:00:03")
    model = MlpRegressor.default(3, hidden=(4, 5))
    initialize_parameters(model, rng)
    X = rng.uniform(0, 1, (12, 3))
    T = rng.uniform(0, 1, (12, 2))
    train(model, X, T, TrainConfig(epochs=3, seed=int(rng.integers(0, 1000))))
    selection = FeatureSelection(macs, {m: 0.5 for m in macs}, {m: -0.4 for m in macs}, 0.24)
    params = NormalizationParams(np.array([-90.0, -80.0, -85.0]), np.array([-30.0, -35.0, -40.0]), 0.0, 0.0, 11.0)
    return ModelBundle(model, selection, params)


class TestPersistence:
    def test_round_trip_preserves_forward_exactly(self):
        bundle = small_bundle()
        buf = io.BytesIO()
        save_model(bundle.model, bundle.selection, bundle.params, buf)
        loaded = load_model(io.BytesIO(buf.getvalue()))
        assert loaded.selection == bundle.selection
        assert loaded.params == bundle.params
        rng = np.random.default_rng(11)
        inputs = rng.uniform(0, 1, (100, 3))
        assert np.array_equal(forward(loaded.model, inputs), forward(bundle.model, inputs))

    def test_save_refuses_a_selection_of_another_width(self, tmp_path):
        bundle = small_bundle()
        model = MlpRegressor.default(2, hidden=(4, 5))  # the selection keeps 3 columns
        with pytest.raises(ShapeMismatch, match="selection keeps 3 columns, model input width is 2"):
            save_model(model, bundle.selection, bundle.params, tmp_path / "model.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("width", [1, 3])
    def test_save_refuses_an_output_width_other_than_2(self, tmp_path, width):
        bundle = small_bundle()
        layers = bundle.model.layers[:-1] + [DenseLayer(np.ones((width, 5)), np.zeros(width), "identity")]
        with pytest.raises(ShapeMismatch, match=f"^model output width is {width}, not 2 \\(x and y\\)$"):
            save_model(MlpRegressor(layers), bundle.selection, bundle.params, tmp_path / "model.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [np.nan, -np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index, name", [(0, "weights"), (0, "biases"), (1, "gamma"), (1, "running_var"), (3, "biases")])
    def test_save_refuses_a_non_finite_block(self, tmp_path, index, name, value):
        bundle = small_bundle()
        getattr(bundle.model.layers[index], name).flat[-1] = value
        with pytest.raises(InvalidParameter, match=f"^layer {index} {name} holds a non-finite value$"):
            save_model(bundle.model, bundle.selection, bundle.params, tmp_path / "model.bin")
        assert list(tmp_path.iterdir()) == []

    def test_truncated_file_rejected(self):
        bundle = small_bundle()
        buf = io.BytesIO()
        save_model(bundle.model, bundle.selection, bundle.params, buf)
        data = buf.getvalue()
        with pytest.raises(CorruptFile):
            load_model(io.BytesIO(data[: len(data) // 2]))

    def test_unknown_version_rejected(self):
        bundle = small_bundle()
        buf = io.BytesIO()
        save_model(bundle.model, bundle.selection, bundle.params, buf)
        data = bytearray(buf.getvalue())
        data[10:12] = (99).to_bytes(2, "little")  # version field after the magic
        with pytest.raises(VersionMismatch):
            load_model(io.BytesIO(bytes(data)))

    def test_corrupted_payload_fails_checksum(self):
        import struct

        bundle = small_bundle()
        buf = io.BytesIO()
        save_model(bundle.model, bundle.selection, bundle.params, buf)
        data = bytearray(buf.getvalue())
        (header_len,) = struct.unpack_from("<I", data, 12)
        data[16 + header_len + 3] ^= 0xFF  # flip a byte inside the first weight block
        with pytest.raises(ChecksumFailure):
            load_model(io.BytesIO(bytes(data)))

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptFile):
            load_model(io.BytesIO(b"definitely not a model file"))

    @pytest.mark.parametrize(
        "old, new",
        [
            (",0.5,-0.4,", ",abc,-0.4,"),  # pcc_x not a number
            (",0.5,-0.4,", ",0.5,nan,"),  # pcc_y not finite
            (",-90,-30", ",-inf,-30"),  # rssi_min
            (",-90,-30", ",-90,1e999"),  # rssi_max overflows to inf
            (",-90,-30", ",-90,-95"),  # max below min
            ("extent = 11", "extent = nan"),
            (",-85,-40\n", ",-85,-40\nAA:00:00:00:00:04,1,0.5,-0.4,-70,-20\n"),  # 4 kept columns, input width 3
        ],
    )
    def test_bad_sidecar_with_valid_checksum_rejected(self, old, new):
        import hashlib
        import struct

        bundle = small_bundle()
        buf = io.BytesIO()
        save_model(bundle.model, bundle.selection, bundle.params, buf)
        data = buf.getvalue()[:-32]
        start = data.index(b"format = ")
        (length,) = struct.unpack_from("<I", data, start - 4)
        sidecar = data[start : start + length].decode("utf-8")
        assert old in sidecar
        edited = sidecar.replace(old, new, 1).encode("utf-8")
        body = data[: start - 4] + struct.pack("<I", len(edited)) + edited
        with pytest.raises(SidecarFormatError) as exc_info:
            load_model(io.BytesIO(body + hashlib.sha256(body).digest()))
        assert isinstance(exc_info.value, ToolkitError)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"arch":[', '"arch":5,"layers":[', "bad architecture header"),  # not iterable
            ('"arch":[', '"arch":null,"layers":[', "bad architecture header"),
            ('"in":3,', '"in":1e400,', "'in' must be a non-negative integer"),  # JSON reads it as inf
            ('"width":4}', '"width":1e400}', "'width' must be a non-negative integer"),
            ('"arch":[', '"arch":' + "[" * 100_000 + "]" * 100_000 + ',"layers":[', "bad architecture header"),  # too deep
            ('"epsilon":1e-05,', '"epsilon":NaN,', "epsilon must be positive and finite"),
            ('"in":3,', '"in":6.9,', "'in' must be a non-negative integer, not 6.9"),
            ('"in":3,', '"in":true,', "'in' must be a non-negative integer, not True"),
            ('"out":4}', '"out":"32"}', "'out' must be a non-negative integer, not '32'"),
            ('"out":4}', '"out":-1}', "'out' must be a non-negative integer, not -1"),
            ('"width":4}', '"width":-1}', "'width' must be a non-negative integer, not -1"),
            ('"activation":"relu","in":3', '"activation":1,"in":3', "'activation' must be a string"),
            ('"epsilon":1e-05,', '"epsilon":"1e-5",', "'epsilon' must be a number, not '1e-5'"),
            ('"momentum":0.9,', '"momentum":true,', "'momentum' must be a number, not True"),
            ('"initialized":true,', '"initialized":"false",', "'initialized' must be a boolean, not 'false'"),
            ('"input_width":3', '"input_width":99', "header input_width 99 does not match the architecture's 3"),
            ('"output_width":2', '"output_width":"x"', "header output_width 'x' does not match the architecture's 2"),
        ],
        ids=[
            "arch-int",
            "arch-null",
            "dense-in-inf",
            "batchnorm-width-inf",
            "arch-deep",
            "epsilon-nan",
            "dense-in-float",
            "dense-in-bool",
            "dense-out-string",
            "dense-out-negative",
            "batchnorm-width-negative",
            "activation-int",
            "epsilon-string",
            "momentum-bool",
            "initialized-string",
            "input-width-99",
            "output-width-string",
        ],
    )
    def test_bad_header_with_valid_checksum_rejected(self, old, new, message):
        import hashlib
        import struct

        bundle = small_bundle()
        buf = io.BytesIO()
        save_model(bundle.model, bundle.selection, bundle.params, buf)
        data = buf.getvalue()[:-32]
        (length,) = struct.unpack_from("<I", data, 12)
        header = data[16 : 16 + length].decode("utf-8")
        assert old in header
        edited = header.replace(old, new, 1).encode("utf-8")
        body = data[:12] + struct.pack("<I", len(edited)) + edited + data[16 + length :]
        with pytest.raises(CorruptFile) as exc_info:
            load_model(io.BytesIO(body + hashlib.sha256(body).digest()))
        assert message in str(exc_info.value)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_stacks_resave_byte_identically(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        width = first = data.draw(st.integers(1, 8), label="input width")
        layers, initialized = [], True
        # the last dense layer outputs x and y: save_model refuses any other width
        outs = data.draw(st.lists(st.integers(1, 8), max_size=2), label="hidden dense widths") + [2]
        for i, out in enumerate(outs):
            last = i == len(outs) - 1
            layers.append(DenseLayer(rng.normal(size=(out, width)), rng.normal(size=out), "identity" if last else "relu"))
            width = out
            if not last and data.draw(st.booleans(), label="batch norm"):
                epsilon = data.draw(st.one_of(st.integers(1, 3), st.floats(1e-9, 1.0)), label="epsilon")
                momentum = data.draw(st.floats(0.01, 0.99), label="momentum")
                statistics = data.draw(st.booleans(), label="initialized")
                initialized = initialized and statistics
                layers.append(BatchNormLayer(*rng.normal(size=(3, width)), rng.uniform(0, 2, width), epsilon, momentum, statistics))
        model = MlpRegressor(layers)
        macs = tuple(f"AA:00:00:00:00:{i:02X}" for i in range(first))
        selection = FeatureSelection(macs, {m: 0.5 for m in macs}, {m: -0.4 for m in macs}, 0.24)
        params = NormalizationParams(np.full(first, -90.0), np.full(first, -30.0), 0.0, 0.0, 11.0)
        saved, resaved = io.BytesIO(), io.BytesIO()
        save_model(model, selection, params, saved)
        loaded = load_model(io.BytesIO(saved.getvalue())).model
        save_model(loaded, selection, params, resaved)
        assert resaved.getvalue() == saved.getvalue()
        if initialized:
            X = rng.uniform(0, 1, (5, first))
            assert np.array_equal(forward(loaded, X), forward(model, X))


_DISPATCH_ALLOWED = {"MlpRegressor.__post_init__", "_pass", "_backward", "train"}
_LAYER_CLASSES = {"DenseLayer", "BatchNormLayer"}


def _kind_dispatch_sites(tree: ast.Module) -> list[str]:
    """Each type test of a layer and each comparison with a layer kind, outside
    the layer classes and the functions allowed to dispatch on the kind."""

    def dispatches(node) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance" and len(node.args) == 2:
            targets = [node.args[1]]
        elif isinstance(node, ast.Compare):
            targets = [node.left, *node.comparators]
        else:
            return False
        for sub in (n for target in targets for n in ast.walk(target)):
            if isinstance(sub, ast.Name) and sub.id in _LAYER_CLASSES:
                return True
            if isinstance(sub, ast.Attribute) and sub.attr == "KIND":
                return True
            if isinstance(node, ast.Compare) and isinstance(sub, ast.Constant) and sub.value in ("dense", "batchnorm"):
                return True
        return False

    units = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            if node.name not in _LAYER_CLASSES:
                units += [(f"{node.name}.{item.name}", item) for item in node.body if isinstance(item, ast.FunctionDef)]
        else:
            units.append((getattr(node, "name", "<module>"), node))
    return [
        f"{name}: line {sub.lineno}" for name, unit in units if name not in _DISPATCH_ALLOWED for sub in ast.walk(unit) if dispatches(sub)
    ]


def test_only_the_layer_loops_dispatch_on_layer_kind():
    import rssinav.model

    tree = ast.parse(Path(rssinav.model.__file__).read_text(encoding="utf-8"))
    assert _kind_dispatch_sites(tree) == []


def test_the_dispatch_check_sees_each_form():
    source = """
def f(layer, d):
    isinstance(layer, (DenseLayer, int))
    type(layer) is BatchNormLayer
    d["kind"] == "dense"
    d["kind"] in ("batchnorm",)
    d["kind"] == DenseLayer.KIND
    isinstance(d, dict) and d.get("kind") in kinds
class Net:
    def method(self, layer):
        return isinstance(layer, BatchNormLayer)
class DenseLayer:
    def own(self, other):
        return isinstance(other, DenseLayer)
def train(layer):
    return isinstance(layer, BatchNormLayer)
"""
    assert _kind_dispatch_sites(ast.parse(source)) == [f"f: line {n}" for n in range(3, 8)] + ["Net.method: line 11"]


class TestPredict:
    def test_missing_every_kept_ap_refused(self):
        bundle = small_bundle()
        snapshot = ScanSnapshot((ScanEntry("FF:00:00:00:00:01", "Other", -50),))
        with pytest.raises(NoKnownAccessPoints):
            predict_position(bundle, snapshot)

    def test_identical_snapshots_identical_estimates(self):
        bundle = small_bundle()
        snapshot = ScanSnapshot(
            (
                ScanEntry("AA:00:00:00:00:01", "Net", -50),
                ScanEntry("AA:00:00:00:00:02", "Net", -60),
            )
        )
        assert predict_position(bundle, snapshot) == predict_position(bundle, snapshot)

    @pytest.mark.parametrize("out", [(0.0, -0.0), (-0.0, 0.0), (np.inf, -np.inf), (-np.inf, np.nan), (np.nan, -np.nan), (0.25, 1e308)])
    @pytest.mark.parametrize(
        "origin, extent",
        [((0.0, 0.0), 11.0), ((-0.0, -0.0), 1e-300), ((-3.5, 2.25), 0.1), ((1e308, -1e308), 10.0), ((np.float64(10.0), np.float32(-0.5)), np.float64(12.5))],
    )
    def test_float_denormalization_matches_denormalize_coords(self, monkeypatch, out, origin, extent):
        bundle = small_bundle()
        bundle = ModelBundle(bundle.model, bundle.selection, NormalizationParams(bundle.params.feature_min, bundle.params.feature_max, *origin, extent))
        monkeypatch.setattr(model_module, "forward", lambda model, x: np.array(out))
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, and 1e308 * 11
            expected = denormalize_coords(bundle.params, np.array(out)).tolist()
            got = _predict_vector(bundle, np.zeros(3))
        assert all(type(v) is float for v in got)
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in expected]

    def test_concurrent_inference_is_safe(self):
        from concurrent.futures import ThreadPoolExecutor

        bundle = small_bundle()
        rng = np.random.default_rng(21)
        batch = rng.uniform(0, 1, (64, 3))
        expected = forward(bundle.model, batch)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: forward(bundle.model, batch), range(32)))
        assert all(np.array_equal(r, expected) for r in results)

    def test_training_row_predicts_within_training_error(self, trained, ref_dataset):
        bundle, report, split_data = trained
        from rssinav.cli import evaluate_bundle

        _, _, rows = evaluate_bundle(bundle, split_data.train)
        per_row_err = [np.hypot(px - tx, py - ty) for tx, ty, px, py in rows]
        row = split_data.train
        idx = {m: j for j, m in enumerate(row.ap_columns)}
        entries = tuple(
            ScanEntry(mac, "LabNet", int(row.rssi[0, idx[mac]]))
            for mac in row.ap_columns
            if row.rssi[0, idx[mac]] != 0.0
        )
        estimate = predict_position(bundle, ScanSnapshot(entries))
        err = np.hypot(estimate.x - row.x[0], estimate.y - row.y[0])
        assert err <= max(per_row_err) + 1e-9
