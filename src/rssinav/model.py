"""Dense-network position regressor built from scratch on numpy.

The regressor maps a normalized RSSI feature vector to normalized (x, y).
Everything is explicit: forward pass, batch normalization with separate
train/inference behaviour, mean-absolute-error loss, analytic
backpropagation, a seeded training loop (plain gradient descent or
adaptive-moment), and a self-describing binary model file that bundles the
network with its feature selection and normalization parameters.  Training
keeps every trainable array in one contiguous buffer that the layers view,
and each step's gradient in one buffer of the same layout, so an optimizer
step is a few whole-buffer operations.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CorruptFile, EmptyDataset, InvalidParameter, ShapeMismatch, ToolkitError, check_seed, require_positive
from .fileio import open_sink, read_bytes
from .features import (
    FeatureSelection,
    NormalizationParams,
    SidecarFormatError,
    normalize_features,
    sidecar_dumps,
    sidecar_loads,
)
from .scan_ingest import MISSING_RSSI, ScanSnapshot

RELU = "relu"
IDENTITY = "identity"
ACTIVATIONS = (RELU, IDENTITY)

DEFAULT_EPOCHS = 700
DEFAULT_VALIDATION_SPLIT = 0.2
DEFAULT_BATCH_SIZE = 16
DEFAULT_LEARNING_RATE = 1e-3

_MAGIC = b"FPNNMODEL\x00"
_FORMAT_VERSION = 1


class UninitializedStatistics(ToolkitError):
    """Inference-mode batch norm needs populated running statistics."""


class DivergenceDetected(ToolkitError):
    """Training loss became non-finite; carries the report so far."""

    def __init__(self, message: str, report: "TrainReport"):
        super().__init__(message)
        self.report = report


class VersionMismatch(ToolkitError):
    """The model file was written by an unknown format version."""


class ChecksumFailure(ToolkitError):
    """The model file's checksum does not match its content."""


class NoKnownAccessPoints(ToolkitError):
    """A snapshot contains none of the model's feature APs; no estimate."""


def _field(descriptor: dict, name: str, kind: type):
    """A layer descriptor's field as a JSON value of ``kind``: a bool is no number, an int is a size (>= 0)."""
    value = descriptor[name]
    typed = isinstance(value, (int, float) if kind is float else kind) and isinstance(value, bool) == (kind is bool)
    if not typed or (kind is int and value < 0):
        what = {int: "a non-negative integer", float: "a number", str: "a string", bool: "a boolean"}[kind]
        raise CorruptFile(f"bad layer descriptor: {name!r} must be {what}, not {value!r:.40}")
    return value


@dataclass
class DenseLayer:
    """Fully connected layer: out = activation(W @ x + b), W is (out, in)."""

    KIND = "dense"
    BLOCKS = ("weights", "biases")  # the model file's arrays in order; the first two are trained

    weights: np.ndarray
    biases: np.ndarray
    activation: str = RELU

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        self.biases = np.asarray(self.biases, dtype=float).reshape(-1)
        if self.weights.ndim != 2 or self.weights.shape[0] != self.biases.shape[0]:
            raise ShapeMismatch("weights must be (out, in) with matching biases")
        if self.activation not in ACTIVATIONS:
            raise InvalidParameter(f"unknown activation {self.activation!r}")

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]

    @property
    def out_width(self) -> int:
        return self.weights.shape[0]

    def descriptor(self) -> dict:
        return {"kind": self.KIND, "in": self.in_width, "out": self.out_width, "activation": self.activation}

    @classmethod
    def from_descriptor(cls, descriptor: dict, read) -> "DenseLayer":
        rows, cols, activation = _field(descriptor, "out", int), _field(descriptor, "in", int), _field(descriptor, "activation", str)
        return cls(read(rows, cols), read(rows), activation)

    def reset(self, rng: np.random.Generator) -> None:
        """Seeded uniform fan-in weights and zero biases."""
        bound = 1.0 / np.sqrt(self.in_width)
        self.weights = rng.uniform(-bound, bound, self.weights.shape)
        self.biases = np.zeros_like(self.biases)


@dataclass
class BatchNormLayer:
    """Per-feature standardization: batch statistics while training, running
    statistics at inference (so inference output never depends on batch
    composition)."""

    KIND = "batchnorm"
    BLOCKS = ("gamma", "beta", "running_mean", "running_var")

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5
    momentum: float = 0.9
    initialized: bool = True

    def __post_init__(self) -> None:
        self.gamma = np.asarray(self.gamma, dtype=float).reshape(-1)
        self.beta = np.asarray(self.beta, dtype=float).reshape(-1)
        self.running_mean = np.asarray(self.running_mean, dtype=float).reshape(-1)
        self.running_var = np.asarray(self.running_var, dtype=float).reshape(-1)
        if not (len(self.gamma) == len(self.beta) == len(self.running_mean) == len(self.running_var)):
            raise ShapeMismatch("batch-norm parameter widths differ")
        if not (0 < float(self.epsilon) < np.inf and 0 < self.momentum < 1):
            raise InvalidParameter("epsilon must be positive and finite and momentum in (0, 1)")
        if np.any(self.running_var < 0):
            raise InvalidParameter("running variance must be non-negative")

    @classmethod
    def fresh(cls, width: int, epsilon: float = 1e-5, momentum: float = 0.9) -> "BatchNormLayer":
        return cls(np.ones(width), np.zeros(width), np.zeros(width), np.ones(width), epsilon, momentum, initialized=False)

    @property
    def width(self) -> int:
        return len(self.gamma)

    def descriptor(self) -> dict:
        return {"kind": self.KIND, **{name: getattr(self, name) for name in ("width", "epsilon", "momentum", "initialized")}}

    @classmethod
    def from_descriptor(cls, descriptor: dict, read) -> "BatchNormLayer":
        width, epsilon = _field(descriptor, "width", int), _field(descriptor, "epsilon", float)
        momentum, initialized = _field(descriptor, "momentum", float), _field(descriptor, "initialized", bool)
        return cls(*[read(width) for _ in cls.BLOCKS], epsilon, momentum, initialized)

    def reset(self, rng: np.random.Generator) -> None:
        """Back to a fresh layer's neutral values and no running statistics; nothing is drawn from ``rng``."""
        vars(self).update(vars(self.fresh(self.width, self.epsilon, self.momentum)))

    def running_root(self) -> np.ndarray:
        """``np.sqrt(running_var + epsilon)``, derived on first use for each ``running_var`` array and ``epsilon``."""
        cached = vars(self).get("_root")
        if cached is None or cached[0] is not self.running_var or cached[1] != self.epsilon:
            cached = self._root = (self.running_var, self.epsilon, np.sqrt(self.running_var + self.epsilon))
        return cached[2]

    def update_running(self, mean: np.ndarray, var: np.ndarray) -> None:
        if not self.initialized:
            self.running_mean = mean.copy()
            self.running_var = var.copy()
            self.initialized = True
        else:
            self.running_mean = self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1.0 - self.momentum) * var


@dataclass
class MlpRegressor:
    """Ordered dense / batch-norm layer stack ending in an identity-activation
    dense layer of width 2 (normalized x, y)."""

    layers: list

    def __post_init__(self) -> None:
        if not self.layers or not isinstance(self.layers[0], DenseLayer):
            raise ShapeMismatch("model must start with a dense layer")
        width = self.layers[0].in_width
        for layer in self.layers:
            if isinstance(layer, DenseLayer):
                if layer.in_width != width:
                    raise ShapeMismatch(f"layer expects width {layer.in_width}, got {width}")
                width = layer.out_width
            elif isinstance(layer, BatchNormLayer):
                if layer.width != width:
                    raise ShapeMismatch(f"batch norm width {layer.width} does not match {width}")
            else:
                raise ShapeMismatch(f"unsupported layer type {type(layer).__name__}")
        last = self.layers[-1]
        if not isinstance(last, DenseLayer) or last.activation != IDENTITY:
            raise ShapeMismatch("final layer must be dense with identity activation")

    @property
    def input_width(self) -> int:
        return self.layers[0].in_width

    @property
    def output_width(self) -> int:
        return self.layers[-1].out_width

    @classmethod
    def default(cls, input_width: int, hidden=(32, 64)) -> "MlpRegressor":
        """Standard architecture: dense(32) -> batch norm -> dense(64) -> dense(2).

        Parameters start at zero; train() seeds them from its config.
        """
        first, second = hidden
        layers = [
            DenseLayer(np.zeros((first, input_width)), np.zeros(first), RELU),
            BatchNormLayer.fresh(first),
            DenseLayer(np.zeros((second, first)), np.zeros(second), RELU),
            DenseLayer(np.zeros((2, second)), np.zeros(2), IDENTITY),
        ]
        return cls(layers)


def initialize_parameters(model: MlpRegressor, rng: np.random.Generator) -> None:
    """Seeded uniform fan-in init for dense layers; batch norm reset to neutral."""
    for layer in model.layers:
        layer.reset(rng)


def _as_batch(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise ShapeMismatch(f"expected a vector or matrix, got ndim={arr.ndim}")


def forward(model: MlpRegressor, x) -> np.ndarray:
    """Inference on one vector or a batch: batch norm uses running statistics, so no row depends on its batch."""
    batch, single = _as_batch(x)
    if batch.shape[1] != model.input_width:
        raise ShapeMismatch(f"input width {batch.shape[1]} != model width {model.input_width}")
    out = _pass(model, batch, False)
    return out[0] if single else out


def _pass(model: MlpRegressor, batch: np.ndarray, batch_stats: bool, cache: list | None = None) -> np.ndarray:
    """The layer loop: batch norm uses batch statistics if ``batch_stats``, else
    running ones; ``cache`` receives per-layer tuples for backpropagation,
    (input, z) for a dense layer and (mean, var, xhat, ivar) for batch norm."""
    out = batch
    for layer in model.layers:
        if isinstance(layer, DenseLayer):
            z = out @ layer.weights.T + layer.biases
            if cache is not None:
                cache.append((out, z))
            out = np.maximum(z, 0.0) if layer.activation == RELU else z
        elif batch_stats:
            # bit-for-bit what ndarray.mean / ndarray.var compute, without their Python wrappers
            mean = np.add.reduce(out, axis=0) / out.shape[0]
            centered = out - mean
            var = np.add.reduce(centered * centered, axis=0) / out.shape[0]
            ivar = 1.0 / np.sqrt(var + layer.epsilon)
            xhat = centered * ivar
            if cache is not None:
                cache.append((mean, var, xhat, ivar))
            out = layer.gamma * xhat + layer.beta
        else:
            if not layer.initialized:
                raise UninitializedStatistics("batch norm has no running statistics yet")
            out = layer.gamma * (out - layer.running_mean) / layer.running_root() + layer.beta
    return out


def mae_loss(pred, truth) -> float:
    """Mean absolute error over every coordinate component of the batch."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ShapeMismatch(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    if pred.size == 0:
        raise EmptyDataset("loss over an empty batch")
    return float(np.abs(pred - truth).mean())


def _backward(model: MlpRegressor, cache: list, g: np.ndarray, grads: list[dict]) -> None:
    """Write the gradient of a cached pass and dLoss/dOutput ``g`` into ``grads``, views from ``_unflatten``."""
    for i in range(len(model.layers) - 1, -1, -1):
        layer, named = model.layers[i], grads[i]
        if isinstance(layer, DenseLayer):
            inputs, z = cache[i]
            dz = g * (z > 0.0) if layer.activation == RELU else g
            np.add.reduce(dz, axis=0, out=named["biases"])  # ndarray.sum without its Python wrapper
            np.matmul(dz.T, inputs, out=named["weights"])
            if i:  # the network input needs no gradient
                g = dz @ layer.weights
        else:
            _, _, xhat, ivar = cache[i]
            m = xhat.shape[0]
            np.add.reduce(g, axis=0, out=named["beta"])
            np.add.reduce(g * xhat, axis=0, out=named["gamma"])
            dxhat = g * layer.gamma
            # batch statistics (population variance) participate in the gradient
            g = (ivar / m) * (m * dxhat - np.add.reduce(dxhat, axis=0) - xhat * np.add.reduce(dxhat * xhat, axis=0))


def backward(model: MlpRegressor, inputs, targets):
    """Analytic gradients of the batch MAE loss for every parameter.

    The MAE subgradient at an exactly-zero component error is 0.  Gradient
    shapes mirror parameter shapes, as a list of per-layer dicts (views of
    one flat gradient buffer).
    """
    _, grad, _ = _loss_and_grads(model, inputs, targets)
    return _unflatten(model, grad)


def _loss_and_grads(model: MlpRegressor, inputs, targets):
    batch, _ = _as_batch(inputs)
    truth, _ = _as_batch(targets)
    if batch.shape[0] != truth.shape[0] or batch.shape[1] != model.input_width or truth.shape[1] != model.output_width:
        raise ShapeMismatch("batch and target shapes do not match the model")
    if batch.shape[0] == 0:
        raise EmptyDataset("gradient over an empty batch")
    grad = np.empty(sum(getattr(layer, name).size for layer in model.layers for name in layer.BLOCKS[:2]))
    loss, cache = _step(model, batch, truth, _unflatten(model, grad))
    return loss, grad, cache


def _step(model: MlpRegressor, batch: np.ndarray, truth: np.ndarray, grads: list[dict]) -> tuple[float, list]:
    """(loss, cache) of one unchecked training pass; the gradient goes into ``grads``."""
    cache = []
    err = _pass(model, batch, True, cache) - truth
    loss = float(np.add.reduce(np.abs(err), axis=None) / err.size)  # == ndarray.mean
    _backward(model, cache, np.sign(err) / err.size, grads)
    return loss, cache


@dataclass
class TrainConfig:
    """Training hyperparameters; every value is recorded for reproducibility."""

    epochs: int = DEFAULT_EPOCHS
    validation_split: float = DEFAULT_VALIDATION_SPLIT
    batch_size: int = DEFAULT_BATCH_SIZE
    learning_rate: float = DEFAULT_LEARNING_RATE
    seed: int = 0
    optimizer: str = "adam"  # "adam" (adaptive-moment) or "sgd" (plain gradient descent)

    def __post_init__(self) -> None:
        for name, value in (("epochs", self.epochs), ("batch_size", self.batch_size), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidParameter(f"{name} must be an integer, got {value!r}")
        if self.epochs < 1:
            raise InvalidParameter("epochs must be >= 1")
        if isinstance(self.validation_split, bool) or not 0.0 <= self.validation_split < 1.0:
            raise InvalidParameter(f"validation_split must be in [0, 1), got {self.validation_split!r}")
        if self.batch_size < 1:
            raise InvalidParameter("batch_size must be >= 1")
        require_positive(learning_rate=self.learning_rate)
        check_seed(self.seed)
        if self.optimizer not in ("adam", "sgd"):
            raise InvalidParameter(f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainReport:
    """Per-epoch losses (normalized MAE) plus final test metrics when known."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    test_mae_norm: float | None = None
    test_mean_error_ft: float | None = None


def _unflatten(model: MlpRegressor, flat: np.ndarray) -> list[dict]:
    """Per-layer dicts of views into ``flat``, shaped like the layers' trained arrays."""
    views, offset = [{} for _ in model.layers], 0
    for layer, named in zip(model.layers, views):
        for name in layer.BLOCKS[:2]:
            param = getattr(layer, name)
            named[name] = flat[offset : offset + param.size].reshape(param.shape)
            offset += param.size
    return views


def _flatten_parameters(model: MlpRegressor) -> np.ndarray:
    """Copy every trainable array into one buffer and rebind the layers to views of it."""
    flat = np.concatenate([getattr(layer, name).ravel() for layer in model.layers for name in layer.BLOCKS[:2]])
    for layer, views in zip(model.layers, _unflatten(model, flat)):
        for name, view in views.items():
            setattr(layer, name, view)
    return flat


class _Adam:
    def __init__(self, theta: np.ndarray, lr: float):
        self.theta, self.lr, self.beta1, self.beta2, self.eps = theta, lr, 0.9, 0.999, 1e-8
        self.t = 0
        self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        mhat = self.m / (1 - self.beta1**self.t)
        vhat = self.v / (1 - self.beta2**self.t)
        self.theta -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


class _Sgd:
    def __init__(self, theta: np.ndarray, lr: float):
        self.theta, self.lr = theta, lr

    def step(self, grad: np.ndarray) -> None:
        self.theta -= self.lr * grad


def validation_counts(n: int, fraction: float) -> tuple[int, int]:
    """(training rows, validation rows) for a carve-out: the validation count
    is the rounded fraction of n, capped so at least one training row survives."""
    n_val = min(int(np.floor(fraction * n + 0.5)), n - 1) if n > 1 else 0
    return n - n_val, n_val


@np.errstate(over="ignore", invalid="ignore")  # a diverging run ends on DivergenceDetected alone
def train(model: MlpRegressor, inputs, targets, config: TrainConfig) -> TrainReport:
    """Seeded minibatch training on normalized data.

    The seed drives everything that is random: parameter initialization
    (training re-initializes the model so a run is a pure function of data,
    architecture and config), the one-time shuffle whose last
    ``validation_split`` fraction becomes the validation set, and the
    per-epoch batch order.  Batch-norm running statistics are updated from
    every training batch; validation loss is computed in inference mode.
    Training leaves the layers' trainable arrays as views of one buffer.
    Raises DivergenceDetected (carrying the report so far) if the loss goes
    non-finite.
    """
    X, _ = _as_batch(inputs)
    T, _ = _as_batch(targets)
    if X.shape[0] == 0:
        raise EmptyDataset("no training rows")
    if X.shape[0] != T.shape[0] or X.shape[1] != model.input_width or T.shape[1] != model.output_width:
        raise ShapeMismatch("training arrays do not match the model widths")
    rng = np.random.default_rng(config.seed)
    initialize_parameters(model, rng)

    n = X.shape[0]
    perm = rng.permutation(n)
    n_train, n_val = validation_counts(n, config.validation_split)
    Xtr, Ttr = X[perm[:n_train]], T[perm[:n_train]]
    Xva, Tva = X[perm[n_train:]], T[perm[n_train:]]

    theta = _flatten_parameters(model)
    grad = np.empty_like(theta)  # every step writes it whole, through the per-layer views
    grads = _unflatten(model, grad)
    optimizer = _Adam(theta, config.learning_rate) if config.optimizer == "adam" else _Sgd(theta, config.learning_rate)
    report = TrainReport()
    size, norms = config.batch_size, [(i, layer) for i, layer in enumerate(model.layers) if isinstance(layer, BatchNormLayer)]
    for _ in range(config.epochs):
        order = rng.permutation(n_train)
        Xep, Tep = Xtr[order], Ttr[order]  # one gather per epoch; batches are contiguous slices of it
        total_abs = 0.0
        for start in range(0, n_train, size):
            batch = Xep[start : start + size]
            loss, cache = _step(model, batch, Tep[start : start + size], grads)
            if not math.isfinite(loss):
                raise DivergenceDetected("training loss became non-finite", report)
            for i, layer in norms:
                layer.update_running(cache[i][0], cache[i][1])
            optimizer.step(grad)
            total_abs += loss * len(batch)
        epoch_train = total_abs / n_train
        # mae_loss(forward(model, Xva), Tva) without their checks, or the training loss if no rows were carved out
        epoch_val = float(np.add.reduce(np.abs(_pass(model, Xva, False) - Tva), axis=None) / Tva.size) if n_val else epoch_train
        if not (math.isfinite(epoch_train) and math.isfinite(epoch_val)):
            raise DivergenceDetected("training loss became non-finite", report)
        report.train_loss.append(float(epoch_train))
        report.val_loss.append(float(epoch_val))
    return report


class PositionEstimate(NamedTuple):
    x: float
    y: float


@dataclass
class ModelBundle:
    """A trained regressor with the selection and scaling it was fit with."""

    model: MlpRegressor
    selection: FeatureSelection
    params: NormalizationParams


def prepare_features(bundle: ModelBundle, values) -> np.ndarray:
    """Normalize raw RSSI values and clamp them into the fitted [0, 1] range.

    Readings outside the range seen at fit time (possible for any scan the
    training set did not cover) would make the network extrapolate wildly;
    clamping pins them to the nearest trained boundary instead.
    """
    return np.clip(normalize_features(bundle.params, values), 0.0, 1.0)


def predict_position(bundle: ModelBundle, snapshot: ScanSnapshot) -> PositionEstimate:
    """Estimate (x, y) in feet from one parsed scan.

    The feature vector is assembled in kept-column order with absent APs
    zero-filled, normalized (out-of-range readings clamped), run through the
    network in inference mode and denormalized.  If the snapshot contains
    none of the kept APs the estimate is refused (NoKnownAccessPoints) so a
    navigator can hold position instead of acting on noise.
    """
    observed = snapshot.rssi_by_mac()
    kept = bundle.selection.kept_columns
    if not any(mac in observed for mac in kept):
        raise NoKnownAccessPoints("snapshot contains none of the model's access points")
    return PositionEstimate(*_predict_vector(bundle, np.array([float(observed.get(mac, MISSING_RSSI)) for mac in kept])))


def _predict_vector(bundle: ModelBundle, vector: np.ndarray) -> tuple[float, float]:
    """(x, y) in feet from raw RSSI values in kept-column order: the prediction core.

    Denormalization runs on Python floats, the same IEEE multiply and add
    per coordinate as ``denormalize_coords``.
    """
    x, y = forward(bundle.model, prepare_features(bundle, vector)).tolist()
    params = bundle.params
    return x * params.extent + params.origin_x, y * params.extent + params.origin_y


def _finite_block(block: np.ndarray, index: int, name: str, error: type) -> np.ndarray:
    """``block`` if every value in it is finite, else ``error`` naming the layer and the block."""
    if not np.isfinite(block).all():
        raise error(f"layer {index} {name} holds a non-finite value")
    return block


def save_model(model: MlpRegressor, selection: FeatureSelection, params: NormalizationParams, sink) -> None:
    """Write the self-describing binary model file.

    Layout: magic, format version, JSON architecture header, parameter
    blocks as little-endian float64 in declared order, the
    selection/normalization sidecar text, and a SHA-256 checksum over
    everything before it.  A block holding a NaN or an infinity is refused
    (InvalidParameter), and a network whose output width is not 2
    (ShapeMismatch), as load_model would refuse either.
    """
    arch = [layer.descriptor() for layer in model.layers]
    fields = {"arch": arch, "input_width": model.input_width, "output_width": model.output_width}
    header = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")
    sidecar = sidecar_dumps(selection, params).encode("utf-8")
    if len(selection.kept_columns) != model.input_width:
        raise ShapeMismatch(f"selection keeps {len(selection.kept_columns)} columns, model input width is {model.input_width}")
    if model.output_width != 2:
        raise ShapeMismatch(f"model output width is {model.output_width}, not 2 (x and y)")
    body = bytearray()
    body += _MAGIC
    body += struct.pack("<H", _FORMAT_VERSION)
    body += struct.pack("<I", len(header)) + header
    for index, layer in enumerate(model.layers):
        for name in layer.BLOCKS:
            body += _finite_block(np.ascontiguousarray(getattr(layer, name), dtype="<f8"), index, name, InvalidParameter).tobytes()
    body += struct.pack("<I", len(sidecar)) + sidecar
    body += hashlib.sha256(bytes(body)).digest()
    with open_sink(sink, binary=True) as fh:
        fh.write(bytes(body))


def load_model(source) -> ModelBundle:
    """Read a model file back; forward outputs are bit-identical to save time.
    A signed parameter block holding a NaN or an infinity is a CorruptFile naming it,
    and so is a network whose output width is not 2."""
    data = read_bytes(source)

    if len(data) < len(_MAGIC) + 2 or not data.startswith(_MAGIC):
        raise CorruptFile("not a model file (bad magic)")
    (version,) = struct.unpack_from("<H", data, len(_MAGIC))
    if version != _FORMAT_VERSION:
        raise VersionMismatch(f"unsupported model format version {version}")
    offset = len(_MAGIC) + 2

    def take(count: int) -> bytes:
        nonlocal offset
        if offset + count > len(data) - 32:  # the final 32 bytes are the checksum
            raise CorruptFile("model file is truncated")
        chunk = data[offset : offset + count]
        offset += count
        return chunk

    def read(*shape: int) -> np.ndarray:
        return np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()

    (header_len,) = struct.unpack("<I", take(4))
    layers = []
    kinds = {cls.KIND: cls for cls in (DenseLayer, BatchNormLayer)}
    # UnicodeDecodeError is a ValueError, float(huge int) an OverflowError, JSON nested too deep a RecursionError
    try:
        header = json.loads(take(header_len).decode("utf-8"))
        for descriptor in header["arch"]:
            if descriptor["kind"] not in kinds:
                raise CorruptFile(f"unknown layer kind {descriptor['kind']!r}")
            layers.append(kinds[descriptor["kind"]].from_descriptor(descriptor, read))
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise CorruptFile(f"bad architecture header: {exc}") from exc
    (sidecar_len,) = struct.unpack("<I", take(4))
    sidecar_text = take(sidecar_len).decode("utf-8", errors="replace")  # bad bytes fail the checksum below
    if offset != len(data) - 32:
        raise CorruptFile("trailing bytes before checksum")
    if hashlib.sha256(data[:-32]).digest() != data[-32:]:
        raise ChecksumFailure("model file checksum mismatch")
    for index, layer in enumerate(layers):  # after the checksum, so a damaged file is still a ChecksumFailure
        for name in layer.BLOCKS:
            _finite_block(getattr(layer, name), index, name, CorruptFile)
    selection, params = sidecar_loads(sidecar_text)
    try:
        model = MlpRegressor(layers)
    except ToolkitError as exc:
        raise CorruptFile(f"inconsistent architecture: {exc}") from exc
    for name, width in (("input_width", model.input_width), ("output_width", model.output_width)):
        if type(header.get(name)) is not int or header[name] != width:
            raise CorruptFile(f"header {name} {header.get(name)!r:.40} does not match the architecture's {width}")
    if model.output_width != 2:
        raise CorruptFile(f"model output width is {model.output_width}, not 2 (x and y)")
    if len(selection.kept_columns) != model.input_width:
        raise SidecarFormatError(f"sidecar keeps {len(selection.kept_columns)} columns, model input width is {model.input_width}")
    return ModelBundle(model, selection, params)
