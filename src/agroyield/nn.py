"""From-scratch feedforward network trained with backpropagation.

Regression head: identity output unit, squared-error loss
L = 1/2 (prediction - target)^2. Hidden activations: relu (default) or
sigmoid. Training is mini-batch SGD with seeded per-epoch shuffles and
validation-patience early stopping; the parameters returned are those of
the best validation epoch.

`train` keeps every parameter in one contiguous float64 buffer. Layer by
layer it holds the (fan_out, fan_in) weight matrix in row-major order,
then the fan_out biases: 5,633 numbers for 46-64-32-16-1. The working
network's arrays are views into that buffer, and a second buffer with
the same layout holds the gradient and is overwritten on every step.
A step is a forward pass that adds each bias and applies relu in place,
a backward pass that writes each layer's summed gradient into its views,
and one pass over the whole buffer: g /= m; g *= lr; p -= g. Per element
that is the IEEE arithmetic of w -= lr * (sum / m) on separate arrays,
so the weights and the loss history are bit-identical to an update of
each array with a copy per step. `forward_batch`, `backward_batch`,
`sgd_step`, `mse` and `gradient_check` run the same forward, backward
and update code as `train`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baselines import sigmoid
from .errors import (
    DimensionMismatch,
    DivergedLoss,
    EmptyTrainingSet,
    InvalidArchitecture,
)

DEFAULT_LAYER_SIZES = (46, 64, 32, 16, 1)
HIDDEN_ACTIVATIONS = ("relu", "sigmoid")


def _activate(name, z):
    """The activation of z; relu overwrites z."""
    if name == "sigmoid":
        return sigmoid(z)
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    raise ValueError(f"unknown activation {name!r}")


def _activation_grad(name, a):
    # derivative expressed through the post-activation value; relu's is
    # a boolean mask, which multiplies as 1.0 and 0.0
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "relu":
        return a > 0
    raise ValueError(f"unknown activation {name!r}")


@dataclass
class Network:
    layer_sizes: tuple
    weights: list   # per layer, (fan_out, fan_in)
    biases: list    # per layer, (fan_out,)
    hidden_activation: str = "relu"

    @property
    def n_inputs(self):
        return self.layer_sizes[0]


@dataclass
class Gradients:
    weight_grads: list
    bias_grads: list


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 32
    max_epochs: int = 200
    patience: int = 20
    seed: int = 0
    validation_fraction: float = 0.1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")


@dataclass
class LossHistory:
    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["epoch,train_mse,val_mse"]
        for i, (t, v) in enumerate(zip(self.train_mse, self.val_mse)):
            lines.append(f"{i},{t!r},{'' if v is None else repr(v)}")
        return "\n".join(lines) + "\n"


def init_network(layer_sizes=DEFAULT_LAYER_SIZES, hidden_activation="relu",
                 seed=0) -> Network:
    """Glorot-uniform weights, zero biases, deterministic given seed."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise InvalidArchitecture(f"bad layer sizes {sizes}")
    _activate(hidden_activation, np.zeros(1))  # validate the name
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Network(layer_sizes=sizes, weights=weights, biases=biases,
                   hidden_activation=hidden_activation)


def _flatten(weights, biases) -> np.ndarray:
    """A new flat buffer holding the arrays in the layout of `train`."""
    return np.concatenate([a.ravel() for layer in zip(weights, biases)
                           for a in layer], dtype=float)


def _views(flat, net: Network):
    """Per-layer weight and bias views of a flat buffer laid out for `net`."""
    weights, biases, at = [], [], 0
    for fan_out, fan_in in (w.shape for w in net.weights):
        weights.append(flat[at:at + fan_out * fan_in].reshape(fan_out, fan_in))
        at += fan_out * fan_in
        biases.append(flat[at:at + fan_out])
        at += fan_out
    return weights, biases


def _network_on(flat, net: Network) -> Network:
    """A network like `net` whose arrays are views into `flat`."""
    return Network(tuple(net.layer_sizes), *_views(flat, net),
                   hidden_activation=net.hidden_activation)


def _forward(net: Network, x: np.ndarray):
    """Activations of every layer for a 2-D float batch."""
    if x.shape[1] != net.n_inputs:
        raise DimensionMismatch(
            f"expected {net.n_inputs} inputs, got {x.shape[1]}")
    acts = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T
        z += b
        acts.append(z if i == last else _activate(net.hidden_activation, z))
    return acts


def _backward(net: Network, acts, targets, grads: Gradients, flat):
    """Write the batch-mean gradient of 1/2 (pred - target)^2 into
    `grads`, whose arrays are views covering the flat buffer `flat`."""
    delta = acts[-1] - targets.reshape(-1, 1)  # identity output unit
    for layer in range(len(net.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[layer], out=grads.weight_grads[layer])
        np.add.reduce(delta, axis=0, out=grads.bias_grads[layer])
        if layer > 0:
            delta = delta @ net.weights[layer]
            delta *= _activation_grad(net.hidden_activation, acts[layer])
    flat /= acts[0].shape[0]


def _descend(params, grad, learning_rate):
    """One SGD update of a flat buffer; `grad` is overwritten."""
    grad *= learning_rate
    params -= grad


def forward_batch(net: Network, x: np.ndarray):
    """Batched forward pass; returns (predictions (n,), activations).

    activations[0] is the input batch; the last entry is the (n, 1)
    linear output.
    """
    acts = _forward(net, np.atleast_2d(np.asarray(x, dtype=float)))
    return acts[-1][:, 0], acts


def forward(net: Network, x):
    """Single-example forward pass; returns (prediction, activations)."""
    preds, acts = forward_batch(net, np.asarray(x, dtype=float).reshape(1, -1))
    return float(preds[0]), acts


def backward_batch(net: Network, activations, targets) -> Gradients:
    """Mean gradient of 1/2 (pred - target)^2 over the batch."""
    flat = np.empty(sum(w.size + b.size
                        for w, b in zip(net.weights, net.biases)))
    grads = Gradients(*_views(flat, net))
    _backward(net, activations, np.atleast_1d(np.asarray(targets, dtype=float)),
              grads, flat)
    return grads


def backward(net: Network, activations, target: float) -> Gradients:
    return backward_batch(net, activations, [target])


def sgd_step(net: Network, grads: Gradients, learning_rate: float) -> Network:
    params = _flatten(net.weights, net.biases)
    _descend(params, _flatten(grads.weight_grads, grads.bias_grads),
             learning_rate)
    return _network_on(params, net)


def loss(net: Network, x, target: float) -> float:
    pred, _ = forward(net, x)
    return 0.5 * (pred - float(target)) ** 2


def mse(net: Network, x: np.ndarray, y: np.ndarray) -> float:
    preds, _ = forward_batch(net, x)
    return float(np.mean((preds - np.asarray(y, dtype=float)) ** 2))


def train(net: Network, x: np.ndarray, y: np.ndarray, cfg: TrainConfig):
    """Mini-batch SGD with early stopping; returns (best network, history).

    `net` is not written to; the returned network owns its arrays.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    n = x.shape[0]
    if n == 0:
        raise EmptyTrainingSet("no training examples")

    rng = np.random.default_rng(cfg.seed)
    n_val = int(n * cfg.validation_fraction)
    order = rng.permutation(n)
    val_idx, fit_idx = order[:n_val], order[n_val:]
    if len(fit_idx) == 0:
        raise EmptyTrainingSet("validation carve-out left no training examples")
    x_fit, y_fit = x[fit_idx], y[fit_idx]
    x_val, y_val = x[val_idx], y[val_idx]

    params = _flatten(net.weights, net.biases)
    current = _network_on(params, net)
    grad = np.empty_like(params)
    grads = Gradients(*_views(grad, net))
    best = params.copy()
    best_monitor = np.inf
    since_best = 0
    history = LossHistory()
    n_fit = len(fit_idx)

    with np.errstate(all="ignore"):  # the finite-MSE check reports divergence
        for _ in range(cfg.max_epochs):
            perm = rng.permutation(n_fit)
            for start in range(0, n_fit, cfg.batch_size):
                batch = perm[start:start + cfg.batch_size]
                acts = _forward(current, x_fit[batch])
                _backward(current, acts, y_fit[batch], grads, grad)
                _descend(params, grad, cfg.learning_rate)
            train_mse = mse(current, x_fit, y_fit)
            if not np.isfinite(train_mse):
                raise DivergedLoss(f"training MSE became {train_mse}")
            val_mse = mse(current, x_val, y_val) if n_val > 0 else None
            history.train_mse.append(train_mse)
            history.val_mse.append(val_mse)
            monitor = val_mse if val_mse is not None else train_mse
            if monitor < best_monitor:
                best_monitor = monitor
                best = params.copy()
                since_best = 0
            else:
                since_best += 1
                if since_best > cfg.patience:
                    break
    return _network_on(best, net), history


def gradient_check(net: Network, x, target: float, epsilon: float = 1e-5) -> float:
    """Max relative deviation of backprop vs central finite differences."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    x = np.asarray(x, dtype=float)
    _, acts = forward(net, x)
    grads = backward(net, acts, target)

    worst = 0.0
    params = [(net.weights, grads.weight_grads), (net.biases, grads.bias_grads)]
    for arrays, grad_arrays in params:
        for arr, grad in zip(arrays, grad_arrays):
            flat, gflat = arr.ravel(), np.asarray(grad).ravel()
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + epsilon
                up = loss(net, x, target)
                flat[k] = orig - epsilon
                down = loss(net, x, target)
                flat[k] = orig
                numeric = (up - down) / (2.0 * epsilon)
                analytic = gflat[k]
                # the 1e-6 floor compares near-zero gradients at absolute
                # scale, where central-difference roundoff (~eps_machine /
                # epsilon) would otherwise dominate the ratio
                denom = max(1e-6, abs(analytic) + abs(numeric))
                worst = max(worst, abs(analytic - numeric) / denom)
    return worst
