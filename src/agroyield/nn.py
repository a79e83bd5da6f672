"""From-scratch feedforward network trained with backpropagation.

Regression head: identity output unit, squared-error loss
L = 1/2 (prediction - target)^2. The hidden activations are the names
of one table, `ACTIVATIONS`: relu (the default) and sigmoid, each with
its function and its derivative, which the forward and the backward
pass look up once per pass. A `Network` refuses any other name.
Training is mini-batch SGD with seeded per-epoch shuffles and
validation-patience early stopping; the parameters returned are those of
the best validation epoch.

A `Network` keeps every parameter in one contiguous float64 buffer,
`params`. Layer by layer it holds the (fan_out, fan_in) weight matrix in
row-major order, then the fan_out biases: 5,633 numbers for
46-64-32-16-1. Its `weights` and `biases` are views into that buffer,
made once when the network is built. A gradient is a network of the same
shape, so `train` overwrites a second buffer with the same layout on
every step. A step is a forward pass that adds each bias and applies
relu in place, a backward pass that writes each layer's summed gradient
into its views, and one pass over the whole buffer: g /= m; g *= lr;
p -= g. Per element that is the IEEE arithmetic of w -= lr * (sum / m) on
separate arrays, so the weights and the loss history are bit-identical
to an update of each array with a copy per step. `forward_batch`,
`backward_batch`, `mse` and `train` compute on the float64 arrays
`models` hands them, rows x (n, k) and targets y (n,), and convert
neither; each row has `layer_sizes[0]` columns, and `models.fit_model`
checks that a train part is not empty. `gradient_check` takes one
example and runs the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import sigmoid
from .errors import AgroYieldError, DivergedLoss
from .schema import N_FEATURES

DEFAULT_LAYER_SIZES = (N_FEATURES, 64, 32, 16, 1)
# name -> (activation of z, which may overwrite z; its derivative written
# through the activation a). relu's derivative is a boolean mask, which
# multiplies as 1.0 and 0.0.
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a: a > 0),
    "sigmoid": (sigmoid, lambda a: a * (1.0 - a)),
}


@dataclass
class Network:
    """Built from per-layer arrays, which are copied once into `params`;
    `weights` and `biases` are then views into it. `replace(net)` copies."""
    layer_sizes: tuple
    weights: list   # per layer, (fan_out, fan_in)
    biases: list    # per layer, (fan_out,)
    hidden_activation: str  # a name of ACTIVATIONS
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.hidden_activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.hidden_activation!r}")
        self.params = np.concatenate(
            [a.ravel() for layer in zip(self.weights, self.biases)
             for a in layer], dtype=float)
        self.weights, self.biases, at = [], [], 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1],
                                   self.layer_sizes[1:]):
            self.weights.append(self.params[at:at + fan_out * fan_in]
                                .reshape(fan_out, fan_in))
            at += fan_out * fan_in
            self.biases.append(self.params[at:at + fan_out])
            at += fan_out


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
        raise AgroYieldError(f"bad layer sizes {sizes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, (fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Network(layer_sizes=sizes, weights=weights, biases=biases,
                   hidden_activation=hidden_activation)


def _forward(net: Network, x: np.ndarray):
    """Activations of every layer for a 2-D float batch."""
    activate = ACTIVATIONS[net.hidden_activation][0]
    acts = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T
        z += b
        acts.append(z if i == last else activate(z))
    return acts


def _backward(net: Network, acts, targets, grads: Network):
    """Overwrite `grads`, a network of net's shape, with the batch-mean
    gradient of 1/2 (pred - target)^2."""
    derivative = ACTIVATIONS[net.hidden_activation][1]
    delta = acts[-1] - targets.reshape(-1, 1)  # identity output unit
    for layer in range(len(net.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[layer], out=grads.weights[layer])
        np.add.reduce(delta, axis=0, out=grads.biases[layer])
        if layer > 0:
            delta = delta @ net.weights[layer]
            delta *= derivative(acts[layer])
    grads.params /= acts[0].shape[0]


def forward_batch(net: Network, x: np.ndarray):
    """Forward pass of rows x (n, k); returns (predictions (n,), activations).

    activations[0] is the input batch; the last entry is the (n, 1)
    linear output.
    """
    acts = _forward(net, x)
    return acts[-1][:, 0], acts


def backward_batch(net: Network, activations, targets) -> Network:
    """Mean gradient of 1/2 (pred - target)^2 over the batch, targets (n,),
    as a network of net's shape."""
    grads = replace(net)
    _backward(net, activations, targets, grads)
    return grads


def mse(net: Network, x: np.ndarray, y: np.ndarray) -> float:
    preds, _ = forward_batch(net, x)
    return float(np.mean((preds - y) ** 2))


def train(net: Network, x: np.ndarray, y: np.ndarray, cfg: TrainConfig):
    """Mini-batch SGD with early stopping on rows x (n, k) and targets y
    (n,); returns (best network, history). `net` is not written to; the
    returned network owns its arrays.
    """
    n = x.shape[0]
    rng = np.random.default_rng(cfg.seed)
    n_val = int(n * cfg.validation_fraction)
    order = rng.permutation(n)
    val_idx, fit_idx = order[:n_val], order[n_val:]
    x_fit, y_fit = x[fit_idx], y[fit_idx]
    x_val, y_val = x[val_idx], y[val_idx]

    current, grads = replace(net), replace(net)
    params, grad, lr = current.params, grads.params, cfg.learning_rate
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
                _backward(current, acts, y_fit[batch], grads)
                grad *= lr
                params -= grad
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
    params[:] = best
    return current, history


def gradient_check(net: Network, x, target: float, epsilon: float = 1e-5) -> float:
    """Max relative deviation of backprop vs central finite differences.

    Each parameter is perturbed in `net.params` and restored, bit for bit.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    x = np.asarray(x, dtype=float).reshape(1, -1)
    target = np.full(1, float(target))
    analytic = backward_batch(net, forward_batch(net, x)[1], target).params
    params = net.params

    worst = 0.0
    for k in range(params.size):
        orig = params[k]
        params[k] = orig + epsilon
        up = 0.5 * (forward_batch(net, x)[0][0] - target[0]) ** 2
        params[k] = orig - epsilon
        down = 0.5 * (forward_batch(net, x)[0][0] - target[0]) ** 2
        params[k] = orig
        numeric = (up - down) / (2.0 * epsilon)
        # the 1e-6 floor compares near-zero gradients at absolute scale,
        # where central-difference roundoff (~eps_machine / epsilon) would
        # otherwise dominate the ratio
        denom = max(1e-6, abs(analytic[k]) + abs(numeric))
        worst = max(worst, abs(analytic[k] - numeric) / denom)
    return worst
