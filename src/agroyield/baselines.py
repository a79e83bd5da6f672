"""Comparison models built from first principles.

- Logistic regression: sigmoid-link regression on the min-max scaled
  target, trained by full-batch gradient descent on cross-entropy.
- Linear SVM: epsilon-insensitive support vector regression trained by
  subgradient descent on 1/2 ||w||^2 / n + C * mean(hinge residuals).
- Random forest: bagged CART regression trees, variance-reduction splits
  over a seeded random feature subset per node, searched on integer ranks
  of the values taken once per forest. Each tree is a FlatTree: parallel
  preorder lists, the layout of scikit-learn's `Tree`. `train_forest` is
  the one way to grow trees (one tree on all rows is `n_trees=1,
  bootstrap=False`) and `predict_forest_batch` the one way to predict.

Each function computes on the float64 arrays `models` hands it, scaled
rows `x` (n, k) and targets `y` (n,), and converts neither; a train part
has at least one row, which `models.fit_model` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergedLoss
from .rng import derive_seed


def _check_finite(w, b, name, epoch):
    if not (np.isfinite(w).all() and math.isfinite(b)):
        raise DivergedLoss(f"{name} weights stopped being finite in epoch "
                           f"{epoch}")


def sigmoid(z):
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0, e) / d


# ---------------------------------------------------------------- logistic

@dataclass
class LogisticModel:
    weights: np.ndarray  # (n_features,)
    bias: float

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(x @ self.weights + self.bias)


def logistic_loss(model: LogisticModel, x, y) -> float:
    p = np.clip(model.predict_raw(x), 1e-12, 1.0 - 1e-12)
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))


def train_logistic(x, y, learning_rate=0.5,
                   epochs=500) -> LogisticModel:
    """Full-batch gradient descent on cross-entropy of rows x (n, k) vs
    soft targets y (n,) in [0, 1]."""
    w, b = np.zeros(x.shape[1]), 0.0
    n = x.shape[0]
    with np.errstate(all="ignore"):  # _check_finite reports divergence
        for epoch in range(epochs):
            residual = sigmoid(x @ w + b) - y
            w = w - learning_rate * (x.T @ residual) / n
            b = b - learning_rate * float(np.add.reduce(residual) / n)
            _check_finite(w, b, "logistic", epoch)
    return LogisticModel(weights=w, bias=b)


# --------------------------------------------------------------------- svm

@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    epsilon: float
    c: float

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights + self.bias


def svm_objective(model: SvmModel, x, y) -> float:
    residual = np.abs(model.predict_raw(x) - y)
    hinge = np.maximum(0.0, residual - model.epsilon)
    return float(0.5 * np.dot(model.weights, model.weights) / len(x)
                 + model.c * hinge.mean())


def train_svm(x, y, epsilon=0.05, c=1.0, learning_rate=0.1,
              epochs=500) -> SvmModel:
    """Subgradient descent on the epsilon-insensitive linear SVR objective
    over rows x (n, k) and targets y (n,). The step size decays as
    learning_rate / sqrt(t + 1) so the iterates settle instead of
    oscillating inside the hinge's kink region.
    """
    n = x.shape[0]
    w, b = np.zeros(x.shape[1]), 0.0
    with np.errstate(all="ignore"):  # _check_finite reports divergence
        for t in range(epochs):
            step = learning_rate / np.sqrt(t + 1.0)
            residual = x @ w + b - y
            # inside the tube: zero subgradient
            active = np.abs(residual) > epsilon
            sign = np.sign(residual) * active
            grad_w = w / n + c * (x.T @ sign) / n
            grad_b = c * float(np.add.reduce(sign) / n)
            w = w - step * grad_w
            b = b - step * grad_b
            _check_finite(w, b, "svm", t)
    return SvmModel(weights=w, bias=b, epsilon=epsilon, c=c)


# ------------------------------------------------------------------ forest

@dataclass
class FlatTree:
    """A CART tree as parallel preorder lists; node i's left child is i + 1.

    This is the one stored form of a tree, in memory and in model files.
    """
    feature: list    # split feature index; -1 at a leaf
    value: list      # split threshold, or the mean target at a leaf
    right: list      # index of the right child; -1 at a leaf
    n_samples: list  # training samples that reached the node


class TreeNode:
    """Read-only view of node `index` of a FlatTree: whether it is a leaf,
    and its children. It stays only because the benchmark harness
    (`perfbench/tracing.py`) counts a forest's nodes through
    `ForestModel.trees`; nothing in the program walks trees this way."""

    __slots__ = ("tree", "index")

    def __init__(self, tree: FlatTree, index: int = 0):
        self.tree = tree
        self.index = index

    @property
    def is_leaf(self):
        return self.tree.feature[self.index] < 0

    @property
    def left(self):
        return None if self.is_leaf else TreeNode(self.tree, self.index + 1)

    @property
    def right(self):
        if self.is_leaf:
            return None
        return TreeNode(self.tree, self.tree.right[self.index])


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 12
    min_leaf: int = 5
    features_per_split: int = 16  # ceil(46 / 3)
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1")


@dataclass
class ForestModel:
    flat_trees: list  # one FlatTree per bagged tree
    config: ForestConfig

    @property
    def trees(self) -> list:
        """The root of each tree as a TreeNode view."""
        return [TreeNode(t) for t in self.flat_trees]


def _ranks(x):
    """The dense rank of every value within its column of `x`.

    The dtype is the smallest unsigned one that holds n - 1 (uint8 up to
    256 rows, uint16 up to 65,536), which NumPy's stable sort radix-sorts.
    Equal values get equal ranks, -0.0 and 0.0 included, and ranks sort as
    the values do, so a stable sort of a block of ranks puts its rows in the
    order a stable sort of the values would. `x` must be finite (the forest
    sees normalized features of validated records): NaN is not ranked.
    """
    n, k = x.shape
    order = x.argsort(axis=0, kind="stable")
    cols = np.arange(k)
    xs = x[order, cols]
    steps = np.zeros((n, k), dtype=np.min_scalar_type(n - 1))
    np.greater(xs[1:], xs[:-1], out=steps[1:])
    ranks = np.empty_like(steps)
    ranks[order, cols] = steps.cumsum(axis=0, dtype=steps.dtype)
    return ranks


def _split(block, y, total, min_leaf):
    """The best split of a node by variance reduction, or None.

    `block` holds the node's rows in the sampled columns as ranks (n, k),
    `y` their targets and `total` the sum of `y`. Each column is stably
    sorted and prefix-summed on its own, as a loop over the columns would
    do. A split after sorted position i puts i + 1 rows left; only
    positions between two different values that leave `min_leaf` rows on
    both sides count. Ties break toward the first column, then the lowest
    position: argmin takes the first minimum within a column, and a later
    column must be better by 1e-12. Returns (sse, column, a, b), where a
    and b are the rows on either side of the split in that column's order.
    """
    n = len(y)
    lo, hi = min_leaf - 1, n - min_leaf
    if lo >= hi:
        return None
    total_sq = np.add.reduce(y * y)
    bound = float(total_sq - total * total / n) - 1e-12
    order = block.argsort(axis=0, kind="stable")
    cols = np.arange(block.shape[1])
    rs = block[order, cols]
    ys = y[order[:hi]]
    csum = ys.cumsum(axis=0)[lo:]
    ys *= ys
    csq = ys.cumsum(axis=0)[lo:]
    counts = np.arange(min_leaf, hi + 1, dtype=float)[:, None]
    sse = csum * csum
    sse /= counts
    np.subtract(csq, sse, out=sse)  # left SSE
    csum -= total
    csum *= csum
    csum /= counts[::-1]  # n - counts
    np.subtract(total_sq, csq, out=csq)
    csq -= csum  # right SSE
    sse += csq
    sse[rs[lo:hi] == rs[lo + 1:hi + 1]] = np.inf
    rows = sse.argmin(axis=0)
    best = None  # (sse, column)
    for j, s in enumerate(sse[rows, cols].tolist()):
        if s < bound and (best is None or s < best[0] - 1e-12):
            best = (s, j)
    if best is None:
        return None
    s, j = best
    i = lo + rows[j]
    return s, j, order[i, j], order[i + 1, j]


def _threshold(a, b):
    """The split value between sorted neighbours a < b: their midpoint,
    or a when they are adjacent floats and the midpoint rounds onto b, so
    that `x <= threshold` keeps b's rows out of the left child."""
    t = 0.5 * (a + b)
    return float(a if t >= b else t)


def _grow(x, ranks, y, root, max_depth, min_leaf, features_per_split,
          seed) -> FlatTree:
    """Grow a CART regression tree on rows `root` of `x`; leaves predict the
    mean target. `ranks` is `_ranks(x)`.

    Nodes are appended to the FlatTree in preorder as they are grown, so
    the random feature subsets are drawn in the same order as by a
    recursive grower.
    """
    n_features = x.shape[1]
    k = min(features_per_split, n_features)
    rng = np.random.default_rng(seed)
    feature, value, right, n_samples = [], [], [], []
    # (rows, depth, index of the node whose right child this is); the left
    # child is pushed last, so nodes are grown in preorder
    stack = [(root, 0, -1)]
    while stack:
        idx, depth, parent = stack.pop()
        i = len(feature)
        if parent >= 0:
            right[parent] = i
        n = len(idx)
        yn = y[idx]
        total = np.add.reduce(yn)
        feature.append(-1)
        value.append(float(total / n))
        right.append(-1)
        n_samples.append(n)
        if depth >= max_depth or n < 2 * min_leaf or (yn == yn[0]).all():
            continue
        chosen = rng.choice(n_features, size=k, replace=False)
        chosen.sort()
        found = _split(ranks[idx][:, chosen], yn, total, min_leaf)
        if found is None:
            continue
        _, j, a, b = found
        f = chosen[j]
        xf = x[idx, f]
        threshold = _threshold(xf[a], xf[b])
        # on the values, as prediction routes a row
        mask = xf <= threshold
        feature[i] = int(f)
        value[i] = threshold
        stack.append((idx[~mask], depth + 1, i))
        stack.append((idx[mask], depth + 1, -1))
    return FlatTree(feature=feature, value=value, right=right,
                    n_samples=n_samples)


def _walk(tree: FlatTree, row) -> float:
    """The leaf value reached from the root; `row` is indexable by feature."""
    feature, value, right = tree.feature, tree.value, tree.right
    i, f = 0, feature[0]
    while f >= 0:
        i = i + 1 if row[f] <= value[i] else right[i]
        f = feature[i]
    return value[i]


def train_forest(x, y, config: ForestConfig = ForestConfig()) -> ForestModel:
    """Bag trees on seeded bootstrap resamples of rows x (n, k) and targets
    y (n,); prediction is the tree mean. The columns are ranked once per
    forest; each tree grows on the rows of its bootstrap resample, so no
    resample is copied.
    """
    n = len(y)
    ranks = _ranks(x)
    trees = []
    for i in range(config.n_trees):
        tree_seed = derive_seed(config.seed, f"tree-{i}")
        if config.bootstrap:
            rng = np.random.default_rng(derive_seed(tree_seed, "bootstrap"))
            root = rng.integers(0, n, n)
        else:
            root = np.arange(n)
        trees.append(_grow(x, ranks, y, root, config.max_depth,
                           config.min_leaf, config.features_per_split,
                           tree_seed))
    return ForestModel(flat_trees=trees, config=config)


def predict_forest_batch(model: ForestModel, x) -> np.ndarray:
    """The mean over the trees of the leaf values of each row of x (n, k)."""
    return np.array([float(np.mean([_walk(t, row) for t in model.flat_trees]))
                     for row in x.tolist()])
