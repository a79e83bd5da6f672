"""Comparison models built from first principles.

- Logistic regression: sigmoid-link regression on the min-max scaled
  target, trained by full-batch gradient descent on cross-entropy.
- Linear SVM: epsilon-insensitive support vector regression trained by
  subgradient descent on 1/2 ||w||^2 / n + C * mean(hinge residuals).
- Random forest: bagged CART regression trees, variance-reduction splits
  over a seeded random feature subset per node. Each tree is a FlatTree:
  parallel preorder lists, the layout of scikit-learn's `Tree`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergedLoss, EmptySample, EmptyTrainingSet
from .rng import derive_seed


def _check_nonempty(x):
    if len(x) == 0:
        raise EmptyTrainingSet("no training examples")


def _check_finite(w, b, name, epoch):
    if not (np.isfinite(w).all() and math.isfinite(b)):
        raise DivergedLoss(f"{name} weights stopped being finite in epoch "
                           f"{epoch}")


def sigmoid(z):
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


# ---------------------------------------------------------------- logistic

@dataclass
class LogisticModel:
    weights: np.ndarray  # (n_features,)
    bias: float

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return sigmoid(x @ self.weights + self.bias)


def logistic_loss(model: LogisticModel, x, y) -> float:
    p = np.clip(model.predict_raw(x), 1e-12, 1.0 - 1e-12)
    y = np.asarray(y, dtype=float)
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))


def train_logistic(x, y, learning_rate=0.5, epochs=500,
                   loss_callback=None) -> LogisticModel:
    """Full-batch gradient descent on cross-entropy vs soft targets in [0,1]."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    _check_nonempty(x)
    w = np.zeros(x.shape[1])
    b = 0.0
    n = x.shape[0]
    with np.errstate(all="ignore"):  # _check_finite reports divergence
        for epoch in range(epochs):
            residual = sigmoid(x @ w + b) - y
            w = w - learning_rate * (x.T @ residual) / n
            b = b - learning_rate * float(residual.mean())
            _check_finite(w, b, "logistic", epoch)
            if loss_callback is not None:
                loss_callback(logistic_loss(LogisticModel(w, b), x, y))
    return LogisticModel(weights=w, bias=b)


# --------------------------------------------------------------------- svm

@dataclass
class SvmModel:
    weights: np.ndarray
    bias: float
    epsilon: float = 0.05
    c: float = 1.0

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return x @ self.weights + self.bias


def svm_objective(model: SvmModel, x, y) -> float:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    residual = np.abs(model.predict_raw(x) - np.asarray(y, dtype=float))
    hinge = np.maximum(0.0, residual - model.epsilon)
    n = x.shape[0]
    return float(0.5 * np.dot(model.weights, model.weights) / n
                 + model.c * hinge.mean())


def train_svm(x, y, epsilon=0.05, c=1.0, learning_rate=0.1, epochs=500,
              loss_callback=None) -> SvmModel:
    """Subgradient descent on the epsilon-insensitive linear SVR objective.

    The step size decays as learning_rate / sqrt(t + 1) so the iterates
    settle instead of oscillating inside the hinge's kink region.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    _check_nonempty(x)
    n = x.shape[0]
    w = np.zeros(x.shape[1])
    b = 0.0
    with np.errstate(all="ignore"):  # _check_finite reports divergence
        for t in range(epochs):
            step = learning_rate / np.sqrt(t + 1.0)
            residual = x @ w + b - y
            # inside the tube: zero subgradient
            active = np.abs(residual) > epsilon
            sign = np.sign(residual) * active
            grad_w = w / n + c * (x.T @ sign) / n
            grad_b = c * float(sign.mean())
            w = w - step * grad_w
            b = b - step * grad_b
            _check_finite(w, b, "svm", t)
            if loss_callback is not None:
                loss_callback(svm_objective(SvmModel(w, b, epsilon, c), x, y))
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
    """Read-only view of node `index` of a FlatTree, for walking it node by
    node. Prediction and loading read the lists and create no views."""

    __slots__ = ("tree", "index")

    def __init__(self, tree: FlatTree, index: int = 0):
        self.tree = tree
        self.index = index

    @property
    def is_leaf(self):
        return self.tree.feature[self.index] < 0

    @property
    def feature(self):
        return None if self.is_leaf else self.tree.feature[self.index]

    @property
    def threshold(self):
        return None if self.is_leaf else self.tree.value[self.index]

    @property
    def value(self):
        return self.tree.value[self.index] if self.is_leaf else None

    @property
    def n_samples(self):
        return self.tree.n_samples[self.index]

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


def _best_split(x, y, feature_indices, min_leaf):
    """Best (feature, threshold) by variance reduction.

    Candidates are midpoints between consecutive sorted unique values.
    All features are searched at once: each column of the (n, k) block
    is sorted and prefix-summed on its own, exactly as a loop over the
    columns would. Ties break toward the lowest feature index, then
    lowest threshold: argmin takes the first minimum within a column, and
    features are compared in the given (ascending) order with strict
    improvement.
    """
    n = len(y)
    # split after sorted position i puts i+1 samples left; only these
    # positions leave min_leaf samples on both sides
    lo, hi = min_leaf - 1, n - min_leaf
    if lo >= hi:
        return None
    total_sum = y.sum()
    total_sq = (y * y).sum()
    parent_sse = total_sq - total_sum * total_sum / n
    block = x[:, feature_indices]
    order = np.argsort(block, axis=0, kind="stable")
    cols = np.arange(block.shape[1])
    xs = block[order, cols]
    ys = y[order]
    csum = np.cumsum(ys[:hi], axis=0)[lo:]
    csq = np.cumsum(ys[:hi] * ys[:hi], axis=0)[lo:]
    counts = np.arange(lo + 1, hi + 1)[:, None]
    boundary = xs[lo:hi] < xs[lo + 1:hi + 1]
    left_sse = csq - csum ** 2 / counts
    right_sse = (total_sq - csq) - (total_sum - csum) ** 2 / (n - counts)
    sse = np.where(boundary, left_sse + right_sse, np.inf)
    rows = np.argmin(sse, axis=0)
    best_sse = sse[rows, cols]
    best = None  # (sse, feature, threshold)
    for j in np.flatnonzero(best_sse < parent_sse - 1e-12):
        cand_sse = float(best_sse[j])
        if best is None or cand_sse < best[0] - 1e-12:
            i = lo + rows[j]
            threshold = 0.5 * (xs[i, j] + xs[i + 1, j])
            best = (cand_sse, feature_indices[j], float(threshold))
    return best


def build_tree(x, y, max_depth=12, min_leaf=5, features_per_split=None,
               seed=0) -> TreeNode:
    """Grow a CART regression tree; leaves predict the mean target.

    Nodes are appended to the FlatTree in preorder as they are grown, so
    the random feature subsets are drawn in the same order as by a
    recursive grower; the root's view is returned.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        raise EmptySample("cannot build a tree from an empty sample")
    n_features = x.shape[1]
    if features_per_split is None:
        features_per_split = n_features
    features_per_split = min(features_per_split, n_features)
    rng = np.random.default_rng(seed)
    tree = FlatTree(feature=[], value=[], right=[], n_samples=[])
    # (sample indices, depth, index of the node whose right child this is);
    # the left child is pushed last, so nodes are grown in preorder
    stack = [(np.arange(len(y)), 0, -1)]
    while stack:
        idx, depth, parent = stack.pop()
        i = len(tree.feature)
        if parent >= 0:
            tree.right[parent] = i
        yn = y[idx]
        tree.feature.append(-1)
        tree.value.append(float(np.add.reduce(yn) / len(idx)))
        tree.right.append(-1)
        tree.n_samples.append(len(idx))
        if depth >= max_depth or len(idx) < 2 * min_leaf or np.all(yn == yn[0]):
            continue
        chosen = rng.choice(n_features, size=features_per_split, replace=False)
        chosen.sort()
        xn = x[idx]
        found = _best_split(xn, yn, chosen, min_leaf)
        if found is None:
            continue
        _, feature, threshold = found
        mask = xn[:, feature] <= threshold
        tree.feature[i] = int(feature)
        tree.value[i] = threshold
        stack.append((idx[~mask], depth + 1, i))
        stack.append((idx[mask], depth + 1, -1))
    return TreeNode(tree)


def _walk(tree: FlatTree, row, i=0) -> float:
    """The leaf value reached from node i; `row` is indexable by feature."""
    feature, value, right = tree.feature, tree.value, tree.right
    f = feature[i]
    while f >= 0:
        i = i + 1 if row[f] <= value[i] else right[i]
        f = feature[i]
    return value[i]


def predict_tree(node: TreeNode, x) -> float:
    return _walk(node.tree, np.asarray(x, dtype=float).tolist(), node.index)


def train_forest(x, y, config: ForestConfig = ForestConfig()) -> ForestModel:
    """Bag trees on seeded bootstrap resamples; prediction is the tree mean."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    _check_nonempty(x)
    n = len(y)
    trees = []
    for i in range(config.n_trees):
        tree_seed = derive_seed(config.seed, f"tree-{i}")
        if config.bootstrap:
            rng = np.random.default_rng(derive_seed(tree_seed, "bootstrap"))
            idx = rng.integers(0, n, n)
            xs, ys = x[idx], y[idx]
        else:
            xs, ys = x, y
        trees.append(build_tree(
            xs, ys,
            max_depth=config.max_depth,
            min_leaf=config.min_leaf,
            features_per_split=config.features_per_split,
            seed=tree_seed,
        ).tree)
    return ForestModel(flat_trees=trees, config=config)


def _forest_mean(model: ForestModel, row: list) -> float:
    return float(np.mean([_walk(t, row) for t in model.flat_trees]))


def predict_forest(model: ForestModel, x) -> float:
    return _forest_mean(model, np.asarray(x, dtype=float).tolist())


def predict_forest_batch(model: ForestModel, x) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(x, dtype=float)).tolist()
    return np.array([_forest_mean(model, row) for row in rows])
