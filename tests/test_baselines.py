import hashlib
import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agroyield import baselines, evaluation, models, pipeline, synthgen
from agroyield.baselines import (
    ForestConfig,
    predict_forest_batch,
    train_forest,
    train_logistic,
    train_svm,
)
from agroyield.errors import DivergedLoss, EmptyTrainingSet
from agroyield.rng import derive_seed
from agroyield.schema import Crop
from helpers import leaf_value


class TestLogistic:
    def test_zero_model_predicts_half(self):
        model = baselines.LogisticModel(weights=np.zeros(3), bias=0.0)
        assert model.predict_raw([[1.0, -5.0, 2.0]])[0] == pytest.approx(0.5)

    def test_zero_input_half_target_keeps_zero_bias(self):
        # bias 0 is the cross-entropy optimum when the target is 0.5
        model = train_logistic(np.zeros((1, 2)), np.array([0.5]),
                               learning_rate=0.5, epochs=200)
        assert abs(model.bias) < 1e-9
        assert np.allclose(model.weights, 0.0)

    def test_monotone_feature_gets_positive_weight(self):
        x = np.linspace(0, 1, 50).reshape(-1, 1)
        y = 0.2 + 0.6 * x[:, 0]
        model = train_logistic(x, y, learning_rate=0.5, epochs=300)
        assert model.weights[0] > 0

    def test_loss_non_increasing_small_lr(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(40, 3))
        y = np.clip(0.3 + 0.4 * x[:, 0] - 0.2 * x[:, 1], 0.0, 1.0)
        # full batch: the first k epochs of every run take the same steps
        losses = [baselines.logistic_loss(
            train_logistic(x, y, learning_rate=1e-3, epochs=k), x, y)
            for k in range(1, 101)]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train_logistic(np.empty((0, 3)), np.empty(0))


class TestSvm:
    def test_inside_tube_contributes_no_subgradient(self):
        # all targets within epsilon of the zero model: weights never move
        x = np.array([[1.0, 2.0], [0.5, -1.0]])
        y = np.array([0.03, -0.02])
        model = train_svm(x, y, epsilon=0.05, c=1.0, learning_rate=0.1,
                          epochs=50)
        assert np.allclose(model.weights, 0.0)
        assert model.bias == 0.0

    def test_linear_noise_free_data_fits(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(200, 4))
        w_true = np.array([0.3, -0.1, 0.2, 0.15])
        y = x @ w_true + 0.4
        model = train_svm(x, y, epsilon=0.001, c=10.0, learning_rate=0.05,
                          epochs=2000)
        preds = model.predict_raw(x)
        assert evaluation.mape(preds, y) < 2.0

    def test_c_zero_keeps_weights_at_zero(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(30, 3))
        y = rng.uniform(size=30)
        model = train_svm(x, y, epsilon=0.05, c=0.0, learning_rate=0.1,
                          epochs=100)
        assert np.allclose(model.weights, 0.0)

    def test_objective_non_increasing_small_lr(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(40, 3))
        y = 0.2 + 0.5 * x[:, 0]
        # full batch, and step t's size depends on t alone: the first k
        # epochs of every run take the same steps
        losses = [baselines.svm_objective(
            train_svm(x, y, epsilon=0.05, c=1.0, learning_rate=1e-3,
                      epochs=k), x, y)
            for k in range(1, 101)]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def _one_tree(x, y, seed=0, **growth):
    """One tree grown on all rows: a forest of one tree, no bootstrap."""
    return train_forest(x, y, ForestConfig(n_trees=1, bootstrap=False,
                                           seed=seed, **growth))


class TestBuildTree:
    def test_two_point_perfect_split(self):
        tree = _one_tree(np.array([[0.0], [1.0]]), np.array([1.0, 5.0]),
                         max_depth=10, min_leaf=1).flat_trees[0]
        assert tree.feature == [0, -1, -1]
        assert tree.value[0] == pytest.approx(0.5)
        assert tree.value[1] == pytest.approx(1.0)
        assert tree.value[tree.right[0]] == pytest.approx(5.0)

    def test_constant_targets_single_leaf(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        tree = _one_tree(x, np.full(10, 3.0), max_depth=10,
                         min_leaf=1).flat_trees[0]
        assert tree.feature == [-1]

    def test_fully_grown_tree_memorizes_training_set(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(20, 3))
        y = rng.uniform(size=20)
        forest = _one_tree(x, y, max_depth=64, min_leaf=1,
                           features_per_split=x.shape[1])
        assert predict_forest_batch(forest, x) == pytest.approx(y, abs=1e-12)

    def test_deterministic_structure(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(size=(50, 5))
        y = rng.uniform(size=50)
        a, b = (_one_tree(x, y, max_depth=6, min_leaf=2,
                          features_per_split=3, seed=9).flat_trees[0]
                for _ in range(2))
        assert _tree_repr(a) == _tree_repr(b)

    def test_every_split_strictly_reduces_variance(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(size=(80, 4))
        y = rng.uniform(size=80)
        tree = _one_tree(x, y, max_depth=8, min_leaf=2).flat_trees[0]

        def check(i, idx):
            f = tree.feature[i]
            if f < 0:
                assert tree.n_samples[i] >= 2
                return
            sel = x[idx, f] <= tree.value[i]
            left_idx, right_idx = idx[sel], idx[~sel]
            parent_var = np.var(y[idx]) * len(idx)
            child_var = (np.var(y[left_idx]) * len(left_idx)
                         + np.var(y[right_idx]) * len(right_idx))
            assert child_var < parent_var
            check(i + 1, left_idx)
            check(tree.right[i], right_idx)

        check(0, np.arange(80))

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(60, 3))
        y = rng.uniform(size=60)
        tree = _one_tree(x, y, max_depth=20, min_leaf=5).flat_trees[0]
        assert all(n >= 5 for f, n in zip(tree.feature, tree.n_samples)
                   if f < 0)

    def test_empty_sample(self):
        with pytest.raises(EmptyTrainingSet):
            _one_tree(np.empty((0, 2)), np.empty(0))

    @pytest.mark.parametrize("bound, message", [
        ({"min_leaf": 0}, "min_leaf must be >= 1"),
        ({"max_depth": -3}, "max_depth must be >= 0"),
        ({"features_per_split": 0}, "features_per_split must be >= 1"),
    ], ids=["min_leaf", "max_depth", "features_per_split"])
    def test_out_of_range_bound_rejected(self, bound, message):
        x = np.random.default_rng(0).uniform(size=(20, 3))
        with pytest.raises(ValueError, match=message):
            _one_tree(x, x[:, 0], **bound)


class TestForest:
    def small_data(self, n=60, seed=9):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(n, 4))
        y = 0.3 * x[:, 0] + 0.5 * x[:, 1] ** 2 + 0.1 * rng.uniform(size=n)
        return x, y

    def test_prediction_is_mean_over_trees(self):
        x, y = self.small_data()
        forest = train_forest(x, y, ForestConfig(n_trees=7, seed=4,
                                                 max_depth=5, min_leaf=2))
        probes = np.random.default_rng(10).uniform(size=(50, 4))
        got = predict_forest_batch(forest, probes)
        for probe, mean in zip(probes, got):
            explicit = sum(leaf_value(t, probe)
                           for t in forest.flat_trees) / 7
            assert mean == pytest.approx(explicit, abs=1e-12)

    def test_same_seed_identical_forest(self):
        x, y = self.small_data()
        cfg = ForestConfig(n_trees=5, seed=11, max_depth=5, min_leaf=2)
        a = train_forest(x, y, cfg)
        b = train_forest(x, y, cfg)
        probes = np.random.default_rng(12).uniform(size=(20, 4))
        assert (predict_forest_batch(a, probes)
                == predict_forest_batch(b, probes)).all()

    @pytest.mark.parametrize("bound, message", [
        ({"min_leaf": 0}, "min_leaf must be >= 1"),
        ({"max_depth": -3}, "max_depth must be >= 0"),
        ({"features_per_split": 0}, "features_per_split must be >= 1"),
        ({"n_trees": 0}, "n_trees must be >= 1"),
    ], ids=["min_leaf", "max_depth", "features_per_split", "n_trees"])
    def test_config_out_of_range_bound_rejected(self, bound, message):
        with pytest.raises(ValueError, match=message):
            ForestConfig(**bound)

    def test_forest_beats_single_tree_on_oracle_data(self):
        # noise-free synthetic data: bagging should not hurt generalization
        wins = 0
        for seed in range(5):
            cfg = synthgen.GenConfig(n_records=2000, seed=100 + seed,
                                     noise_sigma=0.0, crops=(Crop.Jute,))
            ds = synthgen.generate(cfg)
            cs = pipeline.prepare_crop_split(ds, Crop.Jute, 0.8, 100 + seed)
            x, y = cs.x_train, cs.y_train
            forest = train_forest(x, y, ForestConfig(n_trees=20, seed=seed))
            single = train_forest(x, y, ForestConfig(
                n_trees=1, bootstrap=False, max_depth=64, min_leaf=1,
                features_per_split=46, seed=seed))
            from agroyield.models import Model
            m_forest = Model("forest", forest, cs.normalizer, Crop.Jute)
            m_single = Model("forest", single, cs.normalizer, Crop.Jute)
            err_f = evaluation.evaluate(m_forest, cs.test).error_pct
            err_s = evaluation.evaluate(m_single, cs.test).error_pct
            if err_f <= err_s:
                wins += 1
        assert wins >= 4


# sha256 of the sorted-JSON model dict of the 30-tree forest below
FOREST_30_SHA256 = (
    "16417362802a01102231fc8a51cde5cde2b386dce349869cced3d69b31520e40")


def _tied_matrix(n=600, seed=2024):
    """46 features: 8 with 3 levels, 8 with 4 levels, one constant."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 46))
    x[:, 0:8] = rng.integers(0, 3, size=(n, 8)) / 2.0
    x[:, 8:16] = rng.integers(0, 4, size=(n, 8)) / 3.0
    x[:, 20] = 0.5
    y = (0.4 * x[:, 0] + 0.3 * x[:, 9] + 0.2 * x[:, 30] ** 2
         + 0.05 * rng.standard_normal(n))
    return x, y


def test_benchmark_size_forest_bytes_unchanged():
    # pins every split of a 30-tree forest, ties and constant column included
    x, y = _tied_matrix()
    forest = train_forest(x, y, ForestConfig(n_trees=30, seed=1))
    blob = json.dumps(models._forest_to_dict(forest), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == FOREST_30_SHA256


# sha256 of the preorder node tuples of the same forest, walked node by node,
# so it does not depend on how trees are stored or serialized
FOREST_30_NODES_SHA256 = (
    "d4df1c2aab00e385a2d57ecc6a9e8cd445e82dfd736bd8798ddc346ef5b2b720")


def _preorder(tree):
    """(feature, threshold, value, n_samples) of each node, in preorder,
    walked from the root along the left (i + 1) and right children."""
    stack = [0]
    while stack:
        i = stack.pop()
        n = tree.n_samples[i]
        if tree.feature[i] < 0:
            yield (None, None, tree.value[i], n)
        else:
            yield (tree.feature[i], tree.value[i], None, n)
            stack += [tree.right[i], i + 1]


def test_benchmark_size_forest_nodes_unchanged():
    x, y = _tied_matrix()
    forest = train_forest(x, y, ForestConfig(n_trees=30, seed=1))
    blob = json.dumps([list(_preorder(t)) for t in forest.flat_trees])
    assert hashlib.sha256(blob.encode()).hexdigest() == FOREST_30_NODES_SHA256


def _perfbench_tracing():
    """The benchmark's tracer module, imported from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_node_count_is_every_flat_tree_node():
    # the benchmark counts nodes through ForestModel.trees, and its tracer
    # turns a failing count into a note, so only this test sees a break
    (counts,) = [c for m, f, c in _perfbench_tracing().TRACED
                 if (m, f) == ("baselines", "train_forest")]
    x, y = _tied_matrix()
    forest = train_forest(x, y, ForestConfig(n_trees=5, seed=1))
    nodes = sum(len(t.feature) for t in forest.flat_trees)
    assert counts((x, y), {}, forest) == {"nodes": nodes}


def _reference_best_split(x, y, feature_indices, min_leaf):
    """The per-feature loop that the one-pass split search replaced."""
    n = len(y)
    total_sum = y.sum()
    total_sq = (y * y).sum()
    parent_sse = total_sq - total_sum * total_sum / n
    best = None  # (sse, feature, threshold)
    for f in feature_indices:
        xf = x[:, f]
        order = np.argsort(xf, kind="stable")
        xs, ys = xf[order], y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        boundary = xs[:-1] < xs[1:]
        counts = np.arange(1, n)
        valid = boundary & (counts >= min_leaf) & (n - counts >= min_leaf)
        if not valid.any():
            continue
        left_sse = csq[:-1] - csum[:-1] ** 2 / counts
        right_sum = total_sum - csum[:-1]
        right_sq = total_sq - csq[:-1]
        right_sse = right_sq - right_sum ** 2 / (n - counts)
        sse = np.where(valid, left_sse + right_sse, np.inf)
        k = int(np.argmin(sse))
        if sse[k] < parent_sse - 1e-12:
            threshold = 0.5 * (xs[k] + xs[k + 1])
            if threshold >= xs[k + 1]:  # adjacent floats
                threshold = xs[k]
            cand = (float(sse[k]), f, float(threshold))
            if best is None or cand[0] < best[0] - 1e-12:
                best = cand
    return best


@st.composite
def _split_problems(draw):
    n = draw(st.integers(2, 60))
    n_features = 46
    levels = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # few levels per column gives heavy ties; some columns are constant
    x = rng.integers(0, levels, size=(n, n_features)) / 4.0
    if draw(st.booleans()):
        x[:, ::2] = rng.uniform(size=(n, (n_features + 1) // 2))
    constant = rng.uniform(size=n_features) < 0.2
    x[:, constant] = 0.25
    if draw(st.booleans()):
        y = rng.integers(0, 3, size=n).astype(float)
    else:
        y = rng.uniform(size=n)
    k = draw(st.integers(1, n_features))
    features = np.sort(rng.choice(n_features, size=k, replace=False))
    min_leaf = draw(st.integers(1, n))
    return x, y, features, min_leaf


@settings(max_examples=300, deadline=None)
@given(_split_problems())
def test_best_split_matches_per_feature_loop(problem):
    x, y, features, min_leaf = problem
    block = baselines._ranks(x)[:, features]
    got = baselines._split(block, y, np.add.reduce(y), min_leaf)
    want = _reference_best_split(x, y, features, min_leaf)
    if want is None:
        assert got is None
    else:
        assert got is not None
        sse, j, a, b = got
        f = int(features[j])
        assert (sse, f, baselines._threshold(x[a, f], x[b, f])) == (
            want[0], int(want[1]), want[2])


def _reference_grower(x, y, max_depth, min_leaf, features_per_split, seed):
    """The preorder grower on float sorts that the rank grower replaced."""
    n_features = x.shape[1]
    features_per_split = min(features_per_split, n_features)
    rng = np.random.default_rng(seed)
    tree = baselines.FlatTree(feature=[], value=[], right=[], n_samples=[])
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
        found = _reference_best_split(xn, yn, chosen, min_leaf)
        if found is None:
            continue
        _, feature, threshold = found
        mask = xn[:, feature] <= threshold
        tree.feature[i] = int(feature)
        tree.value[i] = threshold
        stack.append((idx[~mask], depth + 1, i))
        stack.append((idx[mask], depth + 1, -1))
    return tree


def _tree_repr(tree):
    # repr, not ==, so that a -0.0 threshold differs from 0.0
    return repr((tree.feature, tree.value, tree.right, tree.n_samples))


def _children_hold_min_leaf(tree, min_leaf):
    return all(tree.n_samples[i + 1] >= min_leaf
               and tree.n_samples[tree.right[i]] >= min_leaf
               for i, f in enumerate(tree.feature) if f >= 0)


def _ulp_ladder(rng, n):
    """Values from three consecutive floats: one of the two midpoints rounds
    onto its lower endpoint and the other onto its upper one."""
    a = np.float64(rng.choice([1.0, 1.0 + 2.0 ** -52, 0.1, -1.0, 3.0]))
    b = np.nextafter(a, np.inf)
    return np.array([a, b, np.nextafter(b, np.inf)])[rng.integers(0, 3, n)]


@st.composite
def _tree_problems(draw):
    """Tie-heavy matrices: 1-4 levels, constant columns, -0.0/0.0 mixes,
    ulp ladders and duplicated rows; n crosses 256, where ranks go from
    uint8 to uint16."""
    n = draw(st.integers(1, 300) | st.sampled_from([255, 256, 257, 300]))
    n_features = 46
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(size=(n, n_features))
    kinds = rng.integers(0, 5, size=n_features)
    for c in np.flatnonzero(kinds == 1):  # 1-4 levels; 1 is constant
        x[:, c] = rng.integers(0, rng.integers(1, 5), size=n) / 4.0
    for c in np.flatnonzero(kinds == 2):
        x[:, c] = rng.choice([-0.0, 0.0, 0.5], size=n)
    for c in np.flatnonzero(kinds == 3):
        x[:, c] = _ulp_ladder(rng, n)
    if draw(st.booleans()):  # duplicated rows
        dup = rng.integers(0, n, size=n // 3)
        x[dup] = x[rng.integers(0, n, size=len(dup))]
    target = draw(st.sampled_from(["uniform", "levels", "column"]))
    if target == "uniform":
        y = rng.uniform(size=n)
    elif target == "levels":
        y = rng.integers(0, 3, size=n).astype(float)
    else:  # a step in one column's order, so its split is taken
        c = int(rng.integers(0, n_features))
        y = (np.unique(x[:, c], return_inverse=True)[1].reshape(n)
             + 0.01 * rng.uniform(size=n))
    min_leaf = draw(st.integers(1, 5) | st.integers(1, n))
    max_depth = draw(st.integers(0, 12) | st.just(12))
    features_per_split = draw(st.integers(1, n_features))
    return x, y, min_leaf, max_depth, features_per_split


@settings(max_examples=150, deadline=None)
@given(_tree_problems(), st.integers(0, 2**32 - 1))
def test_tree_equals_reference_grower(problem, seed):
    x, y, min_leaf, max_depth, features_per_split = problem
    got = _one_tree(x, y, seed=seed, max_depth=max_depth, min_leaf=min_leaf,
                    features_per_split=features_per_split).flat_trees[0]
    want = _reference_grower(x, y, max_depth, min_leaf, features_per_split,
                             derive_seed(seed, "tree-0"))
    assert _tree_repr(got) == _tree_repr(want)
    assert _children_hold_min_leaf(got, min_leaf)


@settings(max_examples=40, deadline=None)
@given(_tree_problems(), st.integers(0, 2**32 - 1), st.booleans(),
       st.integers(1, 3))
def test_forest_equals_reference_grower(problem, seed, bootstrap, n_trees):
    x, y, min_leaf, max_depth, features_per_split = problem
    cfg = ForestConfig(n_trees=n_trees, max_depth=max_depth,
                       min_leaf=min_leaf,
                       features_per_split=features_per_split,
                       bootstrap=bootstrap, seed=seed)
    forest = train_forest(x, y, cfg)
    for i, got in enumerate(forest.flat_trees):
        tree_seed = derive_seed(seed, f"tree-{i}")
        idx = np.arange(len(y))
        if bootstrap:
            rng = np.random.default_rng(derive_seed(tree_seed, "bootstrap"))
            idx = rng.integers(0, len(y), len(y))
        want = _reference_grower(x[idx], y[idx], max_depth, min_leaf,
                                 features_per_split, tree_seed)
        assert _tree_repr(got) == _tree_repr(want)


@pytest.mark.parametrize("train, lr", [(baselines.train_svm, 1e300),
                                       (baselines.train_logistic, 1e308)],
                         ids=["svm", "logistic"])
def test_divergence_raises_without_warnings(train, lr):
    rng = np.random.default_rng(0)
    x, y = rng.uniform(size=(50, 46)), rng.uniform(size=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy RuntimeWarning fails
        with pytest.raises(DivergedLoss):
            train(x, y, learning_rate=lr, epochs=50)
