import json

import numpy as np
import pytest

from spoofkit import gbdt
from spoofkit.errors import DegenerateLabels, InputError


def blobs(n_per_class=100, seed=0, d=2, sep=2.0):
    rng = np.random.default_rng(seed)
    X = np.r_[rng.normal(-sep, 1, (n_per_class, d)),
              rng.normal(sep, 1, (n_per_class, d))]
    y = np.r_[np.zeros(n_per_class), np.ones(n_per_class)].astype(int)
    return X, y


def xor_dataset():
    """XOR on {0,1}^2 with one extra sample to break the exact symmetry."""
    cells = [((0, 0), 0, 51), ((0, 1), 1, 50), ((1, 0), 1, 50), ((1, 1), 0, 50)]
    X = np.concatenate([np.tile(c, (n, 1)) for c, _, n in cells]).astype(float)
    y = np.concatenate([np.full(n, lab) for _, lab, n in cells])
    return X, y


def walk_tree(tree, x):
    """Independent recursive traversal oracle."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return tree.value[node]


class TestInitLogOdds:
    def test_balanced(self):
        assert gbdt.init_log_odds([1] * 50 + [0] * 50) == 0.0

    def test_75_25(self):
        assert gbdt.init_log_odds([1] * 75 + [0] * 25) == pytest.approx(np.log(3))

    def test_rare_positive(self):
        assert gbdt.init_log_odds([1] + [0] * 999) == pytest.approx(np.log(1 / 999))

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            gbdt.init_log_odds([1, 1, 1])


class TestPseudoResiduals:
    def test_positive_at_half(self):
        assert gbdt.pseudo_residuals([1], [0.5])[0] == 0.5

    def test_negative_at_half(self):
        assert gbdt.pseudo_residuals([0], [0.5])[0] == -0.5

    def test_fitted_example_vanishes(self):
        assert abs(gbdt.pseudo_residuals([1], [1 - 1e-9])[0]) < 1e-8


class TestFitTree:
    def test_stump_newton_values(self):
        X = np.array([[-1.0], [-2.0], [1.0], [2.0]])
        r = np.array([-0.5, -0.5, 0.5, 0.5])
        p = np.array([0.5, 0.5, 0.5, 0.5])
        cfg = gbdt.GbdtConfig(n_estimators=1, max_depth=1)
        tree = gbdt.fit_tree(X, r, p, cfg)
        assert tree.feature[0] == 0
        # hand Newton step: sum(r)/sum(p(1-p)) = -1.0 / 0.5 = -2 left, +2 right
        assert walk_tree(tree, [-1.5]) == pytest.approx(-2.0)
        assert walk_tree(tree, [1.5]) == pytest.approx(2.0)

    def test_equal_residuals_single_leaf(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        r = np.full(10, 0.3)
        p = np.full(10, 0.7)
        tree = gbdt.fit_tree(X, r, p, gbdt.GbdtConfig(n_estimators=1, max_depth=3))
        assert len(tree.feature) == 1 and tree.feature[0] == -1
        # c / (p(1-p)) per sample summed: 10*0.3 / (10*0.21)
        assert tree.value[0] == pytest.approx(0.3 / 0.21)

    def test_leaf_clamped(self):
        X = np.arange(4, dtype=float).reshape(-1, 1)
        r = np.full(4, 0.999)
        p = np.full(4, 0.999)  # tiny hessian -> huge raw step
        tree = gbdt.fit_tree(X, r, p, gbdt.GbdtConfig(n_estimators=1, max_depth=2))
        assert tree.value[0] == 4.0

    def test_min_samples_leaf_rejects_split(self):
        X = np.array([[0.0], [1.0], [2.0]])
        r = np.array([-1.0, 0.0, 1.0])
        p = np.full(3, 0.5)
        cfg = gbdt.GbdtConfig(n_estimators=1, max_depth=3, min_samples_leaf=2)
        tree = gbdt.fit_tree(X, r, p, cfg)
        # only 3 samples: no split can give both children >= 2
        assert tree.feature[0] == -1


class TestTrain:
    def test_separable_blobs_high_accuracy(self):
        X, y = blobs(100)
        model = gbdt.train(X, y, gbdt.GbdtConfig(100, 3, 0.1))
        assert (gbdt.predict(model, X) == y).mean() >= 0.99

    def test_xor_expressivity(self):
        # discrete XOR: the additive (stump) family is convex in its cell
        # scores and caps out near chance; depth 2 can express the pattern
        X, y = xor_dataset()
        stumps = gbdt.train(X, y, gbdt.GbdtConfig(100, 1, 0.1))
        deep = gbdt.train(X, y, gbdt.GbdtConfig(100, 2, 0.1))
        assert (gbdt.predict(stumps, X) == y).mean() <= 0.6
        assert (gbdt.predict(deep, X) == y).mean() >= 0.95

    def test_zero_estimators_disallowed(self):
        with pytest.raises(InputError):
            gbdt.GbdtConfig(n_estimators=0)

    def test_single_round_is_f0_plus_scaled_tree(self):
        X, y = blobs(20)
        model = gbdt.train(X, y, gbdt.GbdtConfig(1, 2, 0.3))
        expected = gbdt.sigmoid(model.f0 + 0.3 * model.trees[0].predict(X))
        assert np.array_equal(gbdt.predict_proba(model, X), expected)

    def test_monotone_training_loss(self):
        X, y = blobs(60, seed=9)
        model = gbdt.train(X, y, gbdt.GbdtConfig(100, 3, 0.1))
        scores = np.full(y.size, model.f0)
        prev = gbdt.logistic_loss(y, gbdt.sigmoid(scores))
        for tree in model.trees:
            scores = scores + model.learning_rate * tree.predict(X)
            cur = gbdt.logistic_loss(y, gbdt.sigmoid(scores))
            assert cur <= prev + 1e-12
            prev = cur

    def test_nan_features_rejected(self):
        X, y = blobs(10)
        X[0, 0] = np.nan
        with pytest.raises(InputError):
            gbdt.train(X, y, gbdt.GbdtConfig(2, 2))

    def test_determinism_identical_serialization(self):
        X, y = blobs(50, seed=3)
        cfg = gbdt.GbdtConfig(20, 3, 0.1)
        a = gbdt.to_json(gbdt.train(X, y, cfg))
        b = gbdt.to_json(gbdt.train(X.copy(), y.copy(), cfg))
        assert a == b

    def test_balanced_symmetric_data_f0_zero(self):
        rng = np.random.default_rng(8)
        Xp = rng.normal(1, 1, (40, 3))
        X = np.r_[Xp, -Xp]
        y = np.r_[np.ones(40), np.zeros(40)].astype(int)
        model = gbdt.train(X, y, gbdt.GbdtConfig(5, 2))
        assert model.f0 == 0.0


class TestPredict:
    def test_sigmoid_of_zero(self):
        assert gbdt.sigmoid(0.0) == 0.5

    def test_sigmoid_of_ln3(self):
        assert gbdt.sigmoid(np.log(3)) == pytest.approx(0.75)

    def test_matches_independent_tree_walk(self):
        X, y = blobs(40, seed=5, d=4)
        model = gbdt.train(X, y, gbdt.GbdtConfig(15, 3, 0.1))
        probs = gbdt.predict_proba(model, X)
        for i, x in enumerate(X):
            # Eq-style recursion: score_m = score_{m-1} + lr * h_m(x)
            score = model.f0
            for t in model.trees:
                score = score + model.learning_rate * walk_tree(t, x)
            assert probs[i] == gbdt.sigmoid(score)

    def test_dimension_mismatch(self):
        X, y = blobs(10)
        model = gbdt.train(X, y, gbdt.GbdtConfig(2, 2))
        with pytest.raises(InputError):
            gbdt.predict_proba(model, np.ones((3, 5)))

    def test_zero_value_tree_leaves_predictions_unchanged(self):
        X, y = blobs(20)
        model = gbdt.train(X, y, gbdt.GbdtConfig(3, 2))
        before = gbdt.predict_proba(model, X)
        null_tree = gbdt.RegressionTree()
        null_tree.add_leaf(0.0)
        model.trees.append(null_tree)
        assert np.array_equal(gbdt.predict_proba(model, X), before)


class TestSerialization:
    def test_roundtrip(self):
        X, y = blobs(30, seed=6)
        model = gbdt.train(X, y, gbdt.GbdtConfig(10, 3))
        back = gbdt.from_json(gbdt.to_json(model))
        assert np.array_equal(gbdt.predict_proba(back, X),
                              gbdt.predict_proba(model, X))
        assert back.feature_names == model.feature_names

    def test_wrong_kind_rejected(self):
        with pytest.raises(InputError):
            gbdt.from_json('{"kind": "other"}')

    def test_missing_trees_rejected(self):
        X, y = blobs(10, seed=6)
        doc = json.loads(gbdt.to_json(gbdt.train(X, y, gbdt.GbdtConfig(2, 2))))
        del doc["trees"]
        with pytest.raises(InputError, match="trees"):
            gbdt.from_json(json.dumps(doc))

    def test_format_version_checked(self):
        X, y = blobs(10, seed=6)
        doc = json.loads(gbdt.to_json(gbdt.train(X, y, gbdt.GbdtConfig(2, 2))))
        doc["format_version"] = gbdt.MODEL_FORMAT_VERSION + 1
        with pytest.raises(InputError, match="format_version"):
            gbdt.from_json(json.dumps(doc))

    def test_not_json_rejected(self):
        with pytest.raises(InputError, match="not valid JSON"):
            gbdt.from_json("trees: []")
