import json
import warnings

import numpy as np
import pytest

from oracles import logistic_loss
from spoofkit import gbdt
from spoofkit.errors import InputError


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


def leaf_of(tree, x):
    """Independent traversal oracle: the index of the leaf `x` reaches."""
    node = 0
    while tree.feature[node] >= 0:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return node


def walk_tree(tree, x):
    return tree.value[leaf_of(tree, x)]


def tree_values(tree, X):
    """`walk_tree` on each row of X."""
    return np.array([walk_tree(tree, x) for x in X])


def naive_best_split(X, residuals):
    """Per-node split search oracle: argsort every feature at the node."""
    n, d = X.shape
    total_sum = residuals.sum()
    total_sq = (residuals ** 2).sum()
    base = total_sq - total_sum ** 2 / n
    best = None
    best_gain = 0.0
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        rs = residuals[order]
        csum = np.cumsum(rs)
        # candidate split after position i: left = [0..i], right = [i+1..]
        n_left = np.arange(1, n)
        valid = xs[:-1] < xs[1:]
        if not valid.any():
            continue
        left_sum = csum[:-1]
        right_sum = total_sum - left_sum
        gain = left_sum ** 2 / n_left + right_sum ** 2 / (n - n_left) \
            - total_sum ** 2 / n
        gain = np.where(valid, gain, -np.inf)
        i = int(np.argmax(gain))
        if gain[i] > best_gain + 1e-12 * max(1.0, base):
            best_gain = float(gain[i])
            lo, hi = float(xs[i]), float(xs[i + 1])
            mid = (lo + hi) / 2.0
            best = (j, mid if mid < hi else lo)
    return best


def naive_fit_tree(X, residuals, probs, config):
    """Recursive tree fit over `naive_best_split`, nodes in pre-order."""
    tree = gbdt.RegressionTree()

    def build(idx, depth):
        r = residuals[idx]
        if depth >= config.max_depth or idx.size < 2 or np.ptp(r) == 0:
            return tree.add_leaf(gbdt._newton_leaf(r, probs[idx]))
        split = naive_best_split(X[idx], r)
        if split is None:
            return tree.add_leaf(gbdt._newton_leaf(r, probs[idx]))
        j, thr = split
        node = tree.add_split(j, thr)
        go_left = X[idx, j] <= thr
        tree.left[node] = build(idx[go_left], depth + 1)
        tree.right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return tree


def fit_tree(X, residuals, probs, config):
    """The tree `gbdt.fit_tree` grows on a fresh presort of X."""
    return gbdt.fit_tree(X, residuals, probs, config, gbdt._presort(X))[0]


def node_lists(tree):
    return tree.feature, tree.threshold, tree.left, tree.right, tree.value


def node_depths(tree):
    """Depth of each node; nodes are numbered in pre-order, so a parent
    comes before its children."""
    depth = [0] * len(tree.feature)
    for node, feature in enumerate(tree.feature):
        if feature >= 0:
            depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return depth


class TestInitLogOdds:
    def test_balanced(self):
        assert gbdt.init_log_odds([1] * 50 + [0] * 50) == 0.0

    def test_75_25(self):
        assert gbdt.init_log_odds([1] * 75 + [0] * 25) == pytest.approx(np.log(3))

    def test_rare_positive(self):
        assert gbdt.init_log_odds([1] + [0] * 999) == pytest.approx(np.log(1 / 999))

    def test_single_class_rejected(self):
        with pytest.raises(InputError, match="both classes must be present"):
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
        tree = fit_tree(X, r, p, cfg)
        assert tree.feature[0] == 0
        # hand Newton step: sum(r)/sum(p(1-p)) = -1.0 / 0.5 = -2 left, +2 right
        assert walk_tree(tree, [-1.5]) == pytest.approx(-2.0)
        assert walk_tree(tree, [1.5]) == pytest.approx(2.0)

    def test_equal_residuals_single_leaf(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        r = np.full(10, 0.3)
        p = np.full(10, 0.7)
        tree = fit_tree(X, r, p, gbdt.GbdtConfig(n_estimators=1, max_depth=3))
        assert len(tree.feature) == 1 and tree.feature[0] == -1
        # c / (p(1-p)) per sample summed: 10*0.3 / (10*0.21)
        assert tree.value[0] == pytest.approx(0.3 / 0.21)

    def test_leaf_clamped(self):
        X = np.arange(4, dtype=float).reshape(-1, 1)
        r = np.full(4, 0.999)
        p = np.full(4, 0.999)  # tiny hessian -> huge raw step
        tree = fit_tree(X, r, p, gbdt.GbdtConfig(n_estimators=1, max_depth=2))
        assert tree.value[0] == 4.0


class TestPresortedSplitSearch:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_node_argsort(self, seed):
        # few distinct values, so ties are heavy, plus a constant column
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 301))
        d = int(rng.integers(1, 6))
        X = np.column_stack([rng.integers(0, 4, (n, d)).astype(float), np.full(n, 2.0)])
        y = rng.integers(0, 2, n)
        p = rng.uniform(0.05, 0.95, n)
        r = y - p
        for depth in range(1, 7):
            cfg = gbdt.GbdtConfig(1, depth, 0.1)
            assert node_lists(fit_tree(X, r, p, cfg)) \
                == node_lists(naive_fit_tree(X, r, p, cfg))

    @pytest.mark.parametrize("column,r,splits", [
        # the midpoint of the second split rounds up to the upper value, or
        # the midpoint overflows to inf: the threshold falls back to the
        # lower value, so both children get rows
        ([1.0, 1 + 2 ** -52, 1 + 2 ** -51], [-0.5, 0.5, 0.4], 2),
        ([1e308, 1.7e308, 1.7e308], [-0.5, 0.5, 0.4], 1),
        # every split leaves both means equal: no gain, so a single leaf
        ([0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 1.0, 0.0], 0),
    ], ids=["midpoint_rounds_up", "midpoint_inf", "zero_gain"])
    def test_edge_cases(self, column, r, splits):
        X = np.array(column)[:, None]
        r = np.array(r)
        p = np.full(r.size, 0.5)
        cfg = gbdt.GbdtConfig(1, 3)
        tree = fit_tree(X, r, p, cfg)
        assert node_lists(tree) == node_lists(naive_fit_tree(X, r, p, cfg))
        assert sum(f >= 0 for f in tree.feature) == splits
        # every leaf holds at least one training row
        assert len({leaf_of(tree, x) for x in X}) == splits + 1

    def test_features_in_several_blocks(self, monkeypatch):
        # a block smaller than one node's rows: every feature is its own block
        monkeypatch.setattr(gbdt, "SPLIT_BLOCK", 16)
        rng = np.random.default_rng(99)
        X = rng.integers(0, 6, (200, 5)).astype(float)
        r = rng.integers(0, 2, 200) - rng.uniform(0.1, 0.9, 200)
        p = np.full(200, 0.3)
        for depth in (2, 6):
            cfg = gbdt.GbdtConfig(1, depth)
            assert node_lists(fit_tree(X, r, p, cfg)) \
                == node_lists(naive_fit_tree(X, r, p, cfg))

    def test_trained_ensemble_matches_per_node_argsort(self):
        X, y = blobs(60, seed=4, d=3)
        X = np.round(X)  # ties
        cfg = gbdt.GbdtConfig(10, 4, 0.3)
        model = gbdt.train(X, y, cfg)
        scores = np.full(y.size, model.f0)
        for tree in model.trees:
            p = gbdt.sigmoid(scores)
            naive = naive_fit_tree(X, gbdt.pseudo_residuals(y, p), p, cfg)
            assert node_lists(tree) == node_lists(naive)
            scores = scores + cfg.learning_rate * tree_values(tree, X)

    def test_unsplittable_leaves_match_per_node_argsort(self):
        # four distinct rows, each repeated with both labels: a node that
        # holds copies of one row has unequal residuals but no split, so it
        # is a leaf above max_depth, and train must add its value to the
        # scores of its rows like that of any other leaf
        X = np.repeat([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], 15, axis=0)
        y = np.random.default_rng(11).integers(0, 2, len(X))
        cfg = gbdt.GbdtConfig(6, 5, 0.3)
        model = gbdt.train(X, y, cfg)
        scores = np.full(y.size, model.f0)
        unsplittable = 0
        for tree in model.trees:
            p = gbdt.sigmoid(scores)
            r = gbdt.pseudo_residuals(y, p)
            assert node_lists(tree) == node_lists(naive_fit_tree(X, r, p, cfg))
            leaves = np.array([leaf_of(tree, x) for x in X])
            depth = node_depths(tree)
            for leaf in np.unique(leaves):
                rows = leaves == leaf
                unsplittable += bool(depth[leaf] < cfg.max_depth
                                     and rows.sum() >= 2
                                     and np.ptp(r[rows]) > 0)
            scores = scores + cfg.learning_rate * tree_values(tree, X)
        assert unsplittable > 0

    def test_rounds_sharing_one_presort_match_fit_tree(self):
        # train hands every round a copy of one presort; each tree must be
        # the tree fit_tree grows from scratch on that round's residuals
        X, y = blobs(80, seed=5, d=4)
        X[:, 0] = np.round(X[:, 0])  # ties
        cfg = gbdt.GbdtConfig(8, 5, 0.3)
        model = gbdt.train(X, y, cfg)
        scores = np.full(y.size, model.f0)
        for tree in model.trees:
            p = gbdt.sigmoid(scores)
            fresh = fit_tree(X, gbdt.pseudo_residuals(y, p), p, cfg)
            assert node_lists(tree) == node_lists(fresh)
            scores = scores + cfg.learning_rate * tree_values(fresh, X)


class TestTrain:
    def test_each_round_is_one_fit_tree_call(self, monkeypatch):
        X, y = blobs(40, seed=6, d=3)
        cfg = gbdt.GbdtConfig(7, 3, 0.3)
        plain = gbdt.to_json(gbdt.train(X, y, cfg))
        calls = []
        unwrapped = gbdt.fit_tree

        def counted(*args):
            calls.append(args)
            return unwrapped(*args)

        monkeypatch.setattr(gbdt, "fit_tree", counted)
        assert gbdt.to_json(gbdt.train(X, y, cfg)) == plain
        assert len(calls) == 7

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
        expected = gbdt.sigmoid(model.f0 + 0.3 * tree_values(model.trees[0], X))
        assert np.array_equal(gbdt.predict_proba(model, X), expected)

    def test_monotone_training_loss(self):
        X, y = blobs(60, seed=9)
        model = gbdt.train(X, y, gbdt.GbdtConfig(100, 3, 0.1))
        scores = np.full(y.size, model.f0)
        prev = logistic_loss(y, gbdt.sigmoid(scores))
        for tree in model.trees:
            scores = scores + model.learning_rate * tree_values(tree, X)
            cur = logistic_loss(y, gbdt.sigmoid(scores))
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

    def test_sigmoid_extremes_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(gbdt.sigmoid([-1000.0, 0.0, 800.0]), [0.0, 0.5, 1.0])

    def test_sigmoid_of_ln3(self):
        assert gbdt.sigmoid(np.log(3)) == pytest.approx(0.75)

    def test_matches_independent_tree_walk(self):
        X, y = blobs(40, seed=5, d=4)
        model = gbdt.train(X, y, gbdt.GbdtConfig(15, 3, 0.1))
        # trained on integers, the thresholds are halves: rows rounded to
        # halves sit exactly on some of them
        tied = gbdt.train(np.round(X), y, gbdt.GbdtConfig(15, 3, 0.1))
        halves = np.round(X * 2) / 2
        assert any(x[f] == thr for x in halves for t in tied.trees
                   for f, thr in zip(t.feature, t.threshold) if f >= 0)
        first, last = gbdt.RegressionTree(), gbdt.RegressionTree()
        first.add_leaf(0.25)
        last.add_leaf(-0.5)
        leafy = gbdt.GbdtModel(model.f0, [first] + model.trees + [last],
                               model.learning_rate, model.feature_names)
        for m, rows in ((model, X), (tied, halves), (leafy, X), (model, X[3])):
            probs = gbdt.predict_proba(m, rows)
            for i, x in enumerate(np.atleast_2d(rows)):
                # Eq-style recursion: score_m = score_{m-1} + lr * h_m(x)
                score = m.f0
                for t in m.trees:
                    score = score + m.learning_rate * walk_tree(t, x)
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


def feature_paths_oracle(tree, j):
    """Per-path oracle of `Ensemble.feature_paths` on one tree: a walk from
    the root down to every node, carrying the first split on j met on the
    way and the bounds low < x <= high that the splits on j set."""
    found = {}

    def visit(node, first, low, high):
        found[node] = (first, low, high)
        f, thr = tree.feature[node], tree.threshold[node]
        if f < 0:
            return
        if f == j:
            first = node if first < 0 else first
            visit(tree.left[node], first, low, min(high, thr))
            visit(tree.right[node], first, max(low, thr), high)
        else:
            visit(tree.left[node], first, low, high)
            visit(tree.right[node], first, low, high)

    visit(0, -1, -np.inf, np.inf)
    return [found[i] for i in range(len(tree.feature))]


class TestFeaturePaths:
    def test_matches_per_path_oracle(self):
        # few distinct values and depth 6: a feature is split on again and
        # again down a path; a leaf-only tree has no split at all
        rng = np.random.default_rng(21)
        X = rng.integers(0, 4, (300, 4)).astype(float)
        y = ((X[:, 0] + X[:, 1] * X[:, 2] + rng.integers(0, 3, 300)) % 2).astype(int)
        model = gbdt.train(X, y, gbdt.GbdtConfig(20, 6, 0.3))
        stump = gbdt.RegressionTree()
        stump.add_leaf(0.5)
        model.trees.insert(3, stump)
        assert any(sum(f == 0 for f in t.feature) >= 3 for t in model.trees)
        ens = gbdt.Ensemble(model)
        for j in range(X.shape[1]):
            first, low, high = ens.feature_paths(j)
            for tree, root in zip(model.trees, ens.roots):
                nodes = slice(root, root + len(tree.feature))
                want = np.array(feature_paths_oracle(tree, j)).T
                assert np.array_equal(first[nodes], np.where(want[0] < 0, -1, want[0] + root))
                assert np.array_equal(low[nodes], want[1])
                assert np.array_equal(high[nodes], want[2])
            # every row lies within the bounds of the leaf it reaches
            leaves = ens.leaves(X)
            assert np.all((low[leaves] < X[:, j]) & (X[:, j] <= high[leaves]))


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

    @pytest.mark.parametrize("field,value,match", [
        ("left", lambda t: [99] + t["left"][1:], "child"),
        ("left", lambda t: [0] + t["left"][1:], "child"),  # a cycle to the root
        ("feature", lambda t: [2] + t["feature"][1:], "feature 2 of 2"),
        ("feature", lambda t: [0.5] + t["feature"][1:], "malformed"),
        ("value", lambda t: t["value"][:-1], "equal length"),
        ("threshold", lambda t: ["x"] + t["threshold"][1:], "malformed"),
    ], ids=["child_99", "child_cycle", "feature_2", "feature_float", "short_value",
            "threshold_text"])
    def test_tree_structure_checked(self, field, value, match):
        X, y = blobs(10, seed=6)
        doc = json.loads(gbdt.to_json(gbdt.train(X, y, gbdt.GbdtConfig(2, 2))))
        tree = doc["trees"][0]
        assert tree["feature"][0] >= 0  # the root splits
        tree[field] = value(tree)
        with pytest.raises(InputError, match=match):
            gbdt.from_json(json.dumps(doc))
