"""Binary gradient-boosted regression trees with logistic loss.

The ensemble starts from the positive-class log-odds, fits each tree to the
pseudo-residuals y - p, and accumulates shrunken tree outputs; probabilities
come from the sigmoid of the accumulated score.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, malformed, model_doc

LEAF_CLAMP = 4.0
SPLIT_BLOCK = 1 << 15  # elements per block of the split search's (features, rows) arrays
MODEL_FORMAT_VERSION = 1


@dataclass
class GbdtConfig:
    n_estimators: int = 400
    max_depth: int = 8
    learning_rate: float = 0.1

    def __post_init__(self):
        if self.n_estimators < 1:
            raise InputError("n_estimators must be >= 1")
        if self.max_depth < 1:
            raise InputError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise InputError("learning_rate must be in (0, 1]")


@dataclass
class RegressionTree:
    """Flat node arrays; feature < 0 marks a leaf carrying `value`."""
    feature: list = field(default_factory=list)
    threshold: list = field(default_factory=list)
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    value: list = field(default_factory=list)

    def add_leaf(self, value: float) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(value))
        return len(self.feature) - 1

    def add_split(self, feature: int, threshold: float) -> int:
        self.feature.append(int(feature))
        self.threshold.append(float(threshold))
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1


@dataclass
class GbdtModel:
    f0: float
    trees: list
    learning_rate: float
    feature_names: list

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


class Ensemble:
    """A model's trees as one set of node arrays, children as indices into
    them, and each tree's root: the one walk and the one score sum."""

    def __init__(self, model: GbdtModel):
        self.f0 = model.f0
        self.learning_rate = model.learning_rate
        trees = model.trees
        sizes = np.array([len(t.feature) for t in trees], dtype=int)
        self.roots = np.cumsum(sizes) - sizes
        shift = np.repeat(self.roots, sizes)

        def cat(name, dtype):
            return np.array([v for t in trees for v in getattr(t, name)], dtype=dtype)

        self.feature = cat("feature", int)
        self.threshold = cat("threshold", np.float64)
        self.left = cat("left", int) + shift
        self.right = cat("right", int) + shift
        self.value = cat("value", np.float64)

    def walk(self, node, X, rows, shuffled=-1, perm=None):
        """Leaf reached by row X[rows[i]] from node[i]: left where the split
        feature is <= the threshold. With a `shuffled` column and `perm`, row
        k reads that column from row perm[k] instead."""
        node = node.copy()
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.size:
            at = node[active]
            f = self.feature[at]
            r = rows[active]
            if perm is not None:
                r = np.where(f == shuffled, perm[r], r)
            go_left = X[r, f] <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
            active = active[self.feature[node[active]] >= 0]
        return node

    def leaves(self, X) -> np.ndarray:
        """(trees, rows): the leaf each row of X reaches in each tree."""
        n, n_trees = X.shape[0], self.roots.size
        return self.walk(np.repeat(self.roots, n), X,
                         np.tile(np.arange(n), n_trees)).reshape(n_trees, n)

    def scores(self, leaves) -> np.ndarray:
        """Decision scores of (trees, rows) leaves: f0 plus the shrunken leaf
        values, summed in tree order."""
        scores = np.full(leaves.shape[1], self.f0)
        for contribution in self.learning_rate * self.value[leaves]:
            scores += contribution
        return scores

    def feature_paths(self, j):
        """Three (nodes,) arrays for feature j, found top-down in one pass:
        the first split on the path from its root to each node, that node
        excluded, that tests j (-1 if none does), and bounds low and high
        such that a value x of feature j with low < x <= high takes the
        path's branch at every split on j along it."""
        first = np.full(self.feature.size, -1)
        low = np.full(self.feature.size, -np.inf)
        high = np.full(self.feature.size, np.inf)
        level = self.roots
        while level.size:
            level = level[self.feature[level] >= 0]
            tests = self.feature[level] == j
            left, right, t = self.left[level], self.right[level], self.threshold[level]
            above = first[level]
            first[left] = first[right] = np.where(tests & (above < 0), level, above)
            low[left], high[right] = low[level], high[level]
            high[left] = np.where(tests, np.minimum(high[level], t), high[level])
            low[right] = np.where(tests, np.maximum(low[level], t), low[level])
            level = np.r_[left, right]
        return first, low, high


def sigmoid(z):
    # exp overflows to inf below about -709, and 1 / (1 + inf) is the exact 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def init_log_odds(labels) -> float:
    """Initial constant score: ln(n_pos / n_neg)."""
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise InputError("both classes must be present")
    return float(np.log(n_pos / n_neg))


def pseudo_residuals(labels, probs) -> np.ndarray:
    """Negative logistic-loss gradients: y - p."""
    return np.asarray(labels, dtype=np.float64) - np.asarray(probs, dtype=np.float64)


def _newton_leaf(residuals, probs) -> float:
    denom = float((probs * (1.0 - probs)).sum())
    if denom <= 0:
        return 0.0
    return float(np.clip(residuals.sum() / denom, -LEAF_CLAMP, LEAF_CLAMP))


def _best_split(X, residuals, order, total_sum, base):
    """Greedy variance-reduction split; ties break to the lowest feature
    index, then the lowest threshold. Returns (feature, threshold) or None.

    `order` is (d, m): row k holds the node's row ids in stable ascending
    order of feature k. Features are scored a block of rows at a time, so
    the temporaries stay near SPLIT_BLOCK elements."""
    d, m = order.shape
    n_left = np.arange(1, m)
    tol = 1e-12 * max(1.0, base)
    best = None
    best_gain = 0.0
    step = max(1, SPLIT_BLOCK // m)
    for first in range(0, d, step):
        rows = order[first:first + step]
        xs = X[rows, np.arange(first, first + len(rows))[:, None]]
        valid = xs[:, :-1] < xs[:, 1:]
        # candidate split after position i: left = [0..i], right = [i+1..]
        gain = np.cumsum(residuals[rows], axis=1)[:, :-1]
        right = total_sum - gain
        gain **= 2
        gain /= n_left
        right **= 2
        right /= m - n_left
        gain += right
        del right
        gain -= total_sum ** 2 / m
        gain[~valid] = -np.inf
        top = np.argmax(gain, axis=1)
        top_gain = gain[np.arange(len(rows)), top]
        for k in np.flatnonzero(valid.any(axis=1)):
            if top_gain[k] > best_gain + tol:
                best_gain = float(top_gain[k])
                i = top[k]
                lo, hi = float(xs[k, i]), float(xs[k, i + 1])
                mid = (lo + hi) / 2.0  # may round up to hi, or overflow to inf
                best = (first + int(k), mid if mid < hi else lo)
    return best


def _presort(X) -> np.ndarray:
    """(d, n) int32 row ids that stable-sort each column of X."""
    n, d = X.shape
    order = np.empty((d, n), dtype=np.int32)
    for k in range(d):
        order[k] = np.argsort(X[:, k], kind="stable")
    return order


def fit_tree(X, residuals, probs, config: GbdtConfig, order) -> tuple:
    """Fit one regression tree to the residuals; leaf values are Newton steps
    sum(r) / sum(p(1-p)), clamped to +/- LEAF_CLAMP. X, residuals and probs
    are float64 arrays, and `order` is X's `_presort`, which the fit
    overwrites. Returns the tree and the (n,) value of the leaf each row of
    X lands in.

    Exact greedy search on the presort: a node owns the columns lo:hi of
    `order`, and a split partitions them stably in place into its children's.
    Node rows stay in ascending row order, so each node's sorted ids equal
    the node's own stable argsort. Nodes are numbered in pre-order, left
    subtree first."""
    n, d = X.shape
    tree = RegressionTree()
    fitted = np.empty(n)

    def leaf(idx, r):
        fitted[idx] = value = _newton_leaf(r, probs[idx])
        return tree.add_leaf(value)

    def build(lo, hi, idx, depth):
        r = residuals[idx]
        if depth >= config.max_depth or idx.size < 2 or np.ptp(r) == 0:
            return leaf(idx, r)
        total_sum = r.sum()
        base = (r ** 2).sum() - total_sum ** 2 / idx.size
        split = _best_split(X, residuals, order[:, lo:hi], total_sum, base)
        if split is None:
            return leaf(idx, r)
        j, thr = split
        node = tree.add_split(j, thr)
        go_left = X[idx, j] <= thr
        mid = lo + int(go_left.sum())
        step = max(1, SPLIT_BLOCK // idx.size)
        for first in range(0, d, step):
            block = order[first:first + step, lo:hi]
            block_left = X[block, j] <= thr
            block[:] = np.hstack([block[block_left].reshape(len(block), mid - lo),
                                  block[~block_left].reshape(len(block), hi - mid)])
        tree.left[node] = build(lo, mid, idx[go_left], depth + 1)
        tree.right[node] = build(mid, hi, idx[~go_left], depth + 1)
        return node

    build(0, n, np.arange(n), 0)
    del build  # build's cell refers to build: drop the cycle so `order` is freed now
    return tree, fitted


def train(X, labels, config: GbdtConfig, feature_names=None) -> GbdtModel:
    """Boost for exactly n_estimators rounds on (X, labels)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise InputError("X must be (n_samples, n_features) matching labels")
    if not np.all(np.isfinite(X)):
        raise InputError("features contain NaN or inf")
    f0 = init_log_odds(y)
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(X.shape[1])]
    scores = np.full(y.size, f0)
    trees = []
    order = _presort(X)
    for _ in range(config.n_estimators):
        p = sigmoid(scores)
        r = pseudo_residuals(y, p)
        tree, fitted = fit_tree(X, r, p, config, order.copy())
        trees.append(tree)
        scores = scores + config.learning_rate * fitted
    return GbdtModel(f0, trees, config.learning_rate, list(feature_names))


def decision_scores(model: GbdtModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.n_features:
        raise InputError(
            f"expected {model.n_features} features, got {X.shape[1]}")
    ens = Ensemble(model)
    return ens.scores(ens.leaves(X))


def predict_proba(model: GbdtModel, X) -> np.ndarray:
    """Positive-class probability: sigmoid of the accumulated score."""
    return sigmoid(decision_scores(model, X))


def predict(model: GbdtModel, X) -> np.ndarray:
    """Class labels: spoof (1) where the probability is at least 0.5."""
    return (predict_proba(model, X) >= 0.5).astype(int)


# ---------------------------------------------------------------------------
# Serialization

def to_json(model: GbdtModel) -> str:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "gbdt",
        "f0": model.f0,
        "learning_rate": model.learning_rate,
        "feature_names": model.feature_names,
        "trees": [vars(t) for t in model.trees],
    }
    return json.dumps(doc, sort_keys=True)


def _checked_tree(doc: dict, n_features: int) -> RegressionTree:
    """A tree from its document, checked so that every walk from the root
    ends at a leaf and every node lies on exactly one path: equal-length node
    lists, split features below `n_features`, children after their parent,
    and each node but the root the child of one split, as `fit_tree` writes
    them."""
    t = RegressionTree(**doc)
    t.feature, t.left, t.right = ([operator.index(v) for v in col]
                                  for col in (t.feature, t.left, t.right))
    t.threshold, t.value = ([float(v) for v in col] for col in (t.threshold, t.value))
    n = len(t.feature)
    if not n or any(len(col) != n for col in (t.threshold, t.left, t.right, t.value)):
        raise ValueError("tree node lists must be nonempty and of equal length")
    for i, f in enumerate(t.feature):
        if f >= n_features:
            raise ValueError(f"node {i} splits on feature {f} of {n_features}")
        if f >= 0 and not (i < t.left[i] < n and i < t.right[i] < n):
            raise ValueError(f"node {i} has a child outside nodes {i + 1}..{n - 1}")
    children = sorted(c for f, lc, rc in zip(t.feature, t.left, t.right) if f >= 0
                      for c in (lc, rc))
    if children != list(range(1, n)):
        raise ValueError("every node but the root must be the child of exactly one split")
    return t


def from_json(doc) -> GbdtModel:
    """The model in a JSON document: its text, or the dict it parses to."""
    doc = model_doc(doc, "gbdt", MODEL_FORMAT_VERSION)
    with malformed("gbdt model document"):
        names = doc["feature_names"]
        trees = [_checked_tree(t, len(names)) for t in doc["trees"]]
        return GbdtModel(float(doc["f0"]), trees, float(doc["learning_rate"]), names)
