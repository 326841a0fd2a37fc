"""Binary gradient-boosted regression trees with logistic loss.

The ensemble starts from the positive-class log-odds, fits each tree to the
pseudo-residuals y - p, and accumulates shrunken tree outputs; probabilities
come from the sigmoid of the accumulated score.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import DegenerateLabels, InputError, malformed, model_doc

LEAF_CLAMP = 4.0
MODEL_FORMAT_VERSION = 1


@dataclass
class GbdtConfig:
    n_estimators: int = 400
    max_depth: int = 8
    learning_rate: float = 0.1
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.n_estimators < 1:
            raise InputError("n_estimators must be >= 1")
        if self.max_depth < 1:
            raise InputError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise InputError("learning_rate must be in (0, 1]")
        if self.min_samples_leaf < 1:
            raise InputError("min_samples_leaf must be >= 1")


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

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        feat = np.asarray(self.feature)
        thr = np.asarray(self.threshold)
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        val = np.asarray(self.value)
        node = np.zeros(X.shape[0], dtype=int)
        while True:
            internal = feat[node] >= 0
            if not internal.any():
                break
            idx = np.where(internal)[0]
            f = feat[node[idx]]
            go_left = X[idx, f] <= thr[node[idx]]
            node[idx] = np.where(go_left, left[node[idx]], right[node[idx]])
        return val[node]


@dataclass
class GbdtModel:
    f0: float
    trees: list
    learning_rate: float
    feature_names: list

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


def init_log_odds(labels) -> float:
    """Initial constant score: ln(n_pos / n_neg)."""
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("both classes must be present")
    return float(np.log(n_pos / n_neg))


def pseudo_residuals(labels, probs) -> np.ndarray:
    """Negative logistic-loss gradients: y - p."""
    return np.asarray(labels, dtype=np.float64) - np.asarray(probs, dtype=np.float64)


def logistic_loss(labels, probs) -> float:
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-15, 1 - 1e-15)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


def _newton_leaf(residuals, probs) -> float:
    denom = float((probs * (1.0 - probs)).sum())
    if denom <= 0:
        return 0.0
    return float(np.clip(residuals.sum() / denom, -LEAF_CLAMP, LEAF_CLAMP))


def _best_split(X, residuals, min_samples_leaf):
    """Greedy variance-reduction split; ties break to the lowest feature
    index, then the lowest threshold. Returns (feature, threshold) or None."""
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
        valid = (xs[:-1] < xs[1:]) & (n_left >= min_samples_leaf) \
            & ((n - n_left) >= min_samples_leaf)
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
            best = (j, float((xs[i] + xs[i + 1]) / 2.0))
    return best


def fit_tree(X, residuals, probs, config: GbdtConfig) -> RegressionTree:
    """Fit one regression tree to the residuals; leaf values are Newton steps
    sum(r) / sum(p(1-p)), clamped to +/- LEAF_CLAMP."""
    X = np.asarray(X, dtype=np.float64)
    residuals = np.asarray(residuals, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    tree = RegressionTree()

    def build(idx, depth):
        r = residuals[idx]
        if depth >= config.max_depth or idx.size < 2 * config.min_samples_leaf \
                or np.ptp(r) == 0:
            return tree.add_leaf(_newton_leaf(r, probs[idx]))
        split = _best_split(X[idx], r, config.min_samples_leaf)
        if split is None:
            return tree.add_leaf(_newton_leaf(r, probs[idx]))
        j, thr = split
        node = tree.add_split(j, thr)
        go_left = X[idx, j] <= thr
        tree.left[node] = build(idx[go_left], depth + 1)
        tree.right[node] = build(idx[~go_left], depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return tree


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
    for _ in range(config.n_estimators):
        p = sigmoid(scores)
        r = pseudo_residuals(y, p)
        tree = fit_tree(X, r, p, config)
        trees.append(tree)
        scores = scores + config.learning_rate * tree.predict(X)
    return GbdtModel(f0, trees, config.learning_rate, list(feature_names))


def decision_scores(model: GbdtModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.n_features:
        raise InputError(
            f"expected {model.n_features} features, got {X.shape[1]}")
    scores = np.full(X.shape[0], model.f0)
    for tree in model.trees:
        scores += model.learning_rate * tree.predict(X)
    return scores


def predict_proba(model: GbdtModel, X) -> np.ndarray:
    """Positive-class probability: sigmoid of the accumulated score."""
    return sigmoid(decision_scores(model, X))


def predict(model: GbdtModel, X, threshold: float = 0.5) -> np.ndarray:
    return (predict_proba(model, X) >= threshold).astype(int)


def used_features(model: GbdtModel) -> set:
    """Indices of features that appear in at least one split."""
    used = set()
    for tree in model.trees:
        used.update(f for f in tree.feature if f >= 0)
    return used


# ---------------------------------------------------------------------------
# Serialization

def to_json(model: GbdtModel) -> str:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "gbdt",
        "f0": model.f0,
        "learning_rate": model.learning_rate,
        "feature_names": model.feature_names,
        "trees": [asdict(t) for t in model.trees],
    }
    return json.dumps(doc, sort_keys=True)


def from_json(text: str) -> GbdtModel:
    doc = model_doc(text, "gbdt", MODEL_FORMAT_VERSION)
    with malformed("gbdt model document"):
        trees = [RegressionTree(**t) for t in doc["trees"]]
        return GbdtModel(doc["f0"], trees, doc["learning_rate"], doc["feature_names"])
