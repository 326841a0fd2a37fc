"""Interpretability for the boosted-tree classifier: permutation feature
importance, Spearman correlation, Ward clustering of features and cluster
representatives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import gbdt
from .errors import InputError

DEFAULT_REPEATS = 10
DEFAULT_CLUSTER_THRESHOLD = 1.0


@dataclass
class ImportanceReport:
    names: list
    mean_importance: np.ndarray
    std_importance: np.ndarray
    repeats: int

    def to_json(self) -> str:
        rows = [
            {"feature": n, "mean": float(m), "std": float(s)}
            for n, m, s in zip(self.names, self.mean_importance, self.std_importance)
        ]
        return json.dumps({"repeats": self.repeats, "importances": rows}, indent=2)

    def to_csv(self) -> str:
        lines = ["feature,mean,std"]
        for n, m, s in zip(self.names, self.mean_importance, self.std_importance):
            lines.append(f"{n},{float(m)!r},{float(s)!r}")
        return "\n".join(lines) + "\n"


@dataclass
class FeatureClustering:
    merge_tree: np.ndarray  # (n - 1, 4) rows of (a, b, height, size), scipy's linkage layout
    distance_threshold: float
    clusters: list  # list of sorted feature-index lists
    representatives: list | None = None

    def to_json(self) -> str:
        return json.dumps({
            "distance_threshold": self.distance_threshold,
            "clusters": [list(map(int, c)) for c in self.clusters],
            "representatives": None if self.representatives is None
            else list(map(int, self.representatives)),
            "merge_tree": self.merge_tree.tolist(),
        }, indent=2)


def _accuracy(scores, y) -> float:
    """Accuracy of `gbdt.predict` given the ensemble's decision scores."""
    return float(((gbdt.sigmoid(scores) >= 0.5).astype(int) == y).mean())


def permutation_importance(model, X, y, repeats: int = DEFAULT_REPEATS,
                           seed: int = 0) -> ImportanceReport:
    """Per-feature drop in the accuracy of `gbdt.predict` when that column is
    shuffled.

    importance_j = s - mean_r s_{r,j} where s is the unshuffled accuracy; the
    std is taken over the per-repeat drops. Each (feature, repeat) pair draws
    an independent shuffle from a seeded stream.

    Every tree is walked once on X, as in `gbdt.decision_scores`. A shuffle
    of column j can move a row only in the trees whose path for that row
    tests j, and there only if the row's shuffled value leaves the bounds
    that the splits on j along the path set. Only those (tree, row) pairs
    are walked again, each from the first split on its path that tests j:
    the splits above it do not read column j.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if repeats < 1:
        raise InputError("repeats must be >= 1")
    if y.size == 0:
        raise InputError("empty evaluation slice")
    n, d = X.shape
    if d != model.n_features:
        raise InputError(f"expected {model.n_features} features, got {d}")
    ens = gbdt.Ensemble(model)
    leaves = ens.leaves(X)
    scores = ens.scores(leaves)
    s = _accuracy(scores, y)
    rng = np.random.default_rng(seed)
    means = np.zeros(d)
    stds = np.zeros(d)
    for j in range(d):
        first, low, high = ens.feature_paths(j)
        on_path = first[leaves] >= 0  # (trees, n): the tree's path for the row tests j
        moved = np.flatnonzero(on_path.any(axis=0))
        moved_leaves = leaves[:, moved]
        pairs = np.flatnonzero(on_path[:, moved])  # positions in moved_leaves
        del on_path
        reached = moved_leaves.ravel()[pairs]
        rows = moved[pairs % moved.size]
        drops = np.zeros(repeats)
        for r in range(repeats):
            perm = rng.permutation(n)
            x = X[perm[rows], j]
            off = ~((x > low[reached]) & (x <= high[reached]))  # NaN is walked
            leaf = moved_leaves.copy()
            leaf.ravel()[pairs[off]] = ens.walk(first[reached[off]], X, rows[off], j, perm)
            shuffled = scores.copy()
            shuffled[moved] = ens.scores(leaf)
            drops[r] = s - _accuracy(shuffled, y)
        means[j] = drops.mean()
        stds[j] = drops.std()
    return ImportanceReport(list(model.feature_names), means, stds, repeats)


def _average_ranks(X) -> np.ndarray:
    """Ranks 1..n within each column of the (n, d) matrix X; a run of tied
    values shares the mean of its ranks, as in `scipy.stats.rankdata`.
    Columns are ranked one at a time, so no temporary outgrows a column.

    Those means are whole or half numbers, so they are exact in float64."""
    n = X.shape[0]
    pos = np.arange(n)
    ranks = np.empty(X.shape)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        first = np.ones(n, dtype=bool)  # sorted position opens a tie run
        first[1:] = xs[1:] != xs[:-1]
        last = np.ones(n, dtype=bool)  # sorted position closes a tie run
        last[:-1] = first[1:]
        lo = np.maximum.accumulate(np.where(first, pos, 0))
        hi = np.minimum.accumulate(np.where(last, pos, n)[::-1])[::-1]
        ranks[order, j] = (lo + hi) / 2.0 + 1.0
    return ranks


def spearman_matrix(X) -> np.ndarray:
    """Spearman rank-order correlation between feature columns.

    Ties get average ranks; a constant column correlates 0 with everything
    (diagonal stays 1).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise InputError("need a (n_samples >= 2, n_features) matrix")
    if not np.all(np.isfinite(X)):
        raise InputError("features contain NaN or inf")
    normed = _average_ranks(X)
    normed -= normed.mean(axis=0)
    norms = np.sqrt((normed ** 2).sum(axis=0))
    constant = norms == 0
    normed /= np.where(constant, 1.0, norms)
    corr = normed.T @ normed
    del normed
    corr = (corr + corr.T) / 2.0  # exact symmetry despite BLAS reassociation
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


def _ward_merges(dist: np.ndarray) -> np.ndarray:
    """Ward agglomeration of the n points whose pairwise distances are the
    symmetric (n, n) matrix `dist`, as an (n - 1, 4) merge tree in scipy's
    linkage layout: row k joins clusters a < b at height h into cluster
    n + k of `size` points. Each step joins the closest pair, ties going to
    the smallest (a, b); distances to the new cluster follow the
    Lance-Williams update for Ward (Ward 1963; Lance & Williams 1967)."""
    n = len(dist)
    d = dist.copy()
    np.fill_diagonal(d, np.inf)
    ids = np.arange(n)  # cluster id of each row of d, ascending
    sizes = np.ones(n)
    tree = np.empty((n - 1, 4))
    for k in range(n - 1):
        # the first minimum in row-major order is the smallest (a, b) pair
        a, b = divmod(int(np.argmin(d)), len(d))
        h = d[a, b]
        size = sizes[a] + sizes[b]
        tree[k] = ids[a], ids[b], h, size
        t = 1.0 / (size + sizes)
        new = np.sqrt((sizes + sizes[a]) * t * d[a] * d[a]
                      + (sizes + sizes[b]) * t * d[b] * d[b] - sizes * t * h * h)
        keep = np.ones(len(d), dtype=bool)
        keep[[a, b]] = False
        d = np.block([[d[keep][:, keep], new[keep, None]],
                      [new[None, keep], np.full((1, 1), np.inf)]])
        ids = np.append(ids[keep], n + k)
        sizes = np.append(sizes[keep], size)
    return tree


def ward_cluster(corr: np.ndarray, threshold: float = DEFAULT_CLUSTER_THRESHOLD) -> FeatureClustering:
    """Ward-linkage agglomerative clustering on distance d = 1 - rho, with
    flat clusters cut at `threshold`: two features share a flat cluster when
    every merge on the way to their common cluster has height <= threshold,
    as in scipy's `fcluster(..., criterion="distance")`."""
    corr = np.asarray(corr, dtype=np.float64)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1] or corr.size == 0:
        raise InputError("correlation matrix must be square and non-empty")
    if not np.all(np.isfinite(corr)):
        raise InputError("correlation matrix must be finite")
    if not np.allclose(corr, corr.T, atol=1e-8):
        raise InputError("correlation matrix must be symmetric")
    dist = 1.0 - corr
    np.fill_diagonal(dist, 0.0)
    dist = np.clip(dist, 0.0, None)
    n = len(dist)
    merge_tree = _ward_merges((dist + dist.T) / 2.0)
    flat = {i: [i] for i in range(n)}  # flat clusters by cluster id
    for k, (a, b, h, _) in enumerate(merge_tree.tolist()):
        a, b = int(a), int(b)
        if h <= threshold and a in flat and b in flat:
            flat[n + k] = flat.pop(a) + flat.pop(b)
    # deterministic ordering: clusters sorted by their lowest member index
    ordered = sorted((sorted(v) for v in flat.values()), key=lambda c: c[0])
    return FeatureClustering(merge_tree, float(threshold), ordered)


def select_representatives(clustering: FeatureClustering,
                           importance: ImportanceReport) -> list:
    """Most-important member of each cluster (ties to the lowest index)."""
    n_features = sum(len(c) for c in clustering.clusters)
    if len(importance.mean_importance) != n_features:
        raise InputError("importance report does not cover all features")
    reps = []
    for members in clustering.clusters:
        scores = importance.mean_importance[members]
        reps.append(members[int(np.argmax(scores))])
    clustering.representatives = reps
    return reps
