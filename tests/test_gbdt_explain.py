import numpy as np
import pytest
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform
from scipy.stats import rankdata

from spoofkit import gbdt, gbdt_explain
from spoofkit.errors import InputError


def planted_dataset(n=1000, d=6, seed=0):
    """Label depends only on column 0; everything else is noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    y = (X[:, 0] > 0).astype(int)
    return X, y


def reference_importance(model, X, y, repeats, seed):
    """Independent re-statement of the permutation loop, replicating the
    seeded shuffle stream in the same (feature, repeat) order."""
    rng = np.random.default_rng(seed)
    base = (gbdt.predict(model, X) == y).mean()
    n, d = X.shape
    means = np.zeros(d)
    stds = np.zeros(d)
    for j in range(d):
        drops = []
        for _ in range(repeats):
            Xp = X.copy()
            Xp[:, j] = X[rng.permutation(n), j]
            drops.append(base - (gbdt.predict(model, Xp) == y).mean())
        means[j] = np.mean(drops)
        stds[j] = np.std(drops)
    return means, stds


class TestPermutationImportance:
    def test_matches_reference_loop(self):
        X, y = planted_dataset(200, 4, seed=1)
        model = gbdt.train(X, y, gbdt.GbdtConfig(20, 2, 0.2))
        rep = gbdt_explain.permutation_importance(model, X, y, repeats=5, seed=7)
        means, stds = reference_importance(model, X, y, 5, 7)
        assert np.array_equal(rep.mean_importance, means)
        assert np.array_equal(rep.std_importance, stds)

    def test_deep_trees_on_tied_data_match_reference_exactly(self):
        # 30 depth-6 trees on few distinct values; column 4 is constant, so
        # no tree can split on it
        rng = np.random.default_rng(21)
        X = np.column_stack([rng.integers(0, 4, (300, 4)).astype(float), np.full(300, 1.0)])
        y = ((X[:, 0] + X[:, 1] * X[:, 2] + rng.integers(0, 3, 300)) % 2).astype(int)
        model = gbdt.train(X, y, gbdt.GbdtConfig(30, 6, 0.3))
        depths = set()
        for tree in model.trees:
            depth = {0: 0}
            for i, f in enumerate(tree.feature):
                if f >= 0:
                    depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
                    if f == 0:
                        depths.add(depth[i])
        assert len(depths) >= 3
        assert all(4 not in tree.feature for tree in model.trees)
        rep = gbdt_explain.permutation_importance(model, X, y, repeats=4, seed=3)
        means, stds = reference_importance(model, X, y, 4, 3)
        assert np.array_equal(rep.mean_importance, means)
        assert np.array_equal(rep.std_importance, stds)
        assert rep.mean_importance[4] == 0.0 and rep.std_importance[4] == 0.0
        assert rep.mean_importance[0] > 0

    def test_paper_default_ensemble_matches_reference_exactly(self):
        # 400 depth-8 trees on 240 rows of correlated features with noisy,
        # partly flipped labels: most features are first split on at depth 3
        # or below, and many shuffled values stay within their path's bounds
        rng = np.random.default_rng(5)
        X = rng.standard_normal((240, 8)) @ rng.standard_normal((8, 37))
        X += 0.5 * rng.standard_normal((240, 37))
        y = (X @ rng.standard_normal(37) + 2 * rng.standard_normal(240) > 0).astype(int)
        y = np.where(rng.random(240) < 0.15, 1 - y, y)
        model = gbdt.train(X, y, gbdt.GbdtConfig(400, 8))
        assert max(len(t.feature) for t in model.trees) > 2 ** 6
        rep = gbdt_explain.permutation_importance(model, X, y, repeats=3, seed=2)
        means, stds = reference_importance(model, X, y, 3, 2)
        assert np.array_equal(rep.mean_importance, means)
        assert np.array_equal(rep.std_importance, stds)
        assert np.count_nonzero(means) > 20

    def test_non_finite_cells_match_reference_exactly(self):
        # a NaN goes right at every split, outside any path's bounds; -inf
        # goes left at every split, on the bounds' open end
        X, y = planted_dataset(200, 4, seed=8)
        model = gbdt.train(X, y, gbdt.GbdtConfig(20, 4, 0.2))
        X[::7, 0] = np.nan
        X[3::11, 1] = -np.inf
        X[5::13, 2] = np.inf
        rep = gbdt_explain.permutation_importance(model, X, y, repeats=4, seed=1)
        means, stds = reference_importance(model, X, y, 4, 1)
        assert np.array_equal(rep.mean_importance, means)
        assert np.array_equal(rep.std_importance, stds)

    def test_unused_feature_exactly_zero(self):
        X, y = planted_dataset(300, 5, seed=2)
        model = gbdt.train(X, y, gbdt.GbdtConfig(30, 2, 0.2))
        rep = gbdt_explain.permutation_importance(model, X, y, repeats=5, seed=0)
        used = {f for tree in model.trees for f in tree.feature}
        for j in range(5):
            if j not in used:
                assert rep.mean_importance[j] == 0.0
                assert rep.std_importance[j] == 0.0

    def test_planted_feature_drop_near_half(self):
        # shuffling the only informative column makes half the labels wrong
        # in expectation, so the drop sits near accuracy - 0.5
        X, y = planted_dataset(1000, 4, seed=3)
        model = gbdt.train(X, y, gbdt.GbdtConfig(50, 3, 0.1))
        rep = gbdt_explain.permutation_importance(model, X, y, repeats=20, seed=0)
        assert rep.mean_importance[0] == pytest.approx(0.5, abs=0.05)
        assert rep.mean_importance[0] > rep.mean_importance[1:].max() + 0.3

    def test_duplicated_column_shares_importance(self):
        # with a perfect copy available the model may split on either; the
        # two duplicates together must carry the signal
        X, y = planted_dataset(500, 3, seed=4)
        X = np.column_stack([X, X[:, 0]])
        model = gbdt.train(X, y, gbdt.GbdtConfig(30, 3, 0.1))
        rep = gbdt_explain.permutation_importance(model, X, y, repeats=10, seed=0)
        pair = rep.mean_importance[[0, 3]]
        assert pair.max() >= rep.mean_importance[[1, 2]].max()

    def test_repeats_validated(self):
        X, y = planted_dataset(50, 2)
        model = gbdt.train(X, y, gbdt.GbdtConfig(5, 2))
        with pytest.raises(InputError):
            gbdt_explain.permutation_importance(model, X, y, repeats=0)

    def test_seed_determinism(self):
        X, y = planted_dataset(150, 3, seed=5)
        model = gbdt.train(X, y, gbdt.GbdtConfig(10, 2))
        a = gbdt_explain.permutation_importance(model, X, y, repeats=4, seed=11)
        b = gbdt_explain.permutation_importance(model, X, y, repeats=4, seed=11)
        assert np.array_equal(a.mean_importance, b.mean_importance)
        assert a.to_json() == b.to_json()

    def test_report_serialization_roundtrip_values(self):
        X, y = planted_dataset(100, 2, seed=6)
        model = gbdt.train(X, y, gbdt.GbdtConfig(5, 2))
        rep = gbdt_explain.permutation_importance(model, X, y, repeats=3, seed=0)
        csv = rep.to_csv().strip().splitlines()
        assert csv[0] == "feature,mean,std"
        assert len(csv) == 3
        # repr round-trips float64 exactly
        assert float(csv[1].split(",")[1]) == rep.mean_importance[0]


class TestSpearman:
    def test_monotone_transform_gives_one(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, 100)
        X = np.column_stack([a, np.exp(a)])
        corr = gbdt_explain.spearman_matrix(X)
        assert corr[0, 1] == pytest.approx(1.0)

    def test_reversed_gives_minus_one(self):
        a = np.arange(50, dtype=float)
        corr = gbdt_explain.spearman_matrix(np.column_stack([a, -a]))
        assert corr[0, 1] == pytest.approx(-1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (5000, 2))
        corr = gbdt_explain.spearman_matrix(X)
        assert abs(corr[0, 1]) < 0.05

    def test_constant_column_zero_off_diagonal(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([rng.normal(0, 1, 30), np.full(30, 4.2)])
        corr = gbdt_explain.spearman_matrix(X)
        assert corr[0, 1] == 0.0 and corr[1, 0] == 0.0
        assert corr[1, 1] == 1.0

    def test_matches_pearson_of_average_ranks_with_ties(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 5, (80, 3)).astype(float)  # heavy ties
        corr = gbdt_explain.spearman_matrix(X)
        ranks = np.column_stack([rankdata(X[:, j]) for j in range(3)])
        expected = np.corrcoef(ranks, rowvar=False)
        assert np.allclose(corr, expected, atol=1e-12)

    def test_symmetric_unit_diagonal_bounded(self):
        rng = np.random.default_rng(4)
        corr = gbdt_explain.spearman_matrix(rng.normal(0, 1, (60, 8)))
        assert np.allclose(corr, corr.T)
        assert np.allclose(np.diag(corr), 1.0)
        assert corr.min() >= -1.0 and corr.max() <= 1.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(InputError):
            gbdt_explain.spearman_matrix(np.ones((1, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, value):
        X = np.random.default_rng(5).normal(0, 1, (10, 3))
        X[4, 1] = value
        with pytest.raises(InputError, match="NaN or inf"):
            gbdt_explain.spearman_matrix(X)

    @pytest.mark.parametrize("X", [
        np.random.default_rng(6).normal(0, 1, (300, 37)),
        np.round(np.random.default_rng(7).normal(0, 1, (500, 6)), 1),  # heavy ties
        np.random.default_rng(8).integers(0, 3, (9, 4)).astype(float),
        np.zeros((20, 3)),  # constant columns
        np.array([[0.0, -0.0], [-0.0, 0.0], [1.0, -0.0], [-0.0, -1.0]]),  # +-0.0 tie
        np.array([[1.0, 2.0, 5.0], [1.0, 1.0, -5.0]]),  # two rows
    ], ids=["normal", "rounded", "small_ints", "constant", "signed_zero", "two_rows"])
    def test_ranks_equal_rankdata(self, X):
        expected = np.column_stack([rankdata(X[:, j]) for j in range(X.shape[1])])
        assert np.array_equal(gbdt_explain._average_ranks(X), expected)


def lance_williams_ward(dist):
    """Brute-force Ward agglomeration oracle via the Lance-Williams update."""
    d = dist.astype(float).copy()
    n = d.shape[0]
    sizes = {i: 1 for i in range(n)}
    active = list(range(n))
    big = {i: d.copy() for i in ()}  # placeholder, distances kept in dict below
    dd = {}
    for i in range(n):
        for j in range(i + 1, n):
            dd[(i, j)] = d[i, j]
    merges = []
    next_id = n
    while len(active) > 1:
        pairs = [(i, j) for k, i in enumerate(active) for j in active[k + 1:]]
        i, j = min(pairs, key=lambda p: (dd[p], p))
        dij = dd[(i, j)]
        merges.append((min(i, j), max(i, j), dij, sizes[i] + sizes[j]))
        for k in active:
            if k in (i, j):
                continue
            si, sj, sk = sizes[i], sizes[j], sizes[k]
            dik = dd[tuple(sorted((i, k)))]
            djk = dd[tuple(sorted((j, k)))]
            new = np.sqrt(((si + sk) * dik ** 2 + (sj + sk) * djk ** 2
                           - sk * dij ** 2) / (si + sj + sk))
            dd[tuple(sorted((next_id, k)))] = new
        sizes[next_id] = sizes[i] + sizes[j]
        active = [k for k in active if k not in (i, j)] + [next_id]
        next_id += 1
    return merges


class TestWardCluster:
    def test_two_block_structure(self):
        # features 0,1 strongly correlated; 2,3 strongly correlated;
        # the blocks are nearly independent
        rng = np.random.default_rng(5)
        a = rng.normal(0, 1, 400)
        b = rng.normal(0, 1, 400)
        X = np.column_stack([a, a + 0.01 * rng.normal(0, 1, 400),
                             b, b + 0.01 * rng.normal(0, 1, 400)])
        corr = gbdt_explain.spearman_matrix(X)
        clus = gbdt_explain.ward_cluster(corr, threshold=0.5)
        assert clus.clusters == [[0, 1], [2, 3]]

    def test_threshold_zero_singletons(self):
        rng = np.random.default_rng(6)
        corr = gbdt_explain.spearman_matrix(rng.normal(0, 1, (100, 5)))
        clus = gbdt_explain.ward_cluster(corr, threshold=0.0)
        assert clus.clusters == [[0], [1], [2], [3], [4]]

    def test_huge_threshold_single_cluster(self):
        rng = np.random.default_rng(7)
        corr = gbdt_explain.spearman_matrix(rng.normal(0, 1, (100, 5)))
        clus = gbdt_explain.ward_cluster(corr, threshold=1e9)
        assert clus.clusters == [[0, 1, 2, 3, 4]]

    def test_merge_tree_matches_lance_williams_oracle(self):
        rng = np.random.default_rng(8)
        corr = gbdt_explain.spearman_matrix(rng.normal(0, 1, (200, 6)))
        clus = gbdt_explain.ward_cluster(corr)
        dist = 1.0 - corr
        np.fill_diagonal(dist, 0.0)
        merges = lance_williams_ward(dist)
        assert len(clus.merge_tree) == len(merges)
        for row, (_, _, h, size) in zip(clus.merge_tree, merges):
            assert row[2] == pytest.approx(h, rel=1e-10)
            assert int(row[3]) == size

    @pytest.mark.parametrize("n", [6, 37])
    def test_merge_tree_and_flat_clusters_match_scipy(self, n):
        rng = np.random.default_rng(n)
        corr = gbdt_explain.spearman_matrix(
            rng.normal(0, 1, (200, n)) @ rng.normal(0, 1, (n, n)))
        dist = np.clip(1.0 - corr, 0.0, None)
        np.fill_diagonal(dist, 0.0)
        condensed = squareform(dist, checks=False)
        assert np.unique(condensed).size == condensed.size  # no tied distances
        expected = linkage(condensed, method="ward")
        for t in (0.0, 0.5, 1.5, 1e9):
            clus = gbdt_explain.ward_cluster(corr, threshold=t)
            assert np.array_equal(clus.merge_tree[:, [0, 1, 3]], expected[:, [0, 1, 3]])
            assert np.allclose(clus.merge_tree[:, 2], expected[:, 2], rtol=1e-12, atol=0)
            groups = {}
            for i, label in enumerate(fcluster(expected, t=t, criterion="distance")):
                groups.setdefault(label, []).append(i)
            assert clus.clusters == sorted(groups.values())

    def test_tied_distances_merge_as_the_oracle(self):
        # a constant feature correlates 0 with every other: distance 1 to all
        rng = np.random.default_rng(10)
        X = rng.normal(0, 1, (100, 8))
        X[:, [1, 3, 4, 6]] = 1.0
        corr = gbdt_explain.spearman_matrix(X)
        dist = 1.0 - corr
        np.fill_diagonal(dist, 0.0)
        merges = lance_williams_ward(dist)
        tree = gbdt_explain.ward_cluster(corr).merge_tree
        assert [(int(a), int(b), int(size)) for a, b, _, size in tree] == \
            [(a, b, size) for a, b, _, size in merges]
        assert np.allclose(tree[:, 2], [h for _, _, h, _ in merges], rtol=1e-12, atol=0)

    def test_one_feature_one_cluster(self):
        clus = gbdt_explain.ward_cluster(np.ones((1, 1)))
        assert clus.merge_tree.shape == (0, 4)
        assert clus.clusters == [[0]]

    @pytest.mark.parametrize("corr", [np.ones((2, 3)), np.ones((0, 0)),
                                      np.array([[1.0, np.inf], [np.inf, 1.0]])],
                             ids=["non_square", "empty", "infinite"])
    def test_bad_matrix_rejected(self, corr):
        with pytest.raises(InputError):
            gbdt_explain.ward_cluster(corr)

    def test_asymmetric_rejected(self):
        m = np.eye(3)
        m[0, 1] = 0.5
        with pytest.raises(InputError):
            gbdt_explain.ward_cluster(m)

    def test_clusters_partition_features(self):
        rng = np.random.default_rng(9)
        corr = gbdt_explain.spearman_matrix(rng.normal(0, 1, (80, 7)))
        clus = gbdt_explain.ward_cluster(corr, threshold=0.8)
        flat = sorted(i for c in clus.clusters for i in c)
        assert flat == list(range(7))


class TestRepresentatives:
    def test_max_importance_per_cluster(self):
        clus = gbdt_explain.FeatureClustering(
            merge_tree=np.zeros((0, 4)), distance_threshold=1.0,
            clusters=[[0, 2], [1, 3, 4]])
        rep = gbdt_explain.ImportanceReport(
            names=[f"f{i}" for i in range(5)],
            mean_importance=np.array([0.1, 0.0, 0.4, 0.9, 0.2]),
            std_importance=np.zeros(5), repeats=1)
        assert gbdt_explain.select_representatives(clus, rep) == [2, 3]
        assert clus.representatives == [2, 3]

    def test_tie_goes_to_lowest_index(self):
        clus = gbdt_explain.FeatureClustering(
            merge_tree=np.zeros((0, 4)), distance_threshold=1.0,
            clusters=[[0, 1]])
        rep = gbdt_explain.ImportanceReport(
            names=["a", "b"], mean_importance=np.array([0.5, 0.5]),
            std_importance=np.zeros(2), repeats=1)
        assert gbdt_explain.select_representatives(clus, rep) == [0]

    def test_size_mismatch_rejected(self):
        clus = gbdt_explain.FeatureClustering(
            merge_tree=np.zeros((0, 4)), distance_threshold=1.0,
            clusters=[[0, 1, 2]])
        rep = gbdt_explain.ImportanceReport(
            names=["a"], mean_importance=np.array([0.5]),
            std_importance=np.zeros(1), repeats=1)
        with pytest.raises(InputError):
            gbdt_explain.select_representatives(clus, rep)



class TestTrainOnColumnSubset:
    """A model trained on a column slice, as after selecting cluster
    representatives, keeps the planted signal and gains none from noise."""

    def test_planted_column_alone_suffices(self):
        X, y = planted_dataset(600, 5, seed=11)
        model = gbdt.train(X[:400, [0]], y[:400], gbdt.GbdtConfig(30, 2, 0.2))
        assert (gbdt.predict(model, X[400:, [0]]) == y[400:]).mean() >= 0.95

    def test_noise_only_subset_near_chance(self):
        X, y = planted_dataset(600, 5, seed=12)
        model = gbdt.train(X[:400, [1, 2]], y[:400], gbdt.GbdtConfig(30, 2, 0.2))
        assert (gbdt.predict(model, X[400:, [1, 2]]) == y[400:]).mean() <= 0.65
