"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single pass/fail line (run with -s or -v to see them). The suite only uses
synthetic fixtures generated on the fly.
"""

import time

import numpy as np
import pytest
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from oracles import logistic_loss
from spoofkit import (attn_explain, bench, dsp, gbdt, gbdt_explain,
                      transformer as tr)
from spoofkit.dsp import AudioBuffer


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. DSP oracle equivalence

def test_criterion_01_dsp_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n_fft = dsp.N_FFT
    # naive DFT matrix oracle for the one-sided power spectrum
    k = np.arange(n_fft // 2 + 1)[:, None]
    n = np.arange(n_fft)[None, :]
    dft = np.exp(-2j * np.pi * k * n / n_fft)
    worst = 0.0
    for _ in range(200):
        x = rng.normal(0, 1, 320)
        got = dsp.power_spectrum(x * np.hanning(320), n_fft)
        xw = np.zeros(n_fft)
        xw[:320] = x * np.hanning(320)
        ref = np.abs(dft @ xw) ** 2
        worst = max(worst, np.abs(got - ref).max() / ref.max())
    assert worst <= 1e-9

    t = np.arange(dsp.SAMPLE_RATE) / dsp.SAMPLE_RATE
    # 400 Hz puts exactly 8 cycles in each 20 ms frame so per-frame rms is
    # the analytic 1/sqrt(2); the zero-padded final frame is excluded
    sine = AudioBuffer(np.sin(2 * np.pi * 400 * t), dsp.SAMPLE_RATE)
    frame_rms = dsp.spectral_scalars(sine)[:-1, 4]
    assert np.abs(frame_rms - 1 / np.sqrt(2)).max() <= 1e-3

    clip = AudioBuffer(0.1 * rng.standard_normal(8000), dsp.SAMPLE_RATE)
    first = dsp.extract_features(clip).values
    assert first.shape == (37,)
    for _ in range(99):
        again = dsp.extract_features(clip).values
        assert np.array_equal(again, first)
    elapsed = time.perf_counter() - t0
    report("criterion 1 (DSP oracle equivalence)", elapsed < 10,
           f"fft rel err {worst:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. GBDT correctness

def walk_tree(tree, x):
    """Independent traversal oracle: the value of the leaf `x` reaches."""
    node = 0
    while tree.feature[node] >= 0:
        go_left = x[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return tree.value[node]


def test_criterion_02_gbdt():
    t0 = time.perf_counter()
    assert gbdt.init_log_odds([1] * 50 + [0] * 50) == 0.0
    assert gbdt.init_log_odds([1] * 75 + [0] * 25) == pytest.approx(np.log(3))

    rng = np.random.default_rng(1)
    X = np.r_[rng.normal(-2, 1, (100, 2)), rng.normal(2, 1, (100, 2))]
    y = np.r_[np.zeros(100), np.ones(100)].astype(int)
    model = gbdt.train(X, y, gbdt.GbdtConfig(100, 3, 0.1))
    scores = np.full(y.size, model.f0)
    prev = logistic_loss(y, gbdt.sigmoid(scores))
    for tree in model.trees:
        scores = scores + 0.1 * np.array([walk_tree(tree, x) for x in X])
        cur = logistic_loss(y, gbdt.sigmoid(scores))
        assert cur <= prev + 1e-12
        prev = cur
    acc = (gbdt.predict(model, X) == y).mean()
    assert acc >= 0.99

    cells = [((0, 0), 0, 51), ((0, 1), 1, 50), ((1, 0), 1, 50), ((1, 1), 0, 50)]
    Xx = np.concatenate([np.tile(c, (n, 1)) for c, _, n in cells]).astype(float)
    yx = np.concatenate([np.full(n, lab) for _, lab, n in cells])
    stump_acc = (gbdt.predict(gbdt.train(Xx, yx, gbdt.GbdtConfig(100, 1, 0.1)),
                              Xx) == yx).mean()
    deep_acc = (gbdt.predict(gbdt.train(Xx, yx, gbdt.GbdtConfig(100, 2, 0.1)),
                             Xx) == yx).mean()
    assert stump_acc <= 0.6 and deep_acc >= 0.95
    elapsed = time.perf_counter() - t0
    report("criterion 2 (GBDT correctness)", elapsed < 30,
           f"blob acc {acc:.3f}, xor {stump_acc:.3f}/{deep_acc:.3f}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. Permutation importance fidelity

def test_criterion_03_permutation_importance():
    rng = np.random.default_rng(2)
    X = rng.normal(0, 1, (1000, 6))
    y = (X[:, 0] > 0).astype(int)
    model = gbdt.train(X, y, gbdt.GbdtConfig(50, 3, 0.1))
    rep = gbdt_explain.permutation_importance(model, X, y, repeats=20, seed=3)

    # independent reimplementation replicating the seeded shuffle stream
    ref_rng = np.random.default_rng(3)
    base = (gbdt.predict(model, X) == y).mean()
    for j in range(6):
        drops = []
        for _ in range(20):
            Xp = X.copy()
            Xp[:, j] = X[ref_rng.permutation(1000), j]
            drops.append(base - (gbdt.predict(model, Xp) == y).mean())
        assert rep.mean_importance[j] == np.mean(drops)

    used = {f for tree in model.trees for f in tree.feature}
    for j in range(6):
        if j not in used:
            assert rep.mean_importance[j] == 0.0
    planted = rep.mean_importance[0]
    assert abs(planted - 0.5) <= 0.05
    report("criterion 3 (permutation importance fidelity)", True,
           f"planted importance {planted:.3f}")


# ---------------------------------------------------------------------------
# 4. Clustering

def test_criterion_04_clustering():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (300, 5))
    corr = gbdt_explain.spearman_matrix(X)
    assert np.array_equal(corr, corr.T)
    # monotone transforms preserve ranks, so the matrix is identical
    Xm = X.copy()
    Xm[:, 2] = np.exp(Xm[:, 2])
    assert np.array_equal(gbdt_explain.spearman_matrix(Xm), corr)

    # duplicated columns merge first at height 0
    Xd = np.column_stack([X, X[:, 1]])
    cd = gbdt_explain.spearman_matrix(Xd)
    clustering = gbdt_explain.ward_cluster(cd, threshold=0.5)
    first = clustering.merge_tree[0]
    assert sorted(first[:2].astype(int).tolist()) == [1, 5]
    assert first[2] == pytest.approx(0.0, abs=1e-7)
    assert [1, 5] in clustering.clusters

    imp = gbdt_explain.ImportanceReport(
        [f"f{i}" for i in range(6)], rng.uniform(0, 1, 6), np.zeros(6), 1)
    reps = gbdt_explain.select_representatives(clustering, imp)
    assert len(reps) == len(clustering.clusters)
    for r, members in zip(reps, clustering.clusters):
        assert r in members
    assert len(set(reps)) == len(reps)
    report("criterion 4 (feature clustering)", True,
           f"{len(clustering.clusters)} clusters, transversal ok")


# ---------------------------------------------------------------------------
# 5. Transformer numerics

def tiny_transformer_config(seed):
    return tr.TransformerConfig(
        d_model=4, n_layers=2, n_heads=2, d_ff=6,
        geometry=tr.PatchGeometry(4, 3, 3, 3), input_shape=(4, 6),
        normalize_input=False, seed=seed)


def gradcheck_worst(seed):
    cfg = tiny_transformer_config(seed)
    model = tr.TransformerModel(cfg, tr.init_params(cfg))
    rng = np.random.default_rng(seed)
    specs = [rng.normal(0, 1, (4, 6)) for _ in range(2)]
    labels = np.array([0, 1])
    tokens, patches = tr.embed_dataset(specs, model)
    _, grads, _ = tr.loss_and_grads(model, tokens, patches, labels)
    eps = 1e-4
    worst = 0.0
    for name in tr.param_names(cfg):
        flat = model.params[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            tk, pt = tr.embed_dataset(specs, model)
            lp, _, _ = tr.loss_and_grads(model, tk, pt, labels)
            flat[i] = orig - eps
            tk, pt = tr.embed_dataset(specs, model)
            lm, _, _ = tr.loss_and_grads(model, tk, pt, labels)
            flat[i] = orig
            num = (lp - lm) / (2 * eps)
            ana = grads[name].ravel()[i]
            worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-7))
    return worst


def test_criterion_05_transformer_numerics():
    worst = max(gradcheck_worst(seed) for seed in (30, 31, 32))
    assert worst <= 1e-4

    rng = np.random.default_rng(5)
    data = []
    for i in range(200):
        spec = rng.normal(0, 0.1, (32, 32))
        if i % 2:
            spec[8:16, 4:28] += 1.0
        data.append((spec, i % 2))
    cfg = tr.TransformerConfig(
        d_model=16, n_layers=2, n_heads=2, d_ff=32,
        geometry=tr.PatchGeometry(16, 16, 16, 16), input_shape=(32, 32))
    t0 = time.perf_counter()
    model = tr.train_toy(data, cfg, tr.TrainConfig(steps=500))
    elapsed = time.perf_counter() - t0
    best_acc = max(acc for _, _, acc in model.history)
    assert best_acc >= 0.95
    assert elapsed < 60

    out = tr.forward(data[0][0], model)
    for layer in out.attention:
        assert np.abs(layer.sum(axis=-1) - 1.0).max() <= 1e-6
    report("criterion 5 (transformer numerics)", True,
           f"grad rel err {worst:.2e}, toy acc {best_acc:.3f} in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 6. Attention rollout

def test_criterion_06_rollout():
    rng = np.random.default_rng(6)
    for depth in range(1, 13):
        mats = []
        for _ in range(depth):
            a = rng.uniform(0.01, 1.0, (6, 6))
            mats.append(a / a.sum(axis=1, keepdims=True))
        rmap = attn_explain.rollout([m[None] for m in mats])
        ref = np.eye(6)
        for m in mats:
            ref = ref @ m
        assert np.abs(rmap.matrix - ref).max() <= 1e-9
        assert np.abs(rmap.matrix.sum(axis=1) - 1.0).max() <= 1e-6
    identity = attn_explain.rollout([np.eye(5)[None]] * 4)
    assert np.array_equal(identity.matrix, np.eye(5))
    assert identity.uniform_fallback
    report("criterion 6 (attention rollout)", True, "depths 1-12 vs oracle")


# ---------------------------------------------------------------------------
# 7. Occlusion

def test_criterion_07_occlusion():
    rng = np.random.default_rng(7)
    spec = rng.uniform(0.5, 1.5, (16, 16))

    def region_model(values):
        return 1.0 / (1.0 + np.exp(-values[8:12, 8:12].sum()))

    hm = attn_explain.occlusion_scan(lambda stack: [region_model(v) for v in stack], spec,
                                     box=(4, 4), stride=(4, 4))
    for r0, c0, bh, bw, delta in hm.boxes:
        intersects = r0 < 12 and r0 + bh > 8 and c0 < 12 and c0 + bw > 8
        assert (delta > 0.0) if intersects else (delta == 0.0)

    shuffled = list(hm.boxes)
    rng.shuffle(shuffled)
    assert np.array_equal(attn_explain.aggregate_boxes(shuffled, (16, 16)),
                          hm.importance)
    report("criterion 7 (occlusion)", True,
           "region deltas exact, scan order bitwise invariant")


def test_criterion_07b_padded_region_saliency():
    """Qualitative reproduction of the padded-input saliency artifact:
    occlusion importance concentrating on the zero-padded tail. Reported,
    tolerated to fail with an explanation."""
    rng = np.random.default_rng(8)
    data = []
    for i in range(16):
        tones = [(float(rng.uniform(200, 900)), 0.4)]
        if i % 2:
            tones.append((6200.0, 0.5))
        clip = bench.synth_clip(rng, 1.6, 0.3, 0.05, tones, [])
        data.append((dsp.mel_spectrogram(clip), i % 2))
    cfg = tr.TransformerConfig(
        input_shape=(128, 16), geometry=tr.PatchGeometry(16, 16, 16, 16))
    model = tr.train_toy(data, cfg, tr.TrainConfig(steps=100))

    short = bench.synth_clip(rng, 0.7, 0.3, 0.05,
                             [(float(rng.uniform(200, 900)), 0.4)], [])
    padded = bench.fit_clip_length(short, 1.6)
    spec = dsp.mel_spectrogram(padded)
    predict = lambda v: tr.forward(v, model).prob_spoof
    hm = attn_explain.occlusion_scan(lambda stack: [predict(v) for v in stack], spec)
    hot = max(hm.boxes, key=lambda b: b[4])
    pad_start_col = 7  # ceil(10 * 0.7): first all-padding spectrogram column
    overlaps = hot[1] + hot[3] > pad_start_col
    if overlaps:
        print("PASS criterion 7b (padded-region saliency): max-importance box "
              f"at col {hot[1]} width {hot[3]} overlaps the padded tail")
    else:
        print("FAIL-tolerated criterion 7b (padded-region saliency): "
              f"max-importance box at col {hot[1]} does not reach the padded "
              "tail; the toy model keys on the tone band instead of the "
              "padding statistics at this scale")


# ---------------------------------------------------------------------------
# 8. Metrics

def test_criterion_08_metrics():
    y = np.r_[np.ones(99), np.zeros(101)].astype(int)
    p = np.r_[np.full(85, 0.9), np.full(14, 0.1),
              np.full(15, 0.9), np.full(86, 0.1)]
    rep = bench.evaluate(y, p)
    assert (rep.tp, rep.fp, rep.fn, rep.tn) == (85, 15, 14, 86)
    assert abs(rep.per_class["spoof"]["precision"] - 0.85) <= 1e-12
    assert abs(rep.per_class["spoof"]["recall"] - 85 / 99) <= 1e-12
    assert abs(rep.accuracy - 0.855) <= 1e-12

    rng = np.random.default_rng(9)
    checked = 0
    while checked < 50:
        yy = rng.integers(0, 2, 40)
        if yy.min() == yy.max():
            continue
        s = rng.normal(0, 1, 40)
        base = bench.roc_auc(yy, s)
        assert abs(base - bench.roc_auc(yy, np.exp(s))) <= 1e-12
        assert abs(base - bench.roc_auc(yy, 10 * s - 3)) <= 1e-12
        checked += 1
    report("criterion 8 (metrics)", True,
           "hand counts exact, AUC rank-invariant on 50 vectors")


# ---------------------------------------------------------------------------
# 9. Generalizability benchmark

def test_criterion_09_generalization(tmp_path):
    t0 = time.perf_counter()
    a, b = bench.make_generalization_corpora(tmp_path / "gen", seed=0)
    detectors = {
        "gbdt": bench.gbdt_detector(bench.STUDY_GBDT),
        "transformer": bench.transformer_detector(tr.TransformerConfig(),
                                                  bench.STUDY_TRAIN),
    }
    reports, _ = bench.run_generalization(a, b, detectors, balance_n=30)
    acc = {(r.model_id, r.dataset_id.split(" ")[1]): r.accuracy
           for r in reports}
    gbdt_drop = acc[("gbdt", "(in-domain)")] - acc[("gbdt", "(cross-domain)")]
    tr_drop = acc[("transformer", "(in-domain)")] - \
        acc[("transformer", "(cross-domain)")]
    elapsed = time.perf_counter() - t0
    assert gbdt_drop >= 0.15
    assert tr_drop < gbdt_drop
    assert elapsed < 300
    report("criterion 9 (generalizability benchmark)", True,
           f"gbdt drop {gbdt_drop:.3f}, transformer drop {tr_drop:.3f}, "
           f"{elapsed:.0f} s")


# ---------------------------------------------------------------------------
# 10. Augmentation study

def test_criterion_10_augmentation(tmp_path):
    manifest = bench.make_augmentation_corpus(tmp_path / "aug", seed=0)
    models = {"gbdt": bench.gbdt_detector(bench.STUDY_GBDT)}
    reports, _ = bench.run_augmentation_study(
        manifest, ["identity", "codec"], models)
    identity, codec = reports
    again, _ = bench.run_augmentation_study(manifest, ["identity"], models)
    assert identity.to_dict() == again[0].to_dict()
    assert identity.accuracy >= 0.9
    assert codec.accuracy <= 0.6
    report("criterion 10 (augmentation study)", True,
           f"identity {identity.accuracy:.3f}, codec {codec.accuracy:.3f}")
