import json

import numpy as np
import pytest

from spoofkit import transformer as tr
from spoofkit.errors import InputError


def tiny_config(**kw):
    base = dict(
        d_model=4, n_layers=1, n_heads=2, d_ff=6,
        geometry=tr.PatchGeometry(4, 3, 3, 3),
        input_shape=(4, 6), normalize_input=False, seed=0)
    base.update(kw)
    return tr.TransformerConfig(**base)


def naive_attention(Q, K, V):
    """Three-loop scaled dot-product attention oracle."""
    T, dk = Q.shape
    out = np.zeros((T, dk))
    W = np.zeros((T, T))
    for i in range(T):
        scores = np.array([Q[i] @ K[j] / np.sqrt(dk) for j in range(T)])
        e = np.exp(scores - scores.max())
        w = e / e.sum()
        W[i] = w
        for j in range(T):
            out[i] += w[j] * V[j]
    return out, W


class TestPatchGeometry:
    def test_grid_128x60_stride16(self):
        g = tr.PatchGeometry(16, 16, 16, 16)
        assert g.grid(128, 60) == (8, 3)

    def test_25_tokens_including_cls(self):
        cfg = tr.TransformerConfig(
            geometry=tr.PatchGeometry(16, 16, 16, 16), input_shape=(128, 60))
        assert cfg.n_patches == 24
        assert cfg.n_tokens == 25

    def test_full_spectrogram_patch_single_token(self):
        g = tr.PatchGeometry(128, 60, 1, 1)
        assert g.grid(128, 60) == (1, 1)

    def test_too_small_rejected(self):
        with pytest.raises(InputError):
            tr.PatchGeometry(16, 16, 10, 10).grid(12, 60)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(InputError):
            tr.PatchGeometry(0, 16, 10, 10)

    def test_count_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            H, W = rng.integers(4, 50, 2)
            ph = int(rng.integers(1, H + 1))
            pw = int(rng.integers(1, W + 1))
            sh = int(rng.integers(1, 8))
            sw = int(rng.integers(1, 8))
            g = tr.PatchGeometry(ph, pw, sh, sw)
            # brute-force count of window positions that fit
            n_rows = sum(1 for r in range(0, H) if r % sh == 0 and r + ph <= H)
            n_cols = sum(1 for c in range(0, W) if c % sw == 0 and c + pw <= W)
            assert g.grid(int(H), int(W)) == (n_rows, n_cols)
            values = rng.normal(0, 1, (int(H), int(W)))
            patches, rows, cols = tr.extract_patches(values, g)
            assert (rows, cols) == (n_rows, n_cols)
            assert patches.shape == (n_rows * n_cols, ph * pw)


def naive_patches(values, g):
    """Double-loop patch extraction oracle, row-major over window positions."""
    H, W = values.shape
    out = []
    for r0 in range(0, H - g.patch_h + 1, g.stride_h):
        for c0 in range(0, W - g.patch_w + 1, g.stride_w):
            out.append(values[r0:r0 + g.patch_h, c0:c0 + g.patch_w].ravel())
    return np.array(out)


class TestPatchOracles:
    def test_extract_patches_matches_naive_double_loop(self):
        rng = np.random.default_rng(7)
        for i in range(100):
            H, W = (int(v) for v in rng.integers(4, 40, 2))
            ph = int(rng.integers(1, H + 1))
            pw = int(rng.integers(1, W + 1))
            # strides below, equal to and above the patch size
            sh = max(1, ph + (i % 3 - 1) * int(rng.integers(1, 4)))
            sw = max(1, pw + (i // 3 % 3 - 1) * int(rng.integers(1, 4)))
            g = tr.PatchGeometry(ph, pw, sh, sw)
            values = rng.normal(0, 1, (H, W))
            patches, rows, cols = tr.extract_patches(values, g)
            expected = naive_patches(values, g)
            assert patches.shape == expected.shape == (rows * cols, ph * pw)
            assert np.array_equal(patches, expected)

    def test_token_time_spans_match_naive_loop(self):
        cases = [(tr.PatchGeometry(16, 16, 10, 10), 12, 5, 10.0),
                 (tr.PatchGeometry(4, 3, 3, 2), 1, 7, 0.1),
                 (tr.PatchGeometry(2, 5, 1, 7), 3, 1, 1.0)]
        for g, n_rows, n_cols, hop in cases:
            expected = []
            for _ in range(n_rows):
                for c in range(n_cols):
                    expected.append((c * g.stride_w * hop,
                                     (c * g.stride_w + g.patch_w) * hop))
            assert tr.token_time_spans(g, n_rows, n_cols, hop) == expected

    def test_embed_dataset_rows_equal_embed(self):
        rng = np.random.default_rng(8)
        tiny_specs = [rng.normal(0, 1, (4, 6)) for _ in range(3)]
        for cfg, specs in ((tiny_config(), tiny_specs),
                           (toy_config(), [s for s, _ in toy_dataset(6)])):
            model = tr.TransformerModel(cfg, tr.init_params(cfg))
            tokens, patches = tr.embed_dataset(specs, model)
            for i, spec in enumerate(specs):
                tok, pat, _ = tr.embed(spec, model)
                assert np.array_equal(tokens[i], tok)
                assert np.array_equal(patches[i], pat)


class TestPatchify:
    def test_patch_contents_row_major(self):
        values = np.arange(24, dtype=float).reshape(4, 6)
        g = tr.PatchGeometry(2, 3, 2, 3)
        patches, rows, cols = tr.extract_patches(values, g)
        assert (rows, cols) == (2, 2)
        assert np.array_equal(patches[0], values[0:2, 0:3].ravel())
        assert np.array_equal(patches[1], values[0:2, 3:6].ravel())
        assert np.array_equal(patches[2], values[2:4, 0:3].ravel())

    def test_token_time_spans_monotone_by_column(self):
        g = tr.PatchGeometry(16, 16, 16, 16)
        spans = tr.token_time_spans(g, 2, 3, hop_ms=100.0)
        assert spans[0] == (0.0, 1600.0)
        assert spans[1] == (1600.0, 3200.0)
        assert spans[3] == (0.0, 1600.0)  # next patch row restarts in time
        for r in range(2):
            starts = [spans[r * 3 + c][0] for c in range(3)]
            assert starts == sorted(starts)

    def test_cls_prepended_and_token_count(self):
        cfg = tiny_config()
        model = tr.TransformerModel(cfg, tr.init_params(cfg))
        rng = np.random.default_rng(1)
        tokens, _, spans = tr.embed(rng.normal(0, 1, (4, 6)), model)
        assert tokens.shape == (cfg.n_tokens, cfg.d_model)
        assert len(spans) == cfg.n_patches

    def test_wrong_size_spectrogram_rejected(self):
        cfg = tiny_config()
        model = tr.TransformerModel(cfg, tr.init_params(cfg))
        with pytest.raises(InputError):
            tr.embed(np.zeros((4, 9)), model)  # 3 patches, model expects 2

    def test_heads_must_divide_d_model(self):
        with pytest.raises(InputError):
            tiny_config(d_model=5, n_heads=2)

    def test_zero_heads_rejected(self):
        with pytest.raises(InputError):
            tiny_config(n_heads=0)

    def test_normalize_spec(self):
        rng = np.random.default_rng(2)
        v = tr.normalize_spec(rng.normal(3, 7, (20, 20)))
        assert abs(v.mean()) < 1e-12
        assert v.std() == pytest.approx(1.0)
        const = tr.normalize_spec(np.full((4, 4), 2.5))
        assert np.array_equal(const, np.zeros((4, 4)))


class TestAttention:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        Q, K, V = rng.normal(0, 1, (3, 5, 4))
        out, W = tr.attention(Q, K, V)
        ref_out, ref_W = naive_attention(Q, K, V)
        assert np.allclose(out, ref_out, atol=1e-9)
        assert np.allclose(W, ref_W, atol=1e-9)

    def test_one_hot_attention_selects_value_row(self):
        # queries aligned with a single huge key pick out that value
        d = 4
        K = np.eye(d) * 50.0
        Q = np.eye(d) * 50.0
        V = np.arange(16, dtype=float).reshape(4, 4)
        out, W = tr.attention(Q, K, V)
        assert np.allclose(np.diag(W), 1.0, atol=1e-6)
        assert np.allclose(out, V, atol=1e-4)

    def test_zero_scores_uniform_rows(self):
        Q = np.zeros((5, 4))
        K = np.random.default_rng(4).normal(0, 1, (5, 4))
        V = np.random.default_rng(5).normal(0, 1, (5, 4))
        out, W = tr.attention(Q, K, V)
        assert np.allclose(W, 0.2)
        assert np.allclose(out, np.tile(V.mean(axis=0), (5, 1)))

    def test_rows_stochastic(self):
        rng = np.random.default_rng(6)
        Q, K, V = rng.normal(0, 2, (3, 7, 6))
        _, W = tr.attention(Q, K, V)
        assert np.allclose(W.sum(axis=-1), 1.0)
        assert W.min() >= 0.0


class TestMultiHead:
    def test_matches_per_head_slices(self):
        cfg = tiny_config(d_model=6, n_heads=3)
        params = tr.init_params(cfg)
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (2, 5, 6))
        out, weights, _ = tr.multi_head(X, params, 0, 3)
        dk = 2
        ref = np.zeros((2, 5, 6))
        for b in range(2):
            heads = []
            for h in range(3):
                sl = slice(h * dk, (h + 1) * dk)
                Q = X[b] @ params["l0.wq"][:, sl]
                K = X[b] @ params["l0.wk"][:, sl]
                V = X[b] @ params["l0.wv"][:, sl]
                o, W = naive_attention(Q, K, V)
                heads.append(o)
                assert np.allclose(weights[b, h], W, atol=1e-9)
            ref[b] = np.concatenate(heads, axis=-1) @ params["l0.wo"]
        assert np.allclose(out, ref, atol=1e-9)


class TestEncoderLayer:
    def zeroed_params(self, cfg):
        p = tr.init_params(cfg)
        for k in ("wq", "wk", "wv", "wo", "w1", "w2"):
            p[f"l0.{k}"] = np.zeros_like(p[f"l0.{k}"])
        return p

    def test_zero_sublayers_is_double_layernorm(self):
        cfg = tiny_config(d_model=8, n_heads=2, n_layers=1)
        p = self.zeroed_params(cfg)
        rng = np.random.default_rng(8)
        X = rng.normal(2, 3, (1, 3, 8))
        z, _, _ = tr.encoder_layer(X, p, 0, 2)
        ln1, _, _ = tr.layer_norm(X, p["l0.ln1_g"], p["l0.ln1_b"])
        ln2, _, _ = tr.layer_norm(ln1, p["l0.ln2_g"], p["l0.ln2_b"])
        assert np.allclose(z, ln2)
        assert np.all(np.abs(z.mean(axis=-1)) <= 1e-6)
        assert np.all(np.abs(z.var(axis=-1) - 1.0) <= 1e-5)

    def test_stage_composition_oracle(self):
        cfg = tiny_config(d_model=8, n_heads=2, n_layers=1, d_ff=12)
        p = tr.init_params(cfg)
        rng = np.random.default_rng(9)
        X = rng.normal(0, 1, (2, 4, 8))
        z, _, _ = tr.encoder_layer(X, p, 0, 2)
        mh, _, _ = tr.multi_head(X, p, 0, 2)
        y, _, _ = tr.layer_norm(X + mh, p["l0.ln1_g"], p["l0.ln1_b"])
        f, _ = tr.ffn(y, p, 0)
        ref, _, _ = tr.layer_norm(y + f, p["l0.ln2_g"], p["l0.ln2_b"])
        assert np.array_equal(z, ref)

    def test_layer_norm_stats_pre_affine(self):
        rng = np.random.default_rng(10)
        x = rng.normal(5, 4, (3, 7, 16))
        _, xhat, _ = tr.layer_norm(x, np.ones(16), np.zeros(16))
        assert np.all(np.abs(xhat.mean(axis=-1)) <= 1e-6)
        assert np.all(np.abs(xhat.var(axis=-1) - 1.0) <= 1e-5)


class TestForward:
    def test_contract_on_random_fixtures(self):
        cfg = tiny_config(n_layers=2)
        model = tr.TransformerModel(cfg, tr.init_params(cfg))
        rng = np.random.default_rng(11)
        for _ in range(50):
            out = tr.forward(rng.normal(0, 1, (4, 6)), model)
            assert 0.0 <= out.prob_spoof <= 1.0
            assert out.logits.shape == (2,)
            assert out.cls_final.shape == (cfg.d_model,)
            assert out.attention.n_layers() == 2
            for layer in out.attention.layers:
                assert layer.shape == (2, cfg.n_tokens, cfg.n_tokens)
                assert np.allclose(layer.sum(axis=-1), 1.0)
            assert len(out.token_time_spans) == cfg.n_patches

    def test_prob_matches_softmax_of_logits(self):
        cfg = tiny_config()
        model = tr.TransformerModel(cfg, tr.init_params(cfg))
        out = tr.forward(np.random.default_rng(12).normal(0, 1, (4, 6)), model)
        assert out.prob_spoof == pytest.approx(tr.softmax(out.logits)[1])

    def test_token_permutation_consistency(self):
        # the encoder is equivariant in non-CLS tokens; swapping two embedded
        # tokens leaves the CLS logits unchanged up to float reassociation
        cfg = tr.TransformerConfig(
            d_model=8, n_layers=2, n_heads=2, d_ff=16,
            geometry=tr.PatchGeometry(4, 3, 3, 3), input_shape=(4, 9),
            normalize_input=False, seed=1)
        model = tr.TransformerModel(cfg, tr.init_params(cfg))
        rng = np.random.default_rng(13)
        tokens, _, _ = tr.embed(rng.normal(0, 1, (4, 9)), model)
        logits, _, _ = tr.forward_batch(model, tokens[None])
        swapped = tokens.copy()
        swapped[[1, 3]] = swapped[[3, 1]]
        logits2, _, _ = tr.forward_batch(model, swapped[None])
        assert np.allclose(logits, logits2, atol=1e-12)

    def test_all_equal_tokens_uniform_attention(self):
        cfg = tiny_config()
        model = tr.TransformerModel(cfg, tr.init_params(cfg))
        T = cfg.n_tokens
        tokens = np.tile(np.full(cfg.d_model, 0.7), (T, 1))
        _, attn, _ = tr.forward_batch(model, tokens[None])
        for layer in attn:
            assert np.allclose(layer, 1.0 / T, atol=1e-6)


class TestGradients:
    def relative_errors(self, seed):
        cfg = tiny_config(n_layers=2)
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
                rel = abs(num - ana) / max(abs(num), abs(ana), 1e-7)
                worst = max(worst, rel)
        return worst

    @pytest.mark.parametrize("seed", [20, 21, 22])
    def test_finite_difference_check(self, seed):
        assert self.relative_errors(seed) <= 1e-4


def toy_dataset(n=40, seed=0):
    """32x32 spectrograms; spoof clips carry a bright fixed region."""
    rng = np.random.default_rng(seed)
    data = []
    for i in range(n):
        spec = rng.normal(0, 0.1, (32, 32))
        label = i % 2
        if label == 1:
            spec[8:16, 4:28] += 1.0
        data.append((spec, label))
    return data


def toy_config(seed=0):
    return tr.TransformerConfig(
        d_model=16, n_layers=2, n_heads=2, d_ff=32,
        geometry=tr.PatchGeometry(16, 16, 16, 16), input_shape=(32, 32),
        seed=seed)


class TestTraining:
    def test_toy_task_high_accuracy(self):
        model = tr.train_toy(toy_dataset(), toy_config(),
                             tr.TrainConfig(steps=60))
        _, _, acc = model.history[-1]
        assert acc >= 0.95
        assert len(model.history) == 60

    def test_loss_decreases_overall(self):
        model = tr.train_toy(toy_dataset(), toy_config(),
                             tr.TrainConfig(steps=60))
        losses = [l for _, l, _ in model.history]
        assert losses[-1] < losses[0]

    def test_zero_learning_rate_keeps_init(self):
        cfg = toy_config(seed=4)
        model = tr.train_toy(toy_dataset(8), cfg,
                             tr.TrainConfig(steps=3, learning_rate=0.0))
        init = tr.init_params(cfg)
        for k in tr.param_names(cfg):
            assert np.array_equal(model.params[k], init[k])

    def test_determinism(self):
        a = tr.train_toy(toy_dataset(12), toy_config(),
                         tr.TrainConfig(steps=5))
        b = tr.train_toy(toy_dataset(12), toy_config(),
                         tr.TrainConfig(steps=5))
        assert tr.to_json(a) == tr.to_json(b)

    def test_single_class_rejected(self):
        data = [(s, 1) for s, _ in toy_dataset(6)]
        with pytest.raises(InputError):
            tr.train_toy(data, toy_config())

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            tr.train_toy([], toy_config())

    def test_predict_proba_shape_and_range(self):
        data = toy_dataset(10)
        model = tr.train_toy(data, toy_config(), tr.TrainConfig(steps=10))
        probs = tr.predict_proba(model, [s for s, _ in data])
        assert probs.shape == (10,)
        assert probs.min() >= 0.0 and probs.max() <= 1.0


class TestSerialization:
    def test_roundtrip_identical_predictions(self):
        data = toy_dataset(10, seed=5)
        model = tr.train_toy(data, toy_config(), tr.TrainConfig(steps=5))
        back = tr.from_json(tr.to_json(model))
        specs = [s for s, _ in data]
        assert np.array_equal(tr.predict_proba(back, specs),
                              tr.predict_proba(model, specs))
        assert back.config == model.config

    def test_wrong_kind_rejected(self):
        with pytest.raises(InputError):
            tr.from_json('{"kind": "gbdt"}')

    def tiny_doc(self):
        cfg = tiny_config()
        return json.loads(tr.to_json(tr.TransformerModel(cfg, tr.init_params(cfg))))

    def test_missing_key_rejected(self):
        doc = self.tiny_doc()
        del doc["config"]["d_ff"]
        with pytest.raises(InputError, match="d_ff"):
            tr.from_json(json.dumps(doc))

    def test_format_version_checked(self):
        doc = self.tiny_doc()
        doc["format_version"] = tr.PARAMS_FORMAT_VERSION + 1
        with pytest.raises(InputError, match="format_version"):
            tr.from_json(json.dumps(doc))

    def test_not_json_rejected(self):
        with pytest.raises(InputError, match="not valid JSON"):
            tr.from_json("{not json")

    def test_mismatched_param_shape_rejected(self):
        doc = self.tiny_doc()
        doc["params"]["cls"]["shape"] = [3]
        with pytest.raises(InputError, match="malformed"):
            tr.from_json(json.dumps(doc))
