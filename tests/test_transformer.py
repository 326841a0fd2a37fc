import json

import numpy as np
import pytest

from spoofkit import dsp
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
            patches = tr.extract_patches(values, g)
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
            patches = tr.extract_patches(values, g)
            expected = naive_patches(values, g)
            rows, cols = g.grid(H, W)
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

    def test_stacked_embedding_rows_equal_lone_ones(self):
        rng = np.random.default_rng(8)
        tiny_specs = [rng.normal(0, 1, (4, 6)) for _ in range(3)]
        toy_specs = [s for s, _ in toy_dataset(6)]
        for cfg, specs in ((tiny_config(), tiny_specs), (toy_config(), toy_specs),
                           (toy_config(), [np.asfortranarray(s) for s in toy_specs])):
            model = tr.TransformerModel(cfg, tr.init_params(cfg))
            tokens, patches = tr.embed_dataset(specs, model)
            for i, spec in enumerate(specs):
                tok, pat = tr.embed_dataset([spec], model)
                assert np.array_equal(tokens[i], tok[0])
                assert np.array_equal(patches[i], pat[0])

    def test_normalize_spec_rows_equal_one_clip(self):
        # each spectrogram of a stack gets the bits it gets alone, row- or
        # column-major (as dsp's Mel spectrograms are), constant or not
        rng = np.random.default_rng(9)
        clips = [rng.normal(3, 7, (20, 13)) for _ in range(3)] + [np.full((20, 13), 2.5)]
        for layout in (np.ascontiguousarray, np.asfortranarray):
            specs = [layout(c) for c in clips]
            batch = tr.normalize_spec(tr._values(specs))
            for row, spec in zip(batch, specs):
                std = spec.std()
                alone = spec - spec.mean() if std == 0 else (spec - spec.mean()) / std
                assert np.array_equal(row, alone)
                assert np.array_equal(row, tr.normalize_spec(spec))

    def test_predict_proba_on_a_stack_matches_forward(self):
        model = tr.train_toy(toy_dataset(8), toy_config(), tr.TrainConfig(steps=20))
        specs = [s for s, _ in toy_dataset(5, seed=3)] + [np.full((32, 32), -1.5)]
        probs = tr.predict_proba(model, np.stack(specs))
        assert probs.shape == (len(specs),)
        for p, spec in zip(probs, specs):
            assert abs(p - tr.forward(spec, model).prob_spoof) <= 1e-12

    def test_spectrograms_of_unequal_shape_rejected(self):
        model = tr.TransformerModel(tiny_config(), tr.init_params(tiny_config()))
        with pytest.raises(InputError, match="one shape"):
            tr.embed_dataset([np.zeros((4, 6)), np.zeros((4, 7))], model)


class TestPatchify:
    def test_patch_contents_row_major(self):
        values = np.arange(24, dtype=float).reshape(4, 6)
        g = tr.PatchGeometry(2, 3, 2, 3)
        patches = tr.extract_patches(values, g)
        assert patches.shape == (4, 6)
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
        spec = np.random.default_rng(1).normal(0, 1, (4, 6))
        tokens, patches = tr.embed_dataset([spec], model)
        assert tokens.shape == (1, cfg.n_tokens, cfg.d_model)
        assert np.array_equal(tokens[0, 0], model.params["cls"] + model.params["pos"][0])
        assert patches.shape == (1, cfg.n_patches, 4 * 3)
        assert len(tr.forward(spec, model).token_time_spans) == cfg.n_patches

    def test_wrong_size_spectrogram_rejected(self):
        cfg = tiny_config()
        model = tr.TransformerModel(cfg, tr.init_params(cfg))
        for call in (lambda s: tr.embed_dataset([s], model), lambda s: tr.forward(s, model)):
            with pytest.raises(InputError, match="3 patches; model expects 2"):
                call(np.zeros((4, 9)))

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


class TestOneBufferOps:
    # softmax, its backward and layer_norm reuse their buffers; the operations
    # and their order are those of the plain spellings
    def test_softmax_bitwise_equal_to_plain(self):
        z = np.random.default_rng(14).normal(0, 4, (6, 2, 9, 9))
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        assert np.array_equal(tr.softmax(z), e / e.sum(axis=-1, keepdims=True))

    def test_softmax_backward_bitwise_equal_to_plain(self):
        rng = np.random.default_rng(15)
        A = tr.softmax(rng.normal(0, 2, (6, 2, 9, 9)))
        dA = rng.normal(0, 1, A.shape)
        ref = A * (dA - (dA * A).sum(axis=-1, keepdims=True))
        assert np.array_equal(tr._softmax_backward(dA, A), ref)

    def test_layer_norm_bitwise_equal_to_np_var(self):
        rng = np.random.default_rng(16)
        x = rng.normal(3, 2, (5, 9, 16))
        gamma, beta = rng.normal(size=16), rng.normal(size=16)
        std = np.sqrt(x.var(axis=-1, keepdims=True) + tr.LN_EPS)
        xhat = (x - x.mean(axis=-1, keepdims=True)) / std
        out, got_hat, got_std = tr.layer_norm(x, gamma, beta)
        assert np.array_equal(got_std, std)
        assert np.array_equal(got_hat, xhat)
        assert np.array_equal(out, gamma * xhat + beta)


class TestMultiHead:
    def test_matches_per_head_slices(self):
        # the attention half of `encoder_layer`: its cached head concatenation
        # through the output projection
        cfg = tiny_config(d_model=6, n_heads=3)
        params = tr.init_params(cfg)
        rng = np.random.default_rng(7)
        X = rng.normal(0, 1, (2, 5, 6))
        _, weights, cache = tr.encoder_layer(X, params, 0, 3)
        out = cache[1][-1] @ params["l0.wo"]
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
        z, weights, _ = tr.encoder_layer(X, p, 0, 2)
        Q, K, V = (tr._split_heads(X @ p[f"l0.{w}"], 2) for w in ("wq", "wk", "wv"))
        out, ref_weights = tr.attention(Q, K, V)
        mh = tr._merge_heads(out) @ p["l0.wo"]
        y, _, _ = tr.layer_norm(X + mh, p["l0.ln1_g"], p["l0.ln1_b"])
        f, _ = tr.ffn(y, p, 0)
        ref, _, _ = tr.layer_norm(y + f, p["l0.ln2_g"], p["l0.ln2_b"])
        assert np.array_equal(weights, ref_weights)
        assert np.array_equal(z, ref)

    @pytest.mark.parametrize("B", [1, 2, 5])
    def test_dense_half_on_rows_equals_full_block_rows(self, B):
        # the last block's CLS rows, bit for bit those of the full block;
        # attention and its cache still cover every token
        cfg = tiny_config(d_model=8, n_heads=2, n_layers=1, d_ff=12)
        p = tr.init_params(cfg)
        X = np.random.default_rng(B).normal(0, 1, (B, 4, 8))
        rows = tr._cls_rows(B)
        z, weights, cache = tr.encoder_layer(X, p, 0, 2, rows)
        full, full_weights, full_cache = tr.encoder_layer(X, p, 0, 2)
        assert np.array_equal(z, full[rows])
        assert np.array_equal(weights, full_weights)
        for part, full_part in zip(cache[1], full_cache[1]):
            assert np.array_equal(part, full_part)

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
            assert len(out.attention) == 2
            for layer in out.attention:
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
        tokens, _ = tr.embed_dataset([rng.normal(0, 1, (4, 9))], model)
        logits, _, _ = tr.forward_batch(model, tokens)
        swapped = tokens.copy()
        swapped[0, [1, 3]] = swapped[0, [3, 1]]
        logits2, _, _ = tr.forward_batch(model, swapped)
        assert np.allclose(logits, logits2, atol=1e-12)

    def test_token_time_spans_in_ms_at_the_log_mel_hop(self):
        # the spans follow the model's patch grid in log-Mel columns of
        # MEL_SPEC_HOP_MS, whatever array the spectrogram arrives as
        cfg = tr.TransformerConfig(input_shape=(128, 32))
        model = tr.TransformerModel(cfg, tr.init_params(cfg))
        hop = dsp.MEL_SPEC_HOP_MS
        expected = [(0.0, 16 * hop), (16 * hop, 32 * hop)] * 8
        clip = np.random.default_rng(3).normal(0, 0.1, 51200)
        log_mel = dsp.mel_spectrogram(clip)
        for spec in (log_mel, np.ascontiguousarray(log_mel), log_mel.tolist()):
            assert tr.forward(spec, model).token_time_spans == expected

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

    @pytest.mark.parametrize("name,value", [
        ("learning_rate", -0.01), ("learning_rate", np.inf), ("learning_rate", np.nan),
        ("weight_decay", -5.0), ("weight_decay", np.inf), ("weight_decay", np.nan)])
    def test_negative_or_non_finite_rates_rejected(self, name, value):
        with pytest.raises(InputError, match=name):
            tr.TrainConfig(**{name: value})

    def test_determinism(self):
        a = tr.train_toy(toy_dataset(12), toy_config(),
                         tr.TrainConfig(steps=5))
        b = tr.train_toy(toy_dataset(12), toy_config(),
                         tr.TrainConfig(steps=5))
        assert tr.to_json(a) == tr.to_json(b)

    def test_single_class_rejected(self):
        data = [(s, 1) for s, _ in toy_dataset(6)]
        with pytest.raises(InputError):
            tr.train_toy(data, toy_config(), tr.TrainConfig())

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            tr.train_toy([], toy_config(), tr.TrainConfig())

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

    @pytest.mark.parametrize("edit,match", [
        (lambda p: p.pop("l0.wq"), "l0.wq"),
        (lambda p: p.update(extra={"shape": [1], "data": [0.0]}), "extra"),
        (lambda p: p.update(cls={"shape": [3], "data": [0.0] * 3}), "cls"),
    ], ids=["missing", "unexpected", "cls_shape"])
    def test_param_names_and_shapes_checked(self, monkeypatch, edit, match):
        doc = self.tiny_doc()
        edit(doc["params"])
        # expected shapes follow from the config; no parameters are drawn
        monkeypatch.setattr(tr, "init_params", None)
        with pytest.raises(InputError, match=match):
            tr.from_json(json.dumps(doc))

    def test_non_integer_config_rejected(self):
        doc = self.tiny_doc()
        doc["config"]["input_shape"] = [4, 6.0]
        with pytest.raises(InputError, match="malformed"):
            tr.from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# Bitwise oracle of the backward: the weight-gradient contractions in their
# plain spellings. When its inner loop runs over an output axis, `np.einsum`
# adds up every output element one product at a time over (b, t), whichever
# output axis that is, so the spellings in `transformer` must give these
# bits exactly.

def oracle_layer_norm_backward(dz, xhat, std, gamma):
    # the gain and bias gradients summed over (b, t) of full-width arrays
    dxhat = dz * gamma
    dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / std
    return dx, (dz * xhat).sum(axis=(0, 1)), dz.sum(axis=(0, 1))


def oracle_layer_backward(dz, params, layer, n_heads, cache, grads):
    X, (Q, K, V, weights, concat), y, y_hat, y_std, (pre, hidden), z_hat, z_std = cache
    p = {k[len(f"l{layer}."):]: v for k, v in params.items()
         if k.startswith(f"l{layer}.")}
    g = {k[len(f"l{layer}."):]: v for k, v in grads.items()
         if k.startswith(f"l{layer}.")}
    dv, dg2, db2 = oracle_layer_norm_backward(dz, z_hat, z_std, p["ln2_g"])
    g["ln2_g"] += dg2
    g["ln2_b"] += db2
    g["w2"] += np.einsum("btf,btd->fd", hidden, dv)
    g["b2"] += dv.sum(axis=(0, 1))
    dpre = (dv @ p["w2"].T) * (pre > 0)
    g["w1"] += np.einsum("btd,btf->df", y, dpre)
    g["b1"] += dpre.sum(axis=(0, 1))
    dy = dv + dpre @ p["w1"].T
    du, dg1, db1 = oracle_layer_norm_backward(dy, y_hat, y_std, p["ln1_g"])
    g["ln1_g"] += dg1
    g["ln1_b"] += db1
    g["wo"] += np.einsum("btd,bte->de", concat, du)
    dout = tr._split_heads(du @ p["wo"].T, n_heads)
    dA = dout @ np.swapaxes(V, -1, -2)
    dS = weights * (dA - (dA * weights).sum(axis=-1, keepdims=True))
    dV = np.swapaxes(weights, -1, -2) @ dout
    scale = 1.0 / np.sqrt(Q.shape[-1])
    dQ = dS @ K * scale
    dK = np.swapaxes(dS, -1, -2) @ Q * scale
    dX = du.copy()
    for name, dproj in (("wq", dQ), ("wk", dK), ("wv", dV)):
        flat = tr._merge_heads(dproj)
        g[name] += np.einsum("btd,bte->de", X, flat)
        dX += flat @ p[name].T
    return dX


def oracle_forward(model, tokens):
    """Full-width forward: `tr.encoder_layer` on every block and every token,
    and the head on the CLS column. Returns (logits, attention, caches, cls)."""
    cfg, params = model.config, model.params
    X, caches, attn = tokens, [], []
    for i in range(cfg.n_layers):
        X, weights, cache = tr.encoder_layer(X, params, i, cfg.n_heads)
        caches.append(cache)
        attn.append(weights)
    cls = X[:, 0, :]
    return cls @ params["head_w"] + params["head_b"], attn, caches, cls


def oracle_loss_and_grads(model, tokens, patches, labels):
    cfg, params = model.config, model.params
    B = tokens.shape[0]
    logits, _, caches, cls = oracle_forward(model, tokens)
    probs = tr.softmax(logits, axis=-1)
    loss = float(-np.log(probs[np.arange(B), labels] + 1e-12).mean())
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B
    grads["head_w"] += cls.T @ dlogits
    grads["head_b"] += dlogits.sum(axis=0)
    dX = np.zeros_like(tokens)
    dX[:, 0, :] = dlogits @ params["head_w"].T
    for i in reversed(range(cfg.n_layers)):
        dX = oracle_layer_backward(dX, params, i, cfg.n_heads, caches[i], grads)
    grads["pos"] += dX.sum(axis=0)
    grads["cls"] += dX[:, 0, :].sum(axis=0)
    grads["embed_w"] += np.einsum("bnp,bnd->pd", patches, dX[:, 1:, :])
    grads["embed_b"] += dX[:, 1:, :].sum(axis=(0, 1))
    return loss, grads, probs


def oracle_train(dataset, cfg, tc):
    """`train_toy` with the AdamW update spelled one parameter at a time."""
    model = tr.TransformerModel(cfg, tr.init_params(cfg))
    labels = np.array([lab for _, lab in dataset])
    _, patches = tr.embed_dataset([s for s, _ in dataset], model)
    m = {k: np.zeros_like(v) for k, v in model.params.items()}
    v = {k: np.zeros_like(v) for k, v in model.params.items()}
    for step in range(1, tc.steps + 1):
        p = model.params
        loss, grads, probs = tr.loss_and_grads(model, tr._tokens(patches, p),
                                               patches, labels)
        acc = float(((probs[:, 1] >= 0.5).astype(int) == labels).mean())
        model.history.append((step, loss, acc))
        for k in p:
            g = grads[k]
            m[k] = tr.ADAM_BETA1 * m[k] + (1 - tr.ADAM_BETA1) * g
            v[k] = tr.ADAM_BETA2 * v[k] + (1 - tr.ADAM_BETA2) * g * g
            mhat = m[k] / (1 - tr.ADAM_BETA1 ** step)
            vhat = v[k] / (1 - tr.ADAM_BETA2 ** step)
            p[k] = p[k] - tc.learning_rate * (
                mhat / (np.sqrt(vhat) + tr.ADAM_EPS) + tc.weight_decay * p[k])
    return model


def patch_model(shape, d_model=16, n_heads=2, seed=0):
    """A randomly initialized 2-layer model on (bands, columns) inputs cut
    into 16x16 patches, as `bench` builds it."""
    cfg = tr.TransformerConfig(d_model=d_model, n_layers=2, n_heads=n_heads,
                               d_ff=2 * d_model, input_shape=shape, seed=seed)
    return tr.TransformerModel(cfg, tr.init_params(cfg))


def random_label_set(n, shape, seed=0):
    """Noise spectrograms with random labels (both classes present): a model
    can only memorise them, and training on them is chaotic."""
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % 2)
    return [(rng.normal(0, 1, shape), int(lab)) for lab in labels]


# (batch, input shape -> tokens, d_model, n_heads)
ORACLE_SHAPES = pytest.mark.parametrize("B,shape,d_model,n_heads", [
    (120, (128, 16), 16, 2),   # the study shape: 9 tokens
    (1, (16, 16), 16, 2),      # one patch: 2 tokens
    (40, (128, 80), 16, 4),    # 41 tokens
    (24, (128, 160), 16, 1),   # 81 tokens
    (120, (128, 16), 8, 1),
    (30, (128, 32), 32, 4),
    (7, (32, 48), 8, 2),
], ids=["study", "B1_2tok", "41tok", "81tok", "d8_h1", "d32_h4", "d8_h2"])


class TestForwardOracle:
    # the last block computes only the CLS rows; every output is bit for bit
    # that of the full-width forward
    @ORACLE_SHAPES
    def test_forward_batch_bitwise_equal_to_full_width(self, B, shape, d_model, n_heads):
        model = patch_model(shape, d_model, n_heads, seed=B)
        data = random_label_set(max(B, 2), shape, seed=B)[:B]
        tokens, _ = tr.embed_dataset([s for s, _ in data], model)
        logits, attn, (_, cls) = tr.forward_batch(model, tokens)
        ref_logits, ref_attn, _, ref_cls = oracle_forward(model, tokens)
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(cls, ref_cls)
        assert len(attn) == len(ref_attn)
        for weights, ref in zip(attn, ref_attn):
            assert np.array_equal(weights, ref)

    @pytest.mark.parametrize("B", [1, 2, 3, 65])
    def test_three_layers_and_small_batches_equal_full_width(self, B):
        # a lone input takes the two-row path of the last block, more inputs
        # one row each; two full-width blocks come before it
        cfg = tr.TransformerConfig(d_model=8, n_layers=3, n_heads=2, d_ff=24,
                                   input_shape=(32, 32), seed=B)
        model = tr.TransformerModel(cfg, tr.init_params(cfg))
        data = random_label_set(max(B, 2), (32, 32), seed=B)[:B]
        labels = np.array([lab for _, lab in data])
        tokens, patches = tr.embed_dataset([s for s, _ in data], model)
        logits, attn, (_, cls) = tr.forward_batch(model, tokens)
        ref_logits, ref_attn, _, ref_cls = oracle_forward(model, tokens)
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(cls, ref_cls)
        for weights, ref in zip(attn, ref_attn):
            assert np.array_equal(weights, ref)
        _, grads, _ = tr.loss_and_grads(model, tokens, patches, labels)
        _, ref_grads, _ = oracle_loss_and_grads(model, tokens, patches, labels)
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


class TestBackwardOracle:
    @ORACLE_SHAPES
    def test_grads_bitwise_equal_to_plain_einsum(self, B, shape, d_model, n_heads):
        model = patch_model(shape, d_model, n_heads, seed=B)
        data = random_label_set(max(B, 2), shape, seed=B)[:B]
        labels = np.array([lab for _, lab in data])
        tokens, patches = tr.embed_dataset([s for s, _ in data], model)
        assert tokens.shape[1] == model.config.n_tokens
        loss, grads, probs = tr.loss_and_grads(model, tokens, patches, labels)
        ref_loss, ref_grads, ref_probs = oracle_loss_and_grads(
            model, tokens, patches, labels)
        assert loss == ref_loss
        assert np.array_equal(probs, ref_probs)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name

    def test_flat_adamw_bitwise_equal_to_per_parameter(self):
        data = random_label_set(40, (128, 16), seed=6)
        cfg = patch_model((128, 16)).config
        tc = tr.TrainConfig(steps=30, weight_decay=1e-3)
        model = tr.train_toy(data, cfg, tc)
        ref = oracle_train(data, cfg, tc)
        assert model.history == ref.history
        for name in tr.param_names(cfg):
            assert np.array_equal(model.params[name], ref.params[name]), name

    def test_chaotic_training_bitwise_equal_to_oracle_trainer(self, monkeypatch):
        data = random_label_set(40, (128, 16), seed=5)
        cfg, tc = patch_model((128, 16)).config, tr.TrainConfig(steps=100)
        model = tr.train_toy(data, cfg, tc)
        monkeypatch.setattr(tr, "loss_and_grads", oracle_loss_and_grads)
        ref = tr.train_toy(data, cfg, tc)
        assert model.history == ref.history
        for name in tr.param_names(cfg):
            assert np.array_equal(model.params[name], ref.params[name]), name
