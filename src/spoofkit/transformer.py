"""Small spectrogram-patch transformer encoder with a CLS classification
head, trained by analytic full-batch backprop. Attention matrices from every
layer/head are captured on each forward pass for the explainers.

Parameters live in a flat dict of float64 arrays so that flattening,
serialization, and finite-difference checking stay trivial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import MelSpectrogram
from .errors import InputError, TrainingError, malformed, model_doc

LN_EPS = 1e-6
PARAMS_FORMAT_VERSION = 1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class PatchGeometry:
    patch_h: int = 16
    patch_w: int = 16
    stride_h: int = 10
    stride_w: int = 10

    def __post_init__(self):
        if min(self.patch_h, self.patch_w, self.stride_h, self.stride_w) < 1:
            raise InputError("patch and stride dims must be positive")

    def grid(self, height: int, width: int):
        """(n_rows, n_cols) of patch positions; raises if nothing fits."""
        if height < self.patch_h or width < self.patch_w:
            raise InputError(
                f"spectrogram {height}x{width} smaller than patch "
                f"{self.patch_h}x{self.patch_w}")
        return ((height - self.patch_h) // self.stride_h + 1,
                (width - self.patch_w) // self.stride_w + 1)


@dataclass
class TransformerConfig:
    d_model: int = 16
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 32
    geometry: PatchGeometry = field(default_factory=PatchGeometry)
    input_shape: tuple = (128, 60)  # (bands, time steps) the model is built for
    normalize_input: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise InputError("n_heads must be a positive divisor of d_model")

    @property
    def n_patches(self) -> int:
        rows, cols = self.geometry.grid(*self.input_shape)
        return rows * cols

    @property
    def n_tokens(self) -> int:
        return self.n_patches + 1


@dataclass
class AttentionRecord:
    """Per-layer (n_heads, T, T) row-stochastic attention matrices."""
    layers: list

    def n_layers(self) -> int:
        return len(self.layers)


@dataclass
class ForwardOutput:
    logits: np.ndarray  # (2,) = (bonafide, spoof)
    prob_spoof: float
    attention: AttentionRecord
    cls_final: np.ndarray
    token_time_spans: list


def param_names(cfg: TransformerConfig) -> list:
    names = ["embed_w", "embed_b", "cls", "pos"]
    for i in range(cfg.n_layers):
        names += [f"l{i}.{k}" for k in
                  ("wq", "wk", "wv", "wo", "ln1_g", "ln1_b",
                   "w1", "b1", "w2", "b2", "ln2_g", "ln2_b")]
    names += ["head_w", "head_b"]
    return names


def init_params(cfg: TransformerConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    d, dff = cfg.d_model, cfg.d_ff
    patch_dim = cfg.geometry.patch_h * cfg.geometry.patch_w

    def w(*shape, fan_in):
        return rng.standard_normal(shape) / np.sqrt(fan_in)

    p = {
        "embed_w": w(patch_dim, d, fan_in=patch_dim),
        "embed_b": np.zeros(d),
        "cls": 0.02 * rng.standard_normal(d),
        "pos": 0.02 * rng.standard_normal((cfg.n_tokens, d)),
        "head_w": w(d, 2, fan_in=d),
        "head_b": np.zeros(2),
    }
    for i in range(cfg.n_layers):
        p[f"l{i}.wq"] = w(d, d, fan_in=d)
        p[f"l{i}.wk"] = w(d, d, fan_in=d)
        p[f"l{i}.wv"] = w(d, d, fan_in=d)
        p[f"l{i}.wo"] = w(d, d, fan_in=d)
        p[f"l{i}.ln1_g"] = np.ones(d)
        p[f"l{i}.ln1_b"] = np.zeros(d)
        p[f"l{i}.w1"] = w(d, dff, fan_in=d)
        p[f"l{i}.b1"] = np.zeros(dff)
        p[f"l{i}.w2"] = w(dff, d, fan_in=dff)
        p[f"l{i}.b2"] = np.zeros(d)
        p[f"l{i}.ln2_g"] = np.ones(d)
        p[f"l{i}.ln2_b"] = np.zeros(d)
    return p


@dataclass
class TransformerModel:
    config: TransformerConfig
    params: dict
    history: list = field(default_factory=list)  # (step, loss, accuracy)


# ---------------------------------------------------------------------------
# Patch extraction / embedding

def extract_patches(values: np.ndarray, geometry: PatchGeometry):
    """Row-major sliding-window patches flattened to (N, patch_h*patch_w)."""
    rows, cols = geometry.grid(*values.shape)
    windows = sliding_window_view(values, (geometry.patch_h, geometry.patch_w))
    windows = windows[::geometry.stride_h, ::geometry.stride_w]
    patches = np.array(windows, dtype=np.float64, order="C")
    return patches.reshape(rows * cols, -1), rows, cols


def token_time_spans(geometry: PatchGeometry, n_rows: int, n_cols: int,
                     hop_ms: float) -> list:
    """Per-token (start_ms, end_ms) from the patch column position."""
    starts = np.arange(n_cols) * geometry.stride_w
    row = zip((starts * hop_ms).tolist(),
              ((starts + geometry.patch_w) * hop_ms).tolist())
    return list(row) * n_rows


def normalize_spec(values: np.ndarray) -> np.ndarray:
    """Standardize a spectrogram to mean 0 / std 1 (no-op on constants)."""
    std = values.std()
    if std == 0:
        return values - values.mean()
    return (values - values.mean()) / std


def _patches(spec, cfg: TransformerConfig):
    """Patches of one (normalized) spectrogram, checked against the model."""
    values = spec.values if isinstance(spec, MelSpectrogram) else np.asarray(spec, dtype=np.float64)
    if cfg.normalize_input:
        values = normalize_spec(values)
    patches, rows, cols = extract_patches(values, cfg.geometry)
    if patches.shape[0] != cfg.n_patches:
        raise InputError(
            f"spectrogram yields {patches.shape[0]} patches; model expects "
            f"{cfg.n_patches}")
    return patches, rows, cols


def _tokens(patches: np.ndarray, params: dict) -> np.ndarray:
    """(..., N, patch_dim) patches -> (..., N+1, d) tokens: CLS first, then
    the embedded patches, plus the position embedding."""
    *lead, n, _ = patches.shape
    tok = np.empty((*lead, n + 1, params["embed_w"].shape[1]))
    tok[..., 0, :] = params["cls"]
    tok[..., 1:, :] = patches @ params["embed_w"] + params["embed_b"]
    tok += params["pos"]
    return tok


def embed(spec, model: TransformerModel):
    """(N+1, d) token matrix with CLS prepended, plus patches and time spans."""
    patches, rows, cols = _patches(spec, model.config)
    hop_ms = spec.hop_ms if isinstance(spec, MelSpectrogram) else 1.0
    spans = token_time_spans(model.config.geometry, rows, cols, hop_ms)
    return _tokens(patches, model.params), patches, spans


# ---------------------------------------------------------------------------
# Core ops

def softmax(z, axis=-1):
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def attention(Q, K, V):
    """Scaled dot-product attention; returns (output, row-stochastic weights)."""
    d_k = Q.shape[-1]
    scores = Q @ np.swapaxes(K, -1, -2) / np.sqrt(d_k)
    weights = softmax(scores, axis=-1)
    return weights @ V, weights


def layer_norm(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + LN_EPS)
    return gamma * xhat + beta, xhat, np.sqrt(var + LN_EPS)


def _split_heads(x, n_heads):
    # (B, T, d) -> (B, h, T, d_k)
    B, T, d = x.shape
    return x.reshape(B, T, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    # (B, h, T, d_k) -> (B, T, d)
    B, h, T, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, T, h * dk)


def multi_head(X, params, layer: int, n_heads: int):
    """Multi-head self-attention block; returns (output, weights, cache)."""
    p = params
    wq, wk, wv, wo = (p[f"l{layer}.{k}"] for k in ("wq", "wk", "wv", "wo"))
    Q = _split_heads(X @ wq, n_heads)
    K = _split_heads(X @ wk, n_heads)
    V = _split_heads(X @ wv, n_heads)
    out, weights = attention(Q, K, V)  # (B, h, T, dk), (B, h, T, T)
    concat = _merge_heads(out)
    return concat @ wo, weights, (Q, K, V, weights, concat)


def ffn(X, params, layer: int):
    p = params
    pre = X @ p[f"l{layer}.w1"] + p[f"l{layer}.b1"]
    hidden = np.maximum(pre, 0.0)
    return hidden @ p[f"l{layer}.w2"] + p[f"l{layer}.b2"], (pre, hidden)


def encoder_layer(X, params, layer: int, n_heads: int):
    """Post-norm encoder block: LN(X + MultiHead), then LN( . + FFN)."""
    mh, weights, mh_cache = multi_head(X, params, layer, n_heads)
    u = X + mh
    y, y_hat, y_std = layer_norm(u, params[f"l{layer}.ln1_g"], params[f"l{layer}.ln1_b"])
    f, ffn_cache = ffn(y, params, layer)
    v = y + f
    z, z_hat, z_std = layer_norm(v, params[f"l{layer}.ln2_g"], params[f"l{layer}.ln2_b"])
    cache = (X, mh_cache, y, y_hat, y_std, ffn_cache, z_hat, z_std)
    return z, weights, cache


def forward_batch(model: TransformerModel, X0: np.ndarray):
    """Run the encoder on token batch (B, T, d).

    Returns (logits (B, 2), attention (n_layers, B, h, T, T), caches).
    """
    cfg = model.config
    X = X0
    caches = []
    attn = []
    for i in range(cfg.n_layers):
        X, weights, cache = encoder_layer(X, model.params, i, cfg.n_heads)
        caches.append(cache)
        attn.append(weights)
    cls = X[:, 0, :]
    logits = cls @ model.params["head_w"] + model.params["head_b"]
    return logits, attn, (caches, cls)


def forward(spec, model: TransformerModel) -> ForwardOutput:
    """Full forward pass on one spectrogram with attention capture."""
    tokens, _, spans = embed(spec, model)
    logits, attn, (_, cls) = forward_batch(model, tokens[None])
    probs = softmax(logits[0])
    record = AttentionRecord([a[0] for a in attn])
    return ForwardOutput(logits[0], float(probs[1]), record, cls[0], spans)


# ---------------------------------------------------------------------------
# Backward pass

def _layer_norm_backward(dz, xhat, std, gamma):
    dxhat = dz * gamma
    d = xhat.shape[-1]
    dg = (dz * xhat).sum(axis=tuple(range(dz.ndim - 1)))
    db = dz.sum(axis=tuple(range(dz.ndim - 1)))
    dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / std
    return dx, dg, db


def _softmax_backward(dA, A):
    return A * (dA - (dA * A).sum(axis=-1, keepdims=True))


def _encoder_layer_backward(dz, params, layer: int, n_heads: int, cache, grads):
    X, mh_cache, y, y_hat, y_std, ffn_cache, z_hat, z_std = cache
    p = params
    # second LN
    dv, dg2, db2 = _layer_norm_backward(dz, z_hat, z_std, p[f"l{layer}.ln2_g"])
    grads[f"l{layer}.ln2_g"] += dg2
    grads[f"l{layer}.ln2_b"] += db2
    # FFN
    pre, hidden = ffn_cache
    df = dv
    grads[f"l{layer}.w2"] += np.einsum("btf,btd->fd", hidden, df)
    grads[f"l{layer}.b2"] += df.sum(axis=(0, 1))
    dhidden = df @ p[f"l{layer}.w2"].T
    dpre = dhidden * (pre > 0)
    grads[f"l{layer}.w1"] += np.einsum("btd,btf->df", y, dpre)
    grads[f"l{layer}.b1"] += dpre.sum(axis=(0, 1))
    dy = dv + dpre @ p[f"l{layer}.w1"].T
    # first LN
    du, dg1, db1 = _layer_norm_backward(dy, y_hat, y_std, p[f"l{layer}.ln1_g"])
    grads[f"l{layer}.ln1_g"] += dg1
    grads[f"l{layer}.ln1_b"] += db1
    # multi-head attention
    Q, K, V, weights, concat = mh_cache
    dmh = du
    grads[f"l{layer}.wo"] += np.einsum("btd,bte->de", concat, dmh)
    dconcat = dmh @ p[f"l{layer}.wo"].T
    dout = _split_heads(dconcat, n_heads)  # (B, h, T, dk)
    dW = dout @ np.swapaxes(V, -1, -2)
    dV = np.swapaxes(weights, -1, -2) @ dout
    dS = _softmax_backward(dW, weights)
    scale = 1.0 / np.sqrt(Q.shape[-1])
    dQ = dS @ K * scale
    dK = np.swapaxes(dS, -1, -2) @ Q * scale
    dX = du.copy()
    for name, dproj in (("wq", dQ), ("wk", dK), ("wv", dV)):
        flat = _merge_heads(dproj)
        grads[f"l{layer}.{name}"] += np.einsum("btd,bte->de", X, flat)
        dX += flat @ p[f"l{layer}.{name}"].T
    return dX


def loss_and_grads(model: TransformerModel, tokens: np.ndarray,
                   patches: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy and gradients for all parameters.

    `tokens` is the embedded batch (B, T, d); `patches` the raw flattened
    patches (B, N, patch_dim) used to form it.
    """
    cfg = model.config
    B = tokens.shape[0]
    logits, _, (caches, cls) = forward_batch(model, tokens)
    probs = softmax(logits, axis=-1)
    y = np.asarray(labels, dtype=int)
    eps = 1e-12
    loss = float(-np.log(probs[np.arange(B), y] + eps).mean())

    grads = {k: np.zeros_like(v) for k, v in model.params.items()}
    dlogits = probs.copy()
    dlogits[np.arange(B), y] -= 1.0
    dlogits /= B
    grads["head_w"] += cls.T @ dlogits
    grads["head_b"] += dlogits.sum(axis=0)
    dX = np.zeros_like(tokens)
    dX[:, 0, :] = dlogits @ model.params["head_w"].T
    for i in reversed(range(cfg.n_layers)):
        dX = _encoder_layer_backward(dX, model.params, i, cfg.n_heads,
                                     caches[i], grads)
    grads["pos"] += dX.sum(axis=0)
    grads["cls"] += dX[:, 0, :].sum(axis=0)
    grads["embed_w"] += np.einsum("bnp,bnd->pd", patches, dX[:, 1:, :])
    grads["embed_b"] += dX[:, 1:, :].sum(axis=(0, 1))
    return loss, grads, probs


# ---------------------------------------------------------------------------
# Training

@dataclass
class TrainConfig:
    steps: int = 500
    learning_rate: float = 1e-2
    weight_decay: float = 0.0


def embed_dataset(specs, model: TransformerModel):
    """Stack token/patch batches for a list of spectrograms."""
    patches = np.stack([_patches(spec, model.config)[0] for spec in specs])
    return _tokens(patches, model.params), patches


def train_toy(dataset, config: TransformerConfig,
              train_config: TrainConfig | None = None) -> TransformerModel:
    """Train a randomly initialized encoder by full-batch AdamW.

    `dataset` is a sequence of (spectrogram, label) pairs with binary labels
    (1 = spoof). Deterministic given config.seed.
    """
    if not dataset:
        raise InputError("dataset must be nonempty")
    labels = np.asarray([lab for _, lab in dataset], dtype=int)
    if len(set(labels.tolist())) < 2:
        raise InputError("both classes must be present")
    tc = train_config or TrainConfig()
    model = TransformerModel(config, init_params(config))
    _, patches = embed_dataset([s for s, _ in dataset], model)
    names = param_names(config)
    m = {k: np.zeros_like(model.params[k]) for k in names}
    v = {k: np.zeros_like(model.params[k]) for k in names}
    for step in range(1, tc.steps + 1):
        # tokens depend on embed/cls/pos params: re-embed each step
        p = model.params
        tokens = _tokens(patches, p)
        loss, grads, probs = loss_and_grads(model, tokens, patches, labels)
        if not np.isfinite(loss):
            raise TrainingError(f"loss diverged at step {step}")
        acc = float(((probs[:, 1] >= 0.5).astype(int) == labels).mean())
        model.history.append((step, loss, acc))
        for k in names:
            g = grads[k]
            m[k] = ADAM_BETA1 * m[k] + (1 - ADAM_BETA1) * g
            v[k] = ADAM_BETA2 * v[k] + (1 - ADAM_BETA2) * g * g
            mhat = m[k] / (1 - ADAM_BETA1 ** step)
            vhat = v[k] / (1 - ADAM_BETA2 ** step)
            p[k] = p[k] - tc.learning_rate * (
                mhat / (np.sqrt(vhat) + ADAM_EPS) + tc.weight_decay * p[k])
    return model


def predict_proba(model: TransformerModel, specs) -> np.ndarray:
    """Spoof probability for each spectrogram."""
    tokens, _ = embed_dataset(list(specs), model)
    logits, _, _ = forward_batch(model, tokens)
    return softmax(logits, axis=-1)[:, 1]


# ---------------------------------------------------------------------------
# Serialization

def to_json(model: TransformerModel) -> str:
    cfg = model.config
    doc = {
        "format_version": PARAMS_FORMAT_VERSION,
        "kind": "transformer",
        "config": {
            "d_model": cfg.d_model, "n_layers": cfg.n_layers,
            "n_heads": cfg.n_heads, "d_ff": cfg.d_ff,
            "geometry": [cfg.geometry.patch_h, cfg.geometry.patch_w,
                         cfg.geometry.stride_h, cfg.geometry.stride_w],
            "input_shape": list(cfg.input_shape),
            "normalize_input": cfg.normalize_input,
            "seed": cfg.seed,
        },
        "params": {k: {"shape": list(v.shape), "data": v.ravel().tolist()}
                   for k, v in model.params.items()},
    }
    return json.dumps(doc, sort_keys=True)


def from_json(text: str) -> TransformerModel:
    doc = model_doc(text, "transformer", PARAMS_FORMAT_VERSION)
    with malformed("transformer model document"):
        c = doc["config"]
        cfg = TransformerConfig(
            d_model=c["d_model"], n_layers=c["n_layers"], n_heads=c["n_heads"],
            d_ff=c["d_ff"], geometry=PatchGeometry(*c["geometry"]),
            input_shape=tuple(c["input_shape"]),
            normalize_input=c["normalize_input"], seed=c["seed"])
        params = {k: np.asarray(v["data"], dtype=np.float64).reshape(v["shape"])
                  for k, v in doc["params"].items()}
    return TransformerModel(cfg, params)
