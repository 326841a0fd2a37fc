"""Small spectrogram-patch transformer encoder with a CLS classification
head, trained by analytic full-batch backprop. Attention matrices from every
layer/head are captured on each forward pass for the explainers.

Parameters live in a flat dict of float64 arrays so that flattening,
serialization, and finite-difference checking stay trivial.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import MEL_SPEC_HOP_MS
from .errors import InputError, malformed, model_doc

LN_EPS = 1e-6
PARAMS_FORMAT_VERSION = 1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class PatchGeometry:
    patch_h: int = 16
    patch_w: int = 16
    stride_h: int = 16
    stride_w: int = 16

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
        for name in ("d_model", "n_layers", "d_ff"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")
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
class ForwardOutput:
    logits: np.ndarray  # (2,) = (bonafide, spoof)
    prob_spoof: float
    attention: list  # per layer, (n_heads, T, T) row-stochastic weights
    token_time_spans: list  # per patch token, (start_ms, end_ms) at MEL_SPEC_HOP_MS


def _param_shapes(cfg: TransformerConfig) -> dict:
    """Name -> shape of every parameter the config needs, in `param_names`
    order."""
    d, dff = cfg.d_model, cfg.d_ff
    shapes = {"embed_w": (cfg.geometry.patch_h * cfg.geometry.patch_w, d),
              "embed_b": (d,), "cls": (d,), "pos": (cfg.n_tokens, d)}
    layer = {"wq": (d, d), "wk": (d, d), "wv": (d, d), "wo": (d, d),
             "ln1_g": (d,), "ln1_b": (d,), "w1": (d, dff), "b1": (dff,),
             "w2": (dff, d), "b2": (d,), "ln2_g": (d,), "ln2_b": (d,)}
    for i in range(cfg.n_layers):
        shapes.update({f"l{i}.{k}": shape for k, shape in layer.items()})
    shapes.update(head_w=(d, 2), head_b=(2,))
    return shapes


def param_names(cfg: TransformerConfig) -> list:
    return list(_param_shapes(cfg))


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
    """Row-major sliding-window patches of an (..., H, W) array, flattened to
    (..., N, patch_h*patch_w); `geometry.grid` gives the N = rows * cols."""
    rows, cols = geometry.grid(*values.shape[-2:])
    windows = sliding_window_view(values, (geometry.patch_h, geometry.patch_w),
                                  axis=(-2, -1))
    windows = windows[..., ::geometry.stride_h, ::geometry.stride_w, :, :]
    patches = np.array(windows, dtype=np.float64, order="C")
    return patches.reshape(*values.shape[:-2], rows * cols, -1)


def token_time_spans(geometry: PatchGeometry, n_rows: int, n_cols: int,
                     hop_ms: float) -> list:
    """Per-token (start_ms, end_ms) from the patch column position."""
    starts = np.arange(n_cols) * geometry.stride_w
    row = zip((starts * hop_ms).tolist(),
              ((starts + geometry.patch_w) * hop_ms).tolist())
    return list(row) * n_rows


def normalize_spec(values: np.ndarray) -> np.ndarray:
    """Standardize each spectrogram of an (..., H, W) stack to mean 0 / std 1
    (no-op on constants).

    Each spectrogram is reduced as one flat row in its memory order (the Mel
    spectrograms of `dsp` are column-major), so it gets the same bits in a
    stack as alone."""
    rows = values.swapaxes(-1, -2) if _column_major(values) else values
    flat = rows.reshape(*values.shape[:-2], -1)
    mean = flat.mean(axis=-1)[..., None, None]
    std = flat.std(axis=-1)[..., None, None]
    return (values - mean) / np.where(std == 0, 1.0, std)


def _column_major(values: np.ndarray) -> bool:
    return values.swapaxes(-1, -2).flags.c_contiguous and not values.flags.c_contiguous


def _values(specs) -> np.ndarray:
    """float64 values of one spectrogram, of an (..., H, W) stack, or of a
    list of equally shaped spectrograms, stacked column-major when all of
    them are (see `normalize_spec`)."""
    if not isinstance(specs, (list, tuple)):
        return np.asarray(specs, dtype=np.float64)
    values = [np.asarray(s, dtype=np.float64) for s in specs]
    if len({v.shape for v in values}) > 1:
        raise InputError("spectrograms in one batch must share one shape")
    if all(v.ndim == 2 and _column_major(v) for v in values):
        return np.stack([v.T for v in values]).swapaxes(-1, -2)
    return np.stack(values)


def _tokens(patches: np.ndarray, params: dict) -> np.ndarray:
    """(..., N, patch_dim) patches -> (..., N+1, d) tokens: CLS first, then
    the embedded patches, plus the position embedding."""
    *lead, n, _ = patches.shape
    tok = np.empty((*lead, n + 1, params["embed_w"].shape[1]))
    tok[..., 0, :] = params["cls"]
    tok[..., 1:, :] = patches @ params["embed_w"] + params["embed_b"]
    tok += params["pos"]
    return tok


def embed_dataset(specs, model: TransformerModel):
    """(B, N+1, d) tokens and (B, N, patch_dim) patches of a list or stack of
    spectrograms (see `_values`), normalized and checked against the model."""
    cfg = model.config
    values = _values(specs)
    if cfg.normalize_input:
        values = normalize_spec(values)
    patches = extract_patches(values, cfg.geometry)
    if patches.shape[-2] != cfg.n_patches:
        raise InputError(
            f"spectrogram yields {patches.shape[-2]} patches; model expects "
            f"{cfg.n_patches}")
    return _tokens(patches, model.params), patches


# ---------------------------------------------------------------------------
# Core ops

def softmax(z, axis=-1):
    e = z - z.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def attention(Q, K, V):
    """Scaled dot-product attention; returns (output, row-stochastic weights)."""
    d_k = Q.shape[-1]
    scores = Q @ np.swapaxes(K, -1, -2) / np.sqrt(d_k)
    weights = softmax(scores, axis=-1)
    return weights @ V, weights


def layer_norm(x, gamma, beta):
    # the variance as `np.var` computes it, from the centred values
    centred = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt((centred * centred).sum(axis=-1, keepdims=True) / x.shape[-1]
                  + LN_EPS)
    xhat = centred / std
    return gamma * xhat + beta, xhat, std


def _split_heads(x, n_heads):
    # (B, T, d) -> (B, h, T, d_k)
    B, T, d = x.shape
    return x.reshape(B, T, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    # (B, h, T, d_k) -> (B, T, d)
    B, h, T, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, T, h * dk)


def ffn(X, params, layer: int):
    p = params
    pre = X @ p[f"l{layer}.w1"] + p[f"l{layer}.b1"]
    hidden = np.maximum(pre, 0.0)
    return hidden @ p[f"l{layer}.w2"] + p[f"l{layer}.b2"], (pre, hidden)


def encoder_layer(X, params, layer: int, n_heads: int, rows=Ellipsis):
    """Post-norm encoder block on (B, T, d) tokens X: LN(X + MultiHead), then
    LN( . + FFN). Attention runs over every token; the dense half only on
    `rows` of them, such as the `_cls_rows` of the last block. A row depends
    only on its own input row and attention output, so each is bit for bit
    that of the full block. Returns (z, weights, cache)."""
    p = params
    Q = _split_heads(X @ p[f"l{layer}.wq"], n_heads)
    K = _split_heads(X @ p[f"l{layer}.wk"], n_heads)
    V = _split_heads(X @ p[f"l{layer}.wv"], n_heads)
    heads, weights = attention(Q, K, V)  # (B, h, T, dk), (B, h, T, T)
    concat = _merge_heads(heads)
    del heads  # freed before the dense half allocates: no part of its peak
    y, y_hat, y_std = layer_norm(X[rows] + concat[rows] @ p[f"l{layer}.wo"],
                                 p[f"l{layer}.ln1_g"], p[f"l{layer}.ln1_b"])
    f, ffn_cache = ffn(y, params, layer)
    z, z_hat, z_std = layer_norm(y + f, p[f"l{layer}.ln2_g"], p[f"l{layer}.ln2_b"])
    return z, weights, (X, (Q, K, V, weights, concat), y, y_hat, y_std,
                        ffn_cache, z_hat, z_std)


def _cls_rows(batch: int):
    """Index of the rows of a (B, T, ...) array that the last block's dense
    half runs on: the CLS row of every input, as one (B, ...) block. A lone
    input brings its first patch row along, because a one-row `@` goes to
    gemv, whose sums differ in the last bit from those of the gemm that a
    full block runs."""
    return np.s_[:, 0] if batch > 1 else np.s_[0, :2]


def forward_batch(model: TransformerModel, X0: np.ndarray):
    """Run the encoder on token batch (B, T, d).

    Returns (logits (B, 2), attention (n_layers, B, h, T, T), caches). The
    last block computes only the CLS rows the head reads.
    """
    cfg = model.config
    X = X0
    caches = []
    attn = []
    for i in range(cfg.n_layers):
        rows = _cls_rows(len(X0)) if i == cfg.n_layers - 1 else Ellipsis
        X, weights, cache = encoder_layer(X, model.params, i, cfg.n_heads, rows)
        caches.append(cache)
        attn.append(weights)
    cls = X[:len(X0)]
    logits = cls @ model.params["head_w"] + model.params["head_b"]
    return logits, attn, (caches, cls)


def forward(spec, model: TransformerModel) -> ForwardOutput:
    """Full forward pass on one spectrogram with attention capture; each
    patch token's time span is in ms of log-Mel columns at MEL_SPEC_HOP_MS."""
    cfg = model.config
    tokens, _ = embed_dataset([spec], model)
    logits, attn, _ = forward_batch(model, tokens)
    probs = softmax(logits[0])
    spans = token_time_spans(cfg.geometry, *cfg.geometry.grid(*cfg.input_shape),
                             MEL_SPEC_HOP_MS)
    return ForwardOutput(logits[0], float(probs[1]), [a[0] for a in attn], spans)


# ---------------------------------------------------------------------------
# Backward pass

def _as_rows(a):
    """The (..., k) array as a (n, k) matrix of rows in C order."""
    return a.reshape(-1, a.shape[-1])


def _layer_norm_backward(dz, xhat, std, gamma):
    dxhat = dz * gamma
    dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) / std
    return dx, _as_rows(dz * xhat).sum(axis=0), _as_rows(dz).sum(axis=0)


def _softmax_backward(dA, A):
    # A * (dA - sum(dA * A)), in one buffer
    g = dA * A
    np.subtract(dA, g.sum(axis=-1, keepdims=True), out=g)
    g *= A
    return g


def _at_rows(a, rows, shape):
    """A (B, T, k) array with `a` at `rows` and zeros elsewhere; `a` itself
    when `rows` is every row. A product whose sums must stay those of the full
    block keeps its stacked shape: BLAS's sums for one row depend on the row
    count of the product."""
    if rows is Ellipsis:
        return a
    full = np.zeros(shape[:2] + a.shape[-1:])
    full[rows] = a
    return full


# The weight gradients are two-operand `np.einsum`s whose inner loop runs over
# an output axis, so numpy adds up each output element one product at a time
# over the (b, t) positions in C order. Each is spelled so that the inner loop
# is a wide output axis of a contiguous operand, the fast case; the sums, and
# so the bits, stay those of the plain spellings the tests keep as an oracle.
# Over the CLS rows alone they leave out products with a zero gradient, which
# add only +-0. `@`, `tensordot` or `optimize=True` would reach BLAS and
# reorder the sums.

def _encoder_layer_backward(dz, params, layer: int, n_heads: int, cache, grads,
                            rows=Ellipsis):
    """Backward of `encoder_layer` with the same `rows`: `dz` and the dense
    half's cache hold those rows alone, and the gradient at every other row
    is zero. Returns dX."""
    X, mh_cache, y, y_hat, y_std, ffn_cache, z_hat, z_std = cache
    p = params
    # second LN
    dv, dg2, db2 = _layer_norm_backward(dz, z_hat, z_std, p[f"l{layer}.ln2_g"])
    grads[f"l{layer}.ln2_g"] += dg2
    grads[f"l{layer}.ln2_b"] += db2
    # FFN
    pre, hidden = ffn_cache
    df = dv
    grads[f"l{layer}.w2"] += np.einsum("nd,nf->df", _as_rows(df), _as_rows(hidden)).T
    grads[f"l{layer}.b2"] += _as_rows(df).sum(axis=0)
    dhidden = (_at_rows(df, rows, X.shape) @ p[f"l{layer}.w2"].T)[rows]
    dpre = dhidden * (pre > 0)
    grads[f"l{layer}.w1"] += np.einsum("nd,nf->df", _as_rows(y), _as_rows(dpre))
    grads[f"l{layer}.b1"] += _as_rows(dpre).sum(axis=0)
    dy = dv + (_at_rows(dpre, rows, X.shape) @ p[f"l{layer}.w1"].T)[rows]
    # first LN
    du, dg1, db1 = _layer_norm_backward(dy, y_hat, y_std, p[f"l{layer}.ln1_g"])
    grads[f"l{layer}.ln1_g"] += dg1
    grads[f"l{layer}.ln1_b"] += db1
    # multi-head attention, over every token
    Q, K, V, weights, concat = mh_cache
    grads[f"l{layer}.wo"] += np.einsum("nd,ne->de", _as_rows(concat[rows]), _as_rows(du))
    du = _at_rows(du, rows, X.shape)
    dconcat = du @ p[f"l{layer}.wo"].T
    dout = _split_heads(dconcat, n_heads)  # (B, h, T, dk)
    dS = _softmax_backward(dout @ np.swapaxes(V, -1, -2), weights)
    scale = 1.0 / np.sqrt(Q.shape[-1])
    # dQ, dK and dV with merged heads, (B, T, d) each; no unmerged copy or
    # attention-weight gradient stays alive, which pays for the memory of
    # their concatenation
    flat = [_merge_heads(dS @ K * scale),
            _merge_heads(np.swapaxes(dS, -1, -2) @ Q * scale),
            _merge_heads(np.swapaxes(weights, -1, -2) @ dout)]
    dqkv = np.einsum("btd,bte->de", X, np.concatenate(flat, axis=-1))
    dX = du.copy()
    for name, dproj, dw in zip(("wq", "wk", "wv"), flat, np.split(dqkv, 3, axis=1)):
        grads[f"l{layer}.{name}"] += dw
        dX += dproj @ p[f"l{layer}.{name}"].T
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
    rows = _cls_rows(B)
    dz = np.zeros_like(tokens[rows])  # the last block's rows; a lone input has two
    dz[:B] = dlogits @ model.params["head_w"].T
    dX = _encoder_layer_backward(dz, model.params, cfg.n_layers - 1, cfg.n_heads,
                                 caches[-1], grads, rows)
    for i in reversed(range(cfg.n_layers - 1)):
        dX = _encoder_layer_backward(dX, model.params, i, cfg.n_heads,
                                     caches[i], grads)
    grads["pos"] += dX.sum(axis=0)
    grads["cls"] += dX[:, 0, :].sum(axis=0)
    grads["embed_w"] += np.einsum("bnd,bnp->dp", np.ascontiguousarray(dX[:, 1:, :]),
                                  patches).T
    grads["embed_b"] += dX[:, 1:, :].sum(axis=(0, 1))
    return loss, grads, probs


# ---------------------------------------------------------------------------
# Training

@dataclass
class TrainConfig:
    steps: int = 500
    learning_rate: float = 1e-2
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.steps < 1:
            raise InputError("steps must be >= 1")
        for name in ("learning_rate", "weight_decay"):
            if not 0 <= getattr(self, name) < np.inf:
                raise InputError(f"{name} must be a finite number >= 0")


def train_toy(dataset, config: TransformerConfig,
              train_config: TrainConfig) -> TransformerModel:
    """Train a randomly initialized encoder by full-batch AdamW.

    `dataset` is a sequence of (spectrogram, label) pairs with binary labels
    (1 = spoof). Deterministic given config.seed.
    """
    if not dataset:
        raise InputError("dataset must be nonempty")
    labels = np.asarray([lab for _, lab in dataset], dtype=int)
    if len(set(labels.tolist())) < 2:
        raise InputError("both classes must be present")
    model = TransformerModel(config, init_params(config))
    _, patches = embed_dataset([s for s, _ in dataset], model)
    # the parameters are views into one flat vector, so one AdamW update is a
    # few whole-vector operations, each as it was per parameter
    flat = np.concatenate([p.ravel() for p in model.params.values()])
    ends = np.cumsum([p.size for p in model.params.values()])
    model.params = {k: flat[end - p.size:end].reshape(p.shape)
                    for (k, p), end in zip(model.params.items(), ends)}
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    for step in range(1, train_config.steps + 1):
        # tokens depend on embed/cls/pos params: re-embed each step
        tokens = _tokens(patches, model.params)
        loss, grads, probs = loss_and_grads(model, tokens, patches, labels)
        if not np.isfinite(loss):
            raise InputError(f"loss diverged at step {step}")
        acc = float(((probs[:, 1] >= 0.5).astype(int) == labels).mean())
        model.history.append((step, loss, acc))
        g = np.concatenate([grads[k].ravel() for k in model.params])
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        mhat = m / (1 - ADAM_BETA1 ** step)
        vhat = v / (1 - ADAM_BETA2 ** step)
        flat -= train_config.learning_rate * (
            mhat / (np.sqrt(vhat) + ADAM_EPS) + train_config.weight_decay * flat)
    return model


def predict_proba(model: TransformerModel, specs) -> np.ndarray:
    """Spoof probability for each spectrogram of a list or (B, H, W) stack."""
    tokens, _ = embed_dataset(specs, model)
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


def from_json(doc) -> TransformerModel:
    """The model in a JSON document: its text, or the dict it parses to. Its
    parameter arrays are read-only, so a model the CLI reuses stays as loaded."""
    doc = model_doc(doc, "transformer", PARAMS_FORMAT_VERSION)
    with malformed("transformer model document"):
        c = doc["config"]
        ints = {k: operator.index(c[k])
                for k in ("d_model", "n_layers", "n_heads", "d_ff")}
        cfg = TransformerConfig(
            **ints, geometry=PatchGeometry(*map(operator.index, c["geometry"])),
            input_shape=tuple(map(operator.index, c["input_shape"])),
            normalize_input=c["normalize_input"], seed=c["seed"])
        params = {k: np.asarray(v["data"], dtype=np.float64).reshape(v["shape"])
                  for k, v in doc["params"].items()}
        shapes = _param_shapes(cfg)
        if params.keys() != shapes.keys():
            raise ValueError("parameters missing or unexpected for the config: "
                             f"{sorted(params.keys() ^ shapes.keys())[:3]}")
        for k, shape in shapes.items():
            if params[k].shape != shape:
                raise ValueError(f"parameter {k} has shape {list(params[k].shape)}, "
                                 f"the config needs {list(shape)}")
            params[k].setflags(write=False)
    return TransformerModel(cfg, params)
