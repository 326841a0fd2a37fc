"""Transformer explainers: occlusion heatmaps over the spectrogram and
attention rollout with CLS-token importance over time."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

ROW_SUM_TOL = 1e-4
SEGMENT_PERCENTILE = 90.0
OCCLUSION_CHUNK = 64  # rows per predict_fn call in occlusion_scan


@dataclass
class OcclusionHeatmap:
    importance: np.ndarray  # per-cell mean |delta| over covering boxes
    base_prob: float
    boxes: list  # (row, col, height, width, delta)
    box: tuple  # (height bins, width steps) of the scan
    stride: tuple


@dataclass
class RolloutMap:
    matrix: np.ndarray  # (N+1, N+1) cumulative attention
    cls_importance: np.ndarray  # length N, sums to 1
    uniform_fallback: bool = False


def _fill_value(values: np.ndarray, fill: str) -> float:
    if fill == "zero":
        return 0.0
    if fill == "one":
        return 1.0
    return float(values.mean())


def aggregate_boxes(boxes, shape) -> np.ndarray:
    """Per-cell mean of the deltas of all covering boxes, accumulated in a
    canonical (row, col) order so the result is independent of scan order.
    Uncovered cells stay exactly 0."""
    acc = np.zeros(shape)
    cover = np.zeros(shape)
    for r0, c0, bh, bw, delta in sorted(boxes):
        acc[r0:r0 + bh, c0:c0 + bw] += delta
        cover[r0:r0 + bh, c0:c0 + bw] += 1
    return np.divide(acc, cover, out=np.zeros_like(acc), where=cover > 0)


def occlusion_scan(predict_fn, spec, box=None, stride=None,
                   fill: str = "zero") -> OcclusionHeatmap:
    """Slide an occlusion `box` (height bins, width steps) over the
    spectrogram in steps of `stride` and record, per position, the absolute
    change in predicted spoof probability. The occluded cells are set to 0,
    1 or the spectrogram's mean (`fill` zero, one or mean).

    The default grid scales with the input: the box is a quarter of each
    dimension (at least 1), and the stride half the box (at least 1); a
    (128, 60) log-Mel gets box (32, 15) and stride (16, 7).

    `predict_fn` maps a (B, H, W) stack to (B,) probabilities. Row 0 of the
    stack is the unoccluded input and row k its copy with box k filled; the
    stack goes to `predict_fn` in chunks of OCCLUSION_CHUNK rows, so memory
    stays bounded however many boxes there are. Overlapping boxes are
    aggregated per cell by averaging; cells no box covers stay exactly 0.
    """
    values = np.asarray(spec, dtype=np.float64)
    H, W = values.shape
    bh, bw = box = tuple(box or (max(1, H // 4), max(1, W // 4)))
    sh, sw = stride = tuple(stride or (max(1, bh // 2), max(1, bw // 2)))
    if min(*box, *stride) < 1:
        raise InputError("box and stride must be positive")
    if fill not in ("zero", "one", "mean"):
        raise InputError(f"unknown fill mode {fill!r}")
    if bh > H or bw > W:
        raise InputError(f"occlusion box {box} larger than input {values.shape}")
    value = _fill_value(values, fill)
    corners = [None] + [(r0, c0) for r0 in range(0, H - bh + 1, sh)
                        for c0 in range(0, W - bw + 1, sw)]
    probs = []
    for first in range(0, len(corners), OCCLUSION_CHUNK):
        chunk = corners[first:first + OCCLUSION_CHUNK]
        stack = np.repeat(values[None], len(chunk), axis=0)
        for occluded, corner in zip(stack, chunk):
            if corner is not None:
                r0, c0 = corner
                occluded[r0:r0 + bh, c0:c0 + bw] = value
        probs.extend(np.asarray(predict_fn(stack), dtype=np.float64).tolist())
    base = probs[0]
    boxes = [(r0, c0, bh, bw, abs(base - p))
             for (r0, c0), p in zip(corners[1:], probs[1:])]
    return OcclusionHeatmap(aggregate_boxes(boxes, (H, W)), base, boxes, box, stride)


def layer_attention_maps(record) -> list:
    """Head-averaged attention matrix per layer (rows stay row-stochastic)."""
    if not len(record):
        raise InputError("empty attention record")
    return [np.asarray(a).mean(axis=0) for a in record]


def rollout(record, residual_mode: str = "plain") -> RolloutMap:
    """Cumulative attention: the ordered product of head-averaged per-layer
    matrices. `residual_half` mixes in 0.5 I per layer (re-normalized) before
    multiplying; `last` takes the final layer's matrix alone. CLS importance
    is the CLS query row over non-CLS columns, renormalized to sum 1 (uniform
    fallback if that row carries no mass)."""
    if residual_mode not in ("plain", "residual_half", "last"):
        raise InputError(f"unknown rollout mode {residual_mode!r}")
    maps = layer_attention_maps(record[-1:] if residual_mode == "last" else record)
    T = maps[0].shape[0]
    for a in maps:
        if a.shape != (T, T):
            raise InputError("attention matrices must share one shape")
        if np.abs(a.sum(axis=1) - 1.0).max() > ROW_SUM_TOL or a.min() < -ROW_SUM_TOL:
            raise InputError("attention matrix is not row-stochastic")
    W = np.eye(T)
    for a in maps:
        if residual_mode == "residual_half":
            a = 0.5 * (a + np.eye(T))
            a = a / a.sum(axis=1, keepdims=True)
        W = W @ a
    cls_row = W[0, 1:]
    total = cls_row.sum()
    if total <= 1e-12:
        cls_importance = np.full(T - 1, 1.0 / (T - 1))
        fallback = True
    else:
        cls_importance = cls_row / total
        fallback = False
    return RolloutMap(W, cls_importance, fallback)


@dataclass
class Timeline:
    segments: list  # (start_ms, end_ms, importance)
    threshold: float
    no_salient_region: bool = False

    def to_json(self) -> str:
        return json.dumps({
            "threshold": self.threshold,
            "no_salient_region": self.no_salient_region,
            "segments": [{"start_ms": s, "end_ms": e, "importance": i}
                         for s, e, i in self.segments],
        }, indent=2)


def cls_timeline(rmap: RolloutMap, token_time_spans) -> Timeline:
    """Merge adjacent tokens whose CLS importance exceeds its
    SEGMENT_PERCENTILE-th percentile into highlighted time segments;
    `token_time_spans` holds each token's (start_ms, end_ms)."""
    if not token_time_spans:
        raise InputError("no token time spans")
    imp = rmap.cls_importance
    thr = float(np.percentile(imp, SEGMENT_PERCENTILE))
    hot = imp > thr
    if not hot.any():
        return Timeline([], thr, no_salient_region=True)
    segments = []
    i = 0
    n = len(imp)
    while i < n:
        if not hot[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and hot[j + 1]:
            j += 1
        start = token_time_spans[i][0]
        end = token_time_spans[j][1]
        segments.append((start, end, float(imp[i:j + 1].sum())))
        i = j + 1
    return Timeline(segments, thr)


# ---------------------------------------------------------------------------
# Rendering

def render_heatmap(matrix: np.ndarray, path_stem) -> tuple:
    """Write `<stem>.pgm` (min-max normalized 8-bit grayscale, half-up
    rounding) and `<stem>.csv` (raw values). Returns the two paths."""
    m = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise InputError("heatmap contains non-finite values")
    lo, hi = m.min(), m.max()
    if hi > lo:
        scaled = (m - lo) / (hi - lo)
        pixels = np.floor(scaled * 255.0 + 0.5).astype(np.uint8)
    else:
        pixels = np.full(m.shape, 128, dtype=np.uint8)
    pgm_path = str(path_stem) + ".pgm"
    csv_path = str(path_stem) + ".csv"
    h, w = m.shape
    with open(pgm_path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(pixels.tobytes())
    with open(csv_path, "w") as fh:
        for row in m.tolist():
            fh.write(",".join(map(repr, row)) + "\n")
    return pgm_path, csv_path
