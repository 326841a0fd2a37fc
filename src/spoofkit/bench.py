"""Benchmark harness: dataset manifests, augmentation simulators, metrics,
synthetic corpora, and the cross-dataset generalizability / augmentation
studies with Markdown reports.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import dsp, gbdt, transformer
from .dsp import AudioBuffer
from .errors import BalanceError, InputError, ManifestError, SplitOverlap

LABELS = ("bonafide", "spoof")  # encoded 0 / 1; spoof is the positive class
SPLITS = ("train", "eval")
DEFAULT_CLIP_S = 1.6
CODEC_CUTOFF_REF_HZ = 16000.0
CODEC_REF_RATE = 44100.0
CODEC_QUANT_LEVELS = 64


# ---------------------------------------------------------------------------
# Manifests

@dataclass
class ManifestEntry:
    path: str
    label: int  # 0 bonafide, 1 spoof
    attack: str
    split: str


@dataclass
class DatasetManifest:
    name: str
    entries: list

    def subset(self, split: str) -> list:
        return [e for e in self.entries if e.split == split]

    def class_counts(self, split: str | None = None):
        rows = self.entries if split is None else self.subset(split)
        pos = sum(e.label for e in rows)
        return {"bonafide": len(rows) - pos, "spoof": pos}


def load_manifest(path, name: str | None = None) -> DatasetManifest:
    """Load and validate a `path,label,attack,split` CSV manifest."""
    path = str(path)
    if not os.path.exists(path):
        raise ManifestError(f"manifest not found: {path}")
    entries = []
    seen = {}
    missing = []
    base = os.path.dirname(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:4]] != ["path", "label", "attack", "split"]:
            raise ManifestError(f"{path}: header must be path,label,attack,split")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 4:
                raise ManifestError(f"{path}:{lineno}: expected 4 columns")
            p, label, attack, split = (c.strip() for c in row[:4])
            if label not in LABELS:
                raise ManifestError(
                    f"{path}:{lineno}: label must be bonafide or spoof, got {label!r}")
            if split not in SPLITS:
                raise ManifestError(
                    f"{path}:{lineno}: split must be train or eval, got {split!r}")
            full = p if os.path.isabs(p) else os.path.join(base, p)
            if full in seen and seen[full] != split:
                raise SplitOverlap(f"{path}:{lineno}: {p} appears in both splits")
            seen[full] = split
            if not os.path.exists(full):
                missing.append(p)
            entries.append(ManifestEntry(full, LABELS.index(label), attack, split))
    if missing:
        more = f" and {len(missing) - 3} more" if len(missing) > 3 else ""
        raise ManifestError(f"{path}: {len(missing)} missing audio file(s): "
                            f"{', '.join(missing[:3])}{more}")
    if not entries:
        raise ManifestError(f"{path}: manifest has no entries")
    return DatasetManifest(name or os.path.splitext(os.path.basename(path))[0], entries)


def write_manifest(path, entries) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", "attack", "split"])
        for e in entries:
            writer.writerow([e.path, LABELS[e.label], e.attack, e.split])


# ---------------------------------------------------------------------------
# Metrics

@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    per_class: dict
    macro: dict
    roc_auc: float | None
    eer: float | None
    model_id: str = ""
    dataset_id: str = ""
    augmentation_id: str = ""

    def to_dict(self) -> dict:
        return {
            "model": self.model_id, "dataset": self.dataset_id,
            "augmentation": self.augmentation_id,
            "counts": {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn},
            "accuracy": self.accuracy, "per_class": self.per_class,
            "macro": self.macro, "roc_auc": self.roc_auc, "eer": self.eer,
        }


def _prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def roc_points(labels, scores):
    """ROC curve over sorted unique thresholds; returns (fpr, tpr) arrays."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None, None
    order = np.argsort(-s, kind="stable")
    ys = y[order]
    ss = s[order]
    boundary = np.r_[np.where(np.diff(ss))[0], ys.size - 1]
    tps = np.cumsum(ys)[boundary]
    fps = boundary + 1 - tps
    tpr = np.r_[0.0, tps / n_pos]
    fpr = np.r_[0.0, fps / n_neg]
    return fpr, tpr


def roc_auc(labels, scores) -> float | None:
    fpr, tpr = roc_points(labels, scores)
    if fpr is None:
        return None
    return float(np.trapezoid(tpr, fpr))


def equal_error_rate(labels, scores) -> float | None:
    fpr, tpr = roc_points(labels, scores)
    if fpr is None:
        return None
    fnr = 1.0 - tpr
    i = int(np.argmin(np.abs(fpr - fnr)))
    return float((fpr[i] + fnr[i]) / 2.0)


def evaluate(labels, probs, threshold: float = 0.5, model_id: str = "",
             dataset_id: str = "", augmentation_id: str = "") -> EvalReport:
    """Confusion counts and derived metrics; spoof (label 1) is positive."""
    y = np.asarray(labels)
    p = np.asarray(probs, dtype=np.float64)
    if y.size != p.size or y.size == 0:
        raise InputError("labels and probabilities must be equal-length, nonempty")
    pred = (p >= threshold).astype(int)
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    tn = int(((pred == 0) & (y == 0)).sum())
    sp, sr_, sf = _prf(tp, fp, fn)
    bp, br, bf = _prf(tn, fn, fp)  # bonafide as positive
    per_class = {
        "spoof": {"precision": sp, "recall": sr_, "f1": sf},
        "bonafide": {"precision": bp, "recall": br, "f1": bf},
    }
    macro = {
        "precision": (sp + bp) / 2, "recall": (sr_ + br) / 2, "f1": (sf + bf) / 2,
    }
    return EvalReport(tp, fp, fn, tn, (tp + tn) / y.size, per_class, macro,
                      roc_auc(y, p), equal_error_rate(y, p),
                      model_id, dataset_id, augmentation_id)


# ---------------------------------------------------------------------------
# Augmentation simulators

def augment_codec(audio: AudioBuffer, quant_levels: int = CODEC_QUANT_LEVELS) -> AudioBuffer:
    """Lossy-compression simulation: STFT low-pass at the scaled reference
    cutoff plus coarse magnitude quantization, resynthesized by overlap-add."""
    x = audio.samples
    sr = audio.sample_rate
    hop = 256
    n_fft = 2 * hop  # half overlap: each output block sums two frame halves
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n_fft) / n_fft)  # periodic Hann
    # pad so the clip sits in the fully overlapped interior; the win**2
    # division otherwise amplifies quantization error at the clip edges
    xp = np.r_[np.zeros(n_fft), x, np.zeros(n_fft)]
    spec = np.fft.rfft(dsp.frames_at(xp, np.arange(0, xp.size, hop), n_fft) * win,
                       axis=1)
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sr)
    cutoff = CODEC_CUTOFF_REF_HZ * sr / CODEC_REF_RATE
    spec[:, freqs > cutoff] = 0.0
    mag = np.abs(spec)
    peak = mag.max()
    if peak > 0:
        step = peak / quant_levels
        qmag = np.round(mag / step) * step
        phase = np.where(mag > 0, spec / np.where(mag > 0, mag, 1.0), 0.0)
        spec = qmag * phase
    frames_out = np.fft.irfft(spec, n=n_fft, axis=1) * win
    out = np.zeros((len(spec) + 1, hop))
    out[:-1] += frames_out[:, :hop]
    out[1:] += frames_out[:, hop:]
    den = np.zeros_like(out)
    den[:-1] += win[:hop] ** 2
    den[1:] += win[hop:] ** 2
    out = np.divide(out, den, out=np.zeros_like(out), where=den > 1e-8).ravel()
    return AudioBuffer(out[n_fft: n_fft + len(x)], sr)


def room_impulse_response(sample_rate: int, rt60_s: float, tail_gain: float,
                          rng) -> np.ndarray:
    """Direct path plus an exponentially decaying noise tail; rt60_s = 0
    degenerates to a pure delta."""
    if rt60_s <= 0:
        return np.array([1.0])
    n = max(1, int(round(rt60_s * sample_rate)))
    t = np.arange(1, n + 1) / sample_rate
    tail = tail_gain * rng.standard_normal(n) * np.exp(-6.908 * t / rt60_s)
    return np.r_[1.0, tail]


def augment_rerecord(audio: AudioBuffer, seed: int = 0, rt60_s: float = 0.25,
                     snr_db: float | None = 25.0,
                     tail_gain: float = 0.3) -> AudioBuffer:
    """Playback-and-rerecord simulation: synthetic room reverberation plus
    additive noise at the configured SNR. Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    h = room_impulse_response(audio.sample_rate, rt60_s, tail_gain, rng)
    out = np.convolve(audio.samples, h)[: audio.samples.size]
    if snr_db is not None and np.isfinite(snr_db):
        sig_power = float((out ** 2).mean())
        if sig_power > 0:
            noise_power = sig_power / (10.0 ** (snr_db / 10.0))
            out = out + np.sqrt(noise_power) * rng.standard_normal(out.size)
    return AudioBuffer(out, audio.sample_rate)


AUGMENTATIONS = {
    "identity": lambda audio, seed: audio,
    "codec": lambda audio, seed: augment_codec(audio),
    "rerecord": lambda audio, seed: augment_rerecord(audio, seed=seed),
}


# ---------------------------------------------------------------------------
# Synthetic corpora

def synth_clip(rng, duration_s: float, gain: float, noise_level: float,
               tones, bursts, sample_rate: int = dsp.SAMPLE_RATE) -> AudioBuffer:
    """Noise floor + sustained tones + time-localized tone bursts, all scaled
    by `gain`. Amplitudes in `tones`/`bursts` are relative to the gain."""
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    x = noise_level * rng.standard_normal(n)
    for freq, amp in tones:
        x += amp * np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
    for freq, amp, start_s, dur_s in bursts:
        i0 = int(round(start_s * sample_rate))
        i1 = min(n, i0 + int(round(dur_s * sample_rate)))
        x[i0:i1] += amp * np.sin(2 * np.pi * freq * t[i0:i1])
    x = gain * x
    peak = np.abs(x).max()
    if peak > 0.99:
        x = x * (0.99 / peak)
    return AudioBuffer(x, sample_rate)


def _random_voice_tones(rng):
    n_tones = rng.integers(2, 5)
    return [(float(rng.uniform(150, 900)), float(rng.uniform(0.2, 0.5)))
            for _ in range(n_tones)]


def make_generalization_corpora(root, seed: int = 0, n_train: int = 60,
                                n_eval: int = 30, n_eval_b: int = 40,
                                duration_s: float = DEFAULT_CLIP_S):
    """Two synthetic domains sharing one spoof cue (a high-band tone burst)
    under a loudness confound that flips between domains.

    Domain A: spoofs loud, bonafide quiet. Domain B: reversed. A classifier
    keyed to overall level aces A and collapses on B; one keyed to the burst
    transfers. Returns (manifest_a, manifest_b).
    """
    # a spoof clip holds a 0.4 s burst starting in [0.1, duration_s - 0.5] s
    if not duration_s >= 0.6:
        raise InputError(f"generalization clips must last at least 0.6 s, "
                         f"got {duration_s} s")
    rng = np.random.default_rng(seed)
    os.makedirs(root, exist_ok=True)
    burst_freq = 6200.0

    def make_domain(name, spoof_gain, bonafide_gain, noise_level, counts):
        entries = []
        ddir = os.path.join(root, name)
        os.makedirs(ddir, exist_ok=True)
        for split, n_per_class in counts.items():
            for label in (0, 1):
                for k in range(n_per_class):
                    gain = spoof_gain if label else bonafide_gain
                    bursts = []
                    if label:
                        start = float(rng.uniform(0.1, duration_s - 0.5))
                        bursts = [(burst_freq, 0.6, start, 0.4)]
                    clip = synth_clip(rng, duration_s, gain, 0.05,
                                      _random_voice_tones(rng), bursts)
                    clip = AudioBuffer(
                        clip.samples + noise_level * rng.standard_normal(clip.samples.size),
                        clip.sample_rate)
                    wav = f"{split}_{LABELS[label]}_{k:03d}.wav"
                    dsp.write_wav(os.path.join(ddir, wav), clip)
                    # manifest paths are relative to the manifest's directory
                    entries.append(ManifestEntry(os.path.join(name, wav), label,
                                                 "synthetic" if label else "-", split))
        mpath = os.path.join(root, f"{name}.csv")
        write_manifest(mpath, entries)
        return load_manifest(mpath, name)

    manifest_a = make_domain("domain_a", spoof_gain=0.5, bonafide_gain=0.1,
                             noise_level=0.002,
                             counts={"train": n_train, "eval": n_eval})
    manifest_b = make_domain("domain_b", spoof_gain=0.1, bonafide_gain=0.5,
                             noise_level=0.004,
                             counts={"eval": n_eval_b})
    return manifest_a, manifest_b


def make_augmentation_corpus(root, seed: int = 0, n_train: int = 60,
                             n_eval: int = 60,
                             duration_s: float = DEFAULT_CLIP_S) -> DatasetManifest:
    """Corpus whose only spoof cue is a sustained tone above the codec
    cutoff, so lossy compression destroys class separability."""
    rng = np.random.default_rng(seed)
    os.makedirs(root, exist_ok=True)
    entries = []
    for split, n_per_class in (("train", n_train), ("eval", n_eval)):
        for label in (0, 1):
            for k in range(n_per_class):
                tones = _random_voice_tones(rng)
                if label:
                    tones = tones + [(6500.0, 0.5)]
                clip = synth_clip(rng, duration_s, 0.3, 0.05, tones, [])
                wav = f"{split}_{LABELS[label]}_{k:03d}.wav"
                dsp.write_wav(os.path.join(root, wav), clip)
                entries.append(ManifestEntry(wav, label,
                                             "synthetic" if label else "-", split))
    mpath = os.path.join(root, "corpus.csv")
    write_manifest(mpath, entries)
    return load_manifest(mpath, "highband_corpus")


# ---------------------------------------------------------------------------
# Orchestration

@dataclass
class BenchModels:
    """Model configurations for a benchmark run; omit one to skip it."""
    gbdt_config: gbdt.GbdtConfig | None = field(
        default_factory=lambda: gbdt.GbdtConfig(n_estimators=100, max_depth=3))
    transformer_config: transformer.TransformerConfig | None = field(
        default_factory=lambda: transformer.TransformerConfig(
            input_shape=(128, int(10 * DEFAULT_CLIP_S)),
            geometry=transformer.PatchGeometry(16, 16, 16, 16)))
    transformer_train: transformer.TrainConfig = field(
        default_factory=lambda: transformer.TrainConfig(steps=300))


def fit_clip_length(audio: AudioBuffer, duration_s: float) -> AudioBuffer:
    """Pad with zeros or truncate to exactly `duration_s`."""
    n = int(round(duration_s * audio.sample_rate))
    x = audio.samples
    if x.size >= n:
        return AudioBuffer(x[:n], audio.sample_rate)
    return AudioBuffer(np.r_[x, np.zeros(n - x.size)], audio.sample_rate)


def _load_clips(entries, duration_s, augmentation="identity", seed=0):
    clips = []
    for i, e in enumerate(entries):
        audio = fit_clip_length(dsp.load_audio(e.path), duration_s)
        clips.append(AUGMENTATIONS[augmentation](audio, seed + i))
    return clips


def _features_and_specs(clips, need_features=True, need_specs=True):
    feats = np.stack([dsp.extract_features(c).values for c in clips]) \
        if need_features else None
    specs = [dsp.mel_spectrogram(c) for c in clips] if need_specs else None
    return feats, specs


def balanced_indices(labels, n_per_class: int, rng) -> np.ndarray:
    """Seeded uniform downsample to n_per_class per class, original order."""
    if n_per_class < 1:
        raise BalanceError("n_per_class must be >= 1")
    y = np.asarray(labels)
    chosen = []
    for cls in (0, 1):
        pool = np.where(y == cls)[0]
        if pool.size < n_per_class:
            raise BalanceError(
                f"class {LABELS[cls]} has {pool.size} samples, need {n_per_class}")
        chosen.append(rng.choice(pool, size=n_per_class, replace=False))
    return np.sort(np.concatenate(chosen))


def _train_models(models: BenchModels, feats, specs, labels, seed: int):
    trained = {}
    y = np.asarray(labels)
    n_min = min(int((y == 0).sum()), int((y == 1).sum()))
    idx = balanced_indices(y, n_min, np.random.default_rng(seed))
    if models.gbdt_config is not None:
        trained["gbdt"] = gbdt.train(feats[idx], y[idx], models.gbdt_config,
                                     dsp.FEATURE_NAMES)
    if models.transformer_config is not None:
        data = [(specs[i], int(y[i])) for i in idx]
        trained["transformer"] = transformer.train_toy(
            [(s, lab) for s, lab in data], models.transformer_config,
            models.transformer_train)
    return trained


def _predict(name, model, feats, specs, idx):
    if name == "gbdt":
        return gbdt.predict_proba(model, feats[idx])
    return transformer.predict_proba(model, [specs[i] for i in idx])


def run_generalization(train_manifest: DatasetManifest,
                       eval_manifest: DatasetManifest,
                       models: BenchModels, balance_n: int,
                       seed: int = 0,
                       duration_s: float = DEFAULT_CLIP_S):
    """Train on A's train split; evaluate in-domain (A eval) and cross-domain
    (B eval, downsampled to balance_n per class). Returns a report list and a
    Markdown table."""
    if balance_n < 1:
        raise BalanceError("balance_n must be >= 1")
    same = train_manifest.name == eval_manifest.name
    need_f = models.gbdt_config is not None
    need_s = models.transformer_config is not None

    train_entries = train_manifest.subset("train")
    if not train_entries:
        raise ManifestError(f"{train_manifest.name}: no train split")
    tr_clips = _load_clips(train_entries, duration_s)
    tr_feats, tr_specs = _features_and_specs(tr_clips, need_f, need_s)
    tr_labels = np.array([e.label for e in train_entries])
    trained = _train_models(models, tr_feats, tr_specs, tr_labels, seed)

    reports = []
    eval_sets = [("in-domain", train_manifest, train_manifest.subset("eval"))]
    if not same:
        eval_sets.append(("cross-domain", eval_manifest,
                          eval_manifest.subset("eval")))
    for tag, manifest, entries in eval_sets:
        if not entries:
            raise ManifestError(f"{manifest.name}: no eval split")
        clips = _load_clips(entries, duration_s)
        feats, specs = _features_and_specs(clips, need_f, need_s)
        labels = np.array([e.label for e in entries])
        idx = balanced_indices(labels, min(balance_n,
                                           min(manifest.class_counts("eval").values())),
                               np.random.default_rng(seed + 1))
        for name, model in trained.items():
            probs = _predict(name, model, feats, specs, idx)
            reports.append(evaluate(labels[idx], probs, model_id=name,
                                    dataset_id=f"{manifest.name} ({tag})"))
    return reports, generalization_markdown(reports)


def run_augmentation_study(manifest: DatasetManifest, augmentations,
                           models: BenchModels, seed: int = 0,
                           duration_s: float = DEFAULT_CLIP_S):
    """Train and evaluate once per augmentation condition (train and eval
    audio both pass through the condition)."""
    for a in augmentations:
        if a not in AUGMENTATIONS:
            raise InputError(f"unknown augmentation {a!r}")
    need_f = models.gbdt_config is not None
    need_s = models.transformer_config is not None
    train_entries = manifest.subset("train")
    eval_entries = manifest.subset("eval")
    if not train_entries or not eval_entries:
        raise ManifestError(f"{manifest.name}: needs both train and eval splits")
    reports = []
    for aug in augmentations:
        tr_clips = _load_clips(train_entries, duration_s, aug, seed)
        tr_feats, tr_specs = _features_and_specs(tr_clips, need_f, need_s)
        tr_labels = np.array([e.label for e in train_entries])
        trained = _train_models(models, tr_feats, tr_specs, tr_labels, seed)
        ev_clips = _load_clips(eval_entries, duration_s, aug, seed + 10_000)
        ev_feats, ev_specs = _features_and_specs(ev_clips, need_f, need_s)
        ev_labels = np.array([e.label for e in eval_entries])
        idx = np.arange(ev_labels.size)
        for name, model in trained.items():
            probs = _predict(name, model, ev_feats, ev_specs, idx)
            reports.append(evaluate(ev_labels, probs, model_id=name,
                                    dataset_id=manifest.name,
                                    augmentation_id=aug))
    return reports, augmentation_markdown(reports)


# ---------------------------------------------------------------------------
# Reports

def _fmt(x):
    return "-" if x is None else f"{x:.3f}"


def generalization_markdown(reports) -> str:
    lines = [
        "| Model | Dataset | Precision | Recall | F1 | Accuracy | ROC-AUC |",
        "|---|---|---|---|---|---|---|",
    ]
    for r in reports:
        sp = r.per_class["spoof"]
        lines.append(
            f"| {r.model_id} | {r.dataset_id} | {_fmt(sp['precision'])} | "
            f"{_fmt(sp['recall'])} | {_fmt(sp['f1'])} | {_fmt(r.accuracy)} | "
            f"{_fmt(r.roc_auc)} |")
    return "\n".join(lines) + "\n"


def augmentation_markdown(reports) -> str:
    lines = [
        "| Augmentation | Model | Precision | Recall | F1 | Accuracy |",
        "|---|---|---|---|---|---|",
    ]
    for r in reports:
        sp = r.per_class["spoof"]
        lines.append(
            f"| {r.augmentation_id} | {r.model_id} | {_fmt(sp['precision'])} | "
            f"{_fmt(sp['recall'])} | {_fmt(sp['f1'])} | {_fmt(r.accuracy)} |")
    return "\n".join(lines) + "\n"


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def reports_to_csv(reports) -> str:
    lines = ["model,dataset,augmentation,tp,fp,fn,tn,accuracy,precision,recall,f1,roc_auc,eer"]
    for r in reports:
        sp = r.per_class["spoof"]
        lines.append(",".join(str(v) for v in [
            r.model_id, r.dataset_id, r.augmentation_id, r.tp, r.fp, r.fn, r.tn,
            r.accuracy, sp["precision"], sp["recall"], sp["f1"],
            "" if r.roc_auc is None else r.roc_auc,
            "" if r.eer is None else r.eer]))
    return "\n".join(lines) + "\n"
