"""Benchmark harness: dataset manifests, augmentation simulators, metrics,
synthetic corpora, and the cross-dataset generalizability / augmentation
studies with Markdown reports.
"""

from __future__ import annotations

import csv
import ctypes
import os
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import dsp, gbdt, transformer
from .dsp import AudioBuffer
from .errors import InputError, SpoofkitError

LABELS = ("bonafide", "spoof")  # encoded 0 / 1; spoof is the positive class
SPLITS = ("train", "eval")
DEFAULT_CLIP_S = 1.6
CODEC_CUTOFF_REF_HZ = 16000.0
CODEC_REF_RATE = 44100.0
CODEC_QUANT_LEVELS = 64
RERECORD_RT60_S = 0.25  # reverberation time of the simulated room
RERECORD_TAIL_GAIN = 0.3  # room response tail gain, relative to the direct path
GENERALIZATION_TRAIN = 60  # domain A train clips per class
GENERALIZATION_EVAL = 30  # domain A eval clips per class
GENERALIZATION_EVAL_B = 40  # domain B eval clips per class
GENERALIZATION_MIN_S = 0.6  # a spoof's 0.4 s burst starts in [0.1, duration - 0.5] s


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


def load_manifest(path, name: str | None = None) -> DatasetManifest:
    """Load and validate a `path,label,attack,split` CSV manifest."""
    path = str(path)
    if not os.path.exists(path):
        raise InputError(f"manifest not found: {path}")
    entries = []
    seen = {}
    missing = []
    base = os.path.dirname(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            # each record with the file line it ends on, as a quoted cell may hold newlines
            rows = [(reader.line_num, row) for row in reader]
    except UnicodeDecodeError:
        raise InputError(f"{path}: not a text CSV file") from None
    if not rows or [h.strip() for h in rows[0][1][:4]] != ["path", "label", "attack", "split"]:
        raise InputError(f"{path}: header must be path,label,attack,split")
    for lineno, row in rows[1:]:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 4:
            raise InputError(f"{path}:{lineno}: expected 4 columns")
        p, label, attack, split = (c.strip() for c in row[:4])
        if label not in LABELS:
            raise InputError(
                f"{path}:{lineno}: label must be bonafide or spoof, got {label!r}")
        if split not in SPLITS:
            raise InputError(
                f"{path}:{lineno}: split must be train or eval, got {split!r}")
        if not p:
            raise InputError(f"{path}:{lineno}: empty audio path")
        full = p if os.path.isabs(p) else os.path.join(base, p)
        if full in seen and seen[full] != split:
            raise InputError(f"{path}:{lineno}: {p} appears in both splits")
        seen[full] = split
        if not os.path.isfile(full):
            missing.append(p)
        entries.append(ManifestEntry(full, LABELS.index(label), attack, split))
    if missing:
        more = f" and {len(missing) - 3} more" if len(missing) > 3 else ""
        raise InputError(f"{path}: {len(missing)} missing audio file(s): "
                         f"{', '.join(missing[:3])}{more}")
    if not entries:
        raise InputError(f"{path}: manifest has no entries")
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


def evaluate(labels, probs, model_id: str = "", dataset_id: str = "",
             augmentation_id: str = "") -> EvalReport:
    """Confusion counts at probability 0.5 and derived metrics; spoof
    (label 1) is positive."""
    y = np.asarray(labels)
    p = np.asarray(probs, dtype=np.float64)
    if y.size != p.size or y.size == 0:
        raise InputError("labels and probabilities must be equal-length, nonempty")
    pred = (p >= 0.5).astype(int)
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

def augment_codec(audio: AudioBuffer) -> AudioBuffer:
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
        step = peak / CODEC_QUANT_LEVELS
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


def augment_rerecord(audio: AudioBuffer, seed: int = 0,
                     snr_db: float | None = 25.0) -> AudioBuffer:
    """Playback-and-rerecord simulation: synthetic room reverberation plus
    additive noise at the configured SNR. Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    h = room_impulse_response(audio.sample_rate, RERECORD_RT60_S, RERECORD_TAIL_GAIN, rng)
    x = audio.samples
    # FFT convolution; n >= x.size + h.size - 1 keeps it linear, not circular
    n = 1 << (x.size + h.size - 2).bit_length()
    out = np.fft.irfft(np.fft.rfft(x, n) * np.fft.rfft(h, n), n)[: x.size]
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
               tones, bursts) -> AudioBuffer:
    """Noise floor + sustained tones + time-localized tone bursts at
    SAMPLE_RATE, all scaled by `gain`. Amplitudes in `tones`/`bursts` are
    relative to the gain."""
    sample_rate = dsp.SAMPLE_RATE
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


def make_generalization_corpora(root, seed: int = 0,
                                duration_s: float = DEFAULT_CLIP_S):
    """Two synthetic domains sharing one spoof cue (a high-band tone burst)
    under a loudness confound that flips between domains.

    Domain A: spoofs loud, bonafide quiet. Domain B: reversed. A classifier
    keyed to overall level aces A and collapses on B; one keyed to the burst
    transfers. Returns (manifest_a, manifest_b).
    """
    if not duration_s >= GENERALIZATION_MIN_S:
        raise InputError(f"generalization clips must last at least "
                         f"{GENERALIZATION_MIN_S} s, got {duration_s} s")
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
                             counts={"train": GENERALIZATION_TRAIN,
                                     "eval": GENERALIZATION_EVAL})
    manifest_b = make_domain("domain_b", spoof_gain=0.1, bonafide_gain=0.5,
                             noise_level=0.004,
                             counts={"eval": GENERALIZATION_EVAL_B})
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
# Detectors and the studies

STUDY_GBDT = gbdt.GbdtConfig(n_estimators=100, max_depth=3)
STUDY_TRAIN = transformer.TrainConfig(steps=300)


# A detector as the studies see it: `front` maps a clip to the model's input,
# `train(inputs, labels)` fits a model on a list of inputs, and
# `predict_proba(model, inputs)` gives their spoof probabilities.
# `min_samples` is the fewest samples at SAMPLE_RATE a clip needs.
Detector = namedtuple("Detector", "front train predict_proba min_samples")


def gbdt_detector(cfg: gbdt.GbdtConfig) -> Detector:
    """Boosted trees on the 37-feature vector; a clip needs one MFCC frame."""
    return Detector(
        lambda audio: dsp.extract_features(audio).values,
        lambda X, y: gbdt.train(np.stack(X), y, cfg, dsp.FEATURE_NAMES),
        lambda model, X: gbdt.predict_proba(model, np.stack(X)),
        dsp.frame_length(dsp.FRAME_MS, dsp.SAMPLE_RATE))


def transformer_detector(cfg: transformer.TransformerConfig,
                         train_cfg: transformer.TrainConfig) -> Detector:
    """The patch transformer on the log-Mel; its input shape comes from the
    training spectrograms, which need one patch width of log-Mel columns."""
    def train(specs, labels):
        return transformer.train_toy(
            list(zip(specs, labels)),
            replace(cfg, input_shape=specs[0].shape), train_cfg)
    return Detector(dsp.mel_spectrogram, train, transformer.predict_proba,
                    dsp.samples_for_frames(cfg.geometry.patch_w, dsp.MEL_SPEC_HOP_MS,
                                           dsp.SAMPLE_RATE))


def fit_clip_length(audio: AudioBuffer, duration_s: float) -> AudioBuffer:
    """Pad with zeros or truncate to exactly `duration_s`."""
    n = int(round(duration_s * audio.sample_rate))
    x = audio.samples
    if x.size >= n:
        return AudioBuffer(x[:n], audio.sample_rate)
    return AudioBuffer(np.r_[x, np.zeros(n - x.size)], audio.sample_rate)


def balanced_indices(labels, n_per_class: int, rng) -> np.ndarray:
    """Seeded uniform downsample to n_per_class per class, original order."""
    if n_per_class < 1:
        raise InputError("n_per_class must be >= 1")
    y = np.asarray(labels)
    chosen = []
    for cls in (0, 1):
        pool = np.where(y == cls)[0]
        if pool.size < n_per_class:
            raise InputError(
                f"class {LABELS[cls]} has {pool.size} samples, need {n_per_class}")
        chosen.append(rng.choice(pool, size=n_per_class, replace=False))
    return np.sort(np.concatenate(chosen))


def _split(manifest: DatasetManifest, split: str) -> list:
    """The manifest's entries of `split`; an InputError if it has none."""
    entries = manifest.subset(split)
    if not entries:
        raise InputError(f"{manifest.name}: no {split} split")
    return entries


def _inputs(detectors, entries, idx, duration_s, augmentation, seed):
    """Each detector's inputs ({name: list}) of the entries at `idx`; clip i
    is fitted to `duration_s` and augmented with seed `seed + i`."""
    inputs = {name: [] for name in detectors}
    for i in idx:
        audio = fit_clip_length(dsp.load_audio(entries[i].path), duration_s)
        audio = AUGMENTATIONS[augmentation](audio, seed + i)
        for name, detector in detectors.items():
            inputs[name].append(detector.front(audio))
    return inputs


def _study(detectors, train_entries, eval_sets, seed, duration_s,
           augmentation="identity", balance_n=None):
    """Train each detector on the seed's class-balanced draw of
    `train_entries`; score it on each `(entries, report ids)` eval set, drawn
    down to `balance_n` per class with seed `seed + 1` unless that is None.
    Eval clips take augmentation seeds from `seed + 10_000`."""
    labels = np.array([e.label for e in train_entries])
    idx = balanced_indices(labels, min(np.bincount(labels, minlength=2)),
                           np.random.default_rng(seed))
    inputs = _inputs(detectors, train_entries, idx, duration_s, augmentation, seed)
    models = {name: d.train(inputs[name], labels[idx]) for name, d in detectors.items()}
    reports = []
    for entries, ids in eval_sets:
        labels = np.array([e.label for e in entries])
        idx = np.arange(labels.size) if balance_n is None else balanced_indices(
            labels, min(balance_n, *np.bincount(labels, minlength=2)),
            np.random.default_rng(seed + 1))
        inputs = _inputs(detectors, entries, idx, duration_s, augmentation, seed + 10_000)
        for name, d in detectors.items():
            probs = d.predict_proba(models[name], inputs[name])
            reports.append(evaluate(labels[idx], probs, model_id=name, **ids))
    return reports


def run_generalization(train_manifest: DatasetManifest,
                       eval_manifest: DatasetManifest, detectors: dict,
                       balance_n: int, seed: int = 0,
                       duration_s: float = DEFAULT_CLIP_S):
    """Train on A's train split; evaluate in-domain (A eval) and cross-domain
    (B eval), each downsampled to balance_n per class. Returns a report list
    and a Markdown table."""
    if balance_n < 1:
        raise InputError("balance_n must be >= 1")
    train_entries = _split(train_manifest, "train")
    domains = [("in-domain", train_manifest)]
    if train_manifest.name != eval_manifest.name:
        domains.append(("cross-domain", eval_manifest))
    eval_sets = [(_split(m, "eval"), {"dataset_id": f"{m.name} ({tag})"})
                 for tag, m in domains]
    reports = _study(detectors, train_entries, eval_sets, seed, duration_s,
                     balance_n=balance_n)
    return reports, generalization_markdown(reports)


def run_augmentation_study(manifest: DatasetManifest, augmentations,
                           detectors: dict, seed: int = 0,
                           duration_s: float = DEFAULT_CLIP_S):
    """Train and evaluate once per augmentation condition (train and eval
    audio both pass through the condition)."""
    for a in augmentations:
        if a not in AUGMENTATIONS:
            raise InputError(f"unknown augmentation {a!r}")
    train_entries, eval_entries = _split(manifest, "train"), _split(manifest, "eval")

    def condition(i):
        ids = {"dataset_id": manifest.name, "augmentation_id": augmentations[i]}
        return _study(detectors, train_entries, [(eval_entries, ids)],
                      seed, duration_s, augmentations[i])

    reports = [r for rows in _fork_map(condition, len(augmentations)) for r in rows]
    return reports, augmentation_markdown(reports)


# ---------------------------------------------------------------------------
# BLAS threads and forked workers

@lru_cache(maxsize=None)
def _openblas():
    """The (get, set) thread-count functions of numpy's OpenBLAS, or None
    where numpy's BLAS exports neither. dlsym on numpy's extension module
    also searches the libraries it links."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def one_blas_thread():
    """Hold BLAS to one thread inside the block and restore its thread count
    after it; yields whether numpy's BLAS could be held. A product split over
    threads sums in another order, so without this an artifact could depend
    on the thread count (chroma's filterbank product moves in the last bit),
    and forked workers would wait on each other's BLAS threads."""
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield True
    finally:
        set_(before)


_task = None  # the function a forked worker of `_fork_map` runs


def _set_task(task):
    global _task
    _task = task


def _run_task(i):
    return _task(i)


def _fork_map(task, n):
    """[task(i) for i in range(n)] under `one_blas_thread`, computed by
    forked workers, one per CPU this process may use (`taskset` limits them),
    or in this process when one worker would do, where the platform cannot
    fork, or where BLAS cannot be held to one thread.

    Workers are forked, not spawned: under fork the initializer's arguments
    are inherited, not pickled, so `task` may be a closure, and spawn would
    leave multiprocessing's resource tracker running. An error raised in a
    worker is raised here; a worker that dies is a SpoofkitError. No worker
    outlives the call."""
    import multiprocessing  # with concurrent.futures, only when a study runs

    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else [0]
    jobs = min(n, len(cpus))
    with one_blas_thread() as held:
        if jobs < 2 or not held or "fork" not in multiprocessing.get_all_start_methods():
            return [task(i) for i in range(n)]
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(jobs, multiprocessing.get_context("fork"),
                                   _set_task, (task,))
        try:
            return list(pool.map(_run_task, range(n)))
        except BrokenProcessPool as exc:
            raise SpoofkitError(f"a study worker process died: {exc}") from None
        finally:
            pool.shutdown(cancel_futures=True)


# ---------------------------------------------------------------------------
# Reports

def _fmt(x):
    return "-" if x is None else f"{x:.3f}"


def _markdown(header, rows) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    return "\n".join(lines + ["| " + " | ".join(row) + " |" for row in rows]) + "\n"


def _spoof_scores(r) -> list:
    """The spoof class's precision, recall and F1, then accuracy."""
    sp = r.per_class["spoof"]
    return [_fmt(v) for v in (sp["precision"], sp["recall"], sp["f1"], r.accuracy)]


def generalization_markdown(reports) -> str:
    return _markdown(
        ["Model", "Dataset", "Precision", "Recall", "F1", "Accuracy", "ROC-AUC"],
        [[r.model_id, r.dataset_id, *_spoof_scores(r), _fmt(r.roc_auc)]
         for r in reports])


def augmentation_markdown(reports) -> str:
    return _markdown(
        ["Augmentation", "Model", "Precision", "Recall", "F1", "Accuracy"],
        [[r.augmentation_id, r.model_id, *_spoof_scores(r)] for r in reports])


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
