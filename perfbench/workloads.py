"""The three benchmark workloads: seeded input generators, the CLI calls of
one pass, and the checks on what those calls wrote.

Run as a script to generate one workload's inputs (the benchmark times this
as set-up, imports included):

    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD SEED DIR [--smoke]
"""

from __future__ import annotations

import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from spoofkit import bench, cli, dsp, gbdt

HERE = os.path.dirname(os.path.abspath(__file__))

# Sizes per scale. "full" is what the benchmark measures; "smoke" only
# exercises the code paths (self-tests).
SIZES = {
    "full": {
        # bench augment at CLI defaults on the default corpus
        "augment-study": {"n_train": 60, "n_eval": 60, "args": []},
        "gbdt-explain": {"n_train": 8000, "n_eval": 4000, "trees": 5,
                         "repeats": 5},
        "clip-explain": {"n_train": 30, "n_eval": 40, "n_hard": 6,
                         "steps": 300},
    },
    "smoke": {
        "augment-study": {"n_train": 6, "n_eval": 6,
                          "args": ["--steps", "5", "--n-estimators", "3"]},
        "gbdt-explain": {"n_train": 60, "n_eval": 200, "trees": 2,
                         "repeats": 1},
        "clip-explain": {"n_train": 4, "n_eval": 4, "n_hard": 1, "steps": 5},
    },
}

CUE_HZ = 6500.0  # spoof cue: a sustained tone above the codec cutoff
CLIP_S = (1.6, 3.6)  # clip-explain lengths; none shorter than the model input
LABEL_FLIP = 0.15  # share of flipped labels in the gbdt-explain tables


@dataclass
class Call:
    """One CLI invocation; everything it writes goes under `out`."""
    argv: list
    out: str
    clip: str = ""  # clip id for per-clip explain calls


def load_reference(scale, workload) -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)[scale][workload]


def _voice_tones(rng):
    return [(float(rng.uniform(150, 900)), float(rng.uniform(0.2, 0.5)))
            for _ in range(int(rng.integers(2, 5)))]


def _write_manifest(path, rows) -> None:
    """rows: (file name, label, split); paths stay relative to the manifest
    so the inputs can move with the checkout."""
    bench.write_manifest(path, [bench.ManifestEntry(name, label, "synthetic"
                                                    if label else "-", split)
                                for name, label, split in rows])


def _read_manifest(path):
    with open(path, newline="") as fh:
        return [(r["path"], bench.LABELS.index(r["label"]), r["split"])
                for r in csv.DictReader(fh)]


def _write_table(path, X, y) -> None:
    # the feature-CSV layout, written here rather than by the program so the
    # inputs stay the same when the program's writer changes
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dsp.FEATURE_NAMES) + ["label"])
        for row, label in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [bench.LABELS[label]])


def _read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(v) for v in r[:-1]] for r in rows[1:]])
    return data, np.array([bench.LABELS.index(r[-1]) for r in rows[1:]])


# ---------------------------------------------------------------------------
# Input generators. Each writes into `root` and depends only on the seed.

def make_augment_inputs(seed, root, size) -> None:
    # make_augmentation_corpus needs an absolute root; the manifest is then
    # rewritten with relative paths
    manifest = bench.make_augmentation_corpus(
        os.path.abspath(root), seed=seed, n_train=size["n_train"],
        n_eval=size["n_eval"])
    _write_manifest(os.path.join(root, "corpus.csv"),
                    [(os.path.basename(e.path), e.label, e.split)
                     for e in manifest.entries])


def make_gbdt_inputs(seed, root, size) -> None:
    """Feature tables with correlated feature groups and overlapping classes:
    a noisy linear score plus LABEL_FLIP of flipped labels, so trees grow to full
    depth."""
    # the problem (feature groups, decision direction) is the same for every
    # seed, so seeds differ only in the sampled rows
    fixed = np.random.default_rng(12345)
    d = dsp.N_FEATURES
    mixing = fixed.standard_normal((8, d))
    weights = fixed.standard_normal(d) / np.sqrt(d)
    rng = np.random.default_rng(seed)
    for name, n in (("train", size["n_train"]), ("eval", size["n_eval"])):
        X = rng.standard_normal((n, 8)) @ mixing + 0.5 * rng.standard_normal((n, d))
        score = X @ weights
        y = (score / score.std() + 0.2 * rng.standard_normal(n) > 0).astype(int)
        flip = rng.random(n) < LABEL_FLIP
        _write_table(os.path.join(root, f"{name}.csv"), X, np.where(flip, 1 - y, y))


def make_clip_inputs(seed, root, size) -> None:
    """Clips of seeded lengths (a shuffled fixed list, so the total audio is
    the same for every seed) and a transformer trained on the train split.

    In the eval split, n_hard clips per class break the cue: spoofs without
    the tone and bonafide clips with it. A detector that keys on the cue
    then sits at EER = n_hard / n_eval."""
    rng = np.random.default_rng(seed)
    counts = (("train", size["n_train"]), ("eval", size["n_eval"]))
    n_clips = 2 * sum(n for _, n in counts)
    lengths = iter(rng.permutation(np.linspace(*CLIP_S, n_clips)))
    rows = []
    for split, n in counts:
        for label in (0, 1):
            for k in range(n):
                hard = split == "eval" and k < size["n_hard"]
                tones = _voice_tones(rng)
                if bool(label) != hard:
                    tones.append((CUE_HZ, 0.5))
                clip = bench.synth_clip(rng, float(next(lengths)), 0.3, 0.05,
                                        tones, [])
                name = f"{split}_{bench.LABELS[label]}_{k:03d}.wav"
                dsp.write_wav(os.path.join(root, name), clip)
                rows.append((name, label, split))
    manifest = os.path.join(root, "clips.csv")
    _write_manifest(manifest, rows)
    rc = cli.main(["--seed", str(seed), "train", "transformer",
                   "--manifest", manifest, "--out",
                   os.path.join(root, "model.json"),
                   "--steps", str(size["steps"]), "--learning-rate", "0.01"])
    if rc != 0:
        raise RuntimeError(f"training the clip-explain model exited {rc}")


# ---------------------------------------------------------------------------
# Passes: the CLI calls, run from the workload directory (inputs/ and out/).

def augment_calls(seed, size):
    return [Call(["--seed", str(seed), "bench", "augment", "--manifest",
                  "inputs/corpus.csv", "--out", "out/augment"] + size["args"],
                 "out/augment")]


def gbdt_calls(seed, size):
    return [
        Call(["--seed", str(seed), "train", "gbdt", "--features",
              "inputs/train.csv", "--out", "out/train/gbdt.json",
              "--n-estimators", str(size["trees"]), "--max-depth", "8"],
             "out/train"),
        Call(["--seed", str(seed), "explain", "importance", "--model",
              "out/train/gbdt.json", "--features", "inputs/train.csv",
              "--out", "out/importance", "--repeats", str(size["repeats"])],
             "out/importance"),
    ]


def clip_calls(seed, size):
    calls = [Call(["--seed", str(seed), "extract", "--manifest",
                   "inputs/clips.csv", "--out-csv", "out/extract/features.csv"],
                  "out/extract")]
    for name, _, split in _read_manifest("inputs/clips.csv"):
        if split != "eval":
            continue
        clip = os.path.splitext(name)[0]
        for kind in ("occlusion", "rollout"):
            out = f"out/{clip}/{kind}"
            calls.append(Call(["--seed", str(seed), "explain", kind, "--model",
                               "inputs/model.json", "--wav", f"inputs/{name}",
                               "--out", out], out, clip))
    return calls


def clips_per_pass(workload, size) -> int:
    """Clips (feature rows for gbdt-explain) one pass pushes through the CLI."""
    n = 2 * (size["n_train"] + size["n_eval"])
    if workload == "augment-study":
        return 3 * n  # identity, codec and rerecord conditions
    if workload == "gbdt-explain":
        return size["n_train"]
    return n + 2 * size["n_eval"]  # extract all, explain the eval clips


# ---------------------------------------------------------------------------
# Output checks. Each returns (problems, eer) for one finished pass.

def _within(ref, key, value):
    want, tol = ref[key]
    return value is not None and abs(value - want) <= tol


def check_augment(ref):
    with open("out/augment/augmentation.json") as fh:
        reports = json.load(fh)["reports"]
    problems = []
    if len(reports) != 6:
        problems.append(f"expected 6 reports, got {len(reports)}")
    for r in reports:
        key = f"{r['augmentation']}/{r['model']}"
        for metric in ("eer", "roc_auc"):
            if not _within(ref[key], metric, r[metric]):
                problems.append(f"{key} {metric} {r[metric]} outside {ref[key][metric]}")
    return problems, float(np.mean([r["eer"] for r in reports]))


def check_gbdt(ref):
    with open("out/train/gbdt.json") as fh:
        model = gbdt.from_json(fh.read())
    X, y = _read_table("inputs/eval.csv")
    probs = gbdt.predict_proba(model, X)
    eer, auc = bench.equal_error_rate(y, probs), bench.roc_auc(y, probs)
    problems = []
    with open("out/importance/importance.json") as fh:
        rows = json.load(fh)["importances"]
    if [r["feature"] for r in rows] != list(dsp.FEATURE_NAMES):
        problems.append("importance report does not list the 37 features")
    for metric, value in (("eer", eer), ("roc_auc", auc)):
        if not _within(ref["heldout"], metric, value):
            problems.append(f"held-out {metric} {value} outside {ref['heldout'][metric]}")
    return problems, eer


def check_clip(ref):
    entries = _read_manifest("inputs/clips.csv")
    with open("out/extract/features.csv") as fh:
        n_rows = sum(1 for line in fh if not line.startswith("#")) - 1
    problems = []
    if n_rows != len(entries):
        problems.append(f"extract wrote {n_rows} rows for {len(entries)} clips")
    labels, probs = [], []
    for name, label, split in entries:
        if split != "eval":
            continue
        clip = os.path.splitext(name)[0]
        with open(f"out/{clip}/occlusion/occlusion.json") as fh:
            base = json.load(fh)["base_prob"]
        with open(f"out/{clip}/rollout/rollout.json") as fh:
            prob = json.load(fh)["prob_spoof"]
        # both explainers run the forward pass on the same spectrogram; a
        # batched forward may differ in the last bits
        if abs(base - prob) > 1e-9 or not 0.0 <= prob <= 1.0:
            problems.append(f"{clip}: occlusion base {base} vs rollout {prob}")
        labels.append(label)
        probs.append(prob)
    eer, auc = bench.equal_error_rate(labels, probs), bench.roc_auc(labels, probs)
    for metric, value in (("eer", eer), ("roc_auc", auc)):
        if not _within(ref["eval"], metric, value):
            problems.append(f"eval {metric} {value} outside {ref['eval'][metric]}")
    return problems, eer


@dataclass
class Workload:
    make_inputs: object
    calls: object
    check: object


# why each workload exists is stated in BENCHMARK.json
WORKLOADS = {
    "augment-study": Workload(make_augment_inputs, augment_calls, check_augment),
    "gbdt-explain": Workload(make_gbdt_inputs, gbdt_calls, check_gbdt),
    "clip-explain": Workload(make_clip_inputs, clip_calls, check_clip),
}


if __name__ == "__main__":
    workload, seed, root = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    scale = "smoke" if "--smoke" in sys.argv[4:] else "full"
    os.makedirs(root, exist_ok=True)
    WORKLOADS[workload].make_inputs(seed, root, SIZES[scale][workload])
