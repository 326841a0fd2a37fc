"""Layer benchmarks of spoofkit, one topic at a time, on seeded synthetic
inputs:

  gbdt     tree fit, predict and permutation importance on feature tables
  explain  model load, the occlusion scan, and one `explain occlusion` and
           one `explain rollout` call, with a transformer trained here
  dsp      MFCC, chroma, spectral scalars, log-Mel and the 37-dim feature
           vector of 1.6, 2.6 and 3.6 s clips
  augment  the codec and rerecord simulators on the same clips
  transformer
           `forward_batch` and one `loss_and_grads` step of the study
           transformer on 120 spectrograms at 9, 41 and 81 tokens, and 50
           `train_toy` steps at 9 tokens
  startup  `import spoofkit.cli` and one whole `extract`, `explain rollout`
           and `explain importance` process, each in a fresh interpreter:
           seconds and peak resident memory

    python3 tools/bench_layers.py --topic dsp --label change
    python3 tools/bench_layers.py --topic dsp --label parent --src ../parent/src

After a fixed warm-up (WARMUP_S seconds of feature extraction), each case
runs the topic's repeat count in this process and records its median wall
time in seconds, plus a SHA-256 of what it produced, so that two sources can
be checked for identical output. A dsp or augment case also records the
tracemalloc peak of one more call. A startup case is instead the median
over fresh interpreters that import the `--src` package, of wall time and
of the process's peak resident set (VmHWM, Linux). The entry for `--label`
(with the machine, Python, numpy and, where installed, scipy versions) is
merged into `--out`, BENCH_<topic>.json by default; other labels already in the
file are kept, so the numbers of two sources measured on the same machine
sit side by side.

Two sources timed one after the other drift apart with the host. To compare
them, give the parent's source as `--parent-src`:

    python3 tools/bench_layers.py --topic dsp --label alternating \
        --parent-src ../parent/src

The whole topic then runs as above in a fresh process of one source and then
of the other, ROUNDS times, the first side alternating from round to round.
The entry holds, per case and side, the median over rounds of `median_s`,
`peak_bytes` and `maxrss_mb`, the last round's other fields (`sha256`, ...),
and every round's change/parent time ratio with the count of rounds in which
the change was faster.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
N_FEATURES = 37
LABEL_FLIP = 0.15  # flipped labels keep classes overlapping, so trees grow deep
N_PER_CLASS = 8  # transformer training clips per class
STEPS = 50  # training steps; the timings do not depend on how well it fits
CUE_HZ = 6500.0  # spoof cue: a sustained tone
DSP_CLIP_S = (1.6, 2.6, 3.6)
DSP_STAGES = ("mfcc", "chroma", "spectral_scalars", "mel_spectrogram", "extract_features")
ROUNDS = 10  # alternating rounds: enough pairs for a 9-of-10 verdict
MEDIAN_FIELDS = ("median_s", "peak_bytes", "maxrss_mb")
WARMUP_S = 3.0  # the first ~1 s of calls in a fresh process run several times slower

TRANSFORMER_BATCH = 120  # clips, as a study trains on
TRANSFORMER_COLUMNS = {9: 16, 41: 80, 81: 160}  # tokens -> columns of a 128-band input

# (name, trees, depth, rows) of each gbdt.train case
TRAIN_CASES = [
    ("train_100x3_120x37", 100, 3, 120),
    ("train_400x8_240x37", 400, 8, 240),
    ("train_50x8_2000x37", 50, 8, 2000),
    ("train_5x8_8000x37", 5, 8, 8000),
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def record(cases, name, fn, repeats, digest, peak=False):
    """Time `repeats` calls of fn; store the median seconds and the digest of
    the last result (and the tracemalloc peak of one more call) under
    cases[name]. Returns the last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    cases[name] = {"median_s": statistics.median(times), "sha256": digest(result)}
    if peak:
        tracemalloc.start()
        try:
            fn()
            cases[name]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    print(f"{name}: {cases[name]['median_s']:.4f} s", file=sys.stderr)
    return result


def warm_up(sk) -> None:
    """Extract features from a fixed clip for WARMUP_S seconds, so that no case
    is timed in the slow first second of the process. It draws from its own
    generator, so the cases' inputs do not change."""
    clip = sk.bench.synth_clip(np.random.default_rng(1), sk.bench.DEFAULT_CLIP_S,
                               0.3, 0.05, [(440.0, 0.4), (CUE_HZ, 0.5)], [])
    end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < end:
        sk.dsp.extract_features(clip)


def table(n, seed=0):
    """A seeded (n, 37) table: eight latent factors mixed into correlated
    features plus noise, labelled by a noisy linear score."""
    fixed = np.random.default_rng(12345)
    mixing = fixed.standard_normal((8, N_FEATURES))
    weights = fixed.standard_normal(N_FEATURES) / np.sqrt(N_FEATURES)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 8)) @ mixing + 0.5 * rng.standard_normal((n, N_FEATURES))
    score = X @ weights
    y = (score / score.std() + 0.2 * rng.standard_normal(n) > 0).astype(int)
    return X, np.where(rng.random(n) < LABEL_FLIP, 1 - y, y)


def run_gbdt(sk, repeats) -> dict:
    cases, models = {}, {}
    for name, trees, depth, rows in TRAIN_CASES:
        X, y = table(rows)
        cfg = sk.gbdt.GbdtConfig(n_estimators=trees, max_depth=depth)
        models[name] = record(cases, name, lambda: sk.gbdt.train(X, y, cfg), repeats,
                              lambda model: sha(sk.gbdt.to_json(model).encode()))
    X, _ = table(8000, seed=1)
    record(cases, "decision_scores_5x8_8000rows",
           lambda: sk.gbdt.decision_scores(models["train_5x8_8000x37"], X), repeats,
           lambda scores: sha(scores.tobytes()))
    X, y = table(240)
    record(cases, "importance_400x8_240rows_10repeats",
           lambda: sk.gbdt_explain.permutation_importance(
               models["train_400x8_240x37"], X, y, repeats=10, seed=0), repeats,
           lambda report: sha(report.to_json().encode()))
    return cases


def cli(sk, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = sk.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"spoofkit {' '.join(argv)} exited {rc}")


def files_digest(out) -> str:
    """SHA-256 over the files `explain` wrote, in name order; the `meta`
    entries are left out, as they hold the output path."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".json"):
            doc = json.loads(data)
            doc.pop("meta", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()[:16]


def train_transformer(sk, root):
    """Seeded 1.6 s clips in `root` and a transformer trained on them (lr
    0.01); returns the model path and the path of one clip."""
    rng = np.random.default_rng(0)
    entries = []
    for label in (0, 1):
        for k in range(N_PER_CLASS):
            tones = [(float(rng.uniform(150, 900)), 0.4)] + [(CUE_HZ, 0.5)] * label
            clip = sk.bench.synth_clip(rng, sk.bench.DEFAULT_CLIP_S, 0.3, 0.05, tones, [])
            path = os.path.join(root, f"{label}_{k}.wav")
            sk.dsp.write_wav(path, clip)
            entries.append(sk.bench.ManifestEntry(path, label, "-", "train"))
    manifest, model_path = os.path.join(root, "clips.csv"), os.path.join(root, "model.json")
    sk.bench.write_manifest(manifest, entries)
    cli(sk, ["train", "transformer", "--manifest", manifest, "--out", model_path,
             "--steps", str(STEPS), "--learning-rate", "0.01"])
    return model_path, entries[-1].path


def run_explain(sk, repeats) -> dict:
    cases = {}
    with tempfile.TemporaryDirectory() as root:
        model_path, wav = train_transformer(sk, root)
        model = record(cases, "model_load", lambda: sk.cli._load_model(
            model_path, "transformer", sk.transformer.from_json), repeats,
            lambda m: sha(sk.transformer.to_json(m).encode()))
        spec = sk.dsp.mel_spectrogram(sk.bench.fit_clip_length(
            sk.dsp.load_audio(wav), sk.bench.DEFAULT_CLIP_S))
        # the log-Mel array; sources up to 342cf1e wrap it in a MelSpectrogram
        spec = getattr(spec, "values", spec)
        cfg = sk.attn_explain.default_occlusion_config(spec.shape)
        heatmap = record(cases, "occlusion_scan_128x16", lambda: sk.attn_explain.occlusion_scan(
            lambda stack: sk.transformer.predict_proba(model, stack), spec, cfg), repeats,
            lambda h: sha(np.array([h.base_prob] + [b[4] for b in h.boxes]).tobytes()))
        cases["occlusion_scan_128x16"]["boxes"] = len(heatmap.boxes)
        for kind in ("occlusion", "rollout"):
            out = os.path.join(root, kind)
            record(cases, f"explain_{kind}", lambda: cli(sk, [
                "explain", kind, "--model", model_path, "--wav", wav, "--out", out]),
                repeats, lambda _: files_digest(out))
    return cases


def dsp_clips(sk):
    """(duration, clip) for each of DSP_CLIP_S: seeded tone-plus-cue clips."""
    rng = np.random.default_rng(0)
    for duration in DSP_CLIP_S:
        yield duration, sk.bench.synth_clip(
            rng, duration, 0.3, 0.05, [(float(rng.uniform(150, 900)), 0.4), (CUE_HZ, 0.5)], [])


def run_dsp(sk, repeats) -> dict:
    cases = {}
    for duration, clip in dsp_clips(sk):
        for stage in DSP_STAGES:
            fn = getattr(sk.dsp, stage)
            # extract_features returns a FeatureVector, and mel_spectrogram in
            # sources up to 342cf1e a MelSpectrogram; both hold .values
            record(cases, f"{stage}_{duration}s", lambda: fn(clip), repeats,
                   lambda out: sha(getattr(out, "values", out).tobytes()),
                   peak=True)
    return cases


def run_augment(sk, repeats) -> dict:
    """The codec and rerecord simulators as `bench augment` calls them. A
    rerecord case also records the largest difference of its reverb (no
    noise) from direct convolution with the same room response."""
    cases = {}
    for duration, clip in dsp_clips(sk):
        record(cases, f"augment_codec_{duration}s", lambda: sk.bench.augment_codec(clip),
               repeats, lambda out: sha(out.samples.tobytes()), peak=True)
        name = f"augment_rerecord_{duration}s"
        record(cases, name, lambda: sk.bench.augment_rerecord(clip, seed=0), repeats,
               lambda out: sha(out.samples.tobytes()), peak=True)
        h = sk.bench.room_impulse_response(clip.sample_rate, 0.25, 0.3,
                                           np.random.default_rng(0))
        reverb = sk.bench.augment_rerecord(clip, seed=0, snr_db=None).samples
        direct = np.convolve(clip.samples, h)[: clip.samples.size]
        cases[name]["max_abs_diff_vs_direct"] = float(np.abs(reverb - direct).max())
    return cases


def run_transformer(sk, repeats) -> dict:
    """The study transformer (16x16 patches, d_model 16, 2 layers) on seeded
    noise spectrograms with alternating labels. A case's digest covers the
    logits and attention, the gradients or the trained parameters."""
    tr = sk.transformer
    rng = np.random.default_rng(0)
    labels = np.arange(TRANSFORMER_BATCH) % 2
    cases = {}
    for n_tokens, columns in TRANSFORMER_COLUMNS.items():
        specs = rng.standard_normal((TRANSFORMER_BATCH, 128, columns))
        cfg = tr.TransformerConfig(input_shape=(128, columns))
        model = tr.TransformerModel(cfg, tr.init_params(cfg))
        tokens, patches = tr.embed_dataset(specs, model)
        record(cases, f"forward_batch_{n_tokens}tok", lambda: tr.forward_batch(model, tokens),
               repeats, lambda out: sha(out[0].tobytes() + np.stack(out[1]).tobytes()))
        record(cases, f"loss_and_grads_{n_tokens}tok",
               lambda: tr.loss_and_grads(model, tokens, patches, labels), repeats,
               lambda out: sha(b"".join(out[1][k].tobytes() for k in tr.param_names(cfg))))
        if n_tokens == 9:
            record(cases, f"train_toy_{STEPS}steps_9tok", lambda: tr.train_toy(
                list(zip(specs, labels)), cfg, tr.TrainConfig(steps=STEPS)), repeats,
                lambda m: sha(tr.to_json(m).encode()))
    return cases


# A child reports its own peak resident set, VmHWM: its ru_maxrss would also
# count the resident set of this process, which it inherits at fork and exec.
PEAK_RSS = """
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""
IMPORT_PROBE = """\
import time
start = time.perf_counter()
import spoofkit.cli
print(time.perf_counter() - start)
""" + PEAK_RSS
CLI_PROBE = """\
import sys
from spoofkit import cli
if cli.main(sys.argv[1:]) != 0:
    sys.exit(1)
""" + PEAK_RSS


def child(sk, *args) -> list:
    """The stdout lines of `python *args` in a fresh interpreter that imports
    the spoofkit package `sk` was loaded from."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sk.__file__))}
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()


def feature_digest(path) -> str:
    """SHA-256 of a feature CSV without its `#` provenance line."""
    with open(path) as fh:
        return sha("".join(line for line in fh if not line.startswith("#")).encode())


def record_process(cases, name, sk, argv, repeats, digest) -> None:
    """`record` a whole `spoofkit *argv` process, plus the median of its peak
    resident set in MB."""
    kb = []
    record(cases, name, lambda: kb.append(int(child(sk, "-c", CLI_PROBE, *argv)[-1])),
           repeats, lambda _: digest())
    cases[name]["maxrss_mb"] = statistics.median(kb) / 1024


def run_startup(sk, repeats) -> dict:
    runs = [child(sk, "-c", IMPORT_PROBE) for _ in range(repeats)]
    cases = {"import_cli": {"median_s": statistics.median(float(s) for s, _ in runs),
                            "maxrss_mb": statistics.median(int(kb) for _, kb in runs) / 1024}}
    print(f"import_cli: {cases['import_cli']['median_s']:.4f} s", file=sys.stderr)
    with tempfile.TemporaryDirectory() as root:
        model_path, wav = train_transformer(sk, root)
        features, gbdt_path = os.path.join(root, "features.csv"), os.path.join(root, "gbdt.json")
        sk.cli.write_features_csv(features, *table(400), argparse.Namespace(seed=0))
        cli(sk, ["train", "gbdt", "--features", features, "--out", gbdt_path,
                 "--n-estimators", "50", "--max-depth", "4"])
        extracted = os.path.join(root, "extracted.csv")
        record_process(cases, "extract_process", sk, [
            "extract", "--manifest", os.path.join(root, "clips.csv"), "--out-csv", extracted],
            repeats, lambda: feature_digest(extracted))
        for kind, inputs in (("rollout", ["--model", model_path, "--wav", wav]),
                             ("importance", ["--model", gbdt_path, "--features", features])):
            out = os.path.join(root, kind)
            record_process(cases, f"explain_{kind}_process", sk,
                           ["explain", kind, *inputs, "--out", out], repeats,
                           lambda: files_digest(out))
    return cases


def versions() -> dict:
    """Python and the versions of numpy and, where installed, scipy."""
    found = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        found["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        pass
    return found


TOPICS = {"gbdt": (run_gbdt, 5), "explain": (run_explain, 20), "dsp": (run_dsp, 20),
          "augment": (run_augment, 20), "startup": (run_startup, 10),
          "transformer": (run_transformer, 20)}


def alternate(args) -> dict:
    """The cases of `args.topic` from ROUNDS rounds of fresh processes of
    `--parent-src` and `--src` in turn, merged per case as the module doc
    says."""
    sources = {"parent": args.parent_src, "change": args.src}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "entry.json")
        for r in range(ROUNDS):
            for side in ("parent", "change")[::1 if r % 2 == 0 else -1]:
                subprocess.run([sys.executable, os.path.abspath(__file__), "--topic", args.topic,
                                "--label", side, "--src", sources[side], "--out", out],
                               check=True)
                with open(out) as fh:
                    runs[side].append(json.load(fh)[side]["cases"])
                os.remove(out)
    cases = {}
    for name in runs["change"][0]:
        case = {}
        for side, rounds in runs.items():
            for key, value in rounds[-1][name].items():
                case[f"{side}_{key}"] = (statistics.median(r[name][key] for r in rounds)
                                         if key in MEDIAN_FIELDS else value)
        ratios = [c[name]["median_s"] / p[name]["median_s"]
                  for p, c in zip(runs["parent"], runs["change"])]
        cases[name] = {**case, "ratios": ratios, "ratio_median": statistics.median(ratios),
                       "change_faster": sum(x < 1 for x in ratios)}
        print(f"{name}: {case['parent_median_s']:.4f} -> {case['change_median_s']:.4f} s, "
              f"change faster in {cases[name]['change_faster']} of {ROUNDS}", file=sys.stderr)
    return cases


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--topic", required=True, choices=sorted(TOPICS))
    p.add_argument("--label", required=True, help="name of this entry, e.g. parent or change")
    p.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                   help="directory holding the spoofkit package to time")
    p.add_argument("--out", help="JSON file to merge into (default BENCH_<topic>.json)")
    p.add_argument("--parent-src", help="source to compare with --src in alternating "
                   "fresh processes")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    sk = importlib.import_module("spoofkit")
    for name in ("attn_explain", "bench", "cli", "dsp", "gbdt", "gbdt_explain", "transformer"):
        importlib.import_module(f"spoofkit.{name}")

    run, repeats = TOPICS[args.topic]
    entry = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(), **versions()},
        "repeats": repeats,
    }
    if args.parent_src:
        entry.update(rounds=ROUNDS, cases=alternate(args))
    else:
        warm_up(sk)
        entry["cases"] = run(sk, repeats)
    out = args.out or os.path.join(HERE, "..", f"BENCH_{args.topic}.json")
    doc = {}
    if os.path.exists(out):
        with open(out) as fh:
            doc = json.load(fh)
    doc[args.label] = entry
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
