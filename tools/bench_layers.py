"""Layer benchmarks of spoofkit, one topic at a time, on seeded synthetic
inputs:

  gbdt     tree fit, predict, permutation importance, the feature-CSV read,
           Spearman correlation and model serialization on feature tables
  explain  model load, the occlusion scan, argparse's parse of the
           `explain rollout` command line, and one `explain occlusion` and
           one `explain rollout` call, with a transformer trained here;
           every call after the first loads the same unchanged model file
  dsp      MFCC, chroma, spectral scalars, log-Mel and the 37-dim feature
           vector of 1.6, 2.6 and 3.6 s clips
  augment  the codec and rerecord simulators on the same clips, and the
           three-condition augmentation study (gbdt, and the transformer at
           STUDY_STEPS steps) on a small corpus; where a source runs the
           conditions in forked workers, tracemalloc sees only this process.
           Both sources must take a clip as a plain sample array
  transformer
           `forward_batch` and one `loss_and_grads` step of the study
           transformer on 120 spectrograms at 9, 41 and 81 tokens, and 50
           `train_toy` steps at 9 tokens
  startup  `import spoofkit.cli` and one whole `extract`, `explain rollout`
           and `explain importance` process, each in a fresh interpreter:
           seconds and peak resident memory

    python3 tools/bench_layers.py --topic dsp --label change
    python3 tools/bench_layers.py --topic dsp --label interleaved \\
        --parent-src ../parent/src

`--src`, and `--parent-src` if given, are loaded into this process side by
side, and each warms up (WARMUP_S seconds of feature extraction). Every case
then makes one untimed call per source, whose result is digested (SHA-256),
and `repeats` rounds of one timed call per source, the parent first in even
rounds and the change first in odd ones. A timed call's result is dropped at
once, so that results kept alive do not shape the heap the next call
allocates from. A case records each source's median seconds, its digest and
the tracemalloc peak of one more call; a startup case, whose call is a fresh
interpreter importing the source's package, records the median of its peak
resident set (VmHWM, Linux) instead. With two sources, those fields are
prefixed `parent_` or `change_`, and the case adds every round's
change/parent time ratio, their median and the count of rounds in which the
change was faster. The entry for `--label` (with the machine, Python, numpy
and, where installed, scipy versions) is merged into `--out`,
BENCH_<topic>.json by default, keeping other labels.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
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
from typing import Callable, NamedTuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SUBMODULES = ("attn_explain", "bench", "cli", "dsp", "gbdt", "gbdt_explain", "transformer")
N_FEATURES = 37
LABEL_FLIP = 0.15  # flipped labels keep classes overlapping, so trees grow deep
N_PER_CLASS = 8  # transformer training clips per class
STEPS = 50  # training steps; the timings do not depend on how well it fits
CUE_HZ = 6500.0  # spoof cue: a sustained tone
DSP_CLIP_S = (1.6, 2.6, 3.6)
DSP_STAGES = ("mfcc", "chroma", "spectral_scalars", "mel_spectrogram", "extract_features")
STUDY_CLIPS = 8  # augmentation-study clips per class in each split
STUDY_STEPS = 20  # transformer training steps in the augmentation study
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


def load(src, name):
    """The spoofkit package under `src`, imported as module `name` with all its
    submodules. Each module imports its siblings relatively, so two sources
    load side by side under two names."""
    package = os.path.join(os.path.abspath(src), "spoofkit")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    sk = importlib.util.module_from_spec(spec)
    sys.modules[name] = sk
    spec.loader.exec_module(sk)
    for sub in SUBMODULES:
        importlib.import_module(f"{name}.{sub}")
    return sk


class Case(NamedTuple):
    """One source's side of a case: `call()` is timed, `digest(result)` names
    what it produced, and `extra(result)` adds fields to the entry. `peak`
    is false for a call whose work runs in another process."""
    name: str
    call: Callable[[], object]
    digest: Callable[[object], str]
    extra: Callable[[object], dict] = lambda _: {}
    peak: bool = True


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def record(sides: dict, repeats: int):
    """Time one case on each side of `sides` ({"change": Case}, or
    {"parent": Case, "change": Case}) as the module doc says. Returns the
    case's entry and the result of each side's untimed call."""
    order = list(sides)
    results = {side: case.call() for side, case in sides.items()}
    times = {side: [] for side in order}
    for r in range(repeats):
        for side in order if r % 2 == 0 else order[::-1]:
            start = time.perf_counter()
            sides[side].call()
            times[side].append(time.perf_counter() - start)
    fields = {}
    for side, case in sides.items():
        fields[side] = {"median_s": statistics.median(times[side]),
                        "sha256": case.digest(results[side]), **case.extra(results[side])}
        if case.peak:
            tracemalloc.start()
            try:
                case.call()
                fields[side]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    line = f"{sides['change'].name}: " + " -> ".join(
        f"{fields[side]['median_s']:.4f}" for side in order) + " s"
    if len(order) == 1:
        print(line, file=sys.stderr)
        return fields["change"], results
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    entry = {f"{side}_{key}": value for side in order for key, value in fields[side].items()}
    entry.update(ratios=ratios, ratio_median=statistics.median(ratios),
                 change_faster=sum(x < 1 for x in ratios))
    print(f"{line}, change faster in {entry['change_faster']} of {repeats}", file=sys.stderr)
    return entry, results


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


def run_gbdt(sk):
    models = {}
    for name, trees, depth, rows in TRAIN_CASES:
        X, y = table(rows)
        cfg = sk.gbdt.GbdtConfig(n_estimators=trees, max_depth=depth)
        models[name] = yield Case(name, lambda: sk.gbdt.train(X, y, cfg),
                                  lambda model: sha(sk.gbdt.to_json(model).encode()))
    X, _ = table(8000, seed=1)
    yield Case("decision_scores_5x8_8000rows",
               lambda: sk.gbdt.decision_scores(models["train_5x8_8000x37"], X),
               lambda scores: sha(scores.tobytes()))
    X, y = table(240)
    yield Case("importance_400x8_240rows_10repeats",
               lambda: sk.gbdt_explain.permutation_importance(
                   models["train_400x8_240x37"], X, y, repeats=10, seed=0),
               lambda report: sha(report.to_json().encode()))
    X, y = table(8000)
    yield Case("importance_5x8_8000rows_5repeats",
               lambda: sk.gbdt_explain.permutation_importance(
                   models["train_5x8_8000x37"], X, y, repeats=5, seed=0),
               lambda report: sha(report.to_json().encode()))
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "features.csv")
        sk.cli.write_features_csv(path, X, y, argparse.Namespace(seed=0))
        yield Case("read_features_csv_8000rows", lambda: sk.cli.read_features_csv(path),
                   lambda Xy: sha(Xy[0].tobytes() + Xy[1].tobytes()))
    yield Case("spearman_8000x37", lambda: sk.gbdt_explain.spearman_matrix(X),
               lambda corr: sha(corr.tobytes()))
    yield Case("to_json_5x8_8000", lambda: sk.gbdt.to_json(models["train_5x8_8000x37"]),
               lambda text: sha(text.encode()))


def cli(sk, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = sk.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"spoofkit {' '.join(argv)} exited {rc}")


def files_digest(out) -> str:
    """SHA-256 over the files a command wrote to `out`, in name order, less
    what holds a hash of the output path: the `meta` entry of a JSON file and
    the `#` provenance line of a CSV."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".json"):
            doc = json.loads(data)
            doc.pop("meta", None)
            data = json.dumps(doc, sort_keys=True).encode()
        elif name.endswith(".csv"):
            data = b"".join(line for line in data.splitlines(True) if not line.startswith(b"#"))
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


def run_explain(sk):
    with tempfile.TemporaryDirectory() as root:
        model_path, wav = train_transformer(sk, root)
        model = yield Case("model_load", lambda: sk.cli._load_model(
            model_path, "transformer", sk.transformer.from_json),
            lambda m: sha(sk.transformer.to_json(m).encode()))
        spec = sk.dsp.mel_spectrogram(sk.bench.fit_clip_length(
            sk.dsp.load_audio(wav), sk.bench.DEFAULT_CLIP_S))
        yield Case("occlusion_scan_128x16", lambda: sk.attn_explain.occlusion_scan(
            lambda stack: sk.transformer.predict_proba(model, stack), spec),
            lambda h: sha(np.array([h.base_prob] + [b[4] for b in h.boxes]).tobytes()),
            lambda h: {"boxes": len(h.boxes)})
        # explain_rollout's argv relative to `root`: the same strings on both sides
        argv = ["explain", "rollout", "--model", "model.json", "--wav",
                os.path.basename(wav), "--out", "rollout"]
        yield Case("cli_parse", lambda: sk.cli.build_parser().parse_args(argv),
                   sk.cli.config_hash)
        for kind in ("occlusion", "rollout"):
            out = os.path.join(root, kind)
            yield Case(f"explain_{kind}", lambda: cli(sk, [
                "explain", kind, "--model", model_path, "--wav", wav, "--out", out]),
                lambda _: files_digest(out))


def dsp_clips(sk):
    """(duration, clip) for each of DSP_CLIP_S: seeded tone-plus-cue clips."""
    rng = np.random.default_rng(0)
    for duration in DSP_CLIP_S:
        yield duration, sk.bench.synth_clip(
            rng, duration, 0.3, 0.05, [(float(rng.uniform(150, 900)), 0.4), (CUE_HZ, 0.5)], [])


def run_dsp(sk):
    for duration, clip in dsp_clips(sk):
        for stage in DSP_STAGES:
            fn = getattr(sk.dsp, stage)
            # extract_features returns a FeatureVector, which holds .values,
            # in sources that still define one
            yield Case(f"{stage}_{duration}s", lambda: fn(clip),
                       lambda out: sha(getattr(out, "values", out).tobytes()))


def run_augment(sk):
    """The codec and rerecord simulators as `bench augment` calls them. A
    rerecord case also records the largest difference of its reverb (no
    noise) from direct convolution with the same room response. The study
    case's digest covers its reports."""
    for duration, clip in dsp_clips(sk):
        yield Case(f"augment_codec_{duration}s", lambda: sk.bench.augment_codec(clip),
                   lambda out: sha(out.tobytes()))
        h = sk.bench.room_impulse_response(0.25, 0.3, np.random.default_rng(0))
        reverb = sk.bench.augment_rerecord(clip, seed=0, snr_db=None)
        diff = float(np.abs(reverb - np.convolve(clip, h)[: clip.size]).max())
        yield Case(f"augment_rerecord_{duration}s",
                   lambda: sk.bench.augment_rerecord(clip, seed=0),
                   lambda out: sha(out.tobytes()),
                   lambda _: {"max_abs_diff_vs_direct": diff})
    with tempfile.TemporaryDirectory() as root:
        manifest = sk.bench.make_augmentation_corpus(root, n_train=STUDY_CLIPS,
                                                     n_eval=STUDY_CLIPS)
        detectors = {"gbdt": sk.bench.gbdt_detector(sk.bench.STUDY_GBDT),
                     "transformer": sk.bench.transformer_detector(
                         sk.transformer.TransformerConfig(),
                         sk.transformer.TrainConfig(steps=STUDY_STEPS))}
        yield Case("augmentation_study_3_conditions", lambda: sk.bench.run_augmentation_study(
            manifest, list(sk.bench.AUGMENTATIONS), detectors),
            lambda out: sha(json.dumps([r.to_dict() for r in out[0]]).encode()))


def run_transformer(sk):
    """The study transformer (16x16 patches, d_model 16, 2 layers) on seeded
    noise spectrograms with alternating labels. A case's digest covers the
    logits and attention, the gradients or the trained parameters."""
    tr = sk.transformer
    rng = np.random.default_rng(0)
    labels = np.arange(TRANSFORMER_BATCH) % 2
    for n_tokens, columns in TRANSFORMER_COLUMNS.items():
        specs = rng.standard_normal((TRANSFORMER_BATCH, 128, columns))
        cfg = tr.TransformerConfig(input_shape=(128, columns))
        model = tr.TransformerModel(cfg, tr.init_params(cfg))
        tokens, patches = tr.embed_dataset(specs, model)
        yield Case(f"forward_batch_{n_tokens}tok", lambda: tr.forward_batch(model, tokens),
                   lambda out: sha(out[0].tobytes() + np.stack(out[1]).tobytes()))
        yield Case(f"loss_and_grads_{n_tokens}tok",
                   lambda: tr.loss_and_grads(model, tokens, patches, labels),
                   lambda out: sha(b"".join(out[1][k].tobytes() for k in tr.param_names(cfg))))
        if n_tokens == 9:
            yield Case(f"train_toy_{STEPS}steps_9tok", lambda: tr.train_toy(
                list(zip(specs, labels)), cfg, tr.TrainConfig(steps=STEPS)),
                lambda m: sha(tr.to_json(m).encode()))


# A child reports its own peak resident set, VmHWM, on its last line: its
# ru_maxrss would also count the resident set of this process, which it
# inherits at fork and exec.
PEAK_RSS = """
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""
# prints the modules that `import spoofkit.cli` loads, for the digest
IMPORT_PROBE = """\
import sys
before = set(sys.modules)
import spoofkit.cli
print(" ".join(sorted(set(sys.modules) - before)))
""" + PEAK_RSS
CLI_PROBE = """\
import sys
from spoofkit import cli
if cli.main(sys.argv[1:]) != 0:
    sys.exit(1)
""" + PEAK_RSS


def process_case(name, sk, args, digest) -> Case:
    """A Case whose call is `python *args` in a fresh interpreter that imports
    the spoofkit package `sk` was loaded from; it returns the child's stdout
    lines but the last, and records the median peak resident set in MB."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sk.__file__))}
    kb = []

    def call():
        lines = subprocess.run([sys.executable, *args], env=env, check=True,
                               capture_output=True, text=True).stdout.splitlines()
        kb.append(int(lines.pop()))
        return lines

    return Case(name, call, digest, lambda _: {"maxrss_mb": statistics.median(kb) / 1024},
                peak=False)


def run_startup(sk):
    yield process_case("import_cli", sk, ["-c", IMPORT_PROBE],
                       lambda lines: sha("\n".join(lines).encode()))
    with tempfile.TemporaryDirectory() as root:
        model_path, wav = train_transformer(sk, root)
        features, gbdt_path = os.path.join(root, "features.csv"), os.path.join(root, "gbdt.json")
        sk.cli.write_features_csv(features, *table(400), argparse.Namespace(seed=0))
        cli(sk, ["train", "gbdt", "--features", features, "--out", gbdt_path,
                 "--n-estimators", "50", "--max-depth", "4"])
        extracted = os.path.join(root, "extract")
        os.makedirs(extracted)
        yield process_case("extract_process", sk, ["-c", CLI_PROBE, "extract", "--manifest",
                                                   os.path.join(root, "clips.csv"), "--out-csv",
                                                   os.path.join(extracted, "features.csv")],
                           lambda _: files_digest(extracted))
        for kind, inputs in (("rollout", ["--model", model_path, "--wav", wav]),
                             ("importance", ["--model", gbdt_path, "--features", features])):
            out = os.path.join(root, kind)
            yield process_case(f"explain_{kind}_process", sk,
                               ["-c", CLI_PROBE, "explain", kind, *inputs, "--out", out],
                               lambda _: files_digest(out))


def versions() -> dict:
    """Python and the versions of numpy and, where installed, scipy."""
    found = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        found["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        pass
    return found


TOPICS = {"gbdt": (run_gbdt, 10), "explain": (run_explain, 20), "dsp": (run_dsp, 20),
          "augment": (run_augment, 20), "startup": (run_startup, 10),
          "transformer": (run_transformer, 20)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--topic", required=True, choices=sorted(TOPICS))
    p.add_argument("--label", required=True, help="name of this entry, e.g. parent or change")
    p.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                   help="directory holding the spoofkit package to time")
    p.add_argument("--out", help="JSON file to merge into (default BENCH_<topic>.json)")
    p.add_argument("--parent-src", help="source to compare with --src, call by call "
                   "in this process")
    args = p.parse_args(argv)
    sources = {"parent": args.parent_src, "change": args.src}
    sks = {side: load(src, f"sk_{side}") for side, src in sources.items() if src}
    for sk in sks.values():
        warm_up(sk)

    topic, repeats = TOPICS[args.topic]
    # each side runs the topic's generator of Cases; its result goes back in
    gens = {side: topic(sk) for side, sk in sks.items()}
    cases, results = {}, dict.fromkeys(gens)
    while True:
        try:
            sides = {side: gen.send(results[side]) for side, gen in gens.items()}
        except StopIteration:
            break
        cases[sides["change"].name], results = record(sides, repeats)
    entry = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(), **versions()},
        "repeats": repeats,
        "cases": cases,
    }
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
