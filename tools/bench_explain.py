"""Layer benchmark of the transformer explain path: model load, the
occlusion scan, and one `explain occlusion` and one `explain rollout` call,
timed on a transformer trained here on seeded synthetic clips.

    python3 tools/bench_explain.py --label change
    python3 tools/bench_explain.py --label parent --src ../parent/src

Each case runs REPEATS times in this process and records its median wall
time in seconds, plus a SHA-256 of what it produced, so that two sources
can be checked for identical output. The entry for `--label` (with the
machine, Python and numpy versions) is merged into `--out`; other labels
already in the file are kept, so the numbers of two sources measured on the
same machine sit side by side.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REPEATS = 20  # calls per case; the median of them is recorded
N_PER_CLASS = 8  # training clips per class
STEPS = 50  # training steps; the timings do not depend on how well it fits
CUE_HZ = 6500.0  # spoof cue: a sustained tone


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def timed(fn):
    """Median seconds of REPEATS calls, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def make_inputs(sk, root) -> tuple:
    """Seeded 1.6 s clips, a manifest and a transformer trained on them at
    the CLI defaults (learning rate 0.01); returns (model path, eval wav)."""
    rng = np.random.default_rng(0)
    entries = []
    for label in (0, 1):
        for k in range(N_PER_CLASS):
            tones = [(float(rng.uniform(150, 900)), 0.4)]
            if label:
                tones.append((CUE_HZ, 0.5))
            clip = sk.bench.synth_clip(rng, sk.bench.DEFAULT_CLIP_S, 0.3, 0.05, tones, [])
            path = os.path.join(root, f"{label}_{k}.wav")
            sk.dsp.write_wav(path, clip)
            entries.append(sk.bench.ManifestEntry(path, label, "-", "train"))
    manifest = os.path.join(root, "clips.csv")
    sk.bench.write_manifest(manifest, entries)
    model = os.path.join(root, "model.json")
    cli(sk, ["train", "transformer", "--manifest", manifest, "--out", model,
             "--steps", str(STEPS), "--learning-rate", "0.01"])
    return model, entries[-1].path


def cli(sk, argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = sk.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"spoofkit {' '.join(argv)} exited {rc}")


def load_model(sk, path):
    """The transformer at `path`, loaded as `explain` loads it (sources
    before the one-parse loader have `_load_transformer`)."""
    if hasattr(sk.cli, "_load_model"):
        return sk.cli._load_model(path, "transformer", sk.transformer.from_json)
    return sk.cli._load_transformer(path)


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


def run(sk, root) -> dict:
    model_path, wav = make_inputs(sk, root)
    cases = {}

    median, model = timed(lambda: load_model(sk, model_path))
    cases["model_load"] = {"median_s": median,
                           "sha256": digest(sk.transformer.to_json(model).encode())}
    print(f"model_load: {median:.4f} s", file=sys.stderr)

    spec = sk.dsp.mel_spectrogram(sk.bench.fit_clip_length(
        sk.dsp.load_audio(wav), sk.bench.DEFAULT_CLIP_S))
    cfg = sk.attn_explain.default_occlusion_config(spec.values.shape)

    def predict_fn(values):
        # one spectrogram or a (B, H, W) stack, whichever the scan passes
        if values.ndim == 3:
            return sk.transformer.predict_proba(model, values)
        return sk.transformer.forward(values, model).prob_spoof

    median, heatmap = timed(lambda: sk.attn_explain.occlusion_scan(predict_fn, spec, cfg))
    cases["occlusion_scan_128x16"] = {
        "median_s": median, "boxes": len(heatmap.boxes),
        "sha256": digest(np.array([heatmap.base_prob] + [b[4] for b in heatmap.boxes]).tobytes())}
    print(f"occlusion_scan: {median:.4f} s ({len(heatmap.boxes)} boxes)", file=sys.stderr)

    for kind in ("occlusion", "rollout"):
        out = os.path.join(root, kind)
        median, _ = timed(lambda: cli(sk, ["explain", kind, "--model", model_path,
                                           "--wav", wav, "--out", out]))
        cases[f"explain_{kind}"] = {"median_s": median, "sha256": files_digest(out)}
        print(f"explain {kind}: {median:.4f} s", file=sys.stderr)
    return cases


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="name of this entry, e.g. parent or change")
    p.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                   help="directory holding the spoofkit package to time")
    p.add_argument("--out", default=os.path.join(HERE, "..", "BENCH_explain.json"))
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    sk = importlib.import_module("spoofkit")
    for name in ("attn_explain", "bench", "cli", "dsp", "transformer"):
        importlib.import_module(f"spoofkit.{name}")

    with tempfile.TemporaryDirectory() as root:
        cases = run(sk, root)
    entry = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "repeats": REPEATS,
        "cases": cases,
    }
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc[args.label] = entry
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
