"""Command-line entry point: extract / train / explain / bench subcommands.

Every artifact embeds the tool version, the run seed, and a hash of the
resolved configuration, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np

from . import __version__, attn_explain, bench, dsp, gbdt, gbdt_explain, transformer
from .errors import InputError, SpoofkitError, UsageError

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2


def config_hash(args: argparse.Namespace) -> str:
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_meta(args) -> dict:
    return {"tool_version": __version__, "seed": args.seed,
            "config_hash": config_hash(args)}


def meta_comment(args) -> str:
    m = run_meta(args)
    return f"# spoofkit {m['tool_version']} seed={m['seed']} config={m['config_hash']}"


def write_json_artifact(path, payload: dict, args) -> None:
    doc = {"meta": run_meta(args), **payload}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def ensure_outdir(path) -> str:
    if os.path.exists(path) and not os.path.isdir(path):
        raise UsageError(f"not a directory: {path}")
    os.makedirs(path, exist_ok=True)
    return path


def require_file(path) -> str:
    if not os.path.exists(path):
        raise UsageError(f"no such file: {path}")
    if not os.path.isfile(path):
        raise UsageError(f"not a file: {path}")
    return path


# ---------------------------------------------------------------------------
# Feature CSV round-trip

def write_features_csv(path, rows, labels, args) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(meta_comment(args) + "\n")
        writer = csv.writer(fh)
        writer.writerow(list(dsp.FEATURE_NAMES) + ["label"])
        for vec, label in zip(rows, labels):
            writer.writerow([repr(float(v)) for v in vec] + [bench.LABELS[label]])


def read_features_csv(path):
    """Features and labels from a CSV written by `write_features_csv`; a
    malformed file is a UsageError naming path:line.

    The data rows are parsed by numpy's C reader; if that parse fails or
    meets a line on which it may read apart from float(), `_read_rows` reads
    the file again row by row."""
    require_file(path)
    return _parse_features(path) or _read_rows(path)


def _float_only(line) -> bool:
    """Whether a cell of `line` may read apart in numpy's C float parser and
    in float(): float() reads Unicode digits and spaces and an underscore
    between digits, and C strips \x1c-\x1f as spaces where float() does
    not."""
    return (not line.isascii() or "_" in line or "\x1c" in line or "\x1d" in line
            or "\x1e" in line or "\x1f" in line)


def _parse_features(path):
    """(X, y) from the feature CSV at `path`, or None if the parse fails:
    the header row is read by `csv` and the data rows by one `np.loadtxt`,
    whose cells are read by its C float parser. The parse also counts as
    failed when a data line is `_float_only`."""
    n = dsp.N_FEATURES
    differs = False

    def checked(lines):
        nonlocal differs
        for line in lines:
            differs = differs or _float_only(line)
            yield line

    try:
        with open(path) as fh:
            # comment lines read as blank rows, as `_read_rows` reads them
            lines = ("\n" if line.startswith("#") else line for line in fh)
            if next((row for row in csv.reader(lines) if row), [])[:n] != list(dsp.FEATURE_NAMES):
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a table with no rows
                table = np.loadtxt(checked(lines), delimiter=",", quotechar='"',
                                   comments=None, usecols=range(n + 1),
                                   converters={n: bench.LABELS.index}, ndmin=2)
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        return None
    X = np.ascontiguousarray(table[:, :n])
    if differs or not len(X) or not np.isfinite(X).all():
        return None
    return X, table[:, n].astype(int)


def _read_rows(path):
    """(X, y) from the feature CSV at `path` read row by row, every cell by
    float(); a UsageError names the first bad line."""
    n = dsp.N_FEATURES
    X, y = [], []
    with open(path) as fh:
        # comment lines read as blank rows, so line_num counts file lines
        reader = csv.reader("\n" if line.startswith("#") else line for line in fh)
        rows = (row for row in reader if row)
        try:
            if next(rows, [])[:n] != list(dsp.FEATURE_NAMES):
                raise UsageError(f"{path}: feature columns do not match the "
                                 "expected 37-feature header")
            for row in rows:
                X.append([float(v) for v in row[:n]])
                y.append(bench.LABELS.index(row[n]))
                if not all(map(math.isfinite, X[-1])):
                    raise UsageError(f"{path}:{reader.line_num}: features must "
                                     "be finite numbers (no nan or inf)")
        except UnicodeDecodeError:
            raise UsageError(f"{path}: not a text CSV file") from None
        except (IndexError, ValueError, csv.Error):
            raise UsageError(f"{path}:{reader.line_num}: expected {n} numbers "
                             "and a label (bonafide or spoof)") from None
    if not y:
        raise UsageError(f"{path}: no feature rows")
    return np.array(X), np.array(y)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_extract(args) -> int:
    if args.duration:
        _require_duration(args, "gbdt", bench.gbdt_detector(bench.STUDY_GBDT).min_samples)
    manifest = bench.load_manifest(require_file(args.manifest))
    rows, labels = [], []
    for entry in manifest.entries:
        audio = dsp.load_audio(entry.path)  # its errors name the file
        if args.duration:
            audio = bench.fit_clip_length(audio, args.duration)
        try:
            rows.append(dsp.extract_features(audio, trim=args.trim).values)
        except InputError as exc:
            raise InputError(f"{entry.path}: {exc}") from None
        labels.append(entry.label)
    write_features_csv(args.out_csv, rows, labels, args)
    print(f"wrote {len(rows)} feature rows to {args.out_csv}")
    return EXIT_OK


def _save_model(args, text) -> None:
    """The model JSON at --out, plus its `.run.json` provenance sidecar."""
    with open(args.out, "w") as fh:
        fh.write(text)
    write_json_artifact(args.out + ".run.json", {"model_path": args.out}, args)


def cmd_train_gbdt(args) -> int:
    X, y = read_features_csv(args.features)
    cfg = gbdt.GbdtConfig(n_estimators=args.n_estimators, max_depth=args.max_depth,
                          learning_rate=args.learning_rate)
    model = gbdt.train(X, y, cfg, list(dsp.FEATURE_NAMES))
    acc = float((gbdt.predict(model, X) == y).mean())
    _save_model(args, gbdt.to_json(model))
    print(f"gbdt: {cfg.n_estimators} trees, depth {cfg.max_depth}, "
          f"train accuracy {acc:.4f}")
    return EXIT_OK


def _require_duration(args, name, min_samples) -> None:
    """A UsageError unless --duration gives the `name` detector the
    `min_samples` samples it needs."""
    if round(args.duration * dsp.SAMPLE_RATE) < min_samples:
        raise UsageError(f"--duration: the {name} detector needs clips of at "
                         f"least {min_samples / dsp.SAMPLE_RATE} s, "
                         f"got {args.duration} s")


def cmd_train_transformer(args) -> int:
    cfg = transformer.TransformerConfig(
        d_model=args.d_model, n_layers=args.n_layers, n_heads=args.n_heads,
        d_ff=args.d_ff,
        geometry=transformer.PatchGeometry(stride_h=args.stride, stride_w=args.stride),
        seed=args.seed)
    tc = transformer.TrainConfig(steps=args.steps, learning_rate=args.learning_rate,
                                 weight_decay=args.weight_decay)
    detector = bench.transformer_detector(cfg, tc)
    _require_duration(args, "transformer", detector.min_samples)
    manifest = bench.load_manifest(require_file(args.manifest))
    entries = manifest.subset("train") or manifest.entries
    specs = [detector.front(bench.fit_clip_length(dsp.load_audio(e.path), args.duration))
             for e in entries]
    model = detector.train(specs, [e.label for e in entries])
    step, loss, acc = model.history[-1]
    _save_model(args, transformer.to_json(model))
    print(f"transformer: step {step}, loss {loss:.4f}, "
          f"train accuracy {acc:.4f}")
    return EXIT_OK


_last_load = None  # (text, kind, model) of the last successful _load_model


def _load_model(path, kind, from_json):
    """The model in the JSON file at `path`: its `kind` is checked here, the
    rest by `from_json`. The file is read on every call, but parsed only when
    its text or `kind` differs from the last successful load."""
    global _last_load
    try:
        with open(require_file(path)) as fh:
            text = fh.read()
        if _last_load and _last_load[:2] == (text, kind):
            return _last_load[2]
        doc = json.loads(text)
        found = doc.get("kind")
    except (AttributeError, ValueError):
        raise InputError(f"{path}: not a JSON model document") from None
    if found != kind:
        raise UsageError(
            f"{path} is a {found or 'unknown'} model; this explainer needs "
            f"a {kind} model")
    model = from_json(doc)
    _last_load = (text, kind, model)
    return model


def _transformer_and_spec(args):
    """The transformer at --model and the log-Mel of --wav, fitted to the
    clip length the model was built for."""
    model = _load_model(args.model, "transformer", transformer.from_json)
    audio = dsp.load_audio(require_file(args.wav))
    duration = model.config.input_shape[1] / (1000.0 / dsp.MEL_SPEC_HOP_MS)
    return model, dsp.mel_spectrogram(bench.fit_clip_length(audio, duration))


def cmd_explain_importance(args) -> int:
    model = _load_model(args.model, "gbdt", gbdt.from_json)
    X, y = read_features_csv(args.features)
    report = gbdt_explain.permutation_importance(
        model, X, y, repeats=args.repeats, seed=args.seed)
    corr = gbdt_explain.spearman_matrix(X)
    clustering = gbdt_explain.ward_cluster(corr, args.cluster_threshold)
    reps = gbdt_explain.select_representatives(clustering, report)
    out = ensure_outdir(args.out)
    with open(os.path.join(out, "importance.json"), "w") as fh:
        fh.write(report.to_json())
    with open(os.path.join(out, "importance.csv"), "w") as fh:
        fh.write(report.to_csv())
    with open(os.path.join(out, "clusters.json"), "w") as fh:
        fh.write(clustering.to_json())
    write_json_artifact(os.path.join(out, "explain_run.json"),
                        {"kind": "importance",
                         "representatives": [report.names[r] for r in reps]},
                        args)
    top = np.argsort(-report.mean_importance)[: args.top_k]
    for i in top:
        bar = "#" * max(1, int(50 * max(report.mean_importance[i], 0)
                               / max(report.mean_importance.max(), 1e-12)))
        print(f"{report.names[i]:>20s} {report.mean_importance[i]:+.4f} {bar}")
    return EXIT_OK


def cmd_explain_occlusion(args) -> int:
    if args.box and not args.stride:
        raise UsageError("--box requires --stride")
    if args.stride and not args.box:
        raise UsageError("--stride requires --box")
    model, spec = _transformer_and_spec(args)
    heatmap = attn_explain.occlusion_scan(
        lambda stack: transformer.predict_proba(model, stack), spec,
        args.box, args.stride, args.fill)
    out = ensure_outdir(args.out)
    attn_explain.render_heatmap(heatmap.importance,
                                os.path.join(out, "occlusion"))
    write_json_artifact(os.path.join(out, "occlusion.json"), {
        "base_prob": heatmap.base_prob,
        "box": list(heatmap.box), "stride": list(heatmap.stride), "fill": args.fill,
        "boxes": [{"row": r, "col": c, "h": h, "w": w, "delta": d}
                  for r, c, h, w, d in heatmap.boxes],
    }, args)
    hot = max(heatmap.boxes, key=lambda b: b[4])
    print(f"base prob_spoof {heatmap.base_prob:.4f}; strongest box at "
          f"(row {hot[0]}, col {hot[1]}) delta {hot[4]:.4f}")
    return EXIT_OK


def cmd_explain_rollout(args) -> int:
    model, spec = _transformer_and_spec(args)
    out = ensure_outdir(args.out)
    fwd = transformer.forward(spec, model)
    mode = {"residual": "residual_half"}.get(args.rollout, args.rollout)
    rmap = attn_explain.rollout(fwd.attention, mode)
    timeline = attn_explain.cls_timeline(rmap, fwd.token_time_spans)
    attn_explain.render_heatmap(rmap.matrix, os.path.join(out, "rollout"))
    with open(os.path.join(out, "timeline.json"), "w") as fh:
        fh.write(timeline.to_json())
    write_json_artifact(os.path.join(out, "rollout.json"), {
        "mode": mode, "prob_spoof": fwd.prob_spoof,
        "cls_importance": rmap.cls_importance.tolist(),
        "uniform_fallback": rmap.uniform_fallback,
    }, args)
    print(f"prob_spoof {fwd.prob_spoof:.4f}; "
          f"{len(timeline.segments)} salient segment(s)")
    return EXIT_OK


def _names(flag, text, known):
    """The names in the comma list `text` of `flag`, each one of `known`."""
    names = text.split(",")
    unknown = [name for name in names if name not in known]
    if unknown:
        raise UsageError(f"{flag}: unknown {', '.join(map(repr, unknown))}; "
                         f"choose from {', '.join(known)}")
    return names


def _detectors(args):
    """The detectors by name, gbdt first, built from the study flags;
    `--models`, a comma list, keeps only the ones it names."""
    factories = {
        "gbdt": lambda: bench.gbdt_detector(replace(
            bench.STUDY_GBDT, n_estimators=args.n_estimators,
            max_depth=args.max_depth)),
        "transformer": lambda: bench.transformer_detector(
            transformer.TransformerConfig(seed=args.seed),
            replace(bench.STUDY_TRAIN, steps=args.steps)),
    }
    names = _names("--models", args.models, factories) if args.models else factories
    detectors = {name: make() for name, make in factories.items() if name in names}
    for name, detector in detectors.items():
        _require_duration(args, name, detector.min_samples)
    return detectors


def _write_reports(out, reports, markdown, args, stem):
    with open(os.path.join(out, f"{stem}.md"), "w") as fh:
        fh.write(meta_comment(args).replace("#", "<!--", 1) + " -->\n\n")
        fh.write(markdown)
    with open(os.path.join(out, f"{stem}.csv"), "w") as fh:
        fh.write(meta_comment(args) + "\n")
        fh.write(bench.reports_to_csv(reports))
    write_json_artifact(os.path.join(out, f"{stem}.json"),
                        {"reports": [r.to_dict() for r in reports]}, args)
    print(markdown)


def cmd_bench_generalize(args) -> int:
    if args.synth and args.duration < bench.GENERALIZATION_MIN_S:
        raise UsageError(f"--duration: generalization clips must last at least "
                         f"{bench.GENERALIZATION_MIN_S} s, got {args.duration} s")
    detectors = _detectors(args)
    if not args.synth:
        if not args.train_manifest or not args.eval_manifest:
            raise UsageError("provide --train-manifest and --eval-manifest, "
                             "or --synth DIR")
        a = bench.load_manifest(require_file(args.train_manifest))
        b = bench.load_manifest(require_file(args.eval_manifest))
    out = ensure_outdir(args.out)
    if args.synth:
        a, b = bench.make_generalization_corpora(
            ensure_outdir(args.synth), seed=args.seed, duration_s=args.duration)
    reports, markdown = bench.run_generalization(
        a, b, detectors, balance_n=args.balance_n, seed=args.seed,
        duration_s=args.duration)
    _write_reports(out, reports, markdown, args, "generalization")
    return EXIT_OK


def cmd_bench_augment(args) -> int:
    augmentations = _names("--augmentations", args.augmentations, bench.AUGMENTATIONS)
    detectors = _detectors(args)
    if not args.synth:
        if not args.manifest:
            raise UsageError("provide --manifest or --synth DIR")
        manifest = bench.load_manifest(require_file(args.manifest))
    out = ensure_outdir(args.out)
    if args.synth:
        manifest = bench.make_augmentation_corpus(
            ensure_outdir(args.synth), seed=args.seed, duration_s=args.duration)
    reports, markdown = bench.run_augmentation_study(
        manifest, augmentations, detectors, seed=args.seed,
        duration_s=args.duration)
    _write_reports(out, reports, markdown, args, "augmentation")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

class Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are UsageErrors: one `error:` line, exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _number(kind, low, strict=False):
    """An argparse `type`: a finite `kind` >= `low` (> `low` if `strict`)."""
    def parse(text):
        value = kind(text)
        if not ((value > low if strict else value >= low) and value < math.inf):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a finite number {'>' if strict else '>='} {low}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value: ..." message
    return parse


def _parent(*names, **kwargs) -> Parser:
    """A parent parser holding one flag, for the modes that share it."""
    p = Parser(add_help=False)
    p.add_argument(*names, **kwargs)
    return p


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """One parser per mode, declaring exactly the flags its `cmd_*` function
    reads; flag defaults are read from the config objects the flags fill.
    Built once per process: `parse_args` keeps no state between calls."""
    gbdt_cfg = gbdt.GbdtConfig()
    tr_cfg, tr_train = transformer.TransformerConfig(), transformer.TrainConfig()
    out = _parent("--out", required=True)
    duration = _parent("--duration", type=_number(float, 1 / dsp.SAMPLE_RATE),
                       default=bench.DEFAULT_CLIP_S)
    model = _parent("--model", required=True)
    wav = _parent("--wav", required=True, help="audio file")

    parser = Parser(
        prog="spoofkit",
        description="Audio deepfake detection and explainability toolkit")
    parser.add_argument("--seed", type=_number(int, 0), default=0)
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("extract", help="manifest -> 37-feature CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--duration", type=_number(float, 0), default=0.0,
                   help="pad/truncate clips to this many seconds (0 = keep)")
    p.add_argument("--trim", action="store_true",
                   help="strip leading/trailing silence before extraction")
    p.set_defaults(func=cmd_extract)

    modes = commands.add_parser("train", help="train a gbdt or transformer model"
                                ).add_subparsers(dest="mode", required=True)
    p = modes.add_parser("gbdt", parents=[out])
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--n-estimators", type=int, default=gbdt_cfg.n_estimators)
    p.add_argument("--max-depth", type=int, default=gbdt_cfg.max_depth)
    p.add_argument("--learning-rate", type=float, default=gbdt_cfg.learning_rate)
    p.set_defaults(func=cmd_train_gbdt)
    p = modes.add_parser("transformer", parents=[out, duration])
    p.add_argument("--manifest", required=True, help="audio manifest")
    p.add_argument("--steps", type=int, default=tr_train.steps)
    p.add_argument("--learning-rate", type=_number(float, 0),
                   default=tr_train.learning_rate)
    p.add_argument("--weight-decay", type=_number(float, 0), default=tr_train.weight_decay)
    p.add_argument("--d-model", type=int, default=tr_cfg.d_model)
    p.add_argument("--n-layers", type=int, default=tr_cfg.n_layers)
    p.add_argument("--n-heads", type=int, default=tr_cfg.n_heads)
    p.add_argument("--d-ff", type=int, default=tr_cfg.d_ff)
    p.add_argument("--stride", type=int, default=tr_cfg.geometry.stride_h)
    p.set_defaults(func=cmd_train_transformer)

    modes = commands.add_parser("explain", help="model explanations"
                                ).add_subparsers(dest="mode", required=True)
    p = modes.add_parser("importance", parents=[model, out])
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--repeats", type=int, default=gbdt_explain.DEFAULT_REPEATS)
    p.add_argument("--cluster-threshold", type=_number(float, 0, strict=True),
                   default=gbdt_explain.DEFAULT_CLUSTER_THRESHOLD)
    p.add_argument("--top-k", type=_number(int, 1), default=10)
    p.set_defaults(func=cmd_explain_importance)
    p = modes.add_parser("occlusion", parents=[model, wav, out])
    p.add_argument("--box", type=int, nargs=2, metavar=("H", "W"))
    p.add_argument("--stride", type=int, nargs=2, metavar=("H", "W"))
    p.add_argument("--fill", choices=["zero", "one", "mean"], default="zero")
    p.set_defaults(func=cmd_explain_occlusion)
    p = modes.add_parser("rollout", parents=[model, wav, out])
    p.add_argument("--rollout", choices=["plain", "residual", "last"],
                   default="plain")
    p.set_defaults(func=cmd_explain_rollout)

    studies = Parser(add_help=False, parents=[out, duration])
    studies.add_argument("--synth", help="generate a synthetic corpus in this dir")
    studies.add_argument("--models", help="comma list: gbdt,transformer")
    studies.add_argument("--n-estimators", type=int,
                         default=bench.STUDY_GBDT.n_estimators)
    studies.add_argument("--max-depth", type=int, default=bench.STUDY_GBDT.max_depth)
    studies.add_argument("--steps", type=int, default=bench.STUDY_TRAIN.steps)
    modes = commands.add_parser("bench", help="benchmark studies"
                                ).add_subparsers(dest="mode", required=True)
    p = modes.add_parser("generalize", parents=[studies])
    p.add_argument("--train-manifest")
    p.add_argument("--eval-manifest")
    p.add_argument("--balance-n", type=_number(int, 1), default=30)
    p.set_defaults(func=cmd_bench_generalize)
    p = modes.add_parser("augment", parents=[studies])
    p.add_argument("--manifest")
    p.add_argument("--augmentations", default="identity,codec,rerecord")
    p.set_defaults(func=cmd_bench_augment)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with bench.one_blas_thread():  # artifacts must not follow the thread count
            return args.func(args)
    except (SpoofkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
