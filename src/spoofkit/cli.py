"""Command-line entry point: extract / train / explain / bench subcommands.

Every artifact embeds the tool version, the run seed, and a hash of the
resolved configuration, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys

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
    malformed file is a UsageError naming path:line."""
    n = dsp.N_FEATURES
    X, y = [], []
    with open(require_file(path)) as fh:
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
        except UnicodeDecodeError:
            raise UsageError(f"{path}: not a text CSV file") from None
        except (IndexError, ValueError, csv.Error):
            raise UsageError(f"{path}:{reader.line_num}: expected {n} numbers "
                             "and a label (bonafide or spoof)") from None
    if not y:
        raise UsageError(f"{path}: no feature rows")
    return np.asarray(X), np.asarray(y)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_extract(args) -> int:
    manifest = bench.load_manifest(require_file(args.manifest))
    rows, labels = [], []
    for entry in manifest.entries:
        audio = dsp.load_audio(entry.path)
        if args.duration:
            audio = bench.fit_clip_length(audio, args.duration)
        rows.append(dsp.extract_features(audio, trim=args.trim).values)
        labels.append(entry.label)
    write_features_csv(args.out_csv, rows, labels, args)
    print(f"wrote {len(rows)} feature rows to {args.out_csv}")
    return EXIT_OK


def cmd_train(args) -> int:
    out = args.out
    if args.kind == "gbdt":
        X, y = read_features_csv(args.features)
        cfg = gbdt.GbdtConfig(n_estimators=args.n_estimators,
                              max_depth=args.max_depth,
                              learning_rate=args.learning_rate)
        model = gbdt.train(X, y, cfg, list(dsp.FEATURE_NAMES)
                           if X.shape[1] == dsp.N_FEATURES else None)
        acc = float((gbdt.predict(model, X) == y).mean())
        with open(out, "w") as fh:
            fh.write(gbdt.to_json(model))
        print(f"gbdt: {cfg.n_estimators} trees, depth {cfg.max_depth}, "
              f"train accuracy {acc:.4f}")
    else:
        manifest = bench.load_manifest(require_file(args.manifest))
        entries = manifest.subset("train") or manifest.entries
        clips = [bench.fit_clip_length(dsp.load_audio(e.path), args.duration)
                 for e in entries]
        specs = [dsp.mel_spectrogram(c) for c in clips]
        labels = [e.label for e in entries]
        shape = specs[0].values.shape
        cfg = transformer.TransformerConfig(
            d_model=args.d_model, n_layers=args.n_layers, n_heads=args.n_heads,
            d_ff=args.d_ff, input_shape=shape,
            geometry=transformer.PatchGeometry(16, 16, args.stride, args.stride),
            seed=args.seed)
        tc = transformer.TrainConfig(steps=args.steps,
                                     learning_rate=args.learning_rate,
                                     weight_decay=args.weight_decay)
        model = transformer.train_toy(list(zip(specs, labels)), cfg, tc)
        step, loss, acc = model.history[-1]
        with open(out, "w") as fh:
            fh.write(transformer.to_json(model))
        print(f"transformer: step {step}, loss {loss:.4f}, "
              f"train accuracy {acc:.4f}")
    write_json_artifact(out + ".run.json", {"model_path": out}, args)
    return EXIT_OK


def _load_model(path, kind, from_json):
    """The model in the JSON file at `path`, parsed once: its `kind` is
    checked here, the rest by `from_json`."""
    try:
        with open(require_file(path)) as fh:
            doc = json.loads(fh.read())
        found = doc.get("kind")
    except (AttributeError, ValueError):
        raise InputError(f"{path}: not a JSON model document") from None
    if found != kind:
        raise UsageError(
            f"{path} is a {found or 'unknown'} model; this explainer needs "
            f"a {kind} model")
    return from_json(doc)


def _spec_for_model(args, model):
    audio = dsp.load_audio(require_file(args.wav))
    duration = model.config.input_shape[1] / (1000.0 / dsp.MEL_SPEC_HOP_MS)
    audio = bench.fit_clip_length(audio, duration)
    return dsp.mel_spectrogram(audio)


def cmd_explain(args) -> int:
    if args.kind == "importance":
        model = _load_model(args.model, "gbdt", gbdt.from_json)
        X, y = read_features_csv(args.features)
        out = ensure_outdir(args.out)
        report = gbdt_explain.permutation_importance(
            model, X, y, repeats=args.repeats, seed=args.seed)
        with open(os.path.join(out, "importance.json"), "w") as fh:
            fh.write(report.to_json())
        with open(os.path.join(out, "importance.csv"), "w") as fh:
            fh.write(report.to_csv())
        corr = gbdt_explain.spearman_matrix(X)
        clustering = gbdt_explain.ward_cluster(corr, args.cluster_threshold)
        reps = gbdt_explain.select_representatives(clustering, report)
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

    model = _load_model(args.model, "transformer", transformer.from_json)
    spec = _spec_for_model(args, model)
    if args.kind == "occlusion":
        if args.box:
            cfg = attn_explain.OcclusionConfig(box=tuple(args.box),
                                               stride=tuple(args.stride),
                                               fill=args.fill)
        else:
            cfg = attn_explain.default_occlusion_config(spec.values.shape)
        heatmap = attn_explain.occlusion_scan(
            lambda stack: transformer.predict_proba(model, stack), spec, cfg)
        out = ensure_outdir(args.out)
        attn_explain.render_heatmap(heatmap.importance,
                                    os.path.join(out, "occlusion"))
        write_json_artifact(os.path.join(out, "occlusion.json"), {
            "base_prob": heatmap.base_prob,
            "box": list(cfg.box), "stride": list(cfg.stride), "fill": cfg.fill,
            "boxes": [{"row": r, "col": c, "h": h, "w": w, "delta": d}
                      for r, c, h, w, d in heatmap.boxes],
        }, args)
        hot = max(heatmap.boxes, key=lambda b: b[4])
        print(f"base prob_spoof {heatmap.base_prob:.4f}; strongest box at "
              f"(row {hot[0]}, col {hot[1]}) delta {hot[4]:.4f}")
        return EXIT_OK

    # rollout
    out = ensure_outdir(args.out)
    fwd = transformer.forward(spec, model)
    if args.rollout == "last":
        # CLS attention of the final layer only, no cross-layer product
        mode = "plain"
        record = [fwd.attention.layers[-1]]
    else:
        mode = "residual_half" if args.rollout == "residual" else "plain"
        record = fwd.attention
    rmap = attn_explain.rollout(record, mode,
                                token_time_spans=fwd.token_time_spans)
    timeline = attn_explain.cls_timeline(rmap)
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


def _bench_models(args):
    gcfg = None if args.models and "gbdt" not in args.models else \
        gbdt.GbdtConfig(n_estimators=args.n_estimators, max_depth=args.max_depth)
    tcfg = None
    ttrain = transformer.TrainConfig(steps=args.steps)
    if not args.models or "transformer" in args.models:
        tcfg = transformer.TransformerConfig(
            geometry=transformer.PatchGeometry(16, 16, 16, 16), seed=args.seed)
    return bench.BenchModels(gbdt_config=gcfg, transformer_config=tcfg,
                             transformer_train=ttrain)


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


def cmd_bench(args) -> int:
    out = ensure_outdir(args.out)
    models = _bench_models(args)
    if args.mode == "generalize":
        if args.synth:
            a, b = bench.make_generalization_corpora(
                ensure_outdir(args.synth), seed=args.seed,
                duration_s=args.duration)
        else:
            if not args.train_manifest or not args.eval_manifest:
                raise UsageError("provide --train-manifest and --eval-manifest, "
                                 "or --synth DIR")
            a = bench.load_manifest(require_file(args.train_manifest))
            b = bench.load_manifest(require_file(args.eval_manifest))
        reports, markdown = bench.run_generalization(
            a, b, models, balance_n=args.balance_n, seed=args.seed,
            duration_s=args.duration)
        _write_reports(out, reports, markdown, args, "generalization")
    else:
        if args.synth:
            manifest = bench.make_augmentation_corpus(
                ensure_outdir(args.synth), seed=args.seed,
                duration_s=args.duration)
        else:
            if not args.manifest:
                raise UsageError("provide --manifest or --synth DIR")
            manifest = bench.load_manifest(require_file(args.manifest))
        reports, markdown = bench.run_augmentation_study(
            manifest, args.augmentations.split(","), models, seed=args.seed,
            duration_s=args.duration)
        _write_reports(out, reports, markdown, args, "augmentation")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spoofkit",
        description="Audio deepfake detection and explainability toolkit")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="manifest -> 37-feature CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--duration", type=float, default=0.0,
                   help="pad/truncate clips to this many seconds (0 = keep)")
    p.add_argument("--trim", action="store_true",
                   help="strip leading/trailing silence before extraction")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a gbdt or transformer model")
    p.add_argument("kind", choices=["gbdt", "transformer"])
    p.add_argument("--features", help="feature CSV (gbdt)")
    p.add_argument("--manifest", help="audio manifest (transformer)")
    p.add_argument("--out", required=True)
    p.add_argument("--n-estimators", type=int, default=400)
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--d-model", type=int, default=16)
    p.add_argument("--n-layers", type=int, default=2)
    p.add_argument("--n-heads", type=int, default=2)
    p.add_argument("--d-ff", type=int, default=32)
    p.add_argument("--stride", type=int, default=16)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--duration", type=float, default=bench.DEFAULT_CLIP_S)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="model explanations")
    p.add_argument("kind", choices=["importance", "occlusion", "rollout"])
    p.add_argument("--model", required=True)
    p.add_argument("--features", help="feature CSV (importance)")
    p.add_argument("--wav", help="audio file (occlusion / rollout)")
    p.add_argument("--out", required=True)
    p.add_argument("--repeats", type=int, default=gbdt_explain.DEFAULT_REPEATS)
    p.add_argument("--cluster-threshold", type=float,
                   default=gbdt_explain.DEFAULT_CLUSTER_THRESHOLD)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--box", type=int, nargs=2, metavar=("H", "W"))
    p.add_argument("--stride", type=int, nargs=2, metavar=("H", "W"),
                   default=None)
    p.add_argument("--fill", choices=["zero", "one", "mean"], default="zero")
    p.add_argument("--rollout", choices=["plain", "residual", "last"],
                   default="plain")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("bench", help="benchmark studies")
    p.add_argument("mode", choices=["generalize", "augment"])
    p.add_argument("--train-manifest")
    p.add_argument("--eval-manifest")
    p.add_argument("--manifest")
    p.add_argument("--synth", help="generate a synthetic corpus in this dir")
    p.add_argument("--out", required=True)
    p.add_argument("--balance-n", type=int, default=30)
    p.add_argument("--models", help="comma list: gbdt,transformer")
    p.add_argument("--augmentations", default="identity,codec,rerecord")
    p.add_argument("--n-estimators", type=int, default=100)
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--duration", type=float, default=bench.DEFAULT_CLIP_S)
    p.set_defaults(func=cmd_bench)

    return parser


def validate_args(args) -> None:
    if args.command == "train":
        if args.kind == "gbdt" and not args.features:
            raise UsageError("train gbdt requires --features")
        if args.kind == "transformer" and not args.manifest:
            raise UsageError("train transformer requires --manifest")
    if args.command == "explain":
        if args.kind == "importance" and not args.features:
            raise UsageError("explain importance requires --features")
        if args.kind in ("occlusion", "rollout") and not args.wav:
            raise UsageError(f"explain {args.kind} requires --wav")
        if args.kind == "occlusion" and args.box and not args.stride:
            raise UsageError("--box requires --stride")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        validate_args(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SpoofkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
