"""Layer benchmark of the boosted trees: split search, predict and
permutation importance, timed on fixed synthetic feature tables.

    python3 tools/bench_gbdt.py --label change
    python3 tools/bench_gbdt.py --label parent --src ../parent/src

Each case runs REPEATS times in this process and records its median wall
time in seconds, plus a SHA-256 of what it produced, so that two sources
can be checked for identical output. The entry for `--label`
(with the machine, Python, numpy and scipy versions) is merged into `--out`;
other labels already in the file are kept, so the numbers of two sources
measured on the same machine sit side by side.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
N_FEATURES = 37
REPEATS = 5  # calls per case; the median of them is recorded
LABEL_FLIP = 0.15  # flipped labels keep classes overlapping, so trees grow deep

# (name, trees, depth, rows) of each gbdt.train case
TRAIN_CASES = [
    ("train_100x3_120x37", 100, 3, 120),
    ("train_400x8_240x37", 400, 8, 240),
    ("train_50x8_2000x37", 50, 8, 2000),
    ("train_5x8_8000x37", 5, 8, 8000),
]


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


def digest(text) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def timed(fn):
    """Median seconds of REPEATS calls, and the last call's result."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def run(gbdt, gbdt_explain) -> dict:
    cases = {}
    models = {}
    for name, trees, depth, rows in TRAIN_CASES:
        X, y = table(rows)
        cfg = gbdt.GbdtConfig(n_estimators=trees, max_depth=depth)
        median, model = timed(lambda: gbdt.train(X, y, cfg))
        models[name] = model
        cases[name] = {"median_s": median, "sha256": digest(gbdt.to_json(model))}
        print(f"{name}: {median:.4f} s", file=sys.stderr)

    X, _ = table(8000, seed=1)
    model = models["train_5x8_8000x37"]
    median, scores = timed(lambda: gbdt.decision_scores(model, X))
    cases["decision_scores_5x8_8000rows"] = {
        "median_s": median, "sha256": hashlib.sha256(scores.tobytes()).hexdigest()[:16]}
    print(f"decision_scores: {median:.4f} s", file=sys.stderr)

    X, y = table(240)
    model = models["train_400x8_240x37"]
    median, report = timed(lambda: gbdt_explain.permutation_importance(
        model, X, y, repeats=10, seed=0))
    cases["importance_400x8_240rows_10repeats"] = {
        "median_s": median, "sha256": digest(report.to_json())}
    print(f"permutation_importance: {median:.4f} s", file=sys.stderr)
    return cases


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="name of this entry, e.g. parent or change")
    p.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                   help="directory holding the spoofkit package to time")
    p.add_argument("--out", default=os.path.join(HERE, "..", "BENCH_gbdt.json"))
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    gbdt = importlib.import_module("spoofkit.gbdt")
    gbdt_explain = importlib.import_module("spoofkit.gbdt_explain")

    entry = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__},
        "repeats": REPEATS,
        "cases": run(gbdt, gbdt_explain),
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
