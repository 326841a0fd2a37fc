"""Benchmark of the spoofkit CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Set-up generates the workload's inputs from
the seed in a fresh interpreter (imports included), three times, and
reports the median as setup_s. The measured phase then calls
`spoofkit.cli.main` in this process, one call at a time (a closed loop with
one client), repeating whole passes until S seconds have gone by. Every
call must exit 0, write the same bytes as the first pass (and as any earlier
run with the same seed and source), write the same values as any earlier
run on the same inputs whatever the source (numbers within a relative
1e-6), and pass the workload's output check.

With --trace 1 the run makes one untraced and one traced pass instead and
reports per-layer metrics from spans around every public spoofkit function.
The last line of stdout is one JSON object with the metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# how far an output value may move from the stored record of earlier runs
VALUE_RTOL, VALUE_ATOL = 1e-6, 1e-12


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["augment-study", "gbdt-explain", "clip-explain"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs; checks the code paths, not the speed")
    return p.parse_args(argv)


def blas_threads() -> int:
    """Threads for BLAS: an inherited setting, capped at the CPUs this
    process may use."""
    cap = len(os.sched_getaffinity(0))
    asked = [int(os.environ[var]) for var in BLAS_VARS if os.environ.get(var)]
    return max(1, min(asked + [cap]))


def files_below(path) -> list:
    """(relative name, path) of every file below a directory, sorted;
    bytecode caches left out."""
    return sorted((os.path.relpath(os.path.join(d, f), path), os.path.join(d, f))
                  for d, _, names in os.walk(path)
                  if os.path.basename(d) != "__pycache__" for f in names)


def digest(path) -> str:
    """sha256 over a file, or over the relative names and bytes of every
    file below a directory."""
    h = hashlib.sha256()
    files = [("", path)] if os.path.isfile(path) else files_below(path)
    for rel, full in files:
        h.update(rel.encode() + b"\0")
        with open(full, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def output_values(out) -> tuple:
    """(layout, numbers) of what a call wrote to its JSON and CSV files: the
    numbers in file order, and a sha256 over the file names, keys, nesting
    and every other value. Run metadata (the "meta" entry, "#" lines) is
    left out; other files (markdown, images) are only covered by the sha256
    check of the bytes."""
    import numpy as np
    layout, numbers = hashlib.sha256(), []

    def add(value):
        if isinstance(value, dict):
            layout.update(b"{")
            for k, v in value.items():
                layout.update(repr(k).encode())
                add(v)
            layout.update(b"}")
        elif isinstance(value, list):
            layout.update(b"[")
            for v in value:
                add(v)
            layout.update(b"]")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            layout.update(b"#")
            numbers.append(value)
        else:
            layout.update(repr(value).encode())

    for rel, full in files_below(out):
        with open(full, newline="") as fh:
            if rel.endswith(".json"):
                layout.update(rel.encode())
                doc = json.load(fh)
                if isinstance(doc, dict):
                    doc.pop("meta", None)
                add(doc)
            elif rel.endswith(".csv"):
                layout.update(rel.encode())
                for row in csv.reader(line for line in fh if not line.startswith("#")):
                    for text in row:
                        try:
                            add(float(text))
                        except ValueError:
                            add(text)
                    layout.update(b"\n")
    return layout.hexdigest(), np.asarray(numbers, dtype=float)


def differing_values(stored, current) -> str:
    """What differs between two output_values results: numbers by more than
    VALUE_RTOL (relative) plus VALUE_ATOL, anything else at all. Empty if
    nothing does."""
    import numpy as np
    (layout0, x0), (layout1, x1) = stored, current
    if layout0 != layout1:
        return "files, keys or text"
    bad = np.flatnonzero(~np.isclose(x1, x0, rtol=VALUE_RTOL, atol=VALUE_ATOL,
                                     equal_nan=True))
    if bad.size:
        return (f"{bad.size} of {x0.size} numbers, first number {bad[0]}: "
                f"{float(x0[bad[0]])!r}, now {float(x1[bad[0]])!r}")
    return ""


def load_values(path):
    """The output_values of each call stored at `path`, or None."""
    import numpy as np
    if not os.path.exists(path):
        return None
    with np.load(path) as z:
        return {k: (str(z[f"{k}.layout"]), z[k])
                for k in z.files if not k.endswith(".layout")}


def store_values(path, values) -> None:
    import numpy as np
    arrays = {}
    for k, (layout, numbers) in values.items():
        arrays[k], arrays[f"{k}.layout"] = numbers, np.array(layout)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def compare_record(path, current: dict, store: bool) -> list:
    """List the keys whose values differ from those stored at `path`; with
    no stored record yet, store `current` if `store` is set."""
    if not os.path.exists(path):
        if store:
            with open(path, "w") as fh:
                json.dump(current, fh, indent=1, sort_keys=True)
        return []
    with open(path) as fh:
        stored = json.load(fh)
    return sorted(k for k in stored.keys() | current.keys()
                  if stored.get(k) != current.get(k))


def setup(args, workdir, src, repeats) -> tuple:
    """Generate the inputs `repeats` times in fresh interpreters; return the
    wall seconds of each and the digest of the inputs, which must be the
    same every time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "workloads.py"),
           args.workload, str(args.seed), "inputs"] + (["--smoke"] if args.smoke else [])
    times, digests = [], set()
    for _ in range(repeats):
        shutil.rmtree(os.path.join(workdir, "inputs"), ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=workdir, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        digests.add(digest(os.path.join(workdir, "inputs")))
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic")
    return times, digests.pop()


def invoke(cli, argv) -> int:
    """One CLI call in this process; a traceback counts as exit code 1."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the benchmark must record the failure and go on
        traceback.print_exc()
        return 1


def run_pass(cli, calls, tracer=None, run_id="") -> list:
    """Run the calls of one pass; return the seconds of each (None when the
    call exited non-zero)."""
    shutil.rmtree("out", ignore_errors=True)
    for call in calls:
        os.makedirs(call.out, exist_ok=True)
    times = []
    for k, call in enumerate(calls):
        if tracer:
            tracer.call_id = f"{run_id}:{k}"
        t0 = time.perf_counter()
        rc = invoke(cli, call.argv)
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.call_id = None
        times.append(elapsed if rc == 0 else None)
    return times


def check_pass(workload, calls, times, ref, expected, values,
               stored=None) -> tuple:
    """Return (failed call indices, eer) for a finished pass. A call fails
    when it exits non-zero or its output hashes differ from `expected`
    (filled in on first use); a failed workload check fails every call.
    Outputs seen for the first time also go into `values` and must match
    `stored`, the values of an earlier run on the same inputs, if given."""
    failed = {k for k, t in enumerate(times) if t is None}
    for k, call in enumerate(calls):
        if k in failed:
            continue
        h = digest(call.out)
        if expected.setdefault(str(k), h) != h:
            print(f"output of call {k} differs: {' '.join(call.argv)}",
                  file=sys.stderr)
            failed.add(k)
        elif str(k) not in values:
            values[str(k)] = output_values(call.out)
            if stored is not None:
                diff = differing_values(stored[str(k)], values[str(k)]) \
                    if str(k) in stored else "no stored values"
                if diff:
                    print(f"output of call {k} differs from an earlier run in "
                          f"{diff}: {' '.join(call.argv)}", file=sys.stderr)
                    failed.add(k)
    eer = None
    try:
        problems, eer = workload.check(ref)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        problems = [f"{type(exc).__name__}: {exc}"]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if problems:
        failed = set(range(len(calls)))
    return failed, eer


def quantile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def layer_metric(name, summary, overhead_s):
    if name == "trace.overhead_s":
        return overhead_s
    if name == "trace.spans":
        return sum(v["calls"] for v in summary.values())
    if name == "dsp.frame.per_clip":
        clips = summary.get("dsp.load_audio", {}).get("calls", 0)
        return summary.get("dsp.frame", {}).get("calls", 0) / clips if clips else 0.0
    func, field = name.rsplit(".", 1)
    return summary.get(func, {}).get(field, 0)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spoofkit", "cli.py")):
        print("error: run from the root of a spoofkit checkout (no src/spoofkit)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # set before numpy loads, and inherited by the set-up interpreters
    threads = str(blas_threads())
    for var in BLAS_VARS:
        os.environ[var] = threads
    sys.path.insert(0, src)

    import spoofkit
    from spoofkit import cli
    from spans import Tracer
    from workloads import SIZES, WORKLOADS, clips_per_pass, load_reference

    scale = "smoke" if args.smoke else "full"
    workload, size = WORKLOADS[args.workload], SIZES[scale][args.workload]
    state = os.path.join(root, ".perfbench")
    workdir = os.path.join(state, args.workload)
    records = os.path.join(state, "records")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(records, exist_ok=True)
    setup_times, inputs = setup(args, workdir, src, 1 if args.trace else SETUP_REPEATS)
    # stored hashes and counts hold for this program on these inputs; stored
    # output values hold for any version of the program on these inputs
    key = f"{args.workload}-{digest(os.path.join(src, 'spoofkit'))[:16]}-{inputs[:16]}"
    values_path = os.path.join(
        records, f"{args.workload}-seed{args.seed}-{inputs[:16]}.values.npz")
    stored = load_values(values_path)
    os.chdir(workdir)
    calls = workload.calls(args.seed, size)
    ref = load_reference(scale, args.workload)
    expected, outputs = {}, {}
    failed, eer = set(), None  # failed: (pass, call) pairs
    passes = []  # (pass seconds, {clip: explain seconds})

    def finish_pass(times):
        nonlocal eer
        bad, pass_eer = check_pass(workload, calls, times, ref, expected,
                                   outputs, stored)
        failed.update((len(passes), k) for k in bad)
        eer = pass_eer if eer is None else eer
        per_clip = {}
        for call, t in zip(calls, times):
            if call.clip and t is not None:
                per_clip[call.clip] = per_clip.get(call.clip, 0.0) + t
        passes.append((sum(t or 0.0 for t in times), per_clip))

    tracer = None
    if args.trace:
        finish_pass(run_pass(cli, calls))
        tracer = Tracer()
        tracer.install(spoofkit)
        try:
            finish_pass(run_pass(cli, calls, tracer, f"{args.workload}-{args.seed}"))
        finally:
            tracer.uninstall()
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            finish_pass(run_pass(cli, calls))

    drift = compare_record(os.path.join(records, f"{key}.sha.json"), expected,
                           store=not failed)
    for k in drift:
        print(f"output of call {k} differs from an earlier run", file=sys.stderr)
        failed.update((p, int(k)) for p in range(len(passes)))
    if stored is None and not failed:
        store_values(values_path, outputs)
    attempted, failed_total = len(calls) * len(passes), len(failed)
    correct = failed_total == 0

    wall = [p[0] for p in passes]
    print(f"{args.workload}: seed {args.seed}, {len(passes)} pass(es) of "
          f"{', '.join(f'{t:.3f}' for t in wall)} s, {attempted} CLI calls, "
          f"{failed_total} failed (failed_ratio {failed_total / attempted:.4f})")
    if args.trace:
        summary = tracer.summary()
        counts = {name: [v["calls"], v["rows"]] for name, v in summary.items()}
        changed = compare_record(os.path.join(records, f"{key}.counts.json"),
                                 counts, store=correct)
        for name in changed:
            print(f"count differs from an earlier traced run: {name}", file=sys.stderr)
        correct = correct and not changed
        os.makedirs(os.path.join(state, "traces"), exist_ok=True)
        tracer.write(os.path.join(state, "traces",
                                  f"{args.workload}-seed{args.seed}.json"))
        overhead = wall[1] - wall[0]
        print(f"untraced {wall[0]:.3f} s, traced {wall[1]:.3f} s, "
              f"{len(tracer.spans)} spans")
        metrics = {m["name"]: {"value": layer_metric(m["name"], summary, overhead),
                               "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        wall_s = statistics.median(wall)
        explain = [1000 * t for _, per_clip in passes for t in per_clip.values()]
        if explain:
            print(f"explain_ms (occlusion + rollout per clip, n={len(explain)}): "
                  f"p50 {quantile(explain, 50):.2f} ms, "
                  f"p90 {quantile(explain, 90):.2f} ms")
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "eer": 1.0 if eer is None else eer,  # None: no pass got as far
            "clips_per_s": clips_per_pass(args.workload, size) / wall_s,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed_total, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
