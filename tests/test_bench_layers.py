"""tools/bench_layers.py: two sources side by side in one process, and the
one loop that times a case on both, call by call."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
_spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "tools" / "bench_layers.py")
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)


@pytest.fixture(scope="module")
def sides():
    return {side: bench_layers.load(SRC, f"sk_test_{side}") for side in ("parent", "change")}


def test_load_gives_distinct_packages(sides):
    parent, change = sides["parent"], sides["change"]
    assert parent is not change
    for name in bench_layers.SUBMODULES:
        assert getattr(parent, name) is not getattr(change, name)
        assert getattr(change, name).__name__ == f"sk_test_change.{name}"
    assert parent.dsp.mfcc is not change.dsp.mfcc
    assert parent.bench.dsp is parent.dsp  # siblings resolve inside their own package


def mfcc_case(sk):
    rng = np.random.default_rng(0)
    clip = sk.dsp.AudioBuffer(0.1 * rng.standard_normal(3200), sk.dsp.SAMPLE_RATE)  # 0.2 s
    return bench_layers.Case("mfcc", lambda: sk.dsp.mfcc(clip),
                             lambda out: bench_layers.sha(out.tobytes()))


def test_interleaved_same_source(sides):
    entry, results = bench_layers.record(
        {side: mfcc_case(sk) for side, sk in sides.items()}, repeats=3)
    assert entry["parent_sha256"] == entry["change_sha256"]
    assert np.array_equal(results["parent"], results["change"])
    assert len(entry["ratios"]) == 3
    assert entry["ratio_median"] == sorted(entry["ratios"])[1]
    assert 0 <= entry["change_faster"] <= 3
    assert entry["parent_peak_bytes"] > 0 and entry["change_peak_bytes"] > 0


def test_one_side_keeps_plain_fields(sides):
    entry, _ = bench_layers.record({"change": mfcc_case(sides["change"])}, repeats=3)
    assert set(entry) == {"median_s", "sha256", "peak_bytes"}


def test_calls_alternate_which_side_goes_first():
    calls = []

    def case(side):
        return bench_layers.Case("order", lambda: calls.append(side), lambda _: "",
                                 peak=False)

    bench_layers.record({"parent": case("p"), "change": case("c")}, repeats=4)
    # one untimed call each, then parent first in even rounds, change in odd
    assert "".join(calls) == "pc" + "pc" "cp" "pc" "cp"
