import multiprocessing
import os

import numpy as np
import pytest

from spoofkit import bench, cli, dsp, gbdt, transformer
from spoofkit.errors import InputError


def write_clip(path, seed=0, duration_s=0.2):
    rng = np.random.default_rng(seed)
    n = int(duration_s * dsp.SAMPLE_RATE)
    dsp.write_wav(path, 0.1 * rng.standard_normal(n))
    return str(path)


def write_manifest_csv(path, rows):
    with open(path, "w") as fh:
        fh.write("path,label,attack,split\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return str(path)


class TestManifest:
    def test_well_formed(self, tmp_path):
        rows = []
        for i, (label, split) in enumerate(
                [("bonafide", "train"), ("spoof", "train"),
                 ("bonafide", "eval"), ("spoof", "eval")]):
            name = f"c{i}.wav"
            write_clip(tmp_path / name, seed=i)
            rows.append((name, label, "-", split))
        m = bench.load_manifest(write_manifest_csv(tmp_path / "m.csv", rows))
        assert len(m.entries) == 4
        assert m.name == "m"
        assert [e.split for e in m.subset("eval")] == ["eval", "eval"]

    def test_bad_label_rejected_with_line_number(self, tmp_path):
        write_clip(tmp_path / "a.wav")
        p = write_manifest_csv(tmp_path / "m.csv", [("a.wav", "fake", "-", "train")])
        with pytest.raises(InputError, match=r"m\.csv:2.*fake"):
            bench.load_manifest(p)

    def test_line_number_counts_file_lines_past_a_quoted_newline(self, tmp_path):
        # the second record spans file lines 2-3, so the bad row is on line 4
        write_clip(tmp_path / "a\nb.wav")
        p = tmp_path / "m.csv"
        p.write_text('path,label,attack,split\n"a\nb.wav",spoof,-,train\n'
                     "c.wav,fake,-,train\n")
        with pytest.raises(InputError, match=r"m\.csv:4: label must be .*'fake'"):
            bench.load_manifest(p)

    def test_bad_split_rejected(self, tmp_path):
        write_clip(tmp_path / "a.wav")
        p = write_manifest_csv(tmp_path / "m.csv", [("a.wav", "spoof", "-", "test")])
        with pytest.raises(InputError, match=":2"):
            bench.load_manifest(p)

    def test_split_overlap_rejected(self, tmp_path):
        write_clip(tmp_path / "a.wav")
        p = write_manifest_csv(tmp_path / "m.csv", [
            ("a.wav", "spoof", "-", "train"), ("a.wav", "spoof", "-", "eval")])
        with pytest.raises(InputError, match="appears in both splits"):
            bench.load_manifest(p)

    def test_missing_audio_listed(self, tmp_path):
        p = write_manifest_csv(tmp_path / "m.csv", [("gone.wav", "spoof", "-", "train")])
        with pytest.raises(InputError, match="gone.wav"):
            bench.load_manifest(p)

    def test_many_missing_audio_counted(self, tmp_path):
        rows = [(f"gone_{i:02d}.wav", "spoof", "-", "train") for i in range(50)]
        p = write_manifest_csv(tmp_path / "m.csv", rows)
        with pytest.raises(InputError, match="50 missing") as info:
            bench.load_manifest(p)
        msg = str(info.value)
        assert "gone_00.wav" in msg and "gone_03.wav" not in msg
        assert len(msg) < 300

    def test_directory_counted_as_missing_audio(self, tmp_path):
        (tmp_path / "d.wav").mkdir()
        p = write_manifest_csv(tmp_path / "m.csv", [("d.wav", "spoof", "-", "train")])
        with pytest.raises(InputError, match="1 missing audio file.*d.wav"):
            bench.load_manifest(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("file,label\n")
        with pytest.raises(InputError, match="header"):
            bench.load_manifest(str(p))

    def test_nonexistent_manifest(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            bench.load_manifest(str(tmp_path / "nope.csv"))

    def test_roundtrip_write_load(self, tmp_path):
        write_clip(tmp_path / "a.wav")
        entries = [bench.ManifestEntry(str(tmp_path / "a.wav"), 1, "tts", "train")]
        mpath = tmp_path / "m.csv"
        bench.write_manifest(mpath, entries)
        m = bench.load_manifest(mpath)
        assert m.entries[0].label == 1
        assert m.entries[0].attack == "tts"


class TestEvaluate:
    def test_perfect_classifier(self):
        y = np.r_[np.ones(50), np.zeros(50)].astype(int)
        p = np.r_[np.full(50, 0.9), np.full(50, 0.1)]
        rep = bench.evaluate(y, p)
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (50, 0, 0, 50)
        assert rep.accuracy == 1.0
        assert rep.per_class["spoof"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
        assert rep.roc_auc == 1.0
        assert rep.eer == 0.0

    def test_inverted_predictions(self):
        y = np.r_[np.ones(10), np.zeros(10)].astype(int)
        p = np.r_[np.full(10, 0.1), np.full(10, 0.9)]
        rep = bench.evaluate(y, p)
        assert rep.accuracy == 0.0
        assert rep.roc_auc == 0.0

    def test_hand_computed_counts(self):
        y = np.r_[np.ones(99), np.zeros(101)].astype(int)
        p = np.r_[np.full(85, 0.9), np.full(14, 0.1),   # spoof: 85 hits, 14 misses
                  np.full(15, 0.9), np.full(86, 0.1)]   # bonafide: 15 false alarms
        rep = bench.evaluate(y, p)
        assert (rep.tp, rep.fp, rep.fn, rep.tn) == (85, 15, 14, 86)
        sp = rep.per_class["spoof"]
        assert sp["precision"] == pytest.approx(0.85)
        assert sp["recall"] == pytest.approx(85 / 99)
        assert rep.accuracy == pytest.approx(0.855)
        assert sp["f1"] == pytest.approx(2 * 0.85 * (85 / 99) / (0.85 + 85 / 99))

    def test_metrics_recomputable_from_counts(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 100)
        p = rng.uniform(0, 1, 100)
        rep = bench.evaluate(y, p)
        precision, recall, f1 = bench._prf(rep.tp, rep.fp, rep.fn)
        assert abs(rep.per_class["spoof"]["precision"] - precision) <= 1e-12
        assert abs(rep.per_class["spoof"]["recall"] - recall) <= 1e-12
        assert abs(rep.per_class["spoof"]["f1"] - f1) <= 1e-12
        assert abs(rep.accuracy - (rep.tp + rep.tn) / 100) <= 1e-12

    def test_macro_is_mean_of_classes(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 60)
        p = rng.uniform(0, 1, 60)
        rep = bench.evaluate(y, p)
        for k in ("precision", "recall", "f1"):
            assert rep.macro[k] == pytest.approx(
                (rep.per_class["spoof"][k] + rep.per_class["bonafide"][k]) / 2)

    def test_single_class_no_roc(self):
        rep = bench.evaluate(np.ones(5, dtype=int), np.full(5, 0.9))
        assert rep.roc_auc is None
        assert rep.eer is None

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            bench.evaluate([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            bench.evaluate([0, 1], [0.5])


class TestRoc:
    def test_auc_rank_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            y = rng.integers(0, 2, 30)
            if y.min() == y.max():
                continue
            s = rng.normal(0, 1, 30)
            base = bench.roc_auc(y, s)
            assert base == pytest.approx(bench.roc_auc(y, np.exp(s)), abs=1e-12)
            assert base == pytest.approx(bench.roc_auc(y, 3 * s + 7), abs=1e-12)
            assert 0.0 <= base <= 1.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 4000)
        s = rng.uniform(0, 1, 4000)
        assert bench.roc_auc(y, s) == pytest.approx(0.5, abs=0.05)

    def test_eer_operating_point_quantization(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, 200)
        cases = [(y, rng.normal(y.astype(float), 1.0))]
        for _ in range(50):  # tied scores: several sweep points can share the minimum
            y = np.r_[0, 1, rng.integers(0, 2, 28)]
            cases.append((y, rng.integers(0, 5, 30) + y))
        for y, s in cases:
            eer = bench.equal_error_rate(y, s)
            # brute-force sweep, accepting score >= t: t = +inf, then each
            # unique score in descending order
            pos, neg = s[y == 1], s[y == 0]
            thresholds = np.r_[np.inf, np.unique(s)[::-1]]
            fpr = np.array([(neg >= t).mean() for t in thresholds])
            fnr = np.array([(pos < t).mean() for t in thresholds])
            gaps = np.abs(fpr - fnr)
            # nearest-point EER is ambiguous at ties: any minimising point will do
            at_min = gaps <= gaps.min() + 1e-12
            assert np.any(np.abs((fpr + fnr)[at_min] / 2 - eer) <= 1e-12)


class TestAugmentCodec:
    def test_silence_preserved(self):
        audio = np.zeros(8000)
        out = bench.augment_codec(audio)
        assert out.size == 8000
        assert np.allclose(out, 0.0)

    def band_energy(self, x, sr, lo, hi):
        spec = np.abs(np.fft.rfft(x)) ** 2
        freqs = np.fft.rfftfreq(x.size, d=1.0 / sr)
        return spec[(freqs >= lo) & (freqs < hi)].sum()

    def test_white_noise_band_limited(self):
        rng = np.random.default_rng(5)
        x = 0.2 * rng.standard_normal(dsp.SAMPLE_RATE)
        out = bench.augment_codec(x)
        cutoff = bench.CODEC_CUTOFF_REF_HZ * dsp.SAMPLE_RATE / bench.CODEC_REF_RATE
        hi_in = self.band_energy(x, dsp.SAMPLE_RATE, cutoff * 1.05, dsp.SAMPLE_RATE / 2)
        hi_out = self.band_energy(out, dsp.SAMPLE_RATE,
                                  cutoff * 1.05, dsp.SAMPLE_RATE / 2)
        assert 10 * np.log10(hi_in / max(hi_out, 1e-30)) >= 20.0

    def test_double_pass_idempotent_per_band(self):
        rng = np.random.default_rng(6)
        x = 0.2 * rng.standard_normal(dsp.SAMPLE_RATE)
        once = bench.augment_codec(x)
        twice = bench.augment_codec(once)
        cutoff = bench.CODEC_CUTOFF_REF_HZ * dsp.SAMPLE_RATE / bench.CODEC_REF_RATE
        edges = np.linspace(50.0, cutoff * 0.9, 9)
        for lo, hi in zip(edges[:-1], edges[1:]):
            e1 = self.band_energy(once, dsp.SAMPLE_RATE, lo, hi)
            e2 = self.band_energy(twice, dsp.SAMPLE_RATE, lo, hi)
            assert abs(10 * np.log10(e2 / e1)) <= 1.0

    def test_fine_quantization_reconstructs(self, monkeypatch):
        # in-band tones and a step far below their level: the periodic-Hann
        # overlap-add divided by the summed win**2 must give the input back
        n = 8000
        t = np.arange(n) / dsp.SAMPLE_RATE
        x = np.hanning(n) * (0.4 * np.sin(2 * np.pi * 300 * t)
                             + 0.3 * np.sin(2 * np.pi * 1234 * t))
        monkeypatch.setattr(bench, "CODEC_QUANT_LEVELS", 2 ** 30)
        out = bench.augment_codec(x)
        assert np.abs(out - x).max() <= 1e-6

    def test_length_preserved(self):
        rng = np.random.default_rng(7)
        out = bench.augment_codec(0.1 * rng.standard_normal(7001))
        assert out.size == 7001


class TestAugmentRerecord:
    def test_impulse_yields_impulse_response(self):
        delta = np.zeros(6000)
        delta[0] = 1.0
        out = bench.augment_rerecord(delta, seed=3, snr_db=None)
        h = bench.room_impulse_response(0.25, 0.3, np.random.default_rng(3))
        expected = np.zeros(6000)
        expected[: h.size] = h
        # FFT rounding: measured max error 1.1e-16
        assert out.size == 6000
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n,rt60_s", [
        (25600, 0.25), (7001, 0.25), (4000, 0.25), (999, 0.25), (1, 0.25),
        (4001, 0.0), (6000, 0.0),
    ], ids=["1.6s", "odd", "even", "shorter_than_h", "one_sample",
            "rt60_0_odd", "rt60_0_even"])
    def test_matches_direct_convolution(self, monkeypatch, n, rt60_s):
        monkeypatch.setattr(bench, "RERECORD_RT60_S", rt60_s)
        x = 0.3 * np.random.default_rng(n).standard_normal(n)
        out = bench.augment_rerecord(x, seed=5, snr_db=None)
        h = bench.room_impulse_response(rt60_s, 0.3, np.random.default_rng(5))
        assert h.size == (1 if rt60_s == 0 else 4001)
        # the naive oracle: direct summation, cut to the clip length
        expected = np.convolve(x, h)[: x.size]
        np.testing.assert_allclose(out, expected, rtol=0,
                                   atol=1e-12 * np.abs(h).max())

    def test_degenerate_parameters_identity(self, monkeypatch):
        monkeypatch.setattr(bench, "RERECORD_RT60_S", 0.0)
        rng = np.random.default_rng(8)
        x = 0.3 * rng.standard_normal(4000)
        out = bench.augment_rerecord(x, seed=0, snr_db=None)
        assert np.allclose(out, x, atol=1e-6)

    def test_seed_determinism(self):
        rng = np.random.default_rng(9)
        x = 0.3 * rng.standard_normal(4000)
        a = bench.augment_rerecord(x, seed=17)
        b = bench.augment_rerecord(x, seed=17)
        assert np.array_equal(a, b)

    def test_snr_roughly_honored(self, monkeypatch):
        monkeypatch.setattr(bench, "RERECORD_RT60_S", 0.0)
        rng = np.random.default_rng(10)
        x = 0.3 * np.sin(2 * np.pi * 440 * np.arange(16000) / 16000)
        out = bench.augment_rerecord(x, seed=0, snr_db=20.0)
        noise = out - x
        measured = 10 * np.log10((x ** 2).mean() / (noise ** 2).mean())
        assert measured == pytest.approx(20.0, abs=1.0)

    def test_rt60_zero_pure_delta(self):
        h = bench.room_impulse_response(0.0, 0.3, np.random.default_rng(0))
        assert np.array_equal(h, np.array([1.0]))


class TestBalancedIndices:
    def test_reproducible(self):
        y = np.r_[np.zeros(20), np.ones(30)].astype(int)
        a = bench.balanced_indices(y, 10, np.random.default_rng(5))
        b = bench.balanced_indices(y, 10, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_balanced_and_sorted(self):
        y = np.r_[np.zeros(20), np.ones(30)].astype(int)
        idx = bench.balanced_indices(y, 8, np.random.default_rng(6))
        assert idx.size == 16
        assert np.array_equal(idx, np.sort(idx))
        assert (y[idx] == 0).sum() == 8 and (y[idx] == 1).sum() == 8

    def test_insufficient_samples(self):
        y = np.r_[np.zeros(3), np.ones(30)].astype(int)
        with pytest.raises(InputError, match="bonafide"):
            bench.balanced_indices(y, 5, np.random.default_rng(0))

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError, match="n_per_class must be >= 1"):
            bench.balanced_indices(np.array([0, 1]), 0, np.random.default_rng(0))


@pytest.fixture(scope="module")
def small_corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    with pytest.MonkeyPatch.context() as mp:  # 6 train, 5 eval, 5 domain-B eval clips per class
        mp.setattr(bench, "GENERALIZATION_TRAIN", 6)
        mp.setattr(bench, "GENERALIZATION_EVAL", 5)
        mp.setattr(bench, "GENERALIZATION_EVAL_B", 5)
        a, b = bench.make_generalization_corpora(root / "gen", seed=0)
    aug = bench.make_augmentation_corpus(root / "aug", seed=0,
                                         n_train=6, n_eval=6)
    return a, b, aug


def gbdt_only():
    return {"gbdt": bench.gbdt_detector(gbdt.GbdtConfig(n_estimators=20,
                                                        max_depth=2))}


def rms_threshold():
    """A detector no study knows: clip RMS against the midpoint of the two
    class means of the training clips."""
    def train(rms, labels):
        rms = np.asarray(rms)
        return (rms[labels == 0].mean() + rms[labels == 1].mean()) / 2

    return bench.Detector(
        lambda audio: float(np.sqrt(np.mean(audio ** 2))), train,
        lambda cut, rms: 1.0 / (1.0 + np.exp(-1000.0 * (np.asarray(rms) - cut))), 1)


class TestRunGeneralization:
    def test_report_shape_and_markdown(self, small_corpora):
        a, b, _ = small_corpora
        reports, md = bench.run_generalization(a, b, gbdt_only(), balance_n=5)
        assert len(reports) == 2
        assert reports[0].dataset_id == "domain_a (in-domain)"
        assert reports[1].dataset_id == "domain_b (cross-domain)"
        lines = md.strip().splitlines()
        assert lines[0].startswith("| Model | Dataset |")
        assert len(lines) == 4  # header + separator + 2 rows

    def test_same_manifest_in_domain_only(self, small_corpora):
        a, _, _ = small_corpora
        reports, _ = bench.run_generalization(a, a, gbdt_only(), balance_n=5)
        assert len(reports) == 1
        assert reports[0].dataset_id == "domain_a (in-domain)"

    def test_short_clips_rejected_before_writing(self, tmp_path):
        with pytest.raises(InputError, match="0.6"):
            bench.make_generalization_corpora(tmp_path / "gen", duration_s=0.5)
        assert not (tmp_path / "gen").exists()

    def test_balance_zero_rejected(self, small_corpora):
        a, b, _ = small_corpora
        with pytest.raises(InputError, match="balance_n must be >= 1"):
            bench.run_generalization(a, b, gbdt_only(), balance_n=0)

    def test_loudness_keyed_model_collapses_cross_domain(self, small_corpora):
        a, b, _ = small_corpora
        reports, _ = bench.run_generalization(a, b, gbdt_only(), balance_n=5)
        in_dom, cross = reports
        assert in_dom.accuracy >= 0.9
        assert cross.accuracy <= in_dom.accuracy - 0.15


class TestRunAugmentationStudy:
    def test_rows_per_condition(self, small_corpora):
        _, _, aug = small_corpora
        reports, md = bench.run_augmentation_study(
            aug, ["identity", "rerecord"], gbdt_only())
        assert len(reports) == 2
        assert [r.augmentation_id for r in reports] == ["identity", "rerecord"]
        assert len(md.strip().splitlines()) == 4

    def test_identity_matches_rerun_exactly(self, small_corpora):
        _, _, aug = small_corpora
        r1, _ = bench.run_augmentation_study(aug, ["identity"], gbdt_only())
        r2, _ = bench.run_augmentation_study(aug, ["identity"], gbdt_only())
        assert r1[0].to_dict() == r2[0].to_dict()

    def test_unknown_augmentation_rejected(self, small_corpora):
        _, _, aug = small_corpora
        with pytest.raises(InputError):
            bench.run_augmentation_study(aug, ["mp3"], gbdt_only())

    def test_input_shape_from_spectrograms(self, small_corpora):
        # 3.13 s gives 32 spectrogram columns; the config keeps (128, 60)
        _, _, aug = small_corpora
        detectors = {"transformer": bench.transformer_detector(
            transformer.TransformerConfig(
                geometry=transformer.PatchGeometry(16, 16, 16, 16)),
            transformer.TrainConfig(steps=2))}
        reports, _ = bench.run_augmentation_study(aug, ["identity"], detectors,
                                                  duration_s=3.13)
        assert [r.model_id for r in reports] == ["transformer"]


def cpus(monkeypatch, n):
    """Let the studies see `n` CPUs: more than one forks workers, even on a
    host with one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestForkedConditions:
    CONDITIONS = ["identity", "codec", "rerecord"]

    def test_workers_match_the_in_process_run(self, small_corpora, tmp_path,
                                              monkeypatch):
        _, _, aug = small_corpora
        rms = rms_threshold()

        def train(*args):  # names the process that trained, results unchanged
            (tmp_path / f"{os.getpid()}.pid").touch()
            return rms.train(*args)

        detectors = {"rms": rms._replace(train=train), **gbdt_only()}
        runs = {}
        for n in (2, 1):
            cpus(monkeypatch, n)
            runs[n] = bench.run_augmentation_study(aug, self.CONDITIONS, detectors)
            assert not multiprocessing.active_children()
            pids = {int(p.stem) for p in tmp_path.glob("*.pid")}
            assert (os.getpid() in pids) == (n == 1)
            for p in tmp_path.glob("*.pid"):
                p.unlink()
        (forked, forked_md), (serial, serial_md) = runs[2], runs[1]
        assert [r.to_dict() for r in forked] == [r.to_dict() for r in serial]
        assert [(r.augmentation_id, r.model_id) for r in forked] == [
            (a, m) for a in self.CONDITIONS for m in ("rms", "gbdt")]
        assert forked_md == serial_md

    def test_bench_augment_writes_the_same_bytes(self, small_corpora, tmp_path,
                                                 monkeypatch, capsys):
        _, _, aug = small_corpora
        manifest = os.path.join(os.path.dirname(aug.entries[0].path), "corpus.csv")
        argv = ["bench", "augment", "--manifest", manifest, "--out", str(tmp_path),
                "--models", "gbdt", "--n-estimators", "10"]
        written = {}
        for n in (2, 1):
            cpus(monkeypatch, n)
            assert cli.main(argv) == 0
            assert not multiprocessing.active_children()
            written[n] = {name: (tmp_path / f"augmentation.{name}").read_bytes()
                          for name in ("json", "csv", "md")}
        assert written[2] == written[1]
        assert capsys.readouterr().err == ""


class TestDetectorTable:
    def test_detector_of_the_test_runs_both_studies(self, small_corpora):
        # the studies name no model kind: a detector defined here runs
        # through both, one report per eval set
        a, b, aug = small_corpora
        detectors = {"rms": rms_threshold(), **gbdt_only()}
        reports, _ = bench.run_generalization(a, b, detectors, balance_n=5)
        assert [(r.model_id, r.dataset_id) for r in reports] == [
            ("rms", "domain_a (in-domain)"), ("gbdt", "domain_a (in-domain)"),
            ("rms", "domain_b (cross-domain)"), ("gbdt", "domain_b (cross-domain)")]
        # domain A's spoofs are loud, B's quiet: loudness aces A, fails B
        assert reports[0].accuracy == 1.0
        assert reports[2].accuracy == 0.0
        reports, _ = bench.run_augmentation_study(
            aug, ["identity", "codec"], {"rms": rms_threshold()})
        assert [(r.model_id, r.augmentation_id) for r in reports] == [
            ("rms", "identity"), ("rms", "codec")]
        assert all(r.tp + r.fp + r.fn + r.tn == 12 for r in reports)

    def test_study_defaults(self):
        assert (bench.STUDY_GBDT.n_estimators, bench.STUDY_GBDT.max_depth,
                bench.STUDY_TRAIN.steps) == (100, 3, 300)


class TestReports:
    def fixture_report(self):
        y = np.r_[np.ones(10), np.zeros(10)].astype(int)
        p = np.r_[np.full(10, 0.8), np.full(10, 0.2)]
        return bench.evaluate(y, p, model_id="gbdt", dataset_id="d",
                              augmentation_id="identity")

    def test_json_roundtrip(self):
        import json
        rep = self.fixture_report()
        doc = json.loads(json.dumps([rep.to_dict()]))
        assert doc[0]["counts"] == {"tp": 10, "fp": 0, "fn": 0, "tn": 10}
        assert doc[0]["model"] == "gbdt"

    def test_csv_row_count(self):
        rep = self.fixture_report()
        lines = bench.reports_to_csv([rep, rep]).strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("model,dataset,augmentation")

    def test_clip_length_fitting(self):
        audio = np.ones(100)
        padded = bench.fit_clip_length(audio, 0.01)  # 160 samples
        assert padded.size == 160
        assert np.all(padded[100:] == 0.0)
        truncated = bench.fit_clip_length(audio, 0.005)
        assert truncated.size == 80
