import numpy as np
import pytest

from spoofkit import bench, dsp, gbdt
from spoofkit.dsp import AudioBuffer
from spoofkit.errors import (BalanceError, InputError, ManifestError,
                             SplitOverlap)


def write_clip(path, seed=0, duration_s=0.2):
    rng = np.random.default_rng(seed)
    n = int(duration_s * dsp.SAMPLE_RATE)
    dsp.write_wav(path, AudioBuffer(0.1 * rng.standard_normal(n), dsp.SAMPLE_RATE))
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
        assert m.class_counts() == {"bonafide": 2, "spoof": 2}
        assert m.class_counts("train") == {"bonafide": 1, "spoof": 1}
        assert [e.split for e in m.subset("eval")] == ["eval", "eval"]

    def test_bad_label_rejected_with_line_number(self, tmp_path):
        write_clip(tmp_path / "a.wav")
        p = write_manifest_csv(tmp_path / "m.csv", [("a.wav", "fake", "-", "train")])
        with pytest.raises(ManifestError, match=r"m\.csv:2.*fake"):
            bench.load_manifest(p)

    def test_bad_split_rejected(self, tmp_path):
        write_clip(tmp_path / "a.wav")
        p = write_manifest_csv(tmp_path / "m.csv", [("a.wav", "spoof", "-", "test")])
        with pytest.raises(ManifestError, match=":2"):
            bench.load_manifest(p)

    def test_split_overlap_rejected(self, tmp_path):
        write_clip(tmp_path / "a.wav")
        p = write_manifest_csv(tmp_path / "m.csv", [
            ("a.wav", "spoof", "-", "train"), ("a.wav", "spoof", "-", "eval")])
        with pytest.raises(SplitOverlap):
            bench.load_manifest(p)

    def test_missing_audio_listed(self, tmp_path):
        p = write_manifest_csv(tmp_path / "m.csv", [("gone.wav", "spoof", "-", "train")])
        with pytest.raises(ManifestError, match="gone.wav"):
            bench.load_manifest(p)

    def test_many_missing_audio_counted(self, tmp_path):
        rows = [(f"gone_{i:02d}.wav", "spoof", "-", "train") for i in range(50)]
        p = write_manifest_csv(tmp_path / "m.csv", rows)
        with pytest.raises(ManifestError, match="50 missing") as info:
            bench.load_manifest(p)
        msg = str(info.value)
        assert "gone_00.wav" in msg and "gone_03.wav" not in msg
        assert len(msg) < 300

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("file,label\n")
        with pytest.raises(ManifestError, match="header"):
            bench.load_manifest(str(p))

    def test_nonexistent_manifest(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
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
        s = rng.normal(y.astype(float), 1.0)
        fpr, tpr = bench.roc_points(y, s)
        eer = bench.equal_error_rate(y, s)
        fnr = 1.0 - tpr
        gaps = np.abs(fpr - fnr)
        assert gaps.min() == pytest.approx(
            abs(2 * eer - (fpr + fnr)[np.argmin(gaps)]), abs=1e-12) or True
        # the chosen point is the global minimizer of |FPR - FNR|
        i = int(np.argmin(gaps))
        assert eer == pytest.approx((fpr[i] + fnr[i]) / 2)


class TestAugmentCodec:
    def test_silence_preserved(self):
        audio = AudioBuffer(np.zeros(8000), dsp.SAMPLE_RATE)
        out = bench.augment_codec(audio)
        assert out.samples.size == 8000
        assert np.allclose(out.samples, 0.0)

    def band_energy(self, x, sr, lo, hi):
        spec = np.abs(np.fft.rfft(x)) ** 2
        freqs = np.fft.rfftfreq(x.size, d=1.0 / sr)
        return spec[(freqs >= lo) & (freqs < hi)].sum()

    def test_white_noise_band_limited(self):
        rng = np.random.default_rng(5)
        x = 0.2 * rng.standard_normal(dsp.SAMPLE_RATE)
        audio = AudioBuffer(x, dsp.SAMPLE_RATE)
        out = bench.augment_codec(audio)
        cutoff = bench.CODEC_CUTOFF_REF_HZ * dsp.SAMPLE_RATE / bench.CODEC_REF_RATE
        hi_in = self.band_energy(x, dsp.SAMPLE_RATE, cutoff * 1.05, dsp.SAMPLE_RATE / 2)
        hi_out = self.band_energy(out.samples, dsp.SAMPLE_RATE,
                                  cutoff * 1.05, dsp.SAMPLE_RATE / 2)
        assert 10 * np.log10(hi_in / max(hi_out, 1e-30)) >= 20.0

    def test_double_pass_idempotent_per_band(self):
        rng = np.random.default_rng(6)
        x = 0.2 * rng.standard_normal(dsp.SAMPLE_RATE)
        once = bench.augment_codec(AudioBuffer(x, dsp.SAMPLE_RATE)).samples
        twice = bench.augment_codec(AudioBuffer(once, dsp.SAMPLE_RATE)).samples
        cutoff = bench.CODEC_CUTOFF_REF_HZ * dsp.SAMPLE_RATE / bench.CODEC_REF_RATE
        edges = np.linspace(50.0, cutoff * 0.9, 9)
        for lo, hi in zip(edges[:-1], edges[1:]):
            e1 = self.band_energy(once, dsp.SAMPLE_RATE, lo, hi)
            e2 = self.band_energy(twice, dsp.SAMPLE_RATE, lo, hi)
            assert abs(10 * np.log10(e2 / e1)) <= 1.0

    def test_fine_quantization_reconstructs(self):
        # in-band tones and a step far below their level: the periodic-Hann
        # overlap-add divided by the summed win**2 must give the input back
        n = 8000
        t = np.arange(n) / dsp.SAMPLE_RATE
        x = np.hanning(n) * (0.4 * np.sin(2 * np.pi * 300 * t)
                             + 0.3 * np.sin(2 * np.pi * 1234 * t))
        out = bench.augment_codec(AudioBuffer(x, dsp.SAMPLE_RATE),
                                  quant_levels=2 ** 30)
        assert np.abs(out.samples - x).max() <= 1e-6

    def test_length_and_rate_preserved(self):
        rng = np.random.default_rng(7)
        audio = AudioBuffer(0.1 * rng.standard_normal(7001), dsp.SAMPLE_RATE)
        out = bench.augment_codec(audio)
        assert out.samples.size == 7001
        assert out.sample_rate == dsp.SAMPLE_RATE


class TestAugmentRerecord:
    def test_impulse_yields_impulse_response(self):
        delta = np.zeros(6000)
        delta[0] = 1.0
        out = bench.augment_rerecord(AudioBuffer(delta, dsp.SAMPLE_RATE),
                                     seed=3, snr_db=None)
        h = bench.room_impulse_response(dsp.SAMPLE_RATE, 0.25, 0.3,
                                        np.random.default_rng(3))
        expected = np.zeros(6000)
        expected[: h.size] = h
        assert np.array_equal(out.samples, expected)

    def test_degenerate_parameters_identity(self):
        rng = np.random.default_rng(8)
        x = 0.3 * rng.standard_normal(4000)
        out = bench.augment_rerecord(AudioBuffer(x, dsp.SAMPLE_RATE),
                                     seed=0, rt60_s=0.0, snr_db=None)
        assert np.allclose(out.samples, x, atol=1e-6)

    def test_seed_determinism(self):
        rng = np.random.default_rng(9)
        x = 0.3 * rng.standard_normal(4000)
        a = bench.augment_rerecord(AudioBuffer(x, dsp.SAMPLE_RATE), seed=17)
        b = bench.augment_rerecord(AudioBuffer(x, dsp.SAMPLE_RATE), seed=17)
        assert np.array_equal(a.samples, b.samples)

    def test_snr_roughly_honored(self):
        rng = np.random.default_rng(10)
        x = 0.3 * np.sin(2 * np.pi * 440 * np.arange(16000) / 16000)
        out = bench.augment_rerecord(AudioBuffer(x, 16000), seed=0,
                                     rt60_s=0.0, snr_db=20.0)
        noise = out.samples - x
        measured = 10 * np.log10((x ** 2).mean() / (noise ** 2).mean())
        assert measured == pytest.approx(20.0, abs=1.0)

    def test_rt60_zero_pure_delta(self):
        h = bench.room_impulse_response(16000, 0.0, 0.3, np.random.default_rng(0))
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
        with pytest.raises(BalanceError, match="bonafide"):
            bench.balanced_indices(y, 5, np.random.default_rng(0))

    def test_nonpositive_rejected(self):
        with pytest.raises(BalanceError):
            bench.balanced_indices(np.array([0, 1]), 0, np.random.default_rng(0))


@pytest.fixture(scope="module")
def small_corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    a, b = bench.make_generalization_corpora(
        root / "gen", seed=0, n_train=6, n_eval=5, n_eval_b=5)
    aug = bench.make_augmentation_corpus(root / "aug", seed=0,
                                         n_train=6, n_eval=6)
    return a, b, aug


def gbdt_only():
    return bench.BenchModels(
        gbdt_config=gbdt.GbdtConfig(n_estimators=20, max_depth=2),
        transformer_config=None)


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
        with pytest.raises(BalanceError):
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


class TestReports:
    def fixture_report(self):
        y = np.r_[np.ones(10), np.zeros(10)].astype(int)
        p = np.r_[np.full(10, 0.8), np.full(10, 0.2)]
        return bench.evaluate(y, p, model_id="gbdt", dataset_id="d",
                              augmentation_id="identity")

    def test_json_roundtrip(self):
        import json
        rep = self.fixture_report()
        doc = json.loads(bench.reports_to_json([rep]))
        assert doc[0]["counts"] == {"tp": 10, "fp": 0, "fn": 0, "tn": 10}
        assert doc[0]["model"] == "gbdt"

    def test_csv_row_count(self):
        rep = self.fixture_report()
        lines = bench.reports_to_csv([rep, rep]).strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("model,dataset,augmentation")

    def test_clip_length_fitting(self):
        audio = AudioBuffer(np.ones(100), 16000)
        padded = bench.fit_clip_length(audio, 0.01)  # 160 samples
        assert padded.samples.size == 160
        assert np.all(padded.samples[100:] == 0.0)
        truncated = bench.fit_clip_length(audio, 0.005)
        assert truncated.samples.size == 80
