import argparse
import json
import multiprocessing
import os
import shutil
import signal
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from spoofkit import attn_explain, bench, cli, dsp, gbdt, gbdt_explain
from spoofkit import transformer as tr
from spoofkit.errors import SpoofkitError, UsageError


def make_manifest(root, n_per_class=3, duration_s=0.3, seed=0):
    rng = np.random.default_rng(seed)
    entries = []
    n = int(duration_s * dsp.SAMPLE_RATE)
    t = np.arange(n) / dsp.SAMPLE_RATE
    for label in (0, 1):
        for k in range(n_per_class):
            x = 0.02 * rng.standard_normal(n)
            x += 0.3 * np.sin(2 * np.pi * (300 + 400 * label) * t)
            path = os.path.join(root, f"{bench.LABELS[label]}_{k}.wav")
            dsp.write_wav(path, x)
            entries.append(bench.ManifestEntry(path, label, "-", "train"))
    mpath = os.path.join(root, "manifest.csv")
    bench.write_manifest(mpath, entries)
    return mpath


def make_features_csv(path, n_per_class=20, seed=0):
    """Separable fixture: feature 0 carries the class, the rest is noise."""
    rng = np.random.default_rng(seed)
    with open(path, "w") as fh:
        fh.write(",".join(list(dsp.FEATURE_NAMES) + ["label"]) + "\n")
        for label in (0, 1):
            for _ in range(n_per_class):
                vec = 0.1 * rng.standard_normal(dsp.N_FEATURES)
                vec[0] += 4.0 * (2 * label - 1)
                fh.write(",".join(repr(float(v)) for v in vec)
                         + f",{bench.LABELS[label]}\n")
    return str(path)


class TestExtract:
    def test_three_rows_plus_header(self, tmp_path, capsys):
        manifest = make_manifest(tmp_path, n_per_class=2)
        out = tmp_path / "features.csv"
        rc = cli.main(["extract", "--manifest", manifest, "--out-csv", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# spoofkit 0.1.0 seed=0 config=")
        assert lines[1].split(",")[:3] == ["mfcc1", "mfcc2", "mfcc3"]
        assert len(lines) == 6  # meta + header + 4 rows
        assert "wrote 4 feature rows" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path):
        manifest = make_manifest(tmp_path, n_per_class=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        # identical config hash requires the identical out path
        cli.main(["extract", "--manifest", manifest, "--out-csv", str(a)])
        first = a.read_bytes()
        cli.main(["extract", "--manifest", manifest, "--out-csv", str(a)])
        assert a.read_bytes() == first
        cli.main(["--seed", "7", "extract", "--manifest", manifest,
                  "--out-csv", str(b)])
        assert b"seed=7" in b.read_bytes()

    def test_missing_manifest_exit_2(self, tmp_path, capsys):
        rc = cli.main(["extract", "--manifest", str(tmp_path / "no.csv"),
                       "--out-csv", str(tmp_path / "out.csv")])
        assert rc == 2
        assert "no.csv" in capsys.readouterr().err

    def test_roundtrip_through_reader(self, tmp_path):
        manifest = make_manifest(tmp_path, n_per_class=2)
        out = tmp_path / "features.csv"
        cli.main(["extract", "--manifest", manifest, "--out-csv", str(out)])
        X, y = cli.read_features_csv(str(out))
        assert X.shape == (4, dsp.N_FEATURES)
        assert sorted(y.tolist()) == [0, 0, 1, 1]

    def test_duration_below_one_frame_exit_2_before_any_audio(self, tmp_path, capsys):
        manifest = make_manifest(tmp_path, n_per_class=1)
        out = tmp_path / "f.csv"
        argv = ["extract", "--manifest", manifest, "--out-csv", str(out), "--duration"]
        assert cli.main(argv + ["0.01"]) == 2
        assert one_error_line(capsys) == ("error: --duration: the gbdt detector needs "
                                          "clips of at least 0.02 s, got 0.01 s")
        assert not out.exists()
        assert cli.main(argv + ["0.02"]) == 0  # one whole 20 ms frame

    @pytest.mark.parametrize("samples,flags", [
        (np.ones(100), []),
        (np.r_[np.zeros(600), np.ones(100), np.zeros(600)], ["--trim"]),
    ], ids=["short", "short_after_trim"])
    def test_clip_shorter_than_one_frame_named_exit_1(self, tmp_path, capsys, samples,
                                                      flags):
        wav = tmp_path / "clip.wav"
        dsp.write_wav(wav, 0.1 * samples)
        manifest = str(tmp_path / "m.csv")
        bench.write_manifest(manifest, [bench.ManifestEntry(str(wav), 0, "-", "train")])
        out = tmp_path / "f.csv"
        assert cli.main(["extract", "--manifest", manifest, "--out-csv", str(out),
                         *flags]) == 1
        assert one_error_line(capsys) == f"error: {wav}: audio shorter than one frame"
        assert not out.exists()


class TestBlasThreads:
    def test_extract_bytes_do_not_follow_the_blas_thread_count(self, tmp_path):
        # on two threads OpenBLAS sums chroma's filterbank product in another
        # order, and on the 1.7 and 2.9 s clips chroma6 moves in the last bit
        blas = bench._openblas()
        if blas is None:
            pytest.skip("numpy's BLAS exports no thread-count functions")
        get, set_ = blas
        entries = []
        for k, duration in enumerate((1.7, 2.9, 3.6)):
            path = str(tmp_path / f"{k}.wav")
            dsp.write_wav(path, bench.synth_clip(np.random.default_rng(6), duration, 0.3,
                                                 0.05, [(440.0, 0.4), (6500.0, 0.5)], []))
            entries.append(bench.ManifestEntry(path, k % 2, "-", "train"))
        manifest, out = str(tmp_path / "m.csv"), tmp_path / "f.csv"
        bench.write_manifest(manifest, entries)
        before, written = get(), {}
        try:
            for n in (2, 1):
                set_(n)
                assert cli.main(["extract", "--manifest", manifest,
                                 "--out-csv", str(out)]) == 0
                assert get() == n  # the caller's count, restored
                written[n] = out.read_bytes()
        finally:
            set_(before)
        assert written[2] == written[1]


class TestTrain:
    def test_gbdt_separable_fixture(self, tmp_path, capsys):
        features = make_features_csv(tmp_path / "features.csv")
        out = tmp_path / "model.json"
        rc = cli.main(["train", "gbdt", "--features", features,
                       "--out", str(out), "--n-estimators", "50",
                       "--max-depth", "3"])
        assert rc == 0
        msg = capsys.readouterr().out
        assert "train accuracy" in msg
        acc = float(msg.rsplit("train accuracy", 1)[1].strip())
        assert acc >= 0.99
        model = gbdt.from_json(out.read_text())
        assert len(model.trees) == 50
        assert os.path.exists(str(out) + ".run.json")

    def test_paper_scale_defaults_echoed(self, tmp_path, capsys):
        features = make_features_csv(tmp_path / "features.csv", n_per_class=5)
        out = tmp_path / "model.json"
        rc = cli.main(["train", "gbdt", "--features", features,
                       "--out", str(out)])
        assert rc == 0
        assert "400 trees, depth 8" in capsys.readouterr().out

    def test_missing_features_exit_2(self, tmp_path, capsys):
        rc = cli.main(["train", "gbdt", "--features",
                       str(tmp_path / "no.csv"), "--out", str(tmp_path / "m")])
        assert rc == 2

    def test_gbdt_without_features_flag_exit_2(self, tmp_path):
        rc = cli.main(["train", "gbdt", "--out", str(tmp_path / "m")])
        assert rc == 2

    def test_transformer_from_manifest(self, tmp_path, capsys):
        manifest = make_manifest(tmp_path, n_per_class=2, duration_s=1.6)
        out = tmp_path / "tmodel.json"
        rc = cli.main(["train", "transformer", "--manifest", manifest,
                       "--out", str(out), "--steps", "3"])
        assert rc == 0
        assert "transformer: step 3" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["kind"] == "transformer"


@pytest.fixture(scope="module")
def trained_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_models")
    features = make_features_csv(root / "features.csv")
    gbdt_path = root / "gbdt.json"
    assert cli.main(["train", "gbdt", "--features", features,
                     "--out", str(gbdt_path), "--n-estimators", "20",
                     "--max-depth", "2"]) == 0
    manifest = make_manifest(str(root), n_per_class=2, duration_s=1.6)
    tr_path = root / "transformer.json"
    assert cli.main(["train", "transformer", "--manifest", manifest,
                     "--out", str(tr_path), "--steps", "3"]) == 0
    wav = os.path.join(str(root), "spoof_0.wav")
    return {"features": features, "gbdt": str(gbdt_path),
            "transformer": str(tr_path), "wav": wav, "root": str(root)}


class TestExplain:
    def test_importance_covers_all_features(self, trained_artifacts, tmp_path):
        rc = cli.main(["explain", "importance",
                       "--model", trained_artifacts["gbdt"],
                       "--features", trained_artifacts["features"],
                       "--out", str(tmp_path), "--repeats", "3"])
        assert rc == 0
        doc = json.loads((tmp_path / "importance.json").read_text())
        assert len(doc["importances"]) == 37
        clusters = json.loads((tmp_path / "clusters.json").read_text())
        flat = sorted(i for c in clusters["clusters"] for i in c)
        assert flat == list(range(37))
        assert len(clusters["representatives"]) == len(clusters["clusters"])

    def test_rollout_timeline_and_normalization(self, trained_artifacts, tmp_path):
        rc = cli.main(["explain", "rollout",
                       "--model", trained_artifacts["transformer"],
                       "--wav", trained_artifacts["wav"],
                       "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "rollout.json").read_text())
        assert sum(doc["cls_importance"]) == pytest.approx(1.0, abs=1e-6)
        timeline = json.loads((tmp_path / "timeline.json").read_text())
        assert "segments" in timeline
        assert (tmp_path / "rollout.pgm").exists()

    def test_rollout_last_layer_mode(self, trained_artifacts, tmp_path):
        rc = cli.main(["explain", "rollout",
                       "--model", trained_artifacts["transformer"],
                       "--wav", trained_artifacts["wav"],
                       "--out", str(tmp_path), "--rollout", "last"])
        assert rc == 0
        doc = json.loads((tmp_path / "rollout.json").read_text())
        assert sum(doc["cls_importance"]) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("variant,mode", [
        ("plain", "plain"), ("residual", "residual_half"), ("last", "last")])
    def test_rollout_json_names_the_variant_that_ran(self, trained_artifacts,
                                                     tmp_path, variant, mode):
        rc = cli.main(["explain", "rollout",
                       "--model", trained_artifacts["transformer"],
                       "--wav", trained_artifacts["wav"],
                       "--out", str(tmp_path), "--rollout", variant])
        assert rc == 0
        assert json.loads((tmp_path / "rollout.json").read_text())["mode"] == mode

    def test_occlusion_artifacts(self, trained_artifacts, tmp_path):
        rc = cli.main(["explain", "occlusion",
                       "--model", trained_artifacts["transformer"],
                       "--wav", trained_artifacts["wav"],
                       "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "occlusion.json").read_text())
        assert 0.0 <= doc["base_prob"] <= 1.0
        assert doc["boxes"]
        assert (tmp_path / "occlusion.pgm").exists()
        assert (tmp_path / "occlusion.csv").exists()

    def test_fill_applies_to_the_default_grid(self, trained_artifacts, tmp_path):
        docs = {}
        for fill in ("zero", "mean"):
            rc = cli.main(["explain", "occlusion",
                           "--model", trained_artifacts["transformer"],
                           "--wav", trained_artifacts["wav"],
                           "--out", str(tmp_path / fill), "--fill", fill])
            assert rc == 0
            docs[fill] = json.loads((tmp_path / fill / "occlusion.json").read_text())
        assert docs["mean"]["fill"] == "mean"
        assert docs["mean"]["box"] == docs["zero"]["box"]
        assert ([b["delta"] for b in docs["mean"]["boxes"]]
                != [b["delta"] for b in docs["zero"]["boxes"]])

    def test_reference_box_too_large_exit_1(self, trained_artifacts, tmp_path,
                                            capsys):
        # the published box/stride values target a much larger input grid
        rc = cli.main(["explain", "occlusion",
                       "--model", trained_artifacts["transformer"],
                       "--wav", trained_artifacts["wav"],
                       "--out", str(tmp_path),
                       "--box", "200", "50", "--stride", "100", "25"])
        assert rc == 1
        assert "larger than input" in capsys.readouterr().err

    def test_box_without_stride_exit_2_on_a_valid_model(self, trained_artifacts,
                                                        tmp_path, capsys):
        # occlusion_scan would take half the box; the CLI asks for both flags
        out = tmp_path / "out"
        rc = cli.main(["explain", "occlusion",
                       "--model", trained_artifacts["transformer"],
                       "--wav", trained_artifacts["wav"],
                       "--out", str(out), "--box", "16", "4"])
        assert rc == 2
        assert "--box requires --stride" in capsys.readouterr().err
        assert not out.exists()

    def test_occlusion_on_gbdt_model_exit_2(self, trained_artifacts, tmp_path,
                                            capsys):
        rc = cli.main(["explain", "occlusion",
                       "--model", trained_artifacts["gbdt"],
                       "--wav", trained_artifacts["wav"],
                       "--out", str(tmp_path)])
        assert rc == 2
        assert "needs a transformer model" in capsys.readouterr().err

    def test_importance_requires_features_flag(self, trained_artifacts,
                                               tmp_path):
        rc = cli.main(["explain", "importance",
                       "--model", trained_artifacts["gbdt"],
                       "--out", str(tmp_path)])
        assert rc == 2


class TestModelCache:
    """`cli.main` parses a model file again only when its text or the kind of
    model asked for differs from the last successful load."""

    def test_model_rewritten_in_place_is_parsed_again(self, trained_artifacts, tmp_path):
        other = tmp_path / "other.json"
        assert cli.main(["--seed", "1", "train", "transformer", "--manifest",
                         os.path.join(trained_artifacts["root"], "manifest.csv"),
                         "--out", str(other), "--steps", "3"]) == 0
        model, out = tmp_path / "model.json", tmp_path / "out"
        argv = ["explain", "rollout", "--model", str(model),
                "--wav", trained_artifacts["wav"], "--out", str(out)]
        shutil.copyfile(trained_artifacts["transformer"], model)
        assert cli.main(argv) == 0
        first = (out / "rollout.json").read_bytes()
        shutil.copyfile(other, model)
        assert cli.main(argv) == 0
        warm = (out / "rollout.json").read_bytes()
        assert spoofkit_process(argv).returncode == 0
        assert warm == (out / "rollout.json").read_bytes() != first

    def test_kind_checked_after_a_load_of_the_same_file(self, trained_artifacts,
                                                        tmp_path, capsys):
        assert cli.main(["explain", "importance", "--model", trained_artifacts["gbdt"],
                         "--features", trained_artifacts["features"], "--repeats", "1",
                         "--out", str(tmp_path / "importance")]) == 0
        capsys.readouterr()
        rc = cli.main(["explain", "occlusion", "--model", trained_artifacts["gbdt"],
                       "--wav", trained_artifacts["wav"], "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "needs a transformer model" in one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_bad_file_after_a_reused_load_exit_1(self, trained_artifacts, tmp_path,
                                                 capsys):
        model = tmp_path / "model.json"
        shutil.copyfile(trained_artifacts["transformer"], model)
        argv = ["explain", "rollout", "--model", str(model),
                "--wav", trained_artifacts["wav"], "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0 and cli.main(argv) == 0
        capsys.readouterr()
        model.write_text("{not json")
        assert cli.main(argv) == 1
        one_error_line(capsys)

    @pytest.mark.parametrize("kind", ["gbdt", "transformer"])
    def test_explained_model_stays_as_loaded(self, trained_artifacts, tmp_path, kind):
        path = trained_artifacts[kind]
        if kind == "gbdt":
            calls = [["importance", "--features", trained_artifacts["features"],
                      "--repeats", "1"]]
        else:
            calls = [[mode, "--wav", trained_artifacts["wav"]]
                     for mode in ("occlusion", "rollout")]
        for call in calls:
            assert cli.main(["explain", call[0], "--model", path, *call[1:],
                             "--out", str(tmp_path / call[0])]) == 0
        text, loaded_kind, model = cli._last_load
        with open(path) as fh:
            assert text == fh.read()
        assert loaded_kind == kind
        module = gbdt if kind == "gbdt" else tr
        assert module.to_json(model) == text
        assert cli._load_model(path, kind, module.from_json) is model
        if kind == "transformer":
            assert not any(v.flags.writeable for v in model.params.values())
            with pytest.raises(ValueError, match="read-only"):
                model.params["cls"][0] = 1.0


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_of_one_call_do_not_reach_the_next(self, trained_artifacts, tmp_path):
        given = ["explain", "occlusion", "--model", trained_artifacts["transformer"],
                 "--wav", trained_artifacts["wav"]]
        assert cli.main(given + ["--out", str(tmp_path / "boxed"),
                                 "--box", "16", "4", "--stride", "8", "2"]) == 0
        argv = given + ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        doc = json.loads((tmp_path / "out" / "occlusion.json").read_text())
        cold = cli.build_parser.__wrapped__().parse_args(argv)
        # the default grid of the 128x16 log-Mel: a quarter of each side, half that
        assert (doc["box"], doc["stride"], doc["fill"]) == ([32, 4], [16, 2], "zero")
        assert doc["meta"]["config_hash"] == cli.config_hash(cold)
        assert vars(parsed(argv)) == vars(cold)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_bench")
    with pytest.MonkeyPatch.context() as mp:  # 6 train, 5 eval, 5 domain-B eval clips per class
        mp.setattr(bench, "GENERALIZATION_TRAIN", 6)
        mp.setattr(bench, "GENERALIZATION_EVAL", 5)
        mp.setattr(bench, "GENERALIZATION_EVAL_B", 5)
        bench.make_generalization_corpora(root / "gen", seed=0)
    bench.make_augmentation_corpus(root / "aug", seed=0, n_train=6, n_eval=6)
    gen_root = str(root / "gen")
    return {"train": os.path.join(gen_root, "domain_a.csv"),
            "eval": os.path.join(gen_root, "domain_b.csv"),
            "aug": os.path.join(str(root / "aug"), "corpus.csv")}


class TestBench:
    def test_generalize_markdown_shape(self, corpora, tmp_path, capsys):
        rc = cli.main(["bench", "generalize",
                       "--train-manifest", corpora["train"],
                       "--eval-manifest", corpora["eval"],
                       "--out", str(tmp_path), "--models", "gbdt",
                       "--balance-n", "5", "--n-estimators", "20"])
        assert rc == 0
        md = (tmp_path / "generalization.md").read_text()
        rows = [l for l in md.splitlines() if l.startswith("| gbdt")]
        assert len(rows) == 2
        assert (tmp_path / "generalization.csv").exists()
        assert (tmp_path / "generalization.json").exists()

    def test_augment_study_rows(self, corpora, tmp_path):
        rc = cli.main(["bench", "augment", "--manifest", corpora["aug"],
                       "--out", str(tmp_path), "--models", "gbdt",
                       "--augmentations", "identity,rerecord",
                       "--n-estimators", "20"])
        assert rc == 0
        doc = json.loads((tmp_path / "augmentation.json").read_text())
        assert [r["augmentation"] for r in doc["reports"]] == \
            ["identity", "rerecord"]

    def test_models_listed_out_of_order_report_gbdt_first(self, corpora, tmp_path):
        rc = cli.main(["bench", "augment", "--manifest", corpora["aug"],
                       "--out", str(tmp_path), "--models", "transformer,gbdt",
                       "--augmentations", "identity", "--steps", "2",
                       "--n-estimators", "2"])
        assert rc == 0
        doc = json.loads((tmp_path / "augmentation.json").read_text())
        assert [r["model"] for r in doc["reports"]] == ["gbdt", "transformer"]

    def test_augment_synth_relative_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["bench", "augment", "--synth", "corp", "--out", "out",
                       "--models", "gbdt", "--augmentations", "identity",
                       "--n-estimators", "5", "--duration", "0.5"])
        assert rc == 0
        assert (tmp_path / "out" / "augmentation.json").exists()

    @pytest.mark.parametrize("argv,needle", [
        (["generalize"], "--synth"),
        (["generalize", "--train-manifest", "nope.csv", "--eval-manifest", "nope.csv"],
         "no such file: nope.csv"),
        (["augment"], "--synth"),
        (["augment", "--manifest", "nope.csv"], "no such file: nope.csv"),
    ], ids=["generalize_no_flags", "generalize_no_file", "augment_no_flag",
            "augment_no_file"])
    def test_missing_manifest_exit_2_before_any_output(self, tmp_path, argv, needle):
        line = usage_error_line(tmp_path, ["bench", argv[0], "--out", "out", *argv[1:]])
        assert needle in line


class TestForkedStudyErrors:
    """`bench augment` runs its conditions in forked workers when it may use
    more than one CPU; a failed worker gives the one `error:` line of the
    in-process run, and leaves no process behind."""

    @pytest.fixture
    def manifest(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = []
        for split in ("train", "eval"):
            for label in (0, 1):
                for k in range(3):
                    path = str(tmp_path / f"{split}_{label}_{k}.wav")
                    dsp.write_wav(path, bench.synth_clip(rng, 0.5, 0.3, 0.05,
                                                         [(440.0, 0.4)], []))
                    entries.append(bench.ManifestEntry(path, label, "-", split))
        path = str(tmp_path / "m.csv")
        bench.write_manifest(path, entries)
        return path

    def augment(self, manifest, out, cpus, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        rc = cli.main(["bench", "augment", "--manifest", manifest, "--out", str(out),
                       "--models", "gbdt", "--n-estimators", "5", "--duration", "0.5"])
        assert not multiprocessing.active_children()
        return rc

    def test_unreadable_eval_wav_exit_1_as_in_process(self, manifest, tmp_path,
                                                      monkeypatch, capsys):
        wav = tmp_path / "eval_1_2.wav"
        wav.write_bytes(float32_wav_bytes())
        lines = []
        for cpus in (2, 1):
            assert self.augment(manifest, tmp_path / "out", cpus, monkeypatch) == 1
            lines.append(one_error_line(capsys))
        assert lines[0] == lines[1]
        assert lines[0].count(str(wav)) == 1

    def test_worker_killed_exit_1_one_line(self, manifest, tmp_path, monkeypatch,
                                           capsys):
        parent = os.getpid()

        def killed(*args, **kwargs):
            assert os.getpid() != parent, "the study ran in the test process"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(bench, "_study", killed)
        assert self.augment(manifest, tmp_path / "out", 2, monkeypatch) == 1
        assert one_error_line(capsys).startswith("error: a worker process died")


class TestForkedExtract:
    """`extract` computes its rows in forked workers, one clip per task, when
    it may use more than one CPU; the CSV and every error are those of the
    in-process run, and no process outlives the call."""

    @pytest.fixture
    def clips(self, tmp_path):
        rng = np.random.default_rng(6)
        paths = []
        for k, duration in enumerate((1.6, 2.9, 3.6)):
            path = str(tmp_path / f"{k}.wav")
            dsp.write_wav(path, bench.synth_clip(rng, duration, 0.3, 0.05,
                                                 [(440.0, 0.4), (6500.0, 0.5)], []))
            paths.append(path)
        return paths

    def extract(self, tmp_path, paths, cpus, monkeypatch, flags=()):
        manifest = str(tmp_path / "m.csv")
        bench.write_manifest(manifest, [bench.ManifestEntry(p, k % 2, "-", "train")
                                        for k, p in enumerate(paths)])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        rc = cli.main(["extract", "--manifest", manifest,
                       "--out-csv", str(tmp_path / "f.csv"), *flags])
        assert not multiprocessing.active_children()
        return rc

    @pytest.mark.parametrize("flags", [[], ["--trim"], ["--duration", "1.0"]],
                             ids=["plain", "trim", "duration"])
    def test_csv_bytes_do_not_follow_the_cpu_count(self, clips, tmp_path, monkeypatch,
                                                   flags):
        out, written = tmp_path / "f.csv", {}
        for cpus in (2, 1):
            assert self.extract(tmp_path, clips, cpus, monkeypatch, flags) == 0
            written[cpus] = out.read_bytes()
            out.unlink()
        assert written[2] == written[1]
        assert len(written[2].splitlines()) == 2 + len(clips)

    def test_workers_compute_the_rows(self, clips, tmp_path, monkeypatch):
        pids, extract_features = tmp_path / "pids", dsp.extract_features

        def probe(*args, **kwargs):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return extract_features(*args, **kwargs)

        monkeypatch.setattr(dsp, "extract_features", probe)
        assert self.extract(tmp_path, clips, 2, monkeypatch) == 0
        seen = pids.read_text().split()
        assert len(seen) == len(clips)
        assert str(os.getpid()) not in seen

    def test_first_sub_frame_clip_named_as_in_process(self, clips, tmp_path, monkeypatch,
                                                      capsys):
        short = []
        for k in range(2):
            short.append(str(tmp_path / f"short_{k}.wav"))
            dsp.write_wav(short[-1], 0.1 * np.ones(100))
        # the 4th and 7th of seven entries
        paths = [*clips, short[0], clips[0], clips[1], short[1]]
        for cpus in (2, 1):
            assert self.extract(tmp_path, paths, cpus, monkeypatch) == 1
            assert one_error_line(capsys) == \
                f"error: {short[0]}: audio shorter than one frame"
            assert not (tmp_path / "f.csv").exists()

    def test_unreadable_wav_line_as_in_process(self, clips, tmp_path, monkeypatch, capsys):
        wav = tmp_path / "float32.wav"
        wav.write_bytes(float32_wav_bytes())
        lines = []
        for cpus in (2, 1):
            assert self.extract(tmp_path, [*clips, str(wav)], cpus, monkeypatch) == 1
            lines.append(one_error_line(capsys))
            assert not (tmp_path / "f.csv").exists()
        assert lines[0] == lines[1]
        assert lines[0].count(str(wav)) == 1

    def test_worker_killed_exit_1_one_line(self, clips, tmp_path, monkeypatch, capsys):
        parent = os.getpid()

        def killed(*args, **kwargs):
            assert os.getpid() != parent, "the clip ran in the test process"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(dsp, "extract_features", killed)
        assert self.extract(tmp_path, clips, 2, monkeypatch) == 1
        assert one_error_line(capsys).startswith("error: a worker process died")
        assert not (tmp_path / "f.csv").exists()


def one_error_line(capsys):
    """The single stderr line a failed command prints."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def float32_wav_bytes(n=160):
    data = struct.pack(f"<{n}f", *([0.1] * n))
    fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 3, 1, 16000, 64000, 4, 32)
    body = b"WAVE" + fmt + struct.pack("<4sI", b"data", len(data)) + data
    return struct.pack("<4sI", b"RIFF", len(body)) + body


def pcm_wav_bytes(rate, n=3):
    """A mono 16-bit PCM WAV of n samples whose header gives `rate` Hz."""
    data = struct.pack(f"<{n}h", *range(n))
    fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, rate, 2 * rate, 2, 16)
    body = b"WAVE" + fmt + struct.pack("<4sI", b"data", len(data)) + data
    return struct.pack("<4sI", b"RIFF", len(body)) + body


FEATURE_HEADER = ",".join(list(dsp.FEATURE_NAMES) + ["label"])
FEATURE_ROW = ",".join(["0.5"] * dsp.N_FEATURES)


class TestHostileInput:
    @pytest.mark.parametrize("content", [float32_wav_bytes(), b""],
                             ids=["float32", "zero_bytes"])
    def test_unreadable_wav_exit_1(self, tmp_path, capsys, content):
        wav = tmp_path / "clip.wav"
        wav.write_bytes(content)
        manifest = str(tmp_path / "m.csv")
        bench.write_manifest(manifest, [bench.ManifestEntry(str(wav), 0, "-", "train")])
        rc = cli.main(["extract", "--manifest", manifest,
                       "--out-csv", str(tmp_path / "f.csv")])
        assert rc == 1
        assert one_error_line(capsys).count(str(wav)) == 1  # read_wav names it
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("rate", [0, 1])
    def test_low_rate_wav_exit_1(self, tmp_path, capsys, rate):
        # at 1 Hz, resampling a 200 KB file would ask for 1.6e9 samples
        wav = tmp_path / "clip.wav"
        wav.write_bytes(pcm_wav_bytes(rate))
        manifest = str(tmp_path / "m.csv")
        bench.write_manifest(manifest, [bench.ManifestEntry(str(wav), 0, "-", "train")])
        rc = cli.main(["extract", "--manifest", manifest,
                       "--out-csv", str(tmp_path / "f.csv")])
        assert rc == 1
        assert one_error_line(capsys) == \
            f"error: {wav}: sample rate {rate} Hz is below {dsp.MIN_SAMPLE_RATE} Hz"
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("body,line", [
        (f"# meta\n{FEATURE_HEADER}\n{FEATURE_ROW},maybe\n", 3),
        (f"{FEATURE_HEADER}\n{FEATURE_ROW},spoof\n{FEATURE_ROW}\n", 3),
        ("", None),
    ], ids=["unknown_label", "short_row", "empty"])
    def test_malformed_features_exit_2(self, tmp_path, capsys, body, line):
        path = tmp_path / "f.csv"
        path.write_text(body)
        rc = cli.main(["train", "gbdt", "--features", str(path),
                       "--out", str(tmp_path / "m.json")])
        assert rc == 2
        msg = one_error_line(capsys)
        assert str(path) in msg
        if line:
            assert f"{path}:{line}:" in msg

    @pytest.mark.parametrize("data", [b"{not json", b'{"kind": "gbdt", "format_version": 1}',
                                      b"\xff\xfe"],
                             ids=["not_json", "no_trees", "not_utf8"])
    def test_bad_model_file_exit_1(self, tmp_path, capsys, data):
        model = tmp_path / "model.json"
        model.write_bytes(data)
        features = make_features_csv(tmp_path / "f.csv", n_per_class=2)
        rc = cli.main(["explain", "importance", "--model", str(model),
                       "--features", features, "--out", str(tmp_path / "out")])
        assert rc == 1
        one_error_line(capsys)

    @pytest.mark.parametrize("kind", ["importance", "occlusion"])
    @pytest.mark.parametrize("text", ["{not json", '{"kind": "KIND", "format_version": 9}'],
                             ids=["not_json", "format_version_9"])
    def test_rejected_model_leaves_no_out_dir(self, trained_artifacts, tmp_path,
                                              capsys, kind, text):
        model = tmp_path / "model.json"
        model.write_text(text.replace("KIND", "gbdt" if kind == "importance"
                                      else "transformer"))
        data = ["--features", trained_artifacts["features"]] if kind == "importance" \
            else ["--wav", trained_artifacts["wav"]]
        rc = cli.main(["explain", kind, "--model", str(model), *data,
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_rejected_occlusion_box_leaves_no_out_dir(self, trained_artifacts,
                                                      tmp_path, capsys):
        rc = cli.main(["explain", "occlusion", "--model", trained_artifacts["transformer"],
                       "--wav", trained_artifacts["wav"], "--box", "500", "4",
                       "--stride", "1", "1", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "larger than input" in one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["explain", "importance", "--model", "{dir}", "--features", "{features}",
         "--out", "{tmp}/out"],
        ["train", "gbdt", "--features", "{dir}", "--out", "{tmp}/m.json"],
        ["extract", "--manifest", "{dir}", "--out-csv", "{tmp}/f.csv"],
    ], ids=["explain_model", "train_features", "extract_manifest"])
    def test_directory_given_as_file_exit_2(self, trained_artifacts, tmp_path,
                                            capsys, argv):
        (tmp_path / "dir").mkdir()
        paths = {"dir": tmp_path / "dir", "tmp": tmp_path,
                 "features": trained_artifacts["features"]}
        rc = cli.main([a.format(**paths) for a in argv])
        assert rc == 2
        assert "not a file" in one_error_line(capsys)

    def test_explain_out_is_a_file_exit_2(self, trained_artifacts, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("taken")
        rc = cli.main(["explain", "importance", "--model", trained_artifacts["gbdt"],
                       "--features", trained_artifacts["features"],
                       "--out", str(out)])
        assert rc == 2
        assert "not a directory" in one_error_line(capsys)
        assert out.read_text() == "taken"

    def test_train_out_is_a_directory_exit_1(self, trained_artifacts, tmp_path,
                                            capsys):
        rc = cli.main(["train", "gbdt", "--features", trained_artifacts["features"],
                       "--out", str(tmp_path), "--n-estimators", "2"])
        assert rc == 1
        one_error_line(capsys)

    def test_empty_manifest_path_exit_1_naming_the_line(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,label,attack,split\n,spoof,-,train\n")
        rc = cli.main(["extract", "--manifest", str(manifest),
                       "--out-csv", str(tmp_path / "f.csv")])
        assert rc == 1
        assert f"{manifest}:2: empty audio path" in one_error_line(capsys)
        assert not (tmp_path / "f.csv").exists()

    def test_non_utf8_manifest_exit_1(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_bytes(b"path,label,attack,split\n\xff\xfe.wav,spoof,-,train\n")
        rc = cli.main(["extract", "--manifest", str(manifest),
                       "--out-csv", str(tmp_path / "f.csv")])
        assert rc == 1
        assert "not a text CSV" in one_error_line(capsys)

    @pytest.mark.parametrize("flag,value", [
        ("--d-model", "0"), ("--d-ff", "-1"), ("--n-layers", "-1"), ("--steps", "0"),
    ], ids=["d_model_0", "d_ff_-1", "n_layers_-1", "steps_0"])
    def test_transformer_size_below_one_exit_1(self, tmp_path, capsys, flag, value):
        manifest = make_manifest(str(tmp_path), n_per_class=1, duration_s=1.6)
        out = tmp_path / "m.json"
        rc = cli.main(["train", "transformer", "--manifest", manifest,
                       "--out", str(out), flag, value])
        assert rc == 1
        assert "must be >= 1" in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("left", lambda tree: [99] + tree["left"][1:]),
        ("feature", lambda tree: [50] + tree["feature"][1:]),
        ("left", lambda tree: []),
    ], ids=["child_99", "feature_50", "empty_left"])
    def test_malformed_gbdt_tree_exit_1(self, trained_artifacts, tmp_path, capsys,
                                        field, value):
        with open(trained_artifacts["gbdt"]) as fh:
            doc = json.load(fh)
        tree = doc["trees"][0]
        tree[field] = value(tree)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        rc = cli.main(["explain", "importance", "--model", str(model),
                       "--features", trained_artifacts["features"],
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "malformed gbdt" in one_error_line(capsys)

    @pytest.mark.parametrize("feature,left,right", [
        ([0, 1, 2, -1, -1], [1, 3, 3, -1, -1], [2, 4, 4, -1, -1]),
        ([0, 1, 2, -1], [1, 2, 3, -1], [1, 2, 3, -1]),
    ], ids=["two_parents", "left_is_right"])
    def test_gbdt_tree_with_shared_child_exit_1(self, trained_artifacts, tmp_path,
                                                capsys, feature, left, right):
        with open(trained_artifacts["gbdt"]) as fh:
            doc = json.load(fh)
        doc["trees"][0] = {"feature": feature, "left": left, "right": right,
                           "threshold": [0.0] * len(feature), "value": [0.0] * len(feature)}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        rc = cli.main(["explain", "importance", "--model", str(model),
                       "--features", trained_artifacts["features"],
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "child of exactly one split" in one_error_line(capsys)

    @pytest.mark.parametrize("edit", [
        lambda params: params.pop("l0.wq"),
        lambda params: params.update(cls={"shape": [3], "data": [0.0, 0.0, 0.0]}),
    ], ids=["no_l0_wq", "cls_shape_3"])
    def test_malformed_transformer_params_exit_1(self, trained_artifacts, tmp_path,
                                                 capsys, edit):
        with open(trained_artifacts["transformer"]) as fh:
            doc = json.load(fh)
        edit(doc["params"])
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        rc = cli.main(["explain", "rollout", "--model", str(model),
                       "--wav", trained_artifacts["wav"],
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "malformed transformer" in one_error_line(capsys)

    @pytest.mark.parametrize("command", ["train", "importance"])
    def test_non_finite_features_exit_2(self, trained_artifacts, tmp_path, capsys,
                                        command):
        # a nan cell on line 3 and an inf cell on line 4: the reader stops
        # at the first, before --out is created
        path = tmp_path / "f.csv"
        rest = ",".join(["0.5"] * (dsp.N_FEATURES - 1))
        path.write_text(f"{FEATURE_HEADER}\n{FEATURE_ROW},spoof\n"
                        f"nan,{rest},bonafide\n{rest},inf,spoof\n")
        argv = ["train", "gbdt"] if command == "train" else \
            ["explain", "importance", "--model", trained_artifacts["gbdt"]]
        rc = cli.main([*argv, "--features", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"{path}:3: features must be finite" in one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_importance_on_one_row_exit_1_writes_nothing(self, trained_artifacts,
                                                         tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_text(f"{FEATURE_HEADER}\n{FEATURE_ROW},spoof\n")
        rc = cli.main(["explain", "importance", "--model", trained_artifacts["gbdt"],
                       "--features", str(path), "--repeats", "1",
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "n_samples >= 2" in one_error_line(capsys)
        assert not (tmp_path / "out").exists()


# (command line, flag) of each mode with a range-checked number flag;
# every output path is relative, so a run that creates one leaves it in cwd
RANGED_FLAGS = [
    (["extract", "--manifest", "m.csv", "--out-csv", "f.csv"], "--duration"),
    (["train", "transformer", "--manifest", "m.csv", "--out", "t.json"], "--duration"),
    (["bench", "generalize", "--synth", "corpus", "--out", "out"], "--duration"),
    (["bench", "augment", "--synth", "corpus", "--out", "out"], "--duration"),
    (["explain", "importance", "--model", "g.json", "--features", "f.csv",
      "--out", "out"], "--cluster-threshold"),
    (["explain", "importance", "--model", "g.json", "--features", "f.csv",
      "--out", "out"], "--top-k"),
    (["train", "transformer", "--manifest", "m.csv", "--out", "t.json"], "--learning-rate"),
    (["train", "transformer", "--manifest", "m.csv", "--out", "t.json"], "--weight-decay"),
    (["train", "transformer", "--manifest", "m.csv", "--out", "t.json"], "--seed"),
    (["explain", "importance", "--model", "g.json", "--features", "f.csv",
      "--out", "out"], "--seed"),
    (["bench", "augment", "--synth", "corpus", "--out", "out"], "--seed"),
]
# values outside each flag's range: extract's --duration takes 0 (keep the
# clip), --top-k is an integer >= 1, a learning rate or weight decay may be 0
BAD_VALUES = {"--duration": ["nan", "inf", "-1", "0"],
              "--cluster-threshold": ["nan", "inf", "-1", "0"],
              "--top-k": ["-3", "0"],
              "--learning-rate": ["nan", "inf", "-0.01"],
              "--weight-decay": ["nan", "inf", "-5"],
              "--seed": ["-1"]}


def bad_ranged_values():
    for argv, flag in RANGED_FLAGS:
        mode = "-".join(a for a in argv[:2] if not a.startswith("-"))
        for value in BAD_VALUES[flag]:
            if not (mode == "extract" and value == "0"):
                yield pytest.param(argv, flag, value, id=f"{mode}{flag}={value}")


def spoofkit_process(argv, cwd=None):
    """`spoofkit argv` run in a fresh interpreter on this checkout's package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "spoofkit.cli", *argv],
                          cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def usage_error_line(tmp_path, argv):
    """The one `error:` line of a `spoofkit` process run in `tmp_path` that
    exits 2 with no output and leaves `tmp_path` empty."""
    proc = spoofkit_process(argv, cwd=tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert proc.stdout == ""
    assert os.listdir(tmp_path) == []
    return lines[0]


class TestRangedFlags:
    @pytest.mark.parametrize("argv,flag,value", list(bad_ranged_values()))
    def test_out_of_range_exit_2_before_any_output(self, tmp_path, argv, flag, value):
        # --seed belongs to the top-level parser, so it comes before the command
        given = [f"{flag}={value}"]
        line = usage_error_line(tmp_path, given + argv if flag == "--seed" else argv + given)
        assert flag in line and repr(value) in line

    @pytest.mark.parametrize("argv,needle", [
        (["augment", "--augmentations", "identity,mp3"],
         "--augmentations: unknown 'mp3'; choose from identity, codec, rerecord"),
        (["generalize", "--balance-n", "0"], "--balance-n: '0' is not"),
        (["augment", "--duration", "0.00001"],
         "--duration: '0.00001' is not a finite number >= 6.25e-05"),
        (["generalize", "--duration", "0.5"], "at least 0.6 s, got 0.5 s"),
        # one 20 ms MFCC frame at 16 kHz: 320 samples
        (["augment", "--duration", "0.01", "--models", "gbdt"],
         "--duration: the gbdt detector needs clips of at least 0.02 s, got 0.01 s"),
        # one 16-column patch: the 16th 100 ms log-Mel frame starts at sample 24000
        (["augment", "--duration", "1.5", "--models", "gbdt,transformer"],
         "the transformer detector needs clips of at least 1.5000625 s, got 1.5 s"),
        (["generalize", "--duration", "1.0"], "the transformer detector needs"),
    ], ids=["unknown_augmentation", "balance_zero", "augment_no_sample",
            "generalize_below_burst", "gbdt_below_one_frame",
            "transformer_below_one_patch", "generalize_transformer"])
    def test_study_flags_exit_2_before_any_output(self, tmp_path, argv, needle):
        # with --synth, a study that ran would create the corpus and --out
        line = usage_error_line(tmp_path, ["bench", argv[0], "--synth", "corpus",
                                           "--out", "out", *argv[1:]])
        assert needle in line

    def test_train_transformer_below_one_patch_exit_2(self, tmp_path):
        # checked before the manifest is read: m.csv does not exist
        line = usage_error_line(tmp_path, [*RANGED_FLAGS[1][0], "--duration", "1.0"])
        assert line.endswith("the transformer detector needs clips of at least "
                             "1.5000625 s, got 1.0 s")

    @pytest.mark.parametrize("argv,flag,value,expected", [
        (RANGED_FLAGS[0][0], "--duration", "0", 0.0),
        (RANGED_FLAGS[3][0], "--duration", "1e-3", 1e-3),
        (RANGED_FLAGS[4][0], "--cluster-threshold", "1e-9", 1e-9),
        (RANGED_FLAGS[5][0], "--top-k", "1", 1),
        (RANGED_FLAGS[6][0], "--learning-rate", "0", 0.0),
        (RANGED_FLAGS[7][0], "--weight-decay", "0", 0.0),
    ], ids=["extract_keep", "duration", "cluster_threshold", "top_k",
            "learning_rate_zero", "weight_decay_zero"])
    def test_in_range_values_parse(self, argv, flag, value, expected):
        args = parsed(argv + [flag, value])
        assert getattr(args, flag[2:].replace("-", "_")) == expected


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_pyproject_reads_the_one_version_constant():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as fh:
        doc = tomllib.load(fh)
    assert "version" not in doc["project"]
    assert doc["project"]["dynamic"] == ["version"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "spoofkit.__version__"}


def test_pyproject_runtime_needs_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as fh:
        doc = tomllib.load(fh)
    assert [d.split(">")[0] for d in doc["project"]["dependencies"]] == ["numpy"]
    assert any(d.startswith("scipy") for d in doc["project"]["optional-dependencies"]["test"])


def modules_loaded_by(code):
    """Names of the modules a fresh interpreter loads while it runs `code`,
    with the spoofkit package of this checkout on its path."""
    probe = ("import sys\n_before = set(sys.modules)\n" + code
             + "\nprint(*sorted(set(sys.modules) - _before))")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def cli_modules(argv):
    """`modules_loaded_by` one `cli.main(argv)` call that exits 0."""
    return modules_loaded_by(f"from spoofkit import cli\nassert cli.main({argv!r}) == 0")


def scipy_modules(names):
    return {name for name in names if name.split(".")[0] == "scipy"}


class TestStartup:
    """No command loads scipy: the MFCC's DCT and the Ward linkage of
    feature clusters are numpy, and scipy serves only as a test oracle."""

    def test_import_loads_numpy_and_the_standard_library_only(self):
        loaded = modules_loaded_by("import spoofkit.cli")
        roots = {name.split(".")[0] for name in loaded} - set(sys.stdlib_module_names)
        assert roots == {"numpy", "spoofkit"}

    def test_explain_rollout_and_train_gbdt_load_no_scipy(self, trained_artifacts,
                                                          tmp_path):
        assert not scipy_modules(cli_modules([
            "explain", "rollout", "--model", trained_artifacts["transformer"],
            "--wav", trained_artifacts["wav"], "--out", str(tmp_path / "rollout")]))
        assert not scipy_modules(cli_modules([
            "train", "gbdt", "--features", trained_artifacts["features"],
            "--out", str(tmp_path / "gbdt.json"), "--n-estimators", "2"]))

    def test_extract_loads_no_scipy(self, trained_artifacts, tmp_path):
        assert not scipy_modules(cli_modules([
            "extract", "--manifest", os.path.join(trained_artifacts["root"], "manifest.csv"),
            "--out-csv", str(tmp_path / "f.csv")]))

    def test_bench_augment_gbdt_loads_no_scipy(self, corpora, tmp_path):
        assert not scipy_modules(cli_modules([
            "bench", "augment", "--manifest", corpora["aug"], "--out", str(tmp_path),
            "--models", "gbdt", "--augmentations", "identity", "--n-estimators", "2"]))

    def test_explain_importance_loads_no_scipy(self, trained_artifacts, tmp_path):
        assert not scipy_modules(cli_modules([
            "explain", "importance", "--model", trained_artifacts["gbdt"],
            "--features", trained_artifacts["features"], "--repeats", "1",
            "--out", str(tmp_path / "out")]))


CSV_LINES = st.one_of(
    st.just(FEATURE_HEADER), st.just(FEATURE_ROW + ",spoof"), st.text(max_size=30),
    st.lists(st.sampled_from(["0.5", "-1e3", "nan", "", "spoof", "bonafide",
                              "maybe", '"', "# x"]), max_size=40).map(",".join))

# feature-CSV cells that are not plain float reprs: numbers in other
# spellings, cells only float() reads (underscores, Unicode digits and
# spaces), cells numpy's C parser alone would strip (\x1c-\x1f), quoted and
# multi-line cells, non-finite and malformed ones
ODD_CELLS = st.sampled_from([
    "-0.0", "5e-324", "2.2250738585072014e-308", "1e308", "1.7976931348623157e308",
    "1E-3", "+.5e+2", "-7.25e-07", "12", "nan", "-inf", "Infinity", "1e999", " 0.5 ",
    "\t2\t", '"0.5"', '"1e3"4', '"0.5\n"', '"0.\n5"', "1_0", "1_0.5_5", "1__0", "_1",
    "1_", "\u0661\u0662", "\u00a00.5", "0.5\u2003", "\u20081", "\x1c0.5", "0.5\x1f",
    "1\x1d", "0x10", "", ".", "x", '"', '0.5"x"', '""', "# 1", "1\x00"])
LABEL_CELLS = st.sampled_from(["bonafide", "spoof"] * 5 + [
    '"spoof"', '"bona"fide', "maybe", " spoof", "spoof ", "", "spoof\x1c", '"spo\nof"',
    "spoof\u00a0", "SPOOF", "spoof# x"])
ONE_IN_FOUR = st.sampled_from([True, False, False, False])
BLANK_LINES = st.sampled_from(["", "# spoofkit meta", "#"])
ODD_LINES = st.sampled_from(["   ", "\t", ",", '""', "\x1c", "\u2028", FEATURE_HEADER])


@st.composite
def feature_rows(draw):
    """A data row: float reprs, some cells swapped for ODD_CELLS, sometimes
    cut short, a label and sometimes extra columns."""
    cells = [repr(v) for v in draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                            min_size=dsp.N_FEATURES, max_size=dsp.N_FEATURES))]
    while draw(ONE_IN_FOUR):
        cells[draw(st.integers(0, dsp.N_FEATURES - 1))] = draw(ODD_CELLS)
    if draw(ONE_IN_FOUR) and draw(ONE_IN_FOUR):
        cells = cells[:draw(st.integers(0, dsp.N_FEATURES - 1))]
    else:
        cells.append(draw(LABEL_CELLS))
    cells += draw(st.lists(st.sampled_from(["x", "", "1_0", '"a,b"', "\u00e9"]), max_size=2))
    return ",".join(cells)


@st.composite
def feature_files(draw):
    """The bytes of a feature CSV: comment and blank lines, a header (now
    and then a wrong one), data rows, blank and odd lines, each ended by
    LF, CRLF or CR, and now and then a byte that is not UTF-8."""
    lines = draw(st.lists(BLANK_LINES, max_size=2))
    lines.append(draw(st.sampled_from([FEATURE_HEADER] * 3 + [
        FEATURE_HEADER + ",extra", FEATURE_HEADER.replace(",", ",\u00a0", 1),
        ",".join(dsp.FEATURE_NAMES[:-1])])))
    for _ in range(draw(st.integers(0, 6))):
        lines.append(draw(feature_rows() if not draw(ONE_IN_FOUR)
                          else ODD_LINES if draw(ONE_IN_FOUR) else BLANK_LINES))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    data = "".join(line + end for line, end in zip(lines, ends)).encode()
    if draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    if draw(ONE_IN_FOUR) and draw(ONE_IN_FOUR):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + data[at:]
    return data


def read_outcome(read, path):
    """What `read` makes of the feature CSV at `path`: its message if it
    raises a UsageError, else X's dtype, shape and bits and y."""
    try:
        X, y = read(path)
    except UsageError as exc:
        return str(exc)
    return X.dtype, X.shape, X.view(np.int64).tolist(), y.dtype, y.tolist()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def mutate(data, doc):
    """Replace or delete one entry at a random depth of a JSON document."""
    node = doc
    while True:
        key = data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        node = child
    if isinstance(node, dict) and data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(JSON_VALUES)
    return doc


# fmt chunk fields: format tag, channels, rate, byte rate, block align, bits
WAV_FMT = st.tuples(st.just(1) | st.integers(0, 0xFFFF),
                    st.integers(0, 4), st.integers(0, 2**32 - 1),
                    st.integers(0, 2**32 - 1), st.integers(0, 0xFFFF),
                    st.just(16) | st.integers(0, 0xFFFF))


@pytest.fixture(scope="module")
def model_docs():
    X = np.r_[np.zeros((4, 2)), np.ones((4, 2))]
    y = np.r_[np.zeros(4), np.ones(4)].astype(int)
    cfg = tr.TransformerConfig(d_model=4, n_layers=1, n_heads=2, d_ff=4,
                               geometry=tr.PatchGeometry(2, 2, 2, 2),
                               input_shape=(2, 4))
    return [(gbdt, gbdt.to_json(gbdt.train(X, y, gbdt.GbdtConfig(2, 2)))),
            (tr, tr.to_json(tr.TransformerModel(cfg, tr.init_params(cfg))))]


class TestFuzz:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(CSV_LINES, max_size=6))
    @example(lines=[FEATURE_HEADER, "nan," + FEATURE_ROW[len("0.5,"):] + ",spoof"])
    def test_read_features_csv_succeeds_or_raises_spoofkit_error(self, tmp_path, lines):
        path = tmp_path / "f.csv"
        path.write_text("\n".join(lines))
        try:
            X, y = cli.read_features_csv(str(path))
        except SpoofkitError:
            return
        assert X.shape == (len(y), dsp.N_FEATURES)
        assert np.isfinite(X).all()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=feature_files())
    @example(content=f"{FEATURE_HEADER}\n{FEATURE_ROW},spoof\n".encode())
    @example(content=f"{FEATURE_HEADER}\r\n1_0{FEATURE_ROW[3:]},spoof\r\n".encode())
    @example(content=f"{FEATURE_HEADER}\n\u0661{FEATURE_ROW[3:]},spoof\n".encode())
    @example(content=f"{FEATURE_HEADER}\n\x1c{FEATURE_ROW},spoof\n".encode())
    @example(content=f"{FEATURE_HEADER}\n{FEATURE_ROW},spoof\n  \n".encode())
    @example(content=f"# m\n{FEATURE_HEADER}\n\"{FEATURE_ROW}\n\",spoof\n".encode())
    @example(content=f"{FEATURE_HEADER}\n{FEATURE_ROW},spoof\n".encode() + b"\xff")
    def test_read_features_csv_matches_row_by_row_oracle(self, tmp_path, content):
        path = tmp_path / "f.csv"
        path.write_bytes(content)
        assert (read_outcome(cli.read_features_csv, str(path))
                == read_outcome(oracles.read_features_csv, str(path)))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_model_from_json_succeeds_or_raises_spoofkit_error(self, model_docs, data):
        for module, text in model_docs:
            for candidate in (json.dumps(mutate(data, json.loads(text))),
                              data.draw(st.text(max_size=20))):
                try:
                    model = module.from_json(candidate)
                    # a document that loads must also predict and explain
                    if module is gbdt:
                        gbdt.predict_proba(model, np.zeros((1, model.n_features)))
                        gbdt_explain.permutation_importance(
                            model, np.zeros((2, model.n_features)), np.array([0, 1]),
                            repeats=1)
                    else:
                        tr.forward(np.zeros(model.config.input_shape), model)
                except SpoofkitError:
                    pass

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(header=st.booleans(), body=st.binary(max_size=80))
    def test_load_manifest_succeeds_or_raises_spoofkit_error(self, tmp_path, header,
                                                             body):
        path = tmp_path / "m.csv"
        path.write_bytes(b"path,label,attack,split\n" * header + body)
        try:
            manifest = bench.load_manifest(path)
        except SpoofkitError:
            return
        assert manifest.entries

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fmt=st.none() | WAV_FMT,
           data_size=st.none() | st.integers(0, 64) | st.integers(0, 2**32 - 1),
           body=st.binary(max_size=40))
    # a data chunk that claims 4 bytes but ends after 3: half a sample
    @example(fmt=(1, 1, 16000, 32000, 2, 16), data_size=4, body=b"\0\0\0")
    def test_read_wav_succeeds_or_raises_spoofkit_error(self, tmp_path, fmt,
                                                        data_size, body):
        path = tmp_path / "clip.wav"
        if fmt is not None:  # RIFF/fmt header over random sample bytes
            size = len(body) if data_size is None else data_size
            chunks = (b"WAVE" + struct.pack("<4sIHHIIHH", b"fmt ", 16, *fmt)
                      + struct.pack("<4sI", b"data", size) + body)
            body = struct.pack("<4sI", b"RIFF", len(chunks)) + chunks
        path.write_bytes(body)
        try:
            samples, rate = dsp.read_wav(path)
        except SpoofkitError:
            return
        assert samples.ndim == 1 and samples.size > 0 and rate >= dsp.MIN_SAMPLE_RATE


# The flags each mode reads; any other flag is a usage error.
MODE_FLAGS = {
    ("train", "gbdt"): {"--features", "--out", "--n-estimators", "--max-depth",
                        "--learning-rate"},
    ("train", "transformer"): {"--manifest", "--out", "--duration", "--steps",
                               "--learning-rate", "--weight-decay", "--d-model",
                               "--n-layers", "--n-heads", "--d-ff", "--stride"},
    ("explain", "importance"): {"--model", "--features", "--out", "--repeats",
                                "--cluster-threshold", "--top-k"},
    ("explain", "occlusion"): {"--model", "--wav", "--out", "--box", "--stride",
                               "--fill"},
    ("explain", "rollout"): {"--model", "--wav", "--out", "--rollout"},
    ("bench", "generalize"): {"--train-manifest", "--eval-manifest", "--synth",
                              "--out", "--balance-n", "--models", "--n-estimators",
                              "--max-depth", "--steps", "--duration"},
    ("bench", "augment"): {"--manifest", "--synth", "--out", "--models",
                           "--augmentations", "--n-estimators", "--max-depth",
                           "--steps", "--duration"},
}



def foreign_flags():
    """(command, mode, flag) for each flag that another mode of the same
    command reads but this mode does not."""
    for (command, mode), flags in MODE_FLAGS.items():
        siblings = set().union(*(f for (c, _), f in MODE_FLAGS.items() if c == command))
        for flag in sorted(siblings - flags):
            yield command, mode, flag


# a value of the kind the mode that reads the flag takes
FLAG_VALUES = {
    "--manifest": ["m.csv"], "--train-manifest": ["m.csv"],
    "--eval-manifest": ["m.csv"], "--features": ["f.csv"], "--wav": ["c.wav"],
    "--steps": ["7"], "--d-model": ["99"], "--n-layers": ["1"], "--n-heads": ["1"],
    "--d-ff": ["8"], "--weight-decay": ["5"], "--duration": ["1.6"],
    "--n-estimators": ["3"], "--max-depth": ["2"], "--repeats": ["2"],
    "--cluster-threshold": ["0.5"], "--top-k": ["3"], "--box": ["2", "2"],
    "--fill": ["mean"], "--rollout": ["last"], "--balance-n": ["5"],
    "--augmentations": ["identity"],
}


def mode_argv(command, mode, out):
    """A command line of `mode` that passes every required flag."""
    required = {"gbdt": ["--features", "f.csv"],
                "transformer": ["--manifest", "m.csv"],
                "importance": ["--model", "g.json", "--features", "f.csv"],
                "occlusion": ["--model", "t.json", "--wav", "c.wav"],
                "rollout": ["--model", "t.json", "--wav", "c.wav"],
                "generalize": ["--train-manifest", "a.csv", "--eval-manifest", "b.csv"],
                "augment": ["--manifest", "m.csv"]}[mode]
    return [command, mode, *required, "--out", str(out)]


def mode_parsers():
    """{(command, mode): parser} of every mode parser."""
    def subparsers(parser):
        return next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    commands = subparsers(cli.build_parser())
    return {(c, m): p for c in ("train", "explain", "bench")
            for m, p in subparsers(commands[c]).items()}


class TestModeParsers:
    def test_each_mode_declares_exactly_the_flags_it_reads(self):
        declared = {key: {s for a in p._actions for s in a.option_strings
                          if s.startswith("--") and s != "--help"}
                    for key, p in mode_parsers().items()}
        assert declared == MODE_FLAGS
        assert sum(len(flags) for flags in declared.values()) == 51

    def test_34_foreign_flags(self):
        assert len(list(foreign_flags())) == 34

    @pytest.mark.parametrize("command,mode,flag", list(foreign_flags()),
                             ids=lambda v: v.lstrip("-"))
    def test_flag_of_another_mode_is_usage_error(self, tmp_path, capsys, command,
                                                 mode, flag):
        out = tmp_path / "out"
        value = {"train": ["3"], "explain": ["2", "2"]}[command] \
            if flag == "--stride" else FLAG_VALUES[flag]
        rc = cli.main(mode_argv(command, mode, out) + [flag, *value])
        assert rc == 2
        assert flag in one_error_line(capsys)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv,needle", [
        (["train", "gbdt", "--features", "f.csv"], "--out"),
        (["explain", "rollout", "--model", "t.json", "--out", "o"], "--wav"),
        (["explain", "occlusion", "--model", "t.json", "--wav", "c.wav",
          "--out", "o", "--fill", "noise"], "noise"),
        (["train", "forest", "--out", "o"], "forest"),
        (["explain"], "mode"),
        (["train", "gbdt", "--features", "f.csv", "--out", "o",
          "--n-estimators", "many"], "many"),
        ([], "command"),
    ], ids=["missing_out", "missing_wav", "bad_fill", "unknown_mode", "no_mode",
            "bad_int", "no_command"])
    def test_argparse_errors_are_one_line_exit_2(self, tmp_path, capsys,
                                                 monkeypatch, argv, needle):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        assert needle in one_error_line(capsys)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag,needle", [
        ("--box", "--box requires --stride"),
        ("--stride", "--stride requires --box"),
    ], ids=["box_alone", "stride_alone"])
    def test_box_without_stride_exit_2(self, tmp_path, capsys, flag, needle):
        out = tmp_path / "out"
        rc = cli.main(mode_argv("explain", "occlusion", out) + [flag, "2", "2"])
        assert rc == 2
        assert needle in one_error_line(capsys)
        assert not out.exists()


def parsed(argv):
    return cli.build_parser().parse_args(argv)


def record_factories(monkeypatch):
    """Swap the two detector factories for ones that record their
    arguments in the returned list and build a detector of no functions."""
    calls, idle = [], bench.Detector(None, None, None, 1)
    monkeypatch.setattr(bench, "gbdt_detector",
                        lambda cfg: calls.append(("gbdt", cfg)) or idle)
    monkeypatch.setattr(bench, "transformer_detector", lambda cfg, train_cfg:
                        calls.append(("transformer", cfg, train_cfg)) or idle)
    return calls


class TestParserDefaults:
    def test_train_gbdt_reads_gbdt_config(self):
        args, cfg = parsed(mode_argv("train", "gbdt", "o")), gbdt.GbdtConfig()
        assert (args.n_estimators, args.max_depth, args.learning_rate) == \
            (cfg.n_estimators, cfg.max_depth, cfg.learning_rate) == (400, 8, 0.1)

    def test_train_transformer_reads_transformer_configs(self):
        args = parsed(mode_argv("train", "transformer", "o"))
        cfg, tc, geometry = tr.TransformerConfig(), tr.TrainConfig(), tr.PatchGeometry()
        assert (args.steps, args.learning_rate, args.weight_decay) == \
            (tc.steps, tc.learning_rate, tc.weight_decay) == (500, 0.01, 0.0)
        assert (args.d_model, args.n_layers, args.n_heads, args.d_ff) == \
            (cfg.d_model, cfg.n_layers, cfg.n_heads, cfg.d_ff)
        assert args.stride == geometry.stride_h == geometry.stride_w == 16
        assert (geometry.patch_h, geometry.patch_w) == (16, 16)
        assert args.duration == bench.DEFAULT_CLIP_S

    @pytest.mark.parametrize("mode", ["generalize", "augment"])
    def test_bench_reads_study_defaults(self, mode, monkeypatch):
        args = parsed(mode_argv("bench", mode, "o"))
        assert (args.n_estimators, args.max_depth, args.steps) == (
            bench.STUDY_GBDT.n_estimators, bench.STUDY_GBDT.max_depth,
            bench.STUDY_TRAIN.steps) == (100, 3, 300)
        calls = record_factories(monkeypatch)
        assert list(cli._detectors(args)) == ["gbdt", "transformer"]
        assert calls == [("gbdt", bench.STUDY_GBDT),
                         ("transformer", tr.TransformerConfig(), bench.STUDY_TRAIN)]

    @pytest.mark.parametrize("names,calls", [
        (None, [("gbdt", gbdt.GbdtConfig(2, 5)),
                ("transformer", tr.TransformerConfig(seed=4), tr.TrainConfig(steps=9))]),
        ("transformer", [("transformer", tr.TransformerConfig(seed=4),
                          tr.TrainConfig(steps=9))]),
        ("gbdt", [("gbdt", gbdt.GbdtConfig(2, 5))]),
    ], ids=["all", "transformer", "gbdt"])
    def test_study_flags_reach_the_factories(self, monkeypatch, names, calls):
        args = parsed(["--seed", "4"] + mode_argv("bench", "augment", "o") + [
            "--steps", "9", "--n-estimators", "2", "--max-depth", "5"]
            + (["--models", names] if names else []))
        recorded = record_factories(monkeypatch)
        assert list(cli._detectors(args)) == [call[0] for call in calls]
        assert recorded == calls

    @pytest.mark.parametrize("names,keys", [
        ("gbdt", ["gbdt"]), ("transformer", ["transformer"]),
        ("gbdt,transformer", ["gbdt", "transformer"]),
        ("transformer,gbdt", ["gbdt", "transformer"]),
    ])
    def test_bench_detector_names(self, names, keys):
        detectors = cli._detectors(parsed(
            mode_argv("bench", "augment", "o") + ["--models", names]))
        assert list(detectors) == keys
        assert all(isinstance(d, bench.Detector) for d in detectors.values())

    @pytest.mark.parametrize("mode", ["generalize", "augment"])
    @pytest.mark.parametrize("names,unknown", [
        ("foo", "'foo'"), ("gbdt,tranformer", "'tranformer'"), (",", "'', ''"),
    ])
    def test_bench_unknown_model_exit_2(self, tmp_path, capsys, mode, names, unknown):
        out = tmp_path / "out"
        rc = cli.main(mode_argv("bench", mode, out) + ["--models", names])
        assert rc == 2
        assert f"--models: unknown {unknown};" in one_error_line(capsys)
        assert not out.exists()


# Command lines copied from perfbench/workloads.py (full and smoke sizes),
# tools/bench_layers.py and the README; each must parse to the mode it names.
KNOWN_CALLS = [
    ["--seed", "0", "train", "transformer", "--manifest", "inputs/clips.csv",
     "--out", "inputs/model.json", "--steps", "300", "--learning-rate", "0.01"],
    ["--seed", "1", "train", "transformer", "--manifest", "inputs/clips.csv",
     "--out", "inputs/model.json", "--steps", "5", "--learning-rate", "0.01"],
    ["--seed", "0", "bench", "augment", "--manifest", "inputs/corpus.csv",
     "--out", "out/augment"],
    ["--seed", "1", "bench", "augment", "--manifest", "inputs/corpus.csv",
     "--out", "out/augment", "--steps", "5", "--n-estimators", "3"],
    ["--seed", "0", "train", "gbdt", "--features", "inputs/train.csv",
     "--out", "out/train/gbdt.json", "--n-estimators", "5", "--max-depth", "8"],
    ["--seed", "1", "train", "gbdt", "--features", "inputs/train.csv",
     "--out", "out/train/gbdt.json", "--n-estimators", "2", "--max-depth", "8"],
    ["--seed", "0", "explain", "importance", "--model", "out/train/gbdt.json",
     "--features", "inputs/train.csv", "--out", "out/importance", "--repeats", "5"],
    ["--seed", "1", "explain", "importance", "--model", "out/train/gbdt.json",
     "--features", "inputs/train.csv", "--out", "out/importance", "--repeats", "1"],
    ["--seed", "0", "extract", "--manifest", "inputs/clips.csv",
     "--out-csv", "out/extract/features.csv"],
    ["--seed", "0", "explain", "occlusion", "--model", "inputs/model.json",
     "--wav", "inputs/eval_bonafide_000.wav", "--out",
     "out/eval_bonafide_000/occlusion"],
    ["--seed", "0", "explain", "rollout", "--model", "inputs/model.json",
     "--wav", "inputs/eval_bonafide_000.wav", "--out",
     "out/eval_bonafide_000/rollout"],
    ["train", "transformer", "--manifest", "clips.csv", "--out", "model.json",
     "--steps", "50", "--learning-rate", "0.01"],
    ["explain", "occlusion", "--model", "model.json", "--wav", "1_7.wav",
     "--out", "occlusion"],
    ["explain", "rollout", "--model", "model.json", "--wav", "1_7.wav",
     "--out", "rollout"],
    ["extract", "--manifest", "data/manifest.csv", "--out-csv", "features.csv"],
    ["train", "gbdt", "--features", "features.csv", "--out", "gbdt.json",
     "--n-estimators", "400", "--max-depth", "8"],
    ["train", "transformer", "--manifest", "data/manifest.csv", "--out", "tr.json",
     "--steps", "500", "--d-model", "16", "--n-layers", "2", "--n-heads", "2"],
    ["explain", "importance", "--model", "gbdt.json", "--features", "features.csv",
     "--out", "report/"],
    ["explain", "occlusion", "--model", "tr.json", "--wav", "clip.wav",
     "--out", "report/", "--box", "32", "4", "--stride", "16", "2",
     "--fill", "zero"],
    ["explain", "rollout", "--model", "tr.json", "--wav", "clip.wav",
     "--out", "report/", "--rollout", "plain"],
    ["bench", "generalize", "--synth", "corpus/", "--out", "report/",
     "--balance-n", "30"],
    ["bench", "augment", "--synth", "corpus/", "--out", "report/",
     "--augmentations", "identity,codec,rerecord"],
]


@pytest.mark.parametrize("argv", KNOWN_CALLS)
def test_known_call_parses_to_its_mode(argv):
    words = argv[2:] if argv[0] == "--seed" else argv
    args = parsed(argv)
    assert args.command == words[0]
    if words[0] == "extract":
        assert args.func is cli.cmd_extract
    else:
        assert args.mode == words[1]
        assert args.func is getattr(cli, f"cmd_{words[0]}_{words[1]}")
