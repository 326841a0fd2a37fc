import json
import os

import numpy as np
import pytest

from spoofkit import bench, cli, dsp, gbdt
from spoofkit.dsp import AudioBuffer


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
            dsp.write_wav(path, AudioBuffer(x, dsp.SAMPLE_RATE))
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


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_bench")
    bench.make_generalization_corpora(
        root / "gen", seed=0, n_train=6, n_eval=5, n_eval_b=5)
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

    def test_augment_synth_relative_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["bench", "augment", "--synth", "corp", "--out", "out",
                       "--models", "gbdt", "--augmentations", "identity",
                       "--n-estimators", "5", "--duration", "0.5"])
        assert rc == 0
        assert (tmp_path / "out" / "augmentation.json").exists()

    def test_generalize_missing_manifests_exit_2(self, tmp_path, capsys):
        rc = cli.main(["bench", "generalize", "--out", str(tmp_path)])
        assert rc == 2
        assert "--synth" in capsys.readouterr().err

    def test_augment_missing_manifest_exit_2(self, tmp_path):
        rc = cli.main(["bench", "augment", "--out", str(tmp_path)])
        assert rc == 2
