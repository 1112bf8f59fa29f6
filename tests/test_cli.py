import csv
import hashlib
import json
import os
import struct
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gazeflow.cli as cli
from gazeflow.cli import main
from gazeflow.detectors import BASELINE_DETECTORS, DetectorOutput, cnn_detect
from gazeflow.features import FrontendConfig, split_dataset, split_recordings
from gazeflow.gaze import CLASS_NAMES, GazeSequence, LabelClass, events_from_labels
from gazeflow.gaze_io import read_gaze_csv, read_manifest, read_predictions_csv, write_gaze_csv
from gazeflow.metrics import (
    confidence_accuracy,
    confusion,
    event_majority,
    frame_accuracy,
    one_vs_all_auc,
    prf_from_confusion,
)
from gazeflow.model_io import corpus_fingerprint, load_model, load_split, model_crc, save_model
from gazeflow.net import init_params, train
from gazeflow.simulate import StimulusConfig, generate_corpus, generate_sequence
from gazeflow.tuning import tune_baselines

TINY_CONFIG = """
[training]
phase1_epochs = 2
phase2_epochs = 2

[stimulus]
sequence_duration_s = 3.0
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def synth(tmp_path, tiny_config, n=4, seed=5, subdir="data"):
    out = tmp_path / subdir
    code = main(
        ["synth", "--config", tiny_config, "--out-dir", str(out), "--sequences", str(n), "--seed", str(seed)]
    )
    assert code == 0
    return out


class TestSynth:
    def test_deterministic_bytes(self, tmp_path, tiny_config):
        a = synth(tmp_path, tiny_config, subdir="a")
        b = synth(tmp_path, tiny_config, subdir="b")
        for pa in sorted(a.glob("*.csv")):
            pb = b / pa.name
            assert pa.read_bytes() == pb.read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_manifest_matches_rescan(self, tmp_path, tiny_config):
        out = synth(tmp_path, tiny_config)
        manifest = read_manifest(out / "manifest.json")
        from gazeflow.gaze import events_from_labels

        for entry in manifest["sequences"]:
            seq = read_gaze_csv(out / f"{entry['source_id'].replace('synth-', 'seq-')}.csv")
            frames = np.bincount(seq.labels, minlength=3)
            events = [0, 0, 0]
            for ev in events_from_labels(seq.labels):
                events[ev.label] += 1
            assert entry["frames"] == {
                "fixation": int(frames[0]), "saccade": int(frames[1]), "pursuit": int(frames[2])
            }
            assert entry["events"] == {
                "fixation": events[0], "saccade": events[1], "pursuit": events[2]
            }

    def test_zero_sequences_usage_error(self, tmp_path, tiny_config):
        code = main(["synth", "--config", tiny_config, "--out-dir", str(tmp_path / "x"), "--sequences", "0"])
        assert code == 2

    def test_env_seed_fallback(self, tmp_path, tiny_config, monkeypatch):
        monkeypatch.setenv("GAZEFLOW_SEED", "5")
        out_env = tmp_path / "env"
        assert main(["synth", "--config", tiny_config, "--out-dir", str(out_env), "--sequences", "2"]) == 0
        out_flag = tmp_path / "flag"
        assert main(
            ["synth", "--config", tiny_config, "--out-dir", str(out_flag), "--sequences", "2", "--seed", "5"]
        ) == 0
        for pa in sorted(out_env.glob("*.csv")):
            assert pa.read_bytes() == (out_flag / pa.name).read_bytes()


class TestTrainDetectEvalTrace:
    @pytest.fixture()
    def pipeline(self, tmp_path, tiny_config):
        data = synth(tmp_path, tiny_config, n=8, seed=5)  # the fewest a split by recording takes
        model = tmp_path / "model.gznn"
        code = main(
            ["train", "--data-dir", str(data), "--config", tiny_config, "--out", str(model), "--seed", "5"]
        )
        assert code == 0
        return data, model

    def test_train_outputs(self, pipeline, tiny_config):
        data, model = pipeline
        params = load_model(model)
        assert params.kernel_len == 10
        history = Path(str(model) + ".history.csv").read_text().strip().splitlines()
        assert len(history) == 1 + 4  # header + phase1(2) + phase2(2)

    def test_train_deterministic_crc(self, pipeline, tmp_path, tiny_config):
        data, model = pipeline
        model2 = tmp_path / "model2.gznn"
        assert main(
            ["train", "--data-dir", str(data), "--config", tiny_config, "--out", str(model2), "--seed", "5"]
        ) == 0
        assert model_crc(model) == model_crc(model2)

    def test_detect_and_row_count(self, pipeline, tmp_path, tiny_config):
        data, model = pipeline
        seq_file = sorted(data.glob("seq-*.csv"))[0]
        preds_file = tmp_path / "preds.csv"
        code = main(
            ["detect", "--model", str(model), "--in", str(seq_file), "--out", str(preds_file), "--config", tiny_config]
        )
        assert code == 0
        preds = read_predictions_csv(preds_file)
        seq = read_gaze_csv(seq_file)
        assert preds.n_samples == len(seq)
        assert preds.sample_idx.shape[0] == len(seq) - 29  # all windows valid

        from gazeflow.detectors import cnn_detect

        replay = cnn_detect(load_model(model), seq)
        assert np.array_equal(replay.sample_idx, preds.sample_idx)
        assert np.array_equal(replay.scores, preds.scores)

    def test_model_window_len_mismatch_exit2(self, pipeline, tmp_path, capsys):
        data, model = pipeline
        cfg = tmp_path / "w20.cfg"
        cfg.write_text("[frontend]\nwindow_len = 20\n")
        seq_file = sorted(data.glob("seq-*.csv"))[0]
        capsys.readouterr()
        code = main(["detect", "--model", str(model), "--in", str(seq_file), "--out", str(tmp_path / "p.csv"),
                     "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "30" in err[0] and "window_len is 20" in err[0]
        assert not (tmp_path / "p.csv").exists()
        code = main(["compare", "--data-dir", str(data), "--model", str(model), "--report-dir",
                     str(tmp_path / "cmp"), "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "30" in err[0] and "window_len is 20" in err[0]

    def test_detect_baseline(self, pipeline, tmp_path, tiny_config):
        data, _ = pipeline
        seq_file = sorted(data.glob("seq-*.csv"))[0]
        preds_file = tmp_path / "preds-ivt.csv"
        code = main(["detect", "--baseline", "ivt", "--in", str(seq_file), "--out", str(preds_file)])
        assert code == 0
        preds = read_predictions_csv(preds_file)
        assert preds.n_samples == len(read_gaze_csv(seq_file))

    def test_detect_rejects_corrupt_model(self, pipeline, tmp_path):
        data, model = pipeline
        bad = tmp_path / "bad.gznn"
        bad.write_bytes(model.read_bytes()[:40])
        seq_file = sorted(data.glob("seq-*.csv"))[0]
        code = main(["detect", "--model", str(bad), "--in", str(seq_file), "--out", str(tmp_path / "p.csv")])
        assert code == 4

    def test_eval_reports(self, pipeline, tmp_path, tiny_config, capsys):
        data, model = pipeline
        seq_file = sorted(data.glob("seq-*.csv"))[0]
        preds_file = tmp_path / "preds.csv"
        main(["detect", "--model", str(model), "--in", str(seq_file), "--out", str(preds_file)])
        report_dir = tmp_path / "report"
        code = main(
            ["eval", "--preds", str(preds_file), "--truth", str(seq_file), "--report-dir", str(report_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        last = out[-1]
        assert last.startswith("mean_auc=") and " macro_f1=" in last
        parts = dict(kv.split("=") for kv in last.split())
        float(parts["mean_auc"]), float(parts["macro_f1"])  # machine-parseable

        for name in (
            "confusion.csv",
            "prf.csv",
            "roc_fixation.csv",
            "roc_saccade.csv",
            "roc_pursuit.csv",
            "event_majority.csv",
            "confidence.csv",
            "summary.json",
        ):
            assert (report_dir / name).is_file()
        summary = json.loads((report_dir / "summary.json").read_text())
        assert float(parts["mean_auc"]) == summary["auc"]["mean"]

        # reports reproduce library-level metric calls on the same inputs
        preds = read_predictions_csv(preds_file)
        truth = read_gaze_csv(seq_file).labels
        assert summary["frame_accuracy"] == frame_accuracy(preds, truth)

    def test_eval_perfect_predictions(self, pipeline, tmp_path):
        data, _ = pipeline
        seq_file = sorted(data.glob("seq-*.csv"))[0]
        seq = read_gaze_csv(seq_file)
        from gazeflow.detectors import DetectorOutput
        from gazeflow.gaze_io import write_predictions_csv

        n = len(seq)
        scores = np.full((n, 3), 0.05)
        scores[np.arange(n), seq.labels] = 0.9
        preds = DetectorOutput(n, np.arange(n), scores, seq.labels.astype(np.int64))
        preds_file = tmp_path / "perfect.csv"
        write_predictions_csv(preds, preds_file)
        report_dir = tmp_path / "perfect-report"
        assert main(
            ["eval", "--preds", str(preds_file), "--truth", str(seq_file), "--report-dir", str(report_dir)]
        ) == 0
        summary = json.loads((report_dir / "summary.json").read_text())
        assert summary["auc"]["mean"] == 1.0
        assert summary["macro"]["f1"] == 1.0

    def test_eval_missing_class_exit4_names_it(self, pipeline, tmp_path, capsys):
        data, model = pipeline
        seq_file = sorted(data.glob("seq-*.csv"))[0]
        seq = read_gaze_csv(seq_file)
        from gazeflow.gaze import GazeSequence
        from gazeflow.gaze_io import write_gaze_csv

        # rewrite the truth with all pursuit labels collapsed to fixation
        labels = seq.labels.copy()
        labels[labels == 2] = 0
        degenerate = GazeSequence(seq.t_ms, seq.x_deg, seq.y_deg, seq.valid, labels, "degen")
        truth_file = tmp_path / "degen.csv"
        write_gaze_csv(degenerate, truth_file)
        preds_file = tmp_path / "preds.csv"
        main(["detect", "--model", str(model), "--in", str(seq_file), "--out", str(preds_file)])
        code = main(
            ["eval", "--preds", str(preds_file), "--truth", str(truth_file), "--report-dir", str(tmp_path / "r")]
        )
        assert code == 4
        assert "pursuit" in capsys.readouterr().err

    def test_eval_length_mismatch_exit4(self, pipeline, tmp_path):
        data, model = pipeline
        files = sorted(data.glob("seq-*.csv"))
        preds_file = tmp_path / "preds.csv"
        main(["detect", "--model", str(model), "--in", str(files[0]), "--out", str(preds_file)])
        # truncate the truth file by rewriting fewer rows
        seq = read_gaze_csv(files[0])
        from dataclasses import replace
        from gazeflow.gaze import GazeSequence
        from gazeflow.gaze_io import write_gaze_csv

        short = GazeSequence(
            seq.t_ms[:-5], seq.x_deg[:-5], seq.y_deg[:-5], seq.valid[:-5],
            seq.labels[:-5], "short"
        )
        truth_file = tmp_path / "short.csv"
        write_gaze_csv(short, truth_file)
        code = main(
            ["eval", "--preds", str(preds_file), "--truth", str(truth_file), "--report-dir", str(tmp_path / "r")]
        )
        assert code == 4

    def test_trace(self, pipeline, tmp_path, tiny_config):
        data, model = pipeline
        seq_file = sorted(data.glob("seq-*.csv"))[0]
        preds_file = tmp_path / "preds.csv"
        main(["detect", "--model", str(model), "--in", str(seq_file), "--out", str(preds_file)])
        trace_file = tmp_path / "trace.csv"
        code = main(["trace", "--preds", str(preds_file), "--in", str(seq_file), "--out", str(trace_file)])
        assert code == 0
        lines = trace_file.read_text().strip().splitlines()
        assert lines[0] == "t_ms,x_deg,y_deg,p_fix,p_sac,p_pur,truth,pred"
        assert len(lines) == len(read_gaze_csv(seq_file)) + 1
        # spot-check the join against the predictions file
        preds = read_predictions_csv(preds_file)
        by_idx = dict(zip(preds.sample_idx.tolist(), range(len(preds.sample_idx))))
        for row_i in (20, 100, 400):
            parts = lines[1 + row_i].split(",")
            if row_i in by_idx:
                k = by_idx[row_i]
                assert float(parts[3]) == preds.scores[k, 0]
                assert int(parts[7]) == preds.labels[k]
            else:
                assert parts[3] == "" and parts[7] == ""

    def test_trace_misalignment_exit4(self, pipeline, tmp_path):
        data, model = pipeline
        files = sorted(data.glob("seq-*.csv"))
        preds_file = tmp_path / "preds.csv"
        main(["detect", "--model", str(model), "--in", str(files[0]), "--out", str(preds_file)])
        other = read_gaze_csv(files[1])
        if len(other) == len(read_gaze_csv(files[0])):
            from gazeflow.gaze import GazeSequence
            from gazeflow.gaze_io import write_gaze_csv

            other = GazeSequence(
                other.t_ms[:-3], other.x_deg[:-3], other.y_deg[:-3], other.valid[:-3],
                None if other.labels is None else other.labels[:-3], "cut"
            )
            cut = tmp_path / "cut.csv"
            write_gaze_csv(other, cut)
            files = [files[0], cut]
        code = main(["trace", "--preds", str(preds_file), "--in", str(files[1]), "--out", str(tmp_path / "t.csv")])
        assert code == 4


class TestDataErrors:
    def test_train_empty_dir_exit3(self, tmp_path, tiny_config):
        empty = tmp_path / "none"
        empty.mkdir()
        code = main(["train", "--data-dir", str(empty), "--config", tiny_config, "--out", str(tmp_path / "m.gznn")])
        assert code == 3

    def test_train_unlabeled_exit3(self, tmp_path, tiny_config):
        data = tmp_path / "unlabeled"
        data.mkdir()
        from gazeflow.gaze import GazeSequence
        from gazeflow.gaze_io import write_gaze_csv

        seq = GazeSequence(
            np.arange(100.0), np.zeros(100), np.zeros(100), np.ones(100, bool), None
        )
        write_gaze_csv(seq, data / "seq-0000.csv")
        code = main(["train", "--data-dir", str(data), "--config", tiny_config, "--out", str(tmp_path / "m.gznn")])
        assert code == 3

    def test_train_divergence_exit3_writes_no_model(self, tmp_path, tiny_config, capsys):
        data = synth(tmp_path, tiny_config, n=8, seed=5)
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(TINY_CONFIG.replace("[training]", "[training]\nphase1_alpha = 1e300"))
        model = tmp_path / "m.gznn"
        capsys.readouterr()
        code = main(["train", "--data-dir", str(data), "--config", str(cfg), "--out", str(model), "--seed", "5"])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "diverged" in err[0] and "phase 1, epoch 0, batch" in err[0]
        assert not model.exists()
        assert not Path(f"{model}.history.csv").exists()

    def test_network_geometry_rejected_exit2(self, tmp_path, tiny_config, capsys):
        data = synth(tmp_path, tiny_config, n=4, seed=5)
        cfg = tmp_path / "k30.cfg"
        cfg.write_text(TINY_CONFIG + "\n[network]\nkernel_len = 30\n")
        capsys.readouterr()
        code = main(["train", "--data-dir", str(data), "--config", str(cfg), "--out", str(tmp_path / "m.gznn")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "kernel_len = 30" in err[0] and "window_len = 30" in err[0]
        assert not (tmp_path / "m.gznn").exists()

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("detect", "baselines", "velocity_threshold_deg_s", "nan"),
            ("synth", "stimulus", "noise_sigma_deg", "inf"),
            ("train", "training", "phase1_alpha", "nan"),
        ],
    )
    def test_non_finite_config_value_exit2(self, tmp_path, tiny_config, capsys, command, section, key, value):
        data = synth(tmp_path, tiny_config, n=4, seed=5)
        cfg = tmp_path / "non_finite.cfg"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        argv = {
            "detect": ["detect", "--baseline", "ivt", "--in", str(data / "seq-0000.csv"), "--out", str(tmp_path / "p.csv")],
            "synth": ["synth", "--out-dir", str(tmp_path / "o"), "--sequences", "1"],
            "train": ["train", "--data-dir", str(data), "--out", str(tmp_path / "m.gznn")],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--config", str(cfg)]) == 2
        assert f"[{section}] {key}" in one_error_line(capsys)

    @pytest.mark.parametrize("command", ["synth", "train", "compare", "GAZEFLOW_SEED"])
    def test_negative_seed_exit2(self, tmp_path, tiny_config, capsys, monkeypatch, command):
        data = synth(tmp_path, tiny_config, n=3, seed=5)
        model = tmp_path / "init.gznn"
        save_model(init_params(0), model)
        outputs = (tmp_path / "o", tmp_path / "m.gznn", tmp_path / "r")
        argv = {
            "synth": ["synth", "--out-dir", str(outputs[0]), "--sequences", "1", "--seed", "-1"],
            "train": ["train", "--data-dir", str(data), "--out", str(outputs[1]), "--seed", "-2"],
            "compare": ["compare", "--data-dir", str(data), "--model", str(model), "--report-dir", str(outputs[2]), "--seed", "-1"],
            "GAZEFLOW_SEED": ["synth", "--out-dir", str(outputs[0]), "--sequences", "1"],
        }[command]
        if command == "GAZEFLOW_SEED":
            monkeypatch.setenv("GAZEFLOW_SEED", "-3")
        capsys.readouterr()
        assert main([*argv, "--config", tiny_config]) == 2
        line = one_error_line(capsys)
        assert ("GAZEFLOW_SEED" if command == "GAZEFLOW_SEED" else "--seed") in line and "non-negative" in line
        assert not any(p.exists() for p in outputs)

    @pytest.mark.parametrize("duration", ["0", "-5"])
    def test_non_positive_duration_exit2(self, tmp_path, capsys, duration):
        cfg = tmp_path / "duration.cfg"
        cfg.write_text(f"[stimulus]\nsequence_duration_s = {duration}\n")
        capsys.readouterr()
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o"), "--sequences", "1"]) == 2
        assert "sequence_duration_s must be positive" in one_error_line(capsys)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["rate_hz", "sequence_duration_s"])
    def test_samples_per_sequence_overflow_exit2(self, tmp_path, capsys, key):
        # finite on its own, the key's product with the other overflows to inf
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"[stimulus]\n{key} = 1e308\n")
        capsys.readouterr()
        assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o"), "--sequences", "1"]) == 2
        line = one_error_line(capsys)
        assert "rate_hz" in line and "sequence_duration_s" in line and "finite" in line
        assert not (tmp_path / "o").exists()

    def test_angle_threshold_above_pi_exit2(self, tmp_path, tiny_config, capsys):
        data = synth(tmp_path, tiny_config, n=1, seed=5)
        cfg = tmp_path / "angle.cfg"
        cfg.write_text("[baselines]\nangle_threshold_rad = 3.2\n")
        capsys.readouterr()
        code = main(["detect", "--baseline", "ivmp", "--in", str(data / "seq-0000.csv"),
                     "--out", str(tmp_path / "p.csv"), "--config", str(cfg)])
        assert code == 2
        assert "angle_threshold_rad must be at most pi" in one_error_line(capsys)
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("command", ["detect", "compare"])
    def test_baseline_window_len_2_exit2(self, tmp_path, tiny_config, capsys, command):
        # the last 2-sample window centres on the last sample, which has no velocity
        data = synth(tmp_path, tiny_config, n=3, seed=5)
        model = tmp_path / "init.gznn"
        save_model(init_params(0), model)
        cfg = tmp_path / "w2.cfg"
        cfg.write_text("[baselines]\nwindow_len = 2\n")
        argv = {
            "detect": ["detect", "--baseline", "ivt-idt", "--in", str(data / "seq-0000.csv"), "--out", str(tmp_path / "p.csv")],
            "compare": ["compare", "--data-dir", str(data), "--model", str(model), "--report-dir", str(tmp_path / "r")],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--config", str(cfg)]) == 2
        assert "window_len must be >= 3" in one_error_line(capsys)
        assert not (tmp_path / "p.csv").exists() and not (tmp_path / "r").exists()

    def test_window_split_level_exit2(self, tmp_path, tiny_config, capsys):
        data = synth(tmp_path, tiny_config, n=8, seed=5)
        cfg = tmp_path / "window.cfg"
        cfg.write_text(TINY_CONFIG.replace("[training]", "[training]\nsplit_level = window"))
        capsys.readouterr()
        code = main(["train", "--data-dir", str(data), "--config", str(cfg), "--out", str(tmp_path / "m.gznn")])
        assert code == 2
        assert "split_level = window: the window split was removed" in one_error_line(capsys)
        assert not (tmp_path / "m.gznn").exists()

    def test_train_and_compare_reject_seven_recordings_with_one_line(self, tmp_path, tiny_config, capsys):
        # eight recordings, one without a window: too few for a validation and a test recording
        data = synth(tmp_path, tiny_config, n=8, seed=5)
        dead = read_gaze_csv(data / "seq-0003.csv")
        write_gaze_csv(replace(dead, valid=np.zeros(len(dead), bool)), data / "seq-0003.csv")
        model = tmp_path / "init.gznn"
        save_model(init_params(0), model)
        argv = {
            "train": ["train", "--data-dir", str(data), "--out", str(tmp_path / "m.gznn")],
            "compare": ["compare", "--data-dir", str(data), "--model", str(model), "--report-dir", str(tmp_path / "r")],
        }
        lines = set()
        for command in ("train", "compare"):
            capsys.readouterr()
            assert main([*argv[command], "--config", tiny_config]) == 3
            lines.add(one_error_line(capsys))
        assert lines == {"data error: a split by recording needs at least 8 recordings that keep a window, got 7"}
        assert not (tmp_path / "m.gznn").exists() and not (tmp_path / "r").exists()

    def test_unknown_config_key_exit2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[training]\nwarp_speed = 9\n")
        code = main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o"), "--sequences", "1"])
        assert code == 2


class TestCompare:
    def test_compare_tiny(self, tmp_path, tiny_config, capsys):
        data = synth(tmp_path, tiny_config, n=8, seed=6)
        model = tmp_path / "model.gznn"
        cfg2 = tmp_path / "seq.cfg"
        cfg2.write_text(TINY_CONFIG.replace("phase1_epochs = 2", "split_level = sequence\nphase1_epochs = 2"))
        assert main(
            ["train", "--data-dir", str(data), "--config", str(cfg2), "--out", str(model), "--seed", "6"]
        ) == 0
        report_dir = tmp_path / "cmp"
        code = main(
            ["compare", "--data-dir", str(data), "--model", str(model), "--report-dir", str(report_dir), "--seed", "6"]
        )
        assert code == 0
        lines = (report_dir / "comparison.csv").read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 detectors
        names = [l.split(",")[0] for l in lines[1:]]
        assert set(names) == {"cnn", "ivt", "ivt-idt", "ivmp", "pca"}
        out = capsys.readouterr().out
        assert "ranking=" in out
        # mean_auc column sorted descending
        aucs = [float(l.split(",")[4]) for l in lines[1:]]
        assert aucs == sorted(aucs, reverse=True)
        tuned = json.loads((report_dir / "tuned_thresholds.json").read_text())
        assert list(tuned) == ["ivt", "ivt-idt", "ivmp", "pca"]
        for c in tuned.values():
            assert list(c) == [
                "velocity_threshold_deg_s", "dispersion_threshold_deg", "angle_threshold_rad",
                "pca_ratio_threshold", "window_len",
            ]

    def test_compare_deterministic(self, tmp_path, tiny_config):
        data = synth(tmp_path, tiny_config, n=8, seed=6)
        model = tmp_path / "model.gznn"
        main(["train", "--data-dir", str(data), "--config", tiny_config, "--out", str(model), "--seed", "6"])
        r1, r2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["compare", "--data-dir", str(data), "--model", str(model), "--report-dir", str(r1), "--seed", "6"]) == 0
        assert main(["compare", "--data-dir", str(data), "--model", str(model), "--report-dir", str(r2), "--seed", "6"]) == 0
        assert (r1 / "comparison.csv").read_bytes() == (r2 / "comparison.csv").read_bytes()

    def test_compare_tests_on_no_training_recording(self, tmp_path, tiny_config, monkeypatch):
        # recording 2 yields no window, so a by-sequence train splits the
        # other eight; with seed 5 a split of all nine recordings would put
        # a training recording into compare's test part
        data = synth(tmp_path, tiny_config, n=9, seed=5)
        paths = sorted(data.glob("*.csv"))
        dead = read_gaze_csv(paths[2])
        write_gaze_csv(replace(dead, valid=np.zeros(len(dead), bool)), paths[2])
        cfg = tmp_path / "seq.cfg"
        cfg.write_text(TINY_CONFIG.replace("phase1_epochs = 2", "split_level = sequence\nphase1_epochs = 2"))

        trained, tested = set(), set()

        def spy_split(seqs, *args, **kwargs):
            split = split_dataset(seqs, *args, **kwargs)
            trained.update(paths[g].stem for g in np.unique(split.train.groups))
            return split

        def spy_cnn_detect(model, seq, *args, **kwargs):
            tested.add(seq.source_id)
            return cnn_detect(model, seq, *args, **kwargs)

        monkeypatch.setattr(cli, "split_dataset", spy_split)
        monkeypatch.setattr(cli, "cnn_detect", spy_cnn_detect)
        model = tmp_path / "model.gznn"
        assert main(
            ["train", "--data-dir", str(data), "--config", str(cfg), "--out", str(model), "--seed", "5"]
        ) == 0
        assert main(
            ["compare", "--data-dir", str(data), "--model", str(model), "--config", str(cfg),
             "--report-dir", str(tmp_path / "cmp"), "--seed", "5"]
        ) == 0
        assert len(trained) == 6 and len(tested) == 1
        assert not tested & trained
        assert paths[2].stem not in trained | tested

    def test_default_train_then_compare_scores_no_training_recording(self, tmp_path, tiny_config, monkeypatch):
        # train and compare without --config; one training epoch keeps it short
        data = synth(tmp_path, tiny_config, n=9, seed=5)
        trained, tested = set(), set()

        def spy_split(seqs, *args, **kwargs):
            split = split_dataset(seqs, *args, **kwargs)
            trained.update(seqs[g].source_id for g in np.unique(split.train.groups))
            return split

        def spy_cnn_detect(model, seq, *args, **kwargs):
            tested.add(seq.source_id)
            return cnn_detect(model, seq, *args, **kwargs)

        def one_epoch(split, config):
            phases = {"phase1": replace(config.phase1, epochs=1), "phase2": replace(config.phase2, epochs=0)}
            return train(split, replace(config, **phases))

        monkeypatch.setattr(cli, "split_dataset", spy_split)
        monkeypatch.setattr(cli, "cnn_detect", spy_cnn_detect)
        monkeypatch.setattr(cli, "train", one_epoch)
        model = tmp_path / "model.gznn"
        assert main(["train", "--data-dir", str(data), "--out", str(model), "--seed", "5"]) == 0
        assert main(["compare", "--data-dir", str(data), "--model", str(model),
                     "--report-dir", str(tmp_path / "cmp"), "--seed", "5"]) == 0
        assert len(trained) == 7 and len(tested) == 1
        assert not tested & trained

    def test_compare_missing_model_exit4(self, tmp_path, tiny_config):
        data = synth(tmp_path, tiny_config, n=3, seed=7)
        code = main(
            ["compare", "--data-dir", str(data), "--model", str(tmp_path / "no.gznn"), "--report-dir", str(tmp_path / "r")]
        )
        assert code in (3, 4)  # unreadable model file


MODEL_V1 = Path(__file__).resolve().parent / "data" / "model_v1.gznn"  # init_params(1234), format 1


def counted_reads(monkeypatch) -> list:
    """Record the path of every read_gaze_csv call the CLI makes."""
    reads = []

    def spy(path):
        reads.append(Path(path).name)
        return read_gaze_csv(path)

    monkeypatch.setattr(cli, "read_gaze_csv", spy)
    return reads


class TestStoredSplit:
    """compare scores the split train stored in the model, and only on the corpus and seed it was made from."""

    @pytest.fixture()
    def trained(self, tmp_path, tiny_config, monkeypatch):
        monkeypatch.delenv("GAZEFLOW_SEED", raising=False)
        data = synth(tmp_path, tiny_config, n=9, seed=6)
        model = tmp_path / "model.gznn"
        assert main(["train", "--data-dir", str(data), "--config", tiny_config, "--out", str(model), "--seed", "6"]) == 0
        return data, model

    def compare(self, data, model, report, *extra):
        return main(["compare", "--data-dir", str(data), "--model", str(model), "--report-dir", str(report), *extra])

    def test_train_stores_the_split_it_trained_with(self, trained):
        data, model = trained
        files = sorted(data.glob("*.csv"))
        part, _ = split_recordings([read_gaze_csv(p) for p in files], FrontendConfig(), 6)
        split = load_split(model)
        assert split.seed == 6 and (split.n_files, split.corpus_crc) == corpus_fingerprint(files)
        assert split.validation == tuple(p.name for p, k in zip(files, part) if k == 1)
        assert split.test == tuple(p.name for p, k in zip(files, part) if k == 2)
        assert len(split.validation) == len(split.test) == 1

    def test_stored_split_reports_equal_the_derived_split(self, trained, tmp_path, monkeypatch):
        data, model = trained
        bare = tmp_path / "bare.gznn"
        save_model(load_model(model), bare)  # the same weights, saved without a split
        reads = counted_reads(monkeypatch)
        assert self.compare(data, model, tmp_path / "stored", "--seed", "6") == 0
        stored_reads, reads[:] = list(reads), []
        assert self.compare(data, bare, tmp_path / "derived", "--seed", "6") == 0
        assert len(stored_reads) == 2 and len(reads) == 9
        assert self.compare(data, model, tmp_path / "no-seed") == 0  # the stored seed
        for name in ("comparison.csv", "tuned_thresholds.json"):
            derived = (tmp_path / "derived" / name).read_bytes()
            assert (tmp_path / "stored" / name).read_bytes() == derived
            assert (tmp_path / "no-seed" / name).read_bytes() == derived

    @pytest.mark.parametrize("source", ["--seed", "GAZEFLOW_SEED"])
    def test_other_seed_exit2(self, trained, tmp_path, capsys, monkeypatch, source):
        data, model = trained
        reads = counted_reads(monkeypatch)
        if source == "GAZEFLOW_SEED":
            monkeypatch.setenv("GAZEFLOW_SEED", "5")
            extra = []
        else:
            extra = ["--seed", "5"]
        capsys.readouterr()
        assert self.compare(data, model, tmp_path / "r", *extra) == 2
        line = one_error_line(capsys)
        assert f"{source} 5 differs from the split seed 6" in line and str(model) in line
        assert not (tmp_path / "r").exists() and reads == []

    def test_seed_flag_outranks_the_environment(self, trained, tmp_path, capsys, monkeypatch):
        data, model = trained
        monkeypatch.setenv("GAZEFLOW_SEED", "6")
        capsys.readouterr()
        assert self.compare(data, model, tmp_path / "r", "--seed", "5") == 2
        assert "--seed 5 differs from the split seed 6" in one_error_line(capsys)
        monkeypatch.setenv("GAZEFLOW_SEED", "5")
        assert self.compare(data, model, tmp_path / "r", "--seed", "6") == 0

    def test_corpus_fingerprint_is_of_the_recordings_train_read(self, tmp_path, capsys, monkeypatch):
        # a test recording overwritten with a training one while train runs:
        # the stored fingerprint is of the corpus before, so compare refuses it
        data = tmp_path / "data"
        data.mkdir()
        for k, trace in enumerate(generate_corpus(StimulusConfig(seed=4, sequence_duration_s=2.0), 8)):
            write_gaze_csv(trace.sequence, data / f"seq-{k:04d}.csv")
        before = corpus_fingerprint(sorted(data.glob("*.csv")))
        cfg = tmp_path / "one-epoch.cfg"
        cfg.write_text("[training]\nphase1_epochs = 1\nphase2_epochs = 0\n")

        def train_then_overwrite(split, config):
            result = train(split, config)
            (data / "seq-0007.csv").write_bytes((data / "seq-0000.csv").read_bytes())
            return result

        monkeypatch.setattr(cli, "train", train_then_overwrite)
        model = tmp_path / "model.gznn"
        assert main(["train", "--data-dir", str(data), "--config", str(cfg), "--out", str(model), "--seed", "3"]) == 0
        split = load_split(model)
        assert split.test == ("seq-0007.csv",) and "seq-0000.csv" not in split.validation
        assert (split.n_files, split.corpus_crc) == before
        capsys.readouterr()
        assert self.compare(data, model, tmp_path / "r", "--seed", "3") == 2
        assert "not the corpus" in one_error_line(capsys)
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("change", ["byte", "added", "removed"])
    def test_other_corpus_exit2(self, trained, tmp_path, capsys, monkeypatch, change):
        data, model = trained
        split = load_split(model)
        training = [p for p in sorted(data.glob("*.csv")) if p.name not in split.validation + split.test]
        if change == "byte":  # one digit of one coordinate of a training recording
            blob = bytearray(training[0].read_bytes())
            i = blob.index(b".", blob.index(b"\n")) + 1
            blob[i] = ord("1") if blob[i] != ord("1") else ord("2")
            training[0].write_bytes(bytes(blob))
            read_gaze_csv(training[0])  # still a valid recording
        elif change == "added":
            (data / "seq-9999.csv").write_bytes(training[0].read_bytes())
        else:
            training[-1].unlink()
        reads = counted_reads(monkeypatch)
        capsys.readouterr()
        assert self.compare(data, model, tmp_path / "r", "--seed", "6") == 2
        line = one_error_line(capsys)
        assert str(data) in line and "not the corpus" in line
        assert not (tmp_path / "r").exists() and reads == []

    def test_split_naming_a_missing_recording_exit2(self, trained, tmp_path, capsys):
        # a split record rewritten with its checksum: the fingerprint matches, a name does not
        data, model = trained
        body = model.read_bytes()[: 32 + 8 * init_params(0).vector.size + 4]
        record = json.loads(model.read_bytes()[len(body) + 4 : -4])
        record["validation"] = ["seq-9999.csv"]
        text = json.dumps(record).encode()
        model.write_bytes(body + struct.pack("<I", len(text)) + text + struct.pack("<I", zlib.crc32(text)))
        capsys.readouterr()
        assert self.compare(data, model, tmp_path / "r") == 2
        assert "not the corpus" in one_error_line(capsys)
        assert not (tmp_path / "r").exists()


class TestFormat1Model:
    """A committed format 1 model still loads, labels and compares."""

    def test_detect_writes_the_format1_bytes(self, tmp_path):
        seq = generate_sequence(StimulusConfig(sequence_duration_s=2.0, seed=2), 0).sequence
        write_gaze_csv(seq, tmp_path / "g.csv")
        assert main(["detect", "--model", str(MODEL_V1), "--in", str(tmp_path / "g.csv"), "--out", str(tmp_path / "p.csv")]) == 0
        # sha256 written by the format 1 reader
        assert hashlib.sha256((tmp_path / "p.csv").read_bytes()).hexdigest() == (
            "f2a6ab1f874388d757806ad5213a1f1581a8857274c73675034c7da9a5a92222"
        )

    def test_compare_derives_the_split_from_the_seed(self, tmp_path, tiny_config, capsys, monkeypatch):
        data = synth(tmp_path, tiny_config, n=8, seed=6)
        reads = counted_reads(monkeypatch)
        tuned = []

        def spy_tune(seqs, **kwargs):
            tuned.extend(s.source_id for s in seqs)
            return tune_baselines(seqs, **kwargs)

        monkeypatch.setattr(cli, "tune_baselines", spy_tune)
        capsys.readouterr()
        assert main(["compare", "--data-dir", str(data), "--model", str(MODEL_V1), "--report-dir",
                     str(tmp_path / "r"), "--seed", "6"]) == 0
        assert capsys.readouterr().err == ""
        assert len(reads) == 8  # every recording, to derive the split
        files = sorted(data.glob("*.csv"))
        part, _ = split_recordings([read_gaze_csv(p) for p in files], FrontendConfig(), 6)
        assert tuned == [p.stem for p, k in zip(files, part) if k == 1]
        assert (tmp_path / "r" / "comparison.csv").exists()


class TestBaselineRepairGap:
    """The baselines repair gaps up to [frontend] interp_max_gap, as the frontend does."""

    DROPOUT = 100

    def recording(self, tmp_path):
        seq = generate_sequence(StimulusConfig(seed=3, sequence_duration_s=1.0), 0).sequence
        valid = seq.valid.copy()
        valid[self.DROPOUT] = False
        path = tmp_path / "dropout.csv"
        write_gaze_csv(replace(seq, x_deg=np.where(valid, seq.x_deg, np.nan), valid=valid), path)
        return path

    @pytest.mark.parametrize("baseline", ["ivt", "ivt-idt", "ivmp", "pca"])
    def test_no_repair_uncovers_the_windows_around_a_dropout(self, tmp_path, baseline):
        rec = self.recording(tmp_path)
        no_repair = tmp_path / "gap0.cfg"
        no_repair.write_text("[frontend]\ninterp_max_gap = 0\n")
        covered = {}
        for name, extra in (("default", []), ("gap0", ["--config", str(no_repair)])):
            out = tmp_path / f"{name}.csv"
            assert main(["detect", "--baseline", baseline, "--in", str(rec), "--out", str(out), *extra]) == 0
            covered[name] = set(read_predictions_csv(out).sample_idx.tolist())
        # the centres of the windows that hold the dropout: ivt's window is
        # [c - 1, c + 1], a cascade's [c - 15, c + 14]
        d = self.DROPOUT
        around = set(range(d - 1, d + 2)) if baseline == "ivt" else set(range(d - 14, d + 16))
        assert around <= covered["default"]
        assert not around & covered["gap0"]
        assert covered["gap0"] == covered["default"] - around

    def test_compare_tunes_and_detects_with_the_frontend_gap(self, tmp_path, tiny_config, monkeypatch):
        data = synth(tmp_path, tiny_config, n=8, seed=6)
        model = tmp_path / "init.gznn"
        save_model(init_params(0), model)
        cfg = tmp_path / "gap1.cfg"
        cfg.write_text("[frontend]\ninterp_max_gap = 1\n")
        gaps = []

        def spy_tune(*args, max_gap, **kwargs):
            gaps.append(("tune", max_gap))
            return tune_baselines(*args, max_gap=max_gap, **kwargs)

        def spy(name):
            def detect(seq, config, max_gap):
                gaps.append((name, max_gap))
                return BASELINE_DETECTORS[name](seq, config, max_gap)
            return detect

        monkeypatch.setattr(cli, "tune_baselines", spy_tune)
        monkeypatch.setattr(cli, "BASELINE_DETECTORS", {name: spy(name) for name in BASELINE_DETECTORS})
        assert main(["compare", "--data-dir", str(data), "--model", str(model), "--config", str(cfg),
                     "--report-dir", str(tmp_path / "cmp"), "--seed", "6"]) == 0
        assert ("tune", 1) in gaps and {name for name, _ in gaps} == {"tune", *BASELINE_DETECTORS}
        assert {gap for _, gap in gaps} == {1}


def test_ivt_velocity_overflow_exit3(tmp_path, capsys):
    # a jump of 2 * 1.6e308 degrees between neighbours overflows to an infinite speed
    x = np.tile([-1.6e308, 0.0, 1.6e308, 0.0], 10)
    seq = GazeSequence(np.arange(x.size) * 5.0, x, np.zeros(x.size), np.ones(x.size, bool))
    write_gaze_csv(seq, tmp_path / "huge.csv")
    code = main(["detect", "--baseline", "ivt", "--in", str(tmp_path / "huge.csv"), "--out", str(tmp_path / "p.csv")])
    assert code == 3
    assert "scores must be finite" in capsys.readouterr().err.strip().splitlines()[-1]


@pytest.mark.parametrize("baseline", sorted(BASELINE_DETECTORS))
def test_speed_overflow_is_one_error_line(tmp_path, capsys, baseline):
    # neighbours two samples apart sit 3.2e308 degrees apart: every speed overflows
    x = np.tile([1.6e308, 1.6e308, -1.6e308, -1.6e308], 10)
    seq = GazeSequence(np.arange(x.size) * 5.0, x, np.zeros(x.size), np.ones(x.size, bool))
    write_gaze_csv(seq, tmp_path / "huge.csv")
    capsys.readouterr()
    code = main(["detect", "--baseline", baseline, "--in", str(tmp_path / "huge.csv"), "--out", str(tmp_path / "p.csv")])
    assert code == 3
    err = one_error_line(capsys)
    assert err.startswith("data error: scores must be finite: the speed at sample ")
    assert err.endswith(" overflows (coordinates or timestamps out of range)")
    assert not (tmp_path / "p.csv").exists()


ALTERNATING = np.tile([1e308, 1e308 * (1 - 1e-15)], 20)
STAGE2_OVERFLOW = {
    # the eigen_ratio moments of a run at x = 1e308 overflow
    "pca": (np.full(40, 1e308), np.zeros(40), "eigen_ratio"),
    # steps of 1e293 degrees: the products in the turning angle overflow
    "ivmp": (ALTERNATING, ALTERNATING, "turn_angle"),
}


@pytest.mark.parametrize("baseline", sorted(STAGE2_OVERFLOW))
def test_stage2_overflow_is_one_error_line(tmp_path, capsys, baseline):
    x, y, kind = STAGE2_OVERFLOW[baseline]
    seq = GazeSequence(np.arange(x.size) * (1000 / 300), x, y, np.ones(x.size, bool))
    write_gaze_csv(seq, tmp_path / "huge.csv")
    capsys.readouterr()
    code = main(["detect", "--baseline", baseline, "--in", str(tmp_path / "huge.csv"), "--out", str(tmp_path / "p.csv")])
    assert code == 3
    err = one_error_line(capsys)
    assert err.startswith(f"data error: scores must be finite: the {kind} at sample ")
    assert err.endswith(" overflows (coordinates out of range)")
    assert not (tmp_path / "p.csv").exists()


def test_feature_overflow_is_one_error_line(tmp_path, capsys):
    # the window means of a recording at x = 1e308 overflow
    x = np.full(40, 1e308)
    write_gaze_csv(GazeSequence(np.arange(40) * (1000 / 300), x, np.zeros(40), np.ones(40, bool)), tmp_path / "huge.csv")
    save_model(init_params(0), tmp_path / "init.gznn")
    capsys.readouterr()
    code = main(["detect", "--model", str(tmp_path / "init.gznn"), "--in", str(tmp_path / "huge.csv"),
                 "--out", str(tmp_path / "p.csv")])
    assert code == 3
    assert one_error_line(capsys) == (
        "data error: features must be finite: the window centred on sample 15 overflows (coordinates out of range)"
    )
    assert not (tmp_path / "p.csv").exists()


@pytest.fixture()
def untrained(tmp_path, tiny_config):
    """A tiny corpus, an untrained model and baseline predictions for seq-0000."""
    data = synth(tmp_path, tiny_config, n=4, seed=5)
    model = tmp_path / "init.gznn"
    save_model(init_params(0), model)
    preds = tmp_path / "preds.csv"
    assert main(["detect", "--baseline", "ivmp", "--in", str(data / "seq-0000.csv"), "--out", str(preds)]) == 0
    return data, model, preds


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return err[0]


class TestUnreadableInputs:
    def test_model_with_non_finite_weight_exit4(self, untrained, tmp_path, capsys):
        data, model, _ = untrained
        blob = bytearray(model.read_bytes())
        end = 32 + 8 * init_params(0).vector.size  # the payload CRC follows the weights
        struct.pack_into("<d", blob, 32, float("nan"))  # the first weight, after the 32-byte header
        struct.pack_into("<I", blob, end, zlib.crc32(blob[32:end]))
        model.write_bytes(bytes(blob))
        out = tmp_path / "p.csv"
        capsys.readouterr()
        code = main(["detect", "--model", str(model), "--in", str(data / "seq-0000.csv"), "--out", str(out)])
        assert code == 4
        assert "non-finite" in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "eval", "trace", "train", "compare"])
    def test_non_utf8_gaze_csv_exit4(self, untrained, tmp_path, capsys, command):
        data, model, preds = untrained
        gaze = data / "seq-0000.csv"
        gaze.write_bytes(gaze.read_bytes().replace(b"\r\n0", b"\r\n\xff0", 1))
        argv = {
            "detect": ["detect", "--model", str(model), "--in", str(gaze), "--out", str(tmp_path / "p.csv")],
            "eval": ["eval", "--preds", str(preds), "--truth", str(gaze), "--report-dir", str(tmp_path / "r")],
            "trace": ["trace", "--preds", str(preds), "--in", str(gaze), "--out", str(tmp_path / "t.csv")],
            "train": ["train", "--data-dir", str(data), "--out", str(tmp_path / "m.gznn")],
            "compare": ["compare", "--data-dir", str(data), "--model", str(model), "--report-dir", str(tmp_path / "c")],
        }[command]
        capsys.readouterr()
        assert main(argv) == 4
        assert "utf-8" in one_error_line(capsys)

    @pytest.mark.parametrize("command", ["eval", "trace"])
    def test_non_utf8_predictions_csv_exit4(self, untrained, tmp_path, capsys, command):
        data, _, preds = untrained
        preds.write_bytes(preds.read_bytes() + b"\xfe\xff")
        gaze = str(data / "seq-0000.csv")
        argv = {
            "eval": ["eval", "--preds", str(preds), "--truth", gaze, "--report-dir", str(tmp_path / "r")],
            "trace": ["trace", "--preds", str(preds), "--in", gaze, "--out", str(tmp_path / "t.csv")],
        }[command]
        capsys.readouterr()
        assert main(argv) == 4
        assert "utf-8" in one_error_line(capsys)

    def test_non_utf8_config_exit2(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("[stimulus]\n# r\u00e9glage\nsequence_duration_s = 3.0\n".encode("latin-1"))
        capsys.readouterr()
        code = main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o"), "--sequences", "1"])
        assert code == 2
        assert "utf-8" in one_error_line(capsys)


# The csv.writer report blocks that gaze_io.write_csv replaced, kept as oracles.


def _fmt(x):
    return repr(float(x))


def oracle_eval_reports(preds, truth_seq, report_dir, thresholds):
    truth = truth_seq.labels
    cm = confusion(preds, truth)
    report = prf_from_confusion(cm)
    ova = one_vs_all_auc(preds, truth)
    ev_table = event_majority(preds, events_from_labels(truth))
    conf_bins = confidence_accuracy(preds, truth, thresholds)
    report_dir.mkdir(parents=True, exist_ok=True)
    norm = cm.row_normalized
    with open(report_dir / "confusion.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["truth"] + [f"pred_{c}" for c in CLASS_NAMES] + [f"norm_{c}" for c in CLASS_NAMES])
        for i, name in enumerate(CLASS_NAMES):
            w.writerow([name] + [int(v) for v in cm.counts[i]] + [_fmt(v) for v in norm[i]])
    with open(report_dir / "prf.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["class", "accuracy", "precision", "recall", "f1"])
        for i, name in enumerate(CLASS_NAMES):
            w.writerow(
                [name]
                + [_fmt(v) for v in (report.accuracy[i], report.precision[i], report.recall[i], report.f1[i])]
            )
        w.writerow(
            ["average"]
            + [_fmt(v) for v in (report.macro_accuracy, report.macro_precision, report.macro_recall, report.macro_f1)]
        )
    for cls, curve in zip(LabelClass, ova.curves):
        with open(report_dir / f"roc_{CLASS_NAMES[cls]}.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["fpr", "tpr"])
            for fpr, tpr in zip(curve.fpr, curve.tpr):
                w.writerow([_fmt(fpr), _fmt(tpr)])
    with open(report_dir / "event_majority.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["truth"] + list(CLASS_NAMES) + ["no_majority", "n_events"])
        for i, name in enumerate(CLASS_NAMES):
            w.writerow(
                [name]
                + [_fmt(v) for v in ev_table.fractions[i]]
                + [_fmt(ev_table.no_majority[i]), int(ev_table.event_counts[i])]
            )
    with open(report_dir / "confidence.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["class", "min_probability", "accuracy", "support"])
        for cls, bins in conf_bins.items():
            for b in bins:
                w.writerow([CLASS_NAMES[cls], _fmt(b.threshold), _fmt(b.accuracy), b.support])
    summary = {
        "auc": {
            "fixation": ova.curves[0].auc,
            "saccade": ova.curves[1].auc,
            "pursuit": ova.curves[2].auc,
            "mean": ova.mean_auc,
        },
        "frame_accuracy": frame_accuracy(preds, truth),
        "macro": {
            "accuracy": report.macro_accuracy,
            "precision": report.macro_precision,
            "recall": report.macro_recall,
            "f1": report.macro_f1,
        },
        "per_class": {
            CLASS_NAMES[i]: {
                "accuracy": float(report.accuracy[i]),
                "precision": float(report.precision[i]),
                "recall": float(report.recall[i]),
                "f1": float(report.f1[i]),
            }
            for i in range(3)
        },
        "covered_samples": int(preds.sample_idx.shape[0]),
        "total_samples": int(preds.n_samples),
    }
    (report_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")


REPORT_FILES = (
    "confusion.csv",
    "prf.csv",
    "roc_fixation.csv",
    "roc_saccade.csv",
    "roc_pursuit.csv",
    "event_majority.csv",
    "confidence.csv",
    "summary.json",
)


class TestReportsMatchCsvWriter:
    @pytest.mark.parametrize("covered", ["some", "all"])
    @pytest.mark.parametrize("tied_scores", [False, True])
    def test_eval_reports(self, tmp_path, covered, tied_scores):
        truth = generate_sequence(StimulusConfig(sequence_duration_s=3.0, seed=3), 0).sequence
        n = len(truth)
        rng = np.random.default_rng(11)
        idx = np.arange(n) if covered == "all" else np.flatnonzero(rng.uniform(size=n) > 0.3)
        if tied_scores:  # few distinct triples: tied ROC thresholds, empty confidence bins
            triples = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5], [1.0, 0.0, 0.0]])
            scores = triples[rng.integers(0, 4, idx.size)]
        else:
            scores = rng.dirichlet(np.ones(3), size=idx.size)
        preds = DetectorOutput(n, idx, scores, scores.argmax(axis=1))
        thresholds = np.linspace(0.0, 1.0, 21)
        cli._eval_reports(preds, truth, tmp_path / "new", thresholds)
        oracle_eval_reports(preds, truth, tmp_path / "old", thresholds)
        for name in REPORT_FILES:
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes(), name

    def test_comparison_csv(self, untrained, tmp_path):
        data, model, _ = untrained
        for i in range(4, 8):  # compare needs a validation and a test recording
            (data / f"seq-{i:04d}.csv").write_bytes((data / f"seq-{i - 4:04d}.csv").read_bytes())
        report = tmp_path / "cmp"
        assert main(["compare", "--data-dir", str(data), "--model", str(model), "--report-dir", str(report)]) == 0
        new = (report / "comparison.csv").read_bytes()
        rows = list(csv.reader(new.decode("utf-8").splitlines()))
        assert rows[0] == ["detector", "auc_fixation", "auc_saccade", "auc_pursuit", "mean_auc", "macro_f1",
                           "frame_accuracy"]
        assert any(r[3] == "nan" for r in rows[1:])  # ivt ranks no pursuit
        oracle = report / "oracle.csv"
        with open(oracle, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(rows[0])
            for r in rows[1:]:
                w.writerow([r[0]] + [_fmt(float(v)) for v in r[1:]])
        assert new == oracle.read_bytes()


class TestSharedFlags:
    """main resolves --config and --seed, which every command but trace takes, before the command runs."""

    SEEDED = ("synth", "train", "detect", "eval", "compare")

    @pytest.mark.parametrize("command", [*SEEDED, "trace"])
    def test_help_lists_config_and_seed_for_all_but_trace(self, capsys, command):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        seeded = command in self.SEEDED
        assert ("--config" in out, "--seed" in out) == (seeded, seeded)

    def test_trace_ignores_a_malformed_env_seed(self, tmp_path, tiny_config, monkeypatch):
        data = synth(tmp_path, tiny_config, n=1, seed=5)
        seq_file, preds_file = data / "seq-0000.csv", tmp_path / "preds.csv"
        assert main(["detect", "--baseline", "ivt", "--in", str(seq_file), "--out", str(preds_file)]) == 0
        monkeypatch.setenv("GAZEFLOW_SEED", "abc")
        assert main(["trace", "--preds", str(preds_file), "--in", str(seq_file), "--out", str(tmp_path / "t.csv")]) == 0
        assert (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("command", SEEDED)
    def test_malformed_env_seed_exit2_before_any_command_check(self, tmp_path, capsys, monkeypatch, command):
        # the arguments are all wrong for the command; the seed is reported first
        monkeypatch.setenv("GAZEFLOW_SEED", "abc")
        missing = str(tmp_path / "missing")
        argv = {
            "synth": ["synth", "--out-dir", missing, "--sequences", "0"],
            "train": ["train", "--data-dir", missing, "--out", missing],
            "detect": ["detect", "--baseline", "ivt", "--in", missing, "--out", missing],
            "eval": ["eval", "--preds", missing, "--truth", missing, "--report-dir", missing],
            "compare": ["compare", "--data-dir", missing, "--model", missing, "--report-dir", missing],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert one_error_line(capsys) == "error: GAZEFLOW_SEED must be an integer, got 'abc'"
        assert not (tmp_path / "missing").exists()

    def test_config_error_reported_before_the_sequence_count(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(["synth", "--config", str(tmp_path / "none.cfg"), "--out-dir", str(tmp_path / "o"),
                     "--sequences", "0"]) == 2
        assert "config file not found" in one_error_line(capsys)
