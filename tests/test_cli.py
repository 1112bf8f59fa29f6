import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gazeflow.cli as cli
from gazeflow.cli import main
from gazeflow.detectors import cnn_detect
from gazeflow.gaze import split_dataset
from gazeflow.gaze_io import read_gaze_csv, read_manifest, read_predictions_csv, write_gaze_csv
from gazeflow.metrics import frame_accuracy
from gazeflow.model_io import load_model, model_crc

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
        data = synth(tmp_path, tiny_config, n=4, seed=5)
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
        data = synth(tmp_path, tiny_config, n=4, seed=5)
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
        assert (report_dir / "tuned_thresholds.json").is_file()

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

        def spy_split(windows, *args, **kwargs):
            split = split_dataset(windows, *args, **kwargs)
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

    def test_compare_missing_model_exit4(self, tmp_path, tiny_config):
        data = synth(tmp_path, tiny_config, n=3, seed=7)
        code = main(
            ["compare", "--data-dir", str(data), "--model", str(tmp_path / "no.gznn"), "--report-dir", str(tmp_path / "r")]
        )
        assert code in (3, 4)  # unreadable model file
