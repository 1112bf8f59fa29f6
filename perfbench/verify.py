"""Output checks of one benchmark session (see checks.py for the oracles).

Each check is one operation: a failed check fails the run.
"""
from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

import checks
from workloads import DETECTORS, TRAIN_SEED

WINDOW_LEN = 30  # frontend and baseline defaults, which the benchmark does not override
CENTER_OFFSET = 15
INTERP_MAX_GAP = 3
SAMPLED_RECORDINGS = 3
SAMPLED_WINDOWS = 64
SAMPLED_GRID_POINTS = 2
BASELINE_CLASSES = {"cnn": (0, 1, 2), "ivt": (0, 1), "ivt-idt": (0, 1, 2), "ivmp": (0, 1, 2), "pca": (0, 1, 2)}


class Recording:
    """One gaze CSV as the benchmark reads it, with its own repair and windows."""

    def __init__(self, path: Path):
        self.path = path
        cols = checks.parse_gaze_csv(path.read_text(encoding="utf-8"))
        self.t, self.x, self.y, self.valid, self.label = (
            cols["t"], cols["x"], cols["y"], cols["valid"], cols["label"])
        self.xr, self.yr, self.bad, _ = checks.repair(self.t, self.x, self.y, self.valid, INTERP_MAX_GAP)
        self.centres = checks.window_centres(self.bad, WINDOW_LEN, CENTER_OFFSET)
        # ivt needs its sample and both neighbours: a window of three
        self.ivt_centres = checks.window_centres(self.bad, 3, 1)

    def windows(self, centres: np.ndarray) -> np.ndarray:
        """Own (m, L, 2) DFT features of the windows at the given centres."""
        idx = (centres - CENTER_OFFSET)[:, None] + np.arange(WINDOW_LEN)
        return checks.dft_magnitudes(self.xr[idx], self.yr[idx])


def _parse_comparison(path: Path) -> dict[str, dict[str, float]]:
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    header = rows[0]
    return {r[0]: {k: float(v) for k, v in zip(header[1:], r[1:])} for r in rows[1:]}


def verify_session(session) -> dict:
    """Run every output check on the files the session left behind.

    Returns the quality metrics (read from compare's report, after they were
    recounted) and the number of training windows.
    """
    from gazeflow.detectors import BASELINE_DETECTORS, BaselineConfig, cnn_detect
    from gazeflow.features import featurize_sequence, repair_sequence
    from gazeflow.gaze import DEFAULT_SPLIT_RATIOS, split_units
    from gazeflow.gaze_io import read_gaze_csv, read_predictions_csv, write_gaze_csv, write_predictions_csv
    from gazeflow.model_io import load_model
    from gazeflow.tuning import TuningGrids

    ops = session.ops
    rng = np.random.default_rng([session.seed, 1])
    recs = [Recording(p) for p in session.recordings()]
    n = len(recs)
    scratch = session.work / "check"
    scratch.mkdir(exist_ok=True)

    # train splits the recordings that yield windows, compare splits all of
    # them: the two agree only when every recording keeps windows
    with_windows = np.flatnonzero([r.centres.size > 0 for r in recs])
    ops.check(None if with_windows.size == n else f"{n - with_windows.size} recordings yield no window")
    train_split = split_units(with_windows, DEFAULT_SPLIT_RATIOS, TRAIN_SEED)
    compare_split = split_units(np.arange(n), DEFAULT_SPLIT_RATIOS, TRAIN_SEED)
    _, val_ids, test_ids = (sorted(int(i) for i in part) for part in compare_split)
    cnn_train_ids, cnn_val_ids, _ = (sorted(int(i) for i in part) for part in train_split)
    ops.check(None if all(np.array_equal(a, b) for a, b in zip(train_split, compare_split))
              else "train and compare split the recordings differently")

    # coverage of every (recording, detector) pair; score triples of the
    # validation and test recordings and of a seeded sample of the others
    sample = sorted(rng.choice(n, size=min(SAMPLED_RECORDINGS, n), replace=False).tolist())
    preds = {}
    for k, rec in enumerate(recs):
        for det in DETECTORS:
            text = (session.preds / det / rec.path.name).read_text(encoding="utf-8")
            want = rec.ivt_centres if det == "ivt" else rec.centres
            covered = checks.parse_covered(text)
            ops.check(checks.check_centres(np.flatnonzero(covered), want, f"{det} {rec.path.name}"))
            if k in val_ids or k in test_ids or k in sample:
                p = preds[det, k] = checks.parse_predictions_csv(text)
                ops.check(checks.check_triples(p["scores"], p["labels"], p["covered"]))

    # frontend on the sampled recordings
    model = load_model(session.model)
    tuned_all = json.loads((session.report / "tuned_thresholds.json").read_text(encoding="utf-8"))
    idt_cfg = BaselineConfig(**tuned_all["ivt-idt"])
    for k in sample:
        rec = recs[k]
        seq = read_gaze_csv(rec.path)
        centres, feats = featurize_sequence(seq)
        ops.check(checks.check_centres(centres, rec.centres, f"featurize_sequence {rec.path.name}"))
        pick = np.sort(rng.choice(centres.size, size=min(SAMPLED_WINDOWS, centres.size), replace=False))
        ops.check(checks.check_dft(feats[pick], rec.windows(centres[pick])))
        x_rep, y_rep, _ = repair_sequence(seq, INTERP_MAX_GAP)
        ops.check(checks.check_repair(rec.t, rec.x, rec.y, rec.valid, x_rep, y_rep, INTERP_MAX_GAP))

        # gaze CSV: the program reads what the file says, and writes it back byte for byte
        same = all(checks.bits_equal(getattr(seq, a), b) for a, b in
                   (("t_ms", rec.t), ("x_deg", rec.x), ("y_deg", rec.y)))
        same = same and np.array_equal(seq.valid, rec.valid) and np.array_equal(seq.labels, rec.label)
        ops.check(None if same else f"read_gaze_csv disagrees with the file {rec.path.name}")
        copy = scratch / rec.path.name
        write_gaze_csv(seq, copy)
        back = read_gaze_csv(copy)
        same = copy.read_bytes() == rec.path.read_bytes() and all(
            checks.bits_equal(getattr(back, a), getattr(seq, a)) for a in ("t_ms", "x_deg", "y_deg"))
        ops.check(None if same else f"gaze CSV round trip of {rec.path.name} is not exact")

        # predictions CSV round trip, covered and uncovered rows
        for out in (cnn_detect(model, seq), BASELINE_DETECTORS["ivt-idt"](seq, idt_cfg)):
            write_predictions_csv(out, scratch / "preds.csv")
            back = read_predictions_csv(scratch / "preds.csv")
            same = (back.n_samples == out.n_samples and np.array_equal(back.sample_idx, out.sample_idx)
                    and checks.bits_equal(back.scores, out.scores) and np.array_equal(back.labels, out.labels))
            ops.check(None if same else f"predictions CSV round trip of {rec.path.name} is not exact")

    # training: the returned weights are the best-validation ones, and the loss fell
    history = checks.parse_history_csv(Path(str(session.model) + ".history.csv").read_text(encoding="utf-8"))
    ops.check(checks.check_loss_falls(history))
    val_feats = np.concatenate([recs[k].windows(recs[k].centres) for k in cnn_val_ids])
    val_labels = np.concatenate([recs[k].label[recs[k].centres] for k in cnn_val_ids])
    weights = {name: arr for name, arr in model.arrays()}
    logits = checks.forward_logits(weights, model.pool_factor, val_feats)
    ops.check(checks.check_best_accuracy(logits, val_labels, max(h[3] for h in history)))

    # compare: recount every detector's ROC area and macro F1 from the detect outputs
    report = _parse_comparison(session.report / "comparison.csv")
    quality = {}
    for det in DETECTORS:
        cov = [preds[det, k]["covered"] for k in test_ids]
        scores = np.concatenate([preds[det, k]["scores"][c] for k, c in zip(test_ids, cov)])
        labels = np.concatenate([preds[det, k]["labels"][c] for k, c in zip(test_ids, cov)])
        truth = np.concatenate([recs[k].label[c] for k, c in zip(test_ids, cov)])
        row = report[det]
        ops.check(checks.check_auc(scores, truth, BASELINE_CLASSES[det], row["mean_auc"], det))
        ops.check(checks.check_macro_f1(truth, labels, row["macro_f1"], det))
        quality[f"mean_auc.{det}"] = row["mean_auc"]
        quality[f"macro_f1.{det}"] = row["macro_f1"]

    # tuning: thresholds on the grids, and no sampled grid point beats them on validation
    grids = TuningGrids()
    stage2 = {"ivt-idt": ("dispersion_threshold_deg", grids.dispersion),
              "ivmp": ("angle_threshold_rad", grids.angle),
              "pca": ("pca_ratio_threshold", grids.pca_ratio)}
    val_seqs = {k: read_gaze_csv(recs[k].path) for k in val_ids}

    def val_f1(labels_of) -> float:
        truth = np.concatenate([recs[k].label[recs[k].centres] for k in val_ids])
        pred = np.concatenate([labels_of(k)[recs[k].centres] for k in val_ids])
        return checks.macro_f1(truth, pred)

    for det in ("ivt", "ivt-idt", "ivmp", "pca"):
        tuned = tuned_all[det]
        keys = ["velocity_threshold_deg_s"] + ([stage2[det][0]] if det in stage2 else [])
        axes = [grids.velocity] + ([stage2[det][1]] if det in stage2 else [])
        point = tuple(tuned[k] for k in keys)
        tuned_f1 = val_f1(lambda k: preds[det, k]["labels"])
        others = {}
        while len(others) < SAMPLED_GRID_POINTS:
            other = tuple(float(ax[rng.integers(ax.size)]) for ax in axes)
            if other == point or other in others:
                continue
            cfg = BaselineConfig(**{**tuned, **dict(zip(keys, other))})
            outs = {k: BASELINE_DETECTORS[det](s, cfg).full_labels() for k, s in val_seqs.items()}
            others[other] = val_f1(lambda k: outs[k])
        ops.check(checks.check_tuning(point, axes, tuned_f1, others, det))

    train_windows = sum(recs[k].centres.size for k in cnn_train_ids)
    return {"train_windows": train_windows, "quality": quality}
