"""Command-line pipeline: synth -> train -> detect -> eval / compare / trace.

Exit codes: 0 success, 2 usage or configuration error, 3 data error
(missing or unlabeled input), 4 file-format or alignment error. Every
command is deterministic given its seed; --seed falls back to the
GAZEFLOW_SEED environment variable, then to 0.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .detectors import (
    BASELINE_DETECTORS,
    BASELINE_EVAL_CLASSES,
    BaselineConfig,
    DetectorError,
    DetectorOutput,
    cnn_detect,
    concat_outputs,
)
from .features import FeatureError, FrontendConfig, build_window_set, yields_windows
from .gaze import (
    CLASS_NAMES,
    DEFAULT_SPLIT_RATIOS,
    GazeDataError,
    GazeSequence,
    LabelClass,
    events_from_labels,
    split_dataset,
    split_units,
)
from .gaze_io import (
    DataFormatError,
    float_fields,
    int_fields,
    read_gaze_csv,
    read_predictions_csv,
    write_csv,
    write_gaze_csv,
    write_history_csv,
    write_json,
    write_predictions_csv,
    write_trace_csv,
)
from .metrics import (
    EvalError,
    confidence_accuracy,
    confusion,
    event_majority,
    frame_accuracy,
    one_vs_all_auc,
    prf_from_confusion,
)
from .model_io import ModelFileError, load_model, save_model
from .net import NetworkParams, TrainingError, train
from .runconfig import ConfigError, RunConfig, build_run_config, load_run_config
from .simulate import SimulationError, corpus_stats, generate_corpus
from .tuning import tune_baselines

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_FORMAT = 4


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("GAZEFLOW_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(EXIT_USAGE, f"GAZEFLOW_SEED must be an integer, got {env!r}") from None
    return 0


def _load_config(path: str | None, seed: int) -> RunConfig:
    if path is None:
        return build_run_config({}, seed=seed)
    if not Path(path).is_file():
        raise CliError(EXIT_USAGE, f"config file not found: {path}")
    return load_run_config(path, seed=seed)


def _read_corpus(data_dir: str) -> list[GazeSequence]:
    d = Path(data_dir)
    if not d.is_dir():
        raise CliError(EXIT_DATA, f"data directory not found: {data_dir}")
    files = sorted(p for p in d.glob("*.csv"))
    if not files:
        raise CliError(EXIT_DATA, f"no CSV files in {data_dir}")
    seqs = []
    for p in files:
        seq = read_gaze_csv(p)
        if seq.labels is None:
            raise CliError(EXIT_DATA, f"{p}: sequence has no labels")
        seqs.append(seq)
    return seqs


def _load_model(path: str, frontend: FrontendConfig) -> NetworkParams:
    model = load_model(path)
    if model.input_len != frontend.window_len:
        raise CliError(
            EXIT_USAGE,
            f"model {path} takes {model.input_len}-sample windows "
            f"but [frontend] window_len is {frontend.window_len}",
        )
    return model


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args: argparse.Namespace) -> int:
    if args.sequences < 1:
        raise CliError(EXIT_USAGE, "--sequences must be >= 1")
    seed = _resolve_seed(args.seed)
    cfg = _load_config(args.config, seed)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-test"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"out-dir not writable: {exc}") from None

    traces = generate_corpus(cfg.stimulus, args.sequences)
    for i, tr in enumerate(traces):
        write_gaze_csv(tr.sequence, out_dir / f"seq-{i:04d}.csv")
    write_json(out_dir / "manifest.json", {"seed": seed, **corpus_stats(traces)})
    print(f"wrote {len(traces)} sequences and manifest.json to {out_dir}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    cfg = _load_config(args.config, seed)
    seqs = _read_corpus(args.data_dir)
    windows = build_window_set(seqs, cfg.frontend)
    split = split_dataset(
        windows,
        DEFAULT_SPLIT_RATIOS,
        seed=seed,
        by_sequence=(cfg.split_level == "sequence"),
    )
    params, history = train(split, cfg.train)
    save_model(params, args.out)
    write_history_csv(history.records, str(args.out) + ".history.csv")
    best = max((r.val_accuracy for r in history.records), default=float("nan"))
    print(f"model written to {args.out}")
    print(f"best_val_accuracy={float(best)!r}")
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    cfg = _load_config(args.config, seed)
    seq = read_gaze_csv(args.infile)
    if args.model is not None:
        model = _load_model(args.model, cfg.frontend)
        preds = cnn_detect(model, seq, cfg.frontend)
    else:
        detector = BASELINE_DETECTORS[args.baseline]
        preds = detector(seq, cfg.baselines, cfg.frontend.interp_max_gap)
    write_predictions_csv(preds, args.out)
    print(f"wrote predictions for {preds.sample_idx.shape[0]}/{preds.n_samples} samples to {args.out}")
    return EXIT_OK


def _eval_reports(
    preds: DetectorOutput, truth_seq: GazeSequence, report_dir: Path, thresholds: np.ndarray
) -> dict:
    truth = truth_seq.labels
    covered_truth = truth[preds.sample_idx]
    for cls in LabelClass:
        if not (covered_truth == int(cls)).any():
            raise CliError(
                EXIT_FORMAT, f"class {CLASS_NAMES[cls]} missing from covered truth"
            )

    cm = confusion(preds, truth)
    report = prf_from_confusion(cm)
    ova = one_vs_all_auc(preds, truth)
    events = events_from_labels(truth)
    ev_table = event_majority(preds, events)
    conf_bins = confidence_accuracy(preds, truth, thresholds)
    acc = frame_accuracy(preds, truth)

    report_dir.mkdir(parents=True, exist_ok=True)
    names = list(CLASS_NAMES)
    norm = cm.row_normalized
    write_csv(
        report_dir / "confusion.csv",
        ["truth"] + [f"pred_{c}" for c in names] + [f"norm_{c}" for c in names],
        [names, *(int_fields(col) for col in cm.counts.T), *(float_fields(col) for col in norm.T)],
    )
    measures = ("accuracy", "precision", "recall", "f1")
    write_csv(
        report_dir / "prf.csv",
        ["class", *measures],
        [names + ["average"]]
        + [float_fields([*getattr(report, m), getattr(report, f"macro_{m}")]) for m in measures],
    )
    for cls, curve in zip(LabelClass, ova.curves):
        roc = [float_fields(curve.fpr), float_fields(curve.tpr)]
        write_csv(report_dir / f"roc_{CLASS_NAMES[cls]}.csv", ["fpr", "tpr"], roc)
    write_csv(
        report_dir / "event_majority.csv",
        ["truth"] + names + ["no_majority", "n_events"],
        [
            names,
            *(float_fields(col) for col in ev_table.fractions.T),
            float_fields(ev_table.no_majority),
            int_fields(ev_table.event_counts),
        ],
    )
    bins = [(CLASS_NAMES[cls], b) for cls, class_bins in conf_bins.items() for b in class_bins]
    write_csv(
        report_dir / "confidence.csv",
        ["class", "min_probability", "accuracy", "support"],
        [
            [name for name, _ in bins],
            float_fields([b.threshold for _, b in bins]),
            float_fields([b.accuracy for _, b in bins]),
            int_fields([b.support for _, b in bins]),
        ],
    )

    summary = {
        "auc": {**{name: c.auc for name, c in zip(CLASS_NAMES, ova.curves)}, "mean": ova.mean_auc},
        "frame_accuracy": acc,
        "macro": {m: getattr(report, f"macro_{m}") for m in measures},
        "per_class": {
            name: {m: float(getattr(report, m)[i]) for m in measures} for i, name in enumerate(CLASS_NAMES)
        },
        "covered_samples": int(preds.sample_idx.shape[0]),
        "total_samples": int(preds.n_samples),
    }
    write_json(report_dir / "summary.json", summary)
    return summary


def cmd_eval(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    cfg = _load_config(args.config, seed)
    preds = read_predictions_csv(args.preds)
    truth_seq = read_gaze_csv(args.truth)
    if truth_seq.labels is None:
        raise CliError(EXIT_DATA, f"{args.truth}: truth sequence has no labels")
    if len(truth_seq) != preds.n_samples:
        raise CliError(
            EXIT_FORMAT,
            f"length mismatch: {args.preds} has {preds.n_samples} rows, "
            f"{args.truth} has {len(truth_seq)} samples",
        )
    summary = _eval_reports(preds, truth_seq, Path(args.report_dir), cfg.evaluation.thresholds)
    print(f"reports written to {args.report_dir}")
    print(f"mean_auc={float(summary['auc']['mean'])!r} macro_f1={float(summary['macro']['f1'])!r}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    cfg = _load_config(args.config, seed)
    model = _load_model(args.model, cfg.frontend)
    seqs = _read_corpus(args.data_dir)
    # split the recordings a by-sequence `train` splits: those that yield a window
    units = np.flatnonzero([yields_windows(s, cfg.frontend) for s in seqs])
    if units.size < 3:
        raise CliError(EXIT_DATA, "compare needs at least 3 sequences with a usable window to split")

    _, val_ids, test_ids = split_units(units, DEFAULT_SPLIT_RATIOS, seed)
    val_seqs = [seqs[i] for i in sorted(val_ids)]
    test_seqs = [seqs[i] for i in sorted(test_ids)]
    if not val_seqs or not test_seqs:
        raise CliError(EXIT_DATA, "too few sequences for a validation/test split")

    max_gap = cfg.frontend.interp_max_gap
    tuned = tune_baselines(val_seqs, window_len=cfg.baselines.window_len, max_gap=max_gap)

    rows = []
    truth_all = np.concatenate([s.labels for s in test_seqs])
    for name in ("cnn", *BASELINE_DETECTORS):
        if name == "cnn":
            outs = [cnn_detect(model, seq, cfg.frontend) for seq in test_seqs]
        else:
            outs = [BASELINE_DETECTORS[name](seq, tuned[name], max_gap) for seq in test_seqs]
        classes = BASELINE_EVAL_CLASSES.get(name, tuple(LabelClass))
        pooled = concat_outputs(outs)
        ova = one_vs_all_auc(pooled, truth_all)
        mean_auc = float(np.mean([ova.curves[int(c)].auc for c in classes]))
        report = prf_from_confusion(confusion(pooled, truth_all))
        rows.append(
            {
                "detector": name,
                "auc_fixation": ova.curves[0].auc,
                "auc_saccade": ova.curves[1].auc,
                "auc_pursuit": ova.curves[2].auc if LabelClass.PURSUIT in classes else float("nan"),
                "mean_auc": mean_auc,
                "macro_f1": report.macro_f1,
                "frame_accuracy": frame_accuracy(pooled, truth_all),
            }
        )

    rows.sort(key=lambda r: -r["mean_auc"])
    report_dir = Path(args.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    cols = ["detector", "auc_fixation", "auc_saccade", "auc_pursuit", "mean_auc", "macro_f1", "frame_accuracy"]
    write_csv(
        report_dir / "comparison.csv",
        cols,
        [[r["detector"] for r in rows]] + [float_fields([r[c] for r in rows]) for c in cols[1:]],
    )
    write_json(report_dir / "tuned_thresholds.json", {name: asdict(c) for name, c in tuned.items()})

    for r in rows:
        print(
            f"{r['detector']:8s} mean_auc={r['mean_auc']:.4f} "
            f"macro_f1={r['macro_f1']:.4f} accuracy={r['frame_accuracy']:.4f}"
        )
    print(f"ranking={','.join(r['detector'] for r in rows)}")
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    preds = read_predictions_csv(args.preds)
    seq = read_gaze_csv(args.infile)
    if len(seq) != preds.n_samples:
        raise CliError(
            EXIT_FORMAT,
            f"length mismatch: predictions cover {preds.n_samples} samples, "
            f"sequence has {len(seq)}",
        )
    write_trace_csv(seq, preds, args.out)
    print(f"wrote trace to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazeflow",
        description="Detect fixations, saccades and smooth pursuits in 2-D gaze streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--out-dir", required=True, help="output directory for CSVs + manifest")
    p.add_argument("--sequences", type=int, required=True, help="number of sequences")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the detector network on labeled CSVs")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--out", required=True, help="output model file (.gznn)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="label one sequence with a model or baseline")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="trained model file")
    group.add_argument("--baseline", choices=sorted(BASELINE_DETECTORS))
    p.add_argument("--in", dest="infile", required=True, help="input gaze CSV")
    p.add_argument("--out", required=True, help="output predictions CSV")
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--preds", required=True)
    p.add_argument("--truth", required=True, help="labeled gaze CSV")
    p.add_argument("--report-dir", required=True)
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="tuned baselines vs the trained network")
    p.add_argument("--data-dir", required=True, help="labeled corpus directory")
    p.add_argument("--model", required=True)
    p.add_argument("--report-dir", required=True)
    p.add_argument("--config", help="run configuration file")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("trace", help="join gaze data and predictions for plotting")
    p.add_argument("--preds", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ConfigError, SimulationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GazeDataError, FeatureError, TrainingError, DetectorError, EvalError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DataFormatError, ModelFileError) as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
