"""In-memory spans and counts around gazeflow's public functions.

The wrappers live here, in the benchmark, not in the program: each name is
replaced where the program looks it up (for example `gazeflow.cli.train` and
`gazeflow.tuning.stage2_statistics`) for the length of a `patched()` block,
and put back afterwards.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    """Spans (name, start, end, parent) and per-layer counts, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._by_name = None  # built on the first summary, after tracing ends

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(i)
        return i

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.starts[i], self.ends[i] = t0, t1

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            i = self._open(name)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.starts[i], self.ends[i] = t0, t1
            if counter is not None:
                counter(self.counts, args, kwargs, out)
            return out

        return traced

    # -- summaries ---------------------------------------------------------

    def durations(self, name: str, parent: str | None = None) -> np.ndarray:
        """Durations of the spans called `name` (whose parent is `parent`, if given)."""
        if self._by_name is None:
            self._by_name = defaultdict(list)
            for i, n in enumerate(self.names):
                p = self.parents[i]
                self._by_name[n].append((self.ends[i] - self.starts[i], self.names[p] if p >= 0 else None))
        return np.array([d for d, p in self._by_name[name] if parent is None or p == parent])

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds and self seconds (total minus children)."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            d = self.ends[i] - self.starts[i]
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += d
            rec["self_s"] += d - child[i]
        return out

    def dump(self, path: Path, extra: dict) -> None:
        t0 = min(self.starts) if self.starts else 0.0
        payload = {
            **extra,
            "self_time": self.self_times(),
            "counts": dict(self.counts),
            "spans": [
                [n, round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# counters: computed after a span has closed, so they stay out of its time


def _count_rows(key):
    def counter(counts, args, kwargs, out):
        counts[key] += len(args[0])

    return counter


def _count_gaze_rows(counts, args, kwargs, out):
    counts["gaze_io.read_gaze_csv.rows"] += len(out)


def _count_pred_rows(counts, args, kwargs, out):
    counts["gaze_io.write_predictions_csv.rows"] += args[0].n_samples


def _n_runs(mask: np.ndarray) -> int:
    m = np.asarray(mask, dtype=np.int8)
    return int(m[0] + (np.diff(m) == 1).sum()) if m.size else 0


def _count_repair(counts, args, kwargs, out):
    invalid = ~np.asarray(args[0].valid, dtype=bool)
    still_bad = out[2]
    counts["features.repair_sequence.gap_runs"] += _n_runs(invalid)
    counts["features.repair_sequence.samples_repaired"] += int((invalid & ~still_bad).sum())


def _count_featurize(counts, args, kwargs, out):
    from gazeflow.features import FrontendConfig

    seq = args[0]
    cfg = args[1] if len(args) > 1 else kwargs.get("config", FrontendConfig())
    possible = len(range(0, len(seq) - cfg.window_len + 1, cfg.stride))
    kept = int(out[0].shape[0])
    counts["features.featurize_sequence.windows_kept"] += kept
    counts["features.featurize_sequence.windows_skipped"] += possible - kept


def _count_stage2(counts, args, kwargs, out):
    mask = np.asarray(args[2], dtype=bool)
    counts["detectors.stage2_statistics.spans"] += _n_runs(mask)
    counts["detectors.stage2_statistics.samples"] += int(mask.sum())


# baseline detector name in the CLI -> traced layer name
BASELINE_LAYERS = {
    "ivt": "detectors.ivt_detect",
    "ivt-idt": "detectors.ivt_idt_detect",
    "ivmp": "detectors.ivmp_detect",
    "pca": "detectors.pca_ratio_detect",
}


@contextmanager
def patched(tracer: Tracer):
    """Route every traced public function through `tracer` for the block."""
    from gazeflow import cli, detectors, features, net, tuning

    targets = [
        # (module, attribute, layer name, counter)
        (cli, "generate_corpus", "simulate.generate_corpus", None),
        (cli, "write_gaze_csv", "gaze_io.write_gaze_csv", _count_rows("gaze_io.write_gaze_csv.rows")),
        (cli, "read_gaze_csv", "gaze_io.read_gaze_csv", _count_gaze_rows),
        (cli, "write_predictions_csv", "gaze_io.write_predictions_csv", _count_pred_rows),
        (cli, "split_dataset", "gaze.split_dataset", None),
        (cli, "train", "net.train", None),
        (cli, "save_model", "model_io.save_model", None),
        (cli, "load_model", "model_io.load_model", None),
        (cli, "cnn_detect", "detectors.cnn_detect", None),
        (cli, "tune_baselines", "tuning.tune_baselines", None),
        (cli, "one_vs_all_auc", "metrics.one_vs_all_auc", None),
        (cli, "confusion", "metrics.confusion", None),
        (features, "repair_sequence", "features.repair_sequence", _count_repair),
        (detectors, "repair_sequence", "features.repair_sequence", _count_repair),
        (features, "featurize_sequence", "features.featurize_sequence", _count_featurize),
        (detectors, "featurize_sequence", "features.featurize_sequence", _count_featurize),
        (detectors, "stage2_statistics", "detectors.stage2_statistics", _count_stage2),
        (tuning, "stage2_statistics", "detectors.stage2_statistics", _count_stage2),
        (detectors, "forward_batch", "net.forward_batch", None),
        (net, "forward_batch", "net.forward_batch", None),
        (net, "backward_batch", "net.backward_batch", None),
        (net, "adam_step", "net.adam_step", None),
        (net, "frame_accuracy", "net.frame_accuracy", None),
    ]
    saved_attrs = []
    saved_items = dict(cli.BASELINE_DETECTORS)
    try:
        for module, attr, name, counter in targets:
            original = getattr(module, attr)
            saved_attrs.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, counter))
        for key, fn in saved_items.items():
            cli.BASELINE_DETECTORS[key] = tracer.wrap(BASELINE_LAYERS[key], fn)
        yield
    finally:
        for module, attr, original in reversed(saved_attrs):
            setattr(module, attr, original)
        cli.BASELINE_DETECTORS.update(saved_items)


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json from one traced session.

    Counts are per cycle (one train/compare round for every recording slice,
    and a `detect` of every recording with every detector).
    """
    c = tracer.counts

    def total(name, parent=None):
        return float(tracer.durations(name, parent).sum())

    def mean(name, parent=None):
        d = tracer.durations(name, parent)
        return float(d.mean()) if d.size else 0.0

    def rate(count_key, name):
        t = total(name)
        return c[count_key] / t if t > 0 else 0.0

    kept = c["features.featurize_sequence.windows_kept"]
    skipped = c["features.featurize_sequence.windows_skipped"]
    m = {
        "simulate.generate_corpus.s": (mean("simulate.generate_corpus"), "s"),
        "gaze_io.write_gaze_csv.rows_per_s": (rate("gaze_io.write_gaze_csv.rows", "gaze_io.write_gaze_csv"), "1/s"),
        "gaze_io.read_gaze_csv.rows_per_s": (rate("gaze_io.read_gaze_csv.rows", "gaze_io.read_gaze_csv"), "1/s"),
        "gaze_io.write_predictions_csv.rows_per_s": (
            rate("gaze_io.write_predictions_csv.rows", "gaze_io.write_predictions_csv"), "1/s"),
        "features.repair_sequence.ms_per_call": (1e3 * mean("features.repair_sequence"), "ms"),
        "features.repair_sequence.gap_runs": (c["features.repair_sequence.gap_runs"] / cycles, "count"),
        "features.repair_sequence.samples_repaired": (
            c["features.repair_sequence.samples_repaired"] / cycles, "count"),
        "features.featurize_sequence.windows_per_s": (
            kept / total("features.featurize_sequence") if kept else 0.0, "1/s"),
        "features.featurize_sequence.windows_kept": (kept / cycles, "count"),
        "features.featurize_sequence.windows_skipped": (skipped / cycles, "count"),
        "features.featurize_sequence.kept_ratio": (kept / (kept + skipped) if kept + skipped else 0.0, "fraction"),
        "gaze.split_dataset.ms": (1e3 * mean("gaze.split_dataset"), "ms"),
        "net.forward_batch.us_per_step": (1e6 * mean("net.forward_batch", "net.train"), "us"),
        "net.backward_batch.us_per_step": (1e6 * mean("net.backward_batch", "net.train"), "us"),
        "net.adam_step.us_per_step": (1e6 * mean("net.adam_step", "net.train"), "us"),
        "net.adam_step.calls": (tracer.durations("net.adam_step").size / cycles, "count"),
        "net.frame_accuracy.ms_per_call": (1e3 * mean("net.frame_accuracy"), "ms"),
        "model_io.save_model.ms": (1e3 * mean("model_io.save_model"), "ms"),
        "model_io.load_model.ms": (1e3 * mean("model_io.load_model"), "ms"),
        "detectors.cnn_detect.ms_per_call": (1e3 * mean("detectors.cnn_detect"), "ms"),
    }
    for layer in BASELINE_LAYERS.values():
        m[f"{layer}.ms_per_call"] = (1e3 * mean(layer), "ms")
    m.update(
        {
            "detectors.stage2_statistics.ms_per_call": (1e3 * mean("detectors.stage2_statistics"), "ms"),
            "detectors.stage2_statistics.calls": (tracer.durations("detectors.stage2_statistics").size / cycles, "count"),
            "detectors.stage2_statistics.spans": (c["detectors.stage2_statistics.spans"] / cycles, "count"),
            "detectors.stage2_statistics.samples": (c["detectors.stage2_statistics.samples"] / cycles, "count"),
            "tuning.tune_baselines.s": (mean("tuning.tune_baselines"), "s"),
            "metrics.one_vs_all_auc.ms": (1e3 * mean("metrics.one_vs_all_auc"), "ms"),
            "metrics.confusion.ms": (1e3 * mean("metrics.confusion"), "ms"),
        }
    )
    return m
