"""Self-tests of the benchmark: every output check accepts the program's
correct output and rejects a deliberately wrong one, and a tiny session of
each workload runs to its end.

    python3 perfbench/selftest.py          # from the repository root
    python3 -m pytest -q perfbench/selftest.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from gazeflow.detectors import BaselineConfig, ivt_idt_detect  # noqa: E402
from gazeflow.features import featurize_sequence, repair_sequence  # noqa: E402
from gazeflow.gaze import GazeSequence  # noqa: E402
from gazeflow.metrics import confusion, one_vs_all_auc, prf_from_confusion  # noqa: E402
from gazeflow.net import forward_batch, init_params  # noqa: E402
from gazeflow.simulate import StimulusConfig, generate_sequence  # noqa: E402
from workloads import loss_mask  # noqa: E402


def _gappy_sequence(seed: int = 3) -> GazeSequence:
    seq = generate_sequence(StimulusConfig(seed=seed, sequence_duration_s=4.0), 1).sequence
    lost = loss_mask(len(seq), 300.0, np.random.default_rng(seed))
    x = np.where(lost, np.nan, seq.x_deg)
    y = np.where(lost, np.nan, seq.y_deg)
    return GazeSequence(seq.t_ms, x, y, ~lost, seq.labels)


SEQ = _gappy_sequence()


def _own_frontend(seq: GazeSequence):
    x, y, bad, _ = checks.repair(seq.t_ms, np.asarray(seq.x_deg), np.asarray(seq.y_deg), np.asarray(seq.valid), 3)
    return x, y, bad


def test_dft_rejects_perturbed_feature():
    centres, feats = featurize_sequence(SEQ)
    x, y, _ = _own_frontend(SEQ)
    idx = (centres - 15)[:, None] + np.arange(30)
    own = checks.dft_magnitudes(x[idx], y[idx])
    assert checks.check_dft(feats, own) is None
    bad = feats.copy()
    bad[7, 4, 1] *= 1.0 + 1e-6
    assert checks.check_dft(bad, own) is not None


def test_centres_and_repair():
    centres, _ = featurize_sequence(SEQ)
    _, _, bad = _own_frontend(SEQ)
    own = checks.window_centres(bad, 30, 15)
    assert own.size and checks.check_centres(centres, own, "seq") is None
    assert checks.check_centres(centres[1:], own, "seq") is not None
    xr, yr, _ = repair_sequence(SEQ, 3)
    args = (SEQ.t_ms, np.asarray(SEQ.x_deg), np.asarray(SEQ.y_deg), np.asarray(SEQ.valid))
    assert checks.check_repair(*args, xr, yr, 3) is None
    moved = xr.copy()
    i = int(np.flatnonzero(~SEQ.valid & ~np.isnan(xr))[0])
    moved[i] += 1e-3
    assert checks.check_repair(*args, moved, yr, 3) is not None


def test_auc_rejects_shift():
    out = ivt_idt_detect(SEQ, BaselineConfig())
    truth = np.asarray(SEQ.labels)
    reported = one_vs_all_auc(out, truth).mean_auc
    scores, t = out.scores, truth[out.sample_idx]
    assert checks.check_auc(scores, t, (0, 1, 2), reported, "ivt-idt") is None
    assert checks.check_auc(scores, t, (0, 1, 2), reported + 0.01, "ivt-idt") is not None
    # an area at or below one half is rejected whatever was reported
    flipped = -scores
    assert checks.check_auc(flipped, t, (0,), checks.mann_whitney_auc(flipped[:, 0], t == 0), "x") is not None


def test_ranks_match_ties_at_half():
    s = np.array([0.1, 0.4, 0.4, 0.9])
    assert np.array_equal(checks.average_ranks(s), [1.0, 2.5, 2.5, 4.0])
    assert checks.mann_whitney_auc(s, np.array([False, True, False, True])) == 0.875


def test_shuffled_labels_are_rejected():
    out = ivt_idt_detect(SEQ, BaselineConfig())
    truth = np.asarray(SEQ.labels)[out.sample_idx].astype(np.int64)
    pred = out.labels.astype(np.int64)
    reported = prf_from_confusion(confusion(out, np.asarray(SEQ.labels))).macro_f1
    assert checks.check_macro_f1(truth, pred, reported, "ivt-idt") is None
    shuffled = np.random.default_rng(0).permutation(pred)
    assert checks.check_macro_f1(truth, shuffled, reported, "ivt-idt") is not None

    n = out.n_samples
    covered = np.zeros(n, dtype=bool)
    covered[out.sample_idx] = True
    scores = np.full((n, 3), np.nan)
    scores[out.sample_idx] = out.scores
    labels = np.full(n, -1, dtype=np.int64)
    labels[out.sample_idx] = pred
    assert checks.check_triples(scores, labels, covered) is None
    wrong = labels.copy()
    wrong[out.sample_idx] = shuffled
    assert checks.check_triples(scores, wrong, covered) is not None
    tie = scores.copy()
    k = out.sample_idx[0]
    tie[k] = (0.4, 0.4, 0.2)
    tied = labels.copy()
    tied[k] = 1  # the tie must go to the lowest code, 0
    assert checks.check_triples(tie, tied, covered) is not None


def test_forward_and_best_accuracy():
    params = init_params(5)
    _, feats = featurize_sequence(SEQ)
    weights = dict(params.arrays())
    own = checks.forward_logits(weights, params.pool_factor, feats)
    program = forward_batch(params, feats).logits
    assert np.allclose(own, program, rtol=1e-12, atol=1e-12)
    labels = program.argmax(axis=1)
    labels[::3] = (labels[::3] + 1) % 3
    acc = float((program.argmax(axis=1) == labels).mean())
    assert checks.check_best_accuracy(own, labels, acc) is None
    assert checks.check_best_accuracy(own, labels, acc + 5.0 / labels.size) is not None


def test_loss_and_tuning_checks():
    assert checks.check_loss_falls([(1, 0, 0.9, 0.5), (2, 0, 0.4, 0.8)]) is None
    assert checks.check_loss_falls([(1, 0, 0.4, 0.5), (2, 0, 0.9, 0.8)]) is not None
    grid = (np.geomspace(10.0, 300.0, 20),)
    on = (float(grid[0][3]),)
    assert checks.check_tuning(on, grid, 0.8, {(float(grid[0][5]),): 0.7}, "ivt") is None
    assert checks.check_tuning((on[0] + 1e-9,), grid, 0.8, {}, "ivt") is not None
    assert checks.check_tuning(on, grid, 0.8, {(float(grid[0][5]),): 0.81}, "ivt") is not None


def test_bits_equal_sees_nan_positions():
    a = np.array([1.0, np.nan, 3.0])
    assert checks.bits_equal(a, a.copy())
    assert not checks.bits_equal(a, np.array([1.0, 2.0, np.nan]))
    assert not checks.bits_equal(a, np.array([1.0, np.nan, np.nextafter(3.0, 4.0)]))


def test_parsers_read_the_program_formats():
    from gazeflow.gaze_io import write_gaze_csv, write_predictions_csv

    tmp = HERE / "_work" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    write_gaze_csv(SEQ, tmp / "g.csv")
    cols = checks.parse_gaze_csv((tmp / "g.csv").read_text(encoding="utf-8"))
    assert checks.bits_equal(cols["x"], SEQ.x_deg) and np.array_equal(cols["valid"], SEQ.valid)
    out = ivt_idt_detect(SEQ, BaselineConfig())
    write_predictions_csv(out, tmp / "p.csv")
    p = checks.parse_predictions_csv((tmp / "p.csv").read_text(encoding="utf-8"))
    assert np.array_equal(np.flatnonzero(p["covered"]), out.sample_idx)
    assert checks.bits_equal(p["scores"][out.sample_idx], out.scores)
    shutil.rmtree(tmp)


def test_loss_mask_keeps_dropouts_repairable():
    for seed in range(20):
        lost = loss_mask(2100, 300.0, np.random.default_rng(seed))
        lengths = [e - s + 1 for s, e in checks.runs(lost)]
        assert sum(1 for n in lengths if n > 3) in (1, 2)  # the blinks
        assert all(45 <= n <= 105 for n in lengths if n > 3)
        assert not lost[:40].any() and not lost[-40:].any()


def _tiny_session(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tiny_sessions_complete():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for wl in spec["workloads"]:
        result = _tiny_session(wl["name"], trace=0)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    result = _tiny_session("gappy", trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception as exc:  # report every failing self-test, then fail
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
