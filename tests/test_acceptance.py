"""Acceptance suite: one test per release criterion.

Each test prints a `[criterion N] PASS ...` line with the measured values;
run with `pytest -v -s tests/test_acceptance.py` to see them. The two
training-based criteria share a module-scoped pipeline fixture, together
take a few minutes and carry the `slow` marker; everything else is fast.
The detector comparisons (the noiseless gate, criteria 7 and 8) run
`gazeflow.cli.compare_detectors`, the code `gazeflow compare` runs: it tunes
the baselines on the validation recordings, pools each detector's outputs
over the test recordings and takes each mean ROC area over the classes
that detector's output ranks (metrics.one_vs_all_auc).
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from gazeflow.cli import compare_detectors
from gazeflow.detectors import BASELINE_DETECTORS, concat_outputs, ivt_idt_detect
from gazeflow.features import FrontendConfig, featurize_sequence, split_dataset
from gazeflow.gaze import CLASS_NAMES, GazeSequence, LabelClass, events_from_labels
from gazeflow.metrics import (
    confidence_accuracy,
    confusion,
    event_majority,
    frame_accuracy,
    prf_from_confusion,
    roc_auc,
)
from gazeflow.model_io import model_crc, save_model
from gazeflow.net import (
    PHASE1_ADAM,
    PHASE2_ADAM,
    AdamConfig,
    AdamState,
    NetworkParams,
    PhaseConfig,
    TrainConfig,
    _views,
    adam_step,
    backward_batch,
    forward_batch,
    init_params,
    loss_cross_entropy,
    softmax,
    train,
)
from gazeflow.simulate import StimulusConfig, generate_corpus
from gazeflow.tuning import tune_baselines

ACCEPT_SEED = 1234


def report(n, detail):
    print(f"\n[criterion {n}] PASS {detail}")


# ---------------------------------------------------------------------------
# criterion 1: FFT correctness


def test_criterion_01_fft_matches_naive_dft_and_parseval():
    # the frontend's own DFT: 1,000 signals laid end to end on each channel of
    # one recording, featurized one window per signal and without demeaning
    t0 = time.perf_counter()
    n, count = 30, 1000
    k = np.arange(n)
    dft_matrix = np.exp(-2j * np.pi * np.outer(k, k) / n)  # direct definition
    rng = np.random.default_rng(1001)
    sigs = np.array([rng.normal(scale=rng.uniform(0.1, 10.0), size=n) for _ in range(2 * count)])
    x, y = sigs[:count].ravel(), sigs[count:].ravel()
    seq = GazeSequence(np.arange(n * count) * (1000.0 / 300.0), x, y, np.ones(n * count, bool))
    cfg = FrontendConfig(stride=n, demean=False)
    centers, feats = featurize_sequence(seq, cfg)
    assert centers.tolist() == list(range(cfg.center_offset, n * count, n))
    ours = np.concatenate([feats[:, :, 0], feats[:, :, 1]])  # one row per signal, in sigs order
    oracle = np.abs(sigs @ dft_matrix.T)
    max_err = float(np.max(np.abs(ours - oracle)))
    lhs = np.sum(ours**2, axis=1)
    rhs = n * np.sum(sigs**2, axis=1)
    max_parseval = float(np.max(np.abs(lhs - rhs) / rhs))
    elapsed = time.perf_counter() - t0
    assert max_err < 1e-9
    assert max_parseval < 1e-9
    assert elapsed < 5.0
    report(1, f"max_abs_err={max_err:.2e} parseval_rel={max_parseval:.2e} over {count} signals x 2 channels, time={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: gradient exactness


def test_criterion_02_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    h = 1e-5
    worst = 0.0
    for trial in range(50):
        params = init_params(seed=trial)
        params = replace(
            params, **{n_: a + rng.normal(0, 0.05, a.shape) for n_, a in params.arrays()}
        )
        feat = rng.normal(scale=2.0, size=(1, 30, 2))  # a batch of one window
        truth = np.array([rng.integers(3)])
        grads = _views(backward_batch(params, forward_batch(params, feat), truth), params.shapes)
        for (name, arr), g in zip(params.arrays(), grads):
            for flat_k in range(arr.size):
                plus = arr.copy().ravel()
                plus[flat_k] += h
                minus = arr.copy().ravel()
                minus[flat_k] -= h
                lp = loss_cross_entropy(
                    forward_batch(replace(params, **{name: plus.reshape(arr.shape)}), feat).probs, truth
                )
                lm = loss_cross_entropy(
                    forward_batch(replace(params, **{name: minus.reshape(arr.shape)}), feat).probs, truth
                )
                fd = (lp - lm) / (2 * h)
                an = g.ravel()[flat_k]
                rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
                worst = max(worst, rel)
                assert rel < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, f"worst_rel_err={worst:.2e} over 50 triples x 333 components, time={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: Adam unit oracle


def scalar_net(theta):
    return NetworkParams(
        conv_w=np.full((10, 10, 2), theta),
        conv_b=np.zeros(10),
        dense_w=np.zeros((3, 40)),
        dense_b=np.zeros(3),
    )


def scalar_grad(g):
    """A gradient vector in payload order: g on every conv weight, zero elsewhere."""
    return np.concatenate([np.full(10 * 10 * 2, g), np.zeros(10 + 3 * 40 + 3)])


def test_criterion_03_adam_scalar_oracles():
    # phase-1 parameters: m=0.2, v=0.04, m_hat=2, v_hat=4
    p, _ = adam_step(scalar_net(1.0), scalar_grad(2.0), AdamState.zeros(scalar_net(1.0)), PHASE1_ADAM)
    got1 = float(p.conv_w[0, 0, 0])
    want1 = 1.0 - 0.001 * 2.0 / (2.0 + 1e-8)
    assert abs(got1 - want1) < 1e-12
    assert abs(got1 - 0.999000000005) < 1e-12

    # literal second-phase parameters including beta2 = 0.1:
    # m=0.3, v=3.6, m_hat=2, v_hat=4
    p2, _ = adam_step(scalar_net(1.0), scalar_grad(2.0), AdamState.zeros(scalar_net(1.0)), PHASE2_ADAM)
    got2 = float(p2.conv_w[0, 0, 0])
    want2 = 1.0 - 0.002 * 2.0 / (2.0 + 1e-8)
    assert abs(got2 - want2) < 1e-12
    assert abs(got2 - 0.99800000001) < 1e-12

    # independent two-step hand loop with a third parameter set
    cfg = AdamConfig(alpha=0.05, beta1=0.5, beta2=0.25, epsilon=1e-8)
    params = scalar_net(2.0)
    state = AdamState.zeros(params)
    theta, m, v = 2.0, 0.0, 0.0
    for t, g in enumerate((1.0, -3.0), start=1):
        params, state = adam_step(params, scalar_grad(g), state, cfg)
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        theta -= cfg.alpha * (m / (1 - cfg.beta1**t)) / (np.sqrt(v / (1 - cfg.beta2**t)) + cfg.epsilon)
        assert abs(float(params.conv_w[5, 5, 1]) - theta) < 1e-12
    report(3, f"phase1={got1!r} phase2={got2!r} (beta2=0.1) both within 1e-12")


# ---------------------------------------------------------------------------
# criterion 4: shape chain and softmax normalization


def test_criterion_04_shape_chain_and_softmax():
    params = init_params(0, kernel_len=10)
    cache = forward_batch(params, np.zeros((2, 30, 2)))
    chain = {
        "input": (30, 2),
        "conv": (cache.cols.shape[1], params.n_filters),
        "pool": (params.n_regions, params.n_filters),
        "flat": cache.flat.shape[1],
        "logits": cache.logits.shape[1],
    }
    assert chain["conv"] == (21, 10)
    assert chain["pool"] == (4, 10)
    assert chain["flat"] == 40
    assert chain["logits"] == 3

    rng = np.random.default_rng(1004)
    logits = rng.uniform(-1e4, 1e4, size=(2000, 3))
    logits[0] = (1e4, 1e4, 1e4)
    logits[1] = (-1e4, 1e4, -1e4)
    probs = softmax(logits)
    assert np.all(np.isfinite(probs))
    assert float(np.max(np.abs(probs.sum(axis=1) - 1.0))) < 1e-12
    report(4, "30x2 -> 21x10 -> 4x10 -> 40 -> 3; softmax sums 1 +- 1e-12 at |logits|=1e4")


# ---------------------------------------------------------------------------
# criterion 5: metric oracles


def test_criterion_05_metric_oracles():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(20):
        scores = np.round(rng.normal(size=500), 2)
        truth = rng.uniform(size=500) < rng.uniform(0.2, 0.8)
        if truth.all() or not truth.any():
            truth[:5] = True
            truth[5:10] = False
        auc = roc_auc(scores, truth).auc
        pos = scores[truth][:, None]
        neg = scores[~truth][None, :]
        oracle = float(((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size))
        worst = max(worst, abs(auc - oracle))
        assert abs(auc - oracle) < 1e-9

    # confusion / prf / event-majority / confidence against recount oracles
    from gazeflow.detectors import DetectorOutput

    truth = rng.integers(0, 3, 2000)
    scores = rng.dirichlet(np.ones(3), size=2000)
    labels = scores.argmax(axis=1)
    covered = rng.uniform(size=2000) < 0.9
    idx = np.flatnonzero(covered)
    preds = DetectorOutput(2000, idx, scores[idx])

    cm = confusion(preds, truth)
    tally = np.zeros((3, 3), dtype=int)
    for i in idx:
        tally[truth[i], labels[i]] += 1
    assert np.array_equal(cm.counts, tally)

    rep = prf_from_confusion(cm)
    for c in range(3):
        tp = tally[c, c]
        fp = tally[:, c].sum() - tp
        fn = tally[c, :].sum() - tp
        tn = tally.sum() - tp - fp - fn
        assert rep.accuracy[c] == (tp + tn) / tally.sum()
        assert rep.precision[c] == (tp / (tp + fp) if tp + fp else 0.0)
        assert rep.recall[c] == (tp / (tp + fn) if tp + fn else 0.0)

    events = events_from_labels(truth)
    table = event_majority(preds, events)
    wins = np.zeros((3, 3))
    none = np.zeros(3)
    totals = np.zeros(3)
    for ev in events:
        counts = [0, 0, 0]
        for i in range(ev.start_idx, ev.end_idx + 1):
            if covered[i]:
                counts[labels[i]] += 1
        totals[ev.label] += 1
        b = int(np.argmax(counts))
        if counts[b] * 2 > ev.n_samples:
            wins[ev.label, b] += 1
        else:
            none[ev.label] += 1
    assert np.array_equal(table.fractions, wins / totals[:, None])
    assert np.array_equal(table.no_majority, none / totals)
    assert np.array_equal(table.event_counts, totals.astype(int))

    thresholds = np.linspace(0, 1, 6)
    bins = confidence_accuracy(preds, truth, thresholds)
    for cls in LabelClass:
        for b in bins[cls]:
            sel = (labels[idx] == int(cls)) & (scores[idx, int(cls)] >= b.threshold)
            assert b.support == int(sel.sum())
            if b.support:
                assert b.accuracy == float((truth[idx][sel] == int(cls)).mean())
    report(5, f"trapezoid vs pairwise worst gap={worst:.2e}; recount oracles exact")


# ---------------------------------------------------------------------------
# criterion 6: generator separability gate


def parts(seqs, part):
    """The validation and test recordings of a split."""
    return [s for s, k in zip(seqs, part) if k == 1], [s for s, k in zip(seqs, part) if k == 2]


@pytest.fixture(scope="module")
def noiseless_corpus():
    cfg = StimulusConfig(
        seed=ACCEPT_SEED, noise_sigma_deg=0.0, tremor_sigma_deg=0.0, sequence_duration_s=7.0
    )
    return [t.sequence for t in generate_corpus(cfg, 24)]


def test_criterion_06_noiseless_separability_gate(noiseless_corpus):
    t0 = time.perf_counter()
    seqs = noiseless_corpus
    total_frames = sum(len(s) for s in seqs)
    assert total_frames >= 30_000

    pairs = set()
    for s in seqs:
        lab = s.labels
        pairs |= set(zip(lab[:-1].tolist(), lab[1:].tolist()))
    assert pairs == {(i, j) for i in range(3) for j in range(3)}

    tuned = tune_baselines(seqs)
    pooled = concat_outputs([ivt_idt_detect(s, tuned["ivt-idt"]) for s in seqs])
    truth = np.concatenate([s.labels for s in seqs])
    acc = frame_accuracy(pooled, truth)
    elapsed = time.perf_counter() - t0
    assert acc >= 0.99
    assert elapsed < 30.0
    report(6, f"frames={total_frames} cascade_accuracy={acc:.4f} transitions=9/9 time={elapsed:.1f}s")


def test_noiseless_compare_gate(noiseless_corpus):
    # scaled companion to criterion 6: with a briefly trained network, all
    # five detectors reach mean ROC area >= 0.99 on noiseless data
    seqs = noiseless_corpus
    split = split_dataset(seqs, seed=ACCEPT_SEED)
    hot = AdamConfig(alpha=0.005, beta1=0.9, beta2=0.99, epsilon=1e-8)
    params, _ = train(
        split,
        TrainConfig(phase1=PhaseConfig(20, hot), phase2=PhaseConfig(0, PHASE2_ADAM), seed=ACCEPT_SEED),
    )
    _, rows = compare_detectors(params, *parts(seqs, split.part))
    for r in rows:
        assert r["mean_auc"] >= 0.99, f"{r['detector']} mean AUC {r['mean_auc']:.4f} below the separability gate"
    print("\n[separability compare gate] PASS " + " ".join(f"{r['detector']}={r['mean_auc']:.4f}" for r in rows))


# ---------------------------------------------------------------------------
# criteria 7 and 8: end-to-end learning gate and determinism


@pytest.fixture(scope="module")
def learning_pipeline(tmp_path_factory):
    """Full default pipeline on a ~100k-frame corpus; returns everything
    criterion 7 and 8 need, including a second independent training run."""
    t0 = time.perf_counter()
    cfg = StimulusConfig(seed=ACCEPT_SEED, sequence_duration_s=7.0)
    traces = generate_corpus(cfg, 48)
    seqs = [t.sequence for t in traces]
    split = split_dataset(seqs, FrontendConfig(), ACCEPT_SEED)

    params, _ = train(split, TrainConfig(seed=ACCEPT_SEED))
    val_seqs, test_seqs = parts(seqs, split.part)
    _, rows = compare_detectors(params, val_seqs, test_seqs)

    out_dir = tmp_path_factory.mktemp("acceptance")
    model_a = out_dir / "model-a.gznn"
    save_model(params, model_a)

    return {
        "n_frames": sum(len(s) for s in seqs),
        "split": split,
        "val_seqs": val_seqs,
        "test_seqs": test_seqs,
        "rows": rows,
        "model_a": model_a,
        "elapsed": time.perf_counter() - t0,
        "out_dir": out_dir,
    }


@pytest.mark.slow
def test_criterion_07_end_to_end_learning_gate(learning_pipeline):
    lp = learning_pipeline
    assert 80_000 <= lp["n_frames"] <= 120_000
    rows = {r["detector"]: r for r in lp["rows"]}
    mean_auc = rows["cnn"]["mean_auc"]
    aucs = [rows["cnn"][f"auc_{c}"] for c in CLASS_NAMES]
    baseline_means = {name: rows[name]["mean_auc"] for name in BASELINE_DETECTORS}
    assert mean_auc >= 0.85
    for name, val in baseline_means.items():
        assert mean_auc > val, f"network {mean_auc:.4f} not above {name} {val:.4f}"
    assert lp["elapsed"] < 900.0
    report(
        7,
        f"frames={lp['n_frames']} cnn per-class={np.round(aucs, 4).tolist()} "
        f"mean={mean_auc:.4f} vs baselines "
        + " ".join(f"{k}={v:.4f}" for k, v in baseline_means.items())
        + f" time={lp['elapsed']:.0f}s",
    )


@pytest.mark.slow
def test_criterion_08_training_determinism(learning_pipeline):
    lp = learning_pipeline
    params_b, _ = train(lp["split"], TrainConfig(seed=ACCEPT_SEED))
    model_b = lp["out_dir"] / "model-b.gznn"
    save_model(params_b, model_b)
    assert model_crc(lp["model_a"]) == model_crc(model_b)
    assert lp["model_a"].read_bytes() == model_b.read_bytes()

    # identical metric reports from the re-trained model (repr: NaN areas compare equal)
    _, rows_b = compare_detectors(params_b, lp["val_seqs"], lp["test_seqs"])
    assert repr(rows_b) == repr(lp["rows"])
    report(8, f"model CRC match ({model_crc(model_b):#010x}); metric reports identical")


# ---------------------------------------------------------------------------
# criterion 9: published-table macro arithmetic


def test_criterion_09_macro_average_regression():
    per_class_accuracy = np.array([0.65, 0.87, 0.69])
    macro = float(per_class_accuracy.mean())
    assert round(macro, 2) == 0.74
    # same arithmetic through the report path: build a confusion matrix is
    # unnecessary, the macro property is a plain unweighted mean
    from gazeflow.metrics import PrfReport

    rep = PrfReport(
        accuracy=per_class_accuracy,
        precision=np.zeros(3),
        recall=np.zeros(3),
        f1=np.zeros(3),
    )
    assert round(rep.macro_accuracy, 2) == 0.74
    report(9, f"macro of (0.65, 0.87, 0.69) = {macro:.4f} -> 0.74 at two decimals")


# ---------------------------------------------------------------------------
# criterion 10: CLI round trip


def test_criterion_10_cli_round_trip(tmp_path):
    from gazeflow.cli import main
    from gazeflow.gaze_io import read_gaze_csv, read_manifest, read_predictions_csv

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "[training]\nphase1_epochs = 2\nphase2_epochs = 2\n\n"
        "[stimulus]\nsequence_duration_s = 3.0\n"
    )
    data_dir = tmp_path / "corpus"
    assert main(
        ["synth", "--config", str(cfg_path), "--out-dir", str(data_dir), "--sequences", "10", "--seed", "3"]
    ) == 0
    csvs = sorted(data_dir.glob("seq-*.csv"))
    assert len(csvs) == 10
    for p in csvs:
        read_gaze_csv(p)  # re-parses under the schema
    read_manifest(data_dir / "manifest.json")

    model = tmp_path / "model.gznn"
    assert main(
        ["train", "--data-dir", str(data_dir), "--config", str(cfg_path), "--out", str(model), "--seed", "3"]
    ) == 0
    from gazeflow.model_io import load_model

    load_model(model)

    preds = tmp_path / "preds.csv"
    assert main(
        ["detect", "--model", str(model), "--in", str(csvs[0]), "--out", str(preds), "--config", str(cfg_path)]
    ) == 0
    read_predictions_csv(preds)

    report_dir = tmp_path / "report"
    assert main(
        ["eval", "--preds", str(preds), "--truth", str(csvs[0]), "--report-dir", str(report_dir)]
    ) == 0
    import csv as csv_mod
    import json

    json.loads((report_dir / "summary.json").read_text())
    for name in ("confusion.csv", "prf.csv", "event_majority.csv", "confidence.csv"):
        with open(report_dir / name, newline="") as fh:
            rows = list(csv_mod.reader(fh))
            assert len(rows) > 1

    trace = tmp_path / "trace.csv"
    assert main(["trace", "--preds", str(preds), "--in", str(csvs[0]), "--out", str(trace)]) == 0
    with open(trace, newline="") as fh:
        rows = list(csv_mod.reader(fh))
        assert rows[0] == ["t_ms", "x_deg", "y_deg", "p_fix", "p_sac", "p_pur", "truth", "pred"]

    report(10, "synth -> train -> detect -> eval -> trace all exit 0; files re-parse")
