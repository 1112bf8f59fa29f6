from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazeflow.detectors import DetectorOutput
from gazeflow.gaze import Event, LabelClass, events_from_labels
from gazeflow.metrics import (
    ConfusionMatrix,
    EvalError,
    confidence_accuracy,
    confusion,
    confusion_counts,
    event_majority,
    frame_accuracy,
    one_vs_all_auc,
    prf,
    prf_from_confusion,
    prf_from_counts,
    roc_auc,
)

F, S, P = LabelClass.FIXATION, LabelClass.SACCADE, LabelClass.PURSUIT


def output_from_labels(labels, scores=None, covered=None):
    labels = np.asarray(labels)
    n = labels.shape[0]
    idx = np.arange(n) if covered is None else np.flatnonzero(covered)
    if scores is None:
        scores = np.full((idx.size, 3), 0.1)
        scores[np.arange(idx.size), labels[idx]] = 0.8
    return DetectorOutput(n_samples=n, sample_idx=idx, scores=np.asarray(scores))


def pairwise_auc_oracle(scores, truth):
    """Brute-force Mann-Whitney: P(pos > neg) + 0.5 P(tie)."""
    pos = scores[truth]
    neg = scores[~truth]
    wins = ties = 0
    for p_ in pos:
        for n_ in neg:
            if p_ > n_:
                wins += 1
            elif p_ == n_:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestConfusion:
    def test_perfect_predictions_identity(self):
        truth = np.array([0, 1, 2, 0, 1, 2, 2])
        cm = confusion(output_from_labels(truth), truth)
        assert np.array_equal(np.diag(cm.counts), np.bincount(truth, minlength=3))
        assert np.allclose(cm.row_normalized, np.eye(3))

    def test_all_fixation_predictor(self):
        truth = np.array([0, 1, 2, 1, 2])
        preds = output_from_labels(np.zeros(5, dtype=int))
        cm = confusion(preds, truth)
        assert np.allclose(cm.row_normalized[:, 0], 1.0)
        assert np.all(cm.counts[:, 1:] == 0)

    def test_random_against_tally_oracle(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 3, 500)
        pred = rng.integers(0, 3, 500)
        covered = rng.uniform(size=500) < 0.8
        cm = confusion(output_from_labels(pred, covered=covered), truth)
        tally = {}
        for t, p_, c in zip(truth, pred, covered):
            if c:
                tally[(int(t), int(p_))] = tally.get((int(t), int(p_)), 0) + 1
        for i in range(3):
            for j in range(3):
                assert cm.counts[i, j] == tally.get((i, j), 0)

    def test_only_covered_samples_counted(self):
        truth = np.array([0, 0, 1, 1])
        covered = np.array([True, False, True, False])
        cm = confusion(output_from_labels(np.array([0, 2, 1, 2]), covered=covered), truth)
        assert cm.counts.sum() == 2

    def test_empty_coverage_error(self):
        out = DetectorOutput(
            n_samples=3, sample_idx=np.array([], dtype=int),
            scores=np.empty((0, 3)),
        )
        with pytest.raises(EvalError):
            confusion(out, np.array([0, 1, 2]))


class TestPrf:
    def test_perfect(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        report = prf(output_from_labels(truth), truth)
        for arr in (report.accuracy, report.precision, report.recall, report.f1):
            assert np.allclose(arr, 1.0)

    def test_degenerate_single_class_predictor_on_balanced_truth(self):
        truth = np.array([0, 1, 2] * 10)
        report = prf(output_from_labels(np.zeros(30, dtype=int)), truth)
        assert report.precision[0] == pytest.approx(1 / 3)
        assert report.recall[0] == 1.0
        assert report.precision[1] == 0.0 and report.recall[1] == 0.0

    def test_published_macro_average_arithmetic(self):
        # feeding per-class accuracies (0.65, 0.87, 0.69) must reproduce the
        # rounded macro value 0.74
        acc = np.array([0.65, 0.87, 0.69])
        macro = float(acc.mean())
        assert round(macro, 2) == 0.74

    def test_macro_is_unweighted_mean(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, 200)
        pred = rng.integers(0, 3, 200)
        report = prf(output_from_labels(pred), truth)
        assert report.macro_f1 == pytest.approx(report.f1.mean(), abs=1e-15)
        assert report.macro_accuracy == pytest.approx(report.accuracy.mean(), abs=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 3, 120)
        pred = rng.integers(0, 3, 120)
        perm = rng.permutation(120)
        a = prf(output_from_labels(pred), truth)
        b = prf(output_from_labels(pred[perm]), truth[perm])
        assert np.allclose(a.f1, b.f1) and np.allclose(a.accuracy, b.accuracy)


    def test_counts_with_leading_axes_match_each_report(self):
        # tuning scores a whole grid at once: every slice must be bit-equal
        # to the report of that slice's confusion matrix
        rng = np.random.default_rng(5)
        truth = rng.integers(0, 3, 300)
        pred = rng.integers(0, 3, (4, 5, 300))
        pred[0, 0] = 0  # a class never predicted: zero precision and F1
        pred[0, 1, truth == 2] = 2  # a perfect pursuit column
        counts = np.stack([[confusion_counts(truth, p) for p in row] for row in pred])
        report = prf_from_counts(counts)
        for i in range(4):
            for j in range(5):
                want = prf_from_confusion(ConfusionMatrix(counts[i, j]))
                for field in ("accuracy", "precision", "recall", "f1"):
                    got = getattr(report, field)[i, j]
                    assert np.array_equal(got.view(np.uint64), getattr(want, field).view(np.uint64))
        assert np.array_equal(prf_from_counts(np.zeros((2, 3, 3), int)).f1, np.zeros((2, 3)))

    def test_empty_confusion_matrix_rejected(self):
        with pytest.raises(EvalError):
            prf_from_confusion(ConfusionMatrix(np.zeros((3, 3), int)))


def stable_sort_roc(scores, truth):
    """roc_auc as it was with a stable sort: tied scores in input order."""
    order = np.argsort(-scores, kind="stable")
    s_sorted, t_sorted = scores[order], truth[order]
    distinct = np.concatenate([np.flatnonzero(np.diff(s_sorted)), [scores.size - 1]])
    tp = np.cumsum(t_sorted)[distinct]
    fp = (distinct + 1) - tp
    tpr = np.concatenate([[0.0], tp / truth.sum()])
    fpr = np.concatenate([[0.0], fp / (truth.size - truth.sum())])
    return SimpleNamespace(fpr=fpr, tpr=tpr, auc=float(np.trapezoid(tpr, fpr)))


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        truth = np.array([True, True, False, False])
        assert roc_auc(scores, truth).auc == 1.0

    def test_all_ties_half(self):
        scores = np.ones(10)
        truth = np.array([True] * 4 + [False] * 6)
        assert roc_auc(scores, truth).auc == pytest.approx(0.5, abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            scores = np.round(rng.normal(size=200), 2)  # rounding forces ties
            truth = rng.uniform(size=200) < 0.4
            if truth.all() or not truth.any():
                continue
            assert roc_auc(scores, truth).auc == pytest.approx(
                pairwise_auc_oracle(scores, truth), abs=1e-9
            )

    def test_curve_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(4)
        curve = roc_auc(rng.normal(size=50), rng.uniform(size=50) < 0.5)
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_single_class_error(self):
        with pytest.raises(EvalError):
            roc_auc(np.array([0.1, 0.2]), np.array([True, True]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # tied infinities differ by NaN, so they would not group
        with pytest.raises(EvalError, match="finite"):
            roc_auc(np.array([0.1, bad, bad]), np.array([True, False, True]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_curve_equals_the_stable_sort_oracle(self, data):
        # heavy ties: scores rounded to 1-3 decimals, sometimes one constant
        # value (as ivt's pursuit channel), signed zeros among them
        n = data.draw(st.integers(2, 300), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        truth = rng.random(n) < data.draw(st.floats(0.05, 0.95), label="positive share")
        truth[rng.choice(n, 2, replace=False)] = [True, False]
        decimals = data.draw(st.integers(1, 3), label="decimals")
        scores = np.round(rng.random(n), decimals) - data.draw(st.sampled_from([0.0, 0.5]), label="shift")
        if data.draw(st.booleans(), label="constant"):
            scores = np.full(n, scores[0])
        want = stable_sort_roc(scores, truth)
        got = roc_auc(scores, truth)
        assert np.array_equal(got.fpr.view(np.uint64), want.fpr.view(np.uint64))
        assert np.array_equal(got.tpr.view(np.uint64), want.tpr.view(np.uint64))
        assert np.float64(got.auc).view(np.uint64) == np.float64(want.auc).view(np.uint64)


class TestOneVsAll:
    def test_perfect_probability_predictor(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        scores = np.full((6, 3), 0.05)
        scores[np.arange(6), truth] = 0.9
        out = DetectorOutput(6, np.arange(6), scores)
        res = one_vs_all_auc(out, truth)
        assert np.allclose(res.aucs, 1.0)
        assert res.mean_auc == 1.0

    def test_uniform_predictor_half(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        out = DetectorOutput(6, np.arange(6), np.full((6, 3), 1 / 3))
        res = one_vs_all_auc(out, truth)
        assert np.allclose(res.aucs, 0.5)

    def test_missing_class_named(self):
        truth = np.array([0, 0, 1, 1])
        out = output_from_labels(truth)
        with pytest.raises(EvalError, match="pursuit"):
            one_vs_all_auc(out, truth)


class TestEventMajority:
    def test_strict_majority_win(self):
        truth = np.array([0, 0, 0, 0, 0])
        preds = output_from_labels(np.array([0, 0, 0, 1, 2]))
        table = event_majority(preds, [Event(F, 0, 4)])
        assert table.fractions[0, 0] == 1.0  # 3/5 > 1/2
        assert table.no_majority[0] == 0.0

    def test_exact_half_is_no_majority(self):
        preds = output_from_labels(np.array([0, 0, 1, 1]))
        table = event_majority(preds, [Event(F, 0, 3)])
        assert table.fractions[0].sum() == 0.0
        assert table.no_majority[0] == 1.0

    def test_uncovered_frames_count_in_denominator(self):
        # 5-frame event, only 3 covered and predicted correctly: 3/5 > 1/2 wins;
        # with only 2 covered it cannot reach a strict majority
        covered = np.array([True, True, True, False, False])
        preds = output_from_labels(np.zeros(5, dtype=int), covered=covered)
        table = event_majority(preds, [Event(F, 0, 4)])
        assert table.fractions[0, 0] == 1.0
        covered2 = np.array([True, True, False, False, False])
        preds2 = output_from_labels(np.zeros(5, dtype=int), covered=covered2)
        table2 = event_majority(preds2, [Event(F, 0, 4)])
        assert table2.no_majority[0] == 1.0

    def test_rows_sum_to_one_with_no_majority(self):
        rng = np.random.default_rng(5)
        truth = rng.integers(0, 3, 400)
        pred = rng.integers(0, 3, 400)
        covered = rng.uniform(size=400) < 0.9
        events = events_from_labels(truth)
        table = event_majority(output_from_labels(pred, covered=covered), events)
        sums = table.fractions.sum(axis=1) + table.no_majority
        for i in range(3):
            if table.event_counts[i]:
                assert sums[i] == pytest.approx(1.0, abs=1e-9)

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(6)
        truth = rng.integers(0, 3, 300)
        pred = rng.integers(0, 3, 300)
        covered = rng.uniform(size=300) < 0.85
        events = events_from_labels(truth)
        preds = output_from_labels(pred, covered=covered)
        table = event_majority(preds, events)
        wins = np.zeros((3, 3))
        none = np.zeros(3)
        totals = np.zeros(3)
        for ev in events:
            counts = [0, 0, 0]
            for i in range(ev.start_idx, ev.end_idx + 1):
                if covered[i]:
                    counts[pred[i]] += 1
            totals[ev.label] += 1
            best = int(np.argmax(counts))
            if counts[best] > ev.n_samples / 2:
                wins[ev.label, best] += 1
            else:
                none[ev.label] += 1
        assert np.allclose(table.fractions, wins / np.maximum(totals, 1)[:, None])
        assert np.allclose(table.no_majority, none / np.maximum(totals, 1))

    def test_empty_events_error(self):
        with pytest.raises(EvalError):
            event_majority(output_from_labels(np.array([0, 1])), [])


class TestConfidenceAccuracy:
    def test_threshold_zero_equals_precision(self):
        rng = np.random.default_rng(7)
        truth = rng.integers(0, 3, 300)
        pred = rng.integers(0, 3, 300)
        preds = output_from_labels(pred)
        report = prf(preds, truth)
        bins = confidence_accuracy(preds, truth, np.array([0.0]))
        for cls in LabelClass:
            b = bins[cls][0]
            if b.support:
                assert b.accuracy == pytest.approx(report.precision[int(cls)], abs=1e-12)

    def test_threshold_one_empty_for_soft_scores(self):
        truth = np.array([0, 1, 2, 0])
        scores = np.array(
            [[0.7, 0.2, 0.1], [0.2, 0.6, 0.2], [0.1, 0.2, 0.7], [0.5, 0.3, 0.2]]
        )
        preds = DetectorOutput(4, np.arange(4), scores)
        bins = confidence_accuracy(preds, truth, np.array([1.0]))
        for cls in LabelClass:
            assert bins[cls][0].support == 0
            assert np.isnan(bins[cls][0].accuracy)

    def test_matches_filter_recount_oracle(self):
        rng = np.random.default_rng(8)
        truth = rng.integers(0, 3, 400)
        scores = rng.dirichlet(np.ones(3), size=400)
        labels = scores.argmax(axis=1)
        preds = DetectorOutput(400, np.arange(400), scores)
        thresholds = np.array([0.0, 0.4, 0.6, 0.9])
        bins = confidence_accuracy(preds, truth, thresholds)
        for cls in LabelClass:
            for b in bins[cls]:
                sel = (labels == int(cls)) & (scores[:, int(cls)] >= b.threshold)
                assert b.support == int(sel.sum())
                if b.support:
                    assert b.accuracy == pytest.approx(
                        float((truth[sel] == int(cls)).mean()), abs=1e-12
                    )

    def test_bad_threshold_rejected(self):
        preds = output_from_labels(np.array([0, 1, 2]))
        with pytest.raises(EvalError):
            confidence_accuracy(preds, np.array([0, 1, 2]), np.array([1.5]))


class TestFrameAccuracy:
    def test_simple(self):
        truth = np.array([0, 1, 2, 2])
        preds = output_from_labels(np.array([0, 1, 0, 2]))
        assert frame_accuracy(preds, truth) == 0.75
