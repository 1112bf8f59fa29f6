import numpy as np
import pytest

from gazeflow.detectors import (
    BASELINE_DETECTORS,
    BaselineConfig,
    DetectorError,
    concat_outputs,
    ivmp_detect,
    ivt_detect,
    ivt_idt_detect,
    pca_ratio_detect,
)
from gazeflow.metrics import confusion_counts, frame_accuracy
from gazeflow.simulate import StimulusConfig, generate_corpus
from gazeflow.tuning import TuningGrids, tune_baselines


@pytest.fixture(scope="module")
def noiseless_corpus():
    cfg = StimulusConfig(
        seed=31, noise_sigma_deg=0.0, tremor_sigma_deg=0.0, sequence_duration_s=5.0
    )
    return [t.sequence for t in generate_corpus(cfg, 6)]


def macro_f1_2tp(truth, pred):
    """Mean over the three classes of 2tp / (2tp + fp + fn), 0 for an absent class."""
    f1 = []
    for c in range(3):
        tp = np.sum((truth == c) & (pred == c))
        fp = np.sum((truth != c) & (pred == c))
        fn = np.sum((truth == c) & (pred != c))
        f1.append(2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
    return np.mean(f1)


def brute_force_tuning(sequences, grids):
    """Run each detector at every grid point; keep the first best macro F1.

    Every detector is scored on the samples whose analysis window is fully
    valid (the two-stage coverage), as tune_baselines does.
    """
    cover = [ivt_idt_detect(s).sample_idx for s in sequences]
    truth = np.concatenate([s.labels[c] for s, c in zip(sequences, cover)])

    def score(detect, cfg):
        pred = [detect(s, cfg).full_labels()[c] for s, c in zip(sequences, cover)]
        return macro_f1_2tp(truth, np.concatenate(pred))

    searches = {
        "ivt": (ivt_detect, None, [None]),
        "ivt-idt": (ivt_idt_detect, "dispersion_threshold_deg", grids.dispersion),
        "ivmp": (ivmp_detect, "angle_threshold_rad", grids.angle),
        "pca": (pca_ratio_detect, "pca_ratio_threshold", grids.pca_ratio),
    }
    best = {}
    for name, (detect, field, grid) in searches.items():
        best_f1 = -1.0
        for tau_v in grids.velocity:
            for tau_2 in grid:
                extra = {field: float(tau_2)} if field else {}
                cfg = BaselineConfig(velocity_threshold_deg_s=float(tau_v), **extra)
                f1 = score(detect, cfg)
                if f1 > best_f1:
                    best_f1, best[name] = f1, cfg
    return best


class TestTuneBaselines:
    def test_matches_brute_force_search(self, noiseless_corpus):
        # unsorted grids: on this corpus several angle thresholds tie, and the
        # first in search order must win whatever its value
        grids = TuningGrids(
            velocity=np.array([300.0, 40.0, 120.0, 10.0]),
            dispersion=np.array([3.0, 1.5, 0.6, 0.2]),
            angle=np.array([0.9, 0.6, 0.35, 0.1]) * np.pi,
            pca_ratio=np.array([50.0, 12.0, 4.0, 1.5]),
        )
        assert tune_baselines(noiseless_corpus, grids) == brute_force_tuning(noiseless_corpus, grids)

    def test_returns_all_four(self, noiseless_corpus):
        tuned = tune_baselines(noiseless_corpus)
        assert set(tuned) == set(BASELINE_DETECTORS)

    def test_thresholds_come_from_grids(self, noiseless_corpus):
        grids = TuningGrids()
        tuned = tune_baselines(noiseless_corpus, grids)
        assert tuned["ivt"].velocity_threshold_deg_s in grids.velocity
        assert tuned["ivt-idt"].dispersion_threshold_deg in grids.dispersion
        assert tuned["ivmp"].angle_threshold_rad in grids.angle
        assert tuned["pca"].pca_ratio_threshold in grids.pca_ratio

    def test_velocity_threshold_separates_classes(self, noiseless_corpus):
        # on noiseless data the tuned velocity threshold must sit inside the
        # saccade/pursuit velocity gap, giving a near-perfect cascade
        tuned = tune_baselines(noiseless_corpus)
        outs = [ivt_idt_detect(s, tuned["ivt-idt"]) for s in noiseless_corpus]
        truth = np.concatenate([s.labels for s in noiseless_corpus])
        acc = frame_accuracy(concat_outputs(outs), truth)
        assert acc >= 0.99

    def test_deterministic(self, noiseless_corpus):
        a = tune_baselines(noiseless_corpus)
        b = tune_baselines(noiseless_corpus)
        assert a == b

    def test_requires_labels(self):
        cfg = StimulusConfig(seed=1, sequence_duration_s=2.0)
        seq = generate_corpus(cfg, 1)[0].sequence
        from dataclasses import replace

        unlabeled = replace(seq, labels=None)
        with pytest.raises(DetectorError):
            tune_baselines([unlabeled])

    def test_empty_rejected(self):
        with pytest.raises(DetectorError):
            tune_baselines([])


class TestTuningLabelsAreDetectorLabels:
    def test_sampled_grid_points(self, noiseless_corpus, monkeypatch):
        # every prediction set that tuning scores, against the detector run
        # at that grid point on the samples tuning scores
        from gazeflow import tuning

        noisy = [t.sequence for t in generate_corpus(StimulusConfig(seed=32, sequence_duration_s=4.0), 3)]
        sequences = noiseless_corpus[:3] + noisy
        grids = TuningGrids(
            velocity=np.geomspace(10.0, 300.0, 5),
            dispersion=np.geomspace(0.2, 3.0, 4),
            angle=np.linspace(0.1 * np.pi, 0.9 * np.pi, 4),
            pca_ratio=np.geomspace(1.5, 50.0, 4),
        )
        scored = []

        def spy(truth, pred):
            scored.append(np.asarray(pred))
            return confusion_counts(truth, pred)

        monkeypatch.setattr(tuning, "confusion_counts", spy)
        tune_baselines(sequences, grids)
        cover = [ivt_idt_detect(s).sample_idx for s in sequences]

        def labels(detect, cfg):
            return np.concatenate([detect(s, cfg).full_labels()[c] for s, c in zip(sequences, cover)])

        ivt_pred, stage2_pred = scored[0], scored[1:]
        for i, tau_v in enumerate(grids.velocity):
            cfg = BaselineConfig(velocity_threshold_deg_s=float(tau_v))
            assert np.array_equal(ivt_pred[i], labels(ivt_detect, cfg))
        searches = [
            (ivt_idt_detect, "dispersion_threshold_deg", grids.dispersion),
            (ivmp_detect, "angle_threshold_rad", grids.angle),
            (pca_ratio_detect, "pca_ratio_threshold", grids.pca_ratio),
        ]
        rng = np.random.default_rng(3)
        assert len(stage2_pred) == grids.velocity.size * len(searches)
        for k, pred in enumerate(stage2_pred):
            i, (detect, field, grid) = k // len(searches), searches[k % len(searches)]
            for j in rng.choice(grid.size, size=2, replace=False):
                cfg = BaselineConfig(velocity_threshold_deg_s=float(grids.velocity[i]), **{field: float(grid[j])})
                assert np.array_equal(pred[j], labels(detect, cfg))
