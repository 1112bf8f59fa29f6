from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazeflow import tuning
from gazeflow.cli import main
from gazeflow.detectors import (
    BASELINE_DETECTORS,
    STAGE2,
    BaselineConfig,
    DetectorError,
    concat_outputs,
    ivmp_detect,
    ivt_detect,
    ivt_idt_detect,
    pca_ratio_detect,
)
from gazeflow.gaze import GazeSequence
from gazeflow.gaze_io import write_gaze_csv
from gazeflow.metrics import confusion_counts, frame_accuracy, prf_from_counts
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


def exhaustive_tuning(sequences, grids, window_len=30, max_gap=3):
    """The sweep without pruning: stage 2 at every velocity candidate, for every
    cascade, and the first best in (velocity, stage-2) order. Stage 1 and 2 are
    looked up on the tuning module, so a test's stand-ins for them apply here too."""
    prepared = [tuning._prepare(seq, window_len, max_gap) for seq in sequences]
    covered = [cov for *_, cov in prepared]
    truth = np.concatenate([seq.labels[cov] for seq, cov in zip(sequences, covered)]).astype(np.int64)
    v_cov = np.concatenate([v[cov] for *_, v, cov in prepared])
    n_true = np.bincount(truth, minlength=3)
    velocity = grids.velocity

    def macro_f1(sac, pur=0):
        return prf_from_counts(np.stack(np.broadcast_arrays(n_true - sac - pur, sac, pur), axis=-1)).f1.mean(axis=-1)

    sac = tuning._beyond_counts(truth, v_cov, velocity, 1)
    tuned = {"ivt": BaselineConfig(velocity_threshold_deg_s=float(velocity[np.argmax(macro_f1(sac))]), window_len=window_len)}
    stage2_grid = {"ivt-idt": grids.dispersion, "ivmp": grids.angle, "pca": grids.pca_ratio}
    kinds = tuple(kind for kind, _, _ in STAGE2.values())
    f1 = {name: np.empty((velocity.size, grid.size)) for name, grid in stage2_grid.items()}
    for i, tau_v in enumerate(velocity):
        stats = [tuning.stage2_statistics(x, y, ~(v > tau_v) & ~bad, window_len, kinds) for x, y, bad, v, _ in prepared]
        saccade = v_cov > tau_v
        for name, (kind, _, side) in STAGE2.items():
            stat = np.concatenate([st[kind][cov] for st, cov in zip(stats, covered)])
            stat[saccade] = np.nan
            f1[name][i] = macro_f1(sac[i], tuning._beyond_counts(truth, stat, stage2_grid[name], side))
    for name, (_, field, _) in STAGE2.items():
        i, j = np.unravel_index(np.argmax(f1[name]), f1[name].shape)
        tuned[name] = BaselineConfig(
            velocity_threshold_deg_s=float(velocity[i]), window_len=window_len, **{field: float(stage2_grid[name][j])}
        )
    return tuned


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


@pytest.fixture(scope="module")
def mixed_pool(noiseless_corpus):
    noisy = generate_corpus(StimulusConfig(seed=33, sequence_duration_s=3.0), 3)
    return noiseless_corpus + [t.sequence for t in noisy]


def far_recording(n=61):
    """Coordinates whose x and y ranges sum past the largest float, sampled so
    slowly that the speed alternates between 0 and about 1.3e5 deg/s. A velocity
    threshold above that speed leaves one stage-2 span, whose dispersion
    overflows; one below splits it into one-sample spans, which do not."""
    d = 4.6e307
    x = np.array([0.0, d, 2 * d, d])[np.arange(n) % 4]
    return GazeSequence(np.arange(1, n + 1) * 5e305, x, x.copy(), np.ones(n, bool), np.ones(n, np.int8), "far")


class TestPrunedSweep:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_the_exhaustive_sweep(self, mixed_pool, data):
        # small corpora with repaired and unrepaired gaps, sometimes without
        # one class, on shuffled grids that repeat values
        absent = data.draw(st.sampled_from([None, 0, 1, 2]), label="absent class")
        sequences = []
        for k in data.draw(st.lists(st.integers(0, len(mixed_pool) - 1), min_size=1, max_size=3, unique=True)):
            seq = mixed_pool[k]
            lost = np.zeros(len(seq), bool)
            for start, length in data.draw(st.lists(st.tuples(st.integers(0, len(seq) - 1), st.integers(1, 8)), max_size=4)):
                lost[start : start + length] = True
            labels = seq.labels if absent is None else np.where(seq.labels == absent, (absent + 1) % 3, seq.labels)
            x, y = (np.where(lost, np.nan, c) for c in (seq.x_deg, seq.y_deg))
            sequences.append(GazeSequence(seq.t_ms, x, y, seq.valid & ~lost, labels, seq.source_id))

        def grid(values, max_size):
            return data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=max_size))

        grids = TuningGrids(
            velocity=grid([10.0, 20.0, 35.0, 60.0, 100.0, 180.0, 300.0], 8),
            dispersion=grid([0.2, 0.4, 0.8, 1.5, 3.0], 5),
            angle=grid(list(np.linspace(0.1, 0.9, 5) * np.pi), 5),
            pca_ratio=grid([1.5, 3.0, 6.0, 15.0, 50.0], 5),
        )
        window_len = data.draw(st.sampled_from([10, 30]))
        assert tune_baselines(sequences, grids, window_len) == exhaustive_tuning(sequences, grids, window_len)

    def test_candidates_are_skipped_on_the_noiseless_corpus(self, noiseless_corpus, monkeypatch):
        rows = follow_sweep(monkeypatch)
        tuned = tune_baselines(noiseless_corpus)
        _, stage2_rows = rows()
        assert 0 < len(stage2_rows) < TuningGrids().velocity.size * len(STAGE2)
        assert tuned == exhaustive_tuning(noiseless_corpus, TuningGrids())

    def test_an_overflow_only_at_a_skipped_candidate_no_longer_fails_tuning(self, noiseless_corpus, tmp_path, capsys):
        # the full sweep fails at tau_v = 1e6, a candidate whose bound rules it out
        far = far_recording()
        sequences = noiseless_corpus[:3] + [far]
        grids = TuningGrids(velocity=[40.0, 1e6])
        with pytest.raises(DetectorError, match="the dispersion at sample 0 overflows"):
            exhaustive_tuning(sequences, grids)
        tuned = tune_baselines(sequences, grids)
        assert {cfg.velocity_threshold_deg_s for cfg in tuned.values()} == {40.0}
        # detecting at that candidate still fails with one error line; at the
        # tuned thresholds the recording is labeled
        write_gaze_csv(far, tmp_path / "far.csv")
        thresholds = {"skipped": "velocity_threshold_deg_s = 1e6\n", "tuned": "".join(
            f"{k} = {getattr(tuned['ivt-idt'], k)!r}\n" for k in ("velocity_threshold_deg_s", "dispersion_threshold_deg")
        )}
        for name, body in thresholds.items():
            (tmp_path / f"{name}.ini").write_text(f"[baselines]\n{body}", encoding="utf-8")
        capsys.readouterr()

        def detect(name):
            return main(["detect", "--baseline", "ivt-idt", "--config", str(tmp_path / f"{name}.ini"),
                         "--in", str(tmp_path / "far.csv"), "--out", str(tmp_path / f"{name}.csv")])

        assert detect("skipped") == 3
        assert capsys.readouterr().err.strip().splitlines() == [
            "data error: scores must be finite: the dispersion at sample 0 overflows (coordinates out of range)"
        ]
        assert not (tmp_path / "skipped.csv").exists()
        assert detect("tuned") == 0 and (tmp_path / "tuned.csv").exists()


class TestTuningGrids:
    def test_grids_stored_as_read_only_float64(self):
        grids = TuningGrids(velocity=[40, 10, 40])
        assert grids.velocity.dtype == np.float64 and grids.velocity.tolist() == [40.0, 10.0, 40.0]
        assert not grids.velocity.flags.writeable and not grids.angle.flags.writeable

    def test_grid_copied_from_the_caller(self):
        dispersion = np.array([0.5, 1.0])
        grids = TuningGrids(dispersion=dispersion)
        dispersion[0] = 9.0
        assert grids.dispersion.tolist() == [0.5, 1.0]

    def test_empty_grid_rejected(self):
        with pytest.raises(DetectorError, match="non-empty 1-D"):
            TuningGrids(dispersion=np.array([]))

    def test_two_dimensional_grid_rejected(self):
        with pytest.raises(DetectorError, match="non-empty 1-D"):
            TuningGrids(velocity=np.geomspace(10.0, 300.0, 20).reshape(4, 5))

    def test_nan_grid_point_rejected(self):
        with pytest.raises(DetectorError, match="finite positive"):
            TuningGrids(angle=np.array([0.5, np.nan]))

    def test_infinite_grid_point_rejected(self):
        with pytest.raises(DetectorError, match="finite positive"):
            TuningGrids(pca_ratio=np.array([2.0, np.inf]))

    def test_non_positive_grid_point_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(DetectorError, match="finite positive"):
                TuningGrids(velocity=np.array([40.0, bad]))

    def test_angle_above_pi_rejected(self):
        with pytest.raises(DetectorError, match="at most pi"):
            TuningGrids(angle=np.array([0.5, 1.01 * np.pi]))
        assert TuningGrids(angle=np.array([np.pi])).angle.tolist() == [np.pi]

    def test_equal_grids_compare_equal_and_hash_alike(self):
        a = TuningGrids()
        b = TuningGrids(velocity=list(np.geomspace(10.0, 300.0, 20)), angle=TuningGrids().angle.copy())
        assert a == b and not a != b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize("name", ["velocity", "dispersion", "angle", "pca_ratio"])
    def test_grids_differing_in_one_field_compare_unequal(self, name):
        grid = getattr(TuningGrids(), name)
        for other in (grid[:-1], grid[::-1], np.where(np.arange(grid.size) == 3, grid * 0.999, grid)):
            assert TuningGrids() != TuningGrids(**{name: other})
        assert TuningGrids() != SimpleNamespace(**{f: getattr(TuningGrids(), f) for f in ("velocity", "dispersion")})

    def test_grids_as_dict_keys(self):
        cache = {TuningGrids(): "default", TuningGrids(velocity=[40.0]): "one velocity"}
        assert cache[TuningGrids()] == "default"
        assert cache[TuningGrids(velocity=np.array([40]))] == "one velocity"
        assert len({TuningGrids(), TuningGrids(), TuningGrids(velocity=[40.0])}) == 2


def follow_sweep(monkeypatch, stage2=None):
    """Spy on tune_baselines' stage-2 calls (passed on to `stage2`, by default
    the real one) and on the counts it scores. Returns a function that, after
    the sweep, gives the ivt counts and one (cascade, counts, macro F1) per
    scored cascade row: the rows of a velocity candidate follow its stage-2
    calls, one per cascade still live, in STAGE2 order."""
    events = []
    stage2 = stage2 or tuning.stage2_statistics
    score = tuning.prf_from_counts

    def stage2_spy(x, y, mask, window_len, kinds):
        events.append(("stage2", kinds))
        return stage2(x, y, mask, window_len, kinds)

    def score_spy(counts):
        report = score(counts)
        events.append(("score", (np.asarray(counts), report.f1.mean(axis=-1))))
        return report

    monkeypatch.setattr(tuning, "stage2_statistics", stage2_spy)
    monkeypatch.setattr(tuning, "prf_from_counts", score_spy)

    def rows():
        (_, (ivt_counts, _)), *rest = events
        out, pending = [], []
        for what, payload in rest:
            if what == "stage2":
                pending = [name for name, (kind, _, _) in STAGE2.items() if kind in payload]
            else:
                out.append((pending.pop(0), *payload))
        return ivt_counts, out

    return rows


def velocity_row(ivt_counts, counts):
    """A velocity candidate whose saccades match the saccade column of a cascade's
    counts. Stage 1 thresholds are nested, so equal saccade counts per true class
    mean equal saccade sets: every match labels the same samples."""
    matches = [i for i in range(ivt_counts.shape[0]) if np.array_equal(ivt_counts[i, :, 1], counts[0, :, 1])]
    assert matches
    return matches[0]


class TestTuningLabelsAreDetectorLabels:
    def test_sampled_grid_points(self, noiseless_corpus, monkeypatch):
        # every set of counts that tuning scores, against the confusion counts
        # of the detector run at that grid point on the samples tuning scores
        noisy = [t.sequence for t in generate_corpus(StimulusConfig(seed=32, sequence_duration_s=4.0), 3)]
        sequences = noiseless_corpus[:3] + noisy
        grids = TuningGrids(
            velocity=np.geomspace(10.0, 300.0, 5),
            dispersion=np.geomspace(0.2, 3.0, 4),
            angle=np.linspace(0.1 * np.pi, 0.9 * np.pi, 4),
            pca_ratio=np.geomspace(1.5, 50.0, 4),
        )
        rows = follow_sweep(monkeypatch)
        tuned = tune_baselines(sequences, grids)
        cover = [ivt_idt_detect(s).sample_idx for s in sequences]
        truth = np.concatenate([s.labels[c] for s, c in zip(sequences, cover)])

        def counts(detect, cfg):
            labels = np.concatenate([detect(s, cfg).full_labels()[c] for s, c in zip(sequences, cover)])
            return confusion_counts(truth, labels)

        ivt_counts, stage2_rows = rows()
        for i, tau_v in enumerate(grids.velocity):
            cfg = BaselineConfig(velocity_threshold_deg_s=float(tau_v))
            assert np.array_equal(ivt_counts[i], counts(ivt_detect, cfg))
        searches = {
            "ivt-idt": (ivt_idt_detect, "dispersion_threshold_deg", grids.dispersion),
            "ivmp": (ivmp_detect, "angle_threshold_rad", grids.angle),
            "pca": (pca_ratio_detect, "pca_ratio_threshold", grids.pca_ratio),
        }
        rng = np.random.default_rng(3)
        assert 0 < len(stage2_rows) <= grids.velocity.size * len(searches)
        for name, grid_counts, _ in stage2_rows:
            detect, field, grid = searches[name]
            i = velocity_row(ivt_counts, grid_counts)
            for j in rng.choice(grid.size, size=2, replace=False):
                cfg = BaselineConfig(velocity_threshold_deg_s=float(grids.velocity[i]), **{field: float(grid[j])})
                assert np.array_equal(grid_counts[j], counts(detect, cfg))
        assert tuned == exhaustive_tuning(sequences, grids)


def oracle_grid_counts(truth, pred):
    """Confusion counts of (..., m) prediction sets against one truth: (..., 3, 3)."""
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    lead = pred.shape[:-1]
    n_sets = int(np.prod(lead))
    codes = (truth * 3 + pred).reshape(n_sets, pred.shape[-1])
    codes += 9 * np.arange(n_sets)[:, None]
    return np.bincount(codes.ravel(), minlength=9 * n_sets).reshape(lead + (3, 3))


def oracle_sweep(truth, v, stats, velocity, stage2_grid):
    """Counts of every grid point from its prediction matrix: ivt (velocity, 3, 3),
    and per velocity candidate i and cascade one (grid, 3, 3) under (i, cascade)."""
    ivt = oracle_grid_counts(truth, (v > velocity[:, None]).astype(np.int64))
    rows = {}
    for i, tau_v in enumerate(velocity):
        for name, (kind, _, side) in STAGE2.items():
            pursuit = side * stats[i][kind] > side * stage2_grid[name][:, None]
            rows[i, name] = oracle_grid_counts(truth, np.where(v > tau_v, 1, np.where(pursuit, 2, 0)))
    return ivt, rows


class TestCountSweepMatchesPredictionOracle:
    def test_oracle_counts_with_a_leading_grid_axis(self):
        rng = np.random.default_rng(12)
        truth = rng.integers(0, 3, 50)
        preds = rng.integers(0, 3, (2, 4, 50))
        counts = oracle_grid_counts(truth, preds)
        assert counts.shape == (2, 4, 3, 3)
        for idx in np.ndindex(2, 4):
            expected = np.zeros((3, 3), np.int64)
            for t, p in zip(truth, preds[idx]):
                expected[t, p] += 1
            assert np.array_equal(counts[idx], expected)

    @pytest.mark.parametrize("seed, absent", [(0, None), (1, 0), (2, 1), (3, 2)])
    def test_counts_and_f1_grids_equal_the_oracle(self, monkeypatch, seed, absent):
        # random statistics on unsorted grids with repeats, ties with grid
        # points and NaN; tuning runs on them through its own stage 1 and 2 calls
        rng = np.random.default_rng(seed)
        m = 600
        classes = [c for c in range(3) if c != absent]
        truth = rng.choice(classes, m).astype(np.int8)
        velocity = rng.choice([15.0, 40.0, 75.0, 120.0], 7)  # repeats, in no order
        grids = TuningGrids(
            velocity=velocity,
            dispersion=rng.choice([0.3, 0.8, 1.2, 2.5], 6),
            angle=rng.choice([0.2, 1.0, 2.0, 3.0], 6),
            pca_ratio=rng.choice([1.5, 4.0, 9.0, 30.0], 6),
        )
        stage2_grid = {"ivt-idt": grids.dispersion, "ivmp": grids.angle, "pca": grids.pca_ratio}

        def random_values(grid, high):
            values = rng.uniform(0.0, high, m)
            on_grid = rng.random(m) < 0.2
            values[on_grid] = rng.choice(grid, on_grid.sum())  # exactly on a threshold
            values[rng.random(m) < 0.1] = np.nan
            return values

        v = random_values(velocity, 150.0)
        v[np.isnan(v)] = 0.0  # covered samples have a speed
        # stage 2 is a function of the stage-1 mask: one set of statistics per
        # velocity value, looked up by its mask (distinct here for distinct values)
        stats_of = {
            tau: {kind: random_values(stage2_grid[name], 2 * stage2_grid[name].max()) for name, (kind, _, _) in STAGE2.items()}
            for tau in np.unique(velocity)
        }
        masks = {tau: ~(v > tau) for tau in stats_of}
        assert len({mask.tobytes() for mask in masks.values()}) == len(masks)

        def lookup(x, y, mask, window_len, kinds):
            (tau,) = [tau for tau, want in masks.items() if np.array_equal(mask, want)]
            return stats_of[tau]

        stage1 = (None, None, np.zeros(m, bool), v, np.arange(m))  # x, y, still_bad, speed, covered
        monkeypatch.setattr(tuning, "_prepare", lambda seq, window_len, max_gap: stage1)
        rows = follow_sweep(monkeypatch, lookup)
        sequences = [SimpleNamespace(labels=truth, source_id="random")]
        tuned = tune_baselines(sequences, grids)

        stats = [stats_of[tau] for tau in velocity]
        want_ivt, want_rows = oracle_sweep(truth, v, stats, velocity, stage2_grid)
        ivt_counts, stage2_rows = rows()
        assert np.array_equal(ivt_counts, want_ivt)
        assert 0 < len(stage2_rows) <= velocity.size * len(STAGE2)
        for name, counts, f1 in stage2_rows:
            want_counts = want_rows[velocity_row(ivt_counts, counts), name]
            assert np.array_equal(counts, want_counts)
            want_f1 = prf_from_counts(want_counts).f1.mean(axis=-1)
            assert np.array_equal(f1.view(np.uint64), want_f1.view(np.uint64))
        # first best in (velocity, stage-2) order over the whole grid
        ivt_f1 = prf_from_counts(want_ivt).f1.mean(axis=-1)
        assert tuned["ivt"].velocity_threshold_deg_s == velocity[np.argmax(ivt_f1)]
        for name, (_, field, _) in STAGE2.items():
            f1 = np.stack([prf_from_counts(want_rows[i, name]).f1.mean(axis=-1) for i in range(velocity.size)])
            i, j = np.unravel_index(np.argmax(f1), f1.shape)
            assert tuned[name].velocity_threshold_deg_s == velocity[i]
            assert getattr(tuned[name], field) == stage2_grid[name][j]
        assert tuned == exhaustive_tuning(sequences, grids)
