import hashlib
import json

import numpy as np
import pytest

from conftest import GOLDEN_KEY, assert_pinned
from gazeflow.detectors import _velocity_array
from gazeflow.gaze import LabelClass, events_from_labels
from gazeflow.simulate import (
    _TRANSITIONS,
    FixateAt,
    PursueAccel,
    PursueBouncing,
    PursueTo,
    SaccadeTo,
    SimulationError,
    StimulusConfig,
    corpus_stats,
    generate_corpus,
    generate_sequence,
    star_positions,
    synthesize_event,
)

F, S, P = LabelClass.FIXATION, LabelClass.SACCADE, LabelClass.PURSUIT


def noiseless(**kw):
    return StimulusConfig(noise_sigma_deg=0.0, tremor_sigma_deg=0.0, **kw)


class TestStarPositions:
    def test_count(self):
        assert star_positions(StimulusConfig()).shape == (88, 2)

    def test_max_pairwise_distance(self):
        pts = star_positions(StimulusConfig())
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
        assert np.sqrt(d2.max()) == pytest.approx(22.0, abs=1e-9)

    def test_point_symmetric(self):
        pts = star_positions(StimulusConfig())
        for p in pts:
            dists = np.hypot(pts[:, 0] + p[0], pts[:, 1] + p[1])
            assert dists.min() < 1e-9  # mirrored partner exists

    def test_all_on_screen(self):
        cfg = StimulusConfig()
        pts = star_positions(cfg)
        assert np.abs(pts).max() <= cfg.screen_half_extent_deg + 1e-12


class TestSynthesizeEvent:
    def test_fixation_sample_count_and_std(self):
        cfg = StimulusConfig(seed=0)
        rng = np.random.default_rng(1)
        run = synthesize_event(FixateAt(point=(1.0, -2.0), dur_ms=300.0), np.array([1.0, -2.0]), cfg, rng)
        assert run.positions.shape[0] == 90  # 300 ms at 300 Hz
        assert run.label == F
        # larger draw for the statistical check
        long_run = synthesize_event(
            FixateAt(point=(1.0, -2.0), dur_ms=20000.0), np.array([1.0, -2.0]), cfg, rng
        )
        expected = np.sqrt(cfg.tremor_sigma_deg**2 + cfg.noise_sigma_deg**2)
        measured = np.std(long_run.positions - np.array([1.0, -2.0]))
        assert measured == pytest.approx(expected, rel=0.1)

    def test_saccade_peak_velocity_above_pursuit_band(self):
        cfg = noiseless(seed=2)
        rng = np.random.default_rng(2)
        start = np.array([-5.0, 0.0])
        run = synthesize_event(SaccadeTo(point=(5.0, 0.0)), start, cfg, rng)
        pos = np.vstack([start, run.positions])
        v = np.hypot(*np.diff(pos, axis=0).T) * cfg.rate_hz
        assert v.max() > 35.0
        assert run.label == S

    def test_min_jerk_peak_matches_analytic(self):
        # the sampled two-point speed is an interval average, so it sits a
        # little below the analytic instantaneous peak 1.875 * A / T
        cfg = noiseless(seed=3)
        for amplitude in (2.0, 8.0, 22.0):
            rng = np.random.default_rng(4)
            start = np.array([-amplitude / 2, 0.0])
            run = synthesize_event(SaccadeTo(point=(amplitude / 2, 0.0)), start, cfg, rng)
            n = run.positions.shape[0]
            duration_s = (n + 1) / cfg.rate_hz
            peak_analytic = 1.875 * amplitude / duration_s
            pos = np.vstack([start, run.positions])
            v = np.hypot(*np.diff(pos, axis=0).T) * cfg.rate_hz
            assert v.max() <= peak_analytic * (1 + 1e-9)
            assert v.max() > 0.9 * peak_analytic
            assert v.max() > 35.0

    def test_saccade_lands_near_target(self):
        cfg = noiseless(seed=5)
        rng = np.random.default_rng(5)
        run = synthesize_event(SaccadeTo(point=(3.0, 4.0)), np.zeros(2), cfg, rng)
        # sampled strictly inside the flight: the last sample falls just
        # short of the target by the final min-jerk step
        assert np.hypot(*(run.clean_end - np.array([3.0, 4.0]))) < 0.12

    def test_bounce_reflects_and_stays_inside(self):
        cfg = noiseless(seed=6)
        rng = np.random.default_rng(6)
        start = np.array([10.0, 0.0])
        run = synthesize_event(
            PursueBouncing(direction=(1.0, 0.2), speed=30.0, dur_ms=2000.0), start, cfg, rng
        )
        assert np.abs(run.positions).max() <= cfg.screen_half_extent_deg + 1e-9
        pos = np.vstack([start, run.positions])
        dx = np.diff(pos[:, 0])
        dy = np.diff(pos[:, 1])
        # x-velocity flips sign at the right edge, y keeps drifting: the
        # outgoing angle mirrors the incoming one
        assert dx.max() > 0 and dx.min() < 0
        flip = np.flatnonzero(np.diff(np.sign(dx)))[0]
        assert abs(abs(dx[flip]) - abs(dx[flip + 2])) < 1e-6
        assert np.sign(dy[flip]) == np.sign(dy[flip + 2])
        # away from fold-straddling intervals the speed is preserved
        speeds = np.hypot(dx, dy) * cfg.rate_hz
        straddle = np.zeros(speeds.size, bool)
        for f in np.flatnonzero(np.diff(np.sign(dx))):
            straddle[max(0, f) : f + 2] = True
        assert np.all(np.abs(speeds[~straddle] - 30.0) < 0.5)

    def test_pursuit_speed_matches_request(self):
        cfg = noiseless(seed=7)
        rng = np.random.default_rng(7)
        run = synthesize_event(PursueTo(point=(6.0, 0.0), speed=20.0), np.zeros(2), cfg, rng)
        pos = np.vstack([np.zeros(2), run.positions])
        v = np.hypot(*np.diff(pos, axis=0).T) * cfg.rate_hz
        assert np.all(np.abs(v - 20.0) < 0.5)
        lo, hi = cfg.pursuit_speed_deg_s
        assert np.all(v <= hi + 1e-9)

    def test_target_outside_screen_rejected(self):
        cfg = StimulusConfig()
        rng = np.random.default_rng(8)
        with pytest.raises(SimulationError):
            synthesize_event(SaccadeTo(point=(20.0, 0.0)), np.zeros(2), cfg, rng)
        with pytest.raises(SimulationError):
            synthesize_event(FixateAt(point=(0.0, -15.0), dur_ms=100.0), np.zeros(2), cfg, rng)

    def test_pursuit_speed_outside_range_rejected(self):
        cfg = StimulusConfig()
        rng = np.random.default_rng(9)
        with pytest.raises(SimulationError):
            synthesize_event(PursueTo(point=(3.0, 0.0), speed=50.0), np.zeros(2), cfg, rng)

    def test_accelerating_pursuit_ramps_between_speeds(self):
        cfg = noiseless(seed=8)
        start = np.array([-10.0, -3.0])
        event = PursueAccel(direction=(1.0, 0.1), speed_from=8.0, speed_to=32.0, dur_ms=1500.0)
        run = synthesize_event(event, start, cfg, np.random.default_rng(8))
        assert run.positions.shape[0] == 450
        assert np.abs(run.positions).max() <= cfg.screen_half_extent_deg + 1e-9
        pos = np.vstack([start, run.positions])
        speeds = np.hypot(*np.diff(pos, axis=0).T) * cfg.rate_hz
        t_s = (np.arange(450) + 0.5) / cfg.rate_hz  # each speed is the mean over its interval
        ramp = 8.0 + (32.0 - 8.0) * t_s / 1.5
        # the x fold at the right edge shortens the intervals that straddle it
        flip = np.flatnonzero(np.diff(np.sign(np.diff(pos[:, 0]))))
        assert flip.size == 1
        away = np.ones(450, bool)
        away[flip[0] : flip[0] + 2] = False
        assert np.max(np.abs(speeds - ramp)[away]) < 1e-9
        assert speeds[0] == pytest.approx(8.0, abs=0.05) and speeds[-1] == pytest.approx(32.0, abs=0.05)

    def test_accelerating_pursuit_speeds_outside_range_rejected(self):
        cfg = StimulusConfig()
        for lo_hi in ((10.0, 36.0), (4.0, 20.0)):
            event = PursueAccel(direction=(1.0, 0.0), speed_from=lo_hi[0], speed_to=lo_hi[1])
            with pytest.raises(SimulationError, match="outside configured range"):
                synthesize_event(event, np.zeros(2), cfg, np.random.default_rng(9))

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_bouncing_pursuit_is_a_constant_speed_ramp(self, noise):
        cfg = StimulusConfig(seed=9, noise_sigma_deg=noise)
        start = np.array([4.0, -9.0])
        runs = [
            synthesize_event(event, start, cfg, np.random.default_rng(10))
            for event in (
                PursueBouncing(direction=(0.3, -1.0), speed=27.0, dur_ms=2200.0),
                PursueAccel(direction=(0.3, -1.0), speed_from=27.0, speed_to=27.0, dur_ms=2200.0),
            )
        ]
        a, b = runs
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.clean_end.tobytes() == b.clean_end.tobytes()
        assert a.end_dir.tobytes() == b.end_dir.tobytes()


class TestGenerateCorpus:
    def test_deterministic_per_seed(self):
        cfg = StimulusConfig(seed=7, sequence_duration_s=2.0)
        a = generate_corpus(cfg, 3)
        b = generate_corpus(cfg, 3)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.sequence.x_deg, tb.sequence.x_deg)
            assert np.array_equal(ta.sequence.labels, tb.sequence.labels)
            assert ta.script == tb.script

    def test_all_nine_transitions_present(self):
        cfg = StimulusConfig(seed=3, sequence_duration_s=3.0)
        traces = generate_corpus(cfg, 50)
        pairs = set()
        for tr in traces:
            lab = tr.sequence.labels
            pairs |= set(zip(lab[:-1].tolist(), lab[1:].tolist()))
        assert pairs == {(i, j) for i in range(3) for j in range(3)}

    def test_preamble_alone_covers_transitions(self):
        cfg = StimulusConfig(seed=123, sequence_duration_s=4.0)
        tr = generate_sequence(cfg, 0, with_preamble=True)
        lab = tr.sequence.labels
        pairs = set(zip(lab[:-1].tolist(), lab[1:].tolist()))
        assert pairs == {(i, j) for i in range(3) for j in range(3)}

    def test_positions_stay_on_screen(self):
        cfg = noiseless(seed=11, sequence_duration_s=5.0)
        for tr in generate_corpus(cfg, 5):
            e = cfg.screen_half_extent_deg
            assert np.abs(tr.sequence.x_deg).max() <= e + 1e-9
            assert np.abs(tr.sequence.y_deg).max() <= e + 1e-9

    def test_sequence_length_matches_duration(self):
        cfg = StimulusConfig(seed=1, sequence_duration_s=4.0)
        tr = generate_sequence(cfg, 0)
        assert len(tr.sequence) == 1200

    def test_short_duration_keeps_the_60_sample_floor(self):
        tr = generate_sequence(StimulusConfig(seed=1, sequence_duration_s=0.01), 0)
        assert len(tr.sequence) == 60

    @pytest.mark.parametrize("duration", [0.0, -5.0, float("nan")])
    def test_rejects_non_positive_duration(self, duration):
        with pytest.raises(SimulationError, match="sequence_duration_s must be positive"):
            StimulusConfig(sequence_duration_s=duration)

    def test_requires_positive_count(self):
        with pytest.raises(SimulationError):
            generate_corpus(StimulusConfig(), 0)


# sha256 (first 16 hex digits) over every trace's t_ms, x_deg, y_deg, valid and
# labels bytes and repr(script), then json.dumps(corpus_stats): the simulator's
# output before its movements were each written once, on platform key GOLDEN_KEY
GOLDEN_CORPORA = [
    (StimulusConfig(seed=7), 48, "cd190d072bf04511"),
    (StimulusConfig(seed=1234), 48, "cc8832e0bf92a06d"),
    (noiseless(seed=1234), 24, "35110786b8d216f0"),
    (StimulusConfig(seed=3, sequence_duration_s=3.0), 50, "2c72c77fd132df51"),
    (StimulusConfig(seed=51, sequence_duration_s=42.0), 8, "5469f870acd0fd53"),
]


@pytest.mark.parametrize("config, n, digest", GOLDEN_CORPORA)
def test_corpus_bits_unchanged(config, n, digest):
    traces = generate_corpus(config, n)
    h = hashlib.sha256()
    for tr in traces:
        s = tr.sequence
        for a in (s.t_ms, s.x_deg, s.y_deg, s.valid, s.labels):
            h.update(a.tobytes())
        h.update(repr(tr.script).encode())
    h.update(json.dumps(corpus_stats(traces)).encode())
    assert_pinned(h.hexdigest()[:16], digest, GOLDEN_KEY)


class TestTransitions:
    def test_rows_are_distributions(self):
        assert _TRANSITIONS.shape == (3, 3)
        assert np.all(_TRANSITIONS >= 0)
        assert np.allclose(_TRANSITIONS.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_no_fixation_after_fixation_nor_saccade_after_saccade(self):
        assert _TRANSITIONS[F, F] == 0.0 and _TRANSITIONS[S, S] == 0.0
        assert np.count_nonzero(_TRANSITIONS) == 7

    def test_direct_fixation_pursuit_changes_stay_rare(self):
        assert _TRANSITIONS[F, P] < 0.05 * _TRANSITIONS[F, S]
        assert _TRANSITIONS[P, F] < 0.05 * _TRANSITIONS[P, S]


class TestNoiselessSeparability:
    def test_velocity_bands_separate(self):
        cfg = noiseless(seed=17, sequence_duration_s=6.0)
        traces = generate_corpus(cfg, 8)
        max_fix = max_pur = 0.0
        min_sac = np.inf
        for tr in traces:
            s = tr.sequence
            v = _velocity_array(s.t_ms, s.x_deg, s.y_deg, np.zeros(len(s), bool))
            lab, vv = s.labels[1:-1], v[1:-1]
            if (lab == 0).any():
                max_fix = max(max_fix, vv[lab == 0].max())
            if (lab == 2).any():
                max_pur = max(max_pur, vv[lab == 2].max())
            if (lab == 1).any():
                min_sac = min(min_sac, vv[lab == 1].min())
        # every saccade-labeled sample moves faster than every pursuit- and
        # fixation-labeled sample
        assert min_sac > max_pur
        assert min_sac > max_fix
        assert max_pur <= cfg.pursuit_speed_deg_s[1] + 1e-9

    def test_fixation_windows_have_zero_dispersion(self):
        cfg = noiseless(seed=19, sequence_duration_s=4.0)
        tr = generate_sequence(cfg, 1)
        lab = tr.sequence.labels
        x, y = tr.sequence.x_deg, tr.sequence.y_deg
        for ev in events_from_labels(lab):
            if ev.label == F and ev.n_samples >= 2:
                xs = x[ev.start_idx : ev.end_idx + 1]
                ys = y[ev.start_idx : ev.end_idx + 1]
                assert (xs.max() - xs.min()) + (ys.max() - ys.min()) < 1e-9


class TestCorpusStats:
    def test_counts_match_rescan(self):
        cfg = StimulusConfig(seed=5, sequence_duration_s=2.0)
        traces = generate_corpus(cfg, 4)
        stats = corpus_stats(traces)
        total_frames = np.zeros(3, dtype=int)
        total_events = np.zeros(3, dtype=int)
        for tr in traces:
            lab = tr.sequence.labels
            total_frames += np.bincount(lab, minlength=3)
            for ev in events_from_labels(lab):
                total_events[ev.label] += 1
        assert stats["totals"]["frames"] == {
            "fixation": int(total_frames[0]),
            "saccade": int(total_frames[1]),
            "pursuit": int(total_frames[2]),
        }
        assert stats["totals"]["events"] == {
            "fixation": int(total_events[0]),
            "saccade": int(total_events[1]),
            "pursuit": int(total_events[2]),
        }

    def test_noise_mixture_std_normalized(self):
        # artifact mixture keeps the overall measurement-noise std at
        # noise_sigma_deg
        cfg = StimulusConfig(seed=2, artifact_rate=0.05, artifact_scale=8.0)
        rng = np.random.default_rng(0)
        from gazeflow.simulate import _measurement_noise

        noise = _measurement_noise(200_000, cfg, rng)
        assert np.std(noise) == pytest.approx(cfg.noise_sigma_deg, rel=0.02)
