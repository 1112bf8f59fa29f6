"""Synthetic scripted-stimulus gaze generator with construction-time labels.

Sequences are assembled from script events (fixations, saccadic jumps,
pursuit segments) on a fixed sample grid. Fixations hold a point with white
Gaussian tremor; saccades follow a minimum-jerk position profile whose
duration grows linearly with amplitude; pursuits travel at constant or
linearly ramped speed and reflect off the screen edges (a bouncing pursuit
is the ramp from its speed to the same speed). Measurement noise is added
to every sample.

A random script draws each event's class from the previous one through the
3x3 _TRANSITIONS table: event-count weights of the three classes, damped for
direct fixation/pursuit onsets and offsets and for pursuit after pursuit,
with no fixation after a fixation (the two would merge) and no saccade
after a saccade.

Sampling convention: an event anchored at position P contributes the grid
samples strictly after its start instant. Saccade trajectories are sampled
strictly inside their flight time, so the samples carrying the saccade
label are the fast ones and the settled landing sample belongs to the next
event. Together with the speed margins below this keeps the three classes
velocity/dispersion-separable when noise and tremor are switched off.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaze import CLASS_NAMES, N_CLASSES, GazeSequence, LabelClass, events_from_labels

# duration of a saccade grows ~linearly with its amplitude
SACCADE_MS_PER_DEG = 1.6
SACCADE_DUR_JITTER = (0.85, 1.15)
# largest allowed first/last sampled displacement of a saccade; keeps the
# central-difference velocity of the neighboring fixation/pursuit samples
# below the pursuit speed band
MAX_ONSET_STEP_DEG = 0.11
# script building keeps saccades at least this long so even their slowest
# sampled instants stay clearly above the pursuit speed range
MIN_SACCADE_DEG = 2.0
MIN_PURSUIT_TRAVEL_DEG = 3.0
PURSUIT_SPEED_MARGIN = 0.5
# half-opening of the forward cone used to keep post-saccadic pursuit and
# post-pursuit saccades roughly aligned with the preceding motion
FORWARD_CONE_DEG = 85.0


class SimulationError(ValueError):
    """Raised for script events that violate the stimulus geometry."""


@dataclass(frozen=True)
class StimulusConfig:
    """Geometry, kinematic ranges and noise levels of the scripted stimulus.

    Measurement noise models a remote video tracker: a Gaussian core plus a
    small fraction (artifact_rate) of artifact samples drawn artifact_scale
    times wider, with the mixture standard deviation normalized to
    noise_sigma_deg. Setting noise_sigma_deg to 0 disables all of it.
    """

    rate_hz: float = 300.0
    screen_half_extent_deg: float = 11.0
    n_star_positions: int = 88
    fixation_dur_ms: tuple[float, float] = (100.0, 400.0)
    pursuit_speed_deg_s: tuple[float, float] = (5.0, 35.0)
    saccade_dur_ms: tuple[float, float] = (10.0, 100.0)
    noise_sigma_deg: float = 0.2
    tremor_sigma_deg: float = 0.02
    artifact_rate: float = 0.02
    artifact_scale: float = 6.0
    seed: int = 0
    sequence_duration_s: float = 7.0

    def __post_init__(self):
        if self.rate_hz <= 0:
            raise SimulationError("rate_hz must be positive")
        if self.screen_half_extent_deg <= 0:
            raise SimulationError("screen extent must be positive")
        if self.n_star_positions % 8 != 0 or self.n_star_positions < 8:
            raise SimulationError("n_star_positions must be a positive multiple of 8")
        for name, rng_ in (
            ("fixation_dur_ms", self.fixation_dur_ms),
            ("pursuit_speed_deg_s", self.pursuit_speed_deg_s),
            ("saccade_dur_ms", self.saccade_dur_ms),
        ):
            if rng_[0] > rng_[1] or rng_[0] <= 0:
                raise SimulationError(f"{name} must be a non-empty positive range")
        if self.noise_sigma_deg < 0 or self.tremor_sigma_deg < 0:
            raise SimulationError("noise sigmas must be >= 0")
        if not 0 <= self.artifact_rate < 1 or self.artifact_scale < 1:
            raise SimulationError("artifact_rate must be in [0, 1), artifact_scale >= 1")
        if not self.sequence_duration_s > 0:
            raise SimulationError("sequence_duration_s must be positive")
        if not np.isfinite(self.sequence_duration_s * self.rate_hz):
            raise SimulationError("sequence_duration_s * rate_hz, the samples per sequence, must be finite")

    @property
    def dt_ms(self) -> float:
        return 1000.0 / self.rate_hz

    @property
    def noise_core_sigma_deg(self) -> float:
        """Core sigma making the artifact mixture's std equal noise_sigma_deg."""
        denom = 1.0 + self.artifact_rate * (self.artifact_scale**2 - 1.0)
        return self.noise_sigma_deg / np.sqrt(denom)


# ---------------------------------------------------------------------------
# script events


@dataclass(frozen=True)
class ScriptEvent:
    label: LabelClass = LabelClass.FIXATION


@dataclass(frozen=True)
class FixateAt(ScriptEvent):
    point: tuple[float, float] = (0.0, 0.0)
    dur_ms: float = 200.0
    label: LabelClass = LabelClass.FIXATION


@dataclass(frozen=True)
class SaccadeTo(ScriptEvent):
    point: tuple[float, float] = (0.0, 0.0)
    label: LabelClass = LabelClass.SACCADE


@dataclass(frozen=True)
class PursueTo(ScriptEvent):
    point: tuple[float, float] = (0.0, 0.0)
    speed: float = 15.0
    label: LabelClass = LabelClass.PURSUIT


@dataclass(frozen=True)
class PursueBouncing(ScriptEvent):
    direction: tuple[float, float] = (1.0, 0.0)
    speed: float = 15.0
    dur_ms: float = 1000.0
    label: LabelClass = LabelClass.PURSUIT


@dataclass(frozen=True)
class PursueAccel(ScriptEvent):
    direction: tuple[float, float] = (1.0, 0.0)
    speed_from: float = 10.0
    speed_to: float = 30.0
    dur_ms: float = 1000.0
    label: LabelClass = LabelClass.PURSUIT


@dataclass(frozen=True)
class EventRun:
    """Samples contributed by one event: noisy positions plus chaining state."""

    positions: np.ndarray  # (n, 2) with measurement noise applied
    label: LabelClass
    clean_end: np.ndarray  # (2,) noise-free final position, anchor of the next event
    end_dir: np.ndarray | None  # (2,) unit motion direction at the end, if moving


@dataclass(frozen=True)
class SyntheticTrace:
    """A labeled synthetic sequence together with the script that made it."""

    sequence: GazeSequence
    script: tuple[ScriptEvent, ...]


# ---------------------------------------------------------------------------
# geometry helpers


def star_positions(config: StimulusConfig = StimulusConfig()) -> np.ndarray:
    """Dot positions on eight rays (axes and diagonals), equally spaced.

    points_per_ray = n_star_positions / 8 radii per ray, from one step out
    to the full half extent, so the two tips of any line through the center
    sit one full screen diagonal, i.e. twice the half extent, apart.
    """
    per_ray = config.n_star_positions // 8
    radius = config.screen_half_extent_deg
    angles = np.arange(8) * (np.pi / 4)
    radii = radius * (np.arange(1, per_ray + 1) / per_ray)
    return np.array([[r * np.cos(a), r * np.sin(a)] for a in angles for r in radii])


def _check_on_screen(point: np.ndarray, config: StimulusConfig) -> None:
    e = config.screen_half_extent_deg * (1 + 1e-9)
    if np.abs(point).max() > e:
        raise SimulationError(f"target {point.tolist()} outside screen extent +-{e:g}")


def _fold(u: np.ndarray, extent: float) -> tuple[np.ndarray, np.ndarray]:
    """Unbounded coordinates reflected back into [-extent, extent], and the
    sign of d(fold)/du at each of them."""
    m = np.mod(u + extent, 4.0 * extent)
    rising = m <= 2.0 * extent
    return np.where(rising, m - extent, 3.0 * extent - m), np.where(rising, 1.0, -1.0)


def _check_speeds(config: StimulusConfig, *speeds: float) -> None:
    lo, hi = config.pursuit_speed_deg_s
    for speed in speeds:
        if not lo <= speed <= hi:
            raise SimulationError(f"pursuit speed {speed} outside configured range")


def _min_jerk(tau: np.ndarray) -> np.ndarray:
    return 10.0 * tau**3 - 15.0 * tau**4 + 6.0 * tau**5


# ---------------------------------------------------------------------------
# single-event synthesis


def synthesize_event(
    event: ScriptEvent,
    start_point: np.ndarray,
    config: StimulusConfig,
    rng: np.random.Generator,
) -> EventRun:
    """Sample one script event anchored at start_point.

    Returns the grid samples strictly after the anchor instant; the anchor
    itself belongs to the previous event (or is the sequence's first sample).
    """
    start = np.asarray(start_point, dtype=np.float64)
    if not np.isfinite(start).all():
        raise SimulationError("start point must be finite")
    dt_ms = config.dt_ms

    if isinstance(event, FixateAt):
        point = np.asarray(event.point, dtype=np.float64)
        _check_on_screen(point, config)
        n = max(1, round(event.dur_ms / dt_ms))
        clean = np.tile(point, (n, 1))
        if config.tremor_sigma_deg > 0:
            clean = clean + rng.normal(0.0, config.tremor_sigma_deg, size=(n, 2))
        end_dir = None
        clean_end = point

    elif isinstance(event, SaccadeTo):
        target = np.asarray(event.point, dtype=np.float64)
        _check_on_screen(target, config)
        delta = target - start
        amplitude = float(np.hypot(*delta))
        lo_ms, hi_ms = config.saccade_dur_ms
        jitter = rng.uniform(*SACCADE_DUR_JITTER)
        dur_ms = float(np.clip(lo_ms + SACCADE_MS_PER_DEG * amplitude * jitter, lo_ms, hi_ms))
        n = max(2, round(dur_ms / dt_ms))
        while (
            amplitude * _min_jerk(np.asarray(1.0 / (n + 1))) > MAX_ONSET_STEP_DEG
            and (n + 1) * dt_ms <= hi_ms
        ):
            n += 1
        # sample strictly inside the flight: tau in (0, 1)
        tau = np.arange(1, n + 1) / (n + 1)
        clean = start + delta * _min_jerk(tau)[:, None]
        clean_end = clean[-1].copy()
        end_dir = delta / amplitude if amplitude > 0 else None

    elif isinstance(event, PursueTo):
        target = np.asarray(event.point, dtype=np.float64)
        _check_on_screen(target, config)
        _check_speeds(config, event.speed)
        travel = float(np.hypot(*(target - start)))
        if travel <= 0:
            raise SimulationError("pursuit target coincides with the start point")
        direction = (target - start) / travel
        n = max(1, round(travel / event.speed * config.rate_hz))
        # snap the effective speed to the grid without exceeding the range
        n = max(n, int(np.ceil(travel * config.rate_hz / config.pursuit_speed_deg_s[1])))
        steps = np.arange(1, n + 1) * (travel / n)
        clean = start + direction * steps[:, None]
        clean_end = clean[-1].copy()
        end_dir = direction

    elif isinstance(event, (PursueBouncing, PursueAccel)):
        direction = np.asarray(event.direction, dtype=np.float64)
        norm = float(np.hypot(*direction))
        if norm == 0:
            raise SimulationError("pursuit direction must be non-zero")
        direction = direction / norm
        _check_on_screen(start, config)
        if isinstance(event, PursueBouncing):
            v0 = v1 = event.speed  # zero acceleration: the ramp adds an exact +0.0
        else:
            v0, v1 = event.speed_from, event.speed_to
        _check_speeds(config, v0, v1)
        n = max(1, round(event.dur_ms / dt_ms))
        t_s = np.arange(1, n + 1) * (dt_ms / 1000.0)
        accel = (v1 - v0) / (n * dt_ms / 1000.0)
        arc = v0 * t_s + 0.5 * accel * t_s**2
        clean, slope = _fold(start + direction * arc[:, None], config.screen_half_extent_deg)
        clean_end = clean[-1].copy()
        end_dir = direction * slope[-1]
        nd = float(np.hypot(*end_dir))
        end_dir = end_dir / nd if nd > 0 else None

    else:
        raise SimulationError(f"unknown script event {type(event).__name__}")

    noisy = clean
    if config.noise_sigma_deg > 0:
        noisy = clean + _measurement_noise(clean.shape[0], config, rng)
    return EventRun(positions=noisy, label=event.label, clean_end=clean_end, end_dir=end_dir)


def _measurement_noise(n: int, config: StimulusConfig, rng: np.random.Generator) -> np.ndarray:
    """Gaussian-core noise with an artifact tail, total std = noise_sigma_deg."""
    core = config.noise_core_sigma_deg
    noise = rng.normal(0.0, core, size=(n, 2))
    if config.artifact_rate > 0:
        hits = rng.uniform(size=n) < config.artifact_rate
        if hits.any():
            noise[hits] = rng.normal(0.0, core * config.artifact_scale, size=(int(hits.sum()), 2))
    return noise


# ---------------------------------------------------------------------------
# script construction


def _unit(angle: float) -> np.ndarray:
    return np.array([np.cos(angle), np.sin(angle)])


def _room_along(pos: np.ndarray, direction: np.ndarray, extent: float) -> float:
    """Distance from pos to the screen boundary along direction."""
    rooms = [(np.sign(d) * extent - p) / d for p, d in zip(pos, direction) if abs(d) > 1e-12]
    return float(min(rooms, default=np.inf))


def _rotate(vec: np.ndarray, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([c * vec[0] - s * vec[1], s * vec[0] + c * vec[1]])


class _ScriptBuilder:
    """Draws script events that respect geometry and kinematic margins."""

    def __init__(self, config: StimulusConfig, rng: np.random.Generator):
        self.cfg = config
        self.rng = rng
        self.star = star_positions(config)
        lo, hi = config.pursuit_speed_deg_s
        margin = min(PURSUIT_SPEED_MARGIN, 0.25 * (hi - lo))
        self.speed_lo = lo + margin
        self.speed_hi = hi - margin

    def draw_speed(self) -> float:
        return float(self.rng.uniform(self.speed_lo, self.speed_hi))

    def step(
        self, cls: LabelClass, pos: np.ndarray, prev: LabelClass, prev_dir: np.ndarray | None
    ) -> ScriptEvent:
        """A random event of class cls after an event of class prev that
        ended moving along prev_dir (None when it ended at rest)."""
        if cls == LabelClass.FIXATION:
            return self.fixation(pos)
        if cls == LabelClass.SACCADE:
            return self.saccade(pos, prev_dir if prev == LabelClass.PURSUIT else None)
        return self.pursuit(pos, prev_dir if prev == LabelClass.SACCADE else None)

    def fixation(self, pos: np.ndarray, dur_ms: float | None = None) -> FixateAt:
        if dur_ms is None:
            dur_ms = float(self.rng.uniform(*self.cfg.fixation_dur_ms))
        return FixateAt(point=(float(pos[0]), float(pos[1])), dur_ms=dur_ms)

    def saccade(self, pos: np.ndarray, prev_dir: np.ndarray | None) -> SaccadeTo:
        """Jump to a star point; after a pursuit, prefer forward targets."""
        dists = np.hypot(self.star[:, 0] - pos[0], self.star[:, 1] - pos[1])
        usable = dists >= MIN_SACCADE_DEG
        candidates = self.star[usable]
        if prev_dir is None:
            # mirrored jump most of the time when sitting on a star point
            mirror = -pos
            on_star = dists.min() < 1e-6
            if on_star and np.hypot(*(mirror - pos)) >= MIN_SACCADE_DEG and self.rng.uniform() < 0.7:
                return SaccadeTo(point=(float(mirror[0]), float(mirror[1])))
            target = candidates[self.rng.integers(len(candidates))]
        else:
            dots = (candidates - pos) @ prev_dir
            forward = candidates[dots > 0]
            if len(forward):
                target = forward[self.rng.integers(len(forward))]
            else:
                target = candidates[int(np.argmax(dots))]
        return SaccadeTo(point=(float(target[0]), float(target[1])))

    def pursuit(self, pos: np.ndarray, prev_dir: np.ndarray | None) -> ScriptEvent:
        kind = self.rng.choice(3, p=[0.5, 0.3, 0.2])
        direction = self._pursuit_direction(pos, prev_dir)
        speed = self.draw_speed()
        if kind == 0:
            room = _room_along(pos, direction, self.cfg.screen_half_extent_deg * 0.98)
            travel = min(float(self.rng.uniform(MIN_PURSUIT_TRAVEL_DEG, 12.0)), room)
            target = pos + direction * travel
            return PursueTo(point=(float(target[0]), float(target[1])), speed=speed)
        if kind == 1:
            dur = float(self.rng.uniform(500.0, 2500.0))
            return PursueBouncing(
                direction=(float(direction[0]), float(direction[1])), speed=speed, dur_ms=dur
            )
        v2 = self.draw_speed()
        dur = float(self.rng.uniform(500.0, 2000.0))
        return PursueAccel(
            direction=(float(direction[0]), float(direction[1])), speed_from=speed, speed_to=v2, dur_ms=dur
        )

    def _pursuit_direction(self, pos: np.ndarray, prev_dir: np.ndarray | None) -> np.ndarray:
        cone = np.deg2rad(FORWARD_CONE_DEG)
        for _ in range(20):
            if prev_dir is not None:
                direction = _rotate(prev_dir, float(self.rng.uniform(-cone, cone)))
            else:
                direction = _unit(float(self.rng.uniform(0.0, 2.0 * np.pi)))
            room = _room_along(pos, direction, self.cfg.screen_half_extent_deg * 0.98)
            if room >= MIN_PURSUIT_TRAVEL_DEG:
                return direction
        to_center = -pos
        norm = float(np.hypot(*to_center))
        return to_center / norm if norm > 1e-9 else _unit(0.0)


# probability of each class (column) for the random step after an event of
# each class (row): event counts per class, damped
_TRANSITIONS = np.array([1626.0, 2647.0, 1089.0]) * np.array([
    [0.0, 1.0, 0.08],  # fixations would merge; direct pursuit onsets stay rare
    [1.0, 0.0, 1.0],  # no back-to-back saccades
    [0.08, 1.0, 0.5],  # direct pursuit offsets stay rare; pursuit after pursuit halved
])
_TRANSITIONS /= _TRANSITIONS.sum(axis=1, keepdims=True)

# the preamble's steps: a class stands for that class's random event (see
# _ScriptBuilder.step); "P_to" is a pursuit that ends at a target and
# "P_bounce" a bouncing pursuit that carries on in the saccade's direction
_PREAMBLE = (
    LabelClass.SACCADE, LabelClass.FIXATION, LabelClass.PURSUIT, LabelClass.FIXATION,
    LabelClass.SACCADE, "P_to", LabelClass.SACCADE, "P_bounce", LabelClass.FIXATION,
)


def generate_sequence(
    config: StimulusConfig, seq_index: int, with_preamble: bool = False
) -> SyntheticTrace:
    """Build one labeled sequence; deterministic per (config.seed, seq_index).

    with_preamble prepends a fixed block of event types covering every
    class-to-class transition, including the rare direct fixation/pursuit
    onsets and offsets.
    """
    rng = np.random.default_rng([config.seed, seq_index])
    builder = _ScriptBuilder(config, rng)
    n_target = max(60, round(config.sequence_duration_s * config.rate_hz))
    pos = builder.star[rng.integers(len(builder.star))].copy()

    script: list[ScriptEvent] = [builder.fixation(pos, 300.0)]
    runs = [synthesize_event(script[0], pos, config, rng)]
    total = runs[0].positions.shape[0] + 1  # +1 for the anchor sample
    pos = runs[0].clean_end
    prev_label, prev_dir = LabelClass.FIXATION, None
    plan = iter(_PREAMBLE if with_preamble else ())

    while total < n_target:
        step = next(plan, None)
        if step is None:
            step = LabelClass(int(rng.choice(N_CLASSES, p=_TRANSITIONS[prev_label])))
        if step == "P_bounce":
            d = (1.0, 0.0) if prev_dir is None else prev_dir
            event: ScriptEvent = PursueBouncing(
                direction=(float(d[0]), float(d[1])), speed=builder.draw_speed(), dur_ms=800.0
            )
        else:
            event = builder.step(LabelClass.PURSUIT if step == "P_to" else step, pos, prev_label, prev_dir)
        if step == "P_to" and not isinstance(event, PursueTo):
            direction = builder._pursuit_direction(pos, prev_dir)
            room = _room_along(pos, direction, config.screen_half_extent_deg * 0.98)
            target = pos + direction * min(6.0, room)
            event = PursueTo(point=(float(target[0]), float(target[1])), speed=builder.draw_speed())

        run = synthesize_event(event, pos, config, rng)
        script.append(event)
        runs.append(run)
        total += run.positions.shape[0]
        pos = run.clean_end
        prev_label = run.label
        prev_dir = run.end_dir

    noise = _measurement_noise(1, config, rng)[0] if config.noise_sigma_deg else np.zeros(2)
    tremor = rng.normal(0.0, config.tremor_sigma_deg, size=2) if config.tremor_sigma_deg else 0.0
    anchor = np.asarray(script[0].point) + tremor + noise

    coords = np.concatenate([anchor[None]] + [r.positions for r in runs])[:n_target]
    run_lengths = [r.positions.shape[0] for r in runs]
    run_lengths[0] += 1  # the anchor sample carries the first event's label
    lab = np.repeat(np.array([r.label for r in runs], dtype=np.int8), run_lengths)[:n_target]
    t_ms = np.arange(n_target) * config.dt_ms
    seq = GazeSequence(
        t_ms=t_ms,
        x_deg=coords[:, 0],
        y_deg=coords[:, 1],
        valid=np.ones(n_target, dtype=bool),
        labels=lab,
        source_id=f"synth-{seq_index:04d}",
    )
    return SyntheticTrace(sequence=seq, script=tuple(script))


def generate_corpus(config: StimulusConfig, n_sequences: int) -> list[SyntheticTrace]:
    """Generate a corpus of labeled sequences, deterministic per seed.

    The first sequence carries the transition preamble so every corpus
    contains all nine class-to-class transition types.
    """
    if n_sequences < 1:
        raise SimulationError("n_sequences must be >= 1")
    return [generate_sequence(config, i, with_preamble=(i == 0)) for i in range(n_sequences)]


def _by_class(counts: np.ndarray) -> dict[str, int]:
    return dict(zip(CLASS_NAMES, counts.tolist()))


def corpus_stats(traces: list[SyntheticTrace]) -> dict:
    """Per-class frame and event counts, per sequence and total."""
    frames = [np.bincount(tr.sequence.labels, minlength=N_CLASSES) for tr in traces]
    events = [
        np.bincount([ev.label for ev in events_from_labels(tr.sequence.labels)], minlength=N_CLASSES)
        for tr in traces
    ]
    zero = np.zeros(N_CLASSES, dtype=np.int64)
    return {
        "sequences": [
            {
                "source_id": tr.sequence.source_id,
                "n_samples": len(tr.sequence),
                "frames": _by_class(f),
                "events": _by_class(e),
            }
            for tr, f, e in zip(traces, frames, events)
        ],
        "totals": {"frames": _by_class(sum(frames, zero)), "events": _by_class(sum(events, zero))},
    }
