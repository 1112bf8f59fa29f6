"""Plain-text run configuration files.

The format is INI-style `key = value` pairs under the sections [frontend],
[network], [training], [baselines], [stimulus] and [evaluation]. Every key
mirrors a config field; files are parsed then validated, and unknown
sections or keys are errors. All keys are optional and fall back to the
package defaults. See docs in the README for a complete annotated example.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detectors import BaselineConfig
from .features import FrontendConfig
from .net import AdamConfig, PhaseConfig, TrainConfig, flattened_dim
from .simulate import StimulusConfig


class ConfigError(ValueError):
    """Unknown keys, malformed values or violated config invariants."""


@dataclass(frozen=True)
class EvaluationConfig:
    confidence_steps: int = 21  # thresholds linspace(0, 1, steps)

    def __post_init__(self):
        if self.confidence_steps < 2:
            raise ConfigError("confidence_steps must be >= 2")

    @property
    def thresholds(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.confidence_steps)


@dataclass(frozen=True)
class RunConfig:
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    baselines: BaselineConfig = field(default_factory=BaselineConfig)
    stimulus: StimulusConfig = field(default_factory=StimulusConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    split_level: str = "window"  # or "sequence"


_SCHEMA: dict[str, dict[str, type]] = {
    "frontend": {
        "window_len": int,
        "stride": int,
        "center_offset": int,
        "interp_max_gap": int,
        "demean": bool,
    },
    "network": {
        "kernel_len": int,
        "pool_factor": int,
    },
    "training": {
        "phase1_epochs": int,
        "phase1_alpha": float,
        "phase1_beta1": float,
        "phase1_beta2": float,
        "phase1_epsilon": float,
        "phase2_epochs": int,
        "phase2_alpha": float,
        "phase2_beta1": float,
        "phase2_beta2": float,
        "phase2_epsilon": float,
        "batch_size": int,
        "shuffle": bool,
        "split_level": str,
        "keep": str,
    },
    "baselines": {
        "velocity_threshold_deg_s": float,
        "dispersion_threshold_deg": float,
        "angle_threshold_rad": float,
        "pca_ratio_threshold": float,
        "window_len": int,
    },
    "stimulus": {
        "rate_hz": float,
        "screen_half_extent_deg": float,
        "n_star_positions": int,
        "fixation_dur_ms_min": float,
        "fixation_dur_ms_max": float,
        "pursuit_speed_deg_s_min": float,
        "pursuit_speed_deg_s_max": float,
        "saccade_dur_ms_min": float,
        "saccade_dur_ms_max": float,
        "noise_sigma_deg": float,
        "tremor_sigma_deg": float,
        "artifact_rate": float,
        "artifact_scale": float,
        "sequence_duration_s": float,
    },
    "evaluation": {
        "confidence_steps": int,
    },
}


def _parse_value(section: str, key: str, raw: str, target: type):
    if target is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")
    try:
        return target(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected {target.__name__}, got {raw!r}"
        ) from None


def load_run_config(path: str | Path, seed: int = 0) -> RunConfig:
    """Parse and validate a run configuration file.

    The seed argument flows into the training and stimulus configs so the
    CLI's --seed flag (or GAZEFLOW_SEED) stays the single seed source.
    """
    parser = configparser.ConfigParser(interpolation=None)
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            values[section][key] = _parse_value(section, key, raw, _SCHEMA[section][key])
    return build_run_config(values, seed=seed)


def build_run_config(values: dict[str, dict[str, object]], seed: int = 0) -> RunConfig:
    """Construct a validated RunConfig from parsed section/key values."""
    try:
        frontend = FrontendConfig(**values.get("frontend", {}))

        training = dict(values.get("training", {}))
        network = dict(values.get("network", {}))
        split_level = str(training.pop("split_level", "window"))
        if split_level not in ("window", "sequence"):
            raise ConfigError("split_level must be 'window' or 'sequence'")
        defaults = TrainConfig()
        phase1 = PhaseConfig(
            epochs=int(training.pop("phase1_epochs", defaults.phase1.epochs)),
            adam=AdamConfig(
                alpha=float(training.pop("phase1_alpha", defaults.phase1.adam.alpha)),
                beta1=float(training.pop("phase1_beta1", defaults.phase1.adam.beta1)),
                beta2=float(training.pop("phase1_beta2", defaults.phase1.adam.beta2)),
                epsilon=float(training.pop("phase1_epsilon", defaults.phase1.adam.epsilon)),
            ),
        )
        phase2 = PhaseConfig(
            epochs=int(training.pop("phase2_epochs", defaults.phase2.epochs)),
            adam=AdamConfig(
                alpha=float(training.pop("phase2_alpha", defaults.phase2.adam.alpha)),
                beta1=float(training.pop("phase2_beta1", defaults.phase2.adam.beta1)),
                beta2=float(training.pop("phase2_beta2", defaults.phase2.adam.beta2)),
                epsilon=float(training.pop("phase2_epsilon", defaults.phase2.adam.epsilon)),
            ),
        )
        train = TrainConfig(
            phase1=phase1,
            phase2=phase2,
            batch_size=int(training.pop("batch_size", defaults.batch_size)),
            seed=seed,
            shuffle=bool(training.pop("shuffle", defaults.shuffle)),
            kernel_len=int(network.pop("kernel_len", defaults.kernel_len)),
            pool_factor=int(network.pop("pool_factor", defaults.pool_factor)),
            keep=str(training.pop("keep", defaults.keep)),
        )
        if flattened_dim(frontend.window_len, train.kernel_len, train.pool_factor) <= 0:
            raise ConfigError(
                f"[network] kernel_len = {train.kernel_len} and pool_factor = {train.pool_factor} "
                f"leave no pooled output for [frontend] window_len = {frontend.window_len}"
            )

        baselines = BaselineConfig(**values.get("baselines", {}))

        stim = dict(values.get("stimulus", {}))
        stim_defaults = StimulusConfig()

        def_range = lambda name, dflt: (
            float(stim.pop(f"{name}_min", dflt[0])),
            float(stim.pop(f"{name}_max", dflt[1])),
        )

        stimulus = StimulusConfig(
            rate_hz=float(stim.pop("rate_hz", stim_defaults.rate_hz)),
            screen_half_extent_deg=float(
                stim.pop("screen_half_extent_deg", stim_defaults.screen_half_extent_deg)
            ),
            n_star_positions=int(stim.pop("n_star_positions", stim_defaults.n_star_positions)),
            fixation_dur_ms=def_range("fixation_dur_ms", stim_defaults.fixation_dur_ms),
            pursuit_speed_deg_s=def_range(
                "pursuit_speed_deg_s", stim_defaults.pursuit_speed_deg_s
            ),
            saccade_dur_ms=def_range("saccade_dur_ms", stim_defaults.saccade_dur_ms),
            noise_sigma_deg=float(stim.pop("noise_sigma_deg", stim_defaults.noise_sigma_deg)),
            tremor_sigma_deg=float(stim.pop("tremor_sigma_deg", stim_defaults.tremor_sigma_deg)),
            artifact_rate=float(stim.pop("artifact_rate", stim_defaults.artifact_rate)),
            artifact_scale=float(stim.pop("artifact_scale", stim_defaults.artifact_scale)),
            seed=seed,
            sequence_duration_s=float(
                stim.pop("sequence_duration_s", stim_defaults.sequence_duration_s)
            ),
        )

        evaluation = EvaluationConfig(**values.get("evaluation", {}))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(
        frontend=frontend,
        train=train,
        baselines=baselines,
        stimulus=stimulus,
        evaluation=evaluation,
        split_level=split_level,
    )
