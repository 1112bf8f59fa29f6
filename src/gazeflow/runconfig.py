"""Plain-text run configuration files.

The format is INI-style `key = value` pairs under the sections [frontend],
[network], [training], [baselines], [stimulus] and [evaluation]. Every key
mirrors a config field; files are parsed then validated, and unknown
sections or keys are errors. All keys are optional and fall back to the
package defaults. See docs in the README for a complete annotated example.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .detectors import BaselineConfig
from .features import FrontendConfig
from .net import NetError, TrainConfig, param_shapes
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


def _keys(config, prefix: str = "", skip: tuple[str, ...] = ()) -> dict[str, type]:
    """Config keys of a default config object, each typed by its default
    value; a (min, max) range field gives the keys <name>_min and <name>_max."""
    keys = {}
    for f in fields(config):
        if f.name in skip:
            continue
        key, value = prefix + f.name, getattr(config, f.name)
        if isinstance(value, tuple):
            keys[f"{key}_min"] = keys[f"{key}_max"] = type(value[0])
        else:
            keys[key] = type(value)
    return keys


def _apply(config, values: dict[str, object], prefix: str = "", skip: tuple[str, ...] = ()):
    """config with each of its keys (see _keys) that values holds replaced."""
    changes = {}
    for f in fields(config):
        if f.name in skip:
            continue
        key, value = prefix + f.name, getattr(config, f.name)
        if isinstance(value, tuple):
            changes[f.name] = (values.get(f"{key}_min", value[0]), values.get(f"{key}_max", value[1]))
        else:
            changes[f.name] = values.get(key, value)
    return replace(config, **changes)


# [training] holds phase1_epochs, phase1_alpha, ... phase2_epsilon, the
# other TrainConfig fields but the seed and the [network] geometry, and
# split_level, kept so that files naming the one split (sequence) still
# load; [stimulus] holds every StimulusConfig field but the seed
_TRAIN = TrainConfig()
_PHASES = ("phase1", "phase2")
_NETWORK = ("kernel_len", "pool_factor")


def _phase_keys(p: str) -> dict[str, type]:
    phase = getattr(_TRAIN, p)
    return {**_keys(phase, f"{p}_", skip=("adam",)), **_keys(phase.adam, f"{p}_")}


def _apply_phase(p: str, training: dict[str, object]):
    phase = getattr(_TRAIN, p)
    adam = _apply(phase.adam, training, f"{p}_")
    return replace(_apply(phase, training, f"{p}_", skip=("adam",)), adam=adam)


_SCHEMA: dict[str, dict[str, type]] = {
    "frontend": _keys(FrontendConfig()),
    "network": {k: _keys(_TRAIN)[k] for k in _NETWORK},
    "training": {
        **_phase_keys("phase1"),
        **_phase_keys("phase2"),
        **_keys(_TRAIN, skip=_PHASES + _NETWORK + ("seed",)),
        "split_level": str,
    },
    "baselines": _keys(BaselineConfig()),
    "stimulus": _keys(StimulusConfig(), skip=("seed",)),
    "evaluation": _keys(EvaluationConfig()),
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
        value = target(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected {target.__name__}, got {raw!r}") from None
    if target is float and not np.isfinite(value):
        raise ConfigError(f"[{section}] {key}: expected a finite number, got {raw!r}")
    return value


def load_run_config(path: str | Path, seed: int = 0) -> RunConfig:
    """Parse and validate a run configuration file.

    The seed argument flows into the training and stimulus configs so the
    CLI's --seed flag (or GAZEFLOW_SEED) stays the single seed source.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
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
    training = values.get("training", {})
    try:
        frontend = _apply(FrontendConfig(), values.get("frontend", {}))
        split_level = training.get("split_level", "sequence")
        if split_level != "sequence":
            raise ConfigError(
                f"[training] split_level = {split_level}: the window split was removed, because it dealt "
                "overlapping windows of one recording into train, validation and test; recordings are "
                "always split whole, so 'sequence' is the only value"
            )
        phases = {p: _apply_phase(p, training) for p in _PHASES}
        train = _apply(_TRAIN, {**training, **values.get("network", {})}, skip=_PHASES)
        train = replace(train, seed=seed, **phases)
        try:
            param_shapes(frontend.window_len, train.kernel_len, train.pool_factor)
        except NetError:
            raise ConfigError(
                f"[network] kernel_len = {train.kernel_len} and pool_factor = {train.pool_factor} "
                f"leave no pooled output for [frontend] window_len = {frontend.window_len}"
            ) from None
        baselines = _apply(BaselineConfig(), values.get("baselines", {}))
        stimulus = replace(_apply(StimulusConfig(), values.get("stimulus", {})), seed=seed)
        evaluation = _apply(EvaluationConfig(), values.get("evaluation", {}))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    return RunConfig(frontend, train, baselines, stimulus, evaluation)
