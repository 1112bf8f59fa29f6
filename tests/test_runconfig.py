from dataclasses import replace

import numpy as np
import pytest

from gazeflow.detectors import BaselineConfig
from gazeflow.features import FrontendConfig
from gazeflow.net import AdamConfig, PhaseConfig, TrainConfig
from gazeflow.runconfig import (
    _SCHEMA,
    ConfigError,
    EvaluationConfig,
    RunConfig,
    build_run_config,
    load_run_config,
)
from gazeflow.simulate import StimulusConfig

FULL_EXAMPLE = """
[frontend]
window_len = 30
stride = 1
center_offset = 15
interp_max_gap = 3
demean = true

[network]
kernel_len = 10
pool_factor = 5

[training]
phase1_epochs = 2
phase1_alpha = 0.001
phase1_beta1 = 0.9
phase1_beta2 = 0.99
phase1_epsilon = 1e-8
phase2_epochs = 3
phase2_alpha = 0.002
phase2_beta1 = 0.85
phase2_beta2 = 0.1
phase2_epsilon = 1e-8
batch_size = 32
shuffle = true
split_level = sequence
keep = best

[baselines]
velocity_threshold_deg_s = 55
dispersion_threshold_deg = 0.7
angle_threshold_rad = 1.2
pca_ratio_threshold = 4.5
window_len = 30

[stimulus]
rate_hz = 300
screen_half_extent_deg = 11
n_star_positions = 88
fixation_dur_ms_min = 100
fixation_dur_ms_max = 400
pursuit_speed_deg_s_min = 5
pursuit_speed_deg_s_max = 35
saccade_dur_ms_min = 10
saccade_dur_ms_max = 100
noise_sigma_deg = 0.1
tremor_sigma_deg = 0.02
artifact_rate = 0.02
artifact_scale = 6
sequence_duration_s = 3.5

[evaluation]
confidence_steps = 11
"""


class TestLoadRunConfig:
    def test_defaults_without_file_sections(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_run_config(path, seed=9)
        assert cfg.frontend.window_len == 30
        assert cfg.train.seed == 9
        assert cfg.stimulus.seed == 9

    def test_full_example(self, tmp_path):
        path = tmp_path / "full.cfg"
        path.write_text(FULL_EXAMPLE)
        cfg = load_run_config(path, seed=4)
        assert cfg.train.phase1.epochs == 2
        assert cfg.train.phase2.adam.beta2 == 0.1
        assert cfg.train.batch_size == 32
        assert cfg.train.keep == "best"
        assert cfg.baselines.velocity_threshold_deg_s == 55
        assert cfg.stimulus.fixation_dur_ms == (100.0, 400.0)
        assert cfg.stimulus.noise_sigma_deg == 0.1
        assert cfg.stimulus.sequence_duration_s == 3.5
        assert cfg.evaluation.confidence_steps == 11
        assert np.allclose(cfg.evaluation.thresholds, np.linspace(0, 1, 11))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[nonsense]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_run_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[frontend]\nwindowlen = 30\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(path)

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[frontend]\nwindow_len = many\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_invariants_enforced(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[frontend]\ncenter_offset = 99\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    @pytest.mark.parametrize("value", ["window", "sideways"])
    def test_only_the_sequence_split_level(self, tmp_path, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[training]\nsplit_level = {value}\n")
        with pytest.raises(ConfigError, match=f"split_level = {value}: the window split was removed"):
            load_run_config(path)
        path.write_text("[training]\nsplit_level = sequence\n")
        assert load_run_config(path) == RunConfig()

    def test_bool_parsing(self, tmp_path):
        path = tmp_path / "cfg.cfg"
        path.write_text("[frontend]\ndemean = off\n")
        assert load_run_config(path).frontend.demean is False
        path.write_text("[frontend]\ndemean = maybe\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_default_object(self):
        cfg = RunConfig()
        assert cfg.train.phase1.epochs == 100
        assert cfg.train.phase2.epochs == 200
        assert cfg.train.phase2.adam.beta2 == 0.1


@pytest.mark.parametrize(
    "network",
    ["kernel_len = 30", "kernel_len = 31", "kernel_len = 0", "pool_factor = 0", "pool_factor = 22"],
)
def test_network_geometry_checked_against_window_len(tmp_path, network):
    p = tmp_path / "net.cfg"
    p.write_text(f"[network]\n{network}\n")
    with pytest.raises(ConfigError):
        load_run_config(p)


# The hand-written schema that _SCHEMA is now derived from the config
# classes, kept as the oracle.
LITERAL_SCHEMA = {
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


def test_derived_schema_equals_literal():
    assert _SCHEMA == LITERAL_SCHEMA


@pytest.mark.parametrize("seed", [0, 7, 1234])
def test_no_config_file_is_the_seeded_default(seed):
    cfg = RunConfig()
    seeded = replace(cfg, train=replace(cfg.train, seed=seed), stimulus=replace(cfg.stimulus, seed=seed))
    assert build_run_config({}, seed=seed) == seeded


def test_every_key_reaches_its_field(tmp_path):
    """A file setting every key to a non-default value builds the config the
    nested constructors build from the same values."""
    path = tmp_path / "all.cfg"
    path.write_text(
        "[frontend]\nwindow_len = 40\nstride = 2\ncenter_offset = 20\ninterp_max_gap = 5\ndemean = false\n"
        "[network]\nkernel_len = 8\npool_factor = 4\n"
        "[training]\nphase1_epochs = 3\nphase1_alpha = 0.01\nphase1_beta1 = 0.8\nphase1_beta2 = 0.9\n"
        "phase1_epsilon = 1e-7\nphase2_epochs = 4\nphase2_alpha = 0.02\nphase2_beta1 = 0.7\nphase2_beta2 = 0.2\n"
        "phase2_epsilon = 1e-6\nbatch_size = 16\nshuffle = false\nsplit_level = sequence\nkeep = final\n"
        "[baselines]\nvelocity_threshold_deg_s = 50\ndispersion_threshold_deg = 0.6\nangle_threshold_rad = 1.1\n"
        "pca_ratio_threshold = 4\nwindow_len = 20\n"
        "[stimulus]\nrate_hz = 250\nscreen_half_extent_deg = 10\nn_star_positions = 16\n"
        "fixation_dur_ms_min = 150\nfixation_dur_ms_max = 350\npursuit_speed_deg_s_min = 6\n"
        "pursuit_speed_deg_s_max = 30\nsaccade_dur_ms_min = 12\nsaccade_dur_ms_max = 90\nnoise_sigma_deg = 0.3\n"
        "tremor_sigma_deg = 0.03\nartifact_rate = 0.01\nartifact_scale = 5\nsequence_duration_s = 2\n"
        "[evaluation]\nconfidence_steps = 5\n"
    )
    expected = RunConfig(
        frontend=FrontendConfig(window_len=40, stride=2, center_offset=20, interp_max_gap=5, demean=False),
        train=TrainConfig(
            phase1=PhaseConfig(3, AdamConfig(0.01, 0.8, 0.9, 1e-7)),
            phase2=PhaseConfig(4, AdamConfig(0.02, 0.7, 0.2, 1e-6)),
            batch_size=16,
            seed=3,
            shuffle=False,
            kernel_len=8,
            pool_factor=4,
            keep="final",
        ),
        baselines=BaselineConfig(50.0, 0.6, 1.1, 4.0, 20),
        stimulus=StimulusConfig(
            rate_hz=250.0,
            screen_half_extent_deg=10.0,
            n_star_positions=16,
            fixation_dur_ms=(150.0, 350.0),
            pursuit_speed_deg_s=(6.0, 30.0),
            saccade_dur_ms=(12.0, 90.0),
            noise_sigma_deg=0.3,
            tremor_sigma_deg=0.03,
            artifact_rate=0.01,
            artifact_scale=5.0,
            seed=3,
            sequence_duration_s=2.0,
        ),
        evaluation=EvaluationConfig(confidence_steps=5),
    )
    assert load_run_config(path, seed=3) == expected
