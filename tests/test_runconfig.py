import numpy as np
import pytest

from gazeflow.runconfig import ConfigError, RunConfig, load_run_config

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
        assert cfg.split_level == "window"

    def test_full_example(self, tmp_path):
        path = tmp_path / "full.cfg"
        path.write_text(FULL_EXAMPLE)
        cfg = load_run_config(path, seed=4)
        assert cfg.train.phase1.epochs == 2
        assert cfg.train.phase2.adam.beta2 == 0.1
        assert cfg.train.batch_size == 32
        assert cfg.train.keep == "best"
        assert cfg.split_level == "sequence"
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

    def test_bad_split_level(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[training]\nsplit_level = sideways\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

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
