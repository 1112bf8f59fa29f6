"""Property test: damaged input files only ever end in a documented exit code.

Each example writes random bytes, a truncation or a one-byte mutation of a
valid gaze CSV, predictions CSV, config or model file and runs the CLI on
it. The models are a split-less one and one that `train` wrote with the
split of a tiny corpus, whose split record is damaged too. Whatever the bytes, `main` returns 0, 2, 3 or 4 and never raises. A
second strategy writes well-formed gaze CSVs whose finite coordinates reach
+-1e308, where speeds, features and stage-2 statistics overflow; the suite
turns a RuntimeWarning into an error, so each overflow must be caught.
"""
import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazeflow.cli import main
from gazeflow.gaze import GazeSequence
from gazeflow.gaze_io import write_gaze_csv
from gazeflow.model_io import save_model
from gazeflow.net import init_params
from gazeflow.simulate import StimulusConfig, generate_corpus, generate_sequence

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4}

VALID_CONFIG = """[frontend]
window_len = 30
center_offset = 15
demean = true

[baselines]
velocity_threshold_deg_s = 55
window_len = 30

[evaluation]
confidence_steps = 11
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    write_gaze_csv(generate_sequence(StimulusConfig(sequence_duration_s=1.0, seed=2), 0).sequence, d / "gaze.csv")
    save_model(init_params(0), d / "model.gznn")
    (d / "run.cfg").write_text(VALID_CONFIG, encoding="utf-8")
    assert main(["detect", "--baseline", "ivmp", "--in", str(d / "gaze.csv"), "--out", str(d / "preds.csv")]) == 0
    (d / "corpus").mkdir()
    for k, trace in enumerate(generate_corpus(StimulusConfig(sequence_duration_s=2.0, seed=3), 8)):
        write_gaze_csv(trace.sequence, d / "corpus" / f"seq-{k:04d}.csv")
    (d / "train.cfg").write_text("[training]\nphase1_epochs = 1\nphase2_epochs = 0\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--data-dir", str(d / "corpus"), "--config", str(d / "train.cfg"),
                     "--out", str(d / "split-model.gznn"), "--seed", "1"]) == 0
        assert main(["compare", "--data-dir", str(d / "corpus"), "--model", str(d / "split-model.gznn"),
                     "--report-dir", str(d / "report")]) == 0
    return d


def damaged(valid: bytes, tail: int = 0):
    """Random bytes, a truncation or a one-byte mutation of valid; with tail,
    also a truncation or one-byte mutation inside its last tail bytes."""

    def mutations(lo: int):
        return st.one_of(
            st.integers(lo, len(valid)).map(lambda k: valid[:k]),
            st.tuples(st.integers(lo, len(valid) - 1), st.integers(0, 255)).map(
                lambda m: valid[: m[0]] + bytes([m[1]]) + valid[m[0] + 1 :]
            ),
        )

    return st.one_of(st.binary(max_size=400), mutations(0), *([mutations(len(valid) - tail)] if tail else []))


# argv per file kind; FUZZ is the damaged file, the other files are valid
FILES = {"gaze.csv", "preds.csv", "model.gznn", "out.csv", "report", "corpus"}
COMMANDS = {
    "gaze.csv": [
        ["detect", "--model", "model.gznn", "--in", "FUZZ", "--out", "out.csv"],
        ["detect", "--baseline", "pca", "--in", "FUZZ", "--out", "out.csv"],
        ["eval", "--preds", "preds.csv", "--truth", "FUZZ", "--report-dir", "report"],
        ["trace", "--preds", "preds.csv", "--in", "FUZZ", "--out", "out.csv"],
    ],
    "preds.csv": [
        ["eval", "--preds", "FUZZ", "--truth", "gaze.csv", "--report-dir", "report"],
        ["trace", "--preds", "FUZZ", "--in", "gaze.csv", "--out", "out.csv"],
    ],
    "run.cfg": [
        ["detect", "--model", "model.gznn", "--in", "gaze.csv", "--out", "out.csv", "--config", "FUZZ"],
        ["detect", "--baseline", "ivt-idt", "--in", "gaze.csv", "--out", "out.csv", "--config", "FUZZ"],
        ["eval", "--preds", "preds.csv", "--truth", "gaze.csv", "--report-dir", "report", "--config", "FUZZ"],
    ],
    "model.gznn": [
        ["detect", "--model", "FUZZ", "--in", "gaze.csv", "--out", "out.csv"],
    ],
    "split-model.gznn": [
        ["detect", "--model", "FUZZ", "--in", "gaze.csv", "--out", "out.csv"],
        ["compare", "--data-dir", "corpus", "--model", "FUZZ", "--report-dir", "report"],
    ],
}


@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_damaged_file_ends_in_documented_exit_code(files, kind):
    valid = (files / kind).read_bytes()
    fuzz = files / f"fuzz-{kind}"
    # the split section of a model follows the 2,700-byte body of format 1
    tail = len(valid) - (32 + 8 * init_params(0).vector.size + 4) if kind == "split-model.gznn" else 0

    @settings(max_examples=50, deadline=None, database=None)
    @given(data=damaged(valid, tail), command=st.sampled_from(COMMANDS[kind]))
    def run(data, command):
        fuzz.write_bytes(data)
        argv = [str(fuzz) if a == "FUZZ" else str(files / a) if a in FILES else a for a in command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in DOCUMENTED_EXIT_CODES

    run()


@st.composite
def far_gaze(draw) -> GazeSequence:
    """A labeled recording at 300 Hz whose coordinates stay within +-1e308:
    each axis is a centre scaled down per sample by up to a drawn spread.

    Large centres overflow sums over a window; spreads of 10^-20 to 1 give
    steps from neighbour-sized to speed-overflowing."""
    n = draw(st.integers(30, 60))
    axes = []
    for _ in range(2):
        centre = draw(st.floats(-1.0, 1.0)) * 1e308
        spread = draw(st.sampled_from([0.0, *(10.0 ** -np.arange(21))]))
        jitter = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        axes.append(centre * (1.0 - spread * np.array(jitter)))
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.int8)
    return GazeSequence(np.arange(n) * (1000 / 300), *axes, np.ones(n, bool), labels)


FAR_COMMANDS = [
    ["detect", "--model", "model.gznn", "--in", "FUZZ", "--out", "out.csv"],
    *(["detect", "--baseline", name, "--in", "FUZZ", "--out", "out.csv"] for name in ("ivt", "ivt-idt", "ivmp", "pca")),
]


def test_far_coordinates_end_in_documented_exit_code(files):
    fuzz = files / "fuzz-far.csv"

    @settings(max_examples=50, deadline=None, database=None)
    @given(seq=far_gaze(), command=st.sampled_from(FAR_COMMANDS))
    def run(seq, command):
        write_gaze_csv(seq, fuzz)
        argv = [str(fuzz) if a == "FUZZ" else str(files / a) if a in FILES else a for a in command]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in DOCUMENTED_EXIT_CODES

    run()
