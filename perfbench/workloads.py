"""Workload definitions and the benchmark's own corpus edits.

Every workload starts from `gazeflow synth` with a fixed generator seed, so
the recordings are the same on every run. The benchmark seed (`--seed`)
places the tracking loss of the `gappy` workload and picks the samples the
output checks look at.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYNTH_SEED = 7  # ROADMAP reference corpus
TRAIN_SEED = 7  # train and compare must share it: compare re-derives the split

DETECTORS = ("cnn", "ivt", "ivt-idt", "ivmp", "pca")

# training schedule of the benchmark's `train` command
PHASE1_EPOCHS = 3
PHASE2_EPOCHS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    sequences: int
    duration_s: float
    gaps: bool
    phase1_epochs: int = PHASE1_EPOCHS
    phase2_epochs: int = PHASE2_EPOCHS

    @property
    def epochs(self) -> int:
        return self.phase1_epochs + self.phase2_epochs


WORKLOADS = {
    "clean": Workload("clean", sequences=48, duration_s=7.0, gaps=False),
    "gappy": Workload("gappy", sequences=48, duration_s=7.0, gaps=True),
    "long": Workload("long", sequences=8, duration_s=42.0, gaps=False),
}

# small versions for the self-tests: same code paths, a few seconds each
TINY = {
    "clean": Workload("clean", sequences=16, duration_s=4.0, gaps=False, phase1_epochs=1, phase2_epochs=1),
    "gappy": Workload("gappy", sequences=16, duration_s=4.0, gaps=True, phase1_epochs=1, phase2_epochs=1),
    "long": Workload("long", sequences=8, duration_s=8.0, gaps=False, phase1_epochs=1, phase2_epochs=1),
}


# ---------------------------------------------------------------------------
# tracking loss for the gappy workload

BLINK_MS = (150.0, 350.0)  # blink-length losses: longer than the repair limit
BLINKS_PER_RECORDING = (1, 2)
DROPOUTS_PER_RECORDING = (6, 12)  # 1-3 sample losses, repaired by interpolation
DROPOUT_LEN = (1, 3)
EDGE_MARGIN = 40  # samples kept valid at both ends of a recording
MIN_SEPARATION = 3  # valid samples between two losses, so they never merge


def loss_mask(n: int, rate_hz: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean mask of lost samples for one recording of n samples.

    One or two blinks of 150-350 ms and 6-12 dropouts of 1-3 samples, all
    strictly inside the recording and separated by at least MIN_SEPARATION
    valid samples, so every dropout stays a repairable run of <= 3 samples.
    """
    lost = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)  # lost samples plus their separation zone
    blocked[:EDGE_MARGIN] = True
    blocked[n - EDGE_MARGIN :] = True

    def place(length: int) -> None:
        for _ in range(1000):
            s = int(rng.integers(EDGE_MARGIN, n - EDGE_MARGIN - length))
            lo, hi = s - MIN_SEPARATION, s + length + MIN_SEPARATION
            if not blocked[lo:hi].any():
                lost[s : s + length] = True
                blocked[lo:hi] = True
                return
        raise RuntimeError("no room left for a tracking loss")

    for _ in range(int(rng.integers(BLINKS_PER_RECORDING[0], BLINKS_PER_RECORDING[1] + 1))):
        place(int(round(rng.uniform(*BLINK_MS) * rate_hz / 1000.0)))
    for _ in range(int(rng.integers(DROPOUTS_PER_RECORDING[0], DROPOUTS_PER_RECORDING[1] + 1))):
        place(int(rng.integers(DROPOUT_LEN[0], DROPOUT_LEN[1] + 1)))
    return lost


def add_tracking_loss(corpus: Path, seed: int, rate_hz: float = 300.0) -> None:
    """Rewrite every gaze CSV in `corpus` with seeded tracking loss.

    Lost rows keep their time stamp and label and get `nan` coordinates and
    valid = 0, which is what the program's own writer emits for such rows.
    """
    for k, path in enumerate(sorted(corpus.glob("*.csv"))):
        lines = path.read_bytes().split(b"\n")  # rows end in \r\n; the label keeps the \r
        n = len(lines) - 2  # header and the final empty string
        lost = loss_mask(n, rate_hz, np.random.default_rng([seed, k]))
        for i in np.flatnonzero(lost):
            t, _, _, _, label = lines[i + 1].split(b",")
            lines[i + 1] = b",".join((t, b"nan", b"nan", b"0", label))
        path.write_bytes(b"\n".join(lines))
