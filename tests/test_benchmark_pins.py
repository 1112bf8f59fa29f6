"""The names the committed benchmark wraps must stay where it looks them up.

perfbench/tracing.py replaces each traced function on the module the program
calls it through (for example `gazeflow.cli.train`, `gazeflow.net.adam_step`
and `gazeflow.detectors.forward_batch`) for the length of a `patched()`
block. A name that is gone fails every traced benchmark run, so this test
enters that block from the unedited file.
"""
import importlib.util
from pathlib import Path

import numpy as np

from gazeflow import cli, detectors, net
from gazeflow.gaze import DatasetSplit, WindowSet

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_split():
    rng = np.random.default_rng(0)

    def part(n):
        return WindowSet(np.abs(rng.normal(size=(n, 30, 2))), rng.integers(0, 3, n).astype(np.int8), np.zeros(n, dtype=np.int64))

    return DatasetSplit(train=part(130), validation=part(10), test=part(1))


def test_patched_finds_every_traced_name_and_train_calls_the_wrapped_steps():
    tracing = load_tracing()
    originals = {name: getattr(net, name) for name in ("forward_batch", "backward_batch", "adam_step", "frame_accuracy")}
    detectors_forward = detectors.forward_batch
    tracer = tracing.Tracer()
    cfg = net.TrainConfig(
        phase1=net.PhaseConfig(1, net.PHASE1_ADAM), phase2=net.PhaseConfig(1, net.PHASE2_ADAM), seed=1
    )
    with tracing.patched(tracer):
        cli.train(small_split(), cfg)  # traced as net.train
    for name in ("forward_batch", "backward_batch", "adam_step"):
        assert tracer.durations(f"net.{name}", "net.train").size == 6, name  # 3 batches x 2 epochs
    assert tracer.durations("net.frame_accuracy", "net.train").size == 2
    # every name is put back
    assert {name: getattr(net, name) for name in originals} == originals
    assert detectors.forward_batch is detectors_forward
