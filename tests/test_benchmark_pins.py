"""The names the committed benchmark wraps must stay where it looks them up.

perfbench/tracing.py replaces each traced function on the module the program
calls it through (for example `gazeflow.cli.train`, `gazeflow.net.adam_step`
and `gazeflow.detectors.forward_batch`) for the length of a `patched()`
block. A name that is gone fails every traced benchmark run, so this test
enters that block from the unedited file. The other benchmark files import
gazeflow names too, some only after a whole session has run; the import
check below reads them all without running them.
"""
import ast
import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from gazeflow import cli, detectors, features, net, tuning
from gazeflow.gaze import DatasetSplit, WindowSet
from gazeflow.gaze_io import write_gaze_csv
from gazeflow.model_io import load_model, save_model
from gazeflow.simulate import StimulusConfig, generate_corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_split():
    rng = np.random.default_rng(0)

    def part(n):
        return WindowSet(np.abs(rng.normal(size=(n, 30, 2))), rng.integers(0, 3, n).astype(np.int8), np.zeros(n, dtype=np.int64))

    return DatasetSplit(train=part(130), validation=part(10))


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


def test_train_reaches_the_traced_split_and_featurize_through_module_globals(tmp_path):
    # the traced split span and the windows-kept and windows-skipped counters
    # wrap cli.split_dataset and features.featurize_sequence
    tracing = load_tracing()
    seqs = [t.sequence for t in generate_corpus(StimulusConfig(seed=4, sequence_duration_s=2.0), 8)]
    lost = np.zeros(len(seqs[0]), bool)
    lost[300:400] = True  # a loss longer than the repair limit: skipped windows
    seqs[0] = replace(seqs[0], x_deg=np.where(lost, np.nan, seqs[0].x_deg), valid=seqs[0].valid & ~lost)
    data = tmp_path / "data"
    data.mkdir()
    for k, seq in enumerate(seqs):
        write_gaze_csv(seq, data / f"seq-{k:04d}.csv")
    cfg = tmp_path / "train.ini"
    cfg.write_text("[training]\nsplit_level = sequence\nphase1_epochs = 1\nphase2_epochs = 0\n")
    split = features.split_dataset(seqs, features.FrontendConfig(), 3)
    featurize = features.featurize_sequence
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        code = cli.main(["train", "--data-dir", str(data), "--config", str(cfg), "--out", str(tmp_path / "m.gznn"), "--seed", "3"])
    assert code == 0
    assert tracer.durations("gaze.split_dataset").size == 1
    groups = np.unique(np.concatenate([split.train.groups, split.validation.groups]))
    assert groups.tolist() == [0, 1, 2, 3, 4, 5, 6]  # recording 7 is the test part: never featurized
    assert tracer.durations("features.featurize_sequence", "gaze.split_dataset").size == 7
    kept = tracer.counts["features.featurize_sequence.windows_kept"]
    assert kept == len(split.train) + len(split.validation)
    assert tracer.counts["features.featurize_sequence.windows_skipped"] == 100 + 29  # windows over the loss
    assert features.featurize_sequence is featurize and cli.split_dataset is features.split_dataset


def test_compare_tunes_through_the_traced_stage2_name(tmp_path):
    # tuning.tune_baselines.s and the stage-2 call, span and sample counts
    # wrap cli.tune_baselines and tuning.stage2_statistics; the detector and
    # metric layers wrap cli.cnn_detect, cli.BASELINE_DETECTORS,
    # cli.one_vs_all_auc and cli.confusion
    tracing = load_tracing()
    seqs = [t.sequence for t in generate_corpus(StimulusConfig(seed=4, sequence_duration_s=2.0), 8)]
    data = tmp_path / "data"
    data.mkdir()
    for k, seq in enumerate(seqs):
        write_gaze_csv(seq, data / f"seq-{k:04d}.csv")
    model = tmp_path / "m.gznn"
    save_model(net.init_params(0), model)
    part, _ = features.split_recordings(seqs, features.FrontendConfig(), 3)
    n_val, n_test = int(np.sum(part == 1)), int(np.sum(part == 2))
    modules = (cli, detectors, features, net, tuning)
    names = [dict(vars(m)) for m in modules]
    baselines = dict(cli.BASELINE_DETECTORS)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        code = cli.main(["compare", "--data-dir", str(data), "--model", str(model),
                         "--report-dir", str(tmp_path / "r"), "--seed", "3"])
    assert code == 0 and n_val >= 1 and n_test >= 1
    assert tracer.durations("tuning.tune_baselines").size == 1
    # compare_detectors scores through the traced names: each detector once
    # per test recording, then one ROC and one confusion per detector
    for layer in ("detectors.cnn_detect", *tracing.BASELINE_LAYERS.values()):
        assert tracer.durations(layer).size == n_test, layer
    assert tracer.durations("metrics.one_vs_all_auc").size == 5
    assert tracer.durations("metrics.confusion").size == 5
    velocity_candidates = tuning.TuningGrids().velocity.size
    assert velocity_candidates == 20
    # tuning runs stage 2 once per validation recording at each velocity
    # candidate its bound leaves live: at least one, and here not all
    traced = tracer.durations("detectors.stage2_statistics", "tuning.tune_baselines").size
    assert traced % n_val == 0 and n_val <= traced < velocity_candidates * n_val
    # every stage-2 call tuning makes goes through the traced name
    calls = []
    stage2 = tuning.stage2_statistics

    def counted(*args):
        calls.append(args)
        return stage2(*args)

    tuning.stage2_statistics = counted
    try:
        tuning.tune_baselines([seq for seq, p in zip(seqs, part) if p == 1])
    finally:
        tuning.stage2_statistics = stage2
    assert len(calls) == traced
    # every name is put back
    for module, before in zip(modules, names):
        assert all(getattr(module, k) is v for k, v in before.items()), module.__name__
    assert cli.BASELINE_DETECTORS == baselines


def test_compare_reads_only_the_recordings_the_stored_split_names(tmp_path):
    # gaze_io.read_gaze_csv.rows_per_s and model_io.load_model.ms wrap
    # cli.read_gaze_csv and cli.load_model: a compare with a model that
    # stores its split reads its validation and test recordings only
    tracing = load_tracing()
    seqs = [t.sequence for t in generate_corpus(StimulusConfig(seed=4, sequence_duration_s=2.0), 8)]
    data = tmp_path / "data"
    data.mkdir()
    for k, seq in enumerate(seqs):
        write_gaze_csv(seq, data / f"seq-{k:04d}.csv")
    cfg = tmp_path / "train.ini"
    cfg.write_text("[training]\nsplit_level = sequence\nphase1_epochs = 1\nphase2_epochs = 0\n")
    model, bare = tmp_path / "m.gznn", tmp_path / "bare.gznn"
    assert cli.main(["train", "--data-dir", str(data), "--config", str(cfg), "--out", str(model), "--seed", "3"]) == 0
    save_model(load_model(model), bare)  # the same weights without a split
    modules = (cli, detectors, features, net, tuning)
    names = [dict(vars(m)) for m in modules]
    for path, reads in ((model, 2), (bare, 8)):
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            code = cli.main(["compare", "--data-dir", str(data), "--model", str(path),
                             "--report-dir", str(tmp_path / "r"), "--seed", "3"])
        assert code == 0
        assert tracer.durations("gaze_io.read_gaze_csv").size == reads, path.name
        assert tracer.durations("model_io.load_model").size == 1
        assert tracer.counts["gaze_io.read_gaze_csv.rows"] == reads * len(seqs[0])
        # every name is put back
        for module, before in zip(modules, names):
            assert all(getattr(module, k) is v for k, v in before.items()), module.__name__


def gazeflow_imports(path):
    """(module, name) of each gazeflow import in a file, name None for `import gazeflow.x`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "gazeflow":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "gazeflow")


def test_every_gazeflow_name_the_benchmark_imports_resolves():
    found, missing = 0, []
    for path in sorted(PERFBENCH.glob("*.py")):
        for module, name in gazeflow_imports(path):
            found += 1
            mod = importlib.import_module(module)
            if name is not None and not hasattr(mod, name):
                try:
                    importlib.import_module(f"{module}.{name}")  # `from gazeflow import cli`
                except ModuleNotFoundError:
                    missing.append(f"{path.name}: from {module} import {name}")
    assert found > 20  # the walk sees the imports inside functions too
    assert not missing, missing
