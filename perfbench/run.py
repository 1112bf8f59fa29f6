"""Benchmark: a user's session through gazeflow's command line, in-process.

Run from the repository root:

    python3 perfbench/run.py --workload clean --seed 1 --seconds 20 --trace 0

A session is `synth`, then rounds of `train` (split_level = sequence, a
fixed small number of epochs), `compare`, and `detect` for every
(recording, detector) pair of one slice of the recordings, baselines at the
thresholds `compare` tuned. Every call goes through `gazeflow.cli.main(argv)`.
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per layer with --trace 1).
See perfbench/README.md.
"""
import os

# one process, no worker threads: fix the BLAS/OpenMP pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3  # set-up runs per session; setup_s takes their median
ROUNDS = 3  # rounds per cycle; each detects one slice of the (recording, detector) pairs


class SessionFailed(Exception):
    """A command or check failed and the session cannot go on."""


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import gazeflow.cli as cli
    except ImportError as exc:
        print(f"perfbench: cannot import gazeflow from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: gazeflow was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return cli


class Ops:
    """Operations attempted and failed: CLI commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            print(f"perfbench: check failed: {reason}", file=sys.stderr)


class Session:
    def __init__(self, cli, workload, seed: int, work: Path, ops: Ops):
        self.cli = cli
        self.wl = workload
        self.seed = seed
        self.work = work
        self.ops = ops
        self.corpus = work / "corpus"
        self.model = work / "model.gznn"
        self.report = work / "compare"
        self.preds = work / "preds"
        self.train_s: list[float] = []
        self.compare_s: list[float] = []
        self.detect_s: list[float] = []
        self.detect_rows = 0
        self._rows: dict[str, int] = {}
        self.tuned_ready = False
        self.first_outputs = None

    # -- commands ----------------------------------------------------------

    def command(self, *argv: str) -> float:
        """Run one CLI command in-process; returns its wall time."""
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = self.cli.main(list(argv))
        elapsed = time.perf_counter() - t0
        self.ops.attempted += 1
        if rc != 0:
            self.ops.failed += 1
            raise SessionFailed(f"gazeflow {' '.join(argv)} exited with {rc}")
        return elapsed

    def setup(self, corpus: Path) -> float:
        """synth, tracking loss (gappy), config files; returns wall time."""
        from workloads import SYNTH_SEED, add_tracking_loss

        t0 = time.perf_counter()
        synth_cfg = self.work / "synth.ini"
        synth_cfg.write_text(f"[stimulus]\nsequence_duration_s = {self.wl.duration_s!r}\n", encoding="utf-8")
        self.command("synth", "--out-dir", str(corpus), "--sequences", str(self.wl.sequences),
                     "--seed", str(SYNTH_SEED), "--config", str(synth_cfg))
        if self.wl.gaps:
            add_tracking_loss(corpus, self.seed)
        (self.work / "train.ini").write_text(
            "[training]\nsplit_level = sequence\n"
            f"phase1_epochs = {self.wl.phase1_epochs}\nphase2_epochs = {self.wl.phase2_epochs}\n",
            encoding="utf-8",
        )
        return time.perf_counter() - t0

    def recordings(self) -> list[Path]:
        return sorted(self.corpus.glob("*.csv"))

    def rows(self, rec: Path) -> int:
        if rec.name not in self._rows:
            self._rows[rec.name] = rec.read_bytes().count(b"\n") - 1
        return self._rows[rec.name]

    def round(self, r: int, stage=contextlib.nullcontext) -> dict[str, float]:
        """train, compare and detect slice r of the (recording, detector) pairs.

        Half of the slice is detected between train and compare and half
        after compare, so every metric samples the whole session.
        """
        from workloads import DETECTORS, TRAIN_SEED

        pairs = [(rec, det) for rec in self.recordings() for det in DETECTORS][r::ROUNDS]
        times = {"detect": 0.0}
        with stage("cli.train"):
            times["train"] = self.command(
                "train", "--data-dir", str(self.corpus), "--config", str(self.work / "train.ini"),
                "--out", str(self.model), "--seed", str(TRAIN_SEED))
        tuned_before = self.tuned_ready  # thresholds of an earlier, identical compare
        if tuned_before:
            times["detect"] += self.detect(pairs[0::2], stage)
        with stage("cli.compare"):
            times["compare"] = self.command(
                "compare", "--data-dir", str(self.corpus), "--model", str(self.model),
                "--report-dir", str(self.report), "--seed", str(TRAIN_SEED))
        self.write_baseline_configs()
        self.check_repeatable()
        if not tuned_before:
            times["detect"] += self.detect(pairs[0::2], stage)
        times["detect"] += self.detect(pairs[1::2], stage)
        self.train_s.append(times["train"])
        self.compare_s.append(times["compare"])
        return times

    def check_repeatable(self) -> None:
        """Every train/compare of a session writes the same files."""
        files = (self.model, Path(f"{self.model}.history.csv"),
                 self.report / "comparison.csv", self.report / "tuned_thresholds.json")
        outputs = [p.read_bytes() for p in files]
        if self.first_outputs is None:
            self.first_outputs = outputs
        else:
            self.ops.check(None if outputs == self.first_outputs else "a repeated train/compare gave different files")

    def detect(self, pairs, stage) -> float:
        total = 0.0
        for rec, det in pairs:
            source = (["--model", str(self.model)] if det == "cnn"
                      else ["--baseline", det, "--config", str(self.work / f"{det}.ini")])
            with stage("cli.detect"):
                t = self.command("detect", *source, "--in", str(rec), "--out", str(self.preds / det / rec.name))
            self.detect_s.append(t)
            self.detect_rows += self.rows(rec)
            total += t
        return total

    def write_baseline_configs(self) -> None:
        tuned = json.loads((self.report / "tuned_thresholds.json").read_text(encoding="utf-8"))
        for det, values in tuned.items():
            body = "".join(f"{k} = {v!r}\n" for k, v in values.items())
            (self.work / f"{det}.ini").write_text(f"[baselines]\n{body}", encoding="utf-8")
        for det in tuned.keys() | {"cnn"}:
            (self.preds / det).mkdir(parents=True, exist_ok=True)
        self.tuned_ready = True

    def cycle(self, stage=contextlib.nullcontext) -> dict[str, float]:
        """ROUNDS rounds: every (recording, detector) pair is detected once per cycle."""
        totals = {"train": 0.0, "compare": 0.0, "detect": 0.0}
        for r in range(ROUNDS):
            for k, v in self.round(r, stage).items():
                totals[k] += v
        return totals


def _log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


def _snapshot(paths) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in paths}


def run_untraced(session: Session, seconds: float, import_s: float) -> dict:
    setup = []
    for k in range(SETUP_REPEATS):
        corpus = session.work / f"corpus-{k}"
        setup.append(session.setup(corpus))
    first = _snapshot(sorted((session.work / "corpus-0").glob("*")))
    for k in range(1, SETUP_REPEATS):
        again = _snapshot(sorted((session.work / f"corpus-{k}").glob("*")))
        session.ops.check(None if again == first else f"synth run {k} wrote different files than run 0")
        shutil.rmtree(session.work / f"corpus-{k}")
    (session.work / "corpus-0").rename(session.corpus)

    t0 = time.perf_counter()
    _log(f"setup {sum(setup):.1f} s")
    while True:
        session.cycle()
        if time.perf_counter() - t0 >= seconds:
            break
    _log(f"cycles {time.perf_counter() - t0:.1f} s")
    return {"setup_s": import_s + statistics.median(setup)}


def run_traced(session: Session, seconds: float, out_path: Path) -> dict:
    from tracing import Tracer, layer_metrics, patched

    tracer = Tracer()
    untraced = {"synth": session.setup(session.corpus)}
    shutil.rmtree(session.corpus)
    with patched(tracer), tracer.span("cli.synth"):
        traced = {"synth": session.setup(session.corpus)}

    t0 = time.perf_counter()
    cycles = 0
    while True:
        for r in range(ROUNDS):
            if cycles == 0 and r == 0:
                # the untraced reference for the overhead: round 0 once more, untraced
                untraced.update(session.round(0))
            with patched(tracer):
                times = session.round(r, tracer.span)
            if cycles == 0 and r == 0:
                traced.update(times)
        cycles += 1
        if time.perf_counter() - t0 >= seconds:
            break
    overhead = {f"trace.{stage}.overhead_s": (traced[stage] - untraced[stage], "s")
                for stage in ("synth", "train", "compare", "detect")}
    metrics = {**layer_metrics(tracer, cycles), **overhead}
    tracer.dump(out_path, {"workload": session.wl.name, "seed": session.seed, "cycles": cycles,
                           "untraced_s": untraced, "traced_s": traced})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("clean", "gappy", "long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few-second session for the self-tests")
    args = parser.parse_args(argv)

    cli = _import_program()
    import_s = time.perf_counter() - T_START

    import verify
    from workloads import TINY, WORKLOADS

    workload = (TINY if args.size == "tiny" else WORKLOADS)[args.workload]
    work = HERE / "_work" / f"{args.workload}-{args.size}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops()
    session = Session(cli, workload, args.seed, work, ops)
    try:
        if args.trace:
            out = HERE / "_out" / f"trace-{args.workload}-{args.size}-s{args.seed}.json"
            metrics = run_traced(session, args.seconds, out)
        else:
            e2e = run_untraced(session, args.seconds, import_s)
        t_verify = time.perf_counter()
        verified = verify.verify_session(session)
        _log(f"checks {time.perf_counter() - t_verify:.1f} s")
    except SessionFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(ops.attempted, 1), "failed": max(ops.failed, 1),
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not args.trace:
        rows = session.detect_rows
        metrics = {
            "setup_s": (e2e["setup_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "train_windows_per_s": (
                verified["train_windows"] * workload.epochs / statistics.median(session.train_s), "1/s"),
            "compare_s": (statistics.median(session.compare_s), "s"),
            "label_samples_per_s": (rows / sum(session.detect_s), "1/s"),
            "label_ms_p50": (1e3 * statistics.median(session.detect_s), "ms"),
        }
        metrics.update((k, (v, "fraction")) for k, v in verified["quality"].items())
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
