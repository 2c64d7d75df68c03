"""Benchmark of the mvtrace cross-validation pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Each workload generates its synthetic cohort from ``--seed``
with ``mvtrace generate``, then repeats its ``mvtrace run`` or ``sweep``
command for ``--seconds`` seconds, one process at a time, and checks every
result against planted truth and properties of the method.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 1`` the commands run in-process
under a span tracer and the metrics are the per-layer ones.  See README.md
in this directory for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import os

# Results are bit-identical only for a fixed BLAS thread count; fix it for
# this process (set-up and the traced run) and every program process it starts.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["MVTRACE_LOG"] = "error"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import CV_SEED, WORKLOADS, Workload, tiny  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 9   # least set-ups per run; setup_s is their median


# --- running the program --------------------------------------------------------


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Usage:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def run_program(args: list[str], log: Path) -> Usage:
    """One ``python3 -m mvtrace`` process; waits for it and reads its rusage."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mvtrace", *args],
                                env=program_env(), stdout=out, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode)


class Bench:
    """One benchmark invocation: its work directory, configs and findings."""

    def __init__(self, name: str, workload: Workload, seed: int, work: Path):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cohort_dir = work / "cohort"
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_folds_csv: bytes | None = None
        self._cohort: checks.Cohort | None = None

    @property
    def cohort(self) -> checks.Cohort:
        """The generated cohort, read at the first check; every set-up
        writes the same files."""
        if self._cohort is None:
            self._cohort = checks.Cohort(self.cohort_dir)
        return self._cohort

    @property
    def plan(self) -> list[np.ndarray]:
        return checks.fold_plan(len(self.cohort.ids), self.workload.folds, CV_SEED)

    def note(self, message: str) -> None:
        print(f"[{self.name}] {message}", file=sys.stderr, flush=True)

    def config_path(self, kind: str) -> Path:
        return self.work / f"{kind}.json"

    def write_configs(self) -> None:
        wl = self.workload
        gen = {**wl.cohort, "out": str(self.cohort_dir), "seed": self.seed}
        run = {**wl.config, "dataset": str(self.cohort_dir), "jobs": 1, "seed": CV_SEED}
        if wl.grid:
            run["grid"] = wl.grid
        self.config_path("generate").write_text(json.dumps(gen, indent=1))
        self.config_path(wl.command).write_text(json.dumps(run, indent=1))
        if wl.reference_point:
            point = {k: v for k, v in wl.reference_point.items() if k != "label"}
            check = {**wl.config, **point, "dataset": str(self.cohort_dir), "jobs": 1,
                     "seed": CV_SEED}
            self.config_path("check").write_text(json.dumps(check, indent=1))

    def setup(self) -> float:
        """Write the configs and generate the cohort with ``mvtrace generate``
        in this process, whose imports are already loaded; returns the
        seconds taken.  The files are then flushed to disk, untimed, so that
        their write-back does not fall inside the next timed command."""
        shutil.rmtree(self.cohort_dir, ignore_errors=True)
        start = time.perf_counter()
        self.write_configs()
        _, code = in_process(None, self.generate_args(), self.work / "generate.log")
        elapsed = time.perf_counter() - start
        if code != 0:
            log = (self.work / "generate.log").read_text()
            raise RuntimeError(f"mvtrace generate failed: {log}")
        for path in self.work.rglob("*"):
            if path.is_file():
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
        return elapsed

    def generate_args(self) -> list[str]:
        return ["generate", "--config", str(self.config_path("generate"))]

    def command_args(self, out: Path) -> list[str]:
        return [self.workload.command, "--config",
                str(self.config_path(self.workload.command)), "--out", str(out)]

    def record(self, ok: bool, out: Path) -> None:
        """Count one command's operations and check its results."""
        self.attempted += self.workload.operations
        if not ok:
            self.failed += self.workload.operations
            return
        try:
            self.check_results(out)
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"results of {out.name} unreadable: {exc!r}")

    # --- checks -------------------------------------------------------------

    def check_results(self, out: Path) -> None:
        wl = self.workload
        problems = checks.check_tables(out, wl.labels, wl.folds)
        folds_csv = (out / "folds.csv").read_bytes()
        if self.first_folds_csv is None:
            self.first_folds_csv = folds_csv
        elif folds_csv != self.first_folds_csv:
            problems.append("folds.csv differs between identical commands")
        r2 = checks.pooled_r2(out, self.cohort, self.plan)
        best = max(r2.values())
        if wl.r2_floor is not None and best < wl.r2_floor:
            problems.append(f"best out-of-fold R2 {best:.4f} below floor {wl.r2_floor}")
        if wl.command == "run":
            problems += self.check_run_artifacts(out)
        self.problems += problems
        self.note(f"checked {out.name}: out-of-fold R2 " +
                  ", ".join(f"{k} {v:.4f}" for k, v in r2.items()) +
                  ("" if not problems else f"; PROBLEMS {problems}"))

    def check_run_artifacts(self, out: Path) -> list[str]:
        """Convergence traces, significance map and support of a run's betas."""
        folds = self.workload.folds
        f1_floor = self.workload.f1_floor
        betas = checks.read_betas(out, folds)
        problems = checks.check_convergence(out, folds)
        problems += checks.check_significance(out, betas)
        f1 = checks.support_f1(betas, self.cohort.support)
        self.note(f"support F1 of mean |beta| rows vs planted: {f1:.4f}")
        if f1_floor is not None and f1 < f1_floor:
            problems.append(f"support F1 {f1:.4f} below floor {f1_floor}")
        return problems

    def check_reference(self, sweep_out: Path) -> None:
        """Solve every (grid point, fold) of the raw sweep with the benchmark's
        own solver; compare the sweep's test MSEs, and the objective and
        support of a program run's stored betas at the reference point."""
        try:
            self._check_reference(sweep_out)
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"reference check could not read results: {exc!r}")

    def _check_reference(self, sweep_out: Path) -> None:
        wl = self.workload
        check_out = self.work / "check_out"
        usage = run_program(["run", "--config", str(self.config_path("check")),
                             "--out", str(check_out)], self.work / "check.log")
        if usage.returncode != 0:
            self.problems.append("reference-point mvtrace run failed")
            return
        problems = self.check_run_artifacts(check_out)
        cohort = self.cohort
        lap_max = checks.laplacian_max(cohort.laplacian)
        sweep_mse = checks.fold_values(sweep_out, "mse")
        run_mse = checks.fold_values(check_out, "mse")
        program_betas = checks.read_betas(check_out, wl.folds)
        for f, test in enumerate(self.plan):
            train = np.setdiff1d(np.arange(len(cohort.ids)), test)
            fold = checks.RawFold(cohort, train, test)
            for point in wl.grid:
                beta = fold.solve(point["alpha"], point["eta"], lap_max)
                ref_mse = fold.test_mse(beta)
                got = sweep_mse[(point["label"], f)]
                if abs(got - ref_mse) > REF_MSE_RTOL * ref_mse:
                    problems.append(f"{point['label']} fold {f}: sweep MSE {got:.10g} vs "
                                    f"reference {ref_mse:.10g}")
                if point["label"] != wl.reference_point["label"]:
                    continue
                mine = program_betas[f]
                a, e = point["alpha"], point["eta"]
                best = fold.objective(beta, a, e)
                gap = (fold.objective(mine, a, e) - best) / best
                large, small = checks.support_mismatch(mine, beta)
                self.note(f"reference {point['label']} fold {f}: objective gap {gap:.3e}, "
                          f"support {len(checks.support_of(mine))} vs "
                          f"{len(checks.support_of(beta))} (tiny rows in one only: {small}), "
                          f"MSE rel diff {abs(got - ref_mse) / ref_mse:.2e}")
                if abs(gap) > REF_OBJECTIVE_RTOL:
                    problems.append(f"fold {f}: objective gap {gap:.3e} to the reference")
                if large:
                    problems.append(f"fold {f}: rows {large} are in one support only")
                own = fold.test_mse(mine)
                if not math.isclose(run_mse[(wl.config["arch"], f)], own,
                                    rel_tol=checks.CSV_RTOL):
                    problems.append(f"fold {f}: folds.csv MSE is not the stored beta's test MSE")
        self.problems += problems


# MFISTA stops on a 1e-8 relative plateau, so its objective sits a few 1e-7
# above the optimum.  With 30 subjects and 34,668 coefficients the objective
# is flat in many directions, so that gap moves the test MSE by up to ~0.2%
# at the weakest penalty.  The bounds leave a wide margin over both, and
# still catch a wrong fold, standardisation or prediction by far.
REF_OBJECTIVE_RTOL = 1e-5
REF_MSE_RTOL = 1e-2


# --- the two kinds of run -----------------------------------------------------


def measure(bench: Bench, seconds: float, size: str) -> dict:
    """Timed commands until they fill ``seconds``, each after a set-up; the
    set-ups still missing follow the last command.  The box's speed drifts
    within seconds, so set-ups spread over the run sample it as the commands
    do, where set-ups done back to back before them would not."""
    setups: list[float] = []
    usages: list[Usage] = []
    out = bench.work / "out"
    while True:
        setups.append(bench.setup())
        shutil.rmtree(out, ignore_errors=True)
        usage = run_program(bench.command_args(out), bench.work / "command.log")
        usages.append(usage)
        bench.note(f"{bench.workload.command}: wall {usage.wall_s:.4f}s cpu {usage.cpu_s:.4f}s "
                   f"rss {usage.peak_rss_mb:.1f}MB rc {usage.returncode}")
        bench.record(usage.returncode == 0, out)
        # start another command only if at least half of it fits in the
        # measured interval, so that the commands fill it on average
        typical = statistics.median(u.wall_s for u in usages)
        if sum(u.wall_s for u in usages) + typical / 2 > seconds:
            break
    while len(setups) < (SETUP_REPEATS if size == "full" else 1):
        setups.append(bench.setup())
    bench.note(f"setup_s runs: {[round(s, 4) for s in setups]}")
    if bench.workload.reference_point and usage.returncode == 0:
        bench.check_reference(out)
    return {
        "wall_s": statistics.median(u.wall_s for u in usages),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(u.cpu_s for u in usages),
        "peak_rss_mb": statistics.median(u.peak_rss_mb for u in usages),
    }


def in_process(tracer: spans.Tracer | None, argv: list[str], log: Path) -> tuple[float, int]:
    """Run ``mvtrace <argv>`` in this process, under ``tracer`` when given
    (its root span is the command).  Returns (wall seconds, exit code)."""
    from mvtrace import cli

    if tracer is not None:
        tracer.install()
    try:
        with open(log, "w") as out, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            start = time.perf_counter()
            code = cli.main(argv) if tracer is None else tracer.span("cli.main", cli.main, argv)
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, code


def trace(bench: Bench, seconds: float, size: str) -> dict:
    """Traced generate, then untraced and traced commands in turn, in-process.
    Per-layer metrics come from the first traced command; the overhead is the
    median traced wall minus the median untraced wall."""
    bench.setup()
    generate = spans.Tracer()
    _, code = in_process(generate, bench.generate_args(), bench.work / "generate.log")
    if code != 0:
        raise RuntimeError("traced mvtrace generate failed")
    if generate.absent:
        bench.note(f"absent layers (their metrics read null): {generate.absent}")

    walls: dict[bool, list[float]] = {False: [], True: []}
    tracers = []
    out = bench.work / "out"
    start = time.perf_counter()
    while True:
        traced = len(walls[True]) < len(walls[False])  # untraced first, then alternate
        tracer = spans.Tracer() if traced else None
        shutil.rmtree(out, ignore_errors=True)
        wall, code = in_process(tracer, bench.command_args(out), bench.work / "command.log")
        bench.record(code == 0, out)
        walls[traced].append(wall)
        if traced:
            tracers.append(tracer)
        bench.note(f"{'traced' if traced else 'untraced'} in-process "
                   f"{bench.workload.command}: {wall:.4f}s rc {code}")
        typical = statistics.median(walls[False])
        if tracers and len(walls[False]) >= 2 and \
                time.perf_counter() - start + typical > seconds:
            break
    for losses in (loss for t in tracers for loss in t.epoch_losses):
        if len(losses) < 2 or not losses[-1] < losses[0]:
            bench.problems.append(f"autoencoder epoch losses do not fall: {losses}")
    if bench.workload.reference_point and code == 0:
        bench.check_reference(out)

    metrics = spans.layer_metrics(tracers[0], generate,
                                  statistics.median(walls[True]), statistics.median(walls[False]))
    share = metrics["trace.unattributed_s"] / walls[True][0]
    bench.note(f"unattributed: {share:.2%} of the traced command")
    if size == "full" and share > UNATTRIBUTED_LIMIT:
        bench.problems.append(f"the layer spans leave {share:.2%} of the traced command "
                              f"unattributed (limit {UNATTRIBUTED_LIMIT:.0%})")
    return metrics


# Coverage of the layer spans: the self time of the command and of the CV
# containers (run_cv, run_fold) is work no layer span names.  It is 0.5-2%
# of a full-size command today; past 5% a layer has lost its wrapper.
# Tiny commands are dominated by fixed costs, so the limit is not applied.
UNATTRIBUTED_LIMIT = 0.05


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a 12-subject cohort for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "mvtrace" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # every layer module is loaded before any set-up is timed or wrapped
    sys.path.insert(0, str(SRC))
    import mvtrace.cli  # noqa: F401

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = tiny(workload)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, workload, args.seed, work)
    bench.note(f"python {sys.version.split()[0]}, BLAS threads {BLAS_THREADS}, "
               f"cpus {os.cpu_count()}, size {args.size}, seed {args.seed}")
    try:
        if args.trace:
            metrics = trace(bench, args.seconds, args.size)
            listed = spec["per_layer"]
        else:
            metrics = measure(bench, args.seconds, args.size)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for problem in bench.problems:
        bench.note(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
