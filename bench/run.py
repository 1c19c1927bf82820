"""Benchmark of the cvqkd-calib CLI: one workload, one seed, one run.

    python3 bench/run.py --workload asym_sweep --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from ../src relative to this
file, never from an installed copy. The CLI runs in this process through
`cvqkd_calib.cli.main` with --jobs at its default of 1.

--trace 0 times repeated CLI calls (after one warm-up call) and reports
the end-to-end metrics. --trace 1 alternates untraced and traced calls
and reports the per-layer metrics of tracing.py. CLI-call times are
scaled to nominal machine speed with the kernel of speed.py; set-up
subprocesses are spread over the timed loop. Both modes check every
output row against the stored references, print a provenance line, and
print the result as one JSON object on the last line of stdout. A copy
of the result, and the spans of the last traced call, go to .bench_work/.
Exit code 2, with no result, when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))

import refcheck  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Fresh interpreters per run for setup_s.
SETUP_REPEATS = 8
SETUP_TIMEOUT_S = 60

SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cvqkd_calib.cli as cli
t1 = time.perf_counter()
cli.load_config(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0, "file": cli.__file__}))
"""

PACKAGE_MODULES = ("cli", "keyrate", "models", "gaussian", "calibration")

END_TO_END_UNITS = {"rows_per_s": "rows/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **tracing.SPAN_METRICS,
    "keyrate.rate_ms_p50": "ms",
    "keyrate.rate_ms_p99": "ms",
    "keyrate.worst_n0_at_edge_frac": "fraction",
    "cli.rows": "count",
    "setup.import_s": "s",
    "trace.overhead_frac": "fraction",
}


class Fatal(Exception):
    """The benchmark cannot run here; exit without a result."""


def pin_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def import_cli():
    """Import the CLI from this checkout's src/."""
    if not (SRC / "cvqkd_calib" / "cli.py").is_file():
        raise Fatal(f"no package source at {SRC / 'cvqkd_calib'}")
    sys.path.insert(0, str(SRC))
    try:
        import cvqkd_calib.cli as cli
    except Exception as exc:  # any import failure means there is nothing to measure
        raise Fatal(f"cannot import cvqkd_calib.cli: {exc!r}") from exc
    if Path(cli.__file__).resolve().parent != (SRC / "cvqkd_calib").resolve():
        raise Fatal(f"imported cvqkd_calib from {cli.__file__}, not from {SRC}")
    return cli


class SetupSampler:
    """Fresh interpreters that import the CLI and load the config.

    The samples are spread evenly over the timed loop, so that they meet
    the same drift in machine speed as the CLI calls. One warm-up
    interpreter first fills the bytecode and page caches; its time is
    not used. Each record holds the child's own import and set-up times.
    """

    def __init__(self, config_path: str, seconds: float):
        self.config_path = config_path
        self.interval = seconds / SETUP_REPEATS
        self.records: list[dict] = []
        self._measure()
        self._due = time.perf_counter()

    def _measure(self) -> dict:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), self.config_path],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise Fatal(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(record["file"]).resolve().parent != (SRC / "cvqkd_calib").resolve():
            raise Fatal(f"set-up interpreter imported {record['file']}")
        return record

    def tick(self) -> float:
        """Take a sample if one is due; return the wall seconds it took."""
        t0 = time.perf_counter()
        if len(self.records) >= SETUP_REPEATS or t0 < self._due:
            return 0.0
        self.records.append(self._measure())
        self._due += self.interval
        return time.perf_counter() - t0

    def finish(self) -> list[dict]:
        while len(self.records) < SETUP_REPEATS:
            self.records.append(self._measure())
        return self.records


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Calls the CLI on one workload config and checks every output."""

    def __init__(self, cli, workload, seed: int, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.finite_size = workload.regime == "finite_size"
        self.config_path = str(workdir / "config.json")
        self.out_path = str(workdir / "out.csv")
        with open(self.config_path, "w") as f:
            json.dump(workloads.make_config(workload, seed, self.out_path), f, indent=2)
        self.argv = workloads.cli_argv(workload, self.config_path, self.out_path)
        self.refs = workloads.load_refs(workload, seed)
        if len(self.refs) != workload.rows:
            raise Fatal(f"{len(self.refs)} reference rows for {workload.name}, "
                        f"expected {workload.rows}")
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.last_rows: list[dict] = []

    def call(self) -> tuple[float, int, float]:
        """One CLI call: (wall seconds, rows written, machine slowdown).

        The reference kernel runs right before and after the call; the
        output is checked after it.
        """
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)
        err = io.StringIO()
        before = speed.kernel()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(self.argv)
            except Exception as exc:  # a crash fails the call's rows like an exit code would
                code = f"uncaught {exc!r}"
            wall = time.perf_counter() - t0
        slowdown = speed.slowdown(before, speed.kernel())
        rows = self._check(code, err.getvalue())
        return wall, rows, slowdown

    def _check(self, code, stderr: str) -> int:
        expected = len(self.refs)
        self.attempted += expected
        if code != 0:
            self.failed += expected
            self.first_failure = self.first_failure or (
                f"command exited with {code}: {stderr.strip()[-300:]}")
            return 0
        try:
            rows = refcheck.read_rows(self.out_path)
        except OSError as exc:
            rows = []
            self.first_failure = self.first_failure or f"no output file: {exc}"
        failed, first = refcheck.check_rows(self.workload.command, self.finite_size,
                                            rows, self.refs)
        self.failed += failed
        self.first_failure = self.first_failure or first
        self.last_rows = rows
        return len(rows)


def worst_n0_at_edge_frac(rows: list[dict], finite_size: bool) -> float:
    """Share of rows whose n0_worst is an endpoint of the n0 scan interval.

    The interval is the SNU confidence interval over its point estimate:
    one-time models 1 -/+ d(v_tot); the conventional model subtracts a
    separately measured v_ele, so both half-widths widen it. Zero when
    the rows carry no scan (asymptotic regime, `ten`).
    """
    if not finite_size or not rows:
        return 0.0
    from scipy.special import erfcinv

    fs, system = workloads.FINITE_SIZE, workloads.SYSTEM
    z = math.sqrt(2.0) * float(erfcinv(fs["eps_pe"]))
    per_unit_variance = z * math.sqrt(2.0 / fs["calib_samples_m"])
    v_ele = system["v_ele"]
    v_tot = 1.0 + v_ele
    one_time = per_unit_variance
    two_time = per_unit_variance * (v_tot + v_ele) / (v_tot - v_ele)
    at_edge = 0
    for row in rows:
        d = two_time if row["model"] == "conventional" else one_time
        n0 = float(row["n0_worst"])
        if any(math.isclose(n0, edge, rel_tol=1e-9) for edge in (1.0 - d, 1.0 + d)):
            at_edge += 1
    return at_edge / len(rows)


def provenance(args, workload, nproc: int, counts: dict) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    variances, offset = workloads.grid_of(args.seed)
    return {
        "workload": workload.name,
        "seed": args.seed,
        "variant": workloads.variant_of(args.seed),
        "variances": list(variances),
        "distance_offset_km": offset,
        "rows_per_call": workload.rows,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_sha": sha,
        **counts,
    }


def run_untraced(runner: Runner, seconds: float,
                 sampler: SetupSampler) -> tuple[dict, dict]:
    walls, slowdowns, raw_rates, rates = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        deadline += sampler.tick()
        wall, rows, slowdown = runner.call()
        walls.append(wall)
        slowdowns.append(slowdown)
        raw_rates.append(rows / wall)
        rates.append(rows / wall * slowdown)
    setup = sampler.finish()
    stats = {
        "rows_per_s": summary(rates),
        "raw_rows_per_s": summary(raw_rates),
        "call_wall_s": summary(walls),
        "call_slowdown": summary(slowdowns),
        "setup_s": summary([r["setup_s"] for r in setup]),
        "import_s": summary([r["import_s"] for r in setup]),
    }
    metrics = {
        "rows_per_s": stats["rows_per_s"]["median"],
        "setup_s": stats["setup_s"]["median"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, stats


def run_traced(runner: Runner, seconds: float, sampler: SetupSampler,
               spans_path: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced calls; per-layer metrics of the traced ones."""
    modules = {name: sys.modules[f"cvqkd_calib.{name}"] for name in PACKAGE_MODULES}
    modules[""] = sys.modules["cvqkd_calib"]
    tracer = tracing.Tracer()
    plain, traced, per_call, rate_durations, unstable = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        deadline += sampler.tick()
        wall, _, slowdown = runner.call()
        plain.append(wall / slowdown)
        tracer.install(modules)
        try:
            wall, rows, slowdown = runner.call()
        finally:
            tracer.uninstall()
        traced.append(wall / slowdown)
        spans = tracer.take()
        metrics, durations = tracing.span_metrics(spans, rows)
        metrics = {k: v / slowdown if tracing.SPAN_METRICS[k] == "s" else v
                   for k, v in metrics.items()}
        rate_durations.extend(d / slowdown for d in durations)
        if per_call and any(metrics[c] != per_call[0][c] for c in tracing.COUNT_METRICS):
            unstable.append(len(per_call))
        per_call.append(metrics)
    missing = sorted(set(tracer.missing))
    if unstable:
        print(f"warning: counts differ between traced calls {unstable}", file=sys.stderr)
    if missing:
        print(f"missing traced names: {', '.join(missing)}")
    with gzip.open(spans_path, "wt") as f:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], "missing": missing,
                   "call": len(traced) - 1, "spans": spans}, f)
    values = tracing.median_of_calls(per_call)
    ms = [1e3 * d for d in rate_durations] or [0.0]
    values["keyrate.rate_ms_p50"] = tracing.percentile(ms, 50)
    values["keyrate.rate_ms_p99"] = tracing.percentile(ms, 99)
    values["keyrate.worst_n0_at_edge_frac"] = worst_n0_at_edge_frac(
        runner.last_rows, runner.finite_size)
    values["cli.rows"] = len(runner.last_rows)
    values["setup.import_s"] = statistics.median(r["import_s"] for r in sampler.finish())
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    stats = {
        "untraced_call_wall_s": summary(plain),
        "traced_call_wall_s": summary(traced),
        "rate_calls_timed": len(rate_durations),
        "missing": missing,
        "counts_stable": not unstable,
    }
    return values, stats


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    workload = workloads.WORKLOADS[args.workload]
    try:
        cli = import_cli()
        WORK.mkdir(exist_ok=True)
        (WORK / "results").mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
        try:
            runner = Runner(cli, workload, args.seed, workdir)
            sampler = SetupSampler(runner.config_path, args.seconds)
            runner.call()  # warm-up: its rows are checked, its time is not used
            stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
            if args.trace:
                metrics, stats = run_traced(runner, args.seconds, sampler,
                                            WORK / "results" / f"{stem}.spans.json.gz")
            else:
                metrics, stats = run_untraced(runner, args.seconds, sampler)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except Fatal as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    fail_frac = runner.failed / runner.attempted
    counts = {"cli_calls_checked": runner.attempted // workload.rows,
              "setup_repeats": len(sampler.records), "rows_attempted": runner.attempted}
    record = {
        "provenance": provenance(args, workload, nproc, counts),
        "stats": stats,
        "fail_frac": fail_frac,
        "first_failure": runner.first_failure,
    }
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    print(f"{'fail_frac':36s} {fail_frac:.6g} fraction "
          f"({runner.failed} of {runner.attempted} rows)")
    if not args.trace:
        print(f"rows_per_s median of {stats['rows_per_s']['n']} calls; unscaled "
              f"{stats['raw_rows_per_s']['median']:.6g} rows/s at machine slowdown "
              f"{stats['call_slowdown']['median']:.3f}")
    if runner.first_failure:
        print(f"first failing row: {runner.first_failure}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record["result"] = result
    with open(WORK / "results" / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
