"""trapbose benchmark: one workload through the public CLI path.

    python3 benchmarks/run.py --workload ref1d-p1 --seed 0 --seconds 20 --trace 0

Each sweep goes from config text through `trapbose.cli.parse_config` and
`trapbose.cli.run` to the CSV on disk, one sweep at a time (closed loop),
in one process with BLAS pinned to one thread.  `--trace 0` reports the
end-to-end metrics; `--trace 1` the per-layer metrics of a traced phase,
after an untraced phase that gives the tracing overhead.  Metric names and
units are those listed in BENCHMARK.json.  Every sweep's CSV is checked
point by point (check.py).  The run record (environment, metrics, spans)
is written under benchmarks/out/; the last line of standard output is one
JSON object with the result.
"""

import os

# Pinned before numpy is imported, so the BLAS pool starts with one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_S, time_reference_work
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"

# After each full sweep, set-up-only repetitions for this share of the sweep's
# time (at least one, at most MAX_SETUP_PER_SWEEP).  Interleaving spreads the
# set-up samples over the whole run, so they see the same machine states.
SETUP_SHARE = 0.25
MAX_SETUP_PER_SWEEP = 100
# The reference work of calibration.py is timed between temperature points
# once this much time has passed since its last sample (about a seventh of
# the sweep's time), and REFERENCE_BATCH times after each cycle.
REFERENCE_INTERVAL_S = 0.025
REFERENCE_BATCH = 3
MIN_SWEEPS = 3


class SetupDone(BaseException):
    """Ends a set-up-only repetition at the first temperature point.

    A BaseException, so that no `except Exception` in the package catches it.
    """


class PointClock:
    """Stands in for `trapbose.thermo.solve_n0`, the per-temperature call of
    `sweep`, and records when the first point starts and the last one ends.

    Between points it also times the reference work of calibration.py, once
    REFERENCE_INTERVAL_S has passed since the last sample, and adds up the
    time spent on it so that the sweep's figures can leave it out.
    """

    def __init__(self, solve_n0):
        self.solve_n0 = solve_n0
        self.reset(stop_at_first=False)

    def reset(self, stop_at_first):
        self.first = self.last = None
        self.stop_at_first = stop_at_first
        self.reference = []
        self.reference_total = 0.0

    def __call__(self, *args, **kwargs):
        if self.first is None:
            self.first = self._mark = perf_counter()
            if self.stop_at_first:
                raise SetupDone
        try:
            return self.solve_n0(*args, **kwargs)
        finally:
            self.last = perf_counter()
            if self.last - self._mark >= REFERENCE_INTERVAL_S:
                self.reference.append(time_reference_work())
                self._mark = perf_counter()
                self.reference_total += self._mark - self.last
                self.last = self._mark


def import_package():
    """Import trapbose from this checkout's source tree, and nowhere else."""
    src = ROOT / "src"
    if not (src / "trapbose" / "__init__.py").is_file():
        sys.exit(f"error: no trapbose source under {src}")
    sys.path.insert(0, str(src))
    import trapbose
    if Path(trapbose.__file__).resolve().parent != (src / "trapbose").resolve():
        sys.exit(f"error: trapbose imported from {trapbose.__file__}, not {src}")
    return trapbose


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it can be found."""
    import numpy
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    result = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                            capture_output=True, text=True, timeout=30)
    return result.stdout.strip() or None


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def repeat(budget, minimum, step, maximum=None):
    """Call step() at least `minimum` times, then while the next call is
    expected to end within `budget` seconds of the first."""
    begin = perf_counter()
    count, last = 0, 0.0
    while count < minimum or perf_counter() - begin + last <= budget:
        if maximum is not None and count >= maximum:
            return
        t0 = perf_counter()
        step()
        last = perf_counter() - t0
        count += 1


class Bench:
    """Repeated sweeps of one workload; remembers what the check needs."""

    def __init__(self, trapbose, workload, seed):
        from trapbose import cli, thermo
        self.cli = cli
        self.thermo = thermo
        OUT_DIR.mkdir(exist_ok=True)
        self.csv_path = OUT_DIR / f"{workload.name}.csv"
        self.text = workload.config_text(seed, self.csv_path)
        self.grid = workload.grid(seed)
        self.first_csv = None
        self.sweeps = 0
        self.mismatched_sweeps = 0
        self.basis_states = None
        self.error_type = trapbose.TrapBoseError

    def sweep(self, tracer=None):
        """One sweep from config text to CSV; returns (start, parsed, end)."""
        start = perf_counter()
        if tracer is None:
            config = self.cli.parse_config(self.text)
            parsed = perf_counter()
            self.cli.run(config)
        else:
            with tracer.span("cli.parse_config"):
                config = self.cli.parse_config(self.text)
            parsed = perf_counter()
            with tracer.span("cli.run"):
                self.cli.run(config)
        end = perf_counter()
        self.sweeps += 1
        csv_text = self.csv_path.read_text()
        if self.first_csv is None:
            self.first_csv = csv_text
        elif csv_text != self.first_csv:
            self.mismatched_sweeps += 1
        return start, parsed, end

    def setup_only(self, clock):
        """Set-up time of a sweep stopped at its first temperature point."""
        clock.reset(stop_at_first=True)
        config = self.cli.parse_config(self.text)
        parsed = perf_counter()
        try:
            self.cli.run(config)
        except SetupDone:
            return clock.first - parsed
        raise RuntimeError("sweep never called trapbose.thermo.solve_n0")

    def failed_points(self, reference_text):
        """Every point of a sweep whose CSV differs from the first sweep's,
        plus, in every other sweep, the points of the first CSV that fail."""
        from check import PointChecker
        if self.first_csv is None:
            return 0
        try:
            checker = PointChecker(self.cli.parse_config(self.text), self.grid, reference_text)
            self.basis_states = checker.basis_size
            per_sweep = checker.failed_points(self.first_csv)
        except self.error_type:
            per_sweep = len(self.grid)
        return ((self.sweeps - self.mismatched_sweeps) * per_sweep
                + self.mismatched_sweeps * len(self.grid))


def end_to_end(bench, seconds):
    """Cycles of [full sweep, set-up-only repetitions, reference work].

    Each cycle's times are scaled to reference speed (calibration.py) by the
    reference work timed during its sweep and right before and after it;
    each metric is the median over cycles of the scaled figure.
    """
    clock = PointClock(bench.thermo.solve_n0)
    cycles = []

    def reference_batch():
        return [time_reference_work() for _ in range(REFERENCE_BATCH)]

    def cycle():
        clock.reset(stop_at_first=False)
        start, parsed, end = bench.sweep()
        if clock.first is None:
            raise RuntimeError("sweep never called trapbose.thermo.solve_n0")
        run_s = end - start - clock.reference_total
        sample = {"run_s": run_s,
                  "points_per_s": len(bench.grid) / (clock.last - clock.first
                                                     - clock.reference_total),
                  "setup_s": [clock.first - parsed],
                  "reference_in_sweep_s": clock.reference}
        repeat(SETUP_SHARE * run_s, 1,
               lambda: sample["setup_s"].append(bench.setup_only(clock)),
               maximum=MAX_SETUP_PER_SWEEP)
        sample["reference_after_s"] = reference_batch()
        cycles.append(sample)

    bench.thermo.solve_n0 = clock
    try:
        first_batch = reference_batch()
        repeat(seconds, MIN_SWEEPS, cycle)
    finally:
        bench.thermo.solve_n0 = clock.solve_n0

    scaled = {"run_s": [], "setup_s": [], "points_per_s": []}
    before = [first_batch] + [c["reference_after_s"] for c in cycles[:-1]]
    for c, prior in zip(cycles, before):
        reference = prior + c["reference_in_sweep_s"] + c["reference_after_s"]
        scale = REFERENCE_S / statistics.mean(reference)
        scaled["run_s"].append(c["run_s"] * scale)
        scaled["setup_s"].append(statistics.median(c["setup_s"]) * scale)
        scaled["points_per_s"].append(c["points_per_s"] / scale)
    metrics = {name: statistics.median(values) for name, values in scaled.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {
        "run_s": statistics.median(c["run_s"] for c in cycles),
        "setup_s": statistics.median(t for c in cycles for t in c["setup_s"]),
        "points_per_s": statistics.median(c["points_per_s"] for c in cycles),
    }
    info = {"sweeps": len(cycles), "raw": raw,
            "cycles": [{"reference_before_s": prior, **c} for c, prior in zip(cycles, before)]}
    return metrics, info, None


def per_layer(bench, workload, seconds):
    from tracing import Tracer, percentile
    untraced, traced, layer_samples, point_ms = [], [], [], []
    tracer = Tracer()

    def sweep_pair():
        # Untraced and traced sweeps alternate, so both see the same
        # machine states and their ratio gives the tracing overhead.
        start, _, end = bench.sweep()
        untraced.append(end - start)
        tracer.reset()
        with tracer.installed():
            start, _, end = bench.sweep(tracer)
        traced.append(end - start)
        layer_samples.append(tracer.sweep_metrics())
        point_ms.extend(tracer.point_ms())

    repeat(seconds, workload.min_traced_sweeps(len(bench.grid)), sweep_pair)
    metrics = {name: statistics.median_low(sample[name] for sample in layer_samples)
               for name in layer_samples[0]}
    metrics["thermo.point_ms.p50"] = percentile(point_ms, 50)
    metrics["thermo.point_ms.tail"] = percentile(point_ms, workload.tail_pct)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    info = {
        "untraced_sweeps": len(untraced),
        "traced_sweeps": len(traced),
        "untraced_run_s": statistics.median(untraced),
        "traced_run_s": statistics.median(traced),
        "point_samples": len(point_ms),
        "point_tail_pct": workload.tail_pct,
    }
    return metrics, info, tracer.spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    trapbose = import_package()
    workload = WORKLOADS[args.workload]
    reference_path = REFERENCE_DIR / f"{workload.name}.csv"
    reference = reference_path.read_text() if args.seed == 0 else None

    bench = Bench(trapbose, workload, args.seed)
    error = None
    try:
        if args.trace:
            values, info, spans = per_layer(bench, workload, args.seconds)
        else:
            values, info, spans = end_to_end(bench, args.seconds)
    except trapbose.TrapBoseError as exc:
        error = f"{type(exc).__name__}: {exc}"
        values, info, spans = {}, {}, None

    attempted = len(bench.grid) * (bench.sweeps + (error is not None))
    failed = len(bench.grid) if error is not None else 0
    failed += bench.failed_points(reference)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "grid_shift": workload.grid_shift(args.seed),
        "points": len(bench.grid),
        "basis_states": bench.basis_states,
        "environment": environment(),
        "error": error,
        **info,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if spans is not None:
        record["spans"] = spans
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    summary = {key: value for key, value in record.items()
               if key not in ("metrics", "spans", "cycles")}
    print(json.dumps(summary))
    print(f"fail_frac = {failed / attempted:.6g}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": failed == 0 and error is None, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
