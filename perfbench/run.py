"""vanetsim benchmark: run one workload, untraced or traced.

    python3 perfbench/run.py --workload {mc-trips,download,cli} \
        --seed N --seconds S --trace {0,1}

Run it from a vanetsim checkout (or anywhere: the checkout is the parent of
this directory). The program is imported from ``src/`` and driven through
its public functions in one single-threaded process.

--trace 0 runs the workload in a closed loop for S seconds and reports the
end-to-end metrics. --trace 1 repeats one fixed pass of the workload for S
seconds, alternating untraced and traced repetitions, and reports per-layer
counts and self times; the counts of every traced repetition must be
identical. Every operation's result is checked after the timed region.

A human-readable summary goes to stdout, followed by one JSON line, the
last, with keys correct, attempted, failed and metrics. The full result,
with provenance, is written to perfbench/results/.
"""

from __future__ import annotations

import os

# One single-threaded process: keep NumPy's BLAS from starting threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import program  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 5
ACCOUNTING_TOL_S = 1e-6
REFERENCE_EVERY_S = 0.5
REFERENCE_WINDOW_S = 2.5
MIN_TIMED_OPS = 100


class BenchmarkError(RuntimeError):
    """The benchmark itself found an inconsistency; no result is printed."""


def measure_setup(root: Path) -> float:
    """Median set-up time over fresh interpreters (see program.py)."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "program.py"), str(root)],
            capture_output=True, text=True, timeout=120, env=os.environ.copy(),
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def attempt(workload, i: int):
    """Run operation i: (result, error, seconds). The error is a traceback."""
    start = time.perf_counter()
    try:
        result, error = workload.run(i), None
    except Exception:  # an operation that raises counts as failed
        result, error = None, traceback.format_exc(limit=4)
    return result, error, time.perf_counter() - start


def judge(workload, i: int, result, error) -> str | None:
    if error is not None:
        return error
    try:
        return workload.check(i, result)
    except Exception:  # a result the check cannot read is wrong
        return traceback.format_exc(limit=4)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; failed operations enter as +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def local_scales(op_times: list[float], ref_times: list[float], ref_values: list[float]) -> list[float]:
    """Reference seconds per measured second at each operation's midpoint.

    Uses the median reference-loop time within REFERENCE_WINDOW_S of the
    midpoint, or the nearest one if none is that close.
    """
    scales = []
    for t in op_times:
        lo = bisect.bisect_left(ref_times, t - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(ref_times, t + REFERENCE_WINDOW_S)
        if lo == hi:
            nearest = min(range(len(ref_times)), key=lambda k: abs(ref_times[k] - t))
            lo, hi = nearest, nearest + 1
        scales.append(calibration.REFERENCE_S / statistics.median(ref_values[lo:hi]))
    return scales


def run_untraced(workload, seconds: float, setup_s: float) -> dict:
    warmup = [(i, *attempt(workload, i)) for i in range(workload.pass_ops)]
    timed, midpoints, ref_times, ref_values = [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    next_reference = start
    i = workload.pass_ops
    # at least ten samples above the 90th percentile, within twice the time
    while time.perf_counter() < deadline or (
        len(timed) < MIN_TIMED_OPS and time.perf_counter() < deadline + seconds
    ):
        op_start = time.perf_counter()
        timed.append((i, *attempt(workload, i)))
        midpoints.append(op_start + timed[-1][3] / 2)
        i += 1
        if time.perf_counter() >= next_reference:
            ref_times.append(time.perf_counter())
            ref_values.append(calibration.reference_loop())
            next_reference = time.perf_counter() + REFERENCE_EVERY_S
    busy = time.perf_counter() - start - sum(ref_values)
    scales = local_scales(midpoints, ref_times, ref_values)

    failures, work, latencies, scaled = [], 0, [], []
    per_command: dict[str, list[float]] = {}
    for n, (i, result, error, seconds_i) in enumerate(warmup + timed):
        problem = judge(workload, i, result, error)
        if problem:
            failures.append({"op": i, "problem": problem})
        if n < len(warmup):
            continue
        latency = math.inf if problem else seconds_i
        latencies.append(latency)
        scaled.append(latency * scales[n - len(warmup)])
        if not problem:
            work += workload.work(i, result)
        if hasattr(workload, "command"):
            per_command.setdefault(workload.command(i), []).append(latency)
    scaled_busy = sum(t[3] * k for t, k in zip(timed, scales))

    attempted = len(warmup) + len(timed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p50, p90 = percentile(latencies, 0.5), percentile(latencies, 0.9)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "work_rate": metric(work / scaled_busy, "1/ref_s"),
        "latency.p50": metric(percentile(scaled, 0.5), "ref_s"),
        "latency.p90": metric(percentile(scaled, 0.9), "ref_s"),
    }
    # The same run in measured seconds, under the names its users know.
    named = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "failed_frac": metric(len(failures) / attempted, "fraction"),
        "reference_loop_s": metric(statistics.median(ref_values), "s"),
    }
    if per_command:
        named["invocations_per_s"] = metric(work / busy, "invocations/s")
        for command, values in per_command.items():
            named[f"cli.{command.replace('-', '_')}_s"] = metric(statistics.median(values), "s")
    else:
        named[f"{workload.work_unit}_per_s"] = metric(work / busy, f"{workload.work_unit}/s")
        named[f"{workload.latency_name}.p50"] = metric(p50, "s")
        named[f"{workload.latency_name}.p90"] = metric(p90, "s")
    return {
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "named": named,
        "detail": {
            "busy_s": busy,
            "timed_ops": len(timed),
            "samples_above_p90": sum(v > p90 for v in latencies),
            "reference_loops": len(ref_values),
            "per_command_samples": {c: len(v) for c, v in per_command.items()},
        },
    }


def _pass(workload) -> list:
    return [attempt(workload, i) for i in range(workload.pass_ops)]


def run_traced(workload, seconds: float) -> dict:
    plain_walls, passes, checked = [], [], []
    first_counts = None
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        start = time.perf_counter()
        checked += _pass(workload)
        plain_walls.append(time.perf_counter() - start)
        tracer = tracing.Tracer()
        with tracer.installed(workload.vs), tracer.span(tracing.ROOT):
            checked += _pass(workload)
        try:
            selfs, wall = tracer.self_times()
        except ValueError as exc:
            raise BenchmarkError(f"inconsistent spans: {exc}") from exc
        if abs(sum(selfs.values()) - wall) > ACCOUNTING_TOL_S:
            raise BenchmarkError(
                f"self times sum to {sum(selfs.values())!r} s, traced wall is {wall!r} s"
            )
        counts = {layer: dict(c) for layer, c in tracer.counts.items()}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            raise BenchmarkError(
                f"traced pass {len(passes)} counted {counts}, the first counted {first_counts}"
            )
        passes.append((wall, selfs))

    failures = []
    for n, (result, error, _) in enumerate(checked):
        i = n % workload.pass_ops
        problem = judge(workload, i, result, error)
        if problem:
            failures.append({"op": i, "problem": problem})
    passes.sort(key=lambda p: p[0])
    wall, selfs = passes[(len(passes) - 1) // 2]  # the pass with the median wall time
    overhead = wall / statistics.median(plain_walls) - 1.0
    return {
        "attempted": len(checked),
        "failures": failures,
        "metrics": layer_metrics(first_counts, selfs, wall, overhead),
        "detail": {"traced_passes": len(passes), "pass_ops": workload.pass_ops, "counts": first_counts},
    }


def layer_metrics(counts: dict, selfs: dict, wall: float, overhead: float) -> dict:
    def n(layer, key="calls"):
        return counts.get(layer, {}).get(key, 0)

    def s(layer):
        return selfs.get(layer, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in ("traffic.sample", "traffic.schema", "encounters.trip", "encounters.mc",
                  "encounters.download", "fountain.vector", "fountain.encode",
                  "fountain.receive", "fountain.decode", "pmf_opt.solve", "analysis", "cli"):
        m[f"{layer}.calls"] = metric(n(layer), "count")
        m[f"{layer}.self_s"] = metric(s(layer), "s")
    for layer in ("traffic.sample", "fountain.encode", "fountain.receive", "pmf_opt.solve"):
        m[f"{layer}.per_s"] = metric(ratio(n(layer), s(layer)), "1/s")
    m["traffic.sample.velocities"] = metric(n("traffic.sample", "velocities"), "count")
    m["encounters.trip.encounters"] = metric(n("encounters.trip", "encounters"), "count")
    m["encounters.arrivals_per_trip"] = metric(
        ratio(n("traffic.sample", "trip_arrivals"), n("encounters.trip")), "ratio")
    m["encounters.encounters_per_arrival"] = metric(
        ratio(n("encounters.trip", "encounters"), n("traffic.sample", "trip_arrivals")), "ratio")
    m["encounters.segments_per_decode"] = metric(
        ratio(n("encounters.download", "segments"), n("encounters.download")), "ratio")
    m["fountain.encode.bytes_xored"] = metric(n("fountain.encode", "bytes_xored"), "bytes-computed")
    m["fountain.receive.innovative"] = metric(n("fountain.receive", "innovative"), "count")
    m["fountain.receive.innovative_ratio"] = metric(
        ratio(n("fountain.receive", "innovative"), n("fountain.receive")), "ratio")
    m["fountain.packets_per_decode"] = metric(
        ratio(n("encounters.download", "packets"), n("encounters.download")), "ratio")
    m["pmf_opt.shrink_steps"] = metric(n("pmf_opt.solve", "shrink_steps"), "count")
    m["bench.self_s"] = metric(s(tracing.ROOT), "s")
    m["trace.wall_s"] = metric(wall, "s")
    m["trace.overhead_frac"] = metric(overhead, "fraction")
    return m


def provenance(args) -> dict:
    import numpy
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*cmd) -> str | None:
        try:
            proc = subprocess.run(["git", *cmd], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if revision else None
    return {
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def results_path(workload: str, traced: int, seed: int) -> Path:
    return RESULTS_DIR / f"{workload}-trace{traced}-seed{seed}.json"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program.check_layout(ROOT)
        setup_s = None if args.trace else measure_setup(ROOT)
        loaded = program.load(ROOT)
        workload = WORKLOADS[args.workload](loaded, args.seed)
        if args.trace:
            outcome = run_traced(workload, args.seconds)
        else:
            outcome = run_untraced(workload, args.seconds, setup_s)
    except (program.LayoutError, BenchmarkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = len(outcome["failures"])
    summary = {
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": outcome["metrics"],
    }
    record = dict(summary, provenance=provenance(args), named=outcome.get("named"),
                  detail=outcome["detail"], failures=outcome["failures"][:10])
    RESULTS_DIR.mkdir(exist_ok=True)
    path = results_path(args.workload, args.trace, args.seed)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {summary['attempted']}  failed {failed}")
    for name, m in sorted({**outcome["metrics"], **(outcome.get("named") or {})}.items()):
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    for f in outcome["failures"][:3]:
        print(f"  FAILED op {f['op']}: {f['problem'].strip().splitlines()[-1]}")
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
