"""Batch command-line front end: scenario JSON in, machine-readable report out.

Exit codes: 0 success, 1 statistical mismatch (compare only), 2 input
error, 3 internal numerical error. All randomness flows from --seed (or
the scenario's seed when the flag is omitted).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import (
    analytic_report,
    expected_download_time,
    expected_throughput_class,
    expected_throughput_continuous,
)
from .encounters import (
    _standard_error,
    download_chunk_trials,
    merge_moments,
    monte_carlo_throughput,
    simulate_download_time,  # noqa: F401  (perfbench/tracing.py wraps cli.simulate_download_time by name)
    simulate_download_times,
)
from .errors import (
    InvalidParameterError,
    NoProgressError,
    NumericalError,
    SchemaError,
)
from .fountain import FileSpec, LtScheme, SolitonParams, UniformScheme, packets_needed
from .pmf_opt import optimize_pmf, probabilities_decrease_with_speed
from .traffic import Scenario, mean_inverse_speed, scenario_from_dict

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

Z_LIMIT = 4.0

# Largest --trials any command accepts. No command keeps a per-trial array
# (each merges chunk moments as it goes), so the limit guards time only.
MAX_TRIALS = 10_000_000

_CSV_HELP = (
    "CSV output is a flat two-column table (key,value); keys are dotted "
    "paths into the JSON report, list entries indexed as key[i]. Floats "
    "are printed with 9 significant digits in both formats."
)


_TRIALS_HELP = f"number of trials, at most {MAX_TRIALS:,}"


def _check_trials(trials: int, minimum: int) -> None:
    if not minimum <= trials <= MAX_TRIALS:
        raise InvalidParameterError(
            f"--trials must be between {minimum} and {MAX_TRIALS:,}, got {trials}"
        )


@functools.cache  # built once per process: building takes far longer than parsing
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vanetsim",
        description=(
            "Highway content-distribution toolkit: analyze closed-form "
            "throughput, run Monte Carlo trip simulations, cross-validate "
            "the two, optimize velocity-class probabilities, and project "
            "or simulate file download times."
        ),
        epilog=_CSV_HELP + " Exit codes: 0 ok, 1 statistical mismatch "
        "(compare), 2 input error, 3 numerical error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, scenario: bool = True):
        if scenario:
            p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("analyze", help="closed-form expectations for a scenario")
    add_common(p)

    p = sub.add_parser("simulate", help="Monte Carlo throughput estimate")
    add_common(p)
    p.add_argument("--trials", type=int, default=10000, help=_TRIALS_HELP)
    p.add_argument(
        "--observer-v",
        type=float,
        default=None,
        help="observer speed (default: first forward class / forward support midpoint)",
    )

    p = sub.add_parser("compare", help="analytic vs simulated throughput, exit 1 on mismatch")
    add_common(p)
    p.add_argument("--trials", type=int, default=10000, help=_TRIALS_HELP)

    p = sub.add_parser("optimize-pmf", help="throughput-maximizing class probabilities")
    add_common(p, scenario=False)
    p.add_argument("--speeds", required=True, help="comma-separated class speeds, e.g. 80,90,100")

    p = sub.add_parser("download-time", help="projected and simulated file download time")
    add_common(p)
    p.add_argument("--K", type=int, required=True, dest="k", help="number of file blocks")
    p.add_argument("--epsilon", type=float, default=0.01, help="decode-failure target")
    p.add_argument("--scheme", choices=["uniform", "lt"], default="uniform")
    p.add_argument("--lt-c", type=float, default=0.1)
    p.add_argument("--lt-delta", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=100, help=_TRIALS_HELP)
    p.add_argument("--observer-v", type=float, default=None)
    return parser


def _load_scenario(path: str) -> tuple[Scenario, str]:
    data = Path(path).read_bytes()
    digest = "sha256:" + hashlib.sha256(data).hexdigest()
    doc = json.loads(data.decode("utf-8"))
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected an object")
    return scenario_from_dict(doc), digest


def _forward_support(scenario: Scenario) -> tuple[float, float]:
    """First positive-weight forward band of a continuous distribution."""
    vel = scenario.velocity
    for (a, b), w in zip(vel.bands, vel.weights):
        if w > 0 and a > 0:
            return a, b
    raise InvalidParameterError("no forward traffic component to observe")


def _default_observer(scenario: Scenario) -> float:
    if scenario.is_discrete:
        for cls in scenario.velocity.classes:
            if cls.v > 0:
                return cls.v
        raise InvalidParameterError("no forward class to observe")
    a, b = _forward_support(scenario)
    return 0.5 * (a + b)


def _observer_sampler(scenario: Scenario, fixed: float | None):
    """Per-trial observer speed: fixed, or drawn from the forward traffic."""
    if fixed is not None:
        value = float(fixed)
        return lambda rng: value
    if scenario.is_discrete:
        forward = [c for c in scenario.velocity.classes if c.v > 0 and c.p > 0]
        if not forward:
            raise InvalidParameterError("no forward class to observe")
        total = sum(c.p for c in forward)
        cum = np.cumsum([c.p / total for c in forward])
        speeds = [c.v for c in forward]

        def draw(rng: np.random.Generator) -> float:
            i = int(np.searchsorted(cum, rng.random(), side="right"))
            return speeds[min(i, len(speeds) - 1)]

        return draw
    a, b = _forward_support(scenario)
    return lambda rng: float(rng.uniform(a, b))


def _generator(seed: int) -> np.random.Generator:
    """The run's random generator; a negative seed, from --seed or the scenario, is refused."""
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _z_score(diff: float, std_error: float, scale: float) -> float:
    # a zero-variance estimate still gets a finite, comparable score
    eff = max(std_error, 1e-12 * max(1.0, abs(scale)))
    return diff / eff


def _cmd_analyze(args) -> tuple[str, int, dict, int]:
    scenario, digest = _load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.seed
    report = analytic_report(scenario)
    if scenario.is_discrete:
        results = {
            "kind": "discrete",
            "packet_rate": scenario.packet_rate,
            "classes": [dataclasses.asdict(row) for row in report.per_class],
            "average_throughput": report.average_throughput,
            "rho_bar": report.rho_bar,
            "mean_cars": report.mean_cars,
            "system_throughput": report.system_throughput,
        }
    else:
        results = {
            "kind": "continuous",
            "packet_rate": scenario.packet_rate,
            "average_throughput": report.average_throughput,
            "mean_inverse_speed": mean_inverse_speed(scenario.velocity),
            "mean_cars": report.mean_cars,
            "car_density": report.mean_cars / scenario.d,
            "system_throughput": report.system_throughput,
        }
    return digest, seed, results, EXIT_OK


def _cmd_simulate(args) -> tuple[str, int, dict, int]:
    scenario, digest = _load_scenario(args.scenario)
    _check_trials(args.trials, 2)
    seed = args.seed if args.seed is not None else scenario.seed
    observer = args.observer_v if args.observer_v is not None else _default_observer(scenario)
    rng = _generator(seed)
    est = monte_carlo_throughput(scenario, observer, args.trials, rng)
    results = {
        "observer_v": observer,
        "trials": est.trials,
        "mean_throughput": est.mean,
        "std_error": est.std_error,
    }
    return digest, seed, results, EXIT_OK


def _cmd_compare(args) -> tuple[str, int, dict, int]:
    scenario, digest = _load_scenario(args.scenario)
    _check_trials(args.trials, 2)
    seed = args.seed if args.seed is not None else scenario.seed
    rng = _generator(seed)

    def estimate_row(label: str, observer: float, analytic: float) -> dict:
        est = monte_carlo_throughput(scenario, observer, args.trials, rng)
        return {
            "label": label,
            "observer_v": observer,
            "analytic": analytic,
            "simulated": est.mean,
            "std_error": est.std_error,
            "z": _z_score(est.mean - analytic, est.std_error, analytic),
        }

    if scenario.is_discrete:
        kind = "discrete"
        observers = [  # only forward observers traverse the segment
            (f"class[{i}]", cls.v, expected_throughput_class(scenario, i))
            for i, cls in enumerate(scenario.velocity.classes)
            if cls.v > 0
        ]
        if not observers:
            raise InvalidParameterError("no forward class to observe")
    else:
        kind = "continuous"
        analytic = expected_throughput_continuous(scenario)
        a, b = _forward_support(scenario)
        width = b - a
        observers = [
            (f"observer_v={obs:g}", obs, analytic)
            for obs in (a + 0.1 * width, 0.5 * (a + b), b - 0.1 * width)
        ]
    for _, _, analytic in observers:
        if not math.isfinite(analytic):
            raise InvalidParameterError(
                f"scenario out of range: its closed-form throughput {analytic!r} is not finite"
            )
    rows = [estimate_row(*observer) for observer in observers]
    max_abs_z = max(abs(row["z"]) for row in rows)
    passed = max_abs_z <= Z_LIMIT
    results = {
        "kind": kind,
        "trials": args.trials,
        "rows": rows,
        "max_abs_z": max_abs_z,
        "z_limit": Z_LIMIT,
        "passed": passed,
    }
    return digest, seed, results, EXIT_OK if passed else EXIT_MISMATCH


def _cmd_optimize_pmf(args) -> tuple[str, int, dict, int]:
    try:
        speeds = [float(tok) for tok in args.speeds.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidParameterError(f"--speeds: {exc}") from exc
    if len(speeds) < 2:
        raise InvalidParameterError("--speeds needs at least two classes")
    digest = "sha256:" + hashlib.sha256(args.speeds.encode("utf-8")).hexdigest()
    seed = args.seed if args.seed is not None else 0
    sol = optimize_pmf(speeds)
    results = {
        "speeds": speeds,
        "p": list(sol.p),
        "p_sorted": list(sol.p_sorted),
        "sort_index": list(sol.sort_index),
        "objective": sol.objective,
        "active_set_size": sol.active_set_size,
        "kkt_nu": sol.kkt_nu,
        "kkt_residual": sol.kkt_residual,
        "monotone_in_speed": probabilities_decrease_with_speed(sol, speeds),
    }
    return digest, seed, results, EXIT_OK


def _cmd_download_time(args) -> tuple[str, int, dict, int]:
    scenario, digest = _load_scenario(args.scenario)
    if args.k < 1:
        raise InvalidParameterError("--K must be >= 1")
    _check_trials(args.trials, 1)
    seed = args.seed if args.seed is not None else scenario.seed
    if args.scheme == "uniform":
        scheme = UniformScheme()
    else:
        scheme = LtScheme(SolitonParams(c=args.lt_c, delta=args.lt_delta, epsilon=args.epsilon))
    file = FileSpec(k=args.k, l=64)
    projection = expected_download_time(scenario, file, args.epsilon, scheme)
    rng = _generator(seed)
    draw_observer = _observer_sampler(scenario, args.observer_v)
    labels = ("download times", "packets", "segments")
    moments = [(0, 0.0, 0.0)] * len(labels)
    chunk = download_chunk_trials(file)
    for lo in range(0, args.trials, chunk):
        n = min(chunk, args.trials - lo)
        # spawning never moves rng, so drawing a chunk's observers first
        # leaves every trial the streams it had when trials ran one by one
        observers = [draw_observer(rng) for _ in range(n)]
        chunk_results = simulate_download_times(scenario, observers, file, scheme, rng)
        moments = [
            merge_moments(m, np.array(x), label)
            for m, x, label in zip(moments, zip(*chunk_results), labels)
        ]
    (_, mean_time, _), (_, mean_packets, _), (_, mean_segments, _) = moments
    results = {
        "k": args.k,
        "epsilon": args.epsilon,
        "scheme": args.scheme,
        "trials": args.trials,
        "packets_needed": packets_needed(args.k, args.epsilon, scheme),
        "projected_time": projection,
        "simulated_mean_time": mean_time,
        "simulated_std_error": _standard_error(moments[0]),
        "mean_packets": mean_packets,
        "mean_segments": mean_segments,
    }
    return digest, seed, results, EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "optimize-pmf": _cmd_optimize_pmf,
    "download-time": _cmd_download_time,
}


def _nine_digits(obj):
    """Round every float to 9 significant digits, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _nine_digits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nine_digits(v) for v in obj]
    return obj


def _flatten(prefix: str, obj, rows: list[tuple[str, object]]):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _render(report: dict, fmt: str) -> str:
    report = _nine_digits(report)
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    rows: list[tuple[str, object]] = []
    _flatten("", report, rows)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "value"])
    for key, value in rows:
        if isinstance(value, float):
            value = f"{value:.9g}"
        writer.writerow([key, value])
    return buf.getvalue()


def main(argv=None) -> int:
    """Run one command; exit 2 on bad input, 3 on a numerical or internal failure."""
    try:
        return _run(argv)
    except Exception as exc:  # a traceback's exit 1 would read as a statistical mismatch
        print(f"error: internal failure: {exc!r}", file=sys.stderr)
        return EXIT_NUMERICAL


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    start = time.perf_counter()
    try:
        digest, seed, results, code = _COMMANDS[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnicodeDecodeError as exc:
        print(f"error: scenario file is not UTF-8: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SchemaError, InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, NoProgressError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    report = {
        "command": args.command,
        "scenario_digest": digest,
        "seed": seed,
        "wall_time": time.perf_counter() - start,
        "results": results,
    }
    try:
        text = _render(report, args.format)
    except ValueError as exc:  # non-finite values refused by the serializer
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return code


def entrypoint():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
