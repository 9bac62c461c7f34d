import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vanetsim import cli
from vanetsim.cli import main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(args, capsys):
    code, out, err = run(args, capsys)
    assert out, f"no report emitted (stderr: {err})"
    return code, json.loads(out)


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def zero_rate_doc():
    return {
        "lambda": 0.0,
        "d": 10_000.0,
        "r": 100.0,
        "bit_rate": 50_000.0,
        "packet_bits": 1_000.0,
        "seed": 3,
        "velocity": {
            "type": "discrete",
            "classes": [{"v": 20.0, "p": 0.5}, {"v": 25.0, "p": 0.5}],
        },
    }


# --- analyze ------------------------------------------------------------------


def test_analyze_reference_scenario(twoclass_path, capsys):
    code, report = run_json(["analyze", str(twoclass_path)], capsys)
    assert code == 0
    assert report["command"] == "analyze"
    assert report["seed"] == 42
    assert report["scenario_digest"].startswith("sha256:")
    res = report["results"]
    assert res["average_throughput"] == pytest.approx(6.125, rel=1e-8)
    assert [row["expected_throughput"] for row in res["classes"]] == [
        pytest.approx(5.5, rel=1e-8),
        pytest.approx(6.75, rel=1e-8),
    ]


def test_analyze_zero_rate_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path, zero_rate_doc())
    code, report = run_json(["analyze", path], capsys)
    assert code == 0
    for row in report["results"]["classes"]:
        assert row["expected_throughput"] == pytest.approx(0.5, rel=1e-8)


def test_analyze_continuous_scenario(uniform2040_path, capsys):
    code, report = run_json(["analyze", str(uniform2040_path)], capsys)
    assert code == 0
    res = report["results"]
    assert res["kind"] == "continuous"
    assert res["average_throughput"] == pytest.approx(9.16433976, rel=1e-8)
    assert res["mean_cars"] == pytest.approx(34.6573590, rel=1e-8)
    assert res["system_throughput"] == pytest.approx(9.16433976 * 34.6573590, rel=1e-6)


def test_analyze_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(["analyze", str(path)], capsys)
    assert code == 2
    assert out == ""  # no partial output
    assert "malformed" in err


def test_analyze_unknown_key(tmp_path, capsys):
    doc = zero_rate_doc()
    doc["velocitee"] = 1
    code, out, err = run(["analyze", write_scenario(tmp_path, doc)], capsys)
    assert code == 2
    assert out == ""
    assert "$.velocitee" in err


def test_analyze_missing_file(capsys):
    code, out, err = run(["analyze", "/nonexistent/path.json"], capsys)
    assert code == 2


def test_output_into_a_missing_directory_is_an_input_error(twoclass_path, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(["analyze", str(twoclass_path), "--output", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write the report: ") and "No such file" in err


def test_output_onto_a_directory_is_an_input_error(twoclass_path, tmp_path, capsys):
    code, out, err = run(["analyze", str(twoclass_path), "--output", str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write the report: ") and "directory" in err


def test_scenario_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"lam": 0.1}'.encode("utf-16-le"))
    code, out, err = run(["analyze", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: scenario file is not UTF-8: ")


def test_unexpected_failure_exits_3_without_a_traceback(twoclass_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "analytic_report", broken)
    code, out, err = run(["analyze", str(twoclass_path)], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: internal failure: KeyError('boom')\n"


def _class_rows(v0, v1, encounters, packets1):
    rows = [(v0, 0.0025, 2750.0, 5.5), (v1, 0.002, packets1, 6.75)]
    return [
        {
            "index": i,
            "v": v,
            "p": 0.5,
            "density": density,
            "expected_encounters": encounters,
            "expected_packets": packets,
            "expected_throughput": throughput,
        }
        for i, (v, density, packets, throughput) in enumerate(rows)
    ]


_TWOCLASS_RESULTS = {
    "kind": "discrete",
    "packet_rate": 50.0,
    "classes": _class_rows(20.0, 25.0, 5.0, 2700.0),
    "average_throughput": 6.125,
    "rho_bar": 0.00225,
    "mean_cars": 45.0,
    "system_throughput": 275.625,
}

# analyze results as printed (9 digits); the reverse class of twodir collects
# 6.75 pkt/s for d/|v| = 400 s, so 2700 packets
ANALYZE_GOLDEN = {
    "twoclass": _TWOCLASS_RESULTS,
    "twodir": dict(_TWOCLASS_RESULTS, classes=_class_rows(20.0, -25.0, 45.0, 2700.0)),
    "uniform2040": {
        "kind": "continuous",
        "packet_rate": 50.0,
        "average_throughput": 9.16433976,
        "mean_inverse_speed": 0.034657359,
        "mean_cars": 34.657359,
        "car_density": 0.0034657359,
        "system_throughput": 317.611813,
    },
}


@pytest.mark.parametrize("name", sorted(ANALYZE_GOLDEN))
def test_analyze_results_match_recorded_reports(name, twoclass_path, tmp_path, capsys):
    path = twoclass_path.parent / f"{name}.json"
    if name == "twodir":
        doc = json.loads(twoclass_path.read_text())
        doc["velocity"]["classes"][1]["v"] = -25.0
        path = write_scenario(tmp_path, doc)
    code, report = run_json(["analyze", str(path)], capsys)
    assert code == 0
    assert report["results"] == ANALYZE_GOLDEN[name]


# --- simulate ------------------------------------------------------------------


def test_simulate_deterministic_reports(twoclass_path, tmp_path, capsys):
    args = [
        "simulate",
        str(twoclass_path),
        "--trials",
        "400",
        "--observer-v",
        "20",
        "--seed",
        "9",
    ]
    code1, report1 = run_json(args, capsys)
    code2, report2 = run_json(args, capsys)
    assert code1 == code2 == 0
    report1.pop("wall_time")
    report2.pop("wall_time")
    assert report1 == report2
    assert report1["seed"] == 9
    assert report1["results"]["mean_throughput"] == pytest.approx(5.5, rel=0.1)


def test_simulate_rejects_single_trial(twoclass_path, capsys):
    code, out, err = run(
        ["simulate", str(twoclass_path), "--trials", "1"], capsys
    )
    assert code == 2
    assert out == ""


def test_simulate_zero_rate_exact(tmp_path, capsys):
    path = write_scenario(tmp_path, zero_rate_doc())
    code, report = run_json(["simulate", path, "--trials", "10"], capsys)
    assert code == 0
    assert report["results"]["mean_throughput"] == 0.5
    assert report["results"]["std_error"] == 0.0


# --- compare ---------------------------------------------------------------------


def test_compare_reference_scenario_passes(twoclass_path, capsys):
    code, report = run_json(
        ["compare", str(twoclass_path), "--trials", "4000", "--seed", "5"], capsys
    )
    assert code == 0
    res = report["results"]
    assert res["passed"] is True
    assert len(res["rows"]) == 2
    assert res["max_abs_z"] <= 4.0


def test_compare_detects_corrupted_analytic(twoclass_path, monkeypatch, capsys):
    exact = cli.expected_throughput_class
    monkeypatch.setattr(
        cli, "expected_throughput_class", lambda *args: 1.25 * exact(*args)
    )
    code, report = run_json(
        ["compare", str(twoclass_path), "--trials", "4000", "--seed", "5"], capsys
    )
    assert code == 1
    assert report["results"]["passed"] is False


def test_compare_continuous_fairness_rows(uniform2040_path, capsys):
    code, report = run_json(
        ["compare", str(uniform2040_path), "--trials", "4000", "--seed", "2"], capsys
    )
    assert code == 0
    rows = report["results"]["rows"]
    assert [row["observer_v"] for row in rows] == [22.0, 30.0, 38.0]
    assert len({row["analytic"] for row in rows}) == 1  # same target for all


# --- optimize-pmf ---------------------------------------------------------------------


def test_optimize_pmf_reference_row(capsys):
    code, report = run_json(
        ["optimize-pmf", "--speeds", "80,90,100,110,120"], capsys
    )
    assert code == 0
    res = report["results"]
    assert res["p"] == pytest.approx([0.26, 0.23, 0.20, 0.17, 0.14], abs=5e-4)
    assert res["monotone_in_speed"] is True
    assert res["kkt_residual"] <= 1e-9
    assert res["active_set_size"] == 5


def test_optimize_pmf_two_speeds(capsys):
    code, report = run_json(["optimize-pmf", "--speeds", "30,60"], capsys)
    assert code == 0
    assert report["results"]["p"] == [0.5, 0.5]


def test_optimize_pmf_rejects_single_speed(capsys):
    code, out, err = run(["optimize-pmf", "--speeds", "20"], capsys)
    assert code == 2
    assert out == ""


def test_optimize_pmf_rejects_zero_speed(capsys):
    code, out, err = run(["optimize-pmf", "--speeds", "20,0"], capsys)
    assert code == 2


@pytest.mark.parametrize("speeds", ["1,nan", "1,inf", "1,-inf,3"])
def test_optimize_pmf_rejects_non_finite_speeds(speeds, capsys):
    code, out, err = run(["optimize-pmf", "--speeds", speeds], capsys)
    assert code == 2
    assert out == ""
    assert "speeds must be finite" in err


@pytest.mark.parametrize("speeds", ["1e-310,1", "1,-4e-320"])
def test_optimize_pmf_rejects_speeds_with_overflowing_reciprocal(speeds, capsys):
    code, out, err = run(["optimize-pmf", "--speeds", speeds], capsys)
    assert code == 2
    assert out == ""
    assert "finite reciprocal" in err
    assert "Warning" not in err


@pytest.mark.parametrize("speeds, expected", [("1e-308,1e-308", 2), ("1e-308,2e-308", 0)])
def test_optimize_pmf_pair_sum_overflow_is_refused_without_warnings(speeds, expected, capsys):
    # 1/|v| = 1e308 is finite; only 1e308 + 1e308 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["optimize-pmf", "--speeds", speeds], capsys)
    assert code == expected
    assert "Warning" not in err
    if expected == 2:
        assert out == ""
        assert "pair sums" in err


# --- download-time -----------------------------------------------------------------------


def test_download_time_reports_projection(twoclass_path, capsys):
    code, report = run_json(
        [
            "download-time",
            str(twoclass_path),
            "--K",
            "100",
            "--epsilon",
            "0.01",
            "--trials",
            "5",
            "--seed",
            "1",
        ],
        capsys,
    )
    assert code == 0
    res = report["results"]
    assert res["packets_needed"] == 107
    assert res["projected_time"] == pytest.approx(107 / 6.125, rel=1e-6)
    assert res["trials"] == 5
    assert math.isfinite(res["simulated_mean_time"])


def test_download_time_single_trial_deterministic(tmp_path, capsys):
    path = write_scenario(tmp_path, zero_rate_doc())
    args = [
        "download-time",
        path,
        "--K",
        "1",
        "--trials",
        "1",
        "--observer-v",
        "20",
        "--seed",
        "4",
    ]
    code1, report1 = run_json(args, capsys)
    code2, report2 = run_json(args, capsys)
    assert code1 == code2 == 0
    assert report1["results"] == report2["results"]
    assert report1["results"]["simulated_std_error"] == 0.0
    assert report1["results"]["mean_segments"] == 1.0


def test_download_time_lt_scheme_runs(twoclass_path, capsys):
    code, report = run_json(
        [
            "download-time",
            str(twoclass_path),
            "--K",
            "400",
            "--epsilon",
            "0.3",
            "--scheme",
            "lt",
            "--lt-c",
            "0.05",
            "--lt-delta",
            "0.5",
            "--trials",
            "3",
            "--seed",
            "8",
        ],
        capsys,
    )
    assert code == 0
    assert report["results"]["scheme"] == "lt"
    assert report["results"]["packets_needed"] > 400


def test_download_time_rejects_bad_k(twoclass_path, capsys):
    code, out, err = run(
        ["download-time", str(twoclass_path), "--K", "0"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("command", ["simulate", "download-time"])
@pytest.mark.parametrize("speed", ["nan", "inf"])
def test_non_finite_observer_speed_is_an_input_error(twoclass_path, command, speed, capsys):
    args = [command, str(twoclass_path), "--observer-v", speed, "--trials", "5"]
    if command == "download-time":
        args += ["--K", "8"]
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert "observer speed must be finite and > 0" in err


@pytest.mark.parametrize("command", ["simulate", "download-time"])
@pytest.mark.parametrize("speed", ["1e-12", "1e-300"])
def test_too_slow_observer_is_an_input_error(twoclass_path, command, speed, capsys):
    args = [command, str(twoclass_path), "--observer-v", speed, "--trials", "5"]
    if command == "download-time":
        args += ["--K", "8"]
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert "observer too slow" in err


@pytest.mark.parametrize("command", ["simulate", "download-time"])
def test_continuous_observer_over_the_crossing_cap_is_an_input_error(
    uniform2040_path, command, capsys
):
    # at 5e-5 a uniform2040 trip expects about 2e7 crossings, over the 1e7 cap
    args = [command, str(uniform2040_path), "--observer-v", "5e-5", "--trials", "5"]
    if command == "download-time":
        args += ["--K", "8"]
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert "observer too slow" in err and "crossings" in err


@pytest.mark.parametrize("command", ["simulate", "download-time"])
def test_tiny_observer_in_zero_rate_scenario_is_an_input_error(tmp_path, command, capsys):
    path = write_scenario(tmp_path, zero_rate_doc())
    args = [command, path, "--observer-v", "1e-310", "--trials", "3"]
    if command == "download-time":
        args += ["--K", "8"]
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert "observer too slow" in err


def _classes(v0, v1):
    return {"type": "discrete", "classes": [{"v": v0, "p": 0.5}, {"v": v1, "p": 0.5}]}


def _far_apart_doc():
    # no traffic, stations 1e300 m apart: 1-2 station packets a segment, each
    # segment about 1e300 s long
    return dict(zero_rate_doc(), d=1e300, r=2.0, bit_rate=1000.0, velocity=_classes(1.0, 2.0))


@pytest.mark.parametrize(
    "args, change, code",
    [
        # a class density of 5e298 overflows the system throughput
        (["analyze"], {"lambda": 0.1, "velocity": _classes(1e-300, 25.0)}, 2),
        # throughputs near 5e302 differ by more than a square can hold
        (["simulate", "--trials", "20"], {"lambda": 0.1, "packet_bits": 1e-300}, 2),
        (["download-time", "--K", "8", "--trials", "5"], _far_apart_doc(), 2),
        (["download-time", "--K", "8", "--trials", "1"], _far_apart_doc(), 0),
    ],
)
def test_results_too_large_for_their_moments_are_input_errors(
    tmp_path, args, change, code, capsys
):
    path = write_scenario(tmp_path, dict(zero_rate_doc(), **change))
    got, out, err = run([args[0], path, *args[1:]], capsys)
    assert got == code, err  # a report of non-finite values would exit 3
    if code:
        assert out == "" and ("overflows" in err or "too large to square" in err), err


@pytest.mark.parametrize(
    "command", ["analyze", "simulate", "compare", "optimize-pmf", "download-time"]
)
def test_class_speed_with_overflowing_reciprocal_is_an_input_error(tmp_path, command, capsys):
    doc = zero_rate_doc()
    doc["lambda"] = 0.1
    doc["velocity"]["classes"][1]["v"] = 1e-310
    if command == "optimize-pmf":
        args = [command, "--speeds", "20,1e-310"]
    else:
        args = [command, write_scenario(tmp_path, doc), "--trials", "5"]
    if command == "analyze":
        args = args[:2]
    if command == "download-time":
        args += ["--K", "8"]
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert "finite reciprocal" in err
    if command != "optimize-pmf":
        assert err.startswith("error: $.velocity.classes[1]: ")


@pytest.mark.parametrize("command", ["simulate", "compare", "download-time"])
@pytest.mark.parametrize("where", ["flag", "scenario"])
def test_negative_seed_is_an_input_error(twoclass_path, tmp_path, command, where, capsys):
    # every command that draws refuses a negative seed, from --seed or from
    # the scenario, as an input error instead of an internal failure
    if where == "flag":
        args = [command, str(twoclass_path), "--seed", "-1"]
    else:
        doc = json.loads(twoclass_path.read_text())
        args = [command, write_scenario(tmp_path, dict(doc, seed=-1))]
    args += ["--trials", "5"] + (["--K", "8"] if command == "download-time" else [])
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_the_parser_is_built_once_and_runs_stay_independent(twoclass_path, capsys):
    # one parser serves every main call; no call's options leak into the next
    first = ["simulate", str(twoclass_path), "--trials", "20"]
    other = first + ["--seed", "5", "--observer-v", "25", "--format", "csv"]
    _, alone = run_json(first, capsys)
    assert run(other, capsys)[1].startswith("key,value")
    _, after = run_json(first, capsys)
    alone.pop("wall_time"), after.pop("wall_time")
    assert after == alone
    assert alone["seed"] == json.loads(twoclass_path.read_text())["seed"]
    assert cli._build_parser() is cli._build_parser()


def test_download_time_rejects_infeasible_k(twoclass_path, capsys):
    args = ["download-time", str(twoclass_path), "--K", "100000000", "--trials", "1"]
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert "exceeds the download limit of 8192 blocks" in err


@pytest.mark.parametrize("observer, speed", [([], "25.0"), (["--observer-v", "20"], "20.0")])
def test_download_time_that_no_packet_can_reach_is_an_input_error(
    twoclass_path, tmp_path, observer, speed, capsys
):
    # bit_rate 1: a station batch floor(0.001 * 100 / v) and every
    # encounter's floor(0.001 * 100 / (2 * 5)) are 0 packets
    doc = dict(json.loads(twoclass_path.read_text()), bit_rate=1.0)
    args = ["download-time", write_scenario(tmp_path, doc), "--K", "100", "--trials", "100"]
    code, out, err = run(args + observer, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: observer speed {speed} never receives a packet"), err


def test_download_time_past_a_band_end_worth_one_packet_is_an_input_error(
    uniform2040_path, tmp_path, capsys
):
    # 50 * 0.2 / (2 * (45 - 40)) = 1 packet only at the band's end, 40,
    # which rng.uniform(20, 40) never draws: no encounter ever gives one
    doc = json.loads(uniform2040_path.read_text())
    doc.update(r=0.2, velocity=dict(doc["velocity"], direction_split=0.7))
    args = ["download-time", write_scenario(tmp_path, doc), "--K", "1", "--trials", "1"]
    code, out, err = run(args + ["--observer-v", "45"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: observer speed 45.0 never receives a packet"), err


def test_spawning_leaves_the_generator_where_it_was():
    # download-time draws a chunk's observers before its trials spawn their
    # streams; the streams match one trial at a time only because of this
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    rng.spawn(3)
    assert rng.bit_generator.state == state


_ODD_NUMBERS = st.sampled_from(["0", "1", "-0.5", "nan", "inf", "-inf", "1e-300", "0.999"])


def _mostly(valid):
    """``valid`` seven times in eight, else an odd number."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else _ODD_NUMBERS)


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 64),
    trials=st.integers(1, 12),
    epsilon=_mostly(st.floats(0.001, 0.5).map(repr)),
    lt=st.none() | st.tuples(_mostly(st.floats(0.05, 1).map(repr)), _mostly(st.just("0.5"))),
    observer=st.none() | _mostly(st.floats(1, 60).map(repr)) | st.sampled_from(["-3", "1e-300"]),
    seed=_mostly(st.integers(-2, 2**70).map(str)),
)
def test_download_time_arguments_never_give_a_traceback_or_exit_1(
    twoclass_path, k, trials, epsilon, lt, observer, seed
):
    args = ["download-time", str(twoclass_path), "--K", str(k), "--trials", str(trials)]
    args += ["--epsilon", epsilon, "--seed", seed]
    if lt is not None:
        args += ["--scheme", "lt", "--lt-c", lt[0], "--lt-delta", lt[1]]
    if observer is not None:
        args += ["--observer-v", observer]
    report = _report_or_input_error(args)
    if report is not None:
        assert report["results"]["trials"] == trials


def _report_or_input_error(args, mismatch=False):
    """Run ``args``: the report, or None after an input error; never a traceback.

    Exit 1 is allowed only with ``mismatch`` and a report that says so.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    assert "Traceback" not in err.getvalue()
    assert code in ((0, 1, 2) if mismatch else (0, 2)), (args, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith(("error:", "usage:")) and not out.getvalue()
        return None
    report = json.loads(out.getvalue()) if "csv" not in args else {}
    if code == 1:
        assert report["results"]["passed"] is False
    return report


_FIXTURES = ("twoclass.json", "uniform2040.json")
# top-level scenario fields, and discrete class fields as "class index.key"
_FIELDS = ("lambda", "d", "r", "bit_rate", "packet_bits", "seed", "0.v", "0.p", "1.v")


@st.composite
def _scenarios(draw, directory):
    """A fixture's path, or a copy's with one field set to an odd number."""
    name = draw(st.sampled_from(_FIXTURES))
    path = Path(__file__).resolve().parents[1] / "fixtures" / name
    if draw(st.booleans()):
        return str(path)
    doc = json.loads(path.read_text())
    field, value = draw(st.sampled_from(_FIELDS)), float(draw(_ODD_NUMBERS))
    if "." not in field:
        doc[field] = value
    elif doc["velocity"]["type"] == "discrete":
        index, key = field.split(".")
        doc["velocity"]["classes"][int(index)][key] = value
    else:
        doc["velocity"]["a" if field == "0.v" else "b"] = value
    changed = directory / f"{name}-{field}-{value}.json"
    changed.write_text(json.dumps(doc))
    return str(changed)


_TRIALS = _mostly(st.integers(-1, 40).map(str))
_SEEDS = st.none() | _mostly(st.integers(-2, 2**70).map(str))


def _with_seed(args, seed):
    return args if seed is None else args + ["--seed", seed]


@pytest.fixture(scope="module")
def odd_scenarios(tmp_path_factory):
    return tmp_path_factory.mktemp("odd-scenarios")


@pytest.mark.filterwarnings("ignore:transmit range")  # odd d or r
@settings(max_examples=60, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["json", "csv"]), seed=_SEEDS)
def test_analyze_arguments_never_give_a_traceback_or_exit_1(odd_scenarios, data, fmt, seed):
    scenario = data.draw(_scenarios(odd_scenarios))
    _report_or_input_error(_with_seed(["analyze", scenario, "--format", fmt], seed))


@pytest.mark.filterwarnings("ignore:transmit range")  # odd d or r
@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    trials=_TRIALS,
    observer=st.none() | _mostly(st.floats(1, 60).map(repr)) | st.sampled_from(["-3", "1e308"]),
    seed=_SEEDS,
)
def test_simulate_arguments_never_give_a_traceback_or_exit_1(
    odd_scenarios, data, trials, observer, seed
):
    args = ["simulate", data.draw(_scenarios(odd_scenarios)), "--trials", trials]
    if observer is not None:
        args += ["--observer-v", observer]
    report = _report_or_input_error(_with_seed(args, seed))
    if report is not None:
        assert report["results"]["trials"] == int(trials)


@pytest.mark.filterwarnings("ignore:transmit range")  # odd d or r
@settings(max_examples=60, deadline=None)
@given(data=st.data(), trials=_TRIALS, seed=_SEEDS)
def test_compare_arguments_never_give_a_traceback_or_exit_1_but_on_a_mismatch(
    odd_scenarios, data, trials, seed
):
    args = ["compare", data.draw(_scenarios(odd_scenarios)), "--trials", trials]
    report = _report_or_input_error(_with_seed(args, seed), mismatch=True)
    if report is not None:
        assert report["results"]["trials"] == int(trials)


_SPEED_TOKENS = _mostly(st.floats(-200, 200).map(repr)) | st.sampled_from(["", " ", "x", "1e-310"])


@settings(max_examples=80, deadline=None)
@given(speeds=st.lists(_SPEED_TOKENS, max_size=8).map(",".join), seed=_SEEDS)
@example(speeds="1.0,1.0,1.0,1.1125369292536007e-308", seed=None)  # the marginals' sum overflows
def test_optimize_pmf_arguments_never_give_a_traceback_or_exit_1(speeds, seed):
    report = _report_or_input_error(_with_seed(["optimize-pmf", "--speeds", speeds], seed))
    if report is not None:
        assert len(report["results"]["p"]) == len(report["results"]["speeds"])


@pytest.mark.parametrize("trials", [cli.MAX_TRIALS + 1, 100_000_000_000])
@pytest.mark.parametrize("command", ["simulate", "compare", "download-time"])
def test_trials_above_the_limit_are_refused(twoclass_path, command, trials, capsys):
    # refused before any per-trial array is allocated
    args = [command, str(twoclass_path), "--trials", str(trials)]
    if command == "download-time":
        args += ["--K", "100"]
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    minimum = 1 if command == "download-time" else 2
    assert err.splitlines() == [
        f"error: --trials must be between {minimum} and 10,000,000, got {trials}"
    ]


# --- report formats ------------------------------------------------------------------------


def test_csv_format_is_flat_key_value(twoclass_path, capsys):
    code, out, err = run(
        ["analyze", str(twoclass_path), "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["key", "value"]
    data = dict(rows[1:])
    assert data["command"] == "analyze"
    assert float(data["results.average_throughput"]) == pytest.approx(6.125)
    assert "results.classes[0].expected_throughput" in data


def test_json_report_round_trips(twoclass_path, capsys):
    code, report = run_json(["analyze", str(twoclass_path)], capsys)
    assert json.loads(json.dumps(report)) == report


def test_floats_are_printed_with_nine_significant_digits(twoclass_path, capsys):
    code, report = run_json(["analyze", str(twoclass_path)], capsys)
    rho = report["results"]["classes"][0]["density"]
    assert rho == float(f"{rho:.9g}")


def test_output_flag_writes_file(twoclass_path, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run(
        ["analyze", str(twoclass_path), "--output", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["command"] == "analyze"


@pytest.mark.parametrize("module", ["vanetsim", "vanetsim.cli"])
def test_python_dash_m_runs_the_command(twoclass_path, module, capsys):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", module, "analyze", str(twoclass_path)],
        capture_output=True, text=True, env=env, cwd=root, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    _, in_process = run_json(["analyze", str(twoclass_path)], capsys)
    assert report["command"] == "analyze"
    assert report["results"] == in_process["results"]


def test_import_loads_no_scipy():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = (
        "import sys, vanetsim, vanetsim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=root, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
