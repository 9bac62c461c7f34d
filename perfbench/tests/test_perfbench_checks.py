"""The correctness gate: wrong references and wrong results count as failed."""

import json
import math

import run
import workloads


class FakeWorkload:
    """Operation i returns i; the check accepts even results only."""

    pass_ops = 2
    work_unit = "items"
    latency_name = "item_s"

    def run(self, i):
        if i == 3:
            raise RuntimeError("operation 3 breaks")
        return i

    def work(self, i, result):
        return 1

    def check(self, i, result):
        return None if result % 2 == 0 else f"odd result {result}"


def test_failed_operations_are_counted_and_earn_no_work():
    outcome = run.run_untraced(FakeWorkload(), 0.05, setup_s=0.1)
    failed_ops = {f["op"] for f in outcome["failures"]}
    assert failed_ops == {i for i in range(outcome["attempted"]) if i % 2}
    assert "operation 3 breaks" in next(f["problem"] for f in outcome["failures"] if f["op"] == 3)
    assert outcome["named"]["failed_frac"]["value"] == len(failed_ops) / outcome["attempted"]
    # half the timed operations fail, and they count as infinitely slow
    assert outcome["metrics"]["latency.p90"]["value"] == math.inf
    assert outcome["named"]["item_s.p90"]["value"] == math.inf


def test_z_check():
    assert workloads.z_check(10.0, 1.0, 14.9, "x") is None
    assert "standard errors" in workloads.z_check(10.0, 1.0, 15.1, "x")
    assert workloads.z_check(10.0, 0.01, 10.5, "x", se_floor=0.02) is None
    assert "non-finite" in workloads.z_check(math.nan, 1.0, 10.0, "x")


def test_mc_trips_wrong_reference_or_result_fails(loaded):
    w = workloads.McTrips(loaded, seed=3)
    est = w.run(0)
    assert w.check(0, est) is None
    assert w.check(1, est) is not None  # checked against the other class's closed form
    shifted = type(est)(mean=est.mean + 6 * est.std_error, std_error=est.std_error, trials=est.trials)
    assert w.check(0, shifted) is not None
    w.references[0] *= 1.05
    assert w.check(0, est) is not None


def test_download_short_decode_fails(loaded):
    w = workloads.Download(loaded, seed=3)
    assert w.check(0, (12.0, 300, 2)) is None
    assert "fewer than K" in w.check(0, (12.0, 255, 2))
    assert w.check(0, (math.nan, 300, 2)) is not None


def _cli_result(w, i):
    code, out, err = w.run(i)
    return code, json.loads(out), err


def _redo(code, report, err=""):
    return code, json.dumps(report), err


def test_cli_analyze_wrong_reference_or_result_fails(loaded):
    w = workloads.Cli(loaded, seed=3)
    code, report, err = _cli_result(w, 0)
    assert w.check(0, _redo(code, report)) is None
    assert "exited 2" in w.check(0, (2, "", "error: bad input"))
    report["results"]["average_throughput"] *= 1.001
    assert w.check(0, _redo(code, report)) is not None
    report["results"]["average_throughput"] /= 1.001
    w.continuous_throughput *= 1.001
    assert w.check(0, _redo(code, report)) is not None


def test_cli_simulate_and_compare_checked_against_closed_form(loaded):
    w = workloads.Cli(loaded, seed=3)
    sim = {"results": {"trials": w.simulate_trials, "mean_throughput": 9.0, "std_error": 0.01}}
    w.continuous_throughput = 9.02
    assert w.check(1, _redo(0, sim)) is None
    w.continuous_throughput = 9.2
    assert "standard errors" in w.check(1, _redo(0, sim))

    row = {"label": "observer_v=22", "analytic": 9.2, "simulated": 9.2, "std_error": 0.1, "z": 0.0}
    cmp = {"results": {"rows": [dict(row) for _ in range(3)], "max_abs_z": 0.0, "z_limit": 4.0, "passed": True}}
    assert w.check(2, _redo(0, cmp)) is None
    assert "disagrees" in w.check(2, _redo(1, cmp))
    cmp["results"]["rows"][1]["simulated"] = 9.2 * 0.85  # beyond 5 floored standard errors
    assert "standard errors" in w.check(2, _redo(0, cmp))
    cmp["results"]["rows"][1]["simulated"] = 9.2
    cmp["results"]["rows"][2]["analytic"] = 9.3
    assert "analytic" in w.check(2, _redo(0, cmp))


def test_cli_optimize_pmf_certificate_checked(loaded):
    w = workloads.Cli(loaded, seed=3)
    code, report, err = _cli_result(w, 3)
    assert w.check(3, _redo(code, report)) is None
    bad = json.loads(json.dumps(report))
    bad["results"]["kkt_residual"] = 1e-6
    assert "kkt_residual" in w.check(3, _redo(code, bad))
    bad = json.loads(json.dumps(report))
    bad["results"]["monotone_in_speed"] = False
    assert "decrease" in w.check(3, _redo(code, bad))


def test_cli_download_time_checked(loaded):
    w = workloads.Cli(loaded, seed=3)
    res = {"results": {"trials": 100, "k": 100, "mean_packets": 101.5, "simulated_mean_time": 0.0}}
    assert w.check(4, _redo(0, res)) is None
    res["results"]["mean_packets"] = 99.0
    assert "mean_packets" in w.check(4, _redo(0, res))
    assert "malformed" in w.check(4, (0, "not json", ""))


def test_local_scales_use_the_reference_loops_near_each_operation():
    ref_times, ref_values = [0.0, 1.0, 10.0], [0.02, 0.04, 0.01]
    near_two, far_from_all = run.local_scales([0.5, 20.0], ref_times, ref_values)
    assert near_two == run.calibration.REFERENCE_S / 0.03
    assert far_from_all == run.calibration.REFERENCE_S / 0.01
