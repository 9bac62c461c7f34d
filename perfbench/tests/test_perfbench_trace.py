"""Span accounting, exact counts and patch hygiene of the tracer."""

import time

import pytest

import run
import tracing
import workloads


def test_self_times_add_up_without_double_counting():
    tracer = tracing.Tracer()
    with tracer.span(tracing.ROOT):
        with tracer.span("a"):
            time.sleep(0.002)
            with tracer.span("b"):
                time.sleep(0.003)
        with tracer.span("b"):
            time.sleep(0.001)
    selfs, wall = tracer.self_times()
    assert sum(selfs.values()) == pytest.approx(wall, abs=1e-9)
    assert selfs["b"] >= 0.004 and selfs["a"] >= 0.002
    assert selfs["a"] < wall - 0.004


def test_span_outside_its_parent_is_refused():
    tracer = tracing.Tracer()
    tracer.spans = [["bench", 0.0, 1.0, -1], ["a", 0.5, 1.5, 0]]
    with pytest.raises(ValueError, match="leaves its parent"):
        tracer.self_times()
    tracer.spans = [["bench", 0.0, 1.0, -1], ["a", 0.1, 0.5, 0], ["b", 0.4, 0.6, 0]]
    with pytest.raises(ValueError, match="overlaps"):
        tracer.self_times()


def test_installed_wraps_and_restores(loaded):
    vs = loaded.vs
    before = [owner.__dict__[name] for owner, name, _, _ in tracing.boundaries(vs)]
    tracer = tracing.Tracer()
    with tracer.installed(vs):
        assert vs.encounters.simulate_trip.__wrapped__ is before[1]
    assert [owner.__dict__[name] for owner, name, _, _ in tracing.boundaries(vs)] == before


def test_mc_trips_counts_repeat_and_fountain_stays_idle(loaded):
    w = workloads.McTrips(loaded, seed=5)
    outcome = run.run_traced(w, seconds=0.0)  # two traced passes, counts compared
    m = {k: v["value"] for k, v in outcome["metrics"].items()}
    assert outcome["failures"] == []
    assert m["encounters.trip.calls"] == 2 * w.trips == m["traffic.sample.calls"]
    assert all(m[k] == 0 for k in m if k.startswith("fountain.") and k.endswith(".calls"))
    layer_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert layer_self == pytest.approx(m["trace.wall_s"], abs=1e-6)
    assert 0.02 < m["encounters.encounters_per_arrival"] < 0.1


class Drifting(workloads.McTrips):
    """Draws one more velocity on every call: counts cannot repeat."""

    pass_ops = 1
    calls = 0

    def run(self, i):
        self.calls += 1
        rng = workloads.np.random.default_rng(0)
        return self.vs.encounters.sample_velocities(self.scenario.velocity, self.calls, rng)

    def check(self, i, result):
        return None


def test_differing_counts_are_an_error(loaded):
    with pytest.raises(run.BenchmarkError, match="counted"):
        run.run_traced(Drifting(loaded, seed=0), seconds=0.0)
