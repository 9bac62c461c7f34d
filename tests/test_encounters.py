import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetsim import (
    DiscreteVelocityDist,
    FileSpec,
    LtScheme,
    Scenario,
    SolitonParams,
    UniformScheme,
    VelocityClass,
    encode,
    expected_download_time,
    expected_encounters,
    expected_throughput_class,
    infostation_download,
    mean_inverse_speed,
    monte_carlo_throughput,
    simulate_download_time,
    simulate_trip,
    span_probability,
)
from vanetsim import encounters, fountain
from vanetsim.encounters import BATCH_MARGIN, MAX_DOWNLOAD_BLOCKS
from vanetsim.errors import (
    InternalInconsistencyError,
    InvalidParameterError,
    NoProgressError,
)
from vanetsim.fountain import EncodingVector, vector_batch_sampler
from vanetsim.traffic import ContinuousVelocityDist

from oracles import ArrivalRecord, IntDecoder, encounter_of, sample_bands, trip_tallies


def make_scenario(lam=0.1, velocity=None, **kw):
    velocity = velocity or DiscreteVelocityDist(
        (VelocityClass(20.0, 0.5), VelocityClass(25.0, 0.5))
    )
    defaults = dict(d=10_000.0, r=100.0, bit_rate=50_000.0, packet_bits=1_000.0)
    defaults.update(kw)
    return Scenario(lam=lam, velocity=velocity, **defaults)


def crossing_oracle(vi: float, arrival: ArrivalRecord, d: float):
    """Independent encounter oracle: solve the crossing equation directly.

    Forward traffic runs x = v*(tau - t) from 0; reverse traffic runs
    x = d + v*(tau - t) from d. An encounter is a crossing instant at which
    both vehicles are inside [0, d].
    """
    vp, t = arrival.v, arrival.entry_time
    ti = d / vi
    if vp > 0:
        if vp == vi:
            return None
        tau = vp * t / (vp - vi)
        partner_inside = t <= tau <= t + d / vp
    else:
        tau = (d - vp * t) / (vi - vp)
        partner_inside = t <= tau <= t + d / abs(vp)
    if 0 <= tau <= ti and partner_inside:
        return tau
    return None


# --- single-encounter geometry -----------------------------------------------


def test_encounter_slow_forward_partner():
    # observer 25 m/s (400 s); partner 20 m/s (500 s) must enter in (-100, 0)
    ev = encounter_of(25.0, ArrivalRecord(-50.0, 20.0), 10_000.0, 100.0, 50.0)
    assert ev is not None
    assert ev.partner_velocity == 20.0
    assert encounter_of(25.0, ArrivalRecord(-150.0, 20.0), 10_000.0, 100.0, 50.0) is None


def test_same_velocity_never_meets():
    for t in (-100.0, 0.0, 123.0):
        assert encounter_of(25.0, ArrivalRecord(t, 25.0), 10_000.0, 100.0, 50.0) is None


def test_reverse_partner_window_boundary():
    # reverse partner dwells 500 s, so entries are accepted on (-500, 400)
    d, r, rp = 10_000.0, 100.0, 50.0
    assert encounter_of(25.0, ArrivalRecord(-500.0 + 1e-6, -20.0), d, r, rp) is not None
    assert encounter_of(25.0, ArrivalRecord(-500.0 - 1e-6, -20.0), d, r, rp) is None


def test_encounter_decision_matches_crossing_oracle():
    rng = np.random.default_rng(2)
    d = 10_000.0
    for _ in range(5_000):
        vi = rng.uniform(5.0, 40.0)
        vp = rng.uniform(5.0, 40.0) * rng.choice([-1.0, 1.0])
        t = rng.uniform(-1_500.0, 2_500.0)
        ev = encounter_of(vi, ArrivalRecord(t, vp), d, 100.0, 50.0)
        tau = crossing_oracle(vi, ArrivalRecord(t, vp), d)
        assert (ev is None) == (tau is None)
        if ev is not None:
            assert ev.meeting_time == pytest.approx(tau, rel=1e-9)
            assert ev.connection_time == pytest.approx(100.0 / abs(vi - vp), rel=1e-12)


def test_packets_per_encounter_values():
    # rho r / (2 |v - v'|), computed in place over the gaps v - v'
    gaps = np.array([20.0 - 25.0, 20.0 - -20.0, 20.0 - 40.0])
    packets = encounters._packets(gaps, 50.0, 100.0)
    assert packets is gaps and packets.tolist() == [500.0, 62.5, 125.0]
    wider = encounters._packets(np.array([20.0 - 25.0]), 50.0, 200.0)
    assert wider.tolist() == [2 * 500.0]
    assert encounters._packets(np.empty(0), 50.0, 100.0).shape == (0,)


def test_infostation_download_values():
    assert infostation_download(20.0, 50.0, 100.0) == 250.0
    assert infostation_download(-20.0, 50.0, 100.0) == 250.0
    assert infostation_download(40.0, 50.0, 100.0) == 125.0
    with pytest.raises(InvalidParameterError):
        infostation_download(0.0, 50.0, 100.0)


# --- trip simulation -------------------------------------------------------------


def test_trip_with_no_traffic():
    sc = make_scenario(lam=0.0)
    trip = simulate_trip(sc, 20.0, np.random.default_rng(0))
    assert trip.n_encounters == 0
    assert trip.total_packets == 250.0
    assert trip.throughput == 0.5  # == packet_rate * r / d


def test_trip_single_class_has_no_encounters():
    dist = DiscreteVelocityDist((VelocityClass(25.0, 1.0),))
    sc = make_scenario(velocity=dist)
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert simulate_trip(sc, 25.0, rng).n_encounters == 0


def test_trip_rejects_reverse_observer():
    sc = make_scenario()
    with pytest.raises(InvalidParameterError):
        simulate_trip(sc, -20.0, np.random.default_rng(0))
    # non-finite and zero speeds are rejected before any draw, by the trip
    # and the download alike
    for speed in (math.nan, math.inf, -math.inf, 0.0, -20.0):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError, match="finite and > 0"):
            simulate_trip(sc, speed, rng)
        with pytest.raises(InvalidParameterError, match="finite and > 0"):
            simulate_download_time(sc, speed, FileSpec(4, 8), UniformScheme(), rng)


def test_zero_rate_observer_with_overflowing_travel_time_is_rejected():
    # With no traffic no arrival bound applies, so the travel time d/v (or
    # the station batch packet_rate*r/v) itself must be checked
    cases = [
        (make_scenario(lam=0.0), 1e-310),  # d/v overflows
        (make_scenario(lam=0.0, bit_rate=5e6, packet_bits=1.0), 1e-300),  # batch only
    ]
    for sc, speed in cases:
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError, match="observer too slow"):
            simulate_trip(sc, speed, rng)
        with pytest.raises(InvalidParameterError, match="observer too slow"):
            simulate_download_time(sc, speed, FileSpec(4, 8), UniformScheme(), rng)


def test_observer_whose_travel_time_underflows_is_rejected():
    sc = make_scenario(d=1e-300, r=1e-302)
    rng = np.random.default_rng(0)
    for run in (
        lambda: simulate_trip(sc, 1e308, rng),
        lambda: monte_carlo_throughput(sc, 1e308, 2, rng),
        lambda: simulate_download_time(sc, 1e308, FileSpec(4, 8), UniformScheme(), rng),
    ):
        with pytest.raises(InvalidParameterError, match="observer too fast"):
            run()


def test_trip_encounter_count_matches_expectation():
    sc = make_scenario()
    rng = np.random.default_rng(9)
    trials = 20_000
    counts = np.empty(trials)
    for i in range(trials):
        counts[i] = simulate_trip(sc, 25.0, rng).encounters_per_class[0]
    target = expected_encounters(sc, 1, 0)
    assert target == 5.0
    se = counts.std(ddof=1) / math.sqrt(trials)
    assert abs(counts.mean() - target) <= 3 * se


def test_trip_counts_are_consistent():
    sc = make_scenario()
    rng = np.random.default_rng(10)
    for _ in range(200):
        trip = simulate_trip(sc, 20.0, rng)
        assert trip.n_encounters == sum(trip.encounters_per_class)
        assert trip.total_packets >= trip.infostation_packets
        assert trip.throughput == pytest.approx(trip.total_packets / trip.travel_time)
        assert trip.total_packets == pytest.approx(
            trip.infostation_packets
            + trip.forward_exchange_packets
            + trip.reverse_exchange_packets
        )


def test_monte_carlo_matches_analytic_throughput():
    sc = make_scenario()
    rng = np.random.default_rng(14)
    for i, observer in enumerate((20.0, 25.0)):
        est = monte_carlo_throughput(sc, observer, 20_000, rng)
        target = expected_throughput_class(sc, i)
        assert abs(est.mean - target) <= 3 * est.std_error


def test_monte_carlo_near_the_largest_speed_matches_the_throughput_law(twoclass):
    # For an observer off the class speeds |t_m - t_i| / |v_i - v_m| / t_i
    # is 1 / v_m, so the law holds at any such speed. Doubling a relative
    # speed near 1e308 used to overflow and drop every exchange packet.
    sc = twoclass
    law = sc.packet_rate * sc.r * (1 / sc.d + sc.lam * mean_inverse_speed(sc.velocity) / 2)
    est = monte_carlo_throughput(sc, 1e308, 2_000, np.random.default_rng(0))
    assert abs(est.mean - law) <= 5 * est.std_error


def test_monte_carlo_zero_rate_has_zero_variance():
    sc = make_scenario(lam=0.0)
    est = monte_carlo_throughput(sc, 20.0, 100, np.random.default_rng(0))
    assert est.mean == 0.5
    assert est.std_error == 0.0


def test_monte_carlo_requires_two_trials():
    sc = make_scenario()
    with pytest.raises(InvalidParameterError):
        monte_carlo_throughput(sc, 20.0, 1, np.random.default_rng(0))


def test_monte_carlo_deterministic_under_seed():
    sc = make_scenario()
    a = monte_carlo_throughput(sc, 20.0, 500, np.random.default_rng(77))
    b = monte_carlo_throughput(sc, 20.0, 500, np.random.default_rng(77))
    assert a == b


def test_forward_and_reverse_traffic_contribute_equally():
    mix = ContinuousVelocityDist(((20.0, 40.0), (-40.0, -20.0)), (0.5, 0.5))
    sc = make_scenario(velocity=mix)
    rng = np.random.default_rng(23)
    trials = 30_000
    # each trip's exchange packets, forward in column 0 and reverse in column 1
    fwd, rev = trip_tallies(sc, 30.0, trials, rng, lambda c: c.reverse, 2, weighted=True).T
    pooled_se = math.sqrt(
        fwd.var(ddof=1) / trials + rev.var(ddof=1) / trials
    )
    assert abs(fwd.mean() - rev.mean()) <= 3 * pooled_se


# --- batched trips ------------------------------------------------------------------

REVERSE_CLASS = DiscreteVelocityDist(
    (VelocityClass(20.0, 0.4), VelocityClass(25.0, 0.4), VelocityClass(-30.0, 0.2))
)
TWO_BAND_MIX = ContinuousVelocityDist(((20.0, 40.0), (-40.0, -20.0)), (0.7, 0.3))


def lookback_window(scenario, ti):
    """Start of a trip's lookback window, and the arrivals it expects, from any traffic's speeds.

    The window opens 10 ranges r / min|v| before -d / min|v|, the earliest
    entry time of an arrival that can cross the observer.
    """
    vel = scenario.velocity
    if scenario.is_discrete:
        vmin = min(abs(c.v) for c in vel.classes if c.p > 0)
    else:
        vmin = min(abs(v) for band, w in zip(vel.bands, vel.weights) if w > 0 for v in band)
    w0 = -(scenario.d / vmin + 10.0 * scenario.r / vmin)
    return w0, scenario.lam * (ti - w0)


def velocities(scenario, rng, n):
    """What the lookback sampler draws: discrete traffic's classes, or bands by the oracle (no classes)."""
    if scenario.is_discrete:
        return scenario.velocity.sample(rng, n)
    return sample_bands(scenario.velocity, rng, n), None


def arrival_kernel(scenario, observer, rng, trips):
    """The lookback sampler, discrete traffic's, as a reference on any traffic.

    Continuous traffic takes its window from its bands' ends and its
    speeds from the oracle band sampler; its class indices are all 0.
    """
    ti = scenario.d / observer
    w0, _ = lookback_window(scenario, ti)

    def sample(dist, n, rng):
        speeds, cls = velocities(scenario, rng, n)
        return speeds, np.zeros(n, dtype=int) if cls is None else cls

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encounters, "sample_velocities", sample)
        return encounters._crossing_arrivals(scenario, observer, ti, w0, rng, trips)


def oracle_trips(scenario, observer, trips, rng):
    """Replay a chunk's arrival draws and decide every arrival with ``encounter_of``.

    Returns, per trip, the crossers as (meeting time, velocity, class index)
    and the exchanged packets.
    """
    ti = scenario.d / observer
    w0, expected = lookback_window(scenario, ti)
    counts = rng.poisson(expected, trips)
    entry = rng.uniform(w0, ti, int(counts.sum()))
    vel, cls = velocities(scenario, rng, int(counts.sum()))
    out = []
    for lo, hi in zip(np.cumsum(counts) - counts, np.cumsum(counts)):
        crossers, packets = [], []
        for j in range(lo, hi):
            index = None if cls is None else int(cls[j])
            arrival = ArrivalRecord(float(entry[j]), float(vel[j]), index)
            ev = encounter_of(observer, arrival, scenario.d, scenario.r, scenario.packet_rate)
            if ev is not None:
                crossers.append((ev.meeting_time, arrival.v, index))
                packets.append(ev.packets_received)
        out.append((crossers, math.fsum(packets)))
    return out


def trip_packets(scenario, observer, trips, rng):
    """Each trip's exchanged packets, reduced one crosser at a time in Python.

    Discrete traffic replays the arrivals (:func:`oracle_trips`); continuous
    traffic takes the crossers that the tilted sampler draws from ``rng``.
    """
    if scenario.is_discrete:
        return [packets for _, packets in oracle_trips(scenario, observer, trips, rng)]
    got = encounters._observer(scenario, observer).draw(rng, trips)
    trip = [0] * got.gap.size if got.trip is None else got.trip.tolist()
    per_trip = [[] for _ in range(trips)]
    for t, gap in zip(trip, got.gap.tolist()):
        per_trip[t].append(scenario.packet_rate * scenario.r / (2 * abs(gap)))
    return [math.fsum(packets) for packets in per_trip]


def one_trip_draws(scenario, observer):
    """The vehicles one trip's sampler expects to draw."""
    return encounters._observer(scenario, observer).expected


@pytest.mark.parametrize("trips", [1, 2, 7, 655])
@pytest.mark.parametrize(
    "velocity, observer", [(None, 20.0), (REVERSE_CLASS, 25.0), (TWO_BAND_MIX, 30.0)]
)
def test_batch_matches_per_arrival_oracle(monkeypatch, velocity, observer, trips):
    # the arrival kernel, also on continuous traffic, where it is the reference
    sc = make_scenario(velocity=velocity)
    ti = sc.d / observer
    expected = oracle_trips(sc, observer, trips, np.random.default_rng(trips))
    got = arrival_kernel(sc, observer, np.random.default_rng(trips), trips)
    assert (got.trip is None) == (trips == 1)
    trip = np.zeros(got.gap.size, dtype=int) if got.trip is None else got.trip
    for t, (crossers, _) in enumerate(expected):
        mine = trip == t
        classes = got.cls[mine].tolist() if sc.is_discrete else [None] * int(mine.sum())
        rows = zip(
            got.meet[mine].tolist(), got.gap[mine].tolist(), got.reverse[mine].tolist(), classes
        )
        assert list(rows) == [(m, v - observer, v < 0, c) for m, v, c in crossers]
    # the chunk's per-trip throughputs, reduced by trip
    monkeypatch.setattr(encounters, "CHUNK_VEHICLES", (trips + 0.5) * one_trip_draws(sc, observer))
    obs = encounters._observer(sc, observer)
    chunks = list(encounters._trip_throughputs(sc, obs, trips, np.random.default_rng(trips)))
    assert [c.size for c in chunks] == [trips]
    info = sc.packet_rate * sc.r / observer
    packets = trip_packets(sc, observer, trips, np.random.default_rng(trips))
    np.testing.assert_allclose(chunks[0], [(info + p) / ti for p in packets], rtol=1e-12, atol=0)


@pytest.mark.parametrize("velocity", [None, TWO_BAND_MIX])
@pytest.mark.parametrize("chunk", [1, 3, 500])
def test_chunked_moments_match_two_pass(monkeypatch, velocity, chunk):
    trials = 500
    sc = make_scenario(velocity=velocity)
    observer = 30.0
    monkeypatch.setattr(encounters, "CHUNK_VEHICLES", (chunk + 0.5) * one_trip_draws(sc, observer))
    seen = []
    real = encounters._trip_throughputs
    monkeypatch.setattr(
        encounters, "_trip_throughputs", lambda *a: (seen.append(c) or c for c in real(*a))
    )
    est = monte_carlo_throughput(sc, observer, trials, np.random.default_rng(chunk))
    assert {c.size for c in seen[:-1]} <= {chunk} and sum(c.size for c in seen) == trials
    values = np.concatenate(seen)
    assert est.trials == trials
    assert est.mean == pytest.approx(np.mean(values), rel=1e-12, abs=0)
    se = np.std(values, ddof=1) / math.sqrt(trials)
    assert est.std_error == pytest.approx(se, rel=1e-12, abs=0)
    if chunk == 1:  # a chunk of one is one simulate_trip, draw for draw
        rng = np.random.default_rng(chunk)
        assert values.tolist() == [
            simulate_trip(sc, observer, rng).throughput for _ in range(trials)
        ]


def _sampler_statistics(draw, trips, per_call, rng, packet_rate, r):
    """Per-trip crossings and packets, and every crosser's gap and meeting time."""
    stats = {"crossings": [], "packets": [], "gap": [], "meeting time": []}
    for lo in range(0, trips, per_call):
        n = min(per_call, trips - lo)
        got = draw(rng, n)
        trip = np.zeros(got.gap.size, dtype=int) if got.trip is None else got.trip
        stats["gap"].append(got.gap.copy())
        stats["meeting time"].append(got.meet)
        stats["crossings"].append(np.bincount(trip, minlength=n))
        packets = encounters._packets(got.gap, packet_rate, r)
        stats["packets"].append(np.bincount(trip, weights=packets, minlength=n))
    return {name: np.concatenate(x) for name, x in stats.items()}


def _within_3_se(ref, new):
    """Per-trip means agree within 3 SE, and so do the deciles of per-crosser values."""
    for name in ("crossings", "packets"):
        a, b = ref[name], new[name]
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert abs(b.mean() - a.mean()) <= 3 * se, name
    for name in ("gap", "meeting time"):
        a, b = np.sort(ref[name]), np.sort(new[name])
        q = np.quantile(a, np.arange(1, 10) / 10)
        p = np.searchsorted(a, q, side="right") / a.size
        p_new = np.searchsorted(b, q, side="right") / b.size
        se = np.sqrt(p * (1 - p) * (1 / a.size + 1 / b.size))
        assert np.all(np.abs(p_new - p) <= 3 * se), name


@pytest.mark.parametrize(
    "velocity, observer",
    [
        (None, 0.02),  # a flat part and a small tail
        (None, 30.0),  # inside the band: both pieces are tails
        (TWO_BAND_MIX, 30.0),
        (ContinuousVelocityDist(((-40.0, -20.0),)), 25.0),  # a reverse band
    ],
)
def test_tilted_crossings_match_the_arrival_kernel_in_distribution(uniform2040, velocity, observer):
    # At least 10**6 crossers a side: mean crossings and packets per trip,
    # and the deciles of the crossers' gaps v - vi and meeting times
    sc = replace(uniform2040, velocity=velocity or uniform2040.velocity)
    obs = encounters._observer(sc, observer)
    _, arrivals = lookback_window(sc, obs.ti)
    trips = math.ceil(1.01e6 / obs.expected)  # 10 SD above 10**6 crossers
    rng = np.random.default_rng(0)
    args = sc.packet_rate, sc.r
    ref = _sampler_statistics(
        lambda rng, n: arrival_kernel(sc, observer, rng, n),
        trips, max(1, int(2e5 // arrivals)), rng, *args,
    )
    new = _sampler_statistics(
        lambda rng, n: obs.draw(rng, n, times=True),
        trips, max(1, int(2e5 // obs.expected)), rng, *args,
    )
    assert new["gap"].size >= 1e6 and ref["gap"].size >= 1e6
    _within_3_se(ref, new)


def _tail_cdf(shape, lo, hi, u):
    """The closed-form CDF of a tail part on (lo, hi) in u = |v|."""
    if shape == "rising":
        return ((u - lo) / lo - np.log(u / lo)) / ((hi - lo) / lo - math.log(hi / lo))
    return (np.log(u / lo) - (u - lo) / hi) / (math.log(hi / lo) - (hi - lo) / hi)


@pytest.mark.parametrize("shape", ["rising", "falling"])
@pytest.mark.parametrize("lo, hi", [(20.0, 20.001), (20.0, 40.0), (0.001, 40.0), (1.0, 1e6)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_tail_speeds_follow_their_density(shape, lo, hi, sign):
    n = 200_000
    a, b = sorted((sign * lo, sign * hi))
    speeds = encounters._tail_speeds(np.random.default_rng(1), n, shape, a, b)
    assert speeds.size == n and np.all(a < speeds) and np.all(speeds < b)
    # the CDF at the draws is uniform: its deciles within 3 SE
    cdf = np.sort(_tail_cdf(shape, lo, hi, np.abs(speeds)))
    p = np.arange(1, 10) / 10
    got = np.searchsorted(cdf, p, side="right") / n
    assert np.all(np.abs(got - p) <= 3 * np.sqrt(p * (1 - p) / n))


@pytest.mark.parametrize("shape", ["rising", "falling"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [1, 5, 32, 10**5])
def test_tail_speeds_never_return_an_end_of_a_piece_a_few_ulps_wide(shape, sign, n):
    # The tail vanishes at one end, which is the observer's own speed on a
    # piece split at it: a crosser drawn there would meet it at gap 0. Short
    # rounds are the draws of one trip's few crossers
    a, b = sorted((sign * 14363309101.832027, sign * 14363309101.832043))  # 8 ulps apart
    speeds = encounters._tail_speeds(np.random.default_rng(0), n, shape, a, b)
    assert speeds.size == n and np.all((a < speeds) & (speeds < b))


@pytest.mark.parametrize("shape", ["rising", "falling"])
def test_tail_speeds_draw_again_after_a_round_that_keeps_nothing(shape):
    # acceptance uniforms of 1 reject every proposal of the first round
    rng, rounds = np.random.default_rng(0), []

    class FirstRoundRejects:
        def random(self, size):
            draws = rng.random(size)
            if not rounds:
                draws[1] = 1.0
            rounds.append(size)
            return draws

    speeds = encounters._tail_speeds(FirstRoundRejects(), 3, shape, 20.0, 40.0)
    assert len(rounds) > 1 and speeds.size == 3 and np.all((20.0 < speeds) & (speeds < 40.0))


@pytest.mark.parametrize("ulps", [1, 2, 3])
def test_a_tail_part_needs_a_float_inside_its_piece(uniform2040, ulps):
    # A piece with no float strictly inside has no tail part, since a tail
    # speed is neither end; with one, the tail draws only floats inside it
    a = 1.0
    b = a
    for _ in range(2 * ulps):
        b = math.nextafter(b, math.inf)
    observer = a
    for _ in range(ulps):
        observer = math.nextafter(observer, math.inf)
    velocity = ContinuousVelocityDist(((a, b),), (1.0,))
    sc = replace(uniform2040, lam=1e12, velocity=velocity)
    parts = encounters._tilt_parts(sc, observer)
    tails = [part for part in parts if part[1] != "flat"]
    assert len(tails) == (0 if ulps == 1 else 2), parts
    for _, shape, pa, pb in tails:
        speeds = encounters._tail_speeds(np.random.default_rng(0), 1000, shape, pa, pb)
        assert np.all((pa < speeds) & (speeds < pb))
    crossers = encounters._observer(sc, observer).draw(np.random.default_rng(0), trips=3)
    assert np.all(crossers.gap != 0)


@pytest.mark.parametrize("lo", [20.0, 1.4e10])
@pytest.mark.parametrize("width", [1e-15, 1e-12, 1e-9, 1e-6, 2**-10, 1e-3, 1e-2, 0.1, 1.0])
def test_tilt_masses_match_mpmath_on_narrow_and_wide_bands(lo, width):
    # The closed forms (hi - lo)/lo - ln(hi/lo) and ln(hi/lo) - (hi - lo)/hi
    # of the tail masses cancel as hi/lo nears 1
    import mpmath as mp

    hi = lo * (1 + width)
    sc = make_scenario(velocity=ContinuousVelocityDist(((lo, hi), (-hi, -lo)), (0.5, 0.5)))
    with mp.workdps(60):
        low, high = mp.mpf(lo), mp.mpf(hi)
        scale = mp.mpf(sc.lam) * mp.mpf(sc.d) * mp.mpf(0.5) / (high - low)
        rising = scale * ((high - low) / low - mp.log(high / low))
        falling = scale * (mp.log(high / low) - (high - low) / high)
    for observer, tails in [
        (lo / 2, {("rising", lo): rising, ("falling", -hi): falling}),
        (hi * 2, {("falling", lo): falling, ("falling", -hi): falling}),
    ]:
        parts = {(shape, a): mean for mean, shape, a, _ in encounters._tilt_parts(sc, observer)}
        for key, exact in tails.items():
            assert parts[key] == pytest.approx(float(exact), rel=1e-9, abs=0), (observer, key)


_SPEEDS = st.integers(5, 40).map(float)
_SIGNS = st.sampled_from([1.0, 1.0, -1.0])


@st.composite
def _kernel_cases(draw):
    """A scenario of random classes or bands, some reverse, and an observer speed.

    The observer is, about half the time, at a forward class's own speed or
    inside a forward band.
    """
    weights = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(any))
    probs = [w / sum(weights) for w in weights]
    if draw(st.booleans()):
        speeds = draw(
            st.lists(
                st.tuples(_SPEEDS, _SIGNS).map(lambda vs: vs[0] * vs[1]),
                min_size=len(weights),
                max_size=len(weights),
                unique=True,
            )
        )
        velocity = DiscreteVelocityDist(tuple(map(VelocityClass, speeds, probs)))
        own = st.sampled_from([v for v in speeds if v > 0] or [30.0])
    else:
        bands = []
        for _ in weights:
            a, b = draw(st.lists(st.floats(5, 40), min_size=2, max_size=2, unique=True).map(sorted))
            bands.append((a, b) if draw(_SIGNS) > 0 else (-b, -a))
        velocity = ContinuousVelocityDist(tuple(bands), tuple(probs))
        own = st.sampled_from([band for band in bands if band[0] > 0] or [(30.0, 30.0)])
        own = own.flatmap(lambda band: st.floats(*band))
    observer = draw(own if draw(st.booleans()) else st.floats(5, 45))
    lam = draw(st.floats(0.005, 0.2))
    return make_scenario(lam=lam, velocity=velocity, d=1_000.0, r=draw(st.floats(1, 100))), observer


@settings(max_examples=80, deadline=None)
@given(case=_kernel_cases(), trips=st.integers(2, 9), seed=st.integers(0, 2**32))
def test_the_crossing_kernel_over_random_mixes(case, trips, seed):
    sc, observer = case
    ti = sc.d / observer
    obs = encounters._observer(sc, observer)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(encounters, "CHUNK_VEHICLES", 0)  # chunks of one trip
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        ones = np.concatenate(list(encounters._trip_throughputs(sc, obs, trips, rng)))
        assert ones.tolist() == [simulate_trip(sc, observer, twin).throughput for _ in range(trips)]
        assert rng.bit_generator.state == twin.bit_generator.state
        mp.setattr(encounters, "CHUNK_VEHICLES", (trips + 0.5) * max(obs.expected, 1.0))
        rng = np.random.default_rng(seed)
        (chunk,) = encounters._trip_throughputs(sc, obs, trips, rng)
    info = sc.packet_rate * sc.r / observer
    packets = trip_packets(sc, observer, trips, np.random.default_rng(seed))
    np.testing.assert_allclose(chunk, [(info + p) / ti for p in packets], rtol=1e-12, atol=0)


@settings(max_examples=40, deadline=None)
@given(
    case=_kernel_cases().filter(lambda case: not case[0].is_discrete),
    trips=st.integers(1, 6),
    seed=st.integers(0, 2**32),
)
def test_tilted_crossers_lie_in_their_bands(case, trips, seed):
    sc, observer = case
    draw = encounters._observer(sc, observer).draw
    with np.errstate(all="raise"):
        got = draw(np.random.default_rng(seed), trips, times=True)
    bands = [band for band, w in zip(sc.velocity.bands, sc.velocity.weights) if w > 0]
    slack = 1e-12 * 45.0  # speeds and observers lie below 45
    for gap in got.gap.tolist():
        assert gap != 0 and any(a - slack <= gap + observer < b + slack for a, b in bands)
    assert np.array_equal(got.reverse, got.gap + observer < 0)
    assert np.all((0 <= got.meet) & (got.meet < sc.d / observer))
    assert got.trip is None if trips == 1 else np.all((0 <= got.trip) & (got.trip < trips))


def test_merge_moments_refuses_values_too_large_to_square():
    with pytest.raises(InvalidParameterError, match="^speeds of about 0 are too large"):
        encounters.merge_moments((0, 0.0, 0.0), np.array([1e200, -1e200]), "speeds")
    moments = encounters.merge_moments((0, 0.0, 0.0), np.array([1e150]), "speeds")
    with pytest.raises(InvalidParameterError, match="too large to square"):
        encounters.merge_moments(moments, np.array([-1e160]), "speeds")


@pytest.mark.parametrize("trials", [2, 20])  # chunks of one trip and of many
def test_trip_throughputs_that_overflow_are_an_input_error(trials):
    # packets rho r / (2 |v - v_i|) past the largest float, or a trip's sum
    # of them: refused by name, with no RuntimeWarning (the suite makes one
    # an error)
    with pytest.warns(UserWarning, match="transmit range"):  # r is not small against d
        sc = make_scenario(velocity=TWO_BAND_MIX, d=6e5, r=1.7e308, bit_rate=1_000.0)
    with pytest.raises(InvalidParameterError, match="^scenario out of range: trip throughputs overflow"):
        monte_carlo_throughput(sc, 30.0, trials, np.random.default_rng(0))


def test_monte_carlo_memory_does_not_grow_with_trials():
    # 10**7 trips of a traffic-free road, in chunks of CHUNK_VEHICLES trips:
    # one float per trip would take 80 MB
    sc = make_scenario(lam=0.0)
    tracemalloc.start()
    try:
        est = monte_carlo_throughput(sc, 20.0, 10_000_000, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (est.mean, est.std_error, est.trials) == (0.5, 0.0, 10_000_000)
    assert peak < 4e6


# TripResults recorded from the implementation that drew one trip per call,
# keyed by (scenario, observer, seed); two consecutive trips each.
def _trip(v, ti, per_class, n, info, total, thr, fwd, rev):
    return encounters.TripResult(v, ti, per_class, n, info, total, thr, fwd, rev)


PINNED_TRIPS = {
    ("twoclass", 20.0, 1): [
        _trip(20.0, 500.0, (0, 5), 5, 250.0, 2750.0, 5.5, 2500.0, 0.0),
        _trip(20.0, 500.0, (0, 4), 4, 250.0, 2250.0, 4.5, 2000.0, 0.0),
    ],
    ("twoclass", 25.0, 2): [
        _trip(25.0, 400.0, (5, 0), 5, 200.0, 2700.0, 6.75, 2500.0, 0.0),
        _trip(25.0, 400.0, (3, 0), 3, 200.0, 1700.0, 4.25, 1500.0, 0.0),
    ],
    ("reverse", 25.0, 3): [
        _trip(25.0, 400.0, (2, 0, 7), 9, 200.0, 1518.1818181818182, 3.7954545454545454,
              1000.0, 318.18181818181813),
        _trip(25.0, 400.0, (2, 0, 13), 15, 200.0, 1790.9090909090912, 4.477272727272728,
              1000.0, 590.9090909090909),
    ],
    # continuous traffic: recorded from the tilted crossing sampler
    ("mix", 30.0, 4): [
        _trip(30.0, 333.3333333333333, (), 24, 166.66666666666666, 2596.6580926719066,
              7.789974278015721, 1619.0552856339336, 810.9361403713061),
        _trip(30.0, 333.3333333333333, (), 23, 166.66666666666666, 3945.10532726115,
              11.83531598178345, 3033.466262149229, 744.9723984452547),
    ],
}


def test_simulate_trip_matches_pinned_results(twoclass, uniform2040):
    scenarios = {
        "twoclass": twoclass,
        "reverse": replace(twoclass, velocity=REVERSE_CLASS),
        "mix": replace(uniform2040, velocity=TWO_BAND_MIX),
    }
    for (name, observer, seed), expected in PINNED_TRIPS.items():
        rng = np.random.default_rng(seed)
        got = [simulate_trip(scenarios[name], observer, rng) for _ in expected]
        assert got == expected, (name, observer, seed)


# --- coupled download simulation ----------------------------------------------------


def test_download_decodes_in_first_segment_with_big_station_batch():
    sc = make_scenario(lam=0.0)
    file = FileSpec(4, 32)
    hits = 0
    trials = 200
    for seed in range(trials):
        t, packets, segments = simulate_download_time(
            sc, 20.0, file, UniformScheme(), np.random.default_rng(seed)
        )
        if segments == 1:
            hits += 1
            assert t == 0.0  # station batch sits at the segment entrance
    assert hits / trials >= span_probability(4, 250) - 0.05


def test_download_single_block_decodes_at_first_nonzero_packet():
    sc = make_scenario(lam=0.0)
    t, packets, segments = simulate_download_time(
        sc, 20.0, FileSpec(1, 8), UniformScheme(), np.random.default_rng(42)
    )
    assert segments == 1
    assert packets <= 12  # geometric with p=1/2; 12 misses has probability 2^-12


@pytest.mark.parametrize(
    "lam, velocity, observer",
    [
        (0.0, None, 20.0),  # no traffic, floor(packet_rate * r / v) = 0
        (0.1, None, 40.0),  # floor(10 / (2 * 15)) = 0 packets from the closest class
        (0.1, TWO_BAND_MIX, 46.0),  # the band's closest speed, 40: floor(10 / 12) = 0
        (0.1, TWO_BAND_MIX, 45.0),  # 10 / (2 * 5) = 1 only at 40, which is never drawn
        (0.1, ContinuousVelocityDist(((20.0, 30.0),)), 100.0),
    ],
)
def test_download_that_can_never_receive_a_packet_is_refused(lam, velocity, observer):
    sc = make_scenario(lam=lam, velocity=velocity, r=0.2)  # packet_rate * r = 10
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    run = encounters.simulate_download_times
    with pytest.raises(InvalidParameterError, match=f"^observer speed {observer!r} never receives"):
        run(sc, [observer], FileSpec(4, 8), UniformScheme(), rng)
    assert rng.bit_generator.state == state  # refused before any draw
    # an earlier trial that gets one station packet a segment runs first
    with pytest.raises(InvalidParameterError, match=f"^observer speed {observer!r}"):
        run(sc, [10.0, observer], FileSpec(1, 8), UniformScheme(), rng)


def test_an_observer_a_band_end_gives_just_over_one_packet_is_not_refused():
    # 10 / (2 * 4.99) > 1: partners drawn just below 40 give one packet each
    sc = make_scenario(velocity=TWO_BAND_MIX, r=0.2)
    assert encounters._refuse_packetless(sc, 44.99) is None


@pytest.mark.parametrize(
    "velocity, observer", [(None, 20.0), (TWO_BAND_MIX, 44.0), (TWO_BAND_MIX, 30.0)]
)
def test_download_with_only_encounter_packets_is_not_refused(velocity, observer):
    # no station packets; encounters with a class at 25 or speeds near 40 or
    # inside the band give one or more
    sc = make_scenario(velocity=velocity, r=0.2)
    got = encounters.simulate_download_times(
        sc, [observer], FileSpec(4, 8), UniformScheme(), np.random.default_rng(0)
    )
    assert got[0][1] >= 4


def test_download_short_of_supply_reports_the_rank_of_every_packet():
    # one station packet a segment: 1000 packets of a 2000-block file
    sc = make_scenario(lam=0.0, r=0.4)
    with pytest.raises(NoProgressError, match="decode rank 1000/2000 after 1000 segments"):
        simulate_download_time(
            sc, 20.0, FileSpec(2000, 8), UniformScheme(), np.random.default_rng(0)
        )


def test_download_deterministic_under_seed():
    sc = make_scenario(bit_rate=500.0)  # packet_rate 0.5: decode spans segments
    file = FileSpec(16, 16)
    a = simulate_download_time(sc, 20.0, file, UniformScheme(), np.random.default_rng(6))
    b = simulate_download_time(sc, 20.0, file, UniformScheme(), np.random.default_rng(6))
    assert a == b


def test_doubling_packet_rate_never_slows_download():
    # seed-coupled comparison: same arrivals, richer batches
    slow = make_scenario(bit_rate=500.0)  # packet_rate 0.5
    fast = replace(slow, bit_rate=1_000.0)
    file = FileSpec(64, 16)
    for seed in range(1_000):
        t_slow, _, _ = simulate_download_time(
            slow, 20.0, file, UniformScheme(), np.random.default_rng(seed)
        )
        t_fast, _, _ = simulate_download_time(
            fast, 20.0, file, UniformScheme(), np.random.default_rng(seed)
        )
        assert t_fast <= t_slow


def test_download_time_tracks_projection_over_many_segments():
    # When the decode spans several segments, the event-level mean approaches
    # packets_needed / mean throughput.
    sc = make_scenario(bit_rate=5_000.0)  # packet_rate 5
    file = FileSpec(1_000, 8)
    projection = expected_download_time(sc, file, 0.01, UniformScheme())
    rng = np.random.default_rng(99)
    times = []
    for i in range(20):
        observer = 20.0 if i % 2 == 0 else 25.0
        t, _, _ = simulate_download_time(sc, observer, file, UniformScheme(), rng)
        times.append(t)
    assert np.mean(times) == pytest.approx(projection, rel=0.15)


def reference_download(scenario, observer, file, scheme, rng):
    """Per-packet oracle: one vector draw, one encode and one int fold per packet."""
    ti = scenario.d / observer
    sample = vector_batch_sampler(scheme, file.k)
    arr_rng, vec_rng, file_rng = rng.spawn(3)
    blocks = [file_rng.bytes(file.block_bytes) for _ in range(file.k)]
    decoder = IntDecoder(file.k)
    draw = encounters._observer(scenario, observer).draw
    received = 0
    for segment in range(1000):
        station = math.floor(infostation_download(observer, scenario.packet_rate, scenario.r))
        crossers = draw(arr_rng, times=True)
        counts = np.floor(encounters._packets(crossers.gap, scenario.packet_rate, scenario.r))
        events = [(0.0, station)] + sorted(
            (float(t), int(c)) for t, c in zip(crossers.meet, counts) if c > 0
        )
        for offset, count in events:
            for _ in range(count):
                received += 1
                packed = sample(vec_rng, 1)  # a batch of one
                vector = EncodingVector(int.from_bytes(packed.tobytes(), "little"), file.k)
                decoder.receive(encode(blocks, vector))
                if decoder.rank == file.k:
                    assert decoder.try_decode() == blocks
                    return segment * ti + offset, received, segment + 1
    raise AssertionError("no decode")


@pytest.mark.parametrize("scheme", [UniformScheme(), LtScheme(SolitonParams(0.1, 0.5, 0.01))])
@pytest.mark.parametrize("bit_rate", [500.0, 50_000.0])
@pytest.mark.parametrize("k, l", [(1, 8), (7, 24), (40, 64), (100, 8)])
def test_download_matches_per_packet_oracle(k, l, bit_rate, scheme):
    # packet rate 0.5 gives batches of 2 and 5 packets over many segments;
    # packet rate 50 gives station batches of 200-250, encoded in pieces
    sc = make_scenario(bit_rate=bit_rate)
    file = FileSpec(k, l)
    for seed in range(4):
        observer = (20.0, 25.0)[seed % 2]
        got = simulate_download_time(sc, observer, file, scheme, np.random.default_rng(seed))
        expected = reference_download(sc, observer, file, scheme, np.random.default_rng(seed))
        assert got == expected, seed


def test_large_uniform_download_matches_per_packet_oracle():
    # packet rate 10: the first fold holds the packets of three segments
    sc = make_scenario(bit_rate=10_000.0)
    file = FileSpec(1024, 64)
    got = simulate_download_time(sc, 20.0, file, UniformScheme(), np.random.default_rng(0))
    assert got[2] == 3
    assert got == reference_download(sc, 20.0, file, UniformScheme(), np.random.default_rng(0))


def test_lt_download_with_a_long_tail_matches_per_packet_oracle(monkeypatch):
    # LT vectors leave the first k packets well short of full rank, so the
    # decode takes several rounds of k - rank + BATCH_MARGIN packets each
    folds = []
    fold = encounters.fold

    def counted(state, vectors, payloads, trials):
        folds.append((vectors.shape[1], state.rank))  # a download is a chunk of one trial
        return fold(state, vectors, payloads, trials)

    monkeypatch.setattr(encounters, "fold", counted)
    file = FileSpec(100, 64)
    scheme = LtScheme(SolitonParams(0.02, 0.9, 0.01))  # no spike: half the degrees are 2
    rounds = {}
    for bit_rate, seed, observer in ((250.0, 0, 20.0), (250.0, 1, 25.0), (50_000.0, 1, 25.0)):
        sc = make_scenario(bit_rate=bit_rate)
        folds.clear()
        got = simulate_download_time(sc, observer, file, scheme, np.random.default_rng(seed))
        assert folds[0] == (file.k + BATCH_MARGIN, 0), folds
        assert all(n == file.k - rank + BATCH_MARGIN for n, rank in folds), folds
        rounds[bit_rate, seed] = [n for n, _ in folds]
        if bit_rate == 250.0:
            expected = reference_download(sc, observer, file, scheme, np.random.default_rng(seed))
            assert got == expected, seed
    assert len(rounds[250.0, 1]) >= 5, rounds
    # the rounds depend on the vector stream alone, not on the packet rate
    assert rounds[250.0, 1] == rounds[50_000.0, 1]


@pytest.mark.parametrize("scheme", [UniformScheme(), LtScheme(SolitonParams(0.1, 0.5, 0.01))])
@pytest.mark.parametrize("k", [40, 256])
def test_packets_of_a_download_do_not_depend_on_traffic_or_observer(k, scheme):
    # The vector stream alone fixes N, the packet that completes the decode;
    # the stations and encounters only fix when packet N arrives.
    setups = [
        (make_scenario(), 20.0),
        (make_scenario(lam=0.3), 20.0),
        (make_scenario(bit_rate=5_000.0), 25.0),
        (make_scenario(lam=0.02, bit_rate=500.0), 25.0),
    ]
    file = FileSpec(k, 64)
    for seed in range(4):
        packets = {
            simulate_download_time(sc, v, file, scheme, np.random.default_rng(seed))[1]
            for sc, v in setups
        }
        assert len(packets) == 1, (seed, packets)


def test_download_file_is_one_draw_per_block(monkeypatch):
    seen = []
    real = encounters._draw_files

    def drawn(file, rngs):
        files = real(file, rngs)
        seen.append([row.tobytes() for row in files[0]])  # a download is a chunk of one trial
        return files

    monkeypatch.setattr(encounters, "_draw_files", drawn)
    for k, l in ((3, 8), (5, 24), (4, 40), (2, 64)):  # 1, 3, 5 and 8-byte blocks
        simulate_download_time(
            make_scenario(lam=0.0), 20.0, FileSpec(k, l), UniformScheme(), np.random.default_rng(k)
        )
        file_rng = np.random.default_rng(k).spawn(3)[2]
        assert seen[-1] == [file_rng.bytes(l // 8) for _ in range(k)]


def test_crossings_are_drawn_only_when_the_station_batch_falls_short(twoclass, monkeypatch):
    drawn = []
    draw = encounters._crossing_arrivals

    def counted(scenario, vi, *args):
        drawn.append(vi)
        return draw(scenario, vi, *args)

    monkeypatch.setattr(encounters, "_crossing_arrivals", counted)
    file = FileSpec(100, 64)  # station batches of 250 and 200 packets hold the decode
    rng = np.random.default_rng(0)
    got = encounters.simulate_download_times(twoclass, [20.0, 25.0] * 3, file, UniformScheme(), rng)
    assert [segments for _, _, segments in got] == [1] * 6 and drawn == []
    got = simulate_download_time(twoclass, 20.0, FileSpec(300, 64), UniformScheme(), rng)
    assert got[2] == 1 and drawn == [20.0]  # 250 station packets fall short of 300


def test_arrival_generators_are_built_only_at_a_first_crossing_draw(twoclass, monkeypatch):
    # Trial i owns the three children of the i-th rng.spawn(3): arrivals,
    # vectors, file. At K=100 the station batches of 250 and 200 packets
    # cover N, so no trial draws crossings or builds its arrival generator,
    # though each still spawns all three seeds. A trial that does draw
    # crossings draws what rng.spawn(3)[0] draws: the per-packet oracle
    # tests pin that (test_download_matches_per_packet_oracle,
    # test_large_uniform_download_matches_per_packet_oracle and
    # test_lt_download_with_a_long_tail_matches_per_packet_oracle).
    drawn, built = [], []
    draw, spawned = encounters._crossing_arrivals, encounters._spawned
    monkeypatch.setattr(
        encounters, "_crossing_arrivals", lambda sc, vi, *a: drawn.append(vi) or draw(sc, vi, *a)
    )
    monkeypatch.setattr(
        encounters, "_spawned", lambda rng, seed: built.append(seed.spawn_key[-1]) or spawned(rng, seed)
    )
    rng = np.random.default_rng(0)
    got = encounters.simulate_download_times(
        twoclass, [20.0, 25.0] * 3, FileSpec(100, 64), UniformScheme(), rng
    )
    assert [segments for _, _, segments in got] == [1] * 6 and drawn == []
    assert sorted(built) == [3 * i + j for i in range(6) for j in (1, 2)]  # vectors and file
    assert rng.bit_generator.seed_seq.n_children_spawned == 3 * 6
    built.clear()
    got = encounters.simulate_download_times(
        twoclass, [20.0, 25.0], FileSpec(300, 64), UniformScheme(), rng
    )
    # 250 and 200 station packets fall short of 300: each trial draws one
    # segment's crossings, from its own first child, built at that draw
    assert drawn == [20.0, 25.0] and [segments for _, _, segments in got] == [1, 1]
    assert sorted(built) == [18 + j for j in range(6)]
    assert rng.bit_generator.seed_seq.n_children_spawned == 3 * 8


def test_a_continuous_observer_computes_its_tilt_parts_once(uniform2040, monkeypatch):
    # once per distinct speed of a download chunk, however many segments
    # its trials traverse, and once per trip estimate
    computed = []
    real = encounters._tilt_parts
    monkeypatch.setattr(encounters, "_tilt_parts", lambda sc, vi: computed.append(vi) or real(sc, vi))
    sc = replace(uniform2040, bit_rate=500.0)  # station batches of 1-2 packets
    got = encounters.simulate_download_times(
        sc, [25.0, 35.0, 25.0, 35.0], FileSpec(256, 64), UniformScheme(), np.random.default_rng(0)
    )
    assert min(segments for _, _, segments in got) >= 3 and computed == [25.0, 35.0]
    monte_carlo_throughput(sc, 30.0, 5_000, np.random.default_rng(0))
    assert computed == [25.0, 35.0, 30.0]


def test_a_chunk_checks_each_distinct_observer_speed_once(twoclass, monkeypatch):
    checked = []
    real = encounters._refuse_packetless
    monkeypatch.setattr(
        encounters, "_refuse_packetless", lambda sc, vi: checked.append(vi) or real(sc, vi)
    )
    observers = [20.0, 25.0, 20.0, 25.0, 20.0]
    got = encounters.simulate_download_times(
        twoclass, observers, FileSpec(40, 64), UniformScheme(), np.random.default_rng(0)
    )
    assert checked == [20.0, 25.0] and len(got) == len(observers)


def _outcome(run):
    try:
        return run()
    except (InvalidParameterError, NoProgressError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "observers, k",
    [
        ([20.0, 20.0], 1200),
        ([20.0, 25.0, 20.0, 25.0], 1200),
        ([25.0, 20.0, 1e-300], 1200),
        ([20.0, -1.0, 25.0], 1200),
        ([1e-300, 25.0], 1200),
        ([25.0, 20.0], 2500),
    ],
)
def test_a_chunk_gives_what_its_trials_give_one_at_a_time(observers, k):
    # No traffic: an observer at 20 gets 2 station packets a segment, one at
    # 25 gets 1, so they give up at ranks 2000 and 1000. The chunk returns
    # the trials' results or raises the error of its first failing trial.
    sc = make_scenario(lam=0.0, r=0.9)
    file = FileSpec(k, 8)
    rng = np.random.default_rng(0)
    one_at_a_time = _outcome(
        lambda: [simulate_download_time(sc, v, file, UniformScheme(), rng) for v in observers]
    )
    chunk = _outcome(
        lambda: encounters.simulate_download_times(
            sc, observers, file, UniformScheme(), np.random.default_rng(0)
        )
    )
    assert chunk == one_at_a_time


def test_download_refuses_a_file_above_the_block_limit():
    sc = make_scenario()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    too_big = FileSpec(MAX_DOWNLOAD_BLOCKS + 1, 64)
    for scheme in (UniformScheme(), LtScheme(SolitonParams(0.1, 0.5, 0.01))):
        with pytest.raises(InvalidParameterError, match="download limit"):
            simulate_download_time(sc, 20.0, too_big, scheme, rng)
    assert rng.bit_generator.state == state  # refused before any draw


LT = LtScheme(SolitonParams(0.1, 0.5, 0.01))


def chunk_peak(twoclass, file: FileSpec, scheme, trials: int) -> int:
    """The tracemalloc peak of one chunk of ``trials`` downloads, observers alternating 20 and 25."""
    warm = FileSpec(8, 64)  # first-call allocations are not the chunk's
    observers = [(20.0, 25.0)[i % 2] for i in range(trials)]
    encounters.simulate_download_times(twoclass, [20.0], warm, scheme, np.random.default_rng(0))
    tracemalloc.start()
    try:
        encounters.simulate_download_times(twoclass, observers, file, scheme, np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize(
    "k, l, scheme",
    [
        (40, 64, UniformScheme()),
        (100, 64, UniformScheme()),
        (100, 64, LT),
        (500, 64, UniformScheme()),
        (1000, 64, UniformScheme()),
        (1000, 64, LT),
        (256, 8192, UniformScheme()),
        (1024, 8192, UniformScheme()),
    ],
)
def test_a_download_trial_peaks_within_the_bytes_its_chunk_assumes(twoclass, k, l, scheme):
    # A chunk of the rule's own trial count (223 at K=40, 102 at K=100, 6 at
    # K=500, one at K=1000 and with 1 KiB blocks from K=178; LT vectors fold
    # in many rounds) holds its trials' files, bases and fold rows, and its
    # kernel's scratch, fixed from SLICED_TRIALS trials on
    file = FileSpec(k, l)
    trials = encounters.download_chunk_trials(file)
    assert chunk_peak(twoclass, file, scheme, trials) <= encounters.download_chunk_bytes(file, trials)
    if trials > 1:
        assert encounters.download_chunk_bytes(file, trials) <= encounters.DOWNLOAD_CHUNK_BYTES


def test_a_100_trial_download_time_run_is_one_chunk():
    # the cli benchmark's download-time --K 100 --trials 100, with 8-byte blocks
    assert encounters.download_chunk_trials(FileSpec(100, 64)) >= 100
    assert encounters.DOWNLOAD_CHUNK_BYTES == 1 << 21


@pytest.mark.parametrize("scheme", [UniformScheme(), LT])
def test_a_chunk_of_twice_the_rule_s_trials_peaks_within_its_bytes(twoclass, scheme):
    # The kernel's scratch does not grow with a chunk's trials, so the
    # bound's fixed part still covers it at twice the trials (204 at K=100)
    file = FileSpec(100, 64)
    trials = 2 * encounters.download_chunk_trials(file)
    assert chunk_peak(twoclass, file, scheme, trials) <= encounters.download_chunk_bytes(file, trials)


@pytest.mark.parametrize("budget", [64, 3000])
@pytest.mark.parametrize("scheme", [UniformScheme(), LT])
def test_a_small_table_budget_gives_the_same_downloads(twoclass, monkeypatch, budget, scheme):
    # At 64 bytes every bounded loop runs many times: product parts, tables,
    # scatters and decode checks of one trial, lookups of 2 rows within a
    # trial's rows; at 3000 each range of tables holds 2 of the 11 trials,
    # the last padded to 2
    file, observers = FileSpec(40, 64), [(20.0, 25.0)[i % 2] for i in range(11)]
    want = encounters.simulate_download_times(twoclass, observers, file, scheme, np.random.default_rng(3))
    monkeypatch.setattr(fountain, "_TABLE_BYTES", budget)
    monkeypatch.setattr(encounters, "_TABLE_BYTES", budget)
    got = encounters.simulate_download_times(twoclass, observers, file, scheme, np.random.default_rng(3))
    assert got == want


def test_download_detects_a_wrong_decode(monkeypatch):
    # The decode is checked against the file on every trial: a decode that
    # returns one flipped byte must be caught.
    honest = encounters.decode

    def flip_one_byte(state, trials):
        decoded = honest(state, trials)
        decoded[:, 0, 0] ^= 0x01
        return decoded

    monkeypatch.setattr(encounters, "decode", flip_one_byte)
    sc = make_scenario(lam=0.0)
    with pytest.raises(InternalInconsistencyError):
        simulate_download_time(sc, 20.0, FileSpec(8, 64), UniformScheme(), np.random.default_rng(0))


@pytest.mark.parametrize(
    "j, raised",
    [(0, InternalInconsistencyError), (1, InternalInconsistencyError), (3, NoProgressError)],
)
def test_a_wrong_decode_fails_its_own_trial_only(j, raised, monkeypatch):
    # No traffic: observers at 20 decode K=8 from the first 16 of their 250
    # station packets, all in the first round; the one at 4000 gets one a
    # segment and gives up after MAX_SEGMENTS = 2. Only trial j's decode is
    # corrupted, so the chunk raises its error unless trial 2 fails before
    # it, as trials run one at a time would.
    decoded_trials = []
    honest = encounters.decode

    def corrupt_trial_j(state, trials):
        decoded = honest(state, trials)
        named = range(len(state.ranks)) if trials is None else trials.tolist()
        decoded_trials.extend(named)
        for blocks, t in zip(decoded, named):
            if t == j:
                blocks[0, 0] ^= 0x01
        return decoded

    monkeypatch.setattr(encounters, "decode", corrupt_trial_j)
    monkeypatch.setattr(encounters, "MAX_SEGMENTS", 2)
    with pytest.raises(raised):
        encounters.simulate_download_times(
            make_scenario(lam=0.0),
            [20.0, 20.0, 4000.0, 20.0],
            FileSpec(8, 64),
            UniformScheme(),
            np.random.default_rng(0),
        )
    assert sorted(decoded_trials) == [0, 1, 2, 3]  # every trial's decode is checked


# (t, packets, segments) for twoclass at bit_rate 5000 with FileSpec(256, 8192)
# and uniform vectors, keyed by (seed, observer speed); recorded from the
# implementation that XORed blocks as Python ints, one packet at a time.
PINNED_DOWNLOADS = {
    (0, 20.0): (832.9688751945787, 256, 2),
    (0, 25.0): (266.751674660811, 256, 1),
    (1, 20.0): (827.3051779270173, 259, 2),
    (1, 25.0): (250.67719123325946, 259, 1),
    (2, 20.0): (296.5391345319574, 261, 1),
    (2, 25.0): (290.02898911167176, 261, 1),
    (3, 20.0): (334.7067302656046, 257, 1),
    (3, 25.0): (374.7821576675824, 257, 1),
}


def test_download_matches_pinned_results(twoclass):
    sc = replace(twoclass, bit_rate=5_000.0)
    file = FileSpec(256, 8192)
    for (seed, observer), expected in PINNED_DOWNLOADS.items():
        got = simulate_download_time(
            sc, observer, file, UniformScheme(), np.random.default_rng(seed)
        )
        assert got == expected, (seed, observer)
