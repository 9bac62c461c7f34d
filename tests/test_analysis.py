import math
from dataclasses import replace

import numpy as np
import pytest

from vanetsim import (
    ContinuousVelocityDist,
    DiscreteVelocityDist,
    FileSpec,
    Scenario,
    UniformScheme,
    VelocityClass,
    analytic_report,
    expected_download_time,
    expected_encounters,
    expected_packets,
    expected_throughput,
    expected_throughput_class,
    expected_throughput_continuous,
    mean_cars_in_segment,
    monte_carlo_throughput,
    optimize_pmf,
    packets_needed,
)
from vanetsim.errors import InvalidParameterError

from oracles import objective


def make_scenario(lam=0.1, velocity=None, **kw):
    velocity = velocity or DiscreteVelocityDist(
        (VelocityClass(20.0, 0.5), VelocityClass(25.0, 0.5))
    )
    defaults = dict(d=10_000.0, r=100.0, bit_rate=50_000.0, packet_bits=1_000.0)
    defaults.update(kw)
    return Scenario(lam=lam, velocity=velocity, **defaults)


def random_discrete_scenario(rng, m=None, equiprobable=False, allow_reverse=True):
    m = int(m if m is not None else rng.integers(2, 7))
    while True:
        speeds = rng.uniform(5.0, 60.0, m)
        if allow_reverse:
            speeds = speeds * rng.choice([-1.0, 1.0], m)
        if len(set(np.round(speeds, 9))) == m:
            break
    if equiprobable:
        probs = np.full(m, 1.0 / m)
    else:
        probs = rng.dirichlet(np.ones(m))
    probs = probs / probs.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    classes = tuple(VelocityClass(float(v), float(p)) for v, p in zip(speeds, probs))
    return make_scenario(
        lam=float(rng.uniform(0.01, 0.4)),
        velocity=DiscreteVelocityDist(classes),
        d=float(rng.uniform(2_000.0, 30_000.0)),
        r=float(rng.uniform(10.0, 150.0)),
    )


# --- encounter counts ------------------------------------------------------


def test_expected_encounters_forward_pair():
    sc = make_scenario()
    assert expected_encounters(sc, 1, 0) == 5.0  # 0.1 * 0.5 * |500 - 400|


def test_expected_encounters_same_class_is_zero():
    sc = make_scenario()
    assert expected_encounters(sc, 0, 0) == 0.0
    assert expected_encounters(sc, 1, 1) == 0.0


def test_expected_encounters_reverse_class():
    dist = DiscreteVelocityDist((VelocityClass(25.0, 0.5), VelocityClass(-20.0, 0.5)))
    sc = make_scenario(velocity=dist)
    assert expected_encounters(sc, 0, 1) == pytest.approx(45.0, abs=1e-12)


# --- packet totals -----------------------------------------------------------


def test_expected_packets_values():
    sc = make_scenario()
    assert expected_packets(sc, 0) == pytest.approx(2750.0, rel=1e-12)
    assert expected_packets(sc, 1) == pytest.approx(2700.0, rel=1e-12)


def test_expected_packets_without_traffic():
    sc = make_scenario(lam=0.0)
    assert expected_packets(sc, 0) == pytest.approx(250.0, rel=1e-12)


# --- per-class throughput ------------------------------------------------------


def test_expected_throughput_class_values():
    sc = make_scenario()
    assert expected_throughput_class(sc, 0) == pytest.approx(5.5, rel=1e-12)
    assert expected_throughput_class(sc, 1) == pytest.approx(6.75, rel=1e-12)


def test_expected_throughput_single_class():
    sc = make_scenario(velocity=DiscreteVelocityDist((VelocityClass(25.0, 1.0),)))
    assert expected_throughput_class(sc, 0) == pytest.approx(0.5, rel=1e-12)
    assert expected_throughput(sc) == pytest.approx(0.5, rel=1e-12)


def test_throughput_times_travel_time_equals_packets():
    rng = np.random.default_rng(3)
    for _ in range(200):
        sc = random_discrete_scenario(rng)
        for i, cls in enumerate(sc.velocity.classes):
            ti = sc.d / abs(cls.v)  # reverse classes travel as long as forward ones
            lhs = expected_throughput_class(sc, i) * ti
            assert lhs == pytest.approx(expected_packets(sc, i), rel=1e-12)
            assert expected_packets(sc, i) >= 0


def test_low_density_gain():
    rng = np.random.default_rng(5)
    for _ in range(100):
        sc = random_discrete_scenario(rng)
        rows = [
            (row.density, row.expected_throughput) for row in analytic_report(sc).per_class
        ]
        for rho_i, c_i in rows:
            for rho_j, c_j in rows:
                if rho_i < rho_j - 1e-15:
                    assert c_i > c_j


def test_high_speed_gain_for_equiprobable_classes():
    rng = np.random.default_rng(6)
    for _ in range(100):
        sc = random_discrete_scenario(rng, equiprobable=True)
        rows = sorted(
            (abs(c.v), expected_throughput_class(sc, i))
            for i, c in enumerate(sc.velocity.classes)
        )
        speeds = [s for s, _ in rows]
        values = [v for _, v in rows]
        for a, b in zip(values, values[1:]):
            assert a < b or math.isclose(a, b)  # ties only for equal |v|
        assert all(s1 < s2 or math.isclose(s1, s2) for s1, s2 in zip(speeds, speeds[1:]))


# --- population average ------------------------------------------------------------


def test_expected_throughput_value():
    sc = make_scenario()
    assert expected_throughput(sc) == pytest.approx(6.125, rel=1e-12)


def test_average_is_probability_weighted_mean():
    rng = np.random.default_rng(8)
    for _ in range(100):
        sc = random_discrete_scenario(rng)
        weighted = math.fsum(
            c.p * expected_throughput_class(sc, i)
            for i, c in enumerate(sc.velocity.classes)
        )
        assert expected_throughput(sc) == pytest.approx(weighted, rel=1e-12)


def test_doubling_speeds_halves_exchange_throughput_exactly():
    sc = make_scenario()
    doubled = replace(
        sc,
        velocity=DiscreteVelocityDist(
            tuple(VelocityClass(c.v * 2.0, c.p) for c in sc.velocity.classes)
        ),
    )
    base = sc.packet_rate * sc.r / sc.d
    assert expected_throughput(doubled) - base == 0.5 * (
        expected_throughput(sc) - base
    )


def test_throughput_is_affine_in_arrival_rate():
    # affine to the last couple of ulps; the decimal parameters are not
    # exactly representable, so bitwise equality of the differences is not
    sc = make_scenario()
    e0 = expected_throughput(replace(sc, lam=0.0))
    e1 = expected_throughput(sc)
    e2 = expected_throughput(replace(sc, lam=2 * sc.lam))
    assert e2 - e1 == pytest.approx(e1 - e0, rel=1e-12)
    rng = np.random.default_rng(9)
    for _ in range(50):
        rsc = random_discrete_scenario(rng)
        g0 = expected_throughput(replace(rsc, lam=0.0))
        g1 = expected_throughput(rsc)
        g2 = expected_throughput(replace(rsc, lam=2 * rsc.lam))
        assert (g2 - g1) == pytest.approx(g1 - g0, rel=1e-10)


@pytest.mark.parametrize(
    "classes",
    [
        [(1e-300, 1.0)],  # lam*E[1/|V|] - rho_bar read -4.6e286, not 0.5
        [(1e-200, 0.999999), (20.0, 0.000001)],  # it was 7e-11 off, relative
    ],
)
def test_average_of_a_dominant_slow_class_does_not_cancel(classes):
    sc = make_scenario(velocity=DiscreteVelocityDist(tuple(VelocityClass(*c) for c in classes)))
    weighted = math.fsum(
        c.p * expected_throughput_class(sc, i) for i, c in enumerate(sc.velocity.classes)
    )
    assert expected_throughput(sc) == pytest.approx(weighted, rel=1e-12)
    if len(classes) == 1:  # the lone class meets no traffic: the stations alone
        assert expected_throughput(sc) == 0.5


# --- the average, the optimizer's objective and the simulation agree --------------


def with_classes(sc, speeds, probs):
    classes = tuple(VelocityClass(float(v), float(p)) for v, p in zip(speeds, probs))
    return replace(sc, velocity=DiscreteVelocityDist(classes))


def test_average_throughput_is_the_optimizer_objective():
    # rho*r/d + lam*rho*r*J(p)/4, J(p) the exchange objective optimize-pmf maximises
    rng = np.random.default_rng(21)
    for _ in range(200):
        sc = random_discrete_scenario(rng)
        classes = sc.velocity.classes
        j = objective([c.p for c in classes], [c.v for c in classes])
        law = sc.packet_rate * sc.r / sc.d + sc.lam * sc.packet_rate * sc.r * j / 4
        assert expected_throughput(sc) == pytest.approx(law, rel=1e-12)


def test_optimal_mix_maximises_the_average_throughput():
    rng = np.random.default_rng(22)
    for _ in range(5):
        sc = random_discrete_scenario(rng)
        speeds = [c.v for c in sc.velocity.classes]
        best = expected_throughput(with_classes(sc, speeds, optimize_pmf(speeds).p))
        mixes = rng.dirichlet(np.ones(len(speeds)), size=1_000)
        rival = max(expected_throughput(with_classes(sc, speeds, q)) for q in mixes)
        assert best >= rival * (1 - 1e-12)


@pytest.mark.parametrize(
    "classes,seed",
    [
        (None, 2101),  # the twoclass fixture
        (((20.0, 0.3), (-25.0, 0.5), (30.0, 0.2)), 2102),
    ],
)
def test_weighted_class_simulations_match_the_average(twoclass, classes, seed):
    # an observer of a reverse class meets the mirror image of the traffic
    # as a forward observer at |v| would
    sc = twoclass if classes is None else with_classes(twoclass, *zip(*classes))
    rng = np.random.default_rng(seed)
    mean, var = 0.0, 0.0
    for c in sc.velocity.classes:
        seen = sc if c.v > 0 else with_classes(
            sc, [-k.v for k in sc.velocity.classes], [k.p for k in sc.velocity.classes]
        )
        est = monte_carlo_throughput(seen, abs(c.v), 20_000, rng)
        mean += c.p * est.mean
        var += (c.p * est.std_error) ** 2
    assert abs(mean - expected_throughput(sc)) <= 4 * math.sqrt(var)


# --- continuous distribution ----------------------------------------------------------


def test_continuous_throughput_closed_form(uniform2040):
    target = 5000.0 * (1e-4 + 0.05 * math.log(2.0) / 20.0)
    assert expected_throughput_continuous(uniform2040) == pytest.approx(
        target, abs=1e-9
    )


def test_continuous_throughput_without_traffic(uniform2040):
    sc = replace(uniform2040, lam=0.0)
    assert expected_throughput_continuous(sc) == pytest.approx(0.5, rel=1e-12)


def test_continuous_throughput_ignores_direction_split(uniform2040):
    expected = expected_throughput_continuous(uniform2040)
    for w in (0.0, 0.3, 0.7):
        mix = ContinuousVelocityDist(((20.0, 40.0), (-40.0, -20.0)), (w, 1.0 - w))
        sc = replace(uniform2040, velocity=mix)
        assert expected_throughput_continuous(sc) == pytest.approx(expected, rel=1e-12)


def test_discrete_approximation_converges_to_continuous(uniform2040):
    target = expected_throughput_continuous(uniform2040)
    m = 1000
    edges = np.linspace(20.0, 40.0, m + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    probs = np.full(m, 1.0 / m)
    probs[-1] = 1.0 - probs[:-1].sum()
    classes = tuple(VelocityClass(float(v), float(p)) for v, p in zip(mids, probs))
    sc = replace(uniform2040, velocity=DiscreteVelocityDist(classes))
    gap = abs(expected_throughput(sc) - target) / target
    assert gap < 1e-3


def test_mean_cars_in_segment(uniform2040):
    sc = make_scenario()
    assert mean_cars_in_segment(sc) == pytest.approx(0.1 * (0.5 * 500 + 0.5 * 400))
    assert mean_cars_in_segment(uniform2040) == pytest.approx(
        0.1 * 10_000.0 * math.log(2.0) / 20.0, rel=1e-12
    )


# --- download projection ------------------------------------------------------------------


def test_expected_download_time_value():
    sc = make_scenario()
    t = expected_download_time(sc, FileSpec(100, 8), 0.01, UniformScheme())
    assert t == pytest.approx(107.0 / 6.125, rel=1e-12)


def test_expected_download_time_trivial_composition():
    sc = make_scenario(lam=0.0)
    needed = packets_needed(1, 0.25, UniformScheme())
    t = expected_download_time(sc, FileSpec(1, 8), 0.25, UniformScheme())
    assert t == pytest.approx(needed * sc.d / (sc.packet_rate * sc.r), rel=1e-12)


def test_expected_download_time_refuses_a_throughput_that_underflows():
    with pytest.raises(InvalidParameterError, match="mean throughput 0.0 packets/s underflows"):
        expected_download_time(make_scenario(r=5e-324), FileSpec(8, 8), 0.01, UniformScheme())


# --- report assembly ------------------------------------------------------------------------


def test_analytic_report_discrete(twoclass):
    report = analytic_report(twoclass)
    assert len(report.per_class) == 2
    assert report.average_throughput == pytest.approx(6.125, rel=1e-12)
    assert report.rho_bar == pytest.approx(0.00225, rel=1e-12)
    assert report.per_class[0].expected_throughput == pytest.approx(5.5, rel=1e-12)
    assert report.per_class[0].expected_encounters == pytest.approx(5.0, rel=1e-12)
    assert report.system_throughput == pytest.approx(
        report.average_throughput * report.mean_cars, rel=1e-12
    )
    reverse = DiscreteVelocityDist((VelocityClass(20.0, 0.5), VelocityClass(-25.0, 0.5)))
    for sc in (twoclass, replace(twoclass, velocity=reverse)):
        for row in analytic_report(sc).per_class:
            for value in (
                row.density,
                row.expected_encounters,
                row.expected_packets,
                row.expected_throughput,
            ):
                assert math.isfinite(value) and value >= 0


def test_class_density_values():
    sc = make_scenario()
    assert analytic_report(sc).per_class[0].density == pytest.approx(0.0025, abs=0)


def test_class_density_reverse_class():
    dist = DiscreteVelocityDist((VelocityClass(-20.0, 0.5), VelocityClass(25.0, 0.5)))
    sc = make_scenario(velocity=dist)
    assert analytic_report(sc).per_class[0].density == pytest.approx(0.0025, abs=0)


def test_class_density_empty_class():
    dist = DiscreteVelocityDist((VelocityClass(20.0, 0.0), VelocityClass(25.0, 1.0)))
    sc = make_scenario(velocity=dist)
    assert analytic_report(sc).per_class[0].density == 0.0


def test_analytic_report_continuous(uniform2040):
    report = analytic_report(uniform2040)
    assert report.per_class == ()
    assert report.rho_bar is None
    assert report.average_throughput == pytest.approx(9.164339757, abs=1e-6)
    assert report.mean_cars == pytest.approx(34.657359, abs=1e-4)


def test_discrete_expectations_reject_continuous(uniform2040):
    with pytest.raises(InvalidParameterError):
        expected_encounters(uniform2040, 0, 1)


def test_continuous_expectation_rejects_discrete(twoclass):
    with pytest.raises(InvalidParameterError):
        expected_throughput_continuous(twoclass)
