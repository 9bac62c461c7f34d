import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetsim import (
    ContinuousVelocityDist,
    DiscreteVelocityDist,
    Scenario,
    VelocityClass,
    analytic_report,
    mean_inverse_speed,
    scenario_from_dict,
)
from vanetsim.errors import InvalidParameterError, SchemaError

from oracles import generate_arrivals, sample_bands


def make_scenario(lam=0.1, velocity=None, **kw):
    velocity = velocity or DiscreteVelocityDist(
        (VelocityClass(20.0, 0.5), VelocityClass(25.0, 0.5))
    )
    defaults = dict(d=10_000.0, r=100.0, bit_rate=50_000.0, packet_bits=1_000.0)
    defaults.update(kw)
    return Scenario(lam=lam, velocity=velocity, **defaults)


# --- validation ---------------------------------------------------------------


def test_velocity_class_validation():
    with pytest.raises(InvalidParameterError):
        VelocityClass(0.0, 0.5)
    with pytest.raises(InvalidParameterError):
        VelocityClass(20.0, 1.5)
    # a speed whose 1/|v| overflows would break every closed form
    for v in (math.nan, math.inf, -math.inf, 1e-310, -4e-320, 5e-324):
        with pytest.raises(InvalidParameterError, match="finite reciprocal"):
            VelocityClass(v, 0.5)
    assert VelocityClass(-1e-300, 0.5).v == -1e-300


def test_discrete_dist_rejects_bad_probabilities():
    with pytest.raises(InvalidParameterError):
        DiscreteVelocityDist((VelocityClass(20.0, 0.5), VelocityClass(25.0, 0.4)))


def test_discrete_dist_rejects_duplicate_speeds():
    with pytest.raises(InvalidParameterError):
        DiscreteVelocityDist((VelocityClass(20.0, 0.5), VelocityClass(20.0, 0.5)))


def test_continuous_dist_rejects_support_through_zero():
    with pytest.raises(InvalidParameterError):
        ContinuousVelocityDist(((-5.0, 5.0),))


@pytest.mark.parametrize(
    "bands",
    [
        (),
        ((40.0, 20.0),),
        ((20.0, 20.0),),
        ((-math.inf, -20.0),),
        ((20.0, math.nan),),
        ((0.0, 20.0),),
        ((-20.0, -0.0),),
        ((20.0, 40.0), (-5.0, 5.0)),
        ((5e-324, 1e-323),),  # E[1/|V|] overflows
    ],
)
def test_band_dist_rejects_bad_bands(bands):
    with pytest.raises(InvalidParameterError):
        ContinuousVelocityDist(bands, (1.0,) * len(bands))


@pytest.mark.parametrize(
    "weights",
    [(0.5, 0.4), (1.2, -0.2), (math.nan, 1.0), (math.inf, -math.inf), (1.0,)],
)
def test_band_dist_rejects_bad_weights(weights):
    with pytest.raises(InvalidParameterError):
        ContinuousVelocityDist(((20.0, 40.0), (-40.0, -20.0)), weights)


def test_scenario_validation():
    with pytest.raises(InvalidParameterError):
        make_scenario(lam=-0.1)
    with pytest.raises(InvalidParameterError):
        make_scenario(d=0.0)
    with pytest.warns(UserWarning):
        make_scenario(r=2_000.0)


# --- arrivals -------------------------------------------------------------------


def test_zero_rate_generates_nothing():
    sc = make_scenario(lam=0.0)
    assert generate_arrivals(sc, (0.0, 1000.0), np.random.default_rng(0)) == []


def test_empty_window_generates_nothing():
    sc = make_scenario()
    assert generate_arrivals(sc, (10.0, 10.0), np.random.default_rng(0)) == []


def test_arrival_count_matches_poisson_moments():
    sc = make_scenario(lam=0.1)
    arrivals = generate_arrivals(sc, (0.0, 100_000.0), np.random.default_rng(3))
    assert abs(len(arrivals) - 10_000) <= 3 * math.sqrt(10_000)
    times = [a.entry_time for a in arrivals]
    assert times == sorted(times)


def test_arrivals_thin_by_class_probability():
    dist = DiscreteVelocityDist((VelocityClass(20.0, 0.3), VelocityClass(25.0, 0.7)))
    sc = make_scenario(lam=0.1, velocity=dist)
    arrivals = generate_arrivals(sc, (0.0, 100_000.0), np.random.default_rng(4))
    n = len(arrivals)
    n0 = sum(1 for a in arrivals if a.class_index == 0)
    se = math.sqrt(0.3 * 0.7 / n)
    assert abs(n0 / n - 0.3) <= 3 * se
    assert all((a.v == 20.0) == (a.class_index == 0) for a in arrivals)


def test_arrivals_deterministic_under_seed():
    sc = make_scenario()
    a = generate_arrivals(sc, (0.0, 5_000.0), np.random.default_rng(12))
    b = generate_arrivals(sc, (0.0, 5_000.0), np.random.default_rng(12))
    assert a == b


def test_per_class_dispersion_is_poisson():
    # variance/mean of per-window class counts stays near 1
    sc = make_scenario(lam=0.2)
    windows = 10_000
    width = 50.0
    arrivals = generate_arrivals(sc, (0.0, windows * width), np.random.default_rng(8))
    times = np.array([a.entry_time for a in arrivals])
    cls = np.array([a.class_index for a in arrivals])
    for c in (0, 1):
        counts = np.bincount(
            (times[cls == c] / width).astype(int), minlength=windows
        )
        ratio = counts.var(ddof=1) / counts.mean()
        assert 0.95 <= ratio <= 1.05


def test_stationary_car_count_matches_density():
    # time-average vehicles inside the segment per class ~= density * d
    sc = make_scenario(lam=0.1)
    horizon = 400_000.0
    rng = np.random.default_rng(15)
    arrivals = generate_arrivals(sc, (-600.0, horizon), rng)
    for c in (0, 1):
        dwell = abs(sc.d / sc.velocity.classes[c].v)
        times = np.array([a.entry_time for a in arrivals if a.class_index == c])
        inside = np.clip(
            np.minimum(times + dwell, horizon) - np.maximum(times, 0.0), 0.0, None
        )
        avg = inside.sum() / horizon
        expected = analytic_report(sc).per_class[c].density * sc.d
        assert avg == pytest.approx(expected, rel=0.02)


# --- mean inverse speed ----------------------------------------------------------------


def test_mean_inverse_speed_uniform_closed_form():
    dist = ContinuousVelocityDist(((20.0, 40.0),))
    assert mean_inverse_speed(dist) == pytest.approx(math.log(2) / 20.0, abs=1e-12)


def test_mean_inverse_speed_of_a_band_wider_than_any_speed_ratio():
    # hi/lo overflows a float, the log of it does not
    dist = ContinuousVelocityDist(((1e-300, 1e300),))
    assert mean_inverse_speed(dist) == pytest.approx(600 * math.log(10) / 1e300, rel=1e-14)


def test_mean_inverse_speed_narrow_support():
    dist = ContinuousVelocityDist(((30.0 - 1e-6, 30.0 + 1e-6),))
    assert mean_inverse_speed(dist) == pytest.approx(1.0 / 30.0, abs=1e-9)


@pytest.mark.parametrize("lo", [20.0, 1.4e10])
@pytest.mark.parametrize("width", [1e-15, 1e-9, 2**-10, 1e-3, 1.0])
def test_mean_inverse_speed_of_a_narrow_band_matches_mpmath(lo, width):
    # ln(hi/lo) of a rounded ratio hi/lo is off by up to half an ulp of 1
    import mpmath as mp

    hi = lo * (1 + width)
    with mp.workdps(40):
        exact = mp.log(mp.mpf(hi) / mp.mpf(lo)) / (mp.mpf(hi) - mp.mpf(lo))
    got = mean_inverse_speed(ContinuousVelocityDist(((lo, hi),)))
    assert got == pytest.approx(float(exact), rel=1e-13)


def test_mean_inverse_speed_reverse_support():
    dist = ContinuousVelocityDist(((-40.0, -20.0),))
    assert mean_inverse_speed(dist) == pytest.approx(math.log(2) / 20.0, abs=1e-12)


def test_mean_inverse_speed_of_bands_matches_quadrature():
    import mpmath as mp

    # a stepped density on [20, 50] with a reverse band, against mpmath's
    # quadrature of density/|v|
    bands = ((20.0, 30.0), (30.0, 35.0), (35.0, 50.0), (-45.0, -25.0))
    weights = (0.1, 0.4, 0.3, 0.2)
    dist = ContinuousVelocityDist(bands, weights)
    with mp.workdps(30):
        exact = mp.fsum(
            w / (b - a) * mp.quad(lambda v: 1 / abs(v), [a, b])
            for (a, b), w in zip(bands, weights)
        )
    assert mean_inverse_speed(dist) == pytest.approx(float(exact), rel=1e-14)


def test_zero_weight_bands_are_unreachable():
    dist = ContinuousVelocityDist(((1.0, 2.0), (20.0, 40.0)), (0.0, 1.0))
    assert mean_inverse_speed(dist) == mean_inverse_speed(
        ContinuousVelocityDist(((20.0, 40.0),))
    )


def test_mean_inverse_speed_mixture_is_direction_blind():
    for w in (0.2, 0.5, 0.9):
        mix = ContinuousVelocityDist(((20.0, 40.0), (-40.0, -20.0)), (w, 1.0 - w))
        assert mean_inverse_speed(mix) == pytest.approx(math.log(2) / 20.0, abs=1e-12)


# --- band sampling ---------------------------------------------------------------


def _former_sample(bands, weights, rng, n):
    """Draw order of the former single-uniform and mixture types, as an oracle:
    one band is one uniform draw; a mixture picks components, then draws
    from each component in order."""
    if len(bands) == 1:
        a, b = bands[0]
        return rng.uniform(a, b, n)
    cum = np.cumsum(weights)
    comp = np.searchsorted(cum, rng.random(n), side="right")
    comp = np.minimum(comp, len(bands) - 1)
    out = np.empty(n)
    for i, (a, b) in enumerate(bands):
        mask = comp == i
        out[mask] = rng.uniform(a, b, int(mask.sum()))
    return out


@pytest.mark.parametrize(
    "bands, weights",
    [
        (((20.0, 40.0),), (1.0,)),
        (((-40.0, -20.0),), (1.0,)),
        (((20.0, 40.0), (-40.0, -20.0)), (0.3, 0.7)),
        (((20.0, 25.0), (30.0, 45.0), (-35.0, -22.0)), (0.2, 0.5, 0.3)),
        (((20.0, 25.0), (30.0, 45.0), (-35.0, -22.0)), (0.6, 0.0, 0.4)),
        (((20.0, 25.0), (-35.0, -22.0)), (0.0, 1.0)),
    ],
)
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_band_sample_keeps_former_draw_order(bands, weights, n):
    dist = ContinuousVelocityDist(bands, weights)
    rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
    speeds = sample_bands(dist, rng, n)
    assert np.array_equal(speeds, _former_sample(bands, weights, oracle_rng, n))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_band_sample_never_draws_a_zero_weight_band():
    dist = ContinuousVelocityDist(
        ((20.0, 25.0), (30.0, 45.0), (-35.0, -22.0)), (0.6, 0.0, 0.4)
    )
    speeds = sample_bands(dist, np.random.default_rng(5), 10_000)
    assert not np.any((speeds >= 30.0) & (speeds <= 45.0))
    assert np.all(((speeds >= 20.0) & (speeds <= 25.0)) | ((speeds >= -35.0) & (speeds <= -22.0)))


class _FixedDraws:
    """A generator stand-in whose ``random(n)`` returns the given draws."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == len(self.u)
        return self.u


@pytest.mark.parametrize("m", [1, 2, 3, 64])
def test_class_sample_matches_searchsorted(m):
    # The in-place count gives the indices of searchsorted then minimum, also
    # for draws equal to a cumulative probability and for zero-probability
    # classes (repeated cumulative probabilities).
    rng = np.random.default_rng(m)
    p = rng.dirichlet(np.ones(m))
    p[1::7] = 0.0
    p /= p.sum()
    dist = DiscreteVelocityDist(tuple(VelocityClass(10.0 + i, float(q)) for i, q in enumerate(p)))
    cum = np.cumsum([c.p for c in dist.classes])
    ends = [0.0, np.nextafter(1.0, 0.0)]
    u = np.concatenate((rng.random(10_000), cum, np.nextafter(cum, 0.0), ends))
    u = u[u < 1.0]  # the range of Generator.random
    speeds, idx = dist.sample(_FixedDraws(u), len(u))
    expected = np.minimum(np.searchsorted(cum, u, side="right"), m - 1)
    assert np.array_equal(idx, expected)
    assert np.array_equal(speeds, dist.speeds[expected])


# --- scenario JSON schema ---------------------------------------------------------------


def test_fixture_files_parse(twoclass, uniform2040):
    assert twoclass.is_discrete
    assert twoclass.packet_rate == 50.0
    assert not uniform2040.is_discrete
    assert uniform2040.velocity.bands == ((20.0, 40.0),)
    assert uniform2040.velocity.weights == (1.0,)


def base_doc():
    return {
        "lambda": 0.1,
        "d": 10_000.0,
        "r": 100.0,
        "bit_rate": 50_000.0,
        "packet_bits": 1_000.0,
        "seed": 1,
        "velocity": {
            "type": "discrete",
            "classes": [{"v": 20.0, "p": 0.5}, {"v": 25.0, "p": 0.5}],
        },
    }


def test_schema_rejects_unknown_top_level_key():
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(SchemaError, match=r"\$\.extra"):
        scenario_from_dict(doc)


def test_schema_rejects_unknown_class_key():
    doc = base_doc()
    doc["velocity"]["classes"][0]["speed"] = 20.0
    with pytest.raises(SchemaError, match=r"velocity\.classes\[0\]\.speed"):
        scenario_from_dict(doc)


def test_schema_rejects_missing_key():
    doc = base_doc()
    del doc["bit_rate"]
    with pytest.raises(SchemaError, match=r"\$\.bit_rate"):
        scenario_from_dict(doc)


def test_schema_rejects_non_integer_seed():
    doc = base_doc()
    doc["seed"] = True
    with pytest.raises(SchemaError, match=r"\$\.seed"):
        scenario_from_dict(doc)


def test_schema_rejects_bad_probability_sum():
    doc = base_doc()
    doc["velocity"]["classes"][0]["p"] = 0.4
    with pytest.raises(SchemaError, match="classes"):
        scenario_from_dict(doc)


def test_schema_rejects_unsupported_family():
    doc = base_doc()
    doc["velocity"] = {
        "type": "continuous",
        "family": "gaussian",
        "a": 20.0,
        "b": 40.0,
        "direction_split": 1.0,
    }
    with pytest.raises(SchemaError, match="family"):
        scenario_from_dict(doc)


def test_schema_requires_direction_split():
    doc = base_doc()
    doc["velocity"] = {"type": "continuous", "family": "uniform", "a": 20.0, "b": 40.0}
    with pytest.raises(SchemaError, match="direction_split"):
        scenario_from_dict(doc)


def test_schema_builds_direction_mixture():
    doc = base_doc()
    doc["velocity"] = {
        "type": "continuous",
        "family": "uniform",
        "a": 20.0,
        "b": 40.0,
        "direction_split": 0.5,
    }
    sc = scenario_from_dict(doc)
    assert isinstance(sc.velocity, ContinuousVelocityDist)
    assert sc.velocity.bands == ((20.0, 40.0), (-40.0, -20.0))
    assert sc.velocity.weights == (0.5, 0.5)

    doc["velocity"]["direction_split"] = 0.0
    sc = scenario_from_dict(doc)
    assert sc.velocity.bands == ((-40.0, -20.0),)
    assert sc.velocity.weights == (1.0,)


def test_schema_round_trips_fixture(twoclass_path):
    doc = json.loads(twoclass_path.read_text())
    sc = scenario_from_dict(doc)
    assert sc.seed == 42
    assert [c.v for c in sc.velocity.classes] == [20.0, 25.0]


def test_schema_refuses_integers_past_any_float():
    doc = base_doc()
    doc["velocity"]["classes"][0]["v"] = 10**400
    with pytest.raises(SchemaError, match=r"classes\[0\]\.v"):
        scenario_from_dict(doc)


_ANY_NUMBER = st.one_of(
    st.floats(),  # nan, +-inf, +-0 and subnormals included
    st.integers(),
    st.sampled_from([0, -1, 10**400, -(10**400), 5e-324, 1.7976931348623157e308]),
)


@settings(max_examples=150, deadline=None)
@given(a=_ANY_NUMBER, b=_ANY_NUMBER, split=_ANY_NUMBER)
def test_continuous_schema_gives_scenario_or_schema_error(a, b, split):
    doc = base_doc()
    doc["velocity"] = {
        "type": "continuous",
        "family": "uniform",
        "a": a,
        "b": b,
        "direction_split": split,
    }
    try:
        sc = scenario_from_dict(doc)
    except SchemaError:
        return
    vel = sc.velocity
    inv = mean_inverse_speed(vel)
    assert math.isfinite(inv) and inv > 0
    speeds = sample_bands(vel, np.random.default_rng(3), 200)
    inside = np.zeros(speeds.shape, dtype=bool)
    for (lo, hi), w in zip(vel.bands, vel.weights):
        if w > 0:
            inside |= (speeds >= lo) & (speeds <= hi)
    assert inside.all()
