"""Closed-form expectations: encounter counts, packet totals, throughput.

All quantities are per-node over one segment traversal. Every throughput
follows one law, packet_rate*r*(1/d + met_density/2): the stations give
packet_rate*r/d packets per second, and traffic of density x met at
relative speed w gives x*w encounters per second of packet_rate*r/(2w)
packets each. An observer meets all traffic, of density lam*E[1/|V|],
except the vehicles at its own speed: a discrete class meets every other
class, the population average meets each class's met density weighted by
its probability, and continuous traffic meets all of lam*E[1/|V|]. Packet
totals are throughput times the travel time d/|v|.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from .errors import InternalInconsistencyError, InvalidParameterError
from .fountain import FileSpec, VectorScheme, packets_needed
from .pmf_opt import pair_law
from .traffic import DiscreteVelocityDist, Scenario, mean_inverse_speed

REL_TOL = 1e-12


def _discrete(scenario: Scenario) -> DiscreteVelocityDist:
    if not scenario.is_discrete:
        raise InvalidParameterError("this expectation needs a discrete distribution")
    return scenario.velocity


def _total(terms) -> float:
    """``math.fsum`` of nonnegative terms, or inf where finite terms sum past the largest float.

    ``math.fsum`` raises ``OverflowError`` there instead.
    """
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _throughput(scenario: Scenario, met_density: float) -> float:
    """Throughput of an observer meeting traffic of ``met_density`` vehicles per meter."""
    return scenario.packet_rate * scenario.r * (1.0 / scenario.d + 0.5 * met_density)


def _met_density(scenario: Scenario, i: int) -> float:
    """Density of the traffic a class-i observer meets, every other class: lam*sum p/|v|.

    lam multiplies the sum, so a subnormal lam*p does not underflow a class away.
    """
    classes = _discrete(scenario).classes
    return scenario.lam * _total(c.p / abs(c.v) for m, c in enumerate(classes) if m != i)


def expected_encounters(scenario: Scenario, i: int, m: int) -> float:
    """Mean number of class-m vehicles a class-i observer crosses: lam*p_m*|t_m - t_i|."""
    dist = _discrete(scenario)
    ti = scenario.d / dist.classes[i].v
    tm = scenario.d / dist.classes[m].v
    return scenario.lam * dist.classes[m].p * abs(tm - ti)


def expected_throughput_class(scenario: Scenario, i: int) -> float:
    """Mean throughput of a class-i observer, which meets every other class."""
    return _throughput(scenario, _met_density(scenario, i))


def expected_packets(scenario: Scenario, i: int) -> float:
    """Mean packets collected per traversal by a class-i observer.

    The class throughput times the travel time d/|v_i|: station download
    plus the expected exchange total.
    """
    v = _discrete(scenario).classes[i].v
    return expected_throughput_class(scenario, i) * (scenario.d / abs(v))


def expected_throughput(scenario: Scenario) -> float:
    """Population-average throughput for either distribution kind.

    The met density is lam*E[1/|V|] for continuous traffic. For discrete
    traffic, where an observer never meets its own class, it is each
    class's met density weighted by its probability, a sum of nonnegative
    terms that, unlike lam*E[1/|V|] - rho_bar, cannot cancel. It is
    cross-checked to 1e-12 relative against lam*J(p)/2, J the exchange
    objective that ``optimize-pmf`` maximises, from
    :func:`~vanetsim.pmf_opt.pair_law` without the optimizer's refusal of
    overflowing pair sums, which would refuse finite averages. Disagreement
    indicates an implementation bug. Classes of probability 0 weigh exactly
    nothing and are left out, so a met density that overflows there gives no
    ``0 * inf``.
    """
    if not scenario.is_discrete:
        return _throughput(scenario, scenario.lam * mean_inverse_speed(scenario.velocity))
    classes = scenario.velocity.classes
    met = _total(c.p * _met_density(scenario, i) for i, c in enumerate(classes) if c.p > 0)
    via_density = _throughput(scenario, met)
    _, j = pair_law([c.p for c in classes], [c.v for c in classes])
    via_law = _throughput(scenario, scenario.lam * (j / 2))
    if abs(via_density - via_law) > REL_TOL * max(abs(via_density), abs(via_law)):
        raise InternalInconsistencyError(
            f"average-throughput forms disagree: {via_density!r} vs {via_law!r}"
        )
    return via_density


def expected_throughput_continuous(scenario: Scenario) -> float:
    """:func:`expected_throughput` of continuous traffic, the same for every observer.

    packet_rate*r*(1/d + lam/2 * E[1/|V|]); c4 checks it against simulation.
    """
    if scenario.is_discrete:
        raise InvalidParameterError("this expectation needs a continuous distribution")
    return expected_throughput(scenario)


def mean_cars_in_segment(scenario: Scenario) -> float:
    """Expected number of vehicles inside one segment at any instant: lam*d*E[1/|V|]."""
    return scenario.lam * scenario.d * mean_inverse_speed(scenario.velocity)


def expected_download_time(
    scenario: Scenario, file: FileSpec, epsilon: float, scheme: VectorScheme
) -> float:
    """Packets needed for a confident decode divided by the mean throughput.

    This is a smooth-rate projection: it spreads packets evenly over the
    journey. It approximates the mean of the event-level
    :func:`~vanetsim.encounters.simulate_download_time` only when the
    packets needed well exceed one segment's supply. When the station batch
    of floor(packet_rate*r/v) packets covers the packets needed, the
    event-level download ends at the segment entrance.
    """
    throughput = expected_throughput(scenario)
    if not math.isfinite(throughput):
        raise InvalidParameterError(
            f"scenario out of range: its mean throughput {throughput!r} packets/s "
            "overflows, so no download time can be projected"
        )
    if not throughput > 0:
        raise InvalidParameterError(
            f"scenario out of range: its mean throughput {throughput!r} packets/s "
            "underflows, so no download time can be projected"
        )
    return packets_needed(file.k, epsilon, scheme) / throughput


@dataclass(frozen=True)
class ClassExpectation:
    """Closed forms of one velocity class; its fields are the ``analyze`` report's row keys."""

    index: int
    v: float
    p: float
    density: float
    expected_encounters: float
    expected_packets: float
    expected_throughput: float


@dataclass(frozen=True)
class AnalyticReport:
    """Closed-form summary of a scenario.

    ``per_class`` is empty and ``rho_bar`` is None for continuous
    distributions. ``system_throughput`` is the population aggregate
    average throughput times mean car count.
    """

    per_class: tuple[ClassExpectation, ...]
    average_throughput: float
    rho_bar: float | None
    mean_cars: float
    system_throughput: float


def analytic_report(scenario: Scenario) -> AnalyticReport:
    rows, rho = (), None
    if scenario.is_discrete:
        classes = scenario.velocity.classes
        densities = [scenario.lam * c.p / abs(c.v) for c in classes]  # vehicles per meter
        rows = tuple(
            ClassExpectation(
                index=i,
                v=cls.v,
                p=cls.p,
                density=densities[i],
                expected_encounters=_total(
                    expected_encounters(scenario, i, m) for m in range(scenario.velocity.m)
                ),
                expected_packets=expected_packets(scenario, i),
                expected_throughput=expected_throughput_class(scenario, i),
            )
            for i, cls in enumerate(classes)
        )
        rho = _total(c.p * x for c, x in zip(classes, densities))  # mean class density
    avg = expected_throughput(scenario)
    cars = mean_cars_in_segment(scenario)
    values = (avg, cars, avg * cars, *(x for row in rows for x in astuple(row)))
    if not all(map(math.isfinite, values)):
        raise InvalidParameterError(
            "scenario out of range: a closed-form value of its report overflows"
        )
    return AnalyticReport(
        per_class=rows,
        average_throughput=avg,
        rho_bar=rho,
        mean_cars=cars,
        system_throughput=avg * cars,
    )
