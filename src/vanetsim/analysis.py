"""Closed-form expectations: encounter counts, packet totals, throughput.

All quantities are per-node over one segment traversal. Every throughput
follows one law, packet_rate*r*(1/d + met_density/2): the stations give
packet_rate*r/d packets per second, and traffic of density x met at
relative speed w gives x*w encounters per second of packet_rate*r/(2w)
packets each. An observer meets all traffic, of density lam*E[1/|V|],
except the vehicles at its own speed: a discrete class meets every other
class, the population average meets lam*E[1/|V|] - rho_bar, and continuous
traffic meets all of lam*E[1/|V|]. Packet totals are throughput times the
travel time d/|v|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalInconsistencyError, InvalidParameterError
from .fountain import FileSpec, VectorScheme, packets_needed
from .traffic import DiscreteVelocityDist, Scenario, mean_inverse_speed

REL_TOL = 1e-12


def _discrete(scenario: Scenario) -> DiscreteVelocityDist:
    if not scenario.is_discrete:
        raise InvalidParameterError("this expectation needs a discrete distribution")
    return scenario.velocity


def _throughput(scenario: Scenario, met_density: float) -> float:
    """Throughput of an observer meeting traffic of ``met_density`` vehicles per meter."""
    return scenario.packet_rate * scenario.r * (1.0 / scenario.d + 0.5 * met_density)


def _densities(scenario: Scenario) -> list[float]:
    """Highway density lam*p/|v| of each class, in vehicles per meter."""
    return [scenario.lam * c.p / abs(c.v) for c in _discrete(scenario).classes]


def expected_encounters(scenario: Scenario, i: int, m: int) -> float:
    """Mean number of class-m vehicles a class-i observer crosses: lam*p_m*|t_m - t_i|."""
    dist = _discrete(scenario)
    ti = scenario.d / dist.classes[i].v
    tm = scenario.d / dist.classes[m].v
    return scenario.lam * dist.classes[m].p * abs(tm - ti)


def expected_throughput_class(scenario: Scenario, i: int) -> float:
    """Mean throughput of a class-i observer, which meets every other class."""
    met = math.fsum(x for m, x in enumerate(_densities(scenario)) if m != i)
    return _throughput(scenario, met)


def expected_packets(scenario: Scenario, i: int) -> float:
    """Mean packets collected per traversal by a class-i observer.

    The class throughput times the travel time d/|v_i|: station download
    plus the expected exchange total.
    """
    v = _discrete(scenario).classes[i].v
    return expected_throughput_class(scenario, i) * (scenario.d / abs(v))


def rho_bar(scenario: Scenario) -> float:
    """Probability-weighted mean class density."""
    dist = _discrete(scenario)
    return math.fsum(c.p * x for c, x in zip(dist.classes, _densities(scenario)))


def expected_throughput(scenario: Scenario) -> float:
    """Population-average throughput for either distribution kind.

    The met density is lam*E[1/|V|], less rho_bar for discrete traffic,
    where an observer never meets its own class. The discrete value is
    cross-checked to 1e-12 relative against the pairwise inverse-speed sum
    lam * sum_{i<j} p_i p_j (1/|v_i| + 1/|v_j|) before it is returned;
    disagreement indicates an implementation bug.
    """
    met = scenario.lam * mean_inverse_speed(scenario.velocity)
    if not scenario.is_discrete:
        return _throughput(scenario, met)
    dist = scenario.velocity
    via_density = _throughput(scenario, met - rho_bar(scenario))
    pair_sum = math.fsum(
        dist.classes[i].p
        * dist.classes[j].p
        * (1.0 / abs(dist.classes[i].v) + 1.0 / abs(dist.classes[j].v))
        for i in range(dist.m)
        for j in range(i + 1, dist.m)
    )
    via_pairs = _throughput(scenario, scenario.lam * pair_sum)
    scale = max(abs(via_density), abs(via_pairs))
    if abs(via_density - via_pairs) > REL_TOL * scale:
        raise InternalInconsistencyError(
            f"average-throughput forms disagree: {via_density!r} vs {via_pairs!r}"
        )
    return via_density


def expected_throughput_avg(scenario: Scenario) -> float:
    """:func:`expected_throughput` of a discrete velocity distribution."""
    _discrete(scenario)
    return expected_throughput(scenario)


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
    return packets_needed(file.k, epsilon, scheme) / expected_throughput(scenario)


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
        densities = _densities(scenario)
        rows = tuple(
            ClassExpectation(
                index=i,
                v=cls.v,
                p=cls.p,
                density=densities[i],
                expected_encounters=math.fsum(
                    expected_encounters(scenario, i, m) for m in range(scenario.velocity.m)
                ),
                expected_packets=expected_packets(scenario, i),
                expected_throughput=expected_throughput_class(scenario, i),
            )
            for i, cls in enumerate(scenario.velocity.classes)
        )
        rho = rho_bar(scenario)
    avg = expected_throughput(scenario)
    cars = mean_cars_in_segment(scenario)
    return AnalyticReport(
        per_class=rows,
        average_throughput=avg,
        rho_bar=rho,
        mean_cars=cars,
        system_throughput=avg * cars,
    )
