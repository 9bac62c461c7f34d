"""Closed-form expectations: encounter counts, packet totals, throughput.

All quantities are per-node over one segment traversal. Packet totals scale
with travel time; throughput (packets per second of travel) depends only on
segment geometry and the densities of the other traffic classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InternalInconsistencyError, InvalidParameterError
from .fountain import FileSpec, VectorScheme, packets_needed
from .traffic import (
    DiscreteVelocityDist,
    Scenario,
    class_quantities,
    mean_inverse_speed,
)

REL_TOL = 1e-12


def _discrete(scenario: Scenario) -> DiscreteVelocityDist:
    if not scenario.is_discrete:
        raise InvalidParameterError("this expectation needs a discrete distribution")
    return scenario.velocity


def expected_encounters(scenario: Scenario, i: int, m: int) -> float:
    """Mean number of class-m vehicles a class-i observer crosses: lam*p_m*|t_m - t_i|."""
    dist = _discrete(scenario)
    ti = scenario.d / dist.classes[i].v
    tm = scenario.d / dist.classes[m].v
    return scenario.lam * dist.classes[m].p * abs(tm - ti)


def expected_packets(scenario: Scenario, i: int) -> float:
    """Mean packets collected per traversal by a class-i observer.

    Station download plus the expected exchange total:
    packet_rate*r*t_i/d * (1 + lam/2 * sum_{m != i} p_m*|t_m|).
    """
    dist = _discrete(scenario)
    ti = scenario.d / dist.classes[i].v
    other = math.fsum(
        c.p * abs(scenario.d / c.v) for m, c in enumerate(dist.classes) if m != i
    )
    base = scenario.packet_rate * scenario.r * ti / scenario.d
    return base * (1.0 + 0.5 * scenario.lam * other)


def expected_throughput_class(scenario: Scenario, i: int) -> float:
    """Mean throughput of a class-i observer: packet_rate*r*(1/d + sum of other densities / 2)."""
    dist = _discrete(scenario)
    other = math.fsum(
        class_quantities(scenario, m).density
        for m in range(dist.m)
        if m != i
    )
    return scenario.packet_rate * scenario.r * (1.0 / scenario.d + 0.5 * other)


def rho_bar(scenario: Scenario) -> float:
    """Probability-weighted mean class density."""
    dist = _discrete(scenario)
    return math.fsum(
        c.p * class_quantities(scenario, m).density for m, c in enumerate(dist.classes)
    )


def expected_throughput_avg(scenario: Scenario) -> float:
    """Population-average throughput for a discrete velocity distribution.

    Evaluated two algebraically equal ways — via class densities and via the
    pairwise inverse-speed sum — and cross-checked to 1e-12 relative before
    returning; disagreement indicates an implementation bug.
    """
    dist = _discrete(scenario)
    rp_r = scenario.packet_rate * scenario.r
    densities = [class_quantities(scenario, m).density for m in range(dist.m)]
    via_density = rp_r * (
        1.0 / scenario.d - 0.5 * rho_bar(scenario) + 0.5 * math.fsum(densities)
    )
    pair_sum = math.fsum(
        dist.classes[i].p
        * dist.classes[j].p
        * (1.0 / abs(dist.classes[i].v) + 1.0 / abs(dist.classes[j].v))
        for i in range(dist.m)
        for j in range(i + 1, dist.m)
    )
    via_pairs = rp_r * (1.0 / scenario.d + 0.5 * scenario.lam * pair_sum)
    scale = max(abs(via_density), abs(via_pairs))
    if abs(via_density - via_pairs) > REL_TOL * scale:
        raise InternalInconsistencyError(
            f"average-throughput forms disagree: {via_density!r} vs {via_pairs!r}"
        )
    return via_density


def mean_cars_in_segment(scenario: Scenario) -> float:
    """Expected number of vehicles inside one segment at any instant."""
    if scenario.is_discrete:
        return scenario.lam * math.fsum(
            c.p * abs(scenario.d / c.v) for c in scenario.velocity.classes
        )
    return scenario.lam * scenario.d * mean_inverse_speed(scenario.velocity)


def expected_throughput_continuous(scenario: Scenario) -> float:
    """Observer-independent mean throughput for continuous traffic.

    packet_rate*r*(1/d + lam/2 * E[1/|V|]); c4 checks it against simulation.
    """
    if scenario.is_discrete:
        raise InvalidParameterError("this expectation needs a continuous distribution")
    inv = mean_inverse_speed(scenario.velocity)
    return scenario.packet_rate * scenario.r * (1.0 / scenario.d + 0.5 * scenario.lam * inv)


def expected_throughput(scenario: Scenario) -> float:
    """Population-average throughput for either distribution kind."""
    if scenario.is_discrete:
        return expected_throughput_avg(scenario)
    return expected_throughput_continuous(scenario)


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
    cars = mean_cars_in_segment(scenario)
    if not scenario.is_discrete:
        avg = expected_throughput_continuous(scenario)
        return AnalyticReport(
            per_class=(),
            average_throughput=avg,
            rho_bar=None,
            mean_cars=cars,
            system_throughput=avg * cars,
        )
    dist = scenario.velocity
    rows = []
    for i, cls in enumerate(dist.classes):
        enc = math.fsum(expected_encounters(scenario, i, m) for m in range(dist.m))
        rows.append(
            ClassExpectation(
                index=i,
                v=cls.v,
                p=cls.p,
                density=class_quantities(scenario, i).density,
                expected_encounters=enc,
                expected_packets=expected_packets(scenario, i),
                expected_throughput=expected_throughput_class(scenario, i),
            )
        )
    avg = expected_throughput_avg(scenario)
    return AnalyticReport(
        per_class=tuple(rows),
        average_throughput=avg,
        rho_bar=rho_bar(scenario),
        mean_cars=cars,
        system_throughput=avg * cars,
    )
