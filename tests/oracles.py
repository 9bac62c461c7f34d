"""Per-arrival reference implementations that the vectorized code is tested against.

``generate_arrivals`` draws Poisson arrivals on a window as records, and
``encounter_of`` decides one arrival's crossing with the observer from its
entry time and gives the meeting time. The library draws and thins
arrivals in whole arrays instead; these loops state the same model one
vehicle at a time. ``reduced_rows`` reads a decoder's basis in fully
reduced form, for comparison with a reference decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArrivalRecord:
    """One vehicle entering the segment.

    Forward traffic (v > 0) enters at position 0, reverse traffic (v < 0)
    at position d. ``class_index`` is None for continuous distributions.
    """

    entry_time: float
    v: float
    class_index: int | None = None


@dataclass(frozen=True)
class EncounterEvent:
    partner_velocity: float
    meeting_time: float
    connection_time: float
    packets_received: float


def generate_arrivals(scenario, window, rng: np.random.Generator) -> list[ArrivalRecord]:
    """Homogeneous Poisson arrivals on the window, sorted by entry time."""
    t0, t1 = window
    if t1 <= t0:
        return []
    n = rng.poisson(scenario.lam * (t1 - t0))
    times = np.sort(rng.uniform(t0, t1, n))
    speeds, idx = scenario.velocity.sample(rng, n)
    if idx is None:
        return [ArrivalRecord(float(t), float(v)) for t, v in zip(times, speeds)]
    return [
        ArrivalRecord(float(t), float(v), int(i))
        for t, v, i in zip(times, speeds, idx)
    ]


def encounter_of(
    observer_velocity: float,
    arrival: ArrivalRecord,
    d: float,
    r: float,
    packet_rate: float,
) -> EncounterEvent | None:
    """Test whether one background arrival meets the observer.

    The observer enters at time 0 and position 0 moving forward at
    ``observer_velocity`` > 0. Returns the populated event, or None when the
    trajectories do not cross inside the segment. Same-velocity pairs never
    meet.
    """
    vi = float(observer_velocity)
    vp = arrival.v
    t = arrival.entry_time
    ti = d / vi
    if vp > 0:
        if vp == vi:
            return None
        diff = ti - d / vp
        lo, hi = min(0.0, diff), max(0.0, diff)
        if not lo < t < hi:
            return None
        meet = vp * t / (vp - vi)
    else:
        if not -d / abs(vp) < t < ti:
            return None
        meet = (d - vp * t) / (vi - vp)
    rel = abs(vi - vp)
    return EncounterEvent(
        partner_velocity=vp,
        meeting_time=meet,
        connection_time=r / rel,
        packets_received=packet_rate * r / (2.0 * rel),
    )


def reduced_rows(state) -> list[tuple[int, int, int]]:
    """Fully reduced (pivot, vector bits, payload bits) of a ``DecoderState``.

    Every vector has a 1 at its own pivot and 0 at every other pivot; the
    payload (big-endian bits) is the same combination of packets.
    """
    k = state.k
    reduced: dict[int, int] = {}
    for piv in reversed(range(k)):
        row = state._rows[piv]
        if row is not None:
            for other, done in reduced.items():
                if (row >> other) & 1:
                    row ^= done
            reduced[piv] = row
    mask, tag_shift = (1 << k) - 1, 8 * ((k + 7) // 8)
    payloads = [int.from_bytes(p, "big") for p in state._payloads]
    out = []
    for piv, row in sorted(reduced.items()):
        tag, pay = row >> tag_shift, 0
        for i, p in enumerate(payloads):
            if (tag >> i) & 1:
                pay ^= p
        out.append((piv, row & mask, pay))
    return out
