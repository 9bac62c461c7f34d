"""Per-arrival reference implementations that the vectorized code is tested against.

``generate_arrivals`` draws Poisson arrivals on a window as records, and
``encounter_of`` decides one arrival's crossing with the observer from its
entry time and gives the meeting time. The library draws and thins
arrivals in whole arrays instead; these loops state the same model one
vehicle at a time. ``sample_bands`` draws the speeds of continuous traffic,
whose crossers the library draws directly from the tilted band density
instead. ``IntDecoder`` is the decoder on Python ints, one packet
at a time, that the packed ``DecoderState`` is tested against, and
``reduced_rows`` reads a ``DecoderState``'s basis in fully reduced form.
``alpha_matrix`` is the m x m matrix of the exchange objective, the
quadratic form that ``pmf_opt.pair_law`` evaluates in O(m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vanetsim import NotYetDecodable, Packet


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


def sample_bands(dist, rng: np.random.Generator, n: int) -> np.ndarray:
    """n speeds of the continuous ``dist``, uniform on weighted bands.

    A single band is one uniform draw. Several bands take one random draw
    per speed to pick its band, then one uniform draw per band, in band
    order.
    """
    if len(dist.bands) == 1:
        a, b = dist.bands[0]
        return rng.uniform(a, b, n)
    pick = np.searchsorted(np.cumsum(dist.weights), rng.random(n), side="right")
    pick = np.minimum(pick, len(dist.bands) - 1)
    out = np.empty(n)
    for i, (a, b) in enumerate(dist.bands):
        mask = pick == i
        out[mask] = rng.uniform(a, b, int(mask.sum()))
    return out


def generate_arrivals(scenario, window, rng: np.random.Generator) -> list[ArrivalRecord]:
    """Homogeneous Poisson arrivals on the window, sorted by entry time."""
    t0, t1 = window
    if t1 <= t0:
        return []
    n = rng.poisson(scenario.lam * (t1 - t0))
    times = np.sort(rng.uniform(t0, t1, n))
    if not scenario.is_discrete:
        speeds = sample_bands(scenario.velocity, rng, n)
        return [ArrivalRecord(float(t), float(v)) for t, v in zip(times, speeds)]
    speeds, idx = scenario.velocity.sample(rng, n)
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


class IntDecoder:
    """Rank tracker and decoder on Python ints, one packet at a time.

    The basis is in echelon form, one row per pivot, where a row's pivot is
    its lowest set bit: a packet's vector is XORed with the row at its
    lowest set bit until it is zero (not innovative) or lands on a free
    pivot, where it is stored. Each row also carries, from bit
    ``8 * ceil(k / 8)`` up, a tag whose bit ``i`` says that the ``i``-th
    innovative packet is part of the row.
    """

    def __init__(self, k: int):
        self.k = k
        self._tag_shift = 8 * ((k + 7) // 8)
        self._rows: list[int | None] = [None] * k
        self._payloads: list[bytes] = []

    @property
    def rank(self) -> int:
        return len(self._payloads)

    def receive(self, packet: Packet) -> bool:
        rank = len(self._payloads)
        if rank == self.k:
            return False
        # the tag bit keeps the row nonzero, so a pivot past k means the
        # vector reduced to zero
        row = packet.vector.bits | (1 << (self._tag_shift + rank))
        while True:
            piv = (row & -row).bit_length() - 1
            if piv >= self.k:
                return False
            if self._rows[piv] is None:
                self._rows[piv] = row
                self._payloads.append(packet.payload)
                return True
            row ^= self._rows[piv]

    def rows(self) -> list[tuple[int, int, int]]:
        """Fully reduced (pivot, vector bits, payload bits) of the basis.

        Every vector has a 1 at its own pivot and 0 at every other pivot; the
        payload (big-endian bits) is the same combination of packets.
        """
        reduced: dict[int, int] = {}
        for piv in reversed(range(self.k)):
            row = self._rows[piv]
            if row is not None:
                for other, done in reduced.items():
                    if (row >> other) & 1:
                        row ^= done
                reduced[piv] = row
        payloads = [int.from_bytes(p, "big") for p in self._payloads]
        mask = (1 << self.k) - 1
        return [
            (piv, row & mask, _combine(row >> self._tag_shift, payloads))
            for piv, row in sorted(reduced.items())
        ]

    def try_decode(self) -> list[bytes] | NotYetDecodable:
        if self.rank < self.k:
            return NotYetDecodable(self.rank)
        size = len(self._payloads[0])
        return [pay.to_bytes(size, "big") for _, _, pay in self.rows()]


def _combine(tag: int, payloads: list[int]) -> int:
    """XOR of the payloads whose bit is set in ``tag``."""
    out = 0
    for i, p in enumerate(payloads):
        if (tag >> i) & 1:
            out ^= p
    return out


def reduced_rows(state, trial: int = 0) -> list[tuple[int, int, int]]:
    """Fully reduced (pivot, vector bits, payload bits) of a ``DecoderState`` trial.

    Row ``c`` of the trial's packed basis is the pivot row of column ``c``,
    and its tag names the payload slots that XOR to its payload (big-endian
    bits).
    """
    nbytes = (state.k + 7) // 8
    payloads = [] if state._payloads is None else state._payloads[trial]
    slots = [int.from_bytes(p.tobytes(), "big") for p in payloads]
    out = []
    for piv, row in enumerate(state._rows[trial]):
        vector = int.from_bytes(row[:nbytes].tobytes(), "little")
        if (vector >> piv) & 1:
            tag = int.from_bytes(row[nbytes:].tobytes(), "little")
            out.append((piv, vector, _combine(tag, slots)))
    return out


def alpha_matrix(speeds) -> np.ndarray:
    """Symmetric matrix of pairwise inverse-speed sums 1/|v_i| + 1/|v_j|, zero diagonal."""
    inv = 1.0 / np.abs(np.asarray(speeds, dtype=float))
    with np.errstate(over="ignore"):  # only the diagonal, zeroed below, can overflow
        a = inv[:, None] + inv[None, :]
    np.fill_diagonal(a, 0.0)
    return a
