"""Monte Carlo simulation of an observer's traversals of a highway segment.

An encounter is the trajectory-crossing event. The observer enters at time
0 at speed v_i > 0 and runs x = v_i t; a partner entering at time e runs
x = v (t - e) from 0 if v > 0, or x = d + v (t - e) from d if v < 0. Their
paths meet at t = (v e - d [v < 0]) / (v - v_i), and they meet inside the
segment iff 0 < t < d / v_i. The transmit range enters packet counts and
connection times only, never the encounter decision itself.

One sampler draws the background traffic of a chunk of trips at once: every
trip's Poisson arrival count on its lookback window, then all entry times,
then all velocities, one vectorized meeting time, and each crosser's trip
index. A trip is a chunk of one, and draws what it always drew.
:func:`monte_carlo_throughput` runs chunks of at most
:data:`CHUNK_ARRIVALS` expected arrivals, reduces each by trip with
``np.bincount``, and merges the chunks' means and sums of squared deviations
as it goes, so it keeps no per-trial array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInconsistencyError,
    InvalidParameterError,
    NoProgressError,
)
from .fountain import (
    Blocks,
    DecoderState,
    FileSpec,
    VectorScheme,
    batch_packets,
    encode,  # noqa: F401  (perfbench/tracing.py wraps encounters.encode by name)
    encode_batch,
    vector_batch_sampler,
)
from .traffic import Scenario, sample_velocities

# Lookback margin beyond the longest partner dwell time, in units of
# r / min|v|; arrivals earlier than that can never cross the observer.
ARRIVAL_MARGIN_FACTOR = 10.0

# Cap on the expected arrivals in one lookback window: a very slow observer
# needs a window long enough to hold more than memory allows.
MAX_EXPECTED_ARRIVALS = 1e7

# Expected arrivals in one chunk of trips that monte_carlo_throughput draws
# at once: its temporaries peak near 60 bytes per arrival, about 1 MB. A
# trip that alone expects more is a chunk of one, as large as it always was.
CHUNK_ARRIVALS = 2**14

# Largest file, in blocks, that simulate_download_time accepts. Decode cost
# grows about as K^2.4: one K=8192 download of 64-bit blocks took 39-47 s
# (8192 packets, 127-137 MB peak RSS) on a 2-core x86-64 KVM guest, and
# doubling K costs about five times as long.
MAX_DOWNLOAD_BLOCKS = 8192

# Segments a download may traverse before it gives up without full rank.
MAX_SEGMENTS = 1000

# A download draws and encodes a batch in pieces of at most BATCH_MARGIN
# packets more than the k - rank it still needs (uniform vectors need more
# than 8 extra with probability below 2**-8), and at most MAX_BATCH packets:
# its vectors and table indices take about k / 2 bytes per packet.
BATCH_MARGIN = 8
MAX_BATCH = 128


@dataclass(frozen=True)
class TripResult:
    """Totals for one observer traversal.

    ``encounters_per_class`` is empty for continuous velocity distributions.
    Exchange packet totals are split by partner direction so forward and
    reverse contributions can be compared.
    """

    observer_velocity: float
    travel_time: float
    encounters_per_class: tuple[int, ...]
    n_encounters: int
    infostation_packets: float
    total_packets: float
    throughput: float
    forward_exchange_packets: float
    reverse_exchange_packets: float


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float
    std_error: float
    trials: int


def _observer_trip(scenario: Scenario, observer_velocity: float) -> tuple[float, float]:
    """The checked observer speed and its travel time ``d / v``.

    The speed must be finite and positive, and not so small that the travel
    time or the station batch ``packet_rate * r / v`` overflows to infinity;
    such an observer is refused here rather than turning into a NaN throughput.
    """
    vi = float(observer_velocity)
    if not (math.isfinite(vi) and vi > 0):
        raise InvalidParameterError(
            f"observer speed must be finite and > 0, got {vi!r}"
        )
    ti = scenario.d / vi
    batch = infostation_download(vi, scenario.packet_rate, scenario.r)
    if not math.isfinite(max(ti, batch)):
        raise InvalidParameterError(
            f"observer too slow: travel time d/v = {scenario.d:g}/{vi!r} "
            "or its station batch is not finite"
        )
    return vi, ti


def packets_per_encounter(v, v_prime, packet_rate: float, r: float):
    """Packets transferred in one direction while two nodes stay in range.

    Elementwise on arrays of speeds; refused if any pair of speeds is equal.
    """
    if np.equal(v, v_prime).any():
        raise InvalidParameterError("equal velocities never yield an encounter")
    return packet_rate * r / (2.0 * np.abs(np.subtract(v, v_prime)))


def infostation_download(v: float, packet_rate: float, r: float) -> float:
    """Packets downloadable from a roadside station in one pass."""
    if v == 0:
        raise InvalidParameterError("speed must be nonzero")
    return packet_rate * r / abs(v)


def _arrival_window(scenario: Scenario, ti: float) -> tuple[float, float]:
    """Start of one trip's lookback window, and the arrivals it expects.

    The window runs up to the observer's travel time ``ti``. Raises
    :class:`InvalidParameterError` when it expects more than
    :data:`MAX_EXPECTED_ARRIVALS` arrivals.
    """
    vmin = scenario.min_speed()
    w0 = -(scenario.d / vmin + ARRIVAL_MARGIN_FACTOR * scenario.r / vmin)
    expected = scenario.lam * (ti - w0)
    if not expected <= MAX_EXPECTED_ARRIVALS:
        raise InvalidParameterError(
            f"observer too slow: its lookback window holds {expected:.6g} "
            f"expected arrivals, more than {MAX_EXPECTED_ARRIVALS:.0e}"
        )
    return w0, expected


def _crossing_arrivals(
    scenario: Scenario, vi: float, ti: float, rng: np.random.Generator, trips: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Draw the background arrivals of ``trips`` trips; keep the crossers.

    Each trip's arrivals are Poisson on its lookback window up to the travel
    time ``ti`` of the observer at speed ``vi``. The draws are every trip's
    count, then all entry times, then all velocities, so one trip draws
    count, entry times, velocities. An arrival crosses iff its meeting time
    with the observer (see the module docstring) lies in ``(0, ti)``; a
    partner at the observer's speed never meets it. Returns the crossers'
    meeting times, velocities, class indices (None for continuous velocity
    distributions) and trip indices in ``0..trips-1`` (None for one trip),
    with the trips in order.
    """
    counts = None
    if scenario.lam > 0:
        w0, expected = _arrival_window(scenario, ti)
        counts = rng.poisson(expected, trips)
    n = 0 if counts is None else int(counts.sum())
    if not n:
        no_class = np.empty(0, dtype=int) if scenario.is_discrete else None
        no_trip = None if trips == 1 else np.empty(0, dtype=int)
        return np.empty(0), np.empty(0), no_class, no_trip
    entry = rng.uniform(w0, ti, n)
    vel, cls = sample_velocities(scenario.velocity, n, rng)
    with np.errstate(divide="ignore", invalid="ignore"):
        meet = (vel * entry - scenario.d * (vel < 0)) / (vel - vi)
    mask = (meet > 0) & (meet < ti)
    trip = None
    if trips > 1:
        trip = np.searchsorted(np.cumsum(counts), np.flatnonzero(mask), side="right")
    return meet[mask], vel[mask], None if cls is None else cls[mask], trip


def simulate_trip(
    scenario: Scenario, observer_velocity: float, rng: np.random.Generator
) -> TripResult:
    """Simulate one traversal: draw background traffic, count crossings.

    Background arrivals are generated on a window long enough to contain
    every entry time that could satisfy the crossing condition.
    """
    vi, ti = _observer_trip(scenario, observer_velocity)
    r, packet_rate = scenario.r, scenario.packet_rate
    _, enc_vel, enc_cls, _ = _crossing_arrivals(scenario, vi, ti, rng)
    packets = packets_per_encounter(vi, enc_vel, packet_rate, r)
    info = infostation_download(vi, packet_rate, r)
    total = info + float(packets.sum())
    if scenario.is_discrete:
        counts = np.bincount(enc_cls, minlength=scenario.velocity.m)
        per_class = tuple(int(c) for c in counts)
    else:
        per_class = ()
    return TripResult(
        observer_velocity=vi,
        travel_time=ti,
        encounters_per_class=per_class,
        n_encounters=int(enc_vel.size),
        infostation_packets=info,
        total_packets=total,
        throughput=total / ti,
        forward_exchange_packets=float(packets[enc_vel > 0].sum()),
        reverse_exchange_packets=float(packets[enc_vel < 0].sum()),
    )


def _trip_throughputs(
    scenario: Scenario, vi: float, ti: float, trials: int, rng: np.random.Generator
):
    """Yield the throughputs of ``trials`` trips, one array per chunk, in order.

    A chunk holds as many trips as fit in :data:`CHUNK_ARRIVALS` expected
    arrivals, and at least one.
    """
    packet_rate, r = scenario.packet_rate, scenario.r
    info = infostation_download(vi, packet_rate, r)
    _, expected = _arrival_window(scenario, ti)
    chunk = max(1, int(CHUNK_ARRIVALS // max(expected, 1.0)))
    for done in range(0, trials, chunk):
        trips = min(chunk, trials - done)
        _, vel, _, trip = _crossing_arrivals(scenario, vi, ti, rng, trips)
        packets = packets_per_encounter(vi, vel, packet_rate, r)
        if trip is None:
            yield np.full(1, (info + packets.sum()) / ti)
        else:
            yield (info + np.bincount(trip, weights=packets, minlength=trips)) / ti


def monte_carlo_throughput(
    scenario: Scenario,
    observer_velocity: float,
    trials: int,
    rng: np.random.Generator,
) -> MonteCarloEstimate:
    """Mean and standard error of the trip throughput over independent trips.

    Trips are drawn in chunks (see the module docstring) from ``rng``, in
    order; a trip's throughput is that of :func:`simulate_trip` on the same
    arrivals. Each chunk's mean and sum of squared deviations are merged
    into the running ones by the pairwise update of Chan, Golub and LeVeque
    (1979), so memory does not grow with ``trials``. Callers wanting
    parallel execution should hand each worker its own spawned substream.
    """
    if trials < 2:
        raise InvalidParameterError("need at least 2 trials")
    vi, ti = _observer_trip(scenario, observer_velocity)
    n, mean, m2 = 0, 0.0, 0.0
    for values in _trip_throughputs(scenario, vi, ti, trials, rng):
        k = values.size
        chunk_mean = float(values.mean())
        chunk_m2 = float(np.square(values - chunk_mean).sum())
        delta = chunk_mean - mean
        n += k
        mean += delta * (k / n)
        m2 += chunk_m2 + delta * delta * ((n - k) * k / n)
    return MonteCarloEstimate(
        mean=mean,
        std_error=math.sqrt(m2 / (n - 1)) / math.sqrt(n),
        trials=n,
    )


def _segment_events(
    scenario: Scenario, vi: float, rng: np.random.Generator
) -> list[tuple[float, int]]:
    """Packet batches for one segment: (time offset, whole packets)."""
    packet_rate, r = scenario.packet_rate, scenario.r
    events = [(0.0, math.floor(infostation_download(vi, packet_rate, r)))]
    meet, enc_vel, _, _ = _crossing_arrivals(scenario, vi, scenario.d / vi, rng)
    counts = np.floor(packets_per_encounter(vi, enc_vel, packet_rate, r))
    events.extend((float(t), int(c)) for t, c in zip(meet, counts) if c > 0)
    events.sort()
    return events


def simulate_download_time(
    scenario: Scenario,
    observer_velocity: float,
    file: FileSpec,
    scheme: VectorScheme,
    rng: np.random.Generator,
) -> tuple[float, int, int]:
    """Event-level download of one file across consecutive segments.

    Each segment starts with a roadside-station batch of
    floor(packet_rate*r/v) packets; each encounter delivers its whole-packet
    count at the crossing time. Every packet carries an independently
    sampled encoding vector. A batch is drawn and encoded as a unit (in
    pieces of at most ``MAX_BATCH`` and ``k - rank + BATCH_MARGIN``
    packets): one draw of its vectors and one
    :func:`~vanetsim.fountain.encode_batch` product. Its packets then reach
    the decoder one by one, in arrival order. The vectors, and so every
    result, are those of one draw per packet. Returns (travel time
    consumed, packets received, segments fully or partially traversed) at
    the moment the decoder reaches full rank.

    Raises :class:`NoProgressError` if the decode is still incomplete after
    :data:`MAX_SEGMENTS` segments (for example with no traffic and a station
    batch of zero packets), and :class:`InvalidParameterError` before any
    work for a file of more than :data:`MAX_DOWNLOAD_BLOCKS` blocks.
    """
    vi, ti = _observer_trip(scenario, observer_velocity)
    if file.k > MAX_DOWNLOAD_BLOCKS:
        raise InvalidParameterError(
            f"file of {file.k} blocks exceeds the download limit of "
            f"{MAX_DOWNLOAD_BLOCKS} blocks"
        )
    sample = vector_batch_sampler(scheme, file.k)
    arr_rng, vec_rng, file_rng = rng.spawn(3)
    # one draw for the file, sliced as k separate rng.bytes(size) draws
    size, stride = file.block_bytes, 4 * ((file.block_bytes + 3) // 4)
    raw = file_rng.bytes(file.k * stride)
    file_blocks = [raw[i : i + size] for i in range(0, len(raw), stride)]
    blocks = Blocks(file_blocks)
    decoder = DecoderState(file.k)
    received = 0
    for segment in range(MAX_SEGMENTS):
        for offset, count in _segment_events(scenario, vi, arr_rng):
            while count:
                n = min(count, file.k - decoder.rank + BATCH_MARGIN, MAX_BATCH)
                count -= n
                vectors = sample(vec_rng, n)
                for packet in batch_packets(vectors, encode_batch(blocks, vectors), file.k):
                    received += 1
                    decoder.receive(packet)
                    if decoder.rank == file.k:
                        decoded = decoder.try_decode()
                        if decoded != file_blocks:
                            raise InternalInconsistencyError(
                                "decoded blocks disagree with the encoded file"
                            )
                        return segment * ti + offset, received, segment + 1
    raise NoProgressError(
        f"decode rank {decoder.rank}/{file.k} after {MAX_SEGMENTS} segments"
    )
