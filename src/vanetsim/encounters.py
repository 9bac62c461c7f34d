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
    DecoderState,
    FileSpec,
    VectorScheme,
    _product,
    _xor_tables,
    decode,
    encode,  # noqa: F401  (perfbench/tracing.py wraps encounters.encode by name)
    fold,
    vector_batch_sampler,
)
from .traffic import Scenario, sample_velocities

# Lookback margin, in units of r / min|v|, before -d / min|v|, the earliest
# entry time of an arrival that can cross the observer. Arrivals in the
# margin never cross: on twoclass at observer 20 they are 50 of the
# window's 1,050 time units.
ARRIVAL_MARGIN_FACTOR = 10.0

# Cap on the expected arrivals in one lookback window: a very slow observer
# needs a window long enough to hold more than memory allows.
MAX_EXPECTED_ARRIVALS = 1e7

# Expected arrivals in one chunk of trips that monte_carlo_throughput draws
# at once: its temporaries peak near 60 bytes per arrival, about 1 MB. A
# trip that alone expects more is a chunk of one, as large as it always was.
CHUNK_ARRIVALS = 2**14

# Largest file, in blocks, that simulate_download_times accepts. Decode cost
# grows about as K^2.4: `download-time --K 8192 --trials 2` (64-bit blocks,
# chunks of one trial) took 6.5-6.9 s and 94 MB peak RSS on a 2-core x86-64
# KVM guest whose speed drifts by up to 2x, and `--K 4096 --trials 1` 0.9 s.
MAX_DOWNLOAD_BLOCKS = 8192

# Bytes that one chunk of download trials may hold at once. At its peak, in
# the first round, whose fold always holds k + BATCH_MARGIN rows, a trial of
# a chunk holds about 8 KiB + k * (6 * block_bytes + 12 * ceil(k / 8)) +
# 1024 * ceil(k / 8) bytes: its streams, its file and the file's XOR
# tables, its basis, a fold's working rows and a block's 256-entry table
# (tracemalloc peaks of 6, 19, 39, 107 and 1122 KB a trial at K = 1, 40,
# 100, 256 and 1000 with 8-byte blocks, in the chunks of 226, 118, 50, 13
# and 1 trials that this rule gives; 1320 KB a trial in a chunk of 4 at
# K=1000, where the round's one decode product indexes the tables with a
# 16-bit row per digit of the trials' tags). 2 MiB holds 50 trials at K=100,
# where a chunk of 50 runs a trial in about a fifth of the time that trials
# one at a time take, and one trial from K of about 800 on.
DOWNLOAD_CHUNK_BYTES = 1 << 21

# Segments a download may traverse for packet N before it gives up.
MAX_SEGMENTS = 1000

# A download folds BATCH_MARGIN packets more in a round than the k - rank
# it still needs (uniform vectors need more than 8 extra with
# probability below 2**-8).
BATCH_MARGIN = 8


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

    The speed must be finite and positive, its travel time finite and above
    0, and its station batch ``packet_rate * r / v`` finite; other observers
    are refused here rather than turning into an inf or NaN throughput.
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
    if not ti > 0:
        raise InvalidParameterError(f"observer too fast: d/v = {scenario.d:g}/{vi!r} rounds to 0")
    return vi, ti


def packets_per_encounter(v, v_prime, packet_rate: float, r: float):
    """Packets transferred in one direction while two nodes stay in range.

    Elementwise on arrays of speeds; refused if any pair of speeds is equal.
    Halving first is exact and keeps a relative speed near the largest
    float from overflowing when doubled.
    """
    if np.equal(v, v_prime).any():
        raise InvalidParameterError("equal velocities never yield an encounter")
    return packet_rate * r / 2.0 / np.abs(np.subtract(v, v_prime))


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


def merge_moments(moments: tuple, values: np.ndarray, label: str) -> tuple:
    """Merge a chunk of ``values`` into the running ``(count, mean, m2)``.

    ``m2`` is the sum of squared deviations from the mean. The chunk's own
    moments are merged by the pairwise update of Chan, Golub and LeVeque
    (1979), so a stream of chunks needs no per-value array. Start from
    ``(0, 0.0, 0.0)``. Values too large to square are refused as input,
    named by ``label``, since ``m2`` would be inf or nan.
    """
    n, mean, m2 = moments
    k = values.size
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite m2 is refused below
        chunk_mean = float(values.mean())
        chunk_m2 = float(np.square(values - chunk_mean).sum())
    if n:  # else the chunk's own moments: no 0 * inf when its mean squared overflows
        delta = chunk_mean - mean
        m2 += chunk_m2 + delta * delta * (n * k / (n + k))
        mean += delta * (k / (n + k))
    else:
        mean, m2 = chunk_mean, chunk_m2
    n += k
    if not math.isfinite(m2):
        raise InvalidParameterError(
            f"{label} of about {mean:.6g} are too large to square for their variance"
        )
    return n, mean, m2


def monte_carlo_throughput(
    scenario: Scenario,
    observer_velocity: float,
    trials: int,
    rng: np.random.Generator,
) -> MonteCarloEstimate:
    """Mean and standard error of the trip throughput over independent trips.

    Trips are drawn in chunks (see the module docstring) from ``rng``, in
    order; a trip's throughput is that of :func:`simulate_trip` on the same
    arrivals. Each chunk is merged into the running moments by
    :func:`merge_moments`, so memory does not grow with ``trials``. Callers
    wanting parallel execution should hand each worker its own spawned
    substream.
    """
    if trials < 2:
        raise InvalidParameterError("need at least 2 trials")
    vi, ti = _observer_trip(scenario, observer_velocity)
    moments = (0, 0.0, 0.0)
    for values in _trip_throughputs(scenario, vi, ti, trials, rng):
        moments = merge_moments(moments, values, "trip throughputs")
    n, mean, m2 = moments
    return MonteCarloEstimate(
        mean=mean,
        std_error=math.sqrt(m2 / (n - 1)) / math.sqrt(n),
        trials=n,
    )


def _crossing_events(
    scenario: Scenario, vi: float, rng: np.random.Generator
) -> list[tuple[float, int]]:
    """One segment's encounter batches, in time order: (time offset, whole packets)."""
    meet, enc_vel, _, _ = _crossing_arrivals(scenario, vi, scenario.d / vi, rng)
    counts = np.floor(packets_per_encounter(vi, enc_vel, scenario.packet_rate, scenario.r))
    return sorted((float(t), int(c)) for t, c in zip(meet, counts) if c > 0)


def _packet_events(scenario: Scenario, vi: float, rng: np.random.Generator):
    """Yield (segment, time offset, whole packets) for up to MAX_SEGMENTS segments.

    A segment opens with its station batch; its crossings are drawn from
    ``rng`` only when the batch is consumed and more packets are wanted.
    """
    batch = math.floor(infostation_download(vi, scenario.packet_rate, scenario.r))
    for segment in range(MAX_SEGMENTS):
        yield segment, 0.0, batch
        for offset, count in _crossing_events(scenario, vi, rng):
            yield segment, offset, count


def _draw_files(file: FileSpec, rngs: list[np.random.Generator]) -> np.ndarray:
    """One file per generator, ``trials x k x block_bytes``.

    Each file is one draw, sliced as ``k`` separate ``rng.bytes(block_bytes)``
    draws would give it.
    """
    size, stride = file.block_bytes, 4 * ((file.block_bytes + 3) // 4)
    raw = b"".join(rng.bytes(file.k * stride) for rng in rngs)
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(rngs), file.k, stride)[:, :, :size]


def download_chunk_trials(file: FileSpec) -> int:
    """Trials of :func:`simulate_download_times` that fit :data:`DOWNLOAD_CHUNK_BYTES`, at least one."""
    nbytes = (file.k + 7) // 8
    per_trial = 8192 + file.k * (6 * file.block_bytes + 12 * nbytes) + 1024 * nbytes
    return max(1, DOWNLOAD_CHUNK_BYTES // per_trial)


def simulate_download_times(
    scenario: Scenario,
    observers,
    file: FileSpec,
    scheme: VectorScheme,
    rng: np.random.Generator,
) -> list[tuple[float, int, int]]:
    """Event-level downloads of one file across consecutive segments, one per observer.

    Trial ``i`` is the download of observer speed ``observers[i]``, with
    its arrivals, vectors and file drawn from the three streams of the
    ``i``-th ``rng.spawn(3)``, in that order. Each segment starts with a
    roadside-station batch of floor(packet_rate*r/v) packets; each
    encounter delivers its whole-packet count at the crossing time. Every
    packet carries an independently sampled encoding vector.

    The vector stream alone fixes N, the packet whose vector brings the
    decoder to full rank, and the arrival stream alone fixes when packet N
    arrives, so a download runs in two phases. The decode phase runs the
    trials in lockstep rounds: as the rank grows by at most one a packet, a
    round draws ``k - rank + BATCH_MARGIN`` vectors for each unfinished
    trial with one sampler call, encodes all of them with one product and
    folds them with one :func:`~vanetsim.fountain.fold`, and the trials that
    reach full rank are decoded with one :func:`~vanetsim.fountain.decode`
    and checked against their files. A sampler call of n vectors draws what
    n calls of one draw, and the innovative flags are those of one packet at
    a time, so N is that of one draw and one fold per packet. The arrival
    phase then walks each trial's packet events up to the one holding packet
    N, drawing a segment's crossings only once its station batch falls
    short. Returns, per trial, (travel time consumed, packets received,
    segments fully or partially traversed) at packet N.

    Raises the error of the lowest-index failing trial, as running the
    trials one at a time would: :class:`InvalidParameterError` for an
    observer speed that :func:`simulate_trip` refuses, or before any draw
    for a file of more than :data:`MAX_DOWNLOAD_BLOCKS` blocks;
    :class:`NoProgressError`, with the rank of the packets that did arrive,
    if packet N has not arrived after :data:`MAX_SEGMENTS` segments (for
    example with no traffic and a station batch of zero packets);
    :class:`InternalInconsistencyError` if a decode disagrees with its file.
    """
    k = file.k
    if len(observers) and k > MAX_DOWNLOAD_BLOCKS:
        _observer_trip(scenario, observers[0])  # the first trial fails on its speed first
        raise InvalidParameterError(
            f"file of {k} blocks exceeds the download limit of {MAX_DOWNLOAD_BLOCKS} blocks"
        )
    trips, streams, refused = [], [], None
    for v in observers:
        try:
            vi, ti = _observer_trip(scenario, v)
            if scenario.lam > 0:  # refused as the trial's first crossing draw would be
                _arrival_window(scenario, ti)
        except InvalidParameterError as exc:
            refused = exc
            break
        trips.append((vi, ti))
        streams.append(rng.spawn(3))  # arrivals, vectors, file
    sample = vector_batch_sampler(scheme, k)
    files = _draw_files(file, [file_rng for _, _, file_rng in streams])
    tables = _xor_tables(files, 4)
    decoders = [DecoderState(k) for _ in streams]
    flags: list[list[np.ndarray]] = [[] for _ in streams]  # each round's innovative flags
    needed: list = [None] * len(streams)  # N
    wrong = [False] * len(streams)
    active = list(range(len(streams)))
    while active:
        counts = [k - decoders[i].rank + BATCH_MARGIN for i in active]
        vectors = np.zeros((len(active), max(counts), (k + 7) // 8), dtype=np.uint8)
        for row, i, n in zip(vectors, active, counts):
            row[:n] = sample(streams[i][1], n)
        payloads = np.zeros((*vectors.shape[:2], file.block_bytes), dtype=np.uint8)
        _product(vectors, tables, payloads, active)
        innovative = fold([decoders[i] for i in active], vectors, payloads)
        for i, n, row in zip(active, counts, innovative):
            if decoders[i].rank == k:  # packet N is the round's last innovative one
                needed[i] = sum(map(len, flags[i])) + int(np.flatnonzero(row)[-1]) + 1
            flags[i].append(row[:n])
        done = [i for i in active if needed[i] is not None]
        if done:  # every decode is checked against its file
            decoded = decode([decoders[i] for i in done])
            np.bitwise_xor(decoded, files[done], out=decoded)
            for i, bad in zip(done, decoded.any(axis=(1, 2))):
                wrong[i] = bool(bad)
        active = [i for i in active if needed[i] is None]
    results = []
    for i, ((vi, ti), (arr_rng, _, _)) in enumerate(zip(trips, streams)):
        received = 0
        for segment, offset, count in _packet_events(scenario, vi, arr_rng):
            received += count
            if received >= needed[i]:
                break
        else:
            rank = int(np.concatenate(flags[i])[:received].sum())
            raise NoProgressError(f"decode rank {rank}/{k} after {MAX_SEGMENTS} segments")
        if wrong[i]:
            raise InternalInconsistencyError("decoded blocks disagree with the encoded file")
        results.append((segment * ti + offset, needed[i], segment + 1))
    if refused is not None:
        raise refused
    return results


def simulate_download_time(
    scenario: Scenario,
    observer_velocity: float,
    file: FileSpec,
    scheme: VectorScheme,
    rng: np.random.Generator,
) -> tuple[float, int, int]:
    """One download: :func:`simulate_download_times` of one trial."""
    return simulate_download_times(scenario, [observer_velocity], file, scheme, rng)[0]
