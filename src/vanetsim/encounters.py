"""Monte Carlo simulation of an observer's traversals of a highway segment.

An encounter is the trajectory-crossing event. The observer enters at time
0 at speed v_i > 0 and runs x = v_i t; a partner entering at time e runs
x = v (t - e) from 0 if v > 0, or x = d + v (t - e) from d if v < 0. Their
paths meet at t = (v e - d [v < 0]) / (v - v_i), and they meet inside the
segment iff 0 < t < d / v_i. The transmit range enters packet counts and
connection times only, never the encounter decision itself.

Two samplers draw the crossers of a chunk of trips at once, chosen by the
kind of traffic; both return a :class:`Crossers` record, trip by trip.

- Discrete traffic: :func:`_crossing_arrivals` draws every trip's Poisson
  arrival count on its lookback window, then all entry times, then all
  velocities, and keeps the arrivals whose meeting time lies in
  ``(0, d / v_i)``. In place, the meeting times overwrite the entry times
  and the gaps v - v_i the velocities.
- Continuous traffic: :func:`_tilted_crossings` draws the crossers alone.
  By the marking theorem (Kingman, *Poisson Processes*, 1993) the partners
  an observer crosses are Poisson with intensity
  ``lam d f(v) |1/v - 1/v_i|`` over the speed density ``f``, and their
  meeting times are uniform on ``(0, d / v_i)``, the meeting time being
  linear in the entry time. Near a stationary observer almost every
  arrival crosses, so drawing and testing arrivals costs two draws and
  about twelve array passes a crosser, where a crosser drawn directly
  costs one draw and a few passes. Each band is split at ``v_i``; on each
  piece the tilt ``|1/v - 1/v_i|`` is a flat part, its minimum, plus a
  tail that vanishes at one end of the piece (see :func:`_tilt_parts`).
  The stream of a chunk is: one Poisson call a part for every trip's
  count, then the parts' speeds in part order, a flat part one uniform a
  crosser and a tail rounds of proposals and acceptance uniforms (see
  :func:`_tail_speeds`), then, for a segment's encounters only, one
  uniform meeting time a crosser. Trips never draw meeting times.

A trip is a chunk of one, and draws what it always drew.
:func:`monte_carlo_throughput` runs chunks of at most :data:`CHUNK_VEHICLES`
expected arrivals (discrete) or crossers (continuous), reduces each by trip
with ``np.bincount``, and merges the chunks' means and sums of squared
deviations as it goes, so it keeps no per-trial array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
from .traffic import Scenario, _log_ratio, sample_velocities

# Lookback margin, in units of r / min|v|, before -d / min|v|, the earliest
# entry time of an arrival that can cross the observer. Arrivals in the
# margin never cross: on twoclass at observer 20 they are 50 of the
# window's 1,050 time units.
ARRIVAL_MARGIN_FACTOR = 10.0

# Cap on the vehicles one trip's sampler expects to draw: arrivals in the
# lookback window for discrete traffic, crossers for continuous traffic. A
# very slow observer expects more than memory allows.
MAX_EXPECTED_VEHICLES = 1e7

# Expected vehicles (arrivals or crossers, as above) in one chunk of trips
# that monte_carlo_throughput draws at once: its arrays peak at 0.5-0.7 MB
# (tracemalloc: 33 B an arrival on a twoclass chunk at observer 20, 44 B a
# crosser on a uniform2040 chunk at observer 30, 9 B a crosser on one
# uniform2040 trip at observer 0.02). A trip that alone expects more is a
# chunk of one.
CHUNK_VEHICLES = 2**14

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


def _packets(gap: np.ndarray, packet_rate: float, r: float) -> np.ndarray:
    """In place: the packets of encounters at relative speeds ``gap``, ``rho r / (2 |gap|)``.

    Halving first is exact and keeps a relative speed near the largest
    float from overflowing when doubled.
    """
    np.abs(gap, out=gap)
    return np.divide(packet_rate * r / 2.0, gap, out=gap)


def infostation_download(v: float, packet_rate: float, r: float) -> float:
    """Packets downloadable from a roadside station in one pass."""
    if v == 0:
        raise InvalidParameterError("speed must be nonzero")
    return packet_rate * r / abs(v)


class Crossers(NamedTuple):
    """The crossers of a chunk of trips, from either sampler.

    ``gap`` is each crosser's ``v - v_i`` and ``reverse`` its flag
    ``v < 0``. ``cls`` holds class indices (None for continuous traffic),
    ``trip`` trip indices in ``0..trips-1`` (None for one trip), and
    ``meet`` meeting times (None when continuous traffic was not asked for
    them).
    """

    gap: np.ndarray
    reverse: np.ndarray
    cls: np.ndarray | None
    trip: np.ndarray | None
    meet: np.ndarray | None


def _too_slow(expected: float, what: str) -> None:
    if not expected <= MAX_EXPECTED_VEHICLES:
        raise InvalidParameterError(
            f"observer too slow: its trip expects {expected:.6g} {what}, "
            f"more than {MAX_EXPECTED_VEHICLES:.0e}"
        )


def _arrival_window(scenario: Scenario, ti: float) -> tuple[float, float]:
    """Start of one trip's lookback window, and the arrivals it expects.

    The window runs up to the observer's travel time ``ti``. Raises
    :class:`InvalidParameterError` when it expects more than
    :data:`MAX_EXPECTED_VEHICLES` arrivals.
    """
    vmin = scenario.min_speed()
    w0 = -(scenario.d / vmin + ARRIVAL_MARGIN_FACTOR * scenario.r / vmin)
    expected = scenario.lam * (ti - w0)
    _too_slow(expected, "arrivals in its lookback window")
    return w0, expected


def _crossing_arrivals(
    scenario: Scenario, vi: float, ti: float, rng: np.random.Generator, trips: int = 1
) -> Crossers:
    """Draw the background arrivals of ``trips`` trips; keep the crossers.

    Each trip's arrivals are Poisson on its lookback window up to the travel
    time ``ti`` of the observer at speed ``vi``. The draws are every trip's
    count, then all entry times, then all velocities, so one trip draws
    count, entry times, velocities. An arrival crosses iff its meeting time
    with the observer (see the module docstring) lies in ``(0, ti)``; a
    partner at the observer's speed never meets it. The crossers come in
    arrival order, so with the trips in order.
    """
    counts = np.zeros(trips, dtype=int)
    if scenario.lam > 0:
        w0, expected = _arrival_window(scenario, ti)
        counts = rng.poisson(expected, trips)
    n = int(counts.sum())
    if n:
        meet = rng.uniform(w0, ti, n)
        gap, cls = sample_velocities(scenario.velocity, n, rng)
    else:
        meet, gap = np.empty(0), np.empty(0)
        cls = np.empty(0, dtype=int) if scenario.is_discrete else None
    reverse = gap < 0
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 and x/0 at the observer's speed
        np.multiply(gap, meet, out=meet)
        np.subtract(meet, scenario.d, out=meet, where=reverse)
        np.subtract(gap, vi, out=gap)
        np.divide(meet, gap, out=meet)
    crossing = meet > 0
    crossing &= meet < ti
    at = np.flatnonzero(crossing)
    trip = np.searchsorted(np.cumsum(counts), at, side="right") if trips > 1 else None
    return Crossers(gap[at], reverse[at], None if cls is None else cls[at], trip, meet[at])


@functools.lru_cache(maxsize=256)  # a trip or a segment at a time asks again and again
def _tilt_parts(scenario: Scenario, vi: float) -> tuple[tuple[float, str, float, float], ...]:
    """The parts of the crossing intensity of an observer at ``vi``.

    Each part is (mean crossers a trip, shape, a, b), over speeds in
    ``(a, b)``: ``lam d w / (b0 - a0)`` times the integral of the part's
    tilt for a band ``(a0, b0)`` of weight ``w``. A forward band is split at
    ``vi``; in ``u = |v|`` each piece ``(lo, hi)`` tilts by
    ``1/vi - 1/u`` above ``vi``, ``1/u - 1/vi`` below it, and ``1/u + 1/vi``
    on a reverse band. The tilt is a flat part, its minimum over the piece
    (shape "flat", uniform speeds), plus a tail: ``1/lo - 1/u`` above
    ``vi`` (shape "rising", zero at ``lo``) or ``1/u - 1/hi`` below it and
    on a reverse band (shape "falling", zero at ``hi``), whose integrals are
    ``(hi - lo)/lo - ln(hi/lo)`` and ``ln(hi/lo) - (hi - lo)/hi``. Parts
    that no crosser can come from are left out.
    """
    vel, parts = scenario.velocity, []
    for (a, b), w in zip(vel.bands, vel.weights):
        scale = scenario.lam * scenario.d * w / (b - a)
        if b < 0:
            pieces = [(a, b, 1 / -a + 1 / vi, "falling")]
        else:
            below, above = min(b, vi), max(a, vi)
            pieces = [
                (a, below, 1 / below - 1 / vi, "falling"),
                (above, b, 1 / vi - 1 / above, "rising"),
            ]
        for pa, pb, flat, shape in pieces:
            if not pa < pb:
                continue
            lo, hi = sorted((abs(pa), abs(pb)))
            log_ratio = _log_ratio(lo, hi)
            tail = (hi - lo) / lo - log_ratio if shape == "rising" else log_ratio - (hi - lo) / hi
            parts += [(scale * flat * (hi - lo), "flat", pa, pb), (scale * tail, shape, pa, pb)]
    return tuple(part for part in parts if part[0] > 0)


def _tail_speeds(rng: np.random.Generator, n: int, shape: str, a: float, b: float) -> np.ndarray:
    """``n`` speeds of a tail part (see :func:`_tilt_parts`) on ``(a, b)``, drawn by rejection.

    In ``u = |v|`` on ``(lo, hi)``, a rising tail ``1/lo - 1/u`` is drawn
    from uniform proposals and a falling tail ``1/u - 1/hi`` from
    log-uniform ones (Devroye, *Non-Uniform Random Variate Generation*,
    1986, II.3): for every ratio ``hi/lo`` the closed-form acceptance of
    that proposal is the higher of the two, and above 1/2. So a round
    proposes twice the speeds still wanting, plus 16, drawing the
    proposals' uniforms, then their acceptance uniforms; the first ``n``
    accepted speeds are kept. Neither end of the piece is ever returned:
    each tail is zero at one end, and the other is not proposed.
    """
    lo, hi = sorted((abs(a), abs(b)))
    log_ratio = _log_ratio(lo, hi)
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = 2 * (n - filled) + 16
        x, test = rng.random((2, m))
        if shape == "rising":  # u = lo + (hi - lo) x, accepted iff U u < x hi
            u = x * (hi - lo)
            u += lo
            test *= u
            kept = u[test < x * hi]
        else:  # u = hi e with e = (lo/hi)**x, accepted iff U (hi - lo)/hi + e < 1
            x *= -log_ratio
            e = np.exp(x, out=x)
            test *= (hi - lo) / hi
            test += e
            kept = e[test < 1.0]
            kept *= hi
        kept = kept[: n - filled]
        out[filled : filled + kept.size] = kept
        filled += kept.size
    return out if a > 0 else np.negative(out, out=out)


def _tilted_crossings(
    parts: tuple,
    vi: float,
    ti: float,
    rng: np.random.Generator,
    trips: int = 1,
    times: bool = False,
) -> Crossers:
    """Draw the crossers of ``trips`` trips of continuous traffic directly.

    ``parts`` is :func:`_tilt_parts` of the observer at ``vi``, whose
    travel time is ``ti``. Each part draws every trip's Poisson count with
    one call; a flat part's speeds are uniform on its piece, one uniform a
    crosser, and a tail's come from :func:`_tail_speeds`. The crossers come
    part by part, each part's trip by trip. Meeting times, uniform on
    ``(0, ti)``, are drawn last and only if ``times``.
    """
    counts = np.array([rng.poisson(mean, trips) for mean, *_ in parts], dtype=int)
    sizes = counts.reshape(len(parts), trips).sum(axis=1).tolist()
    gap = np.empty(sum(sizes))
    reverse = np.zeros(gap.size, dtype=bool)
    at = 0
    for (_, shape, a, b), n in zip(parts, sizes):
        out = gap[at : at + n]
        if shape == "flat":  # v - vi = (a - vi) + (b - a) U, in place
            rng.random(out=out)
            out *= b - a
            out += a - vi
        elif n:
            np.subtract(_tail_speeds(rng, n, shape, a, b), vi, out=out)
        if b < 0:
            reverse[at : at + n] = True
        at += n
    trip = None
    if trips > 1:
        trip = np.repeat(np.tile(np.arange(trips), len(parts)), counts.ravel())
    meet = rng.uniform(0.0, ti, gap.size) if times else None
    return Crossers(gap, reverse, None, trip, meet)


def _crossing_sampler(scenario: Scenario, vi: float, ti: float):
    """The crossing sampler of an observer at ``vi``, and the vehicles a trip expects it to draw.

    The sampler is called as ``draw(rng, trips=1, times=False)`` and returns
    the :class:`Crossers` of ``trips`` trips: :func:`_crossing_arrivals` for
    discrete traffic, which expects the arrivals of a lookback window, and
    :func:`_tilted_crossings` for continuous traffic, which expects the
    crossers themselves and draws meeting times only if ``times``. Raises
    :class:`InvalidParameterError` when a trip expects more than
    :data:`MAX_EXPECTED_VEHICLES`.
    """
    if scenario.is_discrete:
        expected = _arrival_window(scenario, ti)[1] if scenario.lam > 0 else 0.0

        def draw(rng, trips=1, times=False):
            return _crossing_arrivals(scenario, vi, ti, rng, trips)

        return draw, expected
    parts = _tilt_parts(scenario, vi) if scenario.lam > 0 else ()
    expected = math.fsum(mean for mean, *_ in parts)
    _too_slow(expected, "crossings")

    def draw(rng, trips=1, times=False):
        return _tilted_crossings(parts, vi, ti, rng, trips, times)

    return draw, expected


def simulate_trip(
    scenario: Scenario, observer_velocity: float, rng: np.random.Generator
) -> TripResult:
    """Simulate one traversal: draw its crossers (see the module docstring), sum their packets."""
    vi, ti = _observer_trip(scenario, observer_velocity)
    r, packet_rate = scenario.r, scenario.packet_rate
    draw, _ = _crossing_sampler(scenario, vi, ti)
    crossers = draw(rng)
    packets = _packets(crossers.gap, packet_rate, r)
    reverse = crossers.reverse
    info = infostation_download(vi, packet_rate, r)
    total = info + float(packets.sum())
    if scenario.is_discrete:
        counts = np.bincount(crossers.cls, minlength=scenario.velocity.m)
        per_class = tuple(int(c) for c in counts)
    else:
        per_class = ()
    return TripResult(
        observer_velocity=vi,
        travel_time=ti,
        encounters_per_class=per_class,
        n_encounters=int(packets.size),
        infostation_packets=info,
        total_packets=total,
        throughput=total / ti,
        forward_exchange_packets=float(packets[~reverse].sum()),
        reverse_exchange_packets=float(packets[reverse].sum()),
    )


def _trip_throughputs(
    scenario: Scenario, vi: float, ti: float, trials: int, rng: np.random.Generator
):
    """Yield the throughputs of ``trials`` trips, one array per chunk, in order.

    A chunk holds as many trips as fit in :data:`CHUNK_VEHICLES` expected
    vehicles, and at least one.
    """
    packet_rate, r = scenario.packet_rate, scenario.r
    info = infostation_download(vi, packet_rate, r)
    draw, expected = _crossing_sampler(scenario, vi, ti)
    chunk = max(1, int(CHUNK_VEHICLES // max(expected, 1.0)))
    for done in range(0, trials, chunk):
        trips = min(chunk, trials - done)
        crossers = draw(rng, trips)
        packets = _packets(crossers.gap, packet_rate, r)
        if crossers.trip is None:
            yield np.full(1, (info + packets.sum()) / ti)
        else:
            yield (info + np.bincount(crossers.trip, weights=packets, minlength=trips)) / ti


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
    draw, _ = _crossing_sampler(scenario, vi, scenario.d / vi)
    crossers = draw(rng, times=True)
    counts = np.floor(_packets(crossers.gap, scenario.packet_rate, scenario.r))
    return sorted((float(t), int(c)) for t, c in zip(crossers.meet, counts) if c > 0)


def _refuse_packetless(scenario: Scenario, vi: float) -> None:
    """Refuse an observer at ``vi`` whom no station and no encounter gives a whole packet.

    An encounter gives the most packets at the partner speed closest to
    ``vi``, other than ``vi`` itself: a class's own speed, or a band's
    nearest one (arbitrarily close inside the band). A crosser of a band
    ``(a, b)`` may be drawn at ``a`` but never at ``b`` (see
    :func:`_tilted_crossings`), so a band's upper end counts only if the
    packets there exceed 1: every drawable speed gives fewer.
    """
    rate, r, vel = scenario.packet_rate, scenario.r, scenario.velocity
    if scenario.is_discrete:
        gaps = [c.v - vi for c in vel.classes if c.p > 0 and c.v != vi]
        upper = [False] * len(gaps)
    else:
        bands = [band for band, w in zip(vel.bands, vel.weights) if w > 0]
        gaps = [max(a - vi, vi - b, 0.0) for a, b in bands]
        upper = [vi > b for _, b in bands]
    with np.errstate(divide="ignore"):  # a band holding vi
        packets = _packets(np.array(gaps), rate, r)
    whole = np.where(upper, packets > 1, packets >= 1)
    encounter = scenario.lam > 0 and whole.any()
    if not (encounter or infostation_download(vi, rate, r) >= 1):
        raise InvalidParameterError(
            f"observer speed {vi!r} never receives a packet: its station batch and "
            "every encounter's batch floor to 0 packets"
        )


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
    observer speed that :func:`simulate_trip` refuses or that no station
    and no encounter gives a whole packet, before the trial's draws, or
    before any draw for a file of more than :data:`MAX_DOWNLOAD_BLOCKS`
    blocks; :class:`NoProgressError`, with the rank of the packets that did
    arrive, if packet N has not arrived after :data:`MAX_SEGMENTS` segments
    (for example with no traffic, one station packet a segment and a file of
    more than 1000 blocks);
    :class:`InternalInconsistencyError` if a decode disagrees with its file.
    """
    k = file.k
    if len(observers) and k > MAX_DOWNLOAD_BLOCKS:
        _observer_trip(scenario, observers[0])  # the first trial fails on its speed first
        raise InvalidParameterError(
            f"file of {k} blocks exceeds the download limit of {MAX_DOWNLOAD_BLOCKS} blocks"
        )
    trips, streams, refused, checked = [], [], None, {}
    for v in observers:
        if v not in checked:  # each distinct speed is checked once, at its first trial
            try:
                vi, ti = _observer_trip(scenario, v)
                _crossing_sampler(scenario, vi, ti)  # refused as its first crossing draw would be
                _refuse_packetless(scenario, vi)
            except InvalidParameterError as exc:
                refused = exc
                break
            checked[v] = vi, ti
        trips.append(checked[v])
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
