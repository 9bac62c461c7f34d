"""Monte Carlo simulation of an observer's traversals of a highway segment.

An encounter is the trajectory-crossing event. The observer enters at time
0 at speed v_i > 0 and runs x = v_i t; a partner entering at time e runs
x = v (t - e) from 0 if v > 0, or x = d + v (t - e) from d if v < 0. Their
paths meet at t = (v e - d [v < 0]) / (v - v_i), and they meet inside the
segment iff 0 < t < d / v_i. The transmit range enters packet counts and
connection times only, never the encounter decision itself.

An observer is set up once, by :func:`_observer`: its speed is checked
and its crossing sampler built. The sampler draws the crossers of a chunk
of trips at once and returns a :class:`Crossers` record, trip by trip; it
is one of two, chosen by the kind of traffic.

- Discrete traffic: the lookback sampler :func:`_crossing_arrivals` draws
  every trip's Poisson arrival count on its lookback window, then all
  entry times, then all velocities, and keeps the arrivals whose meeting
  time lies in ``(0, d / v_i)``. In place, the meeting times overwrite the
  entry times and the gaps v - v_i the velocities.
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
deviations as it goes, so it keeps no per-trial array. A download walks
its segments' packet events with :func:`_packet_arrival`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    InternalInconsistencyError,
    InvalidParameterError,
    NoProgressError,
)
from .fountain import (
    SLICED_TRIALS,
    DecoderState,
    FileSpec,
    VectorScheme,
    _TABLE_BYTES,
    _product,
    _row_bytes,
    decode,
    encode,  # noqa: F401  (perfbench/tracing.py wraps encounters.encode by name)
    fold,
    vector_batch_sampler,
)
from .traffic import Scenario, _log_ratio, _tail_integral, sample_velocities

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

# Bytes that one chunk of download trials may hold at once, by the bound of
# download_chunk_bytes. With 8-byte blocks 2 MiB holds 223 trials at K=40
# and 102 at K=100 (they peaked at 1.80 MB), where a chunk runs a trial in
# about a fifth of the time that trials one at a time take. Below
# SLICED_TRIALS a trial's kernel comes back, so chunks hold 6 trials at
# K=500 and one from K=961 on, as at K=1000; with 1 KiB blocks, one from
# K=178 on.
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


def _checked_speed(scenario: Scenario, observer_velocity: float) -> tuple[float, float, float]:
    """The checked observer speed, its travel time ``d / v`` and its station batch.

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
    if not math.isfinite(batch / ti):
        raise InvalidParameterError("scenario out of range: station rate packet_rate*r/d overflows")
    return vi, ti, batch


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


def _crossing_arrivals(
    scenario: Scenario, vi: float, ti: float, w0: float, rng: np.random.Generator, trips: int = 1
) -> Crossers:
    """Draw the background arrivals of ``trips`` trips of discrete traffic; keep the crossers.

    Each trip's arrivals are Poisson on its lookback window ``(w0, ti)``
    (see :func:`_observer`), ``ti`` the travel time of the observer at
    ``vi``. The draws are every trip's count, then all entry times, then
    all velocities, so one trip draws count, entry times, velocities. An
    arrival crosses iff its meeting time with the observer (see the module
    docstring) lies in ``(0, ti)``; a partner at the observer's speed never
    meets it. The crossers come in arrival order, so with the trips in
    order.
    """
    counts = rng.poisson(scenario.lam * (ti - w0), trips)  # no draw for a mean of 0
    n = int(counts.sum())
    meet = rng.uniform(w0, ti, n)
    gap, cls = sample_velocities(scenario.velocity, n, rng)
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
    return Crossers(gap[at], reverse[at], cls[at], trip, meet[at])


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
    ``(hi - lo)/lo - ln(hi/lo)`` and ``ln(hi/lo) - (hi - lo)/hi`` (see
    ``traffic._tail_integral``). Parts that no crosser can come from are
    left out, among them the tail of a piece with no float strictly inside:
    :func:`_tail_speeds` returns neither end.
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
            parts.append((scale * flat * (hi - lo), "flat", pa, pb))
            if math.nextafter(lo, hi) < hi:  # else no float inside for a tail speed
                parts.append((scale * _tail_integral(shape, lo, hi), shape, pa, pb))
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
    accepted speeds are kept. Neither end of the piece is ever returned: a
    proposal that rounds to one, as on a piece a few ulps wide, is rejected,
    so the piece must hold a float strictly inside.
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
            x *= hi
            kept = np.compress(test < x, u)
        else:  # u = hi e with e = (lo/hi)**x, accepted iff U (hi - lo)/hi + e < 1
            x *= -log_ratio
            e = np.exp(x, out=x)
            test *= (hi - lo) / hi
            test += e
            kept = np.compress(test < 1.0, e)
            kept *= hi
        kept = kept[: n - filled]
        if kept.size and not (lo < np.minimum.reduce(kept) and np.maximum.reduce(kept) < hi):
            kept = np.compress((lo < kept) & (kept < hi), kept)  # drop the proposals that rounded to an end
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
    ``(0, ti)``, are drawn last and only if ``times``. A gap past the
    largest float is inf, an encounter of 0 packets; callers silence
    NumPy's overflow warning.
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


class _Observer(NamedTuple):
    """An observer set up once by :func:`_observer`.

    ``v`` is the checked speed, ``ti`` its travel time ``d / v``, ``batch``
    its station batch ``packet_rate * r / v`` and ``expected`` the vehicles
    a trip's sampler expects to draw. ``draw(rng, trips=1, times=False)``
    returns the :class:`Crossers` of ``trips`` trips; continuous traffic
    draws meeting times only if ``times``.
    """

    v: float
    ti: float
    batch: float
    expected: float
    draw: Callable[..., Crossers]


def _refuse_crowded(expected: float, what: str) -> None:
    """Refuse a trip that expects more than :data:`MAX_EXPECTED_VEHICLES` ``what``."""
    if not expected <= MAX_EXPECTED_VEHICLES:
        raise InvalidParameterError(
            f"observer too slow: its trip expects {expected:.6g} {what}, "
            f"more than {MAX_EXPECTED_VEHICLES:.0e}"
        )


def _observer(scenario: Scenario, observer_velocity: float) -> _Observer:
    """Check an observer speed, then build its crossing sampler.

    After the checks of :func:`_checked_speed`, refuses a trip that expects
    more than :data:`MAX_EXPECTED_VEHICLES` arrivals (discrete traffic) or
    crossers (continuous traffic), and lookback-window partners whose
    ``v e - d`` overflows.
    """
    vi, ti, batch = _checked_speed(scenario, observer_velocity)
    if scenario.is_discrete:
        w0, expected = 0.0, 0.0  # no lookback window without traffic
        if scenario.lam > 0:
            vmin, vmax = scenario.speed_bounds()
            w0 = -(scenario.d / vmin + ARRIVAL_MARGIN_FACTOR * scenario.r / vmin)
            expected = scenario.lam * (ti - w0)
            _refuse_crowded(expected, "arrivals in its lookback window")
            if not math.isfinite(vmax * max(-w0, ti) + scenario.d):  # a meeting time's v e - d
                raise InvalidParameterError(f"scenario out of range: partners at {vmax:g} overflow")

        def draw(rng, trips=1, times=False):
            return _crossing_arrivals(scenario, vi, ti, w0, rng, trips)

    else:
        parts = _tilt_parts(scenario, vi) if scenario.lam > 0 else ()
        expected = math.fsum(mean for mean, *_ in parts)
        _refuse_crowded(expected, "crossings")

        def draw(rng, trips=1, times=False):
            return _tilted_crossings(parts, vi, ti, rng, trips, times)

    return _Observer(vi, ti, batch, expected, draw)


def simulate_trip(
    scenario: Scenario, observer_velocity: float, rng: np.random.Generator
) -> TripResult:
    """Simulate one traversal: draw its crossers (see the module docstring), sum their packets."""
    obs = _observer(scenario, observer_velocity)
    with np.errstate(over="ignore"):  # an inf gap gives 0 packets; inf packets are refused below
        crossers = obs.draw(rng)
        packets = _packets(crossers.gap, scenario.packet_rate, scenario.r)
        total = obs.batch + float(packets.sum())
    _refuse_overflow(total / obs.ti, "trip throughputs")
    per_class = ()
    if scenario.is_discrete:
        per_class = tuple(np.bincount(crossers.cls, minlength=scenario.velocity.m).tolist())
    return TripResult(
        observer_velocity=obs.v,
        travel_time=obs.ti,
        encounters_per_class=per_class,
        n_encounters=int(packets.size),
        infostation_packets=obs.batch,
        total_packets=total,
        throughput=total / obs.ti,
        forward_exchange_packets=float(packets[~crossers.reverse].sum()),
        reverse_exchange_packets=float(packets[crossers.reverse].sum()),
    )


def _trip_throughputs(scenario: Scenario, obs: _Observer, trials: int, rng: np.random.Generator):
    """Yield the throughputs of ``trials`` trips of ``obs``, one array per chunk, in order.

    A chunk holds as many trips as fit in :data:`CHUNK_VEHICLES` expected
    vehicles, and at least one.
    """
    packet_rate, r, batch, ti = scenario.packet_rate, scenario.r, obs.batch, obs.ti
    chunk = max(1, int(CHUNK_VEHICLES // max(obs.expected, 1.0)))
    for done in range(0, trials, chunk):
        trips = min(chunk, trials - done)
        crossers = obs.draw(rng, trips)
        packets = _packets(crossers.gap, packet_rate, r)
        if crossers.trip is None:
            yield np.full(1, (batch + packets.sum()) / ti)
        else:
            yield (batch + np.bincount(crossers.trip, weights=packets, minlength=trips)) / ti


def _refuse_overflow(value: float, label: str) -> None:
    """Refuse as input a ``value`` of ``label`` that overflowed: inf, or nan from an inf."""
    if not math.isfinite(value):
        raise InvalidParameterError(f"scenario out of range: {label} overflow past the largest float")


def merge_moments(moments: tuple, values: np.ndarray, label: str) -> tuple:
    """Merge a chunk of ``values`` into the running ``(count, mean, m2)``.

    ``m2`` is the sum of squared deviations from the mean. The chunk's own
    moments are merged by the pairwise update of Chan, Golub and LeVeque
    (1979), so a stream of chunks needs no per-value array. Start from
    ``(0, 0.0, 0.0)``. Values too large to square are refused as input,
    named by ``label``, since ``m2`` would be inf or nan; so is a mean
    that overflowed (see :func:`_refuse_overflow`).
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
    _refuse_overflow(mean, label)
    if not math.isfinite(m2):
        raise InvalidParameterError(
            f"{label} of about {mean:.6g} are too large to square for their variance"
        )
    return n, mean, m2


def _standard_error(moments: tuple) -> float:
    """The standard error of the mean of merged ``(count, mean, m2)``; 0.0 for one value."""
    n, _, m2 = moments
    return math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0


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
    obs = _observer(scenario, observer_velocity)
    moments = (0, 0.0, 0.0)
    with np.errstate(over="ignore"):  # an inf gap gives 0 packets; inf packets are refused as input
        for values in _trip_throughputs(scenario, obs, trials, rng):
            moments = merge_moments(moments, values, "trip throughputs")
    n, mean, _ = moments
    return MonteCarloEstimate(mean=mean, std_error=_standard_error(moments), trials=n)


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
    with np.errstate(divide="ignore", over="ignore"):  # a band holding vi, or an overflow
        packets = _packets(np.array(gaps), rate, r)
    whole = np.where(upper, packets > 1, packets >= 1)
    encounter = scenario.lam > 0 and whole.any()
    if not (encounter or infostation_download(vi, rate, r) >= 1):
        raise InvalidParameterError(
            f"observer speed {vi!r} never receives a packet: its station batch and "
            "every encounter's batch floor to 0 packets"
        )


def _packet_arrival(scenario: Scenario, obs: _Observer, needed: int, arrivals):
    """(segment, time offset, packets received) at packet ``needed``, or (None, 0.0, received).

    Walks up to :data:`MAX_SEGMENTS` segments. A segment opens with its
    whole station batch; its crossings are drawn only when the batch falls
    short, from the generator that ``arrivals()`` builds at the first such
    draw, and give their whole packets at their meeting times, in time
    order.
    """
    received, rng = 0, None
    for segment in range(MAX_SEGMENTS):
        received += math.floor(obs.batch)
        if received >= needed:
            return segment, 0.0, received
        if rng is None:
            rng = arrivals()
        with np.errstate(over="ignore"):  # an inf gap gives 0 packets, an inf count covers any need
            crossers = obs.draw(rng, times=True)
            counts = np.floor(_packets(crossers.gap, scenario.packet_rate, scenario.r))
        meet, whole = crossers.meet, counts > 0
        if not whole.all():
            meet, counts = meet[whole], counts[whole]
        for offset, count in sorted(zip(meet.tolist(), counts.tolist())):
            received += count
            if received >= needed:
                return segment, offset, received
    return None, 0.0, received


def _spawned(rng: np.random.Generator, seed: np.random.SeedSequence) -> np.random.Generator:
    """The generator that ``rng.spawn`` builds from the child seed ``seed`` of its seed sequence."""
    return type(rng)(type(rng.bit_generator)(seed))


def _draw_files(file: FileSpec, rngs: list[np.random.Generator]) -> np.ndarray:
    """One file per generator, ``trials x k x block_bytes``.

    Each file is the ``n = k * ceil(block_bytes / 4)`` uniform 32-bit words
    of one ``rng.integers(0, 2**32, n, dtype=np.uint32)`` draw, sliced as
    ``k`` separate ``rng.bytes(block_bytes)`` draws would give it (see
    :func:`~vanetsim.fountain.sample_uniform_vectors`). Those words are the
    low and then the high halves of ``ceil(n / 2)`` raw 64-bit outputs, so
    the file is one ``random_raw`` draw of the bit generator, read as
    little-endian bytes: the generator makes no other draw, so an odd
    ``n``'s unused half-word is never read.
    """
    size, words = file.block_bytes, (file.block_bytes + 3) // 4
    n = file.k * words
    files = np.empty((len(rngs), (n + 1) // 2), dtype="<u8")
    for row, rng in zip(files, rngs):
        row[:] = rng.bit_generator.random_raw(len(row))
    return files.view(np.uint8)[:, : 4 * n].reshape(len(rngs), file.k, 4 * words)[:, :, :size]


def download_chunk_bytes(file: FileSpec, trials: int) -> int:
    """Bytes that a chunk of ``trials`` downloads of ``file`` holds at most, at its peak.

    A chunk's own arrays a trial, plus its kernel's scratch, in bytes, a
    block's stride (its bytes in whole 32-bit words) and packed ``[vector |
    tag]`` rows. A trial holds 4416 bytes (generators, seeds, small arrays)
    and 16 strides and, a block, 24 bytes of flags and indices, 4 strides
    (the file and the stored, round's and decoded payloads) and 2.56 rows
    (the stored row, the fold's batch row and a packed vector). From
    :data:`~vanetsim.fountain.SLICED_TRIALS` trials on, the scratch is
    fixed (see :func:`~vanetsim.fountain._clear_block` and
    :func:`~vanetsim.fountain._product`): 12 KiB, three
    :data:`~vanetsim.fountain._TABLE_BYTES` and a product part's lookup of
    one trial's rows, a stride and 64 bytes a block. Below, 12 KiB and two
    :data:`~vanetsim.fountain._TABLE_BYTES`, and each trial's table and
    lookup: 192 rows and, a block, a row, a stride and 16 bytes. Fitted to
    the tracemalloc peaks of whole chunks of 1 to 200 trials, K from 1 to
    4096, 8-byte and 1 KiB blocks, uniform and LT vectors, all of which it
    covers by 1 % or more.
    """
    stride = 4 * ((file.block_bytes + 3) // 4)
    row = _row_bytes((file.k + 7) // 8)
    per_trial = 4416 + 16 * stride + file.k * (24 + 4 * stride + 41 * row // 16)
    if trials < SLICED_TRIALS:
        kernel = 192 * row + file.k * (row + stride + 16)
        return 12288 + 2 * _TABLE_BYTES + trials * (per_trial + kernel)
    return 12288 + 3 * _TABLE_BYTES + file.k * (stride + 64) + trials * per_trial


def download_chunk_trials(file: FileSpec) -> int:
    """Trials of :func:`simulate_download_times` whose chunk fits :data:`DOWNLOAD_CHUNK_BYTES`, at least one.

    As many as fit with the bounded kernel if they reach
    :data:`~vanetsim.fountain.SLICED_TRIALS`, else as many as fit with a
    kernel a trial.
    """
    many = download_chunk_bytes(file, SLICED_TRIALS)
    per_trial = (download_chunk_bytes(file, 2 * SLICED_TRIALS) - many) // SLICED_TRIALS
    fits = SLICED_TRIALS + (DOWNLOAD_CHUNK_BYTES - many) // per_trial
    if fits >= SLICED_TRIALS:
        return fits
    fixed = download_chunk_bytes(file, 0)
    return max(1, (DOWNLOAD_CHUNK_BYTES - fixed) // (download_chunk_bytes(file, 1) - fixed))


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
    ``i``-th ``rng.spawn(3)``, in that order. The chunk spawns the seeds
    of those children as ``rng.spawn`` does and builds the vector and file
    generators at once, but a trial builds its arrival generator, from the
    same child, only at its first draw of a segment's crossings; a trial
    whose station batches cover its packets never builds it. Every packet
    carries an independently sampled encoding vector.

    The vector stream alone fixes N, the packet whose vector brings the
    decoder to full rank, and the arrival stream alone fixes when packet N
    arrives, so a download runs in two phases. The decode phase runs the
    trials in lockstep rounds on one stacked
    :class:`~vanetsim.fountain.DecoderState`: as the rank grows by at most
    one a packet, a round draws ``k - rank + BATCH_MARGIN`` vectors for
    each unfinished trial with one sampler call, encodes all of them with
    one product and folds them with one :func:`~vanetsim.fountain.fold`,
    and the trials that reach full rank are decoded with
    :func:`~vanetsim.fountain.decode` and checked against their files, as
    many at a time as :data:`~vanetsim.fountain._TABLE_BYTES` of blocks
    hold (one at least). A
    sampler call of n vectors draws what n calls of one draw, and the
    innovative flags are those of one packet at a time, so N is that of one
    draw and one fold per packet. The arrival phase then walks each trial's
    packet events to packet N (see :func:`_packet_arrival`). Returns, per
    trial, (travel time consumed, packets received, segments fully or
    partially traversed) at packet N.

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
        _checked_speed(scenario, observers[0])  # the first trial fails on its speed first
        raise InvalidParameterError(
            f"file of {k} blocks exceeds the download limit of {MAX_DOWNLOAD_BLOCKS} blocks"
        )
    trips, seeds, refused, set_up = [], [], None, {}
    spawn = rng.bit_generator.seed_seq.spawn  # rng.spawn(3) without building generators
    for v in observers:
        if v not in set_up:  # each distinct speed is set up once, at its first trial
            try:
                obs = _observer(scenario, v)
                _refuse_packetless(scenario, obs.v)
            except InvalidParameterError as exc:
                refused = exc
                break
            set_up[v] = obs
        trips.append(set_up[v])
        seeds.append(spawn(3))  # arrivals, vectors, file
    sample = vector_batch_sampler(scheme, k)
    vector_rngs = [_spawned(rng, vector_seed) for _, vector_seed, _ in seeds]
    files = _draw_files(file, [_spawned(rng, file_seed) for _, _, file_seed in seeds])
    state = DecoderState(k, len(seeds)) if seeds else None
    flags: list[list[np.ndarray]] = [[] for _ in seeds]  # each round's innovative flags
    needed = np.zeros(len(seeds), dtype=np.intp)  # the packets drawn so far, N once decoded
    wrong = np.zeros(len(seeds), dtype=bool)
    active = np.arange(len(seeds))
    while active.size:
        counts = k + BATCH_MARGIN - state.ranks[active]
        vectors = np.zeros((len(active), counts.max(), (k + 7) // 8), dtype=np.uint8)
        for row, i, n in zip(vectors, active.tolist(), counts.tolist()):
            row[:n] = sample(vector_rngs[i], n)
        payloads = np.zeros((*vectors.shape[:2], file.block_bytes), dtype=np.uint8)
        _product(vectors, files if active.size == len(seeds) else files[active], payloads)
        innovative = fold(state, vectors, payloads, active)
        del vectors, payloads  # not held through the decode below
        for i, n, row in zip(active.tolist(), counts.tolist(), innovative):
            flags[i].append(row[:n])
        full = state.ranks[active] == k
        done = active[full]
        if done.size:  # packet N is the round's last innovative one; each decode is checked
            last = innovative.shape[1] - innovative[full, ::-1].argmax(axis=1)
            needed[done] += last
            per = max(1, _TABLE_BYTES // files[0].nbytes)  # trials whose blocks one check holds
            for lo in range(0, done.size, per):
                part = done[lo : lo + per]
                decoded = decode(state, part)
                np.bitwise_xor(decoded, files[part], out=decoded)
                wrong[part] = decoded.any(axis=(1, 2))
        needed[active[~full]] += counts[~full]
        active = active[~full]
    results = []
    for i, (obs, (arrival_seed, _, _)) in enumerate(zip(trips, seeds)):
        segment, offset, received = _packet_arrival(
            scenario, obs, int(needed[i]), lambda: _spawned(rng, arrival_seed)
        )
        if segment is None:
            rank = int(np.concatenate(flags[i])[: int(received)].sum())
            raise NoProgressError(f"decode rank {rank}/{k} after {MAX_SEGMENTS} segments")
        if wrong[i]:
            raise InternalInconsistencyError("decoded blocks disagree with the encoded file")
        results.append((segment * obs.ti + offset, int(needed[i]), segment + 1))
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
