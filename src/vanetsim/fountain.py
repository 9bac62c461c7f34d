"""Rateless XOR coding over GF(2).

Encoding vectors are bit strings of length ``k`` packed into Python ints
(bit ``i`` is the coefficient of block ``i``). A batch of vectors is a
``count x ceil(k / 8)`` ``uint8`` matrix of the same bits, LSB-first.
Vectors are drawn as such batches, uniform ones as 32-bit words with the
bytes of ``rng.bytes`` (:func:`sample_uniform_vector` is a batch of one).
Every product of packed vectors with rows, for several independent trials
at once, is one :func:`_product`: it builds XOR tables of the rows' 4-row
groups (the "method of four Russians") a bounded
:data:`_TABLE_BYTES` at a time and looks up each 4-bit digit of the
vectors, from :data:`SLICED_TRIALS` trials on a part of the trials at a
time. :func:`encode_batch` computes a batch's payloads with one product,
and :func:`encode` is a batch of one.

The decoder folds batches of packets into a reduced echelon basis of packed
``[vector | tag]`` rows, whose tags name the packets each row combines. A
:class:`DecoderState` holds the bases of one or several independent
trials as stacked arrays with a leading trials axis, written in place.
:func:`fold` folds one batch into each of several of its trials at once,
and :meth:`DecoderState.receive` folds one packet. One product
reduces a batch against each trial's stored pivots. The Gauss–Jordan
kernel eliminates 8 columns at a time after Albrecht and Bard's M4RI.
Below :data:`SLICED_TRIALS` stacked trials it builds one table a trial of
the block's pivot rows; from it on, two 16-entry tables a trial, of its
pivot rows 0-3 and 4-7, built and looked up a slab of trials at a time,
so that no temporary of a many-trial fold, or of a many-trial product,
outgrows :data:`_TABLE_BYTES` and a chunk's scratch does not grow with
its trials. Each of a block's NumPy steps serves every trial (of a slab),
so the per-call cost that dominates small decodes is paid about once per
chunk of trials. The kernel's pivots are the
earliest rows that raise the rank, so a batch's innovative packets are
those of one packet at a time. Two searches find a block's pivots, and the
fold's trial count alone chooses: below :data:`SLICED_TRIALS` a greedy
insertion in Python, one trial at a time (:func:`_greedy_pivots`); from it
on a column elimination of every trial at once over bit-sliced Python ints
(:func:`_sliced_pivots`). Both return the same pivot record, per trial and
block column the pivot columns whose rows XOR to its new pivot row and
that pivot's row, and the kernel alone turns the record into tables, maps
and XORs. At full rank the tags are the inverse of the innovative packets'
vectors, and the blocks are one more product, of the tags with the kept
payloads: :func:`decode` recovers the blocks of several trials with one
product, and :meth:`DecoderState.try_decode` is a decode of one. A download
needs N, the packet that brings its decoder to full rank, and a checked
decode: :func:`decode_trials` finds both for a chunk of downloads at once.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class FileSpec:
    """A file split into ``k`` blocks of ``l`` bits each."""

    k: int
    l: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParameterError("block count k must be >= 1")
        if self.l < 1:
            raise InvalidParameterError("block size l must be >= 1 bit")

    @property
    def block_bytes(self) -> int:
        return (self.l + 7) // 8


@dataclass(frozen=True)
class EncodingVector:
    """Length-``k`` coefficient vector, packed LSB-first into ``bits``."""

    bits: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParameterError("vector length k must be >= 1")
        if not 0 <= self.bits < (1 << self.k):
            raise InvalidParameterError("bits outside the k-bit range")


@dataclass(frozen=True)
class Packet:
    vector: EncodingVector
    payload: bytes


@dataclass(frozen=True)
class SolitonParams:
    """Parameters of the robust soliton degree distribution.

    ``epsilon`` is the decode-failure target carried alongside c and delta;
    it only enters the packet-count threshold, never the sampler.
    """

    c: float
    delta: float
    epsilon: float

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise InvalidParameterError("c must be positive and finite")
        if not 0 < self.delta < 1:
            raise InvalidParameterError("delta must lie in (0, 1)")
        if not 0 < self.epsilon < 1:
            raise InvalidParameterError("epsilon must lie in (0, 1)")

    def spike_scale(self, k: int) -> float:
        """The expected ripple size c*sqrt(k)*ln(k/delta)."""
        return self.c * math.sqrt(k) * math.log(k / self.delta)


@dataclass(frozen=True)
class UniformScheme:
    """Encoding vectors drawn uniformly from all 2^k bit patterns."""


@dataclass(frozen=True)
class LtScheme:
    """Encoding vectors with robust-soliton degrees and uniform support."""

    params: SolitonParams


VectorScheme = Union[UniformScheme, LtScheme]


def robust_soliton_pmf(k: int, params: SolitonParams) -> np.ndarray:
    """Degree probabilities for degrees 1..k (index 0 holds degree 1).

    Ideal component: rho(1) = 1/k, rho(d) = 1/(d(d-1)). Spike component:
    tau(d) = S/(kd) below the spike index floor(k/S), tau(spike) =
    S*ln(S/delta)/k, zero above. The sum is normalized to one.
    """
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    s = params.spike_scale(k)
    if s >= k:
        raise InvalidParameterError(
            f"spike index out of range: c*sqrt(k)*ln(k/delta) = {s:.6g} >= k = {k}"
        )
    spike = math.floor(k / s)
    degrees = np.arange(1, k + 1, dtype=float)
    rho = np.zeros(k)
    rho[0] = 1.0 / k
    rho[1:] = 1.0 / (degrees[1:] * (degrees[1:] - 1.0))
    tau = np.where(degrees < spike, s / (k * degrees), 0.0)
    if spike <= k:
        tau[spike - 1] = s * math.log(s / params.delta) / k
    mu = rho + tau
    if mu.min() < 0.0:
        raise InvalidParameterError("negative spike mass: requires S >= delta")
    return mu / mu.sum()


def sample_uniform_vectors(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` vectors, each coefficient independently with probability 1/2.

    Returns the packed ``count x ceil(k / 8)`` batch, a view of one draw of
    ``count * ceil(ceil(k / 8) / 4)`` uniform 32-bit words read as
    little-endian bytes. ``rng.bytes(n)`` draws exactly these words and
    returns their first ``n`` bytes, so row ``p`` holds the bytes, and the
    generator is left in the state, of the ``p + 1``-th of ``count``
    separate ``rng.bytes(ceil(k / 8))`` calls. The all-zero vector is a
    legal sample.
    """
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    nbytes = (k + 7) // 8
    words = (nbytes + 3) // 4
    vectors = _word_bytes(rng, count * words).reshape(count, 4 * words)[:, :nbytes]
    vectors[:, -1] &= 0xFF >> (-k % 8)
    return vectors


def _word_bytes(rng: np.random.Generator, n: int) -> np.ndarray:
    """``4 n`` random bytes: ``n`` uniform 32-bit words, little-endian, as ``rng.bytes(4 n)`` draws them."""
    return rng.integers(0, 1 << 32, n, dtype=np.uint32).astype("<u4", copy=False).view(np.uint8)


def sample_uniform_vector(k: int, rng: np.random.Generator) -> EncodingVector:
    """Draw each coefficient independently with probability 1/2.

    The all-zero vector is a legal sample.
    """
    packed = sample_uniform_vectors(k, 1, rng)
    return EncodingVector(int.from_bytes(packed.tobytes(), "little"), k)


def vector_batch_sampler(
    scheme: VectorScheme, k: int
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Bind a scheme to a vector length, precomputing any degree tables.

    The result draws ``count`` vectors as a packed ``count x ceil(k / 8)``
    batch (see :func:`sample_uniform_vectors`). Under :class:`LtScheme` each
    vector draws its degree, then its support, one vector after another.
    """
    if isinstance(scheme, UniformScheme):
        return lambda rng, count: sample_uniform_vectors(k, count, rng)
    if isinstance(scheme, LtScheme):
        cdf = np.cumsum(robust_soliton_pmf(k, scheme.params))
        nbytes = (k + 7) // 8

        def sample(rng: np.random.Generator, count: int) -> np.ndarray:
            rows = []
            for _ in range(count):
                degree = int(np.searchsorted(cdf, rng.random(), side="right")) + 1
                bits = 0
                for i in rng.choice(k, size=min(degree, k), replace=False):
                    bits |= 1 << int(i)
                rows.append(bits.to_bytes(nbytes, "little"))
            return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(count, nbytes)

        return sample
    raise InvalidParameterError(f"unknown scheme: {scheme!r}")


def _xor_tables(rows: np.ndarray, width: int) -> np.ndarray:
    """XOR tables of the consecutive ``width``-row groups of each trial's rows.

    ``rows`` is ``trials x n x size``. Row ``c * trials + t`` of table ``g``
    in the ``ceil(n / width) x (2**width * trials) x size`` result is the
    XOR of trial ``t``'s rows ``width * g + i`` whose bit ``i`` is set in
    ``c``; a short last group acts as if padded with zero rows. The tables
    of all groups are built together, one vectorised XOR step per row of a
    group, each step doubling the entries built so far. With the trials'
    copies of an entry side by side, a step is one contiguous XOR over
    every trial's rows. A table replaces up to ``width`` row XORs by one
    lookup per target row: the "method of four Russians" of Albrecht and
    Bard's M4RI library.
    """
    trials, n, size = rows.shape
    rows = rows.swapaxes(0, 1)
    if n % width:
        rows = np.concatenate((rows, np.zeros((-n % width, trials, size), dtype=rows.dtype)))
    ngroups = len(rows) // width
    # a copy unless there is one trial: each trial's rows of a group side by side
    groups = np.ascontiguousarray(rows).reshape(ngroups, width, 1, trials, size)
    tables = np.empty((ngroups, 1 << width, trials, size), dtype=rows.dtype)
    tables[:, 0] = 0
    for i in range(width):
        np.bitwise_xor(tables[:, : 1 << i], groups[:, i], out=tables[:, 1 << i : 2 << i])
    return tables.reshape(ngroups, trials << width, size)


# Bytes of 4-row XOR tables that a product builds at a time: a
# group's 16-entry table takes four times the 4 rows it covers. Building
# all of a K=256, 1 KiB decode's 1 MiB at once raised a download's peak heap
# enough that the allocator handed memory back to the system after every
# download and took it back page by page: about 850 page faults and 0.7 ms
# per download. That download ran as fast with 64 KiB as with 256 KiB a step.
_TABLE_BYTES = 1 << 16


def _product(packed: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """XOR into ``out`` the GF(2) products of packed bit matrices with some rows.

    ``packed`` is ``trials x count x nbytes``, ``rows`` ``trials x n x
    size`` and ``out`` a contiguous ``trials x count x size`` array: bit
    ``j`` (LSB-first) of row ``p`` of trial ``t`` selects ``rows[t, j]``
    into ``out[t, p]``. Trials go in parts (see :func:`_product_part`): all
    at once below :data:`SLICED_TRIALS`, else as many as one gather of all
    their rows, and its index, fit :data:`_TABLE_BYTES` (one at least), so
    that no temporary of a many-trial product grows with its trials.
    """
    trials, count, _ = packed.shape
    per = trials
    if trials >= SLICED_TRIALS:
        per = _even(trials, max(1, _TABLE_BYTES // (count * max(rows.shape[2], 8))))
    for t0 in range(0, trials, per):
        _product_part(packed[t0 : t0 + per], rows[t0 : t0 + per], out[t0 : t0 + per])


def _product_part(packed: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """:func:`_product` of one part of the trials.

    The rows' 4-row XOR tables (see :func:`_xor_tables`) are built
    :data:`_TABLE_BYTES` at a time (one group at least), the digits of one
    trial at once and of several a step at a time, as many as also fit the
    budget, and each group takes one NumPy gather, a table lookup per 4-bit
    digit, for every trial of the part at once.
    """
    trials, count, nbytes = packed.shape
    size = rows.shape[2]
    out = out.reshape(trials * count, size)  # a view: out is contiguous
    groups = _TABLE_BYTES // (16 * trials * size)  # the groups whose tables fit
    digits = None
    if trials == 1:
        digits = _digits(packed)
    else:  # and whose digits, two bytes each a row, fit
        groups = min(groups, _TABLE_BYTES // (2 * trials * count))
    step = 4 * max(1, groups)
    for lo in range(0, rows.shape[1], step):
        first = lo // 4  # the step's first group, and its column of digits
        if trials > 1:
            digits = _digits(packed[:, :, lo // 8 : -(-(lo + step) // 8)])
            first %= 2
        for g, table in enumerate(_xor_tables(rows[:, lo : lo + step], 4), first):
            out ^= table.take(digits[g].astype(np.intp), axis=0)


def _digits(packed: np.ndarray) -> np.ndarray:
    """The 4-bit digits of ``trials x count x nbytes`` packed rows as rows of :func:`_xor_tables`.

    Row ``g`` of the ``2 nbytes x trials * count`` result holds digit ``g``
    (the low nibble of byte ``g // 2`` if ``g`` is even, else its high one)
    of each packed row, trial by trial, written straight in the width that
    indexes the tables: digit ``d`` of trial ``t`` reads table row ``d *
    trials + t``.
    """
    trials, count, nbytes = packed.shape
    dtype = np.uint8 if trials == 1 else np.uint16 if 16 * trials <= 1 << 16 else np.uint32
    digits = np.empty((nbytes, 2, trials, count), dtype=dtype)
    packed = packed.transpose(2, 0, 1)
    np.bitwise_and(packed, 0x0F, out=digits[:, 0])
    np.right_shift(packed, 4, out=digits[:, 1])
    digits = digits.reshape(2 * nbytes, trials * count)
    if trials > 1:
        digits *= trials
        digits += np.repeat(np.arange(trials, dtype=dtype), count)
    return digits


def encode_batch(blocks: Sequence[bytes], vectors: np.ndarray) -> np.ndarray:
    """Payloads of a batch of packets, one row per packed vector.

    ``blocks`` is a file's blocks, at least one, all of the same size of at
    least one byte. ``vectors`` is a packed ``count x ceil(k / 8)`` batch;
    row ``p`` of the ``count x size`` result is the XOR of the blocks that
    row ``p`` selects: one :func:`_product` with the blocks.
    """
    if len(blocks) < 1:
        raise InvalidParameterError("need at least one block")
    size = len(blocks[0])
    if size < 1:
        raise InvalidParameterError("blocks must be at least one byte")
    if any(len(b) != size for b in blocks):
        raise InvalidParameterError("blocks must all have the same size")
    nbytes = vectors.shape[1]
    if nbytes != (len(blocks) + 7) // 8:
        raise InvalidParameterError(
            f"packed vectors of {nbytes} bytes do not fit {len(blocks)} blocks"
        )
    matrix = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(1, len(blocks), size)
    out = np.zeros((1, len(vectors), size), dtype=np.uint8)
    _product(vectors[None], matrix, out)
    return out[0]


def encode(blocks: Sequence[bytes], vector: EncodingVector) -> Packet:
    """XOR together the blocks selected by the vector's nonzero coefficients.

    A batch of one of :func:`encode_batch`, which callers with many vectors
    at hand should use.
    """
    k = vector.k
    if len(blocks) != k:
        raise InvalidParameterError(f"expected {k} blocks, got {len(blocks)}")
    packed = np.frombuffer(vector.bits.to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
    return Packet(vector, encode_batch(blocks, packed[None])[0].tobytes())


@dataclass(frozen=True)
class NotYetDecodable:
    """Returned by ``try_decode`` while the basis is rank deficient."""

    rank: int


# Entry [j, d]: bit j of the byte d.
_BYTE_BITS = ((np.arange(256) >> np.arange(8)[:, None]) & 1).astype(np.uint8)
_ROOM = 8 - _BYTE_BITS.sum(axis=0)  # the clear bits of a byte
_LOW_BIT = _BYTE_BITS.argmax(axis=0)  # the lowest set bit of a nonzero byte
_PIVOT_BITS = (1 << np.arange(8)).astype(np.uint8)  # entry c: the bit of column c


def _row_bytes(nbytes: int) -> int:
    """Bytes of a packed ``[vector | tag]`` row: ``2 * nbytes``, rounded up to 64-bit words."""
    return 8 * ((2 * nbytes + 7) // 8)


# Rows (sliced search) or candidates (greedy search) of a trial that a pivot
# search reads first; a trial left short of its free columns reads twice as
# many next. With 16, about 3 % of the trials of a uniform 100-trial K=100
# fold fell short of 8 pivots in a block's first window, so nearly every
# block ran the sliced search twice; 20 made re-runs rare and the fold's
# searches 0.7x as long (24: 0.75x, 32: 0.85x).
_WINDOW = 20


def _greedy_pivots(masked: np.ndarray, taken: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """A block's new pivots by greedy insertion, one trial at a time in Python.

    ``masked`` is ``trials x count``: the block digits of the free rows,
    zero for the other rows, and ``taken[t]`` is trial ``t``'s taken byte
    of the block. None if no digit is nonzero. Each trial with nonzero
    digits (its candidates) inserts them into a reduced basis in arrival
    order until the basis fills the block's free columns, each chosen row
    named by its pivot bit. A trial rarely reads more than its first few
    candidates, so they become Python ints :data:`_WINDOW` at a time, each
    window twice the last. Returns the pivot record of
    :func:`_gauss_jordan`: ``trials x 8`` combinations and pivot rows.
    """
    trials, count = masked.shape
    masked = masked.ravel()
    cand = masked.nonzero()[0]
    if not cand.size:
        return None
    digits = masked[cand]
    bounds = np.searchsorted(cand, np.arange(trials + 1) * count).tolist()
    rooms = taken.tolist()
    combos = [0] * (8 * trials)
    pivots = [0] * (8 * trials)
    for t in range(trials):
        lo, end = bounds[t], bounds[t + 1]
        room = 8 - rooms[t].bit_count()
        basis: list[list[int]] = []  # [pivot bit, reduced digit, pivot bits of its rows]
        window = _WINDOW
        while lo < end and len(basis) < room:
            hi = min(end, lo + window)
            for row, d in zip(cand[lo:hi].tolist(), digits[lo:hi].tolist()):
                mix = 0
                for bit, reduced, parts in basis:
                    if d & bit:
                        d ^= reduced
                        mix ^= parts
                if d:
                    bit = d & -d
                    mix |= bit
                    for entry in basis:
                        if entry[1] & bit:
                            entry[1] ^= d
                            entry[2] ^= mix
                    basis.append([bit, d, mix])
                    pivots[8 * t + bit.bit_length() - 1] = row
                    if len(basis) == room:
                        break
            lo, window = hi, 2 * window
        for bit, _, mix in basis:
            combos[8 * t + bit.bit_length() - 1] = mix
    return (
        np.array(combos, dtype=np.uint8).reshape(trials, 8),
        np.array(pivots, dtype=np.intp).reshape(trials, 8),
    )


_SHIFTS = np.arange(8, dtype=np.uint8)[:, None]

# Elimination at column c updates the digit columns after c (ints 0-7) and
# the pivot marks of the columns before it (ints 8-15).
_ABSORB = [(*range(c + 1, 8), *range(8, 8 + c)) for c in range(8)]


def _sliced_pivots(masked: np.ndarray, taken: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """A block's new pivots by column elimination of every trial at once.

    Takes what :func:`_greedy_pivots` takes. The block's 8 digit columns are
    bit-sliced into Python ints: field ``i`` of int ``c`` holds bit ``c`` of
    the digits of ``window`` rows of a trial, from its first candidate on,
    under a guard bit that keeps each field's subtractions inside it.
    Column by column, each trial's earliest remaining candidate with the
    column's bit becomes its pivot and is XORed into the trial's other rows
    with that bit, together with 8 more ints that mark the pivots each row
    has absorbed. The earliest-row rule picks the rows that raise the rank,
    each at the column where the greedy search puts it (both reveal the
    rank profile matrix of Dumas, Pernet and Sultan), so the pivot rows and
    their final combinations are those of :func:`_greedy_pivots`. A trial
    that found fewer pivots than free columns, with candidates past its
    window, runs again with twice the window, which finds the same pivots
    again and overwrites their combinations. Returns what
    :func:`_greedy_pivots` returns.
    """
    trials, count = masked.shape
    nonzero = masked != 0
    start = nonzero.argmax(axis=1)  # each trial's first candidate
    todo = np.flatnonzero(nonzero[np.arange(trials), start])
    if not todo.size:
        return None
    combos = np.zeros((trials, 8), dtype=np.uint8)
    pivots = np.zeros((trials, 8), dtype=np.intp)
    window = _WINDOW
    while todo.size:
        n, field = len(todo), window + 1
        padded = np.zeros((trials, count + field), dtype=np.uint8)
        padded[:, :count] = masked
        grid = padded.take((todo * (count + field) + start[todo])[:, None] + np.arange(field))
        grid[:, window] = 0
        planes = np.packbits((grid.reshape(1, -1) >> _SHIFTS) & 1, axis=1, bitorder="little")
        nb, raw = planes.shape[1], planes.tobytes()
        state = [int.from_bytes(raw[nb * c : nb * (c + 1)], "little") for c in range(8)] + [0] * 8
        ones = ((1 << n * field) - 1) // ((1 << field) - 1)  # bit 0 of every field
        guard = ones << window
        free = guard - ones
        low = [0] * 8  # per column: each trial's pivot row
        for c in range(8):
            cand = state[c] & free
            if not cand:
                continue
            pivot = cand & ~((cand | guard) - ones)  # each field's lowest set bit
            fill = ((pivot | guard) - ones) & guard
            fill -= fill >> window  # the window of every trial with a pivot
            rest = (state[c] ^ pivot) & fill
            if rest:
                for j in _ABSORB[c]:
                    x = state[j] & pivot
                    if x:  # the guards of the trials whose pivot has bit j, spread
                        x = (fill + x) & guard
                        state[j] ^= (x - (x >> window)) & rest
            state[8 + c] = pivot | rest
            free ^= pivot
            low[c] = pivot
        raw = np.frombuffer(b"".join(v.to_bytes(nb, "little") for v in low + state[8:]), np.uint8)
        bits = np.unpackbits(raw.reshape(2, 8, nb), axis=2, count=n * field, bitorder="little")
        bits <<= _SHIFTS
        cols, mixes = bits.sum(axis=1, dtype=np.uint8)  # per row: its pivot bit, its marks
        at = np.flatnonzero(cols)
        i = at // field
        shift = todo * count + start[todo] - np.arange(n) * field  # from window bit to flat row
        trial, col = todo[i], _LOW_BIT[cols[at]]
        combos[trial, col] = mixes[at]
        pivots[trial, col] = at + shift[i]
        lack = np.bincount(i, minlength=n) < _ROOM[taken[todo]]
        todo = todo[lack]
        if todo.size:  # trials short of their room with candidates past the window
            last = count - 1 - nonzero[todo, ::-1].argmax(axis=1)
            todo = todo[last >= start[todo] + window]
        window *= 2
    return combos, pivots


# Trials from which _gauss_jordan searches pivots with _sliced_pivots (and,
# counted in the decoder state, clears blocks with _clear_block) and _product
# goes in parts. Two searches stay because neither is fastest on both sides
# of this count, and the trial count alone selects one (2-core x86-64 guest,
# interleaved runs).
# Timed alone, a block costs the greedy search 15-20 us a trial and the
# sliced one about 60 us plus 1 us a trial, 21 us of it in its Python-int
# elimination at one trial; forced on every fold, the sliced search took a
# one-trial K=256 download from 9.3 to 12.4 ms. Whole download chunks ran at
# 1.04x the greedy time with the sliced search at 8 trials, 0.93-0.97x at 10
# and 0.90x at 13 (K = 40, 100 and 256). A windowless sliced search (whole
# rows as one field, no re-runs) ran 25-30 % slower than the greedy one at
# one trial and 6-25 % slower than the windowed one on 50-trial K=100 chunks.
# A column elimination over a plain trials x count uint16 array of digits
# and pivot marks (argmax pivots, broadcast XORs) ran 1.05x the sliced time
# for 50 trials at K=100 and 1.17x for 13 at K=256; only LT chunks, whose
# sparse digits double the sliced window, ran faster with it (0.94x).
SLICED_TRIALS = 10


def _gauss_jordan(
    rows: np.ndarray, first: int, taken: np.ndarray, stacked: int | None = None
) -> np.ndarray:
    """Gauss–Jordan elimination of packed ``[vector | tag]`` rows, in place.

    ``rows`` is a contiguous ``trials x count x width`` array: for each of
    several independent trials, rows of ``nbytes`` bytes of vector, as many
    of tag, and zero bytes up to ``width``, a multiple of 8 (see
    :func:`_row_bytes`). In every trial the rows from ``first`` on are
    free, in arrival order: they may still become pivots, and every row
    before them already is one (or is zero). ``taken`` is ``trials x
    nbytes``: bit ``c % 8`` of ``taken[t, c // 8]`` marks column ``c`` of
    trial ``t`` as a pivot column, or as padding past the vector length.
    The rows reach reduced echelon form, pivots at their lowest set bit, 8
    columns at a time:

    - In a block, a trial's new pivot rows are its earliest free rows, in
      arrival order, whose digits (the block's byte) are independent. Below
      :data:`SLICED_TRIALS` trials :func:`_greedy_pivots` finds them one
      trial at a time; from it on :func:`_sliced_pivots` finds them for all
      trials at once. Both return the same pivot record, two ``trials x 8``
      arrays: per trial and block column, its combination (the pivot
      columns whose rows XOR to its new pivot row, 0 where the column gained
      no pivot) and its pivot's flat row (0 where none).
    - From the record alone come the new pivot columns (the OR of a trial's
      combinations), XOR tables of each trial's pivot rows, each tagged by
      its column (row 0, which no digit selects, stands in for the columns
      without one), and a 256-entry map per trial from a digit to the
      table rows that clear the block's new pivot columns from every other
      row, those of the XOR ``mix`` of the digit's combinations: the
      "method of four Russians" of Albrecht and Bard's M4RI. A new pivot
      row becomes the table rows of its own column's bit, so it names the
      rows it combines in its tag by their pivot columns. ``stacked`` is
      the trial count of the decoder state that the rows fold into (the
      rows' own if None). Below :data:`SLICED_TRIALS` each trial gets one
      table of its ``2**m`` XORs, ``m`` the block's highest new pivot
      column plus one, and each row one lookup, every step one NumPy call
      for all trials. From it on each trial gets two 16-entry tables, of
      pivot rows 0-3 and 4-7, and each row a lookup in both, a slab of
      trials at a time (:func:`_clear_block`), so that no temporary
      outgrows :data:`_TABLE_BYTES`, also when only a chunk's last
      unfinished trials fold.

    A free row is only ever XORed with pivot rows that arrived before it, so
    it ends at zero exactly when it lies in the span of the rows before it:
    the new pivots are the rows that raise the rank, the row rank profile of
    Dumas, Pernet and Sultan (ISSAC 2013). Zero rows (padding) never become
    pivots. Table rows are zero in vector bytes left of the block. With no
    stored pivots (``first`` 0) they are also zero in tag bytes past the
    block, as a tag names only pivot columns found so far. Rows are XORed as
    64-bit words, skipping the 64-byte spans where the table rows are zero.
    Returns each row's new pivot column, -1 for rows that gained none, as a
    ``trials x count`` array, and updates ``taken``.
    """
    trials, count, width = rows.shape
    nbytes = taken.shape[1]
    flat = rows.reshape(trials * count, width)
    words = flat.view(np.uint64)
    free = np.zeros((trials, count), dtype=np.uint8)
    free[:, first:] = 0xFF
    free = free.ravel()
    bounded = (trials if stacked is None else stacked) >= SLICED_TRIALS
    search = _sliced_pivots if trials >= SLICED_TRIALS else _greedy_pivots
    trial_index = np.arange(trials)[:, None]
    if trials > 1 and not bounded:
        map_base = np.repeat(256 * trial_index, count)  # a row's trial in the digit maps
    pivot_maps = (256 * trial_index + _PIVOT_BITS).ravel()
    pivot_cols = np.full(trials * count, -1, dtype=np.int16)
    for b in np.flatnonzero((taken != 0xFF).any(axis=0)).tolist():
        digits = flat[:, b]
        found = search((digits & free).reshape(trials, count), taken[:, b])
        if found is None:
            continue
        combos, pivots = found
        new = np.packbits(combos, axis=1, bitorder="little").ravel()  # the OR of the combinations
        np.bitwise_or(taken[:, b], new, out=taken[:, b])
        m = 8 if bounded else max(new.tolist()).bit_length()
        # Table rows are zero left of block b and, with no stored pivots, in
        # tag bytes right of it: the XORs below skip such 64-byte spans.
        lo = b // 64 * 8
        hi = min(width // 8, -(-(width if first else nbytes + b + 1) // 64) * 8)
        # source c of trial t: its pivot row of column c, tagged with bit c
        # (row 0, which no map reads, where c gained no pivot)
        source = flat.take(pivots[:, :m], axis=0)
        tags = source[:, :, nbytes + b]
        tags |= _PIVOT_BITS[:m]
        source = source.view(np.uint64)[:, :, lo:hi]
        # a new pivot row, record index 8 t + c, becomes the XOR its combination names
        new_at = combos.ravel().nonzero()[0]
        at = pivots.ravel().take(new_at)
        if bounded:
            spans = words.reshape(trials, count, -1)[:, :, lo:hi]
            _clear_block(spans, digits.reshape(trials, count), source, combos, new_at, at)
        else:
            table = _xor_tables(source, m)[0]
            # digit d of trial t clears its new pivot columns with table row
            # maps[t, d] = mix * trials + t, mix the XOR of its bits' combinations
            maps = np.bitwise_xor.reduce(_BYTE_BITS * combos[:, :, None], axis=1).astype(np.intp)
            keys = digits
            if trials > 1:
                maps *= trials
                maps += trial_index
                keys = digits + map_base
            words[:, lo:hi] ^= table.take(maps.ravel().take(keys), axis=0)
            # pivot c of trial t becomes table row maps[t, 1 << c]
            words[at, lo:hi] = table.take(maps.ravel().take(pivot_maps.take(new_at)), axis=0)
        free[at] = 0
        pivot_cols[at] = (new_at & 7) + 8 * b
    return pivot_cols.reshape(trials, count)


def _even(n: int, most: int) -> int:
    """The size of the fewest even parts of ``n`` items of at most ``most`` each."""
    return -(-n // -(-n // most))


def _clear_block(
    words: np.ndarray, digits: np.ndarray, source: np.ndarray, combos: np.ndarray, new_at, at
) -> None:
    """The many-trial clearing of one block of :func:`_gauss_jordan`, in place.

    ``words`` is the ``trials x count x span`` view of the words that the
    block's tables cover, ``digits`` the rows' block bytes, ``source`` the
    ``trials x 8 x span`` tagged pivot rows, ``combos`` the pivot record's
    combinations, and ``at`` and ``new_at`` the new pivot rows' flat rows
    and record indices. A 256-entry map a trial, built by doubling, takes a
    digit to its mix and the mix to a row of each of two 16-entry tables of
    sources 0-3 and 4-7. Tables are built for as many trials as fit
    :data:`_TABLE_BYTES` (the last range padded with zero sources, so all
    ranges share a layout) and looked up a slab of rows at a time, each
    gather within :data:`_TABLE_BYTES`. A new pivot row, zeroed and given
    its own column's bit as digit, becomes the XOR its combination names.
    """
    trials, count, span = words.shape
    maps = np.empty((256, trials), dtype=np.uint8)  # maps[d, t]: trial t's mix of digit d
    maps[0] = 0
    for c, combo in enumerate(combos.T):
        np.bitwise_xor(maps[: 1 << c], combo, out=maps[1 << c : 2 << c])
    digits = digits.copy()
    digits.reshape(-1)[at] = _PIVOT_BITS[new_at & 7]
    words.reshape(-1, span)[at] = 0
    line = 8 * span
    size = _even(trials, max(1, _TABLE_BYTES // (32 * line)))  # trials a range of tables holds
    trial = np.arange(trials, dtype=np.uint16) % size
    low = (maps & 0x0F).astype(np.uint16)
    low *= size
    low += trial
    high = (maps >> 4).astype(np.uint16)
    high *= size
    high += trial + 16 * size
    low, high = low.T.copy(), high.T.copy()  # trial t's row for digit d at 256 t + d
    base = 256 * np.arange(trials)[:, None]
    fit = max(1, _TABLE_BYTES // line)  # rows whose lookups fit
    per, sub = _even(size, max(1, fit // count)), min(count, fit)
    for t0 in range(0, trials, size):
        t1 = min(trials, t0 + size)
        pivots = source[t0:t1]
        if t1 - t0 < size:
            pad = np.zeros((size - (t1 - t0), 8, span), dtype=pivots.dtype)
            pivots = np.concatenate((pivots, pad))
        tables = _xor_tables(pivots, 4).reshape(32 * size, span)
        for s0 in range(t0, t1, per):
            s1 = min(t1, s0 + per)
            for r0 in range(0, count, sub):
                key = digits[s0:s1, r0 : r0 + sub] + base[s0:s1]
                rows = words[s0:s1, r0 : r0 + sub]
                rows ^= tables.take(low.take(key), axis=0).reshape(rows.shape)
                rows ^= tables.take(high.take(key), axis=0).reshape(rows.shape)


def _selection(trials) -> slice | np.ndarray:
    """Index of ``trials`` into a state's stacked arrays: a slice, reading views, for consecutive trials."""
    if trials is None:
        return slice(None)
    index = np.asarray(trials, dtype=np.intp)
    if len(index) and (np.diff(index) == 1).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def fold(state: DecoderState, vectors: np.ndarray, payloads: np.ndarray, trials=None) -> np.ndarray:
    """Fold one batch of packets into each of several trials of a decoder state, in row order.

    ``trials`` names the distinct trials of ``state`` that the batch feeds,
    in the batch's order (every trial, in order, if None). ``vectors`` is
    ``len(trials) x count x ceil(k / 8)``, row ``t`` the packed vectors
    (see :func:`sample_uniform_vectors`) of trial ``trials[t]``, and
    ``payloads`` the matching ``len(trials) x count x size`` ``uint8``
    payloads, ``size`` fixed for the state's lifetime. A trial with fewer
    packets pads its batch with zero rows, which are never innovative.
    Returns the ``len(trials) x count`` flags, True where a packet raised
    its trial's rank: those of one packet at a time. One product reduces
    every batch against its trial's stored pivots, one
    :func:`_gauss_jordan` pass finds the new pivots of all trials, and
    scatters into the stacked arrays store them in place, for as many
    trials at a time as one gather of their rows and payloads within
    :data:`_TABLE_BYTES` holds (one at least).
    """
    k = state.k
    nbytes = (k + 7) // 8
    index = _selection(trials)
    ranks = state.ranks[index]
    if vectors.ndim != 3 or vectors.shape[0] != len(ranks) or vectors.shape[2] != nbytes:
        raise InvalidParameterError(
            f"packed vectors of shape {vectors.shape[1:]} do not fit length {k}"
        )
    if (vectors[..., -1] >> (k - 8 * (nbytes - 1))).any():
        raise InvalidParameterError(f"packed vectors have bits beyond length {k}")
    if payloads.ndim != 3 or payloads.shape[:2] != vectors.shape[:2]:
        raise InvalidParameterError("need one payload row per vector")
    if state._payloads is None:
        if payloads.shape[2] < 1:
            raise InvalidParameterError("payloads must be at least one byte")
        state._payloads = np.zeros((len(state.ranks), k, payloads.shape[2]), dtype=np.uint8)
    if payloads.shape[2] != state._payloads.shape[2]:
        raise InvalidParameterError("payload size changed mid-stream")
    innovative = np.zeros(vectors.shape[:2], dtype=bool)
    live = ranks < k
    if not live.any() or not innovative.size:
        return innovative
    if not live.all():
        live = np.flatnonzero(live)
        index = np.arange(len(state.ranks))[index][live]
        vectors, payloads, ranks = vectors[live], payloads[live], ranks[live]
    n, count = vectors.shape[:2]
    first = k if ranks.any() else 0  # rows before first: the stored pivots
    width = _row_bytes(nbytes)
    rows = batch = np.zeros((n, count, width), dtype=np.uint8)
    batch[:, :, :nbytes] = vectors
    if first:  # reduce the batch against the stored pivots, then append it to them
        rows = np.empty((n, first + count, width), dtype=np.uint8)
        if isinstance(index, slice):
            rows[:, :first] = state._rows[index]
        else:  # a trial at a time: a gather would copy every trial's pivots once more
            for t, i in enumerate(index.tolist()):
                rows[t, :first] = state._rows[i]
        _product(vectors, rows[:, :first], batch)
        rows[:, first:] = batch
    taken = state._taken[index]
    pivot_cols = _gauss_jordan(rows, first, taken, len(state.ranks))[:, first:]
    innovative[live] = new = pivot_cols >= 0
    state._taken[index] = taken
    if first:  # the stored pivots, with the new pivot columns cleared
        state._rows[index] = rows[:, :first]
    stacked = np.arange(len(state.ranks))[index]
    per = max(1, _TABLE_BYTES // (count * (width + payloads.shape[2])))  # trials one gather holds
    for t0 in range(0, n, per):
        t, at = new[t0 : t0 + per].nonzero()
        t += t0
        cols = pivot_cols[t, at]
        state._rows[stacked[t], cols] = rows[t, first + at]
        state._payloads[stacked[t], cols] = payloads[t, at]
    state.ranks[index] += new.sum(axis=1)
    return innovative


class DecoderState:
    """Incremental rank trackers and decoders over packed rows, one per trial.

    Each of ``trials`` independent trials keeps a basis in reduced echelon
    form as packed ``[vector | tag]`` rows of ``2 * ceil(k / 8)`` bytes
    (padded to whole 64-bit words), row ``c`` holding the pivot row of
    column ``c`` (zero while column ``c`` has none). The packet that became
    a pivot at column ``c`` has its payload stored in slot ``c``, and bit
    ``c`` of a row's tag says that slot ``c`` is part of the row. The rows,
    taken bytes and payloads of all trials are stacked arrays with a leading
    trials axis, allocated once and written in place; ``ranks`` holds each
    trial's rank. :func:`fold` folds one batch into each of several trials
    at once, and :func:`decode` decodes several full-rank trials at once.
    At full rank the vectors are the identity, so the tags are the selector
    (which slots XOR to each block), and a decode is one product of the
    selector with the payloads. A one-trial state also has ``rank``,
    ``receive`` (a fold of one packet) and ``try_decode`` (a decode of one).
    """

    def __init__(self, k: int, trials: int = 1):
        if k < 1:
            raise InvalidParameterError("k must be >= 1")
        if trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        self.k = k
        nbytes = (k + 7) // 8
        self._rows = np.zeros((trials, k, _row_bytes(nbytes)), dtype=np.uint8)
        self._taken = np.zeros((trials, nbytes), dtype=np.uint8)
        self._taken[:, -1] = (0xFF << (k - 8 * (nbytes - 1))) & 0xFF
        self._payloads: np.ndarray | None = None  # trials x k x size, from the first fold on
        self.ranks = np.zeros(trials, dtype=np.intp)

    @property
    def rank(self) -> int:
        """The rank of a one-trial state (a state of several trials has ``ranks``)."""
        (rank,) = self.ranks.tolist()
        return rank

    def receive(self, packet: Packet) -> bool:
        """Fold one packet: a :func:`fold` of one. True iff it raised the rank."""
        k = packet.vector.k
        if k != self.k:
            raise InvalidParameterError(f"vector length {k} != decoder length {self.k}")
        vector = np.frombuffer(packet.vector.bits.to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
        payload = np.frombuffer(packet.payload, dtype=np.uint8)
        return bool(fold(self, vector[None, None], payload[None, None])[0, 0])

    def try_decode(self) -> list[bytes] | NotYetDecodable:
        """Recover the original blocks, or report the current rank: a :func:`decode` of one."""
        if self.rank < self.k:
            return NotYetDecodable(self.rank)
        return [row.tobytes() for row in decode(self)[0]]


def decode(state: DecoderState, trials=None) -> np.ndarray:
    """The blocks that full-rank trials of a decoder state recover, ``len(trials) x k x size``.

    Row ``i`` of result ``t`` is block ``i`` of trial ``trials[t]`` (of
    every trial, in order, if None): the XOR of the stored payloads that its
    tag names. One product of the trials' tags with their payloads serves
    every trial; the tags and payloads of a run of consecutive trials are
    read in place, not copied.
    """
    index = _selection(trials)
    if (state.ranks[index] < state.k).any():
        raise InvalidParameterError("a decoder is short of full rank")
    nbytes = state._taken.shape[1]
    tags, payloads = state._rows[index, :, nbytes : 2 * nbytes], state._payloads[index]
    blocks = np.zeros(payloads.shape, dtype=np.uint8)
    _product(tags, payloads, blocks)
    return blocks


# Bytes that one chunk of download trials may hold at once, by the bound of
# download_chunk_bytes. With 8-byte blocks 2 MiB holds 223 trials at K=40 and
# 102 at K=100 (they peaked at 1.80 MB), where a chunk runs a trial in about a
# fifth of the time that trials one at a time take. Below SLICED_TRIALS a
# trial's kernel comes back, so chunks hold 6 trials at K=500 and one from
# K=961 on, as at K=1000; with 1 KiB blocks, one from K=178 on.
DOWNLOAD_CHUNK_BYTES = 1 << 21

# A download folds BATCH_MARGIN packets more in a round than the k - rank
# it still needs (uniform vectors need more than 8 extra with
# probability below 2**-8).
BATCH_MARGIN = 8


def _draw_files(file: FileSpec, rngs: list[np.random.Generator]) -> np.ndarray:
    """One file per generator, ``trials x k x block_bytes``.

    Each file is the ``n = k * ceil(block_bytes / 4)`` uniform 32-bit words
    that ``k`` separate ``rng.bytes(block_bytes)`` draws would give (see
    :func:`sample_uniform_vectors`): the low and then the high halves of
    ``ceil(n / 2)`` raw 64-bit outputs, so one ``random_raw`` draw of the
    bit generator, read as little-endian bytes. The generator makes no
    other draw, so an odd ``n``'s unused half-word is never read.
    """
    size, words = file.block_bytes, (file.block_bytes + 3) // 4
    n = file.k * words
    files = np.empty((len(rngs), (n + 1) // 2), dtype="<u8")
    for row, rng in zip(files, rngs):
        row[:] = rng.bit_generator.random_raw(len(row))
    return files.view(np.uint8)[:, : 4 * n].reshape(len(rngs), file.k, 4 * words)[:, :, :size]


def decode_trials(
    file: FileSpec, scheme: VectorScheme, vector_rngs: Sequence, file_rngs: Iterable
) -> tuple[np.ndarray, Callable[[int, int], int], np.ndarray]:
    """Each trial's N, its rank at any packet count, and True where its decode disagrees with its file.

    Trial ``t`` of a chunk of downloads of ``file`` draws its vectors from
    ``vector_rngs[t]`` and its file from the ``t``-th of ``file_rngs``,
    which one :func:`_draw_files` consumes; ``rank(t, n)`` is the rank of
    its first ``n`` packets. Each lockstep round on one stacked
    :class:`DecoderState` draws ``k - rank + BATCH_MARGIN`` vectors an
    unfinished trial with one sampler call, encodes them with one
    :func:`_product`, folds them with one :func:`fold` and drops them, then
    checks the full-rank trials, :data:`_TABLE_BYTES` of blocks at a time.
    """
    k = file.k
    sample = vector_batch_sampler(scheme, k)
    files = _draw_files(file, list(file_rngs))
    trials = len(vector_rngs)
    state = DecoderState(k, trials) if trials else None
    flags: list[list[np.ndarray]] = [[] for _ in range(trials)]  # each round's innovative flags
    needed = np.zeros(trials, dtype=np.intp)  # the packets drawn so far, N once decoded
    wrong = np.zeros(trials, dtype=bool)
    active = np.arange(trials)
    while active.size:
        counts = k + BATCH_MARGIN - state.ranks[active]
        vectors = np.zeros((len(active), counts.max(), (k + 7) // 8), dtype=np.uint8)
        for row, i, n in zip(vectors, active.tolist(), counts.tolist()):
            row[:n] = sample(vector_rngs[i], n)
        payloads = np.zeros((*vectors.shape[:2], file.block_bytes), dtype=np.uint8)
        _product(vectors, files if active.size == trials else files[active], payloads)
        innovative = fold(state, vectors, payloads, active)
        del vectors, payloads  # not held through the decode below
        for i, n, row in zip(active.tolist(), counts.tolist(), innovative):
            flags[i].append(row[:n])
        full = state.ranks[active] == k
        done = active[full]
        if done.size:  # N is the round's last innovative packet; each decode is checked
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
    return needed, lambda t, n: int(np.concatenate(flags[t])[:n].sum()), wrong


def download_chunk_bytes(file: FileSpec, trials: int) -> int:
    """Bytes that a chunk of ``trials`` downloads of ``file`` holds at most, at its peak.

    A chunk's own arrays a trial, plus its kernel's scratch, in bytes, a
    block's stride (its bytes in whole 32-bit words) and packed ``[vector |
    tag]`` rows. A trial holds 4416 bytes (generators, seeds, small arrays)
    and 16 strides and, a block, 24 bytes of flags and indices, 4 strides
    (the file and the stored, round's and decoded payloads) and 2.56 rows
    (the stored row, the fold's batch row and a packed vector). From
    :data:`SLICED_TRIALS` trials on, the scratch is fixed (see
    :func:`_clear_block` and :func:`_product`): 12 KiB, three
    :data:`_TABLE_BYTES` and a product part's lookup of one trial's rows, a
    stride and 64 bytes a block. Below, 12 KiB and two :data:`_TABLE_BYTES`,
    and each trial's table and lookup: 192 rows and, a block, a row, a
    stride and 16 bytes. Fitted to the tracemalloc peaks of whole chunks of
    1 to 200 trials, K from 1 to 4096, 8-byte and 1 KiB blocks, uniform and
    LT vectors, all of which it covers by 1 % or more.
    """
    stride = 4 * ((file.block_bytes + 3) // 4)
    row = _row_bytes((file.k + 7) // 8)
    per_trial = 4416 + 16 * stride + file.k * (24 + 4 * stride + 41 * row // 16)
    if trials < SLICED_TRIALS:
        kernel = 192 * row + file.k * (row + stride + 16)
        return 12288 + 2 * _TABLE_BYTES + trials * (per_trial + kernel)
    return 12288 + 3 * _TABLE_BYTES + file.k * (stride + 64) + trials * per_trial


def download_chunk_trials(file: FileSpec) -> int:
    """Download trials of ``file`` whose chunk fits :data:`DOWNLOAD_CHUNK_BYTES`, at least one.

    As many as fit with the bounded kernel if they reach
    :data:`SLICED_TRIALS`, else as many as fit with a kernel a trial.
    """
    many = download_chunk_bytes(file, SLICED_TRIALS)
    per_trial = (download_chunk_bytes(file, 2 * SLICED_TRIALS) - many) // SLICED_TRIALS
    fits = SLICED_TRIALS + (DOWNLOAD_CHUNK_BYTES - many) // per_trial
    if fits >= SLICED_TRIALS:
        return fits
    fixed = download_chunk_bytes(file, 0)
    return max(1, (DOWNLOAD_CHUNK_BYTES - fixed) // (download_chunk_bytes(file, 1) - fixed))


def packets_needed(k: int, epsilon: float, scheme: VectorScheme) -> int:
    """Packet count after which decoding fails with probability <= epsilon.

    Uniform vectors need k + ceil(log2(1/epsilon)); robust-soliton vectors
    need ceil(k + 2*S*log2(S/epsilon)) with S the spike scale. Both are
    ceiling-rounded to whole packets.
    """
    if not 0 < epsilon < 1:
        raise InvalidParameterError("epsilon must lie in (0, 1)")
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    if isinstance(scheme, UniformScheme):
        return k + math.ceil(-math.log2(epsilon))
    if isinstance(scheme, LtScheme):
        s = scheme.params.spike_scale(k)
        if s < 1.0:
            raise InvalidParameterError(
                f"threshold formula needs c*sqrt(k)*ln(k/delta) >= 1, got {s:.6g}"
            )
        return math.ceil(k + 2.0 * s * math.log2(s / epsilon))
    raise InvalidParameterError(f"unknown scheme: {scheme!r}")


def span_probability(k: int, n: int) -> float:
    """Probability that n uniform vectors span the k-dimensional space.

    Equals prod_{i=0}^{k-1} (1 - 2^(i-n)) for n >= k and 0 otherwise.
    """
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    if n < 0:
        raise InvalidParameterError("n must be >= 0")
    if n < k:
        return 0.0
    prob = 1.0
    for i in range(k):
        prob *= 1.0 - 2.0 ** (i - n)
    return prob
