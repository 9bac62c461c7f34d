"""Rateless XOR coding over GF(2).

Encoding vectors are bit strings of length ``k`` packed into Python ints
(bit ``i`` is the coefficient of block ``i``). A batch of vectors is a
``count x ceil(k / 8)`` ``uint8`` matrix of the same bits, LSB-first.
Vectors are drawn as such batches (:func:`sample_uniform_vector` is a batch
of one). :func:`encode_batch` computes a batch's payloads as one GF(2)
product over XOR tables of the file's 4-row groups (the "method of four
Russians"), and :func:`encode` is a batch of one.

The decoder folds batches of packets into a reduced echelon basis of packed
``[vector | tag]`` rows, whose tags name the packets each row combines.
:func:`fold` folds one batch into each of several independent decoders
(trials) at once, and :meth:`DecoderState.receive_batch` is a fold of one.
The products and the Gauss–Jordan kernel carry a leading trial axis: the
kernel eliminates 8 columns at a time with one XOR table per trial and
block, after Albrecht and Bard's M4RI, and each of a block's NumPy steps
serves every trial, so the per-call cost that dominates small decodes is
paid once per chunk of trials. XOR tables are laid out entry-major, the
trials' copies of an entry side by side, so each doubling step of a table
build is one contiguous XOR over every trial. The kernel's pivots are the
earliest rows that raise the rank, so a batch's innovative packets are
those of one packet at a time. Two searches find a block's pivots, and the
fold's trial count alone chooses: below :data:`SLICED_TRIALS` a greedy
insertion in Python, one trial at a time (:func:`_greedy_pivots`); from it
on a column elimination of every trial at once over bit-sliced Python ints
(:func:`_sliced_pivots`). Both return the same pivot record, per trial and
block column the pivot columns whose rows XOR to its new pivot row and
that pivot's row, and the kernel alone turns the record into tables, maps
and XORs. At full rank the tags are the inverse of the innovative packets'
vectors, and the blocks are one more 4-row-table product, of the tags with
the kept payloads: :func:`decode` recovers the blocks of several decoders
with one product, and :meth:`DecoderState.try_decode` is a decode of one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
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

    Returns the packed ``count x ceil(k / 8)`` batch. It comes from one
    ``rng.bytes`` call of ``count * 4 * ceil(ceil(k / 8) / 4)`` bytes:
    ``rng.bytes(n)`` consumes ``ceil(n / 4)`` 32-bit draws, so row ``p``
    holds the bytes, and leaves the generator in the state, of the
    ``p + 1``-th of ``count`` separate ``rng.bytes(ceil(k / 8))`` calls.
    The all-zero vector is a legal sample.
    """
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    nbytes = (k + 7) // 8
    stride = 4 * ((nbytes + 3) // 4)
    raw = np.frombuffer(rng.bytes(count * stride), dtype=np.uint8)
    vectors = raw.reshape(count, stride)[:, :nbytes].copy()
    vectors[:, -1] &= 0xFF >> (-k % 8)
    return vectors


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
    """XOR tables of the consecutive ``width``-row groups of ``rows``.

    ``rows`` is ``... x n x size``, any leading axes (trials) kept apart.
    Entry ``[g, c, ...]`` of the ``ceil(n / width) x 2**width x ... x size``
    result, groups first and the leading axes after the entry axis, is the
    XOR of the rows ``width * g + i`` whose bit ``i`` is set in ``c``; a
    short last group acts as if padded with zero rows. The tables of all
    groups are built together, one vectorised XOR step per row of a group,
    each step doubling the entries built so far. With the entry axis before
    the trials, a step is one contiguous XOR over every trial's rows. A
    table replaces up to ``width`` row XORs by one lookup per target row:
    the "method of four Russians" of Albrecht and Bard's M4RI library.
    """
    *lead, n, size = rows.shape
    trials = math.prod(lead)
    rows = rows.reshape(trials, n, size).swapaxes(0, 1)
    if n % width:
        rows = np.concatenate((rows, np.zeros((-n % width, trials, size), dtype=rows.dtype)))
    ngroups = len(rows) // width
    # a copy unless there is one trial: each trial's rows of a group side by side
    groups = np.ascontiguousarray(rows).reshape(ngroups, width, 1, trials, size)
    tables = np.empty((ngroups, 1 << width, trials, size), dtype=rows.dtype)
    tables[:, 0] = 0
    for i in range(width):
        np.bitwise_xor(tables[:, : 1 << i], groups[:, i], out=tables[:, 1 << i : 2 << i])
    return tables.reshape(ngroups, 1 << width, *lead, size)


def _product(
    packed: np.ndarray, tables: Iterable[np.ndarray], out: np.ndarray, trials=None
) -> None:
    """XOR into ``out`` the GF(2) products of packed bit matrices with some rows.

    ``packed`` is ``n x count x nbytes`` and ``out`` a contiguous
    ``n x count x size`` array. Bit ``j`` (LSB-first) of row ``p`` of
    trial ``t`` selects row ``j`` of that trial's matrix, whose 4-row XOR
    tables ``tables`` yields in group order: one ``16 x ntables x size``
    array per group, entry-major (see :func:`_xor_tables`), of which trial
    ``t`` reads the tables at ``trials[t]`` (default ``t``). The XOR of the
    selected rows goes into ``out[t, p]``. The product takes one table
    lookup per 4-bit digit, one NumPy gather per group for every trial at
    once.
    """
    n, count, nbytes = packed.shape
    digits = np.stack((packed & 0x0F, packed >> 4), axis=-1).reshape(n * count, 2 * nbytes)
    out = out.reshape(n * count, out.shape[-1])  # a view: out is contiguous
    for g, table in enumerate(tables):
        ntables, size = table.shape[1:]
        if not g and ntables > 1:  # digit d of trial t reads row d * ntables + trials[t]
            at = np.arange(n) if trials is None else np.asarray(trials)
            digits = digits.astype(np.uint16 if 16 * ntables <= 1 << 16 else np.uint32)
            digits *= ntables
            digits += np.repeat(at, count).astype(digits.dtype)[:, None]
        out ^= table.reshape(16 * ntables, size).take(digits[:, g].astype(np.intp), axis=0)


# Bytes of 4-row XOR tables that a decoder's products build at a time: a
# group's 16-entry table takes four times the 4 rows it covers. Building
# all of a K=256, 1 KiB decode's 1 MiB at once raised a download's peak heap
# enough that the allocator handed memory back to the system after every
# download and took it back page by page: about 850 page faults and 0.7 ms
# per download. That download ran as fast with 64 KiB as with 256 KiB a step.
_TABLE_BYTES = 1 << 16


def _chunked_tables(rows: np.ndarray) -> Iterator[np.ndarray]:
    """The 4-row XOR tables of ``trials x n x size`` rows, one group at a time.

    Yields a ``16 x trials x size`` array per group (see :func:`_xor_tables`),
    building at most ``_TABLE_BYTES`` of tables at a time.
    """
    trials, n, size = rows.shape
    # the groups whose 16 x trials x size tables fit, 4 rows each
    step = 4 * max(1, _TABLE_BYTES // (16 * trials * size))
    for lo in range(0, n, step):
        yield from _xor_tables(rows[:, lo : lo + step], 4)


def encode_batch(blocks: Sequence[bytes], vectors: np.ndarray) -> np.ndarray:
    """Payloads of a batch of packets, one row per packed vector.

    ``blocks`` is a file's blocks, at least one, all of the same size of at
    least one byte. ``vectors`` is a packed ``count x ceil(k / 8)`` batch;
    row ``p`` of the ``count x size`` result is the XOR of the blocks that
    row ``p`` selects. The product takes one table lookup per 4-bit digit
    of the vectors, over XOR tables of the blocks' 4-row groups built for
    this call.
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
    _product(vectors[None], _chunked_tables(matrix), out)
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


def _greedy_pivots(masked: np.ndarray, taken: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """A block's new pivots by greedy insertion, one trial at a time in Python.

    ``masked`` is ``trials x count``: the block digits of the free rows,
    zero for the other rows, and ``taken[t]`` is trial ``t``'s taken byte
    of the block. None if no digit is nonzero. Each trial with nonzero
    digits (its candidates) inserts them into a reduced basis in arrival
    order until the basis fills the block's free columns, each chosen row
    named by its pivot bit. Returns the pivot record of
    :func:`_gauss_jordan`: ``trials x 8`` combinations and pivot rows.
    """
    trials, count = masked.shape
    masked = masked.ravel()
    cand = masked.nonzero()[0]
    if not cand.size:
        return None
    cand_r, cand_d = cand.tolist(), masked[cand].tolist()
    rooms = taken.tolist()
    combos = [0] * (8 * trials)
    pivots = [0] * (8 * trials)
    i = 0
    while i < len(cand_r):
        t = cand_r[i] // count
        end = bisect_left(cand_r, (t + 1) * count, i)
        room = 8 - rooms[t].bit_count()
        basis: list[list[int]] = []  # [pivot bit, reduced digit, pivot bits of its rows]
        for row, d in zip(cand_r[i:end], cand_d[i:end]):
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
        for bit, _, mix in basis:
            combos[8 * t + bit.bit_length() - 1] = mix
        i = end
    return (
        np.array(combos, dtype=np.uint8).reshape(trials, 8),
        np.array(pivots, dtype=np.intp).reshape(trials, 8),
    )


# Rows of a trial, from its first candidate on, that the sliced search reads
# first; a trial left short of its free columns reads twice as many next.
_WINDOW = 16

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


# Trials from which _gauss_jordan searches pivots with _sliced_pivots. Two
# searches stay because neither is fastest on both sides of this count, and
# the trial count alone selects one (2-core x86-64 guest, interleaved runs).
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


def _gauss_jordan(rows: np.ndarray, first: int, taken: np.ndarray) -> np.ndarray:
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
      combinations), a table per trial of the XORs of its pivot rows, each
      tagged by its column (row 0, which no map reads, stands in for the
      columns without one), and a 256-entry map per trial from a digit to
      the table row that clears the block's new pivot columns from every
      other row, ``mix * trials + t`` for the XOR ``mix`` of the digit's
      combinations: the "method of four Russians" of Albrecht and Bard's
      M4RI. A new pivot row becomes the table row of its own column's bit,
      so it names the rows it combines in its tag by their pivot columns.
      The tables, the maps and the clearing are each one NumPy step for all
      trials together, so a block's NumPy calls serve every trial.

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
    trial_index = np.arange(trials)[:, None]
    map_base = np.repeat(256 * trial_index, count)  # a row's trial in the digit maps
    search = _sliced_pivots if trials >= SLICED_TRIALS else _greedy_pivots
    pivot_maps = (256 * trial_index + _PIVOT_BITS).ravel()
    pivot_cols = np.full(trials * count, -1, dtype=np.intp)
    for b in np.flatnonzero((taken != 0xFF).any(axis=0)).tolist():
        digits = flat[:, b]
        found = search((digits & free).reshape(trials, count), taken[:, b])
        if found is None:
            continue
        combos, pivots = found
        new = np.packbits(combos, axis=1, bitorder="little").ravel()  # the OR of the combinations
        np.bitwise_or(taken[:, b], new, out=taken[:, b])
        m = max(new.tolist()).bit_length()
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
        table = _xor_tables(source, m)[0].reshape(trials << m, hi - lo)
        # digit d of trial t clears its new pivot columns with table row
        # maps[t, d] = mix * trials + t, mix the XOR of its bits' combinations
        maps = np.bitwise_xor.reduce(_BYTE_BITS * combos[:, :, None], axis=1).astype(np.intp)
        maps *= trials
        maps += trial_index
        words[:, lo:hi] ^= table.take(maps.ravel().take(digits + map_base), axis=0)
        # a new pivot row, record index 8 t + c, becomes table row maps[t, 1 << c]
        new_at = combos.ravel().nonzero()[0]
        at = pivots.ravel().take(new_at)
        words[at, lo:hi] = table.take(maps.ravel().take(pivot_maps.take(new_at)), axis=0)
        free[at] = 0
        pivot_cols[at] = (new_at & 7) + 8 * b
    return pivot_cols.reshape(trials, count)


def fold(decoders: Sequence[DecoderState], vectors: np.ndarray, payloads: np.ndarray) -> np.ndarray:
    """Fold one batch of packets into each of several decoders, in row order.

    ``vectors`` is ``trials x count x ceil(k / 8)``, trial ``t``'s packed
    vectors (see :func:`sample_uniform_vectors`) for ``decoders[t]``, and
    ``payloads`` the matching ``trials x count x size`` ``uint8`` payloads,
    ``size`` fixed for each decoder's lifetime. A trial with fewer packets
    pads its batch with zero rows, which are never innovative. Returns the
    ``trials x count`` flags, True where a packet raised its decoder's
    rank: those of one packet at a time. One product reduces every batch
    against its decoder's stored pivots, and one :func:`_gauss_jordan` pass
    finds and stores the new pivots of all trials.
    """
    k = decoders[0].k
    nbytes = (k + 7) // 8
    if any(d.k != k for d in decoders):
        raise InvalidParameterError("decoders of different lengths")
    if vectors.ndim != 3 or vectors.shape[0] != len(decoders) or vectors.shape[2] != nbytes:
        raise InvalidParameterError(
            f"packed vectors of shape {vectors.shape[1:]} do not fit length {k}"
        )
    if (vectors[..., -1] >> (k - 8 * (nbytes - 1))).any():
        raise InvalidParameterError(f"packed vectors have bits beyond length {k}")
    if payloads.ndim != 3 or payloads.shape[:2] != vectors.shape[:2]:
        raise InvalidParameterError("need one payload row per vector")
    for d in decoders:
        if d._payloads is None:
            if payloads.shape[2] < 1:
                raise InvalidParameterError("payloads must be at least one byte")
            d._payloads = np.zeros((k, payloads.shape[2]), dtype=np.uint8)
        if payloads.shape[2] != d._payloads.shape[1]:
            raise InvalidParameterError("payload size changed mid-stream")
    innovative = np.zeros(vectors.shape[:2], dtype=bool)
    live = [t for t, d in enumerate(decoders) if d._rank < k]
    if not live or not innovative.size:
        return innovative
    if len(live) < len(decoders):
        vectors, payloads = vectors[live], payloads[live]
    states = [decoders[t] for t in live]
    trials, count = vectors.shape[:2]
    first = k if any(d._rank for d in states) else 0  # rows before first: the stored pivots
    width = _row_bytes(nbytes)
    rows = batch = np.zeros((trials, count, width), dtype=np.uint8)
    batch[:, :, :nbytes] = vectors
    if first:  # reduce the batch against the stored pivots, then append it to them
        rows = np.empty((trials, first + count, width), dtype=np.uint8)
        np.stack([d._rows for d in states], out=rows[:, :first])
        _product(vectors, _chunked_tables(rows[:, :first]), batch)
        rows[:, first:] = batch
    taken = np.stack([d._taken for d in states])
    pivot_cols = _gauss_jordan(rows, first, taken)[:, first:]
    innovative[live] = new = pivot_cols >= 0
    for t, d in enumerate(states):
        at = np.flatnonzero(new[t])
        cols = pivot_cols[t, at]
        if first:
            d._rows = rows[t, :k]
        d._rows[cols] = rows[t, first + at]
        d._payloads[cols] = payloads[t, at]
        d._taken = taken[t]
        d._rank += len(at)
    return innovative


class DecoderState:
    """Incremental rank tracker and decoder over packed rows.

    The basis is kept in reduced echelon form as packed ``[vector | tag]``
    rows of ``2 * ceil(k / 8)`` bytes (padded to whole 64-bit words), row
    ``c`` holding the pivot row of
    column ``c`` (zero while column ``c`` has none). The packet that became
    a pivot at column ``c`` has its payload stored in slot ``c``, and bit
    ``c`` of a row's tag says that slot ``c`` is part of the row. Batches
    are folded by :func:`fold`, which folds one batch into each of several
    decoders at once; ``receive_batch`` is a fold of one. At full rank the
    vectors are the identity, so the tags are the selector (which slots XOR
    to each block), and ``try_decode`` is one product of the selector with
    the payloads.
    """

    def __init__(self, k: int):
        if k < 1:
            raise InvalidParameterError("k must be >= 1")
        self.k = k
        nbytes = (k + 7) // 8
        self._rows = np.zeros((k, _row_bytes(nbytes)), dtype=np.uint8)
        self._taken = np.zeros(nbytes, dtype=np.uint8)
        self._taken[-1] = (0xFF << (k - 8 * (nbytes - 1))) & 0xFF
        self._payloads: np.ndarray | None = None
        self._rank = 0

    @property
    def rank(self) -> int:
        return self._rank

    def receive_batch(self, vectors: np.ndarray, payloads: np.ndarray) -> np.ndarray:
        """Fold a batch of packets, in row order; True where a packet raised the rank.

        ``vectors`` is a packed ``count x ceil(k / 8)`` batch (see
        :func:`sample_uniform_vectors`) and ``payloads`` a ``count x size``
        ``uint8`` matrix, ``size`` fixed for the decoder's lifetime.
        """
        if vectors.ndim != 2 or payloads.ndim != 2:
            raise InvalidParameterError("need 2-d batches of vectors and payloads")
        return fold([self], vectors[None], payloads[None])[0]

    def receive(self, packet: Packet) -> bool:
        """Fold one packet: a batch of one. True iff it raised the rank."""
        k = packet.vector.k
        if k != self.k:
            raise InvalidParameterError(f"vector length {k} != decoder length {self.k}")
        vector = np.frombuffer(packet.vector.bits.to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
        payload = np.frombuffer(packet.payload, dtype=np.uint8)
        return bool(self.receive_batch(vector[None], payload[None])[0])

    def try_decode(self) -> list[bytes] | NotYetDecodable:
        """Recover the original blocks, or report the current rank: a :func:`decode` of one."""
        if self._rank < self.k:
            return NotYetDecodable(self._rank)
        return [row.tobytes() for row in decode([self])[0]]


def decode(decoders: Sequence[DecoderState]) -> np.ndarray:
    """The blocks that several full-rank decoders recover, ``trials x k x size``.

    Row ``i`` of trial ``t`` is block ``i`` of ``decoders[t]``: the XOR of
    the stored payloads that its tag names. The decoders share ``k`` and
    the payload size. One product of the stacked tags with the stacked
    payloads' 4-row tables serves every trial; a single decoder's tags and
    payloads are read in place, not copied.
    """
    k = decoders[0].k
    if any(d.k != k for d in decoders):
        raise InvalidParameterError("decoders of different lengths")
    if any(d.rank < k for d in decoders):
        raise InvalidParameterError("a decoder is short of full rank")
    nbytes = len(decoders[0]._taken)
    tags = [d._rows[:, nbytes : 2 * nbytes] for d in decoders]
    payloads = [d._payloads for d in decoders]
    if any(p.shape != payloads[0].shape for p in payloads):
        raise InvalidParameterError("decoders with different payload sizes")
    if len(decoders) == 1:  # views, not copies
        tags, payloads = tags[0][None], payloads[0][None]
    else:
        tags, payloads = np.stack(tags), np.stack(payloads)
    blocks = np.zeros(payloads.shape, dtype=np.uint8)
    _product(tags, _chunked_tables(payloads), blocks)
    return blocks


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
