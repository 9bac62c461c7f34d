"""Rateless XOR coding over GF(2).

Encoding vectors are bit strings of length ``k`` packed into Python ints
(bit ``i`` is the coefficient of block ``i``). A batch of vectors is a
``count x ceil(k / 8)`` ``uint8`` matrix of the same bits, LSB-first.
Vectors are drawn as such batches (:func:`sample_uniform_vector` is a batch
of one). A file's blocks are checked once and held as a ``k x size``
``uint8`` matrix (:class:`Blocks`), together with XOR tables of its 4-row
groups built on first use. :func:`encode_batch` computes a batch's payloads
as one GF(2) product over those tables (the "method of four Russians"), and
:func:`encode` is a batch of one.

The decoder folds batches of packets into a reduced echelon basis of packed
``[vector | tag]`` rows, whose tags name the packets each row combines. One
Gauss–Jordan kernel does the elimination, 8 columns at a time with one XOR
table per block, after Albrecht and Bard's M4RI. Its pivots are the
earliest rows that raise the rank, so a batch's innovative packets are
those of one packet at a time. At full rank the tags are the inverse of the
innovative packets' vectors, and the blocks are one more 4-row-table
product, of the tags with the kept payloads.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
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
        if not self.c > 0:
            raise InvalidParameterError("c must be positive")
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

    Entry ``[g, c]`` of the ``ceil(n / width) x 2**width x size`` result is
    the XOR of the rows ``width * g + i`` whose bit ``i`` is set in ``c``; a
    short last group acts as if padded with zero rows. The tables of all
    groups are built together, one vectorised XOR step per row of a group,
    each step doubling the entries built so far. A table replaces up to
    ``width`` row XORs by one lookup per target row: the "method of four
    Russians" of Albrecht and Bard's M4RI library.
    """
    n, size = rows.shape
    if n % width:
        rows = np.concatenate((rows, np.zeros((-n % width, size), dtype=np.uint8)))
    groups = rows.reshape(-1, width, 1, size)
    tables = np.empty((len(groups), 1 << width, size), dtype=np.uint8)
    tables[:, 0] = 0
    for i in range(width):
        np.bitwise_xor(tables[:, : 1 << i], groups[:, i], out=tables[:, 1 << i : 2 << i])
    return tables


def _product(packed: np.ndarray, tables: Iterable[np.ndarray], out: np.ndarray) -> None:
    """XOR into ``out`` the GF(2) product of a packed bit matrix with some rows.

    Bit ``j`` (LSB-first) of row ``p`` of ``packed`` selects row ``j`` of the
    matrix whose 4-row XOR tables ``tables`` yields in group order; their
    XOR goes into ``out[p]``. The product takes one table lookup per 4-bit
    digit.
    """
    count, nbytes = packed.shape
    digits = np.stack((packed & 0x0F, packed >> 4), axis=-1).reshape(count, 2 * nbytes)
    for g, table in enumerate(tables):
        out ^= table.take(digits[:, g].astype(np.intp), axis=0)


# Bytes of 4-row XOR tables that a decoder's products build at a time (the
# tables take four times the rows they cover). Building all of a K=256,
# 1 KiB decode's 1 MiB at once raised a download's peak heap enough that the
# allocator handed memory back to the system after every download and took
# it back page by page: about 850 page faults and 0.7 ms per download.
_TABLE_BYTES = 1 << 18


def _chunked_tables(rows: np.ndarray) -> Iterator[np.ndarray]:
    """The 4-row XOR tables of ``rows``, at most ``_TABLE_BYTES`` built at a time."""
    step = 4 * max(1, _TABLE_BYTES // (64 * rows.shape[1]))
    for lo in range(0, len(rows), step):
        yield from _xor_tables(rows[lo : lo + step], 4)


class Blocks(Sequence[bytes]):
    """A file's blocks, checked once and held as a ``k x size`` matrix.

    Row ``i`` of ``matrix`` (``uint8``, read-only) is block ``i``, and
    ``blocks[i]`` returns it as bytes. ``tables`` holds the XOR tables of
    the matrix's 4-row groups, ``ceil(k / 4) x 16 x size`` (four times the
    file's bytes), built in four vectorised steps on first use and kept
    read-only. Building this once per file spares every packet the size
    checks, the conversions and the table builds.
    """

    def __init__(self, blocks: Sequence[bytes]):
        if len(blocks) < 1:
            raise InvalidParameterError("need at least one block")
        size = len(blocks[0])
        if size < 1:
            raise InvalidParameterError("blocks must be at least one byte")
        if any(len(b) != size for b in blocks):
            raise InvalidParameterError("blocks must all have the same size")
        joined = np.frombuffer(b"".join(blocks), dtype=np.uint8)
        self.matrix = joined.reshape(len(blocks), size)

    @cached_property
    def tables(self) -> np.ndarray:
        tables = _xor_tables(self.matrix, 4)
        tables.flags.writeable = False
        return tables

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, i: int) -> bytes:
        return self.matrix[i].tobytes()


def encode_batch(blocks: Blocks, vectors: np.ndarray) -> np.ndarray:
    """Payloads of a batch of packets, one row per packed vector.

    ``vectors`` is a packed ``count x ceil(k / 8)`` batch; row ``p`` of the
    ``count x size`` result is the XOR of the blocks that row ``p`` selects.
    The product takes one table lookup per 4-bit digit of the vectors.
    """
    nbytes = vectors.shape[1]
    if nbytes != (len(blocks) + 7) // 8:
        raise InvalidParameterError(
            f"packed vectors of {nbytes} bytes do not fit {len(blocks)} blocks"
        )
    out = np.zeros((len(vectors), blocks.matrix.shape[1]), dtype=np.uint8)
    _product(vectors, blocks.tables, out)
    return out


def encode(blocks: Sequence[bytes], vector: EncodingVector) -> Packet:
    """XOR together the blocks selected by the vector's nonzero coefficients.

    ``blocks`` is a :class:`Blocks` or a plain sequence of equal-size byte
    strings, which is converted (and its tables built) on every call;
    callers that encode one file many times should build the
    :class:`Blocks` once, and callers with many vectors at hand should use
    :func:`encode_batch`, of which this is a batch of one.
    """
    k = vector.k
    if len(blocks) != k:
        raise InvalidParameterError(f"expected {k} blocks, got {len(blocks)}")
    if not isinstance(blocks, Blocks):
        blocks = Blocks(blocks)
    packed = np.frombuffer(vector.bits.to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
    return Packet(vector, encode_batch(blocks, packed[None])[0].tobytes())


@dataclass(frozen=True)
class NotYetDecodable:
    """Returned by ``try_decode`` while the basis is rank deficient."""

    rank: int


# Bit j of entry d: bit j of the byte d.
_BYTE_BITS = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(np.uint8)


def _gauss_jordan(rows: np.ndarray, first: int, taken: list[int]):
    """Gauss–Jordan elimination of packed ``[vector | tag]`` rows, in place.

    Each row of ``rows`` holds ``nbytes = len(taken)`` bytes of vector and
    as many of tag. The rows from ``first`` on are free, in arrival order:
    they may still become pivots, and every row before them already is one.
    Bit ``c % 8`` of ``taken[c // 8]`` marks column ``c`` as a pivot
    column, or as padding past the vector length. The rows reach reduced
    echelon form, pivots at their lowest set bit, 8 columns at a time:

    - In a block, the new pivot rows are the earliest free rows, in arrival
      order, whose digits (the block's byte) are independent. Greedy
      insertion of the free digits into a reduced basis finds them, and
      each names itself in its tag by its pivot column.
    - One table of the XORs of the block's pivot rows, indexed through the
      digit itself, clears the block's pivot columns from every other row.

    A free row is only ever XORed with pivot rows that arrived before it, so
    it ends at zero exactly when it lies in the span of the rows before it:
    the new pivots are the rows that raise the rank, the row rank profile of
    Dumas, Pernet and Sultan (ISSAC 2013). Table rows are zero in vector
    bytes left of the block. With no stored pivots (``first`` 0) they are
    also zero in tag bytes past the block, as a tag names only pivot columns
    found so far. Only the bytes between are XORed. Returns the new pivots'
    rows and columns, and updates ``taken``.
    """
    nbytes = len(taken)
    free = np.zeros(len(rows), dtype=np.uint8)
    free[first:] = 0xFF
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    open_blocks = [b for b, t in enumerate(taken) if t != 0xFF]
    for b in open_blocks:
        candidates = np.flatnonzero(rows[:, b] & free)
        if not candidates.size:
            continue
        room = 8 - taken[b].bit_count()
        basis: list[list[int]] = []  # [pivot bit, reduced digit, chosen rows XORed into it]
        chosen: list[int] = []
        for row, d in zip(candidates.tolist(), rows[candidates, b].tolist()):
            mix = 0
            for bit, reduced, parts in basis:
                if d & bit:
                    d ^= reduced
                    mix ^= parts
            if d:
                bit, mix = d & -d, mix | 1 << len(chosen)
                for entry in basis:
                    if entry[1] & bit:
                        entry[1] ^= d
                        entry[2] ^= mix
                basis.append([bit, d, mix])
                chosen.append(row)
                if len(chosen) == room:
                    break
        bits = [entry[0] for entry in basis]
        cols = [bit.bit_length() - 1 for bit in bits]
        mixes = np.array([entry[2] for entry in basis], dtype=np.uint8)
        lo, hi = b, 2 * nbytes if first else nbytes + b + 1
        source = rows[chosen, lo:hi]
        source[:, nbytes + b - lo] |= np.array(bits, dtype=np.uint8)
        table = _xor_tables(source, len(chosen))[0]
        index = np.bitwise_xor.reduce(_BYTE_BITS[:, cols] * mixes, axis=1)[rows[:, b]]
        rows[:, lo:hi] ^= table[index]  # the chosen rows are overwritten next
        rows[chosen, lo:hi] = table[mixes]
        free[chosen] = 0
        taken[b] |= sum(bits)
        pivot_rows += chosen
        pivot_cols += [8 * b + c for c in cols]
    return pivot_rows, pivot_cols


class DecoderState:
    """Incremental rank tracker and decoder over packed rows.

    The basis is kept in reduced echelon form as packed ``[vector | tag]``
    rows of ``2 * ceil(k / 8)`` bytes, row ``c`` holding the pivot row of
    column ``c`` (zero while column ``c`` has none). The packet that became
    a pivot at column ``c`` has its payload stored in slot ``c``, and bit
    ``c`` of a row's tag says that slot ``c`` is part of the row. A batch
    is folded in two steps: one GF(2) product reduces its rows against the
    stored pivots, then :func:`_gauss_jordan` finds and stores its own
    pivots, in arrival order, and clears their columns from every row. At
    full rank the vectors are the identity, so the tags are the selector
    (which slots XOR to each block), and ``try_decode`` is one product of
    the selector with the payloads.
    """

    def __init__(self, k: int):
        if k < 1:
            raise InvalidParameterError("k must be >= 1")
        self.k = k
        nbytes = (k + 7) // 8
        self._rows = np.zeros((k, 2 * nbytes), dtype=np.uint8)
        self._taken = [0] * nbytes
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
        nbytes = len(self._taken)
        if vectors.ndim != 2 or vectors.shape[1] != nbytes:
            raise InvalidParameterError(
                f"packed vectors of shape {vectors.shape} do not fit length {self.k}"
            )
        if (vectors[:, -1] >> (self.k - 8 * (nbytes - 1))).any():
            raise InvalidParameterError(f"packed vectors have bits beyond length {self.k}")
        if payloads.ndim != 2 or len(payloads) != len(vectors):
            raise InvalidParameterError("need one payload row per vector")
        if self._payloads is None:
            if payloads.shape[1] < 1:
                raise InvalidParameterError("payloads must be at least one byte")
            self._payloads = np.zeros((self.k, payloads.shape[1]), dtype=np.uint8)
        if payloads.shape[1] != self._payloads.shape[1]:
            raise InvalidParameterError("payload size changed mid-stream")
        innovative = np.zeros(len(vectors), dtype=bool)
        if self._rank == self.k:
            return innovative
        rows = np.zeros((len(vectors), 2 * nbytes), dtype=np.uint8)
        rows[:, :nbytes] = vectors
        if self._rank:
            _product(vectors, _chunked_tables(self._rows), rows)
            rows = np.concatenate((self._rows, rows))
            self._rows = rows[: self.k]
        first = len(rows) - len(vectors)
        new, cols = _gauss_jordan(rows, first, self._taken)
        new = np.array(new, dtype=np.intp)
        self._rows[cols] = rows[new]
        self._payloads[cols] = payloads[new - first]
        innovative[new - first] = True
        self._rank += len(cols)
        return innovative

    def receive(self, packet: Packet) -> bool:
        """Fold one packet: a batch of one. True iff it raised the rank."""
        k = packet.vector.k
        if k != self.k:
            raise InvalidParameterError(f"vector length {k} != decoder length {self.k}")
        vector = np.frombuffer(packet.vector.bits.to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
        payload = np.frombuffer(packet.payload, dtype=np.uint8)
        return bool(self.receive_batch(vector[None], payload[None])[0])

    def try_decode(self) -> list[bytes] | NotYetDecodable:
        """Recover the original blocks, or report the current rank."""
        if self._rank < self.k:
            return NotYetDecodable(self._rank)
        blocks = np.zeros_like(self._payloads)
        _product(self._rows[:, len(self._taken) :], _chunked_tables(self._payloads), blocks)
        return [row.tobytes() for row in blocks]


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
