"""Rateless XOR coding over GF(2).

Encoding vectors are bit strings of length ``k`` packed into Python ints
(bit ``i`` is the coefficient of block ``i``), so vector arithmetic is
whole-word XOR. A batch of vectors is a ``count x ceil(k / 8)`` ``uint8``
matrix of the same bits, LSB-first; the batch samplers draw it in one go,
and the single-vector samplers draw a batch of one. A file's blocks are
checked once and held as a ``k x size`` ``uint8`` matrix (:class:`Blocks`),
together with XOR tables of its 4-row groups built on first use.
:func:`encode_batch` computes a batch's payloads as one GF(2) product over
those tables (the "method of four Russians"), and :func:`encode` is a batch
of one. The decoder tracks rank on the vectors alone, in an echelon basis
whose rows also name the innovative packets they combine, and keeps those
packets' payloads as bytes. It solves for the blocks once, at full rank,
with 8-row XOR tables.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
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

    @property
    def degree(self) -> int:
        return self.bits.bit_count()


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


def _vector(packed: np.ndarray, k: int) -> EncodingVector:
    """The vector of one packed row."""
    return EncodingVector(int.from_bytes(packed.tobytes(), "little"), k)


def sample_uniform_vector(k: int, rng: np.random.Generator) -> EncodingVector:
    """Draw each coefficient independently with probability 1/2.

    The all-zero vector is a legal sample.
    """
    return _vector(sample_uniform_vectors(k, 1, rng)[0], k)


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


def vector_sampler(scheme: VectorScheme, k: int) -> Callable[[np.random.Generator], EncodingVector]:
    """Bind a scheme to a vector length: a batch sampler drawing one vector."""
    sample = vector_batch_sampler(scheme, k)
    return lambda rng: _vector(sample(rng, 1)[0], k)


def sample_soliton_vector(k: int, params: SolitonParams, rng: np.random.Generator) -> EncodingVector:
    """Draw a vector whose degree follows the robust soliton distribution."""
    return vector_sampler(LtScheme(params), k)(rng)


def _xor_tables(rows: np.ndarray, width: int) -> np.ndarray:
    """XOR tables of the consecutive ``width``-row groups of ``rows``.

    ``width`` is 4 or 8. Entry ``[g, c]`` of the ``ceil(n / width) x
    2**width x size`` result is the XOR of the rows ``width * g + i`` whose
    bit ``i`` is set in ``c``; a short last group acts as if padded with
    zero rows. The 4-row tables of all groups are built together, in four
    vectorised XOR steps, and an 8-row table is the outer XOR of the tables
    of its two halves. A table replaces up to ``width`` row XORs by one
    lookup per target row: the "method of four Russians" of Albrecht and
    Bard's M4RI library.
    """
    n, size = rows.shape
    if n % width:
        rows = np.concatenate((rows, np.zeros((-n % width, size), dtype=np.uint8)))
    quads = rows.reshape(-1, 4, 1, size)
    tables = np.empty((len(quads), 16, size), dtype=np.uint8)
    tables[:, 0] = 0
    for i in range(4):
        np.bitwise_xor(tables[:, : 1 << i], quads[:, i], out=tables[:, 1 << i : 2 << i])
    if width == 8:
        # entry 16 * h + l: entry h of the upper half's table ^ entry l of the lower's
        tables = (tables[1::2, :, None] ^ tables[0::2, None, :]).reshape(-1, 256, size)
    return tables


def _table_product(digits: np.ndarray, tables: np.ndarray, out: np.ndarray) -> None:
    """XOR entry ``digits[p, g]`` of ``tables[g]`` into ``out[p]``, for every group ``g``."""
    for g, table in enumerate(tables):
        out ^= table.take(digits[:, g].astype(np.intp), axis=0)


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

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [row.tobytes() for row in self.matrix[i]]
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
    digits = np.stack((vectors & 0x0F, vectors >> 4), axis=-1).reshape(len(vectors), 2 * nbytes)
    out = np.zeros((len(vectors), blocks.matrix.shape[1]), dtype=np.uint8)
    _table_product(digits, blocks.tables, out)
    return out


def batch_packets(vectors: np.ndarray, payloads: np.ndarray, k: int) -> Iterator[Packet]:
    """The packets of a packed batch of length-``k`` vectors and their payloads.

    Packets come in row order, each built only when it is consumed.
    """
    nbytes, size = vectors.shape[1], payloads.shape[1]
    bits, data = vectors.tobytes(), payloads.tobytes()
    for p in range(len(vectors)):
        vector = EncodingVector(int.from_bytes(bits[p * nbytes : (p + 1) * nbytes], "little"), k)
        yield Packet(vector, data[p * size : (p + 1) * size])


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


# Bytes of 8-row XOR tables that _gf2_product builds at a time. The tables
# take 32 times the rows they cover, 8 MiB for 256 blocks of 1 KiB; chunks
# keep a decode's peak memory near that of one table per group.
_PRODUCT_TABLE_BYTES = 1 << 18


def _back_substitute(rows: list[int], k: int) -> np.ndarray:
    """Tags of unit upper-triangular rows after back-substitution.

    The first ``k`` bits (LSB-first) of ``rows[p]`` have their lowest set
    bit at column ``p``; a tag starts at bit ``8 * ceil(k / 8)``. Returns
    the ``k x ceil(k / 8)`` packed tags that remain once every row is
    reduced to its unit vector, that is the tag matrix multiplied by the
    inverse of the triangle. The rows of each 8-column group are first
    reduced among themselves as ints. Then, last group first, one 8-row
    table lookup per earlier row, indexed by its bits in the group's
    columns, adds the group's tags to it. Those bits need no update on the
    way: the rows added before the group's turn belong to groups further
    right, which have no bits in its columns. Each group's table is built
    from tags that the groups after it have just updated, so the tables
    are built one at a time.
    """
    rows = list(rows)
    for lo in range(0, k, 8):
        hi = min(lo + 8, k)
        for i in range(hi - 2, lo - 1, -1):
            for j in range(i + 1, hi):
                if (rows[i] >> j) & 1:
                    rows[i] ^= rows[j]
    nbytes = (k + 7) // 8
    packed = np.frombuffer(
        b"".join(row.to_bytes(2 * nbytes, "little") for row in rows), dtype=np.uint8
    ).reshape(k, 2 * nbytes)
    vectors, tags = packed[:, :nbytes], packed[:, nbytes:].copy()
    for g in reversed(range(1, nbytes)):
        lo = 8 * g
        _table_product(vectors[:lo, g : g + 1], _xor_tables(tags[lo : lo + 8], 8), tags[:lo])
    return tags


def _gf2_product(selector: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """GF(2) product of a packed bit matrix with a ``uint8`` row matrix.

    Bit ``j`` (LSB-first) of row ``p`` of ``selector`` selects ``rows[j]``;
    row ``p`` of the result is the XOR of the selected rows. The 8-row
    tables are built a chunk of groups at a time, at most
    ``_PRODUCT_TABLE_BYTES`` of them.
    """
    out = np.zeros((len(selector), rows.shape[1]), dtype=np.uint8)
    step = max(1, _PRODUCT_TABLE_BYTES // (256 * rows.shape[1]))
    for g in range(0, selector.shape[1], step):
        tables = _xor_tables(rows[8 * g : 8 * (g + step)], 8)
        _table_product(selector[:, g : g + step], tables, out)
    return out


class DecoderState:
    """Incremental rank tracker and decoder.

    ``receive`` touches encoding vectors only. It keeps an echelon basis,
    one row per pivot, where a row's pivot is its lowest set bit: a packet's
    vector is XORed with the row at its lowest set bit until it is zero (not
    innovative) or lands on a free pivot, where it is stored. Each row also
    carries, from bit ``8 * ceil(k / 8)`` up, a tag whose bit ``i`` says
    that the ``i``-th innovative packet is part of the row; innovative
    payloads are kept as they arrived. At full rank ``try_decode`` solves
    once: back-substitution turns the tags into a ``k x k`` selector (which
    innovative packets XOR to each block), and a GF(2) product of that
    selector with the payloads gives the blocks.
    """

    def __init__(self, k: int):
        if k < 1:
            raise InvalidParameterError("k must be >= 1")
        self.k = k
        self._tag_shift = 8 * ((k + 7) // 8)
        self._rows: list[int | None] = [None] * k
        self._payloads: list[bytes] = []
        self._payload_bytes: int | None = None

    @property
    def rank(self) -> int:
        return len(self._payloads)

    def rows(self) -> list[tuple[int, int, int]]:
        """Fully reduced (pivot, vector bits, payload bits), for inspection.

        Every vector has a 1 at its own pivot and 0 at every other pivot;
        the payload (big-endian bits) is the same combination of packets.
        """
        reduced: dict[int, int] = {}
        for piv in reversed(range(self.k)):
            row = self._rows[piv]
            if row is not None:
                for other, done in reduced.items():
                    if (row >> other) & 1:
                        row ^= done
                reduced[piv] = row
        mask = (1 << self.k) - 1
        payloads = [int.from_bytes(p, "big") for p in self._payloads]
        out = []
        for piv, row in sorted(reduced.items()):
            tag, pay = row >> self._tag_shift, 0
            for i, p in enumerate(payloads):
                if (tag >> i) & 1:
                    pay ^= p
            out.append((piv, row & mask, pay))
        return out

    def receive(self, packet: Packet) -> bool:
        """Fold one packet into the basis; True iff it raised the rank."""
        if packet.vector.k != self.k:
            raise InvalidParameterError(
                f"vector length {packet.vector.k} != decoder length {self.k}"
            )
        if self._payload_bytes is None:
            self._payload_bytes = len(packet.payload)
        elif len(packet.payload) != self._payload_bytes:
            raise InvalidParameterError("payload size changed mid-stream")
        rank = len(self._payloads)
        if rank == self.k:
            return False
        rows = self._rows
        # the tag bit keeps the row nonzero, so a pivot past k means the
        # vector reduced to zero
        row = packet.vector.bits | (1 << (self._tag_shift + rank))
        while True:
            piv = (row & -row).bit_length() - 1
            if piv >= self.k:
                return False
            basis = rows[piv]
            if basis is None:
                rows[piv] = row
                self._payloads.append(packet.payload)
                return True
            row ^= basis

    def try_decode(self) -> list[bytes] | NotYetDecodable:
        """Recover the original blocks, or report the current rank."""
        if self.rank < self.k:
            return NotYetDecodable(self.rank)
        selector = _back_substitute(self._rows, self.k)
        payloads = np.frombuffer(b"".join(self._payloads), dtype=np.uint8)
        blocks = _gf2_product(selector, payloads.reshape(self.k, self._payload_bytes))
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
