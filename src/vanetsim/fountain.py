"""Rateless XOR coding over GF(2).

Encoding vectors are bit strings of length ``k`` packed into Python ints
(bit ``i`` is the coefficient of block ``i``), so vector arithmetic is
whole-word XOR. A file's blocks are checked once and held as a ``k x size``
``uint8`` matrix (:class:`Blocks`); a packet payload is the byte-wise XOR of
the rows its vector selects, computed as one NumPy reduction. The decoder
keeps an online reduced row-echelon basis, with payloads packed into ints,
which makes the decodability test constant time and decoding itself a
table lookup.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
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

    @property
    def degree(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        """Positions of the nonzero coefficients."""
        return tuple(i for i in range(self.k) if (self.bits >> i) & 1)


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


def sample_uniform_vector(k: int, rng: np.random.Generator) -> EncodingVector:
    """Draw each coefficient independently with probability 1/2.

    The all-zero vector is a legal sample.
    """
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    nbytes = (k + 7) // 8
    bits = int.from_bytes(rng.bytes(nbytes), "little") & ((1 << k) - 1)
    return EncodingVector(bits, k)


def vector_sampler(scheme: VectorScheme, k: int) -> Callable[[np.random.Generator], EncodingVector]:
    """Bind a scheme to a vector length, precomputing any degree tables."""
    if isinstance(scheme, UniformScheme):
        return lambda rng: sample_uniform_vector(k, rng)
    if isinstance(scheme, LtScheme):
        cdf = np.cumsum(robust_soliton_pmf(k, scheme.params))

        def sample(rng: np.random.Generator) -> EncodingVector:
            degree = int(np.searchsorted(cdf, rng.random(), side="right")) + 1
            degree = min(degree, k)
            bits = 0
            for i in rng.choice(k, size=degree, replace=False):
                bits |= 1 << int(i)
            return EncodingVector(bits, k)

        return sample
    raise InvalidParameterError(f"unknown scheme: {scheme!r}")


def sample_soliton_vector(k: int, params: SolitonParams, rng: np.random.Generator) -> EncodingVector:
    """Draw a vector whose degree follows the robust soliton distribution."""
    return vector_sampler(LtScheme(params), k)(rng)


class Blocks(Sequence[bytes]):
    """A file's blocks, checked once and held as a ``k x size`` matrix.

    Row ``i`` of ``matrix`` (``uint8``, read-only) is block ``i``, and
    ``blocks[i]`` returns it as bytes. Building this once per file spares
    ``encode`` the size checks and conversions for every packet.
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

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [row.tobytes() for row in self.matrix[i]]
        return self.matrix[i].tobytes()


def encode(blocks: Sequence[bytes], vector: EncodingVector) -> Packet:
    """XOR together the blocks selected by the vector's nonzero coefficients.

    ``blocks`` is a :class:`Blocks` or a plain sequence of equal-size byte
    strings, which is converted on every call; callers that encode one file
    many times should build the :class:`Blocks` once.
    """
    k = vector.k
    if len(blocks) != k:
        raise InvalidParameterError(f"expected {k} blocks, got {len(blocks)}")
    if not isinstance(blocks, Blocks):
        blocks = Blocks(blocks)
    coeffs = np.frombuffer(vector.bits.to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
    selected = np.flatnonzero(np.unpackbits(coeffs, count=k, bitorder="little"))
    rows = blocks.matrix.take(selected, axis=0)
    return Packet(vector, np.bitwise_xor.reduce(rows, axis=0).tobytes())


@dataclass(frozen=True)
class NotYetDecodable:
    """Returned by ``try_decode`` while the basis is rank deficient."""

    rank: int


class DecoderState:
    """Incremental rank tracker and decoder.

    Stores one row per pivot column in fully reduced form: every stored
    vector has a 1 at its own pivot and 0 at every other row's pivot, and
    payloads carry the same combination as their vectors. ``receive`` costs
    one reduction pass; once the rank reaches k the rows are exactly the
    unit vectors and decoding is immediate.
    """

    def __init__(self, k: int):
        if k < 1:
            raise InvalidParameterError("k must be >= 1")
        self.k = k
        self._rows: dict[int, tuple[int, int]] = {}
        self._payload_bytes: int | None = None

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> list[tuple[int, int, int]]:
        """Snapshot of (pivot, vector bits, payload bits), for inspection."""
        return [(piv, vec, pay) for piv, (vec, pay) in sorted(self._rows.items())]

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
        vec = packet.vector.bits
        pay = int.from_bytes(packet.payload, "big")
        for piv, (rvec, rpay) in self._rows.items():
            if (vec >> piv) & 1:
                vec ^= rvec
                pay ^= rpay
        if vec == 0:
            return False
        piv = (vec & -vec).bit_length() - 1
        for other, (rvec, rpay) in self._rows.items():
            if (rvec >> piv) & 1:
                self._rows[other] = (rvec ^ vec, rpay ^ pay)
        self._rows[piv] = (vec, pay)
        return True

    def try_decode(self) -> list[bytes] | NotYetDecodable:
        """Recover the original blocks, or report the current rank."""
        if self.rank < self.k:
            return NotYetDecodable(self.rank)
        size = self._payload_bytes or 1
        return [self._rows[i][1].to_bytes(size, "big") for i in range(self.k)]


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
