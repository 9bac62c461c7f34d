import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetsim import (
    DecoderState,
    EncodingVector,
    LtScheme,
    NotYetDecodable,
    Packet,
    SolitonParams,
    UniformScheme,
    encode,
    encode_batch,
    packets_needed,
    robust_soliton_pmf,
    sample_uniform_vector,
    sample_uniform_vectors,
    span_probability,
    vector_batch_sampler,
)
from vanetsim import fountain
from vanetsim.errors import InvalidParameterError

from oracles import IntDecoder, reduced_rows


def draw_vector(scheme, k: int, rng: np.random.Generator) -> EncodingVector:
    """One vector from the scheme's batch sampler: a batch of one."""
    packed = vector_batch_sampler(scheme, k)(rng, 1)
    return EncodingVector(int.from_bytes(packed.tobytes(), "little"), k)


def reference_rank(vectors: list[int]) -> int:
    """Independent GF(2) rank oracle: greedy basis keyed by highest set bit."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            hb = v.bit_length() - 1
            if hb in basis:
                v ^= basis[hb]
            else:
                basis[hb] = v
                break
    return len(basis)


def reference_soliton_table(k: int, c: float, delta: float) -> list[float]:
    """Normalized degree table built from scratch (degrees 1..k)."""
    s = c * math.sqrt(k) * math.log(k / delta)
    spike = math.floor(k / s)
    rho = [1.0 / k] + [1.0 / (d * (d - 1)) for d in range(2, k + 1)]
    tau = []
    for d in range(1, k + 1):
        if d < spike:
            tau.append(s / (k * d))
        elif d == spike:
            tau.append(s * math.log(s / delta) / k)
        else:
            tau.append(0.0)
    raw = [a + b for a, b in zip(rho, tau)]
    total = sum(raw)
    return [x / total for x in raw]


# --- uniform vector sampling ------------------------------------------------


def test_uniform_sampling_is_deterministic_under_seed():
    rng1, rng2 = np.random.default_rng(123), np.random.default_rng(123)
    seq1 = [sample_uniform_vector(4, rng1).bits for _ in range(50)]
    seq2 = [sample_uniform_vector(4, rng2).bits for _ in range(50)]
    assert seq1 == seq2


def test_uniform_sampling_single_bit_frequency():
    rng = np.random.default_rng(7)
    ones = sum(sample_uniform_vector(1, rng).bits for _ in range(100_000))
    assert 0.495 <= ones / 100_000 <= 0.505


def test_uniform_sampling_covers_all_patterns_uniformly():
    rng = np.random.default_rng(21)
    counts = np.zeros(8, dtype=int)
    n = 100_000
    for _ in range(n):
        counts[sample_uniform_vector(3, rng).bits] += 1
    freqs = counts / n
    assert np.all(np.abs(freqs - 0.125) <= 0.01)


def test_uniform_sampling_rejects_zero_length():
    with pytest.raises(InvalidParameterError):
        sample_uniform_vector(0, np.random.default_rng(0))


def packed_bits(vectors: np.ndarray) -> list[int]:
    return [int.from_bytes(row.tobytes(), "little") for row in vectors]


def reference_uniform_bits(k: int, rng: np.random.Generator) -> int:
    """Per-vector oracle: one rng.bytes(ceil(k/8)) draw, masked to k bits."""
    return int.from_bytes(rng.bytes((k + 7) // 8), "little") & ((1 << k) - 1)


@pytest.mark.parametrize("k", [1, 3, 7, 8, 9, 31, 32, 33, 100, 256])
def test_batched_uniform_draw_equals_per_vector_draws(k):
    for count in (1, 2, 5, 16):
        batched = np.random.default_rng(100 * k + count)
        separate = np.random.default_rng(100 * k + count)
        vectors = sample_uniform_vectors(k, count, batched)
        assert vectors.shape == (count, (k + 7) // 8) and vectors.dtype == np.uint8
        assert packed_bits(vectors) == [reference_uniform_bits(k, separate) for _ in range(count)]
        assert batched.bit_generator.state == separate.bit_generator.state
        assert sample_uniform_vector(k, batched).bits == reference_uniform_bits(k, separate)
        assert batched.bit_generator.state == separate.bit_generator.state


# --- robust soliton sampling -------------------------------------------------


def test_soliton_pmf_matches_reference_table():
    params = SolitonParams(c=0.1, delta=0.5, epsilon=0.5)
    table = robust_soliton_pmf(10, params)
    expected = reference_soliton_table(10, 0.1, 0.5)
    assert np.allclose(table, expected, rtol=0, atol=1e-15)
    assert table.sum() == pytest.approx(1.0, abs=1e-12)


def test_soliton_degree_one_frequency_matches_table():
    params = SolitonParams(c=0.1, delta=0.5, epsilon=0.5)
    expected_mu1 = reference_soliton_table(10, 0.1, 0.5)[0]
    rng = np.random.default_rng(5)
    n = 100_000
    lt = LtScheme(params)
    hits = sum(1 for _ in range(n) if draw_vector(lt, 10, rng).bits.bit_count() == 1)
    assert abs(hits / n - expected_mu1) <= 0.01


def test_soliton_degrees_stay_in_range():
    params = SolitonParams(c=0.2, delta=0.3, epsilon=0.1)
    rng = np.random.default_rng(11)
    degrees = [draw_vector(LtScheme(params), 12, rng).bits.bit_count() for _ in range(2_000)]
    assert min(degrees) >= 1
    assert max(degrees) <= 12


def test_soliton_sampling_deterministic_under_seed():
    params = SolitonParams(c=0.1, delta=0.5, epsilon=0.5)
    rng1, rng2 = np.random.default_rng(42), np.random.default_rng(42)
    a = [draw_vector(LtScheme(params), 10, rng1).bits for _ in range(30)]
    b = [draw_vector(LtScheme(params), 10, rng2).bits for _ in range(30)]
    assert a == b


def reference_lt_bits(k: int, cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Per-vector oracle: a soliton degree, then that many distinct positions."""
    degree = min(int(np.searchsorted(cdf, rng.random(), side="right")) + 1, k)
    bits = 0
    for i in rng.choice(k, size=degree, replace=False):
        bits |= 1 << int(i)
    return bits


@pytest.mark.parametrize("k", [1, 9, 64, 100, 257])
def test_batched_lt_draw_equals_per_vector_draws(k):
    params = SolitonParams(c=0.1, delta=0.5, epsilon=0.01)
    cdf = np.cumsum(robust_soliton_pmf(k, params))
    sample = vector_batch_sampler(LtScheme(params), k)
    batched, separate = np.random.default_rng(k), np.random.default_rng(k)
    vectors = sample(batched, 20)
    assert vectors.shape == (20, (k + 7) // 8)
    assert packed_bits(vectors) == [reference_lt_bits(k, cdf, separate) for _ in range(20)]
    assert draw_vector(LtScheme(params), k, batched).bits == reference_lt_bits(k, cdf, separate)
    assert packed_bits(sample(batched, 1)) == [reference_lt_bits(k, cdf, separate)]
    assert batched.bit_generator.state == separate.bit_generator.state


def test_soliton_spike_out_of_range_rejected():
    # c*sqrt(k)*ln(k/delta) = 41.6 >= k = 4
    params = SolitonParams(c=10.0, delta=0.5, epsilon=0.5)
    with pytest.raises(InvalidParameterError):
        draw_vector(LtScheme(params), 4, np.random.default_rng(0))


def test_soliton_params_validation():
    with pytest.raises(InvalidParameterError):
        SolitonParams(c=0.0, delta=0.5, epsilon=0.5)
    with pytest.raises(InvalidParameterError, match="finite"):
        SolitonParams(c=math.inf, delta=0.5, epsilon=0.5)  # an infinite spike scale
    with pytest.raises(InvalidParameterError):
        SolitonParams(c=0.1, delta=1.5, epsilon=0.5)
    with pytest.raises(InvalidParameterError):
        SolitonParams(c=0.1, delta=0.5, epsilon=0.0)


# --- encoding -----------------------------------------------------------------


def test_encode_identity_selection():
    blocks = [b"\xaa", b"\xbb", b"\xcc"]
    pkt = encode(blocks, EncodingVector(0b001, 3))
    assert pkt.payload == b"\xaa"


def test_encode_zero_vector_gives_zero_payload():
    blocks = [b"\xaa\x01", b"\xbb\x02"]
    pkt = encode(blocks, EncodingVector(0, 2))
    assert pkt.payload == b"\x00\x00"


def test_encode_xors_selected_blocks():
    pkt = encode([b"\xff", b"\x0f"], EncodingVector(0b11, 2))
    assert pkt.payload == bytes([0xFF ^ 0x0F])
    assert pkt.payload == b"\xf0"


def test_encode_rejects_bad_blocks():
    with pytest.raises(InvalidParameterError, match="expected 2 blocks, got 1"):
        encode([b"\xff"], EncodingVector(0b11, 2))
    one_vector = np.zeros((1, 1), dtype=np.uint8)
    for bad, message in (
        ([b"", b""], "blocks must be at least one byte"),
        ([b"\xff", b"\x0f\x00"], "blocks must all have the same size"),
    ):
        with pytest.raises(InvalidParameterError, match=message):
            encode(bad, EncodingVector(0b11, 2))
        with pytest.raises(InvalidParameterError, match=message):
            encode_batch(bad, one_vector)
    with pytest.raises(InvalidParameterError, match="at least one block"):
        encode_batch([], one_vector)
    with pytest.raises(InvalidParameterError, match="vectors of 1 bytes do not fit 9 blocks"):
        encode_batch([b"\xff"] * 9, one_vector)


def reference_xor(blocks: list[bytes], bits: int) -> bytes:
    """Pure-Python oracle: byte-wise XOR of the blocks whose bit is set."""
    acc = bytes(len(blocks[0]))
    for i, block in enumerate(blocks):
        if (bits >> i) & 1:
            acc = bytes(a ^ b for a, b in zip(acc, block))
    return acc


@pytest.mark.parametrize("size", [1, 3, 8, 1024])
@pytest.mark.parametrize("k", [1, 7, 8, 9, 63, 64, 65, 256])
def test_encode_matches_xor_oracle(k, size):
    rng = np.random.default_rng(1000 * k + size)
    blocks = [rng.bytes(size) for _ in range(k)]
    vectors = [0, (1 << k) - 1] + [sample_uniform_vector(k, rng).bits for _ in range(3)]
    for bits in vectors:
        vector = EncodingVector(bits, k)
        assert encode(blocks, vector) == Packet(vector, reference_xor(blocks, bits))
    packed = np.array([list(bits.to_bytes((k + 7) // 8, "little")) for bits in vectors], dtype=np.uint8)
    payloads = [row.tobytes() for row in encode_batch(blocks, packed)]
    assert payloads == [reference_xor(blocks, bits) for bits in vectors]


def test_xor_tables_hold_the_xor_of_every_subset_of_a_group():
    rng = np.random.default_rng(3)
    k, size = 10, 3
    blocks = [rng.bytes(size) for _ in range(k)]
    rows = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(k, size)
    tables = fountain._xor_tables(rows, 4)
    # entry c of group g XORs the blocks 4g + i with bit i of c set
    assert tables.shape == (3, 16, size)
    for g in range(3):
        for c in range(16):
            assert tables[g, c].tobytes() == reference_xor(blocks, c << (4 * g))


@pytest.mark.parametrize(
    "trials, n, size, steps",
    [
        (1, 256, 1024, [16] * 16),  # K=256, 1 KiB: 4 groups of 16 x 1 KiB, 64 KiB a step
        (3, 10, 8, [10]),  # every group in one step
        (2, 9, 40_000, [4, 4, 1]),  # one group a step, even past the budget
    ],
)
def test_chunked_tables_build_at_most_the_table_budget_a_step(monkeypatch, trials, n, size, steps):
    built = []
    real = fountain._xor_tables

    def counted(rows, width):
        built.append(rows.shape[1])
        return real(rows, width)

    monkeypatch.setattr(fountain, "_xor_tables", counted)
    rows = np.random.default_rng(0).integers(0, 256, (trials, n, size), dtype=np.uint8)
    tables = list(fountain._chunked_tables(rows))
    assert built == steps
    # the same tables as one build
    np.testing.assert_array_equal(np.stack(tables), real(rows, 4))


# --- incremental decoding -------------------------------------------------------


def pkt(bits: int, k: int, payload: bytes = b"\x00") -> Packet:
    return Packet(EncodingVector(bits, k), payload)


def test_receive_first_nonzero_is_innovative():
    state = DecoderState(3)
    assert state.receive(pkt(0b011, 3)) is True
    assert state.rank == 1


def test_receive_duplicate_is_not_innovative():
    state = DecoderState(3)
    state.receive(pkt(0b011, 3))
    assert state.receive(pkt(0b011, 3)) is False
    assert state.rank == 1


def test_receive_detects_linear_dependence():
    vectors = [0b011, 0b110, 0b101]  # third = xor of first two
    assert reference_rank(vectors) == 2
    state = DecoderState(3)
    assert state.receive(pkt(vectors[0], 3)) is True
    assert state.receive(pkt(vectors[1], 3)) is True
    assert state.receive(pkt(vectors[2], 3)) is False
    assert state.rank == 2


def test_receive_rejects_length_mismatch():
    state = DecoderState(3)
    with pytest.raises(InvalidParameterError, match="vector length 1 != decoder length 3"):
        state.receive(pkt(0b1, 1))
    state.receive(pkt(0b1, 3))
    with pytest.raises(InvalidParameterError, match="payload size changed mid-stream"):
        state.receive(pkt(0b10, 3, b"\x00\x00"))


def test_rank_matches_reference_and_stays_reduced():
    rng = np.random.default_rng(17)
    k = 8
    state = DecoderState(k)
    seen: list[int] = []
    prev_rank = 0
    for _ in range(40):
        vec = sample_uniform_vector(k, rng)
        state.receive(Packet(vec, b"\x01"))
        seen.append(vec.bits)
        assert state.rank == reference_rank(seen)
        assert prev_rank <= state.rank <= k
        prev_rank = state.rank
        pivots = [row[0] for row in reduced_rows(state)]
        assert len(set(pivots)) == len(pivots) == state.rank
        for piv, vbits, _ in reduced_rows(state):
            assert (vbits >> piv) & 1
            for other, _, _ in reduced_rows(state):
                if other != piv:
                    assert not (vbits >> other) & 1


def test_try_decode_reports_rank_until_full():
    state = DecoderState(4)
    state.receive(pkt(0b0011, 4))
    out = state.try_decode()
    assert isinstance(out, NotYetDecodable)
    assert out.rank == 1


def test_try_decode_identity_matrix():
    blocks = [b"\x11", b"\x22", b"\x33"]
    state = DecoderState(3)
    for i, b in enumerate(blocks):
        state.receive(Packet(EncodingVector(1 << i, 3), b))
    assert state.try_decode() == blocks


def test_round_trip_random_packets():
    rng = np.random.default_rng(31)
    k = 4
    blocks = [rng.bytes(3) for _ in range(k)]
    state = DecoderState(k)
    received = []
    while state.rank < k:
        vec = sample_uniform_vector(k, rng)
        packet = encode(blocks, vec)
        received.append(packet)
        state.receive(packet)
    decoded = state.try_decode()
    assert decoded == blocks
    # every received packet is reproduced by re-encoding the decoded blocks
    for packet in received:
        assert encode(decoded, packet.vector).payload == packet.payload


class ReferenceDecoder:
    """Oracle: incremental reduced row-echelon decoder with int payloads.

    Every stored vector has a 1 at its own pivot (its lowest set bit) and 0
    at every other row's pivot; payloads, packed big-endian into ints, carry
    the same combinations as their vectors.
    """

    def __init__(self, k: int):
        self.k = k
        self._rows: dict[int, tuple[int, int]] = {}
        self._payload_bytes = 1

    @property
    def rank(self) -> int:
        return len(self._rows)

    def rows(self) -> list[tuple[int, int, int]]:
        return [(piv, vec, pay) for piv, (vec, pay) in sorted(self._rows.items())]

    def receive(self, packet: Packet) -> bool:
        self._payload_bytes = len(packet.payload)
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
        if self.rank < self.k:
            return NotYetDecodable(self.rank)
        return [self._rows[i][1].to_bytes(self._payload_bytes, "big") for i in range(self.k)]


def mixed_vectors(k: int, rng: np.random.Generator):
    """Endless stream mixing uniform, LT, zero and repeated vectors."""
    lt = LtScheme(SolitonParams(0.1, 0.5, 0.01))
    seen: list[EncodingVector] = []
    while True:
        kind = rng.random()
        if kind < 0.4:
            vec = sample_uniform_vector(k, rng)
        elif kind < 0.7:
            vec = draw_vector(lt, k, rng)
        elif kind < 0.8 or not seen:
            vec = EncodingVector(0, k)
        else:
            vec = seen[int(rng.integers(len(seen)))]
        seen.append(vec)
        yield vec


@pytest.mark.parametrize("size", [1, 3, 8, 1024])
@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 63, 64, 65, 100, 256])
def test_decoder_matches_reference_decoder(k, size):
    rng = np.random.default_rng(7919 * k + size)
    blocks = [rng.bytes(size) for _ in range(k)]
    state, oracle = DecoderState(k), ReferenceDecoder(k)
    vectors = mixed_vectors(k, rng)
    extra = 5  # packets sent after full rank
    while extra:
        packet = encode(blocks, next(vectors))
        assert state.receive(packet) == oracle.receive(packet)
        assert state.rank == oracle.rank
        if k <= 9:
            assert reduced_rows(state) == oracle.rows()
        if state.rank < k:
            assert state.try_decode() == oracle.try_decode() == NotYetDecodable(state.rank)
        else:
            extra -= 1
    assert reduced_rows(state) == oracle.rows()
    decoded = state.try_decode()
    assert decoded == oracle.try_decode() == blocks
    assert state.try_decode() == decoded


# Chunk sizes on both sides of the switch from the greedy pivot search to the sliced one.
TRIAL_COUNTS = st.one_of(
    st.integers(1, fountain.SLICED_TRIALS - 1),
    st.integers(fountain.SLICED_TRIALS, fountain.SLICED_TRIALS + 3),
)


def oracle_stream(kind: str, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """A packed stream of uniform, LT, or a few repeated (zero among them) vectors."""
    if kind == "uniform":
        return sample_uniform_vectors(k, count, rng)
    if kind == "lt":
        return vector_batch_sampler(LtScheme(SolitonParams(0.1, 0.5, 0.01)), k)(rng, count)
    pool = sample_uniform_vectors(k, 4, rng)
    pool[0] = 0
    return pool[rng.integers(0, len(pool), count)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", ["uniform", "lt", "repeats"])
@pytest.mark.parametrize("k_range", [(1, 1), (2, 72)])
def test_receive_batch_matches_the_int_oracle(kind, k_range, data):
    # one fold, a fold per packet, and random splits all give the oracle's
    # innovative flags, rank, reduced basis and decode
    k = data.draw(st.integers(*k_range), label="k")
    count = data.draw(st.integers(0, 2 * k + 12), label="count")
    size = data.draw(st.sampled_from([1, 3]), label="size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    vectors = oracle_stream(kind, k, count, rng)
    payloads = rng.integers(0, 256, (count, size), dtype=np.uint8)
    oracle = IntDecoder(k)
    expected = [
        oracle.receive(Packet(EncodingVector(bits, k), payload.tobytes()))
        for bits, payload in zip(packed_bits(vectors), payloads)
    ]
    decoded = oracle.try_decode()
    cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=6), label="cuts"))
    for ends in ([0, count], list(range(count + 1)), [0, *cuts, count]):
        state = DecoderState(k)
        flags: list[bool] = []
        for lo, hi in zip(ends, ends[1:]):
            flags += state.receive_batch(vectors[lo:hi], payloads[lo:hi]).tolist()
            assert state.rank == sum(expected[:hi])
            if state.rank < k:
                assert state.try_decode() == NotYetDecodable(state.rank)
        assert flags == expected
        assert state.rank == oracle.rank
        assert reduced_rows(state) == oracle.rows()
        assert state.try_decode() == decoded


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", ["uniform", "lt", "repeats"])
def test_fold_of_several_decoders_matches_separate_folds(kind, data):
    # Each trial's batch, padded with zero rows to the longest, folds as if
    # alone: the flags, rank, basis and decode of a separate DecoderState
    # fold and of the per-packet int oracle, whatever the stored ranks, with
    # the greedy pivot search (few trials) and the sliced one (many).
    k = data.draw(st.integers(1, 72), label="k")
    trials = data.draw(TRIAL_COUNTS, label="trials")
    size = data.draw(st.sampled_from([1, 3]), label="size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    stored = data.draw(st.lists(st.integers(0, k + 4), min_size=trials, max_size=trials))
    counts = data.draw(st.lists(st.integers(0, 2 * k + 8), min_size=trials, max_size=trials))
    vectors = np.zeros((trials, max(counts), (k + 7) // 8), dtype=np.uint8)
    payloads = np.zeros((trials, max(counts), size), dtype=np.uint8)
    decoders, expected = [], []
    for t, (before, count) in enumerate(zip(stored, counts)):
        stream = oracle_stream(kind, k, before + count, rng)
        stream_payloads = rng.integers(0, 256, (before + count, size), dtype=np.uint8)
        decoder, alone, oracle = DecoderState(k), DecoderState(k), IntDecoder(k)
        for state in (decoder, alone):
            state.receive_batch(stream[:before], stream_payloads[:before])
        oracle_flags = [
            oracle.receive(Packet(EncodingVector(bits, k), payload.tobytes()))
            for bits, payload in zip(packed_bits(stream), stream_payloads)
        ]
        vectors[t, :count] = stream[before:]
        payloads[t, :count] = stream_payloads[before:]
        flags = alone.receive_batch(stream[before:], stream_payloads[before:]).tolist()
        assert flags == oracle_flags[before:]
        decoders.append(decoder)
        expected.append((flags, alone, oracle))
    innovative = fountain.fold(decoders, vectors, payloads)
    for t, (decoder, (flags, alone, oracle)) in enumerate(zip(decoders, expected)):
        assert innovative[t].tolist() == flags + [False] * (max(counts) - counts[t])
        assert decoder.rank == alone.rank == oracle.rank
        assert reduced_rows(decoder) == reduced_rows(alone) == oracle.rows()
        assert decoder.try_decode() == alone.try_decode() == oracle.try_decode()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", ["uniform", "lt", "repeats"])
def test_decode_of_several_decoders_matches_each_try_decode(kind, data):
    # The batched decode of several full-rank decoders, folded together in
    # rounds, gives each trial the blocks of its own try_decode and of the
    # per-packet int oracle.
    k = data.draw(st.integers(1, 72), label="k")
    trials = data.draw(TRIAL_COUNTS, label="trials")
    size = data.draw(st.sampled_from([1, 3, 8]), label="size")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    decoders = [DecoderState(k) for _ in range(trials)]
    oracles = [IntDecoder(k) for _ in range(trials)]
    counts = data.draw(st.lists(st.integers(0, 2 * k), min_size=trials, max_size=trials))
    streams = [oracle_stream(kind, k, count, rng) for count in counts]
    while True:
        vectors = np.zeros((trials, max(map(len, streams)), (k + 7) // 8), dtype=np.uint8)
        payloads = rng.integers(0, 256, (*vectors.shape[:2], size), dtype=np.uint8)
        for t, (stream, oracle) in enumerate(zip(streams, oracles)):
            vectors[t, : len(stream)] = stream
            for bits, payload in zip(packed_bits(stream), payloads[t]):
                oracle.receive(Packet(EncodingVector(bits, k), payload.tobytes()))
        fountain.fold(decoders, vectors, payloads)
        if all(d.rank == k for d in decoders):
            break
        # tops up the rank
        needs = [k - d.rank + 8 if d.rank < k else 0 for d in decoders]
        streams = [sample_uniform_vectors(k, need, rng) for need in needs]
    blocks = fountain.decode(decoders)
    assert blocks.shape == (trials, k, size)
    for got, decoder, oracle in zip(blocks, decoders, oracles):
        assert [row.tobytes() for row in got] == decoder.try_decode() == oracle.try_decode()


def block_digits(rng: np.random.Generator, taken: int, count: int, run: int) -> list[int]:
    """A trial's digits of one block: a run of one repeated digit, then a
    mix of zero, repeated, one-bit and uniform digits, clear of ``taken``."""
    pool = [int(d) for d in rng.integers(0, 256, 3)]
    digits = [pool[0]] * run
    for kind in rng.integers(0, 4, count - run):
        one_bit, uniform = 1 << int(rng.integers(0, 8)), int(rng.integers(0, 256))
        digits.append([0, pool[rng.integers(0, 3)], one_bit, uniform][kind])
    return [d & ~taken for d in digits]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_greedy_and_sliced_pivot_searches_agree(data):
    # Both searches return the same pivot record, each column's combination
    # and pivot row: on zero, repeated and one-bit digits, taken columns,
    # trials with no candidate, and trials whose first window of candidates
    # falls short of its room.
    trials = data.draw(st.integers(1, 12), label="trials")
    count = data.draw(st.integers(1, 60), label="count")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    bytes_taken = st.sampled_from([0, 0, 0x01, 0x90, 0xF0, 0x7F])
    taken = np.array(data.draw(st.lists(bytes_taken, min_size=trials, max_size=trials)), np.uint8)
    runs = data.draw(st.lists(st.integers(0, count), min_size=trials, max_size=trials))
    masked = np.array(
        [block_digits(rng, int(t), count, run) for t, run in zip(taken, runs)], dtype=np.uint8
    ).reshape(trials, count)
    before = taken.copy()
    greedy = fountain._greedy_pivots(masked, taken)
    sliced = fountain._sliced_pivots(masked, taken)
    assert np.array_equal(taken, before)  # _gauss_jordan alone marks the new columns
    if greedy is None or sliced is None:
        assert greedy is sliced is None and not masked.any()
        return
    for got, want in zip(sliced, greedy):
        assert got.shape == (trials, 8) and np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", ["uniform", "lt", "repeats"])
@pytest.mark.parametrize("stored", [False, True])
def test_gauss_jordan_gives_the_same_rows_under_either_pivot_search(kind, stored, data):
    # The tables, maps and pivot rows built from either search's record are
    # the same: equal rows, taken bytes and pivot columns, whatever the trial
    # count, with no stored pivots (first 0) and after some; the new pivot
    # columns, and only they, join the taken columns.
    k = data.draw(st.integers(1, 72), label="k")
    trials = data.draw(st.integers(1, 12), label="trials")
    count = data.draw(st.integers(1, 2 * k + 8), label="count")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    nbytes = (k + 7) // 8
    vectors = np.stack([oracle_stream(kind, k, count, rng) for _ in range(trials)])
    rows = np.zeros((trials, count, fountain._row_bytes(nbytes)), dtype=np.uint8)
    rows[:, :, :nbytes] = vectors
    decoders, first = [DecoderState(k) for _ in range(trials)], 0
    if stored:  # reduced against the stored pivots and appended to them, as fold does
        for d in decoders:
            n = data.draw(st.integers(1, k + 4), label="stored")
            d.receive_batch(oracle_stream(kind, k, n, rng), np.zeros((n, 1), dtype=np.uint8))
        pivots = np.stack([d._rows for d in decoders])
        fountain._product(vectors, fountain._chunked_tables(pivots), rows)
        rows, first = np.concatenate((pivots, rows), axis=1), k
    taken = np.stack([d._taken for d in decoders])
    results = []
    for threshold in (1, trials + 1):  # the sliced search, then the greedy one
        got_rows, got_taken = rows.copy(), taken.copy()
        with mock.patch.object(fountain, "SLICED_TRIALS", threshold):
            cols = fountain._gauss_jordan(got_rows, first, got_taken)
        results.append((got_rows, got_taken, cols))
    for got, want in zip(*results):
        assert np.array_equal(got, want)
    cols, after = results[1][2], results[1][1]
    t, at = np.nonzero(cols >= 0)
    marks = np.unpackbits(taken, axis=1, bitorder="little")
    assert not marks[t, cols[t, at]].any()
    assert len(set(zip(t.tolist(), cols[t, at].tolist()))) == len(t)
    marks[t, cols[t, at]] = 1
    assert np.array_equal(np.packbits(marks, axis=1, bitorder="little"), after)


def test_decode_refuses_short_or_mismatched_decoders():
    full = [DecoderState(2) for _ in range(3)]
    for d, size in zip(full, (1, 1, 2)):
        d.receive_batch(np.array([[1], [2]], dtype=np.uint8), np.zeros((2, size), dtype=np.uint8))
    short = DecoderState(2)
    short.receive_batch(np.array([[1]], dtype=np.uint8), np.zeros((1, 1), dtype=np.uint8))
    wider = DecoderState(3)
    wider.receive_batch(np.array([[1], [2], [4]], dtype=np.uint8), np.zeros((3, 1), dtype=np.uint8))
    assert fountain.decode(full[:2]).shape == (2, 2, 1)
    with pytest.raises(InvalidParameterError, match="short of full rank"):
        fountain.decode([full[0], short])
    with pytest.raises(InvalidParameterError, match="decoders of different lengths"):
        fountain.decode([full[0], wider])
    with pytest.raises(InvalidParameterError, match="different payload sizes"):
        fountain.decode(full)


def test_receive_batch_rejects_misfit_batches():
    state = DecoderState(10)
    one = np.zeros((1, 1), dtype=np.uint8)
    with pytest.raises(InvalidParameterError, match="do not fit length 10"):
        state.receive_batch(np.zeros((1, 1), dtype=np.uint8), one)
    with pytest.raises(InvalidParameterError, match="bits beyond length 10"):
        state.receive_batch(np.array([[0, 0b100]], dtype=np.uint8), one)
    with pytest.raises(InvalidParameterError, match="one payload row per vector"):
        state.receive_batch(np.zeros((2, 2), dtype=np.uint8), one)
    with pytest.raises(InvalidParameterError, match="at least one byte"):
        state.receive_batch(np.zeros((1, 2), dtype=np.uint8), np.zeros((1, 0), dtype=np.uint8))
    with pytest.raises(InvalidParameterError, match="2-d batches"):
        state.receive_batch(np.zeros(2, dtype=np.uint8), one)
    two_vectors, two_payloads = np.zeros((2, 1, 2), dtype=np.uint8), np.zeros((2, 1, 1), dtype=np.uint8)
    with pytest.raises(InvalidParameterError, match="decoders of different lengths"):
        fountain.fold([state, DecoderState(9)], two_vectors, two_payloads)
    with pytest.raises(InvalidParameterError, match="do not fit length 10"):
        fountain.fold([state], two_vectors, two_payloads)  # two batches for one decoder
    assert state.rank == 0


# --- decode thresholds ------------------------------------------------------------


def test_packets_needed_uniform():
    import mpmath as mp

    oracle = 100 + int(mp.ceil(mp.log(1 / mp.mpf("0.01"), 2)))
    assert oracle == 107
    assert packets_needed(100, 0.01, UniformScheme()) == 107


@pytest.mark.parametrize("k", [1, 10, 1000])
def test_packets_needed_uniform_half(k):
    assert packets_needed(k, 0.5, UniformScheme()) == k + 1


def test_packets_needed_lt():
    import mpmath as mp

    params = SolitonParams(c=0.2, delta=0.5, epsilon=0.5)
    k = mp.mpf(10_000)
    s = mp.mpf("0.2") * mp.sqrt(k) * mp.log(k / mp.mpf("0.5"))
    oracle = int(mp.ceil(k + 2 * s * mp.log(s / mp.mpf("0.5"), 2)))
    assert oracle == 13419
    assert packets_needed(10_000, 0.5, LtScheme(params)) == 13419


def test_packets_needed_rejects_bad_epsilon():
    with pytest.raises(InvalidParameterError):
        packets_needed(10, 0.0, UniformScheme())
    with pytest.raises(InvalidParameterError):
        packets_needed(10, 1.0, UniformScheme())


def test_packets_needed_lt_requires_unit_spike_scale():
    # c*sqrt(k)*ln(k/delta) = 0.947 < 1 for these parameters
    params = SolitonParams(c=0.1, delta=0.5, epsilon=0.5)
    with pytest.raises(InvalidParameterError):
        packets_needed(10, 0.5, LtScheme(params))


# --- spanning probability ------------------------------------------------------------


def test_span_probability_below_dimension_is_zero():
    assert span_probability(3, 2) == 0.0
    assert span_probability(3, 0) == 0.0


def test_span_probability_single_dimension():
    assert span_probability(1, 1) == 0.5


def test_span_probability_exact_value_and_enumeration():
    exact = Fraction(1)
    for i in range(3):
        exact *= 1 - Fraction(1, 2 ** (5 - i))
    assert exact == Fraction(3255, 4096)
    assert span_probability(3, 5) == pytest.approx(float(exact), abs=1e-15)
    # exhaustive enumeration over all 2^15 possible 5x3 bit matrices
    full_rank = 0
    for code in range(2**15):
        vecs = [(code >> (3 * i)) & 0b111 for i in range(5)]
        if reference_rank(vecs) == 3:
            full_rank += 1
    assert full_rank / 2**15 == pytest.approx(float(exact), abs=0)


def test_span_probability_empirical_smoke():
    rng = np.random.default_rng(13)
    k, n, trials = 2, 4, 20_000
    hits = 0
    for _ in range(trials):
        # n vectors in one draw are the n draws of one vector at a time
        state = DecoderState(k)
        state.receive_batch(sample_uniform_vectors(k, n, rng), np.zeros((n, 1), dtype=np.uint8))
        hits += state.rank == k
    p = span_probability(k, n)
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * se
