"""End-to-end acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
asserts the stated tolerance. Statistical checks are pinned to fixed seeds
so the whole suite is reproducible.
"""

import json
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from vanetsim import (
    DecoderState,
    DiscreteVelocityDist,
    FileSpec,
    UniformScheme,
    VelocityClass,
    encode_batch,
    expected_download_time,
    expected_encounters,
    expected_throughput,
    expected_throughput_class,
    expected_throughput_continuous,
    infostation_download,
    optimize_pmf,
    packets_needed,
    probabilities_decrease_with_speed,
    reduced_hessian,
    sample_uniform_vectors,
    simulate_download_time,
    simulate_trip,
    span_probability,
)
from vanetsim.cli import main as cli_main
from vanetsim.fountain import fold

from oracles import alpha_matrix

N_TRIALS = 100_000


def announce(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def trip_sweep(scenario, observer, trials, seed):
    """Per-trial class encounter counts (discrete only) and throughput."""
    rng = np.random.default_rng(seed)
    m = scenario.velocity.m if scenario.is_discrete else 0
    counts = np.empty((trials, m))
    thr = np.empty(trials)
    for i in range(trials):
        trip = simulate_trip(scenario, observer, rng)
        if m:
            counts[i] = trip.encounters_per_class
        thr[i] = trip.throughput
    return counts, thr


@pytest.fixture(scope="session")
def fixture_trip_stats(twoclass):
    """1e5 traversals per observer class of the reference scenario."""
    start = time.perf_counter()
    stats = {}
    for offset, observer in enumerate((20.0, 25.0)):
        stats[observer] = trip_sweep(twoclass, observer, N_TRIALS, 1000 + offset)
    stats["elapsed"] = time.perf_counter() - start
    return stats


# --- 1: optimal PMF reference values ------------------------------------------


REFERENCE_PMF_CASES = [
    ("80,90,100,110,120", (0.26, 0.23, 0.20, 0.17, 0.14)),
    ("50,60,70,80,130", (0.3077, 0.2692, 0.2308, 0.1923, 0.0)),
    ("20,30,40,110,120", (0.3889, 0.3333, 0.2778, 0.0, 0.0)),
]


def test_c1_optimal_pmf_reference_values(tmp_path):
    start = time.perf_counter()
    worst = 0.0
    for speeds_arg, expected in REFERENCE_PMF_CASES:
        out = tmp_path / "pmf.json"
        code = cli_main(["optimize-pmf", "--speeds", speeds_arg, "--output", str(out)])
        assert code == 0
        got = json.loads(out.read_text())["results"]["p_sorted"]
        worst = max(worst, float(np.abs(np.array(got) - expected).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-4 and elapsed < 1.0
    assert announce(
        "optimal-pmf-reference-values",
        ok,
        f"max component error {worst:.2e}, {elapsed:.3f}s for 3 solves",
    )


# --- 2: encounter rates are Poisson with the predicted means ---------------------


def test_c2_encounter_rate_validation(twoclass, fixture_trip_stats):
    start = time.perf_counter()
    checks = []

    def poisson_check(samples, target):
        mean = samples.mean()
        se = samples.std(ddof=1) / math.sqrt(samples.size)
        dispersion = samples.var(ddof=1) / mean
        checks.append(abs(mean - target) <= 3 * se)
        checks.append(0.95 <= dispersion <= 1.05)
        return mean, dispersion

    # forward pairs: both cross-class rates equal 5.0
    counts25 = fixture_trip_stats[25.0][0]
    counts20 = fixture_trip_stats[20.0][0]
    assert expected_encounters(twoclass, 1, 0) == 5.0
    m1, d1 = poisson_check(counts25[:, 0], 5.0)
    m2, d2 = poisson_check(counts20[:, 1], 5.0)
    checks.append(counts25[:, 1].max() == 0)  # no intra-class crossings
    checks.append(counts20[:, 0].max() == 0)

    # adding a reverse class: rate lam * p * (dwell + travel time)
    reverse = replace(
        twoclass,
        velocity=DiscreteVelocityDist(
            (
                VelocityClass(20.0, 0.25),
                VelocityClass(25.0, 0.25),
                VelocityClass(-20.0, 0.5),
            )
        ),
    )
    assert expected_encounters(reverse, 1, 2) == pytest.approx(45.0, abs=1e-12)
    rcounts, _ = trip_sweep(reverse, 25.0, N_TRIALS, 2024)
    m3, d3 = poisson_check(rcounts[:, 0], 2.5)
    m4, d4 = poisson_check(rcounts[:, 2], 45.0)

    elapsed = fixture_trip_stats["elapsed"] + (time.perf_counter() - start)
    checks.append(elapsed < 60.0)
    ok = all(checks)
    assert announce(
        "encounter-rate-validation",
        ok,
        f"means {m1:.3f}/{m2:.3f}/{m3:.3f}/{m4:.2f}, "
        f"dispersion {d1:.3f}/{d2:.3f}/{d3:.3f}/{d4:.3f}, {elapsed:.1f}s",
    )


# --- 3: per-class and average throughput ------------------------------------------


def test_c3_discrete_throughput_validation(twoclass, twoclass_path, fixture_trip_stats):
    checks = []
    details = []
    for observer, target in ((20.0, 5.5), (25.0, 6.75)):
        thr = fixture_trip_stats[observer][1]
        mean = thr.mean()
        checks.append(abs(mean - target) <= 0.01 * target)
        details.append(f"C({observer:g})={mean:.4f} vs {target}")

    avg = expected_throughput(twoclass)
    checks.append(abs(avg - 6.125) <= 1e-12 * 6.125)

    # independent re-derivation of the pairwise form of the average
    classes = twoclass.velocity.classes
    pair = sum(
        classes[i].p * classes[j].p * (1 / abs(classes[i].v) + 1 / abs(classes[j].v))
        for i in range(len(classes))
        for j in range(i + 1, len(classes))
    )
    via_pairs = twoclass.packet_rate * twoclass.r * (
        1 / twoclass.d + 0.5 * twoclass.lam * pair
    )
    checks.append(abs(avg - via_pairs) <= 1e-12 * abs(avg))

    code = cli_main(
        ["compare", str(twoclass_path), "--trials", "20000", "--seed", "31",
         "--output", "/dev/null"]
    )
    checks.append(code == 0)
    ok = all(checks)
    assert announce(
        "discrete-throughput-validation",
        ok,
        f"{'; '.join(details)}; average {avg:.12g}; compare exit {code}",
    )


# --- 4: continuous distribution is fair across observer speeds ----------------------


def test_c4_continuous_throughput_fairness(uniform2040):
    closed_form = (
        uniform2040.packet_rate
        * uniform2040.r
        * (1 / uniform2040.d + 0.5 * uniform2040.lam * math.log(2.0) / 20.0)
    )
    analytic = expected_throughput_continuous(uniform2040)
    checks = [abs(analytic - closed_form) <= 1e-9]

    estimates = {}
    for offset, observer in enumerate((22.0, 30.0, 38.0)):
        _, thr = trip_sweep(uniform2040, observer, N_TRIALS, 3000 + offset)
        estimates[observer] = (thr.mean(), thr.std(ddof=1) / math.sqrt(N_TRIALS))
        checks.append(abs(estimates[observer][0] - analytic) <= 0.01 * analytic)

    speeds = sorted(estimates)
    for i in range(len(speeds)):
        for j in range(i + 1, len(speeds)):
            mi, si = estimates[speeds[i]]
            mj, sj = estimates[speeds[j]]
            checks.append(abs(mi - mj) <= 3 * math.hypot(si, sj))
    ok = all(checks)
    assert announce(
        "continuous-throughput-fairness",
        ok,
        f"analytic {analytic:.4f}; "
        + ", ".join(f"C({v:g})={m:.4f}±{s:.4f}" for v, (m, s) in estimates.items()),
    )


# --- 5: doubling speeds halves the exchange part of the throughput --------------------


def test_c5_mobility_scaling(twoclass, fixture_trip_stats):
    doubled = replace(
        twoclass,
        velocity=DiscreteVelocityDist(
            tuple(VelocityClass(c.v * 2, c.p) for c in twoclass.velocity.classes)
        ),
    )
    base = twoclass.packet_rate * twoclass.r / twoclass.d
    analytic_ratio_exact = (
        expected_throughput(doubled) - base
    ) == 0.5 * (expected_throughput(twoclass) - base)

    sim1 = 0.5 * (
        fixture_trip_stats[20.0][1].mean() + fixture_trip_stats[25.0][1].mean()
    )
    halves = []
    for offset, observer in enumerate((40.0, 50.0)):
        _, thr = trip_sweep(doubled, observer, N_TRIALS // 2, 4000 + offset)
        halves.append(thr.mean())
    sim2 = 0.5 * (halves[0] + halves[1])
    ratio = (sim2 - base) / (sim1 - base)
    sim_ok = abs(ratio / 0.5 - 1.0) <= 0.02
    ok = analytic_ratio_exact and sim_ok
    assert announce(
        "mobility-scaling",
        ok,
        f"analytic exact halving {analytic_ratio_exact}; simulated ratio {ratio:.4f}",
    )


# --- 6: codec correctness ----------------------------------------------------------------


_BIT_LENGTH = np.array([0, 1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4], dtype=np.int64)


def empirical_span_fraction(k: int, n: int, trials: int, rng) -> float:
    """Fraction of n-vector samples spanning the k-space (vectorized ranks)."""
    if n == 0:
        return 0.0
    vecs = rng.integers(0, 1 << k, size=(trials, n), dtype=np.int64)
    rank = np.zeros(trials, dtype=np.int64)
    basis = np.zeros((trials, k), dtype=np.int64)
    for col in range(n):
        v = vecs[:, col].copy()
        idx = np.nonzero(v)[0]
        while idx.size:
            hb = _BIT_LENGTH[v[idx]] - 1
            slot = basis[idx, hb]
            fresh = slot == 0
            place = idx[fresh]
            basis[place, hb[fresh]] = v[place]
            rank[place] += 1
            v[place] = 0
            v[idx[~fresh]] ^= slot[~fresh]
            idx = idx[v[idx] != 0]
    return float((rank == k).mean())


def reference_rank(vectors):
    basis = {}
    for v in vectors:
        while v:
            hb = v.bit_length() - 1
            if hb in basis:
                v ^= basis[hb]
            else:
                basis[hb] = v
                break
    return len(basis)


def test_c6_codec_correctness():
    checks = []

    # exhaustive enumeration anchors the product formula at (k=3, n=5)
    exact = Fraction(1)
    for i in range(3):
        exact *= 1 - Fraction(1, 2 ** (5 - i))
    full = sum(
        1
        for code in range(2**15)
        if reference_rank([(code >> (3 * i)) & 7 for i in range(5)]) == 3
    )
    checks.append(Fraction(full, 2**15) == exact)
    checks.append(abs(span_probability(3, 5) - float(exact)) < 1e-15)

    # empirical spanning frequency across the whole small-parameter grid
    rng = np.random.default_rng(606)
    worst_z = 0.0
    for k in range(1, 5):
        for n in range(0, 9):
            frac = empirical_span_fraction(k, n, N_TRIALS, rng)
            p = span_probability(k, n)
            if n < k:
                checks.append(frac == 0.0)
                continue
            se = math.sqrt(p * (1 - p) / N_TRIALS)
            z = abs(frac - p) / se if se else 0.0
            worst_z = max(worst_z, z)
            checks.append(abs(frac - p) <= 3 * se)

    # the decoder's own rank process follows the same law at the anchor point
    rng = np.random.default_rng(607)
    hits = 0
    for lo in range(0, N_TRIALS, 4096):
        # trials fold 4,096 at a time: one draw of 5 n vectors is the 5
        # draws of one vector at a time of each of the n trials in turn
        n = min(4096, N_TRIALS - lo)
        state = DecoderState(3, n)
        vectors = sample_uniform_vectors(3, 5 * n, rng).reshape(n, 5, 1)
        fold(state, vectors, np.zeros((n, 5, 1), dtype=np.uint8))
        hits += int((state.ranks == 3).sum())
    p = float(exact)
    se = math.sqrt(p * (1 - p) / N_TRIALS)
    checks.append(abs(hits / N_TRIALS - p) <= 3 * se)

    # exact round trip across block counts
    rng = np.random.default_rng(608)
    for k in (1, 4, 64):
        for _ in range(1000):
            blocks = [rng.bytes(4) for _ in range(k)]
            state = DecoderState(k)
            while state.rank < k:
                # the rank grows by at most one a packet: no draw past the decode
                vectors = sample_uniform_vectors(k, k - state.rank, rng)
                state.receive_batch(vectors, encode_batch(blocks, vectors))
            if state.try_decode() != blocks:
                checks.append(False)
                break
        else:
            checks.append(True)

    # decode-failure rate after the uniform packet-count threshold
    threshold = packets_needed(64, 0.01, UniformScheme())
    checks.append(threshold == 71)
    rng = np.random.default_rng(609)
    failures = 0
    trials = 10_000
    for _ in range(trials):
        state, drawn = DecoderState(64), 0
        while state.rank < 64 and drawn < threshold:
            n = min(64 - state.rank, threshold - drawn)
            vectors = sample_uniform_vectors(64, n, rng)
            state.receive_batch(vectors, np.zeros((n, 1), dtype=np.uint8))
            drawn += n
        failures += state.rank < 64
    failure_rate = failures / trials
    checks.append(failure_rate <= 0.015)

    ok = all(checks)
    assert announce(
        "codec-correctness",
        ok,
        f"span grid worst z={worst_z:.2f}; K=64 failure rate {failure_rate:.4f} "
        f"with {threshold} packets",
    )


# --- 7: optimizer properties over randomized inputs -----------------------------------


def test_c7_optimizer_properties():
    rng = np.random.default_rng(707)
    checks = []
    worst_residual = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        while True:
            speeds = rng.uniform(5.0, 80.0, m) * rng.choice([-1.0, 1.0], m)
            if len(set(np.abs(np.round(speeds, 9)))) == m:
                break
        sol = optimize_pmf(speeds)
        worst_residual = max(worst_residual, sol.kkt_residual)
        checks.append(probabilities_decrease_with_speed(sol, speeds))
        checks.append(sol.kkt_residual <= 1e-9)
        checks.append(sol.active_set_size >= 2)
        checks.append(bool(np.all(np.linalg.eigvalsh(reduced_hessian(speeds)) < 0)))
        q = rng.dirichlet(np.ones(m), size=1000)
        a = alpha_matrix(speeds)
        vals = np.einsum("ij,jk,ik->i", q, a, q)
        checks.append(sol.objective >= vals.max() - 1e-12)

    # grid-search oracle at resolution 1e-3 for a three-class instance
    speeds = [18.0, 37.0, 61.0]
    sol = optimize_pmf(speeds)
    a = alpha_matrix(speeds)
    step = 1e-3
    best = -np.inf
    for x in np.arange(0.0, 1.0 + step / 2, step):
        y = np.arange(0.0, 1.0 - x + step / 2, step)
        pts = np.column_stack([np.full_like(y, x), y, 1.0 - x - y])
        best = max(best, float(np.einsum("ij,jk,ik->i", pts, a, pts).max()))
    gap = sol.objective - best
    checks.append(0.0 <= gap <= 1e-5)

    ok = all(checks)
    assert announce(
        "optimizer-properties",
        ok,
        f"worst KKT residual {worst_residual:.2e}; grid gap {gap:.2e}",
    )


# --- 8: event-level download time vs the analysis of the entrance batch ----------------


def test_c8_download_time_coherence(twoclass):
    file = FileSpec(64, 64)
    scheme = UniformScheme()
    epsilon = 0.01
    projection = expected_download_time(twoclass, file, epsilon, scheme)
    needed = packets_needed(file.k, epsilon, scheme)
    checks = []

    # regime: every class's station batch at the segment entrance already holds
    # the packets a confident decode needs, so the analysis predicts a download
    # that ends at the entrance rather than at the smooth-rate projection
    batches = [
        math.floor(infostation_download(c.v, twoclass.packet_rate, twoclass.r))
        for c in twoclass.velocity.classes
    ]
    checks.append(all(needed <= batch for batch in batches))

    rng = np.random.default_rng(808)
    trials = 1000
    times = np.empty(trials)
    received = np.empty(trials)
    segments = np.empty(trials)
    for i in range(trials):
        observer = 20.0 if rng.random() < 0.5 else 25.0
        times[i], received[i], segments[i] = simulate_download_time(
            twoclass, observer, file, scheme, rng
        )
    at_entrance = bool(np.all(times == 0.0) and np.all(segments == 1))
    checks.append(at_entrance)

    # within one batch the packet count N at full rank follows the span law:
    # P(N <= n) = span_probability(k, n) and E[N] = sum_n (1 - P(N <= n)),
    # whose tail past n = k + 64 sums to less than 2**-63
    p_within = span_probability(file.k, needed)
    frac_within = float(np.mean(received <= needed))
    se_within = math.sqrt(p_within * (1 - p_within) / trials)
    checks.append(abs(frac_within - p_within) <= 3 * se_within)
    expected_n = math.fsum(1.0 - span_probability(file.k, n) for n in range(file.k + 64))
    mean_n = float(received.mean())
    se_n = float(received.std(ddof=1) / math.sqrt(trials))
    checks.append(abs(mean_n - expected_n) <= 3 * se_n)

    ok = all(checks)
    assert announce(
        "download-time-coherence",
        ok,
        f"smooth-rate projection {projection:.3f}s; entrance batches {batches} "
        f"cover {needed} packets, decoded at the entrance in "
        f"{'all' if at_entrance else 'not all'} {trials} trials; "
        f"P(N<={needed}) {frac_within:.4f} vs {p_within:.4f}; "
        f"mean N {mean_n:.3f}+-{se_n:.3f} vs {expected_n:.3f}",
    )
