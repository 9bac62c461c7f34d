import math
import tracemalloc

import numpy as np
import pytest

from vanetsim import (
    objective,
    optimize_pmf,
    probabilities_decrease_with_speed,
    reduced_hessian,
)
from vanetsim import pmf_opt
from vanetsim.errors import InvalidParameterError, NumericalError

from oracles import alpha_matrix


def random_speeds(rng, m):
    while True:
        speeds = rng.uniform(5.0, 80.0, m) * rng.choice([-1.0, 1.0], m)
        if len(set(np.abs(np.round(speeds, 9)))) == m:
            return speeds


def reduced_objective(q, speeds):
    # reduced_hessian differentiates the unordered-pair counting, which is
    # half the ordered quadratic form returned by objective()
    p = np.append(q, 1.0 - np.sum(q))
    return 0.5 * objective(p, speeds)


def finite_difference_hessian(speeds, q0, h=1e-5):
    m = len(q0)
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            qpp = q0.copy(); qpp[i] += h; qpp[j] += h
            qpm = q0.copy(); qpm[i] += h; qpm[j] -= h
            qmp = q0.copy(); qmp[i] -= h; qmp[j] += h
            qmm = q0.copy(); qmm[i] -= h; qmm[j] -= h
            out[i, j] = (
                reduced_objective(qpp, speeds)
                - reduced_objective(qpm, speeds)
                - reduced_objective(qmp, speeds)
                + reduced_objective(qmm, speeds)
            ) / (4 * h * h)
    return out


# --- objective -----------------------------------------------------------------


def test_objective_is_zero_on_a_point_mass():
    assert objective([1.0, 0.0, 0.0], [20.0, 30.0, 40.0]) == 0.0


def test_objective_two_class_hand_value():
    # ordered pairs (1,2) and (2,1): 2 * 0.25 * (1/20 + 1/40)
    assert objective([0.5, 0.5], [20.0, 40.0]) == pytest.approx(0.0375, rel=1e-12)


def test_objective_matches_quadratic_form():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(2, 7))
        speeds = random_speeds(rng, m)
        p = rng.dirichlet(np.ones(m))
        a = alpha_matrix(speeds)
        assert objective(p, speeds) == pytest.approx(float(p @ a @ p), rel=1e-12)
        assert np.allclose(pmf_opt.pair_law(p, speeds)[0], a @ p, rtol=1e-12, atol=0)


def test_alpha_matrix_shape_and_symmetry():
    a = alpha_matrix([10.0, -20.0, 40.0])
    assert np.allclose(a, a.T)
    assert np.all(np.diag(a) == 0.0)
    assert a[0, 1] == pytest.approx(1 / 10 + 1 / 20)
    assert np.all(a[~np.eye(3, dtype=bool)] > 0)


def test_objective_rejects_length_mismatch():
    with pytest.raises(InvalidParameterError):
        objective([0.5, 0.5], [20.0, 30.0, 40.0])


# --- reduced hessian --------------------------------------------------------------


def test_reduced_hessian_two_classes():
    h = reduced_hessian([20.0, 40.0])
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(-0.15, rel=1e-12)


def test_reduced_hessian_three_classes():
    h = reduced_hessian([10.0, 20.0, 40.0])
    assert np.allclose(h, [[-0.25, -0.05], [-0.05, -0.15]], rtol=1e-12)


def test_reduced_hessian_matches_finite_differences():
    rng = np.random.default_rng(1)
    for m in (2, 3, 5):
        speeds = random_speeds(rng, m)
        q0 = np.full(m - 1, 1.0 / m)
        fd = finite_difference_hessian(speeds, q0)
        assert np.allclose(reduced_hessian(speeds), fd, atol=1e-6)


def test_reduced_hessian_is_negative_definite():
    rng = np.random.default_rng(2)
    for _ in range(100):
        speeds = random_speeds(rng, int(rng.integers(2, 7)))
        eigs = np.linalg.eigvalsh(reduced_hessian(speeds))
        assert np.all(eigs < 0)


def test_reduced_hessian_needs_two_classes():
    with pytest.raises(InvalidParameterError):
        reduced_hessian([20.0])


@pytest.mark.parametrize("speeds", [[20.0, 1e-308], [1e-308, 20.0, 30.0]])
def test_reduced_hessian_refuses_an_overflowing_entry(speeds):
    # 1/|v| = 1e308 is finite, but the entry -2/|v| overflows
    with pytest.raises(InvalidParameterError, match="Hessian is not finite"):
        reduced_hessian(speeds)


# --- optimizer -----------------------------------------------------------------------


REFERENCE_CASES = [
    ((80.0, 90.0, 100.0, 110.0, 120.0), (0.26, 0.23, 0.20, 0.17, 0.14)),
    ((50.0, 60.0, 70.0, 80.0, 130.0), (0.3077, 0.2692, 0.2308, 0.1923, 0.0)),
    ((20.0, 30.0, 40.0, 110.0, 120.0), (0.3889, 0.3333, 0.2778, 0.0, 0.0)),
]


@pytest.mark.parametrize("speeds,expected", REFERENCE_CASES)
def test_optimizer_reference_values(speeds, expected):
    sol = optimize_pmf(speeds)
    assert np.allclose(sol.p_sorted, expected, atol=5e-4)
    assert abs(sum(sol.p) - 1.0) <= 1e-12
    assert min(sol.p) >= 0.0


def trailing_zero_sweep(speeds):
    """Reference optimizer: solve A_n x = 1 on the n slowest classes and
    shrink n until the normalized solution has no negative entry."""
    inv = np.sort(1.0 / np.abs(np.asarray(speeds, dtype=float)))[::-1]
    for n in range(len(inv), 1, -1):
        a = inv[:n, None] + inv[None, :n]
        np.fill_diagonal(a, 0.0)
        x = np.linalg.solve(a, np.ones(n))
        if (x / x.sum()).min() >= -1e-12:
            return np.concatenate([x / x.sum(), np.zeros(len(inv) - n)])


def test_optimizer_matches_trailing_zero_sweep():
    rng = np.random.default_rng(7)
    cases = [random_speeds(rng, int(m)) for m in rng.integers(2, 65, 300)]
    cases.append(random_speeds(rng, 200))
    for speeds in cases:
        sol = optimize_pmf(speeds)
        assert np.allclose(sol.p_sorted, trailing_zero_sweep(speeds), rtol=0, atol=1e-12)


def test_boundary_class_gets_exactly_zero():
    # 1/2 - c_5 * 130 = 0 exactly: the fastest class sits on the boundary
    sol = optimize_pmf([50.0, 60.0, 70.0, 80.0, 130.0])
    assert sol.p_sorted[4] == 0.0
    assert sol.active_set_size == 4


def test_two_classes_always_split_evenly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        speeds = random_speeds(rng, 2)
        sol = optimize_pmf(speeds)
        assert sol.p == (0.5, 0.5)


def test_optimizer_beats_grid_search():
    speeds = [15.0, 33.0, 52.0]
    sol = optimize_pmf(speeds)
    a = alpha_matrix(speeds)
    step = 1e-3
    best = -np.inf
    grid = np.arange(0.0, 1.0 + step / 2, step)
    for x in grid:
        y = np.arange(0.0, 1.0 - x + step / 2, step)
        pts = np.column_stack([np.full_like(y, x), y, 1.0 - x - y])
        vals = np.einsum("ij,jk,ik->i", pts, a, pts)
        best = max(best, float(vals.max()))
    assert sol.objective >= best - 1e-12
    assert sol.objective - best <= 1e-5


def test_optimizer_active_set_and_certificate():
    rng = np.random.default_rng(4)
    for _ in range(200):
        speeds = random_speeds(rng, int(rng.integers(2, 7)))
        sol = optimize_pmf(speeds)
        assert sol.active_set_size >= 2
        assert sol.kkt_residual <= 1e-9
        assert sol.kkt_nu == pytest.approx(sol.objective, rel=1e-9)
        assert probabilities_decrease_with_speed(sol, speeds)


def test_optimizer_is_permutation_equivariant():
    rng = np.random.default_rng(5)
    speeds = [80.0, 90.0, 100.0, 110.0, 120.0]
    base = optimize_pmf(speeds)
    for _ in range(10):
        perm = rng.permutation(5)
        permuted = [speeds[i] for i in perm]
        sol = optimize_pmf(permuted)
        assert np.allclose([base.p[i] for i in perm], sol.p, atol=1e-12)


def test_optimizer_accepts_tied_speeds():
    sol = optimize_pmf([30.0, 30.0, 60.0])
    assert abs(sum(sol.p) - 1.0) <= 1e-12
    assert probabilities_decrease_with_speed(sol, [30.0, 30.0, 60.0])


def test_optimizer_uses_absolute_speeds():
    assert optimize_pmf([20.0, -40.0]).p == (0.5, 0.5)
    fwd = optimize_pmf([20.0, 30.0, 40.0])
    mixed = optimize_pmf([20.0, -30.0, 40.0])
    assert np.allclose(fwd.p, mixed.p, atol=1e-12)


def test_optimizer_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        optimize_pmf([20.0])
    with pytest.raises(InvalidParameterError):
        optimize_pmf([20.0, 0.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError, match="finite"):
            optimize_pmf([20.0, bad, 30.0])
    for bad in (1e-310, -5e-324):  # subnormal: 1/|v| overflows
        with pytest.raises(InvalidParameterError, match="finite reciprocal"):
            optimize_pmf([20.0, bad])
    optimize_pmf([20.0, 1e-300])  # 1/|v| = 1e300 is still finite
    with pytest.raises(InvalidParameterError, match="pair sums"):
        optimize_pmf([20.0, 1e-308, -1e-308])  # 1e308 + 1e308 overflows
    optimize_pmf([1e-308, 2e-308])  # 1e308 + 5e307 is still finite


def test_certificate_scales_with_the_marginal_value():
    # the marginals reach 1/|v| = 1.7e7, so their rounding error exceeds 1e-9;
    # the reported residual is relative to nu and stays within 1e-9
    sol = optimize_pmf([1.0, 0.5, 0.25, 5.960464477539063e-08])
    assert sol.kkt_nu > 8e6 and 0.0 < sol.kkt_residual <= 1e-9
    assert abs(sum(sol.p) - 1.0) <= 1e-12


def test_marginals_whose_sum_overflows_are_refused():
    # 1/|v| = 9e307 gives marginals near 4.5e307, four of which overflow a sum
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(InvalidParameterError, match="overflow their sum"):
            optimize_pmf([1.0, 1.0, 1.0, 1.1125369292536007e-308])
        assert optimize_pmf([1.0, 1.1125369292536007e-308]).p == (0.5, 0.5)


def test_nan_stationarity_residual_fails_the_certificate(monkeypatch):
    # 1/|v| = 1.7e308 is finite but the pair sums overflow, so the marginals
    # (2/3 of a pair sum each) are inf and their spread is NaN, which must
    # not pass as <= KKT_TOL; the input check refuses such speeds, so it is
    # bypassed here
    monkeypatch.setattr(pmf_opt, "_check_speeds", lambda s: np.asarray(s, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="nan"):
            optimize_pmf([6e-309, 6e-309, 6e-309])


def test_memory_is_linear_in_the_number_of_speeds():
    # an m x m matrix of 3,000 speeds alone would take 72 MB
    speeds = np.arange(10.0, 3_010.0)
    tracemalloc.start()
    try:
        sol = optimize_pmf(speeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.kkt_residual <= 1e-9
    assert peak < 2_000_000


def test_global_optimality_against_random_points():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        speeds = random_speeds(rng, m)
        sol = optimize_pmf(speeds)
        a = alpha_matrix(speeds)
        q = rng.dirichlet(np.ones(m), size=1_000)
        vals = np.einsum("ij,jk,ik->i", q, a, q)
        assert sol.objective >= vals.max() - 1e-12


def test_monotonicity_check_flags_perturbed_vectors():
    speeds = [80.0, 90.0, 100.0, 110.0, 120.0]
    sol = optimize_pmf(speeds)
    assert probabilities_decrease_with_speed(sol, speeds)
    import dataclasses

    bad = dataclasses.replace(sol, p=(0.23, 0.26, 0.20, 0.17, 0.14))
    assert not probabilities_decrease_with_speed(bad, speeds)
