"""Throughput-maximizing velocity-class probabilities.

Maximizes the pairwise exchange objective sum_{i != j} p_i p_j
(1/|v_i| + 1/|v_j|) over the probability simplex. The reduced objective
(last probability eliminated) is strictly concave, so the optimum is
unique. Setting the marginal values (A p)_i = u_i (1 - 2 p_i) + sum_j u_j p_j,
u = 1/|v|, equal on the classes that carry probability gives it in closed
form: a water-filling vector p_i = max(0, 1/2 - c |v_i|) in which the
slowest classes are active and probability falls linearly with speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalError

NEG_CLAMP_TOL = 1e-12
KKT_TOL = 1e-9


def _check_speeds(speeds) -> np.ndarray:
    """Speeds as a float array; each pair sum 1/|v_i| + 1/|v_j| must be finite."""
    arr = np.asarray(speeds, dtype=float)
    if arr.ndim != 1:
        raise InvalidParameterError("speeds must be a flat sequence")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError("speeds must be finite")
    if np.any(arr == 0):
        raise InvalidParameterError("speeds must be nonzero")
    with np.errstate(over="ignore"):
        inv = 1.0 / np.abs(arr)
        if not np.all(np.isfinite(inv)):
            raise InvalidParameterError("speeds must have a finite reciprocal 1/|v|")
        if arr.size > 1 and not np.isfinite(np.sum(np.sort(inv)[-2:])):
            raise InvalidParameterError(
                "speeds must have finite pair sums 1/|v_i| + 1/|v_j|"
            )
    return arr


def alpha_matrix(speeds) -> np.ndarray:
    """Symmetric matrix of pairwise inverse-speed sums, zero diagonal."""
    inv = 1.0 / np.abs(_check_speeds(speeds))
    with np.errstate(over="ignore"):  # only the diagonal, zeroed below, can overflow
        a = inv[:, None] + inv[None, :]
    np.fill_diagonal(a, 0.0)
    return a


def objective(p, speeds) -> float:
    """Exchange objective over ordered pairs: p @ A @ p."""
    pvec = np.asarray(p, dtype=float)
    a = alpha_matrix(speeds)
    if pvec.shape != (a.shape[0],):
        raise InvalidParameterError("probability/speed length mismatch")
    return float(pvec @ a @ pvec)


def reduced_hessian(speeds) -> np.ndarray:
    """Hessian of the reduced pair objective, eliminating the last probability.

    Uses the convention that counts each unordered pair once (half the
    quadratic form p @ A @ p; the scale does not move the maximizer).
    Closed form: -2*diag(1/|v_1|..1/|v_{M-1}|) - (2/|v_M|) * ones. Negative
    definite for any nonzero speeds, which is the concavity certificate.
    """
    arr = _check_speeds(speeds)
    m = arr.size
    if m < 2:
        raise InvalidParameterError("need at least two classes")
    inv = 1.0 / np.abs(arr)
    return -2.0 * np.diag(inv[:-1]) - 2.0 * inv[-1] * np.ones((m - 1, m - 1))


@dataclass(frozen=True)
class PmfSolution:
    """Optimal probabilities with their stationarity certificate.

    ``p`` is in the caller's speed order; ``p_sorted`` in ascending |v|
    order with ``sort_index`` the corresponding argsort. ``kkt_nu`` is the
    common marginal value of the active classes and ``kkt_residual`` the
    largest stationarity/feasibility violation.
    """

    p: tuple[float, ...]
    p_sorted: tuple[float, ...]
    sort_index: tuple[int, ...]
    objective: float
    active_set_size: int
    kkt_nu: float
    kkt_residual: float


def optimize_pmf(speeds) -> PmfSolution:
    """Find the unique simplex maximizer of the exchange objective.

    With s the speeds' |v| sorted ascending, the solution is the
    water-filling vector p_i = 1/2 - c_n s_i on the n slowest classes and
    0 on the rest, where c_n = (n/2 - 1) / (s_1 + ... + s_n) and n >= 2 is
    the largest count with 1/2 - c_n s_n >= 0. Two classes always give
    (0.5, 0.5) since c_2 = 0. The returned solution carries a verified
    stationarity certificate.
    """
    arr = _check_speeds(speeds)
    m = arr.size
    if m < 2:
        raise InvalidParameterError("need at least two classes")
    order = np.argsort(np.abs(arr), kind="stable")
    s = np.abs(arr)[order]
    c = (np.arange(1, m + 1) / 2.0 - 1.0) / np.cumsum(s)
    n = int(np.flatnonzero(0.5 - c * s >= 0.0)[-1]) + 1
    full = np.zeros(m)
    # non-negative: s is ascending and 1/2 - c_n s_n >= 0
    full[:n] = 0.5 - c[n - 1] * s[:n]

    a_full = alpha_matrix(s)
    marginals = a_full @ full
    active = full > 0.0
    nu = float(marginals[active].mean())
    residual = float(np.abs(marginals[active] - nu).max())
    if np.any(~active):
        residual = max(residual, float((marginals[~active] - nu).max()), 0.0)
    if not residual <= KKT_TOL:  # a NaN residual fails too
        raise NumericalError(
            f"stationarity residual {residual!r} is not within {KKT_TOL}"
        )

    p_caller = np.zeros(m)
    p_caller[order] = full
    return PmfSolution(
        p=tuple(float(v) for v in p_caller),
        p_sorted=tuple(float(v) for v in full),
        sort_index=tuple(int(i) for i in order),
        objective=float(full @ a_full @ full),
        active_set_size=int(active.sum()),
        kkt_nu=nu,
        kkt_residual=residual,
    )


def probabilities_decrease_with_speed(solution: PmfSolution, speeds) -> bool:
    """True iff slower classes carry at least as much probability.

    Checks the solution in ascending-|v| order with a 1e-12 slack; ties in
    |v| make the comparison non-strict.
    """
    arr = _check_speeds(speeds)
    order = np.argsort(np.abs(arr), kind="stable")
    p = np.asarray(solution.p)[order]
    return bool(np.all(np.diff(p) <= NEG_CLAMP_TOL))
