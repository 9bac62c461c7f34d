"""Throughput-maximizing velocity-class probabilities.

Maximizes the exchange objective J(p) = sum_{i != j} p_i p_j (1/|v_i| +
1/|v_j|) over the probability simplex. :func:`pair_law` evaluates it in
O(m): with Q_i and M_i the sums of p_j and p_j/|v_j| over j != i, each an
exclusive prefix plus an exclusive suffix sum (a total less a class's own
term, as in 1 - p_i, cancels when one class holds nearly all probability),
the marginal values are (A p)_i = Q_i/|v_i| + M_i and J = p . (A p). The
reduced objective is strictly concave, so the optimum is unique; equal
marginal values on the classes that carry probability give it in closed
form, a water-filling vector p_i = max(0, 1/2 - c |v_i|): the slowest
classes are active and probability falls linearly with speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalError

NEG_CLAMP_TOL = 1e-12
# Largest stationarity residual over max(1, nu), nu the marginal value: the
# marginals scale with 1/|v|, and so does their rounding error (speeds 1, 0.5,
# 0.25 and 6e-8 leave an absolute residual of 1.9e-9 at nu = 8.4e6).
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


def _others(x: np.ndarray) -> np.ndarray:
    """sum_{j != i} x_j for each i: an exclusive prefix sum plus an exclusive suffix sum."""
    before = np.concatenate(([0.0], np.cumsum(x[:-1])))
    after = np.concatenate((np.cumsum(x[:0:-1])[::-1], [0.0]))
    return before + after


def pair_law(p, speeds) -> tuple[np.ndarray, float]:
    """Marginal values (A p)_i = Q_i/|v_i| + M_i and J = p . (A p), unchecked.

    A marginal is inf only where a pair sum 1/|v_i| + 1/|v_j| is; J is then inf or NaN.
    """
    pvec = np.asarray(p, dtype=float)
    inv = 1.0 / np.abs(np.asarray(speeds, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        marginals = _others(pvec) * inv + _others(pvec * inv)
        return marginals, float(pvec @ marginals)


@dataclass(frozen=True)
class PmfSolution:
    """Optimal probabilities with their stationarity certificate.

    ``p`` is in the caller's speed order; ``p_sorted`` in ascending |v|
    order with ``sort_index`` the corresponding argsort. ``kkt_nu`` is the
    common marginal value of the active classes and ``kkt_residual`` the
    largest stationarity/feasibility violation over ``max(1, kkt_nu)``.
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

    marginals, value = pair_law(full, s)
    active = full > 0.0
    with np.errstate(over="ignore"):  # finite marginals can still overflow their sum
        nu = float(marginals[active].mean())
    if np.isinf(nu) and np.all(np.isfinite(marginals)):
        raise InvalidParameterError("speeds too small: the marginal values overflow their sum")
    residual = float(np.abs(marginals[active] - nu).max())
    if np.any(~active):
        residual = max(residual, float((marginals[~active] - nu).max()), 0.0)
    residual /= max(1.0, nu)
    if not residual <= KKT_TOL:  # a NaN residual fails too
        raise NumericalError(
            f"stationarity residual {residual!r} is not within {KKT_TOL!r}"
        )

    p_caller = np.zeros(m)
    p_caller[order] = full
    return PmfSolution(
        p=tuple(float(v) for v in p_caller),
        p_sorted=tuple(float(v) for v in full),
        sort_index=tuple(int(i) for i in order),
        objective=value,
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
