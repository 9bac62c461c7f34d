"""Scenario description: velocity distributions, Poisson traffic, densities.

Units are fixed as SI throughout: meters, seconds, bits. Speeds are signed;
negative speeds are traffic moving against the observer's direction (it
enters the segment at the far end). Probability inputs are validated, never
silently renormalized.

Velocities are either discrete speed classes or continuous traffic made of
weighted uniform bands; both give E[1/|V|] in closed form, so the module
needs nothing beyond NumPy.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidParameterError, SchemaError

PROB_TOL = 1e-12


@dataclass(frozen=True)
class VelocityClass:
    """One speed class: signed speed in m/s and its probability."""

    v: float
    p: float

    def __post_init__(self):
        if self.v == 0:
            raise InvalidParameterError("class speed must be nonzero")
        if not (math.isfinite(self.v) and math.isfinite(1.0 / abs(self.v))):
            raise InvalidParameterError(
                f"class speed {self.v!r} must be finite with a finite reciprocal"
            )
        if not 0.0 <= self.p <= 1.0:
            raise InvalidParameterError("class probability must lie in [0, 1]")


@dataclass(frozen=True)
class DiscreteVelocityDist:
    classes: tuple[VelocityClass, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if len(self.classes) < 1:
            raise InvalidParameterError("need at least one velocity class")
        total = math.fsum(c.p for c in self.classes)
        if abs(total - 1.0) > PROB_TOL:
            raise InvalidParameterError(
                f"class probabilities sum to {total!r}, not 1"
            )
        speeds = [c.v for c in self.classes]
        if len(set(speeds)) != len(speeds):
            raise InvalidParameterError("class speeds must be distinct")
        object.__setattr__(self, "_speeds", np.array(speeds, dtype=float))
        object.__setattr__(
            self, "_cum_p", np.cumsum([c.p for c in self.classes])
        )

    @property
    def m(self) -> int:
        return len(self.classes)

    @property
    def speeds(self) -> np.ndarray:
        return self._speeds

    def sample(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw n (velocity, class index) pairs.

        A draw ``u`` falls in the class of index ``#{j < m - 1: cum_p[j] <= u}``,
        counted in place one class boundary at a time: the last cumulative
        probability, which may round below 1, is never a boundary.
        """
        u = rng.random(n)
        idx = np.zeros(n, dtype=np.intp)
        for c in self._cum_p[:-1]:
            idx += u >= c
        return self._speeds[idx], idx


def _log_ratio(lo: float, hi: float) -> float:
    """``ln(hi / lo)`` for ``0 < lo < hi``, also where ``hi / lo`` overflows or nears 1.

    Near 1 it is ``log1p`` of the exact ``hi - lo`` over ``lo``, not the log of a rounded ratio.
    """
    x = (hi - lo) / lo
    if x < 2**-10:
        return math.log1p(x)
    ratio = hi / lo
    return math.log(ratio) if ratio < math.inf else math.log(hi) - math.log(lo)


def _tail_integral(shape: str, lo: float, hi: float) -> float:
    """The integral over ``(lo, hi)`` of a tail part's tilt (see ``encounters._tilt_parts``).

    Where ``hi / lo`` nears 1 the two terms of the closed form nearly
    cancel, so there it is the series ``x**2/2 - x**3/3 + ...`` in
    ``x = (hi - lo)/lo`` (rising) or ``y**2/2 + y**3/3 + ...`` in
    ``y = (hi - lo)/hi`` (falling), summed smallest term first.
    """
    rising = shape == "rising"
    if (hi - lo) / lo < 2**-10:  # where _log_ratio turns to log1p
        s = -(hi - lo) / lo if rising else (hi - lo) / hi
        return sum(s**k / k for k in range(9, 1, -1))
    log_ratio = _log_ratio(lo, hi)
    return (hi - lo) / lo - log_ratio if rising else log_ratio - (hi - lo) / hi


def _band_inverse_speed(a: float, b: float) -> float:
    """E[1/|V|] for V uniform on the band (a, b): log(hi/lo) / (hi - lo)."""
    lo, hi = sorted((abs(a), abs(b)))
    return _log_ratio(lo, hi) / (hi - lo)


@dataclass(frozen=True)
class ContinuousVelocityDist:
    """A piecewise-uniform speed density: weighted bands (a, b), uniform on each.

    Each band holds signed speeds a < b and may not contain zero, so it is
    wholly forward or wholly reverse traffic; bidirectional traffic is a
    forward and a reverse band with the direction weights. Weights are
    nonnegative and sum to 1, and no band's E[1/|V|] may overflow.
    """

    bands: tuple[tuple[float, float], ...]
    weights: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        bands = tuple((float(a), float(b)) for a, b in self.bands)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "bands", bands)
        object.__setattr__(self, "weights", weights)
        if len(bands) < 1:
            raise InvalidParameterError("need at least one speed band")
        if len(bands) != len(weights):
            raise InvalidParameterError("band/weight count mismatch")
        for a, b in bands:
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise InvalidParameterError("band must satisfy finite a < b")
            if a <= 0.0 <= b:
                raise InvalidParameterError("band must exclude zero speed")
            if not math.isfinite(_band_inverse_speed(a, b)):
                raise InvalidParameterError(f"E[1/|V|] of band ({a!r}, {b!r}) overflows")
        if not all(w >= 0.0 for w in weights):
            raise InvalidParameterError("band weights must be nonnegative")
        if abs(math.fsum(weights) - 1.0) > PROB_TOL:
            raise InvalidParameterError("band weights must sum to 1")


VelocityDist = Union[DiscreteVelocityDist, ContinuousVelocityDist]


@dataclass(frozen=True)
class Scenario:
    """One experiment: traffic process, segment geometry, radio parameters.

    lam        vehicle arrival rate (vehicles/second)
    d          segment length between consecutive roadside stations (meters)
    r          transmit range (meters)
    bit_rate   radio bit rate (bits/second)
    packet_bits  packet size (bits); packet rate = bit_rate / packet_bits
    """

    lam: float
    d: float
    r: float
    bit_rate: float
    packet_bits: float
    velocity: VelocityDist
    seed: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise InvalidParameterError("arrival rate must be >= 0")
        for name in ("d", "r", "bit_rate", "packet_bits"):
            if not getattr(self, name) > 0:
                raise InvalidParameterError(f"{name} must be positive")
        if self.r > self.d / 10.0:
            warnings.warn(
                f"transmit range r={self.r} is not small against d={self.d}; "
                "encounter counting assumes r << d",
                stacklevel=2,
            )

    @property
    def packet_rate(self) -> float:
        return self.bit_rate / self.packet_bits

    @property
    def is_discrete(self) -> bool:
        return isinstance(self.velocity, DiscreteVelocityDist)

    def speed_bounds(self) -> tuple[float, float]:
        """Smallest and largest |v| among the reachable classes of discrete traffic."""
        reachable = [abs(c.v) for c in self.velocity.classes if c.p > 0]
        return min(reachable), max(reachable)


def sample_velocities(
    dist: DiscreteVelocityDist, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n velocities and class indices; only discrete traffic's lookback sampler calls it."""
    return dist.sample(rng, n)


def mean_inverse_speed(dist: VelocityDist) -> float:
    """E[1/|V|] for a velocity distribution, in closed form for both kinds."""
    if isinstance(dist, DiscreteVelocityDist):
        return math.fsum(c.p / abs(c.v) for c in dist.classes)
    return math.fsum(
        w * _band_inverse_speed(a, b) for (a, b), w in zip(dist.bands, dist.weights)
    )


# --- scenario JSON schema -------------------------------------------------

_TOP_KEYS = {"lambda", "d", "r", "bit_rate", "packet_bits", "seed", "velocity"}
_DISCRETE_KEYS = {"type", "classes"}
_CLASS_KEYS = {"v", "p"}
_CONTINUOUS_KEYS = {"type", "family", "a", "b", "direction_split"}


def _require_number(doc: dict, key: str, path: str) -> float:
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise SchemaError(f"{path}.{key}", "expected a number")
    if not abs(val) <= sys.float_info.max:  # nan, inf, or an int past any float
        raise SchemaError(f"{path}.{key}", "must be finite")
    return float(val)


def _check_keys(doc: dict, allowed: set[str], required: set[str], path: str):
    if not isinstance(doc, dict):
        raise SchemaError(path, "expected an object")
    for key in doc:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in doc:
            raise SchemaError(f"{path}.{key}", "missing required key")


def _velocity_from_dict(doc: dict, path: str) -> VelocityDist:
    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError(f"{path}.type", "missing required key")
    kind = doc["type"]
    if kind == "discrete":
        _check_keys(doc, _DISCRETE_KEYS, _DISCRETE_KEYS, path)
        raw = doc["classes"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError(f"{path}.classes", "expected a non-empty array")
        classes = []
        for i, entry in enumerate(raw):
            cpath = f"{path}.classes[{i}]"
            _check_keys(entry, _CLASS_KEYS, _CLASS_KEYS, cpath)
            v = _require_number(entry, "v", cpath)
            p = _require_number(entry, "p", cpath)
            try:
                classes.append(VelocityClass(v, p))
            except InvalidParameterError as exc:
                raise SchemaError(cpath, str(exc)) from exc
        try:
            return DiscreteVelocityDist(tuple(classes))
        except InvalidParameterError as exc:
            raise SchemaError(f"{path}.classes", str(exc)) from exc
    if kind == "continuous":
        _check_keys(doc, _CONTINUOUS_KEYS, _CONTINUOUS_KEYS, path)
        if doc["family"] != "uniform":
            raise SchemaError(f"{path}.family", "only the 'uniform' family is supported")
        a = _require_number(doc, "a", path)
        b = _require_number(doc, "b", path)
        w = _require_number(doc, "direction_split", path)
        if not 0.0 < a < b:
            raise SchemaError(f"{path}.a", "need 0 < a < b for the forward support")
        if not 0.0 <= w <= 1.0:
            raise SchemaError(f"{path}.direction_split", "must lie in [0, 1]")
        if w == 1.0:
            bands, weights = ((a, b),), (1.0,)
        elif w == 0.0:
            bands, weights = ((-b, -a),), (1.0,)
        else:
            bands, weights = ((a, b), (-b, -a)), (w, 1.0 - w)
        try:
            return ContinuousVelocityDist(bands, weights)
        except InvalidParameterError as exc:
            raise SchemaError(path, str(exc)) from exc
    raise SchemaError(f"{path}.type", "must be 'discrete' or 'continuous'")


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a scenario document and build the Scenario.

    Raises :class:`SchemaError` with a dotted field path on any violation;
    unknown keys are rejected at every level.
    """
    _check_keys(doc, _TOP_KEYS, _TOP_KEYS, "$")
    lam = _require_number(doc, "lambda", "$")
    d = _require_number(doc, "d", "$")
    r = _require_number(doc, "r", "$")
    bit_rate = _require_number(doc, "bit_rate", "$")
    packet_bits = _require_number(doc, "packet_bits", "$")
    seed = doc["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaError("$.seed", "expected an integer")
    velocity = _velocity_from_dict(doc["velocity"], "$.velocity")
    try:
        return Scenario(
            lam=lam,
            d=d,
            r=r,
            bit_rate=bit_rate,
            packet_bits=packet_bits,
            velocity=velocity,
            seed=seed,
        )
    except InvalidParameterError as exc:
        raise SchemaError("$", str(exc)) from exc
