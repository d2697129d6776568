"""Exact quasi-stationary radius histories in implicit parametric form.

The leading-order radius equation

    dR/dt = -epsilon (1/R + 1/sqrt(t)),   R(0) = 1

separates in the similarity variables tau = sqrt(t), u = R/tau.  Each regime
has a closed-form branch in which time is an explicit, strictly decreasing
function of a single curve parameter and the radius follows algebraically:

* dissolution (0 < eps < 2), with k = sqrt(eps/(2-eps)) and parameter p >= k:
      t = exp(-2 k atan(1/p)) / [eps (2-eps) (1+p^2)]
      R = (p sqrt(2-eps) - sqrt(eps)) sqrt(eps t)
* growth (eps < 0), with k = sqrt(-eps/(2-eps)) and parameter p > 1:
      t = [(p+1)/(p-1)]^k / [(-eps)(2-eps)(p^2-1)]
      R = (p sqrt(2-eps) + sqrt(-eps)) sqrt(-eps t)
* supercritical (eps > 2), with k = sqrt(eps/(eps-2)) and parameter p >= k:
      t = [(p+1)/(p-1)]^(-k) / [eps (eps-2) (p^2-1)]
      R = (p sqrt(eps-2) - sqrt(eps)) sqrt(eps t)
* critical (eps == 2), parameter p >= 0:
      t = exp(-4/(p+2)) / (p+2)^2,   R = p sqrt(t)

Each branch is written once, as one function of the offset g = p - lower
(where R = (a g + b) sqrt(t) suffers no cancellation) giving log t and its
slope, for floats or, in ``exact_curve``, numpy arrays.  Radius-at-time
queries invert t(g) on floats by Newton's method kept inside a bracket, which
matters at extinction, where dt/dg vanishes; an array of times maps each
time through that float solver.  Their times, and the dissolution time,
follow the query contract of ``curves``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .curves import (
    EARLIEST_SAMPLE,
    FLOAT_OPS,
    START_FRACTION,
    MethodId,
    RadiusCurve,
    array_ops,
    check_epsilon,
    check_grid,
    check_not_past,
    check_span,
    dissolution_time,
    query_times,
)
from .errors import DomainError
from .model import _CRITICAL, _DISSOLUTION, _GROWTH, _STATIC, Regime, classify_regime

#: |R - 1| <= |eps| (t + 2 sqrt(t)); below this bound R rounds to 1.0.
_ROUNDS_TO_ONE = 1e-17

#: The smallest offset whose 2/g, in the growth branch's time, stays finite.
_SMALLEST_OFFSET = 2.0 / sys.float_info.max

#: The log of the largest float, past which scale * t overflows.
_LOG_MAX = math.log(sys.float_info.max)

_NEWTON_MAX_ITER = 100
_LN2, _LN3 = math.log(2.0), math.log(3.0)


def _rounds_to_one(eps: float, t, xp=FLOAT_OPS):
    """Whether R rounds to 1.0 at the time or times t, for eps != 0."""
    return t + 2.0 * xp.sqrt(t) <= _ROUNDS_TO_ONE / abs(eps)


class _Branch(NamedTuple):
    """One regime's exact solution as a function of the offset g = p - lower.

    ``curve(g, xp)`` is the pair (log(scale * t(g)), -d log t / d log g): the
    first strictly decreasing in g, the second positive.  On the dissolving
    branches log t(g) >= log t(0) - g^2 / curvature.
    """

    regime: Regime
    k: float
    lower: float
    scale: float
    a: float
    b: float
    curvature: float
    curve: Callable

    def time(self, g, xp=FLOAT_OPS):
        log_st = self.curve(g, xp)[0]
        if xp is FLOAT_OPS and log_st <= _LOG_MAX:
            return math.exp(log_st) / self.scale
        # where scale * t overflows, the scale leaves through the exponent
        big = log_st > _LOG_MAX
        return xp.exp(log_st - big * math.log(self.scale)) / xp.where(big, 1.0, self.scale)

    def radius(self, g, t, xp=FLOAT_OPS):
        r = (self.a * g + self.b) * xp.sqrt(t)
        # the radius never crosses its initial value; keep rounding from doing so
        return xp.maximum(r, 1.0) if self.regime is _GROWTH else xp.minimum(r, 1.0)


def _branch(eps: float, regime: Regime | None = None) -> _Branch:
    """The branch table entry for ``eps``, a float ``check_epsilon`` returned, which
    must lie in ``regime`` if given."""
    found = classify_regime(eps)
    if regime is not None and found is not regime:
        raise DomainError("epsilon", f"{regime.value} branch does not cover epsilon={eps!r}")
    if found is _CRITICAL:
        def critical(g, xp):
            s = g + 2.0
            return -4.0 / s - 2.0 * xp.log1p(0.5 * g), 2.0 * (g / s) ** 2
        # scale 4 makes t(0) = exp(-2) / 4 exact
        return _Branch(found, 0.0, 0.0, 4.0, 1.0, 0.0, 4.0, critical)
    if found is _STATIC:
        raise DomainError("epsilon", "the static regime has no parametric branch")
    k = math.sqrt(abs(eps / (2.0 - eps)))  # branch_exponent, without a second check
    a = math.sqrt(abs(2.0 - eps)) * math.sqrt(abs(eps))
    scale = abs(eps * (2.0 - eps))
    if math.isinf(scale):
        raise DomainError("epsilon", f"|epsilon (2 - epsilon)| overflows at epsilon={eps!r}")
    if found is _GROWTH:
        def growth(g, xp):
            s = g + 2.0
            return k * xp.log1p(2.0 / g) - xp.log(g) - xp.log(s), 2.0 * (1.0 + g + k) / s
        return _Branch(found, k, 1.0, scale, a, a - eps, math.inf, growth)
    if found is _DISSOLUTION:
        def dissolution(g, xp):
            # 2 atan(p) - pi == -2 atan(1/p) for p > 0, evaluated without cancellation
            p = k + g
            h = xp.hypot(1.0, p)
            return -2.0 * k * xp.atan2(1.0, p) - 2.0 * xp.log(h), 2.0 * (g / h) ** 2
        return _Branch(found, k, k, scale, a, 0.0, 2.0 / (2.0 - eps), dissolution)
    # supercritical: p - 1 = (k - 1) + g, with k - 1 free of cancellation as eps -> inf
    km1 = 2.0 / ((eps - 2.0) * (k + 1.0))

    def supercritical(g, xp):
        q, q2 = km1 + g, km1 + g + 2.0
        return -k * xp.log1p(2.0 / q) - xp.log(q) - xp.log(q2), 2.0 * (g / q) * (g / q2)

    return _Branch(found, k, k, scale, a, 0.0, 2.0 / (eps - 2.0), supercritical)


def _offset_at(branch: _Branch, t: float) -> float:
    """Solve t(g) = t for the offset g.

    Requires 0 < t < t(0) on the dissolving branches.  Newton's method runs
    in x = log g on log(scale * t(g)), which is close to linear in x at both
    ends of every branch, and falls back to bisection whenever a step would
    leave the bracket [lo, hi] built from closed-form bounds on t(g).  The
    branch curve gets ``math`` as ``xp``, FLOAT_OPS's functions, loaded faster.
    """
    curve, scale = branch.curve, branch.scale
    # log(scale t): from the product where it stays in range, else from a sum of logs
    log_scale, t_lo, t_hi = math.log(scale), 1e-300 / scale, 1e300 / scale
    target = math.log(scale * t) if t_lo < t < t_hi else log_scale + math.log(t)
    # log_st(g) <= -2 log g (+ 2 log 2 on the critical branch), tight as g -> inf
    large = -0.5 * target
    if branch.regime is _GROWTH:
        # t(g) >= 1/(3 scale g) for g <= 1 and t(g) <= 2/(scale g^2) for g >= 2
        # floored where g no longer changes R = (a g + b) sqrt(t), below every float t's root
        lo = max(min(0.0, -_LN3 - target), -710.0)
        hi = max(_LN2, 0.5 * (_LN2 - target))
        x = min(large, ((branch.k - 1.0) * _LN2 - target) / (1.0 + branch.k))
    else:
        # the root has g^2 >= curvature * (log t(0) - log t), by the curvature bound
        drop = max(curve(0.0, math)[0] - target, 0.0)
        g_lo = max(math.sqrt(branch.curvature * drop), 1e-150)
        lo, hi = math.log(g_lo), large
        x = lo if g_lo < 1.0 else large
    lo, hi = lo - _LN2, hi + 2.0 * _LN2
    x = min(max(x, lo), hi)
    tol = 1e-14 * (1.0 + abs(target) + max(log_scale, 0.0))
    for _ in range(_NEWTON_MAX_ITER):
        log_st, slope = curve(math.exp(x), math)
        residual = log_st - target
        lo, hi = (x, hi) if residual > 0.0 else (lo, x)
        step = x + residual / slope
        x = step if lo <= step <= hi else 0.5 * lo + 0.5 * hi
        if not (abs(residual) > tol and hi - lo > 1e-12):
            break
    return math.exp(x)


@dataclass(frozen=True)
class ParametricPoint:
    """One point of a solution curve: the parameter with its (t, R) pair."""

    parameter: float
    t: float
    radius: float
    regime: Regime

    def __post_init__(self):
        if not (math.isfinite(self.parameter) and math.isfinite(self.t)):
            raise DomainError("parameter", "parametric point must be finite")
        if self.t < 0 or self.radius < 0:
            raise DomainError("t", "time and radius must be non-negative")


def _point(branch: _Branch, param: float) -> ParametricPoint:
    lower, growth = branch.lower, branch.regime is _GROWTH
    finite, param = math.isfinite(param), float(param)  # isfinite raises on a str; float parses it
    if not finite or param < lower or (growth and param == lower):
        raise DomainError("param", f"must be {'>' if growth else '>='} {lower!r}, got {param!r}")
    g = param - lower
    t = branch.time(g)
    if not EARLIEST_SAMPLE <= t < math.inf:
        raise DomainError("param", f"{param!r} gives t={t!r}, outside [{EARLIEST_SAMPLE:.3g}, inf)")
    return ParametricPoint(param, t, branch.radius(g, t), branch.regime)


def param_point_dissolution(eps: float, param: float) -> ParametricPoint:
    """Dissolution branch (0 < eps < 2) at parameter p >= k: from R = 0 at
    p = k (complete dissolution) to t -> 0, R -> 1 as p -> infinity."""
    return _point(_branch(check_epsilon(eps), Regime.DISSOLUTION), param)


def param_point_growth(eps: float, param: float) -> ParametricPoint:
    """Growth branch (eps < 0) at parameter p > 1."""
    return _point(_branch(check_epsilon(eps), Regime.GROWTH), param)


def param_point_supercritical(eps: float, param: float) -> ParametricPoint:
    """Supercritical dissolution branch (eps > 2) at parameter p >= k."""
    return _point(_branch(check_epsilon(eps), Regime.SUPERCRITICAL), param)


def param_point_critical(param: float) -> ParametricPoint:
    """Critical branch (eps == 2) at parameter p >= 0."""
    return _point(_branch(2.0), param)


def _time(eps: float, p: float) -> float:
    """t at curve parameter p on the branch of ``eps``."""
    branch = _branch(eps)
    return branch.time(p - branch.lower)


def time_to_dissolution(eps: float) -> float:
    """Dimensionless time at which the radius reaches zero, for eps > 0.

    The three dissolving branches give

        0 < eps < 2:  exp(-2 k atan(1/k)) / (2 eps),  k = sqrt(eps/(2-eps))
        eps == 2:     exp(-2) / 4
        eps > 2:      exp(-k log((k+1)/(k-1))) / (2 eps), k = sqrt(eps/(eps-2))

    which join continuously at eps = 2; each is the branch's t at g = 0.
    """
    return dissolution_time(eps, lambda e: _branch(e).time(0.0), "exact")


def radius_at(eps: float, t):
    """Radius at a given dimensionless time, by inverting the implicit relation.

    ``t`` is a float or an array of times (which returns an array, each time
    answered as the float it holds), checked by ``query_times``.  For eps > 0
    no time may exceed the complete-dissolution time; such queries raise
    ``PastDissolutionError``.
    """
    eps = check_epsilon(eps)
    xp, t, _, last = query_times(t)
    branch = _branch(eps) if eps != 0 else None
    t0 = branch.time(0.0) if eps > 0 else math.inf
    check_not_past(last, t0)
    if xp is FLOAT_OPS:
        return _radius(eps, branch, t0, t)
    import numpy as np
    return np.array([_radius(eps, branch, t0, x) for x in t.ravel().tolist()]).reshape(t.shape)


def _radius(eps: float, branch: _Branch | None, t0: float, t: float) -> float:
    """R at one checked time t; 1 at eps = 0 and where R rounds to 1, as in ``exact_curve``."""
    if t >= t0:
        return 0.0
    if branch is None or _rounds_to_one(eps, t):
        return 1.0
    return _radius_in_range(branch, _offset_at(branch, t), t, "t")


def _radius_in_range(branch: _Branch, g: float, t: float, param: str) -> float:
    """R at offset g and time t, unless growth has outrun the floats: at |eps| near
    1e154 R is about 2/g, so an offset below ``_SMALLEST_OFFSET`` or an infinite R."""
    radius = branch.radius(g, t)
    if radius == math.inf or g < _SMALLEST_OFFSET:
        raise DomainError(param, f"the radius at t={t!r} exceeds the largest float")
    return radius


def exact_curve(eps: float, n: int = 256, t_max: float | None = None) -> RadiusCurve:
    """Sample the exact solution on a geometric parameter grid.

    For eps > 0 the curve spans from near t = 0 (R near 1) down to complete
    dissolution (R = 0), or to ``t_max`` if that comes first.  For eps <= 0
    there is no finite endpoint and ``t_max`` is required.  The parameter
    grid is log-spaced in the offset from the branch's lower bound, which
    resolves both the t -> 0 and the R -> 0 ends.
    """
    import numpy as np
    eps = check_grid(eps, n, t_max)
    t0 = time_to_dissolution(eps) if eps > 0 else math.inf
    t_end = check_span(t0, t_max)
    t_first = t_end * START_FRACTION
    # no change, or one that rounds away by the end: the curve of ones, uniform in t for
    # eps <= 0, and for dissolution geometric in t over the ten decades its grid would span
    ones = eps == 0 or _rounds_to_one(eps, t_end)
    metadata = {"samples": n, "parameter_grid": "uniform" if ones and eps <= 0 else "geometric",
                "t_max": t_max}
    if ones:
        with np.errstate(over="ignore"):  # linspace may overflow its last point, set to t_max
            times = np.geomspace(t_first, t_end, n) if eps > 0 else np.linspace(0.0, t_max, n)
        return RadiusCurve(MethodId.EXACT_QS, eps, times, np.ones(n), metadata)

    branch = _branch(eps)
    g_first = _offset_at(branch, t_first)
    if t_end >= t0:
        # include the extinction endpoint exactly, then fan out geometrically
        offsets = np.concatenate(([0.0], np.geomspace(1e-6 * (1.0 + branch.lower), g_first, n - 1)))
    else:
        g_end = _offset_at(branch, t_end)
        _radius_in_range(branch, g_end, t_end, "t_max")
        offsets = np.geomspace(g_end, g_first, n)

    # descending offset <=> ascending time
    offsets = np.sort(offsets)[::-1]
    xp = array_ops()
    with np.errstate(over="ignore"):
        times = branch.time(offsets, xp)
    if times[-1] == math.inf:  # rounding carried a t_max next to the largest float past it
        times[-1] = t_end
    # where R rounds to 1, 1 itself, as ``radius_at`` answers
    radii = xp.where(_rounds_to_one(eps, times, xp), 1.0, branch.radius(offsets, times, xp))
    return RadiusCurve(MethodId.EXACT_QS, eps, times, radii, metadata)


def concentration_profile(radius: float, t: float, r: float) -> float:
    """Leading-order concentration around a sphere of the given radius.

    C(r, t) = (radius / r) * erfc((r - radius) * sqrt(pi / (4 t)))

    in units where the surface value is 1 and the far field 0.  Arguments
    of the complementary error function beyond 6 contribute less than
    1e-16 and are reported as exactly zero.
    """
    if not (math.isfinite(radius) and math.isfinite(t) and math.isfinite(r)):
        raise DomainError("r", "arguments must be finite")
    radius, t, r = float(radius), float(t), float(r)
    if radius <= 0:
        raise DomainError("radius", f"must be positive, got {radius!r}")
    if t <= 0:
        raise DomainError("t", f"must be positive, got {t!r}")
    if r < radius:
        raise DomainError("r", f"position {r!r} lies inside the particle (radius {radius!r})")
    x = (r - radius) * (0.5 * math.sqrt(math.pi)) / math.sqrt(t)  # pi / (4 t) may overflow
    if x > 6.0:
        return 0.0
    return (radius / r) * math.erfc(x)
