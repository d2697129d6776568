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

Each branch is written once, in the offset g = p - lower from the lower
bound of p, where R = (a g + b) sqrt(t) suffers no cancellation, against
``FLOAT_OPS`` for one float or ``ARRAY_OPS`` for arrays.  Radius-at-time
queries invert t(g) by Newton's method kept inside a bracket, which matters
at extinction, where dt/dg vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .curves import MethodId, RadiusCurve, check_grid
from .errors import DomainError, PastDissolutionError
from .model import Regime, branch_exponent, classify_regime

#: Queries below this time return the initial radius, avoiding the
#: 1/sqrt(t) singularity of the flux term, where that shortcut's error
#: 2 |eps| sqrt(t) stays within acceptance criterion 3's 1e-6.
TINY_TIME = 1e-14
_SHORTCUT_ERROR = 1e-6

#: |R - 1| <= |eps| (t + 2 sqrt(t)); below this bound R rounds to 1.0.
_ROUNDS_TO_ONE = 1e-17

_NEWTON_MAX_ITER = 100


#: The elementwise functions the closed forms are written against.
FLOAT_OPS = SimpleNamespace(
    exp=math.exp, log=math.log, log1p=math.log1p, sqrt=math.sqrt, atan2=math.atan2,
    hypot=math.hypot, maximum=max, minimum=min, any=bool,
    where=lambda cond, a, b: a if cond else b,
)
ARRAY_OPS = SimpleNamespace(
    exp=np.exp, log=np.log, log1p=np.log1p, sqrt=np.sqrt, atan2=np.arctan2,
    hypot=np.hypot, maximum=np.maximum, minimum=np.minimum, any=np.any, where=np.where,
)


class _Branch(NamedTuple):
    """One regime's exact solution as a function of the offset g = p - lower.

    ``log_st(g, xp)`` is log(scale * t(g)), strictly decreasing in g, and
    ``slope(g, xp)`` is -d log t / d log g > 0.  On the dissolving branches
    log t(g) >= log t(0) - g^2 / curvature.
    """

    regime: Regime
    k: float
    lower: float
    scale: float
    a: float
    b: float
    curvature: float
    log_st: Callable
    slope: Callable

    def time(self, g, xp=FLOAT_OPS):
        return xp.exp(self.log_st(g, xp)) / self.scale

    def radius(self, g, t, xp=FLOAT_OPS):
        r = (self.a * g + self.b) * xp.sqrt(t)
        # the radius never crosses its initial value; keep rounding from doing so
        return xp.maximum(r, 1.0) if self.regime is Regime.GROWTH else xp.minimum(r, 1.0)


def _branch(eps: float, regime: Regime | None = None) -> _Branch:
    """The branch table entry for ``eps``, which must lie in ``regime`` if given."""
    found = classify_regime(eps)
    if regime is not None and found is not regime:
        raise DomainError("epsilon", f"{regime.value} branch does not cover epsilon={eps!r}")
    if found is Regime.CRITICAL:
        # scale 4 makes t(0) = exp(-2) / 4 exact
        return _Branch(
            found, 0.0, 0.0, 4.0, 1.0, 0.0, 4.0,
            lambda g, xp: -4.0 / (g + 2.0) - 2.0 * xp.log1p(0.5 * g),
            lambda g, xp: 2.0 * (g / (g + 2.0)) ** 2,
        )
    if found is Regime.STATIC:
        raise DomainError("epsilon", "the static regime has no parametric branch")
    k = branch_exponent(eps)
    a = math.sqrt(abs(2.0 - eps)) * math.sqrt(abs(eps))
    scale = abs(eps * (2.0 - eps))
    if math.isinf(scale):
        raise DomainError("epsilon", f"|epsilon (2 - epsilon)| overflows at epsilon={eps!r}")
    if found is Regime.DISSOLUTION:

        def log_st(g, xp):
            # 2 atan(p) - pi == -2 atan(1/p) for p > 0, evaluated without cancellation
            p = k + g
            return -2.0 * k * xp.atan2(1.0, p) - 2.0 * xp.log(xp.hypot(1.0, p))

        return _Branch(found, k, k, scale, a, 0.0, 2.0 / (2.0 - eps), log_st,
                       lambda g, xp: 2.0 * (g / xp.hypot(1.0, k + g)) ** 2)
    if found is Regime.GROWTH:
        return _Branch(
            found, k, 1.0, scale, a, a - eps, math.inf,
            lambda g, xp: k * xp.log1p(2.0 / g) - xp.log(g) - xp.log(g + 2.0),
            lambda g, xp: 2.0 * (1.0 + g + k) / (g + 2.0),
        )
    # supercritical: p - 1 = (k - 1) + g, with k - 1 free of cancellation as eps -> inf
    km1 = 2.0 / ((eps - 2.0) * (k + 1.0))
    return _Branch(
        found, k, k, scale, a, 0.0, 2.0 / (eps - 2.0),
        lambda g, xp: -k * xp.log1p(2.0 / (km1 + g)) - xp.log(km1 + g) - xp.log(km1 + g + 2.0),
        lambda g, xp: 2.0 * (g / (km1 + g)) * (g / (km1 + g + 2.0)),
    )


def _offset_at(branch: _Branch, t, xp=FLOAT_OPS):
    """Solve t(g) = t for the offset g, elementwise.

    Requires 0 < t < t(0) on the dissolving branches.  Newton's method runs
    in x = log g on log(scale * t(g)), which is close to linear in x at both
    ends of every branch, and falls back to bisection whenever a step would
    leave the bracket [lo, hi] built from closed-form bounds on t(g).
    """
    # log(scale t): from the product where it stays in range, else from a sum of logs
    log_scale, t_lo, t_hi = math.log(branch.scale), 1e-300 / branch.scale, 1e300 / branch.scale
    target = xp.where((t > t_lo) & (t < t_hi),
                      xp.log(branch.scale * xp.minimum(xp.maximum(t, t_lo), t_hi)),
                      log_scale + xp.log(t))
    ln2 = math.log(2.0)
    # log_st(g) <= -2 log g (+ 2 log 2 on the critical branch), tight as g -> inf
    large = -0.5 * target
    if branch.regime is Regime.GROWTH:
        # t(g) >= 1/(3 scale g) for g <= 1 and t(g) <= 2/(scale g^2) for g >= 2
        # floored where g no longer changes R = (a g + b) sqrt(t)
        lo = xp.maximum(xp.minimum(0.0, -math.log(3.0) - target), -700.0)
        hi = xp.maximum(ln2, 0.5 * (ln2 - target))
        x = xp.minimum(large, ((branch.k - 1.0) * ln2 - target) / (1.0 + branch.k))
    else:
        # the root has g^2 >= curvature * (log t(0) - log t), by the curvature bound
        drop = xp.maximum(branch.log_st(0.0, xp) - target, 0.0)
        g_lo = xp.maximum(xp.sqrt(branch.curvature * drop), 1e-150)
        lo, hi = xp.log(g_lo), large
        x = xp.where(g_lo < 1.0, lo, large)
    lo, hi = lo - ln2, hi + 2.0 * ln2
    x = xp.minimum(xp.maximum(x, lo), hi)
    tol = 1e-14 * (1.0 + abs(target) + max(log_scale, 0.0))
    for _ in range(_NEWTON_MAX_ITER):
        g = xp.exp(x)
        residual = branch.log_st(g, xp) - target
        above = residual > 0.0
        lo = xp.where(above, x, lo)
        hi = xp.where(above, hi, x)
        step = x + residual / branch.slope(g, xp)
        x = xp.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        if not xp.any((abs(residual) > tol) & (hi - lo > 1e-12)):
            break
    return xp.exp(x)


def _initial(eps: float, t, xp=FLOAT_OPS):
    """Where R = 1 is returned as is (eps != 0): the tiny-time shortcut, or R rounds to 1."""
    root, size = xp.sqrt(t), abs(eps)
    return (((t < TINY_TIME) & (root <= 0.5 * _SHORTCUT_ERROR / size))
            | (t + 2.0 * root <= _ROUNDS_TO_ONE / size))


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
    lower, growth = branch.lower, branch.regime is Regime.GROWTH
    if not math.isfinite(param) or param < lower or (growth and param == lower):
        raise DomainError("param", f"must be {'>' if growth else '>='} {lower!r}, got {param!r}")
    g = param - lower
    t = branch.time(g)
    return ParametricPoint(param, t, branch.radius(g, t), branch.regime)


def param_point_dissolution(eps: float, param: float) -> ParametricPoint:
    """Dissolution branch (0 < eps < 2) at parameter p >= k: from R = 0 at
    p = k (complete dissolution) to t -> 0, R -> 1 as p -> infinity."""
    return _point(_branch(eps, Regime.DISSOLUTION), param)


def param_point_growth(eps: float, param: float) -> ParametricPoint:
    """Growth branch (eps < 0) at parameter p > 1."""
    return _point(_branch(eps, Regime.GROWTH), param)


def param_point_supercritical(eps: float, param: float) -> ParametricPoint:
    """Supercritical dissolution branch (eps > 2) at parameter p >= k."""
    return _point(_branch(eps, Regime.SUPERCRITICAL), param)


def param_point_critical(param: float) -> ParametricPoint:
    """Critical branch (eps == 2) at parameter p >= 0."""
    return _point(_branch(2.0), param)


def _time(eps: float, p: float) -> float:
    """t at curve parameter p on the branch of ``eps``."""
    branch = _branch(eps)
    return branch.time(p - branch.lower)


_time_dissolution = _time_growth = _time_supercritical = _time


def _time_critical(p: float) -> float:
    return _time(2.0, p)


def time_to_dissolution(eps: float) -> float:
    """Dimensionless time at which the radius reaches zero, for eps > 0.

    The three dissolving branches give

        0 < eps < 2:  exp(-2 k atan(1/k)) / (2 eps),  k = sqrt(eps/(2-eps))
        eps == 2:     exp(-2) / 4
        eps > 2:      exp(-k log((k+1)/(k-1))) / (2 eps), k = sqrt(eps/(eps-2))

    which join continuously at eps = 2; each is the branch's t at g = 0.
    """
    if eps <= 0:
        raise DomainError("epsilon", "dissolution never completes for epsilon <= 0")
    return _branch(eps).time(0.0)  # rejects non-finite values


def _checked_branch(eps: float, lowest: float, highest: float):
    """radius_at's checks on its smallest and largest time.  Returns the
    branch (None for eps = 0) and t0 (infinite where the radius never vanishes)."""
    if not (math.isfinite(eps) and math.isfinite(lowest) and math.isfinite(highest)):
        raise DomainError("t" if math.isfinite(eps) else "epsilon", "must be finite")
    if lowest < 0:
        raise DomainError("t", f"must be non-negative, got {lowest!r}")
    if eps == 0:
        return None, math.inf
    branch = _branch(eps)
    t0 = branch.time(0.0) if eps > 0 else math.inf
    if highest > t0 * (1.0 + 1e-12):
        raise PastDissolutionError(highest, t0)
    return branch, t0


def radius_at(eps: float, t):
    """Radius at a given dimensionless time, by inverting the implicit relation.

    ``t`` is a float or an array of times (which returns an array).  For
    eps > 0 no time may exceed the complete-dissolution time; such queries
    raise ``PastDissolutionError``.
    """
    if not isinstance(t, float) and np.ndim(t):
        return _radius_array(eps, np.asarray(t, dtype=float))
    t = float(t)
    branch, t0 = _checked_branch(eps, t, t)
    if t >= t0:
        return 0.0
    if branch is None or _initial(eps, t):
        return 1.0
    return branch.radius(_offset_at(branch, t), t)


def _radius_array(eps: float, t: np.ndarray) -> np.ndarray:
    branch, t0 = _checked_branch(eps, *((float(t.min()), float(t.max())) if t.size else (0, 0)))
    radii = np.where(t >= t0, 0.0, 1.0)
    if branch is not None:
        solve = (t < t0) & ~_initial(eps, t, ARRAY_OPS)
        times = t[solve]
        radii[solve] = branch.radius(_offset_at(branch, times, ARRAY_OPS), times, ARRAY_OPS)
    return radii


def exact_curve(eps: float, n: int = 256, t_max: float | None = None) -> RadiusCurve:
    """Sample the exact solution on a geometric parameter grid.

    For eps > 0 the curve spans from near t = 0 (R near 1) down to complete
    dissolution (R = 0), or to ``t_max`` if that comes first.  For eps <= 0
    there is no finite endpoint and ``t_max`` is required.  The parameter
    grid is log-spaced in the offset from the branch's lower bound, which
    resolves both the t -> 0 and the R -> 0 ends.
    """
    check_grid(eps, n, t_max)
    metadata = {"samples": n, "parameter_grid": "geometric", "t_max": t_max}
    if eps == 0:
        times = np.linspace(0.0, t_max, n)
        return RadiusCurve(MethodId.EXACT_QS, eps, times, np.ones(n), metadata)

    branch = _branch(eps)
    t0 = branch.time(0.0) if eps > 0 else math.inf
    t_end = min(t_max, t0) if t_max is not None else t0
    g_first = _offset_at(branch, t_end * 1e-10)
    if t_end >= t0:
        # include the extinction endpoint exactly, then fan out geometrically
        offsets = np.concatenate(([0.0], np.geomspace(1e-6 * (1.0 + branch.lower), g_first, n - 1)))
    else:
        offsets = np.geomspace(_offset_at(branch, t_end), g_first, n)

    # descending offset <=> ascending time
    offsets = np.sort(offsets)[::-1]
    times = branch.time(offsets, ARRAY_OPS)
    radii = branch.radius(offsets, times, ARRAY_OPS)
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
    if radius <= 0:
        raise DomainError("radius", f"must be positive, got {radius!r}")
    if t <= 0:
        raise DomainError("t", f"must be positive, got {t!r}")
    if r < radius:
        raise DomainError("r", f"position {r!r} lies inside the particle (radius {radius!r})")
    x = (r - radius) * math.sqrt(math.pi / (4.0 * t))
    if x > 6.0:
        return 0.0
    return (radius / r) * math.erfc(x)
