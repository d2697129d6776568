"""Explicit approximate radius formulas and their complete-dissolution times.

Every closed form here is an algebraic function of sqrt(t):

    qss:        R = sqrt(1 - 2 eps t)                   (steady surface flux only)
    small-time: R = 1 - 2 eps sqrt(t)                   (planar transient flux only)
    intuitive:  R = sqrt(1 - 2 eps t) - 2 eps sqrt(t)   (sum of both effects)
    duda:       R = sqrt(1 - 2 eps (2 sqrt(t) + t))     (boundary-fitted closed form)
    blended:    R = sqrt(alpha * duda^2 + (1-alpha) * intuitive^2)

The blended weight alpha(eps) is a semi-empirical fit valid only for
-0.5 <= eps <= 0.5; outside that range it is refused.

Each formula is evaluated in one place, ``approx_radius``, for one float or
an array of times; the per-method wrappers and ``approx_curve`` call it.
For eps > 0 qss, intuitive and duda refuse a time past their t0, while
small-time and blended clamp the radius to 0 there: with a
``ClampedRadiusWarning`` for a float, silently for an array.  Each t0
formula is written once, in ``_T0_DISPATCH``; times and t0s follow the
query contract of ``curves``.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import exact
from .curves import (
    FLOAT_OPS,
    MethodId,
    RadiusCurve,
    array_ops,
    bisect,
    check_epsilon,
    check_grid,
    check_not_past,
    check_span,
    dissolution_time,
    query_times,
)
from .errors import DomainError, EpsilonRangeError, warn_clamped

FIT_RANGE = (-0.5, 0.5)

#: Resolution of the sign-change scan used to locate the blended formula's
#: first radicand zero (the scan is uniform in sqrt(t)).
_BLEND_SCAN_POINTS = 4096
_BLEND_T0_REL_TOL = 1e-12


def _qss(eps, t, xp):
    return xp.sqrt(xp.maximum(1.0 - 2.0 * eps * t, 0.0))


def _intuitive(eps, t, xp):
    # unclamped: the blended radicand squares it
    return _qss(eps, t, xp) - 2.0 * eps * xp.sqrt(t)


def _duda_sq(eps, t, xp):
    return 1.0 - 2.0 * eps * (2.0 * xp.sqrt(t) + t)


#: R(eps, t) of the four unweighted formulas, for floats (FLOAT_OPS) or arrays (array_ops()).
_FORMULAS = {
    MethodId.QSS: _qss,
    MethodId.SMALL_TIME: lambda eps, t, xp: xp.maximum(1.0 - 2.0 * eps * xp.sqrt(t), 0.0),
    MethodId.INTUITIVE: lambda eps, t, xp: xp.maximum(_intuitive(eps, t, xp), 0.0),
    MethodId.DUDA_VRENTAS: lambda eps, t, xp: xp.sqrt(xp.maximum(_duda_sq(eps, t, xp), 0.0)),
}


def qss_radius(eps: float, t: float) -> float:
    """Quasi-steady-state radius sqrt(1 - 2 eps t)."""
    return _radius(MethodId.QSS, eps, t)


def small_time_radius(eps: float, t: float) -> float:
    """Short-time radius 1 - 2 eps sqrt(t); negative values clamp to 0."""
    return _radius(MethodId.SMALL_TIME, eps, t)


def intuitive_t0(eps: float) -> float:
    """Complete-dissolution time of the combined-flux formula, 1/(2 eps (2 eps + 1))."""
    return approx_t0(MethodId.INTUITIVE, eps)


def intuitive_radius(eps: float, t: float) -> float:
    """Combined-flux radius sqrt(1 - 2 eps t) - 2 eps sqrt(t)."""
    return _radius(MethodId.INTUITIVE, eps, t)


def duda_t0(eps: float) -> float:
    """Complete-dissolution time of the boundary-fitted closed form,
    (sqrt(1 + 1/(2 eps)) - 1)^2."""
    return approx_t0(MethodId.DUDA_VRENTAS, eps)


def duda_radius(eps: float, t: float) -> float:
    """Boundary-fitted closed-form radius sqrt(1 - 2 eps (2 sqrt(t) + t))."""
    return _radius(MethodId.DUDA_VRENTAS, eps, t)


def blend_alpha(eps: float) -> float:
    """Semi-empirical blending weight between the two explicit closed forms.

    Three fitted branches: a rational form on 0 < eps < 0.1, a quadratic in
    log10(eps) on 0.1 <= eps <= 0.5 (inclusive at both ends), and a rational
    form in |eps| on -0.5 <= eps < 0.
    """
    check_epsilon(eps)
    if eps == 0:
        raise DomainError("epsilon", "the blended fit is undefined at epsilon = 0")
    if not FIT_RANGE[0] <= eps <= FIT_RANGE[1]:
        raise EpsilonRangeError(
            f"blended fit covers {FIT_RANGE[0]} <= epsilon <= {FIT_RANGE[1]} (got {eps:g})"
        )
    if eps < 0:
        return 0.5381 * (1.0 - 0.3 / (1.0 + abs(eps) ** (-0.6514)))
    if eps < 0.1:
        return 0.781 * (1.0 - 1.935 / (1.0 + 1.05 * eps ** (-0.4278)))
    lg = math.log10(eps)
    return 0.0193 * lg * lg - 0.2703 * lg + 0.095


def _blend_radicand(eps, alpha, t, xp=FLOAT_OPS):
    intuitive = _intuitive(eps, t, xp)
    return alpha * _duda_sq(eps, t, xp) + (1.0 - alpha) * intuitive * intuitive


@lru_cache(maxsize=512)
def blended_t0(eps: float) -> float:
    """First zero of the blended radicand: the formula's dissolution time.

    Located by a sign-change scan uniform in sqrt(t) over [0, 1/(2 eps)]
    followed by bisection.
    """
    t_cap = dissolution_time(eps, lambda e: 0.5 / e, "blended")
    alpha = blend_alpha(eps)
    import numpy as np
    roots = np.linspace(0.0, math.sqrt(t_cap), _BLEND_SCAN_POINTS + 1)
    crossed = np.flatnonzero(_blend_radicand(eps, alpha, roots[1:] ** 2, array_ops()) <= 0.0)
    if crossed.size == 0:
        raise DomainError("epsilon", f"blended radicand has no zero below t={t_cap:g}")
    lo, hi = bisect(lambda t: _blend_radicand(eps, alpha, t) > 0.0,
                    roots[crossed[0]] ** 2, roots[crossed[0] + 1] ** 2,
                    _BLEND_T0_REL_TOL * max(1.0, t_cap))
    return 0.5 * (lo + hi)


def blended_radius(eps: float, t: float) -> float:
    """Weighted combination of the two explicit closed forms.

    For eps > 0 the radius is clamped to 0 from the first radicand zero
    onwards (the radicand can become positive again later, which has no
    physical meaning past complete dissolution).
    """
    return _radius(MethodId.BLENDED, eps, t)


#: Methods with a closed-form (or root-findable) dissolution time.
_T0_DISPATCH = {
    MethodId.EXACT_QS: exact.time_to_dissolution,
    MethodId.QSS: lambda eps: 0.5 / eps,
    MethodId.SMALL_TIME: lambda eps: 0.25 / (eps * eps),
    MethodId.INTUITIVE: lambda eps: 1.0 / (2.0 * eps * (2.0 * eps + 1.0)),
    MethodId.DUDA_VRENTAS: lambda eps: (math.sqrt(1.0 + 0.5 / eps) - 1.0) ** 2,
    MethodId.BLENDED: blended_t0,
}


def approx_t0(method: MethodId, eps: float) -> float:
    """Complete-dissolution time predicted by the given method, for eps > 0."""
    formula = _T0_DISPATCH.get(method)
    if formula is None:
        raise DomainError(
            "method",
            f"{method.value!r} has no closed-form dissolution time; run its solver directly",
        )
    return dissolution_time(eps, formula, method.value)


def _radius(method: MethodId, eps: float, t):
    """``approx_radius``: applies the method's epsilon domain, the time checks,
    its end-time rule and its formula."""
    formula, blended = _FORMULAS.get(method), method is MethodId.BLENDED
    if blended:
        # the fit is undefined at eps = 0, where every weight gives R = 1
        alpha = blend_alpha(eps) if eps != 0 else 0.0
    elif formula is None:
        raise DomainError("method", f"{method.value!r} is not an explicit approximation")
    else:
        check_epsilon(eps)
    xp, t, _, last = query_times(t)
    if blended:
        past = eps > 0 and t >= blended_t0(eps)
        if xp is FLOAT_OPS and past:
            warn_clamped("blended", t)
        return xp.where(past, 0.0, xp.sqrt(xp.maximum(_blend_radicand(eps, alpha, t, xp), 0.0)))
    if method is MethodId.SMALL_TIME:
        if xp is FLOAT_OPS and 2.0 * eps * math.sqrt(t) > 1.0:
            warn_clamped("small-time", t)
    elif eps > 0:  # the raw t0: infinite where it overflows, and then never passed
        check_not_past(last, _T0_DISPATCH[method](eps), method.value)
    return formula(eps, t, xp)


def approx_radius(method: MethodId, eps: float, t):
    """Evaluate one of the explicit approximations by method id.

    ``t`` is a float or an array of times (which returns an array).  Past
    t0, small-time and blended clamp to 0, warning for a float and silently
    for an array; the other formulas raise ``PastDissolutionError``.
    """
    return _radius(method, eps, t)


def approx_curve(
    method: MethodId, eps: float, n: int = 256, t_max: float | None = None
) -> RadiusCurve:
    """Sample an explicit approximation uniformly in sqrt(t).

    For eps > 0 the grid spans [0, t0(method)] unless ``t_max`` cuts it
    short; for eps <= 0 a ``t_max`` is required.
    """
    import numpy as np
    check_grid(eps, n, t_max)
    t_end = min(approx_t0(method, eps), t_max or math.inf) if eps > 0 else t_max
    check_span(t_end, t_max)
    times = np.linspace(0.0, math.sqrt(t_end), n) ** 2
    return RadiusCurve(method, eps, times, approx_radius(method, eps, times),
                       {"samples": n, "t_max": t_max})
