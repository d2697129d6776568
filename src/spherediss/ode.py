"""Brute-force oracle: adaptive integration of the leading-order radius equation.

dR/dt = -eps (1/R + 1/sqrt(t)) is stepped in a variable whose end is known,
so no run needs a stop condition.  Growth and the static case (eps <= 0) step
the squared radius y = R^2 against tau = sqrt(t) up to sqrt(t_end), which
removes the 1/sqrt(t) flux singularity at t = 0 (dR/dtau = -2 eps there):

    dy/dtau = -4 eps (tau + sqrt(y)),   y(0) = 1

Dissolution (eps > 0) steps sigma = 2 eps sqrt(t) against the radius lost
s = 1 - R up to s = 1, so it ends exactly at R = 0, at t0 = (sigma(1) / (2 eps))^2:

    dsigma/ds = 2 eps R / (sigma + 2 eps R),   sigma(0) = 0

For small eps sigma rises in a square-root layer of width ~eps at s = 0, so
the first step is at most 2 eps.  Stepping uses the vendored scalar DOP853 of
``_dop853`` (Hairer, Norsett & Wanner, "Solving ODEs I", sec. II.5) with
scipy's step-size rules and 7th-order dense output, on plain floats, so the
oracle imports neither scipy nor, until an array query or its ``curve``, numpy.
The tolerances are module constants, read at call time.  ``RadiusIntegration``
keeps the run's samples as float lists with the steps' interpolants, and builds
the run's ``RadiusCurve`` on first access.
"""

from __future__ import annotations

import bisect
import math
import sys
from functools import cached_property

from . import _dop853
from .curves import FLOAT_OPS, MethodId, RadiusCurve, check_end, dissolution_time, query_times
from .errors import DomainError, IntegrationError

#: Relative and absolute tolerances of every step's error test, on y = R^2 for
#: eps <= 0 and on sigma for eps > 0, where the absolute one is scaled by
#: min(1, sqrt(2 eps)), the order of sigma's final value.
RTOL = ATOL = 1e-10

#: Most accepted steps one run may take before it fails with ``IntegrationError``.
MAX_STEPS = 100_000

#: Largest scaled rate 4 |eps| / (ATOL + RTOL) a run accepts.  Growth's error
#: test squares errors of that order, and beyond the square root of the largest
#: float the square overflows (at the default tolerances, from eps = 1e149 on);
#: dissolution keeps the same bound, so that one eps range holds for both.
_MAX_SCALED_RATE = math.sqrt(sys.float_info.max)


class RadiusIntegration:
    """Dense-output result of one oracle run: its ``times`` and ``radii`` as float
    lists, whose last sample ends the run at ``t_end``, its metadata, and the
    interpolants ``rows`` of its accepted steps with their ``ends`` in tau (in
    sigma for eps > 0), led by the start 0."""

    def __init__(self, eps: float, times: list[float], radii: list[float], metadata: dict,
                 ends: list[float], rows: list[tuple]):
        self._eps, self._times, self._radii, self._metadata = eps, times, radii, metadata
        self.t_end, self._ends, self._rows = times[-1], ends, rows

    @cached_property
    def curve(self) -> RadiusCurve:
        """The run's samples and metadata as a ``RadiusCurve``, built on first access."""
        return RadiusCurve(MethodId.ODE_ORACLE, self._eps, self._times, self._radii,
                           self._metadata)

    @property
    def dissolution_time(self) -> float | None:
        """Complete-dissolution time, the run's ``t_end`` for eps > 0; None for eps <= 0."""
        return self._metadata["dissolution_time"]

    def radius_at(self, t):
        """Radius at ``t``, a float or an array of times (which returns an array).

        A dissolution run answers R = 0 at and past its end, as the short-time and
        blended formulas do past their t0.  A growth or static run answers its
        last radius at ``t_end`` and raises ``DomainError`` past it.
        """
        xp, t, _, _ = query_times(t)
        if xp is FLOAT_OPS:
            return self._radius(t)
        import numpy as np
        return np.array([self._radius(x) for x in t.ravel().tolist()]).reshape(t.shape)

    def _radius(self, t: float) -> float:
        eps, ends = self._eps, self._ends
        if eps > 0:
            sigma = 2.0 * eps * math.sqrt(t)
            if t < self.t_end and sigma < ends[-1]:
                return 1.0 - _radius_lost(ends, self._rows, sigma, 2.0 * eps)
            return 0.0
        tau = math.sqrt(t)
        if tau < ends[-1]:
            row = self._rows[max(bisect.bisect_left(ends, tau) - 1, 0)]
            return math.sqrt(max(_dop853._interpolate(tau, *row), 0.0))
        if tau == ends[-1]:
            return self._radii[-1]
        raise DomainError("t", f"t={t!r} is outside the integrated span (<= {self.t_end:.6g})")


def _radius_lost(sigmas: list[float], rows: list[tuple], sigma: float, two_eps: float) -> float:
    """s = 1 - R where a dissolution run reaches ``sigma``: Newton's method on the
    interpolant of the step whose ends bracket it, with the rate as the slope,
    bisecting the bracket where an iterate would leave it."""
    row = rows[bisect.bisect_left(sigmas, sigma, 1, len(rows)) - 1]
    s = lo = row[0]
    hi = lo + row[1]
    while True:
        p = _dop853._interpolate(s, *row)
        lo, hi = (s, hi) if p < sigma else (lo, s)
        s_new = s + (sigma - p) * (p / two_eps + 1.0 - s) / (1.0 - s)
        if s_new == s:
            return s
        if not lo < s_new < hi:
            s_new = 0.5 * lo + 0.5 * hi
            if not lo < s_new < hi:
                return s
        s = s_new


class _SquaredRadiusRate:
    """dy/dtau = -4 eps (tau + sqrt(y)), counting its evaluations."""

    def __init__(self, eps: float):
        self.scale = -4.0 * eps
        self.nfev = 0

    def __call__(self, tau: float, y: float) -> float:
        self.nfev += 1
        # sqrt is clamped so that the stages of a poor trial step, which the
        # error test rejects, stay well defined
        return self.scale * (tau + math.sqrt(max(y, 0.0)))

    def sample(self, tau: float, y: float) -> tuple[float, float]:
        """(t, R) at the point (tau, y)."""
        return tau * tau, math.sqrt(max(y, 0.0))


class _SigmaRate:
    """dsigma/ds = 2 eps R / (sigma + 2 eps R) with R = 1 - s, counting its evaluations."""

    def __init__(self, eps: float):
        self.two_eps = 2.0 * eps
        self.nfev = 0

    def __call__(self, s: float, sigma: float) -> float:
        self.nfev += 1
        flux = self.two_eps * (1.0 - s)
        return flux / (sigma + flux)

    def sample(self, s: float, sigma: float) -> tuple[float, float]:
        tau = sigma / self.two_eps
        return tau * tau, 1.0 - s


def integrate_radius(eps: float, t_end: float | None = None) -> RadiusIntegration:
    """Integrate the radius history numerically, independent of the closed forms.

    For eps > 0 the run ends at R = 0, at its complete-dissolution time, and a
    ``t_end`` is only checked.  For eps <= 0 a ``t_end`` is required since
    nothing ever stops the run, and the run ends there.
    """
    eps = check_end(eps, t_end, "t_end")
    rtol, atol = RTOL, ATOL
    if 4.0 * abs(eps) / (atol + rtol) > _MAX_SCALED_RATE:
        raise DomainError("epsilon", f"{eps!r} is too large for the oracle: |epsilon| "
                                     f"exceeds {_MAX_SCALED_RATE * (atol + rtol) / 4.0:.2e}")
    if eps > 0:
        dissolution_time(eps, lambda e: 0.5 / e, "ode")  # refuses a t0 (< 1/(2 eps)) that overflows
        rate, y, x_end, first_cap = _SigmaRate(eps), 0.0, 1.0, 2.0 * eps
        atol *= min(1.0, math.sqrt(2.0 * eps))
    else:
        rate, y, x_end, first_cap = _SquaredRadiusRate(eps), 1.0, math.sqrt(t_end), math.inf
    x, f = 0.0, rate(0.0, y)
    h_abs = min(_dop853.initial_step(rate, y, f, x_end, rtol, atol), first_cap)

    xs, ys, rows, rejected = [x], [y], [], 0
    while x < x_end:
        if len(rows) >= MAX_STEPS:
            raise IntegrationError(f"max_steps={MAX_STEPS} exceeded", *rate.sample(x, y))
        step = _dop853.step(rate, x, y, f, h_abs, x_end, rtol, atol)
        if step is None:
            raise IntegrationError("step-size underflow: required step size is less than "
                                   "spacing between numbers", *rate.sample(x, y))
        x, y, f, row, h_abs, step_rejected = step
        rejected += step_rejected
        rows.append(row)
        xs.append(x)
        ys.append(y)

    times, radii = map(list, zip(*map(rate.sample, xs, ys)))
    metadata = {"rel_tol": rtol, "abs_tol": atol,
                "dissolution_time": times[-1] if eps > 0 else None,
                "steps": len(rows), "rejected": rejected, "nfev": rate.nfev}
    return RadiusIntegration(eps, times, radii, metadata, ys if eps > 0 else xs, rows)
