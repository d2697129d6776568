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
oracle never imports scipy.  The tolerances are module constants, read at
call time.  The run's ``RadiusCurve`` is its one record; ``RadiusIntegration``
adds the steps' interpolants and reads everything else from it.
"""

from __future__ import annotations

import bisect
import math
import sys

import numpy as np

from . import _dop853
from .curves import FLOAT_OPS, MethodId, RadiusCurve, check_end, dissolution_time, query_times
from .errors import DomainError, IntegrationError

#: A time at the span's end whose square root rounds above the last tau still
#: answers with the run's last radius.
_SQRT_ROUNDING = 1.0 + 1e-12

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
    """Dense-output result of one oracle run: its ``curve``, the last time
    ``t_end`` it covers, and the interpolants ``rows`` of its accepted steps with
    their ``ends`` in tau (in sigma for eps > 0), led by the start 0."""

    def __init__(self, curve: RadiusCurve, t_end: float, ends: list[float], rows: list[tuple]):
        self.curve = curve
        self.t_end = t_end
        self._ends = ends
        self._rows = rows

    @property
    def dissolution_time(self) -> float | None:
        """Complete-dissolution time, or None if the run's record stops at ``t_end`` before it."""
        return self.curve.metadata["dissolution_time"]

    def radius_at(self, t):
        """Radius at ``t``, a float or an array of times (which returns an array).

        Past the integrated span a dissolved run answers R = 0, as the short-time
        and blended formulas do past their t0; one stopped at ``t_end`` raises ``DomainError``.
        At the span's end the radius is the run's last one (0 after dissolution).
        """
        xp, t, _, _ = query_times(t)
        if xp is FLOAT_OPS:
            return self._radius(t)
        return np.array([self._radius(x) for x in t.ravel().tolist()]).reshape(t.shape)

    def _radius(self, t: float) -> float:
        eps, ends = self.curve.epsilon, self._ends
        x = 2.0 * eps * math.sqrt(t) if eps > 0 else math.sqrt(t)  # sigma, or tau
        if t < self.t_end and x < ends[-1]:
            if eps > 0:
                return 1.0 - _radius_lost(ends, self._rows, x, 2.0 * eps)
            row = self._rows[max(bisect.bisect_left(ends, x) - 1, 0)]
            return math.sqrt(max(_dop853._interpolate(x, *row), 0.0))
        if self.dissolution_time is not None and self.t_end < t:
            return 0.0
        if math.sqrt(t) <= math.sqrt(self.t_end) * _SQRT_ROUNDING:
            return float(self.curve.radii[-1])  # at the span's end, or past it by sqrt round-off
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
            s_new = 0.5 * (lo + hi)
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
        # sqrt is clamped so trial steps past extinction stay well defined
        return self.scale * (tau + math.sqrt(max(y, 0.0)))

    def record(self, taus, ys):
        """Times and radii at points (tau, y), floats or lists, as numpy values."""
        return np.asarray(taus) ** 2, np.sqrt(np.maximum(np.asarray(ys), 0.0))


class _SigmaRate:
    """dsigma/ds = 2 eps R / (sigma + 2 eps R) with R = 1 - s, counting its evaluations."""

    def __init__(self, eps: float):
        self.two_eps = 2.0 * eps
        self.nfev = 0

    def __call__(self, s: float, sigma: float) -> float:
        self.nfev += 1
        flux = self.two_eps * (1.0 - s)
        return flux / (sigma + flux)

    def record(self, s, sigmas):
        return (np.asarray(sigmas) / self.two_eps) ** 2, 1.0 - np.asarray(s)


def integrate_radius(eps: float, t_end: float | None = None) -> RadiusIntegration:
    """Integrate the radius history numerically, independent of the closed forms.

    For eps > 0 the run ends at R = 0 and reports its complete-dissolution
    time; with a ``t_end`` before that time, its record ends at ``t_end``.
    For eps <= 0 a ``t_end`` is required since nothing ever stops the run.
    """
    check_end(eps, t_end, "t_end")
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
            raise IntegrationError(f"max_steps={MAX_STEPS} exceeded", *rate.record(x, y))
        step = _dop853.step(rate, x, y, f, h_abs, x_end, rtol, atol)
        if step is None:
            raise IntegrationError("step-size underflow: required step size is less than "
                                   "spacing between numbers", *rate.record(x, y))
        x, y, f, row, h_abs, step_rejected = step
        rejected += step_rejected
        rows.append(row)
        xs.append(x)
        ys.append(y)

    times, radii = rate.record(xs, ys)
    ends, t_dissolved = (ys, float(times[-1])) if eps > 0 else (xs, None)
    if eps <= 0:
        t_end = xs[-1] ** 2
    elif t_end is None or t_dissolved <= t_end:
        t_end = t_dissolved
    else:  # the record ends at t_end, read from the dense output
        kept, t_dissolved = times < t_end, None
        lost = _radius_lost(ys, rows, rate.two_eps * math.sqrt(t_end), rate.two_eps)
        times, radii = np.append(times[kept], t_end), np.append(radii[kept], 1.0 - lost)

    metadata = {"rel_tol": rtol, "abs_tol": atol, "dissolution_time": t_dissolved,
                "steps": len(rows), "rejected": rejected, "nfev": rate.nfev}
    curve = RadiusCurve(MethodId.ODE_ORACLE, eps, times, radii, metadata)
    return RadiusIntegration(curve, t_end, ends, rows)
