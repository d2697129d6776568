"""Brute-force oracle: adaptive integration of the leading-order radius equation.

The equation dR/dt = -eps (1/R + 1/sqrt(t)) is integrated as the squared
radius y = R^2 against the square-root-time variable tau = sqrt(t):

    dy/dtau = -4 eps (tau + sqrt(y)),   y(0) = 1

This removes the 1/sqrt(t) flux singularity at t = 0 (dR/dtau = -2 eps
exactly there) and keeps the trajectory smooth through complete dissolution,
where R(t) itself ends in a square-root cusp.  Stepping uses the vendored
scalar DOP853 of ``_dop853`` (the Dormand-Prince 8(5,3) pair of Hairer,
Norsett & Wanner, "Solving ODEs I", sec. II.5) with scipy's step-size rules
and 7th-order dense output, on plain floats, so the oracle never imports
scipy.  For eps > 0 the run stops once the radius falls to ``MIN_RADIUS``
and the dissolution time is extrapolated: R dR/dtau = -2 eps (tau + R)
is solved from the floor to 0 with tau held at tau_stop, so t0 = (tau_stop + dtau)^2.
The tolerances and the floor are module constants, read at call time.

The run's ``RadiusCurve`` is its one record; ``RadiusIntegration`` adds the
steps' interpolants and reads everything else from it.
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

#: Relative and absolute tolerances of every step's error test, on y = R^2.
RTOL = ATOL = 1e-10

#: Radius at which a dissolution run stops and extrapolates its t0.
MIN_RADIUS = 1e-8

#: Most accepted steps one run may take before it fails with ``IntegrationError``.
MAX_STEPS = 100_000

#: Largest scaled rate 4 |eps| / (ATOL + RTOL) a run accepts.  The step's
#: error test squares errors of that order, and beyond the square root of the
#: largest float the square overflows: the step control then rejects steps on
#: non-finite norms, and at the default tolerances runs from eps = 1e149 on fail.
_MAX_SCALED_RATE = math.sqrt(sys.float_info.max)


class RadiusIntegration:
    """Dense-output result of one oracle run: its ``curve`` of accepted steps,
    their starts ``taus`` in tau = sqrt(t) (the last one the span's end) and
    their interpolants ``rows``, which ``radius_at`` evaluates.
    """

    def __init__(self, curve: RadiusCurve, taus: list[float], rows: list[tuple]):
        self.curve = curve
        self._taus = taus
        self._rows = rows

    @property
    def dissolution_time(self) -> float | None:
        """Extrapolated complete-dissolution time, or None if the run did not reach the floor."""
        return self.curve.metadata["dissolution_time"]

    @property
    def t_end(self) -> float:
        """Last time covered: the last tau squared as a float (numpy's square in
        ``curve.times`` can differ in the last bit)."""
        return self._taus[-1] ** 2

    def radius_at(self, t):
        """Radius at ``t``, a float or an array of times (which returns an array).

        Past the integrated span a dissolved run answers R = 0, as the short-time
        and blended formulas do past their t0; one stopped at ``t_end`` raises ``DomainError``.
        At the span's end the radius is the run's last one (``min_radius`` after
        a stop at the floor), not the interpolant's rounding there.
        """
        xp, t, _, _ = query_times(t)
        if xp is FLOAT_OPS:
            return self._radius(t)
        return np.array([self._radius(x) for x in t.ravel().tolist()]).reshape(t.shape)

    def _radius(self, t: float) -> float:
        tau, taus = math.sqrt(t), self._taus
        if tau < taus[-1]:
            row = self._rows[max(bisect.bisect_left(taus, tau) - 1, 0)]
            return math.sqrt(max(_dop853._interpolate(tau, *row), 0.0))
        if self.dissolution_time is not None and self.t_end < t:
            return 0.0
        if tau <= taus[-1] * _SQRT_ROUNDING:
            return float(self.curve.radii[-1])  # at the span's end, or past it by sqrt round-off
        raise DomainError("t", f"t={t!r} is outside the integrated span (<= {self.t_end:.6g})")


class _SquaredRadiusRate:
    """dy/dtau = -4 eps (tau + sqrt(y)), counting its evaluations."""

    def __init__(self, eps: float):
        self.scale = -4.0 * eps
        self.nfev = 0

    def __call__(self, tau: float, y: float) -> float:
        self.nfev += 1
        # sqrt is clamped so trial steps past extinction stay well defined
        return self.scale * (tau + math.sqrt(max(y, 0.0)))


def integrate_radius(eps: float, t_end: float | None = None) -> RadiusIntegration:
    """Integrate the radius history numerically, independent of the closed forms.

    For eps > 0 the run stops at the radius floor (or at ``t_end`` if that
    comes first) and reports the extrapolated complete-dissolution time.
    For eps <= 0 a ``t_end`` is required since nothing ever stops the run.
    """
    check_end(eps, t_end, "t_end")
    rtol, atol, min_radius = RTOL, ATOL, MIN_RADIUS
    if 4.0 * abs(eps) / (atol + rtol) > _MAX_SCALED_RATE:
        raise DomainError("epsilon", f"{eps!r} is too large for the oracle: |epsilon| "
                                     f"exceeds {_MAX_SCALED_RATE * (atol + rtol) / 4.0:.2e}")

    if eps > 0:
        # complete dissolution always happens before the steady-flux bound 1/(2 eps)
        tau_cap = math.sqrt(dissolution_time(eps, lambda e: 0.5 / e, "ode")) * (1.0 + 1e-9)
        tau_bound = min(tau_cap, math.sqrt(t_end)) if t_end is not None else tau_cap
    else:
        tau_bound = math.sqrt(t_end)

    rate = _SquaredRadiusRate(eps)
    floor_sq = min_radius**2
    tau, y = 0.0, 1.0
    f = rate(tau, y)
    h_abs = _dop853.initial_step(rate, y, f, tau_bound, rtol, atol)

    taus = [tau]
    ys = [y]
    rows = []
    rejected = 0
    t_dissolved = None
    while tau < tau_bound:
        if len(rows) >= MAX_STEPS:
            raise IntegrationError(
                f"max_steps={MAX_STEPS} exceeded",
                t=tau * tau,
                radius=math.sqrt(max(y, 0.0)),
            )
        step = _dop853.step(rate, tau, y, f, h_abs, tau_bound, rtol, atol)
        if step is None:
            raise IntegrationError(
                "step-size underflow: required step size is less than spacing between numbers",
                t=tau * tau,
                radius=math.sqrt(max(y, 0.0)),
            )
        tau_new, y_new, f, row, h_abs, step_rejected = step
        rejected += step_rejected
        rows.append(row)
        taus.append(tau_new)
        ys.append(y_new)
        if eps > 0 and y_new <= floor_sq:
            tau_stop = _dop853.crossing(row, tau, tau_new, floor_sq)
            taus[-1] = tau_stop
            ys[-1] = floor_sq
            # from the floor to 0 with tau held: 2 eps dtau = tau_stop (x - log1p x), x = R/tau,
            # and x - log1p(x) = x^2/2 - x^3/3 + ... summed where the difference would cancel
            x = min_radius / tau_stop
            gap = sum((-x) ** k / k for k in range(2, 20)) if x < 0.1 else x - math.log1p(x)
            dtau = tau_stop * gap / (2.0 * eps)
            t_dissolved = tau_stop**2 + dtau * (2.0 * tau_stop + dtau)
            break
        tau, y = tau_new, y_new

    curve = RadiusCurve(
        MethodId.ODE_ORACLE,
        eps,
        np.asarray(taus) ** 2,
        np.sqrt(np.maximum(np.asarray(ys), 0.0)),
        metadata={
            "rel_tol": rtol,
            "abs_tol": atol,
            "min_radius": min_radius,
            "dissolution_time": t_dissolved,
            "steps": len(rows),
            "rejected": rejected,
            "nfev": rate.nfev,
        },
    )
    return RadiusIntegration(curve, taus, rows)
