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
scipy.  For eps > 0 the run stops once the radius falls to the configured
floor and the dissolution time is reported by the analytic endpoint
extrapolation t0 = t_stop + R_stop^2 / (2 eps).

The run's ``RadiusCurve`` is its one record; ``RadiusIntegration`` adds the
steps' interpolants and reads everything else from it.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _dop853
from .curves import FLOAT_OPS, MethodId, RadiusCurve, check_end, dissolution_time, query_times
from .errors import DomainError, IntegrationError

#: A time at the span's end whose square root rounds above the last tau still
#: answers with the run's last radius.
_SQRT_ROUNDING = 1.0 + 1e-12

#: Most accepted steps one run may take before it fails with ``IntegrationError``.
MAX_STEPS = 100_000

#: Largest scaled rate 4 |eps| / (abs_tol + rel_tol) a run accepts.  The step's
#: error test squares errors of that order, and beyond the square root of the
#: largest float the square overflows: the step control then rejects steps on
#: non-finite norms, and at the default tolerances runs from eps = 1e149 on fail.
_MAX_SCALED_RATE = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and the radius floor of the oracle integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    min_radius: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-3:
            raise DomainError("rel_tol", f"must lie in (0, 1e-3], got {self.rel_tol!r}")
        if not 0.0 < self.abs_tol <= 1e-3:
            raise DomainError("abs_tol", f"must lie in (0, 1e-3], got {self.abs_tol!r}")
        if not 0.0 < self.min_radius <= 1e-4:
            raise DomainError("min_radius", f"must lie in (0, 1e-4], got {self.min_radius!r}")


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

        Past the integrated span only a dissolved run answers, with R = 0 up
        to its dissolution time; other times raise ``DomainError``.  At the
        span's end the radius is the run's last one (``min_radius`` after a
        stop at the floor), not the interpolant's rounding there.
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
        t_dissolved = self.dissolution_time
        if t_dissolved is not None and self.t_end < t <= t_dissolved * (1.0 + 1e-9):
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


def integrate_radius(
    eps: float,
    t_end: float | None = None,
    config: IntegratorConfig | None = None,
) -> RadiusIntegration:
    """Integrate the radius history numerically, independent of the closed forms.

    For eps > 0 the run stops at the radius floor (or at ``t_end`` if that
    comes first) and reports the extrapolated complete-dissolution time.
    For eps <= 0 a ``t_end`` is required since nothing ever stops the run.
    """
    check_end(eps, t_end, "t_end")
    if config is None:
        config = IntegratorConfig()
    rtol, atol = config.rel_tol, config.abs_tol
    if 4.0 * abs(eps) / (atol + rtol) > _MAX_SCALED_RATE:
        raise DomainError("epsilon", f"{eps!r} is too large for the oracle: 4|epsilon|/"
                                     f"(abs_tol + rel_tol) exceeds {_MAX_SCALED_RATE:.3g}")

    if eps > 0:
        # complete dissolution always happens before the steady-flux bound 1/(2 eps)
        tau_cap = math.sqrt(dissolution_time(eps, lambda e: 0.5 / e, "ode")) * (1.0 + 1e-9)
        tau_bound = min(tau_cap, math.sqrt(t_end)) if t_end is not None else tau_cap
    else:
        tau_bound = math.sqrt(t_end)

    rate = _SquaredRadiusRate(eps)
    floor_sq = config.min_radius**2
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
            t_dissolved = tau_stop**2 + floor_sq / (2.0 * eps)
            break
        tau, y = tau_new, y_new

    curve = RadiusCurve(
        MethodId.ODE_ORACLE,
        eps,
        np.asarray(taus) ** 2,
        np.sqrt(np.maximum(np.asarray(ys), 0.0)),
        metadata={
            "rel_tol": config.rel_tol,
            "abs_tol": config.abs_tol,
            "min_radius": config.min_radius,
            "dissolution_time": t_dissolved,
            "steps": len(rows),
            "rejected": rejected,
            "nfev": rate.nfev,
        },
    )
    return RadiusIntegration(curve, taus, rows)
