"""Brute-force oracle: adaptive integration of the leading-order radius equation.

The equation dR/dt = -eps (1/R + 1/sqrt(t)) is integrated as the squared
radius y = R^2 against the square-root-time variable tau = sqrt(t):

    dy/dtau = -4 eps (tau + sqrt(y)),   y(0) = 1

This removes the 1/sqrt(t) flux singularity at t = 0 (dR/dtau = -2 eps
exactly there) and keeps the trajectory smooth through complete dissolution,
where R(t) itself ends in a square-root cusp.  Stepping uses an embedded
Runge-Kutta pair with dense output; for eps > 0 the run stops once the
radius falls to the configured floor and the dissolution time is reported
by the analytic endpoint extrapolation t0 = t_stop + R_stop^2 / (2 eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .curves import MethodId, RadiusCurve
from .errors import DomainError, IntegrationError

if TYPE_CHECKING:
    from scipy.integrate import OdeSolution


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and stopping controls for the oracle integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    min_radius: float = 1e-8
    max_steps: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-3:
            raise DomainError("rel_tol", f"must lie in (0, 1e-3], got {self.rel_tol!r}")
        if not 0.0 < self.abs_tol <= 1e-3:
            raise DomainError("abs_tol", f"must lie in (0, 1e-3], got {self.abs_tol!r}")
        if not 0.0 < self.min_radius <= 1e-4:
            raise DomainError("min_radius", f"must lie in (0, 1e-4], got {self.min_radius!r}")
        if self.max_steps < 1000:
            raise DomainError("max_steps", f"must be at least 1000, got {self.max_steps!r}")


class RadiusIntegration:
    """Dense-output result of one oracle run.

    ``curve`` holds the accepted solver steps; ``radius_at`` interpolates the
    continuous solution anywhere inside the integrated span.
    """

    def __init__(
        self,
        epsilon: float,
        curve: RadiusCurve,
        interpolant: OdeSolution | None,
        tau_end: float,
        dissolution_time: float | None,
    ):
        self.epsilon = epsilon
        self.curve = curve
        self._interpolant = interpolant
        self._tau_end = tau_end
        self.dissolution_time = dissolution_time

    @property
    def t_end(self) -> float:
        """Last time covered by the dense output."""
        return self._tau_end**2

    def radius_at(self, t: float) -> float:
        if not math.isfinite(t) or t < 0:
            raise DomainError("t", f"must be a non-negative finite time, got {t!r}")
        tau = math.sqrt(t)
        if tau > self._tau_end and tau <= self._tau_end * (1.0 + 1e-12):
            tau = self._tau_end  # sqrt round-off at the span boundary
        if tau <= self._tau_end:
            if self._interpolant is None:
                return 1.0
            y = float(self._interpolant(tau)[0])
            return math.sqrt(max(y, 0.0))
        if self.dissolution_time is not None and t <= self.dissolution_time * (1.0 + 1e-9):
            return 0.0
        raise DomainError("t", f"t={t!r} is outside the integrated span (<= {self.t_end:.6g})")


def _squared_radius_rate(eps: float):
    def rhs(tau, y):
        # sqrt is clamped so trial steps past extinction stay well defined
        return [-4.0 * eps * (tau + math.sqrt(max(y[0], 0.0)))]

    return rhs


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
    if not math.isfinite(eps):
        raise DomainError("epsilon", "must be finite")
    if config is None:
        config = IntegratorConfig()
    if t_end is not None and (not math.isfinite(t_end) or t_end <= 0):
        raise DomainError("t_end", f"must be positive, got {t_end!r}")
    if eps <= 0 and t_end is None:
        raise DomainError("t_end", "required for epsilon <= 0 (integration never stops itself)")
    # scipy is imported here, not with the package, so that the closed forms load fast
    from scipy.integrate import DOP853, OdeSolution
    from scipy.optimize import brentq

    if eps > 0:
        # complete dissolution always happens before the steady-flux bound 1/(2 eps)
        tau_cap = math.sqrt(0.5 / eps) * (1.0 + 1e-9)
        tau_bound = min(tau_cap, math.sqrt(t_end)) if t_end is not None else tau_cap
    else:
        tau_bound = math.sqrt(t_end)

    floor_sq = config.min_radius**2
    solver = DOP853(
        _squared_radius_rate(eps),
        0.0,
        np.array([1.0]),
        t_bound=tau_bound,
        rtol=config.rel_tol,
        atol=config.abs_tol,
    )

    taus = [0.0]
    ys = [1.0]
    segments = []
    dissolution_time = None
    steps = 0
    while solver.status == "running":
        if steps >= config.max_steps:
            raise IntegrationError(
                f"max_steps={config.max_steps} exceeded",
                t=taus[-1] ** 2,
                radius=math.sqrt(max(ys[-1], 0.0)),
            )
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(
                f"step-size underflow: {message}",
                t=taus[-1] ** 2,
                radius=math.sqrt(max(ys[-1], 0.0)),
            )
        steps += 1
        segment = solver.dense_output()
        segments.append(segment)
        taus.append(solver.t)
        ys.append(float(solver.y[0]))
        if eps > 0 and ys[-1] <= floor_sq:
            tau_stop = brentq(
                lambda s: float(segment(s)[0]) - floor_sq,
                segment.t_old,
                segment.t,
                xtol=1e-15,
            )
            taus[-1] = tau_stop
            ys[-1] = floor_sq
            dissolution_time = tau_stop**2 + floor_sq / (2.0 * eps)
            break

    interpolant = OdeSolution(np.asarray(taus), segments) if segments else None
    times = np.asarray(taus) ** 2
    radii = np.sqrt(np.maximum(np.asarray(ys), 0.0))
    curve = RadiusCurve(
        MethodId.ODE_ORACLE,
        eps,
        times,
        radii,
        metadata={
            "rel_tol": config.rel_tol,
            "abs_tol": config.abs_tol,
            "min_radius": config.min_radius,
            "dissolution_time": dissolution_time,
            "steps": steps,
        },
    )
    return RadiusIntegration(eps, curve, interpolant, taus[-1], dissolution_time)
