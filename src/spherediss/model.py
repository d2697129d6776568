"""Physical parameters and their reduction to a single driving-force number.

All dimensional quantities are SI.  Measuring length in units of the initial
radius and time in units of R0^2/(pi D) reduces the problem to one
dimensionless parameter

    epsilon = (C_s - C_0) / [pi rho_p (1 - C_s / rho_m)]

whose sign and magnitude select the solution branch: positive drives
dissolution, negative drives precipitation growth, and the value 2 separates
two algebraically different dissolution branches.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .curves import MethodId, RadiusCurve, check_epsilon
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

#: Tolerance used when matching a curve's epsilon against a scenario's.
EPSILON_MATCH_TOL = 1e-12


class Regime(enum.Enum):
    """Branch of the radius evolution selected by the driving-force parameter."""

    STATIC = "static"                # epsilon == 0: the radius never moves
    DISSOLUTION = "dissolution"      # 0 < epsilon < 2
    CRITICAL = "critical"            # epsilon == 2 exactly
    SUPERCRITICAL = "supercritical"  # epsilon > 2
    GROWTH = "growth"                # epsilon < 0 (supersaturated medium)


_STATIC, _DISSOLUTION, _CRITICAL, _SUPERCRITICAL, _GROWTH = Regime  # Regime.X costs 0.15 us


def classify_regime(epsilon: float) -> Regime:
    """Map the driving-force parameter to its solution branch.

    Every finite value falls in exactly one regime.  The critical branch
    requires exact equality with 2 as supplied; callers wanting robustness
    near the boundary should use the neighbouring branches, which are
    continuous across it.
    """
    check_epsilon(epsilon)
    if epsilon == 0:
        return _STATIC
    if epsilon < 0:
        return _GROWTH
    if epsilon == 2:
        return _CRITICAL
    if epsilon > 2:
        return _SUPERCRITICAL
    return _DISSOLUTION


def branch_exponent(epsilon: float) -> float:
    """sqrt(|epsilon / (2 - epsilon)|): the exponent constant k of the implicit
    time formula.  Undefined at the critical value 2."""
    epsilon = check_epsilon(epsilon)
    if epsilon == 2:
        raise DomainError("epsilon", "the critical branch has no exponent constant")
    return math.sqrt(abs(epsilon / (2.0 - epsilon)))


def extinction_parameter(epsilon: float) -> float:
    """Curve parameter at which the radius reaches zero (k, or 0 at epsilon = 2);
    only dissolving regimes (epsilon > 0) have one."""
    if classify_regime(epsilon) in (_STATIC, _GROWTH):
        raise DomainError("epsilon", "the radius only reaches zero for epsilon > 0")
    return 0.0 if epsilon == 2 else branch_exponent(epsilon)


@dataclass(frozen=True)
class PhysicalScenario:
    """Dimensional material and transport parameters of one particle/medium pair.

    Parameters
    ----------
    solubility : float
        Saturated solute mass concentration at the particle surface (kg/m^3).
    initial_concentration : float
        Uniform solute mass concentration far from the particle at t=0 (kg/m^3).
    particle_density : float
        Solid particle density (kg/m^3).
    medium_density : float
        Fluid medium density (kg/m^3).
    diffusivity : float
        Solute diffusion coefficient in the medium (m^2/s).
    initial_radius : float
        Particle radius at t=0 (m).
    """

    solubility: float
    initial_concentration: float
    particle_density: float
    medium_density: float
    diffusivity: float
    initial_radius: float

    def __post_init__(self):
        for name in (item.name for item in fields(self)):
            value = getattr(self, name)
            if isinstance(value, numbers.Real):  # a numpy number too is kept as its float
                object.__setattr__(self, name, value := float(value))
            if not isinstance(value, float) or not math.isfinite(value):
                raise DomainError(name, f"must be a finite number, got {value!r}")
        for name in ("particle_density", "medium_density", "diffusivity", "initial_radius"):
            if getattr(self, name) <= 0:
                raise DomainError(name, f"must be positive, got {getattr(self, name)!r}")
        if self.solubility < 0:
            raise DomainError("solubility", "must be non-negative")
        if self.initial_concentration < 0:
            raise DomainError("initial_concentration", "must be non-negative")
        if self.solubility >= self.medium_density:
            raise DomainError(
                "solubility",
                "must stay below the medium density "
                "(the bulk-flow factor 1 - C_s/rho_m would be non-positive)",
            )


@dataclass(frozen=True)
class DimensionlessProblem:
    """The reduced model: one parameter plus the scales that undo the reduction.

    ``time_scale`` is seconds per dimensionless time unit (R0^2/(pi D));
    ``length_scale`` is metres per dimensionless radius unit (R0).
    """

    epsilon: float
    time_scale: float
    length_scale: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", check_epsilon(self.epsilon))
        for name, value in (("time_scale", self.time_scale), ("length_scale", self.length_scale)):
            if not 0.0 < value < math.inf:
                raise DomainError(name, f"must be positive and finite, got {value!r}")

    @property
    def regime(self) -> Regime:
        """See :func:`classify_regime`."""
        return classify_regime(self.epsilon)

    @property
    def branch_exponent(self) -> float:
        """See :func:`branch_exponent`."""
        return branch_exponent(self.epsilon)

    @property
    def extinction_parameter(self) -> float:
        """See :func:`extinction_parameter`."""
        return extinction_parameter(self.epsilon)


@dataclass(frozen=True)
class DimensionalCurve:
    """A radius history converted back to SI units."""

    method: MethodId
    epsilon: float
    times_s: np.ndarray
    radii_m: np.ndarray

    def __len__(self) -> int:
        return len(self.times_s)


def nondimensionalize(scenario: PhysicalScenario) -> DimensionlessProblem:
    """Reduce a dimensional scenario to its driving-force parameter and scales."""
    numerator = scenario.solubility - scenario.initial_concentration
    bulk_flow = 1.0 - scenario.solubility / scenario.medium_density
    epsilon = numerator / (math.pi * scenario.particle_density * bulk_flow)
    r0 = scenario.initial_radius
    time_scale = r0 * r0 / (math.pi * scenario.diffusivity)
    return DimensionlessProblem(epsilon=epsilon, time_scale=time_scale, length_scale=r0)


def redimensionalize(curve: RadiusCurve, scenario: PhysicalScenario) -> DimensionalCurve:
    """Convert a dimensionless radius history back to seconds and metres.

    The curve must have been generated for the same driving-force parameter
    that the scenario reduces to, and its times and radii must stay finite in SI.
    """
    problem = nondimensionalize(scenario)
    mismatch = abs(curve.epsilon - problem.epsilon)
    if mismatch > EPSILON_MATCH_TOL * max(1.0, abs(problem.epsilon)):
        raise DomainError(
            "curve",
            f"curve epsilon {curve.epsilon!r} does not match the scenario's "
            f"{problem.epsilon!r} (|diff|={mismatch:.3g})",
        )
    for name, largest, scale in (("time", float(curve.times[-1]), problem.time_scale),
                                 ("length", float(curve.radii.max()), problem.length_scale)):
        if largest * scale == math.inf:
            raise DomainError("scenario", f"the curve's {name} {largest!r} overflows in SI "
                                          f"units at {name}_scale={scale!r}")
    return DimensionalCurve(
        method=curve.method,
        epsilon=curve.epsilon,
        times_s=curve.times * problem.time_scale,
        radii_m=curve.radii * problem.length_scale,
    )
