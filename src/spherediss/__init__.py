"""Dissolution and precipitation-growth kinetics of an isolated spherical particle.

Exact quasi-stationary solutions in implicit parametric form for every
driving-force regime, explicit approximate formulas, an independent ODE
oracle, and a direct moving-boundary reference solver, with a CLI for
curve generation and table reproduction.
"""

import importlib

from .approx import (
    approx_curve,
    approx_radius,
    approx_t0,
    blend_alpha,
    blended_radius,
    blended_t0,
    duda_radius,
    duda_t0,
    intuitive_radius,
    intuitive_t0,
    qss_radius,
    small_time_radius,
)
from .curves import MethodId, RadiusCurve
from .errors import (
    ClampedRadiusWarning,
    DomainError,
    EpsilonRangeError,
    IntegrationError,
    PastDissolutionError,
)
from .exact import (
    ParametricPoint,
    concentration_profile,
    exact_curve,
    param_point_critical,
    param_point_dissolution,
    param_point_growth,
    param_point_supercritical,
    radius_at,
    time_to_dissolution,
)
from .model import (
    DimensionalCurve,
    DimensionlessProblem,
    PhysicalScenario,
    Regime,
    branch_exponent,
    classify_regime,
    extinction_parameter,
    nondimensionalize,
    redimensionalize,
)

__version__ = "0.1.0"

#: The solver modules' names, imported on first access (PEP 562): not with the package.
_SOLVER_NAMES = {
    "RadiusIntegration": "ode", "integrate_radius": "ode",
    "MappedField": "pde", "MovingBoundaryResult": "pde", "PdeConfig": "pde",
    "solve_moving_boundary": "pde",
}


def __getattr__(name):
    if name not in _SOLVER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SOLVER_NAMES[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_SOLVER_NAMES))


__all__ = [
    "ClampedRadiusWarning",
    "DimensionalCurve",
    "DimensionlessProblem",
    "DomainError",
    "EpsilonRangeError",
    "IntegrationError",
    "MappedField",
    "MethodId",
    "MovingBoundaryResult",
    "ParametricPoint",
    "PastDissolutionError",
    "PdeConfig",
    "PhysicalScenario",
    "RadiusCurve",
    "RadiusIntegration",
    "Regime",
    "approx_curve",
    "approx_radius",
    "approx_t0",
    "blend_alpha",
    "blended_radius",
    "blended_t0",
    "branch_exponent",
    "classify_regime",
    "concentration_profile",
    "duda_radius",
    "duda_t0",
    "exact_curve",
    "extinction_parameter",
    "integrate_radius",
    "intuitive_radius",
    "intuitive_t0",
    "nondimensionalize",
    "param_point_critical",
    "param_point_dissolution",
    "param_point_growth",
    "param_point_supercritical",
    "qss_radius",
    "radius_at",
    "redimensionalize",
    "small_time_radius",
    "solve_moving_boundary",
    "time_to_dissolution",
    "__version__",
]
