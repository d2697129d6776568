"""Exception and warning types shared across the library.

Domain violations (values outside a formula's validity range) raise
``DomainError`` subclasses so the CLI can map them to a dedicated exit
code, distinct from argument-parsing failures.
"""

from __future__ import annotations

import warnings


class DomainError(ValueError):
    """A value lies outside the mathematical domain of the requested operation.

    ``param`` names the offending argument; the CLI uses it as the prefix of
    its one-line diagnostic.
    """

    def __init__(self, param: str, message: str):
        self.param = param
        super().__init__(f"{param}: {message}")


class EpsilonRangeError(DomainError):
    """Driving-force parameter outside the validity range of a formula."""

    def __init__(self, message: str):
        super().__init__("epsilon", message)


class PastDissolutionError(DomainError):
    """Requested time lies beyond the method's complete-dissolution time."""

    def __init__(self, t: float, t0: float, method: str = "exact"):
        self.t = t
        self.t0 = t0
        self.method = method
        super().__init__(
            "t",
            f"t={float(t)!r} is past the {method} complete-dissolution time t0={float(t0)!r}",
        )


class IntegrationError(RuntimeError):
    """Numerical integration failed; carries the last valid state if known."""

    def __init__(self, message: str, t: float | None = None, radius: float | None = None):
        self.t = t
        self.radius = radius
        if t is not None:
            message = f"{message} (last valid state: t={t:.6g}, R={radius:.6g})"
        super().__init__(message)


class ClampedRadiusWarning(UserWarning):
    """A formula produced a negative radicand and the radius was clamped to 0."""


class ExtrapolationWarning(UserWarning):
    """A semi-empirical fit is being evaluated outside its fitted range."""


def warn_clamped(method: str, t: float) -> None:
    # attributed to the caller of the public function that evaluated the formula
    warnings.warn(
        f"{method}: radius clamped to 0 at t={t:g} (past complete dissolution)",
        ClampedRadiusWarning,
        stacklevel=4,
    )
