"""Carriers for radius-versus-time data shared by every solution method."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from .errors import DomainError

#: Most samples one curve may ask for.  ``compare`` still fills its exact
#: column point by point, so a grid much larger than this runs for minutes.
MAX_SAMPLES = 10**6

# Allowance for integrator noise when validating sample monotonicity.
_MONOTONE_SLACK = 1e-7


class MethodId(enum.Enum):
    """Identifies which solution or approximation produced a curve.

    Values are the stable strings used in CSV/JSON output and on the
    command line.
    """

    EXACT_QS = "exact"
    QSS = "qss"
    SMALL_TIME = "small-time"
    INTUITIVE = "intuitive"
    DUDA_VRENTAS = "duda"
    BLENDED = "blended"
    ODE_ORACLE = "ode"
    PDE_REFERENCE = "pde"

    @classmethod
    def from_string(cls, name: str) -> MethodId:
        for member in cls:
            if member.value == name:
                return member
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown method {name!r}; valid methods: {valid}")


def check_grid(eps: float, n: int, t_max: float | None) -> None:
    """Refuse a sampling request that cannot give a curve of ``n`` >= 2 points,
    or that asks for more than ``MAX_SAMPLES``.

    ``t_max``, if given, must be finite and positive; for eps <= 0 nothing ends
    the history, so it is required.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError("n", f"need at least 2 samples, got {n!r}")
    if n > MAX_SAMPLES:
        raise DomainError("n", f"at most {MAX_SAMPLES} samples, got {n}")
    if not math.isfinite(eps):
        raise DomainError("epsilon", "must be finite")
    if t_max is not None and (not math.isfinite(t_max) or t_max <= 0):
        raise DomainError("t_max", f"must be positive, got {t_max!r}")
    if eps <= 0 and t_max is None:
        raise DomainError("t_max", "required for epsilon <= 0 (no finite endpoint)")


@dataclass(frozen=True)
class RadiusCurve:
    """Ordered (t, R) samples of one dimensionless radius history.

    Samples are strictly increasing in t.  For positive driving force
    (dissolution) the radius is non-increasing, for negative (growth)
    non-decreasing, up to a small floating-point slack.
    """

    method: MethodId
    epsilon: float
    times: np.ndarray
    radii: np.ndarray
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        radii = np.asarray(self.radii, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "radii", radii)
        if times.ndim != 1 or radii.shape != times.shape:
            raise ValueError("times and radii must be 1-d arrays of equal length")
        if times.size < 1:
            raise ValueError("a curve needs at least one sample")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(radii))):
            raise ValueError("curve samples must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        if np.any(radii < -_MONOTONE_SLACK):
            raise ValueError("radii must be non-negative")
        steps = np.diff(radii)
        if self.epsilon > 0 and np.any(steps > _MONOTONE_SLACK):
            raise ValueError("radius must be non-increasing when epsilon > 0")
        if self.epsilon < 0 and np.any(steps < -_MONOTONE_SLACK):
            raise ValueError("radius must be non-decreasing when epsilon < 0")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def samples(self) -> Iterator[tuple[float, float]]:
        """Iterate over (t, R) pairs in time order."""
        return zip(self.times.tolist(), self.radii.tolist())
