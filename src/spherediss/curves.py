"""Carriers for radius-versus-time data shared by every solution method, and
the query contract every layer applies before it evaluates a formula, each
rule written once: what a valid time is (``query_times``), how far past t0 a
time may lie (``check_not_past``), when a dissolution time exists
(``dissolution_time``) and when an end time is required (``check_end``).
Every bisection for a level crossing (the blended t0, the moving-boundary solver's
radius-floor stop, the PDE grid's stretching ratio) halves its bracket in ``bisect``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cache
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from .errors import DomainError, PastDissolutionError

if TYPE_CHECKING:
    import numpy as np

#: Most samples one curve may ask for.  ``compare`` answers its exact column
#: with one inversion per time, so a grid much larger than this runs for minutes.
MAX_SAMPLES = 10**6

# Allowance for integrator noise when validating sample monotonicity.
_MONOTONE_SLACK = 1e-7

#: The earliest time a curve samples or a parametric point reports: a subnormal
#: time below it keeps under 22 bits, too few for the radius.
EARLIEST_SAMPLE = 2.0**-1052


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


#: The elementwise functions the closed forms are written against, for one float.
FLOAT_OPS = SimpleNamespace(
    exp=math.exp, log=math.log, log1p=math.log1p, sqrt=math.sqrt, atan2=math.atan2,
    hypot=math.hypot, maximum=max, minimum=min, where=lambda cond, a, b: a if cond else b,
)


@cache
def array_ops() -> SimpleNamespace:
    """numpy's counterparts of ``FLOAT_OPS``, built on the first array call."""
    import numpy as np
    return SimpleNamespace(exp=np.exp, log=np.log, log1p=np.log1p, sqrt=np.sqrt,
                           atan2=np.arctan2, hypot=np.hypot, maximum=np.maximum,
                           minimum=np.minimum, where=np.where)


def check_epsilon(eps: float) -> None:
    """Refuse a driving force that is not a finite number."""
    if not math.isfinite(eps):
        raise DomainError("epsilon", "must be finite")


def query_times(t):
    """The time argument of a radius query as ``(xp, t, first, last)``.

    A float or int (or any 0-d value) becomes a float, evaluated on
    ``FLOAT_OPS``; anything else a float array, on ``array_ops()``.  ``first``
    and ``last`` bound its times (both 0 for an empty array).  Every time must
    be non-negative and finite.
    """
    scalar = isinstance(t, (float, int))
    if scalar and 0.0 <= t < math.inf:
        t = float(t)
        return FLOAT_OPS, t, t, t  # the common case, kept short
    if not scalar:
        import numpy as np
        scalar = not np.ndim(t)
    if scalar:
        xp, t = FLOAT_OPS, float(t)
        first = last = t
    else:
        xp, t = array_ops(), np.asarray(t, dtype=float)
        first, last = float(t.min(initial=0.0)), float(t.max(initial=0.0))
    if not (first >= 0.0 and last < math.inf):  # both are nan if any time is
        bad = last if first >= 0.0 else first
        raise DomainError("t", f"must be a non-negative finite time, got {bad!r}")
    return xp, t, first, last


def check_not_past(last: float, t0: float, method: str = "exact") -> None:
    """Refuse a latest time ``last`` past the method's dissolution time ``t0``,
    beyond rounding."""
    if last > t0 * (1.0 + 1e-12):
        raise PastDissolutionError(last, t0, method)


def dissolution_time(eps: float, formula: Callable[[float], float], method: str) -> float:
    """``formula(eps)``, the method's complete-dissolution time, for 0 < eps < inf.

    A formula that divides by zero or overflows for tiny eps has no
    representable t0, and is refused as well.
    """
    if not 0.0 < eps < math.inf:
        check_epsilon(eps)
        raise DomainError("epsilon", "dissolution never completes for epsilon <= 0")
    try:
        t0 = formula(eps)
    except ZeroDivisionError:
        t0 = math.inf
    if math.isinf(t0):
        raise DomainError("epsilon",
                          f"{eps!r} is too small: the {method} dissolution time overflows")
    return t0


def check_end(eps: float, t_end: float | None, param: str) -> None:
    """Refuse an end time ``t_end`` (named ``param``) that is not positive and
    finite, and a missing one for eps <= 0, where nothing ends the history."""
    check_epsilon(eps)
    if t_end is not None and not 0.0 < t_end < math.inf:
        raise DomainError(param, f"must be positive, got {t_end!r}")
    if eps <= 0 and t_end is None:
        raise DomainError(param, "required for epsilon <= 0 (no finite endpoint)")


def bisect(above: Callable[[float], bool], lo: float, hi: float, xtol: float = 0.0):
    """Halve [lo, hi] while it is wider than ``xtol`` and a float lies strictly
    inside; ``lo`` keeps the side where ``above`` holds.  Returns (lo, hi)."""
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def check_grid(eps: float, n: int, t_max: float | None) -> None:
    """Refuse a sampling request that cannot give a curve of ``n`` >= 2 points,
    or that asks for more than ``MAX_SAMPLES``, or whose end ``t_max`` fails
    ``check_end``."""
    if not isinstance(n, int) or n < 2:
        raise DomainError("n", f"need at least 2 samples, got {n!r}")
    if n > MAX_SAMPLES:
        raise DomainError("n", f"at most {MAX_SAMPLES} samples, got {n}")
    check_end(eps, t_max, "t_max")


def check_span(t_end: float, t_max: float | None) -> None:
    """Refuse a curve ending at ``t_end`` (``t_max``, or the method's t0 if earlier)
    less than ten decades after ``EARLIEST_SAMPLE``, where ``exact_curve`` starts."""
    if t_end * 1e-10 < EARLIEST_SAMPLE:
        raise DomainError("t_max" if t_end == t_max else "epsilon",
                          f"the curve ends at t={t_end!r}, too early to sample from ten "
                          f"decades before (below {EARLIEST_SAMPLE:.3g})")


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
        import numpy as np
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
