"""Direct numerical solution of the full moving-boundary diffusion problem.

The dimensionless field problem (surface concentration pinned at 1, zero far
field, surface recession driven by the surface flux, radial convection from
the density mismatch) is immobilized with the boundary-fitted coordinate
x = r/R(t) and advanced as a method-of-lines system in the compound variable
w = x * C:

    w_t = w_xx / (pi R^2) + (R'/R) [ x w_x - w ] - beta (R'/R) (w_x - w/x) / x^2
    R'  = (eps / R) (w_x|_{x=1} - 1)
    w(1) = 1,  w(x_max) = 0,       beta = 1 - rho_p/rho_m

The pure-diffusion part carries the 1/(pi R^2) factor of the mapped second
derivative; the remaining first-order terms are the mesh-motion and physical
convection contributions of the chain rule.  Spatial discretization is
second-order central on a geometrically stretched grid (one-sided
second-order for the surface flux).  The convection a w_x, a = (R'/R) x_adv,
is exponentially fitted (Il'in 1969, Scharfetter-Gummel 1969): the first
derivative stays central and the diffusion coefficient D = 1/(pi R^2) is
scaled by sigma(z) = z coth z, with z = a h / (2 D) on the upwind-side cell
h (the cell toward larger x when R' > 0, toward the surface otherwise; x_adv
= x - beta/x^2 >= rho_p/rho_m > 0, so R' alone picks the side).  Since
sigma(z) >= |z|, 2 D sigma >= |a| h, and every neighbour coupling of the
tridiagonal block stays non-negative on the stretched grid (the discrete
maximum principle); sigma = 1 + z^2/3 + ... keeps the right-hand side
smooth through R' = 0.  Time integration is the variable-order BDF of
``_bdf`` with the radius carried as an extra state variable.  The analytic
Jacobian is a tridiagonal band plus a border, so each Newton solve is one
LAPACK tridiagonal solve and a 2x2 system; no sparse matrix is built.  Of
scipy only the extension with LAPACK's tridiagonal routines is loaded, from
its file, without the ``scipy.linalg`` package (see ``_lapack``).

``solve_moving_boundary`` takes three steps.  ``_grid`` sizes the domain for
the run's horizon and stretches the grid so that its first cell resolves the
short-time profile.  ``_start`` sets that analytic profile at the small
positive time ``T_INIT``, which sidesteps the incompatible initial/boundary
data at t = 0.  ``_advance`` integrates from a start state on a grid and
assembles the result; it takes any start, such as an exact solution's.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Sequence

import numpy as np

from . import _bdf
from .curves import MethodId, RadiusCurve, bisect, check_end, dissolution_time
from .errors import DomainError

#: The analytic far field at the final time must stay below 1e-6 at the
#: truncation radius; erfc reaches that level at argument 3.46.
_FAR_FIELD_ARG = 3.46

#: Discrete maximum-principle tolerance for validated concentration fields.
MAX_PRINCIPLE_TOL = 1e-6

#: Startup profile is resolved with this many cells per e-folding width.  With
#: the first cell this wide, every stretching ratio q in [1, 4] the grid can
#: take reproduces the startup surface flux to within 5% (4.7% at q = 4).
_CELLS_PER_WIDTH = 5.0

#: Start time of every run, where the analytic short-time profile sets the field.
T_INIT = 1e-6

#: Relative and absolute error tolerances of every run's BDF steps.
RTOL = ATOL = 1e-8


@dataclass(frozen=True)
class PdeConfig:
    """Mesh size, radius floor and horizon of a moving-boundary run.

    The solver sizes the domain itself, truncating it where the far field
    stays below 1e-6 through the final time, and stretches the grid so the
    startup profile is resolved near the surface with the available nodes.
    """

    nodes: int = 241
    min_radius: float = 0.05
    t_end: float | None = None

    def __post_init__(self):
        if not isinstance(self.nodes, int) or self.nodes < 100:
            raise DomainError("nodes", f"need at least 100 nodes, got {self.nodes!r}")
        if not 0.0 < self.min_radius < 1.0:
            raise DomainError("min_radius", f"must lie in (0, 1), got {self.min_radius!r}")
        if self.t_end is not None and (not math.isfinite(self.t_end) or self.t_end <= T_INIT):
            raise DomainError("t_end", f"must exceed t_init={T_INIT!r}, got {self.t_end!r}")


@dataclass(frozen=True)
class MappedField:
    """Concentration snapshot on the boundary-fitted grid."""

    rhat: np.ndarray
    concentration: np.ndarray
    radius: float
    t: float
    density_ratio: float

    def __post_init__(self):
        rhat = np.asarray(self.rhat, dtype=float)
        conc = np.asarray(self.concentration, dtype=float)
        object.__setattr__(self, "rhat", rhat)
        object.__setattr__(self, "concentration", conc)
        if rhat.shape != conc.shape or rhat.ndim != 1:
            raise ValueError("grid and concentration must be matching 1-d arrays")
        if abs(conc[0] - 1.0) > MAX_PRINCIPLE_TOL:
            raise ValueError(f"surface concentration must be 1, got {conc[0]!r}")
        if np.any(conc < -MAX_PRINCIPLE_TOL) or np.any(conc > 1.0 + MAX_PRINCIPLE_TOL):
            raise ValueError("concentration violates the discrete maximum principle")


@dataclass(frozen=True)
class MovingBoundaryResult:
    """Radius history plus optional field snapshots from one solver run."""

    curve: RadiusCurve
    snapshots: tuple[MappedField, ...]
    final_field: MappedField

    @property
    def stopped_on(self) -> str:
        """Why the run ended: "t_end" or "min_radius"."""
        return self.curve.metadata["stopped_on"]


def _surface_flux_weights(x: np.ndarray) -> tuple[float, float, float]:
    # one-sided second-order first derivative at x[0] on a non-uniform grid
    h1 = x[1] - x[0]
    h2 = x[2] - x[1]
    d0 = -(2.0 * h1 + h2) / (h1 * (h1 + h2))
    d1 = (h1 + h2) / (h1 * h2)
    d2 = -h1 / (h2 * (h1 + h2))
    return d0, d1, d2


def _solve_stretch_ratio(span: float, cells: int, h0: float) -> float:
    """Cell growth ratio q with h0 (q^cells - 1)/(q - 1) = span."""
    if h0 * cells >= span:
        return 1.0  # uniform grid already resolves the surface
    lo, hi = 1.0 + 1e-12, 4.0

    def total(q: float) -> float:
        if cells * math.log(q) > 500.0:
            return math.inf
        return h0 * (q**cells - 1.0) / (q - 1.0)

    if not total(hi) > span:
        raise DomainError(
            "nodes",
            f"{cells + 1} nodes cannot span [1, {1 + span:.3g}] while resolving the "
            f"startup profile (first cell {h0:.3g}); increase nodes",
        )
    lo, hi = bisect(lambda q: total(q) < span, lo, hi)
    return 0.5 * (lo + hi)


def _build_grid(rhat_max: float, nodes: int, h0: float) -> tuple[np.ndarray, float]:
    span = rhat_max - 1.0
    cells = nodes - 1
    ratio = _solve_stretch_ratio(span, cells, h0)
    if ratio == 1.0:
        return np.linspace(1.0, rhat_max, nodes), ratio
    if cells * math.log(ratio) > 300.0:
        raise DomainError("nodes", f"{nodes} nodes need a stretching ratio of {ratio:.6g} to "
                                   f"span [1, {rhat_max:.3g}]; shorten the run or increase nodes")
    h0 = span * (ratio - 1.0) / (ratio**cells - 1.0)
    steps = h0 * ratio ** np.arange(cells)
    x = np.concatenate(([1.0], 1.0 + np.cumsum(steps)))
    x[-1] = rhat_max
    return x, ratio


def _mapped_system(x: np.ndarray, eps: float, beta: float):
    """Right-hand side and analytic Jacobian of the method-of-lines system.

    The state is y = (w_1, ..., w_{N-2}, R).  With q = eps (w_x|_1 - 1) = R R'
    each interior row reads dw_i/dt = F_i(w, q) / R^2, where
    F_i = sigma(q f_i) L2_i(w) / pi + q (adv_i L1_i(w) - react_i w_i), L2 and
    L1 are the central second and first differences and f_i = (pi/2) adv_i h
    on the upwind cell.  So the Jacobian is a tridiagonal block plus the
    columns w_1, w_2 (through q) and R, and the last row dR'/d(w_1, w_2, R).
    ``jac`` returns it in parts: the band (rows of sub-, main and
    super-diagonal weights, aligned with w_{i-1}, w_i, w_{i+1}), the column
    by_q = d(dw/dt)/dq, the weights dq/dw_1, dq/dw_2 that make by_q the
    columns w_1 and w_2, the column R and the last row's three entries.

    The padded w, the band and the stencil products are work arrays that every
    call overwrites; what ``rhs`` and ``jac`` return is fresh, as the stepper
    keeps a rate across Newton iterations and the Jacobian parts across steps.
    """
    d0, d1, d2 = _surface_flux_weights(x)
    flux_weights = (eps * d1, eps * d2)
    xi = x[1:-1]
    hm = xi - x[:-2]
    hp = x[2:] - xi
    span = hm + hp
    adv = xi - beta / (xi * xi)
    # rows: weights of w_{i-1}, w_i, w_{i+1}; diffusion over pi, convection and reaction in q
    diffusion = np.array([2.0 / (hm * span), -2.0 / (hm * hp), 2.0 / (hp * span)]) / math.pi
    convection = adv * np.array([-hp / (hm * span), (hp - hm) / (hm * hp), hm / (hp * span)])
    convection[1] -= 1.0 - beta / xi**3
    # sigma's argument per unit q: half the Peclet number of the upwind cell (adv > 0 on x >= 1)
    fit_up, fit_down = 0.5 * math.pi * adv * hp, 0.5 * math.pi * adv * hm
    w = np.zeros(x.size)
    w[0] = 1.0
    # rows w_{i-1}, w_i, w_{i+1}; np.add.reduce sums a stencil's products over them in that order
    windows = np.lib.stride_tricks.sliding_window_view(w, xi.size)
    band, product = np.empty_like(diffusion), np.empty_like(diffusion)

    def terms(y):
        w[1:-1] = y[:-1]
        q = eps * (d0 + d1 * float(y[0]) + d2 * float(y[1]) - 1.0)
        fit = fit_up if q > 0.0 else fit_down
        z = q * fit
        sigma = z / np.tanh(z) if q != 0.0 else 1.0
        np.multiply(diffusion, sigma, out=band)
        np.add(band, np.multiply(convection, q, out=product), out=band)
        return q, fit, z, sigma

    def rhs(t, y):
        q = terms(y)[0]
        radius = float(y[-1])
        dy = np.empty(y.size)
        np.add.reduce(np.multiply(band, windows, out=product), axis=0, out=dy[:-1])
        dy[:-1] /= radius * radius
        dy[-1] = q / radius
        return dy

    def jac(t, y):
        q, fit, z, sigma = terms(y)
        radius = float(y[-1])
        inv_r2 = 1.0 / (radius * radius)
        small = np.abs(z) < 1e-2  # dsigma/dz = (sigma - sigma^2 + z^2)/z cancels there
        slope = np.where(small, z * (2.0 / 3.0 - z * z * (4.0 / 45.0)),
                         (sigma - sigma * sigma + z * z) / np.where(small, 1.0, z))
        weights = np.stack((diffusion, convection, band * inv_r2))
        lap, conv, banded = np.add.reduce(weights * windows, axis=1)
        by_q = (slope * fit * lap + conv) * inv_r2  # d(dw_i/dt)/dq
        return (weights[2], by_q, flux_weights, (-2.0 / radius) * banded,
                (flux_weights[0] / radius, flux_weights[1] / radius, -q * inv_r2))

    return rhs, jac


@functools.cache
def _lapack():
    """LAPACK's ``dgttrf`` and ``dgttrs``, loaded once per process.

    They live in the extension ``scipy.linalg._flapack``.  Loading it from its
    file with the import system's finder skips the ``scipy.linalg`` package
    init, most of a solver's cold start; the module is registered under its
    name, so a later ``import scipy.linalg`` reuses it, and a copy already
    loaded is used as it is.  If the file is not found or does not load, the
    routines come from ``scipy.linalg.lapack``: the same objects.
    """
    name = "scipy.linalg._flapack"
    try:
        module = sys.modules.get(name)
        if module is None:
            location = importlib.util.find_spec("scipy.linalg").submodule_search_locations[0]
            spec = FileFinder(location, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
            if spec is None:
                raise ImportError(f"no {name} extension in {location}")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
    except ImportError:
        sys.modules.pop(name, None)
        from scipy.linalg.lapack import dgttrf, dgttrs
        return dgttrf, dgttrs
    return module.dgttrf, module.dgttrs


def _factor(parts, c: float):
    """Factor I - c J from the parts ``jac`` returns; return the solver of I - c J.

    The w block of I - c J is T - c u g^T (T tridiagonal, u = by_q, g the
    two flux weights), bordered by the R column and the last row.  One LAPACK
    tridiagonal LU and two border solves here leave each solve one
    tridiagonal solve and a 2x2 system for g.w and R.
    """
    dgttrf, dgttrs = _lapack()
    band, by_q, (g0, g1), r_col, (l0, l1, l_r) = parts
    dl, diag, du, du2, ipiv = dgttrf(-c * band[0, 1:], 1.0 - c * band[1], -c * band[2, :-1])[:5]
    zu, zr = (dgttrs(dl, diag, du, du2, ipiv, column)[0] for column in (by_q, r_col))
    a, b = 1.0 - c * (g0 * zu[0] + g1 * zu[1]), -c * (g0 * zr[0] + g1 * zr[1])
    e, f = -c * c * (l0 * zu[0] + l1 * zu[1]), 1.0 - c * l_r - c * c * (l0 * zr[0] + l1 * zr[1])
    det = a * f - b * e

    def solve(rhs):
        z = dgttrs(dl, diag, du, du2, ipiv, rhs[:-1])[0]
        z0, z1 = z[:2].tolist()
        gz, lz = g0 * z0 + g1 * z1, float(rhs[-1]) + c * (l0 * z0 + l1 * z1)
        alpha, radius = (f * gz - b * lz) / det, (a * lz - e * gz) / det
        if not (math.isfinite(alpha) and math.isfinite(radius)):
            # opposite infinities would meet in the body's sum, with numpy's warning
            return np.full(rhs.size, math.nan)
        out = np.empty(rhs.size)
        body = np.add(z, np.multiply(zu, c * alpha, out=out[:-1]), out=out[:-1])
        body += np.multiply(zr, c * radius, out=z)  # z is no longer needed
        out[-1] = radius
        return out

    return solve


def _solute_drift(x: np.ndarray, y: np.ndarray, eps: float, beta: float) -> float | None:
    """(field solute - released solute) / released solute of the state y.

    The field equations conserve R^3 (1 - beta + 1/(pi eps)) / 3 + int_R^inf C r^2 dr,
    so the particle has released (1 - R^3)(1 - beta + 1/(pi eps)) / 3; the
    field integral is a trapezoid sum on the grid.  None when eps = 0.
    """
    if eps == 0:
        return None
    radius = float(y[-1])
    field = radius**3 * np.trapezoid(np.concatenate(([1.0], y[:-1], [0.0])) * x, x)
    return field / ((1.0 - radius**3) * (1.0 - beta + 1.0 / (math.pi * eps)) / 3.0) - 1.0


def _grid(eps: float, t_stop: float, config: PdeConfig) -> tuple[np.ndarray, float, float]:
    """The grid x of a run to ``t_stop``, its ``rhat_max`` and its stretch ratio."""
    # the far field stays below 1e-6 through t_stop: the mapped width is the physical
    # diffusion length over the smallest radius reached, for dissolution estimated with
    # the fastest-dissolving closed form and floored at the stopping radius
    r_final = 1.0  # growth only shrinks the mapped width
    if eps > 0:
        reach = 1.0 - 2.0 * eps * (2.0 * math.sqrt(t_stop) + t_stop)
        r_final = max(config.min_radius, math.sqrt(max(reach, 0.0)))
    rhat_max = max(10.0, 1.0 + _FAR_FIELD_ARG * math.sqrt(4.0 * t_stop / math.pi) / r_final)
    # the first cell resolves the short-time profile at T_INIT, whatever time a run starts at
    startup_width = math.sqrt(4.0 * T_INIT / math.pi) / (1.0 - 2.0 * eps * math.sqrt(T_INIT))
    x, ratio = _build_grid(rhat_max, config.nodes, startup_width / _CELLS_PER_WIDTH)
    return x, rhat_max, ratio


def _start(eps: float, x: np.ndarray) -> tuple[float, np.ndarray]:
    """The start time ``T_INIT`` and the state there on the grid x: the
    short-time profile C = (R/r) erfc((r - R) sqrt(pi / 4t)) with
    R = 1 - 2 eps sqrt(t), so w = x C = erfc((x - 1) R sqrt(pi / 4t))."""
    r_init = 1.0 - 2.0 * eps * math.sqrt(T_INIT)
    w = [math.erfc(v) for v in (x[1:-1] - 1.0) * r_init * math.sqrt(math.pi / (4.0 * T_INIT))]
    return T_INIT, np.append(w, r_init)


def _advance(grid: tuple[np.ndarray, float, float], eps: float, density_ratio: float,
             t0: float, y0: np.ndarray, t_stop: float, rtol: float, atol: float,
             floor: float | None, snapshot_times: Sequence[float]) -> MovingBoundaryResult:
    """Integrate the mapped system on ``grid`` (x, rhat_max, stretch ratio)
    from the state y0 = (w_1, ..., w_{N-2}, R) at t0 to t_stop, or until R
    falls to ``floor``, and assemble the run's result."""
    x, rhat_max, ratio = grid
    beta = 1.0 - density_ratio
    rhs, jac = _mapped_system(x, eps, beta)
    run = _bdf.integrate(rhs, jac, _factor, t0, y0, t_stop, rtol, atol,
                         floor=floor, t_eval=snapshot_times)

    curve = RadiusCurve(MethodId.PDE_REFERENCE, eps, run.ts, run.last, metadata={
        "density_ratio": density_ratio, "nodes": x.size, "rhat_max": rhat_max,
        "stretch_ratio": ratio, "rel_tol": rtol, "abs_tol": atol, "t_init": t0,
        "stopped_on": "min_radius" if run.stopped_at_floor else "t_end",
        "nfev": run.nfev, "njev": run.njev, "nlu": run.nlu, "steps": run.steps,
        "solute_drift": _solute_drift(x, run.y, eps, beta),
    })

    def field_at(t_snap: float, y: np.ndarray) -> MappedField:
        concentration = np.concatenate(([1.0], y[:-1], [0.0])) / x
        return MappedField(x.copy(), concentration, float(y[-1]), float(t_snap), density_ratio)

    t_final = float(run.ts[-1])
    snapshots = []
    for t_snap, y_snap in zip(snapshot_times, run.y_eval):
        if y_snap is None:
            raise DomainError(
                "snapshot_times",
                f"t={t_snap!r} outside the integrated span [{t0:g}, {t_final:g}]",
            )
        snapshots.append(field_at(t_snap, y_snap))

    return MovingBoundaryResult(curve, tuple(snapshots), field_at(t_final, run.y))


def solve_moving_boundary(
    eps: float,
    density_ratio: float,
    config: PdeConfig | None = None,
    snapshot_times: Sequence[float] = (),
) -> MovingBoundaryResult:
    """Advance the coupled field/radius system and return the radius history.

    ``density_ratio`` is the particle-to-medium density ratio; the physical
    convection term vanishes when it equals 1.  The run stops at
    ``config.t_end`` or when the radius falls to ``config.min_radius``,
    whichever comes first.  Its curve is the run's one record: the mesh, the
    tolerances, the start time, why it stopped and the work are its metadata.
    """
    config = config or PdeConfig()
    check_end(eps, config.t_end, "t_end")
    if not math.isfinite(density_ratio) or density_ratio <= 0:
        raise DomainError("density_ratio", f"must be positive, got {density_ratio!r}")

    # by default a dissolving run stops at the steady-flux bound 1/(2 eps)
    t_stop = config.t_end
    if t_stop is None:
        t_stop = dissolution_time(eps, lambda e: 0.5 / e, "pde")
    grid = _grid(eps, t_stop, config)
    t0, y0 = _start(eps, grid[0])
    return _advance(grid, eps, density_ratio, t0, y0, t_stop, RTOL, ATOL,
                    config.min_radius if eps > 0 else None, snapshot_times)
