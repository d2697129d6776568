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
smooth through R' = 0.  Time integration is implicit (BDF) with the radius
carried as an extra state variable and an analytic sparse Jacobian.

The run starts from the analytic short-time profile at a small positive
time, which sidesteps the incompatible initial/boundary data at t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import MethodId, RadiusCurve
from .errors import DomainError, IntegrationError

#: The analytic far field at the final time must stay below 1e-6 at the
#: truncation radius; erfc reaches that level at argument 3.46.
_FAR_FIELD_ARG = 3.46

#: Discrete maximum-principle tolerance for validated concentration fields.
MAX_PRINCIPLE_TOL = 1e-6

#: Startup profile is resolved with this many cells per e-folding width.
_CELLS_PER_WIDTH = 5.0

#: The mesh must reproduce the startup surface flux to this relative error.
_MAX_FLUX_MISMATCH = 0.05


@dataclass(frozen=True)
class PdeConfig:
    """Mesh and stepping controls for the moving-boundary solver.

    ``rhat_max`` and ``stretch_ratio`` default to automatic sizing: the
    domain is truncated where the far field stays below 1e-6 through the
    final time, and the stretching is chosen so the startup profile is
    resolved near the surface with the available node budget.
    """

    nodes: int = 241
    rhat_max: float | None = None
    stretch_ratio: float | None = None
    rel_tol: float = 1e-8
    abs_tol: float = 1e-8
    t_init: float = 1e-6
    min_radius: float = 0.05
    t_end: float | None = None

    def __post_init__(self):
        if not isinstance(self.nodes, int) or self.nodes < 100:
            raise DomainError("nodes", f"need at least 100 nodes, got {self.nodes!r}")
        if self.rhat_max is not None and not self.rhat_max >= 10.0:
            raise DomainError("rhat_max", f"must be >= 10, got {self.rhat_max!r}")
        if self.stretch_ratio is not None and not 1.0 < self.stretch_ratio < 4.0:
            raise DomainError("stretch_ratio", f"must lie in (1, 4), got {self.stretch_ratio!r}")
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not 0.0 < value <= 1e-3:
                raise DomainError(name, f"must lie in (0, 1e-3], got {value!r}")
        if not 0.0 < self.t_init <= 1e-2:
            raise DomainError("t_init", f"must lie in (0, 1e-2], got {self.t_init!r}")
        if not 0.0 < self.min_radius < 1.0:
            raise DomainError("min_radius", f"must lie in (0, 1), got {self.min_radius!r}")
        if self.t_end is not None and (not math.isfinite(self.t_end) or self.t_end <= self.t_init):
            raise DomainError("t_end", f"must exceed t_init={self.t_init!r}, got {self.t_end!r}")


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
    stopped_on: str  # "t_end" or "min_radius"
    config_used: PdeConfig


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
            f"startup profile (first cell {h0:.3g}); increase nodes or t_init",
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) < span:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _build_grid(rhat_max: float, nodes: int, h0: float, ratio: float | None) -> tuple[np.ndarray, float]:
    span = rhat_max - 1.0
    cells = nodes - 1
    if ratio is None:
        ratio = _solve_stretch_ratio(span, cells, h0)
    if ratio == 1.0:
        return np.linspace(1.0, rhat_max, nodes), ratio
    if cells * math.log(ratio) > 300.0:
        raise DomainError("stretch_ratio", f"{ratio!r} is too aggressive for {nodes} nodes")
    h0 = span * (ratio - 1.0) / (ratio**cells - 1.0)
    steps = h0 * ratio ** np.arange(cells)
    x = np.concatenate(([1.0], 1.0 + np.cumsum(steps)))
    x[-1] = rhat_max
    return x, ratio


def _default_rhat_max(eps: float, t_stop: float, min_radius: float) -> float:
    # The mapped far-field width is the physical diffusion length over the
    # smallest radius reached; for dissolution estimate that radius with the
    # fastest-dissolving closed form, floored at the stopping radius.
    if eps > 0:
        reach = 1.0 - 2.0 * eps * (2.0 * math.sqrt(t_stop) + t_stop)
        r_final = max(min_radius, math.sqrt(max(reach, 0.0)))
    else:
        r_final = 1.0  # growth only shrinks the mapped width
    width = _FAR_FIELD_ARG * math.sqrt(4.0 * t_stop / math.pi) / r_final
    return max(10.0, 1.0 + width)


def _mapped_system(x: np.ndarray, eps: float, beta: float):
    """Right-hand side and analytic sparse Jacobian of the method-of-lines system.

    The state is y = (w_1, ..., w_{N-2}, R).  With q = eps (w_x|_1 - 1) = R R'
    each interior row reads dw_i/dt = F_i(w, q) / R^2, where
    F_i = sigma(q f_i) L2_i(w) / pi + q (adv_i L1_i(w) - react_i w_i), L2 and
    L1 are the central second and first differences and f_i = (pi/2) adv_i h
    on the upwind cell.  So the Jacobian is a tridiagonal block plus the
    columns w_1, w_2 (through q) and R, and the last row dR'/d(w_1, w_2, R).
    """
    from scipy.sparse import csc_matrix

    nodes = x.size
    n_int = nodes - 2
    n = n_int + 1
    d0, d1, d2 = _surface_flux_weights(x)
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
    w = np.zeros(nodes)
    w[0] = 1.0

    def stencil(weights):
        return weights[0] * w[:-2] + weights[1] * w[1:-1] + weights[2] * w[2:]

    def terms(y):
        w[1:-1] = y[:-1]
        q = eps * (d0 + d1 * float(y[0]) + d2 * float(y[1]) - 1.0)
        fit = fit_up if q > 0.0 else fit_down
        z = q * fit
        sigma = z / np.tanh(z) if q != 0.0 else 1.0
        return q, fit, z, sigma, sigma * diffusion + q * convection

    def rhs(t, y):
        q, _, _, _, band = terms(y)
        radius = float(y[-1])
        dy = np.empty(n)
        dy[:-1] = stencil(band) / (radius * radius)
        dy[-1] = q / radius
        return dy

    # CSC pattern, built once.  jac lists its values in this order (band
    # below, on and above the diagonal; columns w_1, w_2 and R; last row)
    # and value k is summed into slot[k]
    rows_int = np.arange(n_int)
    rows = np.concatenate((rows_int[1:], rows_int, rows_int[:-1], rows_int, rows_int, rows_int,
                           [n_int] * 3))
    cols = np.concatenate((rows_int[:-1], rows_int, rows_int[1:], np.zeros(n_int, int),
                           np.ones(n_int, int), np.full(n_int, n_int), [0, 1, n_int]))
    keys, slot = np.unique(cols * n + rows, return_inverse=True)
    indptr = np.searchsorted(keys // n, np.arange(n + 1))
    indices = keys % n

    def jac(t, y):
        q, fit, z, sigma, band = terms(y)
        radius = float(y[-1])
        inv_r2 = 1.0 / (radius * radius)
        small = np.abs(z) < 1e-2  # dsigma/dz = (sigma - sigma^2 + z^2)/z cancels there
        slope = np.where(small, z * (2.0 / 3.0 - z * z * (4.0 / 45.0)),
                         (sigma - sigma * sigma + z * z) / np.where(small, 1.0, z))
        by_q = (slope * fit * stencil(diffusion) + stencil(convection)) * inv_r2  # d(dw_i/dt)/dq
        band *= inv_r2
        values = np.concatenate((
            band[0, 1:], band[1], band[2, :-1], eps * d1 * by_q, eps * d2 * by_q,
            (-2.0 / radius) * stencil(band),
            [eps * d1 / radius, eps * d2 / radius, -q * inv_r2],
        ))
        data = np.bincount(slot, weights=values, minlength=keys.size)
        return csc_matrix((data, indices, indptr), shape=(n, n))

    return rhs, jac


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
    whichever comes first.
    """
    if not math.isfinite(eps):
        raise DomainError("epsilon", "must be finite")
    if not math.isfinite(density_ratio) or density_ratio <= 0:
        raise DomainError("density_ratio", f"must be positive, got {density_ratio!r}")
    config = config or PdeConfig()
    if eps <= 0 and config.t_end is None:
        raise DomainError("t_end", "required for epsilon <= 0 (the radius never vanishes)")

    beta = 1.0 - density_ratio
    t_init = config.t_init
    r_init = 1.0 - 2.0 * eps * math.sqrt(t_init)
    if eps > 0:
        t_stop = config.t_end if config.t_end is not None else 0.5 / eps
    else:
        t_stop = config.t_end

    rhat_max = config.rhat_max or _default_rhat_max(eps, t_stop, config.min_radius)
    startup_width = math.sqrt(4.0 * t_init / math.pi) / r_init
    x, ratio = _build_grid(rhat_max, config.nodes, startup_width / _CELLS_PER_WIDTH,
                           config.stretch_ratio)
    nodes = x.size

    # scipy loads with the first solve, not with the package, so that the closed forms load fast
    from scipy.integrate import solve_ivp
    from scipy.special import erfc

    w0 = erfc((x - 1.0) * r_init * math.sqrt(math.pi / (4.0 * t_init)))
    w0[0], w0[-1] = 1.0, 0.0

    d0, d1, d2 = _surface_flux_weights(x)
    flux0 = d0 * w0[0] + d1 * w0[1] + d2 * w0[2]
    flux_exact = -r_init / math.sqrt(t_init)
    if abs(flux0 - flux_exact) > _MAX_FLUX_MISMATCH * abs(flux_exact):
        raise DomainError(
            "nodes",
            f"mesh too coarse: startup surface flux off by "
            f"{100 * abs(flux0 / flux_exact - 1):.1f}% "
            f"(> {100 * _MAX_FLUX_MISMATCH:.0f}%); increase nodes or t_init",
        )

    rhs, jac = _mapped_system(x, eps, beta)

    events = []
    if eps > 0:
        def hit_floor(t, y):
            return y[-1] - config.min_radius

        hit_floor.terminal = True
        hit_floor.direction = -1.0
        events.append(hit_floor)

    y0 = np.append(w0[1:-1], r_init)
    sol = solve_ivp(
        rhs,
        (t_init, t_stop),
        y0,
        method="BDF",
        rtol=config.rel_tol,
        atol=config.abs_tol,
        jac=jac,
        events=events or None,
        dense_output=len(snapshot_times) > 0,  # the final state is sol.y[:, -1], even at an event
    )
    if sol.status == -1:
        raise IntegrationError(
            f"time stepping failed: {sol.message}",
            t=float(sol.t[-1]) if sol.t.size else t_init,
            radius=float(sol.y[-1, -1]) if sol.t.size else r_init,
        )
    stopped_on = "min_radius" if sol.status == 1 else "t_end"

    curve = RadiusCurve(
        MethodId.PDE_REFERENCE,
        eps,
        sol.t,
        sol.y[-1],
        metadata={
            "density_ratio": density_ratio,
            "nodes": nodes,
            "rhat_max": rhat_max,
            "stretch_ratio": ratio,
            "rel_tol": config.rel_tol,
            "abs_tol": config.abs_tol,
            "t_init": t_init,
            "stopped_on": stopped_on,
            "nfev": sol.nfev,
            "njev": sol.njev,
            "nlu": sol.nlu,
            "steps": sol.t.size - 1,
        },
    )

    def field_at(t_snap: float, y: np.ndarray) -> MappedField:
        w = np.concatenate(([1.0], y[:-1], [0.0]))
        return MappedField(
            rhat=x.copy(),
            concentration=w / x,
            radius=float(y[-1]),
            t=float(t_snap),
            density_ratio=density_ratio,
        )

    t_final = float(sol.t[-1])
    snapshots = []
    for t_snap in snapshot_times:
        if not t_init <= t_snap <= t_final:
            raise DomainError(
                "snapshot_times",
                f"t={t_snap!r} outside the integrated span [{t_init:g}, {t_final:g}]",
            )
        snapshots.append(field_at(t_snap, sol.sol(t_snap)))

    return MovingBoundaryResult(
        curve=curve,
        snapshots=tuple(snapshots),
        final_field=field_at(t_final, sol.y[:, -1]),
        stopped_on=stopped_on,
        config_used=config,
    )
