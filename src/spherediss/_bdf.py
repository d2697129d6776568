"""Variable-order NDF/BDF stepper for the moving-boundary solver.

Backward differentiation formulas of orders 1-5 with the numerical
differentiation formula (NDF) correction and quasi-constant step sizes
(Shampine & Reichelt, "The MATLAB ODE Suite", SIAM J. Sci. Comput. 18, 1,
1997), kept as a table of backward differences.  The kappa, gamma and alpha
constants, the simplified Newton iteration, the RMS error norm and the order
and step-size rules follow scipy's ``BDF`` (scipy/integrate/_ivp/bdf.py,
BSD-3-Clause, the SciPy developers) rule for rule, so both take the same
steps.  The linear algebra is the caller's: ``factor(J, c)`` factors
I - c J from whatever ``jac`` returns and hands back a function that solves
with it, so a structured Jacobian never becomes a general matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import bisect
from .errors import IntegrationError

#: Most accepted steps one run may take before it fails with ``IntegrationError``.
MAX_STEPS = 100_000

MAX_ORDER = 5
NEWTON_MAXITER = 4
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
EPS = float(np.finfo(float).eps)

_KAPPA = np.array([0.0, -0.1850, -1.0 / 9.0, -0.0823, -0.0415, 0.0])
GAMMA = np.hstack((0.0, np.cumsum(1.0 / np.arange(1, MAX_ORDER + 1))))
ALPHA = (1.0 - _KAPPA) * GAMMA
ERROR_CONST = _KAPPA * GAMMA + 1.0 / np.arange(1, MAX_ORDER + 2)


def _rms(x: np.ndarray) -> float:
    return math.sqrt(float(np.dot(x, x)) / x.size)


def _scale(y: np.ndarray, rtol: float, atol: float, out: np.ndarray) -> np.ndarray:
    """The error scale atol + rtol |y|, formed in ``out``."""
    return np.add(np.multiply(np.abs(y, out=out), rtol, out=out), atol, out=out)


def _error_norm(const, x: np.ndarray, scale: np.ndarray, out: np.ndarray) -> float:
    """RMS of const x / scale, formed in ``out``."""
    return _rms(np.divide(np.multiply(x, const, out=out), scale, out=out))


def _step_change(order: int, factor: float) -> np.ndarray:
    """Matrix R of Shampine & Reichelt that maps differences to step h * factor."""
    i = np.arange(1, order + 1)[:, None]
    j = np.arange(1, order + 1)
    m = np.zeros((order + 1, order + 1))
    m[1:, 1:] = (i - 1 - factor * j) / i
    m[0] = 1.0
    return np.cumprod(m, axis=0)


_UNIT_CHANGE = [_step_change(order, 1.0) for order in range(MAX_ORDER + 1)]


def _change_step(D: np.ndarray, order: int, factor: float) -> None:
    """Rescale the difference table in place for a step size times ``factor``."""
    ru = _step_change(order, factor) @ _UNIT_CHANGE[order]
    D[:order + 1] = ru.T @ D[:order + 1]


def _interpolate(t: float, t_new: float, h: float, D: np.ndarray):
    """The step's interpolating polynomial at ``t``; D holds its differences."""
    x = (t - (t_new - h * np.arange(D.shape[0] - 1))) / (h * np.arange(1, D.shape[0]))
    return D[0] + np.cumprod(x) @ D[1:]


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol) -> float:
    # Hairer, Norsett & Wanner, "Solving ODEs I", sec. II.4, for an order-1 estimate
    interval = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    with np.errstate(over="ignore"):  # an overflow leaves no usable h0, refused below
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    if not 0.0 < h0 < math.inf:
        raise IntegrationError(f"no usable initial step (h0={h0!r})", t=t0, radius=float(y0[-1]))
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = math.sqrt(0.01 / max(d1, d2))
    return min(100.0 * h0, h1, interval)


@dataclass(frozen=True)
class BdfRun:
    """Outcome of one integration.

    ``ts`` holds the start and every accepted step's end (the last cut back to
    the floor crossing after a stop there), ``last`` the matching values of
    the state's last component, ``y`` the final state, and ``y_eval`` the
    state at each requested time, or None where the run did not reach it.
    """

    ts: np.ndarray
    last: np.ndarray
    y: np.ndarray
    y_eval: list
    stopped_at_floor: bool
    nfev: int
    njev: int
    nlu: int

    @property
    def steps(self) -> int:
        return self.ts.size - 1


def integrate(fun, jac, factor, t0: float, y0: np.ndarray, t_bound: float,
              rtol: float, atol: float, floor: float | None = None,
              t_eval=()) -> BdfRun:
    """Integrate y' = fun(t, y) from ``t0`` to ``t_bound``.

    ``jac(t, y)`` returns the Jacobian in whatever form ``factor(J, c)``
    takes; ``factor`` returns a function that solves (I - c J) x = b for x.
    The stepper keeps what ``fun``, ``jac`` and the solve return, so they
    must return arrays that no later call overwrites.
    With a ``floor`` the run stops where the state's last component falls to
    it, found by bisection on the crossing step's interpolant.  The states at
    ``t_eval`` come from the interpolant of the step that covers each time.
    Raises ``IntegrationError`` when the step size underflows or a step past
    ``MAX_STEPS`` is due.
    """
    counts = [0, 1, 0]  # nfev, njev, nlu: jac runs once at the start

    def rate(t, y):
        counts[0] += 1
        return fun(t, y)

    t = t0
    y = np.array(y0, dtype=float)
    f = rate(t, y)
    h_abs = _initial_step(rate, t, y, t_bound, f, rtol, atol)
    newton_tol = max(10.0 * EPS / rtol, min(0.03, math.sqrt(rtol)))
    J = jac(t, y)
    solve = None  # the current factorization of I - c J
    D = np.zeros((MAX_ORDER + 3, y.size))
    D[0] = y
    D[1] = f * h_abs
    scale, scaled = np.empty(y.size), np.empty(y.size)  # error scale, error-norm work
    order = 1
    n_equal_steps = 0

    ts, last = [t], [float(y[-1])]
    pending = sorted((k for k in range(len(t_eval)) if t_eval[k] >= t0), key=t_eval.__getitem__)
    y_eval = [None] * len(t_eval)
    stopped_at_floor = False
    while t < t_bound:
        if len(ts) > MAX_STEPS:
            raise IntegrationError(f"max_steps={MAX_STEPS} exceeded", t=t, radius=float(y[-1]))
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            change = min_step / h_abs
            h_abs = min_step
            _change_step(D, order, change)
            n_equal_steps = 0
        current_jac = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(
                    "step-size underflow: required step size is less than spacing between numbers",
                    t=t, radius=float(y[-1]))
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
                _change_step(D, order, (t_new - t) / h_abs)
                n_equal_steps = 0
                solve = None
            h_abs = t_new - t

            y_predict = D[:order + 1].sum(axis=0)
            scale = _scale(y_predict, rtol, atol, scale)
            psi = GAMMA[1:order + 1] @ D[1:order + 1] / ALPHA[order]
            c = h_abs / ALPHA[order]
            while True:
                if solve is None:
                    solve = factor(J, c)
                    counts[2] += 1
                converged, n_iter, y_new, d = _newton(rate, t_new, y_predict, c, psi, solve,
                                                      scale, newton_tol)
                if converged or current_jac:
                    break
                J = jac(t_new, y_predict)
                counts[1] += 1
                solve = None
                current_jac = True

            if not converged:
                h_abs *= 0.5
                _change_step(D, order, 0.5)
                n_equal_steps = 0
                solve = None
                continue

            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)
            scale = _scale(y_new, rtol, atol, scale)
            error_norm = _error_norm(ERROR_CONST[order], d, scale, scaled)
            if error_norm <= 1.0:
                break
            change = max(MIN_FACTOR, safety * error_norm ** (-1.0 / (order + 1)))
            h_abs *= change
            _change_step(D, order, change)
            n_equal_steps = 0  # the factorization is kept: Newton converged

        n_equal_steps += 1
        t_old, t, y = t, t_new, y_new

        # d is the (order+1)-th difference of the new step: update the table
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]

        if n_equal_steps >= order + 1:
            error_m = (_error_norm(ERROR_CONST[order - 1], D[order], scale, scaled)
                       if order > 1 else math.inf)
            error_p = (_error_norm(ERROR_CONST[order + 1], D[order + 2], scale, scaled)
                       if order < MAX_ORDER else math.inf)
            factors = [e ** (-1.0 / (order + k)) if e > 0 else math.inf
                       for k, e in enumerate((error_m, error_norm, error_p))]
            best = max(factors)
            order += factors.index(best) - 1
            change = min(MAX_FACTOR, safety * best)
            h_abs *= change
            _change_step(D, order, change)
            n_equal_steps = 0
            solve = None

        # this step's interpolant: the difference table after any order or step change
        h_dense, D_dense = h_abs, D[:order + 1]
        t_end = t
        if floor is not None and last[-1] >= floor >= y[-1]:
            R = D_dense[:, -1].copy()
            t_end = bisect(lambda s: _interpolate(s, t, h_dense, R) > floor, t_old, t)[1]
            stopped_at_floor = True
        while pending and t_eval[pending[0]] <= t_end:
            k = pending.pop(0)
            y_eval[k] = _interpolate(t_eval[k], t, h_dense, D_dense)
        if stopped_at_floor:
            y = _interpolate(t_end, t, h_dense, D_dense)
            ts.append(t_end)
            last.append(float(y[-1]))
            break
        ts.append(t)
        last.append(float(y[-1]))

    return BdfRun(np.asarray(ts), np.asarray(last), y, y_eval, stopped_at_floor, *counts)


def _newton(fun, t_new, y_predict, c, psi, solve, scale, tol):
    """Simplified Newton iteration on the step's implicit equation.

    Returns (converged, iterations, y, d) with d = y - y_predict.
    """
    d = np.zeros(y_predict.size)
    y = y_predict.copy()
    work = np.empty(y.size)
    dy_norm_old = None
    converged = False
    for k in range(NEWTON_MAXITER):
        np.multiply(fun(t_new, y), c, out=work)
        work -= psi
        work -= d
        dy = solve(work)
        dy_norm = _rms(np.divide(dy, scale, out=work))
        if not math.isfinite(dy_norm):  # always so for a non-finite rate
            break
        rate = None if dy_norm_old is None else dy_norm / dy_norm_old
        if rate is not None and (rate >= 1.0 or
                                 rate ** (NEWTON_MAXITER - k) / (1.0 - rate) * dy_norm > tol):
            break
        y += dy
        d += dy
        if dy_norm == 0.0 or rate is not None and rate / (1.0 - rate) * dy_norm < tol:
            converged = True
            break
        dy_norm_old = dy_norm
    return converged, k + 1, y, d
