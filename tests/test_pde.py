import functools
import importlib.machinery
import importlib.util
import math
import sys
import warnings

import numpy as np
import pytest

from spherediss import (
    DomainError,
    MappedField,
    PdeConfig,
    concentration_profile,
    radius_at,
    solve_moving_boundary,
    time_to_dissolution,
)
from spherediss import _bdf, cli
from spherediss.errors import IntegrationError
from spherediss.pde import (
    _CELLS_PER_WIDTH,
    ATOL,
    RTOL,
    _advance,
    _build_grid,
    _factor,
    _grid,
    _lapack,
    _mapped_system,
    _solute_drift,
    _start,
    _surface_flux_weights,
)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nodes": 50},
            {"nodes": 241.0},
            {"min_radius": 0.0},
            {"min_radius": 1.0},
            {"min_radius": math.nan},
            {"t_end": 1e-7},
            {"t_end": math.inf},
            {"t_end": math.nan},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            PdeConfig(**kwargs)

    def test_solver_input_validation(self):
        with pytest.raises(DomainError):
            solve_moving_boundary(0.1, 0.0)
        with pytest.raises(DomainError):
            solve_moving_boundary(-0.1, 1.0)  # t_end required
        with pytest.raises(DomainError):
            solve_moving_boundary(math.nan, 1.0)


class TestStaticLimit:
    def test_radius_fixed_and_field_analytic(self):
        result = solve_moving_boundary(0.0, 1.0, PdeConfig(t_end=1.0), snapshot_times=[1.0])
        assert np.allclose(result.curve.radii, 1.0, atol=1e-12)
        field = result.snapshots[0]
        analytic = np.array(
            [concentration_profile(1.0, field.t, r) for r in field.rhat]
        )
        assert np.max(np.abs(field.concentration - analytic)) < 2e-4

    def test_any_density_ratio(self):
        result = solve_moving_boundary(0.0, 3.0, PdeConfig(t_end=0.5))
        assert np.allclose(result.curve.radii, 1.0, atol=1e-12)


class TestSurfaceFlux:
    def test_recession_rate_matches_quasi_stationary_flux(self):
        # at small driving force the surface recedes at -eps (1/R + 1/sqrt(t))
        eps = 0.001
        result = solve_moving_boundary(eps, 1.0, PdeConfig(t_end=2.0))
        curve = result.curve
        for t_probe in (1e-3, 1e-2, 0.1, 1.0):
            i = np.searchsorted(curve.times, t_probe)
            i = min(max(i, 1), len(curve.times) - 2)
            slope = (curve.radii[i + 1] - curve.radii[i - 1]) / (
                curve.times[i + 1] - curve.times[i - 1]
            )
            t_mid, r_mid = curve.times[i], curve.radii[i]
            expected = -eps * (1.0 / r_mid + 1.0 / math.sqrt(t_mid))
            assert slope == pytest.approx(expected, rel=0.02)


class TestMaximumPrinciple:
    @pytest.mark.parametrize("eps,ratio,t_end", [(0.1, 1.0, 1.0), (-0.05, 0.8, 5.0), (0.2, 2.0, 0.5)])
    def test_concentration_bounded(self, eps, ratio, t_end):
        times = [t_end / 3, t_end]
        result = solve_moving_boundary(eps, ratio, PdeConfig(t_end=t_end), snapshot_times=times)
        for field in result.snapshots + (result.final_field,):
            assert np.min(field.concentration) >= -1e-6
            assert np.max(field.concentration) <= 1.0 + 1e-6
            assert field.concentration[0] == pytest.approx(1.0, abs=1e-6)
            assert abs(field.concentration[-1]) <= 1e-6


class TestMeshControls:
    @pytest.mark.parametrize("ratio", np.linspace(1.0, 4.0, 31))
    def test_startup_flux_within_5_percent_for_every_stretching(self, ratio):
        # The first cell is the startup width over _CELLS_PER_WIDTH, whatever ratio
        # q in [1, 4] the grid takes.  In units of that width the startup profile
        # is erfc(s), with surface slope -2/sqrt(pi).
        h0 = 1.0 / _CELLS_PER_WIDTH
        x = np.array([0.0, h0, h0 + ratio * h0])
        flux = np.dot(_surface_flux_weights(x), [math.erfc(s) for s in x])
        assert abs(flux / (-2.0 / math.sqrt(math.pi)) - 1.0) <= 0.05

    @pytest.mark.parametrize("rhat_max", [10.0, 1e3, 1e10, 1e40, 1e100])
    def test_grid_keeps_the_first_cell_within_the_ratio_range(self, rhat_max):
        h0 = 1e-3 / _CELLS_PER_WIDTH
        x, ratio = _build_grid(rhat_max, 241, h0)
        assert 1.0 <= ratio <= 4.0
        assert x[0] == 1.0 and x[-1] == rhat_max
        assert x[1] - x[0] <= h0 * (1.0 + 1e-9)

    def test_grid_self_convergence(self):
        eps = 0.01
        values = []
        for nodes in (121, 241):
            result = solve_moving_boundary(eps, 1.0, PdeConfig(t_end=2.0, nodes=nodes))
            curve = result.curve
            values.append(np.interp(2.0, curve.times, curve.radii))
        assert abs(values[1] - values[0]) / values[0] < 0.002

    def test_snapshot_outside_span_rejected(self):
        with pytest.raises(DomainError):
            solve_moving_boundary(0.1, 1.0, PdeConfig(t_end=1.0), snapshot_times=[2.0])

    @pytest.mark.parametrize("eps,ratio,t_end", [(0.1, 1.0, 3.0), (-0.1, 2.0, 50.0)])
    def test_result_does_not_depend_on_the_tolerances(self, eps, ratio, t_end):
        # the core rerun at 1e-10 moves R(t_end) by about 1e-7 relative; at RTOL = ATOL = 1e-6
        # the solver would be 1.4e-6 and 1.0e-5 off
        config = PdeConfig(t_end=t_end)
        default = solve_moving_boundary(eps, ratio, config).curve
        assert (default.metadata["rel_tol"], default.metadata["abs_tol"]) == (RTOL, ATOL)
        grid = _grid(eps, t_end, config)
        t0, y0 = _start(eps, grid[0])
        tight = _advance(grid, eps, ratio, t0, y0, t_end, 1e-10, 1e-10, None, ()).curve
        assert abs(default.radii[-1] / tight.radii[-1] - 1.0) <= 1e-6

    def test_min_radius_stop(self):
        result = solve_moving_boundary(1.0, 1.0, PdeConfig(min_radius=0.5))
        assert result.stopped_on == "min_radius"
        assert result.curve.radii[-1] == pytest.approx(0.5, abs=1e-6)


class TestQuasiStationaryDeviation:
    def test_small_eps_deviation_is_real_but_small_mid_run(self):
        # the moving-boundary solution lags the quasi-stationary curve by a
        # deviation that scales like sqrt(eps); mid-run at eps=0.01 it sits
        # around one percent of the initial radius
        eps = 0.01
        t0 = time_to_dissolution(eps)
        result = solve_moving_boundary(eps, 1.0, PdeConfig(t_end=0.5 * t0))
        curve = result.curve
        gap = curve.radii[-1] - radius_at(eps, curve.times[-1])
        assert 0.001 < gap < 0.03

    def test_growth_run_with_convection(self):
        result = solve_moving_boundary(-0.01, 0.8, PdeConfig(t_end=50.0))
        assert result.curve.radii[-1] > 1.0
        assert result.stopped_on == "t_end"


class TestMappedFieldValidation:
    def test_rejects_unbounded_concentration(self):
        rhat = np.linspace(1.0, 12.0, 5)
        with pytest.raises(ValueError):
            MappedField(rhat, np.array([1.0, 0.5, 1.5, 0.1, 0.0]), 1.0, 1.0, 1.0)

    def test_rejects_wrong_surface_value(self):
        rhat = np.linspace(1.0, 12.0, 4)
        with pytest.raises(ValueError):
            MappedField(rhat, np.array([0.8, 0.5, 0.2, 0.0]), 1.0, 1.0, 1.0)


@functools.lru_cache(maxsize=None)
def _run(eps, ratio, t_end=None, fractions=()):
    config = PdeConfig() if t_end is None else PdeConfig(t_end=t_end)
    return solve_moving_boundary(eps, ratio, config, snapshot_times=[f * t_end for f in fractions])


def _state(field):
    """The solver's state vector (interior w = x C, then R) of a field snapshot."""
    return np.append((field.rhat * field.concentration)[1:-1], field.radius)


def _dense(parts):
    """The Jacobian as a dense matrix, from the parts ``jac`` returns."""
    band, by_q, weights, r_col, last_row = parts
    n = by_q.size + 1
    matrix = np.zeros((n, n))
    matrix[:-1, :-1] = np.diag(band[1]) + np.diag(band[0, 1:], -1) + np.diag(band[2, :-1], 1)
    matrix[:-1, :2] += np.outer(by_q, weights)
    matrix[:-1, -1] = r_col
    matrix[-1, [0, 1, -1]] = last_row
    return matrix


SAMPLE_FRACTIONS = (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0)


class TestFittedScheme:
    @pytest.mark.parametrize(
        "eps,ratio,t_end",
        [(0.1, 1.0, 1.0), (-0.05, 0.8, 5.0), (0.2, 2.0, 0.5),
         (-0.1, 0.5, 100.0), (-0.1, 2.0, 100.0), (0.1, 0.5, 2.0), (0.1, 2.0, 2.0)],
    )
    def test_tridiagonal_block_keeps_the_maximum_principle(self, eps, ratio, t_end):
        # the exponential fitting keeps every neighbour coupling non-negative
        # on the stretched grid; columns w_1 and w_2 also carry the surface
        # flux's border terms, so the band is checked from column 2 on
        result = _run(eps, ratio, t_end, SAMPLE_FRACTIONS)
        for field in result.snapshots:
            _, jac = _mapped_system(field.rhat, eps, 1.0 - ratio)
            block = _dense(jac(field.t, _state(field)))[:-1, :-1]
            floor = -1e-12 * np.max(np.abs(np.diag(block)))
            assert np.min(np.diag(block, -1)[2:]) >= floor
            assert np.min(np.diag(block, 1)[1:]) >= floor

    @staticmethod
    def _jacobian_cases():
        floor_run = _run(0.1, 1.0)
        states = [(0.1, 1.0, _run(0.1, 1.0, 1.0, SAMPLE_FRACTIONS).snapshots[-2]),
                  (0.1, 1.0, floor_run.final_field),
                  (0.1, 0.5, _run(0.1, 0.5, 2.0, SAMPLE_FRACTIONS).snapshots[-2]),
                  (0.2, 2.0, _run(0.2, 2.0, 0.5, SAMPLE_FRACTIONS).snapshots[-2]),
                  (-0.1, 0.5, _run(-0.1, 0.5, 100.0, SAMPLE_FRACTIONS).snapshots[-2]),
                  (-0.1, 2.0, _run(-0.1, 2.0, 100.0, SAMPLE_FRACTIONS).snapshots[-2])]
        assert floor_run.final_field.radius == pytest.approx(PdeConfig().min_radius, abs=1e-6)
        cases = [(eps, ratio, field.rhat, _state(field)) for eps, ratio, field in states]
        # R' = 0: move w_1 until the surface flux is exactly 1, so the
        # differences straddle the switch of the upwind side
        eps, ratio, x, y = cases[0]
        d0, d1, d2 = _surface_flux_weights(x)
        y = y.copy()
        y[0] = (1.0 - d0 - d2 * y[1]) / d1
        assert abs(_mapped_system(x, eps, 1.0 - ratio)[0](0.0, y)[-1]) < 1e-12
        cases.append((eps, ratio, x, y))
        return cases

    def test_jacobian_matches_finite_differences(self):
        for eps, ratio, x, y in self._jacobian_cases():
            rhs, jac = _mapped_system(x, eps, 1.0 - ratio)
            analytic = _dense(jac(0.0, y))
            for j in range(y.size):
                step = 1e-7 * max(abs(y[j]), 1.0)
                up, down = y.copy(), y.copy()
                up[j] += step
                down[j] -= step
                numeric = (rhs(0.0, up) - rhs(0.0, down)) / (2.0 * step)
                scale = np.max(np.abs(analytic[:, j]))
                assert np.max(np.abs(numeric - analytic[:, j])) <= 1e-6 * scale, (eps, ratio, j)

    def test_bordered_newton_solve_matches_dense_solve(self):
        # I - c J is tridiagonal plus rank one, bordered by the R column and row
        rng = np.random.default_rng(7)
        for eps, ratio, x, y in self._jacobian_cases():
            _, jac = _mapped_system(x, eps, 1.0 - ratio)
            parts = jac(0.0, y)
            for c in (1e-6, 1e-3, 1.0):
                matrix = np.eye(y.size) - c * _dense(parts)
                b = rng.standard_normal(y.size)
                got = _factor(parts, c)(b)
                want = np.linalg.solve(matrix, b)
                # normwise backward error, and the distance from LAPACK's dense LU solution
                residual = np.linalg.norm(matrix @ got - b, np.inf)
                scale = np.linalg.norm(matrix, np.inf) * np.linalg.norm(got, np.inf)
                assert residual <= 1e-12 * scale, (eps, ratio, c)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (eps, ratio, c)


class TestLapackLoader:
    """``_factor`` takes LAPACK from ``scipy.linalg._flapack``, loaded from its file;
    the fallback through ``scipy.linalg.lapack`` must give the same bits."""

    @staticmethod
    def _solutions():
        rng = np.random.default_rng(11)
        out = []
        for eps, ratio, x, y in TestFittedScheme._jacobian_cases():
            parts = _mapped_system(x, eps, 1.0 - ratio)[1](0.0, y)
            b = rng.standard_normal(y.size)
            out += [_factor(parts, c)(b) for c in (1e-6, 1e-3, 1.0)]
        return out

    @pytest.mark.parametrize("failure", ["lookup", "no file"])
    def test_fallback_is_bit_identical(self, monkeypatch, tmp_path, failure):
        from scipy.linalg import lapack

        _lapack.cache_clear()
        direct = self._solutions()
        calls = []

        def lookup(name, *args):
            calls.append(name)
            if failure == "lookup":
                raise ImportError(f"no {name}")
            spec = importlib.machinery.ModuleSpec(name, None, is_package=True)
            spec.submodule_search_locations.append(str(tmp_path))  # holds no extension
            return spec

        monkeypatch.setattr(importlib.util, "find_spec", lookup)
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        try:
            _lapack.cache_clear()
            dgttrf, dgttrs = _lapack()
            assert dgttrf is lapack.dgttrf and dgttrs is lapack.dgttrs
            assert calls == ["scipy.linalg"]
            fallback = self._solutions()
        finally:
            _lapack.cache_clear()
        assert len(direct) == len(fallback) == 21
        for want, got in zip(direct, fallback):
            assert got.tobytes() == want.tobytes()


def _reference_system(x, eps, beta):
    """Right-hand side and Jacobian parts as unfused expressions: the bitwise reference."""
    d0, d1, d2 = _surface_flux_weights(x)
    flux_weights = (eps * d1, eps * d2)
    xi = x[1:-1]
    hm, hp = xi - x[:-2], x[2:] - xi
    span = hm + hp
    adv = xi - beta / (xi * xi)
    diffusion = np.array([2.0 / (hm * span), -2.0 / (hm * hp), 2.0 / (hp * span)]) / math.pi
    convection = adv * np.array([-hp / (hm * span), (hp - hm) / (hm * hp), hm / (hp * span)])
    convection[1] -= 1.0 - beta / xi**3
    fit_up, fit_down = 0.5 * math.pi * adv * hp, 0.5 * math.pi * adv * hm

    def terms(y):
        w = np.concatenate(([1.0], y[:-1], [0.0]))
        q = eps * (d0 + d1 * float(y[0]) + d2 * float(y[1]) - 1.0)
        fit = fit_up if q > 0.0 else fit_down
        z = q * fit
        sigma = z / np.tanh(z) if q != 0.0 else 1.0

        def stencil(weights):
            return weights[0] * w[:-2] + weights[1] * w[1:-1] + weights[2] * w[2:]

        return q, fit, z, sigma, sigma * diffusion + q * convection, stencil

    def rhs(t, y):
        q, _, _, _, band, stencil = terms(y)
        radius = float(y[-1])
        return np.append(stencil(band) / (radius * radius), q / radius)

    def jac(t, y):
        q, fit, z, sigma, band, stencil = terms(y)
        radius = float(y[-1])
        inv_r2 = 1.0 / (radius * radius)
        small = np.abs(z) < 1e-2
        slope = np.where(small, z * (2.0 / 3.0 - z * z * (4.0 / 45.0)),
                         (sigma - sigma * sigma + z * z) / np.where(small, 1.0, z))
        by_q = (slope * fit * stencil(diffusion) + stencil(convection)) * inv_r2
        band = band * inv_r2
        return (band, by_q, flux_weights, (-2.0 / radius) * stencil(band),
                (flux_weights[0] / radius, flux_weights[1] / radius, -q * inv_r2))

    return rhs, jac


def _reference_solve(parts, c, rhs):
    """The bordered solve of ``_factor`` as unfused expressions: the bitwise reference."""
    dgttrf, dgttrs = _lapack()
    band, by_q, (g0, g1), r_col, (l0, l1, l_r) = parts
    lu = dgttrf(-c * band[0, 1:], 1.0 - c * band[1], -c * band[2, :-1])[:5]
    zu, zr = (dgttrs(*lu, column)[0] for column in (by_q, r_col))
    a, b = 1.0 - c * (g0 * zu[0] + g1 * zu[1]), -c * (g0 * zr[0] + g1 * zr[1])
    e, f = -c * c * (l0 * zu[0] + l1 * zu[1]), 1.0 - c * l_r - c * c * (l0 * zr[0] + l1 * zr[1])
    det = a * f - b * e
    z = dgttrs(*lu, rhs[:-1])[0]
    z0, z1 = z[:2].tolist()
    gz, lz = g0 * z0 + g1 * z1, float(rhs[-1]) + c * (l0 * z0 + l1 * z1)
    alpha, radius = (f * gz - b * lz) / det, (a * lz - e * gz) / det
    return np.append(z + (c * alpha) * zu + (c * radius) * zr, radius)


class TestWorkArrays:
    """The right-hand side, Jacobian and solve form their sums in work arrays; they must
    give the bits of the unfused expressions and return arrays nothing overwrites."""

    GRID = _build_grid(40.0, 241, 2e-3)[0]

    @classmethod
    def _states(cls, count=4, seed=3):
        # random fields and radii, with w_1 set so that w_x|_1 - 1 = q / eps alternates in sign
        d0, d1, d2 = _surface_flux_weights(cls.GRID)
        rng = np.random.default_rng(seed)
        for k in range(count):
            y = np.append(rng.uniform(0.0, 1.0, cls.GRID.size - 2), rng.uniform(0.05, 1.5))
            y[0] = (1.0 - d0 - d2 * y[1] + (-1.0) ** k * rng.uniform(0.5, 5.0)) / d1
            yield y

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("eps", [0.1, -0.1, 0.0])
    def test_bit_identical_to_the_unfused_expressions(self, eps, ratio):
        rhs, jac = _mapped_system(self.GRID, eps, 1.0 - ratio)
        ref_rhs, ref_jac = _reference_system(self.GRID, eps, 1.0 - ratio)
        rng = np.random.default_rng(5)
        signs = set()
        for y in self._states():
            got = rhs(0.0, y)
            assert got.tobytes() == ref_rhs(0.0, y).tobytes()
            signs.add(np.sign(got[-1]))
            parts, want = jac(0.0, y), ref_jac(0.0, y)
            for part, ref in zip(parts, want):
                assert np.asarray(part).tobytes() == np.asarray(ref).tobytes()
            b = rng.standard_normal(y.size)
            for c in (1e-6, 1e-3, 1.0):
                assert _factor(parts, c)(b).tobytes() == _reference_solve(want, c, b).tobytes()
        assert signs == ({-1.0, 1.0} if eps else {0.0})  # both upwind sides, and sigma = 1

    def test_results_are_not_overwritten_by_later_calls(self):
        rhs, jac = _mapped_system(self.GRID, 0.1, 1.0 - 2.0)
        y1, y2 = self._states(count=2)
        first = rhs(0.0, y1)
        kept = first.copy()
        second = rhs(0.0, y2)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()

        parts = jac(0.0, y1)
        kept = [np.array(part) for part in parts]
        rhs(0.0, y2)
        jac(0.0, y2)
        for part, ref in zip(parts, kept):
            assert np.asarray(part).tobytes() == ref.tobytes()
        b1, b2 = np.random.default_rng(9).standard_normal((2, y1.size))
        solve = _factor(parts, 1e-3)
        out1 = solve(b1)
        assert out1.tobytes() == _factor(jac(0.0, y1), 1e-3)(b1).tobytes()
        kept = out1.copy()
        out2 = solve(b2)
        for out in (out1, out2):
            assert not np.shares_memory(out, b1) and not np.shares_memory(out, b2)
        assert not np.shares_memory(out1, out2)
        assert out1.tobytes() == kept.tobytes()


class TestResultOutputs:
    @pytest.mark.parametrize("eps,config", [(0.2, PdeConfig(t_end=0.5)),
                                            (1.0, PdeConfig(min_radius=0.5))])
    def test_final_field_is_the_snapshot_at_the_final_time(self, eps, config):
        t_final = solve_moving_boundary(eps, 2.0, config).curve.times[-1]
        result = solve_moving_boundary(eps, 2.0, config, snapshot_times=[t_final])
        snapshot, final = result.snapshots[0], result.final_field
        assert final.t == snapshot.t == t_final
        assert final.radius == pytest.approx(snapshot.radius, abs=1e-12)
        assert np.max(np.abs(final.concentration - snapshot.concentration)) <= 1e-12

    def test_work_counters_of_the_default_run(self):
        meta = _run(0.1, 1.0).curve.metadata
        assert meta["steps"] == len(_run(0.1, 1.0).curve.times) - 1
        assert meta["steps"] <= 850
        assert meta["nfev"] <= 2400
        assert 0 < meta["njev"] <= meta["nlu"]



class TestSoluteBalance:
    # R^3 (1 - beta + 1/(pi eps))/3 + int_R^inf C r^2 dr is conserved; the drift is the
    # field's excess over the solute the particle released, relative to the latter
    def test_drift_vanishes_with_the_mesh(self):
        meta = solve_moving_boundary(0.1, 1.0, PdeConfig(t_end=3.0, nodes=961)).curve.metadata
        assert abs(meta["solute_drift"]) <= 1e-3

    def test_drift_at_the_default_mesh(self):
        # regression guard at the measured 1.06e-2; the non-conservative form of the
        # mapped equation puts about 1% of the released solute in the wrong place
        meta = solve_moving_boundary(0.1, 1.0, PdeConfig(t_end=3.0)).curve.metadata
        assert 0.0 < meta["solute_drift"] <= 1.1e-2

    def test_no_drift_without_release(self):
        assert solve_moving_boundary(0.0, 1.0, PdeConfig(t_end=0.5)).curve.metadata[
            "solute_drift"] is None


class TestBdfStepper:
    @pytest.mark.parametrize("eps,ratio,t_end,times", [
        (0.1, 1.0, None, (1e-3, 0.1, 1.0, 4.0)),
        (0.2, 2.0, 0.5, (1e-3, 0.1, 0.25, 0.5)),
        (-0.1, 2.0, 10.0, (1e-3, 0.1, 1.0, 10.0)),
    ])
    def test_matches_scipy_bdf(self, monkeypatch, eps, ratio, t_end, times):
        # scipy's BDF on the same right-hand side, with the Jacobian made dense, is the reference
        from scipy.integrate import solve_ivp

        calls = []
        integrate = _bdf.integrate

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return integrate(*args, **kwargs)

        monkeypatch.setattr(_bdf, "integrate", recording)
        config = PdeConfig() if t_end is None else PdeConfig(t_end=t_end)
        result = solve_moving_boundary(eps, ratio, config, snapshot_times=times)
        (fun, jac, _, t0, y0, t_bound, rtol, atol), options = calls[0]
        events = None
        if options["floor"] is not None:
            def hit_floor(t, y):
                return y[-1] - options["floor"]

            hit_floor.terminal = True
            hit_floor.direction = -1.0
            events = [hit_floor]
        reference = solve_ivp(fun, (t0, t_bound), y0, method="BDF", rtol=rtol, atol=atol,
                              jac=lambda t, y: _dense(jac(t, y)), events=events,
                              dense_output=True)
        assert result.stopped_on == ("t_end" if t_end else "min_radius")
        assert reference.status == (1 if result.stopped_on == "min_radius" else 0)
        meta = result.curve.metadata
        assert result.curve.times[-1] == pytest.approx(reference.t[-1], rel=1e-6)
        for snapshot in result.snapshots:
            assert snapshot.radius == pytest.approx(reference.sol(snapshot.t)[-1], rel=1e-6)
        assert abs(meta["steps"] - (reference.t.size - 1)) <= 0.02 * meta["steps"]
        # the drift depends only on the spatial scheme, not on the stepper
        drift = _solute_drift(result.final_field.rhat, reference.y[:, -1], eps, 1.0 - ratio)
        assert meta["solute_drift"] == pytest.approx(drift, abs=1e-4)

    def test_step_cap(self, monkeypatch, capsys):
        # the default run takes its steps under a cap of exactly that many; one more raises,
        # and the CLI reports it as a one-line solver error
        steps = _run(0.1, 1.0).curve.metadata["steps"]
        monkeypatch.setattr(_bdf, "MAX_STEPS", steps)
        assert solve_moving_boundary(0.1, 1.0).curve.metadata["steps"] == steps
        monkeypatch.setattr(_bdf, "MAX_STEPS", steps - 1)
        with pytest.raises(IntegrationError, match=f"max_steps={steps - 1} exceeded"):
            solve_moving_boundary(0.1, 1.0)
        monkeypatch.setattr(_bdf, "MAX_STEPS", 50)
        with pytest.raises(IntegrationError, match="max_steps=50 exceeded"):
            solve_moving_boundary(0.1, 1.0)
        capsys.readouterr()
        assert cli.main(["pde", "--epsilon", "0.1", "--rho-ratio", "1.0"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("solver: max_steps=50 exceeded")
        assert err.count("\n") == 1

    def test_step_size_underflow_raises(self):
        # a rate that turns non-finite at t = 0.5 defeats every Newton iteration there
        def factor(jacobian, c):
            return lambda b: b / (1.0 - c * jacobian)

        for bad in (math.nan, math.inf, -math.inf):
            def fun(t, y):
                return -y if t < 0.5 else np.full_like(y, bad)

            with pytest.raises(IntegrationError, match="underflow"):
                _bdf.integrate(fun, lambda t, y: -1.0, factor, 0.0, np.array([1.0]), 1.0,
                               1e-6, 1e-6)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_radius_rate_rejects_the_newton_step(self, bad):
        # a real state whose rate is finite but for dR/dt: the solve must hand Newton a
        # non-finite increment without numpy's invalid-value warning, and Newton must stop
        rhs, jac = _mapped_system(TestWorkArrays.GRID, 0.1, 1.0 - 2.0)
        y = next(TestWorkArrays._states())
        rate = rhs(0.0, y)
        rate[-1] = bad
        c = 1e-3
        solve = _factor(jac(0.0, y), c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.all(np.isfinite(solve(c * rate)))
            converged, iterations, y_new, d = _bdf._newton(
                lambda t, state: rate, 1e-3, y, c, np.zeros(y.size), solve, np.ones(y.size), 1e-3)
        assert not converged and iterations == 1
        assert y_new.tobytes() == y.tobytes() and not d.any()

    def test_overflowing_initial_rate_raises(self):
        # f0 / scale overflows, so the initial-step rule has no positive finite h0
        def factor(jacobian, c):
            return lambda b: b / (1.0 - c * jacobian)

        with pytest.raises(IntegrationError, match="initial step"):
            _bdf.integrate(lambda t, y: np.full(1, 1e308), lambda t, y: 0.0, factor, 0.0,
                           np.array([1.0]), 1.0, 1e-6, 1e-6)


def _scriven_kernel(s, lam, beta):
    return math.exp(-0.25 * math.pi * lam * lam * (s * s + 2.0 * beta / s)) / (s * s)


@functools.lru_cache(maxsize=None)
def _scriven_rate(eps, ratio):
    """lam of R = lam sqrt(t): lam^2 / 2 = -eps f(1) / int_1^inf f."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    beta = 1.0 - ratio

    def excess(lam):
        tail = quad(_scriven_kernel, 1.0, math.inf, args=(lam, beta))[0]
        return 0.5 * lam * lam + eps * _scriven_kernel(1.0, lam, beta) / tail

    return brentq(excess, 1e-3, 10.0, xtol=1e-14, rtol=1e-14)


class TestScrivenGrowth:
    """Growth from zero size, R = lam sqrt(t), solves the full problem exactly (Scriven
    1959, Chem. Eng. Sci. 10, 1).  In x = r/R its field is stationary,
    C(x) = int_x^inf f / int_1^inf f with f(s) = s^-2 exp(-(pi lam^2 / 4)(s^2 + 2 beta/s)).
    The solver's core starts on it at R = 1, t_1 = 1/lam^2, and runs to 30 t_1 (R = 5.5);
    a root lam exists only for |eps| pi rho_p/rho_m < 1."""

    CASES = {(-0.01, 0.5): 0.158916, (-0.01, 1.0): 0.159645, (-0.01, 2.0): 0.161144,
             (-0.1, 0.5): 0.680936, (-0.1, 1.0): 0.735238, (-0.1, 2.0): 0.924438,
             (-0.25, 1.0): 2.467197}

    @staticmethod
    def _errors(eps, ratio, grid):
        """Max |R / (lam sqrt t) - 1| of the run on ``grid``, and max |C - C_exact| at its end."""
        from scipy.integrate import quad

        lam, x = _scriven_rate(eps, ratio), grid[0]
        beta = 1.0 - ratio
        cells = [quad(_scriven_kernel, a, b, args=(lam, beta))[0] for a, b in zip(x[:-1], x[1:])]
        tails = np.cumsum([quad(_scriven_kernel, x[-1], math.inf, args=(lam, beta))[0]]
                          + cells[::-1])[::-1]
        exact = tails / tails[0]
        t1 = 1.0 / lam**2
        result = _advance(grid, eps, ratio, t1, np.append((x * exact)[1:-1], 1.0), 30.0 * t1,
                          RTOL, ATOL, None, ())
        curve = result.curve
        assert curve.metadata["t_init"] == t1 and curve.times[-1] == 30.0 * t1
        radius_error = np.max(np.abs(curve.radii / (lam * np.sqrt(curve.times)) - 1.0))
        return radius_error, np.max(np.abs(result.final_field.concentration - exact))

    @pytest.mark.parametrize("eps,ratio", list(CASES))
    def test_radius_and_field_on_the_solver_grid(self, eps, ratio):
        lam = _scriven_rate(eps, ratio)
        assert lam == pytest.approx(self.CASES[eps, ratio], abs=5e-7)
        t_stop = 30.0 / lam**2
        for nodes, bound in ((241, 8e-4), (961, 3e-5)):
            grid = _grid(eps, t_stop, PdeConfig(nodes=nodes))
            radius_error, field_error = self._errors(eps, ratio, grid)
            assert radius_error <= bound, (nodes, radius_error)
            assert field_error <= bound, (nodes, field_error)

    def test_second_order_with_the_first_cell(self):
        # convection at full strength: ratio 2, first cells 0.02, 0.01, 0.005
        eps, ratio = -0.1, 2.0
        rhat_max = _grid(eps, 30.0 / _scriven_rate(eps, ratio) ** 2, PdeConfig())[1]
        errors = []
        for nodes, h0 in ((241, 0.02), (481, 0.01), (961, 0.005)):
            x, stretch = _build_grid(rhat_max, nodes, h0)
            errors.append(self._errors(eps, ratio, (x, rhat_max, stretch))[0])
        orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert min(orders) >= 1.8, (errors, orders)
