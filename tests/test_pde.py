import functools
import math

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
from spherediss.pde import _mapped_system, _surface_flux_weights


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nodes": 50},
            {"rhat_max": 5.0},
            {"stretch_ratio": 0.9},
            {"rel_tol": 0.0},
            {"abs_tol": 1.0},
            {"t_init": 0.0},
            {"min_radius": 0.0},
            {"min_radius": 1.0},
            {"t_end": 1e-7},
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
    def test_coarse_mesh_rejected_at_startup(self):
        # a near-uniform grid cannot resolve the startup boundary layer
        with pytest.raises(DomainError, match="mesh too coarse"):
            solve_moving_boundary(
                0.1, 1.0, PdeConfig(t_end=1.0, stretch_ratio=1.0000001, nodes=100)
            )

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
            block = jac(field.t, _state(field)).toarray()[:-1, :-1]
            floor = -1e-12 * np.max(np.abs(np.diag(block)))
            assert np.min(np.diag(block, -1)[2:]) >= floor
            assert np.min(np.diag(block, 1)[1:]) >= floor

    def test_jacobian_matches_finite_differences(self):
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
        for eps, ratio, x, y in cases:
            rhs, jac = _mapped_system(x, eps, 1.0 - ratio)
            analytic = jac(0.0, y).toarray()
            for j in range(y.size):
                step = 1e-7 * max(abs(y[j]), 1.0)
                up, down = y.copy(), y.copy()
                up[j] += step
                down[j] -= step
                numeric = (rhs(0.0, up) - rhs(0.0, down)) / (2.0 * step)
                scale = np.max(np.abs(analytic[:, j]))
                assert np.max(np.abs(numeric - analytic[:, j])) <= 1e-6 * scale, (eps, ratio, j)


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
