import math
import sys

import numpy as np
import pytest

from spherediss import (
    DomainError,
    IntegrationError,
    integrate_radius,
    radius_at,
    time_to_dissolution,
)
from spherediss import ode


class TestDissolution:
    def test_dissolution_time_published(self):
        run = integrate_radius(0.1)
        assert run.dissolution_time == pytest.approx(2.6971, abs=1e-4)

    def test_dissolution_time_matches_closed_form(self):
        for eps in (0.01, 0.5, 1.9, 2.0, 2.1, 5.0):
            run = integrate_radius(eps)
            assert run.dissolution_time == pytest.approx(
                time_to_dissolution(eps), rel=1e-6
            )

    @pytest.mark.parametrize("eps, rel", [
        *[(eps, 1e-8) for eps in (1e-8, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 1.9, 2.0, 2.1, 5.0, 100.0)],
        # README's bound: ATOL on y = R^2 lets R err near the floor R = 1e-8 (up to 1.3e-5),
        # and from eps ~ 1e14 the crossing step is narrower than CROSSING_XTOL (1.3e-4)
        *[(eps, 1.3e-4) for eps in (1e3, 1e4, 1e6, 1e10, 1e14, 1e50, 1e140, 6e143)],
    ])
    def test_dissolution_time_relative_error(self, eps, rel):
        # relative only: t0 falls to 2.5e-9 at eps = 1e4, below any useful absolute tolerance
        run = integrate_radius(eps)
        assert run.dissolution_time == pytest.approx(time_to_dissolution(eps), rel=rel, abs=0)

    @pytest.mark.parametrize("eps", [1e4, 1e10, 1e14, 1e16, 1e50, 1e140])
    def test_extrapolation_adds_no_error_at_large_eps(self, eps):
        # near the floor tau is no longer large against R: the flux's 1/sqrt(t) term
        # carries the last stretch, and 1/R alone overshoots t0 by up to 2x and beyond
        run = integrate_radius(eps)
        exact = time_to_dissolution(eps)
        stop_error = abs(run.t_end / exact - 1.0)
        assert abs(run.dissolution_time / exact - 1.0) <= stop_error + 1e-8

    def test_curve_starts_at_unity_and_decreases(self):
        run = integrate_radius(0.3)
        assert run.curve.radii[0] == 1.0
        assert np.all(np.diff(run.curve.radii) < 0)

    def test_early_stop_with_t_end(self):
        run = integrate_radius(0.1, t_end=1.0)
        assert run.dissolution_time is None
        assert run.t_end == pytest.approx(1.0, rel=1e-12)

    def test_radius_negligible_at_extinction(self):
        run = integrate_radius(0.1)
        # queries at or past the stopping radius resolve to the floor scale
        assert run.radius_at(run.dissolution_time) <= 2e-8

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0, 1.5, 3.0, 100.0])
    def test_span_end_is_the_floor_radius(self, eps):
        # the interpolant's rounding at y = R^2 ~ 1e-16 does not leak into R(t_end)
        run = integrate_radius(eps)
        assert run.radius_at(run.t_end) == run.curve.radii[-1] == ode.MIN_RADIUS
        assert run.radius_at(np.array([run.t_end]))[0] == run.curve.radii[-1]


class TestStaticAndGrowth:
    def test_static_stays_at_unity(self):
        run = integrate_radius(0.0, t_end=5.0)
        for t in np.linspace(0.0, 5.0, 11):
            assert run.radius_at(t) == pytest.approx(1.0, abs=1e-12)

    def test_growth_matches_closed_form(self):
        run = integrate_radius(-0.1, t_end=50.0)
        assert run.radius_at(50.0) == pytest.approx(radius_at(-0.1, 50.0), abs=1e-6)

    def test_growth_requires_t_end(self):
        with pytest.raises(DomainError):
            integrate_radius(-0.1)
        with pytest.raises(DomainError):
            integrate_radius(0.0)


class TestSlopeAtOrigin:
    @pytest.mark.parametrize("eps", [0.1, -0.25, 1.5])
    def test_initial_slope_in_sqrt_time(self, eps):
        # dR/dtau at tau=0 is -2 eps: the flux singularity is removed
        run = integrate_radius(eps, t_end=1.0)
        tau = 1e-6
        slope = (run.radius_at(tau * tau) - 1.0) / tau
        assert slope == pytest.approx(-2.0 * eps, rel=1e-3)


class TestSelfConvergence:
    @pytest.mark.parametrize("eps", [0.1, -0.1])
    def test_halving_tolerances(self, monkeypatch, eps):
        t_end = 2.0 if eps > 0 else 50.0
        runs = []
        for tol in (1e-6, 5e-7):
            monkeypatch.setattr(ode, "RTOL", tol)
            monkeypatch.setattr(ode, "ATOL", tol)
            runs.append(integrate_radius(eps, t_end=t_end))
        run_a, run_b = runs
        grid = np.linspace(0.0, t_end * 0.999, 101)
        worst = max(abs(run_a.radius_at(t) - run_b.radius_at(t)) for t in grid)
        assert worst < 1e-6


class TestErrorPaths:
    def test_max_steps_exceeded(self, monkeypatch):
        monkeypatch.setattr(ode, "MAX_STEPS", 3)  # force the runtime guard
        with pytest.raises(IntegrationError):
            integrate_radius(0.1)

    def test_step_size_underflow_raises(self, monkeypatch):
        # a rate that never passes the error test shrinks the step until it underflows
        from spherediss import _dop853

        assert _dop853.step(lambda t, y: math.nan, 1.0, 1.0, 0.0, 1e-3, 2.0, 1e-10, 1e-10) is None
        monkeypatch.setattr(_dop853, "step", lambda *args: None)
        with pytest.raises(IntegrationError, match="underflow"):
            integrate_radius(0.1)

    @pytest.mark.parametrize("eps,t_end", [(1e149, None), (1e150, None), (1e200, None),
                                           (1e300, None), (-1e150, 1.0)])
    def test_huge_epsilon_is_a_domain_error(self, eps, t_end):
        # the error test would square scaled rates 4 |eps| / (atol + rtol) past the float range
        with pytest.raises(DomainError, match="^epsilon: .* too large for the oracle"):
            integrate_radius(eps, t_end=t_end)

    def test_largest_epsilon_follows_the_tolerances(self, monkeypatch):
        bound = math.sqrt(sys.float_info.max) * 2e-10 / 4.0  # default tolerances: 6.7e143
        assert integrate_radius(0.99 * bound).dissolution_time is not None
        with pytest.raises(DomainError, match="exceeds 6.70e[+]143$"):
            integrate_radius(1.01 * bound)
        monkeypatch.setattr(ode, "RTOL", 1e-3)
        monkeypatch.setattr(ode, "ATOL", 1e-3)
        assert integrate_radius(1e149).dissolution_time is not None

    def test_query_outside_span(self):
        run = integrate_radius(0.1, t_end=1.0)
        with pytest.raises(DomainError):
            run.radius_at(2.0)
        with pytest.raises(DomainError):
            run.radius_at(-1.0)

    @pytest.mark.parametrize("eps", [0.007937005259840998, 0.1639, 0.5])
    def test_dissolved_run_is_zero_at_and_after_the_exact_t0(self, eps):
        # the extrapolated t0 falls a few 1e-9 short of the exact one here
        run = integrate_radius(eps)
        t0 = time_to_dissolution(eps)
        assert run.dissolution_time < t0
        for t in (t0, 10.0 * t0):
            radius = run.radius_at(t)
            assert type(radius) is float and radius == 0.0
        assert run.radius_at(np.array([t0, 10.0 * t0])).tolist() == [0.0, 0.0]

    def test_rejects_bad_t_end(self):
        with pytest.raises(DomainError):
            integrate_radius(0.1, t_end=-1.0)
        with pytest.raises(DomainError):
            integrate_radius(math.inf)


class TestCurveMetadata:
    def test_metadata_records_tolerances(self, monkeypatch):
        monkeypatch.setattr(ode, "RTOL", 1e-8)
        monkeypatch.setattr(ode, "ATOL", 1e-9)
        run = integrate_radius(0.2)
        assert run.curve.metadata["rel_tol"] == 1e-8
        assert run.curve.metadata["abs_tol"] == 1e-9
        assert run.curve.metadata["dissolution_time"] == run.dissolution_time
        assert run.curve.epsilon == 0.2


class TestWorkCounters:
    @pytest.mark.parametrize("eps, t_end", [(0.1, None), (1e4, None), (-10.0, 50.0), (0.0, 5.0)])
    def test_nfev_counts_every_stage(self, eps, t_end):
        # two calls choose the first step, twelve per trial step, three more per
        # accepted step for the dense output
        meta = integrate_radius(eps, t_end=t_end).curve.metadata
        steps, rejected = meta["steps"], meta["rejected"]
        assert meta["nfev"] == 2 + 12 * (steps + rejected) + 3 * steps


class TestArrayQueries:
    @pytest.mark.parametrize("eps, t_end", [(0.1, None), (1.5, None), (-0.2, 40.0)])
    def test_array_equals_scalar_bit_for_bit(self, eps, t_end):
        run = integrate_radius(eps, t_end=t_end)
        times = np.concatenate([
            np.linspace(0.0, run.t_end, 257),
            run.curve.times,
            [run.t_end * (1.0 + 1e-13)],
            [run.dissolution_time] if run.dissolution_time is not None else [],
        ])
        radii = run.radius_at(times)
        assert isinstance(radii, np.ndarray)
        assert radii.shape == times.shape
        scalar = [run.radius_at(float(t)) for t in times]
        assert all(type(r) is float for r in scalar)
        assert np.array_equal(radii, scalar)

    def test_shape_and_sequence_inputs(self):
        run = integrate_radius(0.1)
        grid = np.linspace(0.0, 2.0, 6).reshape(2, 3)
        assert run.radius_at(grid).shape == (2, 3)
        assert np.array_equal(run.radius_at([0.5, 1.0]), run.radius_at(np.array([0.5, 1.0])))
        assert run.radius_at(np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, 2.0])
    def test_same_domain_errors_as_scalar(self, bad):
        run = integrate_radius(0.1, t_end=1.0)
        with pytest.raises(DomainError) as scalar:
            run.radius_at(bad)
        with pytest.raises(DomainError) as array:
            run.radius_at(np.array([0.5, bad, 0.25]))
        assert str(array.value) == str(scalar.value)

    def test_past_extinction_is_zero_in_arrays(self):
        run = integrate_radius(0.1)
        radii = run.radius_at(np.array([0.0, run.dissolution_time]))
        assert radii[0] == 1.0 and radii[1] == 0.0


REFERENCE_EPSILONS = [1e-4, 1e-3, 0.1, 1.0, 2.0, 5.0, 100.0, 1e4, -1e-3, -0.1, -1.0, -10.0]


def scipy_reference(eps, t_end):
    """The same oracle run with scipy's DOP853, OdeSolution and brentq."""
    from scipy.integrate import DOP853, OdeSolution
    from scipy.optimize import brentq

    if eps > 0:
        tau_bound = math.sqrt(0.5 / eps) * (1.0 + 1e-9)
    else:
        tau_bound = math.sqrt(t_end)
    solver = DOP853(
        lambda tau, y: [-4.0 * eps * (tau + math.sqrt(max(y[0], 0.0)))],
        0.0, np.array([1.0]), t_bound=tau_bound, rtol=ode.RTOL, atol=ode.ATOL,
    )
    floor_sq = ode.MIN_RADIUS**2
    taus, segments, dissolution_time = [0.0], [], None
    while solver.status == "running":
        solver.step()
        segment = solver.dense_output()
        segments.append(segment)
        taus.append(solver.t)
        if eps > 0 and solver.y[0] <= floor_sq:
            taus[-1] = brentq(lambda s: float(segment(s)[0]) - floor_sq,
                              segment.t_old, segment.t, xtol=1e-15)
            dissolution_time = taus[-1] ** 2 + floor_sq / (2.0 * eps)
            break
    return len(segments), OdeSolution(np.asarray(taus), segments), taus[-1], dissolution_time


class TestAgainstScipy:
    def test_tableau_is_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as reference

        from spherediss import _dop853

        n = reference.N_STAGES_EXTENDED
        table = np.zeros((n, n))
        for s, row in enumerate(_dop853.A):
            table[s, :s] = row
        assert np.array_equal(np.asarray(_dop853.C), reference.C)
        assert np.array_equal(table, reference.A)
        assert np.array_equal(np.asarray(_dop853.E3), reference.E3)
        assert np.array_equal(np.asarray(_dop853.E5), reference.E5)
        assert np.array_equal(np.asarray(_dop853.D), reference.D)

    @pytest.mark.parametrize("eps", REFERENCE_EPSILONS)
    def test_same_steps_and_solution(self, eps):
        t_end = None if eps > 0 else 50.0
        steps, solution, tau_end, dissolution_time = scipy_reference(eps, t_end)
        run = integrate_radius(eps, t_end=t_end)
        assert run.curve.metadata["steps"] == steps
        taus = np.linspace(0.0, tau_end, 501)
        expected = np.maximum(solution(taus)[0], 0.0)
        got = run.radius_at(taus**2) ** 2
        assert np.all(np.abs(got - expected) <= 1e-9 * np.maximum(1.0, expected))
        if eps > 0:
            assert run.dissolution_time == pytest.approx(dissolution_time, rel=1e-8)
            assert run.dissolution_time == pytest.approx(time_to_dissolution(eps), rel=1e-6)
        else:
            assert run.dissolution_time is None

    def test_oracle_gap_to_closed_form(self):
        # criterion 3's measure over its epsilons: closed form against the oracle
        gap = 0.0
        for eps in (-0.5, -0.1, -0.01, 0.01, 0.1, 0.5, 1.0, 1.9, 2.0, 2.1, 5.0):
            if eps > 0:
                run = integrate_radius(eps)
                grid = np.linspace(0.0, 0.995 * min(run.t_end, time_to_dissolution(eps)), 100)
            else:
                run = integrate_radius(eps, t_end=100.0)
                grid = np.linspace(0.0, 100.0, 100)
            gap = max(gap, float(np.max(np.abs(radius_at(eps, grid) - run.radius_at(grid)))))
        assert gap <= 1e-6
