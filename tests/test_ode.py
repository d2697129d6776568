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
        (eps, 1e-8) for eps in (3e-309, 1e-300, 1e-12, 1e-8, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0,
                                1.9, 2.0, 2.1, 5.0, 100.0, 1e3, 1e4, 1e6, 1e10, 1e14, 1e50,
                                1e140, 6e143)
    ])
    def test_dissolution_time_relative_error(self, eps, rel):
        # relative only: t0 falls to 2.5e-9 at eps = 1e4, below any useful absolute tolerance
        run = integrate_radius(eps)
        assert run.dissolution_time == pytest.approx(time_to_dissolution(eps), rel=rel, abs=0)

    def test_curve_starts_at_unity_and_decreases(self):
        run = integrate_radius(0.3)
        assert run.curve.radii[0] == 1.0
        assert np.all(np.diff(run.curve.radii) < 0)

    def test_early_stop_with_t_end(self):
        # a t_end before t0 stops nothing: the run still ends at R = 0
        run = integrate_radius(0.1, t_end=1.0)
        assert run.dissolution_time == run.t_end == pytest.approx(2.6971, abs=1e-4)
        assert run.radius_at(2.0) == integrate_radius(0.1).radius_at(2.0)

    def test_radius_negligible_at_extinction(self):
        run = integrate_radius(0.1)
        # the run's own t0 is where it reaches R = 0
        assert run.radius_at(run.dissolution_time) <= 2e-8

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0, 1.5, 3.0, 100.0])
    def test_span_end_is_the_floor_radius(self, eps):
        # the run ends at R = 0 itself: its last radius, and the answer at t_end
        run = integrate_radius(eps)
        assert run.t_end == run.dissolution_time == run.curve.times[-1]
        assert run.radius_at(run.t_end) == run.curve.radii[-1] == 0.0
        assert run.radius_at(np.array([run.t_end]))[0] == run.curve.radii[-1]


class TestOneEndPerRun:
    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.5, 5.0])
    def test_dissolution_run_does_not_depend_on_t_end(self, eps):
        free = integrate_radius(eps)
        t0 = free.dissolution_time
        times = np.linspace(0.0, 2.0 * t0, 257)
        for t_end in (0.5 * t0, t0, 2.0 * t0):
            run = integrate_radius(eps, t_end=t_end)
            assert np.array_equal(run.curve.times, free.curve.times)
            assert np.array_equal(run.curve.radii, free.curve.radii)
            assert run.curve.metadata == free.curve.metadata
            assert run.t_end == free.t_end == t0
            assert np.array_equal(run.radius_at(times), free.radius_at(times))

    @pytest.mark.parametrize("eps, t_end", [(-0.2, 40.0), (0.0, 5.0), (-1e3, 1e-250)])
    def test_growth_ends_at_its_last_time(self, eps, t_end):
        # t_end is the curve's last time; a time past it is refused, however close
        run = integrate_radius(eps, t_end=t_end)
        assert run.t_end == run.curve.times[-1] == pytest.approx(t_end, rel=1e-15)
        assert run.radius_at(run.t_end) == run.curve.radii[-1]
        past = run.t_end * (1.0 + 1e-13)
        with pytest.raises(DomainError, match="outside the integrated span"):
            run.radius_at(past)
        with pytest.raises(DomainError, match="outside the integrated span"):
            run.radius_at(np.array([run.t_end, past]))


class TestAcceptedRange:
    def test_t0_and_radii_match_the_closed_forms(self):
        # seeded log-uniform eps over every value the oracle accepts, to 2.8e-309 where
        # 1/(2 eps) overflows and up to the 6.70e143 of _MAX_SCALED_RATE
        rng = np.random.default_rng(20)
        low, high = math.log10(2.8e-309), math.log10(6.7e143)
        for eps in 10.0 ** rng.uniform(low, high, 150):
            run = integrate_radius(float(eps))
            t0 = time_to_dissolution(float(eps))
            assert run.dissolution_time == pytest.approx(t0, rel=1e-8, abs=0), eps
            for fraction in (0.1, 0.5, 0.9, 0.995, 0.9999):
                gap = abs(run.radius_at(fraction * t0) - radius_at(float(eps), fraction * t0))
                assert gap <= 1e-8, (eps, fraction)


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
        run = integrate_radius(-0.1, t_end=1.0)
        with pytest.raises(DomainError):
            run.radius_at(2.0)
        with pytest.raises(DomainError):
            run.radius_at(-1.0)

    @pytest.mark.parametrize("eps", [0.007937005259840998, 0.1639, 0.5])
    def test_dissolved_run_is_zero_at_and_after_its_own_t0(self, eps):
        # at and after the run's own t0, which lies within 1e-8 of the exact one
        run = integrate_radius(eps)
        t0 = run.dissolution_time
        assert t0 == pytest.approx(time_to_dissolution(eps), rel=1e-8, abs=0)
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
        # a dissolution run scales ATOL to sigma's final size, of order sqrt(2 eps)
        assert run.curve.metadata["abs_tol"] == 1e-9 * math.sqrt(0.4)
        assert integrate_radius(-0.2, t_end=1.0).curve.metadata["abs_tol"] == 1e-9
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
            [run.t_end * (1.0 + 1e-13)] if run.dissolution_time is not None else [],
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
        run = integrate_radius(-0.1, t_end=1.0)
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
    """The same oracle run with scipy's DOP853 and OdeSolution: y = R^2 in tau for
    eps <= 0, sigma = 2 eps sqrt(t) in s = 1 - R for eps > 0, its first step at most 2 eps."""
    from scipy.integrate import DOP853, OdeSolution

    if eps > 0:
        def rate(s, y):
            flux = 2.0 * eps * (1.0 - s)
            return [flux / (y[0] + flux)]

        atol = ode.ATOL * min(1.0, math.sqrt(2.0 * eps))
        first = DOP853(rate, 0.0, np.array([0.0]), t_bound=1.0, rtol=ode.RTOL, atol=atol).h_abs
        solver = DOP853(rate, 0.0, np.array([0.0]), t_bound=1.0, rtol=ode.RTOL, atol=atol,
                        first_step=min(first, 2.0 * eps))
    else:
        solver = DOP853(
            lambda tau, y: [-4.0 * eps * (tau + math.sqrt(max(y[0], 0.0)))],
            0.0, np.array([1.0]), t_bound=math.sqrt(t_end), rtol=ode.RTOL, atol=ode.ATOL,
        )
    ends, segments = [0.0], []
    while solver.status == "running":
        solver.step()
        segments.append(solver.dense_output())
        ends.append(solver.t)
    return len(segments), OdeSolution(np.asarray(ends), segments)


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
        steps, solution = scipy_reference(eps, t_end)
        run = integrate_radius(eps, t_end=t_end)
        assert run.curve.metadata["steps"] == steps
        if eps > 0:
            # R at the times where scipy's sigma is 2 eps sqrt(t), short of R = 0
            lost = np.linspace(0.0, 0.998, 500)
            times = (solution(lost)[0] / (2.0 * eps)) ** 2
            assert np.all(np.abs(run.radius_at(times) - (1.0 - lost)) <= 1e-9)
            t0 = (solution(1.0)[0] / (2.0 * eps)) ** 2
            assert run.dissolution_time == pytest.approx(t0, rel=1e-12)
            assert run.dissolution_time == pytest.approx(time_to_dissolution(eps), rel=1e-8)
        else:
            taus = np.linspace(0.0, math.sqrt(t_end), 501)
            expected = np.maximum(solution(taus)[0], 0.0)
            got = run.radius_at(taus**2) ** 2
            assert np.all(np.abs(got - expected) <= 1e-9 * np.maximum(1.0, expected))
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
