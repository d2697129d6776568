import math
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spherediss import (
    DomainError,
    PastDissolutionError,
    Regime,
    branch_exponent,
    concentration_profile,
    exact_curve,
    extinction_parameter,
    integrate_radius,
    param_point_critical,
    param_point_dissolution,
    param_point_growth,
    param_point_supercritical,
    radius_at,
    time_to_dissolution,
)
from spherediss import exact
from spherediss.curves import (
    FLOAT_OPS,
    MethodId,
    RadiusCurve,
    check_epsilon,
    check_grid,
    check_not_past,
    dissolution_time,
    query_times,
)
from spherediss.exact import (
    _branch,
    _time,
    array_ops,
)
from spherediss.model import classify_regime

# erfc(sqrt(pi)) to 20 digits, computed independently with mpmath
ERFC_SQRT_PI = 0.012188882184802886892


class TestDissolutionBranch:
    def test_published_point(self):
        point = param_point_dissolution(0.1, 1.0)
        assert point.t == pytest.approx(1.83532, abs=1e-5)
        assert point.radius == pytest.approx(0.45504, abs=1e-5)
        assert point.regime is Regime.DISSOLUTION

    def test_branch_exponent_value(self):
        assert extinction_parameter(0.1) == pytest.approx(0.22942, abs=1e-5)

    def test_extinction_point(self):
        point = param_point_dissolution(0.1, extinction_parameter(0.1))
        assert point.radius == 0.0
        assert point.t == pytest.approx(2.69711, abs=1e-5)

    def test_initial_condition_limit(self):
        point = param_point_dissolution(0.5, 1e6)
        assert point.t < 1e-9
        assert abs(point.radius - 1.0) < 1e-4

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            param_point_dissolution(2.5, 3.0)
        with pytest.raises(DomainError):
            param_point_dissolution(0.1, 0.1)  # below the extinction parameter


class TestGrowthBranch:
    def test_initial_condition_limit(self):
        point = param_point_growth(-0.01, 1e6)
        assert point.t < 1e-9
        assert abs(point.radius - 1.0) < 1e-4

    def test_matches_oracle_at_t100(self):
        run = integrate_radius(-0.01, t_end=100.0)
        assert radius_at(-0.01, 100.0) == pytest.approx(run.radius_at(100.0), abs=1e-6)

    def test_growth_is_monotone(self):
        previous = 1.0
        for p in np.geomspace(1e4, 1.0 + 1e-3, 50):
            point = param_point_growth(-0.5, p)
            assert point.radius > previous or point.t < 1e-6
            previous = max(previous, point.radius)
        assert previous > 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            param_point_growth(0.1, 2.0)
        with pytest.raises(DomainError):
            param_point_growth(-0.1, 1.0)

    def test_inverse_coth_form_is_equivalent(self):
        # the time formula rewritten through atanh(1/p) must agree; plain
        # float atanh(1/p) is only well conditioned away from p = 1
        for eps in (-0.01, -0.5):
            k = branch_exponent(eps)
            for p in np.geomspace(1.0 + 1e-3, 1e8, 1000):
                direct = _time(eps, p)
                via_coth = math.exp(2.0 * k * math.atanh(1.0 / p)) / (
                    (-eps) * (2.0 - eps) * (p * p - 1.0)
                )
                assert direct == pytest.approx(via_coth, rel=1e-12)

    def test_time_formula_against_high_precision(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        eps = -0.1
        k = mp.sqrt(mp.mpf("0.1") / mp.mpf("2.1"))
        for p in np.geomspace(1.0 + 1e-12, 1e10, 100):
            pm = mp.mpf(p)
            reference = ((pm + 1) / (pm - 1)) ** k / (
                mp.mpf("0.1") * mp.mpf("2.1") * (pm * pm - 1)
            )
            assert _time(eps, float(p)) == pytest.approx(float(reference), rel=1e-12)


class TestSupercriticalBranch:
    def test_extinction_matches_oracle(self):
        lower = extinction_parameter(5.0)
        point = param_point_supercritical(5.0, lower)
        assert point.radius == 0.0
        run = integrate_radius(5.0)
        assert point.t == pytest.approx(run.dissolution_time, abs=1e-6)

    def test_initial_condition_limit(self):
        point = param_point_supercritical(5.0, 1e6)
        assert point.t < 1e-12
        assert abs(point.radius - 1.0) < 1e-4

    def test_near_critical_matches_critical_curve(self):
        # compare at matched fractions of each branch's extinction time; the
        # curves hit zero at slightly different absolute times
        t0_near = time_to_dissolution(2.1)
        t0_crit = time_to_dissolution(2.0)
        for frac in np.linspace(0.1, 1.0, 40):
            near = radius_at(2.1, frac * t0_near)
            crit = radius_at(2.0, frac * t0_crit)
            assert abs(near - crit) <= 0.02

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            param_point_supercritical(1.5, 2.0)
        with pytest.raises(DomainError):
            param_point_supercritical(5.0, 1.0)  # below the extinction parameter


class TestCriticalBranch:
    def test_extinction_point(self):
        point = param_point_critical(0.0)
        assert point.t == pytest.approx(math.exp(-2.0) / 4.0, rel=1e-15)
        assert point.radius == 0.0

    def test_parameter_two(self):
        point = param_point_critical(2.0)
        assert point.t == pytest.approx(math.exp(-1.0) / 16.0, rel=1e-14)
        assert point.radius == pytest.approx(2.0 * math.sqrt(point.t), rel=1e-14)

    def test_initial_condition_limit(self):
        point = param_point_critical(1e6)
        assert abs(point.radius - 1.0) < 1e-4

    def test_negative_parameter_rejected(self):
        with pytest.raises(DomainError):
            param_point_critical(-0.1)


class TestParametricPointFloor:
    @pytest.mark.parametrize("point", [
        lambda: param_point_critical(1e160), lambda: param_point_critical(1e300),
        lambda: param_point_dissolution(0.1, 1e200), lambda: param_point_growth(-0.1, 1e300),
        lambda: param_point_supercritical(5.0, 1e300),
        lambda: param_point_growth(-1e-300, 1.000000000000001),
    ])
    def test_time_below_the_earliest_sample_is_refused(self, point):
        # a subnormal t keeps too few bits for R, and below 5e-324 t rounds to 0; a time
        # that overflows is refused under the same argument name
        with pytest.raises(DomainError) as info:
            point()
        assert str(info.value).startswith("param: ")

    def test_time_at_the_normal_floats_still_answers(self):
        point = param_point_critical(1e150)
        assert point.t >= 2.0**-1052
        assert point.radius == pytest.approx(1.0, abs=1e-12)


class TestMonotoneParameterization:
    @pytest.mark.parametrize(
        "time_of,lower",
        [
            (lambda p: _time(0.1, p), extinction_parameter(0.1)),
            (lambda p: _time(1.9, p), extinction_parameter(1.9)),
            (lambda p: _time(-0.5, p), 1.0),
            (lambda p: _time(5.0, p), extinction_parameter(5.0)),
            (lambda p: _time(2.0, p), 0.0),
        ],
    )
    def test_time_strictly_decreasing(self, time_of, lower):
        params = lower + np.geomspace(1e-6, 1e6, 1000)
        times = np.array([time_of(p) for p in params])
        assert np.all(np.diff(times) < 0)


class TestTimeToDissolution:
    @pytest.mark.parametrize(
        "eps,expected,tol",
        [
            (0.1, 2.6971, 5e-5),
            (1.0, 0.1039, 5e-5),
            (0.0001, 4890.6, 0.05),
            (0.5, 0.2984, 5e-5),
            (0.01, 40.421, 5e-4),
        ],
    )
    def test_published_values(self, eps, expected, tol):
        assert time_to_dissolution(eps) == pytest.approx(expected, abs=tol)

    def test_rejects_non_dissolving(self):
        for eps in (0.0, -0.1):
            with pytest.raises(DomainError):
                time_to_dissolution(eps)

    def test_continuous_across_critical_value(self):
        critical = math.exp(-2.0) / 4.0
        assert abs(time_to_dissolution(2.0 - 1e-6) - critical) <= 1e-5
        assert abs(time_to_dissolution(2.0 + 1e-6) - critical) <= 1e-5
        assert time_to_dissolution(2.0) == critical


class TestRadiusAt:
    def test_published_inversion(self):
        assert radius_at(0.1, 1.83532) == pytest.approx(0.45504, abs=1e-5)

    @pytest.mark.parametrize("eps", [0.0, 0.3, 2.0, 5.0, -0.2])
    def test_initial_condition(self, eps):
        assert radius_at(eps, 0.0) == 1.0

    def test_matches_oracle_mid_dissolution(self):
        run = integrate_radius(0.05)
        assert radius_at(0.05, 3.0) == pytest.approx(run.radius_at(3.0), abs=1e-6)

    def test_past_dissolution_is_distinct(self):
        t0 = time_to_dissolution(0.1)
        with pytest.raises(PastDissolutionError):
            radius_at(0.1, t0 * 1.01)
        assert radius_at(0.1, t0) == 0.0

    def test_rejects_bad_times(self):
        with pytest.raises(DomainError):
            radius_at(0.1, -1.0)
        with pytest.raises(DomainError):
            radius_at(0.1, math.nan)

    @pytest.mark.parametrize("eps", [0.1, 0.01, -0.2])
    @pytest.mark.parametrize("kind", ["int", "float64", "0-d array"])
    def test_scalar_time_types_match_the_float_call(self, eps, kind):
        # an int skips numpy; the others ask np.ndim and take the float path
        t = {"int": 1, "float64": np.float64(0.7), "0-d array": np.array(0.7)}[kind]
        radius = radius_at(eps, t)
        assert radius.hex() == radius_at(eps, float(t)).hex()
        if kind != "0-d array":
            assert type(radius) is float

    @pytest.mark.parametrize("eps,t", [(0.1, 1.0), (-0.2, 1.0), (2.0, 0.01), (3.0, 0.01)])
    def test_numpy_scalar_epsilon_matches_the_float_call(self, eps, t):
        radius = radius_at(np.float64(eps), t)
        assert type(radius) is float and radius.hex() == radius_at(eps, t).hex()

    def test_numpy_scalar_epsilon_of_subnormal_size_does_not_warn(self):
        # 1e300 / scale overflows in numpy's scalar type, and warns, where a float does not
        t_max = 1.7976931348623157e308
        curve = exact_curve(np.float64(-5e-324), 16, t_max)
        reference = exact_curve(-5e-324, 16, t_max)
        assert curve.times.tobytes() == reference.times.tobytes()
        assert curve.radii.tobytes() == reference.radii.tobytes()

    def test_inversion_residual(self):
        # the returned radius must identify a parameter whose time matches
        for eps, reconstruct in [
            (0.3, lambda u: (u + 0.3) / math.sqrt(0.3 * 1.7)),
            (-0.2, lambda u: (u - 0.2) / math.sqrt(0.2 * 2.2)),
            (3.0, lambda u: (u + 3.0) / math.sqrt(3.0 * 1.0)),
        ]:
            t_ref = 0.7 * time_to_dissolution(eps) if eps > 0 else 5.0
            radius = radius_at(eps, t_ref)
            p = reconstruct(radius / math.sqrt(t_ref))
            t_back = _time(eps, p)
            assert abs(t_back - t_ref) <= 1e-9 * max(1.0, t_ref)


class TestExactCurve:
    def test_dissolution_endpoint(self):
        curve = exact_curve(0.01, 200)
        assert curve.times[-1] == pytest.approx(40.421, abs=1e-3)
        assert curve.radii[-1] <= 1e-9
        assert curve.radii[0] == pytest.approx(1.0, abs=1e-4)
        assert np.all(np.diff(curve.times) > 0)

    def test_static_curve(self):
        curve = exact_curve(0.0, 10, t_max=5.0)
        assert np.all(curve.radii == 1.0)
        assert len(curve) == 10

    @pytest.mark.parametrize("eps", [0.0, -1e-320])
    def test_curve_of_ones_is_labelled_uniform(self, eps):
        # no growth, or growth that rounds away: times are linspace(0, t_max, n)
        curve = exact_curve(eps, 4, 1.0)
        assert curve.metadata["parameter_grid"] == "uniform"
        assert curve.times.tolist() == np.linspace(0.0, 1.0, 4).tolist()
        assert exact_curve(-0.1, 4, 1.0).metadata["parameter_grid"] == "geometric"

    def test_growth_curve_matches_oracle(self):
        curve = exact_curve(-0.01, 100, t_max=400.0)
        assert np.all(np.diff(curve.radii) > 0)
        run = integrate_radius(-0.01, t_end=float(curve.times[-1]) * 1.001)
        for t, radius in zip(curve.times, curve.radii):
            assert radius == pytest.approx(run.radius_at(t), abs=1e-6)

    def test_samples_satisfy_implicit_relation(self):
        curve = exact_curve(0.3, 64)
        for t, radius in list(curve.samples)[:-1]:
            u = radius / math.sqrt(t)
            p = (u + 0.3) / math.sqrt(0.3 * 1.7)
            assert abs(_time(0.3, p) - t) <= 1e-12 * max(1.0, t)

    def test_t_max_caps_dissolution_curve(self):
        curve = exact_curve(0.1, 50, t_max=1.0)
        assert curve.times[-1] == pytest.approx(1.0, rel=1e-9)
        assert curve.radii[-1] > 0.5

    def test_validation(self):
        with pytest.raises(DomainError):
            exact_curve(0.1, 1)
        with pytest.raises(DomainError):
            exact_curve(-0.1, 10)  # t_max required
        with pytest.raises(DomainError):
            exact_curve(0.0, 10)

    @pytest.mark.parametrize("eps,t_max", [(-1e6, 1e300), (-1e154, 1e300), (-1e4, 1e308),
                                           (-0.5, 1.7976931348623157e308), (-1e153, 1e307),
                                           (-1e154, 8e307)])
    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_growth_where_scale_times_t_overflows(self, eps, t_max, n):
        # scale * t overflows although t does not; radius_at answers there, and so must the curve
        curve = exact_curve(eps, n, t_max)
        assert curve.times[-1] == pytest.approx(t_max, rel=1e-12)
        np.testing.assert_allclose(curve.radii, radius_at(eps, curve.times), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("eps", [-1e-100, -1e-200, -5e-324])
    def test_growth_to_the_largest_float(self, eps):
        # t = exp(log(scale t)) / scale can round past the largest float: the last time is t_max
        curve = exact_curve(eps, 16, 1.7976931348623157e308)
        assert curve.times[-1] == 1.7976931348623157e308
        np.testing.assert_allclose(curve.radii, radius_at(eps, curve.times), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("eps,t_max", [(-1e154, 1.7976931348623157e308), (-1e154, 8.1e307),
                                           (-7e153, 1.7976931348623157e308)])
    def test_growth_past_the_largest_float_is_refused(self, eps, t_max):
        # R = (a g + b) sqrt(t) leaves the floats before t does: no radius, no curve to t_max
        with pytest.raises(DomainError, match=r"^t: the radius at t=.* exceeds the largest float$"):
            radius_at(eps, t_max)
        with pytest.raises(DomainError, match=r"^t_max: the radius at t="):
            exact_curve(eps, 16, t_max)

    @pytest.mark.parametrize("eps,t_max", [
        *((eps, t_max) for eps in (0.1, 3.0, 2.0, -1e150, -1e153, 1e154)
          for t_max in (1e-320, 5e-324, 1e-310, 1e-308)),
        (1e154, None),  # t0 = 2.5e-309
    ])
    def test_time_grid_below_the_normal_floats_is_refused(self, eps, t_max):
        # the grid starts ten decades below its end; subnormal times there lose their digits
        with pytest.raises(DomainError) as info:
            exact_curve(eps, 16, t_max)
        t0 = time_to_dissolution(eps) if eps > 0 else math.inf
        # the parameter that set the end: t0 ends the curve at epsilon = 1e154
        assert str(info.value).startswith("t_max: " if t_max and t_max <= t0 else "epsilon: ")
        assert str(info.value).endswith("too early to sample from ten decades before "
                                        "(below 2.07e-317)")

    @pytest.mark.parametrize("eps,t_max", [(1e153, None), (0.1, 1e-305), (-1e150, 1e-306)])
    def test_time_grid_reaching_the_subnormals_still_samples(self, eps, t_max):
        # down to 2**-1052 the grid keeps 22 significant bits, inside the monotone slack
        curve = exact_curve(eps, 256, t_max)
        assert curve.times[0] >= 2.0**-1052
        np.testing.assert_allclose(curve.radii, radius_at(eps, curve.times), rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("eps,t_max", [(1e-300, 1e-11), (1e-308, 1.0), (1e-296, 1e-20),
                                           (1e-20, 1e-4), (2.6e-8, 1e-20), (1e-17, 1e-2)])
    @pytest.mark.parametrize("n", [2, 16, 256])
    def test_dissolution_that_rounds_away_samples_the_ones(self, eps, t_max, n):
        # where R rounds to 1 the branch's times and radii lose their digits; the curve
        # holds radius_at's value 1 there, with times ten decades below t_max
        curve = exact_curve(eps, n, t_max)
        assert curve.times[0] == pytest.approx(1e-10 * t_max, rel=1e-9)
        assert curve.times[-1] == pytest.approx(t_max, rel=1e-9)
        assert curve.radii.tolist() == [1.0] * n == radius_at(eps, curve.times).tolist()

    @pytest.mark.parametrize("eps", [10.0 ** k for k in range(-296, -7, 24)] + [3e-9])
    def test_radius_rounding_to_one_is_one_at_every_sample(self, eps):
        # where radius_at's rounding rule gives 1, so does every sample, on either side of it
        for t_max in (10.0 ** k for k in range(-300, 5, 16)):
            curve = exact_curve(eps, 64, t_max)
            rounds = curve.times + 2.0 * np.sqrt(curve.times) <= 1e-17 / eps
            assert np.all(curve.radii[rounds] == 1.0), t_max
            assert np.all(radius_at(eps, curve.times[rounds]) == 1.0), t_max

    @pytest.mark.parametrize("eps", [1e6, -1e6, 1e3, -1e3, 5.0, -5.0, 0.5])
    @pytest.mark.parametrize("t_max", [1e-20, 1e-15])
    def test_radii_equal_radius_at_at_tiny_times(self, eps, t_max):
        # one rule for R = 1: the curve and the point query agree at the curve's own times
        curve = exact_curve(eps, 256, t_max)
        np.testing.assert_allclose(curve.radii, radius_at(eps, curve.times), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("eps", [2.0, 5.0])
    def test_critical_and_supercritical_curves(self, eps):
        curve = exact_curve(eps, 128)
        assert curve.radii[-1] == 0.0
        assert abs(curve.radii[0] - 1.0) < 1e-4
        assert np.all(np.diff(curve.times) > 0)
        assert curve.times[-1] == pytest.approx(time_to_dissolution(eps), rel=1e-12)

    @pytest.mark.parametrize("eps,t_max", [(0.3, None), (-0.2, 50.0)])
    def test_samples_satisfy_radius_equation(self, eps, t_max):
        # centered differences on a refined local grid must recover
        # dR/dt = -eps (1/R + 1/sqrt(t)) at every interior sample
        curve = exact_curve(eps, 64, t_max)
        for t, radius in list(curve.samples)[::8]:
            if not 0.05 < radius < 0.95 and eps > 0:
                continue
            if t <= 0:
                continue
            h = 1e-5 * t
            slope = (radius_at(eps, t + h) - radius_at(eps, t - h)) / (2.0 * h)
            expected = -eps * (1.0 / radius + 1.0 / math.sqrt(t))
            assert slope == pytest.approx(expected, rel=1e-4)


class TestConcurrentUse:
    def test_queries_are_pure_and_reentrant(self):
        from concurrent.futures import ThreadPoolExecutor

        def task(i):
            eps = 0.01 + 0.01 * (i % 25)
            return radius_at(eps, 0.5 * time_to_dissolution(eps))

        with ThreadPoolExecutor(8) as pool:
            concurrent = list(pool.map(task, range(100)))
        assert concurrent == [task(i) for i in range(100)]


class TestConcentrationProfile:
    def test_surface_value(self):
        for radius, t in [(1.0, 1.0), (0.3, 17.0), (2.0, 0.01)]:
            assert concentration_profile(radius, t, radius) == 1.0

    def test_long_time_steady_profile(self):
        assert abs(concentration_profile(1.0, 1e8, 2.0) - 0.5) < 1e-3

    def test_erfc_reference_value(self):
        value = concentration_profile(1.0, 1.0, 3.0)
        assert value == pytest.approx(ERFC_SQRT_PI / 3.0, rel=1e-13)

    def test_monotone_in_position(self):
        positions = np.linspace(1.0, 12.0, 300)
        values = [concentration_profile(1.0, 2.5, r) for r in positions]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert 0.0 <= min(values) and max(values) == 1.0

    def test_far_tail_reported_as_zero(self):
        assert concentration_profile(1.0, 0.01, 10.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            concentration_profile(1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            concentration_profile(1.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            concentration_profile(0.0, 1.0, 2.0)


def _mp_branch(mp, eps):
    """t(g) and R(g, t) of the branch of ``eps`` in mpmath, with g = p - lower."""
    e = mp.mpf(eps)
    if e == 2:
        return (lambda g: mp.exp(-4 / (g + 2)) / (g + 2) ** 2, lambda g, t: g * mp.sqrt(t))
    if 0 < e < 2:
        k = mp.sqrt(e / (2 - e))
        return (
            lambda g: mp.exp(-2 * k * mp.atan(1 / (k + g))) / (e * (2 - e) * (1 + (k + g) ** 2)),
            lambda g, t: ((k + g) * mp.sqrt(2 - e) - mp.sqrt(e)) * mp.sqrt(e * t),
        )
    if e > 2:
        k = mp.sqrt(e / (e - 2))
        return (
            lambda g: ((k + g + 1) / (k + g - 1)) ** (-k) / (e * (e - 2) * ((k + g) ** 2 - 1)),
            lambda g, t: ((k + g) * mp.sqrt(e - 2) - mp.sqrt(e)) * mp.sqrt(e * t),
        )
    k = mp.sqrt(-e / (2 - e))
    return (
        lambda g: ((g + 2) / g) ** k / ((-e) * (2 - e) * g * (g + 2)),
        lambda g, t: ((1 + g) * mp.sqrt(2 - e) + mp.sqrt(-e)) * mp.sqrt(-e * t),
    )


def _mp_radius(mp, eps, t):
    """Radius at the float time ``t``, by bisection in log g at 50 digits."""
    time_of, radius_of = _mp_branch(mp, eps)
    target = mp.log(mp.mpf(t))
    lo, hi = mp.mpf(-800), mp.mpf(800)
    for _ in range(220):
        mid = (lo + hi) / 2
        if mp.log(time_of(mp.exp(mid))) > target:
            lo = mid
        else:
            hi = mid
    return radius_of(mp.exp((lo + hi) / 2), mp.mpf(t))


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        yield mpmath


EDGE_EPSILONS = [2.0 - 1e-12, 2.0 + 1e-12, 1e-300, 1e-8, 1e6]


class TestBranchEdgesAgainstMpmath:
    @pytest.mark.parametrize("eps", EDGE_EPSILONS)
    def test_dissolution_time(self, mp, eps):
        reference = _mp_branch(mp, eps)[0](mp.mpf(0))
        assert abs(time_to_dissolution(eps) - reference) <= 1e-12 * reference

    @pytest.mark.parametrize("fraction", [0.5, 0.9])
    @pytest.mark.parametrize("eps", EDGE_EPSILONS)
    def test_radius_during_dissolution(self, mp, eps, fraction):
        t = fraction * time_to_dissolution(eps)
        reference = _mp_radius(mp, eps, t)
        assert abs(radius_at(eps, t) - reference) <= 1e-12 * max(abs(reference), 1)

    @pytest.mark.parametrize(
        "eps,t", [(-0.1, 1e6), (-1e6, 1.0), (-1e-8, 10.0), (-0.1, 1e300), (-1e154, 8e307),
                  (-5.0, 1e-15), (-1e6, 1e-25)]
    )
    def test_radius_during_growth(self, mp, eps, t):
        reference = _mp_radius(mp, eps, t)
        assert abs(radius_at(eps, t) - reference) <= 1e-12 * max(abs(reference), 1)

    @pytest.mark.parametrize("eps,t", [(5.0, 9.9e-15), (1e6, 2e-25), (0.5, 1e-15)])
    def test_radius_at_tiny_times(self, mp, eps, t):
        # below 1e-14 the radius is inverted as at every other time, not taken as 1
        reference = _mp_radius(mp, eps, t)
        assert abs(radius_at(eps, t) - reference) <= 1e-12 * max(abs(reference), 1)


class TestTinyTimeShortcut:
    def test_dissolution_time_is_checked_first(self):
        assert time_to_dissolution(1e8) < 1e-15
        with pytest.raises(PastDissolutionError):
            radius_at(1e8, 1e-15)

    @pytest.mark.parametrize("eps", [1e6, -1e6, 5.0, -5.0, 0.5])
    @pytest.mark.parametrize("t", [1e-16, 0.99e-14, 1e-14, 1.01e-14])
    def test_error_stays_within_criterion_3(self, eps, t):
        # the inversion near t = 1e-14 against the short-time expansion
        # R = 1 - 2 eps sqrt(t) - eps t + ..., whose next term is below 1e-6 here
        assert abs(radius_at(eps, t) - (1.0 - 2.0 * eps * math.sqrt(t))) <= 1e-6


def _epsilon(exponent, sign):
    return math.copysign(10.0**exponent, sign)


epsilons = st.builds(_epsilon, st.floats(-300.0, 6.0), st.sampled_from([1.0, -1.0])) | st.just(2.0)
fractions = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20)
log_times = st.lists(st.floats(-16.0, 300.0), min_size=1, max_size=20)


def _times(eps, fractions, log_times):
    if eps > 0:
        return np.array(fractions) * time_to_dissolution(eps)
    return 10.0 ** np.array(log_times)


class TestBranchTableProperties:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(eps=epsilons)
    def test_time_strictly_decreasing(self, eps):
        branch = _branch(eps)
        if eps > 0:  # resolve the quadratic approach to extinction, log t(0) - g^2/curvature
            offsets = math.sqrt(branch.curvature) * np.geomspace(1e-4, 1e4, 400)
        else:
            offsets = np.geomspace(1e-6, 1e6, 400)
        assert np.all(np.diff(branch.time(offsets, array_ops())) < 0)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(eps=epsilons.filter(lambda e: e > 0))
    def test_radius_vanishes_at_dissolution_time(self, eps):
        t0 = time_to_dissolution(eps)
        assert radius_at(eps, t0) == 0.0
        assert radius_at(eps, np.array([t0]))[0] == 0.0
        branch = _branch(eps)
        assert branch.radius(0.0, branch.time(0.0)) == 0.0

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(eps=epsilons, fractions=fractions, log_times=log_times)
    def test_array_matches_scalar(self, eps, fractions, log_times):
        times = _times(eps, fractions, log_times)
        radii = radius_at(eps, times)
        scalar = np.array([radius_at(eps, float(t)) for t in times])
        assert np.array_equal(radii, scalar)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(eps=epsilons, fractions=fractions, log_times=log_times)
    def test_radius_stays_on_its_side_of_one(self, eps, fractions, log_times):
        radii = radius_at(eps, _times(eps, fractions, log_times))
        if eps > 0:
            assert np.all((radii >= 0.0) & (radii <= 1.0))
        else:
            assert np.all(radii >= 1.0)


# The parent design of the inversion, kept as the reference the float solver must match
# bit for bit: one log_st and one slope function per branch, and a Newton loop written
# against an xp namespace (``where``, ``any``), run on FLOAT_OPS for one float.
class _SeedBranch(NamedTuple):
    regime: Regime
    k: float
    lower: float
    scale: float
    a: float
    b: float
    curvature: float
    log_st: Callable
    slope: Callable

    def time(self, g, xp=FLOAT_OPS):
        return xp.exp(self.log_st(g, xp)) / self.scale

    def radius(self, g, t, xp=FLOAT_OPS):
        r = (self.a * g + self.b) * xp.sqrt(t)
        return xp.maximum(r, 1.0) if self.regime is Regime.GROWTH else xp.minimum(r, 1.0)


_SEED_OPS = SimpleNamespace(**vars(FLOAT_OPS), any=bool)


def _seed_branch(eps):
    found = classify_regime(eps)
    if found is Regime.CRITICAL:
        return _SeedBranch(
            found, 0.0, 0.0, 4.0, 1.0, 0.0, 4.0,
            lambda g, xp: -4.0 / (g + 2.0) - 2.0 * xp.log1p(0.5 * g),
            lambda g, xp: 2.0 * (g / (g + 2.0)) ** 2,
        )
    if found is Regime.STATIC:
        raise DomainError("epsilon", "the static regime has no parametric branch")
    k = branch_exponent(eps)
    a = math.sqrt(abs(2.0 - eps)) * math.sqrt(abs(eps))
    scale = abs(eps * (2.0 - eps))
    if math.isinf(scale):
        raise DomainError("epsilon", f"|epsilon (2 - epsilon)| overflows at epsilon={eps!r}")
    if found is Regime.DISSOLUTION:

        def log_st(g, xp):
            p = k + g
            return -2.0 * k * xp.atan2(1.0, p) - 2.0 * xp.log(xp.hypot(1.0, p))

        return _SeedBranch(found, k, k, scale, a, 0.0, 2.0 / (2.0 - eps), log_st,
                           lambda g, xp: 2.0 * (g / xp.hypot(1.0, k + g)) ** 2)
    if found is Regime.GROWTH:
        return _SeedBranch(
            found, k, 1.0, scale, a, a - eps, math.inf,
            lambda g, xp: k * xp.log1p(2.0 / g) - xp.log(g) - xp.log(g + 2.0),
            lambda g, xp: 2.0 * (1.0 + g + k) / (g + 2.0),
        )
    km1 = 2.0 / ((eps - 2.0) * (k + 1.0))
    return _SeedBranch(
        found, k, k, scale, a, 0.0, 2.0 / (eps - 2.0),
        lambda g, xp: -k * xp.log1p(2.0 / (km1 + g)) - xp.log(km1 + g) - xp.log(km1 + g + 2.0),
        lambda g, xp: 2.0 * (g / (km1 + g)) * (g / (km1 + g + 2.0)),
    )


def _seed_offset_at(branch, t, xp=_SEED_OPS):
    log_scale, t_lo, t_hi = math.log(branch.scale), 1e-300 / branch.scale, 1e300 / branch.scale
    target = xp.where((t > t_lo) & (t < t_hi),
                      xp.log(branch.scale * xp.minimum(xp.maximum(t, t_lo), t_hi)),
                      log_scale + xp.log(t))
    ln2 = math.log(2.0)
    large = -0.5 * target
    if branch.regime is Regime.GROWTH:
        lo = xp.maximum(xp.minimum(0.0, -math.log(3.0) - target), -700.0)
        hi = xp.maximum(ln2, 0.5 * (ln2 - target))
        x = xp.minimum(large, ((branch.k - 1.0) * ln2 - target) / (1.0 + branch.k))
    else:
        drop = xp.maximum(branch.log_st(0.0, xp) - target, 0.0)
        g_lo = xp.maximum(xp.sqrt(branch.curvature * drop), 1e-150)
        lo, hi = xp.log(g_lo), large
        x = xp.where(g_lo < 1.0, lo, large)
    lo, hi = lo - ln2, hi + 2.0 * ln2
    x = xp.minimum(xp.maximum(x, lo), hi)
    tol = 1e-14 * (1.0 + abs(target) + max(log_scale, 0.0))
    for _ in range(100):
        g = xp.exp(x)
        residual = branch.log_st(g, xp) - target
        above = residual > 0.0
        lo = xp.where(above, x, lo)
        hi = xp.where(above, hi, x)
        step = x + residual / branch.slope(g, xp)
        x = xp.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        if not xp.any((abs(residual) > tol) & (hi - lo > 1e-12)):
            break
    return xp.exp(x)


def _seed_radius_at(eps, t):
    check_epsilon(eps)
    _, t, _, last = query_times(t)
    branch = _seed_branch(eps) if eps != 0 else None
    t0 = branch.time(0.0) if eps > 0 else math.inf
    check_not_past(last, t0)
    if t >= t0:
        return 0.0
    root, size = math.sqrt(t), abs(eps)
    if branch is None or t + 2.0 * root <= 1e-17 / size:
        return 1.0
    return branch.radius(_seed_offset_at(branch, t), t)


def _seed_time_to_dissolution(eps):
    return dissolution_time(eps, lambda e: _seed_branch(e).time(0.0), "exact")


def _seed_exact_curve(eps, n=256, t_max=None):
    check_grid(eps, n, t_max)
    ones = eps == 0 or (eps < 0 and t_max + 2.0 * math.sqrt(t_max) <= 1e-17 / -eps)
    metadata = {"samples": n, "parameter_grid": "uniform" if ones else "geometric",
                "t_max": t_max}
    if ones:
        return RadiusCurve(MethodId.EXACT_QS, eps, np.linspace(0.0, t_max, n), np.ones(n),
                           metadata)
    t0 = _seed_time_to_dissolution(eps) if eps > 0 else math.inf
    t_end = min(t_max, t0) if t_max is not None else t0
    if t_end + 2.0 * math.sqrt(t_end) <= 1e-17 / abs(eps):
        # radius_at's rule, since applied to dissolution too: a curve that rounds away is ones
        return RadiusCurve(MethodId.EXACT_QS, eps, np.geomspace(t_end * 1e-10, t_end, n),
                           np.ones(n), metadata)
    branch = _seed_branch(eps)
    g_first = _seed_offset_at(branch, t_end * 1e-10)
    if t_end >= t0:
        offsets = np.concatenate(([0.0], np.geomspace(1e-6 * (1.0 + branch.lower), g_first, n - 1)))
    else:
        offsets = np.geomspace(_seed_offset_at(branch, t_end), g_first, n)
    offsets = np.sort(offsets)[::-1]
    times = branch.time(offsets, array_ops())
    # and to every sample: where R rounds to 1 it is 1
    radii = np.where(times + 2.0 * np.sqrt(times) <= 1e-17 / abs(eps), 1.0,
                     branch.radius(offsets, times, array_ops()))
    return RadiusCurve(MethodId.EXACT_QS, eps, times, radii, metadata)


def _outcome(fn, *args):
    """The bytes of a result (float, array or curve), or the type and message it raised."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, RadiusCurve):
        return value.times.tobytes(), value.radii.tobytes(), dict(value.metadata)
    return np.asarray(value, dtype=float).tobytes()


def _grid_epsilons():
    rng = np.random.default_rng(13)
    special = [1e-300, -1e-300, 2.0 - 1e-12, 2.0 + 1e-12, 1e6, -1e6, 2.0, 0.0, 1e-8, -1e-8,
               0.1, 1.0, 1.9, 5.0, -0.5, -3.0, 1e150, -1e150]
    drawn = [*10.0 ** rng.uniform(-300.0, math.log10(1.99), 12),  # dissolution
             *rng.uniform(2.0, 1e3, 6), *(2.0 + 10.0 ** rng.uniform(-15.0, 0.0, 4)),  # supercritical
             *-(10.0 ** rng.uniform(-300.0, 6.0, 12))]  # growth
    return special + [float(e) for e in drawn]


def _grid_times(eps, rng):
    """Times across the branch, with its edges: near 0, where R rounds to 1, and near t0."""
    size = abs(eps) or 1.0
    edges = [0.0, 1e-300, 1e-16, 0.99e-14, 1e-14, 1.01e-14,
             0.5e-17 / size, 1e-17 / size, 2e-17 / size, min(0.5e-6 / size, 1e150) ** 2]
    if eps > 0:
        t0 = _seed_time_to_dissolution(eps)
        fractions = [*rng.uniform(0.0, 1.0, 24), *10.0 ** rng.uniform(-30.0, 0.0, 8),
                     *(1.0 - np.arange(1, 6) * 1e-16), 1.0, 1.0 + 1e-16, 1.0 + 1e-13]
        return edges + [t0 * float(f) for f in fractions] + [t0 * (1.0 - 1e-12)]
    return edges + [float(t) for t in 10.0 ** rng.uniform(-20.0, 300.0, 32)] + [1e300]


class TestFloatInversionMatchesTheParentDesign:
    @pytest.mark.parametrize("eps", _grid_epsilons())
    def test_radius_at(self, eps):
        rng = np.random.default_rng(int(np.float64(eps).view(np.uint64)))
        times = _grid_times(eps, rng)
        for t in times + [-1.0, math.nan, math.inf, 10.0 * (times[-1] or 1.0)]:
            assert _outcome(radius_at, eps, t) == _outcome(_seed_radius_at, eps, t), t
        valid = [t for t in times if isinstance(_outcome(_seed_radius_at, eps, t), bytes)]
        expected = np.array([_seed_radius_at(eps, t) for t in valid])
        assert radius_at(eps, np.array(valid)).tobytes() == expected.tobytes()
        assert radius_at(eps, np.array(valid).reshape(-1, 1)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("eps", _grid_epsilons() + [5e-324, 1e200, -1.0, math.nan, math.inf])
    def test_time_to_dissolution(self, eps):
        assert _outcome(time_to_dissolution, eps) == _outcome(_seed_time_to_dissolution, eps)

    @pytest.mark.parametrize("eps", _grid_epsilons())
    def test_exact_curve(self, eps):
        t_ends = [1e-20, 1e-6, 1.0, 1e3, 1e300] + ([None, 0.5 * _seed_time_to_dissolution(eps)]
                                                  if eps > 0 else [None, -1.0])
        for n in (2, 17, 256):
            for t_max in t_ends:
                expected = _outcome(_seed_exact_curve, eps, n, t_max)
                if expected == (RuntimeWarning, "overflow encountered in exp"):
                    # the parent overflowed where scale * t does; now the curve reaches t_max
                    curve = exact_curve(eps, n, t_max)
                    assert curve.times[-1] == pytest.approx(t_max, rel=1e-12), (n, t_max)
                    assert curve.radii.tobytes() == radius_at(eps, curve.times).tobytes()
                    continue
                assert _outcome(exact_curve, eps, n, t_max) == expected, (n, t_max)

    def test_refused_epsilons(self):
        for eps in (math.nan, math.inf, -math.inf, 1e200, -1e200):
            assert _outcome(radius_at, eps, 1.0) == _outcome(_seed_radius_at, eps, 1.0)
            assert _outcome(exact_curve, eps, 16, 1.0) == _outcome(_seed_exact_curve, eps, 16, 1.0)


def _work_mix():
    """A fixed mix of 2,000 scalar queries: 1,600 radii over the five regimes, 400 t0."""
    rng = np.random.default_rng(2000)
    regimes = {
        "growth": (400, lambda: -(10.0 ** rng.uniform(-3.0, 1.0))),
        "dissolution": (400, lambda: 10.0 ** rng.uniform(-3.0, math.log10(1.9))),
        "supercritical": (300, lambda: rng.uniform(2.1, 10.0)),
        "critical": (300, lambda: 2.0),
        "static": (200, lambda: 0.0),
    }
    queries = []
    for count, draw in regimes.values():
        for _ in range(count):
            eps = float(draw())
            if eps > 0:
                t = float(rng.uniform(0.0, 1.0)) * time_to_dissolution(eps)
            else:
                t = float(10.0 ** rng.uniform(-16.0, 6.0))
            queries.append((radius_at, eps, t))
    for name in ("dissolution", "supercritical", "critical"):
        queries.extend((time_to_dissolution, float(regimes[name][1]()))
                       for _ in range(200 if name == "dissolution" else 100))
    return queries


class TestInversionWork:
    # Branch-curve evaluations over the mix: one per Newton iteration, one for t0 on the
    # dissolving branches and one for the bracket's lower bound there.  Pinned at the count
    # of this solver with one rule for R = 1, which inverts every time where R does not
    # round to 1, tiny times included.
    CURVE_CALLS = 8992

    def test_curve_evaluations_are_pinned(self, monkeypatch):
        queries = _work_mix()
        calls = 0
        branch_of = exact._branch

        def counting_branch(eps, regime=None):
            branch = branch_of(eps, regime)

            def curve(g, xp):
                nonlocal calls
                calls += 1
                return branch.curve(g, xp)

            return branch._replace(curve=curve)

        monkeypatch.setattr(exact, "_branch", counting_branch)
        for fn, *args in queries:
            fn(*args)
        assert len(queries) == 2000
        assert calls == self.CURVE_CALLS
