import math

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
from spherediss.exact import (
    _branch,
    _time,
    array_ops,
)

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

    def test_tiny_time_shortcut(self):
        assert radius_at(0.5, 1e-15) == 1.0

    @pytest.mark.parametrize("eps", [0.1, 0.01, -0.2])
    @pytest.mark.parametrize("kind", ["int", "float64", "0-d array"])
    def test_scalar_time_types_match_the_float_call(self, eps, kind):
        # an int skips numpy; the others ask np.ndim and take the float path
        t = {"int": 1, "float64": np.float64(0.7), "0-d array": np.array(0.7)}[kind]
        radius = radius_at(eps, t)
        assert radius.hex() == radius_at(eps, float(t)).hex()
        if kind != "0-d array":
            assert type(radius) is float

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
        "eps,t", [(-0.1, 1e6), (-1e6, 1.0), (-1e-8, 10.0), (-0.1, 1e300)]
    )
    def test_radius_during_growth(self, mp, eps, t):
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
        # R = 1 - 2 eps sqrt(t) - eps t + ..., so the shortcut R = 1 may only
        # be taken where 2 |eps| sqrt(t) <= 1e-6
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
        assert np.all(np.abs(radii - scalar) <= 1e-13 * np.maximum(np.abs(scalar), 1.0))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(eps=epsilons, fractions=fractions, log_times=log_times)
    def test_radius_stays_on_its_side_of_one(self, eps, fractions, log_times):
        radii = radius_at(eps, _times(eps, fractions, log_times))
        if eps > 0:
            assert np.all((radii >= 0.0) & (radii <= 1.0))
        else:
            assert np.all(radii >= 1.0)
