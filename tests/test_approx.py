import math
import warnings

import numpy as np
import pytest

from spherediss import (
    ClampedRadiusWarning,
    DomainError,
    EpsilonRangeError,
    MethodId,
    PastDissolutionError,
    approx_curve,
    approx_radius,
    approx_t0,
    blend_alpha,
    blended_radius,
    blended_t0,
    duda_radius,
    duda_t0,
    exact_curve,
    intuitive_radius,
    intuitive_t0,
    qss_radius,
    radius_at,
    small_time_radius,
    time_to_dissolution,
)


class TestQss:
    def test_reaches_zero_at_its_t0(self):
        assert qss_radius(0.05, 10.0) == pytest.approx(0.0, abs=1e-7)
        assert approx_t0(MethodId.QSS, 0.05) == pytest.approx(10.0, rel=1e-14)

    def test_initial_condition(self):
        assert qss_radius(0.7, 0.0) == 1.0

    def test_growth_value(self):
        assert qss_radius(-0.01, 100.0) == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_past_t0_is_distinct(self):
        with pytest.raises(PastDissolutionError):
            qss_radius(0.05, 10.5)


class TestSmallTime:
    def test_direct_value(self):
        assert small_time_radius(0.1, 0.25) == pytest.approx(0.9, rel=1e-14)

    def test_initial_condition(self):
        assert small_time_radius(-3.0, 0.0) == 1.0

    def test_agrees_with_exact_at_small_time(self):
        assert small_time_radius(0.01, 0.01) == pytest.approx(
            radius_at(0.01, 0.01), abs=5e-4
        )

    def test_clamps_negative_with_warning(self):
        with pytest.warns(ClampedRadiusWarning):
            assert small_time_radius(0.5, 9.0) == 0.0


class TestIntuitive:
    def test_published_t0_values(self):
        assert intuitive_t0(0.1) == pytest.approx(4.1667, abs=5e-5)
        assert intuitive_t0(0.5) == pytest.approx(0.5, rel=1e-14)

    def test_initial_condition(self):
        assert intuitive_radius(0.2, 0.0) == 1.0
        assert intuitive_radius(-0.2, 0.0) == 1.0

    def test_zero_epsilon_and_past_t0(self):
        assert intuitive_radius(0.0, 1.0) == 1.0
        with pytest.raises(PastDissolutionError):
            intuitive_radius(0.1, 4.2)
        with pytest.raises(DomainError):
            intuitive_t0(-0.1)


class TestDuda:
    def test_published_radius(self):
        assert duda_radius(0.1, 1.83532) == pytest.approx(0.30173, abs=1e-5)

    def test_published_t0_values(self):
        assert duda_t0(0.1) == pytest.approx(2.10102, abs=1e-5)
        assert duda_t0(1.0) == pytest.approx(0.0505, abs=5e-5)
        assert duda_t0(0.01) == pytest.approx(37.717, abs=5e-4)
        assert duda_t0(0.001) == pytest.approx(457.23, abs=5e-3)

    def test_initial_condition(self):
        assert duda_radius(0.3, 0.0) == 1.0

    def test_past_t0_and_zero_epsilon(self):
        with pytest.raises(PastDissolutionError):
            duda_radius(0.1, 2.2)
        assert duda_radius(0.0, 1.0) == 1.0


class TestBlendWeight:
    def test_small_epsilon_value(self):
        assert blend_alpha(0.01) == pytest.approx(0.6038, abs=5e-4)

    def test_branch_continuity_at_tenth(self):
        below = 0.781 * (1.0 - 1.935 / (1.0 + 1.05 * 0.1 ** (-0.4278)))
        assert abs(blend_alpha(0.1) - below) <= 5e-4

    def test_upper_boundary_is_quadratic_branch(self):
        lg = math.log10(0.5)
        expected = 0.0193 * lg * lg - 0.2703 * lg + 0.095
        assert blend_alpha(0.5) == pytest.approx(expected, rel=1e-14)

    def test_weight_stays_in_unit_interval(self):
        for eps in np.concatenate([np.geomspace(1e-6, 0.5, 40), -np.geomspace(1e-6, 0.5, 40)]):
            assert 0.0 <= blend_alpha(float(eps)) <= 1.0

    def test_fit_range_enforced(self):
        with pytest.raises(EpsilonRangeError):
            blend_alpha(0.7)
        with pytest.raises(EpsilonRangeError):
            blend_alpha(-0.6)
        with pytest.raises(DomainError):
            blend_alpha(0.0)


class TestBlendedRadius:
    def test_initial_condition(self):
        for eps in (0.3, -0.3):
            assert blended_radius(eps, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_dissolution_accuracy(self):
        # confirmed against the exact solution over the full span including
        # the extinction instant, where the eps=0.01 blend still reads 0.018
        for eps, bound in [(0.01, 0.019), (0.1, 0.01), (0.5, 0.01)]:
            t0 = time_to_dissolution(eps)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ClampedRadiusWarning)
                worst = max(
                    abs(blended_radius(eps, t) - radius_at(eps, t))
                    for t in np.linspace(t0 / 400, t0, 400)
                )
            assert worst <= bound

    def test_growth_sits_between_ingredients(self):
        value = blended_radius(-0.01, 100.0)
        assert duda_radius(-0.01, 100.0) < value < intuitive_radius(-0.01, 100.0)

    def test_clamps_past_first_radicand_zero(self):
        t0 = blended_t0(0.5)
        with pytest.warns(ClampedRadiusWarning):
            assert blended_radius(0.5, t0 * 1.0001) == 0.0
        # the radicand turns positive again later; the clamp must hold anyway
        with pytest.warns(ClampedRadiusWarning):
            assert blended_radius(0.5, 0.9) == 0.0

    def test_blended_t0_lies_between_the_duda_and_intuitive_t0s(self):
        rng = np.random.default_rng(28)
        for eps in (10.0 ** rng.uniform(math.log10(3e-309), math.log10(0.5), 2000)).tolist():
            t0, t_duda, t_intuitive = blended_t0(eps), duda_t0(eps), intuitive_t0(eps)
            assert type(t0) is float
            assert 0.0 < min(t_duda, t_intuitive) <= t0 <= t_intuitive <= 0.5 / eps, eps

    def test_tiny_epsilon_is_answered(self):
        assert blended_radius(1e-35, 1.0) == pytest.approx(1.0, rel=1e-15)
        assert blended_radius(1e-35, 0.5 * blended_t0(1e-35)) == pytest.approx(math.sqrt(0.5))

    def test_blended_t0_close_to_exact(self):
        for eps in (0.01, 0.1, 0.5):
            assert blended_t0(eps) == pytest.approx(time_to_dissolution(eps), rel=0.02)

    def test_fit_range_enforced(self):
        with pytest.raises(EpsilonRangeError):
            blended_radius(0.6, 1.0)
        with pytest.raises(DomainError):
            blended_t0(-0.1)


class TestClampWarningLocation:
    """A clamp warning names the line that called the public function."""

    @pytest.mark.parametrize("query", [
        lambda: blended_radius(0.3, 100.0),
        lambda: approx_radius(MethodId.BLENDED, 0.3, 100.0),
        lambda: blended_radius(0.5, 1.0001 * blended_t0(0.5)),  # a negative radicand
        lambda: approx_radius(MethodId.BLENDED, 0.5, 1.0001 * blended_t0(0.5)),
        lambda: small_time_radius(0.3, 100.0),
        lambda: approx_radius(MethodId.SMALL_TIME, 0.3, 100.0),
    ], ids=["blended", "approx_blended", "blended_radicand", "approx_blended_radicand",
            "small_time", "approx_small_time"])
    def test_the_warning_points_at_the_caller(self, query):
        with pytest.warns(ClampedRadiusWarning) as record:
            assert query() == 0.0
        assert [w.filename for w in record] == [__file__]


class TestZeroEpsilon:
    """At eps = 0 every explicit formula is the static radius R = 1."""

    @pytest.mark.parametrize("method", [MethodId.QSS, MethodId.SMALL_TIME, MethodId.INTUITIVE,
                                        MethodId.DUDA_VRENTAS, MethodId.BLENDED])
    def test_radius_is_one_for_float_and_array_times(self, method):
        radius = approx_radius(method, 0.0, 7.5)
        assert type(radius) is float and radius == 1.0
        times = np.array([0.0, 1e-3, 2.0, 1e6])
        assert approx_radius(method, 0.0, times).tolist() == [1.0] * 4
        assert approx_curve(method, 0.0, 16, t_max=2.0).radii.tolist() == [1.0] * 16

    def test_wrappers(self):
        assert intuitive_radius(0.0, 3.0) == duda_radius(0.0, 3.0) == blended_radius(0.0, 3.0) == 1.0
        assert blended_radius(-0.0, 3.0) == 1.0

    def test_the_blended_weight_stays_undefined(self):
        with pytest.raises(DomainError) as info:
            blend_alpha(0.0)
        assert info.value.param == "epsilon"

    @pytest.mark.parametrize("method", [MethodId.INTUITIVE, MethodId.DUDA_VRENTAS,
                                        MethodId.BLENDED])
    def test_non_finite_epsilon_is_still_refused(self, method):
        with pytest.raises(DomainError):
            approx_radius(method, math.nan, 1.0)


class TestDissolutionTimeDispatch:
    def test_published_values(self):
        assert approx_t0(MethodId.QSS, 0.001) == pytest.approx(500.0, rel=1e-14)
        assert approx_t0(MethodId.INTUITIVE, 0.005) == pytest.approx(99.010, abs=5e-4)
        assert approx_t0(MethodId.EXACT_QS, 0.5) == pytest.approx(0.2984, abs=5e-5)

    def test_small_time_variant(self):
        assert approx_t0(MethodId.SMALL_TIME, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_numeric_methods_rejected(self):
        for method in (MethodId.ODE_ORACLE, MethodId.PDE_REFERENCE):
            with pytest.raises(DomainError):
                approx_t0(method, 0.1)

    def test_rejects_non_dissolving(self):
        with pytest.raises(DomainError):
            approx_t0(MethodId.QSS, -0.1)

    def test_t0_ordering_exact_below_intuitive_below_qss(self):
        for eps in (1.0, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001, 0.0005, 0.0001):
            exact = time_to_dissolution(eps)
            intuitive = approx_t0(MethodId.INTUITIVE, eps)
            qss = approx_t0(MethodId.QSS, eps)
            assert exact < intuitive < qss


class TestOrderings:
    def test_dissolution_bracket(self):
        eps = 0.01
        grid = np.linspace(duda_t0(eps) / 200, duda_t0(eps) * 0.999, 200)
        for t in grid:
            exact = radius_at(eps, t)
            assert duda_radius(eps, t) <= exact + 1e-12
            assert exact <= intuitive_radius(eps, t) + 1e-12

    def test_growth_bracket(self):
        eps = -0.01
        for t in np.linspace(2.0, 400.0, 200):
            exact = radius_at(eps, t)
            assert intuitive_radius(eps, t) >= exact - 1e-12
            assert exact >= duda_radius(eps, t) - 1e-12
            assert exact >= qss_radius(eps, t) - 1e-12


class TestInitialSlope:
    @pytest.mark.parametrize("eps", [0.05, 0.4, -0.3])
    @pytest.mark.parametrize(
        "radius_fn",
        [small_time_radius, intuitive_radius, duda_radius, blended_radius],
    )
    def test_slope_is_minus_two_eps_in_sqrt_t(self, radius_fn, eps):
        t = 1e-10
        slope = (radius_fn(eps, t) - 1.0) / math.sqrt(t)
        assert slope == pytest.approx(-2.0 * eps, rel=1e-3)


class TestApproxCurve:
    def test_dissolution_curve_reaches_zero(self):
        curve = approx_curve(MethodId.DUDA_VRENTAS, 0.1, 100)
        assert curve.times[-1] == pytest.approx(duda_t0(0.1), rel=1e-12)
        assert curve.radii[-1] == pytest.approx(0.0, abs=1e-7)
        assert curve.radii[0] == 1.0

    def test_growth_curve_needs_t_max(self):
        with pytest.raises(DomainError):
            approx_curve(MethodId.QSS, -0.1, 50)
        curve = approx_curve(MethodId.QSS, -0.1, 50, t_max=10.0)
        assert curve.radii[-1] == pytest.approx(math.sqrt(3.0), rel=1e-12)

    @pytest.mark.parametrize("t_max", [math.nan, 0.0, -1.0, math.inf])
    def test_bad_t_max_is_refused_like_exact_curve(self, t_max):
        # min(t0, nan) would drop a nan silently, and 0 would reach RadiusCurve
        for sampler in (lambda: approx_curve(MethodId.QSS, 0.1, 4, t_max=t_max),
                        lambda: exact_curve(0.1, 4, t_max=t_max)):
            with pytest.raises(DomainError) as info:
                sampler()
            assert info.value.param == "t_max"

    @pytest.mark.parametrize("n", [0, 1, -3, 4.0, 10**6 + 1])
    def test_bad_sample_count_is_refused(self, n):
        with pytest.raises(DomainError) as info:
            approx_curve(MethodId.QSS, 0.1, n)
        assert info.value.param == "n"

    def test_exact_method_not_dispatched_here(self):
        with pytest.raises(DomainError):
            approx_curve(MethodId.EXACT_QS, 0.1, 50)
        with pytest.raises(DomainError):
            approx_radius(MethodId.ODE_ORACLE, 0.1, 1.0)

    @pytest.mark.parametrize(
        "method",
        [MethodId.QSS, MethodId.SMALL_TIME, MethodId.INTUITIVE, MethodId.DUDA_VRENTAS,
         MethodId.BLENDED],
    )
    @pytest.mark.parametrize("eps,t_max", [(0.01, None), (0.3, None), (0.3, 0.5), (-0.3, 50.0)])
    def test_samples_equal_scalar_formulas(self, method, eps, t_max):
        # the curve evaluates the scalar formulas' arithmetic on arrays, so the
        # values must agree exactly
        curve = approx_curve(method, eps, 257, t_max)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClampedRadiusWarning)
            loop = [approx_radius(method, eps, t) for t in curve.times]
        assert curve.radii.tolist() == loop
        assert approx_radius(method, eps, curve.times).tolist() == loop


EXPLICIT_METHODS = [MethodId.QSS, MethodId.SMALL_TIME, MethodId.INTUITIVE,
                    MethodId.DUDA_VRENTAS, MethodId.BLENDED]


class TestArrayTimes:
    """An array of times is checked element by element, as a float is."""

    @pytest.mark.parametrize("method", EXPLICIT_METHODS)
    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_bad_time_inside_array_is_refused(self, method, bad):
        with pytest.raises(DomainError) as info:
            approx_radius(method, 0.3, np.array([0.0, bad, 0.1]))
        assert info.value.param == "t"

    @pytest.mark.parametrize("method", [MethodId.QSS, MethodId.INTUITIVE, MethodId.DUDA_VRENTAS])
    def test_time_past_t0_inside_array_raises(self, method):
        t0 = approx_t0(method, 0.1)
        with pytest.raises(PastDissolutionError) as info:
            approx_radius(method, 0.1, np.array([0.0, 1.01 * t0, 0.5 * t0]))
        assert info.value.t0 == t0

    @pytest.mark.parametrize("method", [MethodId.SMALL_TIME, MethodId.BLENDED])
    def test_array_past_t0_clamps_without_warning(self, method):
        t0 = approx_t0(method, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            radii = approx_radius(method, 0.3, np.array([0.5 * t0, 1.5 * t0, 2.0 * t0]))
        assert radii[0] > 0.0
        assert radii[1:].tolist() == [0.0, 0.0]
        with pytest.warns(ClampedRadiusWarning):  # a float past t0 still warns
            assert approx_radius(method, 0.3, 1.5 * t0) == 0.0

    @pytest.mark.parametrize("method", EXPLICIT_METHODS)
    @pytest.mark.parametrize("kind", ["int", "float64", "0-d array"])
    def test_scalar_time_types_match_the_float_call(self, method, kind):
        # an int skips numpy; the others ask np.ndim and take the float path
        t = {"int": 1, "float64": np.float64(0.7), "0-d array": np.array(0.7)}[kind]
        radius = approx_radius(method, 0.1, t)
        assert radius.hex() == approx_radius(method, 0.1, float(t)).hex()
        if kind != "0-d array":
            assert type(radius) is float

    def test_ode_oracle_refuses_arrays(self):
        with pytest.raises(DomainError) as info:
            approx_radius(MethodId.ODE_ORACLE, 0.1, np.array([0.0, 1.0]))
        assert info.value.param == "method"


#: Growth far enough out that a formula overflows: the blended case's true radius is 1.3e154.
OVERFLOWS = [(qss_radius, MethodId.QSS, -1e300, 1e300),
             (small_time_radius, MethodId.SMALL_TIME, -1e300, 1e300),
             (intuitive_radius, MethodId.INTUITIVE, -1e300, 1e300),
             (duda_radius, MethodId.DUDA_VRENTAS, -1e300, 1e300),
             (blended_radius, MethodId.BLENDED, -0.5, 1.7e308)]


#: A huge |eps| with a time that keeps eps t finite: R = 1 at t = 0, and finite growth.
HUGE_EPSILON_POINTS = [(1e308, 0.0), (-1e308, 1e-300)]


class TestNonFiniteRadius:
    """A radius that overflows is refused, for a float and an array alike."""

    @pytest.mark.parametrize("function, method", [case[:2] for case in OVERFLOWS[:4]])
    @pytest.mark.parametrize("eps, t", HUGE_EPSILON_POINTS)
    def test_huge_epsilon_alone_does_not_overflow(self, function, method, eps, t):
        radius = function(eps, t)
        assert math.isfinite(radius) and (radius == 1.0 if t == 0.0 else radius > 1.0)
        assert approx_radius(method, eps, np.array([t])).tolist() == [radius]

    @pytest.mark.parametrize("function, method, eps, t", OVERFLOWS)
    def test_float_and_array_refuse_it(self, function, method, eps, t):
        finite = approx_radius(method, eps, np.array([1.0, 1e4]))
        assert finite.tolist() == [function(eps, 1.0), function(eps, 1e4)]
        with pytest.raises(DomainError) as scalar:
            function(eps, t)
        assert scalar.value.param == "t"
        with pytest.raises(DomainError) as array:
            approx_radius(method, eps, np.array([1.0, t]))
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("method, eps", [(method, eps) for _, method, eps, _ in OVERFLOWS])
    def test_curve_names_t_max(self, method, eps):
        with pytest.raises(DomainError, match="^t_max: .* radius is not finite"):
            approx_curve(method, eps, 4, t_max=1.7976931348623157e308)
