import copy
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spherediss import (
    DimensionlessProblem,
    DomainError,
    MethodId,
    PhysicalScenario,
    RadiusCurve,
    Regime,
    classify_regime,
    nondimensionalize,
    redimensionalize,
)


def make_scenario(**overrides):
    params = dict(
        solubility=1.0,
        initial_concentration=0.0,
        particle_density=1200.0,
        medium_density=1000.0,
        diffusivity=1e-9,
        initial_radius=2e-6,
    )
    params.update(overrides)
    return PhysicalScenario(**params)


class TestClassifyRegime:
    @pytest.mark.parametrize(
        "eps,regime",
        [
            (0.1, Regime.DISSOLUTION),
            (2.0, Regime.CRITICAL),
            (-0.01, Regime.GROWTH),
            (0.0, Regime.STATIC),
            (5.0, Regime.SUPERCRITICAL),
            (1.9999999, Regime.DISSOLUTION),
            (2.0000001, Regime.SUPERCRITICAL),
        ],
    )
    def test_examples(self, eps, regime):
        assert classify_regime(eps) is regime

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                classify_regime(bad)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_partitions_real_line(self, eps):
        regime = classify_regime(eps)
        expected = {
            Regime.STATIC: eps == 0,
            Regime.GROWTH: eps < 0,
            Regime.DISSOLUTION: 0 < eps < 2,
            Regime.CRITICAL: eps == 2,
            Regime.SUPERCRITICAL: eps > 2,
        }
        assert expected[regime]
        assert sum(expected.values()) == 1


class TestNondimensionalize:
    def test_zero_driving_force_is_static(self):
        problem = nondimensionalize(make_scenario(solubility=3.0, initial_concentration=3.0))
        assert problem.epsilon == 0.0
        assert problem.regime is Regime.STATIC

    def test_dilute_limit_value(self):
        # C_s=1, C_0=0, rho_p=10/pi with an effectively infinite medium density
        problem = nondimensionalize(
            make_scenario(
                solubility=1.0,
                initial_concentration=0.0,
                particle_density=10.0 / math.pi,
                medium_density=1e12,
            )
        )
        assert problem.epsilon == pytest.approx(0.1, abs=1e-9)

    def test_supersaturation_gives_growth(self):
        problem = nondimensionalize(make_scenario(solubility=1.0, initial_concentration=2.0))
        assert problem.epsilon < 0
        assert problem.regime is Regime.GROWTH

    def test_scales(self):
        scenario = make_scenario(diffusivity=1.0 / math.pi, initial_radius=1.0)
        problem = nondimensionalize(scenario)
        assert problem.time_scale == pytest.approx(1.0, rel=1e-15)
        assert problem.length_scale == 1.0

    def test_epsilon_sign_matches_driving_force(self):
        for cs, c0 in [(2.0, 1.0), (1.0, 2.0), (5.0, 5.0)]:
            problem = nondimensionalize(make_scenario(solubility=cs, initial_concentration=c0))
            assert math.copysign(1, problem.epsilon) == math.copysign(1, cs - c0) or cs == c0

    def test_doubling_all_densities_preserves_epsilon(self):
        base = make_scenario()
        scaled = make_scenario(
            solubility=2 * base.solubility,
            initial_concentration=2 * base.initial_concentration,
            particle_density=2 * base.particle_density,
            medium_density=2 * base.medium_density,
        )
        eps0 = nondimensionalize(base).epsilon
        eps1 = nondimensionalize(scaled).epsilon
        assert abs(eps1 - eps0) <= 1e-14 * max(1.0, abs(eps0))

    @given(factor=st.floats(1e-3, 1e3))
    def test_concentration_scale_invariance(self, factor):
        base = make_scenario()
        scaled = make_scenario(
            solubility=factor * base.solubility,
            initial_concentration=factor * base.initial_concentration,
            particle_density=factor * base.particle_density,
            medium_density=factor * base.medium_density,
        )
        eps0 = nondimensionalize(base).epsilon
        eps1 = nondimensionalize(scaled).epsilon
        assert abs(eps1 - eps0) <= 1e-14 * max(1.0, abs(eps0))


class TestScenarioValidation:
    def test_rejects_solubility_at_medium_density(self):
        with pytest.raises(DomainError):
            make_scenario(solubility=1000.0, medium_density=1000.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("particle_density", -1.0),
            ("medium_density", 0.0),
            ("diffusivity", 0.0),
            ("initial_radius", -2e-6),
            ("solubility", -0.5),
            ("initial_concentration", -0.1),
            ("diffusivity", math.nan),
            ("solubility", math.inf),
        ],
    )
    def test_rejects_invalid_fields(self, field, value):
        with pytest.raises(DomainError):
            make_scenario(**{field: value})


class TestDimensionlessProperties:
    def test_branch_exponent_dissolution(self):
        problem = nondimensionalize(
            make_scenario(
                solubility=1.0,
                initial_concentration=0.0,
                particle_density=10.0 / math.pi,
                medium_density=1e12,
            )
        )
        assert problem.branch_exponent == pytest.approx(
            math.sqrt(problem.epsilon / (2 - problem.epsilon)), rel=1e-12
        )
        assert problem.extinction_parameter == problem.branch_exponent

    def test_growth_has_no_extinction(self):
        problem = nondimensionalize(make_scenario(solubility=1.0, initial_concentration=2.0))
        with pytest.raises(DomainError):
            problem.extinction_parameter

    def test_critical_value_has_no_branch_exponent(self):
        from spherediss import DimensionlessProblem

        problem = DimensionlessProblem(2.0, 1.0, 1.0)
        assert problem.extinction_parameter == 0.0
        with pytest.raises(DomainError):
            problem.branch_exponent


class TestDimensionlessScales:
    @pytest.mark.parametrize("scales, param, bad", [
        ((math.nan, 1.0), "time_scale", math.nan),
        ((1.0, math.inf), "length_scale", math.inf),
        ((1.0, 0.0), "length_scale", 0.0),
    ])
    def test_each_scale_must_be_positive_and_finite(self, scales, param, bad):
        with pytest.raises(DomainError) as info:
            DimensionlessProblem(0.1, *scales)
        assert str(info.value) == f"{param}: must be positive and finite, got {bad!r}"


class TestRedimensionalize:
    def scenario_with_epsilon(self):
        scenario = make_scenario(initial_radius=2e-6)
        return scenario, nondimensionalize(scenario).epsilon

    def test_identity_at_origin(self):
        scenario, eps = self.scenario_with_epsilon()
        curve = RadiusCurve(MethodId.EXACT_QS, eps, [0.0, 1.0], [1.0, 0.9])
        out = redimensionalize(curve, scenario)
        assert out.times_s[0] == 0.0
        assert out.radii_m[0] == pytest.approx(2e-6, rel=1e-15)

    def test_unit_scales(self):
        scenario = make_scenario(diffusivity=1.0 / math.pi, initial_radius=1.0)
        eps = nondimensionalize(scenario).epsilon
        curve = RadiusCurve(MethodId.EXACT_QS, eps, [0.0, 1.0], [1.0, 0.5])
        out = redimensionalize(curve, scenario)
        assert out.times_s[1] == pytest.approx(1.0, rel=1e-15)
        assert out.radii_m[1] == pytest.approx(0.5, rel=1e-15)

    def test_round_trip(self):
        scenario, eps = self.scenario_with_epsilon()
        problem = nondimensionalize(scenario)
        times = np.linspace(0.0, 3.0, 17)
        radii = np.linspace(1.0, 0.2, 17)
        curve = RadiusCurve(MethodId.EXACT_QS, eps, times, radii)
        out = redimensionalize(curve, scenario)
        assert len(out) == len(curve)
        np.testing.assert_allclose(out.times_s / problem.time_scale, times, rtol=1e-12)
        np.testing.assert_allclose(out.radii_m / problem.length_scale, radii, rtol=1e-12)

    def test_epsilon_mismatch_rejected(self):
        scenario, eps = self.scenario_with_epsilon()
        curve = RadiusCurve(MethodId.EXACT_QS, eps + 1e-6, [0.0, 1.0], [1.0, 0.9])
        with pytest.raises(DomainError):
            redimensionalize(curve, scenario)


class TestRadiusCurveValidation:
    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            RadiusCurve(MethodId.EXACT_QS, 0.1, [0.0, 0.0], [1.0, 0.9])

    def test_requires_monotone_radius_for_dissolution(self):
        with pytest.raises(ValueError):
            RadiusCurve(MethodId.EXACT_QS, 0.1, [0.0, 1.0, 2.0], [1.0, 0.5, 0.8])

    def test_requires_monotone_radius_for_growth(self):
        with pytest.raises(ValueError):
            RadiusCurve(MethodId.EXACT_QS, -0.1, [0.0, 1.0, 2.0], [1.0, 1.5, 1.2])

    @pytest.mark.parametrize("times,radii,message", [
        ([0.0, 1.0], [1.0], "times and radii must be 1-d arrays of equal length"),
        ([[0.0, 1.0]], [[1.0, 0.9]], "times and radii must be 1-d arrays of equal length"),
        ([], [], "a curve needs at least one sample"),
        ([0.0, math.inf], [1.0, 0.9], "curve samples must be finite"),
        ([0.0, 1.0], [1.0, math.nan], "curve samples must be finite"),
        ([0.0, 1.0], [1.0, -0.5], "radii must be non-negative"),
    ])
    def test_refuses_malformed_samples(self, times, radii, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RadiusCurve(MethodId.EXACT_QS, 0.1, times, radii)

    def test_method_strings_are_stable(self):
        assert MethodId.EXACT_QS.value == "exact"
        assert MethodId.QSS.value == "qss"
        assert MethodId.SMALL_TIME.value == "small-time"
        assert MethodId.INTUITIVE.value == "intuitive"
        assert MethodId.DUDA_VRENTAS.value == "duda"
        assert MethodId.BLENDED.value == "blended"
        assert MethodId.ODE_ORACLE.value == "ode"
        assert MethodId.PDE_REFERENCE.value == "pde"
        assert MethodId.from_string("duda") is MethodId.DUDA_VRENTAS
        with pytest.raises(ValueError):
            MethodId.from_string("nope")


class TestRedimensionalizeOverflow:
    def test_times_that_overflow_in_seconds_are_refused(self):
        # R0 = 1e149 m at D = 1e-9 m^2/s gives a time scale of 3.18e306 s
        scenario = make_scenario(initial_radius=1e149)
        eps = nondimensionalize(scenario).epsilon
        curve = RadiusCurve(MethodId.EXACT_QS, eps, [0.0, 100.0], [1.0, 0.5])
        with pytest.raises(DomainError, match=r"^scenario: the curve's time 100\.0 overflows"):
            redimensionalize(curve, scenario)

    def test_radii_that_overflow_in_metres_are_refused(self):
        scenario = make_scenario(solubility=0.0, initial_concentration=1.0, diffusivity=1.0,
                                 initial_radius=1e154)
        eps = nondimensionalize(scenario).epsilon
        curve = RadiusCurve(MethodId.EXACT_QS, eps, [0.0, 1e-300], [1.0, 1e160])
        with pytest.raises(DomainError, match=r"^scenario: the curve's length 1e\+160 overflows"):
            redimensionalize(curve, scenario)

    def test_the_largest_finite_products_are_kept(self):
        scenario = make_scenario(initial_radius=1e149)
        eps = nondimensionalize(scenario).epsilon
        curve = RadiusCurve(MethodId.EXACT_QS, eps, [0.0, 50.0], [1.0, 0.5])
        out = redimensionalize(curve, scenario)
        assert out.times_s[-1] == 50.0 * nondimensionalize(scenario).time_scale < math.inf


MALFORMED = {
    "non-finite time": ([0.0, math.inf], [1.0, 0.9]),
    "non-finite radius": ([0.0, 1.0], [1.0, math.nan]),
    "times not increasing": ([0.0, 1.0, 1.0], [1.0, 0.9, 0.8]),
    "times decreasing": ([1.0, 0.0], [0.9, 1.0]),
    "negative radius": ([0.0, 1.0], [1.0, -0.5]),
    "radius rising in dissolution": ([0.0, 1.0, 2.0], [1.0, 0.5, 0.8]),
    "length mismatch": ([0.0, 1.0], [1.0]),
    "empty": ([], []),
}


class TestRadiusCurveFloatLists:
    """A curve of float lists is checked on builtins with the messages of the
    numpy checks, and builds its numpy arrays only when they are asked for."""

    @pytest.mark.parametrize("eps", [0.1, -0.1])
    @pytest.mark.parametrize("case", MALFORMED, ids=list(MALFORMED))
    def test_a_list_and_an_array_raise_the_same_message(self, case, eps):
        times, radii = MALFORMED[case]
        with pytest.raises(ValueError) as from_array:
            RadiusCurve(MethodId.EXACT_QS, eps, np.array(times), np.array(radii))
        with pytest.raises(ValueError, match=f"^{from_array.value}$"):
            RadiusCurve(MethodId.EXACT_QS, eps, times, radii)

    def test_growth_radius_falling_is_refused_alike(self):
        times, radii = [0.0, 1.0, 2.0], [1.0, 1.5, 1.2]
        with pytest.raises(ValueError) as from_array:
            RadiusCurve(MethodId.EXACT_QS, -0.1, np.array(times), np.array(radii))
        with pytest.raises(ValueError, match=f"^{from_array.value}$"):
            RadiusCurve(MethodId.EXACT_QS, -0.1, times, radii)

    @pytest.mark.parametrize("eps", [0.1, 0.0, -0.1])
    def test_valid_lists_give_the_arrays_of_their_input(self, eps):
        times = [0.0, 0.5, 1.0, 2.0]
        radii = [1.0, 1.0, 1.0 - 1e-8, 1.0] if eps == 0 else [1.0, 0.9, 0.9 + 5e-8, 0.7]
        radii = radii if eps >= 0 else [2.0 - r for r in radii]
        curve = RadiusCurve(MethodId.EXACT_QS, eps, times, radii)
        assert len(curve) == 4
        assert list(curve.samples) == list(zip(times, radii))
        assert isinstance(curve.times, np.ndarray) and isinstance(curve.radii, np.ndarray)
        np.testing.assert_array_equal(curve.times, np.asarray(times))
        np.testing.assert_array_equal(curve.radii, np.asarray(radii))
        assert curve.times.dtype == curve.radii.dtype == np.float64
        assert len(curve) == 4 and list(curve.samples) == list(zip(times, radii))

    def test_the_curve_keeps_its_own_copy(self):
        times, radii = [0.0, 1.0], [1.0, 0.9]
        curve = RadiusCurve(MethodId.EXACT_QS, 0.1, times, radii)
        times[1], radii[1] = -1.0, 5.0
        assert list(curve.samples) == [(0.0, 1.0), (1.0, 0.9)]
        assert curve.times.tolist() == [0.0, 1.0] and curve.radii.tolist() == [1.0, 0.9]

    def test_ints_and_nested_lists_take_the_numpy_path(self):
        curve = RadiusCurve(MethodId.EXACT_QS, 0.1, [0, 1], [1, 0.5])
        assert list(curve.samples) == [(0.0, 1.0), (1.0, 0.5)]
        with pytest.raises(ValueError, match="^times and radii must be 1-d arrays"):
            RadiusCurve(MethodId.EXACT_QS, 0.1, [[0.0, 1.0]], [[1.0, 0.9]])

    def test_unknown_attributes_still_raise(self):
        curve = RadiusCurve(MethodId.EXACT_QS, 0.1, [0.0, 1.0], [1.0, 0.9])
        with pytest.raises(AttributeError, match="no_such_field"):
            curve.no_such_field

    def test_a_copy_builds_its_own_arrays(self):
        curve = RadiusCurve(MethodId.EXACT_QS, 0.1, [0.0, 1.0], [1.0, 0.9])
        twin = copy.deepcopy(curve)
        assert twin.times.tolist() == [0.0, 1.0] and twin.radii.tolist() == [1.0, 0.9]
        assert list(curve.samples) == [(0.0, 1.0), (1.0, 0.9)]
