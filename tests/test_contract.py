"""The query contract of ``spherediss.curves``, seen from every layer.

Each rule (a valid epsilon, taken as the Python float it holds, valid times, no
time past t0, when a dissolution time exists, when an end time is required,
where a sampled curve ends) is written once, so every layer that answers a query
refuses the same input with the same one-line message, every sampled curve ends
at the same time, and a numpy number gives what its Python float gives.
"""

import math
import warnings

import numpy as np
import pytest

from spherediss import (
    DimensionlessProblem,
    DomainError,
    MethodId,
    PastDissolutionError,
    PdeConfig,
    PhysicalScenario,
    RadiusCurve,
    approx_curve,
    approx_radius,
    approx_t0,
    blend_alpha,
    blended_t0,
    branch_exponent,
    classify_regime,
    concentration_profile,
    duda_t0,
    exact_curve,
    extinction_parameter,
    integrate_radius,
    intuitive_t0,
    nondimensionalize,
    param_point_critical,
    param_point_dissolution,
    param_point_growth,
    param_point_supercritical,
    radius_at,
    solve_moving_boundary,
    time_to_dissolution,
)
from spherediss.cli import main

EXPLICIT_METHODS = [MethodId.QSS, MethodId.SMALL_TIME, MethodId.INTUITIVE,
                    MethodId.DUDA_VRENTAS, MethodId.BLENDED]
T0_METHODS = [MethodId.EXACT_QS] + EXPLICIT_METHODS


def _message(call) -> str:
    with pytest.raises(DomainError) as info:
        call()
    return str(info.value)


@pytest.fixture(scope="module")
def ode_run():
    return integrate_radius(0.1)


class TestTimes:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("as_array", [False, True], ids=["float", "array"])
    def test_every_layer_refuses_a_bad_time_alike(self, ode_run, bad, as_array):
        t = np.array([0.5, bad, 0.25]) if as_array else bad
        expected = f"t: must be a non-negative finite time, got {bad!r}"
        queries = [lambda: radius_at(0.1, t), lambda: radius_at(-0.2, t),
                   lambda: radius_at(0.0, t), lambda: ode_run.radius_at(t)]
        queries += [lambda m=m: approx_radius(m, 0.1, t) for m in EXPLICIT_METHODS]
        for query in queries:
            assert _message(query) == expected

    @pytest.mark.parametrize("method", [MethodId.EXACT_QS, MethodId.QSS, MethodId.INTUITIVE,
                                        MethodId.DUDA_VRENTAS])
    def test_past_t0_allows_only_rounding(self, method):
        def query(t):
            if method is MethodId.EXACT_QS:
                return radius_at(0.1, t)
            return approx_radius(method, 0.1, t)

        t0 = approx_t0(method, 0.1)
        assert query(t0 * (1.0 + 5e-13)) == 0.0
        assert query(np.array([0.0, t0 * (1.0 + 5e-13)]))[-1] == 0.0
        for late in (t0 * (1.0 + 1e-11), np.array([0.0, t0 * (1.0 + 1e-11)])):
            with pytest.raises(PastDissolutionError) as info:
                query(late)
            assert (info.value.t0, info.value.method) == (t0, method.value)

    @pytest.mark.parametrize("method", [MethodId.EXACT_QS, MethodId.QSS])
    def test_past_t0_message_tells_the_two_times_apart(self, method):
        # a time one part in 1e11 past t0 still reads differently from t0, for a float or an array
        t0 = approx_t0(method, 0.1)
        late = t0 * (1.0 + 1e-11)
        for query in (late, np.array([0.0, late])):
            with pytest.raises(PastDissolutionError) as info:
                if method is MethodId.EXACT_QS:
                    radius_at(0.1, query)
                else:
                    approx_radius(method, 0.1, query)
            assert str(info.value) == (f"t: t={late!r} is past the {method.value} "
                                       f"complete-dissolution time t0={t0!r}")


class TestDissolutionTime:
    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_no_t0_without_dissolution(self, eps):
        entries = [lambda: time_to_dissolution(eps), lambda: intuitive_t0(eps),
                   lambda: duda_t0(eps), lambda: blended_t0(eps)]
        entries += [lambda m=m: approx_t0(m, eps) for m in T0_METHODS]
        for entry in entries:
            assert _message(entry) == "epsilon: dissolution never completes for epsilon <= 0"

    def test_overflowing_t0_is_refused_by_every_entry(self):
        eps = 1e-320
        entries = {
            "exact": [lambda: time_to_dissolution(eps)],
            "intuitive": [lambda: intuitive_t0(eps)],
            "duda": [lambda: duda_t0(eps)],
            "blended": [lambda: blended_t0(eps)],
            "ode": [lambda: integrate_radius(eps)],
            "pde": [lambda: solve_moving_boundary(eps, 1.0)],  # its default horizon
        }
        for method in T0_METHODS:
            entries.setdefault(method.value, []).append(lambda m=method: approx_t0(m, eps))
        for name, calls in entries.items():
            for entry in calls:
                assert _message(entry) == (
                    f"epsilon: 1e-320 is too small: the {name} dissolution time overflows")


class TestEndTimes:
    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_an_end_is_required_without_dissolution(self, eps):
        for param, entry in [("t_max", lambda: exact_curve(eps, 8)),
                             ("t_end", lambda: integrate_radius(eps)),
                             ("t_end", lambda: solve_moving_boundary(eps, 1.0))]:
            assert _message(entry) == (
                f"{param}: required for epsilon <= 0 (no finite endpoint)")

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_an_end_must_be_positive_and_finite(self, bad):
        for param, entry in [("t_max", lambda: exact_curve(0.1, 8, bad)),
                             ("t_end", lambda: integrate_radius(0.1, bad))]:
            assert _message(entry) == f"{param}: must be positive, got {bad!r}"

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_a_non_finite_epsilon_is_refused_alike(self, eps):
        for entry in [lambda: exact_curve(eps, 8, 1.0), lambda: integrate_radius(eps, 1.0),
                      lambda: solve_moving_boundary(eps, 1.0, PdeConfig(t_end=1.0)),
                      lambda: radius_at(eps, 1.0), lambda: time_to_dissolution(eps),
                      lambda: approx_t0(MethodId.QSS, eps), lambda: classify_regime(eps),
                      lambda: branch_exponent(eps), lambda: extinction_parameter(eps),
                      lambda: param_point_dissolution(eps, 2.0),
                      lambda: param_point_growth(eps, 2.0),
                      lambda: param_point_supercritical(eps, 2.0),
                      lambda: DimensionlessProblem(eps, 1.0, 1.0)]:
            assert _message(entry) == "epsilon: must be finite"

    @pytest.mark.parametrize("eps,t_max", [(0.1, None), (0.1, 1.0), (0.1, 100.0), (-0.2, 2.0)])
    def test_every_curve_ends_at_t0_or_t_max_whichever_comes_first(self, capsys, eps, t_max):
        def end(t0):  # t0() is the method's dissolution time, asked for eps > 0 only
            # each grid ends an ulp or two from t_end: at sqrt(t_end)^2 or at t(g) of its offset
            return pytest.approx(min(t0() if eps > 0 else math.inf, t_max or math.inf), rel=1e-15)

        assert exact_curve(eps, 8, t_max).times[-1] == end(lambda: time_to_dissolution(eps))
        for method in EXPLICIT_METHODS:
            curve = approx_curve(method, eps, 8, t_max)
            assert curve.times[-1] == end(lambda: approx_t0(method, eps))
        # compare ends at the earliest t0 of the exact and the explicit methods it shows
        commands = {("curve", "--method", "ode"): lambda: integrate_radius(eps).dissolution_time,
                    ("compare", "--methods", "exact,duda,ode"):
                        lambda: min(time_to_dissolution(eps), duda_t0(eps))}
        for argv, t0 in commands.items():
            extra = [] if t_max is None else ["--t-max", repr(t_max)]
            assert main([*argv, "--epsilon", repr(eps), "--samples", "8", "--raw", *extra]) == 0
            rows = [line for line in capsys.readouterr().out.splitlines() if line[0] != "#"]
            assert float(rows[-1].split(",")[0]) == end(t0)

    @pytest.mark.parametrize("eps", [0.1, -0.2])
    def test_too_early_an_end_is_refused_alike(self, capsys, eps):
        expected = ("t_max: the curve ends at t=1e-310, too early to sample from ten decades "
                    "before (below 2.07e-317)")
        entries = [lambda: exact_curve(eps, 8, 1e-310)]
        entries += [lambda m=m: approx_curve(m, eps, 8, 1e-310) for m in EXPLICIT_METHODS]
        for entry in entries:
            assert _message(entry) == expected
        for argv in (["curve", "--method", "ode"], ["compare", "--methods", "exact,duda,ode"]):
            assert main([*argv, "--epsilon", repr(eps), "--t-max", "1e-310"]) == 3
            assert capsys.readouterr() == ("", expected + "\n")


def _outcome(make, value):
    """What ``make(value)`` gives, with every warning an error: a curve's epsilon
    (by repr, which tells a numpy scalar from a float), samples and metadata, or
    the repr of any other result.  An exception propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = make(value)
    if isinstance(got, RadiusCurve):
        return repr(got.epsilon), got.times.tolist(), got.radii.tolist(), got.metadata
    return repr(got)


def _refusal(make, value):
    """The type and message of what ``make(value)`` raises, with every warning an
    error; fails if it raises nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Exception) as caught:
            make(value)
    return type(caught.value), str(caught.value)


def _scenario(solubility=1.0, diffusivity=1e-9, initial_radius=2e-6):
    return nondimensionalize(PhysicalScenario(solubility, 0.0, 1000.0, 1000.0, diffusivity,
                                              initial_radius))


#: Entries refusing epsilon at a tiny or huge value, where a numpy scalar's own arithmetic
#: overflows or warns: each with the epsilon that shows it.
EDGE_ENTRIES = [
    ("approx_t0-small-time", lambda e: approx_t0(MethodId.SMALL_TIME, e), 1e-200),
    ("approx_t0-qss", lambda e: approx_t0(MethodId.QSS, e), 1e-320),
    ("approx_t0-intuitive", lambda e: approx_t0(MethodId.INTUITIVE, e), 1e-320),
    ("approx_t0-duda", lambda e: approx_t0(MethodId.DUDA_VRENTAS, e), 1e-320),
    ("approx_t0-blended", lambda e: approx_t0(MethodId.BLENDED, e), 1e-320),
    ("blended_t0-tiny", blended_t0, 1e-320),
    ("approx_curve-tiny", lambda e: approx_curve(MethodId.QSS, e, 8), 1e-320),
    ("approx_radius-qss-huge", lambda e: approx_radius(MethodId.QSS, e, 1e300), -1e300),
    ("approx_radius-duda-huge", lambda e: approx_radius(MethodId.DUDA_VRENTAS, e, 1e300), -1e300),
    ("time_to_dissolution-tiny", time_to_dissolution, 1e-320),
    ("exact_curve-tiny", lambda e: exact_curve(e, 8), 1e-320),
]

#: Entries taking epsilon at an ordinary value, one per entry and regime.
EPSILON_ENTRIES = [
    *[(f"approx_radius-{m.value}", lambda e, m=m: approx_radius(m, e, 0.5), 0.1)
      for m in EXPLICIT_METHODS],
    *[(f"t0-{m.value}", lambda e, m=m: approx_t0(m, e), 0.1) for m in T0_METHODS],
    *[(f"approx_curve-{m.value}", lambda e, m=m: approx_curve(m, e, 8), 0.1)
      for m in EXPLICIT_METHODS],
    ("blend_alpha", blend_alpha, 0.05),
    ("blend_alpha-growth", blend_alpha, -0.3),
    ("blended_t0", blended_t0, 0.05),
    ("radius_at-dissolution", lambda e: radius_at(e, 0.5), 0.1),
    ("radius_at-growth", lambda e: radius_at(e, 0.5), -0.1),
    ("radius_at-array", lambda e: radius_at(e, np.array([0.5])).tolist(), 0.1),
    ("time_to_dissolution", time_to_dissolution, 3.0),
    ("exact_curve", lambda e: exact_curve(e, 8), 0.1),
    ("param_point_dissolution", lambda e: param_point_dissolution(e, 2.0), 0.1),
    ("param_point_growth", lambda e: param_point_growth(e, 2.0), -0.1),
    ("param_point_supercritical", lambda e: param_point_supercritical(e, 2.0), 3.0),
    ("classify_regime", classify_regime, 0.1),
    ("branch_exponent", branch_exponent, 0.1),
    ("extinction_parameter", extinction_parameter, 0.1),
    ("DimensionlessProblem", lambda e: DimensionlessProblem(e, 1.0, 1.0), 0.1),
    ("RadiusCurve", lambda e: RadiusCurve(MethodId.QSS, e, [0.0, 1.0], [1.0, 0.5]), 0.1),
    ("integrate_radius", lambda e: integrate_radius(e).curve, 0.1),
]

#: Entries taking another scalar, with a numpy argument and the Python one it holds.
SCALAR_ENTRIES = [
    ("scenario-epsilon", lambda v: _scenario(solubility=v), np.float64(2.0), 2.0),
    ("scenario-float32", lambda v: _scenario(solubility=v), np.float32(2.0), 2.0),
    ("scenario-int64", lambda v: _scenario(solubility=v), np.int64(2), 2),
    ("param", lambda p: param_point_dissolution(0.1, p), np.float32(2.0), 2.0),
    ("param-critical", param_point_critical, np.float64(0.5), 0.5),
    ("profile", lambda v: concentration_profile(*v),
     (np.float64(1.0), np.float64(1.0), np.float64(1.5)), (1.0, 1.0, 1.5)),
    ("profile-float32", lambda v: concentration_profile(*v),
     (np.float32(0.5), np.float32(0.125), np.float32(0.75)), (0.5, 0.125, 0.75)),
]

#: Entries refusing another scalar, as ``SCALAR_ENTRIES``.
SCALAR_REFUSALS = [
    ("scenario-overflow", lambda v: _scenario(diffusivity=v[0], initial_radius=v[1]),
     (np.float64(1e-300), np.float64(1e200)), (1e-300, 1e200)),
    ("param-refused", lambda p: param_point_growth(-0.1, p), np.float64(1.0), 1.0),
    ("profile-refused", lambda v: concentration_profile(*v),
     (np.float64(1.0), np.float64(-1.0), np.float64(1.5)), (1.0, -1.0, 1.5)),
    ("profile-inside", lambda v: concentration_profile(*v),
     (np.float64(1.0), np.float64(1.0), np.float64(0.5)), (1.0, 1.0, 0.5)),
]


class TestNumpyNumbers:
    """A numpy scalar is taken as the Python float or int it holds."""

    @staticmethod
    def _same(make, numpy_value, python_value):
        assert _outcome(make, numpy_value) == _outcome(make, python_value)

    @staticmethod
    def _same_refusal(make, numpy_value, python_value):
        assert _refusal(make, numpy_value) == _refusal(make, python_value)

    @pytest.mark.parametrize("make,eps", [entry[1:] for entry in EDGE_ENTRIES],
                             ids=[entry[0] for entry in EDGE_ENTRIES])
    def test_a_numpy_epsilon_at_the_edges_is_refused_as_its_float(self, make, eps):
        self._same_refusal(make, np.float64(eps), eps)

    @pytest.mark.parametrize("make,eps", [entry[1:] for entry in EPSILON_ENTRIES],
                             ids=[entry[0] for entry in EPSILON_ENTRIES])
    @pytest.mark.parametrize("numpy_type", [np.float64, np.float32])
    def test_a_numpy_epsilon_gives_what_its_float_gives(self, make, eps, numpy_type):
        value = numpy_type(eps)
        self._same(make, value, float(value))

    @pytest.mark.parametrize("make,numpy_value,python_value",
                             [entry[1:] for entry in SCALAR_ENTRIES],
                             ids=[entry[0] for entry in SCALAR_ENTRIES])
    def test_a_numpy_scalar_gives_what_its_float_gives(self, make, numpy_value, python_value):
        self._same(make, numpy_value, python_value)

    @pytest.mark.parametrize("make,numpy_value,python_value",
                             [entry[1:] for entry in SCALAR_REFUSALS],
                             ids=[entry[0] for entry in SCALAR_REFUSALS])
    def test_a_numpy_scalar_is_refused_as_its_float(self, make, numpy_value, python_value):
        self._same_refusal(make, numpy_value, python_value)

    def test_a_numpy_epsilon_runs_as_its_float(self):
        eps = np.float32(0.1)
        self._same(lambda e: integrate_radius(e).curve, eps, float(eps))
        self._same(lambda args: solve_moving_boundary(*args, PdeConfig(t_end=0.01)).curve,
                   (eps, np.float32(0.5)), (float(eps), 0.5))

    def test_a_numpy_count_runs_as_its_int(self):
        self._same(lambda n: exact_curve(0.1, n), np.int64(4), 4)
        self._same(lambda n: approx_curve(MethodId.QSS, 0.1, n), np.int64(4), 4)
        self._same(lambda n: solve_moving_boundary(0.1, 1.0, PdeConfig(nodes=n, t_end=0.01)).curve,
                   np.int64(150), 150)
        # a count that is not an integer is still refused
        assert _message(lambda: exact_curve(0.1, np.float64(4.0))) == (
            "n: need at least 2 samples, got np.float64(4.0)")
        assert _message(lambda: PdeConfig(nodes=np.float64(150.0))) == (
            "nodes: need at least 100 nodes, got np.float64(150.0)")
