"""``curves.bisect``, the one bracket-halving loop, and the three searches built on it.

Each search (the blended formula's dissolution time, the moving-boundary
solver's radius-floor stop, the PDE grid's stretching ratio) once had a loop
of its own.  Those loops are kept here as ``_seed_*``
references, and every search must return their bits.
"""

import math

import numpy as np
import pytest

from spherediss import DomainError, PdeConfig, solve_moving_boundary
from spherediss import _bdf, approx, pde
from spherediss.curves import array_ops, bisect, dissolution_time


def _budget(above, calls=2000):
    """``above`` that counts its calls and fails past ``calls`` (a loop that never stops)."""
    def counted(x):
        counted.calls += 1
        assert counted.calls <= calls, "the bisection did not stop"
        return above(x)
    counted.calls = 0
    return counted


class TestBisect:
    def test_lo_keeps_the_side_where_above_holds(self):
        for above, level in [(lambda x: x < 0.3, 0.3), (lambda x: x * x < 2.0, math.sqrt(2.0))]:
            lo, hi = bisect(above, 0.0, 2.0, 1e-9)
            assert above(lo) and not above(hi)
            assert lo <= level <= hi

    def test_stops_at_xtol(self):
        above = _budget(lambda x: x < 0.3)
        lo, hi = bisect(above, 0.0, 1.0, 0.1)
        # widths 1, 1/2, 1/4, 1/8 > 0.1 >= 1/16: four halvings
        assert (lo, hi) == (0.25, 0.3125)
        assert above.calls == 4

    @pytest.mark.parametrize("lo,hi,xtol", [(1.0, 2.0, 0.0), (1e10, 2e10, 1e-30),
                                            (-1.0, 1e-300, 0.0), (5e-324, 1.5e-323, 0.0)])
    def test_stops_on_adjacent_floats(self, lo, hi, xtol):
        level = 0.5 * lo + 0.5 * hi  # inside the bracket, and where the loop has to go
        above = _budget(lambda x: x < level)
        lo, hi = bisect(above, lo, hi, xtol)
        assert hi == math.nextafter(lo, math.inf)
        assert above(lo) and not above(hi)

    def test_stops_when_lo_equals_hi(self):
        above = _budget(lambda x: True)
        assert bisect(above, 1.5, 1.5) == (1.5, 1.5)
        assert bisect(above, 1.5, 1.5, 1e-3) == (1.5, 1.5)
        assert above.calls == 0


def _seed_solve_stretch_ratio(span, cells, h0):
    if h0 * cells >= span:
        return 1.0
    lo, hi = 1.0 + 1e-12, 4.0

    def total(q):
        if cells * math.log(q) > 500.0:
            return math.inf
        return h0 * (q**cells - 1.0) / (q - 1.0)

    if not total(hi) > span:
        raise DomainError(
            "nodes",
            f"{cells + 1} nodes cannot span [1, {1 + span:.3g}] while resolving the "
            f"startup profile (first cell {h0:.3g}); increase nodes",
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total(mid) < span:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _seed_blended_t0(eps):
    t_cap = dissolution_time(eps, lambda e: 0.5 / e, "blended")
    alpha = approx.blend_alpha(eps)
    roots = np.linspace(0.0, math.sqrt(t_cap), approx._BLEND_SCAN_POINTS + 1)
    radicand = approx._blend_radicand(eps, alpha, roots[1:] ** 2, array_ops())
    crossed = np.flatnonzero(radicand <= 0.0)
    lo, hi = roots[crossed[0]] ** 2, roots[crossed[0] + 1] ** 2
    tol = approx._BLEND_T0_REL_TOL * max(1.0, t_cap)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if approx._blend_radicand(eps, alpha, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _seed_bdf_floor(above, lo, hi):
    """The moving-boundary solver's floor time: the side where R has reached the floor."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _outcome(fn, *args):
    try:
        return np.float64(fn(*args)).tobytes()
    except DomainError as exc:
        return str(exc)


class TestSearchesMatchTheirOwnLoops:
    @pytest.mark.parametrize("nodes", [100, 241, 481, 961, 1921])
    def test_stretch_ratio(self, nodes):
        rng = np.random.default_rng(nodes)
        h0s = [1e-4, 1e-3, *10.0 ** rng.uniform(-6.0, -1.0, 2)]
        cases = 0
        for rhat_max in [10.0, 30.0, 100.0, 1e3, 1e4, 1e5]:
            for h0 in h0s:
                span, cells = rhat_max - 1.0, nodes - 1
                expected = _outcome(_seed_solve_stretch_ratio, span, cells, h0)
                assert _outcome(pde._solve_stretch_ratio, span, cells, h0) == expected
                cases += isinstance(expected, bytes) and expected != np.float64(1.0).tobytes()
        assert cases >= 6  # most cases reach the bisection

    def test_blended_t0(self):
        rng = np.random.default_rng(400)
        epsilons = [*np.geomspace(1e-4, 0.5, 200), *10.0 ** rng.uniform(-4.0, math.log10(0.5), 200)]
        approx.blended_t0.cache_clear()
        for eps in map(float, epsilons):
            assert _outcome(approx.blended_t0, eps) == _outcome(_seed_blended_t0, eps), eps

    @pytest.mark.parametrize("eps,ratio,min_radius", [(0.1, 1.0, None), (1.0, 1.0, 0.5),
                                                      (0.5, 1.0, 0.3), (0.3, 0.5, 0.2)])
    def test_bdf_floor_time(self, monkeypatch, eps, ratio, min_radius):
        calls = []

        def recording(above, lo, hi, xtol=0.0):
            calls.append((above, lo, hi, xtol))
            return bisect(above, lo, hi, xtol)

        monkeypatch.setattr(_bdf, "bisect", recording)
        config = PdeConfig() if min_radius is None else PdeConfig(min_radius=min_radius)
        result = solve_moving_boundary(eps, ratio, config)
        (above, lo, hi, xtol), = calls
        assert result.stopped_on == "min_radius" and xtol == 0.0
        t_floor = _seed_bdf_floor(above, lo, hi)
        assert np.float64(result.curve.times[-1]).tobytes() == np.float64(t_floor).tobytes()
        assert result.curve.radii[-1] <= config.min_radius
