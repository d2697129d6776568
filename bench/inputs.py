"""Seeded inputs of the benchmark workloads.

Everything here is a pure function of the workload seed and imports nothing
from spherediss, so the library only ever sees the values returned here.
Times given as a fraction of the dissolution time are turned into absolute
times by the workload's untimed preparation step.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("closed-form", "pde-reference", "cli")

EXPLICIT_METHODS = ("qss", "small-time", "intuitive", "duda", "blended")
CURVE_SIZES = (256, 4096)

#: Radius queries per regime and pass; the mix is fixed so that the work of
#: a pass does not depend on the seed.
RADIUS_STRATA = (("growth", 1200), ("dissolution", 1200), ("supercritical", 600),
                 ("critical", 600), ("static", 400))
T0_STRATA = (("dissolution", 600), ("supercritical", 200), ("critical", 200))
CURVE_FAMILIES_PER_REGIME = 2
BLEND_T0_CALLS = 60
PROFILE_GRIDS = 40
PROFILE_POINTS = 400
ORACLE_SUBSAMPLE = 60

#: Moving-boundary cases: (name, central epsilon, relative jitter, density
#: ratio, end of run).  The end is ("t0", f) for f times the exact
#: dissolution time, ("t", T) for an absolute time, or None to run to the
#: radius floor.  Jitter stays small so the step count, and with it the
#: work of a pass, barely depends on the seed.
PDE_CASES = (
    ("7a", 0.001, 0.0, 1.0, ("t0", 0.9)),
    ("dissolve-to-floor", 0.1, 0.05, 1.0, None),
    ("dissolve-0.05-ratio-0.5", 0.05, 0.1, 0.5, ("t0", 0.8)),
    ("dissolve-0.25-ratio-2", 0.25, 0.1, 2.0, ("t0", 0.8)),
    ("dissolve-0.6-ratio-0.5", 0.6, 0.1, 0.5, ("t0", 0.7)),
    ("grow-0.1-ratio-0.5", -0.1, 0.1, 0.5, ("t", 30.0)),
    ("grow-0.025-ratio-2", -0.025, 0.1, 2.0, ("t", 50.0)),
    ("grow-0.1-ratio-2", -0.1, 0.1, 2.0, ("t", 100.0)),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _draw_epsilon(rng: random.Random, regime: str) -> float:
    if regime == "growth":
        return -_log_uniform(rng, 1e-3, 1.0)
    if regime == "dissolution":
        return _log_uniform(rng, 1e-3, 1.9)
    if regime == "supercritical":
        return rng.uniform(2.1, 10.0)
    return 2.0 if regime == "critical" else 0.0


def closed_form(seed: int) -> dict:
    """Point queries, curve requests, cold blended-t0 calls and profile grids.

    A radius query is ("radius", eps, x): x is a fraction of the exact
    dissolution time when eps > 0 (kept below 0.995, where the oracle's
    square-root cusp at extinction still resolves 1e-6) and an absolute
    time otherwise.  A dissolution-time query is ("t0", eps, None).
    """
    rng = _rng("closed-form", seed)
    queries = []
    for regime, count in RADIUS_STRATA:
        for _ in range(count):
            eps = _draw_epsilon(rng, regime)
            x = rng.uniform(1e-3, 0.995) if eps > 0 else _log_uniform(rng, 1e-3, 1e3)
            queries.append(("radius", eps, x))
    for regime, count in T0_STRATA:
        queries.extend(("t0", _draw_epsilon(rng, regime), None) for _ in range(count))
    rng.shuffle(queries)
    radius_indices = [i for i, q in enumerate(queries) if q[0] == "radius"]
    oracle_subsample = sorted(rng.sample(radius_indices, ORACLE_SUBSAMPLE))

    # curve families (eps, t_max, explicit methods) in every regime; the
    # blended fit only covers |eps| <= 0.5
    blend_free = tuple(m for m in EXPLICIT_METHODS if m != "blended")
    curves = []
    for _ in range(CURVE_FAMILIES_PER_REGIME):
        families = (
            (_log_uniform(rng, 5e-3, 0.5), None, EXPLICIT_METHODS),
            (rng.uniform(0.5, 1.9), None, blend_free),
            (-_log_uniform(rng, 5e-3, 0.5), _log_uniform(rng, 10.0, 400.0), EXPLICIT_METHODS),
            (rng.uniform(2.5, 8.0), None, blend_free),
            (2.0, None, blend_free),
            (0.0, _log_uniform(rng, 10.0, 400.0), ()),
        )
        for eps, t_max, methods in families:
            for method in ("exact",) + methods:
                curves.extend((method, eps, n, t_max) for n in CURVE_SIZES)

    blend_epsilons = [_log_uniform(rng, 1e-3, 0.5) for _ in range(BLEND_T0_CALLS)]
    profiles = [
        (rng.uniform(0.2, 3.0), _log_uniform(rng, 1e-3, 1e3)) for _ in range(PROFILE_GRIDS)
    ]
    return {
        "queries": queries,
        "oracle_subsample": oracle_subsample,
        "curves": curves,
        "blend_epsilons": blend_epsilons,
        "profiles": profiles,
    }


def pde_reference(seed: int) -> list[dict]:
    """The moving-boundary solves of one pass, with seeded epsilon jitter."""
    rng = _rng("pde-reference", seed)
    return [
        {
            "name": name,
            "epsilon": eps * (1.0 + jitter * rng.uniform(-1.0, 1.0)),
            "density_ratio": ratio,
            "end": end,
        }
        for name, eps, jitter, ratio, end in PDE_CASES
    ]


def cli(seed: int) -> list[dict]:
    """Eight CLI invocations; five never need scipy, three run the ODE oracle.

    Each entry names the subcommand, its arguments (floats at full
    precision), and for ``invert`` the query time as a fraction of t0.
    """
    rng = _rng("cli", seed)
    num = repr
    table = sorted((_log_uniform(rng, 1e-4, 1.5) for _ in range(9)), reverse=True)
    cs = rng.uniform(0.5, 5.0)
    growth = -_log_uniform(rng, 5e-3, 0.5)
    return [
        {"command": "invert", "epsilon": _log_uniform(rng, 1e-3, 1.9),
         "fraction": rng.uniform(0.05, 0.95)},
        {"command": "t0-table", "argv": ["--epsilons", ",".join(num(e) for e in table)]},
        {"command": "curve", "argv": ["--epsilon", num(_log_uniform(rng, 1e-3, 1.9)),
                                      "--method", "exact", "--samples", "256"]},
        {"command": "curve", "argv": ["--epsilon", num(_log_uniform(rng, 5e-3, 0.5)),
                                      "--method", "blended", "--samples", "256"]},
        {"command": "curve", "argv": ["--epsilon", num(_log_uniform(rng, 1e-2, 1.0)),
                                      "--method", "ode", "--samples", "200"]},
        {"command": "compare", "argv": ["--epsilon", num(_log_uniform(rng, 1e-3, 0.5)),
                                        "--methods", "exact,qss,duda,intuitive,ode"]},
        {"command": "nondim", "argv": [
            "--cs", num(cs), "--c0", num(cs * rng.uniform(0.0, 0.9)),
            "--rho-p", num(rng.uniform(1000.0, 3000.0)),
            "--rho-m", num(rng.uniform(800.0, 1200.0)),
            "--d", num(_log_uniform(rng, 1e-10, 1e-8)),
            "--r0", num(_log_uniform(rng, 1e-7, 1e-5))]},
        {"command": "compare", "argv": [
            "--epsilon", num(growth), "--methods", "exact,qss,duda,intuitive,blended,ode",
            "--t-max", num(_log_uniform(rng, 10.0, 400.0)), "--format", "json"]},
    ]


def generate(workload: str, seed: int):
    """Inputs of one workload for one seed."""
    return {"closed-form": closed_form, "pde-reference": pde_reference, "cli": cli}[workload](seed)
