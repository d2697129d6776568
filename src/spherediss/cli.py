"""Command-line front end: curve generation, radius inversion, dissolution-time
tables, method comparison, the moving-boundary reference solver, and
physical-unit conversion.

Output is CSV (default) or JSON, to stdout or a file.  Display columns carry
6 significant digits; ``--raw`` switches to full float precision.  ``pde``
prints its JSON summary on stdout; its ``--output`` curve follows
``--format``/``--raw`` like every other command, and its snapshot files are
always full-precision CSV.  The ODE oracle runs at the constants of
``ode`` and the moving-boundary solver at ``PdeConfig``'s defaults, apart
from what ``pde``'s flags set.  Exit codes: 0 success, 2 argument error,
3 domain error (a value outside some formula's validity range), with a one-line
``argument: message`` diagnostic on stderr; an ``--output`` or
``--snapshot-prefix`` path that cannot be written is an argument error, and
a solver that cannot finish its run is exit 3 with a one-line
``solver: message``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import __version__, approx, exact, model
from .curves import MethodId, RadiusCurve, check_grid, check_span
from .errors import DomainError, IntegrationError


def _pde_run(eps: float, rho_ratio: float, snapshot_times=(), **fields):
    """The moving-boundary solve; a field given as None keeps ``PdeConfig``'s default."""
    from . import pde
    config = pde.PdeConfig(**{name: value for name, value in fields.items() if value is not None})
    return pde.solve_moving_boundary(eps, rho_ratio, config, snapshot_times=snapshot_times)


@dataclass(frozen=True)
class ReportRow:
    """One dissolution-time table row with relative errors in percent."""

    epsilon: float
    t0_exact: float
    t0_qss: float
    t0_intuitive: float
    rel_err_qss: float
    rel_err_intuitive: float


def t0_table(epsilons: list[float]) -> list[ReportRow]:
    """Exact and approximate complete-dissolution times with relative errors."""
    rows = []
    for eps in epsilons:
        if not 0.0 < eps < 2.0:
            raise DomainError("epsilons", f"table entries need 0 < epsilon < 2, got {eps:g}")
        t0 = exact.time_to_dissolution(eps)
        qss = approx.approx_t0(MethodId.QSS, eps)
        intuitive = approx.approx_t0(MethodId.INTUITIVE, eps)
        rows.append(ReportRow(epsilon=eps, t0_exact=t0, t0_qss=qss, t0_intuitive=intuitive,
                              rel_err_qss=100.0 * (qss - t0) / t0,
                              rel_err_intuitive=100.0 * (intuitive - t0) / t0))
    return rows


def _fmt(value: float | str, raw: bool) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value)) if raw else f"{value:.6g}"


def _csv(meta: dict, columns: list[str], rows, raw: bool, summary: dict | None = None) -> str:
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(v, raw) for v in row) for row in rows]
    lines += [f"# summary {key}={value}" for key, value in (summary or {}).items()]
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class _PathError(Exception):
    """An output path that cannot be written: an argument error, exit code 2."""


def _write(path: str | None, text: str, param: str = "output") -> None:
    """The one writer of output text: to ``path``, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _PathError(f"{param}: cannot write {path!r}: {exc.strerror or exc}") from None


def _emit(args, meta: dict, columns: list[str], rows: list[list[float]],
          summary: dict | None = None) -> None:
    if args.format == "json":
        payload = {"metadata": meta, "columns": columns, "data": rows}
        if summary is not None:
            payload["summary"] = summary
        text = _json(payload)
    else:
        text = _csv(meta, columns, rows, args.raw, summary)
    _write(args.output, text)


def _parse_method(name: str) -> MethodId:
    try:
        return MethodId.from_string(name)
    except ValueError as exc:
        raise DomainError("method", str(exc)) from None


def _method_curve(method: MethodId, eps: float, n: int, t_max: float | None) -> RadiusCurve:
    if method is MethodId.EXACT_QS:
        return exact.exact_curve(eps, n, t_max)
    if method is MethodId.ODE_ORACLE:
        import numpy as np
        from . import ode
        check_grid(eps, n, t_max)
        run = ode.integrate_radius(eps, t_end=t_max)
        t_end = min(run.t_end, t_max) if t_max is not None else run.t_end
        check_span(t_end, t_max)
        times = np.linspace(0.0, math.sqrt(t_end), n) ** 2
        return RadiusCurve(method, eps, times, run.radius_at(times), {"samples": n, "t_max": t_max})
    if method is MethodId.PDE_REFERENCE:
        raise DomainError("method", "use the 'pde' subcommand (needs --rho-ratio and a mesh)")
    return approx.approx_curve(method, eps, n, t_max)


def _base_meta(**extra) -> dict:
    return {"generator": f"spherediss {__version__}", **extra}


def _cmd_curve(args) -> None:
    method = _parse_method(args.method)
    curve = _method_curve(method, args.epsilon, args.samples, args.t_max)
    meta = _base_meta(epsilon=args.epsilon, method=method.value, samples=args.samples)
    rows = [[t, r] for t, r in zip(curve.times, curve.radii)]
    _emit(args, meta, ["t", method.value], rows)


def _cmd_invert(args) -> None:
    radius = exact.radius_at(args.epsilon, args.t)
    meta = _base_meta(epsilon=args.epsilon)
    _emit(args, meta, ["t", "R"], [[args.t, radius]])


def _cmd_t0_table(args) -> None:
    epsilons = _parse_float_list(args.epsilons, "epsilons")
    rows = t0_table(epsilons)
    meta = _base_meta()
    raw = args.raw

    def err(value: float) -> float:
        return value if raw else float(f"{value:.1f}")

    data = [
        [r.epsilon, r.t0_exact, r.t0_qss, err(r.rel_err_qss), r.t0_intuitive,
         err(r.rel_err_intuitive)]
        for r in rows
    ]
    _emit(args, meta, ["epsilon", "t0_exact", "t0_qss", "rel_err_qss_pct",
                       "t0_intuitive", "rel_err_intuitive_pct"], data)


def _cmd_compare(args) -> None:
    import numpy as np
    eps = args.epsilon
    methods = [_parse_method(name.strip()) for name in args.methods.split(",") if name.strip()]
    if not methods:
        raise DomainError("methods", "need at least one method")
    n = args.samples
    check_grid(eps, n, args.t_max)

    # the grid ends at --t-max or at the earliest dissolution time, whichever comes first;
    # the exact column is always filled, so the exact t0 is one of them
    ends = [] if args.t_max is None else [args.t_max]
    if eps > 0:
        ends += [approx.approx_t0(MethodId.EXACT_QS, eps)] + [
            approx.approx_t0(method, eps) for method in methods
            if method not in (MethodId.ODE_ORACLE, MethodId.PDE_REFERENCE)
        ]
    t_end = min(ends)
    check_span(t_end, args.t_max)

    times = np.linspace(math.sqrt(t_end) / n, math.sqrt(t_end), n) ** 2
    exact_values = exact.radius_at(eps, times)

    columns: dict[str, np.ndarray] = {}
    for method in methods:
        if method is MethodId.EXACT_QS:
            values = exact_values
        elif method is MethodId.ODE_ORACLE:
            from . import ode
            run = ode.integrate_radius(eps, t_end=None if eps > 0 else float(times[-1]))
            # the run's own t0 may fall short of the exact one the grid ends at: R = 0 there
            dissolved = run.dissolution_time
            values = run.radius_at(times if dissolved is None else np.minimum(times, dissolved))
        elif method is MethodId.PDE_REFERENCE:
            result = _pde_run(eps, args.rho_ratio, t_end=float(times[-1]) * 1.0000001,
                              min_radius=0.02)
            pde_t, pde_r = result.curve.times, result.curve.radii
            values = np.where(times <= pde_t[-1], np.interp(times, pde_t, pde_r), np.nan)
        else:
            values = approx.approx_radius(method, eps, times)
        columns[method.value] = values

    summary = {}
    for name, values in columns.items():
        valid = np.isfinite(values)
        deviation = np.abs(values[valid] - exact_values[valid])
        summary[f"max_abs_dev_{name}"] = float(np.max(deviation)) if deviation.size else math.nan
        summary[f"rms_dev_{name}"] = (
            float(np.sqrt(np.mean(deviation**2))) if deviation.size else math.nan
        )

    meta = _base_meta(epsilon=eps, methods=",".join(m.value for m in methods), samples=n)
    header = ["t"] + [m.value for m in methods]
    rows = [[times[i]] + [float(columns[m.value][i]) for m in methods]
            for i in range(times.size)]
    _emit(args, meta, header, rows, summary=summary)


def _cmd_pde(args) -> None:
    import numpy as np
    snapshot_times = _parse_float_list(args.snapshot_times, "snapshot-times") \
        if args.snapshot_times else []
    result = _pde_run(args.epsilon, args.rho_ratio, snapshot_times, nodes=args.nodes,
                      t_end=args.t_end, min_radius=args.min_radius)
    curve = result.curve

    # deviation from the exact quasi-stationary radius at the sampled times
    deviations = []
    for t, radius in zip(curve.times, curve.radii):
        try:
            deviations.append(abs(radius - exact.radius_at(args.epsilon, t)))
        except DomainError:
            break
    deviations = np.asarray(deviations)

    summary = {
        "epsilon": args.epsilon,
        "density_ratio": args.rho_ratio,
        "mesh": {
            "nodes": curve.metadata["nodes"],
            "rhat_max": curve.metadata["rhat_max"],
            "stretch_ratio": curve.metadata["stretch_ratio"],
        },
        "final_time": float(curve.times[-1]),
        "final_radius": float(curve.radii[-1]),
        "stopped_on": result.stopped_on,
        "error_vs_exact": {
            "max_abs": float(np.max(deviations)) if deviations.size else None,
            "rms": float(np.sqrt(np.mean(deviations**2))) if deviations.size else None,
        },
    }

    if args.output:
        rows = [[t, r] for t, r in zip(curve.times, curve.radii)]
        _emit(args, _base_meta(epsilon=args.epsilon, method="pde",
                               rho_ratio=args.rho_ratio), ["t", "pde"], rows)
    for index, field in enumerate(result.snapshots):
        meta = {"t": field.t, "radius": field.radius, "density_ratio": field.density_ratio}
        _write(f"{args.snapshot_prefix}_{index:03d}.csv",
               _csv(meta, ["rhat", "C"], zip(field.rhat, field.concentration), raw=True),
               "snapshot-prefix")
    _write(None, _json(summary))


def _cmd_nondim(args) -> None:
    scenario = model.PhysicalScenario(
        solubility=args.cs,
        initial_concentration=args.c0,
        particle_density=args.rho_p,
        medium_density=args.rho_m,
        diffusivity=args.d,
        initial_radius=args.r0,
    )
    problem = model.nondimensionalize(scenario)
    meta = _base_meta()
    if args.format == "json":  # a flat record, not the columns/data table of _emit
        _write(args.output, _json({
            "metadata": meta,
            "epsilon": problem.epsilon,
            "regime": problem.regime.value,
            "time_scale_s": problem.time_scale,
            "length_scale_m": problem.length_scale,
        }))
    else:
        _emit(args, meta, ["epsilon", "time_scale_s", "length_scale_m", "regime"],
              [[problem.epsilon, problem.time_scale, problem.length_scale,
                problem.regime.value]])


def _parse_float_list(raw: str, param: str) -> list[float]:
    values = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            values.append(float(chunk))
        except ValueError:
            raise DomainError(param, f"not a number: {chunk!r}") from None
    if not values:
        raise DomainError(param, "empty list")
    return values


def _add_output_options(sub) -> None:
    sub.add_argument("--output",
                     help="write to this path instead of stdout (pde: its R(t) curve)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--raw", action="store_true",
                     help="full float precision instead of 6 significant digits")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherediss",
        description="Dissolution and precipitation-growth kinetics of a spherical particle.",
    )
    parser.add_argument("--version", action="version", version=f"spherediss {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    curve = subparsers.add_parser("curve", help="sample one method's radius history")
    curve.add_argument("--epsilon", type=float, required=True)
    curve.add_argument("--t-max", type=float, default=None, dest="t_max")
    curve.add_argument("--samples", type=int, default=256)
    curve.add_argument("--method", default="exact")
    _add_output_options(curve)
    curve.set_defaults(handler=_cmd_curve)

    invert = subparsers.add_parser("invert", help="exact radius at a given time")
    invert.add_argument("--epsilon", type=float, required=True)
    invert.add_argument("--t", type=float, required=True)
    _add_output_options(invert)
    invert.set_defaults(handler=_cmd_invert)

    table = subparsers.add_parser("t0-table", help="dissolution-time table with errors")
    table.add_argument("--epsilons", required=True,
                       help="comma-separated list, each in (0, 2)")
    _add_output_options(table)
    table.set_defaults(handler=_cmd_t0_table)

    compare = subparsers.add_parser("compare", help="tabulate methods on a shared grid")
    compare.add_argument("--epsilon", type=float, required=True)
    compare.add_argument("--methods", required=True, help="comma-separated method names")
    compare.add_argument("--samples", type=int, default=200)
    compare.add_argument("--t-max", type=float, default=None, dest="t_max")
    compare.add_argument("--rho-ratio", type=float, default=1.0, dest="rho_ratio",
                         help="particle/medium density ratio (pde method only)")
    _add_output_options(compare)
    compare.set_defaults(handler=_cmd_compare)

    pde_cmd = subparsers.add_parser("pde", help="moving-boundary reference solve")
    pde_cmd.add_argument("--epsilon", type=float, required=True)
    pde_cmd.add_argument("--rho-ratio", type=float, required=True, dest="rho_ratio")
    pde_cmd.add_argument("--nodes", type=int)
    pde_cmd.add_argument("--t-end", type=float, default=None, dest="t_end")
    pde_cmd.add_argument("--min-radius", type=float, dest="min_radius")
    pde_cmd.add_argument("--snapshot-times", default=None, dest="snapshot_times",
                         help="comma-separated times; one CSV per snapshot")
    pde_cmd.add_argument("--snapshot-prefix", default="snapshot", dest="snapshot_prefix")
    _add_output_options(pde_cmd)
    pde_cmd.set_defaults(handler=_cmd_pde)

    nondim = subparsers.add_parser("nondim", help="reduce SI parameters to epsilon")
    nondim.add_argument("--cs", type=float, required=True, help="solubility (kg/m^3)")
    nondim.add_argument("--c0", type=float, required=True,
                        help="initial concentration (kg/m^3)")
    nondim.add_argument("--rho-p", type=float, required=True, dest="rho_p",
                        help="particle density (kg/m^3)")
    nondim.add_argument("--rho-m", type=float, required=True, dest="rho_m",
                        help="medium density (kg/m^3)")
    nondim.add_argument("--d", type=float, required=True, help="diffusivity (m^2/s)")
    nondim.add_argument("--r0", type=float, required=True, help="initial radius (m)")
    _add_output_options(nondim)
    nondim.set_defaults(handler=_cmd_nondim)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its diagnostic
        return int(exc.code or 0)
    try:
        args.handler(args)
    except _PathError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (DomainError, IntegrationError) as exc:
        print(str(exc) if isinstance(exc, DomainError) else f"solver: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
