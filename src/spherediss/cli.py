"""Command-line front end: curve generation, radius inversion, dissolution-time
tables, method comparison, the moving-boundary reference solver, and
physical-unit conversion.

Output is CSV (default) or JSON, to stdout or a file.  Display columns carry
6 significant digits; ``--raw`` switches to full float precision.  Exit
codes: 0 success, 2 argument error, 3 domain error (a value outside some
formula's validity range), with a one-line ``argument: message`` diagnostic
on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__, approx, exact, model, ode, pde
from .curves import MethodId, RadiusCurve
from .errors import ClampedRadiusWarning, DomainError

_ENV_PREFIX = "SPHEREDISS_"

#: Environment variables that override default solver tolerances.
_ENV_DEFAULTS = {
    "ODE_RTOL": 1e-10,
    "ODE_ATOL": 1e-10,
    "ODE_MIN_RADIUS": 1e-8,
    "PDE_RTOL": 1e-8,
    "PDE_ATOL": 1e-8,
}


def _env_float(name: str) -> float:
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return _ENV_DEFAULTS[name]
    try:
        return float(raw)
    except ValueError:
        raise DomainError(_ENV_PREFIX + name, f"not a number: {raw!r}") from None


def _ode_config() -> ode.IntegratorConfig:
    return ode.IntegratorConfig(
        rel_tol=_env_float("ODE_RTOL"),
        abs_tol=_env_float("ODE_ATOL"),
        min_radius=_env_float("ODE_MIN_RADIUS"),
    )


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
        rows.append(
            ReportRow(
                epsilon=eps,
                t0_exact=t0,
                t0_qss=qss,
                t0_intuitive=intuitive,
                rel_err_qss=100.0 * (qss - t0) / t0,
                rel_err_intuitive=100.0 * (intuitive - t0) / t0,
            )
        )
    return rows


def _fmt(value: float, raw: bool) -> str:
    if raw:
        return repr(float(value))
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.6g}"


def _meta_lines(meta: dict) -> list[str]:
    return [f"# {key}={value}" for key, value in meta.items()]


def _emit(args, meta: dict, columns: list[str], rows: list[list[float]],
          summary: dict | None = None) -> None:
    raw = getattr(args, "raw", False)
    if args.format == "json":
        payload = {"metadata": meta, "columns": columns, "data": rows}
        if summary is not None:
            payload["summary"] = summary
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = _meta_lines(meta)
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v, raw) for v in row))
        if summary is not None:
            for key, value in summary.items():
                lines.append(f"# summary {key}={value}")
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_method(name: str) -> MethodId:
    try:
        return MethodId.from_string(name)
    except ValueError as exc:
        raise DomainError("method", str(exc)) from None


def _method_curve(method: MethodId, eps: float, n: int, t_max: float | None) -> RadiusCurve:
    if method is MethodId.EXACT_QS:
        return exact.exact_curve(eps, n, t_max)
    if method is MethodId.ODE_ORACLE:
        if eps <= 0 and t_max is None:
            raise DomainError("t-max", "required for epsilon <= 0")
        run = ode.integrate_radius(eps, t_end=t_max, config=_ode_config())
        t_end = min(run.t_end, t_max) if t_max is not None else run.t_end
        times = np.linspace(0.0, math.sqrt(t_end), n) ** 2
        return RadiusCurve(method, eps, times, run.radius_at(times), {"samples": n, "t_max": t_max})
    if method is MethodId.PDE_REFERENCE:
        raise DomainError("method", "use the 'pde' subcommand (needs --rho-ratio and a mesh)")
    return approx.approx_curve(method, eps, n, t_max)


def _base_meta(args, **extra) -> dict:
    meta = {"generator": f"spherediss {__version__}"}
    meta.update(extra)
    return meta


def _cmd_curve(args) -> None:
    method = _parse_method(args.method)
    curve = _method_curve(method, args.epsilon, args.samples, args.t_max)
    meta = _base_meta(args, epsilon=args.epsilon, method=method.value,
                      samples=args.samples)
    rows = [[t, r] for t, r in zip(curve.times, curve.radii)]
    _emit(args, meta, ["t", method.value], rows)


def _cmd_invert(args) -> None:
    radius = exact.radius_at(args.epsilon, args.t)
    meta = _base_meta(args, epsilon=args.epsilon)
    _emit(args, meta, ["t", "R"], [[args.t, radius]])


def _cmd_t0_table(args) -> None:
    epsilons = _parse_float_list(args.epsilons, "epsilons")
    rows = t0_table(epsilons)
    meta = _base_meta(args)
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
    eps = args.epsilon
    methods = [_parse_method(name.strip()) for name in args.methods.split(",") if name.strip()]
    if not methods:
        raise DomainError("methods", "need at least one method")
    n = args.samples

    finite_ends = []
    for method in methods:
        if eps > 0 and method is not MethodId.PDE_REFERENCE:
            finite_ends.append(
                exact.time_to_dissolution(eps)
                if method in (MethodId.EXACT_QS, MethodId.ODE_ORACLE)
                else approx.approx_t0(method, eps)
            )
    if eps > 0:
        t_end = min(finite_ends) if finite_ends else exact.time_to_dissolution(eps)
        if args.t_max is not None:
            t_end = min(t_end, args.t_max)
    else:
        if args.t_max is None:
            raise DomainError("t-max", "required for epsilon <= 0")
        t_end = args.t_max

    times = np.linspace(math.sqrt(t_end) / n, math.sqrt(t_end), n) ** 2
    exact_values = np.array([exact.radius_at(eps, t) for t in times])

    columns: dict[str, np.ndarray] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampedRadiusWarning)
        for method in methods:
            if method is MethodId.EXACT_QS:
                values = exact_values
            elif method is MethodId.ODE_ORACLE:
                run = ode.integrate_radius(
                    eps,
                    t_end=None if eps > 0 else float(times[-1]),
                    config=_ode_config(),
                )
                values = run.radius_at(times)
            elif method is MethodId.PDE_REFERENCE:
                result = pde.solve_moving_boundary(
                    eps,
                    args.rho_ratio,
                    pde.PdeConfig(t_end=float(times[-1]) * 1.0000001, min_radius=0.02,
                                  rel_tol=_env_float("PDE_RTOL"), abs_tol=_env_float("PDE_ATOL")),
                )
                pde_t, pde_r = result.curve.times, result.curve.radii
                values = np.where(
                    times <= pde_t[-1],
                    np.interp(times, pde_t, pde_r),
                    np.nan,
                )
            else:
                values = np.array([approx.approx_radius(method, eps, t) for t in times])
            columns[method.value] = values

    summary = {}
    for name, values in columns.items():
        valid = np.isfinite(values)
        deviation = np.abs(values[valid] - exact_values[valid])
        summary[f"max_abs_dev_{name}"] = float(np.max(deviation)) if deviation.size else math.nan
        summary[f"rms_dev_{name}"] = (
            float(np.sqrt(np.mean(deviation**2))) if deviation.size else math.nan
        )

    meta = _base_meta(args, epsilon=eps, methods=",".join(m.value for m in methods),
                      samples=n)
    header = ["t"] + [m.value for m in methods]
    rows = [
        [times[i]] + [float(columns[m.value][i]) for m in methods]
        for i in range(times.size)
    ]
    _emit(args, meta, header, rows, summary=summary)


def _cmd_pde(args) -> None:
    config = pde.PdeConfig(
        nodes=args.nodes,
        rhat_max=args.rhat_max,
        t_end=args.t_end,
        min_radius=args.min_radius,
        rel_tol=_env_float("PDE_RTOL"),
        abs_tol=_env_float("PDE_ATOL"),
    )
    snapshot_times = _parse_float_list(args.snapshot_times, "snapshot-times") \
        if args.snapshot_times else []
    result = pde.solve_moving_boundary(args.epsilon, args.rho_ratio, config,
                                       snapshot_times=snapshot_times)
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
        _emit(args, _base_meta(args, epsilon=args.epsilon, method="pde",
                               rho_ratio=args.rho_ratio), ["t", "pde"], rows)
    for index, field in enumerate(result.snapshots):
        path = f"{args.snapshot_prefix}_{index:03d}.csv"
        lines = [f"# t={field.t!r}", f"# radius={field.radius!r}",
                 f"# density_ratio={field.density_ratio!r}", "rhat,C"]
        lines += [
            f"{float(x)!r},{float(c)!r}"
            for x, c in zip(field.rhat, field.concentration)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")


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
    meta = _base_meta(args)
    if args.format == "json":
        payload = {
            "metadata": meta,
            "epsilon": problem.epsilon,
            "regime": problem.regime.value,
            "time_scale_s": problem.time_scale,
            "length_scale_m": problem.length_scale,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return
    rows = [[problem.epsilon, problem.time_scale, problem.length_scale]]
    lines = _meta_lines(meta)
    lines.append("epsilon,time_scale_s,length_scale_m,regime")
    lines.append(
        ",".join(_fmt(v, args.raw) for v in rows[0]) + f",{problem.regime.value}"
    )
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


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
    sub.add_argument("--output", help="write to this path instead of stdout")
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
    pde_cmd.add_argument("--nodes", type=int, default=241)
    pde_cmd.add_argument("--rhat-max", type=float, default=None, dest="rhat_max")
    pde_cmd.add_argument("--t-end", type=float, default=None, dest="t_end")
    pde_cmd.add_argument("--min-radius", type=float, default=0.05, dest="min_radius")
    pde_cmd.add_argument("--snapshot-times", default=None, dest="snapshot_times",
                         help="comma-separated times; one CSV per snapshot")
    pde_cmd.add_argument("--snapshot-prefix", default="snapshot", dest="snapshot_prefix")
    pde_cmd.add_argument("--output", help="write the R(t) curve CSV to this path")
    pde_cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    pde_cmd.add_argument("--raw", action="store_true")
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
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    return 0


#: Alias matching the operational name used in documentation.
run_cli = main


if __name__ == "__main__":
    sys.exit(main())
