"""The benchmark workloads, as run inside one worker process.

Each workload prepares its seeded inputs (untimed), runs one timed pass as a
closed loop with a single client, digests the pass's outputs and checks
them.  Library functions are looked up on the ``spherediss`` namespace at
the start of every pass, so a pass run after ``Tracer.install`` is traced.
A task that raises is recorded as a ``TaskError`` and counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import spherediss as sd

import inputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Closed forms must match the ODE oracle to this (acceptance criterion 3).
ORACLE_TOL = 1e-6

#: Fractions of the final time at which moving-boundary radii are compared
#: with the shipped reference table, and the relative tolerance of that
#: comparison (loose enough for solver-internal changes at rtol 1e-8, tight
#: enough to catch a wrong term in the mapped equation).
PDE_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
PDE_REFERENCE_RTOL = 2e-4
PDE_REFERENCE_PATH = os.path.join(BENCH_DIR, "pde_reference.json")

#: Same as the ``spherediss`` console script.
CLI_SHIM = "import sys; from spherediss.cli import main; sys.exit(main())"
CLI_TRACED = os.path.join(BENCH_DIR, "cli_traced.py")


class TaskError:
    """Stands in for the output of a task that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"

    def __repr__(self) -> str:
        return f"TaskError({self.message!r})"


class Recorder:
    """Times the tasks of one pass and, when traced, tags spans with the task id."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: dict[str, list[float]] = {}
        self.tasks = 0

    def __call__(self, kind: str, fn, *args, **kwargs):
        """Run one task and append its latency in seconds to ``latencies[kind]``."""
        if self.tracer is not None:
            self.tracer.task = self.tasks
        self.tasks += 1
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # a failing task is counted, the pass goes on
            value = TaskError(exc)
        self.latencies.setdefault(kind, []).append(time.perf_counter() - start)
        return value


def guarded(fn, *args):
    """``fn(*args)``, or a ``TaskError`` if it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # checked outputs must not abort the run
        return TaskError(exc)


def _oracle(eps: float, times) -> list[float]:
    """ODE-oracle radii at ``times`` (for eps > 0, run to dissolution)."""
    if eps > 0:
        run = sd.integrate_radius(eps)
    else:
        run = sd.integrate_radius(eps, t_end=max(max(times), 1e-12))
    return [run.radius_at(t) for t in times]


class ClosedForm:
    """Point queries, curve sampling, cold blended t0 and profile grids."""

    name = "closed-form"
    task_kind = "query"

    def __init__(self, seed: int):
        self.seed = seed
        self.expected: dict[int, float] | None = None
        self.oracle_gap = 0.0

    def warm_up(self) -> None:
        sd.radius_at(0.1, 1.0)
        sd.time_to_dissolution(0.1)
        sd.exact_curve(0.1, 16)
        sd.approx_curve(sd.MethodId.BLENDED, 0.1, 16)
        getattr(sd.blended_t0, "cache_clear", lambda: None)()
        sd.blended_t0(0.2)
        sd.concentration_profile(1.0, 1.0, 1.5)

    def prepare(self) -> None:
        spec = inputs.closed_form(self.seed)
        self.queries = []
        for op, eps, x in spec["queries"]:
            if op == "t0":
                self.queries.append((op, (eps,)))
            else:
                t = x * sd.time_to_dissolution(eps) if eps > 0 else x
                self.queries.append((op, (eps, t)))
        self.oracle_subsample = spec["oracle_subsample"]
        self.curves = [(method, eps, n, t_max) for method, eps, n, t_max in spec["curves"]]
        self.methods = {m: sd.MethodId.from_string(m) for m in inputs.EXPLICIT_METHODS}
        self.blend_epsilons = spec["blend_epsilons"]
        self.profiles = [
            (radius, t, np.linspace(radius, radius + 8.0 * math.sqrt(t), inputs.PROFILE_POINTS)
             .tolist())
            for radius, t in spec["profiles"]
        ]
        self.curve_points = sum(n for _, _, n, _ in self.curves)

    def run_pass(self, rec: Recorder) -> list:
        ops = {"radius": sd.radius_at, "t0": sd.time_to_dissolution}
        out = [rec("query", ops[op], *args) for op, args in self.queries]
        exact_curve, approx_curve = sd.exact_curve, sd.approx_curve
        for method, eps, n, t_max in self.curves:
            if method == "exact":
                out.append(rec("curve", exact_curve, eps, n, t_max))
            else:
                out.append(rec("curve", approx_curve, self.methods[method], eps, n, t_max))
        blended_t0 = sd.blended_t0
        clear = getattr(blended_t0, "cache_clear", lambda: None)
        for eps in self.blend_epsilons:
            clear()  # a new epsilon, as a user pays for it
            out.append(rec("blend_t0", blended_t0, eps))
        profile = sd.concentration_profile
        for radius, t, grid in self.profiles:
            out.append(rec("profile", lambda: [profile(radius, t, r) for r in grid]))
        return out

    def digest(self, raw: list) -> list:
        out = list(raw)
        first_curve = len(self.queries)
        for i in range(first_curve, first_curve + len(self.curves)):
            curve = raw[i]
            if not isinstance(curve, TaskError):
                picks = np.linspace(0, len(curve) - 1, 16).astype(int)
                out[i] = (len(curve), float(curve.radii[0]),
                          tuple(zip(curve.times[picks].tolist(), curve.radii[picks].tolist())))
        return out

    def _expected(self, digests: list) -> dict[int, float]:
        """Oracle radii for the query subsample and the checked exact-curve points."""
        expected = {}
        for i in self.oracle_subsample:
            eps, t = self.queries[i][1]
            expected[i] = _oracle(eps, [t])[0]
        first_curve = len(self.queries)
        for j, (method, eps, _, _) in enumerate(self.curves):
            digest = digests[first_curve + j]
            if method != "exact" or isinstance(digest, TaskError):
                continue
            t_ok = 0.995 * sd.time_to_dissolution(eps) if eps > 0 else math.inf
            times = [t for t, _ in digest[2] if t <= t_ok]
            expected[first_curve + j] = dict(zip(times, _oracle(eps, times)))
        return expected

    def check(self, digests: list) -> list[bool]:
        if self.expected is None:
            self.expected = self._expected(digests)
        ok = []
        for i, value in enumerate(digests):
            if isinstance(value, TaskError):
                ok.append(False)
            elif i < len(self.queries):
                good = math.isfinite(value) and value >= 0
                if i in self.expected:
                    gap = abs(value - self.expected[i])
                    self.oracle_gap = max(self.oracle_gap, gap)
                    good = good and gap <= ORACLE_TOL
                ok.append(good)
            elif i < len(self.queries) + len(self.curves):
                ok.append(self._check_curve(i, value))
            elif i < len(self.queries) + len(self.curves) + len(self.blend_epsilons):
                eps = self.blend_epsilons[i - len(self.queries) - len(self.curves)]
                ok.append(0.0 < value <= 0.5 / eps)
            else:
                radius, t, grid = self.profiles[i - len(digests) + len(self.profiles)]
                ok.append(self._check_profile(radius, t, grid, value))
        return ok

    def _check_curve(self, i: int, digest) -> bool:
        n = self.curves[i - len(self.queries)][2]
        length, first_radius, points = digest
        good = length == n and abs(first_radius - 1.0) <= 1e-3
        for t, radius in points:
            if t in self.expected.get(i, {}):
                gap = abs(radius - self.expected[i][t])
                self.oracle_gap = max(self.oracle_gap, gap)
                good = good and gap <= ORACLE_TOL
        return good

    @staticmethod
    def _check_profile(radius: float, t: float, grid: list, values: list) -> bool:
        scale = math.sqrt(math.pi / (4.0 * t))
        reference = [(radius / r) * math.erfc((r - radius) * scale) for r in grid]
        return (values[0] == 1.0
                and all(a >= b for a, b in zip(values, values[1:]))
                and all(abs(v - w) <= 1e-12 for v, w in zip(values, reference)))

    def report(self, passes: list) -> dict:
        per_pass = [self.curve_points / sum(p["latencies"]["curve"]) for p in passes]
        return {"curve_points_per_s": float(np.median(per_pass)),
                "oracle_gap_subsample": self.oracle_gap}


class PdeReference:
    """Moving-boundary solves: the 7a case, one run to the radius floor, and
    dissolution and growth with convection at density ratios 0.5 and 2."""

    name = "pde-reference"
    task_kind = "solve"

    def __init__(self, seed: int):
        self.seed = seed
        self.qs_dev_7a: float | None = None
        self.reference: list | None = None

    def warm_up(self) -> None:
        sd.solve_moving_boundary(0.1, 1.0, sd.PdeConfig(t_end=1e-3))

    def prepare(self) -> None:
        self.cases = []
        for case in inputs.pde_reference(self.seed):
            eps, end = case["epsilon"], case["end"]
            if end is None:
                t_end = None
            else:
                t_end = end[1] * sd.time_to_dissolution(eps) if end[0] == "t0" else end[1]
            self.cases.append((case["name"], eps, case["density_ratio"], t_end))

    @staticmethod
    def _solve(eps: float, ratio: float, t_end: float | None):
        config = sd.PdeConfig() if t_end is None else sd.PdeConfig(t_end=t_end)
        return sd.solve_moving_boundary(eps, ratio, config)

    def run_pass(self, rec: Recorder) -> list:
        return [rec("solve", self._solve, eps, ratio, t_end)
                for _, eps, ratio, t_end in self.cases]

    def digest(self, raw: list) -> list:
        return [result if isinstance(result, TaskError) else guarded(self._summary, case, result)
                for case, result in zip(self.cases, raw)]

    def _summary(self, case, result) -> dict:
        name, eps, _, _ = case
        curve, field = result.curve, result.final_field
        # validation runs again on copies of what the solver returned
        sd.RadiusCurve(curve.method, curve.epsilon, curve.times, curve.radii, curve.metadata)
        sd.MappedField(field.rhat, field.concentration, field.radius, field.t,
                       field.density_ratio)
        t_final = float(curve.times[-1])
        if name == "7a" and self.qs_dev_7a is None:
            self.qs_dev_7a = qs_deviation_7a(result)
        return {
            "name": name,
            "stopped_on": result.stopped_on,
            "t_final": t_final,
            "radii": [float(np.interp(f * t_final, curve.times, curve.radii))
                      for f in PDE_FRACTIONS],
            "finite": bool(np.all(np.isfinite(curve.radii))),
        }

    def check(self, digests: list) -> list[bool]:
        if self.reference is None:
            with open(PDE_REFERENCE_PATH, encoding="utf-8") as handle:
                self.reference = json.load(handle)["seeds"].get(str(self.seed), [])
        ok = []
        for index, ((_, _, _, t_end), summary) in enumerate(zip(self.cases, digests)):
            if isinstance(summary, TaskError):
                ok.append(False)
                continue
            good = summary["finite"] and min(summary["radii"]) > 0
            if t_end is None:
                good = (good and summary["stopped_on"] == "min_radius"
                        and abs(summary["radii"][-1] - sd.PdeConfig().min_radius) <= 1e-6)
            else:
                good = (good and summary["stopped_on"] == "t_end"
                        and abs(summary["t_final"] - t_end) <= 1e-9 * t_end)
            if self.reference:
                ref = self.reference[index]
                good = (good and ref["stopped_on"] == summary["stopped_on"]
                        and all(math.isclose(a, b, rel_tol=PDE_REFERENCE_RTOL)
                                for a, b in zip([ref["t_final"]] + ref["radii"],
                                                [summary["t_final"]] + summary["radii"])))
            ok.append(good)
        return ok

    def report(self, passes: list) -> dict:
        return {"qs_dev_7a": self.qs_dev_7a, "reference_table": bool(self.reference)}


def qs_deviation_7a(result) -> float:
    """Max relative gap between the 7a run and the exact QS radius over
    [0.1 t0, 0.9 t0].  A known model gap, reported and never gated."""
    t0 = sd.time_to_dissolution(0.001)
    curve = result.curve
    mask = curve.times >= 0.1 * t0
    exact = np.array([sd.radius_at(0.001, t) for t in curve.times[mask]])
    return float(np.max(np.abs(curve.radii[mask] - exact) / exact))


def _printed_match(printed: float, expected: float) -> bool:
    """Whether ``printed`` is ``expected`` at 6 significant digits."""
    if math.isnan(expected):
        return math.isnan(printed)
    magnitude = max(abs(printed), abs(expected))
    if magnitude == 0.0:
        return True
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(magnitude)) - 5)
    return abs(printed - expected) <= half_unit * (1.0 + 1e-9)


class Cli:
    """Sequential processes of the real ``spherediss`` entry point."""

    name = "cli"
    task_kind = "process"

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.expected: list | None = None
        self.output_bytes = 0

    def warm_up(self) -> None:
        import spherediss.cli

        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["invert", "--epsilon", "0.1", "--t", "1"],
                         ["t0-table", "--epsilons", "0.1"],
                         ["curve", "--epsilon", "0.1", "--samples", "8"],
                         ["curve", "--epsilon", "0.1", "--method", "ode", "--samples", "8"],
                         ["compare", "--epsilon", "0.1", "--methods", "exact,qss",
                          "--samples", "8"],
                         ["nondim", "--cs", "1", "--c0", "0", "--rho-p", "1200",
                          "--rho-m", "1000", "--d", "1e-9", "--r0", "2e-6"]):
                spherediss.cli.main(argv)

    def prepare(self) -> None:
        self.commands = []
        for spec in inputs.cli(self.seed):
            if spec["command"] == "invert":
                t = spec["fraction"] * sd.time_to_dissolution(spec["epsilon"])
                argv = ["invert", "--epsilon", repr(spec["epsilon"]), "--t", repr(t)]
            else:
                argv = [spec["command"]] + spec["argv"]
            self.commands.append(argv)

    def run_pass(self, rec: Recorder) -> list:
        out = []
        tracer = rec.tracer
        for index, argv in enumerate(self.commands):
            if tracer is None:
                command = [sys.executable, "-c", CLI_SHIM, *argv]
            else:
                spans = os.path.join(self.work_dir, f"spans-{index}.json")
                command = [sys.executable, CLI_TRACED, spans, *argv]
            out.append(rec("process", subprocess.run, command, capture_output=True, timeout=120))
            rec.latencies.setdefault(argv[0], []).append(rec.latencies["process"][-1])
            if tracer is not None and os.path.exists(spans):
                tracer.absorb(spans, task=rec.tasks - 1, pass_index=tracer.pass_index)
                os.remove(spans)
        return out

    def digest(self, raw: list) -> list:
        self.output_bytes = sum(len(p.stdout) for p in raw if not isinstance(p, TaskError))
        return [proc if isinstance(proc, TaskError)
                else (proc.returncode, proc.stdout.decode("utf-8", "replace"))
                for proc in raw]

    def check(self, digests: list) -> list[bool]:
        if self.expected is None:
            self.expected = [guarded(self._expected, argv) for argv in self.commands]
        ok = []
        for argv, expected, digest in zip(self.commands, self.expected, digests):
            if isinstance(digest, TaskError) or isinstance(expected, TaskError):
                ok.append(False)
                continue
            code, stdout = digest
            ok.append(code == 0 and bool(guarded(self._matches, argv, expected, stdout) is True))
        return ok

    @staticmethod
    def _expected(argv: list[str]) -> tuple[list[str], list[list], dict]:
        """Header, rows and summary the library itself gives for ``argv``."""
        command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
        number = {k: float(v) for k, v in opts.items() if k not in ("--method", "--methods",
                                                                     "--epsilons", "--format")}
        eps = number.get("--epsilon")
        if command == "invert":
            return ["t", "R"], [[number["--t"], sd.radius_at(eps, number["--t"])]], {}
        if command == "t0-table":
            rows = []
            for e in (float(v) for v in opts["--epsilons"].split(",")):
                t0 = sd.time_to_dissolution(e)
                qss = sd.approx_t0(sd.MethodId.QSS, e)
                intuitive = sd.approx_t0(sd.MethodId.INTUITIVE, e)
                rows.append([e, t0, qss, round(100.0 * (qss - t0) / t0, 1), intuitive,
                             round(100.0 * (intuitive - t0) / t0, 1)])
            return (["epsilon", "t0_exact", "t0_qss", "rel_err_qss_pct", "t0_intuitive",
                     "rel_err_intuitive_pct"], rows, {})
        if command == "nondim":
            problem = sd.nondimensionalize(sd.PhysicalScenario(
                solubility=number["--cs"], initial_concentration=number["--c0"],
                particle_density=number["--rho-p"], medium_density=number["--rho-m"],
                diffusivity=number["--d"], initial_radius=number["--r0"]))
            return (["epsilon", "time_scale_s", "length_scale_m", "regime"],
                    [[problem.epsilon, problem.time_scale, problem.length_scale,
                      problem.regime.value]], {})
        n = int(number.get("--samples", 256 if command == "curve" else 200))
        if command == "curve":
            method = opts.get("--method", "exact")
            if method == "exact":
                curve = sd.exact_curve(eps, n)
                times, radii = curve.times, curve.radii
            elif method == "ode":
                run = sd.integrate_radius(eps)
                times = np.linspace(0.0, math.sqrt(run.t_end), n) ** 2
                radii = [run.radius_at(t) for t in times]
            else:
                curve = sd.approx_curve(sd.MethodId.from_string(method), eps, n)
                times, radii = curve.times, curve.radii
            return ["t", method], [[t, r] for t, r in zip(times, radii)], {}
        # compare: the shared sqrt(t) grid ends at the earliest dissolution time
        methods = opts["--methods"].split(",")
        if eps > 0:
            t_end = min(sd.time_to_dissolution(eps) if m in ("exact", "ode")
                        else sd.approx_t0(sd.MethodId.from_string(m), eps) for m in methods)
            t_end = min(t_end, number.get("--t-max", math.inf))
        else:
            t_end = number["--t-max"]
        times = np.linspace(math.sqrt(t_end) / n, math.sqrt(t_end), n) ** 2
        exact = np.array([sd.radius_at(eps, t) for t in times])
        columns = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sd.ClampedRadiusWarning)
            for m in methods:
                if m == "exact":
                    columns[m] = exact
                elif m == "ode":
                    run = sd.integrate_radius(eps, t_end=None if eps > 0 else float(times[-1]))
                    columns[m] = np.array([run.radius_at(t) for t in times])
                else:
                    method = sd.MethodId.from_string(m)
                    columns[m] = np.array([sd.approx_radius(method, eps, t) for t in times])
        summary = {}
        for m, values in columns.items():
            deviation = np.abs(values - exact)
            summary[f"max_abs_dev_{m}"] = float(np.max(deviation))
            summary[f"rms_dev_{m}"] = float(np.sqrt(np.mean(deviation**2)))
        rows = [[t] + [float(columns[m][i]) for m in methods] for i, t in enumerate(times)]
        return ["t"] + methods, rows, summary

    @staticmethod
    def _matches(argv: list[str], expected: tuple, stdout: str) -> bool:
        header, rows, summary = expected
        if "json" in argv:
            payload = json.loads(stdout)
            got_header, got_rows = payload["columns"], payload["data"]
            got_summary = payload.get("summary", {})

            def same(a, b):
                return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)
        else:
            lines = stdout.splitlines()
            table = [line.split(",") for line in lines if not line.startswith("#")]
            got_header, got_rows = table[0], table[1:]
            got_summary = dict(line[len("# summary "):].split("=", 1)
                               for line in lines if line.startswith("# summary "))
            same = _printed_match
        if got_header != header or len(got_rows) != len(rows) or got_summary.keys() != summary.keys():
            return False
        for got, want in zip(got_rows, rows):
            for g, w in zip(got, want):
                if isinstance(w, str):
                    if g != w:
                        return False
                elif not same(float(g), float(w)):
                    return False
        return all(math.isclose(float(got_summary[k]), v, rel_tol=1e-12)
                   for k, v in summary.items())

    def report(self, passes: list) -> dict:
        return {}


def accuracy() -> dict[str, float]:
    """Informational accuracy figures, recorded next to the timings.

    ``exact.oracle_gap_max`` is acceptance criterion 3's measure (closed form
    against the ODE oracle on its fixed grids); ``pde.qs_dev_7a`` is the
    deviation of the 7a run from the QS radius.
    """
    gap = 0.0
    for eps in (-0.5, -0.1, -0.01, 0.01, 0.1, 0.5, 1.0, 1.9, 2.0, 2.1, 5.0):
        if eps > 0:
            run = sd.integrate_radius(eps)
            grid = np.linspace(0.0, 0.995 * min(run.t_end, sd.time_to_dissolution(eps)), 100)
        else:
            run = sd.integrate_radius(eps, t_end=100.0)
            grid = np.linspace(0.0, 100.0, 100)
        gap = max(gap, max(abs(sd.radius_at(eps, t) - run.radius_at(t)) for t in grid))
    t0 = sd.time_to_dissolution(0.001)
    result = PdeReference._solve(0.001, 1.0, 0.9 * t0)
    return {"exact.oracle_gap_max": gap, "pde.qs_dev_7a": qs_deviation_7a(result)}


def make(workload: str, seed: int, work_dir: str):
    if workload == "closed-form":
        return ClosedForm(seed)
    if workload == "pde-reference":
        return PdeReference(seed)
    return Cli(seed, work_dir)
