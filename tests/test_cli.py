import json
import math
import os
import subprocess
import sys

import pytest

import spherediss
from spherediss.cli import main, t0_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestT0Table:
    def test_nine_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "t0-table", "--epsilons", "1,0.5,0.1,0.05,0.01,0.005,0.001,0.0005,0.0001"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "epsilon", "t0_exact", "t0_qss", "rel_err_qss_pct",
            "t0_intuitive", "rel_err_intuitive_pct",
        ]
        assert len(rows) == 9
        first = [float(v) for v in rows[0]]
        assert first[1] == pytest.approx(0.1039, abs=5e-5)
        assert first[2] == 0.5

    def test_errors_all_positive(self):
        rows = t0_table([0.1, 0.01])
        for row in rows:
            assert row.rel_err_qss > 0
            assert row.rel_err_intuitive > 0

    def test_rejects_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "t0-table", "--epsilons", "0.1,2.5")
        assert code == 3
        assert err.startswith("epsilons:")

    def test_rejects_garbage(self, capsys):
        code, _, err = run_cli(capsys, "t0-table", "--epsilons", "0.1,banana")
        assert code == 3
        assert err.startswith("epsilons:")


class TestCurve:
    def test_static_curve_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--epsilon", "0", "--t-max", "1", "--samples", "8"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 8
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_each_method_runs(self, capsys):
        for method in ("exact", "qss", "small-time", "intuitive", "duda", "blended", "ode"):
            code, out, _ = run_cli(
                capsys, "curve", "--epsilon", "0.1", "--method", method, "--samples", "16"
            )
            assert code == 0, method
            _, rows = parse_csv(out)
            assert len(rows) == 16

    def test_unknown_method(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--epsilon", "0.1", "--method", "magic")
        assert code == 3
        assert err.startswith("method:")

    def test_pde_method_redirects(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--epsilon", "0.1", "--method", "pde")
        assert code == 3
        assert "pde" in err

    def test_missing_argument_is_exit_2(self, capsys):
        assert main(["curve"]) == 2
        capsys.readouterr()

    def test_growth_requires_t_max(self, capsys):
        code, _, err = run_cli(capsys, "curve", "--epsilon", "-0.1")
        assert code == 3
        assert err.startswith("t_max:") or err.startswith("t-max:")


class TestInvert:
    def test_published_value(self, capsys):
        code, out, _ = run_cli(capsys, "invert", "--epsilon", "0.1", "--t", "1.83532")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(0.45504, abs=1e-5)

    def test_past_dissolution_is_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "invert", "--epsilon", "0.1", "--t", "50")
        assert code == 3
        assert err.startswith("t:")


class TestCompare:
    def test_figure_ordering_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--epsilon", "0.01",
            "--methods", "exact,qss,duda,intuitive", "--samples", "50",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "exact", "qss", "duda", "intuitive"]
        for row in rows:
            t, exact, qss, duda, intuitive = (float(v) for v in row)
            assert duda <= exact + 1e-9
            assert exact <= intuitive + 1e-9
        assert "# summary max_abs_dev_duda=" in out

    def test_oracle_deviation_tiny(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--epsilon", "0.1", "--methods", "exact,ode",
            "--samples", "40", "--raw",
        )
        assert code == 0
        for line in out.splitlines():
            if line.startswith("# summary max_abs_dev_ode="):
                assert float(line.split("=")[1]) <= 1e-6
                break
        else:
            pytest.fail("missing ode summary line")

    def test_blended_outside_fit_range(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--epsilon", "0.7", "--methods", "exact,blended"
        )
        assert code == 3
        assert err.startswith("epsilon:")

    def test_growth_needs_t_max(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--epsilon", "-0.01", "--methods", "exact,qss"
        )
        assert code == 3

    def test_pde_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--epsilon", "0.05", "--methods", "exact,pde",
            "--samples", "20", "--rho-ratio", "1.0", "--t-max", "2.0",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "exact", "pde"]
        for line in out.splitlines():
            if line.startswith("# summary max_abs_dev_pde="):
                assert float(line.split("=")[1]) < 0.1
                break
        else:
            pytest.fail("missing pde summary line")


class TestGridArguments:
    """Every sampled path refuses a grid it cannot build, with exit code 3."""

    COMPARE = ("compare", "--epsilon", "0.1", "--methods", "exact,qss")

    @pytest.mark.parametrize(
        "argv, param",
        [
            (("curve", "--epsilon", "0.1", "--method", "ode", "--samples", "0"), "n"),
            (("curve", "--epsilon", "0.1", "--method", "ode", "--samples", "1"), "n"),
            (COMPARE + ("--samples", "0"), "n"),
            (COMPARE + ("--samples", "-3"), "n"),
            (COMPARE + ("--t-max", "-1"), "t_max"),
            (COMPARE + ("--t-max", "nan"), "t_max"),
            (("compare", "--epsilon", "-0.01", "--methods", "exact,qss"), "t_max"),
            (("curve", "--epsilon", "0.1", "--method", "qss", "--t-max", "0"), "t_max"),
            (("curve", "--epsilon", "0.1", "--method", "qss", "--t-max", "inf"), "t_max"),
            (("curve", "--epsilon", "0.1", "--method", "qss", "--t-max", "nan"), "t_max"),
            (("curve", "--epsilon", "-0.1", "--method", "ode"), "t_max"),
            (COMPARE + ("--samples", "1000001"), "n"),
        ],
    )
    def test_bad_grid_is_exit_3(self, capsys, argv, param):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith(f"{param}:")


@pytest.mark.parametrize(
    "argv, param",
    [
        (("curve", "--epsilon", "0.1", "--samples", "8", "--output", "{missing}/curve.csv"),
         "output"),
        (("pde", "--epsilon", "0.1", "--rho-ratio", "1.0", "--t-end", "0.1",
          "--snapshot-times", "0.05", "--snapshot-prefix", "{missing}/snap"), "snapshot-prefix"),
    ],
)
def test_unwritable_path_is_exit_2(capsys, tmp_path, argv, param):
    # a path that cannot be opened is an argument error, with a one-line diagnostic
    missing = str(tmp_path / "missing")
    code, out, err = run_cli(capsys, *(a.replace("{missing}", missing) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"{param}: ") and err.count("\n") == 1


class TestOutputModes:
    def test_determinism(self, capsys):
        args = ("t0-table", "--epsilons", "0.1,0.01")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_json_mirrors_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "invert", "--epsilon", "0.1", "--t", "1.83532", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["t", "R"]
        assert payload["data"][0][1] == pytest.approx(0.45504, abs=1e-5)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys, "curve", "--epsilon", "0.1", "--samples", "8",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        header, rows = parse_csv(target.read_text())
        assert header == ["t", "exact"]
        assert len(rows) == 8

    def test_raw_mode_full_precision(self, capsys):
        _, display, _ = run_cli(capsys, "invert", "--epsilon", "0.1", "--t", "1.0")
        _, raw, _ = run_cli(capsys, "invert", "--epsilon", "0.1", "--t", "1.0", "--raw")
        _, display_rows = parse_csv(display)
        _, raw_rows = parse_csv(raw)
        assert len(raw_rows[0][1]) > len(display_rows[0][1])


class TestNondim:
    def test_known_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "nondim", "--cs", "1", "--c0", "0",
            "--rho-p", str(10 / math.pi), "--rho-m", "1e12",
            "--d", str(1 / math.pi), "--r0", "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["epsilon", "time_scale_s", "length_scale_m", "regime"]
        assert float(rows[0][0]) == pytest.approx(0.1, abs=1e-6)
        assert float(rows[0][1]) == pytest.approx(1.0, rel=1e-6)
        assert rows[0][3] == "dissolution"

    def test_invalid_scenario_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "nondim", "--cs", "1000", "--c0", "0", "--rho-p", "1200",
            "--rho-m", "1000", "--d", "1e-9", "--r0", "1e-6",
        )
        assert code == 3
        assert err.startswith("solubility:")


class TestPdeCommand:
    def test_summary_json(self, capsys, tmp_path):
        curve_path = tmp_path / "pde.csv"
        code, out, _ = run_cli(
            capsys, "pde", "--epsilon", "0.1", "--rho-ratio", "1.0",
            "--t-end", "0.5", "--output", str(curve_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["epsilon"] == 0.1
        assert summary["stopped_on"] == "t_end"
        assert summary["error_vs_exact"]["max_abs"] < 0.05
        header, rows = parse_csv(curve_path.read_text())
        assert header == ["t", "pde"]
        assert len(rows) > 10

    def test_snapshots_written(self, capsys, tmp_path):
        prefix = tmp_path / "snap"
        code, out, _ = run_cli(
            capsys, "pde", "--epsilon", "0.0", "--rho-ratio", "1.0",
            "--t-end", "0.5", "--snapshot-times", "0.25,0.5",
            "--snapshot-prefix", str(prefix),
        )
        assert code == 0
        for index in (0, 1):
            path = tmp_path / f"snap_{index:03d}.csv"
            header, rows = parse_csv(path.read_text())
            assert header == ["rhat", "C"]
            assert float(rows[0][1]) == pytest.approx(1.0)


class TestEnvOverrides:
    def test_bogus_env_value_is_domain_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SPHEREDISS_ODE_RTOL", "three")
        code, _, err = run_cli(
            capsys, "curve", "--epsilon", "0.1", "--method", "ode", "--samples", "8"
        )
        assert code == 3
        assert err.startswith("SPHEREDISS_ODE_RTOL:")

    def test_env_override_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("SPHEREDISS_ODE_RTOL", "1e-6")
        monkeypatch.setenv("SPHEREDISS_ODE_ATOL", "1e-6")
        code, out, _ = run_cli(
            capsys, "curve", "--epsilon", "0.1", "--method", "ode", "--samples", "8"
        )
        assert code == 0


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports this spherediss."""
    env = dict(os.environ)
    source = os.path.dirname(os.path.dirname(os.path.abspath(spherediss.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


class TestLazyScipy:
    LIGHT_WORK = """
import contextlib, io, sys
import spherediss as sd
from spherediss.cli import main
sd.radius_at(0.1, 1.0)
sd.radius_at(-0.1, [1.0, 2.0])
sd.time_to_dissolution(3.0)
sd.exact_curve(0.1, 64)
sd.approx_curve(sd.MethodId.BLENDED, 0.1, 64)
sd.blended_t0(0.2)
sd.concentration_profile(1.0, 1.0, 2.0)
sd.integrate_radius(0.1).radius_at([0.5, 1.0])
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["invert", "--epsilon", "0.1", "--t", "1"],
                 ["t0-table", "--epsilons", "0.1,0.01"],
                 ["curve", "--epsilon", "0.1", "--method", "exact", "--samples", "8"],
                 ["curve", "--epsilon", "0.1", "--method", "blended", "--samples", "8"],
                 ["curve", "--epsilon", "0.1", "--method", "ode", "--samples", "8"],
                 ["compare", "--epsilon", "0.1", "--methods", "exact,qss,ode", "--samples", "8"],
                 ["nondim", "--cs", "1", "--c0", "0", "--rho-p", "1200", "--rho-m", "1000",
                  "--d", "1e-9", "--r0", "2e-6"]):
        assert main(argv) == 0, argv
"""

    def test_closed_forms_and_light_commands_never_load_scipy(self):
        proc = run_python(self.LIGHT_WORK + "print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_solvers_load_scipy_on_first_call(self):
        # only the moving-boundary solver needs scipy; the ODE oracle runs on floats
        pde_call = "sd.solve_moving_boundary(0.1, 1.0, sd.PdeConfig(t_end=1e-3))\n"
        proc = run_python(self.LIGHT_WORK + pde_call + "print('scipy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"


GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")
with open(GOLDEN_PATH, encoding="utf-8") as _handle:
    GOLDEN_CASES = json.load(_handle)
# stdout and written files of JSON, --raw, --output and pde commands; "{tmp}" in an
# argument stands for a fresh directory
with open(os.path.join(os.path.dirname(GOLDEN_PATH), "cli_golden_files.json"),
          encoding="utf-8") as _handle:
    GOLDEN_FILE_CASES = json.load(_handle)


def split_summary(text):
    """Output without its ``# summary`` lines, and those lines' values."""
    body, summary = [], {}
    for line in text.splitlines(keepends=True):
        if line.startswith("# summary "):
            key, value = line[len("# summary "):].strip().split("=", 1)
            summary[key] = float(value)
        else:
            body.append(line)
    return "".join(body), summary


class TestGoldenOutput:
    """CSV output of invert, t0-table, nondim, curve and compare, pinned.

    ``tests/data/cli_golden.json`` holds each command's stdout as the scipy
    DOP853 oracle printed it.  The 6-significant-digit display must match
    byte for byte.  The full-precision ``# summary`` deviations of ``compare``
    are differences of radii that agree to ~1e-10, so a last-digit change of
    either radius moves them; they are compared to 1e-9 absolute.  Cases
    marked ``last_row_at_floor`` run to extinction: the scipy oracle printed
    its interpolant's rounding noise at the floor crossing (R ~ 1e-8), so
    only that row's time is compared; the radius is pinned by
    ``test_ode_curve_to_extinction_ends_at_the_floor``.

    ``tests/data/cli_golden_files.json`` holds the JSON, ``--raw`` and
    ``--output`` variants and short ``pde`` runs; their stdout and every file
    they write are compared byte for byte.
    """

    @pytest.mark.parametrize(
        "case", GOLDEN_CASES, ids=lambda case: "_".join(a.lstrip("-") for a in case["argv"])
    )
    def test_matches_golden(self, capsys, case):
        code, out, err = run_cli(capsys, *case["argv"])
        assert code == 0, err
        body, summary = split_summary(out)
        golden_body, golden_summary = split_summary(case["stdout"])
        if case.get("last_row_at_floor"):
            body, last = body.rstrip("\n").rsplit("\n", 1)
            golden_body, golden_last = golden_body.rstrip("\n").rsplit("\n", 1)
            assert last.split(",")[0] == golden_last.split(",")[0]
        assert body == golden_body
        assert summary.keys() == golden_summary.keys()
        for key, value in golden_summary.items():
            assert summary[key] == pytest.approx(value, rel=0, abs=1e-9), key

    @pytest.mark.parametrize(
        "case", GOLDEN_FILE_CASES, ids=lambda case: "_".join(
            a.lstrip("-") for a in case["argv"] if not a.startswith("{tmp}"))
    )
    def test_matches_golden_files(self, capsys, tmp_path, case):
        # JSON, --raw, --output, the pde summary, curve file and snapshot files: stdout
        # and every file written match byte for byte, and no other file is written.
        argv = [a.replace("{tmp}", str(tmp_path)) for a in case["argv"]]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == case["stdout"]
        assert err == ""
        written = {path.name: path.read_text(encoding="utf-8") for path in tmp_path.iterdir()}
        assert written.keys() == case["files"].keys()
        for name, text in case["files"].items():
            assert written[name] == text, name

    @pytest.mark.parametrize("eps", [0.1, 1.5])
    def test_ode_curve_to_extinction_ends_at_the_floor(self, capsys, eps):
        # The last row lies at the floor crossing, where y = R^2 ~ 1e-16 is below the
        # interpolant's rounding; it prints the floor radius itself, not that noise.
        code, out, _ = run_cli(
            capsys, "curve", "--epsilon", str(eps), "--method", "ode", "--samples", "9", "--raw"
        )
        assert code == 0
        _, rows = parse_csv(out)
        t_last, r_last = (float(v) for v in rows[-1])
        assert t_last == pytest.approx(spherediss.time_to_dissolution(eps), rel=1e-8)
        assert r_last == spherediss.IntegratorConfig().min_radius
