import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spherediss
from spherediss.cli import _deviation, main, t0_table


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

    def test_rejects_an_empty_list(self, capsys):
        code, out, err = run_cli(capsys, "t0-table", "--epsilons", ",")
        assert (code, out, err) == (3, "", "epsilons: empty list\n")


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

    def test_blended_at_a_tiny_epsilon(self, capsys):
        code, out, err = run_cli(capsys, "curve", "--epsilon", "1e-35", "--method", "blended",
                                 "--samples", "4")
        assert code == 0, err
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == 1.0 and float(rows[-1][1]) == 0.0

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


@pytest.mark.parametrize("method", ["exact", "qss", "small-time", "intuitive", "duda",
                                    "blended", "ode"])
def test_subnormal_epsilon_is_a_domain_error(capsys, method):
    # t0 ~ 1/(2 eps) overflows: a one-line diagnostic naming epsilon, exit code 3
    code, out, err = run_cli(capsys, "curve", "--epsilon", "1e-320", "--method", method,
                             "--samples", "4")
    assert code == 3
    assert out == ""
    assert err.startswith("epsilon:") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["exact", "qss", "small-time", "intuitive", "duda",
                                    "blended", "ode"])
@pytest.mark.parametrize("eps", ["-1e-310", "-1e-320", "-5e-324"])
def test_negative_subnormal_epsilon_gives_the_curve_of_ones(capsys, method, eps):
    # growth that rounds away: R = 1 at every sample, as at epsilon = 0
    code, out, err = run_cli(capsys, "curve", f"--epsilon={eps}", "--t-max", "1",
                             "--method", method, "--samples", "8")
    assert code == 0, err
    _, rows = parse_csv(out)
    assert len(rows) == 8
    assert [float(radius) for _, radius in rows] == [1.0] * 8


def test_exact_growth_curve_where_scale_times_t_overflows(capsys):
    # scale * t overflows at t = 1e300 although t does not: the curve still reaches t_max
    code, out, err = run_cli(capsys, "curve", "--epsilon=-1e6", "--t-max", "1e300",
                             "--samples", "4")
    assert code == 0, err
    _, rows = parse_csv(out)
    assert len(rows) == 4
    assert float(rows[-1][0]) == 1e300
    assert float(rows[-1][1]) == pytest.approx(spherediss.radius_at(-1e6, 1e300), rel=1e-5)


@pytest.mark.parametrize("eps", ["-1e150", "0.1"])
def test_exact_curve_below_the_normal_floats_is_a_domain_error(capsys, eps):
    # the time grid would start ten decades below t_max = 1e-320: one line, exit code 3
    code, out, err = run_cli(capsys, "curve", f"--epsilon={eps}", "--t-max", "1e-320",
                             "--samples", "16")
    assert code == 3
    assert out == ""
    assert err.startswith("t_max: the curve ends at t=1e-320, too early") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["exact", "qss", "small-time", "intuitive", "duda",
                                    "blended", "ode"])
@pytest.mark.parametrize("eps", ["-0.1", "0", "0.1"])
def test_curve_too_early_for_its_samples_is_a_domain_error(capsys, method, eps):
    # 16 increasing times do not fit below t_max = 5e-324: every sampler refuses it alike
    code, out, err = run_cli(capsys, "curve", f"--epsilon={eps}", "--t-max", "5e-324",
                             "--method", method, "--samples", "16")
    assert code == 3
    assert out == ""
    assert err == ("t_max: the curve ends at t=5e-324, too early to sample from ten decades "
                   "before (below 2.07e-317)\n")


@pytest.mark.parametrize("eps", ["-0.1", "0", "0.1"])
def test_compare_too_early_for_its_samples_is_a_domain_error(capsys, eps):
    # compare samples its grid by the same floor as every curve sampler
    code, out, err = run_cli(capsys, "compare", f"--epsilon={eps}", "--t-max", "5e-324",
                             "--samples", "4", "--methods", "exact,qss")
    assert code == 3
    assert out == ""
    assert err == ("t_max: the curve ends at t=5e-324, too early to sample from ten decades "
                   "before (below 2.07e-317)\n")


@pytest.mark.parametrize("method, eps, t_max", [("qss", "-1e300", "1e300"),
                                                ("blended", "-0.5", "1.7976931348623157e308")])
def test_approximation_that_overflows_is_a_domain_error(capsys, method, eps, t_max):
    code, out, err = run_cli(capsys, "curve", f"--epsilon={eps}", "--method", method,
                             "--samples", "4", "--t-max", t_max)
    assert code == 3
    assert out == ""
    assert err.startswith(f"t_max: the {method} radius is not finite") and err.count("\n") == 1


@pytest.mark.parametrize("eps", ["1e149", "1e150", "1e200", "1e300"])
def test_ode_curve_at_a_huge_epsilon_is_a_domain_error(capsys, eps):
    code, out, err = run_cli(capsys, "curve", "--epsilon", eps, "--method", "ode",
                             "--samples", "4")
    assert code == 3
    assert out == ""
    assert err.startswith(f"epsilon: {float(eps)!r} is too large for the oracle")
    assert err.count("\n") == 1


@pytest.mark.parametrize("method", ["intuitive", "duda", "blended"])
def test_zero_epsilon_gives_the_curve_of_ones(capsys, method):
    # these formulas give R = 1 at epsilon = 0, as exact, qss, small-time and ode do
    code, out, err = run_cli(capsys, "curve", "--epsilon", "0", "--method", method,
                             "--t-max", "2", "--samples", "8")
    assert code == 0, err
    header, rows = parse_csv(out)
    assert header == ["t", method]
    assert [float(radius) for _, radius in rows] == [1.0] * 8


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

    def test_time_just_past_t0_is_told_apart_from_it(self, capsys):
        # t0 = 2.69710715...; six significant digits would print both as 2.69711
        code, _, err = run_cli(capsys, "invert", "--epsilon", "0.1", "--t", "2.697114")
        assert code == 3
        assert err.strip() == ("t: t=2.697114 is past the exact complete-dissolution time "
                               f"t0={spherediss.time_to_dissolution(0.1)!r}")


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

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0, 1.5, 1.9])
    def test_ode_column_reaches_the_exact_t0(self, capsys, eps):
        # the oracle's own t0 may fall short of the exact one the grid ends at
        code, out, err = run_cli(
            capsys, "compare", "--epsilon", str(eps), "--methods", "exact,ode",
            "--samples", "33", "--raw",
        )
        assert code == 0, err
        _, rows = parse_csv(out)
        t_last, exact_last, ode_last = (float(v) for v in rows[-1])
        assert t_last == pytest.approx(spherediss.time_to_dissolution(eps), rel=1e-12)
        assert 0.0 <= exact_last <= 1e-4 and 0.0 <= ode_last <= 1e-4

    def test_rms_where_the_squares_overflow(self, capsys):
        # deviations of 2e154 square past the float range: the rms is scaled, not inf
        code, out, err = run_cli(capsys, "compare", "--epsilon=-1e154", "--methods",
                                 "small-time,duda", "--samples", "4", "--t-max", "1", "--raw")
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        deviations = [float(small_time) - float(duda) for _, small_time, duda in rows]
        expected = 1e154 * math.sqrt(math.fsum((d / 1e154) ** 2 for d in deviations) / 4)
        summary = dict(line[len("# summary "):].split("=") for line in out.splitlines()
                       if line.startswith("# summary "))
        assert float(summary["max_abs_dev_duda"]) == max(deviations)
        assert float(summary["rms_dev_duda"]) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("eps, methods", [(0.1, "qss"), (0.01, "small-time,blended"),
                                              (0.1, "qss,intuitive,duda")])
    def test_grid_ends_by_the_exact_t0_without_the_exact_column(self, capsys, eps, methods):
        # the exact column is always filled, so the grid never runs past the exact t0
        code, out, err = run_cli(capsys, "compare", "--epsilon", str(eps), "--methods", methods,
                                 "--samples", "17", "--raw")
        assert code == 0, err
        _, rows = parse_csv(out)
        ends = [spherediss.approx_t0(spherediss.MethodId.from_string(name), eps)
                for name in methods.split(",")]
        t_end = min(ends + [spherediss.time_to_dissolution(eps)])
        assert float(rows[-1][0]) == pytest.approx(t_end, rel=1e-12)

    def test_blended_outside_fit_range(self, capsys):
        code, _, err = run_cli(
            capsys, "compare", "--epsilon", "0.7", "--methods", "exact,blended"
        )
        assert code == 3
        assert err.startswith("epsilon:")

    def test_needs_a_method(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--epsilon", "0.1", "--methods", ",")
        assert (code, out, err) == (3, "", "methods: need at least one method\n")

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

    def test_pde_column_is_nan_outside_the_run(self, capsys):
        # the run starts at t_init = 1e-6: no value before it, as none after its end
        code, out, err = run_cli(capsys, "compare", "--epsilon", "0.1", "--methods", "exact,pde",
                                 "--t-max", "4e-6", "--samples", "8", "--raw")
        assert code == 0, err
        _, rows = parse_csv(out)
        before = [row for row in rows if float(row[0]) < 1e-6]
        assert len(before) == 3 and all(row[2] == "nan" for row in before)
        assert all(math.isfinite(float(row[2])) for row in rows[3:])
        assert split_summary(out)[1]["max_abs_dev_pde"] == pytest.approx(2.06e-5, rel=1e-2)

    def test_pde_column_starting_below_its_floor_is_exit_3(self, capsys):
        # the column's floor is 0.02, so the run must start below epsilon = 490
        code, out, err = run_cli(capsys, "compare", "--epsilon", "495", "--methods", "exact,pde")
        assert code == 3 and out == ""
        assert err.startswith("epsilon: must stay below 490 ") and err.count("\n") == 1


class TestCompareOnFloats:
    """``compare`` samples and summarizes on floats, bit for bit as numpy would:
    its grid is ``np.linspace(...) ** 2``, its columns the array queries, and its
    rms takes the mean in ``np.mean``'s pairwise order."""

    @pytest.mark.parametrize("eps, t_max, n", [(0.1, None, 2), (0.1, None, 200), (0.3, 1.5, 129),
                                               (-0.2, 40.0, 1000), (1e-3, None, 7)])
    def test_grid_columns_and_summary_equal_numpy(self, capsys, eps, t_max, n):
        names = ["exact", "small-time", "duda", "blended"]
        argv = ["compare", f"--epsilon={eps}", "--methods", ",".join(names), "--samples", str(n),
                "--format", "json"] + ([] if t_max is None else ["--t-max", str(t_max)])
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        payload = json.loads(out)
        ends = [] if t_max is None else [t_max]
        if eps > 0:
            ends += [spherediss.approx_t0(spherediss.MethodId.from_string(name), eps)
                     for name in names]
        t_end = min(ends)
        times = np.linspace(math.sqrt(t_end) / n, math.sqrt(t_end), n) ** 2
        exact = spherediss.radius_at(eps, times)
        columns = [list(column) for column in zip(*payload["data"])]
        assert columns[0] == times.tolist()
        assert columns[1] == exact.tolist()
        for name, column in zip(names[1:], columns[2:]):
            method = spherediss.MethodId.from_string(name)
            assert column == spherediss.approx_radius(method, eps, times).tolist()
            deviation = np.abs(np.asarray(column) - exact)
            assert payload["summary"][f"max_abs_dev_{name}"] == float(deviation.max())
            assert payload["summary"][f"rms_dev_{name}"] == float(np.sqrt(np.mean(deviation**2)))

    def test_deviation_equals_numpy(self):
        rng = np.random.default_rng(0)
        for n in [*range(1, 300), 1000, 4097, 100_003]:
            deviation = rng.random(n) * 10.0 ** rng.uniform(-10, 10, n)
            expected = float(deviation.max()), float(np.sqrt(np.mean(deviation**2)))
            assert _deviation(deviation.tolist()) == expected, n
        # squares that overflow are scaled by the largest deviation first
        deviation = rng.random(200) * 1e300
        top = deviation.max()
        expected = float(top), float(top * np.sqrt(np.mean((deviation / top) ** 2)))
        assert _deviation(deviation.tolist()) == expected
        assert all(math.isnan(value) for value in _deviation([]))


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("d, r0", [("1e-9", "1e300"), ("1e-320", "1")])
    def test_a_time_scale_past_the_floats_is_a_one_line_domain_error(self, capsys, d, r0, fmt):
        # r0^2 overflows, or 1/(pi D) does: R0^2/(pi D) is not a float
        code, out, err = run_cli(
            capsys, "nondim", "--cs", "1", "--c0", "0", "--rho-p", "1200", "--rho-m", "1000",
            "--d", d, "--r0", r0, "--format", fmt,
        )
        assert (code, out) == (3, "")
        assert err == "time_scale: must be positive and finite, got inf\n"


class TestPdeCommand:
    @pytest.mark.parametrize("argv, param", [
        (["--epsilon", "1e-320"], "epsilon"),  # the default horizon 1/(2 eps) overflows
        (["--epsilon", "-0.1", "--t-end", "1e260"], "nodes"),  # stretching too steep
    ])
    def test_unusable_horizon_or_domain_is_a_one_line_domain_error(self, capsys, argv, param):
        code, out, err = run_cli(capsys, "pde", "--rho-ratio", "1", *argv)
        assert code == 3
        assert out == ""
        assert err.startswith(f"{param}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("eps", ["480", "500"])
    def test_start_at_or_below_the_floor_is_a_one_line_epsilon_error(self, capsys, eps):
        code, out, err = run_cli(capsys, "pde", "--epsilon", eps, "--rho-ratio", "1")
        assert code == 3 and out == ""
        assert err.startswith("epsilon: must stay below 475 ") and err.count("\n") == 1

    @pytest.mark.parametrize("nodes", ["100", "241"])
    def test_grid_reach_is_one_refusal_at_any_nodes(self, capsys, nodes):
        code, out, err = run_cli(capsys, "pde", "--epsilon", "-0.1", "--rho-ratio", "1",
                                 "--t-end", "1e260", "--nodes", nodes)
        assert code == 3 and out == "" and err.count("\n") == 1
        assert err.startswith(f"nodes: {nodes} nodes cannot span [1, 3.9e+130] with a first cell")
        assert err.endswith("; shorten the run or increase nodes\n")

    def test_removed_domain_flag_is_an_argument_error(self, capsys):
        # the solver sizes the domain from the horizon; there is no --rhat-max
        code, out, err = run_cli(capsys, "pde", "--epsilon", "0.1", "--rho-ratio", "1",
                                 "--rhat-max", "20")
        assert code == 2 and out == "" and "--rhat-max" in err

    def test_nodes_and_min_radius_flags(self, capsys):
        code, out, _ = run_cli(capsys, "pde", "--epsilon", "1.0", "--rho-ratio", "1",
                               "--min-radius", "0.5")
        summary = json.loads(out)
        assert code == 0 and summary["stopped_on"] == "min_radius"
        assert summary["final_radius"] == pytest.approx(0.5, abs=1e-6)
        code, out, _ = run_cli(capsys, "pde", "--epsilon", "0.1", "--rho-ratio", "1",
                               "--t-end", "0.05", "--nodes", "121")
        assert code == 0 and json.loads(out)["mesh"]["nodes"] == 121
        code, out, err = run_cli(capsys, "pde", "--epsilon", "0.1", "--rho-ratio", "1",
                                 "--nodes", "99")
        assert code == 3 and out == "" and err.startswith("nodes: ")

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


    @pytest.mark.parametrize("ratio", ["1e20", "1e300"])
    def test_extreme_density_ratio_is_a_one_line_solver_error(self, capsys, ratio):
        # 1e20: the step size underflows; 1e300: the initial rate overflows
        code, out, err = run_cli(capsys, "pde", "--epsilon", "0.1", "--rho-ratio", ratio,
                                 "--t-end", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("solver: ") and err.count("\n") == 1


class TestNoEnvironmentOverrides:
    COMMANDS = [
        ["curve", "--epsilon", "0.1", "--method", "ode", "--samples", "8"],
        ["compare", "--epsilon", "0.1", "--methods", "exact,ode", "--samples", "8"],
        ["pde", "--epsilon", "0.1", "--rho-ratio", "1.0", "--t-end", "0.05",
         "--output", "{dir}/pde.csv", "--snapshot-times", "0.05", "--snapshot-prefix",
         "{dir}/snap"],
    ]

    def outputs(self, capsys, directory):
        directory.mkdir()
        runs = [run_cli(capsys, *(arg.replace("{dir}", str(directory)) for arg in argv))[:2]
                for argv in self.COMMANDS]
        return runs, {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    def test_solver_variables_change_no_byte(self, capsys, monkeypatch, tmp_path):
        # the solvers run at their library defaults, whatever the shell exports
        plain = self.outputs(capsys, tmp_path / "plain")
        assert [code for code, _ in plain[0]] == [0, 0, 0]
        assert sorted(plain[1]) == ["pde.csv", "snap_000.csv"]
        for name, value in {"ODE_RTOL": "1e-6", "ODE_ATOL": "three", "ODE_MIN_RADIUS": "1e-5",
                            "PDE_RTOL": "1e-7", "PDE_ATOL": "1e-4"}.items():
            monkeypatch.setenv("SPHEREDISS_" + name, value)
        assert self.outputs(capsys, tmp_path / "exported") == plain


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

    def test_moving_boundary_solver_loads_only_lapack(self):
        # the stepper is in-house; of scipy only scipy.linalg's LAPACK wrappers load
        pde_call = "sd.solve_moving_boundary(0.1, 1.0, sd.PdeConfig(t_end=1e-3))\n"
        proc = run_python(self.LIGHT_WORK + pde_call + "print(sorted(m for m in sys.modules if "
                          "m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'sparse'], "
                          "['scipy', 'special'])))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    LAPACK_STATE = "print('scipy.linalg' in sys.modules, 'scipy.linalg._flapack' in sys.modules)"

    @pytest.mark.parametrize("work", [
        "sd.solve_moving_boundary(0.1, 1.0, sd.PdeConfig(t_end=1e-3))\n",
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['pde', '--epsilon', '0.1', '--rho-ratio', '1', '--t-end', '1e-3']) == 0\n",
    ], ids=["solve", "pde-command"])
    def test_lapack_loads_without_the_scipy_linalg_package(self, work):
        # _flapack is loaded from its file; scipy.linalg's package init never runs
        proc = run_python("import contextlib, io, sys\nimport spherediss as sd\n"
                          "from spherediss.cli import main\n" + work + self.LAPACK_STATE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False True"

    def test_a_later_scipy_linalg_import_reuses_the_loaded_routines(self):
        code = """
import sys
import spherediss as sd
from spherediss import pde
solve = lambda: sd.solve_moving_boundary(0.1, 1.0, sd.PdeConfig(t_end=0.05))
first = solve()
from scipy.linalg import lapack
assert pde._lapack()[0] is lapack.dgttrf and pde._lapack()[1] is lapack.dgttrs
assert lapack._flapack is sys.modules['scipy.linalg._flapack']
second = solve()
same = [a.tobytes() == b.tobytes() for a, b in ((first.curve.times, second.curve.times),
                                                (first.curve.radii, second.curve.radii))]
print(same, first.curve.times.size > 10)
"""
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[True, True] True"


class TestLazyImports:
    """``import spherediss`` and the closed-form commands load neither numpy
    (where they need no array) nor the ODE and PDE solvers."""

    SOLVERS = ("spherediss.ode", "spherediss.pde", "spherediss._bdf", "spherediss._dop853")

    @staticmethod
    def loaded_after(code, modules):
        """Which of ``modules`` are in sys.modules after ``code`` ran, fresh."""
        proc = run_python(code + f"\nprint(sorted(m for m in {modules!r} if m in sys.modules))")
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    @staticmethod
    def command(argv):
        return ("import contextlib, io, sys\nfrom spherediss.cli import main\n"
                f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0")

    def test_package_import_loads_neither_numpy_nor_the_solvers(self):
        code = "import sys\nimport spherediss"
        assert self.loaded_after(code, ("numpy", "scipy") + self.SOLVERS) == "[]"

    def test_scalar_calls_load_no_numpy(self):
        # int and float times take the float path without asking numpy
        code = """import sys
import spherediss as sd
sd.radius_at(0.1, 1), sd.radius_at(-0.1, 2.5), sd.time_to_dissolution(0.1)
sd.approx_radius(sd.MethodId.QSS, 0.1, 1), sd.approx_radius(sd.MethodId.DUDA_VRENTAS, 0.1, 0.5)
sd.approx_t0(sd.MethodId.INTUITIVE, 0.1)
sd.blended_radius(0.1, 1.0), sd.approx_t0(sd.MethodId.BLENDED, 0.1)"""
        assert self.loaded_after(code, ("numpy",)) == "[]"

    @pytest.mark.parametrize("argv", [
        ["invert", "--epsilon", "0.1", "--t", "1"],
        ["t0-table", "--epsilons", "0.1,0.01"],
        ["nondim", "--cs", "1", "--c0", "0", "--rho-p", "1200", "--rho-m", "1000",
         "--d", "1e-9", "--r0", "2e-6"],
    ], ids=lambda argv: argv[0])
    def test_scalar_commands_load_no_numpy(self, argv):
        assert self.loaded_after(self.command(argv), ("numpy",)) == "[]"

    @pytest.mark.parametrize("argv, loaded", [
        (["curve", "--epsilon", "0.1", "--method", "exact", "--samples", "8"], []),
        (["curve", "--epsilon", "0.1", "--method", "blended", "--samples", "8"], []),
        (["compare", "--epsilon", "0.1", "--methods", "exact,qss", "--samples", "8"], []),
        # the control: the oracle loads its own module, and only that
        (["curve", "--epsilon", "0.1", "--method", "ode", "--samples", "8"], ["spherediss.ode"]),
    ], ids=["curve_exact", "curve_blended", "compare_exact_qss", "curve_ode"])
    def test_commands_load_only_the_solver_they_run(self, argv, loaded):
        code = self.command(argv)
        assert self.loaded_after(code, ("spherediss.ode", "spherediss.pde")) == repr(loaded)

    def test_package_names_resolve_on_first_access(self):
        code = """
import sys
import spherediss as sd
config = sd.PdeConfig
import spherediss.pde
assert config is spherediss.pde.PdeConfig
assert set(sd.__all__) <= set(dir(sd))
namespace = {}
exec("from spherediss import *", namespace)
assert set(sd.__all__) <= set(namespace), set(sd.__all__) - set(namespace)
assert not hasattr(sd, "no_such_name")
try:
    sd.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute resolved")
"""
        assert self.loaded_after(code, ("spherediss.pde",)) == "['spherediss.pde']"

    @pytest.mark.parametrize("argv", [
        ["compare", "--epsilon", "0.1", "--methods", "exact,qss,duda,intuitive,ode",
         "--samples", "9"],
        ["compare", "--epsilon", "-0.2", "--methods", "exact,qss,blended", "--t-max", "40",
         "--samples", "9", "--format", "json"],
        ["compare", "--epsilon", "0.3", "--methods", "exact,small-time,blended",
         "--samples", "9", "--raw"],
    ], ids=["csv_with_ode", "growth_json_blended", "raw_clamped"])
    def test_compare_without_pde_loads_neither_numpy_nor_scipy(self, argv):
        assert self.loaded_after(self.command(argv), ("numpy", "scipy")) == "[]"

    def test_compare_with_pde_loads_numpy(self):
        # the control: the moving-boundary column is interpolated with numpy
        argv = ["compare", "--epsilon", "0.1", "--methods", "exact,pde", "--samples", "4"]
        assert self.loaded_after(self.command(argv), ("numpy",)) == "['numpy']"

    def test_oracle_run_and_float_queries_load_no_numpy(self):
        code = """import sys
import spherediss as sd
run = sd.integrate_radius(0.1)
run.radius_at(1.0), run.radius_at(run.t_end)
sd.integrate_radius(-0.1, t_end=2.0).radius_at(1)"""
        assert self.loaded_after(code, ("numpy", "scipy")) == "[]"


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
    either radius moves them; they are compared to 1e-9 absolute.

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
    def test_ode_curve_to_extinction_ends_at_zero(self, capsys, eps):
        # The oracle's run ends at R = 0 itself, so the last row prints its t0 and 0.
        code, out, _ = run_cli(
            capsys, "curve", "--epsilon", str(eps), "--method", "ode", "--samples", "9", "--raw"
        )
        assert code == 0
        _, rows = parse_csv(out)
        t_last, r_last = (float(v) for v in rows[-1])
        assert t_last == pytest.approx(spherediss.time_to_dissolution(eps), rel=1e-8)
        assert r_last == 0.0
