"""Command-line contract: exit codes, file outputs, determinism."""

import csv
import json
import math
import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "loglap.cli", *args],
        capture_output=True,
        text=True,
    )


def main_rc(*args):
    """Exit code of loglap.cli.main run in this process."""
    from loglap import cli

    return cli.main(list(args))


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(v) for v in row] for row in reader]


class TestKernelCommand:
    def test_hyperbolic_log2_table(self, tmp_path):
        out = tmp_path / "k2.csv"
        res = run_cli(
            "kernel",
            "--space", "hyperbolic", "--kind", "log2", "--n", "3",
            "--r-min", "0.1", "--r-max", "8", "--points", "64",
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        header, rows = read_rows(out)
        assert header == ["r", "value"] and len(rows) == 64
        values = [r[1] for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        meta = json.loads((tmp_path / "k2.csv.json").read_text())
        assert meta["n"] == 3

    def test_invalid_s_exits_2(self, tmp_path):
        res = run_cli(
            "kernel", "--space", "hyperbolic", "--kind", "frac", "--n", "3",
            "--s", "1.5", "--out", str(tmp_path / "x.csv"),
        )
        assert res.returncode == 2

    def test_euclid_heat_grid_row_count(self, tmp_path):
        out = tmp_path / "heat.csv"
        res = run_cli(
            "kernel", "--space", "euclid", "--kind", "heat", "--n", "1",
            "--t", "0.5", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        _, rows = read_rows(out)
        assert len(rows) == 64  # default grid points per axis

    def test_batched_table_matches_row_by_row(self, tmp_path):
        # the CLI's batched heat table and one-point builds give the same bytes
        import numpy as np

        from loglap import hyperbolic

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        res = run_cli(
            "kernel", "--space", "hyperbolic", "--kind", "heat", "--n", "4",
            "--t", "0.3", "--r-min", "0.005", "--r-max", "4", "--points", "12",
            "--out", str(a),
        )
        assert res.returncode == 0, res.stderr
        grid = np.linspace(0.005, 4.0, 12)
        rows = [hyperbolic.build_kernel_table(4, "heat", [r], t=0.3).values[0] for r in grid]
        hyperbolic.KernelTable(4, 0.3, grid, rows, "time_quadrature", kind="heat").to_csv(b)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()

    @pytest.mark.parametrize(
        "bounds", [("nan", "4"), ("0.5", "inf"), ("-inf", "4"), ("0.5", "nan")]
    )
    def test_non_finite_radius_exits_2(self, tmp_path, bounds):
        rc = main_rc(
            "kernel", "--space", "hyperbolic", "--kind", "log1", "--n", "3",
            "--r-min", bounds[0], "--r-max", bounds[1], "--points", "8",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    def test_underflowing_heat_table_exits_2(self, tmp_path):
        # p_2(r, t) is 0.0 in double precision at r = 8, t = 0.0156
        rc = main_rc(
            "kernel", "--space", "hyperbolic", "--kind", "heat", "--n", "2",
            "--t", "0.0156", "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", ["2", "3", "4", "5"])
    def test_subnormal_heat_time_exits_2(self, tmp_path, n):
        # t^(-q_j) overflows at t = 4.94e-324; the rows underflow to 0
        rc = main_rc(
            "kernel", "--space", "hyperbolic", "--kind", "heat", "--n", n,
            "--t", "4.94e-324", "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", ["2", "4"])
    def test_tiny_time_heat_table(self, tmp_path, capsys, n):
        # p_2 ~ (4 pi t)^(-1) = 7.96e248 fits at t = 1e-250, where t^(-3/2)
        # once overflowed; p_4 ~ t^(-2) does not, and exits 2 with no warning
        out = tmp_path / "x.csv"
        rc = main_rc(
            "kernel", "--space", "hyperbolic", "--kind", "heat", "--n", n, "--t", "1e-250",
            "--r-min", "1e-130", "--r-max", "1e-125", "--points", "3", "--out", str(out),
        )
        if n == "2":
            assert rc == 0
            flat = math.exp(-1e-260 / 4e-250) * 1e250 / (4.0 * math.pi)
            assert read_rows(out)[1][0][1] == pytest.approx(flat, rel=1e-13)
        else:
            assert rc == 2
            assert "r=1e-130, t=1e-250" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["2", "4"])
    def test_even_frac_table_near_axis(self, tmp_path, n):
        # the even-n heat kernel is resolved down to the axis, so the table
        # decreases; H^4 once read "not strictly decreasing" here
        rc = main_rc(
            "kernel", "--space", "hyperbolic", "--kind", "frac", "--n", n, "--s",
            "0.5", "--r-min", "1e-6", "--r-max", "1e-5", "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", ["2", "3", "4", "5"])
    def test_frac_table_overflow_near_axis_exits_2(self, tmp_path, capsys, n):
        # at r = 1e-100 the kernel exceeds double precision for n >= 3; on
        # H^3 (4/r^2)^s times the short-time integral once overflowed out of
        # main(). On H^2 it is the flat kernel Gamma(1+s) 4^(1+s) r^(-2-2s) / 4 pi
        out = tmp_path / "x.csv"
        rc = main_rc(
            "kernel", "--space", "hyperbolic", "--kind", "frac", "--n", n, "--s", "0.5",
            "--r-min", "1e-100", "--r-max", "1", "--points", "3", "--out", str(out),
        )
        if n == "2":
            assert rc == 0
            flat = math.gamma(1.5) * 4.0 ** 1.5 / (4.0 * math.pi) * 1e300
            assert read_rows(out)[1][0][1] == pytest.approx(flat, rel=1e-12)
        else:
            assert rc == 2
            assert "r=1e-100" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["log1", "log2"])
    def test_euclid_kernel_overflow_exits_2(self, tmp_path, kind):
        rc = main_rc(
            "kernel", "--space", "euclid", "--kind", kind, "--n", "1",
            "--r-min", "2.23e-313", "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", ["2", "3", "4", "5"])
    @pytest.mark.parametrize("r_min", ["1e-300", "1e-100"])
    def test_bessel_kernel_overflow_exits_2(self, tmp_path, n, r_min):
        # as on the time-quadrature route, the H^2 kernel fits at r = 1e-100
        out = tmp_path / "x.csv"
        rc = main_rc(
            "kernel", "--space", "hyperbolic", "--kind", "frac", "--route",
            "bessel_closed_form", "--n", n, "--s", "0.5", "--r-min", r_min,
            "--r-max", "1", "--points", "2", "--out", str(out),
        )
        if (n, r_min) == ("2", "1e-100"):
            assert rc == 0
            flat = math.gamma(1.5) * 4.0 ** 1.5 / (4.0 * math.pi) * 1e300
            assert read_rows(out)[1][0][1] == pytest.approx(flat, rel=1e-12)
        else:
            assert rc == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["log1", "log2"])
    @pytest.mark.parametrize("n", ["2", "3", "4", "5"])
    def test_log_transform_table(self, tmp_path, kind, n):
        # the rows are log_kernel_values, and the sidecar names the route
        import numpy as np

        from loglap import hyperbolic

        out = tmp_path / "x.csv"
        rc = main_rc(
            "kernel", "--space", "hyperbolic", "--kind", kind, "--route", "bessel_closed_form",
            "--n", n, "--r-min", "0.05", "--r-max", "6", "--points", "8", "--out", str(out),
        )
        assert rc == 0
        values = [row[1] for row in read_rows(out)[1]]
        ref = hyperbolic.log_kernel_values(int(n), np.linspace(0.05, 6.0, 8))[kind == "log2"]
        assert values == pytest.approx(list(ref), rel=1e-15)
        assert json.loads((tmp_path / "x.csv.json").read_text())["route"] == "bessel_closed_form"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", ["2", "4"])
    def test_log_transform_overflow_exits_2(self, tmp_path, capsys, n):
        # K1's transform exceeds double precision near the axis; the u-rule
        # once gave wrong values there and exited 0
        rc = main_rc(
            "kernel", "--space", "hyperbolic", "--kind", "log1", "--route", "bessel_closed_form",
            "--n", n, "--r-min", "1e-300", "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert "r=1e-300" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "space, kind, n",
        [("hyperbolic", "heat", "3"), ("euclid", "log1", "1"), ("euclid", "heat", "1")],
    )
    def test_route_without_meaning_exits_2(self, tmp_path, space, kind, n):
        # heat tables and euclid kernels have one route; another is an
        # argument error, not a sidecar that names the default
        rc = main_rc(
            "kernel", "--space", space, "--kind", kind, "--n", n, "--t", "1.0",
            "--route", "bessel_closed_form", "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert not (tmp_path / "x.csv").exists()

    def test_euclid_dimension_out_of_range_exits_2(self, tmp_path):
        rc = main_rc(
            "kernel", "--space", "euclid", "--kind", "log1", "--n", "0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2


class TestApplyCommand:
    def test_log_pointwise_matches_multiplier(self, tmp_path):
        p_out = tmp_path / "p.csv"
        m_out = tmp_path / "m.csv"
        base = (
            "apply", "--space", "euclid", "--op", "log", "--fn", "bump",
            "--n", "1", "--x", "0.0",
        )
        rp = run_cli(*base, "--route", "pointwise", "--out", str(p_out))
        rm = run_cli(
            *base, "--route", "multiplier", "--grid-points", "2048",
            "--out", str(m_out),
        )
        assert rp.returncode == 0 and rm.returncode == 0
        v_point = read_rows(p_out)[1][0][1]
        v_mult = read_rows(m_out)[1][0][1]
        # routes differ by the documented periodization shift of the torus
        from loglap import euclid

        shift = euclid.log_periodization_shift(
            euclid.registry()["bump"], 24.0, [0.0]
        )
        assert v_point == pytest.approx(v_mult - shift, abs=1e-6)

    @pytest.mark.parametrize("point", ["inf", "nan", "-inf"])
    def test_non_finite_point_exits_2(self, tmp_path, point):
        rc = main_rc(
            "apply", "--space", "euclid", "--op", "log", "--fn", "gaussian",
            "--n", "1", "--x", point, "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    def test_off_grid_multiplier_exits_2(self, tmp_path):
        rc = main_rc(
            "apply", "--space", "euclid", "--op", "log", "--route", "multiplier",
            "--fn", "gaussian", "--n", "1", "--x", "0.3", "--grid-points", "16",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "grid", [("24", "0"), ("24", "3"), ("0", "16"), ("-1", "16"), ("1.16e-224", "16")]
    )
    def test_bad_torus_exits_2(self, tmp_path, grid):
        rc = main_rc(
            "apply", "--space", "euclid", "--op", "log", "--route", "multiplier",
            "--fn", "gaussian", "--n", "1", "--length", grid[0], "--grid-points", grid[1],
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    def test_point_too_far_to_index_exits_2(self, tmp_path):
        rc = main_rc(
            "apply", "--space", "euclid", "--op", "log", "--route", "multiplier",
            "--fn", "gaussian", "--n", "1", "--length", "1e-150", "--grid-points", "16",
            "--x", "1e300", "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    @pytest.mark.parametrize("op", [("log",), ("frac", "--s", "0.3")])
    def test_multiplier_points_match_single_calls(self, tmp_path, op):
        base = (
            "apply", "--space", "euclid", "--op", *op, "--route", "multiplier",
            "--fn", "bump", "--n", "2", "--grid-points", "32", "--length", "6",
        )
        points = ["0.375,-0.75", "0.0,0.0", "-3.0,2.625"]
        many = tmp_path / "many.csv"
        assert main_rc(*base, *(f"--x={p}" for p in points), "--out", str(many)) == 0
        header, rows = read_rows(many)
        singles = []
        for i, p in enumerate(points):
            one = tmp_path / f"one{i}.csv"
            assert main_rc(*base, f"--x={p}", "--out", str(one)) == 0
            assert read_rows(one)[0] == header
            singles += read_rows(one)[1]
        assert len(rows) == 3
        for row, single in zip(rows, singles):
            assert row[:2] == single[:2]
            assert row[2] == pytest.approx(single[2], rel=1e-13, abs=1e-15)

    def test_multiplier_route_calls_the_traced_names(self, tmp_path, monkeypatch):
        # the benchmark's tracer attributes the route's time by wrapping these
        # two module attributes, so the CLI must look them up on euclid
        from loglap import euclid

        calls = []
        for name in ("log_multiplier", "frac_multiplier"):
            original = getattr(euclid, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(euclid, name, spy)
        base = (
            "apply", "--space", "euclid", "--route", "multiplier", "--fn", "gaussian",
            "--n", "1", "--grid-points", "16", "--x", "0.0",
        )
        assert main_rc(*base, "--op", "log", "--out", str(tmp_path / "a.csv")) == 0
        assert main_rc(*base, "--op", "frac", "--s", "0.5", "--out", str(tmp_path / "b.csv")) == 0
        assert calls == ["log_multiplier", "frac_multiplier"]

    def test_negative_point_as_separate_argument(self, tmp_path):
        # on the 16-point grid of side 24: nodes -12 + 1.5 k
        base = (
            "apply", "--space", "euclid", "--op", "log", "--route", "multiplier",
            "--fn", "gaussian", "--n", "2", "--grid-points", "16",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main_rc(*base, "--x", "-1.5,3.0", "--out", str(a)) == 0
        assert main_rc(*base, "--x=-1.5,3.0", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert read_rows(a)[1][0][:2] == [-1.5, 3.0]

    def test_unknown_function_exits_2(self, tmp_path):
        res = run_cli(
            "apply", "--space", "euclid", "--op", "log", "--fn", "nope",
            "--n", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert res.returncode == 2

    def test_frac_bochner_gaussian(self, tmp_path):
        out = tmp_path / "g.csv"
        res = run_cli(
            "apply", "--space", "euclid", "--op", "frac", "--s", "0.5",
            "--route", "bochner", "--fn", "gaussian", "--n", "1",
            "--x", "0.0", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        value = read_rows(out)[1][0][1]
        assert value == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-3)
        meta = json.loads((tmp_path / "g.csv.json").read_text())
        assert meta["route"] == "bochner" and meta["s"] == 0.5

    def test_hyperbolic_pointwise(self, tmp_path):
        out = tmp_path / "h.csv"
        res = run_cli(
            "apply", "--space", "hyperbolic", "--op", "log", "--fn", "bump",
            "--n", "3", "--x-dist", "0.0", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        header, rows = read_rows(out)
        assert header == ["x_dist", "value"] and len(rows) == 1

    def test_hyperbolic_pointwise_n5(self, tmp_path):
        from loglap import hyperbolic

        out = tmp_path / "h5.csv"
        rc = main_rc(
            "apply", "--space", "hyperbolic", "--op", "log", "--fn", "bump",
            "--n", "5", "--x-dist", "0.5", "--out", str(out),
        )
        assert rc == 0
        value = read_rows(out)[1][0][1]
        bump = hyperbolic.hyper_registry()["bump"]
        assert value == pytest.approx(hyperbolic.log_pointwise_h(5, bump, 0.5), rel=1e-12)

    @pytest.mark.parametrize("n", ["1", "6"])
    def test_hyperbolic_dimension_out_of_range_exits_2(self, tmp_path, n):
        rc = main_rc(
            "apply", "--space", "hyperbolic", "--op", "log", "--fn", "bump",
            "--n", n, "--out", str(tmp_path / "h.csv"),
        )
        assert rc == 2


class TestSharedParser:
    """main() builds its parser once per process; no call sees another's."""

    BASE = (
        "apply", "--space", "euclid", "--op", "log", "--route", "multiplier",
        "--fn", "gaussian", "--n", "1", "--grid-points", "16",
    )

    def test_built_once(self):
        from loglap import cli

        assert cli._build_parser() is cli._build_parser()

    def test_appended_points_do_not_carry_over(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main_rc(*self.BASE, "--x", "0.0", "--x", "1.5", "--out", str(a)) == 0
        assert main_rc(*self.BASE, "--x", "3.0", "--out", str(b)) == 0
        assert [row[0] for row in read_rows(a)[1]] == [0.0, 1.5]
        assert [row[0] for row in read_rows(b)[1]] == [3.0]

    def test_valid_call_after_argument_error(self, tmp_path):
        good = tmp_path / "good.csv"
        assert main_rc(*self.BASE, "--x", "0.0", "--grid-points", "nope", "--out", "x") == 2
        assert main_rc(*self.BASE, "--x", "0.3", "--out", str(tmp_path / "off.csv")) == 2
        assert main_rc(*self.BASE, "--x", "1.5", "--out", str(good)) == 0
        ref = tmp_path / "ref.csv"
        assert run_cli(*self.BASE, "--x", "1.5", "--out", str(ref)).returncode == 0
        assert good.read_bytes() == ref.read_bytes()


class TestVerifyCommand:
    def test_identities_suite_passes(self, tmp_path):
        report_path = tmp_path / "report.json"
        res = run_cli(
            "verify", "--suite", "identities", "--json-out", str(report_path)
        )
        assert res.returncode == 0, res.stdout + res.stderr
        payload = json.loads(report_path.read_text())
        assert payload["pass"] is True
        assert payload["suite"] == "identities"
        assert all(c["pass"] for c in payload["checks"])
        assert "PASS" in res.stdout

    def test_unknown_suite_exits_2(self):
        res = run_cli("verify", "--suite", "bogus")
        assert res.returncode == 2

    def test_all_suites_report_their_wall_times(self, tmp_path, monkeypatch):
        # stubbed suites with fixed times check the report's plumbing, not
        # the suites (the acceptance tests run those); like the identities
        # suite, each stub merges a sub-report of its own
        from loglap import cli, verification
        from loglap.reporting import VerifyReport

        def stub(name):
            def suite():
                rep = VerifyReport(name)
                rep.add(f"{name}-stub", "stub", 0.0, 1.0)
                rep.extend(VerifyReport(name, [], wall_time_ms=0))
                return rep

            return suite

        def timed(fn):
            report = fn()
            report.wall_time_ms = 10 + verification.SUITES.index(report.suite)
            return report

        for name in verification.SUITES:
            monkeypatch.setattr(verification, f"suite_{name}", stub(name))
        monkeypatch.setattr(verification, "_timed", timed)
        report_path = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", "all", "--json-out", str(report_path)]) == 0
        suites = json.loads(report_path.read_text())["suites"]
        assert suites == {name: 10 + i for i, name in enumerate(verification.SUITES)}

    def test_all_suites_times_are_nonnegative_ints(self, tmp_path, monkeypatch):
        from loglap import cli, verification
        from loglap.reporting import VerifyReport

        for name in verification.SUITES:
            monkeypatch.setattr(verification, f"suite_{name}", lambda name=name: VerifyReport(name))
        report_path = tmp_path / "report.json"
        assert cli.main(["verify", "--suite", "all", "--json-out", str(report_path)]) == 0
        suites = json.loads(report_path.read_text())["suites"]
        assert sorted(suites) == sorted(verification.SUITES)
        assert all(isinstance(ms, int) and ms >= 0 for ms in suites.values())

    def test_single_suite_reports_itself(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert main_rc("verify", "--suite", "specfun", "--json-out", str(report_path)) == 0
        payload = json.loads(report_path.read_text())
        assert payload["suites"] == {"specfun": payload["wall_time_ms"]}
