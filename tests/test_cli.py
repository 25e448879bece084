"""Command-line surface: output formats, exit codes, and report shape."""

import contextlib
import decimal
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkptri import cli
from gkptri.cli import BUDGET_HELP, dumps_canonical, main
from gkptri.polyring import LaurentPoly
from gkptri.triangles import (
    FORMATS,
    TriangleParams,
    format_triangle,
    r_eulerian,
    recurrence_triangle,
    second_order_eulerian,
    stirling2_triangle,
    whitney_eulerian,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTriangleCommand:
    def test_whitney_oeis(self, capsys):
        code, out, _ = run(
            capsys, "triangle", "--family", "whitney", "--m", "1", "--r", "1",
            "--rows", "4", "--format", "oeis",
        )
        assert code == 0
        assert out == "1\n1\n1,1\n1,4,1\n1,11,11,1\n"

    def test_params_row_zero(self, capsys):
        code, out, _ = run(capsys, "triangle", "--params", "0,1,0,1,0,0",
                           "--rows", "0")
        assert code == 0
        assert out == "1\n"

    def test_second_order_last_row(self, capsys):
        code, out, _ = run(capsys, "triangle", "--family", "second-order",
                           "--r", "2", "--rows", "3")
        assert code == 0
        assert out.splitlines()[-1] == "1,8,6"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "triangle", "--family", "stirling2",
                           "--rows", "4", "--format", "json")
        assert code == 0
        text = out.rstrip("\n")
        assert json.dumps(json.loads(text), sort_keys=True,
                          separators=(",", ":")) == text

    def test_missing_family_params(self, capsys):
        code, _, err = run(capsys, "triangle", "--rows", "3")
        assert code == 2
        assert "family" in err or "params" in err

    def test_whitney_needs_m_and_r(self, capsys):
        code, _, err = run(capsys, "triangle", "--family", "whitney",
                           "--rows", "3")
        assert code == 2

    def test_bad_params_text(self, capsys):
        code, _, err = run(capsys, "triangle", "--params", "1,2,3",
                           "--rows", "2")
        assert code == 2

    def test_family_and_params_exclude_each_other(self, capsys):
        code, out, err = run(capsys, "triangle", "--family", "stirling2",
                             "--params", "1,1,1,1,1,1", "--rows", "2")
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err

    def test_gkp_is_not_a_family(self, capsys):
        assert "gkp" not in cli.FAMILIES
        code, out, err = run(capsys, "triangle", "--family", "gkp", "--rows", "2")
        assert (code, out) == (2, "")
        assert "invalid choice: 'gkp'" in err


def triangle_stdout(*argv):
    """Exit code and standard output of `gkptri triangle ARGV`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["triangle", *argv])
    return code, out.getvalue()


def params_text(six):
    return ",".join(map(str, six))


class TestTriangleOutputParity:
    """The CLI prints exactly format_triangle of the recurrence rows, plus a
    final newline, in every format."""

    @given(st.tuples(*[st.integers(-3, 3)] * 6), st.integers(0, 12),
           st.sampled_from(FORMATS))
    @settings(max_examples=150, deadline=None)
    def test_integer_six_tuples(self, six, n_max, fmt):
        code, out = triangle_stdout(f"--params={params_text(six)}",
                                    "--rows", str(n_max), "--format", fmt)
        assert code == 0
        expected = format_triangle(recurrence_triangle(TriangleParams(*six), n_max), fmt)
        assert out == expected + "\n"

    @given(st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=4)] * 6),
           st.integers(0, 12), st.sampled_from(FORMATS))
    @settings(max_examples=100, deadline=None)
    def test_rational_six_tuples(self, six, n_max, fmt):
        code, out = triangle_stdout(f"--params={params_text(six)}",
                                    "--rows", str(n_max), "--format", fmt)
        assert code == 0
        expected = format_triangle(recurrence_triangle(TriangleParams(*six), n_max), fmt)
        assert out == expected + "\n"

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("argv, triangle", [
        (["--family", "whitney", "--m", "3", "--r", "2"], lambda n: whitney_eulerian(3, 2, n)),
        (["--family", "r-eulerian", "--r", "2"], lambda n: r_eulerian(2, n)),
        (["--family", "second-order", "--r", "2"], lambda n: second_order_eulerian(2, n)),
        (["--family", "stirling2"], stirling2_triangle),
    ])
    def test_families(self, argv, triangle, fmt):
        code, out = triangle_stdout(*argv, "--rows", "12", "--format", fmt)
        assert code == 0
        assert out == format_triangle(triangle(12), fmt) + "\n"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_negative_zero_prints_as_zero(self, fmt):
        # a = -1 and b = 0: from row 2 on, an exact decimal fill meets
        # (-1)*0 + 0*(-1), which is -0 in decimal arithmetic.
        code, out = triangle_stdout("--params=-1,0,0,0,0,0", "--rows", "4",
                                    "--format", fmt)
        assert code == 0
        assert "-0" not in out
        expected = format_triangle(recurrence_triangle(TriangleParams(-1, 0, 0, 0, 0, 0), 4), fmt)
        assert out == expected + "\n"


class TestTriangleStreaming:
    def test_negative_six_tuple_with_equals_form(self):
        # `--params -2,...` reads as an unknown option to argparse; the
        # `--params=-2,...` form passes the value through.
        code, out = triangle_stdout("--params=-2,1,-3,0,-1,2", "--rows", "3")
        assert code == 0
        expected = format_triangle(recurrence_triangle(TriangleParams(-2, 1, -3, 0, -1, 2), 3),
                                   "oeis")
        assert out == expected + "\n"

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_negative_rows_writes_nothing(self, fmt):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["triangle", "--family", "stirling2", "--rows", "-1", "--format", fmt])
        assert code == 2
        assert out.getvalue() == ""
        assert err.getvalue() == "error: n_max must be nonnegative\n"

    def test_lost_digit_stops_the_output(self, monkeypatch):
        assert cli.EXACT.prec == decimal.MAX_PREC
        assert cli.EXACT.traps[decimal.Inexact] and cli.EXACT.traps[decimal.Rounded]
        # Row 6 of whitney(3,2) is the first with a six-digit entry
        # (154113).  With five digits of precision and no traps a rounded
        # value is printed; with the traps of EXACT the command stops
        # before that row, with exit 4.
        argv = ("--family", "whitney", "--m", "3", "--r", "2", "--rows", "9")
        exact = format_triangle(whitney_eulerian(3, 2, 9), "oeis") + "\n"
        assert triangle_stdout(*argv) == (0, exact)
        monkeypatch.setattr(cli, "EXACT", decimal.Context(prec=5, traps=[]))
        code, out = triangle_stdout(*argv)
        assert code == 0 and out != exact
        monkeypatch.setattr(cli, "EXACT", decimal.Context(
            prec=5, traps=[decimal.Inexact, decimal.Rounded]))
        code, out = triangle_stdout(*argv)
        assert code == cli.EXIT_INTERNAL
        assert out == "\n".join(exact.splitlines()[:6])

    def test_closed_stdout_exits_zero_quietly(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "gkptri", "triangle", "--family", "stirling2",
             "--rows", "400"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(10) == b"1\n0,1\n0,1,"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""


class TestGrammarCommand:
    def test_hao_expansion(self, capsys):
        code, out, _ = run(capsys, "grammar", "--hao", "2,3,0,1,-3,3",
                           "--seed", "u*v^2", "--n", "1")
        assert code == 0
        assert out.splitlines() == ["u*v^2", "u*v^5 + 2*u^4*v^2"]

    def test_n_zero_echoes_seed(self, capsys):
        code, out, _ = run(capsys, "grammar", "--hao", "2,3,0,1,-3,3",
                           "--seed", "u*v^2", "--n", "0")
        assert code == 0
        assert out == "u*v^2\n"

    def test_default_seed_from_params(self, capsys):
        code, out, _ = run(capsys, "grammar", "--hao", "2,3,0,1,-3,3", "--n", "0")
        assert code == 0
        assert out == "u*v^2\n"

    def test_rules_file(self, capsys, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("u -> u*v^3\nv -> u^3*v\n")
        code, out, _ = run(capsys, "grammar", "--rules", str(rules),
                           "--seed", "u*v^2", "--n", "2")
        assert code == 0
        assert out.splitlines()[-1] == "u*v^8 + 13*u^4*v^5 + 4*u^7*v^2"

    def test_rules_file_with_unsorted_alphabet(self, capsys, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("z -> a*z^2\na -> z\n")
        code, out, _ = run(capsys, "grammar", "--rules", str(rules),
                           "--seed", "z*a^-1 + 2*a", "--n", "2")
        assert (code, out) == (0, "2*a + a^-1*z\nz^2 + 2*z - a^-2*z^2\n"
                                  "2*a*z^3 + 2*a*z^2 - 2*a^-1*z^3 + 2*a^-3*z^3\n")
        code, out, _ = run(capsys, "series", "--rules", str(rules), "--seed", "z",
                           "--order", "3")
        assert (code, out) == (0, "t^0: z\nt^1: a*z^2\nt^2: a^2*z^3 + 1/2*z^3\n"
                                  "t^3: a^3*z^4 + 7/6*a*z^4\n")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "grammar", "--hao", "2,3,0,1,-3,3",
                           "--seed", "u*%", "--n", "1")
        assert code == 2
        assert "parse error" in err


class TestSeriesCommand:
    def test_tree_function(self, capsys):
        code, out, _ = run(capsys, "series", "--tree-function", "--order", "4")
        assert code == 0
        assert out == "0, 1, 1, 3/2, 8/3\n"

    def test_gen_series_listing(self, capsys):
        code, out, _ = run(capsys, "series", "--hao", "2,3,0,1,-3,3",
                           "--seed", "u*v^2", "--order", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t^0: u*v^2"
        assert lines[2] == "t^2: 1/2*u*v^8 + 13/2*u^4*v^5 + 2*u^7*v^2"

    @pytest.mark.parametrize("command, flag, name", [("series", "--order", "order"),
                                                     ("grammar", "--n", "n")])
    def test_negative_length_names_its_flag(self, capsys, command, flag, name):
        code, out, err = run(capsys, command, "--hao", "2,3,0,1,-3,3", flag, "-1")
        assert (code, out, err) == (2, "", f"error: {name} must be nonnegative\n")


# Rules files of the golden expansions: the last named `ode-gen` grammar, three
# letters with rational rules and negative exponents, and a rule to a constant.
GOLDEN_RULES = {
    "three": "x -> x^2*y^-1*z\ny -> y^3 + 1/2*x*z^-2\nz -> x^-1*y*z\n",
    "one": "x -> 1\n",
}
NEGATIVE_SEED = "3/4*u^-2*v+v^-3-2*u"


class TestGoldenExpansions:
    """sha256 of `grammar` and `series` outputs on shapes that the benchmark
    pins leave out, pinned from the term-map renderer that `render_packed`
    replaced."""

    @pytest.mark.parametrize("argv, size, digest", [
        (("grammar", "--rules", "three", "--seed", "x*z", "--n", "5"), 1540,
         "f7b3ff8f52f7363777b5d0cf1fdb63dd0b7f6e50252cffbc01acd5285837b9fe"),
        (("series", "--rules", "three", "--seed", "y", "--order", "6"), 2269,
         "54332aac289c05fefb7c835295d41ce44b0b56d5f3ac35f3076e6170a3a82cab"),
        (("grammar", "--hao", "2,3,0,1,-3,3", "--seed", NEGATIVE_SEED, "--n", "8"), 1792,
         "7eb0442adfea30fca54ba5a42dd87d41e5ea43af31b4ae050ea9d184a9e0ac11"),
        (("series", "--hao", "2,3,0,1,-3,3", "--seed", NEGATIVE_SEED, "--order", "8"), 2042,
         "832ed05022c9d98fde29bc41e61bdc3455a1a874627d9868a799352910bf7404"),
        (("grammar", "--rules", "one", "--seed", "x", "--n", "3"), 8,
         "b6a15af2230481e856c1a1bab50dd28b503bdd39a4de298e8f82ea4e4ac0e9d9"),
        (("series", "--rules", "one", "--seed", "x", "--order", "3"), 28,
         "f10193dd12959aca4ffb64c56754dbf3717f33d8abb1a9dedd01a20b8a8cfacc"),
        (("series", "--tree-function", "--order", "30"), 827,
         "d207a58075456bcabfb49f46fa864a17abda81e4da89ab110c63715e97e936be"),
    ], ids=["grammar-three-letters", "series-three-letters", "grammar-negative-seed",
            "series-negative-seed", "grammar-to-zero", "series-to-zero", "tree-function"])
    def test_output_digest(self, capsys, tmp_path, argv, size, digest):
        argv = list(argv)
        if "--rules" in argv:
            at = argv.index("--rules") + 1
            rules = tmp_path / f"{argv[at]}.txt"
            rules.write_text(GOLDEN_RULES[argv[at]])
            argv[at] = str(rules)
        code, out, err = run(capsys, *argv)
        data = out.encode()
        assert (code, err, len(data), hashlib.sha256(data).hexdigest()) == (0, "", size, digest)


def test_verify_plain_digest(capsys):
    # sha256 of the plain `verify all` lines but the last, which holds the time.
    # The JSON records sort their params, so only these lines pin their order,
    # e.g. `tuples` after `n_max`.
    code, out, err = run(capsys, "verify", "all", "--max-n", "3", "--order", "3")
    *lines, last = out.splitlines(keepends=True)
    data = "".join(lines).encode()
    assert (code, err, len(data), hashlib.sha256(data).hexdigest()) == (
        1, "", 1961, "1b246f542e90d917c57e0ad65a78403bdc8508d6c8f8ac49b728ae82f063ed2b")
    assert last.startswith("31 check(s) in ") and last.endswith(" ms: FAILURES above\n")


def constructor_calls(monkeypatch, capsys, *argv) -> int:
    """How many LaurentPolys one successful CLI call builds."""
    calls = 0
    build = LaurentPoly.__init__

    def counting(self, terms=None):
        nonlocal calls
        calls += 1
        build(self, terms)

    with monkeypatch.context() as patch:
        patch.setattr(LaurentPoly, "__init__", counting)
        assert run(capsys, *argv)[0] == 0
    return calls


@pytest.mark.parametrize("command, flag", [("grammar", "--n"), ("series", "--order")])
def test_expansions_print_without_building_polynomials(monkeypatch, capsys, command, flag):
    # The levels are rendered packed: parsing and the grammar build a fixed
    # number of LaurentPolys, and no level adds one.
    counts = [constructor_calls(monkeypatch, capsys, command, "--hao", "2,3,0,1,-3,3",
                                flag, str(size)) for size in (5, 50)]
    assert counts[0] == counts[1]


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "tree-function", "--order", "8")
        assert code == 0
        assert "tree-function" in out
        assert "pass" in out

    def test_known_failing_suite(self, capsys):
        # The excedance battery includes r = 2, where the recurrence family
        # genuinely differs from the census; the suite reports the failure.
        code, out, _ = run(capsys, "verify", "excedance-oracle", "--max-n", "2")
        assert code == 1
        assert "FAIL" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "no-such-suite")
        assert code == 2
        assert "unknown suite" in err

    def test_all_report_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max-n", "2",
                           "--order", "3", "--budget", "1e6",
                           "--format", "json")
        payload = json.loads(out)
        assert len(payload["checks"]) >= 12
        suite_names = [c["name"] for c in payload["checks"]]
        assert suite_names == sorted(suite_names)
        assert payload["passed"] is False  # excedance battery is red
        assert code == 1

    def test_json_round_trips_byte_identical(self, capsys):
        code, out, _ = run(capsys, "verify", "tree-function", "row-sums",
                           "--max-n", "3", "--order", "4", "--format", "json")
        assert code == 0
        text = out.rstrip("\n")
        assert dumps_canonical(json.loads(text)) == text

    def test_second_order_point_option(self, capsys):
        code, out, _ = run(capsys, "verify", "second-order-egf",
                           "--y", "1/2", "--order", "6")
        assert code == 0

    def test_negative_point_needs_the_equals_form(self, capsys):
        code, out, err = run(capsys, "verify", "second-order-egf",
                             "--y=-3/7", "--order", "6")
        assert code == 0
        assert "second-order-egf [y=-3/7] order<=6: pass" in out
        # argparse reads `-3/7` as an option, so `--y` lacks its value
        code, out, err = run(capsys, "verify", "second-order-egf",
                             "--y", "-3/7", "--order", "6")
        assert code == 2
        assert out == ""
        assert "argument --y: expected one argument" in err
        assert "Traceback" not in err

    def test_row_sums_with_family_flag(self, capsys):
        # verify has no --family option: whitney is the only sum family
        code, _, _ = run(capsys, "verify", "row-sums", "--family", "whitney",
                         "--max-n", "7")
        assert code == 2
        code, out, _ = run(capsys, "verify", "row-sums", "--max-n", "7")
        assert code == 0
        assert "row-sums" in out and "pass" in out


class TestOracleCommand:
    def test_descent_table(self, capsys):
        code, out, _ = run(capsys, "oracle", "descents", "--n", "2", "--r", "2")
        assert code == 0
        assert "descents\tcount" in out
        assert "0\t1" in out and "1\t2" in out and "total\t3" in out

    def test_diff_pass(self, capsys):
        code, out, _ = run(capsys, "oracle", "partitions", "--n", "4", "--diff")
        assert code == 0
        assert "matches row n=4" in out

    def test_diff_cadets_shifted(self, capsys):
        code, out, _ = run(capsys, "oracle", "cadets", "--n", "3", "--r", "2",
                           "--diff")
        assert code == 0

    def test_diff_mismatch_exits_one(self, capsys):
        code, out, _ = run(capsys, "oracle", "excedances", "--n", "1", "--r", "2",
                           "--diff")
        assert code == 1
        assert "MISMATCH" in out

    def test_components_diff(self, capsys):
        code, out, _ = run(capsys, "oracle", "components", "--n", "3",
                           "--params", "0,1,1", "--diff")
        assert code == 0

    def test_vleaves_diff_against_any_six_tuple(self, capsys):
        code, out, _ = run(capsys, "oracle", "vleaves", "--n", "3",
                           "--hao", "2,3,0,1,-3,3", "--diff")
        assert code == 0
        assert "matches row n=3" in out

    def test_vleaves_needs_hao(self, capsys):
        code, _, err = run(capsys, "oracle", "vleaves", "--n", "2")
        assert code == 2

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("GKPTRI_BUDGET", "10")
        code, _, err = run(capsys, "oracle", "partitions", "--n", "7")
        assert code == 3
        assert "budget" in err.lower()

    def test_budget_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GKPTRI_BUDGET", "10")
        code, _, _ = run(capsys, "oracle", "partitions", "--n", "7",
                         "--budget", "1e6")
        assert code == 0


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_internal_error_exits_four(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("solver state lost")

        monkeypatch.setattr(cli, "cmd_triangle", boom)
        code, out, err = run(capsys, "triangle", "--family", "stirling2", "--rows", "2")
        assert code == cli.EXIT_INTERNAL == 4
        assert out == ""
        assert err == "internal error: RuntimeError: solver state lost\n"

    @pytest.mark.parametrize("argv, code", [(["verify", "row-sums"], 0),
                                            (["verify", "no-such-suite"], 2)])
    def test_module_entry_point(self, capsys, monkeypatch, argv, code):
        monkeypatch.setattr("sys.argv", ["gkptri", *argv])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("gkptri", run_name="__main__")
        assert exc.value.code == code
        out = capsys.readouterr().out
        assert ("row-sums" in out) == (code == 0)


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["triangle", "--params", "1/0,1,0,1,0,0", "--rows", "2"],
        ["grammar", "--hao", "1/0,1,0,1,0,0"],
        ["oracle", "vleaves", "--hao", "1/0,1,0,1,0,0", "--n", "2"],
        ["verify", "second-order-egf", "--y", "1/0"],
    ])
    def test_zero_denominator_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: zero denominator in '1/0'\n"

    @pytest.mark.parametrize("suite", ["history-counts", "whitney-egf", "all"])
    @pytest.mark.parametrize("flag", ["--max-n", "--order"])
    def test_negative_cap_is_rejected_before_any_suite(self, capsys, flag, suite):
        code, out, err = run(capsys, "verify", suite, flag, "-1")
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be nonnegative, got -1\n"

    @pytest.mark.parametrize("y", ["0", "1", "2/2", "-0"])
    @pytest.mark.parametrize("suite", ["second-order-egf", "all"])
    def test_degenerate_y_is_rejected_before_any_suite(self, capsys, monkeypatch, suite, y):
        def no_suites(*_):
            raise AssertionError("a suite ran")
        monkeypatch.setattr(cli, "run_suites", no_suites)
        code, out, err = run(capsys, "verify", suite, "--y", "1/2", f"--y={y}")
        assert code == 2
        assert out == ""
        assert err == "error: the identity needs y outside {0, 1}\n"

    @pytest.mark.parametrize("text", ["1/0,1,1", "1,x,1", "1,2", "1,2,3,4"])
    def test_components_params_need_three_integers(self, capsys, text):
        code, out, err = run(capsys, "oracle", "components", "--params", text, "--n", "2")
        assert code == 2
        assert out == ""
        assert err == f"error: --params needs three integers a0,a1,a2, got {text!r}\n"

    @pytest.mark.parametrize("argv, source, unread", [
        (("--family", "stirling2", "--m", "5", "--r", "2"), "--family stirling2", "--m or --r"),
        (("--params", "0,1,0,1,0,0", "--r", "7"), "--params", "--r"),
        (("--family", "r-eulerian", "--r", "2", "--m", "9"), "--family r-eulerian", "--m"),
        (("--family", "second-order", "--m", "1", "--r", "2"), "--family second-order", "--m"),
    ])
    def test_triangle_rejects_an_option_its_source_does_not_read(self, capsys, argv, source,
                                                                 unread):
        code, out, err = run(capsys, "triangle", *argv, "--rows", "2")
        assert (code, out, err) == (2, "", f"error: {source} does not take {unread}\n")

    @pytest.mark.parametrize("argv, needs", [
        (("--family", "whitney", "--m", "2"), "--family whitney needs --m and --r"),
        (("--family", "r-eulerian", "--m", "2"), "--family r-eulerian needs --r"),
        (("--family", "second-order",), "--family second-order needs --r"),
    ])
    def test_triangle_family_names_the_options_it_needs(self, capsys, argv, needs):
        code, out, err = run(capsys, "triangle", *argv, "--rows", "2")
        assert (code, out, err) == (2, "", f"error: {needs}\n")

    @pytest.mark.parametrize("argv, unread", [
        (("partitions", "--r", "5"), "--r"),
        (("descents", "--r", "2", "--params", "1,2,3"), "--params"),
        (("components", "--params", "1,2,1", "--hao", "2,3,0,1,-3,3"), "--hao"),
        (("vleaves", "--hao", "2,3,0,1,-3,3", "--r", "1", "--params", "1,2,1"),
         "--r or --params"),
    ])
    def test_oracle_rejects_an_option_its_kind_does_not_read(self, capsys, argv, unread):
        code, out, err = run(capsys, "oracle", *argv, "--n", "3", "--diff")
        assert (code, out, err) == (2, "", f"error: oracle {argv[0]} does not take {unread}\n")

    @pytest.mark.parametrize("command, length", [("grammar", "--n"), ("series", "--order")])
    def test_hao_and_rules_exclude_each_other(self, capsys, command, length):
        code, out, err = run(capsys, command, "--hao", "2,3,0,1,-3,3", "--rules",
                             "/nonexistent", length, "1")
        assert (code, out) == (2, "")
        assert "argument --rules: not allowed with argument --hao" in err

    @pytest.mark.parametrize("argv, unread", [
        (("--hao", "2,3,0,1,-3,3"), "--hao"), (("--rules", "/nonexistent"), "--rules"),
        (("--seed", "u"), "--seed"), (("--hao", "2,3,0,1,-3,3", "--seed", "u"), "--hao or --seed"),
    ])
    def test_tree_function_reads_no_grammar(self, capsys, argv, unread):
        code, out, err = run(capsys, "series", "--tree-function", *argv, "--order", "3")
        assert (code, out, err) == (2, "", f"error: --tree-function does not take {unread}\n")

    def test_big_integers_print_in_full(self, capsys):
        before = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code, out, _ = run(capsys, "triangle", "--params", "1e300,0,0,1,0,0", "--rows", "15")
        assert code == 0
        assert out.splitlines()[-1].split(",")[0] == "1" + "0" * 4500
        if before is not None:
            assert sys.get_int_max_str_digits() == before


class TestOracleRegistry:
    @pytest.mark.parametrize("hao, n", [("0,0,0,1,0,0", "3"), ("0,0,1,1,1,0", "2"),
                                        ("1,0,0,1,1,0", "9")])
    def test_vleaves_degenerate_lattice_exits_two(self, capsys, hao, n):
        # With a1 = 0 every entry of the row lands in the same v-leaf
        # bucket, so the census cannot be compared with the row: --diff
        # refuses it before the census is walked, and spends no budget
        # (row 9 of 1,0,0,1,1,0 has far more than 100 histories).
        code, out, err = run(capsys, "oracle", "vleaves", "--hao", hao, "--n", n,
                             "--diff", "--budget", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error: a1 = 0") and len(err.splitlines()) == 1

    def test_vleaves_degenerate_lattice_census_without_diff(self, capsys):
        code, out, _ = run(capsys, "oracle", "vleaves", "--hao", "1,0,0,1,1,0", "--n", "2")
        assert code == 0
        assert out.startswith("v-leaves\tcount") and out.splitlines()[-1] == "total\t11"

    def test_vleaves_degenerate_lattice_row_zero(self, capsys):
        code, out, _ = run(capsys, "oracle", "vleaves", "--hao", "0,0,0,1,0,0",
                           "--n", "0", "--diff")
        assert code == 0
        assert "matches row n=0" in out


BAD_BUDGETS = ("inf", "nan", "abc", "-1", "0", "1.5", "1e-3", "", "1e99999")


class TestBudget:
    # An empty GKPTRI_BUDGET reads as unset, so "" is only bad as a flag.
    @pytest.mark.parametrize("source, text", [
        (source, text) for source in ("verify", "oracle", "triangle", "env")
        for text in BAD_BUDGETS if text or source != "env"])
    def test_bad_budget_is_usage_error(self, capsys, monkeypatch, source, text):
        if source == "verify":
            argv = ["verify", "partition-oracle", "--max-n", "2", "--budget", text]
        elif source == "triangle":
            argv = ["triangle", "--family", "stirling2", "--rows", "2", "--budget", text]
        elif source == "oracle":
            argv = ["oracle", "partitions", "--n", "2", "--budget", text]
        else:
            monkeypatch.setenv("GKPTRI_BUDGET", text)
            argv = ["oracle", "partitions", "--n", "2"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "positive integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, code", [("10", 3), ("1e1", 3), ("1e6", 0),
                                            ("1000000", 0), (" 1E6 ", 0)])
    def test_good_budget_is_accepted(self, capsys, text, code):
        got, _, _ = run(capsys, "oracle", "partitions", "--n", "7", "--budget", text)
        assert got == code
        got, _, _ = run(capsys, "verify", "partition-oracle", "--budget", text)
        assert got == code
        got, _, _ = run(capsys, "triangle", "--family", "stirling2", "--rows", "7",
                        "--budget", text)
        assert got == code

    @pytest.mark.parametrize("argv", [
        ("partitions",), ("components", "--params", "0,1,1"), ("cadets", "--r", "2")])
    def test_deep_walk_reaches_the_budget(self, capsys, monkeypatch, argv):
        # n = 1500 is deeper than Python's recursion limit; the walk must
        # still end at the default budget, exit 3, not in a RecursionError.
        monkeypatch.delenv("GKPTRI_BUDGET", raising=False)
        code, out, err = run(capsys, "oracle", *argv, "--n", "1500")
        assert code == 3
        assert out == ""
        assert err == "budget exceeded: enumeration passed the budget of 10000000 objects\n"

    def test_triangle_spends_its_entries_before_the_first_row(self, capsys, monkeypatch):
        monkeypatch.delenv("GKPTRI_BUDGET", raising=False)
        code, out, err = run(capsys, "triangle", "--family", "whitney", "--m", "3", "--r", "2",
                             "--rows", "100000")
        assert (code, out) == (3, "")
        assert err == "budget exceeded: 5000150001 triangle entries pass the budget of 10000000\n"
        # Rows 0..5 hold 21 entries.
        for budget, expected in (("20", 3), ("21", 0), ("1e12", 0)):
            code, out, _ = run(capsys, "triangle", "--family", "stirling2", "--rows", "5",
                               "--budget", budget)
            assert code == expected and (out == "") == (expected == 3)
        monkeypatch.setenv("GKPTRI_BUDGET", "20")
        assert run(capsys, "triangle", "--family", "stirling2", "--rows", "5")[0] == 3

    def test_budget_help_is_shared(self, capsys):
        for command in ("verify", "oracle", "triangle"):
            code, out, _ = run(capsys, command, "--help")
            assert code == 0
            assert f"--budget BUDGET {BUDGET_HELP}" in " ".join(out.split())


# -- argv fuzz: every outcome is a documented exit code, with no traceback ----
# Sizes stay at most 5; `all`, `grammar-recurrence` and `ode-gen` are left out,
# being the suites too slow to run this often.

# Mostly valid values and a few bad ones, so that argvs reach the commands'
# work as well as their usage errors.
SIZES = st.sampled_from([0, 1, 2, 3, 4, 5, -1])
SIX_TUPLES = st.sampled_from(["1,1,0,1,0,0", "2,3,0,1,-3,3", "1/2,1,0,1,0,0", "0,1,0,1,0,0",
                              "1,1,0", "1,x,0,1,0,0"])
BUDGETS = st.sampled_from(["1e6", "100", "1", "0", "many"])
SEEDS = st.sampled_from(["u*v^2", "u", "v^-1", "3/4*u + v", "0", "u^", "1/0", "w"])
FUZZ_SUITES = sorted(set(cli.SUITES) - {"grammar-recurrence", "ode-gen"}) + ["no-such-suite"]


def options(name, values):
    """A one-item list `--name=value`, so that negative values stay values."""
    return values.map(lambda value: [f"{name}={value}"])


def argvs(command, leading, required, optional):
    """`command`, its leading tokens, then each option as `--name=value`;
    the ones in `required` always, a flag given as None standing alone."""
    return st.tuples(leading, st.fixed_dictionaries(required, optional=optional)).map(
        lambda pair: [command, *pair[0], *(name if value is None else f"{name}={value}"
                                           for name, value in pair[1].items())])


NO_TOKENS = st.just([])
GRAMMAR_SOURCES = st.one_of(NO_TOKENS, options("--hao", SIX_TUPLES),
                            st.just(["--rules", "no-such-rules-file"]))
FUZZ_ARGVS = st.one_of(
    argvs("triangle",
          st.one_of(NO_TOKENS, options("--family", st.sampled_from([*cli.FAMILIES, "gkp"])),
                    options("--params", SIX_TUPLES)),
          {"--rows": SIZES},
          {"--m": SIZES, "--r": SIZES, "--format": st.sampled_from([*FORMATS, "xml"]),
           "--budget": BUDGETS}),
    argvs("grammar", GRAMMAR_SOURCES, {}, {"--seed": SEEDS, "--n": SIZES}),
    argvs("series", st.one_of(GRAMMAR_SOURCES, st.just(["--tree-function"])),
          {"--order": SIZES}, {"--seed": SEEDS}),
    argvs("verify", st.lists(st.sampled_from(FUZZ_SUITES), min_size=1, max_size=2),
          {"--max-n": SIZES, "--order": SIZES},
          {"--budget": BUDGETS, "--y": st.sampled_from(["1/2", "-3/7", "2", "1", "y"]),
           "--format": st.sampled_from(["plain", "json", "csv"])}),
    argvs("oracle", st.sampled_from([*cli.ORACLES, "trees"]).map(lambda kind: [kind]),
          {"--n": SIZES},
          {"--r": SIZES, "--params": st.sampled_from(["1,1,0", "-1,2,1", "1,2", "x"]),
           "--hao": SIX_TUPLES, "--diff": st.none(), "--budget": BUDGETS}),
)


@given(FUZZ_ARGVS)
@settings(max_examples=150, deadline=None)
def test_argv_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    # Exit 1 means a check failed, and only verify and oracle --diff check.
    assert code != 1 or argv[0] == "verify" or (argv[0] == "oracle" and "--diff" in argv)
