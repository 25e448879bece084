"""Command-line surface: output formats, exit codes, and report shape."""

import json

import pytest

from gkptri import cli
from gkptri.cli import BUDGET_HELP, dumps_canonical, main


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

    def test_row_sums_with_family_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "row-sums", "--family", "whitney",
                           "--max-n", "7")
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


class TestOracleRegistry:
    @pytest.mark.parametrize("hao, n", [("0,0,0,1,0,0", "3"), ("0,0,1,1,1,0", "2")])
    def test_vleaves_degenerate_lattice_exits_two(self, capsys, hao, n):
        # With a1 = 0 every entry of the row lands in the same v-leaf
        # bucket, so the census cannot be compared with the row.
        code, out, err = run(capsys, "oracle", "vleaves", "--hao", hao, "--n", n,
                             "--diff")
        assert code == 2
        assert out.startswith("v-leaves\tcount") and "diff:" not in out
        assert err.startswith("error: a1 = 0") and len(err.splitlines()) == 1

    def test_vleaves_degenerate_lattice_row_zero(self, capsys):
        code, out, _ = run(capsys, "oracle", "vleaves", "--hao", "0,0,0,1,0,0",
                           "--n", "0", "--diff")
        assert code == 0
        assert "matches row n=0" in out


BAD_BUDGETS = ("inf", "nan", "abc", "-1", "0", "1.5", "1e-3", "", "1e99999")


class TestBudget:
    # An empty GKPTRI_BUDGET reads as unset, so "" is only bad as a flag.
    @pytest.mark.parametrize("source, text", [
        (source, text) for source in ("verify", "oracle", "env")
        for text in BAD_BUDGETS if text or source != "env"])
    def test_bad_budget_is_usage_error(self, capsys, monkeypatch, source, text):
        if source == "verify":
            argv = ["verify", "partition-oracle", "--max-n", "2", "--budget", text]
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

    def test_budget_help_is_shared(self, capsys):
        for command in ("verify", "oracle"):
            code, out, _ = run(capsys, command, "--help")
            assert code == 0
            assert f"--budget BUDGET {BUDGET_HELP}" in " ".join(out.split())
