"""Pins of `gkptri verify --format json`: the payload schema, and the exact
records of the brute-force oracle suites, the closed-form suites and
`ode-gen`."""

import gc
import inspect
import json
import re
from contextlib import nullcontext
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkptri import closedforms as cf
from gkptri import verify
from gkptri.cli import main
from gkptri.errors import (
    BudgetExceeded,
    NonInvertibleConstantTerm,
    NonTriangularExpansion,
    ZeroA1,
)
from gkptri.fps import OdeSystem, egf_levels, gen_levels
from gkptri.grammar import hao_grammar, hao_seed
from gkptri.polyring import LaurentPoly, monomial
from gkptri.triangles import Triangle, TriangleParams
from gkptri.verify import ORACLES, ROUTES, SUITES, VerifyOptions
from series_reference import (
    constant,
    egf_series,
    exp_t,
    poly_mul,
    reference_closed_form_whitney,
    reference_secondorder_egf,
    reference_secondorder_w,
    series_exp,
    series_mul,
    series_pow,
    series_sub,
    t_term,
)


def verify_json(capsys, *argv):
    code = main(["verify", *argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_check_report_defaults_and_own_params():
    a, b = verify.CheckReport("x"), verify.CheckReport("x")
    a.params["k"] = 1
    assert b.params == {} and a.params is not b.params
    assert (b.name, b.order, b.passed, b.failure) == ("x", None, True, None)
    c = verify.CheckReport("y", {"m": 2}, 5)
    assert (c.params, c.order) == ({"m": 2}, 5)


def test_first_mismatch_stops_there_and_formats_only_its_locus():
    made = []

    def comparisons():
        yield 1, 1, "{never formatted}"
        for i in range(5):
            made.append(i)
            yield i, min(i, 2), "{} at {}", "item", i
    report = verify.CheckReport("x").first_mismatch(comparisons())
    assert (report.passed, report.failure, made) == (False, "item at 3", [0, 1, 2, 3])
    assert verify.CheckReport("y").first_mismatch([(1, 1, "{}")]).passed


def test_engine_error_fails_the_report_after_the_last_match():
    def comparisons(error, matched):
        for n in range(matched):
            yield n, n, "{never formatted}" if n < matched - 1 else "n={}", n
        raise error
    report = verify.CheckReport("x").first_mismatch(
        comparisons(NonTriangularExpansion("off the lattice"), 3))
    assert (report.passed, report.failure) == (
        False, "NonTriangularExpansion: off the lattice after n=2")
    report = verify.CheckReport("y").first_mismatch(comparisons(ZeroA1("a1 = 0"), 0))
    assert report.failure == "ZeroA1: a1 = 0"
    for error in (BudgetExceeded("over"), ValueError("order must be nonnegative")):
        with pytest.raises(type(error)):
            verify.CheckReport("z").first_mismatch(comparisons(error, 2))


def test_verify_options_defaults():
    opts = VerifyOptions()
    assert (opts.max_n, opts.order, opts.budget) == (None, None, verify.census_mod.DEFAULT_BUDGET)
    assert opts.y_values == (Fraction(1, 2), Fraction(2))
    assert VerifyOptions(3, 4, 5).cap_n(6) == 3


def test_json_schema(capsys):
    code, payload = verify_json(capsys, "all", "--max-n", "2", "--order", "3")
    assert code == 1
    assert set(payload) == {"command", "checks", "passed", "wall_ms"}
    assert payload["command"] == ["verify", "all"]
    assert payload["passed"] is False
    assert isinstance(payload["wall_ms"], int) and payload["wall_ms"] >= 0
    for check in payload["checks"]:
        assert set(check) == {"name", "params", "order", "status", "locus"}
        assert isinstance(check["name"], str)
        assert all(isinstance(k, str) and isinstance(v, str)
                   for k, v in check["params"].items())
        assert check["order"] is None or isinstance(check["order"], int)
        assert check["status"] in ("pass", "fail")
        assert (check["locus"] is None) == (check["status"] == "pass")
    failed = [(c["name"], c["locus"]) for c in payload["checks"]
              if c["status"] == "fail"]
    assert failed == [("excedance-oracle", "r=2, n=1")]


A_GRID = "a0 in {0,1,2}, a1,a2 in {1,2,3}"
WHITNEY_GRID = "m in {1,2,3}, 0 <= r <= m"

ORACLE_RECORDS = [
    {"name": "cadet-oracle", "params": {"r": "2", "n_max": "3"},
     "order": None, "status": "pass", "locus": None},
    {"name": "component-oracle", "params": {"grid": A_GRID, "n_max": "3"},
     "order": None, "status": "pass", "locus": None},
    {"name": "descent-oracle", "params": {"grid": "r in {1,2,3}", "n_max": "3"},
     "order": None, "status": "pass", "locus": None},
    {"name": "excedance-oracle", "params": {"grid": "r in {0,1,2}", "n_max": "3"},
     "order": None, "status": "fail", "locus": "r=2, n=1"},
    {"name": "history-counts", "params": {"grid": WHITNEY_GRID, "n_max": "3"},
     "order": None, "status": "pass", "locus": None},
    {"name": "partition-oracle", "params": {"n_max": "3"},
     "order": None, "status": "pass", "locus": None},
    {"name": "vleaf-oracle", "params": {"grid": WHITNEY_GRID, "n_max": "3"},
     "order": None, "status": "pass", "locus": None},
]


def test_oracle_suite_records(capsys):
    names = [r["name"] for r in ORACLE_RECORDS]
    code, payload = verify_json(capsys, *names, "--max-n", "3")
    assert code == 1
    assert payload["checks"] == ORACLE_RECORDS
    assert payload["passed"] is False


@pytest.mark.parametrize("record", ORACLE_RECORDS, ids=lambda r: r["name"])
def test_oracle_suite_plain_line(capsys, record):
    code = main(["verify", record["name"], "--max-n", "3"])
    line = capsys.readouterr().out.splitlines()[0]
    extras = ", ".join(f"{k}={v}" for k, v in record["params"].items())
    status = "pass" if record["locus"] is None else f"FAIL ({record['locus']})"
    assert line == f"{record['name']} [{extras}]: {status}"
    assert code == (0 if record["locus"] is None else 1)


KINDS = ("descents", "excedances", "partitions", "cadets", "components", "vleaves")


def oracle_kind_choices(capsys):
    assert main(["oracle", "--help"]) == 0
    usage = capsys.readouterr().out
    choices = usage[usage.index("{") + 1:usage.index("}")]
    return tuple(choices.split(","))


def test_oracle_kinds_unchanged(capsys):
    assert oracle_kind_choices(capsys) == KINDS
    assert tuple(ORACLES) == KINDS


@pytest.mark.parametrize("kind", ORACLES)
def test_oracle_registry_parity(capsys, kind):
    oracle = ORACLES[kind]
    assert oracle.suite in SUITES
    assert kind in oracle_kind_choices(capsys)
    _, arg = oracle.grid[0]
    text = ",".join(map(str, arg)) if isinstance(arg, tuple) else str(arg)
    option = [f"--{oracle.option}", text] if oracle.option else []
    assert main(["oracle", kind, "--n", "3", *option, "--diff"]) == 0
    assert "diff: matches row n=3" in capsys.readouterr().out
    if kind == "excedances":
        assert main(["oracle", kind, "--n", "3", "--r", "2", "--diff"]) == 1
        assert "diff: MISMATCH row n=3" in capsys.readouterr().out


def test_oracle_suite_stops_at_first_mismatch(monkeypatch):
    # The census after the first wrong row is never taken, so one that would
    # pass the budget there leaves the failed check a failed check.
    descent_census, calls = verify.census_mod.stirling_descent_census, []

    def wrong_then_over_budget(n, r, budget):
        calls.append((n, r))
        if len(calls) > 1:
            raise BudgetExceeded(f"census past the first mismatch, at n={n}, r={r}")
        census = descent_census(n, r, budget=budget)
        census.counts[0] += 1
        return census
    monkeypatch.setattr(verify.census_mod, "stirling_descent_census", wrong_then_over_budget)
    [report] = SUITES["descent-oracle"](VerifyOptions())
    assert (report.passed, report.failure) == (False, "r=1, n=0")
    assert calls == [(0, 1)]


def test_partition_oracle_reports_a_bare_locus(monkeypatch):
    # Its one grid point has an empty label, so the locus is `n=<n>` alone.
    set_partition_census = verify.census_mod.set_partition_census

    def extra_partition(n, budget):
        census = set_partition_census(n, budget=budget)
        if n == 3:
            census.counts[1] += 1
        return census
    monkeypatch.setattr(verify.census_mod, "set_partition_census", extra_partition)
    [report] = SUITES["partition-oracle"](VerifyOptions())
    assert report.record() == {"name": "partition-oracle", "params": {"n_max": "7"},
                               "order": None, "status": "fail", "locus": "n=3"}


def test_components_params_needs_three_values(capsys):
    assert main(["oracle", "components", "--n", "2", "--params", "1,2"]) == 2
    err = capsys.readouterr().err
    assert "a0,a1,a2" in err and len(err.splitlines()) == 1



# (name, grid text, default n_max) of the eight closed-form suites.
CLOSED_FORM_SUITES = [
    ("a1zero-rowsum", "a0 in {0,1,2}, a2 in {1,2,3}", 7),
    ("a2zero-explicit", "a0 in {0,1,2}, a1 in {1,2,3}", 6),
    ("alternating-sums", WHITNEY_GRID, 7),
    ("b1-explicit", A_GRID, 7),
    ("b2zero-explicit", A_GRID + ", b0,b1 in {0,1,2}", 7),
    ("row-sums", WHITNEY_GRID, 7),
    ("touchard", "a0 in {0,1,2}, a1 in {1,2,3}", 6),
    ("whitney-explicit", WHITNEY_GRID, 7),
]


def closed_form_records(max_n):
    return [{"name": name,
             "params": {"grid": grid, "n_max": str(n_max if max_n is None else max_n)},
             "order": None, "status": "pass", "locus": None}
            for name, grid, n_max in CLOSED_FORM_SUITES]


GRIDS = {"default": [], "max-n-3": ["--max-n", "3"]}


@pytest.mark.parametrize("grid", GRIDS)
def test_closed_form_suite_records(capsys, grid):
    names = [name for name, _, _ in CLOSED_FORM_SUITES]
    code, payload = verify_json(capsys, *names, *GRIDS[grid])
    assert code == 0
    assert payload["checks"] == closed_form_records(3 if GRIDS[grid] else None)
    assert payload["passed"] is True


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("index", range(len(CLOSED_FORM_SUITES)),
                         ids=[name for name, _, _ in CLOSED_FORM_SUITES])
def test_closed_form_suite_plain_line(capsys, grid, index):
    record = closed_form_records(3 if GRIDS[grid] else None)[index]
    assert main(["verify", record["name"], *GRIDS[grid]]) == 0
    lines = capsys.readouterr().out.splitlines()
    params = record["params"]
    assert lines[0] == f"{record['name']} [grid={params['grid']}, n_max={params['n_max']}]: pass"
    assert len(lines) == 2 and lines[1].startswith("1 check(s) in ")


def _off_by_one_at(fn, point):
    def patched(*args):
        value = fn(*args)
        return value + 1 if args == point else value
    return patched


def _last_entry_off_at(fn, a1_n):
    def patched(a0, *args):
        row = fn(a0, *args)
        if args == a1_n:
            row[-1] += 1
        return row
    return patched


FAILURE_CASES = {
    "whitney-explicit": (
        "a_mr_explicit", lambda fn: _off_by_one_at(fn, (2, 1, 3, 2)), "m=2, r=1, n=3, k=2"),
    "b1-explicit": (
        "f_gram_explicit", lambda fn: lambda *args: Fraction(fn(*args)),
        "non-integral a=(0,1,1), n=0, k=0"),
    "a1zero-rowsum": (
        "a1zero_rowsum", lambda fn: _off_by_one_at(fn, (1, 2, 4)), "a0=1, a2=2, n=4"),
    "touchard": (
        "touchard_row", lambda fn: _last_entry_off_at(fn, (3, 5)), "a0=0, a1=3, n=5"),
}


@pytest.mark.parametrize("name", FAILURE_CASES)
def test_closed_form_suite_reports_first_failure(monkeypatch, name):
    attr, patch, locus = FAILURE_CASES[name]
    monkeypatch.setattr(cf, attr, patch(getattr(cf, attr)))
    reports = SUITES[name](VerifyOptions())
    assert [(r.name, r.passed, r.failure) for r in reports] == [(name, False, locus)]


def test_a_route_is_one_table_row(capsys, monkeypatch):
    # A new route and its grid are one row of ROUTES, run by the one runner:
    # here S(n,k) read entry by entry on the Stirling subset triangle.
    route = verify.Route((("", None),), lambda _: verify.stirling2_params(),
                         lambda _, n, k: cf.stirling2(n, k), n_max=6,
                         report={"grid": "stirling2"}, grain="entry")
    monkeypatch.setitem(ROUTES, "stirling2-explicit", route)
    monkeypatch.setitem(SUITES, "stirling2-explicit", partial(route.run, "stirling2-explicit"))
    record = {"name": "stirling2-explicit", "params": {"grid": "stirling2", "n_max": "6"},
              "order": None, "status": "pass", "locus": None}
    code, payload = verify_json(capsys, "stirling2-explicit")
    assert (code, payload["checks"]) == (0, [record])
    monkeypatch.setattr(cf, "stirling2", _off_by_one_at(cf.stirling2, (4, 2)))
    code, payload = verify_json(capsys, "stirling2-explicit")
    assert (code, payload["checks"]) == (1, [{**record, "status": "fail", "locus": "n=4, k=2"}])


def test_closed_form_suite_stops_at_first_mismatch(monkeypatch):
    # No entry after the first mismatch is evaluated, so a closed form that
    # raises there cannot turn the failed check into an error.
    a_mr_explicit, calls = cf.a_mr_explicit, []

    def wrong_then_raising(*args):
        calls.append(args)
        if len(calls) > 1:
            raise RuntimeError(f"evaluated past the first mismatch, at {args}")
        return a_mr_explicit(*args) + 1
    monkeypatch.setattr(cf, "a_mr_explicit", wrong_then_raising)
    [report] = SUITES["whitney-explicit"](VerifyOptions())
    assert (report.passed, report.failure) == (False, "m=1, r=0, n=0, k=0")
    assert calls == [(1, 0, 0, 0)]


ODE_GEN_GRID = "hao rules (a1,a2,b1,b2) in [-2,2]^4 nondegenerate + named grammars"


@pytest.mark.parametrize("order", [8, 3])
def test_ode_gen_record_and_plain_line(capsys, order):
    options = [] if order == 8 else ["--order", str(order)]
    code, payload = verify_json(capsys, "ode-gen", *options)
    assert code == 0
    assert payload["checks"] == [{
        "name": "ode-gen", "params": {"grammars": "613", "grid": ODE_GEN_GRID},
        "order": order, "status": "pass", "locus": None}]
    assert main(["verify", "ode-gen", *options]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"ode-gen [grid={ODE_GEN_GRID}, grammars=613] order<={order}: pass"
    assert len(lines) == 2 and lines[1].startswith("1 check(s) in ")


def test_ode_gen_reports_first_failure(monkeypatch):
    grammar_ode = verify.grammar_ode

    def doubled_u(g):
        system = grammar_ode(g)
        return OdeSystem(g, {**system.initial, "u": poly_mul(system.initial["u"], 2)})
    monkeypatch.setattr(verify, "grammar_ode", doubled_u)
    [report] = SUITES["ode-gen"](VerifyOptions())
    assert report.record() == {
        "name": "ode-gen", "params": {"grammars": "613", "grid": ODE_GEN_GRID},
        "order": 8, "status": "fail",
        "locus": "grammar [Grammar(u -> u^-3*v^-4; v -> u^-2*v^-1)], letter u"}


def test_ode_gen_grammars_are_distinct(monkeypatch):
    grammars, grammar_ode = [], verify.grammar_ode

    def recorded(g):
        grammars.append(g)
        return grammar_ode(g)
    monkeypatch.setattr(verify, "grammar_ode", recorded)
    [report] = SUITES["ode-gen"](VerifyOptions(order=0))
    assert report.passed and len(grammars) == report.params["grammars"] == 613
    assert all(g != h for i, g in enumerate(grammars) for h in grammars[:i])


def test_closed_form_registry_parity(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")  # no wrapping inside suite names
    assert main(["verify", "--help"]) == 0
    available = capsys.readouterr().out.split("available: ")[1].splitlines()[0]
    assert set(ROUTES) <= set(SUITES)
    assert set(ROUTES) <= set(available.split(", "))


def test_no_suite_shadows_another():
    hand_written = [fn for name, fn in inspect.getmembers(verify, inspect.isfunction)
                    if name.startswith("suite_")]
    assert all(fn in SUITES.values() for fn in hand_written)
    assert all(ROUTES[oracle.suite] is oracle for oracle in ORACLES.values())
    assert len(SUITES) == len(hand_written) + len(ROUTES)


def test_readme_closed_form_table_lists_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Closed forms\n", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if m := re.match(r"\| `([a-z0-9-]+)` .*\| `([^`]*)` +\| (\d+) +\|$", line):
            rows[m[1]] = (m[2], int(m[3]))
    assert rows == {name: (route.report["grid"], route.n_max) for name, route in ROUTES.items()
                    if route.grain != "triangle" and not isinstance(route, verify.Oracle)}


def test_readme_quick_tour_values():
    # Each line of the "Library quick tour" with a trailing comment evaluates to
    # it: a polynomial prints as the comment, and any other value has the repr
    # of the comment's value, so that 1 and True differ.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library quick tour\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if code and not comment:
            exec(code, namespace)
        elif code:
            value = eval(code, namespace)
            if isinstance(value, LaurentPoly):
                assert str(value) == comment, line
            else:
                assert repr(value) == repr(eval(comment, namespace)), line
            checked += 1
    assert checked == 8


# -- first failure loci of the generating-function checks and hand-written suites


def _entry_bumped(fn, n, k):
    """`fn` returning a copy of its triangle with T(n,k) one larger."""
    def patched(*args):
        tri = fn(*args)
        rows = [list(row) for row in tri.rows]
        rows[n][k] += 1
        return Triangle(tri.params, rows, tri.family)
    return patched


BUMPED_ENTRIES = [(0, 0), (3, 1), (5, 5), (6, 2)]


@pytest.mark.parametrize("n, k", BUMPED_ENTRIES)
def test_whitney_egf_reports_first_mismatch(monkeypatch, n, k):
    monkeypatch.setattr(verify, "whitney_eulerian", _entry_bumped(verify.whitney_eulerian, n, k))
    report = verify.verify_closed_form_whitney(2, 1, 6)
    assert (report.passed, report.failure) == (False, f"point (2, 1): first mismatch at order {n}")
    reports = SUITES["whitney-egf"](VerifyOptions())
    assert {r.failure for r in reports} == {f"point (2, 1): first mismatch at order {n}"}


@pytest.mark.parametrize("n, k", BUMPED_ENTRIES)
def test_second_order_egf_reports_first_mismatch(monkeypatch, n, k):
    monkeypatch.setattr(verify, "second_order_eulerian",
                        _entry_bumped(verify.second_order_eulerian, n, k))
    report = verify.verify_secondorder_egf(Fraction(1, 2), 6)
    assert (report.passed, report.failure) == (False, f"first mismatch at order {n}")
    reports = SUITES["second-order-egf"](VerifyOptions(y_values=(Fraction(2), Fraction(-3))))
    assert [r.failure for r in reports] == [f"first mismatch at order {n}"] * 2


def test_second_order_egf_first_mismatch_at_high_order(monkeypatch):
    monkeypatch.setattr(verify, "second_order_eulerian",
                        _entry_bumped(verify.second_order_eulerian, 40, 17))
    report = verify.verify_secondorder_egf(Fraction(-3, 7), 60)
    assert (report.passed, report.failure) == (False, "first mismatch at order 40")


def test_second_order_egf_inexact_division_fails_the_next_order(monkeypatch):
    # q^(n+1) W_n is always an integer; a remainder, were there one, fails
    # the order whose W it would have made, and is never rounded.
    calls = []

    def divmod_(a, b):
        calls.append(a)
        return (a // b, 1) if len(calls) == 4 else divmod(a, b)
    monkeypatch.setattr(verify, "divmod", divmod_, raising=False)
    report = verify.verify_secondorder_egf(Fraction(1, 2), 6)
    assert (report.passed, report.failure) == (False, "first mismatch at order 4")


def test_whitney_egf_first_mismatch_at_high_order(monkeypatch):
    monkeypatch.setattr(verify, "whitney_eulerian", _entry_bumped(verify.whitney_eulerian, 40, 17))
    report = verify.verify_closed_form_whitney(3, 2, 40)
    assert (report.passed, report.failure) == (False, "point (2, 1): first mismatch at order 40")


# -- the generating-function checks against their Fraction references


def _outcome(report):
    return report.name, report.params, report.order, report.passed, report.failure


ys = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)).filter(
    lambda y: y not in (0, 1))


def _bump(data, order):
    """None, or an entry (n, k) of rows 0..order drawn from `data`."""
    if data.draw(st.booleans()):
        return None
    n = data.draw(st.integers(0, order))
    return n, data.draw(st.integers(0, n))


def _patched(name, bump):
    """A context in which `verify.<name>` has the entry `bump` bumped, if any."""
    if bump is None:
        return nullcontext()
    return patch.object(verify, name, _entry_bumped(getattr(verify, name), *bump))


@given(ys, st.integers(0, 30), st.data())
@settings(max_examples=60, deadline=None)
def test_second_order_egf_matches_fraction_reference(y, order, data):
    bump = _bump(data, order)
    with _patched("second_order_eulerian", bump):
        report = verify.verify_secondorder_egf(y, order)
        assert _outcome(report) == _outcome(reference_secondorder_egf(y, order))
    assert report.passed == (bump is None)


@given(ys, st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_second_order_w_cleared_by_q_power_is_integral(y, n_max):
    for n, w in enumerate(reference_secondorder_w(y, n_max)):
        assert (y.denominator ** (n + 1) * w).denominator == 1


@given(st.integers(1, 4), st.integers(0, 4), st.integers(0, 14), st.data())
@settings(max_examples=60, deadline=None)
def test_whitney_egf_matches_reference(m, r, order, data):
    bump = _bump(data, order)
    with _patched("whitney_eulerian", bump):
        report = verify.verify_closed_form_whitney(m, r, order)
        assert _outcome(report) == _outcome(reference_closed_form_whitney(m, r, order))
    assert report.passed or bump is not None


def _touchard_bumped_at(fn, n0):
    def patched(a0, a1, n):
        row = fn(a0, a1, n)
        return [*row[:-1], row[-1] + 1] if n == n0 else row
    return patched


def _rowsum_bumped_at(fn, n0):
    return lambda a0, a2, n: fn(a0, a2, n) + (n == n0)


# Each bumped closed row, its check, and the first sub-check of closed-solutions
# that fails: its name, the parameter beside a0, its locus and its place in the
# suite's order, which is how many systems the suite solves.
CLOSED_SOLUTION_FAILURES = {
    "a2zero": ("touchard_row", _touchard_bumped_at, verify.verify_sol_a2zero,
               "a2zero-solution", "a1", "U*V^a0", 1),
    "a1zero": ("a1zero_rowsum", _rowsum_bumped_at, verify.verify_sol_a1zero,
               "a1zero-solution", "a2", "row sums", 10),
}


@pytest.mark.parametrize("kind", CLOSED_SOLUTION_FAILURES)
def test_closed_solutions_report_first_mismatch(monkeypatch, kind):
    attr, bump, check, name, a, locus, _ = CLOSED_SOLUTION_FAILURES[kind]
    monkeypatch.setattr(cf, attr, bump(getattr(cf, attr), 2))
    report = check(1, 2, 5)
    assert (report.passed, report.failure) == (False, f"{locus}: first mismatch at order 2")
    [suite_report] = SUITES["closed-solutions"](VerifyOptions())
    assert suite_report.failure == (
        f"{name}{{'a0': 0, '{a}': 1}}: {locus}: first mismatch at order 2")
    assert str(suite_report) == ("closed-solutions [grid=a0 in {0,1,2}, a1/a2 in {1,2,3}] "
                                 f"order<=5: FAIL ({suite_report.failure})")


@pytest.mark.parametrize("kind", CLOSED_SOLUTION_FAILURES)
def test_closed_solutions_solve_no_system_past_the_first_mismatch(monkeypatch, kind):
    attr, bump, *_, solves = CLOSED_SOLUTION_FAILURES[kind]
    monkeypatch.setattr(cf, attr, bump(getattr(cf, attr), 2))
    egf_levels, calls = verify.egf_levels, []
    monkeypatch.setattr(verify, "egf_levels", lambda *a: calls.append(a) or egf_levels(*a))
    [report] = SUITES["closed-solutions"](VerifyOptions())
    assert (report.passed, len(calls)) == (False, solves)


def _raising_on_second_call(error):
    """`egf_levels` that raises `error` on its second call."""
    egf_levels, calls = verify.egf_levels, []

    def patched(system, order):
        calls.append(system)
        if len(calls) == 2:
            raise error
        return egf_levels(system, order)
    return patched


def test_closed_solutions_lay_an_engine_error_at_its_sub_check(monkeypatch):
    # The second system fails to solve: its sub-check fails, not the first
    # one, which passed.
    monkeypatch.setattr(verify, "egf_levels",
                        _raising_on_second_call(NonInvertibleConstantTerm("no inverse")))
    [report] = SUITES["closed-solutions"](VerifyOptions())
    assert (report.passed, report.failure) == (
        False, "a2zero-solution{'a0': 0, 'a1': 2}: NonInvertibleConstantTerm: no inverse")
    monkeypatch.setattr(verify, "egf_levels", _raising_on_second_call(BudgetExceeded("over")))
    with pytest.raises(BudgetExceeded):
        SUITES["closed-solutions"](VerifyOptions())


def _a2zero_rows(a1, order):
    """n! [t^n] of U and V solving U' = U V^a1, V' = V from (u, v):
    u sum_j a1^(n-j) S(n,j) v^(a1 j), and v."""
    us = [LaurentPoly({monomial({"u": 1, "v": a1 * j}): a1 ** (n - j) * cf.stirling2(n, j)
                       for j in range(n + 1)}) for n in range(order + 1)]
    return us, [LaurentPoly.variable("v")] * (order + 1)


def _a1zero_rows(a2, order):
    """n! [t^n] of U and V solving U' = U V^a2, V' = V^(a2+1) from (u, v):
    u v^(a2 n) rho_n and v^(1 + a2 n) rho_n, rho_n = 1 (1+a2) ... (1+(n-1)a2)."""
    rhos = [cf.rising_step(1, a2, n) for n in range(order + 1)]
    return ([LaurentPoly.from_exponents({"u": 1, "v": a2 * n}, rho) for n, rho in enumerate(rhos)],
            [LaurentPoly.from_exponents({"v": 1 + a2 * n}, rho) for n, rho in enumerate(rhos)])


@pytest.mark.parametrize("a1", [-2, 1, 2, 3])
def test_a2zero_rows_match_the_closed_series(a1):
    # The closed series U = u exp(v^a1 (e^(a1 t) - 1)/a1) and V = v e^t.
    order = 10
    u, v = LaurentPoly.variable("u"), LaurentPoly.variable("v")
    v_a1 = LaurentPoly.from_exponents({"v": a1})
    arg = series_mul(series_sub(exp_t(a1, order), constant(1, order)),
                     constant(poly_mul(v_a1, Fraction(1, a1)), order))
    u_rows, v_rows = _a2zero_rows(a1, order)
    assert series_mul(constant(u, order), series_exp(arg)) == egf_series(u_rows)
    assert series_mul(constant(v, order), exp_t(1, order)) == egf_series(v_rows)
    assert all(verify.verify_sol_a2zero(a0, a1, o).passed for a0 in (0, 2) for o in (0, order))


@pytest.mark.parametrize("a2", [1, 2, 3])
def test_a1zero_rows_satisfy_the_relations(a2):
    # V^a2 (1 - a2 v^a2 t) = v^a2 and U v = u V, which fix the solution.
    order = 10
    u, v = LaurentPoly.variable("u"), LaurentPoly.variable("v")
    v_a2 = LaurentPoly.from_exponents({"v": a2})
    us, vs = map(egf_series, _a1zero_rows(a2, order))
    linear = series_sub(constant(1, order), t_term(poly_mul(v_a2, a2), order))
    assert series_mul(series_pow(vs, a2), linear) == constant(v_a2, order)
    assert series_mul(us, constant(v, order)) == series_mul(vs, constant(u, order))
    assert all(verify.verify_sol_a1zero(a0, a2, o).passed for a0 in (0, 2) for o in (0, order))


def _levels_bumped_at(letter, k):
    """`egf_levels` with u*v added to level k of `letter`'s, packed over (u, v)."""
    egf_levels = verify.egf_levels

    def patched(system, order):
        names, ys = egf_levels(system, order)
        assert names == ("u", "v")
        level = ys[letter][k]
        ys[letter][k] = {**level, (1, 1): level.get((1, 1), 0) + 1}
        return names, ys
    return patched


# Each check, its (a0, a1 or a2) grid, and the locus of the seed letter w = U V^Q.
SOLUTION_CHECKS = {
    "a2zero": (verify.verify_sol_a2zero, ((1, 2), (0, -2), (2, 3)), "U*V^a0"),
    "a1zero": (verify.verify_sol_a1zero, ((1, 2), (0, 1), (2, 3)), "row sums"),
}


@pytest.mark.parametrize("letter, k",
                         [("u", 0), ("u", 3), ("v", 2), ("v", 4), ("w", 1), ("w", 5)])
@pytest.mark.parametrize("kind", SOLUTION_CHECKS)
def test_closed_solution_reports_first_perturbed_order(monkeypatch, kind, letter, k):
    check, grid, w_locus = SOLUTION_CHECKS[kind]
    monkeypatch.setattr(verify, "egf_levels", _levels_bumped_at(letter, k))
    locus = w_locus if letter == "w" else letter.upper()
    for a0, a in grid:
        report = check(a0, a, 5)
        assert (report.passed, report.failure) == (
            False, f"{locus}: first mismatch at order {k}")


def test_hao_system_seed_letter_carries_the_derivatives():
    # w solves to U^P V^Q, so its EGF-normal levels are D^n(hao_seed(p)).
    for six in product((-1, 0, 1), repeat=6):
        p = TriangleParams(*six)
        names, ys = egf_levels(verify._hao_system(p), 6)
        assert names == ("u", "v")
        assert ys["w"] == gen_levels(hao_grammar(p), hao_seed(p), 6), p


@pytest.mark.parametrize("k, locus", [(0, "functional equation T - z*exp(T) != 0"),
                                      (5, "coefficient 5")],
                         ids=["constant-term", "coefficient-5"])
def test_tree_function_reports_first_coefficient(monkeypatch, k, locus):
    # A wrong constant term is a failed functional equation, not an error.
    tree_function = verify.tree_function

    def off_at_k(order):
        t = tree_function(order)
        t[k] += 1
        return t
    monkeypatch.setattr(verify, "tree_function", off_at_k)
    comb, combs = verify.comb, []
    monkeypatch.setattr(verify, "comb", lambda *a: combs.append(a) or comb(*a))
    [report] = SUITES["tree-function"](VerifyOptions())
    assert report.record() == {"name": "tree-function", "params": {}, "order": 12,
                               "status": "fail", "locus": locus}
    # A wrong coefficient fails before the exp(T) convolution is computed.
    assert bool(combs) == (k == 0)


def test_grammar_recurrence_reports_first_tuple(monkeypatch):
    extract_triangle = verify.extract_triangle
    bumped = _entry_bumped(extract_triangle, 2, 1)
    monkeypatch.setattr(verify, "extract_triangle", lambda params, n: (
        bumped if params in (verify.whitney_params(2, 1), verify.stirling2_params())
        else extract_triangle)(params, n))
    [report] = SUITES["grammar-recurrence"](VerifyOptions(max_n=3))
    assert report.record() == {
        "name": "grammar-recurrence",
        "params": {"grid": "a,b in [-2,2]^6, (a1,b1) != (0,0)", "n_max": "3",
                   "tuples": "8088"},
        "order": None, "status": "fail", "locus": "params 0,1,0,1,0,0"}


def test_grammar_recurrence_counts_the_tuples_it_reads(monkeypatch):
    # Tuples past the first mismatch are not read, so not counted.
    extract_triangle, calls = verify.extract_triangle, []

    def hundredth_bumped(params, n):
        calls.append(params)
        return (_entry_bumped(extract_triangle, 1, 0) if len(calls) == 100
                else extract_triangle)(params, n)
    monkeypatch.setattr(verify, "extract_triangle", hundredth_bumped)
    [report] = SUITES["grammar-recurrence"](VerifyOptions(max_n=2))
    assert (report.passed, report.params["tuples"], len(calls)) == (False, 100, 100)
    assert report.failure == f"params {calls[-1]}"
    monkeypatch.undo()
    [report] = SUITES["grammar-recurrence"](VerifyOptions(max_n=2))
    assert (report.passed, report.params["tuples"]) == (True, 15000)


def test_expansion_golden_reports_first_level(monkeypatch):
    gen_levels = verify.gen_levels

    def second_level_off(g, seed, n):
        levels = gen_levels(g, seed, n)
        return [*levels[:2], {**levels[2], (1, 0): 1}]  # plus u
    monkeypatch.setattr(verify, "gen_levels", second_level_off)
    [report] = SUITES["expansion-golden"](VerifyOptions())
    assert report.record() == {
        "name": "expansion-golden", "params": {"cases": "2"}, "order": None,
        "status": "fail", "locus": "first grammar, D^2 = u*v^8 + 13*u^4*v^5 + 4*u^7*v^2 + u"}


def test_history_counts_report_first_locus(monkeypatch):
    census_vleaves = verify.census_mod.census_vleaves

    def extra_history(g, seed, n, letter, budget):
        census = census_vleaves(g, seed, n, letter, budget=budget)
        if n == 2 and seed == verify.hao_seed(verify.whitney_params(2, 1)):
            census.counts[-1] = 1
        return census
    monkeypatch.setattr(verify.census_mod, "census_vleaves", extra_history)
    [report] = SUITES["history-counts"](VerifyOptions(max_n=3))
    assert report.failure == "total histories, m=2, r=1, n=2"

    history_leaf_profile = verify.census_mod.history_leaf_profile
    monkeypatch.setattr(verify.census_mod, "history_leaf_profile",
                        lambda g, seed, n: [*history_leaf_profile(g, seed, n)[:-1], 0])
    [report] = SUITES["history-counts"](VerifyOptions(max_n=3))
    assert report.failure == "leaf profile, m=1, r=0"


def test_b2zero_explicit_reads_the_b1_entries_from_the_cache():
    # b2zero-explicit's 243 triangles are b1-explicit's 27, each under 9 rising-step
    # prefactors: 27 * 36 entries are computed once and read 8 more times each.
    cf.f_gram_explicit.cache_clear()
    verify.run_suites(["b1-explicit", "b2zero-explicit"], VerifyOptions())
    info = cf.f_gram_explicit.cache_info()
    assert (info.misses, info.hits) == (972, 8748)


def test_suites_leave_no_cyclic_garbage():
    # A cached nested function that calls itself holds itself through its closure
    # cell: egf_levels deletes its `stream`, so no system waits for a cycle collection.
    leftover = {}
    gc.collect()
    gc.disable()
    try:
        for name in sorted(SUITES):
            SUITES[name](VerifyOptions(max_n=3, order=3))
            leftover[name] = gc.collect()
    finally:
        gc.enable()
    assert {name: n for name, n in leftover.items() if n} == {}
