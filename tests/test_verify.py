"""Pins of `gkptri verify --format json`: the payload schema, and the exact
records of the brute-force oracle suites."""

import json

import pytest

from gkptri.cli import main
from gkptri.verify import ORACLES, SUITES


def verify_json(capsys, *argv):
    code = main(["verify", *argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


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
    _, text = oracle.grid[0]
    option = [f"--{oracle.option}", text] if oracle.option else []
    assert main(["oracle", kind, "--n", "3", *option, "--diff"]) == 0
    assert "diff: matches row n=3" in capsys.readouterr().out
    if kind == "excedances":
        assert main(["oracle", kind, "--n", "3", "--r", "2", "--diff"]) == 1
        assert "diff: MISMATCH row n=3" in capsys.readouterr().out


def test_components_params_needs_three_values(capsys):
    assert main(["oracle", "components", "--n", "2", "--params", "1,2"]) == 2
    err = capsys.readouterr().err
    assert "a0,a1,a2" in err and len(err.splitlines()) == 1
