"""Mutants of the engines against `gkptri verify`: each is a one-line source
patch on a copy of `src/`, run in a subprocess.  A mutant in `MUTANTS` fails
its named check at a locus with the given prefix, as a failed check (exit 1)
and never as an error exit; one run with `all` also prints every record.
`ESCAPES` lists the mutants that `verify all` misses, each with the tier-1
test that catches it: that test is named, not rerun.  A suite that closes
an escape moves it into `MUTANTS`."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gkptri import verify

ROOT = Path(__file__).resolve().parents[1]
RECORDS = 31  # the records of `verify all`, one per check


def run_mutant(tmp_path, module, mutate, *suites):
    """The exit code and records of `gkptri verify <suites> --format json`, run
    in a subprocess on a copy of `src/` whose `gkptri/<module>` is `mutate`d.
    A mutant is reported as a failed check, never as an error exit."""
    src = tmp_path / "src"
    shutil.copytree(Path(verify.__file__).resolve().parents[1], src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "gkptri" / module
    text = path.read_text()
    path.write_text(mutate(text))
    assert path.read_text() != text
    proc = subprocess.run([sys.executable, "-m", "gkptri", "verify", *suites, "--format", "json"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode in (0, 1), proc.stderr
    return proc.returncode, json.loads(proc.stdout)["checks"]


def _general_branch_keeps_zero_sums(text):
    head, loop, tail = text.partition("for i, shift, rc in steps:")
    return head + loop + tail.replace("del out[key]", "out[key] = s", 1)


# name: (module, patch, suite run, check that fails, locus prefix of its failure)
MUTANTS = {
    # The v step's u shift off by one in _derive's two-letter branch: the
    # lattice reader raises inside grammar-recurrence, and the other suites
    # still run and report.
    "derive-wrong-u-shift": (
        "grammar.py", lambda text: text.replace("(not i, s0, s1, rc)", "(not i, s0 + i, s1, rc)"),
        "all", "grammar-recurrence",
        "NonTriangularExpansion: D^1 = -4*u^-7*v^-6 - 6*u^-10*v^-8 has monomials off the row-1"
        " lattice"),
    # Two mutants that only ode-gen's named grammars reach.
    "derive-keeps-zero-sums": (
        "grammar.py", _general_branch_keeps_zero_sums, "ode-gen", "ode-gen",
        "grammar [Grammar(x -> -z + y; y -> z - x; z -> -y + x)], letter x"),
    "egf-levels-unscales-by-d-squared": (
        "fps.py", lambda text: text.replace("d ** n)", "d ** min(n, 2))"), "ode-gen", "ode-gen",
        "grammar [Grammar(u -> 1/2*u^2*v; v -> 1/3*u*v^-1)], letter u"),
}

# name: (module, patch, the tier-1 test that catches it)
ESCAPES = {
    # Rows from row 2 on divided by d, not d^n: no suite runs a rational six-tuple.
    "unscaled-rows-by-d-from-row-2": (
        "triangles.py", lambda text: text.replace("scale *= d", "scale *= d if scale == 1 else 1"),
        "tests/test_triangles.py::TestRecurrenceParity::test_matches_entrywise_fill"),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_verify_reports_mutant(tmp_path, mutant):
    module, patch, suite, name, prefix = MUTANTS[mutant]
    code, checks = run_mutant(tmp_path, module, patch, suite)
    [check] = [c for c in checks if c["name"] == name]
    assert (code, check["status"]) == (1, "fail") and check["locus"].startswith(prefix)
    assert len(checks) == (RECORDS if suite == "all" else 1)


@pytest.mark.parametrize("escape", sorted(ESCAPES))
def test_escape_still_passes_verify_all(tmp_path, escape):
    module, patch, _ = ESCAPES[escape]
    code, checks = run_mutant(tmp_path, module, patch, "all")
    assert (code, len(checks)) == (1, RECORDS)
    # Only the known red check (C13) fails, as on the unpatched source.
    assert [(c["name"], c["locus"]) for c in checks if c["status"] != "pass"] == [
        ("excedance-oracle", "r=2, n=1")]


def test_escapes_name_tier1_tests():
    for _, _, test in ESCAPES.values():
        path, cls, name = test.split("::")
        [node] = [n for n in ast.parse((ROOT / path).read_text()).body
                  if isinstance(n, ast.ClassDef) and n.name == cls]
        assert name in {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
