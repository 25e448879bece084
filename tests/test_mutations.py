"""Mutants of the engines against `gkptri verify`: each is a one-line source
patch on a copy of `src/`, run in a subprocess.  A mutant in `MUTANTS` fails
its named check at a locus with the given prefix (and with any params
given), as a failed check (exit 1) and never as an error exit; one run with
`all` also prints every record.
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


def _replace(old, new):
    """The patch that makes the first `old` in a module's text `new`."""
    return lambda text: text.replace(old, new, 1)


def _general_branch_keeps_zero_sums(text):
    head, loop, tail = text.partition("for i, shift, rc in steps:")
    return head + loop + tail.replace("del out[key]", "out[key] = s", 1)


_F_GRAM_EXTRA = _replace("factorial(k)))",
                         "factorial(k)) + ((a0, a1, a2, n, k) == (2, 1, 1, 6, 3)))")
_HAO_LOCUS = "grammar [Grammar(u -> u^-3*v^-4; v -> u^-2*v^-1)], letter u"

# name: (module, patch, suite run, check that fails, locus prefix of its
# failure[, params its record carries])
MUTANTS = {
    # The v step's u shift off by one in _derive's two-letter branch: the
    # lattice reader raises inside grammar-recurrence, and the other suites
    # still run and report.
    "derive-wrong-u-shift": (
        "grammar.py", _replace("(not i, s0, s1, rc)", "(not i, s0 + i, s1, rc)"),
        "all", "grammar-recurrence",
        "NonTriangularExpansion: D^1 = -4*u^-7*v^-6 - 6*u^-10*v^-8 has monomials off the row-1"
        " lattice"),
    # Two mutants that only ode-gen's named grammars reach.
    "derive-keeps-zero-sums": (
        "grammar.py", _general_branch_keeps_zero_sums, "ode-gen", "ode-gen",
        "grammar [Grammar(x -> -z + y; y -> z - x; z -> -y + x)], letter x"),
    "egf-levels-unscales-by-d-squared": (
        "fps.py", _replace("d ** n)", "d ** min(n, 2))"), "ode-gen", "ode-gen",
        "grammar [Grammar(u -> 1/2*u^2*v; v -> 1/3*u*v^-1)], letter u"),
    # Miller's factor e + 1 read as e for y^-1, and products of weight 2 left
    # unweighted: the same Hao grammar of ode-gen fails first for both.
    "miller-drops-the-one-at-e-minus-1": (
        "fps.py", _replace("(e + 1) * comb", "(e + 1 if e != -1 else e) * comb"),
        "ode-gen", "ode-gen", _HAO_LOCUS),
    "accumulate-ignores-weight-2": (
        "fps.py", _replace("cw = ca * w", "cw = ca * (w if w != 2 else 1)"),
        "ode-gen", "ode-gen", _HAO_LOCUS),
    # A decode that reads the struct fields unsigned: the first negative exponent.
    "egf-levels-decodes-unsigned": (
        "fps.py", _replace('{16: "h", 32: "i", 64: "q"}', '{16: "H", 32: "I", 64: "Q"}'),
        "ode-gen", "ode-gen", _HAO_LOCUS),
    # The recurrence's last entry of row 4 off by one: the first six-tuple fails.
    "recurrence-last-entry-at-row-4": (
        "triangles.py", _replace("* prev[n - 1])\n", "* prev[n - 1] + (n == 4))\n"),
        "grammar-recurrence", "grammar-recurrence", "params -2,-2,-2,-2,-2,-2", {"tuples": "1"}),
    # One census kernel each, wrong at one size.
    "partitions-new-block-twice-at-2": (
        "census.py", _replace("tally[blocks + 1] += 1", "tally[blocks + 1] += 1 + (blocks == 2)"),
        "partition-oracle", "partition-oracle", "n=3"),
    "components-extra-at-3-v-leaves": (
        "census.py", _replace("0) + v_count", "0) + v_count + (v_count == 3)"),
        "component-oracle", "component-oracle", "a=(0,1,1), n=2"),
    "stirling-drops-the-last-gap-for-3": (
        "census.py", _replace("range(len(word) + 1)", "range(len(word) + (i != 3))"),
        "descent-oracle", "descent-oracle", "r=1, n=3"),
    "excedance-thresholds-shifted-at-3": (
        "census.py", _replace("range(1 + r,", "range(1 + r + (n == 3),"),
        "excedance-oracle", "excedance-oracle", "r=0, n=3"),
    # One closed form each, wrong at one entry.  f_gram_explicit is cached, and
    # b2zero-explicit, run after b1-explicit, still reads the wrong entry.
    "f-gram-extra-at-a-211-n6-k3": (
        "closedforms.py", _F_GRAM_EXTRA, "b1-explicit", "b1-explicit", "a=(2,1,1), n=6, k=3"),
    "f-gram-extra-at-a-211-n6-k3-through-the-cache": (
        "closedforms.py", _F_GRAM_EXTRA, "all", "b2zero-explicit",
        "a=(2,1,1), b=(0,1), n=6, k=3"),
    "a-mr-extra-at-m2-r1-n3-k2": (
        "closedforms.py", _replace("return sum(", "return ((m, r, n, k) == (2, 1, 3, 2)) + sum("),
        "whitney-explicit", "whitney-explicit", "m=2, r=1, n=3, k=2"),
    "f-a2zero-extra-at-n5-k2": (
        "closedforms.py", _replace("(total)", "(total + ((n, k) == (5, 2)))"),
        "a2zero-explicit", "a2zero-explicit", "a0=0, a1=1, n=5, k=2"),
    "euler-extra-at-3": (
        "closedforms.py", _replace("_euler_cache[k])", "_euler_cache[k] + (k == 3))"),
        "alternating-sums", "alternating-sums", "m=1, r=0, n=3"),
    "a1zero-rowsum-extra-at-4": (
        "closedforms.py", _replace("a2, n)\n", "a2, n) + (n == 4)\n"),
        "a1zero-rowsum", "a1zero-rowsum", "a0=0, a2=1, n=4"),
    # A census with a bucket outside the row, and a Stirling walk that makes a
    # word outside the family: failed checks, not error exits.
    "vleaf-delta-counts-other-letters": (
        "census.py", _replace("- (x == leaf_letter)", "- (x == leaf_letter) + (x != leaf_letter)"),
        "all", "vleaf-oracle",
        "NonTriangularExpansion: census has buckets outside the row: [2] after m=1, r=0, n=0"),
    "stirling-block-split-by-the-word": (
        "census.py", _replace("block + word[gap:]", "block[:1] + word[gap:] + block[1:]"),
        "all", "descent-oracle", "NonTriangularExpansion: insertion made (2, 1, 1, 2)"),
}

# name: (module, patch, the tier-1 test that catches it)
ESCAPES = {
    # Rows from row 2 on divided by d, not d^n: no suite runs a rational six-tuple.
    "unscaled-rows-by-d-from-row-2": (
        "triangles.py", _replace("scale *= d", "scale *= d if scale == 1 else 1"),
        "tests/test_triangles.py::TestRecurrenceParity::test_matches_entrywise_fill"),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_verify_reports_mutant(tmp_path, mutant):
    module, patch, suite, name, prefix, *params = MUTANTS[mutant]
    code, checks = run_mutant(tmp_path, module, patch, suite)
    [check] = [c for c in checks if c["name"] == name]
    assert (code, check["status"]) == (1, "fail") and check["locus"].startswith(prefix)
    assert check["params"].items() >= dict(*params).items()
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
