"""Import layering of the package, read from its source with ast: no module
imports inside a function body, the series layer (fps) imports nothing
from the layers built on it, the closed forms import nothing from fps or
the recurrence (triangles), and
the packed polynomial format stays inside the two series engines (grammar
and fps), the checks in verify build no closed series, and no function in
the closed forms or the censuses calls itself.  No module imports
dataclasses or typing, and `import gkptri, gkptri.cli` loads neither, nor
inspect.  Also, every name in `gkptri.__all__` exists and is listed once,
every error class but the base `GkpError` is raised somewhere in the
package, and no module but `__init__` imports a name it never uses.  No
module names `__new__`, and `polyring` defines one monomial canonicaliser,
so every polynomial is made by `LaurentPoly`'s constructor, which has no
ring operators, only an `__eq__` that takes a scalar, and one polynomial
renderer, `render_packed`: no other function writes an
exponent as `^`, and `cli` prints packed levels through it, with no
`gen_series` or `iterate_D`.  In
census, `_leaves` is the one function that reads a polynomial's terms.
The ODE engine in fps adds int keys, so it names neither `operator.add`
nor `sub`, its Miller streams build no Fraction, and it raises no
UnknownVariable: `Grammar` alone checks rule letters.  Every check in
verify reports through `CheckReport.first_mismatch`: it is the one place
that calls `fail`, and no loop there breaks.  In verify only `Route` calls
`recurrence_triangle`, so every route to the triangle is checked by its one
runner and a second runner cannot creep back."""

import ast
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import gkptri
from gkptri import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "gkptri"
ABOVE_FPS = {"closedforms", "triangles", "verify", "cli"}
PACKED_HELPERS = {"_pack", "_unpack", "_derive"}
ENGINES = {SRC / "grammar.py", SRC / "fps.py"}
SERIES_BUILDERS = {"exp_t", "scalar_mul", "map_coefficients", "first_difference", "inverse",
                   "pow_int", "exp", "t_term", "differentiate", "truncate"}
RECURSION_FREE = [SRC / "closedforms.py", SRC / "census.py"]
# Each CLI call pays for the package import: dataclasses brings inspect, ast,
# dis and tokenize, and typing is not needed with collections.abc.
SLOW_IMPORTS = {"dataclasses", "typing"}


def function_level_imports(source: str) -> list[str]:
    """`function:line` for each import statement inside a function body."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{func.name}:{node.lineno}" for node in ast.walk(func)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return found


def self_calls(source: str) -> list[str]:
    """`function:line` for each call of a function by its own name, nested
    functions included."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{func.name}:{node.lineno}" for node in ast.walk(func)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == func.name]
    return found


def package_imports(source: str) -> set[str]:
    """The gkptri modules an import statement anywhere in the source names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("gkptri.")}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "gkptri":
                continue
            inner = parts if node.level else parts[1:]
            names |= {inner[0]} if inner and inner[0] else {a.name for a in node.names}
    return names


def imported_modules(source: str) -> set[str]:
    """The top-level module each absolute import statement in the source names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def names_used(source: str) -> set[str]:
    """Every identifier, attribute and imported name the source mentions."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def defined_names(source: str) -> set[str]:
    """Every function and class name the source defines, nested ones included."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def unused_imports(source: str) -> list[str]:
    """`name:line` for each name an import statement binds and the source
    never reads; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for name in (a.asname or a.name.split(".")[0] for a in node.names)
            if name not in read]


def raised_names(source: str) -> set[str]:
    """The class or function name each `raise` statement in the source names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def fail_sites(source: str) -> list[str]:
    """`fail:line` for each call of a `.fail` method and `break:line` for
    each break statement in the source, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "fail"):
            found.append((node.lineno, "fail"))
        elif isinstance(node, ast.Break):
            found.append((node.lineno, "break"))
    return [f"{kind}:{line}" for line, kind in sorted(found)]


def test_checkers_see_every_import_form():
    source = ("import gkptri.cli\nfrom gkptri import verify\nfrom gkptri.triangles import T\n"
              "def f():\n    from .closedforms import stirling2\n    from . import census\n")
    assert function_level_imports(source) == ["f:5", "f:6"]
    assert package_imports(source) == {"cli", "verify", "triangles", "closedforms", "census"}
    assert package_imports("import json\nfrom math import comb\n") == set()
    assert imported_modules(source + "import os.path\nfrom typing import Any\n") == {
        "gkptri", "os", "typing"}
    uses = "from .grammar import _pack as p\nimport gkptri.grammar\ngrammar._unpack\n_derive\n"
    assert PACKED_HELPERS <= names_used(uses)
    defines = "class A:\n    def __new__(cls):\n        def inner():\n            pass\n"
    assert defined_names(defines) == {"A", "__new__", "inner"}
    assert "__new__" in names_used("x = A.__new__(A)\n")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_imports(path):
    assert function_level_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_slow_stdlib_imports(path):
    assert imported_modules(path.read_text()) & SLOW_IMPORTS == set()


def test_cli_import_loads_no_slow_modules():
    # -S skips site-packages, whose .pth files may import typing themselves.
    probe = ("import gkptri, gkptri.cli, sys; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_fps_imports_nothing_above_it():
    assert package_imports((SRC / "fps.py").read_text()) & ABOVE_FPS == set()


def test_closed_forms_import_nothing_from_fps():
    # The closed forms stay independent of the series engine and the
    # recurrence they are checked against.
    assert package_imports((SRC / "closedforms.py").read_text()) & {"fps", "triangles"} == set()


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - ENGINES), ids=lambda p: p.name)
def test_packed_format_stays_in_the_engines(path):
    assert names_used(path.read_text()) & PACKED_HELPERS == set()


def test_verify_builds_no_closed_series():
    # Solutions are compared with closed EGF-normal rows, n! [t^n] at a time.
    assert names_used((SRC / "verify.py").read_text()) & SERIES_BUILDERS == set()


def test_fail_site_checker_sees_method_calls_and_breaks():
    source = ("for x in y:\n    if x:\n        report.fail('a')\n        break\n"
              "fail('b')\nwhile z:\n    self.fail(z).record()\n    break\n")
    assert fail_sites(source) == ["fail:3", "break:4", "fail:7", "break:8"]


def test_verify_reports_through_first_mismatch():
    # Each check streams (expected, got, locus) comparisons into
    # `first_mismatch`, which stops at the first difference, and nothing else
    # calls `fail`: a suite that merges the reports of its sub-checks, or a
    # loop that breaks on a mismatch of its own, is a second failure rule.
    source = (SRC / "verify.py").read_text()
    [method] = [node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == "first_mismatch"]
    [site] = fail_sites(source)
    assert site.startswith("fail:") and method.lineno <= int(site[5:]) <= method.end_lineno


def call_owners(source: str, name: str) -> list[str]:
    """For each call of `name(...)` by name, the top-level function or class
    it is in, or `line N` for a call in any other top-level statement."""
    return [getattr(stmt, "name", f"line {node.lineno}") for stmt in ast.parse(source).body
            for node in ast.walk(stmt) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == name]


def test_call_owner_checker_sees_classes_functions_and_tables():
    source = ("class R:\n    def run(self):\n        return f(1)\n"
              "def g():\n    return [f(2), h.f(3)]\n"
              "TABLE = {'x': lambda: f(4)}\n")
    assert call_owners(source, "f") == ["R", "g", "line 6"]


def test_verify_fills_the_recurrence_only_in_route():
    # A suite that fills the reference triangle itself is a second runner.
    assert set(call_owners((SRC / "verify.py").read_text(), "recurrence_triangle")) == {"Route"}


def test_self_call_checker_sees_direct_and_nested_calls():
    source = ("def f(n):\n    return f(n - 1)\n"
              "def g():\n    def h():\n        return h() + g()\n    return h\n"
              "def k():\n    return f(1)\n")
    assert self_calls(source) == ["f:2", "g:5", "h:5"]


@pytest.mark.parametrize("path", RECURSION_FREE, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    # Recursion there would limit n by the interpreter's stack depth.
    assert self_calls(path.read_text()) == []


def test_exports_resolve_once():
    # A deleted function must leave no dangling or doubled name in __all__.
    assert [name for name in gkptri.__all__ if not hasattr(gkptri, name)] == []
    assert [name for name, n in Counter(gkptri.__all__).items() if n > 1] == []


def test_unused_import_checker_sees_aliases_dotted_names_and_future():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from .polyring import LaurentPoly, monomial\nfrom math import comb as c\n"
              "x: LaurentPoly = regex.compile(os.sep)\n")
    assert unused_imports(source) == ["monomial:4", "c:5"]


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # `__init__` imports what it re-exports.
    assert unused_imports(path.read_text()) == []


def test_no_module_names_new():
    # A `__new__` bypass would make polynomials the constructor never normalised.
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [name for name, source in sources.items()
            if "__new__" in names_used(source) | defined_names(source)] == []


def test_polyring_has_one_monomial_canonicaliser():
    defined = defined_names((SRC / "polyring.py").read_text())
    assert {"monomial", "monomial_mul"} & defined == {"monomial"}


def exponent_writers(source: str) -> set[str]:
    """The functions with an f-string that writes a formatted base, then `^`
    and an exponent, as in `f"{x}^{e}"`; `f"t^{n}"` has a literal base."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {func.name for node in ast.walk(func) if isinstance(node, ast.JoinedStr)
                      for base, caret in zip(node.values, node.values[1:])
                      if isinstance(base, ast.FormattedValue) and isinstance(caret, ast.Constant)
                      and caret.value.startswith("^")}
    return found


def test_exponent_writer_checker_sees_formatted_bases_only():
    source = ('def f(x, e):\n    return f"{x}^{e}"\ndef g(n):\n    return f"t^{n}: {n}"\n'
              'def h(p):\n    return [f"({q})^2" for q in p]\n')
    assert exponent_writers(source) == {"f"}


def test_polyring_has_one_polynomial_renderer():
    # A second writer of `x^e` terms could drift from `render_packed`'s order
    # or coefficient text; `LaurentPoly.__str__` and the CLI go through it.
    writers = {f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
               for name in exponent_writers(path.read_text())}
    assert writers == {"polyring.py:render_packed"}
    assert names_used((SRC / "cli.py").read_text()) & {"gen_series", "iterate_D"} == set()


def call_sites(source: str, method: str) -> set[str]:
    """The top-level functions and the methods of top-level classes that
    call `.method(...)` on anything."""
    tree = ast.parse(source)
    funcs = [f for node in tree.body
             for f in (node.body if isinstance(node, ast.ClassDef) else [node])
             if isinstance(f, ast.FunctionDef)]
    return {f.name for f in funcs for node in ast.walk(f)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == method}


def isinstance_of_other(func: ast.FunctionDef) -> bool:
    """Whether `func` calls isinstance(other, ...)."""
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "isinstance" and node.args
               and isinstance(node.args[0], ast.Name) and node.args[0].id == "other"
               for node in ast.walk(func))


def test_call_site_and_isinstance_checkers():
    source = ("def f(p):\n    return p.terms()\nclass C:\n    def g(self, other):\n"
              "        return isinstance(other, int) or other.terms()\n"
              "def h(other):\n    return isinstance(1, int)\n")
    assert call_sites(source, "terms") == {"f", "g"}
    funcs = {f.name: f for f in ast.walk(ast.parse(source)) if isinstance(f, ast.FunctionDef)}
    assert [name for name, f in funcs.items() if isinstance_of_other(f)] == ["g"]


def test_census_reads_terms_in_one_function():
    # One reader checks that a rule or a seed is a leaf monomial, so the two
    # give one message and cannot drift apart.
    assert call_sites((SRC / "census.py").read_text(), "terms") == {"_leaves"}


def test_laurent_poly_has_no_ring_operators():
    # LaurentPoly is a value: the engines compute on packed levels, and the
    # tests' ring arithmetic is series_reference's.  Only __eq__ looks at a
    # scalar operand, so a constant still equals and hashes as its scalar.
    source = (SRC / "polyring.py").read_text()
    cls, = [n for n in ast.parse(source).body
            if isinstance(n, ast.ClassDef) and n.name == "LaurentPoly"]
    operators = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"}
    assert operators & set(vars(gkptri.LaurentPoly)) == set()
    assert "_coerce" not in names_used(source) | defined_names(source)
    assert [f.name for f in cls.body
            if isinstance(f, ast.FunctionDef) and isinstance_of_other(f)] == ["__eq__"]
    assert gkptri.LaurentPoly.constant(3) == 3
    assert gkptri.LaurentPoly.zero() == 0
    assert hash(gkptri.LaurentPoly.constant(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_fps_adds_no_exponent_tuples():
    # One product loop on Kronecker int keys serves every alphabet; a tuple
    # branch would bring back `map(add, ...)` or `map(sub, ...)`.
    assert names_used((SRC / "fps.py").read_text()) & {"add", "sub"} == set()


def nested_function(source: str, outer: str, inner: str) -> ast.FunctionDef:
    """The one function named `inner` defined inside the function `outer`."""
    tree = ast.parse(source)
    out, = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == outer]
    found, = [f for f in ast.walk(out) if isinstance(f, ast.FunctionDef) and f.name == inner]
    return found


def test_miller_streams_build_no_fraction():
    # y = s w gives every single-term w(0) the coefficient 1, so Miller's
    # recurrence divides by nothing and its streams stay on ints.
    miller = nested_function((SRC / "fps.py").read_text(), "egf_levels", "miller")
    assert "Fraction" not in names_used(ast.unparse(miller))


def test_fps_checks_no_rule_letters():
    # An ODE system is a grammar plus initial values, so `Grammar` is the one
    # place that rejects a rule letter outside the alphabet.
    assert "UnknownVariable" not in raised_names((SRC / "fps.py").read_text())


def test_raise_checker_sees_calls_names_and_attributes():
    source = ("def f():\n    raise A('x') from None\n    raise B\n"
              "    raise errors.C(1)\n    raise\n    raise D()()\n")
    assert raised_names(source) == {"A", "B", "C"}


def test_every_error_is_raised():
    # An error nothing raises is dead code, as is the code that once raised it.
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.GkpError)}
    raised = set().union(*(raised_names(path.read_text()) for path in SRC.glob("*.py")))
    assert sorted(defined - raised - {"GkpError"}) == []
