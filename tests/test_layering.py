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
so every polynomial is made by `LaurentPoly`'s constructor."""

import ast
import os
import subprocess
import sys
from collections import Counter
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
