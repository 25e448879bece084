"""Import layering of the package, read from its source with ast: no module
imports inside a function body, the series layer (fps) imports nothing
from the layers built on it, the closed forms import nothing from fps, and
the packed polynomial format stays inside the two series engines (grammar
and fps), and the checks in verify build no closed series."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gkptri"
ABOVE_FPS = {"closedforms", "triangles", "verify", "cli"}
PACKED_HELPERS = {"_pack", "_unpack", "_derive"}
ENGINES = {SRC / "grammar.py", SRC / "fps.py"}
SERIES_BUILDERS = {"exp_t", "scalar_mul", "map_coefficients", "first_difference", "inverse"}


def function_level_imports(source: str) -> list[str]:
    """`function:line` for each import statement inside a function body."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{func.name}:{node.lineno}" for node in ast.walk(func)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
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


def test_checkers_see_every_import_form():
    source = ("import gkptri.cli\nfrom gkptri import verify\nfrom gkptri.triangles import T\n"
              "def f():\n    from .closedforms import stirling2\n    from . import census\n")
    assert function_level_imports(source) == ["f:5", "f:6"]
    assert package_imports(source) == {"cli", "verify", "triangles", "closedforms", "census"}
    assert package_imports("import json\nfrom math import comb\n") == set()
    uses = "from .grammar import _pack as p\nimport gkptri.grammar\ngrammar._unpack\n_derive\n"
    assert PACKED_HELPERS <= names_used(uses)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_imports(path):
    assert function_level_imports(path.read_text()) == []


def test_fps_imports_nothing_above_it():
    assert package_imports((SRC / "fps.py").read_text()) & ABOVE_FPS == set()


def test_closed_forms_import_nothing_from_fps():
    # The closed forms stay independent of the series engine they are checked against.
    assert "fps" not in package_imports((SRC / "closedforms.py").read_text())


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - ENGINES), ids=lambda p: p.name)
def test_packed_format_stays_in_the_engines(path):
    assert names_used(path.read_text()) & PACKED_HELPERS == set()


def test_verify_builds_no_closed_series():
    # Solutions are compared with closed EGF-normal rows, n! [t^n] at a time.
    assert names_used((SRC / "verify.py").read_text()) & SERIES_BUILDERS == set()
