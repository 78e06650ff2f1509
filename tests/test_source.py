"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import heckepairs

MODULES = sorted(Path(heckepairs.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(os.sep)\n") \
        == ["gcd"]


# __init__.py imports to re-export, so it is exempt
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unbounded_closures(source: str) -> list[int]:
    """Lines of the ``closure(...)`` calls that pass no bound, neither as
    the third positional argument nor as ``bound=``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "closure" and len(node.args) < 3
            and not any(k.arg == "bound" for k in node.keywords)]


def test_unbounded_closures_are_found():
    assert unbounded_closures("closure(a, f)\nclosure(a, f, 3)\n"
                              "closure(a, f, bound=n)\n") == [1]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_closure_has_a_bound(path):
    assert unbounded_closures(path.read_text()) == []
