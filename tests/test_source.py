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


# the position of the bound among the positional arguments of each call
# that walks a finite set: ``closure(start, images, bound)``,
# ``ring.chain(gens, bound)``, ``ring.close_under_mul(gens, bound)``,
# ``r_image_chain(pair, s, bound)`` and ``r_image_mod(pair, s, bound)``
BOUND_POSITIONS = {"closure": 3, "chain": 2, "close_under_mul": 2,
                   "r_image_chain": 3, "r_image_mod": 3}
# a literal None bound is accepted only on a line that carries this mark,
# which names the ROADMAP item that will size such a walk before it starts
UNBOUNDED_MARK = "# unbounded: ROADMAP 1(d)"


def unbounded_closures(source: str) -> list[int]:
    """Lines of the calls in ``BOUND_POSITIONS``, by name or by attribute,
    that pass no bound (neither positionally nor as ``bound=``), or a
    literal None on a line without ``UNBOUNDED_MARK``."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in BOUND_POSITIONS:
            continue
        pos = BOUND_POSITIONS[name]
        bound = node.args[pos - 1] if len(node.args) >= pos else next(
            (k.value for k in node.keywords if k.arg == "bound"), None)
        marked = any(UNBOUNDED_MARK in line
                     for line in lines[node.lineno - 1:node.end_lineno])
        if bound is None or (isinstance(bound, ast.Constant) and bound.value is None
                             and not marked):
            found.append(node.lineno)
    return sorted(found)


def test_unbounded_closures_are_found():
    assert unbounded_closures("closure(a, f)\nclosure(a, f, 3)\n"
                              "closure(a, f, bound=n)\n") == [1]
    assert unbounded_closures(
        "ring.chain(g)\nResidueRing(s).chain(g, None)\n"
        "r_image_chain(p, s)\nr_image_chain(p, s, bound=n)\n"
        "ring.chain(g, bound=n)\nring.close_under_mul(g, bound=None)\n"
        f"r_image_mod(p, s, None)  {UNBOUNDED_MARK}\nr_image_mod(p, s, None)\n"
        "r_image_mod(p, s)  # unbounded: ROADMAP 1(d)\n") == [1, 2, 3, 6, 8, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_closure_has_a_bound(path):
    assert unbounded_closures(path.read_text()) == []
