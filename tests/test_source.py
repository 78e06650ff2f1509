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
# that walks a finite set: ``closure(start, images, bound, message)``,
# ``ring.chain(gens, bound)``, ``ring.close_under_mul(gens, bound)``,
# ``r_image_chain(pair, s, bound)``, ``r_image_mod(pair, s, bound)``,
# ``slpm_chain(pair, s, bound)``, ``column_solutions(pair, s, conditions, bound)``,
# ``make_coset_family(pair, seed_qs, bound)``, ``unit_image_gap(d, s, bound)``
# and ``quad_unit_data(d, s, bound)``
BOUND_POSITIONS = {"closure": 3, "chain": 2, "close_under_mul": 2,
                   "r_image_chain": 3, "r_image_mod": 3, "slpm_chain": 3, "column_solutions": 4,
                   "make_coset_family": 3, "unit_image_gap": 3, "quad_unit_data": 3}


def called_name(call: ast.Call) -> str | None:
    """The name a call is made by, bare or as an attribute."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def unbounded_closures(source: str) -> list[int]:
    """Lines of the calls in ``BOUND_POSITIONS``, by name or by attribute,
    that pass no bound (neither positionally nor as ``bound=``) or a
    literal None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = called_name(node)
        if name not in BOUND_POSITIONS:
            continue
        pos = BOUND_POSITIONS[name]
        bound = node.args[pos - 1] if len(node.args) >= pos else next(
            (k.value for k in node.keywords if k.arg == "bound"), None)
        if bound is None or (isinstance(bound, ast.Constant) and bound.value is None):
            found.append(node.lineno)
    return sorted(found)


def test_unbounded_closures_are_found():
    assert unbounded_closures("closure(a, f)\nclosure(a, f, 3)\n"
                              "closure(a, f, bound=n)\n") == [1]
    assert unbounded_closures(
        "ring.chain(g)\nResidueRing(s).chain(g, None)\n"
        "r_image_chain(p, s)\nr_image_chain(p, s, bound=n)\n"
        "ring.chain(g, bound=n)\nring.close_under_mul(g, bound=None)\n"
        "r_image_mod(p, s, None)\nr_image_mod(p, s, n)\n"
        "column_solutions(p, s, c)\ncolumn_solutions(p, s, c, None)\n"
        "column_solutions(p, s, c, bound=n)\n"
        "slpm_chain(p, s)\nslpm_chain(p, s, n)\ngrouppair.slpm_chain(p, s, None)\n"
    ) == [1, 2, 3, 6, 7, 9, 10, 12, 14]
    assert unbounded_closures(
        "make_coset_family(p, seeds)\nmake_coset_family(p, seeds, n)\n"
        "tower.make_coset_family(p, seeds, bound=None)\n"
        "unit_image_gap(d, s)\nunit_image_gap(d, s, bound=n)\n"
        "families.unit_image_gap(d, s, None)\n"
        "quad_unit_data(d, s)\nquad_unit_data(d, s, n)\n"
        "quad_unit_data(d, s, bound=None)\n") == [1, 3, 4, 6, 7, 9]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_closure_has_a_bound(path):
    assert unbounded_closures(path.read_text()) == []


def canon_of_mul_calls(source: str) -> list[int]:
    """Lines of the calls canon_coset(mul(...)) and canon_class(mul(...)),
    by name or by attribute.  A product is canonicalized by the kernels
    ``canon_mul`` and ``_orbit_step``, which reduce it once, without a
    ``GElem`` between."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call)
                and called_name(node) in ("canon_coset", "canon_class")
                and any(isinstance(a, ast.Call) and called_name(a) == "mul"
                        for a in node.args)):
            found.append(node.lineno)
    return sorted(found)


def test_canon_of_mul_is_found():
    assert canon_of_mul_calls(
        "pair.canon_coset(pair.mul(x, y))\ncanon_class(mul(g, y))\n"
        "pair.canon_mul(x, y)\ncanon_coset(x)\nmul(canon_coset(x), y)\n"
        "pair.canon_class(pair.class_mul(g, y))\n") == [1, 2]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_products_are_canonicalized_fused(path):
    assert canon_of_mul_calls(path.read_text()) == []


# the attributes whose comparison picks a family at run time
FAMILY_FIELDS = ("family", "q_kind")


def kernel_names(tree: ast.Module) -> set[str]:
    """The functions a module stores as coset kernels: the values of its
    module-level ``*_KERNELS`` dicts, and every module function those call
    by name, transitively."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo = [value.id for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id.endswith("_KERNELS") for t in node.targets)
            and isinstance(node.value, ast.Dict)
            for value in node.value.values if isinstance(value, ast.Name)]
    found = set()
    while todo:
        name = todo.pop()
        if name in found or name not in functions:
            continue
        found.add(name)
        todo += [n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)]
    return found


def kernel_family_tests(source: str) -> list[int]:
    """Lines of the comparisons, inside a coset kernel, that read ``family``
    or ``q_kind`` (as an attribute or a name)."""
    tree = ast.parse(source)
    names = kernel_names(tree)
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            for cmp in ast.walk(node):
                if isinstance(cmp, ast.Compare) and any(
                        getattr(n, "attr", getattr(n, "id", None)) in FAMILY_FIELDS
                        for side in [cmp.left, *cmp.comparators] for n in ast.walk(side)):
                    found.append(cmp.lineno)
    return sorted(found)


def test_kernel_family_tests_are_found():
    assert kernel_family_tests(
        "def f(s, v):\n    return g(s) if s.family == 1 else v\n"
        "def g(s):\n    return q_kind != 2\n"
        "def h(pair):\n    return pair.family == 'heisenberg'\n"
        "def k(s, v):\n    return s\n"
        "_A_KERNELS = {'_canon': f, '_class': k}\n") == [2, 4]
    assert kernel_family_tests("def f(s):\n    return s.family == 1\n") == []


def test_coset_kernels_test_no_family():
    source = (MODULES[0].parent / "kernels.py").read_text()
    assert {"_gl2_canon", "_heis_canon_mul", "_quad_q"} <= kernel_names(ast.parse(source))
    assert kernel_family_tests(source) == []


def function_definitions(sources, name: str) -> int:
    """How many functions called ``name`` the sources define, at any depth."""
    return sum(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
               for source in sources for node in ast.walk(ast.parse(source)))


def test_function_definitions_are_counted():
    assert function_definitions(
        ["def _xgcd(a, b):\n    pass\n",
         "class C:\n    def _xgcd(self):\n        def _xgcd():\n            pass\n",
         "_xgcd = None\ndef xgcd():\n    pass\n"], "_xgcd") == 3


def test_one_xgcd():
    assert function_definitions([p.read_text() for p in MODULES], "_xgcd") == 1
