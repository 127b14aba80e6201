"""Checks on the package source itself."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import sgplab


def test_no_assert_statements():
    """Every internal check must survive `python -O`, so none is an assert."""
    found = []
    for path in sorted(Path(sgplab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/sgplab: {found}"


def _tracing():
    """The benchmark's tracer module, loaded from its file."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_finds_every_name_it_wraps():
    """The traced benchmark wraps sgplab functions and methods by name, so a
    renamed or deleted one must show up here, not in `run.py --trace`."""
    tracer = _tracing().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


FLOAT_SCOPES = {("exactnum.py", "Cyclo.to_complex"), ("chartab.py", "table_to_csv")}


def _scoped_nodes(node, scope=""):
    """(qualified scope, node) for node and every node below it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}" if scope else node.name
    yield scope, node
    for child in ast.iter_child_nodes(node):
        yield from _scoped_nodes(child, scope)


def _float_uses(tree):
    """(qualified scope, line, what) for each float-producing construct:
    float or complex literals, float( / complex( calls, math.pi / cos / sin,
    np.float*, and weights= keywords (np.bincount(..., weights=) is float64)."""

    def what(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            return "float literal"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("float", "complex")):
            return f"{node.func.id}("
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr in ("pi", "cos", "sin"):
                return f"math.{node.attr}"
            if node.value.id in ("np", "numpy") and node.attr.startswith("float"):
                return f"np.{node.attr}"
        if isinstance(node, ast.keyword) and node.arg == "weights":
            return "weights="
        return None

    return [(scope, node.lineno, w) for scope, node in _scoped_nodes(tree)
            if (w := what(node))]


def test_no_floats_outside_rendering():
    """Every compute path is exact: floats appear only in the two lossy
    renderers, `Cyclo.to_complex` and `table_to_csv`."""
    found = []
    for path in sorted(Path(sgplab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} {w} in {scope or '<module>'}"
                  for scope, line, w in _float_uses(tree)
                  if (path.name, scope) not in FLOAT_SCOPES]
    assert not found, f"floating point in src/sgplab: {found}"


@pytest.mark.parametrize("src", [
    "x = 0.5", "y = 2j", "float(3)", "complex(1, 2)", "import math\nmath.pi",
    "math.cos(t)", "math.sin(t)", "np.float64(1)", "np.bincount(a, weights=w)",
    "def table_to_csv_helper():\n    return 1.0",
])
def test_float_guard_finds(src):
    assert _float_uses(ast.parse(src))


def test_float_guard_allows_exact_code():
    assert not _float_uses(ast.parse(
        "from fractions import Fraction\nx = Fraction(1, 2) * 3 // 2\n"
        "np.bincount(a, minlength=4)\nnp.int64(3)\nmath.isqrt(10)"))


# The slicing helper is the one loop over _CHUNK slices of a kernel pass;
# the class partition's fiber split, union-find rounds and read-out and the
# checked sort of an image onto its keys slice arrays that are not kernel
# passes.
CHUNK_SCOPES = {("groups.py", "_sliced"), ("groups.py", "_orbit_partition"),
                ("groups.py", "_join_orbits"), ("groups.py", "_sorted_onto")}


def _chunk_reads(tree):
    """(qualified scope, line) of each read of _CHUNK, as a name or an attribute."""
    return [(scope, node.lineno) for scope, node in _scoped_nodes(tree)
            if (isinstance(node, ast.Name) and node.id == "_CHUNK"
                and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == "_CHUNK")]


def test_chunk_is_read_only_by_the_slicing_helper():
    """Kernel passes get their slices from `_sliced`; a new call site with a
    slice loop of its own shows up here."""
    found = []
    for path in sorted(Path(sgplab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line} in {scope or '<module>'}"
                  for scope, line in _chunk_reads(tree)
                  if (path.name, scope) not in CHUNK_SCOPES]
    assert not found, f"_CHUNK read outside {sorted(CHUNK_SCOPES)}: {found}"


@pytest.mark.parametrize("src,scope", [
    ("def f(keys):\n    for lo in range(0, len(keys), _CHUNK):\n        pass", "f"),
    ("class MatOps:\n    def inv(self, k):\n        return k[:_CHUNK]", "MatOps.inv"),
    ("n = groups._CHUNK", ""),
])
def test_chunk_guard_finds(src, scope):
    assert [s for s, _ in _chunk_reads(ast.parse(src))] == [scope]


def test_chunk_guard_allows_the_definition():
    assert not _chunk_reads(ast.parse("_CHUNK = 1 << 16"))


def _traced_functions() -> set:
    """'file:name' of each public function the benchmark's tracer wraps by
    name; only these may lack a caller inside the package."""
    return {f"{module}.py:{name}"
            for module, names in _tracing()._FUNCTIONS.items() for name in names}


def _definitions(tree):
    """(qualified name, node, is a method) for every module-level function
    and class and every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, False
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if (isinstance(node, ast.FunctionDef)
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                yield f"{cls.name}.{node.name}", node, True


def _references(tree, methods):
    """Names a tree refers to: attributes, and for functions bare names too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name) and not methods:
            yield node.id


def _unreferenced(sources: dict) -> list:
    """'file:qualname' of each definition that no code outside its own body
    refers to, across all the given module sources."""
    trees = {name: ast.parse(src, filename=name) for name, src in sources.items()}
    refs = {m: Counter(r for t in trees.values() for r in _references(t, m))
            for m in (False, True)}
    return [f"{name}:{qual}"
            for name, tree in trees.items()
            for qual, node, method in _definitions(tree)
            if refs[method][node.name] == sum(r == node.name
                                              for r in _references(node, method))]


def _package_sources() -> dict:
    return {p.name: p.read_text()
            for p in sorted(Path(sgplab.__file__).parent.glob("*.py"))}


def _is_public(definition: str) -> bool:
    """Whether a 'file:qualname' names a public module-level function or class."""
    qual = definition.split(":")[1]
    return not qual.startswith("_") and "." not in qual


def test_no_unreferenced_private_functions_or_methods():
    """Every private function and every method is used inside the package;
    dead code is deleted, not kept for tests."""
    found = [d for d in _unreferenced(_package_sources())
             if not _is_public(d)]
    assert not found, f"unreferenced definitions in src/sgplab: {found}"


def test_no_unreferenced_public_functions_or_classes():
    """Every public module-level function and class is used inside the
    package, save the functions the benchmark's tracer wraps by name."""
    found = [d for d in _unreferenced(_package_sources())
             if _is_public(d) and d not in _traced_functions()]
    assert not found, f"unreferenced public names in src/sgplab: {found}"


@pytest.mark.parametrize("extra,name", [
    ("def _sqrt_mod(a, p):\n    return a\n", "chartab.py:_sqrt_mod"),
    ("def _loop(n):\n    return _loop(n - 1)\n", "chartab.py:_loop"),
    ("class FieldCtx2:\n    def log(self, a):\n        log = a\n        return log\n",
     "chartab.py:FieldCtx2.log"),
    ("def total_character(T):\n    return T.irreducibles[0]\n",
     "chartab.py:total_character"),
    ("class Gram:\n    size = 4\n", "chartab.py:Gram"),
], ids=["deleted-helper", "self-recursive", "method-name-as-local",
        "deleted-public-function", "public-class"])
def test_unreferenced_guard_finds(extra, name):
    """A deleted helper or public function put back, a function used only
    by itself, a method whose name is used only as a local variable, and a
    public class nothing uses are all reported."""
    sources = _package_sources()
    sources["chartab.py"] += "\n\n" + extra
    assert name in _unreferenced(sources)
