"""Module layout of src/decayinv, checked on the syntax tree, and what
importing it loads."""

import ast
import inspect
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "decayinv"


def private_sibling_imports(path):
    """(line, module, name) of every import of a private name from another
    decayinv module in path, at any depth (imports inside functions too)."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.lineno, node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or node.module.split(".")[0] == "decayinv")
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_imports_across_modules():
    found = {path.name: private_sibling_imports(path)
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: hits for name, hits in found.items() if hits}
    assert not found, f"private names imported across modules: {found}"


def ignored_warnings(path):
    """(line, call) of every warnings.simplefilter/filterwarnings call in
    path whose action is "ignore", by attribute or by bare name."""
    tree = ast.parse(path.read_text(), str(path))
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name not in ("simplefilter", "filterwarnings"):
            continue
        action = node.args[0] if node.args else next(
            (kw.value for kw in node.keywords if kw.arg == "action"), None)
        if isinstance(action, ast.Constant) and action.value == "ignore":
            hits.append((node.lineno, name))
    return hits


def test_no_silenced_warnings():
    found = {path.name: ignored_warnings(path)
             for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: hits for name, hits in found.items() if hits}
    assert not found, f"warnings silenced in: {found}"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def imported_public_names():
    """Public names that __init__.py imports from the package modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if not alias.name.startswith("_")}


def test_all_is_exactly_what_init_imports():
    import decayinv
    exported = exported_names()
    assert exported == imported_public_names()
    missing = [name for name in sorted(exported)
               if not hasattr(decayinv, name)]
    assert not missing, f"exported but undefined: {missing}"


def referenced_names(node):
    """Names a syntax tree reads: bare names, attributes and imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreached_public_definitions():
    """(module, name) of every public top-level function or class in
    src/decayinv that no other top-level statement of the package reads
    and that __all__ does not export."""
    statements = [(path.stem, node, referenced_names(node))
                  for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text(), str(path)).body]
    exported = exported_names()
    unreached = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_") or node.name in exported:
            continue
        if not any(node.name in names
                   for _, other, names in statements if other is not node):
            unreached.append((module, node.name))
    return unreached


def test_every_public_definition_is_reached():
    unreached = unreached_public_definitions()
    assert not unreached, f"public but used nowhere in src: {unreached}"


def sibling_imports(path):
    """Names of the decayinv modules that path imports."""
    tree = ast.parse(path.read_text(), str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 0 and node.module.startswith("decayinv."):
                found.add(node.module.split(".")[1])
    return found


def test_norms_and_quotient_are_independent():
    assert "quotient" not in sibling_imports(PACKAGE / "norms.py")
    assert "norms" not in sibling_imports(PACKAGE / "quotient.py")


def test_weights_is_the_bottom_layer():
    # the series primitives live in weights, which every numeric module
    # imports, so weights itself may import only the error types
    assert sibling_imports(PACKAGE / "weights.py") <= {"errors"}


def test_import_leaves_out_scipy_integrate():
    # scipy.integrate alone pulls in scipy.optimize and scipy.linalg, about
    # a quarter of a second of start-up that no route of the package needs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, decayinv, decayinv.cli; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_import_loads_no_scipy():
    # scipy.special and scipy.io pull in scipy's array-API layer, with
    # numpy.testing and numpy.f2py; the package needs scipy only to read
    # and write Matrix Market files, and imports it there
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, decayinv, decayinv.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' "
            "or m.startswith(('scipy.', 'numpy.testing', 'numpy.f2py'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def decorator_names(node):
    """The last dotted name of each decorator of a function, called or
    not: both given(...) and hypothesis.given(...) read "given"."""
    names = set()
    for dec in node.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        names.add(dec.attr if isinstance(dec, ast.Attribute)
                  else getattr(dec, "id", None))
    return names


def unseeded_properties(path):
    """(line, name) of every function in path that hypothesis's given
    decorates without a seed decorator."""
    tree = ast.parse(path.read_text(), str(path))
    return [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "given" in decorator_names(node)
            and "seed" not in decorator_names(node)]


def test_every_property_is_seeded(tmp_path):
    # a seeded property draws the same examples on every run
    probe = tmp_path / "probe.py"
    probe.write_text("@hypothesis.given(st.none())\ndef test_a(x): pass\n\n"
                     "@seed(1)\n@given(st.none())\ndef test_b(x): pass\n")
    assert unseeded_properties(probe) == [(2, "test_a")]
    tests = pathlib.Path(__file__).resolve().parent
    found = {path.name: hits for path in sorted(tests.glob("*.py"))
             if (hits := unseeded_properties(path))}
    assert not found, f"hypothesis properties without @seed: {found}"


FAILING_PROPERTY = """\
from hypothesis import given, seed, settings
from hypothesis import strategies as st


@seed(0)
@settings(database=None, max_examples=5)
@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_after_the_property():
    pass
"""


def test_a_failing_property_fails_only_itself(tmp_path):
    # when a property fails, hypothesis imports libcst to write a patch for
    # it; under the repo's warning filters that import must not turn into
    # an internal error that ends the run before the tests after it
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider",
         "-c", str(PACKAGE.parents[1] / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "test_after_the_property PASSED" in out.stdout, out.stdout


# bench/workloads.py passes method="window" to these two, so they keep the
# keyword until the benchmark stops passing it
METHOD_KEPT = {"baskakov_bound_Cr", "baskakov_bound_Jr"}


def test_no_exported_function_takes_a_method():
    # a matrix is read from its symbol when it carries one and from its
    # window otherwise; no route is chosen by a separate argument
    import decayinv
    found = sorted(name for name in exported_names()
                   if inspect.isfunction(getattr(decayinv, name))
                   and "method" in inspect.signature(
                       getattr(decayinv, name)).parameters)
    assert found == sorted(METHOD_KEPT)
