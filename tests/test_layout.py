"""Module layout of src/decayinv, checked on the syntax tree."""

import ast
import pathlib

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
