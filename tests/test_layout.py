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
