"""The package holds what runs.

Every def and class of ``src/helmdecomp`` whose name has no leading
underscore must be named (as a name, an attribute or an imported name)
somewhere in the package itself, the benchmark (``perfbench/*.py``) or the
acceptance suite.  A function that only the other tests call belongs in
``tests/reference.py``, not in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "helmdecomp").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def public_defs():
    """{name: "file:line"} of the public defs and classes of the package."""
    out = {}
    for path in PACKAGE:
        for node in _nodes(path):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                out.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    return out


def referenced_names():
    seen = set()
    for path in USERS:
        for node in _nodes(path):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.alias):
                seen.add(node.name.rsplit(".", 1)[-1])
    return seen


def test_every_public_def_runs_somewhere():
    defs = public_defs()
    assert defs
    unused = sorted(set(defs) - referenced_names())
    assert not unused, "public names that only tests use: " + ", ".join(
        f"{name} ({defs[name]})" for name in unused)
