"""No module of the package, the tests or the benchmark imports a name it
never uses.

A name counts as used when it occurs as a bare name anywhere in the module
(an attribute chain ``a.b`` uses ``a``).  ``from __future__`` imports and
the package ``__init__.py``, whose imports are re-exports, are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """(line, name) of every imported name that source never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "superfn").glob("*.py"))
    paths += sorted((ROOT / "tests").glob("*.py"))
    paths += sorted((ROOT / "perfbench").glob("*.py"))
    assert len(paths) > 20
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in paths if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []


def test_the_scan_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom json import dumps, loads as ld\n"
              "print(os.sep, ld)\n")
    assert unused_imports(source) == [(3, "dumps")]
