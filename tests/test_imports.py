"""No module of the package, the tests or the benchmark imports a name it
never uses, no private function, class, or method or class attribute of a
class of the package is left unreferenced by the package itself, the
package imports no argparse, and ``superfn.__all__`` lists every name the
package ``__init__.py`` imports, each of them resolving.

A name counts as used when it occurs as a bare name anywhere in the module
(an attribute chain ``a.b`` uses ``a``).  ``from __future__`` imports and
the package ``__init__.py``, whose imports are re-exports, are exempt.  A
private name counts as referenced when it is read as a bare name or occurs
as an attribute (``grassmann._block_inverse``, ``self._cleared``) in any
module of the package, so code that only the tests reach lives in the
tests; a class attribute's own assignment does not count.
"""

import ast
import os
import subprocess
import sys
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _class_members(cls: ast.ClassDef) -> list:
    """The names a class body defines: its methods and the names it
    assigns (``_UNIT = ()``, ``_key_degree = staticmethod(len)``)."""
    names = []
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return names


def unreferenced_privates(sources: dict) -> list:
    """(module, name) of every module-level private function or class in
    sources, a module name -> source map, and (module, "Class.name") of
    every private non-dunder method or class attribute of a module-level
    class, that no module references."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if _is_private(node.name):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(module, f"{node.name}.{name}")
                            for name in _class_members(node)
                            if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [(module, name) for module, name in defined
            if name.rpartition(".")[2] not in used]


def test_every_private_function_and_class_is_used_by_the_package():
    paths = sorted((ROOT / "src" / "superfn").glob("*.py"))
    assert len(paths) > 10
    sources = {path.stem: path.read_text() for path in paths}
    assert unreferenced_privates(sources) == []


def test_the_scan_sees_an_unreferenced_private():
    sources = {
        "a": ("def _used():\n    pass\n\n\ndef _dead():\n    pass\n\n\n"
              "class _Dead:\n    def _method(self):\n        pass\n\n\n"
              "class Live:\n    _HOOK = 1\n    _STALE = 2\n\n"
              "    def __init__(self):\n        pass\n\n"
              "    def _hook(self):\n        return self._HOOK\n\n"
              "    def _stale(self):\n        pass\n\n\n"
              "def public():\n    return _used, Live()._hook()\n"),
        "b": "import a\n\n\ndef _via_attr():\n    pass\n\n\nx = a._via_attr\n",
    }
    assert unreferenced_privates(sources) == [
        ("a", "_dead"), ("a", "_Dead"), ("a", "_Dead._method"),
        ("a", "Live._STALE"), ("a", "Live._stale")]


def test_the_package_leaves_argparse_unimported():
    """The CLI reads its argv with its own table; argparse (and the gettext
    it pulls in) would add a few ms to every process that imports it."""
    code = ("import sys, superfn, superfn.cli; "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_every_export_resolves_and_every_import_is_exported():
    import superfn

    exported = superfn.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(superfn, name)] == []
    tree = ast.parse((ROOT / "src" / "superfn" / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(imported) > 40
    assert sorted(imported - set(exported)) == []
