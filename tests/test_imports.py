"""No module of the library or the demos imports a name it never uses, and
every private module-level name of the library is read somewhere in it.

An imported name counts as used when the module reads it anywhere (as a bare
name or as the base of an attribute chain, annotations included) or exports
it in ``__all__``.  A private name counts as read when a statement other than
the one defining it reads it as a name, an attribute or an imported name.
Read with the standard library's ``ast``, so nothing is imported or run.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "arczeta").glob("*.py"))
MODULES = LIBRARY + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]
    assert unused_imports("from math import pi\n__all__ = ['pi']\n") == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name``s (a def, a class or an assignment) of ``sources``
    (file name -> source) that no other statement of ``sources`` reads."""
    defined, read = {}, set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)}
            else:
                names = set()
            for name in sorted(names):
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module} line {stmt.lineno}"
            reads = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
                elif isinstance(node, ast.alias):
                    reads.add(node.name)
            read |= reads - names
    return [f"{name} ({where})" for name, where in defined.items() if name not in read]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in LIBRARY}
    unread = unread_private_names(sources)
    assert not unread, f"private names defined in src/arczeta and never read there: {unread}"


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": "def _f(n):\n    return _f(n - 1)\n_X, _Y = 1, 2\n_Z: int = _Y\n"
                "class _C:\n    pass\n__all__ = []\n",
        "b.py": "import a\nfrom a import _C\nprint(a._Z)\n",
    }
    assert unread_private_names(sources) == ["_f (a.py line 1)", "_X (a.py line 3)"]
