"""No module of the library or the demos imports a name it never uses, and
every private module-level name of the library is read somewhere in it.

An imported name counts as used when the module reads it anywhere (as a bare
name or as the base of an attribute chain, annotations included) or exports
it in ``__all__``.  A private name counts as read when a statement other than
the one defining it reads it as a name, an attribute or an imported name.
Read with the standard library's ``ast``, so nothing is imported or run.

The work of every ``_spread`` call of the library is a module-level
function, or a ``functools.partial`` of one, that ``perfbench/spans.py`` does
not rebind: pickle sends a function by its module and name, so a lambda or a
nested function fails on two or more CPUs only, and a traced pass rebinds a
target's name, so a reference to a target taken before the pass began no
longer pickles.  That check loads ``spans.py`` by path for its targets.
"""

import ast
import importlib.util
import sys
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


def _load_targets() -> set[str]:
    """The names (``module.attr``) that ``perfbench/spans.py`` rebinds in a
    traced run, its file loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_spans_targets",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return {target.name for target in module.TARGETS}


def _called(func: ast.expr) -> str:
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def bad_spread_work(sources: dict[str, str], wrapped: set[str]) -> list[str]:
    """The first arguments of ``_spread(...)`` calls in ``sources`` (module
    name -> source) that are not a module-level function, or a
    ``functools.partial`` of one, or that name a function of ``wrapped``
    (``module.name``)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defs = {module: {stmt.name for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
            for module, tree in trees.items()}
    bad = []
    for module, tree in trees.items():
        # a local name -> (its module, its name there): a def here, or an import
        # of a library module's name
        home = {name: (module, name) for name in defs[module]}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in defs:
                home.update({alias.asname or alias.name: (node.module, alias.name)
                             for alias in node.names})
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _called(node.func) == "_spread"):
                continue
            work = node.args[0] if node.args else None
            if isinstance(work, ast.Call) and _called(work.func) == "partial" and work.args:
                work = work.args[0]
            where = home.get(work.id) if isinstance(work, ast.Name) else None
            if (where is None or where[1] not in defs[where[0]]
                    or ".".join(where) in wrapped):
                shown = ast.unparse(node.args[0]) if node.args else "nothing"
                bad.append(f"{module} line {node.lineno}: {shown}")
    return bad


def test_spread_work_is_an_untraced_module_function():
    sources = {path.stem: path.read_text() for path in LIBRARY}
    bad = bad_spread_work(sources, _load_targets())
    assert not bad, f"_spread work that is not a module-level function or is traced: {bad}"


def test_the_check_sees_bad_spread_work():
    sources = {
        "a": "def f(x):\n    pass\ndef g(x):\n    pass\n_spread(f, xs)\n"
             "_spread(functools.partial(f, 1), xs)\n_spread(partial(g, 1), xs)\n"
             "_spread(lambda x: x, xs)\ndef h(xs):\n    def inner(x):\n        pass\n"
             "    return _spread(inner, xs)\n",
        "b": "from .a import f, g as gg\nfrom numpy import sum\n_spread(f, xs)\n"
             "_spread(gg, xs)\n_spread(sum, xs)\n",
    }
    assert bad_spread_work(sources, {"a.g"}) == [
        "a line 7: partial(g, 1)", "a line 8: lambda x: x", "a line 12: inner",
        "b line 4: gg", "b line 5: sum"]
