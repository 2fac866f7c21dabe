"""Every name a module of the package imports is used in that module, every
private module-level name it defines is read in it, and no function of the
package recurses unless its depth is bounded."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pgsos"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by ``import``/``from ... import`` (``from __future__``
    skipped) that the module never reads as a name or as the base of an
    attribute."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            used.add(node.value.id)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import Any, List\nx: List\n") \
        == ["Any (line 2)", "os (line 1)"]


def dead_private_names(source: str) -> list[str]:
    """Private (single leading underscore) functions, classes and constants
    bound at module level that the module never reads as a name."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                             ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(defined.items())
            if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dead_private_names(path):
    assert dead_private_names(path.read_text()) == []


def test_the_scan_sees_a_dead_private_name():
    source = ("_LIMIT = 3\n_used = 1\n__dunder__ = 2\n"
              "def _helper():\n    return _used\n"
              "class _Box:\n    pass\n"
              "def public():\n    return _helper()\n")
    assert dead_private_names(source) == ["_Box (line 6)", "_LIMIT (line 1)"]


def recursive_functions(sources: dict[str, str]) -> list[str]:
    """The functions (``module.qualname``) of the modules ``sources`` (name
    to text) that call themselves by name, directly or through one another.

    A bare name resolves to every function of that name nested in the
    caller's scope, and to the module's function or class of that name or
    what ``from .module import`` binds to it (a class to its ``__new__``
    and ``__init__``); ``self.f`` and ``cls.f`` to a method of the caller's
    class; ``C.f`` to a method of the class ``C`` and ``m.f`` to a function
    of the module ``m``.  Unresolved calls are left out."""
    defs: dict[str, ast.AST] = {}  # "module.qualname" -> def
    scopes: dict[str, list[str]] = {}  # def -> enclosing qualnames, inner first
    classes: dict[str, str] = {}  # def -> "module.Class" of a method
    bindings: dict[str, dict[str, str]] = {}  # module -> name -> target

    def collect(module: str, body: list, prefix: str, outer: list[str],
                cls: str | None) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{node.name}"
                defs[qual], scopes[qual] = node, outer
                if cls is not None:
                    classes[qual] = cls
                collect(module, node.body, qual + ".", [qual] + outer, None)
            elif isinstance(node, ast.ClassDef):
                collect(module, node.body, f"{prefix}{node.name}.", outer,
                        f"{prefix}{node.name}")

    for module, source in sources.items():
        tree = ast.parse(source)
        names = bindings.setdefault(module, {})
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names[node.name] = f"{module}.{node.name}"
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}" if node.module
                        else alias.name)
        collect(module, tree.body, f"{module}.", [], None)

    def callees(qual: str) -> set[str]:
        module = qual.split(".")[0]
        out: set[str] = set()
        stack = list(ast.iter_child_nodes(defs[qual]))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # a nested def is a node of its own
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, ast.Call):
                continue
            func, targets = node.func, []
            if isinstance(func, ast.Name):
                targets = [f"{scope}.{func.id}" for scope in [qual] + scopes[qual]]
                target = bindings[module].get(func.id)
                if target is not None:
                    targets += [target, f"{target}.__new__", f"{target}.__init__"]
            elif (isinstance(func, ast.Attribute)
                  and isinstance(func.value, ast.Name)):
                if func.value.id in ("self", "cls") and qual in classes:
                    targets = [f"{classes[qual]}.{func.attr}"]
                else:
                    base = bindings[module].get(func.value.id)
                    if base is not None:
                        targets = [f"{base}.{func.attr}"]
            out.update(t for t in targets if t in defs)
        return out

    graph = {qual: callees(qual) for qual in defs}
    found = []
    for qual in graph:
        seen, stack = set(), list(graph[qual])
        while stack:
            callee = stack.pop()
            if callee not in seen:
                seen.add(callee)
                stack.extend(graph[callee])
        if qual in seen:
            found.append(qual)
    return sorted(found)


# Recursion bounded by a budget or by the shape of a report: the oracle
# draws random terms at most --depth deep (each level also stops with
# probability at least 1/4), walks their positions and replaces along one
# of them; JSON reports nest a fixed number of levels.
BOUNDED_RECURSION = ["cli.jsonable", "oracle._positions", "oracle._replace",
                     "oracle.random_closed_term", "oracle.random_open_term"]


def test_no_function_recurses():
    # deep input must not meet the interpreter's recursion limit
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert recursive_functions(sources) == BOUNDED_RECURSION


def test_the_scan_sees_recursion():
    planted = {
        "walk": ("from .util import helper\n"
                 "def even(n):\n    return n == 0 or odd(n - 1)\n"
                 "def odd(n):\n    return n != 0 and even(n - 1)\n"
                 "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n"
                 "def once(n):\n    return even(n)\n"
                 "def outer(n):\n"
                 "    def inner(k):\n        return k and inner(k - 1)\n"
                 "    return inner(n)\n"
                 "class Box:\n"
                 "    def open(self, n):\n"
                 "        return n and self.close(n - 1)\n"
                 "    def close(self, n):\n        return Box.open(self, n)\n"
                 "def via(n):\n    return helper(n)\n"),
        "util": ("from .walk import via\n"
                 "def helper(n):\n    return n and via(n - 1)\n"),
    }
    assert recursive_functions(planted) == [
        "util.helper", "walk.Box.close", "walk.Box.open", "walk.even",
        "walk.fact", "walk.odd", "walk.outer.inner", "walk.via"]
