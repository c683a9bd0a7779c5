"""The package namespace: ``pjet.__all__`` names only what ``pjet`` holds,
and no module of ``src/pjet`` keeps an import it does not use."""

import ast
import os

import pytest

import pjet

PACKAGE = os.path.dirname(pjet.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


@pytest.mark.parametrize("name", pjet.__all__)
def test_exported_name_resolves(name):
    assert hasattr(pjet, name)


def test_no_name_exported_twice():
    assert len(set(pjet.__all__)) == len(pjet.__all__)


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads: not as a name, not as the
    base of an attribute, not in a quoted annotation and not in ``__all__``.
    ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    roots = [tree]
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            notes = [node.returns, *(x.annotation for x in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if x)]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in filter(None, notes):
            quoted = (c.value for c in ast.walk(note) if isinstance(c, ast.Constant) and isinstance(c.value, str))
            roots += [ast.parse(q, mode="eval") for q in quoted]
    used = {n.id for root in roots for n in ast.walk(root) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1]) if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport math, os.path\nfrom typing import Mapping\nx: 'Mapping[int, int]' = {}\n"
    assert unused_imports(source) == ["line 2: math", "line 2: os"]
    assert unused_imports("import math as m\n__all__ = ['m']\n") == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and classes, and the private
    methods, that the modules define and no module reads: not as a name,
    not as an attribute and not in an import."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        scopes = [tree.body] + [c.body for c in tree.body if isinstance(c, ast.ClassDef)]
        for body in scopes:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if node.name.startswith("_") and not node.name.startswith("__"):
                        defined.setdefault(node.name, (module, node.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    unread = sorted((where, name) for name, where in defined.items() if name not in read)
    return [f"{module}:{line}: {name}" for (module, line), name in unread]


def test_every_private_name_is_read():
    sources = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    a = "def _used():\n    pass\n\n\ndef _left():\n    pass\n\n\nclass K:\n    def _m(self):\n        pass\n\n    def __eq__(self, o):\n        return True\n"
    b = "from a import _used\n_used()\n"
    assert unread_private_names({"a.py": a, "b.py": b}) == ["a.py:5: _left", "a.py:10: _m"]
