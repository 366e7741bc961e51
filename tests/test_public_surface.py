"""Every public name is used: by the package, a benchmark or an acceptance test.

A name exported from ``ethokit`` stays only while something reads it:
code in ``src/ethokit`` outside its own definition, any file in
``benchmarks/``, or the paper-claim checks in ``tests/test_acceptance.py``.
A use is a name or attribute read in the syntax tree, or a string equal
to the name (``benchmarks/tracing.py`` wraps CLI functions by name).
Imports, definitions and what they hold, ``__all__`` lists, comments and
docstrings do not count, so a name that is only exported, or only
documented, fails.

Each public name is listed once, in its own module's ``__all__``:
``ethokit/__init__.py`` only star-imports the modules, and no name is
listed by two of them. The submodules themselves are not exported, so
``from ethokit import *`` rebinds no name such as ``stats``.
"""

from __future__ import annotations

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

import ethokit

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    *sorted((ROOT / "src" / "ethokit").glob("*.py")),
    *sorted((ROOT / "benchmarks").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


class _Uses(ast.NodeVisitor):
    """Counts of each name read, as a name, an attribute or an equal string.

    A read inside the name's own function or class body is not counted.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.inside: list[str] = []

    def _define(self, node) -> None:
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def _use(self, name: str) -> None:
        if name not in self.inside:
            self.counts[name] += 1

    def visit_Assign(self, node: ast.Assign) -> None:
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            self._use(node.value)


def _uses(path: Path) -> Counter:
    visitor = _Uses()
    visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    return visitor.counts


USES = sum(map(_uses, SOURCES), Counter())
# a submodule is never a public name (see test_no_module_is_exported)
PUBLIC = sorted(
    name for name in ethokit.__all__ if not inspect.ismodule(getattr(ethokit, name))
)


def test_sources_are_found():
    assert len(SOURCES) > 15 and all(path.is_file() for path in SOURCES)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_used(name):
    assert USES[name] > 0, f"ethokit.{name} is exported but nothing reads it"


# the submodules the package imports; ethokit.cli is bound here only once
# something imports it, and the package itself never does
MODULES = [
    value
    for name, value in sorted(vars(ethokit).items())
    if inspect.ismodule(value) and name != "cli"
]


def test_package_only_star_imports():
    tree = ast.parse((ROOT / "src" / "ethokit" / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert len(imports) == len(MODULES) > 5
    for node in imports:
        assert isinstance(node, ast.ImportFrom) and node.level == 1, ast.unparse(node)
        assert [alias.name for alias in node.names] == ["*"], ast.unparse(node)


def test_no_module_is_exported():
    assert [name for name in ethokit.__all__ if inspect.ismodule(getattr(ethokit, name))] == []
    namespace: dict = {}
    exec("from ethokit import *", namespace)
    assert not any(map(inspect.ismodule, namespace.values()))


def test_each_public_name_is_listed_once():
    listed = Counter(name for module in MODULES for name in module.__all__)
    assert [name for name, n in listed.items() if n > 1] == []
    assert sorted(listed) == PUBLIC
    assert not {"read_text", "write_text"} & set(PUBLIC)
