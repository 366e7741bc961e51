"""Every public name is used: by the package, a benchmark or an acceptance test.

A name exported from ``ethokit`` stays only while something reads it:
code in ``src/ethokit`` outside its own definition, any file in
``benchmarks/``, or the paper-claim checks in ``tests/test_acceptance.py``.
A use is a name or attribute read in the syntax tree, or a string equal
to the name (``benchmarks/tracing.py`` wraps CLI functions by name).
Imports, definitions and what they hold, ``__all__`` lists, comments and
docstrings do not count, so a name that is only exported, or only
documented, fails.
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
# the package's submodules are in __all__ too, as attributes of the package
PUBLIC = sorted(
    name for name in ethokit.__all__ if not inspect.ismodule(getattr(ethokit, name))
)


def test_sources_are_found():
    assert len(SOURCES) > 15 and all(path.is_file() for path in SOURCES)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_used(name):
    assert USES[name] > 0, f"ethokit.{name} is exported but nothing reads it"
