"""Each input format is read in one place in the package, and every file
is written in one.

A CSV is parsed only by ``core.Rows``, a JSON document only by
``core.json_object``, and a missing file is reported only by
``core.read_text``. The syntax tree of every module in ``src/ethokit``
is searched for calls that parse CSV or JSON and for the name
``FileNotFoundError``; each must sit in its one function, so a second
hand-written reader fails here. CSV text is split at commas only inside
``core.Rows``, whose block reader hands any text that csv syntax could
read otherwise to its row reader. Likewise a file is written only by
``core.write_text``: no other function calls ``.write_text``,
``.write_bytes``, ``open`` or ``os.replace``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ethokit"


class _Sites(ast.NodeVisitor):
    """The enclosing function, as ``module.Class.function``, of each match."""

    def __init__(self, module: str, calls: set[tuple[str, str]], name: str | None) -> None:
        self.scope = [module]
        self.calls = calls
        self.name = name
        self.found: list[str] = []

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and (func.value.id, func.attr) in self.calls
        ):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == self.name:
            self.found.append(".".join(self.scope))


def sites(calls: set[tuple[str, str]] = frozenset(), name: str | None = None) -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Sites(path.stem, calls, name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    return found


def test_sources_are_found():
    assert len(list(SRC.glob("*.py"))) > 10


@pytest.mark.parametrize(
    "calls,site",
    [
        ({("csv", "reader"), ("csv", "DictReader")}, "core.Rows.__init__"),
        ({("json", "loads"), ("json", "load")}, "core.json_object"),
    ],
    ids=["csv", "json"],
)
def test_one_parser_per_format(calls, site):
    assert sites(calls) == [site]


def test_one_missing_file_error():
    assert sites(name="FileNotFoundError") == ["core.read_text"]


class _CommaSplits(_Sites):
    """The enclosing function of each ``.split(",")`` call."""

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("split", "rsplit"):
            if any(isinstance(arg, ast.Constant) and arg.value == "," for arg in node.args):
                self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_csv_text_is_split_at_commas_only_in_rows():
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _CommaSplits(path.stem, set(), None)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    assert found and all(site.startswith("core.Rows.") for site in found), found


class _Writes(_Sites):
    """The enclosing function of each call that writes a file."""

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            writes = func.id == "open"
        elif isinstance(func, ast.Attribute):
            os_replace = isinstance(func.value, ast.Name) and func.value.id == "os"
            writes = func.attr in ("write_text", "write_bytes", "open") or (
                func.attr == "replace" and os_replace
            )
        else:
            writes = False
        if writes:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def test_one_file_writer():
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Writes(path.stem, set(), None)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    assert found == ["core.write_text", "core.write_text"]  # the .tmp write, then os.replace
