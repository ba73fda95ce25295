"""Every module-level function and class of the package is reached from
outside its own tests.

A stdlib `ast` pass: each top-level `def` or `class` in `src/scavenger/*.py`
must be named somewhere other than its own definition, in `src/`,
`scripts/`, `perfbench/` or `tests/test_acceptance.py`.  A name counts when it
is read as a name, an attribute or an import, or appears as a word inside a
string (the benchmark traces functions by strings such as
`"scavenger.hunts:greedy_hunt"`).  Docstrings do not count: mentioning a
function is not calling it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "scavenger"
USERS = [
    *sorted((ROOT / "src").rglob("*.py")),
    *sorted((ROOT / "scripts").rglob("*.py")),
    *sorted((ROOT / "perfbench").rglob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                ids.add(id(body[0].value))
    return ids


def _named(tree: ast.AST, skip: set[int]) -> set[str]:
    """The names read in `tree`, outside string constants whose id is in `skip`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip:
            names |= set(re.findall(r"\w+", node.value))
    return names


def _unreached(module: ast.Module, others: set[str]) -> list[str]:
    """The top-level functions and classes of `module` named neither in
    `others` nor anywhere in `module` outside their own definition."""
    skip = _docstrings(module)
    defs = [
        node
        for node in module.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    unreached = []
    for node in defs:
        rest = set().union(*(_named(other, skip) for other in module.body if other is not node))
        if node.name not in others and node.name not in rest:
            unreached.append(node.name)
    return unreached


def _names_outside(path: Path) -> set[str]:
    names = set()
    for user in USERS:
        if user.resolve() != path.resolve():
            tree = ast.parse(user.read_text(encoding="utf-8"))
            names |= _named(tree, _docstrings(tree))
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_top_level_definition_is_reached(path):
    module = ast.parse(path.read_text(encoding="utf-8"))
    unreached = _unreached(module, _names_outside(path))
    assert not unreached, f"{path.name}: reached only from tests or not at all: {unreached}"


def test_the_check_sees_an_unreached_definition():
    module = ast.parse(
        '"""Mentions lonely()."""\n'
        "def lonely():\n    return lonely()\n"
        "def used():\n    return 1\n"
        "def traced():\n    pass\n"
        "class Shape:\n    pass\n"
        "def main():\n    return used() + len([Shape])\n"
    )
    assert _unreached(module, {"main", "traced"}) == ["lonely"]
    assert _unreached(ast.parse("def f():\n    pass\n"), _named(ast.parse('T = "m:f"'), set())) == []
