"""Every module-level function, class and constant of the package is reached
from outside its own tests.

A stdlib `ast` pass: each top-level `def` or `class` in `src/scavenger/*.py`,
and each name bound by a top-level assignment (dunders such as `__version__`
aside), must be named somewhere other than its own definition, in `src/`,
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


def _bound(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function or class, or the
    names an assignment binds, dunders excepted."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _unreached(module: ast.Module, others: set[str]) -> list[str]:
    """The top-level functions, classes and assigned names of `module` named
    neither in `others` nor anywhere in `module` outside their own
    definition."""
    skip = _docstrings(module)
    unreached = []
    for node in module.body:
        names = _bound(node)
        if not names:
            continue
        rest = set().union(*(_named(other, skip) for other in module.body if other is not node))
        unreached += [name for name in names if name not in others and name not in rest]
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
    constants = ast.parse(
        '__version__ = "0"\nUSED = 1\nLONELY: int = 2\nFIRST, SECOND = 3, 4\n'
        "def main():\n    return USED + FIRST\n"
    )
    assert _unreached(constants, {"main"}) == ["LONELY", "SECOND"]
    assert _unreached(ast.parse("def f():\n    pass\n"), _named(ast.parse('T = "m:f"'), set())) == []
