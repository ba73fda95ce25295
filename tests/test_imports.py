"""Every module-level import in the package, the scripts and the tests is
used by its module.

A stdlib `ast` pass stands in for a linter: a name bound by a top-level
`import` or `from … import` must be read somewhere in the same module (or be
listed in its `__all__`).  Annotations count as reads, including ones written
as strings.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "scavenger"
# the package's modules keep their bare names as test ids
MODULES = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted(ROOT.glob("scripts/*.py")),
    *sorted(ROOT.glob("tests/*.py")),
]


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name -> line for every binding made by a top-level import."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as "QVec3", and `__all__` entries
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return read


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: p.name if p.parent == PACKAGE else str(p.relative_to(ROOT))
)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in read}
    assert not unused, f"{path.relative_to(ROOT)}: unused imports {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from .qcore import point, vec\nimport os.path\nx = vec(1, 2, 3)\n")
    assert set(_imported_names(tree)) - _read_names(tree) == {"point", "os"}
