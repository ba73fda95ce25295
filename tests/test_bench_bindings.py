"""Every binding of the benchmark into the package resolves.

`perfbench/` traces functions named by strings such as
`"scavenger.geom:conic_point"` and imports names from the package.  A name
that no longer exists breaks only a traced benchmark run, so this stdlib
`ast` pass reads `perfbench/*.py` without running it and resolves each
tracer target and each imported package name with importlib.
"""

from __future__ import annotations

import ast
import importlib
import re
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
TARGET = re.compile(r"scavenger(\.\w+)*:\w+(\.\w+)*")


def _bindings(source: str) -> list[tuple[int, str, str]]:
    """(line, module, attribute path) for every `"module:attr"` tracer target
    and every name imported from the package; a plain `import` of a package
    module has an empty attribute path."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if TARGET.fullmatch(node.value):
                found.append((node.lineno, *node.value.split(":")))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "scavenger":
                found.extend((node.lineno, node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (node.lineno, alias.name, "")
                for alias in node.names
                if alias.name.split(".")[0] == "scavenger"
            )
    return sorted(found)


def _resolves(module: str, attr: str) -> bool:
    try:
        obj = importlib.import_module(module)
        for part in attr.split(".") if attr else ():
            if isinstance(obj, types.ModuleType) and not hasattr(obj, part):
                importlib.import_module(f"{obj.__name__}.{part}")  # a submodule
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return False
    return True


def _unresolved(source: str) -> list[str]:
    return [
        f"line {line}: {module}:{attr}"
        for line, module, attr in _bindings(source)
        if not _resolves(module, attr)
    ]


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_benchmark_bindings_resolve(path):
    missing = _unresolved(path.read_text(encoding="utf-8"))
    assert not missing, f"{path.name}: {missing}"


def test_the_tracer_targets_are_seen():
    targets = {(m, a) for _, m, a in _bindings((BENCH / "tracer.py").read_text(encoding="utf-8"))}
    assert ("scavenger.geom", "conic_point") in targets
    assert ("scavenger.numtheory", "ChainCertificate.validate") in targets


def test_the_check_flags_made_up_bindings():
    source = (
        'Spec("geom.gone", "scavenger.geom:no_such_function")\n'
        'Spec("graph.ok", "scavenger.graph:build_graph")\n'
        "from scavenger.qcore import point, no_such_name\n"
        "from scavenger import cli, no_such_module\n"
        "import scavenger.no_such_module\n"
    )
    assert _unresolved(source) == [
        "line 1: scavenger.geom:no_such_function",
        "line 3: scavenger.qcore:no_such_name",
        "line 4: scavenger:no_such_module",
        "line 5: scavenger.no_such_module:",
    ]
