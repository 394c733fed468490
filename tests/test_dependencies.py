"""The package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qbp"


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "qbp"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = {(path.name, name) for path in sources for name in _imported_modules(path)}
    assert {name for _, name in found} >= {"numpy", "qbp"}
    assert sorted(pair for pair in found if pair[1] not in allowed) == []
