"""The package imports nothing beyond the standard library and numpy, its
root binds nothing but its submodules, and the tools import only the
standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qbp"
TOOLS = PACKAGE.parent.parent / "tools"


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


def test_tools_import_only_the_standard_library():
    # so a fresh clone records and reads a pair with nothing installed; a tool
    # may import another tool, which this same check covers
    sources = sorted(TOOLS.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {path.stem for path in sources}
    found = {(path.name, name) for path in sources for name in _imported_modules(path)}
    assert {name for _, name in found} >= {"json", "subprocess"}
    assert sorted(pair for pair in found if pair[1] not in allowed) == []


def _bound_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_package_root_binds_only_submodules():
    # every public name has one import path, from the submodule that defines it
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    bound = set(_bound_names(tree))
    assert bound
    assert sorted(bound - modules) == []


def _io_uses(tree):
    # calls to the open and print builtins (print writes to sys.stdout) and
    # any reference to sys.stdin/stdout/stderr
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("open", "print")):
            yield f"{node.func.id}() at line {node.lineno}"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
                and node.attr in ("stdin", "stdout", "stderr")):
            yield f"sys.{node.attr} at line {node.lineno}"


def test_only_the_cli_opens_files_or_touches_the_standard_streams():
    # library readers and writers take open streams; the command line owns the edge
    found = {path.name: list(_io_uses(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found["cli.py"]
    assert {name: uses for name, uses in found.items() if uses and name != "cli.py"} == {}
