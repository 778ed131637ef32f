"""The runtime needs only the standard library."""

import ast
import sys
from pathlib import Path

import lp_lab

PACKAGE = Path(lp_lab.__file__).parent


def _absolute_imports(path: Path) -> list[str]:
    """Top-level names of the absolute imports anywhere in one module."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    foreign = {
        f"{path.name}: {name}"
        for path in modules
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names and name != "lp_lab"
    }
    assert not foreign
