"""The package imports nothing outside the standard library and itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "tapmerge"
SOURCES = sorted(PACKAGE_DIR.glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """Module names of every `import x` and `from x import y`; relative imports are skipped."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_every_package_module_is_checked():
    assert {path.name for path in SOURCES} >= {"__init__.py", "graph.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(path):
    foreign = sorted(
        name
        for name in absolute_imports(path)
        if name.split(".")[0] != "tapmerge" and name.split(".")[0] not in sys.stdlib_module_names
    )
    assert foreign == []
