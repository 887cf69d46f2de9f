"""The package imports nothing outside the standard library and itself."""

from __future__ import annotations

import ast
import subprocess
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


def test_importing_the_cli_loads_no_dataclass_machinery():
    # every command pays its imports at start-up, and `dataclasses` pulls in
    # `inspect`, `ast` and `dis`; `-S` skips the site-packages start-up files,
    # which may import either module for reasons of their own
    code = "import sys, tapmerge.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    src = str(PACKAGE_DIR.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "[]"


def test_importing_the_package_loads_no_hashing_or_logging():
    # a library caller pays for what `import tapmerge` loads; only the CLI logs, and
    # it hashes only its input files, so both modules load there and not here
    code = "import sys, tapmerge; print(sorted({'hashlib', 'logging'} & sys.modules.keys()))"
    src = str(PACKAGE_DIR.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "[]"
