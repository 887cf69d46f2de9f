"""The package imports nothing outside the standard library and itself, and each stage only when it is used."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import tapmerge

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


def fresh_interpreter(code: str) -> str:
    """The stdout of `code`, run by a new interpreter that imports the package from `src/`.

    `-S` skips the site-packages start-up files, which may import any
    module for reasons of their own, so `sys.modules` holds only what
    the interpreter and `code` loaded.
    """
    src = str(PACKAGE_DIR.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout.strip()


def test_importing_the_cli_loads_no_dataclass_machinery():
    # every command pays its imports at start-up, and `dataclasses` pulls in
    # `inspect`, `ast` and `dis`
    code = "import sys, tapmerge.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    assert fresh_interpreter(code) == "[]"


def test_importing_the_package_loads_no_hashing_or_logging():
    # a library caller pays for what `import tapmerge` loads; only the CLI logs, and
    # it hashes only its input files, so both modules load there, once a command runs
    code = "import sys, tapmerge; print(sorted({'hashlib', 'logging'} & sys.modules.keys()))"
    assert fresh_interpreter(code) == "[]"


def test_importing_the_package_loads_no_stage():
    # `tapmerge/__init__.py` maps each public name to its home module and
    # imports that module at the name's first use
    code = "import sys, tapmerge; print(sorted(name for name in sys.modules if name.startswith('tapmerge.')))"
    assert fresh_interpreter(code) == "[]"


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_load_no_stage_they_do_not_run(flag):
    # the parser and the exit-code mapping need only `graph`, `ingest` and
    # `screening`; the commands import `merge` and `similarity`, `_sha256`
    # imports `hashlib`, and `logging` loads once the arguments parse
    later = ["hashlib", "logging", "tapmerge.merge", "tapmerge.similarity", "tapmerge.unionfind"]
    code = (
        "import io, contextlib; from tapmerge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    try: main([{flag!r}])\n"
        "    except SystemExit as exc: code = exc.code\n"
        f"print(code, sorted({later!r} & sys.modules.keys()))"
    )
    assert fresh_interpreter(code) == "0 []"


def test_a_bare_import_resolves_every_stage_submodule():
    # a submodule is bound on the package only once it is imported, so the
    # package's `__getattr__` imports the six stages that it used to import at once
    stages = ["graph", "ingest", "merge", "screening", "similarity", "unionfind"]
    code = (
        "import tapmerge; listed = set(dir(tapmerge))\n"
        f"print([getattr(tapmerge, stage).__name__ for stage in {stages!r} if stage in listed])\n"
        "print(set(tapmerge.__all__) <= listed)"
    )
    assert fresh_interpreter(code).splitlines() == [repr([f"tapmerge.{stage}" for stage in stages]), "True"]


def test_every_exported_name_is_the_object_its_home_module_defines():
    for name in tapmerge.__all__:
        if name == "__version__":
            continue
        # the first use of a name imports the module that its table entry names
        value, home = getattr(tapmerge, name), sys.modules[f"tapmerge.{tapmerge._HOMES[name]}"]
        assert (value.__module__, value.__qualname__) == (home.__name__, name)
        assert getattr(home, name) is value


def test_a_star_import_binds_exactly_the_exported_names():
    namespace: dict = {}
    exec("from tapmerge import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tapmerge.__all__)
    assert len(tapmerge.__all__) == len(set(tapmerge.__all__))


def test_an_unknown_name_raises_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="module 'tapmerge' has no attribute 'no_such_name'"):
        tapmerge.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from tapmerge import no_such_name  # noqa: F401
