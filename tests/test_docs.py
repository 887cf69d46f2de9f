"""The code examples in README.md run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from tapmerge.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DEDUPE = ROOT / "tests" / "data" / "golden_dedupe"


def readme_section(title: str) -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs(monkeypatch):
    (code,) = re.findall(r"```python\n(.*?)```", readme_section("Library"), flags=re.DOTALL)
    # the example reads its data by paths relative to the repository root
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})


def test_readme_command_line_example_writes_the_golden_files(monkeypatch, tmp_path):
    blocks = re.findall(r"```sh\n(.*?)```", readme_section("Command line"), flags=re.DOTALL)
    (command,) = [block for block in blocks if block.startswith("tapmerge dedupe")]
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[:2] == ["tapmerge", "dedupe"]
    out = argv.index("--out") + 1
    argv[out] = str(tmp_path)
    monkeypatch.chdir(ROOT)
    assert main(argv[1:]) == 0
    # run_manifest.json holds absolute input paths, so it has no golden copy
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "run_manifest.json")
    assert written == sorted(p.name for p in GOLDEN_DEDUPE.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DEDUPE / name).read_bytes(), name
