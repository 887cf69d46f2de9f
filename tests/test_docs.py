"""The code examples in README.md run as written."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", library, flags=re.DOTALL)
    # the example reads its data by paths relative to the repository root
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
