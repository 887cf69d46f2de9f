"""Shared fixtures: the scholar dataset and a tiny two-person club network."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import settings

from tapmerge import NetworkBundle, VertexKind, load

DATA_DIR = Path(__file__).parent / "data"
SCHOLARS_CSV = DATA_DIR / "scholars.csv"
SCHOLARS_MANIFEST = DATA_DIR / "scholars_manifest.json"

SCHOLAR_NOW = 2014  # latest end time in the dataset

# the merge state machine's examples per run; `--hypothesis-profile=deep` runs ten times as many
MACHINE_EXAMPLES = 100
settings.register_profile("deep", max_examples=10 * MACHINE_EXAMPLES)


@pytest.fixture(scope="session")
def scholars_bundle() -> NetworkBundle:
    bundle, report = load(SCHOLARS_CSV, SCHOLARS_MANIFEST)
    assert not report.rejected
    return bundle


@pytest.fixture(scope="session")
def scholar_ids(scholars_bundle) -> dict[str, str]:
    return {
        v.display_name: v.id
        for v in scholars_bundle.vertices(VertexKind.CHARACTER)
    }


class ClubNet:
    """Two people and two clubs; one membership is repeated (parallel edge)."""

    def __init__(self) -> None:
        bundle = NetworkBundle()
        self.mona = bundle.add_vertex(VertexKind.CHARACTER, "person", "Mona")
        self.nora = bundle.add_vertex(VertexKind.CHARACTER, "person", "Nora")
        self.chess = bundle.add_vertex(VertexKind.ENTITY, "club", "Chess Club")
        self.film = bundle.add_vertex(VertexKind.ENTITY, "club", "Film Club")
        self.r1 = bundle.add_edge(self.mona, self.chess, "member", (2001, 2002))
        self.r2 = bundle.add_edge(self.mona, self.chess, "member", (2005, 2006))
        self.r3 = bundle.add_edge(self.mona, self.film, "member", (2003, 2004))
        self.r4 = bundle.add_edge(self.nora, self.chess, "member", (2002, 2003))
        self.r5 = bundle.add_edge(self.nora, self.film, "member", (2004, 2005))
        self.bundle = bundle.seal()
        self.tan = self.bundle.subnetwork("member")


@pytest.fixture()
def club() -> ClubNet:
    return ClubNet()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            match = re.search(r"test_acceptance\.py::test_criterion_(\d+)", getattr(report, "nodeid", ""))
            if match:
                lines.append((int(match.group(1)), label, report.nodeid.split("::")[-1]))
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, label, name in sorted(lines):
        terminalreporter.write_line(f"criterion {number}: {label}  ({name})")
