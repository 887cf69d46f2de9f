"""`load` against the reference loader on generated records text."""

from __future__ import annotations

import csv
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_loader
from tapmerge import ingest
from tapmerge.graph import GraphError
from tapmerge.ingest import RECORDS_HEADER, IngestError

# per column, valid and rejected raw field text; each valid value also comes with surrounding blanks
IDS = (["", "", " ", "p1", " p1", "p2 ", "Ann", "c000001", "c000002", "e000001"], [])
NAMES = (["Ann", "Bo", "p1", "Lee,\nAnn", " Ann", "Ann "], ["", " "])
ENTITY_NAMES = (["Uni", "Lab", 'Jinan\n"Univ"', " Uni"], ["", "\t"])
ENTITY_TYPES = (["inst", "lab", "inst "], ["", " "])
RELATION_TYPES = (["study", "work", "visit", " study", "work ", " visit"], ["", " "])
# a year of 4,301 digits is more than `int()` reads from a string
BOUNDS = (["2001", "2003", "+5", " 2001", "2001 "], ["x", "-1", "1_999", "", "1" * 4301])
COLUMNS = [IDS, NAMES, ENTITY_NAMES, ENTITY_TYPES, RELATION_TYPES, BOUNDS, BOUNDS]
SHAPES = ["row"] * 3 + ["repeat"] * 2 + ["echo"] * 3 + ["blank", "short", "long"]


@st.composite
def palette(draw, column: tuple[list[str], list[str]]) -> list[str]:
    """One or two valid values of a column and at most one rejected one, which rows draw one time in five."""
    valid, rejected = column
    values = draw(st.lists(st.sampled_from(valid), min_size=1, max_size=2, unique=True))
    return values * 4 + draw(st.lists(st.sampled_from(rejected), max_size=1)) * len(values) if rejected else values


@st.composite
def records_texts(draw) -> str:
    """A records file's text: the header, then rows, blank lines, short rows and rows with extra fields.

    Each column draws from a small palette of its own, so rows repeat
    each other's field text, whole or in part. A repeat is an earlier row
    again, and an echo is one with one field replaced by a rejected value
    of its column, or by another id.
    """
    palettes = [draw(palette(column)) for column in COLUMNS]
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    if draw(st.booleans()):
        buffer.write("\ufeff")
    writer.writerow(RECORDS_HEADER)
    rows: list[list[str]] = []
    for _ in range(draw(st.integers(0, 40))):
        shape = draw(st.sampled_from(SHAPES))
        if shape == "blank":
            buffer.write("\n")
            continue
        if shape in ("repeat", "echo") and rows:
            row = list(draw(st.sampled_from(rows)))
            if shape == "echo":
                j = draw(st.integers(0, len(COLUMNS) - 1))
                valid, rejected = COLUMNS[j]
                row[j] = draw(st.sampled_from(rejected or valid))
        else:
            row = [draw(st.sampled_from(values)) for values in palettes]
        rows.append(row)
        if shape == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif shape == "long":
            row = [*row, *draw(st.lists(st.sampled_from(["", "extra", " "]), min_size=1, max_size=2))]
        writer.writerow(row)
    return buffer.getvalue()


# " visit" and " lab" are declared with a blank, so no row's stripped text equals them
manifests = st.none() | st.fixed_dictionaries(
    {
        "relation_types": st.lists(st.sampled_from(["study", "work", " visit"]), unique=True),
        "entity_types": st.lists(st.sampled_from(["inst", "lab", " lab"]), unique=True),
    }
)


def outcome(loader, records, manifest, strict) -> tuple:
    """What a loader made of the files: every order the bundle exposes and the report, or the error."""
    try:
        bundle, report = loader(records, manifest, strict)
    except (IngestError, GraphError) as exc:
        return ("raised", type(exc), str(exc))
    return (
        "loaded",
        bundle.sealed,
        bundle.vertices(),
        bundle.relation_types(),
        list(bundle.edges()),
        [(tan.relation_type, list(tan._by_character.items())) for tan in bundle.subnetworks()],
        report.to_dict(),
    )


HEADER = ",".join(RECORDS_HEADER)
ROW = "p1,Ann,Uni,inst,study,2001,2002"


@settings(max_examples=400, deadline=None)
@given(text=records_texts(), manifest=manifests, strict=st.booleans())
# a row found by its raw text after a rejected row, and one with a known id but no name
@example(text=f"{HEADER}\n{ROW}\n,Ann,Uni,inst,study,2005,2001\n{ROW}\n", manifest=None, strict=False)
@example(text=f"{HEADER}\n{ROW}\np1, ,Uni,inst,study,2001,2002\n{ROW}\n", manifest=None, strict=False)
def test_load_equals_the_reference_loader(tmp_path_factory, text, manifest, strict):
    # rows repeat field text with and without blanks, so the raw-text lookups both hit
    # and miss; explicit ids meet generated ids, entity ids and names
    work = tmp_path_factory.getbasetemp()
    records = work / "records.csv"
    records.write_text(text, encoding="utf-8", newline="")
    manifest_path = None
    if manifest is not None:
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

    actual = outcome(ingest.load, records, manifest_path, strict)
    assert actual == outcome(reference_loader.load, records, manifest_path, strict)
    if actual[0] == "loaded":
        edges = actual[4]
        # one interval object per bounds, and every edge holds its subnetwork's label object
        assert len({id(edge.interval) for edge in edges}) == len({edge.interval for edge in edges})
        labels = {label: label for label, _ in actual[5]}
        assert all(edge.relation_type is labels[edge.relation_type] for edge in edges)
