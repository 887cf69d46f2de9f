"""Loading, validation, reporting, and export round-trips."""

from __future__ import annotations

import csv
import json
import logging
import random
import tracemalloc

import pytest

from tapmerge import DatasetManifest, NetworkBundle, TransactionRecord, VertexKind, export, load, load_records, rebuild
from tapmerge.cli import main
from tapmerge.graph import DuplicateIdError, TimeInterval
from tapmerge.ingest import _CHUNK, IngestError
from tapmerge.testkit import RandomBundleSpec, generate

from conftest import SCHOLARS_MANIFEST
from dedupe_reference import graph_json_reference, records_csv_reference

HEADER = "character_id,character_name,entity_name,entity_type,relation_type,start,end"


def bundle_signature(bundle: NetworkBundle) -> list[tuple]:
    """Id-free shape of a bundle: per character, its sorted edge facts."""
    per_character: dict[str, list[tuple]] = {}
    for edge in bundle.edges():
        entity = bundle.vertex(edge.entity)
        fact = (entity.display_name, entity.type_label, edge.relation_type, edge.interval.start, edge.interval.end)
        per_character.setdefault(edge.character, []).append(fact)
    rows = [
        (bundle.vertex(cid).display_name, tuple(sorted(facts)))
        for cid, facts in per_character.items()
    ]
    return sorted(rows)


def write_csv(tmp_path, rows: list[str], name="records.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    return path


def test_scholars_fixture_loads_clean(scholars_bundle):
    assert len(scholars_bundle.character_ids()) == 8
    assert len(scholars_bundle.vertices(VertexKind.ENTITY)) == 20
    assert scholars_bundle.edge_count == 34
    assert scholars_bundle.relation_types() == ["study", "work", "research", "coauthor"]


def test_education_rows_alone_build_two_characters(tmp_path):
    rows = [
        ",Faye Wu,Hubei Minzu Univ.,institution,study,1992,1996",
        ",Faye Wu,Guangzhou Normal Univ.,institution,study,1997,1999",
        ",Faye Wu,Jinan Univ.,institution,study,2000,2005",
        ",Fei Wu,Hubei Minzu Univ.,institution,study,1992,1996",
        ",Fei Wu,Guangzhou Normal Univ.,institution,study,1997,1999",
        ",Fei Wu,Jinan Univ.,institution,study,2000,2000",
    ]
    bundle, report = load(write_csv(tmp_path, rows))
    assert report.loaded_rows == 6
    assert len(bundle.character_ids()) == 2
    assert len(bundle.vertices(VertexKind.ENTITY)) == 3
    assert len(bundle.subnetwork("study")) == 6


def test_empty_file_gives_empty_bundle(tmp_path):
    bundle, report = load(write_csv(tmp_path, []))
    assert report.total_rows == 0
    assert bundle.vertex_count == 0
    assert bundle.edge_count == 0


def test_inverted_interval_rejected_with_reason(tmp_path):
    rows = [",A,Uni,institution,study,2005,2001"]
    bundle, report = load(write_csv(tmp_path, rows))
    assert bundle.edge_count == 0
    assert [r.reason for r in report.rejected] == ["inverted interval"]
    assert report.total_rows == report.loaded_rows + len(report.rejected)


def test_rejected_row_reports_its_file_line_past_a_blank_line(tmp_path):
    # the csv reader skips the blank line 3, so a row counter would say line 3
    path = tmp_path / "records.csv"
    path.write_text(f"{HEADER}\n,A,Uni,institution,study,2001,2002\n\n,B,Uni,institution,study,2005,2001\n")
    bundle, report = load(path)
    assert bundle.edge_count == 1
    assert [(r.line, r.reason) for r in report.rejected] == [(4, "inverted interval")]
    with pytest.raises(IngestError, match="line 4: inverted interval"):
        load(path, strict=True)


def test_load_raises_when_the_bundle_build_fails_part_way(tmp_path):
    # the second row's explicit id collides with the first row's entity id;
    # the records file must still be closed (CI turns a leak into an error)
    rows = ["p1,A,Uni,institution,study,2001,2002", "e000001,B,Uni,institution,study,2001,2002"]
    with pytest.raises(DuplicateIdError):
        load(write_csv(tmp_path, rows))


def test_strict_mode_raises_on_bad_rows(tmp_path):
    path = write_csv(tmp_path, [",A,Uni,institution,study,2005,2001"])
    with pytest.raises(IngestError, match="inverted interval"):
        load(path, strict=True)


def test_undeclared_relation_type_discovered_or_fatal(tmp_path):
    rows = [",A,Uni,institution,sabbatical,2001,2002"]
    path = write_csv(tmp_path, rows)
    _, report = load(path, SCHOLARS_MANIFEST)
    assert report.discovered_relation_types == ["sabbatical"]
    with pytest.raises(IngestError, match="undeclared relation type"):
        load(path, SCHOLARS_MANIFEST, strict=True)


# new relation and entity types interleaved; the inverted rows are rejected, so the
# `sail`/`vessel` row discovers nothing and `visit`/`lab` are discovered where they load
DISCOVERY_ROWS = [
    ",A,Uni,institution,study,2001,2002",
    ",A,Ship,vessel,sail,2005,2001",
    ",B,Lab,lab,visit,2009,2001",
    ",B,P1,paper,coauthor,2003,2003",
    ",C,Bob,person,mentor,2001,2002",
    ",C,Lab,lab,work,2004,2005",
    ",D,Uni,institution,visit,2006,2006",
]


@pytest.mark.parametrize(
    "manifest, relation_types, entity_types",
    [
        (None, ["study", "coauthor", "mentor", "work", "visit"], ["institution", "paper", "person", "lab"]),
        (
            {"relation_types": ["work", "study"], "entity_types": ["lab", "institution"]},
            ["coauthor", "mentor", "visit"], ["paper", "person"],
        ),
        (
            {"relation_types": ["visit"], "entity_types": ["person", "paper"]},
            ["study", "coauthor", "mentor", "work"], ["institution", "lab"],
        ),
    ],
    ids=["no manifest", "manifest", "manifest declaring person"],
)
def test_discovered_types_are_the_undeclared_types_of_loaded_rows(tmp_path, manifest, relation_types, entity_types):
    manifest_path = None
    if manifest is not None:
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    _, report = load(write_csv(tmp_path, DISCOVERY_ROWS), manifest_path)
    assert [r.line for r in report.rejected] == [3, 4]
    assert report.discovered_relation_types == relation_types
    assert report.discovered_entity_types == entity_types


def test_wrong_header_is_fatal(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,entity\nA,B\n", encoding="utf-8")
    with pytest.raises(IngestError, match="header"):
        load(path)


def test_blank_first_line_is_a_wrong_header(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text(f"\n{HEADER}\n,A,Uni,institution,study,2001,2002\n", encoding="utf-8")
    with pytest.raises(IngestError, match="unexpected header"):
        load(path)


SHORT_AND_LONG_ROWS = [
    ",A,Uni,institution,study,2001",
    ",B,Uni,institution,study,2001,2002,extra,fields",
    ",C",
]


def test_short_rows_are_rejected_and_extra_fields_ignored(tmp_path):
    bundle, report = load(write_csv(tmp_path, SHORT_AND_LONG_ROWS))
    assert [(r.line, r.reason, r.raw) for r in report.rejected] == [
        (2, "expected 7 fields, got 6", ",A,Uni,institution,study,2001,"),
        (4, "expected 7 fields, got 2", ",C,,,,,"),
    ]
    assert (report.total_rows, report.loaded_rows) == (3, 1)
    (edge,) = bundle.edges()
    assert bundle.vertex(edge.character).display_name == "B"
    assert (edge.interval.start, edge.interval.end) == (2001, 2002)


def test_short_row_is_fatal_under_strict(tmp_path):
    with pytest.raises(IngestError, match="^line 2: expected 7 fields, got 6$"):
        load(write_csv(tmp_path, SHORT_AND_LONG_ROWS), strict=True)


def test_ingest_command_reports_a_short_row(tmp_path, caplog):
    caplog.set_level(logging.ERROR, logger="tapmerge")
    records = write_csv(tmp_path, SHORT_AND_LONG_ROWS)
    assert main(["ingest", "--records", str(records), "--out", str(tmp_path / "lenient")]) == 0
    report = json.loads((tmp_path / "lenient" / "load_report.json").read_text())
    assert [r["reason"] for r in report["rejected"]] == ["expected 7 fields, got 6", "expected 7 fields, got 2"]
    assert main(["ingest", "--records", str(records), "--out", str(tmp_path / "strict"), "--strict"]) == 1
    assert [r.getMessage() for r in caplog.records] == ["line 2: expected 7 fields, got 6"]


def test_an_explicit_id_given_a_second_name_keeps_its_first_and_warns_once(tmp_path, caplog):
    caplog.set_level(logging.WARNING, logger="tapmerge")
    rows = [
        "p1,Ann,Uni,institution,study,2001,2003",
        "p1,Bo,Lab,institution,study,2001,2003",
        "p1, Ann ,Lab,institution,work,2004,2005",  # the first name, padded
        "p1,Cy,Uni,institution,work,2004,2005",  # a third name for an id already warned about
        "p2,Bo,Uni,institution,study,2001,2003",
    ]
    bundle, report = load(write_csv(tmp_path, rows))
    assert (report.loaded_rows, report.rejected) == (5, [])
    assert [(v.id, v.display_name) for v in bundle.vertices(VertexKind.CHARACTER)] == [("p1", "Ann"), ("p2", "Bo")]
    assert sorted(e.character for e in bundle.edges()) == ["p1", "p1", "p1", "p1", "p2"]
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "line 3: character id 'p1' is named 'Bo' here but keeps its first name 'Ann'"),
    ]

    caplog.clear()
    records = [TransactionRecord(name, "Uni", "institution", "study", 2001, 2003, "p1") for name in ("Ann", "Bo")]
    assert [v.display_name for v in load_records(records).vertices(VertexKind.CHARACTER)] == ["Ann"]
    assert [r.getMessage() for r in caplog.records] == [
        "record 2: character id 'p1' is named 'Bo' here but keeps its first name 'Ann'"
    ]


def test_loaded_edges_share_one_interval_per_span(tmp_path):
    rows = [
        ",A,Uni,institution,study,2001,2002",
        ",B,Lab,institution,work,2001,2002",
        ",A,Lab,institution,work,2001,2003",
    ]
    bundle, _ = load(write_csv(tmp_path, rows))
    intervals = {e.relation_id: e.interval for e in bundle.edges()}
    assert len(intervals) == 3
    assert len({id(i) for i in intervals.values()}) == 2
    assert not hasattr(next(bundle.edges()), "__dict__")


def test_every_edge_holds_its_subnetworks_label_object(tmp_path):
    # each row's relation type field, and each label passed to add_edge below,
    # is a string object of its own
    rows = [
        ",A,Uni,institution,study,2001,2002",
        ",B,Lab,institution,work,2001,2002",
        ",A,Lab,institution,work,2001,2003",
        ",B,Uni,institution,study,2003,2004",
    ]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"relation_types": ["work"]}), encoding="utf-8")
    loaded, _ = load(write_csv(tmp_path, rows), manifest)
    built = NetworkBundle()
    person = built.add_vertex(VertexKind.CHARACTER, "person", "A")
    uni = built.add_vertex(VertexKind.ENTITY, "institution", "Uni")
    for start in (2001, 2003):
        for label in ("study", "work"):
            built.add_edge(person, uni, label[:1] + label[1:], (start, start))
    for bundle in (loaded, built.seal()):
        assert bundle.edge_count == 4
        for tan in bundle.subnetworks():
            assert all(edge.relation_type is tan.relation_type for edge in tan.edges())


def test_duplicate_rows_load_as_parallel_edges(tmp_path):
    rows = [",A,Uni,institution,study,2001,2002"] * 2
    bundle, _ = load(write_csv(tmp_path, rows))
    assert bundle.edge_count == 2
    assert len(bundle.character_ids()) == 1
    assert len(bundle.vertices(VertexKind.ENTITY)) == 1


def test_explicit_character_id_keys_identity(tmp_path):
    # same name, different ids: two people; same id, different rows: one person
    rows = [
        "p1,Wei Zhang,Uni A,institution,study,2001,2002",
        "p2,Wei Zhang,Uni B,institution,study,2001,2002",
        "p1,Wei Zhang,Uni C,institution,work,2003,2004",
    ]
    bundle, _ = load(write_csv(tmp_path, rows))
    assert sorted(bundle.character_ids()) == ["p1", "p2"]


@pytest.mark.parametrize("name_row_first", [True, False], ids=["name row first", "id row first"])
def test_an_explicit_id_and_an_equal_name_key_two_characters(tmp_path, name_row_first):
    rows = [",p1,MIT,institution,study,2001,2002", "p1,Bob,Acme,institution,work,2003,2004"]
    bundle, _ = load(write_csv(tmp_path, rows if name_row_first else rows[::-1]))
    characters = {bundle.vertex(cid).display_name: cid for cid in bundle.character_ids()}
    assert sorted(characters) == ["Bob", "p1"]
    assert characters["Bob"] == "p1"
    facts = {
        bundle.vertex(e.character).display_name: (bundle.vertex(e.entity).display_name, e.relation_type)
        for e in bundle.edges()
    }
    assert facts == {"p1": ("MIT", "study"), "Bob": ("Acme", "work")}
    assert bundle.edge_count == 2


@pytest.mark.parametrize("marked", [("records",), ("manifest",), ("records", "manifest")], ids="+".join)
def test_records_and_manifest_may_start_with_a_byte_order_mark(tmp_path, marked):
    # spreadsheet programs save "CSV UTF-8" with a leading byte-order mark
    rows = [",Wu,Uni,institution,study,2001,2002", "x1,Zhu,Lab,lab,work,2003,2004"]
    files = {"records": write_csv(tmp_path, rows), "manifest": tmp_path / "manifest.json"}
    files["manifest"].write_text(json.dumps({"relation_types": ["study", "work"]}), encoding="utf-8")
    plain_bundle, plain_report = load(files["records"], files["manifest"], strict=True)
    for name in marked:
        marked_path = tmp_path / f"marked-{files[name].name}"
        marked_path.write_bytes(b"\xef\xbb\xbf" + files[name].read_bytes())
        files[name] = marked_path

    bundle, report = load(files["records"], files["manifest"], strict=True)
    assert report.to_dict() == plain_report.to_dict()
    assert report.loaded_rows == 2
    assert list(bundle.edges()) == list(plain_bundle.edges())
    assert bundle.vertices() == plain_bundle.vertices()
    assert bundle.relation_types() == ["study", "work"]
    assert bundle.vertex("x1").display_name == "Zhu"
    argv = ["--records", str(files["records"]), "--manifest", str(files["manifest"]), "--out", str(tmp_path / "out")]
    assert main(["ingest", *argv, "--strict"]) == 0


def test_manifest_with_a_now_is_rejected_naming_the_flag(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"relation_types": ["study"], "now": 2010}), encoding="utf-8")
    with pytest.raises(IngestError, match="--now"):
        load(write_csv(tmp_path, [",A,Uni,institution,study,2001,2002"]), path)


def test_records_csv_round_trip_is_isomorphic(tmp_path, scholars_bundle):
    out = tmp_path / "again.csv"
    export(scholars_bundle, "records-csv", out)
    reloaded, report = load(out, SCHOLARS_MANIFEST)
    assert not report.rejected
    assert bundle_signature(reloaded) == bundle_signature(scholars_bundle)
    # and once more: the exported form is a fixed point
    out2 = tmp_path / "thrice.csv"
    export(reloaded, "records-csv", out2)
    assert out.read_text() == out2.read_text()


def test_records_csv_equals_a_csv_writer_reference(tmp_path):
    bundle = NetworkBundle()
    wu = bundle.add_vertex(VertexKind.CHARACTER, "person", 'Wu, "Faye"\nJr.', vertex_id="p,1")
    zhu = bundle.add_vertex(VertexKind.CHARACTER, "person", "Zhu")
    uni = bundle.add_vertex(VertexKind.ENTITY, 'inst"itution', "Jinan, Univ.\r\n")
    lab = bundle.add_vertex(VertexKind.ENTITY, "lab", "Lab")
    # parallel edges that differ only in interval, added out of interval order
    # and with ids whose order disagrees with it
    bundle.add_edge(wu, uni, "work", (2005, 2009), relation_id="r1")
    bundle.add_edge(wu, uni, "work", (2001, 2004), relation_id="r2")
    bundle.add_edge(wu, uni, "work", (2001, 2003), relation_id="r3")
    bundle.add_edge(wu, uni, "work", (2001, 2003), relation_id="r0")
    bundle.add_edge(wu, lab, 'st"udy,', (1990, 1995), relation_id="r4")
    bundle.add_edge(zhu, uni, "work", (2001, 2003), relation_id="r5")
    # quoted, "z,1" would sort before "work" and "p,1" before "c000001"; rows sort by the raw text
    bundle.add_edge(wu, lab, "z,1", (2001, 2002), relation_id="r6")
    bundle.add_edge(zhu, lab, "z,1", (2001, 2002), relation_id="r7")
    bundle.declare_relation_type("unused")
    bundle.add_vertex(VertexKind.CHARACTER, "person", "No edges")
    bundle.seal()
    path = tmp_path / "records.csv"
    export(bundle, "records-csv", path)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(records_csv_reference(bundle))
    assert path.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("seed", range(4))
def test_records_csv_of_random_bundles_equals_the_reference(tmp_path, seed):
    # short spans over few entities give parallel edges that differ only in interval or id
    spec = RandomBundleSpec(
        characters=40, entities_per_type=3, relation_types=3, edge_density=2.5, interval_span=(2000, 2003), seed=seed
    )
    bundle = generate(spec)
    path = tmp_path / "records.csv"
    export(bundle, "records-csv", path)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(records_csv_reference(bundle))
    assert path.read_bytes() == reference.read_bytes()


@pytest.fixture(scope="module")
def people_8000() -> NetworkBundle:
    """8,000 people with 47,941 edges."""
    return generate(RandomBundleSpec(characters=8000, entities_per_type=2000, relation_types=4, seed=3))


def traced_peak(call) -> tuple[int, object]:
    """The `tracemalloc` peak of `call()` above the memory traced before it, and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def test_records_export_holds_one_characters_rows_at_a_time(tmp_path, people_8000):
    # 0.9 MB on Python 3.11; sorting every edge at once peaked at 4.8 MB,
    # and keeping each person's `id,name` text at 1.9 MB
    peak, _ = traced_peak(lambda: export(people_8000, "records-csv", tmp_path / "records.csv"))
    assert peak < 1.5 * 2**20


def test_load_holds_little_beside_the_bundle_it_builds(tmp_path, people_8000):
    # 14.63 MB on Python 3.11, of which the bundle and report keep 13.71 MB; a second
    # memo of each row's raw character and entity text peaked at 16.04 MB
    path = tmp_path / "records.csv"
    export(people_8000, "records-csv", path)
    peak, (bundle, report) = traced_peak(lambda: load(path))
    assert (report.loaded_rows, bundle.edge_count) == (47941, 47941)
    assert peak < 15 * 2**20


def test_dot_export_draws_every_vertex_and_edge(tmp_path, club):
    path = tmp_path / "club.dot"
    export(club.bundle, "dot", path)
    lines = path.read_text().splitlines()
    assert sum("shape=" in line for line in lines) == 4
    assert sum(" -- " in line for line in lines) == 5


def awkward_names_bundle() -> NetworkBundle:
    bundle = NetworkBundle()
    faye = bundle.add_vertex(VertexKind.CHARACTER, "person", "Fäye \"Wu\"\t吴菲", vertex_id="c\\1")
    uni = bundle.add_vertex(VertexKind.ENTITY, "inst\u00e9tution", "Jinan\nUniv. \\ 暨南")
    bundle.add_edge(faye, uni, "stüdy", (1992, 1996))
    bundle.add_edge(faye, uni, "stüdy", (1997, 1999), relation_id="r\"2")
    return bundle.seal()


def random_edges_bundle(edges: int, seed: int) -> NetworkBundle:
    """A `testkit` bundle's vertices with `edges` of its edges, drawn in random order."""
    bundle = generate(RandomBundleSpec(characters=600, entities_per_type=50, relation_types=3, seed=seed))
    kept = random.Random(seed).sample(list(bundle.edges()), edges)
    return rebuild(bundle.vertices(), kept, bundle.relation_types())


# the writer joins `_CHUNK` records per write: no edge, one, exactly one chunk, and one more
CHUNK_EDGES = {f"{n} random edges": n for n in (0, 1, _CHUNK, _CHUNK + 1)}


@pytest.mark.parametrize("which", ["awkward names", "empty", "scholars", *CHUNK_EDGES])
def test_graph_json_bytes_equal_json_dumps(tmp_path, scholars_bundle, which):
    bundle = {
        "awkward names": awkward_names_bundle,
        "empty": lambda: NetworkBundle().seal(),
        "scholars": lambda: scholars_bundle,
        **{name: lambda n=n: random_edges_bundle(n, seed=n) for name, n in CHUNK_EDGES.items()},
    }[which]()
    if which in CHUNK_EDGES:
        assert bundle.edge_count == CHUNK_EDGES[which]
    path = tmp_path / "graph.json"
    export(bundle, "graph-json", path)
    assert path.read_bytes() == graph_json_reference(bundle).encode("utf-8")


def test_graph_json_of_empty_bundle(tmp_path):
    path = tmp_path / "empty.json"
    export(NetworkBundle().seal(), "graph-json", path)
    assert json.loads(path.read_text()) == {"vertices": [], "edges": []}


def test_graph_json_fields(tmp_path, club):
    path = tmp_path / "club.json"
    export(club.bundle, "graph-json", path)
    doc = json.loads(path.read_text())
    assert len(doc["vertices"]) == 4
    assert len(doc["edges"]) == 5
    kinds = {v["kind"] for v in doc["vertices"]}
    assert kinds == {"character", "entity"}
    edge = doc["edges"][0]
    assert set(edge) == {"id", "character", "entity", "relation_type", "start", "end"}


def test_unknown_export_format_rejected(tmp_path, club):
    with pytest.raises(IngestError, match="unknown export format"):
        export(club.bundle, "xml", tmp_path / "x")


def test_edges_round_trip_unchanged(tmp_path, scholars_bundle):
    # graph-json keeps ids, endpoints, relation type, and interval verbatim
    path = tmp_path / "g.json"
    export(scholars_bundle, "graph-json", path)
    doc = json.loads(path.read_text())
    by_id = {e["id"]: e for e in doc["edges"]}
    for edge in scholars_bundle.edges():
        row = by_id[edge.relation_id]
        assert row["character"] == edge.character
        assert row["entity"] == edge.entity
        assert row["relation_type"] == edge.relation_type
        assert (row["start"], row["end"]) == (edge.interval.start, edge.interval.end)


@pytest.mark.parametrize(
    "document, message",
    [
        ("[]", "a manifest must be a JSON object"),
        ('"wrote"', "a manifest must be a JSON object"),
        ('{"relation_types": "wrote"}', "`relation_types` must be a list of non-empty strings"),
        ('{"relation_types": ["wrote", 5]}', "`relation_types` must be a list of non-empty strings"),
        ('{"relation_types": ["wrote", ""]}', "`relation_types` must be a list of non-empty strings"),
        ('{"entity_types": {"paper": 1}}', "`entity_types` must be a list of non-empty strings"),
        ('{"entity_types": [null]}', "`entity_types` must be a list of non-empty strings"),
        ('{"relation_types": ["a", "b", "a"]}', "manifest declares duplicate relation types"),
        ('{"entity_types": ["a", "a"]}', "manifest declares duplicate entity types"),
    ],
    ids=[
        "list", "string", "string of types", "integer type", "empty type", "object of types", "null type",
        "duplicate relation type", "duplicate entity type",
    ],
)
def test_malformed_manifest_is_an_ingest_error(tmp_path, document, message):
    path = tmp_path / "manifest.json"
    path.write_text(document, encoding="utf-8")
    with pytest.raises(IngestError) as raised:
        load(write_csv(tmp_path, [",A,Uni,institution,study,2001,2002"]), path)
    assert str(raised.value) == f"{path}: {message}"


def test_a_manifest_built_in_code_rejects_duplicate_types():
    with pytest.raises(IngestError) as raised:
        DatasetManifest(["a", "a"])
    assert str(raised.value) == "manifest declares duplicate relation types"
    with pytest.raises(IngestError) as raised:
        DatasetManifest(entity_types=["a", "a"])
    assert str(raised.value) == "manifest declares duplicate entity types"


# one bad row each; under strict the manifest declares study/work/research/coauthor
ROW_REJECTIONS = [
    (",,Uni,institution,study,2001,2002", "empty character_name"),
    (",A,,institution,study,2001,2002", "empty entity_name"),
    (",A,Uni, ,study,2001,2002", "empty entity_type"),
    (",A,Uni,institution,,2001,2002", "empty relation_type"),
    (",A,Uni,institution,study,20O1,2002", "start/end are not integers"),
    (",A,Uni,institution,study,2001,", "start/end are not integers"),
    # int() takes both, but neither is the file's text as written
    (",A,Uni,institution,study,1_999,2002", "start/end are not integers"),
    (",A,Uni,institution,study,2000,\uff12\uff10\uff10\uff10", "start/end are not integers"),
    (",A,Uni,institution,study,-1,2002", "negative time point"),
    (",A,Uni,institution,study,2005,2001", "inverted interval"),
    # two failed checks: the earlier one names the row
    (",,,institution,study,2001,2002", "empty character_name"),
    (",A,Uni,institution,,x,y", "empty relation_type"),
    (",A,Uni,institution,study,x,-1", "start/end are not integers"),
    (",A,Uni,institution,study,-1,-5", "negative time point"),
    (",A,Uni,institution,sabbatical,2005,2001", "inverted interval"),
]


@pytest.mark.parametrize("row, reason", ROW_REJECTIONS, ids=[row for row, _ in ROW_REJECTIONS])
def test_each_row_rejection_reason(tmp_path, row, reason):
    path = write_csv(tmp_path, [row])
    bundle, report = load(path, SCHOLARS_MANIFEST)
    assert [(r.line, r.reason, r.raw) for r in report.rejected] == [(2, reason, row)]
    assert (report.total_rows, report.loaded_rows, bundle.edge_count) == (1, 0, 0)
    with pytest.raises(IngestError) as raised:
        load(path, SCHOLARS_MANIFEST, strict=True)
    assert str(raised.value) == f"line 2: {reason}"


def test_row_rejections_in_one_file(tmp_path):
    rows = [
        ",A,Uni,institution,study,2005,2001",
        ",A,Uni,institution,study, 2000 ,2001",
        ",B,Uni,institution,study,2005,2001",
        ",B,Lab,institution,work,+5,6",
        ",C,Uni,institution,study,20O1,2002",
        ",C,Uni,institution,sabbatical,2001,2002",
        ",D,Uni,institution,study,20O1,2002",
    ]
    path = write_csv(tmp_path, rows)
    bundle, report = load(path, SCHOLARS_MANIFEST)
    # the same bad (start, end) text is rejected every time it appears
    assert [(r.line, r.reason, r.raw) for r in report.rejected] == [
        (2, "inverted interval", rows[0]),
        (4, "inverted interval", rows[2]),
        (6, "start/end are not integers", rows[4]),
        (8, "start/end are not integers", rows[6]),
    ]
    assert (report.total_rows, report.loaded_rows) == (7, 3)
    assert report.discovered_relation_types == ["sabbatical"]
    # a bound may have surrounding blanks and a sign
    assert sorted((e.interval.start, e.interval.end) for e in bundle.edges()) == [(5, 6), (2000, 2001), (2001, 2002)]
    with pytest.raises(IngestError) as raised:
        load(write_csv(tmp_path, [rows[1], rows[3], rows[5]]), SCHOLARS_MANIFEST, strict=True)
    assert str(raised.value) == "line 4: undeclared relation type 'sabbatical'"


# -- the trusted build path of `load_records` against `add_edge` -----------


def reference_load_records(records, manifest=None) -> NetworkBundle:
    """A bundle built through the checked public API, one `add_vertex`/`add_edge` per record."""
    bundle = NetworkBundle()
    for relation_type in (manifest or DatasetManifest()).relation_types:
        bundle.declare_relation_type(relation_type)
    by_id, by_name, entities = {}, {}, {}
    for rec in records:
        characters, key = (by_id, rec.character_id) if rec.character_id else (by_name, rec.character_name)
        if key not in characters:
            characters[key] = bundle.add_vertex(
                VertexKind.CHARACTER, "person", rec.character_name, vertex_id=rec.character_id
            )
        if (rec.entity_name, rec.entity_type) not in entities:
            entities[rec.entity_name, rec.entity_type] = bundle.add_vertex(
                VertexKind.ENTITY, rec.entity_type, rec.entity_name
            )
        bundle.add_edge(
            characters[key], entities[rec.entity_name, rec.entity_type], rec.relation_type,
            TimeInterval(rec.start, rec.end),
        )
    return bundle.seal()


def assert_same_bundle(actual: NetworkBundle, expected: NetworkBundle) -> None:
    assert actual.sealed and expected.sealed
    assert actual.vertices() == expected.vertices()
    assert actual.relation_types() == expected.relation_types()
    for relation_type in expected.relation_types():
        tan, reference = actual.subnetwork(relation_type), expected.subnetwork(relation_type)
        assert list(tan.edges()) == list(reference.edges())
        for character in expected.character_ids():
            assert tan.edges_of_character(character) == reference.edges_of_character(character)


def generated_records(seed: int) -> list[TransactionRecord]:
    """The edges of a `testkit` bundle as records; every third character keeps its id."""
    bundle = generate(RandomBundleSpec(characters=60, entities_per_type=8, relation_types=3, seed=seed))
    records = []
    for edge in bundle.edges():
        character, entity = bundle.vertex(edge.character), bundle.vertex(edge.entity)
        explicit = f"id-{character.id}" if int(character.id[1:]) % 3 == 0 else None
        records.append(
            TransactionRecord(
                character.display_name, entity.display_name, entity.type_label, edge.relation_type,
                edge.interval.start, edge.interval.end, explicit,
            )
        )
    random.Random(seed).shuffle(records)
    return records


HAND_MADE_RECORDS = {
    "parallel edges": [
        TransactionRecord("A", "Uni", "institution", "study", 2001, 2002),
        TransactionRecord("A", "Uni", "institution", "study", 2001, 2002),
        TransactionRecord("A", "Uni", "institution", "work", 2001, 2002),
        TransactionRecord("B", "Uni", "institution", "study", 2001, 2002),
        TransactionRecord("A", "Uni", "institution", "study", 2003, 2004),
    ],
    "undeclared relation types": [
        TransactionRecord("A", "Uni", "institution", "sabbatical", 2001, 2002),
        TransactionRecord("B", "Lab", "lab", "work", 2001, 2002),
        TransactionRecord("A", "Lab", "lab", "visit", 2003, 2003),
    ],
    "explicit c000001 before a blank id": [
        TransactionRecord("A", "Uni", "institution", "study", 2001, 2002, "c000001"),
        TransactionRecord("B", "Uni", "institution", "study", 2003, 2004),
        TransactionRecord("c000001", "Lab", "lab", "work", 2003, 2004),
    ],
    "lone e000001": [TransactionRecord("A", "Uni", "institution", "study", 2001, 2002, "e000001")],
    "no records": [],
}


@pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
@pytest.mark.parametrize("manifest", [None, DatasetManifest(["work", "study", "coauthor"], ["lab"])], ids=["no manifest", "manifest"])
@pytest.mark.parametrize("case", ["testkit seed 1", "testkit seed 2", *HAND_MADE_RECORDS])
def test_load_records_equals_a_bundle_built_by_add_edge(case, manifest, as_generator):
    records = generated_records(int(case[-1])) if case.startswith("testkit") else HAND_MADE_RECORDS[case]
    expected = reference_load_records(records, manifest)
    actual = load_records((rec for rec in records) if as_generator else records, manifest)
    assert_same_bundle(actual, expected)


MISUSED_RECORDS = {
    "empty relation type": TransactionRecord("A", "Uni", "institution", "", 2001, 2002),
    "empty entity type": TransactionRecord("A", "Uni", "", "", 2001, 2002),
    "inverted span": TransactionRecord("A", "Uni", "institution", "", 2005, 2001),
    "negative span": TransactionRecord("A", "Uni", "institution", "study", -1, 2001),
    "non-integer span": TransactionRecord("A", "Uni", "institution", "study", "2001", 2002),
    "explicit id of an entity": TransactionRecord("B", "Uni", "institution", "study", 2001, 2002, "e000001"),
}


@pytest.mark.parametrize("case", MISUSED_RECORDS)
def test_load_records_misuse_fails_as_add_edge_does(case):
    records = [TransactionRecord("P", "Uni", "institution", "study", 2001, 2002, "p1"), MISUSED_RECORDS[case]]
    with pytest.raises(Exception) as reference:
        reference_load_records(records)
    with pytest.raises(Exception) as raised:
        load_records(records)
    assert (type(raised.value), str(raised.value)) == (type(reference.value), str(reference.value))
