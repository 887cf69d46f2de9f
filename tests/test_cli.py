"""End-to-end runs of the command-line pipeline."""

from __future__ import annotations

import csv
import json
import logging

import pytest

from tapmerge import NetworkBundle, load
from tapmerge.cli import main

from conftest import DATA_DIR, SCHOLARS_CSV, SCHOLARS_MANIFEST

GOLDEN_DEDUPE = DATA_DIR / "golden_dedupe"


def run(*argv: str) -> int:
    return main(list(argv))


def base_args(out) -> list[str]:
    return ["--records", str(SCHOLARS_CSV), "--manifest", str(SCHOLARS_MANIFEST), "--out", str(out)]


def test_ingest_writes_report_and_graph(tmp_path):
    assert run("ingest", *base_args(tmp_path)) == 0
    report = json.loads((tmp_path / "load_report.json").read_text())
    assert report["total_rows"] == 34
    assert report["rejected"] == []
    graph = json.loads((tmp_path / "graph.json").read_text())
    assert len(graph["edges"]) == 34


def test_screen_writes_candidates(tmp_path):
    assert run("screen", *base_args(tmp_path)) == 0
    with open(tmp_path / "candidates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {(r["x_name"], r["y_name"]) for r in rows} == {
        ("Faye Wu", "Fei Wu"),
        ("ShaoJia Zhu", "ShaoNan Zhu"),
    }


def test_screen_and_dedupe_log_their_signature_buckets(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="tapmerge")
    assert run("screen", *base_args(tmp_path)) == 0
    assert "in 6 signature buckets (largest 2): 2 candidate pairs" in caplog.text
    caplog.clear()
    assert run("dedupe", *base_args(tmp_path), "--theta", "0.80", "--now", "2014") == 0
    assert "dedupe: 6 signature buckets (largest 2), 2 candidates" in caplog.text


def test_screen_on_empty_dataset_succeeds(tmp_path):
    records = tmp_path / "empty.csv"
    records.write_text("character_id,character_name,entity_name,entity_type,relation_type,start,end\n")
    out = tmp_path / "out"
    assert run("screen", "--records", str(records), "--out", str(out)) == 0
    assert (out / "candidates.csv").read_text().splitlines() == [
        "x_id,x_name,y_id,y_name,structure_error"
    ]


def test_simtap_single_pair_by_name(tmp_path):
    assert run("simtap", *base_args(tmp_path), "--pair", "Faye Wu,Fei Wu", "--now", "2014") == 0
    with open(tmp_path / "similarity.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["work"] == "1.0000"
    assert rows[0]["research"] == "1.0000"
    assert float(rows[0]["simtap"]) == 0.9654


def test_simtap_pair_names_match_characters_only(tmp_path):
    # a publication titled like a person must not make that person's name ambiguous
    records = tmp_path / "records.csv"
    records.write_text(
        SCHOLARS_CSV.read_text(encoding="utf-8") + ",Some Author,Faye Wu,publication,coauthor,2012,2012\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = ["--records", str(records), "--manifest", str(SCHOLARS_MANIFEST), "--out", str(out)]
    assert run("simtap", *argv, "--pair", "Faye Wu,Fei Wu", "--now", "2014") == 0
    with open(out / "similarity.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["x_name"], r["y_name"], r["simtap"]) for r in rows] == [("Faye Wu", "Fei Wu", "0.9654")]


def test_simtap_unknown_vertex_exits_one(tmp_path, caplog):
    code = run("simtap", *base_args(tmp_path), "--pair", "Faye Wu,nobody-here")
    assert code == 1
    assert "nobody-here" in caplog.text


def test_dedupe_requires_theta(tmp_path):
    assert run("dedupe", *base_args(tmp_path)) == 1


def test_dedupe_full_pipeline(tmp_path):
    assert run("dedupe", *base_args(tmp_path), "--theta", "0.80", "--now", "2014") == 0
    for name in (
        "candidates.csv",
        "similarity.csv",
        "groups.json",
        "merged_records.csv",
        "merged_graph.json",
        "merge_audit.json",
        "run_manifest.json",
        "load_report.json",
    ):
        assert (tmp_path / name).exists(), name

    groups = json.loads((tmp_path / "groups.json").read_text())
    assert groups["theta"] == 0.8
    assert groups["now"] == 2014
    assert len(groups["groups"]) == 1

    merged, _ = load(tmp_path / "merged_records.csv", SCHOLARS_MANIFEST)
    names = sorted({merged.vertex(c).display_name for c in merged.character_ids()})
    assert len(merged.character_ids()) == 7
    assert "Faye Wu" in names
    assert "Fei Wu" not in names

    audit = json.loads((tmp_path / "merge_audit.json").read_text())
    assert audit["removed_vertices"] == 1
    assert audit["dropped_edges"] == 6
    assert audit["transferred_edges"] == 1

    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["theta"] == 0.8
    assert manifest["now"] == 2014
    assert "sha256" in manifest["inputs"]["records"]
    assert "workers" not in manifest


def test_dedupe_outputs_equal_the_golden_files(tmp_path):
    # run_manifest.json holds absolute input paths, so it has no golden copy
    assert run("dedupe", *base_args(tmp_path), "--theta", "0.8", "--now", "2014") == 0
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "run_manifest.json")
    assert written == sorted(p.name for p in GOLDEN_DEDUPE.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN_DEDUPE / name).read_bytes(), name


def test_dedupe_never_hashes_the_bundle(tmp_path, monkeypatch):
    def no_digest(bundle):
        raise AssertionError("dedupe computed a bundle content digest")

    monkeypatch.setattr(NetworkBundle, "content_digest", no_digest)
    assert run("dedupe", *base_args(tmp_path), "--theta", "0.8", "--now", "2014") == 0
    for golden in GOLDEN_DEDUPE.iterdir():
        assert (tmp_path / golden.name).read_bytes() == golden.read_bytes(), golden.name


def test_dedupe_groups_both_pairs_at_lower_theta(tmp_path):
    assert run("dedupe", *base_args(tmp_path), "--theta", "0.70") == 0
    groups = json.loads((tmp_path / "groups.json").read_text())
    assert len(groups["groups"]) == 2
    merged, _ = load(tmp_path / "merged_records.csv", SCHOLARS_MANIFEST)
    assert len(merged.character_ids()) == 6


def test_export_dot(tmp_path):
    assert run("export", *base_args(tmp_path), "--format", "dot") == 0
    text = (tmp_path / "graph.dot").read_text()
    assert text.startswith("graph activity {")
    assert text.count(" -- ") == 34


def test_missing_records_file_exits_two(tmp_path):
    assert run("screen", "--records", str(tmp_path / "nope.csv"), "--out", str(tmp_path)) == 2


def test_strict_mode_failure_exits_one(tmp_path):
    records = tmp_path / "bad.csv"
    records.write_text(
        "character_id,character_name,entity_name,entity_type,relation_type,start,end\n"
        ",A,Uni,institution,study,2005,2001\n"
    )
    assert run("ingest", "--records", str(records), "--out", str(tmp_path / "o"), "--strict") == 1


def test_future_now_anchor_exits_one(tmp_path):
    assert run("simtap", *base_args(tmp_path), "--pair", "Faye Wu,Fei Wu", "--now", "1980") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dedupe", "--theta", "0"], "--theta must be in (0, 1], got 0.0"),
        (["dedupe", "--theta", "1.5"], "--theta must be in (0, 1], got 1.5"),
        (["screen", "--workers", "0"], "--workers must be at least 1, got 0"),
        # --theta is checked before --workers
        (["dedupe", "--theta", "5", "--workers", "0"], "--theta must be in (0, 1], got 5.0"),
    ],
    ids=["theta zero", "theta above one", "workers zero", "theta before workers"],
)
def test_flag_validation_exits_one_before_out_is_created(tmp_path, caplog, argv, message):
    out = tmp_path / "out"
    assert run(*argv, *base_args(out)) == 1
    assert caplog.messages == [message]
    assert not out.exists()


def test_simtap_pair_with_three_tokens_exits_one(tmp_path, caplog):
    assert run("simtap", *base_args(tmp_path), "--pair", "a,b,c") == 1
    assert caplog.messages[-1] == "--pair wants exactly two comma-separated ids or names"


def test_manifest_that_is_not_json_exits_one(tmp_path, caplog):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"relation_types": [', encoding="utf-8")
    out = tmp_path / "out"
    assert run("screen", "--records", str(SCHOLARS_CSV), "--manifest", str(manifest), "--out", str(out)) == 1
    assert caplog.messages[-1].startswith("Expecting value")


def test_missing_manifest_file_exits_two(tmp_path, caplog):
    manifest = tmp_path / "nope.json"
    out = tmp_path / "out"
    assert run("screen", "--records", str(SCHOLARS_CSV), "--manifest", str(manifest), "--out", str(out)) == 2
    assert caplog.messages[-1] == f"[Errno 2] No such file or directory: {str(manifest.resolve())!r}"


def test_records_file_with_a_wrong_header_exits_one(tmp_path, caplog):
    records = tmp_path / "records.csv"
    records.write_text("character_id,name\n", encoding="utf-8")
    assert run("screen", "--records", str(records), "--out", str(tmp_path / "out")) == 1
    assert caplog.messages[-1] == (
        "unexpected header ['character_id', 'name']; expected "
        "character_id,character_name,entity_name,entity_type,relation_type,start,end"
    )


@pytest.mark.parametrize(
    "rows, characters",
    [
        (["c000001,A,Uni,institution,study,2001,2002", ",B,Uni,institution,study,2003,2004"], ["c000001", "c000002"]),
        (["e000001,A,Uni,institution,study,2001,2002"], ["e000001"]),
    ],
    ids=["explicit id before a generated character id", "explicit id equal to a generated entity id"],
)
def test_ingest_skips_generated_ids_an_explicit_id_took(tmp_path, rows, characters):
    records = tmp_path / "records.csv"
    records.write_text(
        "character_id,character_name,entity_name,entity_type,relation_type,start,end\n" + "\n".join(rows) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert run("ingest", "--records", str(records), "--out", str(out)) == 0
    graph = json.loads((out / "graph.json").read_text(encoding="utf-8"))
    kinds = {v["id"]: v["kind"] for v in graph["vertices"]}
    assert sorted(v for v, kind in kinds.items() if kind == "character") == characters
    assert len(kinds) == len(characters) + 1
    assert len(graph["edges"]) == len(rows)
