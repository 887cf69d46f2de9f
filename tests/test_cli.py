"""End-to-end runs of the command-line pipeline."""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tapmerge import export, load
from tapmerge import cli, merge, screening
from tapmerge.cli import main
from tapmerge.graph import VertexKind
from tapmerge.merge import VerificationReport
from tapmerge.testkit import PlantMode, RandomBundleSpec, generate, plant_duplicates

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
    # each two-person bucket of two classes scores its upper triangle: the first class against both
    assert "dedupe: 6 signature buckets (largest 2), 2 candidates, 4 class pairs scored, 1 groups" in caplog.text
    caplog.clear()
    assert run("simtap", *base_args(tmp_path), "--now", "2014") == 0
    assert "similarity for 2 pairs at now=2014, 4 class pairs scored" in caplog.text


def test_one_dedupe_lists_the_runs_once(tmp_path, monkeypatch):
    listed = []

    def count(buckets, labels):
        listed.append(len(buckets))
        return id_ordered_runs(buckets, labels)

    def convert(pairs):
        raise AssertionError("dedupe hands its candidate set on, not a pair list")

    id_ordered_runs = screening._id_ordered_runs
    monkeypatch.setattr(screening, "_id_ordered_runs", count)
    monkeypatch.setattr(screening.CandidateSet, "of_pairs", convert)
    assert run("dedupe", *base_args(tmp_path), "--theta", "0.80", "--now", "2014") == 0
    # the writers and the grouping (one group reaches theta) all walk that one list
    assert listed == [2]
    assert json.loads((tmp_path / "groups.json").read_text())["groups"] != []


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


def test_simtap_pair_by_vertex_ids_equals_the_pair_by_names(tmp_path, scholar_ids):
    by_name, by_id = tmp_path / "by-name", tmp_path / "by-id"
    assert run("simtap", *base_args(by_name), "--pair", "Faye Wu,Fei Wu", "--now", "2014") == 0
    ids = f"{scholar_ids['Faye Wu']},{scholar_ids['Fei Wu']}"
    assert run("simtap", *base_args(by_id), "--pair", ids, "--now", "2014") == 0
    assert (by_id / "similarity.csv").read_bytes() == (by_name / "similarity.csv").read_bytes()


def test_simtap_pair_naming_an_entity_exits_one(tmp_path, caplog, scholars_bundle):
    entity = min(v.id for v in scholars_bundle.vertices(VertexKind.ENTITY))
    assert run("simtap", *base_args(tmp_path), "--pair", f"Faye Wu,{entity}", "--now", "2014") == 1
    assert caplog.messages[-1] == f"{entity!r} is not a character vertex"
    assert not (tmp_path / "similarity.csv").exists()


def test_simtap_pair_with_an_ambiguous_name_exits_one(tmp_path, caplog, scholar_ids):
    # an explicit id makes a second person of the same name
    records = tmp_path / "records.csv"
    records.write_text(
        SCHOLARS_CSV.read_text(encoding="utf-8") + "x1,Faye Wu,Other Univ.,institution,work,2001,2002\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = ["--records", str(records), "--manifest", str(SCHOLARS_MANIFEST), "--out", str(out)]
    assert run("simtap", *argv, "--pair", "Faye Wu,Fei Wu", "--now", "2014") == 1
    assert caplog.messages[-1] == f"name 'Faye Wu' is ambiguous; candidates: {scholar_ids['Faye Wu']}, x1"
    assert not (out / "similarity.csv").exists()


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
    # the run manifest hashes the two input files; nothing else is hashed
    hashed = []

    def recording_sha256(path):
        hashed.append(Path(path))
        return real_sha256(path)

    real_sha256 = cli._sha256
    monkeypatch.setattr(cli, "_sha256", recording_sha256)
    assert run("dedupe", *base_args(tmp_path), "--theta", "0.8", "--now", "2014") == 0
    assert hashed == [SCHOLARS_CSV, SCHOLARS_MANIFEST]
    inputs = json.loads((tmp_path / "run_manifest.json").read_text())["inputs"]
    assert inputs["records"]["sha256"] == hashlib.sha256(SCHOLARS_CSV.read_bytes()).hexdigest()
    assert inputs["manifest"]["sha256"] == hashlib.sha256(SCHOLARS_MANIFEST.read_bytes()).hexdigest()
    for golden in GOLDEN_DEDUPE.iterdir():
        assert (tmp_path / golden.name).read_bytes() == golden.read_bytes(), golden.name


def test_a_dedupe_whose_verification_fails_logs_each_violation_and_writes_no_merge(tmp_path, caplog, monkeypatch):
    report = VerificationReport()
    report.add("vertex count mismatch", "expected 7 vertices, found 8")
    report.add("absorbed vertex present", "c000002 survived the merge")
    monkeypatch.setattr(merge, "verify_merge", lambda before, after, plan: report)
    caplog.set_level(logging.INFO, logger="tapmerge")
    assert run("dedupe", *base_args(tmp_path), "--theta", "0.8", "--now", "2014") == 1
    assert [(r.levelname, r.getMessage()) for r in caplog.records if r.levelno >= logging.WARNING] == [
        ("ERROR", "merge verification: vertex count mismatch (expected 7 vertices, found 8)"),
        ("ERROR", "merge verification: absorbed vertex present (c000002 survived the merge)"),
        ("ERROR", "merge verification failed"),
    ]
    assert (tmp_path / "groups.json").exists()
    assert not list(tmp_path.glob("merged_*"))


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
    out = tmp_path / "out"
    assert run("screen", "--records", str(tmp_path / "nope.csv"), "--out", str(out)) == 2
    assert not out.exists()


def test_strict_mode_failure_exits_one(tmp_path):
    records = tmp_path / "bad.csv"
    records.write_text(
        "character_id,character_name,entity_name,entity_type,relation_type,start,end\n"
        ",A,Uni,institution,study,2005,2001\n"
    )
    assert run("ingest", "--records", str(records), "--out", str(tmp_path / "o"), "--strict") == 1


def test_a_field_past_the_csv_size_limit_exits_one_naming_its_line(tmp_path, caplog):
    # the reader raises csv.Error on it, which must end the run with an ERROR line, not a traceback
    name = "A" * (csv.field_size_limit() + 1)
    records = tmp_path / "records.csv"
    records.write_text(
        "character_id,character_name,entity_name,entity_type,relation_type,start,end\n"
        ",B,Uni,institution,study,2001,2002\n"
        f",{name},Uni,institution,study,2001,2002\n"
    )
    out = tmp_path / "out"
    for strict in ([], ["--strict"]):
        caplog.clear()
        assert run("ingest", "--records", str(records), "--out", str(out), *strict) == 1
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("ERROR", f"line 3: field larger than field limit ({csv.field_size_limit()})")
        ]
        assert not out.exists()


@pytest.mark.parametrize("good_rows", [1, 1000], ids=["in the first chunk", "past the first chunk"])
def test_records_that_are_not_utf8_exit_one_naming_the_file_and_the_last_line_read_whole(tmp_path, caplog, good_rows):
    # the file is decoded a chunk at a time, so the error cannot name the line
    # of the bad byte; it names the last line read whole before that chunk
    records = tmp_path / "records.csv"
    header = b"character_id,character_name,entity_name,entity_type,relation_type,start,end\n"
    rows = b"".join(b",P%04d,Uni,institution,study,2001,2002\n" % i for i in range(good_rows))
    records.write_bytes(header + rows + b",Bad \xff,Uni,institution,study,2001,2002\n")
    out = tmp_path / "out"
    for strict in ([], ["--strict"]):
        caplog.clear()
        assert run("ingest", "--records", str(records), "--out", str(out), *strict) == 1
        ((level, message),) = [(r.levelname, r.getMessage()) for r in caplog.records]
        found = re.fullmatch(rf"{re.escape(str(records))}: text after line (\d+) is not UTF-8: invalid start byte", message)
        assert level == "ERROR" and found, message
        # the bad row is line 2 + good_rows
        assert int(found[1]) < 2 + good_rows
        assert (int(found[1]) > 0) is (good_rows == 1000)
        assert not out.exists()


def test_a_year_with_more_digits_than_int_reads_is_a_bad_span(tmp_path, caplog):
    # `_INTEGER` matches it, but `int()` reads at most `sys.get_int_max_str_digits()` digits
    year = "1" * 5000
    records = tmp_path / "records.csv"
    records.write_text(
        "character_id,character_name,entity_name,entity_type,relation_type,start,end\n"
        f",A,Uni,institution,study,2001,{year}\n"
        ",B,Uni,institution,study,2001,2002\n"
    )
    out = tmp_path / "out"
    assert run("ingest", "--records", str(records), "--out", str(out)) == 0
    report = json.loads((out / "load_report.json").read_text(encoding="utf-8"))
    assert (report["loaded_rows"], report["total_rows"]) == (1, 2)
    assert [(r["line"], r["reason"]) for r in report["rejected"]] == [(2, "start/end have too many digits")]
    caplog.clear()
    assert run("ingest", "--records", str(records), "--out", str(tmp_path / "strict"), "--strict") == 1
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("ERROR", "line 2: start/end have too many digits")
    ]
    assert not (tmp_path / "strict").exists()


def test_future_now_anchor_exits_one(tmp_path):
    assert run("simtap", *base_args(tmp_path), "--pair", "Faye Wu,Fei Wu", "--now", "1980") == 1


@pytest.mark.parametrize("command", ["dedupe", "simtap"])
@pytest.mark.parametrize(
    "spans, message",
    [
        ([(2000, 2001), (2000, 2001), (2020, 2021)], "edge r000003 starts at 2020, after now=2014"),
        ([(2020, 2021), (2000, 2001), (2000, 2001)], "edge r000001 starts at 2020, after now=2014"),
    ],
    ids=["future edge outside every candidate pair", "future edge of a candidate"],
)
def test_an_edge_after_now_fails_before_any_data_file_is_written(tmp_path, caplog, command, spans, message):
    # Ann and Anne share P1 and are the only candidates; Bob is alone on P2
    people = [("Ann", "P1"), ("Anne", "P1"), ("Bob", "P2")]
    records = tmp_path / "records.csv"
    records.write_text(
        "character_id,character_name,entity_name,entity_type,relation_type,start,end\n"
        + "".join(f",{name},{paper},paper,wrote,{start},{end}\n" for (name, paper), (start, end) in zip(people, spans)),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = [command, "--records", str(records), "--out", str(out), "--now", "2014"]
    assert run(*argv, *(["--theta", "0.8"] if command == "dedupe" else [])) == 1
    assert caplog.messages[-1] == message
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dedupe", "--theta", "0"], "--theta must be in (0, 1], got 0.0"),
        (["dedupe", "--theta", "1.5"], "--theta must be in (0, 1], got 1.5"),
        (["dedupe", "--theta", "0.8", "--workers", "0"], "--workers must be at least 1, got 0"),
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


@pytest.mark.parametrize(
    "command, flag, value",
    [
        *((command, "--now", "2014") for command in ("ingest", "screen", "export")),
        *((command, "--name-filter", "off") for command in ("ingest", "export")),
        *((command, "--workers", "1") for command in ("ingest", "screen", "simtap", "export")),
    ],
)
def test_a_subcommand_rejects_a_flag_it_does_not_read(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    extra = ["--format", "dot"] if command == "export" else []
    with pytest.raises(SystemExit) as exited:
        run(command, *base_args(out), *extra, flag, value)
    assert exited.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_each_subcommand_lists_only_the_flags_it_reads():
    subcommands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    inputs = ["--records", "--manifest", "--out", "--strict"]
    assert {
        name: [option for action in parser._actions if action.dest != "help" for option in action.option_strings]
        for name, parser in subcommands.items()
    } == {
        "ingest": inputs,
        "screen": [*inputs, "--name-filter"],
        "simtap": [*inputs, "--now", "--name-filter", "--pair"],
        "dedupe": [*inputs, "--now", "--name-filter", "--theta", "--workers"],
        "export": [*inputs, "--format"],
    }


def test_simtap_pair_with_three_tokens_exits_one(tmp_path, caplog):
    assert run("simtap", *base_args(tmp_path), "--pair", "a,b,c") == 1
    assert caplog.messages[-1] == "--pair wants exactly two comma-separated ids or names"


def test_manifest_that_is_not_json_exits_one(tmp_path, caplog):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"relation_types": [', encoding="utf-8")
    out = tmp_path / "out"
    assert run("screen", "--records", str(SCHOLARS_CSV), "--manifest", str(manifest), "--out", str(out)) == 1
    assert caplog.messages[-1].startswith(f"{manifest.resolve()}: Expecting value")
    assert not out.exists()


def test_missing_manifest_file_exits_two(tmp_path, caplog):
    manifest = tmp_path / "nope.json"
    out = tmp_path / "out"
    assert run("screen", "--records", str(SCHOLARS_CSV), "--manifest", str(manifest), "--out", str(out)) == 2
    assert caplog.messages[-1] == f"[Errno 2] No such file or directory: {str(manifest.resolve())!r}"
    assert not out.exists()


def test_records_file_with_a_wrong_header_exits_one(tmp_path, caplog):
    records = tmp_path / "records.csv"
    records.write_text("character_id,name\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("screen", "--records", str(records), "--out", str(out)) == 1
    assert caplog.messages[-1] == (
        "unexpected header ['character_id', 'name']; expected "
        "character_id,character_name,entity_name,entity_type,relation_type,start,end"
    )
    assert not out.exists()


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


@pytest.mark.parametrize(
    "document, message",
    [
        ("[]", "a manifest must be a JSON object"),
        ('{"relation_types": "wrote"}', "`relation_types` must be a list of non-empty strings"),
        ('{"relation_types": ["wrote", 5]}', "`relation_types` must be a list of non-empty strings"),
        ('{"relation_types": ["a", "a"]}', "manifest declares duplicate relation types"),
        ('{"relation_types": ["\xff"]}', "'utf-8' codec can't decode byte 0xff in position 21: invalid start byte"),
    ],
    ids=["list", "string of types", "integer type", "duplicate type", "not UTF-8"],
)
def test_malformed_manifest_exits_one_with_one_error_line(tmp_path, caplog, document, message):
    manifest = tmp_path / "manifest.json"
    # one byte per character, so `\xff` is a byte that UTF-8 does not allow
    manifest.write_text(document, encoding="latin-1")
    out = tmp_path / "out"
    assert run("ingest", "--records", str(SCHOLARS_CSV), "--manifest", str(manifest), "--out", str(out)) == 1
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [("ERROR", f"{manifest.resolve()}: {message}")]
    assert not out.exists()


@pytest.mark.parametrize("collecting", [True, False], ids=["caller collects", "caller disabled the collector"])
def test_every_exit_code_restores_the_callers_collector_setting(tmp_path, monkeypatch, collecting):
    seen = []
    screen = cli.screen_candidates
    monkeypatch.setattr(cli, "screen_candidates", lambda *args: seen.append(gc.isenabled()) or screen(*args))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert run("dedupe", *base_args(tmp_path / "ok"), "--theta", "0.8", "--now", "2014") == 0
        assert gc.isenabled() is collecting
        assert run("dedupe", *base_args(tmp_path / "bad"), "--theta", "1.5") == 1
        assert gc.isenabled() is collecting
        assert run("screen", "--records", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")) == 2
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


def test_repeated_runs_freeze_the_heap_once_at_exit(tmp_path):
    # a child process, so its exit can be watched: `gc.freeze` is replaced
    # before the CLI is imported, and reports each call
    script = f"""
import gc, sys
gc.freeze = lambda: print("frozen", gc.isenabled())
from tapmerge.cli import main
for i in range(3):
    assert main(["ingest", "--records", {str(SCHOLARS_CSV)!r}, "--out", {str(tmp_path)!r} + f"/{{i}}"]) == 0
print("returned", gc.isenabled())
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["returned True", "frozen True"]


def test_main_leaves_the_root_logger_alone(tmp_path):
    # a child process, whose root logger starts with no handler: a run logs
    # its INFO line to stderr, and afterwards the host's own INFO records
    # still go nowhere
    script = f"""
import logging
from tapmerge.cli import main
root, tapmerge_log = logging.getLogger(), logging.getLogger("tapmerge")
before = (list(root.handlers), root.level, list(tapmerge_log.handlers), tapmerge_log.level)
assert main(["ingest", "--records", {str(SCHOLARS_CSV)!r}, "--out", {str(tmp_path)!r}]) == 0
assert (list(root.handlers), root.level, list(tapmerge_log.handlers), tapmerge_log.level) == before, before
logging.getLogger("host").info("host record")
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == "INFO loaded 34 rows (0 rejected): 28 vertices, 34 edges\n"
    # in this process the root logger carries pytest's handlers
    root = logging.getLogger()
    before = (list(root.handlers), root.level)
    assert run("ingest", *base_args(tmp_path)) == 0
    assert (list(root.handlers), root.level) == before


def test_a_pair_whose_exact_mean_equals_theta_merges(tmp_path):
    # per subnetwork 4/5, 1, 1 and 4/5: the exact mean is 9/10, the float
    # mean 0.8999999999999999
    rows = [
        ",Ann Lee,E1,paper,r1,2014,2014", ",Ann Li,E1,paper,r1,2013,2013",
        ",Ann Lee,E2,paper,r2,2014,2014", ",Ann Li,E2,paper,r2,2014,2014",
        ",Ann Lee,E3,paper,r3,2014,2014", ",Ann Li,E3,paper,r3,2014,2014",
        ",Ann Lee,E4,paper,r4,2014,2014", ",Ann Li,E4,paper,r4,2013,2013",
    ]
    records = tmp_path / "records.csv"
    header = "character_id,character_name,entity_name,entity_type,relation_type,start,end"
    records.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("dedupe", "--records", str(records), "--out", str(out), "--theta", "0.9", "--now", "2014") == 0
    groups = json.loads((out / "groups.json").read_text())
    assert groups == {"theta": 0.9, "now": 2014, "groups": [["c000001", "c000002"]]}
    assert json.loads((out / "run_manifest.json").read_text())["theta"] == 0.9
    with open(out / "similarity.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    scores = [row[beta] for beta in ("r1", "r2", "r3", "r4", "simtap")]
    assert scores == ["0.8000", "1.0000", "1.0000", "0.8000", "0.9000"]
    # just above the exact mean, nothing merges
    assert run("dedupe", "--records", str(records), "--out", str(out), "--theta", "0.9000001", "--now", "2014") == 0
    assert json.loads((out / "groups.json").read_text())["groups"] == []


def test_a_dedupe_of_its_own_merged_records_can_merge_again(tmp_path):
    # one round is the contract: c1 and c4 score 2*4*1/(16+1) = 8/17 and merge
    # with c2 onto c1, whose gained 2003 edge gives it c3's structure, and the
    # second round merges c1 and c3 at 2*5*8/(25+64) = 80/89
    rows = [
        "c1,Ann,E,paper,wrote,2000,2000", "c2,Ann,E,paper,wrote,2000,2000",
        "c3,Bo,E,paper,wrote,2000,2000", "c3,Bo,E,paper,wrote,2000,2000", "c4,Ann,E,paper,wrote,2003,2003",
    ]
    records = tmp_path / "records.csv"
    header = "character_id,character_name,entity_name,entity_type,relation_type,start,end"
    records.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    theta = ["--theta", repr(8 / 17), "--now", "2003"]
    assert run("dedupe", "--records", str(records), "--out", str(tmp_path / "first"), *theta) == 0
    merged = tmp_path / "first" / "merged_records.csv"
    assert run("dedupe", "--records", str(merged), "--out", str(tmp_path / "second"), *theta) == 0
    groups = [json.loads((tmp_path / out / "groups.json").read_text())["groups"] for out in ("first", "second")]
    assert groups == [[["c1", "c2", "c4"]], [["c1", "c3"]]]
    with open(tmp_path / "second" / "similarity.csv", newline="") as fh:
        assert [row["simtap"] for row in csv.DictReader(fh)] == [f"{80 / 89:.4f}"]


def test_a_run_leaves_no_cyclic_garbage_that_grows_with_its_input(tmp_path):
    def garbage_after_dedupe(label: str, people: int) -> int:
        spec = RandomBundleSpec(characters=people, entities_per_type=people // 4, relation_types=3, seed=5)
        bundle, _ = plant_duplicates(generate(spec), people // 10, PlantMode.EXACT_CLONE, seed=1)
        work = tmp_path / label
        work.mkdir()
        export(bundle, "records-csv", work / "records.csv")
        gc.collect()
        assert run("dedupe", "--records", str(work / "records.csv"), "--out", str(work / "out"), "--theta", "0.8") == 0
        # the collector is off during the run, so this finds all it left
        return gc.collect()

    garbage_after_dedupe("warm-up", 40)  # the first run also fills caches that later runs reuse
    assert garbage_after_dedupe("small", 40) == garbage_after_dedupe("large", 400)
