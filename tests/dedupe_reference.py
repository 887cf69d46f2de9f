"""`tapmerge dedupe` worked out from scratch: a referee for the whole pipeline.

`reference_dedupe` reads a records file with the reference loader and
then takes each step of the method the slow, literal way: every pair of
people is screened by its own `structure_error` zero test, every
candidate is scored by the path oracle with exact `Fraction` weights,
the pairs whose exact mean reaches theta are joined by a naive
union-find, the groups are merged by `merge_by_rule`, and every file is
written by a plain `csv.writer` or `json.dumps`. It shares no signature
bucket, weight class, score table, grouping or merge code with
`tapmerge`, so a property can hold `dedupe` to it on random inputs. The
record, graph and CSV writers here are also the exporters' referees.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path

from tapmerge import NetworkBundle
from tapmerge.ingest import RECORDS_HEADER
from tapmerge.screening import NameFilter, structure_error
from tapmerge.testkit import oracle_simtap_beta

import reference_loader
from merge_reference import merge_by_rule


def csv_reference(rows: list[list]) -> bytes:
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode("utf-8")


def records_csv_reference(bundle: NetworkBundle) -> list[list]:
    """The records-csv rows for a `csv.writer`, sorted with the interval objects in the key."""
    edges = sorted(bundle.edges(), key=lambda e: (e.character, e.relation_type, e.entity, e.interval, e.relation_id))
    rows: list[list] = [RECORDS_HEADER]
    for edge in edges:
        character, entity = bundle.vertex(edge.character), bundle.vertex(edge.entity)
        rows.append(
            [
                character.id,
                character.display_name,
                entity.display_name,
                entity.type_label,
                edge.relation_type,
                edge.interval.start,
                edge.interval.end,
            ]
        )
    return rows


def graph_json_reference(bundle: NetworkBundle) -> str:
    """The graph-json bytes as `json.dumps` renders the whole document."""
    doc = {
        "vertices": [
            {"id": v.id, "kind": v.kind.value, "type": v.type_label, "name": v.display_name}
            for v in sorted(bundle.vertices(), key=lambda v: v.id)
        ],
        "edges": [
            {
                "id": e.relation_id,
                "character": e.character,
                "entity": e.entity,
                "relation_type": e.relation_type,
                "start": e.interval.start,
                "end": e.interval.end,
            }
            for e in sorted(bundle.edges(), key=lambda e: e.relation_id)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def json_reference(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def exact_scores(bundle: NetworkBundle, x: str, y: str, now: int) -> list[Fraction]:
    """The pair's score in each subnetwork, in declaration order, by the path oracle in exact arithmetic."""
    # a `Fraction` anchor makes every path weight a `Fraction`, and so the oracle's one division exact
    return [Fraction(oracle_simtap_beta(bundle.subnetwork(beta), x, y, Fraction(now))) for beta in bundle.relation_types()]


def screened_pairs(bundle: NetworkBundle, name_filter: NameFilter) -> list[tuple[str, str]]:
    """Every id-ordered pair of people with structure error zero whose names the filter keeps."""
    ids = bundle.character_ids()
    name = {c: bundle.vertex(c).display_name for c in ids}
    kept = {NameFilter.OFF: {True, False}, NameFilter.SAME_NAME: {True}, NameFilter.DIFFERENT_NAME: {False}}[name_filter]
    return [
        (x, y)
        for i, x in enumerate(ids)
        for y in ids[i + 1 :]
        if (name[x] == name[y]) in kept and structure_error(bundle, x, y).is_zero
    ]


def reference_dedupe(
    records: Path, manifest: Path | None, theta: float, now: int | None, name_filter: NameFilter
) -> dict[str, bytes]:
    """Every data file `tapmerge dedupe` writes for these flags, by name; `run_manifest.json` is left out."""
    bundle, report = reference_loader.load(records, manifest)
    if now is None:
        now = max(edge.interval.end for edge in bundle.edges())
    ids = bundle.character_ids()
    name = {c: bundle.vertex(c).display_name for c in ids}
    pairs = screened_pairs(bundle, name_filter)
    scores = {pair: exact_scores(bundle, *pair, now) for pair in pairs}

    # naive union-find: relabel the whole of one side's group at every union
    label = {c: c for c in ids}
    for (x, y), exact in scores.items():
        if sum(exact) / len(exact) >= Fraction(str(theta)) and label[x] != label[y]:
            old = label[y]
            label.update((c, label[x]) for c in ids if label[c] == old)
    components: dict[str, list[str]] = {}
    for c in ids:
        components.setdefault(label[c], []).append(c)
    groups = sorted(group for group in components.values() if len(group) > 1)
    merged, counts, _ = merge_by_rule(bundle, groups)

    candidate_rows = [["x_id", "x_name", "y_id", "y_name", "structure_error"]]
    candidate_rows += [[x, name[x], y, name[y], f"{structure_error(bundle, x, y).value:.4f}"] for x, y in pairs]
    similarity_rows = [["x_id", "x_name", "y_id", "y_name", *bundle.relation_types(), "simtap"]]
    for (x, y), exact in scores.items():
        # as reported: each score's nearest float, summed in subnetwork order, over their number
        floats = [float(score) for score in exact]
        similarity_rows.append([x, name[x], y, name[y], *[f"{f:.4f}" for f in floats], f"{sum(floats) / len(floats):.4f}"])
    audit = {key: counts[key] for key in ("removed_vertices", "dropped_edges", "transferred_edges")}
    return {
        "candidates.csv": csv_reference(candidate_rows),
        "similarity.csv": csv_reference(similarity_rows),
        "groups.json": json_reference({"theta": theta, "now": now, "groups": groups}),
        "merged_records.csv": csv_reference(records_csv_reference(merged)),
        "merged_graph.json": graph_json_reference(merged).encode("utf-8"),
        "merge_audit.json": json_reference({**audit, "mapping": dict(sorted(counts["mapping"].items()))}),
        "load_report.json": json_reference(report.to_dict()),
    }
