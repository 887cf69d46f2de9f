"""The records loader as it was before `load` read each row in one pass: a referee for `load`.

`_validated_records` checks the rows one at a time and yields each valid
one as a tuple, and `load_records` builds the bundle from that
generator. The code below is kept as it was written, so that a property
can hold today's `load` to it on any records text.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Iterable, Iterator

from tapmerge.graph import NetworkBundle, TemporalEdge, TimeInterval, VertexKind
from tapmerge.ingest import (
    CHARACTER_TYPE_LABEL,
    RECORDS_HEADER,
    DatasetManifest,
    IngestError,
    LoadReport,
    RejectedRow,
    TransactionRecord,
)


def load_records(
    records: Iterable[TransactionRecord],
    manifest: DatasetManifest | None = None,
) -> NetworkBundle:
    """Build a sealed bundle from already-validated records, read by position one at a time.

    `load`'s one trusted build path: new vertices keep `add_vertex`'s checks, while edges are
    filed directly, as `add_edge`'s checks (kept for hand-built bundles) cannot fail here.
    """
    manifest = manifest or DatasetManifest()
    bundle = NetworkBundle()
    for beta in manifest.relation_types:
        bundle.declare_relation_type(beta)
    subnetworks, intervals = bundle._subnetworks, bundle._intervals
    # explicit ids and blank-id names are separate kinds of key
    by_id: dict[str, str] = {}
    by_name: dict[str, str] = {}
    entities: dict[tuple[str, str], str] = {}
    # the bundle is new and no record carries a relation id, so the record
    # numbers r000001, r000002, ... never meet a taken id
    for number, record in enumerate(records, 1):
        character_name, entity_name, entity_type, relation_type, start, end, character_id = record
        characters, ckey = (by_id, character_id) if character_id else (by_name, character_name)
        character = characters.get(ckey)
        if character is None:
            character = characters[ckey] = bundle.add_vertex(
                VertexKind.CHARACTER, CHARACTER_TYPE_LABEL, character_name, vertex_id=character_id
            )
        ekey = (entity_name, entity_type)
        entity = entities.get(ekey)
        if entity is None:
            entity = entities[ekey] = bundle.add_vertex(VertexKind.ENTITY, entity_type, entity_name)
        interval = intervals.get((start, end))
        if interval is None:
            interval = intervals[start, end] = TimeInterval(start, end)
        network = subnetworks.get(relation_type)
        if network is None:
            bundle.declare_relation_type(relation_type)
            network = subnetworks[relation_type]
        # the subnetwork's own label, so every edge shares one string object
        edge = TemporalEdge(f"r{number:06d}", character, entity, network.relation_type, interval)
        network._by_character.setdefault(character, []).append(edge)
    return bundle.seal()


_INTEGER = re.compile("[+-]?[0-9]+")  # `int()` alone also reads `1_999` and full-width digits


def _span(start: str, end: str) -> tuple[int, int] | str:
    """The bounds of a row's `start` and `end` fields, or why they are rejected."""
    start, end = start.strip(), end.strip()
    if not (_INTEGER.fullmatch(start) and _INTEGER.fullmatch(end)):
        return "start/end are not integers"
    try:
        bounds = (int(start), int(end))
    except ValueError:  # more digits than `sys.get_int_max_str_digits()` allows
        return "start/end have too many digits"
    if bounds[0] < 0 or bounds[1] < 0:
        return "negative time point"
    if bounds[1] < bounds[0]:
        return "inverted interval"
    return bounds


def _validated_records(
    reader: Iterator[list[str]], manifest: DatasetManifest, strict: bool, report: LoadReport
) -> Iterator[tuple]:
    """Yield each valid row as a tuple in `TransactionRecord` field order, rejecting rows in `report`.

    A row's first failed check names it: field count, empty name, bounds, undeclared relation type.
    """
    width = len(RECORDS_HEADER)
    declared_relations = set(manifest.relation_types) if strict else set()
    # the field text of each distinct (start, end) pair -> its `_span`
    spans: dict[tuple[str, str], tuple[int, int] | str] = {}
    for row in reader:
        if not row:
            continue  # a blank line is no row
        report.total_rows += 1
        if len(row) < width:
            reason = f"expected {width} fields, got {len(row)}"
        else:
            names = (row[1].strip(), row[2].strip(), row[3].strip(), row[4].strip())
            bounds = spans.get((row[5], row[6]))
            if bounds is None:
                bounds = spans[row[5], row[6]] = _span(row[5], row[6])
            if not all(names):
                reason = f"empty {RECORDS_HEADER[1 + names.index('')]}"
            elif type(bounds) is str:
                reason = bounds
            elif declared_relations and names[3] not in declared_relations:
                reason = f"undeclared relation type {names[3]!r}"
            else:
                report.loaded_rows += 1
                yield (*names, *bounds, row[0].strip() or None)
                continue
        # the file line the row ends on, so skipped blank lines are counted
        if strict:
            raise IngestError(f"line {reader.line_num}: {reason}")
        # the header's fields: a short row is padded, extra fields are dropped
        raw = ",".join((row + [""] * width)[:width])
        report.rejected.append(RejectedRow(reader.line_num, reason, raw))


def load(
    records_path: str | Path,
    manifest_path: str | Path | None = None,
    strict: bool = False,
) -> tuple[NetworkBundle, LoadReport]:
    """Parse a records CSV (and optional manifest) into a sealed bundle.

    Rows stream from the file into the bundle; no list of records is
    built. Malformed rows are skipped and reported, or fatal under
    `strict`. Under `strict` a relation type absent from the manifest is
    also fatal.
    """
    manifest = DatasetManifest.from_json(manifest_path) if manifest_path else DatasetManifest()
    report = LoadReport()
    # `utf-8-sig` also reads a file that starts with a byte-order mark, as spreadsheet exports do
    with open(records_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        # the first line is the header even when it is blank; an empty file has none
        header = next(reader, None)
        if header is not None and header != RECORDS_HEADER:
            raise IngestError(f"unexpected header {header}; expected {','.join(RECORDS_HEADER)}")
        bundle = load_records(_validated_records(reader, manifest, strict, report), manifest)
    # the bundle holds the types of loaded rows only, each kind in first-seen order
    declared_relations, declared_entities = set(manifest.relation_types), set(manifest.entity_types)
    report.discovered_relation_types = [t for t in bundle.relation_types() if t not in declared_relations]
    report.discovered_entity_types = list(
        dict.fromkeys(v.type_label for v in bundle.vertices(VertexKind.ENTITY) if v.type_label not in declared_entities)
    )
    return bundle, report
