"""Load activity records from flat files and export bundles back out.

The record schema is a flat UTF-8 CSV with header

    character_id,character_name,entity_name,entity_type,relation_type,start,end

`character_id` may be blank, in which case the exact name string keys the
character; an explicit id and a name never key the same character, even
when their strings are equal. Entities are keyed by (name, type) exact
match. An optional JSON manifest declares the relation and entity type
vocabularies; the `now` anchor is the `--now` flag.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

from .graph import NetworkBundle, TimeInterval, VertexKind
from .screening import character_fields, csv_fields

RECORDS_HEADER = ["character_id", "character_name", "entity_name", "entity_type", "relation_type", "start", "end"]

CHARACTER_TYPE_LABEL = "person"

EXPORT_FORMATS = ("records-csv", "graph-json", "dot")


class IngestError(Exception):
    pass


class TransactionRecord(NamedTuple):
    """One activity fact as it appears in the input file."""

    character_name: str
    entity_name: str
    entity_type: str
    relation_type: str
    start: int
    end: int
    character_id: str | None = None


@dataclass
class DatasetManifest:
    relation_types: list[str] = field(default_factory=list)
    entity_types: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(set(self.relation_types)) != len(self.relation_types):
            raise IngestError("manifest declares duplicate relation types")
        if len(set(self.entity_types)) != len(self.entity_types):
            raise IngestError("manifest declares duplicate entity types")

    @classmethod
    def from_json(cls, path: str | Path) -> "DatasetManifest":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if raw.get("now") is not None:
            raise IngestError(f"{path}: a manifest cannot set `now`; pass the anchor with --now")
        return cls(
            relation_types=list(raw.get("relation_types", [])),
            entity_types=list(raw.get("entity_types", [])),
        )

    def to_json(self, path: str | Path) -> None:
        doc = {
            "relation_types": self.relation_types,
            "entity_types": self.entity_types,
        }
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class RejectedRow:
    line: int
    reason: str
    raw: str


@dataclass
class LoadReport:
    total_rows: int = 0
    loaded_rows: int = 0
    rejected: list[RejectedRow] = field(default_factory=list)
    discovered_relation_types: list[str] = field(default_factory=list)
    discovered_entity_types: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "total_rows": self.total_rows,
            "loaded_rows": self.loaded_rows,
            "rejected": [{"line": r.line, "reason": r.reason, "raw": r.raw} for r in self.rejected],
            "discovered_relation_types": self.discovered_relation_types,
            "discovered_entity_types": self.discovered_entity_types,
        }


def _parse_row(row: list[str], line: int) -> TransactionRecord:
    if len(row) < len(RECORDS_HEADER):
        raise IngestError(f"line {line}: expected {len(RECORDS_HEADER)} fields, got {len(row)}")
    names = (row[1].strip(), row[2].strip(), row[3].strip(), row[4].strip())
    if not all(names):
        empty = next(label for label, name in zip(RECORDS_HEADER[1:5], names) if not name)
        raise IngestError(f"line {line}: empty {empty}")
    try:
        start = int(row[5])
        end = int(row[6])
    except ValueError:
        raise IngestError(f"line {line}: start/end are not integers") from None
    if start < 0 or end < 0:
        raise IngestError(f"line {line}: negative time point")
    if end < start:
        raise IngestError(f"line {line}: inverted interval")
    return TransactionRecord(*names, start, end, row[0].strip() or None)


def load_records(
    records: Iterable[TransactionRecord],
    manifest: DatasetManifest | None = None,
) -> NetworkBundle:
    """Build a sealed bundle from already-validated records, consumed one at a time."""
    manifest = manifest or DatasetManifest()
    bundle = NetworkBundle()
    for beta in manifest.relation_types:
        bundle.declare_relation_type(beta)
    # explicit ids and blank-id names are separate kinds of key
    by_id: dict[str, str] = {}
    by_name: dict[str, str] = {}
    entities: dict[tuple[str, str], str] = {}
    # one frozen interval object per distinct (start, end), shared by its edges
    intervals: dict[tuple[int, int], TimeInterval] = {}
    for rec in records:
        characters, ckey = (by_id, rec.character_id) if rec.character_id else (by_name, rec.character_name)
        if ckey not in characters:
            characters[ckey] = bundle.add_vertex(
                VertexKind.CHARACTER, CHARACTER_TYPE_LABEL, rec.character_name, vertex_id=rec.character_id
            )
        ekey = (rec.entity_name, rec.entity_type)
        if ekey not in entities:
            entities[ekey] = bundle.add_vertex(VertexKind.ENTITY, rec.entity_type, rec.entity_name)
        span = (rec.start, rec.end)
        interval = intervals.get(span)
        if interval is None:
            interval = intervals[span] = TimeInterval(rec.start, rec.end)
        bundle.add_edge(characters[ckey], entities[ekey], rec.relation_type, interval)
    return bundle.seal()


def _validated_records(
    reader: Iterator[list[str]], manifest: DatasetManifest, strict: bool, report: LoadReport
) -> Iterator[TransactionRecord]:
    """Yield each valid row as a record, counting and rejecting rows in `report`."""
    declared_relations = set(manifest.relation_types)
    # declared plus discovered; the report lists keep first-seen order
    known_relations = set(declared_relations)
    known_entities = set(manifest.entity_types)
    for row in reader:
        if not row:
            continue  # a blank line is no row
        # the file line the row ends on, so skipped blank lines are counted
        line = reader.line_num
        report.total_rows += 1
        try:
            rec = _parse_row(row, line)
            if strict and declared_relations and rec.relation_type not in declared_relations:
                raise IngestError(f"line {line}: undeclared relation type {rec.relation_type!r}")
        except IngestError as exc:
            if strict:
                raise
            # the header's fields: a short row is padded, extra fields are dropped
            raw = ",".join((row + [""] * len(RECORDS_HEADER))[: len(RECORDS_HEADER)])
            report.rejected.append(RejectedRow(line, str(exc).split(": ", 1)[-1], raw))
            continue
        report.loaded_rows += 1
        if rec.relation_type not in known_relations:
            known_relations.add(rec.relation_type)
            report.discovered_relation_types.append(rec.relation_type)
        if rec.entity_type not in known_entities:
            known_entities.add(rec.entity_type)
            report.discovered_entity_types.append(rec.entity_type)
        yield rec


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
    with open(records_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        # the first line is the header even when it is blank; an empty file has none
        header = next(reader, None)
        if header is not None and header != RECORDS_HEADER:
            raise IngestError(f"unexpected header {header}; expected {','.join(RECORDS_HEADER)}")
        bundle = load_records(_validated_records(reader, manifest, strict, report), manifest)
    return bundle, report


# -- exports ---------------------------------------------------------------


def export_records_csv(bundle: NetworkBundle, path: str | Path) -> None:
    """Write a record list that reloads to an isomorphic bundle.

    Rows are sorted by character, relation type, entity, interval and
    relation id. Each vertex's and relation type's CSV fields are
    rendered once by a default-dialect `csv.writer`, so every row equals
    the one that writer would write.
    """
    characters = character_fields(bundle)
    entities = csv_fields(lambda entity: (bundle.vertex(entity).display_name, bundle.vertex(entity).type_label))
    # a relation type is never empty, so its one field renders as in any row
    relation_types = csv_fields(lambda relation_type: (relation_type,))
    edges = sorted(
        bundle.edges(),
        key=lambda e: (e.character, e.relation_type, e.entity, e.interval.start, e.interval.end, e.relation_id),
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(RECORDS_HEADER)
        fh.writelines(
            f"{characters[e.character]},{entities[e.entity]},{relation_types[e.relation_type]},"
            f"{e.interval.start},{e.interval.end}\r\n"
            for e in edges
        )


def _write_json_records(fh: IO[str], records: Iterable[str]) -> None:
    """Write a JSON list of pre-encoded objects at the second indent level."""
    opening = "[\n    "
    for record in records:
        fh.write(opening)
        fh.write(record)
        opening = ",\n    "
    fh.write("[]" if opening == "[\n    " else "\n  ]")


def export_graph_json(bundle: NetworkBundle, path: str | Path) -> None:
    """Write vertices and edges, sorted by id, one record at a time.

    The bytes equal `json.dumps(document, indent=2) + "\n"`, with every
    string escaped by the same C encoder `json.dumps` uses.
    """
    q = encode_basestring_ascii
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "vertices": ')
        _write_json_records(
            fh,
            (
                f'{{\n      "id": {q(v.id)},\n      "kind": {q(v.kind.value)},\n'
                f'      "type": {q(v.type_label)},\n      "name": {q(v.display_name)}\n    }}'
                for v in sorted(bundle.vertices(), key=lambda v: v.id)
            ),
        )
        fh.write(',\n  "edges": ')
        _write_json_records(
            fh,
            (
                f'{{\n      "id": {q(e.relation_id)},\n      "character": {q(e.character)},\n'
                f'      "entity": {q(e.entity)},\n      "relation_type": {q(e.relation_type)},\n'
                f'      "start": {e.interval.start},\n      "end": {e.interval.end}\n    }}'
                for e in sorted(bundle.edges(), key=lambda e: e.relation_id)
            ),
        )
        fh.write("\n}\n")


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(bundle: NetworkBundle, path: str | Path) -> None:
    """Render the 2-mode graph for eyeballing: characters oval, entities boxed."""
    lines = ["graph activity {"]
    for v in sorted(bundle.vertices(), key=lambda v: v.id):
        shape = "ellipse" if v.kind is VertexKind.CHARACTER else "box"
        lines.append(f"  {_dot_quote(v.id)} [label={_dot_quote(v.display_name)} shape={shape}];")
    for e in sorted(bundle.edges(), key=lambda e: e.relation_id):
        label = f"{e.relation_type} {e.interval.start}-{e.interval.end}"
        lines.append(f"  {_dot_quote(e.character)} -- {_dot_quote(e.entity)} [label={_dot_quote(label)}];")
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def export(bundle: NetworkBundle, fmt: str, path: str | Path) -> None:
    if fmt == "records-csv":
        export_records_csv(bundle, path)
    elif fmt == "graph-json":
        export_graph_json(bundle, path)
    elif fmt == "dot":
        export_dot(bundle, path)
    else:
        raise IngestError(f"unknown export format {fmt!r}; expected one of {', '.join(EXPORT_FORMATS)}")
