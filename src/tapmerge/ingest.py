"""Load activity records from flat files and export bundles back out.

The record schema is a flat UTF-8 CSV, with or without a byte-order
mark, with header

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
import re
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .graph import NetworkBundle, TemporalActivityNetwork, TemporalEdge, TimeInterval, Vertex, VertexKind
from .screening import Memo, csv_fields, csv_text

RECORDS_HEADER = ["character_id", "character_name", "entity_name", "entity_type", "relation_type", "start", "end"]

CHARACTER_TYPE_LABEL = "person"


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


class DatasetManifest:
    def __init__(self, relation_types: Sequence[str] = (), entity_types: Sequence[str] = ()):
        if len(set(relation_types)) != len(relation_types):
            raise IngestError("manifest declares duplicate relation types")
        if len(set(entity_types)) != len(entity_types):
            raise IngestError("manifest declares duplicate entity types")
        self.relation_types = list(relation_types)
        self.entity_types = list(entity_types)

    @classmethod
    def from_json(cls, path: str | Path) -> "DatasetManifest":
        # `utf-8-sig` also reads a file that starts with a byte-order mark
        try:
            with open(path, encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise IngestError(f"{path}: {exc}") from None
        if not isinstance(raw, dict):
            raise IngestError(f"{path}: a manifest must be a JSON object")
        if raw.get("now") is not None:
            raise IngestError(f"{path}: a manifest cannot set `now`; pass the anchor with --now")
        vocabularies = {key: raw.get(key, []) for key in ("relation_types", "entity_types")}
        for key, labels in vocabularies.items():
            if not isinstance(labels, list) or not all(isinstance(label, str) and label for label in labels):
                raise IngestError(f"{path}: `{key}` must be a list of non-empty strings")
        try:
            return cls(**vocabularies)
        except IngestError as exc:
            raise IngestError(f"{path}: {exc}") from None


class RejectedRow(NamedTuple):
    line: int
    reason: str
    raw: str


class LoadReport:
    """What `load` made of a file's rows, filled in as they stream."""

    def __init__(self) -> None:
        self.total_rows = 0
        self.loaded_rows = 0
        self.rejected: list[RejectedRow] = []
        self.discovered_relation_types: list[str] = []
        self.discovered_entity_types: list[str] = []

    def to_dict(self) -> dict:
        return {
            "total_rows": self.total_rows,
            "loaded_rows": self.loaded_rows,
            "rejected": [{"line": r.line, "reason": r.reason, "raw": r.raw} for r in self.rejected],
            "discovered_relation_types": self.discovered_relation_types,
            "discovered_entity_types": self.discovered_entity_types,
        }


class _Keys:
    """The characters, entities, intervals and subnetworks of a bundle being built, each under its key.

    The one place `load` and `load_records` key a record's parts. A
    character is keyed by its explicit id, or by its name when the id is
    blank: an id and a name are separate kinds of key, even when their
    strings are equal, and `by_id` and `by_name` map them to the vertex.
    An explicit id keeps the name it was first given. An entity is keyed
    by its (name, type), an interval by its bounds, with one object per
    bounds, and a subnetwork by its relation type, declared on first
    use. `entities`, `intervals` and `networks` make a missing entry on
    lookup, and their `get` only finds one; new vertices keep
    `add_vertex`'s checks.
    """

    def __init__(self, manifest: DatasetManifest, place: str):
        bundle = self.bundle = NetworkBundle()
        for beta in manifest.relation_types:
            bundle.declare_relation_type(beta)
        self.place = place
        self.by_id: dict[str, Vertex] = {}
        self.by_name: dict[str, Vertex] = {}
        self.renamed: set[str] = set()
        self.entities = Memo(lambda key: bundle.add_vertex(VertexKind.ENTITY, key[1], key[0]))
        self.intervals = Memo(lambda bounds: TimeInterval(*bounds))

        def network(relation_type: str) -> TemporalActivityNetwork:
            bundle.declare_relation_type(relation_type)
            return bundle._subnetworks[relation_type]

        # a closure over the bundle, not a bound method, so no cycle holds the keys
        self.networks = Memo(network)

    def character(self, character_id: str | None, name: str, number: int) -> str:
        """The character of the `place` numbered `number`; one WARNING per id names a second name and its first."""
        characters, key = (self.by_id, character_id) if character_id else (self.by_name, name)
        vertex = characters.get(key)
        if vertex is None:
            character = self.bundle.add_vertex(VertexKind.CHARACTER, CHARACTER_TYPE_LABEL, name, vertex_id=character_id)
            vertex = characters[key] = self.bundle.vertex(character)
        # a name keys a vertex of that name, so only an explicit id can differ
        elif vertex.display_name != name and character_id not in self.renamed:
            self.renamed.add(character_id)
            # imported here, so that `import tapmerge` does not load `logging`
            import logging

            message = "%s %d: character id %r is named %r here but keeps its first name %r"
            logging.getLogger("tapmerge").warning(message, self.place, number, character_id, name, vertex.display_name)
        return vertex.id


# builds a named tuple in C, without its Python `__new__`; one global lookup per call
_tuple_new = tuple.__new__


def _file(network: TemporalActivityNetwork, number: int, character: str, entity: str, interval: TimeInterval) -> None:
    """File record `number`'s edge in its character's path, bypassing `add_edge`, whose checks cannot fail here.

    The bundle is new and no record carries a relation id, so the record
    numbers r000001, r000002, ... never meet a taken id. The edge holds
    the subnetwork's own label, so every edge shares one string object.
    """
    edge = _tuple_new(TemporalEdge, ("r%06d" % number, character, entity, network.relation_type, interval))
    network._by_character.setdefault(character, []).append(edge)


def load_records(
    records: Iterable[TransactionRecord],
    manifest: DatasetManifest | None = None,
) -> NetworkBundle:
    """Build a sealed bundle from already-validated records, read by position one at a time.

    Each record's parts are keyed as `load` keys a row's: new vertices
    keep `add_vertex`'s checks, while edges are filed directly.
    """
    keys = _Keys(manifest or DatasetManifest(), "record")
    entities, intervals, networks = keys.entities, keys.intervals, keys.networks
    for number, record in enumerate(records, 1):
        character_name, entity_name, entity_type, relation_type, start, end, character_id = record
        character = keys.character(character_id, character_name, number)
        entity = entities[entity_name, entity_type]
        interval = intervals[start, end]
        _file(networks[relation_type], number, character, entity, interval)
    return keys.bundle.seal()


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


def load(
    records_path: str | Path,
    manifest_path: str | Path | None = None,
    strict: bool = False,
) -> tuple[NetworkBundle, LoadReport]:
    """Parse a records CSV (and optional manifest) into a sealed bundle.

    Rows stream from the file into the bundle in one loop; no list of
    records is built. A row is first looked up by its raw field text,
    in the dicts that key characters, entities and subnetworks and in
    one of each valid (start, end) text seen. Their keys are stripped
    and non-empty, or valid spans, so a row whose parts are all found
    is valid, and its edge is filed at once; an explicit id is found
    only with the name it was first given. Any other row is stripped
    and checked: its first failed check names it, in the order field
    count, empty name, bounds, undeclared relation type. Malformed rows
    are skipped and reported, or fatal under `strict`. Under `strict` a
    relation type absent from the manifest is also fatal. A field longer
    than `csv.field_size_limit()` is fatal in both modes. So is text that
    is not UTF-8: the error names the records file and the last line
    read whole before it.
    """
    manifest = DatasetManifest.from_json(manifest_path) if manifest_path else DatasetManifest()
    report = LoadReport()
    width = len(RECORDS_HEADER)
    declared_relations = set(manifest.relation_types) if strict else set()
    keys = _Keys(manifest, "line")
    by_id, by_name, entities, networks = keys.by_id, keys.by_name, keys.entities, keys.networks
    # the raw (start, end) text of each valid span seen -> its interval
    spans: dict[tuple[str, str], TimeInterval] = {}
    loaded = 0
    # `utf-8-sig` also reads a file that starts with a byte-order mark, as spreadsheet exports do
    with open(records_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            # the first line is the header even when it is blank; an empty file has none
            header = next(reader, None)
            if header is not None and header != RECORDS_HEADER:
                raise IngestError(f"unexpected header {header}; expected {','.join(RECORDS_HEADER)}")
            for row in reader:
                if len(row) == width:
                    character_id, name, entity_name, entity_type, relation_type, start, end = row
                    vertex = by_id.get(character_id) if character_id else by_name.get(name)
                    entity = entities.get((entity_name, entity_type))
                    interval = spans.get((start, end))
                    network = networks.get(relation_type)
                    found = vertex is not None and entity is not None and interval is not None and network is not None
                    # an explicit id is found only together with its first name; the
                    # vertex's id, not the row's copy of it, goes into the edge
                    if found and vertex.display_name == name:
                        loaded += 1
                        _file(network, loaded, vertex.id, entity, interval)
                        continue
                elif not row:
                    continue  # a blank line is no row
                if len(row) < width:
                    reason = f"expected {width} fields, got {len(row)}"
                else:
                    names = (row[1].strip(), row[2].strip(), row[3].strip(), row[4].strip())
                    span = (row[5], row[6])
                    # a span seen before is its interval, itself a (start, end) tuple
                    bounds = spans.get(span) or _span(*span)
                    if not all(names):
                        reason = f"empty {RECORDS_HEADER[1 + names.index('')]}"
                    elif type(bounds) is str:
                        reason = bounds
                    elif declared_relations and names[3] not in declared_relations:
                        reason = f"undeclared relation type {names[3]!r}"
                    else:
                        character = keys.character(row[0].strip() or None, names[0], reader.line_num)
                        entity = entities[names[1], names[2]]
                        interval = spans[span] = keys.intervals[bounds]
                        loaded += 1
                        _file(networks[names[3]], loaded, character, entity, interval)
                        continue
                # the file line the row ends on, so skipped blank lines are counted
                if strict:
                    raise IngestError(f"line {reader.line_num}: {reason}")
                # the header's fields: a short row is padded, extra fields are dropped
                raw = ",".join((row + [""] * width)[:width])
                report.rejected.append(RejectedRow(reader.line_num, reason, raw))
        except csv.Error as exc:
            # the reader gave up, as on a field past `csv.field_size_limit()`: no later row can be trusted
            raise IngestError(f"line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            # the file is decoded a chunk of lines at a time, so the bad bytes lie somewhere
            # after the last line read whole, and the error's position counts from its chunk
            raise IngestError(f"{records_path}: text after line {reader.line_num} is not UTF-8: {exc.reason}") from None
    bundle = keys.bundle.seal()
    report.loaded_rows, report.total_rows = loaded, loaded + len(report.rejected)
    # the bundle holds the types of loaded rows only, each kind in first-seen order
    declared_relations, declared_entities = set(manifest.relation_types), set(manifest.entity_types)
    report.discovered_relation_types = [t for t in bundle.relation_types() if t not in declared_relations]
    report.discovered_entity_types = list(
        dict.fromkeys(v.type_label for v in bundle.vertices(VertexKind.ENTITY) if v.type_label not in declared_entities)
    )
    return bundle, report


# -- exports ---------------------------------------------------------------


def export_records_csv(bundle: NetworkBundle, path: str | Path) -> None:
    """Write a record list that reloads to an isomorphic bundle.

    Rows are sorted by character, relation type, entity and interval;
    rows equal in all four are equal. Characters are written one at a
    time in id order, so only one character's edges are sorted at once,
    and each character's rows are written as one string. Each vertex's,
    relation type's and interval's CSV fields are rendered once, by a
    default-dialect `csv.writer` for the text fields, so every row
    equals the one that writer would write.
    """
    entities = csv_fields(lambda entity: (bundle.vertex(entity).display_name, bundle.vertex(entity).type_label))
    spans = Memo(lambda interval: f"{interval.start},{interval.end}")
    # a relation type is never empty, so its one field renders as in any row
    paths = [
        (csv_text((relation_type,)), bundle.subnetwork(relation_type)._by_character)
        for relation_type in sorted(bundle.relation_types())
    ]
    # an interval sorts as its (start, end) tuple
    order = attrgetter("entity", "interval")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(RECORDS_HEADER)
        for character in sorted(bundle.vertices(VertexKind.CHARACTER), key=attrgetter("id")):
            tails = [
                f"{entities[e.entity]},{relation_type},{spans[e.interval]}\r\n"
                for relation_type, by_character in paths
                for e in sorted(by_character.get(character.id, ()), key=order)
            ]
            if tails:
                head = csv_text((character.id, character.display_name)) + ","
                fh.write(head + head.join(tails))


# records joined into one string per write; at 2,048 the peak of a 40,000-person
# `ingest` rose by up to 1.1 MB, at 1,024 by at most 0.7 MB, with equal speed
_CHUNK = 1024


def _write_json_records(fh: IO[str], records: Iterator[str]) -> None:
    """Write a JSON list of pre-encoded objects at the second indent level, `_CHUNK` records per write."""
    opening = "[\n    "
    while chunk := list(islice(records, _CHUNK)):
        fh.write(opening)
        fh.write(",\n    ".join(chunk))
        opening = ",\n    "
    fh.write("[]" if opening == "[\n    " else "\n  ]")


def export_graph_json(bundle: NetworkBundle, path: str | Path) -> None:
    """Write vertices and edges, sorted by id, a chunk of records at a time.

    The bytes equal `json.dumps(document, indent=2) + "\n"`, with every
    string escaped by the same C encoder `json.dumps` uses. Each relation
    type's and interval's JSON text is rendered once.
    """
    q = encode_basestring_ascii
    labels = {relation_type: q(relation_type) for relation_type in bundle.relation_types()}
    kinds = {kind: q(kind.value) for kind in VertexKind}
    # the rest of an edge's record after its relation type
    spans = Memo(lambda interval: f'"start": {interval.start},\n      "end": {interval.end}\n    }}')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "vertices": ')
        _write_json_records(
            fh,
            (
                f'{{\n      "id": {q(v.id)},\n      "kind": {kinds[v.kind]},\n'
                f'      "type": {q(v.type_label)},\n      "name": {q(v.display_name)}\n    }}'
                for v in sorted(bundle.vertices(), key=attrgetter("id"))
            ),
        )
        fh.write(',\n  "edges": ')
        _write_json_records(
            fh,
            (
                f'{{\n      "id": {q(relation_id)},\n      "character": {q(character)},\n'
                f'      "entity": {q(entity)},\n      "relation_type": {labels[relation_type]},\n      {spans[interval]}'
                for relation_id, character, entity, relation_type, interval in sorted(
                    bundle.edges(), key=attrgetter("relation_id")
                )
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


# each format's writer, in the order `tapmerge export --format` lists them
EXPORT_FORMATS = {"records-csv": export_records_csv, "graph-json": export_graph_json, "dot": export_dot}


def export(bundle: NetworkBundle, fmt: str, path: str | Path) -> None:
    if fmt not in EXPORT_FORMATS:
        raise IngestError(f"unknown export format {fmt!r}; expected one of {', '.join(EXPORT_FORMATS)}")
    EXPORT_FORMATS[fmt](bundle, path)
