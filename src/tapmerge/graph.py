"""In-memory heterogeneous temporal 2-mode activity networks.

A bundle holds one temporal multigraph per relation type. Character
vertices (people) connect to entity vertices (institutions, projects,
publications, ...) through dated activity edges. Parallel edges between
the same character/entity pair are first-class: two stints at the same
employer are two edges. The character-to-character projection with full
edge provenance is derived, never stored.

Vertex identity is an opaque string id. Display names never key
anything; resolving which same-named vertices are actually the same
person is the job of the screening and similarity layers built on top.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator


class GraphError(Exception):
    """Base class for bundle construction and lookup failures."""


class UnknownVertexError(GraphError):
    def __init__(self, vertex_id: str):
        self.vertex_id = vertex_id
        super().__init__(f"unknown vertex id: {vertex_id!r}")


class VertexKindError(GraphError):
    """A character id was used where an entity id is required, or vice versa."""


class DuplicateIdError(GraphError):
    pass


class SealedBundleError(GraphError):
    """Mutation was attempted on a bundle that has been sealed."""


class HeterogeneityError(GraphError):
    """The bundle does not have at least two vertex types and one relation type."""


class VertexKind(Enum):
    CHARACTER = "character"
    ENTITY = "entity"


@dataclass(frozen=True, order=True, slots=True)
class TimeInterval:
    """Closed integer interval, by default in years."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not isinstance(self.start, int) or not isinstance(self.end, int):
            raise ValueError("interval bounds must be integers")
        if self.start < 0 or self.end < 0:
            raise ValueError(f"interval bounds must be non-negative: [{self.start}, {self.end}]")
        if self.end < self.start:
            raise ValueError(f"inverted interval: end {self.end} < start {self.start}")

    @property
    def duration(self) -> int:
        """Inclusive length: a single-year activity has duration 1."""
        return self.end - self.start + 1


@dataclass(frozen=True, slots=True)
class Vertex:
    id: str
    kind: VertexKind
    type_label: str
    display_name: str


@dataclass(frozen=True, slots=True)
class TemporalEdge:
    """One activity fact: character took part in entity during interval."""

    relation_id: str
    character: str
    entity: str
    relation_type: str
    interval: TimeInterval


def _fresh_id(prefix: str, counter: int, taken: dict[str, Vertex] | set[str]) -> tuple[str, int]:
    """The first generated id from `counter` on that is not in `taken`, and the next counter."""
    while (fresh := f"{prefix}{counter:06d}") in taken:
        counter += 1
    return fresh, counter + 1


def _as_interval(interval: TimeInterval | tuple[int, int]) -> TimeInterval:
    if isinstance(interval, TimeInterval):
        return interval
    start, end = interval
    return TimeInterval(start, end)


class TemporalActivityNetwork:
    """All edges of one relation type, in insertion order and per character.

    A character's edges are its temporal activity path in this subnetwork.
    """

    def __init__(self, relation_type: str):
        self.relation_type = relation_type
        self._edges: list[TemporalEdge] = []
        self._by_character: dict[str, list[TemporalEdge]] = {}

    def __len__(self) -> int:
        return len(self._edges)

    def _add(self, edge: TemporalEdge) -> None:
        self._edges.append(edge)
        self._by_character.setdefault(edge.character, []).append(edge)

    def edges(self) -> Iterator[TemporalEdge]:
        return iter(self._edges)

    def edges_of_character(self, character: str) -> list[TemporalEdge]:
        """The character's edges in insertion order, as a new list the caller may change."""
        return list(self._by_character.get(character, ()))

    def neighbor_counts(self, character: str) -> Counter[str]:
        """Number of edges from `character` to each entity neighbor."""
        return Counter(edge.entity for edge in self._by_character.get(character, ()))

    def degree(self, character: str) -> int:
        return len(self._by_character.get(character, ()))


class NetworkBundle:
    """A set of temporal activity subnetworks over a shared vertex registry.

    Build by calling :meth:`add_vertex` / :meth:`add_edge`, then
    :meth:`seal`. A sealed bundle is immutable and safe to share across
    readers; merging or planting produces a new bundle.
    """

    def __init__(self) -> None:
        self._vertices: dict[str, Vertex] = {}
        # relation type -> subnetwork, in declaration / first-seen order
        self._subnetworks: dict[str, TemporalActivityNetwork] = {}
        self._relation_ids: set[str] = set()
        self._sealed = False
        self._digest: str | None = None
        self._next_character = 1
        self._next_entity = 1
        self._next_relation = 1

    # -- construction -----------------------------------------------------

    def _require_mutable(self) -> None:
        if self._sealed:
            raise SealedBundleError("bundle is sealed; build a new one instead of mutating")

    def declare_relation_type(self, label: str) -> None:
        """Register a relation type so it counts toward |B| even if unused."""
        self._require_mutable()
        if not label:
            raise ValueError("relation type label must be nonempty")
        if label not in self._subnetworks:
            self._subnetworks[label] = TemporalActivityNetwork(label)

    def add_vertex(
        self,
        kind: VertexKind,
        type_label: str,
        display_name: str,
        vertex_id: str | None = None,
    ) -> str:
        """Register a vertex and return its id.

        A generated id skips any id already registered. An explicit id
        that is already registered, generated or not, is a
        :class:`DuplicateIdError`.
        """
        self._require_mutable()
        if not type_label:
            raise ValueError("type_label must be nonempty")
        if vertex_id is None:
            if kind is VertexKind.CHARACTER:
                vertex_id, self._next_character = _fresh_id("c", self._next_character, self._vertices)
            else:
                vertex_id, self._next_entity = _fresh_id("e", self._next_entity, self._vertices)
        elif vertex_id in self._vertices:
            raise DuplicateIdError(f"vertex id already registered: {vertex_id!r}")
        self._vertices[vertex_id] = Vertex(vertex_id, kind, type_label, display_name)
        return vertex_id

    def add_edge(
        self,
        character: str,
        entity: str,
        relation_type: str,
        interval: TimeInterval | tuple[int, int],
        relation_id: str | None = None,
    ) -> str:
        span, relation_id = self._register(character, entity, relation_type, interval, relation_id)
        self._subnetworks[relation_type]._add(TemporalEdge(relation_id, character, entity, relation_type, span))
        return relation_id

    def _register(
        self,
        character: str,
        entity: str,
        relation_type: str,
        interval: TimeInterval | tuple[int, int],
        relation_id: str | None,
    ) -> tuple[TimeInterval, str]:
        """Check an edge's fields and reserve its id; return its interval and id.

        The one checking path of :meth:`add_edge` and :func:`rebuild`. A
        tuple interval becomes a `TimeInterval`, a ``None`` relation id
        gets a fresh one, and an unseen relation type is declared. The
        caller then files the edge under its relation type.
        """
        self._require_mutable()
        cv = self.vertex(character)
        ev = self.vertex(entity)
        if cv.kind is not VertexKind.CHARACTER:
            raise VertexKindError(f"{character!r} is not a character vertex")
        if ev.kind is not VertexKind.ENTITY:
            raise VertexKindError(f"{entity!r} is not an entity vertex")
        span = _as_interval(interval)
        if relation_id is None:
            relation_id, self._next_relation = _fresh_id("r", self._next_relation, self._relation_ids)
        elif relation_id in self._relation_ids:
            raise DuplicateIdError(f"relation id already registered: {relation_id!r}")
        if relation_type not in self._subnetworks:
            self.declare_relation_type(relation_type)
        self._relation_ids.add(relation_id)
        return span, relation_id

    def seal(self) -> "NetworkBundle":
        self._sealed = True
        return self

    def derive(self, absorbed: dict[str, str], dropped: set[str]) -> "NetworkBundle":
        """A sealed bundle without the `absorbed` characters, sharing all they do not touch.

        `absorbed` maps each removed character to its representative. An
        edge of an absorbed character is left out when its relation id is
        in `dropped`, and otherwise re-filed under the representative at
        the same position. The result equals what :func:`rebuild` gives
        for the remaining vertices and edges, in every order it exposes,
        but it shares the subnetworks no absorbed character has edges in,
        the untouched characters' edge lists and the edges themselves with
        this bundle, which must therefore be sealed.
        """
        if not self._sealed:
            raise GraphError("derive from an unsealed bundle; seal it first")
        for character in absorbed:
            if self.vertex(character).kind is not VertexKind.CHARACTER:
                raise VertexKindError(f"{character!r} is not a character vertex")
        for representative in dict.fromkeys(absorbed.values()):
            if representative in absorbed:
                raise GraphError(f"representative {representative!r} is itself absorbed")
            if self.vertex(representative).kind is not VertexKind.CHARACTER:
                raise VertexKindError(f"{representative!r} is not a character vertex")

        derived = NetworkBundle()
        derived._vertices = self._vertices.copy()
        for character in absorbed:
            del derived._vertices[character]
        derived._relation_ids = self._relation_ids.copy()
        for relation_type, tan in self._subnetworks.items():
            present = [character for character in absorbed if character in tan._by_character]
            if not present:
                derived._subnetworks[relation_type] = tan
                continue
            by_character = tan._by_character.copy()
            rebuilt: dict[str, list[TemporalEdge]] = {}
            for character in present:
                del by_character[character]
                rebuilt[absorbed[character]] = []
            edges: list[TemporalEdge] = []
            for edge in tan._edges:
                character = edge.character
                representative = absorbed.get(character)
                if representative is not None:
                    if edge.relation_id in dropped:
                        derived._relation_ids.discard(edge.relation_id)
                        continue
                    edge = TemporalEdge(edge.relation_id, representative, edge.entity, edge.relation_type, edge.interval)
                    character = representative
                edges.append(edge)
                path = rebuilt.get(character)
                if path is not None:
                    path.append(edge)
            by_character.update((character, path) for character, path in rebuilt.items() if path)
            network = derived._subnetworks[relation_type] = TemporalActivityNetwork(relation_type)
            network._edges, network._by_character = edges, by_character
        return derived.seal()

    def changed_paths(self, other: "NetworkBundle") -> set[str]:
        """Characters whose edge list in some subnetwork differs from their list in `other`.

        Subnetworks the two bundles share are skipped, and a shared or
        equal list counts as unchanged, so against a bundle from
        :meth:`derive` this costs one lookup per character of each
        subnetwork the merge touched.
        """
        changed: set[str] = set()
        for relation_type in {**self._subnetworks, **other._subnetworks}:
            mine, theirs = self._subnetworks.get(relation_type), other._subnetworks.get(relation_type)
            if mine is theirs:
                continue
            my_paths = mine._by_character if mine is not None else {}
            their_paths = theirs._by_character if theirs is not None else {}
            for character, path in my_paths.items():
                their_path = their_paths.get(character)
                if path is not their_path and path != their_path:
                    changed.add(character)
            changed.update(their_paths.keys() - my_paths.keys())
        return changed

    @property
    def sealed(self) -> bool:
        return self._sealed

    def content_digest(self) -> str:
        """Sha256 of the sorted vertex ids and edge facts, computed once per sealed bundle."""
        if not self._sealed:
            raise GraphError("content digest of an unsealed bundle; seal it first")
        if self._digest is None:
            edges = sorted(
                (e.relation_id, e.character, e.entity, e.relation_type, e.interval.start, e.interval.end)
                for e in self.edges()
            )
            self._digest = hashlib.sha256(repr((sorted(self._vertices), edges)).encode("utf-8")).hexdigest()
        return self._digest

    # -- lookups ----------------------------------------------------------

    def vertex(self, vertex_id: str) -> Vertex:
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise UnknownVertexError(vertex_id) from None

    def has_vertex(self, vertex_id: str) -> bool:
        return vertex_id in self._vertices

    def vertices(self, kind: VertexKind | None = None) -> list[Vertex]:
        if kind is None:
            return list(self._vertices.values())
        return [v for v in self._vertices.values() if v.kind is kind]

    def character_ids(self) -> list[str]:
        return sorted(v.id for v in self._vertices.values() if v.kind is VertexKind.CHARACTER)

    def entity_ids(self) -> list[str]:
        return sorted(v.id for v in self._vertices.values() if v.kind is VertexKind.ENTITY)

    def relation_types(self) -> list[str]:
        """Declared relation types, in declaration / first-seen order."""
        return list(self._subnetworks)

    def subnetwork(self, relation_type: str) -> TemporalActivityNetwork:
        try:
            return self._subnetworks[relation_type]
        except KeyError:
            raise GraphError(f"no subnetwork for relation type {relation_type!r}") from None

    def subnetworks(self) -> list[TemporalActivityNetwork]:
        return list(self._subnetworks.values())

    def edges(self) -> Iterator[TemporalEdge]:
        for tan in self._subnetworks.values():
            yield from tan.edges()

    @property
    def edge_count(self) -> int:
        return sum(len(t) for t in self._subnetworks.values())

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    def vertex_type_labels(self) -> set[str]:
        return {v.type_label for v in self._vertices.values()}

    def max_end(self) -> int | None:
        """Latest end time over all edges; the default `now` anchor."""
        return max((e.interval.end for e in self.edges()), default=None)

    def neighbor_counts(self, character: str, relation_type: str) -> Counter[str]:
        tan = self._subnetworks.get(relation_type)
        if tan is None:
            return Counter()
        return tan.neighbor_counts(character)

    def validate(self) -> None:
        """Check the heterogeneity requirement: >= 2 vertex types, >= 1 relation type."""
        labels = self.vertex_type_labels()
        if len(labels) < 2:
            raise HeterogeneityError(f"need at least 2 vertex type labels, have {sorted(labels)}")
        if not self._subnetworks:
            raise HeterogeneityError("need at least 1 relation type")


@dataclass(frozen=True)
class OneModeRelation:
    """A derived character-to-character tie, with provenance.

    One relation exists per (shared entity, edge pair). Endpoints are
    canonically ordered so the projection is symmetric by construction.
    """

    a: str
    b: str
    entity: str
    relation_type: str
    edge_a: str
    edge_b: str


@dataclass
class OneModeNetwork:
    characters: list[str]
    relations: list[OneModeRelation] = field(default_factory=list)

    def multiplicity(self, x: str, y: str) -> int:
        lo, hi = min(x, y), max(x, y)
        return sum(1 for rel in self.relations if rel.a == lo and rel.b == hi)

    def neighbors(self, x: str) -> set[str]:
        out = set()
        for rel in self.relations:
            if rel.a == x:
                out.add(rel.b)
            elif rel.b == x:
                out.add(rel.a)
        return out


def project_one_mode(bundle: NetworkBundle) -> OneModeNetwork:
    """Project the 2-mode bundle onto its character vertices.

    For every entity shared by two distinct characters, each cross pair
    of their incident edges induces one relation, so co-activity
    multiplicity is preserved (two stints alongside one stint yield two
    ties, not one).
    """
    relations: list[OneModeRelation] = []
    for tan in bundle.subnetworks():
        by_entity: dict[str, dict[str, list[TemporalEdge]]] = {}
        for edge in tan.edges():
            by_entity.setdefault(edge.entity, {}).setdefault(edge.character, []).append(edge)
        for entity, per_character in by_entity.items():
            chars = sorted(per_character)
            for i, x in enumerate(chars):
                for y in chars[i + 1 :]:
                    for ex in per_character[x]:
                        for ey in per_character[y]:
                            relations.append(
                                OneModeRelation(x, y, entity, tan.relation_type, ex.relation_id, ey.relation_id)
                            )
    relations.sort(key=lambda r: (r.a, r.b, r.entity, r.relation_type, r.edge_a, r.edge_b))
    return OneModeNetwork(characters=bundle.character_ids(), relations=relations)


def rebuild(
    vertices: Iterable[Vertex],
    edges: Iterable[TemporalEdge],
    relation_types: Iterable[str],
) -> NetworkBundle:
    """Assemble a sealed bundle from explicit vertices and edges.

    Ids are preserved verbatim and the edge objects themselves are
    stored, so the result shares them with the bundle they came from;
    tests and benchmark generators use it to derive new bundles from
    existing ones. An edge with a tuple interval or a ``None`` relation
    id is stored as a completed copy.
    """
    bundle = NetworkBundle()
    for beta in relation_types:
        bundle.declare_relation_type(beta)
    for v in vertices:
        bundle.add_vertex(v.kind, v.type_label, v.display_name, vertex_id=v.id)
    for e in edges:
        span, relation_id = bundle._register(e.character, e.entity, e.relation_type, e.interval, e.relation_id)
        if span is not e.interval or relation_id is not e.relation_id:
            e = TemporalEdge(relation_id, e.character, e.entity, e.relation_type, span)
        bundle._subnetworks[e.relation_type]._add(e)
    return bundle.seal()
