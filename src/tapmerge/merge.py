"""Collapse confirmed duplicate groups into a corrected bundle.

Each group keeps one representative (the smallest id, for determinism;
provenance keeps every absorbed name reachable). An absorbed vertex's
edge is dropped when the representative already carries the identical
(entity, relation type, interval) fact, and transferred otherwise, so
near-duplicates that disagree on a date lose nothing. Merging operates
on the 2-mode bundle; the 1-mode projection is recomputed afterwards by
callers that need it.
"""

from __future__ import annotations

import json
from operator import attrgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .graph import GraphError, NetworkBundle, TemporalEdge, VertexKind

_Fact = tuple[str, str, int, int]  # (entity, relation type, start, end)


class MergeError(GraphError):
    pass


class StalePlanError(MergeError):
    """The plan was built against a different bundle."""


class GroupPlan(NamedTuple):
    representative: str
    absorbed: tuple[str, ...]
    # sorted relation ids of the absorbed edges whose fact the group already
    # holds; every other edge of an absorbed member transfers
    dropped: tuple[str, ...]


class MergePlan(NamedTuple):
    groups: list[GroupPlan]
    # the sealed bundle the plan was built on; `apply_merge` compares
    # content digests only when handed a different bundle
    source: NetworkBundle

    def __repr__(self) -> str:
        # a bundle's repr is only its address
        return f"MergePlan(groups={self.groups!r})"

    @property
    def removed_vertex_count(self) -> int:
        return sum(len(g.absorbed) for g in self.groups)


class MergeAudit(NamedTuple):
    removed_vertices: int
    dropped_edges: int
    transferred_edges: int
    mapping: dict[str, str]

    def to_dict(self) -> dict:
        return {
            "removed_vertices": self.removed_vertices,
            "dropped_edges": self.dropped_edges,
            "transferred_edges": self.transferred_edges,
            "mapping": dict(sorted(self.mapping.items())),
        }


class MergedNetwork(NamedTuple):
    bundle: NetworkBundle
    audit: MergeAudit


class Violation(NamedTuple):
    kind: str
    detail: str


class VerificationReport:
    def __init__(self) -> None:
        self.violations: list[Violation] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, detail: str) -> None:
        self.violations.append(Violation(kind, detail))


def _edge_fact(edge: TemporalEdge) -> _Fact:
    return (edge.entity, edge.relation_type, edge.interval.start, edge.interval.end)


def _fact_index(bundle: NetworkBundle, characters: Iterable[str]) -> dict[str, list[tuple[_Fact, str]]]:
    """Each listed character's sorted (fact, relation id) list over every subnetwork; none if it has no edges."""
    index: dict[str, list[tuple[_Fact, str]]] = {}
    for character in dict.fromkeys(characters):
        facts = [
            (_edge_fact(edge), edge.relation_id)
            for tan in bundle.subnetworks()
            for edge in tan.edges_of_character(character)
        ]
        if facts:
            index[character] = sorted(facts)
    return index


def plan_merge(bundle: NetworkBundle, groups: Sequence[Sequence[str]]) -> MergePlan:
    """Decide, per group, who survives and which absorbed edges are dropped.

    Absorbed vertices are processed in id order; a transferred fact
    counts as already present for the next duplicate of it, so the
    representative ends up with each distinct fact exactly once on top
    of its own edges.
    """
    if not bundle.sealed:
        raise GraphError("merge plan of an unsealed bundle; seal it first")
    seen: set[str] = set()
    plans: list[GroupPlan] = []
    for group in sorted((sorted(set(g)) for g in groups), key=lambda g: g[0] if g else ""):
        if len(group) < 2:
            continue
        for member in group:
            if member in seen:
                raise MergeError(f"vertex {member!r} appears in more than one group")
            seen.add(member)
            if bundle.vertex(member).kind is not VertexKind.CHARACTER:
                raise MergeError(f"cannot merge non-character vertex {member!r}")
        representative, absorbed = group[0], tuple(group[1:])
        index = _fact_index(bundle, group)
        known_facts = {fact for fact, _ in index.get(representative, ())}
        dropped = []
        for duplicate in absorbed:
            for fact, relation_id in index.get(duplicate, ()):
                if fact in known_facts:
                    dropped.append(relation_id)
                else:
                    known_facts.add(fact)
        plans.append(GroupPlan(representative, absorbed, tuple(sorted(dropped))))
    return MergePlan(groups=plans, source=bundle)


def _require_character(bundle: NetworkBundle, vertex_id: str, role: str) -> None:
    """Fail unless the plan member `vertex_id`, named by `role` when missing, is a character of `bundle`."""
    if not bundle.has_vertex(vertex_id):
        raise StalePlanError(f"{role} {vertex_id!r} missing from bundle")
    if bundle.vertex(vertex_id).kind is not VertexKind.CHARACTER:
        raise MergeError(f"cannot merge non-character vertex {vertex_id!r}")


def apply_merge(bundle: NetworkBundle, plan: MergePlan) -> MergedNetwork:
    """Produce the corrected bundle with every absorbed vertex removed.

    Every group member must be a character of `bundle`, and every
    dropped relation id an edge of an absorbed member. Only the group
    members' edges are visited: the result shares every subnetwork, edge
    list and edge that no absorbed vertex touches with `bundle`. The
    content digests are compared, and so computed, only when `bundle` is
    not the bundle the plan was built on.
    """
    if bundle is not plan.source and bundle.content_digest() != plan.source.content_digest():
        raise StalePlanError("plan was computed against a different bundle")

    mapping: dict[str, str] = {}
    dropped: set[str] = set()
    for group in plan.groups:
        _require_character(bundle, group.representative, "representative")
        for duplicate in group.absorbed:
            _require_character(bundle, duplicate, "absorbed vertex")
            if duplicate in mapping:
                raise MergeError(f"vertex {duplicate!r} appears in more than one group")
            mapping[duplicate] = group.representative
        dropped.update(group.dropped)
    for group in plan.groups:
        if group.representative in mapping:
            raise StalePlanError(f"representative {group.representative!r} is absorbed by another group")

    merged, transferred = bundle._derive(mapping, dropped)
    # relation ids are unique, so each dropped id that is an absorbed edge removes one edge
    unknown = len(dropped) - (bundle.edge_count - merged.edge_count)
    if unknown:
        raise StalePlanError(f"{unknown} of the plan's {len(dropped)} dropped relation ids are no absorbed edge")
    audit = MergeAudit(
        removed_vertices=len(mapping),
        dropped_edges=len(dropped),
        transferred_edges=transferred,
        mapping=mapping,
    )
    return MergedNetwork(bundle=merged, audit=audit)


def _facts_by_entity(index: dict[str, list[tuple[_Fact, str]]], characters: Sequence[str]) -> dict[str, set]:
    """Distinct (relation type, start, end) facts of the characters, per entity."""
    out: dict[str, set] = {}
    for character in characters:
        for (entity, relation_type, start, end), _ in index.get(character, ()):
            out.setdefault(entity, set()).add((relation_type, start, end))
    return out


def verify_merge(before: NetworkBundle, after: NetworkBundle, plan: MergePlan) -> VerificationReport:
    """Re-check the merge postconditions from scratch; empty report on success.

    A character outside every group passes the edge multiset check at
    once when each of its edge lists equals its list in `before`; only
    group members and characters whose lists differ have their facts
    indexed and compared.
    """
    report = VerificationReport()

    expected_removed = plan.removed_vertex_count
    if after.vertex_count != before.vertex_count - expected_removed:
        report.add(
            "vertex count mismatch",
            f"expected {before.vertex_count - expected_removed} vertices, found {after.vertex_count}",
        )

    absorbed = {dup for group in plan.groups for dup in group.absorbed}
    for vid in absorbed:
        if after.has_vertex(vid):
            report.add("absorbed vertex present", f"{vid} survived the merge")

    # endpoints are checked at C speed; only a missing one walks the edges to name them in order
    vertex_ids = {vertex.id for vertex in after.vertices()}
    endpoints = (attrgetter("character"), attrgetter("entity"))
    if not all(set(map(get, tan.edges())) <= vertex_ids for tan in after.subnetworks() for get in endpoints):
        for edge in after.edges():
            if edge.character not in vertex_ids or edge.entity not in vertex_ids:
                report.add("dangling endpoint", f"edge {edge.relation_id} references a missing vertex")

    # per-character edge multisets: untouched characters keep theirs exactly,
    # representatives gain exactly the transferred facts
    representatives = {group.representative for group in plan.groups}
    changed = before.changed_paths(after)
    checked = [
        vertex.id
        for vertex in before.vertices(VertexKind.CHARACTER)
        if vertex.id not in absorbed and (vertex.id in changed or vertex.id in representatives)
    ]
    before_index = _fact_index(before, [*checked, *representatives, *absorbed])
    after_index = _fact_index(after, [*checked, *representatives])
    expected_facts = {vid: [fact for fact, _ in before_index.get(vid, ())] for vid in checked}
    for group in plan.groups:
        dropped = set(group.dropped)
        absorbed_facts = [entry for duplicate in group.absorbed for entry in before_index.get(duplicate, ())]
        for relation_id in sorted(dropped.difference(relation_id for _, relation_id in absorbed_facts)):
            report.add(
                "neighbor degree mismatch",
                f"plan drops {relation_id}, which is not an edge of an absorbed vertex of {group.representative}",
            )
        # a representative that is no surviving character of `before`
        # has no expected facts; the checks below report it
        if group.representative in expected_facts:
            expected_facts[group.representative] += [fact for fact, rid in absorbed_facts if rid not in dropped]
    for vid, expected in expected_facts.items():
        post = [fact for fact, _ in after_index.get(vid, ())]
        if sorted(expected) != post:
            report.add("neighbor degree mismatch", f"edge multiset of character {vid} changed")

    # the representative carries the group's distinct facts, nothing lost
    for group in plan.groups:
        pre_by_entity = _facts_by_entity(before_index, [group.representative, *group.absorbed])
        post_by_entity = _facts_by_entity(after_index, [group.representative])
        for entity in sorted(pre_by_entity):
            pre_facts, post_facts = pre_by_entity[entity], post_by_entity.get(entity, set())
            if pre_facts != post_facts:
                report.add(
                    "entity fact mismatch",
                    f"facts between {entity} and group of {group.representative} changed: "
                    f"{sorted(pre_facts)} -> {sorted(post_facts)}",
                )

    # every representative is a character vertex of the input and still one of the result
    for group in plan.groups:
        representative = group.representative
        for bundle, role in ((before, "input"), (after, "result")):
            if not bundle.has_vertex(representative) or bundle.vertex(representative).kind is not VertexKind.CHARACTER:
                report.add(
                    "representative not a character", f"{representative} is not a character vertex of the {role}"
                )
    return report


def write_merge_audit(audit: MergeAudit, path: str | Path) -> None:
    Path(path).write_text(json.dumps(audit.to_dict(), indent=2) + "\n", encoding="utf-8")
