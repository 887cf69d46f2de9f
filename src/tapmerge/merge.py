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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Literal, Sequence

from .graph import GraphError, NetworkBundle, TemporalEdge, VertexKind

Disposition = Literal["drop-as-duplicate", "transfer-to-representative"]
_Fact = tuple[str, str, int, int]  # (entity, relation type, start, end)


class MergeError(GraphError):
    pass


class StalePlanError(MergeError):
    """The plan was built against a different bundle."""


@dataclass(frozen=True)
class EdgeDisposition:
    relation_id: str
    action: Disposition


@dataclass(frozen=True)
class GroupPlan:
    representative: str
    absorbed: tuple[str, ...]
    dispositions: dict[str, tuple[EdgeDisposition, ...]]


@dataclass
class MergePlan:
    groups: list[GroupPlan]
    # the sealed bundle the plan was built on; `apply_merge` compares
    # content digests only when handed a different bundle
    source: NetworkBundle = field(compare=False, repr=False)

    @property
    def removed_vertex_count(self) -> int:
        return sum(len(g.absorbed) for g in self.groups)


@dataclass
class MergeAudit:
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


@dataclass
class MergedNetwork:
    bundle: NetworkBundle
    audit: MergeAudit


@dataclass
class Violation:
    kind: str
    detail: str


@dataclass
class VerificationReport:
    violations: list[Violation] = field(default_factory=list)

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
    """Decide, per group, who survives and what happens to each absorbed edge.

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
        dispositions: dict[str, tuple[EdgeDisposition, ...]] = {}
        for duplicate in absorbed:
            decided = []
            for fact, relation_id in index.get(duplicate, ()):
                if fact in known_facts:
                    decided.append(EdgeDisposition(relation_id, "drop-as-duplicate"))
                else:
                    known_facts.add(fact)
                    decided.append(EdgeDisposition(relation_id, "transfer-to-representative"))
            dispositions[duplicate] = tuple(decided)
        plans.append(GroupPlan(representative, absorbed, dispositions))
    return MergePlan(groups=plans, source=bundle)


def apply_merge(bundle: NetworkBundle, plan: MergePlan) -> MergedNetwork:
    """Produce the corrected bundle with every absorbed vertex removed.

    Only the group members' edges are visited: the result shares every
    subnetwork, edge list and edge that no absorbed vertex touches with
    `bundle` (:meth:`NetworkBundle.derive`). The content digests are
    compared, and so computed, only when `bundle` is not the bundle the
    plan was built on.
    """
    if bundle is not plan.source and bundle.content_digest() != plan.source.content_digest():
        raise StalePlanError("plan was computed against a different bundle")

    mapping: dict[str, str] = {}
    dropped: set[str] = set()
    transferred = 0
    for group in plan.groups:
        if not bundle.has_vertex(group.representative):
            raise StalePlanError(f"representative {group.representative!r} missing from bundle")
        for duplicate in group.absorbed:
            if not bundle.has_vertex(duplicate):
                raise StalePlanError(f"absorbed vertex {duplicate!r} missing from bundle")
            if duplicate in mapping:
                raise MergeError(f"vertex {duplicate!r} appears in more than one group")
            mapping[duplicate] = group.representative
            actions = {d.relation_id: d.action for d in group.dispositions.get(duplicate, ())}
            for tan in bundle.subnetworks():
                for edge in tan.edges_of_character(duplicate):
                    action = actions.get(edge.relation_id)
                    if action is None:
                        raise StalePlanError(f"edge {edge.relation_id!r} of an absorbed vertex has no disposition")
                    if action == "drop-as-duplicate":
                        dropped.add(edge.relation_id)
                    else:
                        transferred += 1
    for group in plan.groups:
        if group.representative in mapping:
            raise StalePlanError(f"representative {group.representative!r} is absorbed by another group")

    audit = MergeAudit(
        removed_vertices=len(mapping),
        dropped_edges=len(dropped),
        transferred_edges=transferred,
        mapping=mapping,
    )
    return MergedNetwork(bundle=bundle.derive(mapping, dropped), audit=audit)


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

    vertex_ids = {vertex.id for vertex in after.vertices()}
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
        for duplicate in group.absorbed:
            facts = {relation_id: fact for fact, relation_id in before_index.get(duplicate, ())}
            for disposition in group.dispositions.get(duplicate, ()):
                if disposition.action != "transfer-to-representative":
                    continue
                if disposition.relation_id in facts:
                    expected_facts[group.representative].append(facts[disposition.relation_id])
                else:
                    report.add(
                        "neighbor degree mismatch",
                        f"plan transfers {disposition.relation_id}, which is not an edge of {duplicate}",
                    )
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

    # every representative is still a character vertex of the result
    for group in plan.groups:
        representative = group.representative
        if not after.has_vertex(representative) or after.vertex(representative).kind is not VertexKind.CHARACTER:
            report.add("representative not a character", f"{representative} is not a character vertex of the result")
    return report


def write_merge_audit(audit: MergeAudit, path: str | Path) -> None:
    Path(path).write_text(json.dumps(audit.to_dict(), indent=2) + "\n", encoding="utf-8")
