"""Collapse confirmed duplicate groups into a corrected bundle.

Each group keeps one representative (the smallest id, for determinism;
provenance keeps every absorbed name reachable). A plan names only who
merges. Applying it drops an absorbed edge when the group already holds
the identical (entity, relation type, interval) fact, and transfers it
otherwise, so near-duplicates that disagree on a date lose nothing and
no plan can lose a fact. Planning, applying and verifying hold a plan
to one membership rule, so `verify_merge` refuses, with `apply_merge`'s
error, any plan that `apply_merge` refuses. Merging operates on the
2-mode bundle; the 1-mode projection is recomputed afterwards by
callers that need it.
"""

from __future__ import annotations

import json
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import NamedTuple, Sequence

from .graph import GraphError, NetworkBundle, VertexKind

_Fact = tuple[str, str, int, int]  # (entity, relation type, start, end)


class MergeError(GraphError):
    pass


class StalePlanError(MergeError):
    """The plan was built against a different bundle."""


class GroupPlan(NamedTuple):
    """One group: the character that survives and the characters it absorbs, in merge order."""

    representative: str
    absorbed: tuple[str, ...]


class MergePlan(NamedTuple):
    """The groups of one merge, and the sealed bundle they were planned on: the only bundle the plan merges."""

    groups: list[GroupPlan]
    source: NetworkBundle

    def __repr__(self) -> str:
        # a bundle's repr is only its address
        return f"MergePlan(groups={self.groups!r})"


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


def _character_facts(bundle: NetworkBundle, character: str) -> list[_Fact]:
    """The character's sorted facts over every subnetwork."""
    return sorted(
        (edge.entity, edge.relation_type, edge.interval.start, edge.interval.end)
        for tan in bundle.subnetworks()
        for edge in tan.edges_of_character(character)
    )


def _absorbed_by(bundle: NetworkBundle, groups: Sequence[GroupPlan]) -> dict[str, str]:
    """Map each absorbed id of `groups` to its representative, in plan order.

    The one membership rule of :func:`plan_merge`, :func:`apply_merge`
    and :func:`verify_merge`: every member must be a character of
    `bundle`, and no id may appear twice in the plan, whether in two
    groups or twice in one.
    """
    group_of: dict[str, int] = {}
    mapping: dict[str, str] = {}
    for i, (representative, absorbed) in enumerate(groups):
        for member, role in ((representative, "representative"), *((a, "absorbed vertex") for a in absorbed)):
            if not bundle.has_vertex(member):
                raise StalePlanError(f"{role} {member!r} missing from bundle")
            if bundle.vertex(member).kind is not VertexKind.CHARACTER:
                raise MergeError(f"cannot merge non-character vertex {member!r}")
            if member in group_of:
                where = "more than one group" if group_of[member] != i else f"the group of {representative!r} twice"
                raise MergeError(f"vertex {member!r} appears in {where}")
            group_of[member] = i
        mapping.update(dict.fromkeys(absorbed, representative))
    return mapping


def plan_merge(bundle: NetworkBundle, groups: Sequence[Sequence[str]]) -> MergePlan:
    """Name, per group of two or more, who survives and who is absorbed.

    The smallest id survives and absorbs the others in id order, and the
    groups follow their representatives' order. Every member must be a
    character of `bundle` in no other group. No edge is read:
    :func:`apply_merge` decides which absorbed edges are dropped. The
    plan merges only `bundle` itself.
    """
    if not bundle.sealed:
        raise GraphError("merge plan of an unsealed bundle; seal it first")
    members = sorted((sorted(set(g)) for g in groups), key=lambda g: g[0] if g else "")
    plans = [GroupPlan(group[0], tuple(group[1:])) for group in members if len(group) > 1]
    _absorbed_by(bundle, plans)
    return MergePlan(groups=plans, source=bundle)


def apply_merge(bundle: NetworkBundle, plan: MergePlan) -> MergedNetwork:
    """Produce the corrected bundle with every absorbed vertex removed.

    `bundle` must be the bundle the plan was made on; an equal copy is
    refused too. The plan must also pass :func:`plan_merge`'s membership
    rule. Either failure raises before any edge moves. The
    representative keeps its own edges and gains each fact of its
    absorbed members that it lacked, once, as
    :meth:`NetworkBundle._derive` decides. Only the group members' edges
    are visited: the result shares every subnetwork, edge list and edge
    that no absorbed vertex touches with `bundle`.
    """
    if bundle is not plan.source:
        raise StalePlanError("plan was computed against a different bundle")
    mapping = _absorbed_by(bundle, plan.groups)
    merged, dropped, transferred = bundle._derive(mapping)
    audit = MergeAudit(
        removed_vertices=len(mapping),
        dropped_edges=dropped,
        transferred_edges=transferred,
        mapping=mapping,
    )
    return MergedNetwork(bundle=merged, audit=audit)


def verify_merge(before: NetworkBundle, after: NetworkBundle, plan: MergePlan) -> VerificationReport:
    """Re-check the merge postconditions from scratch; empty report on success.

    The plan must pass the one membership rule of :func:`apply_merge`
    on `before`: a plan it refuses raises the same `StalePlanError` or
    `MergeError`, with the same text, and no fact is checked. A
    character outside every group passes the edge multiset check at
    once when each of its edge lists equals its list in `before`. Each
    group is then checked on its own, holding only its own facts: its
    representative's fact list must be its own facts plus each fact of
    its absorbed members that it lacked, once, as worked out from
    `before` alone. Only a list that differs is explained, by each
    entity whose facts changed: equal lists hold equal facts per entity.
    """
    mapping = _absorbed_by(before, plan.groups)
    report = VerificationReport()

    expected_vertices = before.vertex_count - len(mapping)
    if after.vertex_count != expected_vertices:
        report.add("vertex count mismatch", f"expected {expected_vertices} vertices, found {after.vertex_count}")

    for vid in mapping:
        if after.has_vertex(vid):
            report.add("absorbed vertex present", f"{vid} survived the merge")

    # endpoints are checked at C speed, a subnetwork's characters as its path keys; only
    # a missing one walks the edges to name them in order
    vertex_ids = {vertex.id for vertex in after.vertices()}
    entity = attrgetter("entity")
    if not all(
        tan._by_character.keys() <= vertex_ids and set(map(entity, tan.edges())) <= vertex_ids
        for tan in after.subnetworks()
    ):
        for edge in after.edges():
            if edge.character not in vertex_ids or edge.entity not in vertex_ids:
                report.add("dangling endpoint", f"edge {edge.relation_id} references a missing vertex")

    # a character outside every group keeps its edge multiset exactly
    members = mapping.keys() | {group.representative for group in plan.groups}
    changed = before.changed_paths(after)
    for vertex in before.vertices(VertexKind.CHARACTER):
        vid = vertex.id
        if vid in changed and vid not in members and _character_facts(before, vid) != _character_facts(after, vid):
            report.add("neighbor degree mismatch", f"edge multiset of character {vid} changed")

    for representative, absorbed in plan.groups:
        own, post = _character_facts(before, representative), _character_facts(after, representative)
        # the representative gains each absorbed fact it lacked, once
        gained = {fact for duplicate in absorbed for fact in _character_facts(before, duplicate)}.difference(own)
        expected = sorted([*own, *gained])
        if expected != post:
            report.add("neighbor degree mismatch", f"edge multiset of character {representative} changed")
            pre_by_entity, post_by_entity = (
                {entity: {fact[1:] for fact in facts} for entity, facts in groupby(found, itemgetter(0))}
                for found in (expected, post)
            )
            for entity, pre_facts in pre_by_entity.items():
                post_facts = post_by_entity.get(entity, set())
                if pre_facts != post_facts:
                    report.add(
                        "entity fact mismatch",
                        f"facts between {entity} and group of {representative} changed: "
                        f"{sorted(pre_facts)} -> {sorted(post_facts)}",
                    )

        # the representative is still a character vertex of the result
        if not (after.has_vertex(representative) and after.vertex(representative).kind is VertexKind.CHARACTER):
            report.add("representative not a character", f"{representative} is not a character vertex of the result")
    return report


def write_merge_audit(audit: MergeAudit, path: str | Path) -> None:
    Path(path).write_text(json.dumps(audit.to_dict(), indent=2) + "\n", encoding="utf-8")
