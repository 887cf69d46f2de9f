"""A merge worked out from the drop rule alone: a referee for `plan_merge` and `apply_merge`.

`merge_by_rule` decides each drop from a group's facts, and
`merged_edges` orders the kept edges as a merged bundle's `edges()`
does. Neither reads a plan or calls into `tapmerge.merge`, so the
merge tests and the merge state machine can hold `apply_merge` to them.
"""

from __future__ import annotations

from tapmerge import NetworkBundle, TemporalEdge, rebuild


def merged_edges(bundle: NetworkBundle, mapping: dict[str, str], dropped: set[str]) -> list[TemporalEdge]:
    """The edges a merge keeps, in the order of the merged bundle's `edges()`.

    `mapping` takes each absorbed member to its representative, in plan
    order. In each subnetwork an absorbed member's edge is left out when
    its relation id is dropped, and otherwise moved to the end of its
    representative's path, which keeps the representative's place or,
    when the representative had no edge there, comes after every other
    character's path.
    """
    edges = []
    for tan in bundle.subnetworks():
        paths: dict[str, list[TemporalEdge]] = {}
        for edge in tan.edges():
            paths.setdefault(edge.character, []).append(edge)
        for member, representative in mapping.items():
            kept = [e._replace(character=representative) for e in paths.pop(member, ()) if e.relation_id not in dropped]
            if kept:
                paths[representative] = paths.get(representative, []) + kept
        edges += [edge for path in paths.values() for edge in path]
    return edges


def merge_by_rule(bundle: NetworkBundle, groups) -> tuple[NetworkBundle, dict, set[str]]:
    """The merged bundle, its audit counts and the dropped relation ids, from the rule alone.

    Each group of two or more collapses onto its smallest id. Taking the
    absorbed edges in (member id, relation id) order, an edge is dropped
    exactly when its (entity, relation type, interval) fact is held by
    the representative or by an earlier absorbed edge, and otherwise
    kept under the representative as `merged_edges` orders it, with the
    groups in order of their representatives and each group's members
    in id order.
    """
    def fact(edge):
        return edge.entity, edge.relation_type, edge.interval

    mapping, dropped = {}, set()
    for group in groups:
        representative, *absorbed = sorted(set(group))
        held = {fact(e) for e in bundle.edges() if e.character == representative}
        for edge in sorted(
            (e for e in bundle.edges() if e.character in absorbed), key=lambda e: (e.character, e.relation_id)
        ):
            if fact(edge) in held:
                dropped.add(edge.relation_id)
            held.add(fact(edge))
        mapping.update((member, representative) for member in absorbed)
    edges = merged_edges(bundle, dict(sorted(mapping.items(), key=lambda item: (item[1], item[0]))), dropped)
    vertices = [v for v in bundle.vertices() if v.id not in mapping]
    counts = {
        "removed_vertices": len(mapping),
        "dropped_edges": len(dropped),
        "transferred_edges": sum(1 for e in bundle.edges() if e.character in mapping) - len(dropped),
        "mapping": mapping,
    }
    return rebuild(vertices, edges, bundle.relation_types()), counts, dropped
