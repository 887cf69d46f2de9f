"""Merge planning, application, conservation, and verification."""

from __future__ import annotations

import random

import pytest

from tapmerge import NetworkBundle, TemporalEdge, Vertex, VertexKind, apply_merge, plan_merge, rebuild, verify_merge
from tapmerge.graph import GraphError, TimeInterval
from tapmerge.merge import EdgeDisposition, MergeError, StalePlanError
from tapmerge.testkit import PlantMode, RandomBundleSpec, fully_active_characters, generate, plant_duplicates

from conftest import ClubNet


def clone_trio_bundle() -> NetworkBundle:
    bundle = NetworkBundle()
    people = [bundle.add_vertex(VertexKind.CHARACTER, "person", f"clone {i}") for i in range(3)]
    clubs = [bundle.add_vertex(VertexKind.ENTITY, "club", f"club {i}") for i in range(3)]
    for person in people:
        for entity in clubs:
            bundle.add_edge(person, entity, "member", (2001, 2003))
    return bundle.seal()


def edge_facts(bundle: NetworkBundle, character: str) -> set[tuple]:
    return {
        (bundle.vertex(e.entity).display_name, e.relation_type, e.interval.start, e.interval.end)
        for e in bundle.edges()
        if e.character == character
    }


def test_plan_for_the_wu_pair_transfers_only_the_diverging_stint(scholars_bundle, scholar_ids):
    faye, fei = scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]
    plan = plan_merge(scholars_bundle, [[faye, fei]])
    group = plan.groups[0]
    assert group.representative == min(faye, fei)
    actions = {d.action for d in group.dispositions[max(faye, fei)]}
    transfers = [
        d for d in group.dispositions[max(faye, fei)] if d.action == "transfer-to-representative"
    ]
    assert actions == {"drop-as-duplicate", "transfer-to-representative"}
    assert len(transfers) == 1
    transferred = next(
        e for e in scholars_bundle.edges() if e.relation_id == transfers[0].relation_id
    )
    assert scholars_bundle.vertex(transferred.entity).display_name == "Jinan Univ."
    assert (transferred.interval.start, transferred.interval.end) == (2000, 2000)


def test_exact_clones_drop_every_absorbed_edge():
    bundle = clone_trio_bundle()
    people = bundle.character_ids()
    plan = plan_merge(bundle, [people])
    for absorbed in plan.groups[0].absorbed:
        assert all(d.action == "drop-as-duplicate" for d in plan.groups[0].dispositions[absorbed])


def test_empty_group_set_is_a_no_op(club: ClubNet):
    plan = plan_merge(club.bundle, [])
    merged = apply_merge(club.bundle, plan)
    assert merged.bundle.vertex_count == club.bundle.vertex_count
    assert merged.bundle.edge_count == club.bundle.edge_count
    assert merged.audit.removed_vertices == 0
    assert verify_merge(club.bundle, merged.bundle, plan).ok


def test_overlapping_groups_rejected(scholars_bundle, scholar_ids):
    faye, fei = scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]
    jia = scholar_ids["ShaoJia Zhu"]
    with pytest.raises(MergeError, match="more than one group"):
        plan_merge(scholars_bundle, [[faye, fei], [fei, jia]])


def test_merging_the_clone_trio_keeps_one_person_three_ties():
    bundle = clone_trio_bundle()
    merged = apply_merge(bundle, plan_merge(bundle, [bundle.character_ids()]))
    assert len(merged.bundle.character_ids()) == 1
    assert len(merged.bundle.entity_ids()) == 3
    assert merged.bundle.edge_count == 3
    assert merged.audit.removed_vertices == 2
    assert merged.audit.dropped_edges == 6
    assert merged.audit.transferred_edges == 0


def test_vertex_count_drops_by_group_sizes_minus_groups(scholars_bundle, scholar_ids):
    groups = [
        [scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]],
        [scholar_ids["ShaoJia Zhu"], scholar_ids["ShaoNan Zhu"]],
    ]
    plan = plan_merge(scholars_bundle, groups)
    merged = apply_merge(scholars_bundle, plan)
    assert merged.bundle.vertex_count == scholars_bundle.vertex_count - 2
    report = verify_merge(scholars_bundle, merged.bundle, plan)
    assert report.ok, [f"{v.kind}: {v.detail}" for v in report.violations]


def test_representative_keeps_the_union_of_distinct_facts(scholars_bundle, scholar_ids):
    faye, fei = scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]
    plan = plan_merge(scholars_bundle, [[faye, fei]])
    merged = apply_merge(scholars_bundle, plan)
    representative = plan.groups[0].representative
    expected = edge_facts(scholars_bundle, faye) | edge_facts(scholars_bundle, fei)
    assert edge_facts(merged.bundle, representative) == expected


def test_merge_is_idempotent(scholars_bundle, scholar_ids):
    faye, fei = scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]
    merged = apply_merge(scholars_bundle, plan_merge(scholars_bundle, [[faye, fei]]))
    again = apply_merge(merged.bundle, plan_merge(merged.bundle, []))
    assert again.bundle.vertex_count == merged.bundle.vertex_count
    assert sorted(e.relation_id for e in again.bundle.edges()) == sorted(
        e.relation_id for e in merged.bundle.edges()
    )


def test_plan_and_result_ignore_group_listing_order(scholars_bundle, scholar_ids):
    groups = [
        [scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]],
        [scholar_ids["ShaoJia Zhu"], scholar_ids["ShaoNan Zhu"]],
    ]
    forward = apply_merge(scholars_bundle, plan_merge(scholars_bundle, groups))
    backward = apply_merge(scholars_bundle, plan_merge(scholars_bundle, [groups[1][::-1], groups[0][::-1]]))
    assert forward.audit.mapping == backward.audit.mapping
    assert sorted(e.relation_id for e in forward.bundle.edges()) == sorted(
        e.relation_id for e in backward.bundle.edges()
    )


def test_stale_plan_detected(scholars_bundle, scholar_ids, club: ClubNet):
    plan = plan_merge(scholars_bundle, [[scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]]])
    with pytest.raises(StalePlanError):
        apply_merge(club.bundle, plan)


def test_stale_plan_detected_when_counts_match_but_a_fact_differs():
    def c2_works_at_e1(interval):
        bundle = NetworkBundle()
        for cid in ("c1", "c2"):
            bundle.add_vertex(VertexKind.CHARACTER, "person", "Wu", vertex_id=cid)
        bundle.add_vertex(VertexKind.ENTITY, "institution", "Inst", vertex_id="e1")
        bundle.add_edge("c1", "e1", "work", (2000, 2005), relation_id="r1")
        bundle.add_edge("c2", "e1", "work", interval, relation_id="r2")
        return bundle.seal()

    # c2's 2000-2005 stint duplicates c1's, so the plan drops it
    plan = plan_merge(c2_works_at_e1((2000, 2005)), [["c1", "c2"]])
    assert apply_merge(c2_works_at_e1((2000, 2005)), plan).audit.dropped_edges == 1
    # same vertex and edge counts, but dropping the 2003-2008 stint would lose a fact
    with pytest.raises(StalePlanError):
        apply_merge(c2_works_at_e1((2003, 2008)), plan)


def test_verification_reports_every_kind_of_corruption(scholars_bundle, scholar_ids):
    faye, fei = scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]
    plan = plan_merge(scholars_bundle, [[faye, fei]])
    merged = apply_merge(scholars_bundle, plan).bundle
    representative = plan.groups[0].representative
    absorbed = plan.groups[0].absorbed[0]
    vertices, edges = merged.vertices(), list(merged.edges())
    rep_edges = [e for e in edges if e.character == representative]
    other_edges = [e for e in edges if e.character != representative]
    shifted = rep_edges[0]._replace(interval=TimeInterval(1990, 1990))

    corruptions = {
        "vertex count mismatch": (vertices + [Vertex("extra", VertexKind.ENTITY, "club", "Extra")], edges),
        "absorbed vertex present": (vertices + [scholars_bundle.vertex(absorbed)], edges),
        "neighbor degree mismatch": (vertices, other_edges + rep_edges[1:]),
        "entity fact mismatch": (vertices, other_edges + [shifted] + rep_edges[1:]),
        "representative not a character": (
            [v if v.id != representative else v._replace(kind=VertexKind.ENTITY) for v in vertices],
            other_edges,
        ),
    }
    # "dangling endpoint" stays in verify_merge as a safety check, but no
    # corrupted bundle can show it: add_edge, and so rebuild, rejects an
    # edge whose endpoint is not a registered vertex
    assert verify_merge(scholars_bundle, merged, plan).ok
    for kind, (corrupt_vertices, corrupt_edges) in corruptions.items():
        corrupted = rebuild(corrupt_vertices, corrupt_edges, merged.relation_types())
        reported = {v.kind for v in verify_merge(scholars_bundle, corrupted, plan).violations}
        assert kind in reported, f"{kind} not reported; got {sorted(reported)}"


def test_verification_reports_each_dangling_edge_in_edge_order(scholars_bundle, scholar_ids):
    # no public path builds an edge whose endpoint is missing, so the edges
    # go straight into the lists of a rebuilt copy of the merged bundle
    faye, fei = scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]
    plan = plan_merge(scholars_bundle, [[faye, fei]])
    merged = apply_merge(scholars_bundle, plan).bundle
    corrupted = rebuild(merged.vertices(), merged.edges(), merged.relation_types())
    study, work = corrupted.subnetwork("study"), corrupted.subnetwork("work")
    entity, span = study._edges[0].entity, study._edges[0].interval
    work._edges.insert(0, TemporalEdge("lost-character", "ghost", entity, "work", span))
    study._edges.insert(1, TemporalEdge("lost-entity", plan.groups[0].representative, "nowhere", "study", span))
    study._edges.append(TemporalEdge("lost-both", "ghost", "nowhere", "study", span))
    report = verify_merge(scholars_bundle, corrupted, plan)
    assert [(v.kind, v.detail) for v in report.violations] == [
        ("dangling endpoint", "edge lost-entity references a missing vertex"),
        ("dangling endpoint", "edge lost-both references a missing vertex"),
        ("dangling endpoint", "edge lost-character references a missing vertex"),
    ]


def test_verification_reports_a_transfer_of_another_characters_edge(scholars_bundle, scholar_ids):
    faye, fei = scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]
    plan = plan_merge(scholars_bundle, [[faye, fei]])
    merged = apply_merge(scholars_bundle, plan).bundle
    group = plan.groups[0]
    (absorbed,) = group.absorbed
    foreign = next(e.relation_id for e in scholars_bundle.edges() if e.character not in (faye, fei))
    wrong = group._replace(
        dispositions={absorbed: (*group.dispositions[absorbed], EdgeDisposition(foreign, "transfer-to-representative"))},
    )
    report = verify_merge(scholars_bundle, merged, plan._replace(groups=[wrong]))
    assert [(v.kind, v.detail) for v in report.violations] == [
        ("neighbor degree mismatch", f"plan transfers {foreign}, which is not an edge of {absorbed}"),
    ]


@pytest.mark.parametrize("representative", ["ghost", "entity"])
def test_verification_reports_a_representative_that_is_no_character_of_the_input(
    scholars_bundle, scholar_ids, representative
):
    if representative == "entity":
        representative = scholars_bundle.entity_ids()[0]
    plan = plan_merge(scholars_bundle, [[scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]]])
    merged = apply_merge(scholars_bundle, plan).bundle
    (group,) = plan.groups
    edited = plan._replace(groups=[group._replace(representative=representative)])
    report = verify_merge(scholars_bundle, merged, edited)
    violations = [(v.kind, v.detail) for v in report.violations]
    assert ("representative not a character", f"{representative} is not a character vertex of the input") in violations
    assert ("representative not a character", f"{representative} is not a character vertex of the result") in violations
    assert sorted(violations) == sorted(whole_bundle_verify_reference(scholars_bundle, merged, edited))


def test_verification_flags_a_hand_corrupted_result(scholars_bundle, scholar_ids):
    faye, fei = scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]
    plan = plan_merge(scholars_bundle, [[faye, fei]])
    merged = apply_merge(scholars_bundle, plan)
    surviving = list(merged.bundle.edges())
    corrupted = rebuild(
        merged.bundle.vertices(), surviving[:-1], merged.bundle.relation_types()
    )
    report = verify_merge(scholars_bundle, corrupted, plan)
    assert not report.ok
    assert any(v.kind == "neighbor degree mismatch" for v in report.violations)


def test_verification_flags_a_missing_representative_edge(scholars_bundle, scholar_ids):
    faye, fei = scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]
    plan = plan_merge(scholars_bundle, [[faye, fei]])
    merged = apply_merge(scholars_bundle, plan)
    representative = plan.groups[0].representative
    keep = [e for e in merged.bundle.edges() if e.character != representative or e.relation_type != "work"]
    corrupted = rebuild(merged.bundle.vertices(), keep, merged.bundle.relation_types())
    report = verify_merge(scholars_bundle, corrupted, plan)
    kinds = {v.kind for v in report.violations}
    assert "neighbor degree mismatch" in kinds
    assert "entity fact mismatch" in kinds


def test_clone_merges_on_random_bundles_conserve_vertex_counts():
    rng = random.Random(11)
    for trial in range(25):
        spec = RandomBundleSpec(
            characters=rng.randint(3, 8),
            entities_per_type=3,
            relation_types=rng.randint(1, 3),
            edge_density=1.0,
            seed=trial,
        )
        base = generate(spec)
        eligible = fully_active_characters(base)
        if not eligible:
            continue
        planted, truth = plant_duplicates(base, k=min(2, len(eligible)), mode=PlantMode.EXACT_CLONE, seed=trial)
        groups = [[p.original, p.clone] for p in truth]
        plan = plan_merge(planted, groups)
        merged = apply_merge(planted, plan)
        assert merged.bundle.vertex_count == planted.vertex_count - sum(len(g) - 1 for g in groups)
        assert verify_merge(planted, merged.bundle, plan).ok


def test_plan_merge_needs_a_sealed_bundle():
    bundle = NetworkBundle()
    bundle.add_vertex(VertexKind.CHARACTER, "person", "Wu", vertex_id="c1")
    with pytest.raises(GraphError, match="unsealed"):
        plan_merge(bundle, [])


def test_hand_edited_plans_fail_in_apply(scholars_bundle, scholar_ids):
    groups = [
        [scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]],
        [scholar_ids["ShaoJia Zhu"], scholar_ids["ShaoNan Zhu"]],
    ]
    plan = plan_merge(scholars_bundle, groups)
    first, second = plan.groups
    entity = scholars_bundle.entity_ids()[0]

    def edited(group, **changes):
        return plan._replace(groups=[g._replace(**changes) if g is group else g for g in plan.groups])

    # an entity fails as it does in plan_merge, before any edge is visited
    with pytest.raises(MergeError) as planned:
        plan_merge(scholars_bundle, [[first.representative, entity]])
    absorbs_an_entity = edited(first, absorbed=(entity,), dispositions={entity: ()})
    entity_representative = edited(first, representative=entity)
    for hand_edited in (absorbs_an_entity, entity_representative):
        with pytest.raises(MergeError) as raised:
            apply_merge(scholars_bundle, hand_edited)
        assert type(raised.value) is MergeError
        assert str(raised.value) == str(planned.value) == f"cannot merge non-character vertex {entity!r}"
    # used to be applied, leaving only verify_merge's "vertex count mismatch"
    absorbs_a_missing_id = edited(
        first, absorbed=(*first.absorbed, "ghost"), dispositions={**first.dispositions, "ghost": ()}
    )
    with pytest.raises(StalePlanError) as raised:
        apply_merge(scholars_bundle, absorbs_a_missing_id)
    assert str(raised.value) == "absorbed vertex 'ghost' missing from bundle"
    absorbs_the_other_representative = edited(
        second,
        absorbed=(*second.absorbed, first.representative),
        dispositions={**second.dispositions, first.representative: ()},
    )
    with pytest.raises(StalePlanError):
        apply_merge(scholars_bundle, absorbs_the_other_representative)


def rebuild_reference(bundle: NetworkBundle, plan) -> NetworkBundle:
    """The merged bundle as `rebuild` assembles it: absorbed edges dropped or re-filed in place."""
    mapping, actions = {}, {}
    for group in plan.groups:
        for duplicate in group.absorbed:
            mapping[duplicate] = group.representative
            actions.update((d.relation_id, d.action) for d in group.dispositions[duplicate])
    edges = []
    for edge in bundle.edges():
        representative = mapping.get(edge.character)
        if representative is None:
            edges.append(edge)
        elif actions[edge.relation_id] == "transfer-to-representative":
            edges.append(edge._replace(character=representative))
    vertices = [v for v in bundle.vertices() if v.id not in mapping]
    return rebuild(vertices, edges, bundle.relation_types())


def paths_of(bundle: NetworkBundle, characters) -> dict[tuple[str, str], list]:
    return {(tan.relation_type, c): tan.edges_of_character(c) for tan in bundle.subnetworks() for c in characters}


def triple_groups(bundle: NetworkBundle) -> list[list[str]]:
    """Unrelated characters grouped in threes, so most absorbed edges are transferred from mid-list."""
    people = bundle.character_ids()
    return [people[i::4][:3] for i in range(2)]


def merge_cases(scholars_bundle, scholar_ids):
    """(bundle, groups) pairs: the scholar fixture, planted clones of every mode, and three-member groups."""
    yield scholars_bundle, [
        [scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]],
        [scholar_ids["ShaoJia Zhu"], scholar_ids["ShaoNan Zhu"]],
    ]
    for seed, mode in enumerate(PlantMode):
        base = generate(RandomBundleSpec(characters=12, entities_per_type=4, relation_types=3, seed=seed))
        planted, truth = plant_duplicates(base, k=2, mode=mode, seed=seed)
        yield planted, [[p.original, p.clone] for p in truth]
    for seed in (3, 4):
        base = generate(RandomBundleSpec(characters=12, entities_per_type=3, relation_types=3, seed=seed))
        yield base, triple_groups(base)


def test_apply_merge_equals_the_rebuild_reference_and_leaves_its_input_alone(scholars_bundle, scholar_ids):
    transferred_from_three_member_groups = 0
    for bundle, groups in merge_cases(scholars_bundle, scholar_ids):
        characters = bundle.character_ids()
        paths_before = paths_of(bundle, characters)
        edges_before = list(bundle.edges())
        digest_before = rebuild(bundle.vertices(), bundle.edges(), bundle.relation_types()).content_digest()

        plan = plan_merge(bundle, groups)
        merged = apply_merge(bundle, plan)
        expected = rebuild_reference(bundle, plan)

        result = merged.bundle
        assert result.sealed
        assert list(result.edges()) == list(expected.edges())
        assert paths_of(result, characters) == paths_of(expected, characters)
        assert result.vertices() == expected.vertices()
        assert result.relation_types() == expected.relation_types()
        assert result.content_digest() == expected.content_digest()
        assert verify_merge(bundle, result, plan).ok
        if len(groups[0]) == 3:
            transferred_from_three_member_groups += merged.audit.transferred_edges

        assert paths_of(bundle, characters) == paths_before
        assert list(bundle.edges()) == edges_before
        fresh = rebuild(bundle.vertices(), bundle.edges(), bundle.relation_types())
        assert fresh.content_digest() == digest_before
    assert transferred_from_three_member_groups > 0


def test_a_plan_applies_to_an_equal_content_copy_but_not_to_a_changed_one(scholars_bundle, scholar_ids):
    plan = plan_merge(scholars_bundle, [[scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]]])
    merged = apply_merge(scholars_bundle, plan)
    edges = list(scholars_bundle.edges())
    copy = rebuild(scholars_bundle.vertices(), edges, scholars_bundle.relation_types())
    from_copy = apply_merge(copy, plan)
    assert list(from_copy.bundle.edges()) == list(merged.bundle.edges())
    assert from_copy.bundle.vertices() == merged.bundle.vertices()
    assert from_copy.audit == merged.audit

    shifted = [edges[0]._replace(interval=TimeInterval(1990, 1990)), *edges[1:]]
    changed = rebuild(scholars_bundle.vertices(), shifted, scholars_bundle.relation_types())
    with pytest.raises(StalePlanError):
        apply_merge(changed, plan)


def whole_bundle_verify_reference(before: NetworkBundle, after: NetworkBundle, plan) -> list[tuple[str, str]]:
    """`verify_merge` as it was before it indexed only group members: every check over every edge."""
    violations = []

    def fact_index(edges):
        index = {}
        for edge in edges:
            fact = (edge.entity, edge.relation_type, edge.interval.start, edge.interval.end)
            index.setdefault(edge.character, []).append((fact, edge.relation_id))
        for facts in index.values():
            facts.sort()
        return index

    def facts_by_entity(index, characters):
        out = {}
        for character in characters:
            for (entity, relation_type, start, end), _ in index.get(character, ()):
                out.setdefault(entity, set()).add((relation_type, start, end))
        return out

    expected_removed = plan.removed_vertex_count
    if after.vertex_count != before.vertex_count - expected_removed:
        violations.append((
            "vertex count mismatch",
            f"expected {before.vertex_count - expected_removed} vertices, found {after.vertex_count}",
        ))
    absorbed = {dup for group in plan.groups for dup in group.absorbed}
    for vid in absorbed:
        if after.has_vertex(vid):
            violations.append(("absorbed vertex present", f"{vid} survived the merge"))
    for edge in after.edges():
        if not after.has_vertex(edge.character) or not after.has_vertex(edge.entity):
            violations.append(("dangling endpoint", f"edge {edge.relation_id} references a missing vertex"))
    before_index, after_index = fact_index(before.edges()), fact_index(after.edges())
    expected_facts = {}
    for vertex in before.vertices(VertexKind.CHARACTER):
        if vertex.id not in absorbed:
            expected_facts[vertex.id] = [fact for fact, _ in before_index.get(vertex.id, ())]
    for group in plan.groups:
        for duplicate in group.absorbed:
            facts = {relation_id: fact for fact, relation_id in before_index.get(duplicate, ())}
            for disposition in group.dispositions.get(duplicate, ()):
                if disposition.action != "transfer-to-representative":
                    continue
                if disposition.relation_id not in facts:
                    violations.append((
                        "neighbor degree mismatch",
                        f"plan transfers {disposition.relation_id}, which is not an edge of {duplicate}",
                    ))
                elif group.representative in expected_facts:
                    expected_facts[group.representative].append(facts[disposition.relation_id])
    for vid, expected in expected_facts.items():
        if sorted(expected) != [fact for fact, _ in after_index.get(vid, ())]:
            violations.append(("neighbor degree mismatch", f"edge multiset of character {vid} changed"))
    for group in plan.groups:
        pre_by_entity = facts_by_entity(before_index, [group.representative, *group.absorbed])
        post_by_entity = facts_by_entity(after_index, [group.representative])
        for entity in sorted(pre_by_entity):
            pre_facts, post_facts = pre_by_entity[entity], post_by_entity.get(entity, set())
            if pre_facts != post_facts:
                violations.append((
                    "entity fact mismatch",
                    f"facts between {entity} and group of {group.representative} changed: "
                    f"{sorted(pre_facts)} -> {sorted(post_facts)}",
                ))
    for group in plan.groups:
        representative = group.representative
        for bundle, role in ((before, "input"), (after, "result")):
            if not bundle.has_vertex(representative) or bundle.vertex(representative).kind is not VertexKind.CHARACTER:
                violations.append(
                    ("representative not a character", f"{representative} is not a character vertex of the {role}")
                )
    return violations


def corruptions(before: NetworkBundle, merged: NetworkBundle, plan, rng: random.Random):
    """(label, corrupted bundle) for each edit of an untouched, a representative and an absorbed character."""
    vertices, edges = merged.vertices(), list(merged.edges())
    group = rng.choice(plan.groups)
    representatives = {g.representative for g in plan.groups}
    untouched = rng.choice(sorted({e.character for e in edges} - representatives))
    absorbed = rng.choice(group.absorbed)
    entity = rng.choice(merged.entity_ids())
    relation_type = rng.choice(merged.relation_types())

    def bundle_of(vertex_list, edge_list):
        return rebuild(vertex_list, edge_list, merged.relation_types())

    def edited_edges(character):
        own = [i for i, e in enumerate(edges) if e.character == character]
        if not own:
            return
        i = rng.choice(own)
        edge = edges[i]
        yield "drop", edges[:i] + edges[i + 1 :]
        shifted = TimeInterval(edge.interval.start + 1, edge.interval.end + rng.randint(1, 3))
        yield "shift", edges[:i] + [edge._replace(interval=shifted)] + edges[i + 1 :]

    for role, character in (("untouched", untouched), ("representative", group.representative)):
        for edit, edge_list in edited_edges(character):
            yield f"{edit} an edge of the {role} character", bundle_of(vertices, edge_list)
        added = TemporalEdge("added-edge", character, entity, relation_type, TimeInterval(2001, 2002))
        at = rng.randrange(len(edges) + 1)
        yield f"add an edge to the {role} character", bundle_of(vertices, edges[:at] + [added] + edges[at:])
        retagged = [v._replace(kind=VertexKind.ENTITY) if v.id == character else v for v in vertices]
        yield f"retag the {role} character", bundle_of(retagged, [e for e in edges if e.character != character])
    yield "add a vertex", bundle_of(vertices + [Vertex("added-vertex", VertexKind.CHARACTER, "person", "New")], edges)

    # the absorbed character: its transferred edges live on under the representative
    transferred = {d.relation_id for d in group.dispositions[absorbed] if d.action == "transfer-to-representative"}
    moved = [i for i, e in enumerate(edges) if e.relation_id in transferred]
    if moved:
        i = rng.choice(moved)
        yield "drop an edge transferred from the absorbed character", bundle_of(vertices, edges[:i] + edges[i + 1 :])
        shifted = edges[i]._replace(interval=TimeInterval(edges[i].interval.start, edges[i].interval.end + 1))
        yield "shift an edge transferred from the absorbed character", bundle_of(
            vertices, edges[:i] + [shifted] + edges[i + 1 :]
        )
    revived = before.vertex(absorbed)
    yield "add the absorbed vertex back", bundle_of(vertices + [revived], edges)
    back = TemporalEdge("added-edge", absorbed, entity, relation_type, TimeInterval(2001, 2002))
    yield "add an edge to the absorbed character", bundle_of(vertices + [revived], edges + [back])
    retagged = revived._replace(kind=VertexKind.ENTITY)
    yield "add the absorbed vertex back retagged", bundle_of(vertices + [retagged], edges)


def test_verify_merge_reports_what_the_whole_bundle_verifier_reports(scholars_bundle, scholar_ids):
    labels = set()
    for case, (bundle, groups) in enumerate(merge_cases(scholars_bundle, scholar_ids)):
        plan = plan_merge(bundle, groups)
        merged = apply_merge(bundle, plan).bundle
        assert verify_merge(bundle, merged, plan).ok
        assert whole_bundle_verify_reference(bundle, merged, plan) == []
        for seed in range(3):
            for label, corrupted in corruptions(bundle, merged, plan, random.Random(case * 10 + seed)):
                expected = whole_bundle_verify_reference(bundle, corrupted, plan)
                assert expected, label
                actual = [(v.kind, v.detail) for v in verify_merge(bundle, corrupted, plan).violations]
                assert sorted(actual) == sorted(expected), label
                labels.add(label)
    assert len(labels) == 14, sorted(labels)
