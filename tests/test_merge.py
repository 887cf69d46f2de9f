"""Merge planning, application, conservation, and verification."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapmerge import NetworkBundle, TemporalEdge, Vertex, VertexKind, apply_merge, plan_merge, rebuild, verify_merge
from tapmerge.graph import GraphError, TimeInterval
from tapmerge.merge import GroupPlan, MergeError, MergePlan, StalePlanError
from tapmerge.testkit import PlantMode, RandomBundleSpec, fully_active_characters, generate, plant_duplicates

from conftest import ClubNet
from merge_reference import merge_by_rule


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
    assert group.absorbed == (max(faye, fei),)
    absorbed_ids = {e.relation_id for e in scholars_bundle.edges() if e.character == max(faye, fei)}
    merged = apply_merge(scholars_bundle, plan)
    # every edge but one repeats a fact of the representative and is dropped
    assert (merged.audit.dropped_edges, merged.audit.transferred_edges) == (len(absorbed_ids) - 1, 1)
    (transferred,) = [e for e in merged.bundle.edges() if e.relation_id in absorbed_ids]
    assert transferred.character == group.representative
    assert scholars_bundle.vertex(transferred.entity).display_name == "Jinan Univ."
    assert (transferred.interval.start, transferred.interval.end) == (2000, 2000)


def test_exact_clones_drop_every_absorbed_edge():
    bundle = clone_trio_bundle()
    people = bundle.character_ids()
    plan = plan_merge(bundle, [people])
    merged = apply_merge(bundle, plan)
    absorbed = set(plan.groups[0].absorbed)
    absorbed_ids = {e.relation_id for e in bundle.edges() if e.character in absorbed}
    assert merged.audit.dropped_edges == len(absorbed_ids)
    assert absorbed_ids.isdisjoint(e.relation_id for e in merged.bundle.edges())


def test_a_plan_repr_names_each_groups_representative_and_absorbed_ids():
    bundle = clone_trio_bundle()
    plan = plan_merge(bundle, [bundle.character_ids()[::-1]])
    assert repr(plan) == "MergePlan(groups=[GroupPlan(representative='c000001', absorbed=('c000002', 'c000003'))])"


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
    assert len(merged.bundle.vertices(VertexKind.ENTITY)) == 3
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

    # c2's 2000-2005 stint duplicates c1's, so the merge drops it
    bundle = c2_works_at_e1((2000, 2005))
    plan = plan_merge(bundle, [["c1", "c2"]])
    assert apply_merge(bundle, plan).audit.dropped_edges == 1
    # an equal copy is another bundle, and so is one with the same counts whose fact differs
    for other in (c2_works_at_e1((2000, 2005)), c2_works_at_e1((2003, 2008))):
        with pytest.raises(StalePlanError, match="different bundle"):
            apply_merge(other, plan)


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
    # go straight into the paths of a rebuilt copy of the merged bundle
    faye, fei = scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]
    plan = plan_merge(scholars_bundle, [[faye, fei]])
    merged = apply_merge(scholars_bundle, plan).bundle
    corrupted = rebuild(merged.vertices(), merged.edges(), merged.relation_types())
    study, work = corrupted.subnetwork("study"), corrupted.subnetwork("work")
    representative = plan.groups[0].representative
    entity, span = next(study.edges()).entity, next(study.edges()).interval
    # a ghost's path first in `work`, an edge inside the representative's path and a ghost's path last in `study`
    work._by_character = {"ghost": [TemporalEdge("lost-character", "ghost", entity, "work", span)], **work._by_character}
    study._by_character[representative].insert(1, TemporalEdge("lost-entity", representative, "nowhere", "study", span))
    study._by_character["ghost"] = [TemporalEdge("lost-both", "ghost", "nowhere", "study", span)]
    report = verify_merge(scholars_bundle, corrupted, plan)
    assert [(v.kind, v.detail) for v in report.violations] == [
        ("dangling endpoint", "edge lost-entity references a missing vertex"),
        ("dangling endpoint", "edge lost-both references a missing vertex"),
        ("dangling endpoint", "edge lost-character references a missing vertex"),
        # the representative's path now holds one more edge than the plan gives it
        ("neighbor degree mismatch", f"edge multiset of character {representative} changed"),
    ]


def test_verification_reports_a_drop_of_another_characters_edge(scholars_bundle, scholar_ids):
    # a plan carries no drops, so the drop is made in the merged bundle itself
    faye, fei = scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]
    plan = plan_merge(scholars_bundle, [[faye, fei]])
    merged = apply_merge(scholars_bundle, plan).bundle
    foreign = next(e for e in merged.edges() if e.character not in (faye, fei))
    kept = [e for e in merged.edges() if e.relation_id != foreign.relation_id]
    corrupted = rebuild(merged.vertices(), kept, merged.relation_types())
    report = verify_merge(scholars_bundle, corrupted, plan)
    assert [(v.kind, v.detail) for v in report.violations] == [
        ("neighbor degree mismatch", f"edge multiset of character {foreign.character} changed"),
    ]


@pytest.mark.parametrize("representative", ["ghost", "entity"])
def test_verify_merge_refuses_a_representative_that_is_no_character_of_the_input_as_apply_does(
    scholars_bundle, scholar_ids, representative
):
    if representative == "ghost":
        expected = (StalePlanError, "representative 'ghost' missing from bundle")
    else:
        representative = min(v.id for v in scholars_bundle.vertices(VertexKind.ENTITY))
        expected = (MergeError, f"cannot merge non-character vertex {representative!r}")
    plan = plan_merge(scholars_bundle, [[scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]]])
    merged = apply_merge(scholars_bundle, plan).bundle
    (group,) = plan.groups
    edited = plan._replace(groups=[group._replace(representative=representative)])
    for refuse in (lambda: apply_merge(scholars_bundle, edited), lambda: verify_merge(scholars_bundle, merged, edited)):
        with pytest.raises(MergeError) as raised:
            refuse()
        assert (type(raised.value), str(raised.value)) == expected


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


def test_verify_merge_holds_one_groups_facts_at_a_time():
    # 500 planted groups in about 16,000 edges: 0.3 MB on Python 3.11; indexing
    # every group's facts in both bundles at once peaked at 2.0 MB
    base = generate(RandomBundleSpec(characters=2000, entities_per_type=500, relation_types=4, seed=3))
    bundle, truth = plant_duplicates(base, k=500, mode=PlantMode.EXACT_CLONE, seed=3)
    plan = plan_merge(bundle, [[pair.original, pair.clone] for pair in truth])
    merged = apply_merge(bundle, plan).bundle
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = verify_merge(bundle, merged, plan)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 2**20


def test_verify_merge_refuses_groups_that_share_a_member_as_apply_does():
    # one representative leads two groups; merged by hand, as `apply_merge` refuses the plan
    bundle = NetworkBundle()
    a, b, c = (bundle.add_vertex(VertexKind.CHARACTER, "person", name) for name in "abc")
    lab, paper = (bundle.add_vertex(VertexKind.ENTITY, "venue", name) for name in ("lab", "paper"))
    bundle.add_edge(a, lab, "work", (2001, 2003))
    for person in (b, c):
        bundle.add_edge(person, lab, "work", (2001, 2003))
        bundle.add_edge(person, paper, "coauthor", (2005, 2005))
    bundle.add_edge(c, paper, "coauthor", (2006, 2006))
    bundle.seal()
    (with_b,) = plan_merge(bundle, [[a, b]]).groups
    (with_c,) = plan_merge(bundle, [[a, c]]).groups
    plan = plan_merge(bundle, [])._replace(groups=[with_b, with_c])
    merged, _, _ = bundle._derive({b: a, c: a})
    for refuse in (lambda: apply_merge(bundle, plan), lambda: verify_merge(bundle, merged, plan)):
        with pytest.raises(MergeError) as raised:
            refuse()
        assert type(raised.value) is MergeError
        assert str(raised.value) == f"vertex {a!r} appears in more than one group"
    # the one group of all three is the plan that makes this merge
    assert verify_merge(bundle, merged, plan_merge(bundle, [[a, b, c]])).ok


def test_plan_merge_needs_a_sealed_bundle():
    bundle = NetworkBundle()
    bundle.add_vertex(VertexKind.CHARACTER, "person", "Wu", vertex_id="c1")
    with pytest.raises(GraphError, match="unsealed"):
        plan_merge(bundle, [])


def assert_verify_refuses_alike(bundle: NetworkBundle, plan: MergePlan, refused: GraphError) -> None:
    """`verify_merge` refuses `plan` as `apply_merge` did: same type, same text."""
    with pytest.raises(GraphError) as verified:
        verify_merge(bundle, bundle, plan)
    assert (type(verified.value), str(verified.value)) == (type(refused), str(refused))


def test_hand_edited_plans_fail_in_apply(scholars_bundle, scholar_ids):
    groups = [
        [scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]],
        [scholar_ids["ShaoJia Zhu"], scholar_ids["ShaoNan Zhu"]],
    ]
    plan = plan_merge(scholars_bundle, groups)
    first, second = plan.groups
    entity = min(v.id for v in scholars_bundle.vertices(VertexKind.ENTITY))

    def edited(group, **changes):
        return plan._replace(groups=[g._replace(**changes) if g is group else g for g in plan.groups])

    # an entity fails as it does in plan_merge, before any edge is visited
    with pytest.raises(MergeError) as planned:
        plan_merge(scholars_bundle, [[first.representative, entity]])
    absorbs_an_entity = edited(first, absorbed=(entity,))
    entity_representative = edited(first, representative=entity)
    for hand_edited in (absorbs_an_entity, entity_representative):
        with pytest.raises(MergeError) as raised:
            apply_merge(scholars_bundle, hand_edited)
        assert type(raised.value) is MergeError
        assert_verify_refuses_alike(scholars_bundle, hand_edited, raised.value)
        assert str(raised.value) == str(planned.value) == f"cannot merge non-character vertex {entity!r}"
    # one representative leading two groups fails as it does in plan_merge
    led_by_first = [first.representative, second.representative]
    with pytest.raises(MergeError) as planned:
        plan_merge(scholars_bundle, [[first.representative, *first.absorbed], led_by_first])
    (also_led_by_first,) = plan_merge(scholars_bundle, [led_by_first]).groups
    leads_two_groups = plan._replace(groups=[first, also_led_by_first])
    with pytest.raises(MergeError) as raised:
        apply_merge(scholars_bundle, leads_two_groups)
    assert type(raised.value) is MergeError
    assert_verify_refuses_alike(scholars_bundle, leads_two_groups, raised.value)
    assert str(raised.value) == str(planned.value) == f"vertex {first.representative!r} appears in more than one group"
    # used to be applied, leaving only verify_merge's "vertex count mismatch"
    absorbs_a_missing_id = edited(first, absorbed=(*first.absorbed, "ghost"))
    with pytest.raises(StalePlanError) as raised:
        apply_merge(scholars_bundle, absorbs_a_missing_id)
    assert_verify_refuses_alike(scholars_bundle, absorbs_a_missing_id, raised.value)
    with pytest.raises(StalePlanError) as planned:
        plan_merge(scholars_bundle, [[first.representative, *first.absorbed, "ghost"]])
    assert str(raised.value) == str(planned.value) == "absorbed vertex 'ghost' missing from bundle"
    # a representative absorbed by another group is a member of two groups, as in plan_merge
    absorbs_the_other_representative = edited(second, absorbed=(*second.absorbed, first.representative))
    with pytest.raises(MergeError) as raised:
        apply_merge(scholars_bundle, absorbs_the_other_representative)
    assert type(raised.value) is MergeError
    assert_verify_refuses_alike(scholars_bundle, absorbs_the_other_representative, raised.value)
    assert str(raised.value) == f"vertex {first.representative!r} appears in more than one group"


@pytest.mark.parametrize("repeated", ["representative", "absorbed id"])
def test_a_group_that_repeats_a_member_fails_in_apply_and_names_the_group(repeated):
    # a group absorbing its own representative used to be reported as absorbed by another group
    bundle = clone_trio_bundle()
    representative, other, _ = bundle.character_ids()
    absorbed = {"representative": (representative,), "absorbed id": (other, other)}[repeated]
    plan = MergePlan([GroupPlan(representative, absorbed)], bundle)
    with pytest.raises(MergeError) as raised:
        apply_merge(bundle, plan)
    assert type(raised.value) is MergeError
    assert str(raised.value) == f"vertex {absorbed[0]!r} appears in the group of {representative!r} twice"
    assert_verify_refuses_alike(bundle, plan, raised.value)
    assert "another group" not in str(raised.value)


@pytest.mark.parametrize("role", ["representative", "absorbed vertex"])
def test_an_unknown_member_is_a_stale_plan_in_plan_merge_and_in_apply(role):
    # "0ghost" sorts before every character id, so plan_merge makes it the representative
    bundle = clone_trio_bundle()
    first, second, _ = bundle.character_ids()
    ghost = {"representative": "0ghost", "absorbed vertex": "zghost"}[role]
    group = {"representative": GroupPlan(ghost, (first,)), "absorbed vertex": GroupPlan(first, (second, ghost))}[role]
    with pytest.raises(StalePlanError) as planned:
        plan_merge(bundle, [[group.representative, *group.absorbed]])
    plan = MergePlan([group], bundle)
    with pytest.raises(StalePlanError) as raised:
        apply_merge(bundle, plan)
    assert isinstance(raised.value, GraphError)
    assert str(raised.value) == str(planned.value) == f"{role} {ghost!r} missing from bundle"
    assert_verify_refuses_alike(bundle, plan, raised.value)


def test_a_hand_edited_plan_cannot_drop_a_fact_the_group_lacks():
    # a plan that named both of c's edges as drops would lose (work, F, 2003-2004)
    bundle = NetworkBundle()
    for cid in ("a", "c"):
        bundle.add_vertex(VertexKind.CHARACTER, "person", "Wu", vertex_id=cid)
    for eid in ("E", "F"):
        bundle.add_vertex(VertexKind.ENTITY, "institution", eid, vertex_id=eid)
    bundle.add_edge("a", "E", "work", (2000, 2001))
    bundle.add_edge("c", "E", "work", (2000, 2001))
    bundle.add_edge("c", "F", "work", (2003, 2004))
    bundle.seal()
    plan = plan_merge(bundle, [["a", "c"]])
    merged = apply_merge(bundle, plan)
    assert [(e.character, e.entity, e.interval) for e in merged.bundle.edges()] == [
        ("a", "E", (2000, 2001)), ("a", "F", (2003, 2004))
    ]
    assert (merged.audit.dropped_edges, merged.audit.transferred_edges) == (1, 1)
    assert verify_merge(bundle, merged.bundle, plan).ok
    # a plan names who merges and nothing more, so there are no drops to edit
    (group,) = plan.groups
    with pytest.raises(ValueError):
        group._replace(dropped=("r000002", "r000003"))


def test_an_absorbed_edge_the_plan_does_not_drop_transfers():
    # the third clone also held (member, club 0, 2005-2006), a fact no other member holds
    bundle = NetworkBundle()
    people = [bundle.add_vertex(VertexKind.CHARACTER, "person", f"clone {i}") for i in range(3)]
    clubs = [bundle.add_vertex(VertexKind.ENTITY, "club", f"club {i}") for i in range(3)]
    for person in people:
        for entity in clubs:
            bundle.add_edge(person, entity, "member", (2001, 2003))
    bundle.add_edge(people[2], clubs[0], "member", (2005, 2006))
    bundle.seal()
    plan = plan_merge(bundle, [people])
    (group,) = plan.groups
    merged = apply_merge(bundle, plan)
    assert merged.audit.dropped_edges == 6
    assert merged.audit.transferred_edges == 1
    assert bundle.edge_count == 10
    assert merged.bundle.edge_count == 4
    assert {e.character for e in merged.bundle.edges()} == {group.representative}
    assert (clubs[0], (2005, 2006)) in {(e.entity, e.interval) for e in merged.bundle.edges()}
    # nothing was lost, so the referee accepts the merge
    assert verify_merge(bundle, merged.bundle, plan).ok


def test_a_merge_keeps_the_smallest_relation_id_of_a_repeated_fact_and_the_first_member_to_hold_it():
    people = [Vertex(cid, VertexKind.CHARACTER, "person", "Wu") for cid in "abc"]
    places = [Vertex(eid, VertexKind.ENTITY, "institution", eid) for eid in "EFGH"]
    filed = [
        ("r000001", "a", "E", (2000, 2001)),
        ("r000003", "c", "H", (2007, 2007)),  # b, absorbed before c, holds this fact under r000008
        ("r000009", "b", "G", (2005, 2006)),  # b's r000004 holds the same fact under a smaller id
        ("r000005", "b", "E", (2000, 2001)),  # a holds this fact
        ("r000004", "b", "G", (2005, 2006)),
        ("r000008", "b", "H", (2007, 2007)),
        ("r000006", "c", "G", (2005, 2006)),
        ("r000007", "c", "F", (2002, 2002)),
    ]
    bundle = rebuild(people + places, [TemporalEdge(r, c, e, "work", span) for r, c, e, span in filed], ["work"])
    plan = plan_merge(bundle, [["c", "b", "a"]])
    merged = apply_merge(bundle, plan)
    # a's own edge, then b's kept edges in b's path order, then c's
    assert [(e.relation_id, e.character) for e in merged.bundle.edges()] == [
        ("r000001", "a"), ("r000004", "a"), ("r000008", "a"), ("r000007", "a")
    ]
    assert (merged.audit.dropped_edges, merged.audit.transferred_edges) == (4, 3)
    expected, counts, _ = merge_by_rule(bundle, [["a", "b", "c"]])
    assert list(merged.bundle.edges()) == list(expected.edges())
    assert merged.audit._asdict() == counts
    assert verify_merge(bundle, merged.bundle, plan).ok


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

        plan = plan_merge(bundle, groups)
        merged = apply_merge(bundle, plan)
        expected, counts, _ = merge_by_rule(bundle, groups)

        result = merged.bundle
        assert result.sealed
        assert list(result.edges()) == list(expected.edges())
        assert paths_of(result, characters) == paths_of(expected, characters)
        assert result.vertices() == expected.vertices()
        assert result.relation_types() == expected.relation_types()
        assert merged.audit._asdict() == counts
        assert verify_merge(bundle, result, plan).ok
        if len(groups[0]) == 3:
            transferred_from_three_member_groups += merged.audit.transferred_edges

        assert paths_of(bundle, characters) == paths_before
        assert list(bundle.edges()) == edges_before
    assert transferred_from_three_member_groups > 0


def test_a_subnetwork_is_its_paths_and_a_merge_rebuilds_only_its_members_paths():
    # two people's edges filed alternately come out one path at a time
    bundle = NetworkBundle()
    ann, bea = (bundle.add_vertex(VertexKind.CHARACTER, "person", name) for name in ("Ann", "Bea"))
    chess = bundle.add_vertex(VertexKind.ENTITY, "club", "Chess")
    filed = [bundle.add_edge(person, chess, "member", (2000 + i, 2001 + i)) for i, person in enumerate([ann, bea] * 2)]
    tan = bundle.seal().subnetwork("member")
    assert [e.relation_id for e in tan.edges()] == [filed[0], filed[2], filed[1], filed[3]]
    assert len(tan) == 4

    base = generate(RandomBundleSpec(characters=12, entities_per_type=4, relation_types=3, seed=0))
    planted, (pair,) = plant_duplicates(base, k=1, mode=PlantMode.PARTIAL_CLONE, seed=0)
    # a person whose id sorts before the pair's, with no edge in a subnetwork where the pair has some
    representative, beta = next(
        (c, tan.relation_type)
        for c in planted.character_ids()
        if c < pair.original
        for tan in planted.subnetworks()
        if not tan.edges_of_character(c)
    )
    group = [representative, pair.original, pair.clone]
    plan = plan_merge(planted, [group])
    merged = apply_merge(planted, plan).bundle
    members = {representative, pair.original, pair.clone}
    for before, after in zip(planted.subnetworks(), merged.subnetworks()):
        paths = after._by_character
        assert list(after.edges()) == [edge for path in paths.values() for edge in path]
        assert len(after) == sum(map(len, paths.values()))
        assert all(paths[c] is path for c, path in before._by_character.items() if c not in members)

    # the representative's new path comes after every other one: its members' kept edges, in id order
    _, _, dropped = merge_by_rule(planted, [group])
    gained = merged.subnetwork(beta)._by_character
    assert list(gained)[-1] == representative
    assert gained[representative] == [
        edge._replace(character=representative)
        for member in (pair.original, pair.clone)
        for edge in planted.subnetwork(beta).edges_of_character(member)
        if edge.relation_id not in dropped
    ]
    assert verify_merge(planted, merged, plan).ok


@st.composite
def planted_bundles_with_groups(draw):
    """A `testkit` bundle with planted duplicates of one mode, grouped with their sources, and random groups.

    Short histories over few entities make facts repeat: across people,
    and as parallel edges of one person. The characters outside the
    planted pairs are cut into random groups, some joined to a planted
    pair.
    """
    spec = RandomBundleSpec(
        characters=draw(st.integers(2, 10)),
        entities_per_type=draw(st.integers(1, 3)),
        relation_types=draw(st.integers(1, 3)),
        edge_density=draw(st.sampled_from([0.5, 1.5, 3.0])),
        interval_span=(2000, 2000 + draw(st.integers(0, 3))),
        seed=draw(st.integers(0, 2**16)),
    )
    bundle = generate(spec)
    mode = draw(st.sampled_from(PlantMode))
    k = draw(st.integers(0, min(len(fully_active_characters(bundle)), 3)))
    bundle, truth = plant_duplicates(bundle, k, mode, seed=draw(st.integers(0, 2**16)))
    groups = [[p.original, p.clone] for p in truth]
    planted = {member for group in groups for member in group}
    rest = draw(st.permutations([c for c in bundle.character_ids() if c not in planted]))
    while rest:
        size = draw(st.integers(1, 4))
        chunk, rest = list(rest[:size]), rest[size:]
        if groups and draw(st.booleans()):
            draw(st.sampled_from(groups)).extend(chunk)
        else:
            groups.append(chunk)
    return bundle, groups


@settings(max_examples=150, deadline=None)
@given(planted_bundles_with_groups())
def test_apply_merge_of_a_plan_equals_a_rebuild_by_the_rule(case):
    bundle, groups = case
    plan = plan_merge(bundle, groups)
    merged = apply_merge(bundle, plan)
    expected, counts, _ = merge_by_rule(bundle, groups)
    characters = bundle.character_ids()
    assert list(merged.bundle.edges()) == list(expected.edges())
    assert paths_of(merged.bundle, characters) == paths_of(expected, characters)
    assert merged.bundle.vertices() == expected.vertices()
    assert merged.bundle.relation_types() == expected.relation_types()
    assert merged.audit._asdict() == counts
    assert verify_merge(bundle, merged.bundle, plan).ok


def test_a_plan_merges_only_its_own_bundle_not_an_equal_copy_or_a_changed_one(scholars_bundle, scholar_ids):
    plan = plan_merge(scholars_bundle, [[scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]]])
    edges = list(scholars_bundle.edges())
    copy = rebuild(scholars_bundle.vertices(), edges, scholars_bundle.relation_types())
    shifted = [edges[0]._replace(interval=TimeInterval(1990, 1990)), *edges[1:]]
    changed = rebuild(scholars_bundle.vertices(), shifted, scholars_bundle.relation_types())
    for other in (copy, changed):
        with pytest.raises(StalePlanError) as raised:
            apply_merge(other, plan)
        assert str(raised.value) == "plan was computed against a different bundle"
    assert apply_merge(scholars_bundle, plan).audit.removed_vertices == 1


def whole_bundle_verify_reference(before: NetworkBundle, after: NetworkBundle, plan) -> list[tuple[str, str]]:
    """`verify_merge` as it was before it indexed only group members: every check over every edge.

    Only plans that pass the membership rule reach it, as they alone reach `verify_merge`'s checks.
    """
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

    expected_removed = sum(len(group.absorbed) for group in plan.groups)
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
        # each fact of an absorbed member that the representative lacked lives on under it, once
        facts = expected_facts[group.representative]
        facts += {fact for member in group.absorbed for fact, _ in before_index.get(member, ())}.difference(facts)
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
        if not after.has_vertex(representative) or after.vertex(representative).kind is not VertexKind.CHARACTER:
            violations.append(
                ("representative not a character", f"{representative} is not a character vertex of the result")
            )
    return violations


def corruptions(before: NetworkBundle, merged: NetworkBundle, plan, rng: random.Random):
    """(label, corrupted bundle) for each edit of an untouched, a representative and an absorbed character."""
    vertices, edges = merged.vertices(), list(merged.edges())
    group = rng.choice(plan.groups)
    representatives = {g.representative for g in plan.groups}
    untouched = rng.choice(sorted({e.character for e in edges} - representatives))
    absorbed = rng.choice(group.absorbed)
    entity = rng.choice(sorted(v.id for v in merged.vertices(VertexKind.ENTITY)))
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
    transferred = {e.relation_id for e in before.edges() if e.character == absorbed} & {e.relation_id for e in edges}
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
                # an entity report explains its group's degree mismatch: it follows that report or another of its own
                for previous, (kind, detail) in zip([("", ""), *actual], actual):
                    if kind == "entity fact mismatch":
                        group = detail.partition(" and group of ")[2].partition(" changed: ")[0]
                        assert previous == ("neighbor degree mismatch", f"edge multiset of character {group} changed") or (
                            previous[0] == kind and f" and group of {group} changed: " in previous[1]
                        ), label
                labels.add(label)
    assert len(labels) == 14, sorted(labels)
