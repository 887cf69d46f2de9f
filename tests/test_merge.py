"""Merge planning, application, conservation, and verification."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from tapmerge import NetworkBundle, Vertex, VertexKind, apply_merge, plan_merge, rebuild, verify_merge
from tapmerge.graph import TimeInterval
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
    shifted = replace(rep_edges[0], interval=TimeInterval(1990, 1990))

    corruptions = {
        "vertex count mismatch": (vertices + [Vertex("extra", VertexKind.ENTITY, "club", "Extra")], edges),
        "absorbed vertex present": (vertices + [scholars_bundle.vertex(absorbed)], edges),
        "neighbor degree mismatch": (vertices, other_edges + rep_edges[1:]),
        "entity fact mismatch": (vertices, other_edges + [shifted] + rep_edges[1:]),
        "representative not a character": (
            [v if v.id != representative else replace(v, kind=VertexKind.ENTITY) for v in vertices],
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


def test_verification_reports_a_transfer_of_another_characters_edge(scholars_bundle, scholar_ids):
    faye, fei = scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]
    plan = plan_merge(scholars_bundle, [[faye, fei]])
    merged = apply_merge(scholars_bundle, plan).bundle
    group = plan.groups[0]
    (absorbed,) = group.absorbed
    foreign = next(e.relation_id for e in scholars_bundle.edges() if e.character not in (faye, fei))
    wrong = replace(
        group,
        dispositions={absorbed: (*group.dispositions[absorbed], EdgeDisposition(foreign, "transfer-to-representative"))},
    )
    report = verify_merge(scholars_bundle, merged, replace(plan, groups=[wrong]))
    assert [(v.kind, v.detail) for v in report.violations] == [
        ("neighbor degree mismatch", f"plan transfers {foreign}, which is not an edge of {absorbed}"),
    ]


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
