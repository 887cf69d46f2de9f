"""Bundle construction, invariants, and the 1-mode projection."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest

from tapmerge import NetworkBundle, TimeInterval, VertexKind, apply_merge, load, plan_merge, project_one_mode, rebuild
from tapmerge.graph import (
    DuplicateIdError,
    GraphError,
    HeterogeneityError,
    OneModeRelation,
    SealedBundleError,
    UnknownVertexError,
    VertexKindError,
)
from tapmerge.testkit import RandomBundleSpec, generate


def test_interval_rejects_inversion_and_negatives():
    with pytest.raises(ValueError, match="inverted"):
        TimeInterval(2005, 2001)
    with pytest.raises(ValueError, match="non-negative"):
        TimeInterval(-1, 3)
    assert TimeInterval(2000, 2000).duration == 1
    assert TimeInterval(2000, 2004).duration == 5


def test_add_vertex_assigns_fresh_ids():
    bundle = NetworkBundle()
    a = bundle.add_vertex(VertexKind.CHARACTER, "person", "Faye Wu")
    b = bundle.add_vertex(VertexKind.ENTITY, "institution", "Jinan Univ.")
    assert a != b
    assert bundle.vertex(a).display_name == "Faye Wu"
    assert bundle.vertex(b).kind is VertexKind.ENTITY


def test_same_display_name_gets_distinct_ids():
    # names never key identity; same-named people stay separate vertices
    bundle = NetworkBundle()
    a = bundle.add_vertex(VertexKind.CHARACTER, "person", "Wei Zhang")
    b = bundle.add_vertex(VertexKind.CHARACTER, "person", "Wei Zhang")
    assert a != b


def test_duplicate_explicit_id_rejected():
    bundle = NetworkBundle()
    bundle.add_vertex(VertexKind.CHARACTER, "person", "A", vertex_id="x1")
    with pytest.raises(DuplicateIdError):
        bundle.add_vertex(VertexKind.CHARACTER, "person", "B", vertex_id="x1")


def test_generated_ids_skip_ids_already_registered():
    bundle = NetworkBundle()
    a = bundle.add_vertex(VertexKind.CHARACTER, "person", "A", vertex_id="c000001")
    b = bundle.add_vertex(VertexKind.CHARACTER, "person", "B", vertex_id="e000001")
    assert bundle.add_vertex(VertexKind.CHARACTER, "person", "C") == "c000002"
    e = bundle.add_vertex(VertexKind.ENTITY, "club", "E")
    assert e == "e000002"
    assert bundle.add_edge(a, e, "member", (2000, 2001), relation_id="r000001") == "r000001"
    assert bundle.add_edge(a, e, "member", (2000, 2001)) == "r000002"
    assert bundle.add_edge(b, e, "member", (2000, 2001)) == "r000003"


def test_explicit_id_equal_to_a_generated_one_is_rejected():
    bundle = NetworkBundle()
    c = bundle.add_vertex(VertexKind.CHARACTER, "person", "A")
    with pytest.raises(DuplicateIdError):
        bundle.add_vertex(VertexKind.CHARACTER, "person", "B", vertex_id=c)
    e = bundle.add_vertex(VertexKind.ENTITY, "club", "E")
    r = bundle.add_edge(c, e, "member", (2000, 2001))
    with pytest.raises(DuplicateIdError):
        bundle.add_edge(c, e, "member", (2000, 2001), relation_id=r)


def test_add_edge_happy_path_and_parallel_edges():
    bundle = NetworkBundle()
    c = bundle.add_vertex(VertexKind.CHARACTER, "person", "Faye Wu")
    e = bundle.add_vertex(VertexKind.ENTITY, "institution", "Hubei Minzu Univ.")
    r1 = bundle.add_edge(c, e, "study", (1992, 1996))
    r2 = bundle.add_edge(c, e, "study", (1992, 1996))
    assert r1 != r2
    assert bundle.edge_count == 2
    assert bundle.subnetwork("study").degree(c) == 2


def test_add_edge_validations():
    bundle = NetworkBundle()
    c = bundle.add_vertex(VertexKind.CHARACTER, "person", "A")
    e = bundle.add_vertex(VertexKind.ENTITY, "institution", "B")
    with pytest.raises(UnknownVertexError):
        bundle.add_edge("ghost", e, "study", (2000, 2001))
    with pytest.raises(VertexKindError):
        bundle.add_edge(e, c, "study", (2000, 2001))  # swapped endpoints
    with pytest.raises(ValueError, match="inverted"):
        bundle.add_edge(c, e, "study", (2002, 2001))


def test_sealed_bundle_rejects_mutation():
    bundle = NetworkBundle()
    bundle.add_vertex(VertexKind.CHARACTER, "person", "A")
    bundle.seal()
    with pytest.raises(SealedBundleError):
        bundle.add_vertex(VertexKind.ENTITY, "institution", "B")


def test_validate_heterogeneity():
    bundle = NetworkBundle()
    bundle.add_vertex(VertexKind.CHARACTER, "person", "A")
    with pytest.raises(HeterogeneityError):
        bundle.validate()
    bundle.add_vertex(VertexKind.ENTITY, "institution", "B")
    with pytest.raises(HeterogeneityError):
        bundle.validate()  # still no relation type
    bundle.declare_relation_type("study")
    bundle.validate()


def test_projection_multiplicity_counts_edge_pairs(club):
    one_mode = project_one_mode(club.bundle)
    assert one_mode.multiplicity(club.mona, club.nora) == 3
    provenance = {(rel.entity, rel.edge_a, rel.edge_b) for rel in one_mode.relations}
    assert provenance == {
        (club.chess, club.r1, club.r4),
        (club.chess, club.r2, club.r4),
        (club.film, club.r3, club.r5),
    }


def test_projection_is_symmetric(club):
    one_mode = project_one_mode(club.bundle)
    assert one_mode.multiplicity(club.mona, club.nora) == one_mode.multiplicity(club.nora, club.mona)
    assert one_mode.neighbors(club.mona) == {club.nora}


def test_projection_without_shared_entities_is_empty():
    bundle = NetworkBundle()
    a = bundle.add_vertex(VertexKind.CHARACTER, "person", "A")
    b = bundle.add_vertex(VertexKind.CHARACTER, "person", "B")
    e1 = bundle.add_vertex(VertexKind.ENTITY, "club", "E1")
    e2 = bundle.add_vertex(VertexKind.ENTITY, "club", "E2")
    bundle.add_edge(a, e1, "member", (2000, 2001))
    bundle.add_edge(b, e2, "member", (2000, 2001))
    assert project_one_mode(bundle.seal()).relations == []


def test_projection_single_character_has_no_relations():
    bundle = NetworkBundle()
    a = bundle.add_vertex(VertexKind.CHARACTER, "person", "A")
    e = bundle.add_vertex(VertexKind.ENTITY, "club", "E")
    bundle.add_edge(a, e, "member", (2000, 2001))
    bundle.add_edge(a, e, "member", (2002, 2003))
    assert project_one_mode(bundle.seal()).relations == []


def test_rebuild_preserves_everything(club):
    copy = rebuild(club.bundle.vertices(), club.bundle.edges(), club.bundle.relation_types())
    assert copy.sealed
    assert {v.id for v in copy.vertices()} == {v.id for v in club.bundle.vertices()}
    assert sorted(e.relation_id for e in copy.edges()) == sorted(e.relation_id for e in club.bundle.edges())
    assert copy.relation_types() == club.bundle.relation_types()


def test_max_end_tracks_latest_activity(club):
    assert club.bundle.max_end() == 2006
    assert NetworkBundle().max_end() is None


def person_and_entity() -> NetworkBundle:
    bundle = NetworkBundle()
    bundle.add_vertex(VertexKind.CHARACTER, "person", "A", vertex_id="c1")
    bundle.add_vertex(VertexKind.ENTITY, "institution", "Uni", vertex_id="e1")
    return bundle


def test_duplicate_relation_id_under_another_relation_type_rejected(club):
    bundle = person_and_entity()
    bundle.add_edge("c1", "e1", "study", (2000, 2001), relation_id="r1")
    with pytest.raises(DuplicateIdError):
        bundle.add_edge("c1", "e1", "work", (2002, 2003), relation_id="r1")
    edge = next(club.bundle.edges())
    clash = replace(edge, relation_type="other")
    with pytest.raises(DuplicateIdError):
        rebuild(club.bundle.vertices(), [edge, clash], club.bundle.relation_types())


def test_rebuild_rejects_unknown_and_wrong_kind_vertices(club):
    edge = next(club.bundle.edges())
    with pytest.raises(UnknownVertexError):
        rebuild(club.bundle.vertices(), [replace(edge, entity="ghost")], club.bundle.relation_types())
    with pytest.raises(VertexKindError):
        rebuild(club.bundle.vertices(), [replace(edge, character=edge.entity)], club.bundle.relation_types())


def test_rebuild_stores_the_callers_edge_objects(club):
    copy = rebuild(club.bundle.vertices(), club.bundle.edges(), club.bundle.relation_types())
    originals = {e.relation_id: e for e in club.bundle.edges()}
    assert all(originals[e.relation_id] is e for e in copy.edges())


def test_content_digest_needs_a_sealed_bundle():
    bundle = person_and_entity()
    with pytest.raises(GraphError, match="unsealed"):
        bundle.content_digest()
    assert len(bundle.seal().content_digest()) == 64


def test_content_digest_ignores_insertion_order():
    def build(order):
        bundle = NetworkBundle()
        for kind, vid in order:
            bundle.add_vertex(kind, "person" if kind is VertexKind.CHARACTER else "club", vid, vertex_id=vid)
        return bundle

    forward = build([(VertexKind.CHARACTER, "c1"), (VertexKind.CHARACTER, "c2"), (VertexKind.ENTITY, "e1")])
    backward = build([(VertexKind.ENTITY, "e1"), (VertexKind.CHARACTER, "c2"), (VertexKind.CHARACTER, "c1")])
    forward.add_edge("c1", "e1", "member", (2000, 2001), relation_id="r1")
    forward.add_edge("c2", "e1", "chair", (2002, 2003), relation_id="r2")
    backward.add_edge("c2", "e1", "chair", (2002, 2003), relation_id="r2")
    backward.add_edge("c1", "e1", "member", (2000, 2001), relation_id="r1")
    assert forward.seal().content_digest() == backward.seal().content_digest()


def test_content_digest_changes_with_one_interval(club):
    edges = list(club.bundle.edges())
    shifted = [replace(edges[0], interval=TimeInterval(edges[0].interval.start, edges[0].interval.end + 1)), *edges[1:]]
    copy = rebuild(club.bundle.vertices(), edges, club.bundle.relation_types())
    changed = rebuild(club.bundle.vertices(), shifted, club.bundle.relation_types())
    assert copy.content_digest() == club.bundle.content_digest()
    assert changed.content_digest() != club.bundle.content_digest()


def content_digest_reference(bundle: NetworkBundle) -> str:
    vertex_ids = sorted(v.id for v in bundle.vertices())
    edges = sorted(
        (e.relation_id, e.character, e.entity, e.relation_type, e.interval.start, e.interval.end)
        for e in bundle.edges()
    )
    return hashlib.sha256(repr((vertex_ids, edges)).encode("utf-8")).hexdigest()


def many_edges() -> NetworkBundle:
    # more vertices and edges than the digest renders per slice
    bundle = NetworkBundle()
    person = bundle.add_vertex(VertexKind.CHARACTER, "person", "Fäye")
    for i in range(9000):
        bundle.add_vertex(VertexKind.ENTITY, "club", f"club {i}")
    for i in range(9000):
        bundle.add_edge(person, f"e{i % 7 + 1:06d}", "mémber", (2000 + i % 5, 2010))
    return bundle.seal()


@pytest.mark.parametrize("which", ["scholars", "empty", "many edges"])
def test_content_digest_equals_the_sha256_of_one_repr(scholars_bundle, which):
    bundle = {
        "scholars": lambda: scholars_bundle,
        "empty": lambda: NetworkBundle().seal(),
        "many edges": many_edges,
    }[which]()
    assert bundle.content_digest() == content_digest_reference(bundle)


def test_edges_of_character_is_a_copy_the_caller_may_change(club):
    edges_before = list(club.bundle.edges())
    mona = club.tan.edges_of_character(club.mona)
    assert [e.relation_id for e in mona] == [club.r1, club.r2, club.r3]
    mona.clear()
    nora = club.tan.edges_of_character(club.nora)
    nora.append(nora[0])
    club.tan.edges_of_character("nobody").append(nora[0])

    assert [e.relation_id for e in club.tan.edges_of_character(club.mona)] == [club.r1, club.r2, club.r3]
    assert [e.relation_id for e in club.tan.edges_of_character(club.nora)] == [club.r4, club.r5]
    assert club.tan.edges_of_character("nobody") == []
    assert club.tan.degree(club.mona) == 3
    assert club.tan.degree(club.nora) == 2
    assert club.tan.neighbor_counts(club.mona) == {club.chess: 2, club.film: 1}
    assert list(club.bundle.edges()) == edges_before


DECLARED_ORDER = ["work", "unused", "study", "extra"]
HEADER = "character_id,character_name,entity_name,entity_type,relation_type,start,end"


def write_order_dataset(tmp_path):
    """Rows interleave three relation types; the manifest declares one type no row uses and omits one."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"relation_types": ["work", "unused", "study"], "entity_types": ["club"]}))
    records = tmp_path / "records.csv"
    rows = [
        ",Ann,Chess,club,study,2000,2001",  # r000001
        ",Bea,Film,club,extra,2001,2002",  # r000002
        ",Ann,Film,club,work,2002,2003",  # r000003
        ",Ann B,Chess,club,study,2000,2001",  # r000004
        ",Bea,Chess,club,study,2003,2004",  # r000005
        ",Ann B,Film,club,work,2002,2004",  # r000006
        ",Ann,Go,club,extra,2005,2006",  # r000007
        ",Ann B,Go,club,extra,2005,2006",  # r000008
        ",Bea,Go,club,work,2006,2007",  # r000009
    ]
    records.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    return records, manifest


def assert_declaration_order(bundle: NetworkBundle, relation_ids: list[str]) -> None:
    assert bundle.relation_types() == DECLARED_ORDER
    assert [tan.relation_type for tan in bundle.subnetworks()] == DECLARED_ORDER
    assert [e.relation_id for e in bundle.edges()] == relation_ids
    bundle.validate()


def test_relation_types_and_edges_follow_declaration_order(tmp_path):
    bundle, report = load(*write_order_dataset(tmp_path))
    assert report.discovered_relation_types == ["extra"]
    # relation types in declaration order, then rows in file order within each type
    loaded = ["r000003", "r000006", "r000009", "r000001", "r000004", "r000005", "r000002", "r000007", "r000008"]
    assert_declaration_order(bundle, loaded)
    assert len(bundle.subnetwork("unused")) == 0

    # fed in row order, which interleaves the types
    in_row_order = sorted(bundle.edges(), key=lambda e: e.relation_id)
    copy = rebuild(bundle.vertices(), in_row_order, bundle.relation_types())
    assert_declaration_order(copy, loaded)

    names = {v.display_name: v.id for v in bundle.vertices(VertexKind.CHARACTER)}
    merged = apply_merge(bundle, plan_merge(bundle, [[names["Ann"], names["Ann B"]]]))
    # Ann B's r000004 and r000008 repeat Ann's facts and are dropped; r000006 differs and is transferred
    assert merged.audit.dropped_edges == 2
    assert merged.audit.transferred_edges == 1
    assert_declaration_order(
        merged.bundle, ["r000003", "r000006", "r000009", "r000001", "r000005", "r000002", "r000007"]
    )


def brute_force_projection(bundle: NetworkBundle) -> list[OneModeRelation]:
    edges = list(bundle.edges())
    relations = [
        OneModeRelation(ea.character, eb.character, ea.entity, ea.relation_type, ea.relation_id, eb.relation_id)
        for ea in edges
        for eb in edges
        if ea.character < eb.character and ea.entity == eb.entity and ea.relation_type == eb.relation_type
    ]
    return sorted(relations, key=lambda r: (r.a, r.b, r.entity, r.relation_type, r.edge_a, r.edge_b))


def one_entity_in_two_relation_types() -> NetworkBundle:
    bundle = NetworkBundle()
    a, b, c = (bundle.add_vertex(VertexKind.CHARACTER, "person", name) for name in "ABC")
    lab = bundle.add_vertex(VertexKind.ENTITY, "lab", "Lab")
    for character, relation_type, interval in [
        (c, "work", (2000, 2001)),
        (a, "study", (2000, 2002)),
        (b, "work", (2001, 2003)),
        (a, "work", (2003, 2004)),
        (c, "work", (2005, 2006)),
        (b, "study", (2000, 2002)),
        (a, "work", (2007, 2008)),
    ]:
        bundle.add_edge(character, lab, relation_type, interval)
    return bundle.seal()


@pytest.mark.parametrize("which", ["generated 0", "generated 1", "generated 2", "scholars", "one entity, two types"])
def test_projection_equals_a_brute_force_over_all_edges(scholars_bundle, which):
    if which.startswith("generated"):
        seed = int(which.split()[1])
        bundle = generate(RandomBundleSpec(characters=40, entities_per_type=5, relation_types=3, seed=seed))
    else:
        bundle = {"scholars": scholars_bundle, "one entity, two types": one_entity_in_two_relation_types()}[which]
    expected = brute_force_projection(bundle)
    one_mode = project_one_mode(bundle)
    assert one_mode.relations == expected
    assert one_mode.characters == bundle.character_ids()
    if which.startswith("generated"):
        # the shapes the projection must count: parallel edges and entities shared by several characters
        facts = Counter((e.character, e.entity, e.relation_type) for e in bundle.edges())
        assert max(facts.values()) >= 2
        sharers = Counter(entity for _, entity, _ in facts)
        assert sum(1 for n in sharers.values() if n >= 3) >= 3
        assert any(facts[(r.a, r.entity, r.relation_type)] >= 2 for r in expected)
