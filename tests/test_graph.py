"""Bundle construction, invariants, and the 1-mode projection."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from tapmerge import NetworkBundle, TimeInterval, VertexKind, project_one_mode, rebuild
from tapmerge.graph import (
    DuplicateIdError,
    GraphError,
    HeterogeneityError,
    SealedBundleError,
    UnknownVertexError,
    VertexKindError,
)


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
    copy = rebuild(
        club.bundle.vertices(),
        club.bundle.edges(),
        club.bundle.relation_types(),
        time_unit=club.bundle.time_unit,
    )
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
