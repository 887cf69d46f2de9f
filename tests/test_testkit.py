"""Generator reproducibility, plant modes, and the enumeration oracle."""

from __future__ import annotations

import pytest

from tapmerge import NetworkBundle, VertexKind, resolve_now, simtap, structure_error
from tapmerge.testkit import (
    OracleSizeError,
    PlantMode,
    RandomBundleSpec,
    fully_active_characters,
    generate,
    oracle_simtap_beta,
    plant_duplicates,
)


def graph_shape(bundle: NetworkBundle) -> tuple:
    vertices = tuple(sorted((v.id, v.kind.value, v.type_label, v.display_name) for v in bundle.vertices()))
    edges = tuple(
        sorted(
            (e.relation_id, e.character, e.entity, e.relation_type, e.interval.start, e.interval.end)
            for e in bundle.edges()
        )
    )
    return vertices, edges


SPEC = RandomBundleSpec(characters=8, entities_per_type=4, relation_types=3, edge_density=1.2, seed=5)


def test_generation_is_deterministic_per_seed():
    assert graph_shape(generate(SPEC)) == graph_shape(generate(SPEC))
    other = RandomBundleSpec(**{**SPEC.__dict__, "seed": 6})
    assert graph_shape(generate(other)) != graph_shape(generate(SPEC))


def test_generated_bundles_are_heterogeneous_and_sealed():
    bundle = generate(SPEC)
    assert bundle.sealed
    assert len({v.type_label for v in bundle.vertices()}) == 4
    assert len(bundle.relation_types()) == 3


def test_planting_is_deterministic_and_collision_free():
    base = generate(SPEC)
    k = min(3, len(fully_active_characters(base)))
    assert k > 0
    first, truth1 = plant_duplicates(base, k=k, mode=PlantMode.EXACT_CLONE, seed=9)
    second, truth2 = plant_duplicates(base, k=k, mode=PlantMode.EXACT_CLONE, seed=9)
    assert graph_shape(first) == graph_shape(second)
    assert truth1 == truth2
    base_ids = {v.id for v in base.vertices()}
    clone_ids = {p.clone for p in truth1}
    assert clone_ids.isdisjoint(base_ids)
    assert len(truth1) == k


def test_planting_more_than_available_fails():
    base = generate(RandomBundleSpec(characters=2, entities_per_type=2, relation_types=1, seed=1))
    with pytest.raises(ValueError, match="cannot plant"):
        plant_duplicates(base, k=5, mode=PlantMode.EXACT_CLONE)


def plant_two(seed: int, mode: PlantMode):
    base = generate(RandomBundleSpec(characters=8, entities_per_type=3, relation_types=2, seed=seed))
    k = min(2, len(fully_active_characters(base)))
    assert k > 0
    return plant_duplicates(base, k=k, mode=mode, seed=seed)


@pytest.mark.parametrize("seed", range(5))
def test_exact_clones_are_invisible_to_both_measures(seed):
    planted, truth = plant_two(seed, PlantMode.EXACT_CLONE)
    now = resolve_now(planted, None)
    for pair in truth:
        assert structure_error(planted, pair.original, pair.clone).is_zero
        assert simtap(planted, pair.original, pair.clone, now).aggregate == 1.0


@pytest.mark.parametrize("seed", range(5))
def test_time_shifted_clones_match_structure_but_not_similarity(seed):
    planted, truth = plant_two(seed, PlantMode.TIME_SHIFTED)
    now = resolve_now(planted, None)
    for pair in truth:
        assert structure_error(planted, pair.original, pair.clone).is_zero
        assert simtap(planted, pair.original, pair.clone, now).aggregate < 1.0


@pytest.mark.parametrize("seed", range(5))
def test_partial_clones_fail_structure_screening(seed):
    planted, truth = plant_two(seed, PlantMode.PARTIAL_CLONE)
    for pair in truth:
        assert structure_error(planted, pair.original, pair.clone).value > 0.0


def test_a_partial_clone_gets_a_stand_in_of_each_entity_type_its_subnetwork_lacks():
    # the source holds every entity of both types, so each swapped edge needs a stand-in; it used to
    # fail with a DuplicateIdError when the second type reused the first stand-in's id
    bundle = NetworkBundle()
    ann = bundle.add_vertex(VertexKind.CHARACTER, "person", "Ann")
    for type_label in ("institution", "paper"):
        bundle.add_edge(ann, bundle.add_vertex(VertexKind.ENTITY, type_label, type_label), "work", (2000, 2001))
    planted, (pair,) = plant_duplicates(bundle.seal(), k=1, mode=PlantMode.PARTIAL_CLONE)
    stand_ins = {planted.vertex(e.entity).type_label for e in planted.edges() if e.character == pair.clone}
    assert stand_ins == {"institution", "paper"}
    assert not structure_error(planted, pair.original, pair.clone).is_zero


def test_oracle_trivial_cases(club):
    assert oracle_simtap_beta(club.tan, club.mona, club.mona, now=2006) == 1.0
    bundle = NetworkBundle()
    x = bundle.add_vertex(VertexKind.CHARACTER, "person", "x")
    y = bundle.add_vertex(VertexKind.CHARACTER, "person", "y")
    e1 = bundle.add_vertex(VertexKind.ENTITY, "club", "e1")
    e2 = bundle.add_vertex(VertexKind.ENTITY, "club", "e2")
    bundle.add_edge(x, e1, "member", (2000, 2001))
    bundle.add_edge(y, e2, "member", (2000, 2001))
    assert oracle_simtap_beta(bundle.seal().subnetwork("member"), x, y, now=2005) == 0.0


def test_oracle_refuses_oversized_instances():
    bundle = NetworkBundle()
    x = bundle.add_vertex(VertexKind.CHARACTER, "person", "x")
    hub = bundle.add_vertex(VertexKind.ENTITY, "club", "hub")
    for _ in range(120):
        bundle.add_edge(x, hub, "member", (2000, 2001))
    tan = bundle.seal().subnetwork("member")
    with pytest.raises(OracleSizeError):
        oracle_simtap_beta(tan, x, x, now=2005)
