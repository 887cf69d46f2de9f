"""Brute-force oracles and reproducible random instances.

The oracle here enumerates every activity path literally and sums the
weight products, recomputing edge weights from scratch. It shares only
the graph types with the production similarity code, never its
aggregation shortcuts, so agreement between the two is evidence rather
than tautology.

The generators build seeded random bundles and plant duplicates of
three flavors: exact clones, clones whose whole history is shifted in
time (same structure, different weights), and partial clones that swap
out one subnetwork's entities (different structure).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .graph import NetworkBundle, TemporalActivityNetwork, TemporalEdge, TimeInterval, Vertex, VertexKind, rebuild

ORACLE_PATH_LIMIT = 10_000


class OracleSizeError(Exception):
    """The instance has too many paths for literal enumeration."""


def _raw_weight(edge: TemporalEdge, now: int) -> int:
    if edge.interval.start > now:
        raise ValueError(f"edge {edge.relation_id} starts after now={now}")
    return (now + 1 - edge.interval.start) * (edge.interval.end + 1 - edge.interval.start)


def oracle_simtap_beta(tan: TemporalActivityNetwork, x: str, y: str, now: int) -> float:
    """Path similarity by literal enumeration of every path triple."""
    edges_x = tan.edges_of_character(x)
    edges_y = tan.edges_of_character(y)
    path_count = 0
    for bag_a, bag_b in ((edges_x, edges_y), (edges_x, edges_x), (edges_y, edges_y)):
        for ea in bag_a:
            path_count += sum(1 for eb in bag_b if eb.entity == ea.entity)
    if path_count > ORACLE_PATH_LIMIT:
        raise OracleSizeError(f"{path_count} paths exceed the oracle limit of {ORACLE_PATH_LIMIT}")

    def weight_sum(bag_a: list[TemporalEdge], bag_b: list[TemporalEdge]) -> int:
        total = 0
        for ea in bag_a:
            for eb in bag_b:
                if ea.entity == eb.entity:
                    total += _raw_weight(ea, now) * _raw_weight(eb, now)
        return total

    w_xy = weight_sum(edges_x, edges_y)
    w_xx = weight_sum(edges_x, edges_x)
    w_yy = weight_sum(edges_y, edges_y)
    if w_xx + w_yy == 0:
        return 0.0
    return (2 * w_xy) / (w_xx + w_yy)


class PlantMode(Enum):
    EXACT_CLONE = "exact-clone"
    TIME_SHIFTED = "time-shifted"
    PARTIAL_CLONE = "partial-clone"


@dataclass(frozen=True)
class RandomBundleSpec:
    characters: int
    entities_per_type: int
    relation_types: int
    edge_density: float = 1.5
    interval_span: tuple[int, int] = (2000, 2014)
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.characters, self.entities_per_type, self.relation_types) < 0:
            raise ValueError("counts must be non-negative")
        if self.interval_span[1] < self.interval_span[0]:
            raise ValueError("interval span is inverted")


@dataclass(frozen=True)
class PlantedPair:
    original: str
    clone: str
    mode: PlantMode


def generate(spec: RandomBundleSpec) -> NetworkBundle:
    """Seeded random bundle; one entity type per relation type."""
    rng = random.Random(spec.seed)
    bundle = NetworkBundle()
    betas = [f"activity{i + 1}" for i in range(spec.relation_types)]
    for beta in betas:
        bundle.declare_relation_type(beta)
    entities: dict[str, list[str]] = {}
    for i, beta in enumerate(betas):
        type_label = f"venue{i + 1}"
        entities[beta] = [
            bundle.add_vertex(VertexKind.ENTITY, type_label, f"{type_label}-{j + 1:04d}")
            for j in range(spec.entities_per_type)
        ]
    lo, hi = spec.interval_span
    max_per_subnetwork = max(1, round(2 * spec.edge_density))
    for i in range(spec.characters):
        character = bundle.add_vertex(VertexKind.CHARACTER, "person", f"person-{i + 1:04d}")
        for beta in betas:
            if not entities[beta]:
                continue
            for _ in range(rng.randint(0, max_per_subnetwork)):
                entity = rng.choice(entities[beta])
                start = rng.randint(lo, hi)
                end = rng.randint(start, hi)
                bundle.add_edge(character, entity, beta, (start, end))
    return bundle.seal()


def fully_active_characters(bundle: NetworkBundle) -> list[str]:
    """Characters with at least one edge in every declared subnetwork."""
    betas_by_character: dict[str, set[str]] = {}
    for edge in bundle.edges():
        betas_by_character.setdefault(edge.character, set()).add(edge.relation_type)
    all_betas = set(bundle.relation_types())
    return sorted(cid for cid in bundle.character_ids() if betas_by_character.get(cid) == all_betas)


def plant_duplicates(
    bundle: NetworkBundle,
    k: int,
    mode: PlantMode,
    seed: int = 0,
) -> tuple[NetworkBundle, list[PlantedPair]]:
    """Return a new bundle with `k` planted duplicates plus the ground truth.

    Sources are drawn (without replacement) from characters active in
    every declared subnetwork, so an exact clone really is
    indistinguishable everywhere (a pair absent from a subnetwork scores
    0 there, which would cap the clone's aggregate below 1). Planted ids
    carry their own prefixes so they never collide with existing ids.
    """
    rng = random.Random(seed)
    eligible = fully_active_characters(bundle)
    if k > len(eligible):
        raise ValueError(
            f"cannot plant {k} duplicates; only {len(eligible)} characters are active in every subnetwork"
        )
    sources = sorted(rng.sample(eligible, k))

    vertices = bundle.vertices()
    edges = list(bundle.edges())
    taken = {vertex.id for vertex in vertices}

    entities_by_type: dict[str, list[str]] = {}
    for vertex in bundle.vertices(VertexKind.ENTITY):
        entities_by_type.setdefault(vertex.type_label, []).append(vertex.id)
    for ids in entities_by_type.values():
        ids.sort()

    planted_edges = 0
    ground_truth: list[PlantedPair] = []
    for i, source in enumerate(sources):
        clone_id = f"dup{i + 1:04d}-{source}"
        vertices.append(bundle.vertex(source)._replace(id=clone_id))
        source_edges = sorted(
            (edge for tan in bundle.subnetworks() for edge in tan.edges_of_character(source)), key=lambda e: e.relation_id
        )

        def plant_edge(entity: str, relation_type: str, interval: TimeInterval) -> None:
            nonlocal planted_edges
            planted_edges += 1
            edges.append(TemporalEdge(f"planted{planted_edges:06d}", clone_id, entity, relation_type, interval))

        if mode is PlantMode.EXACT_CLONE:
            for edge in source_edges:
                plant_edge(edge.entity, edge.relation_type, edge.interval)
        elif mode is PlantMode.TIME_SHIFTED:
            # one forward shift for the whole history keeps the structure
            # but strictly lowers every aggregated weight
            shift = rng.randint(1, 5)
            for edge in source_edges:
                shifted = TimeInterval(edge.interval.start + shift, edge.interval.end + shift)
                plant_edge(edge.entity, edge.relation_type, shifted)
        elif mode is PlantMode.PARTIAL_CLONE:
            # replacements are drawn outside the source's own neighborhood in
            # the swapped subnetwork, so the clone's structure always differs
            swapped_beta = rng.choice(sorted({e.relation_type for e in source_edges}))
            own = {e.entity for e in source_edges if e.relation_type == swapped_beta}
            for edge in source_edges:
                entity = edge.entity
                if edge.relation_type == swapped_beta:
                    type_label = bundle.vertex(entity).type_label
                    pool = [eid for eid in entities_by_type.get(type_label, []) if eid not in own]
                    if not pool:
                        # a subnetwork that holds two entity types may need a stand-in of each
                        stand_in = f"swap-{clone_id}"
                        if stand_in in taken:
                            stand_in += f"-{type_label}"
                        vertices.append(Vertex(stand_in, VertexKind.ENTITY, type_label, f"stand-in-{clone_id}"))
                        taken.add(stand_in)
                        pool = [stand_in]
                        entities_by_type.setdefault(type_label, []).append(stand_in)
                    entity = rng.choice(pool)
                plant_edge(entity, edge.relation_type, edge.interval)
        else:
            raise ValueError(f"unknown plant mode {mode}")
        ground_truth.append(PlantedPair(source, clone_id, mode))

    return rebuild(vertices, edges, bundle.relation_types()), ground_truth
