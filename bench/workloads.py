"""Seeded input generators for the dedupe benchmark.

Each workload builds a bundle through the public `tapmerge` API
(`testkit.generate`, `NetworkBundle`, `rebuild`), writes it out as a
records CSV plus manifest with the benchmark's own writer, and returns
the ground truth the outputs are checked against. The program under
test only ever sees the written files.

The three shapes load different modules (see bench/README.md):

- uniform: many people, many two-member groups; load, graph build and
  the pairwise representative check in `verify_merge` do the work.
- hot_entity: one popular paper shared by every person, so one
  signature bucket and a quadratic number of candidate pairs, none of
  which can reach theta; screening, similarity and the pool do the work.
- deep_history: long histories with parallel edges and triples whose
  third member drifted one interval, the only shape with transferred
  edges in the merge.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from tapmerge import NetworkBundle, TemporalEdge, Vertex, VertexKind, rebuild
from tapmerge.testkit import RandomBundleSpec, fully_active_characters, generate

# the input format contract of `tapmerge`, written out by hand so that a
# change to the package's own constant cannot silently change the inputs
RECORDS_HEADER = ["character_id", "character_name", "entity_name", "entity_type", "relation_type", "start", "end"]


@dataclass(frozen=True)
class Expected:
    """Ground truth for one generated instance."""

    groups: list[list[str]]
    removed_vertices: int
    dropped_edges: int
    transferred_edges: int


@dataclass(frozen=True)
class Instance:
    bundle: NetworkBundle
    entity_types: list[str]
    expected: Expected


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    theta: float
    now: int
    workers: int
    full: dict
    toy: dict

    def build(self, seed: int, sizes: dict) -> Instance:
        return BUILDERS[self.name](seed, now=self.now, **sizes)


def _uniform(seed: int, now: int, people: int, clones: int) -> Instance:
    base = generate(
        RandomBundleSpec(
            characters=people,
            entities_per_type=max(1, people // 4),
            relation_types=4,
            interval_span=(2000, now),
            seed=seed,
        )
    )
    # exact clones of people active in every subnetwork score exactly 1;
    # a source absent from one subnetwork would cap its clone at 0.75
    sources = sorted(random.Random(seed).sample(fully_active_characters(base), clones))
    vertices = base.vertices()
    edges = list(base.edges())
    by_character: dict[str, list[TemporalEdge]] = {}
    for edge in edges:
        by_character.setdefault(edge.character, []).append(edge)
    groups = []
    dropped = 0
    for source in sources:
        clone = f"{source}-clone"
        vertices.append(Vertex(clone, VertexKind.CHARACTER, "person", base.vertex(source).display_name))
        for edge in by_character[source]:
            edges.append(
                TemporalEdge(f"{edge.relation_id}-clone", clone, edge.entity, edge.relation_type, edge.interval)
            )
            dropped += 1
        groups.append([source, clone])
    bundle = rebuild(vertices, edges, base.relation_types())
    entity_types = sorted({v.type_label for v in base.vertices(VertexKind.ENTITY)})
    return Instance(bundle, entity_types, Expected(groups, len(groups), dropped, 0))


def _hot_entity(seed: int, now: int, people: int) -> Instance:
    rng = random.Random(seed)
    bundle = NetworkBundle()
    for beta in ("study", "work", "research", "coauthor"):
        bundle.declare_relation_type(beta)
    paper = bundle.add_vertex(VertexKind.ENTITY, "publication", "popular-paper")
    for i in range(people):
        person = bundle.add_vertex(VertexKind.CHARACTER, "person", f"author-{i + 1:05d}", vertex_id=f"a{i + 1:05d}")
        start = rng.randint(now - 25, now)
        bundle.add_edge(person, paper, "coauthor", (start, rng.randint(start, now)))
    # every pair shares the whole structure but is active in 1 of 4
    # subnetworks, so its score is at most 0.25: no groups, no merge
    return Instance(bundle.seal(), ["institution", "project", "publication"], Expected([], 0, 0, 0))


def _deep_history(
    seed: int, now: int, people: int, triples: int, relation_types: int, edges_per_type: int, pool: int
) -> Instance:
    rng = random.Random(seed)
    bundle = NetworkBundle()
    betas = [f"history{i + 1}" for i in range(relation_types)]
    entities = {}
    for i, beta in enumerate(betas):
        bundle.declare_relation_type(beta)
        entities[beta] = [
            bundle.add_vertex(VertexKind.ENTITY, f"org{i + 1}", f"org{i + 1}-{j + 1:03d}") for j in range(pool)
        ]

    histories: dict[str, list[tuple[str, str, int, int]]] = {}
    for i in range(people):
        person = bundle.add_vertex(VertexKind.CHARACTER, "person", f"person-{i + 1:05d}", vertex_id=f"p{i + 1:05d}")
        history = []
        for beta in betas:
            # few entities per subnetwork, so parallel edges are common
            for _ in range(edges_per_type):
                start = rng.randint(now - 35, now)
                history.append((rng.choice(entities[beta]), beta, start, rng.randint(start, min(now, start + 10))))
        histories[person] = history

    groups = []
    dropped = transferred = 0
    for source in sorted(rng.sample(sorted(histories), triples)):
        history = histories[source]
        drifted = list(history)
        k = rng.randrange(len(drifted))
        entity, beta, start, end = drifted[k]
        shift = rng.randint(1, 3)
        if end + shift > now:
            shift = -shift
        drifted[k] = (entity, beta, start + shift, end + shift)
        exact_id, drifted_id = f"{source}-a", f"{source}-b"
        histories[exact_id] = history
        histories[drifted_id] = drifted
        for clone in (exact_id, drifted_id):
            bundle.add_vertex(VertexKind.CHARACTER, "person", bundle.vertex(source).display_name, vertex_id=clone)
        # the representative is the smallest id (the source); absorbed members
        # drop every fact it already holds and transfer the rest
        known = set(history)
        for fact in history + drifted:
            if fact in known:
                dropped += 1
            else:
                known.add(fact)
                transferred += 1
        groups.append([source, exact_id, drifted_id])

    for person, history in histories.items():
        for entity, beta, start, end in history:
            bundle.add_edge(person, entity, beta, (start, end))
    entity_types = [f"org{i + 1}" for i in range(relation_types)]
    return Instance(bundle.seal(), entity_types, Expected(groups, 2 * len(groups), dropped, transferred))


BUILDERS = {"uniform": _uniform, "hot_entity": _hot_entity, "deep_history": _deep_history}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uniform",
            why="many people and many two-member groups, so load, graph build and merge verification do the work",
            theta=0.80,
            now=2014,
            workers=1,
            full={"people": 3000, "clones": 150},
            toy={"people": 200, "clones": 10},
        ),
        Workload(
            name="hot_entity",
            why="one popular paper shared by every person: one bucket, quadratic candidates and the process pool, "
            "no merge",
            theta=0.80,
            now=2014,
            workers=2,
            full={"people": 200},
            toy={"people": 20},
        ),
        Workload(
            name="deep_history",
            why="long histories with parallel edges and drifted triples, the only shape with transferred edges",
            theta=0.80,
            now=2014,
            workers=1,
            full={"people": 700, "triples": 70, "relation_types": 6, "edges_per_type": 5, "pool": 12},
            toy={"people": 60, "triples": 6, "relation_types": 6, "edges_per_type": 5, "pool": 12},
        ),
    )
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_inputs(instance: Instance, records: Path, manifest: Path) -> int:
    """Write the records CSV and manifest; return the number of data rows."""
    bundle = instance.bundle
    rows = 0
    with open(records, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORDS_HEADER)
        for edge in bundle.edges():
            character = bundle.vertex(edge.character)
            entity = bundle.vertex(edge.entity)
            writer.writerow(
                [
                    character.id,
                    character.display_name,
                    entity.display_name,
                    entity.type_label,
                    edge.relation_type,
                    edge.interval.start,
                    edge.interval.end,
                ]
            )
            rows += 1
    doc = {
        "relation_types": bundle.relation_types(),
        "entity_types": instance.entity_types,
        "time_unit": "year",
        "now": None,
    }
    manifest.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return rows
