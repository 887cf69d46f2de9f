"""Acceptance suite: one test per release criterion, plus the
hash-seed determinism check next to criterion 9.

Run with `pytest tests/test_acceptance.py -v`; a summary block at the
end of the run prints one pass/fail line per criterion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import tapmerge
from tapmerge import (
    apply_merge,
    combine_subnetwork_scores,
    enumerate_paths,
    plan_merge,
    screen_candidates,
    simtap,
    simtap_beta,
    structure_error,
    threshold_groups,
    verify_merge,
)
from tapmerge.cli import main as cli_main
from tapmerge.ingest import export_records_csv
from tapmerge.testkit import (
    PlantMode,
    RandomBundleSpec,
    generate,
    oracle_simtap_beta,
    plant_duplicates,
)

from conftest import SCHOLAR_NOW

DESK_SPEC = RandomBundleSpec(
    characters=600, entities_per_type=150, relation_types=4, edge_density=1.5, seed=0
)


def test_criterion_1_aggregation_reproduces_reference_rows():
    """Mean over four subnetwork scores matches the published row totals."""
    assert combine_subnetwork_scores([0.0000, 0.4235, 1.0000, 1.0000]) == pytest.approx(0.6059, abs=5e-5)
    assert combine_subnetwork_scores([0.8661, 1.0000, 1.0000, 0.0000]) == pytest.approx(0.7165, abs=5e-5)


def test_criterion_2_scholar_fixture_screens_exactly_two_pairs(scholars_bundle):
    start = time.time()
    candidates = screen_candidates(scholars_bundle)
    named = {
        (scholars_bundle.vertex(x).display_name, scholars_bundle.vertex(y).display_name)
        for x, y in candidates.pair_ids()
    }
    assert named == {("Faye Wu", "Fei Wu"), ("ShaoJia Zhu", "ShaoNan Zhu")}
    assert all(structure_error(scholars_bundle, x, y).value == 0.0 for x, y in candidates.pair_ids())
    assert time.time() - start < 1.0


def test_criterion_3_club_network_path_structure(club):
    paths = enumerate_paths(club.tan, club.mona, club.nora, now=2006)
    assert {(p.entity, p.relation_a, p.relation_b) for p in paths} == {
        (club.chess, club.r1, club.r4),
        (club.chess, club.r2, club.r4),
        (club.film, club.r3, club.r5),
    }
    # per shared entity, the path count is the product of the edge counts
    per_entity = Counter(p.entity for p in paths)
    tan = club.tan
    for entity in (club.chess, club.film):
        nx = sum(1 for e in tan.edges_of_character(club.mona) if e.entity == entity)
        ny = sum(1 for e in tan.edges_of_character(club.nora) if e.entity == entity)
        assert per_entity[entity] == nx * ny


def test_criterion_4_oracle_equivalence_over_1000_bundles():
    start = time.time()
    now = 2014
    checked = 0
    for seed in range(1000):
        spec = RandomBundleSpec(
            characters=6,
            entities_per_type=3,
            relation_types=1 + seed % 4,
            edge_density=1.2,
            seed=seed,
        )
        bundle = generate(spec)
        assert bundle.vertex_count <= 20
        assert bundle.edge_count <= 60
        ids = bundle.character_ids()
        for beta in bundle.relation_types():
            tan = bundle.subnetwork(beta)
            for i, x in enumerate(ids):
                for y in ids[i + 1 :]:
                    fast = simtap_beta(tan, x, y, now)
                    slow = oracle_simtap_beta(tan, x, y, now)
                    assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)
                    checked += 1
    assert checked > 30_000
    assert time.time() - start < 60.0


def test_criterion_5_similarity_property_suite():
    now = 2014
    instances = 0
    for seed in range(1000):
        bundle = generate(
            RandomBundleSpec(
                characters=5, entities_per_type=3, relation_types=1 + seed % 3, edge_density=1.0, seed=10_000 + seed
            )
        )
        instances += 1
        ids = bundle.character_ids()
        for beta in bundle.relation_types():
            tan = bundle.subnetwork(beta)
            vectors: dict[str, dict[str, int]] = {c: {} for c in ids}
            for c in ids:
                for e in tan.edges_of_character(c):
                    weight = (now + 1 - e.interval.start) * (e.interval.end + 1 - e.interval.start)
                    vectors[c][e.entity] = vectors[c].get(e.entity, 0) + weight
            for i, x in enumerate(ids):
                if tan.edges_of_character(x):
                    assert simtap_beta(tan, x, x, now) == 1.0
                for y in ids[i + 1 :]:
                    value = simtap_beta(tan, x, y, now)
                    assert 0.0 <= value <= 1.0
                    assert value == simtap_beta(tan, y, x, now)
                    vectors_equal = vectors[x] == vectors[y]
                    nonempty = bool(vectors[x]) or bool(vectors[y])
                    assert (value == 1.0) == (vectors_equal and nonempty)
    assert instances == 1000


def test_criterion_6_structure_error_property_suite():
    instances = 0
    for seed in range(1000):
        bundle = generate(
            RandomBundleSpec(
                characters=5, entities_per_type=3, relation_types=1 + seed % 3, edge_density=1.0, seed=20_000 + seed
            )
        )
        instances += 1
        multisets = {c: Counter() for c in bundle.character_ids()}
        for edge in bundle.edges():
            multisets[edge.character][(edge.relation_type, edge.entity)] += 1
        ids = bundle.character_ids()
        for i, x in enumerate(ids):
            for y in ids[i + 1 :]:
                err = structure_error(bundle, x, y)
                assert 0.0 <= err.value <= 1.0
                assert err.value == structure_error(bundle, y, x).value
                equal = multisets[x] == multisets[y]
                nonempty = bool(multisets[x]) or bool(multisets[y])
                assert (err.value == 0.0) == (equal and nonempty)
    assert instances == 1000


def _write_inputs(bundle, directory) -> tuple[str, str]:
    records = directory / "records.csv"
    manifest = directory / "manifest.json"
    export_records_csv(bundle, records)
    doc = {
        "relation_types": bundle.relation_types(),
        "entity_types": sorted({v.type_label for v in bundle.vertices() if v.type_label != "person"}),
    }
    manifest.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(records), str(manifest)


def test_criterion_7_planted_duplicate_pipeline(tmp_path):
    start = time.time()
    base = generate(DESK_SPEC)

    # exact clones: the full command-line pipeline recovers all 20 pairs, nothing else
    planted, truth = plant_duplicates(base, k=20, mode=PlantMode.EXACT_CLONE, seed=0)
    records, manifest = _write_inputs(planted, tmp_path)
    out = tmp_path / "out"
    code = cli_main(
        ["dedupe", "--records", records, "--manifest", manifest, "--out", str(out), "--theta", "0.80"]
    )
    assert code == 0
    groups = json.loads((out / "groups.json").read_text())["groups"]
    found_pairs = {
        tuple(sorted((x, y)))
        for group in groups
        for i, x in enumerate(group)
        for y in group[i + 1 :]
    }
    truth_pairs = {tuple(sorted((p.original, p.clone))) for p in truth}
    true_positives = len(found_pairs & truth_pairs)
    precision = true_positives / len(found_pairs)
    recall = true_positives / len(truth_pairs)
    assert precision == 1.0
    assert recall == 1.0

    # time-shifted clones: structurally invisible, temporally distinguishable
    shifted, shifted_truth = plant_duplicates(base, k=20, mode=PlantMode.TIME_SHIFTED, seed=0)
    candidate_pairs = set(map(tuple, screen_candidates(shifted).pair_ids()))
    now = shifted.max_end()
    for pair in shifted_truth:
        key = tuple(sorted((pair.original, pair.clone)))
        assert structure_error(shifted, pair.original, pair.clone).is_zero
        assert key in candidate_pairs
        assert simtap(shifted, pair.original, pair.clone, now).aggregate < 1.0
    assert time.time() - start < 30.0


def test_criterion_8_merge_conservation_on_the_scholar_fixture(scholars_bundle):
    candidates = screen_candidates(scholars_bundle)
    groups = threshold_groups(candidates, scholars_bundle, theta=0.80, now=SCHOLAR_NOW)
    plan = plan_merge(scholars_bundle, groups.groups)
    merged = apply_merge(scholars_bundle, plan)

    assert merged.bundle.vertex_count == scholars_bundle.vertex_count - 1

    report = verify_merge(scholars_bundle, merged.bundle, plan)
    assert report.ok, [f"{v.kind}: {v.detail}" for v in report.violations]

    group = plan.groups[0]
    members = [group.representative, *group.absorbed]

    def facts(bundle, characters):
        out = set()
        for edge in bundle.edges():
            if edge.character in characters:
                out.add((edge.entity, edge.relation_type, edge.interval.start, edge.interval.end))
        return out

    assert facts(merged.bundle, [group.representative]) == facts(scholars_bundle, members)


def test_criterion_9_outputs_identical_across_worker_counts(tmp_path):
    base = generate(DESK_SPEC)
    planted, _ = plant_duplicates(base, k=20, mode=PlantMode.EXACT_CLONE, seed=0)
    records, manifest = _write_inputs(planted, tmp_path)

    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"workers{workers}"
        code = cli_main(
            [
                "dedupe",
                "--records", records,
                "--manifest", manifest,
                "--out", str(out),
                "--theta", "0.80",
                "--workers", str(workers),
            ]
        )
        assert code == 0
        outputs[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert outputs[1].keys() == outputs[8].keys()
    for name in outputs[1]:
        assert outputs[1][name] == outputs[8][name], f"{name} differs between worker counts"


def test_outputs_identical_across_hash_seeds(tmp_path):
    base = generate(DESK_SPEC)
    planted, _ = plant_duplicates(base, k=20, mode=PlantMode.EXACT_CLONE, seed=0)
    records, manifest = _write_inputs(planted, tmp_path)
    pythonpath = [str(Path(tapmerge.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]

    outputs = {}
    for seed in ("1", "2"):
        out = tmp_path / f"hashseed{seed}"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
        subprocess.run(
            [
                sys.executable, "-m", "tapmerge.cli", "dedupe",
                "--records", records,
                "--manifest", manifest,
                "--out", str(out),
                "--theta", "0.80",
            ],
            env=env, check=True, capture_output=True,
        )
        outputs[seed] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert len(outputs["1"]) == 8
    assert outputs["1"].keys() == outputs["2"].keys()
    for name in outputs["1"]:
        assert outputs["1"][name] == outputs["2"][name], f"{name} differs between hash seeds"
