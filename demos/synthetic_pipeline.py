"""The whole pipeline on synthetic data with known ground truth.

Generates a seeded random activity network, plants exact-clone
duplicates and time-shifted near-duplicates, then runs screening,
similarity thresholding, merging, and verification, scoring the result
against the planted truth.

Run: python demos/synthetic_pipeline.py
"""

from itertools import combinations

from tapmerge import (
    apply_merge,
    plan_merge,
    resolve_now,
    screen_candidates,
    simtap,
    threshold_groups,
    verify_merge,
)
from tapmerge.testkit import PlantMode, RandomBundleSpec, generate, plant_duplicates

THETA = 0.80

spec = RandomBundleSpec(characters=200, entities_per_type=60, relation_types=3, edge_density=1.5, seed=42)
base = generate(spec)
bundle, truth = plant_duplicates(base, k=8, mode=PlantMode.EXACT_CLONE, seed=42)
truth_pairs = {tuple(sorted((p.original, p.clone))) for p in truth}
now = resolve_now(bundle, None)

print(f"network: {bundle.vertex_count} vertices, {bundle.edge_count} edges, "
      f"{len(bundle.relation_types())} subnetworks, 8 planted duplicate pairs")

candidates = screen_candidates(bundle)
print(f"structure screening: {len(candidates)} candidate pairs")

groups = threshold_groups(candidates, bundle, theta=THETA, now=now)
found_pairs = {pair for group in groups.groups for pair in combinations(group, 2)}
tp = len(found_pairs & truth_pairs)
precision = tp / len(found_pairs) if found_pairs else 1.0
recall = tp / len(truth_pairs)
print(f"thresholding at {THETA}: {len(groups.groups)} confirmed groups "
      f"(precision {precision:.2f}, recall {recall:.2f})")

plan = plan_merge(bundle, groups.groups)
merged = apply_merge(bundle, plan)
print(f"merge: removed {merged.audit.removed_vertices} vertices, "
      f"dropped {merged.audit.dropped_edges} duplicate edges, "
      f"transferred {merged.audit.transferred_edges}")

report = verify_merge(bundle, merged.bundle, plan)
print(f"verification: {'clean' if report.ok else report.violations}")

# time-shifted plants pass the structural screen but are not perfect matches
shifted, shifted_truth = plant_duplicates(base, k=8, mode=PlantMode.TIME_SHIFTED, seed=43)
shifted_now = resolve_now(shifted, None)
print("\ntime-shifted near-duplicates (structure identical, history shifted):")
for pair in shifted_truth[:4]:
    value = simtap(shifted, pair.original, pair.clone, shifted_now).aggregate
    print(f"  {pair.original} vs {pair.clone}: similarity {value:.4f} < 1")
