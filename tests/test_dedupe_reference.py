"""The whole pipeline against a from-scratch reading of the method: `dedupe` writes what `reference_dedupe` writes.

Each stage has a referee of its own, but only this property composes
them on random inputs, so it also checks what the stages hand each
other. The inputs are small `testkit` bundles, written as records by
the reference writer, with every plant mode, a popular entity, parallel
edges, people absent from some subnetworks, equal display names, an
optional manifest that may declare an unused relation type, every name
filter, and a theta drawn from the bundle's exact mean scores, so some
pairs sit exactly at it. `--hypothesis-profile=deep` runs that
profile's 1,000 examples, five times as many.

On the same inputs, a second property holds `dedupe` to its one-round
contract: a second round, run on the first one's merged bundle, forms
only groups that hold a representative whose paths the first changed.
"""

from __future__ import annotations

import csv
import json
import tempfile
from pathlib import Path
from typing import NamedTuple

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from tapmerge import NetworkBundle, TemporalEdge, TimeInterval, Vertex, VertexKind, rebuild
from tapmerge.cli import main
from tapmerge.merge import apply_merge, plan_merge
from tapmerge.screening import NameFilter, screen_candidates
from tapmerge.similarity import group_by_threshold, resolve_now, similarity_for_pairs
from tapmerge.testkit import PlantMode, RandomBundleSpec, fully_active_characters, generate, plant_duplicates

from dedupe_reference import exact_scores, records_csv_reference, reference_dedupe, screened_pairs

# the examples per tier-1 run, about 2 s on Python 3.11
REFEREE_EXAMPLES = 200
# the examples per tier-1 run of the second-round property, about 0.5 s
SECOND_ROUND_EXAMPLES = 100


class Case(NamedTuple):
    bundle: NetworkBundle
    # the manifest's relation types, or None for no manifest
    manifest: list[str] | None
    name_filter: NameFilter
    # `--now`, or None to let `dedupe` take the latest end time
    now: int | None
    theta: float


def with_popular_entity(bundle: NetworkBundle, fans: list[str], interval: TimeInterval) -> NetworkBundle:
    """The bundle with one more entity of the first subnetwork, which each of `fans` holds one edge to."""
    beta = bundle.relation_types()[0]
    popular = Vertex("popular", VertexKind.ENTITY, "paper", "popular paper")
    edges = [TemporalEdge(f"fan{i}", fan, popular.id, beta, interval) for i, fan in enumerate(fans)]
    return rebuild([*bundle.vertices(), popular], [*bundle.edges(), *edges], bundle.relation_types())


@st.composite
def dedupe_cases(draw) -> Case:
    lo, hi = 2000, 2000 + draw(st.integers(0, 3))
    spec = RandomBundleSpec(
        characters=draw(st.integers(2, 20)),
        # one entity per subnetwork and dense histories give parallel edges, often with equal intervals
        entities_per_type=draw(st.integers(1, 3)),
        relation_types=draw(st.integers(1, 3)),
        edge_density=draw(st.sampled_from([0.5, 1.0, 2.0])),
        interval_span=(lo, hi),
        seed=draw(st.integers(0, 2**16)),
    )
    bundle = generate(spec)
    if draw(st.booleans()):
        fans = draw(st.lists(st.sampled_from(bundle.character_ids()), min_size=2, unique=True))
        start = draw(st.integers(lo, hi))
        bundle = with_popular_entity(bundle, fans, TimeInterval(start, draw(st.integers(start, hi))))
    k = draw(st.integers(0, min(len(fully_active_characters(bundle)), 4)))
    bundle, _ = plant_duplicates(bundle, k, draw(st.sampled_from(PlantMode)), spec.seed)
    assume(bundle.edge_count > 0)
    # clones carry their sources' names; some people also share one name
    renamed = draw(st.sets(st.sampled_from(bundle.character_ids()), max_size=4))
    if renamed:
        vertices = [v._replace(display_name="Wu") if v.id in renamed else v for v in bundle.vertices()]
        bundle = rebuild(vertices, bundle.edges(), bundle.relation_types())
    relation_types = bundle.relation_types()
    manifest = draw(st.sampled_from([None, relation_types, [*relation_types, "unused"]]))
    latest = max(edge.interval.end for edge in bundle.edges())
    now = draw(st.none() | st.integers(latest, latest + 3))
    # the exact means of the unfiltered candidates, as floats, so some pairs sit at theta exactly
    anchor = latest if now is None else now
    scores = [exact_scores(bundle, x, y, anchor) for x, y in screened_pairs(bundle, NameFilter.OFF)]
    means = {float(sum(exact) / len(exact)) for exact in scores}
    theta = draw(st.sampled_from(sorted({mean for mean in means if mean > 0} | {0.5, 0.8, 1.0})))
    return Case(bundle, manifest, draw(st.sampled_from(NameFilter)), now, theta)


@settings(
    # a run under the `deep` profile takes that profile's budget
    max_examples=settings.default.max_examples if settings.get_current_profile_name() == "deep" else REFEREE_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(dedupe_cases())
def test_dedupe_writes_every_data_file_as_the_reference_does(case):
    with tempfile.TemporaryDirectory() as tmp:
        records, manifest, out = Path(tmp) / "records.csv", None, Path(tmp) / "out"
        with open(records, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(records_csv_reference(case.bundle))
        argv = ["dedupe", "--records", str(records), "--out", str(out), "--theta", repr(case.theta)]
        argv += ["--name-filter", case.name_filter.value]
        if case.manifest is not None:
            manifest = Path(tmp) / "manifest.json"
            manifest.write_text(json.dumps({"relation_types": case.manifest}), encoding="utf-8")
            argv += ["--manifest", str(manifest)]
        if case.now is not None:
            argv += ["--now", str(case.now)]
        expected = reference_dedupe(records, manifest, case.theta, case.now, case.name_filter)

        assert main(argv) == 0
        written = sorted(path.name for path in out.iterdir() if path.name != "run_manifest.json")
        assert written == sorted(expected)
        for name in written:
            assert (out / name).read_bytes() == expected[name], name


def one_round(bundle: NetworkBundle, case: Case, now: int) -> tuple[NetworkBundle, list[list[str]]]:
    """The merged bundle and the groups of one `dedupe` pass over `bundle`, by the stages it calls."""
    candidates = screen_candidates(bundle, case.name_filter)
    groups = group_by_threshold(similarity_for_pairs(bundle, candidates, now), case.theta, now).groups
    return apply_merge(bundle, plan_merge(bundle, groups)).bundle, groups


def second_round_case() -> Case:
    """The input on which a second round merges again: c1 and c4 score 8/17 at `now` 2003.

    c1, c2 and c3 hold one entity E in 2000, c3 twice, and c4 holds E in
    2003. The first round merges c1, c2 and c4 onto c1, which gains c4's
    2003 edge, so c1 then has c3's structure and scores 80/89 with c3.
    """
    people = [Vertex(f"c{i}", VertexKind.CHARACTER, "person", "Bo" if i == 3 else "Ann") for i in range(1, 5)]
    entity = Vertex("E", VertexKind.ENTITY, "paper", "E")
    facts = [("c1", 2000), ("c2", 2000), ("c3", 2000), ("c3", 2000), ("c4", 2003)]
    edges = [TemporalEdge(f"r{i}", person, "E", "wrote", TimeInterval(year, year)) for i, (person, year) in enumerate(facts)]
    return Case(rebuild([*people, entity], edges, ["wrote"]), None, NameFilter.OFF, 2003, 8 / 17)


@settings(
    max_examples=settings.default.max_examples if settings.get_current_profile_name() == "deep" else SECOND_ROUND_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(dedupe_cases())
# random cases rarely merge twice (about 3 in 100), so every run also checks one that does
@example(second_round_case())
def test_every_group_of_a_second_round_holds_a_representative_the_first_round_changed(case):
    # one round is the contract: a representative that gains facts it lacked can
    # match someone new, but a pair the first round left unchanged keeps its
    # structure and its score, so it cannot form a group in a second round
    now = resolve_now(case.bundle, case.now)
    merged, groups = one_round(case.bundle, case, now)
    changed = case.bundle.changed_paths(merged) & set(merged.character_ids())
    assert changed <= {min(group) for group in groups}
    for group in one_round(merged, case, now)[1]:
        assert changed.intersection(group), group
