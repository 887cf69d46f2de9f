"""Temporal weights, path enumeration, similarity, and thresholding."""

from __future__ import annotations

import json
import math
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tapmerge import (
    NetworkBundle,
    Vertex,
    VertexKind,
    combine_subnetwork_scores,
    edge_weight,
    enumerate_paths,
    neighbor_weight_vector,
    rebuild,
    resolve_now,
    screen_candidates,
    simtap,
    simtap_beta,
    similarity,
    similarity_for_pairs,
    threshold_groups,
)
from tapmerge.graph import GraphError, TemporalEdge, TimeInterval
from tapmerge.screening import CandidateSet, NameFilter, structure_error, write_candidates_csv
from tapmerge.similarity import (
    FutureEdgeError,
    TapPath,
    group_by_threshold,
    write_groups_json,
    write_similarity_csv,
)
from tapmerge.testkit import (
    PlantMode,
    RandomBundleSpec,
    fully_active_characters,
    generate,
    oracle_simtap_beta,
    plant_duplicates,
)
from tapmerge.unionfind import UnionFind

from conftest import SCHOLAR_NOW
from dedupe_reference import csv_reference
from test_screening import assert_screen_matches_brute_force


def edge(start: int, end: int, rid="r1", character="c", entity="e") -> TemporalEdge:
    return TemporalEdge(rid, character, entity, "member", TimeInterval(start, end))


def pair_net(intervals_x: list[tuple[int, int]], intervals_y: list[tuple[int, int]], shared=True):
    """Two characters attached to one shared (or two separate) entities."""
    bundle = NetworkBundle()
    x = bundle.add_vertex(VertexKind.CHARACTER, "person", "x")
    y = bundle.add_vertex(VertexKind.CHARACTER, "person", "y")
    ex = bundle.add_vertex(VertexKind.ENTITY, "club", "shared")
    ey = ex if shared else bundle.add_vertex(VertexKind.ENTITY, "club", "other")
    for span in intervals_x:
        bundle.add_edge(x, ex, "member", span)
    for span in intervals_y:
        bundle.add_edge(y, ey, "member", span)
    return bundle.seal(), x, y


def test_edge_weight_combines_recency_and_duration():
    assert edge_weight(edge(2010, 2012), now=2014) == 15
    assert edge_weight(edge(2014, 2014), now=2014) == 1


def test_edge_weight_rejects_future_start():
    with pytest.raises(FutureEdgeError):
        edge_weight(edge(2015, 2016), now=2014)


def test_path_weight_is_a_commutative_product():
    p = TapPath("x", "e", "y", "r1", "r2", 15, 15)
    q = TapPath("x", "e", "y", "r2", "r1", 9, 121)
    assert p.weight == 225
    assert q.weight == TapPath("x", "e", "y", "r1", "r2", 121, 9).weight


def test_club_paths_between_the_two_members(club):
    paths = enumerate_paths(club.tan, club.mona, club.nora, now=2006)
    keys = {(p.entity, p.relation_a, p.relation_b) for p in paths}
    assert keys == {
        (club.chess, club.r1, club.r4),
        (club.chess, club.r2, club.r4),
        (club.film, club.r3, club.r5),
    }
    # per entity, path count is the product of the two edge counts
    assert sum(1 for p in paths if p.entity == club.chess) == 2 * 1
    assert sum(1 for p in paths if p.entity == club.film) == 1 * 1


def test_club_self_paths_use_the_full_double_loop(club):
    paths = enumerate_paths(club.tan, club.mona, club.mona, now=2006)
    assert len(paths) == 2 * 2 + 1 * 1
    # both orders and the diagonal appear
    keys = {(p.relation_a, p.relation_b) for p in paths if p.entity == club.chess}
    assert keys == {(club.r1, club.r1), (club.r1, club.r2), (club.r2, club.r1), (club.r2, club.r2)}


def test_paths_empty_for_disjoint_neighborhoods():
    bundle, x, y = pair_net([(2000, 2001)], [(2000, 2001)], shared=False)
    assert enumerate_paths(bundle.subnetwork("member"), x, y, now=2005) == []


def test_self_similarity_is_one(club):
    assert simtap_beta(club.tan, club.mona, club.mona, now=2006) == 1.0


def test_similarity_zero_for_disjoint_neighborhoods():
    bundle, x, y = pair_net([(2000, 2001)], [(2002, 2003)], shared=False)
    assert simtap_beta(bundle.subnetwork("member"), x, y, now=2010) == 0.0


def test_similarity_zero_when_both_have_no_edges():
    bundle = NetworkBundle()
    x = bundle.add_vertex(VertexKind.CHARACTER, "person", "x")
    y = bundle.add_vertex(VertexKind.CHARACTER, "person", "y")
    bundle.declare_relation_type("member")
    bundle.seal()
    assert simtap_beta(bundle.subnetwork("member"), x, y, now=2010) == 0.0


def test_single_shared_entity_weights_121_and_9():
    # (2015-2004)*(2015-2004) = 121 against (2015-2012)*3 = 9
    bundle, x, y = pair_net([(2004, 2014)], [(2012, 2014)])
    value = simtap_beta(bundle.subnetwork("member"), x, y, now=2014)
    assert value == pytest.approx(2 * 121 * 9 / (121**2 + 9**2), rel=1e-12)
    assert value == pytest.approx(0.14794, abs=5e-6)


def test_equal_timelines_maximize_similarity(scholars_bundle, scholar_ids):
    tan = scholars_bundle.subnetwork("research")
    value = simtap_beta(tan, scholar_ids["Faye Wu"], scholar_ids["Fei Wu"], now=SCHOLAR_NOW)
    assert value == 1.0


def test_scaling_one_side_breaks_maximality():
    # same start year but doubled duration doubles every weight on one side
    bundle, x, y = pair_net([(2000, 2000), (2004, 2004)], [(2000, 2001), (2004, 2005)])
    value = simtap_beta(bundle.subnetwork("member"), x, y, now=2010)
    assert value == pytest.approx(2 * 2 / (1 + 4), rel=1e-12)
    assert value < 1.0


def test_aggregate_is_the_mean_over_declared_subnetworks(scholars_bundle, scholar_ids):
    result = simtap(scholars_bundle, scholar_ids["Faye Wu"], scholar_ids["Fei Wu"], now=SCHOLAR_NOW)
    assert len(result.scores) == 4
    assert scholars_bundle.relation_types() == ["study", "work", "research", "coauthor"]
    assert result.scores[1] == 1.0
    assert result.aggregate == pytest.approx(combine_subnetwork_scores(result.scores), rel=1e-15)
    # identical everywhere except the one diverging study interval
    assert 0.9 < result.aggregate < 1.0


def test_absent_subnetworks_count_as_zero_in_the_mean(scholars_bundle, scholar_ids):
    # neither shares anything with a scholar from a different field
    result = simtap(scholars_bundle, scholar_ids["Faye Wu"], scholar_ids["Kang Du"], now=SCHOLAR_NOW)
    assert result.aggregate == 0.0
    assert all(v == 0.0 for v in result.scores)


def test_combine_handles_empty_input():
    assert combine_subnetwork_scores([]) == 0.0


def test_resolve_now_defaults_to_latest_end(club):
    assert resolve_now(club.bundle, None) == 2006
    assert resolve_now(club.bundle, 2010) == 2010
    with pytest.raises(GraphError):
        resolve_now(NetworkBundle().seal(), None)


def test_threshold_groups_on_scholars(scholars_bundle):
    candidates = screen_candidates(scholars_bundle)
    strict = threshold_groups(candidates, scholars_bundle, theta=0.80, now=SCHOLAR_NOW)
    names = [
        sorted(scholars_bundle.vertex(v).display_name for v in group) for group in strict.groups
    ]
    assert names == [["Faye Wu", "Fei Wu"]]
    relaxed = threshold_groups(candidates, scholars_bundle, theta=0.70, now=SCHOLAR_NOW)
    assert len(relaxed.groups) == 2


def test_threshold_validates_theta(scholars_bundle):
    candidates = screen_candidates(scholars_bundle)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            threshold_groups(candidates, scholars_bundle, theta=bad, now=SCHOLAR_NOW)


def test_threshold_one_with_no_perfect_pair_is_empty():
    bundle, x, y = pair_net([(2004, 2014)], [(2012, 2014)])
    results = similarity_for_pairs(bundle, [(x, y)], now=2014)
    assert group_by_threshold(results, theta=1.0, now=2014).groups == []


def test_a_fraction_theta_is_read_as_itself():
    # equal vectors score exactly 1, inside the band around theta, so the pair is decided in `Fraction`s
    bundle, x, y = pair_net([(2010, 2012)], [(2010, 2012)])
    results = similarity_for_pairs(bundle, [(x, y)], now=2014)
    assert group_by_threshold(results, theta=Fraction(1), now=2014).groups == [sorted([x, y])]


def test_groups_json_writes_a_fraction_theta_as_its_nearest_float(scholars_bundle, scholar_ids, tmp_path):
    results = similarity_for_pairs(scholars_bundle, screen_candidates(scholars_bundle), now=SCHOLAR_NOW)
    for theta, name in ((Fraction(4, 5), "fraction.json"), (0.8, "float.json")):
        write_groups_json(group_by_threshold(results, theta, SCHOLAR_NOW), tmp_path / name)
    assert (tmp_path / "fraction.json").read_bytes() == (tmp_path / "float.json").read_bytes()
    written = json.loads((tmp_path / "fraction.json").read_text())
    assert written["theta"] == 0.8
    assert written["groups"] == [sorted([scholar_ids["Faye Wu"], scholar_ids["Fei Wu"]])]


def test_chained_pairs_collapse_into_one_group():
    bundle = NetworkBundle()
    people = [bundle.add_vertex(VertexKind.CHARACTER, "person", f"p{i}") for i in range(3)]
    hub = bundle.add_vertex(VertexKind.ENTITY, "club", "hub")
    for person in people:
        bundle.add_edge(person, hub, "member", (2000, 2002))
    bundle.seal()
    results = similarity_for_pairs(bundle, [(people[0], people[1]), (people[1], people[2])], now=2005)
    groups = group_by_threshold(results, theta=0.9, now=2005)
    assert groups.groups == [sorted(people)]


def test_worker_count_does_not_change_results(scholars_bundle):
    ids = scholars_bundle.character_ids()
    pairs = [(x, y) for i, x in enumerate(ids) for y in ids[i + 1 :]]
    serial = similarity_for_pairs(scholars_bundle, pairs, now=SCHOLAR_NOW, workers=1)
    parallel = similarity_for_pairs(scholars_bundle, pairs, now=SCHOLAR_NOW, workers=3)
    assert list(serial) == list(parallel)


def test_similarity_csv_mirrors_declaration_order(tmp_path, scholars_bundle):
    candidates = screen_candidates(scholars_bundle)
    results = similarity_for_pairs(scholars_bundle, candidates.pair_ids(), now=SCHOLAR_NOW)
    path = tmp_path / "similarity.csv"
    write_similarity_csv(scholars_bundle, results, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_id,x_name,y_id,y_name,study,work,research,coauthor,simtap"
    assert len(lines) == 3


def test_future_edge_fails_loudly(club):
    with pytest.raises(FutureEdgeError):
        simtap_beta(club.tan, club.mona, club.nora, now=1999)


AWKWARD_NAMES = [
    "plain",
    "comma, inside",
    'say "hi"',
    "line\nbreak",
    "carriage\rreturn",
    "crlf\r\nend",
    "tab\there",
    " leading space",
    "",
    "Zoë Ñúñez 張偉",
]


def awkward_names_bundle(names: list[str] = AWKWARD_NAMES) -> NetworkBundle:
    """One signature bucket of awkwardly named people; their intervals differ."""
    bundle = NetworkBundle()
    for beta in ("member", "coauthor"):
        bundle.declare_relation_type(beta)
    club_ = bundle.add_vertex(VertexKind.ENTITY, "club", "club")
    for i, name in enumerate(names):
        person = bundle.add_vertex(VertexKind.CHARACTER, "person", name)
        bundle.add_edge(person, club_, "member", (2000 + i % 4, 2003 + i % 3))
    return bundle.seal()


def test_writers_match_a_csv_writer_reference(tmp_path):
    bundle = awkward_names_bundle()
    name = {c: bundle.vertex(c).display_name for c in bundle.character_ids()}
    pairs = screen_candidates(bundle).pair_ids()
    assert len(pairs) == len(AWKWARD_NAMES) * (len(AWKWARD_NAMES) - 1) // 2
    results = similarity_for_pairs(bundle, pairs, now=2010)

    write_candidates_csv(bundle, screen_candidates(bundle), tmp_path / "candidates.csv")
    expected = [["x_id", "x_name", "y_id", "y_name", "structure_error"]]
    expected += [[x, name[x], y, name[y], f"{structure_error(bundle, x, y).value:.4f}"] for x, y in pairs]
    assert (tmp_path / "candidates.csv").read_bytes() == csv_reference(expected)

    write_similarity_csv(bundle, results, tmp_path / "similarity.csv")
    assert (tmp_path / "similarity.csv").read_bytes() == similarity_reference(bundle, results)

    # written from a `CandidateSet` one run at a time: one bucket with repeated
    # names, and one of a popular entity; each bundle is one signature bucket,
    # so its candidates are every pair the name filter keeps
    same_name_kept = {NameFilter.OFF: {True, False}, NameFilter.SAME_NAME: {True}, NameFilter.DIFFERENT_NAME: {False}}
    for screened in (awkward_names_bundle([*AWKWARD_NAMES, "plain", "", "plain"]), hot_entity_bundle(60)):
        ids = screened.character_ids()
        name = {c: screened.vertex(c).display_name for c in ids}
        for name_filter, kept in same_name_kept.items():
            pairs = [(x, y) for i, x in enumerate(ids) for y in ids[i + 1 :] if (name[x] == name[y]) in kept]
            candidates = screen_candidates(screened, name_filter)
            write_candidates_csv(screened, candidates, tmp_path / "candidates.csv")
            expected = [["x_id", "x_name", "y_id", "y_name", "structure_error"]]
            expected += [[x, name[x], y, name[y], "0.0000"] for x, y in pairs]
            assert (tmp_path / "candidates.csv").read_bytes() == csv_reference(expected), name_filter
            results = similarity_for_pairs(screened, candidates, now=2010)
            write_similarity_csv(screened, results, tmp_path / "similarity.csv")
            reference = similarity_reference(screened, similarity_for_pairs(screened, pairs, now=2010))
            assert (tmp_path / "similarity.csv").read_bytes() == reference, name_filter

    # a list whose runs of equal first members are not contiguous
    a, b, c, d = bundle.character_ids()[:4]
    results = similarity_for_pairs(bundle, [(a, c), (b, c), (a, d)], now=2010)
    write_similarity_csv(bundle, results, tmp_path / "similarity.csv")
    assert (tmp_path / "similarity.csv").read_bytes() == similarity_reference(bundle, results)


def similarity_reference(bundle: NetworkBundle, results) -> bytes:
    name = {c: bundle.vertex(c).display_name for c in bundle.character_ids()}
    expected = [["x_id", "x_name", "y_id", "y_name", *bundle.relation_types(), "simtap"]]
    expected += [
        [r.x, name[r.x], r.y, name[r.y], *[f"{value:.4f}" for value in r.scores], f"{r.aggregate:.4f}"]
        for r in results
    ]
    return csv_reference(expected)


def test_similarity_csv_without_subnetworks_keeps_the_aggregate_column(tmp_path):
    bundle = NetworkBundle()
    a = bundle.add_vertex(VertexKind.CHARACTER, "person", "a")
    b = bundle.add_vertex(VertexKind.CHARACTER, "person", "b")
    bundle.add_vertex(VertexKind.ENTITY, "club", "club")
    bundle.seal()
    write_similarity_csv(bundle, similarity_for_pairs(bundle, [(a, b)], now=2010), tmp_path / "similarity.csv")
    expected = [["x_id", "x_name", "y_id", "y_name", "simtap"], [a, "a", b, "b", "0.0000"]]
    assert (tmp_path / "similarity.csv").read_bytes() == csv_reference(expected)


def partly_absent_bundle() -> NetworkBundle:
    """People active in different subsets of four subnetworks, one in none."""
    bundle = NetworkBundle()
    for beta in ("study", "work", "research", "coauthor"):
        bundle.declare_relation_type(beta)
    uni = bundle.add_vertex(VertexKind.ENTITY, "institution", "uni")
    lab = bundle.add_vertex(VertexKind.ENTITY, "institution", "lab")
    paper = bundle.add_vertex(VertexKind.ENTITY, "publication", "paper")
    histories = [
        [("study", uni, (2000, 2004)), ("work", lab, (2005, 2010))],
        [("work", lab, (2006, 2010)), ("work", lab, (2001, 2002))],
        [("coauthor", paper, (2008, 2008))],
        [("study", uni, (2001, 2004)), ("coauthor", paper, (2008, 2008)), ("research", lab, (2009, 2010))],
        [],
    ]
    for i, history in enumerate(histories):
        person = bundle.add_vertex(VertexKind.CHARACTER, "person", f"p{i}")
        for beta, entity, span in history:
            bundle.add_edge(person, entity, beta, span)
    return bundle.seal()


def hot_entity_bundle(people: int = 30) -> NetworkBundle:
    """Every person's only edge goes to one paper: one bucket, all pairs candidates."""
    bundle = NetworkBundle()
    for beta in ("study", "work", "research", "coauthor"):
        bundle.declare_relation_type(beta)
    paper = bundle.add_vertex(VertexKind.ENTITY, "publication", "paper")
    for i in range(people):
        person = bundle.add_vertex(VertexKind.CHARACTER, "person", f"p{i}")
        bundle.add_edge(person, paper, "coauthor", (2000 + i % 7, 2000 + i % 7 + i % 5))
    return bundle.seal()


@pytest.mark.parametrize("make_bundle", [partly_absent_bundle, hot_entity_bundle])
def test_batch_scores_match_the_oracle_in_every_subnetwork(make_bundle):
    bundle = make_bundle()
    now = 2010
    ids = bundle.character_ids()
    pairs = [(x, y) for i, x in enumerate(ids) for y in ids[i + 1 :]]
    if make_bundle is hot_entity_bundle:
        assert screen_candidates(bundle).pair_ids() == pairs
    for result in similarity_for_pairs(bundle, pairs, now):
        expected = [oracle_simtap_beta(bundle.subnetwork(b), result.x, result.y, now) for b in bundle.relation_types()]
        assert list(result.scores) == expected
        # an absent subnetwork scores +0.0, the float the division gives
        assert all(math.copysign(1.0, v) == 1.0 for v in result.scores)
        assert result.aggregate == combine_subnetwork_scores(expected)


def weight_class(bundle: NetworkBundle, character: str, now: int) -> tuple:
    """A character's weight vectors, one per subnetwork, as a hashable key."""
    return tuple(tuple(sorted(vec.items())) for vec in neighbor_weight_vector(bundle, character, now).values())


def test_each_class_pair_is_scored_once_in_a_popular_entity_bucket(monkeypatch):
    bundle = hot_entity_bundle(500)
    now = 2010
    candidates = screen_candidates(bundle)
    pairs = candidates.pair_ids()
    assert len(pairs) == 500 * 499 // 2
    key = {c: weight_class(bundle, c, now) for c in bundle.character_ids()}
    classes = len(set(key.values()))

    calls = 0
    row = similarity._row

    def counted(*args):
        nonlocal calls
        calls += 1
        return row(*args)

    monkeypatch.setattr(similarity, "_row", counted)
    results = similarity_for_pairs(bundle, candidates, now)
    # one row per class, each against the classes from its own on: every unordered class pair once
    assert calls <= classes
    assert results.scored <= classes * (classes + 1) // 2 < len(pairs) // 100

    # equal weight vectors score 1 in the one active subnetwork of four
    theta = 0.25
    dsu = UnionFind()
    for result in list(results):
        if result.aggregate >= theta:
            dsu.union(result.x, result.y)
    groups = group_by_threshold(results, theta, now).groups
    assert groups == dsu.groups()
    assert len(groups) == len(set(key.values()))


def test_a_popular_entity_bucket_runs_in_memory_flat_in_its_pairs(tmp_path):
    # 600 people on one paper give 179,700 candidate pairs; a list of them
    # alone takes about 11 MB
    bundle = hot_entity_bundle(600)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        candidates = screen_candidates(bundle)
        write_candidates_csv(bundle, candidates, tmp_path / "candidates.csv")
        results = similarity_for_pairs(bundle, candidates, now=2010)
        write_similarity_csv(bundle, results, tmp_path / "similarity.csv")
        # one active subnetwork of four caps every score at 0.25
        groups = group_by_threshold(results, theta=0.8, now=2010)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(candidates) == 600 * 599 // 2
    # one class per distinct edge weight, and each unordered pair of them scored once
    classes = len({(2010 + 1 - (2000 + i % 7)) * (i % 5 + 1) for i in range(600)})
    assert results.scored == classes * (classes + 1) // 2
    assert groups.groups == []
    assert peak < 2 * 2**20


class Walked(Exception):
    """Raised by a `CandidateSet` whose pairs must not be walked."""


def test_grouping_walks_the_pairs_only_when_some_row_reaches_theta(monkeypatch):
    bundle = hot_entity_bundle(50)
    candidates = screen_candidates(bundle)
    results = similarity_for_pairs(bundle, candidates, now=2010)
    # one active subnetwork of four caps every score at 0.25
    assert max(max(map(max, block.aggregates)) for block in results.blocks) == 0.25

    def walk(self, b, i, *lists):
        raise Walked

    # no writer has run: the rows alone decide whether to walk, and every walk of the pairs takes a run's partners
    # from `later`
    monkeypatch.setattr(CandidateSet, "later", walk)
    assert group_by_threshold(results, theta=0.8, now=2010).groups == []
    assert threshold_groups(candidates, bundle, theta=0.8, now=2010).groups == []
    with pytest.raises(Walked):
        group_by_threshold(results, theta=0.25, now=2010)
    with pytest.raises(Walked):
        threshold_groups(candidates, bundle, theta=0.25, now=2010)


class CountedNames(list):
    """A block's display names, counting the slices taken of them: one per name mask built."""

    slices = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            CountedNames.slices += 1
        return super().__getitem__(key)


def test_each_walk_builds_one_name_mask_per_run(tmp_path):
    # one bucket of three names; each person's interval differs, so the bucket holds several classes
    bundle = awkward_names_bundle(["A", "B", "A", "C", "B", "A", "A", "C"])
    candidates = screen_candidates(bundle, NameFilter.DIFFERENT_NAME)
    results = similarity_for_pairs(bundle, candidates, now=2010)
    expected = list(results)
    # 28 pairs, 8 of them between equal names
    assert candidates.runs and len(expected) == len(candidates) == 20
    candidates.labels = [CountedNames(names) for names in candidates.labels]
    walks = {
        "candidates.csv": lambda: write_candidates_csv(bundle, candidates, tmp_path / "candidates.csv"),
        "pairs": lambda: list(candidates),
        "similarity.csv": lambda: write_similarity_csv(bundle, results, tmp_path / "similarity.csv"),
        "results": lambda: list(results),
        # every class scores itself 1/2 here, so every block has an entry at theta
        "groups": lambda: group_by_threshold(results, theta=0.5, now=2010),
    }
    for name, walk in walks.items():
        CountedNames.slices = 0
        walk()
        assert CountedNames.slices == len(candidates.runs), name
    assert list(results) == expected
    assert (tmp_path / "similarity.csv").read_bytes() == similarity_reference(bundle, results)


# -- randomized properties ---------------------------------------------------


@st.composite
def tan_bundles(draw):
    bundle = NetworkBundle()
    characters = [bundle.add_vertex(VertexKind.CHARACTER, "person", f"p{i}") for i in range(draw(st.integers(2, 4)))]
    entities = [bundle.add_vertex(VertexKind.ENTITY, "club", f"c{i}") for i in range(draw(st.integers(1, 3)))]
    bundle.declare_relation_type("member")
    for _ in range(draw(st.integers(0, 10))):
        c = draw(st.sampled_from(characters))
        e = draw(st.sampled_from(entities))
        start = draw(st.integers(2000, 2008))
        end = draw(st.integers(start, 2009))
        bundle.add_edge(c, e, "member", (start, end))
    return bundle.seal(), characters


@settings(max_examples=200, deadline=None)
@given(tan_bundles())
def test_similarity_bounds_symmetry_identity(data):
    bundle, characters = data
    tan = bundle.subnetwork("member")
    now = 2009
    for i, x in enumerate(characters):
        if tan.edges_of_character(x):
            assert simtap_beta(tan, x, x, now) == 1.0
        for y in characters[i + 1 :]:
            forward = simtap_beta(tan, x, y, now)
            assert 0.0 <= forward <= 1.0
            assert forward == simtap_beta(tan, y, x, now)


@settings(max_examples=200, deadline=None)
@given(tan_bundles())
def test_maximality_iff_equal_weight_vectors(data):
    bundle, characters = data
    tan = bundle.subnetwork("member")
    now = 2009
    for i, x in enumerate(characters):
        for y in characters[i + 1 :]:
            vx = neighbor_weight_vector(bundle, x, now)["member"]
            vy = neighbor_weight_vector(bundle, y, now)["member"]
            value = simtap_beta(tan, x, y, now)
            nonempty = bool(vx) or bool(vy)
            assert (value == 1.0) == (vx == vy and nonempty)


@settings(max_examples=200, deadline=None)
@given(tan_bundles())
def test_production_similarity_matches_path_enumeration_oracle(data):
    bundle, characters = data
    tan = bundle.subnetwork("member")
    now = 2009
    for i, x in enumerate(characters):
        for y in characters[i + 1 :]:
            fast = simtap_beta(tan, x, y, now)
            slow = oracle_simtap_beta(tan, x, y, now)
            assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)


@st.composite
def bundles_with_clones(draw):
    spec = RandomBundleSpec(
        characters=draw(st.integers(2, 8)),
        entities_per_type=draw(st.integers(1, 3)),
        relation_types=draw(st.integers(1, 3)),
        edge_density=draw(st.sampled_from([0.5, 1.0, 1.5])),
        seed=draw(st.integers(0, 2**16)),
    )
    bundle = generate(spec)
    # exact clones share every weight vector with their source, so classes repeat
    mode = draw(st.sampled_from(PlantMode))
    k = draw(st.integers(0, min(len(fully_active_characters(bundle)), 3)))
    return plant_duplicates(bundle, k, mode, seed=draw(st.integers(0, 2**16)))[0]


@settings(max_examples=150, deadline=None)
@given(bundles_with_clones())
def test_class_scoring_equals_per_pair_scoring(bundle):
    now = 2019  # time-shifted clones start up to 5 years after the span's end
    ids = bundle.character_ids()
    pairs = [(x, y) for i, x in enumerate(ids) for y in ids[i + 1 :]]
    results = similarity_for_pairs(bundle, pairs, now)
    swapped = similarity_for_pairs(bundle, [(y, x) for x, y in pairs], now)
    assert len(results) == len(pairs)
    for (x, y), result, back in zip(pairs, results, swapped):
        expected = [oracle_simtap_beta(bundle.subnetwork(b), x, y, now) for b in bundle.relation_types()]
        assert (result.x, result.y) == (x, y)
        assert list(result.scores) == expected
        assert list(result.scores) == [simtap_beta(bundle.subnetwork(b), x, y, now) for b in bundle.relation_types()]
        assert result.aggregate == combine_subnetwork_scores(expected)
        assert (back.x, back.y, back.scores, back.aggregate) == (y, x, result.scores, result.aggregate)


@st.composite
def bundles_with_shared_names(draw):
    """Clone bundles plus a popular-entity bucket, every person named one of 2-3 names.

    The fans' one edge each goes to the popular entity in one of three
    intervals, so their bucket holds a few classes of a few members. At
    now = 2019 one more fan's edge weighs 4, and two or three people
    hold two parallel edges of weight 2 each to the popular entity: the
    same weight vector with another signature, so that class spans two
    buckets.
    """
    bundle = draw(bundles_with_clones())
    names = [f"name {i}" for i in range(draw(st.integers(2, 3)))]
    people = [
        Vertex(v.id, v.kind, v.type_label, draw(st.sampled_from(names)))
        for v in bundle.vertices()
        if v.kind is VertexKind.CHARACTER
    ]
    fans = [
        Vertex(f"fan{i}", VertexKind.CHARACTER, "person", draw(st.sampled_from(names)))
        for i in range(draw(st.integers(2, 10)))
    ]
    doubled = [
        Vertex(f"twin{i}", VertexKind.CHARACTER, "person", draw(st.sampled_from(names)))
        for i in range(draw(st.integers(2, 3)))
    ]
    popular = Vertex("popular", VertexKind.ENTITY, "venue1", "popular paper")
    beta = bundle.relation_types()[0]
    spans = [TimeInterval(2003, 2003 + draw(st.integers(0, 2))) for _ in fans[1:]] + [TimeInterval(2018, 2019)]
    spans += [TimeInterval(2018, 2018)] * (2 * len(doubled))
    holders = [*fans, *(person for person in doubled for _ in range(2))]
    edges = [TemporalEdge(None, holder.id, popular.id, beta, span) for holder, span in zip(holders, spans)]
    entities = [v for v in bundle.vertices() if v.kind is VertexKind.ENTITY]
    return rebuild([*entities, popular, *people, *fans, *doubled], [*bundle.edges(), *edges], bundle.relation_types())


@settings(max_examples=150, deadline=None)
@given(bundles_with_shared_names(), st.sampled_from(NameFilter))
def test_screened_runs_are_id_ordered_with_partners_and_equal_brute_force(bundle, name_filter):
    assert_screen_matches_brute_force(bundle, name_filter)


@settings(max_examples=150, deadline=None)
@given(bundles_with_shared_names(), st.sampled_from(NameFilter))
def test_candidate_class_pairs_are_the_class_pairs_of_the_candidates(bundle, name_filter):
    now = 2019
    candidates = screen_candidates(bundle, name_filter)
    results = similarity_for_pairs(bundle, candidates, now)
    key = {c: weight_class(bundle, c, now) for c in bundle.character_ids()}
    # each block scores every unordered pair of its classes at most once: far fewer than its pairs on a popular entity
    scored = set()
    for b, block in enumerate(results.blocks):
        classes = [key[candidates.buckets[b][block.local.index(c)]] for c in range(len(block.classes))]
        for a, texts in enumerate(block.texts):
            scored |= {(b, tuple(sorted((classes[a], classes[a + d])))) for d in range(len(texts))}
    assert results.scored == len(scored)
    assert results.scored <= sum(len(block.classes) * (len(block.classes) + 1) // 2 for block in results.blocks)
    # and every class pair a candidate pair joins in its bucket is among them
    bucket = {member: b for b, members in enumerate(candidates.buckets) for member in members}
    assert {(bucket[x], tuple(sorted((key[x], key[y])))) for x, y in candidates} <= scored


@st.composite
def tie_prone_bundles(draw):
    """`testkit` bundles whose subnetwork scores are small fractions such as 4/5.

    Every interval lies in 2013-2014, so at now = 2014 each edge weighs
    1, 2 or 4, and with one entity per subnetwork the exact means of
    three to six scores often end within a few decimals, where their
    float means may fall just below.
    """
    spec = RandomBundleSpec(
        characters=draw(st.integers(4, 12)),
        entities_per_type=1,
        relation_types=draw(st.integers(3, 6)),
        edge_density=draw(st.sampled_from([0.5, 1.0])),
        interval_span=(2013, 2014),
        seed=draw(st.integers(0, 2**16)),
    )
    return generate(spec)


def exact_simtap(bundle: NetworkBundle, x: str, y: str, now: int) -> Fraction:
    """The mean over the subnetworks of 2 * W_xy / (W_xx + W_yy), in `Fraction`s, from enumerated paths."""
    betas = bundle.relation_types()
    total = Fraction(0)
    for beta in betas:
        tan = bundle.subnetwork(beta)
        w_xy, w_xx, w_yy = (
            sum(path.weight for path in enumerate_paths(tan, a, b, now)) for a, b in ((x, y), (x, x), (y, y))
        )
        if w_xx + w_yy:
            total += Fraction(2 * w_xy, w_xx + w_yy)
    return total / len(betas) if betas else total


@settings(max_examples=200, deadline=None)
@given(tie_prone_bundles(), st.data())
def test_grouping_at_theta_equals_exact_arithmetic(bundle, data):
    now = 2014
    ids = bundle.character_ids()
    pairs = [(x, y) for i, x in enumerate(ids) for y in ids[i + 1 :]]
    exact = {(x, y): exact_simtap(bundle, x, y, now) for x, y in pairs}
    # theta is one of the bundle's own exact means that a 6-decimal float prints exactly
    decimals = sorted({value for value in exact.values() if value > 0 and (value * 10**6).denominator == 1})
    assume(decimals)
    theta = data.draw(st.sampled_from(decimals))
    candidates = screen_candidates(bundle)
    for scored in (pairs, candidates):
        reference = UnionFind()
        for x, y in scored:
            if exact[x, y] >= theta:
                reference.union(x, y)
        results = similarity_for_pairs(bundle, scored, now)
        assert group_by_threshold(results, float(theta), now).groups == reference.groups()


@settings(max_examples=150, deadline=None)
@given(bundles_with_shared_names(), st.sampled_from(NameFilter), st.data())
def test_a_candidate_set_and_its_pair_list_write_group_and_iterate_alike(bundle, name_filter, data):
    now = 2019
    candidates = screen_candidates(bundle, name_filter)
    pairs = candidates.pair_ids()
    exact = {(x, y): exact_simtap(bundle, x, y, now) for x, y in pairs}
    # theta is some pair's exact mean, as the doubled people's 1/k is with k <= 2 subnetworks
    ties = sorted({value for value in exact.values() if value > 0 and (value * 10**6).denominator == 1})
    theta = float(data.draw(st.sampled_from(ties))) if ties else 0.8
    reference = UnionFind()
    for (x, y), value in exact.items():
        if value >= Fraction(str(theta)):
            reference.union(x, y)
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for scored in (candidates, pairs):
            results = similarity_for_pairs(bundle, scored, now)
            write_similarity_csv(bundle, results, Path(tmp) / "similarity.csv")
            groups = group_by_threshold(results, theta, now).groups
            outputs.append(((Path(tmp) / "similarity.csv").read_bytes(), groups, list(results)))
    assert outputs[0] == outputs[1]
    assert outputs[0][1] == reference.groups()
