"""Structure error values, candidate screening, and its property suite."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapmerge import (
    NetworkBundle,
    TemporalEdge,
    TimeInterval,
    Vertex,
    VertexKind,
    load_records,
    rebuild,
    screen_candidates,
    structure_error,
)
from tapmerge.graph import GraphError
from tapmerge.ingest import TransactionRecord
from tapmerge.screening import CandidateSet, NameFilter, write_candidates_csv
from tapmerge.testkit import PlantMode, RandomBundleSpec, fully_active_characters, generate, plant_duplicates


def brute_force_multisets_equal(bundle: NetworkBundle, x: str, y: str) -> bool:
    """Independent comparison of (relation type, entity, count) multisets."""
    def multiset(character: str) -> Counter:
        counts: Counter = Counter()
        for tan in bundle.subnetworks():
            for edge in tan.edges():
                if edge.character == character:
                    counts[(tan.relation_type, edge.entity)] += 1
        return counts

    return multiset(x) == multiset(y)


def two_branch_net() -> tuple[NetworkBundle, str, str]:
    """One shared neighbor out of two each: overlap is exactly half."""
    bundle = NetworkBundle()
    v4 = bundle.add_vertex(VertexKind.CHARACTER, "person", "v4")
    v5 = bundle.add_vertex(VertexKind.CHARACTER, "person", "v5")
    e4 = bundle.add_vertex(VertexKind.ENTITY, "club", "e4")
    e5 = bundle.add_vertex(VertexKind.ENTITY, "club", "e5")
    e6 = bundle.add_vertex(VertexKind.ENTITY, "club", "e6")
    bundle.add_edge(v4, e5, "member", (2000, 2001))
    bundle.add_edge(v4, e6, "member", (2000, 2001))
    bundle.add_edge(v5, e4, "member", (2000, 2001))
    bundle.add_edge(v5, e6, "member", (2000, 2001))
    return bundle.seal(), v4, v5


def clone_trio() -> NetworkBundle:
    """Three characters wired identically to three entities."""
    bundle = NetworkBundle()
    people = [bundle.add_vertex(VertexKind.CHARACTER, "person", f"clone {i}") for i in range(3)]
    clubs = [bundle.add_vertex(VertexKind.ENTITY, "club", f"club {i}") for i in range(3)]
    for person in people:
        for entity in clubs:
            bundle.add_edge(person, entity, "member", (2001, 2003))
    return bundle.seal()


def test_identical_structures_score_zero(scholars_bundle, scholar_ids):
    err = structure_error(scholars_bundle, scholar_ids["Faye Wu"], scholar_ids["Fei Wu"])
    assert err.value == 0.0
    assert err.is_zero
    assert err.per_relation_type["study"].shared == 3


def test_half_overlap_scores_half():
    bundle, v4, v5 = two_branch_net()
    err = structure_error(bundle, v4, v5)
    assert err.value == pytest.approx(0.5)
    assert not err.is_zero


def test_disjoint_singletons_score_one():
    bundle = NetworkBundle()
    a = bundle.add_vertex(VertexKind.CHARACTER, "person", "a")
    b = bundle.add_vertex(VertexKind.CHARACTER, "person", "b")
    e1 = bundle.add_vertex(VertexKind.ENTITY, "club", "e1")
    e2 = bundle.add_vertex(VertexKind.ENTITY, "club", "e2")
    bundle.add_edge(a, e1, "member", (2000, 2000))
    bundle.add_edge(b, e2, "member", (2000, 2000))
    assert structure_error(bundle.seal(), a, b).value == 1.0


def test_two_isolated_characters_score_one_not_zero():
    bundle = NetworkBundle()
    a = bundle.add_vertex(VertexKind.CHARACTER, "person", "a")
    b = bundle.add_vertex(VertexKind.CHARACTER, "person", "b")
    err = structure_error(bundle.seal(), a, b)
    assert err.value == 1.0
    assert not err.is_zero


def test_structure_error_rejects_bad_arguments(club):
    with pytest.raises(GraphError):
        structure_error(club.bundle, club.mona, club.mona)
    with pytest.raises(GraphError):
        structure_error(club.bundle, club.mona, club.chess)


def test_screen_finds_exactly_the_two_scholar_pairs(scholars_bundle, scholar_ids):
    candidates = screen_candidates(scholars_bundle)
    named = {
        (scholars_bundle.vertex(x).display_name, scholars_bundle.vertex(y).display_name)
        for x, y in candidates.pair_ids()
    }
    assert named == {("Faye Wu", "Fei Wu"), ("ShaoJia Zhu", "ShaoNan Zhu")}
    assert all(structure_error(scholars_bundle, x, y).value == 0.0 for x, y in candidates.pair_ids())


def test_screen_on_clone_trio_returns_all_three_pairs():
    candidates = screen_candidates(clone_trio())
    assert len(candidates) == 3


def test_screen_with_unique_neighbors_is_empty():
    bundle = NetworkBundle()
    for i in range(4):
        c = bundle.add_vertex(VertexKind.CHARACTER, "person", f"p{i}")
        e = bundle.add_vertex(VertexKind.ENTITY, "club", f"club{i}")
        bundle.add_edge(c, e, "member", (2000, 2001))
    assert len(screen_candidates(bundle.seal())) == 0


def test_screen_requires_sealed_bundle():
    bundle = NetworkBundle()
    with pytest.raises(GraphError, match="sealed"):
        screen_candidates(bundle)


def test_name_filters():
    bundle = NetworkBundle()
    a = bundle.add_vertex(VertexKind.CHARACTER, "person", "Wei Zhang")
    b = bundle.add_vertex(VertexKind.CHARACTER, "person", "Wei Zhang")
    c = bundle.add_vertex(VertexKind.CHARACTER, "person", "W. Zhang")
    club_ = bundle.add_vertex(VertexKind.ENTITY, "club", "club")
    for person in (a, b, c):
        bundle.add_edge(person, club_, "member", (2000, 2001))
    bundle.seal()
    assert len(screen_candidates(bundle, NameFilter.OFF)) == 3
    assert screen_candidates(bundle, NameFilter.SAME_NAME).pair_ids() == [(a, b)]
    assert len(screen_candidates(bundle, NameFilter.DIFFERENT_NAME)) == 2


def test_screen_invariant_under_record_permutation():
    rows = [
        TransactionRecord("P%d" % (i % 5), f"club{i % 3}", "club", "member", 2000 + i % 4, 2004)
        for i in range(20)
    ]
    def named_pairs(records):
        bundle = load_records(records)
        return {
            tuple(sorted((bundle.vertex(x).display_name, bundle.vertex(y).display_name)))
            for x, y in screen_candidates(bundle).pair_ids()
        }

    baseline = named_pairs(rows)
    rng = random.Random(7)
    for _ in range(5):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert named_pairs(shuffled) == baseline


def test_candidates_csv_layout(tmp_path, scholars_bundle):
    path = tmp_path / "candidates.csv"
    write_candidates_csv(scholars_bundle, screen_candidates(scholars_bundle), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_id,x_name,y_id,y_name,structure_error"
    assert len(lines) == 3
    assert lines[1].endswith("0.0000")



def interleaved_buckets() -> NetworkBundle:
    """Three signature buckets whose member ids interleave, plus near misses.

    Bucket members alternate in id order with each other, with
    zero-degree characters and with one character whose only difference
    is a parallel edge. Names repeat inside buckets, so both name
    filters keep some pairs and drop others.
    """
    bundle = NetworkBundle()
    for beta in ("study", "work", "coauthor"):
        bundle.declare_relation_type(beta)
    uni = bundle.add_vertex(VertexKind.ENTITY, "institution", "uni")
    lab = bundle.add_vertex(VertexKind.ENTITY, "institution", "lab")
    paper = bundle.add_vertex(VertexKind.ENTITY, "publication", "paper")
    shapes = [
        [("study", uni), ("work", lab)],
        [("coauthor", paper)],
        [("work", lab), ("work", lab), ("coauthor", paper)],
    ]
    for i in range(13):
        person = bundle.add_vertex(VertexKind.CHARACTER, "person", f"name {i % 4}")
        if i % 5 == 4:
            continue  # zero degree
        for beta, entity in shapes[i % 3]:
            bundle.add_edge(person, entity, beta, (2000 + i, 2001 + i))
    near = bundle.add_vertex(VertexKind.CHARACTER, "person", "name 1")
    for beta, entity in [("coauthor", paper), ("coauthor", paper)]:
        bundle.add_edge(near, entity, beta, (2003, 2004))
    return bundle.seal()


def assert_screen_matches_brute_force(bundle: NetworkBundle, name_filter: NameFilter) -> None:
    def kept(x: str, y: str) -> bool:
        same = bundle.vertex(x).display_name == bundle.vertex(y).display_name
        return {NameFilter.OFF: True, NameFilter.SAME_NAME: same, NameFilter.DIFFERENT_NAME: not same}[name_filter]

    ids = bundle.character_ids()
    expected = sorted(
        (x, y) for i, x in enumerate(ids) for y in ids[i + 1 :] if structure_error(bundle, x, y).is_zero and kept(x, y)
    )
    candidates = screen_candidates(bundle, name_filter)
    assert list(candidates) == expected
    # every walk generates the pairs again from the buckets
    assert candidates.pair_ids() == expected
    assert len(candidates) == len(expected)
    # the writers' walk: runs of one character and the later members of its bucket that `later` selects
    runs = [(candidates.buckets[b][i], list(*candidates.later(b, i, candidates.buckets[b]))) for b, i in candidates.runs]
    assert [(x, y) for x, later in runs for y in later] == expected
    assert all(later for _, later in runs)
    # listed once, in strictly increasing character id
    heads = [x for x, _ in runs]
    assert heads == sorted(set(heads))


@pytest.mark.parametrize("name_filter", list(NameFilter))
def test_bucketed_screening_equals_brute_force(name_filter):
    bundle = interleaved_buckets()
    assert_screen_matches_brute_force(bundle, name_filter)
    assert len(screen_candidates(bundle, name_filter)) > 0


def test_screening_holds_no_per_edge_count_maps():
    # 2,000 people with about 12,000 edges; one (relation type, entity) ->
    # count dict per person, all alive until bucketing ends, peaked at 2.7 MB
    bundle = generate(RandomBundleSpec(characters=2000, entities_per_type=500, relation_types=4, seed=3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        candidates = screen_candidates(bundle)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert candidates.bucket_count == 1991
    assert peak < 1.6 * 2**20


def test_bucket_counts_cover_every_character_with_an_edge():
    candidates = screen_candidates(interleaved_buckets())
    # three shapes plus the parallel-edge near miss; the two zero-degree characters join none
    assert candidates.bucket_count == 4
    assert candidates.largest_bucket == 4


def test_a_pair_list_iterates_back_from_its_candidate_set(scholar_ids):
    fei, faye = scholar_ids["Fei Wu"], scholar_ids["Faye Wu"]
    for pairs in (
        [],
        # `simtap --pair "Fei Wu,Faye Wu"`: the later id first
        [(fei, faye)],
        [(faye, fei)],
        # repeated first members that are not contiguous, out of id order
        [("c3", "c1"), ("c1", "c2"), ("c3", "c2"), ("c1", "c4"), ("c1", "c3")],
    ):
        candidates = CandidateSet.of_pairs(pairs)
        assert list(candidates) == pairs
        assert len(candidates) == len(pairs)
    # one block and one run per run of equal first members
    candidates = CandidateSet.of_pairs([("c3", "c1"), ("c3", "c2"), ("c1", "c2"), ("c3", "c4")])
    assert candidates.buckets == [["c3", "c1", "c2"], ["c1", "c2"], ["c3", "c4"]]
    assert candidates.runs == [(0, 0), (1, 0), (2, 0)]


@settings(max_examples=100, deadline=None)
@given(st.permutations([(x, y) for x in "abcd" for y in "abcd" if x != y]), st.integers(0, 12))
def test_a_shuffled_pair_list_iterates_back_from_its_candidate_set(pairs, size):
    assert list(CandidateSet.of_pairs(pairs[:size])) == pairs[:size]


# -- randomized properties ---------------------------------------------------


@st.composite
def random_bundles(draw) -> NetworkBundle:
    n_characters = draw(st.integers(2, 5))
    n_entities = draw(st.integers(1, 4))
    n_betas = draw(st.integers(1, 2))
    bundle = NetworkBundle()
    characters = [bundle.add_vertex(VertexKind.CHARACTER, "person", f"p{i}") for i in range(n_characters)]
    entities = [bundle.add_vertex(VertexKind.ENTITY, "club", f"c{i}") for i in range(n_entities)]
    betas = [f"b{i}" for i in range(n_betas)]
    for beta in betas:
        bundle.declare_relation_type(beta)
    n_edges = draw(st.integers(0, 12))
    for _ in range(n_edges):
        c = draw(st.sampled_from(characters))
        e = draw(st.sampled_from(entities))
        beta = draw(st.sampled_from(betas))
        start = draw(st.integers(2000, 2005))
        end = draw(st.integers(start, 2006))
        bundle.add_edge(c, e, beta, (start, end))
    return bundle.seal()


@settings(max_examples=200, deadline=None)
@given(random_bundles())
def test_zero_iff_equal_neighbor_multisets(bundle):
    ids = bundle.character_ids()
    for i, x in enumerate(ids):
        for y in ids[i + 1 :]:
            err = structure_error(bundle, x, y)
            equal = brute_force_multisets_equal(bundle, x, y)
            nonempty = err.degree_x + err.degree_y > 0
            assert (err.value == 0.0) == (equal and nonempty)
            assert err.is_zero == (equal and nonempty)


@settings(max_examples=100, deadline=None)
@given(random_bundles(), st.sampled_from(NameFilter))
def test_screening_equals_brute_force_on_random_bundles(bundle, name_filter):
    assert_screen_matches_brute_force(bundle, name_filter)


@st.composite
def planted_bundles_with_a_popular_entity(draw) -> NetworkBundle:
    """A `testkit` bundle with planted duplicates, plus one popular-entity bucket.

    Each fan's one edge goes to the popular entity in the same interval,
    so all fans share one bucket. Fan ids interleave with the generated
    ones, and fan names repeat, so the name filters keep some fan pairs
    and drop others; planted clones keep their source's name.
    """
    spec = RandomBundleSpec(
        characters=draw(st.integers(2, 8)),
        entities_per_type=draw(st.integers(1, 3)),
        relation_types=draw(st.integers(1, 3)),
        edge_density=draw(st.sampled_from([0.5, 1.0, 1.5])),
        seed=draw(st.integers(0, 2**16)),
    )
    bundle = generate(spec)
    mode = draw(st.sampled_from(PlantMode))
    k = draw(st.integers(0, min(len(fully_active_characters(bundle)), 3)))
    bundle = plant_duplicates(bundle, k, mode, seed=draw(st.integers(0, 2**16)))[0]
    fans = [
        Vertex(f"c{i + 1:06d}-fan", VertexKind.CHARACTER, "person", f"fan {i % 3}")
        for i in range(draw(st.integers(2, 12)))
    ]
    popular = Vertex("popular", VertexKind.ENTITY, "venue1", "popular paper")
    beta = bundle.relation_types()[0]
    edges = [TemporalEdge(None, fan.id, popular.id, beta, TimeInterval(2003, 2005)) for fan in fans]
    return rebuild([*bundle.vertices(), popular, *fans], [*bundle.edges(), *edges], bundle.relation_types())


@settings(max_examples=60, deadline=None)
@given(planted_bundles_with_a_popular_entity())
def test_pair_walk_equals_brute_force_with_planted_duplicates_and_a_popular_entity(bundle):
    for name_filter in NameFilter:
        assert_screen_matches_brute_force(bundle, name_filter)


@settings(max_examples=200, deadline=None)
@given(random_bundles())
def test_structure_error_symmetry_and_range(bundle):
    ids = bundle.character_ids()
    for i, x in enumerate(ids):
        for y in ids[i + 1 :]:
            forward = structure_error(bundle, x, y)
            backward = structure_error(bundle, y, x)
            assert forward.value == backward.value
            assert 0.0 <= forward.value <= 1.0


@settings(max_examples=100, deadline=None)
@given(random_bundles())
def test_removing_a_shared_edge_pair_never_lowers_the_error(bundle):
    ids = bundle.character_ids()
    x, y = ids[0], ids[1]
    before = structure_error(bundle, x, y)
    if before.shared == 0:
        return
    # find one entity both touch in some subnetwork and delete one edge each
    target = None
    for tan in bundle.subnetworks():
        counts_x = tan.neighbor_counts(x)
        counts_y = tan.neighbor_counts(y)
        common = sorted(set(counts_x) & set(counts_y))
        if common:
            target = (tan.relation_type, common[0])
            break
    assert target is not None
    beta, entity = target
    trimmed = NetworkBundle()
    for vertex in bundle.vertices():
        trimmed.add_vertex(vertex.kind, vertex.type_label, vertex.display_name, vertex_id=vertex.id)
    for rt in bundle.relation_types():
        trimmed.declare_relation_type(rt)
    removed = {x: False, y: False}
    for edge in bundle.edges():
        owner = edge.character
        if (
            owner in removed
            and not removed[owner]
            and edge.relation_type == beta
            and edge.entity == entity
        ):
            removed[owner] = True
            continue
        trimmed.add_edge(edge.character, edge.entity, edge.relation_type, edge.interval, relation_id=edge.relation_id)
    after = structure_error(trimmed.seal(), x, y)
    assert after.value >= before.value
