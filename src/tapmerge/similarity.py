"""Temporally weighted activity-path similarity.

Every edge gets an integer temporal weight

    (now + 1 - start) * (end + 1 - start)

so recent and long-running activities weigh more. A length-2 path
character -> entity -> character scores the product of its two edge
weights. Summing path weights per shared entity collapses to a dot
product of per-entity aggregated weight vectors, and the similarity in
one subnetwork is

    2 * W(paths x..y) / (W(paths x..x) + W(paths y..y))

which is 1 exactly when the two aggregated vectors are equal, and 0
when the characters share no entities. The bundle-level score is the
plain mean over all declared subnetworks, counting a subnetwork a
character is absent from as 0.

A pair's scores depend only on the two characters' aggregated weight
vectors, so `similarity_for_pairs` puts characters with equal vectors in
one class and scores each class pair that the pairs meet once, before it
returns. The candidates in one signature bucket share their structure,
so a bucket of thousands of people around one popular entity has far
fewer classes than pairs. `PairScores` keeps one row per class pair and
nothing per pair.

All accumulation is exact integer arithmetic; the single final division
is the only float operation, so results are bit-reproducible and do not
depend on which member of a class or pair comes first. A pair merges
when its exact mean score reaches theta, read as the decimal it prints
as: a float mean within `_EXACT_BAND` of theta is decided again in
`Fraction`s, since 4/5, 1, 1 and 4/5 average to 9/10 exactly but to
0.8999999999999999 in floats.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterator, Sequence
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .graph import GraphError, NetworkBundle, TemporalActivityNetwork, TemporalEdge, VertexKind
from .screening import CandidateSet, character_fields
from .unionfind import UnionFind


class FutureEdgeError(GraphError):
    """An edge starts after the chosen `now` anchor."""


class TapPath(NamedTuple):
    """One character -> entity -> character path with its edge weights."""

    start: str
    entity: str
    end: str
    relation_a: str
    relation_b: str
    weight_a: int
    weight_b: int

    @property
    def weight(self) -> int:
        return self.weight_a * self.weight_b


class SimilarityResult(NamedTuple):
    """One pair's score per subnetwork, in `relation_types()` order, and their mean."""

    x: str
    y: str
    scores: tuple[float, ...]
    aggregate: float


class PairScores:
    """Similarity for some pairs, stored once per pair of weight-vector classes.

    `class_of` gives each character's class, and `profiles[c]` holds
    class c's `(weight vector, self-weight)` in each subnetwork. The pair
    (x, y) has the key `class_of[x] * len(class_of) + class_of[y]`, as no
    class id reaches the number of characters, and `row_of[key]` is its
    row in `table`, which `similarity_for_pairs` fills before it
    returns: one `(scores, aggregate)` row per unordered class pair that
    `pairs` meets, keyed in both orders. Iterating builds each pair's
    `SimilarityResult`, in the order of `pairs`.
    """

    def __init__(
        self,
        pairs: Sequence[tuple[str, str]] | CandidateSet,
        class_of: dict[str, int],
        profiles: list[list[tuple[dict[str, int], int]]],
        table: list[tuple[tuple[float, ...], float]],
        row_of: dict[int, int],
    ):
        self.pairs = pairs
        self.class_of = class_of
        self.profiles = profiles
        self.table = table
        self.row_of = row_of

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[SimilarityResult]:
        table, row_of, class_of, n = self.table, self.row_of, self.class_of, len(self.class_of)
        for x, y in self.pairs:
            yield SimilarityResult(x, y, *table[row_of[class_of[x] * n + class_of[y]]])


class RedundantGroupSet(NamedTuple):
    """Disjoint duplicate groups: components of the >= theta pair graph."""

    groups: list[list[str]]
    theta: float
    now: int

    def to_dict(self) -> dict:
        return {"theta": self.theta, "now": self.now, "groups": self.groups}


def _future_edge(edge: TemporalEdge, now: int) -> FutureEdgeError:
    return FutureEdgeError(f"edge {edge.relation_id} starts at {edge.interval.start}, after now={now}")


def edge_weight(edge: TemporalEdge, now: int) -> int:
    if edge.interval.start > now:
        raise _future_edge(edge, now)
    return (now + 1 - edge.interval.start) * edge.interval.duration


def enumerate_paths(tan: TemporalActivityNetwork, x: str, y: str, now: int) -> list[TapPath]:
    """Every activity path from x to y, one per (entity, edge, edge) triple.

    With x == y the full double loop applies, so each edge pairs with
    itself and with its parallels in both orders.
    """
    edges_x = tan.edges_of_character(x)
    edges_y = edges_x if x == y else tan.edges_of_character(y)
    paths = []
    for ex in edges_x:
        wx = edge_weight(ex, now)
        for ey in edges_y:
            if ey.entity != ex.entity:
                continue
            wy = edge_weight(ey, now)
            paths.append(TapPath(x, ex.entity, y, ex.relation_id, ey.relation_id, wx, wy))
    return paths


def subnetwork_weights(tan: TemporalActivityNetwork, character: str, now: int) -> dict[str, int]:
    """Aggregated per-entity weight of one character in one subnetwork."""
    sums: dict[str, int] = {}
    for edge in tan.edges_of_character(character):
        sums[edge.entity] = sums.get(edge.entity, 0) + edge_weight(edge, now)
    return sums


def neighbor_weight_vector(bundle: NetworkBundle, character: str, now: int) -> dict[str, dict[str, int]]:
    """Per-subnetwork map from entity id to summed temporal edge weight."""
    if bundle.vertex(character).kind is not VertexKind.CHARACTER:
        raise GraphError(f"{character!r} is not a character vertex")
    return {
        beta: subnetwork_weights(bundle.subnetwork(beta), character, now)
        for beta in bundle.relation_types()
    }


def _self_weight(vec: dict[str, int]) -> int:
    """W(paths x..x): the squared norm of an aggregated weight vector."""
    return sum(weight * weight for weight in vec.values())


def _cross_weight(vec_x: dict[str, int], vec_y: dict[str, int]) -> int:
    """W(paths x..y): the dot product of two aggregated weight vectors."""
    # exact integer sums, so iteration order cannot change the result
    w_xy = 0
    for entity, weight in vec_x.items():
        w_xy += weight * vec_y.get(entity, 0)
    return w_xy


def _similarity(vec_x: dict[str, int], vec_y: dict[str, int], w_xx: int, w_yy: int) -> float:
    denominator = w_xx + w_yy
    if denominator == 0:
        return 0.0
    return (2 * _cross_weight(vec_x, vec_y)) / denominator


def simtap_beta(tan: TemporalActivityNetwork, x: str, y: str, now: int) -> float:
    """Path similarity of x and y within one subnetwork, in [0, 1]."""
    vec_x, vec_y = subnetwork_weights(tan, x, now), subnetwork_weights(tan, y, now)
    return _similarity(vec_x, vec_y, _self_weight(vec_x), _self_weight(vec_y))


def combine_subnetwork_scores(scores: Sequence[float]) -> float:
    """Bundle-level similarity: arithmetic mean over all subnetworks."""
    if not scores:
        return 0.0
    return sum(scores) / len(scores)


def simtap(bundle: NetworkBundle, x: str, y: str, now: int) -> SimilarityResult:
    (result,) = similarity_for_pairs(bundle, [(x, y)], now)
    return result


def resolve_now(bundle: NetworkBundle, now: int | None) -> int:
    """Explicit anchor if given, else the latest end time in the bundle.

    An explicit anchor is checked against every edge here, once, so an
    edge that starts after it fails the run before anything is scored
    or written, whichever pairs the edge's character ends up in.
    """
    if now is not None:
        for edge in bundle.edges():
            if edge.interval.start > now:
                raise _future_edge(edge, now)
        return now
    latest = bundle.max_end()
    if latest is None:
        raise GraphError("cannot infer `now` from a bundle with no edges; pass it explicitly")
    return latest


# -- batch computation -------------------------------------------------------


def similarity_for_pairs(
    bundle: NetworkBundle,
    pairs: Sequence[tuple[str, str]] | CandidateSet,
    now: int,
    workers: int = 1,
) -> PairScores:
    """Similarity for each pair, in input order, with every class pair scored on return.

    Characters whose weight vectors are equal in every subnetwork form
    one class, and each distinct unordered pair of classes that the
    pairs meet is scored once, into one `PairScores.table` row. A
    `CandidateSet` lists its class pairs from its buckets, without
    walking its pairs; a list of pairs is walked once. A subnetwork
    where either self-weight is 0 scores 0.0 without a dot product:
    edge weights are positive, so that character has no entity there to
    share. `workers` is ignored: the loop is serial. The keyword stays
    because `bench/replay.py` passes it.
    """
    screened = isinstance(pairs, CandidateSet)
    characters = chain.from_iterable(pairs.buckets) if screened else {c for pair in pairs for c in pair}
    class_of: dict[str, int] = {}
    class_ids: dict[tuple, int] = {}
    profiles = []
    for character in sorted(characters):
        vectors = list(neighbor_weight_vector(bundle, character, now).values())
        key = tuple(tuple(sorted(vec.items())) for vec in vectors)
        cls = class_ids.get(key)
        if cls is None:
            cls = class_ids[key] = len(profiles)
            profiles.append([(vec, _self_weight(vec)) for vec in vectors])
        class_of[character] = cls
    n = len(class_of)
    class_pairs = pairs.class_pairs(class_of) if screened else ((class_of[x], class_of[y]) for x, y in pairs)
    table: list[tuple[tuple[float, ...], float]] = []
    row_of: dict[int, int] = {}
    for a, b in class_pairs:
        key = a * n + b
        if key not in row_of:
            row_of[key] = row_of[b * n + a] = len(table)
            scores = tuple([
                _similarity(vec_a, vec_b, w_aa, w_bb) if w_aa and w_bb else 0.0
                for (vec_a, w_aa), (vec_b, w_bb) in zip(profiles[a], profiles[b])
            ])
            table.append((scores, combine_subnetwork_scores(scores)))
    return PairScores(pairs, class_of, profiles, table, row_of)


# a float aggregate at most this far from theta is decided in exact arithmetic
_EXACT_BAND = 1e-9


def _reaches_exactly(
    profile_a: list[tuple[dict[str, int], int]], profile_b: list[tuple[dict[str, int], int]], theta: float
) -> bool:
    """Whether two classes' exact mean of 2 * W_xy / (W_xx + W_yy) is at least `Fraction(repr(theta))`."""
    # `fractions` loads `decimal`, so only a row within the band imports it
    from fractions import Fraction

    total = sum(
        (
            Fraction(2 * _cross_weight(vec_a, vec_b), w_aa + w_bb)
            for (vec_a, w_aa), (vec_b, w_bb) in zip(profile_a, profile_b)
            if w_aa and w_bb
        ),
        Fraction(0),
    )
    # with no subnetwork the mean is 0, below every theta
    return bool(profile_a) and total >= len(profile_a) * Fraction(repr(theta))


def group_by_threshold(results: PairScores, theta: float, now: int) -> RedundantGroupSet:
    """Union every pair whose class pair's exact mean score is at least theta.

    Theta is read as the decimal it prints as, `Fraction(repr(theta))`,
    so 0.9 is 9/10. A row whose float aggregate lies within
    `_EXACT_BAND` of theta is decided by the exact mean of its classes'
    integer weights, and every other row by its float, whose error is
    far smaller than the band. The table is full from the moment
    `similarity_for_pairs` returns, so the pairs are walked only when
    some row reaches theta, whatever ran before.
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    table, row_of, class_of, n = results.table, results.row_of, results.class_of, len(results.class_of)
    reaches = [aggregate >= theta for _, aggregate in table]
    near = {row for row, (_, aggregate) in enumerate(table) if abs(aggregate - theta) <= _EXACT_BAND}
    if near:
        profiles = results.profiles
        # each row is keyed in both orders; decide it at its first key
        for key, row in row_of.items():
            if row in near:
                near.remove(row)
                a, b = divmod(key, n)
                reaches[row] = _reaches_exactly(profiles[a], profiles[b], theta)
    dsu = UnionFind()
    if any(reaches):
        for x, y in results.pairs:
            if reaches[row_of[class_of[x] * n + class_of[y]]]:
                dsu.union(x, y)
    return RedundantGroupSet(groups=dsu.groups(), theta=theta, now=now)


def threshold_groups(
    candidates: CandidateSet, bundle: NetworkBundle, theta: float, now: int
) -> RedundantGroupSet:
    """Confirmed duplicate groups among screened candidate pairs."""
    return group_by_threshold(similarity_for_pairs(bundle, candidates, now), theta, now)


# -- reports -----------------------------------------------------------------


def write_similarity_csv(bundle: NetworkBundle, results: PairScores, path: str | Path) -> None:
    """One row per pair, one column per subnetwork in declaration order.

    The table already holds every class pair's row, so each row's score
    columns are rendered once, before the walk over the pairs. The
    pairs are written one run at a time: a character and the members it
    pairs with, whose rows all start with its `id,name,`. A
    `CandidateSet` gives its runs; a list of pairs is cut into runs of
    equal first members.
    """
    fields = character_fields(bundle)
    row_of, class_of, n = results.row_of, results.class_of, len(results.class_of)
    # "%.4f" renders a float exactly as f"{value:.4f}" does
    score_format = ",".join(["%.4f"] * (len(bundle.relation_types()) + 1)) + "\r\n"
    cols = [score_format % (*scores, aggregate) for scores, aggregate in results.table]
    pairs = results.pairs
    if isinstance(pairs, CandidateSet):
        runs = pairs.runs()
    else:
        runs = ((x, [y for _, y in run]) for x, run in groupby(pairs, itemgetter(0)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["x_id", "x_name", "y_id", "y_name", *bundle.relation_types(), "simtap"])
        for x, later in runs:
            head, row = fields[x] + ",", class_of[x] * n
            # `PairScores.row` written out: a call per pair would cost a third of the write
            fh.write(head + head.join([f"{fields[y]},{cols[row_of[row + class_of[y]]]}" for y in later]))


def write_groups_json(groups: RedundantGroupSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(groups.to_dict(), indent=2) + "\n", encoding="utf-8")
