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
vectors, so a batch puts characters with equal vectors in one class and
scores each pair of classes once (`PairScores`). The candidates in
one signature bucket share their structure, so a bucket of thousands of
people around one popular entity has far fewer classes than pairs.
`PairScores` keeps one row per class pair met and nothing per pair:
the CSV writer and `group_by_threshold` walk the pairs again and look
each one's row up by its two classes.

All accumulation is exact integer arithmetic; the single final division
is the only float operation, so results are bit-reproducible and do not
depend on which member of a class or pair comes first.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from collections.abc import Iterator, Sequence
from itertools import chain
from pathlib import Path
from typing import NamedTuple

from .graph import GraphError, NetworkBundle, TemporalActivityNetwork, TemporalEdge, VertexKind
from .screening import CandidateSet, Memo, character_fields
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


class PairScores(Sequence[SimilarityResult]):
    """Similarity for some pairs, stored once per pair of weight-vector classes.

    `class_of` gives each character's class, and `profiles[c]` holds
    class c's `(vector, self-weight)` per subnetwork. The pair (x, y)
    has the key `class_of[x] * len(profiles) + class_of[y]`, and
    `row_of[key]` is its row in `table`, scored the first time it is
    asked for; both orders of a class pair share one row, so `table`
    holds one `(scores, aggregate)` row per unordered class pair met so
    far. Nothing is stored per pair. Read as a sequence, it builds each
    pair's `SimilarityResult` on demand; indexing needs `pairs` to be
    indexable, which a `CandidateSet` is not. `complete` is set by a
    walk that has met every pair: a full iteration or the CSV writer.
    """

    def __init__(
        self,
        pairs: Sequence[tuple[str, str]] | CandidateSet,
        class_of: dict[str, int],
        profiles: list[list[tuple[dict[str, int], int]]],
    ):
        self.pairs = pairs
        self.class_of = class_of
        self.profiles = profiles
        self.table: list[tuple[tuple[float, ...], float]] = []
        self.complete = False
        self.row_of = Memo(self._row_for)

    def __eq__(self, other: object) -> bool:
        # field by field; `row_of` only caches rows of `table`
        if not isinstance(other, PairScores):
            return NotImplemented
        mine = (self.pairs, self.class_of, self.profiles, self.table, self.complete)
        return mine == (other.pairs, other.class_of, other.profiles, other.table, other.complete)

    def _row_for(self, key: int) -> int:
        """The row of the class pair's other order, or a newly scored one."""
        a, b = divmod(key, len(self.profiles))
        row = self.row_of.get(b * len(self.profiles) + a)
        if row is None:
            row = len(self.table)
            scores = tuple([
                _similarity(vec_a, vec_b, w_aa, w_bb) if w_aa and w_bb else 0.0
                for (vec_a, w_aa), (vec_b, w_bb) in zip(self.profiles[a], self.profiles[b])
            ])
            self.table.append((scores, combine_subnetwork_scores(scores)))
        return row

    def row(self, x: str, y: str) -> int:
        return self.row_of[self.class_of[x] * len(self.profiles) + self.class_of[y]]

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i: int) -> SimilarityResult:
        x, y = self.pairs[i]
        return SimilarityResult(x, y, *self.table[self.row(x, y)])

    def __iter__(self) -> Iterator[SimilarityResult]:
        for x, y in self.pairs:
            yield SimilarityResult(x, y, *self.table[self.row(x, y)])
        self.complete = True


class RedundantGroupSet(NamedTuple):
    """Disjoint duplicate groups: components of the >= theta pair graph."""

    groups: list[list[str]]
    theta: float
    now: int

    def pairs(self) -> list[tuple[str, str]]:
        out = []
        for group in self.groups:
            for i, x in enumerate(group):
                for y in group[i + 1 :]:
                    out.append((x, y))
        return out

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


def _similarity(vec_x: dict[str, int], vec_y: dict[str, int], w_xx: int, w_yy: int) -> float:
    # exact integer sums, so iteration order cannot change the result
    denominator = w_xx + w_yy
    if denominator == 0:
        return 0.0
    w_xy = 0
    for entity, weight in vec_x.items():
        w_xy += weight * vec_y.get(entity, 0)
    return (2 * w_xy) / denominator


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
    return similarity_for_pairs(bundle, [(x, y)], now)[0]


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
    """Similarity for each pair, in input order.

    Characters whose weight vectors are equal in every subnetwork form
    one class, and each distinct unordered pair of classes is scored
    once; its row in `PairScores.table` serves every pair between those
    classes. A subnetwork where either self-weight is 0 scores 0.0
    without a dot product: edge weights are positive, so that character
    has no entity there to share. A list of pairs is scored here, in
    one pass; a `CandidateSet` is only classified, and its class pairs
    are scored as the writer or `group_by_threshold` first walks them,
    so the pairs are walked no more often than the outputs need.
    `workers` is ignored: the loop is serial. The keyword stays because
    `bench/replay.py` passes it.
    """
    lazy = isinstance(pairs, CandidateSet)
    characters = chain.from_iterable(pairs.buckets) if lazy else {c for pair in pairs for c in pair}
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
    results = PairScores(pairs, class_of, profiles)
    if not lazy:
        deque(results, maxlen=0)
    return results


def group_by_threshold(results: PairScores, theta: float, now: int) -> RedundantGroupSet:
    """Union every pair whose class-pair row has an aggregate >= theta.

    Once a walk has completed the table, a table without such a row
    skips the walk over the pairs.
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    dsu = UnionFind()
    if not results.complete or any(aggregate >= theta for _, aggregate in results.table):
        for result in results:
            if result.aggregate >= theta:
                dsu.union(result.x, result.y)
    return RedundantGroupSet(groups=dsu.groups(), theta=theta, now=now)


def threshold_groups(
    candidates: CandidateSet, bundle: NetworkBundle, theta: float, now: int
) -> RedundantGroupSet:
    """Confirmed duplicate groups among screened candidate pairs."""
    return group_by_threshold(similarity_for_pairs(bundle, candidates, now), theta, now)


# -- reports -----------------------------------------------------------------


def write_similarity_csv(bundle: NetworkBundle, results: PairScores, path: str | Path) -> None:
    """One row per pair, one column per subnetwork in declaration order.

    Each class-pair row's score columns are rendered once, when the walk
    first meets it. The walk meets every pair, so it completes the table.
    """
    fields = character_fields(bundle)
    table, row_of, class_of, classes = results.table, results.row_of, results.class_of, len(results.profiles)
    cols = Memo(lambda row: ",".join([f"{value:.4f}" for value in (*table[row][0], table[row][1])]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["x_id", "x_name", "y_id", "y_name", *bundle.relation_types(), "simtap"])
        # `PairScores.row` written out: a call per pair would cost a third of the write
        fh.writelines(
            f"{fields[x]},{fields[y]},{cols[row_of[class_of[x] * classes + class_of[y]]]}\r\n"
            for x, y in results.pairs
        )
    results.complete = True


def write_groups_json(groups: RedundantGroupSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(groups.to_dict(), indent=2) + "\n", encoding="utf-8")
