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
one class and scores one block of a `CandidateSet` at a time; a list of
pairs becomes one on entry, with a block per run of equal first
members. Each class of a block is scored against the block's classes
from its own on, by one row routine of C-level `map`s that also renders
the rows' `similarity.csv` text, so a bucket of thousands of people
around one popular entity costs about its classes squared over two, not
its pairs. `PairScores` keeps those rows and nothing per pair, and the
writers and the grouping walk the set's runs, taking each run's
partners from per-block lists with `CandidateSet.later`.

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
from itertools import chain, compress, repeat
from operator import add, ge, getitem, mul, truediv
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


class Block:
    """The scores of one block of a `CandidateSet`.

    `local[i]` is the local class of the block's member i, and
    `classes[c]` is local class c's index into `PairScores.profiles`.
    Scores are symmetric, so the block keeps the upper triangle, one row
    per local class up to the last that heads a run: entry d of row a is
    local class a against local class a + d.
    `texts[a][d]` is the entry's score columns in `similarity.csv`, with
    the line end, and `aggregates[a][d]` its mean over all subnetworks.
    `_mirror` gives a full row. It is a plain slotted class because
    creating a `NamedTuple` class adds about 0.1 ms to every start-up
    (Python 3.11).
    """

    __slots__ = ("classes", "local", "texts", "aggregates")

    def __init__(self, classes: list[int], local: list[int], texts: Sequence[list[str]], aggregates: Sequence[list[float]]):
        self.classes, self.local = classes, local
        self.texts, self.aggregates = texts, aggregates


def _mirror(upper: Sequence[Sequence], a: int) -> list:
    """Row a of a symmetric table kept as its upper triangle, whose `upper[c][d]` is entry (c, c + d)."""
    return [*map(getitem, upper[:a], range(a, 0, -1)), *upper[a]]


class PairScores:
    """Similarity for the pairs of a `CandidateSet`, stored once per class pair of each block.

    Characters whose weight vectors are equal in every subnetwork share
    a class, and `profiles[c]` holds class c's weight vector and
    self-weight per subnetwork. `blocks[b]` scores `pairs.buckets[b]`.
    Iterating scores each pair from its classes' profiles, in the order
    of `pairs`; `scored` counts the class pairs scored, per block.
    """

    def __init__(
        self,
        pairs: CandidateSet,
        blocks: list[Block],
        profiles: list[tuple[tuple[dict[str, int], ...], tuple[int, ...]]],
    ):
        self.pairs = pairs
        self.blocks = blocks
        self.profiles = profiles

    @property
    def scored(self) -> int:
        return sum(sum(map(len, block.texts)) for block in self.blocks)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[SimilarityResult]:
        pairs, profiles = self.pairs, self.profiles
        for b, i in pairs.runs:
            members, block = pairs.buckets[b], self.blocks[b]
            local, classes, aggregates = block.local, block.classes, block.aggregates
            a = local[i]
            vectors, weights = profiles[classes[a]]
            # the run's scores against each partner class met
            scored: dict[int, tuple[float, ...]] = {}
            for y, c in zip(*pairs.later(b, i, members, local)):
                low, d = (a, c - a) if a <= c else (c, a - c)
                scores = scored.get(c)
                if scores is None:
                    partner_vectors, partner_weights = profiles[classes[c]]
                    scores = scored[c] = tuple(map(_score, vectors, partner_vectors, weights, partner_weights))
                yield SimilarityResult(members[i], y, scores, aggregates[low][d])


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


def _ratio(vec_x: dict[str, int], vec_y: dict[str, int], w_xx: int, w_yy: int) -> tuple[int, int]:
    """One subnetwork's score as exact integers: 2 * W(paths x..y), a dot product, and W(paths x..x) + W(paths y..y)."""
    return 2 * sum(weight * vec_y.get(entity, 0) for entity, weight in vec_x.items()), w_xx + w_yy


def _score(vec_x: dict[str, int], vec_y: dict[str, int], w_xx: int, w_yy: int) -> float:
    """One subnetwork's score, the one correctly rounded division of its `_ratio`, and 0 without paths."""
    numerator, denominator = _ratio(vec_x, vec_y, w_xx, w_yy)
    return numerator / denominator if denominator else 0.0


def simtap_beta(tan: TemporalActivityNetwork, x: str, y: str, now: int) -> float:
    """Path similarity of x and y within one subnetwork, in [0, 1]."""
    vec_x, vec_y = subnetwork_weights(tan, x, now), subnetwork_weights(tan, y, now)
    return _score(vec_x, vec_y, _self_weight(vec_x), _self_weight(vec_y))


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
    """Similarity for each pair, in input order, with every block scored on return.

    A list of pairs is made a `CandidateSet` first, by `of_pairs`.
    Characters whose weight vectors are equal in every subnetwork form
    one class. The members of each block get local class indices in
    order of first appearance, and `_row` scores each class up to the
    last that heads a run against the local classes from its own on,
    without walking the pairs. `workers` is ignored: the loop is serial.
    The keyword stays because `bench/replay.py` passes it.
    """
    if not isinstance(pairs, CandidateSet):
        pairs = CandidateSet.of_pairs(pairs)
    class_of: dict[str, int] = {}
    class_ids: dict[tuple, int] = {}
    profiles = []
    for character in chain.from_iterable(pairs.buckets):
        if character in class_of:
            continue
        vectors = tuple(neighbor_weight_vector(bundle, character, now).values())
        key = tuple(tuple(sorted(vec.items())) for vec in vectors)
        cls = class_ids.get(key)
        if cls is None:
            cls = class_ids[key] = len(profiles)
            profiles.append((vectors, tuple(map(_self_weight, vectors))))
        class_of[character] = cls
    # a block's runs come in order of position, so this is each block's last run's position
    last_head = dict(pairs.runs)
    blocks = []
    for b, members in enumerate(pairs.buckets):
        index: dict[int, int] = {}
        local = [index.setdefault(class_of[member], len(index)) for member in members]
        classes = list(index)
        # per subnetwork, each local class's weight vector and self-weight
        vectors, self_weights = (list(zip(*column)) for column in zip(*map(profiles.__getitem__, classes)))
        rows = [
            _row(profiles[classes[a]], vectors, self_weights, a, len(classes))
            for a in range(max(local[: last_head[b] + 1]) + 1)
        ]
        blocks.append(Block(classes, local, *zip(*rows)))
    return PairScores(pairs, blocks, profiles)


# an endless run of zeros, shared by every `map` that reads one
_ZEROS = repeat(0)


def _row(
    profile: tuple[tuple[dict[str, int], ...], tuple[int, ...]],
    vectors: list[tuple[dict[str, int], ...]],
    self_weights: list[tuple[int, ...]],
    start: int,
    size: int,
) -> tuple[list[str], list[float]]:
    """One class's texts and aggregates against a block's local classes from `start` on.

    `vectors[j]` and `self_weights[j]` hold every local class's weight
    vector and self-weight in subnetwork j. Only the class's active
    subnetworks are scored, each entity of its vector with one C-level
    `map` over the partners. A subnetwork
    the class is absent from scores +0.0 against everyone, so its column
    text is a literal `0.0000`. The aggregate sums the active scores in
    subnetwork order and divides by the number of subnetworks: the +0.0
    terms it skips change no float sum.
    """
    own_vectors, own_weights = profile
    width = len(own_weights)
    active: list[list[float]] = []
    formats = ["0.0000"] * width
    for j, own_weight in enumerate(own_weights):
        if not own_weight:
            continue
        # the first partner is the class itself, whose W_xy is its self-weight: it scores exactly 1
        column = [1.0]
        own, partners, weights = own_vectors[j], vectors[j][start + 1 :], self_weights[j][start + 1 :]
        # a positive self-weight means at least one entity, so `cross` is a list
        cross = None
        for entity, weight in own.items():
            terms = map(mul, map(dict.get, partners, repeat(entity), _ZEROS), repeat(2 * weight))
            cross = list(terms if cross is None else map(add, cross, terms))
        # 2 * W_xy / (W_xx + W_yy); the class's own self-weight is positive, so no denominator is 0
        column += map(truediv, cross, map(add, weights, repeat(own_weight)))
        active.append(column)
        formats[j] = "%.4f"
    if active:
        # `sum` of one score is that score
        totals = active[0] if len(active) == 1 else map(sum, zip(*active))
        aggregates = list(map(truediv, totals, repeat(width)))
    else:
        # no active subnetwork: the mean is 0, also over no subnetwork at all
        aggregates = [0.0] * (size - start)
    row_format = ",".join([*formats, "%.4f"]) + "\r\n"
    # "%.4f" renders a float exactly as f"{value:.4f}" does
    texts = list(map(row_format.__mod__, zip(*active, aggregates)))
    return texts, aggregates


# a float aggregate at most this far from theta is decided in exact arithmetic
_EXACT_BAND = 1e-9


def _reaches_exactly(
    profile_a: tuple[tuple[dict[str, int], ...], tuple[int, ...]],
    profile_b: tuple[tuple[dict[str, int], ...], tuple[int, ...]],
    theta: float,
) -> bool:
    """Whether two classes' exact mean of 2 * W_xy / (W_xx + W_yy) is at least `Fraction(str(theta))`."""
    # `fractions` loads `decimal`, so only an entry within the band imports it
    from fractions import Fraction

    (vectors_a, weights_a), (vectors_b, weights_b) = profile_a, profile_b
    # a subnetwork neither class is active in has no paths, and scores 0
    ratios = map(_ratio, vectors_a, vectors_b, weights_a, weights_b)
    total = sum(Fraction(*ratio) for ratio in ratios if ratio[1])
    # with no subnetwork the mean is 0, below every theta
    return bool(weights_a) and total >= len(weights_a) * Fraction(str(theta))


def group_by_threshold(results: PairScores, theta: float, now: int) -> RedundantGroupSet:
    """Union every pair whose class pair's exact mean score is at least theta.

    Theta is read as the decimal it prints as, `Fraction(str(theta))`,
    so 0.9 is 9/10, and a `Fraction` theta is read as itself. An entry
    whose float aggregate lies within `_EXACT_BAND` of theta is decided
    by the exact mean of its classes' integer weights, and every other
    entry by its float, whose error is far smaller than the band. A row
    whose largest aggregate is below theta and outside the band is
    skipped whole, so the runs are walked only when some block has an
    entry at theta, and then only that block's pairs are looked at.
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    profiles = results.profiles
    verdicts: dict[int, list[list[bool]]] = {}
    for b, block in enumerate(results.blocks):
        classes, rows = block.classes, block.aggregates
        # a row with no entry at theta, long enough to stand in for any row of the block
        upper, hit = [[False] * len(classes)] * len(rows), False
        for a, aggregates in enumerate(rows):
            top = max(aggregates)
            # the float test below, on the largest aggregate, rules out every entry of the row
            if top < theta and theta - top > _EXACT_BAND:
                continue
            reaches = list(map(ge, aggregates, repeat(theta)))
            for d, aggregate in enumerate(aggregates):
                if abs(aggregate - theta) <= _EXACT_BAND:
                    reaches[d] = _reaches_exactly(profiles[classes[a]], profiles[classes[a + d]], theta)
            if any(reaches):
                upper[a], hit = reaches, True
        if hit:
            verdicts[b] = upper
    dsu = UnionFind()
    if verdicts:
        pairs = results.pairs
        for b, i in pairs.runs:
            if b in verdicts:
                members, local = pairs.buckets[b], results.blocks[b].local
                reaches = _mirror(verdicts[b], local[i])
                partners, classes = pairs.later(b, i, members, local)
                for y in compress(partners, map(reaches.__getitem__, classes)):
                    dsu.union(members[i], y)
    return RedundantGroupSet(groups=dsu.groups(), theta=theta, now=now)


def threshold_groups(
    candidates: CandidateSet, bundle: NetworkBundle, theta: float, now: int
) -> RedundantGroupSet:
    """Confirmed duplicate groups among screened candidate pairs."""
    return group_by_threshold(similarity_for_pairs(bundle, candidates, now), theta, now)


# -- reports -----------------------------------------------------------------


def write_similarity_csv(bundle: NetworkBundle, results: PairScores, path: str | Path) -> None:
    """One row per pair, one column per subnetwork in declaration order.

    Every class pair's score columns were rendered by `_row`, so the
    pairs are written one run at a time without a Python step per pair:
    each row of a run starts with its character's `id,name,`, and the
    run is that head joined over a slice of its block's member heads,
    each followed by the text of its class in the mirrored row of the
    run's class.
    """
    fields = character_fields(bundle)
    pairs, blocks = results.pairs, results.blocks
    heads = [list(map(add, map(fields.__getitem__, members), repeat(","))) for members in pairs.buckets]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["x_id", "x_name", "y_id", "y_name", *bundle.relation_types(), "simtap"])
        for b, i in pairs.runs:
            line, local = heads[b], blocks[b].local
            head, row = line[i], _mirror(blocks[b].texts, local[i])
            partners, classes = pairs.later(b, i, line, local)
            fh.write(head + head.join(map(add, partners, map(row.__getitem__, classes))))


def write_groups_json(groups: RedundantGroupSet, path: str | Path) -> None:
    """The groups as JSON; a `Fraction` theta is written as its nearest float."""
    Path(path).write_text(json.dumps(groups.to_dict(), indent=2, default=float) + "\n", encoding="utf-8")
