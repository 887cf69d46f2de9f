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

All accumulation is exact integer arithmetic; the single final division
is the only float operation, so results are bit-reproducible.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .graph import GraphError, NetworkBundle, TemporalActivityNetwork, TemporalEdge, VertexKind
from .screening import CandidateSet, character_fields, fixed4
from .unionfind import UnionFind


class FutureEdgeError(GraphError):
    """An edge starts after the chosen `now` anchor."""


@dataclass(frozen=True)
class TapPath:
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


@dataclass
class RedundantGroupSet:
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


def edge_weight(edge: TemporalEdge, now: int) -> int:
    if edge.interval.start > now:
        raise FutureEdgeError(
            f"edge {edge.relation_id} starts at {edge.interval.start}, after now={now}"
        )
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
    """Explicit anchor if given, else the latest end time in the bundle."""
    if now is not None:
        return now
    latest = bundle.max_end()
    if latest is None:
        raise GraphError("cannot infer `now` from a bundle with no edges; pass it explicitly")
    return latest


# -- batch computation -------------------------------------------------------


def similarity_for_pairs(
    bundle: NetworkBundle,
    pairs: Sequence[tuple[str, str]],
    now: int,
    workers: int = 1,
) -> list[SimilarityResult]:
    """Similarity for each pair, in input order.

    Each character's weight vectors and self-weights are computed once
    and shared by all of its pairs. A subnetwork where either self-weight
    is 0 scores 0.0 without a dot product: edge weights are positive, so
    that character has no entity there to share. `workers` is ignored:
    the loop is serial. The keyword stays because `bench/replay.py`
    passes it.
    """
    relation_types = bundle.relation_types()
    profiles = {}
    for character in sorted({c for pair in pairs for c in pair}):
        vectors = neighbor_weight_vector(bundle, character, now)
        profiles[character] = [(vectors[beta], _self_weight(vectors[beta])) for beta in relation_types]

    results = []
    for x, y in pairs:
        scores = tuple(
            _similarity(vec_x, vec_y, w_xx, w_yy) if w_xx and w_yy else 0.0
            for (vec_x, w_xx), (vec_y, w_yy) in zip(profiles[x], profiles[y])
        )
        results.append(SimilarityResult(x, y, scores, combine_subnetwork_scores(scores)))
    return results


def group_by_threshold(results: Iterable[SimilarityResult], theta: float, now: int) -> RedundantGroupSet:
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    dsu = UnionFind()
    for result in results:
        if result.aggregate >= theta:
            dsu.union(result.x, result.y)
    return RedundantGroupSet(groups=dsu.groups(), theta=theta, now=now)


def threshold_groups(
    candidates: CandidateSet, bundle: NetworkBundle, theta: float, now: int
) -> RedundantGroupSet:
    """Confirmed duplicate groups among screened candidate pairs."""
    return group_by_threshold(similarity_for_pairs(bundle, candidates.pair_ids(), now), theta, now)


# -- reports -----------------------------------------------------------------


def write_similarity_csv(
    bundle: NetworkBundle, results: Sequence[SimilarityResult], path: str | Path
) -> None:
    """One row per pair, one column per subnetwork in declaration order."""
    fields, fixed = character_fields(bundle), fixed4()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["x_id", "x_name", "y_id", "y_name", *bundle.relation_types(), "simtap"])
        for x, y, scores, aggregate in results:
            fh.write(",".join([fields[x], fields[y], *[fixed[s] for s in scores], fixed[aggregate]]) + "\r\n")


def write_groups_json(groups: RedundantGroupSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(groups.to_dict(), indent=2) + "\n", encoding="utf-8")
