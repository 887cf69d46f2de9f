"""Pairwise structure error and candidate screening.

Two characters have structure error zero exactly when they hold the same
number of edges to the same entities in every subnetwork; intervals are
deliberately ignored at this stage. The realized measure is one minus
the Dice overlap of per-entity edge counts,

    error = 1 - 2 * shared / (degree_x + degree_y)

with shared = sum over (subnetwork, entity) of min(count_x, count_y).
Two characters with no edges at all score 1 (maximally dissimilar), not
0: an empty history is no evidence of sameness.

The zero test itself is integer-exact (2 * shared == degree_x +
degree_y); floats only appear in the reported value.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .graph import GraphError, NetworkBundle, VertexKind


class NameFilter(Enum):
    """Which display-name relationship a screened pair must have."""

    OFF = "off"
    SAME_NAME = "same"
    DIFFERENT_NAME = "different"


@dataclass(frozen=True)
class SubnetworkOverlap:
    degree_x: int
    degree_y: int
    shared: int


@dataclass(frozen=True)
class StructureError:
    x: str
    y: str
    value: float
    degree_x: int
    degree_y: int
    shared: int
    per_relation_type: dict[str, SubnetworkOverlap]

    @property
    def is_zero(self) -> bool:
        """Integer-exact zero test; requires at least one edge somewhere."""
        total = self.degree_x + self.degree_y
        return total > 0 and 2 * self.shared == total


def _neighbor_signature(bundle: NetworkBundle, character: str) -> tuple[tuple[str, str, int], ...]:
    """Canonical (relation_type, entity, count) multiset of a character."""
    items = []
    for beta in bundle.relation_types():
        for entity, count in bundle.neighbor_counts(character, beta).items():
            items.append((beta, entity, count))
    return tuple(sorted(items))


def structure_error(bundle: NetworkBundle, x: str, y: str) -> StructureError:
    if x == y:
        raise GraphError("structure error is defined for distinct characters only")
    for vid in (x, y):
        if bundle.vertex(vid).kind is not VertexKind.CHARACTER:
            raise GraphError(f"{vid!r} is not a character vertex")

    per_beta: dict[str, SubnetworkOverlap] = {}
    degree_x = degree_y = shared = 0
    for beta in bundle.relation_types():
        counts_x = bundle.neighbor_counts(x, beta)
        counts_y = bundle.neighbor_counts(y, beta)
        dx = sum(counts_x.values())
        dy = sum(counts_y.values())
        sh = sum(min(n, counts_y.get(entity, 0)) for entity, n in counts_x.items())
        per_beta[beta] = SubnetworkOverlap(dx, dy, sh)
        degree_x += dx
        degree_y += dy
        shared += sh

    total = degree_x + degree_y
    value = 1.0 if total == 0 else 1.0 - (2.0 * shared) / total
    return StructureError(x, y, value, degree_x, degree_y, shared, per_beta)


@dataclass(frozen=True)
class CandidatePair:
    x: str
    y: str
    error: StructureError


@dataclass
class CandidateSet:
    """Unordered character pairs with structure error zero, sorted by id."""

    pairs: list[CandidatePair]
    name_filter: NameFilter

    def pair_ids(self) -> list[tuple[str, str]]:
        return [(p.x, p.y) for p in self.pairs]

    def __len__(self) -> int:
        return len(self.pairs)


def _passes_name_filter(bundle: NetworkBundle, x: str, y: str, name_filter: NameFilter) -> bool:
    if name_filter is NameFilter.OFF:
        return True
    same = bundle.vertex(x).display_name == bundle.vertex(y).display_name
    return same if name_filter is NameFilter.SAME_NAME else not same


def screen_candidates(bundle: NetworkBundle, name_filter: NameFilter = NameFilter.OFF) -> CandidateSet:
    """All unordered character pairs with structure error exactly zero.

    Characters are bucketed by their neighbor-count signature, which
    coincides with the integer-exact zero test pair by pair; each bucket
    then contributes all of its internal pairs. Members of a bucket have
    equal neighbor counts, so every pair in it has the same structure
    error, computed once per bucket. Zero-degree characters never match
    (their error is defined as 1).
    """
    if not bundle.sealed:
        raise GraphError("bundle must be sealed before screening")
    buckets: dict[tuple, list[str]] = {}
    for character in bundle.character_ids():
        signature = _neighbor_signature(bundle, character)
        if not signature:
            continue
        buckets.setdefault(signature, []).append(character)

    pairs: list[CandidatePair] = []
    for members in buckets.values():
        if len(members) < 2:
            continue
        error = structure_error(bundle, members[0], members[1])
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                if _passes_name_filter(bundle, x, y, name_filter):
                    pairs.append(CandidatePair(x, y, replace(error, x=x, y=y)))
    pairs.sort(key=lambda p: (p.x, p.y))
    return CandidateSet(pairs=pairs, name_filter=name_filter)


def write_candidates_csv(bundle: NetworkBundle, candidates: CandidateSet, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_id", "x_name", "y_id", "y_name", "structure_error"])
        for pair in candidates.pairs:
            writer.writerow(
                [
                    pair.x,
                    bundle.vertex(pair.x).display_name,
                    pair.y,
                    bundle.vertex(pair.y).display_name,
                    f"{pair.error.value:.4f}",
                ]
            )

