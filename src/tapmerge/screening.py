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
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from pathlib import Path
from typing import Callable, Hashable, Iterable

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


@dataclass
class CandidateSet:
    """Unordered character pairs with structure error zero, sorted by id."""

    ids: list[tuple[str, str]]
    bucket_count: int
    largest_bucket: int

    def pair_ids(self) -> list[tuple[str, str]]:
        return list(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def _signature_buckets(bundle: NetworkBundle) -> list[list[str]]:
    """Characters grouped by equal (relation_type, entity) -> edge count maps.

    One pass over the edges builds every character's map; each map is
    dropped once its signature is built. Members are in id order;
    zero-degree characters have no map and join no bucket.
    """
    counts: dict[str, dict[tuple[str, str], int]] = {}
    for edge in bundle.edges():
        own = counts.get(edge.character)
        if own is None:
            own = counts[edge.character] = {}
        key = (edge.relation_type, edge.entity)
        own[key] = own.get(key, 0) + 1
    buckets: dict[frozenset, list[str]] = {}
    for character in bundle.character_ids():
        own = counts.pop(character, None)
        if own is not None:
            buckets.setdefault(frozenset(own.items()), []).append(character)
    return list(buckets.values())


def _bucket_pairs(bundle: NetworkBundle, members: list[str], name_filter: NameFilter) -> Iterable[tuple[str, str]]:
    """The bucket's pairs that pass the name filter, in id order."""
    pairs = combinations(members, 2)
    if name_filter is NameFilter.OFF:
        return pairs
    same = name_filter is NameFilter.SAME_NAME
    names = {member: bundle.vertex(member).display_name for member in members}
    return ((x, y) for x, y in pairs if (names[x] == names[y]) is same)


def screen_candidates(bundle: NetworkBundle, name_filter: NameFilter = NameFilter.OFF) -> CandidateSet:
    """All unordered character pairs with structure error exactly zero.

    Characters are bucketed by their neighbor-count signature, all built
    in one pass over the edges; equal signatures coincide with the
    integer-exact zero test pair by pair, so each bucket contributes all
    of its internal pairs. Zero-degree characters never match (their
    error is defined as 1).
    """
    if not bundle.sealed:
        raise GraphError("bundle must be sealed before screening")
    buckets = _signature_buckets(bundle)
    ids: list[tuple[str, str]] = []
    for members in buckets:
        if len(members) > 1:
            ids.extend(_bucket_pairs(bundle, members, name_filter))
    ids.sort()
    return CandidateSet(ids, len(buckets), max(map(len, buckets), default=0))


# -- CSV rendering shared by the candidate and similarity writers ------------


class RenderCache(dict):
    """`cache[key]` is `render(key)`, computed on first use and then kept."""

    def __init__(self, render: Callable[[Hashable], str]):
        super().__init__()
        self._render = render

    def __missing__(self, key: Hashable) -> str:
        text = self[key] = self._render(key)
        return text


class _Echo:
    """A file whose `write` returns its text, so `writerow` returns the rendered row."""

    @staticmethod
    def write(text: str) -> str:
        return text


def csv_fields(fields_of: Callable[[Hashable], tuple]) -> RenderCache:
    """`cache[key]` is the CSV text of the fields `fields_of(key)`, without a line end.

    A default-dialect `csv.writer` renders them, and it quotes field by
    field, so the text equals those fields of any row it writes. Its
    `\\r\\n` line terminator is also what makes it quote a field holding
    `\\r` or `\\n`: rendering with `lineterminator=""` would not. The
    one exception is a lone empty field, which renders as `""`.
    """
    writerow = csv.writer(_Echo()).writerow
    return RenderCache(lambda key: writerow(fields_of(key))[:-2])


def character_fields(bundle: NetworkBundle) -> RenderCache:
    """Each character's `id,name` CSV fields, rendered once, without a line end."""
    return csv_fields(lambda character: (character, bundle.vertex(character).display_name))


def fixed4() -> RenderCache:
    """Floats as `f"{value:.4f}"`, formatted once per distinct value.

    Keys compare as floats, so `-0.0` would get the text of `0.0`; no
    structure error or similarity score is negative.
    """
    return RenderCache("{:.4f}".format)


def write_candidates_csv(bundle: NetworkBundle, candidates: CandidateSet, path: str | Path) -> None:
    fields = character_fields(bundle)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["x_id", "x_name", "y_id", "y_name", "structure_error"])
        # equal signatures give 2*shared == degree_x + degree_y, so every error is exactly 0.0
        fh.writelines(f"{fields[x]},{fields[y]},0.0000\r\n" for x, y in candidates.ids)
