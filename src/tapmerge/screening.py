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

Screening keeps the signature buckets themselves, not their pairs: a
bucket of n people holds n(n-1)/2 candidate pairs, so one popular paper
shared by thousands of people would otherwise fill memory with pairs
that the writers can generate again, in id order, from the buckets.
"""

from __future__ import annotations

import csv
from enum import Enum
from itertools import compress, groupby, repeat
from operator import add, itemgetter, ne
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

from .graph import GraphError, NetworkBundle, VertexKind


class NameFilter(Enum):
    """Which display-name relationship a screened pair must have."""

    OFF = "off"
    SAME_NAME = "same"
    DIFFERENT_NAME = "different"


class SubnetworkOverlap(NamedTuple):
    degree_x: int
    degree_y: int
    shared: int


class StructureError(NamedTuple):
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


class CandidateSet:
    """Unordered character pairs, kept as blocks of characters and the runs over them.

    A run is one character and the later members of its block that it
    pairs with; `runs` lists each as `(block, position)`, the
    character being `buckets[block][position]`, in the order the pairs
    come in. For `screen_candidates` each block is a signature bucket
    of two or more characters in id order, every pair inside it is a
    candidate, and the runs are in id order, so the pairs are sorted.
    `labels` is None unless the different-name filter applies; then
    `labels[block]` holds each member's display name, and a run skips
    the later members named like its character. `later` selects a
    run's partners, or the entries of any per-block lists that line up
    with them, with one name mask for all the lists. Iterating walks the
    runs again each time; `count` is the number of pairs. `bucket_count`
    and `largest_bucket` describe the signature buckets before any name
    filter, and are 0 for `of_pairs`.
    """

    def __init__(
        self,
        buckets: list[list[str]],
        runs: list[tuple[int, int]],
        labels: list[list[str]] | None,
        count: int,
        bucket_count: int,
        largest_bucket: int,
    ):
        self.buckets, self.runs, self.labels = buckets, runs, labels
        self.count, self.bucket_count, self.largest_bucket = count, bucket_count, largest_bucket

    @classmethod
    def of_pairs(cls, pairs: Sequence[tuple[str, str]]) -> CandidateSet:
        """`pairs` in their own order: one block `[x, *partners]` and one run per run of equal first members."""
        buckets = [[x, *map(itemgetter(1), run)] for x, run in groupby(pairs, itemgetter(0))]
        return cls(buckets, [(b, 0) for b in range(len(buckets))], None, len(pairs), 0, 0)

    def later(self, b: int, i: int, *lists: Sequence[Any]) -> list[Iterable[Any]]:
        """For each of `lists`, lists over block b's members, its entries that line up with run (b, i)'s partners.

        Under the different-name filter one mask, built once, selects from every list.
        """
        if self.labels is None:
            return [items[i + 1 :] for items in lists]
        names = self.labels[b]
        keep = list(map(ne, names[i + 1 :], repeat(names[i])))
        return [compress(items[i + 1 :], keep) for items in lists]

    def __iter__(self) -> Iterator[tuple[str, str]]:
        for b, i in self.runs:
            members = self.buckets[b]
            (partners,) = self.later(b, i, members)
            yield from zip(repeat(members[i]), partners)

    def pair_ids(self) -> list[tuple[str, str]]:
        return list(self)

    def __len__(self) -> int:
        return self.count


def _signature_buckets(bundle: NetworkBundle) -> list[list[str]]:
    """Characters grouped by equal (relation_type, entity) -> edge count maps.

    A character's signature is, for each subnetwork it has edges in, the
    relation type and the sorted entities of its edges there, repeats
    kept: two signatures are equal exactly when the count maps are. Each
    is built from the character's own edge lists, in id order, so no
    per-edge map is held. Members are in id order; zero-degree
    characters have an empty signature and join no bucket.
    """
    paths = [(tan.relation_type, tan._by_character) for tan in bundle.subnetworks()]
    entity = itemgetter(2)
    buckets: dict[tuple, list[str]] = {}
    for character in bundle.character_ids():
        signature = tuple([
            (beta, tuple(sorted(map(entity, path))))
            for beta, by_character in paths
            if (path := by_character.get(character))
        ])
        if signature:
            buckets.setdefault(signature, []).append(character)
    return list(buckets.values())


def _pair_count(buckets: list[list[str]]) -> int:
    return sum(len(members) * (len(members) - 1) // 2 for members in buckets)


def _id_ordered_runs(buckets: list[list[str]], labels: list[list[str]] | None) -> list[tuple[int, int]]:
    """Each bucketed character with a later member it pairs with, as `(bucket, position)`, in id order."""
    heads: dict[str, tuple[int, int]] = {}
    for b, members in enumerate(buckets):
        positions: Sequence[int] = range(len(members) - 1)
        if labels is not None:
            names = labels[b]
            # the members after `last` all have the last member's name, so a member
            # pairs with a later one exactly when it comes before `last` or is named otherwise
            last = max(j for j, name in enumerate(names) if name != names[-1])
            positions = [i for i in positions if i < last or names[i] != names[-1]]
        heads.update(zip(map(members.__getitem__, positions), zip(repeat(b), positions)))
    return [heads[x] for x in sorted(heads)]


def screen_candidates(bundle: NetworkBundle, name_filter: NameFilter = NameFilter.OFF) -> CandidateSet:
    """All unordered character pairs with structure error exactly zero.

    Characters are bucketed by their neighbor-count signature, all built
    in one pass over the edges; equal signatures coincide with the
    integer-exact zero test pair by pair, so each bucket contributes all
    of its internal pairs. Zero-degree characters never match (their
    error is defined as 1). The same-name filter splits each bucket
    into same-name sub-buckets; the different-name filter keeps the
    buckets of more than one name, with their names as labels, and
    skips the pairs those sub-buckets hold. The runs are listed here,
    once.
    """
    if not bundle.sealed:
        raise GraphError("bundle must be sealed before screening")
    signatures = _signature_buckets(bundle)
    buckets = [members for members in signatures if len(members) > 1]
    count, labels = _pair_count(buckets), None
    if name_filter is not NameFilter.OFF:
        labels = [[bundle.vertex(member).display_name for member in members] for members in buckets]
        same_name = []
        for members, names in zip(buckets, labels):
            by_name: dict[str, list[str]] = {}
            for member, name in zip(members, names):
                by_name.setdefault(name, []).append(member)
            same_name.extend(sub for sub in by_name.values() if len(sub) > 1)
        if name_filter is NameFilter.SAME_NAME:
            buckets, count, labels = same_name, _pair_count(same_name), None
        else:
            count -= _pair_count(same_name)
            # a bucket of one name holds no pair with different names
            named = [b for b, names in enumerate(labels) if len(set(names)) > 1]
            buckets, labels = [buckets[b] for b in named], [labels[b] for b in named]
    runs = _id_ordered_runs(buckets, labels)
    return CandidateSet(buckets, runs, labels, count, len(signatures), max(map(len, signatures), default=0))


# -- CSV rendering shared by the candidate and similarity writers ------------


class Memo(dict):
    """`memo[key]` is `compute(key)`, computed on first use and then kept."""

    def __init__(self, compute: Callable[[Hashable], Any]):
        super().__init__()
        self._compute = compute

    def __missing__(self, key: Hashable) -> Any:
        value = self[key] = self._compute(key)
        return value


class _Echo:
    """A file whose `write` returns its text, so `writerow` returns the rendered row."""

    @staticmethod
    def write(text: str) -> str:
        return text


_render_row = csv.writer(_Echo()).writerow


def csv_text(fields: tuple) -> str:
    """The CSV text of `fields`, without a line end.

    A default-dialect `csv.writer` renders them, and it quotes field by
    field, so the text equals those fields of any row it writes. Its
    `\\r\\n` line terminator is also what makes it quote a field holding
    `\\r` or `\\n`: rendering with `lineterminator=""` would not. The
    one exception is a lone empty field, which renders as `""`.
    """
    return _render_row(fields)[:-2]


def csv_fields(fields_of: Callable[[Hashable], tuple]) -> Memo:
    """`cache[key]` is `csv_text(fields_of(key))`, computed on first use."""
    return Memo(lambda key: csv_text(fields_of(key)))


def character_fields(bundle: NetworkBundle) -> Memo:
    """Each character's `id,name` CSV fields, rendered once, without a line end."""
    return csv_fields(lambda character: (character, bundle.vertex(character).display_name))


def write_candidates_csv(bundle: NetworkBundle, candidates: CandidateSet, path: str | Path) -> None:
    """One row per candidate pair, in id order, written one run at a time.

    A run's rows all start with its character's `id,name,`, and each
    member's row tail is rendered once per bucket, so a run is written
    as one string: that head joined over a slice of its bucket's tails.
    """
    fields = character_fields(bundle)
    # equal signatures give 2*shared == degree_x + degree_y, so every error is exactly 0.0
    tails = [list(map(add, map(fields.__getitem__, members), repeat(",0.0000\r\n"))) for members in candidates.buckets]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["x_id", "x_name", "y_id", "y_name", "structure_error"])
        for b, i in candidates.runs:
            head = fields[candidates.buckets[b][i]] + ","
            (partner_tails,) = candidates.later(b, i, tails[b])
            fh.write(head + head.join(partner_tails))
