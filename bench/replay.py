"""Traced replay of `tapmerge dedupe`, timed from outside the package.

`replay_dedupe` makes the same sequence of public calls as
`tapmerge.cli.cmd_dedupe` and wraps each one in a span. It writes the
same data files, so the benchmark can check byte for byte that the
traced program is the program the CLI runs. Run-manifest and
load-report writes are not replayed: with input hashing they make up
the CLI's unattributed time.

A span's self time is its duration minus the part of it that its child
spans cover. The root span `dedupe` has one child per call, so its self
time is the harness's own cost between calls.

run.py starts this file as a process of its own, like the CLI, with
`src/` on PYTHONPATH:

    python3 bench/replay.py --records R --manifest M --out DIR --theta 0.8 \
        --now 2014 --workers 1 --trace 1 --spans spans.json [--memory]
"""

from __future__ import annotations

import argparse
import csv
import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from tapmerge import DatasetManifest, TransactionRecord, export, load, load_records
from tapmerge.merge import apply_merge, plan_merge, verify_merge, write_merge_audit
from tapmerge.screening import NameFilter, screen_candidates, write_candidates_csv
from tapmerge.similarity import (
    group_by_threshold,
    resolve_now,
    similarity_for_pairs,
    write_groups_json,
    write_similarity_csv,
)

# data files both the CLI and the replay write; they must match byte for byte
DATA_FILES = (
    "candidates.csv",
    "similarity.csv",
    "groups.json",
    "merged_records.csv",
    "merged_graph.json",
    "merge_audit.json",
)

# per-layer time metrics, each the sum of these spans
LAYER_SPANS = {
    "ingest.load_s": ("ingest.load",),
    "ingest.export_s": ("ingest.export_records", "ingest.export_graph"),
    "graph.build_s": ("graph.build",),
    "screening.screen_s": ("screening.screen",),
    "screening.write_s": ("screening.write",),
    "similarity.score_s": ("similarity.resolve_now", "similarity.score"),
    "similarity.write_s": ("similarity.write", "similarity.write_groups"),
    "unionfind.group_s": ("unionfind.group",),
    "merge.plan_s": ("merge.plan",),
    "merge.apply_s": ("merge.apply",),
    "merge.verify_s": ("merge.verify",),
    "merge.write_s": ("merge.write_audit",),
}

# per-layer memory metrics, each the largest peak among these spans
LAYER_PEAKS = {
    "screening.peak_mb": ("screening.screen", "screening.write"),
    "similarity.peak_mb": (
        "similarity.resolve_now", "similarity.score", "similarity.write", "similarity.write_groups",
    ),
    "merge.peak_mb": ("merge.plan", "merge.apply", "merge.verify", "merge.write_audit"),
}


@dataclass
class Span:
    trace: int
    name: str
    parent: str | None
    start: float
    end: float
    # bytes the call allocated at its peak above what was live when it
    # started; only recorded when tracemalloc is on
    peak_bytes: int | None = None


@dataclass
class Tracer:
    """Keeps spans in memory; leaf spans optionally record peak memory."""

    trace: int
    memory: bool = False
    spans: list[Span] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, parent: str | None = "dedupe", leaf: bool = True):
        record_peak = self.memory and leaf
        if record_peak:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            peak = tracemalloc.get_traced_memory()[1] - live if record_peak else None
            self.spans.append(Span(self.trace, name, parent, start, end, peak))


def _signature_buckets(bundle) -> list[int]:
    """Sizes of the structure-signature buckets, from the public API."""
    buckets: dict[tuple, int] = {}
    for character in bundle.character_ids():
        signature = tuple(
            sorted(
                (beta, entity, count)
                for beta in bundle.relation_types()
                for entity, count in bundle.neighbor_counts(character, beta).items()
            )
        )
        if signature:
            buckets[signature] = buckets.get(signature, 0) + 1
    return list(buckets.values())


def _parse_records(records: Path) -> list[TransactionRecord]:
    """The benchmark's own parse, so `load_records` can be timed alone."""
    with open(records, newline="", encoding="utf-8") as fh:
        return [
            TransactionRecord(
                character_name=row["character_name"],
                entity_name=row["entity_name"],
                entity_type=row["entity_type"],
                relation_type=row["relation_type"],
                start=int(row["start"]),
                end=int(row["end"]),
                character_id=row["character_id"] or None,
            )
            for row in csv.DictReader(fh)
        ]


def replay_dedupe(
    records: Path,
    manifest: Path,
    out: Path,
    theta: float,
    now: int,
    workers: int,
    trace: int,
    memory: bool = False,
) -> tuple[list[Span], dict]:
    """Run the dedupe pipeline call by call; return its spans and counts."""
    out.mkdir(parents=True, exist_ok=True)
    tr = Tracer(trace, memory)
    with tr.span("dedupe", parent=None, leaf=False):
        with tr.span("ingest.load"):
            bundle, report = load(records, manifest)
        with tr.span("similarity.resolve_now"):
            now = resolve_now(bundle, now)
        with tr.span("screening.screen"):
            candidates = screen_candidates(bundle, NameFilter.OFF)
        with tr.span("screening.write"):
            write_candidates_csv(bundle, candidates, out / "candidates.csv")
        with tr.span("similarity.score"):
            results = similarity_for_pairs(bundle, candidates.pair_ids(), now, workers=workers)
        with tr.span("similarity.write"):
            write_similarity_csv(bundle, results, out / "similarity.csv")
        with tr.span("unionfind.group"):
            groups = group_by_threshold(results, theta, now)
        with tr.span("similarity.write_groups"):
            write_groups_json(groups, out / "groups.json")
        with tr.span("merge.plan"):
            plan = plan_merge(bundle, groups.groups)
        with tr.span("merge.apply"):
            merged = apply_merge(bundle, plan)
        with tr.span("merge.verify"):
            verification = verify_merge(bundle, merged.bundle, plan)
        with tr.span("ingest.export_records"):
            export(merged.bundle, "records-csv", out / "merged_records.csv")
        with tr.span("ingest.export_graph"):
            export(merged.bundle, "graph-json", out / "merged_graph.json")
        with tr.span("merge.write_audit"):
            write_merge_audit(merged.audit, out / "merge_audit.json")

    # graph construction alone, on records parsed outside any span; it is a
    # root of its own because `load` above already includes it
    parsed = _parse_records(records)
    parsed_manifest = DatasetManifest.from_json(manifest)
    with tr.span("graph.build", parent=None):
        rebuilt = load_records(parsed, parsed_manifest)
    if (rebuilt.vertex_count, rebuilt.edge_count) != (bundle.vertex_count, bundle.edge_count):
        raise RuntimeError("the benchmark's own parse built a different graph than `load`")

    buckets = _signature_buckets(bundle)
    confirmed = sum(1 for r in results if r.aggregate >= theta)
    counts = {
        "ingest.rows": report.total_rows,
        "ingest.rows_rejected": len(report.rejected),
        "graph.vertices": rebuilt.vertex_count,
        "graph.edges": rebuilt.edge_count,
        "screening.characters": len(bundle.character_ids()),
        "screening.buckets": len(buckets),
        "screening.largest_bucket": max(buckets, default=0),
        "screening.candidate_pairs": len(candidates),
        "similarity.pairs_scored": len(results),
        "similarity.pairs_confirmed": confirmed,
        "similarity.confirm_ratio": confirmed / len(results) if results else 0.0,
        "unionfind.groups": len(groups.groups),
        "unionfind.largest_group": max((len(g) for g in groups.groups), default=0),
        "merge.removed_vertices": merged.audit.removed_vertices,
        "merge.edges_dropped": merged.audit.dropped_edges,
        "merge.edges_transferred": merged.audit.transferred_edges,
        "merge.verify_violations": len(verification.violations),
    }
    return tr.spans, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--records", type=Path, required=True)
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--theta", type=float, required=True)
    parser.add_argument("--now", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, help="identifier shared by this replay's spans")
    parser.add_argument("--spans", type=Path, required=True, help="where to write the spans and counts")
    parser.add_argument("--memory", action="store_true", help="record each call's peak with tracemalloc")
    args = parser.parse_args(argv)
    if args.memory:
        tracemalloc.start()
    spans, counts = replay_dedupe(
        args.records, args.manifest, args.out, args.theta, args.now, args.workers,
        trace=args.trace, memory=args.memory,
    )
    doc = {"spans": [asdict(span) for span in spans], "counts": counts}
    args.spans.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
