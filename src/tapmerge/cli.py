"""Command-line pipeline: ingest -> screen -> simtap -> dedupe -> export.

Every parameter the method leaves open (the `now` anchor, the threshold
theta, the name filter) is an explicit flag and is recorded in the run
manifest, so a run can be replayed from its outputs. Logs go to stderr;
data only ever goes to files. Exit codes: 0 success, 1 validation
failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .graph import GraphError, NetworkBundle, VertexKind
from .ingest import EXPORT_FORMATS, IngestError, LoadReport, export, load
from .merge import apply_merge, plan_merge, verify_merge, write_merge_audit
from .screening import NameFilter, screen_candidates, write_candidates_csv
from .similarity import (
    group_by_threshold,
    resolve_now,
    similarity_for_pairs,
    write_groups_json,
    write_similarity_csv,
)

log = logging.getLogger("tapmerge")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _load(args: argparse.Namespace) -> tuple[NetworkBundle, LoadReport]:
    """Create the output directory, then load the records and the manifest."""
    args.out.mkdir(parents=True, exist_ok=True)
    return load(args.records, args.manifest, strict=args.strict)


def _resolve_pair_token(bundle: NetworkBundle, token: str) -> str:
    if bundle.has_vertex(token):
        return token
    matches = [v.id for v in bundle.vertices(VertexKind.CHARACTER) if v.display_name == token]
    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        raise ValueError(f"name {token!r} is ambiguous; candidates: {', '.join(sorted(matches))}")
    raise ValueError(f"unknown vertex id or name: {token!r}")


def cmd_ingest(args: argparse.Namespace) -> int:
    bundle, report = _load(args)
    _write_json(args.out / "load_report.json", report.to_dict())
    export(bundle, "graph-json", args.out / "graph.json")
    log.info(
        "loaded %d rows (%d rejected): %d vertices, %d edges",
        report.total_rows, len(report.rejected), bundle.vertex_count, bundle.edge_count,
    )
    return EXIT_OK


def cmd_screen(args: argparse.Namespace) -> int:
    bundle, _ = _load(args)
    candidates = screen_candidates(bundle, NameFilter(args.name_filter))
    write_candidates_csv(bundle, candidates, args.out / "candidates.csv")
    log.info(
        "screened %d characters in %d signature buckets (largest %d): %d candidate pairs",
        len(bundle.character_ids()), candidates.bucket_count, candidates.largest_bucket, len(candidates),
    )
    return EXIT_OK


def cmd_simtap(args: argparse.Namespace) -> int:
    bundle, _ = _load(args)
    now = resolve_now(bundle, args.now)
    if args.pair:
        tokens = args.pair.split(",")
        if len(tokens) != 2:
            raise ValueError("--pair wants exactly two comma-separated ids or names")
        pairs = [(_resolve_pair_token(bundle, tokens[0].strip()), _resolve_pair_token(bundle, tokens[1].strip()))]
    else:
        pairs = screen_candidates(bundle, NameFilter(args.name_filter)).pair_ids()
    results = similarity_for_pairs(bundle, pairs, now)
    write_similarity_csv(bundle, results, args.out / "similarity.csv")
    log.info("similarity for %d pairs at now=%d", len(results), now)
    return EXIT_OK


def cmd_dedupe(args: argparse.Namespace) -> int:
    out = args.out
    bundle, report = _load(args)
    now = resolve_now(bundle, args.now)

    candidates = screen_candidates(bundle, NameFilter(args.name_filter))
    write_candidates_csv(bundle, candidates, out / "candidates.csv")

    results = similarity_for_pairs(bundle, candidates.pair_ids(), now)
    write_similarity_csv(bundle, results, out / "similarity.csv")

    groups = group_by_threshold(results, args.theta, now)
    write_groups_json(groups, out / "groups.json")

    plan = plan_merge(bundle, groups.groups)
    merged = apply_merge(bundle, plan)
    verification = verify_merge(bundle, merged.bundle, plan)
    if not verification.ok:
        for violation in verification.violations:
            log.error("merge verification: %s (%s)", violation.kind, violation.detail)
        raise ValueError("merge verification failed")

    export(merged.bundle, "records-csv", out / "merged_records.csv")
    export(merged.bundle, "graph-json", out / "merged_graph.json")
    write_merge_audit(merged.audit, out / "merge_audit.json")
    _write_json(out / "load_report.json", report.to_dict())
    # deliberately excludes the worker count: it must not affect outputs
    _write_json(
        out / "run_manifest.json",
        {
            "command": args.command,
            "inputs": {
                "records": {"path": str(args.records), "sha256": _sha256(args.records)},
                "manifest": (
                    {"path": str(args.manifest), "sha256": _sha256(args.manifest)} if args.manifest else None
                ),
            },
            "now": now,
            "name_filter": args.name_filter,
            "strict": args.strict,
            "versions": {"tapmerge": __version__},
            "theta": args.theta,
        },
    )
    log.info(
        "dedupe: %d signature buckets (largest %d), %d candidates, %d groups, "
        "removed %d vertices (dropped %d, transferred %d edges)",
        candidates.bucket_count, candidates.largest_bucket, len(candidates), len(groups.groups),
        merged.audit.removed_vertices,
        merged.audit.dropped_edges, merged.audit.transferred_edges,
    )
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    bundle, _ = _load(args)
    path = args.out / {"records-csv": "records.csv", "graph-json": "graph.json", "dot": "graph.dot"}[args.format]
    export(bundle, args.format, path)
    log.info("exported %s to %s", args.format, path)
    return EXIT_OK


def _absolute(path: str) -> Path:
    return Path(path).resolve()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tapmerge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tapmerge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--records", type=_absolute, required=True, help="activity records CSV")
        p.add_argument("--manifest", type=_absolute, default=None, help="dataset manifest JSON")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--strict", action="store_true", help="malformed or undeclared rows are fatal")
        p.add_argument("--now", type=int, default=None, help="time anchor (default: latest end time)")
        p.add_argument(
            "--name-filter", choices=[f.value for f in NameFilter], default=NameFilter.OFF.value,
            help="restrict screening to same-name or different-name pairs",
        )
        p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no effect")

    p_ingest = sub.add_parser("ingest", help="load and validate records, write the load report")
    common(p_ingest)
    p_ingest.set_defaults(func=cmd_ingest)

    p_screen = sub.add_parser("screen", help="write structure-error candidate pairs")
    common(p_screen)
    p_screen.set_defaults(func=cmd_screen)

    p_simtap = sub.add_parser("simtap", help="write path similarity for candidates or one pair")
    common(p_simtap)
    p_simtap.add_argument("--pair", default=None, help="comma-separated vertex ids or names")
    p_simtap.set_defaults(func=cmd_simtap)

    p_dedupe = sub.add_parser("dedupe", help="full pipeline: screen, confirm, merge")
    common(p_dedupe)
    p_dedupe.add_argument("--theta", type=float, default=None, help="similarity threshold in (0, 1]")
    p_dedupe.set_defaults(func=cmd_dedupe)

    p_export = sub.add_parser("export", help="re-emit the loaded bundle in another format")
    common(p_export)
    p_export.add_argument("--format", choices=EXPORT_FORMATS, required=True)
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every flag is checked before --out is created or any file is read
        if args.command == "dedupe":
            if args.theta is None:
                raise ValueError("dedupe requires --theta")
            if not 0 < args.theta <= 1:
                raise ValueError(f"--theta must be in (0, 1], got {args.theta}")
        if args.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except (IngestError, GraphError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
