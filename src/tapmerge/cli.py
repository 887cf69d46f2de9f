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
from dataclasses import dataclass
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


class ValidationFailure(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on, resolved up front."""

    command: str
    records: Path
    manifest: Path | None
    out: Path
    now: int | None
    theta: float | None
    name_filter: NameFilter
    strict: bool
    workers: int

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        config = cls(
            command=args.command,
            records=Path(args.records).resolve(),
            manifest=Path(args.manifest).resolve() if args.manifest else None,
            out=Path(args.out),
            now=args.now,
            theta=getattr(args, "theta", None),
            name_filter=NameFilter(args.name_filter),
            strict=args.strict,
            workers=args.workers,
        )
        if config.command == "dedupe":
            if config.theta is None:
                raise ValidationFailure("dedupe requires --theta")
            if not 0 < config.theta <= 1:
                raise ValidationFailure(f"--theta must be in (0, 1], got {config.theta}")
        if config.workers < 1:
            raise ValidationFailure(f"--workers must be at least 1, got {config.workers}")
        return config


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_inputs(config: RunConfig) -> tuple[NetworkBundle, LoadReport]:
    try:
        return load(config.records, config.manifest, strict=config.strict)
    except IngestError as exc:
        raise ValidationFailure(str(exc)) from exc


def _resolve_pair_token(bundle: NetworkBundle, token: str) -> str:
    if bundle.has_vertex(token):
        return token
    matches = [v.id for v in bundle.vertices(VertexKind.CHARACTER) if v.display_name == token]
    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        raise ValidationFailure(f"name {token!r} is ambiguous; candidates: {', '.join(sorted(matches))}")
    raise ValidationFailure(f"unknown vertex id or name: {token!r}")


def _write_run_manifest(config: RunConfig, out: Path, now: int, extra: dict) -> None:
    # deliberately excludes the worker count: it must not affect outputs
    doc = {
        "command": config.command,
        "inputs": {
            "records": {"path": str(config.records), "sha256": _sha256(config.records)},
            "manifest": (
                {"path": str(config.manifest), "sha256": _sha256(config.manifest)} if config.manifest else None
            ),
        },
        "now": now,
        "name_filter": config.name_filter.value,
        "strict": config.strict,
        "versions": {"tapmerge": __version__},
    }
    doc.update(extra)
    (out / "run_manifest.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _out_dir(config: RunConfig) -> Path:
    config.out.mkdir(parents=True, exist_ok=True)
    return config.out


def cmd_ingest(config: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    bundle, report = _load_inputs(config)
    (out / "load_report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    export(bundle, "graph-json", out / "graph.json")
    log.info(
        "loaded %d rows (%d rejected): %d vertices, %d edges",
        report.total_rows, len(report.rejected), bundle.vertex_count, bundle.edge_count,
    )
    return EXIT_OK


def cmd_screen(config: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    bundle, _ = _load_inputs(config)
    candidates = screen_candidates(bundle, config.name_filter)
    write_candidates_csv(bundle, candidates, out / "candidates.csv")
    log.info(
        "screened %d characters in %d signature buckets (largest %d): %d candidate pairs",
        len(bundle.character_ids()), candidates.bucket_count, candidates.largest_bucket, len(candidates),
    )
    return EXIT_OK


def cmd_simtap(config: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    bundle, _ = _load_inputs(config)
    now = resolve_now(bundle, config.now)
    if args.pair:
        tokens = args.pair.split(",")
        if len(tokens) != 2:
            raise ValidationFailure("--pair wants exactly two comma-separated ids or names")
        pairs = [(_resolve_pair_token(bundle, tokens[0].strip()), _resolve_pair_token(bundle, tokens[1].strip()))]
    else:
        pairs = screen_candidates(bundle, config.name_filter).pair_ids()
    results = similarity_for_pairs(bundle, pairs, now, workers=config.workers)
    write_similarity_csv(bundle, results, out / "similarity.csv")
    log.info("similarity for %d pairs at now=%d", len(results), now)
    return EXIT_OK


def cmd_dedupe(config: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    bundle, report = _load_inputs(config)
    now = resolve_now(bundle, config.now)

    candidates = screen_candidates(bundle, config.name_filter)
    write_candidates_csv(bundle, candidates, out / "candidates.csv")

    results = similarity_for_pairs(bundle, candidates.pair_ids(), now, workers=config.workers)
    write_similarity_csv(bundle, results, out / "similarity.csv")

    groups = group_by_threshold(results, config.theta, now)
    write_groups_json(groups, out / "groups.json")

    plan = plan_merge(bundle, groups.groups)
    merged = apply_merge(bundle, plan)
    verification = verify_merge(bundle, merged.bundle, plan)
    if not verification.ok:
        for violation in verification.violations:
            log.error("merge verification: %s (%s)", violation.kind, violation.detail)
        raise ValidationFailure("merge verification failed")

    export(merged.bundle, "records-csv", out / "merged_records.csv")
    export(merged.bundle, "graph-json", out / "merged_graph.json")
    write_merge_audit(merged.audit, out / "merge_audit.json")
    (out / "load_report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    _write_run_manifest(config, out, now, {"theta": config.theta})
    log.info(
        "dedupe: %d signature buckets (largest %d), %d candidates, %d groups, "
        "removed %d vertices (dropped %d, transferred %d edges)",
        candidates.bucket_count, candidates.largest_bucket, len(candidates), len(groups.groups),
        merged.audit.removed_vertices,
        merged.audit.dropped_edges, merged.audit.transferred_edges,
    )
    return EXIT_OK


def cmd_export(config: RunConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    bundle, _ = _load_inputs(config)
    suffix = {"records-csv": "records.csv", "graph-json": "graph.json", "dot": "graph.dot"}[args.format]
    export(bundle, args.format, out / suffix)
    log.info("exported %s to %s", args.format, out / suffix)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tapmerge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tapmerge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--records", required=True, help="activity records CSV")
        p.add_argument("--manifest", default=None, help="dataset manifest JSON")
        p.add_argument("--out", required=True, help="output directory")
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
        config = RunConfig.from_args(args)
        return args.func(config, args)
    except ValidationFailure as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    except (GraphError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
