"""Command-line pipeline: ingest -> screen -> simtap -> dedupe -> export.

Every parameter the method leaves open (the `now` anchor, the threshold
theta, the name filter) is an explicit flag and is recorded in the run
manifest, so a run can be replayed from its outputs. Logs go to stderr;
data only ever goes to files. Exit codes: 0 success, 1 validation
failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import sys
from pathlib import Path
from typing import Callable

# only what loading, the parser and the exit codes need; `merge` and `similarity` are
# imported by the commands that run them, so `--version` and `--help` skip both
from . import __version__
from .graph import GraphError, NetworkBundle, VertexKind
from .ingest import EXPORT_FORMATS, IngestError, LoadReport, export, load
from .screening import NameFilter, screen_candidates, write_candidates_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _sha256(path: Path) -> str:
    import hashlib  # only `dedupe` hashes, and only its input files

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _log():
    """The `tapmerge` logger; `logging` is imported here and in `main`, so `--version` and `--help` skip it."""
    import logging

    return logging.getLogger("tapmerge")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _load(args: argparse.Namespace) -> tuple[NetworkBundle, LoadReport]:
    """Load the records and the manifest, then create the output directory.

    An input that cannot be read or parsed leaves no `--out` behind.
    """
    loaded = load(args.records, args.manifest, strict=args.strict)
    args.out.mkdir(parents=True, exist_ok=True)
    return loaded


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
    _log().info(
        "loaded %d rows (%d rejected): %d vertices, %d edges",
        report.total_rows, len(report.rejected), bundle.vertex_count, bundle.edge_count,
    )
    return EXIT_OK


def cmd_screen(args: argparse.Namespace) -> int:
    bundle, _ = _load(args)
    candidates = screen_candidates(bundle, NameFilter(args.name_filter))
    write_candidates_csv(bundle, candidates, args.out / "candidates.csv")
    _log().info(
        "screened %d characters in %d signature buckets (largest %d): %d candidate pairs",
        len(bundle.character_ids()), candidates.bucket_count, candidates.largest_bucket, len(candidates),
    )
    return EXIT_OK


def cmd_simtap(args: argparse.Namespace) -> int:
    from .similarity import resolve_now, similarity_for_pairs, write_similarity_csv

    bundle, _ = _load(args)
    now = resolve_now(bundle, args.now)
    if args.pair:
        tokens = args.pair.split(",")
        if len(tokens) != 2:
            raise ValueError("--pair wants exactly two comma-separated ids or names")
        pairs = [(_resolve_pair_token(bundle, tokens[0].strip()), _resolve_pair_token(bundle, tokens[1].strip()))]
    else:
        pairs = screen_candidates(bundle, NameFilter(args.name_filter))
    results = similarity_for_pairs(bundle, pairs, now)
    write_similarity_csv(bundle, results, args.out / "similarity.csv")
    _log().info("similarity for %d pairs at now=%d, %d class pairs scored", len(results), now, results.scored)
    return EXIT_OK


def cmd_dedupe(args: argparse.Namespace) -> int:
    from .merge import apply_merge, plan_merge, verify_merge, write_merge_audit
    from .similarity import group_by_threshold, resolve_now, similarity_for_pairs, write_groups_json, write_similarity_csv

    out = args.out
    bundle, report = _load(args)
    now = resolve_now(bundle, args.now)

    candidates = screen_candidates(bundle, NameFilter(args.name_filter))
    write_candidates_csv(bundle, candidates, out / "candidates.csv")

    results = similarity_for_pairs(bundle, candidates, now)
    write_similarity_csv(bundle, results, out / "similarity.csv")

    groups = group_by_threshold(results, args.theta, now)
    write_groups_json(groups, out / "groups.json")
    # the scores hold every class's weight vectors for exact decisions at theta,
    # and the candidates their buckets and runs; the merge reads none of them
    screened = (candidates.bucket_count, candidates.largest_bucket, len(candidates), results.scored)
    del candidates, results

    plan = plan_merge(bundle, groups.groups)
    merged = apply_merge(bundle, plan)
    verification = verify_merge(bundle, merged.bundle, plan)
    if not verification.ok:
        log = _log()
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
    _log().info(
        "dedupe: %d signature buckets (largest %d), %d candidates, %d class pairs scored, %d groups, "
        "removed %d vertices (dropped %d, transferred %d edges)",
        *screened, len(groups.groups),
        merged.audit.removed_vertices,
        merged.audit.dropped_edges, merged.audit.transferred_edges,
    )
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    bundle, _ = _load(args)
    path = args.out / {"records-csv": "records.csv", "graph-json": "graph.json", "dot": "graph.dot"}[args.format]
    export(bundle, args.format, path)
    _log().info("exported %s to %s", args.format, path)
    return EXIT_OK


def _absolute(path: str) -> Path:
    return Path(path).resolve()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tapmerge", description=__doc__)
    parser.add_argument("--version", action="version", version=f"tapmerge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str,
        summary: str,
        func: Callable[[argparse.Namespace], int],
        *,
        now: bool = False,
        name_filter: bool = False,
    ) -> argparse.ArgumentParser:
        """A subcommand with the input and output flags, and the `--now` and `--name-filter` it reads."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--records", type=_absolute, required=True, help="activity records CSV")
        p.add_argument("--manifest", type=_absolute, default=None, help="dataset manifest JSON")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--strict", action="store_true", help="malformed or undeclared rows are fatal")
        if now:
            p.add_argument("--now", type=int, default=None, help="time anchor (default: latest end time)")
        if name_filter:
            p.add_argument(
                "--name-filter", choices=[f.value for f in NameFilter], default=NameFilter.OFF.value,
                help="restrict screening to same-name or different-name pairs",
            )
        p.set_defaults(func=func)
        return p

    command("ingest", "load and validate records, write the load report", cmd_ingest)
    command("screen", "write structure-error candidate pairs", cmd_screen, name_filter=True)

    p_simtap = command(
        "simtap", "write path similarity for candidates or one pair", cmd_simtap, now=True, name_filter=True
    )
    p_simtap.add_argument("--pair", default=None, help="comma-separated vertex ids or names")

    p_dedupe = command("dedupe", "full pipeline: screen, confirm, merge", cmd_dedupe, now=True, name_filter=True)
    p_dedupe.add_argument("--theta", type=float, default=None, help="similarity threshold in (0, 1]")
    p_dedupe.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no effect")

    p_export = command("export", "re-emit the loaded bundle in another format", cmd_export)
    p_export.add_argument("--format", choices=EXPORT_FORMATS, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    A run keeps what it builds until it ends and makes no reference
    cycles that grow with its input, so the cyclic garbage collector is
    off while the command runs and the caller's setting is restored
    afterwards. At exit the heap is frozen, so the interpreter's final
    collection does not traverse it; the freeze is registered once,
    however often `main` is called.

    Logging leaves the root logger alone. When no handler would take the
    `tapmerge` records, one that writes `LEVEL message` lines to stderr
    is attached to that logger for the call, and the logger logs at INFO
    unless its level was set; a host that configured logging keeps its
    handlers and levels.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    # imported only once the arguments parse, so `--version`, `--help` and usage errors skip it
    import logging

    log = logging.getLogger("tapmerge")
    level, handler = log.level, None
    if not log.hasHandlers():
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
        log.addHandler(handler)
        if level == logging.NOTSET:
            log.setLevel(logging.INFO)
    collecting = gc.isenabled()
    gc.disable()
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
    finally:
        if collecting:
            gc.enable()
        if handler is not None:
            log.removeHandler(handler)
            log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
