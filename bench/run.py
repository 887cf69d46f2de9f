"""Benchmark for `tapmerge dedupe`: end-to-end CLI runs and a traced replay.

Run from the root of a source checkout:

    python3 bench/run.py --workload uniform --seed 1 --seconds 35 --trace 0

`--trace 0` times whole `tapmerge dedupe` processes, run from `src/` of
the checkout, and reports the end-to-end metrics. `--trace 1` alternates
one such run with a replay process that makes the same public calls,
one span per call (see replay.py), checks that the replay writes
byte-identical data files, and reports the per-layer metrics. Every
dedupe run is checked against the generator's ground truth. The last
line of stdout is one JSON object; the full record of the run, with
inputs, environment, samples and spans, goes to `.bench_work/results/`.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
# what the `tapmerge` console script runs
CLI = "import sys; from tapmerge.cli import main; sys.exit(main())"
# pinned for every process started, so runs differ only in their inputs
HASH_SEED = "0"
PROCESS_TIMEOUT_S = 60
WORKLOAD_NAMES = ("uniform", "hot_entity", "deep_history")


def _source_root(root: Path) -> Path:
    src = root / "src"
    if not (src / "tapmerge" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tapmerge sources under {src}; run from the root of a checkout")
    return src


def _child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def _launch(args: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """Run the interpreter once; return wall seconds, exit code and peak RSS in MB.

    `os.wait4` reports the largest RSS of the process and of every
    descendant it waited for, so pool workers are included.
    """
    with open(log, "wb") as err:
        start = time.perf_counter()
        # a session of its own, so a timeout also ends the pool workers
        proc = subprocess.Popen(
            [sys.executable, *args], env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(PROCESS_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024


def _exit_problem(what: str, code: int, log: Path) -> str | None:
    if code == 0:
        return None
    tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
    return f"{what} exited {code}: {' | '.join(tail)}"


def _output_problem(out: Path, expected) -> str | None:
    """Why a dedupe run's outputs are wrong, or None when they match the ground truth."""
    try:
        groups = json.loads((out / "groups.json").read_text(encoding="utf-8"))["groups"]
        audit = json.loads((out / "merge_audit.json").read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable output: {exc}"
    if groups != expected.groups:
        return f"groups.json has {len(groups)} groups that differ from the {len(expected.groups)} planted"
    for key in ("removed_vertices", "dropped_edges", "transferred_edges"):
        if audit.get(key) != getattr(expected, key):
            return f"merge_audit.json {key} = {audit.get(key)}, expected {getattr(expected, key)}"
    return None


def _identity_problem(cli_out: Path, replay_out: Path, names) -> str | None:
    for name in names:
        left, right = cli_out / name, replay_out / name
        if not left.is_file() or not right.is_file() or left.read_bytes() != right.read_bytes():
            return f"traced replay wrote a different {name} than the CLI"
    return None


def _span_seconds(spans: list[dict], names) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] in names)


def _layer_metrics(mem: dict, replays: list[dict], dedupe_s: list[float], setup: list[float]) -> dict:
    """Per-layer metrics from the memory replay and the timed replays."""
    from replay import LAYER_PEAKS, LAYER_SPANS

    def median_seconds(names) -> float:
        return statistics.median(_span_seconds(doc["spans"], names) for doc in replays)

    counts = mem["counts"]
    metrics = {name: (median_seconds(names), "s") for name, names in LAYER_SPANS.items()}
    for name, names in LAYER_PEAKS.items():
        metrics[name] = (max(s["peak_bytes"] for s in mem["spans"] if s["name"] in names) / 2**20, "MB")
    for name, value in counts.items():
        metrics[name] = (value, "fraction" if name.endswith("_ratio") else "count")
    metrics["ingest.us_per_row"] = (1e6 * metrics["ingest.load_s"][0] / max(1, counts["ingest.rows"]), "us")
    metrics["similarity.us_per_pair"] = (
        1e6 * median_seconds(("similarity.score",)) / max(1, counts["similarity.pairs_scored"]), "us"
    )
    # each round's set-up launch, dedupe run and replay ran back to back, so
    # differencing within a round cancels most of the machine's drift
    unattributed = [
        run_s - setup_s - sum(s["end"] - s["start"] for s in doc["spans"] if s["parent"] == "dedupe")
        for run_s, setup_s, doc in zip(dedupe_s, setup, replays)
    ]
    metrics["cli.unattributed_s"] = (statistics.median(unattributed), "s")
    metrics["trace.overhead_s"] = (_span_seconds(mem["spans"], ("dedupe",)) - median_seconds(("dedupe",)), "s")
    return metrics


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3, "min": min(values), "max": max(values)}


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, toy: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the full record."""
    src = _source_root(root)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import tapmerge
    from replay import DATA_FILES
    from workloads import WORKLOADS, sha256, write_inputs

    if not Path(tapmerge.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"tapmerge was imported from {tapmerge.__file__}, not from {src}")

    spec = WORKLOADS[workload]
    sizes = spec.toy if toy else spec.full
    workers = min(spec.workers, os.cpu_count() or 1)
    work = root / ".bench_work" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    results_dir = root / ".bench_work" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    env = _child_env(src)
    try:
        instance = spec.build(seed, sizes)
        records, manifest = work / "records.csv", work / "manifest.json"
        rows = write_inputs(instance, records, manifest)
        expected = instance.expected
        del instance
        inputs = {
            "seed": seed,
            "records": {"sha256": sha256(records), "rows": rows},
            "manifest": {"sha256": sha256(manifest)},
        }
        cli_out, replay_out, log = work / "cli_out", work / "replay_out", work / "stderr.log"
        params = ["--records", str(records), "--manifest", str(manifest), "--theta", str(spec.theta),
                  "--now", str(spec.now), "--workers", str(workers)]
        dedupe_args = ["-c", CLI, "dedupe", *params, "--out", str(cli_out)]

        failures: list[str] = []
        attempted = 0

        def dedupe() -> tuple[float, float] | None:
            nonlocal attempted
            attempted += 1
            shutil.rmtree(cli_out, ignore_errors=True)
            secs, code, mb = _launch(dedupe_args, env, log)
            problem = _exit_problem("tapmerge dedupe", code, log) or _output_problem(cli_out, expected)
            if problem:
                failures.append(problem)
                return None
            return secs, mb

        def replay(index: int, memory: bool = False) -> dict | None:
            nonlocal attempted
            attempted += 1
            shutil.rmtree(replay_out, ignore_errors=True)
            spans_file = work / "spans.json"
            args = [str(BENCH / "replay.py"), *params, "--out", str(replay_out), "--trace", str(index),
                    "--spans", str(spans_file)]
            _, code, _ = _launch(args + ["--memory"] if memory else args, env, log)
            problem = _exit_problem("traced replay", code, log) or _identity_problem(cli_out, replay_out, DATA_FILES)
            if problem:
                failures.append(problem)
                return None
            return json.loads(spans_file.read_text(encoding="utf-8"))

        def version() -> float | None:
            secs, code, _ = _launch(["-c", CLI, "--version"], env, log)
            if problem := _exit_problem("tapmerge --version", code, log):
                failures.append(problem)
                return None
            return secs

        # warm-up, checked but not timed: the first launch writes the
        # bytecode caches, which users keep between runs
        if version() is not None:
            dedupe()

        setup: list[float] = []
        dedupe_s: list[float] = []
        rss_mb: list[float] = []
        replays: list[dict] = []
        deadline = time.perf_counter() + seconds
        # memory tracing slows every allocation, so the peaks come from a
        # replay of their own and the span times from the replays below
        mem = replay(0, memory=True) if trace and not failures else None
        while not failures:
            # set-up launches are spread over the run like the dedupe runs,
            # so both see the same machine
            launch = version()
            if launch is None:
                break
            setup.append(launch)
            timed = dedupe()
            if timed is None:
                break
            dedupe_s.append(timed[0])
            rss_mb.append(timed[1])
            if trace:
                doc = replay(len(replays) + 1)
                if doc is None:
                    break
                if doc["counts"] != mem["counts"]:
                    failures.append("per-layer counts differ between replays of the same inputs")
                    break
                replays.append(doc)
            if time.perf_counter() >= deadline:
                break

        metrics: dict[str, tuple[float, str]] = {}
        if not failures and not trace:
            metrics = {
                "dedupe_s": (statistics.median(dedupe_s), "s"),
                "peak_rss_mb": (statistics.median(rss_mb), "MB"),
                "setup_s": (statistics.median(setup), "s"),
            }
        elif not failures:
            metrics = _layer_metrics(mem, replays, dedupe_s, setup)

        record = {
            "workload": workload,
            "why": spec.why,
            "trace": int(trace),
            "inputs": inputs,
            "environment": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "nproc": os.cpu_count(),
                "PYTHONHASHSEED": HASH_SEED,
                "workers": workers,
                "theta": spec.theta,
                "now": spec.now,
                "sizes": sizes,
            },
            "samples": {"dedupe_s": dedupe_s, "peak_rss_mb": rss_mb, "setup_s": setup},
            "summary": {"dedupe_s": _quartiles(dedupe_s), "setup_s": _quartiles(setup)},
            "failures": failures,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "spans": [s for doc in ([mem] if mem else []) + replays for s in doc["spans"]],
        }
        result = {
            "correct": not failures,
            "attempted": max(1, attempted),
            "failed": len(failures),
            "metrics": record["metrics"],
        }
        name = f"{workload}-seed{seed}-trace{int(trace)}.json"
        (results_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_summary(result: dict, record: dict) -> None:
    env, inputs = record["environment"], record["inputs"]
    print(
        f"workload {record['workload']}: seed {inputs['seed']}, {inputs['records']['rows']} rows, "
        f"records sha256 {inputs['records']['sha256']}, manifest sha256 {inputs['manifest']['sha256']}"
    )
    print(
        f"environment: python {env['python']}, nproc {env['nproc']}, PYTHONHASHSEED {env['PYTHONHASHSEED']}, "
        f"--workers {env['workers']}"
    )
    for problem in record["failures"]:
        print(f"FAILED: {problem}")
    runs = len(record["samples"]["dedupe_s"])
    for name, metric in result["metrics"].items():
        note = ""
        if name in ("dedupe_s", "peak_rss_mb"):
            note = f"  (median of {runs} runs)"
        elif name == "setup_s":
            note = f"  (median of {len(record['samples']['setup_s'])} launches)"
        print(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"failed_share {failed / attempted:.6g} fraction  ({failed}/{attempted})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOAD_NAMES, "all"], help="`all` runs each workload in turn"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting dedupe runs")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOAD_NAMES if args.workload == "all" else [args.workload]:
        try:
            result, record = run(workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
        except Exception:
            traceback.print_exc()
            return 2
        _print_summary(result, record)
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
