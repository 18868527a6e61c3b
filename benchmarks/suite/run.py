#!/usr/bin/env python3
"""The repo's benchmark: four named workloads, one command.

Driver form (one workload, one JSON result line last on stdout)::

    python3 benchmarks/suite/run.py --workload point_lookup --seed 7 \
        --seconds 18 --trace 0

Full report (every workload in a fresh interpreter, then the traced
run of each, written to ``--out``)::

    python3 benchmarks/suite/run.py --seed 42 [--traced] [--repeat N] \
        [--smoke] --out results.json

See ``README.md`` beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import common

SMOKE_SECONDS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run just this workload, in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, help="measured window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="full report: also run the traced pass")
    parser.add_argument("--repeat", type=int, default=1, help="full report: runs per workload")
    parser.add_argument("--smoke", action="store_true", help="egos=24 and 2 s windows")
    parser.add_argument("--out", help="full report: write results JSON here")
    return parser.parse_args(argv)


def run_workload(args, spec: dict) -> dict:
    """Run one workload in this process; returns its result document."""
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; have {wl.WORKLOADS}")
    egos = wl.SMOKE_EGOS if args.smoke else wl.EGOS
    traced = bool(args.trace)
    if args.workload == "durable_lifecycle":
        import durable
        outcome = durable.run(args.seed, args.seconds, traced, egos)
    elif args.workload == "http_serve":
        import httpload
        outcome = httpload.run(args.seed, args.seconds, traced, egos)
    else:
        import inproc
        outcome = inproc.run(args.workload, args.seed, args.seconds, traced, egos)
    recorder = outcome.pop("recorder", None)
    if recorder is not None:
        os.makedirs(common.WORK_ROOT, exist_ok=True)
        path = os.path.join(common.WORK_ROOT, f"trace-{args.workload}.json")
        recorder.write(path, {"workload": args.workload, "seed": args.seed})
        outcome["detail"]["trace_file"] = os.path.relpath(path, common.ROOT)
    entries = spec["per_layer"] if traced else spec["end_to_end"]
    source = outcome["layers"] if traced else outcome["values"]
    missing = [e["name"] for e in entries if e["name"] not in source]
    if not traced and missing:
        raise SystemExit(f"contract violation: {args.workload} did not measure {missing}")
    failed = outcome["failed"]
    attempted = max(outcome["attempted"], 1)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "metrics": common.metric_values(entries, source),
        "end_to_end": outcome["values"],
        "layers": outcome.get("layers", {}),
        "detail": outcome["detail"],
    }


def print_workload(document: dict, spec: dict) -> None:
    """Human-readable lines; the JSON result line comes after these."""
    name = document["workload"]
    detail = document["detail"]
    print(f"== {name}  seed={document['seed']}  window={document['seconds']}s  "
          f"traced={int(document['traced'])}  fsync={common.FSYNC_POLICY}")
    data = detail.get("dataset", {})
    if data:
        print(f"   dataset: seed {data['dataset_seed']}, {data['vertices']} vertices, "
              f"{data['edges']} edges, quads {data['quads']}")
    for entry in spec["end_to_end"]:
        value = document["end_to_end"].get(entry["name"])
        if value is not None:
            print(f"   {entry['name']:28} {value:14.4f} {entry['unit']}")
    print(f"   {'failed_share':28} {document['failed_share']:14.6f} ratio "
          f"({document['failed']} of {document['attempted']})")
    if "samples" in detail:
        print(f"   samples: {detail['samples']}")
    top = detail.get("top_percentile")
    if top and top["q"]:
        print(f"   p{top['q'] * 100:g}: {top['ms']:.3f} ms (highest percentile with >= 10 samples beyond)")
    for key in ("setup_s", "restart_to_first_query_s"):
        rounds = detail.get(key)
        if rounds:
            print(f"   {key}: median {rounds['median']:.3f} min {rounds['min']:.3f} "
                  f"max {rounds['max']:.3f} over {rounds['n']} rounds")
    raw = detail.get("raw")
    if raw:
        print(f"   raw (as the clock read): ops_s {raw['ops_s']:.4f}  p50_ms {raw['p50_ms']:.4f}  "
              f"p95_ms {raw['p95_ms']:.4f}  setup_s {raw['setup_s']:.4f}  "
              f"speed factor {raw['speed_factor']:.3f} ({raw['speed_samples']} kernel samples)")
    for key, value in sorted(detail.get("diagnostics", {}).items()):
        print(f"   diag {key:26} {value:14.4f}")
    if document["traced"]:
        from trace import layer_table

        print(layer_table(document["layers"], spec["per_layer"]))
    for problem in detail.get("problems", []):
        print(f"   VIOLATION: {problem}")
    if detail.get("first_error"):
        print(f"   first error: {detail['first_error']}")


def result_line(document: dict) -> str:
    return json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": document["metrics"],
    })


def single(args, spec: dict) -> int:
    try:
        document = run_workload(args, spec)
    finally:
        common.cleanup_work()
    print_workload(document, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    sys.stdout.flush()
    print(result_line(document))
    return 0


# ----------------------------------------------------------------------
# Full report: each workload in a fresh interpreter
# ----------------------------------------------------------------------


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def child_run(args, workload: str, seed: int, trace: int) -> dict:
    out = os.path.join(common.WORK_ROOT, f"result-{os.getpid()}.json")
    os.makedirs(common.WORK_ROOT, exist_ok=True)
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", out,
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=common.ROOT, capture_output=True, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} exited with {done.returncode}")
    with open(out, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    os.remove(out)
    return document


def full(args, spec: dict) -> int:
    import workloads as wl

    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    started = time.time()
    runs = []
    for repeat in range(args.repeat):
        for workload in names:
            runs.append(child_run(args, workload, args.seed + repeat, 0))
    traced = []
    if args.traced:
        for workload in names:
            traced.append(child_run(args, workload, args.seed, 1))
    results = {
        "benchmark": "benchmarks/suite",
        "claim": None,
        "seed": args.seed,
        "repeat": args.repeat,
        "smoke": args.smoke,
        "window_seconds": args.seconds,
        "fsync_policy": common.FSYNC_POLICY,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "wall_seconds": time.time() - started,
        "runs": runs,
        "traced_runs": traced,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    failed = sum(r["failed"] for r in runs + traced)
    attempted = sum(r["attempted"] for r in runs + traced)
    print(f"== total: {attempted} ops attempted, {failed} failed, "
          f"{results['wall_seconds']:.0f} s wall")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    common.bootstrap()
    import repro  # noqa: F401  (fail here, before any output, when src/ is absent)

    spec = common.catalogue()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.workload and not (args.traced or args.repeat > 1):
        return single(args, spec)
    return full(args, spec)


if __name__ == "__main__":
    sys.exit(main())
