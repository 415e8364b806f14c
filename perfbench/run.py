"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/bratteli``.  With
``--trace 0`` the run measures set-up in several fresh processes, then
runs the closed loop in one more and reports the end-to-end metrics; with
``--trace 1`` it times imports in fresh processes and replays the loop with
every layer wrapped, reporting the per-layer metrics.  Every answer is
checked against an independent computation before any number is printed.
The last line of standard output is the JSON result; the lines before it
list every metric with its unit, the failures with their base, and the
environment.  Exit status 1 means an answer was wrong or a process failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import PROCESS, ref_kernel_ms, ref_process_ms

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 6  # fresh set-up processes besides the measuring one; one more primes the caches
IMPORT_PROBES = 3
LAYER_MODULES = ("extension", "orders", "diagram", "measure", "spectral", "finite_stationary", "cli", "sequences")
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def run_child(argv: list[str], timeout: float) -> dict:
    """Run a fresh Python process and parse the JSON on its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(argv[:3])} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_ref() -> float:
    return statistics.median(ref_kernel_ms() for _ in range(5))


def module_loc() -> dict[str, int]:
    pkg = os.path.join(SRC, "bratteli")
    loc = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                loc[name[:-3]] = sum(1 for line in fh if line.strip())
    return loc


def source_record() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bratteli")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def import_ms(module: str) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise BenchError(f"import {module} failed: {proc.stderr.strip()[-400:]}")
        times.append(float(proc.stdout.strip()) * 1e3)
    return statistics.median(times)


def ratio(num: int, den: int) -> float:
    """A share of a base that may be empty; an empty base reads as 1."""
    return num / den if den else 1.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "bratteli", "__init__.py")):
        print(f"error: no library source at {os.path.relpath(SRC)}/bratteli; run from a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    ref_start = host_ref()
    try:
        metrics: dict[str, float] = {}
        if args.trace:
            metrics["import.bratteli_ms"] = import_ms("bratteli")
            metrics["import.numpy_ms"] = import_ms("numpy")
            left = DEADLINE_S - (time.perf_counter() - started)
            doc = run_child([WORKER, *common, "--mode", "trace"], left)
            metrics.update(doc["layers"])
        else:
            run_child([WORKER, *common, "--mode", "setup"], 60)  # primes the file and bytecode caches
            setups = []  # (as measured, scaled by the process reference taken just before)
            for _ in range(SETUP_PROBES):
                ref = ref_process_ms()
                raw = run_child([WORKER, *common, "--mode", "setup"], 60)["setup_s"]
                setups.append((raw, raw * PROCESS[1] / ref))
            ref = ref_process_ms()
            left = DEADLINE_S - (time.perf_counter() - started)
            doc = run_child([WORKER, *common, "--mode", "measure"], left)
            setups.append((doc["setup_s"], doc["setup_s"] * PROCESS[1] / ref))
            raw_setup = statistics.median(raw for raw, _ in setups)
            metrics.update(
                setup_s=statistics.median(scaled for _, scaled in setups),
                queries_per_s=doc["queries_per_s"],
                query_p50_ms=doc["query_p50_ms"],
                query_p90_ms=doc["query_p90_ms"],
                certified_ratio=ratio(doc["series"] - doc["undetermined"], doc["series"]),
                exact_ratio=ratio(doc["exact"], doc["finite"]),
                peak_rss_mb=doc["peak_rss_mb"],
            )
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ref_end = host_ref()

    loc = module_loc()
    if args.trace:
        for name in LAYER_MODULES:
            metrics[f"{name}.loc"] = loc[name]
        metrics["src.loc"] = sum(loc.values())
        metrics["host.ref_ms"] = statistics.median([ref_start, ref_end])

    env = {
        "python": platform.python_version(),
        "numpy": doc.get("numpy"),
        "nproc": os.cpu_count(),
        **source_record(),
        # the kernel at the start and end; the median of the reference sampled
        # in the loop (the kernel, or a fresh numpy process for cli-session)
        "host_ref_ms": {"start": ref_start, "end": ref_end, "loop_median": doc["ref_ms"]},
        "loc": loc,
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"queries attempted {doc['attempted']}  failed {doc['failed']}  "
        f"series results {doc['series']} (undetermined {doc['undetermined']}, finite {doc['finite']}, exact {doc['exact']})  "
        f"digest of the first 32 answers {doc['digest32']}"
    )
    for kind, st in doc["per_kind"].items():
        print(f"  {kind:28s} n={st['n']:<5d} median {st['median_ms']:.3f} ms")
    for key, count in sorted(doc["failures"].items()):
        print(f"  failed {count} of {doc['attempted']}: {key}")
    if args.trace:
        print(f"trace spans {doc['trace_spans']} (dropped {doc['trace_dropped_spans']})")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for m in wanted:
        print(f"  {m['name']:30s} {metrics[m['name']]:14.6g} {m['unit']}")
    if not args.trace:
        raw = doc["raw"]
        print(
            f"as measured, before scaling to the nominal host speed: setup_s {raw_setup:.6g} s  "
            f"queries_per_s {raw['queries_per_s']:.6g} 1/s  query_p50_ms {raw['query_p50_ms']:.6g} ms  "
            f"query_p90_ms {raw['query_p90_ms']:.6g} ms"
        )
    for msg in doc["mismatches"][:20]:
        print(f"MISMATCH {msg}")
    correct = not doc["mismatches"]
    print(f"oracle mismatches {len(doc['mismatches'])}")
    result = {
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
