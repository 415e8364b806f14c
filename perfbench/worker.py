"""One fresh benchmark process: set-up, a timed closed loop, oracle checks.

Run by ``run.py``; prints one JSON line.  ``--mode setup`` stops after
set-up, ``--mode measure`` runs the loop and checks every answer, ``--mode
trace`` runs the loop untraced for half the time, then replays the same
queries with every layer wrapped, then counts how many known-defect probes
still fail (untraced, outside both loops).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POOL = 200  # queries generated during set-up; later ones are generated between queries


def load_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import bratteli

    if not os.path.abspath(bratteli.__file__).startswith(src + os.sep):
        raise SystemExit(f"bratteli imported from {bratteli.__file__}, not from {src}")


def ref_kernel_ms() -> float:
    """A fixed Fraction workload that runs no library code: in-process
    compute speed.  The collector is off while it runs, so the size of the
    heap the library left behind does not change its time."""
    from fractions import Fraction

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 1200):
            acc += Fraction(1, k * k)
        return (time.perf_counter() - t0) * 1e3
    finally:
        if was_enabled:
            gc.enable()


def ref_process_ms() -> float:
    """A fresh interpreter that imports numpy and exits, timed from outside:
    the speed of starting a process and importing, which no library code
    touches."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return (time.perf_counter() - t0) * 1e3


class HostRef:
    """A reference workload sampled between queries through a run; query
    times are reported scaled to its nominal speed."""

    def __init__(self, fn, nominal_ms: float, period_s: float):
        self.fn, self.nominal_ms, self.period_s = fn, nominal_ms, period_s
        self.samples: list[tuple[float, float]] = []  # (time, ms)

    def sample(self) -> float:
        t = time.perf_counter()
        self.samples.append((t, self.fn()))
        return time.perf_counter() - t

    def factors(self, records) -> list[float]:
        """Per query: the local reference time (median of the three samples
        nearest its start) over the nominal one."""
        times = [t for t, _ in self.samples]
        out = []
        for rec in records:
            i = bisect.bisect_left(times, rec[3])
            near = [ms for _, ms in self.samples[max(0, i - 1) : i + 2]]
            out.append(statistics.median(near) / self.nominal_ms)
        return out

    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.samples)


# (reference, its time on the nominal host in ms, sampling period in s)
KERNEL = (ref_kernel_ms, 5.0, 0.25)  # in-process queries
PROCESS = (ref_process_ms, 150.0, 0.0)  # CLI child processes and set-ups: before each one


def run_loop(queries, seconds: float, tracer=None, ref: HostRef = None):
    """Closed loop: one query at a time until ``seconds`` have passed.

    With a ``ref``, the reference is sampled between queries every
    ``ref.period_s``; its time is left out of the returned wall.  Records
    are (query, result, error, start, seconds)."""
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    end = start
    next_ref, ref_s = start, 0.0
    for q in queries:
        if ref is not None and time.perf_counter() >= next_ref:
            ref_s += ref.sample()
            next_ref = time.perf_counter() + ref.period_s
        if tracer is not None:
            tracer.begin_query()
        t0 = time.perf_counter()
        try:
            res, err = q.call(), None
        except Exception as exc:  # a failed query is counted, not fatal
            res, err = None, exc
        end = time.perf_counter()
        records.append((q, res, err, t0, end - t0))
        if end >= deadline:
            break
    return records, end - start - ref_s


def judge(records):
    """Oracle verdicts and the counts behind the ratio metrics."""
    out = {
        "attempted": len(records),
        "failed": 0,
        "failures": {},
        "mismatches": [],
        "series": 0,
        "undetermined": 0,
        "finite": 0,
        "exact": 0,
    }
    digest = hashlib.sha256()
    for idx, (q, res, err, _, _) in enumerate(records):
        failure = f"{type(err).__name__}: {err}" if err is not None else q.failure(res)
        if idx < 32:
            digest.update(f"{q.label}={failure or q.digest(res)}\n".encode())
        if failure is not None:
            out["failed"] += 1
            key = f"{q.kind}: {failure.splitlines()[0][:120]}"
            out["failures"][key] = out["failures"].get(key, 0) + 1
            continue
        try:
            out["mismatches"].extend(q.check(res))
        except Exception as exc:  # a malformed answer is a wrong answer
            out["mismatches"].append(f"{q.label}: check raised {type(exc).__name__}: {exc}")
        for status, exact in q.series(res):
            out["series"] += 1
            out["undetermined"] += status == "undetermined"
            if status == "finite":
                out["finite"] += 1
                out["exact"] += bool(exact)
    out["digest32"] = digest.hexdigest()[:16]
    return out


def latency_summary(records, wall: float, factors=None) -> dict:
    """Throughput and latency quantiles; with ``factors``, every duration is
    divided by its query's host factor (time at the nominal host speed)."""
    factors = factors or [1.0] * len(records)
    lat_ms = sorted(r[4] * 1e3 / f for r, f in zip(records, factors))
    busy = sum(r[4] for r in records)
    scaled_busy = sum(r[4] / f for r, f in zip(records, factors))
    scaled_wall = scaled_busy + (wall - busy) / statistics.median(factors)
    ok = sum(1 for r in records if r[2] is None and r[0].failure(r[1]) is None)
    per_kind: dict[str, list[float]] = {}
    for r in records:
        per_kind.setdefault(r[0].kind, []).append(r[4] * 1e3)
    return {
        "wall_s": wall,
        "queries_per_s": ok / scaled_wall,
        "query_p50_ms": statistics.median(lat_ms),
        "query_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "per_kind": {k: {"n": len(v), "median_ms": statistics.median(v)} for k, v in sorted(per_kind.items())},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    load_library()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    in_process = args.mode == "trace"
    stream = workloads.stream(args.workload, args.seed, ROOT, in_process_cli=in_process)
    pool = list(itertools.islice(stream, POOL))
    workloads.warm_up(args.workload, ROOT, in_process_cli=in_process)
    setup_s = time.perf_counter() - t0
    doc = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(doc))
        return 0

    if args.mode == "measure":
        ref = HostRef(*(PROCESS if args.workload == "cli-session" else KERNEL))
        records, wall = run_loop(itertools.chain(pool, stream), args.seconds, ref=ref)
        doc["raw"] = latency_summary(records, wall)
        doc.update(latency_summary(records, wall, ref.factors(records)))
        doc["ref_ms"] = ref.median_ms()
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
        doc["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        doc.update(judge(records))
    else:
        from tracer import Tracer

        ref_a = HostRef(*KERNEL)
        records_a, wall_a = run_loop(itertools.chain(pool, stream), args.seconds / 2, ref=ref_a)
        tracer = Tracer()
        replay = list(
            itertools.islice(
                workloads.stream(args.workload, args.seed, ROOT, in_process_cli=True, tracer=tracer),
                len(records_a),
            )
        )
        tracer.install()
        try:
            ref_b = HostRef(*KERNEL)
            records_b, wall_b = run_loop(replay, float("inf"), tracer, ref_b)
        finally:
            tracer.uninstall()
        # busy time at the nominal host speed, so a host phase change between
        # the two passes does not read as tracing overhead
        busy_a = sum(r[4] / f for r, f in zip(records_a, ref_a.factors(records_a)))
        busy_b = sum(r[4] / f for r, f in zip(records_b, ref_b.factors(records_b)))
        doc["layers"] = tracer.per_query(len(records_b))
        probe_mismatches = []
        for name, probes in workloads.defect_probes(args.seed).items():
            verdict = judge(run_loop(probes, float("inf"))[0])
            doc["layers"][name] = verdict["failed"]
            probe_mismatches += verdict["mismatches"]
        doc["layers"]["trace.overhead_pct"] = 100.0 * (busy_b / busy_a - 1.0)
        doc["layers"]["trace.queries"] = len(records_b)
        doc["trace_spans"] = len(tracer.spans)
        doc["trace_dropped_spans"] = tracer.dropped_spans
        doc.update(latency_summary(records_a, wall_a))
        doc["ref_ms"] = ref_a.median_ms()
        doc.update(judge(records_a + records_b))
        doc["mismatches"] += probe_mismatches
        spans_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        with open(os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    import numpy

    doc["numpy"] = numpy.__version__
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
