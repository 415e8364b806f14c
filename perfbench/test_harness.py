"""Tiny-size self-test of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bratteli as B  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


def test_strata_cover_the_range_evenly():
    draws = [W.Strata(7, "x", i).randint("n", 1, 10) for i in range(100)]
    counts = [draws.count(v) for v in range(1, 11)]
    assert min(counts) >= 8 and max(counts) <= 12
    assert draws != [W.Strata(8, "x", i).randint("n", 1, 10) for i in range(100)]


def test_oracle_formulas_agree_with_the_library_on_small_inputs():
    chains = [
        W.Chain("ak", a=4, k=2),
        W.Chain("ak", a=3, k=1),
        W.Chain("decreasing", values=(5, 3), tail=2),
        W.Chain("decreasing", values=(9, 7, 5), tail=3),
        W.Chain("nonstat", levels=("arithmetic", 2, 1)),
    ]
    for chain in chains:
        spec = chain.spec()
        window = B.Truncation(6, 4)
        assert chain.heights(6, 4) == B.heights(spec, 6, window).values
        if chain.stationary:
            oracle = B.closed_form_oracles(spec, 1)
            assert chain.mass() == oracle.mass
    assert W.Chain("decreasing", values=(5, 3), tail=2).mass() == Fraction(7, 4)


def test_stream_is_a_function_of_the_seed():
    for name in ("certify-mix", "orbit-walk", "structure-scan"):
        first = [q.label for q in itertools.islice(W.stream(name, 3, ROOT), 30)]
        again = [q.label for q in itertools.islice(W.stream(name, 3, ROOT), 30)]
        other = [q.label for q in itertools.islice(W.stream(name, 4, ROOT), 30)]
        assert first == again and first != other


def _cheap(queries, limit):
    slow = ("eigen-grid", "cylinder-grid", "heights", "deep-orbit")
    return list(itertools.islice((q for q in queries if q.kind not in slow), limit))


def test_every_workload_answers_correctly_on_a_few_queries():
    for name in ("certify-mix", "orbit-walk", "structure-scan", "cli-session"):
        queries = _cheap(W.stream(name, 1, ROOT, in_process_cli=True), 13)
        records, _ = worker.run_loop(queries, float("inf"))
        verdict = worker.judge(records)
        assert verdict["attempted"] == len(queries)
        assert verdict["failed"] == 0, verdict["failures"]
        assert verdict["mismatches"] == [], verdict["mismatches"]


def test_random_matrices_leave_tied_radii_to_the_probes():
    assert W.radii_tied([[2, 1], [0, 2]])
    assert not W.radii_tied([[2, 1], [1, 2]]) and not W.radii_tied([[3, 1], [0, 2]])
    rng = W._rng(1, "test")
    assert not any(W.radii_tied(W.random_matrix(rng, rng.randint(3, 8))) for _ in range(200))
    probes = W.defect_probes(1, count=4)
    assert set(probes) == {"extension.vectors_failed", "finite_stationary.failed"}
    assert all(len(queries) == 4 for queries in probes.values())
    assert all(W.radii_tied(json.loads(q.label.split(" ", 1)[1])) for q in probes["finite_stationary.failed"])


def test_a_wrong_answer_is_a_mismatch():
    chain = W.Chain("ak", a=4, k=2)
    spec = chain.spec()
    wrong = B.extended_cylinder_measure(spec, 1, B.EndVertex(1, 3))
    results = [wrong] * len(W.GRID)  # every cell claims the (1, 3) value
    assert W._check_grid(chain, results)
    hv = B.heights(spec, 5, B.Truncation(5, 4))
    hv.values[2] += 1
    assert W._check_heights(chain, 5, 4, hv)


def test_tracer_charges_nested_time_to_its_own_layer_and_restores():
    original = B.spectral.extended_cylinder_measure
    tr = tracer.Tracer()
    tr.install()
    try:
        assert B.spectral.extended_cylinder_measure is not original
        spec = B.StationaryAK(4, 2)
        cyls = [B.EndVertex(m, j) for m in range(3) for j in range(1, 4)]
        tr.begin_query()
        B.compare_eigen_vs_extension(spec, 1, B.eigenvector_ak(4, 2), cyls)
        window = B.Truncation(3, 3)
        report = B.check_tail_invariance(spec, B.extend_odometer(spec, 1).normalize().measure_vectors(window), window)
    finally:
        tr.uninstall()
    assert B.spectral.extended_cylinder_measure is original
    stats = tr.per_query(1)
    assert stats["spectral.calls"] == 1 + 1  # eigenvector_ak and the comparison
    # the grid, extend_odometer, and one span per vector value the check reads
    assert stats["extension.calls"] > len(cyls) + 1
    assert stats["measure.rows_checked"] == report.checked_rows > 0
    assert stats["extension.self_ms"] > 0 and stats["spectral.self_ms"] > 0
    assert stats["extension.operand_bits_max"] > 0
    names = {span[0] for span in tr.spans}
    assert "extension.extended_cylinder_measure" in names
    for name, start, end, parent in tr.spans:
        assert start <= end
        if name == "extension.extended_cylinder_measure" and parent >= 0:
            outer = tr.spans[parent]
            assert outer[1] <= start and end <= outer[2] and outer[0] != name


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_run_prints_every_metric_as_the_last_line():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["--workload", "orbit-walk", "--seed", "1", "--seconds", "1", "--trace", str(trace)], ROOT)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in bench[key]}


def test_run_refuses_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "orbit-walk", "--seed", "1", "--seconds", "1", "--trace", "0"], str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
