"""Seeded query streams, their library calls, and independent oracles.

A query is one user-level call: a mass verdict, a cylinder grid, an orbit,
a structure computation or a CLI invocation.  Each stream is a pure function
of the seed, so a second pass over the same seed rebuilds identical inputs.
Every query carries a timed ``call`` and an untimed ``check`` that compares
the outcome with a computation that does not go through the library code
path being measured (closed forms, brute force, telescoping, or formulas
written out here).

The library is reached only through ``import bratteli`` and its CLI, and
always through module attributes looked up at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional

import bratteli as B
import bratteli.cli  # noqa: F401  (in-process CLI for the traced run)

FINITE, INFINITE, UNDETERMINED = "finite", "infinite", "undetermined"

GRID = [(m, j) for m in range(6) for j in range(1, 7)]  # m <= 5, j <= 6: 36 cylinders


@dataclass
class Query:
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]  # mismatch messages; empty when the answer is right
    series: Callable[[object], list] = field(default=lambda r: [])  # (status, exact?) per series result
    digest: Callable[[object], str] = field(default=lambda r: repr(r))
    failure: Callable[[object], Optional[str]] = field(default=lambda r: None)  # non-raising failures


def _rng(seed: int, *key) -> random.Random:
    return random.Random(f"{seed}:" + ":".join(map(str, key)))


class Strata:
    """Seeded draws spread evenly over a run.

    The idx-th draw of each named parameter follows a Weyl sequence with a
    seeded phase, so every run covers each parameter's range evenly and the
    per-run quantiles of the costs these parameters drive vary little
    between seeds, while the inputs themselves still change with the seed.
    """

    def __init__(self, seed: int, kind: str, idx: int):
        self.seed, self.kind, self.idx = seed, kind, idx

    def randint(self, name: str, lo: int, hi: int) -> int:
        phase = _rng(self.seed, "phase", self.kind, name).random()
        return lo + int((hi - lo + 1) * ((phase + self.idx * 0.6180339887498949) % 1.0))

    def choice(self, name: str, options):
        return options[self.randint(name, 0, len(options) - 1)]


def _fr(x: Optional[Fraction]) -> str:
    return "-" if x is None else f"{x.numerator}/{x.denominator}"


def result_tuple(res) -> tuple:
    """(status, exact?) of a ConvergenceResult, for the certified/exact ratios."""
    return (res.status, res.exact_value is not None)


def result_digest(res) -> str:
    return f"{res.status}|{_fr(res.partial_sum)}|{_fr(res.tail_bound)}|{_fr(res.exact_value)}"


# ---------------------------------------------------------------------------
# Chains described by plain parameters, with oracles written out here
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chain:
    """An odometer chain known by its parameters, not by library objects."""

    kind: str  # ak / decreasing / nonstat
    a: int = 0
    k: int = 0
    values: tuple = ()  # decreasing: leading vertex multiplicities
    tail: int = 0  # decreasing: constant tail multiplicity
    levels: tuple = ()  # nonstat: (sequence kind, parameters...)

    def spec(self):
        if self.kind == "ak":
            return B.StationaryAK(self.a, self.k)
        if self.kind == "decreasing":
            return B.StationaryDecreasing(B.Table(self.values, B.Constant(self.tail)))
        head, *params = self.levels
        seq = {
            "constant": lambda: B.Constant(*params),
            "arithmetic": lambda: B.Arithmetic(*params),
            "geometric": lambda: B.Geometric(*params),
            "polynomial": lambda: B.Polynomial(tuple(params)),
        }[head]()
        return B.NonStationaryUniform(seq)

    def cli_args(self) -> list[str]:
        if self.kind == "ak":
            return ["--family", "ak", "--a", str(self.a), "--k", str(self.k)]
        text = "table:" + ",".join(map(str, self.values)) + f":constant:{self.tail}"
        return ["--family", "decreasing", "--diagonal", text]

    @property
    def stationary(self) -> bool:
        return self.kind != "nonstat"

    def vertex_mult(self, v: int) -> int:
        if self.kind == "ak":
            return self.a if v == 1 else self.a - self.k
        return self.values[v - 1] if v <= len(self.values) else self.tail

    def level_mult(self, n: int) -> int:
        head, *p = self.levels
        if head == "constant":
            return p[0]
        if head == "arithmetic":
            return p[0] + p[1] * n
        if head == "geometric":
            return p[0] * p[1] ** n
        return sum(c * n**e for e, c in enumerate(p))

    def reciprocal_sum_converges(self) -> bool:
        # the generated polynomials have degree 2, so sum 1/a_n converges for them
        return self.levels[0] in ("geometric", "polynomial")

    def heights(self, n: int, width: int) -> dict[int, int]:
        """H^(n)_v for v <= width: closed forms plus a recursion over the
        finitely many vertices below the constant tail."""
        if self.kind == "nonstat":
            h = 1
            for lvl in range(n):
                h *= self.level_mult(lvl) + 1
            return {v: h for v in range(1, width + 1)}
        first_const = 2 if self.kind == "ak" else len(self.values) + 1
        tau = self.vertex_mult(first_const)
        low = {v: 1 for v in range(1, first_const)}
        for lvl in range(n):
            top = (tau + 1) ** lvl
            low = {v: self.vertex_mult(v) * low[v] + (low[v + 1] if v + 1 < first_const else top) for v in low}
        const = (tau + 1) ** n
        return {v: low.get(v, const) for v in range(1, width + 1)}

    def xi(self, j: int) -> Fraction:
        """Eigenvector entry for lambda = a_1: prod over l=2..j of 1/(a_1 - a_l)."""
        out = Fraction(1)
        for l in range(2, j + 1):
            out /= self.vertex_mult(1) - self.vertex_mult(l)
        return out

    def extension_value(self, m: int, j: int) -> Fraction:
        """Extension of odometer 1 on cylinder (m, j) for a stationary chain."""
        return self.xi(j) / Fraction(self.vertex_mult(1)) ** m

    def mass(self) -> Optional[Fraction]:
        """Total mass 1 + sum_{j>=2} xi_j of odometer 1's extension, or None
        when the series diverges."""
        a1 = self.vertex_mult(1)
        if self.kind == "ak":
            return None if self.k == 1 else 1 + Fraction(1, self.k - 1)
        if a1 - self.tail <= 1:
            return None
        total = Fraction(0)
        for j in range(1, len(self.values) + 1):
            total += self.xi(j)
        return total + self.xi(len(self.values)) * Fraction(1, a1 - self.tail - 1)


def eigenpair(chain: Chain, spec):
    """The library's closed-form eigenpair for a stationary chain."""
    if chain.kind == "ak":
        return B.eigenvector_ak(chain.a, chain.k)
    return B.eigenvector_decreasing(spec.vertex_diag)


# Every (a, k) and every decreasing table the generators use, in a fixed
# order; a run walks each list with an evenly spread index, so it covers the
# shapes (and the costs they drive) jointly and evenly.
AK_PAIRS = [(a, k) for a in range(3, 8) for k in range(1, a - 1)]
DECREASING_TABLES = sorted(
    ((top, *rest), tail)
    for tail in (2, 3)
    for top in range(tail + 3, 10)
    for rest in itertools.chain(
        ((b,) for b in range(top - 1, tail, -1)),
        ((b, c) for b in range(top - 1, tail, -1) for c in range(b - 1, tail, -1)),
    )
)  # two or three leading entries: a single one would be the ak family again


def random_ak(st: Strata) -> Chain:
    a, k = AK_PAIRS[st.randint("ak", 0, len(AK_PAIRS) - 1)]
    return Chain("ak", a=a, k=k)


def random_decreasing(st: Strata) -> Chain:
    values, tail = DECREASING_TABLES[st.randint("table", 0, len(DECREASING_TABLES) - 1)]
    return Chain("decreasing", values=values, tail=tail)


def random_nonstat(st: Strata, variant: int) -> Chain:
    head = ("constant", "arithmetic", "geometric", "polynomial")[variant % 4]
    params = {
        "constant": lambda: (st.randint("c", 2, 5),),
        "arithmetic": lambda: (st.randint("start", 2, 4), st.randint("step", 1, 3)),
        "geometric": lambda: (st.randint("base", 2, 3), st.randint("ratio", 2, 3)),
        "polynomial": lambda: (st.randint("c0", 2, 5), st.randint("c1", 0, 4), st.randint("c2", 1, 2)),
    }[head]()
    return Chain("nonstat", levels=(head, *params))


def _classes(mat) -> tuple[list[frozenset], list[set]]:
    """Strongly connected classes of G(A) (0-based) and each vertex's reach."""
    size = len(mat)
    reach = []
    for i in range(size):
        seen, frontier = {i}, [i]
        while frontier:
            u = frontier.pop()
            for v in range(size):
                if mat[u][v] > 0 and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        reach.append(seen)
    classes = []
    for i in range(size):
        cls = frozenset(j for j in reach[i] if i in reach[j])
        if cls not in classes:
            classes.append(cls)
    return classes, reach


def radii_tied(mat, tol: float = 1e-6) -> bool:
    """True when two classes, one with access to the other, have Perron roots
    within ``tol``: the known defect where ``measures_finite_stationary``
    raises ``ToleranceError`` (e.g. ``[[2,1],[0,2]]``).  Decided here with
    numpy eigenvalues, not by the library."""
    import numpy as np

    classes, reach = _classes(mat)
    radii = []
    for cls in classes:
        idx = sorted(cls)
        block = np.array([[mat[i][j] for j in idx] for i in idx], dtype=float)
        radii.append(float(max(abs(np.linalg.eigvals(block)))))
    for a, ca in enumerate(classes):
        for b, cb in enumerate(classes):
            if a != b and abs(radii[a] - radii[b]) <= tol and any(j in reach[i] for i in cb for j in ca):
                return True
    return False


def _valid_matrix(rng: random.Random, size: int) -> list[list[int]]:
    """A valid A = F^T: no zero row and no zero column."""
    while True:
        mat = [[rng.choice((0, 0, 0, 1, 1, 2, 3)) for _ in range(size)] for _ in range(size)]
        if all(any(r) for r in mat) and all(any(r[j] for r in mat) for j in range(size)):
            return mat


def random_matrix(rng: random.Random, size: int) -> list[list[int]]:
    """A valid matrix without tied class radii, so no timed query fails on
    the known tie defect; ``defect_probes`` keeps the tied ones."""
    while True:
        mat = _valid_matrix(rng, size)
        if not radii_tied(mat):
            return mat


# ---------------------------------------------------------------------------
# certify-mix
# ---------------------------------------------------------------------------


def _check_mass(chain: Chain, spec, i: int, res) -> list:
    oracle = B.closed_form_oracles(spec, i)
    if oracle is None or res.status == UNDETERMINED:
        return []
    if res.status != oracle.status:
        return [f"mass i={i} of {chain}: engine {res.status}, closed form {oracle.status}"]
    if oracle.mass is not None and not res.contains(oracle.mass):
        return [f"mass i={i} of {chain}: {oracle.mass} outside the certified interval {res.interval()}"]
    if oracle.mass is not None and res.exact_value is not None and res.exact_value != oracle.mass:
        return [f"mass i={i} of {chain}: exact {res.exact_value} != closed form {oracle.mass}"]
    return []


def _check_grid(chain: Chain, results) -> list:
    bad = []
    for (m, j), res in zip(GRID, results):
        if res.status == UNDETERMINED:
            continue
        if chain.stationary or j == 1:
            want = chain.extension_value(m, j) if chain.stationary else _level_cylinder(chain, m)
            if res.status != FINITE or not res.contains(want) or res.exact_value not in (None, want):
                bad.append(f"cylinder ({m},{j}) of {chain}: {result_digest(res)} vs {want}")
        elif j == 2:
            want = FINITE if chain.reciprocal_sum_converges() else INFINITE
            if res.status != want:
                bad.append(f"cylinder ({m},{j}) of {chain}: {res.status}, reciprocal sum says {want}")
    return bad


def _level_cylinder(chain: Chain, m: int) -> Fraction:
    den = 1
    for n in range(m):
        den *= chain.level_mult(n)
    return Fraction(1, den)


def certify_mix(seed: int) -> Iterator[Query]:
    """Chains in a fixed rotation of kinds; every query of a chain shares its
    spec.  The masses for i <= 3 form one query, the chain's mass verdict."""
    rotation = ("decreasing", "nonstat", "ak", "nonstat")
    for c in itertools.count():
        kind = rotation[c % len(rotation)]
        st = Strata(seed, kind, c // len(rotation) if kind != "nonstat" else c // 2)
        if kind == "ak":
            chain = random_ak(st)
        elif kind == "decreasing":
            chain = random_decreasing(st)
        else:
            chain = random_nonstat(st, st.idx)
        spec = chain.spec()
        yield Query(
            "masses",
            f"masses i<=3 {chain}",
            call=lambda spec=spec: B.classify_ergodic_measures(spec, 3),
            check=lambda r, chain=chain, spec=spec: [
                msg for e in r.entries for msg in _check_mass(chain, spec, e.index, e.mass)
            ],
            series=lambda r: [result_tuple(e.mass) for e in r.entries],
            digest=lambda r: ";".join(result_digest(e.mass) for e in r.entries),
        )
        cyls = [B.EndVertex(m, j) for m, j in GRID]
        yield Query(
            "cylinder-grid",
            f"grid {chain}",
            call=lambda spec=spec, cyls=cyls: [B.extended_cylinder_measure(spec, 1, cyl) for cyl in cyls],
            check=lambda r, chain=chain: _check_grid(chain, r),
            series=lambda r: [result_tuple(x) for x in r],
            digest=lambda r: ";".join(map(result_digest, r)),
        )
        if chain.stationary:
            yield Query(
                "eigen-grid",
                f"eigen grid {chain}",
                call=lambda spec=spec, chain=chain, cyls=cyls: B.compare_eigen_vs_extension(spec, 1, eigenpair(chain, spec), cyls),
                check=lambda r, chain=chain: [
                    f"eigen grid of {chain}: {e.cylinder} {e.verdict}" for e in r.entries if e.verdict == "mismatch"
                ],
                series=lambda r: [result_tuple(e.extension) for e in r.entries],
                digest=lambda r: ";".join(e.verdict for e in r.entries),
            )
        # normalized vectors only where the mass is finite and exact (ak with
        # k >= 2, decided by the formula here): on the other finite chains they
        # raise a known TypeError, and ``defect_probes`` counts that instead
        if chain.kind == "ak" and chain.mass() is not None:
            window = B.Truncation(5, 5)

            def vectors(spec=spec, window=window):
                mv = B.extend_odometer(spec, 1).normalize().measure_vectors(window)
                return B.check_tail_invariance(spec, mv, window)

            yield Query(
                "normalized-vectors",
                f"normalized vectors {chain}",
                call=vectors,
                check=lambda r, chain=chain: [] if r.ok else [f"normalized vectors of {chain} not invariant: {r.failures[:3]}"],
                digest=lambda r: f"{r.ok}|{r.checked_rows}",
            )


def _vectors_probe(chain: Chain) -> Query:
    spec = chain.spec()
    window = B.Truncation(5, 5)

    def vectors():
        mv = B.extend_odometer(spec, 1).normalize().measure_vectors(window)
        return B.check_tail_invariance(spec, mv, window)

    return Query(
        "probe normalized-vectors",
        f"normalized vectors {chain}",
        call=vectors,
        check=lambda r: [] if r.ok else [f"normalized vectors of {chain} not invariant: {r.failures[:3]}"],
    )


def _finite_probe(mat) -> Query:
    return Query(
        "probe finite",
        f"finite {mat}",
        call=lambda: B.measures_finite_stationary(mat),
        check=lambda ms: _check_finite(mat, ms),
    )


def defect_probes(seed: int, count: int = 16) -> dict[str, list[Query]]:
    """Seeded inputs that hit the two known defects, by the per-layer metric
    that counts how many of them still fail.  The timed streams leave these
    inputs out, since no timed query may fail; a fix shows here.

    - ``extension.vectors_failed``: finite decreasing tables and geometric or
      polynomial level sequences, whose mass is not exact, so normalized
      ``measure_vectors`` raises ``TypeError``;
    - ``finite_stationary.failed``: random valid matrices of size 3-12 with
      tied class radii, on which ``measures_finite_stationary`` raises
      ``ToleranceError``.
    """
    # every generated decreasing table and every geometric or polynomial
    # sequence has finite mass
    chains = []
    for idx in range(count):
        st = Strata(seed, "probe", idx)
        chains.append(random_decreasing(st) if idx % 2 else random_nonstat(st, 2 + idx // 2 % 2))
    rng = _rng(seed, "probe", "finite")
    mats = []
    while len(mats) < count:
        mat = _valid_matrix(rng, rng.randint(3, 12))
        if radii_tied(mat):
            mats.append(mat)
    return {
        "extension.vectors_failed": [_vectors_probe(chain) for chain in chains],
        "finite_stationary.failed": [_finite_probe(mat) for mat in mats],
    }


# ---------------------------------------------------------------------------
# orbit-walk
# ---------------------------------------------------------------------------

TAGS = (("left",), ("right",), ("middle",), ("left", "right"))


def _check_tower(chain: Chain, spec, n_top: int, v: int, steps: int, report) -> list:
    if report.steps_done != steps or not report.aborted:
        return [f"tower orbit into ({n_top},{v}) of {chain}: {report.steps_done} steps, aborted={report.aborted}"]
    window = B.Truncation(n_top, v + n_top + 2)
    bad = []
    for entry in report.entries:
        m, j = entry.cylinder.length, entry.cylinder.index
        tel = B.telescope(spec, [0, m, n_top], window)
        paths = {(row, col): c for row, col, c in tel.levels[1]}.get((v, j), 0)
        if entry.empirical * steps != paths:
            bad.append(f"tower orbit ({n_top},{v}) of {chain}: cylinder ({m},{j}) visited {entry.empirical * steps}, paths {paths}")
    return bad


def _check_deep(chain: Chain, steps: int, report) -> list:
    bad = []
    if report.steps_done != steps or report.aborted:
        bad.append(f"deep orbit of {chain}: {report.steps_done}/{steps} steps, aborted={report.aborted}")
    mass = chain.mass()
    for entry in report.entries:
        want = chain.extension_value(entry.cylinder.length, entry.cylinder.index) / mass
        if entry.theoretical != want:
            bad.append(f"deep orbit of {chain}: cylinder {entry.cylinder} theory {entry.theoretical} != {want}")
    return bad


def _orbit_digest(r) -> str:
    return f"{r.steps_done}|{r.aborted}|" + ";".join(f"{_fr(e.empirical)}:{_fr(e.theoretical)}" for e in r.entries)


def _towers() -> list:
    """Every (chain, tags, N, v) whose tower into (N, v) has 50..2000 paths,
    cheapest first."""
    out = []
    for a in range(2, 6):
        for k in range(1, a):
            chain = Chain("ak", a=a, k=k)
            for tags in TAGS:
                if "middle" in tags and a - k < 2:
                    continue  # a middle order needs two vertical edges
                for n_top in range(3, 9):
                    for v in (1, 2, 3):
                        steps = chain.heights(n_top, v)[v]
                        if 50 <= steps <= 2000:
                            out.append((steps, chain, tags, n_top, v))
    out.sort(key=lambda t: (t[0], t[1].a, t[1].k, t[2], t[3], t[4]))
    return out


def orbit_walk(seed: int) -> Iterator[Query]:
    """Three full-tower orbits, then one deep orbit, repeated."""
    towers = _towers()
    for q in itertools.count():
        if q % 4 < 3:
            st = Strata(seed, "tower", q - q // 4)
            steps, chain, tags, n_top, v = towers[st.randint("tower", 0, len(towers) - 1)]
            order = B.QuasiStationary(default=tags)
            spec = chain.spec()
            cyls = [B.EndVertex(m, j) for m in range(1, n_top) for j in range(v, v + n_top - m + 1)]

            def tower(spec=spec, order=order, n_top=n_top, v=v, steps=steps, cyls=cyls):
                start = B.minimal_path_into(spec, order, n_top, v)
                return B.orbit_frequencies(spec, order, start, steps, cyls)

            yield Query(
                "tower-orbit",
                f"tower orbit ({n_top},{v}) {chain} {tags}",
                call=tower,
                check=lambda r, chain=chain, spec=spec, n_top=n_top, v=v, steps=steps: _check_tower(
                    chain, spec, n_top, v, steps, r
                ),
                digest=_orbit_digest,
            )
        else:
            st = Strata(seed, "deep", q // 4)
            a = st.randint("a", 4, 7)
            chain = Chain("ak", a=a, k=st.randint("k", 2, a - 2))  # k >= 2: finite mass, so it normalizes
            tags = st.choice("tags", TAGS)
            order = B.QuasiStationary(default=tags)
            depth = (16, 32, 64)[st.idx % 3]
            steps = st.randint("steps", 1000, 2000)
            spec = chain.spec()
            # diagonal edges lower the index going up, so no path of this
            # orbit starts above vertex 1 + depth
            window = B.Truncation(depth, depth + 2)
            cyls = [B.EndVertex(m, j) for m in range(3) for j in (1, 2, 3)]

            def deep(spec=spec, order=order, depth=depth, steps=steps, cyls=cyls, window=window):
                start = B.vertical_path(spec, 1, depth)
                measure = B.extend_odometer(spec, 1).normalize()
                return B.orbit_frequencies(spec, order, start, steps, cyls, measure, window)

            yield Query(
                "deep-orbit",
                f"deep orbit depth={depth} {chain} {tags}",
                call=deep,
                check=lambda r, chain=chain, steps=steps: _check_deep(chain, steps, r),
                series=lambda r: [(FINITE, e.theoretical is not None) for e in r.entries],
                digest=_orbit_digest,
            )


# ---------------------------------------------------------------------------
# structure-scan
# ---------------------------------------------------------------------------


def _structure_chain(st: Strata, large: bool) -> Chain:
    """Families in rotation.  At large levels only families whose heights
    grow geometrically (operands of a few thousand bits): growing level
    multiplicities reach millions of bits by level 2000."""
    pick = st.idx % 3
    if pick == 0:
        return Chain("ak", a=st.randint("a", 3, 5), k=st.randint("k", 1, 2)) if large else random_ak(st)
    if pick == 1:
        return random_decreasing(st)
    if large:
        return Chain("nonstat", levels=("constant", st.randint("c", 2, 4)))
    return random_nonstat(st, st.idx // 3)


def _check_heights(chain: Chain, n: int, width: int, hv) -> list:
    want = chain.heights(n, width)
    got = {v: hv.values[v] for v in range(1, width + 1)}
    return [] if got == want else [f"heights level {n} of {chain} differ from the closed form"]


def _check_telescope(chain: Chain, spec, pts, window, tel) -> list:
    bad = []
    n1, n2 = pts[1], pts[2]
    h1 = chain.heights(n1, window.max_vertex)
    h2 = chain.heights(n2, window.max_vertex)
    lvl0, lvl1 = {}, {}
    for v, w, c in tel.levels[0]:
        lvl0[v] = lvl0.get(v, 0) + c
    for v, w, c in tel.levels[1]:
        lvl1[v] = lvl1.get(v, 0) + c * h1[w]
    for v, total in lvl0.items():
        if total != h1[v]:
            bad.append(f"telescope {pts} of {chain}: row {v} of block 0 sums to {total}, height {h1[v]}")
    for v, total in lvl1.items():
        if total != h2[v]:
            bad.append(f"telescope {pts} of {chain}: row {v} composes to {total}, height {h2[v]}")
    for v in sorted(lvl0)[:2]:
        try:
            brute = B.count_paths_bruteforce(spec, B.VertexId(n1, v), window, 100_000)
        except B.WorkBudgetError:
            continue
        if brute != lvl0[v]:
            bad.append(f"telescope {pts} of {chain}: brute force {brute} != {lvl0[v]} at ({n1},{v})")
    return bad


def _reach_into(mat, targets) -> set:
    """Vertices (1-based) with a path in G(A) into ``targets``."""
    _, reach = _classes(mat)
    return {i + 1 for i, seen in enumerate(reach) if not seen.isdisjoint(targets)}


def _check_finite(mat, measures) -> list:
    if not measures:
        return [f"matrix {mat}: no ergodic measure"]
    bad = []
    size = len(mat)
    for meas in measures:
        xi = meas.xi_normalized
        lam = meas.lam
        if abs(sum(xi) - 1) > 1e-9 or min(xi) < 0:
            bad.append(f"matrix {mat}: xi not a probability vector")
        scale = max(abs(x) for x in xi)
        for i in range(size):
            res = sum(mat[i][j] * xi[j] for j in range(size)) - lam * xi[i]
            if abs(res) > 1e-8 * max(scale, 1) * max(lam, 1):
                bad.append(f"matrix {mat}: residual {res} at row {i + 1}")
                break
        cls = [v - 1 for v in B.decompose(mat).classes[meas.data.class_index]]
        support = {v for v in range(1, size + 1) if xi[v - 1] > 0}
        if support != _reach_into(mat, cls):
            bad.append(f"matrix {mat}: support {sorted(support)} is not the access set")
    return bad


def structure_scan(seed: int) -> Iterator[Query]:
    """A fixed round of ten fresh inputs: two heights at levels 1500-2000
    (the slowest fifth, so p90 sits mid-class), one at 100-1500, one
    telescope, an invariance check and its perturbed copy, two eigen
    verifications and two finite stationary classifications."""
    plan = ("heights-large", "finite", "invariance", "verify", "telescope")
    plan += ("heights-large", "heights", "invariance-perturbed", "finite", "verify")
    counters = dict.fromkeys(plan, 0)
    for r in itertools.count():
        for slot, kind in enumerate(plan):
            qrng = _rng(seed, "round", r, slot)
            st = Strata(seed, kind, counters[kind])
            counters[kind] += 1
            if kind.startswith("heights"):
                chain = _structure_chain(st, large=True)
                n = st.randint("level", 1500, 2000) if kind == "heights-large" else st.randint("level", 100, 1500)
                width = st.randint("width", 4, 12)
                spec = chain.spec()
                yield Query(
                    "heights",
                    f"heights level {n} {chain}",
                    call=lambda spec=spec, n=n, width=width: B.heights(spec, n, B.Truncation(n, width)),
                    check=lambda hv, chain=chain, n=n, width=width: _check_heights(chain, n, width, hv),
                    digest=lambda hv: repr(sorted(hv.values.items())),
                )
            elif kind == "telescope":
                chain = _structure_chain(st, large=False)
                n1 = st.randint("n1", 2, 6)
                n2 = n1 + st.randint("n2", 4, 24)
                window = B.Truncation(n2, n2 + st.randint("width", 3, 6))
                spec = chain.spec()
                yield Query(
                    "telescope",
                    f"telescope 0,{n1},{n2} {chain}",
                    call=lambda spec=spec, pts=(0, n1, n2), window=window: B.telescope(spec, pts, window),
                    check=lambda t, chain=chain, spec=spec, pts=(0, n1, n2), window=window: _check_telescope(
                        chain, spec, pts, window, t
                    ),
                    digest=lambda t: repr(t.levels),
                )
            elif kind.startswith("invariance"):
                chain = random_ak(st) if st.idx % 2 else random_decreasing(st)
                spec = chain.spec()
                size = st.randint("size", 10, 24)
                window = B.Truncation(size, size)
                perturbed = kind == "invariance-perturbed"
                where = (qrng.randint(1, size - 1), qrng.randint(1, size - 1))

                def invariance(spec=spec, chain=chain, window=window, perturbed=perturbed, where=where):
                    mv = B.eigen_measure(spec, eigenpair(chain, spec), window).measure_vectors(window)
                    if perturbed:
                        mv = mv.perturbed(*where, Fraction(1, 10**12))
                    return B.check_tail_invariance(spec, mv, window)

                yield Query(
                    kind,
                    f"{kind} {window} {chain}",
                    call=invariance,
                    check=lambda rep, perturbed=perturbed, chain=chain: (
                        [] if rep.ok != perturbed else [f"{'perturbed' if perturbed else 'eigen'} vectors of {chain}: ok={rep.ok}"]
                    ),
                    digest=lambda rep: f"{rep.ok}|{rep.checked_rows}|{rep.failures}",
                )
            elif kind == "verify":
                if st.idx % 2:
                    chain, rows = random_ak(st), st.randint("rows-ak", 500, 3000)
                else:
                    # decreasing pairs cost far more per row: their entries are running products
                    chain, rows = random_decreasing(st), st.randint("rows-decreasing", 40, 160)
                spec = chain.spec()

                def verify(spec=spec, chain=chain, rows=rows):
                    return B.verify_eigenpair(spec, eigenpair(chain, spec), B.Truncation(4, rows))

                yield Query(
                    "verify",
                    f"verify {rows} rows {chain}",
                    call=verify,
                    check=lambda rep, rows=rows, chain=chain: (
                        [] if rep.verified and len(rep.residuals) == rows else [f"eigenpair of {chain} rejected over {rows} rows"]
                    ),
                    digest=lambda rep: f"{rep.verified}|{len(rep.residuals)}",
                )
            else:
                mat = random_matrix(qrng, st.randint("size", 3, 12))
                yield Query(
                    "finite",
                    f"finite {mat}",
                    call=lambda mat=mat: B.measures_finite_stationary(mat),
                    check=lambda ms, mat=mat: _check_finite(mat, ms),
                    digest=lambda ms: ";".join(f"{m.data.class_index}:{m.lam:.9g}" for m in ms),
                )


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

SUBCOMMANDS = (
    "diagram show",
    "diagram heights",
    "telescope",
    "measure classify",
    "measure extend",
    "measure cylinder",
    "measure check-invariance",
    "eigen verify",
    "eigen measure",
    "eigen compare",
    "finite classify",
    "vershik classify",
    "vershik orbit",
)
# exit 3 (uncertified) is an honest answer for these; elsewhere only 0 is
MAY_BE_UNCERTIFIED = {"measure classify", "measure extend", "measure cylinder", "eigen compare"}


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str


def _cli_argv(command: str, rng: random.Random, st: Strata) -> list[str]:
    # families alternate within each round and, per command, between rounds
    chain = random_ak(st) if (st.idx + SUBCOMMANDS.index(command)) % 2 else random_decreasing(st)
    levels = st.randint("levels", 4, 8)
    win = ["--max-level", str(levels), "--max-vertex", str(st.randint("vertices", 4, 8))]
    fam = chain.cli_args() + win
    cyls = ";".join(f"({st.randint(f'm{c}', 0, 3)},{st.randint(f'j{c}', 1, 4)})" for c in range(st.randint("cyls", 2, 5)))
    args = {
        "diagram show": fam + ["--level", str(st.randint("level", 0, 3))],
        "diagram heights": fam + ["--level", str(st.randint("level", 2, min(5, levels))), "--verify-bruteforce"],
        "telescope": fam + ["--breakpoints", f"0,{st.randint('n1', 1, 2)},{st.randint('n2', 3, 4)}"],
        "measure classify": fam + ["--imax", str(st.randint("imax", 2, 4))],
        "measure extend": fam + ["--i", "1", "--trace", str(st.randint("trace", 2, 6))],
        "measure cylinder": fam + ["--cylinders", cyls],
        "measure check-invariance": fam,
        "eigen verify": fam + ["--rows", str(st.randint("rows", 20, 80))],
        "eigen measure": fam + ["--cylinders", cyls],
        "eigen compare": fam + ["--mmax", str(st.randint("mmax", 1, 2)), "--jmax", str(st.randint("jmax", 2, 3))],
        "finite classify": ["--matrix", json.dumps(random_matrix(rng, st.randint("size", 3, 6)))],
        "vershik classify": fam + ["--tags", st.choice("tags", ("all-left", "all-right", "all-middle", "alternating")), "--imax", "5"],
        "vershik orbit": fam + ["--tags", st.choice("tags", ("all-left", "all-right", "alternating")), "--steps", str(st.randint("steps", 10, 60))],
    }[command]
    return ["--format", "json", *command.split(), *args]


def _series_docs(doc) -> list:
    out = []
    if isinstance(doc, dict):
        if doc.get("status") in (FINITE, INFINITE, UNDETERMINED) and "partial_sum" in doc:
            out.append((doc["status"], "exact_value" in doc))
        for val in doc.values():
            out.extend(_series_docs(val))
    elif isinstance(doc, list):
        for val in doc:
            out.extend(_series_docs(val))
    return out


def _check_cli(command: str, out: CliOutcome) -> list:
    if out.code in (1, 2):
        return []  # counted as a failure, not a wrong answer
    allowed = (0, 3) if command in MAY_BE_UNCERTIFIED else (0,)
    if out.code not in allowed:
        return [f"{command}: exit {out.code}, expected one of {allowed}: {out.stderr.strip()[:200]}"]
    try:
        doc = json.loads(out.stdout)
    except ValueError as exc:
        return [f"{command}: output is not JSON ({exc})"]
    if doc.get("command") != command:
        return [f"{command}: report names command {doc.get('command')!r}"]
    if command == "eigen compare" and any(e["verdict"] == "mismatch" for e in doc["entries"]):
        return [f"{command}: eigen and extension values disagree"]
    return []


def _cli_series(out: CliOutcome) -> list:
    if out.code not in (0, 3):
        return []
    return _series_docs(json.loads(out.stdout))


class CliRunner:
    """Runs one CLI invocation: as a child process, or in process through
    ``bratteli.cli.main`` for the traced run."""

    def __init__(self, root: str, in_process: bool, tracer=None):
        self.root = root
        self.in_process = in_process
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")

    def __call__(self, argv: list[str]) -> CliOutcome:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = B.cli.main(argv)
                except SystemExit as exc:  # argparse rejects its input this way
                    code = exc.code if isinstance(exc.code, int) else 2
            text = out.getvalue()
            if self.tracer is not None:
                self.tracer.add_cli_output(len(text.encode()))
            return CliOutcome(code, text, err.getvalue())
        proc = subprocess.run(
            [sys.executable, "-m", "bratteli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return CliOutcome(proc.returncode, proc.stdout, proc.stderr)


def cli_session(seed: int, runner: CliRunner) -> Iterator[Query]:
    """Every subcommand once per round, in a seeded order."""
    for r in itertools.count():
        order = list(SUBCOMMANDS)
        _rng(seed, "round", r).shuffle(order)
        for command in order:
            argv = _cli_argv(command, _rng(seed, "round", r, command), Strata(seed, command, r))
            yield Query(
                "cli " + command,
                " ".join(argv),
                call=lambda argv=argv: runner(argv),
                check=lambda out, command=command: _check_cli(command, out),
                series=_cli_series,
                digest=lambda out: f"{out.code}|{out.stdout}",
                failure=lambda out: f"exit {out.code}: {out.stderr.strip()[-160:]}" if out.code in (1, 2) else None,
            )


def stream(name: str, seed: int, root: str, in_process_cli: bool = False, tracer=None) -> Iterator[Query]:
    if name == "certify-mix":
        return certify_mix(seed)
    if name == "orbit-walk":
        return orbit_walk(seed)
    if name == "structure-scan":
        return structure_scan(seed)
    if name == "cli-session":
        return cli_session(seed, CliRunner(root, in_process_cli, tracer))
    raise ValueError(f"unknown workload {name!r}")


def warm_up(name: str, root: str, in_process_cli: bool = False) -> None:
    """Touch each query type once on a tiny fixed input, so lazy imports
    and first-call costs land in set-up, not in the timed loop."""
    spec = B.StationaryAK(4, 2)
    if name == "cli-session":
        CliRunner(root, in_process_cli)(["--format", "json", "diagram", "show", "--family", "ak", "--a", "4", "--k", "2"])
        return
    window = B.Truncation(3, 3)
    B.odometer_extension_mass(spec, 1)
    B.compare_eigen_vs_extension(spec, 1, B.eigenvector_ak(4, 2), [B.EndVertex(1, 2)])
    B.check_tail_invariance(spec, B.extend_odometer(spec, 1).normalize().measure_vectors(window), window)
    order = B.QuasiStationary(default=("left",))
    B.orbit_frequencies(spec, order, B.minimal_path_into(spec, order, 3, 1), 10, [B.EndVertex(1, 1)])
    B.heights(spec, 3, window)
    B.telescope(spec, [0, 1, 3], window)
    B.verify_eigenpair(spec, B.eigenvector_ak(4, 2), window)
    B.measures_finite_stationary([[2, 1], [1, 2]])
