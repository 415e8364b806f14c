"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred.
"""

import random
import time
from fractions import Fraction

import numpy as np

from bratteli.diagram import (
    NonStationaryUniform,
    StationaryAK,
    StationaryDecreasing,
    StationaryIncreasing,
    Truncation,
    VertexId,
    WorkBudgetError,
    count_paths_bruteforce,
    heights,
)
from bratteli.extension import (
    FINITE,
    INFINITE,
    classify_ergodic_measures,
    closed_form_oracles,
    odometer_extension_mass,
    extend_odometer,
    extended_cylinder_measure,
)
from bratteli.finite_stationary import (
    decompose,
    distinguished_classes,
    measures_finite_stationary,
)
from bratteli.measure import (
    DIAGONAL,
    VERTICAL,
    EndVertex,
    ExplicitPath,
    MeasureVectors,
    check_tail_invariance,
)
from bratteli.orders import (
    ALEPH0,
    LEFT,
    MIDDLE,
    RIGHT,
    QuasiStationary,
    extension_verdict,
    orbit_frequencies,
    vertical_path,
)
from bratteli.sequences import Constant, Geometric, Polynomial, Table
from bratteli.spectral import (
    compare_eigen_vs_extension,
    eigen_measure,
    eigenvector_ak,
    eigenvector_decreasing,
    verify_eigenpair,
)

from test_finite_stationary import CORPUS, brute_distinguished


def report(num: int, ok: bool, text: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


GRID = [(a, k) for a in range(3, 11) for k in range(2, a - 1)]


def test_criterion_1_closed_form_masses():
    ok = True
    worst = 0.0
    for a, k in GRID:
        t0 = time.monotonic()
        res = odometer_extension_mass(StationaryAK(a, k), 1, 2000)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        ok = ok and res.status == FINITE and res.contains(1 + Fraction(1, k - 1)) and elapsed < 1.0
    for a in range(3, 11):
        res = odometer_extension_mass(StationaryAK(a, 1), 1, 2000)
        ok = ok and res.status == INFINITE
    report(1, ok, f"masses exactly 1 + 1/(k-1) on the grid, infinite at k=1 (worst {worst:.3f}s/pair)")


def test_criterion_2_heights_law():
    ok = True
    for a, k in GRID:
        spec = StationaryAK(a, k)
        window = Truncation(31, 6)
        for n in (1, 7, 30):
            hv = heights(spec, n, window)
            ok = ok and all(hv.value(i) == (a - k + 1) ** n for i in range(2, 7))
    enumerated = 0
    for a, k in GRID:
        if (a - k + 1) ** 10 > 200_000:
            continue
        spec = StationaryAK(a, k)
        try:
            count = count_paths_bruteforce(spec, VertexId(10, 2), Truncation(11, 14), budget=200_000)
        except WorkBudgetError:
            continue
        enumerated += 1
        ok = ok and count == (a - k + 1) ** 10
    ok = ok and enumerated >= 1
    report(2, ok, f"H^(n)_i = (a-k+1)^n exactly to n=30; {enumerated} grid pairs re-counted by enumeration")


def test_criterion_3_eigen_verification():
    ak_sets = [(4, 2), (5, 2), (6, 1), (7, 4), (10, 8)]
    ok = True
    for a, k in ak_sets:
        rep = verify_eigenpair(StationaryAK(a, k), eigenvector_ak(a, k), Truncation(4, 100))
        ok = ok and rep.verified and len(rep.residuals) == 100
    dec_sets = [
        (Table((5, 3), Constant(2)), 1),
        (Table((7, 3), Constant(2)), 1),
        (Table((9, 5, 4), Constant(2)), 1),
        (Table((6,), Constant(4)), 1),
        (Table((6, 4, 3), Constant(2)), 2),  # shifted: lambda = a_2
    ]
    shifted_seen = False
    for diag, m in dec_sets:
        pair = eigenvector_decreasing(diag, m)
        rep = verify_eigenpair(StationaryDecreasing(diag), pair, Truncation(4, 100))
        ok = ok and rep.verified and len(rep.residuals) == 100
        shifted_seen = shifted_seen or (m > 1 and pair.xi(1) == 0)
    ok = ok and shifted_seen
    report(3, ok, "zero residuals on rows 1..100 for 5+5 parameter sets incl. one shifted pair")


def test_criterion_4_measure_equality():
    cyls = [EndVertex(m, j) for m in range(9) for j in range(1, 9)]
    ok = True
    for a, k in [(4, 2), (5, 3), (7, 2)]:
        rep = compare_eigen_vs_extension(StationaryAK(a, k), 1, eigenvector_ak(a, k), cyls, 600)
        ok = ok and rep.all_equal
        for e in rep.entries:
            want = Fraction(1, k ** (e.cylinder.index - 1) * a**e.cylinder.length)
            ok = ok and e.eigen_value == want
    diag = Table((5, 3), Constant(2))
    pair = eigenvector_decreasing(diag, 1)
    rep = compare_eigen_vs_extension(StationaryDecreasing(diag), 1, pair, cyls, 600)
    ok = ok and rep.all_equal
    for e in rep.entries:
        prod = Fraction(1)
        for l in range(2, e.cylinder.index + 1):
            prod /= 5 - diag.value(l - 1)
        ok = ok and e.eigen_value == prod / Fraction(5) ** e.cylinder.length
    report(4, ok, "eigen and extension values agree on the (m<=8, j<=8) grid, both closed forms")


def test_criterion_5_negative_results():
    inc = StationaryIncreasing()
    cls = classify_ergodic_measures(inc, 10)
    ok = cls.finite_indices == () and len(cls.infinite_indices) == 10
    for i in range(1, 11):
        res = extended_cylinder_measure(inc, i, EndVertex(0, i + 1))
        ok = ok and res.status == INFINITE
    for a, k in [(4, 2), (7, 3), (10, 2)]:
        for i in (2, 3, 6):
            ok = ok and odometer_extension_mass(StationaryAK(a, k), i).status == INFINITE
    report(5, ok, "increasing chain: no finite extensions, infinite neighbor cylinders; two-parameter chains infinite beyond odometer 1")


def test_criterion_6_nonstationary_criterion():
    cases = [
        (Constant(2), INFINITE),
        (Geometric(2, 2), FINITE),
        (Polynomial((4, 4, 1)), FINITE),
    ]
    ok = True
    for seq, want in cases:
        spec = NonStationaryUniform(seq)
        res = odometer_extension_mass(spec, 1, 2000)
        oracle = closed_form_oracles(spec)
        ok = ok and res.status == want == oracle.status
        ok = ok and res.certificate is not None
        if want == FINITE:
            ok = ok and res.tail_bound is not None and res.tail_bound >= 0
    report(6, ok, "level criterion: constant 2 diverges; 2^(n+1) and (n+2)^2 certified finite; oracle agrees")


def test_criterion_7_tail_invariance_suite():
    window = Truncation(7, 10)
    constructed = []
    for a, k in [(4, 2), (5, 3), (6, 1), (9, 4)]:
        spec = StationaryAK(a, k)
        constructed.append((spec, eigen_measure(spec, eigenvector_ak(a, k), window).measure_vectors(window)))
    diag = Table((5, 3), Constant(2))
    spec_dec = StationaryDecreasing(diag)
    constructed.append(
        (spec_dec, eigen_measure(spec_dec, eigenvector_decreasing(diag, 1), window).measure_vectors(window))
    )
    constructed.append((StationaryAK(4, 2), extend_odometer(StationaryAK(4, 2), 1).measure_vectors(window)))
    ok = all(check_tail_invariance(spec, mv, window).ok for spec, mv in constructed)

    rng = random.Random(97)
    detected = 0
    trials = 220
    for _ in range(trials):
        a = rng.randint(3, 10)
        k = rng.randint(1, a - 2)
        spec = StationaryAK(a, k)
        base = MeasureVectors.from_function(
            lambda n, i, a=a, k=k: Fraction(1, k ** (i - 1) * a**n), window
        )
        level = rng.randint(1, window.max_level)
        vertex = rng.randint(1, window.max_vertex - 1)
        bumped = base.perturbed(level, vertex, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        if not check_tail_invariance(spec, bumped, window).ok:
            detected += 1
    ok = ok and detected == trials
    report(7, ok, f"constructed measures pass exactly; {detected}/{trials} random perturbations detected")


def test_criterion_8_finite_stationary():
    ok = len(CORPUS) >= 6
    required = [[[3, 0], [1, 2]], [[2, 0], [1, 3]]]
    ok = ok and all(m in CORPUS for m in required)
    for a in CORPUS:
        dec = decompose(a)
        got = {frozenset(dec.classes[i]) for i in distinguished_classes(dec)}
        ok = ok and got == set(brute_distinguished(a))
        arr = np.array(a, dtype=float)
        ms = measures_finite_stationary(a)
        ok = ok and tuple(m.data.class_index for m in ms) == distinguished_classes(dec)
        for data in (m.data for m in ms):
            x = np.array(data.xi)
            ok = ok and float(np.max(np.abs(arr @ x - data.rho_mid * x))) <= 1e-10
            pattern_ok = all(
                (data.xi[v - 1] > 0) == (v in data.support)
                and (v in data.support or data.xi[v - 1] == 0.0)
                for v in range(1, len(a) + 1)
            )
            ok = ok and pattern_ok
    report(8, ok, f"{len(CORPUS)} matrices: distinguished classes match brute force; residuals <= 1e-10; exact support patterns")


def test_criterion_9_vershik_verdicts():
    spec = StationaryAK(4, 2)
    rng = random.Random(53)
    ok = True
    for _ in range(100):
        tags = tuple((i, rng.choice([LEFT, RIGHT, MIDDLE])) for i in range(1, rng.randint(2, 10)))
        default = (rng.choice([LEFT, RIGHT, MIDDLE]),)
        v = extension_verdict(spec, QuasiStationary(tags, default), i_max=12)

        def card(kinds):
            if default[0] in kinds:
                return ALEPH0
            return sum(1 for _, t in tags if t in kinds)

        ok = ok and v.i_fr == card({LEFT, MIDDLE}) and v.i_fl == card({RIGHT, MIDDLE})
        ok = ok and v.borel_extension == (v.i_fr == v.i_fl)
        nonempty = v.i_fr != 0 or v.i_fl != 0
        ok = ok and (v.homeomorphism == ("no-quasi-stationary" if v.borel_extension and nonempty else "no"))
    all_left = extension_verdict(spec, QuasiStationary(default=(LEFT,)))
    ok = ok and all_left.i_fr == ALEPH0 and all_left.i_fl == 0 and not all_left.borel_extension
    alt = extension_verdict(spec, QuasiStationary(default=(LEFT, RIGHT)))
    ok = ok and alt.i_fr == alt.i_fl == ALEPH0 and alt.borel_extension
    ok = ok and alt.homeomorphism == "no-quasi-stationary"
    report(9, ok, "100 random quasi-stationary verdicts match the hand rule; fixed cases agree")


def test_criterion_10_orbit_consistency():
    spec = StationaryAK(4, 2)
    order = QuasiStationary(default=(MIDDLE,))
    measure = extend_odometer(spec, 1).normalize()
    cyls = []
    for j in range(1, 7):
        for kk in range(1, spec.vertical_edges(0, j) + 1):
            cyls.append(ExplicitPath(j, ((VERTICAL, kk),)))
        cyls.append(ExplicitPath(j + 1, ((DIAGONAL, 0),)))
    t0 = time.monotonic()
    rep = orbit_frequencies(
        spec, order, vertical_path(spec, 1, 16), 10**5, cyls, measure=measure, window=Truncation(20, 40)
    )
    elapsed = time.monotonic() - t0
    ok = not rep.aborted and rep.steps_done == 10**5 and elapsed < 10.0
    worst = 0.0
    for e in rep.entries:
        err = abs(float(e.empirical) - float(e.theoretical))
        worst = max(worst, err)
    ok = ok and worst < 0.02
    report(10, ok, f"level-1 cylinder frequencies within {worst:.4f} of theory over 1e5 steps ({elapsed:.1f}s)")
