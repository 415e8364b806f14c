"""Constructive eigenpairs, exact verification, induced measures.

Core claims:
    - the two-parameter chain has lam = a, xi_i = k^-(i-1) (all ones at k=1)
    - the decreasing chain has lam = a_m and running-product entries, with
      m-1 leading zeros for shifted dominance
    - verification is an exact residual per row; constructed pairs verify to
      zero on any window, wrong vectors do not
    - eigen measures evaluate xi_v / lam^m, pass tail invariance, scale
      linearly, and coincide with extension measures on cylinder grids
"""

import random
from fractions import Fraction

import pytest

from bratteli.diagram import (
    NonStationaryUniform,
    StationaryAK,
    StationaryDecreasing,
    Truncation,
    heights,
)
from bratteli.extension import odometer_extension_mass
from bratteli.measure import EndVertex, check_tail_invariance
from bratteli.sequences import Constant, Table
from bratteli.spectral import (
    EigenError,
    EigenPair,
    compare_eigen_vs_extension,
    eigen_measure,
    eigenvector_ak,
    eigenvector_decreasing,
    verify_eigenpair,
)

DEC53 = Table((5, 3), Constant(2))


# -- constructions --------------------------------------------------------------


def test_ak_eigenvector_values():
    pair = eigenvector_ak(4, 2)
    assert pair.lam == 4
    assert [pair.xi(i) for i in (1, 2, 3)] == [1, Fraction(1, 2), Fraction(1, 4)]
    ones = eigenvector_ak(3, 1)
    assert ones.lam == 3
    assert all(ones.xi(i) == 1 for i in range(1, 6))


def test_ak_row_equation_row2():
    a, k = 4, 2
    pair = eigenvector_ak(a, k)
    assert pair.xi(1) + (a - k) * pair.xi(2) == a * pair.xi(2)


def test_ak_parameter_guards():
    with pytest.raises(EigenError):
        eigenvector_ak(3, 2)  # a - k = 1
    with pytest.raises(EigenError):
        eigenvector_ak(4, 0)


def test_decreasing_eigenvector_values():
    pair = eigenvector_decreasing(DEC53, 1)
    assert pair.lam == 5
    assert [pair.xi(i) for i in (1, 2, 3, 4)] == [
        1,
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 18),
    ]


def test_decreasing_shifted():
    diag = Table((6, 4, 3), Constant(2))
    pair = eigenvector_decreasing(diag, 2)
    assert pair.lam == 4
    assert [pair.xi(i) for i in (1, 2, 3, 4, 5)] == [
        0,
        1,
        1,
        Fraction(1, 2),
        Fraction(1, 4),
    ]


def test_decreasing_dominance_guard():
    with pytest.raises(EigenError):
        eigenvector_decreasing(Table((5, 4), Constant(4)), 2)  # a_2 = a_3


# -- verification ----------------------------------------------------------------


@pytest.mark.parametrize("a,k", [(4, 2), (5, 2), (7, 4), (10, 8), (6, 1)])
def test_ak_pairs_verify_to_100_rows(a, k):
    spec = StationaryAK(a, k)
    report = verify_eigenpair(spec, eigenvector_ak(a, k), Truncation(4, 100))
    assert report.verified
    assert all(res == 0 for res in report.residuals.values())


def test_decreasing_pairs_verify():
    spec = StationaryDecreasing(DEC53)
    report = verify_eigenpair(spec, eigenvector_decreasing(DEC53, 1), Truncation(4, 100))
    assert report.verified
    diag = Table((6, 4, 3), Constant(2))
    spec2 = StationaryDecreasing(diag)
    report2 = verify_eigenpair(spec2, eigenvector_decreasing(diag, 2), Truncation(4, 100))
    assert report2.verified


def test_wrong_vector_fails_with_exact_residual():
    spec = StationaryAK(4, 2)
    ones = EigenPair(Fraction(4), lambda i: Fraction(1), "ones")
    report = verify_eigenpair(spec, ones, Truncation(3, 10))
    assert not report.verified
    assert report.residuals[2] == 1 + 2 - 4  # xi_1 + (a-k) xi_2 - a xi_2


def test_eigen_measure_rejects_unverified():
    spec = StationaryAK(4, 2)
    with pytest.raises(EigenError):
        eigen_measure(spec, EigenPair(Fraction(4), lambda i: Fraction(1), "ones"))


# -- induced measures --------------------------------------------------------------


def test_eigen_measure_values():
    spec = StationaryAK(4, 2)
    em = eigen_measure(spec, eigenvector_ak(4, 2))
    assert em.cylinder_value(EndVertex(0, 2)) == Fraction(1, 2)
    assert em.cylinder_value(EndVertex(3, 1)) == Fraction(1, 64)
    assert em.cylinder_value(EndVertex(0, 1)) == 1


def test_eigen_measures_pass_invariance():
    cases = [
        (StationaryAK(4, 2), eigenvector_ak(4, 2)),
        (StationaryAK(6, 1), eigenvector_ak(6, 1)),
        (StationaryDecreasing(DEC53), eigenvector_decreasing(DEC53, 1)),
    ]
    window = Truncation(7, 12)
    for spec, pair in cases:
        mv = eigen_measure(spec, pair, window).measure_vectors(window)
        assert check_tail_invariance(spec, mv, window).ok


def test_scaling_scales_every_cylinder():
    spec = StationaryAK(5, 3)
    pair = eigenvector_ak(5, 3)
    factor = Fraction(7, 3)
    em = eigen_measure(spec, pair)
    em_scaled = eigen_measure(spec, pair.scaled(factor))
    rng = random.Random(5)
    for _ in range(25):
        cyl = EndVertex(rng.randint(0, 6), rng.randint(1, 8))
        assert em_scaled.cylinder_value(cyl) == factor * em.cylinder_value(cyl)


def test_level_sums_approach_total_mass():
    # sum over level-m cylinders of count * value climbs to the total mass
    spec = StationaryAK(4, 2)
    em = eigen_measure(spec, eigenvector_ak(4, 2))
    mass = odometer_extension_mass(spec, 1).exact_value
    m = 2
    hv = heights(spec, m, Truncation(m + 1, 30))
    totals = []
    for j_cap in (5, 10, 25):
        totals.append(
            sum(hv.value(j) * em.cylinder_value(EndVertex(m, j)) for j in range(1, j_cap + 1))
        )
    assert totals == sorted(totals)
    assert all(t <= mass for t in totals)
    assert mass - totals[-1] < Fraction(1, 10**6)


# -- eigen vs extension --------------------------------------------------------------


def test_compare_ak_grid():
    spec = StationaryAK(4, 2)
    cyls = [EndVertex(m, j) for m in range(6) for j in range(1, 6)]
    report = compare_eigen_vs_extension(spec, 1, eigenvector_ak(4, 2), cyls)
    assert report.all_equal
    for e in report.entries:
        assert e.eigen_value == Fraction(1, 2 ** (e.cylinder.index - 1) * 4**e.cylinder.length)
        assert e.verdict == "equal-exact"


def test_compare_decreasing_within_tail():
    spec = StationaryDecreasing(DEC53)
    pair = eigenvector_decreasing(DEC53, 1)
    cyls = [EndVertex(m, j) for m in range(4) for j in range(1, 5)]
    report = compare_eigen_vs_extension(spec, 1, pair, cyls, max_terms=400)
    assert report.all_equal
    assert all(e.verdict == "equal-exact" for e in report.entries)
    entry = next(e for e in report.entries if e.cylinder == EndVertex(2, 2))
    assert entry.eigen_value == Fraction(1, 50)


def test_compare_k1_sigma_finite():
    spec = StationaryAK(4, 1)
    cyls = [EndVertex(m, j) for m in range(4) for j in range(1, 5)]
    report = compare_eigen_vs_extension(spec, 1, eigenvector_ak(4, 1), cyls)
    assert report.all_equal
    assert all(e.eigen_value == Fraction(1, 4**e.cylinder.length) for e in report.entries)


def test_compare_flags_infinite_undetermined_and_different_values():
    cyls = [EndVertex(0, 3), EndVertex(0, 5), EndVertex(1, 2)]
    report = compare_eigen_vs_extension(StationaryAK(4, 2), 2, eigenvector_ak(4, 2), cyls, max_terms=2)
    got = {e.cylinder: (e.extension.status, e.verdict) for e in report.entries}
    assert got == {
        EndVertex(0, 3): ("infinite", "mismatch"),
        EndVertex(0, 5): ("undetermined", "skipped-undetermined"),
        EndVertex(1, 2): ("finite", "mismatch"),
    }
    finite = report.entries[2]
    assert finite.extension.exact_value != finite.eigen_value
    assert not report.all_equal


def test_eigen_ops_require_stationary_chain():
    nonstat = NonStationaryUniform(Constant(2))
    with pytest.raises(EigenError):
        verify_eigenpair(nonstat, eigenvector_ak(4, 2), Truncation(3, 5))
    with pytest.raises(EigenError):
        compare_eigen_vs_extension(nonstat, 1, eigenvector_ak(4, 2), [EndVertex(0, 1)])
