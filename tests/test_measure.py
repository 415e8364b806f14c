"""Measure vectors, cylinder evaluation, exact tail-invariance checking.

Core claims:
    - eigen-style vector families satisfy the level relation exactly
    - zero vectors pass; a single perturbed entry is detected at exactly the
      rows whose relation references it
    - odometer measures give 1/(a_0...a_{m-1}) on vertical cylinders, 0 off
      the odometer, and 1 on the empty cylinder
    - cylinders reduce to (length, end vertex); same end data, same value
    - every measure kind, the finite-stationary one included, is read by
      ``cylinder_value(cyl)``
    - a cylinder's value equals the sum over its one-level refinements
"""

import random
from fractions import Fraction

import pytest

from bratteli.diagram import (
    DiagramError,
    ExplicitFinite,
    ExplicitLevels,
    NonStationaryUniform,
    StationaryAK,
    StationaryDecreasing,
    Truncation,
    WindowError,
)
from bratteli.finite_stationary import measures_finite_stationary
from bratteli.measure import (
    DIAGONAL,
    VERTICAL,
    EndVertex,
    ExplicitPath,
    MeasureVectors,
    OdometerMeasure,
    check_tail_invariance,
)
from bratteli.sequences import Arithmetic, Constant, Table


def ak_eigen_vectors(a, k, window):
    """p^(n)_i = xi_i / a^n with xi_i = k^-(i-1): the canonical invariant family."""
    return MeasureVectors.from_function(
        lambda n, i: Fraction(1, k ** (i - 1) * a**n), window, label="ak eigen"
    )


# -- tail invariance ----------------------------------------------------------


def test_ak_eigen_family_passes():
    spec = StationaryAK(4, 2)
    window = Truncation(8, 10)
    report = check_tail_invariance(spec, ak_eigen_vectors(4, 2, window), window)
    assert report.ok
    assert report.checked_rows > 0
    assert report.first_violation is None


def test_zero_vectors_pass():
    spec = StationaryAK(5, 2)
    window = Truncation(6, 8)
    mv = MeasureVectors.from_function(lambda n, i: Fraction(0), window)
    assert check_tail_invariance(spec, mv, window).ok


def test_single_perturbation_detected_at_referencing_rows():
    spec = StationaryAK(4, 2)
    window = Truncation(6, 8)
    mv = ak_eigen_vectors(4, 2, window).perturbed(3, 2, Fraction(1))
    report = check_tail_invariance(spec, mv, window)
    # p^(3)_2 appears in its own relation (3, 2) and in the level-2 relations
    # through rows of F_2 whose support contains it: columns 2 and 3.
    assert set(report.failures) == {(3, 2), (2, 2), (2, 3)}
    assert report.levels[2] is False and report.levels[3] is False
    assert report.levels[0] is True and report.levels[4] is True


def test_perturbation_at_top_level_touches_two_rows():
    spec = StationaryAK(4, 2)
    window = Truncation(4, 8)
    mv = ak_eigen_vectors(4, 2, window).perturbed(4, 5, Fraction(1, 7))
    report = check_tail_invariance(spec, mv, window)
    assert set(report.failures) == {(3, 5), (3, 6)}


def test_random_perturbations_always_detected():
    rng = random.Random(11)
    window = Truncation(7, 9)
    for _ in range(60):
        a = rng.randint(3, 9)
        k = rng.randint(1, a - 2)
        spec = StationaryAK(a, k)
        level = rng.randint(1, window.max_level)
        vertex = rng.randint(1, window.max_vertex - 1)
        delta = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        mv = ak_eigen_vectors(a, k, window).perturbed(level, vertex, delta)
        report = check_tail_invariance(spec, mv, window)
        assert not report.ok
        assert all(f[0] in (level, level - 1) for f in report.failures)


def test_nonnegativity_enforced():
    spec = StationaryAK(4, 2)
    window = Truncation(3, 4)
    mv = MeasureVectors.from_function(lambda n, i: Fraction(-1), window)
    with pytest.raises(DiagramError):
        check_tail_invariance(spec, mv, window)


def test_explicit_finite_relation():
    spec = ExplicitFinite([[3, 0], [1, 2]])
    window = Truncation(5, 2)
    # invariant family from the distinguished pair (lambda=3, xi=(1,1)):
    mv = MeasureVectors.from_function(lambda n, i: Fraction(1, 3**n), window)
    assert check_tail_invariance(spec, mv, window).ok


def test_described_rows_past_the_width_leave_their_columns_unchecked():
    # rows 1 and 2 of F_0 both meet column 1: p^(0)_1 = p^(1)_1 + p^(1)_2
    spec, window = ExplicitLevels((((1, 1, 1), (2, 1, 1)),)), Truncation(1, 2)
    narrow = MeasureVectors.from_table({0: {1: Fraction(1)}, 1: {1: Fraction(1, 2)}})
    report = check_tail_invariance(spec, narrow, window)
    assert report.ok and report.checked_rows == 0 and report.levels == {0: True}
    full = MeasureVectors.from_table({0: {1: Fraction(1)}, 1: {1: Fraction(1, 2), 2: Fraction(1, 2)}})
    report = check_tail_invariance(spec, full, window)
    assert report.ok and report.checked_rows == 1
    bumped = MeasureVectors.from_table({0: {1: Fraction(1)}, 1: {1: Fraction(1, 2), 2: Fraction(1, 3)}})
    assert check_tail_invariance(spec, bumped, window).failures == ((0, 1),)


class _CountingRow(dict):
    """A table row that counts membership tests, the reads a width scan makes."""

    scans = 0

    def __contains__(self, key):
        _CountingRow.scans += 1
        return super().__contains__(key)


def test_table_widths_are_scanned_once():
    widths = {0: 5, 1: 3, 2: 0, 3: 4}
    table = {n: _CountingRow({i: Fraction(1, i) for i in range(1, w + 1)}) for n, w in widths.items()}
    _CountingRow.scans = 0
    mv = MeasureVectors.from_table(table)
    assert _CountingRow.scans == sum(w + 1 for w in widths.values())
    for _ in range(3):
        assert [mv.width(n) for n in range(5)] == [5, 3, 0, 4, 0]
        assert all(mv.value(n, i) == Fraction(1, i) for n, w in widths.items() for i in range(1, w + 1))
    assert _CountingRow.scans == sum(w + 1 for w in widths.values())


def test_values_outside_the_width_are_not_certified():
    mv = MeasureVectors.from_function(lambda n, i: Fraction(1, i), Truncation(2, 3))
    assert mv.value(2, 3) == Fraction(1, 3)
    for level, index in ((0, 4), (3, 1), (-1, 1), (0, 0)):
        with pytest.raises(WindowError, match=rf"entry \(level={level}, vertex={index}\) is not certified"):
            mv.value(level, index)


# -- odometer measures --------------------------------------------------------


def test_odometer_values():
    m1 = OdometerMeasure(StationaryAK(4, 2), 1)
    assert m1.cylinder_value(EndVertex(3, 1)) == Fraction(1, 64)
    assert m1.cylinder_value(EndVertex(0, 1)) == 1
    assert m1.cylinder_value(EndVertex(2, 3)) == 0

    m5 = OdometerMeasure(NonStationaryUniform(Arithmetic(2, 1)), 5)
    assert m5.cylinder_value(EndVertex(3, 5)) == Fraction(1, 24)  # 1/(2*3*4)


def test_odometer_requires_chain():
    with pytest.raises(DiagramError):
        OdometerMeasure(ExplicitFinite([[2]]), 1)


def test_odometer_explicit_paths():
    spec = StationaryAK(4, 2)
    m1 = OdometerMeasure(spec, 1)
    vertical = ExplicitPath(1, ((VERTICAL, 2), (VERTICAL, 4)))
    assert m1.cylinder_value(vertical) == Fraction(1, 16)
    leaves = ExplicitPath(2, ((DIAGONAL, 0), (VERTICAL, 1)))
    assert m1.cylinder_value(leaves) == 0


# -- cylinder specs -----------------------------------------------------------


def test_explicit_path_reduces_to_end_vertex():
    path = ExplicitPath(3, ((VERTICAL, 1), (DIAGONAL, 0), (VERTICAL, 2)))
    assert path.end() == EndVertex(3, 2)
    assert path.vertex_at(1) == 3 and path.vertex_at(2) == 2


def test_explicit_path_validation():
    spec = StationaryAK(4, 2)
    with pytest.raises(DiagramError):
        ExplicitPath(1, ((DIAGONAL, 0),))  # walks below vertex 1
    with pytest.raises(DiagramError):
        ExplicitPath(2, ((VERTICAL, 5),)).validate(spec)  # only a-k=2 verticals at vertex 2
    with pytest.raises(DiagramError, match="requires an odometer chain"):
        ExplicitPath(1, ((VERTICAL, 1),)).validate(ExplicitFinite([[2]]))


def test_every_diagram_reader_checks_an_explicit_path():
    from bratteli.extension import extend_odometer, extended_cylinder_measure
    from bratteli.spectral import compare_eigen_vs_extension, eigen_measure, eigenvector

    spec = StationaryAK(4, 2)
    pair = eigenvector(spec, 1)
    readers = {
        "odometer": OdometerMeasure(spec, 1).cylinder_value,
        "eigen": eigen_measure(spec, pair).cylinder_value,
        "extension": lambda cyl: extended_cylinder_measure(spec, 1, cyl).exact_value,
        "extended": extend_odometer(spec, 1).cylinder_value,
        "compare": lambda cyl: compare_eigen_vs_extension(spec, 1, pair, [cyl]).entries[0].eigen_value,
    }
    good = ExplicitPath(1, ((VERTICAL, 4),))
    for name, read in readers.items():
        assert read(good) == read(EndVertex(1, 1)) == Fraction(1, 4), name
        with pytest.raises(DiagramError, match="vertical edge 99 out of range 1..4 at level 0, vertex 1"):
            read(ExplicitPath(1, ((VERTICAL, 99),)))
    # bare vectors have no diagram to check a path against
    vectors = ak_eigen_vectors(4, 2, Truncation(2, 2))
    assert vectors.cylinder_value(ExplicitPath(1, ((VERTICAL, 99),))) == Fraction(1, 4)
    # a finite-stationary measure reads no path at all
    finite = measures_finite_stationary([[2, 1], [1, 2]])[0]
    with pytest.raises(DiagramError, match="explicit paths describe odometer chains only"):
        finite.cylinder_value(ExplicitPath(1, ((VERTICAL, 99),)))


def random_path_to(spec, rng, length, end_index):
    """A random explicit path of the given length ending at end_index."""
    d = rng.randint(0, min(2, length, 3))
    start = end_index + d
    positions = sorted(rng.sample(range(length), d))
    edges, idx = [], start
    for l in range(length):
        if l in positions:
            edges.append((DIAGONAL, 0))
            idx -= 1
        else:
            edges.append((VERTICAL, rng.randint(1, spec.vertical_edges(l, idx))))
    return ExplicitPath(start, tuple(edges))


def test_tail_invariance_of_evaluation():
    spec = StationaryAK(4, 2)
    window = Truncation(8, 10)
    mv = ak_eigen_vectors(4, 2, window)
    rng = random.Random(3)
    for _ in range(40):
        length = rng.randint(1, 6)
        end_index = rng.randint(1, 4)
        p1 = random_path_to(spec, rng, length, end_index)
        p2 = random_path_to(spec, rng, length, end_index)
        assert p1.end() == p2.end() == EndVertex(length, end_index)
        assert mv.cylinder_value(p1) == mv.cylinder_value(p2)
        assert mv.cylinder_value(p1) == mv.cylinder_value(EndVertex(length, end_index))


def test_every_measure_kind_answers_cylinder_value():
    from bratteli.extension import ConvergenceResult, extend_odometer
    from bratteli.spectral import eigen_measure, eigenvector_ak

    spec = StationaryAK(4, 2)
    window = Truncation(6, 8)
    cyl = EndVertex(2, 2)
    path = ExplicitPath(2, ((VERTICAL, 1), (VERTICAL, 2)))  # a path of ak(4,2) ending at (2, 2)
    assert path.end() == cyl
    exact = {
        "vectors": (ak_eigen_vectors(4, 2, window), Fraction(1, 32)),  # xi_2 / lambda^2
        "eigen": (eigen_measure(spec, eigenvector_ak(4, 2), window), Fraction(1, 32)),
        "extended": (extend_odometer(spec, 1), Fraction(1, 32)),  # exact closed form
        "odometer": (OdometerMeasure(spec, 1), 0),  # leaves the odometer
        "odometer-2": (OdometerMeasure(spec, 2), Fraction(1, 4)),
    }
    for name, (measure, want) in exact.items():
        assert measure.cylinder_value(cyl) == measure.cylinder_value(path) == want, name
    finite = measures_finite_stationary([[2, 1], [1, 2]])[0]  # lambda 3, xi (1/2, 1/2)
    assert finite.cylinder_value(cyl) == 0.5 / 3
    # infinite outcomes propagate as certified results
    res = extend_odometer(StationaryAK(4, 2), 2).cylinder_value(EndVertex(0, 3))
    assert isinstance(res, ConvergenceResult) and res.status == "infinite"


def test_finite_stationary_measures_are_read_at_end_vertices():
    measure = measures_finite_stationary([[2, 1], [1, 2]])[0]  # lambda 3, xi (1/2, 1/2)
    assert measure.cylinder_value(EndVertex(1, 1)) == 0.5
    assert measure.cylinder_value(EndVertex(3, 2)) == 0.5 / 9
    with pytest.raises(DiagramError, match="cylinder level must be >= 1"):
        measure.cylinder_value(EndVertex(0, 1))
    with pytest.raises(DiagramError, match="explicit paths describe odometer chains only"):
        measure.cylinder_value(ExplicitPath(1, ((VERTICAL, 1),)))
    with pytest.raises(DiagramError, match=r"vertex 3 is outside 1\.\.2 of this diagram"):
        measure.cylinder_value(EndVertex(1, 3))


def test_additivity_of_refinements():
    spec = StationaryDecreasing(Table((5, 3), Constant(2)))
    window = Truncation(8, 12)
    # invariant family: p^(n)_i = xi_i / 5^n with xi the product eigenvector
    def xi(i):
        out = Fraction(1)
        for j in range(2, i + 1):
            out /= 5 - spec.vertical_edges(0, j)
        return out

    mv = MeasureVectors.from_function(lambda n, i: xi(i) / Fraction(5**n), window)
    assert check_tail_invariance(spec, mv, window).ok
    for m in range(4):
        for j in range(1, 5):
            # a cylinder ending at (m, j) refines into a_m(j) verticals ending
            # at (m+1, j) plus, for j >= 2, one diagonal ending at (m+1, j-1)
            refinements = spec.vertical_edges(m, j) * mv.cylinder_value(EndVertex(m + 1, j))
            if j >= 2:
                refinements += mv.cylinder_value(EndVertex(m + 1, j - 1))
            assert mv.cylinder_value(EndVertex(m, j)) == refinements

