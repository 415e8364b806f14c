"""Constructive eigenpairs, exact verification, induced measures.

Core claims:
    - one constructor, eigenvector(spec, i), serves every stationary family:
      lam = a_i and running-product entries, with i-1 leading zeros
    - the two-parameter chain has lam = a, xi_i = k^-(i-1) (all ones at k=1),
      the same pair as its diagonal written as a decreasing table
    - verification is an exact residual per row; constructed pairs verify to
      zero on any window, wrong vectors do not
    - eigen measures evaluate xi_v / lam^m, pass tail invariance, scale
      linearly, and coincide with extension measures on cylinder grids
"""

import random
from fractions import Fraction

import pytest

from bratteli.diagram import (
    DiagramError,
    ExplicitFinite,
    ExplicitLevels,
    GeneralChain,
    NonStationaryUniform,
    StationaryAK,
    StationaryDecreasing,
    Truncation,
    WindowError,
    heights,
)
from bratteli.extension import odometer_extension_mass
from bratteli.measure import EndVertex, MeasureVectors, check_tail_invariance
from bratteli.sequences import Arithmetic, Constant, Geometric, Polynomial, Table
from bratteli.spectral import (
    EigenError,
    EigenPair,
    compare_eigen_vs_extension,
    eigen_measure,
    eigenvector,
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
    # a - k = 1 is a valid chain: its pair is lam = a, xi_i = k^-(i-1) like any other
    pair = eigenvector_ak(3, 2)
    assert (pair.lam, pair.label) == (3, "ak(shift=1,lam=3)")
    assert [pair.xi(i) for i in (1, 2, 3)] == [1, Fraction(1, 2), Fraction(1, 4)]
    with pytest.raises(DiagramError, match="a - k >= 1"):
        eigenvector_ak(4, 0)


def test_shift_applies_to_every_stationary_family():
    with pytest.raises(EigenError, match="a_2=2 is not greater than a_3=2"):
        eigenvector(StationaryAK(4, 2), 2)
    pair = eigenvector(StationaryDecreasing(Table((6, 4, 3), Constant(2))), 2)
    assert (pair.lam, pair.label) == (4, "decreasing(shift=2,lam=4)")
    with pytest.raises(EigenError, match="shift must be >= 1"):
        eigenvector(StationaryAK(4, 2), 0)


@pytest.mark.parametrize("diag, message", [
    (Table((5, -3), Constant(2)), "a_2=-3 must be >= 1"),
    (Table((5, 0), Constant(2)), "a_2=0 must be >= 1"),
    (Table((5, 3), Constant(0)), "a_3=0 must be >= 1"),  # the constant tail is read through the chain too
])
def test_multiplicities_are_read_through_the_chain(diag, message):
    with pytest.raises(DiagramError, match=message):
        eigenvector(StationaryDecreasing(diag))


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


def test_dominance_is_decided_past_any_fixed_window():
    # a_1 = 5 dominates the 68 threes, but a_70 = 6 does not
    with pytest.raises(EigenError, match="a_1=5 is not greater than a_70=6"):
        eigenvector_decreasing(Table((5,) + (3,) * 68 + (6,), Constant(2)), 1)
    # the constant tail itself is checked, however far past the table the shift sits
    with pytest.raises(EigenError, match="a_200=2 is not greater than a_201=2"):
        eigenvector_decreasing(DEC53, 200)
    with pytest.raises(EigenError, match="a_1=5 is not greater than a_3=5"):
        eigenvector_decreasing(Table((5, 3), Constant(5)), 1)
    assert eigenvector_decreasing(Table((5, 3), Arithmetic(2, 0)), 1).xi(4) == Fraction(1, 18)
    assert eigenvector_decreasing(Table((9,) + (3,) * 80 + (8,), Constant(2)), 1).lam == 9


@pytest.mark.parametrize("diag", [
    Arithmetic(9, 1),  # unbounded above
    Arithmetic(9, -1),  # falls below 1
    Geometric(9, 2),
    Polynomial((9, 0, 1)),
    Table((9, 3)),  # no entries past the table
    Table((9, 3), Arithmetic(2, 1)),
])
def test_diagonals_without_a_constant_tail_are_rejected(diag):
    with pytest.raises(EigenError, match="constant tail"):
        eigenvector_decreasing(diag, 1)


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
    with pytest.raises(EigenError, match="stationary odometer chain"):
        eigenvector(nonstat)
    with pytest.raises(EigenError):
        verify_eigenpair(nonstat, eigenvector_ak(4, 2), Truncation(3, 5))
    with pytest.raises(EigenError):
        compare_eigen_vs_extension(nonstat, 1, eigenvector_ak(4, 2), [EndVertex(0, 1)])


# -- each entry once, the same values as the direct formulas ----------------------


def _random_table(rng):
    """A decreasing-family diagonal whose entry at ``shift`` dominates the rest."""
    tail = rng.randint(1, 4)
    top = rng.randint(tail + 1, tail + 6)
    body = [rng.randint(1, top - 1) for _ in range(rng.randint(0, 8))]
    shift = rng.randint(1, len(body) + 1)
    return Table(tuple(body[: shift - 1] + [top] + body[shift - 1:]), Constant(tail)), shift


def _running_product(diag, shift, i):
    # the entry written out directly: zeros below the shift, then a product of 1/(lam - a_j)
    if i < shift:
        return Fraction(0)
    lam = diag.value(shift - 1)
    out = Fraction(1)
    for j in range(shift + 1, i + 1):
        out /= lam - diag.value(j - 1)
    return out


def test_recurrence_matches_the_running_product():
    rng = random.Random(12)
    for _ in range(30):
        diag, shift = _random_table(rng)
        rows = rng.randint(1, 300)
        pair = eigenvector_decreasing(diag, shift)
        order = list(range(1, rows + 1))
        rng.shuffle(order)  # any access order grows the same prefix
        got = {i: pair.xi(i) for i in order}
        assert got == {i: _running_product(diag, shift, i) for i in range(1, rows + 1)}


def _naive_residuals(diag, lam, entry, rows):
    return {
        i: diag.value(i - 1) * entry(i) + (entry(i - 1) if i >= 2 else 0) - lam * entry(i)
        for i in range(1, rows + 1)
    }


def _naive_invariance(spec, value, window, width):
    # F_n^T p^(n+1) = p^(n) on an odometer chain: a(w) p^(n+1)_w + p^(n+1)_{w-1} = p^(n)_w,
    # over the rows w whose entries lie inside the widths of levels n and n+1
    failures, checked = [], 0
    for n in range(window.max_level):
        for w in range(1, min(width(n), width(n + 1), window.max_vertex) + 1):
            checked += 1
            lhs = spec.vertical_edges(n, w) * value(n + 1, w) + (value(n + 1, w - 1) if w >= 2 else 0)
            if lhs != value(n, w):
                failures.append((n, w))
    return tuple(failures), checked


def _closed_form_pairs():
    # every ak chain with 2 <= a <= 8, a - k = 1 included, and the same chain
    # written as a decreasing table: xi_i = k^-(i-1) either way
    for a in range(2, 9):
        for k in range(1, a):
            for spec in (StationaryAK(a, k), StationaryDecreasing(Table((a,), Constant(a - k)))):
                yield spec, eigenvector(spec), lambda i, k=k: Fraction(1, k ** (i - 1))


def _pairs(rng):
    yield from _closed_form_pairs()
    for _ in range(6):
        diag, shift = _random_table(rng)
        yield StationaryDecreasing(diag), eigenvector_decreasing(diag, shift), (
            lambda i, diag=diag, shift=shift: _running_product(diag, shift, i)
        )


def test_closed_form_pairs_to_row_200():
    for spec, pair, entry in _closed_form_pairs():
        a = spec.vertical_edges(0, 1)
        assert (pair.lam, pair.label) == (a, f"{spec.family}(shift=1,lam={a})")
        assert all(pair.xi(i) == entry(i) for i in range(1, 201))
        assert verify_eigenpair(spec, pair, Truncation(3, 200)).verified


def test_residuals_match_a_naive_computation():
    rng = random.Random(7)
    for spec, pair, entry in _pairs(rng):
        rows = rng.randint(1, 120)
        report = verify_eigenpair(spec, pair, Truncation(3, rows))
        assert report.residuals == _naive_residuals(spec.vertex_diag, pair.lam, entry, rows)
        assert report.verified
        # a wrong eigenvalue leaves exact nonzero residuals, the same ones
        wrong = EigenPair(pair.lam + 1, pair.component)
        report = verify_eigenpair(spec, wrong, Truncation(3, rows))
        naive = _naive_residuals(spec.vertex_diag, pair.lam + 1, entry, rows)
        assert report.residuals == naive
        assert report.nonzero == tuple(i for i in range(1, rows + 1) if naive[i] != 0)


def _pushed_down(spec, top, level):
    # p^(level) = top, zero past its last vertex, then p^(n)_w = a_n(w) p^(n+1)_w + p^(n+1)_{w-1}
    # down to level 0: tail invariant at every vertex, each level one entry wider than the one above
    table = {level: top}
    for n in reversed(range(level)):
        above = table[n + 1]
        table[n] = {
            w: spec.vertical_edges(n, w) * above.get(w, 0) + above.get(w - 1, 0) for w in range(1, len(above) + 2)
        }
    return lambda n, i: table[n].get(i, Fraction(0))


def _invariance_cases(rng):
    # (spec, vectors, their entries written out, their width, window, eigen measure or None): the eigen
    # measure of every pair and of the pair scaled by 3/7, handed over as unnormalized integer pairs;
    # then vectors pushed down from a random top level on non-stationary and general chains, read
    # through from_function and through the constructor at widths that narrow with the level
    for spec, pair, entry in _pairs(rng):
        size = rng.randint(2, 14)
        window = Truncation(size, size)
        for factor in (1, Fraction(3, 7)):
            em = eigen_measure(spec, pair.scaled(factor) if factor != 1 else pair, window)

            def value(n, i, entry=entry, lam=pair.lam, factor=factor):
                return factor * entry(i) / lam**n

            yield spec, em.measure_vectors(window), value, lambda n, size=size: size, window, em
    for _ in range(10):
        size = rng.randint(2, 10)
        window = Truncation(size, size)
        levels = Table(tuple(rng.randint(2, 6) for _ in range(rng.randint(1, size))), Constant(rng.randint(2, 4)))
        entries = [(rng.randint(0, size - 1), rng.randint(1, size), rng.randint(2, 7)) for _ in range(rng.randint(1, 6))]
        for spec in (NonStationaryUniform(levels), GeneralChain(entries, rng.randint(2, 3))):
            top = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in range(1, rng.randint(1, size) + 1)}
            value = _pushed_down(spec, top, size)
            yield spec, MeasureVectors.from_function(value, window), value, lambda n, size=size: size, window, None
            narrowing = lambda n, size=size: max(1, size - n)
            yield spec, MeasureVectors(value, size, narrowing), value, narrowing, window, None


def test_invariance_reports_match_a_naive_computation():
    rng = random.Random(9)
    delta = Fraction(1, 10**12)
    for spec, mv, value, width, window, em in _invariance_cases(rng):
        top = window.max_level
        if em is not None:
            grid = [(m, v) for m in range(top + 1) for v in range(1, window.max_vertex + 1)]
            assert all(em.cylinder_value(EndVertex(m, v)) == mv.value(m, v) for m, v in grid)
        # entry (n, i) is read by row (n, i), or by row (top-1, i) at the top level, when i is inside
        # the width of the level above (widths never grow with the level)
        inner = rng.randint(0, top - 1)
        for where in (None, (inner, rng.randint(1, min(width(inner + 1), window.max_vertex))),
                      (top, rng.randint(1, min(width(top), window.max_vertex)))):
            vectors = mv.perturbed(*where, delta) if where else mv

            def bumped(n, i, where=where):
                return value(n, i) + (delta if (n, i) == where else 0)

            report = check_tail_invariance(spec, vectors, window)
            assert (report.failures, report.checked_rows) == _naive_invariance(spec, bumped, window, width)
            assert report.ok is (where is None)


def test_residuals_of_a_fractional_eigenvalue_match_a_naive_computation():
    # lam = 7/2 is no multiplicity: the rows from the shift on leave residuals, with denominators other than 1
    rng = random.Random(11)
    for spec, pair, entry in _pairs(rng):
        rows = rng.randint(2, 80)
        report = verify_eigenpair(spec, EigenPair(Fraction(7, 2), pair.component), Truncation(3, rows))
        naive = _naive_residuals(spec.vertex_diag, Fraction(7, 2), entry, rows)
        assert report.residuals == naive
        assert report.nonzero == tuple(i for i in range(1, rows + 1) if naive[i] != 0)
        assert report.nonzero and any(r.denominator != 1 for r in report.residuals.values())
        assert not report.verified


def _naive_table_invariance(spec, table, window, size):
    # the relation read off the rows of F_n: sum_v f^(n)_{v,w} p^(n+1)_v = p^(n)_w, where a
    # described row beyond the certified width of p^(n+1) leaves its column unchecked and an
    # unknown row inside that width (inside the vertex count, on a finite diagram) leaves the
    # whole level unchecked; the specs describe no row past ``size``
    failures, checked = [], 0
    for n in range(window.max_level):
        below, above = table[n], table[n + 1]
        count = spec.vertex_count(n + 1) or len(above)
        rows = {v: spec.incidence_row(n, v) for v in range(1, max(count, size) + 1)}
        if any(rows[v] is None for v in range(1, count + 1)):
            continue
        for w in range(1, min(len(below), window.max_vertex) + 1):
            terms = [(v, dict(row).get(w, 0)) for v, row in rows.items() if row is not None]
            terms = [(v, f) for v, f in terms if f]
            if any(v > len(above) for v, _ in terms):
                continue
            checked += 1
            if sum(f * above[v] for v, f in terms) != below[w]:
                failures.append((n, w))
    return tuple(failures), checked


def _invariant_table(rng, spec, levels, size):
    # p^(top) at random, then p^(n)_w = sum_v f^(n)_{v,w} p^(n+1)_v level by level down
    table = {levels: {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in range(1, size + 1)}}
    for n in reversed(range(levels)):
        below = dict.fromkeys(range(1, size + 1), Fraction(0))
        for v, p in table[n + 1].items():
            for w, f in spec.incidence_row(n, v):
                below[w] += f * p
        table[n] = below
    return table


def _user_tables(rng):
    for _ in range(12):
        size = rng.randint(1, 4)
        mat = [[rng.randint(0, 2) for _ in range(size)] for _ in range(size)]
        for v in range(size):
            mat[v][v] += 1
        yield ExplicitFinite(mat), size
        # rows 1..size described on every level; row size+1 is unknown
        levels = [
            [(v, w, rng.randint(1, 3)) for v in range(1, size + 1) for w in range(1, size + 1) if w == v or rng.random() < 0.4]
            for _ in range(4)
        ]
        yield ExplicitLevels(levels), size


def test_invariance_of_user_tables_matches_a_naive_computation():
    # ExplicitFinite and ExplicitLevels read their columns off their rows
    rng = random.Random(13)
    for spec, size in _user_tables(rng):
        table = _invariant_table(rng, spec, 3, size)
        bumped = {n: dict(row) for n, row in table.items()}
        bumped[rng.randint(0, 3)][rng.randint(1, size)] += Fraction(1, 10**12)
        widths = [rng.randint(0, size) for _ in range(4)]
        ragged = {n: {v: p for v, p in row.items() if v <= widths[n]} for n, row in table.items()}
        # an entry past the rows: no column holds it, and ExplicitLevels does not know row size+1
        wide = {n: {**row, size + 1: Fraction(1)} for n, row in table.items()}
        for vectors in (table, bumped, ragged, wide):
            for window in (Truncation(3, size + 1), Truncation(2, max(size - 1, 2))):
                report = check_tail_invariance(spec, MeasureVectors.from_table(vectors), window)
                failures, checked = _naive_table_invariance(spec, vectors, window, size)
                assert (report.failures, report.checked_rows) == (failures, checked)
                assert report.levels == {n: all(f[0] != n for f in failures) for n in range(window.max_level)}
        assert check_tail_invariance(spec, MeasureVectors.from_table(table), Truncation(3, size + 1)).ok
        assert not check_tail_invariance(spec, MeasureVectors.from_table(bumped), Truncation(3, size + 1)).ok


def _counted(fn, max_level, width):
    # measure vectors that record how often each entry is evaluated
    calls = {}

    def value(n, i):
        calls[n, i] = calls.get((n, i), 0) + 1
        return fn(n, i)

    return MeasureVectors(value, max_level, width), calls


@pytest.mark.parametrize("spec, width, value", [
    (StationaryAK(4, 2), 12, lambda n, i: Fraction(1, 2 ** (i - 1) * 4**n)),
    (ExplicitFinite([[3, 0], [1, 2]]), 2, lambda n, i: Fraction(1, 3**n)),
])
def test_invariance_evaluates_each_entry_once(spec, width, value):
    mv, calls = _counted(value, 9, lambda n: width)
    assert check_tail_invariance(spec, mv, Truncation(9, width)).ok
    assert calls == {(n, i): 1 for n in range(10) for i in range(1, width + 1)}


def test_invariance_keeps_the_checks_of_each_entry():
    spec, window = StationaryAK(4, 2), Truncation(4, 5)
    # a negative entry is rejected when the check first reads it
    negative, calls = _counted(
        lambda n, i: Fraction(-1) if (n, i) == (2, 3) else Fraction(1, 2 ** (i - 1) * 4**n), 4, lambda n: 5
    )
    with pytest.raises(DiagramError, match="nonnegative"):
        check_tail_invariance(spec, negative, window)
    assert calls[2, 3] == 1
    # rows that need an entry past the certified width are skipped, and the entry is never read
    narrow, calls = _counted(lambda n, i: Fraction(1, 2 ** (i - 1) * 4**n), 4, lambda n: 5 - n)
    report = check_tail_invariance(spec, narrow, window)
    assert report.ok and report.checked_rows == 4 + 3 + 2 + 1
    assert all(i <= 5 - n for n, i in calls)
    # a window past the last level is refused before any entry is read
    short, calls = _counted(lambda n, i: Fraction(1), 3, lambda n: 5)
    with pytest.raises(WindowError):
        check_tail_invariance(spec, short, window)
    assert not calls


def test_each_entry_is_computed_once_per_pair():
    calls = []

    def component(i):
        calls.append(i)
        return Fraction(1, 2 ** (i - 1))

    spec, window = StationaryAK(4, 2), Truncation(9, 30)
    pair = EigenPair(Fraction(4), component, "counted")
    em = eigen_measure(spec, pair, window)
    assert sorted(calls) == list(range(1, 31))
    assert check_tail_invariance(spec, em.measure_vectors(window), window).ok
    cyls = [EndVertex(m, j) for m in range(4) for j in range(1, 40)]
    assert all(em.cylinder_value(c) == Fraction(1, 2 ** (c.index - 1) * 4**c.length) for c in cyls)
    compare_eigen_vs_extension(spec, 1, pair, cyls[:5])
    assert sorted(calls) == list(range(1, 40))
    # the entries are not part of the value: equal, hashed and printed as before
    fresh = EigenPair(Fraction(4), component, "counted")
    assert pair == fresh and hash(pair) == hash(fresh) and repr(pair) == repr(fresh)

