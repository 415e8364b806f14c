"""Diagram core: incidence windows, heights, telescoping, path counting.

Core claims:
    - incidence rows of odometer chains are exactly {(i,i,a), (i,i+1,1)}
    - heights follow H^(0) = 1 and H^(n+1) = F_n H^(n) exactly
    - the two-parameter chain has H^(n)_i = (a-k+1)^n for i > 1
    - the uniform non-stationary chain has H^(n) = prod (a_j + 1)
    - brute-force path enumeration agrees with the recursion (independent
      test-local counter agrees with both)
    - telescoping composes incidence matrices and preserves heights
"""

import random

import pytest

from bratteli.diagram import (
    DiagramError,
    ExplicitFinite,
    ExplicitLevels,
    GeneralChain,
    NonStationaryUniform,
    OdometerChain,
    StationaryAK,
    StationaryDecreasing,
    StationaryIncreasing,
    Truncation,
    VertexId,
    WindowError,
    WorkBudgetError,
    count_paths_bruteforce,
    diagram_from_json,
    heights,
    incidence,
    telescope,
)
from bratteli.sequences import Arithmetic, Constant, Geometric, Polynomial, SequenceError, Table


# -- independent oracle -------------------------------------------------------


def slow_path_count(spec, level, index):
    """Plain recursive path counter, written independently of the library's
    height recursion and of its brute-force enumerator."""
    if level == 0:
        return 1
    total = 0
    count = spec.vertex_count(level - 1)
    for src, mult in spec.incidence_row(level - 1, index):
        if count is not None and src > count:
            continue
        total += mult * slow_path_count(spec, level - 1, src)
    return total


# -- incidence ----------------------------------------------------------------


def test_incidence_ak_window():
    spec = StationaryAK(3, 2)
    mat = incidence(spec, 0, Truncation(10, 3))
    rows = mat.row_map()
    assert rows[1] == {1: 3, 2: 1}
    assert rows[2] == {2: 1, 3: 1}
    assert rows[3] == {3: 1}  # superdiagonal entry (3,4) is outside the window
    assert sorted(mat.complete_rows) == [1, 2]


def test_incidence_increasing_window():
    mat = incidence(StationaryIncreasing(), 5, Truncation(10, 4))
    rows = mat.row_map()
    assert [rows[i][i] for i in range(1, 5)] == [2, 3, 4, 5]
    assert [rows[i][i + 1] for i in range(1, 4)] == [1, 1, 1]


def test_incidence_explicit_finite_is_transpose_and_stationary():
    a = [[3, 0], [1, 2]]
    spec = ExplicitFinite(a)
    for n in (0, 3):
        rows = incidence(spec, n, Truncation(5, 4)).row_map()
        # F = A^T: f[v][w] = a[w][v]
        assert rows[1] == {1: 3, 2: 1}
        assert rows[2] == {2: 2}


def test_incidence_window_errors():
    spec = StationaryAK(4, 2)
    with pytest.raises(WindowError):
        incidence(spec, 5, Truncation(5, 4))
    with pytest.raises(WindowError):
        ExplicitLevels((((1, 1, 2),),)).level_rows(3)


def test_chain_row_structure():
    specs = [
        StationaryAK(5, 2),
        StationaryDecreasing(Table((5, 3), Constant(2))),
        StationaryIncreasing(),
        NonStationaryUniform(Geometric(2, 2)),
        GeneralChain(((0, 1, 4), (2, 3, 7)), default=2),
    ]
    for spec in specs:
        for n in range(3):
            for i in range(1, 5):
                assert spec.incidence_row(n, i) == [(i, spec.vertical_edges(n, i)), (i + 1, 1)]


# -- heights ------------------------------------------------------------------


def test_heights_level_zero_all_ones():
    for spec in (StationaryAK(4, 2), StationaryIncreasing(), ExplicitFinite([[3, 0], [1, 2]])):
        hv = heights(spec, 0, Truncation(4, 6))
        assert all(v == 1 for v in hv.values.values())


def test_heights_ak_closed_form():
    spec = StationaryAK(3, 2)
    hv = heights(spec, 5, Truncation(8, 6))
    assert hv.value(2) == 32  # (a-k+1)^n = 2^5
    for i in range(2, 7):
        assert hv.value(i) == 32


def test_heights_nonstationary_uniform_product():
    hv = heights(NonStationaryUniform(Constant(2)), 3, Truncation(5, 5))
    assert all(hv.value(i) == 27 for i in range(1, 6))


def test_heights_satisfy_recursion_exactly():
    spec = StationaryDecreasing(Table((7, 4, 3), Constant(2)))
    window = Truncation(9, 6)
    for n in range(8):
        h_n = heights(spec, n, Truncation(9, 6 + 1))
        h_next = heights(spec, n + 1, window)
        for v in range(1, 7):
            expect = spec.vertical_edges(n, v) * h_n.value(v) + h_n.value(v + 1)
            assert h_next.value(v) == expect


def test_heights_read_only_the_dependence_cone():
    # H^(n)_1..m need a_1..a_(m+n-1): a table without a tail rule certifies exactly that far
    spec = StationaryDecreasing(Table((2, 5, 3)))
    assert heights(spec, 1, Truncation(1, 3)).values == {1: 3, 2: 6, 3: 4}
    for n in (1, 2):
        assert heights(spec, n, Truncation(n, 4 - n)).values == {i: slow_path_count(spec, n, i) for i in range(1, 5 - n)}
        with pytest.raises(SequenceError, match="no tail rule"):
            heights(spec, n, Truncation(n, 5 - n))


def test_heights_general_chain_matches_enumeration():
    rng = random.Random(7)
    for _ in range(10):
        entries = tuple(
            (n, i, rng.randint(2, 4)) for n in range(4) for i in range(1, 7) if rng.random() < 0.5
        )
        spec = GeneralChain(entries, default=rng.randint(2, 3))
        window = Truncation(4, 4)
        for n in range(1, 5):
            hv = heights(spec, n, window)
            for i in range(1, 4):
                assert hv.value(i) == slow_path_count(spec, n, i)


def test_heights_explicit_levels_certification():
    # rows only described for vertices 1..3; certified width shrinks with level
    lvl = tuple((v, w, 1) for v in range(1, 4) for w in (v, v + 1) if w <= 4)
    spec = ExplicitLevels((lvl, lvl))
    hv1 = heights(spec, 1, Truncation(2, 4))
    assert hv1.exact_width == 3
    hv2 = heights(spec, 2, Truncation(2, 4))
    # level-2 value at vertex 3 needs vertex 4 at level 1, which is unknown
    assert hv2.exact_width == 2
    with pytest.raises(WindowError):
        hv2.value(3)


def test_explicit_rows_are_built_once_per_diagram():
    finite = ExplicitFinite([[3, 0], [1, 2]])
    assert finite.level_rows(0) is finite.level_rows(0) is finite.level_rows(5)
    assert finite.level_rows(0) == {1: {1: 3, 2: 1}, 2: {2: 2}}
    # entries at one position add up, a zero entry is dropped, a row left out is unknown
    levels = ExplicitLevels((((2, 3, 1), (1, 2, 0), (1, 2, 4), (2, 1, 5), (2, 3, 2)), ((1, 1, 1),)))
    for n in (0, 1):
        assert levels.level_rows(n) is levels.level_rows(n)
    assert levels.level_rows(0) == {1: {2: 4}, 2: {1: 5, 3: 3}}
    assert levels.incidence_row(0, 2) == [(1, 5), (3, 3)]
    assert levels.incidence_row(1, 2) is None
    for spec in (finite, levels):
        for v, row in spec.level_rows(0).items():
            assert spec.incidence_row(0, v) == sorted(row.items())
    with pytest.raises(DiagramError, match="nonzero"):
        ExplicitLevels((((1, 1, 0), (1, 2, 0)),))


@pytest.mark.parametrize("entry", [(1, 0, 1), (0, 1, 4), (1, -5, 1), (-1, 2, 3)])
def test_explicit_levels_vertex_indices_start_at_one(entry):
    # there is no vertex 0: heights would report a value at it
    with pytest.raises(DiagramError, match="explicit-levels vertex indices start at 1"):
        ExplicitLevels([[(2, 2, 1), entry]])
    with pytest.raises(DiagramError, match="explicit-levels vertex indices start at 1"):
        diagram_from_json({"family": "explicit-levels", "params": {"levels": [[list(entry)]]}})


def test_explicit_finite_heights_report_only_the_window():
    rng = random.Random(5)
    a = [[rng.randint(0, 2) + (v == w) for w in range(6)] for v in range(6)]
    spec = ExplicitFinite(a)
    for n in range(4):
        hv = heights(spec, n, Truncation(4, 3))
        assert sorted(hv.values) == [1, 2, 3] and hv.exact_width == 3
        assert all(hv.value(i) == slow_path_count(spec, n, i) for i in (1, 2, 3))
    # a window wider than the matrix reports every vertex
    assert sorted(heights(ExplicitFinite([[2]]), 2, Truncation(3, 4)).values) == [1]
    assert heights(ExplicitFinite([[2]]), 0, Truncation(3, 4)).values == {1: 1}


# -- brute-force enumeration --------------------------------------------------


def test_bruteforce_examples():
    window = Truncation(12, 8)
    assert count_paths_bruteforce(StationaryAK(3, 2), VertexId(2, 2), window) == 4
    for spec in (StationaryAK(4, 2), StationaryIncreasing()):
        for i in (1, 3):
            assert count_paths_bruteforce(spec, VertexId(0, i), window) == 1
    # enumeration through vertices 1 and 2: 2*(2+1) + 1*(3+1) = 10
    assert count_paths_bruteforce(StationaryIncreasing(), VertexId(2, 1), window) == 10
    assert slow_path_count(StationaryIncreasing(), 2, 1) == 10


def _random_base(rng, by_level):
    """A small base sequence: by level every value >= 2, by vertex >= 1."""
    low = 2 if by_level else 1
    return rng.choice([
        Constant(rng.randint(low, 3)),
        Arithmetic(low, rng.randint(0, 1)),
        Polynomial((low, 0, 1)),
        Table(tuple(rng.randint(low, 4) for _ in range(rng.randint(1, 3))), Constant(low)),
    ])


def test_bruteforce_agrees_with_heights_on_random_tables():
    rng = random.Random(21)
    window = Truncation(6, 5)
    for _ in range(8):
        entries = tuple(
            (n, i, rng.randint(2, 3)) for n in range(5) for i in range(1, 9) if rng.random() < 0.4
        )
        spec = GeneralChain(entries, default=2)
        for n in range(1, 6):
            hv = heights(spec, n, window)
            for i in (1, 2, 3):
                assert count_paths_bruteforce(spec, VertexId(n, i), window) == hv.value(i)
    # vertex and level bases, each with and without exceptions
    window = Truncation(5, 4)
    for by_level in (False, True):
        for with_exceptions in (False, True):
            for _ in range(6):
                entries = tuple(
                    (n, i, rng.randint(2, 4)) for n in range(4) for i in range(1, 8) if rng.random() < 0.3
                ) if with_exceptions else ()
                spec = OdometerChain(_random_base(rng, by_level), by_level, entries)
                assert (spec.vertex_diag is None, spec.level_diag is None) == (
                    by_level or with_exceptions, not by_level or with_exceptions
                )
                for n in range(1, 5):
                    hv = heights(spec, n, window)
                    for i in range(1, 5):
                        assert count_paths_bruteforce(spec, VertexId(n, i), window) == hv.value(i)


def test_bruteforce_budget_and_level_guards():
    spec = StationaryAK(9, 2)
    with pytest.raises(WorkBudgetError):
        count_paths_bruteforce(spec, VertexId(8, 2), Truncation(10, 12), budget=1000)
    with pytest.raises(DiagramError):
        count_paths_bruteforce(spec, VertexId(13, 1), Truncation(14, 4))


# -- telescoping --------------------------------------------------------------


def test_telescope_identity_breakpoints():
    spec = StationaryAK(4, 2)
    window = Truncation(4, 6)
    out = telescope(spec, [0, 1, 2, 3], window)
    for k in range(3):
        got = {(v, w): m for v, w, m in out.levels[k]}
        orig = incidence(spec, k, window)
        expect = {(v, w): m for v, w, m in orig.entries if v in orig.complete_rows}
        assert got == expect


def test_telescope_ak_products_and_heights():
    spec = StationaryAK(3, 2)
    window = Truncation(6, 8)
    out = telescope(spec, [0, 2, 4], window)
    rows = {(v, w): m for v, w, m in out.levels[0]}
    # F^2 of the chain: row 1 = (9, 4, 1), rows i>=2 = (1, 2, 1)
    assert rows[(1, 1)] == 9 and rows[(1, 2)] == 4 and rows[(1, 3)] == 1
    assert rows[(2, 2)] == 1 and rows[(2, 3)] == 2 and rows[(2, 4)] == 1
    # telescoped heights at level 1 equal the original heights at level 2
    hv = heights(out, 1, Truncation(2, 3))
    assert hv.value(2) == 4
    assert hv.value(1) == heights(spec, 2, Truncation(3, 3)).value(1)


def test_telescope_explicit_finite_square():
    a = [[3, 0], [1, 2]]
    out = telescope(ExplicitFinite(a), [0, 2, 4], Truncation(5, 4))
    # constant matrix (A^T)^2 = [[9, 5], [0, 4]] in row/col form
    for lvl in out.levels:
        rows = {(v, w): m for v, w, m in lvl}
        assert rows == {(1, 1): 9, (1, 2): 5, (2, 2): 4}


# row 1 of F_0 meets vertex 3, outside a max_vertex 2 window
PARTIAL_LEVELS = [[(1, 1, 1), (1, 3, 1), (2, 2, 2)], [(1, 1, 1), (2, 2, 1)]]


def test_telescope_drops_rows_composed_through_a_row_leaving_the_window():
    window = Truncation(2, 2)
    spec = ExplicitLevels(PARTIAL_LEVELS)
    # level-1 row 1 reads level-0 row 1, which leaves the window, so it drops too
    assert telescope(spec, [0, 2], window).levels == (((2, 2, 2),),)
    assert telescope(spec, [0, 1, 2], window).levels == (((2, 2, 2),), ((1, 1, 1), (2, 2, 1)))
    spec = ExplicitLevels([PARTIAL_LEVELS[0], PARTIAL_LEVELS[1] + [(2, 1, 1)]])
    with pytest.raises(WindowError, match="telescoping between levels 0 and 2 cannot be certified in this window"):
        telescope(spec, [0, 2], window)


def test_telescope_rejects_bad_breakpoints():
    spec = StationaryAK(4, 2)
    with pytest.raises(DiagramError):
        telescope(spec, [1, 2], Truncation(4, 4))
    with pytest.raises(DiagramError):
        telescope(spec, [0, 2, 2], Truncation(4, 4))
    with pytest.raises(WindowError):
        telescope(spec, [0, 9], Truncation(4, 4))


# -- validation and serialization ---------------------------------------------


def test_family_invariants():
    with pytest.raises(DiagramError):
        StationaryAK(3, 3)  # a - k < 1
    with pytest.raises(DiagramError):
        GeneralChain(((0, 1, 1),))  # multiplicity below 2
    with pytest.raises(DiagramError):
        ExplicitFinite([[0, 1], [0, 2]])  # vertex 1 loses its incoming edges
    with pytest.raises(DiagramError):
        ExplicitFinite([[1, 2], [0, 0]])  # vertex 2 has no outgoing edges


@pytest.mark.parametrize("entry", [(0, 1, "3"), (0, 1, 2.5), (0, 1, True), (0, 0, 3), (-1, 1, 3), (0, 1)])
def test_general_chain_entries_are_three_valid_ints(entry):
    with pytest.raises(DiagramError, match="general-chain entr"):
        GeneralChain((entry,))
    doc = {"family": "general-chain", "params": {"entries": [list(entry)]}}
    with pytest.raises(DiagramError, match="general-chain entr"):
        diagram_from_json(doc)


def test_json_round_trip_all_families():
    window = Truncation(7, 9)
    diagonal = {"kind": "table", "values": [5, 3], "tail": {"kind": "constant", "value": 2}}
    cases = [
        (StationaryAK(4, 2), "ak", {"a": 4, "k": 2}),
        (StationaryDecreasing(Table((5, 3), Constant(2))), "decreasing", {"diagonal": diagonal}),
        (StationaryIncreasing(), "increasing", {}),
        (NonStationaryUniform(Geometric(2, 2)), "nonstationary-uniform", {"levels": {"kind": "geometric", "base": 2, "ratio": 2}}),
        (GeneralChain(((1, 2, 5), (0, 1, 4)), default=3), "general-chain", {"entries": [[0, 1, 4], [1, 2, 5]], "default": 3}),
        (GeneralChain(()), "general-chain", {"entries": [], "default": 2}),
        (ExplicitFinite([[3, 0], [1, 2]]), "explicit-finite", {"matrix": [[3, 0], [1, 2]]}),
        (ExplicitLevels((((1, 1, 2), (1, 2, 1)),)), "explicit-levels", {"levels": [[[1, 1, 2], [1, 2, 1]]]}),
    ]
    for spec, family, params in cases:
        doc = spec.to_json(window)
        assert doc == {"family": family, "params": params, "truncation": {"maxLevel": 7, "maxVertex": 9}}
        back, win = diagram_from_json(doc)
        assert back == spec
        assert win == window


def test_chain_spellings_are_one_type():
    ak = StationaryAK(4, 2)
    assert ak == OdometerChain(Table((4,), Constant(2)), family="ak")
    assert ak != StationaryDecreasing(Table((4,), Constant(2)))  # same chain, other spelling
    assert [ak.vertical_edges(3, i) for i in (1, 2, 9)] == [4, 2, 2]
    assert NonStationaryUniform(Constant(3)) == OdometerChain(Constant(3), True, family="nonstationary-uniform")
    chain = GeneralChain(((0, 2, 5),), default=3)
    assert (chain.vertex_diag, chain.level_diag, chain.multiplicities(0, 3), chain.multiplicities(1, 3)) == (
        None, None, [3, 5, 3], [3, 3, 3]
    )
    assert GeneralChain((), 3).vertex_diag == Constant(3)
    with pytest.raises(DiagramError, match="unknown odometer-chain family"):
        OdometerChain(Constant(2), family="nope")
    with pytest.raises(DiagramError, match="no JSON document"):
        OdometerChain(Constant(2), True).to_json()


@pytest.mark.parametrize("chain", [
    # the decreasing params would drop the exception: a_0(1) would read back as 5, not 3
    OdometerChain(Table((5, 3), Constant(2)), exceptions=((0, 1, 3),), family="decreasing"),
    OdometerChain(Table((4, 5), Constant(2)), family="ak"),  # ak params keep only the first entry
    OdometerChain(Constant(3), family="ak"),  # no table for a to come from
    OdometerChain(Constant(3), True, family="decreasing"),  # read by level, the family reads by vertex
    OdometerChain(Table((5,), Constant(2)), exceptions=((0, 1, 3),), family="general-chain"),
], ids=["decreasing-with-exception", "ak-long-table", "ak-constant", "decreasing-by-level", "general-table"])
def test_a_chain_its_family_cannot_spell_has_no_json(chain):
    with pytest.raises(DiagramError, match=f"no '{chain.family}' document"):
        chain.to_json()


@pytest.mark.parametrize("spec, level, message", [
    (StationaryDecreasing(Table((5, 3, 0), Constant(2))), 0, "vertex multiplicity a_3=0 must be >= 1"),
    (NonStationaryUniform(Table((3, 1), Constant(2))), 1, "level multiplicity a_1=1 must be >= 2"),
    (OdometerChain(Table((3, 1), Constant(2)), True, ((1, 1, 4),)), 1, "level multiplicity a_1=1 must be >= 2"),
])
def test_multiplicity_columns_check_what_they_read(spec, level, message):
    with pytest.raises(DiagramError, match=message):
        spec.multiplicities(level, 6)
    with pytest.raises(DiagramError, match=message):
        heights(spec, level + 1, Truncation(level + 1, 6))


@pytest.mark.parametrize("bad", [4.5, 4.0, "4", True])
def test_scalar_parameters_must_be_ints(bad):
    # a JSON number or string is never rounded or parsed into a multiplicity
    with pytest.raises(DiagramError, match="is not an int"):
        StationaryAK(bad, 2)
    with pytest.raises(DiagramError, match="is not an int"):
        StationaryAK(6, bad)
    with pytest.raises(DiagramError, match="is not an int"):
        GeneralChain((), bad)
    with pytest.raises(DiagramError, match="is not an int"):
        Truncation(bad, 6)
    with pytest.raises(DiagramError, match="is not an int"):
        ExplicitFinite([[bad, 1], [1, 2]])
    with pytest.raises(DiagramError, match="is not an int"):
        ExplicitLevels((((1, 1, bad),),))
    docs = [
        {"family": "ak", "params": {"a": bad, "k": 2}},
        {"family": "general-chain", "params": {"default": bad}},
        {"family": "explicit-finite", "params": {"matrix": [[2, bad], [1, 2]]}},
        {"family": "explicit-levels", "params": {"levels": [[[1, bad, 2]]]}},
        {"family": "ak", "params": {"a": 4, "k": 2}, "truncation": {"maxLevel": 4, "maxVertex": bad}},
    ]
    for doc in docs:
        with pytest.raises(DiagramError, match="is not an int"):
            diagram_from_json(doc)
