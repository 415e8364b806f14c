"""Extension engine: certified masses, cylinder series, classification.

Core claims:
    - two-parameter chain: mass of odometer 1 is exactly 1 + 1/(k-1) for
      k > 1, infinite for k = 1 and for every odometer beyond the first
    - increasing chain: every extension is infinite
    - uniform non-stationary chain: finite iff the reciprocal level sums
      converge (constant 2 diverges, powers of two and squares converge)
    - decreasing chain: mass is exactly the closed-form product sum
    - partial sums reproduce the level identity sum_W H_w p_w exactly
    - extended cylinder values match the closed forms, including the
      sigma-finite k = 1 case, and add up across levels to the total mass
"""

import hashlib
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from bratteli import extension as ext
from bratteli.diagram import (
    DEFAULT_MAX_TERMS,
    DiagramError,
    ExplicitFinite,
    GeneralChain,
    NonStationaryUniform,
    OdometerChain,
    StationaryAK,
    StationaryDecreasing,
    StationaryIncreasing,
    Truncation,
    WindowError,
    heights,
    telescope,
)
from bratteli.extension import (
    FINITE,
    INFINITE,
    UNDETERMINED,
    classify_ergodic_measures,
    closed_form_oracles,
    odometer_extension_mass,
    extend_odometer,
    extended_cylinder_measure,
    mass_series_terms,
    _series_terms,
)
from bratteli.measure import EndVertex, check_tail_invariance
from bratteli.sequences import Arithmetic, Constant, Geometric, Polynomial, SequenceError, Table

DEC = StationaryDecreasing(Table((5, 3), Constant(2)))


# -- masses: two-parameter chain ------------------------------------------------


def test_ak_mass_exact():
    res = odometer_extension_mass(StationaryAK(4, 2), 1, 2000)
    assert res.status == FINITE
    assert res.exact_value == 2
    assert res.contains(Fraction(2))
    res = odometer_extension_mass(StationaryAK(4, 3), 1)
    assert res.exact_value == Fraction(3, 2)


def test_ak_mass_infinite_cases():
    res = odometer_extension_mass(StationaryAK(5, 1), 1)
    assert res.status == INFINITE
    assert res.divergence_witness
    for i in (2, 3, 5):
        res = odometer_extension_mass(StationaryAK(5, 2), i)
        assert res.status == INFINITE


def test_ak_grid_matches_oracle():
    for a in range(3, 11):
        for k in range(1, a - 1):
            res = odometer_extension_mass(StationaryAK(a, k), 1)
            oracle = closed_form_oracles(StationaryAK(a, k), 1)
            assert res.status == oracle.status
            if oracle.status == FINITE:
                assert res.contains(oracle.mass)
                assert res.exact_value == oracle.mass == 1 + Fraction(1, k - 1)


# -- masses: other families -----------------------------------------------------


def test_increasing_all_infinite():
    for i in range(1, 8):
        assert odometer_extension_mass(StationaryIncreasing(), i).status == INFINITE


def test_nonstationary_uniform_criterion():
    assert odometer_extension_mass(NonStationaryUniform(Constant(2)), 1).status == INFINITE
    res = odometer_extension_mass(NonStationaryUniform(Geometric(2, 2)), 1)
    assert res.status == FINITE
    res_sq = odometer_extension_mass(NonStationaryUniform(Polynomial((4, 4, 1))), 1, 2000)
    assert res_sq.status == FINITE
    # arithmetic growth still diverges (harmonic reciprocals)
    assert odometer_extension_mass(NonStationaryUniform(Arithmetic(2, 1)), 1).status == INFINITE
    assert odometer_extension_mass(NonStationaryUniform(Arithmetic(3, 4)), 1).status == INFINITE


def test_nonstationary_mass_is_odometer_independent():
    spec = NonStationaryUniform(Geometric(2, 2))
    r1 = odometer_extension_mass(spec, 1)
    r4 = odometer_extension_mass(spec, 4)
    assert r1.status == r4.status == FINITE
    assert r1.partial_sum == r4.partial_sum


def test_decreasing_mass_contains_product_sum():
    res = odometer_extension_mass(DEC, 1, 400)
    oracle = closed_form_oracles(DEC, 1)
    assert res.status == FINITE and oracle.status == FINITE
    assert oracle.mass == Fraction(7, 4)
    assert res.exact_value == Fraction(7, 4)
    assert res.contains(oracle.mass)


def test_mass_terms_need_an_odometer_index_of_at_least_one():
    for i in (0, -1, -3):
        with pytest.raises(DiagramError, match="odometer index must be >= 1"):
            mass_series_terms(StationaryAK(4, 2), i, 4)


def test_mass_terms_read_only_the_dependence_cone():
    # H^(1)_2 = a_2 + 1 needs a_2 alone: two terms fit a table without a tail rule, three do not
    spec = StationaryDecreasing(Table((2, 5)))
    assert mass_series_terms(spec, 1, 2) == [Fraction(1, 2), Fraction(3, 2)]
    with pytest.raises(SequenceError, match="no tail rule"):
        mass_series_terms(spec, 1, 3)


def test_mass_terms_match_windowed_heights():
    # fast height generation must agree with the windowed recursion even when
    # several vertices sit between the odometer and the constant tail
    spec = StationaryDecreasing(Table((9, 5, 4), Constant(2)))
    terms = mass_series_terms(spec, 1, 10)
    denom = 1
    for n in range(10):
        hv = heights(spec, n, Truncation(11, 2))
        denom_next = denom * spec.vertical_edges(n, 1)
        assert terms[n] == Fraction(hv.value(2), denom_next)
        denom = denom_next
    res = odometer_extension_mass(spec, 1, 400)
    oracle = closed_form_oracles(spec, 1)
    assert oracle.mass == Fraction(157, 120)
    assert res.exact_value == Fraction(157, 120)
    assert res.contains(oracle.mass)


def test_decreasing_boundary_diverges():
    # tail value a_1 - 1 behaves like the k = 1 chain: no finite extension
    spec = StationaryDecreasing(Table((5,), Constant(4)))
    assert odometer_extension_mass(spec, 1).status == INFINITE


def test_random_vertex_tables_match_oracle():
    # random vertex tables with constant tails, dominated or not: the engine's
    # verdict must match the closed-form criterion, and finite masses must be
    # exactly the product-sum mass
    rng = random.Random(71)
    for _ in range(120):
        a1 = rng.randint(2, 12)
        prefix = tuple(rng.randint(2, 12) for _ in range(rng.randint(0, 4)))
        tail = rng.randint(2, 12)
        i = rng.randint(1, 3)
        spec = StationaryDecreasing(Table((a1,) + prefix, Constant(tail)))
        res = odometer_extension_mass(spec, i, 600)
        oracle = closed_form_oracles(spec, i)
        assert res.status == oracle.status, (spec, i)
        if oracle.status == FINITE:
            assert res.exact_value == oracle.mass, (spec, i)
            assert res.contains(oracle.mass), (spec, i)


def test_random_vertex_cylinders_match_the_product_formula():
    # a cylinder (m, j) of odometer i sums paths through the zone i+1..j: finite
    # exactly when every zone multiplicity is below a_i, and then its value is
    # 1/(a_i^m prod_(v in zone) (a_i - a_v)); otherwise a climb makes it infinite
    rng = random.Random(97)
    for _ in range(60):
        table = tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 5)))
        spec = StationaryDecreasing(Table(table, Constant(rng.randint(2, 9))))
        i = rng.randint(1, 3)
        a_i = spec.vertex_diag.value(i - 1)
        assert odometer_extension_mass(spec, i).certificate in ("resolvent-exact", "climb-lower-bound")
        for m in range(4):
            for j in range(i + 1, i + 6):
                zone = [spec.vertex_diag.value(v - 1) for v in range(i + 1, j + 1)]
                res = extended_cylinder_measure(spec, i, EndVertex(m, j))
                if max(zone) < a_i:
                    want = Fraction(1, a_i**m * math.prod(a_i - a_v for a_v in zone))
                    assert res.status == FINITE and res.exact_value == want, (spec, i, m, j)
                    assert res.contains(want)
                else:
                    assert res.status == INFINITE, (spec, i, m, j)
                    assert res.certificate == "climb-lower-bound"


def test_paper_rule_decides_every_odometer_of_a_random_table():
    # on a table with constant tail tau, odometer i's mass is finite exactly when
    # every later multiplicity is below a_i and a_i > tau + 1; a dominated
    # odometer with a_i = tau + 1 is a distinguished eigenvalue whose extension
    # is infinite, where Bezuglyi-Kwiatkowski-Medynets-Solomyak fails
    rng = random.Random(3)
    verdicts, bkms = [], 0
    for _ in range(600):
        table = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        tau = rng.randint(1, 5)
        spec = StationaryDecreasing(Table(table, Constant(tau)))
        a = table + (tau,) * 4
        for i in range(1, len(table) + 3):
            dominated = all(a_v < a[i - 1] for a_v in a[i:])
            finite = dominated and a[i - 1] > tau + 1
            res = odometer_extension_mass(spec, i)
            want = (FINITE, "resolvent-exact") if finite else (INFINITE, "climb-lower-bound")
            assert (res.status, res.certificate) == want, (table, tau, i)
            verdicts.append(finite)
            bkms += dominated and a[i - 1] == tau + 1
    assert (verdicts.count(True), verdicts.count(False)) == (731, 2604)
    assert bkms > 0


def test_random_telescopings_preserve_heights():
    rng = random.Random(83)
    for _ in range(20):
        a = rng.randint(3, 6)
        k = rng.randint(1, a - 2)
        spec = StationaryAK(a, k)
        pts = [0]
        while pts[-1] < 6:
            pts.append(pts[-1] + rng.randint(1, 3))
        window = Truncation(pts[-1] + 1, 16)
        tel = telescope(spec, pts, window)
        for out_level, orig_level in enumerate(pts[:3]):
            hv_tel = heights(tel, out_level, Truncation(max(out_level, 1), 3))
            hv_orig = heights(spec, orig_level, Truncation(max(orig_level, 1) + 1, 3))
            for i in (1, 2, 3):
                assert hv_tel.value(i) == hv_orig.value(i)


def test_general_chain_is_undetermined():
    spec = GeneralChain(((0, 1, 3), (1, 2, 4)), default=2)
    res = odometer_extension_mass(spec, 1)
    assert res.status == UNDETERMINED
    assert res.partial_sum > 1


@pytest.mark.parametrize("diag, vertex", [
    (Table((5, -3), Constant(2)), 2),
    (Table((5, 0), Constant(2)), 2),
    (Table((5, 3), Constant(0)), 3),  # the tail value the resolvent sums with
    (Table((2, 5), Constant(0)), 3),  # the tail value the climb's closed-form heights grow by
])
def test_vertex_tables_read_multiplicities_through_the_chain(diag, vertex):
    spec = StationaryDecreasing(diag)
    message = f"a_{vertex}=.* must be >= 1"
    with pytest.raises(DiagramError, match=message):
        odometer_extension_mass(spec, 1)
    with pytest.raises(DiagramError, match=message):
        extended_cylinder_measure(spec, 1, EndVertex(0, 3))


# -- series identities ----------------------------------------------------------


@pytest.mark.parametrize("spec,i", [(StationaryAK(4, 2), 1), (StationaryAK(6, 3), 2), (DEC, 1)])
def test_level_identity_of_partial_sums(spec, i):
    # 1 + sum of the first n terms equals H^(n)_i * p^(n)_i for all n <= 30
    terms = mass_series_terms(spec, i, 30)
    partial = Fraction(1)
    denom = 1
    for n in range(30):
        hv = heights(spec, n, Truncation(31, i + 1))
        assert partial == hv.value(i) * Fraction(1, denom)
        partial += terms[n]
        denom *= spec.vertical_edges(n, i)


def test_partial_sums_monotone():
    for spec, i in [(StationaryAK(4, 2), 1), (NonStationaryUniform(Geometric(2, 2)), 1)]:
        terms = mass_series_terms(spec, i, 40)
        assert all(t >= 0 for t in terms)
        partials = []
        acc = Fraction(1)
        for t in terms:
            acc += t
            partials.append(acc)
        assert partials == sorted(partials)


def test_reported_partial_matches_term_stream():
    spec = StationaryAK(4, 2)
    res = odometer_extension_mass(spec, 1, 2000)
    terms = mass_series_terms(spec, 1, res.terms_used)
    assert res.partial_sum == 1 + sum(terms)


def _pinned_chains():
    """Seeded chains of every kind, decreasing and level tables with and without a tail."""
    rng = random.Random(23)
    chains = [StationaryIncreasing(), StationaryDecreasing(Arithmetic(9, -1))]
    for _ in range(2):
        a = rng.randint(2, 6)
        entries = [[rng.randint(0, 5), rng.randint(1, 5), rng.randint(2, 4)] for _ in range(rng.randint(1, 4))]
        chains += [
            StationaryAK(a, rng.randint(1, a - 1)),
            StationaryDecreasing(Table(tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4))), Constant(rng.randint(1, 4)))),
            StationaryDecreasing(Table(tuple(sorted((rng.randint(2, 9) for _ in range(4)), reverse=True)))),
            # long enough for every term the uncertified sum reads
            StationaryDecreasing(Table((9,) + tuple(rng.randint(2, 8) for _ in range(80)))),
            NonStationaryUniform(Constant(rng.randint(2, 4))),
            NonStationaryUniform(Arithmetic(rng.randint(2, 4), rng.randint(1, 3))),
            NonStationaryUniform(Geometric(rng.randint(2, 3), rng.randint(2, 3))),
            NonStationaryUniform(Polynomial((rng.randint(2, 5), rng.randint(0, 3), rng.randint(1, 2)))),
            NonStationaryUniform(Table(tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 3))), Geometric(3, 2))),
            NonStationaryUniform(Table(tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 3))))),
            GeneralChain(entries, rng.randint(2, 3)),
            OdometerChain(Constant(rng.randint(2, 3)), True, entries),
        ]
    return chains


def _terms(spec, i, m, j, count):
    """The (N_n, D_n) pairs of ``_series_terms`` as Fractions."""
    return [Fraction(n, d) for n, d in _series_terms(spec, i, m, j, count)]


def _pinned(call):
    """Every field of a series result, or the error a call raised."""
    try:
        res = call()
    except ValueError as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(res, list):
        return res
    return tuple(getattr(res, name) for name in res.__slots__)


def test_series_answers_digest_on_a_seeded_corpus():
    # every term, partial sum, terms_used, verdict and certificate string of
    # the masses and cylinders, on chains of every kind
    digest = hashlib.sha256()
    for spec in _pinned_chains():
        for i in (1, 2, 3):
            answers = [_pinned(lambda: mass_series_terms(spec, i, 40))]
            for m in (0, 1, 2):
                answers += [_pinned(lambda: _terms(spec, i, m, j, 24)) for j in range(i + 1, i + 5)]
            for max_terms in (2, 8, DEFAULT_MAX_TERMS):
                answers.append(_pinned(lambda: odometer_extension_mass(spec, i, max_terms)))
                for m in (0, 1, 2):
                    for j in range(1, i + 5):
                        answers.append(_pinned(lambda: extended_cylinder_measure(spec, i, EndVertex(m, j), max_terms)))
            digest.update(repr((spec, i, answers)).encode())
    # computed with the three term helpers the one term stream replaced
    assert digest.hexdigest() == "8a0db65206c4c3e02e07fec2bd517a14abb706926402f4efb51c421745322557"


def _integer_sum_chains():
    """Seeded vertex tables with and without a tail, and general chains, for the climb and uncertified sums."""
    rng = random.Random(20261021)
    chains = [StationaryIncreasing()]
    for _ in range(4):
        values = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 5)))
        entries = [[rng.randint(0, 6), rng.randint(1, 5), rng.randint(2, 6)] for _ in range(rng.randint(1, 5))]
        chains += [
            StationaryDecreasing(Table(values, Constant(rng.randint(1, 4)))),
            StationaryDecreasing(Table(values + tuple(rng.randint(1, 7) for _ in range(80)))),
            StationaryDecreasing(Table(values)),  # runs out of vertices, and the stream raises
            GeneralChain(entries, rng.randint(2, 3)),
        ]
    return chains, rng


def _climb_by_fractions(spec, i, m, j, g, n0, max_terms):
    """The climb's answer from Fraction terms: each compared with eps = 1/(g^(m+n0) a_i) as a Fraction."""
    count = min(max_terms, max(n0 + 8, 48))
    terms = _terms(spec, i, m, j, count)
    partial = (j is None) + sum(terms, Fraction(0))
    if count <= n0:
        return (UNDETERMINED, partial, m + count)
    eps = Fraction(1, g ** (m + n0) * spec.vertical_edges(0, i))
    low = [m + n for n in range(n0, count) if terms[n] < eps]
    if low:
        return ("CertificateError", f"term {low[0]} fell below its climb lower bound")
    return (INFINITE, partial, m + count)


def test_integer_climb_and_uncertified_sums_match_fraction_sums():
    # the climb and uncertified sums are taken in integers over one running
    # denominator, and the climb bound is checked as N_n den >= D_n; both
    # must equal the Fraction sums and the Fraction comparison with eps
    chains, rng = _integer_sum_chains()
    outcomes = set()
    for spec in chains:
        for i in (1, 2, 3):
            for m, j in [(0, None)] + [(m, i + d) for m in (0, 1, 2) for d in (1, 2, 4)]:
                for max_terms in (2, 8, 64):
                    g, n0 = rng.randint(1, 6), rng.randint(0, 10)
                    want = _raised_or(lambda: _climb_by_fractions(spec, i, m, j, g, n0, max_terms))
                    res = _raised_or(lambda: ext._climb(spec, i, m, j, i + 1, g, n0, max_terms))
                    got = res if isinstance(res, tuple) else (res.status, res.partial_sum, res.terms_used)
                    assert got == want, (spec, i, m, j, g, n0, max_terms)
                    outcomes.add(got[0])
                    count = min(max_terms, 64)
                    want = _raised_or(lambda: ((j is None) + sum(_terms(spec, i, m, j, count), Fraction(0)), m + count))
                    res = _raised_or(lambda: ext._uncertified(spec, i, m, j, "no certificate", max_terms))
                    assert (res if isinstance(res, tuple) else (res.partial_sum, res.terms_used)) == want
    assert outcomes == {UNDETERMINED, INFINITE, "CertificateError", "SequenceError"}


@pytest.mark.parametrize("spec, i, cyl, witness", [
    (
        StationaryAK(3, 2), 2, None,
        "H^(n)_3 >= 2^n by climbing to vertex 3, whose heights grow at least 2-fold per level, "
        "and 2 >= 1, so t_n >= 1 for n >= 0",
    ),
    (
        StationaryDecreasing(Table((3, 4), Constant(2))), 1, None,
        "H^(n)_2 >= 4^n by climbing to vertex 2, whose heights grow at least 4-fold per level, "
        "and 4 >= 3, so t_n >= 1/3 for n >= 0",
    ),
    (
        StationaryIncreasing(), 1, EndVertex(2, 4),
        "N_n(2) >= 5^(n-4) by routing refinements through the vertical edges of odometer 4, "
        "and 5 >= 2, so t_n >= 1/1250 for n >= 4",
    ),
])
def test_climb_witnesses_are_pinned(spec, i, cyl, witness):
    res = odometer_extension_mass(spec, i) if cyl is None else extended_cylinder_measure(spec, i, cyl)
    assert (res.status, res.certificate, res.divergence_witness) == (INFINITE, "climb-lower-bound", witness)


def test_far_cylinders_step_no_more_counts_than_terms(monkeypatch):
    # a path from (m, j) reaches vertex v only after j - v levels, so a stream of
    # count terms never needs more than count path counts per level
    widest = []
    step = OdometerChain.path_step

    def recording_step(self, n, lo, counts, top=None):
        widest.append(len(counts))
        return step(self, n, lo, counts, top)

    monkeypatch.setattr(OdometerChain, "path_step", recording_step)
    spec = StationaryIncreasing()
    for j in (20, 21, 22, 23, 200):
        widest.clear()
        terms = _terms(spec, 1, 2, j, 20)
        assert max(widest, default=0) <= 20
        assert terms == _terms(spec, 1, 2, j, 30)[:20]
        assert any(terms) == (j <= 21)
    widest.clear()
    res = extended_cylinder_measure(spec, 1, EndVertex(0, 200000))
    assert (res.status, res.partial_sum, res.terms_used) == (UNDETERMINED, 0, DEFAULT_MAX_TERMS)
    assert max(widest, default=0) <= DEFAULT_MAX_TERMS


# -- extended cylinder values -----------------------------------------------------


def test_ak_cylinder_closed_form_grid():
    spec = StationaryAK(4, 2)
    for m in range(6):
        for j in range(1, 7):
            res = extended_cylinder_measure(spec, 1, EndVertex(m, j))
            assert res.status == FINITE
            assert res.exact_value == Fraction(1, 2 ** (j - 1) * 4**m)


def test_ak_cylinder_remark_infinite():
    for i in (2, 3):
        res = extended_cylinder_measure(StationaryAK(4, 2), i, EndVertex(0, i + 1))
        assert res.status == INFINITE


def test_cylinder_odometer_index_below_one_is_rejected():
    for spec, i in ((StationaryAK(4, 2), 0), (DEC, -1)):
        with pytest.raises(DiagramError, match="odometer index must be >= 1"):
            extended_cylinder_measure(spec, i, EndVertex(0, 1))


def test_cylinder_support_and_restriction():
    spec = StationaryAK(4, 2)
    assert extended_cylinder_measure(spec, 3, EndVertex(2, 1)).exact_value == 0
    res = extended_cylinder_measure(spec, 2, EndVertex(3, 2))
    assert res.exact_value == Fraction(1, 8)  # (a-k)^-3


def test_k1_sigma_finite_cylinders():
    spec = StationaryAK(4, 1)
    for m in range(4):
        for j in range(1, 5):
            res = extended_cylinder_measure(spec, 1, EndVertex(m, j))
            assert res.status == FINITE
            assert res.exact_value == Fraction(1, 4**m)


def test_increasing_cylinder_above_infinite():
    for i in (1, 2, 5):
        res = extended_cylinder_measure(StationaryIncreasing(), i, EndVertex(0, i + 1))
        assert res.status == INFINITE


def test_decreasing_cylinder_product_formula():
    res = extended_cylinder_measure(DEC, 1, EndVertex(2, 2))
    assert res.exact_value == Fraction(1, 2 * 25)
    res = extended_cylinder_measure(DEC, 1, EndVertex(1, 4), 400)
    want = Fraction(1, 2 * 3 * 3 * 5)
    assert res.status == FINITE and res.exact_value == want == Fraction(1, 90)
    assert res.contains(want)


def test_nonstationary_neighbor_cylinder():
    spec = NonStationaryUniform(Geometric(2, 2))
    res = extended_cylinder_measure(spec, 1, EndVertex(0, 2))
    # sum over n of 1/a_n = sum 1/2^(n+1) = 1
    assert res.status == FINITE
    assert res.exact_value == 1
    res = extended_cylinder_measure(NonStationaryUniform(Constant(2)), 1, EndVertex(0, 2))
    assert res.status == INFINITE


@pytest.mark.parametrize("spec, status", [
    (NonStationaryUniform(Constant(2)), INFINITE),
    (GeneralChain(((0, 1, 3), (1, 2, 4)), default=2), UNDETERMINED),
])
def test_a_result_that_is_not_finite_has_no_upper_end(spec, status):
    res = odometer_extension_mass(spec, 1)
    assert res.status == status
    assert res.interval() == (res.partial_sum, None)
    assert not res.contains(res.partial_sum)


# one sequence per tail kind, bare and behind a table prefix
LEVEL_TAILS = [Constant(3), Arithmetic(2, 1), Polynomial((3, 2)), Polynomial((2, 0, 1)), Geometric(2, 2)]
LEVEL_SEQUENCES = LEVEL_TAILS + [Table((5, 7), tail) for tail in LEVEL_TAILS]


@pytest.mark.parametrize("seq", LEVEL_SEQUENCES, ids=repr)
def test_level_verdicts_agree_with_the_oracle(seq):
    # the mass and every cylinder beyond the odometer are coefficients of
    # prod_n (1 + t/a_n): all finite exactly when sum 1/a_n converges
    spec = NonStationaryUniform(seq)
    want = closed_form_oracles(spec).status
    assert odometer_extension_mass(spec, 1).status == want
    for m in range(3):
        for j in range(2, 7):
            assert extended_cylinder_measure(spec, 1, EndVertex(m, j)).status == want


def _random_level_sequence(rng, kind):
    tail = [
        lambda: Constant(rng.randint(2, 5)),
        lambda: Arithmetic(rng.randint(2, 4), rng.randint(1, 3)),
        lambda: Polynomial((rng.randint(2, 5), rng.randint(1, 3))),
        lambda: Polynomial((rng.randint(2, 5), rng.randint(0, 4), rng.randint(1, 2))),
        lambda: Geometric(rng.randint(2, 3), rng.randint(2, 3)),
    ][kind]()
    values = tuple(rng.randint(2, 9) for _ in range(rng.randint(0, 3)))
    return Table(values, tail) if values else tail


def test_level_intervals_contain_bruteforce_partial_sums():
    # the certified lower end is the exact sum of terms_used series terms, and
    # every partial sum of the series stays below the certified upper end
    rng = random.Random(20240226)
    for idx in range(10):
        spec = NonStationaryUniform(_random_level_sequence(rng, idx % 5))
        res = odometer_extension_mass(spec, 1)
        terms = mass_series_terms(spec, 1, res.terms_used + 40)
        assert res.partial_sum == 1 + sum(terms[: res.terms_used])
        if res.status == FINITE:
            assert res.contains(1 + sum(terms))
        for m, j in [(0, 2), (0, 3), (1, 4), (2, 6)]:
            res = extended_cylinder_measure(spec, 1, EndVertex(m, j))
            assert res.status != UNDETERMINED
            terms = _terms(spec, 1, m, j, res.terms_used + 40)
            assert res.partial_sum == sum(terms[: res.terms_used], Fraction(0))
            if res.status == FINITE:
                for cut in (j, res.terms_used // 2, len(terms)):
                    assert sum(terms[:cut], Fraction(0)) <= res.interval()[1]
                if res.is_exact:
                    assert res.contains(res.exact_value)


def _forward_level_series(spec, i, m, r, max_terms):
    """Reference for level-indexed masses and cylinders: the prefix stepped forward level by level.

    The masses take (1 + 1/a_n) and the cylinders the coefficients
    E_s <- a E_s + E_(s-1) one level at a time from level m, the geometric
    mass search and the tail weights are Fraction steps; the certificates are
    the engine's own.
    """
    tail_seq, offset = ext._resolve_level_seq(spec.level_diag)
    cf = tail_seq.constant_from()
    slope = (cf[1], 0) if cf is not None else None
    if slope is None and isinstance(tail_seq, Arithmetic) and tail_seq.step > 0:
        slope = (tail_seq.start, tail_seq.step)
    if slope is None and isinstance(tail_seq, Polynomial) and tail_seq.degree() == 1:
        slope = tail_seq.coeffs[:2]
    geometric = isinstance(tail_seq, Geometric) and tail_seq.ratio >= 2
    poly = isinstance(tail_seq, Polynomial) and tail_seq.degree() >= 2
    need, note = 0, None
    if slope is not None:
        levels = 48
    elif geometric:
        levels = 0
        if r is None:
            levels = 2
            while levels < 512 and ext._geometric_tail(tail_seq, levels) * (1 + ext._NEGLIGIBLE) > ext._NEGLIGIBLE:
                levels += 1
    elif poly:
        alpha, need = ext._poly_comparison(tail_seq)
        levels = max(need, 256)
    elif isinstance(tail_seq, Table):
        levels, note = len(tail_seq.values), "level sequence has no tail rule usable for certification"
    else:
        levels, note = 0, "decreasing level sequence has no certificate"
    count = min(max_terms, max(offset + levels - m, 0))
    den = math.prod(spec.vertical_edges(n, i) for n in range(m))
    top, e = 1, [1] + [0] * min(r or 0, count)
    for n in range(m, m + count):
        a = spec.vertical_edges(n, i)
        den *= a
        if r is None:
            top *= a + 1
        else:
            e = [a * e[0]] + [a * e[s] + e[s - 1] for s in range(1, len(e))]
    if r is not None:
        top = e[r] if r < len(e) else 0
    partial = Fraction(top, den)
    used = m + count - offset
    if note is not None or used < need:
        return _pinned(lambda: ext._undetermined(partial, count, note or ext._SHORT))
    if slope is not None:
        return ("infinite", partial, count)
    tail_sum = ext._geometric_tail(tail_seq, used) if geometric else 1 / (alpha * used)
    if r is None:
        if tail_sum >= 1:
            return _pinned(lambda: ext._undetermined(partial, count, ext._SHORT))
        cert = "geometric-tail" if geometric else "comparison-integral-tail"
        return _pinned(lambda: ext._finite(partial, count, partial * tail_sum / (1 - tail_sum), cert))
    if r > max_terms:
        return _pinned(lambda: ext._undetermined(partial, count, ext._SHORT))
    weight, tail = Fraction(1), Fraction(0)
    for s in range(1, r + 1):
        if geometric:
            weight *= Fraction(tail_seq.ratio, tail_seq.value(used) * (tail_seq.ratio**s - 1))
        else:
            weight *= tail_sum / s
        if r - s < len(e):
            tail += e[r - s] * weight
    tail /= den
    if geometric:
        return _pinned(lambda: ext._finite(partial, count, tail, "geometric-exact", exact=partial + tail))
    return _pinned(lambda: ext._finite(partial, count, tail, "comparison-integral-tail"))


def _engine_level_series(spec, i, m, j, max_terms):
    """The engine's answer in the reference's form: a divergent series by status, partial sum and terms."""
    if j is None:
        res = odometer_extension_mass(spec, i, max_terms)
    else:
        res = extended_cylinder_measure(spec, i, EndVertex(m, j), max_terms)
    if res.status == INFINITE:
        return (res.status, res.partial_sum, res.terms_used)
    return _pinned(lambda: res)


def _raised_or(call):
    """What ``call`` returns, or the type and message of the ValueError it raises."""
    try:
        return call()
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def _seeded_level_chains(seed):
    """Level chains of every tail kind, bare, behind a table prefix, and a table with no tail."""
    rng = random.Random(seed)
    chains = []
    for kind in range(5):
        tail = _random_level_sequence(random.Random(rng.random()), kind)
        tail = tail.tail if isinstance(tail, Table) else tail
        chains += [tail, Table(tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 4))), tail)]
    chains.append(Table(tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 12)))))
    return [NonStationaryUniform(seq) for seq in chains]


@pytest.mark.parametrize("max_terms", [0, 2, 8, DEFAULT_MAX_TERMS])
def test_level_series_matches_the_forward_reference(max_terms):
    # one suffix-product table per chain and end level serves every cell;
    # cells and masses must equal the level-by-level forward recursion
    for spec in _seeded_level_chains(20261020 + max_terms):
        for i in (1, 2):
            cells = [(m, j) for m in range(7) for j in range(i + 1, i + 7)] + [(0, None)] * (max_terms >= 2)
            for m, j in cells:
                got = _raised_or(lambda: _engine_level_series(spec, i, m, j, max_terms))
                want = _raised_or(lambda: _forward_level_series(spec, i, m, j and j - i, max_terms))
                assert got == want, (spec, i, m, j)


def test_level_series_answers_do_not_depend_on_the_order_of_queries():
    # the tail rules and tables of the sequences read last are kept: masses and
    # cells of every rule kind, interleaved across more sequences than the memo
    # keeps, equal the same answers each computed from an empty memo, and the
    # memo never holds more than its bound
    chains = [
        NonStationaryUniform(Polynomial((3, 1, 1))),
        NonStationaryUniform(Table((4, 7), Geometric(2, 3))),
        NonStationaryUniform(Table((5, 2, 3), Arithmetic(2, 1))),
        NonStationaryUniform(Constant(3)),
        NonStationaryUniform(Table((6,), Polynomial((3, 2)))),
        NonStationaryUniform(Table((4, 5, 6))),
        NonStationaryUniform(Table((8, 9), Arithmetic(9, -1))),
    ]

    def answer(spec, m, j, t):
        if j is None:
            return _pinned(lambda: odometer_extension_mass(spec, 2, t))
        return _pinned(lambda: extended_cylinder_measure(spec, 1, EndVertex(m, j), t))

    cells = [(m, j, t) for t in (8, DEFAULT_MAX_TERMS) for m in range(4) for j in (2, 4, None, 3, 7) if m == 0 or j]
    cold = []
    for spec in chains:
        cold.append([])
        for m, j, t in cells:
            ext._memo.clear()
            cold[-1].append(answer(spec, m, j, t))
    # three cells of a chain in a row share its entry (their end levels differ
    # where m or the budget does), and the next chains' entries evict it
    ext._memo.clear()
    mixed = [[] for _ in chains]
    for start in range(0, len(cells), 3):
        for spec, out in zip(chains, mixed):
            for m, j, t in cells[start:start + 3]:
                out.append(answer(spec, m, j, t))
                assert len(ext._memo) <= ext._MEMO_KEPT
    assert mixed == cold
    kinds = {rule[2] for rule in map(ext._tail_rule, (spec.level_diag for spec in chains))}
    assert kinds == {"slope", "geometric", "poly", None}


def test_level_series_tables_are_shared_safely_across_threads():
    # more threads than cores grow the same fresh table, row by row and degree
    # by degree, at a short switch interval; each must see a lone caller's answers
    spec = NonStationaryUniform(Polynomial((3, 1, 1)))
    cells = [(m, j) for m in range(6, -1, -1) for j in range(2, 9)]
    ext._memo.clear()
    want = [_pinned(lambda: extended_cylinder_measure(spec, 1, EndVertex(m, j))) for m, j in cells]
    results = []

    def work(start):
        start.wait(timeout=60)
        results.append([_pinned(lambda: extended_cylinder_measure(spec, 1, EndVertex(m, j))) for m, j in cells])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(12):
            ext._memo.clear()
            start = threading.Barrier(8)
            threads = [threading.Thread(target=work, args=(start,)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(results) == 8 and all(got == want for got in results)
            results.clear()
    finally:
        sys.setswitchinterval(interval)


def test_geometric_level_cylinders_are_exact():
    spec = NonStationaryUniform(Geometric(2, 2))
    # e_2(1/2, 1/4, 1/8, ...) = (1/4) / ((1 - 1/2)(1 - 1/4)) = 1/3
    assert extended_cylinder_measure(spec, 1, EndVertex(0, 3)).exact_value == Fraction(1, 3)
    # every cell is exact, so the unnormalized vectors exist; tail invariance
    # p^(n)_j = a_n p^(n+1)_j + p^(n+1)_(j-1) checks the q-binomial values
    window = Truncation(5, 5)
    mv = extend_odometer(spec, 1).measure_vectors(window)
    assert check_tail_invariance(spec, mv, window).ok


def test_square_levels_match_the_sine_product():
    # a_n = (n+2)^2: E(t) = prod_(k>=2) (1 + t/k^2) = sinh(pi sqrt t) / (pi sqrt t (1 + t)),
    # so the mass is E(1) = sinh(pi)/(2 pi) and e_1, e_2 are its first Taylor coefficients
    spec = NonStationaryUniform(Polynomial((4, 4, 1)))
    res = odometer_extension_mass(spec, 1)
    lo, hi = res.interval()
    assert float(lo) <= math.sinh(math.pi) / (2 * math.pi) <= float(hi)
    assert hi - lo <= Fraction(144, 10000)
    pi2 = math.pi**2
    for j, want in [(2, pi2 / 6 - 1), (3, pi2 * pi2 / 120 - pi2 / 6 + 1)]:
        lo, hi = extended_cylinder_measure(spec, 1, EndVertex(0, j)).interval()
        assert float(lo) <= want <= float(hi)


def test_cylinder_partials_match_bruteforce_path_counts():
    # the cylinder series cut at level n equals (paths (m,j) -> (n,i)) * p^(n)_i;
    # the path count here is an independent recursive enumeration
    def brute_paths(spec, m, j, n, i):
        def go(level, v):
            if level == n:
                return 1 if v == i else 0
            total = spec.vertical_edges(level, v) * go(level + 1, v)
            if v >= 2:
                total += go(level + 1, v - 1)
            return total

        return go(m, j)

    cases = [
        (StationaryAK(4, 2), 1),
        (StationaryAK(5, 2), 2),
        (StationaryDecreasing(Table((9, 5, 4), Constant(2))), 1),
    ]
    for spec, i in cases:
        diag = spec.vertex_diag
        a_i = diag.value(i - 1)
        for m, j in [(0, 3), (2, 4), (1, 2)]:
            if j <= i:
                continue
            ext = extended_cylinder_measure(spec, i, EndVertex(m, j))
            n_vec = {v: 0 for v in range(i + 1, j + 1)}
            n_vec[j] = 1
            partial = Fraction(0)
            den = a_i ** (m + 1)
            for n in range(m, m + 10):
                brute = brute_paths(spec, m, j, n, i) * Fraction(1, a_i**n)
                assert brute == partial
                if ext.status == FINITE:
                    assert brute <= ext.exact_value
                partial += Fraction(n_vec[i + 1], den)
                nxt = {}
                for v in range(i + 1, j + 1):
                    nxt[v] = diag.value(v - 1) * n_vec[v] + n_vec.get(v + 1, 0)
                n_vec = nxt
                den *= a_i


def test_support_additivity_toward_mass():
    spec = StationaryAK(4, 2)
    mass = odometer_extension_mass(spec, 1).exact_value
    for m in (1, 2, 3):
        hv = heights(spec, m, Truncation(m + 1, 40))
        total = Fraction(0)
        for j in range(1, 40 - m):
            val = extended_cylinder_measure(spec, 1, EndVertex(m, j)).exact_value
            total += hv.value(j) * val
        assert total <= mass
        assert mass - total < Fraction(1, 10**6)


# -- extended measure objects -----------------------------------------------------


def test_extended_measure_normalization():
    ext = extend_odometer(StationaryAK(4, 2), 1).normalize()
    assert ext.cylinder_value(EndVertex(0, 1)) == Fraction(1, 2)
    assert ext.cylinder_value(EndVertex(1, 2)) == Fraction(1, 16)
    with pytest.raises(DiagramError):
        extend_odometer(StationaryAK(4, 1), 1).normalize()


def test_extension_vectors_pass_invariance():
    spec = StationaryAK(4, 2)
    window = Truncation(7, 9)
    mv = extend_odometer(spec, 1).measure_vectors(window)
    assert check_tail_invariance(spec, mv, window).ok
    # the decreasing chain's mass is exact, so its normalized vectors exist
    window = Truncation(5, 5)
    mv = extend_odometer(DEC, 1).normalize().measure_vectors(window)
    assert check_tail_invariance(DEC, mv, window).ok
    assert mv.value(0, 1) == Fraction(4, 7)


def test_normalized_cylinder_interval_uses_mass_bounds():
    # the mass of this chain is only known to an interval; the normalized
    # cylinder value must cover the cylinder value over every mass in it
    spec = NonStationaryUniform(Geometric(2, 2))
    ext = extend_odometer(spec, 1)
    assert not ext.total_mass.is_exact
    value = extended_cylinder_measure(spec, 1, EndVertex(0, 2))
    assert value.exact_value == 1
    lo, hi = ext.total_mass.interval()
    res = ext.normalize().cylinder_value(EndVertex(0, 2))
    assert res.status == FINITE
    assert res.contains(1 / hi) and res.contains(1 / lo)


def test_normalized_cylinder_passes_an_undetermined_value_through():
    # (0, 9) on odometer 1 needs more than five terms; dividing by the mass would claim more than is known
    spec = NonStationaryUniform(Geometric(2, 2))
    value = extended_cylinder_measure(spec, 1, EndVertex(0, 9), max_terms=5)
    assert value.status == UNDETERMINED
    assert extend_odometer(spec, 1).normalize().cylinder_value(EndVertex(0, 9), max_terms=5) == value


def test_normalized_vectors_need_exact_mass():
    ext = extend_odometer(NonStationaryUniform(Geometric(2, 2)), 1).normalize()
    with pytest.raises(WindowError, match="not exact"):
        ext.measure_vectors(Truncation(3, 3))


def test_unnormalized_vectors_refuse_a_value_that_is_not_exact():
    # odometer 2 of the (4, 2) chain: vertex 3 has a_3 = a_2, so the cylinder
    # (1, 3) climbs to an infinite value
    mv = extend_odometer(StationaryAK(4, 2), 2).measure_vectors(Truncation(2, 4))
    assert mv.value(1, 2) == Fraction(1, 2)
    with pytest.raises(WindowError, match=r"extension value at \(level=1, vertex=3\) is not exact"):
        mv.value(1, 3)


# -- classification ---------------------------------------------------------------


def test_classify_ak():
    cls = classify_ergodic_measures(StationaryAK(4, 2), 5)
    assert cls.finite_indices == (1,)
    entry = cls.entries[0]
    assert entry.mass.exact_value == 2
    assert entry.normalizing_constant == Fraction(1, 2)
    assert not cls.partial
    assert any("mutually singular" in n for n in cls.notes)


def test_classify_increasing_none_finite():
    cls = classify_ergodic_measures(StationaryIncreasing(), 5)
    assert cls.finite_indices == ()
    assert cls.infinite_indices == (1, 2, 3, 4, 5)


def test_classify_nonstationary_all_finite():
    cls = classify_ergodic_measures(NonStationaryUniform(Geometric(2, 2)), 4)
    assert cls.finite_indices == (1, 2, 3, 4)


LEVEL_SEQUENCES = [
    Geometric(2, 2), Constant(3), Arithmetic(2, 1), Polynomial((4, 4, 1)), Table((3, 5)), Arithmetic(40, -3)
]


@pytest.mark.parametrize("seq", LEVEL_SEQUENCES)
def test_classify_certifies_a_level_chain_mass_once(monkeypatch, seq):
    spec = NonStationaryUniform(seq)
    level_series, calls = ext._level_series, []
    monkeypatch.setattr(ext, "_level_series", lambda *args: calls.append(args) or level_series(*args))
    cls = classify_ergodic_measures(spec, 4)
    assert len(calls) == 1
    monkeypatch.undo()
    assert [e.mass for e in cls.entries] == [odometer_extension_mass(spec, i) for i in range(1, 5)]
    assert [e.index for e in cls.entries] == [1, 2, 3, 4]


def test_classify_note_names_the_odometers_it_examined():
    # odometer 3 of this chain is finite too, so the finite entries of i <= 2
    # exhaust the measures only among those odometers
    spec = StationaryDecreasing(Table((9, 7, 5), Constant(2)))
    cls = classify_ergodic_measures(spec, 2)
    assert cls.finite_indices == (1, 2)
    assert classify_ergodic_measures(spec, 3).finite_indices == (1, 2, 3)
    assert cls.notes[0] == (
        "normalized finite entries exhaust the ergodic probability tail-invariant measures among odometers i <= 2"
    )


def test_classify_flags_undetermined():
    cls = classify_ergodic_measures(GeneralChain(((0, 1, 3),), default=2), 2)
    assert cls.partial
    assert any("partial" in n for n in cls.notes)


# -- closed-form oracles -----------------------------------------------------------


def test_oracle_values():
    assert closed_form_oracles(StationaryAK(7, 4), 1).mass == Fraction(4, 3)
    assert closed_form_oracles(NonStationaryUniform(Constant(2))).status == INFINITE
    assert closed_form_oracles(NonStationaryUniform(Geometric(2, 2))).status == FINITE
    assert closed_form_oracles(DEC, 1).status == FINITE
    assert closed_form_oracles(StationaryIncreasing(), 3).status == INFINITE
    assert closed_form_oracles(GeneralChain(((0, 1, 3),), default=2)) is None
    assert closed_form_oracles(ExplicitFinite([[2, 0], [1, 3]])) is None
    # a diagonal without a constant tail whose next entry is smaller has no closed form
    assert closed_form_oracles(StationaryDecreasing(Arithmetic(9, -1)), 1) is None
    # ak chains go through the vertex-indexed closed form: tau = a - k
    for a in range(2, 11):
        for k in range(1, a):
            for i in (1, 2, 3):
                verdict = closed_form_oracles(StationaryAK(a, k), i)
                if i == 1 and k > 1:
                    assert (verdict.status, verdict.mass) == (FINITE, 1 + Fraction(1, k - 1))
                else:
                    assert (verdict.status, verdict.mass) == (INFINITE, None)
