"""Finite stationary diagrams: classes, radii, distinguished data, measures.

Core claims:
    - the class decomposition matches an independent transitive-closure pass
    - the class order is pinned: two matrices exactly, a seeded corpus by digest
    - distinguished classes match a brute-force checker that enumerates
      classes and compares radii across the access poset
    - spectral radii are bracketed within tolerance (exact on 1x1 blocks),
      and the brackets hold numpy's eigenvalues on random and tied matrices
    - equal radii across an access pair are decided exactly, rational or not
    - eigenvectors have small residuals and exact positivity patterns, and
      a residual bound that no tol loosens or tightens
    - the induced vectors satisfy the level relation within 10 * tol
"""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bratteli import finite_stationary as fs
from bratteli.diagram import CertificateError, DiagramError
from bratteli.measure import EndVertex
from bratteli.finite_stationary import (
    decompose,
    distinguished_classes,
    measures_finite_stationary,
    spectral_radius,
)

# the fixed corpus: simple 2x2 splits, a 3-class chain, a block-diagonal
# pair, and one matrix with a 1x1 zero class
CORPUS = [
    [[3, 0], [1, 2]],
    [[2, 0], [1, 3]],
    [[4, 0, 0], [1, 3, 0], [0, 1, 2]],
    [[2, 0, 0], [1, 4, 0], [0, 1, 3]],
    [[2, 0], [0, 3]],
    [[2, 1, 0], [0, 0, 1], [0, 0, 3]],
    [[1, 1, 0], [1, 1, 0], [0, 1, 5]],
]


# -- independent brute-force checker ------------------------------------------


def closure_reach(a):
    """Reachability by repeated squaring of the boolean adjacency matrix."""
    n = len(a)
    reach = [[bool(a[i][j]) or i == j for j in range(n)] for i in range(n)]
    for _ in range(n):
        reach = [
            [any(reach[i][k] and reach[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return reach


def brute_classes(a):
    """Communicating classes via mutual reachability, as vertex frozensets."""
    n = len(a)
    reach = closure_reach(a)
    classes = []
    for i in range(n):
        cls = frozenset(j + 1 for j in range(n) if reach[i][j] and reach[j][i])
        if cls not in classes:
            classes.append(cls)
    return classes, reach


def brute_distinguished(a, tol=1e-9):
    """Distinguished classes by direct radius comparison over the poset."""
    classes, reach = brute_classes(a)
    arr = np.array(a, dtype=float)

    def radius(cls):
        idx = [v - 1 for v in sorted(cls)]
        return max(abs(np.linalg.eigvals(arr[np.ix_(idx, idx)])))

    out = []
    for cls in classes:
        rho = radius(cls)
        distinguished = True
        for other in classes:
            if other == cls:
                continue
            v, w = next(iter(other)) - 1, next(iter(cls)) - 1
            if reach[v][w]:  # other has access to cls
                if radius(other) >= rho - tol:
                    distinguished = False
        if distinguished:
            out.append(cls)
    return out


# -- decomposition ---------------------------------------------------------------


@pytest.mark.parametrize("a", CORPUS)
def test_classes_match_bruteforce(a):
    dec = decompose(a)
    assert set(map(frozenset, dec.classes)) == set(brute_classes(a)[0])


@pytest.mark.parametrize("a", CORPUS)
def test_access_matches_reachability(a):
    dec = decompose(a)
    _, reach = brute_classes(a)
    for b_idx, cls_b in enumerate(dec.classes):
        for a_idx, cls_a in enumerate(dec.classes):
            if a_idx == b_idx:
                continue
            expected = reach[cls_b[0] - 1][cls_a[0] - 1]
            assert ((b_idx, a_idx) in dec.reduced_edges) == expected


def test_topological_order():
    dec = decompose([[2, 1, 0], [0, 0, 1], [0, 0, 3]])
    for b, a in dec.reduced_edges:
        assert b < a  # accessing classes come first


def test_condensation_acyclic_on_random_matrices():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 6)
        a = [[rng.randint(0, 2) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
        for v in range(n):  # keep the diagram valid
            if all(a[w][v] == 0 for w in range(n)):
                a[rng.randrange(n)][v] = 1
            if all(x == 0 for x in a[v]):
                a[v][rng.randrange(n)] = 1
        dec = decompose(a)
        assert all(b < c for b, c in dec.reduced_edges)
        assert set(map(frozenset, dec.classes)) == set(brute_classes(a)[0])


def test_decompose_examples():
    dec = decompose([[3, 0], [1, 2]])
    assert sorted(map(tuple, dec.classes)) == [(1,), (2,)]
    beta = dec.class_of(2)
    alpha = dec.class_of(1)
    assert (beta, alpha) in dec.reduced_edges  # {2} has access to {1}

    single = decompose([[1, 1], [1, 1]])
    assert single.classes == ((1, 2),)
    assert single.reduced_edges == ()

    blocks = decompose([[2, 0], [0, 3]])
    assert len(blocks.classes) == 2
    assert blocks.reduced_edges == ()


def test_decompose_validates():
    with pytest.raises(Exception):
        decompose([[1, 2], [3]])
    with pytest.raises(Exception):
        decompose([[0, 1], [0, 2]])  # column 1 zero


def test_decompose_rejects_vertex_without_outgoing_edges():
    with pytest.raises(DiagramError, match="vertex 2 has no outgoing edges"):
        decompose([[1, 1], [0, 0]])


# -- class order -------------------------------------------------------------------

# among the classes ready at once, the one a depth-first search (roots and
# successors ascending) finishes first comes first; the smallest vertex
# would put (3) before (4) and (1) in the first matrix
ORDER_PINS = [
    (
        [[1, 0, 0, 0], [3, 1, 0, 2], [0, 0, 3, 0], [1, 0, 0, 2]],
        ((2,), (4,), (1,), (3,)),
        ((0, 1), (0, 2), (1, 2)),
    ),
    (
        [
            [3, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 3, 0, 1, 0, 2, 0, 0, 0],
            [0, 0, 2, 0, 0, 0, 0, 3, 1],
            [1, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 2, 0],
            [0, 0, 0, 0, 2, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 2, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 3, 0],
        ],
        ((2,), (4,), (1,), (3,), (9,), (5, 6, 7, 8)),
        ((0, 1), (0, 2), (0, 5), (1, 2), (3, 4), (3, 5), (4, 5)),
    ),
]


@pytest.mark.parametrize("a, classes, edges", ORDER_PINS)
def test_class_order_pinned(a, classes, edges):
    dec = decompose(a)
    assert (dec.classes, dec.reduced_edges) == (classes, edges)


def _random_valid_matrix(rng, n, density):
    a = [[rng.randint(1, 3) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
    for v in range(n):  # every vertex needs incoming and outgoing edges
        if not any(a[w][v] for w in range(n)):
            a[rng.randrange(n)][v] = 1
        if not any(a[v]):
            a[v][rng.randrange(n)] = 1
    return a


def test_class_order_digest_on_a_seeded_corpus():
    rng = random.Random(2010)
    digest = hashlib.sha256()
    for _ in range(600):
        a = _random_valid_matrix(rng, rng.randint(1, 14), rng.uniform(0.03, 0.5))
        dec = decompose(a)
        digest.update(repr((dec.classes, dec.reduced_edges)).encode())
    # computed with the Tarjan/Kahn decomposition this order was first defined by
    assert digest.hexdigest() == "0ba6a9be3280460c53aacc3169be711560d393e9a94b830a9f1efdf5c1388e0c"


# -- spectral radii ----------------------------------------------------------------


def test_radius_examples():
    assert spectral_radius(np.array([[2.0]])) == (2.0, 2.0)
    assert spectral_radius(np.array([[0.0]])) == (0.0, 0.0)
    for a in (0, 2, 5):
        bracket = spectral_radius([[a]], tol=1e-3)
        assert (bracket.low, bracket.high, bracket.poly) == (a, a, (1, -a))
    lo, hi = spectral_radius(np.array([[1.0, 1.0], [1.0, 1.0]]), tol=1e-12)
    assert hi - lo <= 1e-12
    assert lo <= 2.0 <= hi + 1e-12


def test_radius_periodic_block():
    # periodic irreducible block: the +I shift keeps the iteration convergent
    lo, hi = spectral_radius(np.array([[0.0, 2.0], [2.0, 0.0]]), tol=1e-12)
    assert abs(0.5 * (lo + hi) - 2.0) < 1e-9


def test_a_bracket_raises_its_precision_to_part_close_roots():
    # roots 3 and 3 - 2^-60: units of a 1e-12 bracket cannot part them
    poly = (2**60, -(6 * 2**60 - 1), 3 * (3 * 2**60 - 1))
    bracket = fs._newton_bracket(poly, Fraction(4), Fraction(1, 10**12))
    assert bracket.low <= 3 <= bracket.high
    assert bracket.high - bracket.low < Fraction(1, 10**19)
    assert bracket.low > 3 - Fraction(1, 2**60)


def test_a_double_root_is_refused():
    with pytest.raises(DiagramError, match="not simple"):
        fs._newton_bracket((1, -4, 4), Fraction(4), Fraction(1, 10**12))


def test_radius_matches_numpy_on_random_irreducible():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(2, 5)
        a = np.array([[rng.randint(1, 5) for _ in range(n)] for _ in range(n)], dtype=float)
        lo, hi = spectral_radius(a, tol=1e-11)
        want = max(abs(np.linalg.eigvals(a)))
        assert lo - 1e-9 <= want <= hi + 1e-9


# -- distinguished classes ------------------------------------------------------------


@pytest.mark.parametrize("a", CORPUS)
def test_distinguished_match_bruteforce(a):
    dec = decompose(a)
    got = {frozenset(dec.classes[i]) for i in distinguished_classes(dec)}
    assert got == set(brute_distinguished(a))


def test_distinguished_examples():
    dec = decompose([[3, 0], [1, 2]])
    assert len(distinguished_classes(dec)) == 2
    dec = decompose([[2, 0], [1, 3]])
    got = [dec.classes[i] for i in distinguished_classes(dec)]
    assert got == [(2,)]
    dec = decompose([[1, 1], [1, 1]])
    assert distinguished_classes(dec) == (0,)


def test_tied_radii_are_decided():
    # equal radii across an access pair: only the accessing class is distinguished
    for a, accessing in (([[2, 1], [0, 2]], 1), ([[2, 0], [1, 2]], 2)):
        dec = decompose(a)
        assert [dec.classes[i] for i in distinguished_classes(dec)] == [(accessing,)]
        (m,) = measures_finite_stationary(a)
        assert m.lam == 2.0
        assert m.xi_normalized[accessing - 1] == 1.0 and m.xi_normalized[2 - accessing] == 0.0


def _joined(upper, lower):
    """Block-triangular A with ``upper`` reaching ``lower`` by one edge."""
    k, n = len(upper), len(upper) + len(lower)
    a = [[0] * n for _ in range(n)]
    for i, row in enumerate(upper):
        a[i][:k] = row
    for i, row in enumerate(lower):
        a[k + i][k:] = row
    a[k - 1][k] = 1
    return a


GOLDEN = [[1, 1], [1, 0]]
# x^3 - 2x - 1 = (x + 1)(x^2 - x - 1): the golden ratio again, from another polynomial
GOLDEN_CUBIC = [[0, 0, 1], [1, 0, 2], [0, 1, 0]]


@pytest.mark.parametrize("upper, lower", [(GOLDEN, GOLDEN), (GOLDEN, GOLDEN_CUBIC), (GOLDEN_CUBIC, GOLDEN)])
def test_irrational_tie_between_golden_blocks(upper, lower):
    a = _joined(upper, lower)
    dec = decompose(a)
    assert len(dec.classes) == 2 and dec.reduced_edges == ((0, 1),)
    golden = (1 + 5**0.5) / 2
    for alpha in range(2):
        lo, hi = spectral_radius(dec.class_matrix(alpha))
        assert lo <= golden <= hi and lo < hi  # irrational: never a point
    assert distinguished_classes(dec) == (0,)
    (m,) = measures_finite_stationary(a)
    k = len(upper)
    assert all(x > 0 for x in m.xi_normalized[:k]) and all(x == 0.0 for x in m.xi_normalized[k:])
    assert abs(m.lam - golden) < 1e-12


def test_close_radii_in_overlapping_brackets_are_separated():
    # at tol=100 the brackets are a unit wide, so 2 (or 3) and the root
    # (3 + 5**0.5) / 2 = 2.618... of [[2,1],[1,1]] start out overlapping
    # and are narrowed until they part
    dec = decompose(_joined([[2]], [[2, 1], [1, 1]]))
    assert spectral_radius(dec.class_matrix(1), tol=100) == (2.0, 3.0)
    assert distinguished_classes(dec, tol=100) == (0, 1)
    assert distinguished_classes(decompose(_joined([[3]], [[2, 1], [1, 1]])), tol=100) == (0,)


def test_tied_and_random_matrices_against_numpy_eigenvalues():
    # numpy is a test-only oracle: every class bracket holds its largest
    # eigenvalue modulus and is at most tol wide, and the distinguished sets
    # match the brute-force checker, on random matrices half of them tied
    rng = random.Random(41)
    tol = 1e-12
    for trial in range(60):
        if trial % 2:  # a block above its own copy: equal radii along an access edge
            k = rng.randint(1, 4)
            block = [[rng.choice((0, 1, 1, 2)) for _ in range(k)] for _ in range(k)]
            for i in range(k):  # a cycle through every vertex keeps the block irreducible
                block[i][(i + 1) % k] = max(block[i][(i + 1) % k], 1)
            a = _joined(block, block)
        else:
            n = rng.randint(2, 9)
            a = [[rng.choice((0, 0, 0, 1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
        n = len(a)
        for v in range(n):  # keep the diagram valid
            if all(a[w][v] == 0 for w in range(n)):
                a[rng.randrange(n)][v] = 1
            if all(x == 0 for x in a[v]):
                a[v][rng.randrange(n)] = 1
        dec = decompose(a)
        arr = np.array(a, dtype=float)
        for alpha, cls in enumerate(dec.classes):
            idx = [v - 1 for v in cls]
            lo, hi = spectral_radius(dec.class_matrix(alpha), tol)
            want = max(abs(np.linalg.eigvals(arr[np.ix_(idx, idx)])))
            assert lo - 1e-9 <= want <= hi + 1e-9
            assert hi - lo <= tol
        got = {frozenset(dec.classes[i]) for i in distinguished_classes(dec, tol)}
        assert got == set(brute_distinguished(a))


# -- eigenvectors -----------------------------------------------------------------------


@pytest.mark.parametrize("a", CORPUS)
def test_eigen_residuals_and_positivity(a):
    arr = np.array(a, dtype=float)
    for m in measures_finite_stationary(a):
        data = m.data
        x = np.array(data.xi)
        residual = np.max(np.abs(arr @ x - data.rho_mid * x))
        assert residual <= 1e-10 * max(1.0, np.max(np.abs(x)))
        for v in range(1, len(a) + 1):
            if v in data.support:
                assert data.xi[v - 1] > 0
            else:
                assert data.xi[v - 1] == 0.0  # exact zero by construction


@pytest.mark.parametrize("a", CORPUS + [[[1, 1, 0], [0, 1, 1], [0, 0, 3]], [[2, 1, 1], [1, 2, 0], [0, 0, 3]]])
def test_eigenvector_is_scaled_to_its_class_and_matches_the_null_space(a):
    # xi on the access set is the null vector of rho I - A there, the class's entries summing to 1
    dec = decompose(a)
    for m in measures_finite_stationary(a):
        data, alpha = m.data, m.data.class_index
        assert abs(sum(data.xi[v - 1] for v in dec.classes[alpha]) - 1) <= 1e-15
        idx = sorted(v - 1 for v in data.support)
        block = np.array(a, dtype=float)[np.ix_(idx, idx)]
        values, vectors = np.linalg.eig(block)
        want = np.real(vectors[:, np.argmin(abs(values - data.rho_mid))])
        want = want / sum(want[idx.index(v - 1)] for v in dec.classes[alpha])
        assert np.allclose([data.xi[i] for i in idx], want, rtol=1e-9, atol=0)


def test_eigen_example_values():
    dec = decompose([[3, 0], [1, 2]])
    data = {m.data.class_index: m.data for m in measures_finite_stationary([[3, 0], [1, 2]])}
    d1 = data[dec.class_of(1)]
    ratio = d1.xi[1] / d1.xi[0]
    assert abs(ratio - 1.0) < 1e-9  # x = (1, 1) up to scaling
    d2 = data[dec.class_of(2)]
    assert d2.xi[0] == 0.0 and d2.xi[1] > 0


def test_block_diagonal_indicator_vectors():
    ms = measures_finite_stationary([[2, 0], [0, 3]])
    assert [m.data.class_index for m in ms] == [0, 1]
    for data in (m.data for m in ms):
        support = [v - 1 for v in data.support]
        assert len(support) == 1
        assert data.xi[support[0]] > 0


@pytest.mark.parametrize("a", [[[2, 1], [1, 2]], [[3, 1, 0], [1, 3, 0], [1, 1, 1]]])
@pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-3, 0.5])
def test_a_perturbed_perron_vector_is_refused_at_every_tol(monkeypatch, a, tol):
    perron = fs._perron_vector

    def perturbed(block, radius):
        x = perron(block, radius)
        return [x[0] * (1 + 1e-6)] + x[1:]

    monkeypatch.setattr(fs, "_perron_vector", perturbed)
    with pytest.raises(CertificateError, match="eigen residual .* exceeds its bound"):
        measures_finite_stationary(a, tol)


# -- measures ---------------------------------------------------------------------------


def test_measures_per_distinguished_class():
    ms = measures_finite_stationary([[3, 0], [1, 2]])
    assert len(ms) == 2
    ms = measures_finite_stationary([[2, 0], [1, 3]])
    assert len(ms) == 1
    # the class {2} measure gives vertex-2 cylinders positive mass, vertex 1 zero
    m = ms[0]
    assert m.cylinder_value(EndVertex(1, 1)) == 0.0
    assert m.cylinder_value(EndVertex(1, 2)) == 1.0  # normalized: level-1 masses sum to 1
    # the measure holds its class data once: lambda and xi are that data's
    assert m.lam == m.data.rho_mid and m.xi_raw == m.data.xi
    assert sum(m.xi_normalized) == 1.0
    # 0.5 / 2^1024 is a float although 2^1024 is not
    assert measures_finite_stationary([[1, 1], [1, 1]])[0].cylinder_value(EndVertex(1025, 1)) == 2.0**-1025


@pytest.mark.parametrize("vertex", [0, -1, 3])
def test_cylinder_value_refuses_vertices_outside_the_diagram(vertex):
    m = measures_finite_stationary([[3, 0], [1, 2]])[0]
    # an index below 1 names no cylinder; one past the matrix names no vertex of this diagram
    message = rf"vertex {vertex} is outside 1\.\.2" if vertex > 0 else "cylinder needs length >= 0 and index >= 1"
    with pytest.raises(DiagramError, match=message):
        m.cylinder_value(EndVertex(1, vertex))


def test_single_class_full_support():
    ms = measures_finite_stationary([[1, 1], [1, 1]])
    assert len(ms) == 1
    assert all(v > 0 for v in ms[0].xi_normalized)
    assert abs(sum(ms[0].xi_normalized) - 1.0) < 1e-12


@pytest.mark.parametrize("a", CORPUS)
def test_measure_vectors_satisfy_level_relation(a):
    # p^(n)_w = xi(w) / lambda^(n-1) must satisfy F^T p^(n+1) = p^(n)
    tol = 1e-12
    arr = np.array(a, dtype=float)
    for m in measures_finite_stationary(a, tol):
        xi = np.array(m.xi_normalized)
        for n in range(1, 5):
            p_n = xi / m.lam ** (n - 1)
            p_next = xi / m.lam**n
            # F^T = A, so the relation reads A p^(n+1) = p^(n)
            assert np.max(np.abs(arr @ p_next - p_n)) <= 10 * tol * np.max(np.abs(p_n)) + 1e-13


@pytest.mark.parametrize("tol", [0.5, 100.0])
def test_eigen_data_do_not_depend_on_a_wide_tol(tol):
    # the class {1, 2} has Perron root (3 + sqrt 5)/2; a wide tol widens its radius bracket only
    a = [[2, 1, 0], [1, 1, 0], [1, 0, 1]]
    golden = (3 + 5**0.5) / 2
    lo, hi = spectral_radius([[2, 1], [1, 1]], tol)
    assert hi - lo > 2**-40 and lo <= golden <= hi
    for got, want in zip(measures_finite_stationary(a, tol), measures_finite_stationary(a)):
        assert got.data.class_index == want.data.class_index
        assert abs(got.lam - want.lam) <= 1e-12
        assert all(abs(x - y) <= 1e-12 for x, y in zip(got.xi_raw, want.xi_raw))
        assert got.data.rho[1] - got.data.rho[0] <= 2**-39
    lam = measures_finite_stationary(a, tol)[1].lam
    assert abs(lam - golden) <= 1e-12


def test_importing_the_package_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, bratteli; print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('bratteli')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60, env=env)
    # no layer module either: each loads on first use of one of its names
    assert out.stdout.strip() == "['bratteli']"
