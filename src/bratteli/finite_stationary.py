"""Distinguished classes and measures for finite stationary diagrams.

For a finite stationary standard diagram with incidence matrix F, write
A = F^T and decompose the directed graph of A into communicating classes.
The classes, their access and their order come from one reach relation,
bit rows closed by Warshall's algorithm: a class is a mutual-reach set, a
class has access to every class it reaches, and the classes are numbered in
Kahn's order over access, ties going to the class a depth-first search
(roots and successors ascending) finishes first.  A class is distinguished when its Perron root strictly
exceeds the root of every class with access to it; each distinguished class
carries a nonnegative eigenvector, positive exactly on the vertices with
access to the class, and that eigenpair induces an ergodic probability
measure with cylinder values xi(w) / lambda^(n-1) at level n >= 1.

Perron roots are generally irrational, so each is held in an exact dyadic
bracket at most ``tol`` wide.  The Perron root of a class block is the
largest real root of its integer characteristic polynomial p, and every
root has real part at most that root, so by Gauss-Lucas p, p' and p'' are
positive above it.  Newton's method started at the largest row or column
sum (Collatz-Wielandt upper bounds), with every iterate rounded up, thus
never passes below the root, and any point where p < 0 lies below it.
Radii are compared exactly: two brackets that overlap across an access
pair are narrowed until they separate, or found equal when the gcd of the
two polynomials has a root in both (a Sturm count).  Eigenvectors are
floats, each from one inverse iteration on A over its class's access set,
checked by their residual and sign pattern.  The module uses Python
integers, fractions and floats only.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ._frozen import _delattr, _setattr, frozen
from .diagram import CertificateError, DiagramError, ExplicitFinite


# ---------------------------------------------------------------------------
# Communicating classes
# ---------------------------------------------------------------------------


@frozen
class ClassDecomposition:
    """Communicating classes of G(A) in topological order.

    ``classes[b]`` lists 1-based vertex indices; edges of the reduced graph
    are the full access relation: ``(beta, alpha)`` present iff beta has a
    path to alpha (beta strictly precedes alpha).  The class order is
    topological: every accessing class comes before the classes it reaches.
    """

    matrix: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[int, ...], ...]
    reduced_edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.matrix)

    def class_of(self, vertex: int) -> int:
        for idx, cls in enumerate(self.classes):
            if vertex in cls:
                return idx
        raise DiagramError(f"vertex {vertex} not in any class")

    def class_matrix(self, alpha: int) -> tuple[tuple[int, ...], ...]:
        idx = [v - 1 for v in self.classes[alpha]]
        return tuple(tuple(self.matrix[i][j] for j in idx) for i in idx)

    def predecessors(self, alpha: int) -> tuple[int, ...]:
        """Classes with access to alpha (beta such that beta > alpha)."""
        return tuple(b for b, a in self.reduced_edges if a == alpha)

    def access_set(self, alpha: int) -> frozenset[int]:
        """Vertices with access to class alpha, including the class itself."""
        out = set(self.classes[alpha])
        for b in self.predecessors(alpha):
            out.update(self.classes[b])
        return frozenset(out)


def decompose(a_matrix) -> ClassDecomposition:
    """Communicating classes of G(A), their order and access, from one reach relation.

    Edge i -> j exists iff a[i][j] > 0.  ``reach[i]`` is an int bit row with
    bit j set iff j is reachable from i (reflexive), closed by Warshall's
    algorithm.  The classes are the mutual-reach sets, and class beta has
    access to class alpha iff beta's vertices reach alpha's.  The order is
    Kahn's over that relation: of the classes whose accessing classes are all
    placed, the next is the one whose vertices a depth-first search (roots
    and successors ascending) finishes first.  Two such classes do not reach
    each other, so the search enters them in the same order as it finishes
    them, and the classes are numbered by entry.
    """
    rows = ExplicitFinite(a_matrix).a_matrix
    n = len(rows)
    succ = [[j for j, x in enumerate(row) if x] for row in rows]
    reach = [sum(1 << j for j in out) | 1 << i for i, out in enumerate(succ)]
    for k in range(n):
        reach = [r | reach[k] if r >> k & 1 else r for r in reach]

    # the search pops vertices in the preorder of the recursive one; heads[c]
    # is the vertex it enters class c by
    heads, classes, placed = [], [], set()
    seen, stack = [False] * n, list(range(n - 1, -1, -1))
    while stack:
        v = stack.pop()
        if not seen[v]:
            seen[v] = True
            stack.extend(reversed(succ[v]))
            if v not in placed:
                heads.append(v)
                classes.append([j for j in range(n) if reach[v] >> j & 1 and reach[j] >> v & 1])
                placed.update(classes[-1])

    # accessing[c]: bit b set iff class b != c has access to class c
    accessing = [sum(1 << b for b, h in enumerate(heads) if h != head and reach[h] >> head & 1) for head in heads]
    order, left = [], (1 << len(heads)) - 1
    while left:
        c = next((c for c in range(len(heads)) if left >> c & 1 and not accessing[c] & left), None)
        if c is None:
            raise DiagramError("condensation is not acyclic (internal error)")
        order.append(c)
        left ^= 1 << c
    classes = tuple(tuple(v + 1 for v in classes[c]) for c in order)
    reduced = tuple((x, y) for x, b in enumerate(order) for y, a in enumerate(order) if accessing[a] >> b & 1)
    return ClassDecomposition(rows, classes, reduced)


# ---------------------------------------------------------------------------
# Integer polynomials: coefficient tuples, leading coefficient first
# ---------------------------------------------------------------------------


def _charpoly(block: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """det(xI - B) of a square integer block.

    Newton's identities turn the power sums tr(B^k), k <= n, into the
    coefficients with exact integer divisions.  The powers are formed only
    up to B^h, h = ceil(n/2): tr(B^(h+j)) pairs the rows of B^h with the
    columns of B^j.
    """
    n = len(block)
    half = (n + 1) // 2
    cols = list(zip(*block))
    powers = [block]
    for _ in range(half - 1):
        powers.append([[sum(map(operator.mul, row, col)) for col in cols] for row in powers[-1]])
    top = powers[-1]
    traces = [sum(p[r][r] for r in range(n)) for p in powers]
    for j in range(1, n - half + 1):
        traces.append(sum(sum(map(operator.mul, top[r], col)) for r, col in enumerate(zip(*powers[j - 1]))))
    coeffs = [1]
    for k in range(1, n + 1):
        coeffs.append(-sum(coeffs[k - i] * traces[i - 1] for i in range(1, k + 1)) // k)
    return tuple(coeffs)


def _derivative(poly):
    deg = len(poly) - 1
    return tuple(c * (deg - k) for k, c in enumerate(poly[:-1]))


def _scaled_value(poly, num: int, shift: int) -> int:
    """2^(shift * deg) * p(num / 2^shift): an integer with the sign of p there."""
    acc = 0
    for k, c in enumerate(poly):
        acc = acc * num + (c << (shift * k))
    return acc


def _value(poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in poly:
        acc = acc * x + c
    return acc


def _remainder(a: list, b: list) -> list:
    """a mod b over the rationals, leading zeros stripped (``[]`` is zero)."""
    a = list(a)
    while len(a) >= len(b):
        q = Fraction(a[0]) / b[0]
        for i in range(1, len(b)):
            a[i] -= q * b[i]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return a


def _gcd(a, b) -> list:
    a, b = list(a), list(b)
    while b:
        a, b = b, _remainder(a, b)
    return a


def _sturm_count(poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of ``poly`` in (lo, hi), neither end a root (Sturm's theorem)."""
    chain = [list(poly), list(_derivative(poly))]
    while True:
        rem = _remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])

    def sign_changes(x):
        signs = [s for s in (_value(p, x) for p in chain) if s]
        return sum((u > 0) != (v > 0) for u, v in zip(signs, signs[1:]))

    return sign_changes(lo) - sign_changes(hi)


# ---------------------------------------------------------------------------
# Perron roots in exact brackets
# ---------------------------------------------------------------------------


def _float_below(x: Fraction) -> float:
    f = float(x)
    return f if f <= x else math.nextafter(f, -math.inf)


def _float_above(x: Fraction) -> float:
    f = float(x)
    return f if f >= x else math.nextafter(f, math.inf)


class PerronBracket(tuple):
    """A Perron root as the float pair ``(lo, hi)``, carrying its certificate.

    ``low <= root <= high`` are exact dyadic rationals and ``poly`` is the
    block's integer characteristic polynomial, leading coefficient first,
    whose largest real root the root is.  The pair is ``(low, high)``
    rounded outward, so it brackets the root too; the bracket unpacks,
    compares and hashes as that pair.
    """

    def __new__(cls, low: Fraction, high: Fraction, poly: tuple[int, ...]):
        self = super().__new__(cls, (_float_below(low), _float_above(high)))
        for name, value in (("low", low), ("high", high), ("poly", poly)):
            object.__setattr__(self, name, value)
        return self

    __setattr__ = _setattr
    __delattr__ = _delattr

    def narrowed(self) -> PerronBracket:
        """The same root in a bracket at most half as wide."""
        if self.low == self.high:
            return self
        return _newton_bracket(self.poly, self.high, (self.high - self.low) / 2)

    def isolates(self) -> bool:
        """Whether the root is the only root of ``poly`` in the bracket."""
        return self.low == self.high or _sturm_count(self.poly, self.low, self.high) == 1


# times a bracket raises its precision by _EXTRA_BITS before giving up: an
# irreducible block's Perron root is a simple root and needs at most a few
_ROUNDS = 32
_EXTRA_BITS = 8


def _newton_bracket(poly: tuple[int, ...], start: Fraction, width: Fraction) -> PerronBracket:
    """Bracket the largest real root of ``poly`` from ``start`` >= it.

    The iterates are dyadics with a fixed denominator 2^shift, each the
    exact Newton step rounded up; once the step is under one unit, the
    first of hi - 1, hi - 2, hi - 4 units where p < 0 closes the bracket.
    A unit is at most width / 8, so the bracket is at most width / 2 wide.
    If no such point exists (a root within a few units below, or a root of
    even multiplicity), the precision goes up and Newton continues.
    """
    slope = _derivative(poly)
    shift = max(0, width.denominator.bit_length() - width.numerator.bit_length() + 3)
    hi = -((-start.numerator << shift) // start.denominator)
    for _ in range(_ROUNDS):
        while True:
            value = _scaled_value(poly, hi, shift)
            if value == 0:
                root = Fraction(hi, 1 << shift)
                return PerronBracket(root, root, poly)
            step = value // _scaled_value(slope, hi, shift)
            if step == 0:
                break
            hi -= step
        for units in (1, 2, 4):
            if _scaled_value(poly, hi - units, shift) < 0:
                return PerronBracket(Fraction(hi - units, 1 << shift), Fraction(hi, 1 << shift), poly)
        shift += _EXTRA_BITS
        hi <<= _EXTRA_BITS
    raise DiagramError(
        "the largest real root of this block's characteristic polynomial is not simple; is the block irreducible?"
    )


def _as_int(x) -> int:
    try:
        return operator.index(x)
    except TypeError:
        if isinstance(x, float) and x.is_integer():
            return int(x)
        raise DiagramError(f"block entry {x!r} is not an integer") from None


def spectral_radius(block, tol: float = 1e-12) -> PerronBracket:
    """Bracket the Perron root of an irreducible nonnegative integer block.

    ``block`` is a square nested sequence of integers, such as
    ``ClassDecomposition.class_matrix``; integral floats (a float array)
    are read as the integers they equal.  The root lies in an exact dyadic
    bracket at most ``tol`` wide, a single point whenever a Newton iterate
    hits the root exactly, as the first one does for a 1x1 block.  The
    result unpacks as that bracket rounded outward to floats, ``(lo, hi)``,
    and carries the exact endpoints and the characteristic polynomial
    (``PerronBracket``).
    """
    rows = tuple(tuple(map(_as_int, row)) for row in block)
    if not rows or any(len(row) != len(rows) for row in rows):
        raise DiagramError("block must be square and nonempty")
    if any(x < 0 for row in rows for x in row):
        raise DiagramError("block entries must be nonnegative")
    if not 0 < tol < math.inf:
        raise DiagramError(f"tol must be a positive finite number, not {tol!r}")
    start = min(max(map(sum, rows)), max(map(sum, zip(*rows))))
    return _newton_bracket(_charpoly(rows), Fraction(start), Fraction(tol))


def _compare(a: PerronBracket, b: PerronBracket) -> int:
    """The sign of root(a) - root(b), decided exactly.

    Disjoint brackets decide at once.  Overlapping ones are narrowed until
    each isolates its root, and the roots are equal exactly when the gcd of
    the two polynomials has a root where the brackets meet; otherwise they
    are narrowed until they separate.
    """
    while True:
        if a.low > b.high:
            return 1
        if b.low > a.high:
            return -1
        if a.isolates() and b.isolates():
            common = _gcd(a.poly, b.poly)
            lo, hi = max(a.low, b.low), min(a.high, b.high)
            if len(common) > 1 and (
                _value(common, lo) == 0
                or _value(common, hi) == 0
                or (lo < hi and _sturm_count(common, lo, hi) > 0)
            ):
                return 0
        a, b = a.narrowed(), b.narrowed()


def class_radii(dec: ClassDecomposition, tol: float = 1e-12) -> list[PerronBracket]:
    """The bracketed Perron root of every class, in class order."""
    return [spectral_radius(dec.class_matrix(alpha), tol) for alpha in range(len(dec.classes))]


def distinguished_classes(dec: ClassDecomposition, tol: float = 1e-12) -> tuple[int, ...]:
    """Classes whose Perron root strictly exceeds every strict predecessor's.

    The comparisons are exact, so equal radii across an access pair make
    the reached class not distinguished.
    """
    return _distinguished(dec, class_radii(dec, tol))


def _distinguished(dec: ClassDecomposition, radii: list[PerronBracket]) -> tuple[int, ...]:
    return tuple(
        alpha
        for alpha in range(len(dec.classes))
        if all(_compare(radii[alpha], radii[beta]) > 0 for beta in dec.predecessors(alpha))
    )


# ---------------------------------------------------------------------------
# Distinguished eigenvectors and measures
# ---------------------------------------------------------------------------


@frozen
class DistinguishedData:
    """Eigen data of one distinguished class.

    ``xi`` has length N with entries exactly 0.0 outside the access set of
    the class; ``rho`` is the bracketed Perron root, at most 2^-40 wide.
    """

    class_index: int
    rho: tuple[float, float]
    xi: tuple[float, ...]
    support: frozenset[int]

    @property
    def rho_mid(self) -> float:
        return 0.5 * (self.rho[0] + self.rho[1])


def distinguished_eigenvector(
    dec: ClassDecomposition, alpha: int, tol: float = 1e-12
) -> DistinguishedData:
    """The eigenvector of A for rho_alpha, positive exactly on the access set.

    It comes from inverse iteration on A restricted to the access set (the
    class and every class with access to it), scaled so that the class's
    own entries sum to 1; the vertices without access get exact zeros.  A
    class that is not distinguished is refused.
    """
    radius = spectral_radius(dec.class_matrix(alpha), tol)
    for beta in dec.predecessors(alpha):
        if _compare(radius, spectral_radius(dec.class_matrix(beta), tol)) <= 0:
            raise DiagramError(
                f"class {alpha} is not distinguished: class {beta} has access to it and a radius as large"
            )
    return _eigenvector(dec, alpha, radius)


def _factor(m: list[list[float]]) -> tuple[list[list[float]], list[int]]:
    """LU factors of a square float matrix by partial pivoting, in place;
    ``perm[i]`` is the original row of factor row i."""
    n = len(m)
    perm = list(range(n))
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))
        if m[p][k] == 0.0:
            raise CertificateError("singular matrix in a finite-stationary eigenvector solve")
        m[k], m[p] = m[p], m[k]
        perm[k], perm[p] = perm[p], perm[k]
        pivot_row = m[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k] = row[k] / pivot_row[k]
            if f:
                for j in range(k + 1, n):
                    row[j] -= f * pivot_row[j]
    return m, perm


def _solve(factors: tuple[list[list[float]], list[int]], rhs: list[float]) -> list[float]:
    lu, perm = factors
    n = len(lu)
    y = [rhs[p] for p in perm]
    for i in range(n):
        y[i] -= sum(map(operator.mul, lu[i][:i], y[:i]))
    for i in reversed(range(n)):
        y[i] = (y[i] - sum(map(operator.mul, lu[i][i + 1 :], y[i + 1 :]))) / lu[i][i]
    return y


# inverse iterations on an access-set block before its vector must have settled
_INVERSE_ITERATIONS = 8
# the bracket width all eigen data are taken from, whatever tol is
_VECTOR_WIDTH = Fraction(1, 2**40)


def _perron_vector(block: tuple[tuple[int, ...], ...], radius: PerronBracket) -> list[float]:
    """The nonnegative eigenvector of ``block`` for the root ``radius`` brackets, summing to 1.

    ``block`` is A over a distinguished class's access set, whose root is a
    simple eigenvalue: every other class there has a strictly smaller root.
    Inverse iteration with a shift just above the root's upper bound, where
    shift I - B is a nonsingular M-matrix with a nonnegative inverse: each
    step divides every other eigencomponent by at least its gap to the root
    over the shift's distance to it.
    """
    n = len(block)
    shift = radius[1] * (1 + 2.0**-40) + 2.0**-40
    factors = _factor([[(shift if i == j else 0.0) - block[i][j] for j in range(n)] for i in range(n)])
    x = [1.0 / n] * n
    for _ in range(_INVERSE_ITERATIONS):
        y = _solve(factors, x)
        total = sum(y)
        y = [v / total for v in y]
        settled = max(abs(u - v) for u, v in zip(x, y)) <= 2.0**-50
        x = y
        if settled:
            return x
    raise CertificateError("inverse iteration did not settle on a Perron vector")


def _eigenvector(dec: ClassDecomposition, alpha: int, radius: PerronBracket) -> DistinguishedData:
    a = dec.matrix
    n = dec.size
    if radius.high - radius.low > _VECTOR_WIDTH:
        radius = _newton_bracket(radius.poly, radius.high, _VECTOR_WIDTH)
    rho = 0.5 * (radius[0] + radius[1])
    support = dec.access_set(alpha)
    # in class order shift I - A is block upper triangular: its LU eliminates one class at a time
    idx = [v - 1 for beta in (*dec.predecessors(alpha), alpha) for v in dec.classes[beta]]
    x = [0.0] * n
    for i, value in zip(idx, _perron_vector(tuple(tuple(a[i][j] for j in idx) for i in idx), radius)):
        x[i] = value
    total = sum(x[v - 1] for v in dec.classes[alpha])
    x = [value / total for value in x]
    if any(x[v - 1] <= 0 for v in support):
        raise CertificateError(f"eigenvector of class {alpha} is not positive on its access set")
    # the vector comes from a bracket at most 2^-40 wide and sums of n float
    # products of size up to rho_hi |x|, whatever the reported radius width
    residual = max(abs(sum(map(operator.mul, row, x)) - rho * xi) for row, xi in zip(a, x))
    bound = 10 * (2.0**-40 + n * radius[1] * 2.0**-52) * max(x)
    if residual > bound:
        raise CertificateError(f"eigen residual {residual} of class {alpha} exceeds its bound {bound}")
    return DistinguishedData(alpha, radius, tuple(x), support)


@frozen
class FiniteStationaryMeasure:
    """Ergodic probability measure of one distinguished class.

    Cylinder values follow xi(w) / lambda^(n-1) for a path ending at vertex w
    on level n >= 1 (level-1 heights are 1 under the simple-hat convention,
    so scaling xi to sum 1 makes the level-1 tower masses sum to 1).  The
    measure is, up to a constant, the extension of the unique invariant
    measure from the class's stationary subdiagram.
    """

    data: DistinguishedData
    lam: float
    xi_normalized: tuple[float, ...]
    xi_raw: tuple[float, ...]

    def cylinder_value(self, cyl) -> float:
        """The value at ``EndVertex(n, w)``, n >= 1.  It is a float, not an
        interval: xi carries a residual certificate and no bracket, so no
        bounds come with the value until a bracketed or exact xi does."""
        from .measure import EndVertex  # here, so that ``finite classify`` does not load ``measure``

        if not isinstance(cyl, EndVertex):
            raise DiagramError(
                "explicit paths describe odometer chains only; read a finite-stationary measure at an EndVertex"
            )
        if cyl.length < 1:
            raise DiagramError("cylinder level must be >= 1 on a standard diagram")
        if cyl.index > len(self.xi_normalized):  # an EndVertex index is >= 1
            raise DiagramError(f"vertex {cyl.index} is outside 1..{len(self.xi_normalized)} of this diagram")
        return self.xi_normalized[cyl.index - 1] / self.lam ** (cyl.length - 1)


def measures_finite_stationary(a_matrix, tol: float = 1e-12) -> list[FiniteStationaryMeasure]:
    """One ergodic probability measure per distinguished class of A = F^T."""
    dec = decompose(a_matrix)
    return class_measures(dec, class_radii(dec, tol))


def class_measures(dec: ClassDecomposition, radii: list[PerronBracket]) -> list[FiniteStationaryMeasure]:
    """``measures_finite_stationary`` on a decomposition whose class radii
    ``class_radii`` already bracketed."""
    out = []
    for alpha in _distinguished(dec, radii):
        data = _eigenvector(dec, alpha, radii[alpha])
        total = sum(data.xi)
        xi_norm = tuple(v / total for v in data.xi)
        out.append(FiniteStationaryMeasure(data, data.rho_mid, xi_norm, data.xi))
    return out
