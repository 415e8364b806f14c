"""Measure extension from subdiagrams with certified convergence.

The total mass of the canonical extension of a subdiagram measure is

    1 + sum over levels n of sum over v in W_{n+1}, w outside W_n of
        f^(n)_{v,w} * H^(n)_w * p^(n+1)_v

a series of nonnegative rational terms.  For one odometer of an odometer
chain this collapses to  1 + sum_n H^(n)_{i+1} / (a_0(i) ... a_n(i)), and a
cylinder value to the same series over the paths from the cylinder's end
vertex.  One term stream yields both: it steps the path counts N_n(i+1) up
with the chain's :meth:`OdometerChain.path_step`, from every vertex of level
0 for the mass and from the end vertex for a cylinder.

The engine never reports a finite or infinite verdict without a certificate:

* on stationary (vertex-indexed) chains, two rules decide every mass and
  cylinder.  When every multiplicity above the odometer stays below a_i, the
  series is the Neumann series of a triangular matrix with diagonal below
  a_i, summed exactly by one back-substitution to e^T (a_i I - M)^(-1) r
  (``resolvent-exact``; a cylinder whose zone is one constant multiplicity
  keeps its negative-binomial term sum toward that value,
  ``negative-binomial-exact``).
  Otherwise a path climbs by diagonal steps to a vertex whose heights grow
  at least a_i-fold per level, which keeps every later term above a positive
  rational (``climb-lower-bound``);
* on level-indexed chains, one generating function E(t) = prod_n (1 + t/a_n):
  the mass is E(1) and each cylinder value a coefficient of E, summed exactly
  over a prefix of levels, with the rest bounded by the tail sum S of 1/a_n.
  S is exact for geometric level sequences, where cylinder values are exact
  by the q-binomial identity, and an integral bound for polynomial ones of
  degree >= 2; a block lower bound on sum 1/a_n proves divergence for
  constant and linearly growing level sequences.

Anything else, and any certificate whose first checked term lies at or
beyond ``max_terms``, comes back Undetermined, with exact partial sums
attached.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Optional

from ._frozen import frozen
from .diagram import (
    DEFAULT_MAX_TERMS,
    CertificateError,
    DiagramError,
    DiagramSpec,
    OdometerChain,
    Truncation,
    WindowError,
    _require_chain,
)
from .measure import CylinderSpec, EndVertex, MeasureVectors, OdometerMeasure, as_end_vertex
from .sequences import Arithmetic, Geometric, IntSequence, Polynomial, Table, _int_str

FINITE = "finite"
INFINITE = "infinite"
UNDETERMINED = "undetermined"

# stop refining once the certified tail is this small relative to the sum
_NEGLIGIBLE = Fraction(1, 10**40)

# note of a term-law certificate whose first checked term lies beyond max_terms
_SHORT = "maxTerms too small to reach the first term the certificate checks"

# ConvergenceResult is built for every series, so its hand-written constructor
# skips the shared argument binding
_set = object.__setattr__


@frozen
class ConvergenceResult:
    """Certified outcome of a nonnegative series.

    ``finite``: the true value lies in [partial_sum, partial_sum+tail_bound];
    ``exact_value`` is set when the certificate pins the sum exactly.
    ``infinite``: ``divergence_witness`` describes the verified lower-bound
    argument.  ``undetermined``: only the exact partial sum is known.
    """

    __slots__ = (
        "status", "partial_sum", "terms_used", "tail_bound", "divergence_witness", "certificate", "exact_value"
    )
    status: str
    partial_sum: Fraction
    terms_used: int
    tail_bound: Optional[Fraction]
    divergence_witness: Optional[str]
    certificate: Optional[str]
    exact_value: Optional[Fraction]

    def __init__(
        self, status, partial_sum, terms_used, tail_bound=None, divergence_witness=None, certificate=None, exact_value=None
    ):
        _set(self, "status", status)
        _set(self, "partial_sum", partial_sum)
        _set(self, "terms_used", terms_used)
        _set(self, "tail_bound", tail_bound)
        _set(self, "divergence_witness", divergence_witness)
        _set(self, "certificate", certificate)
        _set(self, "exact_value", exact_value)

    def interval(self) -> tuple[Fraction, Optional[Fraction]]:
        if self.status == FINITE:
            return (self.partial_sum, self.partial_sum + self.tail_bound)
        return (self.partial_sum, None)

    def contains(self, value: Fraction) -> bool:
        lo, hi = self.interval()
        return self.status == FINITE and lo <= value <= hi

    @property
    def is_exact(self) -> bool:
        return self.exact_value is not None


def _finite(partial, terms, tail, cert, exact=None) -> ConvergenceResult:
    if tail < 0:
        raise CertificateError("negative tail bound")
    return ConvergenceResult(FINITE, partial, terms, tail_bound=tail, certificate=cert, exact_value=exact)


def _infinite(partial, terms, witness, cert) -> ConvergenceResult:
    return ConvergenceResult(INFINITE, partial, terms, divergence_witness=witness, certificate=cert)


def _undetermined(partial, terms, note=None) -> ConvergenceResult:
    return ConvergenceResult(UNDETERMINED, partial, terms, certificate=note)


# ---------------------------------------------------------------------------
# Term streams
# ---------------------------------------------------------------------------


def _series_terms(spec: OdometerChain, i: int, m: int, j: Optional[int], count: int) -> list[tuple[int, int]]:
    """Exact terms N_n(i+1) / D_n, D_n = a_0(i) ... a_n(i), as pairs (N_n, D_n) for n = m..m+count-1.

    N_n(v) counts the paths up to (n, v), stepped up by the chain's
    ``path_step`` from vertex i+1 on.  A cylinder's paths start at its end
    vertex (m, j), so no path reaches vertex j+1.  The mass (j None, m = 0)
    counts the paths from every vertex of level 0, the heights H^(n)_(i+1).
    From a vertex ``free`` on they have the closed form
    H^(n)_v = prod_(l<n) (a_l(free) + 1): ``free`` is the first vertex of the
    constant range of a vertex-indexed chain and vertex 1 of a level-indexed
    one.  The loop tracks i+1..free-1 and feeds the closed form in as the top
    count; without such a vertex it walks the dependence cone of i+1.  Each
    D_n divides the next, so ``_term_sum`` adds terms over the last D_n; the
    zero terms of a cylinder out of reach of vertex i+1 come over 1.
    """
    if j is None:
        const = spec.constant_range
        free = const[0] if const else (1 if spec.level_diag is not None else None)
        counts = [1] * (count if free is None else max(free - i - 1, 0))
        top = None if free is None else 1
    elif j - i > count:  # a path from (m, j) reaches vertex i+1 only after j-i-1 levels
        return [(0, 1)] * count
    else:
        free, counts, top = None, [0] * (j - i - 1) + [1], 0
    den = OdometerMeasure(spec, i).level_denominator(m)
    out = []
    for n in range(m, m + count):
        if n > m:
            counts = spec.path_step(n - 1, i + 1, counts, top)
            if free is not None:
                top *= spec.vertical_edges(n - 1, free) + 1
        den *= spec.vertical_edges(n, i)
        out.append((counts[0] if counts else top, den))
    return out


def _term_sum(lead: int, terms: list[tuple[int, int]]) -> Fraction:
    """lead + the sum of ``_series_terms`` pairs, by Horner over the running denominator: one Fraction."""
    num, den = lead, 1
    for n, d in terms:
        num = num * (d // den) + n
        den = d
    return Fraction(num, den)


def mass_series_terms(spec: DiagramSpec, i: int, count: int) -> list[Fraction]:
    """Exact terms H^(n)_{i+1} / (a_0(i) ... a_n(i)) of the mass series."""
    _require_chain(spec, "the mass series", i)
    if count < 0:
        raise DiagramError(f"term count must be >= 0, not {count}")
    return [Fraction(n, d) for n, d in _series_terms(spec, i, 0, None, count)]


# ---------------------------------------------------------------------------
# Vertex-indexed families (stationary odometer chains)
# ---------------------------------------------------------------------------


def _mass_vertex_table(spec: DiagramSpec, i: int, max_terms: int) -> ConvergenceResult:
    # the climb: a path may take w - i - 1 diagonal steps to a vertex w whose
    # heights grow at least g-fold per level (g = a_w below the constant
    # range, exactly tau + 1 inside it).  Otherwise every multiplicity above i
    # is below a_i and the series sums exactly to the resolvent.
    a_i = spec.vertical_edges(0, i)
    const = spec.constant_range
    # the diagonal is tau = const[1] from vertex v_const on; a diagonal without
    # a constant tail is searched 65 vertices up
    v_const = i + 66 if const is None else const[0]
    last = v_const - 1 if const is None else max(v_const, i + 1)
    for w in range(i + 1, last + 1):
        a_w = spec.vertical_edges(0, w)
        g = a_w if w < v_const else a_w + 1
        if g >= a_i:
            return _climb(spec, i, 0, None, w, g, w - i - 1, max_terms)
    if const is None:
        note = "diagonal sequence has no tail rule usable for certification"
        return _uncertified(spec, i, 0, None, note, max_terms)
    # the Neumann series of a triangular matrix with diagonal below a_i,
    # summed by back-substitution
    s = Fraction(1, a_i - const[1] - 1)
    for v in range(v_const - 1, i, -1):
        s = (1 + s) / (a_i - spec.vertical_edges(0, v))
    return _finite(Fraction(1), 0, s, "resolvent-exact", exact=1 + s)


def _climb(spec, i, m, j, w, g, n0, max_terms) -> ConvergenceResult:
    """Divergence from t_n >= eps = 1/(g^(m+n0) a_i) for n >= m+n0, checked on the terms computed.

    The paths climb to vertex w, whose counts grow at least g-fold per level,
    g >= a_i, so N_n(i+1) >= g^(n-m-n0).  The terms are those of
    ``_series_terms(spec, i, m, j, ...)``, summed after the leading 1 of a
    mass, and each is checked in integers as N_n den >= D_n.  A budget that
    stops at or before term m+n0 checks nothing and stays undetermined.
    """
    count = min(max_terms, max(n0 + 8, 48))
    terms = _series_terms(spec, i, m, j, count)
    partial = _term_sum(int(j is None), terms)
    if count <= n0:
        return _undetermined(partial, m + count, _SHORT)
    a_i = spec.vertical_edges(0, i)
    e = m + n0
    den = g**e * a_i
    for n, (num, d) in enumerate(terms[n0:], e):
        if num * den < d:
            raise CertificateError(f"term {n} fell below its climb lower bound")
    gs = _int_str(g)
    power = f"{gs}^" + ("n" if e == 0 else f"(n-{e})")
    if j is None:
        why = f"H^(n)_{i + 1} >= {power} by climbing to vertex {w}, whose heights grow at least {gs}-fold per level"
    else:
        why = f"N_n({i + 1}) >= {power} by routing refinements through the vertical edges of odometer {w}"
    bound = "1" if den == 1 else f"1/{_int_str(den)}"
    why += f", and {gs} >= {_int_str(a_i)}, so t_n >= {bound} for n >= {e}"
    return _infinite(partial, m + count, why, "climb-lower-bound")


def _uncertified(spec, i, m, j, note, max_terms) -> ConvergenceResult:
    """Exact sum of the first min(max_terms, 64) terms (as for ``_climb``), no certificate."""
    count = min(max_terms, 64)
    return _undetermined(_term_sum(int(j is None), _series_terms(spec, i, m, j, count)), m + count, note)


# ---------------------------------------------------------------------------
# Level-indexed families (all odometers alike per level)
# ---------------------------------------------------------------------------


def _resolve_level_seq(seq: IntSequence) -> tuple[IntSequence, int]:
    """Peel table prefixes: returns (tail generator, global index where it starts)."""
    offset = 0
    while isinstance(seq, Table):
        if seq.tail is None:
            return seq, offset
        offset += len(seq.values)
        seq = seq.tail
    return seq, offset


def _poly_comparison(poly: Polynomial) -> tuple[Fraction, int]:
    """Return (alpha, n1) with poly(u) >= alpha*(u+1)^2 for all u >= n1.

    alpha is the leading coefficient where poly(u) - alpha*(u+1)^2 keeps a
    positive leading coefficient, half of it otherwise; n1 comes from a root
    bound of that difference polynomial, beyond which it is positive.  A
    sequence's pair is computed once, with its tail rule (``_tail_rule``).
    """
    deg = poly.degree()
    if deg < 2:
        raise CertificateError("comparison certificate needs degree >= 2")
    for alpha in (Fraction(poly.coeffs[deg]), Fraction(poly.coeffs[deg], 2)):
        # difference = poly(u) - alpha*(u+1)^2, coefficients in Fractions
        diff = [Fraction(c) for c in poly.coeffs] + [Fraction(0)] * 2
        diff[0] -= alpha
        diff[1] -= 2 * alpha
        diff[2] -= alpha
        while len(diff) > 1 and diff[-1] == 0:
            diff.pop()
        top = diff[-1]
        if top > 0:
            n1 = 1 + max((abs(c) / top for c in diff[:-1]), default=Fraction(0))
            return alpha, math.ceil(n1)
    raise CertificateError("difference polynomial must have a positive leading coefficient")


def _tail_rule(seq: IntSequence) -> tuple:
    """(tail, offset, kind, levels, need, alpha, note, witness) of a level sequence, as ``_level_series`` reads it;
    ``witness`` heads a slope tail's block-lower-bound text (None for a tail starting below 2, which no chain has)."""
    tail, offset = _resolve_level_seq(seq)
    cf = tail.constant_from()
    slope = None if cf is None else (cf[1], 0)  # (s, d) of a tail a_n = s + d(n - offset) whose reciprocals diverge
    if isinstance(tail, Arithmetic) and tail.step > 0:
        slope = (tail.start, tail.step)
    elif isinstance(tail, Polynomial) and tail.degree() == 1:
        slope = tail.coeffs[:2]
    if slope is not None:
        s, d = slope
        witness = None if s < 2 else (
            f"a_n = {s} + {d}(n-{offset}) for n >= {offset}: 1/a_n sums to at least {Fraction(1, s + 2 * d)} "
            f"over every block N <= n-{offset} <= 2N, so sum 1/a_n diverges and with it "
        )
        return tail, offset, "slope", 48, 0, None, None, witness
    if isinstance(tail, Geometric) and tail.ratio >= 2:  # cylinders are exact without a tail prefix
        return tail, offset, "geometric", 0, 0, None, None, None
    if isinstance(tail, Polynomial) and tail.degree() >= 2:
        alpha, need = _poly_comparison(tail)
        return tail, offset, "poly", max(need, 256), need, alpha, None, None
    if isinstance(tail, Table):
        return tail, offset, None, len(tail.values), 0, None, "level sequence has no tail rule usable for certification", None
    return tail, offset, None, 0, 0, None, "decreasing level sequence has no certificate", None


# [tail rule, suffix table] of the level sequences read last, one lookup per
# cell: a grid's cells share both, and one polynomial chain's table runs to about
# half a megabyte, so only this many are kept, none on the spec, grown under the lock.
_MEMO_KEPT = 2
_memo: dict = {}
_memo_lock = threading.Lock()


def _suffix_row(entry: list, spec: OdometerChain, i: int, n_end: int, m: int, r: int) -> tuple[int, list[int]]:
    """(prod_(n<n_end) a_n, coefficients of t^0..t^r of P_m), P_m = prod_(m<=n<n_end) (a_n + t).

    The table of a level sequence's memo ``entry`` starts at P_(n_end) = 1
    and steps P_m = (a_m + t) P_(m+1) down, keeping terms up to the highest
    degree asked of it; a row of lower degree has fewer coefficients.  It
    grows down to the lowest row and up to the highest degree asked for (one
    pass over the rows per degree), so one O(n_end * r) pass serves every
    cylinder of a grid; a table ending at another level replaces it.
    """
    with _memo_lock:
        table = entry[1]
        if table is None or table[0] != n_end:
            levels = [spec.vertical_edges(n, i) for n in range(n_end)]
            table = entry[1] = [n_end, levels, math.prod(levels), 0, [[1]]]  # rows[k] is P_(n_end-k)
        _, levels, den, degree, rows = table
        if r > degree:
            for s in range(degree + 1, min(r, len(rows) - 1) + 1):
                c = 0  # coefficient s of rows[k - 1]
                for k in range(s, len(rows)):
                    c = levels[n_end - k] * c + rows[k - 1][s - 1]
                    rows[k].append(c)
            table[3] = degree = r
        while len(rows) <= n_end - m:  # (a + t) times the row below, up to the table's degree
            a, below = levels[n_end - len(rows)], rows[-1]
            rows.append([a * x + y for x, y in zip(below + [0], [0] + below)][: degree + 1])
        return den, rows[n_end - m]


def _level_series(spec: DiagramSpec, i: int, m: int, r: Optional[int], max_terms: int) -> ConvergenceResult:
    """The mass E(1) (r None) or the cylinder value c e_r(x_m, x_(m+1), ...), certified.

    Here x_n = 1/a_n and c = 1/(a_0 ... a_(m-1)).  An exact prefix over the
    levels below N is summed in integers over the common denominator
    prod_(n<N) a_n: the product of the a_n + 1 for the mass, coefficient r of
    the suffix product prod_(m<=n<N) (a_n + t) (``_suffix_row``) for e_r.  The
    tail sequence supplies S >= sum of x_n over the later levels; since e_s
    of the tail is at most S^s/s!, the mass lies in [P_N, P_N/(1 - S)] and
    the cylinder in [c e_r, c sum_s e_(r-s) S^s/s!].  Geometric tails are
    exact by Euler's q-binomial identity
    e_s(y, yq, yq^2, ...) = y^s q^(s(s-1)/2) / prod_(t=1..s) (1 - q^t).
    """
    with _memo_lock:
        entry = _memo.get(spec.level_diag)
        if entry is None:
            entry = _memo[spec.level_diag] = [_tail_rule(spec.level_diag), None]
            if len(_memo) > _MEMO_KEPT:
                del _memo[next(iter(_memo))]
    tail_seq, offset, kind, levels, need, alpha, note, witness = entry[0]
    geometric = kind == "geometric"
    if geometric and r is None:
        # refine the mass until S/(1 - S) is negligible: S (1 + eps) <= eps
        # with S = q/((q - 1) a_L) and eps = p/den, in integers
        p, eps_den, q = _NEGLIGIBLE.numerator, _NEGLIGIBLE.denominator, tail_seq.ratio
        levels, a_l = 2, tail_seq.value(2)
        while levels < 512 and (q - 1) * p * a_l < q * (eps_den + p):
            levels, a_l = levels + 1, a_l * q
    count = min(max_terms, max(offset + levels - m, 0))

    if r is None:  # m = 0
        prefix = [spec.vertical_edges(n, i) for n in range(count)]
        den = math.prod(prefix)
        partial = Fraction(math.prod(a + 1 for a in prefix), den)
    else:
        den, e = _suffix_row(entry, spec, i, m + count, m, r)
        partial = Fraction(e[r] if r < len(e) else 0, den)

    used = m + count - offset  # tail levels inside the prefix
    if note is not None:
        return _undetermined(partial, count, note)
    if used < need:
        return _undetermined(partial, count, _SHORT)
    if kind == "slope":
        if witness is None:
            spec.vertical_edges(offset, i)  # raises: the tail starts below 2
        what = "the mass prod_n (1 + 1/a_n)" if r is None else f"e_{r}(1/a_{m}, 1/a_{m + 1}, ...)"
        return _infinite(partial, count, witness + what, "block-lower-bound")
    tail_sum = _geometric_tail(tail_seq, used) if geometric else 1 / (alpha * used)
    if r is None:
        if tail_sum >= 1:
            return _undetermined(partial, count, _SHORT)
        cert = "geometric-tail" if geometric else "comparison-integral-tail"
        return _finite(partial, count, partial * tail_sum / (1 - tail_sum), cert)
    if r > max_terms:  # the tail series has r terms
        return _undetermined(partial, count, _SHORT)
    # sum_s e_(r-s) w_s over one denominator, where w_s = w_(s-1) u_s/v_s is
    # e_s of the tail: exact for geometric tails, at most S^s/s! otherwise
    num, u_pow, v_prod = 0, 1, den
    for s in range(1, r + 1):
        if geometric:
            u, v = tail_seq.ratio, tail_seq.value(used) * (tail_seq.ratio**s - 1)
        else:
            u, v = tail_sum.numerator, tail_sum.denominator * s
        u_pow *= u
        num = num * v + (e[r - s] * u_pow if r - s < len(e) else 0)
        v_prod *= v
    tail = Fraction(num, v_prod)
    if geometric:
        return _finite(partial, count, tail, "geometric-exact", exact=partial + tail)
    return _finite(partial, count, tail, "comparison-integral-tail")


def _geometric_tail(seq: Geometric, u: int) -> Fraction:
    """Exact sum of 1/seq(v) over v >= u."""
    return Fraction(seq.ratio, (seq.ratio - 1) * seq.value(u))


# ---------------------------------------------------------------------------
# Public mass operations
# ---------------------------------------------------------------------------


def odometer_extension_mass(spec: DiagramSpec, i: int, max_terms: int = DEFAULT_MAX_TERMS) -> ConvergenceResult:
    """Total mass of the extension of odometer i's probability measure.

    Equals 1 + sum_n H^(n)_{i+1} / (a_0(i) ... a_n(i)), certified.
    """
    _require_chain(spec, "extension mass of an odometer", i)
    if max_terms < 2:
        raise DiagramError("max_terms must be at least 2")
    if spec.vertex_diag is not None:
        return _mass_vertex_table(spec, i, max_terms)
    if spec.level_diag is not None:
        return _level_series(spec, i, 0, None, max_terms)
    note = "general multiplicity tables carry no certificate"
    return _uncertified(spec, i, 0, None, note, max_terms)


# ---------------------------------------------------------------------------
# Extended measures on cylinders
# ---------------------------------------------------------------------------


def _cylinder_series_vertex_table(spec, i, m, j, max_terms) -> ConvergenceResult:
    a_i = spec.vertical_edges(0, i)
    d = j - i - 1
    zone = [spec.vertical_edges(0, v) for v in range(i + 1, j + 1)]
    top = max(zone)
    if top >= a_i:
        # the climb: refinements may sit on the vertical edges of the largest
        # zone vertex, d levels after the cylinder's
        return _climb(spec, i, m, j, i + 1 + zone.index(top), top, d, max_terms)
    # resolvent of the triangular path-count recursion, exact
    total = Fraction(1, a_i**m * math.prod(a_i - a_v for a_v in zone))
    if min(zone) == top:
        # one constant multiplicity below a_i: partial sums of
        # C(n-m, d) top^(n-m-d) / a_i^(n+1) toward the resolvent value
        partial = Fraction(0)
        used = 0
        binom, power, den = 1, 1, a_i ** (m + d + 1)
        for l in range(max_terms):  # series index n = m + d + l
            t = Fraction(binom * power, den)
            partial += t
            used = m + d + l + 1
            if total - partial <= total * _NEGLIGIBLE:
                break
            binom = binom * (l + d + 1) // (l + 1)
            power *= top
            den *= a_i
        return _finite(partial, used, total - partial, "negative-binomial-exact", exact=total)
    return _finite(Fraction(0), 0, total, "resolvent-exact", exact=total)


def extended_cylinder_measure(
    spec: DiagramSpec, i: int, cyl: CylinderSpec, max_terms: int = DEFAULT_MAX_TERMS
) -> ConvergenceResult:
    """Value of the extension of odometer i on one cylinder, certified.

    The cylinder is reduced to (length m, end vertex j).  Vertices below i
    cannot reach the supporting saturation, so j < i gives exact 0; j = i is
    the base odometer value; j > i is a certified series over the cylinder
    refinements that enter the odometer.
    """
    _require_chain(spec, "an extended cylinder value", i)
    if max_terms < 0:
        raise DiagramError(f"max_terms must be >= 0, not {max_terms}")
    end = as_end_vertex(spec, cyl)
    m, j = end.length, end.index
    if j < i:
        return _finite(Fraction(0), 0, Fraction(0), "disjoint-support", exact=Fraction(0))
    if j == i:
        val = OdometerMeasure(spec, i).cylinder_value(end)
        return _finite(val, 0, Fraction(0), "restriction-exact", exact=val)

    if spec.vertex_diag is not None:
        return _cylinder_series_vertex_table(spec, i, m, j, max_terms)

    if spec.level_diag is not None:
        return _level_series(spec, i, m, j - i, max_terms)

    note = "no certificate for this family/cylinder"
    return _uncertified(spec, i, m, j, note, max_terms)


# ---------------------------------------------------------------------------
# Extended measures and the odometer classification
# ---------------------------------------------------------------------------


@frozen
class ExtendedMeasure:
    """Canonical extension of odometer ``index``'s measure to its saturation."""

    spec: DiagramSpec
    index: int
    total_mass: ConvergenceResult
    normalized: bool = False

    def normalize(self) -> "ExtendedMeasure":
        if self.total_mass.status != FINITE:
            raise DiagramError("only finite extensions can be normalized")
        return ExtendedMeasure(self.spec, self.index, self.total_mass, normalized=True)

    def cylinder_value(self, cyl: CylinderSpec, max_terms: int = DEFAULT_MAX_TERMS):
        res = extended_cylinder_measure(self.spec, self.index, cyl, max_terms)
        if not self.normalized:
            return res.exact_value if res.is_exact else res
        if res.status != FINITE:
            return res
        # only stationary masses are exact, and their finite cylinder values
        # are exact too
        if self.total_mass.is_exact and res.is_exact:
            return res.exact_value / self.total_mass.exact_value
        # value in [v_lo, v_hi], mass in [lo, hi]: the quotient lies in
        # [v_lo/hi, v_hi/lo]
        v_lo, v_hi = (res.exact_value, res.exact_value) if res.is_exact else res.interval()
        lo, hi = self.total_mass.interval()
        return _finite(v_lo / hi, res.terms_used, v_hi / lo - v_lo / hi, f"{res.certificate} / mass interval")

    def measure_vectors(self, window: Truncation) -> MeasureVectors:
        """Ambient vectors p^(n)_j = ``cylinder_value(EndVertex(n, j))``, each value exact or a ``WindowError``.

        A normalized measure whose mass is not exact raises before any value is read.
        """
        if self.normalized and not self.total_mass.is_exact:
            raise WindowError(
                f"extension mass of odometer {self.index} is not exact; "
                "normalized ambient vectors unavailable"
            )

        def fn(n: int, j: int) -> Fraction:
            val = self.cylinder_value(EndVertex(n, j))
            if not isinstance(val, Fraction):
                raise WindowError(
                    f"extension value at (level={n}, vertex={j}) is not exact; ambient vectors unavailable"
                )
            return val

        return MeasureVectors.from_function(fn, window, label=f"extension-{self.index}")


def extend_odometer(spec: DiagramSpec, i: int, max_terms: int = DEFAULT_MAX_TERMS) -> ExtendedMeasure:
    return ExtendedMeasure(spec, i, odometer_extension_mass(spec, i, max_terms))


@frozen
class ErgodicEntry:
    index: int
    mass: ConvergenceResult
    normalizing_constant: Optional[Fraction]  # 1/mass when the mass is exact


@frozen
class ErgodicClassification:
    """Per-odometer extension masses and what they mean for the chain."""

    entries: tuple[ErgodicEntry, ...]
    partial: bool  # True when any entry is undetermined
    notes: tuple[str, ...]

    @property
    def finite_indices(self) -> tuple[int, ...]:
        return tuple(e.index for e in self.entries if e.mass.status == FINITE)

    @property
    def infinite_indices(self) -> tuple[int, ...]:
        return tuple(e.index for e in self.entries if e.mass.status == INFINITE)


def classify_ergodic_measures(
    spec: DiagramSpec, i_max: int, max_terms: int = DEFAULT_MAX_TERMS
) -> ErgodicClassification:
    """Extension mass of every odometer i <= i_max, with certificates.

    Among odometers i <= i_max, the normalized finite entries exhaust the
    ergodic probability tail-invariant measures; later odometers are not
    examined.  Extensions from distinct odometers are mutually singular
    (their saturations are disjoint).
    """
    _require_chain(spec, "the odometer classification")
    if i_max < 1:
        raise DiagramError(f"i_max must be >= 1, not {i_max}")
    entries = []
    for i in range(1, i_max + 1):
        # on a level-indexed chain every odometer has the same mass series
        shared = entries and spec.level_diag is not None
        res = entries[0].mass if shared else odometer_extension_mass(spec, i, max_terms)
        norm = Fraction(1) / res.exact_value if res.status == FINITE and res.is_exact else None
        entries.append(ErgodicEntry(i, res, norm))
    partial = any(e.mass.status == UNDETERMINED for e in entries)
    notes = (
        f"normalized finite entries exhaust the ergodic probability tail-invariant measures among odometers i <= {i_max}",
        "distinct entries are mutually singular: their supporting saturations are disjoint",
    )
    if partial:
        notes = notes + ("classification is partial: some masses are undetermined",)
    return ErgodicClassification(tuple(entries), partial, notes)


# ---------------------------------------------------------------------------
# Closed-form cross-checks
# ---------------------------------------------------------------------------


@frozen
class OracleVerdict:
    status: str  # finite / infinite / undetermined
    mass: Optional[Fraction]  # exact total mass when a closed form exists
    criterion: str


def closed_form_oracles(spec: DiagramSpec, index: int = 1) -> Optional[OracleVerdict]:
    """Independent closed-form verdict for the extension mass, when one exists.

    Used to cross-check the series engine; families without a closed form,
    and diagrams that are not odometer chains, return None.
    """
    if not isinstance(spec, OdometerChain):
        return None
    _require_chain(spec, "a closed-form oracle", index)
    diag = spec.vertex_diag
    if diag is not None:
        a_i = diag.value(index - 1)
        cf = diag.constant_from()
        if cf is None:
            # unbounded diagonals: divergence whenever some later odometer is at
            # least as big, which covers the increasing family for every index
            if diag.value(index) >= a_i:
                return OracleVerdict(INFINITE, None, "a_{i+1} >= a_i forces a divergent mass series")
            return None
        v_const, tau = cf[0] + 1, cf[1]
        for v in range(index + 1, max(v_const, index + 1) + 1):
            if diag.value(v - 1) >= a_i:
                return OracleVerdict(INFINITE, None, f"a_{v} >= a_{index} forces divergence")
        # criterion: sum over j > i of prod_{l=i+1..j} 1/(a_i - a_l); the loop
        # above read the tail, so tau < a_i
        if a_i - tau == 1:
            return OracleVerdict(
                INFINITE, None, "criterion terms stop shrinking: a_i - a_l = 1 along the tail"
            )
        total = Fraction(1)
        prod = Fraction(1)
        j = index + 1
        while j < v_const:
            prod /= a_i - diag.value(j - 1)
            total += prod
            j += 1
        # geometric tail: successive factors are 1/(a_i - tau) < 1
        fac = Fraction(1, a_i - tau)
        total += prod * fac / (1 - fac)
        return OracleVerdict(FINITE, total, "mass = sum of products of 1/(a_i - a_l), j > i")

    levels = spec.level_diag
    if levels is not None:
        rec = levels.reciprocal_sum_finite()
        if rec is None:
            return None
        if rec:
            return OracleVerdict(FINITE, None, "sum of 1/a_n converges")
        return OracleVerdict(INFINITE, None, "sum of 1/a_n diverges")

    return None
