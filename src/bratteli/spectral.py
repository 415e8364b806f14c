"""Explicit eigenvectors for stationary odometer chains and their measures.

For a stationary chain the transpose A = F^T is lower bidiagonal, so an
eigenpair can be written down in closed form and verified row by row in exact
arithmetic: row 1 reads a_1 x_1 = lam x_1 and row v reads
x_{v-1} + a_v x_v = lam x_v.  One constructor, ``eigenvector(spec, i)``,
serves every stationary family: it takes lam = a_i, the eigenvalue of
odometer i, sets x_v = 0 below i and x_i = 1, and solves row v for the
recurrence x_v = x_{v-1} / (a_i - a_v) above i.  A pair computes each entry
once, and verification carries x_{v-1} from one row to the next, so it is
linear in the number of rows.  A verified eigenpair induces a tail-invariant
measure whose cylinder values are x_v / lam^m; this module builds those
measures and checks their equality with extension measures on cylinder
grids.

No eigensolver for infinite matrices is attempted: only constructive closed
forms (and user-supplied ones) are accepted, and windows bound verification,
never the representation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional

from ._frozen import frozen
from .diagram import DEFAULT_MAX_TERMS, DiagramError, DiagramSpec, OdometerChain, StationaryAK, StationaryDecreasing, Truncation
from .diagram import _require_chain
from .measure import CylinderSpec, EndVertex, MeasureVectors, as_end_vertex
from .sequences import IntSequence

if TYPE_CHECKING:
    from .extension import ConvergenceResult


def __getattr__(name: str):
    # extension loads only when compare_eigen_vs_extension first runs; the
    # names this module takes from it stay reachable as its attributes
    if name in ("FINITE", "UNDETERMINED", "ConvergenceResult", "extended_cylinder_measure"):
        from . import extension

        return getattr(extension, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_ZERO = Fraction(0)


class EigenError(DiagramError):
    """Invalid eigenpair request or failed verification."""


@frozen
class EigenPair:
    """Eigenvalue and a closed-form nonnegative eigenvector for A = F^T.

    ``component(i)`` returns the exact i-th entry (1-based) for any index.
    ``xi`` calls ``component`` and validates its answer once per index and
    keeps the entry for the life of the pair (not a field: it takes no part
    in equality, hashing or printing).
    """

    lam: Fraction
    component: Callable[[int], Fraction]
    label: str = "eigenpair"

    def __post_init__(self):
        object.__setattr__(self, "_entries", {})

    def xi(self, i: int) -> Fraction:
        val = self._entries.get(i)
        if val is None:
            if i < 1:
                raise EigenError("eigenvector entries are indexed from 1")
            val = self.component(i)
            val = val if isinstance(val, Fraction) else Fraction(val)
            if val.numerator < 0:
                raise EigenError("eigenvector entries must be nonnegative")
            self._entries[i] = val
        return val

    def scaled(self, factor: Fraction) -> "EigenPair":
        if factor <= 0:
            raise EigenError("scaling factor must be positive")
        base = self.component
        return EigenPair(self.lam, lambda i: factor * base(i), f"{self.label} * {factor}")


def _require_stationary_chain(spec: DiagramSpec) -> IntSequence:
    if not isinstance(spec, OdometerChain) or spec.vertex_diag is None:
        raise EigenError("eigenpairs need a stationary odometer chain")
    return spec.vertex_diag


def eigenvector(spec: DiagramSpec, i: int = 1) -> EigenPair:
    """Eigenpair lam = a_i of odometer i on a stationary chain dominated from i.

    Entries: zeros below i, 1 at i, then xi_v = xi_(v-1) / (a_i - a_v),
    grown as one prefix so that each entry costs one multiplication.  Every
    multiplicity is read through ``spec.vertical_edges``, so the chain's own
    validation applies.  Dominance, a_i > a_v for every v > i, is decided
    exactly from the constant range (``constant_range``): every entry up to
    its start, then its first entry, which stands for the constant.  A diagonal
    without a constant tail is rejected, since no other sequence is bounded
    above and at least 1: arithmetic with step > 0, geometric with ratio >= 2
    and polynomial of degree >= 1 are unbounded above, arithmetic with
    step < 0 falls below 1, and a table without a tail rule has no entries
    past its values.
    """
    diag = _require_stationary_chain(spec)
    if i < 1:
        raise EigenError("shift must be >= 1")
    const = spec.constant_range
    if const is None:
        raise EigenError(
            f"dominance needs a diagonal with a constant tail; {diag.to_json()} has none "
            "(it is unbounded above, falls below 1 or ends with its table)"
        )
    a_i = spec.vertical_edges(0, i)
    # the last v is the first vertex of the constant range
    for v in range(i + 1, max(const[0], i + 1) + 1):
        a_v = spec.vertical_edges(0, v)
        if a_v >= a_i:
            raise EigenError(f"dominance violated: a_{i}={a_i} is not greater than a_{v}={a_v}")
    # xi_i, xi_(i+1), ...: each step divides by a positive integer, so every
    # entry is 1 over a running product and only the denominator is multiplied
    prefix = [Fraction(1)]

    def component(v: int) -> Fraction:
        if v < i:
            return Fraction(0)
        while len(prefix) <= v - i:
            a_v = spec.vertical_edges(0, i + len(prefix))
            prefix.append(Fraction(1, prefix[-1].denominator * (a_i - a_v)))
        return prefix[v - i]

    return EigenPair(Fraction(a_i), component, f"{spec.family}(shift={i},lam={a_i})")


def eigenvector_ak(a: int, k: int) -> EigenPair:
    """``eigenvector(StationaryAK(a, k))``: lam = a, xi_i = k^-(i-1).

    For k = 1 this is the all-ones vector: the induced measure is infinite in
    total but still finite on every cylinder.
    """
    return eigenvector(StationaryAK(a, k))


def eigenvector_decreasing(diag: IntSequence, shift: int = 1) -> EigenPair:
    """``eigenvector(StationaryDecreasing(diag), shift)``."""
    return eigenvector(StationaryDecreasing(diag), shift)


@frozen
class ResidualReport:
    """Exact residuals (A xi)_i - lam xi_i per row; verified means all zero."""

    residuals: dict[int, Fraction]
    nonzero: tuple[int, ...]

    @property
    def verified(self) -> bool:
        return not self.nonzero


def verify_eigenpair(spec: DiagramSpec, pair: EigenPair, window: Truncation) -> ResidualReport:
    """Row residuals of A xi = lam xi over rows 1..window.max_vertex, exact.

    A is lower bidiagonal, so row i only involves xi_{i-1} and xi_i and every
    in-window row is fully certifiable; xi_{i-1} is carried over from the row
    before, so each row takes one new entry.  A row is decided over integers:
    its residual is written over the common denominator of lam, xi_{i-1} and
    xi_i, and only a nonzero numerator becomes a ``Fraction``; zero rows share
    one ``Fraction(0)``.
    """
    _require_stationary_chain(spec)
    residuals: dict[int, Fraction] = {}
    nonzero: list[int] = []
    p, q = pair.lam.numerator, pair.lam.denominator
    prev, prev_den = 0, 1  # xi_0: row 1 has no subdiagonal entry
    for i, a in enumerate(spec.multiplicities(0, window.max_vertex), 1):
        num, den = pair.xi(i).as_integer_ratio()
        # (a_i - p/q) num/den + prev/prev_den, times q den prev_den
        res = (a * q - p) * num * prev_den + prev * den * q
        if res:
            residuals[i] = Fraction(res, q * den * prev_den)
            nonzero.append(i)
        else:
            residuals[i] = _ZERO
        prev, prev_den = num, den
    return ResidualReport(residuals, tuple(nonzero))


@frozen
class EigenMeasure:
    """Tail-invariant measure with cylinder values xi_v / lam^m, for lam > 0.

    A cylinder is read through its end vertex (m, v) as the pair
    (xi_num q^m, xi_den p^m) of lam = p/q made one ``Fraction``;
    ``measure_vectors`` hands p^(n)_v over as that pair, not normalized.
    """

    spec: DiagramSpec
    pair: EigenPair

    def __post_init__(self):
        if self.pair.lam <= 0:
            raise EigenError(f"eigen measures need lam > 0, not {self.pair.lam}")

    def _pair(self, m: int, v: int) -> tuple[int, int]:
        num, den = self.pair.xi(v).as_integer_ratio()
        p, q = self.pair.lam.as_integer_ratio()
        return num * q**m, den * p**m

    def cylinder_value(self, cyl: CylinderSpec) -> Fraction:
        end = as_end_vertex(self.spec, cyl)
        return Fraction(*self._pair(end.length, end.index))

    def measure_vectors(self, window: Truncation) -> MeasureVectors:
        return MeasureVectors._of_pairs(self._pair, window.max_level, lambda n: window.max_vertex, self.pair.label)


def eigen_measure(spec: DiagramSpec, pair: EigenPair, window: Optional[Truncation] = None) -> EigenMeasure:
    """Build the induced measure (lam > 0) after verifying the pair on the window."""
    window = window or Truncation(8, 100)
    measure = EigenMeasure(spec, pair)
    report = verify_eigenpair(spec, pair, window)
    if not report.verified:
        raise EigenError(
            f"eigenpair rejected: nonzero residuals at rows {report.nonzero[:5]}"
        )
    return measure


# ---------------------------------------------------------------------------
# Eigen measure vs. extension measure
# ---------------------------------------------------------------------------


@frozen
class CylinderComparison:
    __slots__ = ("cylinder", "eigen_value", "extension", "verdict")
    cylinder: EndVertex
    eigen_value: Fraction
    extension: ConvergenceResult
    verdict: str  # equal-exact / mismatch / skipped-undetermined


@frozen
class ComparisonReport:
    entries: tuple[CylinderComparison, ...]

    @property
    def all_equal(self) -> bool:
        return all(e.verdict == "equal-exact" for e in self.entries)


def compare_eigen_vs_extension(
    spec: DiagramSpec,
    i: int,
    pair: EigenPair,
    cylinders: list[CylinderSpec],
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ComparisonReport:
    """Per-cylinder comparison of xi_v/lam^m with the certified extension value.

    On a stationary chain every finite extension value is exact, so equality
    is declared only when it is exactly the eigen value.  Undetermined series
    are skipped and flagged.
    """
    from .extension import FINITE, UNDETERMINED, extended_cylinder_measure

    _require_stationary_chain(spec)
    _require_chain(spec, "an eigen comparison", i)
    measure = EigenMeasure(spec, pair)
    entries = []
    for cyl in cylinders:
        end = as_end_vertex(spec, cyl)
        eigen_val = measure.cylinder_value(end)
        ext = extended_cylinder_measure(spec, i, end, max_terms)
        if ext.status == UNDETERMINED:
            verdict = "skipped-undetermined"
        elif ext.status == FINITE and ext.exact_value == eigen_val:
            verdict = "equal-exact"
        else:
            verdict = "mismatch"
        entries.append(CylinderComparison(end, eigen_val, ext, verdict))
    return ComparisonReport(tuple(entries))
