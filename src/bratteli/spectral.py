"""Explicit eigenvectors for stationary odometer chains and their measures.

For a stationary chain the transpose A = F^T is lower bidiagonal, so an
eigenpair can be written down in closed form and verified row by row in exact
arithmetic: row 1 reads a_1 x_1 = lam x_1 and row i reads
x_{i-1} + a_i x_i = lam x_i.  Solving row i for x_i gives the recurrence
x_i = x_{i-1} / (lam - a_i) that builds the entries above the shift; a pair
computes each entry once, and verification carries x_{i-1} from one row to
the next, so it is linear in the number of rows.  A verified eigenpair
induces a tail-invariant measure whose cylinder values are x_v / lam^m; this
module builds those measures and checks their equality with extension
measures on cylinder grids.

No eigensolver for infinite matrices is attempted: only constructive closed
forms (and user-supplied ones) are accepted, and windows bound verification,
never the representation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional

from ._frozen import frozen
from .diagram import DEFAULT_MAX_TERMS, DiagramError, DiagramSpec, Truncation
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


class EigenError(DiagramError):
    """Invalid eigenpair request or failed verification."""


@frozen
class EigenPair:
    """Eigenvalue and a closed-form nonnegative eigenvector for A = F^T.

    ``component(i)`` returns the exact i-th entry (1-based) for any index;
    ``checked_to`` records how far the defining equations have been verified.
    ``xi`` calls ``component`` and validates its answer once per index and
    keeps the entry for the life of the pair (not a field: it takes no part
    in equality, hashing or printing).
    """

    lam: Fraction
    component: Callable[[int], Fraction]
    label: str = "eigenpair"
    checked_to: int = 0

    def __post_init__(self):
        object.__setattr__(self, "_entries", {})

    def xi(self, i: int) -> Fraction:
        val = self._entries.get(i)
        if val is None:
            if i < 1:
                raise EigenError("eigenvector entries are indexed from 1")
            val = Fraction(self.component(i))
            if val < 0:
                raise EigenError("eigenvector entries must be nonnegative")
            self._entries[i] = val
        return val

    def scaled(self, factor: Fraction) -> "EigenPair":
        if factor <= 0:
            raise EigenError("scaling factor must be positive")
        base = self.component
        return EigenPair(self.lam, lambda i: factor * base(i), f"{self.label} * {factor}", self.checked_to)


def eigenvector_ak(a: int, k: int) -> EigenPair:
    """The eigenpair lam = a, xi_i = k^-(i-1) of the two-parameter chain.

    For k = 1 this is the all-ones vector: the induced measure is infinite in
    total but still finite on every cylinder.
    """
    if a < 2 or k < 1 or a - k <= 1:
        raise EigenError("need a >= 2, k >= 1 and a - k > 1")
    return EigenPair(Fraction(a), lambda i: Fraction(1, k ** (i - 1)), f"ak(a={a},k={k})")


def eigenvector_decreasing(diag: IntSequence, shift: int = 1) -> EigenPair:
    """Eigenpair lam = a_m (m = ``shift``) for a diagonal dominated from m.

    Entries: zeros below m, 1 at m, then xi_v = xi_{v-1} / (a_m - a_v), grown
    as one prefix so that each entry costs one division.  Dominance,
    a_m > a_v for every v > m, is decided exactly from the constant tail
    (``constant_from``): every entry up to its start, then its first entry,
    which stands for the constant.  A diagonal without a constant tail is
    rejected, since no other sequence is bounded above and at least 1:
    arithmetic with step > 0, geometric with ratio >= 2 and polynomial of
    degree >= 1 are unbounded above, arithmetic with step < 0 falls below 1,
    and a table without a tail rule has no entries past its values.
    """
    if shift < 1:
        raise EigenError("shift must be >= 1")
    tail = diag.constant_from()
    if tail is None:
        raise EigenError(
            f"dominance needs a diagonal with a constant tail; {diag.to_json()} has none "
            "(it is unbounded above, falls below 1 or ends with its table)"
        )
    a_m = diag.value(shift - 1)
    # the last j is the first vertex of the constant tail
    for j in range(shift + 1, max(tail[0], shift) + 2):
        if diag.value(j - 1) >= a_m:
            raise EigenError(
                f"dominance violated: a_{shift}={a_m} is not greater than a_{j}={diag.value(j - 1)}"
            )
    prefix = [Fraction(1)]  # xi_shift, xi_{shift+1}, ...

    def component(i: int) -> Fraction:
        if i < shift:
            return Fraction(0)
        while len(prefix) <= i - shift:
            v = shift + len(prefix)
            prefix.append(prefix[-1] / (a_m - diag.value(v - 1)))
        return prefix[i - shift]

    return EigenPair(Fraction(a_m), component, f"decreasing(shift={shift},lam={a_m})")


@frozen
class ResidualReport:
    """Exact residuals (A xi)_i - lam xi_i per row; verified means all zero."""

    residuals: dict[int, Fraction]
    nonzero: tuple[int, ...]

    @property
    def verified(self) -> bool:
        return not self.nonzero


def _require_stationary_chain(spec: DiagramSpec) -> IntSequence:
    if not spec.is_odometer_chain or spec.vertex_diag is None:
        raise EigenError("eigen verification needs a stationary odometer chain")
    return spec.vertex_diag


def verify_eigenpair(spec: DiagramSpec, pair: EigenPair, window: Truncation) -> ResidualReport:
    """Row residuals of A xi = lam xi over rows 1..window.max_vertex, exact.

    A is lower bidiagonal, so row i only involves xi_{i-1} and xi_i and every
    in-window row is fully certifiable; xi_{i-1} is carried over from the row
    before, so each row takes one new entry.
    """
    diag = _require_stationary_chain(spec)
    residuals: dict[int, Fraction] = {}
    nonzero: list[int] = []
    prev = Fraction(0)  # xi_0: row 1 has no subdiagonal entry
    for i in range(1, window.max_vertex + 1):
        x = pair.xi(i)
        res = (diag.value(i - 1) - pair.lam) * x + prev
        residuals[i] = res
        if res != 0:
            nonzero.append(i)
        prev = x
    return ResidualReport(residuals, tuple(nonzero))


@frozen
class EigenMeasure:
    """Tail-invariant measure with cylinder values xi_v / lam^m.

    lam^m is computed once per length m and kept with the measure (not a
    field: it takes no part in equality, hashing or printing).
    """

    spec: DiagramSpec
    pair: EigenPair

    def __post_init__(self):
        object.__setattr__(self, "_powers", {})

    def _value(self, m: int, v: int) -> Fraction:
        power = self._powers.get(m)
        if power is None:
            power = self._powers[m] = self.pair.lam**m
        return self.pair.xi(v) / power

    def cylinder_value(self, cyl: CylinderSpec) -> Fraction:
        end = as_end_vertex(cyl)
        return self._value(end.length, end.index)

    def measure_vectors(self, window: Truncation) -> MeasureVectors:
        return MeasureVectors(self._value, window.max_level, lambda n: window.max_vertex, label=self.pair.label)


def eigen_measure(spec: DiagramSpec, pair: EigenPair, window: Optional[Truncation] = None) -> EigenMeasure:
    """Build the induced measure after verifying the pair on the window."""
    window = window or Truncation(8, 100)
    report = verify_eigenpair(spec, pair, window)
    if not report.verified:
        raise EigenError(
            f"eigenpair rejected: nonzero residuals at rows {report.nonzero[:5]}"
        )
    return EigenMeasure(spec, pair)


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
    measure = EigenMeasure(spec, pair)
    entries = []
    for cyl in cylinders:
        end = as_end_vertex(cyl)
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
