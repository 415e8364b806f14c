"""Tail-invariant measures as level vector sequences.

A tail-invariant measure assigning finite values to cylinder sets is the same
data as a sequence of nonnegative vectors p^(n) with F_n^T p^(n+1) = p^(n);
the value of a cylinder depends only on its end vertex and length.  This
module represents such measures, checks the defining relation exactly, and
builds the canonical probability measure carried by a single odometer of an
odometer chain.  Every measure of the library, here and in ``spectral``,
``extension`` and ``finite_stationary``, is read by one call,
``cylinder_value(cyl)``, with ``cyl`` an ``EndVertex`` or an ``ExplicitPath``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Union

from ._frozen import frozen
from .diagram import DiagramSpec, DiagramError, OdometerChain, Truncation, WindowError, _prefix_width, _require_chain


# ---------------------------------------------------------------------------
# Cylinders
# ---------------------------------------------------------------------------

VERTICAL = "v"
DIAGONAL = "f"

# ExplicitPath is built once per orbit step and EndVertex once per cylinder
# query, so their hand-written constructors skip the shared argument binding
_set = object.__setattr__


@frozen
class EndVertex:
    """The tail-invariant cylinder abbreviation: length m, end vertex index.

    A length-m cylinder is determined by a path of m edges ending at a vertex
    of level m; by tail invariance its measure depends only on (m, index).
    ``EndVertex(0, i)`` is the trivial cylinder of all paths starting at i.
    """

    __slots__ = ("length", "index")
    length: int
    index: int

    def __init__(self, length: int, index: int):
        if length < 0 or index < 1:
            raise DiagramError("cylinder needs length >= 0 and index >= 1")
        _set(self, "length", length)
        _set(self, "index", index)


@frozen
class ExplicitPath:
    """A concrete finite path on an odometer chain.

    ``edges[l]`` is the level-l edge: ``("v", k)`` takes the k-th vertical
    edge (1-based), ``("f", 0)`` the single diagonal edge, which lowers the
    vertex index by one going up.
    """

    start: int
    edges: tuple[tuple[str, int], ...]

    def __init__(self, start: int, edges: tuple[tuple[str, int], ...]):
        if start < 1:
            raise DiagramError("path start index must be >= 1")
        idx = start
        for kind, _ in edges:
            if kind == DIAGONAL:
                idx -= 1
            elif kind != VERTICAL:
                raise DiagramError(f"unknown edge kind {kind!r}")
            if idx < 1:
                raise DiagramError("path walks below vertex 1")
        _set(self, "start", start)
        _set(self, "edges", edges)

    def vertex_at(self, level: int) -> int:
        idx = self.start
        for kind, _ in self.edges[:level]:
            if kind == DIAGONAL:
                idx -= 1
        return idx

    def end(self) -> EndVertex:
        return EndVertex(len(self.edges), self.vertex_at(len(self.edges)))

    def validate(self, spec: DiagramSpec) -> None:
        """Check edge indices against the multiplicities of ``spec``."""
        _require_chain(spec, "an explicit path")
        idx = self.start
        for level, (kind, k) in enumerate(self.edges):
            if kind == VERTICAL:
                mult = spec.vertical_edges(level, idx)
                if not 1 <= k <= mult:
                    raise DiagramError(
                        f"vertical edge {k} out of range 1..{mult} at level {level}, vertex {idx}"
                    )
            elif k != 0:
                raise DiagramError(f"diagonal edge {k} is not 0 at level {level}, vertex {idx}")
            else:
                idx -= 1


CylinderSpec = Union[EndVertex, ExplicitPath]


def as_end_vertex(spec: DiagramSpec, cyl: CylinderSpec) -> EndVertex:
    """Canonical query form: every cylinder reduces to (length, end vertex).

    An explicit path is first checked to be a path of ``spec``.
    """
    if isinstance(cyl, EndVertex):
        return cyl
    cyl.validate(spec)
    return cyl.end()


# ---------------------------------------------------------------------------
# Measure vectors
# ---------------------------------------------------------------------------


class MeasureVectors:
    """Level-indexed family of exact rational vectors p^(n).

    ``width(n)`` is the certified width at level n: entries 1..width(n) are
    exact.  Values may be given as a table or generated lazily from a closed
    form.  Every entry is read as an integer pair (numerator, denominator),
    denominator positive and not necessarily in lowest terms, after its width
    and sign checks; ``value`` makes it a ``Fraction``.  A ``Fraction``-valued
    function is adapted to pairs once, where the vectors are built.
    """

    def __init__(
        self,
        value_fn: Callable[[int, int], Fraction],
        max_level: int,
        width_fn: Callable[[int], int],
        label: str = "vectors",
    ):
        self._pair_fn = lambda n, i: Fraction(value_fn(n, i)).as_integer_ratio()
        self.max_level = max_level
        self._width_fn = width_fn
        self.label = label

    @classmethod
    def _of_pairs(cls, pair_fn: Callable[[int, int], tuple[int, int]], max_level: int, width_fn, label: str):
        """Vectors whose entries ``pair_fn`` gives as pairs already, with a positive denominator."""
        mv = cls(None, max_level, width_fn, label)
        mv._pair_fn = pair_fn
        return mv

    @classmethod
    def from_table(cls, table: dict[int, dict[int, Fraction]], label: str = "vectors") -> "MeasureVectors":
        levels = sorted(table)
        if levels != list(range(len(levels))):
            raise DiagramError("measure vector table must cover levels 0..N contiguously")

        widths = [_prefix_width(table[n]) for n in levels]  # scanned once, not per value
        return cls(lambda n, i: table[n][i], len(levels) - 1, widths.__getitem__, label)

    @classmethod
    def from_function(
        cls,
        fn: Callable[[int, int], Fraction],
        window: Truncation,
        label: str = "vectors",
    ) -> "MeasureVectors":
        return cls(fn, window.max_level, lambda n: window.max_vertex, label)

    def width(self, level: int) -> int:
        if level < 0 or level > self.max_level:
            return 0
        return self._width_fn(level)

    def _entry(self, level: int, index: int) -> tuple[int, int]:
        if level < 0 or level > self.max_level or index < 1 or index > self._width_fn(level):
            raise WindowError(f"measure vector entry (level={level}, vertex={index}) is not certified")
        num, den = self._pair_fn(level, index)
        if num < 0:  # the denominator is positive
            raise DiagramError("measure vectors must be nonnegative")
        return num, den

    def value(self, level: int, index: int) -> Fraction:
        return Fraction(*self._entry(level, index))

    def cylinder_value(self, cyl: CylinderSpec) -> Fraction:
        """The entry at the cylinder's end vertex.  The vectors carry no diagram,
        so an ``ExplicitPath`` is read through ``cyl.end()``, unchecked."""
        end = cyl if isinstance(cyl, EndVertex) else cyl.end()
        return self.value(end.length, end.index)

    def perturbed(self, level: int, index: int, delta: Fraction) -> "MeasureVectors":
        def pair(n: int, i: int) -> tuple[int, int]:
            if n != level or i != index:
                return self._pair_fn(n, i)
            return (Fraction(*self._pair_fn(n, i)) + delta).as_integer_ratio()

        return MeasureVectors._of_pairs(pair, self.max_level, self._width_fn, f"{self.label}+perturbation")


# ---------------------------------------------------------------------------
# Tail-invariance check
# ---------------------------------------------------------------------------


@frozen
class InvarianceReport:
    """Exact per-level verdicts for F_n^T p^(n+1) = p^(n)."""

    levels: dict[int, bool]
    failures: tuple[tuple[int, int], ...]  # (level, vertex) of every violated row
    checked_rows: int

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def first_violation(self) -> Optional[tuple[int, int]]:
        return self.failures[0] if self.failures else None


def _columns(spec: DiagramSpec, n: int, w_n: int, w_next: int) -> Optional[dict[int, list[tuple[int, int]]]]:
    """Column w of F_n as ``[(v, mult), ...]``: w = 1..w_n on an odometer chain, every described
    column otherwise, and None if a row 1..w_next (1..size on a finite diagram) is unknown."""
    if isinstance(spec, OdometerChain):
        # row w (its vertical block) and, from w = 2, row w-1, whose single diagonal entry sits in column w
        return {w: [(w, a), (w - 1, 1)][:w] for w, a in enumerate(spec.multiplicities(n, w_n), 1)}
    rows = spec.level_rows(n)
    if any(v not in rows for v in range(1, (spec.vertex_count(n + 1) or w_next) + 1)):
        return None
    columns: dict[int, list[tuple[int, int]]] = {}
    for v, row in rows.items():
        for w, mult in row.items():
            columns.setdefault(w, []).append((v, mult))
    return columns


def check_tail_invariance(spec: DiagramSpec, mv: MeasureVectors, window: Truncation) -> InvarianceReport:
    """Exact equality test of sum_v f^(n)_{v,w} p^(n+1)_v = p^(n)_w.

    The relation at level n, vertex w uses column w of F_n, i.e. the rows v
    whose support contains w.  An odometer chain's columns come from one
    multiplicity column per level; an explicit family's are read off every
    row it describes: a row past the certified width of p^(n+1) leaves the
    columns it meets unchecked, and an unknown row among 1..width(n+1) (1..size
    on a finite diagram) the whole level.  An explicit-levels row past that width
    which the document leaves out is taken not to meet the checked columns (no
    vertex count per level tells it from a row past the last vertex).  Each row
    is decided over integers: both sides are multiplied by the product of the
    denominators of its entries.  Each entry reaches the check once, as the
    integer pair of ``MeasureVectors`` after its width and sign checks, and is
    kept while its level is in use.
    """
    if mv.max_level < window.max_level:
        raise WindowError("measure vectors are narrower than the requested window")
    levels: dict[int, bool] = {}
    failures: list[tuple[int, int]] = []
    checked = 0

    below: dict[int, tuple[int, int]] = {}  # entries of p^(n) read as p^(n+1) one level down
    for n in range(window.max_level):
        above: dict[int, tuple[int, int]] = {}  # entries of p^(n+1) read so far, each read once
        w_n = min(mv.width(n), window.max_vertex)
        w_next = mv.width(n + 1)
        columns = _columns(spec, n, w_n, w_next) if w_n else None
        level_ok = True
        for w in range(1, w_n + 1) if columns is not None else ():  # None: a row is unknown, no column checkable
            contributors = columns.get(w, [])
            if contributors and max(contributors)[0] > w_next:
                continue  # uncertified upstream entry; not checkable
            checked += 1
            lhs, lhs_den = 0, 1
            for v, mult in contributors:
                # a pair is a nonempty tuple: only a miss reads the entry
                num, den = above.get(v) or above.setdefault(v, mv._entry(n + 1, v))
                lhs, lhs_den = lhs * den + mult * num * lhs_den, lhs_den * den
            num, den = below.get(w) or mv._entry(n, w)
            if lhs * den != num * lhs_den:
                level_ok = False
                failures.append((n, w))
        levels[n] = level_ok
        below = above
    return InvarianceReport(levels, tuple(failures), checked)


# ---------------------------------------------------------------------------
# Odometer measures
# ---------------------------------------------------------------------------


@frozen
class OdometerMeasure:
    """The unique tail-invariant probability measure of one vertical odometer.

    A vertical cylinder of length m ending at the odometer's vertex has
    measure 1/(a_0 ... a_{m-1}); anything leaving the odometer has measure 0.
    """

    spec: DiagramSpec
    index: int

    def __post_init__(self):
        _require_chain(self.spec, "an odometer measure", self.index)

    def level_denominator(self, m: int) -> int:
        return math.prod(self.spec.vertical_edges(level, self.index) for level in range(m))

    def cylinder_value(self, cyl: CylinderSpec) -> Fraction:
        end = as_end_vertex(self.spec, cyl)
        # a path stays in the odometer iff it starts and ends at its vertex:
        # every diagonal edge lowers the index
        start = cyl.start if isinstance(cyl, ExplicitPath) else end.index
        if start != self.index or end.index != self.index:
            return Fraction(0)
        return Fraction(1, self.level_denominator(end.length))

