"""Diagram families, incidence windows, tower heights, telescoping.

A generalized Bratteli diagram here is a graded graph with levels 0, 1, 2, ...
and countably many vertices per level (indexed 1, 2, ...).  Edges only join
consecutive levels; the level-n incidence matrix F_n counts edges between a
vertex w of level n and a vertex v of level n+1 (entry ``f[v][w]``).

Most diagrams are "odometer chains", one type (:class:`OdometerChain`):
upper-bidiagonal incidence matrices ``f[i][i] = a_n(i)`` (vertical edges of
the i-th odometer) and ``f[i][i+1] = 1`` (the single edge tying odometer i to
odometer i+1), with a_n(i) read from one integer sequence by vertex
(stationary) or by level (non-stationary) and changed at finitely many
places.  The families ak, decreasing, increasing, nonstationary-uniform and
general-chain are spellings of it (``StationaryAK`` ... ``GeneralChain``).
Its path counts obey one recursion, N_(n+1)(v) = a_n(v) N_n(v) + N_n(v+1),
written once as :meth:`OdometerChain.path_step`: tower heights here, and the
one series-term stream of ``extension`` for masses and cylinders, step
through it.
Everything is exact integer arithmetic; a :class:`Truncation` only bounds what
a caller asks for, never the precision of what is returned.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ._frozen import frozen
from .sequences import (
    Arithmetic, Constant, IntSequence, Table, _require_dict, _require_ints, _require_key, _require_list, seq_from_json
)


class DiagramError(ValueError):
    """Invalid diagram description or request."""


class WindowError(DiagramError):
    """Request falls outside the truncation window or its certified region."""


class WorkBudgetError(DiagramError):
    """Brute-force enumeration exceeded its work budget."""


class CertificateError(DiagramError):
    """A certificate failed its own verification (internal inconsistency)."""


# series terms a mass or cylinder computation may sum before giving up
DEFAULT_MAX_TERMS = 512


@frozen
class VertexId:
    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise DiagramError("vertex level must be >= 0")
        if self.index < 1:
            raise DiagramError("vertex index must be >= 1")


@frozen
class Truncation:
    """Finite window onto a (possibly infinite) diagram."""

    max_level: int
    max_vertex: int

    def __post_init__(self):
        _require_ints("truncation bounds", (self.max_level, self.max_vertex), DiagramError)
        if self.max_level < 1:
            raise DiagramError("truncation needs max_level >= 1")
        if self.max_vertex < 2:
            raise DiagramError("truncation needs max_vertex >= 2")

    def to_json(self) -> dict:
        return {"maxLevel": self.max_level, "maxVertex": self.max_vertex}

    @staticmethod
    def from_json(doc: dict) -> "Truncation":
        _require_dict("truncation", doc, DiagramError)
        return Truncation(*(_require_key("truncation", doc, key, DiagramError) for key in ("maxLevel", "maxVertex")))


# ---------------------------------------------------------------------------
# Diagram families
# ---------------------------------------------------------------------------


class DiagramSpec:
    """Base class for diagram families.

    A family sets ``family``, defines ``params_json()`` and gives the rows of
    F_n one of two ways.  An explicit family builds ``level_rows(n)`` once:
    ``{v: {w: mult}}`` over every described row, columns ascending, no zero,
    shared by all readers, who must not change it; ``incidence_row`` reads it.
    An odometer chain, whose rows never end, defines ``incidence_row(n, v)``.
    """

    def vertex_count(self, n: int) -> Optional[int]:
        """Number of vertices at level n; None means countably infinite."""
        return None

    def incidence_row(self, n: int, v: int) -> Optional[list[tuple[int, int]]]:
        """The full row v of F_n as ``[(w, mult), ...]`` in column order, or None if unknown."""
        row = self.level_rows(n).get(v)
        return None if row is None else list(row.items())

    def to_json(self, window: Optional[Truncation] = None) -> dict:
        doc = {"family": self.family, "params": self.params_json()}
        if window is not None:
            doc["truncation"] = window.to_json()
        return doc


# odometer-chain family -> the params of its JSON document
_CHAIN_PARAMS = {
    "ak": lambda c: {"a": c.base.values[0], "k": c.base.values[0] - c.base.tail.c},
    "decreasing": lambda c: {"diagonal": c.base.to_json()},
    "increasing": lambda c: {},
    "nonstationary-uniform": lambda c: {"levels": c.base.to_json()},
    "general-chain": lambda c: {"entries": [list(e) for e in c.exceptions], "default": c.base.c},
}


@frozen
class OdometerChain(DiagramSpec):
    """Upper-bidiagonal chain of odometers: ``f[i][i] = a_n(i)``, ``f[i][i+1] = 1``.

    a_n(i) is the exception at (n, i) if there is one, else ``base.value(n)``
    when ``by_level`` is set and ``base.value(i - 1)`` otherwise.  Exceptions
    are checked >= 2 here; a base value is checked when read, >= 1 by vertex
    and >= 2 by level.  ``family`` is the JSON/CLI name the chain was built
    under (the functions below set it); it picks the params of its JSON.  A
    chain built under none, or one whose params read back through its family
    as a different chain (a decreasing chain with an exception, say), has no
    JSON document.
    """

    base: IntSequence
    by_level: bool = False
    exceptions: tuple[tuple[int, int, int], ...] = ()
    family: Optional[str] = None

    def __post_init__(self):
        if self.family is not None and self.family not in _CHAIN_PARAMS:
            raise DiagramError(f"unknown odometer-chain family {self.family!r}")
        if not isinstance(self.exceptions, (tuple, list)):
            raise DiagramError("general-chain entries must be a list of [level, vertex, multiplicity]")
        table = {}
        for entry in self.exceptions:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 3 and all(type(x) is int for x in entry)):
                raise DiagramError(f"general-chain entry {entry!r} must be three ints [level, vertex, multiplicity]")
            n, i, val = entry
            if n < 0 or i < 1:
                raise DiagramError("general-chain entries need level >= 0 and vertex >= 1")
            if val < 2:
                raise DiagramError("odometer-chain multiplicities must be >= 2")
            table[(n, i)] = val
        object.__setattr__(self, "exceptions", tuple(sorted((n, i, v) for (n, i), v in table.items())))
        # not fields: the exceptions by position, and the base values by vertex read so far
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_column", [])

    def vertical_edges(self, n: int, i: int) -> int:
        """Vertical multiplicity a_n(i) of odometer i at level n."""
        if self._table and (n, i) in self._table:
            return self._table[(n, i)]
        if i < 1:
            raise DiagramError(f"vertex index must be >= 1, not {i}")
        val = self.base.value(n if self.by_level else i - 1)
        if val < 1 + self.by_level:
            what = f"level multiplicity a_{n}" if self.by_level else f"vertex multiplicity a_{i}"
            raise DiagramError(f"{what}={val} must be >= {1 + self.by_level}")
        return val

    def multiplicities(self, n: int, hi: int, lo: int = 1) -> list[int]:
        """``vertical_edges(n, i)`` for i = lo..hi; the base is read once per chain by vertex."""
        if lo < 1:
            raise DiagramError(f"vertex index must be >= 1, not {lo}")
        if self.by_level:
            col = [self.base.value(n)] * (hi - lo + 1)
        else:
            column = self._column
            while len(column) < hi:
                column.append(self.base.value(len(column)))
            col = column[lo - 1:hi]
        for level, i, val in self.exceptions:
            if level == n and lo <= i <= hi:
                col[i - lo] = val
        if col and min(col) < 1 + self.by_level:
            for i in range(lo, hi + 1):
                self.vertical_edges(n, i)  # raises at the first entry below its bound
        return col

    def path_step(self, n: int, lo: int, counts: list[int], top: Optional[int] = None) -> list[int]:
        """One level of the path-count recursion N_(n+1)(v) = a_n(v) N_n(v) + N_n(v+1).

        ``counts`` holds N_n(v) for v = lo, lo+1, ... and ``top`` the count at
        the vertex just above them: 0 for the paths from a cylinder's end
        vertex, a closed-form height, or None when it is unknown, and then the
        top vertex drops out of the result.  Tower heights and the extension
        series terms, of masses and cylinders alike, take their levels from
        here.
        """
        col = self.multiplicities(n, lo + len(counts) - 1 - (top is None), lo)
        nxt = [a * x + y for a, x, y in zip(col, counts, counts[1:])]
        if top is not None and counts:
            nxt.append(col[-1] * counts[-1] + top)
        return nxt

    @property
    def vertex_diag(self) -> Optional[IntSequence]:
        """The base, read by vertex (index i-1), when no exception changes it."""
        return None if self.by_level or self.exceptions else self.base

    @property
    def level_diag(self) -> Optional[IntSequence]:
        """The base, read by level, when no exception changes it."""
        return self.base if self.by_level and not self.exceptions else None

    @property
    def constant_range(self) -> Optional[tuple[int, int]]:
        """``(v_const, tau)`` when a_n(v) = tau for every vertex v >= v_const, on a vertex-indexed chain."""
        diag = self.vertex_diag
        tail = None if diag is None else diag.constant_from()
        return None if tail is None else (tail[0] + 1, tail[1])

    def incidence_row(self, n: int, v: int) -> list[tuple[int, int]]:
        return [(v, self.vertical_edges(n, v)), (v + 1, 1)]

    def params_json(self) -> dict:
        if self.family is None:
            raise DiagramError("an odometer chain built under no family name has no JSON document")
        try:
            params = _CHAIN_PARAMS[self.family](self)
            same = _spec_from_params(self.family, params) == self
        except (AttributeError, ValueError):  # a base or default the family cannot spell
            same = False
        if not same:
            raise DiagramError(f"this chain has no {self.family!r} document: its params read back as a different chain")
        return params


def _require_chain(spec: DiagramSpec, what: str, i: Optional[int] = None) -> OdometerChain:
    """``spec``, refused unless it is an odometer chain; an odometer index ``i``, when given, must be >= 1."""
    if not isinstance(spec, OdometerChain):
        raise DiagramError(f"{what} requires an odometer chain")
    if i is not None and i < 1:
        raise DiagramError(f"odometer index must be >= 1, not {i}")
    return spec


def StationaryAK(a: int, k: int) -> OdometerChain:
    """Stationary chain with first odometer a and all later odometers a-k."""
    _require_ints("ak family parameters a and k", (a, k), DiagramError)
    if a < 2 or k < 1 or a - k < 1:
        raise DiagramError("ak family needs a >= 2, k >= 1 and a - k >= 1")
    return OdometerChain(Table((a,), Constant(a - k)), family="ak")


def StationaryDecreasing(diagonal: IntSequence) -> OdometerChain:
    """Stationary chain with vertex multiplicities read from a diagonal (any diagonal)."""
    return OdometerChain(diagonal, family="decreasing")


def StationaryIncreasing() -> OdometerChain:
    """Stationary chain with multiplicities 2, 3, 4, ... down the diagonal."""
    return OdometerChain(Arithmetic(2, 1), family="increasing")


def NonStationaryUniform(levels: IntSequence) -> OdometerChain:
    """Non-stationary chain: at level n every odometer has a_n edges."""
    return OdometerChain(levels, True, family="nonstationary-uniform")


def GeneralChain(entries, default: int = 2) -> OdometerChain:
    """The constant chain ``default`` with (level, vertex, multiplicity) exceptions."""
    _require_ints("general-chain default", (default,), DiagramError)
    if default < 2:
        raise DiagramError("default multiplicity must be >= 2")
    return OdometerChain(Constant(default), exceptions=entries, family="general-chain")


@frozen
class ExplicitFinite(DiagramSpec):
    """Finite stationary standard diagram given by A = F^T with a simple hat."""

    a_matrix: tuple[tuple[int, ...], ...]
    family = "explicit-finite"

    def __post_init__(self):
        rows = tuple(
            tuple(_require_list("matrix row", row, DiagramError))
            for row in _require_list("matrix", self.a_matrix, DiagramError)
        )
        object.__setattr__(self, "a_matrix", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DiagramError("matrix must be square and nonempty")
        _require_ints("matrix entries", (x for r in rows for x in r), DiagramError)
        if any(x < 0 for r in rows for x in r):
            raise DiagramError("matrix entries must be nonnegative")
        f_rows = {v: {w: x for w, x in enumerate(col, 1) if x} for v, col in enumerate(zip(*rows), 1)}
        object.__setattr__(self, "_rows", f_rows)  # not a field: the rows of F = A^T (columns of A), on every level
        # diagram validity: every vertex needs incoming and outgoing edges
        for v in range(1, n + 1):
            if not f_rows[v]:
                raise DiagramError(f"vertex {v} has no incoming edges (column {v} of A is zero)")
            if not any(rows[v - 1]):
                raise DiagramError(f"vertex {v} has no outgoing edges (row {v} of A is zero)")

    def level_rows(self, n: int) -> dict[int, dict[int, int]]:
        return self._rows

    def vertex_count(self, n: int) -> int:
        return len(self.a_matrix)

    def params_json(self) -> dict:
        return {"matrix": [list(r) for r in self.a_matrix]}


@frozen
class ExplicitLevels(DiagramSpec):
    """Explicit sparse incidence matrices within a window.

    ``levels[n]`` lists entries ``(v, w, mult)`` of F_n, added up by position
    into the row maps of ``level_rows``; vertex indices v and w start at 1.
    Every row that appears is a complete description of that row; absent
    rows are unknown, not zero.
    """

    levels: tuple[tuple[tuple[int, int, int], ...], ...]
    family = "explicit-levels"

    def __post_init__(self):
        norm, maps = [], []
        for lvl in _require_list("explicit-levels levels", self.levels, DiagramError):
            entries = tuple(
                tuple(_require_list("explicit-levels entry", e, DiagramError, 3))
                for e in _require_list("explicit-levels level", lvl, DiagramError)
            )
            _require_ints("explicit-levels entries", (x for e in entries for x in e), DiagramError)
            entries = tuple(sorted(entries))
            if any(v < 1 or w < 1 for v, w, _ in entries):
                raise DiagramError("explicit-levels vertex indices start at 1")
            if any(m < 0 for _, _, m in entries):
                raise DiagramError("multiplicities must be nonnegative")
            rows: dict[int, dict[int, int]] = {}
            for v, w, m in entries:
                row = rows.setdefault(v, {})
                if m:
                    row[w] = row.get(w, 0) + m
            if not all(rows.values()):
                raise DiagramError("every described incidence row must be nonzero")
            norm.append(entries)
            maps.append(rows)
        object.__setattr__(self, "levels", tuple(norm))
        object.__setattr__(self, "_rows", tuple(maps))  # not a field: the row maps by level

    def level_rows(self, n: int) -> dict[int, dict[int, int]]:
        if not 0 <= n < len(self._rows):
            raise WindowError(f"explicit-levels diagram has no level {n} matrix")
        return self._rows[n]

    def params_json(self) -> dict:
        return {"levels": [[list(e) for e in lvl] for lvl in self.levels]}


# family -> its spec from ``key``, which reads a required params key, and the params themselves
_FAMILIES = {
    "ak": lambda key, p: StationaryAK(key("a"), key("k")),
    "decreasing": lambda key, p: StationaryDecreasing(seq_from_json(key("diagonal"))),
    "increasing": lambda key, p: StationaryIncreasing(),
    "nonstationary-uniform": lambda key, p: NonStationaryUniform(seq_from_json(key("levels"))),
    "general-chain": lambda key, p: GeneralChain(p.get("entries", ()), p.get("default", 2)),
    "explicit-finite": lambda key, p: ExplicitFinite(key("matrix")),
    "explicit-levels": lambda key, p: ExplicitLevels(key("levels")),
}


def _spec_from_params(family: str, params: dict) -> DiagramSpec:
    """The ``family`` spec that ``params`` describe; a missing required key is refused naming both."""
    return _FAMILIES[family](lambda key: _require_key(f"{family} params", params, key, DiagramError), params)


def diagram_from_json(doc: dict) -> tuple[DiagramSpec, Optional[Truncation]]:
    family = _require_dict("diagram document", doc, DiagramError).get("family")
    if family not in _FAMILIES:
        raise DiagramError(f"unknown diagram family: {family!r}")
    spec = _spec_from_params(family, _require_dict("params", doc.get("params", {}), DiagramError))
    window = Truncation.from_json(doc["truncation"]) if "truncation" in doc else None
    return spec, window


# ---------------------------------------------------------------------------
# Incidence windows
# ---------------------------------------------------------------------------


@frozen
class LevelMatrix:
    """Window restriction of one incidence matrix F_n."""

    level: int
    entries: tuple[tuple[int, int, int], ...]  # (row v in V_{n+1}, col w in V_n, mult)
    complete_rows: frozenset[int]  # rows whose full support fits in the window
    max_vertex: int

    def row_map(self) -> dict[int, dict[int, int]]:
        rows: dict[int, dict[int, int]] = {}
        for v, w, m in self.entries:
            rows.setdefault(v, {})[w] = m
        return rows


def incidence(spec: DiagramSpec, n: int, window: Truncation) -> LevelMatrix:
    """Window restriction of F_n: entries with both endpoints <= max_vertex."""
    if n < 0 or n >= window.max_level:
        raise WindowError(f"level {n} outside window (max_level={window.max_level})")
    m = window.max_vertex
    entries: list[tuple[int, int, int]] = []
    complete: set[int] = set()
    for v in range(1, m + 1):
        row = spec.incidence_row(n, v)
        if row is None:
            continue
        kept = [(v, w, mult) for w, mult in row if w <= m]
        entries.extend(kept)
        if len(kept) == len(row):
            complete.add(v)
    return LevelMatrix(n, tuple(sorted(entries)), frozenset(complete), m)


# ---------------------------------------------------------------------------
# Heights
# ---------------------------------------------------------------------------


def _prefix_width(present) -> int:
    """The largest w with 1..w all in ``present``: the certified width of a vector."""
    return next(w for w in range(len(present) + 1) if w + 1 not in present)


@frozen
class HeightsVector:
    """Tower heights H^(n): number of paths from level 0 into each vertex."""

    level: int
    values: dict[int, int]
    exact_width: int

    def value(self, i: int) -> int:
        if i not in self.values:
            raise WindowError(f"height at vertex {i}, level {self.level} is not certified")
        return self.values[i]


def heights(spec: DiagramSpec, n: int, window: Truncation) -> HeightsVector:
    """Exact tower heights at level n for the vertices of the window.

    For odometer chains the recursion only looks at vertices i..i+n (the
    matrices are upper bidiagonal), so the computation widens its own scratch
    window, steps it up with :meth:`OdometerChain.path_step`, and every
    requested entry comes out exact.
    """
    if n < 0 or n > window.max_level:
        raise WindowError(f"level {n} outside window (max_level={window.max_level})")
    m = window.max_vertex

    if isinstance(spec, OdometerChain):
        h = [1] * (m + n)  # H^(0) on the dependence cone; h[k] = H^(l)_(k+1)
        for lvl in range(n):
            h = spec.path_step(lvl, 1, h)  # the unknown top vertex drops out
        return HeightsVector(n, {i: h[i - 1] for i in range(1, m + 1)}, m)

    if isinstance(spec, (ExplicitFinite, ExplicitLevels)):
        certified: Optional[dict[int, int]] = None  # None = level 0, all ones
        for lvl in range(n):
            nxt = {}
            for v, row in spec.level_rows(lvl).items():
                if certified is None:
                    nxt[v] = sum(row.values())
                elif all(w in certified for w in row):
                    nxt[v] = sum(mult * certified[w] for w, mult in row.items())
            certified = nxt
        if certified is None:
            certified = dict.fromkeys(range(1, min(m, spec.vertex_count(0) or m) + 1), 1)
        values = {i: certified[i] for i in certified if i <= m}
        width = _prefix_width(values)
        if width == 0 and n > 0:
            raise WindowError(f"window too small to certify any height at level {n}")
        return HeightsVector(n, values, width)

    raise DiagramError(f"heights not implemented for family {spec.family}")


# ---------------------------------------------------------------------------
# Telescoping
# ---------------------------------------------------------------------------


def telescope(spec: DiagramSpec, breakpoints: Iterable[int], window: Truncation) -> ExplicitLevels:
    """Collapse levels between consecutive breakpoints, composing edges.

    The output level-k matrix is the product F_{n_{k+1}-1} ... F_{n_k} on its
    certified rows: every vertex 1..max_vertex at level n_k, then each known
    row whose sources are all certified.  So a row that is unknown or leaves
    the window drops every row composed through it.
    """
    pts = list(breakpoints)
    if not pts or pts[0] != 0:
        raise DiagramError("breakpoints must start at 0")
    if any(b >= c for b, c in zip(pts, pts[1:])):
        raise DiagramError("breakpoints must be strictly increasing")
    if pts[-1] > window.max_level:
        raise WindowError("breakpoints exceed the window")

    vertices = range(1, window.max_vertex + 1)
    out_levels = []
    for n_k, n_next in zip(pts, pts[1:]):
        # product[v] maps w -> number of paths from (n_k, w) to (current, v), certified rows only
        product = {v: {v: 1} for v in vertices}
        for lvl in range(n_k, n_next):
            nxt: dict[int, dict[int, int]] = {}
            for v in vertices:
                row = spec.incidence_row(lvl, v)
                if row is None or any(u not in product for u, _ in row):
                    continue
                acc: dict[int, int] = {}
                for u, mult in row:
                    for w, c in product[u].items():
                        acc[w] = acc.get(w, 0) + mult * c
                nxt[v] = acc
            product = nxt
        entries = tuple((v, w, c) for v, acc in product.items() for w, c in sorted(acc.items()))
        if not entries:
            raise WindowError(
                f"telescoping between levels {n_k} and {n_next} cannot be certified in this window"
            )
        out_levels.append(entries)
    return ExplicitLevels(tuple(out_levels))


# ---------------------------------------------------------------------------
# Brute-force path counting (independent oracle for heights)
# ---------------------------------------------------------------------------


def count_paths_bruteforce(
    spec: DiagramSpec, target: VertexId, window: Truncation, budget: int = 200_000
) -> int:
    """Count paths from level 0 into ``target`` by explicit enumeration.

    Walks every edge sequence one at a time (no closed form, no memoization)
    so it can serve as an independent check of :func:`heights`.  Raises
    :class:`WorkBudgetError` once more than ``budget`` edge steps are taken.
    """
    if target.level > 12:
        raise DiagramError("brute-force enumeration is limited to level <= 12")
    if target.level > window.max_level:
        raise WindowError("target outside window")

    steps = 0

    def descend(level: int, vertex: int) -> int:
        nonlocal steps
        if level == 0:
            return 1
        total = 0
        row = spec.incidence_row(level - 1, vertex)
        if row is None:
            raise WindowError(f"incidence row for vertex {vertex} at level {level - 1} unknown")
        for src, mult in row:
            for _ in range(mult):
                steps += 1
                if steps > budget:
                    raise WorkBudgetError(f"enumeration exceeded budget of {budget} steps")
                total += descend(level - 1, src)
        return total

    return descend(target.level, target.index)
