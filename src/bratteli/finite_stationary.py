"""Distinguished classes and measures for finite stationary diagrams.

For a finite stationary standard diagram with incidence matrix F, write
A = F^T and decompose the directed graph of A into communicating classes.
A class is distinguished when its Perron root strictly exceeds the root of
every class with access to it; each distinguished class carries a nonnegative
eigenvector, positive exactly on the vertices with access to the class, and
that eigenpair induces an ergodic probability measure with cylinder values
xi(w) / lambda^(n-1) at level n >= 1.

Unlike the exact modules, Perron roots are generally irrational, so this
module works in floating point with explicit error bounds: power iteration
on A + I with min/max quotient bounds brackets each spectral radius to a
requested tolerance (the +I shift keeps periodic irreducible blocks
convergent without telescoping the diagram).  numpy is imported inside the
functions that use it, so importing the package does not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ._frozen import frozen
from .diagram import DiagramError, ExplicitFinite

if TYPE_CHECKING:
    import numpy as np


class ToleranceError(DiagramError):
    """A comparison or solve could not be resolved at the given tolerance."""


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

    def class_matrix(self, alpha: int) -> np.ndarray:
        import numpy as np

        idx = [v - 1 for v in self.classes[alpha]]
        a = np.array(self.matrix, dtype=float)
        return a[np.ix_(idx, idx)]

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
    """Strongly connected components of G(A) plus the access relation.

    Edge i -> j exists iff a[i][j] > 0.  Tarjan's algorithm (iterative), then
    the condensation's transitive closure gives the reduced graph.
    """
    rows = ExplicitFinite(a_matrix).a_matrix
    n = len(rows)
    adj = [[j for j in range(n) if rows[i][j] > 0] for i in range(n)]

    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work.pop()
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for j in range(ei, len(adj[v])):
                w = adj[v][j]
                if index[w] == -1:
                    work.append((v, j + 1))
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])

    comp_of = {}
    for ci, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = ci
    m = len(sccs)
    cond = [set() for _ in range(m)]
    for i in range(n):
        for j in adj[i]:
            if comp_of[i] != comp_of[j]:
                cond[comp_of[i]].add(comp_of[j])

    # topological order: accessing classes first
    indeg = [0] * m
    for u in range(m):
        for v in cond[u]:
            indeg[v] += 1
    queue = sorted(u for u in range(m) if indeg[u] == 0)
    topo: list[int] = []
    while queue:
        u = queue.pop(0)
        topo.append(u)
        for v in sorted(cond[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
        queue.sort()
    if len(topo) != m:
        raise DiagramError("condensation is not acyclic (internal error)")

    rank = {ci: pos for pos, ci in enumerate(topo)}
    classes = tuple(tuple(v + 1 for v in sccs[ci]) for ci in topo)

    # transitive closure over the condensation, in the topological numbering
    reach = [set() for _ in range(m)]
    for pos in range(m - 1, -1, -1):
        ci = topo[pos]
        for cj in cond[ci]:
            pj = rank[cj]
            reach[pos].add(pj)
            reach[pos].update(reach[pj])
    reduced = tuple(sorted((b, a) for b in range(m) for a in reach[b]))
    return ClassDecomposition(rows, classes, reduced)


# ---------------------------------------------------------------------------
# Spectral radii with error bounds
# ---------------------------------------------------------------------------


# power iterations spectral_radius runs before giving up on its tolerance
_MAX_ITER = 500_000


def spectral_radius(block: np.ndarray, tol: float = 1e-12) -> tuple[float, float]:
    """Bracket the Perron root of an irreducible nonnegative block.

    Power iteration on block + I with min/max quotient bounds; for an
    irreducible matrix and a positive iterate x, the quotients
    min_i (Mx)_i/x_i and max_i (Mx)_i/x_i enclose the Perron root of M.
    Returns (lo, hi) with hi - lo <= tol, exact for 1x1 blocks.
    """
    import numpy as np

    b = np.asarray(block, dtype=float)
    n = b.shape[0]
    if n == 1:
        val = float(b[0, 0])
        return (val, val)
    m = b + np.eye(n)
    x = np.ones(n)
    lo, hi = 0.0, float("inf")
    for _ in range(_MAX_ITER):
        y = m @ x
        quot = y / x
        lo = max(lo, float(quot.min()))
        hi = min(hi, float(quot.max()))
        if hi - lo <= tol:
            return (lo - 1.0, hi - 1.0)
        x = y / y.sum()
    raise ToleranceError(
        f"power iteration hit the cap before reaching tol={tol}; last bounds "
        f"[{lo - 1.0}, {hi - 1.0}]"
    )


def class_radii(dec: ClassDecomposition, tol: float = 1e-12) -> list[tuple[float, float]]:
    """The bracketed Perron root of every class, in class order."""
    return [spectral_radius(dec.class_matrix(alpha), tol) for alpha in range(len(dec.classes))]


def distinguished_classes(dec: ClassDecomposition, tol: float = 1e-12) -> tuple[int, ...]:
    """Classes whose Perron root strictly exceeds every strict predecessor's.

    Radii compared across an access pair must be separated by more than
    2 * tol, else the comparison is ambiguous at this tolerance and the call
    fails naming the pair.
    """
    return _distinguished(dec, class_radii(dec, tol), tol)


def _distinguished(dec: ClassDecomposition, radii: list[tuple[float, float]], tol: float) -> tuple[int, ...]:
    mids = [0.5 * (lo + hi) for lo, hi in radii]
    out = []
    for alpha in range(len(dec.classes)):
        ok = True
        for beta in dec.predecessors(alpha):
            if abs(mids[alpha] - mids[beta]) <= 2 * tol:
                raise ToleranceError(
                    f"radii of classes {beta} and {alpha} are not separated at tolerance {tol}"
                )
            if mids[alpha] < mids[beta]:
                ok = False
        if ok:
            out.append(alpha)
    return tuple(out)


# ---------------------------------------------------------------------------
# Distinguished eigenvectors and measures
# ---------------------------------------------------------------------------


@frozen
class DistinguishedData:
    """Eigen data of one distinguished class.

    ``xi`` has length N with entries forced to exact 0.0 outside the access
    set of the class; ``rho`` is the bracketed Perron root.
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
    """Solve A x = rho_alpha x blockwise along the access relation.

    x restricted to the class is its Perron vector; classes without access
    get exact zeros; each accessing class beta is recovered from
    (rho_alpha I - A_beta) x_beta = coupling, solvable because
    rho_beta < rho_alpha for a distinguished class.
    """
    return _eigenvector(dec, alpha, spectral_radius(dec.class_matrix(alpha), tol), tol)


def _eigenvector(dec: ClassDecomposition, alpha: int, radius: tuple[float, float], tol: float) -> DistinguishedData:
    import numpy as np

    n = dec.size
    a = np.array(dec.matrix, dtype=float)
    rho_lo, rho_hi = radius
    rho = 0.5 * (rho_lo + rho_hi)

    x = np.zeros(n)
    cls_idx = [v - 1 for v in dec.classes[alpha]]
    block = dec.class_matrix(alpha)
    if len(cls_idx) == 1:
        x[cls_idx[0]] = 1.0
    else:
        # Perron vector by power iteration on block + I
        v = np.ones(len(cls_idx))
        for _ in range(200_000):
            w = (block + np.eye(len(cls_idx))) @ v
            w /= w.sum()
            if np.max(np.abs(w - v)) < tol / 10:
                v = w
                break
            v = w
        x[cls_idx] = v

    solved = {alpha}
    for beta in reversed(range(len(dec.classes))):
        if beta in solved or beta not in dec.predecessors(alpha):
            continue
        # classes are in topological order, so everything beta reaches that
        # matters (toward alpha) has a larger index and is already solved
        bidx = [v - 1 for v in dec.classes[beta]]
        rest = [u for u in range(n) if u not in bidx]
        coupling = a[np.ix_(bidx, rest)] @ x[rest]
        block_b = a[np.ix_(bidx, bidx)]
        try:
            sol = np.linalg.solve(rho * np.eye(len(bidx)) - block_b, coupling)
        except np.linalg.LinAlgError as exc:
            raise ToleranceError(f"solve for class {beta} failed: {exc}") from exc
        x[bidx] = sol
        solved.add(beta)

    support = dec.access_set(alpha)
    for v in range(1, n + 1):
        if v not in support:
            x[v - 1] = 0.0
    if any(x[v - 1] <= 0 for v in support):
        raise ToleranceError("eigenvector positivity pattern violated beyond tolerance")
    residual = float(np.max(np.abs(a @ x - rho * x)))
    if residual > 10 * max(tol, 1e-15) * float(np.max(np.abs(x))):
        raise ToleranceError(f"eigen residual {residual} exceeds tolerance")
    return DistinguishedData(alpha, (rho_lo, rho_hi), tuple(float(v) for v in x), support)


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

    def cylinder_value(self, level: int, vertex: int) -> float:
        if level < 1:
            raise DiagramError("cylinder level must be >= 1 on a standard diagram")
        return self.xi_normalized[vertex - 1] / self.lam ** (level - 1)


def measures_finite_stationary(a_matrix, tol: float = 1e-12) -> list[FiniteStationaryMeasure]:
    """One ergodic probability measure per distinguished class of A = F^T."""
    dec = decompose(a_matrix)
    return class_measures(dec, class_radii(dec, tol), tol)


def class_measures(
    dec: ClassDecomposition, radii: list[tuple[float, float]], tol: float
) -> list[FiniteStationaryMeasure]:
    """``measures_finite_stationary`` on a decomposition whose class radii
    ``class_radii(dec, tol)`` already bracketed."""
    out = []
    for alpha in _distinguished(dec, radii, tol):
        data = _eigenvector(dec, alpha, radii[alpha], tol)
        total = sum(data.xi)
        xi_norm = tuple(v / total for v in data.xi)
        out.append(FiniteStationaryMeasure(data, data.rho_mid, xi_norm, data.xi))
    return out
