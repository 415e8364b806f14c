"""Differential tests: the path-count step against independent path counts.

Chains of every kind are drawn from a seeded ``random.Random``: ak,
decreasing tables, increasing, level-indexed (constant, arithmetic and
geometric) and general chains with exceptions.  On each, three answers that
share no code with ``OdometerChain.path_step`` are compared with it:

* ``heights`` against ``count_paths_bruteforce``, which walks every path;
* each mass-series term times a_0(i) ... a_n(i) against the height of i + 1;
* each cylinder-series numerator against the entry of a ``telescope`` block,
  and its denominator against a_0(i) ... a_n(i).

``telescope`` is that last reference, so it is itself checked against a walk
down every path of a block, on those chains and on random explicit diagrams
with unknown rows and rows that leave the window.
"""

import random

import pytest

from bratteli.diagram import (
    ExplicitFinite,
    ExplicitLevels,
    GeneralChain,
    NonStationaryUniform,
    OdometerChain,
    StationaryAK,
    StationaryDecreasing,
    StationaryIncreasing,
    Truncation,
    VertexId,
    WindowError,
    count_paths_bruteforce,
    heights,
    telescope,
)
from bratteli.extension import _series_terms, mass_series_terms
from bratteli.sequences import Arithmetic, Constant, Geometric, Table

SEEDS = range(6)
ODOMETERS = (1, 2, 3, 4)
# the enumeration walks every path one edge at a time, so it stops at this many
MAX_PATHS = 10_000


def _chains(seed: int) -> dict[str, OdometerChain]:
    rng = random.Random(seed)
    a = rng.randint(2, 5)
    table = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
    entries = [[rng.randint(0, 5), rng.randint(1, 5), rng.randint(2, 4)] for _ in range(rng.randint(1, 4))]
    return {
        "ak": StationaryAK(a, rng.randint(1, a - 1)),
        "decreasing": StationaryDecreasing(Table(table, Constant(rng.randint(1, 3)))),
        "increasing": StationaryIncreasing(),
        "level-constant": NonStationaryUniform(Constant(rng.randint(2, 4))),
        "level-arithmetic": NonStationaryUniform(Arithmetic(rng.randint(2, 3), rng.randint(1, 2))),
        "level-geometric": NonStationaryUniform(Geometric(rng.randint(2, 3), rng.randint(2, 3))),
        "general": GeneralChain(entries, rng.randint(2, 3)),
        "general-by-level": OdometerChain(Constant(rng.randint(2, 3)), True, entries),
    }


KINDS = list(_chains(0))


def test_the_corpus_has_vertices_below_and_inside_a_constant_range():
    sides = set()
    for seed in SEEDS:
        for spec in _chains(seed).values():
            if spec.constant_range is not None:
                sides.update(i + 1 >= spec.constant_range[0] for i in ODOMETERS)
    assert sides == {False, True}


@pytest.mark.parametrize("kind", KINDS)
def test_heights_match_bruteforce_path_counts(kind):
    window = Truncation(8, 4)
    for seed in SEEDS:
        spec = _chains(seed)[kind]
        for n in range(9):
            hv = heights(spec, n, window)
            if max(hv.values.values()) > MAX_PATHS:
                break
            for v in range(1, 5):
                assert hv.value(v) == count_paths_bruteforce(spec, VertexId(n, v), window), (seed, n, v)
        assert n >= 4


@pytest.mark.parametrize("kind", KINDS)
def test_mass_terms_are_heights_over_odometer_products(kind):
    count = 9
    window = Truncation(count, max(ODOMETERS) + 1)
    for seed in SEEDS:
        spec = _chains(seed)[kind]
        column = [heights(spec, n, window) for n in range(count)]
        for i in ODOMETERS:
            den = 1
            for n, term in enumerate(mass_series_terms(spec, i, count)):
                den *= spec.vertical_edges(n, i)
                assert term * den == column[n].value(i + 1), (seed, i, n)


@pytest.mark.parametrize("kind", KINDS)
def test_cylinder_numerators_match_telescoped_blocks(kind):
    count = 6
    for seed in SEEDS:
        spec = _chains(seed)[kind]
        rng = random.Random(seed)
        for _ in range(3):
            i = rng.randint(1, 3)
            m, j = rng.randint(0, 3), i + rng.randint(1, 3)
            # rows up to max_vertex - (n - m) of a block are complete, which covers j
            window = Truncation(m + count, j + count + 2)
            den = 1
            for n in range(m):
                den *= spec.vertical_edges(n, i)
            for n, term in enumerate(_series_terms(spec, i, m, j, count), start=m):
                den *= spec.vertical_edges(n, i)
                if n == m:
                    paths = int(j == i + 1)
                else:
                    block = telescope(spec, [0, m, n] if m else [0, n], window).levels[-1]
                    paths = {(v, w): c for v, w, c in block}.get((i + 1, j), 0)
                # the stream hands over the path count itself over the running denominator
                assert term == (paths, den), (seed, i, m, j, n)


def _paths_down(spec, level, v, bottom, max_vertex):
    """Path counts from (level, v) down to each source at level ``bottom``, by
    walking every vertex path; None when a step reads an unknown row or
    leaves vertices 1..max_vertex."""
    if level == bottom:
        return {v: 1}
    row = spec.incidence_row(level - 1, v)
    if row is None:
        return None
    tally = {}
    for u, mult in row:
        below = _paths_down(spec, level - 1, u, bottom, max_vertex) if 1 <= u <= max_vertex else None
        if below is None:
            return None
        for w, c in below.items():
            tally[w] = tally.get(w, 0) + mult * c
    return tally


def _explicit_levels(rng: random.Random, count: int, width: int) -> ExplicitLevels:
    """Random rows over vertices 1..width+1: some rows left out (unknown), some
    meeting vertex width+1 (outside a max_vertex ``width`` window)."""
    levels = []
    for _ in range(count):
        entries = []
        for v in range(1, width + 2):
            if rng.random() < 0.8:
                entries += [(v, rng.randint(1, width + 1), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        levels.append(entries)
    return ExplicitLevels(levels)


def _explicit_finite(rng: random.Random, size: int) -> ExplicitFinite:
    return ExplicitFinite([[rng.randint(1, 3) if v == w else rng.randint(0, 2) for w in range(size)] for v in range(size)])


def _breakpoints(rng: random.Random, top: int) -> list[int]:
    return [0] + sorted(rng.sample(range(1, top + 1), rng.randint(1, top)))


@pytest.mark.parametrize("kind", KINDS + ["explicit-levels", "explicit-finite"])
def test_telescope_matches_a_walk_down_every_path(kind):
    outcomes = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(4):
            width = rng.randint(2, 5)
            if kind == "explicit-levels":
                top = rng.randint(1, 4)
                spec = _explicit_levels(rng, top, width)
            else:
                top = rng.randint(1, 6)
                spec = _explicit_finite(rng, width + 1) if kind == "explicit-finite" else _chains(seed)[kind]
            window = Truncation(top, width)
            pts = _breakpoints(rng, top)
            want = []
            for n_k, n_next in zip(pts, pts[1:]):
                rows = {v: _paths_down(spec, n_next, v, n_k, width) for v in range(1, width + 1)}
                want.append(tuple((v, w, c) for v, row in rows.items() if row for w, c in sorted(row.items())))
                outcomes.update(row is None for row in rows.values())
            empty = [k for k, block in enumerate(want) if not block]
            if not empty:
                assert telescope(spec, pts, window).levels == tuple(want), (seed, pts)
            else:
                k = empty[0]
                with pytest.raises(WindowError, match=f"between levels {pts[k]} and {pts[k + 1]} cannot be certified"):
                    telescope(spec, pts, window)
                outcomes.add("uncertified")
    # every kind drops rows somewhere; the explicit diagrams also lose whole blocks
    assert outcomes >= ({True, False, "uncertified"} if kind == "explicit-levels" else {True, False})
