"""Orders, odometer classification, extension verdicts, successor dynamics.

Core claims:
    - tags decide finite-right/finite-left exactly: left -> fr only,
      right -> fl only, middle -> both; explicit windows stay unknown, and
      finitely many per-vertex exceptions change no verdict
    - the extension verdict applies the cardinal rule: Borel iff |fr| = |fl|,
      homeomorphism never for quasi-stationary orders with nonempty sets
    - the successor advances the first non-maximal edge and resets the prefix
      to the order-minimal path; all-maximal windows are reported as such
    - the successor is injective and its replaced prefix is minimal
    - orbit frequencies approximate the normalized extension measure, and
      every exact measure kind's theoretical values are its ``cylinder_value``
    - the orbit through all paths into (N, v) visits each cylinder exactly
      as often as telescoping counts paths from its end vertex to (N, v)
    - the successor, the minimal paths and the orbit counts equal a
      reference written out level by level, with a fresh order per level
    - the orbit's walker, which steps one path in place, holds at every step
      the path that public ``successor`` calls reach
"""

import json
import random
import re
from fractions import Fraction

import pytest

from bratteli.diagram import (
    DiagramError,
    ExplicitFinite,
    GeneralChain,
    StationaryAK,
    StationaryDecreasing,
    Truncation,
    heights,
    telescope,
)
from bratteli.extension import extend_odometer
from bratteli.measure import DIAGONAL, VERTICAL, EndVertex, ExplicitPath, OdometerMeasure
from bratteli.orders import (
    ALEPH0,
    LEFT,
    MIDDLE,
    RIGHT,
    TAGS,
    AllMaximalPrefix,
    QuasiStationary,
    VertexOrder,
    _Walk,
    canonical_order,
    classify_odometer,
    extension_verdict,
    minimal_path_into,
    orbit_frequencies,
    order_at,
    order_from_json,
    successor,
    vertical_path,
)
from bratteli.sequences import Constant, Table
from bratteli.spectral import eigen_measure, eigenvector

SPEC = StationaryAK(4, 2)


# -- vertex orders ---------------------------------------------------------------


def test_canonical_orders_and_tags():
    left = canonical_order(LEFT, 3)
    right = canonical_order(RIGHT, 3)
    middle = canonical_order(MIDDLE, 3)
    assert left.tag == LEFT and left.minimal == (DIAGONAL, 0)
    assert right.tag == RIGHT and right.maximal == (DIAGONAL, 0)
    assert middle.tag == MIDDLE
    assert middle.sequence == ((VERTICAL, 1), (DIAGONAL, 0), (VERTICAL, 2), (VERTICAL, 3))


def test_canonical_orders_are_shared_per_tag_and_size():
    for tag in TAGS:
        for a in (2, 3, 5):
            assert canonical_order(tag, a) is canonical_order(tag, a)
    assert canonical_order(LEFT, 3) != canonical_order(RIGHT, 3)
    assert order_at(SPEC, QuasiStationary(default=(LEFT,)), 3, 1) is canonical_order(LEFT, 4)
    for _ in range(2):  # a rejected request is never remembered
        with pytest.raises(DiagramError, match="at least two vertical edges"):
            canonical_order(MIDDLE, 1)
        with pytest.raises(DiagramError, match="unknown tag"):
            canonical_order("up", 3)


def test_vertex_order_validation():
    with pytest.raises(DiagramError):
        VertexOrder(((VERTICAL, 1), (VERTICAL, 1), (DIAGONAL, 0)))
    with pytest.raises(DiagramError):
        VertexOrder(((VERTICAL, 1), (VERTICAL, 2)))  # diagonal missing
    with pytest.raises(DiagramError):
        canonical_order(MIDDLE, 1)


def test_empty_default_tag_cycle_is_rejected():
    with pytest.raises(DiagramError, match="default tag cycle"):
        QuasiStationary(default=())
    with pytest.raises(DiagramError, match="default tag cycle"):
        order_from_json({"kind": "quasiStationary", "tags": {"default": []}})


@pytest.mark.parametrize("default", [5, 2.5, True, {"left": 1}])
def test_default_that_is_neither_a_tag_nor_a_list_of_tags_is_rejected(default):
    rule = "the order default must be a tag or a list of tags"
    with pytest.raises(DiagramError, match=rule):
        QuasiStationary(default=default)
    with pytest.raises(DiagramError, match=rule):
        order_from_json({"tags": {"default": default}})


def test_null_default_stays_the_explicit_window_mode():
    assert order_from_json({"tags": {"default": None}}).default is None
    assert QuasiStationary(default=[LEFT, RIGHT]).default == (LEFT, RIGHT)
    assert QuasiStationary(default=LEFT).default == (LEFT,)


def test_explicit_order_must_fit_its_vertex():
    # vertex 2 of ak(4, 2) has two vertical edges; this order lists three
    order = QuasiStationary(default=None, exceptions=(((1, 2), canonical_order(RIGHT, 3)),))
    with pytest.raises(DiagramError, match=r"level 1, index 2"):
        order_at(SPEC, order, 1, 2)
    with pytest.raises(DiagramError, match=r"level 1, index 2"):
        successor(SPEC, order, ExplicitPath(2, ((VERTICAL, 2),)))
    fitting = QuasiStationary(default=None, exceptions=(((1, 2), canonical_order(RIGHT, 2)),))
    assert successor(SPEC, fitting, ExplicitPath(2, ((VERTICAL, 2),))).edges == ((DIAGONAL, 0),)


def test_exceptions_win_over_the_eventual_tag():
    reversed_middle = VertexOrder(canonical_order(MIDDLE, 4).sequence[::-1])
    order = QuasiStationary(default=(LEFT,), exceptions={(2, 1): reversed_middle, (3, 2): RIGHT})
    assert order_at(SPEC, order, 2, 1) is reversed_middle
    assert order_at(SPEC, order, 3, 2) == canonical_order(RIGHT, 2)
    assert order_at(SPEC, order, 3, 1) == canonical_order(LEFT, 4)
    assert order.tag_of(1) == order.tag_of(2) == LEFT


def test_explicit_window_has_no_order_beyond_its_vertices():
    order = QuasiStationary(default=None, exceptions=(((1, 1), LEFT),))
    assert order_at(SPEC, order, 1, 1) == canonical_order(LEFT, 4)
    with pytest.raises(DiagramError, match=r"no order given for vertex \(level 2, index 1\)"):
        order_at(SPEC, order, 2, 1)


def test_exceptions_are_validated():
    with pytest.raises(DiagramError, match="level >= 1 and index >= 1"):
        QuasiStationary(exceptions=(((0, 1), LEFT),))
    with pytest.raises(DiagramError, match="unknown tag"):
        QuasiStationary(exceptions=(((1, 1), "up"),))


def test_tag_indices_are_validated():
    # a tag no odometer carries would still count towards a cardinality
    for index in (0, -3):
        with pytest.raises(DiagramError, match="tag indices need index >= 1"):
            QuasiStationary(tags=((index, LEFT),), default=(RIGHT,))
        with pytest.raises(DiagramError, match="tag indices need index >= 1"):
            order_from_json({"tags": {"default": "right", str(index): "left"}})
    for key in ("x", "1.5", ""):
        with pytest.raises(DiagramError, match=re.escape(f'order tag key "{key}" is not an integer')):
            order_from_json({"tags": {key: "left"}})


@pytest.mark.parametrize("section, keys", [("tags", ("1", "01")), ("exceptions", ("2,1", "02,1"))])
def test_order_json_refuses_two_keys_for_one_odometer_or_vertex(section, keys):
    doc = {"kind": "eventuallyQuasiStationary", section: {keys[0]: "left", keys[1]: "right"}}
    with pytest.raises(DiagramError, match=re.escape(f'keys "{keys[0]}" and "{keys[1]}" both name')):
        order_from_json(doc)


def test_a_vertex_order_is_an_exception_only():
    vo = canonical_order(LEFT, 2)
    for build in (lambda: QuasiStationary(tags=((2, vo),)), lambda: QuasiStationary(default=(vo,))):
        with pytest.raises(DiagramError, match="unknown tag"):
            build()
    assert order_at(SPEC, QuasiStationary(exceptions=(((1, 2), vo),)), 1, 2) is vo


def test_order_json():
    order = order_from_json(
        {"kind": "quasiStationary", "tags": {"1": "left", "2": "middle", "default": "right"}}
    )
    assert order.tag_of(1) == LEFT
    assert order.tag_of(2) == MIDDLE
    assert order.tag_of(9) == RIGHT
    alt = order_from_json({"kind": "quasiStationary", "tags": {"default": ["left", "right"]}})
    assert [alt.tag_of(i) for i in (1, 2, 3, 4)] == [LEFT, RIGHT, LEFT, RIGHT]


def test_order_json_exceptions_need_their_kind_and_a_position():
    # a quasiStationary document (the default kind) has no exceptions to drop
    for doc in (
        {"kind": "quasiStationary", "tags": {"default": "left"}, "exceptions": {"1,1": "right"}},
        {"tags": {"default": "left"}, "exceptions": {"1,1": "right"}},
    ):
        with pytest.raises(DiagramError, match="eventuallyQuasiStationary"):
            order_from_json(doc)
    for key in ("2", "1,2,3", "a,1", ""):
        with pytest.raises(DiagramError, match=re.escape(f'order exception key "{key}" is not "level,index"')):
            order_from_json({"kind": "eventuallyQuasiStationary", "exceptions": {key: "right"}})


# keys that int() reads but an order document refuses: spaces, a plus sign,
# digit underscores and digits outside ASCII
NOT_PLAIN_INTEGERS = ("1_0", " 2 ", "2 ", "+3", "\u0661", "1e1", "0x1")


@pytest.mark.parametrize("key", NOT_PLAIN_INTEGERS)
def test_order_keys_are_a_minus_sign_and_digits_only(key):
    with pytest.raises(DiagramError, match=re.escape(f"order tag key {json.dumps(key)} is not an integer")):
        order_from_json({"tags": {"default": "middle", key: "left"}})
    for at in (f"{key},1", f"2,{key}"):
        with pytest.raises(DiagramError, match=re.escape(f'order exception key {json.dumps(at)} is not "level,index"')):
            order_from_json({"kind": "eventuallyQuasiStationary", "exceptions": {at: "left"}})


def test_order_keys_keep_leading_zeros_and_a_minus_sign():
    doc = {"kind": "eventuallyQuasiStationary", "tags": {"default": "middle", "02": "left"}, "exceptions": {"03,010": "right"}}
    order = order_from_json(doc)
    assert (order.tags, order.exceptions) == (((2, LEFT),), (((3, 10), RIGHT),))
    with pytest.raises(DiagramError, match="tag indices need index >= 1"):
        order_from_json({"tags": {"-1": "left"}})
    with pytest.raises(DiagramError, match="exception positions need level >= 1"):
        order_from_json({"kind": "eventuallyQuasiStationary", "exceptions": {"-2,1": "left"}})


def test_eventually_quasi_stationary_json_and_overrides():
    ev = order_from_json(
        {
            "kind": "eventuallyQuasiStationary",
            "tags": {"default": "right"},
            "exceptions": {"3,2": "middle"},
        }
    )
    assert ev == QuasiStationary(default=(RIGHT,), exceptions=(((3, 2), MIDDLE),))
    # the exception changes the concrete order at (level 3, vertex 2) only
    assert order_at(SPEC, ev, 3, 2).tag == MIDDLE
    assert order_at(SPEC, ev, 4, 2).tag == RIGHT
    assert ev.tag_of(2) == RIGHT  # eventual tag unchanged


# -- classification ----------------------------------------------------------------


def test_classify_tags():
    mid = classify_odometer(SPEC, QuasiStationary(default=(MIDDLE,)), 4)
    assert (mid.finite_right, mid.finite_left) == (True, True)
    left = classify_odometer(SPEC, QuasiStationary(default=(LEFT,)), 2)
    assert (left.finite_right, left.finite_left) == (True, False)
    right = classify_odometer(SPEC, QuasiStationary(default=(RIGHT,)), 1)
    assert (right.finite_right, right.finite_left) == (False, True)


def test_classify_explicit_is_unknown():
    orders = tuple(
        (((n, i), canonical_order(RIGHT, SPEC.vertical_edges(n - 1, i))))
        for n in range(1, 11)
        for i in range(1, 4)
    )
    got = classify_odometer(SPEC, QuasiStationary(default=None, exceptions=orders), 1)
    assert got.finite_right is None and got.finite_left is None
    assert "window" in got.note


def test_classification_matches_verdict_sets():
    # left => fr only, right => fl only, middle => both, per odometer
    rng = random.Random(17)
    for _ in range(20):
        tags = tuple((i, rng.choice([LEFT, RIGHT, MIDDLE])) for i in range(1, 8))
        order = QuasiStationary(tags, default=(rng.choice([LEFT, RIGHT, MIDDLE]),))
        verdict = extension_verdict(SPEC, order, i_max=7)
        for i in range(1, 8):
            c = classify_odometer(SPEC, order, i)
            assert (i in verdict.fr_witness) == c.finite_right
            assert (i in verdict.fl_witness) == c.finite_left


# -- extension verdicts ---------------------------------------------------------------


def test_all_left_has_no_borel_extension():
    v = extension_verdict(SPEC, QuasiStationary(default=(LEFT,)))
    assert v.i_fr == ALEPH0 and v.i_fl == 0
    assert not v.borel_extension
    assert v.homeomorphism == "no"


def test_alternating_and_middle_verdicts():
    v = extension_verdict(SPEC, QuasiStationary(default=(LEFT, RIGHT)))
    assert v.i_fr == ALEPH0 and v.i_fl == ALEPH0
    assert v.borel_extension and v.homeomorphism == "no-quasi-stationary"
    v = extension_verdict(SPEC, QuasiStationary(default=(MIDDLE,)))
    assert v.borel_extension and v.homeomorphism == "no-quasi-stationary"


def test_finitely_many_exceptions_keep_the_verdict():
    base = QuasiStationary(default=(LEFT, RIGHT))
    reversed_left = VertexOrder(canonical_order(LEFT, 4).sequence[::-1])
    ev = QuasiStationary(
        default=(LEFT, RIGHT), exceptions=(((3, 2), MIDDLE), ((5, 1), RIGHT), ((2, 1), reversed_left))
    )
    assert extension_verdict(SPEC, ev) == extension_verdict(SPEC, base)


def test_verdict_rejects_explicit_orders():
    orders = (((1, 1), canonical_order(RIGHT, 4)),)
    with pytest.raises(DiagramError):
        extension_verdict(SPEC, QuasiStationary(default=None, exceptions=orders))


def test_verdict_needs_an_odometer_chain():
    with pytest.raises(DiagramError, match="requires an odometer chain"):
        extension_verdict(ExplicitFinite([[2, 1], [0, 3]]), QuasiStationary())


def test_hand_rule_on_random_assignments():
    rng = random.Random(41)
    for _ in range(100):
        tags = tuple((i, rng.choice([LEFT, RIGHT, MIDDLE])) for i in range(1, rng.randint(2, 9)))
        default = (rng.choice([LEFT, RIGHT, MIDDLE]),)
        order = QuasiStationary(tags, default)
        v = extension_verdict(SPEC, order, i_max=12)

        def card(kinds):
            if default[0] in kinds:
                return ALEPH0
            return sum(1 for _, t in tags if t in kinds)

        assert v.i_fr == card({LEFT, MIDDLE})
        assert v.i_fl == card({RIGHT, MIDDLE})
        assert v.borel_extension == (v.i_fr == v.i_fl)
        if v.borel_extension:
            assert v.homeomorphism == "no-quasi-stationary"
        else:
            assert v.homeomorphism == "no"


# -- successor ---------------------------------------------------------------------


def test_successor_advances_lowest_level_first():
    order = QuasiStationary(default=(MIDDLE,))
    path = vertical_path(SPEC, 1, 3)  # edges (v,1) everywhere, not maximal
    out = successor(SPEC, order, path)
    assert out.edges[0] == (DIAGONAL, 0)  # middle order: successor of e_1 is f
    assert out.edges[1:] == path.edges[1:]
    assert out.start == 2


def test_successor_hand_trace_with_carry():
    # right orders: verticals first, then the diagonal is maximal
    order = QuasiStationary(default=(RIGHT,))
    # all-vertical path sitting at the top vertical edge of each level
    path = ExplicitPath(1, ((VERTICAL, 4), (VERTICAL, 1)))
    out = successor(SPEC, order, path)
    # x_0 advances into the diagonal edge from (0, 2); prefix empty
    assert out.start == 2
    assert out.edges == ((DIAGONAL, 0), (VERTICAL, 1))

    # diagonal maximal at level 0 forces the carry into level 1, and the
    # prefix resets to the minimal (first-vertical) path
    path = ExplicitPath(2, ((DIAGONAL, 0), (VERTICAL, 1)))
    out = successor(SPEC, order, path)
    assert out.edges == ((VERTICAL, 1), (VERTICAL, 2))
    assert out.start == 1


def test_all_maximal_prefix():
    order = QuasiStationary(default=(RIGHT,))
    path = ExplicitPath(3, ((DIAGONAL, 0), (DIAGONAL, 0)))  # maximal everywhere
    assert isinstance(successor(SPEC, order, path), AllMaximalPrefix)


def test_successor_injective_on_random_batches():
    rng = random.Random(23)
    order = QuasiStationary(default=(MIDDLE,))
    seen = {}
    for _ in range(400):
        depth = 4
        start = rng.randint(1, 4)
        edges, idx = [], start
        for l in range(depth):
            if idx > 1 and rng.random() < 0.3:
                edges.append((DIAGONAL, 0))
                idx -= 1
            else:
                edges.append((VERTICAL, rng.randint(1, SPEC.vertical_edges(l, idx))))
        path = ExplicitPath(start, tuple(edges))
        out = successor(SPEC, order, path)
        if isinstance(out, AllMaximalPrefix):
            continue
        key = (out.start, out.edges)
        assert seen.get(key, path) == path  # distinct inputs, distinct outputs
        seen[key] = path


def test_successor_prefix_is_minimal():
    rng = random.Random(31)
    order = QuasiStationary(default=(MIDDLE,))
    for _ in range(100):
        start = rng.randint(1, 4)
        edges, idx = [], start
        for l in range(5):
            if idx > 1 and rng.random() < 0.35:
                edges.append((DIAGONAL, 0))
                idx -= 1
            else:
                edges.append((VERTICAL, rng.randint(1, SPEC.vertical_edges(l, idx))))
        path = ExplicitPath(start, tuple(edges))
        out = successor(SPEC, order, path)
        if isinstance(out, AllMaximalPrefix):
            continue
        # find the replaced level: everything below the advanced edge is minimal
        changed = [l for l in range(5) if out.edges[l] != path.edges[l]]
        top = max(changed) if changed else 0
        for l in range(top):
            vo = order_at(SPEC, order, l + 1, out.vertex_at(l + 1))
            assert out.edges[l] == vo.minimal


def test_minimal_path_into():
    order = QuasiStationary(default=(MIDDLE,))
    path = minimal_path_into(SPEC, order, 3, 2)
    assert len(path.edges) == 3
    assert path.vertex_at(3) == 2
    for l in range(3):
        vo = order_at(SPEC, order, l + 1, path.vertex_at(l + 1))
        assert path.edges[l] == vo.minimal


# -- orbits ------------------------------------------------------------------------


def test_orbit_zero_steps():
    order = QuasiStationary(default=(MIDDLE,))
    rep = orbit_frequencies(SPEC, order, vertical_path(SPEC, 1, 4), 0, [ExplicitPath(1, ((VERTICAL, 1),))])
    assert rep.entries[0].empirical == 0


def test_orbit_unreachable_cylinder_has_zero_frequency():
    order = QuasiStationary(default=(MIDDLE,))
    far = ExplicitPath(9, ((VERTICAL, 1),))
    rep = orbit_frequencies(SPEC, order, vertical_path(SPEC, 1, 6), 500, [far], window=Truncation(8, 30))
    assert rep.entries[0].empirical == 0


def test_orbit_that_leaves_the_window_is_refused():
    order, start, cyls = QuasiStationary(default=(MIDDLE,)), vertical_path(SPEC, 1, 3), [EndVertex(1, 1)]
    # the seventh path of this orbit runs through vertex 3: two diagonal edges, then a vertical one
    assert orbit_frequencies(SPEC, order, start, 6, cyls, window=Truncation(4, 2)).steps_done == 6
    with pytest.raises(DiagramError, match="orbit left the certified window"):
        orbit_frequencies(SPEC, order, start, 7, cyls, window=Truncation(4, 2))
    assert orbit_frequencies(SPEC, order, start, 7, cyls, window=Truncation(4, 3)).steps_done == 7


def test_orbit_matches_measure_roughly():
    order = QuasiStationary(default=(MIDDLE,))
    measure = extend_odometer(SPEC, 1).normalize()
    cyls = [ExplicitPath(1, ((VERTICAL, k),)) for k in range(1, 5)]
    cyls.append(ExplicitPath(2, ((DIAGONAL, 0),)))
    rep = orbit_frequencies(
        SPEC, order, vertical_path(SPEC, 1, 14), 20000, cyls, measure=measure, window=Truncation(16, 40)
    )
    assert not rep.aborted
    for e in rep.entries:
        assert e.theoretical is not None
        assert abs(float(e.empirical) - float(e.theoretical)) < 0.03
    # every exact measure kind gives its theoretical values by cylinder_value; a value that is
    # not exact (odometer 2's extension is infinite) leaves the entry None
    window = Truncation(6, 8)
    kinds = {
        "odometer": OdometerMeasure(SPEC, 1),
        "eigen": eigen_measure(SPEC, eigenvector(SPEC, 1), window),
        "extended": extend_odometer(SPEC, 1),
        "vectors": eigen_measure(SPEC, eigenvector(SPEC, 1), window).measure_vectors(window),
    }
    cyls += [EndVertex(0, 1), EndVertex(2, 1), EndVertex(1, 2)]
    # an EndVertex is read at the path the orbit counts for it, the order-minimal path into it: under
    # left orders the one into (2, 1) starts at vertex 3, where the odometer-1 measure reads 0
    for tags in ((MIDDLE,), (LEFT,)):
        order = QuasiStationary(default=tags)
        read = [minimal_path_into(SPEC, order, c.length, c.index) if isinstance(c, EndVertex) else c for c in cyls]
        for name, measure in kinds.items():
            rep = orbit_frequencies(SPEC, order, vertical_path(SPEC, 1, 4), 40, cyls, measure=measure)
            assert [e.theoretical for e in rep.entries] == [measure.cylinder_value(c) for c in read], (tags, name)
    rep = orbit_frequencies(SPEC, order, vertical_path(SPEC, 1, 3), 200, [EndVertex(2, 1)], OdometerMeasure(SPEC, 1))
    assert (rep.entries[0].empirical, rep.entries[0].theoretical) == (Fraction(3, 88), 0)
    order = QuasiStationary(default=(MIDDLE,))
    infinite = extend_odometer(SPEC, 2)
    rep = orbit_frequencies(SPEC, order, vertical_path(SPEC, 1, 4), 40, [EndVertex(0, 3)], measure=infinite)
    assert rep.entries[0].theoretical is None


@pytest.mark.parametrize("spec", [SPEC, StationaryDecreasing(Table((5, 3), Constant(2)))], ids=["ak", "decreasing"])
@pytest.mark.parametrize(
    "tags, exception",
    [
        ((LEFT,), None),
        ((RIGHT,), None),
        ((MIDDLE,), None),
        ((LEFT, RIGHT), None),
        ((LEFT,), RIGHT),  # a tag exception at (3, 2)
        ((MIDDLE,), "reversed"),  # a non-canonical order at (2, 1)
    ],
    ids=["left", "right", "middle", "left-right", "left-with-right-at-3-2", "middle-reversed-at-2-1"],
)
def test_tower_orbit_counts_match_telescoped_path_counts(spec, tags, exception):
    if exception is None:
        exceptions = ()
    elif exception == RIGHT:
        exceptions = (((3, 2), RIGHT),)
    else:
        # the canonical middle order at (2, 1) reversed: a middle order no tag names
        exceptions = (((2, 1), VertexOrder(canonical_order(MIDDLE, spec.vertical_edges(1, 1)).sequence[::-1])),)
    order = QuasiStationary(default=tags, exceptions=exceptions)
    for top in range(1, 6):
        for v in (1, 2):
            window = Truncation(top, v + top + 2)
            paths_into = heights(spec, top, window).value(v)
            cyls = [EndVertex(m, j) for m in range(1, top) for j in range(v, v + top - m + 2)]
            start = minimal_path_into(spec, order, top, v)
            rep = orbit_frequencies(spec, order, start, paths_into + 1, cyls)
            # every path into (top, v) once, then the maximal one has no successor
            assert rep.steps_done == paths_into and rep.aborted
            for entry in rep.entries:
                m, j = entry.cylinder.length, entry.cylinder.index
                counts = {(row, col): c for row, col, c in telescope(spec, [0, m, top], window).levels[1]}
                assert entry.empirical * paths_into == counts.get((v, j), 0)


# -- differential: the successor written out level by level ------------------------


def _reference_order_at(spec, order, n, i):
    """A fresh ``VertexOrder`` for vertex (n, i), spelled out from its tag."""
    e = dict(order.exceptions).get((n, i), order.tag_of(i))
    if isinstance(e, VertexOrder):
        return VertexOrder(tuple(e.sequence))
    verticals = [(VERTICAL, k) for k in range(1, spec.vertical_edges(n - 1, i) + 1)]
    f = (DIAGONAL, 0)
    return VertexOrder(tuple({LEFT: [f] + verticals, RIGHT: verticals + [f], MIDDLE: verticals[:1] + [f] + verticals[1:]}[e]))


def _reference_minimal_path_into(spec, order, level, index):
    edges, cur = [], index
    for l in range(level, 0, -1):
        e = _reference_order_at(spec, order, l, cur).minimal
        edges.append(e)
        if e[0] == DIAGONAL:
            cur += 1
    return ExplicitPath(cur, tuple(reversed(edges)))


def _reference_successor(spec, order, path):
    """The successor with ``vertex_at`` and a fresh order at every level it inspects."""
    for m in range(len(path.edges)):
        w = path.vertex_at(m + 1)
        nxt = _reference_order_at(spec, order, m + 1, w).successor_of(path.edges[m])
        if nxt is None:
            continue
        prefix = _reference_minimal_path_into(spec, order, m, w if nxt[0] == VERTICAL else w + 1)
        return ExplicitPath(prefix.start, prefix.edges + (nxt,) + path.edges[m + 1 :])
    return AllMaximalPrefix()


def _reference_orbit(spec, order, start, steps, cylinders):
    """Counts, steps done and abort flag, comparing every cylinder's slice on every step."""
    paths = [
        _reference_minimal_path_into(spec, order, c.length, c.index) if isinstance(c, EndVertex) else c
        for c in cylinders
    ]
    counts, current, done = [0] * len(paths), start, 0
    for _ in range(steps):
        for idx, p in enumerate(paths):
            if current.start == p.start and current.edges[: len(p.edges)] == p.edges:
                counts[idx] += 1
        done += 1
        current = _reference_successor(spec, order, current)
        if isinstance(current, AllMaximalPrefix):
            return counts, done, True
    return counts, done, False


def _random_path(rng, spec, order, depth):
    """A valid path of ``depth`` edges, often taking the maximal edge so carries run deep."""
    start = rng.randint(1, 3 + depth // 3)
    edges, idx = [], start
    for l in range(depth):
        top = _reference_order_at(spec, order, l + 1, idx).maximal
        if top[0] == VERTICAL and rng.random() < 0.6:
            edges.append(top)
        elif idx > 1 and rng.random() < 0.3:
            edges.append((DIAGONAL, 0))
            idx -= 1
        else:
            edges.append((VERTICAL, rng.randint(1, spec.vertical_edges(l, idx))))
    return ExplicitPath(start, tuple(edges))


DIFF_SPECS = {
    "ak": SPEC,
    "decreasing": StationaryDecreasing(Table((5, 3), Constant(2))),
    "general-chain": GeneralChain(((0, 1, 3), (1, 2, 5), (2, 1, 4), (4, 3, 3)), default=2),
}


def _shuffled_order(spec, n, i, seed):
    sequence = list(canonical_order(LEFT, spec.vertical_edges(n - 1, i)).sequence)
    random.Random(seed).shuffle(sequence)
    return VertexOrder(tuple(sequence))


DIFF_ORDERS = {
    "left": lambda spec: QuasiStationary(default=(LEFT,)),
    "right": lambda spec: QuasiStationary(default=(RIGHT,)),
    "middle": lambda spec: QuasiStationary(default=(MIDDLE,)),
    "left-right": lambda spec: QuasiStationary(default=(LEFT, RIGHT)),
    "tag-exceptions": lambda spec: QuasiStationary(
        ((2, MIDDLE),), default=(LEFT, RIGHT), exceptions=(((3, 2), RIGHT), ((1, 1), MIDDLE), ((6, 3), LEFT))
    ),
    "order-exceptions": lambda spec: QuasiStationary(
        default=(RIGHT,),
        exceptions=tuple(((n, i), _shuffled_order(spec, n, i, 7 * n + i)) for n, i in ((1, 1), (2, 1), (3, 2), (5, 3))),
    ),
}


@pytest.mark.parametrize("order_name", list(DIFF_ORDERS))
@pytest.mark.parametrize("spec_name", list(DIFF_SPECS))
def test_successor_matches_the_level_by_level_reference(spec_name, order_name):
    spec = DIFF_SPECS[spec_name]
    order = DIFF_ORDERS[order_name](spec)
    rng = random.Random(f"{spec_name}/{order_name}")
    for trial in range(60):
        path = _random_path(rng, spec, order, 1 + trial % 64 if trial < 40 else rng.randint(1, 64))
        for _ in range(8):  # a few steps along the orbit, each compared from the same input
            got, want = successor(spec, order, path), _reference_successor(spec, order, path)
            if isinstance(want, AllMaximalPrefix):
                assert isinstance(got, AllMaximalPrefix)
                break
            assert got == want
            path = got
    for level in range(0, 9):
        for index in (1, 2, 3, 5):
            assert minimal_path_into(spec, order, level, index) == _reference_minimal_path_into(spec, order, level, index)


def _path_of_minimal_depth(rng, spec, order, length, depth):
    """A path of ``length`` edges whose first ``depth`` edges are minimal at
    their vertex and whose next edge, if any, is not: built from the top down."""
    top, w = [], rng.randint(1, 4)
    for n in range(length, depth, -1):  # the edge into (n, w) comes from level n - 1
        sequence = _reference_order_at(spec, order, n, w).sequence
        e = rng.choice(sequence[1:] if n == depth + 1 else sequence)
        top.append(e)
        if e[0] == DIAGONAL:
            w += 1
    prefix = _reference_minimal_path_into(spec, order, depth, w)
    return ExplicitPath(prefix.start, prefix.edges + tuple(reversed(top)))


def _reference_minimal_depth(spec, order, path):
    for m in range(len(path.edges)):
        if path.edges[m] != _reference_order_at(spec, order, m + 1, path.vertex_at(m + 1)).minimal:
            return m
    return len(path.edges)


def _assert_orbit_matches_reference(spec, order, start, steps, cylinders):
    rep = orbit_frequencies(spec, order, start, steps, cylinders)
    counts, done, aborted = _reference_orbit(spec, order, start, steps, cylinders)
    assert (rep.steps_done, rep.aborted) == (done, aborted)
    assert [e.cylinder for e in rep.entries] == cylinders
    assert [e.empirical for e in rep.entries] == [Fraction(c, done) for c in counts]
    return counts


@pytest.mark.parametrize("order_name", list(DIFF_ORDERS))
@pytest.mark.parametrize("spec_name", list(DIFF_SPECS))
def test_orbit_counts_match_a_slice_per_cylinder(spec_name, order_name):
    spec = DIFF_SPECS[spec_name]
    order = DIFF_ORDERS[order_name](spec)
    rng = random.Random(f"orbit/{spec_name}/{order_name}")
    starts = [(vertical_path(spec, 1, 7), 300), (minimal_path_into(spec, order, 4, 2), 400)]
    # starts whose minimal depth is each of 0..L: counting at the carry level
    # must read the start's own cylinders from that depth
    for length in (3, 6):
        for depth in range(length + 1):
            path = _path_of_minimal_depth(rng, spec, order, length, depth)
            assert _reference_minimal_depth(spec, order, path) == depth
            starts.append((path, 60))
    for start, steps in starts:
        length = len(start.edges)
        mixed = [EndVertex(2, 1), EndVertex(0, 1), EndVertex(1, 2), EndVertex(3, 2), ExplicitPath(1, ((VERTICAL, 1),))]
        mixed.append(_reference_minimal_path_into(spec, order, 2, 1))  # the same key as EndVertex(2, 1)
        mixed += [_random_path(rng, spec, order, rng.randint(0, 3)) for _ in range(6)]
        mixed += [EndVertex(m, start.vertex_at(m)) for m in range(length + 1)]  # along the start
        beyond = [EndVertex(length + 1, 1), EndVertex(length + 3, start.start)]  # longer than every path
        mixed += beyond + [mixed[0], mixed[4], mixed[-1]]  # duplicates each count
        counts = _assert_orbit_matches_reference(spec, order, start, steps, mixed)
        assert any(counts)
        assert [counts[mixed.index(c)] for c in beyond] == [0, 0]


@pytest.mark.parametrize("spec_name", list(DIFF_SPECS))
def test_orbits_under_different_orders_back_to_back(spec_name):
    """Tables live for one call: an orbit under one order leaves nothing for the next."""
    spec = DIFF_SPECS[spec_name]
    rng = random.Random(f"back-to-back/{spec_name}")
    cyls = [EndVertex(m, j) for m in range(4) for j in (1, 2, 3)]
    cyls += [_random_path(rng, spec, DIFF_ORDERS["left"](spec), rng.randint(1, 3)) for _ in range(4)]
    start = vertical_path(spec, 2, 6)
    for order_name in ("left", "right", "order-exceptions", "left", "tag-exceptions", "right"):
        _assert_orbit_matches_reference(spec, DIFF_ORDERS[order_name](spec), start, 150, cyls)


# -- differential: the walker's path in place against public successor calls -------


def _seeded_chains(rng):
    """Three ak chains and two decreasing tables with a constant tail of 2."""
    chains = []
    for _ in range(3):
        a = rng.randint(3, 6)
        chains.append(StationaryAK(a, rng.randint(1, a - 1)))
    for _ in range(2):
        head = sorted(rng.sample(range(3, 9), rng.randint(1, 3)), reverse=True)
        chains.append(StationaryDecreasing(Table(tuple(head), Constant(2))))
    return chains


def _seeded_orders(rng, spec):
    """Alternating defaults, and right or left defaults with shuffled orders at a few vertices."""
    vertices = {(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(4)}
    shuffled = tuple(((n, i), _shuffled_order(spec, n, i, rng.random())) for n, i in sorted(vertices))
    return {
        "left-right": QuasiStationary(default=(LEFT, RIGHT)),
        "right-left": QuasiStationary(default=(RIGHT, LEFT)),
        "right-exceptions": QuasiStationary(default=(RIGHT,), exceptions=shuffled),
        "left-exceptions": QuasiStationary(((2, RIGHT),), default=(LEFT,), exceptions=shuffled),
    }


def _walked_path(walk):
    return ExplicitPath(walk.verts[0], tuple(walk.edges))


@pytest.mark.parametrize("seed", range(4))
def test_the_walker_advances_its_path_as_public_successor_calls_do(seed):
    rng = random.Random(f"walker/{seed}")
    for spec in _seeded_chains(rng):
        for name, order in _seeded_orders(rng, spec).items():
            starts = [vertical_path(spec, rng.randint(1, 3), rng.randint(0, 7)), minimal_path_into(spec, order, 3, 1)]
            starts += [_random_path(rng, spec, order, rng.randint(1, 9)) for _ in range(4)]
            for start in starts:
                walk, want = _Walk(spec, order, start), start
                assert walk.minimal_depth() == _reference_minimal_depth(spec, order, start)
                for _ in range(80):
                    nxt = successor(spec, order, want)
                    carry = walk.advance()
                    got = _walked_path(walk)
                    if isinstance(nxt, AllMaximalPrefix):
                        # the walker reports the abort and keeps its path
                        assert carry is None and got == want, (spec, name)
                        break
                    assert got == nxt, (spec, name, want)
                    got.validate(spec)
                    assert walk.verts == [nxt.vertex_at(l) for l in range(len(nxt.edges) + 1)]
                    # below the carry level the new path is minimal, at it the advanced edge is not
                    assert carry == _reference_minimal_depth(spec, order, nxt) == walk.minimal_depth()
                    want = nxt


@pytest.mark.parametrize("seed", range(4))
def test_seeded_orbit_counts_match_a_reference_tally(seed):
    rng = random.Random(f"walker-counts/{seed}")
    for spec in _seeded_chains(rng):
        for order in _seeded_orders(rng, spec).values():
            start = _random_path(rng, spec, order, rng.randint(2, 6))
            cyls = [EndVertex(m, j) for m in range(4) for j in (1, 2, 3, 4)]
            cyls += [_random_path(rng, spec, order, rng.randint(0, 3)) for _ in range(5)]
            cyls += [_reference_minimal_path_into(spec, order, 2, 2), EndVertex(len(start.edges) + 2, 1)]
            _assert_orbit_matches_reference(spec, order, start, 120, cyls)
            # the whole tower into (3, 1), then the all-maximal path has no successor
            tower = minimal_path_into(spec, order, 3, 1)
            _assert_orbit_matches_reference(spec, order, tower, heights(spec, 3, Truncation(3, 6)).value(1) + 5, cyls)
            zero = orbit_frequencies(spec, order, start, 0, cyls)
            assert (zero.steps_done, zero.aborted) == (0, False)
            assert all(e.empirical == 0 for e in zero.entries)


WINDOW_SPECS = {
    "ak(4,2)": StationaryAK(4, 2),
    "ak(6,2)": StationaryAK(6, 2),
    "decreasing(5,3;2)": StationaryDecreasing(Table((5, 3), Constant(2))),
    "decreasing(6,4,3;2)": StationaryDecreasing(Table((6, 4, 3), Constant(2))),
}
WINDOW_ORDERS = {name: DIFF_ORDERS[name] for name in ("left", "right", "left-right", "order-exceptions")}
# steps an orbit completes before it leaves its window, from the vertical path
# into (5, 1) under Truncation(5, 2) and into (6, 2) under Truncation(6, 3),
# as the step that built one ExplicitPath per step counted them
WINDOW_STEPS = {
    ("ak(4,2)", "left"): (19, 5),
    ("ak(4,2)", "right"): (22, 8),
    ("ak(4,2)", "left-right"): (21, 6),
    ("ak(4,2)", "order-exceptions"): (18, 8),
    ("ak(6,2)", "left"): (41, 19),
    ("ak(6,2)", "right"): (46, 24),
    ("ak(6,2)", "left-right"): (45, 20),
    ("ak(6,2)", "order-exceptions"): (40, 24),
    ("decreasing(5,3;2)", "left"): (29, 11),
    ("decreasing(5,3;2)", "right"): (33, 14),
    ("decreasing(5,3;2)", "left-right"): (32, 12),
    ("decreasing(5,3;2)", "order-exceptions"): (28, 14),
    ("decreasing(6,4,3;2)", "left"): (41, 19),
    ("decreasing(6,4,3;2)", "right"): (46, 23),
    ("decreasing(6,4,3;2)", "left-right"): (45, 20),
    ("decreasing(6,4,3;2)", "order-exceptions"): (40, 23),
}


@pytest.mark.parametrize("spec_name, order_name", list(WINDOW_STEPS))
def test_an_orbit_leaves_its_window_after_the_same_steps(spec_name, order_name):
    spec = WINDOW_SPECS[spec_name]
    order = WINDOW_ORDERS[order_name](spec)
    cyls = [EndVertex(1, 1), EndVertex(2, 2)]
    for (i, depth, max_vertex), steps in zip(((1, 5, 2), (2, 6, 3)), WINDOW_STEPS[spec_name, order_name]):
        start, window = vertical_path(spec, i, depth), Truncation(depth, max_vertex)
        assert orbit_frequencies(spec, order, start, steps, cyls, window=window).steps_done == steps
        with pytest.raises(DiagramError, match="orbit left the certified window"):
            orbit_frequencies(spec, order, start, steps + 1, cyls, window=window)


# -- lookups against a scan of the sorted fields ------------------------------------


def _scanned_order_at(spec, order, n, i):
    """``order_at`` by a linear scan of the order's sorted ``exceptions`` and ``tags``."""
    found = None
    for at, e in order.exceptions:
        if at == (n, i):
            found = e
    if found is None:
        for j, t in order.tags:
            if j == i:
                found = t
    if found is None and order.default is not None:
        found = order.default[(i - 1) % len(order.default)]
    a = spec.vertical_edges(n - 1, i)
    if found is None or isinstance(found, VertexOrder) and len(found.sequence) != a + 1:
        return None  # order_at refuses the vertex
    return canonical_order(found, a) if isinstance(found, str) else found


def _random_order(rng, spec):
    tags = {rng.randint(1, 8): rng.choice(TAGS) for _ in range(rng.randint(0, 4))}
    default = None if rng.random() < 0.2 else tuple(rng.choice(TAGS) for _ in range(rng.randint(1, 3)))
    exceptions = {}
    for _ in range(rng.randint(0, 5)):
        n, i = rng.randint(1, 6), rng.randint(1, 8)
        kind = rng.random()
        if kind < 0.5:
            exceptions[n, i] = rng.choice(TAGS)
        elif kind < 0.9:
            exceptions[n, i] = _shuffled_order(spec, n, i, rng.random())
        else:  # an order of another size, which order_at refuses
            exceptions[n, i] = canonical_order(rng.choice(TAGS), spec.vertical_edges(n - 1, i) + 1)
    return QuasiStationary(tuple(tags.items()), default, tuple(exceptions.items()))


@pytest.mark.parametrize("spec_name", list(DIFF_SPECS))
def test_order_lookups_match_a_scan_on_a_seeded_corpus(spec_name):
    spec = DIFF_SPECS[spec_name]
    rng = random.Random(f"lookups/{spec_name}")
    for _ in range(150):
        order = _random_order(rng, spec)
        # the lookups sit outside the fields: equality, hash and repr read the fields only
        twin = QuasiStationary(order.tags[::-1], order.default, order.exceptions[::-1])
        assert order == twin and hash(order) == hash(twin) and repr(order) == repr(twin)
        assert repr(order).startswith(f"QuasiStationary(tags={order.tags!r}, default={order.default!r}, exceptions=")
        for n in range(1, 7):
            for i in range(1, 9):
                want = _scanned_order_at(spec, order, n, i)
                if want is None:
                    with pytest.raises(DiagramError):
                        order_at(spec, order, n, i)
                else:
                    assert order_at(spec, order, n, i) == want
        # classification and the verdict read eventual tags only, so no exception trips them
        for i in range(1, 11):
            classify_odometer(spec, order, i)
        if order.default is None:
            with pytest.raises(DiagramError, match="undecidable"):
                extension_verdict(spec, order)
        else:
            verdict = extension_verdict(spec, order, 10)
            assert verdict.fr_witness == tuple(i for i in range(1, 11) if classify_odometer(spec, order, i).finite_right)
