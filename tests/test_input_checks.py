"""Input checks across the layers: each bad input raises its own error type and message."""

from fractions import Fraction

import pytest

from bratteli.diagram import (
    DiagramError,
    ExplicitFinite,
    ExplicitLevels,
    GeneralChain,
    NonStationaryUniform,
    StationaryAK,
    StationaryIncreasing,
    Truncation,
    VertexId,
    WindowError,
    count_paths_bruteforce,
    diagram_from_json,
    heights,
)
from bratteli.extension import (
    classify_ergodic_measures,
    closed_form_oracles,
    extended_cylinder_measure,
    mass_series_terms,
    odometer_extension_mass,
)
from bratteli.finite_stationary import measures_finite_stationary, spectral_radius
from bratteli.measure import EndVertex, ExplicitPath, MeasureVectors, OdometerMeasure
from bratteli.orders import (
    QuasiStationary,
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
from bratteli.sequences import Constant, Geometric, SequenceError, Table, seq_from_json, seq_from_text
from bratteli.spectral import EigenError, EigenPair, compare_eigen_vs_extension, eigen_measure, eigenvector

AK42 = StationaryAK(4, 2)
FINITE = ExplicitFinite([[2, 1], [0, 2]])
ONE_ROW = ExplicitLevels([[(2, 1, 1)]])  # level 0 describes vertex 2 only
ONES = EigenPair(Fraction(2), lambda i: Fraction(1))
OFF_AK42 = ExplicitPath(1, (("v", 1), ("v", 9)))  # ak(4,2) has 4 vertical edges into (2, 1)

# case -> (the call, the error type it raises, its message)
CASES = {
    # diagram
    "vertex-index-0": (lambda: VertexId(0, 0), DiagramError, "vertex index must be >= 1"),
    # a float level once sent the brute-force count into unbounded recursion
    "vertex-level-a-float": (lambda: VertexId(1.5, 1), DiagramError, "vertex level and index: 1.5 is not an int"),
    "vertex-index-a-bool": (lambda: VertexId(1, True), DiagramError, "vertex level and index: True is not an int"),
    # a vertex index below 1 would read the base table from its end
    "vertical-edges-vertex-0": (lambda: AK42.vertical_edges(0, 0), DiagramError, "vertex index must be >= 1, not 0"),
    "vertical-edges-vertex-negative": (
        lambda: AK42.vertical_edges(0, -1), DiagramError, "vertex index must be >= 1, not -1"
    ),
    "multiplicities-from-vertex-0": (
        lambda: AK42.multiplicities(0, 3, 0), DiagramError, "vertex index must be >= 1, not 0"
    ),
    "truncation-one-vertex": (lambda: Truncation(1, 1), DiagramError, "truncation needs max_vertex >= 2"),
    "general-chain-default-1": (lambda: GeneralChain((), 1), DiagramError, "default multiplicity must be >= 2"),
    "finite-negative-entry": (
        lambda: ExplicitFinite([[1, -1], [1, 1]]), DiagramError, "matrix entries must be nonnegative"
    ),
    "unknown-family": (lambda: diagram_from_json({"family": "nope"}), DiagramError, "unknown diagram family: 'nope'"),
    "heights-past-window": (
        lambda: heights(AK42, 5, Truncation(3, 4)), WindowError, "level 5 outside window (max_level=3)"
    ),
    "heights-window-too-small": (
        lambda: heights(ONE_ROW, 1, Truncation(1, 2)),
        WindowError,
        "window too small to certify any height at level 1",
    ),
    "bruteforce-past-window": (
        lambda: count_paths_bruteforce(AK42, VertexId(4, 1), Truncation(3, 4)), WindowError, "target outside window"
    ),
    "bruteforce-unknown-row": (
        lambda: count_paths_bruteforce(ONE_ROW, VertexId(1, 1), Truncation(1, 2)),
        WindowError,
        "incidence row for vertex 1 at level 0 unknown",
    ),
    # extension
    "mass-not-a-chain": (
        lambda: odometer_extension_mass(FINITE, 1),
        DiagramError,
        "extension mass of an odometer requires an odometer chain",
    ),
    "mass-odometer-0": (lambda: odometer_extension_mass(AK42, 0), DiagramError, "odometer index must be >= 1, not 0"),
    "mass-max-terms-1": (lambda: odometer_extension_mass(AK42, 1, 1), DiagramError, "max_terms must be at least 2"),
    "cylinder-not-a-chain": (
        lambda: extended_cylinder_measure(FINITE, 1, EndVertex(0, 1)),
        DiagramError,
        "an extended cylinder value requires an odometer chain",
    ),
    "cylinder-odometer-0": (
        lambda: extended_cylinder_measure(AK42, 0, EndVertex(0, 1)), DiagramError, "odometer index must be >= 1, not 0"
    ),
    # negative term budgets, on a level-indexed chain, a vertex-indexed one and one with no certificate
    "cylinder-max-terms-negative-level-chain": (
        lambda: extended_cylinder_measure(NonStationaryUniform(Geometric(2, 2)), 1, EndVertex(0, 3), -5),
        DiagramError,
        "max_terms must be >= 0, not -5",
    ),
    "cylinder-max-terms-negative-increasing": (
        lambda: extended_cylinder_measure(StationaryIncreasing(), 1, EndVertex(0, 3), -1),
        DiagramError,
        "max_terms must be >= 0, not -1",
    ),
    "cylinder-max-terms-negative-general-chain": (
        lambda: extended_cylinder_measure(GeneralChain(((0, 1, 5),)), 1, EndVertex(0, 3), -2),
        DiagramError,
        "max_terms must be >= 0, not -2",
    ),
    "classify-not-a-chain": (
        lambda: classify_ergodic_measures(FINITE, 2),
        DiagramError,
        "the odometer classification requires an odometer chain",
    ),
    # a classification of no odometers would claim to exhaust the measures among them
    "classify-i-max-0": (lambda: classify_ergodic_measures(AK42, 0), DiagramError, "i_max must be >= 1, not 0"),
    "classify-i-max-negative": (
        lambda: classify_ergodic_measures(AK42, -2), DiagramError, "i_max must be >= 1, not -2"
    ),
    "mass-terms-count-negative": (
        lambda: mass_series_terms(AK42, 1, -3), DiagramError, "term count must be >= 0, not -3"
    ),
    "mass-terms-not-a-chain": (
        lambda: mass_series_terms(FINITE, 1, 3), DiagramError, "the mass series requires an odometer chain"
    ),
    "mass-terms-odometer-0": (
        lambda: mass_series_terms(AK42, 0, 3), DiagramError, "odometer index must be >= 1, not 0"
    ),
    # the oracles have no verdict for other families, but one about no odometer is refused
    "closed-form-oracles-odometer-0": (
        lambda: closed_form_oracles(AK42, 0), DiagramError, "odometer index must be >= 1, not 0"
    ),
    "closed-form-oracles-odometer-negative": (
        lambda: closed_form_oracles(AK42, -3), DiagramError, "odometer index must be >= 1, not -3"
    ),
    # a slope tail that starts below 2 is refused even where the budget stops short of it
    "level-tail-below-2-before-the-budget-reaches-it": (
        lambda: odometer_extension_mass(NonStationaryUniform(Table((5, 7), Constant(0))), 1, 2),
        DiagramError,
        "level multiplicity a_2=0 must be >= 2",
    ),
    "level-tail-below-2-in-an-empty-prefix": (
        lambda: extended_cylinder_measure(NonStationaryUniform(Constant(1)), 1, EndVertex(0, 2), 0),
        DiagramError,
        "level multiplicity a_0=1 must be >= 2",
    ),
    # measure
    "path-start-0": (lambda: ExplicitPath(0, ()), DiagramError, "path start index must be >= 1"),
    "path-edge-kind": (lambda: ExplicitPath(1, (("z", 1),)), DiagramError, "unknown edge kind 'z'"),
    "path-start-a-float": (lambda: ExplicitPath(1.5, ()), DiagramError, "path start: 1.5 is not an int"),
    "path-start-a-bool": (lambda: ExplicitPath(True, ()), DiagramError, "path start: True is not an int"),
    # a list edge would make the path unhashable
    "path-edge-a-list": (
        lambda: ExplicitPath(1, (["v", 1], ["v", 1])), DiagramError, "path edge ['v', 1] is not a (kind, index) tuple"
    ),
    "path-edge-without-index": (
        lambda: ExplicitPath(1, (("v",),)), DiagramError, "path edge ('v',) is not a (kind, index) tuple"
    ),
    # a float index once passed as a path no diagram has
    "path-edge-index-a-float": (
        lambda: ExplicitPath(1, (("v", 1.5),)).validate(AK42),
        DiagramError,
        "edge index 1.5 is not an int at level 0, vertex 1",
    ),
    "path-edge-index-a-string": (
        lambda: ExplicitPath(1, (("v", "1"),)).validate(AK42),
        DiagramError,
        "edge index '1' is not an int at level 0, vertex 1",
    ),
    "cylinder-index-a-float": (
        lambda: EndVertex(2, 2.0), DiagramError, "cylinder length and index: 2.0 is not an int"
    ),
    "cylinder-length-a-float": (
        lambda: EndVertex(1.5, 2), DiagramError, "cylinder length and index: 1.5 is not an int"
    ),
    "vector-table-gap": (
        lambda: MeasureVectors.from_table({0: {1: 1}, 2: {1: 1}}),
        DiagramError,
        "measure vector table must cover levels 0..N contiguously",
    ),
    "path-diagonal-edge-not-0": (
        lambda: ExplicitPath(2, (("f", 5),)).validate(AK42), DiagramError, "diagonal edge 5 is not 0 at level 0, vertex 2"
    ),
    "path-not-in-a-chain": (
        lambda: ExplicitPath(1, ()).validate(FINITE), DiagramError, "an explicit path requires an odometer chain"
    ),
    "odometer-measure-not-a-chain": (
        lambda: OdometerMeasure(FINITE, 1), DiagramError, "an odometer measure requires an odometer chain"
    ),
    "odometer-measure-0": (lambda: OdometerMeasure(AK42, 0), DiagramError, "odometer index must be >= 1, not 0"),
    # orders
    "unknown-order-kind": (lambda: order_from_json({"kind": "x"}), DiagramError, "unknown order kind 'x'"),
    "order-at-level-0": (
        lambda: order_at(AK42, QuasiStationary(), 0, 1), DiagramError, "level-0 vertices have no incoming edges"
    ),
    "position-of-a-foreign-edge": (
        lambda: canonical_order("left", 2).successor_of(("v", 9)),
        DiagramError,
        "edge ('v', 9) is not incoming at this vertex",
    ),
    "successor-path-not-in-diagram": (
        lambda: successor(AK42, QuasiStationary(), OFF_AK42),
        DiagramError,
        "vertical edge 9 out of range 1..4 at level 1, vertex 1",
    ),
    "orbit-start-not-in-diagram": (
        lambda: orbit_frequencies(AK42, QuasiStationary(), OFF_AK42, 3, [EndVertex(1, 1)]),
        DiagramError,
        "vertical edge 9 out of range 1..4 at level 1, vertex 1",
    ),
    "orbit-cylinder-not-in-diagram": (
        lambda: orbit_frequencies(AK42, QuasiStationary(), ExplicitPath(1, ()), 3, [OFF_AK42]),
        DiagramError,
        "vertical edge 9 out of range 1..4 at level 1, vertex 1",
    ),
    "orbit-negative-steps": (
        lambda: orbit_frequencies(AK42, QuasiStationary(), ExplicitPath(1, ()), -1, []),
        DiagramError,
        "steps must be >= 0, not -1",
    ),
    "minimal-path-into-vertex-negative": (
        lambda: minimal_path_into(AK42, QuasiStationary(), 3, -1), DiagramError, "odometer index must be >= 1, not -1"
    ),
    "minimal-path-into-vertex-0-at-level-0": (
        lambda: minimal_path_into(AK42, QuasiStationary(), 0, 0), DiagramError, "odometer index must be >= 1, not 0"
    ),
    "minimal-path-into-level-negative": (
        lambda: minimal_path_into(AK42, QuasiStationary(default=("left",)), -2, 1),
        DiagramError,
        "level must be >= 0, not -2",
    ),
    "minimal-path-into-not-a-chain": (
        lambda: minimal_path_into(FINITE, QuasiStationary(default=("left",)), 2, 1),
        DiagramError,
        "a vertex order requires an odometer chain",
    ),
    # a level-0 walk reads no vertex order, so the chain is checked before it
    "minimal-path-into-not-a-chain-at-level-0": (
        lambda: minimal_path_into(FINITE, QuasiStationary(default=("left",)), 0, 5),
        DiagramError,
        "a vertex order requires an odometer chain",
    ),
    "order-at-not-a-chain": (
        lambda: order_at(FINITE, QuasiStationary(default=("left",)), 1, 1),
        DiagramError,
        "a vertex order requires an odometer chain",
    ),
    "order-at-odometer-0": (
        lambda: order_at(AK42, QuasiStationary(), 1, 0), DiagramError, "odometer index must be >= 1, not 0"
    ),
    "classify-odometer-not-a-chain": (
        lambda: classify_odometer(FINITE, QuasiStationary(), 1),
        DiagramError,
        "odometer classification requires an odometer chain",
    ),
    # index 0 would read the tag cycle from its end
    "classify-odometer-0": (
        lambda: classify_odometer(AK42, QuasiStationary(default=("left", "right")), 0),
        DiagramError,
        "odometer index must be >= 1, not 0",
    ),
    "extension-verdict-not-a-chain": (
        lambda: extension_verdict(FINITE, QuasiStationary()), DiagramError, "extension verdict requires an odometer chain"
    ),
    "vertical-path-depth-negative": (
        lambda: vertical_path(AK42, 1, -5), DiagramError, "depth must be >= 0, not -5"
    ),
    # an order with no vertical edge fits no odometer vertex, so no canonical order is stored for it
    "canonical-order-right-no-vertical-edge": (
        lambda: canonical_order("right", -1), DiagramError, "an order needs at least one vertical edge"
    ),
    "canonical-order-left-no-vertical-edge": (
        lambda: canonical_order("left", 0), DiagramError, "an order needs at least one vertical edge"
    ),
    "extension-verdict-i-max-0": (
        lambda: extension_verdict(AK42, QuasiStationary(default=("left",)), 0),
        DiagramError,
        "i_max must be >= 1, not 0",
    ),
    # sequences
    "unknown-sequence-kind": (lambda: seq_from_json({"kind": "x"}), SequenceError, "unknown sequence kind: 'x'"),
    "unparsable-sequence": (
        lambda: seq_from_text("bogus:1"), SequenceError, "cannot parse sequence text: 'bogus:1'"
    ),
    "polynomial-coeffs-a-number": (
        lambda: seq_from_json({"kind": "polynomial", "coeffs": 5}), SequenceError, "polynomial sequence coeffs: 5 is not a list"
    ),
    "polynomial-coeffs-a-string": (
        lambda: seq_from_json({"kind": "polynomial", "coeffs": "12"}),
        SequenceError,
        "polynomial sequence coeffs: '12' is not a list",
    ),
    "table-values-a-number": (
        lambda: seq_from_json({"kind": "table", "values": 5}), SequenceError, "table sequence values: 5 is not a list"
    ),
    "table-values-an-object": (
        lambda: seq_from_json({"kind": "table", "values": {"a": 1}}),
        SequenceError,
        "table sequence values: {'a': 1} is not a list",
    ),
    "table-tail-coeffs-a-number": (
        lambda: seq_from_json({"kind": "table", "values": [3], "tail": {"kind": "polynomial", "coeffs": 7}}),
        SequenceError,
        "polynomial sequence coeffs: 7 is not a list",
    ),
    # spectral
    "eigen-entry-0": (lambda: ONES.xi(0), EigenError, "eigenvector entries are indexed from 1"),
    "eigen-entry-negative": (
        lambda: EigenPair(Fraction(2), lambda i: Fraction(-1)).xi(1),
        EigenError,
        "eigenvector entries must be nonnegative",
    ),
    "eigen-scaled-by-0": (lambda: ONES.scaled(0), EigenError, "scaling factor must be positive"),
    # the zero vector verifies for every eigenvalue; its measure would divide by lam^m
    "eigen-measure-lam-0": (
        lambda: eigen_measure(AK42, EigenPair(Fraction(0), lambda i: Fraction(0)), Truncation(3, 3)),
        EigenError,
        "eigen measures need lam > 0, not 0",
    ),
    "eigen-measure-lam-negative": (
        lambda: eigen_measure(AK42, EigenPair(Fraction(-3, 2), lambda i: Fraction(0)), Truncation(3, 3)),
        EigenError,
        "eigen measures need lam > 0, not -3/2",
    ),
    # an empty grid compares nothing, but not about odometer 0
    "eigen-compare-odometer-0": (
        lambda: compare_eigen_vs_extension(AK42, 0, eigenvector(AK42, 1), []),
        DiagramError,
        "odometer index must be >= 1, not 0",
    ),
    "eigen-compare-not-a-chain": (
        lambda: compare_eigen_vs_extension(FINITE, 1, ONES, []), EigenError, "eigenpairs need a stationary odometer chain"
    ),
    # finite_stationary
    "radius-not-square": (lambda: spectral_radius([[1, 2]]), DiagramError, "block must be square and nonempty"),
    "radius-negative": (lambda: spectral_radius([[-1]]), DiagramError, "block entries must be nonnegative"),
    "radius-not-integer": (lambda: spectral_radius([[1.5]]), DiagramError, "block entry 1.5 is not an integer"),
    "radius-tol-0": (
        lambda: spectral_radius([[1]], tol=0), DiagramError, "tol must be a positive finite number, not 0"
    ),
    "finite-cylinder-level-0": (
        lambda: measures_finite_stationary([[2]])[0].cylinder_value(EndVertex(0, 1)),
        DiagramError,
        "cylinder level must be >= 1 on a standard diagram",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_each_input_check_raises_its_type_and_message(case):
    call, error, message = CASES[case]
    with pytest.raises(ValueError) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
