"""Value classes: immutable, compared and hashed by field, printed as ``Name(field=value, ...)``."""

import importlib
from fractions import Fraction

import pytest

import bratteli
from bratteli.diagram import DiagramError
from bratteli.sequences import SequenceError

F = Fraction
AK42 = bratteli.StationaryAK(4, 2)
RESULT = bratteli.ConvergenceResult("finite", F(1, 2), 3, F(0), None, "geometric-exact", F(1, 2))
ORDER = bratteli.VertexOrder((("f", 0), ("v", 1), ("v", 2)))
DATA = bratteli.DistinguishedData(0, (3.0, 3.0), (1.0, 0.0), frozenset({1}))


def _component(i):
    return F(1, 2 ** (i - 1))


# class name -> (its fields in order, sample arguments, arguments its validation rejects or None)
SAMPLES = {
    "VertexId": ("level index", (1, 2), (-1, 2)),
    "Truncation": ("max_level max_vertex", (3, 4), (0, 4)),
    "OdometerChain": (
        "base by_level exceptions family",
        (bratteli.Constant(3), False, ((0, 1, 4),), "general-chain"),
        (bratteli.Constant(2), False, ((0, 1, 1),)),
    ),
    "ExplicitFinite": ("a_matrix", (((3, 0), (1, 2)),), (((1, 0), (0, 0)),)),
    "ExplicitLevels": ("levels", ((((1, 1, 2),),),), ((((1, 1, -1),),),)),
    "LevelMatrix": ("level entries complete_rows max_vertex", (0, ((1, 1, 2),), frozenset({1}), 2), None),
    "HeightsVector": ("level values exact_width", (2, {1: 9}, 1), None),
    "IntSequence": ("", (), None),
    "Constant": ("c", (2,), None),
    "Arithmetic": ("start step", (2, 1), None),
    "Geometric": ("base ratio", (2, 2), (0, 2)),
    "Polynomial": ("coeffs", ((4, 4, 1),), ((0,),)),
    "Table": ("values tail", ((5, 3), bratteli.Constant(2)), ((),)),
    "EndVertex": ("length index", (1, 2), (-1, 2)),
    "ExplicitPath": ("start edges", (2, (("v", 1), ("f", 0))), (1, (("f", 0),))),
    "InvarianceReport": ("levels failures checked_rows", ({0: True}, (), 3), None),
    "OdometerMeasure": ("spec index", (AK42, 1), (AK42, 0)),
    "VertexOrder": ("sequence", ((("f", 0), ("v", 1), ("v", 2)),), ((("v", 1),),)),
    "QuasiStationary": (
        "tags default exceptions",
        (((1, "left"),), ("middle",), (((1, 1), "left"), ((2, 1), ORDER))),
        ((), ("up",)),
    ),
    "OdometerClass": ("finite_right finite_left note", (True, False, ""), None),
    "ExtensionVerdict": (
        "i_fr i_fl fr_witness fl_witness borel_extension homeomorphism",
        ("aleph0", 0, (1, 2), (), False, "no"),
        None,
    ),
    "OrbitEntry": ("cylinder empirical theoretical", (bratteli.EndVertex(1, 1), F(1, 2), None), None),
    "OrbitReport": ("entries steps_done aborted", ((), 10, False), None),
    "ConvergenceResult": (
        "status partial_sum terms_used tail_bound divergence_witness certificate exact_value",
        ("finite", F(1, 2), 3, F(0), None, "geometric-exact", F(1, 2)),
        None,
    ),
    "ExtendedMeasure": ("spec index total_mass normalized", (AK42, 1, RESULT, False), None),
    "ErgodicEntry": ("index mass normalizing_constant", (1, RESULT, F(1, 2)), None),
    "ErgodicClassification": ("entries partial notes", ((), False, ("note",)), None),
    "OracleVerdict": ("status mass criterion", ("finite", F(2), "mass = 1 + 1/(k-1)"), None),
    "EigenPair": ("lam component label", (F(4), _component, "ak"), None),
    "ResidualReport": ("residuals nonzero", ({1: F(0)}, ()), None),
    "EigenMeasure": ("spec pair", (AK42, bratteli.EigenPair(F(4), _component)), None),
    "CylinderComparison": (
        "cylinder eigen_value extension verdict", (bratteli.EndVertex(0, 1), F(1), RESULT, "equal-exact"), None
    ),
    "ComparisonReport": ("entries", ((),), None),
    "ClassDecomposition": ("matrix classes reduced_edges", (((3, 0), (1, 2)), ((1,), (2,)), ((1, 0),)), None),
    "DistinguishedData": ("class_index rho xi support", (0, (3.0, 3.0), (1.0, 0.0), frozenset({1})), None),
    "FiniteStationaryMeasure": ("data lam xi_normalized xi_raw", (DATA, 3.0, (1.0, 0.0), (1.0, 0.0)), None),
}

# chain spelling -> (sample arguments, arguments it rejects or None); each is checked as the
# OdometerChain it builds
CHAIN_SPELLINGS = {
    "StationaryAK": ((4, 2), (4, 4)),
    "StationaryDecreasing": ((bratteli.Table((5, 3), bratteli.Constant(2)),), None),
    "StationaryIncreasing": ((), None),
    "NonStationaryUniform": ((bratteli.Constant(2),), None),
    "GeneralChain": ((((0, 1, 3),), 2), (((0, 1, 1),), 2)),
}

# the fields that have defaults, with their values
DEFAULTS = {
    "OdometerChain": {"by_level": False, "exceptions": (), "family": None},
    "Table": {"tail": None},
    "QuasiStationary": {"tags": (), "default": ("middle",), "exceptions": ()},
    "OdometerClass": {"note": ""},
    "ConvergenceResult": {
        "tail_bound": None, "divergence_witness": None, "certificate": None, "exact_value": None
    },
    "ExtendedMeasure": {"normalized": False},
    "EigenPair": {"label": "eigenpair"},
}

# test id -> (object, its repr); a chain spelling prints as the OdometerChain it builds
REPRS = {
    "EndVertex": (bratteli.EndVertex(1, 2), "EndVertex(length=1, index=2)"),
    "StationaryAK": (
        bratteli.StationaryAK(4, 2),
        "OdometerChain(base=Table(values=(4,), tail=Constant(c=2)), by_level=False, exceptions=(), family='ak')",
    ),
    "StationaryIncreasing": (
        bratteli.StationaryIncreasing(),
        "OdometerChain(base=Arithmetic(start=2, step=1), by_level=False, exceptions=(), family='increasing')",
    ),
    "Truncation": (bratteli.Truncation(3, 4), "Truncation(max_level=3, max_vertex=4)"),
    "Table": (bratteli.Table((5, 3), bratteli.Constant(2)), "Table(values=(5, 3), tail=Constant(c=2))"),
    "GeneralChain": (
        bratteli.GeneralChain(((1, 2, 5), (0, 1, 3))),
        "OdometerChain(base=Constant(c=2), by_level=False, exceptions=((0, 1, 3), (1, 2, 5)), family='general-chain')",
    ),
    "ExplicitPath": (bratteli.ExplicitPath(2, (("v", 1), ("f", 0))), "ExplicitPath(start=2, edges=(('v', 1), ('f', 0)))"),
    "QuasiStationary": (
        bratteli.QuasiStationary(default=("left", "right")),
        "QuasiStationary(tags=(), default=('left', 'right'), exceptions=())",
    ),
    "ConvergenceResult": (
        RESULT,
        "ConvergenceResult(status='finite', partial_sum=Fraction(1, 2), terms_used=3, tail_bound=Fraction(0, 1), "
        "divergence_witness=None, certificate='geometric-exact', exact_value=Fraction(1, 2))",
    ),
}


def _layer_classes():
    out = {}
    for module in bratteli._EXPORTS:
        for name, obj in vars(importlib.import_module(f"bratteli.{module}")).items():
            if isinstance(obj, type) and obj.__module__ == f"bratteli.{module}":
                out[name] = obj
    return out


LAYER_CLASSES = _layer_classes()


def test_every_value_class_has_a_sample():
    assert {name for name, cls in LAYER_CLASSES.items() if "_fields" in vars(cls)} == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES) + sorted(CHAIN_SPELLINGS))
def test_value_class(name):
    if name in CHAIN_SPELLINGS:
        build, cls = getattr(bratteli, name), LAYER_CLASSES["OdometerChain"]
        spelling_args, invalid = CHAIN_SPELLINGS[name]
        fields = tuple(SAMPLES["OdometerChain"][0].split())
        built = build(*spelling_args)
        assert type(built) is cls and build(*spelling_args) == built
        args = tuple(getattr(built, f) for f in fields)
    else:
        build = cls = LAYER_CLASSES[name]
        fields, args, invalid = SAMPLES[name]
        fields = tuple(fields.split())
    obj, twin = cls(*args), cls(*args)

    # equal fields: equal objects with equal hashes; hashing fails only on an unhashable field
    assert obj == twin and not obj != twin
    values = tuple(getattr(obj, f) for f in fields)
    try:
        hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(twin) == hash(values)

    # another class with the same field values is a different value
    other = type("Other", (cls,), {})(*args)
    assert obj != other and other != obj
    assert obj != values

    # repr lists every field in order
    assert repr(obj) == f"{cls.__name__}(" + ", ".join(f"{f}={getattr(obj, f)!r}" for f in fields) + ")"

    # immutable
    for field in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert obj == twin

    # positional, keyword and default arguments bind alike
    assert cls(**dict(zip(fields, args))) == obj
    defaults = DEFAULTS.get(cls.__name__, {})
    assert cls(**{f: v for f, v in zip(fields, args) if f not in defaults or v != defaults[f]}) == obj
    required = [f for f in fields if f not in defaults]
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, not_a_field=1)
    if required:
        with pytest.raises(TypeError):
            cls(*args[: fields.index(required[-1])])

    # validation still runs on construction
    if invalid is not None:
        with pytest.raises(SequenceError if cls.__module__ == "bratteli.sequences" else DiagramError):
            build(*invalid)


@pytest.mark.parametrize("obj, text", list(REPRS.values()), ids=list(REPRS))
def test_repr_is_unchanged(obj, text):
    assert repr(obj) == text


def test_general_chain_table_is_not_a_field():
    a = bratteli.GeneralChain(((1, 2, 5), (0, 1, 3)))
    b = bratteli.GeneralChain(((0, 1, 3), (1, 2, 5)), 2)
    assert a._table == {(0, 1): 3, (1, 2): 5} and a.vertical_edges(1, 2) == 5
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "_table" not in repr(a)
    with pytest.raises(TypeError):
        bratteli.GeneralChain((), 2, {})
