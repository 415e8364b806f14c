"""Sequence generators: values, JSON round trips, tail analysis."""

import pytest

from bratteli.diagram import NonStationaryUniform
from bratteli.extension import closed_form_oracles
from bratteli.sequences import (
    Arithmetic,
    Constant,
    Geometric,
    Polynomial,
    SequenceError,
    Table,
    seq_from_json,
    seq_from_text,
)


def test_values():
    assert [Constant(2).value(n) for n in range(4)] == [2, 2, 2, 2]
    assert [Arithmetic(2, 1).value(n) for n in range(4)] == [2, 3, 4, 5]
    assert [Geometric(2, 2).value(n) for n in range(4)] == [2, 4, 8, 16]
    assert [Polynomial((4, 4, 1)).value(n) for n in range(4)] == [4, 9, 16, 25]
    assert [Table((5, 3), Constant(2)).value(n) for n in range(5)] == [5, 3, 2, 2, 2]


def test_table_without_tail_is_limited():
    t = Table((5, 3))
    assert t.value(1) == 3
    with pytest.raises(SequenceError):
        t.value(2)
    assert t.reciprocal_sum_finite() is None


@pytest.mark.parametrize(
    "seq",
    [
        Constant(7),
        Arithmetic(3, 2),
        Geometric(2, 3),
        Polynomial((4, 4, 1)),
        Table((5, 3), Constant(2)),
        Table((9,), Geometric(2, 2)),
    ],
)
def test_json_round_trip(seq):
    assert seq_from_json(seq.to_json()) == seq


def test_text_grammar():
    assert seq_from_text("constant:2") == Constant(2)
    assert seq_from_text("arithmetic:2,1") == Arithmetic(2, 1)
    assert seq_from_text("geometric:2,2") == Geometric(2, 2)
    assert seq_from_text("poly:4,4,1") == Polynomial((4, 4, 1))
    assert seq_from_text("table:5,3:constant:2") == Table((5, 3), Constant(2))


def test_constant_from():
    assert Constant(2).constant_from() == (0, 2)
    assert Table((5, 3), Constant(2)).constant_from() == (2, 2)
    # trailing table entries equal to the tail constant are absorbed
    assert Table((5, 2, 2), Constant(2)).constant_from() == (1, 2)
    assert Arithmetic(2, 1).constant_from() is None


def test_reciprocal_sum_verdicts():
    assert Constant(2).reciprocal_sum_finite() is False
    assert Arithmetic(2, 1).reciprocal_sum_finite() is False
    assert Geometric(2, 2).reciprocal_sum_finite() is True
    assert Polynomial((4, 4, 1)).reciprocal_sum_finite() is True
    assert Polynomial((2, 1)).reciprocal_sum_finite() is False
    assert Table((9, 9), Geometric(2, 2)).reciprocal_sum_finite() is True


def test_decreasing_arithmetic_has_no_reciprocal_verdict():
    # a_n = 40 - 3n reaches 1 at n = 13: no valid chain, so no verdict either way
    assert Arithmetic(40, -3).reciprocal_sum_finite() is None
    assert Table((5, 7), Arithmetic(40, -3)).reciprocal_sum_finite() is None
    assert Arithmetic(3, 0).reciprocal_sum_finite() is False
    assert closed_form_oracles(NonStationaryUniform(Arithmetic(40, -3))) is None


def test_invalid_sequences():
    with pytest.raises(SequenceError):
        Geometric(0, 2)
    with pytest.raises(SequenceError):
        Polynomial((3, -1))  # negative leading coefficient
    with pytest.raises(SequenceError):
        Table(())


@pytest.mark.parametrize("bad", [2.5, 3.0, "3", True])
def test_sequence_values_must_be_ints(bad):
    # a JSON number or string is never rounded or parsed into a sequence value
    for build in (
        lambda: Constant(bad),
        lambda: Arithmetic(bad, 1),
        lambda: Arithmetic(2, bad),
        lambda: Geometric(bad, 2),
        lambda: Geometric(2, bad),
        lambda: Polynomial((4, bad, 1)),
        lambda: Table((5, bad)),
        lambda: seq_from_json({"kind": "table", "values": [5, bad], "tail": {"kind": "constant", "value": 2}}),
        lambda: seq_from_json({"kind": "table", "values": [5, 3], "tail": {"kind": "constant", "value": bad}}),
        lambda: seq_from_json({"kind": "geometric", "base": bad, "ratio": 2}),
        lambda: seq_from_json({"kind": "arithmetic", "start": 2, "step": bad}),
        lambda: seq_from_json({"kind": "polynomial", "coeffs": [bad, 1]}),
    ):
        with pytest.raises(SequenceError, match="is not an int"):
            build()
