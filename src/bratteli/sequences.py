"""Integer sequence generators with tail knowledge.

Diagram families are described by integer sequences (edge multiplicities per
level or per vertex).  Because convergence certification needs to know how a
sequence behaves *beyond* any finite prefix, sequences are closed-form
generators rather than bare arrays: constant, arithmetic, geometric,
polynomial, or a finite table with an explicit tail rule.  A table without a
tail rule is allowed but limits certification to the table range.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from typing import Optional

from ._frozen import frozen


class SequenceError(ValueError):
    """Malformed sequence description."""


def _int_str(n: int) -> str:
    # Decimal prints an integer of any length; str(int) refuses beyond sys.get_int_max_str_digits()
    return str(Decimal(n))


def _require_ints(what: str, values, error: type[Exception] = SequenceError) -> None:
    """Reject any value that is not an int; a bool or an integral float is not one."""
    for x in values:
        if type(x) is not int:
            raise error(f"{what}: {x!r} is not an int")


def _require_list(what: str, value, error: type[Exception] = SequenceError, length: Optional[int] = None):
    """Return ``value`` if it is a list or tuple (of ``length`` items, when given), else reject it."""
    if not isinstance(value, (list, tuple)) or length is not None and len(value) != length:
        raise error(f"{what}: {value!r} is not a list" + ("" if length is None else f" of {length}"))
    return value


def _require_dict(what: str, value, error: type[Exception] = SequenceError) -> dict:
    """Return ``value`` if it is a JSON object (a dict), else reject it."""
    if not isinstance(value, dict):
        raise error(f"{what}: {value!r} is not an object")
    return value


def _require_key(what: str, doc: dict, key: str, error: type[Exception] = SequenceError):
    """Return ``doc[key]``, or reject the document ``what`` naming the missing key."""
    if key not in doc:
        raise error(f'{what}: missing key "{key}"')
    return doc[key]


def _int_keys(what: str, doc: dict, error: type[Exception] = SequenceError, parts: tuple[str, ...] = ()) -> dict:
    """``doc`` with its keys read as ints, or as int tuples when ``parts`` names a key's
    comma-separated parts (``"level,index"``); two keys naming one value (``"1"``, ``"01"``) are refused.
    Each int is an optional ``-`` and ASCII digits: no spaces, ``+`` or ``_`` as ``int()`` allows."""
    out, names = {}, {}
    for key, val in doc.items():
        split = key.split(",")
        if len(split) != (len(parts) or 1) or not all(re.fullmatch("-?[0-9]+", x) for x in split):
            form = json.dumps(",".join(parts)) if parts else "an integer"
            raise error(f"{what} key {json.dumps(key)} is not {form}")
        n = tuple(map(int, split)) if parts else int(key)
        if n in names:
            raise error(f"{what} keys {json.dumps(names[n])} and {json.dumps(key)} both name {n}")
        names[n], out[n] = key, val
    return out


@frozen
class IntSequence:
    """Base class; subclasses implement ``value`` and the analysis hooks."""

    def value(self, n: int) -> int:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def constant_from(self) -> Optional[tuple[int, int]]:
        """Return ``(n0, c)`` if the sequence equals c for all n >= n0."""
        return None

    def reciprocal_sum_finite(self) -> Optional[bool]:
        """Whether sum of 1/a_n converges; None when the tail is unknown."""
        return None


@frozen
class Constant(IntSequence):
    c: int

    def __post_init__(self):
        _require_ints("constant sequence", (self.c,))

    def value(self, n: int) -> int:
        return self.c

    def to_json(self) -> dict:
        return {"kind": "constant", "value": self.c}

    def constant_from(self):
        return (0, self.c)

    def reciprocal_sum_finite(self):
        return False


@frozen
class Arithmetic(IntSequence):
    start: int
    step: int

    def __post_init__(self):
        _require_ints("arithmetic sequence", (self.start, self.step))

    def value(self, n: int) -> int:
        return self.start + self.step * n

    def to_json(self) -> dict:
        return {"kind": "arithmetic", "start": self.start, "step": self.step}

    def constant_from(self):
        return (0, self.start) if self.step == 0 else None

    def reciprocal_sum_finite(self):
        # sum 1/(start + step*n) is harmonic-like for step > 0; a decreasing
        # sequence falls below 1, so it has no sum to decide
        return False if self.step >= 0 else None


@frozen
class Geometric(IntSequence):
    base: int
    ratio: int

    def __post_init__(self):
        _require_ints("geometric sequence", (self.base, self.ratio))
        if self.base < 1 or self.ratio < 1:
            raise SequenceError("geometric sequence needs base >= 1, ratio >= 1")

    def value(self, n: int) -> int:
        return self.base * self.ratio**n

    def to_json(self) -> dict:
        return {"kind": "geometric", "base": self.base, "ratio": self.ratio}

    def constant_from(self):
        return (0, self.base) if self.ratio == 1 else None

    def reciprocal_sum_finite(self):
        return self.ratio >= 2


@frozen
class Polynomial(IntSequence):
    """a_n = coeffs[0] + coeffs[1]*n + ... ; leading coefficient positive."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(_require_list("polynomial sequence coeffs", self.coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        _require_ints("polynomial sequence", coeffs)
        if not coeffs or all(c == 0 for c in coeffs):
            raise SequenceError("polynomial sequence needs a nonzero coefficient")
        if self.degree() > 0 and coeffs[self.degree()] <= 0:
            raise SequenceError("polynomial sequence needs a positive leading coefficient")

    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0:
            d -= 1
        return d

    def value(self, n: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * n + c
        return out

    def to_json(self) -> dict:
        return {"kind": "polynomial", "coeffs": list(self.coeffs)}

    def constant_from(self):
        return (0, self.coeffs[0]) if self.degree() == 0 else None

    def reciprocal_sum_finite(self):
        return self.degree() >= 2


@frozen
class Table(IntSequence):
    """Finite table of leading values followed by a tail rule (may be None)."""

    values: tuple[int, ...]
    tail: Optional[IntSequence] = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_require_list("table sequence values", self.values)))
        if not self.values:
            raise SequenceError("table sequence needs at least one value")
        _require_ints("table sequence", self.values)

    def value(self, n: int) -> int:
        if n < len(self.values):
            return self.values[n]
        if self.tail is None:
            raise SequenceError(f"table sequence has no tail rule; index {n} is out of range")
        return self.tail.value(n - len(self.values))

    def to_json(self) -> dict:
        doc: dict = {"kind": "table", "values": list(self.values)}
        if self.tail is not None:
            doc["tail"] = self.tail.to_json()
        return doc

    def constant_from(self):
        if self.tail is None:
            return None
        tc = self.tail.constant_from()
        if tc is None:
            return None
        k, c = tc
        start = len(self.values) + k
        # absorb trailing table entries already equal to the constant
        j = len(self.values)
        if k == 0:
            while j > 0 and self.values[j - 1] == c:
                j -= 1
            start = j if j < len(self.values) else start
        return (start, c)

    def reciprocal_sum_finite(self):
        # finitely many table terms never decide convergence
        return None if self.tail is None else self.tail.reciprocal_sum_finite()


def seq_from_json(doc: dict) -> IntSequence:
    kind = _require_dict("sequence", doc).get("kind")

    def key(name: str):
        return _require_key(f"{kind} sequence", doc, name)

    if kind == "constant":
        return Constant(key("value"))
    if kind == "arithmetic":
        return Arithmetic(key("start"), key("step"))
    if kind == "geometric":
        return Geometric(key("base"), key("ratio"))
    if kind == "polynomial":
        return Polynomial(key("coeffs"))
    if kind == "table":
        tail = seq_from_json(doc["tail"]) if "tail" in doc and doc["tail"] is not None else None
        return Table(key("values"), tail)
    raise SequenceError(f"unknown sequence kind: {kind!r}")


def seq_from_text(text: str) -> IntSequence:
    """Parse the CLI mini-grammar, e.g. ``constant:2``, ``geometric:2,2``,
    ``poly:4,4,1`` or ``table:5,3:constant:2`` (table values, then tail)."""
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "constant":
        return Constant(int(rest))
    if head == "arithmetic":
        start, step = (int(x) for x in rest.split(","))
        return Arithmetic(start, step)
    if head == "geometric":
        base, ratio = (int(x) for x in rest.split(","))
        return Geometric(base, ratio)
    if head in ("poly", "polynomial"):
        return Polynomial(tuple(int(x) for x in rest.split(",")))
    if head == "table":
        vals, sep, tail_text = rest.partition(":")
        values = tuple(int(x) for x in vals.split(","))
        tail = seq_from_text(tail_text) if sep else None
        return Table(values, tail)
    raise SequenceError(f"cannot parse sequence text: {text!r}")
