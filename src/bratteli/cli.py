"""Command-line surface: config ingestion, dispatch, report emission.

Subcommands: ``diagram show|heights``, ``telescope``, ``measure
classify|extend|cylinder|check-invariance``, ``eigen verify|measure|compare``,
``finite classify``, ``vershik classify|orbit``.  Output formats: human
(text), json (deterministic, sorted keys), csv (the columns ``COMMANDS``
declares).
Exact rationals are emitted as ``num/den`` strings plus a 12-significant-digit
decimal; infinite outcomes as the literal ``inf`` with their divergence
witness attached.

One table, ``COMMANDS``, drives the surface: it maps each command name to
its help text, whether it takes a diagram family (the ``FAMILY_OPTIONS``
flags, built by ``FAMILIES``), its own arguments and its CSV form.  ``main``
builds the diagram once and calls ``cmd_<group>_<name>(args, spec, window)``
(``spec`` and ``window`` are ``None`` for commands without a family).  A
handler returns ``(body, exit_code)``; ``main`` puts ``command`` and
``family`` in front of the body, so a handler that changes the window
reports its own ``family``.  Human and JSON output print that report; a CSV
row is one entry of the list that the command's ``COMMANDS`` row names, with
the columns that row declares, each read from the entry by a key path or a
function, and a missing key is an empty cell.  A handler imports the layer
it uses inside its body: at import time this module loads only ``diagram``
and ``sequences``, which every ``--family`` needs, so each command pays only
for its own layers.  Size flags are bounded by the ``BRATTELI_MAX_WORK``
work budget.

Exit status: 0 success, 1 internal error, 2 configuration error, 3 at least
one result could not be certified (undetermined).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

# every --family needs these two; each handler imports the other layers it uses
from . import diagram as dg
from .sequences import _int_keys, _int_str, _require_dict, _require_ints, _require_key, _require_list, seq_from_text

if TYPE_CHECKING:
    from .extension import ConvergenceResult
    from .measure import EndVertex
    from .orders import QuasiStationary

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_UNCERTIFIED = 3


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Value formatting
# ---------------------------------------------------------------------------


def fr_str(x: Fraction) -> str:
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


def fr_decimal(x: Fraction, digits: int = 12) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def rational_doc(x: Fraction) -> dict:
    return {"exact": fr_str(x), "decimal": fr_decimal(x)}


def result_doc(res: ConvergenceResult) -> dict:
    from . import extension as ext

    doc = {
        "status": res.status,
        "partial_sum": rational_doc(res.partial_sum),
        "terms_used": res.terms_used,
    }
    if res.status == ext.FINITE:
        doc["tail_bound"] = rational_doc(res.tail_bound)
        if res.is_exact:
            doc["exact_value"] = rational_doc(res.exact_value)
    if res.status == ext.INFINITE:
        doc["value"] = "inf"
        doc["divergence_witness"] = res.divergence_witness
    if res.certificate:
        doc["certificate"] = res.certificate
    return doc


def _result_value(doc: dict) -> str:
    """The CSV value of a ``result_doc``: ``inf``, ``undetermined``, or its exact value or partial sum."""
    if doc["status"] != "finite":
        return doc.get("value", doc["status"])
    return doc.get("exact_value", doc["partial_sum"])["exact"]


# ---------------------------------------------------------------------------
# Shared argument handling
# ---------------------------------------------------------------------------


def _max_work() -> int:
    return int(os.environ.get("BRATTELI_MAX_WORK", "200000"))


def _work_size(text: str) -> int:
    """argparse type of the size flags: an int within the work budget."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    budget = _max_work()
    if not 0 <= n <= budget:
        raise argparse.ArgumentTypeError(f"{n} is outside 0..{budget} (the BRATTELI_MAX_WORK work budget)")
    return n


_NONSTATIONARY_UNIFORM = (("an",), lambda args: dg.NonStationaryUniform(seq_from_text(args.an)))

# family name -> (flags it needs, constructor); the keys are the --family choices
FAMILIES = {
    "ak": (("a", "k"), lambda args: dg.StationaryAK(args.a, args.k)),
    "decreasing": (("diagonal",), lambda args: dg.StationaryDecreasing(seq_from_text(args.diagonal))),
    "increasing": ((), lambda args: dg.StationaryIncreasing()),
    "nonstat-uniform": _NONSTATIONARY_UNIFORM,
    "nonstationary-uniform": _NONSTATIONARY_UNIFORM,  # the spelling the JSON reports use
    "general-chain": ((), lambda args: dg.GeneralChain(json.loads(args.entries or "[]"), args.default)),
}

FAMILY_OPTIONS = [
    ("--family", dict(choices=list(FAMILIES))),
    ("--a", dict(type=int, help="ak family: first odometer size")),
    ("--k", dict(type=int, help="ak family: drop to the remaining odometers")),
    ("--diagonal", dict(help="decreasing family: vertex sequence, e.g. table:5,3:constant:2")),
    ("--an", dict(help="nonstat-uniform family: level sequence, e.g. constant:2")),
    ("--entries", dict(help="general-chain: JSON list of [level, vertex, value]")),
    ("--default", dict(type=int, default=2, help="general-chain: off-table value")),
    ("--spec-json", dict(help="path to a full diagram JSON document")),
    ("--max-level", dict(type=_work_size, default=16)),
    ("--max-vertex", dict(type=_work_size, default=12)),
]


def _load_doc(text_or_path: str):
    if os.path.exists(text_or_path):
        with open(text_or_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text_or_path)


def _build_spec(args) -> tuple[dg.DiagramSpec, dg.Truncation]:
    window = dg.Truncation(args.max_level, args.max_vertex)
    if args.spec_json:
        spec, win = dg.diagram_from_json(_load_doc(args.spec_json))
        return spec, (win or window)
    if args.family is None:
        raise ConfigError("no diagram family given (use --family or --spec-json)")
    needs, build = FAMILIES[args.family]
    # an int flag may be 0; a text flag must be non-empty
    if any(getattr(args, flag) in (None, "") for flag in needs):
        raise ConfigError(f"{args.family} family needs " + " and ".join("--" + flag for flag in needs))
    return build(args), window


def _cylinder_pairs(text: str) -> list[tuple[int, int]]:
    """argparse type of ``--cylinders``: "(m,j);(m,j)" pairs, each number within the work budget."""
    out = []
    for part in text.replace(" ", "").split(";"):
        if part:
            m, comma, j = part.strip("()").partition(",")
            if not comma:
                raise argparse.ArgumentTypeError(f"{part!r} is not an (m,j) pair")
            out.append((_work_size(m), _work_size(j)))
    return out


def _breakpoints(text: str) -> list[int]:
    """argparse type of ``--breakpoints``: comma separated levels, each within the work budget."""
    return [_work_size(x) for x in text.split(",")]


def _end_vertices(pairs: list[tuple[int, int]], empty: str = "no cylinders given") -> list[EndVertex]:
    """The (m, j) cylinders of ``pairs``; no pairs is a configuration error that ``empty`` names."""
    from .measure import EndVertex

    if not pairs:
        raise ConfigError(empty)
    return [EndVertex(m, j) for m, j in pairs]


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _read(doc, path):
    """``path(doc)``, or the value at the dotted key path ``path`` (``mass.partial_sum.exact``,
    ``cylinder.0``) in ``doc``; None where a key is missing."""
    if callable(path):
        return path(doc)
    try:
        for key in path.split("."):
            doc = doc[key] if isinstance(doc, dict) else doc[int(key)]
    except KeyError:
        return None
    return doc


def _cell(val) -> str:
    """One CSV cell: empty for a missing value; an int of any length prints through ``_int_str``."""
    return "" if val is None else _int_str(val) if type(val) is int else str(val)


def emit(report: dict, args) -> None:
    """Print ``report`` in ``args.format``; a CSV row is one entry of the list its ``COMMANDS`` row names."""
    if args.format == "csv":
        rows, columns = COMMANDS[report["command"]][3:]
        columns = columns(args) if callable(columns) else columns
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(_read(row, path)) for path in columns.values()] for row in _read(report, rows) or ())
        print(buf.getvalue(), end="")
        return
    # reports hold integers of any length (telescoped multiplicities); the
    # int-to-str digit limit guards parsing, and printing parses nothing, so
    # it is lifted here (Python 3.10 before 3.10.7 has no such limit)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            _emit_human(report)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _emit_human(doc, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(doc, dict):
        for key in doc:
            val = doc[key]
            if isinstance(val, (dict, list)):
                print(f"{pad}{key}:")
                _emit_human(val, indent + 1)
            else:
                print(f"{pad}{key}: {val}")
    elif isinstance(doc, list):
        for val in doc:
            if isinstance(val, (dict, list)):
                _emit_human(val, indent + 1)
                print()
            else:
                print(f"{pad}- {val}")
    else:
        print(f"{pad}{doc}")


# ---------------------------------------------------------------------------
# Command implementations (see the module docstring for the contract)
# ---------------------------------------------------------------------------


def cmd_diagram_show(args, spec, window):
    mat = dg.incidence(spec, args.level, window)
    report = {"level": args.level, "entries": [list(e) for e in mat.entries], "complete_rows": sorted(mat.complete_rows)}
    return report, EXIT_OK


def cmd_diagram_heights(args, spec, window):
    hv = dg.heights(spec, args.level, window)
    values = {str(i): _int_str(hv.values[i]) for i in sorted(hv.values)}
    report = {"level": args.level, "heights": values, "exact_width": hv.exact_width}
    if args.verify_bruteforce:
        budget = _max_work()
        checked = {}
        for i in sorted(hv.values):
            try:
                checked[str(i)] = dg.count_paths_bruteforce(spec, dg.VertexId(args.level, i), window, budget)
            except dg.WorkBudgetError:
                checked[str(i)] = "budget-exceeded"
        report["bruteforce"] = {k: str(v) for k, v in checked.items()}
        report["bruteforce_mismatches"] = [
            k for k, v in checked.items() if v != "budget-exceeded" and int(values[k]) != v
        ]
    return report, EXIT_OK


def cmd_telescope(args, spec, window):
    out = dg.telescope(spec, args.breakpoints, window)
    return {"breakpoints": args.breakpoints, "levels": [[list(e) for e in lvl] for lvl in out.levels]}, EXIT_OK


def cmd_measure_classify(args, spec, window):
    from . import extension as ext

    cls = ext.classify_ergodic_measures(spec, args.imax, args.max_terms)
    entries = [
        {"odometer": e.index, "mass": result_doc(e.mass), **({} if e.normalizing_constant is None else {
            "normalizing_constant": rational_doc(e.normalizing_constant)})}
        for e in cls.entries
    ]
    report = {
        "imax": args.imax,
        "max_terms": args.max_terms,
        "entries": entries,
        "finite_odometers": list(cls.finite_indices),
        "notes": list(cls.notes),
    }
    return report, EXIT_UNCERTIFIED if cls.partial else EXIT_OK


def cmd_measure_extend(args, spec, window):
    from . import extension as ext

    res = ext.odometer_extension_mass(spec, args.i, args.max_terms)
    report = {"odometer": args.i, "mass": result_doc(res)}
    if args.trace:
        terms = ext.mass_series_terms(spec, args.i, min(args.max_terms, args.trace))
        sums = itertools.accumulate(terms, initial=Fraction(1))
        next(sums)
        report["trace"] = [
            {"n": n, "term": fr_str(t), "partial_sum": fr_str(s)} for n, (t, s) in enumerate(zip(terms, sums))
        ]
    return report, EXIT_UNCERTIFIED if res.status == ext.UNDETERMINED else EXIT_OK


def cmd_measure_cylinder(args, spec, window):
    from . import extension as ext

    cyls = _end_vertices(args.cylinders)
    values = [result_doc(ext.extended_cylinder_measure(spec, args.i, cyl, args.max_terms)) for cyl in cyls]
    entries = [{"cylinder": [cyl.length, cyl.index], "value": value} for cyl, value in zip(cyls, values)]
    code = EXIT_UNCERTIFIED if any(value["status"] == ext.UNDETERMINED for value in values) else EXIT_OK
    return {"odometer": args.i, "entries": entries}, code


def _vector_entry(level: int, vertex: int, val) -> Fraction:
    """One ``--vectors`` entry: an int, a float or a string that ``Fraction`` reads, with a nonzero denominator."""
    where = f"--vectors entry at (level={level}, vertex={vertex})"
    if isinstance(val, bool) or not isinstance(val, (int, float, str)):
        raise ConfigError(f"{where} must be a number or a 'num/den' string, not {json.dumps(val)}")
    try:
        return Fraction(val)
    except (ZeroDivisionError, OverflowError):
        raise ConfigError(f"{where} is not a finite rational: {val!r}") from None


def cmd_measure_check_invariance(args, spec, window):
    from . import spectral as sp
    from .measure import MeasureVectors, check_tail_invariance

    if args.vectors:
        doc = _require_dict("--vectors", _load_doc(args.vectors), ConfigError)
        levels = _require_dict("--vectors vectors", _require_key("--vectors", doc, "vectors", ConfigError), ConfigError)
        table = {}
        for level, row in _int_keys("--vectors: level", levels, ConfigError).items():
            row = _int_keys(f"--vectors: level {level} vertex", _require_dict("--vectors level", row, ConfigError), ConfigError)
            table[level] = {i: _vector_entry(level, i, v) for i, v in row.items()}
        mv = MeasureVectors.from_table(table, label="user vectors")
        window = dg.Truncation(min(window.max_level, mv.max_level), window.max_vertex)
    else:
        pair = sp.eigenvector(spec, args.shift)
        mv = sp.eigen_measure(spec, pair, window).measure_vectors(window)
    rep = check_tail_invariance(spec, mv, window)
    report = {
        "family": spec.to_json(window),
        "source": mv.label,
        "ok": rep.ok,
        "checked_rows": rep.checked_rows,
        "failures": [list(f) for f in rep.failures],
    }
    return report, EXIT_OK if rep.ok else EXIT_UNCERTIFIED


def cmd_eigen_verify(args, spec, window):
    from . import spectral as sp

    pair = sp.eigenvector(spec, args.shift)
    window = dg.Truncation(window.max_level, max(window.max_vertex, args.rows))
    rep = sp.verify_eigenpair(spec, pair, window)
    report = {
        "family": spec.to_json(window),
        "eigenpair": pair.label,
        "lambda": fr_str(pair.lam),
        "rows_checked": len(rep.residuals),
        "verified": rep.verified,
        "nonzero_rows": [{"row": i, "residual": fr_str(rep.residuals[i])} for i in rep.nonzero],
    }
    return report, EXIT_OK if rep.verified else EXIT_UNCERTIFIED


def cmd_eigen_measure(args, spec, window):
    from . import spectral as sp
    from .measure import EndVertex

    pair = sp.eigenvector(spec, args.shift)
    measure = sp.eigen_measure(spec, pair, window)
    if args.request:
        doc = _require_dict("--request", _load_doc(args.request), ConfigError)
        cylinders = _require_key("--request", doc, "cylinders", ConfigError)
        requested = [
            _require_list("--request cylinder", mj, ConfigError, 2)
            for mj in _require_list("--request cylinders", cylinders, ConfigError)
        ]
        _require_ints("--request cylinders", (x for mj in requested for x in mj), ConfigError)
        try:
            cyls = [EndVertex(_work_size(m), _work_size(j)) for m, j in requested]
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"--request: {exc}") from None
    elif args.cylinders:
        cyls = _end_vertices(args.cylinders)
    else:
        raise ConfigError("eigen measure needs --request or --cylinders")
    entries = [{"cylinder": [cyl.length, cyl.index], "value": rational_doc(measure.cylinder_value(cyl))} for cyl in cyls]
    return {"eigenpair": pair.label, "entries": entries}, EXIT_OK


def cmd_eigen_compare(args, spec, window):
    from . import spectral as sp

    pair = sp.eigenvector(spec, args.i)
    grid = [(m, j) for m in range(args.mmax + 1) for j in range(args.i, args.jmax + 1)]
    cyls = _end_vertices(grid, f"--jmax {args.jmax} is below --i {args.i}: the cylinder grid j = i..jmax is empty")
    rep = sp.compare_eigen_vs_extension(spec, args.i, pair, cyls, args.max_terms)
    entries = [
        {
            "cylinder": [e.cylinder.length, e.cylinder.index], "eigen": rational_doc(e.eigen_value),
            "extension": result_doc(e.extension), "verdict": e.verdict,
        }
        for e in rep.entries
    ]
    report = {"odometer": args.i, "all_equal": rep.all_equal, "entries": entries}
    return report, EXIT_OK if rep.all_equal else EXIT_UNCERTIFIED


def cmd_finite_classify(args, spec, window):
    from . import finite_stationary as fs

    matrix = _load_doc(args.matrix)
    tol = args.tol
    dec = fs.decompose(matrix)
    radii = fs.class_radii(dec, tol)
    measures = fs.class_measures(dec, radii)
    distinguished = {m.data.class_index for m in measures}
    classes_doc = [
        {"class": idx, "vertices": list(cls), "radius": {"lo": lo, "hi": hi}, "distinguished": idx in distinguished}
        for idx, (cls, (lo, hi)) in enumerate(zip(dec.classes, radii))
    ]
    measures_doc = [
        {
            "class": m.data.class_index,
            "lambda": m.lam,
            "xi_raw": list(m.xi_raw),
            "xi_normalized": list(m.xi_normalized),
            "support": sorted(m.data.support),
        }
        for m in measures
    ]
    report = {
        "matrix": [list(r) for r in dec.matrix],
        "orientation": "input is A = F^T: entry [i][j] counts edges from vertex i up to vertex j",
        "classes": classes_doc,
        "reduced_edges": [list(e) for e in dec.reduced_edges],
        "measures": measures_doc,
        "tolerance": tol,
    }
    return report, EXIT_OK


def _load_order(text: str) -> QuasiStationary:
    from . import orders as od

    shorthand = {
        "all-left": (od.LEFT,),
        "all-right": (od.RIGHT,),
        "all-middle": (od.MIDDLE,),
        "alternating": (od.LEFT, od.RIGHT),
    }
    if text in shorthand:
        return od.QuasiStationary(default=shorthand[text])
    return od.order_from_json(_load_doc(text))


def cmd_vershik_classify(args, spec, window):
    from . import orders as od

    order = _load_order(args.tags)
    verdict = od.extension_verdict(spec, order, args.imax)
    # the verdict raised on an undecidable order, so the witnesses name every finite side
    fr, fl = set(verdict.fr_witness), set(verdict.fl_witness)
    report = {
        "i_fr": verdict.i_fr,
        "i_fl": verdict.i_fl,
        "fr_witness": list(verdict.fr_witness),
        "fl_witness": list(verdict.fl_witness),
        "borel_extension": verdict.borel_extension,
        "homeomorphism": verdict.homeomorphism,
        "per_odometer": [
            {"odometer": i, "finite_right": i in fr, "finite_left": i in fl} for i in range(1, args.imax + 1)
        ],
    }
    return report, EXIT_OK


def cmd_vershik_orbit(args, spec, window):
    from . import orders as od

    levels = args.levels
    if levels > window.max_level:
        raise ConfigError(f"--levels {levels} is deeper than the orbit's paths (max level {window.max_level})")
    order = _load_order(args.tags)
    walk = od._Walk(spec, order, od.vertical_path(spec, args.start_odometer, window.max_level))
    trace = []
    for step in range(args.steps):
        trace.append({"step": step, "end_vertices": walk.verts[1 : levels + 1]})
        if walk.advance() is None:
            break
    return {"start_odometer": args.start_odometer, "steps": len(trace), "trace": trace}, EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_MAX_TERMS = ("--max-terms", dict(type=_work_size, default=dg.DEFAULT_MAX_TERMS))
_SHIFT = ("--shift", dict(type=int, default=1, help="odometer i whose eigenvalue a_i the eigenpair takes (any stationary family)"))
_ODOMETER = ("--i", dict(type=int, default=1))
_TAGS_HELP = (
    'order JSON ({"kind":"quasiStationary","tags":{"default":"middle"}}) '
    "or a shorthand: all-left, all-right, all-middle, alternating"
)

GROUPS = {
    "diagram": "incidence windows and tower heights",
    "measure": "extension masses and cylinder values",
    "eigen": "constructive eigenpairs and their measures",
    "finite": "finite stationary diagrams",
    "vershik": "orders and successor dynamics",
}

_CYLINDER = {"m": "cylinder.0", "j": "cylinder.1"}

# command name -> (help, takes a diagram family, its own arguments in order,
# CSV rows, CSV columns); main calls cmd_<group>_<name> for each.  The rows
# are one list of the report, named by a key path or a function of it; a
# column maps its header to a key path into a row or a function of the row,
# and the columns of vershik orbit are a function of the arguments
COMMANDS = {
    "diagram show": ("windowed incidence matrix of one level", True, [("--level", dict(type=int, default=0))],
        "entries", {"row": "0", "col": "1", "multiplicity": "2"}),
    "diagram heights": ("tower heights at one level", True, [
        ("--level", dict(type=int, required=True)), ("--verify-bruteforce", dict(action="store_true"))],
        lambda report: report["heights"].items(), {"vertex": "0", "height": "1"}),
    "telescope": ("collapse levels between breakpoints", True, [
        ("--breakpoints", dict(type=_breakpoints, required=True, help="comma separated, starting at 0"))],
        lambda report: [[k, *e] for k, lvl in enumerate(report["levels"]) for e in lvl],
        {"level": "0", "row": "1", "col": "2", "multiplicity": "3"}),
    "measure classify": ("extension mass of every odometer up to imax", True, [
        ("--imax", dict(type=_work_size, default=5)), _MAX_TERMS], "entries", {
        "i": "odometer", "status": "mass.status", "partial_sum": "mass.partial_sum.exact",
        "tail_bound": "mass.tail_bound.exact", "terms_used": "mass.terms_used",
        "normalized_mass": "normalizing_constant.exact"}),
    "measure extend": ("extension mass of one odometer", True, [
        _ODOMETER, _MAX_TERMS, ("--trace", dict(type=_work_size, default=0, help="emit the first N series terms"))],
        "trace", {"n": "n", "term": "term", "partial_sum": "partial_sum"}),
    "measure cylinder": ("extended measure of (m, j) cylinders", True, [
        _ODOMETER, ("--cylinders", dict(type=_cylinder_pairs, required=True, help='e.g. "(0,2);(1,3)"')), _MAX_TERMS],
        "entries", {**_CYLINDER, "status": "value.status", "value": lambda e: _result_value(e["value"])}),
    "measure check-invariance": ("exact tail-invariance check", True, [
        ("--vectors", dict(help="JSON file {vectors: {level: {vertex: 'num/den'}}}")), _SHIFT],
        "failures", {"level": "0", "vertex": "1"}),
    "eigen verify": ("exact row residuals of the eigen equations", True, [
        ("--rows", dict(type=_work_size, default=100)), _SHIFT], "nonzero_rows", {"row": "row", "residual": "residual"}),
    "eigen measure": ("eigen measure values on cylinders", True, [
        ("--request", dict(help="JSON file {cylinders: [[m, j], ...]}")),
        ("--cylinders", dict(type=_cylinder_pairs, help='inline "(m,j);(m,j)" list')), _SHIFT],
        "entries", {**_CYLINDER, "value": "value.exact", "decimal": "value.decimal"}),
    "eigen compare": ("eigen measure vs certified extension values", True, [
        _ODOMETER, ("--mmax", dict(type=_work_size, default=5)), ("--jmax", dict(type=_work_size, default=5)), _MAX_TERMS],
        "entries", {**_CYLINDER, "eigen_value": "eigen.exact", "verdict": "verdict"}),
    "finite classify": ("communicating classes, radii, measures", False, [
        ("--matrix", dict(required=True, help="JSON 2-D array (A = F^T) or a file path")),
        ("--tol", dict(type=float, default=1e-12))], "classes", {
        "class": "class", "vertices": lambda c: " ".join(map(str, c["vertices"])), "radius_lo": "radius.lo",
        "radius_hi": "radius.hi", "distinguished": "distinguished"}),
    "vershik classify": ("finite-right/left sets and extension verdict", True, [
        ("--tags", dict(required=True, help=_TAGS_HELP)), ("--imax", dict(type=_work_size, default=10))],
        "per_odometer", {"i": "odometer", "finite_right": "finite_right", "finite_left": "finite_left"}),
    "vershik orbit": ("successor orbit trace", True, [
        ("--tags", dict(required=True)), ("--steps", dict(type=_work_size, default=100)),
        ("--levels", dict(type=_work_size, default=3)), ("--start-odometer", dict(type=int, default=1))],
        "trace", lambda args: {"step": "step", **{
            f"end_vertex_level_{l}": f"end_vertices.{l - 1}" for l in range(1, args.levels + 1)}}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bratteli",
        description="Exact tail-invariant measures on generalized Bratteli diagrams built from odometer chains.",
    )
    parser.add_argument("--format", choices=["human", "json", "csv"], default="human")
    parser.add_argument("--config", help="RunConfig JSON file: {command, options, format}")
    sub = parser.add_subparsers(dest="group")
    groups = {}
    for name, (help_text, has_family, options, *_) in COMMANDS.items():
        group, _, leaf = name.partition(" ")
        if not leaf:
            command_parser = sub.add_parser(group, help=help_text)
        else:
            if group not in groups:
                groups[group] = sub.add_parser(group, help=GROUPS[group]).add_subparsers(dest="command")
            command_parser = groups[group].add_parser(leaf, help=help_text)
        for flag, kwargs in (FAMILY_OPTIONS if has_family else []) + options:
            command_parser.add_argument(flag, **kwargs)
        command_parser.set_defaults(cmd=name)
    return parser


def _argv_from_config(doc: dict) -> list[str]:
    command = _require_dict("config", doc, ConfigError).get("command")
    if isinstance(command, str):
        argv = command.split()
    elif isinstance(command, list):
        argv = [str(c) for c in command]
    else:
        raise ConfigError("config needs a 'command' string or list")
    if "format" in doc:
        argv = ["--format", str(doc["format"])] + argv
    for key, val in _require_dict("config options", doc.get("options", {}), ConfigError).items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(val, bool):
            if val:
                argv.append(flag)
        else:
            argv.extend([flag, val if isinstance(val, str) else json.dumps(val)])
    return argv


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            doc = _load_doc(args.config)
            # a format the config names comes later, so it wins over this one
            argv2 = ["--format", args.format] + _argv_from_config(doc)
        except (OSError, ValueError, ConfigError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        args = parser.parse_args(argv2)
    if not getattr(args, "cmd", None):
        parser.print_help()
        return EXIT_CONFIG
    handler = globals()["cmd_" + args.cmd.replace(" ", "_").replace("-", "_")]
    try:
        spec, window = _build_spec(args) if COMMANDS[args.cmd][1] else (None, None)
        body, code = handler(args, spec, window)
        family = {} if spec is None else {"family": spec.to_json(window)}
        report = {"command": args.cmd, **family, **body}
    except dg.CertificateError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ConfigError, dg.DiagramError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # an internal fault
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        emit(report, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early; keep the interpreter's final flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
