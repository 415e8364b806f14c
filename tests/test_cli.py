"""Command-line surface: dispatch, formats, determinism, exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
from decimal import getcontext, localcontext
from pathlib import Path

import pytest

from bratteli import cli
from bratteli.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNCERTIFIED,
    fr_decimal,
    fr_str,
    main,
)
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fraction_formatting():
    assert fr_str(Fraction(3, 2)) == "3/2"
    assert fr_str(Fraction(2)) == "2/1"
    assert fr_decimal(Fraction(1, 3)).startswith("0.333333333333")


def test_fr_decimal_keeps_global_precision():
    with localcontext() as ctx:
        ctx.prec = 28
        fr_decimal(Fraction(1, 3))
        assert getcontext().prec == 28


def test_measure_classify_human(capsys):
    code, out, _ = run(capsys, "measure", "classify", "--family", "ak", "--a", "4", "--k", "2", "--imax", "3")
    assert code == EXIT_OK
    assert "finite" in out and "inf" in out
    assert "2/1" in out  # the exact mass


def test_measure_classify_refuses_an_imax_of_0(capsys):
    # no odometer examined: the classification has nothing to exhaust (a negative --imax is an argument error);
    # the extension verdict of vershik classify, whose witnesses it would leave empty, refuses it too
    for command in (["measure", "classify"], ["vershik", "classify", "--tags", "all-left"]):
        code, out, err = run(capsys, *command, "--family", "ak", "--a", "4", "--k", "2", "--imax", "0")
        assert (code, out) == (EXIT_CONFIG, ""), command
        assert "i_max must be >= 1, not 0" in err


def test_measure_classify_csv_columns(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "measure", "classify", "--family", "ak", "--a", "4", "--k", "2", "--imax", "2"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "i,status,partial_sum,tail_bound,terms_used,normalized_mass"
    assert len(lines) == 3
    assert all(len(line.split(",")) == 6 for line in lines)


def test_json_reports_are_deterministic(capsys):
    args = ["--format", "json", "measure", "classify", "--family", "ak", "--a", "5", "--k", "3", "--imax", "2"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["finite_odometers"] == [1]
    assert doc["entries"][0]["mass"]["exact_value"]["exact"] == "3/2"


def test_diagram_show_and_heights(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "diagram", "heights", "--family", "nonstat-uniform", "--an", "constant:2", "--level", "3"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert set(doc["heights"].values()) == {"27"}
    code, out, _ = run(
        capsys, "--format", "json", "diagram", "show", "--family", "ak", "--a", "3", "--k", "2", "--level", "0", "--max-vertex", "3"
    )
    doc = json.loads(out)
    assert [1, 1, 3] in doc["entries"] and [1, 2, 1] in doc["entries"]


def test_heights_bruteforce_verification(capsys):
    code, out, _ = run(
        capsys,
        "--format", "json", "diagram", "heights", "--family", "ak", "--a", "3", "--k", "2",
        "--level", "3", "--max-vertex", "4", "--verify-bruteforce",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["bruteforce_mismatches"] == []


def test_telescope_csv(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "telescope", "--family", "ak", "--a", "3", "--k", "2",
        "--breakpoints", "0,2", "--max-vertex", "6",
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "level,row,col,multiplicity"


def test_breakpoints_errors_name_the_flag_or_the_rule(capsys):
    ak = ["telescope", "--family", "ak", "--a", "4", "--k", "2"]
    for text in ("0,,3", "0,x", "0,2,"):
        with pytest.raises(SystemExit) as exc:
            main([*ak, "--breakpoints", text])
        assert exc.value.code == EXIT_CONFIG
        assert "argument --breakpoints: invalid int value" in capsys.readouterr().err
    for text, rule in [("1,3", "must start at 0"), ("0,3,3", "must be strictly increasing")]:
        code, out, err = run(capsys, *ak, "--breakpoints", text)
        assert (code, out, err) == (EXIT_CONFIG, "", f"error: breakpoints {rule}\n")


def test_measure_cylinder(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "measure", "cylinder", "--family", "ak", "--a", "4", "--k", "2",
        "--i", "1", "--cylinders", "(3,2);(0,1)",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    values = {tuple(e["cylinder"]): e["value"] for e in doc["entries"]}
    assert values[(3, 2)]["exact_value"]["exact"] == "1/128"


def test_eigen_verify_and_measure(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "eigen", "verify", "--family", "ak", "--a", "4", "--k", "2", "--rows", "100"
    )
    assert code == EXIT_OK
    assert json.loads(out)["verified"] is True

    request = {"cylinders": [[0, 2], [3, 1]]}
    code, out, _ = run(
        capsys, "--format", "json", "eigen", "measure", "--family", "ak", "--a", "4", "--k", "2",
        "--request", json.dumps(request),
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    values = {tuple(e["cylinder"]): e["value"]["exact"] for e in doc["entries"]}
    assert values[(0, 2)] == "1/2" and values[(3, 1)] == "1/64"


@pytest.mark.parametrize("window, checked", [
    (["--rows", "5"], 12),  # the default --max-vertex 12 widens the rows
    (["--rows", "60", "--max-vertex", "4"], 60),
])
def test_eigen_verify_reports_the_rows_it_checks(capsys, window, checked):
    code, out, _ = run(
        capsys, "--format", "json", "eigen", "verify", "--family", "decreasing", "--diagonal", "table:5,3:constant:2",
        *window,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["rows_checked"] == doc["family"]["truncation"]["maxVertex"] == checked


def test_measure_extend_trace_csv(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "measure", "extend", "--family", "ak", "--a", "4", "--k", "2",
        "--i", "1", "--trace", "5",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,term,partial_sum"
    assert len(lines) == 6
    assert lines[1].split(",")[1] == "1/4"  # t_0 = 1/a


def test_eigen_measure_inline_cylinders(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "eigen", "measure", "--family", "ak", "--a", "4", "--k", "2",
        "--cylinders", "(0,3);(2,1)",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    values = {tuple(e["cylinder"]): e["value"]["exact"] for e in doc["entries"]}
    assert values[(0, 3)] == "1/4" and values[(2, 1)] == "1/16"


def test_eigen_compare(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "eigen", "compare", "--family", "ak", "--a", "4", "--k", "2",
        "--i", "1", "--mmax", "3", "--jmax", "4",
    )
    assert code == EXIT_OK
    assert json.loads(out)["all_equal"] is True


def test_eigen_compare_takes_the_odometer_once(capsys):
    # --i names the odometer of both the extension and the eigenpair
    argv = ["--format", "csv", "eigen", "compare", "--family", "decreasing", "--diagonal", "table:6,4,3:constant:2",
            "--i", "2", "--mmax", "1", "--jmax", "3"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 4 and all(row.endswith(",equal-exact") for row in rows)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--shift", "2"])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --shift 2" in capsys.readouterr().err


def test_general_chain_without_entries_is_the_constant_chain(capsys):
    reports = []
    for family in (["--family", "general-chain", "--default", "3"], ["--family", "decreasing", "--diagonal", "constant:3"]):
        code, out, err = run(capsys, "--format", "json", "measure", "classify", *family, "--imax", "3")
        assert (code, err) == (EXIT_OK, "")
        reports.append(json.loads(out))
    assert reports[0]["family"]["params"] == {"entries": [], "default": 3}
    assert reports[0]["entries"] == reports[1]["entries"]
    assert {e["mass"]["certificate"] for e in reports[0]["entries"]} == {"climb-lower-bound"}


def test_finite_classify(capsys):
    code, out, _ = run(capsys, "--format", "json", "finite", "classify", "--matrix", "[[3,0],[1,2]]")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert all(c["distinguished"] for c in doc["classes"])
    assert len(doc["measures"]) == 2


def test_finite_classify_decomposes_once_and_brackets_each_class_once(capsys, monkeypatch):
    from bratteli import finite_stationary as fs

    matrix = [[2, 1, 0], [0, 3, 1], [0, 0, 1]]  # three classes, two of them distinguished
    expected = fs.measures_finite_stationary(matrix)
    calls = {"decompose": 0, "spectral_radius": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(fs, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fs, name, counted)
    code, out, _ = run(capsys, "--format", "json", "finite", "classify", "--matrix", json.dumps(matrix))
    assert code == EXIT_OK
    assert calls == {"decompose": 1, "spectral_radius": 3}
    doc = json.loads(out)
    assert [c["distinguished"] for c in doc["classes"]] == [True, True, False]
    assert [(m["class"], m["lambda"], m["xi_raw"]) for m in doc["measures"]] == [
        (m.data.class_index, m.lam, list(m.xi_raw)) for m in expected
    ]


def test_vershik_classify(capsys):
    tags = json.dumps({"kind": "quasiStationary", "tags": {"default": "middle"}})
    code, out, _ = run(
        capsys, "--format", "json", "vershik", "classify", "--family", "ak", "--a", "4", "--k", "2", "--tags", tags
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["borel_extension"] is True
    assert doc["homeomorphism"] == "no-quasi-stationary"


def test_vershik_tag_below_index_one_is_a_config_error(capsys):
    tags = json.dumps({"tags": {"default": "right", "-3": "left"}})
    code, out, err = run(
        capsys, "vershik", "classify", "--family", "ak", "--a", "4", "--k", "2", "--tags", tags, "--imax", "3"
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert "tag indices need index >= 1" in err


def test_explicit_levels_vertex_below_one_is_a_config_error(capsys):
    doc = json.dumps({"family": "explicit-levels", "params": {"levels": [[[1, -5, 1]]]}})
    code, out, err = run(
        capsys, "diagram", "heights", "--spec-json", doc, "--level", "1", "--max-level", "1", "--max-vertex", "2"
    )
    assert (code, out) == (EXIT_CONFIG, "")
    assert "explicit-levels vertex indices start at 1" in err


def test_vershik_tags_shorthand(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "vershik", "classify", "--family", "ak", "--a", "4", "--k", "2",
        "--tags", "all-left",
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["i_fr"] == "aleph0" and doc["i_fl"] == 0
    assert doc["borel_extension"] is False and doc["homeomorphism"] == "no"


def test_vershik_orbit_csv(capsys):
    tags = json.dumps({"kind": "quasiStationary", "tags": {"default": "middle"}})
    code, out, _ = run(
        capsys, "--format", "csv", "vershik", "orbit", "--family", "ak", "--a", "4", "--k", "2",
        "--tags", tags, "--steps", "10", "--levels", "2",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "step,end_vertex_level_1,end_vertex_level_2"
    assert len(lines) == 11


def test_vershik_orbit_reports_the_path_vertex_at_each_level(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "vershik", "orbit", "--family", "ak", "--a", "3", "--k", "1",
        "--tags", "all-middle", "--steps", "8", "--levels", "4", "--start-odometer", "3",
    )
    assert code == EXIT_OK
    # a path that starts above vertex 3 comes down to it by diagonal edges: steps 3-5 are at vertex 4 on level 1
    assert out.splitlines()[1:] == [
        "0,3,3,3,3", "1,3,3,3,3", "2,3,3,3,3", "3,4,3,3,3", "4,4,3,3,3", "5,4,3,3,3", "6,3,3,3,3", "7,3,3,3,3"
    ]


def test_check_invariance(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "measure", "check-invariance", "--family", "ak", "--a", "4", "--k", "2"
    )
    assert code == EXIT_OK
    assert json.loads(out)["ok"] is True


def test_check_invariance_user_vectors(capsys, tmp_path):
    vectors = {"vectors": {"0": {"1": "1", "2": "1"}, "1": {"1": "1", "2": "1"}}}
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps(vectors))
    code, out, _ = run(
        capsys, "--format", "json", "measure", "check-invariance", "--family", "ak", "--a", "4", "--k", "2",
        "--vectors", str(path), "--max-level", "1", "--max-vertex", "2",
    )
    assert code == EXIT_UNCERTIFIED
    assert json.loads(out)["ok"] is False


def _check_one_vector_entry(capsys, entry):
    """check-invariance of p^(0)_1 = 1 and p^(1)_1 = ``entry`` on ak(4, 2), whose relation needs 1/4."""
    vectors = json.dumps({"vectors": {"0": {"1": 1}, "1": {"1": entry}}})
    return run(
        capsys, "--format", "json", "measure", "check-invariance", "--family", "ak", "--a", "4", "--k", "2",
        "--vectors", vectors,
    )


@pytest.mark.parametrize("entry, rule", [
    (None, "must be a number or a 'num/den' string, not null"),
    (True, "must be a number or a 'num/den' string, not true"),
    ([1], "must be a number or a 'num/den' string, not [1]"),
    ({"a": 1}, 'must be a number or a \'num/den\' string, not {"a": 1}'),
    ("1/0", "is not a finite rational: '1/0'"),
    (float("inf"), "is not a finite rational: inf"),
], ids=["null", "true", "list", "object", "zero-denominator", "infinity"])
def test_vector_entries_that_are_not_numbers_are_config_errors(capsys, entry, rule):
    code, out, err = _check_one_vector_entry(capsys, entry)
    assert (code, out) == (EXIT_CONFIG, "")
    assert f"--vectors entry at (level=1, vertex=1) {rule}" in err


@pytest.mark.parametrize("entry, ok", [(0.25, True), ("1/4", True), ("0.25", True), (1, False), ("2/8", True)])
def test_vector_entries_read_ints_floats_and_fraction_strings(capsys, entry, ok):
    code, out, _ = _check_one_vector_entry(capsys, entry)
    assert code == (EXIT_OK if ok else EXIT_UNCERTIFIED)
    assert (json.loads(out)["ok"], json.loads(out)["checked_rows"]) == (ok, 1)


@pytest.mark.parametrize("default", ["5", "2.5", "true"])
@pytest.mark.parametrize("command", [["classify", "--imax", "3"], ["orbit", "--steps", "5"]])
def test_order_default_that_is_not_a_tag_or_a_list_is_a_config_error(capsys, command, default):
    tags = '{"tags":{"default":%s}}' % default
    code, out, err = run(capsys, "vershik", *command, "--family", "ak", "--a", "4", "--k", "2", "--tags", tags)
    assert (code, out) == (EXIT_CONFIG, "")
    assert "the order default must be a tag or a list of tags" in err


def test_undetermined_exit_code(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "measure", "extend", "--family", "general-chain",
        "--entries", "[[0,1,3]]", "--i", "1",
    )
    assert code == EXIT_UNCERTIFIED


def test_short_term_lists_are_undetermined(capsys):
    # max_terms stops before the first term a certificate checks: the exact
    # partial sum of the terms computed comes back undetermined (exit 3)
    code, out, err = run(
        capsys, "--format", "csv", "measure", "classify", "--family", "nonstat-uniform",
        "--an", "table:3,7,2:constant:3", "--imax", "1", "--max-terms", "2",
    )
    assert (code, err) == (EXIT_UNCERTIFIED, "")
    assert out.splitlines()[1] == "1,undetermined,32/21,,2,"  # 1 + 1/3 + 4/21
    code, out, err = run(
        capsys, "--format", "json", "measure", "cylinder", "--family", "ak", "--a", "7", "--k", "3", "--i", "2",
        "--cylinders", "(0,3)", "--max-terms", "0",
    )
    assert (code, err) == (EXIT_UNCERTIFIED, "")
    value = json.loads(out)["entries"][0]["value"]
    assert value["status"] == "undetermined" and value["partial_sum"]["exact"] == "0/1"


def test_climbs_past_the_term_budget_are_undetermined(capsys):
    # odometer 1 (a_1 = 5) climbs two diagonal steps to vertex 4 (a_4 = 6): the
    # climb bound checks terms from n = 2 on, so --max-terms 2 checks none
    chain = ("--family", "decreasing", "--diagonal", "table:5,3,3,6:constant:2")
    short = "maxTerms too small to reach the first term the certificate checks"
    for budget, code_want, status, cert in [
        ("2", EXIT_UNCERTIFIED, "undetermined", short),
        ("3", EXIT_OK, "infinite", "climb-lower-bound"),
    ]:
        code, out, err = run(capsys, "--format", "json", "measure", "extend", *chain, "--i", "1", "--max-terms", budget)
        assert (code, err) == (code_want, "")
        mass = json.loads(out)["mass"]
        assert (mass["status"], mass["certificate"]) == (status, cert)
        code, out, err = run(
            capsys, "--format", "json", "measure", "cylinder", *chain, "--i", "1", "--cylinders", "(0,4)",
            "--max-terms", budget,
        )
        assert (code, err) == (code_want, "")
        value = json.loads(out)["entries"][0]["value"]
        assert (value["status"], value["certificate"]) == (status, cert)
    code, out, _ = run(capsys, "--format", "csv", "measure", "classify", *chain, "--imax", "1", "--max-terms", "2")
    assert out.splitlines()[1] == "1,undetermined,34/25,,2,"  # 1 + 1/5 + 4/25


def test_level_series_budgets_below_the_tail_certificate_are_undetermined(capsys):
    short = "maxTerms too small to reach the first term the certificate checks"
    # the comparison bound on the polynomial tail sums to 1 after three terms (one tail level), 1/2 after four
    chain = ("--family", "nonstat-uniform", "--an", "table:5,7:poly:2,2,1", "--i", "1")
    for budget, code_want, status, cert, used in [
        ("3", EXIT_UNCERTIFIED, "undetermined", short, 3),
        ("4", EXIT_OK, "finite", "comparison-integral-tail", 4),
    ]:
        code, out, err = run(capsys, "--format", "json", "measure", "extend", *chain, "--max-terms", budget)
        assert (code, err) == (code_want, "")
        mass = json.loads(out)["mass"]
        assert (mass["status"], mass["certificate"], mass["terms_used"]) == (status, cert, used)
    # cylinder (0, 9) of odometer 1 is c e_8(...), a tail series of 8 terms, past a budget of 5; (0, 3) has 2
    code, out, err = run(
        capsys, "--format", "json", "measure", "cylinder", "--family", "nonstat-uniform", "--an", "geometric:2,2",
        "--i", "1", "--cylinders", "(0,9);(0,3)", "--max-terms", "5",
    )
    assert (code, err) == (EXIT_UNCERTIFIED, "")
    far, near = (entry["value"] for entry in json.loads(out)["entries"])
    assert (far["status"], far["certificate"]) == ("undetermined", short)
    assert (near["status"], near["exact_value"]["exact"]) == ("finite", "1/3")


def test_long_exact_values_print_in_full(capsys):
    from bratteli.diagram import StationaryAK
    from bratteli.extension import extended_cylinder_measure
    from bratteli.measure import EndVertex

    # denominators of 4816 digits, past the interpreter's 4300-digit int-to-str limit
    code, out, err = run(capsys, "--format", "json", "measure", "cylinder", *AK, "--cylinders", "(0,8000)")
    assert (code, err) == (EXIT_OK, "")
    partial = json.loads(out)["entries"][0]["value"]["partial_sum"]["exact"]
    assert len(partial.partition("/")[2]) > 4300
    expected = extended_cylinder_measure(StationaryAK(4, 2), 1, EndVertex(0, 8000)).partial_sum
    assert fr_str(expected) == partial


def test_climbs_past_the_int_digit_limit(capsys):
    # climb bounds 1/(g^(m+n0) a_i) of more digits than the interpreter's
    # int-to-str limit: a climb past the term budget writes no witness (exit 3),
    # and a certified one prints its bound in full (exit 0)
    short = "maxTerms too small to reach the first term the certificate checks"
    increasing = ("--format", "json", "measure", "cylinder", "--family", "increasing", "--cylinders")
    code, out, err = run(capsys, *increasing, "(0,2000)")
    assert (code, err) == (EXIT_UNCERTIFIED, "")
    value = json.loads(out)["entries"][0]["value"]
    assert (value["status"], value["certificate"]) == ("undetermined", short)
    code, out, err = run(capsys, *increasing, "(7200,3)")
    assert (code, err) == (EXIT_OK, "")
    value = json.loads(out)["entries"][0]["value"]
    assert (value["status"], value["certificate"]) == ("infinite", "climb-lower-bound")
    assert len(value["divergence_witness"]) > 4300
    assert value["divergence_witness"].endswith("for n >= 7201")
    diagonal = "table:3," + "2," * 9100 + "3:constant:2"
    code, out, err = run(
        capsys, "--format", "json", "measure", "extend", "--family", "decreasing", "--diagonal", diagonal,
        "--max-terms", "20",
    )
    assert (code, err) == (EXIT_UNCERTIFIED, "")
    mass = json.loads(out)["mass"]
    assert (mass["status"], mass["certificate"]) == ("undetermined", short)


def test_long_telescoped_multiplicities_print_in_full(capsys):
    # 44 levels of multiplicity 10^100 collapse to one of 10^4400: 4401 digits,
    # past the interpreter's int-to-str limit; JSON keeps it an integer
    big = "1" + "0" * 4400
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    args = (
        "telescope", "--family", "nonstat-uniform", "--an", "constant:1" + "0" * 100,
        "--breakpoints", "0,44", "--max-level", "44", "--max-vertex", "46",
    )
    code, out, err = run(capsys, "--format", "json", *args)
    assert (code, err) == (EXIT_OK, "")
    assert f" {big}\n" in out
    code, out, err = run(capsys, "--format", "csv", *args)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1] == f"0,1,1,{big}"
    if hasattr(sys, "get_int_max_str_digits"):  # the limit is back once the report is printed
        assert sys.get_int_max_str_digits() == limit


def test_certificate_error_is_internal(capsys, monkeypatch):
    from bratteli.extension import CertificateError

    def broken(*_):
        raise CertificateError("terms decrease at n=3")

    monkeypatch.setattr(cli, "cmd_measure_classify", broken)
    code, _, err = run(capsys, "measure", "classify", "--family", "ak", "--a", "4", "--k", "2")
    assert code == EXIT_INTERNAL
    assert err.startswith("internal error: terms decrease")


def test_config_file(capsys, tmp_path):
    cfg = {
        "command": "measure classify",
        "format": "json",
        "options": {"family": "ak", "a": 4, "k": 2, "imax": 2},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "--config", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["finite_odometers"] == [1]


def test_command_line_format_applies_unless_the_config_names_one(capsys, tmp_path):
    options = {"family": "ak", "a": 4, "k": 2, "imax": 2}
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"command": "measure classify", "options": options}))
    code, out, _ = run(capsys, "--format", "json", "--config", str(plain))
    assert code == EXIT_OK
    assert json.loads(out)["finite_odometers"] == [1]
    code, out, _ = run(capsys, "--format", "csv", "--config", str(plain))
    assert out.splitlines()[0] == "i,status,partial_sum,tail_bound,terms_used,normalized_mass"
    own = tmp_path / "own.json"
    own.write_text(json.dumps({"command": "measure classify", "format": "json", "options": options}))
    code, out, _ = run(capsys, "--format", "csv", "--config", str(own))
    assert json.loads(out)["finite_odometers"] == [1]


def test_both_spellings_of_the_nonstationary_family(capsys):
    reports = []
    for family in ("nonstat-uniform", "nonstationary-uniform"):
        code, out, _ = run(
            capsys, "--format", "json", "measure", "classify", "--family", family, "--an", "constant:2", "--imax", "2"
        )
        assert code == EXIT_OK
        reports.append(out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["family"]["family"] == "nonstationary-uniform"
    code, _, err = run(capsys, "diagram", "show", "--family", "nonstationary-uniform")
    assert code == EXIT_CONFIG and "nonstationary-uniform family needs --an" in err


def test_config_errors(capsys):
    code, _, err = run(capsys, "measure", "classify", "--family", "ak", "--a", "4")
    assert code == EXIT_CONFIG
    assert "needs" in err
    code, _, err = run(capsys, "--config", "/nonexistent/file.json")
    assert code == EXIT_CONFIG
    empty_cycle = json.dumps({"kind": "quasiStationary", "tags": {"default": []}})
    code, _, err = run(capsys, "vershik", "classify", *AK, "--tags", empty_cycle)
    assert code == EXIT_CONFIG and "default tag cycle" in err
    # past --max-level the orbit's paths have no edges to report
    code, out, err = run(capsys, "vershik", "orbit", *AK, "--tags", "all-left", "--max-level", "4", "--levels", "5")
    assert code == EXIT_CONFIG and not out
    assert "--levels 5" in err and "max level 4" in err


def test_odometer_index_below_one_is_a_config_error(capsys):
    decreasing = ["--family", "decreasing", "--diagonal", "table:5,3:constant:2"]
    for family, i in ((["--family", "ak", "--a", "4", "--k", "2"], "0"), (decreasing, "-1")):
        code, out, err = run(capsys, "measure", "cylinder", *family, "--i", i, "--cylinders", "(0,1);(0,2)")
        assert code == EXIT_CONFIG and not out
        assert "odometer index must be >= 1" in err


def test_tailless_diagonals_need_only_the_dependence_cone(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "diagram", "heights", "--family", "decreasing", "--diagonal", "table:2,5,3",
        "--level", "1", "--max-vertex", "3",
    )
    assert code == EXIT_OK
    assert json.loads(out)["heights"] == {"1": "3", "2": "6", "3": "4"}
    code, out, _ = run(
        capsys, "--format", "json", "measure", "extend", "--family", "decreasing", "--diagonal", "table:2,5",
        "--max-terms", "2",
    )
    assert code == EXIT_OK
    assert json.loads(out)["mass"]["terms_used"] == 2


def test_finite_matrix_without_outgoing_edges_is_a_config_error(capsys):
    code, out, err = run(capsys, "finite", "classify", "--matrix", "[[1,1],[0,0]]")
    assert code == EXIT_CONFIG and not out
    assert "vertex 2 has no outgoing edges" in err


@pytest.mark.parametrize("entries", ['[[0,1,"3"]]', "[[0,1,2.5]]", "[[0,0,3]]", "[[-1,1,3]]", "[[0,1,true]]", "5"])
def test_malformed_general_chain_entries_are_config_errors(capsys, entries):
    flags = ["--family", "general-chain", "--entries", entries]
    spec_json = ["--spec-json", json.dumps({"family": "general-chain", "params": {"entries": json.loads(entries)}})]
    errors = set()
    for source in (flags, spec_json):
        code, out, err = run(capsys, "diagram", "heights", *source, "--level", "2", "--max-vertex", "3")
        assert code == EXIT_CONFIG and not out
        assert err.startswith("error: general-chain entr")
        errors.add(err)
    assert len(errors) == 1  # both paths reject the entry alike


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == EXIT_CONFIG
    assert "usage" in out.lower()


def test_spec_json_round_trip(capsys, tmp_path):
    doc = {
        "family": "decreasing",
        "params": {"diagonal": {"kind": "table", "values": [5, 3], "tail": {"kind": "constant", "value": 2}}},
        "truncation": {"maxLevel": 10, "maxVertex": 8},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "--format", "json", "measure", "extend", "--spec-json", str(path), "--i", "1")
    assert code == EXIT_OK
    body = json.loads(out)
    assert body["mass"]["status"] == "finite"


AK = ["--family", "ak", "--a", "4", "--k", "2"]
# every subcommand on a small input, with the header of its csv form
EVERY_COMMAND = {
    "diagram show": (AK + ["--max-vertex", "4"], "row,col,multiplicity"),
    "diagram heights": (AK + ["--level", "2", "--max-vertex", "4"], "vertex,height"),
    "telescope": (AK + ["--breakpoints", "0,2", "--max-vertex", "4"], "level,row,col,multiplicity"),
    "measure classify": (AK + ["--imax", "2"], "i,status,partial_sum,tail_bound,terms_used,normalized_mass"),
    "measure extend": (AK + ["--trace", "3"], "n,term,partial_sum"),
    "measure cylinder": (AK + ["--cylinders", "(0,2);(1,1)"], "m,j,status,value"),
    "measure check-invariance": (AK + ["--max-level", "3", "--max-vertex", "4"], "level,vertex"),
    "eigen verify": (AK + ["--rows", "20"], "row,residual"),
    "eigen measure": (AK + ["--cylinders", "(0,2);(1,1)"], "m,j,value,decimal"),
    "eigen compare": (AK + ["--mmax", "1", "--jmax", "2"], "m,j,eigen_value,verdict"),
    "finite classify": (["--matrix", "[[3,0],[1,2]]"], "class,vertices,radius_lo,radius_hi,distinguished"),
    "vershik classify": (AK + ["--tags", "all-left", "--imax", "3"], "i,finite_right,finite_left"),
    "vershik orbit": (
        AK + ["--tags", "alternating", "--steps", "5", "--levels", "2"],
        "step,end_vertex_level_1,end_vertex_level_2",
    ),
}


# sha256 of the stdout and exit code of every EVERY_COMMAND run in every format
EVERY_COMMAND_DIGEST = "a07067a85ede0eb3dfdca999cb63acc17a1cf7afea315b3e6848b0b8fb52a5e9"


def test_every_command_is_tested(capsys):
    assert set(EVERY_COMMAND) == set(cli.COMMANDS)
    digest = hashlib.sha256()
    for command, (argv, _) in EVERY_COMMAND.items():
        for fmt in ("human", "json", "csv"):
            code, out, _ = run(capsys, "--format", fmt, *command.split(), *argv)
            digest.update(f"{command} {fmt} {code}\n{out}\n".encode())
    assert digest.hexdigest() == EVERY_COMMAND_DIGEST


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("command", list(EVERY_COMMAND))
def test_every_command_in_every_format(capsys, command, fmt):
    argv, header = EVERY_COMMAND[command]
    code, out, err = run(capsys, "--format", fmt, *command.split(), *argv)
    assert code in (EXIT_OK, EXIT_UNCERTIFIED), err
    if fmt == "json":
        doc = json.loads(out)
        assert doc["command"] == command
        assert ("family" in doc) == (command != "finite classify")
    elif fmt == "csv":
        assert out.splitlines()[0] == header
    else:
        assert out.strip()


def test_a_cylinder_that_is_not_a_pair_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "cylinder", *AK, "--cylinders", "(3)"])
    assert exc.value.code == EXIT_CONFIG
    assert "argument --cylinders: '(3)' is not an (m,j) pair" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["measure", "cylinder", *AK, "--cylinders", ";"], "error: no cylinders given"),
    (["eigen", "measure", *AK], "error: eigen measure needs --request or --cylinders"),
    (["measure", "classify"], "error: no diagram family given (use --family or --spec-json)"),
])
def test_missing_inputs_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert message in err


def test_config_commands_as_lists_and_true_flags(capsys, tmp_path):
    path = tmp_path / "run.json"
    options = {"family": "ak", "a": 4, "k": 2, "level": 2, "max_vertex": 3, "verify_bruteforce": True}
    path.write_text(json.dumps({"command": ["diagram", "heights"], "format": "json", "options": options}))
    code, out, _ = run(capsys, "--config", str(path))
    report = json.loads(out)
    assert code == EXIT_OK and report["command"] == "diagram heights"
    assert report["bruteforce"] == {"1": "23", "2": "9", "3": "9"} and report["bruteforce_mismatches"] == []
    path.write_text(json.dumps({"command": 5, "options": options}))
    code, out, err = run(capsys, "--config", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert "config error: config needs a 'command' string or list" in err


def test_bruteforce_heights_past_the_work_budget_report_no_mismatches(capsys, monkeypatch):
    monkeypatch.setenv("BRATTELI_MAX_WORK", "5")
    args = ["--format", "json", "diagram", "heights", *AK, "--level", "2", "--max-vertex", "3", "--verify-bruteforce"]
    code, out, _ = run(capsys, *args)
    report = json.loads(out)
    assert code == EXIT_OK
    assert report["bruteforce"] == dict.fromkeys(("1", "2", "3"), "budget-exceeded")
    assert report["bruteforce_mismatches"] == []


def test_orbit_stops_at_its_all_maximal_prefix(capsys):
    argv = ["--format", "json", "vershik", "orbit", "--family", "ak", "--a", "3", "--k", "2", "--tags", "all-left"]
    code, out, _ = run(capsys, *argv, "--max-level", "2", "--levels", "2", "--steps", "100")
    report = json.loads(out)
    assert code == EXIT_OK
    assert report["steps"] == len(report["trace"]) == 11


# sha256 prefix of the stdout and exit code in human, json and csv of one
# vershik orbit: ak(4,2), 300 steps, --max-level 4, per (tags, --start-odometer,
# --levels); from odometer 3 the orbits reach their all-maximal path first
ORBIT_DIGESTS = {
    ("all-left", 1, 1): "37ab45f1cb5ace73", ("all-left", 1, 3): "e9bd1293437ff481", ("all-left", 1, 4): "ab501db2b83c2098",
    ("all-left", 3, 1): "ab9dd00f40bf9946", ("all-left", 3, 3): "7eddb952e2065c53", ("all-left", 3, 4): "894dc1d349bc52f6",
    ("all-right", 1, 1): "073979dd80b79c1b", ("all-right", 1, 3): "72961fec79b61262", ("all-right", 1, 4): "47d9af1903aaaefa",
    ("all-right", 3, 1): "315f61b675c17bfc", ("all-right", 3, 3): "fa8eeabb1c325241", ("all-right", 3, 4): "ab36eb8b971cc80c",
    ("all-middle", 1, 1): "56647be81c266065", ("all-middle", 1, 3): "5999933e49e8b97e", ("all-middle", 1, 4): "a0af32bc2fda57ea",
    ("all-middle", 3, 1): "4c971193d0e2e70c", ("all-middle", 3, 3): "2f0410ecc47d03c6", ("all-middle", 3, 4): "70393676112de013",
    ("alternating", 1, 1): "32ada22a6f84c16a", ("alternating", 1, 3): "ac379ac6c7194c2a", ("alternating", 1, 4): "8463fe10d85d5e43",
    ("alternating", 3, 1): "b0bb54d44e780110", ("alternating", 3, 3): "b8b8879baf340f9b", ("alternating", 3, 4): "3a29556992531bbb",
}


@pytest.mark.parametrize("tags, start, levels", list(ORBIT_DIGESTS))
def test_vershik_orbit_reports_are_pinned(capsys, tags, start, levels):
    digest = hashlib.sha256()
    for fmt in ("human", "json", "csv"):
        argv = ["--format", fmt, "vershik", "orbit", *AK, "--tags", tags, "--steps", "300", "--max-level", "4"]
        code, out, _ = run(capsys, *argv, "--levels", str(levels), "--start-odometer", str(start))
        digest.update(f"{fmt} {code}\n{out}\n".encode())
        if fmt == "json":
            assert json.loads(out)["steps"] == (300 if start == 1 else 81 if tags in ("all-right", "all-middle") else 41)
    assert digest.hexdigest()[:16] == ORBIT_DIGESTS[tags, start, levels]


def test_a_zero_step_orbit_keeps_its_csv_header(capsys):
    # the end-vertex columns come from --levels, not from the (empty) trace
    code, out, _ = run(capsys, "--format", "csv", "vershik", "orbit", *AK, "--tags", "all-left", "--steps", "0", "--levels", "3")
    assert (code, out) == (EXIT_OK, "step,end_vertex_level_1,end_vertex_level_2,end_vertex_level_3\n")


def test_size_flags_are_bounded_by_the_work_budget(capsys, monkeypatch):
    monkeypatch.setenv("BRATTELI_MAX_WORK", "50")
    orbit = ["vershik", "orbit", *AK, "--tags", "all-left"]
    cases = [
        (orbit, "--steps", "{}"),
        (orbit + ["--max-level", "50"], "--levels", "{}"),
        (["diagram", "show", *AK], "--max-vertex", "{}"),
        (["measure", "classify", *AK], "--imax", "{}"),
        (["vershik", "classify", *AK, "--tags", "all-left"], "--imax", "{}"),
        (["eigen", "compare", *AK], "--mmax", "{}"),
        (["eigen", "compare", *AK], "--jmax", "{}"),
        # both numbers of every (m, j) pair
        (["measure", "cylinder", *AK], "--cylinders", "(0,{})"),
        (["eigen", "measure", *AK], "--cylinders", "(1,1);({},2)"),
        (["telescope", *AK, "--max-level", "50", "--max-vertex", "50"], "--breakpoints", "0,1,{}"),
    ]
    for argv, flag, form in cases:
        assert run(capsys, *argv, flag, form.format(50))[0] == EXIT_OK
        for value in ("51", "-1"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, flag, form.format(value)])
            assert exc.value.code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"argument {flag}" in err and "BRATTELI_MAX_WORK" in err


def test_request_cylinders_are_bounded_by_the_work_budget(capsys, monkeypatch):
    monkeypatch.setenv("BRATTELI_MAX_WORK", "10")
    argv = ["eigen", "measure", *AK, "--request"]
    code, out, err = run(capsys, *argv, json.dumps({"cylinders": [[20000, 2]]}))
    assert (code, out) == (EXIT_CONFIG, "")
    assert "--request" in err and "BRATTELI_MAX_WORK" in err
    assert run(capsys, *argv, json.dumps({"cylinders": [[10, 2]]}))[0] == EXIT_OK


def test_level_indexed_cylinders_are_certified(capsys):
    code, out, err = run(
        capsys, "--format", "json", "measure", "cylinder", "--family", "nonstat-uniform", "--an", "geometric:2,2",
        "--cylinders", "(0,3);(1,4)",
    )
    assert (code, err) == (EXIT_OK, "")
    values = [e["value"] for e in json.loads(out)["entries"]]
    assert values[0]["certificate"] == "geometric-exact" and values[0]["exact_value"]["exact"] == "1/3"
    # (1/a_0) e_3(1/4, 1/8, ...) = (1/2) (1/4)^3 (1/2)^3 / ((1 - 1/2)(1 - 1/4)(1 - 1/8)) = 1/336
    assert values[1]["exact_value"]["exact"] == "1/336"


SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def _modules_after(*argv):
    """Modules loaded by a fresh interpreter that runs ``cli.main(argv)``."""
    code = (
        "import sys\nfrom bratteli import cli\n"
        f"code = cli.main({list(argv)!r})\n"
        "print(' '.join(sorted(sys.modules)), file=sys.stderr)\nsys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_each_command_loads_only_the_layers_it_uses():
    # value classes share their methods instead of generating them with dataclasses,
    # which would load inspect, ast and dis as well
    loaded = _modules_after("diagram", "show", *AK)
    assert {"bratteli.cli", "bratteli.diagram", "bratteli.sequences"} <= loaded
    for module in (
        "bratteli.extension", "bratteli.orders", "bratteli.spectral", "bratteli.finite_stationary", "numpy",
        "dataclasses", "inspect",
    ):
        assert module not in loaded
    loaded = _modules_after("eigen", "verify", *AK, "--rows", "5")
    assert "bratteli.spectral" in loaded and "bratteli.extension" not in loaded
    loaded = _modules_after("measure", "classify", *AK)
    assert "bratteli.extension" in loaded
    assert not loaded & {"dataclasses", "inspect"}
    # exact Perron brackets: finite classify runs without numpy
    loaded = _modules_after("finite", "classify", "--matrix", "[[2,1],[1,2]]")
    assert "bratteli.finite_stationary" in loaded
    assert not loaded & {"numpy", "dataclasses", "inspect"}


def test_closed_pipe_exits_quietly():
    argv = ["--format", "json", "vershik", "orbit", *AK, "--tags", "all-left", "--steps", "2000", "--levels", "6"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "bratteli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SRC_ENV
    )
    # the report is far larger than a pipe buffer, so the writer is still busy
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert err == b""


def _spec_json(family, params, **extra):
    return ["--spec-json", json.dumps({"family": family, "params": params, **extra})]


def _exit_code(capsys, *argv):
    """Exit code and stdout of ``main(argv)``, an argparse rejection included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


HEIGHTS = ["diagram", "heights", "--level", "2"]
DECREASING = {"kind": "table", "values": [5, 3], "tail": {"kind": "constant", "value": 2}}
# a JSON number that is not an int -> (the command reading it, the same number
# through flags or None when no flag takes it, the command with an int there)
NON_INT_NUMBERS = {
    "matrix-float": (
        ["finite", "classify", "--matrix", "[[2.7,1],[1,2]]"],
        None,
        ["finite", "classify", "--matrix", "[[2,1],[1,2]]"],
    ),
    "matrix-bool": (
        ["finite", "classify", "--matrix", "[[true,1],[1,2]]"],
        None,
        ["finite", "classify", "--matrix", "[[1,1],[1,2]]"],
    ),
    "explicit-finite": (
        HEIGHTS + _spec_json("explicit-finite", {"matrix": [[2.7, 1], [1, 2]]}),
        None,
        HEIGHTS + _spec_json("explicit-finite", {"matrix": [[2, 1], [1, 2]]}),
    ),
    "explicit-levels": (
        HEIGHTS + _spec_json("explicit-levels", {"levels": [[[1, 1, 2.5]], [[1, 1, 3]]]}),
        None,
        HEIGHTS + _spec_json("explicit-levels", {"levels": [[[1, 1, 2]], [[1, 1, 3]]]}),
    ),
    "ak-float": (
        HEIGHTS + _spec_json("ak", {"a": 4.5, "k": 2}),
        HEIGHTS + ["--family", "ak", "--a", "4.5", "--k", "2"],
        HEIGHTS + _spec_json("ak", {"a": 4, "k": 2}),
    ),
    "ak-string": (HEIGHTS + _spec_json("ak", {"a": "4", "k": 2}), None, HEIGHTS + _spec_json("ak", {"a": 4, "k": 2})),
    "ak-bool": (HEIGHTS + _spec_json("ak", {"a": 4, "k": True}), None, HEIGHTS + _spec_json("ak", {"a": 4, "k": 1})),
    "general-chain-default": (
        HEIGHTS + _spec_json("general-chain", {"default": 2.5}),
        HEIGHTS + ["--family", "general-chain", "--default", "2.5"],
        HEIGHTS + _spec_json("general-chain", {"default": 2}),
    ),
    "table-values": (
        HEIGHTS + _spec_json("decreasing", {"diagonal": {**DECREASING, "values": [5, 3.9]}}),
        HEIGHTS + ["--family", "decreasing", "--diagonal", "table:5,3.9:constant:2"],
        HEIGHTS + _spec_json("decreasing", {"diagonal": DECREASING}),
    ),
    "table-tail": (
        HEIGHTS + _spec_json("decreasing", {"diagonal": {**DECREASING, "tail": {"kind": "constant", "value": 2.5}}}),
        HEIGHTS + ["--family", "decreasing", "--diagonal", "table:5,3:constant:2.5"],
        HEIGHTS + _spec_json("decreasing", {"diagonal": DECREASING}),
    ),
    "geometric-base": (
        HEIGHTS + _spec_json("nonstationary-uniform", {"levels": {"kind": "geometric", "base": 2.9, "ratio": 2}}),
        HEIGHTS + ["--family", "nonstat-uniform", "--an", "geometric:2.9,2"],
        HEIGHTS + _spec_json("nonstationary-uniform", {"levels": {"kind": "geometric", "base": 2, "ratio": 2}}),
    ),
    "max-level": (
        HEIGHTS + _spec_json("ak", {"a": 4, "k": 2}, truncation={"maxLevel": 4.7, "maxVertex": 6}),
        HEIGHTS + ["--family", "ak", "--a", "4", "--k", "2", "--max-level", "4.7"],
        HEIGHTS + _spec_json("ak", {"a": 4, "k": 2}, truncation={"maxLevel": 4, "maxVertex": 6}),
    ),
    "request-float": (
        ["eigen", "measure", *AK, "--request", '{"cylinders": [[2.5, 2]]}'],
        ["eigen", "measure", *AK, "--cylinders", "(2.5,2)"],
        ["eigen", "measure", *AK, "--request", '{"cylinders": [[2, 2]]}'],
    ),
    "request-bool": (
        ["eigen", "measure", *AK, "--request", '{"cylinders": [[true, 2]]}'],
        None,
        ["eigen", "measure", *AK, "--request", '{"cylinders": [[1, 2]]}'],
    ),
}


@pytest.mark.parametrize("case", list(NON_INT_NUMBERS))
def test_non_int_json_numbers_exit_2_like_their_flags(capsys, case):
    json_argv, flag_argv, int_argv = NON_INT_NUMBERS[case]
    assert _exit_code(capsys, *json_argv) == (EXIT_CONFIG, "")
    if flag_argv is not None:
        assert _exit_code(capsys, *flag_argv) == (EXIT_CONFIG, "")
    assert _exit_code(capsys, *int_argv)[0] == EXIT_OK


# a JSON number where a list belongs -> (the command reading it, the part its message names)
NUMBERS_FOR_LISTS = {
    "matrix-row": (["finite", "classify", "--matrix", "[1,2]"], "matrix row: 1 is not a list"),
    "request-cylinder": (
        ["eigen", "measure", *AK, "--request", '{"cylinders": [5]}'],
        "--request cylinder: 5 is not a list of 2",
    ),
    "explicit-levels-entry": (
        HEIGHTS + _spec_json("explicit-levels", {"levels": [[5]]}),
        "explicit-levels entry: 5 is not a list of 3",
    ),
    "polynomial-coeffs": (
        ["diagram", "show", *_spec_json("decreasing", {"diagonal": {"kind": "polynomial", "coeffs": 5}})],
        "polynomial sequence coeffs: 5 is not a list",
    ),
    "table-values": (
        ["diagram", "show", *_spec_json("decreasing", {"diagonal": {"kind": "table", "values": 5}})],
        "table sequence values: 5 is not a list",
    ),
    "table-tail-coeffs": (
        ["diagram", "show", *_spec_json("decreasing", {"diagonal": {**DECREASING, "tail": {"kind": "polynomial", "coeffs": 7}}})],
        "polynomial sequence coeffs: 7 is not a list",
    ),
}


@pytest.mark.parametrize("case", list(NUMBERS_FOR_LISTS))
def test_json_numbers_where_lists_belong_exit_2(capsys, case):
    argv, message = NUMBERS_FOR_LISTS[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert message in err and "internal error" not in err


def test_finite_classify_decides_tied_radii(capsys):
    code, out, _ = run(capsys, "--format", "json", "finite", "classify", "--matrix", "[[2,1],[0,2]]")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [c["radius"] for c in doc["classes"]] == [{"lo": 2.0, "hi": 2.0}] * 2
    assert [c["distinguished"] for c in doc["classes"]] == [True, False]
    assert [(m["class"], m["lambda"], m["xi_normalized"]) for m in doc["measures"]] == [(0, 2.0, [1.0, 0.0])]


def test_failed_finite_eigen_check_is_an_internal_error(capsys, monkeypatch):
    # after an exact bracket, a residual check that fails is the library's fault, not the input's
    from bratteli import finite_stationary as fs

    monkeypatch.setattr(fs, "_perron_vector", lambda block, radius: [1.0, 0.5])
    code, out, err = run(capsys, "finite", "classify", "--matrix", "[[1,1],[1,1]]")
    assert (code, out) == (EXIT_INTERNAL, "")
    assert "internal error: eigen residual" in err


# a JSON list where an object belongs -> (the command reading it, the part its message names)
LISTS_FOR_OBJECTS = {
    "spec-json": (HEIGHTS + ["--spec-json", "[1]"], "diagram document: [1] is not an object"),
    "params": (HEIGHTS + _spec_json("ak", [1]), "params: [1] is not an object"),
    "truncation": (
        HEIGHTS + _spec_json("ak", {"a": 4, "k": 2}, truncation=[1]),
        "truncation: [1] is not an object",
    ),
    "diagonal": (HEIGHTS + _spec_json("decreasing", {"diagonal": [1]}), "sequence: [1] is not an object"),
    "request": (["eigen", "measure", *AK, "--request", "[1]"], "--request: [1] is not an object"),
    "vectors": (["measure", "check-invariance", *AK, "--vectors", '{"vectors": [1]}'], "--vectors vectors: [1]"),
    "tags": (["vershik", "classify", *AK, "--tags", '{"tags": [1]}'], "order tags: [1] is not an object"),
}


@pytest.mark.parametrize("case", list(LISTS_FOR_OBJECTS))
def test_json_lists_where_objects_belong_exit_2(capsys, case):
    argv, message = LISTS_FOR_OBJECTS[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert message in err and "internal error" not in err


# a JSON document missing a key or with a key that is not an integer -> (the command, its whole error line)
BAD_DOCUMENT_KEYS = {
    "request-missing": (["eigen", "measure", *AK, "--request", "{}"], '--request: missing key "cylinders"'),
    "vectors-missing": (["measure", "check-invariance", *AK, "--vectors", "{}"], '--vectors: missing key "vectors"'),
    "vectors-level": (
        ["measure", "check-invariance", *AK, "--vectors", '{"vectors": {"x": {}}}'],
        '--vectors: level key "x" is not an integer',
    ),
    "vectors-vertex": (
        ["measure", "check-invariance", *AK, "--vectors", '{"vectors": {"1": {"1.5": 1}}}'],
        '--vectors: level 1 vertex key "1.5" is not an integer',
    ),
    "vectors-level-twice": (
        ["measure", "check-invariance", *AK, "--vectors", '{"vectors": {"0": {"1": 1}, "00": {"1": 1}}}'],
        '--vectors: level keys "0" and "00" both name 0',
    ),
    "vectors-vertex-twice": (
        ["measure", "check-invariance", *AK, "--vectors", '{"vectors": {"0": {"1": 1, "01": 2}}}'],
        '--vectors: level 0 vertex keys "1" and "01" both name 1',
    ),
    # int() reads these keys, a document key is a minus sign and ASCII digits only
    "vectors-level-underscore": (
        ["measure", "check-invariance", *AK, "--vectors", '{"vectors": {"1_0": {"1": 1}}}'],
        '--vectors: level key "1_0" is not an integer',
    ),
    "vectors-level-spaces": (
        ["measure", "check-invariance", *AK, "--vectors", '{"vectors": {" 0 ": {"1": 1}}}'],
        '--vectors: level key " 0 " is not an integer',
    ),
    "vectors-vertex-plus": (
        ["measure", "check-invariance", *AK, "--vectors", '{"vectors": {"0": {"+1": 1}}}'],
        '--vectors: level 0 vertex key "+1" is not an integer',
    ),
    "vectors-vertex-non-ascii": (
        ["measure", "check-invariance", *AK, "--vectors", '{"vectors": {"0": {"\u0661": 1}}}'],
        '--vectors: level 0 vertex key "\\u0661" is not an integer',
    ),
}


@pytest.mark.parametrize("case", list(BAD_DOCUMENT_KEYS))
def test_document_key_errors_name_the_flag_and_the_key(capsys, case):
    argv, message = BAD_DOCUMENT_KEYS[case]
    assert run(capsys, *argv) == (EXIT_CONFIG, "", f"error: {message}\n")


# a diagram document missing a required key -> (the document, its whole error line)
DIAGRAM_MISSING_KEYS = {
    "ak-params": (_spec_json("ak", {"a": 4}), 'ak params: missing key "k"'),
    "constant-diagonal": (
        _spec_json("decreasing", {"diagonal": {"kind": "constant"}}), 'constant sequence: missing key "value"'
    ),
    "truncation": (
        _spec_json("ak", {"a": 4, "k": 2}, truncation={"maxLevel": 3}), 'truncation: missing key "maxVertex"'
    ),
    "explicit-finite": (_spec_json("explicit-finite", {}), 'explicit-finite params: missing key "matrix"'),
}


@pytest.mark.parametrize("case", list(DIAGRAM_MISSING_KEYS))
def test_diagram_documents_name_the_part_and_the_missing_key(capsys, case):
    doc, message = DIAGRAM_MISSING_KEYS[case]
    assert run(capsys, "diagram", "show", *doc) == (EXIT_CONFIG, "", f"error: {message}\n")


def test_csv_cells_of_values_that_are_not_finite(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "measure", "cylinder", "--family", "increasing", "--cylinders", "(0,2);(0,2000)"
    )
    assert code == EXIT_UNCERTIFIED
    assert out.splitlines()[1:] == ["0,2,infinite,inf", "0,2000,undetermined,undetermined"]


def test_config_file_holding_a_list_is_a_config_error(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text("[1]")
    code, out, err = run(capsys, "--config", str(path))
    assert (code, out) == (EXIT_CONFIG, "")
    assert "config: [1] is not an object" in err


# a_1 = 5 dominates the 68 threes but not a_70 = 6, past any fixed check window
ROW_70 = ["--family", "decreasing", "--diagonal", "table:5," + "3," * 68 + "6:constant:2"]


@pytest.mark.parametrize("command", [
    ["eigen", "measure", "--cylinders", "(1,2);(0,60)"],
    ["eigen", "verify"],
    ["eigen", "compare"],
])
def test_dominance_is_decided_over_the_whole_diagonal(capsys, command):
    code, out, err = run(capsys, *command[:2], *ROW_70, *command[2:])
    assert (code, out) == (EXIT_CONFIG, "")
    assert "a_1=5 is not greater than a_70=6" in err


def test_measure_classify_is_unchanged_on_the_row_70_diagonal(capsys):
    code, out, _ = run(capsys, "--format", "json", "measure", "classify", *ROW_70, "--imax", "1")
    assert code == EXIT_OK
    (entry,) = json.loads(out)["entries"]
    assert entry["mass"]["status"] == "infinite"
    assert "climbing to vertex 70" in entry["mass"]["divergence_witness"]


# multiplicities are read through the chain, whichever command reads them
MULTIPLICITY_READERS = {
    "eigen verify": ["--rows", "5"],
    "eigen measure": ["--cylinders", "(1,2)"],
    "eigen compare": [],
    "measure extend": [],
    "measure cylinder": ["--cylinders", "(0,3)"],
}


@pytest.mark.parametrize("diagonal", ["table:5,-3:constant:2", "table:5,0:constant:2"])
@pytest.mark.parametrize("command", list(MULTIPLICITY_READERS))
def test_multiplicities_below_one_are_config_errors(capsys, command, diagonal):
    argv = [*command.split(), "--family", "decreasing", "--diagonal", diagonal, *MULTIPLICITY_READERS[command]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert "a_2=" in err and "must be >= 1" in err and "internal error" not in err


def test_shift_applies_to_the_ak_family(capsys):
    code, out, err = run(capsys, "eigen", "verify", *AK, "--shift", "2")
    assert (code, out) == (EXIT_CONFIG, "")
    assert "a_2=2 is not greater than a_3=2" in err


def test_eigen_commands_need_a_stationary_chain(capsys):
    code, out, err = run(capsys, "eigen", "verify", "--family", "nonstat-uniform", "--an", "constant:2")
    assert (code, out) == (EXIT_CONFIG, "")
    assert "stationary odometer chain" in err


@pytest.mark.parametrize("command, keys", [
    (["eigen", "verify", "--rows", "60"], ("lambda", "rows_checked", "verified", "nonzero_rows")),
    (["eigen", "measure", "--cylinders", "(0,1);(0,3);(2,2);(4,7)"], ("entries",)),
    (["eigen", "compare", "--mmax", "2", "--jmax", "3"], ("all_equal", "entries")),
])
def test_ak_with_a_minus_k_one_reports_like_its_decreasing_twin(capsys, command, keys):
    docs = []
    for family in (["--family", "ak", "--a", "3", "--k", "2"], ["--family", "decreasing", "--diagonal", "table:3:constant:1"]):
        code, out, err = run(capsys, "--format", "json", *command[:2], *family, *command[2:])
        assert code == EXIT_OK, err
        docs.append(json.loads(out))
    ak, twin = ({key: doc[key] for key in keys} for doc in docs)
    assert ak == twin
    if "eigenpair" in docs[0]:
        assert (docs[0]["eigenpair"], docs[1]["eigenpair"]) == ("ak(shift=1,lam=3)", "decreasing(shift=1,lam=3)")


def test_explicit_levels_invariance_skips_columns_a_row_past_the_width_meets(capsys):
    spec = {"family": "explicit-levels", "params": {"levels": [[[1, 1, 1], [2, 1, 1]]]},
            "truncation": {"maxLevel": 1, "maxVertex": 2}}
    for vectors, checked in (({"1": "1/2"}, 0), ({"1": "1/2", "2": "1/2"}, 1)):
        doc = json.dumps({"vectors": {"0": {"1": "1"}, "1": vectors}})
        code, out, err = run(
            capsys, "--format", "json", "measure", "check-invariance", "--spec-json", json.dumps(spec), "--vectors", doc
        )
        assert code == EXIT_OK, err
        report = json.loads(out)
        assert (report["ok"], report["checked_rows"], report["failures"]) == (True, checked, [])


def test_explicit_finite_heights_report_only_the_window(capsys):
    matrix = [[2 if v == w else int(w == v + 1) for w in range(14)] for v in range(14)]
    spec = json.dumps({"family": "explicit-finite", "params": {"matrix": matrix}})
    args = ["diagram", "heights", "--spec-json", spec, "--level", "2", "--max-vertex", "3", "--verify-bruteforce"]
    code, out, _ = run(capsys, "--format", "csv", *args)
    assert code == EXIT_OK
    assert out.splitlines() == ["vertex,height", "1,4", "2,8", "3,9"]
    code, out, _ = run(capsys, "--format", "json", *args)
    report = json.loads(out)
    assert (report["exact_width"], report["bruteforce"], report["bruteforce_mismatches"]) == (
        3, {"1": "4", "2": "8", "3": "9"}, []
    )


def test_finite_classify_takes_its_eigen_data_from_a_narrow_bracket(capsys):
    args = ["--format", "json", "finite", "classify", "--matrix", "[[2,1,0],[1,1,0],[1,0,1]]"]
    code, out, _ = run(capsys, *args, "--tol", "0.5")
    assert code == EXIT_OK
    wide = json.loads(out)
    assert wide["classes"][1]["radius"] == {"lo": 2.5625, "hi": 2.625}  # the bracket tol asks for
    code, out, _ = run(capsys, *args)
    narrow = json.loads(out)
    assert abs(wide["measures"][1]["lambda"] - (3 + 5**0.5) / 2) <= 1e-12
    for got, want in zip(wide["measures"], narrow["measures"]):
        assert abs(got["lambda"] - want["lambda"]) <= 1e-12
        assert all(abs(x - y) <= 1e-12 for x, y in zip(got["xi_raw"], want["xi_raw"]))


def test_finite_classify_certifies_eigenvectors_below_any_tol(capsys):
    # seeded matrices of size 2-30; at --tol 1e-15 a residual bound of
    # 10 * tol refused 19 of the first 100, the smallest 18x18
    rng = random.Random(5)
    solved = 0
    for _ in range(100):
        n = rng.randint(2, 30)
        matrix = [[rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
        if n < 18:
            continue
        code, out, err = run(capsys, "--format", "json", "finite", "classify", "--matrix", json.dumps(matrix), "--tol", "1e-15")
        if "has no incoming edges" in err or "has no outgoing edges" in err:
            assert code == EXIT_CONFIG
            continue
        assert (code, err) == (EXIT_OK, ""), n
        solved += len(json.loads(out)["measures"])
    assert solved == 44


@pytest.mark.parametrize("tags, message", [
    ({"kind": "quasiStationary", "tags": {"default": "left"}, "exceptions": {"1,1": "right"}}, "eventuallyQuasiStationary"),
    ({"kind": "eventuallyQuasiStationary", "tags": {"default": "left"}, "exceptions": {"2": "right"}}, 'key "2"'),
])
def test_order_documents_that_lose_or_misplace_exceptions_exit_2(capsys, tags, message):
    code, out, err = run(capsys, "vershik", "classify", *AK, "--tags", json.dumps(tags))
    assert (code, out) == (EXIT_CONFIG, "")
    assert message in err and "internal error" not in err


# two keys of an order document that name one odometer or one vertex -> (the document, its whole error line)
ORDER_KEYS_TWICE = {
    "tags": ({"tags": {"default": "middle", "1": "left", "01": "right"}}, 'order tag keys "1" and "01" both name 1'),
    "exceptions": (
        {"kind": "eventuallyQuasiStationary", "exceptions": {"2,1": "left", "02,1": "right"}},
        'order exception keys "2,1" and "02,1" both name (2, 1)',
    ),
}


@pytest.mark.parametrize("case", list(ORDER_KEYS_TWICE))
@pytest.mark.parametrize("command", ["classify", "orbit"])
def test_order_keys_that_name_one_odometer_or_vertex_exit_2(capsys, command, case):
    doc, message = ORDER_KEYS_TWICE[case]
    assert run(capsys, "vershik", command, *AK, "--tags", json.dumps(doc)) == (EXIT_CONFIG, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["classify", "orbit"])
def test_order_keys_that_int_reads_but_are_not_plain_integers_exit_2(capsys, command):
    # "1_0" would tag odometer 10, " 2 " odometer 2 and "+3" odometer 3
    tags = {"default": "middle", "1_0": "left", " 2 ": "right", "+3": "left"}
    code, out, err = run(capsys, "vershik", command, *AK, "--tags", json.dumps({"tags": tags}))
    assert (code, out, err) == (EXIT_CONFIG, "", 'error: order tag key "1_0" is not an integer\n')
    doc = {"kind": "eventuallyQuasiStationary", "exceptions": {"2, 1": "left"}}
    code, out, err = run(capsys, "vershik", command, *AK, "--tags", json.dumps(doc))
    assert (code, out, err) == (EXIT_CONFIG, "", 'error: order exception key "2, 1" is not "level,index"\n')


def test_an_internal_key_error_exits_1(capsys, monkeypatch):
    # every document key is read through a checked reader, so a KeyError is a fault of the program
    def fault(args, spec, window):
        raise KeyError("entries")

    monkeypatch.setattr(cli, "cmd_diagram_show", fault)
    code, out, err = run(capsys, "diagram", "show", *AK)
    assert (code, out) == (EXIT_INTERNAL, "")
    assert err.startswith("internal error: KeyError")


def test_eigen_compare_refuses_an_empty_grid(capsys):
    # j runs from --i to --jmax, so --jmax below --i leaves no cylinder to compare
    argv = ["eigen", "compare", "--family", "decreasing", "--diagonal", "table:9,7,5:constant:3", "--i", "2", "--jmax", "1"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert "--jmax 1" in err and "--i 2" in err
    code, out, err = run(capsys, "--format", "json", *argv[:-1], "2")
    assert (code, err) == (EXIT_OK, "")
    assert len(json.loads(out)["entries"]) == 6


@pytest.mark.parametrize("family, flag, poly, twin", [
    ("nonstat-uniform", "--an", "poly:3,2,0", "arithmetic:3,2"),
    ("decreasing", "--diagonal", "poly:5,0,0", "constant:5"),
])
def test_trailing_zero_coefficients_report_like_the_lower_degree(capsys, family, flag, poly, twin):
    reports = []
    for seq in (poly, twin):
        code, out, err = run(capsys, "--format", "json", "measure", "classify", "--family", family, flag, seq, "--imax", "3")
        assert err == ""
        report = json.loads(out)
        report.pop("family")
        reports.append((code, report))
    assert reports[0] == reports[1]


def test_general_chain_cylinders_have_no_certificate(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "measure", "cylinder", "--family", "general-chain", "--entries", "[[0,1,5],[1,2,3]]",
        "--cylinders", "(0,2)",
    )
    assert code == EXIT_UNCERTIFIED
    value = json.loads(out)["entries"][0]["value"]
    assert (value["status"], value["certificate"], value["terms_used"]) == (
        "undetermined", "no certificate for this family/cylinder", 64
    )


@pytest.mark.parametrize("levels, note, terms", [
    ("table:3,5", "level sequence has no tail rule usable for certification", 2),
    ("arithmetic:40,-3", "decreasing level sequence has no certificate", 0),
])
def test_level_sequences_without_a_tail_rule_are_undetermined(capsys, levels, note, terms):
    for command in (["cylinder", "--cylinders", "(0,2)"], ["classify", "--imax", "1"]):
        code, out, _ = run(
            capsys, "--format", "json", "measure", command[0], "--family", "nonstat-uniform", "--an", levels, *command[1:]
        )
        assert code == EXIT_UNCERTIFIED
        entry = json.loads(out)["entries"][0]
        value = entry.get("value") or entry["mass"]
        assert (value["status"], value["certificate"], value["terms_used"]) == ("undetermined", note, terms)


def test_diagonal_without_a_tail_rule_is_undetermined(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "measure", "classify", "--family", "decreasing", "--diagonal", "arithmetic:200,-1",
        "--imax", "1",
    )
    assert code == EXIT_UNCERTIFIED
    mass = json.loads(out)["entries"][0]["mass"]
    assert (mass["status"], mass["certificate"], mass["terms_used"]) == (
        "undetermined", "diagonal sequence has no tail rule usable for certification", 64
    )


def test_csv_prints_the_partial_sum_of_a_finite_value_that_is_not_exact(capsys):
    args = ["measure", "cylinder", "--family", "nonstat-uniform", "--an", "poly:4,4,1", "--cylinders", "(0,2)"]
    code, out, _ = run(capsys, "--format", "json", *args)
    assert code == EXIT_OK
    value = json.loads(out)["entries"][0]["value"]
    assert value["status"] == "finite" and "exact_value" not in value
    code, out, _ = run(capsys, "--format", "csv", *args)
    assert code == EXIT_OK
    assert out.splitlines()[1] == f"0,2,finite,{value['partial_sum']['exact']}"
