"""Command-line driver: file round trips, reports, and exit codes."""
import io
import os
import subprocess
import sys
from math import comb

import pytest

from reeselim import (ResourceCapError, diff_saturate, eliminate,
                      parse_algebra, rational_zero_set, singular_ideal,
                      tau_estimate)
from reeselim.cli import main
from test_format import python_text

EX69 = "ring: Q[Y,Z]\ngen: Z^2+Y^5 w 2\n"
EX610 = "ring: F2[Y,Z]\ngen: Z^2+Y^5 w 2\n"
EX514 = "ring: F2[X,Y]\ngen: X^4+X^2*Y^5 w 4\n"


def run(argv, stdin=None, monkeypatch=None):
    out = io.StringIO()
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def ex69(tmp_path):
    path = tmp_path / "ex69.alg"
    path.write_text(EX69)
    return str(path)


@pytest.fixture
def ex610(tmp_path):
    path = tmp_path / "ex610.alg"
    path.write_text(EX610)
    return str(path)


def test_saturate_normalized_output(ex69):
    code, text = run(["saturate", ex69, "--normalize"])
    assert code == 0
    assert "gen: Z w 1" in text and "gen: Y^4 w 1" in text
    assert text.strip().splitlines()[-1].startswith("#! generators:")


def test_saturate_output_round_trips(ex610):
    code, text = run(["saturate", ex610])
    assert code == 0
    body = "\n".join(line for line in text.splitlines()
                     if not line.startswith("#!")) + "\n"
    G = parse_algebra(body)
    assert any(str(g.poly) == "Y^4" and g.weight == 1 for g in G.generators)


def test_weight_one_algebra_is_fixed_by_saturation(tmp_path):
    path = tmp_path / "flat.alg"
    path.write_text("ring: Q[Y,Z]\ngen: Y+Z w 1\n")
    code, text = run(["saturate", str(path)])
    assert code == 0 and "gen: Y+Z w 1" in text
    assert "#! generators: 1" in text


def test_sing_reports_points(ex610):
    code, text = run(["sing", ex610])
    assert code == 0
    assert "point: 0,0" in text
    assert "#! ideal-generators:" in text


def test_sing_scan_budget_exits_three(ex610, monkeypatch):
    # the scan visits Y=0, then Z=0 and Z=1, then Y=1, where Y^4 prunes
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 3)
    code, text = run(["sing", ex610])
    assert code == 3
    # the scan runs before the first write: no gen: lines ahead of the error
    assert text == ("error: SCAN_BRANCHES cap exceeded: 4 > 3 (1 of 2 "
                    "coordinates fixed)\n")
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 4)
    assert run(["sing", ex610]) == (0, "gen: Y^5+Z^2\ngen: Y^4\npoint: 0,0\n"
                                     "#! ideal-generators: 2 points: 1\n")


def test_sing_folds_exponents_past_the_field_order(monkeypatch):
    # x^q = x on F_q: the scan reads x^1000000000 over F2 as x, so it needs
    # the powers x^0 and x^1 only
    text = "ring: F2[x,y]\ngen: x^1000000000+y w 1\n"
    assert run(["sing", "-"], stdin=text, monkeypatch=monkeypatch) == (
        0, "gen: x^1000000000+y\npoint: 0,0\npoint: 1,1\n"
        "#! ideal-generators: 1 points: 2\n")


def test_sing_keeps_zero_at_a_large_multiple_of_the_unit_order(monkeypatch):
    # 800000000 is a multiple of q - 1 = 8 in F9: x^800000000 folds to x^8,
    # which is 1 at every unit and stays 0 at 0, so (0, 0) is a point
    text = "ring: F9[x,y]\ngen: x^800000000+t*y w 1\n"
    assert run(["sing", "-"], stdin=text, monkeypatch=monkeypatch) == (
        0, "gen: x^800000000+t*y\npoint: 0,0\npoint: 1,t\npoint: 2,t\n"
        "point: 2*t,t\npoint: 2*t+1,t\npoint: 2*t+2,t\npoint: t,t\n"
        "point: t+1,t\npoint: t+2,t\n#! ideal-generators: 1 points: 9\n")


def test_point_invariant_commands(tmp_path):
    path = tmp_path / "e0.alg"
    path.write_text(EX514)
    code, text = run(["ord", str(path), "--at", "0,0"])
    assert code == 0 and "#! ord: 1" in text
    code, text = run(["e0", str(path), "--at", "0,0"])
    assert code == 0 and "#! e0: 2" in text
    path3 = tmp_path / "tau.alg"
    path3.write_text("ring: F2[X,Y,Z]\ngen: Z^2+Y^5 w 2\ngen: X^2 w 2\n")
    code, text = run(["tau", str(path3), "--at", "0,0,0"])
    assert code == 0 and "#! tau: 2" in text


def test_eliminate_via_stdin(monkeypatch):
    sat = EX610 + "gen: Y^4 w 1\n"
    code, text = run(["eliminate", "-", "--monic", "0", "--var", "Z"],
                     stdin=sat, monkeypatch=monkeypatch)
    assert code == 0
    assert "gen: Y^8 w 2" in text


def test_blowup_chart(ex69):
    code, text = run(["blowup", ex69, "--center", "Y,Z", "--chart", "Y"])
    assert code == 0
    assert "Y^5+Y^2*Z^2" not in text  # weighted, not total
    assert "gen: Y^3+Z^2 w 2" in text


def test_ramify_verify_agreement(tmp_path):
    path = tmp_path / "ram.alg"
    path.write_text("ring: F5[Y,Z]\ngen: Z^2-Y w 2\n")
    code, text = run(["ramify-verify", str(path), "--var", "Z"])
    assert code == 0
    assert "#! agreement: true points: 5 mismatches: 0" in text


def test_ramify_verify_field_override(tmp_path):
    path = tmp_path / "ram2.alg"
    path.write_text("ring: F2[Y,Z]\ngen: Z^2+Y w 2\n")
    code, text = run(["ramify-verify", str(path), "--field", "F5",
                      "--var", "Z"])
    assert code == 0
    assert "points: 5" in text


def test_ramify_verify_scan_budget_exits_three(tmp_path, monkeypatch):
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 4)
    path = tmp_path / "ram.alg"
    path.write_text("ring: F5[Y,Z]\ngen: Z^2-Y w 2\n")
    code, text = run(["ramify-verify", str(path), "--var", "Z"])
    assert code == 3
    # the discriminants' base scan runs first and hits the cap at once
    assert text == ("error: SCAN_BRANCHES cap exceeded: 5 > 4 (none "
                    "visited, 1 coordinates of 5 values)\n")


def test_scenario_command(capsys):
    code, text = run(["scenario", "ex6.10"])
    assert code == 0
    assert "#! passed:" in text and "FAIL" not in text


def test_usage_errors_exit_two(tmp_path):
    code, _ = run(["saturate", str(tmp_path / "missing.alg")])
    assert code == 2
    bad = tmp_path / "bad.alg"
    bad.write_text("ring: F2[Y,Z]\ngen: W^3 w 1\n")
    code, _ = run(["saturate", str(bad)])
    assert code == 2
    code, _ = run(["no-such-command"])
    assert code == 2


def test_transversality_failure_exits_two(tmp_path):
    path = tmp_path / "flat.alg"
    path.write_text("ring: Q[Y,Z]\ngen: Z^2+Y w 2\n")
    code, text = run(["eliminate", str(path), "--monic", "0", "--var", "Z"])
    assert code == 2 and "error:" in text


def test_fraction_coefficients_in_positive_characteristic(tmp_path):
    path = tmp_path / "half.alg"
    path.write_text("ring: F3[x]\ngen: 1/2*x w 1\n")
    code, text = run(["saturate", str(path)])
    assert code == 0
    assert parse_algebra(text).generators[0].poly == \
        parse_algebra("ring: F3[x]\ngen: 2*x w 1\n").generators[0].poly
    assert "#! generators: 1" in text
    path.write_text("ring: F2[x]\ngen: 1/2*x w 1\n")
    code, text = run(["saturate", str(path)])
    assert code == 2 and "error:" in text


def test_a_total_degree_of_2_31_exits_two(monkeypatch):
    # a monomial key holds total degrees below 2^31: x^2147483648 is refused
    # with one error line, never wrapped
    code, text = run(["saturate", "-"],
                     "ring: Q[x,y]\ngen: x^2147483648+y w 1\n", monkeypatch)
    assert code == 2
    assert text == "error: total degree reaches the limit 2^31\n"


@pytest.mark.parametrize("text,expected", [
    pytest.param("ring: Q[X,Z]\ngen: Z^2+X^1500000000 w 2\n"
                 "gen: Z+X^1000000000 w 1\n",
                 "gen: X^2000000000+X^1500000000 w 2"
                 "  # from: X^1000000000+Z w 1 coeff 2", id="c2"),
    pytest.param("ring: Q[X,Z]\ngen: Z+X^1500000000 w 1\n"
                 "gen: X^1000000000 w 1\n",
                 "gen: -X^1000000000 w 1"
                 "  # from: X^1000000000 w 1 coeff 1", id="c1"),
])
def test_eliminate_answers_when_only_z_c_times_g_passes_2_31(
        monkeypatch, text, expected):
    # Z^c * g mod f would pass the keys' 2^31, but the matrix ends at
    # Z^(c-1) * g and never builds it: every output fits, and the CLI answers
    code, out = run(["eliminate", "-", "--monic", "0", "--var", "Z"], text,
                    monkeypatch)
    assert code == 0
    assert expected in out.splitlines()


ZERO_DENOMINATOR_ARGS = {
    "saturate": [],
    "sing": [],
    "ord": ["--at", "0,0"],
    "e0": ["--at", "0,0"],
    "tau": ["--at", "0,0"],
    "eliminate": ["--monic", "0", "--var", "Z"],
    "blowup": ["--center", "Y,Z", "--chart", "Z"],
    "ramify-verify": ["--var", "Z"],
}


@pytest.mark.parametrize("spec", ["Q", "F3"])
@pytest.mark.parametrize("command", list(ZERO_DENOMINATOR_ARGS))
def test_zero_denominator_coefficient_exits_two(tmp_path, capsys, spec,
                                                command):
    path = tmp_path / "zero.alg"
    path.write_text("ring: %s[Y,Z]\ngen: 1/0*Y w 1\n" % spec)
    code, text = run([command, str(path)] + ZERO_DENOMINATOR_ARGS[command])
    assert (code, text) == (2, "error: zero denominator in '1/0'\n")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("spec", ["Q", "F3"])
def test_zero_denominator_coordinate_exits_two(tmp_path, capsys, spec):
    path = tmp_path / "ok.alg"
    path.write_text("ring: %s[Y,Z]\ngen: Z^2+Y w 2\n" % spec)
    code, text = run(["ord", str(path), "--at", "1/0,0"])
    assert (code, text) == (2, "error: zero denominator in '1/0'\n")
    assert capsys.readouterr().err == ""


def test_variable_t_in_extension_field_ring_exits_two(tmp_path):
    path = tmp_path / "t.alg"
    path.write_text("ring: F4[t,x]\ngen: t*x w 1\n")
    code, text = run(["saturate", str(path)])
    assert code == 2 and "error:" in text


def test_char_poly_cap_exits_three(tmp_path):
    path = tmp_path / "deg13.alg"
    path.write_text("ring: F2[Y,Z]\ngen: Z^13+Y^14 w 13\n")
    code, text = run(["eliminate", str(path), "--monic", "0", "--var", "Z"])
    assert code == 3
    assert "error:" in text and "13" in text and "12" in text


def _rejection(name, command, text, extra, message):
    return pytest.param(command, text, extra, message, id=name)


REJECTIONS = [
    _rejection("bad-polynomial-syntax", "saturate",
               "ring: F2[Y,Z]\ngen: Z^2+Y$ w 1\n", [],
               "bad polynomial syntax near '$'"),
    _rejection("unbalanced-parentheses", "saturate",
               "ring: F2[Y,Z]\ngen: (Z+Y w 1\n", [],
               "unbalanced parentheses"),
    _rejection("unexpected-end", "saturate",
               "ring: F2[Y,Z]\ngen: Z+ w 1\n", [],
               "unexpected end of polynomial"),
    _rejection("bad-exponent", "saturate",
               "ring: F2[Y,Z]\ngen: Z^Y w 1\n", [], "bad exponent"),
    _rejection("trailing-tokens", "saturate",
               "ring: F2[Y,Z]\ngen: Z) w 1\n", [],
               "trailing tokens in polynomial text"),
    _rejection("bad-ring-header", "saturate",
               "ring: F2 Y,Z\ngen: Z w 1\n", [],
               "bad ring header 'ring: F2 Y,Z'"),
    # --field replaces the field of a well-formed header only
    _rejection("field-override-bad-ring-header", "ramify-verify",
               "ring: F2\ngen: Z^2+Y w 2\n", ["--field", "F5"],
               "bad ring header 'ring: F2'"),
    _rejection("bad-generator-line", "saturate",
               "ring: F2[Y,Z]\ngen: Z^2\n", [],
               "bad generator line 'gen: Z^2'"),
    _rejection("missing-ring-header", "saturate", "# nothing\n", [],
               "missing ring header"),
    # read as a second header, F2 would silently replace Q
    _rejection("second-ring-header", "saturate",
               "ring: Q[x]\nring: F2[x]\ngen: 3*x w 1\n", [],
               "second ring header 'ring: F2[x]'"),
    # a variable the polynomial grammar reads as something else: 2 would be
    # the constant 2 in every gen: line
    _rejection("variable-name-is-a-number", "saturate",
               "ring: Q[x,2]\ngen: 2^2+x w 1\n", [],
               "bad variable name '2': letters, digits and _, "
               "not starting with a digit"),
    _rejection("variable-name-with-a-space", "saturate",
               "ring: Q[x,y z]\ngen: x w 1\n", [],
               "bad variable name 'y z': letters, digits and _, "
               "not starting with a digit"),
    _rejection("variable-name-is-an-expression", "saturate",
               "ring: F5[x,x+y]\ngen: x w 1\n", [],
               "bad variable name 'x+y': letters, digits and _, "
               "not starting with a digit"),
    _rejection("weight-not-an-integer", "saturate",
               "ring: F2[Y,Z]\ngen: Z w abc\n", [],
               "weight 'abc' is not an integer in 'gen: Z w abc'"),
    _rejection("weight-fraction", "saturate",
               "ring: F2[Y,Z]\ngen: Z w 1.5\n", [],
               "weight '1.5' is not an integer in 'gen: Z w 1.5'"),
    # one ASCII digit rule: int() would read 1_0 as 10 and the
    # Arabic-Indic digits as 3 and 5, and \d read x^\u0663 as x^3
    _rejection("weight-with-an-underscore", "saturate",
               "ring: Q[x,Z]\ngen: Z w 1_0\n", [],
               "weight '1_0' is not an integer in 'gen: Z w 1_0'"),
    _rejection("weight-in-non-ascii-digits", "saturate",
               "ring: Q[x,Z]\ngen: x^3+Z w \u0663\n", [],
               "weight '\u0663' is not an integer in "
               "'gen: x^3+Z w \u0663'"),
    _rejection("exponent-in-non-ascii-digits", "saturate",
               "ring: Q[x,Z]\ngen: x^\u0663+Z w 3\n", [],
               "bad polynomial syntax near '\u0663+Z'"),
    _rejection("coordinate-in-non-ascii-digits", "ord",
               "ring: F5[x,Z]\ngen: Z^2+x^3 w 2\n", ["--at", "\u0663,0"],
               "bad polynomial syntax near '\u0663'"),
    _rejection("field-size-in-non-ascii-digits", "saturate",
               "ring: F\u0665[x,Z]\ngen: Z w 1\n", [],
               "bad field spec 'F\u0665'"),
    _rejection("field-size-with-an-underscore", "saturate",
               "ring: F1_1[x,Z]\ngen: Z w 1\n", [],
               "bad field spec 'F1_1'"),
    _rejection("gen-before-ring", "saturate",
               "gen: Z w 1\nring: F2[Y,Z]\n", [],
               "gen line before ring header"),
    _rejection("weight-zero", "saturate", "ring: F2[Y,Z]\ngen: Z w 0\n", [],
               "generator weight must be >= 1"),
    _rejection("at-coordinate-count", "ord",
               "ring: F2[Y,Z]\ngen: Z^2+Y^3 w 2\n", ["--at", "0"],
               "expected 2 coordinates, got 1"),
    _rejection("at-empty-coordinate", "ord",
               "ring: F2[Y,Z]\ngen: Z^2+Y^3 w 2\n", ["--at", ","],
               "coordinate 1 is empty"),
    _rejection("at-empty-second-coordinate", "ord",
               "ring: F2[Y,Z]\ngen: Z^2+Y^3 w 2\n", ["--at", "0, "],
               "coordinate 2 is empty"),
    _rejection("at-non-constant", "ord",
               "ring: F2[Y,Z]\ngen: Z^2+Y^3 w 2\n", ["--at", "Y,0"],
               "coordinate 'Y' is not a constant"),
    _rejection("monic-out-of-range", "eliminate",
               "ring: F2[Y,Z]\ngen: Z^2+Y^3 w 2\n",
               ["--monic", "1", "--var", "Z"],
               "generator index 1 out of range (1 generators)"),
    _rejection("monic-negative", "eliminate",
               "ring: F2[Y,Z]\ngen: Y^4 w 1\ngen: Z^2+Y^5 w 2\n",
               ["--monic", "-1", "--var", "Z"],
               "generator index -1 out of range (2 generators)"),
    # the repeated Y^4 line takes no index: index 2 would be a fourth line
    _rejection("monic-counts-distinct-generators", "eliminate",
               "ring: F2[Y,Z]\ngen: Y^4 w 1\ngen: Y^4 w 1\n"
               "gen: Z^2+Y^5 w 2\n",
               ["--monic", "2", "--var", "Z"],
               "generator index 2 out of range (2 generators)"),
    # is_monic_in reads the top degree only, so Z^1000000 costs one term
    _rejection("z-degree-differs-from-weight", "eliminate",
               "ring: F3[Y,Z]\ngen: Z^1000000+Y w 1\n",
               ["--monic", "0", "--var", "Z"],
               "Z-degree of the distinguished generator (1000000) differs "
               "from its weight (1)"),
    # the top Z-power is there, but with 2, not 1, as its coefficient
    _rejection("eliminate-non-monic-generator", "eliminate",
               "ring: Q[Y,Z]\ngen: 2*Z^2+Y^3 w 2\n",
               ["--monic", "0", "--var", "Z"],
               "distinguished generator is not monic in 'Z'"),
    _rejection("ramify-non-monic-factor", "ramify-verify",
               "ring: F5[Y,Z]\ngen: 2*Z^2+Y w 2\n", ["--var", "Z"],
               "factor 2*Z^2+Y is not monic in Z"),
    # eliminating the only variable leaves no ring: refused by name,
    # before any saturation
    _rejection("eliminate-the-only-variable", "eliminate",
               "ring: F2[X]\ngen: X^2 w 2\n", ["--monic", "0", "--var", "X"],
               "cannot drop 'X', the ring's only variable"),
    _rejection("ramify-the-only-variable", "ramify-verify",
               "ring: F2[x]\ngen: x^2 w 2\n", ["--var", "x"],
               "cannot drop 'x', the ring's only variable"),
    _rejection("repeated-variable-name", "saturate",
               "ring: Q[x,x]\ngen: x w 1\n", [],
               "variable names must be distinct"),
    _rejection("modulus-over-q", "saturate",
               "ring: Q:t+1[x]\ngen: x w 1\n", [],
               "bad field spec 'Q:t+1'"),
    _rejection("modulus-of-the-wrong-degree", "saturate",
               "ring: F4:t+1[x]\ngen: x w 1\n", [],
               "modulus must be monic of degree 2"),
    _rejection("ramify-over-q", "ramify-verify",
               "ring: Q[x,Z]\ngen: Z^2+x w 2\n", ["--var", "Z"],
               "point scan needs a finite coefficient field"),
    _rejection("ramify-no-factors", "ramify-verify",
               "ring: F5[x,Z]\n", ["--var", "Z"], "need at least one factor"),
    _rejection("ord-of-the-empty-algebra", "ord", "ring: F2[x,y]\n",
               ["--at", "0,0"], "ord of the empty algebra is undefined"),
    # x^2 of weight 1 has ord 2 at the origin: singular, but not simple
    _rejection("e0-off-a-simple-point", "e0",
               "ring: F2[x,y]\ngen: x^2 w 1\n", ["--at", "0,0"],
               "e0 is defined at simple points only"),
    # over Q, e0's characteristic-0 answer of 0 comes after the gate that
    # refuses a point off Sing, a point that is not simple, and the empty
    # algebra, as over F_p
    _rejection("e0-over-q-off-the-singular-locus", "e0",
               "ring: Q[Y,Z]\ngen: Z^2+Y^5 w 2\n", ["--at", "1,1"],
               "point is not in the singular locus"),
    _rejection("e0-over-q-off-a-simple-point", "e0",
               "ring: Q[Y,Z]\ngen: Y^4 w 1\n", ["--at", "0,0"],
               "e0 is defined at simple points only"),
    _rejection("e0-over-q-of-the-empty-algebra", "e0", "ring: Q[x,y]\n",
               ["--at", "0,0"], "ord of the empty algebra is undefined"),
    # with no generator there is no derivative table to read the names
    _rejection("active-unknown-on-the-empty-algebra", "saturate",
               "ring: F2[x,y]\n", ["--active", "nope"],
               "unknown variable 'nope'"),
]


@pytest.mark.parametrize("command,text,extra,message", REJECTIONS)
def test_input_rejection_exits_two(tmp_path, capsys, command, text, extra,
                                   message):
    path = tmp_path / "input.alg"
    path.write_text(text, encoding="utf-8")
    assert run([command, str(path)] + extra) == (2, "error: %s\n" % message)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("skipped", [
    pytest.param("gen: Y^4 w 1\n", id="repeated-line"),
    pytest.param("gen: 0 w 3\n", id="zero-line"),
])
def test_monic_index_counts_distinct_nonzero_generators(tmp_path, capsys,
                                                        skipped):
    # --monic 1 names Z^2+Y^5, the third gen: line, as in the file without
    # the skipped line
    distinct = "ring: F2[Y,Z]\ngen: Y^4 w 1\ngen: Z^2+Y^5 w 2\n"
    path = tmp_path / "input.alg"
    path.write_text(distinct.replace("gen: Y^4 w 1\n",
                                     "gen: Y^4 w 1\n" + skipped))
    expected = "ring: F2[Y]\ngen: Y^8 w 2  # from: Y^4 w 1 coeff 2\n" \
        "#! generators: 1 max-weight: 2\n"
    assert run(["eliminate", str(path), "--monic", "1", "--var", "Z"]) == (
        0, expected)
    path.write_text(distinct)
    assert run(["eliminate", str(path), "--monic", "1", "--var", "Z"]) == (
        0, expected)
    assert capsys.readouterr().err == ""


# option values argparse refuses before any file is read: exit 2, nothing
# on stdout.  Integers follow the file format's ASCII digit rule (int()
# would read the Arabic-Indic one as 1 and 1_0 as 10), and every name in
# a comma list must be nonempty once stripped
@pytest.mark.parametrize("argv,message", [
    pytest.param(["eliminate", "FILE", "--monic", "\u0661", "--var", "Z"],
                 "argument --monic: invalid int value: '\u0661'",
                 id="monic-non-ascii-digit"),
    pytest.param(["eliminate", "FILE", "--monic", "1_0", "--var", "Z"],
                 "argument --monic: invalid int value: '1_0'",
                 id="monic-with-an-underscore"),
    pytest.param(["eliminate", "FILE", "--monic", "abc", "--var", "Z"],
                 "argument --monic: invalid int value: 'abc'",
                 id="monic-not-an-integer"),
    pytest.param(["scenario", "ex6.9", "--seed", "\u0663"],
                 "argument --seed: invalid int value: '\u0663'",
                 id="seed-non-ascii-digit"),
    pytest.param(["saturate", "FILE", "--active", ""],
                 "argument --active: empty name in ''", id="active-empty"),
    pytest.param(["saturate", "FILE", "--active", "Y, ,Z"],
                 "argument --active: empty name in 'Y, ,Z'",
                 id="active-empty-name"),
    pytest.param(["blowup", "FILE", "--center", "Y,", "--chart", "Y"],
                 "argument --center: empty name in 'Y,'",
                 id="center-trailing-comma"),
])
def test_option_value_refusal_is_a_usage_error(ex610, capsys, argv, message):
    assert run([ex610 if a == "FILE" else a for a in argv]) == (2, "")
    assert message in capsys.readouterr().err


def test_comma_lists_strip_their_names(ex610, capsys):
    for command, option, extra in (("saturate", "--active", []),
                                   ("blowup", "--center", ["--chart", "Y"])):
        code, text = run([command, ex610, option, "Y,Z"] + extra)
        assert code == 0 and "\n#! generators: " in text
        assert run([command, ex610, option, " Y , Z"] + extra) == (code, text)
    assert capsys.readouterr().err == ""


def test_zero_elimination_algebra_warns_and_exits_zero(tmp_path, capsys):
    # Z^2 reduces to 0 mod itself and its Z-derivative 2Z is 0 over F2
    path = tmp_path / "zero.alg"
    path.write_text("ring: F2[Y,Z]\ngen: Z^2 w 2\n")
    assert run(["eliminate", str(path), "--monic", "0", "--var", "Z"]) == (
        0, "ring: F2[Y]\n# warning: zero elimination algebra "
           "(all coefficients vanished)\n#! generators: 0 max-weight: 0\n")
    assert capsys.readouterr().err == ""


def test_ramify_verify_refuses_a_large_degree_before_saturating(tmp_path):
    path = tmp_path / "big.alg"
    path.write_text("ring: F3[x,Z]\ngen: Z^600+x w 600\n")
    assert run(["ramify-verify", str(path), "--var", "Z"]) == (
        3, "error: CHARPOLY_DEGREE cap exceeded: 600 > 12 "
           "(before saturation)\n")


def test_eliminate_answers_a_char_poly_whose_packed_size_exceeds_the_cap(
        tmp_path, monkeypatch):
    # sparse entries of degree 60 in X, Y and W: c*60+1 slots in each at
    # c = 12, about 2*10^10 bits an entry packed, so packing declines; the
    # raw maps answer, and refuse once their limit is lowered
    path = tmp_path / "sparse.alg"
    path.write_text("ring: Q[X,Y,W,Z]\n"
                    "gen: Z^12+X^60*Y^60*W^60+X^11*Y w 12\n")
    argv = ["eliminate", str(path), "--monic", "0", "--var", "Z"]
    code, text = run(argv)
    assert code == 0
    assert text.splitlines()[-1] == "#! generators: 168 max-weight: 132"
    monkeypatch.setattr("reeselim.budget.TERM_PRODUCTS", 10)
    assert run(argv) == (
        3, "error: TERM_PRODUCTS cap exceeded: 12 > 10 "
           "(degree 12, 6 taken)\n")


@pytest.mark.parametrize("cap,limit,used,library,argv,text", [
    ("SCAN_BRANCHES", 3, 4, lambda G: rational_zero_set(singular_ideal(G)),
     ["sing"], EX610),
    ("CHARPOLY_DEGREE", 1, 2,
     lambda G: eliminate(G, G.generators[1], "Z"),
     ["eliminate", "--monic", "1", "--var", "Z"],
     "ring: F2[Y,Z]\ngen: Y^4 w 1\ngen: Z^2+Y^5 w 2\n"),
    ("TERM_PRODUCTS", 2, 3, lambda G: eliminate(G, G.generators[0], "Z"),
     ["eliminate", "--monic", "0", "--var", "Z"],
     "ring: F3[Y,Z]\ngen: Z^3+Y^4+Y^3*Z w 3\n"),
    ("BASIS_ELEMENTS", 1, 2,
     lambda G: tau_estimate(diff_saturate(G), G.ring.point([0, 0, 0])),
     ["tau", "--at", "0,0,0"],
     "ring: F2[X,Y,Z]\ngen: Z^2+Y^5 w 2\ngen: X^2 w 2\n"),
    # Z^2+Y^5 W^2 over F2 has the rows f and Y^4 (2Z = 0): 2 + 1 pairs
    ("SATURATION_PAIRS", 2, 3, diff_saturate, ["saturate"], EX610),
    # its saturation lists Z^2+Y^5 at weights 1 and 2, charged once, at
    # weight 2 (2 + 1 pairs), and Y^4 W (1 pair): 4, where a charge for
    # each listed copy would count 1 + 3 + 1 = 5
    ("SATURATION_PAIRS", 3, 4, diff_saturate, ["saturate"],
     "ring: F2[Y,Z]\ngen: Z^2+Y^5 w 1\ngen: Z^2+Y^5 w 2\ngen: Y^4 w 1\n"),
], ids=["scan-branches", "charpoly-degree", "term-products", "basis-elements",
        "saturation-pairs", "saturation-pairs-repeated-polynomial"])
def test_each_budget_limit_refuses_with_one_error_line(
        cap, limit, used, library, argv, text, tmp_path, monkeypatch,
        capsys):
    # every limit is read from reeselim.budget at call time: lowered there,
    # it names itself, the work reached and its value, and the CLI prints
    # that message as its one line and exits 3
    monkeypatch.setattr("reeselim.budget." + cap, limit)
    with pytest.raises(ResourceCapError) as error:
        library(parse_algebra(text))
    assert (error.value.cap, error.value.used, error.value.limit) == (
        cap, used, limit)
    assert str(error.value).startswith("%s cap exceeded: %d > %d ("
                                       % (cap, used, limit))
    path = tmp_path / "in.alg"
    path.write_text(text)
    assert run([argv[0], str(path)] + argv[1:]) == (
        3, "error: %s\n" % error.value)
    assert capsys.readouterr().err == ""


def test_saturating_a_huge_weight_is_refused_before_any_pair(tmp_path,
                                                             capsys):
    # Y W^(10^20 - 1) lists Y and 1 at every weight below its own: the
    # charge, 2*10^20 - 3 pairs, is refused at once, where listing them
    # ran out of memory or time
    path = tmp_path / "huge.alg"
    path.write_text("ring: F2[X,Y]\ngen: Y w 99999999999999999999\n")
    assert run(["saturate", str(path)]) == (
        3, "error: SATURATION_PAIRS cap exceeded: 199999999999999999997 > "
           "1048576 (no pair listed)\n")
    assert capsys.readouterr().err == ""


def test_consecutive_calls_each_print_their_own_output(ex69, tmp_path,
                                                      capsys):
    # the parser is built once per process; no flag or subcommand of one
    # call may reach the next
    e0_file = tmp_path / "ex514.alg"
    e0_file.write_text(EX514)
    normalized = (0, "ring: Q[Y,Z]\ngen: Y^5+Z^2 w 1\ngen: Y^5+Z^2 w 2\n"
                     "gen: Z w 1\ngen: Y^4 w 1\n"
                     "#! generators: 4 max-weight: 2\n")
    assert run(["saturate", ex69, "--normalize"]) == normalized
    assert run(["saturate", ex69]) == (
        0, "ring: Q[Y,Z]\ngen: Y^5+Z^2 w 1\ngen: Y^5+Z^2 w 2\n"
           "gen: 2*Z w 1\ngen: 5*Y^4 w 1\n#! generators: 4 max-weight: 2\n")
    assert run(["saturate", ex69, "--normalize"]) == normalized
    assert run(["ord", str(e0_file), "--at", "0,0"]) == (
        0, "ord: 1\n#! ord: 1\n")
    assert run(["e0", str(e0_file), "--at", "0,0"]) == (
        0, "e0: 2\n#! e0: 2\n")
    # a usage error, then a valid call
    assert run(["ord", str(e0_file)]) == (2, "")
    assert "required: --at" in capsys.readouterr().err
    assert run(["e0", str(e0_file), "--at", "0,0"]) == (
        0, "e0: 2\n#! e0: 2\n")
    assert capsys.readouterr().err == ""


def nested_generator(tmp_path, depth):
    path = tmp_path / "nested.alg"
    path.write_text("ring: F7[x]\ngen: %sx%s w 1\n"
                    % ("(" * depth, ")" * depth))
    return str(path)


@pytest.mark.parametrize("depth", [600, 5000])
def test_deeply_nested_parentheses_exit_two(tmp_path, capsys, depth):
    """The parser recurses once per level: too deep a nesting is a parse
    error, at whatever depth the caller's stack leaves, not a traceback."""
    assert run(["ord", nested_generator(tmp_path, depth), "--at", "0"]) == (
        2, "error: parentheses nested too deeply\n")
    assert capsys.readouterr().err == ""


def test_parentheses_300_deep_still_parse(tmp_path, capsys):
    assert run(["ord", nested_generator(tmp_path, 300), "--at", "0"]) == (
        0, "ord: 1\n#! ord: 1\n")
    assert capsys.readouterr().err == ""


# Q numbers past the interpreter's int-to-str limit (4,300 digits by
# default): the CLI prints and reads them back without changing the limit.
# x^1000000 w 1400 has the singular ideal C(10^6, k) x^(10^6 - k) for
# k < 1400, whose coefficients pass 4,300 digits from k = 1,296.
BIG = "ring: Q[x]\ngen: x^1000000 w 1400\n"


def check_big_sing(monkeypatch):
    code, text = run(["sing", "-"], stdin=BIG, monkeypatch=monkeypatch)
    lines = text.splitlines()
    assert code == 0 and lines[-1] == "#! ideal-generators: 1400 points: n/a"
    assert lines[-2] == "gen: %s*x^%d" % (python_text(comb(10**6, 1399)),
                                         10**6 - 1399)


def test_sing_prints_coefficients_past_the_int_to_str_limit(monkeypatch):
    check_big_sing(monkeypatch)


def test_sing_prints_them_under_the_smallest_int_to_str_limit(monkeypatch):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        check_big_sing(monkeypatch)
    finally:
        sys.set_int_max_str_digits(limit)


def test_saturate_reads_back_a_5000_digit_constant(monkeypatch):
    line = "gen: x+%s w 1" % python_text(7 * (10**5000 - 1) // 9)
    code, text = run(["saturate", "-"], stdin="ring: Q[x]\n%s\n" % line,
                     monkeypatch=monkeypatch)
    assert code == 0
    assert text.splitlines() == ["ring: Q[x]", line,
                                 "#! generators: 1 max-weight: 1"]


def test_the_int_to_str_limit_is_left_alone():
    # a fresh interpreter, so that the import is checked as well as main
    src = os.path.dirname(os.path.dirname(main.__code__.co_filename))
    script = """if True:
        import io, sys
        limit = sys.get_int_max_str_digits()
        from reeselim.cli import main
        imported = sys.get_int_max_str_digits()
        sys.stdin = io.StringIO(sys.argv[1])
        code = main(["sing", "-"], out=io.StringIO())
        sys.exit(code or not limit == imported == sys.get_int_max_str_digits())
    """
    assert subprocess.run([sys.executable, "-c", script, BIG],
                          env=dict(os.environ, PYTHONPATH=src)).returncode == 0
