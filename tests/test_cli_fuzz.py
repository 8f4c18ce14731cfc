"""The CLI boundary contract, fuzzed: algebra files drawn from a small
grammar biased toward valid input, run through every command but
`scenario` with option names drawn from the ring's variables plus one
unknown name, under lowered limits.  Each call returns; it exits 0, 2 or 3
(1 only from ramify-verify, which checks an agreement), and 2 when an
option names a variable the ring lacks; exit 2 or 3 prints
exactly one `error: ` line; and on exit 0, saturate's output is saturated
(compared after normalize_generators, since saturation is idempotent only
up to nonzero scalars), every sing point is singular, and ord is the one
read from Hasse derivatives (tests/test_rees.py's hasse_order).

Weights stay at most 4 and exponents at most 6: a huge weight or input
power runs on paths that no limit charges yet, so the grammar leaves them
out."""
import io
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from reeselim import (diff_saturate, is_singular_at,  # noqa: E402
                      normalize_generators, parse_algebra)
from reeselim.cli import main  # noqa: E402
from test_rees import hasse_order  # noqa: E402

# a nonzero coefficient's text in each field, and the field specs
COEFFICIENTS = {
    "F2": ["1"], "F3": ["1", "2"], "F5": ["1", "2", "3", "4"],
    "F4": ["1", "t", "(t+1)"], "F9": ["1", "2", "t", "(t+2)", "2*t"],
    "Q": ["1", "2", "3", "1/2", "5/3"],
}
NAMES = (("x", "y", "z"), ("Y", "Z", "W"), ("X", "Y", "Z"))
UNKNOWN = "nope"
# each refused by the parser or by the generator's checks
MALFORMED = ["gen: ( w 1", "gen: 1 w", "gen: 1 w 0", "gen: 1 w 1/2",
             "gen: 1/0 w 1", "gen: nope w 1", "gen: 0 w 1", "bogus",
             "ring: F2[a]", "gen: 1 w ٣"]
COMMANDS = ("saturate", "sing", "ord", "e0", "tau", "eliminate", "blowup",
            "ramify-verify")
SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, database=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])


@st.composite
def terms(draw, spec, names):
    """(exponents, text) of one term."""
    exps = draw(st.lists(st.integers(0, 6), min_size=len(names),
                         max_size=len(names)))
    monomial = "*".join(v if e == 1 else "%s^%d" % (v, e)
                        for v, e in zip(names, exps) if e)
    coeff = draw(st.sampled_from(COEFFICIENTS[spec]))
    if not monomial:
        return exps, coeff
    return exps, monomial if coeff == "1" else "%s*%s" % (coeff, monomial)


def polynomial(draw, parts):
    signs = draw(st.lists(st.sampled_from("+-"), min_size=len(parts),
                          max_size=len(parts)))
    return parts[0] + "".join(s + t for s, t in zip(signs, parts[1:]))


@st.composite
def algebra_files(draw):
    """(file text, field spec, variable names).  Half the files open with
    v^c + (terms of order >= c and v-degree < c) of weight c, v the last
    name: monic in v and transversal, as eliminate and ramify-verify
    need."""
    spec = draw(st.sampled_from(sorted(COEFFICIENTS)))
    names = draw(st.sampled_from(NAMES))[:draw(st.integers(1, 3))]
    lines = ["ring: %s[%s]" % (spec, ",".join(names))]
    if draw(st.booleans()):
        c = draw(st.integers(1, 4))
        tail = [text for exps, text in draw(st.lists(terms(spec, names),
                                                     max_size=3))
                if sum(exps) >= c and exps[-1] < c]
        top = "%s^%d" % (names[-1], c) if c > 1 else names[-1]
        lines.append("gen: %s w %d" % (polynomial(draw, [top] + tail), c))
    for _ in range(draw(st.integers(0, 2))):
        parts = draw(st.lists(terms(spec, names), min_size=1, max_size=4))
        lines.append("gen: %s w %d" % (
            polynomial(draw, [text for _, text in parts]),
            draw(st.integers(1, 4))))
    if draw(st.integers(0, 9)) == 0:
        # after the header: a gen: line before it is a named CLI case
        lines.insert(draw(st.integers(1, len(lines))),
                     draw(st.sampled_from(MALFORMED)))
    return "\n".join(lines) + "\n", spec, names


def name_lists(names):
    return st.lists(st.sampled_from(names + (UNKNOWN,)), min_size=1,
                    max_size=3, unique=True).map(",".join)


def options(draw, command, spec, names):
    """Options for one command: names from the ring's plus UNKNOWN."""
    one_name = st.sampled_from(names + (UNKNOWN,))
    if command == "saturate":
        extra = ["--active", draw(name_lists(names))] if draw(
            st.booleans()) else []
        return extra + (["--normalize"] if draw(st.booleans()) else [])
    if command in ("ord", "e0", "tau"):
        count = len(names) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        coords = draw(st.lists(st.sampled_from(["0", "1"] + COEFFICIENTS[
            spec][1:]), min_size=count, max_size=count))
        return ["--at", ",".join(coords)]
    if command == "eliminate":
        extra = ["--monic", str(draw(st.integers(0, 3))),
                 "--var", draw(st.sampled_from((names[-1],) + names
                                               + (UNKNOWN,)))]
        return extra + (["--no-transversal-check"] if draw(st.booleans())
                        else [])
    if command == "blowup":
        extra = ["--center", draw(name_lists(names)),
                 "--chart", draw(one_name)]
        return extra + (["--normalize"] if draw(st.booleans()) else [])
    if command == "ramify-verify":
        extra = ["--var", draw(st.sampled_from((names[-1],) + names
                                               + (UNKNOWN,)))]
        if draw(st.integers(0, 3)) == 0:
            extra += ["--field", draw(st.sampled_from(sorted(COEFFICIENTS)))]
        return extra
    return []


def run(monkeypatch, text, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def check_saturated(text, output, active):
    """saturate's output, saturated again, is the same algebra up to
    nonzero scalars: compare after normalize_generators."""
    G = parse_algebra(output)
    H = diff_saturate(G, None if active is None else active.split(","))
    assert normalize_generators(H) == normalize_generators(G), (text, output)


def check_singular_points(text, output):
    """Every point sing prints passes the pointwise test."""
    G = parse_algebra(text)
    R = G.ring
    for line in output.splitlines():
        if line.startswith("point: "):
            coords = line[len("point: "):].split(",")
            P = R.point([R.parse(c).constant_value() for c in coords])
            assert is_singular_at(G, P), (text, line)


def check_ord(text, at, output):
    """ord at the point is the least order/weight over the generators,
    with each order read from Hasse derivatives."""
    G = parse_algebra(text)
    R = G.ring
    P = R.point([R.parse(c).constant_value() for c in at.split(",")])
    order = min(Fraction(hasse_order(g, P), w) for g, w in G.generators)
    assert "#! ord: %s" % order in output.splitlines(), (text, at, output)


@SETTINGS
@hypothesis.given(st.data())
def test_every_command_keeps_the_boundary_contract(monkeypatch, data):
    monkeypatch.setattr("reeselim.budget.BASIS_ELEMENTS", 200)
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 2_000)
    monkeypatch.setattr("reeselim.budget.CHARPOLY_DEGREE", 4)
    monkeypatch.setattr("reeselim.budget.TERM_PRODUCTS", 1 << 12)
    text, spec, names = data.draw(algebra_files(), label="file")
    for command in COMMANDS:
        extra = options(data.draw, command, spec, names)
        argv = [command, "-"] + extra
        code, output = run(monkeypatch, text, argv)
        allowed = (0, 1, 2, 3) if command == "ramify-verify" else (0, 2, 3)
        if any(UNKNOWN in arg.split(",") for arg in extra):
            allowed = (2,)   # a name the ring lacks is refused
        assert code in allowed, (argv, text, output)
        if code in (2, 3):
            assert output.count("\n") == 1, (argv, text, output)
            assert output.startswith("error: "), (argv, text, output)
        elif code == 0 and command == "saturate":
            active = extra[1] if extra[:1] == ["--active"] else None
            check_saturated(text, output, active)
        elif code == 0 and command == "sing":
            check_singular_points(text, output)
        elif code == 0 and command == "ord":
            check_ord(text, extra[1], output)
