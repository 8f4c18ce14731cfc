"""The CLI boundary contract, fuzzed: algebra files drawn from a small
grammar biased toward valid input, run through every command but
`scenario` with option names drawn from the ring's variables plus one
unknown name, under lowered limits.  Each call returns; it exits 0, 2 or 3
(1 only from ramify-verify, which checks an agreement), and 2 when an
option names a variable the ring lacks; exit 2 or 3 prints
exactly one `error: ` line; and on exit 0, saturate's output is saturated
(compared after normalize_generators, since saturation is idempotent only
up to nonzero scalars), every sing point is singular, ord is the one
read from Hasse derivatives (tests/test_rees.py's hasse_order), and
blowup's output is the substitution oracle's (tests/test_rees.py's
reference_chart).

One gen: line in ten draws a huge weight, 10^6 to 10^20.  A command that
saturates never lists its pairs: saturate exits 3 on SATURATION_PAIRS, and
e0 and tau too once their point parses, while ord, sing, blowup and
ramify-verify never reach the charge.  Exponents stay at most 6: a huge
input power runs on a path that no limit charges yet, so the grammar
leaves it out."""
import io
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from reeselim import (diff_saturate, format_algebra,  # noqa: E402
                      is_singular_at, normalize_generators, parse_algebra)
from reeselim.cli import main  # noqa: E402
from test_rees import hasse_order, reference_chart  # noqa: E402

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
# the least huge weight, past every lowered limit; drawn up to 10^20, past
# 2^64
HUGE = 10**6
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
        huge = draw(st.integers(0, 9)) == 0
        lines.append("gen: %s w %d" % (
            polynomial(draw, [text for _, text in parts]),
            draw(st.integers(HUGE, 10**20) if huge else st.integers(1, 4))))
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


def check_saturated(monkeypatch, text, output, active):
    """saturate's output, saturated again, is the same algebra up to
    nonzero scalars: compare after normalize_generators.  The output lists
    more polynomials than the input, so its saturation gets a higher
    limit."""
    G = parse_algebra(output)
    with monkeypatch.context() as patch:
        patch.setattr("reeselim.budget.SATURATION_PAIRS", 1 << 12)
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


def check_blowup(text, extra, output):
    """blowup's algebra is the substitution oracle's weighted chart,
    normalized when --normalize was given; the chart line comes first."""
    G = parse_algebra(text)
    T = reference_chart(G, extra[1].split(","), extra[3], weighted=True)
    if "--normalize" in extra:
        T = normalize_generators(T)
    assert output.split("\n", 1)[1] == format_algebra(T) + (
        "#! generators: %d max-weight: %d\n"
        % (len(T.generators), T.max_weight)), (text, extra, output)


@SETTINGS
@hypothesis.given(st.data())
def test_every_command_keeps_the_boundary_contract(monkeypatch, data):
    monkeypatch.setattr("reeselim.budget.BASIS_ELEMENTS", 200)
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 2_000)
    monkeypatch.setattr("reeselim.budget.CHARPOLY_DEGREE", 4)
    monkeypatch.setattr("reeselim.budget.TERM_PRODUCTS", 1 << 12)
    monkeypatch.setattr("reeselim.budget.SATURATION_PAIRS", 32)
    text, spec, names = data.draw(algebra_files(), label="file")
    try:
        huge = parse_algebra(text).max_weight >= HUGE
    except ValueError:   # the CLI refuses the file: Field/Ring/ReesError
        huge = False
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
        coords = extra[1].split(",") if command in ("e0", "tau") else []
        if huge and allowed != (2,) and (
                command == "saturate" or len(coords) == len(names)
                and all(coords)):
            # the charge refuses the huge weight before any pair is listed,
            # once the options parse
            assert code == 3, (argv, text, output)
            assert output.startswith("error: SATURATION_PAIRS "), (argv, text,
                                                                   output)
        if huge and command in ("ord", "sing", "blowup", "ramify-verify"):
            assert "SATURATION_PAIRS" not in output, (argv, text, output)
        if code == 0 and command == "saturate":
            active = extra[1] if extra[:1] == ["--active"] else None
            check_saturated(monkeypatch, text, output, active)
        elif code == 0 and command == "sing":
            check_singular_points(text, output)
        elif code == 0 and command == "ord":
            check_ord(text, extra[1], output)
        elif code == 0 and command == "blowup":
            check_blowup(text, extra, output)
