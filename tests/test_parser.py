"""The polynomial parser against its earlier form (tests/reference_parser.py)
on drawn text, and the passes it makes: the parser computes on raw term
maps, so a sum of n terms is one _reduced pass and no Polynomial
arithmetic, where adding the terms one by one made n - 1 additions, each
copying the running sum."""
import pytest

from reeselim import FieldDescriptor, Polynomial, RingContext
from reeselim import poly as poly_module
from reference_parser import reference_parse_polynomial

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# t is a coefficient in F4 and F9 and an undeclared name elsewhere
RINGS = [RingContext(FieldDescriptor.parse(spec), names)
         for spec, names in [("Q", ("x", "y")), ("F5", ("x", "y", "z")),
                             ("F4", ("x", "y")), ("F9", ("x",)),
                             ("F2", ("x", "y"))]]
# numbers stay small, so a power of a power of a sum stays small too; the
# last two reach the zero-denominator and F5 refusals
NUMBERS = ["0", "1", "2", "3", "03", "3/4", "2/6", "1/0", "5/5"]
NAMES = ["x", "y", "z", "t", "w", "_a", "x1", "xy"]
OPERATORS = ["+", "-", "*", "^", "(", ")"]
STRAY = ["!", "#", ".", "**", "1_0", "٣", "é", "\t", "\n", "^-1"]
SPACES = ["", "", "", " ", "  "]


def outcome(parse, R, text):
    """The parsed polynomial, or the refusal's type and message."""
    try:
        return parse(R, text)
    except Exception as exc:   # compared, never swallowed
        return type(exc), str(exc)


def assert_same_outcome(R, text):
    got = outcome(poly_module.parse_polynomial, R, text)
    want = outcome(reference_parse_polynomial, R, text)
    assert type(got) is type(want), (text, got, want)
    if isinstance(want, Polynomial):
        assert got.ring is want.ring and got == want, (text, got, want)
    else:
        assert got == want, text


@st.composite
def grammar_text(draw, R, depth=2):
    """A sum of signed terms, each factors joined by * or by juxtaposition,
    a factor a number, a name or a parenthesized sum, maybe raised to a
    small power.  Most names are R's (its variables, and t in F_{p^k}), and
    most numbers are ones R can read."""
    space = st.sampled_from(SPACES)
    names = st.sampled_from(list(R.variables) * 12 + NAMES
                            + ["t"] * 12 * (R.field.k > 1))
    numbers = st.sampled_from(NUMBERS[:-2] * 6 + NUMBERS[-2:])
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["number", "name", "name", "group"]
                                        if depth else ["number", "name"]))
            if kind == "number":
                factor = draw(numbers)
            elif kind == "name":
                factor = draw(names)
            else:
                factor = "(" + draw(grammar_text(R, depth - 1)) + ")"
            if draw(st.integers(0, 3)) == 0:
                factor += draw(space) + "^" + draw(space) + draw(
                    st.sampled_from(["0", "1", "2", "3"]))
            factors.append(factor)
        joins = [draw(st.sampled_from(["*", "*", " "])) for _ in factors[1:]]
        term = factors[0] + "".join(j + f for j, f in zip(joins, factors[1:]))
        signs = draw(st.lists(st.sampled_from(["+", "-"]), max_size=2))
        terms.append("".join(signs) + draw(space) + term)
    text = terms[0]
    for term in terms[1:]:
        op = draw(st.sampled_from(["+", "-"]))
        text += draw(space) + op + draw(space) + term
    return text


def token_text():
    """Random strings of tokens and stray characters."""
    pieces = st.sampled_from(NUMBERS + NAMES + OPERATORS * 2 + STRAY + SPACES)
    return st.lists(pieces, max_size=14).map("".join)


@hypothesis.settings(max_examples=400, deadline=None, database=None)
@hypothesis.given(st.data())
def test_parser_matches_the_term_by_term_parser(data):
    R = data.draw(st.sampled_from(RINGS))
    assert_same_outcome(R, data.draw(st.one_of(grammar_text(R),
                                               token_text())))


@pytest.mark.parametrize("text", [
    "x", "-x", "--x", "+-x", "x+", "x-", "(x", "x)", "()", "x^", "x^y",
    "x^-1", "x^2^3", "2x y", "x(y+1)", "(x+y)^3-(x-y)^3", "x-x", "x+1-1-x",
    "3/4*x - 6/8 x", "1/0", "", "   ", "x + y #", "t*x+t^2", "x**2",
    "((((x))))^2", "x+(y", "x y z"])
def test_parser_matches_the_term_by_term_parser_on_named_cases(text):
    for R in RINGS:
        assert_same_outcome(R, text)


def _count_passes(monkeypatch):
    """Count the Polynomial +, -, * and ** calls, and poly._reduced's
    passes, from here on."""
    calls = {"arithmetic": 0, "reduce": 0}

    def counting(kind, function):
        def counted(*args):
            calls[kind] += 1
            return function(*args)
        return counted

    for name in ("__add__", "__neg__", "__mul__", "__pow__"):
        monkeypatch.setattr(Polynomial, name,
                            counting("arithmetic", getattr(Polynomial, name)))
    monkeypatch.setattr(poly_module, "_reduced",
                        counting("reduce", poly_module._reduced))
    return calls


@pytest.mark.parametrize("n", [1, 2, 50, 400])
def test_a_sum_of_n_terms_is_one_kernel_pass(monkeypatch, n):
    R = RINGS[1]   # F5[x,y,z]
    # single-term products and powers: none of them reduces a sum
    text = "+".join("%d*x^%d*y" % (i % 4 + 1, i) for i in range(n))
    want = Polynomial(R, {(i, 1, 0): i % 4 + 1 for i in range(n)})
    calls = _count_passes(monkeypatch)
    assert R.parse(text) == want
    assert calls == {"arithmetic": 0, "reduce": int(n > 1)}


def test_a_one_term_sum_is_the_term_itself(monkeypatch):
    R = RINGS[0]
    calls = _count_passes(monkeypatch)
    assert R.parse("(3*x^2)") == R.parse("3*x^2")
    assert calls == {"arithmetic": 0, "reduce": 0}
    # a minus sign makes the one pass of each text's outer sum
    assert R.parse("-(3*x^2)") == R.parse("-3*x^2")
    assert calls == {"arithmetic": 0, "reduce": 2}
