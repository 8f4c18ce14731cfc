"""format_polynomial against its earlier tuple form (tests/reference_format.py)
on drawn polynomials, the parser reading its text back, the cached
text of every F_{p^k} element against its unpacked residue, and Q numbers
longer than the interpreter's int-to-str limit against Python's own str."""
import sys
from fractions import Fraction

import pytest

from reeselim import FieldDescriptor, Polynomial, RingContext
from reeselim.fields import _format_modulus, _text
from reeselim.poly import format_polynomial
from reference_format import reference_format_polynomial

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# F2 and F8 are where -1 = 1; F8 takes a modulus other than its built-in one
FIELDS = [FieldDescriptor.parse(spec) for spec in (
    "Q", "F2", "F5", "F4", "F9", "F8:t^3+t^2+1")]
NAMES = ("x", "y", "z")


def coefficients(field):
    """Nonzero and zero values, with 1 and -1 drawn often: over Q negative
    ints and Fractions, elsewhere any element."""
    signs = st.sampled_from([field.one(), -field.one()])
    if field.p == 0:
        return st.one_of(signs, st.integers(-30, 30),
                         st.fractions(-5, 5, max_denominator=9))
    return st.one_of(signs, st.sampled_from(field.elements()))


@st.composite
def polynomials(draw):
    field = draw(st.sampled_from(FIELDS))
    R = RingContext(field, NAMES[:draw(st.integers(1, 3))])
    exponents = st.tuples(*[st.integers(0, 12)] * R.nvars)
    return Polynomial(R, draw(st.dictionaries(
        exponents, coefficients(field), max_size=7)))


@hypothesis.settings(max_examples=400, deadline=None, database=None)
@hypothesis.given(polynomials())
def test_format_matches_the_tuple_form_and_parses_back(f):
    text = format_polynomial(f)
    assert text == reference_format_polynomial(f)
    assert str(f) == text
    assert f.ring.parse(text) == f


@pytest.mark.parametrize("spec", ["F4", "F8", "F9", "F16", "F25"])
def test_cached_element_text_is_the_unpacked_residue(spec):
    field = FieldDescriptor.parse(spec)
    for c in field.elements():
        want = _format_modulus(field._unpack(c.val))
        assert _text(field, c.val) == str(c) == want


def python_text(value):
    """str(value) with the interpreter's int-to-str limit lifted, and the
    limit put back afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_rational_of_5000_digit_parts_formats_and_parses_back():
    # 10^4999 + 1 is odd and 2^16607 has 5,000 digits, so both parts of
    # the reduced fraction do, past the default limit of 4,300
    c = Fraction(10**4999 + 1, 2**16607)
    assert 10**4999 <= c.denominator < 10**5000
    R = RingContext(FieldDescriptor.parse("Q"), ("x",))
    for value in (c, -c):
        f = R.constant(value)
        text = format_polynomial(f)
        assert text == python_text(value)
        assert R.parse(text) == f
