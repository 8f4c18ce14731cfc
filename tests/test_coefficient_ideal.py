"""Tame elimination is the coefficient ideal: an oracle for `eliminate` that
shares no code with saturation, multiplication matrices or char polys.

Take f = Z^n + a_2 Z^(n-2) + ... + a_n, each a_i of order >= i at the
origin, over a field whose characteristic does not divide n.  Relative
saturation lists Delta_Z^(n-1) f = n Z at weight 1, whose char poly has
the coefficients n^j a_j at weight j, and every other coefficient h_j of a
generator of weight w is isobaric of weight j*w in the a_i, when a_i
weighs i.  So at every point P of the base

    ord_P(E) = min_i ord_P(a_i) / i,

read off the a_i by Polynomial.order_at.  The algebra is f W^n alone:
eliminate saturates it relative to Z.  Where p | n there is no such
form: with an a_1 term only >= holds (over F2, Z^2+Y^5 eliminates to
Y^8 W^2, slope 4 against 5/2).  Each case is checked at the origin and at
three random rational points.

The law survives a blow-up of the origin.  In the chart of x in {X, Y},
the weighted transform at the center {X, Y, Z} sends f to its strict
transform f' = Z^n + a_2' Z^(n-2) + ... + a_n', where a_i' is a_i with
the other base variable v set to x*v and divided by x^i: f is monic in Z,
and a_i has order >= i at the origin, so every a_i' is a polynomial.  E's
generators are isobaric of weight j*w in the a_i, so the weighted
transform of E at {X, Y} is the same forms in the a_i'.  At every point P
of the chart, then, ord_P of the transformed E, ord_P of the elimination
of the transformed algebra by f', and min_i ord_P(a_i') / i all agree.
f' need not have order n at the chart's origin, and the law does not
need it to, so that elimination skips the transversality check.  The
a_i' are built by substitution and exact division of each term, apart
from the transform's chart code."""
from fractions import Fraction

import pytest

from reeselim import (INFINITE_ORDER, FieldDescriptor, Polynomial,
                      ReesAlgebra, ReesGenerator, RingContext, diff_saturate,
                      eliminate, ord_at_point, weighted_transform)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# (field, degrees n): the characteristic does not divide n
TAME = [("Q", (2, 3, 4)), ("F5", (2, 3, 4)), ("F7", (2, 3, 4)),
        ("F4", (3,)), ("F8:t^3+t^2+1", (3,)), ("F9", (2, 4))]
# the characteristic divides n
WILD = [("F2", (2, 4)), ("F3", (3,)), ("F4", (2, 4))]
RINGS = {spec: RingContext(FieldDescriptor.parse(spec), ("X", "Y", "Z"))
         for spec, _ in TAME + WILD}
SETTINGS = hypothesis.settings(max_examples=120, deadline=None,
                               database=None)


def values(field):
    """Nonzero coefficients; over F_{p^k} only those that carry t, so that
    char_poly's t-digit decode is reached."""
    if not field.p:
        return st.fractions(-3, 3, max_denominator=3).filter(bool)
    prime = {field.element(j) for j in range(field.p if field.k > 1 else 1)}
    return st.sampled_from([c for c in field.elements() if c not in prime])


def points(field):
    if not field.p:
        return st.fractions(-2, 2, max_denominator=2)
    return st.sampled_from(field.elements())


@st.composite
def coefficient(draw, R, i):
    """0 or a sum of 1-2 terms in X, Y of total degree i to i + 2."""
    a = R.zero()
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.integers(i, i + 2))
        x = draw(st.integers(0, d))
        a = a + R.monomial((x, d - x, 0), draw(values(R.field)))
    return a


@st.composite
def monic(draw, fields, lowest):
    """(f, n, the a_i by i) for f = Z^n + sum_{i >= lowest} a_i Z^(n-i)
    with some a_i nonzero, and a_1 nonzero when lowest is 1."""
    spec, degrees = draw(st.sampled_from(fields))
    R = RINGS[spec]
    n = draw(st.sampled_from(degrees))
    a = {i: draw(coefficient(R, i)) for i in range(lowest, n + 1)}
    hypothesis.assume(any(a.values()) and (lowest > 1 or a[1]))
    f = R.var("Z")**n
    for i, ai in a.items():
        f = f + ai * R.var("Z")**(n - i)
    return f, n, a


def elimination(f, n, check_transversal=True):
    """The elimination algebra of f W^n alone by f."""
    return eliminate(ReesAlgebra(f.ring, [ReesGenerator(f, n)]),
                     ReesGenerator(f, n), "Z", check_transversal).algebra


def base_points(draw, base):
    """The origin and three rational points of the base ring."""
    return [base.origin()] + [
        base.point([draw(points(base.field)) for _ in base.variables])
        for _ in range(3)]


@st.composite
def case(draw, fields, lowest):
    """(E, the a_i by i, the origin and three rational points of the base)
    for a monic f drawn by monic."""
    f, n, a = draw(monic(fields, lowest))
    E = elimination(f, n)
    return (E, {i: ai.project_out("Z") for i, ai in a.items()},
            base_points(draw, E.ring))


def coefficient_slope(a, P):
    """min_i ord_P(a_i) / i over the nonzero a_i."""
    return min(Fraction(ai.order_at(P), i) for i, ai in a.items() if ai)


@SETTINGS
@hypothesis.given(case(TAME, lowest=2))
def test_tame_elimination_order_is_the_coefficient_slope(data):
    E, a, ps = data
    for P in ps:
        assert ord_at_point(E, P) == coefficient_slope(a, P), (E, a, P)


@SETTINGS
@hypothesis.given(case(WILD, lowest=1))
def test_wild_elimination_order_is_at_least_the_coefficient_slope(data):
    E, a, ps = data
    for P in ps:
        assert ord_at_point(E, P) >= coefficient_slope(a, P), (E, a, P)


def test_example_6_10_is_strictly_above_the_slope():
    # saturated in every variable, as in the paper: relative to Z alone,
    # Delta_Z f = 2Z vanishes and the elimination algebra is empty
    R = RINGS["F2"]
    f = R.parse("Z^2+Y^5")
    G = diff_saturate(ReesAlgebra(R, [ReesGenerator(f, 2)]))
    E = eliminate(G, ReesGenerator(f, 2), "Z").algebra
    assert ord_at_point(E, E.ring.origin()) == 4 > Fraction(5, 2)


def chart_image(a, i, chart):
    """a with the other base variable v set to chart*v, divided by chart^i:
    each term X^x Y^y goes to chart^(x + y - i) times the other's power."""
    ring = a.ring
    j = ring.var_index(chart)
    v = ring.variables[1 - j]
    image = a.substitute({v: ring.var(chart) * ring.var(v)})
    return Polynomial(ring, {
        tuple(e - i if k == j else e for k, e in enumerate(exps)): c
        for exps, c in image.terms.items()})


TRANSFORM_SETTINGS = hypothesis.settings(max_examples=40, deadline=None,
                                         database=None)


@TRANSFORM_SETTINGS
@hypothesis.given(st.data())
def test_tame_elimination_commutes_with_the_weighted_transform(data):
    f, n, a = data.draw(monic(TAME, lowest=2))
    R = f.ring
    E = elimination(f, n)
    ps = base_points(data.draw, E.ring)
    for chart in ("X", "Y"):
        E1, _ = weighted_transform(E, ("X", "Y"), chart)
        G1, _ = weighted_transform(ReesAlgebra(R, [ReesGenerator(f, n)]),
                                   ("X", "Y", "Z"), chart)
        (f1, n1), = G1.generators
        E2 = elimination(f1, n1, check_transversal=False)
        a1 = {i: chart_image(ai.project_out("Z"), i, chart)
              for i, ai in a.items()}
        for P in ps:
            assert ord_at_point(E1, P) == ord_at_point(E2, P) == \
                coefficient_slope(a1, P), (E, chart, P)


# Several generators.  Take G = {f W^n, g W^m}, f drawn by monic with no
# Z^(n-1) term, and the coefficient algebra
#
#     C = {[Z^k]h W^(w-k) : h W^w in G, k < w}
#
# over the base, [Z^k]h the coefficient of Z^k in h.  C is the relative
# saturation of G restricted to Z = 0, since Delta_Z^k h at Z = 0 is
# [Z^k]h.  Elimination gives the information of Hironaka's induction:
# ord_P(eliminate(G, f, Z)) = ord_P(C) at every base point P when the
# characteristic does not divide n, and only >= where it does.  The oracle
# reads C by coefficients_in and Polynomial.order_at alone.
GENERATOR_SETTINGS = hypothesis.settings(max_examples=50, deadline=None,
                                         database=None)


@st.composite
def generator(draw, R):
    """(g, m) for m in 1..3 and g a sum of 1-3 terms in X, Y, Z whose
    total degree is m to m + 2, with Z-degree up to m + 1."""
    m = draw(st.integers(1, 3))
    g = R.zero()
    for _ in range(draw(st.integers(1, 3))):
        z = draw(st.integers(0, m + 1))
        d = draw(st.integers(max(m - z, 0), max(m - z, 0) + 2))
        x = draw(st.integers(0, d))
        g = g + R.monomial((x, d - x, z), draw(values(R.field)))
    hypothesis.assume(g)
    return g, m


def coefficient_order(G, P):
    """ord_P(C), read term by term: min ord_P([Z^k]h) / (w - k)."""
    return min(Fraction(c.project_out("Z").order_at(P), w - k)
               for h, w in G.generators
               for k, c in enumerate(h.coefficients_in("Z")[:w]) if c)


def elimination_order(G, f, n, P):
    """ord_P(eliminate(G, f, Z)); infinite when nothing is left."""
    E = eliminate(G, ReesGenerator(f, n), "Z").algebra
    return INFINITE_ORDER if E.is_empty() else ord_at_point(E, P)


@st.composite
def algebra_case(draw, fields):
    """(G, f, n, the origin and three rational points of the base)."""
    f, n, _ = draw(monic(fields, lowest=2))
    G = ReesAlgebra(f.ring, [ReesGenerator(f, n),
                             ReesGenerator(*draw(generator(f.ring)))])
    return G, f, n, base_points(draw, f.ring.drop_variable("Z"))


@GENERATOR_SETTINGS
@hypothesis.given(algebra_case(TAME))
def test_tame_elimination_order_is_the_coefficient_algebra_order(data):
    G, f, n, ps = data
    for P in ps:
        assert elimination_order(G, f, n, P) == coefficient_order(G, P), \
            (G, P)


@GENERATOR_SETTINGS
@hypothesis.given(algebra_case(WILD))
def test_wild_elimination_order_is_at_least_the_coefficient_algebra_order(
        data):
    G, f, n, ps = data
    for P in ps:
        assert elimination_order(G, f, n, P) >= coefficient_order(G, P), \
            (G, P)


def test_a_wild_algebra_eliminates_strictly_above_its_coefficient_algebra():
    # C: X*Y^2+X^2 W^2 (order 1), Y^3 W^2 (3/2) and X*Y W (2)
    R = RINGS["F2"]
    f = R.parse("Z^2+X*Y^2+X^2")
    G = ReesAlgebra(R, [ReesGenerator(f, 2),
                        ReesGenerator(R.parse("Y^3+X*Y*Z"), 2)])
    origin = R.drop_variable("Z").origin()
    assert coefficient_order(G, origin) == 1
    assert elimination_order(G, f, 2, origin) == Fraction(3, 2)
