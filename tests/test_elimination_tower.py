"""Two elimination steps against the coefficient algebra of a coefficient
algebra: the paper's induction over a tower of projections.

Take G = {f1 W^n1, f2 W^n2, g W^m} over k[X, Y, Z], with
f1 = Z^n1 + a_2 Z^(n1-2) + ... + a_n1 (a_i in X, Y of order >= i) and
f2 = Y^n2 + b_2 Y^(n2-2) + ... + b_n2 (b_i in X of order >= i), and g of
weight 1-3 in X, Y, Z.  Eliminate Z by f1: f2 is Z-free, so its matrix
mod f1 is f2 times the identity and E1 lists -n1*f2 W^n2 when p does not
divide n1.  That copy is scaled to the monic f2 and Y is eliminated by
f2, which leaves E2 over k[X].  The oracle takes the coefficient algebra
twice,

    C1 = {[Z^k]h W^(w-k) : h W^w in G, k < w}       over k[X, Y],
    C2 = {[Y^k]c W^(v-k) : c W^v in C1, k < v}      over k[X],

and reads ord_P(C2) = min ord_P([Y^k]c) / (v - k) by Polynomial.order_at
alone, so it shares no code with saturation, Hasse tables, matrices or
char polys.  When the characteristic divides neither n1 nor n2, ord_P(E2)
equals ord_P(C2) at every base point P; where it divides one of them only
>= holds.  Each draw is checked at the origin and at two random points."""
from fractions import Fraction

import pytest

from reeselim import (INFINITE_ORDER, ReesAlgebra, ReesGenerator, eliminate,
                      ord_at_point)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_coefficient_ideal import (RINGS, coefficient, generator,  # noqa: E402
                                    points, values)

# (field, the degrees n1 and n2 are drawn from)
TAME = [("Q", (2, 3)), ("F5", (2, 3)), ("F7", (2, 3)), ("F2", (3,)),
        ("F3", (2,))]
WILD = [("F2", (2, 3)), ("F3", (2, 3))]
SETTINGS = hypothesis.settings(max_examples=40, deadline=None, database=None)


@st.composite
def monic_in(draw, R, var, n, coefficient_of):
    """var^n + sum_{i >= 2} c_i var^(n-i), c_i drawn by coefficient_of(i),
    with some c_i nonzero."""
    c = {i: draw(coefficient_of(i)) for i in range(2, n + 1)}
    hypothesis.assume(any(c.values()))
    x = R.var(var)
    f = x**n
    for i, ci in c.items():
        f = f + ci * x**(n - i)
    return f


@st.composite
def x_power(draw, R, i):
    """0 or c*X^d with d in i..i+2."""
    if not draw(st.booleans()):
        return R.zero()
    return R.monomial((draw(st.integers(i, i + 2)), 0, 0),
                      draw(values(R.field)))


@st.composite
def tower(draw, fields, tame):
    """(G, f1, n1, f2, n2, the origin and two rational points of k[X])."""
    spec, degrees = draw(st.sampled_from(fields))
    R = RINGS[spec]
    n1, n2 = draw(st.sampled_from(degrees)), draw(st.sampled_from(degrees))
    p = R.field.p
    hypothesis.assume(tame == (not p or bool(n1 % p and n2 % p)))
    f1 = draw(monic_in(R, "Z", n1, lambda i: coefficient(R, i)))
    f2 = draw(monic_in(R, "Y", n2, lambda i: x_power(R, i)))
    G = ReesAlgebra(R, [ReesGenerator(f1, n1), ReesGenerator(f2, n2),
                        ReesGenerator(*draw(generator(R)))])
    base = R.drop_variable("Z").drop_variable("Y")
    return G, f1, n1, f2, n2, [base.origin()] + [
        base.point([draw(points(R.field))]) for _ in range(2)]


def two_steps(G, f1, n1, f2, n2):
    """E2: Z eliminated by f1, f2's copy in E1 made monic, then Y
    eliminated by f2; None when nothing is left.  The copy is there
    whenever -n1 is a unit: eliminating Y by f2 adds f2 W^n2 in any case,
    so only this check sees a Z-free generator dropped by the first
    step."""
    E1 = eliminate(G, ReesGenerator(f1, n1), "Z").algebra
    f2 = f2.project_out("Z")
    copy = f2.scale(-n1)
    assert not copy or (copy, n2) in E1.generators, E1
    E1 = ReesAlgebra(E1.ring, [ReesGenerator(f2 if h == copy else h, w)
                               for h, w in E1.generators])
    E2 = eliminate(E1, ReesGenerator(f2, n2), "Y").algebra
    return None if E2.is_empty() else E2


def coefficient_pairs(pairs, var):
    """The coefficient algebra in var of (h, w) pairs, as pairs over the
    ring without var."""
    return [(c.project_out(var), w - k) for h, w in pairs
            for k, c in enumerate(h.coefficients_in(var)[:w]) if c]


def tower_orders(G, f1, n1, f2, n2, ps):
    """(ord_P(E2), ord_P(C2)) for each P in ps, each infinite when its
    algebra is empty."""
    E2 = two_steps(G, f1, n1, f2, n2)
    C2 = coefficient_pairs(coefficient_pairs(G.generators, "Z"), "Y")
    return [(INFINITE_ORDER if E2 is None else ord_at_point(E2, P),
             min((Fraction(c.order_at(P), w) for c, w in C2),
                 default=INFINITE_ORDER)) for P in ps]


@SETTINGS
@hypothesis.given(tower(TAME, tame=True))
def test_tame_tower_order_is_the_twice_taken_coefficient_algebra_order(data):
    for e, c in tower_orders(*data):
        assert e == c, data


@SETTINGS
@hypothesis.given(tower(WILD, tame=False))
def test_wild_tower_order_is_at_least_the_coefficient_algebra_order(data):
    for e, c in tower_orders(*data):
        assert e >= c, data


def test_a_wild_tower_eliminates_strictly_above_its_coefficient_algebra():
    # over F3 f2 = (Y - X)^3: C2 holds -X^3 W^3 (order 1), while E2 has
    # order 2 at the origin
    R = RINGS["F3"]
    G = ReesAlgebra(R, [ReesGenerator(R.parse(h), w) for h, w in
                        (("Z^2-X^3*Y", 2), ("Y^3-X^3", 3), ("Z^4", 3))])
    f1, f2 = (g.poly for g in G.generators[:2])
    origin = R.drop_variable("Z").drop_variable("Y").origin()
    assert tower_orders(G, f1, 2, f2, 3, [origin]) == [(2, 1)]
