"""The transform law of elimination in the wild case: equality becomes an
inequality.

Take the absolute saturation G of f W^n, alone or with a second
generator g W^m of order >= m at the origin, where
f = Z^n + a_1 Z^(n-1) + ... + a_n and each a_i in X, Y has order >= i, a_1
included.  Blow up the origin in the chart of X or of Y.  On one side is
the weighted transform of E = eliminate(G, f, Z) at the center {X, Y}; on
the other the elimination of the saturated transform of G by the strict
transform f' of f.  Compare the two at each rational point P of the
chart's base where f' has order n at (P, 0) and the transformed algebra is
singular there: off those points the two differ also where nothing is
wild, because f' is not transversal.

When the characteristic does not divide n the orders are equal.  Where it
divides n the transform of E has the larger order or the same one, as if
it were contained in the elimination algebra of the transform.  This is
the measured inequality, not a cited theorem: over F2, f = X*Y^2 + Z^2
gives 3 against 2 at the origin of the chart of X."""
import pytest

from reeselim import (INFINITE_ORDER, ReesAlgebra, ReesGenerator,
                      diff_saturate, eliminate, is_singular_at, ord_at_point,
                      weighted_transform)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_coefficient_ideal import RINGS, generator, monic  # noqa: E402

# (field, degrees n): the characteristic does not divide n, or it does
TAME = [("F5", (2, 3)), ("F7", (2, 3)), ("F2", (3,)), ("F3", (2,)),
        ("F4", (3,))]
WILD = [("F2", (2,)), ("F3", (3,)), ("F4", (2,))]
SETTINGS = hypothesis.settings(max_examples=80, deadline=None, database=None)


@st.composite
def saturated(draw, fields):
    """(G, f, n): G the saturation of f W^n, with an a_1 term, alone or
    with a generator g W^m of order >= m at the origin."""
    f, n, _ = draw(monic(fields, lowest=1))
    gens = [ReesGenerator(f, n)]
    if draw(st.booleans()):
        gens.append(ReesGenerator(*draw(generator(f.ring))))
    return diff_saturate(ReesAlgebra(f.ring, gens)), f, n


def transform_orders(G, f, n, chart):
    """(ord_P of the transform of E, ord_P of the elimination of the
    transform) at each rational point P of the chart's base where f' has
    order n at (P, 0) and the transformed algebra is singular."""
    E = eliminate(G, ReesGenerator(f, n), "Z").algebra
    E1, _ = weighted_transform(E, ("X", "Y"), chart)
    G1, _ = weighted_transform(G, ("X", "Y", "Z"), chart)
    f1 = G1.generators[G.generators.index((f, n))].poly
    E2 = eliminate(diff_saturate(G1), ReesGenerator(f1, n), "Z",
                   check_transversal=False).algebra
    R, field = G.ring, G.ring.field
    orders = []
    for x in field.elements():
        for y in field.elements():
            lifted = R.point([x, y, 0])
            if f1.order_at(lifted) != n or not is_singular_at(G1, lifted):
                continue
            P = E1.ring.point([x, y])
            orders.append((order(E1, P), order(E2, P)))
    return orders


def order(A, P):
    """ord_P(A); infinite when A is empty, as when f is a pure power."""
    return INFINITE_ORDER if A.is_empty() else ord_at_point(A, P)


@SETTINGS
@hypothesis.given(saturated(TAME), st.sampled_from("XY"))
def test_tame_transform_of_the_elimination_is_the_elimination_of_the_transform(
        data, chart):
    for e1, e2 in transform_orders(*data, chart):
        assert e1 == e2, (data, chart)


@SETTINGS
@hypothesis.given(saturated(WILD), st.sampled_from("XY"))
def test_wild_transform_of_the_elimination_has_at_least_its_order(
        data, chart):
    for e1, e2 in transform_orders(*data, chart):
        assert e1 >= e2, (data, chart)


def test_a_wild_transform_is_strictly_above_the_elimination_of_the_transform():
    # E = Y^4 W^2 transforms to X^2*Y^4 W^2, of order 3; the saturated
    # transform holds Delta_X(X*Y^2 + Z^2) = Y^2 W, which eliminates to
    # Y^4 W^2, of order 2
    R = RINGS["F2"]
    f = R.parse("X*Y^2+Z^2")
    G = diff_saturate(ReesAlgebra(R, [ReesGenerator(f, 2)]))
    assert (3, 2) in transform_orders(G, f, 2, "X")
