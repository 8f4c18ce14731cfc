"""Property tests: the Hasse Leibniz and composition laws, and the monomial
degree_ideal path against its scalar oracle."""
import itertools
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from reeselim import (FieldDescriptor, ReesAlgebra, RingContext,  # noqa: E402
                      degree_ideal, hasse_derivative)
from test_rees import scalar_oracle_degree_ideal  # noqa: E402

SPECS = ("Q", "F2", "F3", "F4", "F5", "F9")
RINGS = {(spec, n): RingContext(FieldDescriptor.parse(spec),
                                ("x", "y", "z")[:n])
         for spec in SPECS for n in (1, 2, 3)}
SETTINGS = hypothesis.settings(max_examples=60, deadline=None,
                               database=None)


@st.composite
def rings(draw):
    return RINGS[draw(st.sampled_from(SPECS)), draw(st.integers(1, 3))]


def coefficients(R):
    if R.field.p:
        return st.sampled_from([c for c in R.field.elements()
                                if not c.is_zero()])
    return st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(
        lambda c: c != 0)


def exponents(R, top):
    return st.tuples(*[st.integers(0, top)] * R.nvars)


@st.composite
def polynomials(draw, R, top=4):
    f = R.zero()
    for exps, c in draw(st.lists(st.tuples(exponents(R, top),
                                           coefficients(R)), max_size=4)):
        f = f + R.monomial(exps, c)
    return f


def binomial(alpha, beta):
    return math.prod(math.comb(a + b, a) for a, b in zip(alpha, beta))


@SETTINGS
@hypothesis.given(st.data())
def test_hasse_leibniz_law(data):
    R = data.draw(rings())
    f, g = data.draw(polynomials(R)), data.draw(polynomials(R))
    alpha = data.draw(exponents(R, 3))
    rhs = R.zero()
    for beta in itertools.product(*(range(a + 1) for a in alpha)):
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        rhs = rhs + hasse_derivative(f, beta) * hasse_derivative(g, gamma)
    assert hasse_derivative(f * g, alpha) == rhs


@SETTINGS
@hypothesis.given(st.data())
def test_hasse_composition_law(data):
    R = data.draw(rings())
    f = data.draw(polynomials(R, top=6))
    alpha, beta = data.draw(exponents(R, 3)), data.draw(exponents(R, 3))
    total = tuple(a + b for a, b in zip(alpha, beta))
    assert hasse_derivative(hasse_derivative(f, beta), alpha) == \
        hasse_derivative(f, total).scale(binomial(alpha, beta))


@SETTINGS
@hypothesis.given(st.data())
def test_monomial_degree_ideal_matches_scalar_oracle(data):
    R = data.draw(rings())
    pairs = data.draw(st.lists(
        st.tuples(exponents(R, 2), coefficients(R), st.integers(1, 3)),
        min_size=1, max_size=4))
    G = ReesAlgebra.from_pairs(R, [(R.monomial(e, c), w)
                                   for e, c, w in pairs])
    k = data.draw(st.integers(1, 6))
    assert degree_ideal(G, k).generators == scalar_oracle_degree_ideal(G, k)

