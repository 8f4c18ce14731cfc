"""Elimination against oracles that share none of its code paths.

For f monic of Z-degree c, the characteristic polynomial of multiplication
by g on k[x][Z]/(f) is the resultant Res_Z(f, V - g) = prod_{f(a)=0}
(V - g(a)), so its coefficients, the paper's generalized discriminants,
come from sympy's resultant over Q and F_p.  Over F_{p^k}, where sympy has
no field, they are checked point by point: at every base point P, h_j(P)
is a coefficient of det(V - M(P)), with M(P) built from g(P, Z) * Z^i mod
f(P, Z) and the determinant interpolated from c + 1 values of V, in
FieldElement arithmetic alone.
"""
import random
from fractions import Fraction

import pytest

from reeselim import (Polynomial, ReesAlgebra, ReesGenerator, char_poly,
                      diff_saturate, eliminate, mult_matrix)
from reeselim import elim

from test_elim import force_packing
from test_elim import ring as named_ring

sympy = pytest.importorskip("sympy")
X, Y, Z, V = sympy.symbols("X Y Z V")


def ring(spec):
    return named_ring(spec, "X", "Y", "Z")


def as_sympy(terms):
    """The sympy expression of a term map {(a, b, c): int or Fraction}."""
    return sum(sympy.Rational(v.numerator, v.denominator)
               * X**a * Y**b * Z**c for (a, b, c), v in terms.items())


def from_sympy(R, expr):
    """A Z-free sympy expression as a polynomial of R, reduced mod p."""
    return Polynomial(R, {(a, b, 0): Fraction(int(v.p), int(v.q))
                          for (a, b), v in sympy.Poly(expr, X, Y).terms()})


def resultant_coefficients(R, f, g):
    """[h_1, ..., h_c] of Res_Z(f, V - g), whose sign convention makes its
    V^c coefficient +-1, as polynomials of R."""
    coeffs = sympy.Poly(sympy.resultant(as_sympy(f), V - as_sympy(g), Z),
                        V).all_coeffs()
    lead = coeffs[0]
    assert lead in (1, -1)
    return [from_sympy(R, sympy.expand(h / lead)) for h in coeffs[1:]]


def random_pair(rng, c, coefficients):
    """Term maps of f = Z^c plus two terms of lower Z-degree, and of g with
    three terms, one of Z-degree c + 1 or c + 2."""
    def term(z_max):
        return ((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, z_max)),
                rng.choice(coefficients))

    f = {(0, 0, c): 1}
    for e, v in (term(c - 1), term(c - 1)):
        f[e] = f.get(e, 0) + v
    top = ((rng.randint(0, 1), rng.randint(0, 1), c + rng.randint(1, 2)),
           rng.choice(coefficients))
    g = dict([term(c), term(c + 2), top])
    return f, g


@pytest.mark.parametrize("spec", ["Q", "F2", "F3", "F5", "F7"])
def test_char_poly_of_mult_matrix_is_the_resultant(spec, monkeypatch):
    # every c up to 5 on the default routes (raw maps at c <= 3, packed or
    # raw above), then again with packing forced, so both paths meet the
    # resultant; g's Z-degree passes c, so mult_matrix divides first
    R = ring(spec)
    p = R.field.p
    coefficients = ([1, 2, -3, Fraction(1, 2)] if not p
                    else [v for v in (1, 2, -1) if v % p])
    rng = random.Random("resultant/" + spec)
    cases = []
    for c in range(1, 6):
        for _ in range(2):
            f, g = random_pair(rng, c, coefficients)
            M = mult_matrix(Polynomial(R, g), Polynomial(R, f), "Z")
            cases.append((M, resultant_coefficients(R, f, g)))
    for M, expected in cases:
        assert char_poly(M) == expected
    force_packing(monkeypatch)
    for M, expected in cases:
        assert elim._packed_char_poly(M.matrix) == expected
        assert char_poly(M) == expected


def test_eliminate_is_the_algebra_of_the_saturation_resultants():
    # over Q with scalar multiples among the generators (lam = -2 and 3),
    # so the class rule h_j(lam*m) = lam^j h_j(m) is met at several j;
    # every generator of the relative saturation, f's included, gives its
    # nonzero resultant coefficients h_j at weight j times its own
    R = ring("Q")
    base = R.drop_variable("Z")
    rng = random.Random("eliminate")
    for c in (2, 3, 4):
        _, g = random_pair(rng, c, [1, 2, -3])
        _, h = random_pair(rng, c, [1, -1, 3])
        f = {(0, 0, c): 1}   # transversal: every other term has order > c
        for z in rng.sample(range(c), 2):
            a = rng.randint(0, c - z)
            f[a, c - z - a + 1, z] = rng.choice([1, -2, 3])
        fp, gp, hp = (Polynomial(R, t) for t in (f, g, h))
        G = ReesAlgebra.from_pairs(R, [
            (fp, c), (gp, 1), (gp.scale(-2), 2), (hp, 1), (hp.scale(3), 2)])
        result = eliminate(G, ReesGenerator(fp, c), "Z")
        expected = set()
        for s in diff_saturate(G, {"Z"}).generators:
            terms = {e: v.val for e, v in s.poly.terms.items()}
            for j, hj in enumerate(resultant_coefficients(R, f, terms), 1):
                if not hj.is_zero():
                    expected.add((hj.project_out("Z"), j * s.weight))
        assert {(p.poly, p.weight) for p in result.algebra.generators} == \
            expected
        assert result.base_ring == base


def evaluate(poly, point):
    """poly at the point, Z kept: the list of Z-coefficients, FieldElements
    only."""
    field = poly.ring.field
    out = []
    for (a, b, c), v in poly.terms.items():
        out += [field.zero()] * (c + 1 - len(out))
        out[c] = out[c] + v * point[0]**a * point[1]**b
    return out


def remainder(u, f):
    """u mod the monic f, both Z-coefficient lists."""
    u = list(u)
    c = len(f) - 1
    for top in range(len(u) - 1, c - 1, -1):
        lead = u[top]
        for i in range(c + 1):
            u[top - c + i] = u[top - c + i] - lead * f[i]
    return (u + [f[0].field.zero()] * c)[:c]


def determinant(rows):
    """det of a square FieldElement matrix by Gaussian elimination."""
    rows = [list(r) for r in rows]
    n = len(rows)
    det = rows[0][0].field.one()
    for k in range(n):
        pivot = next((i for i in range(k, n) if not rows[i][k].is_zero()),
                     None)
        if pivot is None:
            return rows[0][0].field.zero()
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det = det * rows[k][k]
        inv = rows[k][k].inverse()
        for i in range(k + 1, n):
            factor = rows[i][k] * inv
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    return det


def interpolate(points):
    """Coefficients, lowest first, of the polynomial of degree < len(points)
    through the (v, value) pairs, by Lagrange's formula."""
    field = points[0][0].field
    out = [field.zero()] * len(points)
    for i, (vi, yi) in enumerate(points):
        basis, scale = [field.one()], yi
        for j, (vj, _) in enumerate(points):
            if j != i:   # basis *= (V - vj)
                basis = [(basis[k - 1] if k else field.zero())
                         - (vj * basis[k] if k < len(basis) else field.zero())
                         for k in range(len(basis) + 1)]
                scale = scale * (vi - vj).inverse()
        out = [o + scale * b for o, b in zip(out, basis)]
    return out


@pytest.mark.parametrize("spec,degrees", [
    ("F4", (2, 3)), ("F8:t^3+t^2+1", (3, 4, 5)), ("F9", (3, 4, 5))])
@pytest.mark.parametrize("forced", [False, True])
def test_char_poly_at_every_base_point_is_the_pointwise_determinant(
        spec, degrees, forced, monkeypatch):
    if forced:
        force_packing(monkeypatch)
    R = ring(spec)
    field = R.field
    values = field.elements()
    units = [a for a in values if not a.is_zero()]
    rng = random.Random("pointwise/" + spec)
    for c in degrees:
        f, g = random_pair(rng, c, units)
        h = char_poly(mult_matrix(Polynomial(R, g), Polynomial(R, f), "Z"))
        for P in [(a, b) for a in values for b in values]:
            fP = evaluate(Polynomial(R, f), P)
            gP = evaluate(Polynomial(R, g), P)
            columns = []
            column = remainder(gP, fP)
            for _ in range(c):   # column i is g(P, Z) * Z^i mod f(P, Z)
                columns.append(column)
                column = remainder([field.zero()] + column, fP)
            M = list(zip(*columns))
            # det(vI - M) at c + 1 values of V, read back as V^c + h_1
            # V^(c-1) + ... + h_c
            det = interpolate([(v, determinant(
                [[(v if i == j else field.zero()) - M[i][j]
                  for j in range(c)] for i in range(c)]))
                for v in values[:c + 1]])
            assert det[c] == field.one()
            assert [sum(evaluate(hj, P), field.zero()) for hj in h] == \
                det[c - 1::-1]
