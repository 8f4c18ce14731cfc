"""Multiplication matrices, characteristic polynomials, and elimination."""
import itertools
import random
from fractions import Fraction

import pytest

from reeselim import elim
from reeselim import (FieldDescriptor, MultiplicationMatrix, ReesAlgebra,
                      ReesError, ReesGenerator, ResourceCapError, RingContext,
                      RingError, buchberger,
                      cayley_hamilton_residue, char_poly, degree_ideal,
                      diff_saturate, eliminate, format_elimination, is_simple,
                      membership, mult_matrix, ord_at_point,
                      rational_singular_points, rational_zero_set,
                      singular_ideal, slope_equivalent, univ_divmod)


def ring(spec, *names):
    return RingContext(FieldDescriptor.parse(spec), names)


def algebra(R, *pairs):
    return ReesAlgebra.from_pairs(R, [(R.parse(t), w) for t, w in pairs])


QYZ = ring("Q", "Y", "Z")
F2YZ = ring("F2", "Y", "Z")


def test_mult_matrix_diagonal():
    M = mult_matrix(F2YZ.parse("Y^4"), F2YZ.parse("Z^2+Y^5"), "Z")
    y4, zero = F2YZ.parse("Y^4"), F2YZ.zero()
    assert M.matrix == ((y4, zero), (zero, y4))


def test_mult_matrix_companion_style():
    M = mult_matrix(F2YZ.var("Z"), F2YZ.parse("Z^2+Y^5"), "Z")
    z5, zero, one = F2YZ.parse("Y^5"), F2YZ.zero(), F2YZ.one()
    assert M.matrix == ((zero, z5), (one, zero))


def test_mult_matrix_identity():
    f = QYZ.parse("Z^3+Y*Z+1")
    M = mult_matrix(QYZ.one(), f, "Z")
    for i in range(3):
        for j in range(3):
            expected = QYZ.one() if i == j else QYZ.zero()
            assert M.matrix[i][j] == expected
    with pytest.raises(RingError):
        mult_matrix(QYZ.one(), QYZ.parse("Y*Z^2"), "Z")


def test_char_poly_norm_of_y4_char_two():
    M = mult_matrix(F2YZ.parse("Y^4"), F2YZ.parse("Z^2+Y^5"), "Z")
    h1, h2 = char_poly(M)
    assert h1.is_zero()  # trace 2Y^4 = 0
    assert h2 == F2YZ.parse("Y^8")


def test_char_poly_of_unit_is_binomial_expansion():
    f = QYZ.parse("Z^3+Y")
    coeffs = char_poly(mult_matrix(QYZ.one(), f, "Z"))
    # (V - 1)^3 = V^3 - 3V^2 + 3V - 1
    assert [c.constant_value() for c in coeffs] == \
        [QYZ.field.element(v) for v in (-3, 3, -1)]


def test_char_poly_of_z_and_cayley_hamilton():
    f = QYZ.parse("Z^2+Y^5")
    h1, h2 = char_poly(mult_matrix(QYZ.var("Z"), f, "Z"))
    assert h1.is_zero() and h2 == QYZ.parse("Y^5")
    assert cayley_hamilton_residue(QYZ.var("Z"), f, "Z").is_zero()


def test_trace_and_determinant_identities():
    f = QYZ.parse("Z^2+Y*Z+Y^3")
    g = QYZ.parse("Z+Y^2")
    M = mult_matrix(g, f, "Z")
    h = char_poly(M)
    trace = M.matrix[0][0] + M.matrix[1][1]
    det = M.matrix[0][0] * M.matrix[1][1] - M.matrix[0][1] * M.matrix[1][0]
    assert h[0] == -trace
    assert h[1] == det


def leibniz_char_poly(M):
    """Oracle: det(V*Id - M) summed over permutations in a ring with an
    extra variable V, split into the coefficients h_1..h_c of V^{c-1}..V^0."""
    c = M.size
    R = M.matrix[0][0].ring
    E = RingContext(R.field, R.variables + ("V",))
    v = E.var("V")
    entries = [[(v if i == j else E.zero()) - M.matrix[i][j].lift(E)
                for j in range(c)] for i in range(c)]
    det = E.zero()
    for perm in itertools.permutations(range(c)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(c) for j in range(i + 1, c))
        term = E.one() if inversions % 2 == 0 else -E.one()
        for i in range(c):
            term = term * entries[i][perm[i]]
        det = det + term
    coeffs = det.coefficients_in("V")
    assert coeffs[c] == E.one()
    return [coeffs[c - j].project_out("V") for j in range(1, c + 1)]


def random_matrix(rng, R, c):
    """Small random polynomial entries, many zeros, sometimes a zero row or
    column."""
    def entry():
        if rng.random() < 0.35:
            return R.zero()
        p = R.zero()
        for _ in range(rng.randrange(1, 3)):
            p = p + R.monomial((rng.randrange(2), rng.randrange(2)),
                               rng.randrange(-2, 3))
        if R.field.k > 1 and rng.random() < 0.5:
            p = p * R.constant(R.field.generator())
        return p

    matrix = [[entry() for _ in range(c)] for _ in range(c)]
    shape = rng.randrange(3)
    if shape == 1:
        matrix[rng.randrange(c)] = [R.zero()] * c
    elif shape == 2:
        j = rng.randrange(c)
        for row in matrix:
            row[j] = R.zero()
    return MultiplicationMatrix(None, None, matrix, None)


def test_char_poly_matches_leibniz_oracle():
    rng = random.Random(2024)
    for spec in ("Q", "F2", "F3", "F4", "F5"):
        R = ring(spec, "X", "Y")
        for c in range(1, 6):
            for _ in range(4 if c < 5 else 2):
                M = random_matrix(rng, R, c)
                assert char_poly(M) == leibniz_char_poly(M)


def test_char_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(77)
    for spec in ("Q", "F2", "F3", "F5"):
        R = ring(spec, "X")
        for c in range(1, 7):
            for _ in range(3):
                ints = [[rng.randrange(-4, 5) for _ in range(c)]
                        for _ in range(c)]
                M = MultiplicationMatrix(
                    None, None, [[R.constant(a) for a in row] for row in ints],
                    None)
                # over F_p the char-poly of the reduced matrix is the integer
                # char-poly reduced mod p
                theirs = sympy.Matrix(ints).charpoly().all_coeffs()
                assert char_poly(M) == [R.constant(int(h)) for h in theirs[1:]]


def test_char_poly_degree_cap_is_a_resource_cap():
    zero = QYZ.zero()
    M = MultiplicationMatrix(None, None, [[zero] * 13 for _ in range(13)], "Z")
    with pytest.raises(ResourceCapError, match="13.*12"):
        char_poly(M)


def test_eliminate_refuses_a_degree_above_the_cap_before_saturating(
        monkeypatch):
    def no_saturation(*args):
        raise AssertionError("diff_saturate called")

    monkeypatch.setattr(elim, "diff_saturate", no_saturation)
    R = ring("F3", "x", "Z")
    f = ReesGenerator(R.parse("Z^13+x^13"), 13)
    with pytest.raises(ResourceCapError, match="degree 13 > cap 12"):
        eliminate(algebra(R, ("Z^13+x^13", 13)), f, "Z")


def test_eliminate_char_zero_example():
    G = diff_saturate(algebra(QYZ, ("Z^2+Y^5", 2)))
    result = eliminate(G, ReesGenerator(QYZ.var("Z"), 1), "Z")
    S = result.base_ring
    assert S.variables == ("Y",)
    y4 = S.parse("Y^4")
    weight1 = [g.poly for g in result.algebra.generators if g.weight == 1]
    assert any(p.scale(p.leading_coefficient().inverse()) == y4
               for p in weight1)
    # every weight-1 generator sits inside <Y^4>
    assert all(p.degree_in("Y") >= 4 for p in weight1)


def test_eliminate_char_two_example_is_exactly_y8():
    G = diff_saturate(algebra(F2YZ, ("Z^2+Y^5", 2)))
    f = ReesGenerator(F2YZ.parse("Z^2+Y^5"), 2)
    result = eliminate(G, f, "Z")
    S = result.base_ring
    assert set(result.algebra.generators) == \
        {ReesGenerator(S.parse("Y^8"), 2)}


def test_eliminate_three_variable_example_is_simple():
    R = ring("F2", "X", "Y", "Z")
    G = diff_saturate(algebra(R, ("X^2", 2), ("Z^2+Y^5", 2)))
    f = ReesGenerator(R.parse("Z^2+Y^5"), 2)
    result = eliminate(G, f, "Z")
    S = result.base_ring
    assert any(g.poly == S.parse("X^4") and g.weight == 4
               for g in result.algebra.generators)
    assert is_simple(result.algebra, S.origin())


def test_eliminate_weight_law():
    G = diff_saturate(algebra(F2YZ, ("Z^2+Y^5", 2)))
    f = ReesGenerator(F2YZ.parse("Z^2+Y^5"), 2)
    result = eliminate(G, f, "Z")
    for gen, (_, source_weight, j) in zip(result.algebra.generators,
                                          result.provenance):
        assert gen.weight == j * source_weight


def test_eliminate_transversality_check():
    R = ring("Q", "Y", "Z")
    G = algebra(R, ("Z^2+Y", 2))
    f = ReesGenerator(R.parse("Z^2+Y"), 2)
    with pytest.raises(ReesError):
        eliminate(G, f, "Z")  # order 1 != weight 2
    result = eliminate(G, f, "Z", check_transversal=False)
    assert result.base_ring.variables == ("Y",)
    with pytest.raises(ReesError):
        eliminate(G, ReesGenerator(R.parse("Y*Z+1"), 1), "Z")  # not monic


def test_emitted_generators_lie_in_the_degree_ideals():
    G = diff_saturate(algebra(F2YZ, ("Z^2+Y^5", 2)))
    f = ReesGenerator(F2YZ.parse("Z^2+Y^5"), 2)
    result = eliminate(G, f, "Z")
    for g in result.algebra.generators:
        gb = buchberger(degree_ideal(G, g.weight))
        assert membership(g.poly.lift(F2YZ), gb)


def test_projected_singular_points_match():
    G = diff_saturate(algebra(F2YZ, ("Z^2+Y^5", 2)))
    f = ReesGenerator(F2YZ.parse("Z^2+Y^5"), 2)
    result = eliminate(G, f, "Z")
    upstairs = {p.drop("Z") for p in rational_singular_points(G)}
    downstairs = rational_zero_set(singular_ideal(result.algebra))
    assert upstairs == downstairs


def test_slope_equivalence():
    S = ring("F2", "Y")
    a = algebra(S, ("Y^8", 2))
    b = algebra(S, ("Y^4", 1))
    assert slope_equivalent(a, b)
    assert not slope_equivalent(algebra(S, ("Y^3", 1)), algebra(S, ("Y^2", 1)))
    assert slope_equivalent(b, b)


def test_slope_equivalence_refuses_unsupported_input():
    with pytest.raises(ReesError):
        slope_equivalent(algebra(QYZ, ("Y", 1)), algebra(QYZ, ("Z", 1)))
    S = ring("Q", "Y")
    with pytest.raises(ReesError):
        slope_equivalent(algebra(S, ("Y+1", 1)), algebra(S, ("Y", 1)))


def test_mult_matrix_divides_once(monkeypatch):
    # g is reduced mod f once; the columns come from the companion
    # recurrence, and a zero column stays zero without a division
    calls = []

    def counting_divmod(f, g, var):
        calls.append(f)
        return univ_divmod(f, g, var)

    monkeypatch.setattr(elim, "univ_divmod", counting_divmod)
    f = QYZ.parse("Z^3+Y*Z+1")
    M = mult_matrix(f * QYZ.parse("Y+Z"), f, "Z")
    assert M.element.is_zero() and len(calls) == 1
    assert all(e.is_zero() for row in M.matrix for e in row)
    assert M.size == 3
    calls.clear()
    M = mult_matrix(QYZ.one(), f, "Z")
    assert len(calls) == 1 and M.matrix[2][2] == QYZ.one()


def test_eliminate_builds_one_char_poly_per_distinct_polynomial(monkeypatch):
    # saturation emits Z^2+X^3+Y^4 at weights 1 and 2: five generators,
    # four distinct polynomials, four multiplication matrices
    calls = []

    def counting_mult_matrix(g, f, z_var):
        calls.append(g)
        return mult_matrix(g, f, z_var)

    monkeypatch.setattr(elim, "mult_matrix", counting_mult_matrix)
    R = ring("Q", "X", "Y", "Z")
    G = diff_saturate(algebra(R, ("Z^2+X^3+Y^4", 2)))
    result = eliminate(G, ReesGenerator(R.parse("Z^2+X^3+Y^4"), 2), "Z")
    assert len(G.generators) == 5 and len(calls) == 4
    assert len(set(calls)) == 4
    assert format_elimination(result) == (
        "ring: Q[X,Y]\n"
        "gen: 4*Y^4+4*X^3 w 2  # from: 2*Z w 1 coeff 2\n"
        "gen: -8*Y^3 w 1  # from: 4*Y^3 w 1 coeff 1\n"
        "gen: 16*Y^6 w 2  # from: 4*Y^3 w 1 coeff 2\n"
        "gen: -6*X^2 w 1  # from: 3*X^2 w 1 coeff 1\n"
        "gen: 9*X^4 w 2  # from: 3*X^2 w 1 coeff 2\n")


def mult_matrix_by_columns(g, f, z_var):
    """Entry (i, j) is the Z^i coefficient of g*Z^j mod f, one division per
    column: the oracle for mult_matrix's companion recurrence."""
    R = f.ring
    c = f.degree_in(z_var)
    rows = [[R.zero()] * c for _ in range(c)]
    for j in range(c):
        _, col = univ_divmod(g * R.var(z_var)**j, f, z_var)
        for i, x in enumerate(col.coefficients_in(z_var)):
            rows[i][j] = x
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("spec", ["Q", "F2", "F3", "F4", "F5"])
@pytest.mark.parametrize("base", [("Y",), ("X", "Y")])
def test_mult_matrix_matches_the_column_definition(spec, base):
    R = ring(spec, *base, "Z")
    field = R.field
    rng = random.Random(spec + "".join(base))
    values = (field.elements() if field.p else
              [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)])

    def draw(z_max, nterms):
        # few terms over several Z powers, so some coefficients are zero
        out = R.zero()
        for _ in range(nterms):
            exps = [rng.randrange(3) for _ in base] + [rng.randrange(z_max + 1)]
            out = out + R.monomial(exps, rng.choice(values))
        return out

    Z, Y = R.var("Z"), R.var("Y")
    for c in range(1, 6):
        moduli = [Z**c, Z**c + Y * Z**(c - 1)]   # zero low coefficients
        moduli += [Z**c + draw(c - 1, rng.randrange(1, 5)) for _ in range(4)]
        for f in moduli:
            elements = [draw(c + 2, rng.randrange(1, 6)) for _ in range(3)]
            elements += [R.one(), Z, f * draw(2, 3)]   # the last is 0 mod f
            for g in elements:
                M = mult_matrix(g, f, "Z")
                assert M.matrix == mult_matrix_by_columns(g, f, "Z")
                assert M.element == univ_divmod(g, f, "Z")[1]
    f = Z**3 + Y * Z
    M = mult_matrix(f * (Y + Z**4), f, "Z")
    assert M.matrix == ((R.zero(),) * 3,) * 3


def test_zero_elimination_algebra_warning_path():
    G = algebra(F2YZ, ("Z^2+Y", 2))
    f = ReesGenerator(F2YZ.parse("Z^2+Y"), 2)
    result = eliminate(G, f, "Z", check_transversal=False)
    assert result.algebra.is_empty()


def test_format_elimination_carries_provenance():
    G = diff_saturate(algebra(F2YZ, ("Z^2+Y^5", 2)))
    f = ReesGenerator(F2YZ.parse("Z^2+Y^5"), 2)
    text = format_elimination(eliminate(G, f, "Z"))
    assert "gen: Y^8 w 2" in text and "# from:" in text


def test_cayley_hamilton_randomized():
    rng = random.Random(41)
    for spec in ("Q", "F2", "F3", "F5"):
        R = ring(spec, "Y", "Z")
        for _ in range(15):
            c = rng.randrange(1, 4)
            f = R.var("Z")**c
            for j in range(c):
                coeff = R.monomial((rng.randrange(3), 0), rng.randrange(4))
                f = f + coeff * R.var("Z")**j
            g = R.zero()
            for _ in range(rng.randrange(1, 4)):
                g = g + R.monomial((rng.randrange(3), rng.randrange(3)),
                                   rng.randrange(1, 4))
            assert cayley_hamilton_residue(g, f, "Z").is_zero()


def test_shear_invariance_of_elimination_order():
    R = ring("Q", "X", "Y", "Z")
    f = R.parse("Z^2+X^3+Y^4")
    G = diff_saturate(algebra(R, ("Z^2+X^3+Y^4", 2)))
    OS = R.drop_variable("Z").origin()
    direct = eliminate(G, ReesGenerator(f, 2), "Z").algebra
    base = ord_at_point(direct, OS)
    for lam in (1, 2):
        shear = {"Z": R.var("Z") + R.var("X").scale(lam)}
        sheared = diff_saturate(ReesAlgebra.from_pairs(
            R, [(g.poly.substitute(shear), g.weight) for g in G.generators]))
        E = eliminate(sheared, ReesGenerator(f.substitute(shear), 2),
                      "Z").algebra
        assert ord_at_point(E, OS) == base
