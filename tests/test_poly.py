"""Sparse polynomial arithmetic and the univariate toolkit."""
import itertools
import random
import re
import signal
from fractions import Fraction

import pytest

from reeselim import poly
from reeselim import (INFINITE_ORDER, FieldDescriptor, FieldError,
                      Polynomial, RingContext, RingError, univ_divmod,
                      univ_gcd, univ_radical)
from reeselim.poly import _sum_of_products, formal_derivative, grevlex_key


def ring(spec, *names):
    return RingContext(FieldDescriptor.parse(spec), names)


QYZ = ring("Q", "Y", "Z")
F2YZ = ring("F2", "Y", "Z")


def schoolbook_product(f, g):
    """f * g term by term with FieldElement arithmetic: the oracle for the
    product on raw values in Polynomial.__mul__."""
    R = f.ring
    coeffs = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            coeffs[e] = coeffs.get(e, R.field.zero()) + c1 * c2
    return sum((R.monomial(e, c) for e, c in coeffs.items()), R.zero())


def test_product_difference_of_squares():
    Y, Z = QYZ.var("Y"), QYZ.var("Z")
    assert (Z + Y) * (Z - Y) == QYZ.parse("Z^2-Y^2")


def test_frobenius_square_in_char_two():
    Y, Z = F2YZ.var("Y"), F2YZ.var("Z")
    assert (Z + Y)**2 == F2YZ.parse("Z^2+Y^2")
    f = F2YZ.parse("Z^2+Y^5")
    assert f * f == F2YZ.parse("Z^4+Y^10")


def test_products_that_cancel_to_zero():
    R = ring("F2", "x")
    x = R.var("x")
    # the raw x coefficient is 1 + 1; it must reduce to zero and be dropped
    assert ((x + 1) * (x - 1)).terms == R.parse("x^2+1").terms
    for spec in ("F2", "F3", "F5", "F7", "F4", "F9", "F25"):
        R = ring(spec, "x", "y")
        x, y = R.var("x"), R.var("y")
        p = R.field.p
        if R.field.k > 1:
            y = y * R.field.generator()
        f = R.one()
        for _ in range(p):
            f = f * (x + y)
        assert f == x**p + y**p and len(f.terms) == 2
        assert f == schoolbook_product(x + y, (x + y)**(p - 1))


@pytest.mark.parametrize("spec", ["F2147483647", "F4611686014132420609:t^2+1"])
def test_product_over_a_field_near_two_to_the_31(spec):
    R = ring(spec, "x", "y")
    p = R.field.p
    x = R.var("x")
    c = R.constant(R.field.generator() if R.field.k > 1 else p - 1)
    # (x + c)(x - c) = x^2 - c^2: c^2 is 1 in F_p (c = -1) and -1 in F_{p^2}
    expected = R.parse("x^2-1" if R.field.k == 1 else "x^2+1")
    assert ((x + c) * (x - c)).terms == expected.terms
    rng = random.Random(7)

    def draw():
        terms = {}
        for _ in range(5):
            e = (rng.randrange(3), rng.randrange(3))
            v = rng.randrange(p - 5, p) if R.field.k == 1 else \
                tuple(rng.randrange(p - 5, p) for _ in range(2))
            terms[e] = R.coeff(v)
        return Polynomial(R, terms)

    for _ in range(20):
        f, g = draw(), draw()
        assert f * g == schoolbook_product(f, g)


def sum_of_products(R, pairs):
    """f_1*g_1 + ... + f_n*g_n for the (f_i, g_i) in pairs, Polynomials of
    the ring R, by poly's raw kernel _sum_of_products."""
    return Polynomial._from_raw(R, _sum_of_products(
        R.field, [(f._raw, g._raw) for f, g in pairs], R.nvars))


def schoolbook_sum(R, pairs):
    """The sum of the schoolbook products of the pairs: the oracle for
    _sum_of_products."""
    total = R.zero()
    for f, g in pairs:
        total = total + schoolbook_product(f, g)
    return total


@pytest.mark.parametrize("spec", ["Q", "F2", "F4", "F25", "F2147483647"])
def test_sum_of_products_matches_the_schoolbook_sum(spec):
    R = ring(spec, "x", "y")
    field = R.field
    rng = random.Random(spec)

    def value():
        if field.p == 0:
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        if field.k == 1:
            return rng.randrange(field.p)
        return tuple(rng.randrange(field.p) for _ in range(field.k))

    def draw():
        return Polynomial(R, {(rng.randrange(3), rng.randrange(3)):
                              R.coeff(value())
                              for _ in range(rng.randrange(6))})

    for _ in range(20):
        pairs = [(draw(), draw()) for _ in range(rng.randrange(6))]
        total = sum_of_products(R, pairs)
        assert total == schoolbook_sum(R, pairs)
        if field.p == 0:
            assert all(type(c.val) is int or c.val.denominator > 1
                       for c in total.terms.values())
    assert sum_of_products(R, []) == R.zero()


@pytest.mark.parametrize("spec", ["Q", "F2", "F4", "F25"])
def test_sum_of_products_that_cancels(spec):
    R = ring(spec, "x", "y")
    x, y = R.var("x"), R.var("y")
    total = sum_of_products(R, [(x, y), (-x, y)])
    assert total.is_zero() and total.terms == {}
    # x*y cancels, the other three terms of (x+1)(y+1) stay
    pairs = [(x + 1, y + 1), (-x, y)]
    assert sum_of_products(R, pairs).terms == (x + y + 1).terms
    assert sum_of_products(R, pairs) == schoolbook_sum(R, pairs)


def test_rational_product_holds_integral_values_as_int():
    R = ring("Q", "x")
    f = R.parse("1/2*x+1") * R.parse("2*x-4/3")
    assert f == R.parse("x^2+4/3*x-4/3")
    assert type(f.terms[(2,)].val) is int


def test_a_constant_with_no_image_in_the_field_is_unequal():
    # F5's one has no image in Q, and 1/5 none in F5: == answers False and
    # != True, so list.count answers too, as F5.one() == Q.one() does
    R, S = ring("Q", "x"), ring("F5", "x")
    F5 = S.field
    assert not R.one() == F5.one() and R.one() != F5.one()
    assert [R.one(), R.zero()].count(F5.one()) == 0
    assert not S.one() == Fraction(1, 5) and S.one() != Fraction(1, 5)
    assert [S.one(), S.zero()].count(Fraction(1, 5)) == 0
    # a value with an image still compares by it
    assert R.one() == 1 and S.one() == Fraction(6, 1) == F5.one()


def test_is_monic_in_reads_only_the_top_degree():
    # a coefficient list up to Z^(2^31 - 2) would not fit in memory; the
    # degree stays below 2^31 in Z*Y too
    Z = QYZ.var("Z")**(2**31 - 2)
    assert Z.is_monic_in("Z")
    assert (Z + QYZ.parse("Y^3*Z+1")).is_monic_in("Z")
    assert not (Z.scale(2) + QYZ.var("Y")).is_monic_in("Z")
    assert not (Z * QYZ.var("Y")).is_monic_in("Z")
    assert not (Z + Z * QYZ.var("Y")).is_monic_in("Z")
    assert not QYZ.zero().is_monic_in("Z")
    assert QYZ.one().is_monic_in("Z") and not QYZ.constant(3).is_monic_in("Z")


LIMIT = r"total degree reaches the limit 2\^31"


def test_a_total_degree_of_2_31_or_more_raises_and_never_wraps():
    # the constructor: one entry at the limit, entries summing to it, and
    # entries too large for a key's 32-bit fields
    for exps in ((2**31, 0), (2**31 - 1, 1), (2**40, 2**40)):
        with pytest.raises(RingError, match=LIMIT):
            Polynomial(QYZ, {exps: 1})
    assert QYZ.monomial((2**31 - 2, 1)).leading_monomial() == (2**31 - 2, 1)
    # the parser's powers
    with pytest.raises(RingError, match=LIMIT):
        QYZ.parse("Y^2147483648")
    with pytest.raises(RingError, match=LIMIT):
        QYZ.parse("Y^2147483647*Z")
    assert QYZ.parse("Y^2147483647").terms == {(2**31 - 1, 0): 1}
    # products crossing 2^31: a one-term factor, two multi-term factors,
    # and powers, which are refused before any product
    top = QYZ.parse("Y^2147483646")
    assert (top * QYZ.var("Z")).leading_monomial() == (2**31 - 2, 1)
    with pytest.raises(RingError, match=LIMIT):
        top * QYZ.parse("Y*Z")
    with pytest.raises(RingError, match=LIMIT):
        (top + 1) * QYZ.parse("Y*Z+1")
    with pytest.raises(RingError, match=LIMIT):
        QYZ.parse("Y^1073741824")**2


def test_a_power_reaching_2_31_is_refused_before_any_product(monkeypatch):
    # (Y+Z+1)^(2^30) alone would have about 2^59 terms
    f = QYZ.parse("Y+Z+1")

    def no_product(f, g):
        pytest.fail("a product was made")

    monkeypatch.setattr(Polynomial, "__mul__", no_product)
    with pytest.raises(RingError, match=LIMIT):
        f**2**31


def test_substitution_blowup_charts():
    f = QYZ.parse("Z^2+Y^5")
    sub = f.substitute({"Z": QYZ.var("Y") * QYZ.var("Z")})
    assert sub == QYZ.parse("Y^2*Z^2+Y^5")
    z = QYZ.var("Z")
    assert z.substitute({"Z": z}) == z
    R3 = ring("F3", "X", "Z")
    g = R3.parse("Z^3+X^13*Z+X^16")
    moved = g.substitute({"Z": R3.var("X") * R3.var("Z")})
    assert moved == R3.parse("X^3*Z^3+X^14*Z+X^16")


def test_evaluation():
    f = F2YZ.parse("Z^2+Y^5")
    assert f.evaluate(F2YZ.point([1, 1])).is_zero()
    F5YZ = ring("F5", "Y", "Z")
    assert F5YZ.parse("Y^4").evaluate(F5YZ.point([0, 3])).is_zero()
    assert F5YZ.parse("Z^2-1").evaluate(F5YZ.point([0, 2])) == \
        F5YZ.field.element(3)


def test_order_at_origin():
    assert QYZ.parse("Z^2+Y^5").order_at_origin() == 2
    assert QYZ.one().order_at_origin() == 0
    RXY = ring("F2", "X", "Y")
    assert RXY.parse("X^4+X^2*Y^5").order_at_origin() == 4
    assert QYZ.zero().order_at_origin() == INFINITE_ORDER


def test_order_along_center_subspaces():
    f = QYZ.parse("Z^2+Y^5")
    assert f.order_along(["Y", "Z"]) == 2
    assert f.order_along(["Z"]) == 0
    # a repeated name counts once: the order along Z = 0 is 1
    assert QYZ.var("Z").order_along(["Z", "Z"]) == 1
    assert f.order_along(["Z", "Y", "Z"]) == 2
    R3 = ring("F3", "X", "Z")
    g = R3.parse("X^3*Z^3+X^14*Z+X^16")
    assert g.order_along(["X", "Z"]) == 6


def test_order_along_refuses_an_empty_center():
    with pytest.raises(RingError, match="^center must be nonempty$"):
        QYZ.parse("Z^2+Y^5").order_along([])


def test_initial_form():
    assert QYZ.parse("Z^2+Y^5").initial_form() == QYZ.parse("Z^2")
    RXY = ring("F2", "X", "Y")
    assert RXY.parse("X^4+X^2*Y^5").initial_form() == RXY.parse("X^4")
    f = QYZ.parse("Y+Z")
    assert f.initial_form() == f
    with pytest.raises(RingError):
        QYZ.zero().initial_form()


def test_recenter():
    f = QYZ.parse("Z^2")
    assert f.recenter(QYZ.point([0, 1])) == QYZ.parse("Z^2+2*Z+1")
    g = QYZ.parse("Z^2-1")
    shifted = g.recenter(QYZ.point([0, 1]))
    assert shifted == QYZ.parse("Z^2+2*Z")
    assert shifted.order_at_origin() == 1
    h = F2YZ.parse("Z^2+Y^5")
    assert h.recenter(F2YZ.origin()) == h


def _random_polynomial(rng, R, terms, top):
    units = [1, 2, -1, Fraction(1, 2)] if R.field.p == 0 else \
        [c for c in R.field.elements() if c]
    return sum((R.monomial([rng.randrange(top) for _ in R.variables],
                           rng.choice(units)) for _ in range(terms)),
               R.zero())


@pytest.mark.parametrize("spec", ["F7", "F4", "Q"])
def test_substitution_matches_evaluation(spec):
    """Evaluation as the oracle: f(x + P) at Q is f at Q + P, and the
    simultaneous substitution x -> x*y + c, y -> x + y^2 at Q is f at the
    images' values, at every point of F7^2 and F4^2 and at random Q
    points."""
    rng = random.Random("substitute/" + spec)
    R = ring(spec, "x", "y")
    F = R.field
    if F.p:
        values = list(F.elements())
        points = [R.point(P) for P in itertools.product(values, repeat=2)]
    else:
        values = [F.element(Fraction(rng.randrange(-9, 10),
                                     rng.randrange(1, 5))) for _ in range(8)]
        points = [R.point(rng.sample(values, 2)) for _ in range(10)]
    x, y = R.var("x"), R.var("y")
    for _ in range(5):
        f = _random_polynomial(rng, R, 6, 9)
        P = R.point([rng.choice(values), rng.choice(values)])
        c = rng.choice(values)
        images = {"x": x * y + R.constant(c), "y": x + y**2}
        g, shifted = f.substitute(images), f.recenter(P)
        for Q in points:
            a, b = Q.coords
            assert shifted.evaluate(Q) == f.evaluate(
                R.point([a + P.coords[0], b + P.coords[1]]))
            assert g.evaluate(Q) == f.evaluate(R.point([a * b + c, a + b * b]))


def test_geometric_sum_over_f7_is_a_power_of_x_minus_one():
    """sum_{i<343} x^i = (x^343 - 1)/(x - 1) = (x - 1)^342 over F7."""
    R = ring("F7", "x")
    f = R.parse("+".join("x^%d" % i for i in range(343)))
    P = R.point([1])
    assert f.recenter(P) == R.var("x")**342
    assert f.order_at(P) == 342


def _count_products(monkeypatch):
    calls = []
    mul = Polynomial.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    return calls


def test_substitution_builds_each_power_from_the_one_before(monkeypatch):
    """One product per distinct exponent when the exponents are
    consecutive, where a square-and-multiply per exponent e costs about
    2*log2(e); a gap g costs the popcount(g) + bit_length(g) - 1 products
    of its square-and-multiply.  A term costs one more product for each
    substituted variable after the first; the sum itself is none."""
    R = ring("F7", "x", "y")
    x, y = R.var("x"), R.var("y")
    geometric = R.parse("+".join("x^%d" % i for i in range(41)))
    sparse = R.parse("x^3+x^10+x^11+5")
    two = R.parse("x^2*y^3+y")
    calls = _count_products(monkeypatch)
    cases = [(geometric, {"x": x + 1}, 40),
             (sparse, {"x": x + 1}, 3 + 5 + 1),
             # y^1 and y^3: 1 + 2; x^2: 2; x^2 * y^3 and y * y^1: 2
             (two, {"x": x + 2, "y": y + 3}, 7)]
    for f, mapping, products in cases:
        del calls[:]
        f.substitute(mapping)
        assert len(calls) == products


def test_univariate_division():
    f, g = F2YZ.parse("Z^3"), F2YZ.parse("Z^2+Y^5")
    q, r = univ_divmod(f, g, "Z")
    assert q == F2YZ.var("Z") and r == F2YZ.parse("Y^5*Z")
    q, r = univ_divmod(g, g, "Z")
    assert q == F2YZ.one() and r.is_zero()
    q, r = univ_divmod(F2YZ.parse("Y^4"), g, "Z")
    assert q.is_zero() and r == F2YZ.parse("Y^4")
    with pytest.raises(RingError):
        univ_divmod(f, F2YZ.parse("Y*Z+1"), "Z")


def test_division_refuses_a_step_that_leaves_the_degree(monkeypatch):
    # a reduction kernel that leaves r untouched keeps its Z^3: the loop
    # would never end.  The alarm fails the test instead of hanging it,
    # where no such check exists
    def timeout(signum, frame):
        raise AssertionError("univ_divmod did not return within 5 s")

    f, g = F2YZ.parse("Z^3"), F2YZ.parse("Z+Y")
    monkeypatch.setattr(poly, "_subtract", lambda *args: None)
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        with pytest.raises(ArithmeticError,
                           match="left the degree in 'Z' at 3"):
            univ_divmod(f, g, "Z")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_division_makes_no_polynomial_arithmetic(monkeypatch):
    # division runs on raw term maps through _subtract, the Groebner
    # reduction kernel: no Polynomial product, sum or negation
    cases = [(ring(spec, "X", "Y", "Z"), f, g) for spec, f, g in [
        ("Q", "3*Z^5-1/2*X*Z^3+Y^2*Z+X", "Z^2+X*Y*Z-2/3*Y"),
        ("F4", "t*Z^4+X^2*Z^3+Y*Z+1", "Z^3+t*X*Z+Y^2"),
        ("F7", "Z^6+X^3*Y+Z", "Z^2+3*X"),
        ("F2", "X*Y", "Z+X")]]
    expected = [univ_divmod(R.parse(f), R.parse(g), "Z")
                for R, f, g in cases]

    def refuse(*args):
        pytest.fail("division made Polynomial arithmetic")

    for name in ("__mul__", "__add__", "__neg__", "__sub__"):
        monkeypatch.setattr(Polynomial, name, refuse)
    for (R, f, g), (q, r) in zip(cases, expected):
        assert univ_divmod(R.parse(f), R.parse(g), "Z") == (q, r)
    monkeypatch.undo()
    for (R, f, g), (q, r) in zip(cases, expected):
        assert q * R.parse(g) + r == R.parse(f)
        assert r.degree_in("Z") < R.parse(g).degree_in("Z")


def test_division_refuses_a_step_reaching_2_31():
    # Y^(2^30)*Z^2 = (Z+Y^(2^30))*(Y^(2^30)*Z - Y^(2^31)) + Y^(3*2^30): the
    # second step's key Y^(2^31)*Z is checked before it is read, never
    # wrapped
    f, g = QYZ.parse("Y^1073741824*Z^2"), QYZ.parse("Z+Y^1073741824")
    with pytest.raises(RingError, match=LIMIT):
        univ_divmod(f, g, "Z")


@pytest.mark.parametrize("spec", ["Q", "F5", "F4"])
def test_subtraction_is_adding_the_negation(spec):
    R = ring(spec, "Y", "Z")
    f, g = R.parse("Z^2+3*Y*Z-1"), R.parse("Y*Z+2*Y^2")
    one = R.field.one()
    operands = [g, f, R.zero(), 2, 0, Fraction(1, 3) if not R.field.p else 7,
                one, one + one, R.field.generator() if R.field.k > 1 else -one]
    for h in operands:
        assert f - h == f + (-h) and (f - h).ring is R
        assert h - f == -(f - h)
    assert 1 - f == R.one() + (-f)
    assert f - f == R.zero() and (f - f).is_zero()


def test_radical_triple_root():
    R = ring("F5", "Z")
    f = (R.var("Z") - R.one())**3
    assert univ_radical(f) == R.parse("Z-1")


def test_radical_refuses_a_gcd_that_does_not_divide(monkeypatch):
    # a wrong gcd leaves a remainder: an error, under python -O too
    R = ring("F5", "Z")
    monkeypatch.setattr(poly, "univ_gcd", lambda f, g, var: R.parse("Z+2"))
    with pytest.raises(ArithmeticError, match="leaves the remainder"):
        univ_radical((R.var("Z") - R.one())**3)


def test_radical_peels_pth_powers_in_extension_field():
    R = ring("F4", "Z")
    t = R.constant(R.field.generator())
    f = R.parse("Z^2") + t
    rad = univ_radical(f)
    # Z^2 + t = (Z + t+1)^2 in characteristic 2
    assert rad == R.var("Z") + R.constant(R.field.generator() + 1)
    assert rad * rad == f


@pytest.mark.parametrize("spec,text,message", [
    ("F5", "0", "radical of the zero polynomial"),
    ("Q", "Y^2", "radical implemented over finite fields only"),
    ("F5", "Y*Z", "polynomial is not univariate")])
def test_radical_refuses_what_it_cannot_factor(spec, text, message):
    with pytest.raises(RingError, match="^%s$" % message):
        univ_radical(ring(spec, "Y", "Z").parse(text))


def test_radical_of_a_nonzero_constant_is_one():
    R = ring("F5", "Z")
    assert univ_radical(R.parse("3")) == R.one()


def test_radical_of_squarefree_is_itself():
    R = ring("F5", "Z")
    f = R.parse("Z^2-1")
    assert univ_radical(f) == f


def test_radical_counts_distinct_roots_of_shifted_powers():
    rng = random.Random(5)
    R = ring("F5", "Z")
    for _ in range(20):
        a = rng.randrange(5)
        m = rng.randrange(1, 7)
        f = (R.var("Z") - R.constant(a))**m
        rad = univ_radical(f)
        assert rad.degree_in("Z") == 1
        # squarefree: gcd with the derivative is constant (or the derivative
        # vanished and peeling already reduced to a linear polynomial)
        d = formal_derivative(rad, "Z")
        assert d.is_zero() or univ_gcd(rad, d, "Z").is_constant()


def test_radical_degree_matches_sympy_factorization():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(19)
    z = sympy.Symbol("Z")
    for p in (2, 3, 5, 7):
        R = ring("F%d" % p, "Z")
        for _ in range(12):
            # products of random factors with multiplicities, p-th powers
            # included, so the radical must peel and deflate
            f = R.one()
            for _ in range(rng.randrange(1, 4)):
                coeffs = [rng.randrange(p) for _ in range(rng.randrange(1, 4))]
                factor = R.parse("Z^%d" % len(coeffs))
                for e, c in enumerate(coeffs):
                    factor = factor + R.monomial((e,), c)
                f = f * factor**rng.choice((1, 2, p, p + 1))
            expr = sum(int(c.val) * z**e[0] for e, c in f.terms.items())
            _, factors = sympy.Poly(expr, z, modulus=p).factor_list()
            distinct = sum(g.degree() for g, _ in factors)
            assert univ_radical(f).degree_in("Z") == distinct, f


def test_random_ring_laws_and_evaluation_homomorphism():
    rng = random.Random(3)
    R = ring("F3", "X", "Y")

    def rand_poly():
        out = R.zero()
        for _ in range(rng.randrange(0, 4)):
            out = out + R.monomial((rng.randrange(4), rng.randrange(4)),
                                   rng.randrange(1, 3))
        return out

    for _ in range(40):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        P = R.point([rng.randrange(3), rng.randrange(3)])
        assert (f * g).evaluate(P) == f.evaluate(P) * g.evaluate(P)
        if not (f.is_zero() or g.is_zero()):
            assert (f * g).order_at_origin() == \
                f.order_at_origin() + g.order_at_origin()
            assert (f * g).initial_form() == \
                f.initial_form() * g.initial_form()


def test_division_round_trip_randomized():
    rng = random.Random(9)
    R = ring("F5", "Y", "Z")
    for _ in range(30):
        g = R.var("Z")**rng.randrange(1, 4)
        for j in range(g.degree_in("Z")):
            g = g + R.monomial((rng.randrange(3), j), rng.randrange(5))
        f = R.zero()
        for _ in range(rng.randrange(1, 5)):
            f = f + R.monomial((rng.randrange(4), rng.randrange(6)),
                               rng.randrange(1, 5))
        q, r = univ_divmod(f, g, "Z")
        assert q * g + r == f
        assert r.degree_in("Z") < g.degree_in("Z")


def test_parser_round_trip():
    for text in ("Z^2+Y^5", "-3*Y*Z^2", "Y^4", "0+Z", "(Z+Y)*(Z-Y)"):
        f = QYZ.parse(text)
        assert QYZ.parse(str(f)) == f
    with pytest.raises(RingError):
        QYZ.parse("W^2")
    for text in ("1/0*Y", "Z+0/0", "(Y-3/00)^2"):
        with pytest.raises(RingError, match="zero denominator"):
            QYZ.parse(text)


def test_parenthesized_group_takes_an_exponent():
    R = ring("F5", "x", "y")
    x = R.var("x")
    assert R.parse("(x+1)^2") == (x + 1) * (x + 1)
    assert R.parse("-(x+y)^3*2") == -((x + R.var("y"))**3) * 2
    assert R.parse("(x^2)^2") == x**4


@pytest.mark.parametrize("text, token", [
    ("x^2^2", "^"), ("x**2", "*"), ("x*-y", "-"), ("(x+1)^2^3", "^")])
def test_stray_operator_is_refused_by_name(text, token):
    with pytest.raises(RingError, match="unexpected '%s'" % re.escape(token)):
        ring("F5", "x", "y").parse(text)


def test_polynomial_power_zero_is_one():
    for R in (QYZ, F2YZ, ring("F9", "Y", "Z")):
        for f in (R.zero(), R.one(), R.parse("Y^2+Z+1")):
            assert f**0 == R.one()
            assert f**3 == f * f * f


def test_a_single_terms_huge_power_takes_square_and_multiply_shifts():
    # t has order 3 in F4, and 1000000001 = 2 mod 3: t^1000000001 = t^2 =
    # t+1; each step shifts one key and multiplies one value
    R = ring("F4", "x", "y")
    f = R.parse("(t*x)^1000000001")
    assert str(f) == "(t+1)*x^1000000001"
    assert f == R.parse("t*x")**1000000001


@pytest.mark.parametrize("n", [2.5, Fraction(3), 2.0, "2", None])
def test_polynomial_power_refuses_an_exponent_that_is_not_an_int(n):
    # 2.5 raised a bare TypeError from the square-and-multiply loop
    with pytest.raises(RingError, match="^exponent %s is not an int$"
                       % re.escape(repr(n))):
        QYZ.parse("Y+Z")**n


def test_polynomial_power_takes_a_bool_exponent_as_an_int():
    f = F2YZ.parse("Y+Z")
    assert f**True == f and f**False == F2YZ.one()


def test_polynomial_power_refuses_a_negative_exponent():
    with pytest.raises(RingError, match="^negative polynomial power$"):
        QYZ.parse("Y+Z")**-1


def test_univ_gcd_with_zero_arguments():
    R = ring("F5", "Y", "Z")
    f = R.parse("2*Z^2+2")
    assert univ_gcd(f, R.zero(), "Z") == R.parse("Z^2+1")
    assert univ_gcd(R.zero(), f, "Z") == R.parse("Z^2+1")
    assert univ_gcd(R.zero(), R.zero(), "Z").is_zero()
    assert univ_gcd(R.constant(3), R.zero(), "Z") == R.one()
    assert univ_gcd(f, R.parse("3*Z+3"), "Z") == R.one()
    assert univ_gcd(R.parse("Z^2-1"), R.parse("2*Z+2"), "Z") == \
        R.parse("Z+1")


@pytest.mark.parametrize("f, g", [
    ("Y*Z^2+1", "0"), ("Z+1", "Y*Z+1"), ("Y", "0"), ("Z^2", "Z+Y")])
def test_univ_gcd_refuses_input_that_is_not_univariate(f, g):
    R = ring("F5", "Y", "Z")
    with pytest.raises(RingError, match="univariate"):
        univ_gcd(R.parse(f), R.parse(g), "Z")


def test_leading_monomial_cache():
    f, g = QYZ.parse("Z^2+Y^5"), QYZ.parse("Z-Y^5+3*Y*Z^3")
    for operand in (f, g):
        operand.leading_monomial()   # filled before the operations below
    built = [f + g, f - g, g - g * 1 + f, f * g, f.scale(3), -g,
             QYZ.parse("Y^2*Z-Z^3+7"), F2YZ.parse("Y*Z+Z^2") * F2YZ.one()]
    for h in built:
        twin = h.ring.parse(str(h))
        before = (hash(h), h == twin, hash(twin))
        expected = max(h.terms, key=grevlex_key)
        assert h.leading_monomial() == expected
        assert h.leading_monomial() == expected
        assert h.leading_coefficient() == h.terms[expected]
        assert (hash(h), h == twin, hash(twin)) == before
        assert before[1] and before[0] == before[2]
        twin.leading_monomial()
        assert h == twin and hash(h) == hash(twin)
    zero = f - f
    for _ in range(2):
        with pytest.raises(RingError):
            zero.leading_monomial()
        with pytest.raises(RingError):
            zero.leading_coefficient()


def test_fraction_coefficients_in_positive_characteristic():
    F3X = ring("F3", "x")
    assert F3X.parse("1/2*x") == F3X.parse("2*x")
    with pytest.raises(FieldError):
        ring("F2", "x").parse("1/2*x")
    F4X = ring("F4", "x")
    assert F4X.parse("1/3*t*x") == F4X.parse("t*x")


def test_t_is_reserved_in_extension_field_rings():
    with pytest.raises(RingError):
        ring("F4", "t", "x")
    with pytest.raises(RingError):
        ring("F9", "x", "t")
    assert ring("F2", "t", "x").variables == ("t", "x")
    F4X = ring("F4", "x")
    f = F4X.parse("t*x+t^2")
    assert F4X.parse(str(f)) == f


@pytest.mark.parametrize("name", ["2", "1x", "y z", "x+y", "", "x-1", "\u00e9"])
def test_variable_names_the_parser_cannot_read_are_refused(name):
    # "2" would be read as the constant 2, "y z" as the product y*z
    with pytest.raises(RingError, match="^bad variable name %s:"
                       % re.escape(repr(name))):
        ring("F5", "x", name)


@pytest.mark.parametrize("name", ["_", "x_1", "Z10", "A_b9", "t"])
def test_every_accepted_variable_name_parses_as_itself(name):
    R = ring("F5", "x", name)
    assert R.parse("%s^2*x" % name) == R.var(name)**2 * R.var("x")
    assert str(R.var(name)) == name


def test_projection_and_lift():
    f = QYZ.parse("Y^4+2*Y")
    base = f.project_out("Z")
    assert base.ring.variables == ("Y",)
    assert base.lift(QYZ) == f
    with pytest.raises(RingError):
        QYZ.parse("Z*Y").project_out("Z")


def test_rings_are_canonical():
    F = FieldDescriptor.parse("F5")
    R = RingContext(F, ["Y", "Z"])
    assert RingContext(F, ["x", "y"]) is RingContext(F, ("x", "y"))
    assert R.drop_variable("Z") is RingContext(F, ["Y"])
    assert R.parse("Y^3").project_out("Z").ring is RingContext(F, ("Y",))
    assert R.point([1, 2]).drop("Z").ring is RingContext(F, "Y")
    assert RingContext(F, ["Z", "Y"]) is not R
    assert RingContext(FieldDescriptor(5), ["Y", "Z"]) is R
    # invalid input is never stored
    for _ in range(2):
        with pytest.raises(RingError):
            ring("F4", "x", "t")


def test_constructor_drops_zero_coefficients():
    R = ring("F3", "Y", "Z")
    F3 = R.field
    f = Polynomial(R, {(1, 0): F3.element(3), (0, 2): F3.element(1)})
    assert f == R.var("Z")**2
    assert f.terms == {(0, 2): F3.one()}
    assert str(f) == "Z^2"
    zero = Polynomial(R, {(1, 0): F3.zero(), (0, 0): F3.element(6)})
    assert zero.is_zero() and not zero and zero == R.zero()
    assert str(zero) == "0"


def test_constructor_refuses_a_value_from_another_field():
    R = ring("F3", "x")
    F5 = FieldDescriptor(5)
    # once stored raw, 4 in F5 would be read as 1 in F3
    with pytest.raises(FieldError):
        Polynomial(R, {(1,): F5.element(4)})


def test_constructor_refuses_float_and_string_values():
    R = ring("F3", "x")
    for value in (0.5, 1.0, "1", "1/2"):
        with pytest.raises(FieldError):
            Polynomial(R, {(1,): value})


def test_constructor_coerces_ints_and_fractions():
    R = ring("F3", "x")
    x = R.var("x")
    assert Polynomial(R, {(1,): 7, (0,): 3}) == x
    # 1/2 is 2 in F3
    q = Polynomial(R, {(1,): Fraction(1, 2)})
    assert q == -x and str(q * q) == "x^2"
    assert Polynomial(QYZ, {(0, 1): Fraction(1, 2)}).terms == {
        (0, 1): QYZ.coeff(Fraction(1, 2))}


def test_constructor_refuses_malformed_exponent_keys():
    R = ring("F3", "x", "y")
    for key in ((1,), (0, 1, 5), (-1, 0), (1.0, 0), "xy", 1):
        with pytest.raises(RingError, match="non-negative ints"):
            Polynomial(R, {key: 1})
    assert Polynomial(R, {(1, 0): 1, (0, 0): 1}) + R.var("y") == \
        R.parse("x+y+1")


def test_terms_is_a_read_only_view():
    R = ring("F3", "x")
    f = R.var("x") + 1
    with pytest.raises(TypeError):
        f.terms[(2,)] = R.coeff(1)
    assert str(f) == "x+1" and f.degree_in("x") == 1


def test_monomial_checks_its_exponents_also_for_a_zero_coefficient():
    R = ring("F3", "Y", "Z")
    assert R.monomial((1, 2), 0).is_zero()
    assert R.monomial((1, 2), 3).is_zero()
    for coeff in (0, 1):
        with pytest.raises(RingError, match="exponent vector length"):
            R.monomial((1, 2, 3), coeff)
