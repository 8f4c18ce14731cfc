"""Multiplication matrices, characteristic polynomials, and elimination."""
import itertools
import random
from fractions import Fraction

import pytest

from reeselim import elim
from reeselim import (FieldDescriptor, MultiplicationMatrix, Polynomial,
                      ReesAlgebra, ReesError, ReesGenerator, ResourceCapError,
                      RingContext, RingError, buchberger,
                      cayley_hamilton_residue, char_poly, degree_ideal,
                      diff_saturate, eliminate, format_elimination, is_simple,
                      membership, mult_matrix, ord_at_point,
                      rational_singular_points, rational_zero_set,
                      singular_ideal, slope_equivalent, univ_divmod)

from test_poly import sum_of_products


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


def berkowitz_on_polynomials(M):
    """The recursion of char_poly run on the entries as polynomials, each
    dot product one sum-of-products accumulation: the reference for the
    packed path, which runs the same recursion on Kronecker-packed ints."""
    c = M.size
    A = M.matrix
    cols = tuple(zip(*A))
    ring = A[0][0].ring
    zero = ring.zero()
    h = []
    for r in range(c):
        row, col = A[r][:r], cols[r][:r]
        s = [A[r][r]]
        for k in range(r):
            s.append(sum_of_products(ring, zip(row, col)))
            if k < r - 1:
                row = [sum_of_products(ring, zip(row, cols[j][:r]))
                       for j in range(r)]
        h_from_0 = [ring.one()] + h
        h = [(h[i - 1] if i <= r else zero)
             - sum_of_products(ring, zip(reversed(s[:i]), h_from_0))
             for i in range(1, r + 2)]
    return h


PACKED_SPECS = ("Q", "F2", "F5", "F4", "F9", "F8:t^3+t^2+1", "F2147483647")


def force_packing(monkeypatch):
    """Lift both of the packing's bounds, so that it never declines."""
    monkeypatch.setattr(elim, "_PACKED_BITS_PER_TERM", 1 << 62)
    monkeypatch.setattr(elim, "_PACKED_BITS_MAX", 1 << 62)


def test_packed_char_poly_matches_berkowitz_on_polynomials(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    force_packing(monkeypatch)
    st = hypothesis.strategies

    def coefficients(field):
        if not field.p:
            return st.fractions(min_value=-9, max_value=9, max_denominator=4)
        if field.k == 1:
            return st.integers(0, field.p - 1)
        return st.lists(st.integers(0, field.p - 1), min_size=field.k,
                        max_size=field.k).map(tuple)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        R = ring(data.draw(st.sampled_from(PACKED_SPECS)),
                 *("X", "Y", "W")[:data.draw(st.integers(1, 3))])
        c = data.draw(st.integers(1, 6))
        # up to 3 terms an entry, none half the time: zero entries, rows
        # and columns come up often
        terms = st.lists(st.tuples(
            st.tuples(*[st.integers(0, 2)] * R.nvars),
            coefficients(R.field)), max_size=3)
        M = MultiplicationMatrix(None, None, [
            [Polynomial(R, dict(data.draw(terms) if data.draw(st.booleans())
                                else [])) for _ in range(c)]
            for _ in range(c)], None)
        expected = berkowitz_on_polynomials(M)
        assert elim._packed_char_poly(M._rows, M._ring) == expected
        assert elim._raw_char_poly(M._rows, M._ring) == expected
        assert char_poly(M) == expected

    check()


@pytest.mark.parametrize("base,monomial,scalars", [
    (("X",), "1", (3, 5)),
    (("X",), "X", (3, 5, 7)),
    (("X", "Y"), "X*Y^2", (2, 9, 4, 6)),
    (("X", "Y", "W"), "X^2*Y*W", (11, 13, 6, 9, 5)),
])
def test_char_poly_of_a_positive_diagonal_reaches_the_coefficient_bound(
        base, monomial, scalars, monkeypatch):
    # diag(a_1 m, ..., a_c m) with a_r > 0 has h_i = (-1)^i e_i(a) m^i: its
    # largest |coefficient| is max_i e_i(a), exactly the bound the packed
    # path sizes its digits by (not a power of two here, so a digit one bit
    # short fails both signs), and m^c takes every variable of m to c times
    # its largest exponent, the top of its slot range.  char_poly runs
    # c <= 3 on raw maps, and packing declines a diagonal at c = 5 (mostly
    # zeros), so the packed path is called directly too, with packing forced
    force_packing(monkeypatch)
    R = ring("Q", *base)
    m = R.parse(monomial)
    c = len(scalars)
    M = MultiplicationMatrix(None, None, [
        [m.scale(a) if i == j else R.zero() for j in range(c)]
        for i, a in enumerate(scalars)], None)
    esym = [1] + [0] * c
    for a in scalars:
        for i in range(c, 0, -1):
            esym[i] += esym[i - 1] * a
    assert max(esym) & (max(esym) - 1)
    expected = [(m**i).scale((-1)**i * esym[i]) for i in range(1, c + 1)]
    assert char_poly(M) == expected
    assert elim._packed_char_poly(M._rows, M._ring) == expected


def test_sparse_high_degree_entries_with_a_common_factor_take_the_raw_maps(
        monkeypatch):
    # entries 1 and -a*X^60*Y^60*W^60: packed, each variable would take 721
    # slots at c = 12 (about 10^10 bits an int), though every exponent is a
    # multiple of 60.  a = t in F_4 puts t in the keys too.  Packing
    # declines, and char_poly answers on raw maps
    gs = ("Z", "Z^5", "Z^11", "3*Z^11+X^120*Y^60*Z^2")
    for spec, a, gs in (("Q", 3, gs), ("F5", 3, gs), ("F4", (0, 1), gs[:3])):
        R = ring(spec, "X", "Y", "W", "Z")
        f = R.parse("Z^12") + R.parse("X^60*Y^60*W^60").scale(
            R.field.element(a))
        for g in gs:
            M = mult_matrix(R.parse(g), f, "Z")
            assert elim._packed_char_poly(M._rows, M._ring) is None
            taken = record_routes(monkeypatch)
            assert char_poly(M) == berkowitz_on_polynomials(M)
            assert taken == ["raw"]


def test_only_even_powers_of_t_pack_and_decode(monkeypatch):
    # every coefficient in {1, t^2, 1 + t^2}: t's exponents are all even,
    # each at its own slot, and the decode reads t-digit j as t^j
    R = ring("F8:t^3+t^2+1", "Y")
    t2 = R.field.generator()**2
    coefficients = [R.field.one(), t2, R.field.one() + t2]
    rng = random.Random(8)
    M = MultiplicationMatrix(None, None, [
        [R.constant(rng.choice(coefficients)) + R.var("Y").scale(
            rng.choice(coefficients)) for _ in range(4)]
        for _ in range(4)], None)
    taken = record_routes(monkeypatch)
    assert char_poly(M) == berkowitz_on_polynomials(M)
    assert taken == ["packed"]


def test_sparse_high_degree_entries_without_a_common_factor_take_the_raw_maps(
        monkeypatch):
    # packed, X and Y would each take c*60 + 1 slots at c = 12, far past
    # the packing's bounds, for 13 terms in all: packing declines, and the
    # raw maps answer at once
    R = ring("Q", "X", "Y", "W", "Z")
    f = R.parse("Z^12+X^60*Y^60*W^60+X^11*Y")
    M = mult_matrix(R.parse("Z"), f, "Z")
    assert elim._packed_char_poly(M._rows, M._ring) is None
    taken = record_routes(monkeypatch)
    assert char_poly(M) == berkowitz_on_polynomials(M)
    assert taken == ["raw"]


def test_dense_extension_field_char_poly_at_the_degree_cap():
    # the eliminate pool's shape at c = 12 over F_4: every entry uses t, so
    # t packs as one more variable of radix c(k-1) + 1
    M = pool_shaped("F4", 12, "dense/F4/12")
    assert char_poly(M) == berkowitz_on_polynomials(M)


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
    with pytest.raises(ResourceCapError, match=r"^CHARPOLY_DEGREE cap "
                       r"exceeded: 13 > 12 \(no product taken\)$"):
        char_poly(M)


def test_eliminate_refuses_a_degree_above_the_cap_before_saturating(
        monkeypatch):
    def no_saturation(*args):
        raise AssertionError("diff_saturate called")

    monkeypatch.setattr(elim, "diff_saturate", no_saturation)
    R = ring("F3", "x", "Z")
    f = ReesGenerator(R.parse("Z^13+x^13"), 13)
    with pytest.raises(ResourceCapError, match=r"CHARPOLY_DEGREE cap "
                       r"exceeded: 13 > 12 \(before saturation\)"):
        eliminate(algebra(R, ("Z^13+x^13", 13)), f, "Z")


def test_eliminate_refuses_the_only_variable_before_saturating(monkeypatch):
    def no_saturation(*args):
        raise AssertionError("diff_saturate called")

    monkeypatch.setattr(elim, "diff_saturate", no_saturation)
    R = ring("F2", "X")
    f = ReesGenerator(R.parse("X^2"), 2)
    with pytest.raises(RingError, match="^cannot drop 'X', the ring's only "
                       "variable$"):
        eliminate(algebra(R, ("X^2", 2)), f, "X")


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


def test_eliminate_takes_a_plain_pair_as_the_generator():
    """A (f, c) pair eliminates as ReesGenerator(f, c) does, and goes
    through the generator's checks."""
    f = QYZ.parse("Z^2+Y^3")
    G = algebra(QYZ, ("Z^2+Y^3", 2), ("Y^2", 1))
    by_generator = eliminate(G, ReesGenerator(f, 2), "Z")
    by_pair = eliminate(G, (f, 2), "Z")
    assert by_pair.base_ring == by_generator.base_ring
    assert by_pair.algebra == by_generator.algebra
    assert by_pair.provenance == by_generator.provenance
    assert format_elimination(by_pair) == format_elimination(by_generator)
    with pytest.raises(ReesError, match=r"^generator weight must be >= 1$"):
        eliminate(G, (f, 0), "Z")


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
    # g is reduced mod f once, and only when its Z-degree reaches f's; the
    # columns come from the companion recurrence, and a zero column stays
    # zero without a division
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
    assert not calls and M.matrix[2][2] == QYZ.one()


def count_char_polys(monkeypatch):
    """The elements of the matrices eliminate hands to char_poly, in order."""
    calls = []

    def counting_char_poly(M):
        calls.append(M.element)
        return char_poly(M)

    monkeypatch.setattr(elim, "char_poly", counting_char_poly)
    return calls


@pytest.mark.parametrize("g,f,message", [
    (QYZ.parse("Y"), QYZ.parse("2*Z^2+Y"), "modulus is not monic in 'Z'"),
    (QYZ.parse("Y"), QYZ.one(), "modulus must have positive degree in 'Z'"),
    (ring("F3", "Y", "Z").parse("Y"), QYZ.parse("Z^2+Y"), "ring mismatch"),
])
def test_mult_matrix_refuses_a_modulus_it_cannot_reduce_by(g, f, message):
    with pytest.raises(RingError) as info:
        mult_matrix(g, f, "Z")
    assert str(info.value) == message


def test_eliminate_builds_one_char_poly_per_distinct_polynomial(monkeypatch):
    # saturation emits Z^2+X^3+Y^4 at weights 1 and 2: five generators,
    # four distinct polynomials, three characteristic polynomials, since f
    # itself is 0 mod f and needs none
    calls = count_char_polys(monkeypatch)
    R = ring("Q", "X", "Y", "Z")
    G = diff_saturate(algebra(R, ("Z^2+X^3+Y^4", 2)))
    result = eliminate(G, ReesGenerator(R.parse("Z^2+X^3+Y^4"), 2), "Z")
    assert len(G.generators) == 5 and len(calls) == 3
    assert len(set(calls)) == 3
    assert format_elimination(result) == (
        "ring: Q[X,Y]\n"
        "gen: 4*Y^4+4*X^3 w 2  # from: 2*Z w 1 coeff 2\n"
        "gen: -8*Y^3 w 1  # from: 4*Y^3 w 1 coeff 1\n"
        "gen: 16*Y^6 w 2  # from: 4*Y^3 w 1 coeff 2\n"
        "gen: -6*X^2 w 1  # from: 3*X^2 w 1 coeff 1\n"
        "gen: 9*X^4 w 2  # from: 3*X^2 w 1 coeff 2\n")


def test_eliminate_builds_one_char_poly_per_scalar_class(monkeypatch):
    # Z^3+X^4+Y^5 sheared by Z -> Z+X+Y and saturated: 13 generators, 8
    # distinct polynomials, f among them.  3*(X+Y+Z) and 6*(X+Y+Z) are one
    # scalar class, so the other 7 take 6 characteristic polynomials, and
    # the second class member's h_j is 2^j times the first's
    calls = count_char_polys(monkeypatch)
    R = ring("Q", "X", "Y", "Z")
    f = R.parse("Z^3+X^4+Y^5").substitute({"Z": R.parse("Z+X+Y")})
    G = diff_saturate(ReesAlgebra.from_pairs(R, [(f, 3)]))
    result = eliminate(G, ReesGenerator(f, 3), "Z")
    assert len(G.generators) == 13
    assert len({g.poly for g in G.generators}) == 8
    assert len(calls) == len(set(calls)) == 6
    assert format_elimination(result) == SHEARED_ELIMINATION


def test_eliminate_takes_one_scalar_class_per_distinct_polynomial(
        monkeypatch):
    # the same saturation lists its 8 distinct polynomials 13 times,
    # repeats at lower weights included: each polynomial takes one
    # _scalar_class call, f's before the loop
    calls, scalar_class = [], elim._scalar_class

    def counting(g):
        calls.append(g)
        return scalar_class(g)

    monkeypatch.setattr(elim, "_scalar_class", counting)
    R = ring("Q", "X", "Y", "Z")
    f = R.parse("Z^3+X^4+Y^5").substitute({"Z": R.parse("Z+X+Y")})
    G = diff_saturate(ReesAlgebra.from_pairs(R, [(f, 3)]))
    result = eliminate(G, ReesGenerator(f, 3), "Z")
    assert len(G.generators) == 13
    assert sorted(map(str, calls)) == sorted({str(g.poly)
                                              for g in G.generators})
    assert format_elimination(result) == SHEARED_ELIMINATION


def test_eliminate_scales_each_multiple_once_for_all_its_weights(
        monkeypatch):
    # the saturation lists 3*(X+Y+Z)^2, a multiple by lam = 3, at weights 1
    # and 2: each polynomial's h_j are scaled once, and its lighter copy
    # reads the same h_j
    R = ring("Q", "X", "Y", "Z")
    f = R.parse("Z^3+X^4+Y^5").substitute({"Z": R.parse("Z+X+Y")})
    G = diff_saturate(ReesAlgebra.from_pairs(R, [(f, 3)]))
    assert sorted(g.weight for g in G.generators
                  if str(g.poly) == "3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2") \
        == [1, 2]
    # (h_j of m, lam^j) for each distinct g = lam*m with lam != 1
    expected = []
    for g in {g.poly for g in G.generators}:
        lam, m = elim._scalar_class(g)
        if lam != 1:
            expected += [
                (str(h.project_out("Z")), lam**j) for j, h in enumerate(
                    char_poly(mult_matrix(m, f, "Z")), start=1)
                if not h.is_zero()]
    calls, scale = [], Polynomial.scale

    def counting(self, c):
        calls.append((str(self), c))
        return scale(self, c)

    monkeypatch.setattr(Polynomial, "scale", counting)
    result = eliminate(G, ReesGenerator(f, 3), "Z")
    assert len(expected) == 6
    assert sorted(calls) == sorted(expected)
    assert format_elimination(result) == SHEARED_ELIMINATION


@pytest.mark.parametrize("spec,text", [
    ("F2", "Y*Z+Z+Y"), ("F3", "2*Y*Z+Z"), ("F4", "t*Y*Z+Z"),
    ("F5", "3*Y*Z+2*Z"), ("F9", "(t+1)*Y*Z+t*Z")])
def test_a_polynomial_over_a_finite_field_is_its_own_scalar_class(spec, text):
    # classes by the leading coefficient almost never merge over F_q, so
    # eliminate keys each polynomial by itself
    g = ring(spec, "Y", "Z").parse(text)
    lam, m = elim._scalar_class(g)
    assert lam == 1 and m is g


SHEARED_ELIMINATION = (
    "ring: Q[X,Y]\n"
    "gen: -27*Y^10-54*X^4*Y^5-27*X^8 w 3"
    "  # from: 3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 1 coeff 3\n"
    "gen: -15*Y^4 w 1"
    "  # from: 5*Y^4+3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 1 coeff 1\n"
    "gen: 75*Y^8 w 2"
    "  # from: 5*Y^4+3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 1 coeff 2\n"
    "gen: -125*Y^12-27*Y^10-54*X^4*Y^5-27*X^8 w 3"
    "  # from: 5*Y^4+3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 1 coeff 3\n"
    "gen: -12*X^3 w 1"
    "  # from: 4*X^3+3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 1 coeff 1\n"
    "gen: 48*X^6 w 2"
    "  # from: 4*X^3+3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 1 coeff 2\n"
    "gen: -27*Y^10-64*X^9-54*X^4*Y^5-27*X^8 w 3"
    "  # from: 4*X^3+3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 1 coeff 3\n"
    "gen: -27*Y^10-54*X^4*Y^5-27*X^8 w 6"
    "  # from: 3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 2 coeff 3\n"
    "gen: 27*Y^5+27*X^4 w 3  # from: 3*X+3*Y+3*Z w 1 coeff 3\n"
    "gen: 216*Y^5+216*X^4 w 3  # from: 6*X+6*Y+6*Z w 1 coeff 3\n"
    "gen: -15*Y^4 w 2"
    "  # from: 5*Y^4+3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 2 coeff 1\n"
    "gen: 75*Y^8 w 4"
    "  # from: 5*Y^4+3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 2 coeff 2\n"
    "gen: -125*Y^12-27*Y^10-54*X^4*Y^5-27*X^8 w 6"
    "  # from: 5*Y^4+3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 2 coeff 3\n"
    "gen: -12*X^3 w 2"
    "  # from: 4*X^3+3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 2 coeff 1\n"
    "gen: 48*X^6 w 4"
    "  # from: 4*X^3+3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 2 coeff 2\n"
    "gen: -27*Y^10-64*X^9-54*X^4*Y^5-27*X^8 w 6"
    "  # from: 4*X^3+3*X^2+6*X*Y+3*Y^2+6*X*Z+6*Y*Z+3*Z^2 w 2 coeff 3\n"
    "gen: -30*Y^3 w 1  # from: 10*Y^3+3*X+3*Y+3*Z w 1 coeff 1\n"
    "gen: 300*Y^6 w 2  # from: 10*Y^3+3*X+3*Y+3*Z w 1 coeff 2\n"
    "gen: -1000*Y^9+27*Y^5+27*X^4 w 3"
    "  # from: 10*Y^3+3*X+3*Y+3*Z w 1 coeff 3\n"
    "gen: -18*X^2 w 1  # from: 6*X^2+3*X+3*Y+3*Z w 1 coeff 1\n"
    "gen: 108*X^4 w 2  # from: 6*X^2+3*X+3*Y+3*Z w 1 coeff 2\n"
    "gen: -216*X^6+27*Y^5+27*X^4 w 3"
    "  # from: 6*X^2+3*X+3*Y+3*Z w 1 coeff 3\n")


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


@pytest.mark.parametrize("spec", ["Q", "F2", "F3", "F4", "F5", "F9",
                                  "F8:t^3+t^2+1", "F2147483647"])
@pytest.mark.parametrize("base", [("Y",), ("X", "Y"), ("X", "Y", "W")])
def test_mult_matrix_matches_the_column_definition(spec, base):
    R = ring(spec, *base, "Z")
    field = R.field
    rng = random.Random(spec + "".join(base))
    if not field.p:
        values = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
    elif field.p**field.k < 100:
        values = field.elements()
    else:   # F_{2^31-1}: elements() would list 2^31 values
        values = None

    def coefficient():
        return (rng.choice(values) if values
                else field.element(rng.randrange(field.p)))

    def draw(z_max, nterms):
        # few terms over several Z powers, so some coefficients are zero
        out = R.zero()
        for _ in range(nterms):
            exps = [rng.randrange(3) for _ in base] + [rng.randrange(z_max + 1)]
            out = out + R.monomial(exps, coefficient())
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
    # Z*(Z+Y) = -1 mod Z^2+Y*Z+1: entry (1, 1) is Y + 1*(-Y), which cancels
    # exactly and must leave an empty term map, not a zero coefficient
    f = Z**2 + Y * Z + 1
    M = mult_matrix(Z + Y, f, "Z")
    assert M.matrix == ((Y, -R.one()), (R.one(), R.zero()))
    assert M.matrix == mult_matrix_by_columns(Z + Y, f, "Z")


@pytest.mark.parametrize("spec", ["Q", "F2", "F3", "F4"])
def test_mult_matrix_divides_only_a_g_of_z_degree_c_or_more(spec,
                                                            monkeypatch):
    # g of Z-degree 0 and c - 1 is already reduced mod f and takes no
    # division; Z-degree c and c + 2 take one.  Every matrix matches the
    # one-division-per-column oracle.
    calls = []

    def counting_divmod(f, g, var):
        calls.append(f)
        return univ_divmod(f, g, var)

    monkeypatch.setattr(elim, "univ_divmod", counting_divmod)
    R = ring(spec, "X", "Y", "Z")
    X, Y, Z = R.var("X"), R.var("Y"), R.var("Z")
    for c in (1, 2, 3, 4):
        f = Z**c + X * Y * Z**(c - 1) + Y**2 + 1
        for d in (0, c - 1, c, c + 2):
            g = (X + Y) * Z**d + Y * Z**(d // 2) + X**2
            calls.clear()
            M = mult_matrix(g, f, "Z")
            assert len(calls) == (d >= c)
            assert M.element == univ_divmod(g, f, "Z")[1]
            assert M.matrix == mult_matrix_by_columns(g, f, "Z")


@pytest.mark.parametrize("spec", ["Q", "F3", "F4"])
def test_mult_matrix_takes_c_minus_1_companion_steps(spec, monkeypatch):
    # column 0 is g mod f and each of the c - 1 later columns is one step,
    # one kernel call per nonzero -f_n: 2 * 3 = 6 calls at c = 3, where
    # building Z^3 * g mod f as well would take 9.  At c = 1 no step runs.
    calls, kernel = [], elim._sum_of_products

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(elim, "_sum_of_products", counting)
    R = ring(spec, "Y", "Z")
    for f, g, steps in [("Z^3+(Y+1)*Z^2+(Y+2)*Z+(Y+3)", "Z^2+Y", 6),
                        ("Z+Y+3", "Y^2+1", 0)]:
        f, g = R.parse(f), R.parse(g)
        calls.clear()
        M = mult_matrix(g, f, "Z")
        assert len(calls) == steps
        assert M.matrix == mult_matrix_by_columns(g, f, "Z")


def test_mult_matrix_answers_when_only_z_c_times_g_passes_2_31():
    # Z^2 * (Z + x^(10^9)) mod Z^2 + x^(1.5*10^9) holds x^(2.5*10^9), past
    # the keys' 2^31, but the matrix ends at Z * g: every entry and both
    # char-poly coefficients fit.  At c = 1 the matrix is g mod f alone.
    R = ring("Q", "X", "Z")
    a, b = R.parse("X^1000000000"), R.parse("X^1500000000")
    M = mult_matrix(R.var("Z") + a, R.var("Z")**2 + b, "Z")
    assert M.matrix == ((a, -b), (R.one(), a))
    assert char_poly(M) == [-2 * a, R.parse("X^2000000000") + b]
    M = mult_matrix(a, R.var("Z") + b, "Z")
    assert M.matrix == ((a,),)
    assert char_poly(M) == [-a]


def test_eliminate_does_not_depend_on_the_order_of_the_other_generators():
    # a metamorphic relation: the same input with the generators besides
    # f listed the other way round (and f last, not first) must give the
    # same elimination algebra, compared as a set
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        base = ("X", "Y")[:data.draw(st.integers(1, 2))]
        R = ring(data.draw(st.sampled_from(("Q", "F2", "F3", "F4", "F9"))),
                 *base, "Z")
        field = R.field
        nonzero = (st.fractions(-3, 3, max_denominator=2) if not field.p
                   else st.sampled_from(field.elements())).filter(bool)

        def poly(z_max):
            exps = st.tuples(*[st.integers(0, 2)] * len(base),
                             st.integers(0, z_max))
            return Polynomial(R, data.draw(st.dictionaries(
                exps, nonzero, min_size=1, max_size=3)))

        c = data.draw(st.integers(1, 3))
        low = poly(c - 1) if data.draw(st.booleans()) else R.zero()
        f = ReesGenerator(R.var("Z")**c + low, c)
        others = [ReesGenerator(poly(3), data.draw(st.integers(1, 2)))
                  for _ in range(data.draw(st.integers(1, 2)))]
        results = [eliminate(ReesAlgebra(R, gens), f, "Z",
                             check_transversal=False).algebra
                   for gens in ([f] + others, others[::-1] + [f])]
        assert results[0] == results[1]

    check()


def eliminate_by_distinct_polynomials(G, f_gen, z_var):
    """eliminate's generators and provenance with one public mult_matrix
    and one char_poly per distinct saturated polynomial: the oracle for
    eliminate's scalar classes."""
    f = f_gen.poly
    if f_gen not in G.generators:
        G = ReesAlgebra(G.ring, G.generators + (f_gen,))
    found, coeffs = {}, {f: ()}
    for g in diff_saturate(G, {z_var}).generators:
        if g.poly not in coeffs:
            M = mult_matrix(g.poly, f, z_var)
            coeffs[g.poly] = () if M.element.is_zero() else [
                (j, h.project_out(z_var))
                for j, h in enumerate(char_poly(M), start=1)
                if not h.is_zero()]
        for j, h in coeffs[g.poly]:
            found.setdefault((h, j * g.weight), (g.poly, g.weight, j))
    return found


# nonzero n/d, more than half of them not integers
FRACTIONS = [Fraction(n, d) for d in (1, 2, 3, 6) for n in range(-6, 7) if n]


def test_eliminate_matches_one_char_poly_per_distinct_polynomial():
    # the generators come with scalar multiples of themselves at other
    # weights, so eliminate's classes merge; over Q the coefficients are
    # all ints (classes by content) or include Fractions (each g its own
    # class); c = 2..5 takes both char_poly paths
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        spec = data.draw(st.sampled_from(
            ("Q", "Q/fractions", "F2", "F3", "F5", "F4", "F9")))
        base = ("X", "Y")[:data.draw(st.integers(1, 2))]
        R = ring(spec.split("/")[0], *base, "Z")
        if spec == "Q":
            nonzero = st.integers(-6, 6).filter(bool)
        elif spec == "Q/fractions":
            nonzero = st.sampled_from(FRACTIONS)
        else:
            nonzero = st.sampled_from(R.field.elements()).filter(bool)

        def poly(z_max):
            exps = st.tuples(*[st.integers(0, 2)] * len(base),
                             st.integers(0, z_max))
            return Polynomial(R, data.draw(st.dictionaries(
                exps, nonzero, min_size=1, max_size=3)))

        c = data.draw(st.integers(2, 5))
        low = poly(c - 1) if data.draw(st.booleans()) else R.zero()
        f = ReesGenerator(R.var("Z")**c + low, c)
        gens = [f]
        for _ in range(data.draw(st.integers(1, 2))):
            g, w = poly(c), data.draw(st.integers(1, 2))
            lam = R.field.element(data.draw(nonzero))
            gens += [ReesGenerator(g, w), ReesGenerator(g.scale(lam), w + 1)]
            h, g_h = char_poly(mult_matrix(g, f.poly, "Z")), char_poly(
                mult_matrix(g.scale(lam), f.poly, "Z"))
            assert g_h == [x.scale(lam**j) for j, x in enumerate(h, start=1)]
        G = ReesAlgebra(R, gens)
        result = eliminate(G, f, "Z", check_transversal=False)
        found = eliminate_by_distinct_polynomials(G, f, "Z")
        assert result.algebra.generators == ReesAlgebra.from_pairs(
            result.base_ring, found).generators
        assert result.provenance == tuple(found.values())

    check()


def test_eliminate_keeps_a_fractional_generator_in_its_own_class():
    # -1/3*Z-1/6*Y and its derivative -1/3 have Fraction coefficients, so
    # neither is divided into a class; the answer is the one a char poly per
    # distinct polynomial gives, with all 24 generators
    G = algebra(QYZ, ("Z^3+Y^4", 3), ("2*Z+Y", 2), ("-1/3*Z-1/6*Y", 2),
                ("3/2*Y^2", 1))
    f = ReesGenerator(QYZ.parse("Z^3+Y^4"), 3)
    result = eliminate(G, f, "Z")
    found = eliminate_by_distinct_polynomials(G, f, "Z")
    assert len(result.algebra.generators) == 24
    assert result.algebra.generators == ReesAlgebra.from_pairs(
        result.base_ring, found).generators
    assert result.provenance == tuple(found.values())


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


def test_companion_steps_and_char_poly_outputs_reaching_2_31_raise():
    # Z * (x^(2^30) Z) = x^(2^30) Z^2 = -x^(2^31) mod Z^2 + x^(2^30): the
    # second column reaches the limit; so does det of x^(2^30) * identity
    R = ring("Q", "x", "Z")
    big = R.parse("x^1073741824")
    limit = r"total degree reaches the limit 2\^31"
    with pytest.raises(RingError, match=limit):
        mult_matrix(big * R.var("Z"), R.parse("Z^2") + big, "Z")
    M = MultiplicationMatrix(R.parse("Z^2"), R.zero(),
                             [[big, R.zero()], [R.zero(), big]], "Z")
    # char_poly runs c = 2 on raw maps; packing declines exponents whose
    # slots pass its bounds, so its outputs stay far below 2^31
    with pytest.raises(RingError, match=limit):
        char_poly(M)
    assert elim._packed_char_poly(M._rows, M._ring) is None
    half = R.parse("x^536870912")   # det of half * identity is x^(2^30)
    M = MultiplicationMatrix(R.parse("Z^2"), R.zero(),
                             [[half, R.zero()], [R.zero(), half]], "Z")
    assert char_poly(M) == [-2 * half, big]
    assert elim._packed_char_poly(M._rows, M._ring) is None


def record_routes(monkeypatch):
    """The paths char_poly takes from now on, one "raw" or "packed" per
    call; a packing declined for a mostly-empty matrix is not listed."""
    taken = []
    raw, packed = elim._raw_char_poly, elim._packed_char_poly

    def counting_raw(A, ring):
        taken.append("raw")
        return raw(A, ring)

    def counting_packed(A, ring):
        h = packed(A, ring)
        if h is not None:
            taken.append("packed")
        return h

    monkeypatch.setattr(elim, "_raw_char_poly", counting_raw)
    monkeypatch.setattr(elim, "_packed_char_poly", counting_packed)
    return taken


def pool_shaped(spec, c, seed):
    """The eliminate pool's dense char-poly instance: every Z-coefficient
    of f and g a nonzero a + bY, so all c^2 entries are nonzero."""
    R = ring(spec, "Y", "Z")
    rng = random.Random(seed)
    units = [a for a in R.field.elements() if not a.is_zero()]

    def linear():
        return R.constant(rng.choice(units)) + R.var("Y").scale(
            rng.choice(units))

    Z = R.var("Z")
    f = Z**c + sum((linear() * Z**j for j in range(c)), R.zero())
    g = sum((linear() * Z**j for j in range(c)), R.zero())
    return mult_matrix(g, f, "Z")


def test_char_poly_packs_dense_matrices_and_runs_small_or_sparse_ones_raw(
        monkeypatch):
    taken = record_routes(monkeypatch)
    # dense c >= 4 packs: raw maps take several times as long there
    M = pool_shaped("F4", 7, "dense/F4/7")
    assert char_poly(M) == berkowitz_on_polynomials(M)
    assert taken == ["packed"]
    # c <= 3 runs on raw maps, dense or not
    for c in (1, 2, 3):
        taken.clear()
        M = pool_shaped("F4", c, "dense/F4/%d" % c)
        assert char_poly(M) == berkowitz_on_polynomials(M)
        assert taken == ["raw"]
    # old item 6's matrix is mostly zeros in its packing: raw maps
    taken.clear()
    R = ring("Q", "X", "Y", "W", "Z")
    f = R.parse("Z^12+X^60*Y^60*W^60+X^11*Y")
    char_poly(mult_matrix(R.parse("Z^5"), f, "Z"))
    assert taken == ["raw"]


def test_a_dense_matrix_past_the_packed_bound_answers_on_raw_maps(
        monkeypatch):
    # past _PACKED_BITS_MAX packing declines, where it used to refuse: the
    # pool-shaped F_4 c = 7 matrix packs at the default bound, and with the
    # bound lowered below its size it answers on raw maps
    monkeypatch.setattr(elim, "_PACKED_BITS_MAX", 1 << 10)
    taken = record_routes(monkeypatch)
    M = pool_shaped("F4", 7, "dense/F4/7")
    assert char_poly(M) == berkowitz_on_polynomials(M)
    assert taken == ["raw"]


def test_raw_char_poly_products_reaching_2_31_raise():
    # c * 2^30 passes 2^31, so every product is checked: x^(2^30) times
    # itself reaches the limit in h_2, while the same entry times 1 and 0
    # does not
    R = ring("F5", "x", "y")
    big, one, zero = R.parse("x^1073741824"), R.one(), R.zero()
    M = MultiplicationMatrix(None, None, [[big, zero, zero], [zero, big, zero],
                                          [zero, zero, one]], None)
    with pytest.raises(RingError, match=r"total degree reaches the limit "
                       r"2\^31"):
        elim._raw_char_poly(M._rows, M._ring)
    M = MultiplicationMatrix(None, None, [[big, R.var("y"), zero],
                                          [zero, one, zero],
                                          [one, zero, one]], None)
    assert elim._raw_char_poly(M._rows, M._ring) == \
        berkowitz_on_polynomials(M)


def shear_like(k):
    """mult_matrix of Z + (X - Y + 2)^k mod Z^2 + (X + Y + 1)^k over Q."""
    R = ring("Q", "X", "Y", "Z")
    return mult_matrix(R.parse("Z+(X-Y+2)^%d" % k),
                       R.parse("Z^2+(X+Y+1)^%d" % k), "Z")


def test_raw_char_poly_refuses_work_past_its_limit_before_the_product(
        monkeypatch):
    # the matrix is [[P, -Q], [1, P]], |P| = |Q| = 861 at k = 40: s_1 =
    # 1 * -Q takes 861 term products and h_2's P * h_1 861^2 more, past the
    # limit, so that product is refused before it is taken; at k = 4 the
    # two take 15 + 15^2
    with pytest.raises(ResourceCapError, match=r"^TERM_PRODUCTS cap exceeded: "
                       r"742182 > 524288 \(degree 2, 861 taken\)$"):
        char_poly(shear_like(40))
    M = shear_like(4)
    assert char_poly(M) == berkowitz_on_polynomials(M)
    monkeypatch.setattr("reeselim.budget.TERM_PRODUCTS", 50)
    with pytest.raises(ResourceCapError, match=r"TERM_PRODUCTS cap exceeded: "
                       r"240 > 50 \(degree 2, 15 taken\)"):
        char_poly(M)


def count_builds(monkeypatch):
    """The Polynomials built from raw maps from now on, as a one-item
    list."""
    built, from_raw = [0], Polynomial.__dict__["_from_raw"].__func__

    def counting(cls, ring, raw):
        built[0] += 1
        return from_raw(cls, ring, raw)

    monkeypatch.setattr(Polynomial, "_from_raw", classmethod(counting))
    return built


@pytest.mark.parametrize("c,calls", [(1, 0), (2, 3), (3, 10)])
def test_raw_char_poly_takes_no_dot_at_the_first_step(c, calls, monkeypatch):
    # Berkowitz's r = 0 step is h = [-a_00], which neg makes: one kernel
    # call fewer per matrix than a dot there, 1 + 3 + 7 at c = 3
    calls_made, kernel = [], elim._sum_of_products

    def counting(*args):
        calls_made.append(args)
        return kernel(*args)

    M = pool_shaped("F5", c, "dense/F5/%d" % c)
    monkeypatch.setattr(elim, "_sum_of_products", counting)
    h = elim._raw_char_poly(M._rows, M._ring)
    assert len(calls_made) == calls
    assert h == berkowitz_on_polynomials(M)


def test_mult_matrix_builds_its_polynomial_entries_on_first_read(
        monkeypatch):
    # the matrix holds raw rows; .matrix wraps its c^2 entries once, on
    # first read, and gives the same tuple after
    R = ring("F3", "X", "Y", "Z")
    f, g = R.parse("Z^3+X*Y*Z^2+Y^2+1"), R.parse("(X+Y)*Z^2+Y*Z+X^2")
    expected = mult_matrix_by_columns(g, f, "Z")
    built = count_builds(monkeypatch)
    M = mult_matrix(g, f, "Z")
    assert built == [0]
    assert M.matrix == expected and built == [9]
    assert M.matrix is M.matrix and built == [9]


def test_eliminate_builds_no_matrix_entry(monkeypatch):
    # the sheared Z^3+X^4+Y^5 takes 6 char polys at c = 3: 18 h_j, 14
    # nonzero ones projected, 6 scaled by lam^j and 4 class representatives
    # make its 42 Polynomials; no entry of the 6 matrices is one (54 more)
    R = ring("Q", "X", "Y", "Z")
    f = R.parse("Z^3+X^4+Y^5").substitute({"Z": R.parse("Z+X+Y")})
    G = diff_saturate(ReesAlgebra.from_pairs(R, [(f, 3)]))
    built = count_builds(monkeypatch)
    result = eliminate(G, ReesGenerator(f, 3), "Z")
    assert built == [42]
    assert format_elimination(result) == SHEARED_ELIMINATION
