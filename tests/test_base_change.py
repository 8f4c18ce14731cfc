"""Base change as an oracle for the extension-field code: an algebra with
coefficients in F_p, read into F_{p^k}, must give the same text apart from
the ring header under every construction that uses only field operations,
and its zeros over F_p must be its zeros over F_{p^k} with coordinates in
F_p.  Saturation is compared absolute and relative to Z.  The prime-field
path is the simpler one, so a slip in the packed F_{p^k} arithmetic shows
up as a difference between the two."""
import itertools
import random

import pytest

from reeselim import (FieldDescriptor, Ideal, MonicInput, ReesAlgebra,
                      RingContext, buchberger, char_poly, degree_ideal,
                      diff_saturate, eliminate, format_algebra,
                      format_elimination, is_singular_at, mult_matrix,
                      ord_at_point, parse_algebra, rational_zero_set,
                      tau_estimate, verify_thm_1_16, weighted_transform)

# each extension with its prime field; F8's modulus makes t^3 carry into t^2
EXTENSIONS = [("F4", "F2"), ("F8:t^3+t^2+1", "F2"), ("F9", "F3")]


def _random_polynomial(rng, R, top=4):
    """A nonzero polynomial of 1-3 terms with exponents below top."""
    units = [c for c in R.field.elements() if not c.is_zero()]
    f = R.zero()
    while f.is_zero():
        for _ in range(rng.randrange(1, 4)):
            exps = tuple(rng.randrange(top) for _ in R.variables)
            f = f + R.monomial(exps, rng.choice(units))
    return f


def _random_algebra_text(rng, spec):
    """A file over F_p with 1-2 generators of 1-3 terms and weights 1-3 in
    2-3 variables, as the membership workload draws them."""
    R = RingContext(FieldDescriptor.parse(spec),
                    ("X", "Y", "Z")[:rng.choice((2, 3))])
    pairs = [(_random_polynomial(rng, R), rng.randrange(1, 4))
             for _ in range(rng.randrange(1, 3))]
    return format_algebra(ReesAlgebra.from_pairs(R, pairs))


def _body(G):
    """The file text without its ring header."""
    return format_algebra(G).split("\n", 1)[1]


def _degree_bases(S):
    return ["\n".join(map(str, buchberger(degree_ideal(S, k)).basis))
            for k in range(1, S.max_weight + 1)]


@pytest.mark.parametrize("extension,prime", EXTENSIONS)
def test_saturated_degree_ideal_bases_do_not_change_under_base_change(
        extension, prime):
    rng = random.Random("base-change/" + extension)
    for _ in range(40):
        text = _random_algebra_text(rng, prime)
        small = diff_saturate(parse_algebra(text))
        large = diff_saturate(parse_algebra(text, field=extension))
        assert large.ring.field == FieldDescriptor.parse(extension)
        assert _body(large) == _body(small), text
        assert _degree_bases(large) == _degree_bases(small), text


def _random_relative_text(rng, spec):
    """A file over F_p in 2-3 variables ending in Z with 1-2 generators of
    1-3 terms and weights 1-4."""
    R = RingContext(FieldDescriptor.parse(spec),
                    ("X", "Y", "Z")[-rng.choice((2, 3)):])
    pairs = [(_random_polynomial(rng, R), rng.randrange(1, 5))
             for _ in range(rng.randrange(1, 3))]
    return format_algebra(ReesAlgebra.from_pairs(R, pairs))


@pytest.mark.parametrize("extension,prime", EXTENSIONS)
def test_relative_saturation_does_not_change_under_base_change(extension,
                                                              prime):
    """diff_saturate(G, {Z}) of G and of its absolute saturation, which
    lists each derivative at several weights, so that lighter copies take
    their part of the heaviest copy's closure list."""
    rng = random.Random("base-change/relative/" + extension)
    for _ in range(30):
        text = _random_relative_text(rng, prime)
        bodies = []
        for field in (None, extension):
            G = parse_algebra(text, field=field)
            bodies.append([_body(diff_saturate(A, {"Z"}))
                           for A in (G, diff_saturate(G))])
        assert bodies[0] == bodies[1], text


def _random_transform_case(rng, spec):
    """As the transform workload draws them: a file over F_p with 1-3
    monomial generators of weight 1-3 in 2-3 variables, each of order at
    least its weight along a center of two variables (both, in two), and a
    chart variable in the center."""
    R = RingContext(FieldDescriptor.parse(spec),
                    ("X", "Y", "Z")[:rng.choice((2, 3))])
    center = sorted(rng.sample(R.variables, 2))
    idx = [R.var_index(v) for v in center]
    units = [c for c in R.field.elements() if not c.is_zero()]
    pairs = []
    for _ in range(rng.randrange(1, 4)):
        weight = rng.randrange(1, 4)
        exps = [rng.randrange(3) for _ in R.variables]
        while sum(exps[i] for i in idx) < weight:
            exps[rng.choice(idx)] += 1
        pairs.append((R.monomial(tuple(exps), rng.choice(units)), weight))
    return (format_algebra(ReesAlgebra.from_pairs(R, pairs)), center,
            rng.choice(center))


def _transform_texts(G, center, chart):
    """The transform of G, its saturation, and the degree ideals of that
    saturation for k = 1..max weight of G, asked in increasing k as the
    transform workload asks them, as text."""
    T, _ = weighted_transform(G, center, chart)
    S = diff_saturate(T)
    return [_body(T), _body(S)] + [
        "\n".join(map(str, degree_ideal(S, k).generators))
        for k in range(1, G.max_weight + 1)]


@pytest.mark.parametrize("extension,prime", EXTENSIONS)
def test_monomial_transform_does_not_change_under_base_change(extension,
                                                             prime):
    rng = random.Random("base-change/transform/" + extension)
    for _ in range(30):
        text, center, chart = _random_transform_case(rng, prime)
        small = parse_algebra(text)
        large = parse_algebra(text, field=extension)
        assert (_transform_texts(large, center, chart)
                == _transform_texts(small, center, chart)), text


def _random_elimination_text(rng, spec):
    """A file over F_p in 2-3 variables ending in Z whose first generator is
    monic in Z of degree and weight c in 1-3, with 0-1 more generators."""
    R = RingContext(FieldDescriptor.parse(spec),
                    ("X", "Y", "Z")[-rng.choice((2, 3)):])
    c = rng.randrange(1, 4)
    pairs = [(_random_monic(rng, R, c), c)] + [
        (_random_polynomial(rng, R, 3), rng.randrange(1, 3))
        for _ in range(rng.randrange(2))]
    return format_algebra(ReesAlgebra.from_pairs(R, pairs))


def _random_monic(rng, R, c):
    """Z^c plus, below it, a random polynomial of the base times each Z^j."""
    base = R.drop_variable("Z")
    f = R.var("Z")**c
    for j in range(c):
        f = f + _random_polynomial(rng, base, 3).lift(R) * R.var("Z")**j
    return f


@pytest.mark.parametrize("extension,prime", EXTENSIONS)
def test_elimination_does_not_change_under_base_change(extension, prime):
    rng = random.Random("base-change/eliminate/" + extension)
    for _ in range(15):
        text = _random_elimination_text(rng, prime)
        bodies = []
        for field in (None, extension):
            G = parse_algebra(text, field=field)
            result = eliminate(G, G.generators[0], "Z",
                               check_transversal=False)
            bodies.append(format_elimination(result).split("\n", 1)[1])
        assert bodies[0] == bodies[1], text


def _in_ring(spec, f):
    """f read into the ring over spec with the same variables."""
    return RingContext(FieldDescriptor.parse(spec), f.ring.variables).parse(
        str(f))


@pytest.mark.parametrize("extension,prime", EXTENSIONS)
def test_char_poly_does_not_change_under_base_change(extension, prime):
    """The coefficients of char_poly(mult_matrix(g, f, "Z")) as text; over
    F_{p^k} they are packed values, and the dividing column runs
    univ_divmod's reduction steps, poly._subtract, on them."""
    rng = random.Random("base-change/char-poly/" + extension)
    for _ in range(20):
        R = RingContext(FieldDescriptor.parse(prime),
                        ("X", "Y", "Z")[-rng.choice((2, 3)):])
        f = _random_monic(rng, R, rng.randrange(1, 4))
        g = _random_polynomial(rng, R, 5)
        texts = [[str(h) for h in char_poly(mult_matrix(
            _in_ring(spec, g), _in_ring(spec, f), "Z"))]
            for spec in (prime, extension)]
        assert texts[0] == texts[1], (f, g)


def _prime_points(points, p):
    return {tuple(map(str, P.coords)) for P in points
            if all(c**p == c for c in P.coords)}


@pytest.mark.parametrize("extension,prime", EXTENSIONS)
def test_ramification_zero_sets_do_not_change_under_base_change(extension,
                                                               prime):
    """verify_thm_1_16's purely ramified points and the zeros of the
    generalized discriminants, restricted to F_p coordinates, over F_p and
    over F_{p^k}; MonicInput.product multiplies the factors from 1."""
    rng = random.Random("base-change/ramify/" + extension)
    p = FieldDescriptor.parse(prime).p
    nonempty = 0
    for _ in range(10):
        R = RingContext(FieldDescriptor.parse(prime),
                        ("X", "Y", "Z")[-rng.choice((2, 3)):])
        factors = [_random_monic(rng, R, rng.randrange(1, 3))
                   for _ in range(rng.randrange(1, 3))]
        sets = []
        for spec in (prime, extension):
            report = verify_thm_1_16(MonicInput(
                RingContext(FieldDescriptor.parse(spec), R.variables), "Z",
                [_in_ring(spec, f) for f in factors]))
            sets.append((_prime_points(report.ramified_points, p),
                         _prime_points(report.discriminant_zero_points, p)))
        assert sets[0] == sets[1], factors
        nonempty += bool(sets[0][0]) + bool(sets[0][1])
    assert nonempty > 0


@pytest.mark.parametrize("extension,prime", EXTENSIONS)
def test_prime_field_zeros_are_the_extension_zeros_with_prime_coordinates(
        extension, prime):
    """Z(F_p) = Z(F_{p^k}) meet F_p^n, compared as coordinate text."""
    rng = random.Random("base-change/zeros/" + extension)
    p = FieldDescriptor.parse(prime).p
    nonempty = 0
    for _ in range(15):
        text = _random_algebra_text(rng, prime)
        zeros = []
        for field in (None, extension):
            G = parse_algebra(text, field=field)
            points = rational_zero_set(
                Ideal(G.ring, [g.poly for g in G.generators]))
            zeros.append({tuple(map(str, P.coords)) for P in points
                          if all(c**p == c for c in P.coords)})
        assert zeros[0] == zeros[1], text
        nonempty += bool(zeros[0])
    assert nonempty > 0


def _random_diagonal_text(rng, spec):
    """A file over F_p in 2-3 variables with 1-3 generators, each an
    additive form sum c_i x_i^q over 1-3 of the variables at weight q of
    1, p or (over F2) p^2, plus 0-2 terms of degree q + 1 or q + 2."""
    R = RingContext(FieldDescriptor.parse(spec),
                    ("X", "Y", "Z")[:rng.choice((2, 3))])
    p = R.field.p
    units = [c for c in R.field.elements() if not c.is_zero()]
    pairs = []
    for _ in range(rng.randrange(1, 4)):
        q = rng.choice((1, p, p * p) if p == 2 else (1, p))
        f = R.zero()
        for i in rng.sample(range(R.nvars), rng.randrange(1, R.nvars + 1)):
            exps = [0] * R.nvars
            exps[i] = q
            f = f + R.monomial(tuple(exps), rng.choice(units))
        for _ in range(rng.randrange(3)):
            exps = [0] * R.nvars
            for _ in range(q + rng.randrange(1, 3)):
                exps[rng.randrange(R.nvars)] += 1
            f = f + R.monomial(tuple(exps), rng.choice(units))
        pairs.append((f, q))
    return format_algebra(ReesAlgebra.from_pairs(R, pairs))


def _point_invariants(G, points):
    """ord at every point, and tau at the simple ones (None elsewhere)."""
    out = []
    for P in points:
        P = G.ring.point(P)
        simple = is_singular_at(G, P) and ord_at_point(G, P) == 1
        out.append((ord_at_point(G, P),
                    tau_estimate(G, P) if simple else None))
    return out


@pytest.mark.parametrize("extension,prime", EXTENSIONS)
def test_tau_and_ord_at_prime_points_do_not_change_under_base_change(
        extension, prime):
    """tau ranks the diagonal rows through buchberger, whose arithmetic
    over F_{p^k} is the packed one; the rows' p-th roots stay in F_p."""
    rng = random.Random("base-change/tau/" + extension)
    p = FieldDescriptor.parse(prime).p
    taus = []
    for _ in range(15):
        text = _random_diagonal_text(rng, prime)
        invariants = []
        for field in (None, extension):
            G = parse_algebra(text, field=field)
            points = list(itertools.product(range(p), repeat=G.ring.nvars))
            invariants.append([_point_invariants(A, points)
                               for A in (G, diff_saturate(G))])
        assert invariants[0] == invariants[1], text
        taus += [tau for per_algebra in invariants[0]
                 for _, tau in per_algebra if tau is not None]
    # several simple points, some of them with more than one row
    assert len(taus) > 15 and max(taus) > 1, taus
