"""Property tests: field-spec and polynomial-text round trips, zero
coefficients in term maps, the field product and F_{p^k} sums of many
products near p - 1 against a reference written apart from the library,
the polynomial product and the sum of products against a schoolbook
oracle, the Hasse Leibniz and composition laws, the monomial
degree_ideal path against its scalar oracle and as its own reduced basis,
its level memo asked in any order, saturation against the concatenated
closure lists, the chart transforms' distinct generators, the unchecked
generators of saturation and the transforms against the checking
constructor, the raw-value sums, scalings, coefficient and division
paths against a FieldElement reference, poly's exponent helpers, split
and subtraction kernel against their plain definitions, the trial
division of fields against sympy's factorization, Hasse's shift
table against a box of exact binomials and its binomials mod p against
exact ones and against carries in base p (Kummer), the point
scan's fold and specialization kernels against evaluation and
substitution, and ord and e0 at a point against Hasse-derivative orders
and per-level component orders."""
import itertools
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from reeselim import (FieldDescriptor, FieldElement,  # noqa: E402
                      FieldError, Ideal, Polynomial, ReesAlgebra,
                      ReesError, ReesGenerator, RingContext, buchberger,
                      component_order, degree_ideal, diff_closure_list,
                      diff_saturate, e0_invariant, hasse_derivative,
                      ord_at_point, total_transform, univ_divmod,
                      weighted_transform)
from reeselim.fields import _is_prime, _prime_factors  # noqa: E402
from reeselim.hasse import _binomial, _shifts  # noqa: E402
from reeselim.poly import (_center_mask, _chart, _columns,  # noqa: E402
                           _divides, _entry, _exps, _fields, _fits, _guard,
                           _key, _lcm, _specialize, _split, _subtract,
                           _unit, formal_derivative, grevlex_key)
from test_fields import (FOLD_FIELDS,  # noqa: E402
                         irreducible_by_trial_division)
from test_poly import (schoolbook_product,  # noqa: E402
                       sum_of_products)
from test_rees import (assert_levels_memo_in_any_order,  # noqa: E402
                       hasse_order, scalar_oracle_degree_ideal)

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
    I = degree_ideal(G, k)
    assert I.generators == scalar_oracle_degree_ideal(G, k)
    # monic minimal monomials in grevlex order: its own reduced basis, which
    # the ideal carries
    assert I.generators == buchberger(Ideal(R, I.generators)).basis
    assert buchberger(I).basis == I.generators


@SETTINGS
@hypothesis.given(st.data())
def test_degree_ideal_levels_memo_in_any_order(data):
    """Two monomial algebras over F2, F3 or Q, asked for I_1..I_6 in a drawn
    order: each answer is the fresh algebra's and the scalar oracle's, and
    no later call changes a memo seen before."""
    R = RINGS[data.draw(st.sampled_from(("F2", "F3", "Q"))),
              data.draw(st.integers(1, 3))]
    algebras = [ReesAlgebra.from_pairs(R, [
        (R.monomial(e, c), w) for e, c, w in data.draw(st.lists(
            st.tuples(exponents(R, 2), coefficients(R), st.integers(1, 3)),
            min_size=1, max_size=4))]) for _ in range(2)]
    ks = data.draw(st.permutations([(i, k) for i in range(2)
                                    for k in range(1, 7)]))
    assert_levels_memo_in_any_order(algebras, ks)


def nonzero_polynomials(R, top=3):
    """1-4 terms with distinct exponents, so nothing cancels."""
    return st.dictionaries(exponents(R, top), coefficients(R), min_size=1,
                           max_size=4).map(lambda terms: Polynomial(R, terms))


@st.composite
def algebras_with_repeated_polynomials(draw, R):
    """1-2 polynomials listed at several weights each, with 0-3 other
    generators, in a drawn order.  A drawn cut puts each polynomial's
    lighter copies before its heaviest one, after it, or on both sides."""
    entries = []
    for f in draw(st.lists(nonzero_polynomials(R), min_size=1, max_size=2,
                           unique=True)):
        heavy = draw(st.integers(2, 4))
        lighter = draw(st.lists(st.integers(1, heavy - 1), min_size=1,
                                max_size=3, unique=True))
        cut = draw(st.integers(0, len(lighter)))
        entries.append([(f, w) for w in lighter[:cut]] + [(f, heavy)]
                       + [(f, w) for w in lighter[cut:]])
    others = draw(st.lists(st.tuples(nonzero_polynomials(R),
                                     st.integers(1, 3)), max_size=3))
    # interleave: a drawn permutation of every slot, each polynomial's copies
    # then placed into its slots in their drawn order
    slots = draw(st.permutations([i for i, copies in enumerate(entries)
                                  for _ in copies] + [None] * len(others)))
    queues = [iter(copies) for copies in entries] + [iter(others)]
    return ReesAlgebra.from_pairs(R, [next(queues[i if i is not None else -1])
                                      for i in slots])


CLOSURE_SPECS = ("F2", "F3", "Q", "F4")


@SETTINGS
@hypothesis.given(st.data())
def test_saturation_is_the_deduplicated_closure_lists(data):
    """diff_saturate builds one closure list per polynomial, at its heaviest
    weight; the oracle concatenates diff_closure_list over every listed
    generator and lets ReesAlgebra drop the repeats.  Same generators, in
    the same order, absolute and relative."""
    R = RINGS[data.draw(st.sampled_from(CLOSURE_SPECS)),
              data.draw(st.integers(1, 3))]
    G = data.draw(algebras_with_repeated_polynomials(R))
    active = data.draw(st.one_of(st.none(), st.lists(
        st.sampled_from(R.variables), min_size=1, unique=True)))
    S = diff_saturate(G, active)
    oracle = ReesAlgebra.from_pairs(R, [
        p for g in G.generators
        for p in diff_closure_list(g.poly, g.weight, active)])
    assert S.generators == oracle.generators
    assert S.generators == ReesAlgebra(R, S.generators).generators


@SETTINGS
@hypothesis.given(st.data())
def test_transforms_list_distinct_generators(data):
    """A chart transform builds its algebra with no dedupe pass: its
    generators are already distinct, one for each generator of G, also when
    the center repeats a name."""
    R = RINGS[data.draw(st.sampled_from(CLOSURE_SPECS)),
              data.draw(st.integers(1, 3))]
    center = data.draw(st.lists(st.sampled_from(R.variables), min_size=1,
                                max_size=4))
    chart = data.draw(st.sampled_from(center))
    x = R.var(chart)
    # f * chart^w has order >= w along any center through chart
    G = ReesAlgebra.from_pairs(R, [
        (g.poly * x**g.weight, g.weight)
        for g in data.draw(algebras_with_repeated_polynomials(R)).generators])
    for c in (center, center + [chart]):
        for T in (weighted_transform(G, c, chart)[0],
                  total_transform(G, c, chart)):
            assert T.generators == ReesAlgebra(R, T.generators).generators
            assert [g.weight for g in T.generators] == \
                [g.weight for g in G.generators]


@SETTINGS
@hypothesis.given(st.data())
def test_unchecked_generators_pass_the_checking_constructor(data):
    """Saturation and the chart transforms build their generators with no
    checks; each must be one the checking constructor builds the same: a
    nonzero polynomial and an int weight >= 1."""
    R = RINGS[data.draw(st.sampled_from(CLOSURE_SPECS)),
              data.draw(st.integers(1, 3))]
    G = data.draw(algebras_with_repeated_polynomials(R))
    active = data.draw(st.one_of(st.none(), st.lists(
        st.sampled_from(R.variables), min_size=1, unique=True)))
    center = data.draw(st.lists(st.sampled_from(R.variables), min_size=1,
                                max_size=3))
    chart = data.draw(st.sampled_from(center))
    x = R.var(chart)
    # f * chart^w has order >= w along any center through chart
    H = ReesAlgebra.from_pairs(R, [(g.poly * x**g.weight, g.weight)
                                   for g in G.generators])
    for T in (diff_saturate(G, active),
              weighted_transform(H, center, chart)[0],
              total_transform(H, center, chart)):
        for g in T.generators:
            assert type(g.weight) is int
            assert g == ReesGenerator(g.poly, g.weight)


@st.composite
def algebras_at_points(draw):
    """(G, P) over F2, F3, F4, F5 or Q: a point with nonzero coordinates
    as often as zero ones, and generators drawn at the origin.  Half the
    time each generator g W^w keeps its terms of degree >= w, when it has
    some, and moves to P, so that P is singular; G is saturated half the
    time."""
    R = RINGS[draw(st.sampled_from(("F2", "F3", "F4", "F5", "Q"))),
              draw(st.integers(1, 3))]
    zero = R.field.zero()
    P = R.point([draw(st.one_of(st.just(zero), coefficients(R)))
                 for _ in range(R.nvars)])
    moved = draw(st.booleans())
    pairs = []
    for h, w in draw(st.lists(st.tuples(nonzero_polynomials(R, top=2),
                                        st.integers(1, 4)),
                              min_size=1, max_size=3)):
        if moved:
            high = {e: c for e, c in h.terms.items() if sum(e) >= w}
            h = Polynomial(R, high or h.terms).substitute(
                {v: R.var(v) - R.constant(c)
                 for v, c in zip(R.variables, P.coords)})
        pairs.append((h, w))
    G = ReesAlgebra.from_pairs(R, pairs)
    return diff_saturate(G) if draw(st.booleans()) else G, P


@SETTINGS
@hypothesis.given(algebras_at_points())
def test_point_invariants_match_their_definitions(case):
    # ord against orders read from Hasse derivatives, which share no code
    # with recenter; e0 against the smallest Frobenius level p^e with
    # component_order(G, p^e, P) = p^e, one component_order call a level
    G, P = case
    order = ord_at_point(G, P)
    assert order == min(Fraction(hasse_order(g, P), w)
                        for g, w in G.generators)
    p = G.ring.field.p
    if order != 1:
        message = ("point is not in the singular locus" if order < 1
                   else "e0 is defined at simple points only")
        with pytest.raises(ReesError, match=message):
            e0_invariant(G, P)
        return
    levels = itertools.takewhile(lambda q: q <= G.max_weight,
                                 (p**e for e in itertools.count()))
    expected = next((e for e, q in enumerate(levels)
                     if component_order(G, q, P) == q), None) if p else 0
    if expected is None:
        with pytest.raises(ReesError, match="no Frobenius level"):
            e0_invariant(G, P)
    else:
        assert e0_invariant(G, P) == expected


def _builtin_fields():
    """Q and every F_q, q <= 49, that needs no user-supplied modulus."""
    out = [FieldDescriptor.parse("Q")]
    for q in range(2, 50):
        try:
            out.append(FieldDescriptor.parse("F%d" % q))
        except FieldError:
            pass
    return out


BUILTIN_FIELDS = _builtin_fields()


IRREDUCIBLE_LOW = {
    (p, k): [low for low in itertools.product(range(p), repeat=k)
             if irreducible_by_trial_division(low + (1,), p, k)]
    for p, k in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2),
                 (5, 3), (7, 2)]}


@st.composite
def user_moduli(draw):
    """(p, k, modulus) with a monic irreducible modulus whose low
    coefficients are drawn outside [0, p) too; q stays <= 125.  The
    moduli come from a trial-division list, so no draw is rejected."""
    p, k = draw(st.sampled_from(sorted(IRREDUCIBLE_LOW)))
    low = draw(st.sampled_from(IRREDUCIBLE_LOW[p, k]))
    shifts = draw(st.tuples(*[st.integers(-1, 1)] * k))
    return p, k, tuple(c + s * p for c, s in zip(low, shifts)) + (1,)


@st.composite
def fields(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(BUILTIN_FIELDS))
    return FieldDescriptor(*draw(user_moduli()))


def test_builtin_field_spec_round_trip():
    assert [F.spec().partition(":")[0] for F in BUILTIN_FIELDS] == [
        "Q", "F2", "F3", "F4", "F5", "F7", "F8", "F9", "F11", "F13", "F16",
        "F17", "F19", "F23", "F25", "F27", "F29", "F31", "F37", "F41", "F43",
        "F47", "F49"]
    for F in BUILTIN_FIELDS:
        assert FieldDescriptor.parse(F.spec()) is F


@SETTINGS
@hypothesis.given(user_moduli())
def test_user_modulus_spec_round_trip(field_args):
    F = FieldDescriptor(*field_args)
    p, k, modulus = field_args
    assert F.modulus == tuple(c % p for c in modulus)
    assert FieldDescriptor.parse(F.spec()) is F
    assert FieldDescriptor(p, k, F.modulus) is F


@SETTINGS
@hypothesis.given(st.data())
def test_polynomial_text_round_trip(data):
    F = data.draw(fields())
    R = RingContext(F, ("x", "y", "z")[:data.draw(st.integers(1, 3))])
    f = data.draw(polynomials(R))
    assert R.parse(str(f)) == f


@SETTINGS
@hypothesis.given(st.data())
def test_term_map_with_zero_coefficients(data):
    F = data.draw(fields())
    R = RingContext(F, ("x", "y", "z")[:data.draw(st.integers(1, 3))])
    terms = data.draw(st.dictionaries(
        exponents(R, 3), st.one_of(st.just(F.zero()),
                                   coefficients(R).map(R.coeff)),
        max_size=5))
    f = Polynomial(R, terms)
    assert f == sum((R.monomial(e, c) for e, c in terms.items()), R.zero())
    assert not any(c.is_zero() for c in f.terms.values())
    assert f.is_zero() == all(c.is_zero() for c in terms.values())


def reference_field_product(F, a, b):
    """a * b on raw values without the library's arithmetic: in F_{p^k},
    the schoolbook product of the coefficient tuples, mapped to the
    residues of t^0 .. t^(2k-2) mod the modulus, each built from the last
    by a shift and one subtraction of the modulus."""
    if F.p == 0:
        return a * b
    if F.k == 1:
        return a * b % F.p
    p, k = F.p, F.k
    powers = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    while len(powers) < 2 * k - 1:
        shifted = (0,) + powers[-1]
        top = shifted[k]
        powers.append(tuple((s - top * m) % p
                            for s, m in zip(shifted[:k], F.modulus)))
    out = [0] * k
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for r, c in enumerate(powers[i + j]):
                out[r] += x * y * c
    return tuple(c % p for c in out)


def coefficient_tuple(x):
    """x.val, except in F_{p^k}: the coefficient tuple, low to high, read
    off the packed int with s = 2*bitlen(p-1) + bitlen(k) + 65 bits each."""
    F = x.field
    if F.p == 0 or F.k == 1:
        return x.val
    s = 2 * (F.p - 1).bit_length() + F.k.bit_length() + 65
    return tuple(x.val >> s * i & (1 << s) - 1 for i in range(F.k))


def raw_values(F):
    if F.p == 0:
        return st.fractions(min_value=-9, max_value=9, max_denominator=5)
    residues = st.integers(0, F.p - 1)
    return residues if F.k == 1 else st.tuples(*[residues] * F.k)


@SETTINGS
@hypothesis.given(st.data())
def test_field_product_matches_reference(data):
    F = data.draw(st.one_of(fields(), st.just(
        FieldDescriptor.parse("F4611686014132420609:t^2+1"))))
    a, b = data.draw(raw_values(F)), data.draw(raw_values(F))
    assert coefficient_tuple(F.element(a) * F.element(b)) == \
        reference_field_product(F, a, b)


@SETTINGS
@hypothesis.given(st.data())
def test_sum_of_many_products_near_the_top_of_the_field(data):
    """_sum_of_products over the FOLD_FIELDS with up to 40 pairs in one
    variable, so that many products land on one exponent, and coefficients
    near p - 1, against sums of reference_field_product on coefficient
    tuples."""
    F = FieldDescriptor.parse(data.draw(st.sampled_from(FOLD_FIELDS)))
    R = RingContext(F, ("x",))
    p, k = F.p, F.k
    entry = st.one_of(st.just(0), st.integers(max(p - 3, 0), p - 1))
    term_map = st.dictionaries(st.integers(0, 2), st.tuples(*[entry] * k),
                               max_size=3)
    pairs = data.draw(st.lists(st.tuples(term_map, term_map), max_size=40))
    expected = {}
    for f, g in pairs:
        for e1, a in f.items():
            for e2, b in g.items():
                c = reference_field_product(F, a, b)
                old = expected.get(e1 + e2, (0,) * k)
                expected[e1 + e2] = tuple((x + y) % p for x, y in zip(old, c))
    got = sum_of_products(R, [
        tuple(Polynomial(R, {(e,): F.element(c) for e, c in t.items()})
              for t in pair) for pair in pairs])
    assert {e: coefficient_tuple(c) for (e,), c in got.terms.items()} == \
        {e: c for e, c in expected.items() if any(c)}


@SETTINGS
@hypothesis.given(st.data())
def test_product_matches_schoolbook_oracle(data):
    F = data.draw(fields())
    R = RingContext(F, ("x", "y", "z")[:data.draw(st.integers(1, 3))])
    f, g = data.draw(polynomials(R)), data.draw(polynomials(R))
    h = f * g
    assert h == schoolbook_product(f, g)
    if F.p == 0:
        # an integral rational is held as an int, never as Fraction(n, 1)
        assert all(type(c.val) is int or c.val.denominator > 1
                   for c in h.terms.values())


@SETTINGS
@hypothesis.given(st.data())
def test_sum_of_products_matches_schoolbook_oracle(data):
    F = data.draw(fields())
    R = RingContext(F, ("x", "y", "z")[:data.draw(st.integers(1, 3))])
    pairs = data.draw(st.lists(st.tuples(polynomials(R), polynomials(R)),
                               max_size=4))
    if pairs and data.draw(st.booleans()):
        pairs.append((-pairs[0][0], pairs[0][1]))   # cancels the first pair
    expected = R.zero()
    for f, g in pairs:
        expected = expected + schoolbook_product(f, g)
    assert sum_of_products(R, pairs) == expected


# -- raw term maps against a FieldElement reference -------------------------

ORACLE_FIELDS = [FieldDescriptor.parse(spec) for spec in (
    "Q", "F2", "F3", "F5", "F4", "F9", "F8:t^3+t^2+1", "F2147483647")]


def field_values(F):
    """Values of F, zero included; near p - 1 in the large prime field."""
    if not F.p:
        return st.fractions(min_value=-4, max_value=4,
                            max_denominator=3).map(F.element)
    if F.k == 1:
        return st.one_of(st.integers(0, 3),
                         st.integers(F.p - 3, F.p - 1)).map(F.element)
    return st.lists(st.integers(0, F.p - 1), min_size=F.k,
                    max_size=F.k).map(F.element)


def nonzero(terms):
    return {e: c for e, c in terms.items() if not c.is_zero()}


@st.composite
def term_maps(draw, R, top=3):
    """A FieldElement term map without zeros: the reference's operand."""
    return nonzero(dict(draw(st.lists(
        st.tuples(exponents(R, top), field_values(R.field)), max_size=5))))


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out[e] + c if e in out else c
    return nonzero(out)


def ref_scale(a, c):
    return nonzero({e: k * c for e, k in a.items()})


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = ref_add(out, {tuple(map(sum, zip(e1, e2))): c1 * c2})
    return out


def ref_divmod(a, b, i):
    """Long division of a by b, monic in variable i, on term maps."""
    d = max(e[i] for e in b)
    q, r = {}, dict(a)
    while r and max(e[i] for e in r) >= d:
        top = max(e[i] for e in r)
        step = {e[:i] + (top - d,) + e[i + 1:]: c
                for e, c in r.items() if e[i] == top}
        q = ref_add(q, step)
        r = ref_add(r, ref_scale(ref_mul(step, b), -1))
    return q, r


def ref_hasse(a, alpha):
    return nonzero({tuple(x - y for x, y in zip(e, alpha)):
                    c * math.prod(map(math.comb, e, alpha))
                    for e, c in a.items()
                    if all(x >= y for x, y in zip(e, alpha))})


@SETTINGS
@hypothesis.given(st.data())
def test_raw_arithmetic_matches_field_element_reference(data):
    F = data.draw(st.sampled_from(ORACLE_FIELDS))
    R = RingContext(F, ("x", "y"))
    a, b = data.draw(term_maps(R)), data.draw(term_maps(R))
    c = data.draw(field_values(F))
    f, g = Polynomial(R, a), Polynomial(R, b)
    assert f.terms == a
    for h, expected in ((f + g, ref_add(a, b)),
                        (f - g, ref_add(a, ref_scale(b, -1))),
                        (-f, ref_scale(a, -1)), (f.scale(c), ref_scale(a, c))):
        # equal term maps of FieldElements: the raw values are canonical
        assert h.terms == expected
        assert h == Polynomial(R, expected)
        assert hash(h) == hash(Polynomial(R, expected))
    for i, var in enumerate(R.variables):
        d = max((e[i] for e in a), default=-1)
        assert [h.terms for h in f.coefficients_in(var)] == [
            {e[:i] + (0,) + e[i + 1:]: c for e, c in a.items() if e[i] == n}
            for n in range(d + 1)]
        assert formal_derivative(f, var).terms == nonzero(
            {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
             for e, c in a.items() if e[i]})
    alpha = data.draw(exponents(R, 3))
    assert hasse_derivative(f, alpha).terms == ref_hasse(a, alpha)
    x_only = {e: c for e, c in a.items() if not e[1]}
    S = RingContext(F, ("x",))
    assert Polynomial(R, x_only).project_out("y") == Polynomial(
        S, {e[:1]: c for e, c in x_only.items()})
    # a divisor monic in x: x^d plus the terms of b below degree d in x
    d = data.draw(st.integers(1, 3))
    monic = {e: c for e, c in b.items() if e[0] < d}
    monic[(d, 0)] = F.one()
    q, r = univ_divmod(f, Polynomial(R, monic), "x")
    ref_q, ref_r = ref_divmod(a, monic, 0)
    assert (q.terms, r.terms) == (ref_q, ref_r)


@SETTINGS
@hypothesis.given(st.data())
def test_full_cancellation_is_the_zero_polynomial(data):
    F = data.draw(st.sampled_from(ORACLE_FIELDS))
    R = RingContext(F, ("x", "y"))
    f = Polynomial(R, data.draw(term_maps(R)))
    for z in (f - f, f + (-f), -f + f, f.scale(0), f.scale(F.zero())):
        assert z.is_zero() and not z and z.terms == {}
        assert z == R.zero() and hash(z) == hash(R.zero())
        assert str(z) == "0"


# -- products with a single-term factor against the kernel ------------------

PRODUCT_FIELDS = [FieldDescriptor.parse(spec) for spec in (
    "Q", "F2", "F3", "F5", "F4", "F8:t^3+t^2+1", "F9")]


def assert_kernel_product(f, g):
    """f * g is the map _sum_of_products gives for the one pair (f, g),
    with its keys in the same order."""
    h, expected = f * g, sum_of_products(f.ring, [(f, g)])
    assert h == expected
    assert list(h.terms.items()) == list(expected.terms.items())


@SETTINGS
@hypothesis.given(st.data())
def test_products_with_a_single_term_factor_match_the_kernel(data):
    """Polynomial.__mul__ skips _sum_of_products when a factor is one term
    c*x^e: the term, monic or scaled, times a multi-term factor in both
    orders, times another term and times zero; a scalar other than 1; the
    constant 1, which gives back the other factor itself; and f**n against
    n - 1 kernel products."""
    F = data.draw(st.sampled_from(PRODUCT_FIELDS))
    R = RingContext(F, ("x", "y")[:data.draw(st.integers(1, 2))])
    units = field_values(F).filter(bool)
    multi = Polynomial(R, data.draw(st.dictionaries(
        exponents(R, 3), units, min_size=2, max_size=5)))
    c = data.draw(st.one_of(st.just(F.one()), units))
    term = R.monomial(data.draw(exponents(R, 3)), c)
    other = R.monomial(data.draw(exponents(R, 3)), data.draw(units))
    for f, g in ((term, multi), (multi, term), (term, other), (other, term),
                 (term, R.zero()), (R.zero(), multi)):
        assert_kernel_product(f, g)
    scalar = data.draw(units)
    for s in (R.constant(scalar), scalar):
        assert s * multi == multi * s == sum_of_products(
            R, [(R.constant(scalar), multi)])
    for f in (multi, term, R.zero()):
        if f == 1:
            continue   # 1 * 1 may give back either factor
        for one in (R.one(), 1, F.one()):
            assert one * f is f and f * one is f
    n = data.draw(st.integers(1, 4))
    for f in (term, multi):
        expected = f
        for _ in range(n - 1):
            expected = sum_of_products(R, [(expected, f)])
        assert f**n == expected


# Exponent vectors of total degree up to 2^31 - 1, the limit of a monomial
# key, with small entries mixed in so that equal entries, divisors and ties
# come up; a product or a chart is drawn so that it stays in that range too.
TOP_EXPONENT = 2**31 - 1


@st.composite
def exponents_below(draw, bounds, total=TOP_EXPONENT):
    """An exponent vector whose entry i is at most bounds[i] and whose
    entries sum to at most total, drawn in a random order of the entries."""
    out = [0] * len(bounds)
    for i in draw(st.permutations(range(len(bounds)))):
        b = min(bounds[i], total - sum(out))
        out[i] = draw(st.one_of(st.integers(0, min(b, 3)),
                                st.integers(0, b)))
    return tuple(out)


def exponent_vectors(n):
    return exponents_below([TOP_EXPONENT] * n)


def grevlex_greater(a, b):
    """x^a > x^b in grevlex, from the definition: the higher total degree
    wins, and at equal degree a is larger when the last nonzero entry of
    a - b is negative."""
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    diff = [x - y for x, y in zip(a, b) if x != y]
    return bool(diff) and diff[-1] < 0


@SETTINGS
@hypothesis.given(st.data())
def test_exponent_helpers_match_their_definitions(data):
    """Keys round-trip exponent tuples of total degree up to 2^31 - 1, and
    every key helper and kernel gives what its tuple definition gives: int
    order is grevlex, as grevlex_key orders; a + b is the product and b - a
    the quotient; _divides holds exactly when b - a has no negative entry;
    _lcm is the entrywise max, _entry reads one entry and _columns each
    used one, a multiple of _unit sets one, _fields gives the entries'
    fields when no entry reaches the field order, and the monomial 1 is
    key 0; _fits refuses a total degree of 2^31 or more, however large the
    entries; _chart gives what the expression it stands for gives."""
    n = data.draw(st.integers(1, 4))
    a, b = data.draw(exponent_vectors(n)), data.draw(exponent_vectors(n))
    ka, kb = _key(a), _key(b)
    assert _exps(ka, n) == a and _exps(kb, n) == b
    assert [_entry(ka, i) for i in range(n)] == list(a)
    assert _fits(ka, n) and _fits(kb, n)
    guard = _guard(n)
    assert _lcm(ka, kb, n) == _key(tuple(max(x, y) for x, y in zip(a, b)))
    difference = [y - x for x, y in zip(a, b)]
    assert _divides(ka, kb, guard) == all(d >= 0 for d in difference)
    if _divides(ka, kb, guard):
        assert _exps(kb - ka, n) == tuple(difference)
    # a permutation of a has its total degree, so the tie-break decides
    for other in (b, tuple(data.draw(st.permutations(a)))):
        ko = _key(other)
        assert (ka > ko) == grevlex_greater(a, other) == \
            (grevlex_key(a) > grevlex_key(other))
        assert (ka == ko) == (a == other)
    c = data.draw(exponents_below([TOP_EXPONENT - x for x in a],
                                  TOP_EXPONENT - sum(a)))
    kc = _key(c)
    product = ka + kc
    assert _exps(product, n) == tuple(x + y for x, y in zip(a, c))
    assert _fits(product, n)
    assert _divides(ka, product, guard) and _divides(kc, product, guard)
    assert _exps(product - ka, n) == c and _exps(product - kc, n) == a
    i = data.draw(st.integers(0, n - 1))
    assert _unit(i, n) == _key(tuple(int(j == i) for j in range(n)))
    x = data.draw(st.integers(0, TOP_EXPONENT - sum(a) + a[i]))
    assert _exps(ka + (x - a[i]) * _unit(i, n), n) == \
        tuple(x if j == i else y for j, y in enumerate(a))
    assert _key((0,) * n) == 0 and _exps(0, n) == (0,) * n
    # every entry is below 2^31, so an order of 2^31 lowers none
    F7 = FieldDescriptor.parse("F7")
    log = F7._log_table()[1]
    assert _fields(F7, {ka: 5}, 2**31, n, log) == {
        sum(x << 32 * j for j, x in enumerate(a)): log[5]}
    assert _columns([ka, kb, kc], n) == {
        j: [a[j], b[j], c[j]] for j in range(n) if a[j] or b[j] or c[j]}
    # a total degree of 2^31 or more, from entries of any size
    big = data.draw(exponents_below([2**40] * n, 2**40).filter(
        lambda e: sum(e) > TOP_EXPONENT))
    assert not _fits(_key(big), n)
    assert not _fits(ka + _key(big), n)
    # chart keys whose degree over any centre holding the chart variable i
    # stays below 2^31, and whose chart image does too; with i outside the
    # centre the chart would not be injective, and _chart refuses no such
    # centre (_chart_algebra does)
    active = data.draw(st.sets(st.integers(0, n - 1))) | {i}
    drop = data.draw(st.integers(0, TOP_EXPONENT))
    exps = data.draw(st.lists(exponents_below([TOP_EXPONENT] * n,
                                              TOP_EXPONENT // 2),
                              max_size=3))
    raw = {_key(e): v for v, e in enumerate(exps, 1)}
    degrees = {e: sum(x for j, x in enumerate(e) if j in active) - drop
               for e in exps}
    assert _chart(raw, _center_mask(active, n), i, drop, n) == (
        None if any(d < 0 for d in degrees.values()) else
        {_key(e[:i] + (degrees[e],) + e[i + 1:]): v
         for v, e in enumerate(exps, 1)})


def test_chart_keeps_distinct_keys_apart_with_its_variable_in_the_centre():
    # x^(0,2,3) and x^(0,2,0) differ only at the chart variable 2.  Over the
    # centre {1, 2} their degrees are 5 and 2, so they keep different images
    # (0,2,5) and (0,2,2); over an empty centre both would meet at (0,2,0)
    n = 3
    raw = {_key((0, 2, 3)): 2, _key((0, 2, 0)): 3}
    assert _chart(raw, _center_mask({1, 2}, n), 2, 0, n) == {
        _key((0, 2, 5)): 2, _key((0, 2, 2)): 3}


@SETTINGS
@hypothesis.given(st.data())
def test_shift_rows_are_the_box_without_what_p_divides(data):
    """_shifts lists the nonzero alpha <= beta with |alpha| < n on the
    active indices, by (|alpha|, alpha), whose exact binomial
    prod C(beta_i, alpha_i) p does not divide, each with its binomial
    mod p (exact over Q): a box of exact binomials, with no digits."""
    nvars = data.draw(st.integers(1, 3))
    beta = data.draw(st.tuples(*[st.integers(0, 40)] * nvars))
    n = data.draw(st.integers(0, 30))
    active = data.draw(st.sets(st.integers(0, nvars - 1)))
    p = data.draw(st.sampled_from([0, 2, 3, 5, 7]))
    box = []
    for alpha in itertools.product(*[range(b + 1) if i in active else (0,)
                                     for i, b in enumerate(beta)]):
        binom = math.prod(map(math.comb, beta, alpha))
        if 0 < sum(alpha) < n and (not p or binom % p):
            box.append((sum(alpha), alpha, _key(beta) - _key(alpha), binom))
    box.sort()
    # hasse keys every variable by a range, one cache entry
    support = range(nvars) if len(active) == nvars else frozenset(active)
    rows = _shifts(_key(beta), n, support, nvars, p)
    assert [row[:3] for row in rows] == [row[:3] for row in box]
    for row, want in zip(rows, box):
        assert (row[3] - want[3]) % p == 0 if p else row[3] == want[3]


@SETTINGS
@hypothesis.given(st.integers(0, 2**12 - 1), st.integers(0, 2**12),
                  st.sampled_from([0, 2, 3, 5, 7]))
# C(6, 3) = 20: a digit's own binomial can pass p, so it is reduced too
@hypothesis.example(b=6, a=3, p=7)
def test_binomial_is_the_exact_binomial_mod_p(b, a, p):
    exact = math.comb(b, a)
    assert _binomial(b, a, p) == (exact % p if p else exact)


def carries(x, y, p):
    """Whether adding x and y in base p carries: the first carry is a
    digit sum of p or more, with no carry in."""
    while x or y:
        if x % p + y % p >= p:
            return True
        x, y = x // p, y // p
    return False


@SETTINGS
@hypothesis.given(st.data())
def test_binomial_vanishes_mod_p_exactly_when_the_digits_carry(data):
    """Kummer: p divides C(b, a) iff adding a and b - a in base p carries.
    Half the draws take each digit of a at most b's, so nothing carries."""
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    b = data.draw(st.integers(0, 2**30))
    if data.draw(st.booleans()):
        a = data.draw(st.integers(0, b))
    else:
        a, scale, rest = 0, 1, b
        while rest:
            a += data.draw(st.integers(0, rest % p)) * scale
            scale, rest = scale * p, rest // p
    assert (_binomial(b, a, p) == 0) == carries(a, b - a, p)


@SETTINGS
@hypothesis.given(st.data())
def test_split_reassembles_the_polynomial(data):
    """f == sum of var^d * part_d over _split(f._raw, i, n), each part with
    entry i zero; exponents reach 2^31 - 1."""
    R = data.draw(rings())
    f = Polynomial(R, data.draw(st.dictionaries(
        exponent_vectors(R.nvars), coefficients(R), max_size=5)))
    i = data.draw(st.integers(0, R.nvars - 1))
    parts = _split(f._raw, i, R.nvars)
    assert all(part and all(_entry(e, i) == 0 for e in part)
               for part in parts.values())
    var = R.var(R.variables[i])
    assert sum((var**d * Polynomial._from_raw(R, part)
                for d, part in parts.items()), R.zero()) == f


@SETTINGS
@hypothesis.given(st.data())
def test_subtract_kernel_matches_polynomial_arithmetic(data):
    """_subtract(field, work, shift, c, tail) leaves work = f - c*x^shift*g
    for work f and tail g's terms, on f and on an empty map."""
    R = data.draw(rings())
    f, g = data.draw(polynomials(R)), data.draw(polynomials(R))
    shift = data.draw(exponents(R, 3))
    c = data.draw(coefficients(R))
    for start in (f, R.zero()):
        work = dict(start._raw)
        _subtract(R.field, work, _key(shift), R.coeff(c).val, g._raw.items())
        assert Polynomial._from_raw(R, work) == \
            start - R.monomial(shift, c) * g
        assert all(work.values())


SCAN_RINGS = [RINGS[spec, n] for spec in ("F2", "F3", "F4", "F9")
              for n in (2, 3)]


@SETTINGS
@hypothesis.given(st.data())
def test_scan_kernels_match_substitution_and_evaluation(data):
    """With exponents up to 3q over F_q: _fields gives a log map of a
    polynomial with exponents below q and f's value at every point of
    F_q^n, f itself when every exponent is below q, and _specialize of that
    map at the log of each value a (None at 0) is that polynomial with its
    first variable set to a and projected out."""
    R = data.draw(st.sampled_from(SCAN_RINGS))
    F, q = R.field, R.field.order
    f = data.draw(polynomials(R, top=3 * q))
    x = R.variables[0]
    exp, log, zech, _ = F._log_table()

    def from_logs(R, terms):   # the polynomial of a _fields map in R
        return Polynomial(R, {
            tuple(e >> 32 * i & 2**32 - 1 for i in range(R.nvars)):
            FieldElement(F, exp[c]) for e, c in terms.items()})

    logs = _fields(F, f._raw, q, R.nvars, log)
    folded = from_logs(R, logs)
    assert all(e < q for exps in folded.terms for e in exps)
    if all(e < q for exps in f.terms for e in exps):
        assert folded == f
    for coords in itertools.product(F.elements(), repeat=R.nvars):
        point = R.point(coords)
        assert folded.evaluate(point) == f.evaluate(point)
    for a in F.elements():
        s = _specialize(logs, log.get(a.val), q - 1, zech)
        rest = R.drop_variable(x)
        assert from_logs(rest, s) == \
            folded.substitute({x: a}).project_out(x)


# 2^31 - 1 is prime, 46337 the largest prime below its square root, and
# 1073741789 a prime: each walks the trial division to its end
@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(st.integers(1, 2**31 - 1))
@hypothesis.example(2**31 - 1)
@hypothesis.example(46337**2)
@hypothesis.example(2 * 1073741789)
@hypothesis.example(2**30)
def test_prime_factors_match_sympy_below_2_to_the_31(n):
    sympy = pytest.importorskip("sympy")
    assert _prime_factors(n) == sympy.primefactors(n)
    assert _is_prime(n) == sympy.isprime(n)
