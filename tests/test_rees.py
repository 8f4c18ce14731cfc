"""Weighted Rees algebras: saturation, singular loci, invariants, transforms."""
import copy
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reeselim
from reeselim import (FieldDescriptor, Ideal, Polynomial, ReesAlgebra,
                      ReesError, ReesGenerator, RingContext, RingError,
                      buchberger, component_order, degree_ideal, diff_saturate,
                      e0_invariant, format_algebra, ideal_equal, is_simple,
                      is_singular_at, normalize_generators, ord_at_point,
                      parse_algebra, rational_singular_points, singular_ideal,
                      tau_estimate, total_transform, weighted_transform)
from reeselim.hasse import hasse_derivatives
from reeselim.poly import grevlex_key


def ring(spec, *names):
    return RingContext(FieldDescriptor.parse(spec), names)


def algebra(R, *pairs):
    return ReesAlgebra.from_pairs(R, [(R.parse(t), w) for t, w in pairs])


QYZ = ring("Q", "Y", "Z")
F2YZ = ring("F2", "Y", "Z")
F2XY = ring("F2", "X", "Y")


def test_saturation_char_zero_generators():
    G = diff_saturate(algebra(QYZ, ("Z^2+Y^5", 2)))
    f = QYZ.parse("Z^2+Y^5")
    assert set(G.generators) == {
        ReesGenerator(f, 2), ReesGenerator(f, 1),
        ReesGenerator(QYZ.parse("2*Z"), 1),
        ReesGenerator(QYZ.parse("5*Y^4"), 1)}


def test_saturation_char_two_generators():
    G = diff_saturate(algebra(F2YZ, ("Z^2+Y^5", 2)))
    f = F2YZ.parse("Z^2+Y^5")
    assert set(G.generators) == {
        ReesGenerator(f, 2), ReesGenerator(f, 1),
        ReesGenerator(F2YZ.parse("Y^4"), 1)}


def test_saturation_weight_one_is_fixed_point():
    G = algebra(QYZ, ("Z+Y", 1), ("Y^2", 1))
    assert set(diff_saturate(G).generators) == set(G.generators)


def test_saturation_idempotent_and_extensive():
    G = algebra(F2XY, ("X^4+X^2*Y^5", 4))
    S1 = diff_saturate(G)
    assert diff_saturate(S1) == S1
    assert set(G.generators) <= set(S1.generators)
    rel = diff_saturate(G, ["X"])
    assert diff_saturate(rel, ["X"]) == rel


def test_saturation_idempotent_up_to_scalars_over_q():
    # over Q a second saturation adds scalar multiples of generators already
    # listed (Delta_X of X^4 is 4*X^3, whose Delta_X is 12*X^2, but
    # Delta_{X^2} of X^4 is 6*X^2), so the algebras agree only once each
    # generator is made monic
    R = ring("Q", "X", "Y", "Z")
    G = algebra(R, ("Z^3+X^4+Y^5", 3))
    for active, counts in ((None, (12, 15)), (["Z"], (6, 7))):
        S1 = diff_saturate(G, active)
        S2 = diff_saturate(S1, active)
        assert (len(S1.generators), len(S2.generators)) == counts
        assert S2 != S1
        assert normalize_generators(S2) == normalize_generators(S1)


def test_singular_ideal_reduces_to_z_y4():
    G = diff_saturate(algebra(QYZ, ("Z^2+Y^5", 2)))
    assert ideal_equal(singular_ideal(G),
                       Ideal(QYZ, [QYZ.var("Z"), QYZ.parse("Y^4")]))


def test_singular_ideal_weight_one_generator():
    G = algebra(QYZ, ("Y", 1))
    assert ideal_equal(singular_ideal(G), Ideal(QYZ, [QYZ.var("Y")]))


def test_singular_points_of_quartic_surface():
    G = diff_saturate(algebra(F2XY, ("X^4+X^2*Y^5", 4)))
    assert rational_singular_points(G) == {F2XY.origin()}


@pytest.mark.parametrize("k", [2.5, Fraction(5, 2), 2.0, "2", None])
def test_degree_parts_refuse_a_degree_that_is_not_an_int(k):
    general = algebra(QYZ, ("Z^2+Y^5", 2))
    monomial = algebra(QYZ, ("Z", 1), ("Y^4", 1))
    for G in (general, monomial):
        with pytest.raises(ReesError, match="is not an int"):
            degree_ideal(G, k)
    with pytest.raises(ReesError, match="is not an int"):
        component_order(general, k, QYZ.origin())


def test_degree_parts_take_a_bool_degree_as_an_int():
    G = algebra(QYZ, ("Z^2+Y^5", 2), ("Y", 1))
    assert degree_ideal(G, True).generators == degree_ideal(G, 1).generators
    assert component_order(G, True, QYZ.origin()) == 1
    with pytest.raises(ReesError, match="degree must be >= 1"):
        degree_ideal(G, False)


def test_component_orders_knapsack():
    G = diff_saturate(algebra(F2XY, ("X^4+X^2*Y^5", 4)))
    O = F2XY.origin()
    assert component_order(G, 4, O) == 4
    assert [component_order(G, k, O) for k in (1, 2, 3)] == [4, 4, 4]
    H = algebra(F2XY, ("X", 1))
    assert component_order(H, 3, O) == 3


def hasse_order(g, P):
    """ord_P(g) from Hasse derivatives and evaluation alone, sharing no code
    with recenter: the least |alpha| with Delta^alpha g(P) != 0, which
    Taylor's formula at P makes the order of g(x + P), at most deg g."""
    top = max(sum(exps) for exps in g.terms)
    return min(sum(alpha)
               for alpha, d in hasse_derivatives(g, top + 1).items()
               if not d.evaluate(P).is_zero())


def test_ord_at_point():
    O = F2YZ.origin()
    G = diff_saturate(algebra(F2YZ, ("Z^2+Y^5", 2)))
    assert ord_at_point(G, O) == 1
    SY = ring("Q", "Y")
    assert ord_at_point(algebra(SY, ("Y^4", 1)), SY.origin()) == 4
    assert ord_at_point(algebra(SY, ("Y^3", 1)), SY.origin()) == 3
    assert ord_at_point(algebra(SY, ("Y^3", 2)), SY.origin()) == Fraction(3, 2)


def test_simplicity():
    G = diff_saturate(algebra(QYZ, ("Z^2+Y^5", 2)))
    assert is_simple(G, QYZ.origin())
    SY = ring("Q", "Y")
    assert not is_simple(algebra(SY, ("Y^4", 1)), SY.origin())
    with pytest.raises(ReesError):
        is_simple(algebra(SY, ("Y", 1)),
                  SY.point([1]))  # order 0 < weight: not singular there


def test_simplicity_takes_one_order_pass(monkeypatch):
    # X -> X+1 moves the singular point of X^4+X^2*Y^5 to (1, 0): each
    # invariant recentres every generator once, for its order, and reads
    # every order, every Frobenius level and the simplicity test from
    # that one pass
    f = F2XY.parse("X^4+X^2*Y^5").substitute({"X": F2XY.parse("X+1")})
    G = diff_saturate(ReesAlgebra.from_pairs(F2XY, [(f, 4)]))
    at = F2XY.point([1, 0])
    calls, recenter = [], Polynomial.recenter

    def counting(self, point):
        calls.append(self)
        return recenter(self, point)

    monkeypatch.setattr(Polynomial, "recenter", counting)
    assert len(G.generators) == 10
    for invariant, value in [(ord_at_point, 1), (is_simple, True),
                             (lambda G, at: component_order(G, 4, at), 4),
                             (e0_invariant, 2), (tau_estimate, 1)]:
        calls.clear()
        assert invariant(G, at) == value
        assert calls == [g.poly for g in G.generators]


def test_e0_invariant_values():
    O = F2XY.origin()
    G = diff_saturate(algebra(F2XY, ("X^4+X^2*Y^5", 4)))
    assert e0_invariant(G, O) == 2
    adjoined = ReesAlgebra(F2XY, G.generators + (
        ReesGenerator(F2XY.var("X"), 1),
        ReesGenerator(F2XY.parse("X^2+Y^5"), 2)))
    assert e0_invariant(adjoined, O) == 0
    H = diff_saturate(algebra(F2YZ, ("Z^2+Y^5", 2)))
    assert e0_invariant(H, F2YZ.origin()) == 1
    HQ = diff_saturate(algebra(QYZ, ("Z^2+Y^5", 2)))
    assert e0_invariant(HQ, QYZ.origin()) == 0  # characteristic-0 convention


def test_tau_estimate_values():
    R = ring("F2", "X", "Y", "Z")
    G = diff_saturate(algebra(R, ("Z^2+Y^5", 2), ("X^2", 2)))
    assert tau_estimate(G, R.origin()) == 2
    GQ = diff_saturate(algebra(QYZ, ("Z^2+Y^5", 2)))
    assert tau_estimate(GQ, QYZ.origin()) == 1
    SY = ring("Q", "Y")
    with pytest.raises(ReesError):
        tau_estimate(algebra(SY, ("Y^4", 1)), SY.origin())  # not simple


def test_tau_estimate_eliminates_dependent_rows():
    # rows (1,1), (1,0) over F2 are independent; (1,1), (2,2) over F3 are
    # not, and the second reduces to zero against the first
    R2 = ring("F2", "x", "y")
    G = diff_saturate(algebra(R2, ("x^2+y^2", 2), ("x^2", 2)))
    assert tau_estimate(G, R2.origin()) == 2
    R3 = ring("F3", "x", "y")
    G = diff_saturate(algebra(R3, ("x^3+y^3", 3), ("2*x^3+2*y^3+x^4", 3)))
    assert tau_estimate(G, R3.origin()) == 1


def test_tau_estimate_ranks_rows_over_an_extension_field():
    # over F4 the square roots of (1, t) and (t^2, 1) are (1, t^2) and
    # (t, 1) = t * (1, t^2): one row, until z^2 adds a second
    R = ring("F4", "x", "y")
    G = algebra(R, ("x^2+t*y^2", 2), ("t^2*x^2+y^2", 2))
    assert tau_estimate(G, R.origin()) == 1
    R = ring("F4", "x", "y", "z")
    G = algebra(R, ("x^2+t*y^2", 2), ("t^2*x^2+y^2", 2), ("z^2", 2))
    assert tau_estimate(G, R.origin()) == 2


def test_weighted_transform_quadratic_chart():
    G = algebra(QYZ, ("Z", 1), ("Y^4", 1))
    G1, chart = weighted_transform(G, ["Y", "Z"], "Y")
    assert set(G1.generators) == {ReesGenerator(QYZ.var("Z"), 1),
                                  ReesGenerator(QYZ.parse("Y^3"), 1)}
    assert chart.exceptional == "Y" and set(chart.center) == {"Y", "Z"}
    assert repr(chart) == "BlowupChart(exceptional=Y, Z->Y*Z)"
    _, chart = weighted_transform(G, ["Z", "Y", "Z"], "Y")
    assert chart.center == ("Z", "Y", "Z")
    assert repr(chart) == "BlowupChart(exceptional=Y, Z->Y*Z)"


def test_weighted_transform_char_two_strict_transform():
    G = algebra(F2YZ, ("Y^4", 1), ("Z^2+Y^5", 2))
    G1, _ = weighted_transform(G, ["Y", "Z"], "Y")
    assert set(G1.generators) == {ReesGenerator(F2YZ.parse("Y^3"), 1),
                                  ReesGenerator(F2YZ.parse("Z^2+Y^3"), 2)}


def test_weighted_transform_unit_chart_empties_the_locus():
    R = ring("F3", "Y", "Z")
    G = algebra(R, ("Z", 1))
    G1, _ = weighted_transform(G, ["Y", "Z"], "Z")
    assert set(G1.generators) == {ReesGenerator(R.one(), 1)}
    assert rational_singular_points(G1) == set()


def test_impermissible_center_rejected():
    G = algebra(QYZ, ("Z^2+Y^5", 2))
    with pytest.raises(ReesError):
        weighted_transform(G, ["Z"], "Z")  # order along {Z} is 0 < 2


def test_total_transform():
    G = algebra(QYZ, ("Z", 1))
    T = total_transform(G, ["Y", "Z"], "Y")
    assert set(T.generators) == {ReesGenerator(QYZ.parse("Y*Z"), 1)}
    G2 = algebra(QYZ, ("Y^4", 1))
    assert total_transform(G2, ["Y", "Z"], "Y") == G2
    G3 = algebra(QYZ, ("Z^2+Y^5", 2))
    T3 = total_transform(G3, ["Y", "Z"], "Y")
    assert set(T3.generators) == {ReesGenerator(QYZ.parse("Y^2*Z^2+Y^5"), 2)}


def test_weighted_times_exceptional_power_recovers_total():
    G = diff_saturate(algebra(F2YZ, ("Z^2+Y^5", 2)))
    W, chart = weighted_transform(G, ["Y", "Z"], "Y")
    T = total_transform(G, ["Y", "Z"], "Y")
    e = G.ring.var(chart.exceptional)
    rebuilt = {(g.poly * e**g.weight, g.weight) for g in W.generators}
    assert rebuilt == {(g.poly, g.weight) for g in T.generators}


def reference_chart(G, center, chart_var, weighted):
    """Oracle: substitute x_l -> chart * x_l for the other center variables,
    then, when weighted, divide each generator exactly by chart^weight; the
    first generator whose division fails makes the center impermissible."""
    R = G.ring
    x = R.var(chart_var)
    mapping = {v: x * R.var(v) for v in center if v != chart_var}
    j = R.var_index(chart_var)
    pairs = []
    for g in G.generators:
        moved = g.poly.substitute(mapping)
        drop = g.weight if weighted else 0
        divisible = all(e[j] >= drop for e in moved.terms)
        assert divisible == (g.poly.order_along(center) >= drop)
        if not divisible:
            raise ReesError("center is not permissible: %s has order < %d "
                            "along it" % (g.poly, g.weight))
        pairs.append((Polynomial(R, {e[:j] + (e[j] - drop,) + e[j + 1:]: c
                                     for e, c in moved.terms.items()}),
                      g.weight))
    return ReesAlgebra.from_pairs(R, pairs)


def test_transforms_match_substitution_oracle():
    rng = random.Random(6)
    outcomes = set()
    for spec in ("Q", "F2", "F3", "F4", "F5"):
        coeffs = _nonzero_coeffs(ring(spec, "X"))
        for n in range(12):
            R = ring(spec, *("X", "Y", "Z", "U")[:2 + n % 3])
            pairs = []
            for _ in range(rng.randrange(1, 4)):
                f = R.zero()
                while len(f.terms) < 2:   # non-monomial generators
                    exps = tuple(rng.randrange(4) for _ in R.variables)
                    f = f + R.monomial(exps, rng.choice(coeffs))
                pairs.append((f, rng.randrange(1, 4)))
            G = ReesAlgebra.from_pairs(R, pairs)
            for size in range(1, R.nvars + 1):
                for center in itertools.combinations(R.variables, size):
                    for chart_var in center:
                        # a repeated name counts once
                        repeated = [chart_var, *center, center[-1]]
                        assert total_transform(G, repeated, chart_var) \
                            .generators == reference_chart(
                                G, center, chart_var, False).generators
                        try:
                            expected = reference_chart(G, center, chart_var,
                                                       True).generators
                        except ReesError as exc:
                            expected = str(exc)
                        for c in (list(center), repeated):
                            try:
                                got = weighted_transform(G, c, chart_var)[0]
                                got = got.generators
                            except ReesError as exc:
                                got = str(exc)
                            assert got == expected, (G, c, chart_var)
                        outcomes.add(isinstance(expected, str))
    assert outcomes == {False, True}


def test_transform_errors_in_order():
    G = algebra(QYZ, ("Y*Z", 2), ("Z", 1), ("Y", 2), ("Z^2+Y", 2))
    with pytest.raises(ReesError, match="chart variable must lie in the "
                                        "center"):
        weighted_transform(G, ["W", "Y"], "Z")
    with pytest.raises(RingError, match="unknown variable 'W'"):
        weighted_transform(G, ["Y", "W"], "Y")
    with pytest.raises(ReesError, match=r"not permissible: Y has order < 2"):
        weighted_transform(G, ["Y", "Z", "Z"], "Z")
    with pytest.raises(ReesError, match=r"not permissible: Y\*Z has order"):
        weighted_transform(G, ["Z"], "Z")


def test_a_chart_exponent_crossing_2_31_raises():
    # Z -> Y*Z in the chart of Y: Y*Z^(2^30) goes to Y^(2^30+1)*Z^(2^30),
    # and its weighted transform divides one Y out; either reaches 2^31
    R = ring("Q", "Y", "Z")
    G = algebra(R, ("Y*Z^1073741824", 1))
    for transform in (total_transform, weighted_transform):
        with pytest.raises(RingError, match=r"total degree reaches the "
                                            r"limit 2\^31"):
            transform(G, ["Y", "Z"], "Y")
    assert weighted_transform(G, ["Y", "Z"], "Z")[0].generators[0].poly == \
        R.parse("Y*Z^1073741824")


def test_a_degree_ideal_level_crossing_2_31_raises():
    R = ring("Q", "Y", "Z")
    G = algebra(R, ("Y^1073741824", 1), ("Z", 1))
    assert degree_ideal(G, 1).generators == (R.var("Z"),
                                              R.parse("Y^1073741824"))
    with pytest.raises(RingError, match=r"total degree reaches the limit"):
        degree_ideal(G, 2)


def test_degree_ideal_minimal_products():
    G = algebra(QYZ, ("Z", 1), ("Y^4", 1))
    assert ideal_equal(degree_ideal(G, 2),
                       Ideal(QYZ, [QYZ.parse("Z^2"), QYZ.parse("Z*Y^4"),
                                   QYZ.parse("Y^8")]))
    G2 = algebra(QYZ, ("Z^2+Y^5", 2))
    assert ideal_equal(degree_ideal(G2, 1),
                       Ideal(QYZ, [QYZ.parse("Z^2+Y^5")]))
    G3 = diff_saturate(algebra(QYZ, ("Z^2+Y^5", 2)))
    assert ideal_equal(degree_ideal(G3, 1),
                       Ideal(QYZ, [g.poly for g in G3.generators]))


def heaviest_copies(G):
    """The generators the enumeration multiplies out: all of them when every
    one is a monomial, else those whose polynomial is listed at no larger
    weight."""
    gens = G.generators
    if all(len(g.poly.terms) == 1 for g in gens):
        return gens
    return tuple(g for g in gens
                 if not any(h.poly == g.poly and h.weight > g.weight
                            for h in gens))


def brute_force_degree_ideal(G, k, heaviest=True):
    """Oracle: products over every minimal multiset of total weight >= k,
    with the monomial ones replaced by the monic monomials of their minimal
    exponent vectors; multisets of heaviest_copies(G) only, unless heaviest
    is false."""
    gens = heaviest_copies(G) if heaviest else G.generators
    products = set()
    for size in range(1, k + 1):
        for combo in itertools.combinations_with_replacement(gens, size):
            weights = [g.weight for g in combo]
            if sum(weights) >= k > sum(weights) - min(weights):
                product = G.ring.one()
                for g in combo:
                    product = product * g.poly
                products.add(product)

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    exps = {p.leading_monomial() for p in products if len(p.terms) == 1}
    return {p for p in products if len(p.terms) > 1} | {
        G.ring.monomial(e) for e in exps
        if not any(d != e and divides(d, e) for d in exps)}


def test_degree_ideal_matches_brute_force_enumeration():
    rng = random.Random(7)
    for spec in ("Q", "F2", "F3"):
        R = ring(spec, "X", "Y")
        for _ in range(12):
            pairs = []
            for _ in range(rng.randrange(1, 4)):
                # monic monomials and binomials: equal monomial products are
                # then equal polynomials, so the oracle's set is exact
                p = R.monomial((rng.randrange(3), rng.randrange(3)))
                if rng.random() < 0.5:
                    p = p + R.monomial((rng.randrange(3), rng.randrange(3)),
                                       rng.randrange(1, 3))
                pairs.append((p, rng.randrange(1, 4)))
            G = ReesAlgebra.from_pairs(R, pairs)
            for k in range(1, 6):
                gens = degree_ideal(G, k).generators
                assert len(set(gens)) == len(gens)
                assert set(gens) == brute_force_degree_ideal(G, k)
                assert ideal_equal(Ideal(R, gens), Ideal(
                    R, list(brute_force_degree_ideal(G, k, heaviest=False))))


def scalar_oracle_degree_ideal(G, k, heaviest=True):
    """Oracle with scalars and order: every minimal multiset as a sorted
    index tuple, in lexicographic order; the monic monomial of each minimal
    exponent vector of the monomial products, in grevlex order; then each
    distinct non-monomial product, in order of first appearance, stably
    sorted by grevlex leading monomial.  Multisets of heaviest_copies(G)
    only, unless heaviest is false."""
    gens = heaviest_copies(G) if heaviest else G.generators
    combos = []
    for size in range(1, k + 1):
        for combo in itertools.combinations_with_replacement(
                range(len(gens)), size):
            weights = [gens[i].weight for i in combo]
            if sum(weights) >= k > sum(weights) - min(weights):
                combos.append(combo)
    exps, rest = set(), {}
    for combo in sorted(combos):
        product = G.ring.one()
        for i in combo:
            product = product * gens[i].poly
        if len(product.terms) == 1:
            exps.add(next(iter(product.terms)))
        else:
            rest.setdefault(product, None)

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def lead(p):
        return grevlex_key(max(p.terms, key=grevlex_key))

    minimal = [G.ring.monomial(e) for e in exps
               if not any(d != e and divides(d, e) for d in exps)]
    return tuple(sorted(minimal, key=lead) + sorted(rest, key=lead))


def assert_matches_scalar_oracle(G, k):
    """degree_ideal(G, k) is the scalar oracle's tuple, and spans the ideal
    of the oracle's enumeration over every generator (the same enumeration
    when heaviest_copies keeps them all)."""
    got = degree_ideal(G, k)
    assert got.generators == scalar_oracle_degree_ideal(G, k), (G, k)
    if heaviest_copies(G) != G.generators:
        assert ideal_equal(got, Ideal(G.ring, list(
            scalar_oracle_degree_ideal(G, k, heaviest=False)))), (G, k)


def _nonzero_coeffs(R):
    if R.field.p:
        return [c for c in R.field.elements() if not c.is_zero()]
    return [1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]


def test_degree_ideal_lists_monomial_products_monic():
    R = ring("Q", "X", "Y")
    # 4X^2, 6X^2 and 9X^2 span one ideal, listed once as X^2
    G = algebra(R, ("2*X", 1), ("3*X", 1))
    assert degree_ideal(G, 2).generators == (R.parse("X^2"),)
    # 3X divides 4X^2
    G = algebra(R, ("3*X", 2), ("2*X", 1))
    assert degree_ideal(G, 2).generators == (R.parse("X"),)
    # constant generators: 25, 35 and 343 are units, and a unit divides
    # every other product
    G = algebra(R, ("2*X*Y", 1), ("5", 2), ("7", 1))
    assert degree_ideal(G, 3).generators == (R.one(),)


def test_degree_ideal_matches_scalar_oracle():
    rng = random.Random(11)
    for spec in ("Q", "F2", "F3", "F4", "F5"):
        coeffs = _nonzero_coeffs(ring(spec, "X"))
        for n in range(16):
            R = ring(spec, *("X", "Y", "Z")[:2 + n % 2])
            pairs = []
            for _ in range(rng.randrange(1, 5)):
                exps = tuple(rng.randrange(3) for _ in R.variables)
                if rng.random() < 0.1:
                    exps = (0,) * R.nvars   # a constant generator
                pairs.append((R.monomial(exps, rng.choice(coeffs)),
                              rng.randrange(1, 4)))
            if rng.random() < 0.5:
                # the same exponent vector again, with another scalar
                p, _ = rng.choice(pairs)
                pairs.append((p.scale(rng.choice(coeffs)),
                              rng.randrange(1, 4)))
            if n % 4 == 3:
                # one binomial: the multiset enumeration path
                p, w = pairs[0]
                exps = tuple(rng.randrange(3) for _ in R.variables)
                pairs[0] = (p + R.monomial(exps, rng.choice(coeffs)), w)
            G = ReesAlgebra.from_pairs(R, pairs)
            for k in range(1, 7):
                assert_matches_scalar_oracle(G, k)


def test_degree_ideal_ignores_a_dominated_generators_scalar():
    R = ring("Q", "X", "Y")
    # 2X W is dominated by X W^2 and left out of the levels; I_1 is (X)
    G = algebra(R, ("2*X", 1), ("X", 2))
    assert degree_ideal(G, 1).generators == (R.parse("X"),)
    assert degree_ideal(G, 2).generators == (R.parse("X"),)
    # X^2 W^3 dominates X^2*Y W^2 and X^3 W^1, but not X W^1
    G = algebra(R, ("X^3", 1), ("X^2*Y", 2), ("X^2", 3), ("X", 1))
    for k in range(1, 5):
        assert_matches_scalar_oracle(G, k)


def test_degree_ideal_of_saturated_monomials_matches_scalar_oracle():
    # the transform pool's shape: a saturation lists each derivative with
    # its down-shifted copies, most of them dominated by another generator
    rng = random.Random(13)
    for spec in ("Q", "F2", "F3"):
        coeffs = _nonzero_coeffs(ring(spec, "X"))
        for n in range(10):
            R = ring(spec, *("X", "Y", "Z")[:2 + n % 2])
            pairs = [(R.monomial(tuple(rng.randrange(4) for _ in R.variables),
                                 rng.choice(coeffs)), rng.randrange(1, 4))
                     for _ in range(rng.randrange(1, 4))]
            gens = list(diff_saturate(ReesAlgebra.from_pairs(R,
                                                             pairs)).generators)
            if n % 2 and len(coeffs) > 1:
                # one exponent again, first in file order, at a lower
                # weight and with another scalar
                g = max(gens, key=lambda g: g.weight)
                if g.weight > 1:
                    gens.insert(0, ReesGenerator(
                        g.poly.scale(rng.choice(coeffs[1:])),
                        rng.randrange(1, g.weight)))
            G = ReesAlgebra(R, gens)
            for k in range(1, 5):
                assert_matches_scalar_oracle(G, k)


def test_degree_ideal_of_a_saturated_algebra_keeps_the_heaviest_copies():
    # saturation lists each generator again at every lower weight, lighter
    # copies first; products through a lighter copy are left out
    R = ring("Q", "X", "Y")
    G = diff_saturate(algebra(R, ("X^2+Y^3", 2)))
    assert [(str(g.poly), g.weight) for g in G.generators] == [
        ("Y^3+X^2", 1), ("Y^3+X^2", 2), ("3*Y^2", 1), ("2*X", 1)]
    assert [str(p) for p in degree_ideal(G, 2).generators] == [
        "X^2", "X*Y^2", "Y^4", "Y^3+X^2"]
    assert len(scalar_oracle_degree_ideal(G, 2, heaviest=False)) == 7
    rng = random.Random(17)
    coeffs = _nonzero_coeffs(R)
    dropped = 0
    for n in range(12):
        R = ring("Q", *("X", "Y", "Z")[:2 + n % 2])
        pairs = []
        for _ in range(rng.randrange(1, 3)):
            f = R.zero()
            while len(f.terms) < 2:
                exps = tuple(rng.randrange(3) for _ in R.variables)
                f = f + R.monomial(exps, rng.choice(coeffs))
            pairs.append((f, rng.randrange(2, 4)))
        G = diff_saturate(ReesAlgebra.from_pairs(R, pairs))
        dropped += len(G.generators) - len(heaviest_copies(G))
        for k in range(1, G.max_weight + 1):
            assert_matches_scalar_oracle(G, k)
    assert dropped > 0


def test_degree_ideal_order_does_not_depend_on_hash_seed():
    script = (
        "from reeselim import *\n"
        "R = RingContext(FieldDescriptor.parse('F3'), ['x', 'y'])\n"
        "G = diff_saturate(ReesAlgebra.from_pairs(R, [\n"
        "    (R.parse('x^2*y+2*y^3+x'), 3), (R.parse('x*y^2+y'), 2)]))\n"
        "print([str(g) for g in degree_ideal(G, 3).generators])\n")
    src = str(Path(reeselim.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                      capture_output=True, check=True).stdout)
    assert outputs[0] == outputs[1] and outputs[0].startswith(b"[")


def random_monomial_algebra(rng, R, coeffs):
    """1-4 monomial generators with exponents below 3, weights 1-3."""
    return ReesAlgebra.from_pairs(R, [
        (R.monomial(tuple(rng.randrange(3) for _ in R.variables),
                    rng.choice(coeffs)), rng.randrange(1, 4))
        for _ in range(rng.randrange(1, 5))])


def assert_levels_memo_in_any_order(algebras, ks):
    """degree_ideal(G, k) for each (G, k) in ks (indices into algebras), in
    that order, equals the call on a freshly built equal algebra and the
    scalar oracle; its carried basis is the basis of the same generators
    with nothing carried; and a later call never changes a memo seen
    before."""
    snapshots = []
    for i, k in ks:
        G = algebras[i]
        I = degree_ideal(G, k)
        fresh = ReesAlgebra(G.ring, G.generators)
        assert I.generators == degree_ideal(fresh, k).generators, (G, k)
        assert I.generators == scalar_oracle_degree_ideal(G, k), (G, k)
        assert buchberger(I).basis == buchberger(
            Ideal(G.ring, I.generators)).basis, (G, k)
        snapshots.append((G._levels, copy.deepcopy(G._levels)))
    for memo, saved in snapshots:
        assert memo == saved


def test_degree_ideal_levels_memo_does_not_depend_on_the_order_of_k():
    rng = random.Random(19)
    for spec in ("F2", "F3", "Q"):
        coeffs = _nonzero_coeffs(ring(spec, "X"))
        for n in range(8):
            R = ring(spec, *("X", "Y", "Z")[:2 + n % 2])
            algebras = [random_monomial_algebra(rng, R, coeffs)
                        for _ in range(2)]
            ks = [(i, k) for i in range(2) for k in range(1, 7)]
            rng.shuffle(ks)
            assert_levels_memo_in_any_order(algebras, ks)


def test_degree_ideal_levels_memo_grows_by_a_new_tuple():
    R = ring("F3", "X", "Y")
    G = algebra(R, ("X", 1), ("Y^2", 2), ("X*Y", 3))
    assert degree_ideal(G, 2).generators == tuple(
        map(R.parse, ("Y^2", "X*Y", "X^2")))
    kept, levels = memo = G._levels

    def keys(*monomials):   # the memo holds monomial keys
        return tuple(next(iter(R.parse(m)._raw)) for m in monomials)

    assert levels == (keys("1"), keys("X", "Y^2"), keys("Y^2", "X*Y", "X^2"))
    degree_ideal(G, 5)
    assert G._levels is not memo and G._levels[0] is kept
    assert G._levels[1][:3] == levels and len(G._levels[1]) == 6
    # a lower degree reads the memo and leaves it as it is
    extended = G._levels
    assert degree_ideal(G, 4).generators == scalar_oracle_degree_ideal(G, 4)
    assert G._levels is extended


def test_degree_ideal_carries_its_basis_only_on_all_monomial_input():
    R = ring("Q", "X", "Y")
    I = degree_ideal(algebra(R, ("2*X*Y", 1), ("3*Y^2", 2)), 3)
    assert I._basis is I.generators
    assert buchberger(I).basis == buchberger(Ideal(R, I.generators)).basis
    I = degree_ideal(algebra(R, ("X^2+Y^3", 2), ("Y", 1)), 2)
    assert getattr(I, "_basis", None) is None


def test_algebra_drops_repeated_generators_keeping_the_first():
    a, b, c = (ReesGenerator(QYZ.parse(t), w)
               for t, w in (("Z", 1), ("Y^2", 2), ("Z", 2)))
    assert ReesAlgebra(QYZ, [a, b, a, c]).generators == (a, b, c)
    assert ReesAlgebra(QYZ, iter([c, c, b])).generators == (c, b)
    foreign = ReesGenerator(F2YZ.parse("Z"), 1)
    for gens in ([a, foreign], [a, a, foreign], [foreign, a]):
        with pytest.raises(RingError, match="different ring"):
            ReesAlgebra(QYZ, gens)


def test_singular_zero_set_invariant_under_saturation():
    for spec in ("F2", "F3", "F5"):
        R = ring(spec, "Y", "Z")
        G = algebra(R, ("Z^2+Y^3", 2))
        assert rational_singular_points(G) == \
            rational_singular_points(diff_saturate(G))


def test_singular_zero_set_invariant_under_integral_powers():
    R = ring("F3", "Y", "Z")
    G = diff_saturate(algebra(R, ("Z^2+Y^3", 2)))
    g = G.generators[0]
    bigger = ReesAlgebra(R, G.generators
                         + (ReesGenerator(g.poly**2, 2 * g.weight),))
    assert rational_singular_points(G) == rational_singular_points(bigger)


def test_ord_invariant_under_saturation():
    for spec in ("F2", "F5"):
        R = ring(spec, "Y", "Z")
        G = algebra(R, ("Z^2+Y^3", 2))
        for pt in rational_singular_points(diff_saturate(G)):
            assert ord_at_point(G, pt) == ord_at_point(diff_saturate(G), pt)


def test_singularity_pointwise_matches_ideal_zero_set():
    R = ring("F3", "Y", "Z")
    G = diff_saturate(algebra(R, ("Z^2+Y^3", 2)))
    pts = rational_singular_points(G)
    import itertools
    for coords in itertools.product(R.field.elements(), repeat=2):
        P = R.point(coords)
        assert is_singular_at(G, P) == (P in pts)


def test_algebra_file_round_trip():
    text = "ring: F2[Y,Z]\ngen: Y^5+Z^2 w 2\ngen: Y^4 w 1\n"
    G = parse_algebra(text)
    assert format_algebra(G) == text
    assert parse_algebra(format_algebra(G)) == G


def test_parse_algebra_rejects_garbage():
    with pytest.raises(ReesError):
        parse_algebra("gen: Z w 1\n")  # no ring header
    with pytest.raises(ReesError):
        parse_algebra("ring: F2[Y,Z]\nnot a line\n")


def test_normalize_generators_scales_to_monic():
    G = algebra(QYZ, ("2*Z", 1), ("5*Y^4", 1))
    N = normalize_generators(G)
    assert set(N.generators) == {ReesGenerator(QYZ.var("Z"), 1),
                                 ReesGenerator(QYZ.parse("Y^4"), 1)}


@pytest.mark.parametrize("weight", [2.5, Fraction(7, 2), 2.0, "2", None])
def test_generator_refuses_a_weight_that_is_not_an_int(weight):
    # 2.5 and 7/2 were truncated to 2 and 3, and "2" raised a TypeError
    with pytest.raises(ReesError, match="is not an int"):
        ReesGenerator(QYZ.var("Z"), weight)
    with pytest.raises(ReesError, match="is not an int"):
        ReesAlgebra.from_pairs(QYZ, [(QYZ.var("Z"), weight)])


def test_generator_takes_a_bool_weight_as_an_int():
    g = ReesGenerator(QYZ.var("Z"), True)
    assert g == ReesGenerator(QYZ.var("Z"), 1) and type(g.weight) is int
    with pytest.raises(ReesError, match="weight must be >= 1"):
        ReesGenerator(QYZ.var("Z"), False)


def test_a_generator_is_its_pair():
    f = QYZ.parse("Z^2+Y^5")
    g = ReesGenerator(f, 2)
    assert g == (f, 2) and (f, 2) == g and hash(g) == hash((f, 2))
    poly, weight = g
    assert poly is f and weight == 2 and (g.poly, g.weight) == (f, 2)
    assert g != (f, 1) and g != ReesGenerator(f, 1)
    assert {g: "g"}[(f, 2)] == "g"
    assert (f, 2) in ReesAlgebra(QYZ, [g]).generators
    assert repr(g) == "ReesGenerator(Y^5+Z^2, w=2)"


def test_trusted_generator_is_the_checked_one_and_the_checks_stay():
    f = QYZ.parse("Z^2+Y^5")
    g = ReesGenerator._trusted(f, 2)
    assert type(g) is ReesGenerator and g == ReesGenerator(f, 2)
    assert hash(g) == hash(ReesGenerator(f, 2))
    for weight, message in [(0, "generator weight must be >= 1"),
                            (2.5, "generator weight 2.5 is not an int")]:
        with pytest.raises(ReesError) as refusal:
            ReesGenerator(f, weight)
        assert str(refusal.value) == message
    with pytest.raises(ReesError) as refusal:
        ReesGenerator(QYZ.zero(), 1)
    assert str(refusal.value) == "generator polynomial must be nonzero"


def test_generator_refuses_an_all_zero_term_map():
    R = ring("F3", "Y", "Z")
    zero = Polynomial(R, {(1, 0): R.coeff(3), (0, 1): R.coeff(0)})
    with pytest.raises(ReesError, match="nonzero"):
        ReesGenerator(zero, 1)


def test_transform_of_a_generator_built_with_a_zero_term():
    R = ring("F2", "Y", "Z")
    F2 = R.field
    g = Polynomial(R, {(0, 2): F2.one(), (5, 0): F2.one(), (1, 3): F2.element(2)})
    G = ReesAlgebra(R, [ReesGenerator(g, 2)])
    G1, _ = weighted_transform(G, ["Y", "Z"], "Y")
    (g1,) = G1.generators
    assert g1.poly.terms == {(0, 2): F2.one(), (3, 0): F2.one()}
    assert str(g1.poly) == "Y^3+Z^2"


def test_saturation_lists_a_repeated_derivative_once():
    R = ring("Q", "X", "Y")
    G = diff_saturate(algebra(R, ("X+Y", 2)))
    # Delta_X and Delta_Y of X+Y are both 1: one generator 1 W
    assert [(str(g.poly), g.weight) for g in G.generators] == [
        ("X+Y", 1), ("X+Y", 2), ("1", 1)]


def test_saturation_builds_one_closure_list_per_polynomial(monkeypatch):
    """One table of derivative rows per distinct polynomial, at its
    heaviest listed weight, in first-listed order: the closure list of every
    lighter copy is read from it."""
    R = ring("Q", "X", "Y")
    f = "X^2*Y+Y^3"
    # lighter copies of f before and after its heaviest, between others
    G = algebra(R, (f, 1), ("X+Y", 2), (f, 3), ("X*Y", 1), (f, 2))
    oracle = ReesAlgebra.from_pairs(R, [
        p for g in G.generators
        for p in reeselim.diff_closure_list(g.poly, g.weight)])
    calls = []
    original = reeselim.rees._derivative_rows

    def counted(poly, weight, *args):
        calls.append((str(poly), weight))
        return original(poly, weight, *args)

    monkeypatch.setattr(reeselim.rees, "_derivative_rows", counted)
    S = diff_saturate(G)
    assert calls == [(f, 3), ("X+Y", 2), ("X*Y", 1)]
    assert S.generators == oracle.generators
    # Delta_X and Delta_Y of X+Y are both 1: listed once
    assert [(str(g.poly), g.weight) for g in S.generators].count(("1", 1)) \
        == 1


def _saturation_inputs(R):
    """Algebras for the saturation oracle: one-term and multi-term
    generators, one-term generators that are also derivatives of another,
    a polynomial listed at several weights with a lighter copy first, and
    scalar multiples."""
    f = R.parse("X^3*Y^2+X*Z^2+Y")
    m = R.parse("X^2*Y")
    c = R.field.generator() if R.field.k > 1 else R.field.element(2)
    return [
        [(f, 3)],
        [(m, 3)],
        # Delta_Y(X^2*Y) = X^2 and Delta_(1,1,0)(X^2*Y) = 2X are listed too
        [(m, 3), (R.parse("X^2"), 1), (R.parse("2*X"), 1), (R.parse("X"), 2)],
        [(f, 1), (m, 2), (f, 3), (R.parse("X*Y"), 1), (f, 2), (m, 1)],
        [(f, 2), (f.scale(c), 3), (m.scale(c), 2), (m, 1), (f, 2)],
        # every first derivative of X+Y+Z is the listed 1
        [(R.parse("X+Y+Z"), 2), (R.one(), 1)],
    ]


@pytest.mark.parametrize("spec", ["Q", "F2", "F3", "F5", "F4", "F9"])
def test_saturation_equals_the_closure_lists_of_its_generators(spec):
    """diff_saturate(G, active) is ReesAlgebra.from_pairs over the
    diff_closure_list pairs of each generator in order, which drops repeats
    by Polynomial hashing; also when the output is saturated again."""
    R = ring(spec, "X", "Y", "Z")
    for pairs in _saturation_inputs(R):
        for active in (None, ["X", "Y", "Z"], ["Y"], ["X", "Z"]):
            S = ReesAlgebra.from_pairs(R, pairs)
            for _ in range(2):
                oracle = ReesAlgebra.from_pairs(R, [
                    p for g in S.generators
                    for p in reeselim.diff_closure_list(g.poly, g.weight,
                                                        active)])
                S = diff_saturate(S, active)
                assert S.generators == oracle.generators, (pairs, active)
