"""Hasse derivatives: Taylor-shift coefficients in every characteristic."""
import io
import itertools
import math
import random
import re
import signal
from fractions import Fraction

import pytest

from reeselim import (FieldDescriptor, FieldElement, ReesAlgebra, RingContext,
                      RingError, diff_closure_list, diff_saturate,
                      hasse_derivative)
from reeselim.cli import main
from reeselim.hasse import _shifts, hasse_derivatives
from reeselim.poly import formal_derivative


def ring(spec, *names):
    return RingContext(FieldDescriptor.parse(spec), names)


QYZ = ring("Q", "Y", "Z")


def test_partial_derivatives_of_plane_curve_generator():
    f = QYZ.parse("Z^2+Y^5")
    assert hasse_derivative(f, {"Z": 1}) == QYZ.parse("2*Z")
    assert hasse_derivative(f, {"Y": 1}) == QYZ.parse("5*Y^4")


def test_divided_power_normalization():
    R = ring("Q", "Z")
    for n in range(1, 6):
        zn = R.var("Z")**n
        assert hasse_derivative(zn, {"Z": n}) == R.one()
        assert hasse_derivative(zn, {"Z": n + 1}).is_zero()


def test_mixed_derivative_char_two_binomials():
    R = ring("F2", "X", "Y")
    f = R.parse("X^4+X^2*Y^5")
    # C(4,2) = 6 kills the X^4 term; C(2,2)*C(5,1) = 5 = 1
    assert hasse_derivative(f, {"X": 2, "Y": 1}) == R.parse("Y^4")


def test_closure_list_char_zero_contains_all_shifts():
    f = QYZ.parse("Z^2+Y^5")
    got = set((p, w) for p, w in diff_closure_list(f, 2))
    assert got == {(f, 2), (f, 1),
                   (QYZ.parse("2*Z"), 1), (QYZ.parse("5*Y^4"), 1)}


def test_closure_list_weight_one_is_identity():
    f = QYZ.parse("Y^3+Z")
    assert diff_closure_list(f, 1) == [(f, 1)]


def test_closure_list_relative_char_two():
    R = ring("F2", "Y", "Z")
    f = R.parse("Z^2+Y^5")
    got = set(diff_closure_list(f, 2, active=["Z"]))
    assert got == {(f, 2), (f, 1)}  # the Z-derivative 2Z vanishes


def _rand_poly(R, rng, terms=4, deg=4):
    out = R.zero()
    for _ in range(rng.randrange(1, terms + 1)):
        exps = tuple(rng.randrange(deg) for _ in R.variables)
        c = rng.randrange(1, 5) if R.field.p == 0 else \
            rng.choice([e for e in R.field.elements() if not e.is_zero()])
        out = out + R.monomial(exps, c)
    return out


def test_taylor_identity_reassembles_the_shift():
    rng = random.Random(17)
    for spec in ("Q", "F2", "F5"):
        R = ring(spec, "Y", "Z")
        E = ring(spec, "Y", "Z", "T")
        T = E.var("T")
        for _ in range(10):
            f = _rand_poly(R, rng)
            if f.is_zero():
                continue
            shifted = f.lift(E).substitute({"Z": E.var("Z") + T})
            total = E.zero()
            for a in range(f.degree_in("Z") + 1):
                total = total + hasse_derivative(f, {"Z": a}).lift(E) * T**a
            assert total == shifted


def test_leibniz_rule():
    rng = random.Random(23)
    for spec in ("Q", "F2", "F3"):
        R = ring(spec, "X", "Y")
        for _ in range(15):
            f, g = _rand_poly(R, rng), _rand_poly(R, rng)
            alpha = (rng.randrange(3), rng.randrange(3))
            lhs = hasse_derivative(f * g, alpha)
            rhs = R.zero()
            for b0 in range(alpha[0] + 1):
                for b1 in range(alpha[1] + 1):
                    rhs = rhs + hasse_derivative(f, (b0, b1)) * \
                        hasse_derivative(g, (alpha[0] - b0, alpha[1] - b1))
            assert lhs == rhs


def test_composition_in_one_variable():
    rng = random.Random(29)
    for spec in ("Q", "F2", "F5"):
        R = ring(spec, "Z")
        binom = lambda a, b: R.field.element(math.comb(a + b, a))
        for _ in range(10):
            f = _rand_poly(R, rng, deg=7)
            for a in range(3):
                for b in range(3):
                    lhs = hasse_derivative(hasse_derivative(f, (b,)), (a,))
                    rhs = hasse_derivative(f, (a + b,)).scale(binom(a, b))
                    assert lhs == rhs


def simplex_oracle_derivatives(f, n, active):
    """hasse_derivatives by brute force: every alpha in the simplex
    |alpha| < n over the active variables, by (|alpha|, alpha)."""
    idx = [f.ring.var_index(v) for v in active]
    alphas = []
    for combo in itertools.product(range(n), repeat=len(idx)):
        alpha = [0] * f.ring.nvars
        for i, e in zip(idx, combo):
            alpha[i] = e
        if sum(alpha) < n:
            alphas.append(tuple(alpha))
    out = {}
    for alpha in sorted(alphas, key=lambda a: (sum(a), a)):
        df = hasse_derivative(f, alpha)
        if not df.is_zero():
            out[alpha] = df
    return out


def test_support_enumeration_matches_the_simplex_oracle():
    rng = random.Random(37)
    # one-term f take their own path; drawn apart, so rng's cases stay
    monomial_rng = random.Random(41)
    for spec in ("Q", "F2", "F3", "F4", "F9", "F8:t^3+t^2+1"):
        for names in (("X",), ("X", "Y"), ("X", "Y", "Z")):
            R = ring(spec, *names)
            for _ in range(8):
                f = _rand_poly(R, rng, deg=6)
                n = rng.randrange(1, 7)
                active = sorted(rng.sample(names, rng.randrange(1, len(names)
                                                                + 1)))
                for f in (f, _rand_poly(R, monomial_rng, terms=1, deg=6)):
                    got = hasse_derivatives(f, n, active)
                    want = simplex_oracle_derivatives(f, n, active)
                    # same derivatives in the same order
                    assert list(got.items()) == list(want.items())
                    if active == list(names):
                        assert list(hasse_derivatives(f, n).items()) == \
                            list(want.items())


def test_shift_table_matches_the_simplex_oracle_cold_and_warm():
    # one beta under two n and two active sets: a table keyed without n or
    # without the active set would hand one of them another's multi-indices
    for spec in ("Q", "F3"):
        R = ring(spec, "X", "Y", "Z")
        beta = R.parse("X^3*Y^2*Z")
        cases = [(n, active) for n in (2, 4)
                 for active in (["X", "Y", "Z"], ["Y"])]
        for f in (beta.scale(R.field.element(2)), beta + R.parse("X*Z^2+Y")):
            _shifts.cache_clear()
            for warm in (False, True):
                for n, active in cases:
                    want = simplex_oracle_derivatives(f, n, active)
                    assert list(hasse_derivatives(f, n, active).items()) == \
                        list(want.items()), (warm, n, active)
            assert _shifts.cache_info().hits > 0


def test_shift_tables_are_kept_per_characteristic_in_either_order():
    # X^3*Y^2 w 3 has the same beta over every field, but each
    # characteristic lists only the binomials it keeps: the binomials 3 of
    # Delta_(1,0) and Delta_(2,0) vanish over F3, 2 of Delta_(0,1) over
    # F2, and 6 of Delta_(1,1) over both.  A table keyed without the
    # characteristic would hand Q's rows to F3, or F3's to Q
    def saturate(spec):
        R = ring(spec, "X", "Y")
        return diff_saturate(ReesAlgebra.from_pairs(
            R, [(R.parse("X^3*Y^2"), 3)])).generators

    alone = {}
    for spec in ("Q", "F3", "F2"):
        _shifts.cache_clear()
        alone[spec] = saturate(spec)
    assert {spec: len(gens) for spec, gens in alone.items()} == \
        {"Q": 10, "F3": 6, "F2": 7}
    for order in (("Q", "F3", "Q"), ("F2", "F3", "Q", "F2")):
        _shifts.cache_clear()
        for spec in order:
            assert saturate(spec) == alone[spec], (order, spec)
    # F9 is of characteristic 3: it reads F3's tables and builds none
    _shifts.cache_clear()
    saturate("F3")
    misses = _shifts.cache_info().misses
    assert len(saturate("F9")) == 6
    assert _shifts.cache_info().misses == misses


def test_a_full_active_set_shares_the_shift_tables():
    # every variable listed is no active set at all: both key _shifts the
    # same way, so the second saturation finds every table the first built
    R = ring("Q", "X", "Y", "Z")
    G = ReesAlgebra.from_pairs(R, [(R.parse("X^3*Y^2*Z+Y^4"), 4)])
    _shifts.cache_clear()
    whole = diff_saturate(G)
    misses = _shifts.cache_info().misses
    assert misses == 2
    listed = diff_saturate(G, ["X", "Y", "Z"])
    assert _shifts.cache_info().misses == misses
    assert listed.generators == whole.generators


def test_closure_list_at_a_lower_weight_is_a_prefix():
    """For every n' < n, the list at n' is the part of the list at n before
    its first pair of weight n' + 1: saturation cuts lighter copies of a
    polynomial from the list at its heaviest weight."""
    rng = random.Random(43)
    for spec in ("Q", "F2", "F3", "F4"):
        for names in (("X",), ("X", "Y"), ("X", "Y", "Z")):
            R = ring(spec, *names)
            for trial in range(8):
                f = _rand_poly(R, rng, terms=1 if trial % 2 else 4, deg=5)
                if f.is_zero():
                    continue
                n = rng.randrange(2, 7)
                for active in (None, [rng.choice(names)]):
                    full = diff_closure_list(f, n, active)
                    weights = [w for _, w in full]
                    for lower in range(1, n):
                        cut = weights.index(lower + 1)
                        assert full[cut] == (f, lower + 1)
                        assert diff_closure_list(f, lower, active) == \
                            full[:cut]


@pytest.mark.parametrize("weight", [2.5, Fraction(7, 2), 2.0, "2", None])
def test_closure_list_refuses_a_weight_that_is_not_an_int(weight):
    # 2.5 and 2.0 raised a bare TypeError from range
    f = QYZ.parse("Z^2+Y^5")
    with pytest.raises(RingError, match="weight %s is not an int"
                       % re.escape(repr(weight))):
        diff_closure_list(f, weight)


@pytest.mark.parametrize("alpha,entry", [
    ((1.5, 0), 1.5), ((Fraction(1), 0), Fraction(1)), ((None, 0), None),
    ({"Y": 1.5}, 1.5), ({"Z": "1"}, "1")])
def test_multi_index_refuses_an_entry_that_is_not_an_int(alpha, entry):
    # (1.5, 0) raised a bare TypeError from math.comb
    with pytest.raises(RingError, match="^multi-index entry %s is not an int$"
                       % re.escape(repr(entry))):
        hasse_derivative(QYZ.parse("Y*Y"), alpha)


def test_a_multi_index_of_total_degree_2_31_reaches_no_term():
    R = ring("Q", "x", "y")
    assert hasse_derivative(R.parse("x^2+y"), (2**31, 0)).is_zero()


@pytest.mark.parametrize("spec", ["Q", "F3", "F4", "F5"])
def test_hasse_derivative_and_closure_list_build_no_field_element_product(
        monkeypatch, spec):
    # Delta^(1,1)(x^3*y + 2*x^2*y^2 + x) = 3*x^2 + 8*x*y: each binomial is
    # reduced into the field on raw values
    R = ring(spec, "x", "y")
    f, expected = R.parse("x^3*y+2*x^2*y^2+x"), R.parse("3*x^2+8*x*y")
    closure = diff_closure_list(f, 3)

    def refused(self, other):
        raise AssertionError("FieldElement product")

    monkeypatch.setattr(FieldElement, "__mul__", refused)
    monkeypatch.setattr(FieldElement, "__rmul__", refused)
    assert hasse_derivative(f, (1, 1)) == expected
    assert diff_closure_list(f, 3) == closure


def test_multi_index_takes_a_bool_entry_as_an_int():
    f = QYZ.parse("Y^2*Z+Y")
    assert hasse_derivative(f, (True, False)) == hasse_derivative(f, (1, 0))
    assert hasse_derivative(f, {"Z": True}) == QYZ.parse("Y^2")


def test_closure_list_takes_a_bool_weight_as_an_int():
    f = QYZ.parse("Z^2+Y^5")
    assert diff_closure_list(f, True) == [(f, 1)]
    assert type(diff_closure_list(f, True)[0][1]) is int
    with pytest.raises(RingError, match="weight must be >= 1"):
        diff_closure_list(f, False)


def test_a_derivative_every_binomial_of_which_p_divides_is_left_out():
    # Delta_X(X^2) = 2X and Delta_X(X^2*Y) = 2XY vanish over F2
    R = ring("F2", "X", "Y")
    f = R.parse("X^2+X^2*Y")
    assert hasse_derivative(f, (1, 0)).is_zero()
    assert hasse_derivatives(f, 2) == {(0, 0): f, (0, 1): R.parse("X^2")}
    assert list(hasse_derivatives(f, 2)) == [(0, 0), (0, 1)]


def test_a_derivative_in_characteristic_p_reads_base_p_digits():
    # C(2^21, 2^20) is even: over F2 each binomial is a product of digit
    # binomials, so no integer of 600,000 digits is built for the answer 0
    R = ring("F2", "x")
    f = R.var("x")**2097152

    def timeout(signum, frame):
        raise AssertionError("hasse_derivative did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(1)
    try:
        assert hasse_derivative(f, (1048576,)).is_zero()
        assert hasse_derivative(f, (2097152,)) == R.one()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_saturation_of_sparse_high_weight_input_follows_the_support(
        tmp_path):
    # the simplex over six variables at weight 30 has 30^6 multi-indices;
    # the support of a^40+b^40+c^40 lies below only 88 of them.  Over F2,
    # Delta^alpha(x^256*y^256) is nonzero only for alpha_i in {0, 256}, of
    # the 66,048 alpha of the box below it: below weight 512, f and its
    # two derivatives of order 256, at each weight, 512 + 256 + 256
    path = tmp_path / "sparse.alg"
    for text, last in [
            ("ring: F2[a,b,c,d,e,f]\ngen: a^40+b^40+c^40 w 30\n",
             "#! generators: 96 max-weight: 30"),
            ("ring: F2[x,y]\ngen: x^256*y^256 w 512\n",
             "#! generators: 1024 max-weight: 512")]:
        path.write_text(text)
        out = io.StringIO()
        assert main(["saturate", str(path)], out=out) == 0
        assert out.getvalue().splitlines()[-1] == last


def test_char_zero_matches_scaled_partial_derivatives():
    rng = random.Random(31)
    R = ring("Q", "X", "Y")
    for _ in range(10):
        f = _rand_poly(R, rng)
        for a0 in range(3):
            for a1 in range(3):
                part = f
                for _ in range(a0):
                    part = formal_derivative(part, "X")
                for _ in range(a1):
                    part = formal_derivative(part, "Y")
                fact = math.factorial(a0) * math.factorial(a1)
                assert hasse_derivative(f, (a0, a1)).scale(fact) == part
