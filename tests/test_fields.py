"""Exact field arithmetic: Q, prime fields, and small extensions."""
import itertools
import random
import re
import sys
import threading
import time
from fractions import Fraction

import pytest

from reeselim import (FieldDescriptor, FieldElement, FieldError, RingContext,
                      RingError)
from reeselim.fields import _is_prime, _polymod, _prime_factors

Q = FieldDescriptor.parse("Q")
F2 = FieldDescriptor.parse("F2")
F4 = FieldDescriptor.parse("F4")
F5 = FieldDescriptor.parse("F5")
F9 = FieldDescriptor.parse("F9")


def test_rational_addition_exact():
    a = Q.element(Fraction(2, 3))
    b = Q.element(Fraction(1, 6))
    assert a + b == Q.element(Fraction(5, 6))


def test_integral_rational_is_held_as_int():
    two = Q.element(Fraction(4, 2))
    assert type(two.val) is int and two.val == 2
    half = Q.element(Fraction(1, 2))
    assert type((half + half).val) is int and half + half == Q.one()
    assert type((two * half).val) is int and two * half == Q.one()
    assert type((half - half).val) is int and (half - half).is_zero()


def test_inverse_of_an_integral_rational_is_an_exact_fraction():
    three = Q.element(3)
    inv = three.inverse()
    assert type(inv.val) is Fraction and inv.val == Fraction(1, 3)
    assert type(inv.inverse().val) is int and inv.inverse().val == 3
    assert Q.element(-4).inverse().val == Fraction(-1, 4)
    assert type((Q.one() / Fraction(1, 5)).val) is int


def test_int_and_fraction_values_agree():
    a, b = Q.element(3), Q.element(Fraction(3))
    # a value built without element keeps its Fraction type
    raw = FieldElement(Q, Fraction(3))
    for x, y in [(a, b), (a, raw)]:
        assert x == y and hash(x) == hash(y) and str(x) == str(y) == "3"


def test_prime_field_multiplication():
    assert F5.element(3) * F5.element(4) == F5.element(2)


def test_extension_field_inverse_matches_brute_force():
    t = F4.generator()
    # oracle: the unique element whose product with t is 1
    (inv,) = [x for x in F4.elements() if x * t == F4.one()]
    assert F4.one() / t == inv
    assert inv == t + 1


@pytest.mark.parametrize("spec", ["F4", "F8", "F16", "F9", "F27", "F25",
                                  "F49", "F25:t^2+t+2"])
def test_extension_field_inverse_matches_power_formula(spec):
    F = FieldDescriptor.parse(spec)
    for x in F.elements()[1:]:
        assert x.inverse() == x**(F.order - 2)
        assert x * x.inverse() == F.one()


def test_pth_root_prime_field_is_identity():
    assert F5.element(3).pth_root() == F5.element(3)
    assert F5.zero().pth_root() == F5.zero()


def test_pth_root_in_f4_matches_square_table():
    t = F4.generator()
    # oracle: enumerate squares of all four elements
    (root,) = [x for x in F4.elements() if x * x == t]
    assert t.pth_root() == root
    assert root == t + 1


def test_element_enumeration_orders():
    assert [e.val for e in FieldDescriptor.parse("F3").elements()] == [0, 1, 2]
    t = F4.generator()
    assert F4.elements() == [F4.zero(), F4.one(), t, t + 1]
    f25 = FieldDescriptor(5, 2)
    elems = f25.elements()
    assert len(elems) == 25 and len(set(elems)) == 25


@pytest.mark.parametrize("spec", ["F2", "F5", "F4", "F8:t^3+t^2+1", "F9"])
def test_elements_wrap_the_table_values(spec):
    field = FieldDescriptor.parse(spec)
    values, index = field._scan_table()
    elems = field.elements()
    assert [c.val for c in elems] == list(values)
    assert all(index[v] == i for i, v in enumerate(values))
    # a new list each call: changing one leaves the next call intact
    elems.reverse()
    elems.append(field.one())
    assert [c.val for c in field.elements()] == list(values)
    assert field.elements() is not field.elements()


def test_a_wider_table_leaves_a_narrower_one_unchanged():
    # a modulus that only this test and the log-table oracle use: the log
    # table, built on top of the value table, leaves the value table as it
    # was, and each table is built once and kept whole
    field = FieldDescriptor.parse("F27:t^3+2*t+2")
    small = field._scan_table()
    values, index = small
    before = (values, dict(index))
    wide = field._log_table()
    assert field._log_table() is wide   # built once: nothing is rebuilt
    assert field._scan_table() is small
    assert (small[0], small[1]) == before
    exp, log, zech, minus = wide
    assert type(exp) is tuple and type(zech) is tuple
    assert len(exp) == len(log) == len(zech) == 26
    g = FieldElement(field, exp[1])
    assert exp == tuple((g**e).val for e in range(26))


def _check_log_table(field):
    """Whether the field's log table holds, by field arithmetic alone: exp
    is a bijection onto the nonzero values with log its inverse, its base
    has order q - 1 and is the first such value in elements() order,
    zech[d] is log(1 + g^d) (None exactly where g^d = -1), and minus is
    log(-1)."""
    exp, log, zech, minus = field._log_table()
    one, q = field.one(), field.order
    nonzero = [c for c in field.elements() if c]
    g = FieldElement(field, exp[1 % (q - 1)])
    assert set(exp) == {c.val for c in nonzero} and len(exp) == q - 1
    assert log == {v: d for d, v in enumerate(exp)}
    assert all(FieldElement(field, v) == g**d for d, v in enumerate(exp))

    def order(c):
        return next(n for n in range(1, q) if c**n == one)

    assert g == next(c for c in nonzero if order(c) == q - 1)
    assert len(zech) == q - 1
    for d, z in enumerate(zech):
        s = one + g**d
        assert (z is None) == (not s)
        assert z is None or g**z == s
    assert g**minus == -one
    if field.p == 2:
        assert minus == 0


@pytest.mark.parametrize("spec", ["F2", "F3", "F4", "F5", "F7", "F8",
                                  "F8:t^3+t^2+1", "F9", "F16", "F25",
                                  "F27:t^3+2*t+2", "F101"])
def test_log_table_matches_field_arithmetic(spec):
    _check_log_table(FieldDescriptor.parse(spec))


@pytest.mark.parametrize("field", [Q, F4, F5, F9])
def test_field_laws_randomized(field):
    rng = random.Random(11)

    def pick():
        if field.p == 0:
            return field.element(Fraction(rng.randrange(-9, 10),
                                          rng.randrange(1, 10)))
        return rng.choice(field.elements())

    for _ in range(60):
        a, b, c = pick(), pick(), pick()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        if not a.is_zero():
            assert a * a.inverse() == field.one()


@pytest.mark.parametrize("field", [F2, F4, F5, F9])
def test_pth_root_is_frobenius_inverse_automorphism(field):
    for a in field.elements():
        assert a.pth_root()**field.p == a
        for b in field.elements():
            assert (a * b).pth_root() == a.pth_root() * b.pth_root()


def test_enumeration_closed_under_arithmetic():
    elems = set(F9.elements())
    sample = list(elems)[:5]
    for a in sample:
        for b in sample:
            assert a + b in elems and a * b in elems


def test_spec_string_round_trip():
    for spec in ("Q", "F5", "F4:t^2+t+1", "F9"):
        d = FieldDescriptor.parse(spec)
        assert FieldDescriptor.parse(d.spec()) == d


def test_descriptor_mismatch_and_zero_division():
    with pytest.raises(FieldError):
        F5.element(1) + FieldDescriptor.parse("F3").element(1)
    with pytest.raises(ZeroDivisionError):
        F5.one() / F5.zero()


def test_descriptors_are_canonical():
    assert FieldDescriptor.parse("F16") is FieldDescriptor(2, 4)
    assert FieldDescriptor(2, 2) is FieldDescriptor(2, 2, (1, 1, 1)) is F4
    # the modulus is normalized before the lookup
    assert FieldDescriptor(3, 2, (4, -3, 1)) is F9
    other = FieldDescriptor.parse("F9:t^2+t+2")
    assert other is FieldDescriptor(3, 2, (2, 1, 1))
    assert other is not F9 and other != F9
    with pytest.raises(FieldError, match="field descriptor mismatch"):
        F9.one() + other.one()
    with pytest.raises(FieldError, match="different field"):
        other.element(F9.one())
    # invalid input is never stored
    for _ in range(2):
        with pytest.raises(FieldError, match="reducible"):
            FieldDescriptor(2, 2, (1, 0, 1))


def test_threads_building_one_field_get_one_instance():
    # F_{p^2} with modulus t^2 - n, n the least non-residue mod p; no other
    # test builds these fields, so every thread races to create them
    moduli = []
    for p in (211, 223, 227, 229, 233, 239, 241, 251):
        n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        moduli.append((p, (-n, 0, 1)))
    barrier = threading.Barrier(8, timeout=10)
    built = [None] * 8

    def build(i):
        barrier.wait()
        built[i] = [FieldDescriptor(p, 2, m) for p, m in moduli]

    threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert None not in built
    for fields in zip(*built):
        assert len({id(f) for f in fields}) == 1


def test_threads_that_widen_one_table_each_read_a_correct_one():
    # prime fields no other test uses, so every thread races to build
    # their value and log tables; a table is published whole, so whatever
    # a call returns is complete and correct
    fields = [FieldDescriptor(p) for p in (61, 67, 71, 73)]
    barrier = threading.Barrier(8, timeout=10)
    tables, done = [[] for _ in range(8)], [False] * 8

    def build(i):
        barrier.wait()
        for field in random.Random(i).sample(fields, len(fields)):
            tables[i].append((field, field._log_table()))
        done[i] = True

    threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(done)
    for field in fields:
        _check_log_table(field)   # the table the field kept
    wrong = []
    for read in tables:
        for field, (exp, log, zech, minus) in read:
            p, g = field.p, exp[1]
            if (exp != tuple(pow(g, d, p) for d in range(p - 1))
                    or len(log) != p - 1
                    or log != {v: d for d, v in enumerate(exp)}
                    or zech != tuple(log.get((1 + v) % p) for v in exp)
                    or minus != (p - 1) // 2):
                wrong.append(p)
    assert wrong == []


def test_characteristic_zero_restrictions():
    with pytest.raises(FieldError):
        Q.one().pth_root()
    with pytest.raises(FieldError):
        Q.elements()
    with pytest.raises(FieldError):
        _ = Q.order


def test_fractions_map_to_inverses_in_positive_characteristic():
    F3 = FieldDescriptor.parse("F3")
    assert F3.element(Fraction(1, 2)) == F3.element(2)
    assert F5.element(Fraction(-3, 4)) == F5.element(-3) / F5.element(4)
    assert F9.element(Fraction(1, 2)) == F9.element(2)
    assert F4.element(Fraction(1, 3)) == F4.one()
    assert F4.generator() * Fraction(1, 3) == F4.generator()
    for field in (F2, F4):
        with pytest.raises(FieldError):
            field.element(Fraction(1, 2))
    with pytest.raises(FieldError):
        F5.element(Fraction(3, 10))


def test_a_value_with_no_image_in_the_field_is_unequal():
    # 1/5 has no image in F5: == answers False and != True, so list.count
    # answers too, as F5.one() == Q.one() does
    one = FieldElement(F5, 1)
    assert not one == Fraction(1, 5) and one != Fraction(1, 5)
    assert [one, F5.zero()].count(Fraction(1, 5)) == 0
    assert not F5.one() == Q.one() and F5.one() != Q.one()
    # a value with an image still compares by it
    assert one == Fraction(6, 1) and one == 11 and one != 2


def test_inexact_and_untyped_values_are_refused():
    # a float would be rounded and a string parsed: neither is coerced
    for field, value in ((Q, 0.1), (F5, 0.5), (Q, "3/4"), (F9, "1"),
                         (F5, None)):
        with pytest.raises(FieldError, match="cannot coerce"):
            field.element(value)
    # coefficient tuples name extension-field elements only
    for field, value in ((F5, (3,)), (F5, [3, 0]), (Q, (1,))):
        with pytest.raises(FieldError, match="extension field"):
            field.element(value)
    assert F9.element([1, 2]) == F9.element((1, 2)) == F9.element((10, 5, 0))
    assert Q.element(True) == Q.one() and type(Q.element(True).val) is int
    assert F4.element((True, False)) == F4.one()


@pytest.mark.parametrize("value", [
    pytest.param((0.5, 1), id="float-coefficient"),
    pytest.param((1.0, 0), id="integral-float"),
    pytest.param(("1", 0), id="string-coefficient"),
    pytest.param((Fraction(1, 2), 1), id="fraction-coefficient"),
])
def test_coefficient_tuples_hold_ints_only(value):
    with pytest.raises(FieldError, match="coefficients must be ints"):
        F4.element(value)
    with pytest.raises(FieldError, match="coefficients must be ints"):
        F4.element(list(value))


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        FieldDescriptor.parse("F4:t^2+1")  # (t+1)^2 over F_2


def _remainder(num, den, p):
    """num mod the monic den over F_p, coefficients low to high."""
    num = [c % p for c in num]
    for top in range(len(num) - 1, len(den) - 2, -1):
        c = num[top]
        for i, d in enumerate(den):
            num[top - len(den) + 1 + i] = (num[top - len(den) + 1 + i]
                                           - c * d) % p
    return num[:len(den) - 1]


def irreducible_by_trial_division(modulus, p, k):
    """Oracle: no monic polynomial of degree 1..k//2 divides the modulus."""
    return all(any(_remainder(modulus, low + (1,), p))
               for deg in range(1, k // 2 + 1)
               for low in itertools.product(range(p), repeat=deg))


def test_irreducibility_test_matches_trial_division():
    count = 0
    for p, degrees in [(2, (2, 3, 4)), (3, (2, 3, 4)), (5, (2, 3, 4)),
                       (7, (2, 3)), (11, (2,))]:
        for k in degrees:
            for low in itertools.product(range(p), repeat=k):
                modulus = low + (1,)
                count += 1
                if irreducible_by_trial_division(modulus, p, k):
                    assert FieldDescriptor(p, k, modulus).modulus == modulus
                else:
                    with pytest.raises(FieldError, match="modulus is "
                                       "reducible over F_%d$" % p):
                        FieldDescriptor(p, k, modulus)
    assert count == 1433


def test_irreducibility_test_is_fast_for_large_p():
    q = (2**31 - 1)**2
    start = time.perf_counter()
    F = FieldDescriptor.parse("F%d:t^2+1" % q)
    assert time.perf_counter() - start < 0.5
    assert (F.p, F.k, F.modulus) == (2**31 - 1, 2, (1, 0, 1))
    with pytest.raises(FieldError, match="reducible over F_2147483647"):
        FieldDescriptor.parse("F%d:t^2-4" % q)
    # (t^2+1)(t^2+t+2) over F_3: reducible without a root
    with pytest.raises(FieldError, match="reducible over F_3"):
        FieldDescriptor.parse("F81:t^4+t^3+t+2")


# p = 2^31 - 1, the largest characteristic, with moduli whose reductions
# t^k = -(lower terms) have coefficients near p - 1
FOLD_FIELDS = ["F4", "F8", "F9", "F16", "F25",
               "F%d:t^2+1" % (2**31 - 1)**2,
               "F%d:t^3+t+4" % (2**31 - 1)**3,
               "F%d:t^4+t+10" % (2**31 - 1)**4]


@pytest.mark.parametrize("spec", FOLD_FIELDS)
def test_packed_fold_at_the_digit_bound(spec):
    """reduce on packed values of 2k - 1 digits against the tuple _polymod
    of those digits.  A sum of 2^64 products of canonical values puts at
    most 2^64 * k * (p-1)^2 in a digit; the digit width rounds that up to
    2^(64 + 2*bitlen(p-1) + bitlen(k)), and every digit below it must fold
    without carrying into the next."""
    F = FieldDescriptor.parse(spec)
    p, k = F.p, F.k
    exact = 2**64 * k * (p - 1)**2
    ceiling = 2**(64 + 2 * (p - 1).bit_length() + k.bit_length()) - 1
    assert exact <= ceiling
    rng = random.Random(spec)
    cases = [[exact] * (2 * k - 1), [ceiling] * (2 * k - 1)]
    cases += [[rng.choice((0, p - 1, exact, ceiling, rng.randrange(ceiling)))
               for _ in range(2 * k - 1)] for _ in range(60)]
    for digits in cases:
        assert F._unpack(F.reduce(F._pack(digits))) == \
            _polymod(digits, F.modulus, p), digits


def test_spec_parsing_factors_large_orders_quickly():
    start = time.perf_counter()
    assert FieldDescriptor.parse("F1000003") == FieldDescriptor(1000003)
    assert time.perf_counter() - start < 0.5
    assert FieldDescriptor.parse("F2147483647").p == 2**31 - 1
    assert FieldDescriptor.parse("F16") == FieldDescriptor(2, 4)
    start = time.perf_counter()
    with pytest.raises(FieldError, match="prime < 2"):
        FieldDescriptor.parse("F100000000000000000000000000319")   # prime
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("spec, message", [
    ("F6", "6 is not a prime power"),
    ("F0", "0 is not a prime power"),
    ("F1", "1 is not a prime power"),
    ("F36", "36 is not a prime power"),
    ("F64", "extension degree must be in 1..4"),
    ("F81", "no built-in modulus for F_3"),
])
def test_spec_parsing_messages(spec, message):
    with pytest.raises(FieldError, match=message):
        FieldDescriptor.parse(spec)


def test_value_types_refuse_assignment():
    from reeselim import (GroebnerBasis, Ideal, MonicInput, ReesAlgebra,
                          RingContext, buchberger, eliminate, mult_matrix,
                          verify_thm_1_16, weighted_transform)
    F = FieldDescriptor(5)
    R = RingContext(F, ["Y", "Z"])
    f = R.parse("Z^2-Y")
    G = ReesAlgebra.from_pairs(R, [(f, 2)])
    cover = MonicInput(R, "Z", [f])
    Z = ReesAlgebra.from_pairs(R, [(R.var("Z"), 1)])
    values = [F, F.element(2), R, R.point([0, 1]), f, Ideal(R, [f]),
              buchberger(Ideal(R, [f])), G.generators[0], G,
              weighted_transform(Z, ["Y", "Z"], "Y")[1],
              mult_matrix(R.var("Y"), f, "Z"),
              eliminate(G, G.generators[0], "Z", check_transversal=False),
              cover, verify_thm_1_16(cover)]
    assert len({type(v) for v in values}) == 14
    assert isinstance(values[6], GroebnerBasis)
    for value in values:
        name = type(value).__name__
        # a generator's poly and weight are properties over its pair, so
        # its __slots__ is empty
        pair = ("poly", "weight") if name == "ReesGenerator" else ()
        for attr in type(value).__slots__ + pair + ("extra",):
            with pytest.raises(AttributeError,
                               match="^%s is immutable$" % name):
                setattr(value, attr, None)
    # a descriptor is hashed as a dict key: it must stay F5
    assert (F.p, F.spec()) == (5, "F5") and F == FieldDescriptor(5)


def test_modulus_is_read_by_the_polynomial_parser():
    # t*t is t^2: a modulus grammar of its own once read it as t
    assert FieldDescriptor.parse("F8:t^3+t*t+1").spec() == "F8:t^3+t^2+1"
    assert FieldDescriptor.parse("F8:t^3+t*t+1") is \
        FieldDescriptor.parse("F8:t^3+t^2+1")
    # 1/2 is the inverse of 2 mod 3, that is 2
    assert FieldDescriptor.parse("F9:t^2+1/2*t+2") is \
        FieldDescriptor.parse("F9:t^2+2*t+2")


def test_modulus_with_a_foreign_name_is_refused():
    with pytest.raises(RingError, match="'x'"):
        FieldDescriptor.parse("F8:t^3+t+1+x")


def test_modulus_of_degree_above_k_is_refused():
    with pytest.raises(FieldError, match="exceeds extension degree"):
        FieldDescriptor.parse("F8:t^4+t+1")


def test_modulus_coefficient_before_t_multiplies():
    assert FieldDescriptor.parse("F9:t^2+2t+2") is \
        FieldDescriptor.parse("F9:t^2+2*t+2")
    assert FieldDescriptor.parse("F9:t^2+2t+2").modulus == (2, 2, 1)


@pytest.mark.parametrize("spec", ["Q", "F5", "F9", "F8:t^3+t^2+1"])
def test_power_matches_repeated_products(spec):
    F = FieldDescriptor.parse(spec)
    values = ([F.element(Fraction(-3, 2)), F.element(7)] if F.p == 0
              else F.elements())
    for a in values:
        assert a**0 == F.one()
        product = F.one()
        for n in range(1, 9):
            product = product * a
            assert a**n == product
            if a:
                assert a**-n * product == F.one()
    with pytest.raises(ZeroDivisionError):
        F.zero()**-1


@pytest.mark.parametrize("n", [2.5, Fraction(3), 2.0, "2", None])
def test_power_refuses_an_exponent_that_is_not_an_int(n):
    # 2.5 raised a bare TypeError from the square-and-multiply loop
    for F in (Q, F5, F9):
        with pytest.raises(FieldError, match="^exponent %s is not an int$"
                           % re.escape(repr(n))):
            F.element(2)**n


def test_power_takes_a_bool_exponent_as_an_int():
    for a in F9.elements():
        assert a**True == a and a**False == F9.one()


def test_a_repeated_spec_is_read_once(monkeypatch):
    # a bad spec is not cached: it raises on every call
    for _ in range(2):
        with pytest.raises(FieldError, match="6 is not a prime power"):
            FieldDescriptor.parse("F6")
        with pytest.raises(FieldError, match="reducible"):
            FieldDescriptor.parse("F4:t^2+1")
    first = FieldDescriptor.parse("F8:t^3+t+1")

    def refuse(*args):
        raise AssertionError("the modulus was parsed again")

    # the modulus is read by RingContext.parse: a cached spec never gets there
    monkeypatch.setattr(RingContext, "parse", refuse)
    assert FieldDescriptor.parse("F8:t^3+t+1") is first


def test_prime_factors_are_the_sieved_primes_below_10000():
    N = 10**4
    sieved = [[] for _ in range(N)]   # sieved[m]: the primes r | m, increasing
    for r in range(2, N):
        if not sieved[r]:   # no smaller prime divides r
            for m in range(r, N, r):
                sieved[m].append(r)
    assert not _is_prime(0)
    for n in range(1, N):
        assert _prime_factors(n) == sieved[n], n
        assert _is_prime(n) == (sieved[n] == [n]), n
