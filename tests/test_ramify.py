"""Pure ramification versus generalized-discriminant vanishing."""
import random

import pytest

from reeselim import (FieldDescriptor, MonicInput, ReesError,
                      ResourceCapError, RingContext,
                      generalized_discriminants, hasse_derivative,
                      purely_ramified_at, univ_divmod, univ_radical,
                      verify_thm_1_16, verify_thm_1_16_ii)
from reeselim.ramify import _base_points


def ring(spec, *names):
    return RingContext(FieldDescriptor.parse(spec), names)


def test_purely_ramified_constant_triple_root():
    R = ring("F5", "Y", "Z")
    f = (R.var("Z") - R.one())**3
    inp = MonicInput(R, "Z", [f])
    assert purely_ramified_at(inp, R.drop_variable("Z").point([2]))


def test_purely_ramified_char_two_square():
    R = ring("F2", "Y", "Z")
    inp = MonicInput(R, "Z", [R.parse("Z^2+Y")])
    base = R.drop_variable("Z")
    assert purely_ramified_at(inp, base.point([1]))  # Z^2+1 = (Z+1)^2


def test_not_purely_ramified_split_roots():
    R = ring("F5", "Y", "Z")
    inp = MonicInput(R, "Z", [R.parse("Z^2-1")])
    base = R.drop_variable("Z")
    for c in range(5):
        assert not purely_ramified_at(inp, base.point([c]))


def test_discriminants_zero_algebra_in_char_two():
    R = ring("F2", "Y", "Z")
    disc = generalized_discriminants(MonicInput(R, "Z", [R.parse("Z^2+Y^5")]))
    assert disc.is_empty()  # the Z-derivative vanishes identically


def test_generic_quadratic_discriminant():
    R = ring("Q", "a0", "a1", "Z")
    f = R.parse("Z^2+a1*Z+a0")
    disc = generalized_discriminants(MonicInput(R, "Z", [f]))
    S = disc.ring
    assert len(disc.generators) == 1
    (g,) = disc.generators
    assert g.weight == 2
    assert g.poly == S.parse("4*a0-a1^2")  # the classical discriminant


def test_split_quadratic_discriminant_vanishes_on_the_diagonal():
    R = ring("Q", "u", "v", "Z")
    factors = [R.var("Z") - R.var("u"), R.var("Z") - R.var("v")]
    disc = generalized_discriminants(MonicInput(R, "Z", factors))
    S = disc.ring
    diff = S.parse("u-v")
    assert len(disc.generators) == 1
    (g,) = disc.generators
    assert g.poly == diff or g.poly == -diff


def test_theorem_verifier_char_two_quadratic():
    R = ring("F2", "Y", "Z")
    report = verify_thm_1_16(MonicInput(R, "Z", [R.parse("Z^2+Y")]))
    assert report.agree and report.points_scanned == 2
    assert report.zero_algebra
    assert len(report.ramified_points) == 2


def test_theorem_verifier_f5_square_root_cover():
    R = ring("F5", "Y", "Z")
    report = verify_thm_1_16(MonicInput(R, "Z", [R.parse("Z^2-Y")]))
    assert report.agree and report.points_scanned == 5
    assert {p.coords[0].val for p in report.ramified_points} == {0}


def test_theorem_verifier_split_quadratic_diagonal():
    R = ring("F3", "u", "v", "Z")
    factors = [R.var("Z") - R.var("u"), R.var("Z") - R.var("v")]
    report = verify_thm_1_16(MonicInput(R, "Z", factors))
    assert report.agree and report.points_scanned == 9
    assert len(report.ramified_points) == 3
    for p in report.ramified_points:
        assert p["u"] == p["v"]


def test_scan_budget_is_a_resource_cap(monkeypatch):
    monkeypatch.setattr("reeselim.groebner.SCAN_BUDGET", 24)
    R = ring("F5", "u", "v", "Z")
    inp = MonicInput(R, "Z", [R.parse("Z^2-u")])
    with pytest.raises(ResourceCapError, match="25 points exceeds budget 24"):
        verify_thm_1_16(inp)
    monkeypatch.setattr("reeselim.groebner.SCAN_BUDGET", 25)
    assert verify_thm_1_16(inp).points_scanned == 25


def test_raising_the_groebner_scan_budget_admits_a_ramification_scan(
        monkeypatch):
    # 11^6 base points: over the default budget, under a raised one
    R = ring("F11", "a", "b", "c", "d", "e", "f", "Z")
    inp = MonicInput(R, "Z", [R.parse("Z^2-a")])
    with pytest.raises(ResourceCapError,
                       match="1771561 points exceeds budget 1000000"):
        verify_thm_1_16(inp)
    monkeypatch.setattr("reeselim.groebner.SCAN_BUDGET", 2 * 10**6)
    # the full scan takes minutes; its budget check runs before the first
    # point is produced
    assert next(_base_points(inp.base_ring())).is_origin()


def test_b_fold_point_criterion():
    R = ring("Q", "Y", "Z")
    assert verify_thm_1_16_ii(MonicInput(R, "Z", [R.parse("Z^2")]),
                              R.origin())
    assert verify_thm_1_16_ii(MonicInput(R, "Z", [R.parse("Z^2+Y^5")]),
                              R.origin())
    assert verify_thm_1_16_ii(MonicInput(R, "Z", [R.parse("Z^2-Y^2")]),
                              R.origin())


def test_b_fold_precondition_enforced():
    R = ring("Q", "Y", "Z")
    with pytest.raises(ReesError):
        verify_thm_1_16_ii(MonicInput(R, "Z", [R.parse("Z^2+Y^5")]),
                           R.point([1, 0]))  # order 0 there, not 2


def test_pure_ramification_invariant_under_z_shifts():
    rng = random.Random(13)
    R = ring("F3", "x", "Z")
    base = R.drop_variable("Z")
    for _ in range(20):
        f = R.var("Z")**2
        for j in range(2):
            f = f + R.monomial((rng.randrange(3), j), rng.randrange(3))
        s = R.monomial((rng.randrange(3), 0), rng.randrange(3))
        shifted = f.substitute({"Z": R.var("Z") + s})
        inp, inp_shift = MonicInput(R, "Z", [f]), MonicInput(R, "Z", [shifted])
        for c in range(3):
            P = base.point([c])
            assert purely_ramified_at(inp, P) == \
                purely_ramified_at(inp_shift, P)


def test_radical_degree_matches_nilpotency_criterion():
    # unique root <=> radical divides every Hasse derivative of lower order
    rng = random.Random(19)
    R = ring("F5", "Z")
    for _ in range(40):
        b = rng.randrange(2, 5)
        f = R.var("Z")**b
        for j in range(b):
            f = f + R.monomial((j,), rng.randrange(5))
        rad = univ_radical(f)
        unique_root = rad.degree_in("Z") == 1
        nilpotent = all(
            univ_divmod(hasse_derivative(f, (k,)), rad, "Z")[1].is_zero()
            for k in range(b))
        assert unique_root == nilpotent


def test_factored_and_unfactored_inputs_vanish_identically():
    R = ring("F3", "u", "v", "Z")
    f1 = R.var("Z") - R.var("u")
    f2 = R.var("Z") - R.var("v")
    split = verify_thm_1_16(MonicInput(R, "Z", [f1, f2]))
    joined = verify_thm_1_16(MonicInput(R, "Z", [f1 * f2]))
    assert split.agree and joined.agree
    assert split.discriminant_zero_points == joined.discriminant_zero_points
