"""Pure ramification versus generalized-discriminant vanishing."""
import itertools
import random

import pytest

from reeselim import (FieldDescriptor, MonicInput, ReesAlgebra, ReesError,
                      ResourceCapError, RingContext,
                      generalized_discriminants, hasse_derivative,
                      purely_ramified_at, univ_divmod, univ_radical,
                      verify_thm_1_16, verify_thm_1_16_ii)


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
    # the fiber scan fixes u, v and Z: 5 + 25 + 125 branches, none pruned
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 154)
    R = ring("F5", "u", "v", "Z")
    inp = MonicInput(R, "Z", [R.parse("Z^2-u")])
    with pytest.raises(ResourceCapError,
                       match=r"SCAN_BRANCHES cap exceeded: 155 > 154 "):
        verify_thm_1_16(inp)
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 155)
    assert verify_thm_1_16(inp).points_scanned == 25


def _random_monic_input(rng, spec, nbase):
    """Factors built to hit pure ramification often: shifted powers
    (Z - s)^d, possibly perturbed by a sparse base polynomial times Z^j,
    p-th power covers (Z^(p^e) - s)^m, and fully random monic factors."""
    R = ring(spec, *("x", "y")[:nbase], "Z")
    field = R.field
    z = R.var("Z")

    def small():
        f = R.zero()
        for _ in range(rng.randrange(0, 3)):
            exps = tuple(rng.randrange(3) for _ in range(nbase)) + (0,)
            f = f + R.monomial(exps, rng.choice(field.elements()))
        return f

    b = rng.randrange(1, 2 * field.p + 2)
    degrees = [b]
    if b > 1 and rng.random() < 0.4:
        split = rng.randrange(1, b)
        degrees = [split, b - split]
    shift = small()
    factors = []
    for d in degrees:
        shape = rng.randrange(4)
        if shape == 0:
            f = (z - shift)**d
        elif shape == 1:
            f = (z - shift)**d + small() * z**rng.randrange(d)
        elif shape == 2:
            q = 1
            while d % (q * field.p) == 0:
                q *= field.p
            f = (z**q - small())**(d // q)
        else:
            f = z**d
            for j in range(d):
                f = f + small() * z**j
        factors.append(f)
    return MonicInput(R, "Z", factors)


@pytest.mark.parametrize("spec", ["F2", "F3", "F4", "F5", "F7", "F8", "F9"])
def test_ramified_set_matches_the_per_point_radical(spec, monkeypatch):
    # The elimination is not under test here; skipping it keeps b up to
    # 2p + 1 cheap.
    monkeypatch.setattr("reeselim.ramify.generalized_discriminants",
                        lambda inp: ReesAlgebra(inp.base_ring(), []))
    rng = random.Random("ramified/" + spec)
    ramified_seen = 0
    for trial in range(12):
        inp = _random_monic_input(rng, spec, 1 + trial % 2)
        base = inp.base_ring()
        expected = {P for P in (base.point(c) for c in itertools.product(
            base.field.elements(), repeat=base.nvars))
            if purely_ramified_at(inp, P)}
        assert verify_thm_1_16(inp).ramified_points == expected, inp.factors
        ramified_seen += len(expected)
    assert ramified_seen > 0


def test_counterexamples_follow_the_element_order(monkeypatch):
    # with no discriminants every base point "vanishes", so every
    # unramified point is a counterexample
    monkeypatch.setattr("reeselim.ramify.generalized_discriminants",
                        lambda inp: ReesAlgebra(inp.base_ring(), []))
    R = ring("F4", "u", "v", "Z")
    inp = MonicInput(R, "Z", [R.parse("Z^3+u")])   # ramified at u = 0 only
    base = inp.base_ring()
    report = verify_thm_1_16(inp)
    expected = [P for P in (base.point(c) for c in itertools.product(
        base.field.elements(), repeat=2)) if not P["u"].is_zero()]
    assert len(report.ramified_points) == 4
    assert list(report.counterexamples) == expected
    shown = [line for line in report.format_text().splitlines()
             if line.startswith("counterexample: ")]
    assert shown == ["counterexample: %r" % (P,) for P in expected[:10]]


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
