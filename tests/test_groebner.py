"""Buchberger bases, membership, ideal equality, and point scans."""
import itertools
import random
import re
from fractions import Fraction

import pytest

from reeselim import (FieldDescriptor, Ideal, ReesAlgebra, ResourceCapError,
                      RingContext, buchberger, degree_ideal, diff_saturate,
                      ideal_equal, membership, rational_zero_set)
from reeselim import groebner
from reeselim.groebner import normal_form
from reeselim.poly import RationalPoint, RingError, grevlex_key


def ring(spec, *names):
    return RingContext(FieldDescriptor.parse(spec), names)


QYZ = ring("Q", "Y", "Z")


def test_monomial_ideal_already_reduced():
    I = Ideal(QYZ, [QYZ.var("Z"), QYZ.parse("Y^4")])
    gb = buchberger(I)
    assert set(gb.basis) == {QYZ.var("Z"), QYZ.parse("Y^4")}


def test_reduction_to_monomial_basis():
    I = Ideal(QYZ, [QYZ.parse("Z^2+Y^5"), QYZ.parse("2*Z"),
                    QYZ.parse("5*Y^4")])
    gb = buchberger(I)
    assert set(gb.basis) == {QYZ.var("Z"), QYZ.parse("Y^4")}


def test_zero_ideal_has_empty_basis():
    gb = buchberger(Ideal(QYZ, [QYZ.zero()]))
    assert gb.basis == ()


def test_membership():
    gb = buchberger(Ideal(QYZ, [QYZ.var("Z"), QYZ.parse("Y^4")]))
    assert membership(QYZ.parse("Z^2+Y^5"), gb)
    assert not membership(QYZ.one(), gb)
    gb2 = buchberger(Ideal(QYZ, [QYZ.parse("Y^4")]))
    assert not membership(QYZ.parse("Y^3"), gb2)


def test_ideal_equality():
    assert ideal_equal(Ideal(QYZ, [QYZ.var("Z"), QYZ.parse("Y^4")]),
                       Ideal(QYZ, [QYZ.parse("Z+Y^4"), QYZ.parse("Y^4")]))
    assert not ideal_equal(Ideal(QYZ, [QYZ.parse("Y^3")]),
                           Ideal(QYZ, [QYZ.parse("Y^4")]))
    assert ideal_equal(Ideal(QYZ, [QYZ.parse("Z^2+Y^5"), QYZ.var("Z")]),
                       Ideal(QYZ, [QYZ.var("Z"), QYZ.parse("Y^5")]))


def test_rational_zero_sets():
    F3YZ = ring("F3", "Y", "Z")
    pts = rational_zero_set(Ideal(F3YZ, [F3YZ.var("Z"), F3YZ.parse("Y^4")]))
    assert pts == {F3YZ.origin()}
    F2Y = ring("F2", "Y")
    assert len(rational_zero_set(Ideal(F2Y, [F2Y.zero()]))) == 2
    F5Y = ring("F5", "Y")
    pts = rational_zero_set(Ideal(F5Y, [F5Y.parse("Y^2-1")]))
    assert {p.coords[0].val for p in pts} == {1, 4}


def test_zero_set_scan_budget_is_a_resource_cap(monkeypatch):
    F3XY = ring("F3", "X", "Y")
    everything = Ideal(F3XY, [])   # 3 + 9 branches, 9 points
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 11)
    with pytest.raises(ResourceCapError, match=r"SCAN_BRANCHES cap exceeded: "
                       r"12 > 11 \(2 of 2 coordinates fixed\)"):
        rational_zero_set(everything)
    # X = 1 and X = 2 are abandoned after one branch each: 3 + 3 branches
    assert rational_zero_set(Ideal(F3XY, [F3XY.var("X")])) == \
        {F3XY.point([0, y]) for y in range(3)}
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 2)
    with pytest.raises(ResourceCapError, match=r"SCAN_BRANCHES cap exceeded: "
                       r"3 > 2 \(none visited, 2 coordinates of 3 "
                       r"values\)"):
        rational_zero_set(everything)
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 12)
    assert len(rational_zero_set(everything)) == 9


def _brute_zero_set(ideal):
    R = ideal.ring
    points = (RationalPoint(R, c) for c
              in itertools.product(R.field.elements(), repeat=R.nvars))
    return {pt for pt in points
            if all(g.evaluate(pt).is_zero() for g in ideal.generators)}


def _random_scan_ideal(rng, R):
    """0-3 generators: random sparse polynomials, or products of random
    affine linear forms, whose zero sets are unions of hyperplanes."""
    elements = R.field.elements()
    gens = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            f = R.zero()
            for _ in range(rng.randint(1, 4)):
                exps = [rng.randint(0, 4) for _ in R.variables]
                f = f + R.monomial(exps, rng.choice(elements))
        else:
            f = R.one()
            for _ in range(rng.randint(1, 3)):
                form = R.constant(rng.choice(elements))
                for v in R.variables:
                    form = form + R.var(v).scale(rng.choice(elements))
                f = f * form
        gens.append(f)
    return Ideal(R, gens)


def test_rational_zero_set_matches_brute_force():
    rng = random.Random(4)
    specs = ("F2", "F3", "F4", "F5", "F7", "F8", "F9")
    checked = 0
    for spec in specs:
        for nvars in (1, 2, 3):
            R = ring(spec, *("x", "y", "z")[:nvars])
            for _ in range(5):
                I = _random_scan_ideal(rng, R)
                assert rational_zero_set(I) == _brute_zero_set(I), I
                checked += 1
    assert checked == 105
    for spec in ("F2", "F3", "F4", "F5", "F9"):
        R = ring(spec, "x", "y", "z")
        q = R.field.order
        x, y, z = R.var("x"), R.var("y"), R.var("z")
        every = set(_brute_zero_set(Ideal(R, [])))
        assert len(every) == q**3
        edge_cases = [
            (Ideal(R, []), every),
            (Ideal(R, [R.zero()]), every),
            (Ideal(R, [R.constant(1)]), set()),
            (Ideal(R, [x, R.constant(1)]), set()),
            (Ideal(R, [x**q - x]), every),
            (Ideal(R, [z**q - z, y**q - y]), every),
            (Ideal(R, [x * (y * y + z + 1)]), None),
            (Ideal(R, [z * (x + y), y * z]), None),
            (Ideal(R, [y**2 * (x**q - x) + z * y]), None),
        ]
        for I, expected in edge_cases:
            brute = _brute_zero_set(I)
            if expected is not None:
                assert brute == expected
            assert rational_zero_set(I) == brute, I


def _collapsing_generator(rng, R):
    """Terms that share their exponents past the first variable, with
    coefficients from the top of the field (entries p - 1, p - 2, ...), so
    that each coefficient of a specialization sums past p before it is
    reduced."""
    top = R.field.elements()[-3:]
    f = R.zero()
    for _ in range(rng.randint(1, 2)):
        rest = [rng.randint(0, 2) for _ in R.variables[1:]]
        for first in rng.sample(range(6), rng.randint(2, 4)):
            f = f + R.monomial([first] + rest, rng.choice(top))
    return f


def test_raw_scan_matches_brute_force_over_larger_fields():
    rng = random.Random(14)
    cases = [(spec, nvars) for spec in ("F16", "F25") for nvars in (1, 2)]
    cases += [("F8:t^3+t^2+1", nvars) for nvars in (1, 2, 3)]
    cases += [(spec, nvars) for spec in ("F11", "F13") for nvars in (1, 2, 3)]
    checked = 0
    for spec, nvars in cases:
        R = ring(spec, *("x", "y", "z")[:nvars])
        # the brute force over q^3 points is the slow part
        for _ in range(3 if nvars < 3 else 1):
            gens = list(_random_scan_ideal(rng, R).generators)[:1]
            gens.append(_collapsing_generator(rng, R))
            zeros = [_brute_zero_set(Ideal(R, [g])) for g in gens]
            assert rational_zero_set(Ideal(R, gens[-1:])) == zeros[-1], gens
            assert rational_zero_set(Ideal(R, gens)) == \
                set.intersection(*zeros), gens
            checked += 1
    assert checked == 33


def test_raw_scan_edge_cases():
    F4 = ring("F4", "x", "y")
    x, y = F4.var("x"), F4.var("y")
    prime = F4.field.elements()[:2]   # the subfield F_2
    # x^2 + x specializes to the zero tuple at x in F_2 and to a nonzero
    # constant at t and t + 1
    assert rational_zero_set(Ideal(F4, [x**2 + x])) == {
        F4.point([a, b]) for a in prime for b in F4.field.elements()}
    for spec in ("F5", "F9"):
        R = ring(spec, "x", "y")
        x, y = R.var("x"), R.var("y")
        # a nonzero constant at x = 1 and x = -1 only; one y at every other x
        I = Ideal(R, [(x**2 - 1) * y + x])
        pts = rational_zero_set(I)
        assert pts == _brute_zero_set(I)
        assert len(pts) == R.field.order - 2


def test_scan_folds_exponents_past_the_field_order(monkeypatch):
    # x^q = x on F_q, so the scan lowers an exponent e >= q to
    # (e - 1) mod (q - 1) + 1; a positive exponent stays positive, so a
    # zero coordinate still gives 0^(q-1) = 0 and not 1.  Each drawn
    # generator is shifted half the time to vanish at a drawn point, which
    # has a zero coordinate at least half the time
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # the term maps each scan hands its specialization kernel, keyed by
    # entry fields, recorded per call
    seen, specialize = [], groebner._specialize

    def recording(terms, *rest):
        seen.append(terms)
        return specialize(terms, *rest)

    monkeypatch.setattr(groebner, "_specialize", recording)

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        spec = data.draw(st.sampled_from(("F2", "F3", "F4", "F5", "F9")))
        nvars = data.draw(st.integers(1, 2 if spec == "F9" else 3))
        R = ring(spec, *("x", "y", "z")[:nvars])
        q = R.field.order
        elements = R.field.elements()
        multiple = st.integers(1, 3)
        exponent = st.one_of(st.integers(0, 3 * q),
                             multiple.map(lambda m: m * (q - 1)),
                             multiple.map(lambda m: m * q))
        coord = st.one_of(st.just(elements[0]), st.sampled_from(elements))
        point = R.point([data.draw(coord) for _ in range(nvars)])
        gens = []
        for _ in range(data.draw(st.integers(1, 3))):
            g = R.zero()
            for _ in range(data.draw(st.integers(1, 4))):
                g = g + R.monomial(
                    [data.draw(exponent) for _ in range(nvars)],
                    data.draw(st.sampled_from(elements[1:])))
            if data.draw(st.booleans()):
                g = g - R.constant(g.evaluate(point))
            gens.append(g)
        I = Ideal(R, gens)
        seen.clear()
        points = rational_zero_set(I)
        # folded, no exponent of q or more reaches the kernel
        assert all(e >> 32 * i & 2**32 - 1 < q for terms in seen
                   for e in terms for i in range(nvars)), seen
        assert points == _brute_zero_set(I), gens

    check()


def test_folding_abandons_branches_sooner(monkeypatch):
    # y^4 + y + x is x on F4 (y^4 = y, and y + y = 0): the folded generator
    # is linear in x, so the scan visits x = 0 and its 4 values of y and
    # charges the 3 skipped values of x, 8 branches in all; unfolded, every
    # x and every y would be tried, 4 + 16 branches
    F4 = ring("F4", "x", "y")
    x, y = F4.var("x"), F4.var("y")
    I = Ideal(F4, [y**4 + y + x])
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 8)
    assert rational_zero_set(I) == _brute_zero_set(I) == {
        F4.point([0, c]) for c in F4.field.elements()}
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 7)
    with pytest.raises(ResourceCapError, match=r"^SCAN_BRANCHES cap exceeded: "
                       r"8 > 7 \(1 of 2 coordinates fixed\)$"):
        rational_zero_set(I)
    # a generator that folds to zero is dropped: every point, q + q^2
    # branches
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 20)
    assert len(rational_zero_set(Ideal(F4, [x**7 - x]))) == 16


def test_extension_field_scan_budget_is_exact(monkeypatch):
    F4 = ring("F4", "x", "y")
    everything = Ideal(F4, [])   # 4 + 16 branches, 16 points
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 20)
    assert rational_zero_set(everything) == _brute_zero_set(everything)
    monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", 19)
    with pytest.raises(ResourceCapError, match=r"SCAN_BRANCHES cap exceeded: "
                       r"20 > 19 \(2 of 2 coordinates fixed\)"):
        rational_zero_set(everything)


def _linear_in_middle(R):
    """Ideals over R = F[x, Z, y] with a generator a(x)*Z + b(x): once x is
    fixed, the scan solves Z instead of trying all q values."""
    x, Z, y = (R.var(v) for v in R.variables)
    return [
        [Z - x**2 - 1],
        [Z - x, y**2 - Z],
        # a = x^2 - x vanishes at x = 0 (where b = 0 too: Z is free) and
        # at x = 1 (where b = 2: no point unless p = 2)
        [(x**2 - x) * Z + x**3 + x, y**2 - Z * x],
        # no b: the root is 0, and Z is free at x = -1
        [(x + 1) * Z, y - Z - x],
        # b = -1 is a nonzero constant where a = x vanishes
        [x * Z - 1, Z * y - x],
        # linear in Z, but also in y: Z is enumerated unless x = 0
        [Z + x * y, y**2 - x],
    ]


@pytest.mark.parametrize("spec", ["F2", "F3", "F4", "F5", "F8", "F9", "F16",
                                  "F25"])
def test_solved_coordinate_matches_brute_force(spec):
    R = ring(spec, "x", "Z", "y")
    cases = _linear_in_middle(R)
    if R.field.order > 9:
        # the brute force over q^3 points is the slow part: keep the cases
        # where a vanishes on some branches, and where b is absent
        cases = cases[2:4]
    for gens in cases:
        I = Ideal(R, gens)
        assert rational_zero_set(I) == _brute_zero_set(I), gens


def test_solved_coordinate_visits_only_the_root(monkeypatch):
    # the answers are the same whether Z is solved or enumerated: only the
    # number of specializations tells a solve that never fires
    calls = []

    def counting_specialize(terms, *rest):
        calls.append(terms)
        return specialize(terms, *rest)

    specialize = groebner._specialize
    monkeypatch.setattr(groebner, "_specialize", counting_specialize)
    R = ring("F25", "x", "Z")
    x, Z = R.var("x"), R.var("Z")
    assert rational_zero_set(Ideal(R, [Z - x])) == \
        {R.point([c, c]) for c in R.field.elements()}
    # 25 values of x, then one Z each, where enumeration makes 25 + 25 * 25
    assert len(calls) == 50
    calls.clear()
    # Z^2 - x is not linear: every Z is tried; x = 0 has one root, each
    # of the 12 nonzero squares two
    assert len(rational_zero_set(Ideal(R, [Z**2 - x]))) == 25
    assert len(calls) == 25 + 25 * 25


def test_scan_of_every_unit_of_f2003_keeps_tables_of_order_q():
    # x^2002 - 1 vanishes at every unit of F_2003.  The scan reads the
    # field's logs, so the field keeps tables of q and q - 1 entries, not
    # one power per value and exponent (2003 * 2003 entries)
    R = ring("F2003", "x")
    F = R.field
    points = rational_zero_set(Ideal(R, [R.parse("x^2002-1")]))
    assert len(points) == 2002 and R.point([0]) not in points

    def entries(v):   # the entries of v's containers, nested ones too
        if isinstance(v, dict):
            v = list(v.values())
        if isinstance(v, (tuple, list)):
            return len(v) + sum(entries(c) for c in v)
        return 0

    assert sum(entries(getattr(F, name))
               for name in type(F).__slots__) <= 6 * F.order


def _enumeration_levels(ideal):
    """The level (coordinates fixed, 1-based) of each branch in the order a
    scan that tries every value of every coordinate visits them; a branch is
    abandoned when a generator becomes a nonzero constant."""
    R = ideal.ring
    levels = []

    def walk(prefix):
        if len(prefix) == R.nvars:
            return
        for c in R.field.elements():
            levels.append(len(prefix) + 1)
            values = dict(zip(R.variables, prefix + [c]))
            special = [g.substitute(values) for g in ideal.generators]
            if not any(s.is_constant() and not s.is_zero() for s in special):
                walk(prefix + [c])

    walk([])
    return levels


def test_solved_coordinate_caps_where_enumeration_does(monkeypatch):
    # the values a solve skips count as branches in enumeration order, so
    # every budget raises with enumeration's message, or does not raise
    F5 = ring("F5", "x", "Z")
    F9 = ring("F9", "x", "Z", "y")
    x, Z = F5.var("x"), F5.var("Z")
    cases = [Ideal(F5, [Z - x]), Ideal(F5, [(x - 2) * Z + x])]
    cases += [Ideal(F9, gens) for gens in _linear_in_middle(F9)[1:4]]
    for I in cases:
        levels = _enumeration_levels(I)
        n, q = I.ring.nvars, I.ring.field.order
        assert 2 in levels[q:]   # some budgets cross inside a solved level
        for budget in range(q, len(levels)):
            monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", budget)
            message = (r"SCAN_BRANCHES cap exceeded: %d > %d \(%d of %d "
                       r"coordinates fixed\)"
                       % (budget + 1, budget, levels[budget], n))
            with pytest.raises(ResourceCapError, match="^%s$" % message):
                rational_zero_set(I)
        monkeypatch.setattr("reeselim.budget.SCAN_BRANCHES", len(levels))
        assert rational_zero_set(I) == _brute_zero_set(I)


def test_normal_form_is_linear():
    gb = buchberger(Ideal(QYZ, [QYZ.parse("Z^2+Y^5"), QYZ.parse("Y*Z")]))
    basis = list(gb.basis)
    f, g = QYZ.parse("Z^3+Y^2*Z+1"), QYZ.parse("Y^6+Z^2")
    assert normal_form(f + g, basis) == \
        normal_form(f, basis) + normal_form(g, basis)


def test_normal_form_raises_when_a_step_does_not_lower_the_leading_key(
        monkeypatch):
    # a kernel that puts the popped key back would make every step take
    # it again; the broken kernel gives up after a bounded number of calls,
    # so a missing check fails this test instead of hanging it
    R = ring("F3", "x", "y")
    divisor = R.parse("x+y")
    glm = max(divisor._raw)
    subtract, calls = groebner._subtract, []

    def broken(field, work, shift, c, tail):
        calls.append(shift)
        if len(calls) > 100:
            raise AssertionError("normal_form kept reducing the same key")
        subtract(field, work, shift, c, tail)
        work[shift + glm] = 1   # the key this step popped

    monkeypatch.setattr(groebner, "_subtract", broken)
    with pytest.raises(ArithmeticError, match="did not lower"):
        normal_form(R.parse("x^2"), [divisor])
    assert len(calls) == 1


@pytest.mark.parametrize("divisors, message", [
    ([ring("F3", "Y", "Z").var("Y")], "ring mismatch"),
    ([ring("Q", "Y", "Z", "W").var("Y")], "ring mismatch"),
    ([QYZ.var("Z"), QYZ.zero()], "divisor 1 of the basis is zero"),
], ids=["Q-against-F3", "2-variables-against-3", "zero-divisor"])
def test_normal_form_refuses_a_foreign_or_zero_divisor(divisors, message):
    # raw reduction would zip exponent tuples of unequal length, or run
    # another field's arithmetic on the values, without noticing
    with pytest.raises(RingError, match=message):
        normal_form(QYZ.parse("Y^2*Z+Z"), divisors)


def test_membership_absorbs_multiplication():
    gb = buchberger(Ideal(QYZ, [QYZ.parse("Z^2+Y^5"), QYZ.parse("Y*Z")]))
    f = QYZ.parse("Z^2+Y^5")
    for h in (QYZ.var("Y"), QYZ.parse("Z+3"), QYZ.parse("Y^2*Z-1")):
        assert membership(f * h, gb)


def test_zero_set_containment_reverses_generator_membership():
    F3YZ = ring("F3", "Y", "Z")
    I = Ideal(F3YZ, [F3YZ.var("Y")])
    J = Ideal(F3YZ, [F3YZ.var("Y"), F3YZ.var("Z")])  # J contains I
    assert rational_zero_set(J) <= rational_zero_set(I)


def test_basis_cap_raises_resource_error(monkeypatch):
    monkeypatch.setattr("reeselim.budget.BASIS_ELEMENTS", 2)
    I = Ideal(QYZ, [QYZ.parse("Y^2"), QYZ.parse("Y*Z+Z^2")])
    with pytest.raises(ResourceCapError, match=r"BASIS_ELEMENTS cap exceeded: "
                       r"3 > 2 \(after 3 reductions, 0 pairs pending\)"):
        buchberger(I)


def test_a_monomial_ideal_counts_against_the_cap(monkeypatch):
    """Only a carried basis skips the pair loop: a monomial ideal built by
    hand runs it, and each input that joins the basis counts."""
    monkeypatch.setattr("reeselim.budget.BASIS_ELEMENTS", 2)
    R = ring("Q", "x", "y", "z")
    with pytest.raises(ResourceCapError, match=r"^BASIS_ELEMENTS cap "
                       r"exceeded: 3 > 2 \(after 3 reductions, 0 pairs "
                       r"pending\)$"):
        buchberger(Ideal(R, [R.var("x"), R.var("y"), R.var("z")]))


def test_basis_cap_counts_the_inputs(monkeypatch):
    """The cap holds on every element added: two coprime inputs make no
    pair, so a cap checked only after an S-polynomial joins never fires."""
    monkeypatch.setattr("reeselim.budget.BASIS_ELEMENTS", 1)
    R = ring("Q", "x", "y")
    with pytest.raises(ResourceCapError, match=r"^BASIS_ELEMENTS cap "
                       r"exceeded: 2 > 1 \(after 2 reductions, 0 pairs "
                       r"pending\)$"):
        buchberger(Ideal(R, [R.parse("x+1"), R.parse("y+1")]))


@pytest.fixture
def normal_form_calls(monkeypatch):
    """The polynomials passed to groebner.normal_form through the module,
    which is how buchberger calls it and how the benchmark traces it."""
    calls = []
    real = groebner.normal_form

    def counted(f, basis):
        calls.append(f)
        return real(f, basis)

    monkeypatch.setattr("reeselim.groebner.normal_form", counted)
    return calls


def test_cap_message_counts_the_reductions_the_trace_counts(
        monkeypatch, normal_form_calls):
    """The benchmark's trace counts the reductions, one per input and one
    per S-pair, as the normal_form calls made under buchberger; before the
    final inter-reduction those are all of them, and the cap message's
    figure must equal their number."""
    R = ring("F3", "x", "y", "z")
    I = Ideal(R, [R.parse("x^2*y+z^2+1"), R.parse("x*y^2-z"),
                  R.parse("y*z^2+x")])
    for cap in (3, 5, 7):
        monkeypatch.setattr("reeselim.budget.BASIS_ELEMENTS", cap)
        normal_form_calls.clear()
        with pytest.raises(ResourceCapError) as error:
            buchberger(I)
        reported = re.search(r"after (\d+) reductions", str(error.value))
        assert int(reported.group(1)) == len(normal_form_calls) >= cap - 2, \
            error.value


@pytest.mark.parametrize("gens, reductions", [
    # the inputs go in as z^2-z, x*z+x, x*y-1, and their pair of lcm x*z^2
    # gives x, which divides the lcm x*y*z of the pair of x*z+x and x*y-1
    # but neither of its lcms with them, so the update drops that pair:
    # 3 inputs and 3 S-pairs, the last giving 1
    (["x*y-1", "x*z+x", "z^2-z"], 6),
    # x+1 reduces the input x*y^2*z^2 to -y^2*z^2, coprime to it: 2 inputs
    # and no pair
    (["x+1", "x*y^2*z^2"], 2),
    # the three pairs of the generators share the lcm x*y*z, so only one
    # of the two new pairs of x*y-z is kept: 3 inputs and 8 S-pairs
    (["y*z-x", "x*z-y", "x*y-z"], 11),
], ids=["drops-an-old-pair", "reduced-input-makes-no-pair",
        "one-pair-per-equal-lcm"])
def test_gebauer_moeller_update_drops_redundant_pairs(
        monkeypatch, normal_form_calls, gens, reductions):
    before_interreduction = []
    real = groebner._interreduce

    def interreduce(basis):
        before_interreduction.append(len(normal_form_calls))
        return real(basis)

    monkeypatch.setattr("reeselim.groebner._interreduce", interreduce)
    R = ring("Q", "x", "y", "z")
    buchberger(Ideal(R, [R.parse(g) for g in gens]))
    assert before_interreduction == [reductions]


# -- oracles: the definition of a reduced basis, and sympy ------------

_Q_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3))


def _nonzero_coeffs(R):
    if R.field.p:
        return [c for c in R.field.elements() if not c.is_zero()]
    return _Q_COEFFS


def _random_ideal(rng, spec, nvars):
    R = ring(spec, *("x", "y", "z")[:nvars])
    coeffs = _nonzero_coeffs(R)
    gens = []
    for _ in range(rng.randint(2, 3)):
        f = R.zero()
        for _ in range(rng.randint(1, 3)):
            exps = [0] * nvars
            for _ in range(rng.randint(1, 4)):
                exps[rng.randrange(nvars)] += 1
            f = f + R.monomial(exps, rng.choice(coeffs))
        gens.append(f)
    return R, gens


def _random_ideals(seed, specs):
    rng = random.Random(seed)
    for spec in specs:
        for i in range(24):
            yield _random_ideal(rng, spec, 2 + i % 2)


def _monomial_ideals(seed, specs):
    """Monomial ideals with non-monic generators, duplicates, a constant,
    one generator dividing another, the empty ideal, and random ones."""
    rng = random.Random(seed)
    for spec in specs:
        R = ring(spec, "x", "y", "z")
        coeffs = _nonzero_coeffs(R)

        def m(*exps):
            return R.monomial(exps, rng.choice(coeffs))

        yield R, [m(2, 1, 0), m(0, 3, 1), m(1, 0, 2)]
        yield R, [m(1, 1, 0), m(1, 1, 0), R.monomial((1, 1, 0)), m(0, 2, 0)]
        yield R, [m(2, 0, 1), m(0, 0, 0)]
        yield R, [m(1, 0, 0), m(2, 1, 0), m(0, 0, 3), m(0, 0, 4)]
        yield R, []
        for _ in range(6):
            yield R, [m(*(rng.randrange(3) for _ in range(3)))
                      for _ in range(rng.randint(1, 4))]


def _lm(f):
    return max(f.terms, key=grevlex_key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _remainder(f, divisors):
    """Plain multivariate division, written apart from groebner.normal_form."""
    R = f.ring
    rem = R.zero()
    while f:
        lm = _lm(f)
        c = f.terms[lm]
        for g in divisors:
            glm = _lm(g)
            if _divides(glm, lm):
                quot = [a - b for a, b in zip(lm, glm)]
                f = f - R.monomial(quot, c / g.terms[glm]) * g
                break
        else:
            rem = rem + R.monomial(lm, c)
            f = f - R.monomial(lm, c)
    return rem


def test_normal_form_matches_the_division_oracle():
    """Random f against random lists of non-monic divisors, so that the
    inverse leading coefficients and the raw zero of each field count."""
    rng = random.Random(9)
    checked = 0
    for spec in ("Q", "F2", "F3", "F4", "F9", "F8:t^3+t^2+1"):
        for nvars in (1, 2, 3):
            R = ring(spec, *("x", "y", "z")[:nvars])
            coeffs = _nonzero_coeffs(R)

            def poly(terms):
                f = R.zero()
                for _ in range(terms):
                    exps = [rng.randrange(4) for _ in range(nvars)]
                    f = f + R.monomial(exps, rng.choice(coeffs))
                return f

            for _ in range(8):
                divisors = [poly(rng.randint(1, 3))
                            for _ in range(rng.randint(1, 3))]
                divisors = [d for d in divisors if d] or [R.var("x")]
                f = poly(rng.randint(0, 8))
                assert normal_form(f, divisors) == _remainder(f, divisors), \
                    (f, divisors)
                checked += 1
    assert checked == 144


def _s_poly(f, g):
    R = f.ring
    lf, lg = _lm(f), _lm(g)
    lcm = [max(a, b) for a, b in zip(lf, lg)]
    return (R.monomial([a - b for a, b in zip(lcm, lf)], f.terms[lf].inverse())
            * f
            - R.monomial([a - b for a, b in zip(lcm, lg)], g.terms[lg].inverse())
            * g)


def _assert_reduced_basis(gens, basis):
    """basis is the reduced Groebner basis of the ideal of gens, by the
    definition: monic, no leading monomial dividing a term of another
    element, every generator reducing to zero and every S-polynomial too;
    and it is listed in increasing grevlex order of leading monomials."""
    assert bool(basis) == bool(gens), gens
    leads = [grevlex_key(_lm(g)) for g in basis]
    assert leads == sorted(leads), (gens, basis)
    for g in basis:
        assert g.terms[_lm(g)] == g.ring.field.one(), (gens, g)
        for h in basis:
            if h is not g:
                assert not any(_divides(_lm(h), e) for e in g.terms), \
                    (gens, g, h)
    for f in gens:
        assert _remainder(f, basis).is_zero(), (gens, f)
    for i, g in enumerate(basis):
        for h in basis[i + 1:]:
            assert _remainder(_s_poly(g, h), basis).is_zero(), (gens, g, h)


def test_buchberger_output_is_the_reduced_basis():
    specs = ("F2", "F3", "F4", "F5", "Q", "F8", "F9", "F8:t^3+t^2+1")
    for R, gens in itertools.chain(_random_ideals(3, specs),
                                   _monomial_ideals(5, specs)):
        basis = list(buchberger(Ideal(R, gens)).basis)
        if all(len(f.terms) == 1 for f in gens):
            # a monomial lies in a monomial ideal iff a generator divides it
            for g in basis:
                assert any(_divides(_lm(f), _lm(g)) for f in gens), (gens, g)
        _assert_reduced_basis(gens, basis)


_SYMPY_MODULI = {"F2": 2, "F3": 3, "F5": 5, "Q": None}


def _sympy_basis(R, gens):
    """The reduced grevlex basis of the ideal of gens by sympy, monic, as
    a set of polynomials of R."""
    sympy = pytest.importorskip("sympy")
    p = _SYMPY_MODULI[R.field.spec()]
    syms = sympy.symbols(R.variables)
    exprs = []
    for f in gens:
        expr = 0
        for exps, c in f.terms.items():
            term = sympy.Rational(c.val.numerator, c.val.denominator) \
                if p is None else c.val
            for s, e in zip(syms, exps):
                term *= s**e
            expr += term
        exprs.append(expr)
    options = {} if p is None else {"modulus": p}
    theirs = set()
    for poly in sympy.groebner(exprs, *syms, order="grevlex",
                               **options).polys:
        g = R.zero()
        for exps, c in poly.terms():
            # sympy prints residues mod p symmetrically (-1 for 2 mod 3)
            c = Fraction(str(c)) if p is None else int(c) % p
            g = g + R.monomial(exps, c)
        theirs.add(g.scale(g.terms[_lm(g)].inverse()))
    return theirs


def test_buchberger_matches_sympy():
    for R, gens in itertools.chain(_random_ideals(5, tuple(_SYMPY_MODULI)),
                                   _monomial_ideals(7, tuple(_SYMPY_MODULI))):
        assert set(buchberger(Ideal(R, gens)).basis) == \
            _sympy_basis(R, gens), gens


def test_basis_does_not_depend_on_how_the_inputs_are_given():
    """Inputs are reduced one at a time against the basis built so far, so
    their order, duplicates, scalars and members of the ideal change the
    path taken; the reduced basis must not change."""
    rng = random.Random(11)
    specs = ("F2", "F3", "F4", "F5", "Q", "F9")
    for R, gens in _random_ideals(13, specs):
        basis = buchberger(Ideal(R, gens)).basis
        coeffs = _nonzero_coeffs(R)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        h = R.monomial([rng.randrange(2) for _ in R.variables],
                       rng.choice(coeffs)) + R.one()
        i, j = rng.sample(range(len(gens)), 2)
        variants = {
            "shuffled": shuffled,
            "duplicated": gens + [rng.choice(gens), rng.choice(gens)],
            "scaled": [g.scale(rng.choice(coeffs)) for g in gens],
            "extended": gens + [h * gens[i] + gens[j]],
        }
        for name, variant in variants.items():
            assert buchberger(Ideal(R, variant)).basis == basis, \
                (name, gens, variant)


def test_an_input_in_the_ideal_of_those_before_it_adds_nothing(
        normal_form_calls):
    R = ring("Q", "x", "y", "z")
    f = R.parse("x*y-z")
    gb = buchberger(Ideal(R, [f, f * R.parse("x+1")]))
    assert gb.basis == (f,)
    assert len(normal_form_calls) == 2


# -- degree ideals of the sizes the membership benchmark reduces ------

_POOL_MAX_PRODUCTS = 60


def _minimal_products(weights, k):
    """Number of multisets of the weights (by index) whose sum reaches k and
    drops below k without its lightest member: a bound on the generators
    of I_k."""
    count = 0
    for size in range(1, k + 1):
        for ws in itertools.combinations_with_replacement(weights, size):
            count += sum(ws) >= k > sum(ws) - min(ws)
    return count


def _pool_degree_ideals(seed, specs, per_spec):
    """Degree ideals I_k of random saturated algebras in 2-3 variables,
    drawn as the membership benchmark draws them: one or two generators of
    one or two terms with exponents below 4 and weights 1-4, saturated,
    and k up to the top weight, with at most 60 minimal products."""
    rng = random.Random(seed)
    for spec in specs:
        drawn = 0
        while drawn < per_spec:
            nvars = rng.choice((2, 3))
            R = ring(spec, *("x", "y", "z")[:nvars])
            coeffs = _nonzero_coeffs(R)
            pairs = []
            for _ in range(rng.randrange(1, 3)):
                f = R.zero()
                while f.is_zero():
                    for _ in range(rng.randrange(1, 3)):
                        exps = [rng.randrange(4) for _ in range(nvars)]
                        f = f + R.monomial(exps, rng.choice(coeffs))
                pairs.append((f, rng.randrange(1, 5)))
            G = diff_saturate(ReesAlgebra.from_pairs(R, pairs))
            if G.is_empty() or G.max_weight < 2:
                continue
            k = rng.randrange(1, G.max_weight + 1)
            weights = [g.weight for g in G.generators]
            if _minimal_products(weights, k) > _POOL_MAX_PRODUCTS:
                continue
            drawn += 1
            yield R, list(degree_ideal(G, k).generators)


def test_degree_ideal_bases_are_reduced_bases():
    sizes = []
    for R, gens in _pool_degree_ideals(17, ("Q", "F2", "F3"), 40):
        _assert_reduced_basis(gens, list(buchberger(Ideal(R, gens)).basis))
        sizes.append(len(gens))
    # the pool's inputs, unlike the random ideals' 2-3 generators
    assert max(sizes) > 10, sizes


def test_degree_ideal_bases_match_sympy():
    for R, gens in _pool_degree_ideals(19, ("Q", "F2", "F3"), 20):
        assert set(buchberger(Ideal(R, gens)).basis) == \
            _sympy_basis(R, gens), gens


def test_an_s_polynomial_reaching_2_31_raises(monkeypatch):
    # the S-polynomial of these two has terms of total degree past 2^31:
    # refused at once, never wrapped into other entries, where a wrapped
    # computation runs on until the (lowered) basis cap
    monkeypatch.setattr("reeselim.budget.BASIS_ELEMENTS", 10)
    R = ring("F5", "x", "y", "z")
    f = R.parse("3*x^1073741821*y^2*z^1073741822+3*x*z^2")
    g = R.parse("3*x^1073741822*z^1073741822-x*y^1073741821*z^1073741821")
    with pytest.raises(RingError, match=r"total degree reaches the limit"):
        buchberger(Ideal(R, [f, g]))
