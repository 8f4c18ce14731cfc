"""Library refusals that no CLI input reaches: each raises its own error
type with its own message, and component_order answers the empty algebra
with INFINITE_ORDER."""
import pytest

from reeselim import (INFINITE_ORDER, FieldDescriptor, FieldError, Ideal,
                      MonicInput, MultiplicationMatrix, RationalPoint,
                      ReesAlgebra, ReesError, ResourceCapError, RingContext,
                      RingError, char_poly, component_order,
                      diff_closure_list, e0_invariant, eliminate,
                      hasse_derivative, ideal_equal, membership,
                      purely_ramified_at, slope_equivalent, univ_divmod,
                      verify_thm_1_16_ii)

F2, F3 = FieldDescriptor.parse("F2"), FieldDescriptor.parse("F3")
A = RingContext(F2, ("x", "y"))
B = RingContext(F3, ("x", "y"))   # A's names over another field
Q = RingContext(FieldDescriptor.parse("Q"), ("x", "y"))   # and over Q
# A's points lie in neither INPUT's base ring F2[x] nor its ring F2[x,Z]
AZ = RingContext(F2, ("x", "Z"))
X, BX = A.var("x"), B.var("x")
G = ReesAlgebra.from_pairs(A, [(X, 1)])
INPUT = MonicInput(AZ, "Z", [AZ.parse("Z^2+x")])
# entries of Q[x,y], and z of Q[z], for the multiplication matrices
QX, QY, Q1, Q2 = Q.var("x"), Q.var("y"), Q.one(), Q.constant(2)
QZ = RingContext(Q.field, ("z",)).var("z")
MATRIX = "need a nonempty square matrix over one ring"


def refusal(name, error, message, call):
    return pytest.param(error, message, call, id=name)


@pytest.mark.parametrize("error,message,call", [
    refusal("eliminate-ring", RingError, "ring mismatch",
            lambda: eliminate(G, (B.var("y"), 1), "y")),
    refusal("slope-equivalent-ring", RingError, "ring mismatch",
            lambda: slope_equivalent(
                G, ReesAlgebra.from_pairs(B, [(BX, 1)]))),
    refusal("membership-ring", RingError, "ring mismatch",
            lambda: membership(BX, Ideal(A, [X]))),
    refusal("ideal-equal-ring", RingError, "ring mismatch",
            lambda: ideal_equal(Ideal(A, [X]), Ideal(B, [BX]))),
    refusal("ideal-generator-ring", RingError,
            "generator in a different ring", lambda: Ideal(A, [X, BX])),
    refusal("sum-ring", RingError, "ring mismatch", lambda: X + BX),
    refusal("difference-ring", RingError, "ring mismatch", lambda: X - BX),
    refusal("product-ring", RingError, "ring mismatch", lambda: X * BX),
    refusal("substitute-image-ring", RingError,
            "substitution image in a different ring",
            lambda: X.substitute({"x": BX})),
    refusal("evaluate-ring", RingError, "ring mismatch",
            lambda: X.evaluate(B.point([0, 0]))),
    refusal("recenter-ring", RingError, "ring mismatch",
            lambda: X.recenter(B.point([0, 0]))),
    refusal("e0-over-q-point-ring", RingError, "ring mismatch",
            lambda: e0_invariant(
                ReesAlgebra.from_pairs(Q, [(Q.var("x"), 1)]), A.origin())),
    refusal("univ-divmod-ring", RingError, "ring mismatch",
            lambda: univ_divmod(X, BX, "x")),
    refusal("characteristic-0-extension", FieldError,
            "characteristic 0 requires extension degree 1",
            lambda: FieldDescriptor(0, 2)),
    refusal("characteristic-0-modulus", FieldError,
            "characteristic 0 admits no modulus",
            lambda: FieldDescriptor(0, 1, (1, 1))),
    refusal("prime-field-modulus", FieldError, "prime field takes no modulus",
            lambda: FieldDescriptor(5, 1, (1, 1))),
    refusal("prime-field-generator", FieldError,
            "prime field has no extension generator",
            lambda: FieldDescriptor.parse("F5").generator()),
    refusal("ring-without-variables", RingError,
            "ring needs at least one variable", lambda: RingContext(F2, [])),
    refusal("point-coordinate-count", RingError, "coordinate count mismatch",
            lambda: RationalPoint(A, [A.coeff(1)])),
    refusal("hasse-index-length", RingError, "multi-index length mismatch",
            lambda: hasse_derivative(X, (1,))),
    refusal("hasse-index-negative", RingError,
            "multi-index entries must be non-negative",
            lambda: hasse_derivative(X, (-1, 0))),
    # x and 1 at each weight up to 10^20: the list is charged, and
    # refused, before any pair is listed
    refusal("closure-list-pairs", ResourceCapError,
            "SATURATION_PAIRS cap exceeded: 199999999999999999999 > 1048576 "
            "(no pair listed)", lambda: diff_closure_list(X, 10**20)),
    refusal("monic-input-no-factors", ReesError, "need at least one factor",
            lambda: MonicInput(AZ, "Z", [])),
    refusal("monic-input-factor-ring", RingError,
            "factor in a different ring",
            lambda: MonicInput(AZ, "Z", [
                RingContext(F3, ("x", "Z")).var("Z")])),
    refusal("purely-ramified-point-ring", RingError,
            "point must lie in the base ring",
            lambda: purely_ramified_at(INPUT, A.point([0, 0]))),
    refusal("thm-1-16-ii-point-ring", RingError,
            "point must lie in the full ring",
            lambda: verify_thm_1_16_ii(INPUT, A.point([0, 0]))),
    # char_poly reads a matrix's size and its entries' ring from the
    # constructor's rows: a 2x3 matrix would answer for its leading 2x2
    # block, a 3x2 one raise IndexError, a mixed-ring one answer in the
    # first entry's ring and an empty one have no ring
    refusal("mult-matrix-wide", RingError, MATRIX,
            lambda: char_poly(MultiplicationMatrix(
                None, [[QX, QY, Q1], [Q2, QX, QY]]))),
    refusal("mult-matrix-tall", RingError, MATRIX,
            lambda: char_poly(MultiplicationMatrix(
                None, [[QX, QY], [Q2, QX], [Q1, Q1]]))),
    refusal("mult-matrix-mixed-ring", RingError, MATRIX,
            lambda: char_poly(MultiplicationMatrix(
                None, [[QX, QZ], [Q2, QX]]))),
    refusal("mult-matrix-empty", RingError, MATRIX,
            lambda: char_poly(MultiplicationMatrix(None, []))),
])
def test_library_refusal_names_its_error(error, message, call):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_component_order_of_the_empty_algebra_is_infinite():
    assert component_order(ReesAlgebra(A, []), 1, A.origin()) == \
        INFINITE_ORDER
