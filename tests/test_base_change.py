"""Base change as an oracle for the extension-field code: an algebra with
coefficients in F_p, read into F_{p^k}, must give the same text apart from
the ring header under every construction that uses only field operations.
The prime-field path is the simpler one, so a slip in the packed F_{p^k}
arithmetic shows up as a difference between the two."""
import random

import pytest

from reeselim import (FieldDescriptor, ReesAlgebra, RingContext, buchberger,
                      degree_ideal, diff_saturate, format_algebra,
                      parse_algebra)

# each extension with its prime field; F8's modulus makes t^3 carry into t^2
EXTENSIONS = [("F4", "F2"), ("F8:t^3+t^2+1", "F2"), ("F9", "F3")]


def _random_algebra_text(rng, spec):
    """A file over F_p with 1-2 generators of 1-3 terms and weights 1-3 in
    2-3 variables, as the membership workload draws them."""
    R = RingContext(FieldDescriptor.parse(spec),
                    ("X", "Y", "Z")[:rng.choice((2, 3))])
    units = [c for c in R.field.elements() if not c.is_zero()]
    pairs = []
    for _ in range(rng.randrange(1, 3)):
        f = R.zero()
        while f.is_zero():
            for _ in range(rng.randrange(1, 4)):
                exps = tuple(rng.randrange(4) for _ in R.variables)
                f = f + R.monomial(exps, rng.choice(units))
        pairs.append((f, rng.randrange(1, 4)))
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
