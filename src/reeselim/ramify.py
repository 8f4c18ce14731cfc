"""Pure ramification versus the vanishing of generalized discriminants.

A monic input is a list of monic-in-Z factors f_1, ..., f_r; the product h
of degree b cuts a hypersurface finite over the base.  The fiber over a base
point P is purely ramified when the specialized product has a single root
a, i.e. h(P, a + T) = T^b: (P, a) is then a common zero of the Hasse
derivatives Delta_Z^j h, j < b.  Frobenius fixes a unique root, so a is
rational and the ramified base points are the projection of that zero set.
The generalized discriminants are the elimination algebra of the algebra
spanned by (f_i, deg f_i); Theorem 1.16 says the two zero sets agree.
"""

from .elim import eliminate
from .fields import Immutable
from .groebner import Ideal, rational_zero_set
from .hasse import hasse_derivatives
from .poly import RingError, univ_radical
from .rees import ReesAlgebra, ReesError, ReesGenerator, is_singular_at


class MonicInput(Immutable):
    """Monic-in-z_var factors over a common ring; b is the total degree."""

    __slots__ = ("ring", "z_var", "factors", "degrees")

    def __init__(self, ring, z_var, factors):
        ring.var_index(z_var)
        if not factors:
            raise ReesError("need at least one factor")
        degs = []
        for f in factors:
            if f.ring != ring:
                raise RingError("factor in a different ring")
            if not f.is_monic_in(z_var):
                raise ReesError("factor %s is not monic in %s" % (f, z_var))
            degs.append(f.degree_in(z_var))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "z_var", z_var)
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "degrees", tuple(degs))

    @property
    def b(self):
        return sum(self.degrees)

    def product(self):
        out = self.ring.one()
        for f in self.factors:
            out = out * f
        return out

    def base_ring(self):
        return self.ring.drop_variable(self.z_var)


class RamificationReport(Immutable):
    __slots__ = ("points_scanned", "ramified_points", "discriminant_zero_points",
                 "agree", "counterexamples", "zero_algebra")

    def __init__(self, points_scanned, ramified_points, discriminant_zero_points,
                 counterexamples, zero_algebra):
        object.__setattr__(self, "points_scanned", points_scanned)
        object.__setattr__(self, "ramified_points", frozenset(ramified_points))
        object.__setattr__(self, "discriminant_zero_points",
                           frozenset(discriminant_zero_points))
        object.__setattr__(self, "counterexamples", tuple(counterexamples))
        object.__setattr__(self, "agree", not counterexamples)
        object.__setattr__(self, "zero_algebra", zero_algebra)

    def format_text(self):
        lines = ["points scanned: %d" % self.points_scanned,
                 "purely ramified: %d" % len(self.ramified_points),
                 "discriminants vanish: %d" % len(self.discriminant_zero_points),
                 "agreement: %s" % ("yes" if self.agree else "NO")]
        if self.zero_algebra:
            lines.append("note: zero elimination algebra "
                         "(discriminants vanish everywhere)")
        for pt in self.counterexamples[:10]:
            lines.append("counterexample: %r" % (pt,))
        return "\n".join(lines) + "\n"


def purely_ramified_at(inp, point):
    """True iff the specialized product over the base point has exactly one
    root in the algebraic closure (radical of degree 1).  A per-point check;
    ``verify_thm_1_16`` finds the same points by a scan."""
    ring = inp.ring
    base = inp.base_ring()
    if point.ring != base:
        raise RingError("point must lie in the base ring")
    mapping = {v: ring.constant(point[v]) for v in base.variables}
    special = inp.product().substitute(mapping)
    rad = univ_radical(special)
    return rad.degree_in(inp.z_var) == 1


def generalized_discriminants(inp):
    """Elimination algebra of the span of (f_i, deg f_i), eliminating z_var
    against the first factor.

    May legitimately come out empty (all coefficients vanish); callers should
    treat that as "the discriminants vanish at every point"."""
    gens = [ReesGenerator(f, d) for f, d in zip(inp.factors, inp.degrees)]
    G = ReesAlgebra(inp.ring, gens)
    result = eliminate(G, gens[0], inp.z_var, check_transversal=False)
    return result.algebra


def verify_thm_1_16(inp):
    """Compare the purely ramified rational base points with the common
    zeros of the generalized discriminants.

    Both sets come from one projection scan each: the discriminants' zero
    set in the base, and the projection of the zero set of the Z-Hasse
    derivatives of order < b of the product.  Counterexamples (the points
    in exactly one set) are listed with coordinates ordered as in
    ``field.elements()``."""
    base = inp.base_ring()
    disc = generalized_discriminants(inp)
    # an empty (zero) elimination algebra vanishes at every point
    vanishing = rational_zero_set(
        Ideal(base, [g.poly for g in disc.generators]))
    fiber = hasse_derivatives(inp.product(), inp.b, [inp.z_var]).values()
    ramified = {P.drop(inp.z_var)
                for P in rational_zero_set(Ideal(inp.ring, fiber))}
    index = base.field._scan_table()[1]
    counterexamples = sorted(ramified ^ vanishing,
                             key=lambda P: [index[c.val] for c in P.coords])
    return RamificationReport(base.field.order**base.nvars, ramified,
                              vanishing, counterexamples, disc.is_empty())


def verify_thm_1_16_ii(inp, point):
    """At a b-fold point of the hypersurface, every generalized discriminant
    of weight w must have order >= w at the projected base point.  Returns
    whether that holds."""
    if point.ring != inp.ring:
        raise RingError("point must lie in the full ring")
    product = inp.product()
    if product.order_at(point) != inp.b:
        raise ReesError("point is not a %d-fold point of the hypersurface"
                        % inp.b)
    base_point = point.drop(inp.z_var)
    disc = generalized_discriminants(inp)
    return is_singular_at(disc, base_point)
