"""Pure ramification versus the vanishing of generalized discriminants.

A monic input is a list of monic-in-Z factors f_1, ..., f_r; the product f
of degree b cuts a hypersurface finite over the base.  The fiber over a base
point P is purely ramified when the specialized product has a single root,
i.e. its radical has degree 1.  The generalized discriminants are the
elimination algebra of the algebra spanned by (f_i, deg f_i), and the two
notions detect the same base points.
"""
from __future__ import annotations

import itertools

from . import groebner
from .elim import eliminate
from .fields import Immutable
from .groebner import Ideal, ResourceCapError, rational_zero_set
from .poly import RationalPoint, RingError, univ_radical
from .rees import ReesAlgebra, ReesError, ReesGenerator


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
    root in the algebraic closure (radical of degree 1)."""
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


def _base_points(base):
    field = base.field
    if field.p == 0:
        raise RingError("point scan needs a finite coefficient field")
    count = field.order**base.nvars
    budget = groebner.SCAN_BUDGET   # read per call, so raising it works here
    if count > budget:
        raise ResourceCapError("scan of %d points exceeds budget %d"
                               % (count, budget))
    return (RationalPoint(base, coords) for coords
            in itertools.product(field.elements(), repeat=base.nvars))


def verify_thm_1_16(inp):
    """Scan every rational base point and compare pure ramification with the
    simultaneous vanishing of the generalized discriminants."""
    base = inp.base_ring()
    disc = generalized_discriminants(inp)
    points = _base_points(base)
    # an empty (zero) elimination algebra vanishes at every point
    vanishing = rational_zero_set(
        Ideal(base, [g.poly for g in disc.generators]))
    ramified, counterexamples = set(), []
    scanned = 0
    for point in points:
        scanned += 1
        is_ram = purely_ramified_at(inp, point)
        if is_ram:
            ramified.add(point)
        if is_ram != (point in vanishing):
            counterexamples.append(point)
    return RamificationReport(scanned, ramified, vanishing,
                              counterexamples, disc.is_empty())


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
    return all(g.poly.order_at(base_point) >= g.weight
               for g in disc.generators)
