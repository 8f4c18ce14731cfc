"""Ideals with Groebner-based membership and finite-field point scans.

Buchberger under grevlex with the normal selection strategy (smallest
lcm first) and full inter-reduction.  S-pairs are skipped by Buchberger's
two criteria: coprime leading monomials, and the chain criterion
(Cox-Little-O'Shea §2.10).  Leading monomials are cached on the
polynomials, so reduction does not recompute them.  The reduced basis is
unique, so neither changes an answer.  A hard cap on the basis size,
``BASIS_CAP``, turns runaway computations into a clean error that reports
the progress made.

A monomial ideal skips the pair loop: every S-polynomial of two monomials
is zero, so its reduced basis is its minimal monomials made monic, read
off by ``minimal_exponents`` (which ``rees.degree_ideal`` shares).

Rational zero sets over a finite field come from a projection scan that
fixes one coordinate at a time and abandons a branch as soon as a
generator specializes to a nonzero constant.  It specializes raw values
and reduces once per output coefficient, as the product kernel does;
only the emitted points hold FieldElements.  The branches of each scan,
the ramification check's included, count against ``SCAN_BUDGET``;
exceeding it raises ``ResourceCapError`` (CLI exit 3).
"""
from __future__ import annotations

import heapq
from operator import le

from .fields import Immutable, convolve_into
from .poly import Polynomial, RationalPoint, RingError, grevlex_key

BASIS_CAP = 10_000
SCAN_BUDGET = 10**6


class ResourceCapError(RuntimeError):
    pass


class Ideal(Immutable):
    """Finitely generated ideal; zero generators are dropped."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingError("generator in a different ring")
            if not g.is_zero():
                gens.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(gens))

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.generators)


class GroebnerBasis(Immutable):
    __slots__ = ("ideal", "basis")

    def __init__(self, ideal, basis):
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "basis", tuple(basis))

    @property
    def ring(self):
        return self.ideal.ring

    def __repr__(self):
        return "GroebnerBasis(%s)" % ", ".join(str(g) for g in self.basis)


def _divides(a, b):
    return all(map(le, a, b))


def _lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(f, basis):
    """Remainder of f on full reduction by the basis (a list of polynomials)."""
    if not basis:
        return f
    ring = f.ring
    leads = [(g.leading_monomial(), g.leading_coefficient(), g) for g in basis]
    remainder = ring.zero()
    work = f
    while not work.is_zero():
        lm = work.leading_monomial()
        lc = work.terms[lm]
        for glm, glc, g in leads:
            if _divides(glm, lm):
                quot_exp = tuple(x - y for x, y in zip(lm, glm))
                factor = ring.monomial(quot_exp, lc / glc)
                work = work - factor * g
                break
        else:
            head = ring.monomial(lm, lc)
            remainder = remainder + head
            work = work - head
    return remainder


def _s_polynomial(f, g):
    ring = f.ring
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _lcm(lf, lg)
    mf = ring.monomial(tuple(a - b for a, b in zip(lcm, lf)),
                       f.leading_coefficient().inverse())
    mg = ring.monomial(tuple(a - b for a, b in zip(lcm, lg)),
                       g.leading_coefficient().inverse())
    return mf * f - mg * g


def buchberger(ideal):
    """Reduced Groebner basis under grevlex, normal selection strategy
    (smallest lcm first, via a heap keyed at pair creation).  A monomial
    ideal's reduced basis is its minimal monomials, monic, in grevlex
    order."""
    if all(len(g.terms) == 1 for g in ideal.generators):
        one = ideal.ring.field.one()
        return GroebnerBasis(ideal, [
            Polynomial(ideal.ring, {e: one}) for e in
            minimal_exponents(next(iter(g.terms)) for g in ideal.generators)])
    seen = set()
    basis = []
    for g in ideal.generators:
        g = g.scale(g.leading_coefficient().inverse())
        if g not in seen:
            seen.add(g)
            basis.append(g)
    heap = []
    pending = set()   # pairs (i, j), i < j, still on the heap
    reductions = 0

    def push_pairs(new):
        lm_new = basis[new].leading_monomial()
        for k in range(new):
            lcm = _lcm(basis[k].leading_monomial(), lm_new)
            heapq.heappush(heap, (grevlex_key(lcm), k, new))
            pending.add((k, new))

    def treated(a, b):
        return (min(a, b), max(a, b)) not in pending

    for n in range(len(basis)):
        push_pairs(n)
    while heap:
        _, i, j = heapq.heappop(heap)
        pending.remove((i, j))
        f, g = basis[i], basis[j]
        lf, lg = f.leading_monomial(), g.leading_monomial()
        lcm = _lcm(lf, lg)
        # Buchberger's first criterion: disjoint leading supports
        if lcm == tuple(a + b for a, b in zip(lf, lg)):
            continue
        # second (chain) criterion, CLO 2.10: lm(basis[k]) divides the lcm
        # and both pairs (i, k) and (j, k) are already treated
        if any(k != i and k != j and _divides(h.leading_monomial(), lcm)
               and treated(i, k) and treated(j, k)
               for k, h in enumerate(basis)):
            continue
        s = normal_form(_s_polynomial(f, g), basis)
        reductions += 1
        if s.is_zero():
            continue
        s = s.scale(s.leading_coefficient().inverse())
        basis.append(s)
        if len(basis) > BASIS_CAP:
            raise ResourceCapError(
                "Groebner basis reached %d elements > cap %d after %d S-pair "
                "reductions, %d pairs pending"
                % (len(basis), BASIS_CAP, reductions, len(pending)))
        push_pairs(len(basis) - 1)
    return GroebnerBasis(ideal, _interreduce(basis))


def minimal_exponents(exps):
    """The distinct exponent vectors not divisible by another one, in
    increasing grevlex order: the minimal generators of a monomial ideal."""
    kept = []
    # a proper divisor has smaller total degree, so it is kept first
    for e in sorted(set(exps), key=grevlex_key):
        if not any(_divides(d, e) for d in kept):
            kept.append(e)
    return kept


def minimal_leads(polys):
    """The polynomials sorted by grevlex leading monomial, without those whose
    leading monomial is divisible by that of one kept before them."""
    kept = []
    for g in sorted(polys, key=lambda g: grevlex_key(g.leading_monomial())):
        lm = g.leading_monomial()
        if not any(_divides(h.leading_monomial(), lm) for h in kept):
            kept.append(g)
    return kept


def _interreduce(basis):
    # remove redundant leading monomials, then fully reduce each element
    kept = minimal_leads(basis)
    reduced = []
    for i, g in enumerate(kept):
        rest = kept[:i] + kept[i + 1:]
        r = normal_form(g, rest) if rest else g
        if not r.is_zero():
            reduced.append(r.scale(r.leading_coefficient().inverse()))
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return reduced


def membership(f, gb):
    """True iff the normal form of f modulo the basis is zero."""
    if f.ring != gb.ring:
        raise RingError("ring mismatch")
    return normal_form(f, list(gb.basis)).is_zero()


def ideal_equal(I, J):
    """Equality of ideals via identical reduced Groebner bases."""
    if I.ring != J.ring:
        raise RingError("ring mismatch")
    gi = buchberger(I)
    gj = buchberger(J)
    return list(gi.basis) == list(gj.basis)


def rational_zero_set(ideal):
    """All rational points of the (finite) coefficient field where every
    generator vanishes, by a projection scan.

    The scan fixes one coordinate at a time.  Each branch specializes the
    surviving generators, as raw term maps, to the remaining variables,
    with raw powers of the field elements read from a table built once per
    scan; each output coefficient is summed unreduced and reduced once.
    It drops the generators that become zero and is abandoned as soon as
    one becomes a nonzero constant; a point is emitted only when every
    coordinate is fixed.  Every branch visited counts against
    ``SCAN_BUDGET``.
    """
    ring = ideal.ring
    field = ring.field
    if field.p == 0:
        raise RingError("point scan needs a finite coefficient field")
    nvars = ring.nvars
    if field.order > SCAN_BUDGET:
        raise ResourceCapError(
            "point scan exceeds budget %d: the first of %d coordinates "
            "alone has %d values" % (SCAN_BUDGET, nvars, field.order))
    gens = [{e: c.val for e, c in g.terms.items()}
            for g in ideal.generators]
    top = max((max(e) for t in gens for e in t), default=0)
    elements = field.elements()
    one = field.one().val
    powers = []   # powers[i][e] == elements[i].val**e for e <= top, raw
    for c in elements:
        row = [one]
        for _ in range(top):
            row.append(field.mul(row[-1], c.val))
        powers.append(row)
    points = set()
    prefix = []
    visited = 0

    def scan(gens):
        nonlocal visited
        if len(prefix) == nvars:
            points.add(RationalPoint(ring, prefix))
            return
        for c, row in zip(elements, powers):
            visited += 1
            if visited > SCAN_BUDGET:
                raise ResourceCapError(
                    "point scan exceeds budget %d: %d branches visited, "
                    "%d of %d coordinates fixed"
                    % (SCAN_BUDGET, visited, len(prefix) + 1, nvars))
            special = []
            for t in gens:
                s = _specialize(field, t, row)
                if len(s) == 1 and not any(next(iter(s))):
                    break   # a nonzero constant: no point on this branch
                if s:
                    special.append(s)
            else:
                prefix.append(c)
                scan(special)
                prefix.pop()

    scan(gens)
    return points


def _specialize(field, terms, powers):
    """The raw term map with its first variable set to the value whose raw
    powers are given: keys lose their first entry.  Each output coefficient
    is summed unreduced (in F_{p^k} an unreduced convolution), reduced once,
    and dropped if zero."""
    out = {}
    if field.k == 1:
        for e, c in terms.items():
            rest = e[1:]
            out[rest] = out.get(rest, 0) + c * powers[e[0]]
        p = field.p
        return {e: r for e, v in out.items() if (r := v % p)}
    width = 2 * field.k - 1
    for e, c in terms.items():
        rest = e[1:]
        conv = out.get(rest)
        if conv is None:
            conv = out[rest] = [0] * width
        convolve_into(conv, powers[e[0]], c)
    reduce = field.reduce
    # a tuple of zeros is truthy, so test its entries
    return {e: r for e, v in out.items() if any(r := reduce(v))}
