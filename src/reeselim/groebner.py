"""Ideals with Groebner-based membership and finite-field point scans.

Buchberger under grevlex with the normal selection strategy (smallest
lcm first) and full inter-reduction.  The inputs, one at a time, and then
the S-polynomials are reduced by the basis built so far, and only a
nonzero remainder joins it, so an input already in the ideal makes no
pair.  S-pairs are pruned once, when an element joins the basis, by the
Gebauer-Moeller update (Becker-Weispfenning's UPDATE).  Reduction and the
S-polynomials run on raw term maps by poly's kernel ``_subtract``.  A
monomial is poly's int key, whose int order is grevlex: a leading
monomial is the greatest key, and divisibility is one guard-bit test.
Each divisor caches its leading key, inverse leading coefficient and raw
terms, and buchberger keeps those of its live divisors in one list, which
normal_form takes with no checks.  The reduced basis is unique, so none of
this changes an answer.  A limit on the basis size,
``budget.BASIS_ELEMENTS``, checked on every element added, turns runaway
computations into a clean error that reports the progress made.

Every Groebner basis comes from ``buchberger``, tau's linear ones too.  Its
one shortcut is a basis the ideal carries (``rees.degree_ideal``'s minimal
monomials of an all-monomial I_k); any other monomial ideal runs the pair
loop, where every S-polynomial is zero, and counts against that limit.

Rational zero sets over a finite field F_q come from a projection scan
that fixes one coordinate at a time and abandons a branch as soon as a
generator specializes to a nonzero constant.  It first folds every
exponent e >= q to (e - 1) mod (q - 1) + 1 (x^q = x on F_q) by poly's
kernel ``_fold``, then runs on discrete logarithms to the base of a
generator g of F_q^* (``FieldDescriptor._log_table``): each generator's
terms are keyed by ``_fields``' entry fields and valued by logs, so
setting a coordinate to g^l is a sum of logs mod q - 1 per term and one
Zech lookup per merged pair (``_specialize``), with no reduce.  Only the
emitted points hold FieldElements.  The branches of each scan, the
ramification check's included, count against ``budget.SCAN_BRANCHES``;
exceeding it raises ``ResourceCapError`` (CLI exit 3).
A generator a*X + b in the next coordinate X alone pins X to -b/a, so
only that value is visited; the values it skips still count, one branch
each, so the cap falls exactly where visiting every value of the folded
generators would put it.
"""
from __future__ import annotations

import heapq

from . import budget
from .budget import ResourceCapError
from .fields import FieldElement, Immutable
from .poly import (Polynomial, RationalPoint, RingError, _check_key,
                   _divides, _fields, _fold, _guard, _lcm, _specialize,
                   _subtract, _top_entry)


class Ideal(Immutable):
    """Finitely generated ideal; zero generators are dropped.  An ideal
    whose generators are already its reduced Groebner basis may carry them
    as _basis (rees.degree_ideal sets it), which buchberger returns."""

    __slots__ = ("ring", "generators", "_basis")

    def __init__(self, ring, generators):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingError("generator in a different ring")
            if not g.is_zero():
                gens.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(gens))

    @classmethod
    def _trusted(cls, ring, generators):
        """Build from nonzero generators already in ring, with no checks:
        rees.degree_ideal's monomials and products."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "ring", ring)
        object.__setattr__(ideal, "generators", tuple(generators))
        return ideal

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


def _lead(g):
    """(leading key, raw inverse of lc, raw non-leading terms) of a nonzero
    g: what reducing by g needs.  Cached on first use."""
    lead = getattr(g, "_lead", None)
    if lead is None:
        lm = max(g._raw)
        lead = (lm, g.ring.field.inv(g._raw[lm]),
                [(e, v) for e, v in g._raw.items() if e != lm])
        object.__setattr__(g, "_lead", lead)
    return lead


class _Leads(list):
    """The _lead triples of nonzero divisors in one ring, gathered by
    buchberger from its own basis, so that normal_form takes them in place
    of a basis with no checks."""

    __slots__ = ()


def normal_form(f, basis):
    """Remainder of f on full reduction by the basis (a list of nonzero
    polynomials in f's ring, or buchberger's _Leads), on raw term maps.
    Each step takes the greatest key left and the first divisor whose
    leading key divides it, by the guard-bit test.  A step whose leading
    key is not below the one before raises ArithmeticError, where a wrong
    kernel would loop forever."""
    ring = f.ring
    if isinstance(basis, _Leads):
        leads = basis
    else:
        for i, g in enumerate(basis):
            if g.ring != ring:
                raise RingError("ring mismatch")
            if not g._raw:
                raise RingError("divisor %d of the basis is zero" % i)
        leads = [_lead(g) for g in basis]
    field = ring.field
    mul = field.mul
    guard = _guard(ring.nvars)
    work = dict(f._raw)
    remainder = {}
    last = 1 << 32 * ring.nvars + 31   # above every key: degrees < 2^31
    while work:
        lm = max(work)
        if lm >= last:   # cannot happen while the kernels are right
            raise ArithmeticError("normal form step did not lower the "
                                  "leading monomial")
        last = lm
        lc = work.pop(lm)
        for glm, ginv, tail in leads:
            if glm - lm + guard & guard == guard:
                _subtract(field, work, lm - glm, mul(lc, ginv), tail)
                break
        else:
            remainder[lm] = lc
    return Polynomial._from_raw(ring, remainder)


def buchberger(ideal):
    """Reduced Groebner basis under grevlex, normal selection strategy
    (smallest lcm first, via a heap keyed at pair creation) and the
    Gebauer-Moeller pair update, which skips a new pair with coprime leading
    monomials before its lcm test.  The inputs, smallest leading monomial
    first as Becker-Weispfenning insert them, and then the S-polynomials
    take one path, ``insert``.  The basis comes out monic in grevlex order.
    A basis the ideal carries is returned as it is; every other ideal, a
    monomial one included, runs the pair loop."""
    carried = getattr(ideal, "_basis", None)
    if carried is not None:
        return GroebnerBasis(ideal, carried)
    ring = ideal.ring
    field = ring.field
    nvars, guard = ring.nvars, _guard(ring.nvars)
    one = field.one().val
    minus_one = field.neg(one)
    basis = []  # monic, in the order they were added
    lms = []    # their leading keys
    live = []   # indices of the elements that take new pairs and reduce
    leads = _Leads()   # their _lead triples, in the same order
    heap = []   # [the lcm's key, i, j, dropped], i < j
    reductions, limit = 0, budget.BASIS_ELEMENTS

    def update(h):
        """Gebauer-Moeller on adding h: drop the old pairs h makes
        redundant, skip the new pairs with coprime leading monomials, keep
        the other new pairs of minimal lcm (one per lcm), and pair no later
        element with those whose leading monomial lm(h) divides."""
        lm_h = lms[h]
        for pair in heap:
            lcm, i, j, dropped = pair
            if (not dropped and _divides(lm_h, lcm, guard)
                    and lcm != _lcm(lms[i], lm_h, nvars)
                    and lcm != _lcm(lms[j], lm_h, nvars)):
                pair[3] = True
        lcms = [_lcm(lms[g], lm_h, nvars) for g in live]
        kept = []   # lcms of the new pairs kept
        for n, g in enumerate(live):
            lcm = lcms[n]
            # coprime: the S-polynomial reduces to zero, and lcm divides no
            # other new lcm, as no live leading monomial divides another
            if lcm == lms[g] + lm_h:
                continue
            if not any(_divides(m, lcm, guard) for m in kept + lcms[n + 1:]):
                kept.append(lcm)
                heapq.heappush(heap, [lcm, g, h, False])
        live[:] = [g for g in live if not _divides(lm_h, lms[g], guard)]
        live.append(h)
        leads[:] = [_lead(basis[g]) for g in live]

    def insert(g):
        """Reduce g by the live elements; a nonzero remainder joins the
        basis monic, under the cap, and updates the pairs."""
        nonlocal reductions
        g = normal_form(g, leads)
        reductions += 1
        if g.is_zero():
            return
        basis.append(g.scale(g.leading_coefficient().inverse()))
        if len(basis) > limit:
            raise ResourceCapError(
                "BASIS_ELEMENTS", len(basis), limit,
                "after %d reductions, %d pairs pending"
                % (reductions, sum(not pair[3] for pair in heap)))
        lms.append(max(basis[-1]._raw))
        update(len(basis) - 1)

    # a duplicate input, or one already in the ideal of those before it,
    # reduces to zero and makes no pair
    for g in sorted(ideal.generators, key=lambda g: max(g._raw)):
        insert(g)
    while heap:
        lcm, i, j, dropped = heapq.heappop(heap)
        if dropped:
            continue
        # the basis is monic, so the S-polynomial is x^a*tail_i - x^b*tail_j
        lf, _, tf = _lead(basis[i])
        lg, _, tg = _lead(basis[j])
        s = {}
        _subtract(field, s, lcm - lf, minus_one, tf)
        _subtract(field, s, lcm - lg, one, tg)
        if s:
            _check_key(max(s), nvars)
        insert(Polynomial._from_raw(ring, s))
    return GroebnerBasis(ideal, _interreduce([basis[g] for g in live]))


def minimal_exponents(keys, n):
    """The distinct monomial keys, in n variables, not divisible by another
    one, in increasing (grevlex) order: the minimal generators of a monomial
    ideal."""
    guard = _guard(n)
    kept = []
    # a proper divisor has smaller total degree, so it is kept first
    for e in sorted(set(keys)):
        if not any(d - e + guard & guard == guard for d in kept):
            kept.append(e)
    return kept


def _interreduce(live):
    # no live leading monomial divides another (each joins reduced by the
    # live ones, and update drops those its own divides), so fully reducing
    # each monic element by the others keeps its leading term and the order
    live = sorted(live, key=lambda g: max(g._raw))
    if len(live) < 2:
        return live
    leads = [_lead(g) for g in live]
    return [normal_form(g, _Leads(leads[:i] + leads[i + 1:]))
            for i, g in enumerate(live)]


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

    First every exponent e >= q is folded to (e - 1) mod (q - 1) + 1,
    since x^q = x on F_q: each generator keeps its value at every point,
    and one that folds to zero is dropped.  The scan then runs on the
    field's discrete logarithms: each coefficient c is held as log c, to
    the base of a generator g of F_q^*.  It fixes one coordinate at a
    time.  Each branch specializes the surviving generators to the
    remaining variables: at x = g^l a term c*x^e becomes log c + e*l mod
    (q - 1), terms that meet are summed by one Zech lookup and deleted
    when they cancel, and at x = 0 only the terms free of x are kept.  It
    drops the generators that become zero and is abandoned as soon as one
    becomes a nonzero constant; a point is emitted, as raw values, only
    when every coordinate is fixed.

    When a surviving generator is a*X + b in the next coordinate X alone,
    only its root X = -b/a, whose log is log(-1) + log b - log a, is
    visited: every other value makes it a nonzero constant.  Every value
    counts against ``budget.SCAN_BRANCHES`` as one branch in enumeration
    order, the skipped ones included: those up to the root before its
    subtree, the rest after it.  So the limit is reached, and reported,
    exactly where visiting every value of the folded generators would
    reach it; folding can make a generator a nonzero constant, or linear,
    sooner, so it can only lower the count.
    """
    ring = ideal.ring
    field = ring.field
    if field.p == 0:
        raise RingError("point scan needs a finite coefficient field")
    nvars, q, limit = ring.nvars, field.order, budget.SCAN_BRANCHES
    if q > limit:   # refused before the field's tables of q entries
        raise ResourceCapError("SCAN_BRANCHES", q, limit, "none visited, "
                               "%d coordinates of %d values" % (nvars, q))
    gens = [g._raw for g in ideal.generators]
    if _top_entry(gens, nvars) >= q:
        gens = [t for t in (_fold(field, t, q, nvars) for t in gens) if t]
    raw, index = field._scan_table()
    exp, log, zech, minus = field._log_table()
    m = q - 1
    # keyed by entry fields (X is 1 and the monomial 1 is 0 at every
    # level), valued by logs
    gens = [{e: log[v] for e, v in _fields(t, nvars).items()} for t in gens]
    points = set()
    prefix = []
    visited = 0

    def charge(branches):
        nonlocal visited
        visited += branches
        if visited > limit:   # reached at branch limit + 1 in enumeration
            raise ResourceCapError("SCAN_BRANCHES", limit + 1, limit,
                                   "%d of %d coordinates fixed"
                                   % (len(prefix) + 1, nvars))

    def scan(gens):
        fixed = len(prefix)
        if fixed == nvars:
            points.add(RationalPoint(
                ring, [FieldElement(field, v) for v in prefix]))
            return
        root = None
        for t in gens:
            if 1 in t and (len(t) == 1 or len(t) == 2 and 0 in t):
                # b = 0 (no constant term) makes the root 0
                root = index[exp[(minus + t[0] - t[1]) % m]] if 0 in t else 0
                break
        if root is None:
            values = range(q)
        else:
            charge(root)   # the values before the root
            values = (root,)
        for i in values:
            charge(1)
            at = log.get(raw[i])   # None at 0
            special = []
            for t in gens:
                s = _specialize(t, at, m, zech)
                if len(s) == 1 and 0 in s:
                    break   # a nonzero constant: no point on this branch
                if s:
                    special.append(s)
            else:
                prefix.append(raw[i])
                scan(special)
                prefix.pop()
        if root is not None:
            charge(q - 1 - root)   # the values after it

    scan(gens)
    return points

