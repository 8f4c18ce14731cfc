"""Sparse multivariate polynomials over an exact field, plus the univariate
toolkit (division, gcd, radical) used by the ramification oracle.

Terms are kept in a dict keyed by exponent tuples, with the field's
canonical nonzero raw values, so equal polynomials have equal maps.
FieldElements are built only at the API boundary (`.terms` wraps the raw
map lazily); arithmetic hands its zero-free raw maps to `_from_raw`.

This is the one module that builds and reads exponent vectors, by
`grevlex_key` (the only order: grevlex over the declared variables),
`_divides`, `_product`, `_quotient`, `_lcm`, `_splice` (one entry set),
`_zero_key`, `_degree`, `_top_entry` and Hasse's `_binomial` and `_box`,
and that holds the raw term-map kernels: `_accumulate` (products summed
unreduced), `_reduced` (each value reduced once, zeros dropped),
`_sum_of_products` (the two over f_1*g_1 + ... + f_n*g_n), Groebner's
`_subtract` (work -= c*x^shift*tail), `_split` (by one variable's
exponent), the scan's `_fold` (x^q = x) and `_specialize` (first variable
set), and the transforms' `_chart`.  Other modules call these, or read
`.terms` and use public constructors; only elim's char_poly keys remain.

Substitution, the parser's sums and products of two multi-term factors
call `_sum_of_products`.  Coefficient arithmetic is the fields module's
(an F_{p^k} value is a packed int, so one loop serves every field).
Rings, like fields, have one instance each: ring checks are identity tests.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import compress, product
from math import comb, prod
from operator import add, le, sub
from types import MappingProxyType

from .fields import FieldElement, Immutable, _power

INFINITE_ORDER = math.inf
_degree = sum   # |e|, the total degree of x^e (an alias: no frame as a key)
# a variable name: the one pattern RingContext accepts and the parser reads
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
# a number: ASCII digits only, in the parser, a gen: weight and a field
# spec (int() would also read 1_0 and other scripts' digits)
_DIGITS = r"[0-9]+"


class RingError(ValueError):
    pass


class RingContext(Immutable):
    """A polynomial ring: a coefficient field and an ordered variable list.
    One instance per (field, variables): equal rings are the same object."""

    __slots__ = ("field", "variables", "_index")
    _instances = {}

    def __new__(cls, field, variables):
        variables = tuple(variables)
        key = (field, variables)
        ring = cls._instances.get(key)
        if ring is not None:
            return ring
        if not variables:
            raise RingError("ring needs at least one variable")
        for v in variables:
            if not re.fullmatch(_NAME, v):
                raise RingError("bad variable name %r: letters, digits and _, "
                                "not starting with a digit" % v)
        if len(set(variables)) != len(variables):
            raise RingError("variable names must be distinct")
        if field.k > 1 and "t" in variables:
            raise RingError("'t' names the generator of %s; pick another "
                            "variable name" % field.spec())
        ring = object.__new__(cls)
        object.__setattr__(ring, "field", field)
        object.__setattr__(ring, "variables", variables)
        object.__setattr__(ring, "_index", {v: i for i, v in enumerate(variables)})
        return cls._instances.setdefault(key, ring)

    @property
    def nvars(self):
        return len(self.variables)

    def var_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise RingError("unknown variable %r" % name) from None

    def coeff(self, value):
        return self.field.element(value)

    def zero(self):
        return Polynomial._from_raw(self, {})

    def one(self):
        # 1 is the raw one of every field, as in var
        return Polynomial._from_raw(self, {_zero_key(self.nvars): 1})

    def constant(self, value):
        v = self.coeff(value).val
        return Polynomial._from_raw(self, {_zero_key(self.nvars): v} if v else {})

    def var(self, name):
        e = _splice(_zero_key(self.nvars), self.var_index(name), 1)
        return Polynomial._from_raw(self, {e: 1})

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise RingError("exponent vector length mismatch")
        return Polynomial(self, {exps: coeff})

    def point(self, coords):
        return RationalPoint(self, coords)

    def origin(self):
        return RationalPoint(self, [0] * self.nvars)

    def drop_variable(self, name):
        """Ring with one variable removed (used by elimination)."""
        rest = [v for v in self.variables if v != name]
        self.var_index(name)
        if not rest:
            raise RingError("cannot drop %r, the ring's only variable" % name)
        return RingContext(self.field, rest)

    def parse(self, text):
        return parse_polynomial(self, text)

    def __repr__(self):
        return "RingContext(%s[%s])" % (self.field.spec(), ",".join(self.variables))


def grevlex_key(exps):
    """Sort key: bigger key means bigger monomial in grevlex."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _divides(a, b):
    """Whether the monomial x^a divides x^b."""
    return all(map(le, a, b))


def _product(a, b):
    """The exponents of x^a * x^b."""
    return tuple(map(add, a, b))


def _quotient(b, a):
    """The exponents of x^b / x^a, for x^a dividing x^b."""
    return tuple(map(sub, b, a))


def _lcm(a, b):
    """The exponents of lcm(x^a, x^b)."""
    return tuple(map(max, a, b))


def _splice(e, i, x):
    """The exponents e with entry i set to x."""
    return e[:i] + (x,) + e[i + 1:]


def _zero_key(n):
    """The exponents of the monomial 1 in n variables."""
    return (0,) * n


def _binomial(beta, alpha):
    """prod_i C(beta_i, alpha_i): 0, none computed, unless alpha <= beta."""
    return prod(map(comb, beta, alpha)) if all(map(le, alpha, beta)) else 0


def _box(beta, n, active):
    """The alpha <= beta with |alpha| < n, zero outside the indices in active,
    by increasing |alpha|, then lexicographically (as product yields them)."""
    tops = [min(b, n - 1) + 1 if i in active else 1
            for i, b in enumerate(beta)]
    return sorted([alpha for alpha in product(*map(range, tops))
                   if sum(alpha) < n], key=sum)


def _top_entry(raws):
    """The largest entry of any key of the raw term maps, 0 if none."""
    return max((max(e) for raw in raws for e in raw), default=0)


class RationalPoint(Immutable):
    """A point with coordinates in the coefficient field."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        coords = tuple(ring.coeff(c) for c in coords)
        if len(coords) != ring.nvars:
            raise RingError("coordinate count mismatch")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coords", coords)

    def __getitem__(self, name):
        return self.coords[self.ring.var_index(name)]

    def drop(self, name):
        """Projection forgetting one coordinate."""
        i = self.ring.var_index(name)
        return RationalPoint(self.ring.drop_variable(name),
                             self.coords[:i] + self.coords[i + 1:])

    def __eq__(self, other):
        return (isinstance(other, RationalPoint)
                and self.ring == other.ring and self.coords == other.coords)

    def __hash__(self):
        return hash((self.ring, self.coords))

    def __repr__(self):
        return "RationalPoint(%s)" % (", ".join(
            "%s=%s" % (v, c) for v, c in zip(self.ring.variables, self.coords)))


def _accumulate(raw, terms, other):
    """raw[e1 + e2] += v1 * v2, unreduced, over (e1, v1) in terms and (e2, v2)
    in other (in F_{p^k} a product is the unreduced convolution)."""
    for e1, v1 in terms:
        for e2, v2 in other:
            e = tuple(map(add, e1, e2))
            raw[e] = raw.get(e, 0) + v1 * v2


def _reduced(field, raw):
    """raw with each value reduced once by field.reduce, zeros dropped."""
    reduce = field.reduce
    return {e: r for e, v in raw.items() if (r := reduce(v))}


def _sum_of_products(ring, pairs):
    """f_1*g_1 + ... + f_n*g_n for the (f_i, g_i) in pairs, all in ring: one
    _accumulate per pair, then one _reduced."""
    raw = {}
    for f, g in pairs:
        _accumulate(raw, f._raw.items(), g._raw.items())
    return Polynomial._from_raw(ring, _reduced(ring.field, raw))


def _subtract(field, work, shift, c, tail):
    """work -= c * x^shift * tail on a raw term map, tail (e, v) pairs."""
    mul, plus = field.mul, field.add
    c = field.neg(c)
    for e, v in tail:
        e = tuple(map(add, e, shift))
        t = mul(c, v)
        old = work.get(e)
        if old is not None:
            t = plus(old, t)
            if not t:
                del work[e]
                continue
        work[e] = t


def _split(raw, i):
    """{d: the raw map of the terms whose entry i is d, with it set to 0}."""
    parts = {}
    for e, v in raw.items():
        parts.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = v
    return parts


def _fold(field, terms, q):
    """The raw term map of the same function on F_q^n with every exponent
    e >= q lowered to (e - 1) mod (q - 1) + 1, since x^q = x on F_q, merged
    terms reduced once.  A positive exponent stays positive, so 0^e keeps
    its value."""
    out = {}
    for e, c in terms.items():
        e = tuple(d if d < q else (d - 1) % (q - 1) + 1 for d in e)
        out[e] = out.get(e, 0) + c
    return _reduced(field, out)


def _specialize(field, terms, powers):
    """The raw term map with its first variable set to the value whose raw
    powers are given: keys lose their first entry, values are reduced once."""
    out = {}
    for e, c in terms.items():
        rest = e[1:]
        out[rest] = out.get(rest, 0) + c * powers[e[0]]
    return _reduced(field, out)


def _chart(raw, in_center, j, drop):
    """raw with entry j of each key set to its degree over a centre (the sum
    of the entries where in_center is true) less drop; None if one is < 0."""
    out = {}
    for e, v in raw.items():
        n = sum(compress(e, in_center)) - drop
        if n < 0:
            return None
        out[e[:j] + (n,) + e[j + 1:]] = v
    return out


class Polynomial(Immutable):
    """Sparse polynomial; `_raw` maps exponent tuples to nonzero raw values.
    The constructor checks the keys, coerces the values and drops zeros."""

    # _terms, _lm, _hash and groebner's _lead are cached on first use
    __slots__ = ("ring", "_raw", "_terms", "_lm", "_hash", "_lead")

    def __init__(self, ring, terms):
        n = ring.nvars
        raw = {}
        for e, c in terms.items():
            if not (isinstance(e, tuple) and len(e) == n and all(
                    isinstance(x, int) and x >= 0 for x in e)):
                raise RingError("key %r is not %d non-negative ints" % (e, n))
            if v := ring.coeff(c).val:
                raw[e] = v
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_raw", raw)

    @classmethod
    def _from_raw(cls, ring, raw):
        f = object.__new__(cls)
        object.__setattr__(f, "ring", ring)
        object.__setattr__(f, "_raw", raw)
        return f

    @property
    def terms(self):
        """A read-only term map with FieldElement values, built on first
        read: writing to it cannot leave it out of step with the raw map."""
        terms = getattr(self, "_terms", None)
        if terms is None:
            field = self.ring.field
            terms = MappingProxyType({e: FieldElement(field, v)
                                      for e, v in self._raw.items()})
            object.__setattr__(self, "_terms", terms)
        return terms

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingError("ring mismatch")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.ring.constant(other)
        return NotImplemented

    def is_zero(self):
        return not self._raw

    def __bool__(self):
        return bool(self._raw)

    def is_constant(self):
        return all(sum(e) == 0 for e in self._raw)

    def constant_value(self):
        return FieldElement(self.ring.field,
                            self._raw.get(_zero_key(self.ring.nvars), 0))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        plus = self.ring.field.add
        raw = dict(self._raw)
        for e, v in other._raw.items():
            if e in raw and not (v := plus(raw[e], v)):
                del raw[e]
            else:
                raw[e] = v
        return Polynomial._from_raw(self.ring, raw)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial._from_raw(
            self.ring, {e: neg(v) for e, v in self._raw.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """self * other.  A single-term factor c*x^e skips the kernel:
        shifting the other factor's exponents by e is injective, so nothing
        collides and the product is one pass over its terms, each value
        times c reduced once, or kept when c is 1 (the values are canonical);
        the constant 1 returns the other factor itself."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        mono, f = (self, other) if len(self._raw) == 1 else (other, self)
        if len(mono._raw) != 1:
            return _sum_of_products(self.ring, ((self, other),))
        ((e, c),) = mono._raw.items()
        if c == 1 and not any(e):   # 1 is the raw one of every field
            return f
        if len(f._raw) == 1 and f._raw.get(_zero_key(len(e))) == 1:
            return mono
        if c == 1:
            return Polynomial._from_raw(self.ring, {
                tuple(map(add, e, e2)): v for e2, v in f._raw.items()})
        reduce = self.ring.field.reduce
        return Polynomial._from_raw(self.ring, {
            tuple(map(add, e, e2)): reduce(c * v) for e2, v in f._raw.items()})

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise RingError("exponent %r is not an int" % (n,))
        if n < 0:
            raise RingError("negative polynomial power")
        return _power(Polynomial.__mul__, self, n, self.ring.one())

    def scale(self, c):
        mul, c = self.ring.field.mul, self.ring.coeff(c).val
        return Polynomial._from_raw(self.ring, {
            e: r for e, v in self._raw.items() if (r := mul(v, c))})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._raw == other._raw

    def __hash__(self):
        """Computed on first use and cached, like the leading monomial."""
        try:
            return self._hash
        except AttributeError:
            pass
        h = hash((self.ring, frozenset(self._raw.items())))
        object.__setattr__(self, "_hash", h)
        return h

    # -- queries ------------------------------------------------------

    def degree_in(self, var):
        i = self.ring.var_index(var)
        return max((e[i] for e in self._raw), default=-1)

    def order_at_origin(self):
        """Minimum total degree of the support; +inf for the zero polynomial."""
        if not self._raw:
            return INFINITE_ORDER
        return min(sum(e) for e in self._raw)

    def order_along(self, center_vars):
        """Minimum exponent sum over the center variables (a repeated name
        counts once); +inf for zero."""
        idx = {self.ring.var_index(v) for v in center_vars}
        if not idx:
            raise RingError("center must be nonempty")
        mask = [i in idx for i in range(self.ring.nvars)]   # as _chart reads
        return min((sum(compress(e, mask)) for e in self._raw),
                   default=INFINITE_ORDER)

    def initial_form(self):
        """Sum of terms of minimal total degree."""
        if not self._raw:
            raise RingError("zero polynomial has no initial form")
        d = self.order_at_origin()
        return Polynomial._from_raw(
            self.ring, {e: v for e, v in self._raw.items() if sum(e) == d})

    def order_at(self, point):
        """Order at a rational point (translate to origin, then at origin)."""
        return self.recenter(point).order_at_origin()

    def leading_monomial(self):
        """Greatest exponent tuple under grevlex, cached on first use (the
        term map never changes after construction)."""
        try:
            return self._lm
        except AttributeError:
            pass
        if not self._raw:
            raise RingError("zero polynomial has no leading monomial")
        lm = max(self._raw, key=grevlex_key)
        object.__setattr__(self, "_lm", lm)
        return lm

    def leading_coefficient(self):
        return FieldElement(self.ring.field, self._raw[self.leading_monomial()])

    # -- substitution -------------------------------------------------

    def substitute(self, mapping):
        """Simultaneous substitution variable -> polynomial (same ring).

        Each image's powers are built once, in increasing exponent order,
        each from the one before: one product per distinct exponent when
        the exponents are consecutive.  The first substituted variable's
        terms are visited in that order, so only its current power is kept;
        the other images' powers are kept whole.  Every term's product is
        summed by one _sum_of_products call, so a degree-d polynomial costs
        O(d^2) coefficient products, not O(d^3)."""
        ring = self.ring
        images = {}
        for name, image in mapping.items():
            i = ring.var_index(name)
            if isinstance(image, Polynomial):
                if image.ring != ring:
                    raise RingError("substitution image in a different ring")
            else:
                image = ring.constant(image)
            images[i] = image
        if not images:
            return self
        outer, *inner = sorted(images)
        powers = {}   # (i, e) -> images[i]**e, for each inner variable i
        for i in inner:
            power, prev = ring.one(), 0
            for e in sorted({exps[i] for exps in self._raw} - {0}):
                power = powers[i, e] = _power(Polynomial.__mul__, images[i],
                                              e - prev, power)
                prev = e

        def pairs():
            power, prev = ring.one(), 0
            for exps, v in sorted(self._raw.items(), key=lambda t: t[0][outer]):
                # a repeated exponent is a zeroth power: no product
                power = _power(Polynomial.__mul__, images[outer],
                               exps[outer] - prev, power)
                prev = exps[outer]
                part = Polynomial._from_raw(ring, {tuple(
                    0 if i in images else e for i, e in enumerate(exps)): v})
                for i in inner:
                    if exps[i]:
                        part = part * powers[i, exps[i]]
                yield part, power

        return _sum_of_products(ring, pairs())

    def evaluate(self, point):
        if point.ring != self.ring:
            raise RingError("ring mismatch")
        total = self.ring.field.zero()
        for exps, coeff in self.terms.items():
            v = coeff
            for c, e in zip(point.coords, exps):
                if e:
                    v = v * c**e
            total = total + v
        return total

    def recenter(self, point):
        """f(x + P): shifts the point to the origin."""
        if point.ring != self.ring:
            raise RingError("ring mismatch")
        mapping = {}
        for name, c in zip(self.ring.variables, point.coords):
            if not c.is_zero():
                mapping[name] = self.ring.var(name) + self.ring.constant(c)
        if not mapping:
            return self
        return self.substitute(mapping)

    def project_out(self, var):
        """Image in the ring without var; requires no dependence on var."""
        i = self.ring.var_index(var)
        target = self.ring.drop_variable(var)
        raw = {}
        for e, v in self._raw.items():
            if e[i] != 0:
                raise RingError("polynomial depends on %r" % var)
            raw[e[:i] + e[i + 1:]] = v
        return Polynomial._from_raw(target, raw)

    def lift(self, ring):
        """Image in a bigger ring containing all of this ring's variables."""
        pos = [ring.var_index(v) for v in self.ring.variables]
        terms = {}
        for e, c in self.terms.items():
            exps = [0] * ring.nvars
            for p, x in zip(pos, e):
                exps[p] = x
            terms[tuple(exps)] = c
        return Polynomial(ring, terms)

    # -- univariate toolkit -------------------------------------------

    def coefficients_in(self, var):
        """List of coefficient polynomials [c_0, ..., c_d] viewing self in var."""
        parts = _split(self._raw, self.ring.var_index(var))
        return [Polynomial._from_raw(self.ring, parts.get(d, {}))
                for d in range(max(parts, default=-1) + 1)]

    def is_monic_in(self, var):
        """Whether the coefficient of the top power of var is 1; reads only
        the terms, so the cost does not grow with the degree."""
        i = self.ring.var_index(var)
        d = self.degree_in(var)
        top = [(e, v) for e, v in self._raw.items() if e[i] == d]
        return (len(top) == 1 and sum(top[0][0]) == d
                and top[0][1] == 1)   # the raw one of every field

    def __repr__(self):
        return "Polynomial(%s)" % format_polynomial(self)

    def __str__(self):
        return format_polynomial(self)


def univ_divmod(f, g, var):
    """Division of f by g, monic in var: f = q*g + r with deg_var(r) < deg_var(g).
    A step that does not lower the degree in var raises ArithmeticError."""
    if f.ring != g.ring:
        raise RingError("ring mismatch")
    ring = f.ring
    if not g.is_monic_in(var):
        raise RingError("divisor is not monic in %r" % var)
    i = ring.var_index(var)
    dg = g.degree_in(var)
    q = ring.zero()
    r, dr = f, f.degree_in(var)
    while dr >= dg:
        step = Polynomial._from_raw(ring, {_splice(e, i, dr - dg): v
                                           for e, v in r._raw.items()
                                           if e[i] == dr})
        q = q + step
        r = r - step * g
        last, dr = dr, r.degree_in(var)
        if dr >= last:   # cannot happen while the product is right
            raise ArithmeticError("division step left the degree in %r at %d"
                                  % (var, dr))
    return q, r


def _monic_in(f, var):
    """f != 0 over its top coefficient in var, which must be a constant."""
    lead = f.coefficients_in(var)[-1]
    if not lead.is_constant():
        raise RingError("gcd requires univariate input")
    return f.scale(lead.constant_value().inverse())


def univ_gcd(f, g, var):
    """Monic gcd of two polynomials univariate in var over their field."""
    if not g:
        return _monic_in(f, var) if f else f
    a, b = f, g
    while b:
        b = _monic_in(b, var)
        a, b = b, univ_divmod(a, b, var)[1]
    return a


def formal_derivative(f, var):
    """d/d(var), the ordinary (not Hasse) derivative."""
    i = f.ring.var_index(var)
    mul, element = f.ring.field.mul, f.ring.field.element
    return Polynomial._from_raw(f.ring, {
        _splice(e, i, e[i] - 1): d for e, v in f._raw.items()
        if e[i] and (d := mul(v, element(e[i]).val))})


def _only_variable(f):
    used = {i for e in f._raw for i, x in enumerate(e) if x}
    if len(used) > 1:
        raise RingError("polynomial is not univariate")
    return f.ring.variables[used.pop() if used else 0]


def univ_radical(f):
    """Product of the distinct monic irreducible factors of a univariate f
    over a finite field, peeling p-th powers via coefficient p-th roots.

    The degree of the result is the number of distinct roots of f in the
    algebraic closure.
    """
    ring = f.ring
    if ring.field.p == 0:
        raise RingError("radical implemented over finite fields only")
    if f.is_zero():
        raise RingError("radical of the zero polynomial")
    var = _only_variable(f)
    if f.degree_in(var) == 0:
        return ring.one()
    f = _monic_in(f, var)
    deriv = formal_derivative(f, var)
    if deriv.is_zero():
        # f = h(var^p); take p-th roots of coefficients and recurse
        i = ring.var_index(var)
        return univ_radical(Polynomial(ring, {
            _splice(e, i, e[i] // ring.field.p): c.pth_root()
            for e, c in f.terms.items()}))
    g = univ_gcd(f, deriv, var)
    sqfree, rem = univ_divmod(f, g, var)
    assert rem.is_zero()
    if g.degree_in(var) == 0:
        return sqfree
    # distinct factors of f = distinct factors of (f/g) joined with those of g
    rad_g = univ_radical(g)
    prod = sqfree * rad_g
    return univ_divmod(prod, univ_gcd(sqfree, rad_g, var), var)[0]


# -- text format ------------------------------------------------------

_TOKEN = re.compile(r"\s*(%s/%s|%s|%s|\^|\*|\+|-|\(|\))"
                    % (_DIGITS, _DIGITS, _DIGITS, _NAME))


def parse_polynomial(ring, text):
    """Parse `Z^2 + Y^5`, `-3*X*Z1^2` style syntax in the given ring."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise RingError("bad polynomial syntax near %r" % text[pos:])
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise RingError("empty polynomial text")

    tokens.append(None)   # the end: reading past the text gives None
    at = 0   # the cursor: tokens[at] is the next token

    def parse_factor():
        nonlocal at
        tok = tokens[at]
        at += 1
        if tok == "(":
            base = parse_sum()
            if tokens[at] != ")":
                raise RingError("unbalanced parentheses")
            at += 1
        elif tok is None:
            raise RingError("unexpected end of polynomial")
        elif tok in ("^", "*", "+", "-", ")"):
            raise RingError("unexpected %r in polynomial text" % tok)
        elif tok.replace("/", "").isdigit():
            try:
                base = ring.constant(Fraction(tok) if "/" in tok else int(tok))
            except ZeroDivisionError:
                raise RingError("zero denominator in %r" % tok) from None
        elif tok in ring.variables:
            base = ring.var(tok)
        elif tok == "t" and ring.field.k > 1:
            base = ring.constant(ring.field.generator())
        else:
            raise RingError("undeclared name %r" % tok)
        if tokens[at] == "^":
            exp = tokens[at + 1]
            if exp is None or not exp.isdigit():
                raise RingError("bad exponent")
            at += 2
            base = base**int(exp)
        return base

    def parse_sum():
        nonlocal at
        terms = []
        while not terms or tokens[at] in ("+", "-"):
            sign = 1
            while tokens[at] in ("+", "-"):
                if tokens[at] == "-":
                    sign = -sign
                at += 1
            f = parse_factor()
            while tokens[at] is not None and tokens[at] not in "+-)":
                if tokens[at] == "*":
                    at += 1
                f = f * parse_factor()
            terms.append(f if sign == 1 else -f)
        if len(terms) == 1:
            return terms[0]
        # one kernel pass: adding term by term would copy the running sum
        one = ring.one()
        return _sum_of_products(ring, ((term, one) for term in terms))

    try:
        result = parse_sum()
    except RecursionError:   # two calls per level of parentheses
        raise RingError("parentheses nested too deeply") from None
    if tokens[at] is not None:
        raise RingError("trailing tokens in polynomial text")
    return result


def _format_coeff(c):
    s = str(c)
    if "+" in s or "-" in s[1:]:
        return "(%s)" % s
    return s


def format_polynomial(f):
    if f.is_zero():
        return "0"
    one = f.ring.field.one()
    parts = []
    for exps in sorted(f.terms, key=grevlex_key, reverse=True):
        c = f.terms[exps]
        factors = []
        for v, e in zip(f.ring.variables, exps):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append("%s^%d" % (v, e))
        if not factors:
            body = _format_coeff(c)
        elif c == one:
            body = "*".join(factors)
        elif c == -one and f.ring.field.p != 2:
            body = "-" + "*".join(factors)
        else:
            body = _format_coeff(c) + "*" + "*".join(factors)
        parts.append(body)
    out = parts[0]
    for part in parts[1:]:
        out += part if part.startswith("-") else "+" + part
    return out
