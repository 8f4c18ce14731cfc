"""Sparse multivariate polynomials over an exact field, plus the univariate
toolkit (division, gcd, radical) used by the ramification oracle.

Terms are kept in a dict keyed by one int per monomial, with the field's
canonical nonzero raw values, so equal polynomials have equal maps.
FieldElements are built only at the API boundary (`.terms` wraps the raw
map lazily); arithmetic hands its zero-free raw maps to `_from_raw`.

The key of x^e in n variables is |e|*2^(32n) - sum_i e_i*2^(32i), the
packed exponent vectors of Monagan & Pearce 2007, one 32-bit field per
entry under the total degree.  Every key has total degree |e| below 2^31,
so every entry is too.  Then
  - int order is grevlex, the only order (the total degree first, then
    the smaller last entry), so a leading monomial is the greatest key;
  - x^a*x^b is a + b and x^b/x^a is b - a, and the monomial 1 is 0 in
    every ring;
  - x^a divides x^b iff (a - b + G) & G == G, G = sum_i 2^(32i+31);
  - entry i is (-key >> 32i) & (2^32 - 1).
Two entries below 2^31 never carry, so a sum of keys is exact even when
its degree reaches 2^31; every polynomial built is checked once, on its
leading key (the constructor, each product as the sum of the two leading
keys, powers, Groebner's S-polynomials, division's steps, the charts,
degree ideals' monomial levels, and elim's companion steps and decode).
A total degree of 2^31 or more raises RingError; it never wraps.

The boundary keeps exponent tuples: the constructor and
`RingContext.monomial` take them, `.terms` and `leading_monomial()` give
them, and Hasse multi-indices are tuples.  The parser and
`format_polynomial` keep their text but run on int keys inside: the parser
computes on raw term maps and builds one Polynomial per text, and the
formatter walks the keys in int order.  This is the one module that packs
and reads keys: `_key` and `_exps` convert, `_entry`, `_columns`, `_unit`,
`_guard`, `_divides`, `_lcm`, `_center_mask`, `_fits` and `_check_key`
read and build them (hasse itself computes which multi-indices a term
reaches, and their binomials).  It holds the raw term-map kernels:
`_reduced` (each value reduced once, zeros dropped), `_sum_of_products`
(the one place raw products are summed: a start map plus a_1*b_1 + ... +
a_n*b_n, summed unreduced, then one `_reduced`), `_product` (one product,
a single-term factor as a shift of the other's keys) and `_raw_power`,
`_subtract` (work -= c*x^shift*tail, the one reduction kernel: Groebner's
reductions and S-polynomials and `univ_divmod`'s steps), `_split` (by one
variable's exponent), `_project_out` (one variable's entry taken out of
every key: `project_out` and elim's h_j), the scan's `_fields` (its one
input pass: keys to entry fields, x^q = x, values to logs) and
`_specialize` (first variable set, on logs), and the transforms' `_chart`.
Other modules call these, or read `.terms` and use public constructors;
groebner and rees add, subtract and compare keys, and elim's char_poly
lifts and decodes them.

Substitution, elim's companion steps and its raw char polys call
`_sum_of_products`; products and powers, of Polynomials and in the parser,
call `_product` and `_raw_power`.
Coefficient arithmetic and text are the fields module's (an F_{p^k} value
is a packed int, so one loop serves every field).
Rings, like fields, have one instance each: ring checks are identity tests.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from .fields import FieldElement, Immutable, _integer, _power, _text

INFINITE_ORDER = math.inf
_MASK = (1 << 32) - 1   # one entry's field of a key
_MAX_DEGREE = (1 << 31) - 1   # the largest total degree of a key
# a variable name: the one pattern RingContext accepts and the parser reads
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
# a number: ASCII digits only, in the parser, a gen: weight and a field
# spec (int() would also read 1_0 and other scripts' digits)
_DIGITS = r"[0-9]+"
# a signed integer: a gen: weight and an integer CLI option
_INTEGER = re.compile("[+-]?" + _DIGITS)


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
        # 1 is the raw one of every field, as in var; the monomial 1 is key 0
        return Polynomial._from_raw(self, {0: 1})

    def constant(self, value):
        v = self.coeff(value).val
        return Polynomial._from_raw(self, {0: v} if v else {})

    def var(self, name):
        return Polynomial._from_raw(
            self, {_unit(self.var_index(name), self.nvars): 1})

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
    """Sort key of an exponent tuple: bigger key means bigger monomial in
    grevlex, the order of the int keys."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _key(e):
    """The key of the exponent tuple e: |e|*2^(32n) - sum_i e_i*2^(32i).
    Exact for entries of any size, so an e of total degree 2^31 or more
    gives a key that _check_key refuses."""
    low = 0
    for x in reversed(e):
        low = (low << 32) + x
    return (sum(e) << 32 * len(e)) - low


def _exps(k, n):
    """The exponent tuple of the key k in n variables."""
    m = -k
    return tuple([m >> s & _MASK for s in range(0, 32 * n, 32)])


def _entry(k, i):
    """Entry i of the key k."""
    return -k >> 32 * i & _MASK


def _columns(keys, n):
    """{i: [entry i of each of the keys]} for each i < n where some key has
    a nonzero entry: the variables the keys use."""
    neg = [-k for k in keys]
    used = 0
    for m in neg:
        used |= m   # the low 32n bits of -k hold its entries
    return {i: [m >> s & _MASK for m in neg]
            for i, s in enumerate(range(0, 32 * n, 32)) if used >> s & _MASK}


def _unit(i, n):
    """The key of the variable x_i in n variables; x_i^d is d times it."""
    return (1 << 32 * n) - (1 << 32 * i)


@cache
def _ones(n):
    """sum_i 2^(32i) over the n entries' fields."""
    return ((1 << 32 * n) - 1) // _MASK


def _guard(n):
    """The guard bits G = sum_i 2^(32i+31) in n variables: x^a divides x^b
    iff (a - b + G) & G == G, since each entry's field then holds
    b_i - a_i + 2^31, which has bit 31 set iff b_i >= a_i."""
    return _ones(n) << 31


def _lcm(a, b, n):
    """The key of lcm(x^a, x^b) in n variables, field by field: the guard
    bits of a - b + G pick the fields where b's entry is the larger, and
    |lcm| = |a| + |b| - |gcd|, whose digit sum cannot carry."""
    g, s, full = _guard(n), 32 * n, (1 << 32 * n) - 1
    pick = ((a - b + g & g) >> 31) * _MASK   # b_i >= a_i: b's field
    sa, sb = -a, -b
    low = (sa & pick | sb & ~pick) & full
    degree = (-(sa >> s) - (sb >> s)
              - (low * _ones(n) >> s - 32 & _MASK))
    return (degree << s) - ((sb & pick | sa & ~pick) & full)


def _divides(a, b, guard):
    """Whether x^a divides x^b, with guard = _guard(n) of their ring."""
    return a - b + guard & guard == guard


def _fits(k, n):
    """Whether the key k in n variables has total degree below 2^31: then,
    and only then, k is at most (2^31 - 1)*2^(32n), however large the
    entries it was packed from."""
    return k <= _MAX_DEGREE << 32 * n


def _check_key(k, n):
    """Refuse the key k in n variables unless its total degree is below
    2^31."""
    if not _fits(k, n):
        raise RingError("total degree reaches the limit 2^31")


def _center_mask(indices, n):
    """The entries at the given indices, as a mask on -key."""
    return sum(_MASK << 32 * i for i in indices)


def _center_degree(k, mask, n):
    """The sum of the entries of k that mask keeps: one product by
    sum_i 2^(32i) sums them in the top field, and no field carries, since
    every partial sum is at most |e| < 2^31."""
    return (-k & mask) * _ones(n) >> 32 * (n - 1) & _MASK


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


def _reduced(field, raw):
    """raw with each value reduced once by field.reduce, zeros dropped."""
    reduce = field.reduce
    return {e: r for e, v in raw.items() if (r := reduce(v))}


def _sum_of_products(field, pairs, n, raw=None):
    """raw plus a*b over the (a, b) pairs of raw term maps in n variables,
    raw a new map when None: each nonzero product is checked on its
    leading key, max(a) + max(b), before it is taken, the products are
    summed unreduced (in F_{p^k} a product is the unreduced convolution)
    and each value is reduced once, zeros dropped, into a new map.  It
    writes into raw, so a caller passes a map that nothing else reads."""
    if raw is None:
        raw = {}
    for a, b in pairs:
        if a and b:
            _check_key(max(a) + max(b), n)
            b = b.items()
            for e1, v1 in a.items():
                for e2, v2 in b:
                    e = e1 + e2
                    raw[e] = raw.get(e, 0) + v1 * v2
    return _reduced(field, raw)


def _product(field, a, b, n):
    """a*b on raw term maps in n variables, checked on its leading key.  A
    single-term factor c*x^e skips _sum_of_products: shifting the other
    factor's keys by e is injective, so nothing collides and the product is
    one pass over its terms, each value times c reduced once, or kept when
    c is 1 (the values are canonical); the constant 1 gives back the other
    map itself."""
    mono, f = (a, b) if len(a) == 1 else (b, a)
    if len(mono) != 1:
        return _sum_of_products(field, ((a, b),), n)
    ((e, c),) = mono.items()
    if c == 1 and not e:   # 1 is the raw one of every field
        return f
    if len(f) == 1 and f.get(0) == 1:
        return mono
    if f:
        _check_key(e + max(f), n)
    if c == 1:
        return {e + e2: v for e2, v in f.items()}
    reduce = field.reduce
    return {e + e2: reduce(c * v) for e2, v in f.items()}


def _raw_power(field, raw, d, n):
    """raw^d on raw term maps in n variables, checked on its leading key, d
    times raw's, before any product, then square-and-multiply under
    _product: a single term's power takes at most 2*log2(d) shifts."""
    if raw:
        _check_key(d * max(raw), n)
    return _power(lambda a, b: _product(field, a, b, n), raw, d, {0: 1})


def _subtract(field, work, shift, c, tail):
    """work -= c * x^shift * tail on a raw term map, tail (e, v) pairs."""
    mul, plus = field.mul, field.add
    c = field.neg(c)
    for e, v in tail:
        e += shift
        t = mul(c, v)
        old = work.get(e)
        if old is not None:
            t = plus(old, t)
            if not t:
                del work[e]
                continue
        work[e] = t


def _split(raw, i, n):
    """{d: the raw map of the terms whose entry i is d, with it set to 0},
    for keys in n variables."""
    parts = {}
    unit = _unit(i, n)
    for e, v in raw.items():
        d = -e >> 32 * i & _MASK
        parts.setdefault(d, {})[e - d * unit] = v
    return parts


def _project_out(raw, i, var):
    """raw with entry i, which must be 0 in every key, taken out of each
    key: the map in the ring without that variable, named var in the
    RingError a nonzero entry raises."""
    below, s = (1 << 32 * i) - 1, 32 * i
    out = {}
    for e, v in raw.items():
        m = -e
        if m >> s & _MASK:
            raise RingError("polynomial depends on %r" % var)
        # the entries above i move down one field, and so does |e|
        out[-((m >> s + 32 << s) + (m & below))] = v
    return out


def _fields(field, raw, q, n, log):
    """The point scan's view of the raw term map in n variables over F_q,
    in one pass: each term keyed by its entry fields sum_i e_i*2^(32i), the
    low 32n bits of -key (the first entry is the lowest field, the key of
    the other entries is the rest shifted down one field, x_1 is 1 and the
    monomial 1 is 0 in every ring), with every entry e >= q lowered to
    (e - 1) mod (q - 1) + 1, since x^q = x on F_q.  One guard-bit test per
    term finds such an entry: adding 2^31 - q to every field sets bit 31 of
    those that reach q (a q above 2^31, which no entry reaches, can at most
    send a term through the fold unchanged).  A positive entry stays
    positive, so 0^e keeps its value and the map keeps f's value at every
    point.  Merged terms are summed unreduced, each value is reduced once,
    zeros are dropped and the rest are valued by log (field._log_table's)."""
    full, guard, m = (1 << 32 * n) - 1, _guard(n), q - 1
    over = ((1 << 31) - q) * _ones(n)
    out = {}
    for e, v in raw.items():
        e = -e & full
        if e + over & guard:
            e = sum((d if d < q else (d - 1) % m + 1) << s
                    for s in range(0, 32 * n, 32) for d in (e >> s & _MASK,))
        out[e] = out.get(e, 0) + v
    reduce = field.reduce
    return {e: log[r] for e, v in out.items() if (r := reduce(v))}


def _specialize(terms, l, m, zech):
    """A _fields map (each value c stands for g^c, g of order m = q - 1 in
    F_q, zech its Zech table) with its first variable set to 0 when l is
    None and to g^l otherwise: each key loses its first field.  At 0 only
    the terms whose first entry is 0 are kept.  At g^l a term c*x^a becomes
    g^(c + a*l), for any a >= 0, and terms that meet are summed by one
    lookup, g^u + g^c = g^(u + zech[c - u]), and deleted when they
    cancel."""
    if l is None:
        return {e >> 32: c for e, c in terms.items() if not e & _MASK}
    out = {}
    for e, c in terms.items():
        rest = e >> 32
        c = (c + (e & _MASK) * l) % m
        u = out.get(rest)
        if u is None:
            out[rest] = c
        elif (z := zech[(c - u) % m]) is None:
            del out[rest]
        else:
            out[rest] = (u + z) % m
    return out


def _chart(raw, mask, j, drop, n):
    """raw with entry j of each key set to its degree over a centre (the sum
    of the entries that _center_mask's mask keeps) less drop; None if one is
    < 0.  The output is checked on its leading key.  j must be in the
    centre: then two keys that differ keep different images, while with j
    outside it two keys that differ only at j would meet."""
    out = {}
    unit = _unit(j, n)
    for e, v in raw.items():
        d = _center_degree(e, mask, n) - drop
        if d < 0:
            return None
        out[e + (d - _entry(e, j)) * unit] = v
    if out:
        _check_key(max(out), n)
    return out


class Polynomial(Immutable):
    """Sparse polynomial; `_raw` maps monomial keys to nonzero raw values.
    The constructor takes exponent tuples: it checks and packs them, refuses
    a total degree of 2^31 or more, coerces the values and drops zeros."""

    # _terms, _hash and groebner's _lead are cached on first use
    __slots__ = ("ring", "_raw", "_terms", "_hash", "_lead")

    def __init__(self, ring, terms):
        n = ring.nvars
        raw = {}
        for e, c in terms.items():
            if not (isinstance(e, tuple) and len(e) == n and all(
                    isinstance(x, int) and x >= 0 for x in e)):
                raise RingError("key %r is not %d non-negative ints" % (e, n))
            if v := ring.coeff(c).val:
                raw[_key(e)] = v
        if raw:
            _check_key(max(raw), n)
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
            field, n = self.ring.field, self.ring.nvars
            terms = MappingProxyType({_exps(e, n): FieldElement(field, v)
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
        return self._raw.keys() <= {0}

    def constant_value(self):
        return FieldElement(self.ring.field, self._raw.get(0, 0))

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
        """self * other by _product: the constant 1 returns the other
        factor itself."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = self.ring
        raw = _product(ring.field, self._raw, other._raw, ring.nvars)
        if raw is self._raw:
            return self
        if raw is other._raw:
            return other
        return Polynomial._from_raw(ring, raw)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise RingError("exponent %r is not an int" % (n,))
        if n < 0:
            raise RingError("negative polynomial power")
        ring = self.ring
        raw = _raw_power(ring.field, self._raw, n, ring.nvars)
        return self if raw is self._raw else Polynomial._from_raw(ring, raw)

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
        s = 32 * self.ring.var_index(var)
        return max((-e >> s & _MASK for e in self._raw), default=-1)

    def order_at_origin(self):
        """Minimum total degree of the support; +inf for the zero polynomial.
        The least key has it."""
        if not self._raw:
            return INFINITE_ORDER
        return -(-min(self._raw) >> 32 * self.ring.nvars)

    def order_along(self, center_vars):
        """Minimum exponent sum over the center variables (a repeated name
        counts once); +inf for zero."""
        idx = {self.ring.var_index(v) for v in center_vars}
        if not idx:
            raise RingError("center must be nonempty")
        n = self.ring.nvars
        mask = _center_mask(idx, n)   # as _chart reads it
        return min((_center_degree(e, mask, n) for e in self._raw),
                   default=INFINITE_ORDER)

    def initial_form(self):
        """Sum of terms of minimal total degree d: the keys up to d*2^(32n)."""
        if not self._raw:
            raise RingError("zero polynomial has no initial form")
        top = self.order_at_origin() << 32 * self.ring.nvars
        return Polynomial._from_raw(
            self.ring, {e: v for e, v in self._raw.items() if e <= top})

    def order_at(self, point):
        """Order at a rational point (translate to origin, then at origin)."""
        return self.recenter(point).order_at_origin()

    def leading_monomial(self):
        """Greatest exponent tuple under grevlex: the greatest key's."""
        if not self._raw:
            raise RingError("zero polynomial has no leading monomial")
        return _exps(max(self._raw), self.ring.nvars)

    def leading_coefficient(self):
        if not self._raw:
            raise RingError("zero polynomial has no leading coefficient")
        return FieldElement(self.ring.field, self._raw[max(self._raw)])

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
        n = ring.nvars
        terms = sorted(((_exps(e, n), e, v) for e, v in self._raw.items()),
                       key=lambda t: t[0][outer])
        powers = {}   # (i, e) -> images[i]**e, for each inner variable i
        for i in inner:
            power, prev = ring.one(), 0
            for e in sorted({exps[i] for exps, _, _ in terms} - {0}):
                power = powers[i, e] = _power(Polynomial.__mul__, images[i],
                                              e - prev, power)
                prev = e
        units = {i: _unit(i, n) for i in images}

        def pairs():
            power, prev = ring.one(), 0
            for exps, e, v in terms:
                # a repeated exponent is a zeroth power: no product
                power = _power(Polynomial.__mul__, images[outer],
                               exps[outer] - prev, power)
                prev = exps[outer]
                part = Polynomial._from_raw(ring, {
                    e - sum(exps[i] * unit for i, unit in units.items()): v})
                for i in inner:
                    if exps[i]:
                        part = part * powers[i, exps[i]]
                yield part._raw, power._raw

        return Polynomial._from_raw(
            ring, _sum_of_products(ring.field, pairs(), n))

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
        return self.substitute(mapping)

    def project_out(self, var):
        """Image in the ring without var; requires no dependence on var."""
        i = self.ring.var_index(var)
        target = self.ring.drop_variable(var)
        return Polynomial._from_raw(target, _project_out(self._raw, i, var))

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
        parts = _split(self._raw, self.ring.var_index(var), self.ring.nvars)
        return [Polynomial._from_raw(self.ring, parts.get(d, {}))
                for d in range(max(parts, default=-1) + 1)]

    def is_monic_in(self, var):
        """Whether the coefficient of the top power of var is 1; reads only
        the terms, so the cost does not grow with the degree."""
        i = self.ring.var_index(var)
        d = self.degree_in(var)
        top = [(e, v) for e, v in self._raw.items() if _entry(e, i) == d]
        # var^d alone, with the raw one of every field
        return top == [(d * _unit(i, self.ring.nvars), 1)]

    def __repr__(self):
        return "Polynomial(%s)" % format_polynomial(self)

    def __str__(self):
        return format_polynomial(self)


def univ_divmod(f, g, var):
    """Division of f by g, monic in var: f = q*g + r with deg_var(r) < deg_var(g),
    on raw term maps.  Each step moves r's terms c*x^e of top degree in var
    to q as c*x^(e - s), x^s = var^deg_var(g), cancels them by _subtract,
    r -= c*x^(e - s)*g, and checks r's leading key.  A step that does not
    lower the degree in var raises ArithmeticError."""
    if f.ring != g.ring:
        raise RingError("ring mismatch")
    ring = f.ring
    if not g.is_monic_in(var):
        raise RingError("divisor is not monic in %r" % var)
    field, n, i = ring.field, ring.nvars, ring.var_index(var)
    dg = g.degree_in(var)
    shift = dg * _unit(i, n)   # the key of var^dg
    q, r, dr = {}, dict(f._raw), f.degree_in(var)
    while dr >= dg:
        for e, c in [(e, c) for e, c in r.items() if _entry(e, i) == dr]:
            q[e - shift] = c
            _subtract(field, r, e - shift, c, g._raw.items())
        _check_key(max(r, default=0), n)
        last, dr = dr, max([_entry(e, i) for e in r], default=-1)
        if dr >= last:   # cannot happen while the kernel is right
            raise ArithmeticError("division step left the degree in %r at %d"
                                  % (var, dr))
    return Polynomial._from_raw(ring, q), Polynomial._from_raw(ring, r)


def _monic_in(f, var):
    """f != 0 over its top coefficient in var, which must be a constant."""
    lead = f.coefficients_in(var)[-1]
    if not lead.is_constant():
        raise RingError("gcd requires univariate input")
    return f.scale(lead.constant_value().inverse())


def univ_gcd(f, g, var):
    """Monic gcd of two polynomials univariate in var over their field."""
    a, b = f, g
    while b:
        b = _monic_in(b, var)
        a, b = b, univ_divmod(a, b, var)[1]
    return _monic_in(a, var) if a else a


def formal_derivative(f, var):
    """d/d(var), the ordinary (not Hasse) derivative."""
    i = f.ring.var_index(var)
    unit = _unit(i, f.ring.nvars)
    mul, element = f.ring.field.mul, f.ring.field.element
    return Polynomial._from_raw(f.ring, {
        e - unit: d for e, v in f._raw.items()
        if (x := _entry(e, i)) and (d := mul(v, element(x).val))})


def _only_variable(f):
    used = _columns(f._raw, f.ring.nvars)
    if len(used) > 1:
        raise RingError("polynomial is not univariate")
    return f.ring.variables[next(iter(used), 0)]


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
            tuple(x // ring.field.p if j == i else x
                  for j, x in enumerate(e)): c.pth_root()
            for e, c in f.terms.items()}))
    g = univ_gcd(f, deriv, var)
    sqfree, rem = univ_divmod(f, g, var)
    if rem:   # cannot happen while the gcd is right
        raise ArithmeticError("gcd(f, f') leaves the remainder %s" % rem)
    # distinct factors of f = distinct factors of (f/g) joined with those of g
    rad_g = univ_radical(g)
    prod = sqfree * rad_g
    return univ_divmod(prod, univ_gcd(sqfree, rad_g, var), var)[0]


# -- text format ------------------------------------------------------

_TOKEN = re.compile(r"\s*(%s/%s|%s|%s|\^|\*|\+|-|\(|\))"
                    % (_DIGITS, _DIGITS, _DIGITS, _NAME))


def parse_polynomial(ring, text):
    """Parse `Z^2 + Y^5`, `-3*X*Z1^2` style syntax in the given ring.  It
    computes on raw term maps and builds one Polynomial, at the end."""
    tokens = _TOKEN.findall(text)
    # findall skips what no token matches; the text reads as tokens iff
    # they are all of it but its whitespace
    if "".join(tokens) != "".join(text.split()):
        pos = 0
        while m := _TOKEN.match(text, pos):
            pos = m.end()
        raise RingError("bad polynomial syntax near %r" % text[pos:])
    if not tokens:
        raise RingError("empty polynomial text")

    tokens.append(None)   # the end: reading past the text gives None
    at = 0   # the cursor: tokens[at] is the next token
    field, n, p = ring.field, ring.nvars, ring.field.p
    units = {v: _unit(i, n) for i, v in enumerate(ring.variables)}
    t = field.generator().val if field.k > 1 else None

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
        elif tok.isdigit():
            v = _integer(tok)
            v = v % p if p else v   # as field.element reads it
            base = {0: v} if v else {}
        elif tok.replace("/", "").isdigit():
            num, _, den = tok.partition("/")
            try:
                v = field.element(Fraction(_integer(num), _integer(den))).val
            except ZeroDivisionError:
                raise RingError("zero denominator in %r" % tok) from None
            base = {0: v} if v else {}
        elif tok in units:
            base = {units[tok]: 1}
        elif tok == "t" and t is not None:
            base = {0: t}
        else:
            raise RingError("undeclared name %r" % tok)
        if tokens[at] == "^":
            exp = tokens[at + 1]
            if exp is None or not exp.isdigit():
                raise RingError("bad exponent")
            at += 2
            base = _raw_power(field, base, int(exp), n)
        return base

    def parse_sum():
        nonlocal at
        terms = []   # (raw map, sign) of each term
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
                f = _product(field, f, parse_factor(), n)
            terms.append((f, sign))
        if len(terms) == 1 and sign == 1:
            return f
        # one reduce pass: adding term by term would copy the running sum
        raw, neg = {}, field.neg
        for f, sign in terms:
            for e, v in f.items():
                raw[e] = raw.get(e, 0) + (v if sign == 1 else neg(v))
        return _reduced(field, raw)

    try:
        raw = parse_sum()
    except RecursionError:   # two calls per level of parentheses
        raise RingError("parentheses nested too deeply") from None
    if tokens[at] is not None:
        raise RingError("trailing tokens in polynomial text")
    return Polynomial._from_raw(ring, raw)


def _format_coeff(s):
    if "+" in s or "-" in s[1:]:
        return "(%s)" % s
    return s


def format_polynomial(f):
    """The text of f: its terms by decreasing key, which is grevlex, each
    read from the raw map, its coefficient's text from the raw value."""
    raw = f._raw
    if not raw:
        return "0"
    field, names, n = f.ring.field, f.ring.variables, f.ring.nvars
    # -1 is 1 in characteristic 2, where the test for 1 comes first
    minus_one = field.neg(1)
    out = []
    for k in sorted(raw, reverse=True):
        c = raw[k]
        factors = "*".join([v if e == 1 else "%s^%d" % (v, e)
                            for v, e in zip(names, _exps(k, n)) if e])
        if not factors:
            body = _format_coeff(_text(field, c))
        elif c == 1:
            body = factors
        elif c == minus_one:
            body = "-" + factors
        else:
            body = _format_coeff(_text(field, c)) + "*" + factors
        out.append(body if not out or body[0] == "-" else "+" + body)
    return "".join(out)
