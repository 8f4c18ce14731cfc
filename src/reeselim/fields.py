"""Exact coefficient fields: Q and finite fields F_{p^k} with k <= 4.

A characteristic 0 value is an `int` while it is integral and a `Fraction`
otherwise, so integer matrices never pay for `Fraction` arithmetic;
prime-field values are residues in [0, p); an extension-field value, a
degree < k polynomial over F_p modulo a monic irreducible modulus, is packed
into one int, sum c_i * 2^(s*i), with s = 2*bitlen(p-1) + bitlen(k) + 65
bits per coefficient.  So every raw value is a Python number, every raw zero
is falsy, and the product of two packed values is one int multiply whose
digits are the unreduced convolution (Kronecker substitution).  Everything is
immutable and exact, and each field has one descriptor, so checking that two
elements share a field is cheap.

This module alone decides how raw values are added, negated, multiplied,
inverted and reduced: each descriptor binds those functions once, and
FieldElement, the polynomial product and the point scan call them.  The one
computation off them is elim.char_poly, which lifts raw values to integers
(Q over a common denominator; a finite-field value as one balanced residue
per digit, the one of F_p or the k of _unpack), runs on ints and brings
each output coefficient back once, as sum (digit_j mod p) t^j and one
reduce.  An F_{p^k} reduction is a packed fold: each digit above the k low
ones, taken mod p, adds its multiple of the packed residue of t^j mod the
modulus.
A spec's modulus is read by the polynomial parser over F_p[t], and every
power, here and in poly, is one square-and-multiply (_power).

A finite field keeps two tables, each built once, on first use: its raw
values and their positions (_scan_table), which elements() and the point
scan share, and its discrete logarithms (_log_table): exp, log and Zech's
logarithm, each of length q - 1, and log(-1).  The point scan runs on
logs, so a product there is a sum mod q - 1 and a sum one Zech lookup.
The text of an F_{p^k} value comes from one bounded cache (_text), which
str(element) and poly's format_polynomial share.
"""

import re
from fractions import Fraction
from functools import lru_cache

# monic irreducible moduli, low-to-high coefficient order, used when the
# caller does not supply one
BUILTIN_MODULI = {
    (2, 2): (1, 1, 1),        # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),     # t^3 + t + 1
    (2, 4): (1, 1, 0, 0, 1),  # t^4 + t + 1
    (3, 2): (1, 0, 1),        # t^2 + 1
    (3, 3): (1, 2, 0, 1),     # t^3 + 2t + 1
    (5, 2): (3, 0, 1),        # t^2 + 3
    (7, 2): (1, 0, 1),        # t^2 + 1
}


def _prime_factors(n):
    """The distinct primes dividing n >= 1, increasing, by trial division
    by 2 and then by odd r."""
    primes, r = [], 2
    while r * r <= n:
        if n % r == 0:
            primes.append(r)
            while n % r == 0:
                n //= r
        r += 1 if r == 2 else 2
    return primes + [n] if n > 1 else primes


def _is_prime(n):
    return n >= 2 and _prime_factors(n) == [n]


def _iroot(n, k):
    """The integer part of the k-th root of n >= 0."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)   # lo^k <= n < hi^k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _integral(v):
    """A rational value held as an int when its denominator is 1."""
    return v.numerator if v.denominator == 1 else v


def _polymod(num, mod, p):
    """Remainder of an integer sequence num by the monic mod over F_p, as a
    tuple of deg(mod) residues low-to-high: a top-down fold that cancels
    each coefficient above the degree against a shifted copy of mod."""
    d = len(mod) - 1
    num = list(num) + [0] * (d - len(num))
    for top in range(len(num) - 1, d - 1, -1):
        c = num[top] % p
        if c:
            base = top - d
            for i in range(d):
                num[base + i] -= c * mod[i]
    return tuple(c % p for c in num[:d])


def _power(mul, a, n, out=1):
    """out * a^n for n >= 0 by square-and-multiply under mul: every power
    in the library, on raw field values and on polynomials alike."""
    while True:
        if n & 1:
            out = mul(out, a)
        n >>= 1
        if not n:
            return out
        a = mul(a, a)


def _raw_arithmetic(p, k, modulus):
    """The functions (reduce, add, neg, mul, inv, pack, unpack) on one
    field's raw values.  `reduce` takes an unreduced value (any int or
    Fraction in Q, any int in F_p, in F_{p^k} a packed value of 2k - 1
    digits, each below 2^(s-1): a sum of up to 2^64 products of canonical
    values) to the canonical one; add, neg, mul and inv take and return
    canonical values.  pack and unpack convert between F_{p^k} values and
    coefficient sequences (None in the other fields)."""
    if p == 0:
        # Fraction(1, v), never 1 / v: on an int value that is a float
        return (_integral, lambda a, b: _integral(a + b), lambda a: -a,
                lambda a, b: _integral(a * b),
                lambda a: _integral(Fraction(1, a)), None, None)
    if k == 1:
        return (lambda v: v % p, lambda a, b: (a + b) % p, lambda a: -a % p,
                lambda a, b: a * b % p, lambda a: pow(a, p - 2, p), None, None)
    # a digit below 2^(s-1) plus the (k-1)(p-1)^2 the fold adds to it stays
    # below 2^s, so no digit carries into the next
    s = 2 * (p - 1).bit_length() + k.bit_length() + 65
    mask, low, shifts = (1 << s) - 1, (1 << s * k) - 1, range(0, s * k, s)

    def pack(coeffs):
        return sum(c << s * i for i, c in enumerate(coeffs))

    def unpack(v):
        return tuple(v >> i & mask for i in shifts)

    # (shift of digit j, packed t^j mod the modulus) for j = k .. 2k-2
    folds = [(s * j, pack(_polymod((0,) * j + (1,), modulus, p)))
             for j in range(k, 2 * k - 1)]

    def reduce(v):
        acc = v & low
        if v > low:
            for shift, r in folds:
                acc += (v >> shift & mask) % p * r
        out = 0
        for i in shifts:
            out |= (acc >> i & mask) % p << i
        return out

    def mul(a, b):
        return reduce(a * b)

    ps = pack((p,) * k)   # p in every digit: ps - a has no negative digit
    # a^(q-2) is the inverse of a nonzero a in F_q
    return (reduce, lambda a, b: reduce(a + b), lambda a: reduce(ps - a), mul,
            lambda a: _power(mul, a, p**k - 2), pack, unpack)


class FieldError(ValueError):
    pass


class Immutable:
    """Base of the library's value types: each sets its slots in one builder
    (a checked __new__ validates and returns through it), with
    object.__setattr__, and any later assignment raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)


class FieldDescriptor(Immutable):
    """Q (characteristic 0) or F_{p^k} with a monic irreducible modulus for k > 1.
    One instance per (p, k, modulus): equal fields are the same object.
    reduce, add, neg, mul and inv are its functions on raw values; _pack and
    _unpack convert F_{p^k} values to and from coefficient sequences."""

    __slots__ = ("p", "k", "modulus", "reduce", "add", "neg", "mul", "inv",
                 "_pack", "_unpack", "_table", "_logs")
    _instances = {}

    def __new__(cls, characteristic, extension_degree=1, modulus=None):
        p, k = characteristic, extension_degree
        if p == 0:
            if k != 1:
                raise FieldError("characteristic 0 requires extension degree 1")
            if modulus is not None:
                raise FieldError("characteristic 0 admits no modulus")
        else:
            if p >= 2**31 or not _is_prime(p):
                raise FieldError("characteristic must be 0 or a prime < 2^31")
            if not 1 <= k <= 4:
                raise FieldError("extension degree must be in 1..4")
            if k == 1:
                if modulus is not None:
                    raise FieldError("prime field takes no modulus")
            else:
                if modulus is None:
                    modulus = BUILTIN_MODULI.get((p, k))
                    if modulus is None:
                        raise FieldError(
                            "no built-in modulus for F_%d^%d; supply one" % (p, k))
                modulus = tuple(c % p for c in modulus)
                if len(modulus) != k + 1 or modulus[-1] != 1:
                    raise FieldError("modulus must be monic of degree %d" % k)
        key = (p, k, modulus)
        field = cls._instances.get(key)
        if field is not None:
            return field
        field = object.__new__(cls)
        for name, value in zip(cls.__slots__, (p, k, modulus)
                               + _raw_arithmetic(p, k, modulus)
                               + (None, None)):
            object.__setattr__(field, name, value)
        if modulus is not None:
            field._check_irreducible()
        # setdefault: threads that race to build one field all get one instance
        return cls._instances.setdefault(key, field)

    def _check_irreducible(self):
        # Rabin (1980): for k <= 4, f is reducible iff it has a factor of
        # degree <= k//2, iff gcd(f, t^(p^(k//2)) - t) != 1; the power comes
        # by square-and-multiply mod f, so the cost grows with log p; the gcd
        # is poly's over F_p[t] (imported here: poly imports this module)
        from .poly import Polynomial, RingContext, univ_gcd
        p, k = self.p, self.k
        power = self._unpack(_power(self.mul, self._pack((0, 1)),
                                    p**(k // 2)))
        ring = RingContext(FieldDescriptor(p), ("t",))
        f, g = (Polynomial(ring, {(i,): c for i, c in enumerate(cs)})
                for cs in (self.modulus, power))
        if univ_gcd(f, g - ring.var("t"), "t").degree_in("t") > 0:
            raise FieldError("modulus is reducible over F_%d" % p)

    # -- constructors -------------------------------------------------

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def element(self, value):
        """Coerce a value from outside the field's arithmetic: an int, a
        Fraction, a FieldElement of this field, or, when k > 1, an integer
        coefficient tuple or list.  Anything else (a float or a string, say,
        also as a tuple entry) raises FieldError rather than being rounded
        or parsed.  An int of any size is reduced mod p, an integer tuple of
        any length mod p and mod the modulus; in positive characteristic a/b
        maps to a * b^-1 and has no image when p divides b."""
        if isinstance(value, (int, Fraction)):
            if not self.p:
                return FieldElement(self, _integral(value))
            if value.denominator % self.p == 0:
                raise FieldError("%s has no image in characteristic %d"
                                 % (value, self.p))
            # a residue < p is the packed constant when k > 1
            return FieldElement(self, value.numerator
                                * pow(value.denominator, -1, self.p) % self.p)
        if isinstance(value, (tuple, list)):
            if self.k == 1:
                raise FieldError("coefficient tuple needs an extension field")
            if not all(isinstance(c, int) for c in value):
                raise FieldError("cannot coerce %r into %s: coefficients "
                                 "must be ints" % (value, self.spec()))
            return FieldElement(self, self._pack(
                _polymod(value, self.modulus, self.p)))
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldError("element belongs to a different field")
            return value
        raise FieldError("cannot coerce %r into %s" % (value, self.spec()))

    def generator(self):
        """The class of t in F_p[t]/<modulus> (k > 1 only)."""
        if self.k == 1:
            raise FieldError("prime field has no extension generator")
        return self.element((0, 1))

    def elements(self):
        """All p^k elements, residues ascending / lexicographic coefficient
        order: a new list each call, over the raw values of _scan_table."""
        if self.p == 0:
            raise FieldError("cannot enumerate an infinite field")
        return [FieldElement(self, v) for v in self._scan_table()[0]]

    def _scan_table(self):
        """(values, index) of a finite field: its raw values in elements()
        order and index[raw value] == its position.  F_p's raw value is its
        position, so range(p) is both; F_{p^k} keeps a tuple and a dict.
        Built once per field, on first use, and published whole."""
        table = self._table
        if table is None:
            p, k = self.p, self.k
            if k == 1:
                table = (range(p), range(p))
            else:
                pack = self._pack
                values = tuple(pack([code // p**i % p for i in range(k)])
                               for code in range(p**k))
                table = (values, {v: i for i, v in enumerate(values)})
            object.__setattr__(self, "_table", table)
        return table

    def _log_table(self):
        """(exp, log, zech, minus) of a finite field F_q, to the base g, the
        first value in elements() order whose multiplicative order is
        m = q - 1: exp[d] == g^d for d < m, log is its inverse on the
        nonzero raw values, zech[d] == log(1 + g^d) (Zech's logarithm, None
        where g^d == -1) and minus == log(-1), 0 in characteristic 2.  So a
        product is a sum of logs mod m, and g^u + g^v == g^(u + zech[v - u])
        (Huber 1990).  Built once per field, on first use, and published
        whole, so threads that race to build it each read a complete
        table."""
        table = self._logs
        if table is None:
            values = self._scan_table()[0]
            m, mul = len(values) - 1, self.mul
            primes = _prime_factors(m)
            # g has order m exactly when g^(m/r) != 1 for every prime r | m
            g = next(v for v in values[1:]
                     if all(_power(mul, v, m // r) != 1 for r in primes))
            exp = [1]   # 1 is the raw one of every field
            for _ in range(m - 1):
                exp.append(mul(exp[-1], g))
            log = {v: d for d, v in enumerate(exp)}
            add = self.add
            table = (tuple(exp), log, tuple(log.get(add(1, v)) for v in exp),
                     log[self.neg(1)])
            object.__setattr__(self, "_logs", table)
        return table

    @property
    def order(self):
        if self.p == 0:
            raise FieldError("characteristic-0 field is infinite")
        return self.p**self.k

    # -- spec strings -------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=256)
    def parse(spec):
        """Parse "Q", "F5", or "F4:t^2+t+1".  The modulus is a polynomial
        over F_p[t] in the syntax of poly.parse_polynomial, so "t*t+t+1"
        and "t^2+1/2" (1/2 is the inverse of 2 mod p) are read too.  A
        bounded cache keeps each spec text's descriptor; a bad spec raises
        on every call."""
        spec = spec.strip()
        if spec == "Q":
            return FieldDescriptor(0)
        if not spec.startswith("F"):
            raise FieldError("bad field spec %r" % spec)
        from .poly import _DIGITS, RingContext   # poly imports this module
        body, _, modtext = spec[1:].partition(":")
        if not re.fullmatch(_DIGITS, body):
            raise FieldError("bad field spec %r" % spec)
        q = int(body)
        if q < 2:
            raise FieldError("%d is not a prime power" % q)
        # q = p^k: the largest k with an exact k-th root leaves p itself
        k = max(k for k in range(1, q.bit_length() + 1)
                if _iroot(q, k)**k == q)
        p = _iroot(q, k)
        if p < 2**31 and not _is_prime(p):
            raise FieldError("%d is not a prime power" % q)
        if not modtext:
            return FieldDescriptor(p, k)
        f = RingContext(FieldDescriptor(p), ("t",)).parse(modtext)
        if f.degree_in("t") > k:
            raise FieldError("modulus degree exceeds extension degree")
        cs = [c.constant_value().val for c in f.coefficients_in("t")]
        return FieldDescriptor(p, k, tuple(cs) + (0,) * (k + 1 - len(cs)))

    def spec(self):
        if self.p == 0:
            return "Q"
        if self.k == 1:
            return "F%d" % self.p
        return "F%d:%s" % (self.order, _format_modulus(self.modulus))

    # -- plumbing -----------------------------------------------------

    def __repr__(self):
        return "FieldDescriptor(%s)" % self.spec()


def _format_modulus(modulus):
    parts = []
    for exp in range(len(modulus) - 1, -1, -1):
        c = modulus[exp]
        if c == 0:
            continue
        if exp == 0:
            parts.append(str(c))
        else:
            var = "t" if exp == 1 else "t^%d" % exp
            parts.append(var if c == 1 else "%d*%s" % (c, var))
    return "+".join(parts) if parts else "0"


def _text(field, v):
    """The text of the raw value v of field: the number itself in Q and F_p,
    and in F_{p^k} its polynomial in t, read from a bounded cache.  A Q
    value past the interpreter's int-to-str limit is written in chunks."""
    if field.k > 1:
        return _extension_text(field, v)
    try:
        return str(v)
    except ValueError:   # Python refuses an int of more digits than its limit
        if type(v) is int:
            return _decimal(v)
        return _decimal(v.numerator) + "/" + _decimal(v.denominator)


# 600 digits: below 640, the smallest int-to-str limit Python accepts, so
# a chunk converts whatever the limit is, and it is never changed here
_CHUNK = 10**600


def _decimal(n):
    """The decimal text of the int n, of any length, 600 digits at a time."""
    sign, n, chunks = "-" if n < 0 else "", abs(n), []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append("%0600d" % r)
    return sign + str(n) + "".join(reversed(chunks))


def _integer(digits):
    """The int of a string of ASCII digits, of any length: int(digits), or
    past the interpreter's int-to-str limit, folded 600 digits at a time."""
    try:
        return int(digits)
    except ValueError:
        n = 0
        for i in range(0, len(digits), 600):
            chunk = digits[i:i + 600]
            n = n * 10**len(chunk) + int(chunk)
        return n


@lru_cache(maxsize=4096)
def _extension_text(field, v):
    return _format_modulus(field._unpack(v))


class FieldElement(Immutable):
    """Immutable exact element of a FieldDescriptor."""

    __slots__ = ("field", "val")

    def __init__(self, field, val):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "val", val)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldError("field descriptor mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return NotImplemented

    def is_zero(self):
        return not self.val

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        return FieldElement(f, f.add(self.val, other.val))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return FieldElement(f, f.neg(self.val))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        return FieldElement(f, f.mul(self.val, other.val))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero in field")
        f = self.field
        return FieldElement(f, f.inv(self.val))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if not isinstance(n, int):
            raise FieldError("exponent %r is not an int" % (n,))
        if n < 0:
            return self.inverse()**(-n)
        f = self.field
        return FieldElement(f, _power(f.mul, self.val, n))

    def pth_root(self):
        """The unique b with b^p = self; Frobenius is bijective on F_{p^k}."""
        f = self.field
        if f.p == 0:
            raise FieldError("p-th root needs positive characteristic")
        return self**(f.p**(f.k - 1)) if f.k > 1 else self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = self.field.element(other)
            except FieldError:   # no image in the field
                return False
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.val == other.val

    def __hash__(self):
        return hash((self.field, self.val))

    def __repr__(self):
        return "FieldElement(%s, %s)" % (self.field.spec(), self)

    def __str__(self):
        return _text(self.field, self.val)
