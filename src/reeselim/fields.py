"""Exact coefficient fields: Q and finite fields F_{p^k} with k <= 4.

A characteristic 0 value is an `int` while it is integral and a `Fraction`
otherwise, so integer matrices never pay for `Fraction` arithmetic;
prime-field values are residues in [0, p); extension-field values are
coefficient tuples of degree < k polynomials over F_p reduced modulo a
monic irreducible modulus.  Everything is immutable and exact, and each field
has one descriptor, so checking that two elements share a field is cheap.
"""
from __future__ import annotations

from fractions import Fraction

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


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _polymul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _trim(out)


def _add_scaled(x, y, c, shift, p):
    """x + c * t^shift * y over F_p, trimmed."""
    out = list(x) + [0] * (len(y) + shift - len(x))
    for i, cy in enumerate(y):
        out[shift + i] = (out[shift + i] + c * cy) % p
    return _trim(out)


def _polymod(num, mod, p):
    """Remainder of num by monic mod over F_p (coefficients low-to-high);
    each step cancels the leading term against a shifted copy of mod."""
    num = _trim(c % p for c in num)
    while len(num) >= len(mod):
        num = _add_scaled(num, mod, -num[-1], len(num) - len(mod), p)
    return num


def _polyinv(a, mod, p):
    """Inverse of a nonzero residue a modulo the irreducible mod over F_p,
    by the extended Euclidean algorithm.  Invariant: s_i * a = r_i mod
    `mod`; each step cancels the leading term of r0 against r1 and applies
    the same step to s0."""
    r0, s0 = list(mod), []
    r1, s1 = _trim(a), [1]
    while len(r1) > 1:
        inv = pow(r1[-1], p - 2, p)
        while len(r0) >= len(r1):
            shift = len(r0) - len(r1)
            c = -r0[-1] * inv % p
            r0 = _add_scaled(r0, r1, c, shift, p)
            s0 = _add_scaled(s0, s1, c, shift, p)
        r0, s0, r1, s1 = r1, s1, r0, s0
    inv = pow(r1[0], p - 2, p)
    return [c * inv % p for c in s1]


class FieldError(ValueError):
    pass


class Immutable:
    """Base of the library's value types: __init__ sets each slot once with
    object.__setattr__, and any later assignment raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)


class FieldDescriptor(Immutable):
    """Q (characteristic 0) or F_{p^k} with a monic irreducible modulus for k > 1.
    One instance per (p, k, modulus): equal fields are the same object."""

    __slots__ = ("p", "k", "modulus")
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
        if modulus is not None:
            cls._check_irreducible(modulus, p, k)
        field = object.__new__(cls)
        object.__setattr__(field, "p", p)
        object.__setattr__(field, "k", k)
        object.__setattr__(field, "modulus", modulus)
        # setdefault: threads that race to build one field all get one instance
        return cls._instances.setdefault(key, field)

    @staticmethod
    def _check_irreducible(modulus, p, k):
        # Rabin (1980): for k <= 4, f is reducible iff it has a factor of
        # degree <= k//2, iff gcd(f, t^(p^(k//2)) - t) != 1; the power comes
        # by square-and-multiply mod f, so the cost grows with log p
        power, square, n = [1], [0, 1], p**(k // 2)
        while n:
            if n & 1:
                power = _polymod(_polymul(power, square, p), modulus, p)
            square = _polymod(_polymul(square, square, p), modulus, p)
            n >>= 1
        a, b = list(modulus), _add_scaled(power, [1], -1, 1, p)
        while b:
            inv = pow(b[-1], p - 2, p)
            b = [c * inv % p for c in b]
            a, b = b, _polymod(a, b, p)
        if len(a) > 1:
            raise FieldError("modulus is reducible over F_%d" % p)

    # -- constructors -------------------------------------------------

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def element(self, value):
        """Coerce an int, a Fraction, a FieldElement of this field, or, when
        k > 1, an integer coefficient tuple or list.  Anything else (a float
        or a string, say) raises FieldError rather than being rounded or
        parsed.  Reduces an unreduced raw value: an int of any size mod p,
        or an integer tuple of any length mod p and mod the modulus."""
        if isinstance(value, int):
            if self.p == 0:
                return FieldElement(self, int(value))
        elif isinstance(value, (tuple, list)):
            if self.k == 1:
                raise FieldError("coefficient tuple needs an extension field")
            coeffs = _polymod(value, self.modulus, self.p)
            return FieldElement(
                self, tuple(coeffs) + (0,) * (self.k - len(coeffs)))
        elif isinstance(value, Fraction):
            if self.p == 0:
                return FieldElement(self, _integral(value))
        elif isinstance(value, FieldElement):
            if value.field != self:
                raise FieldError("element belongs to a different field")
            return value
        else:
            raise FieldError("cannot coerce %r into %s" % (value, self.spec()))
        residue = self._residue(value)
        if self.k == 1:
            return FieldElement(self, residue)
        return FieldElement(self, (residue,) + (0,) * (self.k - 1))

    def _residue(self, value):
        """An int or a Fraction mod p; a/b maps to a * b^-1 and has no image
        when p divides b."""
        if isinstance(value, int):
            return value % self.p
        if value.denominator % self.p == 0:
            raise FieldError("%s has no image in characteristic %d"
                             % (value, self.p))
        return value.numerator * pow(value.denominator, -1, self.p) % self.p

    def generator(self):
        """The class of t in F_p[t]/<modulus> (k > 1 only)."""
        if self.k == 1:
            raise FieldError("prime field has no extension generator")
        return self.element((0, 1))

    def elements(self):
        """All p^k elements, residues ascending / lexicographic coefficient order."""
        if self.p == 0:
            raise FieldError("cannot enumerate an infinite field")
        out = []
        for code in range(self.order):
            if self.k == 1:
                out.append(self.element(code))
            else:
                coeffs = tuple((code // self.p**i) % self.p for i in range(self.k))
                out.append(FieldElement(self, coeffs))
        return out

    @property
    def order(self):
        if self.p == 0:
            raise FieldError("characteristic-0 field is infinite")
        return self.p**self.k

    # -- spec strings -------------------------------------------------

    @staticmethod
    def parse(spec):
        """Parse "Q", "F5", or "F4:t^2+t+1"."""
        spec = spec.strip()
        if spec == "Q":
            return FieldDescriptor(0)
        if not spec.startswith("F"):
            raise FieldError("bad field spec %r" % spec)
        body, _, modtext = spec[1:].partition(":")
        try:
            q = int(body)
        except ValueError:
            raise FieldError("bad field spec %r" % spec) from None
        if q < 2:
            raise FieldError("%d is not a prime power" % q)
        # q = p^k: the largest k with an exact k-th root leaves p itself
        k = max(k for k in range(1, q.bit_length() + 1)
                if _iroot(q, k)**k == q)
        p = _iroot(q, k)
        if p < 2**31 and not _is_prime(p):
            raise FieldError("%d is not a prime power" % q)
        modulus = _parse_modulus(modtext, p, k) if modtext else None
        return FieldDescriptor(p, k, modulus)

    def spec(self):
        if self.p == 0:
            return "Q"
        if self.k == 1:
            return "F%d" % self.p
        return "F%d:%s" % (self.order, _format_modulus(self.modulus))

    # -- plumbing -----------------------------------------------------

    def __repr__(self):
        return "FieldDescriptor(%s)" % self.spec()


def _parse_modulus(text, p, k):
    """Parse "t^2+t+1" into a coefficient tuple over F_p."""
    coeffs = [0] * (k + 1)
    text = text.replace(" ", "").replace("-", "+-")
    for term in filter(None, text.split("+")):
        coef = 1
        if term.startswith("-"):
            coef = -1
            term = term[1:]
        if "t" in term:
            head, _, tail = term.partition("t")
            if head.endswith("*"):
                head = head[:-1]
            if head:
                coef *= int(head)
            exp = int(tail[1:]) if tail.startswith("^") else 1
        else:
            coef *= int(term)
            exp = 0
        if exp > k:
            raise FieldError("modulus degree exceeds extension degree")
        coeffs[exp] = (coeffs[exp] + coef) % p
    return tuple(coeffs)


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
        return not (any(self.val) if self.field.k > 1 else self.val)

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        if f.p == 0:
            return FieldElement(f, _integral(self.val + other.val))
        if f.k == 1:
            return FieldElement(f, (self.val + other.val) % f.p)
        return FieldElement(f, tuple((a + b) % f.p
                                     for a, b in zip(self.val, other.val)))

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        if f.p == 0:
            return FieldElement(f, -self.val)
        if f.k == 1:
            return FieldElement(f, (-self.val) % f.p)
        return FieldElement(f, tuple((-c) % f.p for c in self.val))

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
        if f.p == 0:
            return FieldElement(f, _integral(self.val * other.val))
        if f.k == 1:
            return FieldElement(f, (self.val * other.val) % f.p)
        prod = _polymul(list(self.val), list(other.val), f.p)
        return f.element(tuple(prod))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero in field")
        f = self.field
        if f.p == 0:
            # Fraction(1, v), never 1 / v: on an int value that is a float
            return FieldElement(f, _integral(Fraction(1, self.val)))
        if f.k == 1:
            return FieldElement(f, pow(self.val, f.p - 2, f.p))
        return f.element(tuple(_polyinv(self.val, f.modulus, f.p)))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        if n < 0:
            return self.inverse()**(-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def pth_root(self):
        """The unique b with b^p = self; Frobenius is bijective on F_{p^k}."""
        f = self.field
        if f.p == 0:
            raise FieldError("p-th root needs positive characteristic")
        return self**(f.p**(f.k - 1)) if f.k > 1 else self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.element(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.val == other.val

    def __hash__(self):
        return hash((self.field, self.val))

    def __repr__(self):
        return "FieldElement(%s, %s)" % (self.field.spec(), self)

    def __str__(self):
        f = self.field
        if f.p == 0 or f.k == 1:
            return str(self.val)
        return _format_modulus(self.val)
