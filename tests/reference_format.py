"""The polynomial formatter as it stood before it read raw term maps: it
sorted the exponent tuples of `.terms` by grevlex_key and printed each
FieldElement coefficient, whose text in F_{p^k} was its residue's
polynomial in t, unpacked on every call.  Kept as the reference for
tests/test_format.py's differential test; only the names differ."""
from reeselim.fields import _format_modulus
from reeselim.poly import grevlex_key


def _element_text(c):
    f = c.field
    if f.p == 0 or f.k == 1:
        return str(c.val)
    return _format_modulus(f._unpack(c.val))


def _format_coeff(c):
    s = _element_text(c)
    if "+" in s or "-" in s[1:]:
        return "(%s)" % s
    return s


def reference_format_polynomial(f):
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
