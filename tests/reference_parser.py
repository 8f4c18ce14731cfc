"""The polynomial parser as it stood before sums were added in one kernel
pass: each term was added to a running sum, and the parser read through
an iterator with peek and advance closures.  Kept verbatim as the
reference for tests/test_parser.py's differential test; only the
function's name differs.  The token pattern is the library's own."""
from fractions import Fraction

from reeselim.poly import _TOKEN, RingError


def reference_parse_polynomial(ring, text):
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

    it = iter(tokens)
    current = [next(it, None)]

    def peek():
        return current[0]

    def advance():
        tok = current[0]
        current[0] = next(it, None)
        return tok

    def parse_factor():
        tok = advance()
        if tok == "(":
            base = parse_sum()
            if advance() != ")":
                raise RingError("unbalanced parentheses")
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
        if peek() == "^":
            advance()
            exp = advance()
            if exp is None or not exp.isdigit():
                raise RingError("bad exponent")
            base = base**int(exp)
        return base

    def parse_term():
        sign = 1
        while peek() in ("+", "-"):
            if advance() == "-":
                sign = -sign
        f = parse_factor()
        while peek() == "*" or (peek() is not None and peek() not in "+-)"):
            if peek() == "*":
                advance()
            f = f * parse_factor()
        return f if sign == 1 else -f

    def parse_sum():
        total = parse_term()
        while peek() in ("+", "-"):
            total = total + parse_term()
        return total

    result = parse_sum()
    if peek() is not None:
        raise RingError("trailing tokens in polynomial text")
    return result
