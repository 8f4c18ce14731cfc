"""Hasse (divided-power) differential operators via the Taylor shift.

Delta^alpha extracts the T^alpha coefficient of f(x + T); termwise this is
Delta^alpha(x^beta) = prod_i C(beta_i, alpha_i) * x^(beta - alpha), each
binomial taken by `_binomial` in the field's characteristic: exact over Q,
and mod p from the base-p digits (Lucas' theorem), so the operators are
correct in every characteristic and no huge binomial is built for p to
divide.  `_derivative_rows` builds the (|alpha|, alpha, raw map) rows of a
whole table in one pass over the support of f: each term x^beta feeds
Delta^alpha for every alpha <= beta it reaches.  `hasse_derivatives`,
`diff_closure_list` and rees.diff_saturate all read those rows.

Which alpha a term reaches with a binomial p does not divide, the shifted
key beta - alpha and the binomial depend on exponents and p alone, so
`_shifts` keeps them in one bounded table per (beta, n, active set, number
of variables, p), shared by the fields of one characteristic.  Terms are
keyed by poly's int monomial keys, and multi-indices are exponent tuples,
the public form.
"""

from functools import lru_cache
from math import comb, prod

from . import budget
from .budget import ResourceCapError
from .fields import FieldElement
from .poly import (Polynomial, RingError, _divides, _entry, _exps, _fits,
                   _guard, _key)


def normalize_multiindex(ring, alpha):
    """Accept a full exponent tuple or a {variable: exponent} dict of
    non-negative ints (a bool counts as an int)."""
    if isinstance(alpha, dict):
        exps = [0] * ring.nvars
        for name, e in alpha.items():
            exps[ring.var_index(name)] = e
        alpha = tuple(exps)
    else:
        alpha = tuple(alpha)
        if len(alpha) != ring.nvars:
            raise RingError("multi-index length mismatch")
    for a in alpha:
        if not isinstance(a, int):
            raise RingError("multi-index entry %r is not an int" % (a,))
        if a < 0:
            raise RingError("multi-index entries must be non-negative")
    return alpha


def _binomial(b, a, p):
    """C(b, a), mod p when p > 0: there the product of the binomials of the
    base-p digits (Lucas' theorem), 0 iff a digit of a exceeds b's."""
    if not p or not a:
        return comb(b, a)
    return comb(b % p, a % p) * _binomial(b // p, a // p, p) % p


def _term_coefficient(field, v, binom):
    """The raw coefficient of x^(beta - alpha) in Delta^alpha(v x^beta): v
    times the binomial prod C(beta_i, alpha_i), an int from _binomial's
    factors, reduced into the field.  Only hasse_derivatives uses this
    FieldElement product: it is the one route by which verify_thm_1_16
    reaches FieldElement.__mul__, as bench/selftest.py expects."""
    if binom == 1:
        return v
    return (FieldElement(field, v) * field.element(binom)).val


def _raw_coefficient(field, v, binom):
    """_term_coefficient on raw values alone: the same value, with no
    FieldElement built.  hasse_derivative, diff_closure_list and
    saturation use it."""
    if binom == 1:
        return v
    return field.mul(v, binom % field.p if field.p else binom)


def hasse_derivative(f, alpha):
    """Delta^alpha(f): the coefficient of T^alpha in f(x + T).  A term's
    binomials are taken only once alpha divides it."""
    ring = f.ring
    alpha = normalize_multiindex(ring, alpha)
    n = ring.nvars
    field = ring.field
    a = _key(alpha)
    if not _fits(a, n):   # |alpha| >= 2^31: no term reaches it
        return ring.zero()
    guard = _guard(n)
    raw = {}
    for beta, v in f._raw.items():
        if _divides(a, beta, guard) and (v := _raw_coefficient(
                field, v, prod([_binomial(_entry(beta, i), x, field.p)
                                for i, x in enumerate(alpha) if x]))):
            # beta -> beta - alpha is injective: no two terms share a key
            raw[beta - a] = v
    return Polynomial._from_raw(ring, raw)


@lru_cache(maxsize=1024)
def _shifts(beta, n, active_idx, nvars, p):
    """(|alpha|, alpha, beta - alpha, prod C(beta_i, alpha_i)) for every
    nonzero alpha <= beta with |alpha| < n, supported on active_idx (a
    frozenset or a range, so that it can key the cache), whose binomial p
    does not divide, by increasing |alpha| and then lexicographically.
    beta is a key in nvars variables, beta - alpha too, and alpha an
    exponent tuple.  alpha grows one entry at a time, within what is left
    of n - 1, and an entry whose binomial p divides is dropped at once."""
    rows = [(0, (), 1)]   # (|alpha|, alpha so far, binomial)
    for i, b in enumerate(_exps(beta, nvars)):
        top = min(b + 1, n) if i in active_idx else 1
        entries = [(x, c) for x in range(top) if (c := _binomial(b, x, p))]
        rows = [(size + x, alpha + (x,), binom * c) for size, alpha, binom
                in rows for x, c in entries if x <= n - 1 - size]
    return tuple([(size, alpha, beta - _key(alpha), binom)
                  for size, alpha, binom in sorted(rows)[1:]])


def _active_indices(ring, active):
    """The indices of the active variable names, all when active is None:
    every variable gives range(nvars), one _shifts cache key."""
    idx = (range(ring.nvars) if active is None
           else frozenset(map(ring.var_index, active)))
    return range(ring.nvars) if len(idx) == ring.nvars else idx


def _derivative_rows(f, n, active_idx, coefficient=_raw_coefficient):
    """[(|alpha|, alpha, raw map of Delta^alpha f)] for 0 < |alpha| < n,
    alpha supported on the active variables (their _active_indices), by
    increasing |alpha| and then lexicographically; zero derivatives are
    left out.  coefficient(field, v, binom) makes each raw coefficient.

    One pass over the terms of f: each x^beta contributes to Delta^alpha
    for every alpha <= beta in the simplex, so the cost follows the
    support, not the n^m multi-indices of the whole simplex.  A one-term f
    reaches each alpha once, already in order, so it needs no table and no
    sort.  The multi-indices, shifted exponents and binomials of each term
    come from the _shifts table; its binomials are units, so no
    coefficient is zero."""
    field, nvars = f.ring.field, f.ring.nvars
    if len(f._raw) == 1:
        (beta, v), = f._raw.items()
        return [(size, alpha, {shifted: coefficient(field, v, binom)})
                for size, alpha, shifted, binom in _shifts(
                    beta, n, active_idx, nvars, field.p)]
    table = {}
    for beta, v in f._raw.items():
        for size, alpha, shifted, binom in _shifts(beta, n, active_idx,
                                                   nvars, field.p):
            # beta -> beta - alpha is injective for a fixed alpha
            table.setdefault((size, alpha), {})[shifted] = coefficient(
                field, v, binom)
    return [(size, alpha, table[size, alpha]) for size, alpha in sorted(table)]


def _charge_pairs(used):
    """Refuse, before any is listed, a saturation or closure list of used
    pairs past budget.SATURATION_PAIRS."""
    limit = budget.SATURATION_PAIRS
    if used > limit:
        raise ResourceCapError("SATURATION_PAIRS", used, limit,
                               "no pair listed")


def hasse_derivatives(f, n, active=None):
    """{alpha: Delta^alpha(f)} for |alpha| < n, alpha supported on the active
    variables (all variables when None), by increasing |alpha| and then
    lexicographically; zero derivatives are left out.  Delta^0 f is f
    itself, and the rest are _derivative_rows."""
    ring = f.ring
    out = {_exps(0, ring.nvars): f} if f._raw and n >= 1 else {}
    for _, alpha, raw in _derivative_rows(f, n, _active_indices(ring, active),
                                          _term_coefficient):
        out[alpha] = Polynomial._from_raw(ring, raw)
    return out


def diff_closure_list(f, n, active=None):
    """All (Delta^alpha(f), n' - |alpha|) for 1 <= n' <= n and |alpha| < n',
    alpha supported on the active variables (all variables when None).

    Realizes the generating set of the smallest differential extension, in
    both the relative (active = one variable) and absolute flavors.  Zero
    polynomials are dropped, but a pair may occur more than once (for X+Y,
    Delta_X and Delta_Y are both 1); diff_saturate drops the repeats.

    The list is emitted block by block for n' = 1..n: block n' opens with
    (f, n') and weighs no more than n' anywhere, so for every n' < n,
    diff_closure_list(f, n') is the part of this list before its first pair
    of weight n' + 1.  A weight that is not an int is refused (a bool
    counts as an int).  The list's length, sum over the table's rows of
    n - |alpha|, is charged against budget.SATURATION_PAIRS before any pair
    is listed."""
    if not isinstance(n, int):
        raise RingError("weight %r is not an int" % (n,))
    if n < 1:
        raise RingError("weight must be >= 1")
    table = [(0, f)] if f._raw else []
    table += [(size, Polynomial._from_raw(f.ring, raw))
              for size, _, raw in _derivative_rows(
                  f, n, _active_indices(f.ring, active))]
    _charge_pairs(sum(n - size for size, _ in table))
    out = []
    for nprime in range(1, n + 1):
        for size, df in table:   # by increasing |alpha|
            if size >= nprime:
                break
            out.append((df, nprime - size))
    return out
