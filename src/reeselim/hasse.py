"""Hasse (divided-power) differential operators via the Taylor shift.

Delta^alpha extracts the T^alpha coefficient of f(x + T); termwise this is
Delta^alpha(x^beta) = prod_i C(beta_i, alpha_i) * x^(beta - alpha) with the
binomials computed as exact integers and then reduced into the field, so
the operators are correct in every characteristic.
"""
from __future__ import annotations

from itertools import product
from math import comb

from .fields import FieldElement
from .poly import Polynomial, RingError


def normalize_multiindex(ring, alpha):
    """Accept a full exponent tuple or a {variable: exponent} dict."""
    if isinstance(alpha, dict):
        exps = [0] * ring.nvars
        for name, e in alpha.items():
            exps[ring.var_index(name)] = e
        alpha = tuple(exps)
    else:
        alpha = tuple(alpha)
        if len(alpha) != ring.nvars:
            raise RingError("multi-index length mismatch")
    if any(a < 0 for a in alpha):
        raise RingError("multi-index entries must be non-negative")
    return alpha


def hasse_derivative(f, alpha):
    """Delta^alpha(f): the coefficient of T^alpha in f(x + T)."""
    ring = f.ring
    alpha = normalize_multiindex(ring, alpha)
    field = ring.field
    raw = {}
    for exps, v in f._raw.items():
        if any(a > b for a, b in zip(alpha, exps)):
            continue
        binom = 1
        for b, a in zip(exps, alpha):
            binom *= comb(b, a)
        if binom != 1:   # a field product, zero when p divides binom
            v = (FieldElement(field, v) * field.element(binom)).val
        if v:
            # exps -> exps - alpha is injective: no two terms share a key
            raw[tuple(b - a for b, a in zip(exps, alpha))] = v
    return Polynomial._from_raw(ring, raw)


def hasse_derivatives(f, n, active=None):
    """{alpha: Delta^alpha(f)} for |alpha| < n, alpha supported on the active
    variables (all variables when None), by increasing |alpha| and then
    lexicographically; zero derivatives are left out.

    Delta^alpha(f) is zero unless alpha <= some exponent of f, so only the
    alpha below a term of f are tried: the cost follows the support, not
    the n^m multi-indices of the whole simplex."""
    ring = f.ring
    if active is None:
        active_idx = range(ring.nvars)
    else:
        active_idx = {ring.var_index(v) for v in active}
    tops = {tuple(min(b, n - 1) + 1 if i in active_idx else 1
                  for i, b in enumerate(beta)) for beta in f._raw}
    alphas = {a for top in tops for a in product(*map(range, top))
              if sum(a) < n}
    out = {}
    for alpha in sorted(alphas, key=lambda a: (sum(a), a)):
        df = hasse_derivative(f, alpha)
        if not df.is_zero():
            out[alpha] = df
    return out


def diff_closure_list(f, n, active=None):
    """All (Delta^alpha(f), n' - |alpha|) for 1 <= n' <= n and |alpha| < n',
    alpha supported on the active variables (all variables when None).

    Realizes the generating set of the smallest differential extension, in
    both the relative (active = one variable) and absolute flavors.  Zero
    polynomials are dropped, but a pair may occur more than once (for X+Y,
    Delta_X and Delta_Y are both 1); ReesAlgebra drops the repeats.
    """
    if n < 1:
        raise RingError("weight must be >= 1")
    cache = hasse_derivatives(f, n, active)
    return [(df, nprime - sum(alpha))
            for nprime in range(1, n + 1)
            for alpha, df in cache.items() if sum(alpha) < nprime]
