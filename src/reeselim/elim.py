"""Elimination of the distinguished variable: multiplication matrices in
S[Z]/<f>, division-free characteristic polynomials, the elimination algebra
of char-poly coefficients with its weight law, and the slope test that
compares one-variable monomial algebras up to integral closure.

A multiplication matrix costs one division (g mod f), the other columns
come from the companion recurrence, and every sum of products there and in
Berkowitz's recursion is one raw-value accumulation (_sum_of_products).
"""
from __future__ import annotations

from fractions import Fraction

from .fields import Immutable
from .groebner import ResourceCapError
from .poly import RingError, _sum_of_products, univ_divmod
from .rees import ReesAlgebra, ReesError, diff_saturate, format_algebra

CHARPOLY_DEGREE_CAP = 12


class MultiplicationMatrix(Immutable):
    """Matrix of multiplication by `element` on the basis 1, Z, ..., Z^{c-1}
    of S[Z]/<modulus>; entries live in the full ring but are Z-free."""

    __slots__ = ("modulus", "element", "matrix", "z_var")

    def __init__(self, modulus, element, matrix, z_var):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "matrix", tuple(tuple(row) for row in matrix))
        object.__setattr__(self, "z_var", z_var)

    @property
    def size(self):
        return len(self.matrix)


class EliminationResult(Immutable):
    """provenance[i] is (source polynomial, its weight, j): generator i is
    the j-th char-poly coefficient of that saturated generator."""

    __slots__ = ("base_ring", "algebra", "provenance")

    def __init__(self, base_ring, algebra, provenance):
        object.__setattr__(self, "base_ring", base_ring)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "provenance", tuple(provenance))


def _check_degree_cap(c):
    if c > CHARPOLY_DEGREE_CAP:
        raise ResourceCapError("characteristic polynomial degree cap exceeded "
                               "(degree %d > cap %d)" % (c, CHARPOLY_DEGREE_CAP))


def mult_matrix(g, f, z_var):
    """Multiplication-by-g endomorphism of S[Z]/<f>, f monic of degree c."""
    if g.ring != f.ring:
        raise RingError("ring mismatch")
    if not f.is_monic_in(z_var):
        raise RingError("modulus is not monic in %r" % z_var)
    c = f.degree_in(z_var)
    if c < 1:
        raise RingError("modulus must have positive degree in %r" % z_var)
    _, g = univ_divmod(g, f, z_var)
    # column j+1 is Z * (column j) mod f: shift the coefficients up one
    # power of Z, then replace the t*Z^c that reaches the top by
    # -t*(f - Z^c), one accumulation per entry; a zero column stays zero
    ring, one, zero = f.ring, f.ring.one(), f.ring.zero()
    neg_low = [-a for a in f.coefficients_in(z_var)[:c]]
    col = g.coefficients_in(z_var)
    col += [zero] * (c - len(col))
    columns = []
    for _ in range(c):
        columns.append(col)
        t = col[-1]
        col = [zero] + col[:-1]
        if t:
            col = [_sum_of_products(ring, ((x, one), (t, a))) if a else x
                   for x, a in zip(col, neg_low)]
    return MultiplicationMatrix(f, g, zip(*columns), z_var)


def char_poly(M):
    """Coefficients (h_1, ..., h_c) of det(V*Id - M) = V^c + h_1 V^{c-1} + ...,
    in the ring of the entries.

    Berkowitz's division-free recursion, valid in any characteristic: with
    the leading (r+1)-block split as [[A, col], [row, a]], the coefficients
    grow as h'_i = h_i - sum_{j<i} s_{i-j} h_j with h_0 = 1, where s_1 = a
    and s_k = row * A^{k-2} * col.  Each s_k, each entry of row * A and each
    of those sums is one accumulation on raw values; zero factors add
    nothing.
    """
    c = M.size
    _check_degree_cap(c)
    A = M.matrix
    cols = tuple(zip(*A))
    ring = A[0][0].ring
    zero = ring.zero()
    h = []
    for r in range(c):
        # powers act on the row: column j of a multiplication matrix is
        # g*Z^j mod f, whose entries grow with j, so row r's first r entries
        # start the powers smaller than column r's would
        row, col = A[r][:r], cols[r][:r]
        s = [A[r][r]]
        for k in range(r):
            s.append(_sum_of_products(ring, zip(row, col)))
            if k < r - 1:
                row = [_sum_of_products(ring, zip(row, cols[j][:r]))
                       for j in range(r)]
        h_from_0 = [ring.one()] + h
        h = [(h[i - 1] if i <= r else zero)
             - _sum_of_products(ring, zip(reversed(s[:i]), h_from_0))
             for i in range(1, r + 2)]
    return h


def cayley_hamilton_residue(g, f, z_var):
    """psi_g(g) reduced mod f; zero iff Cayley-Hamilton holds (it must)."""
    M = mult_matrix(g, f, z_var)
    coeffs = char_poly(M)
    c = M.size
    acc = g**c
    for j, h in enumerate(coeffs, start=1):
        acc = acc + h * g**(c - j)
    return univ_divmod(acc, f, z_var)[1]


def eliminate(G, f_gen, z_var, check_transversal=True):
    """Elimination algebra over the ring without z_var.

    Relative diff-saturation in z_var first; then every saturated generator
    (g, n) is reduced mod f and contributes the coefficients h_j of the
    characteristic polynomial of multiplication-by-g, at weight j*n.
    Generators reducing to zero contribute nothing.  Saturation emits a
    polynomial again at each lower weight, so each distinct g gets one
    multiplication matrix and one char poly per call.  A weight above
    CHARPOLY_DEGREE_CAP raises ResourceCapError before any saturation.
    """
    ring = G.ring
    f = f_gen.poly
    c = f_gen.weight
    if f.ring != ring:
        raise RingError("ring mismatch")
    if not f.is_monic_in(z_var):
        raise ReesError("distinguished generator is not monic in %r" % z_var)
    if f.degree_in(z_var) != c:
        raise ReesError("Z-degree of the distinguished generator (%d) differs "
                        "from its weight (%d)" % (f.degree_in(z_var), c))
    if check_transversal and f.order_at_origin() != c:
        raise ReesError("transversality failure: order %s != weight %d"
                        % (f.order_at_origin(), c))
    _check_degree_cap(c)
    if f_gen not in G.generators:
        G = ReesAlgebra(ring, G.generators + (f_gen,))
    sat = diff_saturate(G, {z_var})
    base = ring.drop_variable(z_var)
    found = {}   # (h_j projected, weight) -> (g, weight of g, j), first source
    coeffs = {}   # g -> its (j, nonzero h_j projected), () if g = 0 mod f
    for g in sat.generators:
        hs = coeffs.get(g.poly)
        if hs is None:
            M = mult_matrix(g.poly, f, z_var)
            hs = coeffs[g.poly] = () if M.element.is_zero() else tuple(
                (j, h.project_out(z_var))
                for j, h in enumerate(char_poly(M), start=1) if not h.is_zero())
        for j, h in hs:
            found.setdefault((h, j * g.weight), (g.poly, g.weight, j))
    algebra = ReesAlgebra.from_pairs(base, found)
    return EliminationResult(base, algebra, found.values())


def format_elimination(result):
    """Algebra file format with per-generator provenance comments."""
    comments = {i: "from: %s w %d coeff %d" % prov
                for i, prov in enumerate(result.provenance)}
    return format_algebra(result.algebra, provenance=comments)


def slope_equivalent(A, B):
    """Equality up to integral closure for one-variable monomial algebras:
    compare the minimal (monomial degree)/(weight) slopes exactly.

    Anything non-monomial or multivariate is rejected, never guessed at.
    """
    def min_slope(G):
        if G.ring.nvars != 1:
            raise ReesError("slope test needs a one-variable ring")
        if G.is_empty():
            return None
        slopes = []
        for g in G.generators:
            if len(g.poly.terms) != 1:
                raise ReesError("slope test needs monomial generators, got %s"
                                % g.poly)
            (exps,) = g.poly.terms
            slopes.append(Fraction(exps[0], g.weight))
        return min(slopes)

    if A.ring != B.ring:
        raise RingError("ring mismatch")
    return min_slope(A) == min_slope(B)
