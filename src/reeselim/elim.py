"""Elimination of the distinguished variable: multiplication matrices in
S[Z]/<f>, division-free characteristic polynomials, the elimination algebra
of char-poly coefficients with its weight law, and the slope test that
compares one-variable monomial algebras up to integral closure.

A multiplication matrix reads g from one split by Z, which also gives g's
Z-degree; only a g of Z-degree c or more costs a division (g mod f), its
column 0.  The other c - 1 columns come from c - 1 steps of the companion
recurrence on raw term maps, one shift per column, where each entry that
f touches is one poly._sum_of_products call.  The matrix holds its
entries as rows of raw term maps, and builds them as Polynomials
(`.matrix`) only on first read.  A characteristic polynomial runs
Berkowitz's recursion, written once (_berkowitz) over the ring its
operators give, on those rows, by one of two exact paths, chosen per
matrix before any product; its first step, h = [-a_00], takes no dot
product.  Small (c <= 3) or sparse matrices run it on the raw term maps,
each dot product one _sum_of_products call whose pairs are counted
against budget.TERM_PRODUCTS before the call.  Dense ones lift the matrix
once to integer polynomials in t and the variables (t only in F_{p^k}),
pack each entry into one Python int (mixed-radix Kronecker substitution,
sized by a closed-form coefficient bound), run the recursion on the ints
and unpack its c outputs in one loop, the same for every field, or
declines.

eliminate checks and splits f once per call (its monic test, its degree
and the -f_n every matrix reads), projects each nonzero h_j into the base
ring by one raw pass (poly._project_out), and keeps one map from each
polynomial to its nonzero h_j.  h_j is homogeneous of degree j, so a
saturated generator g = lam*m takes lam^j times the h_j of m, whose char
poly is taken once.  Classes are taken by integer content over Q, where
lam is an int; over F_q each polynomial is its own (lam = 1).
"""

import math
from fractions import Fraction
from itertools import accumulate
from operator import add, mul, neg

from . import budget
from .budget import ResourceCapError
from .fields import Immutable
from .poly import (Polynomial, RingError, _columns, _project_out, _split,
                   _sum_of_products, _unit, univ_divmod)
from .rees import (ReesAlgebra, ReesError, ReesGenerator, diff_saturate,
                   format_algebra)

# packed bits per entry term past which the packed ints are mostly zeros
# and the raw maps win; the benchmark pools' dense matrices take at most 141
_PACKED_BITS_PER_TERM = 1024
# a packed entry's length, w * slots bits, past which packing declines
# whatever the term count: at c = 12, 2^20 bits is about ten seconds of
# Berkowitz
_PACKED_BITS_MAX = 1 << 20


class MultiplicationMatrix(Immutable):
    """Matrix of multiplication by `element` on the basis 1, Z, ..., Z^{c-1}
    of S[Z]/<f>; entries live in the full ring but are Z-free.  Its one
    builder, _from_rows, keeps rows of the entries' raw term maps and their
    ring; `.matrix`, the entries as Polynomials, is built on first read, as
    Polynomial.terms is.  The constructor refuses a matrix that is empty,
    not square or not of Polynomials in one ring with RingError."""

    __slots__ = ("element", "_rows", "_ring", "_matrix")

    def __new__(cls, element, matrix):
        rows = [tuple(row) for row in matrix]
        rings = {e.ring if isinstance(e, Polynomial) else None
                 for row in rows for e in row}
        if (len(rings) != 1 or None in rings
                or any(len(row) != len(rows) for row in rows)):
            raise RingError("need a nonempty square matrix over one ring")
        return cls._from_rows(element, [[e._raw for e in row] for row in rows],
                              rings.pop())

    @classmethod
    def _from_rows(cls, element, rows, ring):
        M = object.__new__(cls)
        object.__setattr__(M, "element", element)
        object.__setattr__(M, "_rows", rows)
        object.__setattr__(M, "_ring", ring)
        return M

    @property
    def matrix(self):
        matrix = getattr(self, "_matrix", None)
        if matrix is None:
            ring = self._ring
            matrix = tuple(tuple(Polynomial._from_raw(ring, x) for x in row)
                           for row in self._rows)
            object.__setattr__(self, "_matrix", matrix)
        return matrix

    @property
    def size(self):
        return len(self._rows)


class EliminationResult(Immutable):
    """provenance[i] is (source polynomial, its weight, j): generator i is
    the j-th char-poly coefficient of that saturated generator."""

    __slots__ = ("base_ring", "algebra", "provenance")

    def __init__(self, base_ring, algebra, provenance):
        object.__setattr__(self, "base_ring", base_ring)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "provenance", tuple(provenance))


def mult_matrix(g, f, z_var):
    """Multiplication-by-g endomorphism of S[Z]/<f>, f monic of degree c.

    Column j holds the Z^0..Z^(c-1) coefficients of g*Z^j mod f: column 0
    is g mod f, which takes a division only when g's Z-degree reaches c,
    and each of the c - 1 later columns is one companion step on raw term
    maps.  The matrix keeps them as rows of raw maps, and `.matrix` wraps
    them as Polynomials on first read.  No step runs past column c - 1, so
    only products that land in the matrix are taken and checked on their
    leading keys; c = 1 takes none."""
    if g.ring != f.ring:
        raise RingError("ring mismatch")
    c, monic, neg_low = _modulus(f, z_var)
    if not monic:
        raise RingError("modulus is not monic in %r" % z_var)
    if c < 1:
        raise RingError("modulus must have positive degree in %r" % z_var)
    return _mult_matrix(g, f, z_var, c, neg_low)


def _modulus(f, z_var):
    """What every matrix over S[Z]/<f> reads of f, split once by z_var:
    (c, whether f is monic of degree c in z_var, {n: -f_n as a raw term
    map, for each nonzero f_n with n < c}); c is -1 for f = 0."""
    ring = f.ring
    parts = _split(f._raw, ring.var_index(z_var), ring.nvars)
    c = max(parts, default=-1)
    neg = ring.field.neg
    # f_c is 1 alone, with the raw one of every field
    return c, parts.get(c) == {0: 1}, {
        n: {e: neg(v) for e, v in part.items()}
        for n, part in parts.items() if n < c}


def _mult_matrix(g, f, z_var, c, neg_low):
    """mult_matrix on a g of f's ring, with f's c and {n: -f_n} read by
    _modulus."""
    # entries are raw term maps keyed with Z's entry at 0, as poly's _split
    # parts g and f.  A saturated g is mostly reduced already: its split
    # gives its Z-degree, and only a g of Z-degree c or more is divided
    # and split again.  Column j+1 is Z * (column j) mod f: shift the
    # entries up one power of Z, then replace the t*Z^c at the top by
    # -t*(f - Z^c).  An entry a nonzero -f_n touches becomes itself plus
    # t*(-f_n), one _sum_of_products call on a copy, as the map itself is
    # also the last column's entry (in F_{p^k}, at most |t|*|f_n| + 1
    # summands, far inside reduce's bound).  A zero column stays zero.
    # Column 0 is g mod f and c - 1 steps build the rest; a c-th step would
    # build only Z^c * g mod f, which no entry holds.
    ring = f.ring
    field = ring.field
    i, nvars = ring.var_index(z_var), ring.nvars
    parts = _split(g._raw, i, nvars)
    if max(parts, default=-1) >= c:
        _, g = univ_divmod(g, f, z_var)
        parts = _split(g._raw, i, nvars)
    col = [parts.get(n, {}) for n in range(c)]
    columns = [col]
    for _ in range(c - 1):
        top = col[-1]
        col = [{}] + col[:-1]
        if top:
            for n, a in neg_low.items():
                col[n] = _sum_of_products(field, ((top, a),), nvars,
                                          dict(col[n]))
        columns.append(col)
    return MultiplicationMatrix._from_rows(g, list(zip(*columns)), ring)


def _integer_entries(A, field):
    """Each entry of A, rows of raw term maps, as a list of ((j, key), int)
    pairs, and D: the entries are D*A over Z, and (j, key) is t^j times the
    monomial key.
    Q scales by the lcm D of the denominators, all at t^0; a finite field
    gives one pair per nonzero digit of the value (F_p has one digit, F_{p^k}
    the k of _unpack), each a balanced residue in (-p/2, p/2] at t^j.
    Smaller integers give narrower digits in char_poly."""
    p = field.p
    if not p:
        D = math.lcm(*{v.denominator for row in A for e in row
                       for v in e.values()})
        return [[[((0, x), v.numerator * (D // v.denominator))
                  for x, v in e.items()] for e in row] for row in A], D
    half, unpack = p >> 1, field._unpack or (lambda v: (v,))
    digits = {v: [(j, q - p if q > half else q)
                  for j, q in enumerate(unpack(v)) if q]
              for v in {v for row in A for e in row for v in e.values()}}
    return [[[((j, x), q) for x, v in e.items() for j, q in digits[v]]
             for e in row] for row in A], 1


def char_poly(M):
    """Coefficients (h_1, ..., h_c) of det(V*Id - M) = V^c + h_1 V^{c-1} + ...,
    in the ring of the entries.

    Berkowitz's division-free recursion, valid in any characteristic, on
    the matrix's rows of raw term maps (M.matrix is not built), by one of
    two exact paths, chosen before any product.  A matrix of degree c > 3
    is Kronecker-packed (_packed_char_poly) unless the packing declines;
    any other runs on the raw maps themselves (_raw_char_poly).
    At c <= 3 the packing's lift, layout and decode cost more than the few
    products the recursion takes.  A degree above budget.CHARPOLY_DEGREE
    raises ResourceCapError before any product, as does the raw path's
    work past budget.TERM_PRODUCTS.
    """
    c, limit = M.size, budget.CHARPOLY_DEGREE
    if c > limit:
        raise ResourceCapError("CHARPOLY_DEGREE", c, limit, "no product taken")
    A, ring = M._rows, M._ring
    if c > 3:
        h = _packed_char_poly(A, ring)
        if h is not None:
            return h
    return _raw_char_poly(A, ring)


def _raw_char_poly(A, ring):
    """char_poly of A, rows of raw term maps in ring, by _berkowitz on the
    maps: each dot product is one _sum_of_products call, which checks each
    product on its leading key, and an update h_i - s_i merges two maps
    unreduced into a new one, which the next dot product reduces.  The
    work, sum |a|*|b| over the products, is counted over one dot's pairs
    before the kernel takes any of them: past budget.TERM_PRODUCTS it
    raises ResourceCapError."""
    c = len(A)
    field, n, negate = ring.field, ring.nvars, ring.field.neg
    work, limit = 0, budget.TERM_PRODUCTS

    def charged(u, v):
        nonlocal work
        pairs = [(a, b) for a, b in zip(u, v) if a and b]
        for a, b in pairs:
            work += len(a) * len(b)
            if work > limit:
                raise ResourceCapError(
                    "TERM_PRODUCTS", work, limit, "degree %d, %d taken"
                    % (c, work - len(a) * len(b)))
        return pairs

    def merge(x, y):
        out = dict(x)
        for e, v in y.items():
            out[e] = out.get(e, 0) + v
        return out

    h = _berkowitz(
        A, lambda u, v, start=None: _sum_of_products(field, charged(u, v), n,
                                                     start),
        lambda x: {e: negate(v) for e, v in x.items()}, merge)
    return [Polynomial._from_raw(ring, x) for x in h]


def _packed_char_poly(A, ring):
    """char_poly of A, rows of raw term maps in ring, by _berkowitz on
    plain ints, or None when packing declines.  The matrix is lifted once
    (_integer_entries) and each entry packed into one int by mixed-radix
    Kronecker substitution:
    the term t^j x^e is a signed digit at slot sum_i e_i R_i over t and
    the variables the entries use (t's exponent first, each distinct
    monomial key read once by poly's _columns), R_i = prod_{k<i}
    (c*d_k + 1), where d_i is coordinate i's largest exponent in the
    entries.  Substitution is a ring homomorphism and ints are exact, so
    intermediates may carry freely; an output decodes uniquely once its
    exponents fit their slots (h_i is a sum of products of i <= c entries)
    and its coefficients fit a balanced digit of w = bitlen(B) + 1 bits.
    B = max_i e_i(rho_1..rho_c), the elementary symmetric polynomials of
    the row sums of the entries' l1 norms, bounds every coefficient: h_i is
    a signed sum of principal i-minors.  One decode loop serves every
    field: a monomial's t-digits are one group, one step per nonzero group
    or run of zero ones, and a group is one coefficient, divided exactly by
    D^i over Q or sum_j (digit_j mod p) t^j reduced once, and a monomial's
    key is sum_i e_i * (the key of x_i).  The packed length w * slots grows
    with the entries' degrees however sparse they are: before any product,
    packing declines (None) when it exceeds _PACKED_BITS_PER_TERM bits per
    term of the entries (mostly zeros) or _PACKED_BITS_MAX bits.  So an
    output's total degree stays below its slot count, far inside the 2^31
    that poly's keys hold.
    """
    c = len(A)
    field = ring.field
    entries, D = _integer_entries(A, field)
    keys = {x for row in entries for e in row for x, _ in e}
    if not keys:
        return [ring.zero()] * c
    esym = [1] + [0] * c   # e_i of the row sums seen so far
    for row in entries:
        rho = sum(abs(v) for entry in row for _, v in entry)
        esym = [a + b * rho for a, b in zip(esym, [0] + esym)]
    w = max(esym).bit_length() + 1
    # t's exponents, then the entries of the variables the keys use, each
    # distinct monomial key read once
    n = ring.nvars
    monos = list({x for _, x in keys})
    used = _columns(monos, n)
    cols = [[j for j, _ in keys], *used.values()]
    radices = [c * max(col) + 1 for col in cols]
    *places, slots = accumulate([1, *radices], mul)   # the R_i, then slots
    if w * slots > min(_PACKED_BITS_MAX, _PACKED_BITS_PER_TERM * sum(
            len(e) for row in A for e in row)):
        return None
    shifts = [w * r for r in places]
    packed = [0] * len(monos)   # each monomial's shift, variable by variable
    for col, t in zip(cols[1:], shifts[1:]):
        packed = [a + e * t for a, e in zip(packed, col)]
    mono = dict(zip(monos, packed))
    shift = {(j, x): j * shifts[0] + mono[x] for j, x in keys}
    h = _berkowitz([[sum(v << shift[x] for x, v in entry) for entry in row]
                    for row in entries],
                   lambda u, v, start=0: sum(map(mul, u, v), start), neg, add)

    # adding the bias, half in every slot, makes every digit non-negative,
    # and xor with it leaves a zero digit wherever the output's is zero
    half, mask, top = 1 << (w - 1), (1 << w) - 1, 1 << w * slots
    bias = (top - 1) // mask * half
    # the key of an output monomial is sum_i e_i * unit_i
    nt = radices[0]
    radices = [(r // nt, m, _unit(i, n))
               for i, r, m in zip(used, places[1:], radices[1:])]
    tpow = [1]   # packed residues of t^0, ..., t^(nt-1) mod the modulus
    while len(tpow) < nt:
        tpow.append(field.mul(tpow[-1], field._pack((0, 1))))
    p, gw = field.p, w * nt
    gmask = (1 << gw) - 1
    out, Di = [], 1
    for v in h:
        Di *= D
        x = v + bias
        if not 0 <= x < top:   # cannot happen while B bounds h_i
            raise ArithmeticError("char_poly output exceeds its digit bound")
        x ^= bias
        raw, m = {}, 0   # m: the monomial slot of the group at x's bottom
        while x:
            if y := x & gmask:
                if not p:
                    q = (y ^ half) - half
                    a = q // Di if q % Di == 0 else Fraction(q, Di)
                else:
                    acc = j = 0
                    while y:   # t^j's digit, taken mod p, times t^j
                        if u := y & mask:
                            acc += ((u ^ half) - half) % p * tpow[j]
                        y >>= w
                        j += 1
                    a = field.reduce(acc)
                if a:
                    raw[sum([m // r % d * u for r, d, u in radices])] = a
                x >>= gw
                m += 1
            else:   # skip the run of zero groups up to the next nonzero one
                z = ((x & -x).bit_length() - 1) // gw
                x >>= gw * z
                m += z
        out.append(Polynomial._from_raw(ring, raw))
    return out


def _berkowitz(A, dot, neg, add):
    """Berkowitz's division-free recursion on a square matrix A over the
    ring that the operators give: dot(u, v, start) is start plus
    sum_k u_k*v_k (start the ring's zero when left out), neg(x) is -x and
    add(x, y) is x + y.  With the leading (r+1)-block split as
    [[B, col], [row, a]], the coefficients grow as h'_i = h_i - s_i -
    sum_{0<j<i} s_{i-j} h_j (h_{r+1} = 0), where s_1 = a and s_k = row *
    B^{k-2} * col; each s_k is negated once.  At r = 0 that is h = [-a_00],
    which neg has made already, so it takes no dot.  Each start passed to
    dot is a value that add or neg made and nothing reads again, so dot may
    write into it."""
    c = len(A)
    cols = tuple(zip(*A))
    h = [neg(A[0][0])]
    for r in range(1, c):
        # powers act on the row: column j of a multiplication matrix is
        # g*Z^j mod f, whose entries grow with j, so row r's first r entries
        # start the powers smaller than column r's would
        block = [col[:r] for col in cols[:r]]
        row, col = A[r][:r], cols[r][:r]
        s = [neg(A[r][r])]   # -s_1, ..., -s_(r+1)
        for k in range(r):
            s.append(neg(dot(row, col)))
            if k < r - 1:
                row = [dot(row, b) for b in block]
        h = [dot(reversed(s[:i - 1]), h,
                 add(h[i - 1], s[i - 1]) if i <= r else s[r])
             for i in range(1, r + 2)]
    return h


def cayley_hamilton_residue(g, f, z_var):
    """psi_g(g) reduced mod f; zero iff Cayley-Hamilton holds (it must).
    psi_g(g) = g^c + h_1 g^(c-1) + ... + h_c, by Horner's rule."""
    acc = g.ring.one()
    for h in char_poly(mult_matrix(g, f, z_var)):
        acc = acc * g + h
    return univ_divmod(acc, f, z_var)[1]


def _scalar_class(g):
    """(lam, m) with g = lam*m and lam a nonzero int, so that the
    char poly of m serves every scalar multiple of it.  Over Q with int
    coefficients, lam is g's content, signed as the leading coefficient
    is, and m's coefficients are the exact int quotients.  Any other g is
    its own class (lam = 1): over Q no Fraction enters the matrices, and
    over F_q classes by the leading coefficient almost never merge (they
    save 2 of the benchmark pools' 305 char polys, and 110 of 638 over Q)."""
    raw = g._raw
    if g.ring.field.p or not all(type(v) is int for v in raw.values()):
        return 1, g
    lam = math.gcd(*raw.values()) * (1 if raw[max(raw)] > 0 else -1)
    if lam == 1:
        return 1, g
    return lam, Polynomial._from_raw(g.ring, {e: v // lam
                                              for e, v in raw.items()})


def eliminate(G, f_gen, z_var, check_transversal=True):
    """Elimination algebra over the ring without z_var.

    Relative diff-saturation in z_var first; then every saturated generator
    (g, n) is reduced mod f and contributes the coefficients h_j of the
    characteristic polynomial of multiplication-by-g, at weight j*n.
    Generators reducing to zero contribute nothing; f itself is one, and
    gets no matrix.  f is split once (_modulus), which gives its checks
    here and what each matrix reads of it, and each nonzero h_j is
    projected into the base ring by one raw pass.
    Saturation lists one polynomial again at each lower weight, and
    h_j(lam*m) = lam^j * h_j(m), so one map takes each polynomial to its
    (j, h_j): a distinct generator g = lam*m (one _scalar_class call)
    takes m's, from one matrix and char poly per class and call, each
    h_j scaled once by lam^j, and every copy of g reads the same h_j;
    provenance names the generator.  Before any saturation, a weight
    above budget.CHARPOLY_DEGREE raises ResourceCapError and a z_var that
    is the ring's only variable RingError.
    """
    f_gen = ReesGenerator(*f_gen)   # a generator or a plain (f, c) pair
    ring = G.ring
    f, c = f_gen
    if f.ring != ring:
        raise RingError("ring mismatch")
    base = ring.drop_variable(z_var)
    degree, monic, neg_low = _modulus(f, z_var)
    if not monic:
        raise ReesError("distinguished generator is not monic in %r" % z_var)
    if degree != c:
        raise ReesError("Z-degree of the distinguished generator (%d) differs "
                        "from its weight (%d)" % (degree, c))
    if check_transversal and f.order_at_origin() != c:
        raise ReesError("transversality failure: order %s != weight %d"
                        % (f.order_at_origin(), c))
    limit = budget.CHARPOLY_DEGREE
    if c > limit:
        raise ResourceCapError("CHARPOLY_DEGREE", c, limit,
                               "before saturation")
    sat = diff_saturate(ReesAlgebra(ring, G.generators + (f_gen,)), {z_var})
    i = ring.var_index(z_var)
    found = {}   # (h_j projected, weight) -> (g, weight of g, j), first source
    # polynomial -> its (j, nonzero h_j projected), () if it is 0 mod f, as
    # f's class is
    coeffs = {_scalar_class(f)[1]: ()}
    for g in sat.generators:
        hs = coeffs.get(g.poly)
        if hs is None:
            lam, m = _scalar_class(g.poly)
            if m not in coeffs:
                M = _mult_matrix(m, f, z_var, c, neg_low)
                coeffs[m] = () if M.element.is_zero() else tuple(
                    (j, Polynomial._from_raw(base, _project_out(h._raw, i,
                                                                z_var)))
                    for j, h in enumerate(char_poly(M), start=1) if h)
            # h_j(lam*m) = lam^j * h_j(m); lam is an int here
            hs = coeffs[g.poly] = coeffs[m] if lam == 1 else tuple(
                (j, h.scale(lam**j)) for j, h in coeffs[m])
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
