"""Rees algebras given by weighted generators: differential saturation,
singular loci, point invariants (ord, simplicity, e0, tau), and monoidal
transforms at coordinate-subspace centers, computed as exponent maps on the
generators' terms.  Saturation works on hasse's raw derivative rows and
tells polynomials apart by keys of their raw maps (_identity).  The point
invariants read one recentring pass (_recentred), and e0 and tau one
simplicity gate in every characteristic.

An algebra with generators {g_i W^{n_i}} always denotes the subalgebra
spanned by those elements together with every down-shifted copy g_i W^{n'}
for 1 <= n' <= n_i, so the degree filtration is decreasing.  A generator
is the tuple (g_i, n_i) itself, with checks on construction and names for
its two entries.

The file format's grammar lives in parse_algebra alone, which also applies
a caller's field override (the CLI's --field).
"""

from fractions import Fraction
from itertools import islice
from operator import itemgetter

from .fields import FieldDescriptor, Immutable
from .groebner import Ideal, buchberger, minimal_exponents, rational_zero_set
from .hasse import (_active_indices, _charge_pairs, _derivative_rows,
                    hasse_derivatives)
from .poly import (_INTEGER, INFINITE_ORDER, Polynomial, RingContext,
                   RingError, _center_mask, _chart, _check_key, _divides,
                   _guard)


class ReesError(ValueError):
    pass


class ReesGenerator(Immutable, tuple):
    """A weighted generator g W^n, n >= 1, g != 0: the pair (g, n), which
    it equals, hashes like and unpacks to."""

    __slots__ = ()
    poly = property(itemgetter(0))
    weight = property(itemgetter(1))

    def __new__(cls, poly, weight):
        if poly.is_zero():
            raise ReesError("generator polynomial must be nonzero")
        if not isinstance(weight, int):
            raise ReesError("generator weight %r is not an int" % (weight,))
        if weight < 1:
            raise ReesError("generator weight must be >= 1")
        return cls._trusted(poly, int(weight))

    @classmethod
    def _trusted(cls, poly, weight):
        """Build with no checks, from a nonzero poly and an int weight >= 1:
        saturation's pairs and the chart transforms' images, which are
        nonzero with such weights by construction."""
        return tuple.__new__(cls, (poly, weight))

    def __repr__(self):
        return "ReesGenerator(%s, w=%d)" % (self.poly, self.weight)


class ReesAlgebra(Immutable):
    """The algebra of weighted generators in one ring, each listed once, in
    the order first given: the constructor drops repeats, and _distinct,
    the one builder, takes generators already distinct.  degree_ideal's
    all-monomial levels are cached on the algebra in _levels, on first
    use, like Polynomial's _hash."""

    __slots__ = ("ring", "generators", "_levels")

    def __new__(cls, ring, generators):
        # duplicate generators are dropped here, one hash each
        gens = tuple(dict.fromkeys(generators))
        for g in gens:
            if g.poly.ring != ring:
                raise RingError("generator in a different ring")
        return cls._distinct(ring, gens)

    @classmethod
    def _distinct(cls, ring, generators):
        """Build from generators already known to be distinct and in ring,
        with no second pass: saturation's deduplicated pairs and the chart
        transforms' images."""
        G = object.__new__(cls)
        object.__setattr__(G, "ring", ring)
        object.__setattr__(G, "generators", tuple(generators))
        return G

    @classmethod
    def from_pairs(cls, ring, pairs):
        """Build from (polynomial, weight) pairs, silently dropping zeros."""
        return cls(ring, [ReesGenerator(p, w) for p, w in pairs
                          if not p.is_zero()])

    @property
    def max_weight(self):
        return max((g.weight for g in self.generators), default=0)

    def is_empty(self):
        return not self.generators

    def __eq__(self, other):
        return (isinstance(other, ReesAlgebra)
                and self.ring == other.ring
                and set(self.generators) == set(other.generators))

    def __hash__(self):
        return hash((self.ring, frozenset(self.generators)))

    def __repr__(self):
        return "ReesAlgebra[%s]" % ", ".join(
            "%s w %d" % (g.poly, g.weight) for g in self.generators)


class BlowupChart(Immutable):
    """One coordinate chart of a monoidal transform: x_l -> x_j * x_l for
    l in the center, at the chart of x_j (which becomes the exceptional
    variable)."""

    __slots__ = ("ring", "exceptional", "center")

    def __init__(self, ring, exceptional, center):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "exceptional", exceptional)
        object.__setattr__(self, "center", tuple(center))

    def __repr__(self):
        x = self.ring.var(self.exceptional)
        subs = ", ".join("%s->%s" % (v, x * self.ring.var(v))
                         for v in dict.fromkeys(self.center)
                         if v != self.exceptional)
        return "BlowupChart(exceptional=%s, %s)" % (self.exceptional, subs)


# -- saturation and singular locus ------------------------------------

def _identity(raw):
    """A key of the raw map that C code hashes and compares, equal for two
    maps of one ring iff they are: its one (key, value) item, or the
    frozenset of its items when it has more terms."""
    if len(raw) == 1:
        item, = raw.items()
        return item
    return frozenset(raw.items())


def diff_saturate(G, active=None):
    """Smallest differential extension w.r.t. the active variable set
    (all variables when None).  Extensive, and idempotent up to nonzero
    scalars: saturating again can list scalar multiples of generators
    already there (over Q, Z^3+X^4+Y^5 W^3 goes from 12 generators to 15),
    so compare the two after normalize_generators.

    The generators are the pairs of diff_closure_list(g, w) over the listed
    g W^w, in that order, each pair once.  Each distinct polynomial gets one
    table of derivative rows, at its heaviest listed weight n; a copy g W^w
    reads its blocks n' = 1..w, which are diff_closure_list(g, w), so only a
    copy heavier than every earlier copy of g lists anything, and only the
    blocks past that earlier weight.  A pair is keyed by (identity, weight),
    and each identity becomes one Polynomial, shared across weights: a
    listed g serves as its own.  Each polynomial's blocks are listed once,
    and they are charged against budget.SATURATION_PAIRS before any is
    listed: n - |alpha| for each row of its table."""
    ring = G.ring
    # an unknown name is refused here, with or without generators
    active = _active_indices(ring, active)
    polys, heaviest, copies = {}, {}, []
    for f, w in G.generators:
        ident = _identity(f._raw)
        polys.setdefault(ident, f)
        start = heaviest.get(ident, 0)
        if w > start:
            heaviest[ident] = w
            copies.append((ident, start, w))
    tables, used = {}, 0   # used: the pairs the loop below lists
    for ident, n in heaviest.items():
        rows = tables[ident] = [(0, ident)]
        used += n
        for size, _, raw in _derivative_rows(polys[ident], n, active):
            dident = _identity(raw)
            if dident not in polys:
                polys[dident] = Polynomial._from_raw(ring, raw)
            rows.append((size, dident))
            used += n - size
    _charge_pairs(used)
    pairs = {}
    for ident, start, w in copies:
        for nprime in range(start + 1, w + 1):
            for size, d in tables[ident]:   # by increasing |alpha|
                if size >= nprime:
                    break
                pairs[d, nprime - size] = None
    # the rows hold no zero map, and their weights n' - |alpha| are ints
    # >= 1, so the generators need no checks
    return ReesAlgebra._distinct(ring, [
        ReesGenerator._trusted(polys[ident], w) for ident, w in pairs])


def singular_ideal(G):
    """Ideal cutting out Sing(G) pointwise: all Delta^alpha(g_i) with
    |alpha| <= n_i - 1, over all generators and all variables."""
    gens = []
    for g in G.generators:
        gens.extend(hasse_derivatives(g.poly, g.weight).values())
    return Ideal(G.ring, gens)


def rational_singular_points(G):
    return rational_zero_set(singular_ideal(G))


def is_singular_at(G, at):
    """Pointwise singularity test: every generator has order >= weight at the
    point (equivalent to membership in the zero set of the singular ideal)."""
    return all(g.poly.order_at(at) >= g.weight for g in G.generators)


# -- point invariants -------------------------------------------------

def _recentred(G, at):
    """Each generator g W^w as (g(x + P), its order at P, w), and ord = min
    order/w, exact: a generator is nonzero, so its order is finite."""
    if G.is_empty():
        raise ReesError("ord of the empty algebra is undefined")
    table = [(shifted := g.recenter(at), shifted.order_at_origin(), w)
             for g, w in G.generators]
    return table, min(Fraction(order, w) for _, order, w in table)


def _simple(G, at, name=None):
    """The pass, and whether ord is 1: ord < 1 (off Sing(G)) is refused,
    and so is ord > 1 for the invariant named."""
    table, order = _recentred(G, at)
    if order < 1:
        raise ReesError("point is not in the singular locus")
    if order > 1 and name:
        raise ReesError("%s is defined at simple points only" % name)
    return table, order == 1


def _component_orders(table):
    """nu(I_0), nu(I_1), ...: the least summed point order over generator
    multisets of total weight >= k, one unbounded knapsack table extended
    as it is read."""
    dp = [0]
    while True:
        yield dp[-1]
        k = len(dp)
        dp.append(min(dp[max(0, k - w)] + order for _, order, w in table))


def _frobenius_levels(G):
    """The levels p^e <= max weight, e >= 0 (only 1 in characteristic 0)."""
    p, levels = G.ring.field.p, [1]
    while p and levels[-1] * p <= G.max_weight:
        levels.append(levels[-1] * p)
    return levels


def component_order(G, k, at):
    """nu_at(I_k) for the generated algebra; INFINITE_ORDER for the empty
    algebra."""
    _check_degree(k)
    if G.is_empty():
        return INFINITE_ORDER
    return next(islice(_component_orders(_recentred(G, at)[0]), k, None))


def ord_at_point(G, at):
    """ord_at(G) = min over generators of (point order)/(weight), exact."""
    return _recentred(G, at)[1]


def is_simple(G, at):
    """True iff ord at the point is 1; ord < 1 is a point off Sing(G)."""
    return _simple(G, at)[1]


def e0_invariant(G, at):
    """Smallest e >= 0 with nu(I_{p^e}) = p^e at a simple point of an
    absolutely saturated algebra; 0 by convention in characteristic 0,
    past the same simplicity gate."""
    table, _ = _simple(G, at, "e0")
    if G.ring.field.p == 0:
        return 0
    levels = _frobenius_levels(G)
    for k, order in zip(range(levels[-1] + 1), _component_orders(table)):
        if order == k and k in levels:
            return levels.index(k)
    raise ReesError("no Frobenius level attains its weight; algebra not simple?")


def tau_estimate(G, at):
    """Dimension of the span of linear forms extracted from additive-diagonal
    initial forms sum_i c_i x_i^{p^e} of generators with nu = weight = p^e
    (weight-1 linear parts in characteristic 0), each read as sum_i
    c_i^{1/p^e} x_i: the size of their reduced Groebner basis, which is
    their row echelon form.

    A lower bound for the full Frobenius-flag invariant; exact on diagonal
    instances.
    """
    table, _ = _simple(G, at, "tau")
    levels = _frobenius_levels(G)
    rows = []
    for shifted, order, q in table:
        if order != q or q not in levels:
            continue
        row = {}
        for exps, coeff in shifted.initial_form().terms.items():
            if [e for e in exps if e] != [q]:
                break
            for _ in range(levels.index(q)):   # q = p^e: c -> c^(1/p^e)
                coeff = coeff.pth_root()
            row[tuple(e // q for e in exps)] = coeff   # x_i^q -> x_i
        else:
            rows.append(Polynomial(G.ring, row))
    return len(buchberger(Ideal(G.ring, rows)).basis)


# -- transforms -------------------------------------------------------

def _chart_algebra(G, center, chart_var, weighted):
    """The generators in the chart of chart_var, as an exponent map: each
    term keeps its coefficient, its chart exponent becomes its exponent sum
    over the center (a repeated name counts once), less the weight when
    weighted, and its other exponents stay.  Given the weight w, the map
    inverts on exponents, e_j = n + w - (the other center exponents), so
    distinct terms stay distinct and distinct generators have distinct
    images: the algebra is built with no dedupe pass.  A negative chart
    exponent means the generator's order along the center is below its
    weight."""
    if chart_var not in center:
        raise ReesError("chart variable must lie in the center")
    ring = G.ring
    n = ring.nvars
    mask = _center_mask({ring.var_index(v) for v in center})
    j = ring.var_index(chart_var)
    gens = []
    for g in G.generators:
        raw = _chart(g.poly._raw, mask, j, g.weight if weighted else 0, n)
        if raw is None:
            raise ReesError(
                "center is not permissible: %s has order < %d along it"
                % (g.poly, g.weight))
        # the exponent map is injective, so a nonzero g has a nonzero image,
        # and g's weight was checked when g was built
        gens.append(ReesGenerator._trusted(Polynomial._from_raw(ring, raw),
                                           g.weight))
    return ReesAlgebra._distinct(ring, gens)


def weighted_transform(G, center, chart_var):
    """Weighted (strict-level) transform at a coordinate-subspace center, in
    the chart of chart_var: x_l -> chart * x_l for the other center
    variables, then each generator divided by chart^weight.  Distinct
    generators have distinct transforms, so the generators correspond one
    to one, in order.

    The center must be permissible: every generator has order >= its weight
    along the center subspace, which is exactly when no chart exponent goes
    negative.  Otherwise ReesError names the first generator that fails.
    """
    return (_chart_algebra(G, center, chart_var, weighted=True),
            BlowupChart(G.ring, chart_var, center))


def total_transform(G, center, chart_var):
    """x_l -> chart * x_l for the other center variables, with no
    exceptional division."""
    return _chart_algebra(G, center, chart_var, weighted=False)


# -- degree parts -----------------------------------------------------

def _check_degree(k):
    """Refuse a degree that is not an int >= 1 (a bool counts as an int)."""
    if not isinstance(k, int):
        raise ReesError("degree %r is not an int" % (k,))
    if k < 1:
        raise ReesError("degree must be >= 1")


def degree_ideal(G, k):
    """Ideal generated by products of generators over minimal multisets with
    total weight >= k (minimal: dropping any factor falls below k).

    Both paths skip every generator g W^v dominated by another f W^w with
    w >= v, such as the down-shifted copies a saturation lists: a multiset
    through g W^v gives a product that f W^w divides, at no less weight, so
    g W^v adds nothing to I_k.  When every generator is a monomial, f
    dominates when it divides g; otherwise only when f = g, so each
    polynomial keeps its heaviest copy alone.

    When every generator is a monomial, I_k = sum_g g * I_{k - w_g} with
    I_j = (1) for j <= 0: the minimal exponent vectors of I_1..I_k are
    computed bottom up over the kept generators, one level at a time.  The
    levels are kept on G, so a later call for any k' builds only the levels
    above the highest one built so far.  Otherwise multisets of the kept
    generators are enumerated depth first in generator order and each
    minimal one is multiplied out once.

    Either way the output lists the minimal exponent vectors of the monomial
    products as monic monomials in grevlex order, then the distinct
    non-monomial products sorted stably by grevlex leading monomial, so the
    generator order is deterministic.  Only the ideal is meant: a monomial
    (2X)(2X) is listed as X^2.  On all-monomial input the list is the
    reduced Groebner basis of I_k, and the returned Ideal carries it, so
    buchberger hands it back as it is."""
    _check_degree(k)
    gens = G.generators
    rest = []
    # an algebra with levels kept on it is all-monomial: no scan needed
    if (getattr(G, "_levels", None) is not None
            or all(len(g.poly._raw) == 1 for g in gens)):
        exps = _monomial_degree_exponents(G, k)
    else:
        heaviest = {}
        for f, w in gens:
            if w > heaviest.get(f, 0):
                heaviest[f] = w
        gens = [g for g in gens if heaviest[g.poly] == g.weight]
        products = {}

        def rec(start, weight_sum, product, lightest):
            for i in range(start, len(gens)):
                g = gens[i]
                total = weight_sum + g.weight
                if total < k:
                    rec(i, total, product * g.poly, min(lightest, g.weight))
                elif total - lightest < k:
                    # minimal iff removing the lightest member drops below k;
                    # when g itself is lightest, weight_sum < k already says so
                    products[product * g.poly] = None

        rec(0, 0, G.ring.one(), INFINITE_ORDER)
        exps = minimal_exponents((next(iter(p._raw)) for p in products
                                  if len(p._raw) == 1), G.ring.nvars)
        rest = sorted((p for p in products if len(p._raw) != 1),
                      key=lambda p: max(p._raw))
    # 1 is the raw one of every field, as in RingContext.one.  The monomials
    # and the products of nonzero generators are nonzero and in G.ring, so
    # the ideal needs no checks
    ideal = Ideal._trusted(G.ring, [Polynomial._from_raw(G.ring, {e: 1})
                                    for e in exps] + rest)
    if not rest:
        # all-monomial input (a non-monomial generator has non-monomial
        # powers): monic minimal monomials in grevlex order, the reduced basis
        object.__setattr__(ideal, "_basis", ideal.generators)
    return ideal


def _monomial_degree_exponents(G, k):
    """The minimal monomial keys of I_k of the all-monomial G, from the
    (kept generators, levels) memo in G._levels, extended up to level k.
    Each level's products are checked on the greatest of them."""
    n = G.ring.nvars
    memo = getattr(G, "_levels", None)
    if memo is None:
        # x^e W^w dominates x^d W^v when e | d and w >= v: the levels
        # decrease, so x^d I_{j-v} lies in x^e I_{j-w} and the dominated
        # generator adds no minimal exponent to any level.  Visited by
        # decreasing weight, then total degree, a dominator comes before
        # what it dominates, and every kept generator weighs at least as
        # much as the one tested, so the divisibility test is the whole
        # dominance test.  Keys order by total degree first.
        guard = _guard(n)
        kept = []
        for e, w in sorted(((next(iter(g.poly._raw)), g.weight)
                            for g in G.generators),
                           key=lambda g: (-g[1], g[0])):
            if not any(_divides(d, e, guard) for d, _ in kept):
                kept.append((e, w))
        memo = (tuple(kept), ((0,),))   # I_0 = (1), and 1 is key 0
    kept, levels = memo
    if k < len(levels):
        return levels[k]
    levels = list(levels)   # levels[j]: minimal monomial keys of I_j
    for j in range(len(levels), k + 1):
        products = [e + v for e, w in kept for v in levels[max(j - w, 0)]]
        _check_key(max(products, default=0), n)
        levels.append(tuple(minimal_exponents(products, n)))
    # published whole, never grown in place: a reader of G._levels sees
    # either the old memo or the new one
    object.__setattr__(G, "_levels", (kept, tuple(levels)))
    return levels[k]


# -- file format ------------------------------------------------------

def parse_algebra(text, field=None):
    """Parse the algebra file format:

        ring: F2[Y,Z]
        gen: Z^2+Y^5 w 2

    A field spec such as "F5" in `field` replaces the header's field (the
    header must still be well formed); the generators are read over it.
    A second ring: line and a weight that is not an integer are refused."""
    ring = None
    pairs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("ring:"):
            if ring is not None:
                raise ReesError("second ring header %r" % line)
            body = line[len("ring:"):].strip()
            if "[" not in body or not body.endswith("]"):
                raise ReesError("bad ring header %r" % line)
            fieldspec, varlist = body[:-1].split("[", 1)
            ring = RingContext(FieldDescriptor.parse(field or fieldspec),
                               [v.strip() for v in varlist.split(",")])
        elif line.startswith("gen:"):
            if ring is None:
                raise ReesError("gen line before ring header")
            body = line[len("gen:"):].strip()
            polytext, sep, weighttext = body.rpartition(" w ")
            if not sep:
                raise ReesError("bad generator line %r" % line)
            weighttext = weighttext.strip()
            if not _INTEGER.fullmatch(weighttext):
                raise ReesError("weight %r is not an integer in %r"
                                % (weighttext, line))
            weight = int(weighttext)
            pairs.append((ring.parse(polytext.strip()), weight))
        else:
            raise ReesError("unrecognized line %r" % line)
    if ring is None:
        raise ReesError("missing ring header")
    return ReesAlgebra.from_pairs(ring, pairs)


def format_algebra(G, provenance=None):
    """Emit the algebra file format; provenance maps generator index to a
    comment string."""
    field = G.ring.field
    lines = ["ring: %s[%s]" % (field.spec(), ",".join(G.ring.variables))]
    for i, g in enumerate(G.generators):
        line = "gen: %s w %d" % (g.poly, g.weight)
        if provenance and i in provenance:
            line += "  # %s" % provenance[i]
        lines.append(line)
    return "\n".join(lines) + "\n"


def normalize_generators(G):
    """Scale each generator by the inverse of its leading coefficient, for
    readable output; drops exact duplicates created by the scaling."""
    pairs = []
    for g in G.generators:
        lead = g.poly.leading_coefficient()
        pairs.append((g.poly.scale(lead.inverse()), g.weight))
    return ReesAlgebra.from_pairs(G.ring, pairs)
