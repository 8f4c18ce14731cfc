"""The four benchmark workloads: instance pools, the timed computation, and
the untimed answer check of each instance.

Every workload owns a fixed pool of instances.  Instance i is built from
the seed string "<workload>/<i>", so it is the same on every machine and
every run, and `golden.json` can hold the digest of its canonical answer
text.  A pool holds about one run's work, so a run covers all or most of
it and two runs measure nearly the same instances; a run's --seed chooses
the order in which the pool is visited (see `visiting_order`).  No
instance is repeated within a run, so a cache across calls gains nothing
it would not gain for a user who never asks the same question twice.

The library is reached through module attributes at call time
(`rl.buchberger(...)`, never a name bound at import), so the traced run's
wrappers see every call the benchmark makes.
"""
from __future__ import annotations

import functools
import hashlib
import io
import random
import sys
from typing import Callable, NamedTuple

import reeselim as rl
import reeselim.cli as rl_cli

_NAMES = ("x", "y", "z")


class Instance(NamedTuple):
    index: int
    kind: str
    sizes: dict      # field, nvars, k / c / q; q keys the per-q breakdown
    data: tuple


class Workload(NamedTuple):
    name: str
    pool_size: int
    generate: Callable   # index -> Instance
    run: Callable        # Instance -> result (the timed part)
    check: Callable      # (Instance, result) -> (theorem holds, answer text)


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _ring(spec, names):
    return rl.RingContext(rl.FieldDescriptor.parse(spec), names)


def _nonzero_coeff(rng, field):
    if field.p == 0:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return rng.choice([e for e in field.elements() if not e.is_zero()])


def _lines(items):
    return "\n".join(str(x) for x in items)


def _monic(poly):
    return poly.scale(poly.leading_coefficient().inverse())


def _canonical_ideal(polys):
    """Generators up to unit scaling, sorted: the library returns degree
    ideals with scalars and order that depend on set iteration order."""
    return _lines(sorted(str(_monic(p)) for p in polys))


def _canonical_algebra(G):
    return _lines(sorted("%s w %d" % (_monic(g.poly), g.weight)
                         for g in G.generators))


# -- membership: criterion-07 style probes of saturated algebras ------------

# A probe asks for the Groebner basis of I_k.  The number of minimal weight
# multisets bounds the generator count of I_k; above this bound Buchberger
# runs for tens of seconds on one instance, longer than a whole run.
_MEMBERSHIP_MAX_PRODUCTS = 60


def _minimal_multisets(weights, k):
    """Number of multisets of `weights` (by index, nondecreasing) whose sum
    reaches k and drops below k without its lightest member."""
    count = 0

    def rec(start, total, lightest):
        nonlocal count
        if total >= k:
            count += total - lightest < k
            return
        for i in range(start, len(weights)):
            rec(i, total + weights[i], min(lightest, weights[i]))

    rec(0, 0, k + 1)
    return count


def _random_saturated_algebra(rng, spec):
    nvars = rng.choice((2, 3))
    R = _ring(spec, _NAMES[:nvars])
    pairs = []
    for _ in range(rng.randrange(1, 3)):
        poly = R.zero()
        while poly.is_zero():
            for _ in range(rng.randrange(1, 3)):
                exps = tuple(rng.randrange(0, 4) for _ in range(nvars))
                poly = poly + R.monomial(exps, _nonzero_coeff(rng, R.field))
        pairs.append((poly, rng.randrange(1, 5)))
    return rl.diff_saturate(rl.ReesAlgebra.from_pairs(R, pairs))


def _membership_generate(index):
    rng = random.Random("membership/%d" % index)
    spec = ("F2", "F3", "Q")[index % 3]
    while True:
        G = _random_saturated_algebra(rng, spec)
        if G.is_empty() or G.max_weight < 2:
            continue
        k = rng.randrange(1, G.max_weight + 1)
        weights = [g.weight for g in G.generators]
        if _minimal_multisets(weights, k) > _MEMBERSHIP_MAX_PRODUCTS:
            continue
        probes = []
        while len(probes) < 3:
            gens = [rng.choice(G.generators) for _ in range(rng.randrange(1, 3))]
            top = sum(g.weight for g in gens)
            if top <= k:
                continue
            alpha = [0] * G.ring.nvars
            for _ in range(rng.randrange(k + 1, top + 1) - k):
                alpha[rng.randrange(G.ring.nvars)] += 1
            probes.append((tuple(g.poly for g in gens), tuple(alpha)))
        sizes = {"field": spec, "nvars": G.ring.nvars, "k": k}
        return Instance(index, "membership", sizes, (G, k, tuple(probes)))


def _membership_run(inst):
    G, k, probes = inst.data
    gb = rl.buchberger(rl.degree_ideal(G, k))
    answers = []
    for factors, alpha in probes:
        h = G.ring.one()
        for f in factors:
            h = h * f
        answers.append(rl.membership(rl.hasse_derivative(h, alpha), gb))
    return gb, answers


def _membership_check(inst, result):
    gb, answers = result
    # Saturated algebras are differentially closed: every probe is a member.
    return all(answers), _lines(gb.basis) + "\n" + _lines(answers)


# -- transform: thm6.6 style, transform vs saturation degree by degree ------

def _transform_generate(index):
    rng = random.Random("transform/%d" % index)
    spec = ("F2", "F3", "Q")[index % 3]
    nvars = rng.choice((2, 3))
    names = _NAMES[:nvars]
    R = _ring(spec, names)
    center = list(names) if nvars == 2 else sorted(rng.sample(names, 2))
    chart = rng.choice(center)
    idx = [R.var_index(v) for v in center]
    pairs = []
    for _ in range(rng.randrange(1, 4)):
        weight = rng.randrange(1, 4)
        exps = [rng.randrange(0, 3) for _ in names]
        while sum(exps[i] for i in idx) < weight:
            exps[rng.choice(idx)] += 1
        pairs.append((R.monomial(tuple(exps)), weight))
    G = rl.ReesAlgebra.from_pairs(R, pairs)
    sizes = {"field": spec, "nvars": nvars, "k": G.max_weight}
    return Instance(index, "transform", sizes, (G, tuple(center), chart))


def _transform_run(inst):
    G, center, chart = inst.data
    A = rl.diff_saturate(rl.weighted_transform(G, center, chart)[0])
    B = rl.diff_saturate(rl.weighted_transform(rl.diff_saturate(G), center,
                                               chart)[0])
    degrees = []
    for k in range(1, G.max_weight + 1):
        I, J = rl.degree_ideal(A, k), rl.degree_ideal(B, k)
        degrees.append((I, J, rl.ideal_equal(I, J)))
    return A, B, degrees


def _transform_check(inst, result):
    A, B, degrees = result
    parts = [_canonical_algebra(A), _canonical_algebra(B)]
    for I, J, equal in degrees:
        parts += [_canonical_ideal(I.generators),
                  _canonical_ideal(J.generators), str(equal)]
    # Thm 6.6: both transforms span the same algebra in every degree.
    return all(eq for _, _, eq in degrees), "\n".join(parts)


# -- eliminate: dense char-polys and elimination of shear instances ---------

_CHARPOLY_DEGREES = {"Q": range(3, 8), "F5": range(3, 8), "F4": range(3, 8)}
_CHARPOLY_KINDS = tuple((spec, c) for spec, cs in _CHARPOLY_DEGREES.items()
                        for c in cs)

# (field, f, weight): the Thm 5.5 shear instances and the ex6.11 curve.
_SHEAR_CASES = (
    ("Q", "Z^2+X^3+Y^4", 2), ("Q", "Z^2+X^2*Y^2", 2),
    ("Q", "Z^3+X^4+Y^5", 3), ("Q", "Z^3+X^2*Y^2", 3),
    ("Q", "Z^2+X^5+Y^5", 2),
    ("F2", "Z^2+X^3*Y^3", 2), ("F2", "Z^2+X^3+Y^3", 2),
    ("F2", "Z^2+X^2*Y^3", 2),
    ("F3", "Z^3+X^4*Y^4", 3), ("F3", "Z^3+X^5+Y^5", 3),
    ("F3", "Z^2+X^2*Y^2", 2), ("F3", "Z^3+X^4+Y^7", 3),
    ("F3", "Z^3+X^13*Z+X^16", 3),
)


def _shear_variants():
    """Every (case, shear Z -> Z + a*X + b*Y) with (a, b) != 0 small."""
    out = []
    for case in _SHEAR_CASES:
        spec, text, _ = case
        base = ("X",) if "Y" not in text else ("X", "Y")
        values = range(-2, 3) if spec == "Q" else range(int(spec[1:]))
        for a in values:
            for b in (values if len(base) == 2 else (0,)):
                if a or b:
                    out.append((case, base, a, b))
    return out


_SHEARS = _shear_variants()


def _eliminate_pool_kind(index):
    """Pool layout: the shear variants first, then char-poly instances
    cycling through every (field, c)."""
    if index < len(_SHEARS):
        return ("shear", _SHEARS[index])
    i = index - len(_SHEARS)
    return ("charpoly", _CHARPOLY_KINDS[i % len(_CHARPOLY_KINDS)])


def _eliminate_generate(index):
    kind, spec_info = _eliminate_pool_kind(index)
    if kind == "shear":
        (spec, text, weight), base, a, b = spec_info
        R = _ring(spec, base + ("Z",))
        shift = R.var("Z")
        for var, lam in zip(base, (a, b)):
            shift = shift + R.var(var).scale(lam)
        f = R.parse(text)
        fs = f.substitute({"Z": shift})
        sizes = {"field": spec, "nvars": R.nvars, "c": weight}
        return Instance(index, kind, sizes, (f, fs, weight))
    spec, c = spec_info
    rng = random.Random("eliminate/%d" % index)
    R = _ring(spec, ("Y", "Z"))

    def linear_in_y():
        return (R.constant(_nonzero_coeff(rng, R.field))
                + R.var("Y").scale(_nonzero_coeff(rng, R.field)))

    # Every coefficient is a nonzero a + bY, so all c^2 entries of the
    # multiplication matrix are nonzero polynomials in Y.
    z = R.var("Z")
    f = z**c
    g = R.zero()
    for j in range(c):
        f = f + linear_in_y() * z**j
        g = g + linear_in_y() * z**j
    sizes = {"field": spec, "nvars": 2, "c": c}
    return Instance(index, kind, sizes, (g, f))


def _eliminate_run(inst):
    if inst.kind == "shear":
        _, fs, weight = inst.data
        G = rl.diff_saturate(rl.ReesAlgebra.from_pairs(fs.ring, [(fs, weight)]))
        return rl.eliminate(G, rl.ReesGenerator(fs, weight), "Z").algebra
    g, f = inst.data
    return rl.char_poly(rl.mult_matrix(g, f, "Z"))


def _elim_ord(algebra):
    if algebra.is_empty():
        return None
    return rl.ord_at_point(algebra, algebra.ring.origin())


@functools.cache
def _unsheared_ord(f, weight):
    G = rl.diff_saturate(rl.ReesAlgebra.from_pairs(f.ring, [(f, weight)]))
    return _elim_ord(rl.eliminate(G, rl.ReesGenerator(f, weight), "Z").algebra)


def _eliminate_check(inst, result):
    if inst.kind == "shear":
        f, _, weight = inst.data
        # Thm 5.5: ord of the elimination algebra is invariant under shears.
        ok = _elim_ord(result) == _unsheared_ord(f, weight)
        return ok, _canonical_algebra(result)
    g, f = inst.data
    # Cayley-Hamilton: g^c + h_1 g^(c-1) + ... + h_c vanishes mod f
    # (Horner's scheme, reducing mod f after each product).
    acc = g.ring.one()
    for h in result:
        acc = rl.univ_divmod(acc * g, f, "Z")[1] + h
    ok = rl.univ_divmod(acc, f, "Z")[1].is_zero()
    return ok, _lines(result)


# -- scan: point-by-point ramification and singular-point scans -------------

_RAMIFY_FIELDS = ("F7", "F8", "F9", "F16", "F25")
_SING_FIELDS = ("F8", "F9", "F11")


def _random_monic_factor(rng, ring, degree):
    z = ring.var("Z")
    f = z**degree
    for j in range(degree):
        for _ in range(rng.randrange(0, 3)):
            f = f + ring.monomial((rng.randrange(0, 4), j),
                                  rng.choice(ring.field.elements()))
    return f


def _scan_generate(index):
    rng = random.Random("scan/%d" % index)
    if index % 4 != 3:
        spec = _RAMIFY_FIELDS[(index - index // 4) % len(_RAMIFY_FIELDS)]
        R = _ring(spec, ("x", "Z"))
        b = rng.randrange(2, 5)
        degrees = [b]
        if rng.random() < 0.4:
            split = rng.randrange(1, b)
            degrees = [split, b - split]
        inp = rl.MonicInput(R, "Z", [_random_monic_factor(rng, R, d)
                                     for d in degrees])
        sizes = {"field": spec, "nvars": 2, "q": R.field.order, "c": b}
        return Instance(index, "ramify", sizes, (inp,))
    spec = _SING_FIELDS[(index // 4) % len(_SING_FIELDS)]
    R = _ring(spec, _NAMES)
    # A surface h through a random rational point P and a surface f singular
    # at P: the algebra (h, 1), (f, 2) is singular exactly where the curve
    # h = 0 meets Sing(f), which contains P.
    point = [rng.choice(R.field.elements()) for _ in _NAMES]
    shift = {v: R.var(v) - R.constant(c) for v, c in zip(_NAMES, point)}
    pairs = []
    for weight in (1, 2):
        f = R.zero()
        while f.is_zero():
            for _ in range(rng.randrange(2, 4)):
                exps = [0, 0, 0]
                for _ in range(rng.randrange(weight, weight + 3)):
                    exps[rng.randrange(3)] += 1
                f = f + R.monomial(tuple(exps), _nonzero_coeff(rng, R.field))
        pairs.append((f.substitute(shift), weight))
    G = rl.ReesAlgebra.from_pairs(R, pairs)
    sizes = {"field": spec, "nvars": 3, "q": R.field.order}
    return Instance(index, "sing", sizes,
                    (rl.format_algebra(G), G, R.point(point)))


def _scan_run(inst):
    if inst.kind == "ramify":
        return rl.verify_thm_1_16(inst.data[0])
    text = inst.data[0]
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        code = rl_cli.main(["sing", "-"], out=out)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _scan_check(inst, result):
    if inst.kind == "ramify":
        # Thm 1.16: pure ramification <=> all discriminants vanish.
        answer = [sorted(repr(p) for p in result.ramified_points),
                  sorted(repr(p) for p in result.discriminant_zero_points),
                  result.points_scanned]
        return result.agree, "\n".join(str(a) for a in answer)
    code, text = result
    _, G, point = inst.data
    listed = [line[len("point: "):] for line in text.splitlines()
              if line.startswith("point: ")]
    coords = ",".join(str(c) for c in point.coords)
    # Every listed point passes the order test, which shares no code with
    # the Hasse-derivative scan; the planted point P must be listed.
    ring = G.ring
    ok = code == 0 and coords in listed and all(
        rl.is_singular_at(G, ring.point([ring.parse(c).constant_value()
                                         for c in line.split(",")]))
        for line in listed)
    return ok, "exit %d\n%s" % (code, text)


# Why each workload exists, and its sizes, are recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("membership", 530, _membership_generate, _membership_run,
             _membership_check),
    Workload("transform", 500, _transform_generate, _transform_run,
             _transform_check),
    Workload("eliminate", len(_SHEARS) + 6 * len(_CHARPOLY_KINDS),
             _eliminate_generate, _eliminate_run, _eliminate_check),
    Workload("scan", 150, _scan_generate, _scan_run, _scan_check),
)}


def visiting_order(classes, seed):
    """Pool indices in a seeded order that takes one instance from each cost
    class in turn, so that every prefix of a run holds the same mix of cheap
    and costly instances."""
    rng = random.Random(seed)
    by_class = {}
    for index, cls in enumerate(classes):
        by_class.setdefault(cls, []).append(index)
    queues = [by_class[cls] for cls in sorted(by_class)]
    for q in queues:
        rng.shuffle(q)
    order = []
    for r in range(max(len(q) for q in queues)):
        turn = [q[r] for q in queues if r < len(q)]
        rng.shuffle(turn)
        order += turn
    return order
