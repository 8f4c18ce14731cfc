"""End-to-end worked examples and randomized verification batches.

Each scenario runs a scripted computation and returns a report of named
checks; the CLI prints the report and exits nonzero when a check fails.
Randomized scenarios are deterministic for a fixed seed.
"""

import itertools
import random

from .fields import FieldDescriptor
from .poly import RationalPoint, RingContext
from .rees import (ReesAlgebra, ReesGenerator, component_order, degree_ideal,
                   diff_saturate, e0_invariant, is_simple,
                   normalize_generators, ord_at_point,
                   rational_singular_points, weighted_transform)
from .groebner import ideal_equal
from .elim import eliminate, slope_equivalent
from .ramify import MonicInput, verify_thm_1_16

SCENARIO_NAMES = ("ex6.9", "ex6.10", "ex5.14", "ex6.11",
                  "thm5.5-random", "thm1.16-random", "thm6.6-random")


class ScenarioReport:
    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.checks = []
        self.notes = []

    def check(self, description, ok, detail=""):
        self.checks.append((description, bool(ok), detail))
        return bool(ok)

    def note(self, text):
        self.notes.append(text)

    @property
    def passed(self):
        return sum(1 for _, ok, _ in self.checks if ok)

    @property
    def total(self):
        return len(self.checks)

    def ok(self):
        return self.passed == self.total

    def format_text(self):
        lines = ["scenario: %s (seed %d)" % (self.name, self.seed)]
        for desc, ok, detail in self.checks:
            mark = "ok" if ok else "FAIL"
            line = "  [%s] %s" % (mark, desc)
            if detail:
                line += "  (%s)" % detail
            lines.append(line)
        for note in self.notes:
            lines.append("  note: %s" % note)
        lines.append("#! passed: %d/%d" % (self.passed, self.total))
        return "\n".join(lines) + "\n"


def run_scenario(name, seed=0):
    try:
        runner = _RUNNERS[name]
    except KeyError:
        raise ValueError("unknown scenario %r (choose from %s)"
                         % (name, ", ".join(SCENARIO_NAMES))) from None
    report = ScenarioReport(name, seed)
    runner(report, random.Random(seed))
    return report


def _downshift_set(G):
    """Normalized generators closed under the implicit down-shift
    (gW^n spans gW^n' for every n' <= n), for structural comparisons."""
    out = set()
    for g in normalize_generators(G).generators:
        for n in range(1, g.weight + 1):
            out.add((g.poly, n))
    return out


# -- worked examples --------------------------------------------------

def _scenario_ex69(rep, rng):
    """Characteristic 0: elimination commutes with the quadratic transform."""
    R = RingContext(FieldDescriptor.parse("Q"), ["Y", "Z"])
    f = R.parse("Z^2+Y^5")
    G = diff_saturate(ReesAlgebra.from_pairs(R, [(f, 2)]))
    rep.check("saturation contains 2Z w 1 and 5Y^4 w 1",
              (R.parse("2*Z"), 1) in G.generators
              and (R.parse("5*Y^4"), 1) in G.generators,
              str(G))
    z = ReesGenerator(R.var("Z"), 1)
    RG = eliminate(G, z, "Z").algebra
    w1 = [g.poly for g in RG.generators if g.weight == 1]
    y4 = RG.ring.parse("Y^4")
    rep.check("elimination with f = Z has weight-1 part <Y^4>",
              w1 and all(p.degree_in("Y") >= 4 for p in w1)
              and any(p.scale(p.leading_coefficient().inverse()) == y4
                      for p in w1),
              str(RG))
    G1, _ = weighted_transform(G, ["Y", "Z"], "Y")
    N1 = normalize_generators(G1)
    rep.check("transformed algebra contains Z1 w 1 and Y^3 w 1",
              (R.var("Z"), 1) in N1.generators
              and (R.parse("Y^3"), 1) in N1.generators,
              str(N1))
    RG1 = eliminate(G1, z, "Z").algebra
    RGt, _ = weighted_transform(RG, ["Y"], "Y")
    rep.check("elimination of the transform equals the transform of the "
              "elimination (down-shift-closed generator sets)",
              _downshift_set(RG1) == _downshift_set(RGt),
              "%s vs %s" % (RG1, RGt))
    y3 = RG.ring.parse("Y^3")
    rep.check("both sides carry the monomial generator Y^3 w 1",
              any(g.weight == 1 and g.poly.scale(
                  g.poly.leading_coefficient().inverse()) == y3
                  for g in RG1.generators),
              str(normalize_generators(RG1)))


def _scenario_ex610(rep, rng):
    """Characteristic 2 pathology: the two elimination routes diverge."""
    R = RingContext(FieldDescriptor.parse("F2"), ["Y", "Z"])
    f = R.parse("Z^2+Y^5")
    fg = ReesGenerator(f, 2)
    G = diff_saturate(ReesAlgebra.from_pairs(R, [(f, 2)]))
    rep.check("saturation is {Y^4 W, (Z^2+Y^5)W, (Z^2+Y^5)W^2}",
              set(G.generators) == {ReesGenerator(R.parse("Y^4"), 1),
                                    ReesGenerator(f, 1), fg},
              str(G))
    RG = eliminate(G, fg, "Z").algebra
    S = RG.ring
    rep.check("elimination mod Z^2+Y^5 is exactly {Y^8 W^2}",
              set(RG.generators) == {ReesGenerator(S.parse("Y^8"), 2)},
              str(RG))
    rep.check("Y^8 W^2 is slope-equivalent to Y^4 W",
              slope_equivalent(RG, ReesAlgebra.from_pairs(
                  S, [(S.parse("Y^4"), 1)])))
    RGt, _ = weighted_transform(RG, ["Y"], "Y")
    rep.check("transformed elimination is the Y^3 W class (slope 3)",
              slope_equivalent(RGt, ReesAlgebra.from_pairs(
                  S, [(S.parse("Y^3"), 1)])),
              str(RGt))
    G1, _ = weighted_transform(G, ["Y", "Z"], "Y")
    f1 = R.parse("Z^2+Y^3")  # strict transform of f in the Y-chart
    rep.check("transform carries the strict transform (Z1^2+Y^3)W^2",
              (f1, 2) in G1.generators, str(G1))
    E1 = eliminate(diff_saturate(G1), ReesGenerator(f1, 2), "Z").algebra
    rep.check("re-saturated transform eliminates to the Y^2 W class (slope 2)",
              slope_equivalent(E1, ReesAlgebra.from_pairs(
                  S, [(S.parse("Y^2"), 1)])),
              str(E1))
    rep.check("slope_equivalent correctly reports the divergence",
              slope_equivalent(RGt, E1) is False)


def _scenario_ex514(rep, rng):
    """The e0 invariant drops from 2 to 0 once the factors are adjoined."""
    R = RingContext(FieldDescriptor.parse("F2"), ["X", "Y"])
    F = R.parse("X^4+X^2*Y^5")
    G = diff_saturate(ReesAlgebra.from_pairs(R, [(F, 4)]))
    O = R.origin()
    rep.check("component order of I_4 at the origin is 4",
              component_order(G, 4, O) == 4)
    rep.check("component orders of I_1, I_2, I_3 all exceed their index",
              all(component_order(G, k, O) > k for k in (1, 2, 3)),
              str([component_order(G, k, O) for k in (1, 2, 3)]))
    rep.check("origin is the unique rational singular point",
              rational_singular_points(G) == {O})
    rep.check("origin is simple", is_simple(G, O))
    rep.check("e0 invariant is 2", e0_invariant(G, O) == 2)
    adjoined = ReesAlgebra(R, G.generators
                           + (ReesGenerator(R.var("X"), 1),
                              ReesGenerator(R.parse("X^2+Y^5"), 2)))
    rep.check("adjoining XW and (X^2+Y^5)W^2 drops e0 to 0",
              e0_invariant(adjoined, O) == 0)


def _scenario_ex611(rep, rng):
    """Five quadratic transforms resolve Z^3+X^13 Z+X^16 over F_3; the base
    elimination chain tracks the upstairs one for the first two transforms
    only.

    The i-th comparison (i = 0..4) happens after the (i+1)-st transform,
    matching the transformation-indexed narration; once the curve upstairs
    is resolved while the transformed base algebra still has ord >= 1, the
    two sides trivially disagree.
    """
    R = RingContext(FieldDescriptor.parse("F3"), ["X", "Z"])
    S = R.drop_variable("Z")
    OS = S.origin()
    f = R.parse("Z^3+X^13*Z+X^16")
    G = diff_saturate(ReesAlgebra.from_pairs(R, [(f, 3)]))
    rep.check("e0 at the origin is 1", e0_invariant(G, R.origin()) == 1)
    H = eliminate(G, ReesGenerator(f, 3), "Z").algebra

    curG, curH, curf = G, H, f
    transforms = 0
    agrees = []
    while transforms < 8:
        pts = [p for p in (RationalPoint(R, c) for c in itertools.product(
            R.field.elements(), repeat=2)) if curf.order_at(p) == 3]
        if not pts:
            break
        if len(pts) > 1:
            rep.note("obstruction: multiple multiplicity-3 rational points %s"
                     % pts)
            rep.check("unique multiplicity-3 center at each step", False)
            return
        pt = pts[0]
        curG = ReesAlgebra.from_pairs(
            R, [(g.poly.recenter(pt), g.weight) for g in curG.generators])
        curf = curf.recenter(pt)
        curH = ReesAlgebra.from_pairs(
            S, [(g.poly.recenter(pt.drop("Z")), g.weight)
                for g in curH.generators])
        curG, _ = weighted_transform(curG, ["X", "Z"], "X")
        curH, _ = weighted_transform(curH, ["X"], "X")
        curf = weighted_transform(
            ReesAlgebra.from_pairs(R, [(curf, 3)]), ["X", "Z"], "X"
        )[0].generators[0].poly
        transforms += 1
        if curf.order_at_origin() == 3:
            Ei = eliminate(diff_saturate(curG),
                           ReesGenerator(curf, 3), "Z").algebra
            agrees.append(ord_at_point(Ei, OS) == ord_at_point(curH, OS))
        else:
            # resolved upstairs; disagreement iff the base side still looks
            # singular, which we record explicitly
            still = ord_at_point(curH, OS) >= 1
            rep.note("after transform %d the strict transform has order %s; "
                     "base algebra ord %s" % (transforms,
                                              curf.order_at_origin(),
                                              ord_at_point(curH, OS)))
            agrees.append(not still)
    rep.check("resolved after exactly 5 quadratic transforms",
              transforms == 5, "took %d" % transforms)
    rep.check("elimination chains agree for i = 0, 1 only",
              agrees == [True, True, False, False, False], str(agrees))


# -- randomized batches -----------------------------------------------

_RAMIFY_CONFIGS = (("F3", ("x",)), ("F5", ("x",)),
                   ("F2", ("x", "y")), ("F4", ("x",)))


def _random_monic_factor(rng, ring, z_var, degree):
    """Z^degree plus lower Z-terms with small random base coefficients."""
    z = ring.var(z_var)
    f = z**degree
    base_vars = [v for v in ring.variables if v != z_var]
    elements = ring.field.elements()
    for j in range(degree):
        coeff = ring.zero()
        for _ in range(rng.randrange(0, 3)):
            c = rng.choice(elements)
            exps = [0] * ring.nvars
            for v in base_vars:
                exps[ring.var_index(v)] = rng.randrange(0, 4)
            coeff = coeff + ring.monomial(tuple(exps), c)
        f = f + coeff * z**j
    return f


def _scenario_thm116(rep, rng):
    """Pure ramification vs discriminant vanishing on 50 random monic inputs."""
    produced = 0
    attempts = 0
    while produced < 50 and attempts < 1000:
        attempts += 1
        fieldspec, base_vars = _RAMIFY_CONFIGS[rng.randrange(
            len(_RAMIFY_CONFIGS))]
        field = FieldDescriptor.parse(fieldspec)
        ring = RingContext(field, list(base_vars) + ["Z"])
        b = rng.randrange(2, 5)
        if rng.random() < 0.4 and b >= 2:
            split = rng.randrange(1, b)
            degrees = [split, b - split]
        else:
            degrees = [b]
        factors = [_random_monic_factor(rng, ring, "Z", d) for d in degrees]
        inp = MonicInput(ring, "Z", factors)
        report = verify_thm_1_16(inp)
        desc = "%s b=%d factors=%d" % (fieldspec, b, len(degrees))
        rep.check("agreement for instance %d (%s)" % (produced, desc),
                  report.agree,
                  "mismatches: %d" % len(report.counterexamples))
        produced += 1


_SHEAR_INSTANCES = (
    ("Q", "Z^2+X^3+Y^4", 2),
    ("Q", "Z^2+X^2*Y^2", 2),
    ("Q", "Z^3+X^4+Y^5", 3),
    ("Q", "Z^3+X^2*Y^2", 3),
    ("F2", "Z^2+X^3*Y^3", 2),
    ("F2", "Z^2+X^3+Y^3", 2),
    ("F2", "Z^2+X^2*Y^3", 2),
    ("F3", "Z^3+X^4*Y^4", 3),
    ("F3", "Z^3+X^5+Y^5", 3),
    ("F3", "Z^2+X^2*Y^2", 2),
    ("F3", "Z^3+X^4+Y^7", 3),
    ("Q", "Z^2+X^5+Y^5", 2),
)


def _scenario_thm55(rep, rng):
    """ord of the elimination is invariant under shears Z -> Z + lambda X."""
    for spec, text, weight in _SHEAR_INSTANCES:
        field = FieldDescriptor.parse(spec)
        R = RingContext(field, ["X", "Y", "Z"])
        f = R.parse(text)
        G = diff_saturate(ReesAlgebra.from_pairs(R, [(f, weight)]))
        O = R.origin()
        if not is_simple(G, O):
            rep.check("instance %s over %s is simple" % (text, spec), False)
            continue
        OS = R.drop_variable("Z").origin()
        direct = eliminate(G, ReesGenerator(f, weight), "Z").algebra
        base = ord_at_point(direct, OS) if not direct.is_empty() else None
        ok = True
        detail = "direct ord %s" % base
        for lam in (1, 2):
            shear = {"Z": R.var("Z") + R.var("X").scale(lam)}
            sheared = diff_saturate(ReesAlgebra.from_pairs(
                R, [(g.poly.substitute(shear), g.weight)
                    for g in G.generators]))
            fs = f.substitute(shear)
            E = eliminate(sheared, ReesGenerator(fs, weight), "Z").algebra
            got = ord_at_point(E, OS) if not E.is_empty() else None
            if got != base:
                ok = False
                detail += "; lambda=%d gives %s" % (lam, got)
        rep.check("shear-invariant ord for %s over %s" % (text, spec),
                  ok, detail)


def _random_monomial_algebra(rng, ring, center, count):
    """Monomial generators permissible along the center by construction."""
    pairs = []
    for _ in range(count):
        weight = rng.randrange(1, 5)
        exps = [rng.randrange(0, 3) for _ in ring.variables]
        idx = [ring.var_index(v) for v in center]
        while sum(exps[i] for i in idx) < weight:
            exps[rng.choice(idx)] += 1
        pairs.append((ring.monomial(tuple(exps)), weight))
    return ReesAlgebra.from_pairs(ring, pairs)


def _scenario_thm66(rep, rng):
    """Transforming an algebra or its saturation spans the same Diff-algebra,
    checked degreewise through Groebner ideal equality, on 10 random
    monomial algebras."""
    specs = ("F2", "F3", "Q")
    for i in range(10):
        spec = specs[i % len(specs)]
        nvars = rng.choice((2, 3))
        names = ["x", "y", "z"][:nvars]
        ring = RingContext(FieldDescriptor.parse(spec), names)
        center = names if nvars == 2 else sorted(rng.sample(names, 2))
        chart = rng.choice(center)
        G = _random_monomial_algebra(rng, ring, center, rng.randrange(1, 4))
        Gsat = diff_saturate(G)
        G1, _ = weighted_transform(G, center, chart)
        G1sat, _ = weighted_transform(Gsat, center, chart)
        A = diff_saturate(G1)
        B = diff_saturate(G1sat)
        ok = True
        detail = ""
        for k in range(1, max(G.max_weight, 1) + 1):
            if not ideal_equal(degree_ideal(A, k), degree_ideal(B, k)):
                ok = False
                detail = "degree %d differs" % k
                break
        rep.check("degreewise equality for instance %d (%s, center %s, "
                  "chart %s)" % (i, spec, ",".join(center), chart),
                  ok, detail or str(G))


_RUNNERS = {
    "ex6.9": _scenario_ex69,
    "ex6.10": _scenario_ex610,
    "ex5.14": _scenario_ex514,
    "ex6.11": _scenario_ex611,
    "thm5.5-random": _scenario_thm55,
    "thm1.16-random": _scenario_thm116,
    "thm6.6-random": _scenario_thm66,
}
