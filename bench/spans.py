"""Spans around the calls into reeselim's public entry points, recorded from
outside the library for the benchmark's traced run.

`install` wraps every entry point in ENTRY_POINTS.  Modules copy names with
`from .x import y`, so the wrapper is bound in place of the original in
every reeselim module (and on the class, for methods, including aliases
such as `__rmul__ = __mul__`); otherwise internal calls would bypass the
span.  An entry point that no longer exists is an error, so a rename
cannot silently empty a layer.

Spans are kept in memory as parallel arrays (name, parent, instance, start,
end, note, nested) and reduced once the run is over: self time is a span's
duration minus the time its child spans cover, and inclusive time counts
only spans with no enclosing span of the same name, so recursion is not
counted twice.
"""
from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

# module -> entry points ("Class.method" or function name).
ENTRY_POINTS = {
    "fields": ("FieldElement.__mul__", "FieldElement.__add__",
               "FieldElement.inverse", "FieldElement.pth_root"),
    "poly": ("Polynomial.__mul__", "Polynomial.substitute",
             "Polynomial.evaluate", "univ_divmod", "univ_radical"),
    "hasse": ("hasse_derivative", "diff_closure_list"),
    "groebner": ("buchberger", "normal_form", "membership", "ideal_equal",
                 "rational_zero_set"),
    "rees": ("diff_saturate", "degree_ideal", "singular_ideal",
             "weighted_transform"),
    "elim": ("eliminate", "mult_matrix", "char_poly"),
    "ramify": ("verify_thm_1_16", "generalized_discriminants",
               "purely_ramified_at"),
    "cli": ("main",),
}

# Field arithmetic runs millions of times per run: count calls, no spans.
COUNT_ONLY = ("fields",)

FIELD_KINDS = ("Q", "Fp", "Fq")


def _field_kind(field):
    if field.p == 0:
        return 0
    return 1 if field.k == 1 else 2


# What a span remembers of its call, as one integer, for the ratios and the
# per-size breakdowns.
_NOTES = {
    "groebner.normal_form": lambda args, out: int(out.is_zero()),
    "groebner.buchberger": lambda args, out: len(out.basis),
    "rees.degree_ideal": lambda args, out: len(out.generators),
    "groebner.rational_zero_set": lambda args, out: len(out),
    "ramify.verify_thm_1_16": lambda args, out: out.points_scanned,
    "elim.char_poly": lambda args, out: (
        4 * args[0].size + _field_kind(args[0].matrix[0][0].ring.field)),
}


class TraceSetupError(RuntimeError):
    pass


class Tracer:
    """Span recorder; `enabled` gates recording so that untimed checks and
    the untraced comparison pass leave no spans."""

    def __init__(self):
        self.enabled = False
        self.instance = -1
        self.span_names = []                  # name table, by id
        self.counts = {}                      # count-only name -> [calls]
        self.name = array("H")
        self.parent = array("l")
        self.inst = array("l")
        self.start = array("q")
        self.end = array("q")
        self.note = array("q")
        self.nested = array("b")
        self._stack = []
        self._depth = []

    def _span_wrapper(self, name, fn):
        name_id = len(self.span_names)
        self.span_names.append(name)
        self._depth.append(0)
        note_fn = _NOTES.get(name)
        names, parents, insts = self.name, self.parent, self.inst
        starts, ends, notes = self.start, self.end, self.note
        nested, depth, stack = self.nested, self._depth, self._stack
        now = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            insts.append(tracer.instance)
            notes.append(-1)
            ends.append(0)
            d = depth[name_id]
            nested.append(d > 0)
            depth[name_id] = d + 1
            stack.append(i)
            starts.append(now())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = now()
                stack.pop()
                depth[name_id] = d
            if note_fn is not None:
                notes[i] = note_fn(args, out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.counts.setdefault(name, [0])
        tracer = self

        def wrapper(*args):
            if tracer.enabled:
                cell[0] += 1
            return fn(*args)

        return wrapper

    def wrap(self, name, fn, count_only):
        if count_only:
            return self._count_wrapper(name, fn)
        return self._span_wrapper(name, fn)


def _resolve(entry_points):
    """(span name, module name, owner, original) per entry point, or
    TraceSetupError naming every entry point that is gone."""
    found, missing = [], []
    for module_name, quals in entry_points.items():
        try:
            module = importlib.import_module("reeselim." + module_name)
        except ImportError:
            missing.append("reeselim.%s" % module_name)
            continue
        for qual in quals:
            owner = module
            *path, attr = qual.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (AttributeError, KeyError):
                missing.append("reeselim.%s.%s" % (module_name, qual))
                continue
            found.append(("%s.%s" % (module_name, qual), module_name, owner,
                          original))
    if missing:
        raise TraceSetupError("entry points no longer exist: "
                              + ", ".join(missing))
    return found


def install(tracer, entry_points=ENTRY_POINTS):
    """Wrap every entry point everywhere it is bound and return a function
    that puts the originals back.  Nothing is changed unless every entry
    point resolves."""
    targets = _resolve(entry_points)
    # Load every module that copies names before looking for the copies.
    importlib.import_module("reeselim.scenarios")
    importlib.import_module("reeselim.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "reeselim"
                                     or name.startswith("reeselim."))]
    rebound = []
    for name, module_name, owner, original in targets:
        wrapper = tracer.wrap(name, original, module_name in COUNT_ONLY)
        for holder in [owner] + modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    rebound.append((holder, key, original))
    for name, _, owner, original in targets:
        for holder in [owner] + modules:
            if any(v is original for v in vars(holder).values()):
                raise TraceSetupError("%s still bound unwrapped in %s"
                                      % (name, holder.__name__))

    def restore():
        for holder, key, original in rebound:
            setattr(holder, key, original)

    return restore


def reduce_spans(tracer, instance_sizes):
    """Per-layer totals from the recorded spans.

    Returns {span name: {"calls", "self_ns", "incl_ns"}} and a dict of
    derived figures: the normal_form calls made directly under buchberger
    and how many returned zero, the notes summed and counted per span name,
    self time per (field order q, module) for instances that have a q, and
    char_poly self time per (field kind, c)."""
    names, parents, notes = tracer.name, tracer.parent, tracer.note
    starts, ends = tracer.start, tracer.end
    span_names = tracer.span_names
    modules = [s.split(".", 1)[0] for s in span_names]
    ids = {s: i for i, s in enumerate(span_names)}
    n = len(names)
    covered = [0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            covered[p] += ends[i] - starts[i]
    calls = [0] * len(span_names)
    self_ns = [0] * len(span_names)
    incl_ns = [0] * len(span_names)
    note_sum = [0] * len(span_names)
    note_count = [0] * len(span_names)
    by_q = defaultdict(int)
    by_charpoly = defaultdict(int)
    nf, bb, cp = (ids.get(s, -1) for s in (
        "groebner.normal_form", "groebner.buchberger", "elim.char_poly"))
    reductions = zero_reductions = 0
    for i in range(n):
        nid = names[i]
        dur = ends[i] - starts[i]
        own = dur - covered[i]
        calls[nid] += 1
        self_ns[nid] += own
        if not tracer.nested[i]:
            incl_ns[nid] += dur
        note = notes[i]
        if note >= 0:
            note_sum[nid] += note
            note_count[nid] += 1
            if nid == cp:
                by_charpoly[(FIELD_KINDS[note % 4], note // 4)] += own
            elif nid == nf and parents[i] >= 0 and names[parents[i]] == bb:
                reductions += 1
                zero_reductions += note
        q = instance_sizes.get(tracer.inst[i], {}).get("q")
        if q is not None:
            by_q[(q, modules[nid])] += own
    table = {name: {"calls": calls[i], "self_ns": self_ns[i],
                    "incl_ns": incl_ns[i]}
             for i, name in enumerate(span_names)}
    derived = {
        "reductions": reductions,
        "zero_reductions": zero_reductions,
        "note_sum": {s: note_sum[i] for i, s in enumerate(span_names)},
        "note_count": {s: note_count[i] for i, s in enumerate(span_names)},
        "by_q": dict(by_q),
        "by_charpoly": dict(by_charpoly),
    }
    return table, derived


def write_spans(tracer, path):
    """Gzipped text, one line per span: id, parent, instance, name,
    start_ns, end_ns, note."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        out.write("id\tparent\tinstance\tname\tstart_ns\tend_ns\tnote\n")
        names = tracer.span_names
        for i in range(len(tracer.name)):
            out.write("%d\t%d\t%d\t%s\t%d\t%d\t%d\n" % (
                i, tracer.parent[i], tracer.inst[i], names[tracer.name[i]],
                tracer.start[i], tracer.end[i], tracer.note[i]))
