"""Benchmark for reeselim: time to a verified exact answer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  One client works through the workload's instance pool in a closed
loop, one instance at a time, in the order the seed picks, until S seconds
of instance time have been measured or the pool is used up (at the commit
that defined the benchmark a pool takes 7-10 s).  Each instance is checked
outside the timed interval: its theorem or oracle check must hold and the
digest of its answer text must match `golden.json`.

Reported times are scaled to a reference machine by calibration samples
taken between instances (see `reference_times`); the summary lines print
the measured values too.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics from a
traced pass over the run's instances, followed by an untraced pass over
the same instances that measures the tracing overhead.  --smoke runs a few
cheap instances only, for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"

SETUP_REPEATS = 5
SMOKE_INSTANCES = 3
# The tail percentile is fixed, so that it means the same thing in every
# run; with the pools as defined each run has at least 15 instances beyond
# it.  The summary line states N and the count beyond.
TAIL_PERCENTILE = 90

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Sizes the per-layer breakdowns are split by.
CHARPOLY_DEGREES = range(2, 8)
SCAN_FIELD_ORDERS = (7, 8, 9, 11, 16, 25)
SCAN_MODULES = ("poly", "groebner", "ramify")

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import reeselim; "
                 "print(time.perf_counter() - t)")


def per_layer_units():
    """Every per-layer metric name of a traced run, with its unit."""
    from spans import COUNT_ONLY, ENTRY_POINTS, FIELD_KINDS
    units = {}
    for module, quals in ENTRY_POINTS.items():
        for qual in quals:
            base = "%s.%s" % (module, qual)
            units[base + ".calls"] = "count"
            if module not in COUNT_ONLY:
                units[base + ".self_s"] = "s"
                units[base + ".incl_s"] = "s"
    for module in ENTRY_POINTS:
        if module not in COUNT_ONLY:
            units[module + ".self_s"] = "s"
    units.update({
        "groebner.buchberger.reductions": "count",
        "groebner.buchberger.zero_reductions_frac": "frac",
        "groebner.buchberger.basis_size_mean": "count",
        "rees.degree_ideal.generators": "count",
        "groebner.rational_zero_set.points": "count",
        "ramify.points_scanned": "count",
    })
    for kind in FIELD_KINDS:
        for c in CHARPOLY_DEGREES:
            units["elim.char_poly.self_s.%s.c%d" % (kind, c)] = "s"
    for q in SCAN_FIELD_ORDERS:
        for module in SCAN_MODULES:
            units["scan.q%d.%s.self_s" % (q, module)] = "s"
    units["trace.overhead_frac"] = "frac"
    # Static size, for information only: never an end-to-end metric.
    units["code.src_lines"] = "count"
    units["code.all_names"] = "count"
    return units


def code_size():
    """Lines of the library's sources and the size of its __all__."""
    import reeselim
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in (SRC / "reeselim").glob("*.py"))
    return lines, len(reeselim.__all__)


# Times are reported as on a reference machine on which one calibration
# sample takes this long (see `reference_times`).
CALIBRATION_REF_S = 0.005
# Calibration samples on either side of an instance that set its scale.
CALIBRATION_WINDOW = 3
_CAL_Q = {(i, j, k): Fraction(i + 1, j + 2)
          for i in range(3) for j in range(3) for k in range(2)}
_CAL_P = {(i, j, k): (7 * i + 3 * j + k) % 11
          for i in range(4) for j in range(3) for k in range(2)}


class _Residue:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 11

    def __mul__(self, other):
        return _Residue(self.v * other.v)

    def __add__(self, other):
        return _Residue(self.v + other.v)


def _sparse_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = c1 * c2 + out.get(e, 0)
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def calibrate():
    """Seconds taken by a fixed mix of plain-Python work like the library's
    (sparse products over Fractions and ints, small-object arithmetic,
    sorting), sharing no code with reeselim: a probe of the machine's
    current speed.  A mix, because a single tight loop runs faster or
    slower in one process than in the next for reasons of memory layout."""
    t0 = time.perf_counter()
    _sparse_product(_CAL_Q, _CAL_P)
    terms = _sparse_product(_CAL_P, _CAL_P)
    acc = _Residue(1)
    for v in terms.values():
        acc = acc * _Residue(v) + _Residue(3)
    sorted(terms, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))
    "".join("%d*x^%d" % (c, sum(e)) for e, c in terms.items())
    return time.perf_counter() - t0


def reference_times(times, calibrations):
    """Measured times turned into reference-machine times.

    Where the cores are shared with other tenants (as on the 2-core VM the
    benchmark was tuned on), their load moves the speed of the same run by
    10-30% from minute to minute.  A calibration sample is taken before
    every instance and after the last; dividing an instance's time by the
    median of the samples next to it (CALIBRATION_WINDOW on each side)
    cancels most of that drift, which raw times do not."""
    return [t * CALIBRATION_REF_S / statistics.median(
                calibrations[max(0, i + 1 - CALIBRATION_WINDOW):
                             i + 1 + CALIBRATION_WINDOW])
            for i, t in enumerate(times)]


def fresh_import_seconds():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def set_up(wl, indices, repeats):
    """Median over `repeats` of a fresh-interpreter import plus building the
    run's instances, measured and in reference-machine seconds, with the
    instances of the last repeat."""
    measured, scaled = [], []
    for _ in range(repeats):
        samples = [calibrate() for _ in range(CALIBRATION_WINDOW)]
        import_s = fresh_import_seconds()
        t0 = time.perf_counter()
        pool = {i: wl.generate(i) for i in indices}
        measured.append(import_s + time.perf_counter() - t0)
        samples += [calibrate() for _ in range(CALIBRATION_WINDOW)]
        scaled.append(measured[-1] * CALIBRATION_REF_S
                      / statistics.median(samples))
    return statistics.median(measured), statistics.median(scaled), pool


def verify(wl, inst, result, expected_digest):
    """True when the instance's check holds and its answer text has the
    recorded digest.  Runs outside the timed interval."""
    from workloads import digest
    ok, text = wl.check(inst, result)
    return bool(ok) and digest(text) == expected_digest


def run_pass(wl, pool, order, seconds, golden, tracer=None):
    """Closed loop over `order`; stops once `seconds` of instance time are
    measured.  Returns per-instance times, calibration samples (one before
    each instance and one after the last) and the failed pool indices."""
    times, calibrations, failed = [], [], []
    spent = 0.0
    for index in order:
        if spent >= seconds:
            break
        inst = pool[index]
        gc.collect()
        calibrations.append(calibrate())
        if tracer is not None:
            tracer.instance = index
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = wl.run(inst)
            error = None
        except Exception:   # a failed instance is counted, the run goes on
            error = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        spent += elapsed
        times.append(elapsed)
        if error is None:
            try:
                good = verify(wl, inst, result, golden[index])
            except Exception:
                error = traceback.format_exc()
                good = False
        if error is not None or not good:
            failed.append(index)
            print("instance %d (%s %s) failed%s" % (
                index, inst.kind, inst.sizes,
                ":\n" + error if error else ": wrong answer"),
                file=sys.stderr)
    calibrations.append(calibrate())
    return times, calibrations, failed


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[min(rank, len(ordered)) - 1]


def end_to_end_metrics(setup_s, times, calibrations):
    pct = TAIL_PERCENTILE
    scaled = reference_times(times, calibrations)
    tail = percentile(scaled, pct)
    print("latency_tail_ms is p%d over %d instances (%d beyond it)"
          % (pct, len(scaled), sum(t > tail for t in scaled)))
    print("measured, before scaling to the reference machine: %.3f "
          "instances/s, p50 %.4f ms, p%d %.4f ms"
          % (len(times) / sum(times), 1e3 * statistics.median(times), pct,
             1e3 * percentile(times, pct)))
    values = {
        "setup_s": setup_s,
        "instances_per_s": len(scaled) / sum(scaled),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def per_layer_metrics(tracer, pool, overhead):
    from spans import COUNT_ONLY, ENTRY_POINTS, reduce_spans
    table, derived = reduce_spans(
        tracer, {i: inst.sizes for i, inst in pool.items()})
    values = {}
    module_self = {}
    for module, quals in ENTRY_POINTS.items():
        for qual in quals:
            base = "%s.%s" % (module, qual)
            if module in COUNT_ONLY:
                values[base + ".calls"] = tracer.counts[base][0]
                continue
            row = table[base]
            values[base + ".calls"] = row["calls"]
            values[base + ".self_s"] = row["self_ns"] / 1e9
            values[base + ".incl_s"] = row["incl_ns"] / 1e9
            module_self[module] = module_self.get(module, 0) + row["self_ns"]
    for module, ns in module_self.items():
        values[module + ".self_s"] = ns / 1e9
    sums, counts = derived["note_sum"], derived["note_count"]
    reductions = derived["reductions"]
    values["groebner.buchberger.reductions"] = reductions
    values["groebner.buchberger.zero_reductions_frac"] = (
        derived["zero_reductions"] / reductions if reductions else 0.0)
    bases = counts["groebner.buchberger"]
    values["groebner.buchberger.basis_size_mean"] = (
        sums["groebner.buchberger"] / bases if bases else 0.0)
    values["rees.degree_ideal.generators"] = sums["rees.degree_ideal"]
    values["groebner.rational_zero_set.points"] = \
        sums["groebner.rational_zero_set"]
    values["ramify.points_scanned"] = sums["ramify.verify_thm_1_16"]
    for (kind, c), ns in derived["by_charpoly"].items():
        values["elim.char_poly.self_s.%s.c%d" % (kind, c)] = ns / 1e9
    for (q, module), ns in derived["by_q"].items():
        values["scan.q%d.%s.self_s" % (q, module)] = ns / 1e9
    values["trace.overhead_frac"] = overhead
    values["code.src_lines"], values["code.all_names"] = code_size()
    units = per_layer_units()
    metrics = {k: {"value": values.get(k, 0.0 if u != "count" else 0),
                   "unit": u} for k, u in units.items()}
    print("per-layer self time (s), traced pass:")
    for module in sorted(module_self, key=module_self.get, reverse=True):
        print("  %-10s %.4f" % (module, module_self[module] / 1e9))
    return metrics


def traced_run(wl, pool, order, seconds, golden):
    import spans
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced_times, traced_cal, failed = run_pass(
            wl, pool, order, seconds, golden, tracer)
    finally:
        restore()
    done = order[:len(traced_times)]
    plain_times, plain_cal, plain_failed = run_pass(
        wl, pool, done, float("inf"), golden)
    overhead = (sum(reference_times(traced_times, traced_cal))
                / sum(reference_times(plain_times, plain_cal)) - 1.0)
    print("traced pass %.3f s, untraced pass %.3f s over the same %d "
          "instances: overhead %.1f%% on the reference machine"
          % (sum(traced_times), sum(plain_times), len(done), 100 * overhead))
    OUT.mkdir(exist_ok=True)
    path = OUT / ("%s.spans.tsv.gz" % wl.name)
    spans.write_spans(tracer, path)
    print("spans: %s (%d)" % (path.relative_to(ROOT), len(tracer.name)))
    metrics = per_layer_metrics(tracer, pool, overhead)
    return traced_times, sorted(set(failed) | set(plain_failed)), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few of the cheapest instances only")
    args = parser.parse_args(argv)

    if not (SRC / "reeselim" / "__init__.py").is_file():
        print("error: no reeselim sources under %s; run from the root of a "
              "source checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if hasattr(os, "sched_setaffinity"):
        # Every run on the same core: on a VM whose cores differ in speed,
        # the core a run lands on moves its times by up to 30%.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]
    with open(GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)[wl.name]
    golden, classes = recorded["digest"], recorded["cost_class"]
    if len(golden) != wl.pool_size:
        print("error: golden.json holds %d %s instances, the pool has %d; "
              "rewrite it with bench/golden.py" % (
                  len(golden), wl.name, wl.pool_size), file=sys.stderr)
        return 2

    order = workloads.visiting_order(classes, args.seed)
    if args.smoke:
        order = [i for i in order if classes[i] == 0][:SMOKE_INSTANCES]
    for _ in range(CALIBRATION_WINDOW):
        calibrate()     # warm up: the first calls run slower
    measured_setup_s, setup_s, pool = set_up(
        wl, order, 1 if args.smoke else SETUP_REPEATS)
    print("set-up: %.4f s measured, %.4f s on the reference machine"
          % (measured_setup_s, setup_s))

    if args.trace:
        times, failed, metrics = traced_run(wl, pool, order, args.seconds,
                                            golden)
    else:
        times, calibrations, failed = run_pass(wl, pool, order, args.seconds,
                                               golden)
        metrics = end_to_end_metrics(setup_s, times, calibrations)
    print("%s seed %d: %d instances in %.3f s, %d failed (failed_frac %.4f)"
          % (wl.name, args.seed, len(times), sum(times), len(failed),
             len(failed) / len(times)))
    print(json.dumps({"correct": not failed, "attempted": len(times),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
