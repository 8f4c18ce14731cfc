"""Tests of the benchmark itself (not of reeselim).

    python3 -m pytest -q bench/selftest.py

Smoke runs of every workload must print every metric BENCHMARK.json names,
with its unit; the answer check must flag corrupted results; the traced
run must refuse a missing entry point and must see calls the library makes
internally; the benchmark must refuse to run without the sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import reeselim as rl  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
with open(run.GOLDEN, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def _smoke(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_lists_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.per_layer_units()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def _corrupt(inst, result):
    """A wrong answer of the same shape."""
    if inst.kind == "membership":
        gb, answers = result
        return rl.GroebnerBasis(gb.ideal, gb.basis[:-1]), answers
    if inst.kind == "transform":
        A, B, degrees = result
        I, J, _ = degrees[0]
        return A, B, [(I, J, False)] + degrees[1:]
    if inst.kind == "charpoly":
        return [result[0] + 1] + result[1:]
    if inst.kind == "shear":
        R = result.ring
        return rl.ReesAlgebra.from_pairs(R, [(R.var(R.variables[0]), 1)])
    if inst.kind == "ramify":
        return rl.RamificationReport(
            result.points_scanned + 1, result.ramified_points,
            result.discriminant_zero_points, result.counterexamples,
            result.zero_algebra)
    code, text = result
    return code, "\n".join(line for line in text.splitlines()
                           if not line.startswith("point: "))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_checker_flags_a_corrupted_result(workload):
    wl = workloads.WORKLOADS[workload]
    kinds = {}
    for index in range(wl.pool_size):
        if GOLDEN[workload]["cost_class"][index] == 0:
            kinds.setdefault(wl.generate(index).kind, index)
    for index in kinds.values():
        inst = wl.generate(index)
        expected = GOLDEN[workload]["digest"][index]
        result = wl.run(inst)
        assert run.verify(wl, inst, result, expected)
        assert not run.verify(wl, inst, _corrupt(inst, result), expected)


def test_traced_run_refuses_a_missing_entry_point():
    original = rl.groebner.buchberger
    points = dict(spans.ENTRY_POINTS, groebner=("buchberger", "no_such_fn"))
    with pytest.raises(spans.TraceSetupError, match="no_such_fn"):
        spans.install(spans.Tracer(), points)
    assert rl.groebner.buchberger is original and rl.buchberger is original


def test_spans_cover_internal_calls_through_copied_names():
    R = rl.RingContext(rl.FieldDescriptor.parse("F3"), ("x", "Z"))
    inp = rl.MonicInput(R, "Z", [R.parse("Z^2+x")])
    originals = (rl.eliminate, rl.ramify.eliminate, rl.elim.char_poly)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        tracer.enabled = True
        rl.verify_thm_1_16(inp)
        tracer.enabled = False
    finally:
        restore()
    assert (rl.eliminate, rl.ramify.eliminate, rl.elim.char_poly) == originals
    names = [tracer.span_names[i] for i in tracer.name]
    # ramify calls its own copy of `eliminate`, elim calls `char_poly`.
    assert "elim.eliminate" in names and "elim.char_poly" in names
    cp = names.index("elim.char_poly")
    chain = []
    while cp >= 0:
        chain.append(names[cp])
        cp = tracer.parent[cp]
    assert chain[-1] == "ramify.verify_thm_1_16"
    assert "elim.eliminate" in chain
    assert tracer.counts["fields.FieldElement.__mul__"][0] > 0


def test_self_time_subtracts_children_and_recursion_counts_once():
    tracer = spans.Tracer()
    tracer.span_names = ["a.f", "b.g"]
    # f [0,100] > g [10,30] > f [12,20];  g [40,50]
    for name, parent, start, end, nested in (
            (0, -1, 0, 100, 0), (1, 0, 10, 30, 0), (0, 1, 12, 20, 1),
            (1, 0, 40, 50, 0)):
        tracer.name.append(name)
        tracer.parent.append(parent)
        tracer.inst.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.note.append(-1)
        tracer.nested.append(nested)
    table, _ = spans.reduce_spans(tracer, {})
    assert table["a.f"] == {"calls": 2, "self_ns": 70 + 8, "incl_ns": 100}
    assert table["b.g"] == {"calls": 2, "self_ns": 12 + 10, "incl_ns": 30}


def test_refuses_to_run_without_the_sources():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    try:
        proc = _smoke("membership", 0, cwd=bare,
                      script=bare / "bench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
