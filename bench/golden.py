"""Rewrite bench/golden.json: the answer digest and cost class of every pool
instance.

    python3 bench/golden.py [WORKLOAD ...]

Every instance is run once and must pass its theorem or oracle check; the
digest of its answer text becomes the reference a benchmark run compares
against.  Run it only when the pools change or when a change to the library
deliberately changes an answer, and say so in that change.

Cost classes only set the order a run visits the pool in: the instances
are ranked by the time measured here and cut into COST_CLASSES groups of
equal size, and a run takes one instance from each group in turn.
"""
from __future__ import annotations

import json
import sys
import time

from run import GOLDEN, SRC

COST_CLASSES = 16


def record(wl):
    from workloads import digest
    digests, seconds = [], []
    for index in range(wl.pool_size):
        inst = wl.generate(index)
        t0 = time.perf_counter()
        result = wl.run(inst)
        seconds.append(time.perf_counter() - t0)
        ok, text = wl.check(inst, result)
        if not ok:
            raise SystemExit("%s instance %d fails its check" % (wl.name, index))
        digests.append(digest(text))
    ranked = sorted(range(wl.pool_size), key=seconds.__getitem__)
    classes = [0] * wl.pool_size
    for rank, index in enumerate(ranked):
        classes[index] = rank * COST_CLASSES // wl.pool_size
    print("%s: %d instances, %.2f s" % (wl.name, wl.pool_size, sum(seconds)))
    return {"digest": digests, "cost_class": classes}


def main(names):
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    except FileNotFoundError:
        golden = {}
    for name in names or WORKLOADS:
        golden[name] = record(WORKLOADS[name])
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
