"""Smoke test of the benchmark itself.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Runs every workload at its minimal size, twice with tracing on and the
same seed.  Passes when both runs satisfy the oracles and every counter
of the trace (call counts, term pairs, rays inserted, maximal entry bits)
repeats exactly.  Exits 0 on success, 1 with a message otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys

import run


def traced_counters(name: str, seed: int):
    from tracer import Tracer
    from workloads import WORKLOADS
    workdir = os.path.join(run.WORK, f"smoke-{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[name](seed, run.ROOT, workdir, "smoke")
        p = wl.build(0)
        tracer = Tracer()
        results, _, _ = wl.run_traced(tracer, lambda: run.run_pass(p))
        errors = [msg for _, msg in wl.check(p, results)]
        return tracer.deterministic(), errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    error = run.load_library()
    if error:
        print(f"smoke: {error}", file=sys.stderr)
        return 1
    failures = []
    for name in run.WORKLOAD_NAMES:
        first, errors1 = traced_counters(name, seed=7)
        second, errors2 = traced_counters(name, seed=7)
        failures += [f"{name}: {e}" for e in errors1 + errors2]
        if first != second:
            failures.append(f"{name}: counters differ between traced runs")
        if not first["calls"]:
            failures.append(f"{name}: the tracer recorded no calls")
        print(f"{name}: {sum(first['calls'].values())} spans, "
              f"{'ok' if first == second else 'counters differ'}")
    try:
        os.rmdir(run.WORK)
    except OSError:
        pass
    for f in failures:
        print(f"smoke: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
