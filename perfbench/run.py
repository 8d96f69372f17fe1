"""wallcross benchmark: one workload, timed, checked, printed as JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {scatter,algebra,lattice,cli} \\
        --seed N --seconds S --trace {0,1}

One client issues one operation at a time (a closed loop).  Pass after
pass, for at least ``--seconds`` and at least three passes, the workload's
fixed list of operations runs on inputs drawn afresh for that pass from the
seed, built and checked against the oracles under ``tests/`` outside the
timed operations.

The machine is shared and its speed drifts by up to 2x for minutes at a
time.  Between operations, at least every SEGMENT_S, the runner therefore
times a fixed reference loop of builtin integer arithmetic, which the
program under test cannot reach; each latency is scaled by REF_S over the
median reference time within REF_WINDOW_S of it.  The times reported are
thus seconds on a machine on which the reference loop takes REF_S; the raw
wall times are in the record.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` one more pass runs under the span
tracer and the last line carries the per-layer metrics and the tracing
overhead.  The line before the last is a record of the run: commit, source
digest, Python version, nproc, seed, input and output digests, counts and
every pass time.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 5              # this process plus four --setup-only children
MIN_PASSES = 3
TRACED_PASS = 10 ** 6          # input index of the traced pass
SEGMENT_S = 0.1                # longest stretch of operations between
REF_S = 0.005                  # reference samples; nominal reference time
REF_WINDOW_S = 0.5
REF_ITERS = 44000
WORKLOAD_NAMES = ("scatter", "algebra", "lattice", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload, print its set-up time, exit")
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_library():
    """Import wallcross from this checkout's src/, or return an error."""
    if not os.path.isfile(os.path.join(SRC, "wallcross", "__init__.py")):
        return "no src/wallcross next to perfbench/: run from a checkout"
    if not os.path.isdir(os.path.join(ROOT, "tests", "fixtures")):
        return "no tests/fixtures next to perfbench/: run from a checkout"
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import wallcross
    if not os.path.abspath(wallcross.__file__).startswith(SRC + os.sep):
        return f"imported wallcross from {wallcross.__file__}, not {SRC}"
    return None


# -- machine speed ------------------------------------------------------------

def reference_loop() -> int:
    """Fixed work on small ints only: no allocation the collector counts."""
    s = 0
    for i in range(REF_ITERS):
        s = (s * 31 + (i ^ (s >> 7))) % 1000003
    return s


class Speed:
    """Reference-loop samples, stamped with the middle of each sample."""

    def __init__(self):
        self.stamps, self.times = [], []
        self.last = -math.inf

    def sample(self):
        clock = time.perf_counter
        start = clock()
        reference_loop()
        self.last = clock()
        self.stamps.append((start + self.last) / 2)
        self.times.append(self.last - start)

    def factor(self, t: float) -> float:
        """REF_S over the median reference time within REF_WINDOW_S of t
        (the three nearest samples where the window holds fewer)."""
        lo = bisect.bisect_left(self.stamps, t - REF_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t + REF_WINDOW_S)
        if hi - lo < 3:
            i = bisect.bisect_left(self.stamps, t)
            near = sorted(range(max(0, i - 3), min(len(self.stamps), i + 3)),
                          key=lambda j: abs(self.stamps[j] - t))[:3]
            times = [self.times[j] for j in near]
        else:
            times = self.times[lo:hi]
        return REF_S / statistics.median(times)


def run_pass(p, speed: Speed | None = None):
    """Run every operation of pass p once, in order; one that raises fails.

    Returns the results, the latency of each operation and the middle of
    its interval.  With ``speed``, a reference sample is taken between
    operations whenever SEGMENT_S has passed since the last one.
    """
    from workloads import OpError
    clock = time.perf_counter
    results, latencies, stamps = [], [], []
    for op in p.ops:
        if speed is not None and clock() - speed.last >= SEGMENT_S:
            speed.sample()
        t = clock()
        try:
            result = op()
        except Exception as exc:  # the op fails; the run goes on
            result = OpError(exc)
        end = clock()
        latencies.append(end - t)
        stamps.append((t + end) / 2)
        results.append(result)
    return results, latencies, stamps


def tail(samples: list, fraction: float):
    """The sample at ``fraction``, and the number of samples beyond it."""
    ordered = sorted(samples)
    beyond = math.floor((1 - fraction) * len(ordered) + 1e-9)
    return ordered[-1 - beyond], beyond


def setup_sample(args) -> dict:
    """Set-up time of a fresh --setup-only child."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         cwd=ROOT)
    return json.loads(out.stdout.splitlines()[-1])


def setup_record(setup_wall: float) -> dict:
    """The set-up time, raw and scaled by three reference samples."""
    speed = Speed()
    for _ in range(3):
        speed.sample()
    return {"wall_s": setup_wall,
            "s": setup_wall * REF_S / statistics.median(speed.times)}


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "wallcross")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, cwd=ROOT)
    return out.stdout.strip() or None


# -- measurement --------------------------------------------------------------

def finish_pass(wl, p, results) -> dict:
    """Digests and oracle checks of one pass, outside the timed operations."""
    from workloads import OpError, sha256_json
    digests = [sha256_json(wl.canonical(p, i, r))
               for i, r in enumerate(results)]
    errors = wl.check(p, results)
    failed = {i for i, r in enumerate(results) if wl.failed(p, i, r)}
    failed |= {i for i, _ in errors if i is not None}
    what = [f"{p.meta[i]}"[:300] + (f": {results[i].kind}"
                                    if isinstance(results[i], OpError) else "")
            for i in sorted(failed)]
    return {"inputs_sha256": sha256_json(p.inputs),
            "outputs_sha256": sha256_json(digests),
            "failed": len(failed), "failed_ops": what,
            "errors": [msg for _, msg in errors]}


def timed_phase(args, wl, p):
    """Fresh passes, starting with p, for at least ``--seconds``."""
    clock = time.perf_counter
    speed = Speed()
    passes, timed = [], 0.0
    while len(passes) < MIN_PASSES or timed < args.seconds:
        if passes:
            p = wl.build(len(passes))
        start = clock()
        results, latencies, stamps = run_pass(p, speed)
        speed.sample()                 # closes the pass
        timed += clock() - start
        passes.append(dict(finish_pass(wl, p, results),
                           latencies=latencies, stamps=stamps))
    return passes, speed


def traced_pass(wl):
    """One more pass, on inputs of its own, under the span tracer."""
    from tracer import Tracer
    tracer = Tracer()
    p = wl.build(TRACED_PASS)
    speed = Speed()
    start = time.perf_counter()
    results, latencies, stamps = wl.run_traced(
        tracer, lambda: run_pass(p, speed))
    wall = time.perf_counter() - start
    speed.sample()
    scaled = sum(x * speed.factor(t) for x, t in zip(latencies, stamps))
    return tracer, p, results, wall, scaled


def measure(args, wl, p0, setup: dict, spec: dict) -> dict:
    from workloads import sha256_json
    passes, speed = timed_phase(args, wl, p0)
    peak_rss_mb = wl.peak_rss_kb() / 1024
    n = len(p0.ops)
    scaled = [[x * speed.factor(t)
               for x, t in zip(q["latencies"], q["stamps"])] for q in passes]
    pass_s = [sum(s) for s in scaled]
    pass_wall_s = [sum(q["latencies"]) for q in passes]
    run_s = statistics.median(pass_s)
    pooled = [x for s in scaled for x in s]
    pooled_wall = [x for q in passes for x in q["latencies"]]
    errors = [e for q in passes for e in q["errors"]]
    attempted = n * len(passes)
    failed = sum(q["failed"] for q in passes)
    record = {
        "workload": wl.name, "seed": args.seed, "passes": len(passes),
        "ops_per_pass": n, "pass_s": pass_s, "pass_wall_s": pass_wall_s,
        "run_wall_s": statistics.median(pass_wall_s),
        "reference": {"nominal_s": REF_S, "samples": len(speed.times),
                      "median_s": statistics.median(speed.times),
                      "min_s": min(speed.times), "max_s": max(speed.times)},
        "inputs_sha256": passes[0]["inputs_sha256"],
        "outputs_sha256": passes[0]["outputs_sha256"],
        "pass_inputs_sha256": [q["inputs_sha256"] for q in passes],
        "pass_outputs_sha256": [q["outputs_sha256"] for q in passes],
        "failed_ratio": failed / attempted,
        "failed_ops": [[k, what] for k, q in enumerate(passes)
                       for what in q["failed_ops"]][:10]}

    if args.trace:
        tracer, tp, traced, traced_wall, traced_s = traced_pass(wl)
        tr = finish_pass(wl, tp, traced)
        errors += tr["errors"]
        values = tracer.layer_metrics()
        values.update(cli_metrics(wl, traced))
        values["trace.overhead_s"] = traced_s - run_s
        record.update(traced_pass_s=traced_s, traced_pass_wall_s=traced_wall,
                      untraced_run_s=run_s,
                      traced_outputs_sha256=tr["outputs_sha256"],
                      trace_top_self=tracer.top_self(),
                      counters_sha256=sha256_json(tracer.deterministic()))
    else:
        samples = [setup] + [setup_sample(args)
                             for _ in range(SETUP_SAMPLES - 1)]
        # the percentile with ten samples beyond it in the smallest run,
        # MIN_PASSES passes, so that it does not depend on the pass count
        fraction = max(0.5, 1 - 10 / (n * MIN_PASSES))
        value, beyond = tail(pooled, fraction)
        record.update(
            setup_s=[s["s"] for s in samples],
            setup_wall_s=[s["wall_s"] for s in samples],
            op_tail_percentile=100 * fraction, op_tail_samples=len(pooled),
            op_tail_beyond=beyond,
            op_p50_wall_ms=1000 * statistics.median(pooled_wall),
            op_tail_wall_ms=1000 * tail(pooled_wall, fraction)[0])
        values = {"setup_s": statistics.median(s["s"] for s in samples),
                  "run_s": run_s,
                  "op_p50_ms": 1000 * statistics.median(pooled),
                  "op_tail_ms": 1000 * value,
                  "success_ratio": 1 - failed / attempted,
                  "peak_rss_mb": peak_rss_mb}
    record.update(
        python=platform.python_version(), nproc=os.cpu_count(),
        commit=commit(), source_sha256=source_digest(),
        fixtures_sha256=wl.fixture_digests(), errors=errors[:10])
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[group]}
    print(json.dumps({"record": record}, sort_keys=True))
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def cli_metrics(wl, results) -> dict:
    """The cli layer's own counters, from the traced pass."""
    from workloads import Cli, OpError
    names = ("cli.startup_ms", "cli.json_in_bytes", "cli.json_out_bytes",
             "cli.exit_nonzero")
    if not isinstance(wl, Cli):
        return dict.fromkeys(names, 0)
    ok = [r for r in results if not isinstance(r, OpError)]
    return {"cli.startup_ms": wl.startup_ms(),
            "cli.json_in_bytes": sum(r.json_in_bytes for r in ok),
            "cli.json_out_bytes": sum(len(r.stdout) + len(r.output)
                                      for r in ok),
            "cli.exit_nonzero": sum(r.code != 0 for r in ok)}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except FileNotFoundError:
        return fail("no BENCHMARK.json at the root of the checkout")
    error = load_library()
    if error:
        return fail(error)
    import workloads
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir,
                                                "full")
        p0 = wl.build(0)
        setup = setup_record(time.perf_counter() - T0)
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = measure(args, wl, p0, setup, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass            # another run still uses it
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
