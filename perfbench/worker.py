"""One benchmark process: set up a workload, then run its timed phase.

Started by run.py, from a fresh interpreter:

    python worker.py --root CHECKOUT --workload NAME --seed N --seconds S
                     [--trace] [--setup-only]

Prints ``ready`` once set-up is done (import, input generation, cache
warm-up), then, unless --setup-only, one JSON line with the results.  The
timed phase runs whole cycles of the workload's operations, one after
another (a closed loop with one caller), as many as fit in --seconds.
With --trace it alternates untraced and traced cycles and reports per-layer
figures per traced cycle instead.
"""

import argparse
import json
import math
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
# No operation starts after this many seconds of timed phase, whatever
# --seconds says, so a run on a slow commit still ends in time.
HARD_LIMIT_S = 120.0
TAIL_FALLBACK = (95.0, 90.0, 75.0, 50.0)


def percentile(sorted_xs, pct):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail_percentile(wanted, count):
    """The workload's fixed tail percentile, or the next lower one that still
    leaves ten samples beyond it when a run is short."""
    for pct in (wanted,) + tuple(p for p in TAIL_FALLBACK if p < wanted):
        if count * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def run_cycle(ops, latencies, causes, stop_at):
    """Run each op once and check it; return the cycle's wall seconds."""
    began = time.perf_counter()
    for op in ops:
        if time.perf_counter() > stop_at:
            break
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed op is a result, not a crash
            latencies.append(time.perf_counter() - start)
            causes[f"{type(exc).__name__}: {exc}"] += 1
            continue
        latencies.append(time.perf_counter() - start)
        try:
            cause = op.check(out)
        except Exception as exc:
            cause = f"check raised {type(exc).__name__}: {exc}"
        if cause:
            causes[cause] += 1
    return time.perf_counter() - began


def more_cycles(start, cycles, seconds, stop_at):
    """Another whole cycle, when the run then ends nearer to --seconds."""
    now = time.perf_counter()
    elapsed = now - start
    return now < stop_at and elapsed + 0.5 * elapsed / cycles < seconds


def timed_phase(wl, seconds):
    latencies, causes = [], Counter()
    start = time.perf_counter()
    stop_at = start + HARD_LIMIT_S
    rates = []  # ops per wall second of each cycle
    while not rates or more_cycles(start, len(rates), seconds, stop_at):
        done = len(latencies)
        took = run_cycle(wl.ops, latencies, causes, stop_at)
        rates.append((len(latencies) - done) / took)
    wall = time.perf_counter() - start
    lat = sorted(latencies)
    pct = tail_percentile(wl.tail_pct, len(lat))
    who = resource.RUSAGE_CHILDREN if wl.rss_scope == "children" else resource.RUSAGE_SELF
    return {
        "latencies": latencies,
        "causes": causes,
        "cycles": len(rates),
        "wall_s": wall,
        # the median cycle, so that a slow spell of the machine during one
        # or two cycles does not move the figure
        "ops_per_s": statistics.median(rates),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": percentile(lat, pct),
        "tail_pct": pct,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def traced_phase(wl, wl_traced, tracer, seconds, spans_path):
    tracer.counters.clear()  # drop the counts made while set-up warmed caches
    latencies, causes = [], Counter()
    start = time.perf_counter()
    stop_at = start + HARD_LIMIT_S
    plain = traced = 0.0
    cycles = 0
    while cycles == 0 or more_cycles(start, cycles, seconds, stop_at):
        plain += run_cycle(wl.ops, latencies, causes, stop_at)
        tracer.install()
        try:
            traced += run_cycle(wl_traced.ops, latencies, causes, stop_at)
        finally:
            tracer.uninstall()
        cycles += 1
    tracer.dump(spans_path)
    layers = tracer.layer_metrics(cycles)
    layers["trace.overhead_s"] = (traced - plain) / cycles
    layers["trace.overhead_frac"] = traced / plain - 1.0
    imports = {pkg: statistics.median(secs) for pkg, secs in tracer.imports.items()}
    return {"latencies": latencies, "causes": causes, "cycles": cycles, "layers": layers,
            "imports": imports}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    # on SIGTERM, unwind so that a running CLI child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))

    import cltlab  # first, so -X importtime charges numpy to cltlab
    import numpy

    if Path(cltlab.__file__).resolve().parent != src / "cltlab":
        print(f"error: imported cltlab from {cltlab.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    make = workloads.WORKLOADS[args.workload]
    wl = make(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    wl_traced = make(args.seed, tracer) if tracer else None
    print("ready", flush=True)
    try:
        if args.setup_only:
            return 0
        wl.prepare()
        if tracer:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            res = traced_phase(wl, wl_traced, tracer, args.seconds, spans)
        else:
            res = timed_phase(wl, args.seconds)
    finally:
        wl.cleanup()
        if wl_traced:
            wl_traced.cleanup()
    causes = res.pop("causes")
    res["attempted"] = len(res.pop("latencies"))
    res["failed"] = sum(causes.values())
    res["causes"] = dict(sorted(causes.items()))
    res["correct"] = all(c in wl.known_defects for c in causes)
    res["python"] = platform.python_version()
    res["numpy"] = numpy.__version__
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
