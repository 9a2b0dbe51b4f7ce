"""cltlab benchmark: one workload, one seed, one run.

Run from the root of a cltlab checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: clt_exact, clt_montecarlo, density_quadrature, cli_cold (see
perfbench/README.md).  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The lines
before it record the environment, every metric with its unit, and the
failures by cause.

The operations run in one worker process with no worker threads, the BLAS
thread pools pinned to one thread; cltlab is imported from ./src.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (standard library only)

WORKLOADS = ("clt_exact", "clt_montecarlo", "density_quadrature", "cli_cold")
# Fresh interpreters timed to the end of set-up; the last one goes on to the
# timed phase.  setup_s is their median.
SETUP_RUNS = 5
# Every worker is killed after this long; the whole run stays under 180 s.
WORKER_TIMEOUT_S = 160.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def start_worker(cmd, env, root, err_path, started):
    """Start a worker; return it with the seconds it took to print 'ready'."""
    began = time.perf_counter()
    with open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=err, text=True)
    started.append(proc)
    line = proc.stdout.readline()
    took = time.perf_counter() - began
    if line.strip() != "ready":
        raise BenchError(f"worker failed during set-up: {err_path.read_text()[-2000:]}")
    return proc, took


def stop(proc):
    """Ask a worker to stop (it then ends its own CLI child), kill it if it
    does not, and wait for it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()


def finish_worker(proc, err_path):
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {err_path.read_text()[-2000:]}")
    return json.loads(lines[-1])


def finish_setup_only(proc):
    try:
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("set-up worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"set-up worker exited {proc.returncode}")


def stderr_of(err_path):
    """The worker's stderr, minus -X importtime lines, which are returned."""
    text = err_path.read_text(errors="replace")
    err_path.unlink()
    rest = [ln for ln in text.splitlines() if not ln.startswith("import time:")]
    if rest:
        print("\n".join(rest), file=sys.stderr)
    return text


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "cltlab" / "__init__.py").is_file():
        print("error: run from the root of a cltlab checkout (no src/cltlab here)",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    (HERE / "out").mkdir(exist_ok=True)
    err_path = HERE / "out" / f"worker-{os.getpid()}.err"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]

    # SIGTERM unwinds through the finally below, which stops the workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    started = []
    try:
        if args.trace:
            proc, _ = start_worker([sys.executable, "-X", "importtime"] + cmd[1:] + ["--trace"],
                                   env, root, err_path, started)
            res = finish_worker(proc, err_path)
            # median over the CLI processes for cli_cold; elsewhere the
            # worker's own import stands for the CLI's
            own = tracing.import_times(stderr_of(err_path))
            imports = res["imports"] or own
            layers = res["layers"]
            layers["cli.import_s"] = imports.get("cltlab", 0.0)
            layers["cli.import_numpy_s"] = imports.get("numpy", 0.0)
            metrics = {name: (layers[name], unit)
                       for name, (unit, _) in tracing.LAYER_METRICS.items()}
        else:
            setups = []
            for _ in range(SETUP_RUNS - 1):
                proc, took = start_worker(cmd + ["--setup-only"], env, root, err_path, started)
                finish_setup_only(proc)
                setups.append(took)
            proc, took = start_worker(cmd, env, root, err_path, started)
            setups.append(took)
            res = finish_worker(proc, err_path)
            stderr_of(err_path)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (res["ops_per_s"], "1/s"),
                "latency_p50_s": (res["latency_p50_s"], "s"),
                "latency_tail_s": (res["latency_tail_s"], "s"),
                "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in started:
            stop(proc)
        err_path.unlink(missing_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": res["python"], "numpy": res["numpy"],
              "cpu": cpu_model(), "nproc": os.cpu_count(), **PINNED_ENV}
    print("env " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        print(f"  latency_tail_s is p{res['tail_pct']:g} of {res['attempted']} samples; "
              f"{res['cycles']} cycles in {res['wall_s']:.2f} s")
    print(f"failed_frac {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} ops)")
    for cause, count in res["causes"].items():
        print(f"  failed {count}: {cause}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
