"""The benchmark's four workloads, each a fixed cycle of checked operations.

A workload is built from the seed alone: the seed picks the random bases,
query points, Monte Carlo draw counts and the CLI replay order, and cltlab
only ever sees the generated inputs.  Every operation is a call into cltlab
and a check of its answer against ``oracles``, which does not import cltlab.
Calls go through module attributes (``C.run_clt``), never through names bound
at import, so that the tracer's wrappers see them.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import cltlab as C
import oracles as O
import tracing

# cltlab's run_clt t grid, pinned by the README's clt transcript; passed
# explicitly in-process so the charfun oracle does not rely on a default.
T_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
# The continuity grid run_clt uses by default: N(0, 1) mean +- 8 sd.
NORMAL_GRID = tuple(np.linspace(-8.0, 8.0, 101))
LATTICE_NS = (1, 4, 16, 64, 256, 1024, 4096, 10_000)
# The pair path for three irrationally spaced atoms stays under cltlab's
# 4e7 atom-pair cap up to n = 128 (n = 256 would need 7e7 pairs).
NONLATTICE_NS = (1, 4, 16, 64, 128)
MC_NS = (2, 4, 8, 16, 32, 64, 128, 256)
MC_DRAWS = (20_000, 100_000)
CHARFUN_TS = 21
SAMPLE_SIZE = 10_000

ATOM_UNDERFLOW = "ValueError: atom weights must be positive"
CLI_ATOM_UNDERFLOW = "exit 2: error,ValueError,atom weights must be positive"


class Op(NamedTuple):
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


class Workload(NamedTuple):
    ops: list
    # Fixed per workload so that runs and commits compare the same
    # percentile; chosen to leave at least ten samples beyond it at the
    # benchmark's 25 s run length, with margin.
    tail_pct: float
    # Failure causes that are open defects at the time the benchmark was
    # written.  They still count as failed operations; only a cause outside
    # this set makes a run incorrect.
    known_defects: frozenset
    # "self" for in-process workloads, "children" when the ops are subprocesses.
    rss_scope: str
    # Untimed: fills the oracles' caches before the timed phase.
    prepare: Callable[[], None]
    cleanup: Callable[[], None] = lambda: None


def _discrete(points, weights):
    return C.Discrete(np.asarray(points, dtype=float), np.asarray(weights, dtype=float))


def _random_lattice(rng):
    """Four atoms on {0, ..., 5} including both ends.

    The end weights stay below 0.234, so for every seed the exact sum's end
    atoms underflow at the same binary-powering stage (power 512): the cost
    of an op, and which ops hit the underflow defect, do not depend on the
    seed.
    """
    inner = sorted(int(k) for k in rng.choice(np.arange(1, 5), size=2, replace=False))
    w = np.concatenate([rng.uniform(1.0, 1.2, size=1), rng.uniform(1.6, 2.0, size=2),
                        rng.uniform(1.0, 1.2, size=1)])
    return [0.0, float(inner[0]), float(inner[1]), 5.0], list(w / w.sum())


def _random_nonlattice(rng):
    """Atoms 0, 1, 1 + sqrt(q) with q not a square: no common span."""
    q = int(rng.choice([2, 3, 5, 6, 7, 8, 10, 11, 12, 13]))
    w = rng.uniform(1.0, 3.0, size=3)
    return [0.0, 1.0, 1.0 + math.sqrt(q)], list(w / w.sum())


COIN = ([-1.0, 1.0], [0.5, 0.5])
DIE = ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.0 / 6.0] * 6)


def _clt_op(label, base, points, weights, n, coin=False, **exp_args):
    draws = exp_args.get("mc_draws")

    def call():
        return C.run_clt(C.CltExperiment(base, ns=(n,), t_grid=T_GRID, **exp_args))

    def check(report):
        return O.check_clt_row(report.rows[0], points, weights, T_GRID,
                               grid=NORMAL_GRID if coin else None, draws=draws)

    return Op(f"{label} n={n}" + (f" draws={draws}" if draws else ""), call, check)


def clt_exact(seed, tracer=None):
    rng = np.random.default_rng([seed, 1])
    bases = [("coin", *COIN, LATTICE_NS), ("die", *DIE, LATTICE_NS)]
    bases += [(f"lattice{i}", *_random_lattice(rng), LATTICE_NS) for i in range(2)]
    bases += [("nonlattice", *_random_nonlattice(rng), NONLATTICE_NS)]
    ops = []
    for name, pts, w, ns in bases:
        base = _discrete(pts, w)
        ops += [_clt_op(name, base, pts, w, n, coin=name == "coin") for n in ns]
    C.standard_normal()

    def prepare():
        for n in LATTICE_NS:
            O.coin_cdf_sup_range(n, NORMAL_GRID)

    return Workload(ops, 90.0, frozenset({ATOM_UNDERFLOW}), "self", prepare)


def clt_montecarlo(seed, tracer=None):
    rng = np.random.default_rng([seed, 2])
    bases = [("coin", *COIN), ("die", *DIE), ("lattice", *_random_lattice(rng))]
    combos = [(b, n) for b in bases for n in MC_NS]
    # Stratified over [2e4, 1e5], each (base, n) keeping its stratum: the
    # seed moves draw counts within a stratum only, so an op's cost (draws
    # times n) is nearly the same for every seed.
    lo, hi = MC_DRAWS
    k = len(combos)
    strata = [(7 * i) % k for i in range(k)]  # 7 is coprime to k = 24
    draws = [int(lo + (hi - lo) * (j + rng.uniform()) / k) for j in strata]
    ops = []
    for ((name, pts, w), n), d in zip(combos, draws):
        mc_seed = int(rng.integers(2**31))
        ops.append(_clt_op(name, _discrete(pts, w), pts, w, n, mc_draws=d, seed=mc_seed))
    C.standard_normal()
    return Workload(ops, 90.0, frozenset(), "self", lambda: None)


def density_quadrature(seed, tracer=None):
    rng = np.random.default_rng([seed, 3])
    counted = tracer.counted if tracer is not None else (lambda fn: fn)
    # Parameters and query points vary with the seed within narrow ranges,
    # so that the quadrature work per op stays nearly the same.
    m, s2 = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.8, 1.25))
    w1 = float(rng.uniform(0.3, 0.7))
    mix = O.mixture([w1, 1.0 - w1], [float(rng.uniform(-2.5, -1.5)), float(rng.uniform(1.0, 2.0))],
                    list(rng.uniform(0.7, 1.3, size=2)))
    fams = [O.normal_family(m, s2), O.laplace(), O.logistic(), O.uniform(), mix, O.triangle()]

    def constructor(fam):
        if fam.name == "normal":
            return lambda: C.normal(fam.mean, fam.var)
        if fam.name == "triangle":
            return lambda: C.convolve(uniform, uniform)
        pdf = counted(fam.pdf)
        return lambda: C.Density(pdf, fam.support)

    uniform = constructor(fams[3])()
    ops = []
    for fam in fams:
        build = constructor(fam)
        d = build()
        # warm the lazy moments, window and sampling table before timing
        C.mean(d), C.cdf(d, fam.mean), C.sample(d, 1, 0)
        sd = math.sqrt(fam.var)

        def moments(build=build):
            mu = build()
            return C.mean(mu), C.variance(mu)

        ops.append(Op(f"{fam.name} build+moments", moments,
                      lambda mv, fam=fam: O.check_moments(fam, *mv, tol=1e-9)))
        xs = list(fam.mean + sd * (np.array([-1.5, 0.0, 1.5]) + rng.uniform(-0.5, 0.5, size=3)))
        ps = list(np.array([0.25, 0.75]) + rng.uniform(-0.15, 0.15, size=2))
        if fam.name == "laplace":  # the documented window defect
            xs[0], ps[0] = 0.7, 0.9
        for x in xs:
            ops.append(Op(f"{fam.name} cdf({x:.3g})", lambda d=d, x=x: C.cdf(d, x),
                          lambda v, fam=fam, x=x: O.check_cdf(fam, x, v, tol=1e-10)))
        for p in ps:
            ops.append(Op(f"{fam.name} quantile({p:.3g})", lambda d=d, p=p: C.quantile(d, p),
                          lambda v, fam=fam, p=p: O.check_quantile(fam, p, v, tol=1e-10)))
        ts = [float(t) for t in np.linspace(-10.0, 10.0, CHARFUN_TS) + rng.uniform(-0.2, 0.2)]
        ops.append(Op(f"{fam.name} charfun x{len(ts)}",
                      lambda d=d, ts=ts: [C.charfun(d, t) for t in ts],
                      lambda v, fam=fam, ts=ts: O.check_charfun(fam, ts, v, tol=1e-8)))
        ops.append(Op(f"{fam.name} levy_metric", lambda d=d: C.levy_metric(d, C.standard_normal()),
                      lambda v, fam=fam: O.check_levy(fam, v)))
        s_seed = int(rng.integers(2**31))
        ops.append(Op(f"{fam.name} sample", lambda d=d, s=s_seed: C.sample(d, SAMPLE_SIZE, s).samples,
                      lambda v, fam=fam: O.check_sample(fam, v)))

    def invert_op(label, fam, phi, a, b, tol=1e-8, ref=None, **kw):
        ref = fam.cdf(b) - fam.cdf(a) if ref is None else ref
        return Op(f"levy_invert {label} ({a:.3g},{b:.3g}]",
                  lambda: C.levy_invert(phi, a, b, tol=tol, **kw),
                  lambda v: O.check_close(f"{label}_invert", v, ref, tol))

    for fam in fams[:3]:
        sd = math.sqrt(fam.var)
        a = float(fam.mean - sd * rng.uniform(0.9, 1.1))
        b = float(fam.mean + sd * rng.uniform(0.4, 0.6))
        ops.append(invert_op(f"{fam.name}_closed_form", fam, counted(fam.cf), a, b))
    # The two costliest ops (about half of a cycle) keep fixed inputs: the
    # standard normal Density at T = 8, and the fair coin's cos(t) under
    # Gaussian damping, whose limit is the coin convolved with N(0, 2 damping).
    ops.append(invert_op("normal_density_T8", O.normal_family(0.0, 1.0),
                         C.char_fn(C.standard_normal()), -1.0, 1.0, T=8.0))
    a, b, damping = 0.0, 2.0, 1e-6
    ref = O.lattice_mass(*COIN, a, b, damping)
    ops.append(invert_op("lattice_damped", None, counted(lambda t: complex(math.cos(t), 0.0)),
                         a, b, tol=1e-6, ref=ref, damping=damping))
    for k in (2, 4, 6, 8):
        ops.append(Op(f"gaussian_moment({k})", lambda k=k: C.gaussian_moment(k),
                      lambda v, k=k: O.check_close("gaussian_moment", v,
                                                   O.double_factorial_moment(k), 1e-8)))
    ops.append(Op("integrate_oscillatory(sinc)",
                  lambda: C.integrate_oscillatory(C.sinc, lambda k: k * math.pi),
                  lambda v: O.check_close("sinc_dirichlet", v, math.pi / 2.0, 1e-8)))
    C.standard_normal()

    def prepare():
        for fam in fams:
            O.levy_scan(fam)

    # The mean +- 10 sd window that Density.cdf integrates over drops 3.6e-7
    # of Laplace mass and 1.3e-8 of logistic mass from each tail.
    known = frozenset(f"{f}_{q}" for f in ("laplace", "logistic") for q in ("cdf", "quantile"))
    return Workload(ops, 95.0, known, "self", prepare)


def _parse_transcript(path):
    """(argv, expected stdout) for each '$ cltlab ...' block."""
    cases = []
    for block in Path(path).read_text(encoding="utf-8").split("\n\n"):
        lines = block.strip("\n").split("\n")
        if lines[0].startswith("$ cltlab "):
            cases.append((lines[0][len("$ cltlab "):].split(), ("\n".join(lines[1:]) + "\n").encode()))
    return cases


def _write_dist(path, points, weights):
    lines = ["# discrete-dist v1"] + [f"{p:.17g},{w:.17g}" for p, w in zip(points, weights)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_cli_clt(text, points, weights):
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != "n,cdf_sup,levy,charfun_sup":
        return "cli_clt_format"
    n, *vals = lines[1].split(",")
    return O.check_clt_row(C.Row(int(n), *map(float, vals)), points, weights, T_GRID)


def _check_cli_normal_charfun(text, tol=1e-8):
    lines = text.splitlines()
    ts = np.linspace(-10.0, 10.0, 401)
    if lines[0] != "t,re,im" or len(lines) != ts.size + 1:
        return "cli_charfun_format"
    for t, line in zip(ts, lines[1:]):
        tt, re, im = map(float, line.split(","))
        if abs(tt - t) > 1e-10 or abs(re - math.exp(-0.5 * t * t)) > O.SLACK * tol \
                or abs(im) > O.SLACK * tol:
            return "cli_normal_charfun"
    return None


def cli_cold(seed, tracer=None):
    """Fresh ``python -m cltlab`` processes, one at a time."""
    rng = np.random.default_rng([seed, 4])
    here = Path(__file__).resolve().parent
    work = here / "out" / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # the README's weakdist inputs: the coin and the normalized sum of 16 coins
    _write_dist(work / "coin.dist", *COIN)
    k = np.arange(17)
    _write_dist(work / "sum16.dist", (2.0 * k - 16.0) / 4.0,
                [math.comb(16, int(j)) / 2.0**16 for j in k])

    cases = [(argv, lambda out, exp=exp, name="readme_" + argv[0]: None if out == exp else name)
             for argv, exp in _parse_transcript(here / "cli_transcript.txt")]
    cases.append((["charfun", "--dist", "preset:normal"],
                  lambda out: _check_cli_normal_charfun(out.decode())))
    cases.append((["clt", "--base", "preset:die", "--ns", "512"],
                  lambda out: _check_cli_clt(out.decode(), *DIE)))
    order = rng.permutation(len(cases))

    def run(argv, traced_index=None):
        env = os.environ.copy()
        if traced_index is None:
            cmd = [sys.executable, "-m", "cltlab", *argv]
        else:
            spans = work / f"spans-{traced_index}.json"
            env["PERFBENCH_SPANS"] = str(spans)
            cmd = [sys.executable, "-X", "importtime", str(here / "cli_launch.py"), *argv]
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=120)
        err = proc.stderr.decode(errors="replace")
        if traced_index is not None:
            if spans.exists():
                tracer.absorb(json.loads(spans.read_text()))
                spans.unlink()
            for pkg, secs in tracing.import_times(err).items():
                tracer.imports.setdefault(pkg, []).append(secs)
        return proc.returncode, proc.stdout, err

    def checker(check):
        def wrapped(result):
            code, out, err = result
            if code != 0:
                msg = [ln for ln in err.splitlines() if not ln.startswith("import time:")]
                return f"exit {code}: {msg[-1] if msg else ''}"
            return check(out)
        return wrapped

    ops = []
    for i in order:
        argv, check = cases[i]
        traced = None if tracer is None else int(i)
        ops.append(Op("cltlab " + " ".join(argv),
                      lambda argv=argv, traced=traced: run(argv, traced), checker(check)))

    # p85 sits inside the band of the eighth-slowest of the nine commands,
    # clear of the one slow command (the 401-step normal charfun) above it.
    return Workload(ops, 85.0, frozenset({CLI_ATOM_UNDERFLOW}), "children", lambda: None,
                    lambda: shutil.rmtree(work, ignore_errors=True))


WORKLOADS = {
    "clt_exact": clt_exact,
    "clt_montecarlo": clt_montecarlo,
    "density_quadrature": density_quadrature,
    "cli_cold": cli_cold,
}
