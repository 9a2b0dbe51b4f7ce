"""Command-line interface.

Subcommands: clt, charfun, invert, weakdist, integrate, space.  Every
subcommand accepts --out; --tol is taken only by charfun, invert and
integrate, and --seed only by clt with --mc, where they are read.  Output
is CSV or a single number on stdout unless --out names a file.  Failures
print exactly one line, `error,<ExceptionType>,<message>`, to stderr and
exit with status 2.
"""

import argparse
import io
import math
import sys

import numpy as np

from .charfuns import char_fn, levy_invert, normal_charfun
from .clt import CltExperiment, emit_csv, run_clt
from .distributions import (
    Discrete,
    cdf,
    fair_die,
    load_discrete,
    rademacher,
    standard_normal,
)
from .finite_space import (
    are_independent,
    expectation,
    fair_die_space,
    product_space,
    variance as space_variance,
)
from .numerics import gaussian_moment, integrate_oscillatory, sinc
from .weak_convergence import (
    ConvergenceProbe,
    cdf_distance,
    default_grid,
    levy_metric,
    portmanteau_testfn,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # one-line machine-parsable errors instead of argparse's usage dump
    def error(self, message):
        raise _UsageError(message)


_PRESETS = {
    "bernoulli": rademacher,
    "die": fair_die,
    "normal": standard_normal,
}


def _dist_from(text: str):
    if text.startswith("preset:"):
        name = text[len("preset:"):]
        try:
            return _PRESETS[name]()
        except KeyError:
            raise ValueError(
                f"unknown preset {name!r}; choose from {sorted(_PRESETS)}"
            ) from None
    return load_discrete(text)


def _parse_ns(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--ns must be comma-separated integers, got {text!r}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="cltlab", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")
    tol = _Parser(add_help=False)
    tol.add_argument("--tol", type=float, default=1e-8, help="numerical tolerance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clt", parents=[common],
                       help="normalized-sum convergence report as CSV")
    p.add_argument("--base", required=True,
                   help="distribution file, preset:bernoulli, or preset:die")
    p.add_argument("--ns", required=True, help="comma-separated sample counts, e.g. 1,4,16")
    p.add_argument("--mc", type=int, default=None, metavar="DRAWS",
                   help="Monte Carlo mode with this many draws per n")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed for --mc (default 0); rejected without --mc")

    p = sub.add_parser("charfun", parents=[common, tol],
                       help="characteristic function on a t grid as CSV (t,re,im)")
    p.add_argument("--dist", required=True, help="distribution file or preset:NAME")
    p.add_argument("--tmin", type=float, default=-10.0)
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=401)

    p = sub.add_parser("invert", parents=[common, tol],
                       help="recover mu((a,b]) from the characteristic function")
    p.add_argument("--dist", required=True, help="distribution file or preset:NAME")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--T", type=float, default=None, help="fixed truncation radius")

    p = sub.add_parser("weakdist", parents=[common],
                       help="distances between two stored distributions (right = reference)")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("integrate", parents=[common, tol],
                       help="evaluate a built-in integral")
    p.add_argument("--fn", required=True, help="preset:sinc or gauss_moment:K")

    p = sub.add_parser("space", parents=[common],
                       help="finite probability space demonstration")
    p.add_argument("--demo", required=True, choices=["die"])
    return parser


def _cmd_clt(args) -> str:
    if args.seed is not None and args.mc is None:
        raise _UsageError("--seed is read only with --mc")
    base = _dist_from(args.base)
    exp = CltExperiment(base, _parse_ns(args.ns), seed=0 if args.seed is None else args.seed,
                        mc_draws=args.mc)
    report = run_clt(exp)
    buf = io.StringIO()
    emit_csv(report, buf)
    return buf.getvalue()


def _cmd_charfun(args) -> str:
    mu = _dist_from(args.dist)
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    if args.tmax < args.tmin:
        raise ValueError("--tmax must be >= --tmin")
    phi = char_fn(mu, tol=args.tol)
    lines = ["t,re,im\n"]
    for t in np.linspace(args.tmin, args.tmax, args.steps):
        z = phi(float(t))
        lines.append(f"{t:.12g},{z.real:.12g},{z.imag:.12g}\n")
    return "".join(lines)


def _cmd_invert(args) -> str:
    if args.dist == "preset:normal":
        phi = normal_charfun
    else:
        phi = char_fn(_dist_from(args.dist), tol=args.tol)
    value = levy_invert(phi, args.a, args.b, T=args.T, tol=args.tol)
    return f"{value:.12g}\n"


def _cmd_weakdist(args) -> str:
    left = load_discrete(args.left)
    right = load_discrete(args.right)
    probe = ConvergenceProbe(right, default_grid(right))
    rows = [
        ("cdf_sup", cdf_distance(left, probe)),
        ("levy", levy_metric(left, right)),
        ("testfn_max", max(portmanteau_testfn(left, probe))),
    ]
    return "metric,value\n" + "".join(f"{k},{v:.12g}\n" for k, v in rows)


def _cmd_integrate(args) -> str:
    spec = args.fn
    if spec == "preset:sinc":
        value = integrate_oscillatory(sinc, lambda k: k * math.pi, tol=args.tol)
    elif spec.startswith("gauss_moment:"):
        raw = spec[len("gauss_moment:"):]
        try:
            k = int(raw)
        except ValueError:
            raise ValueError(f"gauss_moment order must be an integer, got {raw!r}") from None
        value = gaussian_moment(k, tol=args.tol)
    else:
        raise ValueError(f"unknown --fn {spec!r}; use preset:sinc or gauss_moment:K")
    return f"{value:.12g}\n"


def _cmd_space(args) -> str:
    die = fair_die_space()
    faces = [float(o) for o in die.outcomes]
    two = product_space(die, die)
    first = [float(a) for a, _ in two.outcomes]
    second = [float(b) for _, b in two.outcomes]
    rows = [
        ("mean", f"{expectation(die, faces):.12g}"),
        ("variance", f"{space_variance(die, faces):.12g}"),
        ("coords_independent", str(are_independent(two, [first, second])).lower()),
        ("self_pair_independent", str(are_independent(two, [first, first])).lower()),
    ]
    return "quantity,value\n" + "".join(f"{k},{v}\n" for k, v in rows)


_COMMANDS = {
    "clt": _cmd_clt,
    "charfun": _cmd_charfun,
    "invert": _cmd_invert,
    "weakdist": _cmd_weakdist,
    "integrate": _cmd_integrate,
    "space": _cmd_space,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "tol" in args and (args.tol <= 0.0 or not math.isfinite(args.tol)):
            raise ValueError(f"--tol must be positive and finite, got {args.tol!r}")
        text = _COMMANDS[args.command](args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", newline="\n") as fh:
                fh.write(text)
    except _UsageError as exc:
        print(f"error,UsageError,{exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error,{type(exc).__name__},{exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
