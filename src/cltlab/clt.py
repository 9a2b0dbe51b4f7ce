"""Convergence experiments for normalized sums of i.i.d. variables.

The harness builds the law of (X_1 + ... + X_n)/sqrt(n sigma^2) for a
centered discrete base, exactly by repeated convolution or approximately by
seeded Monte Carlo, and measures its distance to the standard normal three
ways: sup CDF gap on a continuity grid, Levy metric, and characteristic
function modulus error on a fixed t grid.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence, Union

import numpy as np

from .charfuns import charfun, normal_charfun
from .distributions import (
    Discrete,
    Dist,
    Empirical,
    iid_sum_normalized,
    mean,
    shift_scale,
    standard_normal,
    variance,
)
from .weak_convergence import ConvergenceProbe, cdf_distance, default_grid, levy_metric

_DEFAULT_T_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
_SIGMA2_TOL = 1e-9
# uniforms per Monte Carlo chunk: its few working arrays stay in cache
_MC_CHUNK_ELEMS = 1 << 14
# distinct grids whose normal probes (and their cached normal CDF values)
# are kept across run_clt calls
_PROBE_CACHE_SIZE = 8


def center(mu: Dist) -> Dist:
    """Shift a distribution so its mean is zero (scale untouched)."""
    return shift_scale(mu, mean(mu), 1.0)


@dataclass(frozen=True, eq=False)
class CltExperiment:
    """A batch of normalized-sum convergence measurements.

    ``base`` must be Discrete; it is centered automatically when its mean is
    not already zero, and must have positive variance.  ``sigma2``, when
    given, is checked against the recomputed variance (1e-9 tolerance).
    ``grid`` defaults to the standard continuity grid for the normal limit.
    ``mc_draws`` switches the sum construction to seeded Monte Carlo: each
    row costs O(mc_draws * n) time, with memory bounded by one chunk of
    uniforms plus the mc_draws sums.  Each (seed, n) pair has its own
    generator stream, unchanged by the chunking, so earlier seeded outputs
    reproduce byte for byte.
    """

    base: Discrete
    ns: tuple[int, ...]
    t_grid: tuple[float, ...] = _DEFAULT_T_GRID
    grid: Union[tuple[float, ...], None] = None
    seed: int = 0
    mc_draws: Union[int, None] = None
    sigma2: Union[float, None] = None

    def __post_init__(self):
        if not isinstance(self.base, Discrete):
            raise TypeError(f"experiment base must be Discrete, got {type(self.base).__name__}")
        base = self.base
        if abs(mean(base)) > 1e-9:
            base = center(base)
        s2 = variance(base)
        if not s2 > 0.0:
            raise ValueError("experiment base must have positive variance")
        if self.sigma2 is not None and abs(float(self.sigma2) - s2) > _SIGMA2_TOL:
            raise ValueError(
                f"declared sigma2 {self.sigma2!r} disagrees with recomputed variance {s2!r}"
            )
        ns = tuple(int(n) for n in self.ns)
        if any(n != float(orig) for n, orig in zip(ns, self.ns)):
            raise ValueError("ns must be integers")
        if any(n < 1 for n in ns):
            raise ValueError("every n must be >= 1")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("ns must be strictly increasing")
        t_grid = tuple(float(t) for t in self.t_grid)
        if not t_grid:
            raise ValueError("t_grid must be non-empty")
        if any(not math.isfinite(t) for t in t_grid):
            raise ValueError("t_grid values must be finite")
        grid = self.grid
        if grid is None:
            grid = default_grid(standard_normal())
        else:
            grid = tuple(float(g) for g in grid)
        seed = int(self.seed)
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        draws = self.mc_draws
        if draws is not None:
            draws = int(draws)
            if draws < 1:
                raise ValueError("mc_draws must be a positive integer")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "t_grid", t_grid)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "mc_draws", draws)
        object.__setattr__(self, "sigma2", s2)


class Row(NamedTuple):
    n: int
    cdf_sup: float
    levy: float
    charfun_sup: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Rows of (n, cdf sup distance, Levy distance, charfun sup distance)."""

    rows: tuple[Row, ...]

    def __post_init__(self):
        rows = tuple(Row(int(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in self.rows)
        for r in rows:
            if r.n < 1:
                raise ValueError(f"row n must be >= 1, got {r.n}")
            if min(r.cdf_sup, r.levy, r.charfun_sup) < 0.0:
                raise ValueError("distances must be nonnegative")
        if any(b.n <= a.n for a, b in zip(rows, rows[1:])):
            raise ValueError("rows must be ordered by strictly increasing n")
        object.__setattr__(self, "rows", rows)


def _mc_normalized_sum(base: Discrete, n: int, draws: int, seed: int) -> Empirical:
    """Empirical law of the normalized n-fold sum from seeded sampling.

    Each (seed, n) pair gets its own generator stream, so a row does not
    depend on which other rows were requested.  Rows are drawn in chunks of
    about _MC_CHUNK_ELEMS uniforms (one row when n exceeds it), which keeps
    the working arrays in cache; the stream, and so every draw, does not
    depend on the chunking.
    """
    rng = np.random.default_rng([seed, n])
    scale = math.sqrt(n * variance(base))
    rows = max(1, _MC_CHUNK_ELEMS // n)
    out = np.empty(draws)
    for done in range(0, draws, rows):
        k = min(rows, draws - done)
        out[done:done + k] = base._draw(rng.random((k, n))).sum(axis=1) / scale
    return Empirical(out)


@lru_cache(maxsize=_PROBE_CACHE_SIZE)
def _normal_probe(grid: tuple[float, ...]) -> ConvergenceProbe:
    """The N(0,1) probe on a grid, shared by every run_clt on that grid."""
    return ConvergenceProbe(standard_normal(), grid)


def run_clt(exp: CltExperiment) -> ConvergenceReport:
    """One report row per n, each comparing the normalized sum to N(0,1)."""
    limit = standard_normal()
    probe = _normal_probe(exp.grid)
    rows = []
    for n in exp.ns:
        if exp.mc_draws is None:
            mu_n = iid_sum_normalized(exp.base, n)
        else:
            mu_n = _mc_normalized_sum(exp.base, n, exp.mc_draws, exp.seed)
        cdf_sup = cdf_distance(mu_n, probe)
        levy = levy_metric(mu_n, limit)
        cf_sup = max(abs(charfun(mu_n, t) - normal_charfun(t)) for t in exp.t_grid)
        rows.append(Row(n, cdf_sup, levy, cf_sup))
    return ConvergenceReport(tuple(rows))


def charfun_convergence_curve(exp: CltExperiment) -> list[tuple[int, float, float]]:
    """(n, t, modulus error) for phi_base(t/sqrt(n sigma2))^n against the
    normal characteristic function, via the product law (no convolutions)."""
    out = []
    for n in exp.ns:
        root = math.sqrt(n * exp.sigma2)
        for t in exp.t_grid:
            phi_n = charfun(exp.base, t / root) ** n
            out.append((n, t, abs(phi_n - normal_charfun(t))))
    return out


def emit_csv(report: ConvergenceReport, destination) -> None:
    """Write the report as CSV: header then one 12-significant-digit row per
    n, newline-terminated, byte-identical across runs with equal inputs."""
    lines = ["n,cdf_sup,levy,charfun_sup\n"]
    for r in report.rows:
        lines.append(f"{r.n},{r.cdf_sup:.12g},{r.levy:.12g},{r.charfun_sup:.12g}\n")
    text = "".join(lines)
    if hasattr(destination, "write"):
        destination.write(text)
        return
    with open(destination, "w", newline="\n") as fh:
        fh.write(text)
