"""Convergence experiments for normalized sums of i.i.d. variables.

The harness builds the law of (X_1 + ... + X_n)/sqrt(n sigma^2) for a
centered discrete base, exactly by ``iid_sum_normalized`` (lattice powering,
count vectors or atom-pair convolution, by the base) or approximately by
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
    _MAX_ATOMS,
    Discrete,
    Dist,
    Empirical,
    _integer,
    _lattice_span,
    _lattice_sum,
    iid_sum_normalized,
    mean,
    shift_scale,
    standard_normal,
    variance,
)
from .errors import NonConvergenceError, SizeLimitError
from .weak_convergence import ConvergenceProbe, cdf_distance, default_grid, levy_metric

_DEFAULT_T_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
_SIGMA2_TOL = 1e-9
# uniforms (sums, on the count path) per chunk of a summand sampler: its few
# working arrays stay in cache
_MC_CHUNK_ELEMS = 1 << 14
# Monte Carlo sums draw their count vectors once n >= this * (K - 1): a
# binomial variate cost 40-200 ns against about 8 ns per categorical summand
_MC_COUNTS_PER_ATOM = 32
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
    ``mc_draws`` switches the sum construction to seeded Monte Carlo.  A
    lattice base whose sum's slots number at most both the 10^6 of an exact
    lattice sum and mc_draws * n builds that sum's law and draws the row as
    one Multinomial(mc_draws, law) count vector over the law's atoms, O(K)
    time and memory past the build for a law of K atoms; its sample is
    stored sorted.  Any other row draws summands: for a base of K atoms, a
    row with n < 32 (K - 1) maps n uniforms to atoms per sum, O(mc_draws *
    n) time; from n = 32 (K - 1) on, each sum is drawn from its multinomial
    count vector by K - 1 binomial variates, O(mc_draws * K) time; memory is
    one chunk of uniforms or sums plus the mc_draws sums.  Each (seed, n)
    pair has its own generator stream, so a row does not depend on the other
    rows requested.  ``ns``, ``seed`` and ``mc_draws`` take integers, an
    integral float included; any other value raises ValueError.
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
        ns = tuple(_integer(n, "ns must be integers") for n in self.ns)
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
        seed = _integer(self.seed, "seed must be an integer")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        draws = self.mc_draws
        if draws is not None:
            draws = _integer(draws, "mc_draws must be a positive integer")
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


# the samplers' generator annotations are strings: reading np.random at
# import would load numpy.random for every import of cltlab
def _mc_categorical(base: Discrete, n: int, draws: int, rng: "np.random.Generator") -> np.ndarray:
    """draws sums of n atoms of base, each atom the one the inverse CDF sends
    a uniform to (``Discrete._draw``): O(draws * n) uniforms, taken in
    chunks of about _MC_CHUNK_ELEMS (one row when n exceeds it) that keep
    the working arrays in cache."""
    out = np.empty(draws)
    rows = max(1, _MC_CHUNK_ELEMS // n)
    for done in range(0, draws, rows):
        k = min(rows, draws - done)
        out[done:done + k] = base._draw(rng.random((k, n))).sum(axis=1)
    return out


def _mc_counts(base: Discrete, n: int, draws: int, rng: "np.random.Generator") -> np.ndarray:
    """draws sums of n atoms of base, each read off its count vector, which
    is Multinomial(n, weights), drawn by K - 1 conditional binomials
    (Devroye 1986, XI.1): c_k ~ Bin(n - c_1 - ... - c_{k-1}, w_k / (w_k +
    ... + w_K)) and the last atom takes what is left, O(draws * K) variates.
    The suffix sums come from the weights themselves, which absorbs a weight
    sum within 1e-12 of one.  Works through chunks of _MC_CHUNK_ELEMS sums,
    one binomial array per atom and chunk, so the chunk size, unlike the
    categorical sampler's, is part of the seeded draws."""
    points, w = base.points, base.weights
    # P(atom k | atom >= k), at most 1: the suffix sum at k adds w_k to nonnegatives
    share = w[:-1] / np.cumsum(w[::-1])[:0:-1]
    out = np.empty(draws)
    for done in range(0, draws, _MC_CHUNK_ELEMS):
        k = min(_MC_CHUNK_ELEMS, draws - done)
        left = np.full(k, n, dtype=np.int64)
        total = np.zeros(k)
        for x, p in zip(points[:-1], share):
            c = rng.binomial(left, p)
            total += c * x
            left -= c
        total += left * points[-1]
        out[done:done + k] = total
    return out


def _mc_normalized_sum(base: Discrete, n: int, draws: int, seed: int) -> Empirical:
    """Empirical law of the normalized n-fold sum from seeded sampling.

    Each (seed, n) pair gets its own generator stream, so a row does not
    depend on which other rows were requested, and the first m sums a
    summand sampler draws do not depend on the draw count.

    A base on a lattice (``_lattice_span``) of width W spans, whose sum's
    n W + 1 lattice slots number at most both the 10^6 cap of an exact sum
    and draws * n, the summands the row stands for, first builds that sum's
    law by ``_lattice_power``.  The row's sample then depends only on how
    many draws land on each of the law's K atoms, a Multinomial(draws, law)
    count vector, which ``Generator.multinomial`` draws by K - 1 conditional
    binomials (Devroye 1986, XI.1): O(K) time and memory past the build,
    whatever the draw count.  The law is the sum's exact law short of the at
    most 1e-13 of mass the powering may drop, rescaled to mass one.  numpy
    forms each conditional share against a running 1 - (w_1 + ... + w_k),
    whose rounding of about K eps can misplace only the draws that land in
    the last K eps of mass.  The slot rule needs no tuned constant and sends
    sparse wide lattices to the summand paths ({0, 1, 10^5} at n = 9 with
    2000 draws spans 900,001 slots against 18,000 summands), but it is not
    a cost model: {0, 1, 1000} at n = 256 with 2000 draws still powers its
    256,001 slots, about 18 ms against 3 ms by summands.  The base need not
    be centred.

    Any other base, and a lattice sum past the rule or whose powering raises
    NonConvergenceError (past the dropped-mass budget), draws its summands:
    below n = _MC_COUNTS_PER_ATOM * (K - 1), for a base of K atoms, as n
    categorical draws per sum (``_mc_categorical``); from there on, as the
    sum's count vector (``_mc_counts``); memory is the draws sums plus one
    chunk.  Every path samples the law of S_n / sqrt(n sigma^2).
    """
    rng = np.random.default_rng([seed, n])
    scale = math.sqrt(n * variance(base))
    span = _lattice_span(base.points)
    if span is not None:
        try:
            law = _lattice_sum(base, n, span, scale, min(_MAX_ATOMS, draws * n))
        except (SizeLimitError, NonConvergenceError):
            pass
        else:
            return Empirical._from_counts(law.points, rng.multinomial(draws, law.weights))
    if n < _MC_COUNTS_PER_ATOM * (base.points.size - 1):
        sums = _mc_categorical(base, n, draws, rng)
    else:
        sums = _mc_counts(base, n, draws, rng)
    sums /= scale
    return Empirical(sums)


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
