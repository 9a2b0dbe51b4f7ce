"""Diagnostics for weak convergence of probability measures on the line.

Three views of the same notion: sup CDF distance over a continuity grid of
the limit, the Levy metric, and integrals of a fixed dictionary of bounded
continuous test functions.  Grids are validated against the limit's atoms:
evaluating a CDF comparison at an atom of the limit is a hard error, never
a silent one.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .distributions import (
    Density,
    Discrete,
    Dist,
    _density_cdf,
    _require_dist,
    atom_mass,
    cdf,
    discontinuity_points,
    mean,
    variance,
)
from .errors import AtomOnGridError
from .numerics import _check_tol

_LEVY_SLACK = 1e-12
# The finest grid of eps whose points are all exact floats on [0, 1].
_LEVY_FINEST_TOL = 2.0 ** -52


class TestFn(NamedTuple):
    """Bounded continuous test function with its stated bound.

    ``domain`` is the sweep range on which the bound is validated (the
    function itself must be defined on all of R).
    """

    fn: Callable[[float], float]
    bound: float
    domain: tuple[float, float] = (-20.0, 20.0)


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _inv_quadratic(x: float) -> float:
    return 1.0 / (1.0 + x * x)


def _bump(x: float) -> float:
    if abs(x) >= 1.0:
        return 0.0
    return math.exp(1.0 - 1.0 / (1.0 - x * x))


def default_test_fns() -> tuple[TestFn, ...]:
    """The standard dictionary: clamp to [0,1], 1/(1+x^2), cos, and a smooth
    bump supported on [-1, 1]; every bound is 1."""
    return (
        TestFn(_clamp01, 1.0),
        TestFn(_inv_quadratic, 1.0),
        TestFn(math.cos, 1.0),
        TestFn(_bump, 1.0, (-2.0, 2.0)),
    )


@dataclass(frozen=True, eq=False)
class ConvergenceProbe:
    """A limit distribution with a continuity grid and test functions.

    Construction fails with AtomOnGridError if any grid point is an atom of
    the limit, and with ValueError if a test function exceeds its stated
    bound on a sweep of its domain.  The limit's CDF on the grid is
    computed on the first cdf_distance and reused by every later one.
    """

    limit: Dist
    grid: tuple[float, ...]
    test_fns: tuple[TestFn, ...] = field(default_factory=default_test_fns)

    def __post_init__(self):
        _require_dist(self.limit)
        grid = tuple(float(g) for g in self.grid)
        if not grid:
            raise ValueError("the continuity grid must be non-empty")
        if any(not math.isfinite(g) for g in grid):
            raise ValueError("grid points must be finite")
        atoms = set(discontinuity_points(self.limit))
        hits = [g for g in grid if g in atoms]
        if hits:
            raise AtomOnGridError(
                f"grid points {hits} are atoms of the limit distribution"
            )
        fns = tuple(TestFn(f.fn, float(f.bound), (float(f.domain[0]), float(f.domain[1])))
                    for f in self.test_fns)
        for f in fns:
            if not (math.isfinite(f.bound) and f.bound > 0.0):
                raise ValueError(f"test function bound must be positive and finite, got {f.bound!r}")
            sweep = np.linspace(f.domain[0], f.domain[1], 201)
            worst = max(abs(float(f.fn(float(x)))) for x in sweep)
            if worst > f.bound + 1e-12:
                raise ValueError(
                    f"test function exceeds its stated bound on the sweep: {worst!r} > {f.bound!r}"
                )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "test_fns", fns)

    @cached_property
    def _limit_cdf(self) -> np.ndarray:
        """The limit's CDF at each grid point, computed on first use."""
        return _cdf_values(self.limit, np.asarray(self.grid))


def default_grid(limit: Dist) -> tuple[float, ...]:
    """Continuity grid for a limit law: midpoints between atoms plus one
    point beyond each extreme for atomic laws; a uniform 101-point grid over
    mean +- 8 standard deviations for a Density."""
    _require_dist(limit)
    if isinstance(limit, Density):
        m = mean(limit)
        s = math.sqrt(max(variance(limit), 0.0))
        if s == 0.0:
            s = 1.0
        return tuple(np.linspace(m - 8.0 * s, m + 8.0 * s, 101))
    atoms = np.asarray(discontinuity_points(limit))
    mids = 0.5 * (atoms[1:] + atoms[:-1])
    return tuple(np.concatenate([[atoms[0] - 1.0], mids, [atoms[-1] + 1.0]]))


def default_probe(limit: Dist, test_fns: tuple[TestFn, ...] | None = None) -> ConvergenceProbe:
    """Probe with the default grid and (unless overridden) the default
    test-function dictionary."""
    fns = default_test_fns() if test_fns is None else test_fns
    return ConvergenceProbe(limit, default_grid(limit), fns)


def _cdf_values(mu: Dist, xs: np.ndarray) -> np.ndarray:
    """cdf(mu, x) at every point of the array xs in one array pass, bit for
    bit: from the cumulative weights of a Discrete, from the panel
    polynomials of a Density."""
    if isinstance(mu, Discrete):
        return _StepCdf(mu).value(xs)
    return _density_cdf(mu, xs)


def cdf_distance(mu: Dist, probe: ConvergenceProbe) -> float:
    """sup over the probe grid of |F_mu - F_limit|, both CDFs read at the
    whole grid at once."""
    _require_dist(mu)
    values = _cdf_values(mu, np.asarray(probe.grid))
    return float(np.max(np.abs(values - probe._limit_cdf)))


def integral_against(fn: Callable[[float], float], mu: Dist, tol: float = 1e-9) -> float:
    """integral of fn d(mu): a weighted sum over atoms, or quadrature."""
    _require_dist(mu)
    if isinstance(mu, Discrete):
        return float(np.dot(mu.weights, [fn(float(x)) for x in mu.points]))
    return mu._integral(fn, tol)


def portmanteau_testfn(mu: Dist, probe: ConvergenceProbe) -> list[float]:
    """|integral f d(mu) - integral f d(limit)| for each probe test function."""
    return [
        abs(integral_against(f.fn, mu) - integral_against(f.fn, probe.limit))
        for f in probe.test_fns
    ]


class BoundaryCheck(NamedTuple):
    mu_value: float
    limit_value: float
    boundary_mass: float


def boundary_null_check(
    mu: Dist, limit: Dist, intervals: Sequence[tuple[float, float]]
) -> BoundaryCheck:
    """Measure of a finite disjoint union of half-open intervals (a, b]
    under mu and limit, plus the limit's atom mass on the boundary points.

    Overlapping or inverted intervals raise ValueError.
    """
    _require_dist(mu)
    _require_dist(limit)
    ivs = [(float(a), float(b)) for a, b in intervals]
    for a, b in ivs:
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"interval endpoints must satisfy a < b, got ({a!r}, {b!r})")
    ivs.sort()
    for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
        if a2 < b1:
            raise ValueError(
                f"intervals ({a1}, {b1}] and ({a2}, {b2}] overlap; the union must be disjoint"
            )
    mu_value = sum(cdf(mu, b) - cdf(mu, a) for a, b in ivs)
    limit_value = sum(cdf(limit, b) - cdf(limit, a) for a, b in ivs)
    endpoints = {a for a, _ in ivs} | {b for _, b in ivs}
    boundary_mass = sum(atom_mass(limit, e) for e in endpoints)
    return BoundaryCheck(mu_value, limit_value, boundary_mass)


class _StepCdf:
    """Right-continuous step CDF of a Discrete, with left limits; it reads
    the same cumulative weights as cdf, quantile and sample."""

    continuous = False

    def __init__(self, mu: Discrete):
        self.points = mu.points
        self.cum = mu._cumweights

    def value(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.points, x, side="right")
        return np.where(idx > 0, self.cum[np.maximum(idx - 1, 0)], 0.0)

    def left(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.points, x, side="left")
        return np.where(idx > 0, self.cum[np.maximum(idx - 1, 0)], 0.0)

    @property
    def breakpoints(self) -> np.ndarray:
        return self.points

    def at_breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """value and left at the atoms, bit for bit, without a search."""
        return self.cum, np.concatenate([[0.0], self.cum[:-1]])

    def shifted_inverse(self, z: np.ndarray) -> np.ndarray:
        """The y with y + F(y) = z for each z, read off the knots (p + F(p-),
        p) and (p + F(p), p) of every atom p."""
        right, left = self.at_breakpoints()
        sums = np.stack([self.points + left, self.points + right], axis=1).ravel()
        return _shifted_inverse(z, sums, np.repeat(self.points, 2))


class _TableCdf:
    """A Density's CDF H as the piecewise-linear interpolant of its knot
    table (Density._cdf_table): exact at about 2^13 knots, 0 before the
    first and 1 after the last.  The corridor reads it rather than the panel
    polynomials, which would cost several times more on its many small
    arrays.  Since y + H(y) is piecewise linear and increasing, one
    interpolation on the knots (x + H(x), x) inverts it."""

    continuous = True

    def __init__(self, d: Density):
        self.density = d
        self.xs, self.cum, _ = d._cdf_table

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.xs, self.cum, left=0.0, right=1.0)

    left = value

    @property
    def breakpoints(self) -> np.ndarray:
        return self.xs

    def at_breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """value and left at the knots: the table's values, bit for bit."""
        return self.cum, self.cum

    def shifted_inverse(self, z: np.ndarray) -> np.ndarray:
        """The y with y + H(y) = z for each z, read off the knots."""
        return _shifted_inverse(z, self.density._root_table, self.xs)


def _shifted_inverse(z: np.ndarray, sums: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The y with y + H(y) = z for each z, y + H(y) linear between the knots
    (sums, ys): past either end H is constant, so y + H(y) has slope 1
    there, and a z inside a jump of H maps to the jump's point."""
    y = np.interp(z, sums, ys)
    y = np.where(z < sums[0], np.minimum(z, ys[0]), y)
    return np.where(z > sums[-1], np.maximum(z - 1.0, ys[-1]), y)


def _cdf_evaluator(mu: Dist):
    if isinstance(mu, Discrete):
        return _StepCdf(mu)
    return _TableCdf(mu)


class _CorridorTerm(NamedTuple):
    """One corridor term over points x: sign * (c - H(x + sign * eps)), with
    sign +1 or -1 per point and H a nondecreasing CDF evaluator, so each
    point's value only falls as eps grows from gap0, its value at eps = 0.
    inverse is the evaluator's shifted_inverse."""

    x: np.ndarray
    c: np.ndarray
    H: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    sign: np.ndarray
    gap0: np.ndarray

    def beyond(self, floor: float) -> "_CorridorTerm":
        """The points whose gap0 exceeds floor: no other point can break
        the corridor at an eps of floor or more."""
        return self.subset(self.gap0 > floor)

    def subset(self, keep: np.ndarray) -> "_CorridorTerm":
        """The points where keep is true."""
        return self._replace(x=self.x[keep], c=self.c[keep], sign=self.sign[keep],
                             gap0=self.gap0[keep])

    def roots(self, at=slice(None)) -> np.ndarray:
        """The eps at which each point (of those at) meets the corridor's
        edge.  With y = x + eps the + condition c - H(x + eps) <= eps + slack
        reads y + H(y) >= x + c - slack, and with y = x - eps the - condition
        H(x - eps) - c <= eps + slack reads y + H(y) <= x + c + slack."""
        x, sign = self.x[at], self.sign[at]
        return sign * (self.inverse(x + self.c[at] - sign * _LEVY_SLACK) - x)

    def holds(self, eps) -> np.ndarray:
        """Whether each point keeps the corridor of width eps (a scalar or
        one per point), x + sign * eps rounded to a float."""
        return self.sign * (self.c - self.H(self.x + self.sign * eps)) <= eps + _LEVY_SLACK

    def least_steps(self, g: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """For each point, the least j in (lo, hi] at which it keeps the
        corridor of width j*g (hi when it breaks it throughout): one
        bisection per point, each point's value falling as eps grows."""
        while True:
            wide = hi - lo > 1
            if not wide.any():
                return hi
            mid = (lo + hi) // 2
            holds = self.holds(mid * g)
            hi = np.where(wide & holds, mid, hi)
            lo = np.where(wide & ~holds, mid, lo)


def _corridor_terms(A, B) -> list[_CorridorTerm]:
    """sup [A(x) - B(x+eps)] and sup [B(x-eps) - A(x)] where they are
    attained or approached over A's breakpoints x: A evaluated there, B as
    a right value at x + eps or a left limit at x - eps.  A continuous B
    has one value at x, read once, and serves both signs as one term, so a
    check interpolates it once."""
    x = A.breakpoints
    right, left = A.at_breakpoints()
    h = B.value(x)
    if B.continuous:
        return [_CorridorTerm(np.concatenate([x, x]), np.concatenate([right, left]), B.value,
                              B.shifted_inverse, np.repeat([1.0, -1.0], x.size),
                              np.concatenate([right - h, h - left]))]
    h_left = B.left(x)
    return [_CorridorTerm(x, right, B.value, B.shifted_inverse, np.ones(x.size), right - h),
            _CorridorTerm(x, left, B.left, B.shifted_inverse, -np.ones(x.size), h_left - left)]


def _corridor_holds(terms: list[_CorridorTerm], eps: float) -> bool:
    """Whether no point of the terms breaks the corridor of width eps."""
    return all(t.holds(eps).all() for t in terms)


def levy_metric(mu: Dist, nu: Dist, tol: float = 1e-4) -> float:
    """Levy metric: inf{eps > 0 : F(x-eps)-eps <= G(x) <= F(x+eps)+eps for
    all x}, located to within tol: the first point at or above it of the
    grid of width g, g the first power of two at or below tol.  tol below
    2^-52, the finest grid that is exact on [0, 1], raises ValueError.

    The corridor condition between two right-continuous CDFs is checked on
    the candidate set where the supremum of the violation can occur: the
    breakpoints of each CDF evaluated directly, plus left limits at
    breakpoints shifted by eps.  Two facts shrink that set.  A step CDF
    against a continuous one needs only the step side's atoms: a term taken
    at a breakpoint of the continuous side never exceeds the atom-side term
    at the first atom beyond it.  And every term only falls as eps grows, so
    a point whose eps = 0 gap is within eps (plus a 1e-12 slack) cannot
    break the corridor at eps or any wider one.

    The check only gets easier as eps grows, so the answer is g times the
    least j in [1, 1/g] at which the corridor holds at j*g: a bisection's
    float, whatever order the checks come in.  One search serves every pair
    of laws.  It guesses j from the largest per-point root, solved on the
    evaluators (_CorridorTerm.roots): first the widest gap's root, then
    those of the points whose gap exceeds it less a grid step, since a root
    never exceeds its gap.  It steps one grid point toward the side still
    unresolved, doubling the step each time, and bisects once a step would
    leave the bracket.  A poor guess costs checks, never the value.  Where
    the grid step nears the float spacing of the points (tol near 2^-52),
    x +- eps moves in jumps of several steps, so the points whose roots
    could bind first find their own least j on their own check, by a
    bisection of a few points, and the guess is the last of those.
    """
    _require_dist(mu)
    _require_dist(nu)
    _check_tol(tol)
    if tol < _LEVY_FINEST_TOL:
        raise ValueError(f"levy_metric tolerance {tol!r} is below 2**-52, "
                         "the finest bisection grid exact on [0, 1]")
    F = _cdf_evaluator(mu)
    G = _cdf_evaluator(nu)
    sides = [(G, F), (F, G)]
    if F.continuous != G.continuous:
        sides = [(A, B) for A, B in sides if not A.continuous]
    terms = [t for A, B in sides for t in _corridor_terms(A, B)]
    widest = max(terms, key=lambda t: t.gap0.max())
    i = int(np.argmax(widest.gap0))
    if widest.gap0[i] <= _LEVY_SLACK:  # the corridor holds at 0
        return 0.0
    g = min(math.ldexp(0.5, math.frexp(tol)[1]), 1.0)
    root = float(widest.roots(slice(i, i + 1))[0])
    floor = (math.ceil(root / g) - 1) * g
    near = [t for t in (u.beyond(floor) for u in terms) if t.x.size]
    roots = [t.roots() for t in near]
    lo, hi = 0, round(1.0 / g)  # the corridor breaks at lo*g and holds at hi*g
    top = math.ceil(max([root] + [float(r.max()) for r in roots]) / g)
    j = top
    if math.ulp(max((float(np.abs(t.x).max()) for t in near), default=0.0) + top * g) > g / 64:
        # The grid step nears the float spacing of x +- eps, which jumps
        # whole steps, so a root's float can sit steps off where its point's
        # check first holds.  Each point within two spacings and a step of
        # the top root settles on its own check; the last to hold is the guess.
        j = 0
        for t, r in zip(near, roots):
            steps = np.ceil(r / g)
            slop = np.ceil(2.0 * np.spacing(np.abs(t.x) + np.abs(r)) / g) + 1.0
            close = steps + slop >= top
            if close.any():
                first = np.clip(steps[close] - slop[close] - 1.0, 0.0, hi - 1).astype(np.int64)
                last = np.clip(steps[close] + slop[close], 1.0, hi).astype(np.int64)
                j = max(j, int(t.subset(close).least_steps(g, first, last).max()))
    j, step = min(max(j, 1), hi), 1
    while hi - lo > 1:
        if _corridor_holds(near if j * g >= floor else terms, j * g):
            hi, j = j, j - step
        else:
            lo, j = j, j + step
        step *= 2
        if not lo < j < hi:
            j = (lo + hi) // 2
    return hi * g
