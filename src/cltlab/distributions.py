"""Probability distributions on the real line in two concrete forms.

``Discrete`` holds finitely many weighted atoms and ``Density`` wraps an
integrable density with its support.  ``Empirical``, the law of a finite
sample, is a ``Discrete`` whose atoms are the distinct sample values with
weights count/N, so every operation on atoms serves it too.  All CDFs follow
the right-continuous convention F(x) = mu((-inf, x]), and quantiles are the
generalized inverse inf{x : F(x) >= p}, so quantile(p) <= x exactly when
p <= cdf(x).
"""

import io
import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np

from .errors import NonConvergenceError, SizeLimitError
from .numerics import _MAX_PANELS, _f_at_nodes, _sweep, integrate

_WEIGHT_SUM_TOL = 1e-12
_MERGE_TOL = 1e-12
_MEAN_ZERO_TOL = 1e-9
_MAX_ATOMS = 1_000_000
_CDF_TOL = 1e-10
# the sweep behind the partition stops once its outermost shells hold under
# a quarter of its tolerance: its bound on the mass beyond its panels
_PARTITION_TAIL = 0.25 * _CDF_TOL
_MOMENT_TOL = 1e-9
# a sweep of a pdf goes on past settled shells until it has seen this mass
_SWEPT_MASS = 0.5
_TABLE_SIZE = 8193
_TABLE_TAIL = 1e-12  # mass a Density table leaves beyond each infinite end
# above the step error of 4096+ grid points (2.4e-4 on a box pdf read as 0 at
# its ends, 6e-6 on the Laplace cusp), below a heavy tail's miss (Cauchy: 1)
_GRID_MASS_TOL = 1e-3
# lattice detection: gaps are commensurable to this fraction of the width
_SPAN_RTOL = 1e-12
# lattice powering convolves directly while a product takes at most this many
# multiply-adds (about 1 ms), by FFT beyond; direct is exact to rounding in
# every slot, so it also keeps FFT noise out of the early powers, whose errors
# the powering repeats
_DIRECT_CONV_TERMS = 1 << 22
# FFT values below this many eps * |a|_2 * |b|_2 are noise: the largest error
# measured on powers of the coin, the die and skewed or sparse lattices, up
# to 2^20 points, was 2.4 eps * |a|_2 * |b|_2
_FFT_FLOOR = 8.0
# mass the FFT floor may remove from one lattice sum, counting its repeats
_FFT_DROP_BUDGET = 1e-13
_EPS = float(np.finfo(float).eps)
# the inverse-CDF guide table has the power of two >= 4 buckets per atom,
# clamped to 2^8..2^16 buckets
_GUIDE_MIN_BITS = 8
_GUIDE_MAX_BITS = 16
# the atom-value table has the power of two >= 256 buckets per atom, clamped
# to 2^12..2^14 buckets (128 KB at most); bases of more atoms get none, as
# buckets holding a cut grow common and the guide table alone is faster
_VALUE_MIN_BITS = 12
_VALUE_MAX_BITS = 14
_VALUE_MAX_ATOMS = 256

DISCRETE_HEADER = "# discrete-dist v1"


@dataclass(frozen=True, eq=False)
class Discrete:
    """Finitely many atoms: strictly increasing points with positive weights
    summing to one (within 1e-12)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1)
        wts = np.asarray(self.weights, dtype=float).reshape(-1)
        if pts.size == 0:
            raise ValueError("a Discrete distribution needs at least one atom")
        if pts.size != wts.size:
            raise ValueError("points and weights must have matching lengths")
        if not np.isfinite(pts).all():
            raise ValueError("atom positions must be finite")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("atom positions must be strictly increasing")
        if not np.isfinite(wts).all() or np.any(wts <= 0.0):
            raise ValueError("atom weights must be positive")
        if abs(float(wts.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"atom weights must sum to 1, got {float(wts.sum())!r}")
        self._trust(pts, wts)

    def _trust(self, points: np.ndarray, weights: np.ndarray) -> "Discrete":
        """Store the atoms without the checks above and return self: only for
        1-d float arrays already known to be finite and strictly increasing,
        with positive weights summing to one.  ``Discrete.__new__(Discrete)``
        followed by this is the unchecked constructor."""
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        return self

    @classmethod
    def from_pairs(cls, pairs) -> "Discrete":
        """Build from (point, weight) pairs given in any order."""
        pts, wts = zip(*pairs)
        order = np.argsort(np.asarray(pts, dtype=float))
        return cls(np.asarray(pts, dtype=float)[order], np.asarray(wts, dtype=float)[order])

    @cached_property
    def _cumweights(self) -> np.ndarray:
        return np.cumsum(self.weights)

    @cached_property
    def _atom_table(self) -> tuple:
        """Guide table of the inverse CDF (Chen & Asau 1974; Devroye 1986,
        III.2.4): m equal buckets of [0, 1), m a power of two, each with the
        first index whose cut reaches its left end, the one cut inside it
        (+inf when none) and whether it holds two or more cuts.  The cuts are
        the cumulative weights with the last one +inf, so every u maps to an
        atom.  Returns (m, start, cut, crowded), crowded None when no bucket
        is."""
        cuts = self._cumweights.copy()
        cuts[-1] = np.inf
        m = 1 << min(max((4 * cuts.size - 1).bit_length(), _GUIDE_MIN_BITS), _GUIDE_MAX_BITS)
        start = np.searchsorted(cuts, np.arange(m + 1) / m, side="left")
        count = np.diff(start)
        cut = np.full(m, np.inf)
        single = count == 1
        cut[single] = cuts[start[:-1][single]]
        crowded = count > 1
        return m, start[:-1], cut, crowded if crowded.any() else None

    def _atom_index(self, u: np.ndarray) -> np.ndarray:
        """Index of the atom the inverse CDF sends each u in [0, 1) to, the
        first whose cumulative weight reaches u (the last atom past them
        all): np.minimum(np.searchsorted(_cumweights, u), K - 1) exactly,
        read from the guide table, with a search only in crowded buckets."""
        m, start, cut, crowded = self._atom_table
        j = (u * m).astype(np.intp)  # exact: m is a power of two
        idx = start[j]
        idx += cut[j] < u
        if crowded is not None:
            hit = crowded[j]
            if hit.any():
                cuts = self._cumweights
                idx[hit] = np.minimum(np.searchsorted(cuts, u[hit], side="left"), cuts.size - 1)
        return idx

    @cached_property
    def _atom_values(self) -> Union[np.ndarray, None]:
        """The inverse CDF read off m equal buckets of [0, 1), m a power of
        two: entry j is the atom every u in [j/m, (j+1)/m) maps to, or NaN
        when a cut (as in _atom_table) lies in that bucket, so that only u
        itself fixes the atom.  None for bases of more than 256 atoms."""
        if self.points.size > _VALUE_MAX_ATOMS:
            return None
        cuts = self._cumweights.copy()
        cuts[-1] = np.inf
        bits = (_VALUE_MAX_ATOMS * cuts.size - 1).bit_length()
        m = 1 << min(max(bits, _VALUE_MIN_BITS), _VALUE_MAX_BITS)
        start = np.searchsorted(cuts, np.arange(m + 1) / m, side="left")
        values = self.points[start[:-1]]
        values[np.diff(start) != 0] = np.nan
        values.flags.writeable = False
        return values

    def _draw(self, u: np.ndarray) -> np.ndarray:
        """The atoms the inverse CDF sends uniforms u in [0, 1) to, in u's
        shape: points[_atom_index(u)] exactly, read from the atom-value table
        and from _atom_index only for u in buckets that hold a cut (for every
        u when the base has no table)."""
        values = self._atom_values
        if values is None:
            return self.points[self._atom_index(u)]
        x = values.take((u * values.size).astype(np.intp), mode="clip")  # exact: m is 2^k
        bad = np.isnan(x)
        if bad.any():
            x[bad] = self.points[self._atom_index(u[bad])]
        return x


@dataclass(frozen=True, eq=False)
class Density:
    """Absolutely continuous law given by a density and its support.

    The density must be nonnegative and integrate to one over the support
    within ``mass_tol`` (checked at construction by a quadrature that finds
    mass far from the origin, but not a peak narrower than the node spacing
    around it, such as N(1e4, 1)).  Queries read one partition of the pdf,
    built on first use at tolerance 1e-10, so ``cdf`` and ``quantile`` are
    accurate to 1e-10 over the whole support, heavy tails included;
    ``charfun`` reweights the pdf at the partition's quadrature nodes.
    Moments, ``sample``, ``levy_metric`` and
    ``convolve`` raise NonConvergenceError on heavy tails.
    """

    pdf: Callable[[float], float]
    support: tuple[float, float]
    mass_tol: float = 1e-6

    def __post_init__(self):
        lo, hi = (float(self.support[0]), float(self.support[1]))
        if math.isnan(lo) or math.isnan(hi) or not lo < hi:
            raise ValueError(f"support must be an ordered interval, got {self.support!r}")
        if not (0.0 < self.mass_tol < 1.0):
            raise ValueError("mass_tol must lie in (0, 1)")
        object.__setattr__(self, "support", (lo, hi))
        sweep_lo = max(lo, -32.0)
        sweep_hi = min(hi, 32.0)
        if sweep_lo < sweep_hi:
            for x in np.linspace(sweep_lo, sweep_hi, 65):
                if float(self.pdf(float(x))) < -1e-9:
                    raise ValueError(f"density is negative near x={float(x):.6g}")
        mass = _sweep(self.pdf, lo, hi, self.mass_tol / 4.0, min_mass=_SWEPT_MASS)[0]
        if abs(mass - 1.0) > self.mass_tol:
            raise ValueError(f"density mass {mass!r} deviates from 1 beyond mass_tol")

    @cached_property
    def _partition(self) -> tuple[np.ndarray, np.ndarray]:
        """Panel edges of one sweep of the pdf at the cdf tolerance and the
        mass up to each edge (read-only: cached and shared)."""
        _, panels = _sweep(self.pdf, *self.support, _CDF_TOL, min_mass=_SWEPT_MASS)
        a, b, v = (np.concatenate(column) for column in zip(*panels))
        order = np.argsort(a)
        edges = np.concatenate([a[order[:1]], b[order]])
        mass = np.concatenate([[0.0], np.cumsum(v[order])])
        edges.flags.writeable = False
        mass.flags.writeable = False
        return edges, mass

    @cached_property
    def _node_store(self) -> dict:
        """pdf values at the GK15 nodes of panels, keyed by (left, right):
        the partition's panels and those charfun bisects, kept only from
        calls that converge (see _node_values and _keep_nodes)."""
        return {}

    def _node_values(self, a: np.ndarray, b: np.ndarray, fresh: dict) -> np.ndarray:
        """The pdf at the GK15 nodes of the panels (a_i, b_i), one row each:
        read from the store, or evaluated and recorded in fresh."""
        store = self._node_store
        keys = list(zip(a.tolist(), b.tolist()))
        rows = [store.get(k) for k in keys]
        missing = [i for i, row in enumerate(rows) if row is None]
        if missing:
            fx = _f_at_nodes(self.pdf, a[missing], b[missing])
            for i, row in zip(missing, fx):
                rows[i] = row
                fresh[keys[i]] = row
        return np.array(rows)

    def _keep_nodes(self, fresh: dict) -> None:
        """Move the rows a converged call recorded into the store, while it
        holds fewer than _MAX_PANELS panels."""
        store = self._node_store
        room = max(_MAX_PANELS - len(store), 0)
        store.update(itertools.islice(fresh.items(), room))

    def _integral(self, g: Callable[[float], float], tol: float) -> float:
        """Integral of g * pdf by a sweep seeded with the partition's edges,
        out past the middle half of the mass at least (NonConvergenceError
        when its shells never settle)."""
        edges, mass = self._partition
        reach = float(np.abs(edges[np.searchsorted(mass, [0.25, 0.75])]).max())
        return _sweep(lambda x: g(x) * self.pdf(x), *self.support, tol, edges, reach=reach)[0]

    @cached_property
    def _moments(self) -> tuple[float, float]:
        m = self._integral(lambda x: x, _MOMENT_TOL)
        v = self._integral(lambda x: (x - m) ** 2, _MOMENT_TOL)
        return m, v

    def _window(self) -> tuple[float, float]:
        """The support, each infinite end moved in to leave 1e-12 beyond."""
        lo, hi = self.support
        return (lo if math.isfinite(lo) else quantile(self, _TABLE_TAIL),
                hi if math.isfinite(hi) else quantile(self, 1.0 - _TABLE_TAIL))

    @cached_property
    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoid CDF on 8193 equispaced points of the window, for sample
        and levy_metric (read-only: cached and shared)."""
        lo, hi = self._window()
        xs = np.linspace(lo, hi, _TABLE_SIZE)
        fs = _pdf_on_grid(self, xs)
        steps = 0.5 * (fs[1:] + fs[:-1]) * np.diff(xs)
        cum = cdf(self, lo) + np.concatenate([[0.0], np.cumsum(steps)])
        xs.flags.writeable = False
        cum.flags.writeable = False
        return xs, cum


def _pdf_on_grid(d: Density, xs: np.ndarray) -> np.ndarray:
    """The pdf, clipped at zero, on equispaced xs; NonConvergenceError when
    their trapezoid mass misses the partition's over the grid by over 1e-3."""
    fs = np.maximum(np.fromiter(map(d.pdf, xs.tolist()), float, xs.size), 0.0)
    lo, hi = float(xs[0]), float(xs[-1])
    miss = _trapezoid(fs, (hi - lo) / (xs.size - 1)) - (cdf(d, hi) - cdf(d, lo))
    if not abs(miss) <= _GRID_MASS_TOL:
        raise NonConvergenceError(f"a {xs.size}-point pdf grid on ({lo:.6g}, {hi:.6g}) "
                                  f"misses the density's mass there by {miss:.3g}")
    return fs


class Empirical(Discrete):
    """Uniform distribution over a finite sample, as a Discrete: the points
    are the distinct sample values and the weights their counts over N.
    ``samples`` keeps the draws in the order given."""

    def __init__(self, samples):
        xs = np.asarray(samples, dtype=float).reshape(-1)
        if xs.size == 0:
            raise ValueError("an Empirical distribution needs at least one sample")
        if not np.isfinite(xs).all():
            raise ValueError("samples must be finite")
        # np.unique gives finite, strictly increasing points and counts >= 1
        points, counts = np.unique(xs, return_counts=True)
        self._trust(points, counts / xs.size)
        object.__setattr__(self, "samples", xs)

    @cached_property
    def _cumweights(self) -> np.ndarray:
        # exact steps k/N from the counts (recovered exactly by rounding);
        # a running sum of the weights drifts in the last bits
        n = self.samples.size
        return np.cumsum(np.rint(self.weights * n)) / n


Dist = Union[Discrete, Density]


def _require_dist(mu) -> None:
    if not isinstance(mu, (Discrete, Density)):
        raise TypeError(
            f"expected a Discrete (an Empirical is one) or a Density, got {type(mu).__name__}"
        )


def cdf(mu: Dist, x: float) -> float:
    """F(x) = mu((-inf, x]); right-continuous, includes an atom at x.  For a
    Density: a prefix mass of the partition plus one partial panel, accurate
    to 1e-10 over the whole support, heavy tails included."""
    _require_dist(mu)
    x = float(x)
    if math.isnan(x):
        raise ValueError("cdf argument must not be NaN")
    if isinstance(mu, Discrete):
        idx = int(np.searchsorted(mu.points, x, side="right"))
        return float(mu._cumweights[idx - 1]) if idx > 0 else 0.0
    edges, mass = mu._partition
    if x <= edges[0]:
        return 0.0
    if x >= edges[-1]:
        return min(float(mass[-1]), 1.0)
    i = int(np.searchsorted(edges, x, side="right")) - 1
    value = float(mass[i]) + integrate(mu.pdf, float(edges[i]), x, tol=_CDF_TOL)
    return min(max(value, 0.0), 1.0)


def quantile(mu: Dist, p: float) -> float:
    """Generalized inverse CDF: inf{x : cdf(mu, x) >= p} for p in (0, 1).  For
    a Density: bisection inside the partition panel whose mass reaches p (its
    last edge beyond the partition's mass), so cdf at the result is within
    1e-10 of p over the whole support, heavy tails included."""
    _require_dist(mu)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {p!r}")
    if isinstance(mu, Discrete):
        idx = int(np.searchsorted(mu._cumweights, p, side="left"))
        return float(mu.points[min(idx, mu.points.size - 1)])
    edges, mass = mu._partition
    i = int(np.searchsorted(mass, p, side="left"))
    if i == mass.size:
        return float(edges[-1])
    lo_b, hi_b = float(edges[i - 1]), float(edges[i])
    # bisect keeping cdf(lo_b) < p <= cdf(hi_b)
    for _ in range(200):
        mid = 0.5 * (lo_b + hi_b)
        if hi_b - lo_b < 1e-12 * max(1.0, abs(lo_b), abs(hi_b)):
            break
        if cdf(mu, mid) >= p:
            hi_b = mid
        else:
            lo_b = mid
    return hi_b


def mean(mu: Dist) -> float:
    """First moment (of a Density to 1e-9); NonConvergenceError for heavy tails."""
    _require_dist(mu)
    if isinstance(mu, Discrete):
        return float(np.dot(mu.weights, mu.points))
    return mu._moments[0]


def variance(mu: Dist) -> float:
    """Second central moment (of a Density to 1e-9); NonConvergenceError for
    heavy tails."""
    _require_dist(mu)
    if isinstance(mu, Discrete):
        m = mean(mu)
        return float(np.dot(mu.weights, (mu.points - m) ** 2))
    return mu._moments[1]


def atom_mass(mu: Dist, x: float) -> float:
    """Mass of the single point {x} under mu (zero for a Density)."""
    _require_dist(mu)
    x = float(x)
    if isinstance(mu, Discrete):
        idx = int(np.searchsorted(mu.points, x, side="left"))
        if idx < mu.points.size and mu.points[idx] == x:
            return float(mu.weights[idx])
        return 0.0
    return 0.0


def discontinuity_points(mu: Dist) -> list[float]:
    """Atoms of the distribution; empty for a Density by construction."""
    _require_dist(mu)
    if isinstance(mu, Discrete):
        return [float(x) for x in mu.points]
    return []


def _merge_atoms(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort atom pairs and combine points that coincide within 1e-12."""
    order = np.argsort(points, kind="stable")
    pts = points[order]
    wts = weights[order]
    if pts.size > 1:
        breaks = np.nonzero(np.diff(pts) > _MERGE_TOL)[0]
        starts = np.concatenate([[0], breaks + 1])
        merged_w = np.add.reduceat(wts, starts)
        merged_p = pts[starts]
        return merged_p, merged_w
    return pts, wts


def _convolve_discrete(a: Discrete, b: Discrete, max_atoms: int = _MAX_ATOMS) -> Discrete:
    n_pairs = a.points.size * b.points.size
    if n_pairs > 40_000_000:
        raise SizeLimitError(
            f"convolution would enumerate {n_pairs} atom pairs; refusing"
        )
    pts = np.add.outer(a.points, b.points).ravel()
    wts = np.multiply.outer(a.weights, b.weights).ravel()
    pts, wts = _merge_atoms(pts, wts)
    # products below the smallest subnormal underflow to 0.0: not atoms
    keep = wts > 0.0
    pts, wts = pts[keep], wts[keep]
    if pts.size > max_atoms:
        raise SizeLimitError(f"convolution produced {pts.size} atoms (cap {max_atoms})")
    return Discrete(pts, wts)


def _trapezoid(y: np.ndarray, dx: float) -> float:
    trap = getattr(np, "trapezoid", None) or np.trapz
    return float(trap(y, dx=dx))


def _convolve_density(a: Density, b: Density) -> Density:
    lo1, hi1 = a._window()
    lo2, hi2 = b._window()
    span1, span2 = hi1 - lo1, hi2 - lo2
    n_grid = 4096
    dx = max(span1, span2) / (n_grid - 1)
    f1 = _pdf_on_grid(a, lo1 + dx * np.arange(math.ceil(span1 / dx) + 1))
    f2 = _pdf_on_grid(b, lo2 + dx * np.arange(math.ceil(span2 / dx) + 1))
    conv = np.convolve(f1, f2) * dx
    conv /= _trapezoid(conv, dx)
    zs = (lo1 + lo2) + dx * np.arange(conv.size)
    z0, z1 = float(zs[0]), float(zs[-1])

    def pdf(x: float, _zs=zs, _vals=conv) -> float:
        return float(np.interp(x, _zs, _vals, left=0.0, right=0.0))

    return Density(pdf, (z0, z1), mass_tol=1e-6)


def convolve(mu: Dist, nu: Dist) -> Dist:
    """Distribution of the sum of independent draws from mu and nu.

    Supported pairs: Discrete*Discrete (exact atom-pair enumeration with
    1e-12 merging, up to 4e7 pairs; an Empirical counts as a Discrete and
    the sum is a plain Discrete; ``iid_sum_normalized`` has faster paths for
    n-fold sums) and Density*Density (grid convolution on a uniform grid with
    linear interpolation; NonConvergenceError on heavy tails, see Density).
    """
    _require_dist(mu)
    _require_dist(nu)
    if isinstance(mu, Discrete) and isinstance(nu, Discrete):
        return _convolve_discrete(mu, nu)
    if isinstance(mu, Density) and isinstance(nu, Density):
        return _convolve_density(mu, nu)
    raise ValueError(
        f"unsupported convolution pair: {type(mu).__name__} * {type(nu).__name__}"
    )


def shift_scale(mu: Dist, a: float, b: float) -> Dist:
    """Law of (X - a) / b for X ~ mu; b must be nonzero.  Atoms map to a
    Discrete (also for an Empirical mu) and a Density to a Density."""
    _require_dist(mu)
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("shift and scale must be finite")
    if b == 0.0:
        raise ValueError("scale must be nonzero")
    if isinstance(mu, Discrete):
        pts = (mu.points - a) / b
        wts = mu.weights
        if b < 0.0:
            pts = pts[::-1].copy()
            wts = wts[::-1].copy()
        # the weights are mu's; only rounding can break the order of the
        # points (merging neighbours) or overflow them
        if not (np.isfinite(pts[[0, -1]]).all() and np.all(np.diff(pts) > 0.0)):
            raise ValueError("shift_scale merges or overflows atom positions")
        return Discrete.__new__(Discrete)._trust(pts, wts)
    lo, hi = mu.support
    lo_t, hi_t = (lo - a) / b, (hi - a) / b
    if b < 0.0:
        lo_t, hi_t = hi_t, lo_t
    scale = abs(b)
    base = mu.pdf

    def pdf(x: float) -> float:
        return scale * float(base(b * x + a))

    return Density(pdf, (lo_t, hi_t), mass_tol=mu.mass_tol)


def _lattice_span(points: np.ndarray) -> Union[float, None]:
    """Span h of the coarsest lattice points[0] + h*Z holding every atom, or
    None when no lattice has at most 10^6 slots across the atoms.

    h is the float gcd of the gaps (Euclid's algorithm with nearest-integer
    remainders, stopped at 1e-12 times the width of the atoms), refined to
    width / K for the K slots it spans; every atom must then lie within that
    tolerance of its slot.  Incommensurable gaps, such as 1 and sqrt(2), drive
    the remainders down to the tolerance and so give no lattice.
    """
    if points.size < 2:
        return None
    width = float(points[-1] - points[0])
    tol = _SPAN_RTOL * width
    h = 0.0
    for gap in np.diff(points):
        a, b = float(gap), h
        while b > tol:
            a, b = b, abs(math.remainder(a, b))
        h = a
        if h * _MAX_ATOMS < width:
            return None
    h = width / round(width / h)
    k = np.rint((points - points[0]) / h)
    if np.max(np.abs(points - points[0] - h * k)) > tol:
        return None
    return h


def _binary_power(x, n: int, mul):
    """x^n for the associative product mul, by binary powering."""
    acc = None
    e = int(n)
    while e:
        if e & 1:
            acc = x if acc is None else mul(acc, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return acc


def _convolve_slots(a, b):
    """Product of two (first slot, weights, dropped mass, noise floor) terms.

    Small products are convolved directly.  Larger ones go through a real
    FFT, whose values below its noise floor are rounding noise; the sub-floor
    runs at either end are cut off and their sum added to the dropped mass.
    Sub-floor values inside are kept: their noise is unbiased, while zeroing
    them would remove real mass that the later powers repeat.  A factor's
    dropped mass enters the product once per factor, so the total counts
    those repeats, and the floor carried is the largest one met so far.
    """
    (sa, wa, da, fa), (sb, wb, db, fb) = a, b
    if wa.size * wb.size <= _DIRECT_CONV_TERMS:
        return sa + sb, np.convolve(wa, wb), da + db, max(fa, fb)
    size = wa.size + wb.size - 1
    m = 1 << (size - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(wa, m) * np.fft.rfft(wb, m), m)[:size]
    floor = _FFT_FLOOR * _EPS * math.sqrt(float(np.dot(wa, wa) * np.dot(wb, wb)))
    above = np.flatnonzero(out >= floor)
    lo, hi = int(above[0]), int(above[-1]) + 1
    dropped = float(out[:lo].sum() + out[hi:].sum())
    return sa + sb + lo, out[lo:hi], da + db + dropped, max(fa, fb, floor)


def _lattice_power(mu: Discrete, n: int, span: float,
                   max_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Slots k and weights of the n-fold sum of mu, whose atoms lie on
    points[0] + span*Z: the sum has mass w[i] at n*points[0] + span*k[i].

    Weights at or below the largest FFT noise floor met are taken as zero.
    The weights are not renormalized: they sum to 1 up to rounding and the
    dropped mass.  SizeLimitError when the n*K + 1 slots of the sum exceed
    max_atoms, checked before anything is allocated; NonConvergenceError
    when the dropped mass exceeds its budget.
    """
    idx = np.rint((mu.points - mu.points[0]) / span).astype(np.intp)
    slots = n * int(idx[-1]) + 1
    if slots > max_atoms:
        raise SizeLimitError(f"the sum spans {slots} lattice slots (cap {max_atoms})")
    start, wts, dropped, floor = _binary_power(
        (0, np.bincount(idx, weights=mu.weights), 0.0, 0.0), n, _convolve_slots)
    keep = wts > floor
    dropped += float(wts[~keep].sum())
    if dropped > _FFT_DROP_BUDGET:
        raise NonConvergenceError(
            f"FFT noise floor dropped mass {dropped:.3g} (budget {_FFT_DROP_BUDGET:g})")
    keep = np.flatnonzero(keep)
    return start + keep, wts[keep]


def _count_vectors_within(n: int, k: int, cap: int) -> bool:
    """Whether C(n+k-1, k-1), the number of ways to split n draws among k
    atoms, is at most cap.  C(N, m) with m = min(n, k-1) is built up as
    C(N-m+j, j) for j = 1..m; each step at least doubles it, so the loop
    stops after about log2(cap) steps, before any big integer arises."""
    m = min(n, k - 1)
    count = 1
    for j in range(1, m + 1):
        count = count * (n + k - 1 - m + j) // j
        if count > cap:
            return False
    return True


def _pair_sums_distinct(points: np.ndarray) -> bool:
    """Whether the K(K+1)/2 sums x_i + x_j (i <= j) are 1e-12 apart."""
    i, j = np.triu_indices(points.size)
    return bool(np.all(np.diff(np.sort(points[i] + points[j])) > _MERGE_TOL))


def _multinomial_power(mu: Discrete, n: int) -> Discrete:
    """The n-fold sum of mu with one atom per count vector c, |c| = n: the
    atom sum_k c_k x_k with weight n!/prod c_k! * prod p_k^c_k.

    The count vectors are enumerated one atom of mu at a time, each row
    carrying its running point, log-weight and the draws still to place;
    the last atom takes the rest.  So the count matrix is never stored.
    Weights that underflow to 0.0 are dropped, sums within 1e-12 merged and
    the weights rescaled to total mass one.
    """
    x, p = mu.points, mu.weights
    c = np.arange(n + 1)
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
    pt, lw, rest = np.zeros(1), np.full(1, log_fact[n]), np.full(1, n)
    for xk, pk in zip(x[:-1], p[:-1]):
        term = c * math.log(pk) - log_fact
        width = rest + 1
        row = np.repeat(np.arange(rest.size), width)
        ck = np.arange(row.size) - np.repeat(np.cumsum(width) - width, width)
        pt, lw, rest = pt[row] + ck * xk, lw[row] + term[ck], rest[row] - ck
    w = np.exp(lw + (rest * math.log(p[-1]) - log_fact[rest]))
    keep = w > 0.0
    pts, wts = _merge_atoms(pt[keep] + rest[keep] * x[-1], w[keep])
    return Discrete(pts, wts / wts.sum())


def iid_sum_normalized(mu: Discrete, n: int, max_atoms: int = _MAX_ATOMS) -> Discrete:
    """Exact law of (X_1 + ... + X_n) / sqrt(n * sigma^2) for iid X_i ~ mu.

    Requires a Discrete mu with mean zero (|mean| <= 1e-9) and positive
    variance.  One of three exact paths computes the n-fold
    self-convolution, picked from the base's atoms, n and max_atoms.

    A lattice base (atoms at offset + h*k for integers k, h found as a float
    gcd of the gaps) powers its weight vector on the lattice slots: directly
    while products are small, by FFT once they are large.  FFT values below
    the transform's rounding floor (8 eps |a|_2 |b|_2) are noise: the sum
    drops such values from the tails of each product and from its final
    weights.  The mass dropped, counted with its repeats through the
    powering, must stay under a budget of 1e-13, a tenth of the 1e-12
    weight-sum tolerance of a Discrete, or NonConvergenceError is raised; the
    result is rescaled to total mass one.  The points are
    (n*offset + h*k) / sqrt(n * sigma^2).  Lattice sums run up to n*K + 1 <=
    max_atoms slots, K being the base's width in spans, and SizeLimitError is
    raised before any work beyond that.  The coin, the die and integer bases
    of width up to 60 with comparable weights stay within the budget up to
    that cap; wide bases with weights spanning many orders of magnitude can
    exceed it earlier.

    A base on no lattice, whose K(K+1)/2 pairwise sums are 1e-12 apart and
    whose C(n+K-1, K-1) count vectors (ways to split n draws among its K
    atoms) number at most max_atoms, gets one atom per count vector c: the
    point sum_k c_k x_k with the multinomial weight n!/prod c_k! *
    prod p_k^c_k, from lgamma log-weights.  Sums that still coincide are
    merged within 1e-12, weights that underflow to 0.0 dropped and the
    result rescaled to total mass one.  Three incommensurable atoms reach
    n = 1412 this way.  The count is checked before anything is allocated.

    Any other base (coincident pair sums, or past the count-vector cap)
    enumerates atom pairs, merging sums within 1e-12; more than 4e7 pairs in
    one convolution, or more than max_atoms atoms, raises SizeLimitError.
    """
    if not isinstance(mu, Discrete):
        raise TypeError("iid_sum_normalized requires a Discrete distribution")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    m = mean(mu)
    if abs(m) > _MEAN_ZERO_TOL:
        raise ValueError(f"base distribution must have mean zero, got mean {m!r}")
    s2 = variance(mu)
    if s2 <= 0.0:
        raise ValueError("base distribution must have positive variance")
    n = int(n)
    root = math.sqrt(n * s2)
    span = _lattice_span(mu.points)
    if span is None:
        # for n > 1 the K(K+1)/2 pair sums number at most the count vectors
        if (n > 1 and _count_vectors_within(n, mu.points.size, max_atoms)
                and _pair_sums_distinct(mu.points)):
            total = _multinomial_power(mu, n)
        else:
            total = _binary_power(mu, n, lambda a, b: _convolve_discrete(a, b, max_atoms))
        return shift_scale(total, 0.0, root)
    slots, wts = _lattice_power(mu, n, span, max_atoms)
    pts = (n * float(mu.points[0]) + span * slots) / root
    return Discrete.__new__(Discrete)._trust(pts, wts / wts.sum())


def sample(mu: Dist, n: int, seed: int) -> Empirical:
    """n iid draws from mu, produced by applying the quantile transform to
    seeded uniforms; identical inputs give identical output.  ``samples``
    of the result holds the draws in the order they were made."""
    _require_dist(mu)
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"sample size must be a positive integer, got {n!r}")
    rng = np.random.default_rng(int(seed))
    u = rng.random(int(n))
    if isinstance(mu, Discrete):
        return Empirical(mu._draw(u))
    xs, cum = mu._cdf_table
    keep = np.concatenate([[True], np.diff(cum) > 0.0])
    return Empirical(np.interp(u, cum[keep], xs[keep]))


def normal_density(x: float, m: float = 0.0, sigma2: float = 1.0) -> float:
    """Density of the normal law with mean m and variance sigma2 at x."""
    if not (math.isfinite(m) and math.isfinite(sigma2)) or sigma2 <= 0.0:
        raise ValueError(f"normal parameters need finite m and sigma2 > 0, got {(m, sigma2)!r}")
    z = (float(x) - m) ** 2 / (2.0 * sigma2)
    return math.exp(-z) / math.sqrt(2.0 * math.pi * sigma2)


def normal(m: float = 0.0, sigma2: float = 1.0) -> Density:
    """Normal law with mean m and variance sigma2 as a Density."""
    if not (math.isfinite(m) and math.isfinite(sigma2)) or sigma2 <= 0.0:
        raise ValueError(f"normal parameters need finite m and sigma2 > 0, got {(m, sigma2)!r}")

    def pdf(x: float) -> float:
        return normal_density(x, m, sigma2)

    return Density(pdf, (-math.inf, math.inf), mass_tol=1e-7)


@lru_cache(maxsize=1)
def standard_normal() -> Density:
    """The standard normal law (cached single instance)."""
    return normal(0.0, 1.0)


def point_mass(x: float) -> Discrete:
    """The unit mass at x."""
    return Discrete(np.array([float(x)]), np.array([1.0]))


def rademacher() -> Discrete:
    """The fair coin on {-1, +1}."""
    return Discrete(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))


def fair_die() -> Discrete:
    """The fair six-sided die on {1, ..., 6}."""
    return Discrete(np.arange(1.0, 7.0), np.full(6, 1.0 / 6.0))


def save_discrete(mu: Discrete, dest) -> None:
    """Write a Discrete distribution as '# discrete-dist v1' plus one
    'point,weight' line per atom.  dest is a path or a writable text file."""
    if not isinstance(mu, Discrete):
        raise TypeError("only Discrete distributions serialize to this format")
    lines = [DISCRETE_HEADER]
    lines += [f"{p:.17g},{w:.17g}" for p, w in zip(mu.points, mu.weights)]
    text = "\n".join(lines) + "\n"
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        dest.write(text)


def load_discrete(src) -> Discrete:
    """Parse the 'point,weight' format written by save_discrete.

    src is a path or a readable text file.  Malformed headers or rows raise
    ValueError; the parsed atoms must satisfy the Discrete invariants.
    """
    if isinstance(src, (str, os.PathLike)):
        with open(src, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = src.read()
    lines = [ln.strip() for ln in io.StringIO(text)]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != DISCRETE_HEADER:
        raise ValueError(f"missing '{DISCRETE_HEADER}' header")
    pts = []
    wts = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {i}: expected 'point,weight', got {ln!r}")
        try:
            pts.append(float(parts[0]))
            wts.append(float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"line {i}: {exc}") from None
    return Discrete(np.array(pts), np.array(wts))
