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
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Callable, NamedTuple, Union

import numpy as np

from .errors import NonConvergenceError, SizeLimitError
from .numerics import (_MAX_PANELS, _WK, _XK, _batched_rounds, _f_at_nodes,
                       _gk15_antiderivative, _gk15_nodes, _sweep)

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
# the knot table of a Density's CDF cuts each panel into 2^13 // panels equal
# cells, at least one
_KNOTS = 1 << 13
# the inverse CDF stops once |F(x) - u| is at most this, or after this many
# safeguarded Newton steps
_INVERSE_TOL = 1e-14
_INVERSE_STEPS = 64
# the inverse keeps about twenty arrays the size of its input alive; sample
# feeds it the uniforms in runs of this many to bound them
_INVERSE_RUN = 1 << 15
# lattice detection: gaps are commensurable to this fraction of the width
_SPAN_RTOL = 1e-12
# lattice powering convolves directly while a product takes at most this many
# multiply-adds (about 1 ms), by FFT beyond; direct is exact to rounding in
# every slot, so it also keeps FFT noise out of the early powers, whose errors
# the powering repeats
_DIRECT_CONV_TERMS = 1 << 22
# direct products of at least this many slots cut their end runs below
# eps^2 of their peak; below it the cut costs more than it saves
_DIRECT_CUT_SLOTS = 1 << 10
# FFT values below this many eps * |a|_2 * |b|_2 are noise: the largest error
# measured on powers of the coin, the die and skewed or sparse lattices, up
# to 2^20 points, was 2.4 eps * |a|_2 * |b|_2
_FFT_FLOOR = 8.0
# mass the FFT floor may remove from one lattice sum, counting its repeats
_FFT_DROP_BUDGET = 1e-13
_EPS = float(np.finfo(float).eps)
# ladders of squares of lattice bases, keyed by the bytes of the slot-weight
# vector, least recently used first: (ladder, slots held) pairs, at most
# _MAX_ATOMS slots in all, changed only under the lock
_LADDERS: dict = {}
_ladder_slots = 0
_LADDER_LOCK = threading.Lock()
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

    Construction builds one partition of the pdf, an adaptive sweep at
    tolerance 1e-10 that finds mass far from the origin but not a peak
    narrower than the node spacing around it, such as N(1e4, 1), and raises
    NonConvergenceError when that sweep does not converge.  The density must
    be at least -1e-9 at every node of the partition (ValueError naming the
    first node below) and its mass there must be one within ``mass_tol``.
    On each panel the polynomial through the pdf at the panel's 15
    Gauss-Kronrod nodes integrates to the CDF, which starts from the mass up
    to the panel's left edge; ``cdf``, ``quantile``, ``sample`` and
    ``levy_metric`` all read that one CDF, accurate to 1e-10 over the whole
    support, heavy tails included (within 5e-13 on the normal, Laplace,
    logistic and Student t3 laws).  The moments, ``integral_against`` and
    ``charfun`` are one integral of a weight times the pdf (_integral): it
    refines the partition's panels, reweighting the pdf at their nodes, and
    reads it at any others once, through one node store.  Moments and
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
        edges, mass, nodes = self._partition
        bad = np.flatnonzero(nodes < -1e-9)
        if bad.size:
            x = float(_gk15_nodes(edges[:-1], edges[1:]).ravel()[bad[0]])
            raise ValueError(f"density is negative near x={x:.6g}")
        if abs(mass[-1] - 1.0) > self.mass_tol:
            raise ValueError(f"density mass {float(mass[-1])!r} deviates from 1 beyond mass_tol")

    @cached_property
    def _partition(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Panel edges of one sweep of the pdf at the cdf tolerance, started
        from the pdf's _kinks when it has them, the mass up to each edge and
        the pdf at the GK15 nodes of each panel, one row per panel
        (read-only: cached and shared)."""
        _, panels = _sweep(partial(_f_at_nodes, self.pdf), *self.support, _CDF_TOL,
                           getattr(self.pdf, "_kinks", None), min_mass=_SWEPT_MASS)
        a, b, v, nodes = (np.concatenate(column) for column in zip(*panels))
        order = np.argsort(a)
        edges = np.concatenate([a[order[:1]], b[order]])
        mass = np.concatenate([[0.0], np.cumsum(v[order])])
        nodes = nodes[order]
        for column in (edges, mass, nodes):
            column.flags.writeable = False
        self._node_store.update(zip(zip(a[order].tolist(), b[order].tolist()), nodes))
        return edges, mass, nodes

    @cached_property
    def _node_store(self) -> dict:
        """pdf values at the GK15 nodes of panels, keyed by (left, right):
        the partition's panels, then those that _integral reads beyond them,
        kept only from calls that converge, up to _MAX_PANELS panels."""
        return {}

    def _integral(self, weight: Callable[[np.ndarray], np.ndarray], tol: float,
                  bound: float) -> complex:
        """Integral of weight * pdf, weight vectorised over arrays of nodes,
        real or complex, and bound on its modulus (math.inf: none).

        The partition's panels are refined in batched rounds, and each
        infinite end beyond them is swept once at tol/4, unless bound times
        the partition's bound on the mass beyond its panels fits in tol/2;
        the panels get what the ends leave of tol.  Every pdf value comes
        from the node store, which keeps the new ones once the call
        converges.  NonConvergenceError when the rounds or a sweep run out
        of budget; without a bound, ValueError naming the first node where
        weight * pdf is not finite (a weight of modulus at most 1 times a
        finite pdf is finite)."""
        edges = self._partition[0]
        store = self._node_store
        fresh = {}

        def values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            keys = list(zip(a.tolist(), b.tolist()))
            rows = [store.get(k) for k in keys]
            missing = [i for i, row in enumerate(rows) if row is None]
            if missing:
                for i, row in zip(missing, _f_at_nodes(self.pdf, a[missing], b[missing])):
                    rows[i] = fresh[keys[i]] = row
            x, px = _gk15_nodes(a, b), np.array(rows)
            if bound < math.inf:
                return weight(x) * px
            with np.errstate(over="ignore", invalid="ignore"):
                fx = weight(x) * px
            bad = ~np.isfinite(fx)
            if bad.any():
                x = float(x[bad][0])
                raise ValueError(f"integrand returned a non-finite value near x={x:.6g}")
            return fx

        lo, hi = self.support
        ends = [(x, y) for x, y in ((lo, float(edges[0])), (float(edges[-1]), hi))
                if math.isinf(x) or math.isinf(y)]
        tail = bound * _PARTITION_TAIL if ends else 0.0
        swept = tail > 0.5 * tol
        value = _batched_rounds(values, edges, 0.5 * tol if swept else tol - tail)[0]
        if swept:
            for x, y in ends:
                value += _sweep(values, x, y, 0.25 * tol)[0]
        store.update(itertools.islice(fresh.items(), max(_MAX_PANELS - len(store), 0)))
        return value

    @cached_property
    def _moments(self) -> tuple[float, float]:
        m = self._integral(lambda x: x, _MOMENT_TOL, math.inf)
        v = self._integral(lambda x: (x - m) ** 2, _MOMENT_TOL, math.inf)
        return m, v

    @cached_property
    def _panel_cdf(self) -> "_PanelCdf":
        """The CDF on the partition's panels, from the pdf values its sweep
        read (read-only: cached and shared)."""
        edges, mass, nodes = self._partition
        a, b = edges[:-1], edges[1:]
        half = 0.5 * (b - a)
        coef = np.ascontiguousarray(((nodes @ _gk15_antiderivative()) * half[:, None]).T)
        # the constant term that Horner's rule cancels exactly at s = -1, so
        # that F starts from the mass at each left edge bit for bit
        coef[0] = 0.0
        coef[0] = -_horner(coef, -1.0)
        center = 0.5 * (a + b)
        for column in (center, half, coef):
            column.flags.writeable = False
        return _PanelCdf(edges, mass, center, half, coef)

    @cached_property
    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Knots of the CDF with its values and the pdf polynomial's there:
        each panel cut into max(1, 2^13 // panels) equal cells, F evaluated
        at every cell edge and made nondecreasing where the polynomial or
        its rounding dips (read-only: cached and shared).  The inverse CDF brackets and seeds
        from it, and levy_metric interpolates it."""
        pc = self._panel_cdf
        cells = max(1, _KNOTS // pc.center.size)
        frac = np.arange(cells) / cells
        s = np.append(2.0 * frac - 1.0, 1.0)  # each cell's left end, then the panel's right end
        coef = pc.coef[:, :, None]
        values = _horner(coef, s[:-1])
        slopes = _horner(coef[1:] * np.arange(1, coef.shape[0])[:, None, None], s) / pc.half[:, None]
        lefts = pc.edges[:-1, None] + (2.0 * pc.half)[:, None] * frac
        xs = np.append(lefts.ravel(), pc.edges[-1])
        cum = np.append((pc.mass[:-1, None] + values).ravel(), pc.mass[-1])
        cum = np.clip(np.maximum.accumulate(cum), 0.0, 1.0)
        pdf = np.append(slopes[:, :-1].ravel(), slopes[-1, -1])
        for column in (xs, cum, pdf):
            column.flags.writeable = False
        return xs, cum, pdf

    @cached_property
    def _root_table(self) -> np.ndarray:
        """x + F(x) at each knot of _cdf_table, increasing: levy_metric
        inverts y -> y + F(y) on it to guess where its search starts (built
        on its first call; read-only, cached and shared)."""
        xs, cum, _ = self._cdf_table
        sums = xs + cum
        sums.flags.writeable = False
        return sums


class _PanelCdf(NamedTuple):
    """A Density's CDF on the panels between its partition's edges.  On
    panel i, with s = (x - center[i]) / half[i] in [-1, 1], F(x) = mass[i] +
    sum_m coef[m, i] s^m, the integral of the degree-14 polynomial through
    the pdf at the panel's Kronrod nodes; that polynomial, F's derivative,
    stands for the pdf.  F is the mass at each left edge bit for bit, and
    integrated over the whole panel it gives the Kronrod value, the step in
    mass, so F meets the mass at each right edge too, to about 1e-13 times
    the largest pdf value on the panel."""

    edges: np.ndarray
    mass: np.ndarray
    center: np.ndarray
    half: np.ndarray
    coef: np.ndarray


def _horner(c, s):
    """sum_m c[m] s^m by Horner's rule: for a list of floats and a float, or
    for rows of an array that broadcast against an array s.  cdf reads it in
    the order of operations that _panel_values uses, so the two agree bit
    for bit."""
    y = c[-1] * s
    for a in c[-2:0:-1]:
        y += a
        y *= s
    return y + c[0]


def _panel_values(pc: _PanelCdf, i: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F and the pdf polynomial at the points x, x[k] in panel i[k], by one
    Horner pass that reads each coefficient row once (so no panels-by-points
    block is gathered)."""
    s = (x - pc.center.take(i)) / pc.half.take(i)
    n = pc.coef.shape[0] - 1
    c = pc.coef[n].take(i)
    y = c * s
    dy = n * c
    for m in range(n - 1, 0, -1):
        c = pc.coef[m].take(i)
        y += c
        y *= s
        dy *= s
        dy += m * c
    y += pc.coef[0].take(i)
    return pc.mass.take(i) + y, dy / pc.half.take(i)


def _density_cdf(d: Density, x: np.ndarray) -> np.ndarray:
    """cdf(d, x) at every point of the array x, bit for bit."""
    pc = d._panel_cdf
    lo, hi = float(pc.edges[0]), float(pc.edges[-1])
    xc = np.clip(x, lo, hi)
    i = np.minimum(np.searchsorted(pc.edges, xc, side="right") - 1, pc.center.size - 1)
    value = np.clip(_panel_values(pc, i, xc)[0], 0.0, 1.0)
    value[x <= lo] = 0.0
    value[x >= hi] = min(float(pc.mass[-1]), 1.0)
    return value


def _inverse_seed(table: tuple, j: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Where the cubic Hermite interpolant of the inverse CDF across knot
    cell j - 1 takes each u: built from F and the pdf at the cell's two
    knots, its end slopes capped at 3 times the cell's mean slope, which
    keeps it monotone (Fritsch and Carlson 1980); within about 1e-12 of the
    root on smooth laws."""
    xs, cum, pdf = table
    lo, f_lo = xs.take(j - 1), cum.take(j - 1)
    width, rise = xs.take(j) - lo, cum.take(j) - f_lo
    tau = (u - f_lo) / rise
    m_lo = rise / np.maximum(width * pdf.take(j - 1), rise / 3.0)
    m_hi = rise / np.maximum(width * pdf.take(j), rise / 3.0)
    return lo + width * (tau * (tau * (3.0 - 2.0 * tau) + (1.0 - tau) * (m_lo * (1.0 - tau) - m_hi * tau)))


def _inverse_cdf(d: Density, u: np.ndarray) -> np.ndarray:
    """inf{x : F(x) >= u} for each u in [0, 1] of the array, F the
    Density's CDF.

    The u are taken in sorted order.  The knot table brackets each in the
    first cell whose right knot reaches it, which puts a u at the level of a
    flat stretch at that stretch's left end, and _inverse_seed starts x
    there.  Safeguarded Newton steps on the panel polynomial follow: a step
    that leaves the bracket, or one from a point where the pdf polynomial
    is not positive, is replaced by the bracket's midpoint, and a step that
    lands on a bracket end is kept.  Each x stops once |F(x) - u| <= 1e-14,
    after 64 steps at most.  A u at or below the first knot's value maps to
    the first knot, one above the last knot's value to the last knot."""
    table = d._cdf_table
    xs, cum, _ = table
    pc = d._panel_cdf
    order = np.argsort(u)
    u = u[order]
    j = np.searchsorted(cum, u, side="left")
    first, last = np.searchsorted(j, [1, cum.size])
    x = np.empty(u.size)
    x[:first], x[last:] = xs[0], xs[-1]
    j, u = j[first:last], u[first:last]
    lo, hi = xs.take(j - 1), xs.take(j)
    t = _inverse_seed(table, j, u)
    i = (j - 1) // max(1, _KNOTS // pc.center.size)
    pos = np.arange(first, last)
    for _ in range(_INVERSE_STEPS):
        F, f = _panel_values(pc, i, t)
        r = F - u
        done = np.abs(r) <= _INVERSE_TOL
        x[pos[done]] = t[done]
        if done.all():
            break
        keep = np.flatnonzero(~done)
        pos, t, lo, hi, u, i, r, f = (v.take(keep) for v in (pos, t, lo, hi, u, i, r, f))
        lo = np.where(r < 0.0, t, lo)
        hi = np.where(r > 0.0, t, hi)
        step = t - np.divide(r, f, out=np.full_like(r, np.inf), where=f > 0.0)
        t = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
    else:
        x[pos] = t
    out = np.empty_like(x)
    out[order] = x
    return out


class Empirical(Discrete):
    """Uniform distribution over a finite sample, as a Discrete: the points
    are the distinct sample values and the weights their counts over N.
    ``samples`` keeps the draws in the order given; an Empirical built from
    its counts (``_from_counts``) stores them sorted, and builds them only
    when read."""

    def __init__(self, samples):
        xs = np.asarray(samples, dtype=float).reshape(-1)
        if xs.size == 0:
            raise ValueError("an Empirical distribution needs at least one sample")
        if not np.isfinite(xs).all():
            raise ValueError("samples must be finite")
        # np.unique gives finite, strictly increasing points and counts >= 1
        self._trust_counts(*np.unique(xs, return_counts=True))
        object.__setattr__(self, "samples", xs)

    @classmethod
    def _from_counts(cls, points: np.ndarray, counts: np.ndarray) -> "Empirical":
        """The law of a sample holding counts[i] copies of points[i], without
        the checks of __init__: only for finite, strictly increasing float
        points and integer counts >= 0 with a positive sum.  Atoms of count 0
        are left out, so the Empirical holds O(K) memory until ``samples``,
        the sorted sample, is read."""
        keep = counts > 0
        return cls.__new__(cls)._trust_counts(points[keep], counts[keep])

    def _trust_counts(self, points: np.ndarray, counts: np.ndarray) -> "Empirical":
        object.__setattr__(self, "_counts", counts)
        return self._trust(points, counts / counts.sum())

    @cached_property
    def samples(self) -> np.ndarray:
        # only read for an Empirical built by _from_counts: __init__ stores the draws
        return np.repeat(self.points, self._counts)

    @cached_property
    def _cumweights(self) -> np.ndarray:
        # exact steps k/N; a running sum of the weights drifts in the last bits
        return np.cumsum(self._counts) / self._counts.sum()


Dist = Union[Discrete, Density]


def _require_dist(mu) -> None:
    if not isinstance(mu, (Discrete, Density)):
        raise TypeError(
            f"expected a Discrete (an Empirical is one) or a Density, got {type(mu).__name__}"
        )


def _integer(value, message: str) -> int:
    """value as an int, an integral float included; ValueError otherwise."""
    if isinstance(value, (float, np.floating)) and value.is_integer():
        value = int(value)
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{message}, got {value!r}")
    return int(value)


def cdf(mu: Dist, x: float) -> float:
    """F(x) = mu((-inf, x]); right-continuous, includes an atom at x.  For a
    Density: the panel polynomial read by Horner's rule (see Density),
    accurate to 1e-10 over the whole support, heavy tails included; 0 up to
    the partition's first edge and its total mass from the last."""
    _require_dist(mu)
    x = float(x)
    if math.isnan(x):
        raise ValueError("cdf argument must not be NaN")
    if isinstance(mu, Discrete):
        idx = int(np.searchsorted(mu.points, x, side="right"))
        return float(mu._cumweights[idx - 1]) if idx > 0 else 0.0
    pc = mu._panel_cdf
    if x <= pc.edges[0]:
        return 0.0
    if x >= pc.edges[-1]:
        return min(float(pc.mass[-1]), 1.0)
    i = int(np.searchsorted(pc.edges, x, side="right")) - 1
    s = (x - float(pc.center[i])) / float(pc.half[i])
    value = float(pc.mass[i]) + _horner(pc.coef[:, i].tolist(), s)
    return min(max(value, 0.0), 1.0)


def quantile(mu: Dist, p: float) -> float:
    """Generalized inverse CDF: inf{x : cdf(mu, x) >= p} for p in (0, 1).  For
    a Density: safeguarded Newton steps on its CDF from a knot-table seed,
    the inverse that sample uses, so cdf at the result is within 1e-14 of p
    (the partition's last edge for a p beyond its mass)."""
    _require_dist(mu)
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {p!r}")
    if isinstance(mu, Discrete):
        idx = int(np.searchsorted(mu._cumweights, p, side="left"))
        return float(mu.points[min(idx, mu.points.size - 1)])
    return float(_inverse_cdf(mu, np.array([p]))[0])


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
    """Mass of the single point {x} under mu (zero for a Density); ValueError
    for a NaN x, as cdf raises."""
    _require_dist(mu)
    x = float(x)
    if math.isnan(x):
        raise ValueError("atom_mass argument must not be NaN")
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


def _pdf_polynomials(slopes, center, half, i: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Column i[k] of slopes, a pdf polynomial in s = (x - center) / half, at
    row k of x: one Horner pass over the gathered columns of a few panels."""
    s = (x - center.take(i)[:, None]) / half.take(i)[:, None]
    return _horner(slopes[:, i, None], s)


def _convolve_density(a: Density, b: Density) -> Density:
    variance(a), variance(b)  # heavy tails raise NonConvergenceError before any work
    pa, pb = a._panel_cdf, b._panel_cdf
    ea, eb, na = pa.edges, pb.edges, pa.center.size
    a0, a1, b0, b1 = float(ea[0]), float(ea[-1]), float(eb[0]), float(eb[-1])
    deg = np.arange(1, pa.coef.shape[0])[:, None]
    slopes = np.concatenate([pa.coef[1:] * deg / pa.half, pb.coef[1:] * deg / pb.half], axis=1)
    center, half = np.concatenate([pa.center, pb.center]), np.concatenate([pa.half, pb.half])
    # each factor's mass may miss one by its mass_tol, their product by twice that
    scale = 1.0 / (float(pa.mass[-1]) * float(pb.mass[-1]))

    def pdf(x: float) -> float:
        lo, hi = max(a0, x - b1), min(a1, x - b0)
        if not lo < hi:
            return 0.0
        xb = x - eb
        cuts = np.sort(np.concatenate(([lo, hi], ea[(lo < ea) & (ea < hi)],
                                       xb[(lo < xb) & (xb < hi)])))
        mid, width = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * (cuts[1:] - cuts[:-1])
        # panel k of a factor holds the points with k of its inner edges at or left of them
        i = np.concatenate((np.searchsorted(ea[1:-1], mid, "right"),
                            np.searchsorted(eb[1:-1], x - mid, "right") + na))
        y = mid[:, None] + width[:, None] * _XK
        f = _pdf_polynomials(slopes, center, half, i, np.concatenate((y, x - y)))
        return scale * float((f[:mid.size] * f[mid.size:]) @ _WK @ width)

    ends = [[e for e in (*d.support, *getattr(d.pdf, "_kinks", ())) if math.isfinite(e)]
            for d in (a, b)]
    kinks = np.sort(np.add.outer(*ends), axis=None)
    pdf._kinks = kinks[np.diff(kinks, prepend=-np.inf) > 0.0]
    return Density(pdf, (a.support[0] + b.support[0], a.support[1] + b.support[1]))


def convolve(mu: Dist, nu: Dist) -> Dist:
    """Distribution of the sum of independent draws from mu and nu.

    Supported pairs: Discrete*Discrete (exact atom-pair enumeration with
    1e-12 merging, up to 4e7 pairs; an Empirical counts as a Discrete and
    the sum is a plain Discrete; ``iid_sum_normalized`` has faster paths for
    n-fold sums) and Density*Density, whose pdf at x is one GK15 sum of the
    factors' panel polynomials over the pieces of the first's partition cut
    at x minus each edge of the second's, over the product of the two
    partitions' masses; its partition starts from the sums of the factors'
    finite support ends and kinks.  Both factors' variances are read first,
    so a heavy tail raises NonConvergenceError (see Density).
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


def _binary_power(ladder: tuple, n: int, mul) -> tuple:
    """x^n for the associative product mul, by binary powering, and the
    ladder of squares it read: ladder[k] = x^(2^k), from ladder[0] = x.

    The squares the given ladder lacks are made as mul(y, y) of the last
    one and appended, up to the highest set bit of n; the accumulator then
    multiplies in the squares of the set bits, lowest first.  Every product
    is the one a powering from (x,) would make, so x^n is the same bit for
    bit whatever the ladder held, and a caller may keep the returned ladder
    for later powers of x.
    """
    acc = None
    e = int(n)
    k = 0
    while e:
        if k == len(ladder):
            ladder += (mul(ladder[-1], ladder[-1]),)
        if e & 1:
            acc = ladder[k] if acc is None else mul(acc, ladder[k])
        e >>= 1
        k += 1
    return acc, ladder


def _convolve_slots(a, b):
    """Product of two (first slot, weights, dropped mass, noise floor) terms.

    Small products are convolved directly.  Larger ones go through a real
    FFT, whose values below its noise floor are rounding noise; the sub-floor
    runs at either end are cut off and their sum added to the dropped mass.
    Sub-floor values inside are kept: their noise is unbiased, while zeroing
    them would remove real mass that the later powers repeat.  A factor's
    dropped mass enters the product once per factor, so the total counts
    those repeats, and the floor carried is the largest one met so far.

    A direct product of 1024 slots or more likewise cuts its end runs below
    eps^2 (2^-104) of its largest weight, so later products carry only the
    live support; its values are exact, not noise, so the floor carried does
    not rise.  The cut is safe: a product has at most 10^6 slots, so it
    drops at most 10^6 * eps^2 * peak, about 5e-26, and a sum repeats a
    product at most 10^6 times, which bounds the drop at about 5e-20, six
    orders of magnitude under the 1e-13 budget; no kept weight moves by more
    than that.  Smaller products skip the cut, which would cost more than it
    saves.
    """
    (sa, wa, da, fa), (sb, wb, db, fb) = a, b
    floor = max(fa, fb)
    if wa.size * wb.size <= _DIRECT_CONV_TERMS:
        out = np.convolve(wa, wb)
        if out.size < _DIRECT_CUT_SLOTS:
            return sa + sb, out, da + db, floor
        cut = _EPS * _EPS * float(out.max())
    else:
        size = wa.size + wb.size - 1
        m = 1 << (size - 1).bit_length()
        out = np.fft.irfft(np.fft.rfft(wa, m) * np.fft.rfft(wb, m), m)[:size]
        cut = _FFT_FLOOR * _EPS * math.sqrt(float(np.dot(wa, wa) * np.dot(wb, wb)))
        floor = max(floor, cut)
    above = np.flatnonzero(out >= cut)
    lo, hi = int(above[0]), int(above[-1]) + 1
    dropped = float(out[:lo].sum() + out[hi:].sum())
    return sa + sb + lo, out[lo:hi], da + db + dropped, floor


def _keep_ladder(key: bytes, ladder: tuple) -> None:
    """Keep ladder in _LADDERS as key's most recently used entry, its
    weights read-only, then drop the least recently used entries until they
    hold at most _MAX_ATOMS slots in all; a ladder over that on its own is
    not kept.  A view's slots are those of the whole buffer it keeps alive.
    A longer ladder already kept, which another thread built, stays."""
    global _ladder_slots
    for _, w, _, _ in ladder:
        w.flags.writeable = False
    size = sum((w if w.base is None else w.base).size for _, w, _, _ in ladder)
    if size > _MAX_ATOMS:
        return
    with _LADDER_LOCK:
        old = _LADDERS.pop(key, None)
        if old is not None:
            _ladder_slots -= old[1]
            if len(old[0]) > len(ladder):
                ladder, size = old
        _LADDERS[key] = ladder, size
        _ladder_slots += size
        while _ladder_slots > _MAX_ATOMS:
            _ladder_slots -= _LADDERS.pop(next(iter(_LADDERS)))[1]


def _lattice_power(mu: Discrete, n: int, span: float,
                   max_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """Slots k and weights of the n-fold sum of mu, whose atoms lie on
    points[0] + span*Z: the sum has mass w[i] at n*points[0] + span*k[i].

    Weights at or below the largest FFT noise floor met are taken as zero,
    and so are the end runs that direct products of 1024 slots or more cut
    below eps^2 of their peak, at most about 5e-20 of mass in all.
    The weights are not renormalized: they sum to 1 up to rounding and the
    dropped mass.  SizeLimitError when the n*K + 1 slots of the sum exceed
    max_atoms, checked before anything is allocated; NonConvergenceError
    when the dropped mass exceeds its budget.

    The squares x, x^2, x^4, ... of the slot-weight vector x do not depend
    on n, so the ladder _binary_power builds is cached per slot-weight
    vector (not per Discrete: a re-centred copy of a base finds it), up to
    10^6 slots over all bases (_keep_ladder), and later sums of the same
    weights multiply only the squares of their set bits.  The result is
    bit-identical to a powering from a cold cache.
    """
    idx = np.rint((mu.points - mu.points[0]) / span).astype(np.intp)
    slots = n * int(idx[-1]) + 1
    if slots > max_atoms:
        raise SizeLimitError(f"the sum spans {slots} lattice slots (cap {max_atoms})")
    base = np.bincount(idx, weights=mu.weights)
    key = base.tobytes()
    kept = _LADDERS.get(key)
    ladder = ((0, base, 0.0, 0.0),) if kept is None else kept[0]
    (start, wts, dropped, floor), ladder = _binary_power(ladder, n, _convolve_slots)
    _keep_ladder(key, ladder)
    keep = wts > floor
    dropped += float(wts[~keep].sum())
    if dropped > _FFT_DROP_BUDGET:
        raise NonConvergenceError(
            f"FFT noise floor dropped mass {dropped:.3g} (budget {_FFT_DROP_BUDGET:g})")
    keep = np.flatnonzero(keep)
    return start + keep, wts[keep]


def _lattice_sum(mu: Discrete, n: int, span: float, root: float, max_atoms: int) -> Discrete:
    """The n-fold sum of mu, whose atoms lie on points[0] + span*Z, divided
    by root: atoms (n*points[0] + span*k) / root from _lattice_power, with
    its weights rescaled to total mass one.  Its errors are _lattice_power's
    (SizeLimitError, NonConvergenceError); mu need not be centred."""
    slots, wts = _lattice_power(mu, n, span, max_atoms)
    pts = (n * float(mu.points[0]) + span * slots) / root
    return Discrete.__new__(Discrete)._trust(pts, wts / wts.sum())


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
    variance, and n a positive integer, an integral float included.  One of
    three exact paths computes the n-fold self-convolution, picked from the
    base's atoms, n and max_atoms.

    A lattice base (atoms at offset + h*k for integers k, h found as a float
    gcd of the gaps) powers its weight vector on the lattice slots: directly
    while products are small, by FFT once they are large.  Direct products
    of 1024 slots or more cut their end runs below eps^2 of their peak,
    which bounds that drop at about 5e-20 per sum and keeps more products
    small enough to stay direct.  FFT values below the transform's rounding
    floor (8 eps |a|_2 |b|_2) are noise: the sum drops such values from the
    tails of each product and from its final weights.  The mass dropped,
    counted with its repeats through the powering, must stay under a budget
    of 1e-13, a tenth of the 1e-12 weight-sum tolerance of a Discrete, or
    NonConvergenceError is raised; the result is rescaled to total mass one.
    The points are (n*offset + h*k) / sqrt(n * sigma^2).  Lattice sums run
    up to n*K + 1 <= max_atoms slots, K being the base's width in spans, and
    SizeLimitError is raised before any work beyond that.  The coin, the die
    and integer bases of width up to 60 with comparable weights stay within
    the budget up to that cap; wide bases with weights spanning many orders
    of magnitude can exceed it earlier.  The squares x^(2^k) of the weight
    vector are cached per slot-weight vector, up to 10^6 slots over all
    bases, so later n of the same weights reuse them; each result is
    bit-identical to a run from a cold cache.

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
    if _integer(n, "n must be a positive integer") < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    m = mean(mu)
    if abs(m) > _MEAN_ZERO_TOL:
        raise ValueError(f"base distribution must have mean zero, got mean {m!r}")
    s2 = variance(mu)
    if s2 <= 0.0:
        raise ValueError("base distribution must have positive variance")
    root = math.sqrt(n * s2)
    span = _lattice_span(mu.points)
    if span is None:
        # for n > 1 the K(K+1)/2 pair sums number at most the count vectors
        if (n > 1 and _count_vectors_within(n, mu.points.size, max_atoms)
                and _pair_sums_distinct(mu.points)):
            total = _multinomial_power(mu, n)
        else:
            total, _ = _binary_power((mu,), n, lambda a, b: _convolve_discrete(a, b, max_atoms))
        return shift_scale(total, 0.0, root)
    return _lattice_sum(mu, n, span, root, max_atoms)


def sample(mu: Dist, n: int, seed: int) -> Empirical:
    """n iid draws from mu, produced by applying the quantile transform to
    seeded uniforms; identical inputs give identical output.  ``samples``
    of the result holds the draws in the order they were made.  n and the
    seed are integers, integral floats included (ValueError otherwise).  A
    Density inverts its CDF as quantile does, to |F(x) - u| <= 1e-14."""
    _require_dist(mu)
    if _integer(n, "sample size must be a positive integer") < 1:
        raise ValueError(f"sample size must be a positive integer, got {n!r}")
    rng = np.random.default_rng(_integer(seed, "seed must be an integer"))
    u = rng.random(int(n))
    if isinstance(mu, Discrete):
        return Empirical(mu._draw(u))
    runs = range(0, u.size, _INVERSE_RUN)
    return Empirical(np.concatenate([_inverse_cdf(mu, u[k:k + _INVERSE_RUN]) for k in runs]))


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
