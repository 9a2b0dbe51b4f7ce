"""Characteristic functions and the Levy inversion formula.

phi(t) = integral of e^{itx} mu(dx): an exact weighted sum over the atoms
of a Discrete (an Empirical included).  For a Density it is a GK15 sum over
the panels of the Density's cached partition: the pdf values at their nodes
are evaluated once and kept, each t reweights them by e^{itx}, and only the
panels whose Kronrod-Gauss gap is too large for that t are bisected.
Inversion recovers mu((a, b]) for non-atom endpoints a < b by integrating
the real part of the truncated Levy kernel over t > 0 only: the kernel and
phi are both Hermitian, K(-t) = conj K(t) and phi(-t) = conj phi(t), so that
real part is even in t and the half line carries half of the integral (the
Gil-Pelaez form).  Each round of panels is one array pass, the kernel and
the damping evaluated on all its nodes at once and phi called once per node.
"""

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .distributions import (
    _PARTITION_TAIL, Density, Discrete, Dist, _require_dist, mean, variance,
)
from .errors import NonConvergenceError
from .numerics import DEFAULT_TOL, _batched_rounds, _check_tol, _gk15_nodes, integrate
from .weak_convergence import integral_against

_T_START = 64.0
_T_CAP = 1e5


def charfun(mu: Dist, t: float, tol: float = DEFAULT_TOL) -> complex:
    """Characteristic function of mu evaluated at t.

    t = 0 returns exactly 1+0j (the total mass, which every representation
    guarantees by construction).  For a Density the summed |kronrod - gauss|
    estimates over the partition's panels, bisected in batched rounds, plus
    the partition's bound on the mass beyond its panels stay within tol (a
    tol under twice that bound integrates the infinite ends beyond the
    panels instead).  The panels depend only on t and tol, so the value does
    not depend on earlier calls; the pdf values at their nodes are kept on
    the Density (up to 60,000 panels, from calls that converge) and shared
    by later calls.
    NonConvergenceError when 60,000 panels do not meet tol.
    """
    _require_dist(mu)
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if t == 0.0:
        return complex(1.0, 0.0)
    if isinstance(mu, Discrete):
        re = float(np.dot(mu.weights, np.cos(t * mu.points)))
        im = float(np.dot(mu.weights, np.sin(t * mu.points)))
        return complex(re, im)
    return _density_charfun(mu, t, tol)


def _density_charfun(mu: Density, t: float, tol: float) -> complex:
    """phi(t) of a Density over the panels of its partition, refined in
    batched rounds; the partition's tail bound counts against tol, and when
    it exceeds tol/2 the infinite ends beyond the panels are swept instead."""
    _check_tol(tol)
    edges = mu._partition[0]
    lo, hi = mu.support
    ends = [(x, y) for x, y in ((lo, float(edges[0])), (float(edges[-1]), hi))
            if math.isinf(x) or math.isinf(y)]
    tail = _PARTITION_TAIL if ends else 0.0
    swept = tail > 0.5 * tol
    if swept:
        tail = 0.5 * tol
    fresh = {}
    value = complex(_batched_rounds(lambda a, b: mu._node_values(a, b, fresh),
                                    lambda x: np.exp(1j * t * x), edges, tol - tail)[0])
    mu._keep_nodes(fresh)
    if swept:
        pdf = mu.pdf
        for x, y in ends:
            value += complex(integrate(lambda u: math.cos(t * u) * pdf(u), x, y, tol / 8.0),
                             integrate(lambda u: math.sin(t * u) * pdf(u), x, y, tol / 8.0))
    return value


def char_fn(mu: Dist, tol: float = DEFAULT_TOL) -> Callable[[float], complex]:
    """The characteristic function of mu as a callable t -> complex."""
    _require_dist(mu)
    return lambda t: charfun(mu, t, tol)


def normal_charfun(t: float) -> complex:
    """Closed form e^{-t^2/2} of the standard normal characteristic function."""
    return complex(math.exp(-0.5 * float(t) * float(t)), 0.0)


def charfun_of_sum(mus: Iterable[Dist], t: float, tol: float = DEFAULT_TOL) -> complex:
    """Characteristic function of a sum of independent draws: the product
    of the factors' characteristic functions."""
    factors = list(mus)
    if not factors:
        raise ValueError("need at least one distribution")
    out = complex(1.0, 0.0)
    for mu in factors:
        out *= charfun(mu, t, tol)
    return out


def second_order_check(mu: Dist, t: float, tol: float = DEFAULT_TOL) -> float:
    """|phi(t) - (1 - sigma^2 t^2 / 2)| for a mean-zero mu.

    For square-integrable mean-zero laws this deviation is bounded by
    E[min(|tX|^3/6, |tX|^2)]; see second_order_bound.
    """
    m = mean(mu)
    if abs(m) > 1e-9:
        raise ValueError(f"second-order expansion requires mean zero, got mean {m!r}")
    s2 = variance(mu)
    t = float(t)
    return abs(charfun(mu, t, tol) - (1.0 - 0.5 * s2 * t * t))


def second_order_bound(mu: Dist, t: float, tol: float = DEFAULT_TOL) -> float:
    """E[min(|tX|^3/6, |tX|^2)], the dominating bound for second_order_check."""
    t = float(t)

    def g(x: float) -> float:
        a = abs(t * x)
        return min(a**3 / 6.0, a**2)

    return integral_against(g, mu, tol)


def _invert_at(
    phi: Callable[[float], complex], a: float, b: float, lo: float, hi: float, tol: float,
    damping: float,
) -> float:
    """(1/2pi) times the integral over (lo, hi) of the real part of the
    inversion integrand.  That real part is even in t, so levy_invert reads
    it on t > 0 only and doubles the result.

    Each round of panels is one array pass: phi is called once per node, as
    a scalar, and the kernel (e^{-ita} - e^{-itb}) / (it), patched at t = 0
    with its limit b - a, and the damping are evaluated on all the nodes.
    """
    _check_tol(tol)

    def values(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
        t = _gk15_nodes(pa, pb)
        ts = t.ravel().tolist()
        f = np.fromiter([phi(x) for x in ts], complex, len(ts)).reshape(t.shape)
        zero = np.abs(t) < 1e-12
        # e^{-itx} = cos(tx) - i sin(tx), so the kernel is
        # (sin(tb) - sin(ta) + i (cos(tb) - cos(ta))) / t
        ta, tb = t * a, t * b
        div = np.where(zero, 1.0, t)
        k_re = np.where(zero, b - a, (np.sin(tb) - np.sin(ta)) / div)
        k_im = np.where(zero, 0.0, (np.cos(tb) - np.cos(ta)) / div)
        y = k_re * f.real - k_im * f.imag
        if damping > 0.0:
            y *= np.exp(-damping * t * t)
        if not np.isfinite(y).all():
            bad = ts[int(np.flatnonzero(~np.isfinite(y))[0])]
            raise ValueError(f"integrand returned a non-finite value near t={bad:.6g}")
        return y

    return _batched_rounds(values, None, (lo, hi), tol)[0] / (2.0 * math.pi)


def levy_invert(
    phi: Callable[[float], complex],
    a: float,
    b: float,
    T: float | None = None,
    tol: float = DEFAULT_TOL,
    damping: float = 0.0,
) -> float:
    """Estimate mu((a, b]) from the characteristic function phi.

    Computes (1/2pi) * integral_{-T}^{T} (e^{-ita} - e^{-itb})/(it) phi(t) dt
    as (1/pi) times the integral of its real part over (0, T).  phi must be
    Hermitian, phi(-t) = conj phi(t), as every characteristic function of a
    law on the real line is: it is read at t > 0 only, called with one float
    t at a time, once per quadrature node, and may return a complex or a
    float.  The kernel and the damping are evaluated as arrays, one round of
    panels at a time.  The endpoints must satisfy a < b and should not be
    atoms of mu.  When T is omitted the radius doubles from 64, capped at
    1e5: the core (0, 64) takes tol/4 and each doubling adds the shell
    [T, 2T] at half the previous tolerance, so that, doubled, the error
    estimates sum to at most tol, until a shell adds less than tol.  Lattice
    characteristic functions oscillate under raw truncation, so either pass
    T explicitly or use a small Gaussian ``damping`` (1e-6 works well).
    ValueError on a bad tolerance, a negative or non-finite damping, or when
    the integrand is not finite at a node, naming that t.
    """
    _check_tol(tol)
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValueError(f"inversion interval must satisfy a < b, got ({a!r}, {b!r})")
    damping = float(damping)
    if not (math.isfinite(damping) and damping >= 0.0):
        raise ValueError(f"damping must be nonnegative and finite, got {damping!r}")
    if T is not None:
        T = float(T)
        if not (math.isfinite(T) and T > 0.0):
            raise ValueError(f"truncation radius must be positive, got {T!r}")
        return 2.0 * _invert_at(phi, a, b, 0.0, T, 0.5 * tol, damping)
    t_radius = _T_START
    piece_tol = 0.25 * tol
    total = 2.0 * _invert_at(phi, a, b, 0.0, t_radius, piece_tol, damping)
    while 2.0 * t_radius <= _T_CAP:
        piece_tol *= 0.5
        shell = 2.0 * _invert_at(phi, a, b, t_radius, 2.0 * t_radius, piece_tol, damping)
        total += shell
        t_radius *= 2.0
        if abs(shell) < tol:
            return total
    raise NonConvergenceError(
        "inversion estimates did not settle before the truncation cap; "
        "pass T explicitly or enable damping"
    )


def charfun_distance(
    mu: Dist, nu: Dist, t_grid: Sequence[float], tol: float = DEFAULT_TOL
) -> float:
    """max_t |phi_mu(t) - phi_nu(t)| over the given grid."""
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ValueError("t_grid must be non-empty")
    return max(abs(charfun(mu, t, tol) - charfun(nu, t, tol)) for t in ts)
