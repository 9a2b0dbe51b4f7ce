"""Quadrature over oriented intervals of the extended real line.

Endpoints may be ``+inf``/``-inf`` and may be given in either order:
integrating over ``(b, a)`` is the exact negation of integrating over
``(a, b)``.  One globally adaptive loop refines every integral: each round
scores the panels by the gap between a 15-point Kronrod rule and its
embedded 7-point Gauss rule and bisects the worst first, in one batch,
until the gaps sum to at most the tolerance.  It reads the integrand at the
nodes of arrays of panels, so a caller may supply node values and a weight
instead.  One shell sweep, which can start from given breakpoints and
return its panels, handles every interval kind, adding shells of doubling
radius at infinite ends; slowly decaying oscillatory integrands get a
between-zeros summation accelerated by repeated averaging of partial sums.
"""

import cmath
import math
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .errors import NonConvergenceError, NotOscillatoryError

DEFAULT_TOL = 1e-8

_MAX_PANELS = 60_000
_MAX_SHELLS = 48
_MAX_HALF_PERIODS = 10_000

# 15-point Kronrod nodes on [-1, 1] (ascending) with their weights, plus the
# weights of the embedded 7-point Gauss rule placed at the matching node
# positions (zero at pure-Kronrod nodes), to the 33 digits of QUADPACK's qk15
# (Piessens et al. 1983): both weight vectors then sum to 2.0 exactly.
_GK_HALF_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_GK_HALF_WEIGHTS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_G_HALF_WEIGHTS = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
)

_XK = np.array([-x for x in _GK_HALF_NODES] + [0.0] + [x for x in reversed(_GK_HALF_NODES)])
_WK = np.array(list(_GK_HALF_WEIGHTS) + [0.209482141084727828012999174891714]
               + list(reversed(_GK_HALF_WEIGHTS)))
_WG = np.array(list(_G_HALF_WEIGHTS) + [0.417959183673469387755102040816327]
               + list(reversed(_G_HALF_WEIGHTS)))
_XK_LIST = _XK.tolist()
# Rows: half the Kronrod weights and half the Kronrod - Gauss differences,
# so that a panel's weighted node sums times its width are its value and
# error estimate.
_W = 0.5 * np.stack([_WK, _WK - _WG])


def _check_tol(tol: float) -> None:
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be a positive finite number, got {tol!r}")


def _gk15_nodes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 15 Kronrod nodes of each panel (a_i, b_i), one row per panel."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    return c[:, None] + h[:, None] * _XK


def _f_at_nodes(f: Callable[[float], float], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The scalar f at the _gk15_nodes of the panels (a_i, b_i), one row
    each; ValueError naming the first node where f is not finite."""
    # float arithmetic placing the nodes as _gk15_nodes does, and a float sum
    # as the first finiteness test: both cheaper than array ops for the
    # one-panel integrals that cdf and quantile make
    ys = [f(c + h * x) for pa, pb in zip(a.tolist(), b.tolist())
          for c, h in ((0.5 * (pa + pb), 0.5 * (pb - pa)),) for x in _XK_LIST]
    fx = np.fromiter(ys, float, len(ys))
    if not math.isfinite(sum(ys)) and not np.isfinite(fx).all():
        bad = float(_gk15_nodes(a, b).ravel()[int(np.flatnonzero(~np.isfinite(fx))[0])])
        raise ValueError(f"integrand returned a non-finite value near x={bad:.6g}")
    return fx.reshape(a.size, _XK.size)


@lru_cache(maxsize=1)
def _gk15_antiderivative() -> np.ndarray:
    """The 15 x 16 matrix A taking the values f_k of a function at the
    Kronrod nodes to f @ A, the monomial coefficients in s of the integral
    from -1 to s in [-1, 1] of the degree-14 polynomial through them.  It is
    built in the Legendre basis, whose values at the nodes are well
    conditioned, as P^-1 D C: P[j, k] = P_j(x_k), D integrates Legendre
    series (from -1, P_0 to P_0 + P_1 and P_j to (P_{j+1} - P_{j-1}) /
    (2j + 1)), and C holds the monomial coefficients of P_j.  Its entries
    reach about 570 and are within 4e-13 of their exact values, so a row's
    coefficients carry a rounding of about 1e-13 times the largest f_k."""
    n = _XK.size
    P = np.empty((n, n))
    C = np.zeros((n + 1, n + 1))
    P[0], P[1] = 1.0, _XK
    C[0, 0] = C[1, 1] = 1.0
    for j in range(1, n):  # (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}
        if j + 1 < n:
            P[j + 1] = ((2 * j + 1) * _XK * P[j] - j * P[j - 1]) / (j + 1)
        C[j + 1, 1:] = (2 * j + 1) * C[j, :-1] / (j + 1)
        C[j + 1] -= j * C[j - 1] / (j + 1)
    D = np.zeros((n, n + 1))
    D[0, :2] = 1.0
    j = np.arange(1, n)
    D[j, j + 1] = 1.0 / (2 * j + 1)
    D[j, j - 1] = -1.0 / (2 * j + 1)
    return np.linalg.solve(P, D @ C)


def _weighted_gk15(fx: np.ndarray, weight, a: np.ndarray, b: np.ndarray):
    """Kronrod values and |kronrod - gauss| estimates of the integrals of
    weight(x) * f(x) over the panels (a_i, b_i), given fx, f at their nodes
    (weight None: f alone)."""
    if weight is None:
        # 1.5 us less per round than the elementwise sum: 5% of the
        # density_quadrature median latency, one-panel cdf and quantile calls
        s = fx @ _W.T
    else:
        # a complex matmul is several times slower on thousands of panels
        s = ((fx * weight(_gk15_nodes(a, b)))[:, None, :] * _W).sum(axis=2)
    s = s * (b - a)[:, None]
    return s[:, 0], np.abs(s[:, 1])


def _batched_rounds(values, weight, edges, tol: float):
    """Integral of weight(x) * f(x) over the panels between consecutive
    edges, f known through values(a, b), its values at the _gk15_nodes of
    the panels (a_i, b_i), and weight vectorised over an array of nodes
    (None for f alone).

    Each round scores every panel by |kronrod - gauss| and, until the scores
    sum to at most tol, bisects the worst panels first: the shortest run of
    them, by descending score, whose scores sum to at least the excess over
    tol.  Every step is fixed by the edges, the weight and tol, so the result
    is too.  Returns (value, error, (a, b, v)), the converged panels and
    their values; NonConvergenceError past _MAX_PANELS panels, or at once
    when a panel due for bisection is too narrow to split.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    v, e = _weighted_gk15(values(a, b), weight, a, b)
    while True:
        err = float(e.sum())
        if err <= tol:
            return v.sum().item(), err, (a, b, v)
        order = np.argsort(-e, kind="stable")
        k = int(np.searchsorted(np.cumsum(e[order]), err - tol)) + 1
        split, rest = order[:k], order[k:]
        lo, hi = a[split], b[split]
        mid = 0.5 * (lo + hi)
        if e.size + mid.size > _MAX_PANELS or not np.all((lo < mid) & (mid < hi)):
            raise NonConvergenceError(
                f"quadrature budget exhausted on ({edges[0]:.6g}, {edges[-1]:.6g}): "
                f"error estimate {err:.3g} > tol {tol:.3g}"
            )
        ca = np.concatenate([lo, mid])
        cb = np.concatenate([mid, hi])
        cv, ce = _weighted_gk15(values(ca, cb), weight, ca, cb)
        a = np.concatenate([a[rest], ca])
        b = np.concatenate([b[rest], cb])
        v = np.concatenate([v[rest], cv])
        e = np.concatenate([e[rest], ce])


def _sweep(values, a: float, b: float, tol: float, breaks=None, min_mass: float = 0.0,
           reach: float = 0.0) -> tuple[float, list]:
    """Integral over a < b of the integrand whose values, real or complex,
    values(a, b) gives at the _gk15_nodes of the panels (a_i, b_i), one row
    each, and its panels, a list of (left edges, right edges, values)
    arrays, one per piece.

    A finite interval is one adaptive pass.  Otherwise a core, (-16, 16) or
    (a, r) with r the first of 16, 32, ... beyond a, then shells [r, 1.5r]
    and [1.5r, 2r] on each infinite side, r doubling, are refined to tol/16
    each until the shells and their outer halves (a crude tail bound, added
    to the error) both hold under tol/4.  The radius is absolute: shells
    anchored at a could agree on a dead tail before reaching mass far from
    a.  (-inf, b) is swept reflected.  Pieces start from the sorted breaks.

    Settled shells may lie short of a bulk further out: the sweep goes on
    until its radius is at least reach and the mass swept (the core's |panel
    values| plus each shell piece's |value|) at least min_mass, returning the
    value when that mass has not shown up within _MAX_SHELLS shells.
    """
    if math.isinf(a) and not math.isinf(b):
        # the nodes of (-b_i, -a_i) are those of (a_i, b_i) negated, in
        # reverse order and bit for bit
        value, panels = _sweep(lambda pa, pb: values(-pb, -pa)[:, ::-1], -b, -a, tol,
                               None if breaks is None else -breaks[::-1], min_mass, reach)
        return value, [(-pb, -pa, pv) for pa, pb, pv in panels]
    panels = []

    def piece(lo: float, hi: float, piece_tol: float) -> tuple[float, float]:
        edges = [lo, hi]
        if breaks is not None:
            i, j = np.searchsorted(breaks, lo, "right"), np.searchsorted(breaks, hi, "left")
            edges[1:1] = breaks[i:j].tolist()
        value, err, panel = _batched_rounds(values, None, edges, piece_tol)
        panels.append(panel)
        return value, err

    if not math.isinf(b):
        return piece(a, b, tol)[0], panels
    piece_tol = tol / 16.0
    sides = (1.0, -1.0) if math.isinf(a) else (1.0,)
    r = 16.0
    while r <= a:
        r *= 2.0
    value, err = piece(-r if math.isinf(a) else a, r, piece_tol)
    swept = float(np.abs(panels[0][2]).sum())
    for _ in range(_MAX_SHELLS):
        mid = 1.5 * r
        top = 2.0 * r
        inc = tail = shell_err = 0.0
        for side in sides:
            for lo, hi in ((r, mid), (mid, top)):
                part, e = piece(lo, hi, piece_tol) if side > 0 else piece(-hi, -lo, piece_tol)
                inc += part
                shell_err += e
                swept += abs(part)
            tail += abs(part)
        value += inc
        err += shell_err
        r = top
        if (abs(inc) < 0.25 * tol and tail < 0.25 * tol
                and swept >= min_mass and r >= reach):
            err += tail
            if err > tol:
                raise NonConvergenceError(
                    f"truncated improper integral error {err:.3g} exceeds tol {tol:.3g}"
                )
            return value, panels
    if swept < min_mass:
        return value, panels
    raise NonConvergenceError(
        "improper integral did not settle: tail contributions kept exceeding tol/4 "
        f"out to radius {r:.3g}"
    )


def integrate(f: Callable[[float], float], a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Integrate ``f`` over the oriented interval from ``a`` to ``b``.

    Parameters
    ----------
    f : callable
        Real-valued integrand, evaluated pointwise.
    a, b : float
        Endpoints; either may be infinite, and ``a > b`` is allowed and
        negates the result exactly.
    tol : float
        Target bound on the absolute error estimate.

    Raises
    ------
    ValueError
        On a non-positive tolerance, NaN endpoint, or non-finite integrand value.
    NonConvergenceError
        When the refinement or truncation budget runs out first.
    """
    _check_tol(tol)
    a = float(a)
    b = float(b)
    if math.isnan(a) or math.isnan(b):
        raise ValueError("interval endpoints must not be NaN")
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, tol)
    return _sweep(partial(_f_at_nodes, f), a, b, tol)[0]


def integrate_complex(
    f: Callable[[float], complex], a: float, b: float, tol: float = DEFAULT_TOL
) -> complex:
    """Integrate a complex-valued integrand coordinatewise.

    Equals ``integrate`` applied separately to the real and imaginary parts,
    so each coordinate individually meets the tolerance contract.
    """
    re = integrate(lambda x: f(x).real, a, b, tol)
    im = integrate(lambda x: f(x).imag, a, b, tol)
    return complex(re, im)


def _accelerated(terms: list[float]) -> float:
    """Estimate the sum of an alternating series by repeated averaging.

    Averages adjacent partial sums (restricted to a trailing window) until a
    single value remains; for eventually alternating series with decaying
    terms this is a standard Euler-transform style accelerator.
    """
    partial = np.cumsum(terms)
    row = partial[-64:] if partial.size > 64 else partial
    while row.size > 1:
        row = 0.5 * (row[:-1] + row[1:])
    return float(row[0])


def _check_alternating(terms: list[float]) -> None:
    scale = max(abs(t) for t in terms)
    if scale == 0.0:
        return
    significant = [t for t in terms if abs(t) > 1e-13 * scale]
    for u, v in zip(significant, significant[1:]):
        if u * v > 0.0:
            raise NotOscillatoryError(
                "between-zeros partial integrals do not alternate in sign"
            )
    if len(significant) >= 16:
        head = np.mean(np.abs(significant[:4]))
        tail = np.mean(np.abs(significant[-4:]))
        if tail >= 0.999 * head:
            raise NonConvergenceError(
                "oscillation amplitude does not decay; the improper integral "
                "does not converge"
            )


def integrate_oscillatory(
    f: Callable[[float], float],
    zeros: Callable[[int], float],
    a: float = 0.0,
    b: float = math.inf,
    tol: float = DEFAULT_TOL,
) -> float:
    """Integrate a decaying oscillatory ``f`` over ``(a, +inf)``.

    ``zeros(k)`` must enumerate the sign-change abscissae of ``f`` in
    increasing order; values not exceeding ``a`` are skipped.  The integral
    is summed panel by panel between consecutive zeros and the eventually
    alternating series of panel values is accelerated by repeated averaging.
    When ``a`` lies between two zeros, the partial panel from ``a`` to the
    next zero counts in the sum but not in the alternation and decay checks.

    Raises ``NotOscillatoryError`` if the panel values fail to alternate,
    and ``NonConvergenceError`` if more than 10^4 half-periods are needed
    or the amplitude does not decay.
    """
    _check_tol(tol)
    a = float(a)
    if not math.isfinite(a):
        raise ValueError("lower endpoint must be finite")
    if b != math.inf:
        raise ValueError("oscillatory integration requires the upper endpoint +inf")

    piece_tol = tol * 1e-3
    values = partial(_f_at_nodes, f)
    bounds = [a]
    terms: list[float] = []
    k = 0
    exhausted = False
    # pieces the checks skip: the first, from a to the next zero, is partial
    # unless a is itself a zero, and its size says nothing of the amplitude
    head = 1

    def extend(target: int) -> None:
        nonlocal k, exhausted, head
        attempts = 0
        while len(terms) < target and len(terms) < _MAX_HALF_PERIODS and not exhausted:
            z = float(zeros(k))
            k += 1
            attempts += 1
            if attempts > 10 * _MAX_HALF_PERIODS:
                raise ValueError("zeros() does not advance past the current panel")
            if not z > bounds[-1]:
                if z == a:
                    head = 0
                continue
            t = _batched_rounds(values, None, (bounds[-1], z), piece_tol)[0]
            bounds.append(z)
            terms.append(t)
            if abs(t) < 1e-300:
                exhausted = True

    goal = 16
    previous = None
    while True:
        extend(goal)
        _check_alternating(terms[head:])
        estimate = _accelerated(terms)
        if exhausted:
            return estimate
        if previous is not None and abs(estimate - previous) < 0.5 * tol:
            return estimate
        if len(terms) >= _MAX_HALF_PERIODS:
            raise NonConvergenceError(
                f"series acceleration stalled after {_MAX_HALF_PERIODS} half-periods"
            )
        previous = estimate
        goal *= 2


def sinc(x: float) -> float:
    """sin(x)/x with the removable singularity patched by its Taylor series."""
    if abs(x) <= 1e-4:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return math.sin(x) / x


def gaussian_moment(k: int, tol: float = DEFAULT_TOL) -> float:
    """k-th moment of the standard normal computed by quadrature.

    Agrees with the double-factorial recursion m_k = (k-1) * m_{k-2}
    (so (k-1)!! for even k, 0 for odd k) within the quadrature tolerance.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"moment order must be a nonnegative integer, got {k!r}")
    k = int(k)
    c = 1.0 / math.sqrt(2.0 * math.pi)
    return integrate(lambda x: c * x**k * math.exp(-0.5 * x * x), -math.inf, math.inf, tol)


def exp_taylor_remainder(x: float, n: int) -> float:
    """|e^{ix} - sum_{j<=n} (ix)^j / j!| evaluated directly.

    Bounded by min(|x|^{n+1}/(n+1)!, 2|x|^n/n!) for all real x.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for j in range(1, int(n) + 1):
        term *= 1j * x / j
        total += term
    return abs(cmath.exp(1j * x) - total)
