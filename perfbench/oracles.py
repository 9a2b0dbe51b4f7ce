"""Reference answers for the benchmark, computed without cltlab.

Every check the benchmark makes compares cltlab's output with a value found
here by a different route: closed forms through ``math.erf`` and ``math.exp``,
exact binomial sums in log space, characteristic functions taken straight
from base atoms, brute scans on fine grids, and probability bounds
(Berry-Esseen, Dvoretzky-Kiefer-Wolfowitz, Hoeffding).  This module must not
import cltlab, so that a defect in the library cannot agree with itself.

A check returns ``None`` when the output passes and the oracle's name when it
does not; the name is what the benchmark counts failures under.
"""

import cmath
import math
from functools import lru_cache

import numpy as np

# Shevtsova (2011): sup |F_n - Phi| <= C * E|X|^3 / (sigma^3 sqrt(n)).
BERRY_ESSEEN_C = 0.4748
# A statistical band is allowed to fail with this probability per check.
ALPHA = 1e-6
# A numerical answer passes when it is within SLACK times the tolerance the
# call was given of the reference value.
SLACK = 10.0
# levy_metric bisects to 1e-4 and returns the upper end of its bracket.
LEVY_TOL = 1e-4
# Grid step of the brute Levy scan; every reference density is at most 1, so
# the scan is within two steps of the true distance.
LEVY_SCAN_STEP = 2e-4
# Every reference law has mass below 1e-5 outside [-12, 12], far less than
# any Levy distance measured here.
LEVY_SCAN_HALF_WIDTH = 12.0
# The triangle law is cltlab's convolution of two uniforms on a 4096-point
# grid; its error is first order in the grid step 1/4095, so checks on it
# allow four steps.
TRIANGLE_TOL = 4.0 / 4095.0
# The Density sampler inverts a 4097-point CDF table; allowance for its
# interpolation error on top of the DKW band.
SAMPLER_TABLE_TOL = 1e-3


def normal_cdf(x: float, m: float = 0.0, s2: float = 1.0) -> float:
    return 0.5 * (1.0 + math.erf((x - m) / math.sqrt(2.0 * s2)))


def normal_cf(t: float, m: float = 0.0, s2: float = 1.0) -> complex:
    return cmath.exp(complex(-0.5 * s2 * t * t, t * m))


def double_factorial_moment(k: int) -> float:
    """E[Z^k] for standard normal Z: (k-1)!! for even k, 0 for odd k."""
    if k % 2:
        return 0.0
    out = 1.0
    for j in range(k - 1, 0, -2):
        out *= j
    return out


# --- atomic base laws -------------------------------------------------------

def base_moments(points, weights) -> tuple[np.ndarray, float, float]:
    """Centered atoms, variance, and third absolute central moment."""
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    xc = pts - float(np.dot(w, pts))
    return xc, float(np.dot(w, xc**2)), float(np.dot(w, np.abs(xc) ** 3))


def berry_esseen(points, weights, n: int) -> float:
    _, s2, rho = base_moments(points, weights)
    return BERRY_ESSEEN_C * rho / (s2**1.5 * math.sqrt(n))


def charfun_power(points, weights, n: int, t: float) -> complex:
    """phi_base(t / sqrt(n sigma^2))^n, the exact characteristic function of
    the normalized n-fold sum, from the base atoms alone."""
    xc, s2, _ = base_moments(points, weights)
    u = t / math.sqrt(n * s2)
    w = np.asarray(weights, dtype=float)
    phi = complex(float(np.dot(w, np.cos(u * xc))), float(np.dot(w, np.sin(u * xc))))
    return phi**n


def charfun_gaps(points, weights, n: int, ts) -> list[float]:
    return [abs(charfun_power(points, weights, n, t) - normal_cf(t)) for t in ts]


@lru_cache(maxsize=64)
def _coin_cum(n: int) -> np.ndarray:
    """cum[k] = P(Bin(n, 1/2) <= k), summed in log space."""
    lg = math.lgamma
    logpmf = np.array([lg(n + 1) - lg(k + 1) - lg(n - k + 1) for k in range(n + 1)])
    logpmf -= n * math.log(2.0)
    return np.minimum(np.exp(np.logaddexp.accumulate(logpmf)), 1.0)


def coin_cdf_sup_range(n: int, grid) -> tuple[float, float]:
    """Bounds on sup_g |F_n(g) - Phi(g)| for the normalized sum of n fair
    +-1 coins.  A grid point that sits on an atom (within 1e-9) may be
    evaluated on either side of it, so both one-sided values are allowed."""
    cum = _coin_cum(n)
    root = math.sqrt(n)
    lo = hi = 0.0
    for g in grid:
        m = 0.5 * (n + g * root)  # F_n(g) = P(K <= m)
        right = math.floor(m + 1e-9)
        left = math.ceil(m - 1e-9) - 1

        def F(k):
            return 0.0 if k < 0 else float(cum[min(k, n)])

        phi = normal_cdf(g)
        gaps = (abs(F(right) - phi), abs(F(left) - phi))
        lo = max(lo, min(gaps))
        hi = max(hi, max(gaps))
    return lo, hi


def dkw_band(draws: int, alpha: float = ALPHA) -> float:
    """P(sup |F_N - F| > band) <= alpha (Dvoretzky-Kiefer-Wolfowitz, Massart)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * draws))


def hoeffding_cf_band(draws: int, n_ts: int, alpha: float = ALPHA) -> float:
    """Bound on |phi_emp(t) - phi(t)| holding at every one of n_ts points
    with probability 1 - alpha (Hoeffding on the real and imaginary parts)."""
    s = math.sqrt(2.0 * math.log(4.0 * n_ts / alpha) / draws)
    return math.sqrt(2.0) * s


def check_clt_row(row, points, weights, ts, grid=None, draws=None):
    """Oracle name of the first failed check on one run_clt row, or None.

    Exact rows: charfun_sup equals the charfun-power value to 1e-9, cdf_sup
    and levy sit under Berry-Esseen, and for the fair coin cdf_sup matches
    the exact binomial law.  Monte Carlo rows (``draws`` given): the same
    bounds widened by the DKW band, and charfun_sup by the Hoeffding band.
    """
    n = row.n
    be = berry_esseen(points, weights, n)
    gaps = charfun_gaps(points, weights, n, ts)
    if draws is None:
        if abs(row.charfun_sup - max(gaps)) > 1e-9:
            return "charfun_power"
        if row.cdf_sup > be + 1e-9:
            return "berry_esseen_cdf"
        if row.levy > be + LEVY_TOL:
            return "berry_esseen_levy"
        if grid is not None:
            lo, hi = coin_cdf_sup_range(n, grid)
            if not lo - 1e-9 <= row.cdf_sup <= hi + 1e-9:
                return "coin_exact_cdf"
        return None
    band = dkw_band(draws)
    if row.cdf_sup > be + band:
        return "berry_esseen_dkw_cdf"
    if row.levy > be + band + LEVY_TOL:
        return "berry_esseen_dkw_levy"
    if row.charfun_sup > max(gaps) + hoeffding_cf_band(draws, len(ts)):
        return "charfun_hoeffding"
    return None


# --- densities --------------------------------------------------------------

class Family:
    """A law with closed-form pdf, CDF, characteristic function and moments.

    ``pdf`` is the scalar callable the benchmark hands to cltlab; every other
    attribute is reference data.  ``tol`` is the extra allowance for laws
    that cltlab only approximates (the grid-convolved triangle).
    """

    def __init__(self, name, pdf, support, cdf, cf, mean, var, tol=0.0):
        self.name = name
        self.pdf = pdf
        self.support = support
        self.cdf = cdf
        self.cf = cf
        self.mean = mean
        self.var = var
        self.tol = tol

    def cdf_array(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self.cdf(float(x)) for x in xs])


def _laplace_cdf(x):
    return 0.5 * math.exp(x) if x < 0.0 else 1.0 - 0.5 * math.exp(-x)


def _logistic_cdf(x):
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0.0 else math.exp(x) / (1.0 + math.exp(x))


def _logistic_cf(t):
    z = math.pi * t
    return complex(1.0 if z == 0.0 else z / math.sinh(z), 0.0)


def _uniform_cf(t):
    return complex(1.0, 0.0) if t == 0.0 else (cmath.exp(1j * t) - 1.0) / (1j * t)


def laplace() -> Family:
    def pdf(x):
        return 0.5 * math.exp(-abs(x))

    return Family("laplace", pdf, (-math.inf, math.inf), _laplace_cdf,
                  lambda t: complex(1.0 / (1.0 + t * t), 0.0), 0.0, 2.0)


def logistic() -> Family:
    def pdf(x):
        e = math.exp(-abs(x))
        return e / (1.0 + e) ** 2

    return Family("logistic", pdf, (-math.inf, math.inf), _logistic_cdf, _logistic_cf,
                  0.0, math.pi**2 / 3.0)


def uniform() -> Family:
    def pdf(x):
        return 1.0 if 0.0 <= x <= 1.0 else 0.0

    return Family("uniform", pdf, (0.0, 1.0), lambda x: min(max(x, 0.0), 1.0),
                  _uniform_cf, 0.5, 1.0 / 12.0)


def triangle() -> Family:
    """Law of U1 + U2 for independent uniforms on [0, 1]; its pdf is never
    handed to cltlab, which builds it as ``convolve(U, U)``."""

    def cdf(x):
        if x <= 0.0:
            return 0.0
        if x >= 2.0:
            return 1.0
        return 0.5 * x * x if x <= 1.0 else 1.0 - 0.5 * (2.0 - x) ** 2

    return Family("triangle", None, (0.0, 2.0), cdf, lambda t: _uniform_cf(t) ** 2,
                  1.0, 1.0 / 6.0, tol=TRIANGLE_TOL)


def normal_family(m: float, s2: float) -> Family:
    """Reference data for cltlab's own ``normal(m, s2)`` (pdf is cltlab's)."""
    return Family("normal", None, (-math.inf, math.inf),
                  lambda x: normal_cdf(x, m, s2), lambda t: normal_cf(t, m, s2), m, s2)


def mixture(ws, ms, s2s) -> Family:
    comps = list(zip(ws, ms, s2s))
    norms = [w / math.sqrt(2.0 * math.pi * s2) for w, _, s2 in comps]

    def pdf(x):
        return sum(c * math.exp(-(x - m) ** 2 / (2.0 * s2))
                   for c, (_, m, s2) in zip(norms, comps))

    mean = sum(w * m for w, m, _ in comps)
    var = sum(w * (s2 + m * m) for w, m, s2 in comps) - mean * mean
    return Family(
        "mixture", pdf, (-math.inf, math.inf),
        lambda x: sum(w * normal_cdf(x, m, s2) for w, m, s2 in comps),
        lambda t: sum(w * normal_cf(t, m, s2) for w, m, s2 in comps),
        mean, var,
    )


@lru_cache(maxsize=16)
def levy_scan(fam: Family, step: float = LEVY_SCAN_STEP) -> float:
    """Levy distance to N(0, 1) by a brute scan on a uniform grid.

    With both CDFs tabulated on one grid, an eps that is a whole number of
    steps shifts a table by an index, so the corridor test is exact on the
    grid; the answer is within step * (1 + max density) of the true value.
    """
    xs = np.arange(-LEVY_SCAN_HALF_WIDTH, LEVY_SCAN_HALF_WIDTH + step, step)
    F = fam.cdf_array(xs)
    G = np.array([normal_cdf(float(x)) for x in xs])
    m = xs.size

    def passes(k: int) -> bool:
        # beyond the grid both CDFs are 1, where the corridor always holds
        eps = k * step + 1e-12
        return bool(np.all(G[:m - k] <= F[k:] + eps) and np.all(F[:m - k] <= G[k:] + eps))

    lo_k, hi_k = 0, int(1.0 / step)
    if passes(lo_k):
        return 0.0
    while hi_k - lo_k > 1:
        mid = (lo_k + hi_k) // 2
        if passes(mid):
            hi_k = mid
        else:
            lo_k = mid
    return hi_k * step


def check_levy(fam: Family, value: float):
    ref = levy_scan(fam)
    allowed = LEVY_TOL + 2.0 * LEVY_SCAN_STEP + fam.tol
    return None if abs(value - ref) <= allowed else f"{fam.name}_levy"


def check_cdf(fam: Family, x: float, value: float, tol: float):
    err = abs(value - fam.cdf(x))
    return None if err <= SLACK * tol + fam.tol else f"{fam.name}_cdf"


def check_quantile(fam: Family, p: float, value: float, tol: float):
    """A quantile passes when the reference CDF at it is p (in probability)."""
    err = abs(fam.cdf(value) - p)
    return None if err <= SLACK * tol + fam.tol else f"{fam.name}_quantile"


def check_charfun(fam: Family, ts, values, tol: float):
    for t, z in zip(ts, values):
        ref = fam.cf(t)
        if max(abs(z.real - ref.real), abs(z.imag - ref.imag)) > SLACK * tol + fam.tol:
            return f"{fam.name}_charfun"
    return None


def check_moments(fam: Family, mean: float, var: float, tol: float):
    scale = max(1.0, abs(fam.mean), fam.var)
    if abs(mean - fam.mean) > SLACK * tol * scale + fam.tol:
        return f"{fam.name}_mean"
    if abs(var - fam.var) > SLACK * tol * scale + fam.tol:
        return f"{fam.name}_variance"
    return None


def check_sample(fam: Family, samples) -> str | None:
    """Kolmogorov-Smirnov distance of the sample to the reference CDF must
    sit inside the DKW band."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    F = fam.cdf_array(xs)
    i = np.arange(1, n + 1)
    ks = float(max(np.max(i / n - F), np.max(F - (i - 1) / n)))
    allowed = dkw_band(n) + SAMPLER_TABLE_TOL + fam.tol
    return None if ks <= allowed else f"{fam.name}_sample"


def lattice_mass(points, weights, a: float, b: float, damping: float) -> float:
    """mu * N(0, 2 damping) applied to (a, b]: what Levy inversion with
    Gaussian damping exp(-damping t^2) converges to."""
    s2 = 2.0 * damping
    return sum(w * (normal_cdf(b, x, s2) - normal_cdf(a, x, s2))
               for x, w in zip(points, weights))


def check_close(name: str, value: float, ref: float, tol: float):
    return None if abs(value - ref) <= SLACK * tol else name
