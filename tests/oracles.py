"""Independent reference values for the test suite.

Everything here is computed by a route different from the library code under
test: closed forms via math.erf / math.exp, direct enumeration, and brute
scans over dense grids.
"""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
from hypothesis import strategies as st

from cltlab.distributions import Discrete


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def normal_mass(a: float, b: float) -> float:
    return normal_cdf(b) - normal_cdf(a)


def laplace_cdf(x: float) -> float:
    return 0.5 * math.exp(x) if x < 0.0 else 1.0 - 0.5 * math.exp(-x)


def logistic_cdf(x: float) -> float:
    e = math.exp(-abs(x))
    return 1.0 / (1.0 + e) if x >= 0.0 else e / (1.0 + e)


def cauchy_cdf(x: float) -> float:
    return 0.5 + math.atan(x) / math.pi


def student_t3_pdf(x: float) -> float:
    return 6.0 * math.sqrt(3.0) / (math.pi * (3.0 + x * x) ** 2)


def student_t3_cdf(x: float) -> float:
    """Student's t with 3 degrees of freedom: 1/2 + (atan(t) + t / (1 +
    t^2)) / pi with t = x / sqrt(3), the integral of student_t3_pdf."""
    t = x / math.sqrt(3.0)
    return 0.5 + (math.atan(t) + t / (1.0 + t * t)) / math.pi


def irwin_hall_cdf(n: int, x: float) -> float:
    """The law of the sum of n independent uniforms on [0, 1] at x, in exact
    rational arithmetic: sum over integers k <= x of (-1)^k C(n, k) (x - k)^n
    / n!, rounded once."""
    if x <= 0.0:
        return 0.0
    if x >= n:
        return 1.0
    q = Fraction(x)
    total = sum((-1) ** k * math.comb(n, k) * (q - k) ** n for k in range(math.floor(q) + 1))
    return float(total / math.factorial(n))


def gamma2_cdf(x: float) -> float:
    """Gamma(2, 1), the sum of two independent Exp(1) laws: 1 - e^-x (1 + x)."""
    return 0.0 if x <= 0.0 else 1.0 - math.exp(-x) * (1.0 + x)


def normal2_cdf(x: float) -> float:
    """N(0, 2), the sum of two independent standard normals."""
    return 0.5 * math.erfc(-x / 2.0)


def laplace_sum_cdf(x: float) -> float:
    """The sum of two independent standard Laplace laws, whose pdf is (1 +
    |x|) e^-|x| / 4: (2 + |x|) e^-|x| / 4 below 0, and one minus that above."""
    tail = 0.25 * (2.0 + abs(x)) * math.exp(-abs(x))
    return tail if x < 0.0 else 1.0 - tail


def histogram_moments(heights) -> tuple[float, float]:
    """Mean and variance of the pdf equal to heights[i] on [i/k, (i+1)/k),
    k = len(heights), in exact rational arithmetic: the integrals of x and
    of (x - mean)^2 against it, whatever its mass, each rounded once."""
    k = len(heights)
    h = [Fraction(w) for w in heights]
    m0 = sum(h) / k
    m1 = sum(w * (2 * i + 1) for i, w in enumerate(h)) / (2 * k ** 2)
    m2 = sum(w * (3 * i * i + 3 * i + 1) for i, w in enumerate(h)) / (3 * k ** 3)
    return float(m1), float(m2 - 2 * m1 * m1 + m1 * m1 * m0)


def dkw_band(n: int, alpha: float = 1e-6) -> float:
    """Dvoretzky-Kiefer-Wolfowitz (Massart 1990): the sup distance between
    the empirical CDF of n iid draws and the true one exceeds this with
    probability at most alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def ks_distance(xs, F) -> float:
    """sup |empirical CDF of xs - F|, read at the sorted draws from both sides."""
    xs = np.sort(np.asarray(xs, dtype=float))
    n = xs.size
    Fx = np.array([F(float(x)) for x in xs])
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - Fx), np.max(Fx - (i - 1) / n)))


def damped_mass(points, weights, a: float, b: float, damping: float) -> float:
    """mu((a, b]) for the atoms convolved with N(0, 2 damping), the law whose
    characteristic function is phi(t) exp(-damping t^2)."""
    s = math.sqrt(2.0 * damping)
    return sum(w * (normal_cdf((b - x) / s) - normal_cdf((a - x) / s))
               for x, w in zip(points, weights))


def double_factorial_moment(k: int) -> float:
    # m_k = (k-1) * m_{k-2}, m_0 = 1, m_1 = 0
    m_prev, m_cur = 1.0, 0.0
    if k == 0:
        return 1.0
    for j in range(2, k + 1):
        m_prev, m_cur = m_cur, (j - 1) * m_prev
    return m_cur if k % 2 == 0 else 0.0


def step_cdf(mu: Discrete):
    """Right-continuous step CDF, straight from the definition."""
    cum = np.cumsum(mu.weights)

    def F(x: float) -> float:
        i = np.searchsorted(mu.points, x, side="right")
        return 0.0 if i == 0 else float(cum[i - 1])

    return F


def brute_levy(F, G, xs, n_eps: int = 20_001) -> float:
    """Smallest eps on a uniform [0,1] grid passing the corridor check.

    The raw inequality F(x-eps)-eps <= G(x) <= F(x+eps)+eps is verified at
    xs plus every eps-shifted copy of xs, each nudged by +-1e-9.  When xs
    contains the atoms of two step CDFs that covers every breakpoint of the
    three step functions involved, so the scan is exhaustive, including the
    one-sided violations just left of an atom.  The corridor only widens as
    eps grows, so bisecting over the eps grid matches a linear scan.
    """
    xs = np.asarray(xs, dtype=float)
    eta = 1e-9
    grid = np.linspace(0.0, 1.0, n_eps)

    def passes(eps):
        shifted = np.concatenate([xs, xs - eps, xs + eps])
        pts = np.unique(np.concatenate([shifted, shifted - eta, shifted + eta]))
        Gx = np.array([G(x) for x in pts])
        lo = np.array([F(x - eps) for x in pts]) - eps
        hi = np.array([F(x + eps) for x in pts]) + eps
        return bool(np.all(lo <= Gx + 1e-12) and np.all(Gx <= hi + 1e-12))

    if passes(grid[0]):
        return float(grid[0])
    lo_i, hi_i = 0, n_eps - 1
    while hi_i - lo_i > 1:
        mid = (lo_i + hi_i) // 2
        if passes(grid[mid]):
            hi_i = mid
        else:
            lo_i = mid
    return float(grid[hi_i])


def corridor_xs(mu: Discrete, nu: Discrete) -> np.ndarray:
    """Scan points dense around every atom of either distribution."""
    pts = np.concatenate([mu.points, nu.points])
    offsets = np.linspace(-1.05, 1.05, 43)
    return np.unique((pts[:, None] + offsets[None, :]).ravel())


@st.composite
def discrete_dists(draw, max_atoms: int = 6):
    """Small Discrete laws on integer points (gaps >= 1, no merge ambiguity)."""
    pts = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=max_atoms,
                        unique=True))
    pts = sorted(pts)
    raw = draw(st.lists(st.integers(1, 9), min_size=len(pts), max_size=len(pts)))
    w = np.array(raw, dtype=float)
    return Discrete(np.array(pts, dtype=float), w / w.sum())


# Shevtsova (2011): sup |F_n - Phi| <= C * E|X - EX|^3 / (sigma^3 sqrt(n)).
BERRY_ESSEEN_C = 0.4748


def berry_esseen(points, weights, n: int) -> float:
    """Berry-Esseen bound on the CDF gap of the normalized n-fold sum."""
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    xc = pts - float(np.dot(w, pts))
    s2 = float(np.dot(w, xc**2))
    rho = float(np.dot(w, np.abs(xc) ** 3))
    return BERRY_ESSEEN_C * rho / (s2**1.5 * math.sqrt(n))


def coin_sum_cdf(n: int):
    """F(x) = P((2K - n)/sqrt(n) <= x) for K ~ Bin(n, 1/2), the normalized sum
    of n fair +-1 coins, from the binomial law summed in log space (lgamma;
    about 1e-11 off the exact sums at n = 10^4).

    F returns the values just left of and at x: they differ only when x is
    an atom, and a point within 1e-9 of an atom counts as one."""
    lg = math.lgamma
    logpmf = np.array([lg(n + 1) - lg(k + 1) - lg(n - k + 1) for k in range(n + 1)])
    cum = np.exp(np.logaddexp.accumulate(logpmf - n * math.log(2.0)))
    root = math.sqrt(n)

    def at(k: int) -> float:
        return 0.0 if k < 0 else float(cum[min(k, n)])

    def F(x: float) -> tuple[float, float]:
        m = 0.5 * (n + x * root)  # F(x) = P(K <= m)
        return at(math.ceil(m - 1e-9) - 1), at(math.floor(m + 1e-9))

    return F


def lattice_sum_cdf(points, weights, n: int) -> tuple[int, list[float]]:
    """Exact law of the sum of n iid draws from a base on the integers with
    rational weights, by the multinomial theorem: P(S = s) is the
    coefficient of z^s in (sum_k w_k z^x_k)^n, the sum over the count
    vectors c with sum_k c_k x_k = s of n!/prod c_k! prod w_k^c_k.

    With w_k = a_k / D, the integer coefficients of (sum_k a_k z^(x_k - lo))^n
    sum to D^n, so each fits in the bits of D^n: one integer power of the
    polynomial packed at z = 2^B, B that many bits in whole bytes, holds
    them all.  Returns lo * n, the least sum, and P(S <= lo * n + j) for
    j = 0, 1, ... up to the greatest sum, each the float nearest the exact
    fraction."""
    xs = [int(x) for x in points]
    ws = [Fraction(w) for w in weights]
    if xs != list(points) or sum(ws) != 1:
        raise ValueError("lattice_sum_cdf needs integer points and weights summing to 1")
    d = math.lcm(*(w.denominator for w in ws))
    total = d ** n
    width = -(-total.bit_length() // 8)  # bytes per coefficient
    lo = min(xs)
    packed = sum(int(w * d) << (8 * width * (x - lo)) for x, w in zip(xs, ws)) ** n
    slots = n * (max(xs) - lo) + 1
    raw = packed.to_bytes(slots * width, "little")
    counts = (int.from_bytes(raw[j * width:(j + 1) * width], "little") for j in range(slots))
    return lo * n, [c / total for c in accumulate(counts)]


def lattice_ks_distance(sums, lo: int, cdf) -> float:
    """sup |empirical CDF of the integer sums - cdf|, cdf[j] = P(S <= lo + j):
    both are step functions that move only at the integers lo, lo + 1, ...,
    so the sup is reached at one of them."""
    counts = np.bincount(np.asarray(sums) - lo, minlength=len(cdf))
    if counts.size != len(cdf):
        raise ValueError("a sum lies beyond the support of the exact law")
    return float(np.max(np.abs(np.cumsum(counts) / len(sums) - np.asarray(cdf))))


def symmetric_sum_charfun(points, weights, n: int, t: float) -> float:
    """phi_n(t) of the normalized n-fold sum of a base symmetric about 0.

    With s = t / sqrt(n sigma^2) the base has phi(s) = sum_k w_k cos(x_k s)
    = 1 - sum_k 2 w_k sin^2(x_k s / 2), so phi_n(t) = exp(n log1p(-sum_k
    2 w_k sin^2(x_k s / 2))): the coin's n log1p(-2 sin^2(s/2)), the centred
    die's n log1p(-sum_k 2 sin^2(x_k s/2) / 6).  The log1p form keeps the
    relative accuracy that 1 - ... would lose at large n."""
    s2 = math.fsum(w * x * x for x, w in zip(points, weights))
    s = t / math.sqrt(n * s2)
    drop = math.fsum(2.0 * w * math.sin(0.5 * x * s) ** 2 for x, w in zip(points, weights))
    return math.exp(n * math.log1p(-drop))


def cauchy_sine_tail(a: float, w: float) -> float:
    """int_a^inf g(x) sin(w x) dx for g(x) = 1/(pi (1 + x^2)) and w a >> 1, by
    integration by parts repeated: the sum over j of g^(j)(a) c_j / w^(j+1),
    c_j cycling through cos(w a), -sin(w a), -cos(w a), sin(w a).

    With a - i = r e^(-i theta), g^(j)(a) = (-1)^j j! sin((j+1) theta) /
    (pi r^(j+1)), so the bound |g^(j)(a)| / w^(j+1) on term j shrinks by
    about (j+1)/(w a) per term.  The series is asymptotic: it is summed while
    that bound shrinks, until it falls below 1e-20 of the sum, and
    ValueError is raised when it stops shrinking first (w a too small)."""
    r, theta = math.hypot(a, 1.0), math.atan2(1.0, a)
    trig = (math.cos(w * a), -math.sin(w * a), -math.cos(w * a), math.sin(w * a))
    total, last = 0.0, math.inf
    for j in range(1000):
        g = (-1) ** j * math.factorial(j) * math.sin((j + 1) * theta) / (math.pi * r ** (j + 1))
        bound = abs(g) / w ** (j + 1)
        if bound >= last:
            break
        total += g * trig[j % 4] / w ** (j + 1)
        if bound <= 1e-20 * abs(total):
            return total
        last = bound
    raise ValueError("the integration-by-parts series stops shrinking too early")
