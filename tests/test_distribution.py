import contextlib
import io
import math
import signal
import tracemalloc
from functools import partial
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cltlab.distributions import (
    Density,
    Discrete,
    Empirical,
    atom_mass,
    cdf,
    convolve,
    discontinuity_points,
    fair_die,
    iid_sum_normalized,
    load_discrete,
    mean,
    normal,
    normal_density,
    point_mass,
    quantile,
    rademacher,
    sample,
    save_discrete,
    shift_scale,
    standard_normal,
    variance,
)
import cltlab.distributions as distributions
from cltlab.distributions import (
    _DIRECT_CONV_TERMS,
    _EPS,
    _FFT_FLOOR,
    _MAX_ATOMS,
    _MOMENT_TOL,
    _PARTITION_TAIL,
    _binary_power,
    _convolve_discrete,
    _count_vectors_within,
    _density_cdf,
    _lattice_power,
    _lattice_span,
    _multinomial_power,
    _pair_sums_distinct,
)
from cltlab.charfuns import charfun
from cltlab.clt import CltExperiment, center, run_clt
from cltlab.errors import NonConvergenceError, SizeLimitError
from cltlab.numerics import _f_at_nodes, _sweep
from cltlab.weak_convergence import (
    ConvergenceProbe,
    cdf_distance,
    default_grid,
    integral_against,
    levy_metric,
)
from oracles import (
    brute_levy,
    cauchy_cdf,
    coin_sum_cdf,
    discrete_dists,
    dkw_band,
    ks_distance,
    laplace_cdf,
    logistic_cdf,
    normal_cdf,
    student_t3_cdf,
    student_t3_pdf,
    symmetric_sum_charfun,
)


class TestConstruction:
    def test_discrete_requires_increasing_points(self):
        with pytest.raises(ValueError):
            Discrete(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            Discrete(np.array([2.0, 1.0]), np.array([0.5, 0.5]))

    def test_discrete_requires_positive_weights(self):
        with pytest.raises(ValueError):
            Discrete(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def test_discrete_weight_sum(self):
        with pytest.raises(ValueError):
            Discrete(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_discrete_from_pairs_sorts(self):
        mu = Discrete.from_pairs([(1.0, 0.25), (-1.0, 0.75)])
        assert list(mu.points) == [-1.0, 1.0]
        assert list(mu.weights) == [0.75, 0.25]

    def test_density_mass_checked(self):
        with pytest.raises(ValueError):
            Density(lambda x: 1.0, (0.0, 2.0))  # mass 2

    def test_density_nonnegative_checked(self):
        with pytest.raises(ValueError):
            Density(math.sin, (0.0, 2.0 * math.pi))
        # mass 1 and negative only past 32: every node of the partition is
        # checked, and the first negative one is named
        dip = lambda x: -0.001 if 50.0 <= x < 60.0 else 1.01 / 90.0
        with pytest.raises(ValueError, match=r"negative near x=50\.0267"):
            Density(dip, (0.0, 100.0))

    def test_density_support_ordering(self):
        with pytest.raises(ValueError):
            Density(lambda x: 1.0, (1.0, 0.0))

    def test_empirical_sorts_and_rejects_empty(self):
        e = Empirical(np.array([3.0, 1.0, 2.0]))
        assert list(e.samples) == [3.0, 1.0, 2.0]
        assert list(e.points) == [1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            Empirical(np.array([]))

    def test_empirical_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Empirical(np.array([1.0, float("inf")]))


class TestCdf:
    def test_standard_normal_at_zero(self):
        assert abs(cdf(standard_normal(), 0.0) - 0.5) < 1e-9

    def test_point_mass_jump(self):
        mu = point_mass(0.1)
        assert cdf(mu, 0.0999999) == 0.0
        assert cdf(mu, 0.1) == 1.0

    def test_coin_midpoint(self):
        assert cdf(rademacher(), 0.0) == 0.5

    def test_empirical(self):
        e = Empirical(np.array([1.0, 1.0, 2.0]))
        assert cdf(e, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert cdf(e, 0.5) == 0.0
        assert cdf(e, 2.0) == 1.0

    def test_limits(self):
        for mu in (rademacher(), Empirical(np.array([0.0, 4.0]))):
            assert cdf(mu, -1e12) == 0.0
            assert cdf(mu, 1e12) == 1.0
        assert cdf(standard_normal(), -40.0) == 0.0
        assert abs(cdf(standard_normal(), 40.0) - 1.0) < 1e-9

    def test_right_continuity_at_atoms(self):
        for mu in (rademacher(), fair_die()):
            for x, w in zip(mu.points, mu.weights):
                at = cdf(mu, float(x))
                assert cdf(mu, float(x) + 1e-6) == at
                assert abs(cdf(mu, float(x) - 1e-6) - (at - w)) < 1e-15

    def test_normal_against_erf(self):
        mu = standard_normal()
        for x in (-2.5, -1.0, -0.3, 0.7, 1.96, 3.2):
            assert abs(cdf(mu, x) - normal_cdf(x)) < 1e-8

    @given(discrete_dists(), st.floats(-40, 40), st.floats(-40, 40))
    @settings(max_examples=50, deadline=None)
    def test_monotone(self, mu, x, y):
        lo, hi = min(x, y), max(x, y)
        assert cdf(mu, lo) <= cdf(mu, hi) + 1e-15


class TestQuantile:
    def test_normal_median(self):
        assert abs(quantile(standard_normal(), 0.5)) < 1e-8

    def test_coin(self):
        mu = rademacher()
        assert quantile(mu, 0.25) == -1.0
        assert quantile(mu, 0.5) == -1.0
        assert quantile(mu, 0.500001) == 1.0

    def test_normal_975(self):
        q = quantile(standard_normal(), 0.975)
        assert abs(q - 1.959964) < 1e-4
        # erf-based bisection reference
        assert abs(normal_cdf(q) - 0.975) < 1e-9

    def test_out_of_range(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                quantile(rademacher(), p)

    def test_empirical(self):
        e = Empirical(np.array([10.0, 20.0, 30.0, 40.0]))
        assert quantile(e, 0.25) == 10.0
        assert quantile(e, 0.26) == 20.0
        assert quantile(e, 0.75) == 30.0
        # the Galois connection at and one ulp either side of every k/N,
        # over samples with and without ties
        for n in range(1, 61):
            for xs in (np.arange(n, 0, -1.0), np.arange(n) // 3 * 0.5):
                e = Empirical(xs)
                pts = np.unique(xs)
                cdfs = np.array([cdf(e, float(x)) for x in pts])
                levels = {q for k in range(1, n + 1)
                          for q in (k / n, np.nextafter(k / n, 0.0), np.nextafter(k / n, 1.0))}
                for p in sorted(q for q in levels if 0.0 < q < 1.0):
                    assert np.array_equal(quantile(e, p) <= pts, p <= cdfs), (n, p)

    @given(discrete_dists(), st.floats(0.001, 0.999), st.floats(-35, 35))
    @settings(max_examples=60, deadline=None)
    def test_galois_connection(self, mu, p, x):
        assert (quantile(mu, p) <= x) == (p <= cdf(mu, x))


class TestMoments:
    def test_coin(self):
        assert mean(rademacher()) == 0.0
        assert variance(rademacher()) == 1.0

    def test_normal_density_moments(self):
        mu = normal(1.5, 4.0)
        assert abs(mean(mu) - 1.5) < 1e-7
        assert abs(variance(mu) - 4.0) < 1e-6

    def test_die(self):
        assert abs(mean(fair_die()) - 3.5) <= 1e-12
        assert abs(variance(fair_die()) - 35.0 / 12.0) <= 1e-12

    def test_empirical(self):
        e = Empirical(np.array([1.0, 3.0]))
        assert mean(e) == 2.0
        assert variance(e) == 1.0


@contextlib.contextmanager
def wall_clock_limit(seconds: float):
    """Raise TimeoutError in the block once it has run for ``seconds``, so
    that an endless loop fails the test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class TestNarrowDensity:
    """N(0, 0.01): a peak far narrower than the first quadrature panel."""

    def test_cdf_and_moments(self):
        d = normal(0.0, 0.01)
        assert abs(cdf(d, 0.0) - 0.5) <= 1e-10
        assert abs(variance(d) - 0.01) <= 1e-9
        clamp01 = lambda x: min(max(x, 0.0), 1.0)
        # E[min(max(X, 0), 1)] = E[X+] = sd / sqrt(2 pi); P(X > 1) ~ 1e-23
        assert abs(integral_against(clamp01, d) - 0.1 / math.sqrt(2.0 * math.pi)) <= 1e-9

    def test_quantile(self):
        d = normal(0.0, 0.01)
        with wall_clock_limit(10.0):
            q = quantile(d, 0.9)
        assert abs(q - 0.1 * 1.2815515655446004) <= 1e-10


@pytest.mark.parametrize("m", [40.0, 100.0, -300.0])
def test_mass_far_from_the_origin(m):
    # the infinite sweep's first shells are dead; it keeps adding shells
    # until they reach the mass
    d = normal(m, 1.0)
    assert abs(cdf(d, m) - 0.5) <= 1e-10
    assert abs(mean(d) - m) <= 1e-9
    assert abs(variance(d) - 1.0) <= 1e-9
    assert abs(quantile(d, 0.975) - m - 1.959963984540054) <= 1e-9


def laplace_density():
    return Density(lambda x: 0.5 * math.exp(-abs(x)), (-math.inf, math.inf))


def cauchy_density():
    return Density(lambda x: 1.0 / (math.pi * (1.0 + x * x)), (-math.inf, math.inf))


class TestHeavyTails:
    def test_laplace_tail_cdf(self):
        d = laplace_density()
        for x in (-14.0, -25.0):
            assert abs(cdf(d, x) - 0.5 * math.exp(x)) <= 1e-10
        assert abs(cdf(d, 14.0) - (1.0 - 0.5 * math.exp(-14.0))) <= 1e-10

    def test_logistic_tail_cdf(self):
        def pdf(x):
            e = math.exp(-abs(x))
            return e / (1.0 + e) ** 2

        d = Density(pdf, (-math.inf, math.inf))
        for x in (-25.0, -20.0, -3.0, 19.0, 25.0):
            assert abs(cdf(d, x) - 1.0 / (1.0 + math.exp(-x))) <= 1e-10

    def test_cauchy(self):
        d = cauchy_density()
        for x in (-1e6, -30.0, 0.0, 3.0, 200.0):
            assert abs(cdf(d, x) - (0.5 + math.atan(x) / math.pi)) <= 1e-10
        q = quantile(d, 0.9)
        assert abs(q - math.tan(0.4 * math.pi)) <= 1e-8
        assert abs(0.5 + math.atan(q) / math.pi - 0.9) <= 1e-10
        # sample and levy_metric read the CDF alone
        u = np.random.default_rng(0).random(10)
        xs = sample(d, 10, seed=0).samples
        assert max(abs(cauchy_cdf(float(x)) - p) for x, p in zip(xs, u)) <= 1e-10
        grid = np.linspace(-6.0, 6.0, 241)
        brute = brute_levy(cauchy_cdf, normal_cdf, grid, n_eps=2001)
        assert abs(levy_metric(d, standard_normal()) - brute) <= 2e-3
        # the moments and convolve need more than the CDF and fail loudly
        for op in (lambda: mean(d), lambda: variance(d), lambda: convolve(d, d),
                   lambda: convolve(standard_normal(), d)):
            with pytest.raises(NonConvergenceError):
                op()


def _logistic_pdf(x):
    e = math.exp(-abs(x))
    return e / (1.0 + e) ** 2


# (Density, closed-form CDF, bound on |cdf - closed form|): the Cauchy bound
# is the partition's tail bound, the mass its far left tail leaves out
ONE_CDF_LAWS = {
    "normal": (standard_normal, normal_cdf, 1e-12),
    "laplace": (laplace_density, laplace_cdf, 1e-12),
    "logistic": (lambda: Density(_logistic_pdf, (-math.inf, math.inf)), logistic_cdf, 1e-12),
    "t3": (lambda: Density(student_t3_pdf, (-math.inf, math.inf)), student_t3_cdf, 1e-12),
    "cauchy": (cauchy_density, cauchy_cdf, _PARTITION_TAIL),
    # swept reflected, as a support (-inf, b) is
    "exp_left": (lambda: Density(math.exp, (-math.inf, 0.0)), lambda x: math.exp(min(x, 0.0)), 1e-12),
}


class TestOneCdf:
    """cdf, quantile and sample of a Density read one CDF, the panel
    polynomials, accurate over the whole line, heavy tails included."""

    @pytest.mark.parametrize("name", list(ONE_CDF_LAWS))
    def test_cdf_matches_closed_form(self, name):
        build, F, bound = ONE_CDF_LAWS[name]
        d = build()
        rng = np.random.default_rng(3)
        xs = np.concatenate([np.linspace(-40.0, 40.0, 5001), 5.0 * rng.standard_cauchy(4000),
                             np.geomspace(1e-3, 1e6, 500), -np.geomspace(1e-3, 1e6, 499)])
        got = np.array([cdf(d, float(x)) for x in xs])
        assert xs.size == 10_000
        assert max(abs(g - F(float(x))) for x, g in zip(xs, got)) <= bound
        # the array pass behind cdf_distance reads the same values, and at
        # every edge of the partition the CDF is the prefix mass
        assert np.array_equal(_density_cdf(d, xs), got)
        edges, mass, _ = d._partition
        assert np.array_equal(_density_cdf(d, edges[1:-1]), mass[1:-1])

    @pytest.mark.parametrize("name", list(ONE_CDF_LAWS))
    def test_quantile_inverts_cdf(self, name):
        build, F, bound = ONE_CDF_LAWS[name]
        d = build()
        ps = np.concatenate([np.linspace(0.001, 0.999, 199), [1e-9, 1e-6, 0.5, 1 - 1e-6, 1 - 1e-9]])
        for p in ps.tolist():
            q = quantile(d, p)
            assert abs(cdf(d, q) - p) <= 1e-12
            assert abs(F(q) - p) <= bound + 1e-12

    @pytest.mark.parametrize("name", list(ONE_CDF_LAWS))
    def test_every_draw_inverts_its_uniform(self, name):
        build, F, bound = ONE_CDF_LAWS[name]
        d = build()
        n, seed = 10_000, 17
        u = np.random.default_rng(seed).random(n)
        xs = sample(d, n, seed).samples
        assert np.max(np.abs(_density_cdf(d, xs) - u)) <= 1e-12
        assert max(abs(F(float(x)) - p) for x, p in zip(xs, u)) <= bound + 1e-12
        if name in ("cauchy", "t3"):
            assert ks_distance(xs, F) <= dkw_band(n)

    def test_draws_past_one_run_keep_their_order(self):
        # sample inverts its uniforms in runs of 2^15
        d = standard_normal()
        n, seed = (1 << 15) + 1000, 9
        u = np.random.default_rng(seed).random(n)
        assert np.max(np.abs(_density_cdf(d, sample(d, n, seed).samples) - u)) <= 1e-12

    def test_levy_between_shifted_cauchys(self):
        a = cauchy_density()
        b = shift_scale(a, -0.7, 1.0)
        grid = np.linspace(-8.0, 8.0, 321)
        brute = brute_levy(cauchy_cdf, lambda x: cauchy_cdf(x - 0.7), grid, n_eps=2001)
        assert abs(levy_metric(a, b) - brute) <= 2e-3
        assert abs(levy_metric(b, a) - brute) <= 2e-3

    def test_zero_density_gap(self):
        # 1/2 U[0, 1] + 1/2 U[2, 3]: F is 1/2 on [1, 2]
        d = Density(lambda x: 0.5 if 0.0 <= x <= 1.0 or 2.0 <= x <= 3.0 else 0.0, (0.0, 3.0))
        flat = cdf(d, 1.5)
        assert abs(flat - 0.5) <= 1e-10
        for x in (1.0 + 1e-9, 1.25, 1.75, 2.0 - 1e-9):
            assert cdf(d, x) == flat
        # the generalized inverse of the level of a flat stretch is the
        # stretch's left end, and of a level above it the right end (the
        # panel polynomial across the jump at 1 overshoots the flat by 4e-12)
        assert abs(quantile(d, flat) - 1.0) <= 1e-9
        assert abs(quantile(d, flat - 1e-10) - 1.0) <= 1e-9
        assert abs(quantile(d, flat + 1e-10) - 2.0) <= 1e-9
        # the partition's mass is good to 1e-10, and the pdf is 1/2
        assert abs(quantile(d, 0.25) - 0.5) <= 2e-10
        assert abs(quantile(d, 0.75) - 2.5) <= 2e-10
        xs = sample(d, 20_000, seed=4).samples
        assert not np.any((xs > 1.0) & (xs < 2.0))
        assert 0.45 < np.mean(xs < 1.5) < 0.55
        # inside the tiny panel across the jump at 1, where the polynomial
        # wiggles and the seed is poor, Newton and bisection still converge
        edges = d._partition[0]
        k = int(np.searchsorted(edges, 1.0))
        for x in np.linspace(edges[k - 1], edges[k], 9)[1:-1].tolist():
            p = cdf(d, x)
            assert abs(cdf(d, quantile(d, p)) - p) <= 1e-14

    def test_zero_density_gap_between_panel_edges(self):
        # the same law on (-1, 3): the sweep's first bisections put panel
        # edges on 0, 1 and 2, so F is exactly flat on [1, 2]
        d = Density(lambda x: 0.5 if 0.0 <= x <= 1.0 or 2.0 <= x <= 3.0 else 0.0, (-1.0, 3.0))
        flat = cdf(d, 1.5)
        assert cdf(d, 1.0) == cdf(d, 2.0) == flat == 0.5
        assert quantile(d, flat) == 1.0
        # just past the gap the exact inverse is 2 + 2^-52, halfway between
        # two floats: either is correctly rounded
        assert quantile(d, float(np.nextafter(flat, 1.0))) in (2.0, float(np.nextafter(2.0, 3.0)))

    def test_quantile_where_the_pdf_vanishes(self):
        # near 0 the triangle's F is quadratic, so the knot cell's seed is
        # poor and the Newton steps must go on until they converge
        u = Density(lambda x: 1.0, (0.0, 1.0))
        tri = convolve(u, u)
        for p in (1e-12, 1e-10, 1e-8, 1e-6):
            assert abs(cdf(tri, quantile(tri, p)) - p) <= 1e-14

    def test_convolved_partition_starts_at_the_bends(self):
        # the interpolated pdf of N * N bends at every grid node: seeded
        # there, each panel is one straight piece and its Kronrod value exact
        nn = convolve(standard_normal(), standard_normal())
        edges, mass, _ = nn._partition
        assert abs(mass[-1] - 1.0) <= 1e-13
        assert abs(cdf(nn, 0.0) - 0.5) <= 1e-6
        # a triangle is straight but at its peak: two panels, no grid seeds
        u = Density(lambda x: 1.0, (0.0, 1.0))
        tri = convolve(u, u)
        assert tri._partition[0].size <= 4
        assert abs(cdf(tri, 0.5) - 0.125) <= 4.0 / 4095.0  # the grid's first-order error


def _gap_pdf(x):
    return 0.5 if 0.0 <= x <= 1.0 or 2.0 <= x <= 3.0 else 0.0


# (pdf, support) of the laws whose pdf reads are counted
READ_ONCE_LAWS = {
    "normal": (normal_density, (-math.inf, math.inf)),
    "laplace": (lambda x: 0.5 * math.exp(-abs(x)), (-math.inf, math.inf)),
    "exp": (lambda x: math.exp(-x), (0.0, math.inf)),
    "exp_left": (math.exp, (-math.inf, 0.0)),
    "gap": (_gap_pdf, (0.0, 3.0)),
    "t3": (student_t3_pdf, (-math.inf, math.inf)),
    "n100": (lambda x: normal_density(x, 100.0), (-math.inf, math.inf)),
}


def _outcome(op):
    """op()'s value, or the type of the exception it raises."""
    try:
        return op()
    except Exception as exc:
        return type(exc)


class TestNodeStore:
    """Every pdf value a Density reads comes from one node store: the
    partition's sweep at construction fills it, and moments,
    integral_against and charfun read it, evaluating only the nodes it
    lacks."""

    @pytest.mark.parametrize("name", list(READ_ONCE_LAWS))
    def test_each_node_read_once(self, name):
        f, support = READ_ONCE_LAWS[name]
        xs = []

        def pdf(x):
            xs.append(x)
            return f(x)

        d = Density(pdf, support)
        mean(d), variance(d)
        integral_against(math.cos, d)
        integral_against(lambda x: 1.0 / (1.0 + x * x), d)
        for tol in (1e-8, 1e-12):
            for t in np.linspace(-10.0, 10.0, 21).tolist():
                charfun(d, t, tol)
        assert len(xs) == len(set(xs))

    @pytest.mark.parametrize("name", list(ONE_CDF_LAWS) + ["uniform_sum", "shift_scale"])
    def test_integrals_match_a_sweep_of_the_product(self, name):
        # the sweep that integrates g * pdf node by node, read against the
        # library's product of g at the nodes with the stored pdf values
        if name == "uniform_sum":
            u = Density(lambda x: 1.0, (0.0, 1.0))
            d = convolve(u, u)
        elif name == "shift_scale":
            d = shift_scale(laplace_density(), 0.7, -1.3)
        else:
            d = ONE_CDF_LAWS[name][0]()
        edges, mass, _ = d._partition
        reach = float(np.abs(edges[np.searchsorted(mass, [0.25, 0.75])]).max())

        def swept(g, tol):
            product = partial(_f_at_nodes, lambda x: g(x) * d.pdf(x))
            return _sweep(product, *d.support, tol, edges, reach=reach)[0]

        m = _outcome(lambda: swept(lambda x: x, _MOMENT_TOL))
        assert _outcome(lambda: mean(d)) == m
        if isinstance(m, float):
            v = _outcome(lambda: swept(lambda x: (x - m) ** 2, _MOMENT_TOL))
            assert _outcome(lambda: variance(d)) == v
        for g in (math.cos, lambda x: 1.0 / (1.0 + x * x), math.tanh):
            assert _outcome(lambda: integral_against(g, d)) == _outcome(lambda: swept(g, 1e-9))

    def test_store_starts_with_the_partition_panels(self):
        # the panels the partition's sweep bisected stay out: no later sweep
        # reads them, and they would take the room later calls keep nodes in
        for f, support in READ_ONCE_LAWS.values():
            d = Density(f, support)
            edges = d._partition[0]
            assert list(d._node_store) == list(zip(edges[:-1].tolist(), edges[1:].tolist()))

    def test_partition_peak_memory(self):
        # a 200-bin histogram: the sweep settles on 5,453 panels after reading
        # about twice as many.  Recorded as whole arrays per round, with keys
        # only for the final panels, the peak stays under 5.3 MB; a row view
        # and a key per panel read took it to 6.4 MB.
        bins = 200
        w = np.random.default_rng(1).random(bins)
        w = (w / w.sum() * bins).tolist()

        def pdf(x):
            return w[min(int(x * bins), bins - 1)] if 0.0 <= x < 1.0 else 0.0

        tracemalloc.start()
        try:
            d = Density(pdf, (0.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d._partition[2].shape[0] > 5000
        assert peak < 5.3e6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_product_named(self):
        # g and the pdf are finite, their product is not: ValueError naming
        # the first such node, and no overflow warning
        with pytest.raises(ValueError, match=r"non-finite value near x=-0\.162135"):
            integral_against(lambda x: 1.7e308, normal(0.0, 0.01))


class TestNormalDensity:
    def test_standard_at_zero(self):
        assert abs(normal_density(0.0) - 1.0 / math.sqrt(2 * math.pi)) < 1e-15

    def test_shifted_scaled_peak(self):
        assert abs(normal_density(5.0, m=5.0, sigma2=4.0)
                   - 1.0 / (2.0 * math.sqrt(2 * math.pi))) < 1e-15

    def test_one_sigma(self):
        assert abs(normal_density(1.0)
                   - math.exp(-0.5) / math.sqrt(2 * math.pi)) < 1e-15

    def test_invalid_variance(self):
        with pytest.raises(ValueError):
            normal_density(0.0, sigma2=0.0)
        with pytest.raises(ValueError):
            normal(0.0, -1.0)


class TestConvolve:
    def test_coin_squared(self):
        out = convolve(rademacher(), rademacher())
        assert list(out.points) == [-2.0, 0.0, 2.0]
        assert np.allclose(out.weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_point_mass_identity(self):
        mu = fair_die()
        out = convolve(mu, point_mass(0.0))
        assert np.array_equal(out.points, mu.points)
        assert np.allclose(out.weights, mu.weights, atol=1e-15)

    def test_two_dice(self):
        out = convolve(fair_die(), fair_die())
        assert list(out.points) == list(range(2, 13))
        assert abs(atom_mass(out, 7.0) - 6.0 / 36.0) < 1e-15
        assert abs(atom_mass(out, 2.0) - 1.0 / 36.0) < 1e-15

    def test_lattice_points_exact(self):
        # merged lattice atoms must stay on the integers bit-exactly
        acc = fair_die()
        for _ in range(5):
            acc = convolve(acc, fair_die())
        assert np.array_equal(acc.points, np.arange(6.0, 37.0))

    def test_commutative_associative(self):
        a = Discrete.from_pairs([(0.0, 0.3), (1.0, 0.7)])
        b = Discrete.from_pairs([(-2.0, 0.5), (2.0, 0.5)])
        c = fair_die()
        ab, ba = convolve(a, b), convolve(b, a)
        assert np.array_equal(ab.points, ba.points)
        assert np.allclose(ab.weights, ba.weights, atol=1e-12)
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        assert np.array_equal(left.points, right.points)
        assert np.allclose(left.weights, right.weights, atol=1e-12)

    def test_underflowed_pair_weight_dropped(self):
        # 1e-200 squared underflows to 0.0: the sum 0 + 0 is no atom
        mu = Discrete(np.array([0.0, 1.0, 1.0 + math.sqrt(2.0)]),
                      np.array([1e-200, 0.6 - 1e-200, 0.4]))
        out = convolve(mu, mu)
        assert out.points.size == 5 and out.points[0] == 1.0
        assert abs(out.weights.sum() - 1.0) <= 1e-15

    def test_mixed_pair_rejected(self):
        with pytest.raises(ValueError):
            convolve(rademacher(), standard_normal())

    def test_density_convolution(self):
        out = convolve(standard_normal(), standard_normal())
        # N(0,1) * N(0,1) = N(0,2)
        root2 = math.sqrt(2.0)
        for x in (-2.0, -0.5, 0.0, 1.0, root2):
            assert abs(cdf(out, x) - normal_cdf(x / root2)) < 1e-5
        assert abs(mean(out)) < 1e-6
        assert abs(variance(out) - 2.0) < 1e-4

    @given(discrete_dists(max_atoms=4), discrete_dists(max_atoms=4))
    @settings(max_examples=40, deadline=None)
    def test_moment_additivity(self, a, b):
        out = convolve(a, b)
        assert abs(mean(out) - (mean(a) + mean(b))) < 1e-9
        assert abs(variance(out) - (variance(a) + variance(b))) < 1e-9


class TestShiftScale:
    def test_identity(self):
        mu = fair_die()
        out = shift_scale(mu, 0.0, 1.0)
        assert np.array_equal(out.points, mu.points)

    def test_point_mass(self):
        out = shift_scale(point_mass(5.0), 5.0, 2.0)
        assert list(out.points) == [0.0]

    def test_coin_halved(self):
        out = shift_scale(rademacher(), 0.0, 2.0)
        assert list(out.points) == [-0.5, 0.5]

    def test_negative_scale_reverses(self):
        mu = Discrete.from_pairs([(0.0, 0.3), (1.0, 0.7)])
        out = shift_scale(mu, 0.0, -1.0)
        assert list(out.points) == [-1.0, 0.0]
        assert list(out.weights) == [0.7, 0.3]

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            shift_scale(rademacher(), 0.0, 0.0)

    def test_merging_map_rejected(self):
        # both atoms underflow to 0.0 after the division
        mu = Discrete(np.array([1e-300, 2e-300]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            shift_scale(mu, 0.0, 1e300)

    def test_density_shift_scale(self):
        mu = shift_scale(standard_normal(), -1.0, 2.0)  # (X+1)/2 ~ N(0.5, 0.25)
        assert abs(mean(mu) - 0.5) < 1e-6
        assert abs(variance(mu) - 0.25) < 1e-6
        assert abs(cdf(mu, 0.5) - 0.5) < 1e-7


def uncut_convolve_slots(a, b):
    """Reference lattice product without the direct-product cut: direct
    products keep every slot, only the FFT branch cuts its sub-floor ends."""
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


def seeded_lattice(width, seed):
    """The integers 0..width with weights drawn from uniform(1, 3), centred."""
    w = np.random.default_rng(seed).uniform(1.0, 3.0, size=width + 1)
    return center(Discrete(np.arange(width + 1.0), w / w.sum()))


def benchmark_like_lattice(inner, seed):
    """Four atoms {0, i, j, 5}, light ends and heavy middle."""
    rng = np.random.default_rng(seed)
    w = np.concatenate([rng.uniform(1.0, 1.2, size=1), rng.uniform(1.6, 2.0, size=2),
                        rng.uniform(1.0, 1.2, size=1)])
    return Discrete(np.array([0.0, *inner, 5.0]), w / w.sum())


def assert_power_matches_uncut(base, n):
    """_lattice_power of base against the uncut reference powering: the
    CDFs agree within 1e-14 at every slot either keeps, and the pre-rescale
    masses within 1e-13."""
    span = _lattice_span(base.points)
    slots, wts = _lattice_power(base, n, span, _MAX_ATOMS)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(distributions, "_convolve_slots", uncut_convolve_slots)
        ref_slots, ref_wts = _lattice_power(base, n, span, _MAX_ATOMS)
    at = np.union1d(slots, ref_slots)

    def cdf_at(k, w):
        cum = np.concatenate([[0.0], np.cumsum(w / w.sum())])
        return cum[np.searchsorted(k, at, side="right")]

    assert np.abs(cdf_at(slots, wts) - cdf_at(ref_slots, ref_wts)).max() <= 1e-14
    # the base's own mass drifts by rounding through the powering (2.8e-13 at
    # die n = 10^4, on either path), so the reference is the pre-cut powering
    assert abs(wts.sum() - ref_wts.sum()) <= 1e-13


class TestIidSumNormalized:
    def test_n1_identity(self):
        mu = iid_sum_normalized(rademacher(), 1)
        assert np.array_equal(mu.points, rademacher().points)

    def test_n2(self):
        mu = iid_sum_normalized(rademacher(), 2)
        root2 = math.sqrt(2.0)
        assert np.allclose(mu.points, [-root2, 0.0, root2], atol=1e-15)
        assert np.allclose(mu.weights, [0.25, 0.5, 0.25], atol=1e-15)

    def test_n4_pascal(self):
        mu = iid_sum_normalized(rademacher(), 4)
        assert np.allclose(mu.weights, np.array([1, 4, 6, 4, 1]) / 16.0, atol=1e-15)
        assert np.allclose(mu.points, [-2.0, -1.0, 0.0, 1.0, 2.0], atol=1e-15)

    def test_moments_normalized(self):
        from cltlab.clt import center
        for base in (rademacher(), center(fair_die())):
            for n in (1, 2, 3, 5, 16):
                mu = iid_sum_normalized(base, n)
                assert abs(mean(mu)) <= 1e-9
                assert abs(variance(mu) - 1.0) <= 1e-6

    def test_nonzero_mean_rejected(self):
        mu = Discrete.from_pairs([(0.0, 0.3), (1.0, 0.7)])
        with pytest.raises(ValueError):
            iid_sum_normalized(mu, 2)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            iid_sum_normalized(point_mass(0.0), 2)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            iid_sum_normalized(rademacher(), 0)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            iid_sum_normalized(rademacher(), 64, max_atoms=10)

    def test_slot_cap_checked_before_work(self):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError):
            iid_sum_normalized(rademacher(), 10**7)
        assert time.perf_counter() - start < 0.5

    def test_nonlattice_reaches_count_vector_cap(self):
        base = center(Discrete(np.array([0.0, 1.0, 1.0 + math.sqrt(2.0)]),
                               np.array([0.5, 0.3, 0.2])))
        for n in (256, 1412):  # C(1414, 2) = 998,991 count vectors
            mu = iid_sum_normalized(base, n)
            root = math.sqrt(n * variance(base))
            for t in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
                phi = np.sum(base.weights * np.exp(1j * base.points * (t / root))) ** n
                assert abs(charfun(mu, t) - phi) <= 1e-9
            assert abs(mean(mu)) <= 1e-12
            assert abs(variance(mu) - 1.0) <= 1e-12
            Discrete(mu.points, mu.weights)  # the public checks hold
        with pytest.raises(SizeLimitError):
            iid_sum_normalized(base, 1413)  # C(1415, 2) = 1,000,405

    def test_count_vector_cap_matches_comb(self):
        for n in (1, 2, 5, 40, 1412, 1413, 10**9):
            for k in (2, 3, 7, 50):
                count = math.comb(n + k - 1, k - 1)
                assert _count_vectors_within(n, k, count)
                assert not _count_vectors_within(n, k, count - 1)
                assert _count_vectors_within(n, k, 10**6) == (count <= 10**6)

    @settings(deadline=None)
    @given(discrete_dists(max_atoms=5), st.integers(1, 40), st.data())
    def test_count_vectors_match_pair_path(self, base, n, data):
        assume(base.points.size >= 2)
        # the pair-path reference's cost grows with the count vectors: bound
        # them (this drops n > 23 on five atoms; n = 256 and 1412 are checked
        # in test_nonlattice_reaches_count_vector_cap)
        k = base.points.size
        assume(math.comb(n + k - 1, k - 1) <= 20_000)
        # one or two atoms moved by distinct irrationals
        moved = data.draw(st.lists(st.integers(0, base.points.size - 1), min_size=1,
                                   max_size=2, unique=True))
        shifts = data.draw(st.permutations([math.sqrt(2.0), math.sqrt(3.0), math.pi]))
        pts = base.points.copy()
        pts[moved] += shifts[:len(moved)]
        order = np.argsort(pts)
        base = Discrete(pts[order], base.weights[order])
        assume(_pair_sums_distinct(base.points))
        counted = _multinomial_power(base, n)
        pair = _binary_power(base, n, _convolve_discrete)
        assert counted.points.size == pair.points.size
        scale = float(np.abs(pair.points).max())
        assert np.abs(counted.points - pair.points).max() <= 1e-12 * scale
        assert np.abs(np.cumsum(counted.weights) - np.cumsum(pair.weights)).max() <= 1e-12

    def test_routing_by_pair_sums(self):
        # 1 + 3 = 2 + 2: coincident pair sums keep the pair path, bit for bit
        base = center(Discrete(np.array([1.0, 2.0, 3.0, math.pi, 4.0, 5.0, 6.0]),
                               np.full(7, 1.0 / 7.0)))
        n = 26
        mu = iid_sum_normalized(base, n)
        pair = shift_scale(_binary_power(base, n, _convolve_discrete), 0.0,
                           math.sqrt(n * variance(base)))
        assert np.array_equal(mu.points, pair.points)
        assert np.array_equal(mu.weights, pair.weights)
        # distinct pair sums, but 1 + 1 + 1 = 0 + 0 + 3: count vectors merge
        base = center(Discrete(np.array([0.0, 1.0, 3.0, 3.0 + math.sqrt(2.0)]),
                               np.array([0.4, 0.3, 0.2, 0.1])))
        assert _pair_sums_distinct(base.points)
        for n in (3, 8, 20):
            mu = iid_sum_normalized(base, n)
            pair = _binary_power(base, n, _convolve_discrete)
            assert mu.points.size == pair.points.size < math.comb(n + 3, 3)
            assert np.abs(np.cumsum(mu.weights) - np.cumsum(pair.weights)).max() <= 1e-12
        # past the count-vector cap the pair path raises, as before
        base = center(Discrete(np.array([0.0, 1.0, 1.0 + math.sqrt(2.0)]),
                               np.array([0.5, 0.3, 0.2])))
        with pytest.raises(SizeLimitError):
            iid_sum_normalized(base, 8, max_atoms=10)

    def test_lattice_span(self):
        assert _lattice_span(np.array([0.0, 2.0, 5.0])) == 1.0
        assert _lattice_span(np.array([-1.0, 1.0])) == 2.0
        assert _lattice_span(np.arange(1.0, 7.0) - 3.5) == 1.0
        assert _lattice_span(np.array([0.0, 1.0, 1.0 + math.sqrt(2.0)])) is None

    def test_coin_large_n_matches_binomial(self):
        n = 10**4
        mu = iid_sum_normalized(rademacher(), n)
        F = coin_sum_cdf(n)
        for x in default_grid(standard_normal()):
            v = cdf(mu, x)
            assert min(abs(v - side) for side in F(x)) <= 1e-10

    def test_die_large_n_charfun_and_moments(self):
        base = center(fair_die())
        n = 10**4
        mu = iid_sum_normalized(base, n)
        root = math.sqrt(n * variance(base))
        for t in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
            phi = np.sum(base.weights * np.exp(1j * base.points * (t / root))) ** n
            assert abs(charfun(mu, t) - phi) <= 1e-9
        assert abs(mean(mu)) <= 1e-12
        assert abs(variance(mu) - 1.0) <= 1e-12
        Discrete(mu.points, mu.weights)  # the public checks hold

    @pytest.mark.parametrize("base, n", [
        (rademacher(), 999_999),
        (center(fair_die()), 199_999),
        (seeded_lattice(10, 10), 99_999),
        (seeded_lattice(30, 30), 33_333),
        (seeded_lattice(60, 60), 16_666),
    ], ids=["coin", "die", "width10", "width30", "width60"])
    def test_documented_caps(self, base, n):
        # n * width + 1 slots: the largest n under the 10^6-slot cap
        mu = iid_sum_normalized(base, n)
        Discrete(mu.points, mu.weights)  # the public checks hold
        assert abs(math.fsum(mu.weights) - 1.0) <= 1e-12
        with pytest.raises(SizeLimitError):
            iid_sum_normalized(base, n + 1)

    @pytest.mark.parametrize("n", [1024, 1500, 4096, 7777, 10_000])
    def test_direct_cut_matches_uncut_powering(self, n):
        assert_power_matches_uncut(rademacher(), n)
        assert_power_matches_uncut(center(fair_die()), n)
        for seed, inner in enumerate([(1, 2), (1, 4), (2, 3), (3, 4)]):
            assert_power_matches_uncut(benchmark_like_lattice(inner, seed), n)

    @settings(deadline=None, max_examples=20)
    @given(discrete_dists(), st.integers(1, 10_000))
    def test_direct_cut_matches_uncut_powering_on_lattices(self, base, n):
        assume(base.points.size >= 2)
        assert_power_matches_uncut(base, n)

    @pytest.mark.parametrize("base, n", [
        (rademacher(), 10_000),
        (rademacher(), 999_999),
        (center(fair_die()), 10_000),
        (center(fair_die()), 199_999),
    ], ids=["coin-1e4", "coin-cap", "die-1e4", "die-cap"])
    def test_charfun_matches_closed_form(self, base, n):
        mu = iid_sum_normalized(base, n)
        for t in CltExperiment(base, ns=(n,)).t_grid:
            phi = symmetric_sum_charfun(base.points, base.weights, n, t)
            assert abs(charfun(mu, t) - phi) <= 1e-14

    @settings(deadline=None)
    @given(discrete_dists(), st.integers(1, 64))
    def test_lattice_path_matches_pair_path(self, base, n):
        assume(base.points.size >= 2)
        span = _lattice_span(base.points)
        slots, wts = _lattice_power(base, n, span, 10**6)
        lattice = dict(zip(n * base.points[0] + span * slots, wts))
        pair = _binary_power(base, n, _convolve_discrete)
        assert set(lattice) <= set(pair.points)
        for p, w in zip(pair.points, pair.weights):
            assert abs(lattice.get(p, 0.0) - w) <= 1e-15


class TestSample:
    def test_point_mass(self):
        e = sample(point_mass(0.0), 5, seed=3)
        assert list(e.samples) == [0.0] * 5

    def test_determinism(self):
        a = sample(fair_die(), 1000, seed=42)
        b = sample(fair_die(), 1000, seed=42)
        assert np.array_equal(a.samples, b.samples)
        c = sample(fair_die(), 1000, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_normal_sample_mean(self):
        e = sample(standard_normal(), 10_000, seed=1)
        assert abs(float(np.mean(e.samples))) < 0.05

    def test_dkw_style_convergence(self):
        # empirical CDF sup distance shrinks like 1.5/sqrt(n)
        for n in (100, 10_000):
            e = sample(fair_die(), n, seed=11)
            worst = max(abs(cdf(e, float(x)) - cdf(fair_die(), float(x)))
                        for x in fair_die().points)
            assert worst <= 1.5 / math.sqrt(n)

    def test_density_sampling_matches_erf(self):
        e = sample(standard_normal(), 10_000, seed=5)
        xs = np.linspace(-4.0, 4.0, 201)
        ecdf = [cdf(e, float(x)) for x in xs]
        worst = max(abs(float(c) - normal_cdf(float(x))) for x, c in zip(xs, ecdf))
        assert worst <= 1.5 / math.sqrt(10_000)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample(rademacher(), 0, seed=0)

    def test_draws_kept_in_order(self):
        u = np.random.default_rng(42).random(50)
        e = sample(fair_die(), 50, seed=42)
        assert list(e.samples) == [quantile(fair_die(), float(p)) for p in u]


class TestDiscontinuityAndAtoms:
    def test_discrete(self):
        assert discontinuity_points(rademacher()) == [-1.0, 1.0]

    def test_density_empty(self):
        assert discontinuity_points(standard_normal()) == []

    def test_empirical(self):
        assert discontinuity_points(Empirical(np.array([1.0, 1.0, 2.0]))) == [1.0, 2.0]

    def test_atom_mass(self):
        assert atom_mass(rademacher(), 1.0) == 0.5
        assert atom_mass(rademacher(), 0.5) == 0.0
        assert atom_mass(standard_normal(), 0.0) == 0.0
        e = Empirical(np.array([1.0, 1.0, 2.0]))
        assert atom_mass(e, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)


class TestSerialization:
    def test_round_trip_exact(self):
        mu = iid_sum_normalized(rademacher(), 8)
        buf = io.StringIO()
        save_discrete(mu, buf)
        buf.seek(0)
        back = load_discrete(buf)
        assert np.array_equal(back.points, mu.points)
        assert np.array_equal(back.weights, mu.weights)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "die.csv"
        save_discrete(fair_die(), path)
        back = load_discrete(path)
        assert np.array_equal(back.points, fair_die().points)

    def test_header_required(self):
        buf = io.StringIO("1.0,1.0\n")
        with pytest.raises(ValueError):
            load_discrete(buf)

    def test_malformed_line(self):
        buf = io.StringIO("# discrete-dist v1\n1.0\n")
        with pytest.raises(ValueError) as err:
            load_discrete(buf)
        assert "line 2" in str(err.value)


class TestEmpiricalIsDiscrete:
    # N = 8: the weights k/8 are dyadic, so the Discrete's running sum of
    # weights is exactly the Empirical's count table
    SAMPLE = np.array([2.5, -1.0, 2.5, 0.0, 4.0, -1.0, 2.5, 7.0])

    def pair(self):
        e = Empirical(self.SAMPLE)
        pts, counts = np.unique(self.SAMPLE, return_counts=True)
        return e, Discrete(pts, counts / self.SAMPLE.size)

    def test_same_values(self):
        e, d = self.pair()
        assert isinstance(e, Discrete)
        xs = [-2.0, -1.0, -0.5, 0.0, 1.0, 2.5, 3.0, 7.0, 8.0]
        assert [cdf(e, x) for x in xs] == [cdf(d, x) for x in xs]
        assert [atom_mass(e, x) for x in xs] == [atom_mass(d, x) for x in xs]
        ps = [0.1, 0.25, 0.3, 0.375, 0.5, 0.625, 0.875, 0.9]
        assert [quantile(e, p) for p in ps] == [quantile(d, p) for p in ps]
        assert discontinuity_points(e) == discontinuity_points(d)
        for other in (standard_normal(), rademacher()):
            assert levy_metric(e, other) == levy_metric(d, other)
            assert levy_metric(other, e) == levy_metric(other, d)
        probe = ConvergenceProbe(standard_normal(), tuple(np.linspace(-3.0, 8.0, 23)))
        assert cdf_distance(e, probe) == cdf_distance(d, probe)
        for t in (0.5, 1.0, 3.0):
            assert abs(charfun(e, t) - charfun(d, t)) <= 1e-15
        assert abs(mean(e) - mean(d)) <= 1e-15
        assert abs(variance(e) - variance(d)) <= 1e-15

    def test_convolve_with_discrete(self):
        e, d = self.pair()
        s = convolve(e, rademacher())
        ref = convolve(d, rademacher())
        assert np.array_equal(s.points, ref.points)
        assert np.array_equal(s.weights, ref.weights)

    def test_save_load_round_trip(self):
        e, d = self.pair()
        buf = io.StringIO()
        save_discrete(e, buf)
        buf.seek(0)
        back = load_discrete(buf)
        assert np.array_equal(back.points, d.points)
        assert np.array_equal(back.weights, d.weights)

    def test_clt_experiment_base(self):
        e, d = self.pair()
        rows = run_clt(CltExperiment(e, ns=(1, 2, 4, 8))).rows
        assert rows == run_clt(CltExperiment(d, ns=(1, 2, 4, 8))).rows
