import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cltlab import weak_convergence
from cltlab.clt import _mc_normalized_sum, center
from cltlab.distributions import (
    Density,
    Discrete,
    Empirical,
    cdf,
    convolve,
    fair_die,
    iid_sum_normalized,
    normal,
    point_mass,
    quantile,
    rademacher,
    standard_normal,
)
from cltlab.errors import AtomOnGridError
from cltlab.weak_convergence import (
    BoundaryCheck,
    ConvergenceProbe,
    boundary_null_check,
    cdf_distance,
    default_grid,
    default_probe,
    default_test_fns,
    integral_against,
    levy_metric,
    portmanteau_testfn,
    _LEVY_SLACK,
    _cdf_evaluator,
)
from cltlab.weak_convergence import TestFn as BoundedFn
from oracles import brute_levy, corridor_xs, discrete_dists, normal_cdf, step_cdf


class TestProbe:
    def test_atom_on_grid_rejected(self):
        with pytest.raises(AtomOnGridError):
            ConvergenceProbe(point_mass(0.0), (-1.0, 0.0, 1.0))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ConvergenceProbe(point_mass(0.0), ())

    def test_nonfinite_grid_rejected(self):
        with pytest.raises(ValueError):
            ConvergenceProbe(point_mass(0.0), (1.0, float("inf")))

    def test_bound_violation_rejected(self):
        bad = BoundedFn(lambda x: x * x, 1.0, (-2.0, 2.0))
        with pytest.raises(ValueError):
            ConvergenceProbe(point_mass(0.0), (1.0,), (bad,))

    def test_bounded_on_declared_domain_accepted(self):
        ok = BoundedFn(lambda x: x * x, 1.0, (-1.0, 1.0))
        probe = ConvergenceProbe(point_mass(0.0), (1.0,), (ok,))
        assert probe.test_fns[0].bound == 1.0

    def test_default_test_fns_all_bounded_by_one(self):
        for f in default_test_fns():
            assert f.bound == 1.0
            xs = np.linspace(f.domain[0], f.domain[1], 501)
            assert max(abs(f.fn(float(x))) for x in xs) <= 1.0 + 1e-12

    def test_default_grid_discrete(self):
        assert default_grid(fair_die()) == (0.0, 1.5, 2.5, 3.5, 4.5, 5.5, 7.0)

    def test_default_grid_density(self):
        g = default_grid(standard_normal())
        assert len(g) == 101
        assert abs(g[0] + 8.0) < 1e-6 and abs(g[-1] - 8.0) < 1e-6
        assert abs(g[50]) < 1e-9
        probe = default_probe(standard_normal())
        assert probe.grid == g


class TestCdfDistance:
    def test_limit_against_itself(self):
        probe = default_probe(point_mass(0.0))
        assert cdf_distance(point_mass(0.0), probe) == 0.0

    def test_point_mass_sequence(self):
        probe = ConvergenceProbe(point_mass(0.0), (-1.0, -0.1, 0.1, 1.0))
        for n in (10, 100, 1000):
            assert cdf_distance(point_mass(1.0 / n), probe) == 0.0

    def test_excluded_point_never_converges(self):
        limit = point_mass(0.0)
        for n in (10, 100, 1000):
            gap = abs(cdf(point_mass(1.0 / n), 0.0) - cdf(limit, 0.0))
            assert gap == 1.0

    def test_empirical_argument(self):
        probe = default_probe(rademacher())
        e = Empirical(np.array([-1.0, -1.0, 1.0, 1.0]))
        assert cdf_distance(e, probe) == 0.0

    @pytest.mark.parametrize("mu", [
        iid_sum_normalized(rademacher(), 16),
        iid_sum_normalized(rademacher(), 1),
        iid_sum_normalized(center(fair_die()), 8),
        Empirical(np.random.default_rng(5).integers(-4, 5, size=300) / 3.0),
    ])
    def test_discrete_matches_scalar_cdf_loop(self, mu):
        pts = mu.points
        grid = np.concatenate([
            pts,  # exactly on every atom
            np.nextafter(pts, -np.inf), np.nextafter(pts, np.inf),
            0.5 * (pts[1:] + pts[:-1]),
            [pts[0] - 1.0, pts[0] - 1e-9, pts[-1] + 1e-9, pts[-1] + 3.0],
        ])
        probe = ConvergenceProbe(standard_normal(), tuple(grid))
        want = 0.0
        for g in probe.grid:
            want = max(want, abs(cdf(mu, g) - cdf(standard_normal(), g)))
        assert cdf_distance(mu, probe) == want


def counting_normal():
    """A standard normal Density whose pdf counts its evaluations."""
    calls = [0]

    def pdf(x):
        calls[0] += 1
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    return Density(pdf, (-math.inf, math.inf)), calls


class TestCachedLimitSide:
    def test_probe_construction_is_lazy(self):
        d, calls = counting_normal()
        grid = default_grid(d)
        before = calls[0]
        ConvergenceProbe(d, grid)
        assert calls[0] == before

    def test_second_cdf_distance_reuses_limit_cdf(self):
        d, calls = counting_normal()
        probe = default_probe(d)
        mu = iid_sum_normalized(rademacher(), 16)
        first = cdf_distance(mu, probe)
        before = calls[0]
        assert cdf_distance(mu, probe) == first
        assert calls[0] == before

    def test_second_levy_metric_reuses_table(self):
        d, calls = counting_normal()
        first = levy_metric(d, standard_normal())
        before = calls[0]
        assert levy_metric(d, standard_normal()) == first
        assert calls[0] == before


class TestPortmanteauTestFn:
    def test_identical(self):
        probe = default_probe(fair_die())
        assert max(portmanteau_testfn(fair_die(), probe)) <= 1e-9

    def test_clamp_sees_small_shift(self):
        probe = default_probe(point_mass(0.0))
        gaps = portmanteau_testfn(point_mass(1.0 / 64), probe)
        assert abs(gaps[0] - 1.0 / 64) < 1e-15  # clamp(x,0,1) gap is exactly 1/n

    def test_truncated_square_sees_coin(self):
        fn = BoundedFn(lambda x: x * x, 1.0, (-1.0, 1.0))
        probe = ConvergenceProbe(point_mass(0.0), (0.5,), (fn,))
        gaps = portmanteau_testfn(rademacher(), probe)
        assert abs(gaps[0] - 1.0) < 1e-15

    def test_integral_against_normal_clamp(self):
        # int clamp(x,0,1) dN(0,1) = phi(0) - phi(1) + (1 - Phi(1))
        expect = (math.exp(0.0) - math.exp(-0.5)) / math.sqrt(2 * math.pi) \
            + (1.0 - normal_cdf(1.0))
        clamp = default_test_fns()[0]
        got = integral_against(clamp.fn, standard_normal())
        assert abs(got - expect) < 1e-8

    def test_integral_against_empirical(self):
        e = Empirical(np.array([0.0, 1.0, 2.0]))
        got = integral_against(math.cos, e)
        assert abs(got - (1.0 + math.cos(1.0) + math.cos(2.0)) / 3.0) < 1e-15


class TestBoundaryNullCheck:
    def test_normal_limit_no_boundary_mass(self):
        out = boundary_null_check(rademacher(), standard_normal(), [(-1.96, 1.96)])
        assert out.boundary_mass == 0.0
        assert out.mu_value == 1.0
        assert abs(out.limit_value - normal_cdf(1.96) + normal_cdf(-1.96)) < 1e-8

    def test_atom_on_boundary_recorded(self):
        out = boundary_null_check(point_mass(0.5), point_mass(0.0), [(0.0, 1.0)])
        assert out.boundary_mass == 1.0

    def test_point_mass_sequence_interval(self):
        out = boundary_null_check(point_mass(0.01), point_mass(0.0), [(-1.0, 1.0)])
        assert out == BoundaryCheck(1.0, 1.0, 0.0)

    def test_union_of_intervals(self):
        out = boundary_null_check(fair_die(), fair_die(), [(0.5, 2.5), (4.5, 6.5)])
        assert abs(out.mu_value - 4.0 / 6.0) < 1e-12
        assert out.boundary_mass == 0.0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            boundary_null_check(rademacher(), point_mass(0.0), [(0.0, 2.0), (1.0, 3.0)])

    def test_touching_intervals_allowed(self):
        out = boundary_null_check(fair_die(), fair_die(), [(0.5, 1.5), (1.5, 2.5)])
        assert abs(out.mu_value - 2.0 / 6.0) < 1e-12

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            boundary_null_check(rademacher(), point_mass(0.0), [(2.0, 1.0)])


class TestLevyMetric:
    def test_identical(self):
        assert levy_metric(rademacher(), rademacher()) == 0.0
        assert levy_metric(standard_normal(), standard_normal()) == 0.0

    def test_two_point_masses(self):
        # definition scan: for point masses delta apart the metric is min(delta, 1)
        delta, tol = 0.1, 1e-5
        v = levy_metric(point_mass(0.0), point_mass(delta), tol=tol)
        assert delta / 2.0 - tol <= v <= delta + tol
        F, G = step_cdf(point_mass(0.0)), step_cdf(point_mass(delta))
        brute = brute_levy(F, G, corridor_xs(point_mass(0.0), point_mass(delta)))
        assert abs(v - brute) < 1e-4 + tol

    def test_point_mass_sequence_shrinks(self):
        prev = 1.0
        for n in (2, 10, 100):
            v = levy_metric(point_mass(1.0 / n), point_mass(0.0), tol=1e-6)
            assert v <= 1.0 / n + 1e-6
            assert v < prev
            prev = v

    def test_matches_brute_scan_on_step_pairs(self):
        pairs = [
            (rademacher(), point_mass(0.0)),
            (fair_die(), rademacher()),
            (iid_sum_normalized(rademacher(), 4), rademacher()),
            (Discrete.from_pairs([(0.0, 0.3), (1.0, 0.7)]), point_mass(0.5)),
        ]
        for mu, nu in pairs:
            v = levy_metric(mu, nu, tol=1e-5)
            brute = brute_levy(step_cdf(mu), step_cdf(nu), corridor_xs(mu, nu))
            assert abs(v - brute) < 2e-4, (v, brute)

    def test_against_normal_brute(self):
        v = levy_metric(point_mass(0.0), standard_normal(), tol=1e-5)
        F = step_cdf(point_mass(0.0))
        xs = np.linspace(-6.0, 6.0, 2001)
        brute = brute_levy(F, normal_cdf, xs, n_eps=2001)
        assert abs(v - brute) < 2e-3

    @pytest.mark.parametrize("mu", [
        iid_sum_normalized(rademacher(), 16),
        iid_sum_normalized(center(fair_die()), 8),
    ])
    def test_discrete_against_normal_brute(self, mu):
        v = levy_metric(mu, standard_normal(), tol=1e-5)
        # the atoms themselves are scan points, so the brute scan sees the
        # left limits where the corridor binds
        xs = np.union1d(np.linspace(-6.0, 6.0, 2001), mu.points)
        brute = brute_levy(step_cdf(mu), normal_cdf, xs, n_eps=2001)
        assert abs(v - brute) < 2e-3

    def test_readme_coin_value_pinned(self):
        s = iid_sum_normalized(rademacher(), 64)
        assert levy_metric(s, standard_normal()) == 0.0355224609375

    def test_symmetry(self):
        tol = 1e-5
        for mu, nu in [(rademacher(), fair_die()),
                       (point_mass(0.0), standard_normal())]:
            assert abs(levy_metric(mu, nu, tol) - levy_metric(nu, mu, tol)) <= 2 * tol

    def test_triangle_inequality_family(self):
        tol = 1e-4
        family = [
            rademacher(),
            fair_die(),
            point_mass(0.0),
            point_mass(0.3),
            Discrete.from_pairs([(-2.0, 0.5), (2.0, 0.5)]),
            iid_sum_normalized(rademacher(), 4),
        ]
        import itertools
        d = {}
        for i, j in itertools.combinations(range(len(family)), 2):
            d[i, j] = d[j, i] = levy_metric(family[i], family[j], tol)
        for i, j, k in itertools.permutations(range(len(family)), 3):
            assert d[i, j] <= d[i, k] + d[k, j] + 3 * tol

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            levy_metric(rademacher(), fair_die(), tol=0.0)
        for bad in (float("inf"), float("nan"), 0, -1):
            with pytest.raises(ValueError, match="positive finite number"):
                levy_metric(iid_sum_normalized(rademacher(), 16), standard_normal(), tol=bad)

    def test_empirical_pair(self):
        e = Empirical(np.array([-1.0, -1.0, 1.0, 1.0]))
        assert levy_metric(e, rademacher()) == 0.0


def _four_term_levy(mu, nu, tol):
    """levy_metric as first written: all four corridor terms over both
    sides' breakpoints at every bisection step, nothing pruned."""
    F = _cdf_evaluator(mu)
    G = _cdf_evaluator(nu)
    bf = F.breakpoints
    bg = G.breakpoints
    g_at_bg, g_left_bg = G.value(bg), G.left(bg)
    f_at_bf, f_left_bf = F.value(bf), F.left(bf)

    def ok(eps):
        s = np.max(g_at_bg - F.value(bg + eps))
        s = max(s, float(np.max(G.left(bf - eps) - f_left_bf)))
        s = max(s, float(np.max(f_at_bf - G.value(bf + eps))))
        s = max(s, float(np.max(F.left(bg - eps) - g_left_bg)))
        return s <= eps + _LEVY_SLACK

    if ok(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _laplace():
    return Density(lambda x: 0.5 * math.exp(-abs(x)), (-math.inf, math.inf))


CONTINUOUS_LIMITS = [standard_normal(), normal(0.5, 4.0), _laplace(),
                     Density(lambda x: 0.5, (-1.0, 1.0))]
TOLS = st.sampled_from([1e-3, 1e-4, 1e-6])


@st.composite
def step_laws(draw):
    """A Discrete on a scaled integer lattice, or an Empirical of draws from
    one, so atoms land inside, near and beyond the limits' tables."""
    mu = draw(discrete_dists())
    scale = draw(st.sampled_from([0.03, 0.2, 1.0]))
    if draw(st.booleans()):
        idx = draw(st.lists(st.integers(0, mu.points.size - 1), min_size=1, max_size=40))
        return Empirical(mu.points[idx] * scale)
    return Discrete(mu.points * scale, mu.weights)


class TestLevyAgainstFourTerms:
    """Bit-for-bit agreement with the unpruned four-term corridor."""

    @given(step_laws(), st.integers(0, len(CONTINUOUS_LIMITS) - 1), TOLS)
    @settings(max_examples=120, deadline=None)
    def test_step_against_continuous(self, mu, k, tol):
        d = CONTINUOUS_LIMITS[k]
        assert levy_metric(mu, d, tol) == _four_term_levy(mu, d, tol)
        assert levy_metric(d, mu, tol) == _four_term_levy(d, mu, tol)

    @given(step_laws(), step_laws(), TOLS)
    @settings(max_examples=80, deadline=None)
    def test_step_pairs(self, mu, nu, tol):
        assert levy_metric(mu, nu, tol) == _four_term_levy(mu, nu, tol)

    @pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-6])
    def test_continuous_pairs(self, tol):
        for a, b in [(CONTINUOUS_LIMITS[0], CONTINUOUS_LIMITS[2]),
                     (CONTINUOUS_LIMITS[3], CONTINUOUS_LIMITS[1])]:
            assert levy_metric(a, b, tol) == _four_term_levy(a, b, tol)

    @pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-6])
    def test_binding_atom_beyond_the_table(self, tol):
        # 0.2 of mass at +40, past the normal knot table's right end (the
        # partition's last edge, 32): the corridor binds at that atom, where
        # the table reads 1.0
        core = iid_sum_normalized(rademacher(), 16)
        mu = Discrete(np.append(core.points, 40.0), np.append(0.8 * core.weights, 0.2))
        N = standard_normal()
        assert N._cdf_table[0][-1] < 40.0
        v = levy_metric(mu, N, tol)
        assert v == _four_term_levy(mu, N, tol)
        assert levy_metric(N, mu, tol) == _four_term_levy(N, mu, tol)
        assert abs(v - 0.2) <= tol + 1e-9


ROOT_TOLS = [1e-2, 1e-4, 1e-6, 1e-9, 2.0 ** -52]
ROOT_BASES = {
    "coin": (rademacher, (1, 4, 64, 1024, 10_000)),
    "die": (lambda: center(fair_die()), (1, 4, 64, 1024, 10_000)),
    "skewed": (lambda: center(Discrete(np.array([0.0, 1.0, 2.0]), np.array([0.6, 0.3, 0.1]))),
               (1, 4, 64, 1024, 10_000)),
    "nonlattice": (lambda: center(Discrete(np.array([0.0, 1.0, 1.0 + math.sqrt(2.0)]),
                                           np.array([0.5, 0.3, 0.2]))),
                   (1, 4, 64, 128)),
}


@lru_cache(maxsize=None)
def _exact_row(name, n):
    return iid_sum_normalized(ROOT_BASES[name][0](), n)


@pytest.fixture
def checked_levy(monkeypatch):
    """levy_metric returning its value and the number of corridor checks
    the call made."""
    count = [0]
    holds = weak_convergence._corridor_holds

    def spy(terms, eps):
        count[0] += 1
        return holds(terms, eps)

    monkeypatch.setattr(weak_convergence, "_corridor_holds", spy)

    def call(mu, nu, tol):
        count[0] = 0
        return levy_metric(mu, nu, tol), count[0]

    return call


def _cauchy():
    return Density(lambda x: 1.0 / (math.pi * (1.0 + x * x)), (-math.inf, math.inf))


def _triangle():
    u = Density(lambda x: 1.0, (0.0, 1.0))
    return convolve(u, u)


PAIR_TOLS = [1e-3, 1e-6, 2.0 ** -52]


class TestAtomRoots:
    """One search for every pair of laws, started from the largest
    per-point root: each value is the four-term bisection's float, in both
    argument orders, and a good start needs at most two corridor checks."""

    @pytest.mark.parametrize("name,n", [(name, n) for name, (_, ns) in ROOT_BASES.items()
                                        for n in ns])
    def test_exact_rows(self, name, n, checked_levy):
        mu, N = _exact_row(name, n), standard_normal()
        for tol in ROOT_TOLS:
            expected = _four_term_levy(mu, N, tol)
            assert _four_term_levy(N, mu, tol) == expected
            for a, b in [(mu, N), (N, mu)]:
                v, checks = checked_levy(a, b, tol)
                assert v == expected and checks <= 2

    @pytest.mark.parametrize("n", [16, 256])
    def test_monte_carlo_rows(self, n, checked_levy):
        mu, N = _mc_normalized_sum(center(fair_die()), n, 20_000, 0), standard_normal()
        assert isinstance(mu, Empirical)
        for tol in ROOT_TOLS:
            for a, b in [(mu, N), (N, mu)]:
                v, checks = checked_levy(a, b, tol)
                assert v == _four_term_levy(a, b, tol) and checks <= 2

    @pytest.mark.parametrize("a,b", [(_cauchy(), standard_normal()),
                                     (_triangle(), standard_normal()),
                                     (_laplace(), normal(0.5, 4.0))],
                             ids=["cauchy-normal", "triangle-normal", "laplace-normal"])
    def test_density_pairs(self, a, b, checked_levy):
        # at 2^-52 the grid step is below the float spacing of every knot
        # beyond +-1, so x +- eps moves in jumps of several steps: the
        # binding points settle their own steps before the first check
        for tol in PAIR_TOLS:
            for mu, nu in [(a, b), (b, a)]:
                v, checks = checked_levy(mu, nu, tol)
                assert v == _four_term_levy(mu, nu, tol)
                assert checks <= 2

    def test_discrete_pairs(self, checked_levy):
        a, b = _exact_row("coin", 1024), _exact_row("die", 64)
        for tol in PAIR_TOLS:
            for mu, nu in [(a, b), (b, a)]:
                v, checks = checked_levy(mu, nu, tol)
                assert v == _four_term_levy(mu, nu, tol) and checks <= 2

    def test_atoms_beyond_the_table(self, checked_levy):
        # the binding atoms sit past both ends of the normal's knot table
        # (+-32), where y + H(y) has slope 1; at 2^-52 the grid step is 1/32
        # of the float spacing at +-40, so x +- eps moves in jumps of 32
        # steps, and the two atoms settle their own steps before the search
        core = iid_sum_normalized(rademacher(), 16)
        mu = Discrete(np.concatenate([[-40.0], core.points, [40.0]]),
                      np.concatenate([[0.15], 0.7 * core.weights, [0.15]]))
        N = standard_normal()
        for tol in ROOT_TOLS:
            for a, b in [(mu, N), (N, mu)]:
                v, checks = checked_levy(a, b, tol)
                assert v == _four_term_levy(a, b, tol) and checks <= 2

    @pytest.mark.parametrize("points,weights", [
        ([-1.0, -0.5, -0.1, 1.8], [0.12, 0.2, 0.36, 0.32]),
        ([-1.75, -0.55, 1.65, 2.45], [1 / 6, 5 / 18, 7 / 18, 1 / 6]),
        ([-0.85, -0.5, 0.1, 1.0], [1 / 23, 6 / 23, 8 / 23, 8 / 23]),
        ([0.4, 2.0, 2.05, 2.7], [4 / 13, 3 / 13, 2 / 13, 4 / 13]),
    ])
    def test_roots_stepped_down(self, points, weights):
        # at 2^-52 some rounded roots land a grid step above where the
        # corridor first holds, and the search must step down
        mu, N = Discrete(np.array(points), np.array(weights)), standard_normal()
        tol = 2.0 ** -52
        assert levy_metric(mu, N, tol) == _four_term_levy(mu, N, tol)

    @pytest.mark.parametrize("tol", [1e-4, 2.0 ** -52])
    def test_worst_guesses(self, tol, monkeypatch):
        # every root read as 0 starts the search at j = 1, every root read
        # as 1 at j = 1/g: the value stays the bisection's
        pairs = [(_exact_row("die", 64), standard_normal()), (_laplace(), normal(0.5, 4.0)),
                 (_exact_row("coin", 64), _exact_row("die", 4))]
        for root in (0.0, 1.0):
            monkeypatch.setattr(weak_convergence._CorridorTerm, "roots",
                                lambda self, at=slice(None), root=root: np.full(self.x[at].size, root))
            for a, b in pairs:
                assert levy_metric(a, b, tol) == _four_term_levy(a, b, tol)
                assert levy_metric(b, a, tol) == _four_term_levy(b, a, tol)

    def test_root_table_built_on_first_levy_metric(self):
        d, _ = counting_normal()
        cdf(d, 0.5)
        quantile(d, 0.3)
        assert "_root_table" not in vars(d)
        v = levy_metric(d, _laplace())
        sums = vars(d)["_root_table"]
        xs, cum, _ = d._cdf_table
        assert np.array_equal(sums, xs + cum) and np.all(np.diff(sums) > 0.0)
        assert v == levy_metric(standard_normal(), _laplace())

    @pytest.mark.parametrize("tol", [1e-17, 1e-300, math.nextafter(2.0 ** -52, 0.0)])
    def test_tol_below_float_grid_rejected(self, tol):
        # below 2^-52 the bisection's bracket midpoint rounds onto an end,
        # so the bracket stops shrinking and the loop would never end
        row = iid_sum_normalized(rademacher(), 4)
        for mu, nu in [(row, standard_normal()), (standard_normal(), row),
                       (row, rademacher()), (standard_normal(), _laplace())]:
            with pytest.raises(ValueError, match=repr(tol)):
                levy_metric(mu, nu, tol)

    def test_finest_tol_is_the_bisection_value(self):
        row = iid_sum_normalized(rademacher(), 4)
        tol = 2.0 ** -52
        for mu, nu in [(row, standard_normal()), (row, rademacher())]:
            assert levy_metric(mu, nu, tol) == _four_term_levy(mu, nu, tol)


class TestUniformDensityLimit:
    def test_lattice_midpoints_converge(self):
        uniform = Density(lambda x: 1.0, (0.0, 1.0))
        n = 512
        pts = (np.arange(n) + 0.5) / n
        mu = Discrete(pts, np.full(n, 1.0 / n))
        probe = default_probe(uniform)
        assert cdf_distance(mu, probe) <= 1.0 / (2 * n) + 1e-6
        assert max(portmanteau_testfn(mu, probe)) <= 1e-4
        out = boundary_null_check(mu, uniform, [(0.25, 0.75)])
        assert abs(out.mu_value - out.limit_value) < 1e-8
        assert out.boundary_mass == 0.0
