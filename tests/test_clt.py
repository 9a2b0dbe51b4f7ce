import io
import math
import tracemalloc

import numpy as np
import pytest

from cltlab import distributions
from cltlab.charfuns import charfun, normal_charfun
from cltlab.clt import (
    CltExperiment,
    ConvergenceReport,
    Row,
    _mc_normalized_sum,
    center,
    charfun_convergence_curve,
    emit_csv,
    run_clt,
)
from cltlab.distributions import (
    Density,
    Discrete,
    Empirical,
    cdf,
    fair_die,
    iid_sum_normalized,
    mean,
    point_mass,
    rademacher,
    sample,
    standard_normal,
    variance,
)
from cltlab.weak_convergence import levy_metric

T_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


class TestCenter:
    def test_die(self):
        c = center(fair_die())
        assert np.array_equal(c.points, np.arange(1.0, 7.0) - 3.5)
        assert abs(mean(c)) < 1e-12

    def test_already_centered_unchanged(self):
        c = center(rademacher())
        assert np.array_equal(c.points, rademacher().points)
        assert np.array_equal(c.weights, rademacher().weights)

    def test_point_mass(self):
        c = center(point_mass(7.0))
        assert np.array_equal(c.points, np.array([0.0]))


class TestExperimentValidation:
    def test_density_base_rejected(self):
        with pytest.raises(TypeError):
            CltExperiment(Density(lambda x: math.exp(-x), (0.0, math.inf)), ns=(2,))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="positive variance"):
            CltExperiment(point_mass(3.0), ns=(2,))

    def test_auto_centering(self):
        exp = CltExperiment(fair_die(), ns=(2,))
        assert abs(mean(exp.base)) < 1e-12
        assert abs(exp.sigma2 - 35.0 / 12.0) < 1e-12

    def test_declared_sigma2_checked(self):
        CltExperiment(rademacher(), ns=(2,), sigma2=1.0)
        with pytest.raises(ValueError):
            CltExperiment(rademacher(), ns=(2,), sigma2=1.1)

    def test_ns_must_be_integers(self):
        with pytest.raises(ValueError, match="integers"):
            CltExperiment(rademacher(), ns=(2.5,))

    def test_ns_must_be_positive(self):
        with pytest.raises(ValueError):
            CltExperiment(rademacher(), ns=(0, 2))

    def test_ns_must_increase(self):
        with pytest.raises(ValueError):
            CltExperiment(rademacher(), ns=(4, 2))
        with pytest.raises(ValueError):
            CltExperiment(rademacher(), ns=(4, 4))

    def test_t_grid_validation(self):
        with pytest.raises(ValueError):
            CltExperiment(rademacher(), ns=(2,), t_grid=())
        with pytest.raises(ValueError):
            CltExperiment(rademacher(), ns=(2,), t_grid=(1.0, math.inf))

    def test_seed_and_draws_validation(self):
        with pytest.raises(ValueError):
            CltExperiment(rademacher(), ns=(2,), seed=-1)
        with pytest.raises(ValueError):
            CltExperiment(rademacher(), ns=(2,), mc_draws=0)


class TestRunClt:
    def test_bernoulli_exact_convergence(self):
        exp = CltExperiment(rademacher(), ns=(1, 4, 16, 64, 256))
        report = run_clt(exp)
        ns = [r.n for r in report.rows]
        assert ns == [1, 4, 16, 64, 256]
        for col in ("cdf_sup", "levy", "charfun_sup"):
            vals = [getattr(r, col) for r in report.rows]
            assert all(a > b for a, b in zip(vals, vals[1:])), (col, vals)
        # at n=4 the sup CDF gap is the half-sum of the two inner atoms: 3/16
        assert abs(report.rows[1].cdf_sup - 0.1875) < 1e-6
        # at n=256 it is half the central binomial weight
        half_central = math.comb(256, 128) / 2.0**256 / 2.0
        assert abs(report.rows[-1].cdf_sup - half_central) < 1e-6
        assert report.rows[-1].cdf_sup <= 0.026

    def test_single_grid_point(self):
        exp = CltExperiment(rademacher(), ns=(4,), grid=(0.0,))
        report = run_clt(exp)
        assert abs(report.rows[0].cdf_sup - 0.1875) < 1e-6

    def test_die_exact_n200(self):
        exp = CltExperiment(fair_die(), ns=(200,))
        r = run_clt(exp).rows[0]
        assert r.cdf_sup <= 0.05
        assert abs(r.cdf_sup - 0.00825) < 5e-4
        assert r.levy < 0.01

    def test_mc_close_to_exact(self):
        exact = run_clt(CltExperiment(rademacher(), ns=(50,))).rows[0]
        mc = run_clt(CltExperiment(rademacher(), ns=(50,), seed=3,
                                   mc_draws=20_000)).rows[0]
        assert abs(mc.cdf_sup - exact.cdf_sup) <= 0.02
        assert abs(mc.levy - exact.levy) <= 0.02

    def test_mc_die_n200(self):
        exp = CltExperiment(fair_die(), ns=(200,), seed=7, mc_draws=100_000)
        r = run_clt(exp).rows[0]
        assert r.cdf_sup <= 0.05

    def test_exact_runs_are_deterministic(self):
        exp = CltExperiment(rademacher(), ns=(4, 16))
        a, b = run_clt(exp), run_clt(exp)
        assert a == b
        sa, sb = io.StringIO(), io.StringIO()
        emit_csv(a, sa)
        emit_csv(b, sb)
        assert sa.getvalue() == sb.getvalue()

    def test_mc_runs_are_deterministic(self):
        exp = CltExperiment(fair_die(), ns=(10, 40), seed=11, mc_draws=5_000)
        assert run_clt(exp) == run_clt(exp)

    def test_mc_seed_changes_result(self):
        a = run_clt(CltExperiment(fair_die(), ns=(10,), seed=1, mc_draws=5_000))
        b = run_clt(CltExperiment(fair_die(), ns=(10,), seed=2, mc_draws=5_000))
        assert a != b


def _searchsorted_index(mu, u):
    """The inverse CDF of a Discrete by binary search, as first written."""
    return np.minimum(np.searchsorted(mu._cumweights, u, side="left"), mu.points.size - 1)


def _reference_mc_sum(base, n, draws, seed):
    """The Monte Carlo sampler as first written: a binary search per uniform,
    10,000 rows at a time."""
    rng = np.random.default_rng([seed, n])
    scale = math.sqrt(n * variance(base))
    out = np.empty(draws)
    done = 0
    while done < draws:
        k = min(10_000, draws - done)
        idx = _searchsorted_index(base, rng.random((k, n)))
        out[done:done + k] = base.points[idx].sum(axis=1) / scale
        done += k
    return Empirical(out)


def _tiny_weights():
    # six atoms of mass 1e-9 share the first guide-table bucket
    w = np.array([1e-9] * 6 + [0.5 - 3e-9] * 2)
    return center(Discrete(np.arange(8.0), w))


def _wide(k=1000, seed=4):
    w = np.random.default_rng(seed).random(k)
    return center(Discrete(np.arange(float(k)), w / w.sum()))


SAMPLER_BASES = {
    "coin": rademacher,
    "die": lambda: center(fair_die()),
    "inexact_lattice": lambda: center(Discrete(np.array([0.0, 0.1, 0.2, 0.3]),
                                               np.array([0.4, 0.3, 0.2, 0.1]))),
    "tiny_weights": _tiny_weights,
    "wide": _wide,
    # one atom past the atom-value table's limit, and far past it: _draw
    # reads the guide table alone
    "wide_257": lambda: _wide(257, 8),
    "wide_5000": lambda: _wide(5000, 12),
    # weights summing to 1 - 4e-13 (within the 1e-12 check): uniforms above
    # the last cumulative weight go to the last atom
    "short": lambda: Discrete(np.arange(3.0), np.array([0.25, 0.25, 0.5 - 4e-13])),
    "empirical": lambda: Empirical(np.random.default_rng(6).integers(-3, 4, size=999)),
}


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMonteCarloSampler:
    @pytest.mark.parametrize("name, n, draws, seed", [
        ("coin", 3, 25_001, 5),
        ("die", 50, 12_345, 7),
        ("inexact_lattice", 17, 20_000, 2),
        ("tiny_weights", 9, 30_000, 3),
        ("wide", 5, 25_000, 11),
        ("wide_257", 4, 20_000, 19),
        ("wide_5000", 3, 20_000, 23),
        ("die", 1, 30_000, 13),
        ("die", 70_000, 2, 17),  # one row holds more uniforms than a chunk
    ])
    def test_bit_identical_to_binary_search(self, name, n, draws, seed):
        base = SAMPLER_BASES[name]()
        got = _mc_normalized_sum(base, n, draws, seed)
        want = _reference_mc_sum(base, n, draws, seed)
        for field in ("samples", "points", "weights"):
            assert _same_bits(getattr(got, field), getattr(want, field)), field

    def test_tiny_weights_take_the_crowded_path(self, monkeypatch):
        mu = _tiny_weights()
        # the six tiny cuts share the first bucket of both tables
        assert np.isnan(mu._atom_values[0])
        assert mu._atom_table[3] is not None and mu._atom_table[3][0]
        assert SAMPLER_BASES["die"]()._atom_table[3] is None
        u = np.linspace(0.0, 8e-9, 1001)
        want = mu.points[_searchsorted_index(mu, u)]
        searches = []
        search = np.searchsorted

        def counting(*args, **kwargs):
            searches.append(args[1])
            return search(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counting)
        got = mu._draw(u)
        assert _same_bits(got, want)
        # the fix-up sends every uniform of the crowded bucket to the search
        assert len(searches) == 1 and searches[0].size == u.size

    @pytest.mark.parametrize("name", sorted(SAMPLER_BASES))
    def test_atom_index_equals_binary_search(self, name):
        mu = SAMPLER_BASES[name]()
        m = mu._atom_table[0]
        cuts = mu._cumweights
        # every cut, its two neighbours, every bucket edge, and the ends
        edges = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 2.0),
                                np.arange(m) / m, [0.0, 1.0 - 2.0**-53]])
        u = np.concatenate([edges[(edges >= 0.0) & (edges < 1.0)],
                            np.random.default_rng(1).random(100_000)])
        assert np.array_equal(mu._atom_index(u), _searchsorted_index(mu, u))

    @pytest.mark.parametrize("name", sorted(SAMPLER_BASES))
    def test_draw_equals_binary_search(self, name):
        mu = SAMPLER_BASES[name]()
        values = mu._atom_values
        assert (values is None) == (mu.points.size > 256)
        m = mu._atom_table[0] if values is None else values.size
        cuts = mu._cumweights
        # every bucket edge, every cut and its two neighbours, and the ends
        edges = np.concatenate([cuts, np.nextafter(cuts, 0.0), np.nextafter(cuts, 2.0),
                                np.arange(m) / m, [0.0, 1.0 - 2.0**-53]])
        u = np.concatenate([edges[(edges >= 0.0) & (edges < 1.0)],
                            np.random.default_rng(2).random(100_000)])
        got = mu._draw(u)
        assert not np.isnan(got).any()
        assert _same_bits(got, mu.points[_searchsorted_index(mu, u)])
        rows = u[:100_000].reshape(1000, 100)
        assert _same_bits(mu._draw(rows), mu.points[_searchsorted_index(mu, rows)])

    def test_coin_cut_on_a_bucket_edge(self):
        mu = rademacher()
        m = mu._atom_values.size
        # the cut 1/2 opens bucket m/2, the only one that needs the search
        assert np.flatnonzero(np.isnan(mu._atom_values)).tolist() == [m // 2]
        u = np.array([0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 0.5 + 1.0 / m])
        assert mu._draw(u).tolist() == [-1.0, -1.0, 1.0, 1.0]

    @pytest.mark.parametrize("name", sorted(SAMPLER_BASES))
    def test_sample_equals_binary_search(self, name):
        mu = SAMPLER_BASES[name]()
        got = sample(mu, 20_000, 9)
        u = np.random.default_rng(9).random(20_000)
        assert _same_bits(got.samples, mu.points[_searchsorted_index(mu, u)])

    def test_memory_bounded_by_one_chunk(self):
        base = center(fair_die())
        tracemalloc.start()
        try:
            _mc_normalized_sum(base, 256, 100_000, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestNormalSideComputedOnce:
    def test_rows_equal_probe_free_computation(self):
        # the shared probe and the cached tables change no bit of a row
        exp = CltExperiment(rademacher(), ns=(1, 4, 16))
        normal = standard_normal()
        for row in run_clt(exp).rows:
            mu = iid_sum_normalized(exp.base, row.n)
            assert row.cdf_sup == max(abs(cdf(mu, g) - cdf(normal, g)) for g in exp.grid)
            assert row.levy == levy_metric(mu, normal)

    def test_second_run_evaluates_no_normal_pdf(self, monkeypatch):
        exp = CltExperiment(rademacher(), ns=(4, 16), grid=(-1.5, 0.5, 2.5))
        first = run_clt(exp)
        calls = []
        density = distributions.normal_density

        def counting(x, *args):
            calls.append(x)
            return density(x, *args)

        monkeypatch.setattr(distributions, "normal_density", counting)
        assert run_clt(exp) == first
        assert calls == []


class TestCharfunCurve:
    def test_coin_matches_direct_formula(self):
        exp = CltExperiment(rademacher(), ns=(100, 400), t_grid=(1.0,))
        curve = charfun_convergence_curve(exp)
        errs = {n: e for n, t, e in curve}
        for n in (100, 400):
            direct = abs(math.cos(1.0 / math.sqrt(n)) ** n - math.exp(-0.5))
            assert abs(errs[n] - direct) <= 1e-15
        assert errs[100] <= 1e-3
        assert errs[400] < errs[100]

    def test_zero_frequency_is_exact(self):
        exp = CltExperiment(rademacher(), ns=(3, 9), t_grid=(0.0, 1.0))
        for n, t, e in charfun_convergence_curve(exp):
            if t == 0.0:
                assert e == 0.0

    def test_die_curve_decreases(self):
        exp = CltExperiment(fair_die(), ns=(10, 100, 1000), t_grid=(1.0,))
        errs = [e for _, _, e in charfun_convergence_curve(exp)]
        assert errs[0] > errs[1] > errs[2]

    def test_power_route_matches_convolution_route(self):
        ts = np.linspace(-10.0, 10.0, 21)
        for n in (2, 8, 64):
            mu_n = iid_sum_normalized(rademacher(), n)
            for t in ts:
                via_sum = charfun(mu_n, float(t))
                via_power = charfun(rademacher(), float(t) / math.sqrt(n)) ** n
                assert abs(via_sum - via_power) <= 1e-9

    def test_curve_tracks_cdf_convergence(self):
        # pointwise charfun convergence and uniform CDF convergence show up together
        exp = CltExperiment(rademacher(), ns=(4, 16, 64), t_grid=(1.0,))
        report = run_clt(exp)
        curve_errs = [e for _, _, e in charfun_convergence_curve(exp)]
        cdf_errs = [r.cdf_sup for r in report.rows]
        assert curve_errs[0] > curve_errs[1] > curve_errs[2]
        assert cdf_errs[0] > cdf_errs[1] > cdf_errs[2]


class TestReportAndCsv:
    def test_report_validation(self):
        with pytest.raises(ValueError):
            ConvergenceReport((Row(2, -0.1, 0.0, 0.0),))
        with pytest.raises(ValueError):
            ConvergenceReport((Row(0, 0.1, 0.1, 0.1),))
        with pytest.raises(ValueError):
            ConvergenceReport((Row(4, 0.1, 0.1, 0.1), Row(2, 0.1, 0.1, 0.1)))
        with pytest.raises(ValueError):
            ConvergenceReport((Row(4, 0.1, 0.1, 0.1), Row(4, 0.1, 0.1, 0.1)))

    def test_empty_report_is_header_only(self):
        buf = io.StringIO()
        emit_csv(ConvergenceReport(()), buf)
        assert buf.getvalue() == "n,cdf_sup,levy,charfun_sup\n"

    def test_single_row_format(self):
        buf = io.StringIO()
        emit_csv(ConvergenceReport((Row(2, 0.5, 0.25, 0.125),)), buf)
        assert buf.getvalue() == "n,cdf_sup,levy,charfun_sup\n2,0.5,0.25,0.125\n"

    def test_round_trip_precision(self):
        report = run_clt(CltExperiment(rademacher(), ns=(4, 16, 64)))
        buf = io.StringIO()
        emit_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,cdf_sup,levy,charfun_sup"
        for line, row in zip(lines[1:], report.rows):
            n, *vals = line.split(",")
            assert int(n) == row.n
            for got, want in zip(map(float, vals), row[1:]):
                assert got == pytest.approx(want, rel=1e-11)

    def test_file_destination_unix_newlines(self, tmp_path):
        report = run_clt(CltExperiment(rademacher(), ns=(4,)))
        p = tmp_path / "out.csv"
        emit_csv(report, str(p))
        raw = p.read_bytes()
        assert b"\r" not in raw
        buf = io.StringIO()
        emit_csv(report, buf)
        assert raw.decode() == buf.getvalue()
