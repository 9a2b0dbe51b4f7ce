import io
import math

import numpy as np
import pytest

from cltlab import distributions
from cltlab.charfuns import charfun, normal_charfun
from cltlab.clt import (
    CltExperiment,
    ConvergenceReport,
    Row,
    center,
    charfun_convergence_curve,
    emit_csv,
    run_clt,
)
from cltlab.distributions import (
    Density,
    Discrete,
    cdf,
    fair_die,
    iid_sum_normalized,
    mean,
    point_mass,
    rademacher,
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
