import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cltlab import charfuns
from cltlab.charfuns import (
    char_fn,
    charfun,
    charfun_distance,
    charfun_of_sum,
    levy_invert,
    normal_charfun,
    second_order_bound,
    second_order_check,
)
from cltlab.distributions import (
    Density,
    Discrete,
    Empirical,
    cdf,
    convolve,
    fair_die,
    normal,
    normal_density,
    point_mass,
    rademacher,
    shift_scale,
    standard_normal,
)
from cltlab.errors import NonConvergenceError
from cltlab.numerics import integrate
from oracles import damped_mass, discrete_dists, normal_mass
from test_distribution import wall_clock_limit

T_GRID_20 = np.linspace(-10.0, 10.0, 20)


class TestCharfun:
    def test_phi_zero_is_one_all_representations(self):
        for mu in (rademacher(), standard_normal(), Empirical(np.array([1.0, 4.0]))):
            z = charfun(mu, 0.0)
            assert z == complex(1.0, 0.0)

    def test_point_mass_at_zero(self):
        for t in (-3.0, 0.5, 7.0):
            assert charfun(point_mass(0.0), t) == complex(1.0, 0.0)

    def test_coin_is_cosine(self):
        for t in (-2.0, 0.3, 1.0, 9.0):
            z = charfun(rademacher(), t)
            assert abs(z.real - math.cos(t)) < 1e-15
            assert abs(z.imag) < 1e-15

    def test_empirical_average(self):
        e = Empirical(np.array([0.0, 2.0]))
        t = 1.3
        expect = 0.5 * (cmath.exp(0j) + cmath.exp(1j * t * 2.0))
        assert abs(charfun(e, t) - expect) < 1e-14

    def test_density_matches_closed_form(self):
        mu = standard_normal()
        for t in (0.0, 0.5, 1.0, 2.0, 4.0):
            assert abs(charfun(mu, t) - normal_charfun(t)) < 1e-6

    def test_nonfinite_t_rejected(self):
        with pytest.raises(ValueError):
            charfun(rademacher(), float("inf"))

    @given(discrete_dists(), st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_modulus_bound(self, mu, t):
        assert abs(charfun(mu, t)) <= 1.0 + 1e-9

    @given(discrete_dists(), st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, mu, t):
        assert abs(charfun(mu, -t) - charfun(mu, t).conjugate()) < 1e-9


def _logistic_pdf(x):
    e = math.exp(-abs(x))
    return e / (1.0 + e) ** 2


def _mixture_pdf(x):
    return 0.4 * normal_density(x, -2.0, 0.8) + 0.6 * normal_density(x, 1.5, 1.2)


# (Density, closed-form characteristic function)
CLOSED_FORMS = {
    "normal": (lambda: normal(0.3, 1.2), lambda t: cmath.exp(0.3j * t - 0.6 * t * t)),
    "laplace": (lambda: Density(lambda x: 0.5 * math.exp(-abs(x)), (-math.inf, math.inf)),
                lambda t: 1.0 / (1.0 + t * t)),
    "logistic": (lambda: Density(_logistic_pdf, (-math.inf, math.inf)),
                 lambda t: math.pi * t / math.sinh(math.pi * t) if t else 1.0),
    "uniform": (lambda: Density(lambda x: 1.0 if 0.0 <= x <= 1.0 else 0.0, (0.0, 1.0)),
                lambda t: (cmath.exp(1j * t) - 1.0) / (1j * t) if t else 1.0),
    "mixture": (lambda: Density(_mixture_pdf, (-math.inf, math.inf)),
                lambda t: 0.4 * cmath.exp(-2.0j * t - 0.4 * t * t)
                + 0.6 * cmath.exp(1.5j * t - 0.6 * t * t)),
}


class TestDensityCharfun:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_closed_form(self, name):
        build, cf = CLOSED_FORMS[name]
        d = build()
        for t in np.linspace(-50.0, 50.0, 41):
            assert abs(charfun(d, float(t)) - cf(float(t))) <= 1e-8
        for t in (0.5, 3.0):
            assert abs(charfun(d, t, tol=1e-12) - cf(t)) <= 1e-12

    def test_independent_of_call_history(self):
        d = normal(0.3, 1.2)
        first = charfun(d, 1.7)
        for t in np.linspace(-40.0, 40.0, 401):
            charfun(d, float(t))
        again = charfun(d, 1.7)
        fresh = charfun(normal(0.3, 1.2), 1.7)
        assert (again.real, again.imag) == (first.real, first.imag)
        assert (fresh.real, fresh.imag) == (first.real, first.imag)

    def test_pdf_evaluations_shared_across_t(self):
        calls = []

        def pdf(x):
            calls.append(x)
            return normal_density(x, 0.3, 1.2)

        d = Density(pdf, (-math.inf, math.inf))
        calls.clear()
        for t in np.linspace(-10.0, 10.0, 21):
            assert abs(charfun(d, float(t)) - CLOSED_FORMS["normal"][1](float(t))) <= 1e-8
        # the partition build included; one quadrature from scratch per t
        # spends this many on a single t
        assert len(calls) <= 1260

    def test_first_charfun_reads_the_partition_nodes(self):
        # the partition's sweep already evaluated the pdf at every node of
        # its panels, which are the panels charfun's first round reads
        calls = []

        def pdf(x):
            calls.append(x)
            return normal_density(x)

        d = Density(pdf, (-math.inf, math.inf))
        cdf(d, 0.5)
        calls.clear()
        value = charfun(d, 1e-3)
        assert calls == []
        fresh = Density(normal_density, (-math.inf, math.inf))
        vars(fresh)["_node_store"] = {}  # every node value evaluated anew
        for t in (1e-3, 0.7, 4.0, -9.5):
            assert charfun(d, t) == charfun(fresh, t)
        assert value == charfun(fresh, 1e-3)

    def test_cauchy_converges_or_fails_loudly(self):
        d = Density(lambda x: 1.0 / (math.pi * (1.0 + x * x)), (-math.inf, math.inf))
        kept = len(d._node_store)
        with wall_clock_limit(5.0):
            try:
                value = charfun(d, 1.0)
            except NonConvergenceError:
                # a failing call keeps none of the node values it evaluated
                assert len(d._node_store) == kept
                return
        assert abs(value - math.exp(-1.0)) <= 1e-8

    def test_bad_tol_rejected(self):
        for tol in (0.0, -1e-8, math.nan):
            with pytest.raises(ValueError):
                charfun(standard_normal(), 1.0, tol=tol)


class TestNormalCharfun:
    def test_values(self):
        assert normal_charfun(0.0) == complex(1.0, 0.0)
        assert abs(normal_charfun(1.0) - math.exp(-0.5)) < 1e-15
        assert abs(normal_charfun(2.0) - math.exp(-2.0)) < 1e-15


class TestProductLaw:
    def test_charfun_of_sum_single(self):
        assert charfun_of_sum([rademacher()], 1.7) == charfun(rademacher(), 1.7)

    def test_three_coins(self):
        mus = [rademacher()] * 3
        conv = convolve(convolve(rademacher(), rademacher()), rademacher())
        for t in (0.4, 1.0, 2.5):
            assert abs(charfun_of_sum(mus, t) - math.cos(t) ** 3) < 1e-15
            assert abs(charfun(conv, t) - math.cos(t) ** 3) < 1e-9

    def test_point_mass_neutral(self):
        for t in (0.3, 2.0):
            assert abs(charfun_of_sum([fair_die(), point_mass(0.0)], t)
                       - charfun(fair_die(), t)) < 1e-15

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            charfun_of_sum([], 1.0)

    @given(discrete_dists(max_atoms=4), discrete_dists(max_atoms=4))
    @settings(max_examples=30, deadline=None)
    def test_convolution_product_identity(self, a, b):
        conv = convolve(a, b)
        for t in T_GRID_20:
            assert abs(charfun(conv, t) - charfun(a, t) * charfun(b, t)) < 1e-9

    @given(discrete_dists(max_atoms=4), st.floats(-3, 3),
           st.floats(-4, 4).filter(lambda b: abs(b) > 0.1))
    @settings(max_examples=40, deadline=None)
    def test_shift_scale_covariance(self, mu, a, b):
        t = 1.3
        lhs = charfun(shift_scale(mu, a, b), t)
        rhs = cmath.exp(-1j * t * a / b) * charfun(mu, t / b)
        assert abs(lhs - rhs) < 1e-9


class TestSecondOrder:
    def test_zero_t(self):
        assert second_order_check(rademacher(), 0.0) == 0.0

    def test_coin_small_t(self):
        v = second_order_check(rademacher(), 0.1)
        assert abs(v - abs(math.cos(0.1) - 0.995)) < 1e-15
        bound = second_order_bound(rademacher(), 0.1)
        assert abs(bound - min(0.1 ** 3 / 6.0, 0.1 ** 2)) < 1e-15
        assert v <= bound

    def test_coin_t_one(self):
        v = second_order_check(rademacher(), 1.0)
        assert abs(v - abs(math.cos(1.0) - 0.5)) < 1e-15
        assert v <= min(1.0 / 6.0, 1.0)

    def test_nonzero_mean_rejected(self):
        mu = Discrete.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        with pytest.raises(ValueError):
            second_order_check(mu, 0.5)

    def test_bound_holds_on_family(self):
        from cltlab.clt import center
        family = [rademacher(), center(fair_die()),
                  center(Discrete.from_pairs([(-3.0, 0.2), (1.0, 0.5), (2.0, 0.3)]))]
        for mu in family:
            for t in np.linspace(-2.0, 2.0, 17):
                assert second_order_check(mu, float(t)) <= second_order_bound(mu, float(t)) + 1e-12


class TestLevyInvert:
    def test_normal_interval_fixed_t(self):
        v = levy_invert(normal_charfun, -1.96, 1.96, T=50.0)
        assert abs(v - 0.9500) < 1e-3

    def test_normal_interval_auto_t(self):
        v = levy_invert(normal_charfun, -1.96, 1.96, tol=1e-8)
        assert abs(v - normal_mass(-1.96, 1.96)) < 1e-6

    def test_point_mass_total(self):
        v = levy_invert(lambda t: complex(1.0, 0.0), -1.0, 1.0, T=1000.0)
        assert abs(v - 1.0) < 1e-2

    def test_coin_half(self):
        v = levy_invert(lambda t: complex(math.cos(t), 0.0), 0.0, 2.0, T=1000.0)
        assert abs(v - 0.5) < 1e-2

    def test_truncation_trend(self):
        # sharper truncation radius, smaller error, up to oscillation
        errs = [abs(levy_invert(lambda t: complex(math.cos(t), 0.0),
                                0.0, 2.0, T=T) - 0.5)
                for T in (1e2, 1e3, 1e4)]
        assert all(e < 1e-2 for e in errs)
        assert errs[2] <= errs[0] + 1e-3

    def test_lattice_auto_t_needs_damping(self):
        phi = lambda t: complex(math.cos(t), 0.0)
        with pytest.raises(NonConvergenceError):
            levy_invert(phi, 0.0, 2.0, tol=1e-6)
        v = levy_invert(phi, 0.0, 2.0, tol=1e-6, damping=1e-6)
        assert abs(v - 0.5) < 1e-3

    def test_lattice_damped_auto_t(self):
        phi = lambda t: complex(math.cos(t), 0.0)
        v = levy_invert(phi, 0.0, 2.0, tol=1e-6, damping=1e-6)
        assert abs(v - damped_mass([-1.0, 1.0], [0.5, 0.5], 0.0, 2.0, 1e-6)) <= 1e-6

    def test_auto_t_density_charfun(self):
        v = levy_invert(char_fn(normal(0.3, 1.2)), -1.0, 1.5, tol=1e-8)
        ref = normal_mass((-1.0 - 0.3) / math.sqrt(1.2), (1.5 - 0.3) / math.sqrt(1.2))
        assert abs(v - ref) <= 1e-8

    def test_discrete_charfun_round_trip(self):
        mu = fair_die()
        phi = char_fn(mu)
        # (2.5, 4.5] holds faces 3 and 4
        v = levy_invert(phi, 2.5, 4.5, T=1000.0)
        assert abs(v - 2.0 / 6.0) < 1e-2

    def test_degenerate_interval(self):
        with pytest.raises(ValueError):
            levy_invert(normal_charfun, 1.0, 1.0)
        with pytest.raises(ValueError):
            levy_invert(normal_charfun, 2.0, -2.0)

    def test_bad_t_and_damping(self):
        with pytest.raises(ValueError):
            levy_invert(normal_charfun, 0.0, 1.0, T=-5.0)
        with pytest.raises(ValueError):
            levy_invert(normal_charfun, 0.0, 1.0, damping=-1e-6)
        # neither may return a mass: nan would read as undamped, inf as 0
        for damping, shown in ((float("nan"), "nan"), (float("inf"), "inf")):
            for T in (5.0, None):
                with pytest.raises(ValueError, match=rf"damping .*got {shown}$"):
                    levy_invert(normal_charfun, -1.0, 1.0, T=T, damping=damping)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
    @pytest.mark.parametrize("T", [20.0, None])
    def test_bad_tol_rejected(self, tol, T):
        with pytest.raises(ValueError):
            levy_invert(normal_charfun, -1.0, 1.0, T=T, tol=tol)

    @pytest.mark.parametrize("T", [20.0, None])
    def test_bad_tol_names_the_callers_value(self, T):
        # the automatic-T schedule splits tol; the message names the tol given
        with pytest.raises(ValueError, match=r"got -1e-08$"):
            levy_invert(normal_charfun, -1.0, 1.0, T=T, tol=-1e-8)

    def test_nonfinite_phi_names_the_node(self):
        # phi is read on (0, 20] only: the first node past 10 is 10 + 10 * 0.2077849550
        phi = lambda t: complex("nan") if abs(t) > 10 else 1.0
        with pytest.raises(ValueError, match=r"non-finite value near t=12\.0778$"):
            levy_invert(phi, -1.0, 1.0, T=20.0)

    @pytest.mark.parametrize("a, b", [(-1.96, 1.96), (-0.5, 1.25), (0.0, 3.0)])
    def test_normal_mass_to_rounding(self, a, b):
        # the truncation error at T = 40 is below e^{-800}: what is left is the
        # quadrature.  The shifted normals N(mu, 1) have a complex phi, whose
        # imaginary part enters the half-line integral through the kernel.
        for mu in (0.0, 0.7, -1.3):
            def phi(t, mu=mu):
                return cmath.exp(complex(-0.5 * t * t, mu * t))

            ref = 0.5 * (math.erfc(-(b - mu) / math.sqrt(2.0))
                         - math.erfc(-(a - mu) / math.sqrt(2.0)))
            assert abs(levy_invert(phi, a, b, T=40.0, tol=1e-12) - ref) <= 1e-12, mu

    @pytest.mark.parametrize("a, b", [(-0.5, 1.0), (-1.5, 0.5), (0.5, 2.5)])
    def test_skewed_lattice_damped_auto_t(self, a, b):
        # a lattice phi that is complex and not even: {-1, 0, 2}, weights (0.2, 0.5, 0.3)
        pts, w = [-1.0, 0.0, 2.0], [0.2, 0.5, 0.3]
        phi = char_fn(Discrete(np.array(pts), np.array(w)))
        v = levy_invert(phi, a, b, tol=1e-6, damping=1e-6)
        assert abs(v - damped_mass(pts, w, a, b, 1e-6)) <= 1e-6


class TestHalfLine:
    """levy_invert reads phi at t > 0 only: up to T, or up to the radius its
    last shell reaches when T is automatic."""

    CASES = {
        "readme_normal": (lambda: normal_charfun, -1.96, 1.96, {}),
        "damped_coin": (lambda: math.cos, 0.0, 2.0, {"tol": 1e-6, "damping": 1e-6}),
        "die_T1000": (lambda: char_fn(fair_die()), 2.5, 4.5, {"T": 1000.0}),
        "density_auto_T": (lambda: char_fn(normal(0.3, 1.2)), -1.0, 1.5, {"tol": 1e-8}),
    }

    @staticmethod
    def _run(phi, a, b, kw, monkeypatch):
        seen, pieces = [], []
        invert_at = charfuns._invert_at

        def recorded_invert_at(phi, a, b, lo, hi, tol, damping):
            pieces.append((lo, hi))
            return invert_at(phi, a, b, lo, hi, tol, damping)

        def recorded(t):
            seen.append(t)
            return phi(t)

        monkeypatch.setattr(charfuns, "_invert_at", recorded_invert_at)
        return levy_invert(recorded, a, b, **kw), seen, pieces

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_phi_read_on_the_half_line(self, case, monkeypatch):
        make_phi, a, b, kw = self.CASES[case]
        _, seen, pieces = self._run(make_phi(), a, b, kw, monkeypatch)
        radius = max(hi for _, hi in pieces)
        if "T" in kw:
            assert pieces == [(0.0, kw["T"])]
        assert min(lo for lo, _ in pieces) == 0.0
        assert seen and 0.0 < min(seen) and max(seen) <= radius

    def test_damped_coin_call_count(self, monkeypatch):
        # integrating over (-T, T) instead takes 90,345 calls
        _, seen, _ = self._run(math.cos, 0.0, 2.0, {"tol": 1e-6, "damping": 1e-6}, monkeypatch)
        assert len(seen) <= 46_000


def _reference_kernel(t, a, b):
    """The scalar inversion kernel, patched at t = 0 with its limit b - a."""
    if abs(t) < 1e-12:
        return complex(b - a, 0.0)
    return (cmath.exp(-1j * t * a) - cmath.exp(-1j * t * b)) / (1j * t)


def _reference_invert_at(phi, a, b, lo, hi, tol, damping):
    """The inversion integral node by node, through the scalar integrate."""
    if damping > 0.0:
        def integrand(t):
            return (_reference_kernel(t, a, b) * phi(t) * math.exp(-damping * t * t)).real
    else:
        def integrand(t):
            return (_reference_kernel(t, a, b) * phi(t)).real
    return integrate(integrand, lo, hi, tol) / (2.0 * math.pi)


class TestInvertAgainstScalarPath:
    # phi is built when its case runs, not when the module is collected
    CASES = {
        "normal_auto_T": (lambda: normal_charfun, -1.96, 1.96, {}),
        # one panel that converges at once: its t = 0 node counts in the value
        "normal_T1": (lambda: normal_charfun, -0.5, 1.25, {"T": 1.0}),
        "cos_T1000": (lambda: math.cos, 0.0, 2.0, {"T": 1000.0}),
        "cos_damped_auto_T": (lambda: math.cos, 0.0, 2.0, {"tol": 1e-6, "damping": 1e-6}),
        "laplace_closed_form": (lambda: lambda t: 1.0 / (1.0 + t * t), -0.8, 0.6, {}),
        "die_T1000": (lambda: char_fn(fair_die()), 2.5, 4.5, {"T": 1000.0}),
        "density_auto_T": (lambda: char_fn(normal(0.3, 1.2)), -1.0, 1.5, {}),
    }

    @staticmethod
    def _run(phi, a, b, kw):
        seen = []

        def recorded(t):
            seen.append(t)
            return phi(t)

        return levy_invert(recorded, a, b, **kw), seen

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_nodes_same_value(self, case, monkeypatch):
        make_phi, a, b, kw = self.CASES[case]
        phi = make_phi()
        got, got_ts = self._run(phi, a, b, kw)
        monkeypatch.setattr(charfuns, "_invert_at", _reference_invert_at)
        want, want_ts = self._run(phi, a, b, kw)
        assert got_ts == want_ts
        assert abs(got - want) <= 1e-13


class TestCharfunDistance:
    def test_identical(self):
        assert charfun_distance(fair_die(), fair_die(), [0.5, 1.0, 2.0]) < 1e-12

    def test_coin_vs_point_mass_at_pi(self):
        d = charfun_distance(rademacher(), point_mass(0.0), [math.pi])
        assert abs(d - 2.0) < 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            charfun_distance(rademacher(), fair_die(), [])
