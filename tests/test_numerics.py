import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cltlab.errors import NonConvergenceError, NotOscillatoryError
from cltlab.numerics import (
    exp_taylor_remainder,
    gaussian_moment,
    integrate,
    integrate_complex,
    integrate_oscillatory,
    sinc,
)
from cltlab.numerics import _batched_rounds, _f_at_nodes, _gk15_nodes, _sweep
from oracles import cauchy_sine_tail, double_factorial_moment


def normal_pdf(x):
    return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)


class TestIntegrate:
    def test_linear(self):
        assert abs(integrate(lambda x: x, 0.0, 1.0, tol=1e-10) - 0.5) < 1e-10

    def test_reversed_orientation_value(self):
        assert abs(integrate(lambda x: x, 1.0, 0.0, tol=1e-10) + 0.5) < 1e-10

    def test_orientation_antisymmetry_bit_exact(self):
        for a, b in [(0.0, 1.0), (-3.0, 2.5), (1.0, 50.0), (-2.0, -7.0)]:
            fwd = integrate(math.cos, a, b)
            rev = integrate(math.cos, b, a)
            assert fwd + rev == 0.0

    def test_empty_interval(self):
        assert integrate(math.exp, 2.0, 2.0) == 0.0

    def test_normal_mass_both_infinite(self):
        v = integrate(normal_pdf, -math.inf, math.inf, tol=1e-8)
        assert abs(v - 1.0) <= 1e-8

    def test_upper_infinite(self):
        v = integrate(lambda x: math.exp(-x), 0.0, math.inf, tol=1e-10)
        assert abs(v - 1.0) < 1e-9

    def test_lower_infinite(self):
        v = integrate(lambda x: math.exp(x), -math.inf, 0.0, tol=1e-10)
        assert abs(v - 1.0) < 1e-9

    def test_mass_far_from_finite_endpoint(self):
        # regression: truncation shells anchored at the finite endpoint used
        # to agree on ~0 in the dead tail and stop before reaching the bulk
        v = integrate(normal_pdf, -math.inf, 40.0, tol=1e-8)
        assert abs(v - 1.0) <= 1e-8
        v = integrate(normal_pdf, -40.0, math.inf, tol=1e-8)
        assert abs(v - 1.0) <= 1e-8
        assert abs(integrate(normal_pdf, 40.0, math.inf, tol=1e-8)) <= 1e-8

    def test_additivity(self):
        tol = 1e-9
        f = lambda x: math.sin(3 * x) + x * x
        whole = integrate(f, -1.0, 2.0, tol)
        split = integrate(f, -1.0, 0.3, tol) + integrate(f, 0.3, 2.0, tol)
        assert abs(whole - split) < 3 * tol

    def test_linearity(self):
        tol = 1e-9
        f, g = math.cos, lambda x: x ** 3
        lhs = integrate(lambda x: 2.0 * f(x) - 0.5 * g(x), 0.0, 2.0, tol)
        rhs = 2.0 * integrate(f, 0.0, 2.0, tol) - 0.5 * integrate(g, 0.0, 2.0, tol)
        assert abs(lhs - rhs) < 3 * tol

    def test_tail_below_tol_stops_at_the_first_settled_shell(self):
        # the value is far below tol; sweeping on would reach x > 709, where
        # math.exp overflows
        v = integrate(lambda x: 1.0 / (1.0 + math.exp(x)), 50.0, math.inf)
        assert abs(v - math.exp(-50.0)) <= 1e-6 * math.exp(-50.0)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            integrate(math.cos, 0.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            integrate(math.cos, 0.0, 1.0, tol=-1e-8)

    def test_nan_endpoint_rejected(self):
        with pytest.raises(ValueError):
            integrate(math.cos, float("nan"), 1.0)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(ValueError, match="near x="):
            integrate(lambda x: float("nan"), 0.0, 1.0)

    def test_heavy_tail_does_not_converge(self):
        # first-moment integrand of the Cauchy density: symmetric but not integrable
        with pytest.raises(NonConvergenceError):
            integrate(lambda x: x / (math.pi * (1.0 + x * x)), -math.inf, math.inf)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_orientation_property(self, a, b):
        assert integrate(math.cos, a, b) + integrate(math.cos, b, a) == 0.0


class TestIntegrateComplex:
    def test_cos_sin_over_half_period(self):
        z = integrate_complex(lambda x: complex(math.cos(x), math.sin(x)),
                              0.0, math.pi, tol=1e-10)
        assert abs(z.real - 0.0) < 1e-9 and abs(z.imag - 2.0) < 1e-9

    def test_constant(self):
        z = integrate_complex(lambda x: complex(1.0, 0.0), 0.0, 3.0, tol=1e-10)
        assert abs(z - 3.0) < 1e-9

    def test_damped_rotation(self):
        # closed form 1/(1-i) = (1+i)/2
        z = integrate_complex(
            lambda x: complex(math.cos(x), math.sin(x)) * math.exp(-x),
            0.0, math.inf, tol=1e-8)
        assert abs(z.real - 0.5) < 1e-7 and abs(z.imag - 0.5) < 1e-7

    def test_real_integrand_has_tiny_imaginary_part(self):
        z = integrate_complex(lambda x: complex(normal_pdf(x), 0.0),
                              -math.inf, math.inf, tol=1e-8)
        assert abs(z.imag) <= 1e-8


class TestOscillatory:
    def test_dirichlet(self):
        v = integrate_oscillatory(sinc, lambda k: k * math.pi, tol=1e-8)
        assert abs(v - math.pi / 2.0) < 1e-8

    def test_dirichlet_loose_tol(self):
        v = integrate_oscillatory(sinc, lambda k: k * math.pi, tol=1e-4)
        assert abs(v - math.pi / 2.0) < 1e-4

    def test_damped_sine(self):
        v = integrate_oscillatory(lambda x: math.sin(x) * math.exp(-x),
                                  lambda k: k * math.pi, tol=1e-8)
        assert abs(v - 0.5) < 1e-8

    def test_slow_decay(self):
        # int_0^inf sin(x)/sqrt(x) dx = sqrt(pi/2)
        v = integrate_oscillatory(
            lambda x: math.sin(x) / math.sqrt(x) if x > 0 else 0.0,
            lambda k: k * math.pi, tol=1e-8)
        assert abs(v - math.sqrt(math.pi / 2.0)) < 1e-6

    def test_not_oscillatory(self):
        with pytest.raises(NotOscillatoryError):
            integrate_oscillatory(lambda x: math.exp(-x),
                                  lambda k: k * math.pi, tol=1e-8)

    def test_divergent_amplitude_raises(self):
        # partial sums of sin alternate forever without decaying; the Abel-style
        # average would settle on 1.0, which must not be reported as the integral
        with pytest.raises(NonConvergenceError):
            integrate_oscillatory(math.sin, lambda k: k * math.pi, tol=1e-8)

    @pytest.mark.parametrize("a", [64.0, 64.05, 204 * math.pi / 10])
    def test_lower_endpoint_between_zeros(self, a):
        # from 64.0 and 64.05 the first piece ends at the zero 20.4 pi and is
        # partial; it once entered the amplitude-decay check and raised
        v = integrate_oscillatory(lambda x: math.sin(10.0 * x) / (math.pi * (1.0 + x * x)),
                                  lambda k: k * math.pi / 10.0, a, tol=1e-12)
        assert abs(v - cauchy_sine_tail(a, 10.0)) <= 1e-12

    def test_finite_upper_endpoint_rejected(self):
        with pytest.raises(ValueError):
            integrate_oscillatory(sinc, lambda k: k * math.pi, b=100.0)


class TestSinc:
    def test_at_zero(self):
        assert sinc(0.0) == 1.0

    def test_patched_region_matches_series(self):
        x = 5e-5
        assert abs(sinc(x) - (1 - x * x / 6.0)) < 1e-18

    def test_plain_region(self):
        assert sinc(2.0) == math.sin(2.0) / 2.0

    def test_even(self):
        assert sinc(-0.7) == sinc(0.7)


class TestGaussianMoment:
    def test_even_match_double_factorial(self):
        for k in (0, 2, 4, 6, 8):
            assert abs(gaussian_moment(k) - double_factorial_moment(k)) < 1e-6

    def test_odd_vanish(self):
        for k in (1, 3, 5, 7):
            assert abs(gaussian_moment(k)) < 1e-7

    def test_k_validation(self):
        with pytest.raises(ValueError):
            gaussian_moment(-1)
        with pytest.raises(ValueError):
            gaussian_moment(1.5)


class TestExpTaylorRemainder:
    def test_zero(self):
        for n in (0, 1, 5):
            assert exp_taylor_remainder(0.0, n) == 0.0

    def test_example_x1_n2(self):
        v = exp_taylor_remainder(1.0, 2)
        direct = abs(complex(math.cos(1.0), math.sin(1.0)) - (1 + 1j - 0.5))
        assert abs(v - direct) < 1e-15
        assert v <= 1.0 / 6.0

    def test_example_x01_n1(self):
        assert exp_taylor_remainder(0.1, 1) <= 0.005

    @given(st.floats(-10, 10), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_both_remainder_bounds(self, x, n):
        v = exp_taylor_remainder(x, n)
        first = abs(x) ** (n + 1) / math.factorial(n + 1)
        second = 2.0 * abs(x) ** n / math.factorial(n)
        assert v <= min(first, second) + 1e-12


class TestSweep:
    def test_panels_tile_the_swept_range(self):
        exp_tail = lambda x: math.exp(-abs(x))
        for f, a, b in [(normal_pdf, -2.0, 3.0), (exp_tail, 1.0, math.inf),
                        (exp_tail, -math.inf, -1.0), (normal_pdf, -math.inf, math.inf)]:
            value, panels = _sweep(partial(_f_at_nodes, f), a, b, 1e-10)
            assert value == integrate(f, a, b, 1e-10)
            lefts, rights, values, _ = (np.concatenate(column) for column in zip(*panels))
            spans = sorted(zip(lefts.tolist(), rights.tolist()))
            assert all(p[1] == q[0] for p, q in zip(spans, spans[1:]))
            if math.isfinite(a):
                assert spans[0][0] == a
            if math.isfinite(b):
                assert spans[-1][1] == b
            assert abs(math.fsum(values) - value) <= 1e-15

    def test_breaks_seed_the_panels(self):
        breaks = np.array([-30.0, -1.0, 0.25, 3.0, 20.0])
        value, panels = _sweep(partial(_f_at_nodes, normal_pdf), -math.inf, math.inf, 1e-10, breaks)
        edges = set(np.concatenate([panel[0] for panel in panels]).tolist())
        assert set(breaks) <= edges
        assert abs(value - 1.0) <= 1e-10

    def test_seeds_find_a_peak_the_core_panel_misses(self):
        # x^2 times a narrow peak vanishes at the core's centre node, so an
        # unseeded sweep scores the whole core panel as empty; the panels of
        # the peak itself carry the seeds
        narrow = lambda x: math.exp(-0.5 * (x / 0.1) ** 2) / (0.1 * math.sqrt(2.0 * math.pi))
        _, panels = _sweep(partial(_f_at_nodes, narrow), -math.inf, math.inf, 1e-10)
        edges = np.unique(np.concatenate([panel[0] for panel in panels]))
        value = _sweep(partial(_f_at_nodes, lambda x: x * x * narrow(x)), -math.inf, math.inf, 1e-9, edges)[0]
        assert abs(value - 0.01) <= 1e-9

    def test_odd_integrand_stops_at_the_first_settled_shell(self):
        xs = []

        def odd(x):
            xs.append(x)
            return x * math.exp(-0.5 * x * x)

        assert abs(_sweep(partial(_f_at_nodes, odd), -math.inf, math.inf, 1e-8)[0]) <= 1e-8
        # one core panel and the two shells on each side of radius 16
        assert len(xs) == 75 and max(map(abs, xs)) < 32.0

    def test_min_mass_finds_mass_beyond_dead_shells(self):
        far = lambda x: normal_pdf(x - 100.0)
        assert abs(_sweep(partial(_f_at_nodes, far), -math.inf, math.inf, 1e-10)[0]) <= 1e-10
        value = _sweep(partial(_f_at_nodes, far), -math.inf, math.inf, 1e-10, min_mass=0.5)[0]
        assert abs(value - 1.0) <= 1e-10

    def test_panels_carry_their_node_rows(self):
        # each panel's row is the integrand at its nodes, reflected sweeps
        # included, so a partition reads its pdf values off the panels
        exp_tail = lambda x: math.exp(-abs(x))
        for a, b in [(-2.0, 3.0), (1.0, math.inf), (-math.inf, -1.0), (-math.inf, math.inf)]:
            panels = _sweep(partial(_f_at_nodes, exp_tail), a, b, 1e-10)[1]
            for pa, pb, _, fx in panels:
                assert np.array_equal(fx, _f_at_nodes(exp_tail, pa, pb))


class TestBatchedRounds:
    def test_reweights_node_values(self):
        # integral of e^{itx} over (0, 1): node values 1, reweighted by the caller
        asked = []

        def ones(a, b):
            asked.append(a.size)
            return np.ones_like(_gk15_nodes(a, b))

        for t in (0.5, 40.0):
            value, err, _ = _batched_rounds(
                lambda a, b: ones(a, b) * np.exp(1j * t * _gk15_nodes(a, b)),
                np.array([0.0, 0.5, 1.0]), 1e-10)
            assert abs(value - (np.exp(1j * t) - 1.0) / (1j * t)) <= 1e-10
            assert err <= 1e-10
        # t = 40 bisects: later rounds ask only for the new panels' values
        assert asked[0] == asked[1] == 2 and len(asked) > 2

    def test_panel_cap_raises(self):
        waves = lambda a, b: np.exp(1e7j * _gk15_nodes(a, b))
        with pytest.raises(NonConvergenceError):
            _batched_rounds(waves, np.array([0.0, 1.0]), 1e-10)
