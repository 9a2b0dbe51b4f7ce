import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cltlab import clt, distributions
from cltlab.charfuns import charfun, normal_charfun
from cltlab.clt import (
    CltExperiment,
    ConvergenceReport,
    Row,
    _MC_CHUNK_ELEMS,
    _MC_COUNTS_PER_ATOM,
    _mc_categorical,
    _mc_counts,
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
from cltlab.errors import NonConvergenceError
from cltlab.weak_convergence import levy_metric
from oracles import dkw_band, lattice_ks_distance, lattice_sum_cdf

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

    def test_mc_draws_must_be_integral(self):
        with pytest.raises(ValueError, match="mc_draws must be a positive integer, got 2.7"):
            CltExperiment(fair_die(), ns=(4,), mc_draws=2.7)
        assert CltExperiment(fair_die(), ns=(4,), mc_draws=2.0).mc_draws == 2

    def test_seed_must_be_integral(self):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.9"):
            CltExperiment(fair_die(), ns=(4,), mc_draws=2, seed=1.9)
        assert CltExperiment(fair_die(), ns=(4,), seed=1.0).seed == 1


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


def _summand_sums(sampler, base, n, draws, seed):
    """A summand sampler's normalized sums on the (seed, n) stream, as
    _mc_normalized_sum takes them for a base whose sum it cannot power."""
    sums = sampler(base, n, draws, np.random.default_rng([seed, n]))
    return Empirical(sums / math.sqrt(n * variance(base)))


def _lattice_law(base, n):
    """The exact law the lattice path draws from."""
    scale = math.sqrt(n * variance(base))
    return distributions._lattice_sum(base, n, distributions._lattice_span(base.points),
                                      scale, distributions._MAX_ATOMS)


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
        ("wide_5000", 20_000, 2, 17),  # one row holds more uniforms than a chunk
    ])
    def test_bit_identical_to_binary_search(self, name, n, draws, seed):
        base = SAMPLER_BASES[name]()
        # every case stays below the count path's n
        assert n < _MC_COUNTS_PER_ATOM * (base.points.size - 1)
        got = _summand_sums(_mc_categorical, base, n, draws, seed)
        want = _reference_mc_sum(base, n, draws, seed)
        for field in ("samples", "points", "weights"):
            assert _same_bits(getattr(got, field), getattr(want, field)), field

    def test_past_the_slot_cap_draws_summands(self):
        # 20,000 * 4999 + 1 slots: _mc_normalized_sum falls back to the
        # categorical path
        base = SAMPLER_BASES["wide_5000"]()
        got = _mc_normalized_sum(base, 20_000, 2, 17)
        want = _reference_mc_sum(base, 20_000, 2, 17)
        assert _same_bits(got.samples, want.samples)

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

    @pytest.mark.parametrize("sampler, n", [(_mc_categorical, 40), (_mc_counts, 400)])
    def test_draws_do_not_depend_on_the_draw_count(self, sampler, n):
        base = center(fair_die())
        draws = 3 * _MC_CHUNK_ELEMS + 5
        one = _summand_sums(sampler, base, n, _MC_CHUNK_ELEMS, 3).samples
        several = _summand_sums(sampler, base, n, draws, 3).samples
        assert _same_bits(several[:_MC_CHUNK_ELEMS], one)
        twice = _summand_sums(sampler, base, n, 2 * _MC_CHUNK_ELEMS, 3).samples
        assert _same_bits(several[:2 * _MC_CHUNK_ELEMS], twice)

    def test_draws_do_not_depend_on_the_chunking(self, monkeypatch):
        base = center(fair_die())
        draws = 3 * _MC_CHUNK_ELEMS + 5
        several = _summand_sums(_mc_categorical, base, 40, draws, 3).samples
        monkeypatch.setattr(clt, "_MC_CHUNK_ELEMS", 1000)
        assert _same_bits(_summand_sums(_mc_categorical, base, 40, draws, 3).samples, several)

    def test_memory_bounded_by_one_chunk(self):
        base = center(fair_die())
        rows = {
            "categorical": (lambda: _summand_sums(_mc_categorical, base, 128, 100_000, 7), 16e6),
            "counts": (lambda: _summand_sums(_mc_counts, base, 256, 100_000, 7), 16e6),
            "law": (lambda: _mc_normalized_sum(base, 256, 100_000, 7), 16e6),
            # a law row holds the law and one count per atom, whatever the draws
            "law at 10^7 draws": (lambda: _mc_normalized_sum(base, 256, 10**7, 7), 1e6),
            # the die's largest sum within the slot cap, and the first past it
            "law at the cap": (lambda: _mc_normalized_sum(base, 199_999, 100_000, 7), 16e6),
            "counts past the cap": (lambda: _mc_normalized_sum(base, 200_000, 100_000, 7), 16e6),
        }
        for name, (row, bound) in rows.items():
            tracemalloc.start()
            try:
                row()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, name


# integer atoms, exact weights and an n on the count path
COUNT_PATH_CASES = {
    "die": ([1, 2, 3, 4, 5, 6], [Fraction(1, 6)] * 6, 200),
    "coin": ([-1, 1], [Fraction(1, 2)] * 2, 64),
    "gapped": ([0, 2, 3, 5], [Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4)],
               300),
}


class TestCountPath:
    @pytest.mark.parametrize("name", sorted(COUNT_PATH_CASES))
    def test_within_dkw_band_of_exact_law(self, name):
        points, weights, n = COUNT_PATH_CASES[name]
        base = Discrete(np.array(points, dtype=float), np.array([float(w) for w in weights]))
        assert n >= _MC_COUNTS_PER_ATOM * (base.points.size - 1)
        draws = 400_000
        drawn = _summand_sums(_mc_counts, base, n, draws, 2024)
        scaled = drawn.samples * math.sqrt(n * variance(base))
        sums = np.rint(scaled).astype(np.int64)
        assert np.abs(scaled - sums).max() < 1e-9
        lo, F = lattice_sum_cdf(points, weights, n)
        assert lattice_ks_distance(sums, lo, F) <= dkw_band(draws)

    def test_rows_deterministic_and_independent(self):
        # 20,000 draws span two chunks
        exp = CltExperiment(fair_die(), ns=(10, 160, 320), seed=4, mc_draws=20_000)
        rows = run_clt(exp).rows
        assert run_clt(exp).rows == rows
        alone = CltExperiment(fair_die(), ns=(320,), seed=4, mc_draws=20_000)
        assert run_clt(alone).rows == rows[-1:]
        base = center(fair_die())
        a, b = (_summand_sums(_mc_counts, base, 320, 20_000, 4) for _ in range(2))
        assert _same_bits(a.samples, b.samples)

    @pytest.mark.parametrize("weights", [[0.5, 0.5 + 3e-13, 1e-13], [0.25, 0.25, 0.5 - 4e-13]])
    def test_weight_sum_off_one(self, weights):
        # weights summing to 1 + 4e-13 and 1 - 4e-13: shares taken from the
        # suffix sums stay at most 1 (1 - 0.5 would leave less than the
        # middle atom's 0.5 + 3e-13), and every sum is one the atoms can make
        base = Discrete(np.arange(3.0), np.array(weights))
        n = _MC_COUNTS_PER_ATOM * 2
        drawn = _summand_sums(_mc_counts, base, n, 20_000, 3)
        scaled = drawn.samples * math.sqrt(n * variance(base))
        sums = np.rint(scaled)
        assert np.abs(scaled - sums).max() < 1e-9
        assert 0 <= sums.min() and sums.max() <= 2 * n


# lattice bases of the sampler tests, each with an n whose sum's slots fit
# both the slot cap and draws * n, a draw count and a seed
LAW_PATH_CASES = [
    ("coin", 3, 25_001, 5),
    ("die", 50, 12_345, 7),
    ("die", 1, 30_000, 13),
    ("inexact_lattice", 17, 20_000, 2),
    ("tiny_weights", 9, 30_000, 3),
    ("wide", 5, 25_000, 11),
    ("wide_5000", 3, 20_000, 23),
    ("short", 300, 20_000, 29),
    ("empirical", 40, 20_000, 31),
]


@pytest.fixture
def no_summands(monkeypatch):
    """Fail any row that draws its summands instead of its exact law."""
    def refuse(*args):
        raise AssertionError("a lattice row within the slot cap drew summands")

    monkeypatch.setattr(clt, "_mc_categorical", refuse)
    monkeypatch.setattr(clt, "_mc_counts", refuse)


@pytest.fixture
def count_rows(monkeypatch):
    """The n of every row that draws count vectors, in call order."""
    calls = []
    counts = clt._mc_counts

    def spy(base, n, draws, rng):
        calls.append(n)
        return counts(base, n, draws, rng)

    monkeypatch.setattr(clt, "_mc_counts", spy)
    return calls


class TestLatticeLawPath:
    @pytest.mark.parametrize("name, n, draws, seed", LAW_PATH_CASES)
    def test_counts_equal_multinomial_on_the_law(self, name, n, draws, seed, no_summands):
        base = SAMPLER_BASES[name]()
        law = _lattice_law(base, n)
        got = _mc_normalized_sum(base, n, draws, seed)
        c = np.random.default_rng([seed, n]).multinomial(draws, law.weights)
        hit = c > 0
        assert _same_bits(got._counts, c[hit])
        assert _same_bits(got.points, law.points[hit])
        assert _same_bits(got.weights, c[hit] / draws)
        assert _same_bits(got._cumweights, np.cumsum(c[hit]) / draws)
        # the sample is built only when read, sorted
        assert "samples" not in vars(got)
        assert _same_bits(got.samples, np.repeat(law.points, c))

    def test_counts_skip_the_far_tails(self, no_summands):
        # 10^8 draws of the die's sum at n = 256: no draw reaches an atom of
        # mass below 1e-30, although the law keeps such atoms
        base, n, draws = center(fair_die()), 256, 10**8
        law = _lattice_law(base, n)
        tiny = law.weights < 1e-30
        assert tiny.any()
        c = np.random.default_rng([8, n]).multinomial(draws, law.weights)
        assert c.sum() == draws and not c[tiny].any()
        got = _mc_normalized_sum(base, n, draws, 8)
        assert got._counts.sum() == draws
        assert not np.isin(law.points[tiny], got.points).any()

    @pytest.mark.parametrize("name", sorted(COUNT_PATH_CASES))
    def test_within_dkw_band_of_exact_law(self, name, no_summands):
        # the die and the gapped base are not centred
        points, weights, n = COUNT_PATH_CASES[name]
        base = Discrete(np.array(points, dtype=float), np.array([float(w) for w in weights]))
        draws = 400_000
        scaled = _mc_normalized_sum(base, n, draws, 2024).samples * math.sqrt(n * variance(base))
        sums = np.rint(scaled).astype(np.int64)
        assert np.abs(scaled - sums).max() < 1e-9
        lo, F = lattice_sum_cdf(points, weights, n)
        assert lattice_ks_distance(sums, lo, F) <= dkw_band(draws)

    @pytest.mark.parametrize("wide, n", [(100_000, 9), (20_000, 40)])
    def test_sparse_wide_lattice_draws_summands(self, wide, n, monkeypatch):
        # the sum's 900,001 and 800,001 slots outnumber the 2000 * n summands
        # the row stands for, so the row draws those instead of the law
        points, weights = [0, 1, wide], [Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)]
        base = Discrete(np.array(points, dtype=float), np.array([float(w) for w in weights]))
        calls = []
        categorical = clt._mc_categorical

        def spy(base, n, draws, rng):
            calls.append(n)
            return categorical(base, n, draws, rng)

        monkeypatch.setattr(clt, "_mc_categorical", spy)
        draws = 2000
        scaled = _mc_normalized_sum(base, n, draws, 5).samples * math.sqrt(n * variance(base))
        assert calls == [n]
        sums = np.rint(scaled).astype(np.int64)
        assert np.abs(scaled - sums).max() < 1e-9
        lo, F = lattice_sum_cdf(points, weights, n)
        assert lattice_ks_distance(sums, lo, F) <= dkw_band(draws)

    def test_die_past_the_slot_cap_draws_count_vectors(self, count_rows):
        base = center(fair_die())
        _mc_normalized_sum(base, 199_999, 1000, 1)
        assert count_rows == []
        got = _mc_normalized_sum(base, 200_000, 1000, 1)
        assert count_rows == [200_000]
        want = _summand_sums(_mc_counts, base, 200_000, 1000, 1)
        assert _same_bits(got.samples, want.samples)

    def test_dropped_mass_over_budget_draws_count_vectors(self, count_rows):
        # a wide base with extreme weights: its powering drops 1.9e-13 of
        # mass at n = 600, over the 1e-13 budget
        w = np.array([1e-4, 0.81, 0.0074, 0.18])
        base = Discrete(np.array([0.0, 137.0, 290.0, 548.0]), w / w.sum())
        with pytest.raises(NonConvergenceError):
            _lattice_law(center(base), 600)
        rows = run_clt(CltExperiment(base, ns=(600,), seed=1, mc_draws=2000)).rows
        assert count_rows == [600] and [r.n for r in rows] == [600]


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
