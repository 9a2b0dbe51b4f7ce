import itertools
import subprocess
import sys

import numpy as np
import pytest

from cltlab.errors import SizeLimitError
from cltlab.finite_space import (
    EventFamily,
    FiniteProbSpace,
    are_independent,
    expectation,
    fair_die_space,
    generate_sigma_algebra,
    is_probability_measure,
    product_space,
    pushforward,
    variance,
)
from cltlab.distributions import mean as dist_mean


def closure_scan(family: EventFamily, n: int):
    """Exhaustively verify the sigma-algebra axioms on a finite family."""
    omega = frozenset(range(n))
    events = set(family)
    assert frozenset() in events
    for e in events:
        assert omega - e in events
    for a, b in itertools.combinations_with_replacement(events, 2):
        assert a | b in events


class TestFiniteProbSpace:
    def test_basic(self):
        s = FiniteProbSpace(("a", "b"), (0.25, 0.75))
        assert s.n == 2
        assert s.measure([1]) == 0.75
        assert s.measure([0, 1]) == 1.0
        assert s.measure([]) == 0.0

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            FiniteProbSpace(("a", "b"), (0.5, 0.4))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            FiniteProbSpace(("a", "b"), (-0.1, 1.1))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            FiniteProbSpace(("a", "a"), (0.5, 0.5))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            FiniteProbSpace(("a", "b", "c"), (0.5, 0.5))

    def test_event_index_out_of_range(self):
        s = fair_die_space()
        with pytest.raises(IndexError):
            s.measure([7])


class TestGenerateSigmaAlgebra:
    def test_trivial(self):
        fam = generate_sigma_algebra(4, [])
        assert set(fam) == {frozenset(), frozenset(range(4))}

    def test_single_generator(self):
        fam = generate_sigma_algebra(4, [{0, 1}])
        assert set(fam) == {frozenset(), frozenset({0, 1}),
                            frozenset({2, 3}), frozenset(range(4))}

    def test_two_singletons_give_powerset(self):
        fam = generate_sigma_algebra(3, [{0}, {1}])
        assert len(fam) == 8

    def test_closure_exhaustive_small(self):
        cases = [
            (3, [{0}, {1}]),
            (4, [{0, 1}]),
            (5, [{0, 2}, {2, 3}]),
            (8, [{0, 1, 2}, {2, 3, 4}, {6}]),
        ]
        for n, gens in cases:
            fam = generate_sigma_algebra(n, gens)
            closure_scan(fam, n)
            for g in gens:
                assert frozenset(g) in fam

    def test_minimality_blocks(self):
        # every event must be a union of the partition blocks induced by the
        # generators, so |family| is a power of two
        fam = generate_sigma_algebra(6, [{0, 1}, {1, 2}])
        assert len(fam) in {2, 4, 8, 16, 32, 64}
        closure_scan(fam, 6)

    def test_out_of_range_generator(self):
        with pytest.raises(IndexError):
            generate_sigma_algebra(3, [{5}])

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            generate_sigma_algebra(21, [])

    def test_membership_protocol(self):
        fam = generate_sigma_algebra(4, [{0, 1}])
        assert frozenset({2, 3}) in fam
        assert frozenset({0}) not in fam
        assert len(fam) == 4


class TestIsProbabilityMeasure:
    def setup_method(self):
        self.space = fair_die_space()
        self.family = generate_sigma_algebra(6, [{0}, {1}, {2}, {3}, {4}])

    def test_induced_measure(self):
        check = is_probability_measure(self.space, self.family,
                                       lambda e: self.space.measure(sorted(e)))
        assert check.ok and check.reason is None

    def test_empty_set_nonzero(self):
        def mu(e):
            return 0.1 if len(e) == 0 else self.space.measure(sorted(e))
        check = is_probability_measure(self.space, self.family, mu)
        assert not check.ok and check.reason == "EmptySetNonzero"

    def test_total_mass(self):
        def mu(e):
            return 0.9 * self.space.measure(sorted(e))
        check = is_probability_measure(self.space, self.family, mu)
        assert not check.ok and check.reason == "TotalMassNotOne"

    def test_value_out_of_range(self):
        fam = generate_sigma_algebra(2, [{0}])
        space = FiniteProbSpace(("h", "t"), (0.5, 0.5))
        table = {frozenset(): 0.0, frozenset({0}): -0.25,
                 frozenset({1}): 1.25, frozenset({0, 1}): 1.0}
        check = is_probability_measure(space, fam, table)
        assert not check.ok and check.reason == "ValueOutOfRange"

    def test_not_additive(self):
        fam = generate_sigma_algebra(2, [{0}])
        space = FiniteProbSpace(("h", "t"), (0.5, 0.5))
        table = {frozenset(): 0.0, frozenset({0}): 0.5,
                 frozenset({1}): 0.5, frozenset({0, 1}): 1.0}
        # corrupt additivity only: A and B fine, union undercounted
        bad = dict(table)
        bad[frozenset({0, 1})] = 0.9
        check = is_probability_measure(space, fam, bad)
        assert not check.ok and check.reason in {"NotAdditive", "TotalMassNotOne"}
        # make the books balance globally but break a strict sub-union
        fam3 = generate_sigma_algebra(3, [{0}, {1}])
        space3 = FiniteProbSpace(("a", "b", "c"), (0.25, 0.25, 0.5))
        def mu3(e):
            if e == frozenset({0, 1}):
                return 0.4
            return space3.measure(sorted(e))
        check3 = is_probability_measure(space3, fam3, mu3)
        assert not check3.ok and check3.reason == "NotAdditive"


class TestIndependence:
    def test_two_fair_coins(self):
        coin = FiniteProbSpace(("h", "t"), (0.5, 0.5))
        two = product_space(coin, coin)
        x = [1.0 if a == "h" else 0.0 for a, _ in two.outcomes]
        y = [1.0 if b == "h" else 0.0 for _, b in two.outcomes]
        assert are_independent(two, [x, y])

    def test_pair_with_itself(self):
        coin = FiniteProbSpace(("h", "t"), (0.5, 0.5))
        two = product_space(coin, coin)
        x = [1.0 if a == "h" else 0.0 for a, _ in two.outcomes]
        assert not are_independent(two, [x, x])

    def test_single_rv_vacuous(self):
        die = fair_die_space()
        assert are_independent(die, [[float(o) for o in die.outcomes]])

    def test_symmetric_in_rv_order(self):
        coin = FiniteProbSpace(("h", "t"), (0.3, 0.7))
        two = product_space(coin, coin)
        x = [1.0 if a == "h" else 0.0 for a, _ in two.outcomes]
        y = [1.0 if b == "h" else 0.0 for _, b in two.outcomes]
        assert are_independent(two, [x, y]) == are_independent(two, [y, x])

    def test_product_space_coordinates_any_weighting(self):
        left = FiniteProbSpace(("a", "b", "c"), (0.2, 0.3, 0.5))
        right = FiniteProbSpace((0, 1), (0.9, 0.1))
        prod = product_space(left, right)
        xs = [float(ord(str(a)[0])) for a, _ in prod.outcomes]
        ys = [float(b) for _, b in prod.outcomes]
        assert are_independent(prod, [xs, ys])

    def test_dependent_dice_functions(self):
        die = fair_die_space()
        faces = [float(o) for o in die.outcomes]
        parity = [f % 2 for f in faces]
        assert not are_independent(die, [faces, parity])

    def test_subset_selection(self):
        coin = FiniteProbSpace(("h", "t"), (0.5, 0.5))
        two = product_space(coin, coin)
        x = [1.0 if a == "h" else 0.0 for a, _ in two.outcomes]
        y = [1.0 if b == "h" else 0.0 for _, b in two.outcomes]
        # (x, y, x): full triple fails, but {0,1} passes
        assert not are_independent(two, [x, y, x])
        assert are_independent(two, [x, y, x], subsets=[[0, 1]])

    def test_out_of_range_subset(self):
        die = fair_die_space()
        faces = [float(o) for o in die.outcomes]
        with pytest.raises(IndexError):
            are_independent(die, [faces], subsets=[[0, 3]])

    def test_empty_rv_list_rejected(self):
        with pytest.raises(ValueError):
            are_independent(fair_die_space(), [])


class TestPushforwardAndMoments:
    def test_die_identity(self):
        die = fair_die_space()
        mu = pushforward(die, [float(o) for o in die.outcomes])
        assert list(mu.points) == [1, 2, 3, 4, 5, 6]
        assert np.allclose(mu.weights, 1 / 6, atol=1e-15)
        assert abs(mu.weights.sum() - 1.0) <= 1e-12

    def test_constant_rv(self):
        die = fair_die_space()
        mu = pushforward(die, [4.25] * 6)
        assert list(mu.points) == [4.25]
        assert mu.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_grouped_values(self):
        space = FiniteProbSpace(("x", "y", "z"), (0.2, 0.3, 0.5))
        mu = pushforward(space, [1.0, 1.0, 2.0])
        assert list(mu.points) == [1.0, 2.0]
        assert abs(mu.weights[0] - 0.5) < 1e-15 and abs(mu.weights[1] - 0.5) < 1e-15

    def test_die_mean_and_variance(self):
        die = fair_die_space()
        faces = [float(o) for o in die.outcomes]
        assert abs(expectation(die, faces) - 3.5) <= 1e-12
        assert abs(variance(die, faces) - 35.0 / 12.0) <= 1e-12

    def test_constant_variance_zero(self):
        # exact-weight space: the centered second moment is exactly zero
        quarters = FiniteProbSpace((0, 1, 2, 3), (0.25, 0.25, 0.25, 0.25))
        assert variance(quarters, [2.0] * 4) == 0.0
        # 1/6 weights carry float residue; the variance still vanishes numerically
        assert variance(fair_die_space(), [2.0] * 6) <= 1e-30

    def test_change_of_variables(self):
        space = FiniteProbSpace(("a", "b", "c", "d"), (0.1, 0.2, 0.3, 0.4))
        rv = [3.0, -1.0, 3.0, 0.5]
        assert abs(expectation(space, rv) - dist_mean(pushforward(space, rv))) <= 1e-12

    def test_rv_length_mismatch(self):
        with pytest.raises(ValueError):
            expectation(fair_die_space(), [1.0, 2.0])


# Bare np.unique imports numpy.ma on first use (numpy 2.4); grouping by its
# inverse does not, so the space demo leaves the import out of a cold CLI run.
_SPACE_DEMO_IMPORTS = """
import contextlib, io, sys
import cltlab.cli
if "numpy.ma" in sys.modules:
    print("preloaded")
    sys.exit(0)
with contextlib.redirect_stdout(io.StringIO()):
    code = cltlab.cli.main(["space", "--demo", "die"])
print(code, "numpy.ma" in sys.modules)
"""


def test_space_demo_leaves_numpy_ma_unimported():
    proc = subprocess.run([sys.executable, "-c", _SPACE_DEMO_IMPORTS],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "preloaded":
        pytest.skip("importing cltlab.cli already loads numpy.ma")
    assert proc.stdout.split() == ["0", "False"]
