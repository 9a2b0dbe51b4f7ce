"""Finite probability spaces with explicit event families.

Events are subsets of the outcome index set, represented as frozensets of
indices.  Sigma-algebra generation is exhaustive (closure under complement
and union), which is why the outcome count is capped at 20.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .distributions import Discrete
from .errors import SizeLimitError

_EQ_TOL = 1e-12
_MAX_OUTCOMES = 20


@dataclass(frozen=True, eq=False)
class FiniteProbSpace:
    """Finite outcome set with nonnegative weights summing to one."""

    outcomes: tuple
    weights: np.ndarray

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        wts = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(outcomes) == 0:
            raise ValueError("a probability space needs at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be distinct")
        if len(outcomes) != wts.size:
            raise ValueError("outcomes and weights must have matching lengths")
        if not np.isfinite(wts).all() or np.any(wts < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(float(wts.sum()) - 1.0) > _EQ_TOL:
            raise ValueError(f"weights must sum to 1, got {float(wts.sum())!r}")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "weights", wts)

    @property
    def n(self) -> int:
        return len(self.outcomes)

    def measure(self, event: Iterable[int]) -> float:
        """Probability of an event given as outcome indices."""
        idx = _as_indices(event, self.n)
        return float(self.weights[idx].sum()) if idx else 0.0


def _as_indices(event: Iterable[int], n: int) -> list[int]:
    idx = sorted(set(int(i) for i in event))
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise IndexError(f"event indices must lie in [0, {n}), got {idx}")
    return idx


@dataclass(frozen=True, eq=False)
class EventFamily:
    """A family of events over n_outcomes indices."""

    n_outcomes: int
    events: frozenset

    def __post_init__(self):
        events = frozenset(frozenset(_as_indices(e, self.n_outcomes)) for e in self.events)
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __contains__(self, event) -> bool:
        return frozenset(event) in self.events


def generate_sigma_algebra(n_outcomes: int, generators: Iterable[Iterable[int]]) -> EventFamily:
    """Smallest family containing the generators that is closed under
    complement and union (hence intersection) and contains empty and full.

    On a finite outcome set this is the set of all unions of the blocks of
    the partition the generators induce.  Raises SizeLimitError when
    n_outcomes exceeds 20.
    """
    if not isinstance(n_outcomes, (int, np.integer)) or n_outcomes < 1:
        raise ValueError(f"n_outcomes must be a positive integer, got {n_outcomes!r}")
    if n_outcomes > _MAX_OUTCOMES:
        raise SizeLimitError(
            f"sigma-algebra generation is capped at {_MAX_OUTCOMES} outcomes, got {n_outcomes}"
        )
    gen_masks = []
    for g in generators:
        mask = 0
        for i in _as_indices(g, int(n_outcomes)):
            mask |= 1 << i
        gen_masks.append(mask)
    # partition outcomes by generator-membership signature
    blocks: dict[tuple, int] = {}
    for i in range(int(n_outcomes)):
        sig = tuple((m >> i) & 1 for m in gen_masks)
        blocks[sig] = blocks.get(sig, 0) | (1 << i)
    block_masks = list(blocks.values())
    events = []
    for r in range(len(block_masks) + 1):
        for combo in combinations(block_masks, r):
            mask = 0
            for m in combo:
                mask |= m
            events.append(mask)
    members = frozenset(
        frozenset(i for i in range(int(n_outcomes)) if (mask >> i) & 1) for mask in events
    )
    return EventFamily(int(n_outcomes), members)


class MeasureCheck(NamedTuple):
    """Result of a probability-measure validation; reason is one of
    EmptySetNonzero / TotalMassNotOne / ValueOutOfRange / NotAdditive,
    or None when ok."""

    ok: bool
    reason: str | None


def is_probability_measure(
    space: FiniteProbSpace,
    family: EventFamily,
    mu: Callable[[frozenset], float] | Mapping,
) -> MeasureCheck:
    """Check the probability axioms for mu on the given event family.

    All comparisons use absolute tolerance 1e-12.  Additivity is checked for
    every disjoint pair in the family whose union is also in the family.
    """
    if family.n_outcomes != space.n:
        raise ValueError("event family and space disagree on the outcome count")
    get = mu.__getitem__ if isinstance(mu, Mapping) else mu
    values = {event: float(get(event)) for event in family.events}
    full = frozenset(range(space.n))
    empty = frozenset()
    if empty in values and abs(values[empty]) > _EQ_TOL:
        return MeasureCheck(False, "EmptySetNonzero")
    if full in values and abs(values[full] - 1.0) > _EQ_TOL:
        return MeasureCheck(False, "TotalMassNotOne")
    for event, v in values.items():
        if v < -_EQ_TOL or v > 1.0 + _EQ_TOL:
            return MeasureCheck(False, "ValueOutOfRange")
    events = sorted(values, key=lambda e: (len(e), sorted(e)))
    for i, a in enumerate(events):
        for b in events[i + 1:]:
            if a & b:
                continue
            union = a | b
            if union in values:
                if abs(values[union] - (values[a] + values[b])) > _EQ_TOL:
                    return MeasureCheck(False, "NotAdditive")
    return MeasureCheck(True, None)


FiniteRV = Sequence[float]


def _rv_values(space: FiniteProbSpace, rv: FiniteRV) -> np.ndarray:
    vals = np.asarray(rv, dtype=float).reshape(-1)
    if vals.size != space.n:
        raise ValueError(
            f"random variable assigns {vals.size} values to {space.n} outcomes"
        )
    if not np.isfinite(vals).all():
        raise ValueError("random variable values must be finite")
    return vals


def are_independent(
    space: FiniteProbSpace,
    rvs: Sequence[FiniteRV],
    subsets: Sequence[Sequence[int]] | None = None,
) -> bool:
    """True iff joint = product of marginals over all value-level events.

    For every requested index subset (all subsets of size >= 2 by default)
    and every assignment of one value per chosen variable, the probability
    of the joint preimage must equal the product of the marginal preimage
    probabilities within 1e-12.
    """
    if not rvs:
        raise ValueError("need at least one random variable")
    vals = [_rv_values(space, rv) for rv in rvs]
    if subsets is None:
        subsets = [
            list(c) for r in range(2, len(rvs) + 1) for c in combinations(range(len(rvs)), r)
        ]
    for sub in subsets:
        sub = list(sub)
        if any(not isinstance(i, (int, np.integer)) or i < 0 or i >= len(rvs) for i in sub):
            raise IndexError(f"rv indices must lie in [0, {len(rvs)}), got {sub}")
        if len(set(sub)) != len(sub):
            raise ValueError(f"rv indices must be distinct, got {sub}")
        if len(sub) < 2:
            continue
        level_sets = []
        for i in sub:
            uniq, inv = np.unique(vals[i], return_inverse=True)
            level_sets.append([inv == k for k in range(uniq.size)])
        stack = [(np.ones(space.n, dtype=bool), 1.0)]
        for masks in level_sets:
            stack = [
                (joint & m, prob * float(space.weights[m].sum()))
                for joint, prob in stack
                for m in masks
            ]
        for joint, prod in stack:
            if abs(float(space.weights[joint].sum()) - prod) > _EQ_TOL:
                return False
    return True


def pushforward(space: FiniteProbSpace, rv: FiniteRV) -> Discrete:
    """Law of rv under the space's measure, as a Discrete distribution.

    Outcomes with zero weight contribute no atom.
    """
    vals = _rv_values(space, rv)
    uniq, inv = np.unique(vals, return_inverse=True)
    wts = np.array([float(space.weights[inv == k].sum()) for k in range(uniq.size)])
    keep = wts > 0.0
    return Discrete(uniq[keep], wts[keep])


def expectation(space: FiniteProbSpace, rv: FiniteRV) -> float:
    """E[rv] = sum of value * weight over outcomes."""
    vals = _rv_values(space, rv)
    return float(np.dot(space.weights, vals))


def variance(space: FiniteProbSpace, rv: FiniteRV) -> float:
    """Var[rv] = E[(rv - E[rv])^2]."""
    vals = _rv_values(space, rv)
    m = float(np.dot(space.weights, vals))
    return float(np.dot(space.weights, (vals - m) ** 2))


def product_space(a: FiniteProbSpace, b: FiniteProbSpace) -> FiniteProbSpace:
    """Independent product: outcome pairs with product weights."""
    outcomes = tuple((x, y) for x in a.outcomes for y in b.outcomes)
    weights = np.multiply.outer(a.weights, b.weights).ravel()
    return FiniteProbSpace(outcomes, weights)


def fair_die_space() -> FiniteProbSpace:
    """The fair six-sided die as a probability space with outcomes 1..6."""
    return FiniteProbSpace(tuple(range(1, 7)), np.full(6, 1.0 / 6.0))
