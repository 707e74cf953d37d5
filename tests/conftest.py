"""Shared deterministic generators for randomized suites."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rumkit import (
    Model,
    Preference,
    PreferenceDistribution,
    RandomChoiceRule,
    Universe,
    contour_pair_keys,
)


def random_preference(rng: random.Random, universe: Universe) -> Preference:
    ranking = list(range(universe.n))
    rng.shuffle(ranking)
    return Preference(universe, tuple(ranking))


def random_model(rng: random.Random, universe: Universe, size: int) -> Model:
    chosen: dict[tuple[int, ...], Preference] = {}
    while len(chosen) < size:
        pref = random_preference(rng, universe)
        chosen[pref.ranking] = pref
    return Model.of(universe, chosen.values())


def random_distribution(
    rng: random.Random, model: Model, max_weight: int = 12
) -> PreferenceDistribution:
    weights = [rng.randrange(0, max_weight + 1) for _ in model.preferences]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    return PreferenceDistribution(
        model,
        {p: Fraction(w, total) for p, w in zip(model.preferences, weights)},
    )


def random_rule(rng: random.Random, universe: Universe) -> RandomChoiceRule:
    """A valid rule with random rational menu splits (not necessarily rational-
    izable by any distribution)."""
    values: dict[tuple[int, int], Fraction] = {}
    for mask in range(1, universe.full_mask + 1):
        members = [x for x in range(universe.n) if mask >> x & 1]
        weights = [rng.randrange(0, 7) for _ in members]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        for x, w in zip(members, weights):
            values[(x, mask)] = Fraction(w, total)
    return RandomChoiceRule(universe, values)


def random_mobius_values(
    rng: random.Random, universe: Universe
) -> dict[tuple[int, int], Fraction]:
    """An arbitrary exact table over all pairs, negative entries included."""
    return {
        key: Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        for key in contour_pair_keys(universe.n)
    }


def alternating_sum_mobius(rule: RandomChoiceRule) -> dict[tuple[int, int], Fraction]:
    """Oracle for the Mobius inverse, entry by entry from its definition:
    q(x, A) = sum over B >= A of (-1)^|B \\ A| p(x, B)."""
    universe = rule.universe
    table = {}
    for x, mask in contour_pair_keys(universe.n):
        extra = universe.full_mask & ~mask
        total = Fraction(0)
        add = extra
        while True:
            sign = -1 if add.bit_count() & 1 else 1
            total += sign * rule.value(x, mask | add)
            if add == 0:
                break
            add = (add - 1) & extra
        table[(x, mask)] = total
    return table


def best_element_rule(dist: PreferenceDistribution) -> dict[tuple[int, int], Fraction]:
    """Oracle for the induced rule: p(x, A) is the summed mass of the
    preferences whose best element in A is x."""
    universe = dist.universe
    table = {key: Fraction(0) for key in contour_pair_keys(universe.n)}
    for mask in range(1, universe.full_mask + 1):
        for pref, m in dist.entries:
            table[(pref.best_in(mask), mask)] += m
    return table


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
