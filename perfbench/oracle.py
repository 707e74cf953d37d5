"""Known answers, computed without calling the code under test.

Preferences here are plain rankings (tuples of alternatives, best first) and
menus are frozensets or bitmasks, so no check leans on rumkit's own types or
routines to judge rumkit's answers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations


def max_identified_size(n: int) -> int:
    """The paper's bound on an identified model: (n - 2) * 2^(n - 1) + 2."""
    return (n - 2) * 2 ** (n - 1) + 2


def best(ranking, menu) -> object:
    """The first alternative of ranking that the menu contains."""
    for x in ranking:
        if x in menu:
            return x
    raise ValueError("empty menu")


def induced_rule(weighted, alternatives) -> dict[tuple[object, frozenset], Fraction]:
    """p(x, A) for every nonempty menu A, by best-element choice.

    weighted lists (ranking, mass) pairs; entries that are zero are omitted.
    """
    rule: dict[tuple[object, frozenset], Fraction] = {}
    alternatives = tuple(alternatives)
    for size in range(1, len(alternatives) + 1):
        for members in combinations(alternatives, size):
            menu = frozenset(members)
            for ranking, mass in weighted:
                key = (best(ranking, menu), menu)
                rule[key] = rule.get(key, Fraction(0)) + mass
    return rule


def contour_masses(weighted) -> dict[tuple[object, frozenset], Fraction]:
    """The Mobius inverse of an induced rule, as contour-class mass.

    q(x, A) is the mass of rankings under which A is exactly x together with
    everything ranked below x; entries that are zero are omitted.
    """
    q: dict[tuple[object, frozenset], Fraction] = {}
    for ranking, mass in weighted:
        for pos, x in enumerate(ranking):
            key = (x, frozenset(ranking[pos:]))
            q[key] = q.get(key, Fraction(0)) + mass
    return q


def certificate_problem(model_rankings, nu, nu_prime, alternatives) -> str | None:
    """Why (nu, nu_prime) fails to certify non-identification, or None.

    Both must be distributions on the model with disjoint supports that
    induce the same rule.
    """
    for label, dist in (("nu", nu), ("nu'", nu_prime)):
        if not dist or any(m <= 0 for m in dist.values()):
            return f"{label} is empty or has a nonpositive mass"
        if sum(dist.values()) != 1:
            return f"{label} sums to {sum(dist.values())}"
        if not set(dist) <= set(model_rankings):
            return f"{label} puts mass outside the model"
    if set(nu) & set(nu_prime):
        return "supports overlap"
    if induced_rule(nu.items(), alternatives) != induced_rule(nu_prime.items(), alternatives):
        return "the two distributions induce different rules"
    return None


def single_crossing_exists(rankings) -> bool:
    """Some enumeration switches every pair's comparison at most once.

    That is the same as an exogenous order existing: order the alternatives by
    the last ranking of the enumeration. Brute force, for small models only.
    """
    alternatives = rankings[0]
    pairs = list(combinations(alternatives, 2))
    above = [{(x, y): r.index(x) < r.index(y) for x, y in pairs} for r in rankings]
    for order in permutations(range(len(rankings))):
        if all(
            sum(above[a][p] != above[b][p] for a, b in zip(order, order[1:])) <= 1
            for p in pairs
        ):
            return True
    return False


def peel_witness_problem(model_rankings, witness) -> str | None:
    """Why a peeling order is not a sequential decomposition witness, or None.

    witness lists (ranking, x, menu) best-first peels; every ranking of the
    model must appear once, menu must be x with everything the ranking puts
    below x, and no later ranking of the order may share that contour pair.
    """
    if sorted(r for r, _, _ in witness) != sorted(model_rankings):
        return "the order does not list the model exactly once"
    suffix_count: dict[tuple[object, frozenset], int] = {}
    for ranking, x, menu in reversed(witness):
        for pos, y in enumerate(ranking):
            key = (y, frozenset(ranking[pos:]))
            suffix_count[key] = suffix_count.get(key, 0) + 1
        if frozenset(ranking[ranking.index(x):]) != menu:
            return f"pair ({x}, {sorted(menu)}) is not a contour pair of {ranking}"
        if suffix_count[(x, menu)] != 1:
            return f"pair ({x}, {sorted(menu)}) is shared by a later preference"
    return None
