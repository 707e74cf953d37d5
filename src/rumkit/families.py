"""Special model families: single-crossing models, Latin squares, and the
fixture models used throughout the test suite.

An exogenous order over alternatives is represented by an ordinary
Preference whose ranking lists the order best first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .core import (
    Model,
    Preference,
    Universe,
    lattice,
    preference_from_labels,
    require_same_universe,
)
from .decompose import recover_distribution
from .errors import NotCarumError, RumkitError
from .stochastic import (
    PreferenceDistribution,
    RandomChoiceRule,
    mobius_inverse,
    validate_rcr,
)

@dataclass(frozen=True)
class SingleCrossingResult:
    """Outcome of a single-crossing check.

    enumeration is set on success. On failure, conflict describes either the
    two alternative pairs whose agreement sets cross (existence mode) or the
    pair on which a supplied enumeration switches back (verification mode),
    with two preferences witnessing the problem.
    """

    holds: bool
    enumeration: tuple[Preference, ...] | None = None
    conflict: str | None = None
    conflict_prefs: tuple[Preference, Preference] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _ordered_pairs(order: Preference) -> list[tuple[int, int]]:
    ranking = order.ranking
    return [
        (ranking[i], ranking[j])
        for i in range(len(ranking))
        for j in range(i + 1, len(ranking))
    ]


def _verify_enumeration(
    enumeration: tuple[Preference, ...], order: Preference
) -> SingleCrossingResult:
    # each member's weak lower contour set of every x, read once
    lower = [dict(pref.contour_keys()) for pref in enumeration]
    for x, y in _ordered_pairs(order):
        agreed_at = None
        for pos, pref in enumerate(enumeration):
            if lower[pos][x] >> y & 1:
                if agreed_at is None:
                    agreed_at = pos
            elif agreed_at is not None:
                u = order.universe
                return SingleCrossingResult(
                    False,
                    conflict=(
                        f"{u.labels[x]} over {u.labels[y]} holds at position "
                        f"{agreed_at + 1} but not at {pos + 1}"
                    ),
                    conflict_prefs=(enumeration[agreed_at], pref),
                )
        # once x beats y it must keep beating y; suffix property checked above
    return SingleCrossingResult(True, enumeration=enumeration)


def _agreement(model: Model) -> list[list[int]]:
    """agree[x][y] has bit i set when model.preferences[i] ranks x over y; the
    members are in ranking order, so the lowest set bit is the first such member."""
    n = model.universe.n
    agree = [[0] * n for _ in range(n)]
    for i, pref in enumerate(model.preferences):
        ranking = pref.ranking
        for a, x in enumerate(ranking):
            for y in ranking[a + 1 :]:
                agree[x][y] |= 1 << i
    return agree


def check_single_crossing(
    model: Model,
    order: Preference,
    enumeration: tuple[Preference, ...] | None = None,
) -> SingleCrossingResult:
    """Does the model admit (or the given enumeration satisfy) single crossing?

    With an enumeration, verify directly that agreement with the order is
    monotone along it. Without one, decide existence: the agreement sets
    S(x, y) = members ranking x over y (for x above y in the order) admit a
    common suffix realization exactly when they are pairwise nested; if they
    are, sort members by how many sets contain them and re-verify. The sets
    are member bitmasks, built once per model.
    """
    require_same_universe(model, order)
    if enumeration is not None:
        listed = sorted(enumeration, key=lambda p: p.ranking)
        if listed != list(model.preferences):
            raise RumkitError("enumeration does not list the model exactly once")
        return _verify_enumeration(tuple(enumeration), order)

    return _nested_enumeration(model, order, _agreement(model))


def _nested_enumeration(
    model: Model, order: Preference, agree: list[list[int]]
) -> SingleCrossingResult:
    """Decide existence of an enumeration for the order on the model's
    agreement table: the sets S(x, y), for x above y in the order, must be
    pairwise nested; if they are, the members sorted by how many sets hold
    them are re-verified as the enumeration."""
    pairs = _ordered_pairs(order)
    sets = [agree[x][y] for x, y in pairs]
    prefs = model.preferences
    for i, (a, sa) in enumerate(zip(pairs, sets)):
        for b, sb in zip(pairs[i + 1 :], sets[i + 1 :]):
            only_a, only_b = sa & ~sb, sb & ~sa
            if only_a and only_b:
                u = order.universe
                witnesses = (prefs[(d & -d).bit_length() - 1] for d in (only_a, only_b))
                return SingleCrossingResult(
                    False,
                    conflict=(
                        f"agreement sets for ({u.labels[a[0]]},{u.labels[a[1]]}) and "
                        f"({u.labels[b[0]]},{u.labels[b[1]]}) cross"
                    ),
                    conflict_prefs=tuple(witnesses),
                )
    # a member's count is the pairs it ranks as the order does: for each x,
    # its lower contour set met with x's strict lower set in the order
    below = {x: lower ^ (1 << x) for x, lower in order.contour_keys()}
    counts = {
        p: sum((lower & below[x]).bit_count() for x, lower in p.contour_keys())
        for p in prefs
    }
    ordered = tuple(sorted(prefs, key=counts.__getitem__))
    verified = _verify_enumeration(ordered, order)
    if not verified:
        raise RumkitError("nested agreement sets failed re-verification")
    return verified


@dataclass(frozen=True)
class OrderSearchResult:
    """Outcome of the order search. orders_checked is the first passing
    order's position in the order of permutations(range(n)), counting from 1,
    for a yes, and n! for a no."""

    exists: bool
    order: Preference | None
    enumeration: tuple[Preference, ...] | None
    orders_checked: int

    def __bool__(self) -> bool:
        return self.exists


def _chain(sets: list[int]) -> bool:
    """Is each member bitmask, sorted by size, a subset of the next?"""
    sets = sorted(sets, key=int.bit_count)
    return all(a & ~b == 0 for a, b in zip(sets, sets[1:]))


def scrum_order_exists(model: Model) -> OrderSearchResult:
    """The first exogenous order, in the order of permutations(range(n)),
    that makes the model single crossing, found in one pass over the members.

    An order passes exactly when it ranks every disputed pair (one the
    members do not all rank alike) the way some member e does, where e
    leaves the pairs' agreement sets nested, each taken on the side of its
    pair without e; that e is the last member of the enumeration. For each
    such e, the first order that keeps e's disputed pairs places, at each
    step, the smallest alternative that nothing left must come before. The
    answer is the smallest of these orders, and its position is its Lehmer
    code plus one. A no answer builds no order. The agreement sets are
    member bitmasks, built once per model.
    """
    universe = model.universe
    n = universe.n
    size = len(model)
    # along an enumeration each pair switches at most once, so a
    # single-crossing model has at most C(n, 2) + 1 members
    if size > n * (n - 1) // 2 + 1:
        return OrderSearchResult(False, None, None, factorial(n))
    agree = _agreement(model)
    everyone = (1 << size) - 1
    sets = [agree[x][y] for x in range(n) for y in range(x + 1, n)]
    best = None
    for e in range(size):
        if not _chain([s ^ everyone if s >> e & 1 else s for s in sets]):
            continue
        # before[y]: the alternatives that e ranks over y on a disputed pair
        before = [0] * n
        for x, row in enumerate(agree):
            for y, s in enumerate(row):
                if s >> e & 1 and s != everyone:
                    before[y] |= 1 << x
        rank, ranking, left = 0, [], (1 << n) - 1
        while left:
            x = next(x for x in range(n) if left >> x & 1 and not before[x] & left)
            rank = rank * left.bit_count() + (left & (1 << x) - 1).bit_count()
            ranking.append(x)
            left ^= 1 << x
        if best is None or rank < best[0]:
            best = rank, ranking
    if best is None:
        return OrderSearchResult(False, None, None, factorial(n))
    rank, ranking = best
    order = Preference(universe, tuple(ranking))
    result = _nested_enumeration(model, order, agree)
    return OrderSearchResult(True, order, result.enumeration, rank + 1)


def max_scrum_model(order: Preference) -> tuple[Model, tuple[Preference, ...]]:
    """The largest single-crossing model for the order: C(n, 2) + 1 preferences.

    Start from the reversed order and promote alternatives one adjacent swap
    at a time until the order itself is reached; each swap flips exactly one
    binary comparison into agreement with the order, so the construction
    order is a valid single-crossing enumeration.
    """
    universe = order.universe
    n = universe.n
    if n < 2:
        raise RumkitError("a single-crossing construction needs n >= 2")
    # x_1 is the order's worst alternative, x_n its best
    stages = list(order.ranking[::-1])
    current = list(order.reverse().ranking)
    enumeration = [Preference(universe, tuple(current))]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = stages[i], stages[j]
            pa, pb = current.index(a), current.index(b)
            current[pa], current[pb] = current[pb], current[pa]
            enumeration.append(Preference(universe, tuple(current)))
    model = Model.of(universe, enumeration)
    return model, tuple(enumeration)


def respects(pref: Preference, order: Preference) -> bool:
    """True iff pref's ranking is a cyclic rotation of the order's ranking."""
    require_same_universe(pref, order)
    start = order.ranking.index(pref.ranking[0])
    rotated = order.ranking[start:] + order.ranking[:start]
    return pref.ranking == rotated


def latin_square(order: Preference) -> Model:
    """The n cyclic rotations of the order: one preference topping each m."""
    universe = order.universe
    base = order.ranking
    rotations = [
        Preference(universe, base[m:] + base[:m]) for m in range(universe.n)
    ]
    return Model.of(universe, rotations)


@dataclass(frozen=True)
class CarumRecovery:
    order: Preference
    model: Model
    distribution: PreferenceDistribution


def carum_recover(rule: RandomChoiceRule) -> CarumRecovery:
    """Recover the Latin square and its distribution from claimed CARUM data.

    For data from a Latin square, every menu strictly between the full set and
    the empty set carries at most one positive Mobius entry. After verifying
    that, follow the unique positive path from the full set down; the walked
    preference generates the Latin square, and peeling recovers the masses.
    One pass over q collects the positive alternatives of every menu, and
    both the check and the walk read that table. Any failure along the way
    signals non-CARUM data.
    """
    if not validate_rcr(rule):
        raise RumkitError("input is not a valid random choice rule")
    universe = rule.universe
    full = universe.full_mask
    q = mobius_inverse(rule)
    # the alternatives with positive q on each menu, ascending within a menu
    # (canonical order); q's denominator is positive, so a numerator carries
    # the sign
    positive: dict[int, list[int]] = {}
    for (x, mask), v in zip(lattice(universe.n).keys, q.numerators):
        if v > 0:
            positive.setdefault(mask, []).append(x)
    crowded = [mask for mask, xs in positive.items() if len(xs) > 1 and mask != full]
    if crowded:
        mask = min(crowded)
        raise NotCarumError(
            f"menu {universe.describe_mask(mask)} has "
            f"{len(positive[mask])} positive Mobius entries; a Latin square allows one"
        )
    if full not in positive:
        raise NotCarumError("no alternative has positive Mobius mass at the full menu")
    ranking = [positive[full][0]]
    mask = full ^ (1 << ranking[0])
    while mask:
        if mask not in positive:
            raise NotCarumError(
                f"positive path dies at menu {universe.describe_mask(mask)}"
            )
        ranking.append(positive[mask][0])
        mask ^= 1 << ranking[-1]
    order = Preference(universe, tuple(ranking))
    model = latin_square(order)
    report = recover_distribution(model, q)
    if report.distribution is None:
        raise NotCarumError(
            "the walked Latin square does not reproduce the data exactly"
        )
    return CarumRecovery(order, model, report.distribution)


# fixture models: each preference's labels best first; the universe is the
# sorted labels of the first
_FIXTURE_RANKINGS = {
    "fishburn": ("abcd", "badc", "abdc", "bacd"),
    "double-cover": (
        "fgdhceab", "hgefbdac", "fghedcab", "hgfdceba",
        "gfdhebac", "ghfdebca", "gfhebdca", "ghefdcba",
    ),
    "shadowed-triple": ("abcd", "badc", "abdc"),
    "no-single-crossing": ("abcdfe", "abdcef", "bacdef"),
}


def _fixture_model(name: str) -> Model:
    rankings = _FIXTURE_RANKINGS[name]
    u = Universe(tuple(sorted(rankings[0])))
    return Model.of(u, [preference_from_labels(u, r) for r in rankings])


def fishburn_model() -> Model:
    """Four preferences over {a, b, c, d} forming the classic
    non-identified model."""
    return _fixture_model("fishburn")


def fishburn_distributions() -> tuple[PreferenceDistribution, PreferenceDistribution]:
    """Two distinct half-half distributions that induce the same rule."""
    model = fishburn_model()
    rankings = _FIXTURE_RANKINGS["fishburn"]
    nu1, nu2 = (
        PreferenceDistribution(
            model, {preference_from_labels(model.universe, r): "1/2" for r in half}
        )
        for half in (rankings[:2], rankings[2:])
    )
    return nu1, nu2


def double_cover_model() -> Model:
    """Eight preferences over {a..h} whose paths cover every used edge twice.

    The model is identified even though the double cover defeats every
    peeling order, so recover_distribution cannot invert its data.
    """
    return _fixture_model("double-cover")


def shadowed_triple_model() -> Model:
    """Three preferences over {a..d}; one is shadowed everywhere (none of its
    contour pairs is unique to it) yet the model peels fine."""
    return _fixture_model("shadowed-triple")


def no_single_crossing_model() -> Model:
    """Three preferences over {a..f} that are edge decomposable but admit no
    single-crossing order at all."""
    return _fixture_model("no-single-crossing")


def fixtures() -> dict[str, object]:
    """Named fixture objects, for the CLI and tests."""
    nu1, nu2 = fishburn_distributions()
    return {
        "fishburn": fishburn_model(),
        "fishburn-nu1": nu1,
        "fishburn-nu2": nu2,
        "double-cover": double_cover_model(),
        "shadowed-triple": shadowed_triple_model(),
        "no-single-crossing": no_single_crossing_model(),
    }
