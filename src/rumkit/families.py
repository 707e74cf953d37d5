"""Special model families: single-crossing models, Latin squares, and the
fixture models used throughout the test suite.

An exogenous order over alternatives is represented by an ordinary
Preference whose ranking lists the order best first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .core import (
    Model,
    Preference,
    Universe,
    preference_from_labels,
    require_same_universe,
)
from .decompose import recover_distribution
from .errors import CapExceededError, NotCarumError, RecoveryError, RumkitError
from .stochastic import (
    MobiusInverse,
    PreferenceDistribution,
    RandomChoiceRule,
    mobius_inverse,
    validate_rcr,
)

ExogenousOrder = Preference

SCRUM_SEARCH_CAP = 8


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
    for x, y in _ordered_pairs(order):
        agreed_at = None
        for pos, pref in enumerate(enumeration):
            if pref.prefers(x, y):
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
    are, sort members by how many sets contain them and re-verify.
    """
    require_same_universe(model, order)
    if enumeration is not None:
        listed = sorted(enumeration, key=lambda p: p.ranking)
        if listed != list(model.preferences):
            raise RumkitError("enumeration does not list the model exactly once")
        return _verify_enumeration(tuple(enumeration), order)

    pairs = _ordered_pairs(order)
    sets: dict[tuple[int, int], frozenset[Preference]] = {
        (x, y): frozenset(p for p in model if p.prefers(x, y)) for x, y in pairs
    }
    for i, a in enumerate(pairs):
        for b in pairs[i + 1 :]:
            sa, sb = sets[a], sets[b]
            if not (sa <= sb or sb <= sa):
                u = order.universe
                pref_a = next(iter(sorted(sa - sb, key=lambda p: p.ranking)))
                pref_b = next(iter(sorted(sb - sa, key=lambda p: p.ranking)))
                return SingleCrossingResult(
                    False,
                    conflict=(
                        f"agreement sets for ({u.labels[a[0]]},{u.labels[a[1]]}) and "
                        f"({u.labels[b[0]]},{u.labels[b[1]]}) cross"
                    ),
                    conflict_prefs=(pref_a, pref_b),
                )
    counts = {
        pref: sum(1 for s in sets.values() if pref in s) for pref in model
    }
    ordered = tuple(
        sorted(model.preferences, key=lambda p: (counts[p], p.ranking))
    )
    verified = _verify_enumeration(ordered, order)
    if not verified:
        raise RumkitError("nested agreement sets failed re-verification")
    return verified


@dataclass(frozen=True)
class OrderSearchResult:
    exists: bool
    order: Preference | None
    enumeration: tuple[Preference, ...] | None
    orders_checked: int

    def __bool__(self) -> bool:
        return self.exists


def scrum_order_exists(model: Model) -> OrderSearchResult:
    """Exhaustively search all n! exogenous orders for a single-crossing one."""
    universe = model.universe
    if universe.n > SCRUM_SEARCH_CAP:
        raise CapExceededError(
            f"order search is exhaustive over n! orders and capped at "
            f"n={SCRUM_SEARCH_CAP}, got n={universe.n}"
        )
    checked = 0
    for perm in permutations(range(universe.n)):
        order = Preference(universe, perm)
        checked += 1
        result = check_single_crossing(model, order)
        if result:
            return OrderSearchResult(True, order, result.enumeration, checked)
    return OrderSearchResult(False, None, None, checked)


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
    n = order.universe.n
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
    Any failure along the way signals non-CARUM data.
    """
    check = validate_rcr(rule)
    if not check:
        raise RumkitError("input is not a valid random choice rule")
    universe = rule.universe
    n = universe.n
    full = universe.full_mask
    q = mobius_inverse(rule)
    for mask in range(1, full):
        positive = [x for x in range(n) if mask >> x & 1 and q.value(x, mask) > 0]
        if len(positive) > 1:
            raise NotCarumError(
                f"menu {universe.describe_mask(mask)} has "
                f"{len(positive)} positive Mobius entries; a Latin square allows one"
            )
    starts = [x for x in range(n) if q.value(x, full) > 0]
    if not starts:
        raise NotCarumError("no alternative has positive Mobius mass at the full menu")
    ranking = [starts[0]]
    mask = full ^ (1 << starts[0])
    while mask:
        nxt = [x for x in range(n) if mask >> x & 1 and q.value(x, mask) > 0]
        if not nxt:
            raise NotCarumError(
                f"positive path dies at menu {universe.describe_mask(mask)}"
            )
        ranking.append(nxt[0])
        mask ^= 1 << nxt[0]
    order = Preference(universe, tuple(ranking))
    model = latin_square(order)
    report = recover_distribution(model, q)
    if report.distribution is None:
        raise NotCarumError(
            "the walked Latin square does not reproduce the data exactly"
        )
    return CarumRecovery(order, model, report.distribution)


# fixture universes

def _fishburn_universe() -> Universe:
    return Universe(("a", "b", "c", "d"))


def fishburn_model() -> Model:
    """Four preferences over {a, b, c, d} forming the classic
    non-identified model."""
    u = _fishburn_universe()
    return Model.of(
        u,
        [
            preference_from_labels(u, "abcd"),
            preference_from_labels(u, "badc"),
            preference_from_labels(u, "abdc"),
            preference_from_labels(u, "bacd"),
        ],
    )


def fishburn_distributions() -> tuple[PreferenceDistribution, PreferenceDistribution]:
    """Two distinct half-half distributions that induce the same rule."""
    model = fishburn_model()
    u = model.universe
    half = Fraction(1, 2)
    nu1 = PreferenceDistribution(
        model,
        {
            preference_from_labels(u, "abcd"): half,
            preference_from_labels(u, "badc"): half,
        },
    )
    nu2 = PreferenceDistribution(
        model,
        {
            preference_from_labels(u, "abdc"): half,
            preference_from_labels(u, "bacd"): half,
        },
    )
    return nu1, nu2


def double_cover_model() -> Model:
    """Eight preferences over {a..h} whose paths cover every used edge twice.

    The model is identified even though the double cover defeats every
    peeling order; double_cover_closed_form inverts it in closed form.
    """
    u = Universe(tuple("abcdefgh"))
    rankings = [
        "fgdhceab",
        "hgefbdac",
        "fghedcab",
        "hgfdceba",
        "gfdhebac",
        "ghfdebca",
        "gfhebdca",
        "ghefdcba",
    ]
    return Model.of(u, [preference_from_labels(u, r) for r in rankings])


def shadowed_triple_model() -> Model:
    """Three preferences over {a..d}; one is shadowed everywhere (none of its
    contour pairs is unique to it) yet the model peels fine."""
    u = _fishburn_universe()
    return Model.of(
        u,
        [
            preference_from_labels(u, "abcd"),
            preference_from_labels(u, "badc"),
            preference_from_labels(u, "abdc"),
        ],
    )


def no_single_crossing_model() -> Model:
    """Three preferences over {a..f} that are edge decomposable but admit no
    single-crossing order at all."""
    u = Universe(tuple("abcdef"))
    return Model.of(
        u,
        [
            preference_from_labels(u, "abcdfe"),
            preference_from_labels(u, "abdcef"),
            preference_from_labels(u, "bacdef"),
        ],
    )


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


def double_cover_closed_form(q: MobiusInverse) -> PreferenceDistribution:
    """Invert double-cover data by the model's three-equation linear system.

    Three pairwise-overlapping edges pin down the masses of the three
    preferences sharing them; every remaining mass then follows from one
    already-known mass and one Mobius entry. Raises RecoveryError when the
    resulting masses are not a distribution (the data did not come from this
    model).
    """
    model = double_cover_model()
    u = model.universe
    if q.universe != u:
        raise RumkitError("Mobius data is not on the {a..h} universe")

    def entry(x_label: str, menu_labels: str) -> Fraction:
        x = u.index(x_label)
        mask = 0
        for lab in menu_labels:
            mask |= 1 << u.index(lab)
        return q.value(x, mask)

    prefs = {"".join(p.to_labels()): p for p in model.preferences}
    half = Fraction(1, 2)
    m = {}
    m["hgefbdac"] = half * (entry("h", "abcdefgh") + entry("e", "abcdef") - entry("b", "ab"))
    m["hgfdceba"] = half * (entry("h", "abcdefgh") - entry("e", "abcdef") + entry("b", "ab"))
    m["ghefdcba"] = half * (-entry("h", "abcdefgh") + entry("e", "abcdef") + entry("b", "ab"))
    m["fgdhceab"] = entry("c", "abce") - m["hgfdceba"]
    m["ghfdebca"] = entry("f", "abcdef") - m["hgfdceba"]
    m["fghedcab"] = entry("a", "ab") - m["fgdhceab"]
    m["gfdhebac"] = entry("e", "abce") - m["ghfdebca"]
    m["gfhebdca"] = entry("c", "ac") - m["ghfdebca"]
    if any(value < 0 or value > 1 for value in m.values()):
        raise RecoveryError("closed-form masses fall outside [0, 1]")
    if sum(m.values(), Fraction(0)) != 1:
        raise RecoveryError("closed-form masses do not sum to 1")
    return PreferenceDistribution(model, {prefs[k]: v for k, v in m.items()})
