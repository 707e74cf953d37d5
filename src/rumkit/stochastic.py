"""Random choice rules, preference distributions, and the Mobius inverse.

All probability arithmetic is exact and nothing is ever rounded.
Floating-point inputs are rejected because the identification questions
downstream are exact statements. A table over the pair lattice (a rule p or
its Mobius inverse q) is stored as integer numerators in the coordinate order
of core.lattice(n) over one denominator, and so is a distribution; Fractions
are made only at the API edge, when a caller reads an entry.

Every sum over supersets goes through one kernel, _superset_transform: Yates's
per-coordinate transform on the subset lattice of each alternative, n(n-1)
2^(n-2) integer additions per call. The rule induced by a distribution is its
contour-class mass (each preference's mass on its n upper-contour pairs) run
through the forward transform; the Mobius inverse runs it backwards, which is
the paper's identity q(x, A) = mass of the preferences whose weak lower
contour set of x is A.
"""

from __future__ import annotations

import bisect
import math
import operator
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .core import Lattice, Model, Preference, Universe, lattice
from .errors import RumkitError, shown

RationalLike = Union[Fraction, int, str]

# sampling refuses more draws than this (trials x menus): at the 1-3 us a draw
# measured on a 2-core machine, 10^8 draws already take minutes
MAX_DRAWS = 10**8


def as_fraction(value: RationalLike) -> Fraction:
    """Convert an exact input to Fraction; floats are rejected.

    Strings may be rational ("2/3") or exact decimal ("0.25" -> 1/4).
    Exponent notation ("1e-3") is rejected: Fraction expands the power of ten
    exactly, so a large exponent would stall. So is a digit run past Python's
    int-to-str limit, which int() refuses; the error does not echo the value.
    """
    if isinstance(value, bool):
        raise RumkitError(f"{value!r} is not a number")
    if isinstance(value, float):
        raise RumkitError(
            f"float {value!r} rejected: pass an exact value like '0.25' or '1/4'"
        )
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # the canonical forms "3" and "3/4" in ASCII digits, short enough for
        # int(), skip the regexes: anything else takes the checked path below
        limit = sys.get_int_max_str_digits()
        num, slash, den = value.partition("/")
        if (
            value.isascii()
            and num.isdigit()
            and (not slash or den.isdigit() and den.strip("0"))
            and not 0 < limit < len(value)
        ):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        if re.search(r"[eE][-+]?\d", value):
            raise RumkitError(
                f"exponent notation {shown(value)} rejected: write the value as a "
                "decimal or a ratio like '1/1000'"
            )
        if 0 < limit < len(value) and any(
            len(run) - run.count("_") > limit for run in re.findall(r"[\d_]+", value)
        ):
            raise RumkitError(
                f"cannot parse rational: an integer has more than {limit} digits"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            # both exceptions' own texts repeat the whole value
            raise RumkitError(f"cannot parse rational {shown(value)}") from None
    raise RumkitError(f"cannot interpret {shown(value)} as an exact rational")


def _over_lcm(fractions: list[Fraction]) -> tuple[list[int], int]:
    """Reduced fractions as integers over the lcm of their denominators, which
    shares no factor with all of them: a prime of the lcm misses the numerator
    of the entry whose denominator holds its highest power."""
    denominator = math.lcm(*(f.denominator for f in fractions))
    return [f.numerator * (denominator // f.denominator) for f in fractions], denominator


@dataclass(frozen=True, init=False)
class _PairTable:
    """Exact-rational map defined on every (x, A) with x in A, A nonempty.

    Stored as integer numerators in canonical coordinate order over one
    positive denominator, reduced so that the numerators and the denominator
    share no factor: equal tables have equal fields. Fractions are made only
    at the API edge (value, [], items, values); the library reads numerators.
    The table keeps its coordinates, fetched once when it is built, so the
    lattice cap is checked then and not again per entry.
    """

    universe: Universe
    numerators: tuple[int, ...]
    denominator: int
    _coords: Lattice = field(repr=False, compare=False)

    def __init__(
        self, universe: Universe, values: Mapping[tuple[int, int], RationalLike]
    ) -> None:
        coords = lattice(universe.n)
        missing = [k for k in coords.keys if k not in values]
        if missing:
            raise RumkitError(
                f"value table is missing {len(missing)} pairs, first "
                f"{universe.describe_pair(*missing[0])}"
            )
        if len(values) != len(coords.keys):
            extra = next(k for k in values if k not in coords.index)
            raise RumkitError(f"value table has an entry off the lattice: {extra}")
        self._set(universe, *_over_lcm([as_fraction(values[k]) for k in coords.keys]))

    @classmethod
    def _of(cls, universe: Universe, numerators, denominator: int):
        """The table numerators / denominator, in canonical order, unchecked:
        the caller guarantees a positive denominator whose gcd with all the
        numerators is 1."""
        table = object.__new__(cls)
        table._set(universe, numerators, denominator)
        return table

    def _set(self, universe: Universe, numerators, denominator: int) -> None:
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "numerators", tuple(numerators))
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "_coords", lattice(universe.n))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return Fraction(self.numerators[self._coords.index[key]], self.denominator)

    def value(self, x: int, mask: int) -> Fraction:
        return self[(x, mask)]

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Entries in canonical coordinate order."""
        d = self.denominator
        return ((key, Fraction(v, d)) for key, v in zip(self._coords.keys, self.numerators))

    @property
    def values(self) -> dict[tuple[int, int], Fraction]:
        """Every entry as a Fraction, in canonical coordinate order."""
        return dict(self.items())


@dataclass(frozen=True, init=False)
class RandomChoiceRule(_PairTable):
    """p(x, A): how frequently x is chosen from menu A.

    Construction only checks that the table covers the full lattice; the
    stochastic axioms (nonnegativity, unit menu sums) are checked separately
    by validate_rcr so that malformed data can be loaded and diagnosed.
    """


@dataclass(frozen=True, init=False)
class MobiusInverse(_PairTable):
    """q(x, A): the inclusion-exclusion transform of a rule over supersets."""


@dataclass(frozen=True, init=False)
class PreferenceDistribution:
    """An exact probability mass over the preferences of a model, stored like
    a table: the support in ranking order, with integer numerators over one
    positive denominator in reduced form, so equal distributions have equal
    fields. Fractions are made only at the API edge (entries, mass_of)."""

    model: Model
    support: tuple[Preference, ...]
    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, model: Model, mass: Mapping[Preference, RationalLike]) -> None:
        masses = {}
        for pref, value in mass.items():
            m = as_fraction(value)
            if m < 0:
                raise RumkitError(f"negative mass {m} on {pref}")
            if pref not in model:
                raise RumkitError(f"support preference {pref} is not in the model")
            masses[pref] = m
        numerators, denominator = _over_lcm(list(masses.values()))
        total = sum(numerators)
        if total != denominator:
            raise RumkitError(f"masses sum to {Fraction(total, denominator)}, not 1")
        self._set(model, sorted(zip(masses, numerators), key=lambda e: e[0].ranking))

    def _set(self, model: Model, shares: Iterable[tuple[Preference, int]]) -> None:
        """Each nonzero share over the sum of the shares, in reduced form; the
        (member, share) pairs come in ranking order."""
        kept = [(p, v) for p, v in shares if v]
        values = [v for _, v in kept]
        total = sum(values)
        common = math.gcd(total, *values)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "support", tuple(p for p, _ in kept))
        object.__setattr__(self, "numerators", tuple(v // common for v in values))
        object.__setattr__(self, "denominator", total // common)

    @property
    def universe(self) -> Universe:
        return self.model.universe

    @property
    def entries(self) -> tuple[tuple[Preference, Fraction], ...]:
        """(preference, mass) for each member of the support, in ranking order."""
        d = self.denominator
        return tuple((p, Fraction(v, d)) for p, v in zip(self.support, self.numerators))

    def mass_of(self, pref: Preference) -> Fraction:
        """pref's mass, found by bisecting the support; 0 off the support."""
        support = self.support
        i = bisect.bisect_left(support, pref.ranking, key=lambda p: p.ranking)
        if i < len(support) and support[i] == pref:
            return Fraction(self.numerators[i], self.denominator)
        return Fraction(0)

    def __repr__(self) -> str:
        body = ", ".join(f"{pref}: {m}" for pref, m in self.entries)
        return f"PreferenceDistribution({body})"


def _from_shares(model: Model, shares: Sequence[int]) -> PreferenceDistribution:
    """Each share over the sum of the shares, unchecked: the caller passes one
    nonnegative integer per member, in model order, with a positive sum."""
    dist = object.__new__(PreferenceDistribution)
    dist._set(model, zip(model.preferences, shares))
    return dist


def point_mass(model: Model, pref: Preference) -> PreferenceDistribution:
    if pref not in model:
        raise RumkitError(f"support preference {pref} is not in the model")
    return _from_shares(model, [int(p.ranking == pref.ranking) for p in model])


def _reduced(numerators: list[int], denominator: int) -> tuple[list[int], int]:
    """numerators / denominator with their common factor divided out."""
    common = math.gcd(denominator, *numerators)
    if common == 1:
        return numerators, denominator
    return [v // common for v in numerators], denominator // common


def _superset_transform(coords: Lattice, numerators, sign: int) -> list[int]:
    """t(x, A) becomes the sum of sign^|B \\ A| * t(x, B) over B >= A.

    Takes and returns numerators in canonical order; the denominator is
    untouched, and so is the common factor of the numerators (the transform
    and its inverse have integer matrices), so a reduced table stays reduced
    and needs no gcd. In alternative-major order every x's pairs form a subset
    lattice of n-1 bits, and one pass per bit b adds sign * t(x, A | b) to
    every t(x, A) with b outside A; the n-1 passes compose to the full
    superset sum. Each pass reads only entries it does not write, so it runs
    as slice arithmetic: n(n-1) 2^(n-2) integer additions and no hashing.
    sign +1 is the forward (zeta) transform, -1 the Mobius inverse.
    """
    n = coords.n
    if n == 1:
        # one pair, its own superset sum (and a one-index gather is no tuple)
        return list(numerators)
    step = operator.add if sign > 0 else operator.sub
    t = list(coords.to_major(numerators))
    size = len(t)
    for b in range(n - 1):
        low = 1 << b
        span = low << 1
        if size // span <= low:
            # few long runs: t[s:s+low] += t[s+low:s+span] per run
            for s in range(0, size, span):
                t[s : s + low] = map(step, t[s : s + low], t[s + low : s + span])
        else:
            # many short runs: one strided slice per offset inside a run
            for r in range(low):
                t[r::span] = map(step, t[r::span], t[r + low :: span])
    return list(coords.to_canonical(t))


def _contour_mass(coords: Lattice, dist) -> tuple[list[int], int]:
    """Each preference's mass placed on its n upper-contour pairs.

    Returns reduced numerators in canonical order and their denominator;
    entry (x, A) holds the mass of the preferences whose weak lower contour
    set of x is A.
    """
    numerators = [0] * len(coords.keys)
    index = coords.index
    for pref, share in zip(dist.support, dist.numerators):
        for key in pref.contour_keys():
            numerators[index[key]] += share
    return _reduced(numerators, dist.denominator)


def rcr_from_distribution(dist: PreferenceDistribution) -> RandomChoiceRule:
    """The rule induced by best-element choice under each supported preference.

    x is best in A exactly when A lies inside x's weak lower contour set, so
    the rule is the superset sum of the contour-class masses.
    """
    universe = dist.universe
    coords = lattice(universe.n)
    numerators, denominator = _contour_mass(coords, dist)
    return RandomChoiceRule._of(
        universe, _superset_transform(coords, numerators, 1), denominator
    )


@dataclass(frozen=True)
class RuleValidation:
    ok: bool
    negative: tuple[tuple[int, int], ...]
    bad_menus: tuple[tuple[int, Fraction], ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_rcr(rule: RandomChoiceRule) -> RuleValidation:
    """Check nonnegativity and unit menu sums; report every violation."""
    negative = []
    sums: dict[int, int] = {}
    keys = lattice(rule.universe.n).keys
    for (x, mask), v in zip(keys, rule.numerators):
        if v < 0:
            negative.append((x, mask))
        sums[mask] = sums.get(mask, 0) + v
    d = rule.denominator
    bad = [(mask, Fraction(total, d)) for mask, total in sorted(sums.items()) if total != d]
    return RuleValidation(not negative and not bad, tuple(negative), tuple(bad))


def mobius_inverse(rule: RandomChoiceRule) -> MobiusInverse:
    """q(x, A) = sum over B >= A of (-1)^|B \\ A| p(x, B).

    Equivalently q(x, A) = p(x, A) minus q(x, B) over strict supersets B.
    Computed on the rule's numerators by the superset transform with sign
    -1 (n(n-1) 2^(n-2) integer subtractions), over the rule's denominator.
    """
    numerators = _superset_transform(lattice(rule.universe.n), rule.numerators, -1)
    return MobiusInverse._of(rule.universe, numerators, rule.denominator)


def mobius_forward(q: MobiusInverse) -> RandomChoiceRule:
    """Invert the transform: p(x, A) = sum of q(x, B) over supersets B >= A.

    The superset transform with sign +1 on q's numerators: n(n-1) 2^(n-2)
    integer additions, over q's denominator.
    """
    numerators = _superset_transform(lattice(q.universe.n), q.numerators, 1)
    return RandomChoiceRule._of(q.universe, numerators, q.denominator)


@dataclass(frozen=True)
class NonnegativityCheck:
    ok: bool
    negative: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return self.ok


def check_stochastic_rationality_necessary(q: MobiusInverse) -> NonnegativityCheck:
    """Necessary condition for the data to come from any distribution: q >= 0.

    This is only the necessary half of stochastic rationality; it is not a
    full rationalizability test.
    """
    keys = lattice(q.universe.n).keys
    negative = tuple(key for key, v in zip(keys, q.numerators) if v < 0)
    return NonnegativityCheck(not negative, negative)


@dataclass(frozen=True)
class FlowCheck:
    ok: bool
    bad_menus: tuple[int, ...]
    total_at_full: Fraction

    def __bool__(self) -> bool:
        return self.ok


def flow_conservation_check(q: MobiusInverse) -> FlowCheck:
    """Probability flow in equals flow out at every lattice node.

    For every nonempty A != X: sum over x in A of q(x, A) equals the inflow
    sum over y outside A of q(y, A + {y}); and the outflow at X sums to 1.
    One pass over q reads q(x, A) as flow along the edge from A to A - {x}:
    it adds to the net flow at A and subtracts from the net flow at A - {x}.
    Nothing flows into X, so its net flow is its outflow.
    """
    full = q.universe.full_mask
    net = [0] * (full + 1)
    for (x, mask), v in zip(lattice(q.universe.n).keys, q.numerators):
        net[mask] += v
        net[mask ^ (1 << x)] -= v
    bad = [mask for mask in range(1, full) if net[mask]]
    total = net[full]
    if total != q.denominator:
        bad.append(full)
    return FlowCheck(not bad, tuple(bad), Fraction(total, q.denominator))


@dataclass(frozen=True)
class ChoiceData:
    """A choice rule, with the sample it was drawn as when there is one.

    A sampled rule records trials draws per menu from the given seed; its
    counts are not stored, as each is the rule entry times trials. Exact
    data has neither field.
    """

    rule: RandomChoiceRule
    trials: int | None
    seed: int | None


def check_sample_fields(
    trials: object, seed: object, error: type[RumkitError] = RumkitError
) -> None:
    """Refuse a trials that is not a positive integer or a seed that is not an
    integer, raising error; None stands for an absent field and passes."""
    if trials is not None and (
        isinstance(trials, bool) or not isinstance(trials, int) or trials < 1
    ):
        raise error(f"trials: expected a positive integer, got {shown(trials)}")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise error(f"seed: expected an integer, got {shown(seed)}")


def sample_empirical_rule(
    dist: PreferenceDistribution, trials: int, seed: int
) -> ChoiceData:
    """Draw trials i.i.d. preferences per menu and record choice frequencies.

    Menus are visited in ascending bitmask order and draws are made with an
    integer-threshold inverse-CDF, so output is deterministic given the seed
    and exact as a frequency table (count / trials). More than MAX_DRAWS
    draws in all (trials per menu times 2^n - 1 menus) are refused.
    """
    if trials is None:
        raise RumkitError("trials: expected a positive integer, got None")
    check_sample_fields(trials, seed)
    universe = dist.universe
    if trials * universe.full_mask > MAX_DRAWS:
        raise RumkitError(
            f"{trials} draws per menu over {universe.full_mask} menus is more "
            f"than {MAX_DRAWS} draws"
        )
    rng = random.Random(seed)
    thresholds = list(accumulate(dist.numerators))
    index = lattice(universe.n).index
    numerators = [0] * len(index)
    for mask in range(1, universe.full_mask + 1):
        menu_counts: dict[int, int] = {}
        for _ in range(trials):
            draw = rng.randrange(dist.denominator)
            best = dist.support[bisect.bisect_right(thresholds, draw)].best_in(mask)
            menu_counts[best] = menu_counts.get(best, 0) + 1
        for x, c in menu_counts.items():
            numerators[index[(x, mask)]] = c
    rule = RandomChoiceRule._of(universe, *_reduced(numerators, trials))
    return ChoiceData(rule, trials, seed)
