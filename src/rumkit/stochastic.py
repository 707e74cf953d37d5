"""Random choice rules, preference distributions, and the Mobius inverse.

All probability arithmetic is exact: values are fractions.Fraction throughout
and nothing is ever rounded. Floating-point inputs are rejected because the
identification questions downstream are exact statements.

Every sum over supersets goes through one kernel, _superset_transform: Yates's
per-coordinate transform on the subset lattice of each alternative, n(n-1)
2^(n-2) exact additions per call. The rule induced by a distribution is its
contour-class mass (each preference's mass on its n upper-contour pairs) run
through the forward transform; the Mobius inverse runs it backwards, which is
the paper's identity q(x, A) = mass of the preferences whose weak lower
contour set of x is A.
"""

from __future__ import annotations

import math
import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Union

from .core import (
    Model,
    Preference,
    Universe,
    contour_pair_keys,
)
from .errors import RumkitError

RationalLike = Union[Fraction, int, str]


def as_fraction(value: RationalLike) -> Fraction:
    """Convert an exact input to Fraction; floats are rejected.

    Strings may be rational ("2/3") or exact decimal ("0.25" -> 1/4).
    Exponent notation ("1e-3") is rejected: Fraction expands the power of ten
    exactly, so a large exponent would stall.
    """
    if isinstance(value, bool):
        raise RumkitError(f"{value!r} is not a number")
    if isinstance(value, float):
        raise RumkitError(
            f"float {value!r} rejected: pass an exact value like '0.25' or '1/4'"
        )
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        if re.search(r"[eE][-+]?\d", value):
            raise RumkitError(
                f"exponent notation {value!r} rejected: write the value as a "
                "decimal or a ratio like '1/1000'"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise RumkitError(f"cannot parse rational {value!r}: {exc}") from None
    raise RumkitError(f"cannot interpret {value!r} as an exact rational")


def _canonical_table(
    universe: Universe, values: Mapping[tuple[int, int], RationalLike]
) -> dict[tuple[int, int], Fraction]:
    keys = contour_pair_keys(universe.n)
    missing = [k for k in keys if k not in values]
    if missing:
        x, mask = missing[0]
        raise RumkitError(
            f"value table is missing {len(missing)} pairs, first "
            f"({universe.labels[x]}, {universe.describe_mask(mask)})"
        )
    if len(values) != len(keys):
        extra = next(k for k in values if k not in set(keys))
        raise RumkitError(f"value table has an entry off the lattice: {extra}")
    return {key: as_fraction(values[key]) for key in keys}


@dataclass(frozen=True, eq=False)
class _PairTable:
    """Exact-rational map defined on every (x, A) with x in A, A nonempty."""

    universe: Universe
    values: dict[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _canonical_table(self.universe, self.values))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.values[key]

    def value(self, x: int, mask: int) -> Fraction:
        return self.values[(x, mask)]

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Entries in canonical coordinate order."""
        return iter(self.values.items())

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.universe == other.universe and self.values == other.values


class RandomChoiceRule(_PairTable):
    """p(x, A): how frequently x is chosen from menu A.

    Construction only checks that the table covers the full lattice; the
    stochastic axioms (nonnegativity, unit menu sums) are checked separately
    by validate_rcr so that malformed data can be loaded and diagnosed.
    """


class MobiusInverse(_PairTable):
    """q(x, A): the inclusion-exclusion transform of a rule over supersets."""


class PreferenceDistribution:
    """An exact probability mass over the preferences of a model."""

    def __init__(
        self, model: Model, mass: Mapping[Preference, RationalLike]
    ) -> None:
        entries = []
        total = Fraction(0)
        for pref, value in mass.items():
            m = as_fraction(value)
            if m < 0:
                raise RumkitError(f"negative mass {m} on {pref}")
            if pref not in model:
                raise RumkitError(f"support preference {pref} is not in the model")
            total += m
            if m > 0:
                entries.append((pref, m))
        if total != 1:
            raise RumkitError(f"masses sum to {total}, not 1")
        entries.sort(key=lambda item: item[0].ranking)
        self.model = model
        self.entries: tuple[tuple[Preference, Fraction], ...] = tuple(entries)

    @property
    def universe(self) -> Universe:
        return self.model.universe

    @property
    def support(self) -> tuple[Preference, ...]:
        return tuple(pref for pref, _ in self.entries)

    def mass_of(self, pref: Preference) -> Fraction:
        for p, m in self.entries:
            if p == pref:
                return m
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceDistribution):
            return NotImplemented
        return self.model == other.model and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.model, self.entries))

    def __repr__(self) -> str:
        body = ", ".join(f"{pref}: {m}" for pref, m in self.entries)
        return f"PreferenceDistribution({body})"


def point_mass(model: Model, pref: Preference) -> PreferenceDistribution:
    return PreferenceDistribution(model, {pref: Fraction(1)})


def _superset_transform(table: dict, n: int, sign: int) -> None:
    """In place, t(x, A) becomes the sum of sign^|B \\ A| * t(x, B) over B >= A.

    One pass per alternative y adds sign * t(x, A | y) to every t(x, A) with y
    outside A (so y != x); the n passes compose to the full superset sum. Each
    pass reads only entries it does not write, so the order within a pass is
    free. sign +1 is the forward (zeta) transform, -1 the Mobius inverse.
    """
    step = operator.add if sign > 0 else operator.sub
    keys = contour_pair_keys(n)
    for y in range(n):
        bit = 1 << y
        for key in keys:
            x, mask = key
            if not mask & bit:
                above = table[(x, mask | bit)]
                if above:
                    table[key] = step(table[key], above)


def _contour_mass(n: int, entries) -> dict:
    """Each preference's mass placed on its n upper-contour pairs.

    The result is a table over every (x, A) in canonical order; entry (x, A)
    holds the mass of the preferences whose weak lower contour set of x is A.
    """
    table = dict.fromkeys(contour_pair_keys(n), 0)
    for pref, mass in entries:
        for key in pref.contour_keys():
            table[key] += mass
    return table


def rcr_from_distribution(dist: PreferenceDistribution) -> RandomChoiceRule:
    """The rule induced by best-element choice under each supported preference.

    x is best in A exactly when A lies inside x's weak lower contour set, so
    the rule is the superset sum of the contour-class masses.
    """
    universe = dist.universe
    table = _contour_mass(universe.n, dist.entries)
    _superset_transform(table, universe.n, 1)
    return RandomChoiceRule(universe, table)


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
    sums: dict[int, Fraction] = {}
    for (x, mask), value in rule.items():
        if value < 0:
            negative.append((x, mask))
        sums[mask] = sums.get(mask, Fraction(0)) + value
    bad = [(mask, total) for mask, total in sorted(sums.items()) if total != 1]
    return RuleValidation(not negative and not bad, tuple(negative), tuple(bad))


def mobius_inverse(rule: RandomChoiceRule) -> MobiusInverse:
    """q(x, A) = sum over B >= A of (-1)^|B \\ A| p(x, B).

    Equivalently q(x, A) = p(x, A) minus q(x, B) over strict supersets B.
    Computed by the superset transform with sign -1: n(n-1) 2^(n-2) exact
    subtractions, skipping zero entries.
    """
    universe = rule.universe
    table = dict(rule.values)
    _superset_transform(table, universe.n, -1)
    return MobiusInverse(universe, table)


def mobius_forward(q: MobiusInverse) -> RandomChoiceRule:
    """Invert the transform: p(x, A) = sum of q(x, B) over supersets B >= A.

    The superset transform with sign +1: n(n-1) 2^(n-2) exact additions.
    """
    universe = q.universe
    table = dict(q.values)
    _superset_transform(table, universe.n, 1)
    return RandomChoiceRule(universe, table)


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
    negative = tuple(key for key, value in q.items() if value < 0)
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
    """
    universe = q.universe
    n = universe.n
    full = universe.full_mask
    out: dict[int, Fraction] = {mask: Fraction(0) for mask in range(1, full + 1)}
    for (x, mask), value in q.items():
        out[mask] += value
    bad = []
    for mask in range(1, full):
        inflow = Fraction(0)
        for y in range(n):
            if not mask >> y & 1:
                inflow += q.value(y, mask | (1 << y))
        if out[mask] != inflow:
            bad.append(mask)
    total = out[full]
    if total != 1:
        bad.append(full)
    return FlowCheck(not bad, tuple(bad), total)


def verify_contour_mass_identity(dist: PreferenceDistribution) -> bool:
    """The Mobius inverse of the induced rule equals contour-class mass.

    For every pair (x, A): q(x, A) computed from p must equal the summed mass
    of supported preferences whose weak lower contour set of x is exactly A.
    """
    q = mobius_inverse(rcr_from_distribution(dist))
    return q.values == _contour_mass(dist.universe.n, dist.entries)


@dataclass(frozen=True)
class EmpiricalSample:
    """Best-in-menu frequencies from simulated draws, with the raw counts."""

    rule: RandomChoiceRule
    counts: dict[tuple[int, int], int]
    trials: int
    seed: int


def sample_empirical_rule(
    dist: PreferenceDistribution, trials: int, seed: int
) -> EmpiricalSample:
    """Draw trials i.i.d. preferences per menu and record choice frequencies.

    Menus are visited in ascending bitmask order and draws are made with an
    integer-threshold inverse-CDF, so output is deterministic given the seed
    and exact as a frequency table (count / trials).
    """
    if trials < 1:
        raise RumkitError(f"trials must be >= 1, got {trials}")
    universe = dist.universe
    rng = random.Random(seed)
    prefs = [pref for pref, _ in dist.entries]
    weights = [m for _, m in dist.entries]
    denom = math.lcm(*(w.denominator for w in weights))
    thresholds = []
    acc = 0
    for w in weights:
        acc += int(w * denom)
        thresholds.append(acc)
    counts: dict[tuple[int, int], int] = {}
    values: dict[tuple[int, int], Fraction] = {
        key: Fraction(0) for key in contour_pair_keys(universe.n)
    }
    for mask in range(1, universe.full_mask + 1):
        menu_counts: dict[int, int] = {}
        for _ in range(trials):
            draw = rng.randrange(denom)
            pick = 0
            while thresholds[pick] <= draw:
                pick += 1
            best = prefs[pick].best_in(mask)
            menu_counts[best] = menu_counts.get(best, 0) + 1
        for x, c in menu_counts.items():
            counts[(x, mask)] = c
            values[(x, mask)] = Fraction(c, trials)
    return EmpiricalSample(RandomChoiceRule(universe, values), counts, trials, seed)
