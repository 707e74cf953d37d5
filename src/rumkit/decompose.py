"""Edge decomposability, distribution recovery by peeling, and greedy extension.

A model is edge decomposable when every nonempty submodel has a member whose
contour class meets the submodel only in that member. The greedy peel below
decides this: in a decomposable model every nonempty submodel keeps a
removable preference, so no removal order can get stuck, and the emitted
order is a sequential witness.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import (
    ContourPair,
    Menu,
    Model,
    Preference,
    bits_of,
    contour_pair_keys,
)
from .errors import NotEdgeDecomposableError, RumkitError, WitnessError
from .stochastic import (
    MobiusInverse,
    PreferenceDistribution,
    RandomChoiceRule,
    _contour_mass,
    _superset_transform,
    as_fraction,
    mobius_inverse,
    validate_rcr,
)


@dataclass(frozen=True)
class DecompositionWitness:
    """An ordering of the model with, per position, a contour pair unique to it
    among the remaining suffix."""

    entries: tuple[tuple[Preference, ContourPair], ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def reversed(self) -> "DecompositionWitness":
        return DecompositionWitness(tuple(reversed(self.entries)))


@dataclass(frozen=True)
class DecompositionResult:
    decomposable: bool
    witness: DecompositionWitness | None
    stuck: Model | None

    def __bool__(self) -> bool:
        return self.decomposable


def is_edge_decomposable(model: Model) -> DecompositionResult:
    """Greedy peel: repeatedly remove a preference with a suffix-unique pair.

    Preferences are scanned in canonical order and pairs in upper-contour
    order; the first removable hit is taken. Success returns the removal
    order as a witness, failure returns the stuck submodel in which no member
    has a pair unique to it.
    """
    remaining = list(model.preferences)
    cover = Counter(key for pref in remaining for key in pref.contour_keys())
    entries: list[tuple[Preference, ContourPair]] = []
    universe = model.universe
    while remaining:
        hit = next(
            (
                (pref, key)
                for pref in remaining
                for key in pref.contour_keys()
                if cover[key] == 1
            ),
            None,
        )
        if hit is None:
            return DecompositionResult(False, None, Model.of(universe, remaining))
        pref, (x, mask) = hit
        entries.append((pref, ContourPair(x, Menu(universe, mask))))
        remaining.remove(pref)
        cover.subtract(pref.contour_keys())
    return DecompositionResult(True, DecompositionWitness(tuple(entries)), None)


def validate_witness(model: Model, witness: DecompositionWitness) -> bool:
    """Check the suffix-uniqueness condition at every witness position.

    Raises WitnessError unless the witness covers the model exactly once.
    """
    listed = [pref for pref, _ in witness]
    if sorted(listed, key=lambda p: p.ranking) != list(model.preferences):
        raise WitnessError("witness does not cover the model exactly once")
    for i, (pref, pair) in enumerate(witness):
        suffix = listed[i:]
        members = [p for p in suffix if p.contour_menu_mask(pair.x) == pair.mask]
        if members != [pref]:
            return False
    return True


class RecoveryStatus(str, enum.Enum):
    EXACT = "exact"
    APPROXIMATE = "approximate"
    FAILED = "failed"


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of peeling a distribution out of choice data.

    masses holds the raw recovered values; distribution is set only when they
    form an exact probability distribution. residual maps each pair where the
    data and the reconstruction disagree to (input - reconstructed), in the
    representation the data came in (rule values, or Mobius values when a
    Mobius inverse was supplied).
    """

    status: RecoveryStatus
    masses: tuple[tuple[Preference, Fraction], ...]
    residual: tuple[tuple[tuple[int, int], Fraction], ...]
    distribution: PreferenceDistribution | None
    tolerance: Fraction

    def __bool__(self) -> bool:
        return self.status is not RecoveryStatus.FAILED

    def mass_of(self, pref: Preference) -> Fraction:
        for p, m in self.masses:
            if p == pref:
                return m
        return Fraction(0)


ChoiceData = Union[RandomChoiceRule, MobiusInverse]


def recover_distribution(
    model: Model,
    data: ChoiceData,
    tolerance: Union[Fraction, int, str] = 0,
) -> RecoveryReport:
    """Peel masses off the Mobius inverse along a decomposition witness.

    At each witness position the recovered mass is the witnessed pair's
    Mobius value minus the mass already assigned to that pair by earlier
    preferences in its contour class. The assigned masses are the
    reconstructed Mobius inverse; for rule input the forward transform
    carries them to a rule. The reconstruction is then compared to the input
    entry by entry: all-zero residual with valid masses is exact; residual
    within tolerance with masses in [0, 1] is approximate (for
    sampled data); anything else means the data was not generated by this
    model and the status is failed.
    """
    tol = as_fraction(tolerance)
    if tol < 0:
        raise RumkitError(f"tolerance must be >= 0, got {tol}")
    if isinstance(data, MobiusInverse):
        q = data
    elif isinstance(data, RandomChoiceRule):
        check = validate_rcr(data)
        if not check:
            raise RumkitError(
                "input is not a valid random choice rule: "
                f"{len(check.negative)} negative entries, "
                f"{len(check.bad_menus)} menus with sum != 1"
            )
        q = mobius_inverse(data)
    else:
        raise RumkitError(f"cannot recover from {type(data).__name__}")

    dec = is_edge_decomposable(model)
    if not dec:
        raise NotEdgeDecomposableError(
            f"model is not edge decomposable; stuck on {len(dec.stuck)} preferences"
        )

    # assigned[(x, A)]: mass peeled so far onto pair (x, A); once the peel is
    # done it is the Mobius inverse the recovered masses reconstruct
    n = model.universe.n
    assigned = _contour_mass(n, ())
    masses: dict[Preference, Fraction] = {}
    for pref, pair in dec.witness:
        value = q.value(pair.x, pair.mask) - assigned[pair.key]
        masses[pref] = value
        for key in pref.contour_keys():
            assigned[key] += value

    # compare in the input's own representation
    if isinstance(data, RandomChoiceRule):
        _superset_transform(assigned, n, 1)
    residual = []
    worst = Fraction(0)
    for key, rebuilt in assigned.items():
        diff = data[key] - rebuilt
        if diff != 0:
            residual.append((key, diff))
            worst = max(worst, abs(diff))

    ordered = tuple(sorted(masses.items(), key=lambda item: item[0].ranking))
    valid_range = all(0 <= m <= 1 for _, m in ordered)
    total = sum((m for _, m in ordered), Fraction(0))
    if not residual and valid_range and total == 1:
        dist = PreferenceDistribution(model, masses)
        return RecoveryReport(RecoveryStatus.EXACT, ordered, (), dist, tol)
    if valid_range and worst <= tol and tol > 0:
        return RecoveryReport(
            RecoveryStatus.APPROXIMATE, ordered, tuple(residual), None, tol
        )
    return RecoveryReport(RecoveryStatus.FAILED, ordered, tuple(residual), None, tol)


def extend_edge_decomposable(seed: Model) -> Model:
    """Grow a decomposable model until every contour pair meets it.

    Scan pairs in canonical coordinate order for one whose contour class
    misses the current model, then add the canonical class member: everything
    outside A above x in ascending index order, then x, then the rest of A in
    ascending index order. Each addition keeps the model edge decomposable
    (the new preference is removable first), so the result is a decomposable
    superset of the seed, maximal under this construction.
    """
    if not is_edge_decomposable(seed):
        raise NotEdgeDecomposableError("seed model is not edge decomposable")
    universe = seed.universe
    full = universe.full_mask
    prefs = list(seed.preferences)
    covered = {key for pref in prefs for key in pref.contour_keys()}
    # covered only grows and each addition covers its own target, so one
    # pass in canonical order finds every target a rescan from the start would
    for key in contour_pair_keys(universe.n):
        if key in covered:
            continue
        x, mask = key
        outside = full & ~mask
        ranking = (
            tuple(bits_of(outside)) + (x,) + tuple(bits_of(mask ^ (1 << x)))
        )
        pref = Preference(universe, ranking)
        prefs.append(pref)
        covered.update(pref.contour_keys())
    return Model.of(universe, prefs)
