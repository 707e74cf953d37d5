"""Edge decomposability, distribution recovery by peeling, and greedy extension.

A model is edge decomposable when every nonempty submodel has a member whose
contour class meets the submodel only in that member. The greedy peel below
decides this: in a decomposable model every nonempty submodel keeps a
removable preference, so no removal order can get stuck, and the emitted
order is a sequential witness.
"""

from __future__ import annotations

import bisect
import enum
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Sequence, Union

from .core import Model, Preference, bits_of, lattice, require_same_universe
from .errors import NotEdgeDecomposableError, RumkitError, WitnessError
from .stochastic import (
    MobiusInverse,
    PreferenceDistribution,
    RandomChoiceRule,
    _from_shares,
    _superset_transform,
    as_fraction,
    mobius_inverse,
    validate_rcr,
)


@dataclass(frozen=True)
class DecompositionResult:
    decomposable: bool
    witness: tuple[tuple[Preference, tuple[int, int]], ...] | None
    stuck: Model | None

    def __bool__(self) -> bool:
        return self.decomposable


def _peel(
    rows: Sequence[Sequence[int]], size: int
) -> tuple[list[tuple[int, int]], list[int]]:
    """The greedy peel over rows of int keys, one row per preference.

    Each row lists a member's contour pairs in upper-contour order, encoded
    one-to-one as ints in range(size), so cover is counted in a list indexed
    by key. The peel repeatedly takes the first row left, in the given
    (model) order, that holds a key no other row left holds, and within it
    the first such key. The scan order is fixed, so the removals and the
    stuck set depend only on which rows share keys, not on the encoding:
    the first-met numbers of _rows and lattice coordinates give the same
    witness as a scan over (x, A mask) tuples. Returns the (row position,
    key) removals in order, and the positions of the rows left, ascending,
    when the peel gets stuck (empty when every row was peeled).
    """
    cover = [0] * size
    for row in rows:
        for key in row:
            cover[key] += 1
    # rows left, last first: a hit is almost always among the first rows
    # left, so it sits near the end of this list, where del moves little
    left = list(range(len(rows) - 1, -1, -1))
    order = []
    while left:
        for j in range(len(left) - 1, -1, -1):
            row = rows[left[j]]
            for key in row:
                if cover[key] == 1:
                    break
            else:
                continue
            break
        else:
            return order, left[::-1]
        order.append((left[j], key))
        del left[j]
        for key in row:
            cover[key] -= 1
    return order, []


def _rows(model: Model) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """The members' circuits as int rows, in model order: each contour key
    (x, A mask) is numbered as first met, so the numbers run over only the
    keys the model touches and no lattice is built. Returns the rows and the
    keys by number."""
    number = defaultdict(count().__next__)
    rows = [[number[key] for key in pref.contour_keys()] for pref in model]
    return rows, list(number)


def is_edge_decomposable(model: Model) -> DecompositionResult:
    """Greedy peel: repeatedly remove a preference with a suffix-unique pair.

    Preferences are scanned in canonical order and pairs in upper-contour
    order; the first removable hit is taken. Success returns the removal
    order as the witness, a tuple of (preference, (x, A mask)) entries, each
    key a contour pair unique to its preference among those not yet removed.
    Failure returns the stuck submodel in which no member has a pair unique
    to it. The peel runs on the first-met numbers of _rows, decoded through
    its key list, so it builds no lattice and no cap applies.
    """
    prefs = model.preferences
    rows, keys = _rows(model)
    order, stuck = _peel(rows, len(keys))
    if stuck:
        return DecompositionResult(
            False, None, Model.of(model.universe, [prefs[i] for i in stuck])
        )
    witness = tuple((prefs[i], keys[k]) for i, k in order)
    return DecompositionResult(True, witness, None)


def validate_witness(
    model: Model, witness: Sequence[tuple[Preference, tuple[int, int]]]
) -> bool:
    """Check the suffix-uniqueness condition at every witness position.

    The witness lists (preference, (x, A mask)) entries in removal order.
    Raises WitnessError unless it covers the model exactly once and every key
    is a contour pair on the model's universe; the keys are checked by
    arithmetic, so no lattice is built and no cap applies. A sweep from the end
    counts the suffix's contour keys: with one key per x in each member, (x, A)
    is unique to pref when it is pref's key and the suffix covers it once.
    """
    if sorted((p for p, _ in witness), key=lambda p: p.ranking) != list(model):
        raise WitnessError("witness does not cover the model exactly once")
    for _, key in witness:
        model.universe.require_pair(key, WitnessError)
    cover = Counter()
    for pref, (x, mask) in reversed(witness):
        cover.update(pref.contour_keys())
        if pref.contour_menu_mask(x) != mask or cover[(x, mask)] != 1:
            return False
    return True


class RecoveryStatus(str, enum.Enum):
    EXACT = "exact"
    APPROXIMATE = "approximate"
    FAILED = "failed"


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of peeling a distribution out of choice data.

    masses holds the raw recovered value of every member, in model order;
    distribution is set only when they form an exact probability
    distribution. residual maps each pair where the data and the
    reconstruction disagree to (input - reconstructed), in the representation
    the data came in (rule values, or Mobius values when a Mobius inverse was
    supplied).
    """

    status: RecoveryStatus
    masses: tuple[tuple[Preference, Fraction], ...]
    residual: tuple[tuple[tuple[int, int], Fraction], ...]
    distribution: PreferenceDistribution | None
    tolerance: Fraction

    def __bool__(self) -> bool:
        return self.status is not RecoveryStatus.FAILED

    def mass_of(self, pref: Preference) -> Fraction:
        """pref's mass, found by bisecting masses (in model order); 0 for a
        non-member."""
        masses = self.masses
        i = bisect.bisect_left(masses, pref.ranking, key=lambda e: e[0].ranking)
        if i < len(masses) and masses[i][0] == pref:
            return masses[i][1]
        return Fraction(0)


RuleOrInverse = Union[RandomChoiceRule, MobiusInverse]


def recover_distribution(
    model: Model,
    data: RuleOrInverse,
    tolerance: Union[Fraction, int, str] = 0,
) -> RecoveryReport:
    """Peel masses off the Mobius inverse along a decomposition witness.

    One peel does both jobs: each member's circuit becomes a row of lattice
    coordinates, _peel finds the witness on those rows (the one
    is_edge_decomposable returns), and the masses are peeled off the same
    rows. At each witness position the recovered mass is the witnessed pair's
    Mobius value minus the mass already assigned to that pair by earlier
    preferences in its contour class. The assigned masses are the
    reconstructed Mobius inverse; for rule input the forward transform
    carries them to a rule. The reconstruction is then compared to the input
    entry by entry: all-zero residual with valid masses is exact; residual
    within tolerance with masses in [0, 1] is approximate (for
    sampled data); anything else means the data was not generated by this
    model and the status is failed.
    """
    if not isinstance(data, (MobiusInverse, RandomChoiceRule)):
        raise RumkitError(f"cannot recover from {type(data).__name__}")
    require_same_universe(model, data)
    tol = as_fraction(tolerance)
    if tol < 0:
        raise RumkitError(f"tolerance must be >= 0, got {tol}")
    if isinstance(data, MobiusInverse):
        q = data
    else:
        check = validate_rcr(data)
        if not check:
            raise RumkitError(
                "input is not a valid random choice rule: "
                f"{len(check.negative)} negative entries, "
                f"{len(check.bad_menus)} menus with sum != 1"
            )
        q = mobius_inverse(data)

    # each member's circuit as lattice coordinates: the int objects the
    # index already holds, shared by the peel and the mass peel
    coords = lattice(model.universe.n)
    index = coords.index
    prefs = model.preferences
    rows = [[index[key] for key in pref.contour_keys()] for pref in prefs]
    order, stuck = _peel(rows, len(coords.keys))
    if stuck:
        raise NotEdgeDecomposableError(
            f"model is not edge decomposable; stuck on {len(stuck)} preferences"
        )

    # assigned[i]: numerator, over q's denominator, of the mass peeled so far
    # onto pair i; once the peel is done it is the Mobius inverse the
    # recovered masses reconstruct. peeled[r] is the mass of prefs[r].
    given = q.numerators
    assigned = [0] * len(given)
    peeled = [0] * len(prefs)
    for r, i in order:
        value = given[i] - assigned[i]
        peeled[r] = value
        for j in rows[r]:
            assigned[j] += value

    # compare in the input's own representation; mobius_inverse keeps the
    # rule's denominator, so data and q share one
    if isinstance(data, RandomChoiceRule):
        assigned = _superset_transform(coords, assigned, 1)
    denominator = q.denominator
    residual = []
    worst = 0
    for key, entry, rebuilt in zip(coords.keys, data.numerators, assigned):
        diff = entry - rebuilt
        if diff:
            residual.append((key, Fraction(diff, denominator)))
            worst = max(worst, abs(diff))

    ordered = tuple((p, Fraction(value, denominator)) for p, value in zip(prefs, peeled))
    valid_range = all(0 <= value <= denominator for value in peeled)
    if not residual and valid_range and sum(peeled) == denominator:
        dist = _from_shares(model, peeled)
        return RecoveryReport(RecoveryStatus.EXACT, ordered, (), dist, tol)
    if valid_range and Fraction(worst, denominator) <= tol and tol > 0:
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
    superset of the seed, maximal under this construction; a seed that meets
    every pair already is returned as it is.
    """
    universe = seed.universe
    keys = lattice(universe.n).keys
    if not is_edge_decomposable(seed):
        raise NotEdgeDecomposableError("seed model is not edge decomposable")
    full = universe.full_mask
    prefs = list(seed.preferences)
    covered = {key for pref in prefs for key in pref.contour_keys()}
    # covered only grows and each addition covers its own target, so one
    # pass in canonical order finds every target a rescan from the start would
    for key in keys:
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
    if len(prefs) == len(seed):
        return seed
    return Model.of(universe, prefs)
