"""Exact identification tests via linear independence of choice vectors.

A model is identified exactly when the Mobius vectors of its preferences are
linearly independent. Each vector is a minimal circuit of the flow diagram: n
ones among n * 2^(n-1) coordinates. One sparse routine, structured Gaussian
elimination (LaMacchia and Odlyzko, 1990), does every rank and nullspace
computation, over GF(p) or exactly over the rationals. A screen mod p may
certify full rank but never a deficiency; a negative answer is always backed
by an exact nullspace certificate carrying two distinct distributions that
induce the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .core import (
    Model,
    Preference,
    contour_pair_index,
    require_vector_cap,
)
from .errors import RumkitError
from .stochastic import (
    PreferenceDistribution,
    _contour_mass,
    _superset_transform,
    rcr_from_distribution,
)

_PRESCREEN_PRIME = (1 << 61) - 1


def mobius_vector(pref: Preference) -> tuple[int, ...]:
    """0/1 vector with ones exactly at pref's n upper contour pairs."""
    n = pref.universe.n
    require_vector_cap(n)
    index = contour_pair_index(n)
    coords = [0] * len(index)
    for key in pref.contour_keys():
        coords[index[key]] = 1
    return tuple(coords)


def rule_vector(pref: Preference) -> tuple[int, ...]:
    """0/1 vector with a one per nonempty menu, at that menu's best element.

    The forward superset transform of the point mass on pref.
    """
    n = pref.universe.n
    require_vector_cap(n)
    table = _contour_mass(n, ((pref, 1),))
    _superset_transform(table, n, 1)
    return tuple(table.values())


def _eliminate(
    rows: Sequence[dict[int, Fraction | int]], prime: int | None = None
) -> tuple[int, dict[int, Fraction | int] | None]:
    """Structured Gaussian elimination on sparse rows ({coordinate: value}).

    Rows are reduced in the given order, over GF(prime), or exactly over Q
    when prime is None. Each row that stays nonzero becomes the pivot of its
    smallest coordinate, scaled so that entry is 1. Every row carries its
    combination of input rows, so the first row to reduce to zero yields a
    dependency {row index: coefficient} with coefficient 1 on that row; its
    predecessors are independent, so that dependency is the unique one.
    Returns the rank and that dependency, or None when the rows are
    independent.
    """
    pivots: dict[int, tuple[dict, dict]] = {}
    dependency = None
    for i, row in enumerate(rows):
        if prime is not None:
            row = {c: v % prime for c, v in row.items()}
        row = {c: v for c, v in row.items() if v}
        combo = {i: Fraction(1) if prime is None else 1}
        while row:
            lead = min(row)
            if lead not in pivots:
                break
            factor = row[lead]
            for target, source in zip((row, combo), pivots[lead]):
                for c, v in source.items():
                    value = target.get(c, 0) - factor * v
                    if prime is not None:
                        value %= prime
                    if value:
                        target[c] = value
                    else:
                        target.pop(c, None)
        if not row:
            if dependency is None:
                dependency = combo
            continue
        scale = 1 / Fraction(row[lead]) if prime is None else pow(row[lead], -1, prime)
        for target in (row, combo):
            for c, v in target.items():
                target[c] = v * scale if prime is None else v * scale % prime
        pivots[lead] = (row, combo)
    return len(pivots), dependency


def rank(vectors: Sequence[Sequence]) -> int:
    """Exact rank over the rationals of equal-length vectors."""
    rows = []
    for vec in vectors:
        if len(vec) != len(vectors[0]):
            raise RumkitError(
                f"vectors have mixed lengths {len(vectors[0])} and {len(vec)}"
            )
        rows.append({c: Fraction(v) for c, v in enumerate(vec) if v})
    return _eliminate(rows)[0]


@dataclass(frozen=True)
class NullspaceCertificate:
    """Witness that a model is not identified.

    The coefficients combine the model's Mobius vectors to zero; nu puts the
    normalized positive part on its support and nu_prime the negative part,
    giving two distributions with disjoint supports and identical rules.
    """

    coefficients: tuple[tuple[Preference, Fraction], ...]
    nu: PreferenceDistribution
    nu_prime: PreferenceDistribution


@dataclass(frozen=True)
class IdentificationResult:
    identified: bool
    certificate: NullspaceCertificate | None

    def __bool__(self) -> bool:
        return self.identified


def _certificate(model: Model, coeffs: dict[int, Fraction]) -> NullspaceCertificate:
    pos: dict[Preference, Fraction] = {}
    neg: dict[Preference, Fraction] = {}
    nonzero = []
    for j, pref in enumerate(model.preferences):
        c = coeffs.get(j, 0)
        if c > 0:
            pos[pref] = c
        elif c < 0:
            neg[pref] = -c
        if c != 0:
            nonzero.append((pref, c))
    pos_total = sum(pos.values(), Fraction(0))
    neg_total = sum(neg.values(), Fraction(0))
    if not pos or not neg:
        raise RumkitError("degenerate nullspace vector: one-signed coefficients")
    nu = PreferenceDistribution(model, {p: c / pos_total for p, c in pos.items()})
    nu_prime = PreferenceDistribution(model, {p: c / neg_total for p, c in neg.items()})
    if rcr_from_distribution(nu) != rcr_from_distribution(nu_prime):
        raise RumkitError("certificate distributions do not induce the same rule")
    return NullspaceCertificate(tuple(nonzero), nu, nu_prime)


def is_identified(model: Model) -> IdentificationResult:
    """Decide identification on Mobius vectors; certify any failure.

    The preferences' circuits go as sparse rows, in model order, through one
    elimination routine. Run mod p it screens: full rank mod p certifies full
    rational rank (rank mod p never exceeds it), but a dependency found mod p
    is never a certificate. When the screen fails, the exact rank decides,
    and the exact elimination's first dependency, the unique combination of
    the first preference whose vector depends on the ones before it, gives
    the certificate.
    """
    n = model.universe.n
    require_vector_cap(n)
    index = contour_pair_index(n)
    rows = [{index[key]: 1 for key in pref.contour_keys()} for pref in model]
    if _eliminate(rows, _PRESCREEN_PRIME)[0] == len(rows):
        return IdentificationResult(True, None)
    if rank([mobius_vector(pref) for pref in model]) == len(rows):
        return IdentificationResult(True, None)
    return IdentificationResult(False, _certificate(model, _eliminate(rows)[1]))


def max_identified_size(n: int) -> int:
    """(n - 2) * 2^(n - 1) + 2: the largest identified model on n alternatives."""
    if n < 1:
        raise RumkitError(f"n must be >= 1, got {n}")
    return (n - 2) * (1 << (n - 1)) + 2


def excluded_preference_ratio(n: int) -> Fraction:
    """max_identified_size(n) / n!, the admissible fraction of all preferences."""
    return Fraction(max_identified_size(n), factorial(n))
