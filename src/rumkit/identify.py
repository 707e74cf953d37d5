"""Exact identification tests via linear independence of choice vectors.

A model is identified exactly when the Mobius vectors of its preferences are
linearly independent. Rank is computed over the rationals with fraction-free
integer elimination; a fast modular pre-screen may certify full rank, but a
negative answer is always backed by an exact nullspace certificate carrying
two distinct distributions that induce the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
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
    for x in pref.ranking:
        coords[index[(x, pref.contour_menu_mask(x))]] = 1
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


def _integer_rows(vectors: Sequence[Sequence]) -> list[list[int]]:
    rows = []
    width = None
    for vec in vectors:
        if width is None:
            width = len(vec)
        elif len(vec) != width:
            raise RumkitError(
                f"vectors have mixed lengths {width} and {len(vec)}"
            )
        fracs = [Fraction(v) for v in vec]
        scale = lcm(*(f.denominator for f in fracs)) if fracs else 1
        rows.append([int(f * scale) for f in fracs])
    return rows


def rank(vectors: Sequence[Sequence]) -> int:
    """Exact rank over the rationals by fraction-free (Bareiss) elimination.

    Rows are scaled to integers, then eliminated with single-step fraction-free
    updates dividing by the previous pivot; every division is checked exact.
    """
    rows = _integer_rows(vectors)
    if not rows:
        return 0
    m = len(rows)
    ncols = len(rows[0])
    r = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for i in range(r, m):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[col]
        for i in range(r + 1, m):
            row = rows[i]
            f = row[col]
            for c in range(col, ncols):
                num = p * row[c] - f * prow[c]
                quot, rem = divmod(num, prev)
                if rem:
                    raise RumkitError("fraction-free elimination lost exactness")
                row[c] = quot
        prev = p
        r += 1
        if r == m:
            break
    return r


def _rank_mod_prime(rows: Sequence[Sequence[int]], prime: int) -> int:
    work = [[v % prime for v in row] for row in rows]
    m = len(work)
    if m == 0:
        return 0
    ncols = len(work[0])
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, m):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][col], prime - 2, prime)
        prow = work[r]
        for i in range(r + 1, m):
            f = work[i][col]
            if f:
                factor = f * inv % prime
                row = work[i]
                for c in range(col, ncols):
                    row[c] = (row[c] - factor * prow[c]) % prime
        r += 1
        if r == m:
            break
    return r


def _nullspace_vector(vectors: Sequence[Sequence]) -> list[Fraction]:
    """A nonzero c with sum c_j * vectors[j] = 0; deterministic first free column."""
    k = len(vectors)
    ncoords = len(vectors[0])
    cols = [[Fraction(vectors[j][i]) for j in range(k)] for i in range(ncoords)]
    pivot_rows: list[tuple[int, int]] = []  # (row, col)
    row = 0
    for col in range(k):
        piv = None
        for i in range(row, ncoords):
            if cols[i][col]:
                piv = i
                break
        if piv is None:
            c = [Fraction(0)] * k
            c[col] = Fraction(1)
            for prow, pcol in reversed(pivot_rows):
                s = sum(cols[prow][j] * c[j] for j in range(pcol + 1, col + 1))
                c[pcol] = -s / cols[prow][pcol]
            return c
        if piv != row:
            cols[row], cols[piv] = cols[piv], cols[row]
        prow_vals = cols[row]
        pval = prow_vals[col]
        for i in range(row + 1, ncoords):
            f = cols[i][col]
            if f:
                factor = f / pval
                rowi = cols[i]
                for c2 in range(col, k):
                    rowi[c2] -= factor * prow_vals[c2]
        pivot_rows.append((row, col))
        row += 1
    raise RumkitError("no nullspace vector: the vectors are linearly independent")


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


def _certificate(model: Model, coeffs: Sequence[Fraction]) -> NullspaceCertificate:
    pos: dict[Preference, Fraction] = {}
    neg: dict[Preference, Fraction] = {}
    nonzero = []
    for pref, c in zip(model.preferences, coeffs):
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

    The modular pre-screen can only certify full rank (rank mod p never
    exceeds the rational rank); anything less falls through to the exact path.
    """
    vectors = [mobius_vector(pref) for pref in model]
    if _rank_mod_prime(vectors, _PRESCREEN_PRIME) == len(vectors):
        return IdentificationResult(True, None)
    if rank(vectors) == len(vectors):
        return IdentificationResult(True, None)
    coeffs = _nullspace_vector(vectors)
    return IdentificationResult(False, _certificate(model, coeffs))


def max_identified_size(n: int) -> int:
    """(n - 2) * 2^(n - 1) + 2: the largest identified model on n alternatives."""
    if n < 1:
        raise RumkitError(f"n must be >= 1, got {n}")
    return (n - 2) * (1 << (n - 1)) + 2


def excluded_preference_ratio(n: int) -> Fraction:
    """max_identified_size(n) / n!, the admissible fraction of all preferences."""
    return Fraction(max_identified_size(n), factorial(n))
