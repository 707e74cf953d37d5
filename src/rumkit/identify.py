"""Exact identification tests via linear independence of choice vectors.

A model is identified exactly when the Mobius vectors of its preferences are
linearly independent. Each vector is a minimal circuit of the flow diagram: n
ones among n * 2^(n-1) coordinates. is_identified builds neither those
vectors nor the lattice: each circuit is read once, as the row of first-met
key numbers that decompose's _rows gives, so its cost grows with the model,
not with n, and no cap applies. The greedy peel of decompose runs first on
those rows. An empty stuck core is a yes by the paper's sufficient
condition: an edge-decomposable model is identified. Otherwise every
dependency is zero on the peeled members, so the answer is the stuck core's.
One sparse routine, structured Gaussian elimination (LaMacchia and Odlyzko,
1990), does every rank and nullspace computation exactly, fraction-free over
the integers. A negative answer is always backed by a certificate, carrying
two distributions that induce the same rule, checked on their contour
masses.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from typing import Iterable, Iterator, Sequence

from .core import Model, Preference, lattice
from .decompose import _peel, _rows
from .errors import RumkitError
from .stochastic import PreferenceDistribution, _from_shares, _over_lcm, as_fraction


def mobius_vector(pref: Preference) -> tuple[int, ...]:
    """0/1 vector with ones exactly at pref's n upper contour pairs, over the
    coordinates of lattice(n), so it is refused past the lattice cap."""
    index = lattice(pref.universe.n).index
    vector = [0] * len(index)
    for key in pref.contour_keys():
        vector[index[key]] = 1
    return tuple(vector)


def _eliminate(rows: Iterable[dict[int, int]]) -> Iterator[dict[int, int] | None]:
    """Structured Gaussian elimination over Z on sparse rows ({coordinate: value}).

    Rows are reduced in the given order, fraction-free: a row meeting the
    pivot of its largest coordinate becomes a * row - b * pivot, with b/a
    the ratio of the two leading entries in lowest terms. Every row carries
    its combination of input rows; a row that stays nonzero becomes a pivot
    once it and its combination are divided by their content gcd, signed so
    that the leading entry is positive. Yields one value per row: None for a
    new pivot, or, for a row that reduces to zero, its integer combination
    {row index: coefficient}, which is zero on the rows after it. The first
    such combination is the unique dependency of its row on the rows before
    it, which are independent. Work stops when the caller stops reading.
    """
    pivots: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    for i, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        combo = {i: 1}
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                break
            a, b = pivot[0][lead], row[lead]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            for target, source in zip((row, combo), pivot):
                if a != 1:
                    for c in target:
                        target[c] *= a
                for c, v in source.items():
                    value = target.get(c, 0) - b * v
                    if value:
                        target[c] = value
                    else:
                        del target[c]
        if not row:
            yield combo
            continue
        g = math.gcd(*row.values(), *combo.values())
        if row[lead] < 0:
            g = -g
        if g != 1:
            for target in (row, combo):
                for c in target:
                    target[c] //= g
        pivots[lead] = (row, combo)
        yield None


def rank(vectors: Iterable[Sequence]) -> int:
    """Exact rank over the rationals of equal-length vectors.

    Entries are exact rationals, read by as_fraction, so a float is refused;
    each row is scaled by the lcm of its denominators into integers before
    the elimination. The vectors are read once, in order, and only their
    nonzero entries are kept, so they may come from a generator.
    """
    rows = []
    length = None
    for vec in vectors:
        if length is None:
            length = len(vec)
        elif len(vec) != length:
            raise RumkitError(f"vectors have mixed lengths {length} and {len(vec)}")
        coordinates = list(compress(count(), vec))
        numerators, _ = _over_lcm([as_fraction(vec[c]) for c in coordinates])
        rows.append(dict(zip(coordinates, numerators)))
    return sum(combo is None for combo in _eliminate(rows))


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


def _certificate(model: Model, combo: dict[int, int]) -> NullspaceCertificate:
    """Certify a zero integer combination of Mobius vectors: coefficients over
    the entry of its last row, the one depending on the rows before it; nu and
    nu_prime normalize the parts with that entry's sign and the other sign.

    The combination is checked directly: its coefficients must sum to zero on
    every contour key. Then nu and nu_prime have equal contour masses, hence
    equal Mobius inverses and equal rules. The check costs O(|support| * n)
    and builds no lattice.
    """
    lead = combo[max(combo)]
    terms = [(model.preferences[j], combo[j]) for j in sorted(combo)]
    pos, neg = [0] * len(model), [0] * len(model)
    for j, v in combo.items():
        (pos if (v > 0) == (lead > 0) else neg)[j] = abs(v)
    if not any(neg):
        raise RumkitError("degenerate nullspace vector: one-signed coefficients")
    total: dict[tuple[int, int], int] = defaultdict(int)
    for pref, v in terms:
        for key in pref.contour_keys():
            total[key] += v
    if any(total.values()):
        raise RumkitError("certificate distributions do not induce the same rule")
    nu, nu_prime = _from_shares(model, pos), _from_shares(model, neg)
    coefficients = tuple((p, Fraction(v, lead)) for p, v in terms)
    return NullspaceCertificate(coefficients, nu, nu_prime)


def is_identified(model: Model) -> IdentificationResult:
    """Decide identification on Mobius vectors; certify any failure.

    The preferences' circuits are read once, in model order, as the rows of
    first-met key numbers from _rows; no lattice is built and no cap applies.
    The greedy peel runs on those rows, as in is_edge_decomposable. When it
    removes every row, the model is edge decomposable and so identified.
    Otherwise each peeled row holds a key that no later row and no stuck row
    holds, so every dependency is zero on the peeled rows: the model is
    identified exactly when its stuck core is, and the first row depending
    on the rows before it is a stuck row with the same combination. The
    exact rank is taken on the core's vectors over only the keys the core
    touches; if it is deficient, the integer elimination of the core rows
    stops at the first dependency, which, mapped back to model positions,
    gives the certificate.
    """
    rows, keys = _rows(model)
    _, stuck = _peel(rows, len(keys))
    if not stuck:
        return IdentificationResult(True, None)
    # the core's rows over its own keys, numbered as first met
    number = defaultdict(count().__next__)
    core = [{number[k]: 1 for k in rows[i]} for i in stuck]
    if rank([int(c in row) for c in range(len(number))] for row in core) == len(core):
        return IdentificationResult(True, None)
    combo = next(combo for combo in _eliminate(core) if combo is not None)
    return IdentificationResult(
        False, _certificate(model, {stuck[i]: v for i, v in combo.items()})
    )


def max_identified_size(n: int) -> int:
    """(n - 2) * 2^(n - 1) + 2: the largest identified model on n alternatives."""
    if n < 1:
        raise RumkitError(f"n must be >= 1, got {n}")
    return (n - 2) * (1 << (n - 1)) + 2
