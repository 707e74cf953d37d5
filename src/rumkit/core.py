"""Alternatives, menus, strict preferences, and models.

Alternatives are canonicalized to integer indices 0..n-1; labels exist for
I/O only. Menus are bitmasks over those indices, which keeps subset-lattice
operations O(1). Every value here is immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from string import ascii_lowercase
from typing import Iterable, Iterator

from .errors import CapExceededError, LabelError, RumkitError, UniverseMismatchError

DEFAULT_LATTICE_CAP = 20
DEFAULT_VECTOR_CAP = 12
CAP_ENV_VAR = "RUMKIT_MAX_N"


def lattice_cap() -> int:
    """Largest n allowed for lattice-wide operations (2^n nodes)."""
    raw = os.environ.get(CAP_ENV_VAR)
    return int(raw) if raw else DEFAULT_LATTICE_CAP


def vector_cap() -> int:
    """Largest n allowed for full-length choice vectors (n * 2^(n-1) coords)."""
    raw = os.environ.get(CAP_ENV_VAR)
    return int(raw) if raw else DEFAULT_VECTOR_CAP


def require_lattice_cap(n: int) -> None:
    cap = lattice_cap()
    if n > cap:
        raise CapExceededError(
            f"n={n} exceeds the lattice cap of {cap}; set {CAP_ENV_VAR} to override"
        )


def require_vector_cap(n: int) -> None:
    cap = vector_cap()
    if n > cap:
        raise CapExceededError(
            f"n={n} exceeds the vector cap of {cap}; "
            f"only the closed-form bound is available at this size "
            f"(set {CAP_ENV_VAR} to override)"
        )


@dataclass(frozen=True)
class Universe:
    """A finite set of alternatives, identified by index with display labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise LabelError("a universe needs at least one alternative")
        seen = set()
        for lab in self.labels:
            if not isinstance(lab, str) or not lab:
                raise LabelError(f"label {lab!r} is not a nonempty string")
            if lab in seen:
                raise LabelError(f"duplicate label {lab!r}")
            seen.add(lab)

    @classmethod
    def of_size(cls, n: int) -> "Universe":
        """Universe with n default labels: a, b, ... for n <= 26, else x1..xn."""
        if n < 1:
            raise RumkitError(f"universe size must be >= 1, got {n}")
        if n <= 26:
            return cls(tuple(ascii_lowercase[:n]))
        return cls(tuple(f"x{i + 1}" for i in range(n)))

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "Universe":
        return cls(tuple(labels))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelError(f"unknown label {label!r}") from None

    def menu(self, mask: int) -> "Menu":
        return Menu(self, mask)

    def menu_of_labels(self, labels: Iterable[str]) -> "Menu":
        mask = 0
        for lab in labels:
            bit = 1 << self.index(lab)
            if mask & bit:
                raise LabelError(f"duplicate label {lab!r} in menu")
            mask |= bit
        return Menu(self, mask)

    def describe_mask(self, mask: int) -> str:
        return "{" + ",".join(self.labels[i] for i in bits_of(mask)) + "}"


def bits_of(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Menu:
    """A subset of the universe, as a bitmask."""

    universe: Universe
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.universe.full_mask:
            raise RumkitError(f"menu mask {self.mask:#x} out of range for n={self.universe.n}")

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(bits_of(self.mask))

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.universe.labels[i] for i in self.members)

    def __str__(self) -> str:
        return self.universe.describe_mask(self.mask)


@dataclass(frozen=True)
class ContourPair:
    """A pair (x, A) with x a member of menu A; indexes one lattice edge."""

    x: int
    menu: Menu

    def __post_init__(self) -> None:
        if self.x not in self.menu:
            raise RumkitError(
                f"alternative index {self.x} is not in menu {self.menu}"
            )

    @property
    def universe(self) -> Universe:
        return self.menu.universe

    @property
    def mask(self) -> int:
        return self.menu.mask

    @property
    def key(self) -> tuple[int, int]:
        return (self.x, self.menu.mask)

    def __str__(self) -> str:
        return f"({self.universe.labels[self.x]}, {self.menu})"


@dataclass(frozen=True)
class Preference:
    """A strict total order over the universe; ranking lists indices best first."""

    universe: Universe
    ranking: tuple[int, ...]
    _suffix_masks: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _positions: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        n = self.universe.n
        if tuple(sorted(self.ranking)) != tuple(range(n)):
            raise RumkitError(
                f"ranking {self.ranking} is not a permutation of 0..{n - 1}"
            )
        positions = [0] * n
        for pos, x in enumerate(self.ranking):
            positions[x] = pos
        suffix = [0] * (n + 1)
        for pos in range(n - 1, -1, -1):
            suffix[pos] = suffix[pos + 1] | (1 << self.ranking[pos])
        object.__setattr__(self, "_positions", tuple(positions))
        object.__setattr__(self, "_suffix_masks", tuple(suffix[:n]))

    def position(self, x: int) -> int:
        return self._positions[x]

    def prefers(self, x: int, y: int) -> bool:
        """True iff x is ranked strictly above y."""
        return self._positions[x] < self._positions[y]

    def best_in(self, mask: int) -> int:
        """The highest-ranked member of the (nonempty) menu mask."""
        for x in self.ranking:
            if mask >> x & 1:
                return x
        raise RumkitError("best_in of an empty menu")

    def contour_menu_mask(self, x: int) -> int:
        """Mask of the weak lower contour set of x: x and everything below it."""
        return self._suffix_masks[self._positions[x]]

    def contour_keys(self) -> Iterator[tuple[int, int]]:
        """The n keys (x, weak lower contour set of x), best first: pref's circuit."""
        return zip(self.ranking, self._suffix_masks)

    def reverse(self) -> "Preference":
        return Preference(self.universe, self.ranking[::-1])

    def to_labels(self) -> tuple[str, ...]:
        return tuple(self.universe.labels[x] for x in self.ranking)

    def __str__(self) -> str:
        return "≻".join(self.to_labels())


def preference_from_labels(universe: Universe, labels: Iterable[str]) -> Preference:
    """Build a preference from labels listed best first."""
    labels = tuple(labels)
    if len(labels) != universe.n:
        raise LabelError(
            f"ranking has {len(labels)} labels but the universe has {universe.n}"
        )
    seen = set()
    ranking = []
    for lab in labels:
        if lab in seen:
            raise LabelError(f"duplicate label {lab!r} in ranking")
        seen.add(lab)
        ranking.append(universe.index(lab))
    return Preference(universe, tuple(ranking))


def all_preferences(universe: Universe) -> Iterator[Preference]:
    """All n! preferences, in lexicographic ranking order."""
    for perm in permutations(range(universe.n)):
        yield Preference(universe, perm)


def require_same_universe(a, b) -> None:
    if a.universe != b.universe:
        raise UniverseMismatchError(
            f"values live on different universes: {a.universe.labels} vs {b.universe.labels}"
        )


def in_contour_class(pref: Preference, pair: ContourPair) -> bool:
    """True iff A is exactly the weak lower contour set of x under pref.

    Equivalently: x is pref-best within A and everything outside A is
    pref-better than x.
    """
    require_same_universe(pref, pair)
    return pref.contour_menu_mask(pair.x) == pair.menu.mask


def upper_contour_pairs(pref: Preference) -> tuple[ContourPair, ...]:
    """The n pairs (x_k, {x_k, ..., x_n}) along the ranking, best first.

    These are exactly the pairs whose contour class contains pref.
    """
    u = pref.universe
    return tuple(ContourPair(x, Menu(u, mask)) for x, mask in pref.contour_keys())


@dataclass(frozen=True)
class Model:
    """A nonempty set of distinct preferences over one universe.

    Preferences are stored in canonical (lexicographic ranking) order so model
    equality is set equality and reports are reproducible.
    """

    universe: Universe
    preferences: tuple[Preference, ...]
    _rankings: frozenset[tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default=frozenset()
    )

    def __post_init__(self) -> None:
        if not self.preferences:
            raise RumkitError("a model must contain at least one preference")
        rankings = set()
        for pref in self.preferences:
            require_same_universe(self, pref)
            if pref.ranking in rankings:
                raise RumkitError(f"duplicate preference {pref}")
            rankings.add(pref.ranking)
        ordered = tuple(sorted(self.preferences, key=lambda p: p.ranking))
        object.__setattr__(self, "preferences", ordered)
        object.__setattr__(self, "_rankings", frozenset(rankings))

    @classmethod
    def of(cls, universe: Universe, prefs: Iterable[Preference]) -> "Model":
        return cls(universe, tuple(prefs))

    def __len__(self) -> int:
        return len(self.preferences)

    def __iter__(self) -> Iterator[Preference]:
        return iter(self.preferences)

    def __contains__(self, pref: Preference) -> bool:
        return (
            isinstance(pref, Preference)
            and pref.universe == self.universe
            and pref.ranking in self._rankings
        )


def contour_class(model: Model, pair: ContourPair) -> tuple[Preference, ...]:
    """The model members whose contour class membership matches pair."""
    return tuple(p for p in model if in_contour_class(p, pair))


def check_minimal_mutual_agreement(model: Model) -> bool:
    """True iff no preference and its exact reverse are both in the model.

    Equivalent to: every two members agree on at least one ordered pair.
    """
    if model.universe.n < 2:
        raise RumkitError("minimal mutual agreement needs at least 2 alternatives")
    return all(p.reverse() not in model for p in model)


@lru_cache(maxsize=None)
def contour_pair_keys(n: int) -> tuple[tuple[int, int], ...]:
    """All (x, menu mask) pairs in canonical coordinate order.

    Order: |A| descending, then menu mask ascending, then x ascending. This is
    the shared coordinate system for choice vectors and flow-diagram edges.
    """
    full = (1 << n) - 1
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, full + 1):
        by_size[mask.bit_count()].append(mask)
    keys: list[tuple[int, int]] = []
    for size in range(n, 0, -1):
        for mask in by_size[size]:
            for x in bits_of(mask):
                keys.append((x, mask))
    return tuple(keys)


@lru_cache(maxsize=None)
def contour_pair_index(n: int) -> dict[tuple[int, int], int]:
    """Map from (x, menu mask) to its canonical coordinate."""
    return {key: i for i, key in enumerate(contour_pair_keys(n))}
