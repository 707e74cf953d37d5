"""Alternatives, menus, strict preferences, models, and their coordinates.

Alternatives are canonicalized to integer indices 0..n-1; labels exist for
I/O only. A menu is an int bitmask over those indices, which keeps
subset-lattice operations O(1), and a contour pair (x, A) is its key
(x, A mask) everywhere, witnesses and bases included; Universe.describe_pair,
describe_mask and labels_of turn them into text. Every value here is
immutable after construction and every operation is a pure function.

lattice(n) is the one coordinate system: the n * 2^(n-1) contour pair keys
in canonical order, which index choice vectors, every rule and Mobius table
and the edges of the flow diagram. It owns the lattice cap: every coordinate
read goes through it, so no table is built past the cap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from operator import itemgetter
from string import ascii_lowercase
from typing import Callable, Iterable, Iterator

from .errors import CapExceededError, LabelError, RumkitError, UniverseMismatchError, shown

# join a ranking's labels, and a menu's labels, in documents and CLI output
# (--order lists its labels with the menu separator), so no label holds either
RANKING_SEPARATOR = ">"
MENU_SEPARATOR = ","
DEFAULT_LATTICE_CAP = 20
CAP_ENV_VAR = "RUMKIT_MAX_N"


def lattice_cap() -> int:
    """Largest n allowed for lattice-wide operations (2^n nodes): the value
    of RUMKIT_MAX_N when it is set and nonempty, else DEFAULT_LATTICE_CAP."""
    raw = os.environ.get(CAP_ENV_VAR)
    if not raw:
        return DEFAULT_LATTICE_CAP
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise RumkitError(f"{CAP_ENV_VAR}={shown(raw)} is not a positive integer")
    return value


@dataclass(frozen=True)
class Universe:
    """A finite set of alternatives, identified by index with display labels."""

    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not self.labels:
            raise LabelError("a universe needs at least one alternative")
        seen: dict[str, int] = {}
        for lab in self.labels:
            if not isinstance(lab, str) or not lab:
                raise LabelError(f"label {shown(lab)} is not a nonempty string")
            for separator, role in ((RANKING_SEPARATOR, "ranking"), (MENU_SEPARATOR, "menu")):
                if separator in lab:
                    raise LabelError(
                        f"label {shown(lab)} contains the {role} separator {separator!r}"
                    )
            if lab in seen:
                raise LabelError(f"duplicate label {shown(lab)}")
            seen[lab] = len(seen)
        object.__setattr__(self, "_index", seen)

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
            return self._index[label]
        except (KeyError, TypeError):
            raise LabelError(f"unknown label {shown(label)}") from None

    def menu_of_labels(self, labels: Iterable[str]) -> int:
        """The mask of the menu listing these labels."""
        mask = 0
        for lab in labels:
            bit = 1 << self.index(lab)
            if mask & bit:
                raise LabelError(f"duplicate label {shown(lab)} in menu")
            mask |= bit
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """The labels of the menu mask's members, in index order."""
        return tuple(self.labels[i] for i in bits_of(mask))

    def describe_mask(self, mask: int) -> str:
        return "{" + MENU_SEPARATOR.join(self.labels_of(mask)) + "}"

    def require_pair(
        self, key: object, error: type[RumkitError] = RumkitError
    ) -> tuple[int, int]:
        """key as a contour pair (x, A mask) on this universe, checked by
        arithmetic alone; anything else raises error naming the key."""
        if isinstance(key, tuple) and len(key) == 2:
            x, mask = key
            if (
                isinstance(x, int)
                and isinstance(mask, int)
                and 0 <= x < self.n
                and 0 < mask <= self.full_mask
                and mask >> x & 1
            ):
                return key
        raise error(f"{shown(key)} is not a contour pair on {self.n} alternatives")

    def describe_pair(self, x: int, mask: int) -> str:
        """The contour pair (x, A) as text, like (a, {a,b})."""
        return f"({self.labels[x]}, {self.describe_mask(mask)})"


def bits_of(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Preference:
    """A strict total order over the universe; ranking lists indices best first."""

    universe: Universe
    ranking: tuple[int, ...]
    _suffix_masks: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        ranking = self.ranking
        n = self.universe.n
        if not isinstance(ranking, tuple):
            raise RumkitError(f"ranking {shown(ranking)} is not a tuple")
        # the suffix masks, built worst first in one pass that also checks the
        # ranking: n items in 0..n-1 whose bits fill n places are a permutation
        masks = []
        mask = 0
        try:
            for x in reversed(ranking):
                if not 0 <= x < n:
                    break
                mask |= 1 << x
                masks.append(mask)
        except TypeError:  # an item that is not an int, such as 2.0 or "b"
            mask = 0
        if len(masks) != n or mask != (1 << n) - 1:
            raise RumkitError(
                f"ranking {shown(ranking)} is not a permutation of 0..{n - 1}"
            )
        masks.reverse()
        object.__setattr__(self, "_suffix_masks", tuple(masks))

    def prefers(self, x: int, y: int) -> bool:
        """True iff x is ranked strictly above y: y is not x and lies in x's
        weak lower contour set."""
        return y != x and self.contour_menu_mask(x) >> y & 1 == 1

    def best_in(self, mask: int) -> int:
        """The highest-ranked member of the (nonempty) menu mask."""
        for x in self.ranking:
            if mask >> x & 1:
                return x
        raise RumkitError("best_in of an empty menu")

    def contour_menu_mask(self, x: int) -> int:
        """Mask of the weak lower contour set of x: x and everything below it,
        the suffix mask at x's position in the ranking."""
        return self._suffix_masks[self.ranking.index(x)]

    def contour_keys(self) -> Iterator[tuple[int, int]]:
        """The n keys (x, weak lower contour set of x), best first: pref's circuit."""
        return zip(self.ranking, self._suffix_masks)

    def reverse(self) -> "Preference":
        return Preference(self.universe, self.ranking[::-1])

    def to_labels(self) -> tuple[str, ...]:
        return tuple(map(self.universe.labels.__getitem__, self.ranking))

    def __str__(self) -> str:
        return "≻".join(self.to_labels())


def preference_from_labels(universe: Universe, labels: Iterable[str]) -> Preference:
    """Build a preference from labels listed best first."""
    labels = tuple(labels)
    if len(labels) != universe.n:
        raise LabelError(
            f"ranking has {len(labels)} labels but the universe has {universe.n}"
        )
    try:
        return Preference(universe, tuple(map(universe._index.__getitem__, labels)))
    except (KeyError, TypeError, RumkitError):
        pass
    # an unknown or repeated label: the first one in list order names the
    # error; index refuses an unknown (or unhashable) label before the set sees it
    seen = set()
    ranking = []
    for lab in labels:
        ranking.append(universe.index(lab))
        if lab in seen:
            raise LabelError(f"duplicate label {shown(lab)} in ranking")
        seen.add(lab)
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


def contour_class(model: Model, key: tuple[int, int]) -> tuple[Preference, ...]:
    """The model members whose weak lower contour set of x is exactly A, for
    the contour pair key = (x, A mask); any other key is refused. Builds no
    lattice, so no cap applies."""
    x, mask = model.universe.require_pair(key)
    return tuple(p for p in model if p.contour_menu_mask(x) == mask)


def check_minimal_mutual_agreement(model: Model) -> bool:
    """True iff no preference and its exact reverse are both in the model.

    Equivalent to: every two members agree on at least one ordered pair.
    """
    if model.universe.n < 2:
        raise RumkitError("minimal mutual agreement needs at least 2 alternatives")
    return all(p.reverse() not in model for p in model)


@dataclass(frozen=True)
class Lattice:
    """The canonical contour-pair coordinates on n alternatives.

    keys lists every pair (x, menu mask) with x in the menu, ordered by |A|
    descending, then menu mask ascending, then x ascending; index maps a key
    to its coordinate. to_major and to_canonical are gathers between
    canonical order and alternative-major order, where x's 2^(n-1) pairs sit
    in one block indexed by A minus x with bit x squeezed out: each block is
    the subset lattice the superset transform runs on.
    """

    n: int
    keys: tuple[tuple[int, int], ...]
    index: dict[tuple[int, int], int]
    to_major: Callable
    to_canonical: Callable


@lru_cache(maxsize=None)
def _build_coordinates(n: int) -> Lattice:
    # a stable sort keeps masks ascending within each size
    masks = sorted(range(1, 1 << n), key=int.bit_count, reverse=True)
    keys = tuple((x, mask) for mask in masks for x in bits_of(mask))
    index = {key: i for i, key in enumerate(keys)}
    # the int objects index already holds, so the gathers add only pointers
    coords = list(index.values())
    block = 1 << (n - 1)
    major = [0] * len(keys)
    for i, (x, mask) in enumerate(keys):
        rest = mask ^ (1 << x)
        major[x * block + (rest & ((1 << x) - 1) | rest >> (x + 1) << x)] = coords[i]
    canonical = [0] * len(keys)
    for slot, i in enumerate(major):
        canonical[i] = coords[slot]
    return Lattice(n, keys, index, itemgetter(*major), itemgetter(*canonical))


def lattice(n: int) -> Lattice:
    """The coordinates on n alternatives, refused past the lattice cap before
    anything is built."""
    cap = lattice_cap()
    if n > cap:
        raise CapExceededError(
            f"n={n} exceeds the lattice cap of {cap}; set {CAP_ENV_VAR} to override"
        )
    return _build_coordinates(n)
