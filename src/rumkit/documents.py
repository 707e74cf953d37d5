"""JSON document formats for models, choice data, and distributions.

All rationals serialize as canonical strings ("1/2", "3"); floating-point
JSON numbers are rejected with a pointer at the fix. Saving is canonical
(sorted keys, two-space indent, trailing newline) so that load/save
round-trips are byte-identical.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Union

from .core import Model, Universe, contour_pair_keys, preference_from_labels
from .errors import DocumentError, LabelError, RumkitError
from .stochastic import (
    PreferenceDistribution,
    RandomChoiceRule,
    as_fraction,
    validate_rcr,
)

FORMAT_VERSION = 1
RANKING_SEPARATOR = ">"

PathLike = Union[str, Path]


class _FloatLiteral(str):
    """Marker for a float literal seen in JSON source; rejected on use."""


def _loads(text: str) -> object:
    try:
        return json.loads(text, parse_float=_FloatLiteral)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: arrays or objects nest too deeply") from None
    except ValueError:
        # int() refuses a literal past the int-to-str digit limit
        raise DocumentError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _field_fraction(value: object, where: str) -> Fraction:
    if isinstance(value, _FloatLiteral):
        raise DocumentError(
            f"{where}: floating-point numbers are not accepted; "
            f'quote the value, e.g. "{value}" or a ratio like "1/4"'
        )
    if not isinstance(value, (str, int)):
        raise DocumentError(f"{where}: expected a rational string, got {value!r}")
    try:
        return as_fraction(value)
    except RumkitError as exc:
        raise DocumentError(f"{where}: {exc}") from None


def _format_fraction(value: Fraction) -> str:
    return str(Fraction(value))


def _expect_version(doc: object, kind: str) -> dict:
    if not isinstance(doc, dict):
        raise DocumentError(f"expected a JSON object for a {kind} document")
    if doc.get("kind") != kind:
        raise DocumentError(f"kind: expected {kind!r}, got {doc.get('kind')!r}")
    version = doc.get("version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise DocumentError(
            f"version: expected {FORMAT_VERSION}, got {version!r}"
        )
    return doc


def _universe_from(doc: dict) -> Universe:
    alts = doc.get("alternatives")
    if not isinstance(alts, list) or not all(isinstance(a, str) for a in alts):
        raise DocumentError("alternatives: expected a list of label strings")
    try:
        return Universe(tuple(alts))
    except LabelError as exc:
        raise DocumentError(f"alternatives: {exc}") from None


# -- model documents ---------------------------------------------------------

def dump_model(model: Model) -> dict:
    return {
        "kind": "model",
        "version": FORMAT_VERSION,
        "alternatives": list(model.universe.labels),
        "preferences": [list(p.to_labels()) for p in model.preferences],
    }


def parse_model(doc: object) -> Model:
    doc = _expect_version(doc, "model")
    universe = _universe_from(doc)
    raw = doc.get("preferences")
    if not isinstance(raw, list) or not raw:
        raise DocumentError("preferences: expected a nonempty list of rankings")
    prefs = []
    for i, ranking in enumerate(raw):
        if not isinstance(ranking, list) or not all(isinstance(a, str) for a in ranking):
            raise DocumentError(f"preferences[{i}]: expected a list of labels")
        try:
            prefs.append(preference_from_labels(universe, ranking))
        except (LabelError, RumkitError) as exc:
            raise DocumentError(f"preferences[{i}]: {exc}") from None
    try:
        return Model.of(universe, prefs)
    except RumkitError as exc:
        raise DocumentError(f"preferences: {exc}") from None


def save_model(model: Model, path: PathLike) -> None:
    Path(path).write_text(_dumps(dump_model(model)), encoding="utf-8")


def load_model(path: PathLike) -> Model:
    return parse_model(_loads(Path(path).read_text(encoding="utf-8")))


# -- choice data documents ---------------------------------------------------

@dataclass(frozen=True)
class ChoiceData:
    """A loaded choice-data document: the rule plus optional sample counts."""

    rule: RandomChoiceRule
    counts: dict[tuple[int, int], int] | None
    trials: int | None
    seed: int | None


def dump_choice_data(
    rule: RandomChoiceRule,
    counts: dict[tuple[int, int], int] | None = None,
    trials: int | None = None,
    seed: int | None = None,
) -> dict:
    universe = rule.universe
    entries = []
    for mask in range(1, universe.full_mask + 1):
        menu = universe.menu(mask)
        probabilities = {
            universe.labels[x]: _format_fraction(rule.value(x, mask))
            for x in menu.members
        }
        entry: dict[str, object] = {
            "menu": list(menu.labels()),
            "probabilities": probabilities,
        }
        if counts is not None:
            entry["counts"] = {
                universe.labels[x]: counts.get((x, mask), 0) for x in menu.members
            }
        entries.append(entry)
    doc: dict[str, object] = {
        "kind": "choice-data",
        "version": FORMAT_VERSION,
        "alternatives": list(universe.labels),
        "entries": entries,
    }
    if trials is not None:
        doc["trials"] = trials
    if seed is not None:
        doc["seed"] = seed
    return doc


def parse_choice_data(doc: object) -> ChoiceData:
    """Parse a choice-data document; the full menu lattice is required.

    Partial data is rejected rather than imputed, because every downstream
    transform needs all supersets of a menu. Sample counts, when present, must
    name only menu members, sum to trials on each menu and give each
    probability as count / trials.
    """
    doc = _expect_version(doc, "choice-data")
    universe = _universe_from(doc)
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list):
        raise DocumentError("entries: expected a list")
    trials = doc.get("trials")
    if trials is not None and (isinstance(trials, bool) or not isinstance(trials, int) or trials < 1):
        raise DocumentError(f"trials: expected a positive integer, got {trials!r}")
    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise DocumentError(f"seed: expected an integer, got {seed!r}")

    values: dict[tuple[int, int], Fraction] = {}
    counts: dict[tuple[int, int], int] = {}
    saw_counts = False
    seen_masks = set()
    for i, entry in enumerate(raw_entries):
        where = f"entries[{i}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{where}: expected an object")
        menu_labels = entry.get("menu")
        if not isinstance(menu_labels, list):
            raise DocumentError(f"{where}.menu: expected a list of labels")
        try:
            menu = universe.menu_of_labels(menu_labels)
        except LabelError as exc:
            raise DocumentError(f"{where}.menu: {exc}") from None
        if menu.mask == 0:
            raise DocumentError(f"{where}.menu: menus must be nonempty")
        if menu.mask in seen_masks:
            raise DocumentError(f"{where}.menu: menu {menu} appears twice")
        seen_masks.add(menu.mask)
        probs = entry.get("probabilities")
        if not isinstance(probs, dict):
            raise DocumentError(f"{where}.probabilities: expected an object")
        for label in probs:
            if label not in menu_labels:
                raise DocumentError(
                    f"{where}.probabilities.{label}: {label!r} is not in the menu"
                )
        for x in menu.members:
            label = universe.labels[x]
            if label not in probs:
                raise DocumentError(
                    f"{where}.probabilities: missing probability for {label!r}"
                )
            values[(x, menu.mask)] = _field_fraction(
                probs[label], f"{where}.probabilities.{label}"
            )
        raw_counts = entry.get("counts")
        if raw_counts is not None:
            saw_counts = True
            if not isinstance(raw_counts, dict):
                raise DocumentError(f"{where}.counts: expected an object")
            if trials is None:
                raise DocumentError(f"{where}.counts: counts require a top-level trials")
            for label, c in raw_counts.items():
                if label not in menu_labels:
                    raise DocumentError(
                        f"{where}.counts.{label}: {label!r} is not in the menu"
                    )
                if isinstance(c, bool) or not isinstance(c, int) or c < 0:
                    raise DocumentError(
                        f"{where}.counts.{label}: expected a nonnegative integer"
                    )
                counts[(universe.index(label), menu.mask)] = c
            total = sum(raw_counts.values())
            if total != trials:
                raise DocumentError(
                    f"{where}.counts: counts sum to {total}, not trials = {trials}"
                )
            for x in menu.members:
                label = universe.labels[x]
                c = raw_counts.get(label, 0)
                if Fraction(c, trials) != values[(x, menu.mask)]:
                    raise DocumentError(
                        f"{where}.counts.{label}: {c}/{trials} is not the "
                        f"probability {values[(x, menu.mask)]}"
                    )

    missing = [key for key in contour_pair_keys(universe.n) if key not in values]
    if missing:
        x, mask = missing[0]
        raise DocumentError(
            f"entries: data must cover the full menu lattice; "
            f"{len(missing)} pairs missing, first "
            f"({universe.labels[x]}, {universe.describe_mask(mask)})"
        )
    rule = RandomChoiceRule(universe, values)
    check = validate_rcr(rule)
    if not check:
        if check.negative:
            x, mask = check.negative[0]
            raise DocumentError(
                f"entries: negative probability at "
                f"({universe.labels[x]}, {universe.describe_mask(mask)})"
            )
        mask, total = check.bad_menus[0]
        raise DocumentError(
            f"entries: probabilities on menu {universe.describe_mask(mask)} "
            f"sum to {total}, not 1"
        )
    return ChoiceData(rule, counts if saw_counts else None, trials, seed)


def save_choice_data(
    rule: RandomChoiceRule,
    path: PathLike,
    counts: dict[tuple[int, int], int] | None = None,
    trials: int | None = None,
    seed: int | None = None,
) -> None:
    Path(path).write_text(
        _dumps(dump_choice_data(rule, counts, trials, seed)), encoding="utf-8"
    )


def load_choice_data(path: PathLike) -> ChoiceData:
    return parse_choice_data(_loads(Path(path).read_text(encoding="utf-8")))


# -- distribution documents --------------------------------------------------

def _ranking_key(labels: tuple[str, ...]) -> str:
    for lab in labels:
        if RANKING_SEPARATOR in lab:
            raise DocumentError(
                f"label {lab!r} contains {RANKING_SEPARATOR!r} and cannot be "
                f"serialized in a distribution document"
            )
    return RANKING_SEPARATOR.join(labels)


def dump_distribution(dist: PreferenceDistribution) -> dict:
    return {
        "kind": "distribution",
        "version": FORMAT_VERSION,
        "alternatives": list(dist.universe.labels),
        "masses": {
            _ranking_key(pref.to_labels()): _format_fraction(mass)
            for pref, mass in dist.entries
        },
    }


def parse_distribution(doc: object, model: Model | None = None) -> PreferenceDistribution:
    doc = _expect_version(doc, "distribution")
    universe = _universe_from(doc)
    if model is not None and model.universe != universe:
        raise DocumentError(
            "alternatives: distribution universe does not match the model's"
        )
    raw = doc.get("masses")
    if not isinstance(raw, dict) or not raw:
        raise DocumentError("masses: expected a nonempty object")
    mass = {}
    for key, value in raw.items():
        labels = key.split(RANKING_SEPARATOR)
        try:
            pref = preference_from_labels(universe, labels)
        except (LabelError, RumkitError) as exc:
            raise DocumentError(f"masses.{key}: {exc}") from None
        if pref in mass:
            raise DocumentError(f"masses.{key}: duplicate ranking")
        mass[pref] = _field_fraction(value, f"masses.{key}")
    if model is None:
        model = Model.of(universe, mass.keys())
    try:
        return PreferenceDistribution(model, mass)
    except RumkitError as exc:
        raise DocumentError(f"masses: {exc}") from None


def save_distribution(dist: PreferenceDistribution, path: PathLike) -> None:
    Path(path).write_text(_dumps(dump_distribution(dist)), encoding="utf-8")


def load_distribution(
    path: PathLike, model: Model | None = None
) -> PreferenceDistribution:
    return parse_distribution(
        _loads(Path(path).read_text(encoding="utf-8")), model
    )
