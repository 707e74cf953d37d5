"""JSON document formats for models, choice data, and distributions.

All rationals serialize as canonical strings ("1/2", "3"); floating-point
JSON numbers are rejected with a pointer at the fix. Saving is canonical
(sorted keys, two-space indent, trailing newline) so that load/save
round-trips are byte-identical.

dumps is the one JSON writer: every save_* and the CLI's --json output go
through it. Its text is byte for byte what json.dumps(value, sort_keys=True,
indent=2, ensure_ascii=False) returns, which CPython serves only from its
pure-Python encoder. dumps builds each line with the C encode_basestring and
one str.join per container. It hands every other subtree to json.dumps, so
those bytes and errors stay json's too: a dict with a key that is not a str,
and a value whose type is not exactly str, int, bool, None, list, tuple or
dict (a float, an IntEnum, a str subclass outside a list of strings).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring as _encode
from pathlib import Path
from typing import Union

from .core import (
    RANKING_SEPARATOR,
    Model,
    Preference,
    Universe,
    bits_of,
    lattice,
    preference_from_labels,
)
from .errors import DocumentError, LabelError, RumkitError, shown
from .stochastic import (
    ChoiceData,
    PreferenceDistribution,
    RandomChoiceRule,
    as_fraction,
    check_sample_fields,
    validate_rcr,
)

FORMAT_VERSION = 1

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


_INDENT = "  "


def dumps(value: object) -> str:
    """value as canonical JSON text: sorted keys, two-space indent, no escape
    of non-ASCII text, and no trailing newline."""
    return _dumps_at(value, "\n")


def _dumps_at(value: object, newline: str) -> str:
    # newline is "\n" and the indent of value's own level: every line of the
    # text after its first starts with it
    kind = type(value)
    if kind is str:
        return _encode(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + _INDENT
        try:
            body = ("," + inner).join(map(_encode, value))
        except TypeError:  # an item that is not a str
            body = ("," + inner).join([
                _encode(item) if type(item) is str else _dumps_at(item, inner)
                for item in value
            ])
        return "[" + inner + body + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + _INDENT
        lines = []
        try:
            for key in sorted(value):
                item = value[key]
                lines.append(
                    _encode(key) + ": "
                    + (_encode(item) if type(item) is str else _dumps_at(item, inner))
                )
        except TypeError:
            # a key that is not a str, or a value below that json.dumps
            # refuses: it writes the dict, or raises that value's error
            return _dumps_by_json(value, newline)
        return "{" + inner + ("," + inner).join(lines) + newline + "}"
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return _dumps_by_json(value, newline)


def _dumps_by_json(value: object, newline: str) -> str:
    # json.dumps indents value's text from level 0; JSON strings hold no raw
    # newline, so each newline in it starts a line, moved to value's level
    text = json.dumps(value, sort_keys=True, indent=_INDENT, ensure_ascii=False)
    return text.replace("\n", newline)


def _dumps(doc: dict) -> str:
    return dumps(doc) + "\n"


def _field_fraction(value: object, where: str) -> Fraction:
    if isinstance(value, _FloatLiteral):
        raise DocumentError(
            f"{where}: floating-point numbers are not accepted; "
            f'quote the value, e.g. "{value}" or a ratio like "1/4"'
        )
    if not isinstance(value, (str, int)):
        raise DocumentError(f"{where}: expected a rational string, got {shown(value)}")
    try:
        return as_fraction(value)
    except RumkitError as exc:
        raise DocumentError(f"{where}: {exc}") from None


def _expect_version(doc: object, kind: str) -> dict:
    if not isinstance(doc, dict):
        raise DocumentError(f"expected a JSON object for a {kind} document")
    if doc.get("kind") != kind:
        raise DocumentError(f"kind: expected {kind!r}, got {shown(doc.get('kind'))}")
    version = doc.get("version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise DocumentError(
            f"version: expected {FORMAT_VERSION}, got {shown(version)}"
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
        if not isinstance(ranking, list):
            raise DocumentError(f"preferences[{i}]: expected a list of labels")
        try:
            prefs.append(preference_from_labels(universe, ranking))
        except RumkitError as exc:
            # a label that is not a str is named before any other fault
            if not all(isinstance(a, str) for a in ranking):
                raise DocumentError(f"preferences[{i}]: expected a list of labels") from None
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

def dump_choice_data(
    rule: RandomChoiceRule,
    trials: int | None = None,
    seed: int | None = None,
) -> dict:
    """The document for a rule, with its sample counts when trials is given.

    A count is the probability times trials, so trials must be a positive
    multiple of the rule's denominator.
    """
    check_sample_fields(trials, seed)
    if trials is not None and trials % rule.denominator:
        raise RumkitError(
            f"trials = {trials} is not a positive multiple of the rule's "
            f"denominator {rule.denominator}"
        )
    universe = rule.universe
    index = lattice(universe.n).index
    entries = []
    for mask in range(1, universe.full_mask + 1):
        members = [
            (universe.labels[x], rule.numerators[index[(x, mask)]]) for x in bits_of(mask)
        ]
        entry: dict[str, object] = {
            "menu": list(universe.labels_of(mask)),
            "probabilities": {
                label: str(Fraction(v, rule.denominator)) for label, v in members
            },
        }
        if trials is not None:
            per_unit = trials // rule.denominator
            entry["counts"] = {label: v * per_unit for label, v in members}
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
    probability as count / trials; they are checked, not kept, since the rule
    and trials determine them.
    """
    doc = _expect_version(doc, "choice-data")
    universe = _universe_from(doc)
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list):
        raise DocumentError("entries: expected a list")
    trials = doc.get("trials")
    seed = doc.get("seed")
    check_sample_fields(trials, seed, DocumentError)

    values: dict[tuple[int, int], Fraction] = {}
    seen_masks = set()
    for i, entry in enumerate(raw_entries):
        where = f"entries[{i}]"
        if not isinstance(entry, dict):
            raise DocumentError(f"{where}: expected an object")
        menu_labels = entry.get("menu")
        if not isinstance(menu_labels, list):
            raise DocumentError(f"{where}.menu: expected a list of labels")
        try:
            mask = universe.menu_of_labels(menu_labels)
        except LabelError as exc:
            raise DocumentError(f"{where}.menu: {exc}") from None
        if mask == 0:
            raise DocumentError(f"{where}.menu: menus must be nonempty")
        if mask in seen_masks:
            raise DocumentError(
                f"{where}.menu: menu {universe.describe_mask(mask)} appears twice"
            )
        seen_masks.add(mask)
        probs = entry.get("probabilities")
        if not isinstance(probs, dict):
            raise DocumentError(f"{where}.probabilities: expected an object")
        for label in probs:
            if label not in menu_labels:
                raise DocumentError(
                    f"{where}.probabilities.{label}: {shown(label)} is not in the menu"
                )
        for x in bits_of(mask):
            label = universe.labels[x]
            if label not in probs:
                raise DocumentError(
                    f"{where}.probabilities: missing probability for {shown(label)}"
                )
            values[(x, mask)] = _field_fraction(
                probs[label], f"{where}.probabilities.{label}"
            )
        raw_counts = entry.get("counts")
        if raw_counts is not None:
            if not isinstance(raw_counts, dict):
                raise DocumentError(f"{where}.counts: expected an object")
            if trials is None:
                raise DocumentError(f"{where}.counts: counts require a top-level trials")
            for label, c in raw_counts.items():
                if label not in menu_labels:
                    raise DocumentError(
                        f"{where}.counts.{label}: {shown(label)} is not in the menu"
                    )
                if isinstance(c, bool) or not isinstance(c, int) or c < 0:
                    raise DocumentError(
                        f"{where}.counts.{label}: expected a nonnegative integer"
                    )
            total = sum(raw_counts.values())
            if total != trials:
                raise DocumentError(
                    f"{where}.counts: counts sum to {total}, not trials = {trials}"
                )
            for x in bits_of(mask):
                label = universe.labels[x]
                c = raw_counts.get(label, 0)
                if Fraction(c, trials) != values[(x, mask)]:
                    raise DocumentError(
                        f"{where}.counts.{label}: {c}/{trials} is not the "
                        f"probability {values[(x, mask)]}"
                    )

    missing = [key for key in lattice(universe.n).keys if key not in values]
    if missing:
        raise DocumentError(
            f"entries: data must cover the full menu lattice; "
            f"{len(missing)} pairs missing, first {universe.describe_pair(*missing[0])}"
        )
    rule = RandomChoiceRule(universe, values)
    check = validate_rcr(rule)
    if not check:
        if check.negative:
            raise DocumentError(
                f"entries: negative probability at "
                f"{universe.describe_pair(*check.negative[0])}"
            )
        mask, total = check.bad_menus[0]
        raise DocumentError(
            f"entries: probabilities on menu {universe.describe_mask(mask)} "
            f"sum to {total}, not 1"
        )
    return ChoiceData(rule, trials, seed)


def save_choice_data(
    rule: RandomChoiceRule,
    path: PathLike,
    trials: int | None = None,
    seed: int | None = None,
) -> None:
    Path(path).write_text(
        _dumps(dump_choice_data(rule, trials, seed)), encoding="utf-8"
    )


def load_choice_data(path: PathLike) -> ChoiceData:
    return parse_choice_data(_loads(Path(path).read_text(encoding="utf-8")))


# -- distribution documents --------------------------------------------------

def ranking_text(pref: Preference) -> str:
    """The preference's labels best first, joined by the ranking separator,
    which no label contains."""
    return RANKING_SEPARATOR.join(map(pref.universe.labels.__getitem__, pref.ranking))


def dump_distribution(dist: PreferenceDistribution) -> dict:
    return {
        "kind": "distribution",
        "version": FORMAT_VERSION,
        "alternatives": list(dist.universe.labels),
        "masses": {ranking_text(pref): str(mass) for pref, mass in dist.entries},
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
