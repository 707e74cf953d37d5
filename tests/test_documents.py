from __future__ import annotations

import enum
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import document_counts
from rumkit import (
    DocumentError,
    Model,
    Preference,
    PreferenceDistribution,
    RumkitError,
    Universe,
    all_preferences,
    fishburn_distributions,
    latin_square,
    preference_from_labels,
    rcr_from_distribution,
    sample_empirical_rule,
)
from rumkit.documents import (
    _FloatLiteral,
    dump_choice_data,
    dump_distribution,
    dump_model,
    dumps,
    load_choice_data,
    load_distribution,
    load_model,
    parse_choice_data,
    parse_distribution,
    parse_model,
    save_choice_data,
    save_distribution,
    save_model,
)


# (trials, seed, the loader's message) for sample fields no document may hold
BAD_SAMPLE_FIELDS = [
    pytest.param(2.0, None, "trials: expected a positive integer, got 2.0", id="trials-float"),
    pytest.param(True, None, "trials: expected a positive integer, got True", id="trials-bool"),
    pytest.param(0, None, "trials: expected a positive integer, got 0", id="trials-zero"),
    pytest.param(8, "abc", "seed: expected an integer, got 'abc'", id="seed-str"),
    pytest.param(8, True, "seed: expected an integer, got True", id="seed-bool"),
    pytest.param(8, 1.5, "seed: expected an integer, got 1.5", id="seed-float"),
]


@pytest.fixture
def l3_model():
    u = Universe.of_size(3)
    return Model.of(u, all_preferences(u))


class TestModelDocuments:
    def test_roundtrip_is_byte_identical(self, tmp_path, l3_model):
        path = tmp_path / "m.json"
        save_model(l3_model, path)
        first = path.read_bytes()
        save_model(load_model(path), path)
        assert path.read_bytes() == first

    def test_loads_all_six_orders(self, tmp_path, l3_model):
        path = tmp_path / "m.json"
        save_model(l3_model, path)
        assert len(load_model(path)) == 6

    def test_repeated_label_rejected_with_position(self):
        doc = {
            "kind": "model",
            "version": 1,
            "alternatives": ["a", "b"],
            "preferences": [["a", "a"]],
        }
        with pytest.raises(DocumentError, match=r"preferences\[0\].*'a'"):
            parse_model(doc)

    def test_non_permutation_rejected(self):
        doc = {
            "kind": "model",
            "version": 1,
            "alternatives": ["a", "b", "c"],
            "preferences": [["a", "b"]],
        }
        with pytest.raises(DocumentError, match=r"preferences\[0\]"):
            parse_model(doc)

    def test_wrong_kind_rejected(self):
        with pytest.raises(DocumentError, match="kind"):
            parse_model({"kind": "distribution", "version": 1})

    def test_non_string_label_rejected(self):
        doc = {
            "kind": "model",
            "version": 1,
            "alternatives": ["a", "b"],
            "preferences": [[["a"], "b"]],
        }
        with pytest.raises(DocumentError, match=r"preferences\[0\]: expected a list of labels"):
            parse_model(doc)

    @pytest.mark.parametrize("rankings, message", [
        ([["a", "b", "c"], ["a", "b", "z"]], "preferences[1]: unknown label 'z'"),
        ([["a", "a", "b"]], "preferences[0]: duplicate label 'a' in ranking"),
        ([["z", "a", "a"]], "preferences[0]: unknown label 'z'"),
        ([["a", "a", "z"]], "preferences[0]: duplicate label 'a' in ranking"),
        ([["a", "b"]], "preferences[0]: ranking has 2 labels but the universe has 3"),
        ([["a", "b", 3]], "preferences[0]: expected a list of labels"),
    ])
    def test_label_error_text(self, rankings, message):
        doc = {"kind": "model", "version": 1, "alternatives": ["a", "b", "c"],
               "preferences": rankings}
        with pytest.raises(DocumentError) as info:
            parse_model(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("version", [True, "1", 2])
    def test_version_must_be_the_integer_one(self, version):
        doc = {"kind": "model", "version": version, "alternatives": ["a"], "preferences": [["a"]]}
        with pytest.raises(DocumentError, match=f"version: expected 1, got {version!r}"):
            parse_model(doc)

    def test_over_long_integer_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "model", "version": ' + "1" * 5000 + "}", encoding="utf-8")
        with pytest.raises(DocumentError, match="integer has more than 4300 digits"):
            load_model(path)


class TestDistributionDocuments:
    def test_exact_decimal_becomes_quarter(self, l3_model):
        u = l3_model.universe
        doc = {
            "kind": "distribution",
            "version": 1,
            "alternatives": list(u.labels),
            "masses": {"a>b>c": "0.25", "b>a>c": "0.75"},
        }
        dist = parse_distribution(doc)
        assert dist.mass_of(preference_from_labels(u, "abc")) == Fraction(1, 4)

    def test_roundtrip(self, tmp_path):
        nu1, _ = fishburn_distributions()
        path = tmp_path / "d.json"
        save_distribution(nu1, path)
        first = path.read_bytes()
        loaded = load_distribution(path, model=nu1.model)
        assert loaded == nu1
        save_distribution(loaded, path)
        assert path.read_bytes() == first

    def test_float_rejected(self):
        doc = {
            "kind": "distribution",
            "version": 1,
            "alternatives": ["a", "b"],
            "masses": {"a>b": 0.5, "b>a": 0.5},
        }
        doc_text = json.dumps(doc)
        from rumkit.documents import _loads

        with pytest.raises(DocumentError, match="floating-point"):
            parse_distribution(_loads(doc_text))

    @pytest.mark.parametrize("key, message", [
        ("a>b>z", "masses.a>b>z: unknown label 'z'"),
        ("a>a>b", "masses.a>a>b: duplicate label 'a' in ranking"),
        ("z>a>a", "masses.z>a>a: unknown label 'z'"),
        ("a>a>z", "masses.a>a>z: duplicate label 'a' in ranking"),
        ("a>b", "masses.a>b: ranking has 2 labels but the universe has 3"),
    ])
    def test_label_error_text(self, key, message):
        doc = {"kind": "distribution", "version": 1, "alternatives": ["a", "b", "c"],
               "masses": {"c>b>a": "1/2", key: "1/2"}}
        with pytest.raises(DocumentError) as info:
            parse_distribution(doc)
        assert str(info.value) == message

    def test_masses_must_sum_to_one(self):
        doc = {
            "kind": "distribution",
            "version": 1,
            "alternatives": ["a", "b"],
            "masses": {"a>b": "1/3"},
        }
        with pytest.raises(DocumentError, match="sum"):
            parse_distribution(doc)

    def test_support_must_lie_in_model(self, l3_model):
        u = l3_model.universe
        sub = Model.of(u, [preference_from_labels(u, "abc")])
        doc = dump_distribution(
            PreferenceDistribution(
                l3_model, {preference_from_labels(u, "cba"): Fraction(1)}
            )
        )
        with pytest.raises(DocumentError, match="not in the model"):
            parse_distribution(doc, model=sub)


class TestChoiceDataDocuments:
    def test_roundtrip(self, tmp_path):
        nu1, _ = fishburn_distributions()
        rule = rcr_from_distribution(nu1)
        path = tmp_path / "p.json"
        save_choice_data(rule, path)
        first = path.read_bytes()
        data = load_choice_data(path)
        assert data.rule == rule
        assert data.trials is None and data.seed is None
        assert all("counts" not in entry for entry in json.loads(first)["entries"])
        save_choice_data(data.rule, path)
        assert path.read_bytes() == first

    def test_counts_roundtrip(self, tmp_path):
        nu1, _ = fishburn_distributions()
        sample = sample_empirical_rule(nu1, trials=25, seed=3)
        path = tmp_path / "p.json"
        save_choice_data(sample.rule, path, sample.trials, sample.seed)
        data = load_choice_data(path)
        assert data == sample
        assert data.trials == 25 and data.seed == 3
        assert document_counts(data) == document_counts(sample)

    def test_sampled_roundtrip_is_byte_identical(self, tmp_path):
        nu1, _ = fishburn_distributions()
        sample = sample_empirical_rule(nu1, trials=30, seed=4)
        path = tmp_path / "p.json"
        save_choice_data(sample.rule, path, sample.trials, sample.seed)
        first = path.read_bytes()
        data = load_choice_data(path)
        save_choice_data(data.rule, path, data.trials, data.seed)
        assert path.read_bytes() == first

    def test_counts_are_probability_times_trials(self):
        u = Universe.of_size(2)
        m = latin_square(Preference(u, (0, 1)))
        rule = rcr_from_distribution(
            PreferenceDistribution(m, dict(zip(m.preferences, ("1/3", "2/3"))))
        )
        assert rule.denominator == 3
        with pytest.raises(RumkitError, match="trials = 5 is not a positive multiple"):
            dump_choice_data(rule, trials=5)
        doc = dump_choice_data(rule, trials=6)
        pair = next(e for e in doc["entries"] if len(e["menu"]) == 2)
        assert sorted(pair["counts"].values()) == [2, 4]
        assert parse_choice_data(doc).trials == 6

    @pytest.mark.parametrize("trials, seed, message", BAD_SAMPLE_FIELDS)
    def test_bad_sample_fields_are_not_written(self, tmp_path, trials, seed, message):
        nu1, _ = fishburn_distributions()
        rule = rcr_from_distribution(nu1)
        path = tmp_path / "p.json"
        with pytest.raises(RumkitError, match=re.escape(message)):
            save_choice_data(rule, path, trials, seed)
        assert not path.exists()

    @pytest.mark.parametrize("trials, seed, message", BAD_SAMPLE_FIELDS)
    def test_bad_sample_fields_are_not_loaded(self, trials, seed, message):
        nu1, _ = fishburn_distributions()
        doc = dump_choice_data(rcr_from_distribution(nu1), 8, 0)
        doc["trials"], doc["seed"] = trials, seed
        with pytest.raises(DocumentError, match=re.escape(message)):
            parse_choice_data(doc)

    def test_missing_menu_rejected(self):
        nu1, _ = fishburn_distributions()
        doc = dump_choice_data(rcr_from_distribution(nu1))
        doc["entries"] = doc["entries"][1:]
        with pytest.raises(DocumentError, match="full menu lattice"):
            parse_choice_data(doc)

    def test_duplicate_menu_rejected(self):
        nu1, _ = fishburn_distributions()
        doc = dump_choice_data(rcr_from_distribution(nu1))
        doc["entries"].append(doc["entries"][0])
        with pytest.raises(DocumentError, match="twice"):
            parse_choice_data(doc)

    def test_bad_menu_sum_rejected(self):
        u = Universe.of_size(2)
        m = latin_square(Preference(u, (0, 1)))
        rule = rcr_from_distribution(
            PreferenceDistribution(m, {m.preferences[0]: Fraction(1)})
        )
        doc = dump_choice_data(rule)
        for entry in doc["entries"]:
            if len(entry["menu"]) == 2:
                entry["probabilities"] = {"a": "3/4", "b": "3/4"}
        with pytest.raises(DocumentError, match="sum"):
            parse_choice_data(doc)

    @staticmethod
    def sampled_doc() -> dict:
        nu1, _ = fishburn_distributions()
        sample = sample_empirical_rule(nu1, trials=8, seed=5)
        return dump_choice_data(sample.rule, sample.trials, sample.seed)

    def test_count_label_outside_menu_rejected(self):
        doc = self.sampled_doc()
        entry = next(e for e in doc["entries"] if e["menu"] == ["a"])
        entry["counts"]["b"] = 0
        with pytest.raises(DocumentError, match=r"entries\[\d+\]\.counts\.b: 'b' is not in the menu"):
            parse_choice_data(doc)

    def test_counts_require_trials(self):
        doc = self.sampled_doc()
        del doc["trials"]
        with pytest.raises(DocumentError, match=r"counts: counts require a top-level trials"):
            parse_choice_data(doc)

    def test_counts_must_sum_to_trials(self):
        doc = self.sampled_doc()
        doc["trials"] = 999
        with pytest.raises(DocumentError, match=r"counts: counts sum to 8, not trials = 999"):
            parse_choice_data(doc)

    def test_count_over_trials_must_equal_probability(self):
        doc = self.sampled_doc()
        entry = next(e for e in doc["entries"] if len(e["menu"]) == 2)
        x, y = entry["menu"]
        entry["probabilities"][x], entry["probabilities"][y] = (
            entry["probabilities"][y], entry["probabilities"][x]
        )
        if entry["counts"][x] == entry["counts"][y]:
            entry["counts"] = {x: 8, y: 0}
        with pytest.raises(DocumentError, match=r"counts\.\w: \d+/8 is not the probability"):
            parse_choice_data(doc)

    def test_float_probability_rejected(self):
        nu1, _ = fishburn_distributions()
        doc = dump_choice_data(rcr_from_distribution(nu1))
        text = json.dumps(doc).replace('"1/2"', "0.5", 1)
        from rumkit.documents import _loads

        with pytest.raises(DocumentError, match="floating-point"):
            parse_choice_data(_loads(text))

    def test_exponent_probability_rejected_with_field(self):
        nu1, _ = fishburn_distributions()
        doc = dump_choice_data(rcr_from_distribution(nu1))
        text = json.dumps(doc).replace('"1/2"', '"1e100000000"', 1)
        from rumkit.documents import _loads

        with pytest.raises(DocumentError, match=r"probabilities\.\w+: exponent notation '1e100000000'"):
            parse_choice_data(_loads(text))

    def test_exact_decimal_accepted(self):
        nu1, _ = fishburn_distributions()
        doc = dump_choice_data(rcr_from_distribution(nu1))
        text = json.dumps(doc).replace('"1/2"', '"0.5"')
        from rumkit.documents import _loads

        data = parse_choice_data(_loads(text))
        assert data.rule == rcr_from_distribution(nu1)


class TestCanonicalization:
    def test_model_canonical_order_is_insertion_independent(self, tmp_path):
        u = Universe.of_size(3)
        a = preference_from_labels(u, "abc")
        b = preference_from_labels(u, "cba")
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        save_model(Model.of(u, [a, b]), p1)
        save_model(Model.of(u, [b, a]), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_dump_model_shape(self, l3_model):
        doc = dump_model(l3_model)
        assert doc["kind"] == "model" and doc["version"] == 1
        assert doc["alternatives"] == ["a", "b", "c"]
        assert len(doc["preferences"]) == 6


def _json_dumps(value: object) -> str:
    """The oracle: what dumps must return, byte for byte."""
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)


def _outcome(write, value: object) -> object:
    try:
        return write(value)
    except Exception as exc:  # the error type must match too
        return type(exc)


# text with control characters, quotes, backslashes, line and paragraph
# separators and non-ASCII, mixed with any other character
_TEXT = st.text(st.sampled_from('\x00\x1f\x7f"\\/\n\t\u2028\u2029aé€😀') | st.characters())
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25,
)


class _Small(enum.IntEnum):
    ONE = 1


class TestWriter:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_VALUES)
    def test_matches_json_dumps(self, value):
        assert dumps(value) == _json_dumps(value)

    @pytest.mark.parametrize("value", [
        pytest.param([], id="empty-list"),
        pytest.param({}, id="empty-dict"),
        pytest.param({"a": [], "b": {}, "c": [[]]}, id="nested-empty"),
        pytest.param(("a", 1, ("b", ["c"]), ()), id="tuple"),
        pytest.param({"menu": ("a", "b")}, id="tuple-of-str"),
        pytest.param([_FloatLiteral("0.5"), {_FloatLiteral("1e3"): _FloatLiteral("2")}],
                     id="float-literal"),
        pytest.param([True, 1, False, 0, None], id="bool-beside-int"),
        pytest.param({"t": True, "one": 1}, id="bool-beside-int-in-dict"),
        pytest.param(-(10**300), id="big-negative-int"),
        pytest.param([_Small.ONE, {"k": _Small.ONE}], id="int-subclass"),
        pytest.param([1.5, {"x": -2.0, "y": [float("nan"), float("inf")]}], id="float"),
        pytest.param({"k": [{2: ["a", {"b": 1}], 1: None}]}, id="dict-with-int-key"),
        pytest.param({"k": {1: "a", "b": "c"}}, id="dict-with-mixed-keys"),
        pytest.param({"k": [object()]}, id="unserializable-object"),
        pytest.param({"q": Fraction(1, 2)}, id="fraction"),
        pytest.param([10**5000], id="int-past-the-digit-limit"),
    ])
    def test_explicit_cases_match_json_dumps(self, value):
        assert _outcome(dumps, value) == _outcome(_json_dumps, value)

    def test_saved_documents_end_with_one_newline(self, tmp_path, l3_model):
        path = tmp_path / "m.json"
        save_model(l3_model, path)
        assert path.read_text(encoding="utf-8") == dumps(dump_model(l3_model)) + "\n"
