from __future__ import annotations

import json
from fractions import Fraction

import pytest

from rumkit import (
    DocumentError,
    Model,
    Preference,
    PreferenceDistribution,
    Universe,
    all_preferences,
    fishburn_distributions,
    latin_square,
    preference_from_labels,
    rcr_from_distribution,
    sample_empirical_rule,
)
from rumkit.documents import (
    dump_choice_data,
    dump_distribution,
    dump_model,
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
        assert data.counts is None and data.trials is None
        save_choice_data(data.rule, path)
        assert path.read_bytes() == first

    def test_counts_roundtrip(self, tmp_path):
        nu1, _ = fishburn_distributions()
        sample = sample_empirical_rule(nu1, trials=25, seed=3)
        path = tmp_path / "p.json"
        save_choice_data(sample.rule, path, sample.counts, sample.trials, sample.seed)
        data = load_choice_data(path)
        assert data.rule == sample.rule
        assert data.trials == 25 and data.seed == 3
        nonzero = {k: v for k, v in sample.counts.items() if v}
        loaded_nonzero = {k: v for k, v in (data.counts or {}).items() if v}
        assert loaded_nonzero == nonzero

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
        return dump_choice_data(sample.rule, sample.counts, sample.trials, sample.seed)

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
