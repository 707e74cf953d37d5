from __future__ import annotations

import random
import re
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    max_basis,
    alternating_sum_mobius,
    best_element_rule,
    document_counts,
    random_distribution,
    random_mobius_values,
    random_model,
    random_rule,
    rule_vector,
    verify_contour_mass_identity,
)
from rumkit import (
    CapExceededError,
    Model,
    MobiusInverse,
    Preference,
    PreferenceDistribution,
    RandomChoiceRule,
    RumkitError,
    Universe,
    all_preferences,
    as_fraction,
    check_stochastic_rationality_necessary,
    double_cover_model,
    fishburn_distributions,
    flow_conservation_check,
    lattice,
    mobius_forward,
    mobius_inverse,
    point_mass,
    preference_from_labels,
    rcr_from_distribution,
    sample_empirical_rule,
    validate_rcr,
)
from rumkit.core import CAP_ENV_VAR
from rumkit.stochastic import MAX_DRAWS, _from_shares

U2 = Universe(("x", "y"))
U3 = Universe(("x", "y", "z"))


def key(universe: Universe, x_label: str, menu_labels: str) -> tuple[int, int]:
    return (universe.index(x_label), universe.menu_of_labels(menu_labels))


def mass_of_class(dist: PreferenceDistribution, x: int, mask: int) -> Fraction:
    """Independent oracle: summed mass of the pair's contour class members."""
    total = Fraction(0)
    for pref, m in dist.entries:
        if pref.contour_menu_mask(x) == mask:
            total += m
    return total


class TestAsFraction:
    def test_exact_decimal(self):
        assert as_fraction("0.25") == Fraction(1, 4)

    def test_ratio_string(self):
        assert as_fraction("2/3") == Fraction(2, 3)

    def test_float_rejected(self):
        with pytest.raises(RumkitError, match="float"):
            as_fraction(0.25)

    def test_garbage_rejected(self):
        with pytest.raises(RumkitError):
            as_fraction("one half")

    @pytest.mark.parametrize("text", ["1e100000000", "1E-99999999", "2.5e+3", "1.e5", " 3e1 "])
    def test_exponent_rejected(self, text):
        with pytest.raises(RumkitError, match=re.escape(f"exponent notation {text!r}")):
            as_fraction(text)

    @pytest.mark.parametrize("text", ["9" * 5000, "0." + "9" * 5000, "1/" + "9" * 5000])
    def test_over_long_integer_rejected_without_echo(self, text):
        with pytest.raises(RumkitError) as info:
            as_fraction(text)
        assert str(info.value) == "cannot parse rational: an integer has more than 4300 digits"

    def test_fraction_returned_as_is(self):
        value = Fraction(2, 3)
        assert as_fraction(value) is value

    # a plain rational ("3", "3/4" in ASCII digits) takes a fast path through
    # int(); every other string must read as it did through the regex checks
    # and Fraction(text)
    @pytest.mark.parametrize("text, expected", [
        ("1/2", Fraction(1, 2)),
        ("0", Fraction(0)),
        ("007/010", Fraction(7, 10)),
        ("3/0", "cannot parse rational '3/0'"),
        ("-1/2", Fraction(-1, 2)),
        (" 1/2", Fraction(1, 2)),
        ("1_000/3", Fraction(1000, 3)),
        ("\u0663/4", Fraction(3, 4)),
        ("\u00b2/3", "cannot parse rational '\u00b2/3'"),
        ("0.25", Fraction(1, 4)),
        ("1e3", "exponent notation '1e3' rejected: write the value as a decimal "
                "or a ratio like '1/1000'"),
        ("1/", "cannot parse rational '1/'"),
        ("/2", "cannot parse rational '/2'"),
        ("1/2/3", "cannot parse rational '1/2/3'"),
        ("9" * 4300, Fraction(int("9" * 4300))),
        ("9" * 4301, "cannot parse rational: an integer has more than 4300 digits"),
        ("1/" + "9" * 4300, Fraction(1, int("9" * 4300))),
        ("1/" + "9" * 4301, "cannot parse rational: an integer has more than 4300 digits"),
    ])
    def test_plain_and_other_strings(self, text, expected):
        assert sys.get_int_max_str_digits() == 4300
        assert _outcome(as_fraction, text) == expected
        assert _outcome(regex_path_fraction, text) == expected

    @given(st.text(alphabet="0123456789/_-. e\u0663\u00b2", max_size=8))
    def test_matches_the_regex_path(self, text):
        assert _outcome(as_fraction, text) == _outcome(regex_path_fraction, text)


def regex_path_fraction(text: str) -> Fraction:
    """Oracle: a string read through the exponent and digit-run checks, then
    Fraction(text), with no fast path."""
    if re.search(r"[eE][-+]?\d", text):
        raise RumkitError(
            f"exponent notation {text!r} rejected: write the value as a decimal "
            "or a ratio like '1/1000'"
        )
    limit = sys.get_int_max_str_digits()
    if limit and any(len(run) - run.count("_") > limit for run in re.findall(r"[\d_]+", text)):
        raise RumkitError(f"cannot parse rational: an integer has more than {limit} digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise RumkitError(f"cannot parse rational {text!r}") from None


def _outcome(parse, text: str):
    try:
        return parse(text)
    except RumkitError as exc:
        return str(exc)


class TestPreferenceDistribution:
    U4 = Universe(("a", "b", "c", "d"))
    MODEL = Model.of(U4, all_preferences(U4))
    ODD_PRIMES = (
        3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89
    )

    def masses(self, shortfall: Fraction) -> dict:
        """1/(2p) on all but the last preference, one odd prime p each; the
        last takes the rest minus shortfall."""
        prefs = self.MODEL.preferences
        masses = {pref: Fraction(1, 2 * p) for pref, p in zip(prefs, self.ODD_PRIMES)}
        masses[prefs[-1]] = 1 - sum(masses.values()) - shortfall
        return masses

    def test_negative_mass_refused(self):
        a, b = self.MODEL.preferences[:2]
        with pytest.raises(RumkitError, match=r"^negative mass -1/2 on a≻b≻d≻c$"):
            PreferenceDistribution(self.MODEL, {a: Fraction(3, 2), b: Fraction(-1, 2)})

    def test_preference_outside_the_model_refused(self):
        model = Model.of(U3, list(all_preferences(U3))[:2])
        outside = preference_from_labels(U3, "zyx")
        with pytest.raises(RumkitError, match=r"^support preference z≻y≻x is not in the model$"):
            PreferenceDistribution(model, {outside: Fraction(1)})

    def test_sum_off_by_one_over_a_large_prime_refused(self):
        shortfall = Fraction(1, 2**61 - 1)
        with pytest.raises(RumkitError) as info:
            PreferenceDistribution(self.MODEL, self.masses(shortfall))
        assert str(info.value) == f"masses sum to {1 - shortfall}, not 1"

    def test_sum_of_exactly_one_accepted(self):
        masses = self.masses(Fraction(0))
        dist = PreferenceDistribution(self.MODEL, masses)
        assert dict(dist.entries) == masses

    @pytest.mark.parametrize("name", ["entries", "model"])
    def test_fields_are_frozen(self, name):
        nu1, nu2 = fishburn_distributions()
        with pytest.raises(FrozenInstanceError):
            setattr(nu1, name, getattr(nu2, name))
        assert nu1 != nu2 and nu1 in {nu1}

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("half", ["1/2", Fraction(2, 4), "0.5"])
    def test_equal_masses_give_equal_fields(self, half, zeros):
        a, b, c, d = self.MODEL.preferences[:4]
        mass = {b: half, c: 0, a: half, d: "0/3"} if zeros else {b: half, a: half}
        dist = PreferenceDistribution(self.MODEL, mass)
        fields = (dist.model, dist.support, dist.numerators, dist.denominator)
        assert fields == (self.MODEL, (a, b), (1, 1), 2)
        reference = PreferenceDistribution(self.MODEL, {a: Fraction(1, 2), b: Fraction(1, 2)})
        assert dist == reference and hash(dist) == hash(reference)
        assert dist.entries == ((a, Fraction(1, 2)), (b, Fraction(1, 2)))
        assert (dist.mass_of(b), dist.mass_of(c)) == (Fraction(1, 2), 0)

    def test_shares_are_reduced(self):
        a, b, c = self.MODEL.preferences[:3]
        dist = _from_shares(self.MODEL, [2, 0, 4] + [0] * (len(self.MODEL) - 3))
        assert (dist.support, dist.numerators, dist.denominator) == ((a, c), (1, 2), 3)
        assert dist == PreferenceDistribution(self.MODEL, {a: "1/3", c: "2/3"})

    def test_mass_of_matches_the_dict_lookup(self, rng):
        # members on and off the support, non-members, and a preference on
        # another universe with the same ranking
        for n in range(1, 6):
            u = Universe.of_size(n)
            other = Universe(tuple(label.upper() for label in u.labels))
            everyone = list(all_preferences(u))
            for _ in range(12):
                m = random_model(rng, u, rng.randrange(1, min(len(everyone), 9) + 1))
                dist = random_distribution(rng, m, max_weight=3)
                table = dict(dist.entries)
                for pref in everyone + [Preference(other, everyone[-1].ranking)]:
                    assert dist.mass_of(pref) == table.get(pref, Fraction(0))

    def test_point_mass_is_the_mapping_form(self):
        pref = self.MODEL.preferences[5]
        assert point_mass(self.MODEL, pref) == PreferenceDistribution(self.MODEL, {pref: 1})
        model = Model.of(U3, list(all_preferences(U3))[:2])
        outside = preference_from_labels(U3, "zyx")
        with pytest.raises(RumkitError, match=r"^support preference z≻y≻x is not in the model$"):
            point_mass(model, outside)


class TestRuleFromDistribution:
    def test_point_mass(self):
        u = Universe(("a", "b", "c"))
        p = preference_from_labels(u, "abc")
        rule = rcr_from_distribution(point_mass(Model.of(u, [p]), p))
        assert rule.value(*key(u, "a", "abc")) == 1
        assert rule.value(*key(u, "b", "bc")) == 1
        assert rule.value(*key(u, "b", "ab")) == 0

    def test_fishburn_top_choice(self):
        nu1, _ = fishburn_distributions()
        rule = rcr_from_distribution(nu1)
        u = nu1.universe
        assert rule.value(*key(u, "a", "abcd")) == Fraction(1, 2)

    def test_fishburn_rules_identical(self):
        nu1, nu2 = fishburn_distributions()
        r1, r2 = rcr_from_distribution(nu1), rcr_from_distribution(nu2)
        assert len(list(r1.items())) == 32
        assert r1 == r2

    def test_placement_with_a_common_factor_is_reduced(self):
        # every used pair of the double cover carries two of its eight
        # preferences, so uniform masses place 2/8 on each: the rule and the
        # contour mass must be stored over 4 to equal tables built from values
        model = double_cover_model()
        nu = PreferenceDistribution(model, {p: Fraction(1, 8) for p in model})
        rule = rcr_from_distribution(nu)
        assert rule == RandomChoiceRule(model.universe, best_element_rule(nu))
        assert rule.denominator == 4
        assert verify_contour_mass_identity(nu)

    def test_entries_read_without_the_cap(self, monkeypatch):
        # the lattice cap is checked when a table is built, not per entry
        u = Universe.of_size(4)
        p = Preference(u, (0, 1, 2, 3))
        rule = rcr_from_distribution(point_mass(Model.of(u, [p]), p))
        monkeypatch.setenv(CAP_ENV_VAR, "3")
        assert rule[(0, 0b1111)] == rule.value(0, 0b1111) == 1
        assert len(rule.values) == 32
        with pytest.raises(CapExceededError):
            RandomChoiceRule(u, rule.values)

    def test_induced_rule_is_valid(self, rng):
        for n in (3, 4):
            u = Universe.of_size(n)
            for _ in range(10):
                m = random_model(rng, u, rng.randrange(1, 6))
                assert validate_rcr(rcr_from_distribution(random_distribution(rng, m)))


class TestValidateRcr:
    def test_menu_sum_violation(self):
        values = {k: Fraction(1) for k in lattice(2).keys}
        values[key(U2, "x", "xy")] = Fraction(3, 4)
        values[key(U2, "y", "xy")] = Fraction(3, 4)
        check = validate_rcr(RandomChoiceRule(U2, values))
        assert not check.ok
        assert check.bad_menus == ((0b11, Fraction(3, 2)),)

    def test_negative_entry(self):
        values = {k: Fraction(1) for k in lattice(2).keys}
        values[key(U2, "x", "xy")] = Fraction(-1, 4)
        values[key(U2, "y", "xy")] = Fraction(5, 4)
        check = validate_rcr(RandomChoiceRule(U2, values))
        assert not check.ok
        assert check.negative == (key(U2, "x", "xy"),)

    def test_missing_pair_rejected_at_construction(self):
        values = {k: Fraction(1) for k in lattice(2).keys}
        del values[key(U2, "x", "xy")]
        with pytest.raises(RumkitError, match="missing"):
            RandomChoiceRule(U2, values)

    def test_off_lattice_key_named(self):
        u = Universe.of_size(10)
        values = {k: Fraction(0) for k in lattice(10).keys}
        values[(3, 0b10)] = Fraction(1)  # 3 is not in the menu {b}
        with pytest.raises(RumkitError, match=re.escape("off the lattice: (3, 2)")):
            RandomChoiceRule(u, values)


class TestMobiusInverse:
    def test_point_mass_unit_path(self):
        p = preference_from_labels(U2, "xy")
        rule = rcr_from_distribution(point_mass(Model.of(U2, [p]), p))
        q = mobius_inverse(rule)
        assert q.values == alternating_sum_mobius(rule)
        assert q.value(*key(U2, "x", "xy")) == 1
        assert q.value(*key(U2, "y", "y")) == 1
        assert q.value(*key(U2, "x", "x")) == 0
        assert q.value(*key(U2, "y", "xy")) == 0

    def test_fishburn_entries_match_class_mass(self):
        # independent oracle: q(x, A) must equal the mass of the contour class
        nu1, _ = fishburn_distributions()
        q = mobius_inverse(rcr_from_distribution(nu1))
        u = nu1.universe
        assert q.value(*key(u, "a", "abcd")) == Fraction(1, 2)
        assert q.value(*key(u, "c", "cd")) == Fraction(1, 2)
        for x, mask in lattice(4).keys:
            assert q.value(x, mask) == mass_of_class(nu1, x, mask)

    def test_roundtrip_on_random_rules(self, rng):
        u = Universe.of_size(4)
        for _ in range(30):
            rule = random_rule(rng, u)
            q = mobius_inverse(rule)
            assert q.values == alternating_sum_mobius(rule)
            assert mobius_forward(q) == rule

    def test_roundtrip_from_negative_tables(self, rng):
        u = Universe.of_size(3)
        for _ in range(30):
            q = MobiusInverse(u, random_mobius_values(rng, u))
            assert mobius_inverse(mobius_forward(q)) == q

    @pytest.mark.parametrize("name", ["extra", "numerators"])
    def test_rule_and_inverse_refuse_assignment(self, name):
        nu1, _ = fishburn_distributions()
        rule = rcr_from_distribution(nu1)
        for table in (rule, mobius_inverse(rule)):
            with pytest.raises(FrozenInstanceError):
                setattr(table, name, 1)
        assert rule == rcr_from_distribution(nu1) and rule in {rcr_from_distribution(nu1)}
        # same fields, other class: a rule never equals an inverse
        assert MobiusInverse(rule.universe, rule.values) != rule

    def test_forward_of_unit_path_is_point_mass_rule(self):
        p = preference_from_labels(U3, "xyz")
        path = {(x, p.contour_menu_mask(x)) for x in p.ranking}
        values = {
            k: Fraction(1 if k in path else 0) for k in lattice(3).keys
        }
        forward = mobius_forward(MobiusInverse(U3, values))
        expect = rcr_from_distribution(point_mass(Model.of(U3, [p]), p))
        assert forward == expect


class TestNecessaryCondition:
    def test_holds_for_any_distribution(self, rng):
        u = Universe.of_size(4)
        for _ in range(10):
            m = random_model(rng, u, rng.randrange(1, 8))
            nu = random_distribution(rng, m)
            assert check_stochastic_rationality_necessary(
                mobius_inverse(rcr_from_distribution(nu))
            )

    def test_uniform_below_singletons(self):
        # n=3, p(x,{x}) = 1 and uniform on larger menus: by hand,
        # q(x, X) = 1/3, q(x, pair menus) = 1/6, q(x, {x}) = 1/3, all >= 0
        values = {}
        for x, mask in lattice(3).keys:
            values[(x, mask)] = Fraction(1, mask.bit_count())
        q = mobius_inverse(RandomChoiceRule(U3, values))
        check = check_stochastic_rationality_necessary(q)
        assert check.ok and check.negative == ()
        assert q.value(*key(U3, "x", "xyz")) == Fraction(1, 3)
        assert q.value(*key(U3, "x", "xy")) == Fraction(1, 6)
        assert q.value(*key(U3, "x", "x")) == Fraction(1, 3)

    def test_injected_negative_entry_reported(self):
        values = {k: Fraction(0) for k in lattice(2).keys}
        values[key(U2, "x", "xy")] = Fraction(-1, 3)
        check = check_stochastic_rationality_necessary(MobiusInverse(U2, values))
        assert not check
        assert check.negative == (key(U2, "x", "xy"),)


class TestContourMassIdentity:
    def test_point_mass(self):
        u = Universe.of_size(3)
        p = Preference(u, (2, 0, 1))
        assert verify_contour_mass_identity(point_mass(Model.of(u, [p]), p))

    def test_fishburn(self):
        nu1, _ = fishburn_distributions()
        assert verify_contour_mass_identity(nu1)

    def test_random_instances(self, rng):
        for n in (4, 5):
            u = Universe.of_size(n)
            for _ in range(10):
                m = random_model(rng, u, rng.randrange(1, 7))
                assert verify_contour_mass_identity(random_distribution(rng, m))


class TestTransformOracles:
    """The transforms against the independent oracles in conftest.

    Rule induction and the Mobius inverse share one superset transform, so
    verify_contour_mass_identity is true by construction; this is the
    independent check of the contour-mass identity.
    """

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_transforms_match_oracles(self, rng, n):
        u = Universe.of_size(n)
        if n == 6:
            models = [max_basis(n)] * 2
        else:
            models = [random_model(rng, u, rng.randrange(1, 10)) for _ in range(6)]
        for model in models:
            nu = random_distribution(rng, model)
            rule = rcr_from_distribution(nu)
            assert rule.values == best_element_rule(nu)
            q = mobius_inverse(rule)
            assert q.values == alternating_sum_mobius(rule)
            for x, mask in lattice(n).keys:
                assert q.value(x, mask) == mass_of_class(nu, x, mask)
            assert mobius_forward(MobiusInverse(u, alternating_sum_mobius(rule))) == rule
            arbitrary = random_rule(rng, u)
            assert mobius_inverse(arbitrary).values == alternating_sum_mobius(arbitrary)
        for pref in models[-1]:
            expect = best_element_rule(point_mass(models[-1], pref))
            assert rule_vector(pref) == tuple(expect.values())


_LARGE_PRIMES = (999_983, 1_000_003, (1 << 61) - 1)
_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(_LARGE_PRIMES)),
    # halves and thirds, whose sums reduce to integers
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3)]),
)


@st.composite
def _exact_tables(draw) -> tuple[int, dict[tuple[int, int], Fraction]]:
    n = draw(st.integers(3, 6))
    keys = lattice(n).keys
    entries = draw(st.lists(_ENTRIES, min_size=len(keys), max_size=len(keys)))
    return n, dict(zip(keys, entries))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_exact_tables(), st.integers(2, 10**9))
def test_integer_table_matches_the_fraction_oracles(table, scale):
    """The flat integer table against Fractions entry by entry, on tables with
    zeros, negative values and unrelated denominators."""
    n, values = table
    u = Universe.of_size(n)
    t = RandomChoiceRule(u, values)
    assert t.values == values
    q = mobius_inverse(t)
    assert q.values == alternating_sum_mobius(t)
    assert mobius_forward(q) == t
    for stored in (t, q, mobius_forward(q)):
        assert stored.denominator > 0
        assert gcd(stored.denominator, *stored.numerators) == 1
        assert all(gcd(v.numerator, v.denominator) == 1 for v in stored.values.values())
    # the same values written over another denominator make an equal table
    unreduced = {k: f"{v.numerator * scale}/{v.denominator * scale}" for k, v in values.items()}
    assert RandomChoiceRule(u, unreduced) == t


class TestFlowConservation:
    def test_from_distribution(self, rng):
        u = Universe.of_size(4)
        for _ in range(10):
            m = random_model(rng, u, rng.randrange(1, 8))
            q = mobius_inverse(rcr_from_distribution(random_distribution(rng, m)))
            check = flow_conservation_check(q)
            assert check.ok and check.total_at_full == 1

    def test_perturbed_entry_reported(self):
        nu1, _ = fishburn_distributions()
        q = mobius_inverse(rcr_from_distribution(nu1))
        u = nu1.universe
        values = dict(q.items())
        bad_key = key(u, "c", "cd")
        values[bad_key] = values[bad_key] + Fraction(1, 7)
        check = flow_conservation_check(MobiusInverse(u, values))
        assert not check
        assert bad_key[1] in check.bad_menus

    def test_outflow_at_the_full_menu_reported(self):
        # half the mass leaves X and flows on to {b}; the other half is missing
        u = Universe.of_size(2)
        values = {key(u, "a", "ab"): "1/2", key(u, "b", "ab"): "0",
                  key(u, "a", "a"): "0", key(u, "b", "b"): "1/2"}
        check = flow_conservation_check(MobiusInverse(u, values))
        assert not check
        assert check.bad_menus == (u.full_mask,)
        assert check.total_at_full == Fraction(1, 2)

    def test_random_rational_distribution_n5(self, rng):
        u = Universe.of_size(5)
        m = random_model(rng, u, 6)
        q = mobius_inverse(rcr_from_distribution(random_distribution(rng, m)))
        assert flow_conservation_check(q).ok


class TestSampling:
    def test_point_mass_is_exact(self):
        u = Universe.of_size(3)
        p = Preference(u, (1, 2, 0))
        dist = point_mass(Model.of(u, [p]), p)
        sample = sample_empirical_rule(dist, trials=3, seed=0)
        assert sample.rule == rcr_from_distribution(dist)

    def test_deterministic_given_seed(self):
        nu1, _ = fishburn_distributions()
        a = sample_empirical_rule(nu1, trials=50, seed=42)
        b = sample_empirical_rule(nu1, trials=50, seed=42)
        assert a == b and document_counts(a) == document_counts(b)
        c = sample_empirical_rule(nu1, trials=50, seed=43)
        assert a.rule != c.rule  # astronomically unlikely to collide

    def test_clt_scale_accuracy(self):
        nu1, _ = fishburn_distributions()
        sample = sample_empirical_rule(nu1, trials=10_000, seed=1)
        u = nu1.universe
        got = sample.rule.value(*key(u, "a", "abcd"))
        assert abs(got - Fraction(1, 2)) < Fraction(5, 100)

    def test_counts_sum_to_trials_per_menu(self):
        nu1, _ = fishburn_distributions()
        sample = sample_empirical_rule(nu1, trials=64, seed=9)
        per_menu: dict[int, int] = {}
        for (x, mask), c in document_counts(sample).items():
            per_menu[mask] = per_menu.get(mask, 0) + c
        assert set(per_menu.values()) == {64}
        assert validate_rcr(sample.rule)

    def test_counts_match_linear_scan_oracle(self, rng):
        nu = random_distribution(rng, max_basis(6))
        sample = sample_empirical_rule(nu, trials=40, seed=7)
        assert document_counts(sample) == linear_scan_counts(nu, trials=40, seed=7)

    @pytest.mark.parametrize("trials, seed, message", [
        pytest.param(True, 0, "trials: expected a positive integer, got True", id="trials-bool"),
        pytest.param(2.0, 0, "trials: expected a positive integer, got 2.0", id="trials-float"),
        pytest.param(0, 0, "trials: expected a positive integer, got 0", id="trials-zero"),
        pytest.param(None, 0, "trials: expected a positive integer, got None", id="trials-none"),
        pytest.param(8, "abc", "seed: expected an integer, got 'abc'", id="seed-str"),
        pytest.param(8, 1.5, "seed: expected an integer, got 1.5", id="seed-float"),
        pytest.param(8, True, "seed: expected an integer, got True", id="seed-bool"),
    ])
    def test_bad_sample_fields_refused_before_drawing(self, monkeypatch, trials, seed, message):
        nu1, _ = fishburn_distributions()
        monkeypatch.setattr(random, "Random", None)  # any draw would fail differently
        with pytest.raises(RumkitError, match=re.escape(message)):
            sample_empirical_rule(nu1, trials, seed)

    def test_draw_cap_refused_before_drawing(self):
        nu1, _ = fishburn_distributions()  # 4 alternatives, 15 menus
        assert MAX_DRAWS == 10**8
        with pytest.raises(RumkitError, match="more than 100000000 draws"):
            sample_empirical_rule(nu1, trials=MAX_DRAWS // 15 + 1, seed=0)
        with pytest.raises(RumkitError, match="more than 100000000 draws"):
            sample_empirical_rule(nu1, trials=10**9, seed=0)


def linear_scan_counts(
    dist: PreferenceDistribution, trials: int, seed: int
) -> dict[tuple[int, int], int]:
    """Oracle: the sampler's draws, each picked by a linear threshold scan."""
    rng = random.Random(seed)
    denom = lcm(*(m.denominator for _, m in dist.entries))
    counts: dict[tuple[int, int], int] = {}
    for mask in range(1, dist.universe.full_mask + 1):
        for _ in range(trials):
            draw = rng.randrange(denom)
            acc = 0
            for pref, m in dist.entries:
                acc += int(m * denom)
                if draw < acc:
                    break
            key = (pref.best_in(mask), mask)
            counts[key] = counts.get(key, 0) + 1
    return counts
