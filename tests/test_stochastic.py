from __future__ import annotations

import re
from fractions import Fraction

import pytest

from conftest import (
    alternating_sum_mobius,
    best_element_rule,
    random_distribution,
    random_mobius_values,
    random_model,
    random_rule,
)
from rumkit import (
    ContourPair,
    Menu,
    Model,
    MobiusInverse,
    Preference,
    PreferenceDistribution,
    RandomChoiceRule,
    RumkitError,
    Universe,
    as_fraction,
    build_diagram,
    check_stochastic_rationality_necessary,
    contour_pair_keys,
    directed_spanning_tree,
    fishburn_distributions,
    flow_conservation_check,
    in_contour_class,
    mobius_forward,
    mobius_inverse,
    point_mass,
    preference_basis,
    preference_from_labels,
    rcr_from_distribution,
    rule_vector,
    sample_empirical_rule,
    validate_rcr,
    verify_contour_mass_identity,
)

U2 = Universe(("x", "y"))
U3 = Universe(("x", "y", "z"))


def key(universe: Universe, x_label: str, menu_labels: str) -> tuple[int, int]:
    return (universe.index(x_label), universe.menu_of_labels(tuple(menu_labels)).mask)


def mass_of_class(dist: PreferenceDistribution, x: int, mask: int) -> Fraction:
    """Independent oracle: summed mass of the pair's contour class members."""
    total = Fraction(0)
    universe = dist.universe
    cp = ContourPair(x, Menu(universe, mask))
    for pref, m in dist.entries:
        if in_contour_class(pref, cp):
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

    def test_induced_rule_is_valid(self, rng):
        for n in (3, 4):
            u = Universe.of_size(n)
            for _ in range(10):
                m = random_model(rng, u, rng.randrange(1, 6))
                assert validate_rcr(rcr_from_distribution(random_distribution(rng, m)))


class TestValidateRcr:
    def test_menu_sum_violation(self):
        values = {k: Fraction(1) for k in contour_pair_keys(2)}
        values[key(U2, "x", "xy")] = Fraction(3, 4)
        values[key(U2, "y", "xy")] = Fraction(3, 4)
        check = validate_rcr(RandomChoiceRule(U2, values))
        assert not check.ok
        assert check.bad_menus == ((0b11, Fraction(3, 2)),)

    def test_negative_entry(self):
        values = {k: Fraction(1) for k in contour_pair_keys(2)}
        values[key(U2, "x", "xy")] = Fraction(-1, 4)
        values[key(U2, "y", "xy")] = Fraction(5, 4)
        check = validate_rcr(RandomChoiceRule(U2, values))
        assert not check.ok
        assert check.negative == (key(U2, "x", "xy"),)

    def test_missing_pair_rejected_at_construction(self):
        values = {k: Fraction(1) for k in contour_pair_keys(2)}
        del values[key(U2, "x", "xy")]
        with pytest.raises(RumkitError, match="missing"):
            RandomChoiceRule(U2, values)


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
        for x, mask in contour_pair_keys(4):
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

    def test_forward_of_unit_path_is_point_mass_rule(self):
        p = preference_from_labels(U3, "xyz")
        path = {(x, p.contour_menu_mask(x)) for x in p.ranking}
        values = {
            k: Fraction(1 if k in path else 0) for k in contour_pair_keys(3)
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
        for x, mask in contour_pair_keys(3):
            values[(x, mask)] = Fraction(1, mask.bit_count())
        q = mobius_inverse(RandomChoiceRule(U3, values))
        check = check_stochastic_rationality_necessary(q)
        assert check.ok and check.negative == ()
        assert q.value(*key(U3, "x", "xyz")) == Fraction(1, 3)
        assert q.value(*key(U3, "x", "xy")) == Fraction(1, 6)
        assert q.value(*key(U3, "x", "x")) == Fraction(1, 3)

    def test_injected_negative_entry_reported(self):
        values = {k: Fraction(0) for k in contour_pair_keys(2)}
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

    @staticmethod
    def max_basis(n: int) -> Model:
        d = build_diagram(Universe.of_size(n))
        return Model.of(d.universe, [p for p, _ in preference_basis(directed_spanning_tree(d), d)])

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_transforms_match_oracles(self, rng, n):
        u = Universe.of_size(n)
        if n == 6:
            models = [self.max_basis(n)] * 2
        else:
            models = [random_model(rng, u, rng.randrange(1, 10)) for _ in range(6)]
        for model in models:
            nu = random_distribution(rng, model)
            rule = rcr_from_distribution(nu)
            assert rule.values == best_element_rule(nu)
            q = mobius_inverse(rule)
            assert q.values == alternating_sum_mobius(rule)
            for x, mask in contour_pair_keys(n):
                assert q.value(x, mask) == mass_of_class(nu, x, mask)
            assert mobius_forward(MobiusInverse(u, alternating_sum_mobius(rule))) == rule
            arbitrary = random_rule(rng, u)
            assert mobius_inverse(arbitrary).values == alternating_sum_mobius(arbitrary)
        for pref in models[-1]:
            expect = best_element_rule(point_mass(models[-1], pref))
            assert rule_vector(pref) == tuple(expect.values())


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
        assert a.rule == b.rule and a.counts == b.counts
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
        for (x, mask), c in sample.counts.items():
            per_menu[mask] = per_menu.get(mask, 0) + c
        assert set(per_menu.values()) == {64}
        assert validate_rcr(sample.rule)
