from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from conftest import (
    greedy_peel_by_counter,
    random_distribution,
    random_model,
    validate_witness_by_suffix,
)
from rumkit import (
    Model,
    NotEdgeDecomposableError,
    Preference,
    PreferenceDistribution,
    RandomChoiceRule,
    RecoveryStatus,
    RumkitError,
    Universe,
    UniverseMismatchError,
    WitnessError,
    all_preferences,
    build_diagram,
    directed_spanning_tree,
    double_cover_model,
    extend_edge_decomposable,
    fishburn_model,
    is_edge_decomposable,
    is_identified,
    latin_square,
    lattice,
    mobius_inverse,
    point_mass,
    preference_basis,
    preference_from_labels,
    rcr_from_distribution,
    recover_distribution,
    sample_empirical_rule,
    shadowed_triple_model,
    validate_witness,
)


def brute_decomposable(model: Model) -> bool:
    """Definition-level oracle: every nonempty submodel has a member whose
    contour class meets the submodel only in that member."""
    prefs = list(model.preferences)
    for size in range(1, len(prefs) + 1):
        for subset in combinations(prefs, size):
            ok = False
            for pref in subset:
                for x, mask in pref.contour_keys():
                    members = [p for p in subset if p.contour_menu_mask(x) == mask]
                    if members == [pref]:
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                return False
    return True


def peel_reversed(model: Model) -> bool:
    """Greedy peel scanning preferences and pairs in reversed order."""
    remaining = list(model.preferences)
    while remaining:
        hit = None
        for pref in reversed(remaining):
            for x, mask in reversed(tuple(pref.contour_keys())):
                members = [p for p in remaining if p.contour_menu_mask(x) == mask]
                if members == [pref]:
                    hit = pref
                    break
            if hit:
                break
        if hit is None:
            return False
        remaining.remove(hit)
    return True


class TestIsEdgeDecomposable:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_latin_square(self, n):
        u = Universe.of_size(n)
        m = latin_square(Preference(u, tuple(range(n))))
        res = is_edge_decomposable(m)
        assert res
        assert validate_witness(m, res.witness)

    def test_shadowed_triple(self):
        m = shadowed_triple_model()
        res = is_edge_decomposable(m)
        assert res
        assert validate_witness(m, res.witness)

    def test_fishburn_stuck(self):
        res = is_edge_decomposable(fishburn_model())
        assert not res
        assert res.stuck == fishburn_model()

    def test_double_cover_stuck_on_everything(self):
        m = double_cover_model()
        res = is_edge_decomposable(m)
        assert not res
        assert res.stuck == m

    def test_agrees_with_definition_oracle(self, rng):
        u = Universe.of_size(4)
        for _ in range(25):
            m = random_model(rng, u, rng.randrange(1, 7))
            assert bool(is_edge_decomposable(m)) == brute_decomposable(m)

    def test_scan_order_does_not_change_answer(self, rng):
        u = Universe.of_size(4)
        for _ in range(25):
            m = random_model(rng, u, rng.randrange(1, 8))
            assert bool(is_edge_decomposable(m)) == peel_reversed(m)

    def test_matches_the_counter_peel_on_random_models(self, rng):
        answers = []
        for _ in range(1200):
            n = rng.randrange(1, 8)
            size = rng.randrange(1, min(factorial(n), 40) + 1)
            m = random_model(rng, Universe.of_size(n), size)
            res = is_edge_decomposable(m)
            assert res == greedy_peel_by_counter(m)
            answers.append(bool(res))
        assert answers.count(True) > 100 and answers.count(False) > 100

    @pytest.mark.parametrize("n", [7, 8])
    def test_matches_the_counter_peel_on_relabelled_max_basis(self, rng, n):
        d = build_diagram(Universe.of_size(n))
        base = [p.ranking for p, _ in preference_basis(directed_spanning_tree(d), d)]
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            m = Model.of(
                d.universe, [Preference(d.universe, tuple(perm[x] for x in r)) for r in base]
            )
            res = is_edge_decomposable(m)
            assert res and res == greedy_peel_by_counter(m)

    def test_matches_the_counter_peel_on_double_cover(self):
        m = double_cover_model()
        assert is_edge_decomposable(m) == greedy_peel_by_counter(m)

    def test_answers_past_the_lattice_cap(self, monkeypatch):
        from rumkit.core import CAP_ENV_VAR

        m = latin_square(Preference(Universe.of_size(4), (0, 1, 2, 3)))
        expected = is_edge_decomposable(m)
        monkeypatch.setenv(CAP_ENV_VAR, "3")
        assert is_edge_decomposable(m) == expected

    def test_answers_past_the_default_lattice_cap(self):
        u = Universe.of_size(25)
        m = Model.of(u, [Preference(u, r) for r in (
            tuple(range(25)), tuple(range(24, -1, -1)), (1, 0, *range(2, 25)),
        )])
        res = is_edge_decomposable(m)
        assert res == greedy_peel_by_counter(m)
        assert validate_witness(m, res.witness)


class TestValidateWitness:
    def test_greedy_witness_validates(self, rng):
        u = Universe.of_size(4)
        seen = 0
        while seen < 10:
            m = random_model(rng, u, rng.randrange(1, 8))
            res = is_edge_decomposable(m)
            if res:
                assert validate_witness(m, res.witness)
                seen += 1

    def test_basis_reversed_is_witness(self):
        u = Universe.of_size(4)
        d = build_diagram(u)
        basis = preference_basis(directed_spanning_tree(d), d)
        m = Model.of(u, [p for p, _ in basis])
        assert validate_witness(m, basis[::-1])

    def test_swapped_entries_fail_suffix_uniqueness(self):
        m = shadowed_triple_model()
        res = is_edge_decomposable(m)
        entries = list(res.witness)
        entries[0], entries[1] = entries[1], entries[0]
        assert not validate_witness(m, entries)

    def test_coverage_mismatch_raises(self):
        m = shadowed_triple_model()
        res = is_edge_decomposable(m)
        with pytest.raises(WitnessError):
            validate_witness(m, res.witness[:-1])

    @pytest.mark.parametrize("key", [(3, 0b111), (0, 0b1001), (1, 0b101), [0, 0b111]])
    def test_off_lattice_key_raises(self, key):
        m = latin_square(Preference(Universe.of_size(3), (0, 1, 2)))
        (pref, _), *rest = is_edge_decomposable(m).witness
        with pytest.raises(WitnessError, match=re.escape(str(key))):
            validate_witness(m, [(pref, key), *rest])

    def test_sweep_matches_the_suffix_oracle(self, rng):
        answers = []
        for n in range(2, 7):
            u = Universe.of_size(n)
            for _ in range(60):
                m = random_model(rng, u, rng.randrange(1, min(factorial(n), 16) + 1))
                res = is_edge_decomposable(m)
                if not res:
                    continue
                witness = list(res.witness)
                swapped, shuffled = list(witness), list(witness)
                rekeyed, stolen = list(witness), list(witness)
                i, j = rng.randrange(len(m)), rng.randrange(len(m))
                swapped[i], swapped[j] = swapped[j], swapped[i]
                rng.shuffle(shuffled)
                pref, _ = rekeyed[i]
                x = rng.randrange(n)
                rekeyed[i] = (pref, (x, pref.contour_menu_mask(x)))
                stolen[i] = (pref, witness[j][1])
                for w in (witness, swapped, shuffled, rekeyed, stolen):
                    answers.append(validate_witness(m, w))
                    assert answers[-1] is validate_witness_by_suffix(m, w)
        assert answers.count(True) > 100 and answers.count(False) > 100

    def test_reversed_max_basis_matches_the_suffix_oracle_at_n9(self):
        d = build_diagram(Universe.of_size(9))
        basis = preference_basis(directed_spanning_tree(d), d)
        m = Model.of(d.universe, [p for p, _ in basis])
        witness = list(basis[::-1])
        assert validate_witness(m, witness) and validate_witness_by_suffix(m, witness)
        swapped = [witness[-1], *witness[1:-1], witness[0]]
        stolen = [(witness[0][0], witness[-1][1]), *witness[1:]]
        for w in (swapped, stolen):
            assert not validate_witness(m, w)
            assert not validate_witness_by_suffix(m, w)

    def test_keys_checked_without_the_lattice(self, monkeypatch):
        from rumkit.core import CAP_ENV_VAR

        m = latin_square(Preference(Universe.of_size(4), (0, 1, 2, 3)))
        witness = is_edge_decomposable(m).witness
        monkeypatch.setenv(CAP_ENV_VAR, "3")
        assert validate_witness(m, witness)


class TestRecoverDistribution:
    def test_point_mass(self):
        m = shadowed_triple_model()
        pref = m.preferences[0]
        report = recover_distribution(m, rcr_from_distribution(point_mass(m, pref)))
        assert report.status is RecoveryStatus.EXACT
        assert report.distribution == point_mass(m, pref)

    def test_latin_square_halves(self):
        u = Universe.of_size(3)
        m = latin_square(Preference(u, (0, 1, 2)))
        dist = PreferenceDistribution(
            m, dict(zip(m.preferences, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))))
        )
        report = recover_distribution(m, rcr_from_distribution(dist))
        assert report.status is RecoveryStatus.EXACT
        assert report.distribution == dist

    def test_recovered_distribution_is_the_mapping_form(self, rng):
        for n in (3, 4, 5):
            u = Universe.of_size(n)
            seen = 0
            while seen < 8:
                m = random_model(rng, u, rng.randrange(1, min(factorial(n), 12) + 1))
                if not is_edge_decomposable(m):
                    continue
                seen += 1
                dist = random_distribution(rng, m)
                rule = rcr_from_distribution(dist)
                for data in (rule, mobius_inverse(rule)):
                    report = recover_distribution(m, data)
                    built = PreferenceDistribution(m, dict(report.masses))
                    assert report.distribution == built == dist
                    assert hash(report.distribution) == hash(built)

    def test_mass_of_matches_the_dict_lookup(self, rng):
        # exact, approximate and failed reports, members and non-members
        statuses = set()
        for n in range(2, 6):
            u = Universe.of_size(n)
            everyone = list(all_preferences(u))
            for _ in range(10):
                m = random_model(rng, u, rng.randrange(1, min(len(everyone), 8) + 1))
                if not is_edge_decomposable(m):
                    continue
                wider = random_model(rng, u, min(len(everyone), len(m) + 3))
                for data in (
                    rcr_from_distribution(random_distribution(rng, m)),
                    rcr_from_distribution(random_distribution(rng, wider)),
                ):
                    for tolerance in (0, "1/2"):
                        report = recover_distribution(m, data, tolerance)
                        statuses.add(report.status)
                        table = dict(report.masses)
                        for pref in everyone:
                            assert report.mass_of(pref) == table.get(pref, Fraction(0))
        assert statuses == set(RecoveryStatus)

    def test_accepts_mobius_input(self):
        m = shadowed_triple_model()
        pref = m.preferences[1]
        q = mobius_inverse(rcr_from_distribution(point_mass(m, pref)))
        report = recover_distribution(m, q)
        assert report.status is RecoveryStatus.EXACT
        assert report.distribution == point_mass(m, pref)

    def test_foreign_preference_fails(self):
        u = Universe.of_size(4)
        m = latin_square(Preference(u, (0, 1, 2, 3)))
        foreign = preference_from_labels(u, "bacd")
        assert foreign not in m
        data = rcr_from_distribution(point_mass(Model.of(u, [foreign]), foreign))
        report = recover_distribution(m, data)
        assert report.status is RecoveryStatus.FAILED
        assert report.residual

    @pytest.mark.parametrize("labels", ["abcd", "xyz"])
    def test_data_on_another_universe_raises(self, labels):
        # sizes differ, or the size matches and the labels differ
        u = Universe.from_labels(labels)
        m = latin_square(Preference(u, tuple(range(u.n))))
        data_model = latin_square(Preference(Universe.of_size(3), (0, 1, 2)))
        data = rcr_from_distribution(point_mass(data_model, data_model.preferences[0]))
        with pytest.raises(UniverseMismatchError):
            recover_distribution(m, data)
        with pytest.raises(UniverseMismatchError):
            recover_distribution(m, mobius_inverse(data))

    def test_not_decomposable_raises(self):
        m = fishburn_model()
        data = rcr_from_distribution(point_mass(m, m.preferences[0]))
        message = "^model is not edge decomposable; stuck on 4 preferences$"
        with pytest.raises(NotEdgeDecomposableError, match=message):
            recover_distribution(m, data)

    def test_invalid_rule_refused(self):
        u = Universe.of_size(3)
        m = latin_square(Preference(u, (0, 1, 2)))
        values = dict(rcr_from_distribution(point_mass(m, m.preferences[0])).items())
        values[(1, 0b011)] = Fraction(-1)
        with pytest.raises(
            RumkitError,
            match="not a valid random choice rule: 1 negative entries, 1 menus with sum != 1",
        ):
            recover_distribution(m, RandomChoiceRule(u, values))

    def test_sampled_data_within_tolerance(self):
        u = Universe.of_size(3)
        m = latin_square(Preference(u, (0, 1, 2)))
        dist = PreferenceDistribution(
            m, dict(zip(m.preferences, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))))
        )
        sample = sample_empirical_rule(dist, trials=4000, seed=5)
        report = recover_distribution(m, sample.rule, tolerance=Fraction(1, 20))
        assert report.status in (RecoveryStatus.EXACT, RecoveryStatus.APPROXIMATE)
        for pref, mass in dist.entries:
            assert abs(report.mass_of(pref) - mass) < Fraction(1, 10)

    @pytest.mark.parametrize("tolerance", [0.5, "abc", "1e100000000", True])
    def test_inexact_tolerance_rejected(self, tolerance):
        u = Universe.of_size(3)
        m = latin_square(Preference(u, (0, 1, 2)))
        data = rcr_from_distribution(point_mass(m, m.preferences[0]))
        with pytest.raises(RumkitError):
            recover_distribution(m, data, tolerance=tolerance)

    def test_roundtrip_random_decomposable_models(self, rng):
        for n in (4, 5):
            u = Universe.of_size(n)
            done = 0
            while done < 8:
                m = random_model(rng, u, rng.randrange(1, 8))
                if not is_edge_decomposable(m):
                    continue
                nu = random_distribution(rng, m)
                report = recover_distribution(m, rcr_from_distribution(nu))
                assert report.status is RecoveryStatus.EXACT
                assert report.distribution == nu
                done += 1


def restart_scan_extend(seed: Model) -> Model:
    """Extension oracle: after each addition, rescan the contour pairs from the
    first for one whose class misses the model, and add its canonical member."""
    u = seed.universe

    def pairs(pref: Preference) -> set[tuple[int, int]]:
        r = pref.ranking
        return {(x, sum(1 << y for y in r[i:])) for i, x in enumerate(r)}

    prefs = list(seed.preferences)
    covered = set().union(*map(pairs, prefs))
    while True:
        target = next((k for k in lattice(u.n).keys if k not in covered), None)
        if target is None:
            return Model.of(u, prefs)
        x, mask = target
        above = [y for y in range(u.n) if not mask >> y & 1]
        below = [y for y in range(u.n) if mask >> y & 1 and y != x]
        pref = Preference(u, tuple(above + [x] + below))
        prefs.append(pref)
        covered |= pairs(pref)


class TestExtend:
    def test_singleton_n3_reaches_all_orders(self):
        u = Universe.of_size(3)
        seed = Model.of(u, [preference_from_labels(u, "abc")])
        extended = extend_edge_decomposable(seed)
        assert len(extended) == 6
        assert extended == Model.of(u, all_preferences(u))

    def test_singleton_n4_invariants(self):
        u = Universe.of_size(4)
        seed = Model.of(u, [preference_from_labels(u, "abcd")])
        extended = extend_edge_decomposable(seed)
        assert len(extended) <= 18
        assert set(seed.preferences) <= set(extended.preferences)
        assert is_edge_decomposable(extended)
        assert is_identified(extended)

    def test_superset_of_seed(self, rng):
        u = Universe.of_size(4)
        done = 0
        while done < 5:
            m = random_model(rng, u, rng.randrange(1, 5))
            if not is_edge_decomposable(m):
                continue
            extended = extend_edge_decomposable(m)
            assert set(m.preferences) <= set(extended.preferences)
            done += 1

    def test_matches_restart_scan_oracle(self, rng):
        seeds = [latin_square(Preference(Universe.of_size(n), tuple(range(n)))) for n in (4, 5, 6)]
        for n in (2, 3, 4, 5, 6):
            u = Universe.of_size(n)
            while len(seeds) < 3 + 4 * (n - 1):
                m = random_model(rng, u, rng.randrange(1, min(6, factorial(n)) + 1))
                if is_edge_decomposable(m):
                    seeds.append(m)
        for seed in seeds:
            assert extend_edge_decomposable(seed) == restart_scan_extend(seed)

    def test_a_model_it_cannot_grow_is_returned_as_it_is(self):
        u = Universe.of_size(4)
        grown = extend_edge_decomposable(Model.of(u, [preference_from_labels(u, "abcd")]))
        assert extend_edge_decomposable(grown) is grown

    def test_rejects_nondecomposable_seed(self):
        with pytest.raises(NotEdgeDecomposableError):
            extend_edge_decomposable(fishburn_model())

    def test_decomposable_implies_identified(self, rng):
        for n in (4, 5):
            u = Universe.of_size(n)
            for _ in range(15):
                m = random_model(rng, u, rng.randrange(1, 11))
                if is_edge_decomposable(m):
                    assert is_identified(m)
