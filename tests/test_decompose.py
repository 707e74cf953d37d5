from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from conftest import random_distribution, random_model
from rumkit import (
    DecompositionWitness,
    Model,
    NotEdgeDecomposableError,
    Preference,
    PreferenceDistribution,
    RecoveryStatus,
    RumkitError,
    Universe,
    WitnessError,
    all_preferences,
    build_diagram,
    contour_pair_keys,
    directed_spanning_tree,
    double_cover_model,
    extend_edge_decomposable,
    fishburn_model,
    in_contour_class,
    is_edge_decomposable,
    is_identified,
    latin_square,
    mobius_inverse,
    point_mass,
    preference_basis,
    preference_from_labels,
    rcr_from_distribution,
    recover_distribution,
    sample_empirical_rule,
    shadowed_triple_model,
    upper_contour_pairs,
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
                for cp in upper_contour_pairs(pref):
                    members = [p for p in subset if in_contour_class(p, cp)]
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
            for cp in reversed(upper_contour_pairs(pref)):
                members = [p for p in remaining if in_contour_class(p, cp)]
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
        witness = DecompositionWitness(tuple(reversed(basis)))
        assert validate_witness(m, witness)

    def test_swapped_entries_fail_suffix_uniqueness(self):
        m = shadowed_triple_model()
        res = is_edge_decomposable(m)
        entries = list(res.witness.entries)
        entries[0], entries[1] = entries[1], entries[0]
        assert not validate_witness(m, DecompositionWitness(tuple(entries)))

    def test_coverage_mismatch_raises(self):
        m = shadowed_triple_model()
        res = is_edge_decomposable(m)
        with pytest.raises(WitnessError):
            validate_witness(m, DecompositionWitness(res.witness.entries[:-1]))


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

    def test_not_decomposable_raises(self):
        m = fishburn_model()
        data = rcr_from_distribution(point_mass(m, m.preferences[0]))
        with pytest.raises(NotEdgeDecomposableError):
            recover_distribution(m, data)

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
        target = next((k for k in contour_pair_keys(u.n) if k not in covered), None)
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
