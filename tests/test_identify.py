from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest

from conftest import (
    best_element_rule,
    identified_on_all_rows,
    max_basis,
    max_basis_plus_one,
    nullspace_vector,
    random_model,
    random_preference,
    rule_vector,
)
from rumkit import (
    Model,
    Preference,
    PreferenceDistribution,
    RumkitError,
    Universe,
    all_preferences,
    double_cover_model,
    extend_edge_decomposable,
    fishburn_distributions,
    fishburn_model,
    is_edge_decomposable,
    is_identified,
    latin_square,
    lattice,
    max_identified_size,
    mobius_inverse,
    mobius_vector,
    point_mass,
    preference_from_labels,
    rank,
    rcr_from_distribution,
)
from rumkit import identify
from rumkit.identify import _eliminate


def rank_oracle(vectors) -> int:
    """Plain Fraction row reduction, independent of the fraction-free path."""
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivval = rows[r][col]
        for i in range(r + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / pivval
                for c in range(col, ncols):
                    rows[i][c] -= f * rows[r][c]
        r += 1
        if r == len(rows):
            break
    return r


def rank_mod2(vectors) -> int:
    """Dense row reduction over GF(2)."""
    rows = [[v % 2 for v in vec] for vec in vectors]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def with_swap_square(rng, model: Model) -> Model:
    """model plus a ranking r and its variants by two disjoint adjacent swaps.

    The four circuits satisfy r + r_both = r_first + r_second (the Fishburn
    square), so the result is never identified.
    """
    n = model.universe.n
    ranking = list(range(n))
    rng.shuffle(ranking)
    i = rng.randrange(n - 3)
    j = rng.randrange(i + 2, n - 1)

    def swapped(*positions):
        r = list(ranking)
        for k in positions:
            r[k], r[k + 1] = r[k + 1], r[k]
        return tuple(r)

    square = [swapped(), swapped(i), swapped(j), swapped(i, j)]
    chosen = {p.ranking: p for p in model}
    for r in square:
        chosen.setdefault(r, Preference(model.universe, r))
    prefs = list(chosen.values())
    rng.shuffle(prefs)
    return Model.of(model.universe, prefs)


class TestVectors:
    def test_two_alternative_positions(self):
        u = Universe(("x", "y"))
        p = preference_from_labels(u, "xy")
        keys = lattice(2).keys
        q = mobius_vector(p)
        ones_q = {keys[i] for i, v in enumerate(q) if v}
        assert ones_q == {(0, 0b11), (1, 0b10)}
        pv = rule_vector(p)
        ones_p = {keys[i] for i, v in enumerate(pv) if v}
        assert ones_p == {(0, 0b11), (0, 0b01), (1, 0b10)}

    def test_coordinate_sums(self):
        u = Universe.of_size(4)
        for p in all_preferences(u):
            assert sum(mobius_vector(p)) == 4
            assert sum(rule_vector(p)) == 2**4 - 1

    def test_mobius_vector_matches_mobius_inverse_of_point_mass(self):
        u = Universe.of_size(4)
        for p in list(all_preferences(u))[:8]:
            rule = rcr_from_distribution(point_mass(Model.of(u, [p]), p))
            q = mobius_inverse(rule)
            flat = tuple(int(q.value(x, mask)) for x, mask in lattice(4).keys)
            assert flat == mobius_vector(p)
            rv = tuple(int(rule.value(x, mask)) for x, mask in lattice(4).keys)
            assert rv == rule_vector(p)


class TestRank:
    def test_empty(self):
        assert rank([]) == 0

    def test_all_q_vectors_n3(self):
        u = Universe.of_size(3)
        vectors = [mobius_vector(p) for p in all_preferences(u)]
        assert rank(vectors) == 6 == max_identified_size(3)

    def test_all_q_vectors_n4(self):
        u = Universe.of_size(4)
        vectors = [mobius_vector(p) for p in all_preferences(u)]
        assert rank(vectors) == 18

    def test_floats_refused_like_everywhere_else(self):
        # as binary values 0.1 and 0.3 are not in ratio 1:3
        assert rank([["0.1", "0.3"], [1, 3]]) == 1
        with pytest.raises(RumkitError, match="float 0.1 rejected"):
            rank([[0.1, 0.3], [1, 3]])

    def test_fishburn_rank_three(self):
        m = fishburn_model()
        vectors = [mobius_vector(p) for p in m]
        assert rank(vectors) == rank_oracle(vectors) == 3
        # the nullspace direction: abcd + badc - abdc - bacd = 0
        by_label = {"".join(p.to_labels()): mobius_vector(p) for p in m}
        combo = [
            a + d - b - c
            for a, b, c, d in zip(
                by_label["abcd"], by_label["abdc"], by_label["bacd"], by_label["badc"]
            )
        ]
        assert not any(combo)

    def test_matches_oracle_on_random_matrices(self, rng):
        for _ in range(40):
            nrows = rng.randrange(1, 7)
            ncols = rng.randrange(1, 7)
            mat = [
                [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            if rng.random() < 0.5 and nrows >= 2:
                # force dependence
                mat[-1] = [2 * v for v in mat[0]]
            assert rank(mat) == rank_oracle(mat)

    def test_mixed_length_rejected(self):
        with pytest.raises(RumkitError):
            rank([(1, 0), (1, 0, 0)])

    def test_small_determinants(self):
        assert rank([(2,)]) == 1
        # determinant 2: singular mod 2, regular over Q
        assert rank([(1, 1), (1, 3)]) == 2

    def test_matches_oracle_on_large_rationals(self, rng):
        big, den = 10**20, 10**6
        for _ in range(40):
            nrows = rng.randrange(1, 7)
            ncols = rng.randrange(1, 7)
            mat = [
                [
                    Fraction(rng.randrange(-big, big + 1), rng.randrange(1, den + 1))
                    if rng.random() < 0.8
                    else Fraction(0)
                    for _ in range(ncols)
                ]
                for _ in range(nrows)
            ]
            if rng.random() < 0.5 and nrows >= 2:
                # force a rational multiple of an earlier row
                k = rng.randrange(nrows - 1)
                factor = Fraction(rng.randrange(-big, big + 1) or 1, rng.randrange(1, den + 1))
                mat[-1] = [factor * v for v in mat[k]]
            assert rank(mat) == rank_oracle(mat)

    def test_dependency_matches_nullspace_oracle(self, rng):
        big = 10**20
        for _ in range(40):
            nrows = rng.randrange(2, 7)
            ncols = rng.randrange(1, 7)
            mat = [
                [rng.randrange(-big, big + 1) if rng.random() < 0.7 else 0 for _ in range(ncols)]
                for _ in range(nrows)
            ]
            # the last row is an integer combination of earlier ones, so
            # some row depends on its predecessors
            weights = [rng.randrange(-5, 6) for _ in range(nrows - 1)]
            mat[-1] = [sum(w * vec[c] for w, vec in zip(weights, mat)) for c in range(ncols)]
            rows = [{c: v for c, v in enumerate(vec) if v} for vec in mat]
            steps = list(_eliminate(rows))
            rk = sum(combo is None for combo in steps)
            i, combo = next((i, c) for i, c in enumerate(steps) if c is not None)
            dependency = {j: Fraction(v, combo[i]) for j, v in combo.items()}
            assert rk == rank_oracle(mat) < nrows
            oracle = nullspace_vector(mat)
            assert dependency == {j: c for j, c in enumerate(oracle) if c}

    def test_exact_where_the_screen_prime_is_not(self):
        p = (1 << 61) - 1
        assert rank([(p,)]) == 1
        # determinant p: singular mod p, regular over Q
        assert rank([(1, 1), (1, 1 + p)]) == 2


class TestScreen:
    """The mod-2 view of the circuits decides nothing: a GF(2) dependency
    may still be independent over Q."""

    def test_double_cover_answers_through_exact_rank(self, monkeypatch):
        model = double_cover_model()
        vectors = [mobius_vector(p) for p in model]
        assert (len(model), rank_mod2(vectors)) == (8, 7)
        calls = []

        def counted(vectors):
            vectors = list(vectors)
            calls.append(len(vectors))
            return rank(vectors)

        monkeypatch.setattr(identify, "rank", counted)
        res = is_identified(model)
        assert res.identified and res.certificate is None
        assert calls == [8]


class TestIsIdentified:
    def test_fishburn_not_identified_with_certificate(self):
        res = is_identified(fishburn_model())
        assert not res
        cert = res.certificate
        nu1, nu2 = fishburn_distributions()
        assert {cert.nu, cert.nu_prime} == {nu1, nu2}
        assert set(cert.nu.support).isdisjoint(cert.nu_prime.support)
        assert rcr_from_distribution(cert.nu) == rcr_from_distribution(cert.nu_prime)
        # the certificate combines mobius vectors to zero
        coeff = dict(cert.coefficients)
        total = [Fraction(0)] * len(mobius_vector(next(iter(fishburn_model()))))
        for p, c in coeff.items():
            for i, v in enumerate(mobius_vector(p)):
                total[i] += c * v
        assert not any(total)

    @pytest.mark.parametrize(
        "combo, message",
        [
            ({0: 1, 2: 3}, "degenerate nullspace vector: one-signed coefficients"),
            ({1: -2, 3: -1}, "degenerate nullspace vector: one-signed coefficients"),
            ({0: 1, 2: -1}, "certificate distributions do not induce the same rule"),
        ],
    )
    def test_certificate_refuses_a_combination_that_certifies_nothing(self, combo, message):
        with pytest.raises(RumkitError, match=f"^{message}$"):
            identify._certificate(fishburn_model(), combo)

    def test_certificate_distributions_are_the_mapping_form(self, rng):
        u = Universe.of_size(4)
        seen = 0
        while seen < 20:
            m = random_model(rng, u, rng.randrange(2, 24))
            cert = is_identified(m).certificate
            if cert is None:
                continue
            seen += 1
            coeffs = dict(cert.coefficients)
            pos = {p: c for p, c in coeffs.items() if c > 0}
            neg = {p: -c for p, c in coeffs.items() if c < 0}
            for dist, part in ((cert.nu, pos), (cert.nu_prime, neg)):
                total = sum(part.values())
                built = PreferenceDistribution(m, {p: c / total for p, c in part.items()})
                assert dist == built and hash(dist) == hash(built)

    @pytest.mark.parametrize("n, most", [(4, 24), (5, 70)])
    def test_rank_and_certificate_match_oracles(self, rng, n, most):
        u = Universe.of_size(n)
        deficient = 0
        for _ in range(15):
            m = random_model(rng, u, rng.randrange(2, most + 1))
            vectors = [mobius_vector(p) for p in m]
            full = rank(vectors) == len(m)
            assert rank(vectors) == rank_oracle(vectors)
            res = is_identified(m)
            assert res.identified == full
            if not full:
                deficient += 1
                oracle = nullspace_vector(vectors)
                expected = tuple((p, c) for p, c in zip(m, oracle) if c)
                assert res.certificate.coefficients == expected
        assert deficient >= 5

    def test_max_basis_plus_one_certified_n7(self):
        res = is_identified(max_basis_plus_one(7))
        assert not res
        cert = res.certificate
        assert set(cert.nu.support).isdisjoint(cert.nu_prime.support)
        assert rcr_from_distribution(cert.nu) == rcr_from_distribution(cert.nu_prime)

    @pytest.mark.parametrize("n, most", [(4, 12), (5, 30), (6, 40)])
    def test_certificate_matches_nullspace_oracle(self, rng, n, most):
        u = Universe.of_size(n)
        for _ in range(8):
            m = with_swap_square(rng, random_model(rng, u, rng.randrange(1, most + 1)))
            res = is_identified(m)
            assert not res
            oracle = nullspace_vector([mobius_vector(p) for p in m])
            expected = tuple((p, c) for p, c in zip(m, oracle) if c)
            assert res.certificate.coefficients == expected

    def test_max_basis_plus_one_certified_n8(self):
        model = max_basis_plus_one(8)
        res = is_identified(model)
        assert not res
        cert = res.certificate
        assert set(cert.nu.support) <= set(model)
        assert set(cert.nu_prime.support) <= set(model)
        assert set(cert.nu.support).isdisjoint(cert.nu_prime.support)
        assert best_element_rule(cert.nu) == best_element_rule(cert.nu_prime)

    def test_answers_build_no_lattice(self):
        from rumkit.core import _build_coordinates

        u = Universe.of_size(14)
        fixed = tuple(range(4, 14))
        fishburn = Model.of(
            u, [Preference(u, tuple(u.index(c) for c in r) + fixed)
                for r in ("abcd", "badc", "abdc", "bacd")]
        )
        before = _build_coordinates.cache_info()
        assert is_identified(latin_square(Preference(u, tuple(range(14)))))
        res = is_identified(fishburn)
        assert not res and len(res.certificate.coefficients) == 4
        assert _build_coordinates.cache_info() == before

    def test_double_cover_identified(self):
        assert is_identified(double_cover_model())

    def test_singleton_identified(self):
        u = Universe.of_size(4)
        p = Preference(u, (3, 1, 0, 2))
        assert is_identified(Model.of(u, [p]))

    def test_subsets_of_identified_are_identified(self, rng):
        u = Universe.of_size(4)
        prefs = list(all_preferences(u))
        for _ in range(10):
            m = random_model(rng, u, rng.randrange(2, 7))
            if is_identified(m):
                sub = rng.sample(list(m.preferences), rng.randrange(1, len(m)))
                assert is_identified(Model.of(u, sub))

    def test_rank_routes_agree_exhaustive_n3(self):
        u = Universe.of_size(3)
        prefs = list(all_preferences(u))
        for bits in range(1, 1 << 6):
            chosen = [prefs[i] for i in range(6) if bits >> i & 1]
            rq = rank([mobius_vector(p) for p in chosen])
            rp = rank([rule_vector(p) for p in chosen])
            assert rq == rp

    def test_rank_routes_agree_random_n5(self, rng):
        u = Universe.of_size(5)
        for _ in range(10):
            m = random_model(rng, u, rng.randrange(1, 8))
            assert rank([mobius_vector(p) for p in m]) == rank(
                [rule_vector(p) for p in m]
            )


class TestStuckCore:
    """Every model is decided on the greedy peel's stuck core."""

    @pytest.mark.parametrize("n, most", [(2, 2), (3, 6), (4, 24), (5, 60), (6, 100)])
    def test_answers_and_certificates_match_the_full_row_oracle(self, rng, n, most):
        u = Universe.of_size(n)
        deficient = 0
        for _ in range(40):
            m = random_model(rng, u, rng.randrange(1, most + 1))
            res = is_identified(m)
            assert res == identified_on_all_rows(m)
            if not res:
                # the certificate's contour-mass check, against the rules
                cert = res.certificate
                assert rcr_from_distribution(cert.nu) == rcr_from_distribution(cert.nu_prime)
            deficient += not res
        assert deficient >= 5 or n < 4

    def test_identified_core_behind_a_failed_screen(self, rng):
        # the double cover is GF(2)-dependent but identified; added members
        # that peel off leave it as the core, so the model stays identified
        cover = double_cover_model()
        u = cover.universe
        identified = 0
        for _ in range(12):
            chosen = {p.ranking: p for p in cover}
            for _ in range(rng.randrange(1, 4)):
                pref = random_preference(rng, u)
                chosen.setdefault(pref.ranking, pref)
            m = Model.of(u, chosen.values())
            assert rank_mod2([mobius_vector(p) for p in m]) < len(m)
            res = is_identified(m)
            assert res == identified_on_all_rows(m)
            identified += res.identified
        assert identified >= 3

    @pytest.mark.parametrize("n, most", [(4, 24), (5, 60), (6, 100)])
    def test_a_failed_screen_leaves_a_dependent_core(self, rng, n, most):
        u = Universe.of_size(n)
        failed = 0
        for _ in range(40):
            m = random_model(rng, u, rng.randrange(1, most + 1))
            if rank_mod2([mobius_vector(p) for p in m]) == len(m):
                continue
            failed += 1
            stuck = is_edge_decomposable(m).stuck
            assert stuck is not None and len(stuck) > 0
            assert rank_mod2([mobius_vector(p) for p in stuck]) < len(stuck)
        assert failed >= 5

    def test_decomposable_models_are_identified_without_rank(self, rng, monkeypatch):
        def refused(vectors):
            raise AssertionError("rank called on a decomposable model")

        monkeypatch.setattr(identify, "rank", refused)
        seen = 0
        for n in range(2, 7):
            u = Universe.of_size(n)
            for _ in range(20):
                m = random_model(rng, u, rng.randrange(1, min(24, factorial(n)) + 1))
                if not is_edge_decomposable(m):
                    continue
                seen += 1
                for model in (m, extend_edge_decomposable(m)):
                    res = is_identified(model)
                    assert res.identified and res.certificate is None
                    vectors = [mobius_vector(p) for p in model]
                    assert rank_oracle(vectors) == len(model)
        assert seen >= 50

    def test_a_no_reads_only_the_core(self, monkeypatch):
        model = max_basis_plus_one(7)
        stuck = is_edge_decomposable(model).stuck
        touched = len({key for p in stuck for key in p.contour_keys()})
        ranked, dense = [], []

        def counted(vectors):
            vectors = list(vectors)
            ranked.append([len(v) for v in vectors])
            return rank(vectors)

        monkeypatch.setattr(identify, "rank", counted)
        monkeypatch.setattr(identify, "mobius_vector", dense.append)
        assert not is_identified(model)
        assert len(ranked) == 1 and len(ranked[0]) == len(stuck)
        assert max(ranked[0]) <= touched < len(lattice(7).keys)
        assert dense == []

    def test_only_a_no_calls_rank(self, rng, monkeypatch):
        # perfbench reads identify.screen_hit_ratio from the rank and
        # mobius_vector calls: none for a yes, one for a no
        ranked, dense = [], []

        def counted(vectors):
            ranked.append(1)
            return rank(vectors)

        monkeypatch.setattr(identify, "rank", counted)
        monkeypatch.setattr(identify, "mobius_vector", dense.append)
        basis = max_basis(7)
        half = Model.of(basis.universe, rng.sample(basis.preferences, len(basis) // 2))
        for model in (basis, half):
            assert is_identified(model)
        assert (ranked, dense) == ([], [])
        assert not is_identified(max_basis_plus_one(7))
        assert (ranked, dense) == ([1], [])


class TestBound:
    def test_values(self):
        assert max_identified_size(1) == 1
        assert max_identified_size(4) == 18
        assert max_identified_size(5) == 50
        assert max_identified_size(9) == 1794

    def test_intro_ratio(self):
        import math

        assert Fraction(max_identified_size(9), math.factorial(9)) < Fraction(1, 200)

    def test_rejects_nonpositive(self):
        with pytest.raises(RumkitError):
            max_identified_size(0)


def append_one_preserves_rank(vectors) -> bool:
    """Appending a constant 1 to vectors of equal nonzero coordinate sum keeps rank.

    The precondition (equal nonzero sums) is enforced, and under it the
    answer is always True.
    """
    if not vectors:
        raise RumkitError("need at least one vector")
    sums = {sum(Fraction(v) for v in vec) for vec in vectors}
    if len(sums) != 1 or 0 in sums:
        raise RumkitError(
            f"coordinate sums must be equal and nonzero, got {sorted(sums)}"
        )
    plain = rank(vectors)
    extended = rank([tuple(vec) + (1,) for vec in vectors])
    return plain == extended


class TestAppendOne:
    def test_q_vectors_of_models(self, rng):
        u = Universe.of_size(4)
        for _ in range(5):
            m = random_model(rng, u, rng.randrange(1, 8))
            assert append_one_preserves_rank([mobius_vector(p) for p in m])

    def test_unit_vectors(self):
        assert append_one_preserves_rank([(1, 0), (0, 1)])

    def test_unequal_sums_rejected(self):
        with pytest.raises(RumkitError, match="sums"):
            append_one_preserves_rank([(1, 0), (1, 1)])

    def test_zero_sum_rejected(self):
        with pytest.raises(RumkitError, match="sums"):
            append_one_preserves_rank([(1, -1), (-1, 1)])
