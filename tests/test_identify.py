from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import random_model
from rumkit import (
    Model,
    Preference,
    RumkitError,
    Universe,
    all_preferences,
    contour_pair_keys,
    double_cover_model,
    fishburn_distributions,
    fishburn_model,
    is_identified,
    max_identified_size,
    mobius_inverse,
    mobius_vector,
    point_mass,
    preference_from_labels,
    rank,
    rcr_from_distribution,
    rule_vector,
)


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


class TestVectors:
    def test_two_alternative_positions(self):
        u = Universe(("x", "y"))
        p = preference_from_labels(u, "xy")
        keys = contour_pair_keys(2)
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
            flat = tuple(int(q.value(x, mask)) for x, mask in contour_pair_keys(4))
            assert flat == mobius_vector(p)
            rv = tuple(int(rule.value(x, mask)) for x, mask in contour_pair_keys(4))
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
