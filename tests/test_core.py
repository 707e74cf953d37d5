from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_model
from rumkit import (
    LabelError,
    Model,
    Preference,
    RumkitError,
    Universe,
    all_preferences,
    check_minimal_mutual_agreement,
    contour_class,
    lattice,
    preference_from_labels,
)
from rumkit.errors import shown

U2 = Universe(("a", "b"))
U3 = Universe(("a", "b", "c"))
U4 = Universe(("a", "b", "c", "d"))


def brute_in_class(pref: Preference, x: int, menu_mask: int) -> bool:
    """Definition check via pairwise comparisons only (independent oracle)."""
    if not menu_mask >> x & 1:
        return False
    n = pref.universe.n
    for y in range(n):
        if y == x:
            continue
        if menu_mask >> y & 1:
            if not pref.prefers(x, y):
                return False
        else:
            if not pref.prefers(y, x):
                return False
    return True


def pair(universe: Universe, x_label: str, menu_labels: str) -> tuple[int, int]:
    return (universe.index(x_label), universe.menu_of_labels(menu_labels))


def in_class(pref: Preference, key: tuple[int, int]) -> bool:
    x, mask = key
    return pref.contour_menu_mask(x) == mask


class TestPreferenceFromLabels:
    def test_direct_construction(self):
        p = preference_from_labels(U2, ["a", "b"])
        assert p.ranking == (0, 1)

    def test_four_alternatives(self):
        p = preference_from_labels(U4, "abcd")
        assert p.to_labels() == ("a", "b", "c", "d")

    def test_duplicate_label(self):
        with pytest.raises(LabelError, match="duplicate"):
            preference_from_labels(U2, ["a", "a"])

    def test_unknown_label(self):
        with pytest.raises(LabelError, match="unknown"):
            preference_from_labels(U2, ["a", "z"])

    def test_wrong_length(self):
        with pytest.raises(LabelError, match="2"):
            preference_from_labels(U2, ["a"])

    @pytest.mark.parametrize("labels, message", [
        (["a", "b", "z"], "unknown label 'z'"),
        (["a", "a", "b"], "duplicate label 'a' in ranking"),
        # an unknown and a repeated label: the first in list order names the error
        (["z", "a", "a"], "unknown label 'z'"),
        (["a", "a", "z"], "duplicate label 'a' in ranking"),
        (["a", "b"], "ranking has 2 labels but the universe has 3"),
        (["a", "b", "c", "d"], "ranking has 4 labels but the universe has 3"),
        (["a", "b", 3], "unknown label 3"),
        (["a", ["b"], "c"], "unknown label ['b']"),
    ])
    def test_error_text(self, labels, message):
        with pytest.raises(LabelError) as info:
            preference_from_labels(U3, labels)
        assert str(info.value) == message

    @given(st.lists(st.sampled_from(["a", "b", "c", "d", "z", 3]), max_size=5))
    def test_matches_the_label_by_label_oracle(self, labels):
        def oracle():
            if len(labels) != U4.n:
                raise LabelError(
                    f"ranking has {len(labels)} labels but the universe has {U4.n}"
                )
            seen = []
            for lab in labels:
                if lab in seen:
                    raise LabelError(f"duplicate label {shown(lab)} in ranking")
                if lab not in U4.labels:
                    raise LabelError(f"unknown label {shown(lab)}")
                seen.append(lab)
            return tuple(U4.labels.index(lab) for lab in labels)

        def outcome(build):
            try:
                return build()
            except LabelError as exc:
                return str(exc)

        got = outcome(lambda: preference_from_labels(U4, labels).ranking)
        assert got == outcome(oracle)


class TestContourClass:
    def test_top_element_full_menu(self):
        p = preference_from_labels(U3, "abc")
        assert in_class(p, pair(U3, "a", "abc"))

    def test_forced_by_definition(self):
        p = preference_from_labels(U3, "abc")
        assert in_class(p, pair(U3, "b", "bc"))
        assert not in_class(p, pair(U3, "b", "abc"))

    def test_badc_contour_positions(self):
        # expected values computed with the pairwise-definition oracle:
        # under b>a>d>c the weak lower contour set of d is {c,d}, of c is {c}
        p = preference_from_labels(U4, "badc")
        d, c = U4.index("d"), U4.index("c")
        cd = U4.menu_of_labels("cd")
        assert brute_in_class(p, d, cd) is True
        assert in_class(p, pair(U4, "d", "cd"))
        assert brute_in_class(p, c, cd) is False
        assert not in_class(p, pair(U4, "c", "cd"))
        assert not in_class(p, pair(U4, "d", "d"))
        assert in_class(p, pair(U4, "c", "c"))

    def test_agrees_with_bruteforce_everywhere(self):
        for p in all_preferences(U4):
            for x, mask in lattice(4).keys:
                assert in_class(p, (x, mask)) == brute_in_class(p, x, mask)

    def test_model_class_agrees_with_bruteforce(self):
        model = Model.of(U4, all_preferences(U4))
        for x, mask in lattice(4).keys:
            expected = tuple(p for p in model if brute_in_class(p, x, mask))
            assert contour_class(model, (x, mask)) == expected

    @pytest.mark.parametrize(
        "key", [(4, 0b1111), (0, 0b10001), (1, 0b101), (0, 0), (-1, 0b1111), [0, 0b1111]]
    )
    def test_off_lattice_key_refused(self, key):
        model = Model.of(U4, [preference_from_labels(U4, "abcd")])
        with pytest.raises(RumkitError, match=re.escape(str(key))):
            contour_class(model, key)

    def test_key_checked_without_the_lattice(self, monkeypatch):
        from rumkit.core import CAP_ENV_VAR

        model = Model.of(U4, all_preferences(U4))
        monkeypatch.setenv(CAP_ENV_VAR, "3")
        for x, mask in [(0, 0b1111), (2, 0b0110), (3, 0b1000)]:
            expected = tuple(p for p in model if brute_in_class(p, x, mask))
            assert contour_class(model, (x, mask)) == expected


class TestUpperContourPairs:
    """Preference.contour_keys(): the pairs whose contour class holds pref."""

    def test_two_alternatives(self):
        p = preference_from_labels(U2, "ab")
        assert list(p.contour_keys()) == [(0, 0b11), (1, 0b10)]

    def test_four_alternatives_first_pair(self):
        p = preference_from_labels(U4, "abcd")
        keys = list(p.contour_keys())
        assert len(keys) == 4
        assert keys[0] == (0, U4.full_mask)

    def test_exactly_the_pairs_in_class(self):
        for p in all_preferences(U3):
            member_keys = {
                (x, mask) for x, mask in lattice(3).keys if brute_in_class(p, x, mask)
            }
            assert member_keys == set(p.contour_keys())
            assert len(member_keys) == 3

    def test_one_best_per_contour_menu(self):
        for p in all_preferences(U4):
            seen: dict[int, int] = {}
            for x, mask in lattice(4).keys:
                if in_class(p, (x, mask)):
                    assert seen.setdefault(mask, x) == x


class TestReverse:
    def test_simple(self):
        p = preference_from_labels(U3, "abc")
        assert p.reverse().to_labels() == ("c", "b", "a")

    @given(st.permutations(list(range(5))))
    def test_involution(self, perm):
        u = Universe.of_size(5)
        p = Preference(u, tuple(perm))
        assert p.reverse().reverse() == p

    def test_reverse_of_identity_order(self):
        u = Universe.of_size(4)
        order = Preference(u, (0, 1, 2, 3))
        assert order.reverse().ranking == (3, 2, 1, 0)

    @given(st.permutations(list(range(4))))
    def test_reverse_flips_every_comparison(self, perm):
        u = Universe.of_size(4)
        p = Preference(u, tuple(perm))
        r = p.reverse()
        for x in range(4):
            for y in range(4):
                if x != y:
                    assert p.prefers(x, y) == r.prefers(y, x)


class TestMinimalMutualAgreement:
    def test_share_worst(self):
        m = Model.of(
            U3,
            [preference_from_labels(U3, "abc"), preference_from_labels(U3, "bac")],
        )
        assert check_minimal_mutual_agreement(m)

    def test_mutually_reversed(self):
        m = Model.of(
            U2, [preference_from_labels(U2, "ab"), preference_from_labels(U2, "ba")]
        )
        assert not check_minimal_mutual_agreement(m)

    def test_halves_of_all_orders(self):
        # pick one of each reversal pair: 2^3 models of size 3 = 3!/2, all pass
        prefs = list(all_preferences(U3))
        pairs = []
        used = set()
        for p in prefs:
            if p.ranking in used:
                continue
            used.add(p.ranking)
            used.add(p.reverse().ranking)
            pairs.append((p, p.reverse()))
        assert len(pairs) == 3
        for bits in range(8):
            chosen = [pr[(bits >> i) & 1] for i, pr in enumerate(pairs)]
            m = Model.of(U3, chosen)
            assert len(m) == 3
            assert check_minimal_mutual_agreement(m)
            spoiled = Model.of(U3, chosen + [chosen[0].reverse()])
            assert not check_minimal_mutual_agreement(spoiled)

    def test_needs_two_alternatives(self):
        u1 = Universe.of_size(1)
        with pytest.raises(RumkitError):
            check_minimal_mutual_agreement(Model.of(u1, [Preference(u1, (0,))]))


class TestPreferenceRanking:
    @pytest.mark.parametrize("ranking, message", [
        # a list is unhashable, so Model.of would fail on it with a bare TypeError
        ([0, 1, 2], "ranking [0, 1, 2] is not a tuple"),
        # 2.0 compares equal to 2, and a shift refuses it
        ((0, 1, 2.0), "ranking (0, 1, 2.0) is not a permutation of 0..2"),
        ((0, "b", 2), "ranking (0, 'b', 2) is not a permutation of 0..2"),
        ((0, 1), "ranking (0, 1) is not a permutation of 0..2"),
        ((0, 1, 1), "ranking (0, 1, 1) is not a permutation of 0..2"),
        ((0, 1, -1), "ranking (0, 1, -1) is not a permutation of 0..2"),
        ((0, 1, 2, 3), "ranking (0, 1, 2, 3) is not a permutation of 0..2"),
        ((0, 1, 10**18), "ranking (0, 1, 1000000000000000000) is not a permutation of 0..2"),
    ])
    def test_bad_ranking_refused_by_name(self, ranking, message):
        with pytest.raises(RumkitError) as info:
            Preference(U3, ranking)
        assert str(info.value) == message


class TestModel:
    def test_equality_is_set_equality(self):
        a = preference_from_labels(U3, "abc")
        b = preference_from_labels(U3, "cba")
        assert Model.of(U3, [a, b]) == Model.of(U3, [b, a])

    def test_duplicates_rejected(self):
        a = preference_from_labels(U3, "abc")
        with pytest.raises(RumkitError, match="duplicate"):
            Model.of(U3, [a, Preference(U3, (0, 1, 2))])

    def test_empty_rejected(self):
        with pytest.raises(RumkitError):
            Model.of(U3, [])

    def test_membership_needs_universe_and_ranking(self):
        m = Model.of(U3, [preference_from_labels(U3, "abc")])
        assert Preference(U3, (0, 1, 2)) in m
        assert Preference(U3, (0, 2, 1)) not in m
        assert Preference(Universe(("x", "y", "z")), (0, 1, 2)) not in m
        assert (0, 1, 2) not in m

    def test_random_model_refuses_more_than_n_factorial(self, rng):
        assert len(random_model(rng, U3, 6)) == 6
        with pytest.raises(ValueError, match="distinct preferences"):
            random_model(rng, U3, 7)


class TestCoordinateOrder:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_count(self, n):
        assert len(lattice(n).keys) == n * 2 ** (n - 1)

    def test_order_levels_then_mask_then_element(self):
        keys = lattice(3).keys
        sizes = [mask.bit_count() for _, mask in keys]
        assert sizes == sorted(sizes, reverse=True)
        # within one level, mask ascending and x ascending within a mask
        level2 = [(x, mask) for x, mask in keys if mask.bit_count() == 2]
        assert level2 == sorted(level2, key=lambda key: (key[1], key[0]))

    def test_distinct_and_complete(self):
        keys = lattice(4).keys
        assert len(set(keys)) == len(keys)
        assert all(mask >> x & 1 for x, mask in keys)

    def test_built_once_per_n(self):
        assert lattice(4) is lattice(4)
        assert lattice(4).index == {key: i for i, key in enumerate(lattice(4).keys)}

    def test_refused_past_the_cap_before_building(self, monkeypatch):
        from rumkit import CapExceededError
        from rumkit.core import CAP_ENV_VAR, _build_coordinates

        monkeypatch.setenv(CAP_ENV_VAR, "3")
        before = _build_coordinates.cache_info()
        with pytest.raises(CapExceededError, match="n=4 exceeds the lattice cap of 3"):
            lattice(4)
        assert _build_coordinates.cache_info() == before

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_gathers_are_inverse_permutations(self, n):
        coords = lattice(n)
        size = len(coords.keys)
        assert sorted(coords.to_major(range(size))) == list(range(size))
        assert list(coords.to_canonical(coords.to_major(range(size)))) == list(range(size))
        # alternative-major: x's 2^(n-1) pairs fill block x
        block = 1 << (n - 1)
        major = coords.to_major(coords.keys)
        assert [x for x, _ in major] == [slot // block for slot in range(size)]


class TestCaps:
    def test_lattice_cap_blocks_large_diagrams(self):
        from rumkit import CapExceededError, build_diagram

        with pytest.raises(CapExceededError):
            build_diagram(Universe.of_size(21))

    def test_lattice_cap_blocks_large_vectors(self):
        from rumkit import CapExceededError, mobius_vector
        from rumkit.core import _build_coordinates

        before = _build_coordinates.cache_info()
        u = Universe.of_size(21)
        with pytest.raises(CapExceededError, match="n=21 exceeds the lattice cap of 20"):
            mobius_vector(Preference(u, tuple(range(21))))
        assert _build_coordinates.cache_info() == before

    def test_env_var_overrides_caps(self, monkeypatch):
        from rumkit import CapExceededError, mobius_vector
        from rumkit.core import CAP_ENV_VAR, lattice_cap

        monkeypatch.setenv(CAP_ENV_VAR, "13")
        assert lattice_cap() == 13
        u = Universe.of_size(13)
        assert sum(mobius_vector(Preference(u, tuple(range(13))))) == 13
        monkeypatch.setenv(CAP_ENV_VAR, "3")
        with pytest.raises(CapExceededError):
            mobius_vector(Preference(Universe.of_size(4), (0, 1, 2, 3)))

    @pytest.mark.parametrize("raw", ["abc", "0", "-1", "1.5", "9" * 5000])
    def test_override_must_be_a_positive_integer(self, monkeypatch, raw):
        from rumkit import CapExceededError
        from rumkit.core import CAP_ENV_VAR, lattice_cap

        monkeypatch.setenv(CAP_ENV_VAR, raw)
        message = f"^RUMKIT_MAX_N={re.escape(shown(raw))} is not a positive integer$"
        with pytest.raises(RumkitError, match=message) as info:
            lattice_cap()
        assert not isinstance(info.value, CapExceededError)

    def test_empty_override_keeps_the_defaults(self, monkeypatch):
        from rumkit.core import CAP_ENV_VAR, lattice_cap

        monkeypatch.setenv(CAP_ENV_VAR, "")
        assert lattice_cap() == 20


class TestUniverse:
    def test_labels_must_be_distinct(self):
        with pytest.raises(LabelError):
            Universe(("a", "a"))

    @pytest.mark.parametrize("label", ["a>b", ">", "c>"])
    def test_label_with_the_ranking_separator_refused(self, label):
        with pytest.raises(LabelError, match="contains the ranking separator '>'"):
            Universe(("a", label))

    @pytest.mark.parametrize("label", ["a,b", ",", "c,"])
    def test_label_with_the_menu_separator_refused(self, label):
        with pytest.raises(LabelError, match="contains the menu separator ','"):
            Universe(("a", label))

    def test_default_labels(self):
        assert Universe.of_size(3).labels == ("a", "b", "c")
        assert Universe.of_size(27).labels[26] == "x27"

    def test_describe_pair(self):
        assert U3.describe_pair(1, 0b110) == "(b, {b,c})"

    def test_menu_of_labels(self):
        mask = U3.menu_of_labels(["a", "c"])
        assert mask == 0b101
        assert U3.labels_of(mask) == ("a", "c")
        assert U3.describe_mask(mask) == "{a,c}"

    @pytest.mark.parametrize("label, message", [
        ("z", "unknown label 'z'"),
        (3, "unknown label 3"),
        (None, "unknown label None"),
        (["a"], "unknown label ['a']"),
    ])
    def test_index_error_text(self, label, message):
        assert U3.index("b") == 1
        with pytest.raises(LabelError) as info:
            U3.index(label)
        assert str(info.value) == message

    @pytest.mark.parametrize("labels, message", [
        (["a", "z"], "unknown label 'z'"),
        (["a", "a"], "duplicate label 'a' in menu"),
        (["z", "a", "a"], "unknown label 'z'"),
        (["a", "a", "z"], "duplicate label 'a' in menu"),
        (["a", 3], "unknown label 3"),
        (["a", ["b"]], "unknown label ['b']"),
    ])
    def test_menu_of_labels_error_text(self, labels, message):
        with pytest.raises(LabelError) as info:
            U3.menu_of_labels(labels)
        assert str(info.value) == message
