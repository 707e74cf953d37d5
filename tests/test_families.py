from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from conftest import (
    RecoveryError,
    double_cover_closed_form,
    lexicographic_rank,
    random_distribution,
    random_model,
    scrum_order_exists_by_check,
    scrum_order_exists_by_walk,
    single_crossing_by_sets,
    three_swaps,
    verify_enumeration_by_scan,
)
from rumkit import (
    Model,
    NotCarumError,
    OrderSearchResult,
    Preference,
    PreferenceDistribution,
    RandomChoiceRule,
    RumkitError,
    Universe,
    all_preferences,
    carum_recover,
    check_single_crossing,
    contour_class,
    double_cover_model,
    fishburn_distributions,
    fixtures,
    is_edge_decomposable,
    is_identified,
    latin_square,
    max_scrum_model,
    mobius_inverse,
    no_single_crossing_model,
    point_mass,
    preference_from_labels,
    rcr_from_distribution,
    respects,
    scrum_order_exists,
)
from rumkit import families


def brute_single_crossing(model: Model, order: Preference) -> bool:
    """Try all |M|! enumerations directly."""
    for perm in permutations(model.preferences):
        if check_single_crossing(model, order, perm):
            return True
    return False


def pair(universe: Universe, x_label: str, menu_labels: str) -> tuple[int, int]:
    return (universe.index(x_label), universe.menu_of_labels(menu_labels))


class TestCheckSingleCrossing:
    def test_construction_enumeration_verifies(self):
        u = Universe.of_size(4)
        order = Preference(u, (0, 1, 2, 3))
        model, enumeration = max_scrum_model(order)
        assert check_single_crossing(model, order, enumeration)

    def test_singleton(self):
        u = Universe.of_size(3)
        m = Model.of(u, [Preference(u, (2, 0, 1))])
        res = check_single_crossing(m, Preference(u, (0, 1, 2)))
        assert res and res.enumeration == m.preferences

    def test_no_single_crossing_fixture_fails_identity_order(self):
        m = no_single_crossing_model()
        order = Preference(m.universe, tuple(range(6)))
        res = check_single_crossing(m, order)
        assert not res
        assert res.conflict

    def test_existence_matches_bruteforce(self, rng):
        u = Universe.of_size(4)
        order = Preference(u, (0, 1, 2, 3))
        for _ in range(25):
            m = random_model(rng, u, rng.randrange(1, 6))
            assert bool(check_single_crossing(m, order)) == brute_single_crossing(
                m, order
            )

    def test_existence_matches_bruteforce_up_to_seven_members(self, rng):
        # the nested-set decision against the full |M|! scan at its cap
        u = Universe.of_size(4)
        order = Preference(u, (0, 1, 2, 3))
        for size in (6, 7):
            for _ in range(3):
                m = random_model(rng, u, size)
                assert bool(check_single_crossing(m, order)) == brute_single_crossing(
                    m, order
                )
        scrum_model, _ = max_scrum_model(order)  # size 7, positive case
        assert bool(check_single_crossing(scrum_model, order)) is True
        assert brute_single_crossing(scrum_model, order) is True

    def test_bad_enumeration_rejected_but_existence_found(self):
        u = Universe.of_size(3)
        order = Preference(u, (0, 1, 2))
        a = preference_from_labels(u, "abc")
        b = preference_from_labels(u, "bac")
        m = Model.of(u, [a, b])
        # b must come before a: (a, b) agreement has to be a suffix
        assert not check_single_crossing(m, order, (a, b))
        res = check_single_crossing(m, order)
        assert res and res.enumeration == (b, a)

    def test_one_shot_enumeration_read_once(self):
        u = Universe.of_size(3)
        order = Preference(u, (0, 1, 2))
        a = preference_from_labels(u, "abc")
        b = preference_from_labels(u, "bac")
        m = Model.of(u, [a, b])
        res = check_single_crossing(m, order, iter((a, b)))
        assert res == check_single_crossing(m, order, (a, b))
        assert not res and res.conflict_prefs == (a, b)
        res = check_single_crossing(m, order, iter((b, a)))
        assert res and res.enumeration == (b, a)

    def test_entries_that_are_not_preferences_refused(self):
        u = Universe.of_size(3)
        order = Preference(u, (0, 1, 2))
        a = preference_from_labels(u, "abc")
        b = preference_from_labels(u, "bac")
        m = Model.of(u, [a, b])
        for listing in ([1, 2], [a, [1, 2]], [a, "bac"], [a, None]):
            with pytest.raises(
                RumkitError, match="enumeration does not list the model exactly once"
            ):
                check_single_crossing(m, order, listing)


class TestScrumOrderSearch:
    def test_no_single_crossing_model_searches_all_orders(self):
        res = scrum_order_exists(no_single_crossing_model())
        assert not res.exists
        assert res.orders_checked == 720

    def test_singleton(self):
        u = Universe.of_size(3)
        res = scrum_order_exists(Model.of(u, [Preference(u, (1, 0, 2))]))
        assert res.exists

    def test_two_member_models_always_admit_an_order(self, rng):
        # verified against the exhaustive search itself: pairs drawn from
        # Latin squares and at random
        for n in (3, 4):
            u = Universe.of_size(n)
            square = latin_square(Preference(u, tuple(range(n))))
            prefs = list(square.preferences)
            for i in range(len(prefs)):
                for j in range(i + 1, len(prefs)):
                    m = Model.of(u, [prefs[i], prefs[j]])
                    assert scrum_order_exists(m).exists
        u = Universe.of_size(4)
        for _ in range(10):
            m = random_model(rng, u, 2)
            assert scrum_order_exists(m).exists

    def test_lexicographic_rank_counts_earlier_orders(self):
        for pos, perm in enumerate(permutations(range(5))):
            assert lexicographic_rank(perm) == pos

    @pytest.mark.parametrize("n", [9, 12, 20])
    def test_maximal_model_past_eight(self, rng, n):
        # every pair switches once along the construction, so the only
        # passing orders are the construction's order and its reverse
        u = Universe.of_size(n)
        ranking = tuple(rng.sample(range(n), n))
        model, _ = max_scrum_model(Preference(u, ranking))
        res = scrum_order_exists(model)
        assert res.exists
        assert res.order.ranking == min(ranking, ranking[::-1])
        assert check_single_crossing(model, res.order, res.enumeration)
        assert res.orders_checked == 1 + lexicographic_rank(res.order.ranking)

    @pytest.mark.parametrize("n", [9, 12])
    def test_three_swaps_past_eight_decide_every_order(self, rng, n):
        res = scrum_order_exists(three_swaps(rng, n))
        assert res == OrderSearchResult(False, None, None, factorial(n))


def random_scrum_case(rng, n: int) -> Model:
    """A random model at n, every other call a random subset of a maximal
    single-crossing model, so that yes answers are common."""
    u = Universe.of_size(n)
    if n >= 2 and rng.randrange(2):
        prefs = max_scrum_model(Preference(u, tuple(rng.sample(range(n), n))))[1]
        return Model.of(u, rng.sample(prefs, rng.randrange(1, len(prefs) + 1)))
    return random_model(rng, u, min(rng.randrange(1, 7), factorial(n)))


class TestBitmaskAgainstOracles:
    def test_search_matches_per_order_check(self, rng):
        results = []
        for _ in range(540):
            m = random_scrum_case(rng, rng.randrange(1, 7))
            res = scrum_order_exists(m)
            assert res == scrum_order_exists_by_check(m)
            results.append(res.exists)
        assert 100 < sum(results) < len(results)

    def test_three_swaps_at_seven_search_every_order(self, rng):
        m = three_swaps(rng, 7)
        res = scrum_order_exists(m)
        assert res == scrum_order_exists_by_check(m)
        assert not res.exists and res.orders_checked == 5040

    def test_search_matches_per_order_check_up_to_seven(self, rng):
        # both answers at every n, and yes answers found only after skipped
        # prefixes, whose completions the count must still include
        answers = {n: set() for n in range(1, 8)}
        late = 0
        for n in range(1, 8):
            for _ in range(60 if n < 7 else 8):
                m = random_scrum_case(rng, n)
                res = scrum_order_exists(m)
                assert res == scrum_order_exists_by_check(m)
                answers[n].add(res.exists)
                late += res.exists and res.orders_checked > 1
        assert answers[1] == {True}
        assert all(answers[n] == {True, False} for n in range(3, 8))
        assert late > 20

    def test_search_matches_prefix_walk_at_eight_and_nine(self, rng):
        # the per-order oracle is too slow here; the prefix walk checks the
        # first order and its position on subsets of maximal models
        late = 0
        for n in (8, 9):
            u = Universe.of_size(n)
            for _ in range(30):
                prefs = max_scrum_model(Preference(u, tuple(rng.sample(range(n), n))))[1]
                m = Model.of(u, rng.sample(prefs, rng.randrange(1, len(prefs) + 1)))
                res = scrum_order_exists(m)
                assert res == scrum_order_exists_by_walk(m)
                late += res.orders_checked > 1
        assert late > 30

    def test_existence_on_every_model_at_three(self):
        prefs = tuple(all_preferences(Universe.of_size(3)))
        for size in range(1, len(prefs) + 1):
            for chosen in combinations(prefs, size):
                m = Model.of(prefs[0].universe, chosen)
                assert scrum_order_exists(m) == scrum_order_exists_by_check(m)

    def test_existence_on_every_small_model_at_four(self):
        prefs = tuple(all_preferences(Universe.of_size(4)))
        answers = set()
        for size in (1, 2, 3):
            for chosen in combinations(prefs, size):
                m = Model.of(prefs[0].universe, chosen)
                res = scrum_order_exists(m)
                assert res.exists == scrum_order_exists_by_check(m).exists
                answers.add(res.exists)
        assert answers == {True, False}

    def test_three_swaps_at_eight_decide_every_order(self, rng):
        m = three_swaps(rng, 8)
        res = scrum_order_exists(m)
        assert res == OrderSearchResult(False, None, None, 40320)

    @pytest.mark.parametrize("n", [5, 8])
    def test_no_answer_enumerates_no_order(self, monkeypatch, rng, n):
        # a no answer is decided by the existence test alone: one nestedness
        # check per member, and no order is ever built
        calls = []

        def counting_chain(sets):
            calls.append(len(sets))
            return chain(sets)

        def no_preference(*args):
            raise AssertionError("a no answer built an order")

        chain = families._chain
        monkeypatch.setattr(families, "_chain", counting_chain)
        monkeypatch.setattr(families, "Preference", no_preference)
        m = three_swaps(rng, n)
        res = scrum_order_exists(m)
        assert not res.exists and res.orders_checked == factorial(n)
        assert len(calls) <= len(m)
        # past C(n, 2) + 1 members no enumeration can switch each pair once
        calls.clear()
        crowded = random_model(rng, m.universe, n * (n - 1) // 2 + 2)
        assert scrum_order_exists(crowded).orders_checked == factorial(n)
        assert calls == []

    def test_yes_answer_builds_one_agreement_table(self, monkeypatch, rng):
        # the existence test, the walk and the enumeration share one table
        calls = []

        def counting_agreement(model):
            calls.append(len(model))
            return agreement(model)

        agreement = families._agreement
        monkeypatch.setattr(families, "_agreement", counting_agreement)
        yes = 0
        for _ in range(60):
            m = random_scrum_case(rng, rng.randrange(1, 7))
            calls.clear()
            res = scrum_order_exists(m)
            if res.exists:
                yes += 1
                assert calls == [len(m)]
        assert yes > 10

    def test_yes_answer_makes_no_second_check(self, monkeypatch, rng):
        # a passing order has one enumeration, the members sorted by their
        # agreement counts, so neither function verifies a yes again; the
        # scan oracle checks the enumeration instead
        def no_verify(*args):
            raise AssertionError("a decided yes was verified again")

        monkeypatch.setattr(families, "_verify_enumeration", no_verify)
        yes = 0
        for _ in range(60):
            m = random_scrum_case(rng, rng.randrange(1, 7))
            search = scrum_order_exists(m)
            if search.exists:
                yes += 1
                res = check_single_crossing(m, search.order)
                assert res and res.enumeration == search.enumeration
                assert verify_enumeration_by_scan(res.enumeration, search.order)
        assert yes > 10

    def test_verify_matches_scan(self, rng):
        # the enumeration found, it with two neighbours swapped, and a
        # random listing of the members
        holds = []
        for k in range(600):
            n = rng.randrange(1, 7)
            m = random_scrum_case(rng, n)
            order = Preference(m.universe, tuple(rng.sample(range(n), n)))
            listing = check_single_crossing(m, order).enumeration
            if listing is None or k % 3 == 2:
                listing = tuple(rng.sample(m.preferences, len(m)))
            elif k % 3 == 1 and len(m) > 1:
                i = rng.randrange(len(m) - 1)
                listing = listing[:i] + listing[i + 1 : i + 2] + listing[i : i + 1] + listing[i + 2 :]
            res = check_single_crossing(m, order, listing)
            scan = verify_enumeration_by_scan(listing, order)
            assert res == scan
            holds.append(res.holds)
        assert 100 < sum(holds) < len(holds) - 100

    def test_check_matches_frozen_sets(self, rng):
        holds = []
        for _ in range(600):
            n = rng.randrange(1, 7)
            m = random_scrum_case(rng, n)
            order = Preference(m.universe, tuple(rng.sample(range(n), n)))
            res = check_single_crossing(m, order)
            assert res == single_crossing_by_sets(m, order)
            holds.append(res.holds)
        assert 100 < sum(holds) < len(holds) - 100


class TestMaxScrumModel:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_size(self, n):
        u = Universe.of_size(n)
        model, enumeration = max_scrum_model(Preference(u, tuple(range(n))))
        assert len(model) == n * (n - 1) // 2 + 1
        assert len(enumeration) == len(model)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_endpoints(self, n):
        u = Universe.of_size(n)
        order = Preference(u, tuple(range(n)))
        _, enumeration = max_scrum_model(order)
        assert enumeration[0] == order.reverse()
        assert enumeration[-1] == order

    def test_two_alternatives(self):
        u = Universe.of_size(2)
        model, _ = max_scrum_model(Preference(u, (0, 1)))
        assert {p.ranking for p in model} == {(0, 1), (1, 0)}

    @pytest.mark.parametrize("n", range(3, 7))
    def test_passes_all_three_checks(self, n):
        u = Universe.of_size(n)
        order = Preference(u, tuple(range(n)))
        model, enumeration = max_scrum_model(order)
        assert check_single_crossing(model, order, enumeration)
        assert is_edge_decomposable(model)
        assert is_identified(model)

    def test_submodels_stay_decomposable(self, rng):
        # single-crossing submodels inherit the enumeration, so they peel too
        for n in (3, 4, 5, 6):
            u = Universe.of_size(n)
            model, enumeration = max_scrum_model(Preference(u, tuple(range(n))))
            for _ in range(5):
                size = rng.randrange(1, len(model) + 1)
                sub = rng.sample(list(enumeration), size)
                assert is_edge_decomposable(Model.of(u, sub))


class TestLatinSquare:
    def test_rotations_for_three(self):
        u = Universe(("1", "2", "3"))
        m = latin_square(preference_from_labels(u, ["1", "2", "3"]))
        assert {"".join(p.to_labels()) for p in m} == {"123", "231", "312"}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_size(self, n):
        u = Universe.of_size(n)
        assert len(latin_square(Preference(u, tuple(range(n))))) == n

    def test_rotation_yields_same_square(self):
        u = Universe.of_size(5)
        order = Preference(u, (0, 1, 2, 3, 4))
        rotated = Preference(u, (2, 3, 4, 0, 1))
        assert latin_square(order) == latin_square(rotated)

    def test_respects(self):
        u = Universe(("1", "2", "3"))
        order = preference_from_labels(u, ["1", "2", "3"])
        assert respects(preference_from_labels(u, ["2", "3", "1"]), order)
        assert not respects(preference_from_labels(u, ["2", "1", "3"]), order)
        assert respects(order, order)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_members_respect_order(self, n):
        u = Universe.of_size(n)
        order = Preference(u, tuple(range(n)))
        assert all(respects(p, order) for p in latin_square(order))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_decomposable_and_identified(self, n):
        u = Universe.of_size(n)
        m = latin_square(Preference(u, tuple(range(n))))
        assert is_edge_decomposable(m)
        assert is_identified(m)

    def test_middle_menus_have_at_most_one_positive_entry(self, rng):
        for n in (3, 4, 5):
            u = Universe.of_size(n)
            m = latin_square(Preference(u, tuple(range(n))))
            for _ in range(5):
                nu = random_distribution(rng, m)
                q = mobius_inverse(rcr_from_distribution(nu))
                for mask in range(1, u.full_mask):
                    positive = [
                        x for x in range(n) if mask >> x & 1 and q.value(x, mask) > 0
                    ]
                    assert len(positive) <= 1


class TestCarumRecover:
    def test_three_alternative_recovery(self):
        u = Universe.of_size(3)
        order = Preference(u, (0, 1, 2))
        m = latin_square(order)
        nu = PreferenceDistribution(
            m, dict(zip(m.preferences, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))))
        )
        got = carum_recover(rcr_from_distribution(nu))
        assert got.model == m
        assert got.distribution == nu
        assert respects(got.order, order)

    def test_point_mass_on_rotation(self):
        u = Universe.of_size(4)
        order = Preference(u, (0, 1, 2, 3))
        m = latin_square(order)
        rotation = m.preferences[2]
        got = carum_recover(rcr_from_distribution(point_mass(m, rotation)))
        assert got.distribution == point_mass(m, rotation)
        assert got.model == m

    def test_fishburn_rejected(self):
        nu1, _ = fishburn_distributions()
        with pytest.raises(NotCarumError, match="positive"):
            carum_recover(rcr_from_distribution(nu1))

    def test_uniform_over_all_orders_rejected(self):
        u = Universe.of_size(3)
        from rumkit import all_preferences

        m = Model.of(u, all_preferences(u))
        nu = PreferenceDistribution(
            m, {p: Fraction(1, 6) for p in m.preferences}
        )
        with pytest.raises(NotCarumError):
            carum_recover(rcr_from_distribution(nu))

    def test_walked_square_that_misses_the_data_rejected(self):
        # below the full menu q has at most one positive entry per menu, so
        # the walk gives abc, but the Latin square on abc does not hold bac
        u = Universe.of_size(3)
        m = Model.of(u, [preference_from_labels(u, r) for r in ("abc", "bac")])
        nu = PreferenceDistribution(m, {p: "1/2" for p in m.preferences})
        with pytest.raises(
            NotCarumError, match="walked Latin square does not reproduce the data exactly"
        ):
            carum_recover(rcr_from_distribution(nu))

    # conftest.random_rule(random.Random(1), Universe.of_size(4)) on its 7,118th
    # draw: each menu's probabilities for its members in index order
    DYING_PATH = {
        "abcd": "0 5/9 2/9 2/9",
        "abc": "0 1 0", "abd": "6/11 4/11 1/11", "acd": "1 0 0", "bcd": "4/9 1/9 4/9",
        "ab": "1/4 3/4", "ac": "2/3 1/3", "ad": "5/8 3/8",
        "bc": "0 1", "bd": "0 1", "cd": "1 0",
        "a": "1", "b": "1", "c": "1", "d": "1",
    }

    def test_positive_path_that_dies_rejected(self):
        u = Universe.of_size(4)
        values = {
            pair(u, x, menu): v
            for menu, row in self.DYING_PATH.items()
            for x, v in zip(menu, row.split())
        }
        with pytest.raises(NotCarumError, match=r"positive path dies at menu \{d\}"):
            carum_recover(RandomChoiceRule(u, values))

    def test_invalid_rule_refused(self):
        u = Universe.of_size(2)
        values = {pair(u, "a", "ab"): "1", pair(u, "b", "ab"): "1",
                  pair(u, "a", "a"): "1", pair(u, "b", "b"): "1"}
        with pytest.raises(RumkitError, match="not a valid random choice rule") as info:
            carum_recover(RandomChoiceRule(u, values))
        assert not isinstance(info.value, NotCarumError)


class TestFixtures:
    def test_fishburn_distinct_distributions_same_rule(self):
        nu1, nu2 = fishburn_distributions()
        assert nu1 != nu2
        assert rcr_from_distribution(nu1) == rcr_from_distribution(nu2)

    def test_double_cover_top_and_shared_edges(self):
        m = double_cover_model()
        u = m.universe
        tops = contour_class(m, pair(u, "h", "abcdefgh"))
        assert {"".join(p.to_labels()) for p in tops} == {"hgefbdac", "hgfdceba"}
        mid = contour_class(m, pair(u, "e", "abcdef"))
        assert {"".join(p.to_labels()) for p in mid} == {"hgefbdac", "ghefdcba"}
        low = contour_class(m, pair(u, "b", "ab"))
        assert {"".join(p.to_labels()) for p in low} == {"hgfdceba", "ghefdcba"}

    def test_double_cover_no_edge_unique_to_one_path(self):
        # every covered edge is covered at least twice (the top edge dropping
        # g and the a-singleton edge carry four paths), so nothing can peel
        m = double_cover_model()
        cover: dict[tuple[int, int], int] = {}
        for p in m:
            for x in p.ranking:
                k = (x, p.contour_menu_mask(x))
                cover[k] = cover.get(k, 0) + 1
        assert min(cover.values()) >= 2

    def test_shadowed_triple_path_intersections(self):
        # the third preference shares each of its four pairs with another
        # member, so no pair is unique to it
        m = fixtures()["shadowed-triple"]
        u = m.universe
        got = {
            "a@abcd": contour_class(m, pair(u, "a", "abcd")),
            "b@bcd": contour_class(m, pair(u, "b", "bcd")),
            "d@cd": contour_class(m, pair(u, "d", "cd")),
            "c@c": contour_class(m, pair(u, "c", "c")),
        }
        names = {k: {"".join(p.to_labels()) for p in v} for k, v in got.items()}
        assert names["a@abcd"] == {"abcd", "abdc"}
        assert names["b@bcd"] == {"abcd", "abdc"}
        assert names["d@cd"] == {"badc", "abdc"}
        assert names["c@c"] == {"badc", "abdc"}

    def test_no_single_crossing_unique_markers(self):
        # each member is alone on one inverted pair, which is what makes the
        # model peelable even though no order linearizes it
        m = no_single_crossing_model()
        u = m.universe
        def only(x, y):
            return ["".join(p.to_labels()) for p in m if p.prefers(u.index(x), u.index(y))]
        assert only("f", "e") == ["abcdfe"]
        assert only("d", "c") == ["abdcef"]
        assert only("b", "a") == ["bacdef"]

    def test_fixture_table_contents(self):
        table = fixtures()
        assert set(table) == {
            "fishburn",
            "fishburn-nu1",
            "fishburn-nu2",
            "double-cover",
            "shadowed-triple",
            "no-single-crossing",
        }


class TestDoubleCoverClosedForm:
    def test_uniform_eighths(self):
        m = double_cover_model()
        nu = PreferenceDistribution(m, {p: Fraction(1, 8) for p in m.preferences})
        q = mobius_inverse(rcr_from_distribution(nu))
        got = double_cover_closed_form(q)
        assert got == nu
        by_name = {"".join(p.to_labels()): v for p, v in got.entries}
        assert by_name["hgefbdac"] == Fraction(1, 8)
        assert by_name["hgfdceba"] == Fraction(1, 8)
        assert by_name["ghefdcba"] == Fraction(1, 8)

    def test_point_mass(self):
        m = double_cover_model()
        target = next(p for p in m if "".join(p.to_labels()) == "hgefbdac")
        q = mobius_inverse(rcr_from_distribution(point_mass(m, target)))
        got = double_cover_closed_form(q)
        assert got == point_mass(m, target)

    def test_roundtrip_random(self, rng):
        m = double_cover_model()
        for _ in range(20):
            nu = random_distribution(rng, m)
            q = mobius_inverse(rcr_from_distribution(nu))
            assert double_cover_closed_form(q) == nu

    def test_foreign_data_rejected(self):
        m = double_cover_model()
        u = m.universe
        foreign = preference_from_labels(u, "abcdefgh")
        assert foreign not in m
        q = mobius_inverse(
            rcr_from_distribution(point_mass(Model.of(u, [foreign]), foreign))
        )
        with pytest.raises(RecoveryError):
            double_cover_closed_form(q)
