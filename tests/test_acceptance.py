"""Acceptance suite: every exit criterion, exact arithmetic throughout.

Each test prints one [PASS]/[FAIL] line (run pytest -s to see them inline).
All comparisons are exact rational equalities unless a tolerance is stated
in the criterion itself; none are.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

from conftest import (
    double_cover_closed_form,
    random_distribution,
    random_mobius_values,
    random_model,
    random_rule,
    rule_vector,
    verify_contour_mass_identity,
)
from rumkit import (
    Model,
    MobiusInverse,
    NotCarumError,
    Preference,
    RecoveryStatus,
    Universe,
    all_preferences,
    build_diagram,
    carum_recover,
    check_single_crossing,
    contour_class,
    cyclomatic_number,
    directed_spanning_tree,
    double_cover_model,
    fishburn_distributions,
    fishburn_model,
    is_edge_decomposable,
    is_identified,
    latin_square,
    max_identified_size,
    max_scrum_model,
    mobius_forward,
    mobius_inverse,
    mobius_vector,
    no_single_crossing_model,
    preference_basis,
    rank,
    rcr_from_distribution,
    recover_distribution,
    scrum_order_exists,
    shadowed_triple_model,
    validate_witness,
    flow_conservation_check,
)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    print(f"[PASS] criterion {num}: {name}")


def test_c01_bound_agreement():
    with criterion(1, "graph count equals closed form for n = 1..10"):
        for n in range(1, 11):
            diagram = build_diagram(Universe.of_size(n), appended=True)
            from_graph = cyclomatic_number(diagram)
            closed = (n - 2) * 2 ** (n - 1) + 2
            assert from_graph == max_identified_size(n) == closed


def test_c02_intro_ratios():
    with criterion(2, "admissible-preference ratios at n = 5 and n = 9"):
        assert max_identified_size(5) == 50
        assert Fraction(50, factorial(5)) < Fraction(1, 2)
        assert factorial(5) - 50 > factorial(5) // 2  # more than half excluded
        assert max_identified_size(9) == 1794
        assert Fraction(1794, factorial(9)) == Fraction(1794, 362880)
        assert Fraction(1794, 362880) < Fraction(5, 1000)


def test_c03_maximal_basis():
    with criterion(3, "tree+basis emit a maximal identified decomposable model, n = 2..6"):
        for n in range(2, 7):
            universe = Universe.of_size(n)
            diagram = build_diagram(universe, appended=True)
            tree = directed_spanning_tree(diagram)
            basis = preference_basis(tree, diagram)
            bound = max_identified_size(n)
            assert len(basis) == bound
            assert len({p.ranking for p, _ in basis}) == bound
            witness_keys = {key for _, key in basis}
            assert len(witness_keys) == bound
            tree_pairs = {
                diagram.pairs[e]
                for e in tree.tree_edges
                if e != diagram.appended_edge_id
            }
            assert witness_keys.isdisjoint(tree_pairs)
            vectors = [mobius_vector(p) for p, _ in basis]
            assert rank(vectors) == bound
            model = Model.of(universe, [p for p, _ in basis])
            assert validate_witness(model, basis[::-1])


def test_c04_full_rank_at_desk_scale():
    with criterion(4, "rank of all n! mobius vectors equals the bound, n = 3..5"):
        for n in (3, 4, 5):
            universe = Universe.of_size(n)
            vectors = [mobius_vector(p) for p in all_preferences(universe)]
            assert rank(vectors) == max_identified_size(n)


def test_c05_fishburn_reproduction():
    with criterion(5, "the four-preference counterexample is not identified"):
        nu1, nu2 = fishburn_distributions()
        rule1 = rcr_from_distribution(nu1)
        rule2 = rcr_from_distribution(nu2)
        keys1 = list(rule1.items())
        assert len(keys1) == 32
        assert rule1 == rule2
        assert nu1 != nu2
        model = fishburn_model()
        result = is_identified(model)
        assert not result.identified
        cert = result.certificate
        assert set(cert.nu.support).isdisjoint(cert.nu_prime.support)
        assert rcr_from_distribution(cert.nu) == rcr_from_distribution(cert.nu_prime)
        assert {cert.nu, cert.nu_prime} == {nu1, nu2}
        assert not is_edge_decomposable(model)


def test_c06_double_cover_reproduction():
    with criterion(6, "identified but not edge decomposable; closed form inverts"):
        model = double_cover_model()
        dec = is_edge_decomposable(model)
        assert not dec.decomposable
        assert dec.stuck == model
        assert rank([mobius_vector(p) for p in model]) == 8
        assert is_identified(model).identified
        rng = random.Random(6)
        for _ in range(100):
            nu = random_distribution(rng, model)
            q = mobius_inverse(rcr_from_distribution(nu))
            assert double_cover_closed_form(q) == nu


def test_c07_shadowed_triple_intersections():
    # The four contour classes along the shadowed preference's own path each
    # hold two members, exactly as listed in the source example (whose printed
    # pair labels swap c and d against its own contour-class definition; the
    # sets themselves are reproduced here at the definition-correct pairs).
    with criterion(7, "shadowed-triple contour classes and decomposability"):
        model = shadowed_triple_model()
        u = model.universe

        def names(x_label, menu_labels):
            key = (u.index(x_label), u.menu_of_labels(menu_labels))
            return {"".join(p.to_labels()) for p in contour_class(model, key)}

        assert names("a", "abcd") == {"abcd", "abdc"}
        assert names("b", "bcd") == {"abcd", "abdc"}
        assert names("d", "cd") == {"badc", "abdc"}
        assert names("c", "c") == {"badc", "abdc"}
        # no contour pair of the shadowed member is unique to it
        shadowed = next(p for p in model if "".join(p.to_labels()) == "abdc")
        for key in shadowed.contour_keys():
            assert len(contour_class(model, key)) == 2
        assert is_edge_decomposable(model)


def test_c08_no_single_crossing_model():
    with criterion(8, "no exogenous order admits single crossing; still peels"):
        model = no_single_crossing_model()
        search = scrum_order_exists(model)
        assert not search.exists
        assert search.orders_checked == 720
        assert is_edge_decomposable(model)


def test_c09_single_crossing_maxima():
    with criterion(9, "maximal single-crossing models, n = 2..8"):
        for n in range(2, 9):
            universe = Universe.of_size(n)
            order = Preference(universe, tuple(range(n)))
            model, enumeration = max_scrum_model(order)
            assert len(model) == n * (n - 1) // 2 + 1
            assert check_single_crossing(model, order, enumeration)
            assert is_edge_decomposable(model)
            assert is_identified(model)


def test_c10_latin_square_recovery():
    with criterion(10, "Latin-square recovery, n = 3..7, 50 draws each"):
        rng = random.Random(10)
        for n in range(3, 8):
            universe = Universe.of_size(n)
            base = list(range(n))
            for _ in range(50):
                rng.shuffle(base)
                order = Preference(universe, tuple(base))
                square = latin_square(order)
                nu = random_distribution(rng, square)
                rule = rcr_from_distribution(nu)
                q = mobius_inverse(rule)
                for mask in range(1, universe.full_mask):
                    positive = [
                        x for x in range(n)
                        if mask >> x & 1 and q.value(x, mask) > 0
                    ]
                    assert len(positive) <= 1
                got = carum_recover(rule)
                assert got.model == square
                assert got.distribution == nu
        nu1, _ = fishburn_distributions()
        with pytest.raises(NotCarumError):
            carum_recover(rcr_from_distribution(nu1))


def test_c11_property_suites():
    with criterion(11, "randomized exact property suites at n = 4 and 5"):
        rng = random.Random(11)
        for n in (4, 5):
            universe = Universe.of_size(n)

            # Mobius-inverse-equals-class-mass identity
            for _ in range(100):
                model = random_model(rng, universe, rng.randrange(1, 8))
                assert verify_contour_mass_identity(random_distribution(rng, model))

            # Mobius roundtrips in both directions
            for _ in range(100):
                rule = random_rule(rng, universe)
                assert mobius_forward(mobius_inverse(rule)) == rule
                q = MobiusInverse(universe, random_mobius_values(rng, universe))
                assert mobius_inverse(mobius_forward(q)) == q

            # flow conservation for induced data
            for _ in range(100):
                model = random_model(rng, universe, rng.randrange(1, 8))
                nu = random_distribution(rng, model)
                q = mobius_inverse(rcr_from_distribution(nu))
                assert flow_conservation_check(q).ok

            # both vector encodings have equal rank
            for _ in range(100):
                model = random_model(rng, universe, rng.randrange(1, 9))
                assert rank([mobius_vector(p) for p in model]) == rank(
                    [rule_vector(p) for p in model]
                )

            # edge decomposable implies identified
            for _ in range(100):
                model = random_model(rng, universe, rng.randrange(1, 11))
                if is_edge_decomposable(model):
                    assert is_identified(model)

            # exact recovery roundtrip on decomposable models
            done = 0
            while done < 100:
                model = random_model(rng, universe, rng.randrange(1, 9))
                if not is_edge_decomposable(model):
                    continue
                nu = random_distribution(rng, model)
                report = recover_distribution(model, rcr_from_distribution(nu))
                assert report.status is RecoveryStatus.EXACT
                assert report.distribution == nu
                done += 1
