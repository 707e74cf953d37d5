from __future__ import annotations

import random
from math import factorial

import pytest

from conftest import random_spanning_tree, search_basis
from rumkit import (
    CapExceededError,
    Model,
    Preference,
    RumkitError,
    SpanningTree,
    Universe,
    all_preferences,
    build_diagram,
    cyclomatic_number,
    directed_spanning_tree,
    lattice,
    max_identified_size,
    preference_basis,
    validate_witness,
    verify_spanning_tree,
)
from rumkit.core import CAP_ENV_VAR


class TestBuildDiagram:
    def test_three_alternatives_unappended(self):
        d = build_diagram(Universe.of_size(3), appended=False)
        assert d.node_count == 8
        assert d.edge_count == 12

    def test_three_alternatives_appended(self):
        d = build_diagram(Universe.of_size(3), appended=True)
        assert d.edge_count == 13

    def test_one_alternative_appended(self):
        d = build_diagram(Universe.of_size(1), appended=True)
        assert d.node_count == 2
        assert d.edge_count == 2
        assert d.edge_endpoints(0) == (1, 0)
        assert d.edge_endpoints(d.appended_edge_id) == (0, 1)

    def test_edge_ids_read_without_the_cap(self, monkeypatch):
        # the lattice cap is checked when the diagram is built, not per edge
        u = Universe.of_size(4)
        d = build_diagram(u)
        tree = directed_spanning_tree(d)
        expected = preference_basis(tree, d)
        monkeypatch.setenv(CAP_ENV_VAR, "3")
        assert [d.edge_endpoints(eid) for eid in range(len(d.pairs))] == [
            (mask, mask ^ 1 << x) for x, mask in d.pairs
        ]
        assert preference_basis(tree, d) == expected
        with pytest.raises(CapExceededError):
            build_diagram(u)


class TestCyclomaticNumber:
    def test_three(self):
        assert cyclomatic_number(build_diagram(Universe.of_size(3))) == 6

    def test_four(self):
        d = build_diagram(Universe.of_size(4))
        assert d.edge_count == 33
        assert cyclomatic_number(d) == 18

    def test_nine_against_closed_form(self):
        assert cyclomatic_number(build_diagram(Universe.of_size(9))) == 1794

    def test_requires_appended(self):
        with pytest.raises(RumkitError):
            cyclomatic_number(build_diagram(Universe.of_size(3), appended=False))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_graph_count_equals_closed_form(self, n):
        assert cyclomatic_number(build_diagram(Universe.of_size(n))) == max_identified_size(n)


class TestContourKeys:
    """A preference's circuit is its contour keys, one-to-one."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_keys_are_a_bijection_onto_descending_chains(self, n):
        u = Universe.of_size(n)
        key_sets = set()
        for p in all_preferences(u):
            keys = tuple(p.contour_keys())
            menu = u.full_mask
            for x, mask in keys:
                # each step removes its own x from the menu it starts at
                assert mask == menu and mask >> x & 1
                menu ^= 1 << x
            assert keys[0][1] == u.full_mask and keys[-1][1].bit_count() == 1
            assert Preference(u, tuple(x for x, _ in keys)) == p
            key_sets.add(frozenset(keys))
        assert len(key_sets) == factorial(n)


class TestSpanningTree:
    def test_smallest_case(self):
        u = Universe.of_size(1)
        d = build_diagram(u)
        tree = directed_spanning_tree(d)
        # only the root link through the appended edge; {x} -> (empty) stays out
        assert tree.parent == {1: (0, d.appended_edge_id)}

    def test_link_count_and_nontree_edges_n3(self):
        d = build_diagram(Universe.of_size(3))
        tree = directed_spanning_tree(d)
        assert len(tree.parent) == 7
        non_tree = d.edge_count - len(tree.parent)
        assert non_tree == 6 == max_identified_size(3)

    def test_deterministic(self):
        d = build_diagram(Universe.of_size(4))
        assert directed_spanning_tree(d).parent == directed_spanning_tree(d).parent

    @pytest.mark.parametrize("n", range(2, 7))
    def test_verifies_for_small_sizes(self, n):
        d = build_diagram(Universe.of_size(n))
        check = verify_spanning_tree(directed_spanning_tree(d), d)
        assert check.ok, check.violations

    def test_reversed_link_is_direction_violation(self):
        d = build_diagram(Universe.of_size(3))
        tree = directed_spanning_tree(d)
        parent = dict(tree.parent)
        child, (par, eid) = next(
            (c, v) for c, v in parent.items() if v[1] != d.appended_edge_id
        )
        del parent[child]
        parent[par] = (child, eid)
        check = verify_spanning_tree(SpanningTree(parent), d)
        assert not check.ok
        assert any("direction" in v for v in check.violations)

    def test_missing_leaf_is_spanning_violation(self):
        d = build_diagram(Universe.of_size(3))
        tree = directed_spanning_tree(d)
        parent = dict(tree.parent)
        leaf = next(c for c in parent if c.bit_count() == 1)
        del parent[leaf]
        check = verify_spanning_tree(SpanningTree(parent), d)
        assert not check.ok
        assert any("spanning" in v for v in check.violations)

    def test_parent_cycle_detected(self):
        d = build_diagram(Universe.of_size(3))
        parent = dict(directed_spanning_tree(d).parent)
        parent[0b011] = (0b001, 0)
        parent[0b001] = (0b011, 1)
        check = verify_spanning_tree(SpanningTree(parent), d)
        assert not check.ok
        assert any("cycle" in v for v in check.violations)

    def test_parent_link_on_the_root_detected(self):
        d = build_diagram(Universe.of_size(3))
        parent = dict(directed_spanning_tree(d).parent)
        parent[0] = parent[0b001]
        check = verify_spanning_tree(SpanningTree(parent), d)
        assert not check.ok
        assert "the root (empty set) must not have a parent link" in check.violations

    def test_edge_id_off_the_diagram_detected(self):
        d = build_diagram(Universe.of_size(3))
        parent = dict(directed_spanning_tree(d).parent)
        parent[0b011] = (parent[0b011][0], d.edge_count)
        check = verify_spanning_tree(SpanningTree(parent), d)
        assert not check.ok
        assert check.violations == (
            f"link into node 0x3 uses edge id {d.edge_count} off the diagram",
        )

    def test_dangling_chain_detected(self):
        d = build_diagram(Universe.of_size(3))
        parent = dict(directed_spanning_tree(d).parent)
        parent[0b001] = (0b101, parent[0b001][1])
        del parent[0b101]
        check = verify_spanning_tree(SpanningTree(parent), d)
        assert not check.ok
        assert any("dangles" in v for v in check.violations)


class TestPreferenceBasis:
    def test_n3_basis_is_every_preference(self):
        # the bound equals 3! here, so the basis must exhaust all orders
        u = Universe.of_size(3)
        d = build_diagram(u)
        basis = preference_basis(directed_spanning_tree(d), d)
        assert len(basis) == 6
        assert {p.ranking for p, _ in basis} == {
            p.ranking for p in all_preferences(u)
        }

    def test_n4_size_distinct_and_witnesses(self):
        u = Universe.of_size(4)
        d = build_diagram(u)
        basis = preference_basis(directed_spanning_tree(d), d)
        assert len(basis) == 18
        assert len({p.ranking for p, _ in basis}) == 18
        witness_keys = {key for _, key in basis}
        assert len(witness_keys) == 18
        tree_edges = directed_spanning_tree(d).tree_edges
        index = lattice(4).index
        for _, (x, mask) in basis:
            assert index[(x, mask)] not in tree_edges
        for pref, (x, mask) in basis:
            assert pref.contour_menu_mask(x) == mask

    @pytest.mark.parametrize("n", range(1, 7))
    def test_size_matches_cyclomatic_number(self, n):
        d = build_diagram(Universe.of_size(n))
        basis = preference_basis(directed_spanning_tree(d), d)
        assert len(basis) == cyclomatic_number(d)

    def test_rejects_broken_tree(self):
        d = build_diagram(Universe.of_size(3))
        tree = directed_spanning_tree(d)
        parent = dict(tree.parent)
        child, (par, eid) = next(
            (c, v) for c, v in parent.items() if v[1] != d.appended_edge_id
        )
        del parent[child]
        parent[par] = (child, eid)
        with pytest.raises(RumkitError, match="invalid spanning tree"):
            preference_basis(SpanningTree(parent), d)


def assert_reversed_is_witness(basis) -> None:
    universe = basis[0][0].universe
    model = Model.of(universe, [pref for pref, _ in basis])
    assert validate_witness(model, basis[::-1])


class TestBasisAgainstSearch:
    """The closed-form basis equals the step-by-step descent search."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_default_tree(self, n):
        d = build_diagram(Universe.of_size(n))
        tree = directed_spanning_tree(d)
        basis = preference_basis(tree, d)
        assert list(basis) == search_basis(tree, d)
        assert_reversed_is_witness(basis)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_tree(self, seed):
        rng = random.Random(seed)
        d = build_diagram(Universe.of_size(2 + seed % 6))
        tree = random_spanning_tree(rng, d)
        assert verify_spanning_tree(tree, d).ok
        basis = preference_basis(tree, d)
        assert len(basis) == cyclomatic_number(d)
        assert list(basis) == search_basis(tree, d)
        assert_reversed_is_witness(basis)
