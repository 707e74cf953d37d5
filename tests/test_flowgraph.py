from __future__ import annotations

import pytest

from rumkit import (
    CapExceededError,
    Circuit,
    RumkitError,
    SpanningTree,
    Universe,
    all_preferences,
    build_diagram,
    circuit_to_preference,
    cyclomatic_number,
    directed_spanning_tree,
    max_identified_size,
    preference_basis,
    preference_to_circuit,
    preference_from_labels,
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
        monkeypatch.setenv(CAP_ENV_VAR, "3")
        assert [d.edge_id(*pair) for pair in d.pairs] == list(range(len(d.pairs)))
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


class TestCircuits:
    def test_descent_node_sequence(self):
        u = Universe(("x", "y", "z"))
        p = preference_from_labels(u, "xyz")
        d = build_diagram(u)
        circuit = preference_to_circuit(p, d)
        nodes = [d.edge_endpoints(e)[0] for e in circuit.edges]
        # X -> {y,z} -> {z} -> (empty) -> X
        yz = u.menu_of_labels("yz")
        z = u.menu_of_labels("z")
        assert nodes == [u.full_mask, yz, z, 0]
        assert d.edge_endpoints(circuit.edges[-1]) == (0, u.full_mask)

    def test_roundtrip_all_preferences_n4(self):
        u = Universe.of_size(4)
        d = build_diagram(u)
        prefs = list(all_preferences(u))
        assert len(prefs) == 24
        for p in prefs:
            assert circuit_to_preference(preference_to_circuit(p, d)) == p

    def test_concatenation_rejected(self):
        u = Universe.of_size(3)
        d = build_diagram(u)
        a = preference_to_circuit(preference_from_labels(u, "abc"), d)
        b = preference_to_circuit(preference_from_labels(u, "cba"), d)
        glued = Circuit(d, a.edges + b.edges)
        with pytest.raises(RumkitError, match="minimal"):
            circuit_to_preference(glued)

    def test_indicator_marks_edges_with_appended_last(self):
        u = Universe.of_size(2)
        d = build_diagram(u)
        circuit = preference_to_circuit(preference_from_labels(u, "ab"), d)
        vec = circuit.indicator()
        assert len(vec) == d.edge_count
        assert vec[-1] == 1
        assert sum(vec) == u.n + 1


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
        for _, (x, mask) in basis:
            assert d.edge_id(x, mask) not in tree_edges
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
