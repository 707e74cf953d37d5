"""The probability flow diagram and its preference/circuit structure.

Nodes are the 2^n subsets of the universe; each pair (x, A) with x in A is a
directed edge A -> A \\ {x}. The appended variant adds one edge from the
empty set back to the full set, making the graph strongly connected; minimal
circuits of the appended diagram then correspond one-to-one to preferences.
A preference's circuit is its contour_keys(), the n edges it descends from
the full set to the empty set, closed by the appended edge.

Both construction algorithms here are deterministic: sets are enumerated in
ascending bitmask order and out-edges by ascending removed-element index, so
repeated runs produce identical trees and bases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Preference, Universe, bits_of, lattice
from .errors import RumkitError


@dataclass(frozen=True)
class FlowDiagram:
    """The (optionally appended) probability flow diagram over one universe.

    Contour edges are materialized in canonical coordinate order, so a pair's
    edge id is its lattice(n) coordinate; when the diagram is appended, the
    loop edge gets the final edge id len(pairs). The pairs come from lattice(n)
    when the diagram is built, so the lattice cap is checked then, not per edge.
    """

    universe: Universe
    appended: bool
    pairs: tuple[tuple[int, int], ...]

    @property
    def node_count(self) -> int:
        return 1 << self.universe.n

    @property
    def edge_count(self) -> int:
        return len(self.pairs) + (1 if self.appended else 0)

    @property
    def appended_edge_id(self) -> int:
        if not self.appended:
            raise RumkitError("diagram has no appended edge")
        return len(self.pairs)

    def edge_endpoints(self, edge_id: int) -> tuple[int, int]:
        """(source mask, destination mask) of an edge id."""
        if self.appended and edge_id == self.appended_edge_id:
            return (0, self.universe.full_mask)
        x, mask = self.pairs[edge_id]
        return (mask, mask ^ (1 << x))

    def describe_edge(self, edge_id: int) -> str:
        src, dst = self.edge_endpoints(edge_id)
        u = self.universe
        return f"{u.describe_mask(src)} -> {u.describe_mask(dst)}"


def build_diagram(universe: Universe, appended: bool = True) -> FlowDiagram:
    """Materialize all n * 2^(n-1) contour edges (plus the loop if appended)."""
    return FlowDiagram(universe, appended, lattice(universe.n).keys)


def cyclomatic_number(diagram: FlowDiagram) -> int:
    """E - N + 1 for the appended (strongly connected) diagram.

    Counted from the materialized edge list, not from any closed form; the
    agreement with (n-2) * 2^(n-1) + 2 is a theorem that tests check, not an
    assumption baked in here.
    """
    if not diagram.appended:
        raise RumkitError("the cyclomatic number is defined on the appended diagram")
    return diagram.edge_count - diagram.node_count + 1


@dataclass(frozen=True)
class SpanningTree:
    """Direction-respecting spanning tree of the appended diagram.

    parent maps every node except the root (the empty set) to its unique
    (parent node, connecting edge id); the full set's parent is the root via
    the appended edge.
    """

    parent: dict[int, tuple[int, int]]

    @property
    def tree_edges(self) -> frozenset[int]:
        return frozenset(eid for _, eid in self.parent.values())


def directed_spanning_tree(diagram: FlowDiagram) -> SpanningTree:
    """Grow the tree level by level from the full set down.

    Root the tree at the empty set, connect it to the full set through the
    appended edge, then sweep levels |A| = n..1 (nodes in ascending bitmask
    order, out-edges by ascending removed element) adding each edge whose
    endpoint is not yet connected. The result respects edge directions.
    """
    if not diagram.appended:
        raise RumkitError("the spanning tree is built on the appended diagram")
    full = diagram.universe.full_mask
    parent: dict[int, tuple[int, int]] = {full: (0, diagram.appended_edge_id)}
    # canonical coordinate order is exactly the sweep order: |A| descending,
    # mask ascending, removed element ascending
    for eid, (x, mask) in enumerate(diagram.pairs):
        child = mask ^ (1 << x)
        if child and child not in parent:
            parent[child] = (mask, eid)
    return SpanningTree(parent)


@dataclass(frozen=True)
class TreeCheck:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_spanning_tree(tree: SpanningTree, diagram: FlowDiagram) -> TreeCheck:
    """Check spanning, connectedness, acyclicity, and edge directions."""
    violations = []
    full = diagram.universe.full_mask
    expected = set(range(1, full + 1))
    have = set(tree.parent)
    missing = sorted(expected - have)
    if missing:
        violations.append(
            f"spanning violation: {len(missing)} nodes unreached, first "
            f"{diagram.universe.describe_mask(missing[0])}"
        )
    if 0 in have:
        violations.append("the root (empty set) must not have a parent link")
    for child, (par, eid) in sorted(tree.parent.items()):
        if eid >= diagram.edge_count:
            violations.append(f"link into node {child:#x} uses edge id {eid} off the diagram")
            continue
        src, dst = diagram.edge_endpoints(eid)
        if (src, dst) != (par, child):
            violations.append(
                f"direction violation: link {diagram.universe.describe_mask(par)} -> "
                f"{diagram.universe.describe_mask(child)} is not diagram edge "
                f"{diagram.describe_edge(eid)}"
            )
    # each non-root node has one parent link, so the undirected graph is a
    # tree exactly when every parent walk reaches the root without revisits
    reaches_root: dict[int, bool] = {0: True}
    for node in tree.parent:
        path: list[int] = []
        on_path: set[int] = set()
        cur = node
        while cur not in reaches_root and cur in tree.parent and cur not in on_path:
            on_path.add(cur)
            path.append(cur)
            cur = tree.parent[cur][0]
        if cur in reaches_root:
            ok = reaches_root[cur]
        elif cur in on_path:
            ok = False
            violations.append(
                f"cycle through node {diagram.universe.describe_mask(cur)}"
            )
        else:
            ok = False
            violations.append(
                f"parent chain dangles at unlinked node "
                f"{diagram.universe.describe_mask(cur)}"
            )
        for p in path:
            reaches_root[p] = ok
    return TreeCheck(not violations, tuple(violations))


def preference_basis(
    tree: SpanningTree, diagram: FlowDiagram
) -> tuple[tuple[Preference, tuple[int, int]], ...]:
    """One preference per non-tree edge, forming a basis of the circuit space.

    Sweep levels |A| = 1..n (nodes ascending, removed elements ascending).
    For each non-tree edge e = (A -> A \\ {x}), the preference ranks the
    labels of the unique tree path from the full set down to A, then x, then
    A \\ {x} in ascending order. Below A the descent uses only edges on
    smaller menus, each a tree edge or a non-tree edge already swept, so
    removing the smallest element at every step closes a circuit that uses e
    as its one new edge. Each entry is (preference, (x, A mask)): the witness
    pair is covered for the first time by its own circuit, which is what
    makes the reversed output a sequential decomposition witness.
    """
    check = verify_spanning_tree(tree, diagram)
    if not check:
        raise RumkitError(f"invalid spanning tree: {check.violations[0]}")
    universe = diagram.universe
    full = universe.full_mask
    pairs = diagram.pairs
    tree_edges = tree.tree_edges

    basis: list[tuple[Preference, tuple[int, int]]] = []
    # a stable sort of the canonical order by menu size keeps masks and then
    # removed elements ascending within each level
    for eid in sorted(range(len(pairs)), key=lambda e: pairs[e][1].bit_count()):
        if eid in tree_edges:
            continue
        x, mask = pairs[eid]
        up: list[int] = []
        node = mask
        while node != full:
            node, pe = tree.parent[node]
            up.append(pairs[pe][0])
        up.reverse()
        ranking = (*up, x, *bits_of(mask ^ (1 << x)))
        basis.append((Preference(universe, ranking), (x, mask)))
    return tuple(basis)
