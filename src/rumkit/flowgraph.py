"""The probability flow diagram and its preference/circuit structure.

Nodes are the 2^n subsets of the universe; each pair (x, A) with x in A is a
directed edge A -> A \\ {x}. The appended variant adds one edge from the
empty set back to the full set, making the graph strongly connected; minimal
circuits of the appended diagram then correspond one-to-one to preferences.

Both construction algorithms here are deterministic: sets are enumerated in
ascending bitmask order and out-edges by ascending removed-element index, so
repeated runs produce identical trees and bases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ContourPair,
    Menu,
    Preference,
    Universe,
    bits_of,
    contour_pair_index,
    contour_pair_keys,
    require_lattice_cap,
    require_same_universe,
)
from .errors import RumkitError


@dataclass(frozen=True)
class FlowDiagram:
    """The (optionally appended) probability flow diagram over one universe.

    Contour edges are materialized in canonical coordinate order; when the
    diagram is appended, the loop edge gets the final edge id len(pairs).
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

    def edge_id(self, x: int, mask: int) -> int:
        return contour_pair_index(self.universe.n)[(x, mask)]

    def edge_endpoints(self, edge_id: int) -> tuple[int, int]:
        """(source mask, destination mask) of an edge id."""
        if self.appended and edge_id == self.appended_edge_id:
            return (0, self.universe.full_mask)
        x, mask = self.pairs[edge_id]
        return (mask, mask ^ (1 << x))

    def contour_pair(self, edge_id: int) -> ContourPair:
        x, mask = self.pairs[edge_id]
        return ContourPair(x, Menu(self.universe, mask))

    def describe_edge(self, edge_id: int) -> str:
        src, dst = self.edge_endpoints(edge_id)
        u = self.universe
        return f"{u.describe_mask(src)} -> {u.describe_mask(dst)}"


def build_diagram(universe: Universe, appended: bool = True) -> FlowDiagram:
    """Materialize all n * 2^(n-1) contour edges (plus the loop if appended)."""
    require_lattice_cap(universe.n)
    return FlowDiagram(universe, appended, contour_pair_keys(universe.n))


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
class Circuit:
    """A directed cycle in the appended diagram, as an ordered edge-id list."""

    diagram: FlowDiagram
    edges: tuple[int, ...]

    def indicator(self) -> tuple[int, ...]:
        """0/1 vector over all diagram edges, the appended coordinate last."""
        coords = [0] * self.diagram.edge_count
        for eid in self.edges:
            coords[eid] = 1
        return tuple(coords)


def preference_to_circuit(pref: Preference, diagram: FlowDiagram) -> Circuit:
    """The minimal circuit descending along pref then looping back via the append."""
    require_same_universe(pref, diagram)
    if not diagram.appended:
        raise RumkitError("circuits need the appended diagram")
    edges = [diagram.edge_id(x, mask) for x, mask in pref.contour_keys()]
    edges.append(diagram.appended_edge_id)
    return Circuit(diagram, tuple(edges))


def circuit_to_preference(circuit: Circuit) -> Preference:
    """Read the preference off a minimal circuit; rejects anything else."""
    diagram = circuit.diagram
    if not diagram.appended:
        raise RumkitError("circuits need the appended diagram")
    loop_id = diagram.appended_edge_id
    loop_positions = [i for i, eid in enumerate(circuit.edges) if eid == loop_id]
    if len(loop_positions) != 1:
        raise RumkitError(
            f"not a minimal circuit: the appended edge appears "
            f"{len(loop_positions)} times"
        )
    # rotate so the appended edge comes last and the walk starts at X
    cut = loop_positions[0] + 1
    edges = circuit.edges[cut:] + circuit.edges[:cut]
    n = diagram.universe.n
    if len(edges) != n + 1:
        raise RumkitError(f"a minimal circuit has {n + 1} edges, got {len(edges)}")
    current = diagram.universe.full_mask
    ranking = []
    for eid in edges[:-1]:
        x, mask = diagram.pairs[eid]
        if mask != current:
            raise RumkitError(
                f"edge chain breaks at {diagram.describe_edge(eid)}"
            )
        ranking.append(x)
        current ^= 1 << x
    if current != 0:
        raise RumkitError("circuit does not descend to the empty set")
    return Preference(diagram.universe, tuple(ranking))


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
    connected = {0, full}
    # canonical coordinate order is exactly the sweep order: |A| descending,
    # mask ascending, removed element ascending
    for eid, (x, mask) in enumerate(diagram.pairs):
        child = mask ^ (1 << x)
        if child not in connected:
            connected.add(child)
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
) -> tuple[tuple[Preference, ContourPair], ...]:
    """One preference per non-tree edge, forming a basis of the circuit space.

    Sweep levels |A| = 1..n (nodes ascending, removed elements ascending).
    For each non-tree edge e = (A -> A \\ {x}): walk the unique tree path from
    the full set down to A, traverse e, then complete the descent to the empty
    set, at each step removing the smallest-index element whose edge is in the
    tree or was added by an earlier iteration. Lower levels are complete by
    then, so the completion never gets stuck. The emitted witness pair (x, A)
    is covered for the first time by its own circuit, which is what makes the
    reversed output a sequential decomposition witness.
    """
    check = verify_spanning_tree(tree, diagram)
    if not check:
        raise RumkitError(f"invalid spanning tree: {check.violations[0]}")
    universe = diagram.universe
    n = universe.n
    full = universe.full_mask
    index = contour_pair_index(n)
    tree_edges = tree.tree_edges
    available = set(tree_edges)
    available.add(diagram.appended_edge_id)
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, full + 1):
        by_size[mask.bit_count()].append(mask)

    basis: list[tuple[Preference, ContourPair]] = []
    for size in range(1, n + 1):
        for mask in by_size[size]:
            for x in bits_of(mask):
                eid = index[(x, mask)]
                if eid in tree_edges:
                    continue
                up: list[int] = []
                node = mask
                while node != full:
                    par, pe = tree.parent[node]
                    up.append(pe)
                    node = par
                up.reverse()
                available.add(eid)
                ranking = [diagram.pairs[pe][0] for pe in up]
                ranking.append(x)
                cur = mask ^ (1 << x)
                while cur:
                    for y in bits_of(cur):
                        if index[(y, cur)] in available:
                            break
                    else:
                        raise RumkitError(
                            "descent stuck below "
                            f"{universe.describe_mask(cur)}"
                        )
                    ranking.append(y)
                    cur ^= 1 << y
                pref = Preference(universe, tuple(ranking))
                witness = ContourPair(x, Menu(universe, mask))
                basis.append((pref, witness))
    return tuple(basis)
