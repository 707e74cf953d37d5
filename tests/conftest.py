"""Shared deterministic generators for randomized suites."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from rumkit import (
    ChoiceData,
    DecompositionResult,
    IdentificationResult,
    MobiusInverse,
    Model,
    OrderSearchResult,
    Preference,
    PreferenceDistribution,
    RandomChoiceRule,
    RumkitError,
    SingleCrossingResult,
    SpanningTree,
    Universe,
    WitnessError,
    all_preferences,
    build_diagram,
    check_single_crossing,
    directed_spanning_tree,
    double_cover_model,
    lattice,
    mobius_inverse,
    mobius_vector,
    preference_basis,
    rank,
    rcr_from_distribution,
)
from rumkit.core import bits_of
from rumkit.documents import dump_choice_data
from rumkit.flowgraph import FlowDiagram
from rumkit.identify import _certificate, _eliminate
from rumkit.stochastic import _superset_transform


def random_preference(rng: random.Random, universe: Universe) -> Preference:
    ranking = list(range(universe.n))
    rng.shuffle(ranking)
    return Preference(universe, tuple(ranking))


def random_model(rng: random.Random, universe: Universe, size: int) -> Model:
    if size > factorial(universe.n):
        raise ValueError(f"no {size} distinct preferences on {universe.n} alternatives")
    chosen: dict[tuple[int, ...], Preference] = {}
    while len(chosen) < size:
        pref = random_preference(rng, universe)
        chosen[pref.ranking] = pref
    return Model.of(universe, chosen.values())


def three_swaps(rng: random.Random, n: int) -> Model:
    """The benchmark's no-order shape: adjacent swaps at positions 0-2 of one
    random ranking."""
    u = Universe.of_size(n)
    base = rng.sample(range(n), n)
    rankings = []
    for pos in range(3):
        r = base[:]
        r[pos], r[pos + 1] = r[pos + 1], r[pos]
        rankings.append(tuple(r))
    return Model.of(u, [Preference(u, r) for r in rankings])


def random_distribution(
    rng: random.Random, model: Model, max_weight: int = 12
) -> PreferenceDistribution:
    weights = [rng.randrange(0, max_weight + 1) for _ in model.preferences]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    return PreferenceDistribution(
        model,
        {p: Fraction(w, total) for p, w in zip(model.preferences, weights)},
    )


def random_rule(rng: random.Random, universe: Universe) -> RandomChoiceRule:
    """A valid rule with random rational menu splits (not necessarily rational-
    izable by any distribution)."""
    values: dict[tuple[int, int], Fraction] = {}
    for mask in range(1, universe.full_mask + 1):
        members = [x for x in range(universe.n) if mask >> x & 1]
        weights = [rng.randrange(0, 7) for _ in members]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        for x, w in zip(members, weights):
            values[(x, mask)] = Fraction(w, total)
    return RandomChoiceRule(universe, values)


def random_mobius_values(
    rng: random.Random, universe: Universe
) -> dict[tuple[int, int], Fraction]:
    """An arbitrary exact table over all pairs, negative entries included."""
    return {
        key: Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        for key in lattice(universe.n).keys
    }


def alternating_sum_mobius(rule: RandomChoiceRule) -> dict[tuple[int, int], Fraction]:
    """Oracle for the Mobius inverse, entry by entry from its definition:
    q(x, A) = sum over B >= A of (-1)^|B \\ A| p(x, B)."""
    universe = rule.universe
    table = {}
    for x, mask in lattice(universe.n).keys:
        extra = universe.full_mask & ~mask
        total = Fraction(0)
        add = extra
        while True:
            sign = -1 if add.bit_count() & 1 else 1
            total += sign * rule.value(x, mask | add)
            if add == 0:
                break
            add = (add - 1) & extra
        table[(x, mask)] = total
    return table


def best_element_rule(dist: PreferenceDistribution) -> dict[tuple[int, int], Fraction]:
    """Oracle for the induced rule: p(x, A) is the summed mass of the
    preferences whose best element in A is x."""
    universe = dist.universe
    table = {key: Fraction(0) for key in lattice(universe.n).keys}
    for mask in range(1, universe.full_mask + 1):
        for pref, m in dist.entries:
            table[(pref.best_in(mask), mask)] += m
    return table


def document_counts(data: ChoiceData) -> dict[tuple[int, int], int]:
    """The nonzero sample counts, read from the data's dumped document."""
    doc = dump_choice_data(data.rule, data.trials, data.seed)
    universe = data.rule.universe
    counts = {}
    for entry in doc["entries"]:
        mask = universe.menu_of_labels(entry["menu"])
        for label, c in entry["counts"].items():
            if c:
                counts[(universe.index(label), mask)] = c
    return counts


def verify_contour_mass_identity(dist: PreferenceDistribution) -> bool:
    """The Mobius inverse of the induced rule equals contour-class mass.

    For every pair (x, A): q(x, A) computed from p must equal the summed mass
    of supported preferences whose weak lower contour set of x is exactly A.
    """
    mass = dict.fromkeys(lattice(dist.universe.n).keys, Fraction(0))
    for pref, m in dist.entries:
        for key in pref.contour_keys():
            mass[key] += m
    return mobius_inverse(rcr_from_distribution(dist)).values == mass


def rule_vector(pref: Preference) -> tuple[int, ...]:
    """Oracle for the rule of the point mass on pref, as a 0/1 vector with a
    one per nonempty menu, at that menu's best element: x is best in A
    exactly when A lies inside x's weak lower contour set, so the vector is
    the superset sum of pref's circuit."""
    coords = lattice(pref.universe.n)
    return tuple(_superset_transform(coords, mobius_vector(pref), 1))


class RecoveryError(RumkitError):
    """Closed-form recovery produced masses that are not a distribution."""


def double_cover_closed_form(q: MobiusInverse) -> PreferenceDistribution:
    """Invert double-cover data by the model's three-equation linear system.

    Three pairwise-overlapping edges pin down the masses of the three
    preferences sharing them; every remaining mass then follows from one
    already-known mass and one Mobius entry. Raises RecoveryError when the
    resulting masses are not a distribution (the data did not come from this
    model).
    """
    model = double_cover_model()
    u = model.universe
    if q.universe != u:
        raise RumkitError("Mobius data is not on the {a..h} universe")

    def entry(x_label: str, menu_labels: str) -> Fraction:
        x = u.index(x_label)
        mask = 0
        for lab in menu_labels:
            mask |= 1 << u.index(lab)
        return q.value(x, mask)

    prefs = {"".join(p.to_labels()): p for p in model.preferences}
    half = Fraction(1, 2)
    m = {}
    m["hgefbdac"] = half * (entry("h", "abcdefgh") + entry("e", "abcdef") - entry("b", "ab"))
    m["hgfdceba"] = half * (entry("h", "abcdefgh") - entry("e", "abcdef") + entry("b", "ab"))
    m["ghefdcba"] = half * (-entry("h", "abcdefgh") + entry("e", "abcdef") + entry("b", "ab"))
    m["fgdhceab"] = entry("c", "abce") - m["hgfdceba"]
    m["ghfdebca"] = entry("f", "abcdef") - m["hgfdceba"]
    m["fghedcab"] = entry("a", "ab") - m["fgdhceab"]
    m["gfdhebac"] = entry("e", "abce") - m["ghfdebca"]
    m["gfhebdca"] = entry("c", "ac") - m["ghfdebca"]
    if any(value < 0 or value > 1 for value in m.values()):
        raise RecoveryError("closed-form masses fall outside [0, 1]")
    if sum(m.values(), Fraction(0)) != 1:
        raise RecoveryError("closed-form masses do not sum to 1")
    return PreferenceDistribution(model, {prefs[k]: v for k, v in m.items()})


def nullspace_vector(vectors) -> list[Fraction]:
    """Oracle for the certificate: a nonzero c with sum c_j * vectors[j] = 0,
    from dense Fraction elimination on the vectors as columns, taking the
    first free column with coefficient 1."""
    k = len(vectors)
    ncoords = len(vectors[0])
    cols = [[Fraction(vectors[j][i]) for j in range(k)] for i in range(ncoords)]
    pivot_rows: list[tuple[int, int]] = []  # (row, col)
    row = 0
    for col in range(k):
        piv = next((i for i in range(row, ncoords) if cols[i][col]), None)
        if piv is None:
            c = [Fraction(0)] * k
            c[col] = Fraction(1)
            for prow, pcol in reversed(pivot_rows):
                s = sum(cols[prow][j] * c[j] for j in range(pcol + 1, col + 1))
                c[pcol] = -s / cols[prow][pcol]
            return c
        cols[row], cols[piv] = cols[piv], cols[row]
        pval = cols[row][col]
        for i in range(row + 1, ncoords):
            f = cols[i][col]
            if f:
                factor = f / pval
                for c2 in range(col, k):
                    cols[i][c2] -= factor * cols[row][c2]
        pivot_rows.append((row, col))
        row += 1
    raise ValueError("no nullspace vector: the vectors are linearly independent")


def identified_on_all_rows(model: Model) -> IdentificationResult:
    """Oracle for is_identified: no screen and no peel. The exact rank of
    every member's dense Mobius vector decides, and the certificate comes
    from the integer elimination over every member's circuit, stopped at the
    first dependency."""
    if rank([mobius_vector(p) for p in model]) == len(model):
        return IdentificationResult(True, None)
    index = lattice(model.universe.n).index
    rows = ({index[key]: 1 for key in p.contour_keys()} for p in model)
    combo = next(combo for combo in _eliminate(rows) if combo is not None)
    return IdentificationResult(False, _certificate(model, combo))


def random_spanning_tree(rng: random.Random, diagram: FlowDiagram) -> SpanningTree:
    """A valid spanning tree of the appended diagram: every node below the full
    set links to itself plus one random missing element."""
    n = diagram.universe.n
    full = diagram.universe.full_mask
    index = lattice(n).index
    parent = {full: (0, diagram.appended_edge_id)}
    for child in range(1, full):
        y = rng.choice([y for y in range(n) if not child >> y & 1])
        parent[child] = (child | 1 << y, index[(y, child | 1 << y)])
    return SpanningTree(parent)


def search_basis(
    tree: SpanningTree, diagram: FlowDiagram
) -> list[tuple[Preference, tuple[int, int]]]:
    """Oracle for preference_basis: sweep non-tree edges by level, walk the tree
    path down to the edge's menu, then search the descent one step at a time,
    removing the smallest element whose edge is a tree edge or was swept
    before."""
    universe = diagram.universe
    index = lattice(universe.n).index
    pairs = diagram.pairs
    tree_edges = tree.tree_edges
    available = set(tree_edges) | {diagram.appended_edge_id}
    basis = []
    for eid in sorted(range(len(pairs)), key=lambda e: pairs[e][1].bit_count()):
        if eid in tree_edges:
            continue
        x, mask = pairs[eid]
        path, node = [], mask
        while node != universe.full_mask:
            node, pe = tree.parent[node]
            path.append(pairs[pe][0])
        available.add(eid)
        ranking = path[::-1] + [x]
        cur = mask ^ (1 << x)
        while cur:
            y = next(y for y in bits_of(cur) if index[(y, cur)] in available)
            ranking.append(y)
            cur ^= 1 << y
        basis.append((Preference(universe, tuple(ranking)), (x, mask)))
    return basis


def max_basis(n: int) -> Model:
    """The maximal identified model: one preference per non-tree edge of the
    flow diagram's spanning tree."""
    d = build_diagram(Universe.of_size(n))
    return Model.of(d.universe, [p for p, _ in preference_basis(directed_spanning_tree(d), d)])


def max_basis_plus_one(n: int) -> Model:
    """max_basis(n) plus the first preference outside it in all_preferences
    order: one more member than the bound allows, so never identified."""
    basis = max_basis(n)
    extra = next(p for p in all_preferences(basis.universe) if p not in basis)
    return Model.of(basis.universe, [*basis, extra])


def greedy_peel_by_counter(model: Model) -> DecompositionResult:
    """Oracle for is_edge_decomposable: the greedy peel on tuple keys counted
    in a Counter, rescanning the members left in canonical order and each
    member's pairs in upper-contour order for the first pair covered once."""
    remaining = list(model.preferences)
    cover = Counter(key for pref in remaining for key in pref.contour_keys())
    witness = []
    while remaining:
        hit = next(
            (
                (pref, key)
                for pref in remaining
                for key in pref.contour_keys()
                if cover[key] == 1
            ),
            None,
        )
        if hit is None:
            return DecompositionResult(False, None, Model.of(model.universe, remaining))
        pref, _ = hit
        witness.append(hit)
        remaining.remove(pref)
        cover.subtract(pref.contour_keys())
    return DecompositionResult(True, tuple(witness), None)


def validate_witness_by_suffix(
    model: Model, witness: list[tuple[Preference, tuple[int, int]]]
) -> bool:
    """Oracle for validate_witness: copy each suffix and rescan it for the
    members whose contour key for x is the witnessed (x, A)."""
    listed = [pref for pref, _ in witness]
    if sorted(listed, key=lambda p: p.ranking) != list(model.preferences):
        raise WitnessError("witness does not cover the model exactly once")
    for _, key in witness:
        model.universe.require_pair(key, WitnessError)
    for i, (pref, (x, mask)) in enumerate(witness):
        suffix = listed[i:]
        members = [p for p in suffix if p.contour_menu_mask(x) == mask]
        if members != [pref]:
            return False
    return True


def single_crossing_by_sets(model: Model, order: Preference) -> SingleCrossingResult:
    """Oracle for check_single_crossing without an enumeration: frozensets of
    the members ranking x over y, for x above y in the order, compared pairwise
    for nesting; on success the members sorted by how many sets hold them are
    verified as an enumeration."""
    ranking = order.ranking
    pairs = [(x, y) for i, x in enumerate(ranking) for y in ranking[i + 1 :]]
    sets = {(x, y): frozenset(p for p in model if p.prefers(x, y)) for x, y in pairs}
    for i, a in enumerate(pairs):
        for b in pairs[i + 1 :]:
            sa, sb = sets[a], sets[b]
            if not (sa <= sb or sb <= sa):
                u = order.universe
                return SingleCrossingResult(
                    False,
                    conflict=(
                        f"agreement sets for ({u.labels[a[0]]},{u.labels[a[1]]}) and "
                        f"({u.labels[b[0]]},{u.labels[b[1]]}) cross"
                    ),
                    conflict_prefs=(
                        min(sa - sb, key=lambda p: p.ranking),
                        min(sb - sa, key=lambda p: p.ranking),
                    ),
                )
    counts = {pref: sum(pref in s for s in sets.values()) for pref in model}
    ordered = tuple(sorted(model, key=lambda p: (counts[p], p.ranking)))
    verified = check_single_crossing(model, order, ordered)
    if not verified:
        raise AssertionError("nested agreement sets failed re-verification")
    return verified


def scrum_order_exists_by_check(model: Model) -> OrderSearchResult:
    """Oracle for scrum_order_exists: build every order in permutation order and
    decide it with single_crossing_by_sets."""
    universe = model.universe
    checked = 0
    for perm in permutations(range(universe.n)):
        order = Preference(universe, perm)
        checked += 1
        result = single_crossing_by_sets(model, order)
        if result:
            return OrderSearchResult(True, order, result.enumeration, checked)
    return OrderSearchResult(False, None, None, checked)


def scrum_order_exists_by_walk(model: Model) -> OrderSearchResult:
    """Oracle for scrum_order_exists past the per-order oracle's reach: walk
    order prefixes depth first, alternatives ascending. Placing x fixes the
    agreement sets of x over every alternative not yet placed; a prefix whose
    fixed sets are not nested is skipped with all its completions, which
    still count as checked, since no superfamily of a crossing pair is a
    chain. Every complete order the walk reaches passes."""
    universe = model.universe
    n = universe.n
    agree = [
        [sum(1 << i for i, p in enumerate(model) if p.prefers(x, y)) for y in range(n)]
        for x in range(n)
    ]
    checked = 0

    def chain(sets: list[int]) -> list[int] | None:
        sets = sorted(sets, key=int.bit_count)
        return sets if all(a & ~b == 0 for a, b in zip(sets, sets[1:])) else None

    def first(prefix: list[int], fixed: list[int]) -> tuple[int, ...] | None:
        nonlocal checked
        rest = [y for y in range(n) if y not in prefix]
        if not rest:
            checked += 1
            return tuple(prefix)
        for x in rest:
            grown = chain(fixed + [agree[x][y] for y in rest if y != x])
            if grown is None:
                checked += factorial(len(rest) - 1)
                continue
            found = first(prefix + [x], grown)
            if found is not None:
                return found
        return None

    ranking = first([], [])
    if ranking is None:
        return OrderSearchResult(False, None, None, checked)
    order = Preference(universe, ranking)
    enumeration = single_crossing_by_sets(model, order).enumeration
    return OrderSearchResult(True, order, enumeration, checked)


def lexicographic_rank(ranking: tuple[int, ...]) -> int:
    """How many orders come before the ranking in permutations order: each
    position contributes the later entries smaller than its own, times the
    number of orders of the positions after it."""
    n = len(ranking)
    return sum(
        sum(y < x for y in ranking[i + 1 :]) * factorial(n - 1 - i)
        for i, x in enumerate(ranking)
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
