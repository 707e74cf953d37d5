"""Command-line interface.

Every subcommand renders a human-readable report by default or machine JSON
with --json. Exit codes: 0 for success or an affirmative determination, 1 for
a negative determination (not identified, not decomposable, not a Latin
square, recovery failed), 2 for input errors. All output is a deterministic
function of the inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import factorial

from . import documents
from .core import Model, Preference, Universe, preference_from_labels
from .decompose import (
    RecoveryStatus,
    extend_edge_decomposable,
    is_edge_decomposable,
    recover_distribution,
)
from .errors import (
    DocumentError,
    NotCarumError,
    NotEdgeDecomposableError,
    RumkitError,
)
from .families import (
    carum_recover,
    check_single_crossing,
    fixtures,
    latin_square,
    max_scrum_model,
    scrum_order_exists,
)
from .flowgraph import (
    build_diagram,
    cyclomatic_number,
    directed_spanning_tree,
    preference_basis,
)
from .identify import is_identified, max_identified_size
from .stochastic import (
    PreferenceDistribution,
    as_fraction,
    check_stochastic_rationality_necessary,
    flow_conservation_check,
    mobius_inverse,
    rcr_from_distribution,
    sample_empirical_rule,
)

OK = 0
NEGATIVE = 1
INPUT_ERROR = 2


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False))
    else:
        for line in lines:
            print(line)


def _ranking_text(pref: Preference) -> str:
    return documents.RANKING_SEPARATOR.join(pref.to_labels())


def _mass_lines(dist: PreferenceDistribution, label: str = "mass") -> list[str]:
    return [f"{label}: {_ranking_text(p)} = {m}" for p, m in dist.entries]


def _mass_payload(dist: PreferenceDistribution) -> dict:
    return {_ranking_text(p): str(m) for p, m in dist.entries}


def _pair_text(universe: Universe, x: int, mask: int) -> str:
    return f"({universe.labels[x]}, {universe.describe_mask(mask)})"


def _parse_order_labels(raw: str) -> list[str]:
    labels = [part.strip() for part in raw.split(",")]
    if any(not lab for lab in labels):
        raise DocumentError(f"--order {raw!r}: empty label")
    return labels


def _order_universe(labels: list[str]) -> tuple[Universe, Preference]:
    universe = Universe(tuple(sorted(labels)))
    return universe, preference_from_labels(universe, labels)


# -- subcommands --------------------------------------------------------------

def _cmd_bound(args: argparse.Namespace) -> int:
    bound = max_identified_size(args.n)
    total = factorial(args.n)
    ratio = Fraction(bound, total)
    _emit(
        args,
        {
            "n": args.n,
            "bound": bound,
            "total_preferences": total,
            "ratio": f"{bound}/{total}",
            "ratio_reduced": str(ratio),
        },
        [
            f"n: {args.n}",
            f"max identified model size: {bound}",
            f"total preferences: {total}",
            f"ratio: {bound}/{total} (= {ratio})",
        ],
    )
    return OK


def _cmd_check_identified(args: argparse.Namespace) -> int:
    model = documents.load_model(args.model)
    result = is_identified(model)
    payload: dict = {"identified": result.identified, "size": len(model)}
    lines = [f"identified: {'yes' if result.identified else 'no'} (size {len(model)})"]
    if not result.identified and args.certificate:
        cert = result.certificate
        payload["certificate"] = {
            "coefficients": {
                _ranking_text(p): str(c) for p, c in cert.coefficients
            },
            "nu": _mass_payload(cert.nu),
            "nu_prime": _mass_payload(cert.nu_prime),
        }
        lines.append("certificate (two distributions inducing the same rule):")
        lines += [
            f"  coefficient: {_ranking_text(p)} = {c}" for p, c in cert.coefficients
        ]
        lines += ["  " + line for line in _mass_lines(cert.nu, "nu")]
        lines += ["  " + line for line in _mass_lines(cert.nu_prime, "nu'")]
    _emit(args, payload, lines)
    return OK if result.identified else NEGATIVE


def _cmd_check_edge_decomposable(args: argparse.Namespace) -> int:
    model = documents.load_model(args.model)
    result = is_edge_decomposable(model)
    payload: dict = {"edge_decomposable": result.decomposable, "size": len(model)}
    lines = [
        f"edge decomposable: {'yes' if result.decomposable else 'no'} "
        f"(size {len(model)})"
    ]
    if result.decomposable and args.witness:
        payload["witness"] = [
            {"preference": _ranking_text(p), "pair": _pair_text(model.universe, pair.x, pair.mask)}
            for p, pair in result.witness
        ]
        lines.append("peeling order (preference, witnessed pair):")
        lines += [
            f"  {_ranking_text(p)} via {_pair_text(model.universe, pair.x, pair.mask)}"
            for p, pair in result.witness
        ]
    if not result.decomposable:
        payload["stuck"] = [_ranking_text(p) for p in result.stuck]
        lines.append(f"stuck submodel ({len(result.stuck)} preferences):")
        lines += [f"  {_ranking_text(p)}" for p in result.stuck]
    _emit(args, payload, lines)
    return OK if result.decomposable else NEGATIVE


def _cmd_max_basis(args: argparse.Namespace) -> int:
    universe = Universe.of_size(args.n)
    diagram = build_diagram(universe, appended=True)
    tree = directed_spanning_tree(diagram)
    basis = preference_basis(tree, diagram)
    model = Model.of(universe, [pref for pref, _ in basis])
    documents.save_model(model, args.out)
    size = len(basis)
    _emit(
        args,
        {
            "n": args.n,
            "size": size,
            "cyclomatic_number": cyclomatic_number(diagram),
            "out": str(args.out),
        },
        [
            f"built a maximal identified model with {size} preferences "
            f"(cyclomatic number {cyclomatic_number(diagram)})",
            f"wrote {args.out}",
        ],
    )
    return OK


def _cmd_extend(args: argparse.Namespace) -> int:
    seed = documents.load_model(args.model)
    try:
        extended = extend_edge_decomposable(seed)
    except NotEdgeDecomposableError as exc:
        _emit(args, {"error": str(exc)}, [f"not extended: {exc}"])
        return NEGATIVE
    documents.save_model(extended, args.out)
    _emit(
        args,
        {"seed_size": len(seed), "size": len(extended), "out": str(args.out)},
        [
            f"extended {len(seed)} preferences to an edge decomposable model "
            f"with {len(extended)}",
            f"wrote {args.out}",
        ],
    )
    return OK


def _cmd_mobius(args: argparse.Namespace) -> int:
    data = documents.load_choice_data(args.data)
    universe = data.rule.universe
    q = mobius_inverse(data.rule)
    nonneg = check_stochastic_rationality_necessary(q)
    payload: dict = {
        "entries": [
            {
                "menu": list(universe.menu(mask).labels()),
                "x": universe.labels[x],
                "value": str(value),
            }
            for (x, mask), value in q.items()
        ],
        "nonnegative": nonneg.ok,
    }
    lines = [
        f"q{_pair_text(universe, x, mask)} = {value}"
        for (x, mask), value in q.items()
    ]
    lines.append(
        "necessary stochastic rationality (q >= 0): "
        + ("holds" if nonneg.ok else f"fails at {len(nonneg.negative)} pairs")
    )
    if args.check_flow:
        flow = flow_conservation_check(q)
        payload["flow_conservation"] = flow.ok
        lines.append(
            "flow conservation: " + ("holds" if flow.ok else "fails")
        )
    _emit(args, payload, lines)
    return OK


def _cmd_recover(args: argparse.Namespace) -> int:
    model = documents.load_model(args.model)
    data = documents.load_choice_data(args.data)
    tolerance = as_fraction(args.tolerance) if args.tolerance else Fraction(0)
    try:
        report = recover_distribution(model, data.rule, tolerance)
    except NotEdgeDecomposableError as exc:
        _emit(args, {"status": "not-edge-decomposable", "error": str(exc)}, [str(exc)])
        return NEGATIVE
    universe = model.universe
    payload: dict = {
        "status": report.status.value,
        "masses": {_ranking_text(p): str(m) for p, m in report.masses},
        "residual_entries": len(report.residual),
    }
    lines = [f"status: {report.status.value}"]
    lines += [f"mass: {_ranking_text(p)} = {m}" for p, m in report.masses]
    if report.residual:
        worst = max(abs(d) for _, d in report.residual)
        payload["max_residual"] = str(worst)
        lines.append(
            f"residual: {len(report.residual)} pairs differ, worst {worst}"
        )
        for (x, mask), diff in report.residual[:5]:
            lines.append(f"  {_pair_text(universe, x, mask)}: {diff}")
        if len(report.residual) > 5:
            lines.append(f"  ... and {len(report.residual) - 5} more")
    _emit(args, payload, lines)
    return OK if report.status is not RecoveryStatus.FAILED else NEGATIVE


def _cmd_generate(args: argparse.Namespace) -> int:
    model = documents.load_model(args.model)
    dist = documents.load_distribution(args.dist, model=model)
    if args.samples is None:
        rule = rcr_from_distribution(dist)
        documents.save_choice_data(rule, args.out)
        detail = "exact rule"
    else:
        sample = sample_empirical_rule(dist, args.samples, args.seed)
        documents.save_choice_data(
            sample.rule, args.out, sample.counts, sample.trials, sample.seed
        )
        detail = f"empirical rule from {args.samples} draws per menu (seed {args.seed})"
    _emit(
        args,
        {
            "out": str(args.out),
            "menus": (1 << model.universe.n) - 1,
            "sampled": args.samples is not None,
        },
        [f"wrote {detail} to {args.out}"],
    )
    return OK


def _cmd_scrum_max(args: argparse.Namespace) -> int:
    if args.order:
        labels = _parse_order_labels(args.order)
        if len(labels) != args.n:
            raise DocumentError(
                f"--order lists {len(labels)} labels but -n is {args.n}"
            )
        universe, order = _order_universe(labels)
    else:
        universe = Universe.of_size(args.n)
        order = Preference(universe, tuple(range(args.n)))
    model, enumeration = max_scrum_model(order)
    documents.save_model(model, args.out)
    _emit(
        args,
        {
            "n": args.n,
            "order": [universe.labels[i] for i in order.ranking],
            "size": len(model),
            "enumeration": [_ranking_text(p) for p in enumeration],
            "out": str(args.out),
        },
        [
            f"maximal single-crossing model for order "
            f"{_ranking_text(order)}: {len(model)} preferences",
            f"wrote {args.out}",
        ],
    )
    return OK


def _cmd_check_single_crossing(args: argparse.Namespace) -> int:
    model = documents.load_model(args.model)
    if args.search_order:
        search = scrum_order_exists(model)
        payload: dict = {
            "single_crossing": search.exists,
            "orders_checked": search.orders_checked,
        }
        if search.exists:
            payload["order"] = [model.universe.labels[i] for i in search.order.ranking]
            payload["enumeration"] = [_ranking_text(p) for p in search.enumeration]
            lines = [
                f"single crossing holds for order {_ranking_text(search.order)} "
                f"(searched {search.orders_checked} orders)",
                "enumeration:",
            ] + [f"  {_ranking_text(p)}" for p in search.enumeration]
        else:
            lines = [
                f"no order admits a single-crossing enumeration "
                f"(searched all {search.orders_checked} orders)"
            ]
        _emit(args, payload, lines)
        return OK if search.exists else NEGATIVE
    labels = _parse_order_labels(args.order)
    order = preference_from_labels(model.universe, labels)
    result = check_single_crossing(model, order)
    payload = {"single_crossing": result.holds}
    if result.holds:
        payload["enumeration"] = [_ranking_text(p) for p in result.enumeration]
        lines = ["single crossing: yes", "enumeration:"]
        lines += [f"  {_ranking_text(p)}" for p in result.enumeration]
    else:
        payload["conflict"] = result.conflict
        lines = ["single crossing: no", f"conflict: {result.conflict}"]
        if result.conflict_prefs:
            a, b = result.conflict_prefs
            lines.append(f"  witnesses: {_ranking_text(a)} and {_ranking_text(b)}")
    _emit(args, payload, lines)
    return OK if result.holds else NEGATIVE


def _cmd_latin_square(args: argparse.Namespace) -> int:
    labels = _parse_order_labels(args.order)
    universe, order = _order_universe(labels)
    model = latin_square(order)
    documents.save_model(model, args.out)
    _emit(
        args,
        {
            "order": [universe.labels[i] for i in order.ranking],
            "size": len(model),
            "out": str(args.out),
        },
        [
            f"Latin square for order {_ranking_text(order)}: "
            f"{len(model)} preferences",
            f"wrote {args.out}",
        ],
    )
    return OK


def _cmd_carum_recover(args: argparse.Namespace) -> int:
    data = documents.load_choice_data(args.data)
    try:
        recovery = carum_recover(data.rule)
    except NotCarumError as exc:
        _emit(args, {"carum": False, "reason": str(exc)}, [f"not a Latin square model: {exc}"])
        return NEGATIVE
    payload = {
        "carum": True,
        "order": [recovery.order.universe.labels[i] for i in recovery.order.ranking],
        "model": [_ranking_text(p) for p in recovery.model.preferences],
        "masses": _mass_payload(recovery.distribution),
    }
    lines = [
        f"recovered order (up to rotation): {_ranking_text(recovery.order)}",
        f"Latin square model: {len(recovery.model)} preferences",
    ] + _mass_lines(recovery.distribution)
    _emit(args, payload, lines)
    return OK


def _cmd_fixtures(args: argparse.Namespace) -> int:
    table = fixtures()
    if args.name not in table:
        raise DocumentError(
            f"--name: unknown fixture {args.name!r}; available: "
            + ", ".join(sorted(table))
        )
    obj = table[args.name]
    if isinstance(obj, Model):
        documents.save_model(obj, args.out)
        kind = "model"
        size = len(obj)
    else:
        documents.save_distribution(obj, args.out)
        kind = "distribution"
        size = len(obj.entries)
    _emit(
        args,
        {"name": args.name, "kind": kind, "size": size, "out": str(args.out)},
        [f"wrote {kind} fixture {args.name!r} ({size} entries) to {args.out}"],
    )
    return OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumkit",
        description=(
            "Exact tools for deciding identification of random utility models, "
            "building maximal identified models, and recovering preference "
            "distributions from stochastic choice data."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("bound", _cmd_bound, "maximal identified model size and its ratio to n!")
    p.add_argument("-n", type=int, required=True)

    p = add("check-identified", _cmd_check_identified, "decide identification of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--certificate", action="store_true",
                   help="print the nullspace certificate when not identified")

    p = add("check-edge-decomposable", _cmd_check_edge_decomposable,
            "decide edge decomposability of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--witness", action="store_true", help="print the peeling order")

    p = add("max-basis", _cmd_max_basis,
            "build a maximal identified (and sequentially decomposable) model")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("extend", _cmd_extend, "grow a decomposable model until maximal")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = add("mobius", _cmd_mobius, "Mobius inverse of choice data")
    p.add_argument("--data", required=True)
    p.add_argument("--check-flow", action="store_true",
                   help="also check probability flow conservation")

    p = add("recover", _cmd_recover, "recover a distribution over a model from data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tolerance", default=None,
                   help="per-entry tolerance for sampled data, e.g. 1/100")

    p = add("generate", _cmd_generate, "choice data induced by a distribution")
    p.add_argument("--model", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=None,
                   help="draws per menu; omit for the exact rule")
    p.add_argument("--seed", type=int, default=0)

    p = add("scrum-max", _cmd_scrum_max, "maximal single-crossing model for an order")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--order", default=None, help="comma-separated labels, best first")
    p.add_argument("--out", required=True)

    p = add("check-single-crossing", _cmd_check_single_crossing,
            "check or search for a single-crossing enumeration")
    p.add_argument("--model", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", default=None, help="comma-separated labels, best first")
    group.add_argument("--search-order", action="store_true",
                       help="search all n! orders exhaustively")

    p = add("latin-square", _cmd_latin_square, "the n cyclic rotations of an order")
    p.add_argument("--order", required=True, help="comma-separated labels, best first")
    p.add_argument("--out", required=True)

    p = add("carum-recover", _cmd_carum_recover,
            "recover the order and distribution of a Latin square model from data")
    p.add_argument("--data", required=True)

    p = add("fixtures", _cmd_fixtures, "write a named fixture model or distribution")
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else INPUT_ERROR
    try:
        return args.func(args)
    except (RumkitError, OSError, ValueError) as exc:
        # ValueError: sizes past what Python can format, e.g. bound -n 2000
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
