"""Command-line interface.

Every subcommand returns its result as (exit code, payload, lines): the JSON
payload and the human-readable text lines. main prints the payload with
--json, through documents.dumps (the writer every saved document uses), and
the lines otherwise, and nothing else prints a result; a
subcommand with a large table (mobius) builds only the form main prints and
leaves the other empty. main parses with one parser, built when the module
is imported and shared by every call in the process. Exit codes:
0 for success or an affirmative determination, 1 for a negative determination
(not identified, not decomposable, not a Latin square, recovery failed), 2 for
input errors. All output is a deterministic function of the inputs.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from math import factorial, lgamma, log

from . import documents
from .core import MENU_SEPARATOR, Model, Preference, Universe, preference_from_labels
from .decompose import (
    RecoveryStatus,
    extend_edge_decomposable,
    is_edge_decomposable,
    recover_distribution,
)
from .documents import ranking_text
from .errors import (
    DocumentError,
    NotCarumError,
    NotEdgeDecomposableError,
    RumkitError,
    shown,
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
    check_stochastic_rationality_necessary,
    flow_conservation_check,
    mobius_inverse,
    rcr_from_distribution,
    sample_empirical_rule,
)

OK = 0
NEGATIVE = 1
INPUT_ERROR = 2

Result = tuple[int, dict, list[str]]

# scrum-max writes C(n,2)+1 rankings of n labels, so its memory grows as n^3:
# 94 MiB and 0.3 s at n=100, 274 MiB at n=150, 688 MiB at n=200
_SCRUM_MAX_N = 100


def _mass_lines(dist: PreferenceDistribution, label: str = "mass") -> list[str]:
    return [f"{label}: {ranking_text(p)} = {m}" for p, m in dist.entries]


def _mass_payload(dist: PreferenceDistribution) -> dict:
    return {ranking_text(p): str(m) for p, m in dist.entries}


def _parse_order_labels(raw: str) -> list[str]:
    labels = [part.strip() for part in raw.split(MENU_SEPARATOR)]
    if any(not lab for lab in labels):
        raise DocumentError(f"--order {shown(raw)}: empty label")
    return labels


def _order_universe(labels: list[str]) -> tuple[Universe, Preference]:
    universe = Universe(tuple(sorted(labels)))
    return universe, preference_from_labels(universe, labels)


# -- subcommands --------------------------------------------------------------

def _require_printable_factorial(n: int) -> None:
    # refuse before computing n!: a huge n would never finish, and an n! past
    # Python's int-to-str digit limit could not be printed (0 lifts that
    # limit, which would leave no cap at all)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if n > 1 and lgamma(n + 1) / log(10) >= limit:
        raise RumkitError(f"n={n}: n! would have more than {limit} digits")


def _cmd_bound(args: argparse.Namespace) -> Result:
    _require_printable_factorial(args.n)
    bound = max_identified_size(args.n)
    total = factorial(args.n)
    ratio = Fraction(bound, total)
    payload = {
        "n": args.n,
        "bound": bound,
        "total_preferences": total,
        "ratio": f"{bound}/{total}",
        "ratio_reduced": str(ratio),
    }
    return OK, payload, [
        f"n: {args.n}",
        f"max identified model size: {bound}",
        f"total preferences: {total}",
        f"ratio: {bound}/{total} (= {ratio})",
    ]


def _cmd_check_identified(args: argparse.Namespace) -> Result:
    model = documents.load_model(args.model)
    result = is_identified(model)
    payload: dict = {"identified": result.identified, "size": len(model)}
    lines = [f"identified: {'yes' if result.identified else 'no'} (size {len(model)})"]
    if not result.identified and args.certificate:
        cert = result.certificate
        payload["certificate"] = {
            "coefficients": {
                ranking_text(p): str(c) for p, c in cert.coefficients
            },
            "nu": _mass_payload(cert.nu),
            "nu_prime": _mass_payload(cert.nu_prime),
        }
        lines.append("certificate (two distributions inducing the same rule):")
        lines += [
            f"  coefficient: {ranking_text(p)} = {c}" for p, c in cert.coefficients
        ]
        lines += ["  " + line for line in _mass_lines(cert.nu, "nu")]
        lines += ["  " + line for line in _mass_lines(cert.nu_prime, "nu'")]
    return OK if result.identified else NEGATIVE, payload, lines


def _cmd_check_edge_decomposable(args: argparse.Namespace) -> Result:
    model = documents.load_model(args.model)
    result = is_edge_decomposable(model)
    payload: dict = {"edge_decomposable": result.decomposable, "size": len(model)}
    lines = [
        f"edge decomposable: {'yes' if result.decomposable else 'no'} "
        f"(size {len(model)})"
    ]
    if result.decomposable and args.witness:
        # describe_pair, with each menu's text rendered once
        labels, menu = model.universe.labels, cache(model.universe.describe_mask)
        pairs = [
            (ranking_text(p), f"({labels[x]}, {menu(mask)})")
            for p, (x, mask) in result.witness
        ]
        payload["witness"] = [{"preference": p, "pair": pair} for p, pair in pairs]
        lines.append("peeling order (preference, witnessed pair):")
        lines += [f"  {p} via {pair}" for p, pair in pairs]
    if not result.decomposable:
        payload["stuck"] = [ranking_text(p) for p in result.stuck]
        lines.append(f"stuck submodel ({len(result.stuck)} preferences):")
        lines += [f"  {ranking_text(p)}" for p in result.stuck]
    return OK if result.decomposable else NEGATIVE, payload, lines


def _cmd_max_basis(args: argparse.Namespace) -> Result:
    universe = Universe.of_size(args.n)
    diagram = build_diagram(universe, appended=True)
    tree = directed_spanning_tree(diagram)
    basis = preference_basis(tree, diagram)
    model = Model.of(universe, [pref for pref, _ in basis])
    documents.save_model(model, args.out)
    size = len(basis)
    cyclomatic = cyclomatic_number(diagram)
    payload = {
        "n": args.n,
        "size": size,
        "cyclomatic_number": cyclomatic,
        "out": str(args.out),
    }
    return OK, payload, [
        f"built a maximal identified model with {size} preferences "
        f"(cyclomatic number {cyclomatic})",
        f"wrote {args.out}",
    ]


def _cmd_extend(args: argparse.Namespace) -> Result:
    seed = documents.load_model(args.model)
    try:
        extended = extend_edge_decomposable(seed)
    except NotEdgeDecomposableError as exc:
        return NEGATIVE, {"error": str(exc)}, [f"not extended: {exc}"]
    documents.save_model(extended, args.out)
    payload = {"seed_size": len(seed), "size": len(extended), "out": str(args.out)}
    return OK, payload, [
        f"extended {len(seed)} preferences to an edge decomposable model "
        f"with {len(extended)}",
        f"wrote {args.out}",
    ]


def _cmd_mobius(args: argparse.Namespace) -> Result:
    data = documents.load_choice_data(args.data)
    universe = data.rule.universe
    q = mobius_inverse(data.rule)
    nonneg = check_stochastic_rationality_necessary(q)
    flow = flow_conservation_check(q) if args.check_flow else None
    labels = universe.labels
    # each menu's text is rendered once: a menu holds up to n entries
    if args.json:
        menu = cache(universe.labels_of)
        payload: dict = {
            "entries": [
                {"menu": menu(mask), "x": labels[x], "value": str(value)}
                for (x, mask), value in q.items()
            ],
            "nonnegative": nonneg.ok,
        }
        if flow is not None:
            payload["flow_conservation"] = flow.ok
        return OK, payload, []
    menu = cache(universe.describe_mask)
    lines = [f"q({labels[x]}, {menu(mask)}) = {value}" for (x, mask), value in q.items()]
    lines.append(
        "necessary stochastic rationality (q >= 0): "
        + ("holds" if nonneg.ok else f"fails at {len(nonneg.negative)} pairs")
    )
    if flow is not None:
        lines.append("flow conservation: " + ("holds" if flow.ok else "fails"))
    return OK, {}, lines


def _cmd_recover(args: argparse.Namespace) -> Result:
    model = documents.load_model(args.model)
    data = documents.load_choice_data(args.data)
    try:
        report = recover_distribution(model, data.rule, args.tolerance or 0)
    except NotEdgeDecomposableError as exc:
        return NEGATIVE, {"status": "not-edge-decomposable", "error": str(exc)}, [str(exc)]
    universe = model.universe
    payload: dict = {
        "status": report.status.value,
        "masses": {ranking_text(p): str(m) for p, m in report.masses},
        "residual_entries": len(report.residual),
    }
    lines = [f"status: {report.status.value}"]
    lines += [f"mass: {ranking_text(p)} = {m}" for p, m in report.masses]
    if report.residual:
        worst = max(abs(d) for _, d in report.residual)
        payload["max_residual"] = str(worst)
        lines.append(
            f"residual: {len(report.residual)} pairs differ, worst {worst}"
        )
        payload["residual_pairs"] = []
        for (x, mask), diff in report.residual[:5]:
            pair = {"menu": list(universe.labels_of(mask)), "x": universe.labels[x]}
            payload["residual_pairs"].append({**pair, "difference": str(diff)})
            lines.append(f"  {universe.describe_pair(x, mask)}: {diff}")
        if len(report.residual) > 5:
            lines.append(f"  ... and {len(report.residual) - 5} more")
    return OK if report.status is not RecoveryStatus.FAILED else NEGATIVE, payload, lines


def _cmd_generate(args: argparse.Namespace) -> Result:
    model = documents.load_model(args.model)
    dist = documents.load_distribution(args.dist, model=model)
    payload = {
        "out": str(args.out),
        "menus": (1 << model.universe.n) - 1,
        "sampled": args.samples is not None,
    }
    if args.samples is None:
        rule = rcr_from_distribution(dist)
        documents.save_choice_data(rule, args.out)
        detail = "exact rule"
    else:
        sample = sample_empirical_rule(dist, args.samples, args.seed)
        documents.save_choice_data(sample.rule, args.out, sample.trials, sample.seed)
        detail = f"empirical rule from {args.samples} draws per menu (seed {args.seed})"
        payload.update(samples=sample.trials, seed=sample.seed)
    return OK, payload, [f"wrote {detail} to {args.out}"]


def _cmd_scrum_max(args: argparse.Namespace) -> Result:
    if args.n > _SCRUM_MAX_N:
        raise RumkitError(f"n={args.n}: scrum-max is capped at n={_SCRUM_MAX_N}")
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
    payload = {
        "n": args.n,
        "order": [universe.labels[i] for i in order.ranking],
        "size": len(model),
        "enumeration": [ranking_text(p) for p in enumeration],
        "out": str(args.out),
    }
    return OK, payload, [
        f"maximal single-crossing model for order "
        f"{ranking_text(order)}: {len(model)} preferences",
        f"wrote {args.out}",
    ]


def _cmd_check_single_crossing(args: argparse.Namespace) -> Result:
    model = documents.load_model(args.model)
    if args.search_order:
        _require_printable_factorial(model.universe.n)
        search = scrum_order_exists(model)
        total = factorial(model.universe.n)
        payload: dict = {
            "single_crossing": search.exists,
            "orders_checked": search.orders_checked,
        }
        if search.exists:
            payload["order"] = [model.universe.labels[i] for i in search.order.ranking]
            payload["enumeration"] = [ranking_text(p) for p in search.enumeration]
            lines = [
                f"single crossing holds for order {ranking_text(search.order)} "
                f"(order {search.orders_checked} of {total} in lexicographic order)",
                "enumeration:",
            ] + [f"  {ranking_text(p)}" for p in search.enumeration]
        else:
            lines = [
                f"no order admits a single-crossing enumeration "
                f"(none of the {total} orders)"
            ]
        return OK if search.exists else NEGATIVE, payload, lines
    labels = _parse_order_labels(args.order)
    order = preference_from_labels(model.universe, labels)
    result = check_single_crossing(model, order)
    payload = {"single_crossing": result.holds}
    if result.holds:
        payload["enumeration"] = [ranking_text(p) for p in result.enumeration]
        lines = ["single crossing: yes", "enumeration:"]
        lines += [f"  {ranking_text(p)}" for p in result.enumeration]
    else:
        a, b = (ranking_text(p) for p in result.conflict_prefs)
        payload.update(conflict=result.conflict, witnesses=[a, b])
        lines = ["single crossing: no", f"conflict: {result.conflict}"]
        lines.append(f"  witnesses: {a} and {b}")
    return OK if result.holds else NEGATIVE, payload, lines


def _cmd_latin_square(args: argparse.Namespace) -> Result:
    labels = _parse_order_labels(args.order)
    universe, order = _order_universe(labels)
    model = latin_square(order)
    documents.save_model(model, args.out)
    payload = {
        "order": [universe.labels[i] for i in order.ranking],
        "size": len(model),
        "out": str(args.out),
    }
    return OK, payload, [
        f"Latin square for order {ranking_text(order)}: {len(model)} preferences",
        f"wrote {args.out}",
    ]


def _cmd_carum_recover(args: argparse.Namespace) -> Result:
    data = documents.load_choice_data(args.data)
    try:
        recovery = carum_recover(data.rule)
    except NotCarumError as exc:
        return NEGATIVE, {"carum": False, "reason": str(exc)}, [f"not a Latin square model: {exc}"]
    payload = {
        "carum": True,
        "order": [recovery.order.universe.labels[i] for i in recovery.order.ranking],
        "model": [ranking_text(p) for p in recovery.model.preferences],
        "masses": _mass_payload(recovery.distribution),
    }
    lines = [
        f"recovered order (up to rotation): {ranking_text(recovery.order)}",
        f"Latin square model: {len(recovery.model)} preferences",
    ] + _mass_lines(recovery.distribution)
    return OK, payload, lines


def _cmd_fixtures(args: argparse.Namespace) -> Result:
    table = fixtures()
    if args.name not in table:
        raise DocumentError(
            f"--name: unknown fixture {shown(args.name)}; available: "
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
    payload = {"name": args.name, "kind": kind, "size": size, "out": str(args.out)}
    return OK, payload, [f"wrote {kind} fixture {args.name!r} ({size} entries) to {args.out}"]


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

    p = add("extend", _cmd_extend,
            "grow a decomposable model until every contour pair meets the model")
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
                       help="find the first order, lexicographically, that "
                       "admits a single-crossing enumeration")

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


# built once per process: parse_args keeps no state between calls, and
# building the 13 subparsers costs more than a small command's own work
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else INPUT_ERROR
    try:
        code, payload, lines = args.func(args)
        if args.json:
            print(documents.dumps(payload))
        else:
            print("\n".join(lines))
        return code
    except (RumkitError, OSError, ValueError) as exc:
        # ValueError: e.g. a number past Python's int-to-str digit limit
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
