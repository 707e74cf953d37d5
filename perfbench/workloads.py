"""The benchmark's workloads: seeded inputs, one cycle of tasks, answer checks.

Every workload is a closed loop run by one thread: a task starts when the
previous one has returned, as for a researcher waiting at a shell. A cycle
is a fixed multiset of size classes; the runner repeats whole cycles, so the
share of each class in a run does not depend on how many cycles fit. The
class counts are set so that no reported percentile (overall p50 and p90,
and the p50 of yes and of no tasks) falls on the border between two classes
of different cost.

The seed sets the relabelling of alternatives, the distribution weights, the
chosen extra preference or submodel and the sampling seed. Each cycle draws
fresh inputs from (seed, cycle), so a run samples many instances of every
class, and a traced rerun of cycle c sees the same inputs as the untraced
run did. A check never calls rumkit to judge rumkit: known answers come
from `oracle`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from string import ascii_lowercase
from typing import Callable

import oracle


@dataclass
class Task:
    kind: str  # size class, e.g. "yes-full-n8" or "carum-recover-n11"
    yes: bool  # whether the correct answer is affirmative (exit 0)
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the answer is right


class SetupError(RuntimeError):
    """The program built an input the workload cannot use."""


# (class, n, tasks per cycle); the smoke mixes keep n <= 5
IDENTIFY_MIX = (
    ("yes-half", 7, 3), ("yes-full", 7, 3), ("yes-half", 8, 5), ("yes-full", 8, 4),
    ("no-plus-one", 5, 1), ("no-plus-one", 6, 2),
)
IDENTIFY_SMOKE = (("yes-half", 5, 1), ("yes-full", 5, 1), ("no-plus-one", 4, 1))

RECOVER_MIX = (
    ("yes-mobius", 7, 4), ("no-half", 7, 4), ("yes-rule", 7, 8),
    ("yes-mobius", 8, 3), ("no-half", 8, 1),
)
RECOVER_SMOKE = (("yes-rule", 5, 1), ("yes-mobius", 4, 1), ("no-half", 5, 1))

# pipelines per cycle: latin has 7 commands, basis 3, scs 1; one cycle is
# over 100 tasks, so p90 has ten tasks beyond it within a single cycle
CLI_MIX = (
    ("latin", 11, 1), ("latin", 10, 1), ("latin", 9, 3),
    ("basis", 11, 1), ("basis", 10, 2), ("basis", 9, 18),
    ("scs", 7, 5),
)
CLI_SMOKE = (("latin", 4, 1), ("latin", 5, 1), ("basis", 5, 1), ("scs", 4, 1))

# draws per menu for sampled data, and the recovery tolerance that every
# seed tried while building the benchmark stays within
SAMPLE_TRIALS = 100
SAMPLE_TOLERANCE = Fraction(1, 2)


def _relabel(rng: random.Random, rankings: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [tuple(perm[x] for x in r) for r in rankings]


def _basis_rankings(rk, n: int) -> list[tuple[int, ...]]:
    universe = rk.core.Universe.of_size(n)
    diagram = rk.flowgraph.build_diagram(universe, appended=True)
    tree = rk.flowgraph.directed_spanning_tree(diagram)
    rankings = [pref.ranking for pref, _ in rk.flowgraph.preference_basis(tree, diagram)]
    if len(set(rankings)) != oracle.max_identified_size(n):
        raise SetupError(f"max-basis at n={n} has {len(set(rankings))} preferences, "
                         f"not {oracle.max_identified_size(n)}")
    return rankings


def _model(rk, n: int, rankings):
    universe = rk.core.Universe.of_size(n)
    return rk.core.Model.of(universe, [rk.core.Preference(universe, r) for r in rankings])


def _weights(rng: random.Random, keys) -> dict:
    raw = [rng.randrange(1, 1001) for _ in keys]
    total = sum(raw)
    return {key: Fraction(w, total) for key, w in zip(keys, raw)}


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


# -- identify ------------------------------------------------------------------

def build_identify(rk, seed: int, cycle: int, smoke: bool, workdir: Path) -> list[Task]:
    """`is_identified` on models whose answer the paper fixes.

    Yes: the max-basis model and random halves of it (subsets of an
    identified model are identified); the mod-p screen answers these. No: the
    max-basis plus one outside preference, which is over the paper's bound;
    these run Bareiss, the Fraction nullspace and the certificate.
    """
    rng = random.Random(f"{seed}/{cycle}")
    tasks = []
    bases: dict[int, list] = {}
    for kind, n, count in IDENTIFY_SMOKE if smoke else IDENTIFY_MIX:
        base = bases.setdefault(n, _basis_rankings(rk, n))
        for _ in range(count):
            rankings = _relabel(rng, base, n)
            if kind == "yes-half":
                rankings = rng.sample(rankings, len(rankings) // 2)
            elif kind == "no-plus-one":
                inside = set(rankings)
                extra = tuple(rng.sample(range(n), n))
                while extra in inside:
                    extra = tuple(rng.sample(range(n), n))
                rankings.append(extra)
            tasks.append(_identify_task(rk, f"{kind}-n{n}", n, rankings))
    return _shuffled(rng, tasks)


def _identify_task(rk, kind: str, n: int, rankings) -> Task:
    model = _model(rk, n, rankings)
    yes = not kind.startswith("no")

    def check(result) -> str | None:
        if yes:
            return None if result.identified and result.certificate is None else "answered not identified"
        if result.identified or result.certificate is None:
            return "answered identified, or gave no certificate"
        cert = result.certificate
        nu = {p.ranking: m for p, m in cert.nu.entries}
        nu_prime = {p.ranking: m for p, m in cert.nu_prime.entries}
        return oracle.certificate_problem(rankings, nu, nu_prime, range(n))

    return Task(kind, yes, lambda: rk.identify.is_identified(model), check)


# -- recover -------------------------------------------------------------------

def build_recover(rk, seed: int, cycle: int, smoke: bool, workdir: Path) -> list[Task]:
    """Rule induction and recovery of a full-support distribution.

    Yes: recover over the max-basis model itself, from the rule or (for the
    "mobius" class) from its Mobius inverse, which takes the other
    reconstruction branch; the masses must equal the generating ones. No:
    recover the same data over a random half of the model; the model is
    identified, so the data cannot come from the half and recovery must
    fail with a nonempty residual.
    """
    rng = random.Random(f"{seed}/{cycle}")
    tasks = []
    bases: dict[int, list] = {}
    for kind, n, count in RECOVER_SMOKE if smoke else RECOVER_MIX:
        base = bases.setdefault(n, _basis_rankings(rk, n))
        for _ in range(count):
            rankings = _relabel(rng, base, n)
            nu = _weights(rng, rankings)
            model = _model(rk, n, rankings)
            by_ranking = {p.ranking: p for p in model}
            dist = rk.stochastic.PreferenceDistribution(
                model, {by_ranking[r]: m for r, m in nu.items()})
            target = model
            if kind == "no-half":
                target = _model(rk, n, rng.sample(rankings, len(rankings) // 2))
            tasks.append(_recover_task(rk, f"{kind}-n{n}", dist, target, nu))
    return _shuffled(rng, tasks)


def _recover_task(rk, kind: str, dist, target, nu: dict) -> Task:
    yes = not kind.startswith("no")
    via_mobius = kind.startswith("yes-mobius")

    def run():
        data = rk.stochastic.rcr_from_distribution(dist)
        if via_mobius:
            data = rk.stochastic.mobius_inverse(data)
        return rk.decompose.recover_distribution(target, data)

    def check(report) -> str | None:
        status = report.status.value
        if not yes:
            return None if status == "failed" and report.residual else f"status {status} on a half model"
        masses = {p.ranking: m for p, m in report.masses}
        if status != "exact" or report.distribution is None or masses != nu:
            return f"status {status}; masses differ from the generating distribution"
        return None

    return Task(kind, yes, run, check)


# -- cli-lattice ---------------------------------------------------------------

@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str


def _cli(rk, argv: list[str]) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rk.cli.main(argv)
    return CliOutcome(code, out.getvalue(), err.getvalue())


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _dump_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _command(rk, kind: str, argv: list[str], expect: int, judge: Callable[[dict], str | None]) -> Task:
    """A CLI task: the exit code must be `expect` and `judge` must accept
    the JSON payload printed on stdout."""

    def check(outcome: CliOutcome) -> str | None:
        if outcome.code != expect:
            return f"exit {outcome.code}, expected {expect}: {outcome.stderr.strip()[:200]}"
        return judge(json.loads(outcome.stdout))

    return Task(kind, expect == 0, lambda: _cli(rk, argv), check)


def _latin_pipeline(rk, rng: random.Random, n: int, folder: Path) -> list[Task]:
    """latin-square -> generate -> carum-recover -> mobius -> sampled generate
    -> tolerant recover -> carum-recover on the sampled data (exit 1)."""
    labels = list(ascii_lowercase[:n])
    order = _shuffled(rng, labels[:])
    rotations = [tuple(order[m:] + order[:m]) for m in range(n)]
    nu = _weights(rng, rotations)
    weighted = list(nu.items())
    nu_text = {">".join(r): m for r, m in nu.items()}
    _dump_json(folder / "nu.json", {
        "kind": "distribution", "version": 1, "alternatives": labels,
        "masses": {key: str(m) for key, m in nu_text.items()},
    })
    sample_seed = rng.randrange(1 << 31)
    ls, nu_path, data, sdata = (str(folder / f) for f in ("ls.json", "nu.json", "data.json", "sdata.json"))

    def latin_ok(payload) -> str | None:
        rankings = {tuple(p) for p in _read_json(Path(ls))["preferences"]}
        return None if rankings == set(rotations) else "model is not the rotations of the order"

    def exact_data_ok(payload) -> str | None:
        rule = oracle.induced_rule(weighted, labels)
        for entry in _read_json(Path(data))["entries"]:
            menu = frozenset(entry["menu"])
            for x, value in entry["probabilities"].items():
                if Fraction(value) != rule.get((x, menu), 0):
                    return f"p({x}, {sorted(menu)}) = {value} is not the induced value"
        return None

    def carum_ok(payload) -> str | None:
        masses = {k: Fraction(v) for k, v in payload["masses"].items()}
        if not payload["carum"] or masses != nu_text or tuple(payload["order"]) not in rotations:
            return "recovered order or masses differ from the generating ones"
        return None

    def mobius_ok(payload) -> str | None:
        if not (payload["nonnegative"] and payload["flow_conservation"]):
            return "Mobius inverse of rationalizable data reported negative or not conserving flow"
        q = oracle.contour_masses(weighted)
        for entry in payload["entries"]:
            if Fraction(entry["value"]) != q.get((entry["x"], frozenset(entry["menu"])), 0):
                return f"q({entry['x']}, {entry['menu']}) = {entry['value']} is not the contour mass"
        return None

    def sampled_ok(payload) -> str | None:
        doc = _read_json(Path(sdata))
        if doc.get("trials") != SAMPLE_TRIALS or doc.get("seed") != sample_seed:
            return "sampled data does not record its trials and seed"
        for entry in doc["entries"]:
            menu = frozenset(entry["menu"])
            possible = {oracle.best(r, menu) for r in rotations}
            counts = entry["counts"]
            if sum(counts.values()) != SAMPLE_TRIALS:
                return f"counts on {sorted(menu)} do not sum to the trials"
            for x, c in counts.items():
                if Fraction(entry["probabilities"][x]) != Fraction(c, SAMPLE_TRIALS) or (c and x not in possible):
                    return f"count of {x} on {sorted(menu)} is inconsistent"
        return None

    def approx_ok(payload) -> str | None:
        masses = {k: Fraction(v) for k, v in payload["masses"].items()}
        if payload["status"] != "approximate" or set(masses) != set(nu_text):
            return f"status {payload['status']} on sampled data"
        worst = max(abs(masses[k] - nu_text[k]) for k in nu_text)
        return None if worst <= SAMPLE_TOLERANCE else f"a mass is {worst} from the generating one"

    def not_carum_ok(payload) -> str | None:
        return None if payload["carum"] is False else "sampled data accepted as exact Latin-square data"

    sample = ["--samples", str(SAMPLE_TRIALS), "--seed", str(sample_seed)]
    return [
        _command(rk, f"latin-square-n{n}", ["latin-square", "--order", ",".join(order), "--out", ls, "--json"], 0, latin_ok),
        _command(rk, f"generate-n{n}", ["generate", "--model", ls, "--dist", nu_path, "--out", data, "--json"], 0, exact_data_ok),
        _command(rk, f"carum-recover-n{n}", ["carum-recover", "--data", data, "--json"], 0, carum_ok),
        _command(rk, f"mobius-n{n}", ["mobius", "--data", data, "--check-flow", "--json"], 0, mobius_ok),
        _command(rk, f"generate-samples-n{n}", ["generate", "--model", ls, "--dist", nu_path, "--out", sdata, *sample, "--json"], 0, sampled_ok),
        _command(rk, f"recover-sampled-n{n}", ["recover", "--model", ls, "--data", sdata, "--tolerance", str(SAMPLE_TOLERANCE), "--json"], 0, approx_ok),
        _command(rk, f"carum-recover-sampled-n{n}", ["carum-recover", "--data", sdata, "--json"], 1, not_carum_ok),
    ]


def _parse_pair(text: str) -> tuple[str, frozenset]:
    # "(x, {a,b,x})" as printed by check-edge-decomposable
    x, menu = text[1:-1].split(", ", 1)
    return x, frozenset(menu[1:-1].split(","))


def _basis_pipeline(rk, n: int, folder: Path) -> list[Task]:
    """max-basis -> check-edge-decomposable --witness -> extend."""
    mb, ext = str(folder / "mb.json"), str(folder / "ext.json")
    size = oracle.max_identified_size(n)

    def rankings(path: str) -> list[tuple[str, ...]]:
        return [tuple(p) for p in _read_json(Path(path))["preferences"]]

    def basis_ok(payload) -> str | None:
        if payload["size"] != size or len(set(rankings(mb))) != size:
            return f"max-basis size {payload['size']}, expected {size}"
        return None

    def witness_ok(payload) -> str | None:
        if not payload["edge_decomposable"]:
            return "max-basis reported not edge decomposable"
        witness = [(tuple(w["preference"].split(">")), *_parse_pair(w["pair"])) for w in payload["witness"]]
        return oracle.peel_witness_problem(rankings(mb), witness)

    def extend_ok(payload) -> str | None:
        if payload["seed_size"] != size or payload["size"] != size or set(rankings(ext)) != set(rankings(mb)):
            return "extending a maximal model changed it"
        return None

    return [
        _command(rk, f"max-basis-n{n}", ["max-basis", "-n", str(n), "--out", mb, "--json"], 0, basis_ok),
        _command(rk, f"check-edge-decomposable-n{n}", ["check-edge-decomposable", "--model", mb, "--witness", "--json"], 0, witness_ok),
        _command(rk, f"extend-n{n}", ["extend", "--model", mb, "--out", ext, "--json"], 0, extend_ok),
    ]


def _scs_task(rk, rng: random.Random, n: int, folder: Path) -> list[Task]:
    """check-single-crossing --search-order on a model with no order.

    Three rankings, each one adjacent swap away from a base ranking, at the
    first three positions: whichever sits in the middle of an enumeration
    switches its own pair twice, so every one of the n! orders fails. The
    positions are fixed because the cost of the search depends on them and
    not on the relabelling.
    """
    labels = list(ascii_lowercase[:n])
    base = _shuffled(rng, labels[:])
    rankings = []
    for pos in range(3):
        r = base[:]
        r[pos], r[pos + 1] = r[pos + 1], r[pos]
        rankings.append(tuple(r))
    if oracle.single_crossing_exists(rankings):
        raise SetupError("the no-order model admits a single-crossing order")
    path = folder / "scs.json"
    _dump_json(path, {"kind": "model", "version": 1, "alternatives": labels,
                      "preferences": [list(r) for r in rankings]})

    def none_ok(payload) -> str | None:
        if payload["single_crossing"] or payload["orders_checked"] != factorial(n):
            return "search found an order, or did not check all n! orders"
        return None

    argv = ["check-single-crossing", "--model", str(path), "--search-order", "--json"]
    return [_command(rk, f"check-single-crossing-n{n}", argv, 1, none_ok)]


def build_cli_lattice(rk, seed: int, cycle: int, smoke: bool, workdir: Path) -> list[Task]:
    """Whole CLI pipelines through `rumkit.cli.main(argv)`, in process.

    Running in process keeps interpreter start-up (about 0.1 s) out of every
    task, but also keeps state alive between commands (imports, lru caches),
    which a real shell pipeline does not.
    """
    rng = random.Random(f"{seed}/{cycle}")
    pipelines = []
    for kind, n, count in CLI_SMOKE if smoke else CLI_MIX:
        for _ in range(count):
            folder = workdir / f"{kind}-{n}-{len(pipelines)}"
            folder.mkdir(parents=True, exist_ok=True)
            if kind == "latin":
                pipelines.append(_latin_pipeline(rk, rng, n, folder))
            elif kind == "basis":
                pipelines.append(_basis_pipeline(rk, n, folder))
            else:
                pipelines.append(_scs_task(rk, rng, n, folder))
    return [task for pipeline in _shuffled(rng, pipelines) for task in pipeline]


# tasks an untraced run measures at least: p90 is reported, so at least
# 100; identify's task times drift most with the machine's speed, so it
# measures more of them
MIN_TASKS = {"identify": 150, "recover": 100, "cli-lattice": 100}

WORKLOADS = {
    "identify": build_identify,
    "recover": build_recover,
    "cli-lattice": build_cli_lattice,
}
