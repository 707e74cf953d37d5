"""Golden library answers: one sha256 per function over a fixed corpus, pinned.

The corpus is the fixture models, max-basis at n=3-9, max-basis plus one
at n=4-9 (at n=3 max-basis holds every preference), Latin squares, and
seeded random models at n=1-7. The random models come from a small
generator written here, so the corpus does not depend on the internals of
`random`. Each function's answers on the corpus are
serialized to canonical JSON and hashed on their own, so a failure names the
function whose answers changed. The bytes each document writer puts on disk
over the corpus, and the --json stdout of the max-basis -n 9 pipeline, are
hashed the same way, one digest per writer. The expected digests live in
tests/data/answers_golden.json. Regenerate them only for an intended change
of answers, from the repository root:

    PYTHONPATH=src python tests/test_answers_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial
from pathlib import Path

from conftest import max_basis, max_basis_plus_one
from rumkit import (
    Model,
    Preference,
    PreferenceDistribution,
    RumkitError,
    Universe,
    fixtures,
    is_edge_decomposable,
    is_identified,
    latin_square,
    max_identified_size,
    mobius_inverse,
    rcr_from_distribution,
    recover_distribution,
)
from rumkit.cli import main
from rumkit.documents import save_choice_data, save_distribution, save_model

GOLDEN = Path(__file__).parent / "data" / "answers_golden.json"


class Draws:
    """A 64-bit linear congruential generator (Knuth's MMIX constants)."""

    def __init__(self, seed: int) -> None:
        self.state = seed

    def below(self, k: int) -> int:
        self.state = (self.state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return (self.state >> 33) % k

    def ranking(self, n: int) -> tuple[int, ...]:
        ranking = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            ranking[i], ranking[j] = ranking[j], ranking[i]
        return tuple(ranking)


def corpus() -> list[tuple[str, Model]]:
    models = [(name, m) for name, m in fixtures().items() if isinstance(m, Model)]
    for n in range(3, 10):
        basis = max_basis(n)
        models.append((f"max-basis-{n}", basis))
        if len(basis) < factorial(n):
            models.append((f"max-basis-plus-one-{n}", max_basis_plus_one(n)))
    draws = Draws(2024)
    for n in range(2, 10):
        u = Universe.of_size(n)
        models.append((f"latin-{n}-sorted", latin_square(Preference(u, tuple(range(n))))))
        models.append((f"latin-{n}-drawn", latin_square(Preference(u, draws.ranking(n)))))
    for n in range(1, 8):
        u = Universe.of_size(n)
        most = min(factorial(n), max_identified_size(n) + 2)
        for k in range(24):
            size = 1 + draws.below(most)
            chosen: dict[tuple[int, ...], Preference] = {}
            while len(chosen) < size:
                ranking = draws.ranking(n)
                chosen.setdefault(ranking, Preference(u, ranking))
            models.append((f"random-{n}-{k}", Model.of(u, chosen.values())))
    return models


def _masses(entries) -> list:
    return [[list(p.ranking), str(m)] for p, m in entries]


def identified_answer(model: Model) -> list:
    res = is_identified(model)
    cert = res.certificate
    if cert is None:
        return [res.identified]
    return [
        res.identified,
        _masses(cert.coefficients),
        _masses(cert.nu.entries),
        _masses(cert.nu_prime.entries),
    ]


def decomposable_answer(model: Model) -> list:
    res = is_edge_decomposable(model)
    if res.decomposable:
        return [True, [[list(p.ranking), list(key)] for p, key in res.witness]]
    return [False, [list(p.ranking) for p in res.stuck]]


def _report(model: Model, data) -> list:
    try:
        report = recover_distribution(model, data)
    except RumkitError as exc:
        return [f"error: {exc}"]
    dist = report.distribution
    return [
        report.status.value,
        _masses(report.masses),
        [[list(key), str(diff)] for key, diff in report.residual],
        None if dist is None else _masses(dist.entries),
        str(report.tolerance),
    ]


def _weighted(model: Model, weights: list[int]) -> PreferenceDistribution:
    total = sum(weights)
    return PreferenceDistribution(
        model, {p: Fraction(w, total) for p, w in zip(model, weights)}
    )


def _weights_1_to_5(model: Model) -> PreferenceDistribution:
    return _weighted(model, [1 + i % 5 for i in range(len(model))])


def recovery_answer(model: Model) -> list:
    """Recovery of a distribution with weights 1..5 from its rule and from
    its Mobius inverse, and from the same rule on every second member."""
    rule = rcr_from_distribution(_weights_1_to_5(model))
    half = Model.of(model.universe, model.preferences[::2])
    return [
        _report(model, rule),
        _report(model, mobius_inverse(rule)),
        _report(half, rule),
    ]


FUNCTIONS = {
    "is_identified": identified_answer,
    "is_edge_decomposable": decomposable_answer,
    "recover_distribution": recovery_answer,
}


# -- written documents and --json stdout ---------------------------------------

def model_documents(models, folder: Path):
    path = folder / "model.json"
    for label, model in models:
        save_model(model, path)
        yield label, path.read_bytes()


def distribution_documents(models, folder: Path):
    path = folder / "distribution.json"
    for label, model in models:
        save_distribution(_weights_1_to_5(model), path)
        yield label, path.read_bytes()


def choice_data_documents(models, folder: Path):
    """The exact rule of a distribution with seeded weights 1..9, on every
    corpus model at n <= 6, written bare and with sample counts."""
    path = folder / "choice-data.json"
    draws = Draws(2025)
    for label, model in models:
        if model.universe.n > 6:
            continue
        rule = rcr_from_distribution(
            _weighted(model, [1 + draws.below(9) for _ in range(len(model))])
        )
        save_choice_data(rule, path)
        yield label, path.read_bytes()
        save_choice_data(rule, path, trials=2 * rule.denominator, seed=draws.below(100))
        yield label + "-counts", path.read_bytes()


CLI_PIPELINE = (
    ["max-basis", "-n", "9", "--out", "mb.json", "--json"],
    ["check-edge-decomposable", "--model", "mb.json", "--witness", "--json"],
    ["extend", "--model", "mb.json", "--out", "ext.json", "--json"],
)


def cli_json_outputs(models, folder: Path):
    """Exit code and stdout of each CLI_PIPELINE command, run in folder with
    relative paths so that no output names the folder."""
    home = os.getcwd()
    os.chdir(folder)
    try:
        for argv in CLI_PIPELINE:
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                code = main(argv)
            yield " ".join(argv), f"{code}\n{stdout.getvalue()}".encode("utf-8")
    finally:
        os.chdir(home)


DOCUMENTS = {
    "save_model": model_documents,
    "save_distribution": distribution_documents,
    "save_choice_data": choice_data_documents,
    "cli --json": cli_json_outputs,
}


def digests() -> dict:
    models = corpus()
    result: dict = {"models": len(models)}
    for name, answer in FUNCTIONS.items():
        records = [[label, answer(model)] for label, model in models]
        text = json.dumps(records, separators=(",", ":"))
        result[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    for name, written in DOCUMENTS.items():
        digest = hashlib.sha256()
        with tempfile.TemporaryDirectory() as folder:
            for label, data in written(models, Path(folder)):
                digest.update(f"{label}\n{len(data)}\n".encode("utf-8") + data)
        result[name] = digest.hexdigest()
    return result


def test_answers_match_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = digests()
    assert actual["models"] == expected["models"]
    for name in FUNCTIONS:
        assert actual[name] == expected[name], f"answers of {name} changed"
    for name in DOCUMENTS:
        assert actual[name] == expected[name], f"bytes of {name} changed"


if __name__ == "__main__":
    result = digests()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(FUNCTIONS) + len(DOCUMENTS)} digests over {result['models']} models to {GOLDEN}",
          file=sys.stderr)
