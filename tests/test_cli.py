from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rumkit
from conftest import lexicographic_rank, three_swaps
from rumkit import (
    Model,
    PreferenceDistribution,
    Universe,
    all_preferences,
    preference_from_labels,
    rcr_from_distribution,
)
from rumkit import cli
from rumkit.cli import main
from rumkit.core import CAP_ENV_VAR
from rumkit.documents import (
    dump_choice_data,
    dump_distribution,
    dump_model,
    load_model,
    save_distribution,
    save_model,
)
from rumkit.errors import shown


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_nine(self, capsys):
        code, out, _ = run(capsys, "bound", "-n", "9")
        assert code == 0
        assert "1794" in out
        assert "1794/362880" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "bound", "-n", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == 18
        assert payload["total_preferences"] == 24


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check-identified", "--model", str(tmp_path / "no.json"))
        assert code == 2
        assert "error" in err

    def test_malformed_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "check-identified", "--model", str(path))
        assert code == 2
        assert "line 1" in err

    def test_oversized_bound_is_input_error(self, capsys):
        code, out, err = run(capsys, "bound", "-n", "2000")
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("labels", ["abcd", "xyz"])
    def test_recover_on_another_universe_is_input_error(self, capsys, tmp_path, labels):
        # sizes differ, or the size matches and the labels differ
        u = Universe.from_labels(labels)
        save_model(rumkit.latin_square(rumkit.Preference(u, tuple(range(u.n)))), tmp_path / "m.json")
        data_model = rumkit.latin_square(rumkit.Preference(Universe.of_size(3), (0, 1, 2)))
        rule = rcr_from_distribution(rumkit.point_mass(data_model, data_model.preferences[0]))
        data = tmp_path / "d.json"
        data.write_text(json.dumps(dump_choice_data(rule)), encoding="utf-8")
        code, out, err = run(
            capsys, "recover", "--model", str(tmp_path / "m.json"), "--data", str(data)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_label_with_the_ranking_separator_is_input_error(self, capsys, tmp_path):
        # joined by ">", the two rankings would print as one
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "kind": "model", "version": 1, "alternatives": ["a", "a>b", "b>c", "c"],
            "preferences": [["a>b", "c", "a", "b>c"], ["a", "b>c", "a>b", "c"]],
        }), encoding="utf-8")
        refusal = "label 'a>b' contains the ranking separator '>'"
        code, out, err = run(capsys, "check-identified", "--model", str(path))
        assert (code, out, err) == (2, "", f"error: alternatives: {refusal}\n")
        out_file = tmp_path / "ls.json"
        code, out, err = run(capsys, "latin-square", "--order", "a>b,c", "--out", str(out_file))
        assert (code, out, err) == (2, "", f"error: {refusal}\n")
        assert not out_file.exists()

    def test_label_with_the_menu_separator_is_input_error(self, capsys, tmp_path):
        # joined by ",", {a,b,c} would name the full menu of a model on a,b
        # and c and of a model on a and b,c
        refusal = "label 'a,b' contains the menu separator ','"
        for alternatives in (["a,b", "c"], ["c", "a,b"]):
            path = tmp_path / "m.json"
            path.write_text(json.dumps({
                "kind": "model", "version": 1, "alternatives": alternatives,
                "preferences": [alternatives],
            }), encoding="utf-8")
            code, out, err = run(
                capsys, "check-edge-decomposable", "--model", str(path), "--witness"
            )
            assert (code, out, err) == (2, "", f"error: alternatives: {refusal}\n")
        # in --order the separator splits labels, so no label there holds it
        out_file = tmp_path / "ls.json"
        code, out, err = run(capsys, "latin-square", "--order", "a,b,c", "--out", str(out_file))
        assert code == 0 and err == ""
        assert load_model(out_file).universe.labels == ("a", "b", "c")
        code, out, err = run(capsys, "latin-square", "--order", "a,,b", "--out", str(out_file))
        assert (code, out, err) == (2, "", "error: --order 'a,,b': empty label\n")

    def test_bound_capped_at_the_digit_limit(self, capsys):
        assert run(capsys, "bound", "-n", "1558")[0] == 0
        for n in ("1559", "1000000000"):
            code, out, err = run(capsys, "bound", "-n", n)
            assert code == 2 and out == ""
            assert err == f"error: n={n}: n! would have more than 4300 digits\n"

    def test_too_deep_document_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000, encoding="utf-8")
        code, _, err = run(capsys, "mobius", "--data", str(path))
        assert code == 2
        assert "nest too deeply" in err and "Traceback" not in err

    def test_over_long_json_integer_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"kind": "model", "version": ' + "9" * 5000 + "}", encoding="utf-8")
        code, out, err = run(capsys, "check-identified", "--model", str(path))
        assert code == 2 and out == ""
        assert err == "error: invalid JSON: an integer has more than 4300 digits\n"

    def test_over_long_values_are_not_echoed(self, capsys, tmp_path):
        huge = "9" * 5000
        model = tmp_path / "m.json"
        model.write_text(json.dumps(
            {"kind": "model", "version": 1, "alternatives": ["a", "b"],
             "preferences": [["a", "b"]]}
        ), encoding="utf-8")
        dist = tmp_path / "nu.json"
        dist.write_text(json.dumps(
            {"kind": "distribution", "version": 1, "alternatives": ["a", "b"],
             "masses": {"a>b": huge}}
        ), encoding="utf-8")
        code, out, err = run(
            capsys, "generate", "--model", str(model), "--dist", str(dist),
            "--out", str(tmp_path / "d.json"),
        )
        assert code == 2 and out == ""
        assert err == (
            "error: masses.a>b: cannot parse rational: an integer has more than 4300 digits\n"
        )
        model.write_text(json.dumps(
            {"kind": "model", "version": 1, "alternatives": ["a", "b"],
             "preferences": [["a", huge]]}
        ), encoding="utf-8")
        code, out, err = run(capsys, "check-identified", "--model", str(model))
        assert code == 2 and out == ""
        assert err == f"error: preferences[0]: unknown label '{'9' * 39}... (5002 chars)\n"
        order = ",".join(f"x{i}" for i in range(1999)) + ","
        code, out, err = run(
            capsys, "latin-square", "--order", order, "--out", str(tmp_path / "l.json")
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: --order {repr(order)[:40]}... ({len(order) + 2} chars): empty label\n"
        )
        name = "f" * 3000
        code, out, err = run(
            capsys, "fixtures", "--name", name, "--out", str(tmp_path / "f.json")
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: --name: unknown fixture '{'f' * 39}... (3002 chars); ")
        assert len(err) < 200

    @pytest.mark.parametrize("raw", ["abc", "0", "-1"])
    def test_bad_cap_override_is_input_error(self, capsys, tmp_path, monkeypatch, raw):
        monkeypatch.setenv(CAP_ENV_VAR, raw)
        out_file = tmp_path / "m.json"
        code, out, err = run(capsys, "max-basis", "-n", "4", "--out", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err == f"error: RUMKIT_MAX_N={raw!r} is not a positive integer\n"

    @pytest.mark.parametrize(
        "command", ["generate", "extend", "mobius", "recover", "carum-recover"]
    )
    def test_lattice_commands_refused_past_the_cap(
        self, capsys, tmp_path, monkeypatch, command
    ):
        # n=21 has 22 million pairs: the cap must refuse before allocating them
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        labels = list(Universe.of_size(21).labels)
        files = {"m": tmp_path / "m.json", "nu": tmp_path / "nu.json", "d": tmp_path / "d.json"}
        files["m"].write_text(json.dumps(
            {"kind": "model", "version": 1, "alternatives": labels, "preferences": [labels]}
        ), encoding="utf-8")
        files["nu"].write_text(json.dumps(
            {"kind": "distribution", "version": 1, "alternatives": labels,
             "masses": {">".join(labels): "1"}}
        ), encoding="utf-8")
        files["d"].write_text(json.dumps(
            {"kind": "choice-data", "version": 1, "alternatives": labels, "entries": []}
        ), encoding="utf-8")
        out_path = str(tmp_path / "out.json")
        argv = {
            "generate": ["--model", str(files["m"]), "--dist", str(files["nu"]), "--out", out_path],
            "extend": ["--model", str(files["m"]), "--out", out_path],
            "mobius": ["--data", str(files["d"])],
            "recover": ["--model", str(files["m"]), "--data", str(files["d"])],
            "carum-recover": ["--data", str(files["d"])],
        }[command]
        code, out, err = run(capsys, command, *argv)
        assert code == 2 and out == ""
        assert err == "error: n=21 exceeds the lattice cap of 20; set RUMKIT_MAX_N to override\n"
        assert not Path(out_path).exists()

    def test_edge_decomposability_answered_past_the_cap(self, capsys, tmp_path, monkeypatch):
        # the peel numbers each pair as first met and builds no lattice
        model_file = tmp_path / "ls.json"
        run(capsys, "latin-square", "--order", "a,b,c,d", "--out", str(model_file))
        argv = ["check-edge-decomposable", "--model", str(model_file), "--witness"]
        expected = run(capsys, *argv)
        assert expected[0] == 0 and "peeling order" in expected[1]
        monkeypatch.setenv(CAP_ENV_VAR, "3")
        assert run(capsys, *argv) == expected

    def test_identification_answered_past_every_cap(self, capsys, tmp_path, monkeypatch):
        # the paper's Latin-square theorem at n=60: the peel reads each
        # circuit once, numbered as first met, and builds no lattice
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        model_file = tmp_path / "ls.json"
        order = ",".join(f"x{i}" for i in range(1, 61))
        run(capsys, "latin-square", "--order", order, "--out", str(model_file))
        argv = ["check-identified", "--model", str(model_file)]
        expected = run(capsys, *argv)
        assert expected == (0, "identified: yes (size 60)\n", "")
        monkeypatch.setenv(CAP_ENV_VAR, "3")
        assert run(capsys, *argv) == expected

    def test_non_identification_certified_past_every_cap(
        self, capsys, tmp_path, monkeypatch
    ):
        # Fishburn's four rankings, each followed by the same 21 alternatives
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        fixed = [f"x{i}" for i in range(1, 22)]
        model_file = tmp_path / "fishburn25.json"
        model_file.write_text(json.dumps({
            "kind": "model", "version": 1, "alternatives": list("abcd") + fixed,
            "preferences": [list(r) + fixed for r in ("abcd", "badc", "abdc", "bacd")],
        }), encoding="utf-8")
        argv = ["check-identified", "--model", str(model_file), "--certificate"]
        expected = run(capsys, *argv)
        code, out, err = expected
        assert code == 1 and err == ""
        assert out.startswith("identified: no (size 4)\n")
        tail = ">".join(fixed)
        assert f"  nu: a>b>c>d>{tail} = 1/2\n" in out
        assert f"  nu': a>b>d>c>{tail} = 1/2\n" in out
        monkeypatch.setenv(CAP_ENV_VAR, "3")
        assert run(capsys, *argv) == expected

    def test_not_identified_is_exit_one(self, capsys, tmp_path):
        fixture = tmp_path / "fishburn.json"
        assert run(capsys, "fixtures", "--name", "fishburn", "--out", str(fixture))[0] == 0
        code, out, _ = run(capsys, "check-identified", "--model", str(fixture), "--certificate")
        assert code == 1
        assert "identified: no" in out
        assert "nu'" in out

    def test_too_many_draws_refused_at_once(self, capsys, tmp_path):
        fixture, nu = tmp_path / "fishburn.json", tmp_path / "nu1.json"
        run(capsys, "fixtures", "--name", "fishburn", "--out", str(fixture))
        run(capsys, "fixtures", "--name", "fishburn-nu1", "--out", str(nu))
        code, out, err = run(
            capsys, "generate", "--model", str(fixture), "--dist", str(nu),
            "--out", str(tmp_path / "d.json"), "--samples", "1000000000",
        )
        assert code == 2 and out == ""
        assert err == (
            "error: 1000000000 draws per menu over 15 menus is more than 100000000 draws\n"
        )
        assert not (tmp_path / "d.json").exists()

    def test_scrum_max_refused_past_its_cap(self, capsys, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "max_scrum_model", built.append)
        out_file = tmp_path / "scrum.json"
        code, out, err = run(capsys, "scrum-max", "-n", "101", "--out", str(out_file))
        assert code == 2 and out == ""
        assert err == "error: n=101: scrum-max is capped at n=100\n"
        assert built == [] and not out_file.exists()

    def test_zero_samples_refused(self, capsys, tmp_path):
        fixture, nu = tmp_path / "fishburn.json", tmp_path / "nu1.json"
        run(capsys, "fixtures", "--name", "fishburn", "--out", str(fixture))
        run(capsys, "fixtures", "--name", "fishburn-nu1", "--out", str(nu))
        code, out, err = run(
            capsys, "generate", "--model", str(fixture), "--dist", str(nu),
            "--out", str(tmp_path / "d.json"), "--samples", "0",
        )
        assert code == 2 and out == ""
        assert err == "error: trials: expected a positive integer, got 0\n"
        assert not (tmp_path / "d.json").exists()

    def test_failed_write_to_stdout_is_input_error(self, capsys, monkeypatch):
        class BrokenStdout(io.StringIO):
            def write(self, text):
                raise OSError("stdout closed")

        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        code = main(["bound", "-n", "4"])
        assert code == 2
        assert capsys.readouterr().err == "error: stdout closed\n"

    def test_unknown_fixture(self, capsys, tmp_path):
        code, _, err = run(capsys, "fixtures", "--name", "nope", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "available" in err


class TestSharedParser:
    def test_calls_build_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(3):
            assert main(["bound", "-n", "4"]) == 0
            assert main(["bound", "-n", "4", "--json"]) == 0
            assert main(["bound"]) == 2
            assert main(["frobnicate"]) == 2
        assert built == []
        # the count sees a build: the top-level parser and 13 subcommands
        cli._build_parser()
        assert len(built) == 14

    def test_bad_argv_after_a_good_call_prints_usage_on_the_current_stderr(self, capsys):
        assert run(capsys, "bound", "-n", "4")[0] == 0
        code, out, err = run(capsys, "bound")
        assert (code, out) == (2, "")
        assert err == (
            "usage: rumkit bound [-h] [--json] -n N\n"
            "rumkit bound: error: the following arguments are required: -n\n"
        )
        stream = io.StringIO()
        with redirect_stderr(stream):
            code = main(
                ["check-single-crossing", "--model", "m.json", "--order", "a,b", "--search-order"]
            )
        assert code == 2
        assert stream.getvalue().startswith("usage: rumkit check-single-crossing")
        assert stream.getvalue().endswith(
            "error: argument --search-order: not allowed with argument --order\n"
        )
        assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("flag", [[], ["--json"]])
def test_module_entrypoint_in_a_subprocess(flag):
    src = str(Path(rumkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "rumkit.cli", "bound", "-n", "4", *flag],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0 and done.stderr == ""
    if flag:
        assert json.loads(done.stdout) == {
            "n": 4, "bound": 18, "total_preferences": 24,
            "ratio": "18/24", "ratio_reduced": "3/4",
        }
    else:
        assert done.stdout == (
            "n: 4\nmax identified model size: 18\ntotal preferences: 24\n"
            "ratio: 18/24 (= 3/4)\n"
        )


class TestMaxBasisPipeline:
    def test_build_then_check(self, capsys, tmp_path):
        out_file = tmp_path / "basis4.json"
        code, out, _ = run(capsys, "max-basis", "-n", "4", "--out", str(out_file))
        assert code == 0
        model = load_model(out_file)
        assert len(model) == 18
        assert run(capsys, "check-identified", "--model", str(out_file))[0] == 0
        code, out, _ = run(
            capsys, "check-edge-decomposable", "--model", str(out_file), "--witness"
        )
        assert code == 0
        assert "peeling order" in out


class TestGenerateRecover:
    @pytest.fixture
    def square(self, tmp_path, capsys):
        model_file = tmp_path / "ls.json"
        run(capsys, "latin-square", "--order", "1,2,3", "--out", str(model_file))
        model = load_model(model_file)
        dist = PreferenceDistribution(
            model,
            dict(zip(model.preferences, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))),
        )
        dist_file = tmp_path / "nu.json"
        save_distribution(dist, dist_file)
        return model_file, dist_file

    def test_exact_generate_recover(self, capsys, tmp_path, square):
        model_file, dist_file = square
        data_file = tmp_path / "data.json"
        assert run(
            capsys, "generate", "--model", str(model_file), "--dist", str(dist_file),
            "--out", str(data_file),
        )[0] == 0
        code, out, _ = run(
            capsys, "recover", "--model", str(model_file), "--data", str(data_file)
        )
        assert code == 0
        assert "status: exact" in out
        assert "1/2" in out and "1/3" in out and "1/6" in out

    def test_generated_files_reproducible(self, capsys, tmp_path, square):
        model_file, dist_file = square
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            run(
                capsys, "generate", "--model", str(model_file), "--dist", str(dist_file),
                "--out", str(target), "--samples", "100", "--seed", "11",
            )
        assert a.read_bytes() == b.read_bytes()

    def test_sampled_recover_with_tolerance(self, capsys, tmp_path, square):
        model_file, dist_file = square
        data_file = tmp_path / "sampled.json"
        run(
            capsys, "generate", "--model", str(model_file), "--dist", str(dist_file),
            "--out", str(data_file), "--samples", "2000", "--seed", "1",
        )
        code, out, _ = run(
            capsys, "recover", "--model", str(model_file), "--data", str(data_file),
            "--tolerance", "1/10",
        )
        assert code == 0
        assert "status:" in out

    def test_exponent_tolerance_is_input_error(self, capsys, tmp_path, square):
        model_file, dist_file = square
        data_file = tmp_path / "data.json"
        run(
            capsys, "generate", "--model", str(model_file), "--dist", str(dist_file),
            "--out", str(data_file),
        )
        code, out, err = run(
            capsys, "recover", "--model", str(model_file), "--data", str(data_file),
            "--tolerance", "1e100000000",
        )
        assert code == 2 and out == ""
        assert "exponent notation '1e100000000'" in err and err.count("\n") == 1

    def test_foreign_data_fails_recovery(self, capsys, tmp_path, square):
        model_file, _ = square
        u = Universe(("1", "2", "3"))
        foreign = preference_from_labels(u, ["2", "1", "3"])
        foreign_model = Model.of(u, [foreign])
        fm_file = tmp_path / "foreign_model.json"
        save_model(foreign_model, fm_file)
        fd_file = tmp_path / "foreign_dist.json"
        save_distribution(
            PreferenceDistribution(foreign_model, {foreign: Fraction(1)}), fd_file
        )
        data_file = tmp_path / "foreign_data.json"
        run(
            capsys, "generate", "--model", str(fm_file), "--dist", str(fd_file),
            "--out", str(data_file),
        )
        code, out, _ = run(
            capsys, "recover", "--model", str(model_file), "--data", str(data_file)
        )
        assert code == 1
        assert "status: failed" in out

    def test_carum_recover_roundtrip(self, capsys, tmp_path, square):
        model_file, dist_file = square
        data_file = tmp_path / "data.json"
        run(
            capsys, "generate", "--model", str(model_file), "--dist", str(dist_file),
            "--out", str(data_file),
        )
        code, out, _ = run(capsys, "carum-recover", "--data", str(data_file))
        assert code == 0
        assert "recovered order" in out

    def test_carum_rejects_fishburn(self, capsys, tmp_path):
        fixture = tmp_path / "fishburn.json"
        nu_file = tmp_path / "nu1.json"
        data_file = tmp_path / "data.json"
        run(capsys, "fixtures", "--name", "fishburn", "--out", str(fixture))
        run(capsys, "fixtures", "--name", "fishburn-nu1", "--out", str(nu_file))
        run(
            capsys, "generate", "--model", str(fixture), "--dist", str(nu_file),
            "--out", str(data_file),
        )
        code, out, _ = run(capsys, "carum-recover", "--data", str(data_file))
        assert code == 1
        assert "not a Latin square" in out


class TestOneAlternative:
    def test_round_trip(self, capsys, tmp_path):
        m, nu, d = (str(tmp_path / name) for name in ("m.json", "nu.json", "d.json"))
        assert run(capsys, "latin-square", "--order", "a", "--out", m)[0] == 0
        model = load_model(m)
        save_distribution(PreferenceDistribution(model, {model.preferences[0]: 1}), nu)
        assert run(capsys, "generate", "--model", m, "--dist", nu, "--out", d)[0] == 0
        code, out, _ = run(capsys, "mobius", "--data", d, "--check-flow")
        assert code == 0
        assert "q(a, {a}) = 1" in out and "flow conservation: holds" in out
        code, out, _ = run(capsys, "recover", "--model", m, "--data", d)
        assert code == 0
        assert out == "status: exact\nmass: a = 1\n"
        code, out, _ = run(capsys, "carum-recover", "--data", d)
        assert code == 0
        assert "recovered order (up to rotation): a\n" in out and "mass: a = 1\n" in out


class TestMobius:
    def test_q_table_and_flow(self, capsys, tmp_path):
        fixture = tmp_path / "fishburn.json"
        nu_file = tmp_path / "nu1.json"
        data_file = tmp_path / "data.json"
        run(capsys, "fixtures", "--name", "fishburn", "--out", str(fixture))
        run(capsys, "fixtures", "--name", "fishburn-nu1", "--out", str(nu_file))
        run(
            capsys, "generate", "--model", str(fixture), "--dist", str(nu_file),
            "--out", str(data_file),
        )
        code, out, _ = run(capsys, "mobius", "--data", str(data_file), "--check-flow")
        assert code == 0
        assert "q(a, {a,b,c,d}) = 1/2" in out
        assert "flow conservation: holds" in out


class TestScrumCommands:
    def test_scrum_max_size(self, capsys, tmp_path):
        out_file = tmp_path / "scrum.json"
        code, out, _ = run(capsys, "scrum-max", "-n", "5", "--out", str(out_file))
        assert code == 0
        assert len(load_model(out_file)) == 11

    def test_scrum_max_order_length_mismatch(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "scrum-max", "-n", "3", "--order", "a,b", "--out",
            str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "--order" in err

    def test_check_single_crossing_with_order(self, capsys, tmp_path):
        out_file = tmp_path / "scrum.json"
        run(capsys, "scrum-max", "-n", "4", "--out", str(out_file))
        code, out, _ = run(
            capsys, "check-single-crossing", "--model", str(out_file),
            "--order", "a,b,c,d",
        )
        assert code == 0
        assert "single crossing: yes" in out

    def test_search_order_negative(self, capsys, tmp_path):
        fixture = tmp_path / "nsc.json"
        run(capsys, "fixtures", "--name", "no-single-crossing", "--out", str(fixture))
        code, out, _ = run(
            capsys, "check-single-crossing", "--model", str(fixture), "--search-order"
        )
        assert code == 1
        assert "720" in out

    def test_search_order_past_eight(self, capsys, tmp_path, rng):
        labels = list("abcdefghijkl")
        rng.shuffle(labels)
        model_file = str(tmp_path / "scrum12.json")
        run(capsys, "scrum-max", "-n", "12", "--order", ",".join(labels), "--out", model_file)
        # the only passing orders are the construction's order and its reverse
        first = min(labels, labels[::-1])
        position = 1 + lexicographic_rank(tuple(sorted(labels).index(x) for x in first))
        argv = ["check-single-crossing", "--model", model_file, "--search-order"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == (
            f"single crossing holds for order {'>'.join(first)} "
            f"(order {position} of 479001600 in lexicographic order)"
        )
        code, out, err = run(capsys, *argv, "--json")
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert payload["order"] == first and payload["orders_checked"] == position
        assert len(payload["enumeration"]) == 67

    def test_search_order_three_swaps_past_eight(self, capsys, tmp_path, rng):
        model_file = tmp_path / "swaps12.json"
        save_model(three_swaps(rng, 12), model_file)
        argv = ["check-single-crossing", "--model", str(model_file), "--search-order"]
        assert run(capsys, *argv) == (
            1, "no order admits a single-crossing enumeration (none of the 479001600 orders)\n", ""
        )
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 1
        assert json.loads(out) == {"single_crossing": False, "orders_checked": 479001600}

    def test_search_order_capped_at_the_digit_limit(self, capsys, tmp_path, rng):
        # 1559! is the first factorial with more than 4300 digits, the
        # default int-to-str limit, so the count could not be printed
        model_file = tmp_path / "swaps1559.json"
        save_model(three_swaps(rng, 1559), model_file)
        for json_flag in ([], ["--json"]):
            code, out, err = run(
                capsys, "check-single-crossing", "--model", str(model_file),
                "--search-order", *json_flag,
            )
            assert (code, out) == (2, "")
            assert err == "error: n=1559: n! would have more than 4300 digits\n"


class TestExtend:
    def test_extend_latin_square(self, capsys, tmp_path):
        model_file = tmp_path / "ls.json"
        out_file = tmp_path / "ext.json"
        run(capsys, "latin-square", "--order", "a,b,c", "--out", str(model_file))
        code, out, _ = run(
            capsys, "extend", "--model", str(model_file), "--out", str(out_file)
        )
        assert code == 0
        assert len(load_model(out_file)) == 6

    def test_extend_rejects_fishburn(self, capsys, tmp_path):
        fixture = tmp_path / "fishburn.json"
        run(capsys, "fixtures", "--name", "fishburn", "--out", str(fixture))
        code, out, _ = run(
            capsys, "extend", "--model", str(fixture), "--out", str(tmp_path / "x.json")
        )
        assert code == 1


class TestReportDeterminism:
    def test_json_reports_identical_across_runs(self, capsys, tmp_path):
        fixture = tmp_path / "fishburn.json"
        run(capsys, "fixtures", "--name", "fishburn", "--out", str(fixture))
        _, out1, _ = run(
            capsys, "check-identified", "--model", str(fixture), "--certificate", "--json"
        )
        _, out2, _ = run(
            capsys, "check-identified", "--model", str(fixture), "--certificate", "--json"
        )
        assert out1 == out2


_HUGE = "<over-long integer>"
_HOSTILE_VALUES = [
    "1e100000000", "1E-99999999", "2.5e+3", _HUGE, True, None, 0.5, "",
    "1/0", "-1/2", "0.25", "1/3", "a", [], {}, ["a"], [["a"]], {"a": "1"},
    "9" * 5000,
]
_HOSTILE = st.one_of(
    st.sampled_from(_HOSTILE_VALUES),
    st.integers(-2, 3),
    st.text(max_size=4),
)


def _paths(node, prefix=()):
    """Every path to a value inside a JSON document."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _replaced(doc, path, value):
    """doc with a copy of value at path, in place below the root; the copy
    keeps a later replacement inside it from changing the shared literals."""
    value = json.loads(json.dumps(value))
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


def _text(doc):
    """doc as JSON text, with the over-long integer written out."""
    return json.dumps(doc).replace(f'"{_HUGE}"', "9" * 5000)


@st.composite
def _hostile_document(draw, doc):
    """doc as JSON text, with up to two values replaced by hostile ones."""
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        doc = _replaced(doc, path, draw(_HOSTILE))
    return _text(doc)


@st.composite
def _documents(draw):
    """A model, a distribution over it and its choice data, then damaged."""
    u = Universe.of_size(draw(st.integers(2, 3)))
    prefs = draw(st.sets(st.sampled_from(list(all_preferences(u))), min_size=1))
    model = Model.of(u, prefs)
    weights = [draw(st.integers(1, 4)) for _ in model.preferences]
    nu = PreferenceDistribution(
        model, {p: Fraction(w, sum(weights)) for p, w in zip(model.preferences, weights)}
    )
    rule = rcr_from_distribution(nu)
    return (
        draw(_hostile_document(dump_model(model))),
        draw(_hostile_document(dump_distribution(nu))),
        draw(_hostile_document(dump_choice_data(rule))),
        draw(st.sampled_from(["1/10", "0", "-1", "abc", "0.5", "1e100000000"])),
    )


_COMMANDS = (
    ["check-identified", "--model", "{m}", "--certificate"],
    ["check-edge-decomposable", "--model", "{m}", "--witness", "--json"],
    ["extend", "--model", "{m}", "--out", "{out}"],
    ["mobius", "--data", "{d}", "--check-flow"],
    ["recover", "--model", "{m}", "--data", "{d}", "--tolerance", "{tolerance}"],
    ["generate", "--model", "{m}", "--dist", "{nu}", "--out", "{out}", "--samples", "5"],
    ["carum-recover", "--data", "{d}"],
    ["check-single-crossing", "--model", "{m}", "--search-order"],
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_documents(), st.sampled_from(_COMMANDS))
def test_cli_exit_contract_on_hostile_documents(docs, command):
    """Every command exits 0, 1 or 2 and never prints a traceback."""
    model_text, dist_text, data_text, tolerance = docs
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        files = {name: str(folder / name) for name in ("m", "nu", "d", "out")}
        for name, text in (("m", model_text), ("nu", dist_text), ("d", data_text)):
            Path(files[name]).write_text(text, encoding="utf-8")
        argv = [arg.format(tolerance=tolerance, **files) for arg in command]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    if code == 2:
        assert stderr.getvalue().count("\n") == 1
        assert len(stderr.getvalue()) < 300


def _run_quietly(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


@pytest.mark.parametrize("kind", ["model", "distribution", "choice-data"])
def test_cli_exit_contract_on_every_hostile_field(tmp_path, kind):
    """Each value of an n=2 document, in turn, replaced by each fixed hostile
    value, read by the command that reads that kind of document."""
    u = Universe.of_size(2)
    model = Model.of(u, all_preferences(u))
    nu = PreferenceDistribution(model, dict(zip(model.preferences, ("1/3", "2/3"))))
    sample = rumkit.sample_empirical_rule(nu, 6, 0)
    documents = {
        "model": dump_model(model),
        "distribution": dump_distribution(nu),
        "choice-data": dump_choice_data(sample.rule, sample.trials, sample.seed),
    }
    files = {name: tmp_path / f"{name}.json" for name in documents}
    for name, doc in documents.items():
        files[name].write_text(json.dumps(doc), encoding="utf-8")
    out = str(tmp_path / "out.json")
    m, dist, data = (str(files[name]) for name in documents)
    argv = {
        "model": ["check-identified", "--model", m, "--certificate"],
        "distribution": ["generate", "--model", m, "--dist", dist, "--out", out,
                         "--samples", "5"],
        "choice-data": ["recover", "--model", m, "--data", data],
    }[kind]
    broken = []
    for path in _paths(documents[kind]):
        for value in _HOSTILE_VALUES + ["a>b"]:
            doc = _replaced(json.loads(json.dumps(documents[kind])), path, value)
            files[kind].write_text(_text(doc), encoding="utf-8")
            code, err = _run_quietly(argv)
            if (
                code not in (0, 1, 2)
                or "Traceback" in err
                or code == 2 and (err.count("\n") != 1 or len(err) >= 300)
            ):
                broken.append((path, shown(value), code, err[:200]))
    assert broken == []
