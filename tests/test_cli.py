from __future__ import annotations

import json
from fractions import Fraction

import pytest

from rumkit import (
    Model,
    PreferenceDistribution,
    Universe,
    preference_from_labels,
)
from rumkit.cli import main
from rumkit.documents import load_model, save_distribution, save_model


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

    def test_not_identified_is_exit_one(self, capsys, tmp_path):
        fixture = tmp_path / "fishburn.json"
        assert run(capsys, "fixtures", "--name", "fishburn", "--out", str(fixture))[0] == 0
        code, out, _ = run(capsys, "check-identified", "--model", str(fixture), "--certificate")
        assert code == 1
        assert "identified: no" in out
        assert "nu'" in out

    def test_unknown_fixture(self, capsys, tmp_path):
        code, _, err = run(capsys, "fixtures", "--name", "nope", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "available" in err


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
