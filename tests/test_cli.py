"""CLI wiring: commands, formats, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from quasibell import (
    assemble_behavior,
    behavior_to_csv,
    chained_saturating_model,
    chsh_saturating_model,
    validate_behavior,
    witness_chained,
)
from quasibell import cli, inequalities, oracle
from quasibell.cli import EXIT_BROKEN_PIPE, main
from quasibell.serialization import model_to_json_dict, save_model

from conftest import random_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSaturate:
    def test_pretty_table_at_unit_budget(self, capsys):
        code, out, _ = run(capsys, "saturate", "--n", "2", "--negativity", "1",
                           "--format", "pretty-table")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["x_A", "x_B", "--", "-+", "+-", "++"]
        row10 = lines[3].split()
        assert row10[0] == "10"
        assert float(row10[1]) == pytest.approx(7 / 12, abs=1e-6)
        assert float(row10[2]) == 0.0
        assert float(row10[4]) == pytest.approx(5 / 12, abs=1e-6)

    def test_csv_matches_library_export(self, capsys):
        code, out, _ = run(capsys, "saturate", "--negativity", "0.5", "--format", "csv")
        assert code == 0
        assert out == behavior_to_csv(assemble_behavior(chsh_saturating_model(0.5)))

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "saturate", "--n", "3", "--negativity", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["score"] == pytest.approx(5.0)
        assert payload["report"]["margin"] == pytest.approx(0.0, abs=1e-9)
        assert payload["validity"]["is_valid"] is True
        assert payload["witness"]["total"] == pytest.approx(1.0)

    def test_two_setting_json_witness_is_one_chain_link(self, capsys):
        code, out, _ = run(capsys, "saturate", "--n", "2", "--negativity", "1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        witness = payload["witness"]
        assert [term["link"] for term in witness["terms"]] == [1]
        assert witness["total"] == payload["report"]["witness"]
        assert witness["total"] == pytest.approx(1.0)

    def test_json_witness_is_computed_once(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return witness_chained(*args, **kwargs)

        # Every module that could compute it for `saturate` calls the counter.
        monkeypatch.setattr(inequalities, "witness_chained", counted)
        monkeypatch.setattr(cli, "witness_chained", counted, raising=False)
        code, out, _ = run(capsys, "saturate", "--n", "5", "--negativity", "1/2",
                           "--format", "json")
        assert code == 0
        assert len(calls) == 1
        model = chained_saturating_model(5, Fraction(1, 2))
        expected = witness_chained(model, 5, assemble_behavior(model)).to_json_dict()
        assert json.loads(out)["witness"] == json.loads(json.dumps(expected))

    def test_fraction_negativity_argument(self, capsys):
        code, out, _ = run(capsys, "saturate", "--negativity", "1/2", "--format", "csv")
        assert code == 0
        assert "0.375" in out  # (4 + 1/2) / 12

    def test_out_of_range_budget_is_usage_error(self, capsys):
        code, _, err = run(capsys, "saturate", "--negativity", "3")
        assert code == 2
        assert "outside [0, 2]" in err

    def test_closed_stdout_exits_quietly(self):
        # About 150 kB of JSON: more than a pipe holds, so the child is still
        # writing when the reader closes its end.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        child = subprocess.Popen(
            [sys.executable, "-m", "quasibell.cli", "saturate", "--n", "40",
             "--negativity", "1/2", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert child.stdout.readline() == b"{\n"
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
        assert err == b""
        assert code == EXIT_BROKEN_PIPE  # neither 1 ("bound violated") nor 2


class TestBuildVerifyExport:
    def test_forced_negative_fraction_in_either_spelling(self, capsys):
        code, spaced, _ = run(capsys, "build", "--force", "--negativity", "-1/2")
        assert code == 0
        code, joined, _ = run(capsys, "build", "--force", "--negativity=-1/2")
        assert code == 0
        assert spaced == joined
        assert json.loads(spaced)["parties"][0]["settings"] == 2

    def test_negative_fraction_without_force_is_usage_error(self, capsys):
        code, out, err = run(capsys, "build", "--negativity", "-1/2")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: negativity budget Fraction(-1, 2) outside [0, 2]; "
            "pass force=True to build the invalid model anyway"
        ]

    def test_build_then_verify_holds(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        code, _, _ = run(capsys, "build", "--negativity", "1", "--output", str(path))
        assert code == 0
        code, out, _ = run(capsys, "verify", "--model", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["score"] == pytest.approx(3.0)
        assert payload["witness"] == pytest.approx(1.0)
        assert payload["margin"] == pytest.approx(0.0, abs=1e-9)

    def test_verify_is_deterministic(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        run(capsys, "build", "--negativity", "0.75", "--output", str(path))
        _, first, _ = run(capsys, "verify", "--model", str(path))
        _, second, _ = run(capsys, "verify", "--model", str(path))
        assert first == second

    def test_export_csv(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        out_path = tmp_path / "behavior.csv"
        run(capsys, "build", "--negativity", "1", "--output", str(model_path))
        code, _, _ = run(capsys, "export", "--model", str(model_path),
                         "--output", str(out_path))
        assert code == 0
        text = out_path.read_text()
        assert text.splitlines()[0] == "xA,xB,P--,P-+,P+-,P++"
        assert text == behavior_to_csv(assemble_behavior(chsh_saturating_model(1)))

    def test_verify_random_positive_model(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        model = random_model(rng, n_settings=2, force_negative=False)
        while not model.dist.is_all_positive():
            model = random_model(rng, n_settings=2, force_negative=False)
        path = tmp_path / "positive.json"
        save_model(model, path)
        code, out, _ = run(capsys, "verify", "--model", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["witness"] == 0.0
        assert payload["validity"]["is_valid"] is True

    def test_verify_with_explicit_chain_length(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        run(capsys, "build", "--n", "4", "--negativity", "1", "--output", str(path))
        code, out, _ = run(capsys, "verify", "--model", str(path), "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3
        assert payload["holds"] is True

    def test_missing_model_file(self, capsys):
        code, _, err = run(capsys, "verify", "--model", "/nonexistent/model.json")
        assert code == 2
        assert "error" in err

    def test_malformed_json_reports_location(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"parties": [,]}')
        code, _, err = run(capsys, "verify", "--model", str(path))
        assert code == 2
        assert "line 1" in err

    def test_schema_violation_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"parties": [], "dist": {}}))
        code, _, err = run(capsys, "verify", "--model", str(path))
        assert code == 2
        assert "parties" in err


class TestUnreadablePaths:
    """A path that cannot be read or written is a usage error, never exit 1."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--model", "{dir}"],
        ["export", "--model", "{dir}"],
        ["sample", "--model", "{dir}", "--shots", "10"],
        ["oracle", "min-neg", "--behavior", "{dir}"],
    ])
    def test_directory_as_input(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *(arg.format(dir=tmp_path) for arg in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["build", "--negativity", "1"],
        ["saturate", "--negativity", "1", "--format", "csv"],
        ["oracle", "classical-bound", "--n", "3"],
    ])
    def test_directory_as_output(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--output", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def _table_as_list(document):
    document["parties"][0]["table"] = list(document["parties"][0]["table"].values())


def _first_row(document):
    return next(iter(document["parties"][1]["table"]))


def _null_entry(document):
    document["parties"][1]["table"][_first_row(document)] = [None, 1.0]


def _string_entry(document):
    document["parties"][1]["table"][_first_row(document)] = ["0", 1.0]


def _settings_mismatch(document):
    document["parties"][0]["settings"] = 3


def _infinite_settings(document):
    document["parties"][0]["settings"] = float("inf")  # json writes Infinity


def _fractional_settings(document):
    document["parties"][0]["settings"] = 2.7


def _string_settings(document):
    document["parties"][0]["settings"] = "2"


def _boolean_settings(document):
    document["parties"][0]["settings"] = True


def _null_weight(document):
    document["dist"][next(iter(document["dist"]))] = None


def _string_lambdas(document):
    # Read character by character, "1234" would name the labels 1-4.
    document["parties"][0]["lambdas"] = "".join(document["parties"][0]["lambdas"])


def _padded_setting_key(document):
    # int() reads "00" as setting 0.
    table = document["parties"][0]["table"]
    document["parties"][0]["table"] = {
        ("0" + key if key.startswith("0,") else key): row for key, row in table.items()
    }


class TestMalformedModelFiles:
    @pytest.mark.parametrize("corrupt", [
        _table_as_list, _null_entry, _string_entry, _settings_mismatch, _infinite_settings,
        _fractional_settings, _string_settings, _boolean_settings, _null_weight,
        _string_lambdas, _padded_setting_key,
    ])
    def test_exit_two_with_one_error_line(self, capsys, tmp_path, corrupt):
        document = model_to_json_dict(chsh_saturating_model(1))
        corrupt(document)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "verify", "--model", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSettingCap:
    """Chain lengths whose n^2-row behavior table would exhaust memory are usage errors."""

    @pytest.mark.parametrize("command", ["build", "saturate"])
    def test_a_chain_beyond_the_cap_exits_two(self, capsys, command):
        code, out, err = run(capsys, command, "--n", "1001", "--negativity", "1/2")
        assert code == 2
        assert out == ""
        assert err == "error: the saturating family is limited to n <= 1000\n"

    def test_a_model_file_beyond_the_cap_exits_two(self, capsys, tmp_path):
        # A well-formed party of 1001 settings: only the setting cap refuses it.
        document = model_to_json_dict(chsh_saturating_model(1))
        entry = document["parties"][0]
        entry["settings"] = 1001
        entry["table"] = {f"{x},{lam}": [0.5, 0.5] for x in range(1001) for lam in entry["lambdas"]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "verify", "--model", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: n_settings must be at most 1000\n"

    def test_the_cap_itself_builds(self):
        model = chained_saturating_model(1000, 0.5)
        assert model.response_A.n_settings == model.response_B.n_settings == 1000


def _signalling_csv(path):
    # Alice's outcome at x_A=0 flips with Bob's setting: no local mixture matches it.
    path.write_text("xA,xB,P--,P-+,P+-,P++\n"
                    "0,0,1,0,0,0\n0,1,0,0,1,0\n1,0,1,0,0,0\n1,1,1,0,0,0\n")


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


class TestOracleCommands:
    def test_classical_bound(self, capsys):
        code, out, _ = run(capsys, "oracle", "classical-bound", "--n", "3")
        assert code == 0
        assert json.loads(out)["classical_bound"] == 4.0

    def test_lp_unbounded_budget(self, capsys):
        code, out, _ = run(capsys, "oracle", "lp", "--n", "2", "--budget", "inf")
        assert code == 0
        payload = json.loads(out)
        assert payload["optimal_score"] == pytest.approx(4.0, abs=1e-7)
        assert payload["budget"] is None

    def test_lp_unbounded_budget_mass_is_null(self, capsys):
        # Every optimal vertex scores 2n without a budget row; the mass is the
        # vertex's, not the LP's, so it is not reported.
        code, out, _ = run(capsys, "oracle", "lp", "--n", "3", "--budget", "inf")
        assert code == 0
        payload = _strict_json(out)
        assert payload["status"] == "OPTIMAL"
        assert payload["negative_mass"] is None
        assert payload["optimal_score"] == pytest.approx(6.0, abs=1e-9)
        assert payload["columns"] == 10

    def test_lp_finite_budget_reports_mass_and_columns(self, capsys):
        code, out, _ = run(capsys, "oracle", "lp", "--n", "5", "--budget", "1")
        assert code == 0
        payload = _strict_json(out)
        assert 8 * payload["negative_mass"] <= 1 + 1e-9
        assert payload["columns"] == 68
        assert payload["rows"] == 7  # normalization, 5 distinct entry rows, budget

    def test_lp_zero_budget(self, capsys):
        code, out, _ = run(capsys, "oracle", "lp", "--n", "2", "--budget", "0")
        assert code == 0
        assert json.loads(out)["optimal_score"] == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("text", ["nan", "NaN", "-nan"])
    def test_lp_nan_budget_is_usage_error(self, capsys, text):
        # argparse refuses it, so no command runs and no LP is solved.
        with pytest.raises(SystemExit) as excinfo:
            main(["oracle", "lp", "--n", "2", f"--budget={text}"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"bad budget {text!r}" in errors[0]

    @pytest.mark.parametrize("text", ["-nan", "-inf"])
    def test_lp_dash_budget_reaches_the_budget_parser(self, capsys, text):
        # Spelled as two tokens, the value still gets the budget's own message.
        with pytest.raises(SystemExit) as excinfo:
            main(["oracle", "lp", "--n", "2", "--budget", text])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "argument --budget" in errors[0]
        assert "expected one argument" not in errors[0]

    def test_min_neg_roundtrip(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        csv_path = tmp_path / "behavior.csv"
        run(capsys, "build", "--negativity", "2", "--output", str(model_path))
        run(capsys, "export", "--model", str(model_path), "--output", str(csv_path))
        code, out, _ = run(capsys, "oracle", "min-neg", "--behavior", str(csv_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "OPTIMAL"
        assert payload["negative_mass"] <= 0.5 + 1e-8
        assert payload["rows"] == 9  # (n+1)^2 at n = 2

    def test_min_neg_infeasible_is_strict_json(self, capsys, tmp_path):
        csv_path = tmp_path / "signalling.csv"
        _signalling_csv(csv_path)
        code, out, _ = run(capsys, "oracle", "min-neg", "--behavior", str(csv_path))
        assert code == 1
        payload = _strict_json(out)
        assert payload["status"] == "INFEASIBLE"
        assert payload["optimal_score"] is None
        assert payload["negative_mass"] is None
        assert payload["rows"] == 16  # all 4n^2 rows for a signalling target

    def test_min_neg_model_error_is_failed(self, capsys, tmp_path):
        # HiGHS refuses the row bounds 1e300 as a model error: no proof of
        # infeasibility, so FAILED, not INFEASIBLE.
        csv_path = tmp_path / "huge.csv"
        rows = [f"{x_a},{x_b},1e300,-1e300,0.5,0.5" for x_a in range(2) for x_b in range(2)]
        csv_path.write_text("\n".join(["xA,xB,P--,P-+,P+-,P++", *rows, ""]))
        code, out, err = run(capsys, "oracle", "min-neg", "--behavior", str(csv_path))
        assert (code, err) == (1, "")
        payload = _strict_json(out)
        assert payload["status"] == "FAILED"
        assert payload["solver_message"] == "Model error"
        assert payload["primal_residual"] is None

    def test_lp_off_optimal_exits_one(self, capsys, monkeypatch):
        # HiGHS's optimum moved by 1e-3 misses the program by more than the
        # residual bound: the answer is FAILED, still printed, and exit 1.
        solve = oracle.linprog

        def perturbed(model, row_lower, row_upper):
            res = solve(model, row_lower, row_upper)
            return res._replace(x=res.x + 1e-3)

        monkeypatch.setattr(oracle, "linprog", perturbed)
        code, out, err = run(capsys, "oracle", "lp", "--n", "3", "--budget", "1")
        assert (code, err) == (1, "")
        payload = _strict_json(out)
        assert payload["status"] == "FAILED"
        assert payload["solver_message"] == "Optimal"
        assert payload["optimal_score"] is None
        assert payload["primal_residual"] > oracle._MAX_RESIDUAL

    @pytest.mark.parametrize("setting", ["00", "+1", " 1", "0_1"])
    def test_min_neg_refuses_an_unwritten_setting(self, capsys, tmp_path, setting):
        csv_path = tmp_path / "behavior.csv"
        text = behavior_to_csv(assemble_behavior(chsh_saturating_model(1)))
        lines = text.splitlines()
        lines[2] = setting + lines[2][1:]  # the row of settings (0, 1)
        csv_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "oracle", "min-neg", "--behavior", str(csv_path))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: line 3: setting {setting!r} is not written as {str(int(setting))!r}"]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_min_neg_refuses_a_non_finite_cell(self, capsys, tmp_path, cell):
        csv_path = tmp_path / "behavior.csv"
        lines = behavior_to_csv(assemble_behavior(chsh_saturating_model(1))).splitlines()
        lines[2] = ",".join([*lines[2].split(",")[:3], cell, *lines[2].split(",")[4:]])
        csv_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "oracle", "min-neg", "--behavior", str(csv_path))
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: row (0, 1) sums to {float(cell)!r}, not 1"]


class TestSampling:
    def test_identical_seeds_identical_bytes(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        run(capsys, "build", "--negativity", "1", "--output", str(path))
        _, first, _ = run(capsys, "sample", "--model", str(path),
                          "--shots", "2000", "--seed", "42")
        _, second, _ = run(capsys, "sample", "--model", str(path),
                           "--shots", "2000", "--seed", "42")
        assert first == second
        payload = json.loads(first)
        assert payload["shots"] == 2000
        assert payload["seed"] == 42
        assert payload["total_variation_weight"] == pytest.approx(1.5)

    def test_behavior_is_assembled_once(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "model.json"
        save_model(chsh_saturating_model(1), path)
        _, expected, _ = run(capsys, "sample", "--model", str(path),
                             "--shots", "200", "--seed", "3")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return assemble_behavior(*args, **kwargs)

        # Every module that could assemble it for `sample` calls the counter.
        monkeypatch.setattr(cli, "assemble_behavior", counted)
        monkeypatch.setattr(oracle, "assemble_behavior", counted)
        code, out, _ = run(capsys, "sample", "--model", str(path),
                           "--shots", "200", "--seed", "3")
        assert code == 0
        assert len(calls) == 1
        assert out == expected

    def test_behavior_is_validated_once(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "model.json"
        save_model(chsh_saturating_model(1), path)
        _, expected, _ = run(capsys, "sample", "--model", str(path),
                             "--shots", "200", "--seed", "3")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return validate_behavior(*args, **kwargs)

        # Every module that could validate it for `sample` calls the counter.
        monkeypatch.setattr(cli, "validate_behavior", counted)
        monkeypatch.setattr(oracle, "validate_behavior", counted)
        code, out, _ = run(capsys, "sample", "--model", str(path),
                           "--shots", "200", "--seed", "3")
        assert code == 0
        assert len(calls) == 1
        assert out == expected

    def test_shots_in_exponent_form(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        save_model(chsh_saturating_model(1), path)
        code, spelled, _ = run(capsys, "sample", "--model", str(path), "--shots", "1e6")
        assert code == 0
        _, digits, _ = run(capsys, "sample", "--model", str(path), "--shots", "1000000")
        assert spelled == digits
        assert json.loads(spelled)["shots"] == 1_000_000

    @pytest.mark.parametrize("shots, message", [
        ("1.5", "bad shot count '1.5'"),
        ("nan", "bad shot count 'nan'"),
        ("inf", "bad shot count 'inf'"),
        ("0", "shots must be at least 1"),
        ("-3", "shots must be at least 1"),
    ])
    def test_bad_shots_are_usage_errors(self, capsys, tmp_path, shots, message):
        path = tmp_path / "model.json"
        save_model(chsh_saturating_model(1), path)
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", "--model", str(path), "--shots", shots])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"quasibell sample: error: argument --shots: {message}"
        )

    def test_too_many_shots_are_a_usage_error(self, capsys, tmp_path):
        # The sampler refuses them before drawing, so nothing is allocated.
        path = tmp_path / "model.json"
        save_model(chsh_saturating_model(1), path)
        code, out, err = run(capsys, "sample", "--model", str(path), "--shots", "1e12")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: sampling limited to shots <= 100000000"]

    def test_negative_seed_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        save_model(chsh_saturating_model(1), path)
        code, out, err = run(capsys, "sample", "--model", str(path), "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: seed must be a non-negative integer"]

    def test_oracle_sample_is_not_a_command(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(chsh_saturating_model(1), path)
        with pytest.raises(SystemExit) as excinfo:
            main(["oracle", "sample", "--model", str(path)])
        assert excinfo.value.code == 2

    def test_invalid_model_is_check_failure(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        run(capsys, "build", "--negativity", "2.4", "--force", "--output", str(path))
        code, _, err = run(capsys, "sample", "--model", str(path), "--shots", "10")
        assert code == 1
        payload = json.loads(err)
        assert payload["validity"]["is_valid"] is False


class TestConfig:
    def test_verify_assembles_at_the_given_tolerance(self, capsys, tmp_path):
        # Rows off by 9e-10 under weights 50.5 and -49.5 give behavior rows
        # that sum to 1 + 1.8e-7: refused at the default tolerance only.
        high, low = [0.5000000009, 0.5], [0.4999999991, 0.5]
        party = {"settings": 2, "lambdas": ["1", "2"],
                 "table": {"0,1": high, "0,2": low, "1,1": high, "1,2": low}}
        path = tmp_path / "loose.json"
        path.write_text(json.dumps({"parties": [party, party],
                                    "dist": {"1,1": 50.5, "2,2": -49.5}}))
        code, out, err = run(capsys, "verify", "--model", str(path))
        assert code == 2
        assert out == ""
        assert "sums to" in err
        code, out, _ = run(capsys, "--tolerance", "1e-6", "verify", "--model", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["validity"]["is_valid"] is True

    def test_bad_env_tolerance(self, capsys, monkeypatch):
        # The tolerance is set by --tolerance alone; the environment is not read.
        monkeypatch.setenv("QUASIBELL_TOLERANCE", "not-a-number")
        code, out, err = run(capsys, "oracle", "classical-bound", "--n", "2")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"n": 2, "classical_bound": 2}

    def test_non_positive_tolerance_rejected(self, capsys):
        code, _, err = run(capsys, "--tolerance", "-1", "oracle", "classical-bound", "--n", "2")
        assert code == 2
        assert "tolerance" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_flag_rejected(self, capsys, tmp_path, value):
        path = tmp_path / "model.json"
        save_model(chsh_saturating_model(1), path)
        code, out, err = run(capsys, "--tolerance", value, "verify", "--model", str(path))
        assert code == 2
        assert out == ""
        assert "tolerance" in err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["saturate", "--negativity", "1", "--what"])
        assert excinfo.value.code == 2
