"""Smoke runs of the scripts in `scripts/`, in-process, as `python script.py ...` would run them."""

from __future__ import annotations

import hashlib
import json
import runpy
import sys
from pathlib import Path

import pytest

from quasibell import max_score_lp

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name: str, *args: str) -> int:
    path = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_path(str(path), run_name="__main__")
    return excinfo.value.code


def test_negativity_budget_curve(monkeypatch, capsys):
    # Exits 1 if the LP misses min(2n, (2n-2)(1 + budget/4)) anywhere.
    assert run_script(monkeypatch, "negativity_budget_curve.py", "--n", "2", "--steps", "7") == 0
    out = capsys.readouterr().out
    assert "classical" in out
    assert "no-signalling ceiling" in out


def test_negativity_budget_curve_beyond_the_family(monkeypatch, capsys):
    # From n = 3 on the closed form lies above the family's 2n-2 + budget/2.
    assert run_script(monkeypatch, "negativity_budget_curve.py", "--n", "3", "--steps", "7") == 0
    assert "no-signalling ceiling" in capsys.readouterr().out


def test_saturation_sweep(monkeypatch, capsys):
    assert run_script(monkeypatch, "saturation_sweep.py", "--max-n", "3", "--steps", "3") == 0
    assert "all sweeps saturate their bounds" in capsys.readouterr().out


def test_lp_grid_digest(monkeypatch, capsys):
    # The n <= 3 grid in two call orders.  The digest pins every answer,
    # weights, `primal_residual` and HiGHS's status string included, as
    # scipy 1.17.1 with HiGHS 1.12.0 gives them: a change that moves any of
    # them changes it.  The model-error target pins FAILED, not INFEASIBLE.
    assert run_script(monkeypatch, "lp_grid_digest.py", "--max-n", "3", "--order", "1", "2") == 0
    out = capsys.readouterr().out
    assert "36 LPs, 2 orders" in out
    assert out.splitlines()[-2:] == [
        "HiGHS rows 149, columns 566",
        "digest 966bffc86464eca9c57e447d1ab200eb05cfaf15d2471b74c47237742c974f24",
    ]


def test_lp_grid_digest_up_to_n5(monkeypatch, capsys):
    # The whole 72-LP grid, n = 2..5, in one order.
    assert run_script(monkeypatch, "lp_grid_digest.py", "--max-n", "5", "--order", "1") == 0
    out = capsys.readouterr().out
    assert "72 LPs, 1 orders" in out
    assert out.splitlines()[-2:] == [
        "HiGHS rows 404, columns 5714",
        "digest 47060cfa1e6a79244d67ccdede28387534c09d7be4860d55d51739758d48051d",
    ]


def test_lp_grid_digest_dump(monkeypatch, capsys, tmp_path):
    # One JSON line per LP in grid order, the first order's answers: its
    # name, `to_json_dict()` and weights as [[s_a, s_b], w] pairs in key order.
    path = tmp_path / "grid.jsonl"
    args = ("--max-n", "3", "--order", "2", "1", "--dump", str(path))
    assert run_script(monkeypatch, "lp_grid_digest.py", *args) == 0
    digest = capsys.readouterr().out.splitlines()[-1]
    lines = path.read_text().splitlines()
    assert len(lines) == 36
    entries = [json.loads(line) for line in lines]
    assert [sorted(entry) for entry in entries] == [["name", "result", "weights"]] * 36
    assert entries[0]["name"] == "score n=2 B=0.0"
    assert entries[-1]["name"] == "model error"
    assert entries[-1]["result"]["status"] == "FAILED" and entries[-1]["weights"] == []
    for entry in entries:
        weights = entry["weights"]
        assert [key for key, _ in weights] == sorted(key for key, _ in weights)
        assert all(len(key) == 2 and len(key[0]) == len(key[1]) for key, _ in weights)
    family = entries[10]
    assert family["name"] == "family n=2 N=0.5"
    assert (family["result"]["status"], family["result"]["rows"]) == ("OPTIMAL", 8)
    assert sum(w for _, w in family["weights"] if w < 0) == pytest.approx(-0.125, abs=1e-9)
    # The `max_score_lp` lines, pinned byte for byte, masses and residuals
    # as read off the orbit solution.
    scores = "".join(line + "\n" for line in lines if line.startswith('{"name": "score '))
    assert hashlib.sha256(scores.encode()).hexdigest() == (
        "3b708802d4bb132981ceb376457f023adbd187e785e19602555d0b6bc11378af"
    )
    # The dump does not change the digest.
    assert run_script(monkeypatch, "lp_grid_digest.py", "--max-n", "3", "--order", "1") == 0
    assert capsys.readouterr().out.splitlines()[-1] == digest


def test_lp_grid_digest_compare(monkeypatch, capsys, tmp_path):
    # `--compare OLD` prints each LP whose dump line differs from OLD's, with
    # the fields that differ, counts them, ends with the largest |delta| of
    # each numeric field that moved, and exits 0.
    path = tmp_path / "grid.jsonl"
    assert run_script(monkeypatch, "lp_grid_digest.py", "--max-n", "2", "--dump", str(path)) == 0
    digest = capsys.readouterr().out.splitlines()[-1]
    compare = ("--max-n", "2", "--compare", str(path))
    assert run_script(monkeypatch, "lp_grid_digest.py", *compare) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"0 of 18 LPs differ from {path}"
    assert out[-1] == digest

    entries = [json.loads(line) for line in path.read_text().splitlines()]
    first, family = entries[0], entries[5]
    assert (first["name"], family["name"]) == ("score n=2 B=0.0", "family n=2 N=0.5")
    first["result"]["primal_residual"] = 0.5
    first["result"]["iterations"] += 1
    family["weights"] = family["weights"][1:]
    entries.append({**first, "name": "gone"})
    path.write_text("".join(json.dumps(entry) + "\n" for entry in entries[1:]))
    residual = json.loads(json.dumps(max_score_lp(2, 0.0).to_json_dict()))["primal_residual"]
    assert run_script(monkeypatch, "lp_grid_digest.py", *compare) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == [
        "score n=2 B=0.0: not in OLD",
        f"family n=2 N=0.5: weights ({len(family['weights'])} -> "
        f"{len(family['weights']) + 1} entries)",
        "gone: only in OLD",
        f"3 of 18 LPs differ from {path}",
        "order 0: " + digest.split()[-1],
    ]
    assert out[-1] == digest

    path.write_text("".join(json.dumps(entry) + "\n" for entry in entries[:1]))
    assert run_script(monkeypatch, "lp_grid_digest.py", *compare) == 0
    out = capsys.readouterr().out.splitlines()
    iterations = first["result"]["iterations"]
    assert out[0] == (f"score n=2 B=0.0: iterations {iterations} -> {iterations - 1}; "
                      f"primal_residual 0.5 -> {residual!r}")
    # The 17 LPs not in OLD move no field.
    assert out[18:22] == [
        f"18 of 18 LPs differ from {path}",
        "iterations moved on 1 LPs, largest |delta| 1",
        f"primal_residual moved on 1 LPs, largest |delta| {abs(residual - 0.5)!r}",
        "order 0: " + digest.split()[-1],
    ]

    # Over the grid the largest |delta| is taken; a field that moved to or
    # from null, such as the mass here, and a string field have none.
    first["result"]["iterations"] -= 4
    second = entries[1]
    second["result"]["iterations"] += 2
    second["result"]["negative_mass"] = None
    second["result"]["status"] = "FAILED"
    path.write_text("".join(json.dumps(entry) + "\n" for entry in entries[:-1]))
    assert run_script(monkeypatch, "lp_grid_digest.py", *compare) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[3:7] == [
        f"3 of 18 LPs differ from {path}",
        "iterations moved on 2 LPs, largest |delta| 3",
        f"primal_residual moved on 1 LPs, largest |delta| {abs(residual - 0.5)!r}",
        "order 0: " + digest.split()[-1],
    ]


def test_model_grid_digest(monkeypatch, capsys):
    # The families up to n = 4 in two call orders, each on freshly built
    # models.  The digest pins every table, validity report and bound check,
    # exact answers as their `repr`: a change that moves any of them changes it.
    args = ("--max-n", "4", "--order", "1", "2")
    assert run_script(monkeypatch, "model_grid_digest.py", *args) == 0
    out = capsys.readouterr().out
    assert "92 models, 456 calls, 2 orders" in out
    assert out.splitlines()[-1] == (
        "digest a1d1b98d25887b71a9c9fbc2dcaa37ec8f0974ed205b50e6f5aa9ad384c010ca"
    )


def test_code_lines(monkeypatch, capsys, tmp_path):
    # Docstrings, comments and blank lines are no code lines; a code line
    # counts once however many tokens it holds, and a multi-line string that
    # is no docstring counts each of its lines.  Each line a docstring spans
    # is a docstring line.
    (tmp_path / "small.py").write_text(
        '"""Module docstring,\n\non three lines."""\n'
        "# a comment\n"
        "\n"
        "def f(x):  # a trailing comment\n"
        '    """Function docstring."""\n'
        "    return x + 1\n"
        "\n"
        "class C:\n"
        "    '''Class docstring.'''\n"
        "    text = '''two\n"
        "    lines'''\n"
    )
    (tmp_path / "only_docs.py").write_text('"""Nothing but a docstring."""\n# and a comment\n')
    assert run_script(monkeypatch, "code_lines.py", str(tmp_path)) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     0       1  {tmp_path / 'only_docs.py'}",
        f"     5       5  {tmp_path / 'small.py'}",
        "     5       6  total",
    ]
