"""numpy loads only on the oracle paths, and scipy only when an LP is solved.

Each check runs in a fresh interpreter, because this test process has long
since imported numpy itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quasibell import assemble_behavior, chsh_saturating_model
from quasibell.serialization import behavior_to_csv, save_model

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in ("numpy", "scipy") if m in sys.modules)))
"""


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("QUASIBELL_TOLERANCE", None)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def heavy_modules_after(code: str) -> list[str]:
    return json.loads(run_python(code + HEAVY_REPORT).splitlines()[-1])


@pytest.mark.parametrize("module", ["quasibell", "quasibell.cli"])
def test_import_is_pure_python(module):
    assert heavy_modules_after(f"import {module}") == []


@pytest.mark.parametrize("command", [
    ["build", "--n", "3", "--negativity", "1/2", "--output", "{out}"],
    ["verify", "--model", "{model}", "--output", "{out}"],
    ["export", "--model", "{model}", "--output", "{out}"],
    ["saturate", "--n", "3", "--negativity", "1", "--output", "{out}"],
])
def test_non_oracle_commands_are_pure_python(tmp_path, command):
    model_path = tmp_path / "model.json"
    save_model(chsh_saturating_model(1), model_path)
    argv = [arg.format(model=model_path, out=tmp_path / "out") for arg in command]
    code = f"from quasibell.cli import main\nassert main({argv!r}) == 0\n"
    assert heavy_modules_after(code) == []


def test_oracle_command_loads_scipy(tmp_path):
    argv = ["oracle", "lp", "--n", "2", "--output", str(tmp_path / "out")]
    code = f"from quasibell.cli import main\nassert main({argv!r}) == 0\n"
    assert heavy_modules_after(code) == ["numpy", "scipy"]


def test_oracle_module_loads_numpy_but_not_scipy():
    assert heavy_modules_after("import quasibell.oracle") == ["numpy"]


@pytest.mark.parametrize("command", [
    ["sample", "--model", "{model}", "--shots", "1000", "--output", "{out}"],
    ["oracle", "classical-bound", "--n", "5", "--output", "{out}"],
    ["oracle", "classical-bound", "--n", "2", "--output", "{out}"],
])
def test_numpy_oracle_commands_do_not_load_scipy(tmp_path, command):
    model_path = tmp_path / "model.json"
    save_model(chsh_saturating_model(1), model_path)
    argv = [arg.format(model=model_path, out=tmp_path / "out") for arg in command]
    code = f"from quasibell.cli import main\nassert main({argv!r}) == 0\n"
    assert heavy_modules_after(code) == ["numpy"]


@pytest.mark.parametrize("command", [
    ["oracle", "lp", "--n", "2", "--budget", "1", "--output", "{out}"],
    ["oracle", "min-neg", "--behavior", "{behavior}", "--output", "{out}"],
])
def test_lp_commands_load_scipy_optimize(tmp_path, command):
    behavior_path = tmp_path / "behavior.csv"
    behavior_path.write_text(behavior_to_csv(assemble_behavior(chsh_saturating_model(1))))
    argv = [arg.format(behavior=behavior_path, out=tmp_path / "out") for arg in command]
    code = (
        f"import sys\nfrom quasibell.cli import main\nassert main({argv!r}) == 0\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    assert heavy_modules_after(code) == ["numpy", "scipy"]


def test_oracle_linprog_is_its_own_and_loads_scipy_when_read():
    out = run_python(
        "import sys, quasibell.oracle as oracle\n"
        "print('scipy' in sys.modules)\n"
        "solve = oracle.linprog\n"
        "print(solve.__module__, vars(oracle)['linprog'] is solve, 'scipy.optimize' in sys.modules)\n"
        "import numpy as np\n"
        "model = oracle._highs_model(np.ones(1), np.ones((1, 1)))\n"
        "res = solve(model, np.full(1, 2.0), np.full(1, 2.0))\n"
        "print(res.status, res.x.tolist())"
    )
    assert out.split() == ["False", "quasibell.oracle", "True", "True", "0", "[2.0]"]


def test_unknown_oracle_name_raises_attribute_error():
    out = run_python(
        "import sys, quasibell.oracle as oracle\n"
        "try:\n"
        "    oracle.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print('no_such_name' in str(exc), 'scipy' in sys.modules)"
    )
    assert out.split() == ["True", "False"]


def test_every_public_name_resolves_from_a_cold_import():
    names = json.loads(run_python(
        "import json, quasibell\n"
        "print(json.dumps([n for n in quasibell.__all__ if not hasattr(quasibell, n)]))"
    ))
    assert names == []


def test_oracle_names_are_looked_up_in_the_oracle_module(monkeypatch):
    import quasibell
    import quasibell.oracle

    assert quasibell.max_score_lp is quasibell.oracle.max_score_lp
    replacement = object()
    monkeypatch.setattr(quasibell.oracle, "max_score_lp", replacement)
    assert quasibell.max_score_lp is replacement


def test_unknown_name_raises_attribute_error():
    import quasibell

    with pytest.raises(AttributeError, match="no_such_name"):
        quasibell.no_such_name
    assert not hasattr(quasibell, "no_such_name")
