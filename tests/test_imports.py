"""numpy loads only on the oracle paths, and scipy's HiGHS binding only when an LP is solved.

An LP solve loads that binding alone, neither `scipy` nor `scipy.optimize`.

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
BINDING = "scipy.optimize._highspy._core"

HEAVY_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in ("numpy", "scipy") if m in sys.modules)))
"""


def run_python(code: str, pythonpath: Path | None = None) -> str:
    """Run `code` in a fresh interpreter with `src`, after `pythonpath` if given, on the path."""
    paths = [str(pythonpath)] if pythonpath is not None else []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*paths, str(SRC)]))
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


def test_oracle_command_loads_the_binding_without_scipy(tmp_path):
    argv = ["oracle", "lp", "--n", "2", "--output", str(tmp_path / "out")]
    code = (f"import sys\nfrom quasibell.cli import main\nassert main({argv!r}) == 0\n"
            f"assert {BINDING!r} in sys.modules\n")
    assert heavy_modules_after(code) == ["numpy"]


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
def test_lp_commands_load_the_highs_binding_but_not_scipy_optimize(tmp_path, command):
    behavior_path = tmp_path / "behavior.csv"
    behavior_path.write_text(behavior_to_csv(assemble_behavior(chsh_saturating_model(1))))
    argv = [arg.format(behavior=behavior_path, out=tmp_path / "out") for arg in command]
    code = (
        f"import sys\nfrom quasibell.cli import main\nassert main({argv!r}) == 0\n"
        f"assert {BINDING!r} in sys.modules\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    assert heavy_modules_after(code) == ["numpy"]


def test_oracle_linprog_is_its_own_and_its_first_solve_loads_only_the_binding():
    out = run_python(
        "import sys, quasibell.oracle as oracle\n"
        "solve = oracle.linprog\n"
        "print(solve.__module__, vars(oracle)['linprog'] is solve, 'scipy' in sys.modules)\n"
        "import numpy as np\n"
        "model = oracle._highs_model(np.ones(1), np.ones((1, 1)))\n"
        "res = solve(model, np.full(1, 2.0), np.full(1, 2.0))\n"
        "print(res.status, res.x.tolist())\n"
        f"print({BINDING!r} in sys.modules, 'scipy' in sys.modules,\n"
        "      'scipy.optimize' in sys.modules)"
    )
    assert out.split() == ["quasibell.oracle", "True", "False", "0", "[2.0]", "True", "False",
                           "False"]


def test_a_score_lp_solves_without_scipy_in_sys_modules():
    out = run_python(
        "import sys, quasibell.oracle as oracle\n"
        "res = oracle.max_score_lp(3, 1.0)\n"
        "print(res.status.value, round(res.optimal_score, 9), 'scipy' in sys.modules,\n"
        f"      {BINDING!r} in sys.modules)"
    )
    assert out.split() == ["OPTIMAL", "5.0", "False", "True"]


def test_without_scipy_a_solve_raises_module_not_found():
    # A None entry in `sys.modules` is how Python marks a module as absent.
    out = run_python(
        "import sys, quasibell.oracle as oracle\n"
        "sys.modules['scipy'] = None\n"
        "try:\n"
        "    oracle.max_score_lp(2)\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name, '|', exc)\n"
        f"print({BINDING!r} in sys.modules)"
    )
    assert out.splitlines() == ["scipy | No module named 'scipy'", "False"]


@pytest.mark.parametrize("scipy_optimize_first", [False, True], ids=["solve_first", "import_first"])
def test_the_binding_is_scipys_own_in_either_order(scipy_optimize_first):
    solve = "print(round(quasibell.oracle.max_score_lp(2, 1.0).optimal_score, 9))\n"
    imports = (
        "import scipy.optimize\n"
        "from scipy.optimize._highspy import _core\n"
        "import scipy.optimize._highspy._core as core\n"
    )
    out = run_python(
        "import sys, quasibell.oracle\n"
        + (imports + solve if scipy_optimize_first else solve + imports)
        + f"print(quasibell.oracle._highs_binding() is _core is core is sys.modules[{BINDING!r}])\n"
        "res = scipy.optimize.linprog([1.0], A_eq=[[1.0]], b_eq=[2.0], method='highs')\n"
        "print(res.status, res.x.tolist())"
    )
    assert out.split() == ["2.5", "True", "0", "[2.0]"]


def test_first_solves_on_four_threads_agree():
    # A short switch interval, so that the four first solves load the binding at once.
    out = run_python(
        "import sys, threading, quasibell.oracle as oracle\n"
        "sys.setswitchinterval(1e-6)\n"
        "start, answers, errors = threading.Barrier(4), [], []\n"
        "def answer():\n"
        "    res = oracle.max_score_lp(3, 1.0)\n"
        "    return res.status, res.optimal_score, sorted(res.weights.items())\n"
        "def solve():\n"
        "    start.wait()\n"
        "    try:\n"
        "        answers.append(answer())\n"
        "    except Exception as exc:\n"
        "        errors.append(repr(exc))\n"
        "threads = [threading.Thread(target=solve) for _ in range(4)]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join(timeout=30)\n"
        "print(any(thread.is_alive() for thread in threads), errors, len(answers),\n"
        "      all(got == answer() for got in answers), answers[0][0].name)"
    )
    assert out.split() == ["False", "[]", "4", "True", "OPTIMAL"]


def test_a_scipy_without_the_binding_fails_loudly(tmp_path):
    folder = tmp_path / "scipy" / "optimize" / "_highspy"
    folder.mkdir(parents=True)
    for package in (tmp_path / "scipy", folder.parent, folder):
        (package / "__init__.py").write_text("")
    out = run_python(
        "import sys, quasibell.oracle as oracle\n"
        "for load in (oracle._highs_binding, lambda: oracle.max_score_lp(2)):\n"
        "    try:\n"
        "        load()\n"
        "    except ImportError as exc:\n"
        "        print(str(exc))\n"
        f"print({BINDING!r} in sys.modules, 'scipy' in sys.modules)",
        pythonpath=tmp_path,
    )
    message = f"scipy's HiGHS binding _core is not in {folder}"
    assert out.splitlines() == [message, message, "False False"]


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
