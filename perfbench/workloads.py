"""The benchmark's four seeded workloads.

A workload is an endless sequence of cycles; `cycle(index)` returns the list
of ops of that cycle and depends only on the workload seed and the index, so
a run and its traced replay execute the same ops.  An op is one unit of user
work (`run`) plus the check of its output against an expectation computed
independently of the call (`check`, which raises `CheckFailed`).  Inputs are
generated here, from the seed, and never by the repository's test helpers.

Ops call the library through the `quasibell` package attributes at call time,
so the wrappers that `tracer.install` puts there are the ones they run.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import quasibell as qb


class CheckFailed(AssertionError):
    """An op's output differs from its expectation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_close(got: float, want: float, tol: float, what: str) -> None:
    expect(abs(got - want) <= tol, f"{what}: got {got!r}, expected {want!r} within {tol:g}")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


# -- sweep -------------------------------------------------------------------

SWEEP_SETTINGS = 3
SWEEP_MAX_POINTS = 6
SWEEP_OPS_PER_CYCLE = 50
#: Candidates drawn before an op starts; the op draws more itself in the rare
#: case that all of them assemble to invalid behaviors.
SWEEP_PREDRAWN = 4


def _sweep_candidate(rng: np.random.Generator, force_negative: bool):
    """Raw inputs for one random diagonal model: labels, two response tables, weights."""
    k = int(rng.integers(2, SWEEP_MAX_POINTS + 1))
    labels = tuple(str(i) for i in range(1, k + 1))
    p_a, p_b = rng.random((2, SWEEP_SETTINGS, k)).tolist()
    cells = [(x, j, lam) for x in range(SWEEP_SETTINGS) for j, lam in enumerate(labels)]
    table_a = {(x, lam): (1.0 - p_a[x][j], p_a[x][j]) for x, j, lam in cells}
    table_b = {(x, lam): (1.0 - p_b[x][j], p_b[x][j]) for x, j, lam in cells}
    u = rng.random(k)
    u = u / u.sum()
    if force_negative:
        mag = float(rng.uniform(0.01, 0.25))
        w = (1 + mag) * u
        w[int(rng.integers(k))] = -mag
    else:
        v = rng.random(k)
        alpha = float(rng.uniform(0.0, 0.4))
        w = (1 + alpha) * u - alpha * v / v.sum()
    w = w / w.sum()
    return labels, table_a, table_b, dict(zip(labels, w.tolist()))


class Sweep:
    """Criterion-6 traffic: rejection-sample a valid signed model, check n=2 and n=3."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.models_built = 0
        self.models_accepted = 0

    def cycle(self, index: int) -> list[Op]:
        first = index * SWEEP_OPS_PER_CYCLE
        return [self._op(first + j) for j in range(SWEEP_OPS_PER_CYCLE)]

    def _op(self, number: int) -> Op:
        rng = np.random.default_rng([self.seed, number])
        force_negative = number % 2 == 1
        predrawn = [_sweep_candidate(rng, force_negative) for _ in range(SWEEP_PREDRAWN)]

        def run():
            attempt = 0
            while True:
                if attempt < len(predrawn):
                    labels, table_a, table_b, weights = predrawn[attempt]
                else:
                    labels, table_a, table_b, weights = _sweep_candidate(rng, force_negative)
                attempt += 1
                model = qb.Model(
                    qb.LocalResponse("A", SWEEP_SETTINGS, labels, table_a),
                    qb.LocalResponse("B", SWEEP_SETTINGS, labels, table_b),
                    qb.QuasiDist.diagonal(weights),
                )
                if qb.validate_behavior(qb.assemble_behavior(model)).is_valid:
                    break
            self.models_built += attempt
            self.models_accepted += 1
            return model, [qb.check_quasi_bell(model, n) for n in (2, 3)]

        def check(result) -> None:
            model, reports = result
            expect(
                not force_negative or model.dist.negative_mass() > 0,
                "a forced-negative model has no negative weight",
            )
            for report in reports:
                expect(report.holds, f"n={report.n}: score {report.score!r} > {report.bound!r}")
                expect_close(report.score, report.lambda_mixture_score, 1e-9,
                             f"n={report.n} mixture score")

        return Op("sweep.negative" if force_negative else "sweep.mixed", run, check)


# -- exact -------------------------------------------------------------------

EXACT_CHAINS = tuple(range(2, 13))
#: Twelfths, so that a float result could not pass the equality checks by luck.
EXACT_BUDGETS = tuple(Fraction(k, 12) for k in range(25))


class Exact:
    """Fraction saturating families at their own chain length, n = 2..12."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def cycle(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        chains = [EXACT_CHAINS[i] for i in rng.permutation(len(EXACT_CHAINS))]
        budgets = [EXACT_BUDGETS[int(rng.integers(len(EXACT_BUDGETS)))] for _ in chains]
        return [self._op(n, budget) for n, budget in zip(chains, budgets)]

    @staticmethod
    def _op(n: int, budget: Fraction) -> Op:
        def run():
            model = qb.chained_saturating_model(n, budget, exact=True)
            validity = qb.validate_behavior(qb.assemble_behavior(model))
            return validity, qb.check_quasi_bell(model, n)

        def check(result) -> None:
            validity, report = result
            expect(validity.is_valid, f"n={n}, N={budget}: behavior invalid")
            expect(isinstance(report.score, Fraction), f"n={n}: score {report.score!r} not exact")
            expect(report.score == 2 * n - 2 + budget, f"n={n}, N={budget}: score {report.score}")
            expect(report.margin == 0 and report.holds, f"n={n}: margin {report.margin}")

        return Op(f"exact.n{n}", run, check)


# -- oracle ------------------------------------------------------------------

ORACLE_LP_CHAINS = (2, 3, 4, 5)
ORACLE_LP_BUDGETS = (0.0, 0.5, 1.0, 2.0, math.inf)
ORACLE_FAMILY_BUDGETS = (0.5, 1.0, 2.0)
ORACLE_BRUTEFORCE_CHAINS = tuple(range(2, 13))
ORACLE_SAMPLE_CHAINS = (2, 3)
ORACLE_SAMPLE_BUDGET = 1.0
#: Shots per sampler call: enough for a 5-SE check to be meaningful, few enough
#: that sampling stays under a tenth of a cycle's time.
ORACLE_SHOTS = 100_000
SINGLET_MIN_NEGATIVITY = (math.sqrt(2) - 1) / 2
LP_TOL = 1e-7


class Oracle:
    """One oracle call per op over a fixed grid, shuffled per cycle."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed])
        sample_seeds = rng.integers(2**31, size=len(ORACLE_SAMPLE_CHAINS)).tolist()
        self._ops = (
            [self._lp_op(n, b) for n in ORACLE_LP_CHAINS for b in ORACLE_LP_BUDGETS]
            + [self._min_neg_op(n, b) for n in ORACLE_LP_CHAINS for b in ORACLE_FAMILY_BUDGETS]
            + [self._singlet_op()]
            + [self._bruteforce_op(n) for n in ORACLE_BRUTEFORCE_CHAINS]
            + [self._sample_op(n, s) for n, s in zip(ORACLE_SAMPLE_CHAINS, sample_seeds)]
        )

    def cycle(self, index: int) -> list[Op]:
        order = np.random.default_rng([self.seed, index]).permutation(len(self._ops))
        return [self._ops[i] for i in order]

    @staticmethod
    def _lp_op(n: int, budget: float) -> Op:
        def check(result) -> None:
            expect(result.status is qb.LPStatus.OPTIMAL, f"n={n}, B={budget}: {result.status}")
            score = result.optimal_score
            if budget == 0:
                expect_close(score, 2 * n - 2, LP_TOL, f"max_score_lp({n}, 0)")
            elif math.isinf(budget):
                expect_close(score, 2 * n, LP_TOL, f"max_score_lp({n}, inf)")
            else:
                # The family with negativity N = B/2 spends faithful budget 8 * N/4 = B.
                floor = 2 * n - 2 + budget / 2
                expect(score >= floor - LP_TOL, f"max_score_lp({n}, {budget}) = {score} < {floor}")

        return Op(f"oracle.max_score_lp.n{n}", lambda: qb.max_score_lp(n, budget), check)

    @staticmethod
    def _min_neg_op(n: int, budget: float) -> Op:
        target = qb.assemble_behavior(qb.chained_saturating_model(n, budget))

        def check(result) -> None:
            where = f"min_negativity_lp of the family at n={n}, N={budget}"
            expect(result.status is qb.LPStatus.OPTIMAL, f"{where}: {result.status}")
            expect_close(result.negative_mass, budget / 4, LP_TOL, f"{where}: negative mass")
            expect_close(result.optimal_score, 2 * n - 2 + budget, LP_TOL, f"{where}: score")

        return Op(f"oracle.min_negativity_lp.n{n}", lambda: qb.min_negativity_lp(target), check)

    @staticmethod
    def _singlet_op() -> Op:
        target = qb.quantum_behavior(
            qb.singlet_state(), [0.0, math.pi / 2], [math.pi / 4, 3 * math.pi / 4]
        )

        def check(result) -> None:
            expect(result.status is qb.LPStatus.OPTIMAL, f"singlet: {result.status}")
            expect_close(result.negative_mass, SINGLET_MIN_NEGATIVITY, 1e-6,
                         "singlet negative mass")

        return Op("oracle.min_negativity_lp.singlet", lambda: qb.min_negativity_lp(target), check)

    @staticmethod
    def _bruteforce_op(n: int) -> Op:
        def check(result) -> None:
            expect(result == 2 * n - 2, f"classical_bound_bruteforce({n}) = {result}")

        return Op(f"oracle.classical_bound_bruteforce.n{n}",
                  lambda: qb.classical_bound_bruteforce(n), check)

    @staticmethod
    def _sample_op(n: int, seed: int) -> Op:
        model = qb.chained_saturating_model(n, ORACLE_SAMPLE_BUDGET)
        exact = {pair: [float(v) for v in row]
                 for pair, row in qb.assemble_behavior(model).table.items()}

        def check(result) -> None:
            table = result.empirical_behavior.table
            for (x_a, x_b), want in exact.items():
                for k in range(4):
                    error = result.standard_errors[(x_a, x_b, k)]
                    got = table[(x_a, x_b)][k]
                    expect(
                        abs(got - want[k]) <= 5 * error + 1e-12,
                        f"sample n={n} cell {(x_a, x_b, k)}: {got} vs {want[k]} (SE {error})",
                    )

        return Op(f"oracle.signed_sample.n{n}",
                  lambda: qb.signed_sample(model, ORACLE_SHOTS, seed), check)


# -- cli ---------------------------------------------------------------------

CLI_SHOTS = 100_000
CHILD_TIMEOUT_S = 120.0


def child_env(root: Path) -> dict:
    """Environment for a child interpreter that imports quasibell from `root/src`."""
    env = dict(os.environ)
    env.pop("QUASIBELL_TOLERANCE", None)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str


def _close(got, want, path: str = "$") -> None:
    """Parsed JSON `got` equals `want`; floats within 1e-9 relative."""
    if isinstance(want, dict):
        expect(isinstance(got, dict) and set(got) == set(want), f"{path}: {got!r} vs {want!r}")
        for key in want:
            _close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        expect(isinstance(got, list) and len(got) == len(want), f"{path}: {got!r} vs {want!r}")
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        expect(math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12),
               f"{path}: {got!r} vs {want!r}")
    else:
        expect(got == want, f"{path}: {got!r} vs {want!r}")


def _malformed_documents(document: dict) -> dict[str, str]:
    """Model files that must each give exit 2 and a one-line error."""
    table_list = copy.deepcopy(document)
    table_list["parties"][0]["table"] = list(table_list["parties"][0]["table"].values())
    row_null = copy.deepcopy(document)
    first_key = next(iter(row_null["parties"][1]["table"]))
    row_null["parties"][1]["table"][first_key] = [None, 1.0]
    unnormalized = copy.deepcopy(document)
    unnormalized["dist"] = {key: 2 * value for key, value in unnormalized["dist"].items()}
    text = json.dumps(document, indent=2)
    return {
        "table_list": json.dumps(table_list),
        "row_null": json.dumps(row_null),
        "truncated": text[: len(text) // 2],
        "unnormalized": json.dumps(unnormalized),
    }


class Cli:
    """`python -m quasibell.cli` subprocesses, one at a time, in a fixed order.

    The expectations are computed in this process, through the library, before
    any op runs.  With `traced`, each command runs instead under
    `traced_cli.py`, which records spans in the child and writes them to
    `<workdir>/spans.json`; `child_spans` collects them.
    """

    def __init__(self, seed: int, root: Path, workdir: Path, traced: bool = False) -> None:
        self.root = root
        self.workdir = workdir
        self.traced = traced
        self.child_spans: list[dict] = []
        self.child_peak_rss_kb = 0
        self.env = child_env(root)

        rng = np.random.default_rng([seed])
        build_budget = Fraction(int(rng.integers(1, 25)), 12)
        saturate_budget = Fraction(int(rng.integers(0, 25)), 12)
        lp_budget = ("0", "0.5", "1", "2", "inf")[int(rng.integers(5))]
        sample_seed = int(rng.integers(2**31))

        model_path = workdir / "model.json"
        csv_path = workdir / "behavior.csv"
        model = qb.chained_saturating_model(3, build_budget)
        document = qb.model_to_json_dict(model)
        model = qb.model_from_json_dict(document)  # what `verify` reads back
        behavior = qb.assemble_behavior(model)
        csv_text = qb.behavior_to_csv(behavior)
        verify_payload = qb.check_quasi_bell(model, 3).to_json_dict()
        verify_payload["validity"] = qb.validate_behavior(behavior).to_json_dict()
        model5 = qb.chained_saturating_model(5, saturate_budget)
        lp_value = math.inf if lp_budget == "inf" else float(lp_budget)
        lp_payload = qb.max_score_lp(5, lp_value).to_json_dict()
        lp_payload["budget"] = None if math.isinf(lp_value) else lp_value

        min_neg_payload = qb.min_negativity_lp(qb.behavior_from_csv(csv_text)).to_json_dict()
        sample_payload = qb.signed_sample(model, CLI_SHOTS, sample_seed).to_json_dict()
        model_arg, csv_arg = str(model_path), str(csv_path)

        self._ops = [
            self._op("build", ["build", "--n", "3", "--negativity", str(build_budget),
                               "--output", model_arg],
                     self._file_equals(model_path, document, parse=json.loads)),
            self._op("verify", ["verify", "--model", model_arg],
                     self._stdout_equals(verify_payload)),
            self._op("export", ["export", "--model", model_arg, "--output", csv_arg],
                     self._file_equals(csv_path, csv_text)),
            self._op("oracle_min_neg", ["oracle", "min-neg", "--behavior", csv_arg],
                     self._stdout_equals(min_neg_payload)),
            self._op("saturate", ["saturate", "--n", "5", "--negativity", str(saturate_budget)],
                     self._saturate_check(model5, saturate_budget)),
            self._op("oracle_lp", ["oracle", "lp", "--n", "5", "--budget", lp_budget],
                     self._stdout_equals(lp_payload)),
            self._op("sample", ["sample", "--model", model_arg, "--shots", str(CLI_SHOTS),
                                "--seed", str(sample_seed)],
                     self._stdout_equals(sample_payload)),
        ]
        for name, text in _malformed_documents(document).items():
            path = workdir / f"malformed_{name}.json"
            path.write_text(text)
            self._ops.append(
                self._op(f"malformed.{name}", ["verify", "--model", str(path)], self._usage_error)
            )

    def cycle(self, index: int) -> list[Op]:
        return list(self._ops)

    def _op(self, name: str, argv: list[str], check) -> Op:
        return Op(f"cli.{name}", lambda: self._spawn(name, argv), check)

    def _spawn(self, name: str, argv: list[str]) -> CliResult:
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        spans_path = self.workdir / "spans.json"
        if self.traced:
            script = Path(__file__).with_name("traced_cli.py")
            command = [sys.executable, "-X", "importtime", str(script), str(spans_path), *argv]
        else:
            command = [sys.executable, "-m", "quasibell.cli", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            child = subprocess.Popen(command, stdout=out, stderr=err, cwd=self.root, env=self.env)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                watchdog.cancel()
            child.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_rss_kb = max(self.child_peak_rss_kb, usage.ru_maxrss)
        stderr = err_path.read_text()
        if self.traced:
            spans = json.loads(spans_path.read_text())
            spans["op"] = name
            spans["importtime"] = _importtime(stderr)
            self.child_spans.append(spans)
            stderr = "".join(line for line in stderr.splitlines(True)
                             if not line.startswith("import time:"))
        return CliResult(child.returncode, out_path.read_text(), stderr)

    @staticmethod
    def _stdout_equals(payload: dict):
        def check(result: CliResult) -> None:
            expect(result.exit_code == 0, f"exit {result.exit_code}: {result.stderr[-300:]}")
            _close(json.loads(result.stdout), payload)

        return check

    @staticmethod
    def _file_equals(path: Path, want, parse=lambda text: text):
        def check(result: CliResult) -> None:
            expect(result.exit_code == 0, f"exit {result.exit_code}: {result.stderr[-300:]}")
            _close(parse(path.read_text()), want)

        return check

    @staticmethod
    def _saturate_check(model, budget: Fraction):
        behavior = qb.assemble_behavior(model)
        report = qb.check_quasi_bell(model, 5).to_json_dict()
        validity = qb.validate_behavior(behavior).to_json_dict()
        document = qb.model_to_json_dict(model)

        def check(result: CliResult) -> None:
            expect(result.exit_code == 0, f"exit {result.exit_code}: {result.stderr[-300:]}")
            payload = json.loads(result.stdout)
            _close(payload["report"], report)
            _close(payload["validity"], validity)
            _close(payload["model"], document)
            expect_close(payload["report"]["score"], 8 + float(budget), 1e-9,
                         "saturate --n 5 score")
            expect(payload["validity"]["is_valid"], "saturate --n 5 behavior invalid")

        return check

    @staticmethod
    def _usage_error(result: CliResult) -> None:
        lines = result.stderr.splitlines()
        expect(result.exit_code == 2,
               f"exit {result.exit_code}, expected 2: {result.stderr[-300:]}")
        expect(len(lines) == 1 and lines[0].startswith("error:"),
               f"stderr is not one error line: {lines[:3]}")


def _importtime(stderr: str) -> dict[str, int]:
    """Cumulative microseconds per module from `-X importtime` lines."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, total, name = line[len("import time:"):].split("|")
            if total.strip().isdigit():
                cumulative[name.strip()] = int(total)
    return cumulative


WORKLOADS = {"sweep": Sweep, "exact": Exact, "oracle": Oracle, "cli": Cli}

#: Defects the seed commit has, listed in ROADMAP item 2.  Their ops count as
#: failed in `failed` and `ok_rate`, but do not make the run incorrect.
KNOWN_DEFECTS = {
    "cli.malformed.table_list": "a list-valued 'table' raises AttributeError: traceback and exit 1",
    "cli.malformed.row_null": "a null table entry raises TypeError: traceback and exit 1",
}
