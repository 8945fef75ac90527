"""Command-line front end: build, verify, saturate, export, sample, oracle.

Every chain length, n=2 included, is scored and witnessed as a chain.  Exit
codes: 0 success; 1 a checked property failed (a bound violation, an
invalid behavior where validity is required, or an `oracle` LP that is not
OPTIMAL); 2 usage or input errors; 141 stdout closed by its reader.  Runs
are seeded, so identical invocations write identical stdout.  --tolerance
overrides the default 1e-9.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path

from .core import DEFAULT_TOLERANCE, assemble_behavior, validate_behavior
from .constructions import chained_saturating_model
from .inequalities import check_quasi_bell
from .serialization import (
    ModelFormatError,
    behavior_to_csv,
    load_behavior_csv,
    load_model,
    model_to_json_dict,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 128 + 13  # killed by SIGPIPE, as `yes | head -1` reports

FORMATS = ("json", "csv", "pretty-table")


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        output.write_text(text if text.endswith("\n") else text + "\n")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _pretty_table(behavior) -> str:
    """Rows x_A x_B against the four outcome columns --, -+, +-, ++."""
    header = ["x_A x_B", "--", "-+", "+-", "++"]
    rows = []
    for (x_a, x_b) in behavior.setting_pairs():
        row = behavior.table[(x_a, x_b)]
        rows.append([f"{x_a}{x_b}", *(f"{float(v):.6g}" for v in row)])
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(5)]
    lines = ["  ".join(h.rjust(widths[i]) for i, h in enumerate(header))]
    for r in rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(r)))
    return "\n".join(lines) + "\n"


def _parse_negativity(text: str):
    """Parse a decimal as a float, or a fraction such as 1/2 as a `Fraction`, which only makes
    the [0, 2] check exact: `build` and `saturate` build the family in floats."""
    try:
        if "/" in text:
            return Fraction(text)
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad negativity value {text!r}") from exc


def _parse_budget(text: str) -> float:
    try:
        value = float(text)  # "inf" and "infinity" included, in any case
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"bad budget {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("budget must be non-negative or inf")
    return value


def _parse_shots(text: str) -> int:
    """Accept integral decimal spellings such as 100000 or 1e6."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = Decimal("NaN")
    if not value.is_finite() or value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"bad shot count {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("shots must be at least 1")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasibell",
        description="Bell models over signed hidden-variable mixtures: "
        "scores, negativity witnesses, saturating families, and oracles.",
    )
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="numeric tolerance")
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="write a saturating model as JSON")
    build.add_argument("--n", type=int, default=2, help="settings per party")
    build.add_argument("--negativity", type=_parse_negativity, required=True)
    build.add_argument("--force", action="store_true", help="allow budgets outside [0, 2]")
    build.add_argument("--output", type=Path, default=None)
    build.set_defaults(handler=_cmd_build)

    saturate = commands.add_parser("saturate", help="saturating model report")
    saturate.add_argument("--n", type=int, default=2)
    saturate.add_argument("--negativity", type=_parse_negativity, required=True)
    saturate.add_argument("--format", choices=FORMATS, default="json")
    saturate.add_argument("--output", type=Path, default=None)
    saturate.set_defaults(handler=_cmd_saturate)

    verify = commands.add_parser("verify", help="check score <= bound for a model file")
    verify.add_argument("--model", type=Path, required=True)
    verify.add_argument("--n", type=int, default=None, help="chain length (default: settings)")
    verify.add_argument("--output", type=Path, default=None)
    verify.set_defaults(handler=_cmd_verify)

    export = commands.add_parser("export", help="write a model's behavior as CSV")
    export.add_argument("--model", type=Path, required=True)
    export.add_argument("--output", type=Path, default=None)
    export.set_defaults(handler=_cmd_export)

    sample = commands.add_parser("sample", help="sign-weighted sampling of a model")
    sample.add_argument("--model", type=Path, required=True)
    sample.add_argument("--shots", type=_parse_shots, default=100_000)
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--output", type=Path, default=None)
    sample.set_defaults(handler=_cmd_sample)

    oracle = commands.add_parser("oracle", help="brute-force and LP oracles")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)

    classical = oracle_sub.add_parser("classical-bound", help="exhaustive classical maximum")
    classical.add_argument("--n", type=int, required=True)
    classical.add_argument("--output", type=Path, default=None)
    classical.set_defaults(handler=_cmd_classical_bound)

    lp = oracle_sub.add_parser("lp", help="max score under a negativity budget")
    lp.add_argument("--n", type=int, required=True)
    lp.add_argument("--budget", type=_parse_budget, default=math.inf)
    lp.add_argument("--output", type=Path, default=None)
    lp.set_defaults(handler=_cmd_lp)

    min_neg = oracle_sub.add_parser("min-neg", help="minimal negative mass for a behavior CSV")
    min_neg.add_argument("--behavior", type=Path, required=True)
    min_neg.add_argument("--output", type=Path, default=None)
    min_neg.set_defaults(handler=_cmd_min_neg)

    return parser


def _cmd_build(args, tol: float) -> int:
    model = chained_saturating_model(args.n, args.negativity, force=args.force)
    _emit(_json_text(model_to_json_dict(model)), args.output)
    return EXIT_OK


def _cmd_saturate(args, tol: float) -> int:
    model = chained_saturating_model(args.n, args.negativity)
    behavior = assemble_behavior(model, tolerance=tol)
    if args.format == "csv":
        _emit(behavior_to_csv(behavior), args.output)
        return EXIT_OK
    if args.format == "pretty-table":
        _emit(_pretty_table(behavior), args.output)
        return EXIT_OK
    report = check_quasi_bell(model, args.n, tol=tol, behavior=behavior)
    payload = {
        "model": model_to_json_dict(model),
        "behavior": behavior.to_json_dict(),
        "report": report.to_json_dict(),
        "witness": report.witness.to_json_dict(),
        "validity": validate_behavior(behavior, tol).to_json_dict(),
    }
    _emit(_json_text(payload), args.output)
    return EXIT_OK


def _cmd_verify(args, tol: float) -> int:
    model = load_model(args.model)
    n = args.n if args.n is not None else model.n_settings
    behavior = assemble_behavior(model, tolerance=tol)
    report = check_quasi_bell(model, n, tol=tol, behavior=behavior)
    payload = report.to_json_dict()
    payload["validity"] = validate_behavior(behavior, tol).to_json_dict()
    _emit(_json_text(payload), args.output)
    return EXIT_OK if report.holds else EXIT_CHECK_FAILED


def _cmd_export(args, tol: float) -> int:
    model = load_model(args.model)
    behavior = assemble_behavior(model, tolerance=tol)
    _emit(behavior_to_csv(behavior), args.output)
    return EXIT_OK


def _cmd_sample(args, tol: float) -> int:
    from .oracle import InvalidBehaviorError, signed_sample

    model = load_model(args.model)
    try:
        estimate = signed_sample(model, shots=args.shots, seed=args.seed, tolerance=tol)
    except InvalidBehaviorError as refusal:
        sys.stderr.write(_json_text({"error": "model behavior is invalid; sampling refused",
                                     "validity": refusal.validity.to_json_dict()}) + "\n")
        return EXIT_CHECK_FAILED
    _emit(_json_text(estimate.to_json_dict()), args.output)
    return EXIT_OK


def _cmd_classical_bound(args, tol: float) -> int:
    from .oracle import classical_bound_bruteforce

    bound = classical_bound_bruteforce(args.n)
    _emit(_json_text({"n": args.n, "classical_bound": bound}), args.output)
    return EXIT_OK


def _cmd_lp(args, tol: float) -> int:
    from .oracle import LPStatus, max_score_lp

    result = max_score_lp(args.n, args.budget)
    payload = result.to_json_dict()
    payload["budget"] = None if math.isinf(args.budget) else args.budget
    _emit(_json_text(payload), args.output)
    return EXIT_OK if result.status is LPStatus.OPTIMAL else EXIT_CHECK_FAILED


def _cmd_min_neg(args, tol: float) -> int:
    from .oracle import LPStatus, min_negativity_lp

    target = load_behavior_csv(args.behavior, tolerance=tol)
    result = min_negativity_lp(target)
    _emit(_json_text(result.to_json_dict()), args.output)
    return EXIT_OK if result.status is LPStatus.OPTIMAL else EXIT_CHECK_FAILED


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Write each `--option -value` as `--option=-value`.

    argparse takes a token starting with "-" for an option unless it is a negative number,
    so `--budget -inf` would not reach its parser.  Only -h has one dash here, so such a
    token after a long option is its value."""
    joined: list[str] = []
    for token in argv:
        option = joined[-1] if joined else ""
        if (token.startswith("-") and not token.startswith("--") and token not in ("-", "-h")
                and option.startswith("--") and len(option) > 2 and "=" not in option):
            joined[-1] = f"{option}={token}"
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_dash_values(argv))
    tol = args.tolerance
    try:
        if not 0 < tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
        return args.handler(args, tol)
    except BrokenPipeError:
        raise
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        sys.stderr.write(
            f"error: malformed model JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}\n"
        )
        return EXIT_USAGE
    except (ModelFormatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    """Run `main`; a reader that closes stdout early ends the run quietly, stdout pointed at the
    null device so the exit flush cannot raise again, with exit code 128 + SIGPIPE, never 1."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
