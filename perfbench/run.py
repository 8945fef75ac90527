"""quasibell benchmark: seeded closed-loop workloads with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One client runs one op at a time; the next starts when the last one ends.
A run first times `setup_s` in fresh interpreters, runs one untimed cycle of
the workload in its own process (`cli` ops are fresh processes and skip it),
then runs whole cycles until `--seconds` have passed.  With `--trace 0` the
last line of stdout is the end-to-end result; with `--trace 1` the same ops
are replayed with every library module wrapped in spans, and the last line
holds the per-layer metrics instead.  The line before it records the
environment, the failures and, for traced runs, what each per-layer metric
should move.

It measures the library under `src/` of the checkout it sits in and exits
with code 2, printing no result, when that library is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from setup_probe import reference_work, warm_up
from tracer import LAYERS, Tracer, install

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = Path(__file__).resolve().parent / ".work"

#: Fresh interpreters timed per run for `setup_s`; the median is reported.
SETUP_PROBES = 5
#: Share of op wall time that the per-layer self times may leave unexplained.
UNACCOUNTED_BOUND = 0.10
#: Time of one `reference_work()` call on the 2-vCPU Xeon VM the benchmark was
#: defined on.  Op and set-up timings are reported at that machine speed.
REFERENCE_S = 1.6e-3
#: Share of the op time spent, between ops, re-measuring the machine speed.
REFERENCE_SHARE = 0.1

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
)

CLI_COMMANDS = (
    "build", "verify", "export", "oracle_min_neg", "saturate", "oracle_lp", "sample", "malformed",
)

_SWEEP = "sweep op_p50_ms, exact ops_per_s"
_LP = "oracle ops_per_s and op_p90_ms"

#: Per-layer metrics: name, unit, better, the end-to-end metric it should move.
PER_LAYER = (
    ("core.construct.us_per_call", "us", "lower", "sweep ops_per_s"),
    ("core.assemble_behavior.us_per_call", "us", "lower", "sweep and exact ops_per_s"),
    ("core.assemble_behavior.calls", "count", "lower", "sweep and exact ops_per_s"),
    ("core.validate_behavior.us_per_call", "us", "lower", "sweep ops_per_s"),
    ("core.accept_ratio", "ratio", "higher", "sweep ops_per_s"),
    ("witnesses.witness_chsh.us_per_call", "us", "lower", _SWEEP),
    ("witnesses.witness_chained.us_per_call", "us", "lower", _SWEEP),
    ("inequalities.check_quasi_bell.self_us", "us", "lower", _SWEEP),
    ("inequalities.mixture_score.us_per_call", "us", "lower", _SWEEP),
    ("constructions.chained_saturating_model.us_per_call", "us", "lower", "exact ops_per_s"),
    ("oracle.max_score_lp.self_ms", "ms", "lower", _LP),
    ("oracle.min_negativity_lp.self_ms", "ms", "lower", _LP),
    ("oracle.linprog.ms", "ms", "lower", _LP),
    ("oracle.linprog.iterations", "count", "lower", _LP),
    ("oracle.lp.optimal_ratio", "ratio", "higher", _LP),
    ("oracle.signed_sample.shots_per_s", "1/s", "higher", "oracle ops_per_s"),
    ("oracle.signed_sample.assemble_behavior.us_per_call", "us", "lower", "oracle ops_per_s"),
    ("oracle.signed_sample.validate_behavior.us_per_call", "us", "lower", "oracle ops_per_s"),
    ("oracle.classical_bound_bruteforce.ms", "ms", "lower", "oracle op_p90_ms"),
    ("serialization.load_model.us_per_call", "us", "lower", "cli op_p50_ms"),
    ("serialization.model_to_json_dict.us_per_call", "us", "lower", "cli op_p50_ms"),
    ("serialization.behavior_to_csv.us_per_call", "us", "lower", "cli op_p50_ms"),
    ("serialization.load_behavior_csv.us_per_call", "us", "lower", "cli op_p50_ms"),
    ("cli.import_ms", "ms", "lower", "cli op_p50_ms and setup_s"),
    ("cli.import_scipy_optimize_share", "ratio", "lower", "cli op_p50_ms and setup_s"),
    ("cli.interpreter_ms", "ms", "lower", "cli op_p50_ms"),
    *((f"cli.main.{command}.ms", "ms", "lower", "cli op_p50_ms") for command in CLI_COMMANDS),
    *((f"{layer}.self_share", "ratio", "lower", "ops_per_s of this workload") for layer in LAYERS),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced time of the same ops"),
    ("trace.unaccounted_share", "ratio", "lower",
     f"none: op time outside every span, bound {UNACCOUNTED_BOUND}"),
)


class CheckoutError(RuntimeError):
    """The benchmark does not sit in a quasibell checkout with its sources."""


def load_checkout() -> None:
    """Import quasibell from this checkout's `src/`, never from an installed copy."""
    if not (SRC / "quasibell" / "__init__.py").is_file():
        raise CheckoutError(f"no quasibell sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import quasibell
    except ImportError as exc:
        raise CheckoutError(f"quasibell does not import: {exc}") from exc
    location = Path(quasibell.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise CheckoutError(f"quasibell resolved to {location}, outside {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                  if line.startswith("model name")]
        cpu = models[0] if models else cpu
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "blas_thread_env": {var: os.environ.get(var) for var in thread_vars},
        "commit": _git_commit(),
    }


def _blas_threads(numpy):
    """Threads numpy's bundled OpenBLAS will use, or None where it cannot be asked."""
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in glob.glob(pattern):
        library = ctypes.CDLL(path)
        for symbol in symbols:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def measure_setup(workload: str) -> tuple[float, float]:
    """Median seconds from spawning a fresh interpreter to a warmed-up library.

    Returns the median at reference machine speed, each probe scaled by the
    speed it measured right after, and the raw median.
    """
    from workloads import child_env  # imports quasibell, so only after load_checkout

    probe = Path(__file__).with_name("setup_probe.py")
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        child = subprocess.Popen([sys.executable, str(probe), workload], stdout=subprocess.PIPE,
                                 cwd=ROOT, env=child_env(ROOT), text=True)
        ready = child.stdout.readline()
        elapsed = perf_counter() - start
        reference_s = child.stdout.readline()
        child.stdout.close()
        child.wait(timeout=60)
        if ready.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {child.returncode})")
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_S / float(reference_s))
    return statistics.median(scaled), statistics.median(raw)


def measure_interpreter() -> float:
    """Median seconds to start and stop a bare interpreter."""
    from workloads import child_env

    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT, env=child_env(ROOT),
                       timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times)


@dataclass
class Run:
    kinds: list[str] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    cycles: int = 0
    #: Times of the `reference_work()` calls made between ops.
    reference: list[float] = field(default_factory=list)

    def slowdown(self) -> float:
        """Machine slowness during the run relative to `REFERENCE_S`; 1 when not measured."""
        return statistics.fmean(self.reference) / REFERENCE_S if self.reference else 1.0


def execute(workload, seconds: float | None = None, cycles: int | None = None,
            op_span=None, reference: bool = False) -> Run:
    """Run whole cycles of ops until `seconds` have passed or `cycles` are done.

    Only the op itself is timed; its check runs after the clock stops.  A
    failed op is recorded and the run goes on.  With `reference`, ops are
    interleaved with `reference_work()` calls worth `REFERENCE_SHARE` of the
    op time, which measure how fast the machine ran meanwhile.
    """
    run = Run()
    deadline = None if seconds is None else perf_counter() + seconds
    owed = 0.0  # reference time still to spend
    while cycles is None or run.cycles < cycles:
        for op in workload.cycle(run.cycles):
            start = perf_counter()
            try:
                result = op.run() if op_span is None else op_span(op.run)
            except Exception as exc:  # a failing op must not stop the run
                run.latencies.append(perf_counter() - start)
                run.failures.append((op.kind, f"{type(exc).__name__}: {exc}"))
            else:
                run.latencies.append(perf_counter() - start)
                try:
                    op.check(result)
                except Exception as exc:  # a wrong or unreadable result is a failure
                    run.failures.append((op.kind, f"{type(exc).__name__}: {exc}"))
            run.kinds.append(op.kind)
            owed += REFERENCE_SHARE * run.latencies[-1] if reference else 0.0
            while owed > 0:
                start = perf_counter()
                reference_work()
                run.reference.append(perf_counter() - start)
                owed -= run.reference[-1]
        run.cycles += 1
        if deadline is not None and perf_counter() >= deadline:
            break
    return run


def make_workload(name: str, seed: int, traced: bool = False):
    from workloads import WORKLOADS

    if name == "cli":
        return WORKLOADS[name](seed, ROOT, WORKDIR, traced=traced)
    return WORKLOADS[name](seed)


def end_to_end(run: Run, setup_s: float, peak_rss_kb: int) -> dict:
    """End-to-end metrics; op timings are divided by the run's `slowdown()`."""
    latencies = run.latencies
    slowdown = run.slowdown()
    return {
        "ops_per_s": len(latencies) / sum(latencies) * slowdown,
        "op_p50_ms": statistics.median(latencies) * 1e3 / slowdown,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3
        / slowdown,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024,
        "ok_rate": 1 - len(run.failures) / len(latencies),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer: Tracer, tracer_run: Run, untraced: Run, workload,
              interpreter_s: float) -> dict:
    """Per-layer metrics from a traced replay of `untraced`'s ops; 0 where a layer is idle."""
    stats, edges, counters = tracer.stats, tracer.edges, tracer.counters

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1]

    def per_call(name, scale, column=1):
        return _share(stats.get(name, (0, 0.0, 0.0))[column], calls(name)) * scale

    def edge_per_call(parent, child, scale):
        count, seconds = edges.get((parent, child), (0, 0.0))
        return _share(seconds, count) * scale

    metrics = {
        "core.construct.us_per_call": per_call("core.construct", 1e6),
        "core.assemble_behavior.us_per_call": per_call("core.assemble_behavior", 1e6),
        "core.assemble_behavior.calls": calls("core.assemble_behavior"),
        "core.validate_behavior.us_per_call": per_call("core.validate_behavior", 1e6),
        "core.accept_ratio": _share(getattr(workload, "models_accepted", 0),
                                    getattr(workload, "models_built", 0)),
        "witnesses.witness_chsh.us_per_call": per_call("witnesses.witness_chsh", 1e6),
        "witnesses.witness_chained.us_per_call": per_call("witnesses.witness_chained", 1e6),
        "inequalities.check_quasi_bell.self_us":
            per_call("inequalities.check_quasi_bell", 1e6, column=2),
        "inequalities.mixture_score.us_per_call": per_call("inequalities.mixture_score", 1e6),
        "constructions.chained_saturating_model.us_per_call":
            per_call("constructions.chained_saturating_model", 1e6),
        "oracle.max_score_lp.self_ms": per_call("oracle.max_score_lp", 1e3, column=2),
        "oracle.min_negativity_lp.self_ms": per_call("oracle.min_negativity_lp", 1e3, column=2),
        "oracle.linprog.ms": per_call("oracle.linprog", 1e3),
        "oracle.linprog.iterations":
            _share(counters.get("oracle.linprog.iterations", 0), calls("oracle.linprog")),
        "oracle.lp.optimal_ratio":
            _share(counters.get("oracle.linprog.optimal", 0), calls("oracle.linprog")),
        "oracle.signed_sample.shots_per_s": _share(
            counters.get("oracle.signed_sample.shots", 0), total("oracle.signed_sample")),
        "oracle.signed_sample.assemble_behavior.us_per_call":
            edge_per_call("oracle.signed_sample", "core.assemble_behavior", 1e6),
        "oracle.signed_sample.validate_behavior.us_per_call":
            edge_per_call("oracle.signed_sample", "core.validate_behavior", 1e6),
        "oracle.classical_bound_bruteforce.ms": per_call("oracle.classical_bound_bruteforce", 1e3),
    }
    for name in ("load_model", "model_to_json_dict", "behavior_to_csv", "load_behavior_csv"):
        metrics[f"serialization.{name}.us_per_call"] = per_call(f"serialization.{name}", 1e6)

    # Only the cli workload has child interpreters; elsewhere these read 0.
    children = getattr(workload, "child_spans", [])
    import_s = [child["import_s"] for child in children]
    metrics["cli.import_ms"] = statistics.median(import_s) * 1e3 if children else 0.0
    metrics["cli.import_scipy_optimize_share"] = statistics.median(
        child["importtime"].get("scipy.optimize", 0) / 1e6 / child["import_s"] for child in children
    ) if children else 0.0
    metrics["cli.interpreter_ms"] = interpreter_s * 1e3
    for command in CLI_COMMANDS:
        mains = [child["main_s"] for child in children if child["op"].split(".")[0] == command]
        metrics[f"cli.main.{command}.ms"] = statistics.fmean(mains) * 1e3 if mains else 0.0

    op_total = stats["op"][1]
    accounted = interpreter_s * len(children)
    for layer in LAYERS:
        own = sum(entry[2] for name, entry in stats.items() if name.split(".", 1)[0] == layer)
        if layer == "cli":
            own += sum(import_s)
        metrics[f"{layer}.self_share"] = own / op_total
        accounted += own
    metrics["trace.overhead_ratio"] = (op_total / tracer_run.slowdown()) / (
        sum(untraced.latencies) / untraced.slowdown())
    metrics["trace.unaccounted_share"] = 1 - accounted / op_total
    return metrics


def traced_replay(name: str, seed: int, timed: Run) -> tuple[Run, dict]:
    """Replay the timed run's cycles with spans on; return the replay and its metrics."""
    replay = make_workload(name, seed, traced=True)
    interpreter_s = measure_interpreter() if name == "cli" else 0.0
    tracer = Tracer()
    op_span = tracer.wrap("op", lambda fn: fn())
    if name == "cli":  # the spans are recorded in the child interpreters
        traced = execute(replay, cycles=timed.cycles, op_span=op_span, reference=True)
        for child in replay.child_spans:
            tracer.merge_json_dict(child)
    else:
        uninstall = install(tracer)
        try:
            traced = execute(replay, cycles=timed.cycles, op_span=op_span, reference=True)
        finally:
            uninstall()
    if traced.kinds != timed.kinds:
        raise RuntimeError("the traced replay ran other ops than the timed run")
    return traced, per_layer(tracer, traced, timed, replay, interpreter_s)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "exact", "oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import KNOWN_DEFECTS  # imports quasibell, so only after load_checkout

    WORKDIR.mkdir(exist_ok=True)
    try:
        env = environment()
        setup_s, raw_setup_s = (None, None) if args.trace else measure_setup(args.workload)
        workload = make_workload(args.workload, args.seed)
        warm_up(args.workload)
        if args.workload != "cli":  # first calls fault in memory and start BLAS threads
            execute(make_workload(args.workload, args.seed), cycles=1)
        timed = execute(workload, seconds=args.seconds, reference=True)
        if args.workload == "cli":
            peak_rss_kb = workload.child_peak_rss_kb
        else:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        if args.trace:
            measured, metrics = traced_replay(args.workload, args.seed, timed)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
        else:
            measured, metrics = timed, end_to_end(timed, setup_s, peak_rss_kb)
            units = dict(END_TO_END)
        failures = timed.failures + (measured.failures if args.trace else [])
        unexpected = [(kind, why) for kind, why in failures if kind not in KNOWN_DEFECTS]
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "ops": len(timed.kinds),
            "cycles": timed.cycles,
            "error_rate": len(timed.failures) / len(timed.kinds),
            "failures_by_kind": {kind: sum(1 for k, _ in failures if k == kind)
                                 for kind in sorted({k for k, _ in failures})},
            "known_defects": {kind: KNOWN_DEFECTS[kind] for kind, _ in failures
                              if kind in KNOWN_DEFECTS},
            "unexpected_failures": unexpected[:10],
            "environment": env,
        }
        if args.trace:
            report["per_layer_moves"] = {name: moves for name, _, _, moves in PER_LAYER}
        else:
            p90_s = metrics["op_p90_ms"] / 1e3 * timed.slowdown()
            report["slowdown"] = timed.slowdown()
            report["raw_ops_per_s"] = len(timed.latencies) / sum(timed.latencies)
            report["raw_setup_s"] = raw_setup_s
            report["latency_samples"] = len(timed.latencies)
            report["samples_above_p90"] = sum(1 for t in timed.latencies if t > p90_s)
            by_kind: dict[str, list[float]] = {}
            for kind, latency in zip(timed.kinds, timed.latencies):
                by_kind.setdefault(kind, []).append(latency)
            report["raw_p50_ms_by_kind"] = {kind: statistics.median(times) * 1e3
                                            for kind, times in sorted(by_kind.items())}
        print(json.dumps(report, sort_keys=True))
        for kind, why in unexpected[:10]:
            print(f"FAILED {kind}: {why}", file=sys.stderr)
        result = {
            "correct": not unexpected,
            "attempted": len(measured.kinds),
            "failed": len(measured.failures),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
