"""Span recorder that wraps quasibell's public functions from the outside.

`install` replaces every public function of the library's modules, in every
quasibell namespace that holds a reference to it, with a wrapper that records
a span.  Callers look functions up as module attributes at call time, so the
wrapped version is the one they run; nothing under `src/` is edited.  The
constructors of `LocalResponse`, `QuasiDist` and `Model` are wrapped through
their `__init__` as the single span `core.construct`; their public
classmethods, such as `QuasiDist.diagonal`, get spans of their own.  scipy's
`linprog`, as the oracle module sees it, is wrapped as `oracle.linprog`.

Spans are aggregated in memory per name (calls, total time, self time) and
per parent->child edge.  A span's self time is its duration minus the time
covered by its child spans.  This module imports nothing heavy, so a child
interpreter can import it after timing its own `import quasibell.cli`.
"""

from __future__ import annotations

import importlib
import types
from time import perf_counter

#: The library's modules, which are also the layer names.
LAYERS = (
    "core",
    "witnesses",
    "inequalities",
    "constructions",
    "oracle",
    "serialization",
    "cli",
)

#: Public helpers called inside the innermost loops of other public functions.
#: A span around each call would cost more than the call; their time stays in
#: the caller's self time.
INNER_LOOP = frozenset(
    {"correlation", "local_expectation", "lambda_local_score", "strategy_score"}
)

CONSTRUCTED = ("LocalResponse", "QuasiDist", "Model")


class Tracer:
    """Aggregated spans: name -> [calls, total_s, self_s]; (parent, child) -> [calls, total_s]."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.edges: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """Return `fn` wrapped in a span called `name`."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        edges = self.edges

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    edge = edges.get((parent[0], name))
                    if edge is None:
                        edge = edges[(parent[0], name)] = [0, 0.0]
                    edge[0] += 1
                    edge[1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def to_json_dict(self) -> dict:
        return {
            "stats": self.stats,
            "edges": [[parent, child, *values] for (parent, child), values in self.edges.items()],
            "counters": self.counters,
        }

    def merge_json_dict(self, document: dict) -> None:
        """Add the spans another process recorded (see `to_json_dict`)."""
        for name, values in document["stats"].items():
            mine = self.stats.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                mine[i] += value
        for parent, child, calls, total in document["edges"]:
            mine = self.edges.setdefault((parent, child), [0, 0.0])
            mine[0] += calls
            mine[1] += total
        for name, value in document["counters"].items():
            self.count(name, value)


def _result_counters(tracer: Tracer) -> dict:
    """Counters read off results, keyed by span name."""

    def linprog(res) -> None:
        tracer.count("oracle.linprog.iterations", getattr(res, "nit", 0) or 0)
        tracer.count("oracle.linprog.optimal", 1 if res.status == 0 else 0)

    def signed_sample(estimate) -> None:
        tracer.count("oracle.signed_sample.shots", estimate.shots)

    return {"oracle.linprog": linprog, "oracle.signed_sample": signed_sample}


def install(tracer: Tracer):
    """Wrap the library in `tracer`'s spans; return a function that undoes it."""
    package = importlib.import_module("quasibell")
    modules = {layer: importlib.import_module(f"quasibell.{layer}") for layer in LAYERS}

    counters = _result_counters(tracer)
    targets = {"oracle.linprog": modules["oracle"].linprog}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if (
                isinstance(value, types.FunctionType)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
                and attr not in INNER_LOOP
            ):
                targets[f"{layer}.{attr}"] = value
    wrappers = {
        id(value): (value, tracer.wrap(name, value, on_result=counters.get(name)))
        for name, value in targets.items()
    }

    patched = []
    for namespace in (package, *modules.values()):
        for attr, value in list(vars(namespace).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(namespace, attr, hit[1])
                patched.append((namespace, attr, value))
    for class_name in CONSTRUCTED:
        cls = getattr(modules["core"], class_name)
        original = cls.__init__
        cls.__init__ = tracer.wrap("core.construct", original)
        patched.append((cls, "__init__", original))
        for attr, value in list(vars(cls).items()):
            if isinstance(value, classmethod) and not attr.startswith("_"):
                span = tracer.wrap(f"core.{class_name}.{attr}", value.__func__)
                setattr(cls, attr, classmethod(span))
                patched.append((cls, attr, value))

    def uninstall() -> None:
        for owner, attr, value in reversed(patched):
            setattr(owner, attr, value)

    return uninstall
