"""In-memory span tracing around pfsnet's public cross-module functions.

The tracer patches functions from outside the program: every module attribute
that holds a traced function is replaced by a wrapper, so the names that
importing modules re-bind (``gadgets.solve_at_k``, ``cli.solve_at_k``,
``solver.validate``, ``tiling.canonicalize`` ...) are traced too.  Spans are
aggregated per name as they close: call count and self seconds (the span's
duration minus the time covered by its child spans).  Counters record
exact work sizes taken from return values.
"""

from __future__ import annotations

import inspect
import time
from typing import Callable, Optional

# (module, function) pairs whose calls become spans; every public function of
# pfsnet.families is added at install time and reported as one layer.
TRACED = (
    ("solver", "solve_at_k"),
    ("solver", "verify_scheme"),
    ("solver", "derive_decodings"),
    ("model", "validate"),
    ("model", "canonicalize"),
    ("model", "serialize"),
    ("model", "deserialize"),
    ("entropy", "check"),
    ("gadgets", "accepted_set"),
    ("gadgets", "entropy_accepted_set"),
    ("gadgets", "compose"),
    ("tiling", "reduce"),
    ("tiling", "torus_bruteforce"),
    ("indexcoding", "confusion_graph"),
    ("indexcoding", "chromatic_leq"),
    ("cli", "run"),
)

MODULES = ("model", "entropy", "solver", "gadgets", "families", "tiling", "indexcoding", "cli")


def _count_solve(outcome) -> dict:
    done = "solver.exhausted" if outcome.status.value == "budget-exhausted" else "solver.decided"
    return {"solver.trials": outcome.searched, done: 1}


# exact counters read off return values: span name -> result -> increments
COUNTERS: dict = {
    "solver.solve_at_k": _count_solve,
    "tiling.reduce": lambda net: {"tiling.reduce.edges": len(net.edges)},
    # serialize emits ASCII-only JSON, so characters are bytes
    "model.serialize": lambda text: {"model.serialize.bytes": len(text)},
    "indexcoding.confusion_graph": lambda graph: {"indexcoding.vertices": graph.n},
}
COUNTER_NAMES = ("solver.trials", "solver.exhausted", "solver.decided",
                 "tiling.reduce.edges", "model.serialize.bytes", "indexcoding.vertices")


class Tracer:
    """Aggregated spans and counters; ``enabled`` gates recording so that the
    benchmark's own reference checks stay out of the figures."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: dict = {}  # name -> [calls, self seconds]
        self.counts: dict = {name: 0 for name in COUNTER_NAMES}
        self._stack: list = []  # child seconds of each open span

    def reset(self) -> None:
        self.spans = {}
        self.counts = {name: 0 for name in COUNTER_NAMES}

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += took
                span = self.spans.setdefault(name, [0, 0.0])
                span[0] += 1
                span[1] += took - children
            if count is not None:
                for counter, n in count(result).items():
                    self.counts[counter] += n
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, package) -> None:
        """Patch every attribute of pfsnet's modules that holds a traced function."""
        modules = {name: getattr(package, name) for name in MODULES}
        targets = list(TRACED)
        families = modules["families"]
        targets += [("families", n) for n, f in vars(families).items()
                    if inspect.isfunction(f) and f.__module__ == families.__name__
                    and not n.startswith("_")]
        wrappers = {}
        for mod, fn_name in targets:
            fn = getattr(modules[mod], fn_name)
            name = f"{mod}.{fn_name}"
            wrappers[id(fn)] = (fn, self._wrap(name, fn, COUNTERS.get(name)))
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def self_seconds(self, prefix: str) -> float:
        """Self seconds summed over every span whose name starts with prefix."""
        return sum((s[1] for name, s in self.spans.items() if name.startswith(prefix)), 0.0)

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0])[0]

    def exact(self) -> dict:
        """The counts that must repeat exactly for one seed."""
        out = dict(self.counts)
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span[0]
        return out
