"""Per-layer tracing for the benchmark, from the benchmark's own files.

The tracer replaces chosen alphatree functions and methods with wrappers
that record, per layer, the call count, the self time (the span's duration
minus the time its traced child spans cover) and which traced span called
it.  A function is replaced under every name an alphatree module binds it
to (``from .levels import reconstruct_from_levels`` makes a second binding
in ``alphatree.ternary``), so calls are caught whichever name the caller
resolves.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (home module, qualified name).  The layer is named "<module>.<qualname>".
LAYERS = (
    ("alphatree.ternary", "general_solve"),
    ("alphatree.ternary", "solve_pure_ternary"),
    ("alphatree.ternary", "detect_pcns"),
    ("alphatree.ternary", "EngineState.run"),
    ("alphatree.ternary", "EngineState.advance"),
    ("alphatree.ternary", "available_negatives"),
    ("alphatree.ternary", "EngineState.forest"),
    ("alphatree.levels", "reconstruct_from_levels"),
    ("alphatree.oracle", "dp_optimal"),
    ("alphatree.oracle", "exhaustive_optimal"),
    ("alphatree.binary", "hu_tucker"),
    ("alphatree.binary", "phase1_combine_binary"),
    ("alphatree.core", "tree_cost"),
    ("alphatree.core", "CombinationTrace.validate"),
    ("alphatree.harness", "check_report"),
)

# EngineState.stats keys summed over every finished or failed engine run.
ENGINE_COUNTERS = ("candidates", "queue_steps")

TOP = "bench"  # parent name of a span that no traced span encloses


def layer_name(module: str, qualname: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{qualname}"


LAYER_NAMES = tuple(layer_name(m, q) for m, q in LAYERS)


class Tracer:
    """Records per-layer self time, calls and callers while installed."""

    def __init__(self):
        self.self_s = {name: 0.0 for name in LAYER_NAMES}
        self.calls = {name: 0 for name in LAYER_NAMES}
        self.parents = {name: Counter() for name in LAYER_NAMES}
        self.counters = {key: 0 for key in ENGINE_COUNTERS}
        self._stack = []  # [layer name, time covered by traced children]
        self._restore = []  # (owner, attribute, original value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "alphatree" or name.startswith("alphatree.")]
        for (module, qualname), name in zip(LAYERS, LAYER_NAMES):
            owner = sys.modules[module]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, qualname == "EngineState.run")
            if path:  # a method: the class holds its only binding
                self._rebind(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, engine_run):
        stack = self._stack
        self_s, calls, parents, counters = self.self_s, self.calls, self.parents, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parents[name][stack[-1][0] if stack else TOP] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dt
                if engine_run:
                    stats = args[0].stats
                    for key in ENGINE_COUNTERS:
                        counters[key] += stats[key]

        return traced
