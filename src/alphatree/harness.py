"""Random-instance drivers: engine-vs-oracle comparison and growth benchmarks.

Divergences between the greedy engine and the DP optimum are data, not
failures: each one is captured as a record so the match rate can be measured.
An instance whose solve raises is captured too, as an error record, and the
run goes on.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from .binary import _combine as _combine_binary
from .core import _alphabetic, _leaves, _levels_and_cost, validate_weights
from .levels import report_from_trace
from .oracle import dp_optimal
from .ternary import _solve_pure_ternary, general_solve, is_interior_pair_pcn_free

PAPER_FAMILY = (
    (4, 2, 3, 4),
    (1, 2, 3, 4),
    (1, 1, 100, 1, 1),
    (1, 1, 100, 100, 1, 1),
    (6, 6, 1, 10, 1, 6, 6),
    (5, 5, 6, 6, 1, 10, 1, 11, 1, 10, 1, 6, 6, 5, 5),
)


def random_instances(
    sizes: Iterable[int] = range(1, 10),
    count: int = 100,
    seed: int = 0,
    dist: str = "uniform",  # uniform | monotone
    weight_lo: int = 0,
    weight_hi: int = 100,
    odd_only: bool = False,
    pcn_free: bool = False,
) -> List[tuple]:
    """Deterministic random instances: same arguments, same instances.

    Each instance's length is drawn from exactly the given ``sizes`` (order
    and repeats do not matter), keeping only odd ones if ``odd_only``.
    Out-of-range arguments raise ValueError before any draw."""
    sizes = set(sizes)
    if min(sizes, default=1) < 1:
        raise ValueError(f"sizes must be at least 1, got {min(sizes)}")
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    if weight_lo < 0:
        raise ValueError(f"weight_lo must be at least 0, got {weight_lo}")
    if weight_lo > weight_hi:
        raise ValueError(f"weight_lo {weight_lo} exceeds weight_hi {weight_hi}")
    if dist not in ("uniform", "monotone"):
        raise ValueError(f"unknown distribution {dist!r}")
    rng = random.Random(seed)
    pool = sorted(n for n in sizes if not odd_only or n % 2 == 1)
    if not pool:
        raise ValueError(f"sizes {sorted(sizes)} with odd_only={odd_only} leave no size to draw")
    if dist == "monotone" and weight_hi - weight_lo + 1 < pool[-1]:
        raise ValueError(
            f"monotone instances of size {pool[-1]} need {pool[-1]} distinct weights, "
            f"but weight_lo {weight_lo} to weight_hi {weight_hi} holds {weight_hi - weight_lo + 1}"
        )
    out = []
    for _ in range(count):
        n = rng.choice(pool)
        for _attempt in range(100_000):
            if dist == "monotone":
                ws = tuple(sorted(rng.sample(range(weight_lo, weight_hi + 1), n)))
            else:
                ws = tuple(rng.randint(weight_lo, weight_hi) for _ in range(n))
            if not pcn_free or is_interior_pair_pcn_free(ws):
                out.append(ws)
                break
        else:
            raise RuntimeError("could not sample an instance matching the filter")
    return out


@dataclass(frozen=True)
class DivergenceRecord:
    weights: tuple
    engine_cost: int
    oracle_cost: int
    gap: int
    trace_digest: str

    def to_json_obj(self) -> dict:
        return {
            "weights": list(self.weights),
            "engine_cost": self.engine_cost,
            "oracle_cost": self.oracle_cost,
            "gap": self.gap,
            "trace_digest": self.trace_digest,
        }


@dataclass(frozen=True)
class ErrorRecord:
    weights: tuple
    error_type: str
    message: str

    def to_json_obj(self) -> dict:
        return {"weights": list(self.weights), "type": self.error_type, "message": self.message}


@dataclass(frozen=True)
class FuzzSummary:
    instances: int
    equal: int
    max_gap: int
    violations: int
    records: tuple
    errors: tuple

    @property
    def equality_rate(self) -> float:
        return self.equal / self.instances if self.instances else 1.0

    def to_json_obj(self) -> dict:
        obj = {
            "instances": self.instances,
            "equal": self.equal,
            "equality_rate": self.equality_rate,
            "max_gap": self.max_gap,
            "violations": self.violations,
            "divergences": [r.to_json_obj() for r in self.records],
            "errors": [e.to_json_obj() for e in self.errors],
        }
        obj["digest"] = hashlib.sha256(
            json.dumps(obj, sort_keys=True).encode()
        ).hexdigest()
        return obj


def _trace_digest(report) -> str:
    payload = json.dumps(report.trace.to_json_obj(), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def check_report(report) -> List[str]:
    """Structural checks every engine output must satisfy; returns violations.
    One walk over the tree's leaves serves the order, weight, cost and level
    checks."""
    problems = []
    leaves = _leaves(report.tree)
    if not _alphabetic(leaves):
        problems.append("tree is not alphabetic")
    levels, cost = _levels_and_cost(leaves, validate_weights(report.weights))
    internal = sum(report.tree.internal_weights())
    if cost != internal:
        problems.append(f"weighted path length {cost} != internal weight sum {internal}")
    if cost != report.trace.total():
        problems.append(f"cost {cost} != trace increments {report.trace.total()}")
    if levels != report.levels:
        problems.append("levels do not match the tree")
    binary_nodes = sum(1 for a in report.tree.arities() if a == 2)
    if binary_nodes % 2 != (len(report.weights) - 1) % 2:
        problems.append("binary node count has the wrong parity")
    return problems


def fuzz_compare(instances: Sequence[Sequence[int]]) -> FuzzSummary:
    """Run the general engine and the DP oracle over each instance and
    summarise agreement.  Every strict gap becomes a DivergenceRecord, and
    every instance whose solve raises an ErrorRecord; either way the run
    goes on to the next instance."""
    equal = 0
    max_gap = 0
    violations = 0
    records = []
    errors = []
    for ws in instances:
        ws = validate_weights(ws)
        try:
            report = general_solve(ws)
            oracle_cost, _tree = dp_optimal(ws, (2, 3))
        except Exception as exc:  # recorded, with its input; the run goes on
            errors.append(ErrorRecord(ws, type(exc).__name__, str(exc)))
            continue
        gap = report.cost - oracle_cost
        problems = check_report(report)
        if gap < 0:
            problems.append("engine cost below the optimum")
        violations += len(problems)
        if gap == 0:
            equal += 1
        else:
            records.append(
                DivergenceRecord(ws, report.cost, oracle_cost, gap, _trace_digest(report))
            )
        max_gap = max(max_gap, gap)
    return FuzzSummary(
        len(instances), equal, max_gap, violations, tuple(records), tuple(errors)
    )


# ---------------------------------------------------------------------------
# Growth benchmark


@dataclass(frozen=True)
class BenchRow:
    n: int
    median_ns: int
    steps: int
    candidates: int


@dataclass(frozen=True)
class BenchReport:
    engine: str
    rows: tuple
    slope: Optional[float]

    def to_csv(self) -> str:
        lines = ["n,median_ns,steps,candidates"]
        lines.extend(
            f"{r.n},{r.median_ns},{r.steps},{r.candidates}" for r in self.rows
        )
        return "\n".join(lines) + "\n"


def _median(values):
    vs = sorted(values)
    return vs[len(vs) // 2]


def _loglog_slope(points) -> Optional[float]:
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 1 and t > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def bench_growth(
    ns: Sequence[int],
    seed: int = 0,
    engine: str = "ternary",
    repeats: int = 3,
) -> BenchReport:
    """Per-size timing and operation counts for one engine.

    Weights are drawn from 50..99, a band that keeps adjacent-pair sums
    above every single weight, so no permanent runs appear and the ternary
    engine exercises its combination phase directly.  ``candidates`` counts
    the candidate steps the ternary scan weighs, or the window keys the
    binary combination computes.  The slope is a least-squares fit of
    log(time) against log(n).
    """
    if engine not in ("ternary", "binary"):
        raise ValueError(f"unknown engine {engine!r}")
    if min(ns, default=1) < 1:
        raise ValueError(f"sizes must be at least 1, got {min(ns)}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    even = [n for n in ns if n % 2 == 0]
    if engine == "ternary" and even:
        raise ValueError(f"the ternary combination benchmark needs odd sizes, got {even}")
    rows = []
    for n in ns:
        rng = random.Random(seed * 1_000_003 + n)
        ws = tuple(rng.randint(50, 99) for _ in range(n))
        times = []
        steps = candidates = 0
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            if engine == "ternary":
                report, stats = _solve_pure_ternary(ws)
                steps = len(report.trace.steps)
                candidates = stats["candidates"]
            else:
                trace, candidates = _combine_binary(ws)
                report = report_from_trace("hu-tucker", trace, ws)
                steps = len(report.trace.steps)
            times.append(time.perf_counter_ns() - t0)
        rows.append(BenchRow(n, _median(times), steps, candidates))
    slope = _loglog_slope([(r.n, r.median_ns) for r in rows])
    return BenchReport(engine, tuple(rows), slope)

