"""One fresh-interpreter pass over a benchmark workload.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE ``setup`` imports alphatree from the checkout's ``src/`` and generates
the workload's instances, then prints a digest of the inputs.  MODE ``plain``
and ``traced`` also solve and check every instance once, the latter with the
per-layer tracer installed, and print the pass as one JSON object.  run.py
starts this script once per pass, so every pass starts from a fresh process
(no warm caches from an earlier pass) and ``setup`` times what every CLI
invocation pays.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import alphatree  # noqa: E402  (needs the path above)
from alphatree import binary, core, harness, oracle, ternary  # noqa: E402
from calibration import SpeedSampler  # noqa: E402

# general_solve raises EngineError on this input, the shrunk crash of
# `alphatree fuzz --n 15..31 --count 100 --seed 2`.  It is pinned so that a
# fix shows as a lower failure count on fuzz-general.
PINNED_FUZZ = ((29, 6, 44, 13, 50, 2, 72, 14, 95, 33, 45, 70, 43, 54, 29, 5, 17, 21, 16, 93),)


def _grid(lo, hi, count):
    """``count`` evenly spaced sizes from lo to hi."""
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def _weights(rng, n, lo, hi):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def generate(workload: str, seed: int) -> list:
    """The workload's instances as (kind, weights) pairs; a function of the
    workload name and seed only."""
    rng = random.Random(f"{workload}:{seed}")
    # Sizes are fixed and the seed draws the weights.  The solvers' times
    # depend mostly on n, so jittered sizes would make the percentiles move
    # from seed to seed for no reason in the code.
    if workload == "pure-ternary":
        # Weights 50..99: every adjacent pair outweighs any leaf, so there
        # are no permanent runs and the combination loop is all the work.
        return [("pure-ternary", _weights(rng, 2 * (n // 2) + 1, 50, 99))
                for n in _grid(101, 401, 40)]
    if workload == "fuzz-general":
        # Many instances of moderate size: the tail percentile and the growth
        # slope rest on the slowest instances, which only repeat from seed to
        # seed when a run holds a few hundred.  Larger n would leave room for
        # fewer.
        return [("fuzz", _weights(rng, n, 0, 100)) for n in range(13, 21) for _ in range(54)] + [
            ("fuzz", ws) for ws in PINNED_FUZZ
        ]
    if workload == "oracles":
        # Most instances are exhaustive ones of like size, so the median
        # instance falls among them, not on a border between two solvers.
        return (
            [("dp", _weights(rng, n, 0, 100)) for n in _grid(60, 140, 7)]
            + [("exhaustive", _weights(rng, n, 0, 100)) for n in [9] * 10 + [10] * 5 + [11] * 15]
            + [("hu-tucker", _weights(rng, n, 0, 100)) for n in _grid(800, 1600, 3)]
        )
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# One instance: the user-facing solver call (timed), then its checks.  Every
# call goes through a module attribute so the tracer's wrappers see it.
# Each runner returns (solve seconds, outputs, engine-minus-optimum gap or
# None, problems).


def _dp_problems(ws, cost, tree):
    problems = []
    if core.tree_cost(tree, ws) != cost:
        problems.append("DP tree cost differs from the DP cost")
    if not core.is_alphabetic(tree):
        problems.append("DP tree is not alphabetic")
    return problems


def _run_pure_ternary(ws):
    t0 = time.perf_counter()
    report = ternary.solve_pure_ternary(ws)
    solve_s = time.perf_counter() - t0
    return solve_s, [[report.cost, report.levels]], None, harness.check_report(report)


def _run_fuzz(ws):
    t0 = time.perf_counter()
    report = harness.general_solve(ws)
    solve_s = time.perf_counter() - t0
    opt, tree = harness.dp_optimal(ws, (2, 3))
    problems = _dp_problems(ws, opt, tree) + harness.check_report(report)
    gap = report.cost - opt
    if gap < 0:
        problems.append(f"engine cost {report.cost} below the DP optimum {opt}")
    return solve_s, [[report.cost, report.levels], [opt]], gap, problems


def _run_dp(ws):
    t0 = time.perf_counter()
    cost, tree = oracle.dp_optimal(ws, (2, 3))
    solve_s = time.perf_counter() - t0
    problems = _dp_problems(ws, cost, tree)
    ht = binary.hu_tucker(ws)
    bcost, btree = oracle.dp_optimal(ws, (2,))
    problems += _dp_problems(ws, bcost, btree) + harness.check_report(ht)
    if ht.cost != bcost:
        problems.append(f"hu_tucker cost {ht.cost} differs from the binary DP optimum {bcost}")
    if cost > bcost:
        problems.append(f"mixed-arity optimum {cost} above the binary optimum {bcost}")
    outputs = [[cost, core.leaf_levels(tree)], [ht.cost, ht.levels], [bcost]]
    return solve_s, outputs, ht.cost - bcost, problems


def _run_exhaustive(ws):
    t0 = time.perf_counter()
    cost, count = oracle.exhaustive_optimal(ws, (2, 3))
    solve_s = time.perf_counter() - t0
    dcost, tree = oracle.dp_optimal(ws, (2, 3))
    problems = _dp_problems(ws, dcost, tree)
    if dcost != cost:
        problems.append(f"DP cost {dcost} differs from exhaustive enumeration {cost}")
    return solve_s, [[cost, count], [dcost, core.leaf_levels(tree)]], None, problems


def _run_hu_tucker(ws):
    t0 = time.perf_counter()
    report = binary.hu_tucker(ws)
    solve_s = time.perf_counter() - t0
    return solve_s, [[report.cost, report.levels]], None, harness.check_report(report)


RUNNERS = {
    "pure-ternary": _run_pure_ternary,
    "fuzz": _run_fuzz,
    "dp": _run_dp,
    "exhaustive": _run_exhaustive,
    "hu-tucker": _run_hu_tucker,
}


def run_pass(instances, tracer=None) -> dict:
    """Solve and check every instance once.  An exception fails its instance
    and the pass goes on; it is recorded with its type and message.  Times
    are in reference-speed seconds (see calibration.py)."""
    rows, outputs, problems, failures = [], [], [], []
    layer_s = dict.fromkeys(tracer.self_s, 0.0) if tracer else {}
    t_pass = time.perf_counter()
    with SpeedSampler() as speed:
        for index, (kind, ws) in enumerate(instances):
            row = {"kind": kind, "n": len(ws), "solve_s": None, "gap": None, "error": None}
            before = dict(tracer.self_s) if tracer else {}
            speed.start()
            t0 = time.perf_counter()
            try:
                row["solve_s"], out, row["gap"], found = RUNNERS[kind](ws)
            except Exception as exc:  # the instance fails; the benchmark goes on
                row["error"] = type(exc).__name__
                out = f"{type(exc).__name__}: {exc}"
                failures.append({"index": index, "kind": kind, "weights": list(ws), "error": out})
                found = []
            raw_s = time.perf_counter() - t0
            row["scale"] = speed.scale()
            row["total_s"] = raw_s * row["scale"]
            if row["solve_s"] is not None:
                row["solve_s"] *= row["scale"]
            for name, start in before.items():
                layer_s[name] += (tracer.self_s[name] - start) * row["scale"]
            rows.append(row)
            outputs.append(out)
            problems.extend(f"instance {index} ({kind}, n={len(ws)}): {p}" for p in found)
    result = {
        "wall_s": sum(row["total_s"] for row in rows),
        "measured_wall_s": time.perf_counter() - t_pass,
        "digest": _digest(outputs),
        "instances": rows,
        "problems": problems,
        "failures": failures,
    }
    if tracer:
        result["layers"] = {
            name: {
                "self_s": layer_s[name],
                "calls": tracer.calls[name],
                "parents": dict(tracer.parents[name]),
            }
            for name in tracer.self_s
        }
        result["counters"] = dict(tracer.counters)
    return result


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if Path(alphatree.__file__).resolve().parent.parent != SRC:
        print(f"error: imported alphatree from {alphatree.__file__}, not {SRC}", file=sys.stderr)
        return 2
    instances = generate(workload, seed)
    if mode == "setup":
        print(json.dumps({"inputs": _digest(instances), "count": len(instances)}))
        return 0
    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        result = run_pass(instances, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["inputs"] = _digest(instances)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
