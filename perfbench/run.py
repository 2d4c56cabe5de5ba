"""alphatree benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it solves with the checkout's ``src/``.
The seed fixes the instances; README.md says what each workload holds and
why it was chosen:

    pure-ternary   solve_pure_ternary, 40 instances, odd n 101..401
    fuzz-general   general_solve + DP + check_report, 54 instances at each
                   n in 13..20 plus a pinned EngineError reproducer
    oracles        dp_optimal (n 60..140), exhaustive_optimal (n 9..11),
                   hu_tucker (n 800..1600), each checked against another oracle

Every pass over the instances runs in a fresh interpreter (worker.py), one
at a time.  Passes repeat while another one still fits in the ``--seconds``
counted from the start of the run, set-up included; there is always at
least one.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
spends the first half of the remaining time on untraced passes and the
second on traced passes, and prints the per-layer metrics.  Times are in
reference-speed seconds (calibration.py); the report also gives the raw
ones.

Before the last line comes one JSON line with details: failures with their
inputs, gaps to the optimum, the tail percentile and sample count, output
digest, operation counts and callers of each layer, and whether outputs and
counts repeat the recorded baseline.  The last line is ``{"correct",
"attempted", "failed", "metrics"}``; ``failed`` counts instances whose solver
raised.

Exit codes: 0 ran and every check held; 1 a correctness check failed (the
result is still printed, with ``correct`` false); 2 the benchmark could not
run (no ``src/alphatree`` here, or a pass crashed), with no result printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import scale_around

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
BASELINE = BENCH / "BENCH_baseline.json"
DECLARED = ROOT / "BENCHMARK.json"

WORKLOADS = ("pure-ternary", "fuzz-general", "oracles")
# Instance kind whose times give growth_slope: the DP alone on oracles,
# since one fit across three different solvers has no meaning.
SLOPE_KIND = {"pure-ternary": "pure-ternary", "fuzz-general": "fuzz", "oracles": "dp"}
SETUP_REPEATS = 11
CLI_REPEATS = 5
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
MIN_BEYOND_TAIL = 10
COVERAGE_TOLERANCE = 0.05  # traced per-layer self times must cover >= 95% of traced wall_s
# The user-facing entry points with traced layers below them: their self
# time is the work inside them that no finer layer claims.
ENTRY_LAYERS = ("ternary.general_solve", "ternary.solve_pure_ternary", "binary.hu_tucker")
PASS_MARGIN = 1.2  # a pass may take this much longer than the slowest one so far
RUN_LIMIT_S = 170  # every child is killed and waited for before this


class BenchFailure(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "alphatree" / "__init__.py").is_file():
        print(f"error: no alphatree package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        report, result = run(args, deadline)
    except BenchFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def run(args, deadline):
    end = time.perf_counter() + args.seconds
    setup_cmd = [str(WORKER), args.workload, str(args.seed), "setup"]
    _child(setup_cmd, deadline)  # warm-up: file cache and, where allowed, bytecode
    setup = [_probe(setup_cmd, deadline) for _ in range(SETUP_REPEATS)]
    inputs = {json.loads(out)["inputs"] for _, _, out in setup}
    cli = _cli_probes(deadline) if args.trace else {}
    if args.trace:
        plain = _passes(args, "plain", (time.perf_counter() + end) / 2, deadline)
        traced = _passes(args, "traced", end, deadline)
    else:
        plain, traced = _passes(args, "plain", end, deadline), []

    setup_s = _scaled_median(setup)
    cli = {name: _scaled_median(probes) for name, probes in cli.items()}

    violations = [p for ps in plain + traced for p in ps["problems"]]
    inputs |= {ps["inputs"] for ps in plain + traced}
    if len(inputs) != 1:
        violations.append("instance generation differs between interpreters")
    digests = {ps["digest"] for ps in plain + traced}
    if len(digests) != 1:
        violations.append("outputs differ between passes (digests %s)" % sorted(digests))
    e2e = _end_to_end(args.workload, plain, setup_s)
    rows = plain[0]["instances"]
    attempted, failed = len(rows), sum(1 for r in rows if r["error"])
    for ps in plain + traced:
        if [r["error"] for r in ps["instances"]] != [r["error"] for r in rows]:
            violations.append("instance failures differ between passes")
            break
    compared = [r["gap"] for r in rows if r["gap"] is not None]
    quality = {
        "failed_frac": failed / attempted,
        "optimal_frac": sum(1 for g in compared if g == 0) / len(compared) if compared else 1.0,
        "compared": len(compared),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs_digest": inputs.pop() if len(inputs) == 1 else sorted(inputs),
        "output_digest": digests.pop() if len(digests) == 1 else sorted(digests),
        "passes": {"plain": len(plain), "traced": len(traced)},
        "instances": _kind_sizes(rows),
        "tail": e2e.pop("tail"),
        "quality": quality,
        "gaps": sorted(g for g in compared if g),
        "failures": plain[0]["failures"],
        "end_to_end": e2e,
        "unscaled": {
            "setup_s": statistics.median(wall for wall, _, _ in setup),
            "wall_s": statistics.median(ps["measured_wall_s"] for ps in plain),
            **e2e.pop("unscaled"),
        },
    }
    if args.trace:
        layers, counts = _per_layer(plain, traced, cli, quality, violations)
        report["per_layer"] = layers
        report["counts"] = counts
        metrics = layers
    else:
        metrics = e2e
    _check_declared(metrics, "per_layer" if args.trace else "end_to_end")
    report["baseline"] = _compare_baseline(args, report)
    report["violations"] = violations
    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


# ---------------------------------------------------------------------------
# Children


def _child(cmd, deadline):
    """Run one Python child to completion; returns (wall seconds, stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *cmd], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchFailure(f"{' '.join(cmd)} ran past the time limit") from exc
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchFailure(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return wall, proc.stdout


def _passes(args, mode, until, deadline):
    """Fresh-interpreter passes while another one, as slow as the slowest so
    far plus a margin, ends before ``until`` (a ``time.perf_counter()``
    reading); at least one."""
    out, slowest = [], 0.0
    while True:
        wall, stdout = _child([str(WORKER), args.workload, str(args.seed), mode], deadline)
        out.append(json.loads(stdout))
        slowest = max(slowest, wall)
        if time.perf_counter() + PASS_MARGIN * slowest > until:
            return out


def _probe(cmd, deadline):
    """(raw wall seconds, reference-speed factor, stdout) of one child."""
    raw, scale, (_, out) = scale_around(lambda: _child(cmd, deadline))
    return raw, scale, out


def _scaled_median(probes):
    return statistics.median(raw * scale for raw, scale, _ in probes)


def _cli_probes(deadline):
    """Cold start of the CLI and the bare package import, each probed in
    fresh interpreters: {metric name: probes}."""
    solve = ["-m", "alphatree", "solve", "--emit", "levels", "4 2 3 4"]
    _child(solve, deadline)  # warm-up
    cold = [_probe(solve, deadline) for _ in range(CLI_REPEATS)]
    for _, _, out in cold:
        if not out.splitlines()[-1].startswith("cost "):
            raise BenchFailure(f"unexpected CLI output {out!r}")
    # Only the import is timed here, from inside the child.
    timed_import = "import time; t = time.perf_counter(); import alphatree; print(time.perf_counter() - t)"
    imports = []
    for _ in range(CLI_REPEATS):
        _, scale, out = _probe(["-c", timed_import], deadline)
        imports.append((float(out), scale, out))
    return {"cli.cold_start_s": cold, "cli.import_s": imports}


# ---------------------------------------------------------------------------
# Metrics


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _solve_times(plain, scaled):
    """Per instance: the median over passes of its solver-call time, in
    reference-speed or raw seconds; None where the instance failed."""
    return [
        None if row["error"] else statistics.median(
            ps["instances"][i]["solve_s"] / (1 if scaled else ps["instances"][i]["scale"])
            for ps in plain)
        for i, row in enumerate(plain[0]["instances"])
    ]


def _end_to_end(workload, plain, setup_s):
    rows = plain[0]["instances"]
    times = _solve_times(plain, scaled=True)
    ok = sorted(t for t in times if t is not None)
    raw = sorted(t for t in _solve_times(plain, scaled=False) if t is not None)
    n = len(ok)
    pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= MIN_BEYOND_TAIL), None)
    if pct is None:
        raise BenchFailure(f"{n} timed instances are too few for a tail percentile")
    tail = math.ceil(pct / 100 * n) - 1
    fit = [(row["n"], t) for row, t in zip(rows, times)
           if t is not None and row["kind"] == SLOPE_KIND[workload]]
    if len({n for n, _ in fit}) < 2:
        raise BenchFailure("too few timed sizes for a growth slope")
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(statistics.median(ps["wall_s"] for ps in plain), "s"),
        "solve_s_p50": _metric(statistics.median(ok), "s"),
        "solve_s_tail": _metric(ok[tail], "s"),
        "growth_slope": _metric(_loglog_slope(fit), "1"),
        "peak_rss_mb": _metric(statistics.median(ps["maxrss_mb"] for ps in plain), "MB"),
        "tail": {"percentile": pct, "samples": n, "beyond": n - 1 - tail},
        "unscaled": {"solve_s_p50": statistics.median(raw), "solve_s_tail": raw[tail]},
    }


def _loglog_slope(points):
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _per_layer(plain, traced, cli, quality, violations):
    names = list(traced[0]["layers"])
    layers = {}
    for name in names:
        layers[f"{name}.self_s"] = _metric(
            statistics.median(ps["layers"][name]["self_s"] for ps in traced), "s")
        layers[f"{name}.calls"] = _metric(traced[0]["layers"][name]["calls"], "count")
    for key in ("candidates", "queue_steps"):
        layers[f"ternary.{key}"] = _metric(traced[0]["counters"][key], "count")
    layers["ternary.errors"] = _metric(
        sum(1 for r in traced[0]["instances"] if r["error"] == "EngineError"), "count")
    for key, value in cli.items():
        layers[key] = _metric(value, "s")
    traced_wall = statistics.median(ps["wall_s"] for ps in traced)
    plain_wall = statistics.median(ps["wall_s"] for ps in plain)
    covered = statistics.median(sum(l["self_s"] for l in ps["layers"].values()) for ps in traced)
    layers["trace.overhead_s"] = _metric(traced_wall - plain_wall, "s")
    layers["trace.coverage"] = _metric(covered / traced_wall, "fraction")
    layers["trace.entry_self_share"] = _metric(statistics.median(
        sum(ps["layers"][name]["self_s"] for name in ENTRY_LAYERS) / ps["wall_s"]
        for ps in traced), "fraction")
    layers["quality.failed_frac"] = _metric(quality["failed_frac"], "fraction")
    layers["quality.optimal_frac"] = _metric(quality["optimal_frac"], "fraction")

    counts = {k: v["value"] for k, v in layers.items() if v["unit"] == "count"}
    counts["callers"] = {name: traced[0]["layers"][name]["parents"] for name in names}
    for ps in traced[1:]:
        again = {f"{name}.calls": ps["layers"][name]["calls"] for name in names}
        again.update({f"ternary.{k}": v for k, v in ps["counters"].items()})
        if any(counts[k] != v for k, v in again.items()):
            violations.append("operation counts differ between traced passes")
            break
    if not 1 - COVERAGE_TOLERANCE <= layers["trace.coverage"]["value"] <= 1 + 1e-9:
        violations.append(
            "per-layer self times cover %.3f of traced wall_s, outside the tolerance %.2f"
            % (layers["trace.coverage"]["value"], COVERAGE_TOLERANCE))
    return layers, counts


def _check_declared(metrics, key):
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    declared = {m["name"]: m["unit"] for m in json.loads(DECLARED.read_text())[key]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if printed != declared:
        raise BenchFailure(f"metrics {sorted(printed.items())} differ from the {key} "
                           f"list in {DECLARED.name}: {sorted(declared.items())}")


def _kind_sizes(rows):
    kinds = {}
    for row in rows:
        kind, n = row["kind"], row["n"]
        k = kinds.setdefault(kind, {"count": 0, "n_min": n, "n_max": n})
        k["count"] += 1
        k["n_min"], k["n_max"] = min(k["n_min"], n), max(k["n_max"], n)
    return kinds


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def _compare_baseline(args, report):
    """Whether outputs and operation counts repeat the recorded baseline run
    of the same workload and seed.  Informational: a change that alters
    behaviour on purpose differs here without failing the run."""
    if not BASELINE.is_file():
        return {"recorded": False}
    recorded = json.loads(BASELINE.read_text()).get("runs", {}).get(args.workload, {})
    if recorded.get("seed") != args.seed:
        return {"recorded": False}
    out = {"recorded": True, "same_outputs": recorded["output_digest"] == report["output_digest"]}
    if "counts" in report:
        out["same_counts"] = recorded["counts"] == report["counts"]
    return out


if __name__ == "__main__":
    sys.exit(main())
