"""Regenerate perfbench/BENCH_baseline.json.

    python3 perfbench/record_baseline.py

Runs ``perfbench/run.py`` at seed 1 and BENCHMARK.json's ``run_seconds``,
once untraced and once traced on every workload, one after another, from the
root of the checkout, and writes both results with the environment.  run.py
compares later runs of the same workload and seed against the output digest
and operation counts recorded here.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

SEED = 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    seconds = json.loads(run.DECLARED.read_text())["run_seconds"]
    runs = {}
    for workload in run.WORKLOADS:
        report, result = bench(workload, SEED, seconds, 0)
        traced_report, traced = bench(workload, SEED, seconds, 1)
        runs[workload] = {
            "seed": SEED,
            "correct": result["correct"] and traced["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "end_to_end": result["metrics"],
            "per_layer": traced["metrics"],
            "output_digest": report["output_digest"],
            "counts": traced_report["counts"],
            **{key: report[key] for key in ("instances", "tail", "quality", "gaps",
                                            "failures", "unscaled", "passes")},
        }
    env = run.environment()
    env["cpu_model"] = cpu_model()
    baseline = {
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} "
                   f"--seconds {seconds} --trace 0|1",
        "environment": env,
        "runs": runs,
    }
    run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
