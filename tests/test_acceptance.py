"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import statistics
import time

from alphatree.binary import hu_tucker
from alphatree.core import is_alphabetic, tree_cost
from alphatree.harness import PAPER_FAMILY, bench_growth, fuzz_compare, random_instances
from alphatree.levels import signed_levels
from alphatree.oracle import dp_optimal, exhaustive_optimal
from alphatree.ternary import general_solve, solve_pure_ternary

SEVEN = (6, 6, 1, 10, 1, 6, 6)
FIFTEEN = (5, 5, 6, 6, 1, 10, 1, 11, 1, 10, 1, 6, 6, 5, 5)


def _median_runtime_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times) / 1e6


def test_acceptance_1_binary_baseline():
    report = hu_tucker((4, 2, 3, 4))
    assert report.cost == 26
    assert report.levels == (2, 2, 2, 2)
    assert report.trace.increments() == (5, 8, 13)
    assert report.tree.to_nested() == [[4, 2], [3, 4]]
    ms = _median_runtime_ms(lambda: hu_tucker((4, 2, 3, 4)), repeats=200)
    assert ms < 1.0, f"median runtime {ms:.3f} ms"
    print(f"ACCEPTANCE 1 PASS: binary baseline exact, median {ms:.3f} ms")


def test_acceptance_2_five_leaf_heavy_centre():
    ws = (1, 1, 100, 1, 1)
    cost, tree = dp_optimal(ws, (2, 3))
    report = general_solve(ws)
    assert cost == report.cost == 108
    assert tree.to_nested() == report.tree.to_nested() == [[1, 1], 100, [1, 1]]
    print("ACCEPTANCE 2 PASS: five-leaf example, both methods give 108 and the same tree")


def test_acceptance_3_seven_node_pure_ternary():
    trace = solve_pure_ternary(SEVEN).trace
    assert trace.increments() == (12, 14, 36)
    assert signed_levels(trace.prefix(1)) == (0, 0, 1, 1, 1, 0, 0)
    assert signed_levels(trace.prefix(2)) == (1, 1, 1, 0, 1, 1, 1)
    assert signed_levels(trace.prefix(3)) == (2, 2, 2, 1, 2, 2, 2)
    assert trace.total() == 62 == dp_optimal(SEVEN, (3,))[0]
    print("ACCEPTANCE 3 PASS: seven-leaf run exact, snapshots and total 62 match")


def test_acceptance_4_fifteen_node_example():
    trace = solve_pure_ternary(FIFTEEN).trace
    assert trace.increments() == (12, 12, 15, 17, 23, 39, 79)
    accordion_sums = [
        sum(p.sign * FIFTEEN[p.ref] for p in s.participants if p.role == "accordion-element")
        for s in trace.steps
        if s.accordion_span is not None and s.arity > 3
    ]
    assert accordion_sums == [3, 7]
    queue_steps = trace.steps[5:]
    assert {p.ref for p in queue_steps[0].participants} == {15, 16, 17}  # 12+12+15
    assert {p.ref for p in queue_steps[1].participants} == {18, 19, 20}  # 17+23+39
    assert [s.weight for s in queue_steps] == [39, 79]
    assert trace.total() == 197
    assert signed_levels(trace) == (2, 2, 3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 3, 2, 2)
    assert dp_optimal(FIFTEEN, (3,))[0] == 197
    ms = _median_runtime_ms(lambda: solve_pure_ternary(FIFTEEN), repeats=30)
    assert ms < 100.0, f"median runtime {ms:.2f} ms"
    print(f"ACCEPTANCE 4 PASS: fifteen-leaf run exact, total 197, median {ms:.2f} ms")


def test_acceptance_5_parity_examples():
    rng = random.Random(2024)
    for _ in range(50):
        a, b, c, d = sorted(rng.sample(range(1, 10_000), 4))
        report = general_solve((a, b, c, d))
        assert report.tree.to_nested() == [[a, b], c, d]
        assert report.cost == 2 * a + 2 * b + c + d
        assert report.cost == dp_optimal((a, b, c, d), (2, 3))[0]
    report = general_solve((1, 1, 100, 100, 1, 1))
    assert report.tree.to_nested() == [[1, 1, 100], 100, [1, 1]]
    assert report.cost == 308 == dp_optimal((1, 1, 100, 100, 1, 1), (2, 3))[0]
    print("ACCEPTANCE 5 PASS: 50 monotone quadruples and the six-leaf split example exact")


def test_acceptance_6_oracle_soundness():
    t0 = time.perf_counter()
    rng = random.Random(606)
    checked = 0
    for _ in range(1000):
        n = rng.randint(1, 9)
        ws = tuple(rng.randint(0, 50) for _ in range(n))
        for arities in ((2,), (3,), (2, 3)):
            if arities == (3,) and n % 2 == 0:
                continue
            assert dp_optimal(ws, arities)[0] == exhaustive_optimal(ws, arities)[0]
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    print(
        f"ACCEPTANCE 6 PASS: DP == exhaustive on {checked} instance/arity pairs "
        f"in {elapsed:.1f} s"
    )


def test_acceptance_7_property_suite():
    rng = random.Random(707)
    violations = 0
    for _ in range(2000):
        n = rng.randint(1, 13)
        ws = tuple(rng.randint(0, 100) for _ in range(n))
        report = general_solve(ws)
        ok = (
            is_alphabetic(report.tree)
            and tree_cost(report.tree, ws) == sum(report.tree.internal_weights())
            and report.cost == report.trace.total()
            and report.cost >= dp_optimal(ws, (2, 3))[0]
        )
        if not ok:
            violations += 1
    assert violations == 0
    print("ACCEPTANCE 7 PASS: 2000 random instances, zero property violations")


def test_acceptance_8_fidelity_measurement():
    instances = random_instances(
        range(3, 12), count=500, seed=808, odd_only=True, pcn_free=True,
        weight_lo=1, weight_hi=100,
    )
    summary = fuzz_compare(instances)
    again = fuzz_compare(instances)
    assert summary.to_json_obj() == again.to_json_obj()  # deterministic
    assert summary.violations == 0
    assert len(summary.records) == summary.instances - summary.equal
    for record in summary.records:
        assert record.gap > 0 and record.trace_digest
    paper = fuzz_compare(PAPER_FAMILY)
    assert paper.equality_rate == 1.0
    print(
        f"ACCEPTANCE 8 PASS: fidelity run deterministic; measured equality rate "
        f"{summary.equality_rate:.4f} on 500 light-pair-free odd instances; "
        f"reference family rate 1.0"
    )


def test_acceptance_9_complexity_probe():
    t0 = time.perf_counter()
    report = bench_growth([101, 201, 401, 801], seed=909, repeats=3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f} s"
    assert report.slope is not None
    candidates = [r.candidates for r in report.rows]
    assert candidates == sorted(candidates)
    print(
        f"ACCEPTANCE 9 PASS: sizes 101..801 in {elapsed:.1f} s, "
        f"log-log slope {report.slope:.2f}, candidate counts {candidates}"
    )
