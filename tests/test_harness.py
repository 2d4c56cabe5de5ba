import itertools
import json

import pytest

from alphatree.harness import (
    PAPER_FAMILY,
    InstanceSpec,
    bench_growth,
    check_report,
    fuzz_compare,
)
from alphatree.ternary import general_solve, is_interior_pair_pcn_free


class TestInstanceSpec:
    def test_same_seed_same_instances(self):
        spec = InstanceSpec(n_min=2, n_max=8, count=25, seed=99)
        assert spec.generate() == spec.generate()

    def test_odd_only_and_pcn_free(self):
        spec = InstanceSpec(
            n_min=3, n_max=11, count=40, seed=5, odd_only=True, pcn_free=True
        )
        for ws in spec.generate():
            assert len(ws) % 2 == 1
            assert is_interior_pair_pcn_free(ws)

    def test_monotone(self):
        spec = InstanceSpec(n_min=4, n_max=4, count=10, seed=1, dist="monotone")
        for ws in spec.generate():
            assert all(a < b for a, b in zip(ws, ws[1:]))


class TestFuzzCompare:
    def test_paper_family_always_matches(self):
        summary = fuzz_compare(instances=PAPER_FAMILY)
        assert summary.equality_rate == 1.0
        assert summary.records == ()
        assert summary.violations == 0

    def test_tiny_exhaustive_family(self):
        instances = []
        for n in (1, 2, 3):
            instances.extend(itertools.product((1, 2, 3), repeat=n))
        summary = fuzz_compare(instances=instances)
        assert summary.instances == 3 + 9 + 27
        assert all(r.gap >= 0 for r in summary.records)
        assert summary.violations == 0

    def test_deterministic_given_seed(self):
        spec = InstanceSpec(n_min=1, n_max=9, count=60, seed=17)
        a = fuzz_compare(spec).to_json_obj()
        b = fuzz_compare(spec).to_json_obj()
        assert a == b
        assert a["digest"] == b["digest"]

    def test_summary_json_shape(self):
        summary = fuzz_compare(InstanceSpec(n_min=1, n_max=6, count=10, seed=3))
        obj = json.loads(json.dumps(summary.to_json_obj()))
        assert set(obj) >= {
            "instances", "equal", "equality_rate", "max_gap", "divergences", "errors", "digest",
        }

    def test_an_error_is_recorded_and_the_run_goes_on(self):
        # the crossing-circle EngineError, between two instances that solve
        crash = (31, 1, 47, 30, 45, 15, 75, 1, 92, 60, 94, 74, 42, 89, 66)
        summary = fuzz_compare(instances=[PAPER_FAMILY[0], crash, PAPER_FAMILY[1]])
        assert (summary.instances, summary.equal, summary.records) == (3, 2, ())
        (error,) = summary.to_json_obj()["errors"]
        assert error["weights"] == list(crash)
        assert error["type"] == "EngineError"
        assert error["message"].startswith("cannot realise forest")


class TestCheckReport:
    def test_clean_report_passes(self):
        assert check_report(general_solve((6, 6, 1, 10, 1, 6, 6))) == []


class TestBenchGrowth:
    def test_tiny_run(self):
        report = bench_growth([9, 17], seed=2, repeats=1)
        assert [r.n for r in report.rows] == [9, 17]
        assert all(r.steps > 0 for r in report.rows)
        assert all(r.median_ns > 0 for r in report.rows)
        assert isinstance(report.slope, float)

    def test_single_leaf_has_zero_steps(self):
        report = bench_growth([1], seed=2, repeats=1)
        assert report.rows[0].steps == 0

    def test_csv_shape(self):
        report = bench_growth([5, 9, 13], seed=4, repeats=1)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "n,median_ns,steps,candidates"
        assert len(lines) == 4

    def test_pinned_steps_and_candidate_counts(self):
        report = bench_growth([101, 201, 401], seed=909, repeats=1)
        assert tuple(r.steps for r in report.rows) == (50, 100, 200)
        assert tuple(r.candidates for r in report.rows) == (3819, 15514, 64404)

    def test_binary_engine(self):
        report = bench_growth([50, 100], seed=3, engine="binary", repeats=1)
        assert [r.steps for r in report.rows] == [49, 99]

    def test_binary_counts_the_window_keys_computed(self):
        # n - 1 windows at the start, then one per step for the gap it
        # changes, except after the last step, which leaves one node
        report = bench_growth([1, 2, 3, 50, 100], seed=3, engine="binary", repeats=1)
        assert [r.candidates for r in report.rows] == [0, 1, 3, 97, 197]

    def test_even_sizes_rejected_for_ternary(self):
        with pytest.raises(ValueError):
            bench_growth([10], seed=0)
