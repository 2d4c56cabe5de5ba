import dataclasses
import itertools
import json

import pytest

from alphatree import harness
from alphatree.binary import hu_tucker
from alphatree.harness import (
    PAPER_FAMILY,
    bench_growth,
    check_report,
    fuzz_compare,
    random_instances,
)
from alphatree.ternary import general_solve, is_interior_pair_pcn_free


class TestRandomInstances:
    def test_same_seed_same_instances(self):
        assert random_instances(range(2, 9), count=25, seed=99) == random_instances(
            range(2, 9), count=25, seed=99
        )

    def test_odd_only_and_pcn_free(self):
        for ws in random_instances(range(3, 12), count=40, seed=5, odd_only=True, pcn_free=True):
            assert len(ws) % 2 == 1
            assert is_interior_pair_pcn_free(ws)

    def test_monotone(self):
        for ws in random_instances([4], count=10, seed=1, dist="monotone"):
            assert all(a < b for a, b in zip(ws, ws[1:]))

    def test_monotone_refuses_a_range_narrower_than_the_size(self):
        # strictly increasing weights need as many values as the largest
        # size; a range that holds exactly that many still draws
        with pytest.raises(ValueError, match="weight_hi 12 holds 3"):
            random_instances([3, 5], count=2, seed=1, dist="monotone", weight_lo=10, weight_hi=12)
        drawn = random_instances([3], count=2, seed=1, dist="monotone", weight_lo=10, weight_hi=12)
        assert drawn == [(10, 11, 12)] * 2

    def test_sizes_are_a_set(self):
        # only the listed sizes are drawn; order and repeats do not matter
        drawn = random_instances([7, 3, 5, 3], count=200, seed=1)
        assert {len(ws) for ws in drawn} == {3, 5, 7}
        assert drawn == random_instances([3, 5, 7], count=200, seed=1)

    def test_no_size_left_names_the_parameters(self):
        message = r"^sizes \[2\] with odd_only=True leave no size to draw$"
        with pytest.raises(ValueError, match=message):
            random_instances([2], odd_only=True)


class TestFuzzCompare:
    def test_paper_family_always_matches(self):
        summary = fuzz_compare(PAPER_FAMILY)
        assert summary.equality_rate == 1.0
        assert summary.records == ()
        assert summary.violations == 0

    def test_tiny_exhaustive_family(self):
        instances = []
        for n in (1, 2, 3):
            instances.extend(itertools.product((1, 2, 3), repeat=n))
        summary = fuzz_compare(instances)
        assert summary.instances == 3 + 9 + 27
        assert all(r.gap >= 0 for r in summary.records)
        assert summary.violations == 0

    def test_deterministic_given_seed(self):
        instances = random_instances(range(1, 10), count=60, seed=17)
        a = fuzz_compare(instances).to_json_obj()
        b = fuzz_compare(instances).to_json_obj()
        assert a == b
        assert a["digest"] == b["digest"]

    def test_summary_json_shape(self):
        summary = fuzz_compare(random_instances(range(1, 7), count=10, seed=3))
        obj = json.loads(json.dumps(summary.to_json_obj()))
        assert set(obj) >= {
            "instances", "equal", "equality_rate", "max_gap", "divergences", "errors", "digest",
        }

    def test_an_error_is_recorded_and_the_run_goes_on(self):
        # the crossing-circle EngineError, between two instances that solve
        crash = (31, 1, 47, 30, 45, 15, 75, 1, 92, 60, 94, 74, 42, 89, 66)
        summary = fuzz_compare([PAPER_FAMILY[0], crash, PAPER_FAMILY[1]])
        assert (summary.instances, summary.equal, summary.records) == (3, 2, ())
        (error,) = summary.to_json_obj()["errors"]
        assert error["weights"] == list(crash)
        assert error["type"] == "EngineError"
        assert error["message"].startswith("cannot realise forest")


def _edit_root(report, edit):
    """The report with its root node replaced by ``edit(root)``."""
    tree = report.tree
    nodes = list(tree.nodes)
    nodes[tree.root] = edit(nodes[tree.root])
    return dataclasses.replace(report, tree=dataclasses.replace(tree, nodes=tuple(nodes)))


def _drop_root(report):
    """The two-root forest under the root, with its trace prefix and levels."""
    tree = report.tree
    assert tree.root == len(tree.nodes) - 1
    forest = dataclasses.replace(
        tree, nodes=tree.nodes[:-1], roots=tree.nodes[tree.root].children
    )
    return dataclasses.replace(
        report,
        tree=forest,
        trace=report.trace.prefix(len(report.trace.steps) - 1),
        levels=tuple(lv - 1 for lv in report.levels),
    )


class TestCheckReport:
    def test_clean_report_passes(self):
        assert check_report(general_solve((6, 6, 1, 10, 1, 6, 6))) == []

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (
                lambda r: _edit_root(
                    r, lambda nd: dataclasses.replace(nd, children=nd.children[::-1])
                ),
                "tree is not alphabetic",
            ),
            (
                lambda r: _edit_root(r, lambda nd: dataclasses.replace(nd, weight=nd.weight + 1)),
                "weighted path length 26 != internal weight sum 27",
            ),
            (
                lambda r: dataclasses.replace(r, trace=r.trace.prefix(len(r.trace.steps) - 1)),
                "cost 26 != trace increments 13",
            ),
            (
                lambda r: dataclasses.replace(r, levels=(r.levels[0] + 1,) + r.levels[1:]),
                "levels do not match the tree",
            ),
            (_drop_root, "binary node count has the wrong parity"),
        ],
        ids=["order", "internal-weight", "increments", "levels", "parity"],
    )
    def test_one_field_edit_found(self, edit, problem):
        report = hu_tucker((4, 2, 3, 4))
        assert check_report(report) == []
        assert check_report(edit(report)) == [problem]

    def test_one_leaf_walk(self, monkeypatch):
        walks = []
        leaves = harness._leaves
        monkeypatch.setattr(harness, "_leaves", lambda tree: walks.append(tree) or leaves(tree))
        report = hu_tucker((4, 2, 3, 4))
        assert check_report(report) == [] and walks == [report.tree]

    def test_cost_below_the_optimum_is_a_violation(self, monkeypatch):
        dp_optimal = harness.dp_optimal
        monkeypatch.setattr(
            harness, "dp_optimal", lambda ws, arities: (dp_optimal(ws, arities)[0] + 1, None)
        )
        summary = fuzz_compare([PAPER_FAMILY[0]])
        assert summary.violations == 1
        assert [r.gap for r in summary.records] == [-1]


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

    def test_every_size_checked_before_any_is_timed(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_solve_pure_ternary", lambda ws: calls.append(ws))
        with pytest.raises(ValueError, match="needs odd sizes") as info:
            bench_growth([801, 802], seed=0)
        assert "802" in str(info.value)
        assert calls == []
