import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from alphatree import oracle
from alphatree.core import Infeasible, TreeBuilder, is_alphabetic, leaf_levels, tree_cost
from alphatree.oracle import RefusedSize, _dp_tables, dp_optimal, exhaustive_optimal
from alphatree.ternary import general_solve
from tests import test_levels
from tests.conftest import FIFTEEN_WEIGHTS, SEVEN_WEIGHTS

ARITY_SETS = ((2,), (3,), (2, 3))


def reference_dp(ws, arities):
    """The interval DP without the two-tree forest table: every ternary root
    tries every (m1, m2) pair, O(n^4).  Splits are tried left to right with a
    strict ``<``, binary before ternary, which is the tie-break dp_optimal
    documents, so both must return the same tree, node ids included."""
    allowed = set(arities)
    pure = allowed == {3}
    n = len(ws)
    prefix = [0]
    for w in ws:
        prefix.append(prefix[-1] + w)
    cost = [[0] * n for _ in range(n)]
    choice = [[None] * n for _ in range(n)]
    step = 2 if pure else 1
    for length in range(1 + step, n + 1, step):
        for i in range(n - length + 1):
            j = i + length - 1
            best = pick = None
            if 2 in allowed:
                for m in range(i, j):
                    c = cost[i][m] + cost[m + 1][j]
                    if best is None or c < best:
                        best, pick = c, (m,)
            if 3 in allowed and length >= 3:
                for m1 in range(i, j - 1, step):
                    for m2 in range(m1 + 1, j, step):
                        c = cost[i][m1] + cost[m1 + 1][m2] + cost[m2 + 1][j]
                        if best is None or c < best:
                            best, pick = c, (m1, m2)
            cost[i][j] = best + prefix[j + 1] - prefix[i]
            choice[i][j] = pick

    builder = TreeBuilder(ws)

    def build(i, j):
        if i == j:
            return i
        bounds = (i - 1,) + choice[i][j] + (j,)
        return builder.internal([build(lo + 1, hi) for lo, hi in zip(bounds, bounds[1:])])

    return cost[0][n - 1], builder.finish([build(0, n - 1)])


class TestDpOptimal:
    def test_binary_reference_example(self):
        cost, tree = dp_optimal((4, 2, 3, 4), (2,))
        assert cost == 26
        assert tree.to_nested() == [[4, 2], [3, 4]]

    def test_heavy_centre_example(self):
        cost, tree = dp_optimal((1, 1, 100, 1, 1), (2, 3))
        assert cost == 108
        assert tree.to_nested() == [[1, 1], 100, [1, 1]]

    def test_pure_seven(self):
        assert dp_optimal(SEVEN_WEIGHTS, (3,))[0] == 62

    def test_pure_fifteen(self):
        assert dp_optimal(FIFTEEN_WEIGHTS, (3,))[0] == 197

    def test_pure_rejects_even(self):
        with pytest.raises(Infeasible):
            dp_optimal((1, 2), (3,))

    def test_bad_arity_set(self):
        with pytest.raises(ValueError):
            dp_optimal((1, 2), set())
        with pytest.raises(ValueError):
            dp_optimal((1, 2), (4,))

    def test_trees_are_well_formed(self):
        rng = random.Random(2)
        for _ in range(60):
            n = rng.randint(1, 9)
            ws = tuple(rng.randint(0, 40) for _ in range(n))
            for arities in ARITY_SETS:
                if arities == (3,) and n % 2 == 0:
                    continue
                cost, tree = dp_optimal(ws, arities)
                assert is_alphabetic(tree)
                assert tree_cost(tree, ws) == cost
                # weighted path length equals the internal weight tally
                assert cost == sum(tree.internal_weights())
                assert set(tree.arities()) <= set(arities)

    @pytest.mark.parametrize("hi", (3, 100))
    def test_matches_the_quartic_reference(self, hi):
        # the same cost and the same tree, node ids included, as the DP that
        # tries every (m1, m2) pair; small weights make ties, which exercise
        # the tie-break
        rng = random.Random(hi)
        for n in range(1, 41):
            for _ in range(2):
                ws = tuple(rng.randint(0, hi) for _ in range(n))
                for arities in ARITY_SETS:
                    if arities == (3,) and n % 2 == 0:
                        continue
                    cost, tree = dp_optimal(ws, arities)
                    ref_cost, ref_tree = reference_dp(ws, arities)
                    assert (cost, repr(tree)) == (ref_cost, repr(ref_tree)), (ws, arities)

    def test_deep_tree_needs_no_deep_recursion(self):
        # zeros tie everywhere and ties take the leftmost split, so the
        # binary tree over 400 zeros is a caterpillar 399 levels deep; the
        # recursion limit leaves room for a few frames, not one per level
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            cost, tree = dp_optimal([0] * 400, (2,))
        finally:
            sys.setrecursionlimit(limit)
        assert cost == 0
        assert max(leaf_levels(tree)) == 399

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=50),
    )
    def test_appending_a_leaf_never_helps(self, ws, extra):
        base = dp_optimal(tuple(ws), (2, 3))[0]
        grown = dp_optimal(tuple(ws) + (extra,), (2, 3))[0]
        assert grown >= base


class TestSharedTables:
    """``_dp_tables`` keeps its last table set, so the plan-search stop in
    ``general_solve`` and ``dp_optimal`` on the same weights build it once."""

    # the 13-leaf crash input: general_solve tries four of its plans, so its
    # stop reads the (2, 3) table (importing the pinned-output class itself
    # would collect its tests here a second time)
    SEVERAL_PLANS = test_levels.TestPinnedSolverOutputs.KNOWN_FAILURES[1]

    def test_general_solve_then_dp_builds_once(self):
        _dp_tables.cache_clear()
        assert general_solve(self.SEVERAL_PLANS).cost == 422
        assert _dp_tables.cache_info()[:2] == (0, 1)  # (hits, misses)
        assert dp_optimal(self.SEVERAL_PLANS, (2, 3))[0] == 422
        assert _dp_tables.cache_info()[:2] == (1, 1)

    def test_cold_and_warm_calls_agree(self):
        _dp_tables.cache_clear()
        cold_cost, cold_tree = dp_optimal(FIFTEEN_WEIGHTS, (2, 3))
        warm_cost, warm_tree = dp_optimal(FIFTEEN_WEIGHTS, (2, 3))
        assert _dp_tables.cache_info()[:2] == (1, 1)
        assert (warm_cost, repr(warm_tree)) == (cold_cost, repr(cold_tree))

    def test_other_arities_miss(self):
        ws = self.SEVERAL_PLANS
        _dp_tables.cache_clear()
        dp_optimal(ws, (2, 3))
        cost, tree = dp_optimal(ws, (2,))
        assert _dp_tables.cache_info()[:2] == (0, 2)
        ref_cost, ref_tree = reference_dp(ws, (2,))
        assert (cost, repr(tree)) == (ref_cost, repr(ref_tree))
        assert set(tree.arities()) == {2}

    def test_pinned_digest_after_general_solve(self, monkeypatch):
        # every (2, 3) call of the pinned DP digest right after general_solve
        # on the same input, which builds the table on 79 of the 90 inputs
        original = oracle.dp_optimal

        def after_general_solve(ws, arities):
            if set(arities) == {2, 3}:
                try:
                    general_solve(ws)
                except RuntimeError:  # EngineError: the DP still runs
                    pass
            return original(ws, arities)

        _dp_tables.cache_clear()
        monkeypatch.setattr(oracle, "dp_optimal", after_general_solve)
        inputs = test_levels._pinned_inputs(505, 90, range(1, 41))
        assert test_levels._dp_outcomes(inputs) == test_levels.TestPinnedSolverOutputs.DP
        assert _dp_tables.cache_info().hits == 79


class TestExhaustiveOptimal:
    def test_pair(self):
        assert exhaustive_optimal((1, 1), (2, 3)) == (2, 1)

    def test_heavy_centre_full_enumeration(self):
        cost, count = exhaustive_optimal((1, 1, 100, 1, 1), (2, 3))
        assert cost == 108
        assert count == 1

    def test_binary_reference_agrees_with_dp(self):
        cost, _count = exhaustive_optimal((4, 2, 3, 4), (2,))
        assert cost == 26 == dp_optimal((4, 2, 3, 4), (2,))[0]

    def test_counts_equal_cost_shapes(self):
        # both binary shapes over equal weights tie
        assert exhaustive_optimal((2, 2, 2), (2,)) == (10, 2)
        assert exhaustive_optimal((2, 2, 2), (3,)) == (6, 1)

    def test_refuses_large_inputs(self):
        with pytest.raises(RefusedSize):
            exhaustive_optimal(tuple(range(1, 13)), (2,))

    def test_pure_rejects_even(self):
        with pytest.raises(Infeasible):
            exhaustive_optimal((1, 2, 3, 4), (3,))

    def test_matches_dp_on_random_inputs(self):
        rng = random.Random(9)
        for _ in range(150):
            n = rng.randint(1, 9)
            ws = tuple(rng.randint(0, 30) for _ in range(n))
            for arities in ARITY_SETS:
                if arities == (3,) and n % 2 == 0:
                    with pytest.raises(Infeasible):
                        dp_optimal(ws, arities)
                    with pytest.raises(Infeasible):
                        exhaustive_optimal(ws, arities)
                    continue
                assert dp_optimal(ws, arities)[0] == exhaustive_optimal(ws, arities)[0]

    # With all-zero weights every shape ties, so the count is the number of
    # shapes: Catalan numbers for binary, ternary-tree numbers for
    # exact-ternary (odd n only), and for mixed arity the dissections of an
    # (n+1)-gon into triangles and quadrilaterals.
    SHAPE_COUNTS = {
        (2,): (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796),
        (3,): (1, None, 1, None, 3, None, 12, None, 55, None, 273),
        (2, 3): (1, 1, 3, 10, 38, 154, 654, 2871, 12925, 59345, 276835),
    }

    @pytest.mark.parametrize("arities", ARITY_SETS)
    def test_zero_weights_count_every_shape(self, arities):
        for n, count in enumerate(self.SHAPE_COUNTS[arities], start=1):
            if count is None:
                with pytest.raises(Infeasible):
                    exhaustive_optimal((0,) * n, arities)
            else:
                assert exhaustive_optimal((0,) * n, arities) == (0, count)

    def test_huge_weights_stay_exact(self):
        big = 10**20
        cost, count = exhaustive_optimal((big, 1, big), (2, 3))
        assert cost == dp_optimal((big, 1, big), (2, 3))[0]
        assert count >= 1
