import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from alphatree import oracle
from alphatree.core import (
    Infeasible,
    TreeBuilder,
    is_alphabetic,
    leaf_levels,
    tree_cost,
    validate_weights,
)
from alphatree.oracle import (
    EXHAUSTIVE_MAX_N,
    RefusedSize,
    _arity_set,
    _dp_tables,
    _root_splits,
    _splits,
    dp_optimal,
    exhaustive_optimal,
)
from alphatree.ternary import general_solve
from tests import test_levels
from tests.conftest import FIFTEEN_WEIGHTS, SEVEN_WEIGHTS, shallow_recursion

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


def cubic_tables(ws, allowed):
    """The DP tables with every split scanned, O(n^3): the loop
    ``_dp_tables`` ran before its scans were bounded, on full n-by-n tables.
    Returns ``(cost, choice, pair)``: ``cost[i][j]`` and its leftmost
    splits ``choice[i][j]`` for the tree over leaves i..j, and
    ``pair[j][a]`` for the forest over a..j."""
    pure = allowed == {3}
    n = len(ws)
    prefix = [0]
    for w in ws:
        prefix.append(prefix[-1] + w)
    cost = [[0] * n for _ in range(n)]
    cost_to = [[0] * n for _ in range(n)]
    pair = [[0] * n for _ in range(n)]
    pair_at = [[0] * n for _ in range(n)]
    choice = [[None] * n for _ in range(n)]
    step = 2 if pure else 1
    for length in range(2, n + 1):
        if not pure or length % 2 == 0:
            for a in range(n - length + 1):
                j = a + length - 1
                sums = [x + y for x, y in zip(cost[a][a:j:step], cost_to[j][a + 1 : j + 1 : step])]
                best = min(sums)
                pair[j][a] = best
                pair_at[j][a] = a + step * sums.index(best)
        if not pure or length % 2 == 1:
            for i in range(n - length + 1):
                j = i + length - 1
                best = pick = None
                if 2 in allowed:
                    best, pick = pair[j][i], (pair_at[j][i],)
                if 3 in allowed and length >= 3:
                    sums = [x + y for x, y in zip(cost[i][i : j - 1 : step], pair[j][i + 1 : j : step])]
                    c = min(sums)
                    if best is None or c < best:
                        m1 = i + step * sums.index(c)
                        best, pick = c, (m1, pair_at[j][m1 + 1])
                cost[i][j] = cost_to[j][i] = best + (prefix[j + 1] - prefix[i])
                choice[i][j] = pick
    return cost, choice, pair


def bottom_pair_dp(ws):
    """The mixed-arity optimum in the bottom-pair normal form (README,
    "Oracles"): some optimal tree with arities {2, 3} has every binary node
    over two leaves, so a span of two leaves is one binary node and every
    longer span has a ternary root, a tree over i..m1 and the cheapest
    two-tree forest over m1+1..j.  O(n^3), on full n-by-n tables, with no
    binary root above two leaves, no tie rule and no table shared with
    ``dp_optimal``."""
    n = len(ws)
    prefix = [0]
    for w in ws:
        prefix.append(prefix[-1] + w)
    cost = [[0] * n for _ in range(n)]
    forest = [[0] * n for _ in range(n)]
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            forest[i][j] = min(cost[i][m] + cost[m + 1][j] for m in range(i, j))
            if length == 2:
                cost[i][j] = ws[i] + ws[j]
            else:
                root = min(cost[i][m1] + forest[m1 + 1][j] for m1 in range(i, j - 1))
                cost[i][j] = prefix[j + 1] - prefix[i] + root
    return cost[0][n - 1]


def concatenated_exhaustive(weights, arities=(2, 3)):
    """The enumeration ``exhaustive_optimal`` ran before it multiplied child
    lists shortest first and folded the root: child lists are multiplied
    left to right, and the full span's costs are one list like every other
    span's."""
    ws = validate_weights(weights)
    allowed = _arity_set(arities)
    n = len(ws)
    if n > EXHAUSTIVE_MAX_N:
        raise RefusedSize(f"{n} leaves is past the enumeration limit {EXHAUSTIVE_MAX_N}")
    shapes = {(i, i): [0] for i in range(n)}
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            span = sum(ws[i : j + 1])
            costs = []
            for arity in sorted(allowed):
                # the first leaf of each child after the first
                for starts in combinations(range(i + 1, j + 1), arity - 1):
                    sums = [span]
                    for lo, end in zip((i, *starts), (*starts, j + 1)):
                        part = shapes[(lo, end - 1)]
                        sums = [s + c for s in sums for c in part]
                    costs.extend(sums)
            shapes[(i, j)] = costs
    costs = shapes[(0, n - 1)]
    if not costs:
        raise Infeasible("no tree shape satisfies the arity constraints")
    best = min(costs)
    return best, costs.count(best)


def outcome(solve, ws, arities):
    """The result of ``solve(ws, arities)``, or the type of what it raised."""
    try:
        return solve(ws, arities)
    except ValueError as exc:  # Infeasible and RefusedSize among them
        return type(exc)


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

    def test_matches_the_bottom_pair_reference(self):
        # the mixed-arity cost against the normal form's DP, ties and zeros
        # included, and at sizes the quartic reference (n <= 40) and the
        # enumeration (n <= 11) do not reach
        rng = random.Random(47)
        inputs = [
            tuple(rng.randint(0, hi) for _ in range(rng.randint(1, 40)))
            for hi in (0, 1, 2, 3, 10, 100, 10**6)
            for _ in range(86)
        ]
        inputs += [tuple(rng.randint(0, 100) for _ in range(n)) for n in (100, 150, 200)]
        for ws in inputs:
            assert dp_optimal(ws, (2, 3))[0] == bottom_pair_dp(ws), ws

    @pytest.mark.parametrize("arities", ARITY_SETS)
    def test_tables_match_the_cubic_reference(self, arities):
        # {2} and {3} scan only between the Knuth bounds, {2, 3} every split;
        # all three must give the cubic loop's tree and forest cost on every
        # span, each table holding each span once, and the splits recovered
        # from the costs must be the cubic loop's leftmost ones; zeros, small
        # ranges and equal weights tie splits everywhere, which is where a
        # bound could cut off the leftmost minimum
        allowed = frozenset(arities)
        step = 2 if allowed == {3} else 1
        rng = random.Random(45)
        for n in range(1, 46):
            if allowed == {3} and n % 2 == 0:
                continue
            inputs = [(0,) * n, (7,) * n]
            inputs += [tuple(rng.randint(0, hi) for _ in range(n)) for hi in (1, 3, 100, 10**6)]
            for ws in inputs:
                cost, choice, pair = cubic_tables(ws, allowed)
                expected = (
                    [[cost[i][j] for j in range(i, n, step)] for i in range(n)],
                    [[cost[i][j] for i in range(j, -1, -step)] for j in range(n)],
                    [[pair[j][a] for a in range(j - 1, -1, -step)] for j in range(n)],
                )
                tables = _dp_tables(ws, allowed)
                assert tables == expected, (ws, arities)
                for i in range(n):
                    for j in range(i + step, n, step):
                        splits = _root_splits(tables, allowed, sum(ws[i : j + 1]), i, j)
                        assert splits == choice[i][j], (ws, arities, i, j)

    def test_every_optimal_split_matches_the_cubic_reference(self):
        # the first splits of every optimal ternary root and the splits of
        # every optimal forest, ties included, on every span of the mixed
        # tables
        allowed = frozenset((2, 3))
        rng = random.Random(46)
        for n in range(2, 31):
            for hi in (0, 1, 3, 100):
                ws = tuple(rng.randint(0, hi) for _ in range(n))
                cost, _choice, pair = cubic_tables(ws, allowed)
                tables = _dp_tables(ws, allowed)
                for i in range(n):
                    for j in range(i + 1, n):
                        forests = [m for m in range(i, j) if cost[i][m] + cost[m + 1][j] == pair[j][i]]
                        assert list(_splits(tables, 1, i, j)) == forests, (ws, i, j)
                        if j > i + 1:
                            root = cost[i][j] - sum(ws[i : j + 1])
                            firsts = [m for m in range(i, j - 1) if cost[i][m] + pair[j][m + 1] == root]
                            assert list(_splits(tables, 1, i, j, sum(ws[i : j + 1]))) == firsts, (ws, i, j)

    def test_deep_tree_needs_no_deep_recursion(self):
        # zeros tie everywhere and ties take the leftmost split, binary
        # first, so the tree over 401 zeros is a caterpillar: 400 levels
        # deep where binary nodes are allowed, 200 in exact-ternary trees;
        # the recursion limit leaves room for a few frames, not one per level
        for arities, depth in (((2,), 400), ((3,), 200), ((2, 3), 400)):
            with shallow_recursion():
                cost, tree = dp_optimal([0] * 401, arities)
            assert cost == 0
            assert max(leaf_levels(tree)) == depth, arities

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

    @pytest.mark.parametrize("hi", (0, 1, 3, 100, 10**20))
    def test_matches_the_concatenating_reference(self, hi):
        # the same cost and count, or the same exception, as the enumeration
        # that multiplies left to right and keeps the root's whole list;
        # n = 12 is refused by both
        rng = random.Random(hi)
        inputs = [tuple(rng.randint(0, hi) for _ in range(n)) for n in range(1, 10) for _ in range(4)]
        inputs += [tuple(rng.randint(0, hi) for _ in range(n)) for n in (10, 11, 12)]
        for ws in inputs:
            for arities in ARITY_SETS:
                got = outcome(exhaustive_optimal, ws, arities)
                assert got == outcome(concatenated_exhaustive, ws, arities), (ws, arities)

    @pytest.mark.parametrize("arities, expected", [((2, 3), (60, 1)), ((3,), (60, 1)), ((2,), (95, 2))])
    def test_counterexample_at_the_enumeration_limit(self, arities, expected):
        # the 11-leaf input where the greedy misses the mixed optimum by one
        # has the most leaves the enumeration takes, so every root shape is
        # folded into the answer here
        ws = (1, 1, 1, 3, 1, 4, 1, 7, 1, 5, 4)
        assert len(ws) == EXHAUSTIVE_MAX_N
        assert exhaustive_optimal(ws, arities) == expected

    def test_huge_weights_stay_exact(self):
        big = 10**20
        cost, count = exhaustive_optimal((big, 1, big), (2, 3))
        assert cost == dp_optimal((big, 1, big), (2, 3))[0]
        assert count >= 1
