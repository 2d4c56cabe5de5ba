import pytest
from hypothesis import given, settings, strategies as st

from alphatree.binary import phase1_combine_binary
from alphatree.core import (
    AlphaTree,
    CombinationStep,
    CombinationTrace,
    Participant,
    StructureError,
    leaf_levels,
    tree_cost,
)
from alphatree.levels import (
    InvalidLevelSequence,
    MODE_BINARY,
    MODE_MIXED,
    MODE_PURE,
    pure_centre_leaves,
    reconstruct_from_levels,
    report_from_trace,
    signed_levels,
)
from tests.conftest import FIFTEEN_WEIGHTS, SEVEN_WEIGHTS

FIFTEEN_LEVELS = (2, 2, 3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 3, 2, 2)


class TestSignedLevels:
    def test_seven_node_complete(self, seven_trace):
        assert signed_levels(seven_trace) == (2, 2, 2, 1, 2, 2, 2)

    def test_seven_node_prefixes(self, seven_trace):
        assert signed_levels(seven_trace.prefix(1)) == (0, 0, 1, 1, 1, 0, 0)
        assert signed_levels(seven_trace.prefix(2)) == (1, 1, 1, 0, 1, 1, 1)

    def test_centre_leaf_level_dips_and_recovers(self, seven_trace):
        # the heavy centre leaf sits at 1, drops to 0, then returns to 1
        trail = [signed_levels(seven_trace.prefix(k))[3] for k in (1, 2, 3)]
        assert trail == [1, 0, 1]

    def test_fifteen_node_complete(self, fifteen_trace):
        assert signed_levels(fifteen_trace) == FIFTEEN_LEVELS

    def test_empty_prefix_is_all_zero(self, fifteen_trace):
        assert signed_levels(fifteen_trace.prefix(0)) == (0,) * 15


# Level blocks of pure-ternary forests, so that reducible sequences, with and
# without leaf centres at the top, are drawn as often as unreducible ones.
FOREST_BLOCKS = (
    (0,),
    (1, 1, 1),
    (2, 2, 2, 1, 1),
    (1, 2, 2, 2, 1),
    (1, 1, 2, 2, 2),
    (2, 2, 2, 1, 2, 2, 2),
    (2, 2, 2, 2, 2, 2, 2, 2, 2),
)
LEVEL_SEQUENCES = st.one_of(
    st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=12),
    st.lists(st.sampled_from(FOREST_BLOCKS), min_size=1, max_size=5).map(
        lambda blocks: [l for block in blocks for l in block]
    ),
)


class TestPureCentreLeaves:
    @settings(max_examples=300, deadline=None)
    @given(LEVEL_SEQUENCES)
    def test_matches_top_level_triples_of_reconstruction(self, levels):
        try:
            forest = reconstruct_from_levels(levels, [1] * len(levels), MODE_PURE)
        except InvalidLevelSequence as exc:
            with pytest.raises(type(exc)) as lean:
                pure_centre_leaves(levels)
            assert str(lean.value) == str(exc)
            return
        centres = []
        for r in forest.roots:
            kids = forest.nodes[r].children
            if len(kids) == 3 and forest.nodes[kids[1]].is_leaf:
                centres.append(forest.nodes[kids[1]].leaf_index)
        assert pure_centre_leaves(levels) == centres

    def test_worked_forests(self):
        # seven-node prefixes: one triple with centre 3, then two with leaf
        # centres around the uncombined centre leaf
        assert pure_centre_leaves((0, 0, 1, 1, 1, 0, 0)) == [3]
        assert pure_centre_leaves((1, 1, 1, 0, 1, 1, 1)) == [1, 5]
        # a combined centre is not a leaf; a leaf centre beside a nested triple is
        assert pure_centre_leaves((1, 2, 2, 2, 1)) == []
        assert pure_centre_leaves((2, 2, 2, 1, 1)) == [3]


def _trees_with_leaf_pairs(lo, hi):
    """Every tree over leaves lo..hi whose internal nodes are ternary, or
    binary over two leaves, as nested lists of leaf indexes."""
    if lo == hi:
        return [lo]
    out = [[lo, hi]] if hi == lo + 1 else []
    for m1 in range(lo, hi - 1):
        for m2 in range(m1 + 1, hi):
            for a in _trees_with_leaf_pairs(lo, m1):
                for b in _trees_with_leaf_pairs(m1 + 1, m2):
                    out.extend([a, b, c] for c in _trees_with_leaf_pairs(m2 + 1, hi))
    return out


def _mixed_trees(lo, hi):
    """Every tree over leaves lo..hi with internal arities 2 and 3, as
    nested lists of leaf indexes."""
    if lo == hi:
        return [lo]
    out = []
    for m in range(lo, hi):
        out.extend([a, b] for a in _mixed_trees(lo, m) for b in _mixed_trees(m + 1, hi))
    for m1 in range(lo, hi - 1):
        for m2 in range(m1 + 1, hi):
            for a in _mixed_trees(lo, m1):
                for b in _mixed_trees(m1 + 1, m2):
                    out.extend([a, b, c] for c in _mixed_trees(m2 + 1, hi))
    return out


def _trace_of(nested, ws):
    """The trace that combines the children of each internal node of
    ``nested`` (leaf indexes), in post-order."""
    n = len(ws)
    weight = dict(enumerate(ws))
    steps = []

    def rec(node):
        if isinstance(node, int):
            return node
        refs = [rec(c) for c in node]
        circle = n + len(steps)
        weight[circle] = sum(weight[r] for r in refs)
        parts = tuple(Participant(r, 1) for r in refs)
        steps.append(CombinationStep(circle, weight[circle], parts))
        return circle

    rec(nested)
    return CombinationTrace(n, tuple(steps))


class TestReconstructFromTrace:
    def test_every_tree_with_leaf_pairs_replays(self):
        # a binary node of a mixed tree is placed by its trace pair alone;
        # each leaf i weighs i, so the nested form is the leaf-index form
        count = 0
        for n in range(1, 10):
            ws = tuple(range(n))
            for nested in _trees_with_leaf_pairs(0, n - 1):
                expected = AlphaTree.from_nested(nested)
                report = report_from_trace("replay", _trace_of(nested, ws), ws)
                assert report.tree.to_nested() == nested
                assert report.levels == leaf_levels(expected)
                assert report.cost == tree_cost(expected, ws)
                count += 1
        assert count == 506

    def test_binary_step_over_circles_replays(self):
        # a binary step that joins a circle is placed by its leaf span, its
        # two participants in either order: the circle (0, 1, 2) with leaf
        # 3, and two circles side by side
        ws = (1, 2, 3, 4)
        triple = CombinationStep(4, 6, (Participant(0, 1), Participant(1, 1), Participant(2, 1)))
        for refs in ((4, 3), (3, 4)):
            pair = CombinationStep(5, 10, tuple(Participant(r, 1) for r in refs))
            report = report_from_trace("replay", CombinationTrace(4, (triple, pair)), ws)
            assert report.tree.to_nested() == [[1, 2, 3], 4]
            assert (report.levels, report.cost) == ((2, 2, 2, 1), 16)
        ws = (1, 2, 3, 4, 5, 6)
        report = report_from_trace("replay", _trace_of([[0, 1, 2], [3, 4, 5]], ws), ws)
        assert report.tree.to_nested() == [[1, 2, 3], [4, 5, 6]]
        assert (report.levels, report.cost) == ((2,) * 6, 42)

    def test_every_mixed_tree_replays(self):
        # binary nodes anywhere, over leaves or circles: every tree with
        # internal arities 2 and 3 (the dissection counts of
        # TestExhaustiveOptimal) rebuilds from its post-order trace
        count = 0
        for n in range(1, 9):
            ws = tuple(range(n))
            for nested in _mixed_trees(0, n - 1):
                expected = AlphaTree.from_nested(nested)
                report = report_from_trace("replay", _trace_of(nested, ws), ws)
                assert report.tree.to_nested() == nested
                assert report.levels == leaf_levels(expected)
                count += 1
        assert count == 1 + 1 + 3 + 10 + 38 + 154 + 654 + 2871

    def test_general_solve_pairs_beside_each_other(self):
        # a run of four leaves at level 2 holds two pairs; the levels alone
        # would close the first three as a triple
        from alphatree.ternary import general_solve

        report = general_solve((3, 0, 1, 3, 0))
        assert report.levels == (1, 2, 2, 2, 2)
        assert report.tree.to_nested() == [3, [0, 1], [3, 0]]
        assert report.cost == 11

    def test_seven_node_tree(self, seven_trace):
        tree = report_from_trace("pure-ternary", seven_trace, SEVEN_WEIGHTS).tree
        assert tree.to_nested() == [[6, 6, 1], 10, [1, 6, 6]]
        assert tree_cost(tree, SEVEN_WEIGHTS) == 62

    def test_fifteen_node_internal_weights(self, fifteen_trace):
        tree = report_from_trace("pure-ternary", fifteen_trace, FIFTEEN_WEIGHTS).tree
        assert sorted(tree.internal_weights()) == sorted([13, 13, 13, 23, 33, 23, 79])
        assert tree_cost(tree, FIFTEEN_WEIGHTS) == 197

    def test_binary_trace(self):
        trace = phase1_combine_binary((4, 2, 3, 4))
        tree = report_from_trace("hu-tucker", trace, (4, 2, 3, 4)).tree
        assert tree.to_nested() == [[4, 2], [3, 4]]

    def test_cost_equals_increment_sum(self, seven_trace, fifteen_trace):
        for trace, ws in ((seven_trace, SEVEN_WEIGHTS), (fifteen_trace, FIFTEEN_WEIGHTS)):
            tree = report_from_trace("pure-ternary", trace, ws).tree
            assert tree_cost(tree, ws) == trace.total()


class TestReconstructFromLevels:
    def test_binary_reference_levels(self):
        tree = reconstruct_from_levels((2, 2, 2, 2), (4, 2, 3, 4), MODE_BINARY)
        assert tree.to_nested() == [[4, 2], [3, 4]]
        assert tree_cost(tree, (4, 2, 3, 4)) == 26

    def test_pure_fifteen_levels(self):
        tree = reconstruct_from_levels(FIFTEEN_LEVELS, FIFTEEN_WEIGHTS, MODE_PURE)
        assert tree_cost(tree, FIFTEEN_WEIGHTS) == 197

    def test_prefix_levels_give_forest(self):
        forest = reconstruct_from_levels(
            (0, 0, 1, 1, 1, 0, 0), SEVEN_WEIGHTS, MODE_PURE
        )
        assert len(forest.roots) == 5
        assert sum(nd.weight for nd in forest.nodes if not nd.is_leaf) == 12

    def test_singleton_run_rejected(self):
        with pytest.raises(InvalidLevelSequence):
            reconstruct_from_levels((1,), (5,), MODE_PURE)
        with pytest.raises(
            InvalidLevelSequence,
            match=r"^cannot reduce levels \[2, 2, 2\] in binary mode; "
            r"stuck with 2 node\(s\) above level 0$",
        ):
            reconstruct_from_levels((2, 2, 2), (1, 2, 3), MODE_BINARY)
        # past a whole tree, the last leaf is a singleton
        with pytest.raises(InvalidLevelSequence, match=r"; stuck with 1 node\(s\) above level 0$"):
            reconstruct_from_levels((1, 1, 0, 1), (1, 2, 3, 4), MODE_BINARY)

    def test_negative_level_rejected(self):
        with pytest.raises(InvalidLevelSequence, match=r"^negative level in \(1, -1, 1\)$"):
            reconstruct_from_levels((1, -1, 1), (1, 2, 3), MODE_PURE)

    def test_pair_rejected_in_pure_mode(self):
        with pytest.raises(InvalidLevelSequence):
            reconstruct_from_levels((1, 1), (1, 2), MODE_PURE)
        with pytest.raises(InvalidLevelSequence):
            reconstruct_from_levels((2, 2, 1, 2, 2), (1, 1, 100, 1, 1), MODE_PURE)

    def test_length_mismatch_rejected(self):
        with pytest.raises(StructureError, match="levels and weights differ in length"):
            reconstruct_from_levels((1, 1, 1), (1, 2), MODE_PURE)

    def test_leftover_run_of_four_rejected(self):
        # a run of four at the top level leaves a singleton behind
        with pytest.raises(
            InvalidLevelSequence,
            match=r"^cannot reduce levels \[1, 1, 1, 1\] in pure-ternary mode; "
            r"stuck with 1 node\(s\) above level 0$",
        ):
            reconstruct_from_levels((1, 1, 1, 1), (1, 2, 3, 4), MODE_PURE)

    def test_mixed_heavy_centre_levels(self):
        # a mixed tree's pairs come from its trace, and its levels with them
        ws = (1, 1, 100, 1, 1)
        report = report_from_trace("replay", _trace_of([[0, 1], 2, [3, 4]], ws), ws)
        assert report.levels == (2, 2, 1, 2, 2)
        assert report.tree.to_nested() == [[1, 1], 100, [1, 1]]

    def test_pair_allowed_in_mixed_mode(self):
        ws = (1, 2, 3, 4)
        report = report_from_trace("replay", _trace_of([[0, 1], 2, 3], ws), ws)
        assert report.levels == (2, 2, 1, 1)
        assert report.tree.to_nested() == [[1, 2], 3, 4]

    def test_mixed_mode_refused(self):
        # levels alone cannot place a mixed tree's pairs: (2, 2, 2, 2) is
        # [[a, b], [c, d]] and (2, 2, 1, 1) is [[a, b], c, d]
        for levels in ((2, 2, 2, 2), (2, 2, 1, 1), (2, 2, 1, 2, 2)):
            with pytest.raises(ValueError, match="come from its trace"):
                reconstruct_from_levels(levels, (1,) * len(levels), MODE_MIXED)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_from_levels((0,), (1,), "quaternary")


class TestEngineOutputsReplay:
    """The trace replay must rebuild a same-cost tree for whatever the
    engines emit; for the pure-ternary engine, levels alone must too."""

    def test_general_engine_trees(self):
        import random

        from alphatree.ternary import general_solve

        rng = random.Random(77)
        for _ in range(150):
            n = rng.randint(1, 12)
            ws = tuple(rng.randint(0, 30) for _ in range(n))
            report = general_solve(ws)
            replayed = report_from_trace("ternary", report.trace, ws).tree
            assert tree_cost(replayed, ws) == report.cost

    def test_pure_engine_trees(self):
        import random

        from alphatree.ternary import solve_pure_ternary

        rng = random.Random(78)
        for _ in range(100):
            n = rng.choice([1, 3, 5, 7, 9, 11])
            ws = tuple(rng.randint(0, 30) for _ in range(n))
            report = solve_pure_ternary(ws)
            rebuilt = reconstruct_from_levels(report.levels, ws, MODE_PURE)
            assert tree_cost(rebuilt, ws) == report.cost


def _solver_outcomes(solver, inputs):
    """sha256 over each input's full report (algorithm, cost, levels, tree
    node table and roots, trace), or over the exception's type and text."""
    import hashlib

    h = hashlib.sha256()
    for ws in inputs:
        try:
            r = solver(ws)
            out = (r.algorithm, r.cost, r.levels, r.tree.nodes, r.tree.roots,
                   r.trace.to_json_obj())
        except (RuntimeError, ValueError) as exc:  # the error is pinned output
            out = (type(exc).__name__, str(exc))
        h.update(repr(out).encode())
    return h.hexdigest()


def _dp_outcomes(inputs):
    """sha256 over the DP's cost and tree (node table and roots) for each
    input under each arity set, or over the exception's type and text."""
    import hashlib

    from alphatree.oracle import dp_optimal

    h = hashlib.sha256()
    for ws in inputs:
        for arities in ((2,), (3,), (2, 3)):
            try:
                cost, tree = dp_optimal(ws, arities)
                out = (cost, tree.nodes, tree.roots)
            except ValueError as exc:  # Infeasible: an even exact-ternary input
                out = (type(exc).__name__, str(exc))
            h.update(repr(out).encode())
    return h.hexdigest()


def _pinned_inputs(seed, count, sizes):
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        hi = rng.choice([2, 9, 30, 100])
        out.append(tuple(rng.randint(0, hi) for _ in range(rng.choice(sizes))))
    return out


def _scale_inputs(seed):
    """One input per size in 200, 400, 800, 1600 and weight range 0..3
    (ties everywhere) or 0..100."""
    import random

    rng = random.Random(seed)
    return [tuple(rng.randint(0, hi) for _ in range(n))
            for n in (200, 400, 800, 1600) for hi in (3, 100)]


def _past_cap_inputs(seed, count):
    """Heavy leaves (60..100), each followed by a run of 2 or 3 light leaves
    (0..5), added until the runs allow over 1024 single-vs-split choice
    vectors, twice ``_GeneralSolver.VECTOR_CAP``: a heavy leaf that, with the
    runs beside it, is lighter than both heavy neighbours makes one larger
    run with fewer choices."""
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        ws, vectors = [], 1
        while vectors <= 1024:
            run = rng.choice([2, 3])
            ws.append(rng.randint(60, 100))
            ws.extend(rng.randint(0, 5) for _ in range(run))
            vectors *= run
        out.append(tuple(ws))
    return out


class TestPinnedSolverOutputs:
    """Every solver's whole output, tree node ids included, stays fixed on
    seeded inputs: any change to a tree, level sequence, trace or error text
    changes a digest.  The inputs cover permanent runs, binary pairs and
    accordion steps, and the general solver's one known EngineError."""

    # the 20-leaf general_solve crash pinned by the benchmark's fuzz workload;
    # since the per-position pair skip a later plan raises it, with unit
    # levels ending 1, 1, 1, 1, 1, 1, 1, 1, 1, 0 instead of 1, 2, 2, 2, 1, 0,
    # and the other 300 inputs' outputs are as before
    REPRODUCER = (29, 6, 44, 13, 50, 2, 72, 14, 95, 33, 45, 70, 43, 54, 29, 5, 17, 21, 16, 93)
    GENERAL = "a859c08be822cbd7608da5a96f3dc67fdecf1c1d027904a10f46eb6c6aee8fec"
    PURE = "8e55fdec3f74d9ec82c08c18640d2ee8f75ebf853ea288ae3f088a56e4b7767f"
    HU_TUCKER = "d935b1f27b64d8d178d4404fcd851dd44a48152135dbfd3f2a182a06368736be"
    PAST_CAP = "6f16daf54649bfaedd75cd7423658f8a9dc72e2886aee81e76a0eae400bbbc52"
    # the crossing-circle crash on a pair-PCN-free input and on its 13-leaf
    # shrink with permanent runs, then an input where the engine misses the
    # optimum; the EngineError texts are part of the digests
    KNOWN_FAILURES = (
        (31, 1, 47, 30, 45, 15, 75, 1, 92, 60, 94, 74, 42, 89, 66),
        (31, 0, 1, 30, 0, 1, 31, 0, 43, 0, 1, 42, 20),
        (1, 1, 1, 3, 1, 4, 1, 7, 1, 5, 4),
    )
    KNOWN_PURE = "89de9ed8e608893e5773d030c0b15036b8e03d0a393eb2371374ea0b3d858e80"
    # general_solve stops its plan search on the 13-leaf input at the
    # optimum, 422, before the one plan that raises; it still raises on the
    # 15-leaf input
    KNOWN_GENERAL = "68a7854d65e48ffca42722464637c2292d43620448c45d89fac9d9d233b37a99"
    # recorded with the O(n^4) DP that tried every ternary (m1, m2) pair
    DP = "3884d79489fbb02a958da54acea3f585886f473457d72e42abcf48cfedd62972"
    # recorded with the combination that rescanned every window on every step
    HU_TUCKER_AT_SCALE = "b21687f7abd0e4bc07d0dcf2698cbcb32a61b4311955c1761687465d3854efdf"

    def test_general_solve(self):
        from alphatree.ternary import general_solve

        inputs = _pinned_inputs(501, 300, range(1, 15)) + [self.REPRODUCER]
        assert _solver_outcomes(general_solve, inputs) == self.GENERAL

    def test_general_solve_past_vector_cap(self):
        import math

        from alphatree.ternary import _GeneralSolver, detect_pcns, general_solve

        inputs = _past_cap_inputs(504, 30)
        for ws in inputs:  # every input splits at most one run per plan
            vectors = math.prod(hi - lo + 1 for lo, hi in detect_pcns(ws))
            assert vectors > _GeneralSolver.VECTOR_CAP
        assert _solver_outcomes(general_solve, inputs) == self.PAST_CAP

    def test_known_failures(self):
        from alphatree.ternary import general_solve, solve_pure_ternary

        inputs = self.KNOWN_FAILURES
        assert _solver_outcomes(solve_pure_ternary, inputs) == self.KNOWN_PURE
        assert _solver_outcomes(general_solve, inputs) == self.KNOWN_GENERAL

    def test_solve_pure_ternary(self):
        from alphatree.ternary import solve_pure_ternary

        inputs = _pinned_inputs(502, 60, range(1, 40, 2))
        assert _solver_outcomes(solve_pure_ternary, inputs) == self.PURE

    def test_dp_optimal(self):
        inputs = _pinned_inputs(505, 90, range(1, 41))
        assert _dp_outcomes(inputs) == self.DP

    def test_hu_tucker(self):
        from alphatree.binary import hu_tucker

        inputs = _pinned_inputs(503, 60, range(1, 60))
        assert _solver_outcomes(hu_tucker, inputs) == self.HU_TUCKER

    def test_hu_tucker_at_scale(self):
        from alphatree.binary import hu_tucker

        assert _solver_outcomes(hu_tucker, _scale_inputs(506)) == self.HU_TUCKER_AT_SCALE
