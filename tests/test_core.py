import json

import pytest

from alphatree.core import (
    AlphaTree,
    CombinationTrace,
    StructureError,
    TraceError,
    Node,
    is_alphabetic,
    leaf_levels,
    tree_cost,
    validate_weights,
)


class TestWeightValidation:
    def test_rejects_empty(self):
        with pytest.raises(StructureError):
            validate_weights([])

    def test_rejects_negative_and_nonint(self):
        with pytest.raises(StructureError):
            validate_weights([1, -2])
        with pytest.raises(StructureError):
            validate_weights([1.5])
        with pytest.raises(StructureError):
            validate_weights([True])


class TestTreeOps:
    def test_cost_of_reference_binary_tree(self):
        tree = AlphaTree.from_nested([[4, 2], [3, 4]])
        assert tree_cost(tree, (4, 2, 3, 4)) == 26

    def test_cost_single_leaf(self):
        tree = AlphaTree.from_nested(7)
        assert tree_cost(tree, (7,)) == 0
        assert leaf_levels(tree) == (0,)

    def test_cost_heavy_centre_tree_and_internal_identity(self):
        tree = AlphaTree.from_nested([[1, 1], 100, [1, 1]])
        # independent tally: internal subtree weights are 2, 2, and 104
        assert sorted(tree.internal_weights()) == [2, 2, 104]
        assert sum(tree.internal_weights()) == 108
        assert tree_cost(tree, (1, 1, 100, 1, 1)) == 108

    def test_levels_of_ternary_tree(self):
        tree = AlphaTree.from_nested([[6, 6, 1], 10, [1, 6, 6]])
        assert leaf_levels(tree) == (2, 2, 2, 1, 2, 2, 2)

    def test_levels_of_binary_tree(self):
        tree = AlphaTree.from_nested([[4, 2], [3, 4]])
        assert leaf_levels(tree) == (2, 2, 2, 2)

    def test_alphabetic_true_for_built_trees(self):
        assert is_alphabetic(AlphaTree.from_nested([[4, 2], [3, 4]]))
        assert is_alphabetic(AlphaTree.from_nested([[1, 1, 100], 100, [1, 1]]))

    def test_alphabetic_false_for_swapped_leaves(self):
        nodes = (
            Node((), 1, 4),  # leaf order swapped on purpose
            Node((), 0, 2),
            Node((), 2, 3),
            Node((), 3, 4),
            Node((0, 1), None, 6),
            Node((2, 3), None, 7),
            Node((4, 5), None, 13),
        )
        tree = AlphaTree(nodes, (6,))
        assert not is_alphabetic(tree)

    def test_cost_rejects_wrong_leaf_count(self):
        tree = AlphaTree.from_nested([[4, 2], [3, 4]])
        with pytest.raises(StructureError):
            tree_cost(tree, (4, 2, 3))

    def test_arity_limits(self):
        with pytest.raises(StructureError):
            AlphaTree.from_nested([1, 2, 3, 4])


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "nested",
        [
            [[4, 2], [3, 4]],
            [[1, 1], 100, [1, 1]],
            [[6, 6, 1], 10, [1, 6, 6]],
            5,
            [[1, [2, 3]], [4, 5], 6],
        ],
    )
    def test_tree_round_trip(self, nested):
        tree = AlphaTree.from_nested(nested)
        again = AlphaTree.from_nested(json.loads(json.dumps(tree.to_nested())))
        assert again == tree
        assert again.to_nested() == (nested if isinstance(nested, list) else nested)

    def test_trace_round_trip(self, seven_trace, fifteen_trace):
        for trace in (seven_trace, fifteen_trace):
            obj = json.loads(json.dumps(trace.to_json_obj()))
            assert CombinationTrace.from_json_obj(obj) == trace

    def test_empty_trace_round_trip_needs_count(self):
        trace = CombinationTrace(1, ())
        obj = trace.to_json_obj()
        assert CombinationTrace.from_json_obj(obj, n_leaves=1) == trace
        with pytest.raises(TraceError):
            CombinationTrace.from_json_obj(obj)


class TestTraceValidation:
    def test_reference_traces_validate(self, seven_trace, fifteen_trace):
        seven_trace.validate((6, 6, 1, 10, 1, 6, 6))
        fifteen_trace.validate((5, 5, 6, 6, 1, 10, 1, 11, 1, 10, 1, 6, 6, 5, 5))

    def test_increment_mismatch_rejected(self, seven_trace):
        steps = list(seven_trace.steps)
        bad = steps[0]
        steps[0] = type(bad)(bad.circle, bad.weight + 1, bad.participants, None)
        with pytest.raises(TraceError):
            CombinationTrace(7, tuple(steps)).validate((6, 6, 1, 10, 1, 6, 6))

    def test_negative_circle_rejected(self, seven_trace):
        from alphatree.core import CombinationStep, Participant

        steps = (
            seven_trace.steps[0],
            CombinationStep(
                8, -2, (Participant(7, -1, "accordion-element"), Participant(0, 1, "outer"), Participant(1, 1, "outer"))
            ),
        )
        with pytest.raises(TraceError):
            CombinationTrace(7, steps).validate((6, 6, 1, 10, 1, 6, 6))
