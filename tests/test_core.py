import json
import re
from dataclasses import replace

import pytest

from alphatree.core import (
    AlphaTree,
    CombinationTrace,
    StructureError,
    TraceError,
    Node,
    TreeBuilder,
    is_alphabetic,
    leaf_levels,
    tree_cost,
    validate_weights,
)
from tests.conftest import FIFTEEN_STEPS, SEVEN_STEPS, shallow_recursion


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

    @pytest.mark.parametrize("children", [(0,), (0, 1, 2, 3)])
    def test_builder_refuses_arity_outside_two_and_three(self, children):
        builder = TreeBuilder((1, 2, 3, 4))
        message = f"internal node arity {len(children)} not in (2, 3)"
        with pytest.raises(StructureError, match=re.escape(message)):
            builder.internal(children)

    def test_root_of_a_forest_refused(self):
        builder = TreeBuilder((1, 2, 3, 4))
        forest = builder.finish((builder.internal((0, 1)), builder.internal((2, 3))))
        assert leaf_levels(forest) == (1, 1, 1, 1)
        with pytest.raises(StructureError, match="expected a single root, found 2"):
            forest.root

    def test_levels_refuse_leaf_index_outside_range(self):
        tree = AlphaTree((Node((), 0, 1), Node((), 2, 1), Node((0, 1), None, 2)), (2,))
        with pytest.raises(StructureError, match=re.escape("leaf indexes do not cover 0..n-1")):
            leaf_levels(tree)

    @pytest.mark.parametrize(
        "inner",
        [
            (Node((0, 1, 2), None, 5),),
            (Node((1, 2), None, 4), Node((0, 3), None, 5)),
        ],
        ids=["one-triple", "nested-pair"],
    )
    def test_repeated_leaf_index_refused(self, inner):
        # leaves 1 and 2 both carry index 1, so three leaves stand for two
        # weights
        leaves = (Node((), 0, 1), Node((), 1, 2), Node((), 1, 2))
        tree = AlphaTree(leaves + inner, (len(leaves) + len(inner) - 1,))
        message = re.escape("leaf indexes do not cover 0..n-1")
        with pytest.raises(StructureError, match=message):
            leaf_levels(tree)
        with pytest.raises(StructureError, match=message):
            tree_cost(tree, (1, 2))

    def test_cost_rejects_wrong_leaf_weight(self):
        tree = AlphaTree.from_nested([[4, 2], [3, 4]])
        with pytest.raises(StructureError, match="leaf 3 stores weight 4, expected 5"):
            tree_cost(tree, (4, 2, 3, 5))


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

    def test_deep_tree_needs_no_deep_recursion(self):
        # a caterpillar over 1 200 leaves is 1 199 levels deep, and both
        # directions run with room for a few frames, not one per level
        builder = TreeBuilder(range(1200))
        node = 0
        for leaf in range(1, 1200):
            node = builder.internal([node, leaf])
        tree = builder.finish([node])
        with shallow_recursion():
            nested = tree.to_nested()
            again = AlphaTree.from_nested(nested)
        assert again == tree
        assert max(leaf_levels(again)) == 1199
        spine = nested
        for leaf in range(1199, 0, -1):
            assert spine[1] == leaf
            spine = spine[0]
        assert spine == 0

    def test_trace_round_trip(self, seven_trace, fifteen_trace):
        for trace in (seven_trace, fifteen_trace):
            obj = json.loads(json.dumps(trace.to_json_obj()))
            assert CombinationTrace.from_json_obj(obj) == trace

    def test_derived_roles_and_spans_match_reference(self):
        for encoded in (SEVEN_STEPS, FIFTEEN_STEPS):
            for step, roles, span in encoded:
                assert step.roles == roles
                assert step.accordion_span == span

    def test_empty_trace_round_trip_needs_count(self):
        trace = CombinationTrace(1, ())
        obj = trace.to_json_obj()
        assert CombinationTrace.from_json_obj(obj, n_leaves=1) == trace
        with pytest.raises(TraceError):
            CombinationTrace.from_json_obj(obj)


def _edit_step(trace, k, **change):
    steps = list(trace.steps)
    steps[k] = replace(steps[k], **change)
    return replace(trace, steps=tuple(steps))


def _edit_participant(trace, k, i, **change):
    parts = list(trace.steps[k].participants)
    parts[i] = replace(parts[i], **change)
    return _edit_step(trace, k, participants=tuple(parts))


def _edit_json(trace, k, edit, i=None):
    """Read the trace back from its JSON form after ``edit`` changed entry
    k, or participant i of entry k."""
    obj = json.loads(json.dumps(trace.to_json_obj()))
    edit(obj[k] if i is None else obj[k]["participants"][i])
    return CombinationTrace.from_json_obj(obj)


class TestTraceValidation:
    def test_reference_traces_validate(self, seven_trace, fifteen_trace):
        seven_trace.validate((6, 6, 1, 10, 1, 6, 6))
        fifteen_trace.validate((5, 5, 6, 6, 1, 10, 1, 11, 1, 10, 1, 6, 6, 5, 5))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: replace(t, n_leaves=8), "weight count does not match trace leaf count"),
            (lambda t: _edit_step(t, 0, circle=10), "step 0 creates circle 10, expected 7"),
            (
                lambda t: _edit_json(t, 0, lambda e: e.update(role="middle"), 0),
                "step 0 roles and span (['middle', 'plain', 'plain'], None) differ from the"
                " derived (['plain', 'plain', 'plain'], None)",
            ),
            (
                lambda t: _edit_json(t, 0, lambda e: e.update(role="outer"), 2),
                "step 0 roles and span (['plain', 'plain', 'outer'], None) differ from the"
                " derived (['plain', 'plain', 'plain'], None)",
            ),
            (
                lambda t: _edit_json(t, 2, lambda e: e.update(accordion_span=[8, 3])),
                "step 2 roles and span (['plain', 'plain', 'plain'], [8, 3]) differ from the"
                " derived (['plain', 'plain', 'plain'], None)",
            ),
            (
                lambda t: _edit_json(t, 1, lambda e: e.update(accordion_span=[1, 3])),
                "step 1 roles and span (['outer', 'accordion-element', 'accordion-element',"
                " 'accordion-element', 'outer'], [1, 3]) differ from the derived (['outer',"
                " 'accordion-element', 'accordion-element', 'accordion-element', 'outer'],"
                " [1, 5])",
            ),
            *(
                (
                    lambda t, key=key, i=i: _edit_json(t, 1, lambda e: e.pop(key), i),
                    f"step 1 lacks the field '{key}'",
                )
                for key, i in [("circle", None), ("weight", None), ("participants", None)]
                + [("index", 2), ("sign", 2), ("role", 2)]
            ),
            (lambda t: _edit_participant(t, 0, 0, sign=2), "bad participant sign 2"),
            (lambda t: _edit_participant(t, 0, 0, ref=7), "step 0 references unborn node 7"),
            (lambda t: _edit_participant(t, 2, 2, ref=7), "circle 7 consumed twice"),
        ],
        ids=[
            "leaf-count", "circle-id", "role", "role-mismatch", "plain-span", "accordion-span",
            "no-circle", "no-weight", "no-participants", "no-index", "no-sign", "no-role",
            "sign", "unborn", "consumed-twice",
        ],
    )
    def test_one_field_edit_rejected(self, seven_trace, edit, message):
        # the checks that guard a trace read back with from_json_obj: the
        # JSON edits fail in the reading, the others in validate
        with pytest.raises(TraceError) as exc:
            edit(seven_trace).validate((6, 6, 1, 10, 1, 6, 6))
        assert str(exc.value) == message

    def test_increment_mismatch_rejected(self, seven_trace):
        steps = list(seven_trace.steps)
        bad = steps[0]
        steps[0] = type(bad)(bad.circle, bad.weight + 1, bad.participants)
        with pytest.raises(TraceError):
            CombinationTrace(7, tuple(steps)).validate((6, 6, 1, 10, 1, 6, 6))

    def test_negative_circle_rejected(self, seven_trace):
        from alphatree.core import CombinationStep, Participant

        steps = (
            seven_trace.steps[0],
            CombinationStep(
                8, -2, (Participant(7, -1), Participant(0, 1), Participant(1, 1))
            ),
        )
        with pytest.raises(TraceError):
            CombinationTrace(7, steps).validate((6, 6, 1, 10, 1, 6, 6))
