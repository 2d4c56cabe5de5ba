import random
from dataclasses import dataclass

import pytest

from alphatree.binary import hu_tucker, phase1_combine_binary
from alphatree.core import StructureError, validate_weights
from alphatree.levels import MODE_BINARY, reconstruct_from_levels, signed_levels
from alphatree.core import leaf_levels
from alphatree.oracle import dp_optimal


SQUARE = "square"
CIRCLE = "circle"


@dataclass
class SeqNode:
    """A working-sequence entry of the naive rescan: an original leaf
    (square) or a merge product (circle)."""

    id: int
    kind: str
    weight: int

    @property
    def is_square(self) -> bool:
        return self.kind == SQUARE


def sq(i, w):
    return SeqNode(i, SQUARE, w)


def ci(i, w):
    return SeqNode(i, CIRCLE, w)


def compatible_pairs(seq):
    """All index pairs (i, j), i < j, with no square strictly between them:
    the pairs the naive rescan below tries."""
    out = []
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            out.append((i, j))
            if seq[j].is_square:
                break
    return out


class TestCompatiblePairs:
    def test_all_squares_gives_adjacent_pairs(self):
        seq = [sq(0, 4), sq(1, 2), sq(2, 3), sq(3, 4)]
        assert compatible_pairs(seq) == [(0, 1), (1, 2), (2, 3)]

    def test_circle_is_transparent(self):
        seq = [sq(0, 4), ci(1, 5), sq(2, 3)]
        assert compatible_pairs(seq) == [(0, 1), (0, 2), (1, 2)]

    def test_cross_over_after_first_combination(self):
        # state of {4,2,3,4} after merging (2,3): the outer squares see
        # each other across the circle
        seq = [sq(0, 4), ci(1, 5), sq(2, 4)]
        assert (0, 2) in compatible_pairs(seq)


class TestPhase1:
    def test_reference_step_weights(self):
        assert phase1_combine_binary((4, 2, 3, 4)).increments() == (5, 8, 13)

    def test_two_leaves(self):
        assert phase1_combine_binary((1, 1)).increments() == (2,)

    def test_three_leaves_derived_by_enumeration(self):
        # only two first moves exist; (1,2) is the cheaper, then one pair
        weights = (1, 2, 3)
        first = min(weights[0] + weights[1], weights[1] + weights[2])
        assert phase1_combine_binary(weights).increments() == (first, 6)

    def test_empty_input_rejected(self):
        with pytest.raises(StructureError):
            phase1_combine_binary(())

    def test_window_scan_matches_naive_rescan(self):
        # the per-gap heaps must be trace-equivalent to scanning every
        # compatible pair on every step; narrow weight ranges make ties
        # and zeros, so the (weight, position) tie-break decides most steps
        rng = random.Random(5)
        for k in range(2000):
            hi = (0, 1, 3, 20, 10**6)[k % 5]
            n = rng.randint(1, 60)
            ws = tuple(rng.randint(0, hi) for _ in range(n))
            assert phase1_combine_binary(ws) == _naive_phase1(ws)


def _naive_phase1(weights):
    """The quadratic reference: every step rescans every compatible pair
    and takes the least (sum, left index, right index)."""
    from alphatree.core import CombinationStep, CombinationTrace, Participant

    n = len(weights)
    seq = [sq(i, w) for i, w in enumerate(weights)]
    steps = []
    for k in range(n - 1):
        best = None
        for i, j in compatible_pairs(seq):
            key = (seq[i].weight + seq[j].weight, i, j)
            if best is None or key < best:
                best = key
        w, i, j = best
        steps.append(
            CombinationStep(
                n + k,
                w,
                (
                    Participant(seq[i].id, 1),
                    Participant(seq[j].id, 1),
                ),
            )
        )
        seq[i] = ci(n + k, w)
        del seq[j]
    return CombinationTrace(n, tuple(steps))


class TestHuTucker:
    def test_reference_example(self):
        report = hu_tucker((4, 2, 3, 4))
        assert report.cost == 26
        assert report.levels == (2, 2, 2, 2)
        assert report.tree.to_nested() == [[4, 2], [3, 4]]

    def test_single_leaf(self):
        report = hu_tucker((5,))
        assert report.cost == 0
        assert report.levels == (0,)

    def test_matches_dp_on_random_inputs(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 12)
            ws = tuple(rng.randint(0, 50) for _ in range(n))
            assert hu_tucker(ws).cost == dp_optimal(ws, (2,))[0]

    def test_cost_equals_sum_of_increments(self):
        rng = random.Random(13)
        for _ in range(50):
            ws = tuple(rng.randint(0, 30) for _ in range(rng.randint(1, 10)))
            report = hu_tucker(ws)
            assert report.cost == sum(report.trace.increments())

    def test_signed_levels_equal_tree_levels_for_binary(self):
        rng = random.Random(17)
        for _ in range(50):
            ws = tuple(rng.randint(1, 30) for _ in range(rng.randint(2, 10)))
            report = hu_tucker(ws)
            assert signed_levels(report.trace) == leaf_levels(report.tree)

    def test_prefix_yields_k_sum_forest(self):
        # stopping after k merges and replaying levels gives a forest with
        # exactly k internal nodes
        ws = (4, 2, 3, 4, 7, 1, 5)
        trace = phase1_combine_binary(ws)
        for k in range(len(trace.steps) + 1):
            levels = signed_levels(trace.prefix(k))
            forest = reconstruct_from_levels(levels, ws, MODE_BINARY)
            internal = [nd for nd in forest.nodes if not nd.is_leaf]
            assert len(internal) == k


class TestWeightValidation:
    BAD = [[], [1, -1], [1, 2.5], [True, 1]]

    @pytest.mark.parametrize("ws", BAD, ids=["empty", "negative", "float", "bool"])
    def test_public_entry_points_reject_bad_weights(self, ws):
        with pytest.raises(StructureError) as want:
            validate_weights(ws)
        entry_points = [
            hu_tucker,
            phase1_combine_binary,
            lambda ws: reconstruct_from_levels([1] * len(ws), ws, MODE_BINARY),
        ]
        for entry in entry_points:
            with pytest.raises(StructureError) as got:
                entry(ws)
            assert str(got.value) == str(want.value)

    def test_hu_tucker_checks_its_weights_four_times(self, monkeypatch):
        # once in hu_tucker, then in report_from_trace, CombinationTrace.validate
        # and tree_cost, each public; the combination and the replay's
        # reconstruction read the checked tuple
        calls = [0]

        def counted(weights):
            calls[0] += 1
            return validate_weights(weights)

        for module in ("alphatree.binary", "alphatree.levels", "alphatree.core"):
            monkeypatch.setattr(f"{module}.validate_weights", counted)
        assert hu_tucker((4, 2, 3, 4)).cost == 26
        assert calls[0] == 4
