"""Optimal alphabetic binary trees via three-phase greedy combination.

Phase one repeatedly merges the cheapest compatible pair (no original leaf
strictly between the two nodes), phase two assigns levels, phase three
rebuilds the tree from the level sequence.  The per-step rescan here is the
quadratic reference implementation; anything faster must be trace-equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from .core import (
    CombinationStep,
    CombinationTrace,
    Participant,
    ROLE_PLAIN,
    SolveReport,
    StructureError,
    validate_weights,
)
from .levels import report_from_trace

SQUARE = "square"
CIRCLE = "circle"


@dataclass
class SeqNode:
    """A working-sequence entry: an original leaf (square) or a merge product
    (circle)."""

    id: int
    kind: str
    weight: int

    @property
    def is_square(self) -> bool:
        return self.kind == SQUARE


def _best_pair(seq: Sequence[SeqNode]) -> Tuple[int, int]:
    """Minimum-weight compatible pair; ties resolved by (left index, right
    index).  Within a square-delimited window any two nodes are compatible,
    so the window minimum is its two smallest weights."""
    best = None
    start = 0
    n = len(seq)
    while start < n - 1:
        end = start + 1
        while end < n and not seq[end].is_square:
            end += 1
        window = range(start, min(end, n - 1) + 1)
        two = sorted(window, key=lambda i: (seq[i].weight, i))[:2]
        if len(two) == 2:
            i, j = sorted(two)
            key = (seq[i].weight + seq[j].weight, i, j)
            if best is None or key < best:
                best = key
        start = end
    if best is None:
        raise StructureError("no compatible pair in sequence")
    return best[1], best[2]


def phase1_combine_binary(weights: Sequence[int]) -> CombinationTrace:
    """Greedy combination: n-1 steps, each merging the cheapest compatible
    pair; the new circle takes the position of its left participant."""
    ws = validate_weights(weights)
    n = len(ws)
    seq = [SeqNode(i, SQUARE, w) for i, w in enumerate(ws)]
    steps = []
    for k in range(n - 1):
        i, j = _best_pair(seq)
        left, right = seq[i], seq[j]
        w = left.weight + right.weight
        circle = n + k
        steps.append(
            CombinationStep(
                circle=circle,
                weight=w,
                participants=(
                    Participant(left.id, 1, ROLE_PLAIN),
                    Participant(right.id, 1, ROLE_PLAIN),
                ),
            )
        )
        seq[i] = SeqNode(circle, CIRCLE, w)
        del seq[j]
    return CombinationTrace(n, tuple(steps))


def hu_tucker(weights: Sequence[int]) -> SolveReport:
    """Full pipeline: combine, assign levels, reconstruct (the last two are
    the replay of the combination trace)."""
    ws = validate_weights(weights)
    return report_from_trace("hu-tucker", phase1_combine_binary(ws), ws)
