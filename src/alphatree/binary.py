"""Optimal alphabetic binary trees via three-phase greedy combination.

Phase one repeatedly merges the cheapest compatible pair (no original leaf
strictly between the two nodes), phase two assigns levels, phase three
rebuilds the tree from the level sequence.

The live squares (original leaves not yet merged) cut the working sequence
into gaps of circles (merge products).  Two nodes are compatible exactly
when they lie in one window: a gap's circles with the squares bounding it.
Each gap keeps a heap of its circles, and a global heap holds each window's
best pair, so a step touches only the one gap it changes: the per-block
priority queues of Hu & Tucker (1971; TAOCP Vol. 3 section 6.2.2).
O(n log^2 n) overall.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence, Tuple

from .core import (
    CombinationStep,
    CombinationTrace,
    Participant,
    SolveReport,
    validate_weights,
)
from .levels import report_from_trace


def _combine(ws: tuple) -> Tuple[CombinationTrace, int]:
    """Phase one over validated weights: the trace and the number of window
    keys computed.

    A node is ``(weight, slot, id)``; its slot is that of its left
    participant, so slot order is sequence order and ``(weight, slot)`` is
    the ``(weight, index)`` tie-break of a rescan.  A gap is named by the
    square that bounds it on the left, and ``head`` (= n) names the gap
    before the first live square.
    """
    n = len(ws)
    head = n
    leaves = [(w, i, i) for i, w in enumerate(ws)]
    right = list(range(1, n)) + [None, 0]  # right[g]: square closing gap g
    left = [head] + list(range(n - 1))  # left[s]: gap ending at square s
    circles = [[] for _ in range(n + 1)]  # gap -> heap of its circles
    stamp = [None] * (n + 1)  # gap -> stamp of its live key, None if none
    queue = []  # window keys: (sum, slot, slot, stamp, gap, node, node)
    keys = 0

    def push_window(g):
        # the window's two lightest nodes are among its bounding squares
        # and the two lightest circles, which heap[:3] holds
        nonlocal keys
        nodes = circles[g][:3]
        if g != head:
            nodes.append(leaves[g])
        if right[g] is not None:
            nodes.append(leaves[right[g]])
        if len(nodes) < 2:
            stamp[g] = None
            return
        a, b = sorted(nodes)[:2]
        if a[1] > b[1]:
            a, b = b, a
        keys += 1
        stamp[g] = keys
        heappush(queue, (a[0] + b[0], a[1], b[1], keys, g, a, b))

    def consume(s):
        # square s becomes a circle's part: its two gaps merge into the
        # left one, the smaller heap pushed into the larger
        g, r = left[s], right[s]
        right[g] = r
        if r is not None:
            left[r] = g
        small, big = circles[s], circles[g]
        if len(small) > len(big):
            small, big = big, small
        for c in small:
            heappush(big, c)
        circles[g], circles[s], stamp[s] = big, None, None
        return g

    for g in range(n - 1):
        push_window(g)
    steps = []
    for k in range(n - 1):
        while True:
            w, _, _, key, g, a, b = heappop(queue)
            if stamp[g] == key:
                break
        circle = n + k
        pair = (Participant(a[2], 1), Participant(b[2], 1))
        steps.append(CombinationStep(circle, w, pair))
        # the chosen circles are the lightest of their gap, so they are the
        # top of its heap: pop them before any merge reorders it
        for node in (a, b):
            if node[2] >= n:
                heappop(circles[g])
        for node in (a, b):
            if node[2] < n:
                g = consume(node[2])
        heappush(circles[g], (w, a[1], circle))
        push_window(g)
    return CombinationTrace(n, tuple(steps)), keys


def phase1_combine_binary(weights: Sequence[int]) -> CombinationTrace:
    """Greedy combination: n-1 steps, each merging the cheapest compatible
    pair, ties to the leftmost (left, right) positions; the new circle takes
    the position of its left participant."""
    return _combine(validate_weights(weights))[0]


def hu_tucker(weights: Sequence[int]) -> SolveReport:
    """Full pipeline: combine, assign levels, reconstruct (the last two are
    the replay of the combination trace)."""
    ws = validate_weights(weights)
    return report_from_trace("hu-tucker", _combine(ws)[0], ws)
