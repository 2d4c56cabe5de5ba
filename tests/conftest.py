"""Shared hand-encoded reference data for the worked sequences.

The two traces below are written out longhand, independently of the engine,
so tests can check the engine against them rather than the other way round.
"""

import contextlib
import sys

import pytest

from alphatree.core import CombinationStep, CombinationTrace, Participant

PLAIN = "plain"
OUTER = "outer"
ACC = "accordion-element"

SEVEN_WEIGHTS = (6, 6, 1, 10, 1, 6, 6)
FIFTEEN_WEIGHTS = (5, 5, 6, 6, 1, 10, 1, 11, 1, 10, 1, 6, 6, 5, 5)


@contextlib.contextmanager
def shallow_recursion(frames=50):
    """Lower the recursion limit to the current stack depth plus ``frames``:
    room for a few calls, not one per level of a deep tree."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _step(circle, weight, parts, span=None):
    """A step, with the roles and accordion span written out beside it: the
    step derives both from its participants, and the tests compare."""
    step = CombinationStep(circle, weight, tuple(Participant(r, s) for r, s, _role in parts))
    return step, tuple(role for _r, _s, role in parts), span


SEVEN_STEPS = (
    _step(7, 12, [(2, 1, PLAIN), (3, 1, PLAIN), (4, 1, PLAIN)]),
    _step(
        8,
        14,
        [(0, 1, OUTER), (1, 1, ACC), (3, -1, ACC), (5, 1, ACC), (6, 1, OUTER)],
        span=(1, 5),
    ),
    _step(9, 36, [(8, 1, PLAIN), (7, 1, PLAIN), (3, 1, PLAIN)]),
)

FIFTEEN_STEPS = (
    _step(15, 12, [(4, 1, PLAIN), (5, 1, PLAIN), (6, 1, PLAIN)]),
    _step(16, 12, [(8, 1, PLAIN), (9, 1, PLAIN), (10, 1, PLAIN)]),
    _step(
        17,
        15,
        [
            (2, 1, OUTER),
            (3, 1, ACC),
            (5, -1, ACC),
            (7, 1, ACC),
            (9, -1, ACC),
            (11, 1, ACC),
            (12, 1, OUTER),
        ],
        span=(3, 11),
    ),
    _step(
        18,
        17,
        [
            (0, 1, OUTER),
            (1, 1, ACC),
            (3, -1, ACC),
            (5, 1, ACC),
            (7, -1, ACC),
            (9, 1, ACC),
            (11, -1, ACC),
            (13, 1, ACC),
            (14, 1, OUTER),
        ],
        span=(1, 13),
    ),
    _step(19, 23, [(3, 1, PLAIN), (7, 1, PLAIN), (11, 1, PLAIN)]),
    _step(20, 39, [(17, 1, PLAIN), (15, 1, PLAIN), (16, 1, PLAIN)]),
    _step(21, 79, [(18, 1, PLAIN), (20, 1, PLAIN), (19, 1, PLAIN)]),
)


@pytest.fixture
def seven_trace():
    """(1,10,1) -> accordion (6, (+6,-10,+6), 6) -> final triple."""
    return CombinationTrace(7, tuple(step for step, _roles, _span in SEVEN_STEPS))


@pytest.fixture
def fifteen_trace():
    """Two centre triples, two accordions, the square triple, then the queue."""
    return CombinationTrace(15, tuple(step for step, _roles, _span in FIFTEEN_STEPS))
