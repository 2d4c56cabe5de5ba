"""Level assignment and reconstruction shared by the binary and ternary engines.

Levels are signed: a combination can consume a previously combined leaf with
negative weight, and each such occurrence subtracts its depth.  Reconstruction
turns a level sequence back into the unique forest the rules below allow.
Every solver gets its tree and levels here, from ``report_from_trace`` on its
own combination trace.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    AlphaTree,
    CombinationTrace,
    SolveReport,
    StructureError,
    TraceError,
    TreeBuilder,
    tree_cost,
    validate_weights,
)

MODE_BINARY = "binary"
MODE_MIXED = "ternary-mixed"
MODE_PURE = "pure-ternary"


class InvalidLevelSequence(StructureError):
    """The level sequence admits no reconstruction under the requested mode."""


def signed_levels(trace: CombinationTrace) -> tuple:
    """Per-leaf level implied by a trace (complete or prefix).

    Every occurrence of a leaf among a circle's participants contributes
    sign * depth, where depth is measured with all participants (accordion
    elements included) as direct children of their circle.  Uncombined
    leaves sit at level 0.
    """
    n = trace.n_leaves
    consumer = {}
    for s in trace.steps:
        for p in s.participants:
            if p.ref >= n and p.sign > 0:
                if p.ref in consumer:
                    raise TraceError(f"circle {p.ref} consumed twice")
                consumer[p.ref] = s.circle
    depth = {}
    for s in reversed(trace.steps):
        c = s.circle
        depth[c] = depth[consumer[c]] + 1 if c in consumer else 0
    levels = [0] * n
    for s in trace.steps:
        d = depth[s.circle] + 1
        for p in s.participants:
            if p.ref < n:
                levels[p.ref] += p.sign * d
    return tuple(levels)


def top_trees(levels: Sequence[int], start: int = 0, mode: str = MODE_PURE, pairs=(), join=None):
    """The top-level trees of the forest a level sequence describes, from
    position ``start`` on, as one left-to-right stack pass closes them.

    Each leaf is placed on the stack, then merges with the items below it
    as long as they complete a group: in binary mode two items at one
    positive level, in the ternary modes three.  A binary node of a ternary
    tree comes only from ``pairs``, the leaf spans of the trace's
    two-participant steps: a pair (lo, i) forms once the top item ends at
    leaf ``i``, if the item below it starts at leaf ``lo``, both sit at the
    same positive level, and the pair starts its run, so no three-item
    merge could take its children.  Merging as soon as a group appears is
    equivalent to repeatedly combining the leftmost maximal run at the
    current maximum level.

    Yields ``(first, last, root, centre)`` for each tree as it closes at
    level 0, left to right: its leaf span, its root's node id, and the leaf
    index of its root's middle child, or None when that child is combined,
    the root is binary or the tree is a bare leaf.  Nodes are built only
    through ``join`` (``TreeBuilder.internal``), whose leaf ids are the leaf
    indexes; without it a combined root's id is ``len(levels)``.  A level-0
    item never takes part in a later merge, so each top-level tree parses
    on its own, and a parse may start at the first leaf of any tree.

    Raises ``InvalidLevelSequence`` at the first negative level, or, once an
    item is stuck above level 0, after counting the stuck items through the
    end of the sequence.  So a parse that starts past a prefix of whole
    trees raises the whole pass's text."""
    n = len(levels)
    below = -1 if mode == MODE_BINARY else -2  # a group's first item below a new one
    # node id and level of each stack item, over two sentinels at a level no
    # item has, so a group check always has two items to read; with pairs,
    # also the leaf after each, the second sentinel's the first leaf of the
    # tree being parsed
    ids, lv, after = [None, None], [-1, -1], [None, start]
    first = start
    stuck = 0
    for i in range(start, n):
        l = levels[i]
        if l < 0:
            raise InvalidLevelSequence(f"negative level in {tuple(levels)}")
        item, mid = i, n  # mid: the middle child of the last merge, n for none
        while True:
            while lv[-1] == l == lv[below]:  # stack levels are positive
                mid = ids[-1]
                item = join((*ids[below:], item)) if join else n
                del ids[below:], lv[below:]
                if pairs:
                    del after[below:]
                l -= 1
            # a trace pair whose left child, the top item, starts its run
            if not (pairs and lv[-1] == l != lv[-2] and (after[-2], i) in pairs):
                break
            item, mid = join((ids[-1], item)) if join else n, n
            del ids[-1], lv[-1], after[-1]
            l -= 1
        if l:
            ids.append(item)
            lv.append(l)
            if pairs:
                after.append(i + 1)
            continue
        if len(lv) > 2:  # under a level-0 item, nothing merges again
            stuck += len(lv) - 2
            del ids[2:], lv[2:], after[2:]
        elif not stuck:
            yield first, i, item, mid if below == -2 and mid < n else None
        first = after[1] = i + 1
    if stuck or len(lv) > 2:
        raise InvalidLevelSequence(
            f"cannot reduce levels {list(levels)} in {mode} mode; "
            f"stuck with {stuck + len(lv) - 2} node(s) above level 0"
        )


def _reconstruct(levels, ws: tuple, mode, pairs=frozenset()) -> AlphaTree:
    """The forest ``top_trees`` builds over validated weights."""
    if len(levels) != len(ws):
        raise StructureError("levels and weights differ in length")
    builder = TreeBuilder(ws)
    return builder.finish(
        [root for _f, _l, root, _c in top_trees(levels, 0, mode, pairs, builder.internal)]
    )


def pure_centre_leaves(levels: Sequence[int]) -> list:
    """Centre leaves of the top-level triples of the pure-ternary forest,
    left to right: the whole-sequence pass of ``top_trees``."""
    return [centre for _f, _l, _r, centre in top_trees(levels) if centre is not None]


def reconstruct_from_levels(
    levels: Sequence[int], weights: Sequence[int], mode: str
) -> AlphaTree:
    """Rebuild the binary or pure-ternary forest a level sequence describes.

    Scans runs of maximum-level nodes left to right and combines the
    leftmost two (``MODE_BINARY``) or three (``MODE_PURE``) of a run.
    Raises InvalidLevelSequence when this cannot terminate, e.g. a singleton
    run, or a leftover pair in pure-ternary mode.  Levels alone do not say
    where a mixed tree's binary nodes sit, so ``MODE_MIXED`` raises
    ValueError: those come from the tree's trace (``report_from_trace``).
    """
    if mode == MODE_MIXED:
        raise ValueError(
            "a mixed tree's binary nodes come from its trace; use report_from_trace"
        )
    if mode not in (MODE_BINARY, MODE_PURE):
        raise ValueError(f"unknown mode {mode!r}")
    return _reconstruct(tuple(levels), validate_weights(weights), mode)


def report_from_trace(
    algorithm: str, trace: CombinationTrace, weights: Sequence[int]
) -> SolveReport:
    """The ``SolveReport`` of a complete trace, by deterministic replay.

    Validates the trace, derives the signed levels (the reported levels),
    then reconstructs the tree: in binary mode when every step has two
    participants, else in mixed mode when some step has two participants
    (``pair_steps``' leaf spans pin down where the binary nodes sit), else
    in pure-ternary mode.  The tree is alphabetic, and a TraceError is
    raised unless its cost equals the sum of the trace increments.  ``hu_tucker``, ``solve_pure_ternary`` and ``general_solve``
    each build their report with this one call on their final trace."""
    ws = validate_weights(weights)
    trace.validate(ws)
    levels = signed_levels(trace)
    pairs = frozenset()
    if all(s.arity == 2 for s in trace.steps):
        mode = MODE_BINARY
    else:
        pairs = frozenset(trace.pair_steps())
        mode = MODE_MIXED if pairs else MODE_PURE
    tree = _reconstruct(levels, ws, mode, pairs)
    got = tree_cost(tree, ws)
    want = trace.total()
    if got != want:
        raise TraceError(f"replayed tree costs {got}, trace increments sum to {want}")
    return SolveReport(
        algorithm=algorithm,
        weights=ws,
        cost=want,
        levels=levels,
        tree=tree,
        trace=trace,
    )
