"""Ternary tree engine.

Builds optimal alphabetic trees whose internal nodes have up to three
children.  A scan finds permanent runs (adjacent leaves whose sum is lighter
than both neighbours); each run becomes a subproblem solved as one subtree or
as a two-root forest, and the solver cost-compares those choices together
with the placement of the single bottom pair an even unit count requires.
The greedy combination phase then merges the cheapest compatible triple each
step, where the middle of a triple may be an accordion: an alternating chain
of live squares and previously combined centre leaves taken negatively.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from operator import attrgetter, itemgetter
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain
from typing import Dict, List, Sequence, Tuple

from .core import (
    CombinationStep,
    CombinationTrace,
    Infeasible,
    Participant,
    SolveReport,
    StructureError,
    _walk,
    validate_weights,
)
from .levels import (
    MODE_PURE,
    InvalidLevelSequence,
    pure_centre_leaves,
    reconstruct_from_levels,
    report_from_trace,
    top_trees,
)
from .oracle import _dp_tables, _fill_tables, _merged_pair_optima, _splits


class EngineError(RuntimeError):
    """An internal invariant of the combination engine failed."""


# ---------------------------------------------------------------------------
# Permanent circular nodes


def detect_pcns(weights: Sequence[int]) -> tuple:
    """The outermost permanent runs as ``(lo, hi)`` spans, left to right.  A
    permanent run is a span of two or more adjacent leaves whose sum is
    lighter than both neighbours; the full sequence itself never counts.
    The sequence ends count as infinitely heavy neighbours, so boundary runs
    qualify.  Runs nested inside one of these are found by calling this
    again on its span.

    Ends are heavy here because a run at an end has nothing on that side to
    combine with: it is forced together exactly like an interior run, so the
    solver must resolve it as a subproblem.  ``is_interior_pair_pcn_free``
    takes the opposite convention.

    One pass: from each start take the longest run, then go on past its end.
    Weights are nonnegative, so a start's sum only grows, and its scan stops
    once the sum reaches the left neighbour.  Runs never overlap partially:
    for R1 = i1..j1 and R2 = i2..j2 with i1 < i2 <= j1 < j2, w[i2-1] > ΣR2 >=
    w[j1+1] > ΣR1 >= w[i2-1].  So the longest run from the first start past
    the last one kept is outermost."""
    ws = validate_weights(weights)
    n = len(ws)
    out = []
    i = 0
    while i < n - 1:
        total, end = ws[i], None
        for j in range(i + 1, n if i else n - 1):  # the full sequence is no run
            total += ws[j]
            if i and total >= ws[i - 1]:
                break
            if j + 1 == n or total < ws[j + 1]:
                end = j
        if end is None:
            i += 1
        else:
            out.append((i, end))
            i = end + 1
    return tuple(out)


def is_interior_pair_pcn_free(weights: Sequence[int]) -> bool:
    """True when no adjacent pair is lighter than both its neighbours, with
    the sequence ends treated as infinitely light (boundary pairs pass).

    This is an instance filter (``random_instances(pcn_free=True)``, ``fuzz
    --pcn-free``), not a solver step: it rejects only a pair with a real,
    heavier leaf on each side, so ends are light and never count against a
    pair.  ``detect_pcns`` treats ends as infinitely heavy instead, so an
    input that passes this filter can still hold boundary permanent runs,
    which ``general_solve`` resolves as subproblems."""
    ws = validate_weights(weights)
    n = len(ws)
    for i in range(n - 1):
        s = ws[i] + ws[i + 1]
        left = ws[i - 1] if i > 0 else None
        right = ws[i + 2] if i + 2 < n else None
        if left is not None and right is not None and left > s and s < right:
            return False
    return True


# ---------------------------------------------------------------------------
# Engine state


@dataclass(frozen=True)
class Unit:
    """One combinable element of the working sequence: an original leaf, or
    the opaque root of an already-solved subproblem."""

    weight: int
    is_square: bool  # True for original leaves


@dataclass(slots=True)
class _Live:
    ref: int  # node id: a unit's is its position, below the unit count
    weight: int
    lo: int  # unit-coordinate span
    hi: int


_lo = attrgetter("lo")
_lo_hi = attrgetter("lo", "hi")  # the order of EngineState.live until the endgame
_ref = attrgetter("ref")

# fields of a segment summary, (first, last, reach_lo, reach_hi, count,
# key, left, right)
_reach_lo = itemgetter(2)
_reach_hi = itemgetter(3)
_seg_count = itemgetter(4)
_seg_key = itemgetter(5)


class EngineState:
    """Working state of the greedy combination phase over a unit sequence.

    Unit k has node id k in the steps, and with u units the circles are u,
    u + 1, ... in creation order, so a node id below u is a unit and is its
    position.  Tracks the live sequence, the trace so far, the top-level
    trees of the forest the signed unit levels realise, and in
    ``last_consumer`` each unit's owner: the circle that last consumed it
    positively, while that pairing is unspent.  Taking the unit negatively
    spends the pairing and drops the owner; the unit is then a live square
    until a new circle consumes it and becomes its owner.

    It also keeps, between steps, what the scan reads.  For the plain
    windows, lists parallel to ``live`` (see ``_windows``); a step splices
    them with ``live`` and recomputes only the stretch whose windows reach
    the nodes it replaced.  For the accordions: the elements by unit
    position (live units with sign +1 for a square and 0 for an opaque
    unit, the available negatives with sign -1), the count of live units,
    the live nodes in (hi, lo) order, and one summary per alternating
    segment that holds a negative (see ``_segment``), ordered by first
    position.  Each step brings all of it up to date over one
    hull, the unit positions under its new circle: ``available_negatives``
    parses the changed trees again and widens the hull by the negatives
    that changed, and ``_segments`` summarises the segments whose reach
    meets it again.  ``_scan`` only reads.  A step that leaves no unit live
    starts the queue endgame, where none of this is read again.
    """

    def __init__(self, units: Sequence[Unit]):
        self.units = tuple(units)
        u = len(self.units)
        if u % 2 == 0:
            raise Infeasible(f"exact-ternary combination needs an odd count, got {u}")
        # the exact sentinel for no window and no hit: the live weights sum
        # to the total, so a window or slice of nonnegative live weights
        # weighs no more, and twice the total plus one keeps a margin
        self._bound = 2 * sum(unit.weight for unit in self.units) + 1
        self._no_hit = (self._bound,)  # the key of a segment without a hit
        self.live: List[_Live] = [
            _Live(i, unit.weight, i, i) for i, unit in enumerate(self.units)
        ]
        self.steps: List[CombinationStep] = []
        self._levels = [0] * u  # signed level per unit position
        # per live circle, its (unit position, sign) occurrences, nested ones
        # included: consuming the circle deepens every one of them by one
        self._under: Dict[int, List[tuple]] = {}
        # the first unit position of each top-level tree of the realised
        # forest
        self._tree_starts = list(range(u))
        # (pos, weight, sign) by position, and the number of sign >= 0
        self._elems = [
            (i, unit.weight, 1 if unit.is_square else 0) for i, unit in enumerate(self.units)
        ]
        self._live_units = u
        # the live nodes as (hi, lo, ref, node), sorted: a unit's span is its
        # position, so units are in order
        self._by_hi = [(nd.hi, nd.lo, nd.ref, nd) for nd in self.live]
        # segment summaries ordered by first position
        self._segs: List[tuple] = []
        self.last_consumer: Dict[int, int] = {}
        self.stats = {"candidates": 0, "queue_steps": 0}
        self._cap: List[int] = [0] * u
        self._pair: List[int] = [0] * u
        self._need: List[int] = [0] * u
        self._cheap: List[int] = [0] * u
        self._count: List[int] = [0] * u
        self._windows(0, u, u)

    # -- derived views ----------------------------------------------------

    @property
    def done(self) -> bool:
        return len(self.live) <= 1

    def unit_levels(self) -> tuple:
        """Signed levels of the units under the combinations made so far."""
        return tuple(self._levels)

    def forest(self):
        """The cross-over-free forest the current levels describe."""
        levels = self.unit_levels()
        try:
            return reconstruct_from_levels(
                levels, [un.weight for un in self.units], MODE_PURE
            )
        except StructureError as exc:
            raise _unrealisable(levels, exc) from exc

    # -- stepping ----------------------------------------------------------

    def advance(self) -> CombinationStep:
        """Take the next step and return the ``CombinationStep`` it appended."""
        if self.done:
            raise EngineError("combination already complete")
        if self._live_units:
            step = self._scan()
        else:
            step = self._queue_step()
            self.stats["queue_steps"] += 1
        self._apply(*step)
        return self.steps[-1]

    def run(self) -> None:
        while not self.done:
            self.advance()
        try:
            pure_centre_leaves(self._levels)  # the final unit levels form one tree
        except InvalidLevelSequence as exc:
            raise _unrealisable(self._levels, exc) from exc

    # -- queue endgame -----------------------------------------------------

    def _queue_step(self) -> tuple:
        """Only circles remain: combine the three oldest, in creation order.
        Only an accordion step makes a unit live again, so once no unit is
        live none returns: from then on ``live`` holds the circles in
        creation order (``_apply`` replaces the three oldest with the new
        circle), and the scan's inputs, which no scan reads again, are no
        longer kept."""
        a, b, c = sorted(self.live[:3], key=_lo_hi)
        self.stats["candidates"] += 1
        return a.weight + b.weight + c.weight, a, (Participant(b.ref, 1),), c

    # -- candidate search ---------------------------------------------------

    def _windows(self, start: int, end: int, old_end: int) -> None:
        """Recompute the window quantities of ``live[start:end]`` in one
        backward pass and put them in place of the kept ones at
        ``start:old_end`` (``old_end >= end``); those from ``end`` on are
        still valid, and the pass starts from the first of them.  Per live
        index j:

        - ``_cap[j]``, the offset from j to the last index a window starting
          at j may reach (the first unit after j, or the end);
        - ``_pair[j] = w_j + min_to_blk[j + 1]``, where ``min_to_blk[k]`` is
          the minimum weight from k through the first unit at or after k
          (or the end);
        - ``_need[j]``, the minimum of ``_pair`` from j through the first
          unit at or after j (or m - 2);
        - ``_cheap[j] = w_j + _need[j + 1]``, the weight of the cheapest
          window starting at j;
        - ``_count[j] = min(cap[j], m - 2) - j``, the number of windows
          starting at j.

        Index m - 1 holds the engine's bound in ``_pair``, ``_need`` and
        ``_cheap``, so m - 2 holds its weight plus the bound in ``_cheap``;
        neither starts a window.  Units (leaves and opaque subproblem roots)
        block compatibility; only combination circles are transparent.  A
        start's quantities read the nodes from it through the second unit
        after it (or the end), and the offsets are relative, so an index
        keeps its quantities while the nodes from it through there stay."""
        live = self.live
        m, u = len(live), len(self.units)
        bound = self._bound
        caps, pairs, needs, cheaps, counts = kept = (
            self._cap, self._pair, self._need, self._cheap, self._count
        )
        if end < m:
            nd = live[end]
            w = nd.weight
            after = needs[old_end]  # need[j + 1]
            if nd.ref < u:
                nxt, to_blk = end, w  # cap[j], min_to_blk[j + 1]
            else:
                nxt = end + caps[old_end]
                to_blk = min(w, pairs[old_end] - w)
        for values in kept:  # a step leaves two nodes fewer
            del values[end:old_end]
        if end == m:
            end = m - 1
            nxt, to_blk, after = end, live[end].weight, bound
            caps[end], pairs[end], needs[end], cheaps[end], counts[end] = 0, bound, bound, bound, 0
        last = m - 2
        for j in range(end - 1, start - 1, -1):
            nd = live[j]
            w = nd.weight
            caps[j] = nxt - j
            counts[j] = (nxt if nxt <= last else last) - j
            cheaps[j] = w + after
            pairs[j] = q = w + to_blk
            if nd.ref < u:
                after, to_blk, nxt = q, w, j
            else:
                if q < after:
                    after = q
                if w < to_blk:
                    to_blk = w
            needs[j] = after

    def _segments(self, lo: int, hi: int) -> None:
        """Bring the segment summaries up to date after a step that changed
        the unit positions ``lo..hi``.  A summary reads only the elements
        and the live nodes' span ends from the element before its segment
        through the element after it (its reach), so one whose reach misses
        that hull still holds.  Reaches grow with the first position, so
        the others are one run of the list, found by bisection; they are
        dropped, and the segments around the negatives in the hull, widened
        by the dropped segments, are summarised again in their place."""
        segs = self._segs
        k = bisect_left(segs, lo, key=_reach_hi)
        stop = bisect_right(segs, hi, k, key=_reach_lo)
        if k < stop:
            lo, hi = min(lo, segs[k][0]), max(hi, segs[stop - 1][1])
        elems = self._elems
        p = len(elems)
        fresh = []
        end = 0  # past the last segment found
        for t in range(bisect_left(elems, (lo,)), bisect_left(elems, (hi + 1,))):
            if t < end or elems[t][2] >= 0:
                continue
            start = t
            while start > 0 and elems[start - 1][2] not in (0, elems[start][2]):
                start -= 1
            end = t + 1
            while end < p and elems[end][2] not in (0, elems[end - 1][2]):
                end += 1
            fresh.append(self._segment(start, end))
        segs[k:stop] = fresh

    def _segment(self, start: int, end: int) -> tuple:
        """The summary of the alternating segment ``_elems[start:end]``:
        ``(first, last, reach_lo, reach_hi, count, key, left, right)``, with
        the positions of its first and last elements; its reach, the
        positions of the elements before and after it (-1 and the unit count
        past either end); the number of its slices; and the key and outer
        nodes of its accordion candidate with the least key, or ``_no_hit``
        and None when no slice has an outer node on both sides.  Blockers
        (sign 0) and equal adjacent signs bound a segment.

        A slice runs from a positive element a to a later positive b, and
        signs alternate, so the positives sit two apart.  Its left outer is
        the lightest node whose span ends before position a, at or after
        the element before a, found by bisection in ``_by_hi``, the live
        nodes ordered by (hi, lo, ref); ties go to the least (lo, hi), and
        among equal spans to the least ref, the oldest.  Its right outer is
        the lightest node whose span starts after position b, at or before
        the element after b, found by bisection in ``live``; ties go to the
        leftmost ``hi``, then the first in live order.  A circle ending
        (starting) exactly on a live unit's position may not skip over it.

        With ``Q[t]`` the signed sum of the segment's weights from element t
        on, a slice with its outers weighs ``(left + Q[a]) + (right - Q[b +
        1])``.  Its key is (weight, left.lo, b - a + 1, right.hi, a's
        position), so for a start a the least is at the end b after it with
        the least ``right - Q[b + 1]``, the first on ties: one backward pass
        keeps that suffix minimum and compares the starts' keys."""
        elems = self._elems
        live = self.live
        by_hi = self._by_hi
        p, u = len(elems), len(self.units)
        tops = range(start if elems[start][2] > 0 else start + 1, end, 2)
        first, last = elems[start][0], elems[end - 1][0]
        reach_lo = elems[start - 1][0] if start > 0 else -1
        reach_hi = elems[end][0] if end < p else u
        count = len(tops) * (len(tops) - 1) // 2
        hit = self._no_hit, None, None  # (key, left, right)
        if not count:
            return first, last, reach_lo, reach_hi, 0, *hit
        lefts = []
        for a in tops[:-1]:
            k = 0
            edge = None  # a live unit's position a circle may not end on
            if a > 0:
                prev, _w, sign = elems[a - 1]
                k = bisect_left(by_hi, (prev,))
                edge = prev if sign >= 0 else None
            best = None
            for _h, _l, _r, nd in by_hi[k : bisect_left(by_hi, (elems[a][0],), k)]:
                if nd.ref >= u and nd.hi == edge:
                    continue
                if best is None or (nd.weight, nd.lo, nd.hi) < (best.weight, best.lo, best.hi):
                    best = nd
            lefts.append(best)
        rights = [None]  # none ends at the first positive
        for b in tops[1:]:
            k = bisect_right(live, elems[b][0], key=_lo)
            stop = len(live)
            edge = None
            if b + 1 < p:
                nxt, _w, sign = elems[b + 1]
                stop = bisect_right(live, nxt, k, key=_lo)
                edge = nxt if sign >= 0 else None
            best = None
            for nd in live[k:stop]:
                if nd.ref >= u and nd.lo == edge:
                    continue
                if best is None or (nd.weight, nd.hi) < (best.weight, best.hi):
                    best = nd
            rights.append(best)
        lefts.append(None)  # none starts at the last positive
        tail = None  # (right - Q[b + 1], b, right), the least over the ends seen
        q = -elems[end - 1][1] if elems[end - 1][2] < 0 else 0  # Q[a + 1]
        for a, left, right in zip(reversed(tops), reversed(lefts), reversed(rights)):
            if left is not None and tail is not None:
                v, b, end_right = tail
                w = left.weight + elems[a][1] + q + v
                key = (w, left.lo, b - a + 1, end_right.hi, elems[a][0])
                if key < hit[0]:
                    hit = key, left, end_right
            if right is not None:
                v = right.weight - q
                if tail is None or v <= tail[0]:
                    tail = (v, a, right)
            if a > start:
                q += elems[a][1] - elems[a - 1][1]
        return first, last, reach_lo, reach_hi, count, *hit

    def _scan(self) -> tuple:
        """The step to take, the least candidate by key, from the kept window
        quantities and the accordion segment summaries, as ``(weight, first,
        middle, last)`` (see ``_apply``).

        A window (i, j) takes any third member k in j+1 .. cap[j], so its
        cheapest completion is ``pair[j]``; a start i takes j in i+1 ..
        min(cap[i], m - 2), so its cheapest window costs ``w_i + need[i +
        1]``.  Each segment summary holds the key of its least accordion
        candidate, which starts with its weight.  The scan counts every
        window and slice in ``stats``, and compares the keys of the plain
        windows at the least weight without building them.  Its passes over
        the whole sequence are those of ``min``, ``sum``, ``list.count`` and
        ``list.index``."""
        live = self.live
        m = len(live)
        cap, pair, need, cheap = self._cap, self._pair, self._need, self._cheap
        best = min(cheap)
        segs = self._segs
        self.stats["candidates"] += sum(self._count) + sum(map(_seg_count, segs))
        hit = min(segs, key=_seg_key, default=None)
        hit_key = self._no_hit if hit is None else hit[5]
        if hit_key[0] < best:
            return self._hit_step(hit)
        # the first least plain key (best, a.lo, 1, c.hi, b.lo) over the
        # windows at the least weight, in (i, j, k) order
        least = None
        i = -1
        for _ in range(cheap.count(best)):
            i = cheap.index(best, i + 1)
            lower = need[i + 1]
            for j in range(i + 1, min(i + cap[i], m - 2) + 1):
                if pair[j] != lower:
                    continue
                third = pair[j] - live[j].weight
                for k in range(j + 1, j + cap[j] + 1):
                    if live[k].weight == third:
                        key = (best, live[i].lo, 1, live[k].hi, live[j].lo)
                        if least is None or key < least[0]:
                            least = key, i, j, k
        key, i, j, k = least
        if hit_key < key:
            return self._hit_step(hit)
        return best, live[i], (Participant(live[j].ref, 1),), live[k]

    def _hit_step(self, seg: tuple) -> tuple:
        """The accordion step of a segment summary with a hit.  Blockers
        (sign 0) bound every slice, so the elements are original leaves,
        named by their unit positions."""
        (w, _lo, size, _hi, first), left, right = seg[5:]
        i = bisect_left(self._elems, (first,))
        middle = tuple(Participant(pos, sign) for pos, _w, sign in self._elems[i : i + size])
        return w, left, middle, right

    # -- applying a step -----------------------------------------------------

    def _apply(self, weight: int, first: _Live, middle: tuple, last: _Live) -> None:
        """Take the step that combines the live nodes ``first`` and
        ``last`` with the ``Participant`` records of ``middle`` between
        them: a plain middle node, or an accordion's signed elements.  Its
        participants are the one record of what it consumes (sign +1) and
        takes negatively (sign -1), and its circle spans ``first.lo`` to
        ``last.hi``."""
        u = len(self.units)
        circle = u + len(self.steps)
        participants = (Participant(first.ref, 1), *middle, Participant(last.ref, 1))
        self.steps.append(CombinationStep(circle, weight, participants))
        levels = self._levels
        under = []
        consumed = set()  # live refs this step removes
        owned = []  # unit positions consumed positively
        negatives = []  # unit positions taken negatively
        for p in participants:
            if p.sign > 0:
                consumed.add(p.ref)
            if p.ref >= u:  # a circle, always taken positively
                nested = self._under.pop(p.ref)
                for t, sign in nested:
                    levels[t] += sign
                under.extend(nested)
            else:
                levels[p.ref] += p.sign
                under.append((p.ref, p.sign))
                if p.sign > 0:
                    owned.append(p.ref)
                else:
                    negatives.append(p.ref)
        self._under[circle] = under
        for pos in negatives:  # spends the pairing with the owner
            if self.last_consumer.pop(pos, None) is None:
                raise EngineError(f"negative use of unit {pos} without a fresh pairing")
        elems = self._elems
        self._live_units += len(negatives) - len(owned)
        for pos in owned:
            self.last_consumer[pos] = circle
            del elems[bisect_left(elems, (pos,))]
        for pos in negatives:  # live squares again
            elems[bisect_left(elems, (pos,))] = (pos, self.units[pos].weight, 1)
        live = self.live
        node = _Live(circle, weight, first.lo, last.hi)
        if not self._live_units:
            # no unit is live, so none returns (see _queue_step) and no
            # scan reads what the engine keeps for it again
            if owned:  # the step that took the last units
                live[:] = sorted((nd for nd in live if nd.ref not in consumed), key=_ref)
            else:  # a queue step took live[:3]
                del live[:3]
            live.append(node)
            return
        # every consumed node's lo lies in the span (a plain middle's hi may
        # lie past it), and so does every new node's: the step replaces the
        # stretch live[a:b].  New nodes go after equal keys, where a stable
        # sort would put them.  Only circles can share a span (a unit's is
        # its own position, a circle's two or more), so live holds equal
        # spans in creation order, which is ref order, as _by_hi does.
        a = bisect_left(live, node.lo, key=_lo)
        b = bisect_right(live, node.hi, key=_lo)
        stretch, by_hi = [], self._by_hi
        for nd in live[a:b]:
            if nd.ref not in consumed:
                stretch.append(nd)
                continue
            del by_hi[bisect_left(by_hi, (nd.hi, nd.lo, nd.ref))]
        new = [node]
        for pos in negatives:
            new.append(_Live(pos, self.units[pos].weight, pos, pos))
        for nd in new:
            insort(stretch, nd, key=_lo_hi)
            insort(by_hi, (nd.hi, nd.lo, nd.ref, nd))
        live[a:b] = stretch
        # the window quantities of a start read the nodes through the second
        # unit after it
        start, units = a, 0
        while units < 2 and start > 0:
            start -= 1
            units += live[start].ref < u
        self._windows(start, a + len(stretch), b)
        # the levels that changed are those of the positions under the new
        # circle
        lo, hi = available_negatives(self, min(under)[0], max(under)[0])
        self._segments(lo, hi)


def _unrealisable(levels, exc: StructureError) -> EngineError:
    return EngineError(f"cannot realise forest for unit levels {list(levels)}: {exc}")


def available_negatives(state: EngineState, lo: int, hi: int) -> Tuple[int, int]:
    """Bring the engine's available negatives up to date after a step that
    changed the levels of the unit positions ``lo..hi``, and return that
    hull widened by the positions of the negatives that changed.

    The available negatives are the unit positions usable with negative
    weight: original leaves sitting as the centre child of a top-level
    triple of the realised forest, each paired with the circle that last
    consumed it.  The engine keeps them as the sign -1 entries of
    ``_elems``; where the re-parsed trees' negatives changed, those entries
    are replaced.

    The forest's top-level triples come from the stack pass over the unit
    levels, and only what the step changed is parsed again: from the start
    of the tree that holds ``lo``, up to the first tree end at or past
    ``hi`` that an old tree start follows (or the end of the sequence).
    The trees before and after that stretch are unchanged, since each
    top-level tree parses on its own, and so are their negatives.  When the
    levels realise a forest, the first tree end at or past ``hi`` is such a
    point: the unchanged rest is whole new trees, its leaves' 3^-level sum
    to a whole number, so it cannot start inside an old tree.  Where no old
    start follows, the rest does not parse into whole trees, and the parse
    runs on to the error the whole pass raises.

    A centre leaf that is not a live square was consumed positively, so
    ``last_consumer`` holds its owner.  A leaf used negatively has no owner
    and is a live square again until a new circle consumes it and becomes
    its owner, so a spent pairing cannot show up here.
    ``EngineState._apply`` refuses a unit without an owner all the same."""
    starts = state._tree_starts
    k = j = bisect_right(starts, lo) - 1
    new_starts, centres = [], []
    try:
        for first, last, _root, centre in top_trees(state._levels, starts[k]):
            new_starts.append(first)
            if centre is not None:
                centres.append(centre)
            if last >= hi:
                j = bisect_right(starts, last, j)
                if j < len(starts) and starts[j] == last + 1:
                    break
        else:
            j = len(starts)
    except InvalidLevelSequence as exc:
        raise _unrealisable(state._levels, exc) from exc
    # the old negatives of the re-parsed trees are the sign -1 elements in
    # their positions, and a centre that is a live square has a sign +1 one
    elems, units = state._elems, state.units
    stop = starts[j] if j < len(starts) else len(units)
    stretch = elems[bisect_left(elems, (starts[k],)) : bisect_left(elems, (stop,))]
    old = [pos for pos, _w, sign in stretch if sign < 0]
    squares = {pos for pos, _w, sign in stretch if sign > 0}
    new = [c for c in centres if units[c].is_square and c not in squares]
    starts[k:j] = new_starts
    if old != new:
        for c in old:
            del elems[bisect_left(elems, (c,))]
        for c in new:
            insort(elems, (c, units[c].weight, -1))
        lo, hi = min(lo, *old, *new), max(hi, *old, *new)
    return lo, hi


# ---------------------------------------------------------------------------
# Entry points over raw leaves


def _solve_pure_ternary(weights: Sequence[int]) -> Tuple[SolveReport, dict]:
    """``solve_pure_ternary`` plus the engine's ``stats`` counters."""
    ws = validate_weights(weights)
    state = EngineState([Unit(w, True) for w in ws])
    state.run()
    trace = CombinationTrace(len(ws), tuple(state.steps))
    return report_from_trace("pure-ternary", trace, ws), state.stats


def solve_pure_ternary(weights: Sequence[int]) -> SolveReport:
    """Greedy exact-ternary combination over a sequence of leaves (odd
    count).  Each step takes the least candidate by key: minimum weight,
    then leftmost span start, then smallest accordion.  Once only circles
    remain they are combined three at a time in creation order."""
    return _solve_pure_ternary(weights)[0]


# ---------------------------------------------------------------------------
# General solver


@dataclass(frozen=True)
class _Sol:
    """The best tree found over one leaf span: its own engine run, over the
    units of ``spans`` (each solved as its own span), or a bare leaf, with
    no spans and no steps."""

    weight: int  # total leaf weight
    cost: int  # the tree's cost: every step's weight, its units' included
    spans: tuple  # the leaf span of each unit, left to right
    steps: tuple  # CombinationStep records over unit positions, creation order


class _GeneralSolver:
    # Above this many single-vs-two-root choice vectors, try only the plans
    # that split at most one run (all single-root, or exactly one fix).  The
    # cap is a heuristic, kept because the full product is slow to search:
    # over the top-level runs it is 1 536, 18 432 and 768 on the first
    # three 100-leaf draws from random.Random(700) (weights 0..100), and
    # 2 592, 82 944 and 36 864 at n=150 (random.Random(1050)).  Lifted, the
    # search reaches the DP optimum on each of those 100-leaf draws in two
    # or three engine runs, in 0.07 to 1.6 s, its target loop testing each
    # plan on the DP tables with no bound fill (0.6 to 37 s when the target
    # loop filled a bound per choice); the cap, not the greedy, makes their
    # gaps (README, "Plan search").  Where the capped search misses the
    # optimum, its target loop finds no plan that reaches it, and the
    # fallback loop picks the first cheapest completion.  Both bounds are
    # exact, so the skips do not change that choice.
    # No benchmark workload reaches it: on fuzz-general (n 13..20, weights
    # 0..100) the largest product is 48, over 556 solves of spans of three
    # or more leaves at seed 1 and 569 at seed 2.
    # test_general_solve_past_vector_cap pins its outputs.
    VECTOR_CAP = 512

    def __init__(self, weights):
        self.w = weights
        # each span's solution, a bare leaf's from the start
        self._memo: Dict[tuple, _Sol] = {(i, i): _Sol(w, 0, (), ()) for i, w in enumerate(weights)}
        self._tables = None  # the (2, 3) DP cost tables, built when first read
        self._prefix = list(accumulate(weights, initial=0))
        # the optimal splits by leaf span (see _optimal_shape)
        self._firsts: Dict[tuple, list] = {}
        self._seconds: Dict[tuple, list] = {}

    def solve_tree(self, lo: int, hi: int) -> _Sol:
        """The first cheapest completion, in plan order, over leaves lo..hi,
        memoised.  Each span is a frame of ``_walk``, ``_solve``, which
        yields each unit span it waits on, so spans are solved depth-first,
        units left to right, and nested permanent runs need no deep
        recursion."""
        return _walk((lo, hi), self._solve, self._memo)

    def _solve(self, lo: int, hi: int):
        """``solve_tree``'s frame.  A span with one plan runs it and reads
        no DP table; any other span is searched by ``_search``."""
        if hi == lo + 1:  # the binary pair, or a two-leaf run or run half
            # two square units, 0 and 1, combined into circle 2
            w = self.w[lo] + self.w[hi]
            pair = (Participant(0, 1), Participant(1, 1))
            return _Sol(w, w, ((lo, lo), (hi, hi)), (CombinationStep(2, w, pair),))
        plans = self._plans(lo, hi)
        first, second = next(plans), next(plans, None)
        if second is None:
            return (yield from self._run_plan(first[2]))
        return (yield from self._search(lo, hi, chain((first, second), plans)))

    def _search(self, lo: int, hi: int, plans):
        """The plan search of a span with more than one plan, aimed at the
        span's mixed-arity DP optimum; ``plans`` yields the span's
        ``_plans`` from the first.  No completion costs less than that
        optimum, and a plan's completion costs no less than its bound
        (``_choice_bounds``), so a plan whose bound is no lower than the
        best completion so far cannot replace it, as a later plan wins
        only on a strictly lower cost.

        The target loop goes through the plans in order, runs those that
        ``_optimal_shape`` passes, from the DP tables the optimum came from,
        and returns the first completion that costs the optimum.  A plan
        passes when some optimal tree over the span has each of its units as
        a node, with only ternary nodes above them (the pair, in a plan with
        one, is a unit: the one binary node, over its two leaves).  Every
        plan whose completion costs the optimum passes.  Write c(u) for a
        unit's DP optimum, counting the pair's binary node in its c(u), and
        T for the exact-ternary optimum over the unit weights, with the pair
        as one leaf.  The plan's bound, the units' solved costs plus T, is
        no higher than the completion's cost, and no lower than the sum of
        the c(u) plus T, which is the cost of one tree over the span, the
        units' optimal trees under the best ternary tree over them, so no
        lower than the optimum.  If the completion costs the optimum, all of
        these are equal: that tree is optimal, and the plan passes.  So
        every plan that can reach the optimum runs, in order, and the first
        that does is the plan the full search returns.  A plan that passes
        with a unit solved above its own optimum costs one engine run that
        cannot win.

        When none reaches the optimum, no completion costs it, and the
        fallback loop generates the plans again and keeps the first
        cheapest completion.  It runs each plan whose bound is below the
        best completion so far and no higher than the target loop's best
        cost, reusing the target loop's runs, and stops at the first
        completion that costs one more than the optimum, which no later
        plan beats.  Only this loop fills bounds, once per choice.  The
        ceiling and the reuse both save engine runs: on 150 seeded inputs of
        40 to 80 leaves (weights 0..3, 0..10 and 0..100 in turn), runs read
        529 with both, 632 without the ceiling and 538 without the reuse.
        The search, its tests and its order are this solver's engineering,
        not the paper's: they decide only which plans run, never which plan
        wins.  Part of ``_solve``'s frame: it returns the span's solution
        and yields, through ``_run_plan`` and ``_choice_bounds``, each unit
        span it waits on."""
        optimum = self._optimum_of(lo, hi)
        runs = {}  # by a plan's index
        sol = seen = None
        for i, (units, k, spans) in enumerate(plans):
            if units is not seen:  # a choice's plans share one units list
                seen, shapes = units, {}
            if not self._optimal_shape(spans, k, shapes):
                continue
            runs[i] = run = yield from self._run_plan(spans)
            if sol is None or run.cost < sol.cost:
                sol = run
                if sol.cost == optimum:
                    return sol
        ceiling = math.inf if sol is None else sol.cost + 1
        sol = seen = None
        for i, (units, k, spans) in enumerate(self._plans(lo, hi)):
            if units is not seen:
                seen, bounds = units, (yield from self._choice_bounds(units))
            bound = bounds[k or 0]  # an odd choice's one plan has k None
            if bound >= ceiling or sol is not None and bound >= sol.cost:
                continue
            if i not in runs:
                runs[i] = yield from self._run_plan(spans)
            if sol is None or runs[i].cost < sol.cost:
                sol = runs[i]
                if sol.cost == optimum + 1:
                    break
        return sol

    def _optimum_of(self, lo: int, hi: int) -> int:
        """The mixed-arity DP optimum over leaves lo..hi.  Every completion
        of every plan is a tree over those leaves with internal arities 2
        and 3, so none costs less.  The cost tables are fetched on the
        first read (row lo holds the tree over lo..hi at index hi - lo),
        so a solve whose spans each have one plan never builds them;
        ``_dp_tables`` keeps its last table set, so a ``dp_optimal(ws, (2,
        3))`` call on the same weights, before or after the solve, shares
        the build."""
        if self._tables is None:
            self._tables = _dp_tables(self.w, frozenset((2, 3)))
        return self._tables[0][lo][hi - lo]

    def _optimal_shape(self, spans, k, shapes: dict) -> bool:
        """Whether some optimal tree over the leaves of the plan with unit
        spans ``spans`` and its pair at index k (None for no pair) has each
        unit as a node, with only ternary nodes above them: the target
        loop's test in ``_search``.  A stretch of units a..b, over leaves
        x..y, passes if it is one unit, or if unit ends m1 < m2 inside it
        cut it into three stretches of odd unit counts that pass, with
        c(x..y) = W(x..y) + c(x..m1) + F(m1+1..y) and F(m1+1..y) =
        c(m1+1..m2) + c(m2+1..y), where c is the optimal tree cost and F
        the optimal two-tree forest cost.  Every subtree of an optimal tree
        is optimal over its leaves, so this is exactly a ternary root over
        optimal children whose own trees have the form.

        The splits that meet each equation depend only on the leaves, so
        the solver keeps them by leaf span as ``_splits`` lists them
        (``_firsts`` and ``_seconds``), and a plan only looks up which of
        them are its unit ends.  Each stretch is tested once per choice:
        ``shapes`` maps its leaf span, with the pair's first leaf when it
        holds the pair and -1 otherwise, to the result, since a stretch
        without the pair holds the same units in every plan of a choice.
        Depth-first on ``_walk``, so a deep tree needs no deep recursion,
        stopping at the first cut that passes; a single unit passes with no
        frame."""
        tables, firsts, seconds = self._tables, self._firsts, self._seconds
        prefix = self._prefix
        pair = -1 if k is None else spans[k][0]

        def unit_end(m: int, a: int, b: int):
            """The index in a..b of the unit that ends at leaf m, or None."""
            t = bisect_left(spans, (m + 1,), a, b + 1) - 1
            return t if spans[t][1] == m else None

        def key(need: tuple) -> tuple:
            x, y = spans[need[0]][0], spans[need[1]][1]
            return x, y, pair if x <= pair <= y else -1

        def cuts(a: int, b: int):
            """Whether units a..b, three or more, pass: yields each stretch
            (a', b') of two or more units that a cut needs and is sent back
            whether it passes, in order, until a cut passes."""
            x, y = spans[a][0], spans[b][1]
            if (x, y) not in firsts:
                firsts[x, y] = list(_splits(tables, 1, x, y, prefix[y + 1] - prefix[x]))
            for m1 in firsts[x, y]:
                t1 = unit_end(m1, a, b)
                if t1 is None or (t1 - a) % 2 or t1 > a and not (yield a, t1):
                    continue
                if (m1 + 1, y) not in seconds:
                    seconds[m1 + 1, y] = list(_splits(tables, 1, m1 + 1, y))
                for m2 in seconds[m1 + 1, y]:
                    t2 = unit_end(m2, t1 + 1, b)
                    if t2 is not None and (t2 - t1) % 2 and (t2 == t1 + 1 or (yield t1 + 1, t2)):
                        if t2 + 1 == b or (yield t2 + 1, b):
                            return True
            return False

        return _walk((0, len(spans) - 1), cuts, shapes, key)

    def _choice_bounds(self, units) -> list:
        """Lower bounds on the completions of one whole-or-split choice's
        plans, each exact for the plans it covers: the units' own costs,
        plus an exact-ternary DP optimum.  Only ``_search``'s fallback loop
        reads them.  The units are solved left to right, as the choice's
        plans solve them.

        An odd choice's one plan completes as a pure-ternary tree over its
        units (``EngineState.run`` checks it), so its one entry adds the
        exact-ternary optimum over the unit weights: one O(m^2) Knuth fill.
        For an even choice, entry k bounds the pair plan that merges units k
        and k + 1, two leaves, into the binary pair: it adds the pair's
        weight, which its binary node costs, and the exact-ternary optimum
        over the unit weights with units k and k + 1 merged into one leaf,
        since that plan's completion is a pure-ternary tree over those
        units with the pair as one leaf.  One O(m^3) inside-outside pass
        gives every position; entries at positions that are no pair bound
        nothing and are never read.  Both fills are uncached, so the table
        that ``_optimum_of`` shares with ``dp_optimal`` stays cached.  Part
        of ``_solve``'s frame, as ``_search`` is."""
        subs = []
        for span in units:
            subs.append((yield span))
        weights = tuple(sub.weight for sub in subs)
        costs = sum(sub.cost for sub in subs)
        if len(weights) % 2:
            return [costs + _fill_tables(weights, frozenset((3,)))[0][0][-1]]
        merged = _merged_pair_optima(weights)
        return [costs + weights[k] + weights[k + 1] + opt for k, opt in enumerate(merged)]

    def _plans(self, lo: int, hi: int):
        """The plans to try for leaves lo..hi (at least three), each made
        only when reached, so none is built past the one ``_search``
        stops at.  Each comes as ``(units, k, spans)``: the units of its
        whole-or-split choice, one list shared by the choice's plans; k, the
        index in it of the pair's first unit, or None in a plan with no
        pair; and the plan's spans, a sorted list of leaf spans, one per
        unit: a leaf outside every top-level permanent run, a whole run (one
        root), one of the two halves of a split run (two roots), or the
        binary pair.  Each run is kept whole or split at one of its cuts,
        and every such choice is tried (parity never forces one: either can
        win on cost), except that when the choices number more than
        ``VECTOR_CAP``, only those that split at most one run are.  A choice
        with an odd unit count is its one plan.  When a choice leaves an even unit count, its
        plans merge two adjacent leaves outside every run into the two-leaf
        span (i, i + 1), the one binary pair (a split half of length 1 is
        never paired); an even choice with no such leaves is skipped.  Every
        pair is a plan: the one binary node of an optimal tree is usually,
        but not always, a minimum-weight pair, so the cheaper completion
        decides.  Ordered by split count, then by the list of
        (run, cut) pairs, then by pair position, so ties resolve leftmost.

        Some plan always exists: splitting one run flips the parity, and
        with no runs an even span has the pair (lo, lo + 1).  No run is
        the whole span, so every plan has at least three units."""
        runs = [(a + lo, b + lo) for a, b in detect_pcns(self.w[lo : hi + 1])]
        choices = math.prod(b - a + 1 for a, b in runs)
        most = 1 if choices > self.VECTOR_CAP else len(runs)  # splits per plan
        inside = {i for a, b in runs for i in range(a, b + 1)}
        leaves = [(i, i) for i in range(lo, hi + 1) if i not in inside]
        pairs = [i for i in range(lo, hi) if i not in inside and i + 1 not in inside]

        def split(count: int):
            """The spans of the runs with ``count`` of them cut once, in the
            order of their (run, cut) lists: depth-first on a stack of (the
            spans of runs ..k-1, k, cuts left), each entry's successors
            pushed last first."""
            stack = [([], 0, count)]
            while stack:
                part, k, left = stack.pop()
                if not left:
                    yield part + runs[k:]
                    continue
                for r in reversed(range(k, len(runs) - left + 1)):
                    a, b = runs[r]
                    for cut in reversed(range(a, b)):
                        stack.append(([*part, *runs[k:r], (a, cut), (cut + 1, b)], r + 1, left - 1))

        for count in range(most + 1):
            for part in split(count):
                units = sorted(leaves + part)
                if len(units) % 2 == 1:
                    yield units, None, units
                    continue
                for i in pairs:
                    k = units.index((i, i))  # (i + 1, i + 1) follows it
                    yield units, k, units[:k] + [(i, i + 1)] + units[k + 2 :]

    def _run_plan(self, spans):
        """Wait on each unit's span, left to right, then combine the units
        with the ternary engine: part of ``_solve``'s frame, as
        ``_search`` is."""
        subs = []
        for span in spans:
            subs.append((yield span))
        state = EngineState([Unit(sub.weight, not sub.spans) for sub in subs])
        state.run()
        return _Sol(
            sum(sub.weight for sub in subs),
            sum(sub.cost for sub in subs) + sum(s.weight for s in state.steps),
            tuple(spans),
            tuple(state.steps),
        )

    def _number(self, steps: list, lo: int, hi: int):
        """Append the steps of the solved tree over leaves lo..hi to
        ``steps``, named as trace ids: each unit's tree first, left to
        right, then the span's own steps.  Returns the tree's root id.  A
        frame of ``_walk``, which yields each unit's span of two or more
        leaves (a leaf's id is its index)."""
        sol = self._memo[lo, hi]
        # trace id by local id: the units' roots, then each circle once numbered
        ids = []
        for a, b in sol.spans:
            ids.append(a if a == b else (yield a, b))
        for s in sol.steps:
            ids.append(len(self.w) + len(steps))
            parts = tuple(Participant(ids[p.ref], p.sign) for p in s.participants)
            steps.append(CombinationStep(ids[-1], s.weight, parts))
        return ids[-1] if ids else lo

    def solve(self) -> CombinationTrace:
        n, steps = len(self.w), []
        self.solve_tree(0, n - 1)
        _walk((0, n - 1), partial(self._number, steps), {})
        return CombinationTrace(n, tuple(steps))


def general_solve(weights: Sequence[int]) -> SolveReport:
    """Optimal-tree search for arbitrary inputs.  A plan splits the leaves
    into spans: single leaves, permanent runs solved as one- or two-root
    subproblems, and, when parity needs it, one two-leaf binary pair.  Each
    span is solved once (memoised), then the greedy ternary combination
    runs over the units; the cheapest completion wins, the first in plan
    order among equals.

    Which plans are run is a branch and bound of this solver's own, not
    the paper's, and never changes the winner.  A span with more than one
    plan takes its mixed-arity DP optimum as a target, which no completion
    beats.  Each plan has an exact bound: the units' own costs plus the
    exact-ternary optimum over the unit weights (an odd choice), or plus
    the pair's weight and the exact-ternary optimum with the pair's two
    units merged into one leaf (each pair position of an even choice).
    The target loop runs, in order, only the plans whose units are nodes
    of some optimal tree under ternary nodes only, which it tells from the
    DP's cost tables alone, and returns the first that reaches the
    optimum: every plan whose bound equals the optimum is one of them.  If
    none does, the fallback loop computes the bounds and keeps the first
    cheapest completion, skipping each plan whose bound is no lower than
    the best so far or above the target loop's best, and stopping at a
    completion one above the optimum.  The report is the replay of the
    final trace, which checks the replayed tree's cost against the trace's
    increments."""
    ws = validate_weights(weights)
    return report_from_trace("ternary", _GeneralSolver(ws).solve(), ws)
