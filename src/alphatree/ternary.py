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
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import (
    CombinationStep,
    CombinationTrace,
    Infeasible,
    Participant,
    ROLE_ACCORDION,
    ROLE_OUTER,
    ROLE_PLAIN,
    SolveReport,
    StructureError,
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
from .oracle import _dp_tables, _fill_tables


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
    ref: int  # node id: the unit position, or the circle
    weight: int
    lo: int  # unit-coordinate span
    hi: int
    pos: Optional[int]  # unit position for units


_lo = attrgetter("lo")
_lo_hi = attrgetter("lo", "hi")  # the order of EngineState.live until the endgame
_ref = attrgetter("ref")

# fields of a segment summary, (first, last, reach_lo, reach_hi, count,
# key, left, right)
_reach_lo = itemgetter(2)
_reach_hi = itemgetter(3)
_seg_count = itemgetter(4)
_seg_key = itemgetter(5)


@dataclass(slots=True)
class Candidate:
    """A combinable triple: (left, middle, right) where the middle is either
    a single sequence node or an accordion of alternating signed elements.
    The participants are the one record of what the step consumes (sign +1)
    and takes negatively (sign -1); ``EngineState._apply`` reads them."""

    weight: int
    key: tuple
    participants: tuple  # Participant records in sequence order
    span: tuple  # unit-coordinate hull (lo, hi)
    accordion_span: Optional[tuple] = None  # first and last element positions


class EngineState:
    """Working state of the greedy combination phase over a unit sequence.

    Unit k has node id k in the steps, and with u units the circles are u,
    u + 1, ... in creation order.  Tracks the live sequence, the trace so
    far, which (leaf, circle) negative pairings are spent, the most recent
    circle each unit was combined into, and the top-level trees of the
    forest the signed unit levels realise.

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
            _Live(i, unit.weight, i, i, i) for i, unit in enumerate(self.units)
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
        self.spent: Set[tuple] = set()
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

    def advance(self) -> Candidate:
        if self.done:
            raise EngineError("combination already complete")
        if self._live_units:
            cand = self._scan()
        else:
            cand = self._queue_candidate()
            self.stats["queue_steps"] += 1
        self._apply(cand)
        return cand

    def run(self) -> None:
        while not self.done:
            self.advance()

    # -- queue endgame -----------------------------------------------------

    def _queue_candidate(self) -> Candidate:
        """Only circles remain: combine the three oldest, in creation order.
        Only an accordion step makes a unit live again, so once no unit is
        live none returns: from then on ``live`` holds the circles in
        creation order (``_apply`` replaces the three oldest with the new
        circle), and the scan's inputs, which no scan reads again, are no
        longer kept."""
        a, b, c = sorted(self.live[:3], key=_lo_hi)
        self.stats["candidates"] += 1
        return self._plain_candidate(a, b, c, a.weight + b.weight + c.weight)

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
        m = len(live)
        bound = self._bound
        caps, pairs, needs, cheaps, counts = kept = (
            self._cap, self._pair, self._need, self._cheap, self._count
        )
        if end < m:
            nd = live[end]
            w = nd.weight
            after = needs[old_end]  # need[j + 1]
            if nd.pos is not None:
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
            if nd.pos is not None:
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
        p = len(elems)
        tops = range(start if elems[start][2] > 0 else start + 1, end, 2)
        first, last = elems[start][0], elems[end - 1][0]
        reach_lo = elems[start - 1][0] if start > 0 else -1
        reach_hi = elems[end][0] if end < p else len(self.units)
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
                if nd.pos is None and nd.hi == edge:
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
                if nd.pos is None and nd.lo == edge:
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

    def _scan(self) -> Candidate:
        """The step to take, the least candidate by ``key``, from the kept
        window quantities and the accordion segment summaries.

        A window (i, j) takes any third member k in j+1 .. cap[j], so its
        cheapest completion is ``pair[j]``; a start i takes j in i+1 ..
        min(cap[i], m - 2), so its cheapest window costs ``w_i + need[i +
        1]``.  Each segment summary holds the key of its least accordion
        candidate, which starts with its weight.  The scan counts every
        window and slice in ``stats``, compares the keys of the plain
        windows at the least weight without building them, and builds one
        ``Candidate``, the step it returns.  Its passes over the whole
        sequence are those of ``min``, ``sum``, ``list.count`` and
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
            return self._hit_candidate(hit)
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
            return self._hit_candidate(hit)
        return self._plain_candidate(live[i], live[j], live[k], best)

    def _plain_candidate(self, a: _Live, b: _Live, c: _Live, w: int) -> Candidate:
        return Candidate(
            weight=w,
            key=(w, a.lo, 1, c.hi, b.lo),
            participants=(
                Participant(a.ref, 1, ROLE_PLAIN),
                Participant(b.ref, 1, ROLE_PLAIN),
                Participant(c.ref, 1, ROLE_PLAIN),
            ),
            span=(a.lo, c.hi),
        )

    def _hit_candidate(self, seg: tuple) -> Candidate:
        """The accordion candidate of a segment summary with a hit."""
        (w, _lo, size, _hi, first), left, right = seg[5:]
        i = bisect_left(self._elems, (first,))
        return self._accordion_candidate(left, right, self._elems[i : i + size], w)

    def _accordion_candidate(self, left: _Live, right: _Live, elems, w: int) -> Candidate:
        """Blockers (sign 0) bound every slice, so the elements are original
        leaves, named by their unit positions."""
        return Candidate(
            weight=w,
            key=(w, left.lo, len(elems), right.hi, elems[0][0]),
            participants=(
                Participant(left.ref, 1, ROLE_OUTER),
                *(Participant(pos, sign, ROLE_ACCORDION) for pos, _w, sign in elems),
                Participant(right.ref, 1, ROLE_OUTER),
            ),
            span=(left.lo, right.hi),
            accordion_span=(elems[0][0], elems[-1][0]),
        )

    # -- applying a step -----------------------------------------------------

    def _apply(self, cand: Candidate) -> None:
        u = len(self.units)
        circle = u + len(self.steps)
        self.steps.append(
            CombinationStep(
                circle=circle,
                weight=cand.weight,
                participants=cand.participants,
                accordion_span=cand.accordion_span,
            )
        )
        levels = self._levels
        under = []
        consumed = set()  # live refs this step removes
        owned = []  # unit positions consumed positively
        negatives = []  # unit positions taken negatively
        for p in cand.participants:
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
        for pos in negatives:
            owner = self.last_consumer.get(pos)
            if owner is None or (pos, owner) in self.spent:
                raise EngineError(f"negative use of unit {pos} without a fresh pairing")
            self.spent.add((pos, owner))
        elems = self._elems
        self._live_units += len(negatives) - len(owned)
        for pos in owned:
            self.last_consumer[pos] = circle
            del elems[bisect_left(elems, (pos,))]
        for pos in negatives:  # live squares again
            elems[bisect_left(elems, (pos,))] = (pos, self.units[pos].weight, 1)
        live = self.live
        node = _Live(circle, cand.weight, *cand.span, None)
        if not self._live_units:
            # no unit is live, so none returns (see _queue_candidate) and no
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
            new.append(_Live(pos, self.units[pos].weight, pos, pos, pos))
        for nd in new:
            insort(stretch, nd, key=_lo_hi)
            insort(by_hi, (nd.hi, nd.lo, nd.ref, nd))
        live[a:b] = stretch
        # the window quantities of a start read the nodes through the second
        # unit after it
        start, units = a, 0
        while units < 2 and start > 0:
            start -= 1
            units += live[start].pos is not None
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
    ``last_consumer`` holds its owner; a leaf used negatively is a live
    square again until a new circle consumes it and becomes its owner, so a
    spent pairing cannot show up here either.  ``EngineState._apply``
    refuses a missing or spent pairing all the same."""
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
    # cap is a heuristic, kept because the full product is out of reach:
    # over the top-level runs it is 1 536, 18 432 and 768 on the first
    # three 100-leaf draws from random.Random(700) (weights 0..100), and
    # 2 592, 82 944 and 36 864 at n=150 (random.Random(1050)).  The
    # optimum stop in solve_tree never fires where the greedy misses the
    # optimum.  The pair-loop skip is exact too (a pair plan is a tree over
    # its choice's units, so none costs less than their costs plus the
    # mixed-arity DP over their weights), but it skips only even vectors:
    # an exact search would still run one engine per odd vector there.
    # No benchmark workload reaches it: on fuzz-general (n 13..20, weights
    # 0..100) the largest product is 48, over 1 279 span solves at seed 1
    # and 1 369 at seed 2.  test_general_solve_past_vector_cap pins its
    # outputs.
    VECTOR_CAP = 512

    def __init__(self, weights):
        self.w = weights
        self._memo: Dict[tuple, _Sol] = {}
        self._optimum = None  # the (2, 3) DP cost table, built when first read

    def solve_tree(self, lo: int, hi: int) -> _Sol:
        key = (lo, hi)
        if key in self._memo:
            return self._memo[key]
        if lo == hi:
            sol = _Sol(self.w[lo], 0, (), ())
        elif hi == lo + 1:  # the binary pair, or a two-leaf run or run half
            # two square units, 0 and 1, combined into circle 2
            w = self.w[lo] + self.w[hi]
            pair = (Participant(0, 1, ROLE_PLAIN), Participant(1, 1, ROLE_PLAIN))
            sol = _Sol(w, w, ((lo, lo), (hi, hi)), (CombinationStep(2, w, pair),))
        else:
            sol = None
            for units, plans in self._choices(lo, hi):
                if sol is not None:
                    if sol.cost == self._optimum_of(lo, hi):
                        break
                    if len(units) % 2 == 0 and self._pair_bound(units) >= sol.cost:
                        continue  # no pair position of this choice can win
                for spans in plans:
                    if sol is not None and sol.cost == self._optimum_of(lo, hi):
                        break
                    cand = self._run_plan(spans)
                    if sol is None or cand.cost < sol.cost:
                        sol = cand
        self._memo[key] = sol
        return sol

    def _optimum_of(self, lo: int, hi: int) -> int:
        """The mixed-arity DP optimum over leaves lo..hi.  Every completion
        of every plan is a tree over those leaves with internal arities 2
        and 3, so none costs less; and a later plan wins only on a strictly
        lower cost.  Once the best completion reaches this value, no plan
        left can replace it.  The table is fetched on the first read, so a
        solve that tries one plan per span never builds it; ``_dp_tables``
        keeps its last table set, so a ``dp_optimal(ws, (2, 3))`` call on
        the same weights, before or after the solve, shares the build."""
        if self._optimum is None:
            self._optimum = _dp_tables(self.w, frozenset((2, 3)))[0]
        return self._optimum[lo][hi]

    def _pair_bound(self, units) -> int:
        """A lower bound on the cost of every pair plan of one even choice:
        the units' own costs plus the mixed-arity DP optimum over the unit
        weights.  A pair plan's completion, with its pair expanded into its
        binary node, is a tree over these units whose nodes above them have
        two or three children, so it costs at least this much.  The units
        are solved left to right, as the choice's first pair plan would
        solve them.  The DP fill is uncached, so the table that
        ``_optimum_of`` shares with ``dp_optimal`` stays cached."""
        subs = [self.solve_tree(a, b) for a, b in units]
        weights = tuple(sub.weight for sub in subs)
        return sum(sub.cost for sub in subs) + _fill_tables(weights, frozenset((2, 3)))[0][0][-1]

    def _choices(self, lo: int, hi: int):
        """The plans to try for leaves lo..hi (at least three), grouped by
        whole-or-split choice: yields each choice's units with its plans,
        both made only when reached, so none is built past the one
        ``solve_tree`` stops at.  A plan is a sorted list of leaf spans, one
        per unit: a leaf outside every top-level permanent run, a whole run
        (one root), one of the two halves of a split run (two roots), or the
        binary pair.  Each run is kept whole or split at one of its cuts, and
        every such choice is tried (parity never forces one: either can win
        on cost), except that when the choices number more than
        ``VECTOR_CAP``, only those that split at most one run are.  A choice
        with an odd unit count is its one plan.  When a choice leaves an even
        unit count, its plans merge two adjacent leaves outside every run
        into the two-leaf span (i, i + 1), the one binary pair (a split half
        of length 1 is never paired); an even choice with no such leaves is
        skipped.  Every pair is tried: the one binary node of an optimal tree
        is usually, but not always, a minimum-weight pair, so the cheaper
        completion decides.  Ordered by split count, then by the list of
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

        def split(k: int, count: int):
            """The spans of runs k.. with ``count`` of them cut once, in the
            order of their (run, cut) lists."""
            if not count:
                yield runs[k:]
                return
            for r in range(k, len(runs) - count + 1):
                a, b = runs[r]
                for cut in range(a, b):
                    for rest in split(r + 1, count - 1):
                        yield [*runs[k:r], (a, cut), (cut + 1, b), *rest]

        def paired(units):
            for i in pairs:
                k = units.index((i, i))  # (i + 1, i + 1) follows it
                yield units[:k] + [(i, i + 1)] + units[k + 2 :]

        for count in range(most + 1):
            for part in split(0, count):
                units = sorted(leaves + part)
                if len(units) % 2 == 1:
                    yield units, [units]
                elif pairs:
                    yield units, paired(units)

    def _run_plan(self, spans) -> _Sol:
        """Solve each unit's span with ``solve_tree``, left to right, then
        combine the units with the ternary engine."""
        subs = [self.solve_tree(lo, hi) for lo, hi in spans]
        state = EngineState([Unit(sub.weight, not sub.spans) for sub in subs])
        state.run()
        levels = state.unit_levels()
        try:
            pure_centre_leaves(levels)  # the final unit levels form one tree
        except InvalidLevelSequence as exc:
            raise _unrealisable(levels, exc) from exc
        return _Sol(
            sum(sub.weight for sub in subs),
            sum(sub.cost for sub in subs) + sum(s.weight for s in state.steps),
            tuple(spans),
            tuple(state.steps),
        )

    def _number(self, lo: int, hi: int, steps: list) -> int:
        """Append the steps of the tree over leaves lo..hi to ``steps``,
        named as trace ids: each unit's tree first, left to right, then
        the span's own steps.  Returns the tree's root id."""
        sol = self.solve_tree(lo, hi)
        # trace id by local id: the units' roots, then each circle once numbered
        ids = [self._number(a, b, steps) for a, b in sol.spans]
        for s in sol.steps:
            ids.append(len(self.w) + len(steps))
            span = s.accordion_span
            steps.append(
                CombinationStep(
                    circle=ids[-1],
                    weight=s.weight,
                    participants=tuple(
                        Participant(ids[p.ref], p.sign, p.role) for p in s.participants
                    ),
                    accordion_span=span and (ids[span[0]], ids[span[1]]),
                )
            )
        return ids[-1] if ids else lo

    def solve(self) -> CombinationTrace:
        steps = []
        self._number(0, len(self.w) - 1, steps)
        return CombinationTrace(len(self.w), tuple(steps))


def general_solve(weights: Sequence[int]) -> SolveReport:
    """Optimal-tree search for arbitrary inputs.  A plan splits the leaves
    into spans: single leaves, permanent runs solved as one- or two-root
    subproblems, and, when parity needs it, one two-leaf binary pair.  Each
    span is solved once (memoised), then the greedy ternary combination
    runs over the units; the cheapest completion wins, the first in plan
    order among equals.  A span stops trying plans once its best
    completion costs its mixed-arity DP optimum, which no later plan can
    beat.  Before the pair plans of a choice with an even unit count, it
    takes one bound: the units' own costs plus the mixed-arity DP optimum
    over the unit weights.  Every pair plan of that choice, its pair
    expanded into its binary node, is a tree over those units with arities
    2 and 3, so none costs less; when the bound is no lower than the best
    completion, no pair position can replace it, as a later plan wins only
    on a strictly lower cost, and the whole pair loop is skipped.  The
    report is the replay of the final trace, which checks the replayed
    tree's cost against the trace's increments."""
    ws = validate_weights(weights)
    return report_from_trace("ternary", _GeneralSolver(ws).solve(), ws)
