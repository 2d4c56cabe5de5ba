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

import itertools
import math
from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
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
    pure_top_trees,
    reconstruct_from_levels,
    report_from_trace,
)
from .oracle import _dp_tables


class EngineError(RuntimeError):
    """An internal invariant of the combination engine failed."""


# ---------------------------------------------------------------------------
# Permanent circular nodes


@dataclass(frozen=True)
class PcnNode:
    """A run of adjacent leaves lighter than both neighbours; solvable as a
    one-root subtree or a two-root forest."""

    lo: int
    hi: int
    weight: int


def detect_pcns(weights: Sequence[int]) -> tuple:
    """The outermost permanent runs (length >= 2, proper subspans only), left
    to right.  The sequence ends count as infinitely heavy neighbours, so
    boundary runs qualify; the full sequence itself never does.  Runs nested
    inside one of these are found by calling this again on its span.

    Ends are heavy here because a run at an end has nothing on that side to
    combine with: it is forced together exactly like an interior run, so the
    solver must resolve it as a subproblem.  ``is_interior_pair_pcn_free``
    takes the opposite convention."""
    ws = validate_weights(weights)
    n = len(ws)
    spans = []
    for i in range(n - 1):
        total = ws[i]
        for j in range(i + 1, n):
            total += ws[j]
            if (i, j) == (0, n - 1):
                continue
            if (i == 0 or ws[i - 1] > total) and (j + 1 == n or total < ws[j + 1]):
                spans.append((i, j, total))
    spans.sort(key=lambda s: (s[0], -s[1]))
    # runs never overlap partially, so a run is outermost when it starts past
    # the end of the last one kept
    out = []
    for lo, hi, w in spans:
        if not out or lo > out[-1].hi:
            out.append(PcnNode(lo, hi, w))
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
    ref: int  # node id used in the emitted trace; the leaf index of a square
    is_square: bool  # True for original leaves


@dataclass
class _Live:
    ref: int
    weight: int
    lo: int  # unit-coordinate span
    hi: int
    is_square: bool
    pos: Optional[int]  # unit position for squares


_lo = attrgetter("lo")
_hi = attrgetter("hi")
_lo_hi = attrgetter("lo", "hi")  # the order of EngineState.live
_hi_lo = attrgetter("hi", "lo")


@dataclass(frozen=True)
class Candidate:
    """A combinable triple: (left, middle, right) where the middle is either
    a single sequence node or an accordion of alternating signed elements.
    The participants are the one record of what the step consumes (sign +1)
    and takes negatively (sign -1); ``EngineState._apply`` reads them."""

    weight: int
    key: tuple
    participants: tuple  # Participant records in sequence order
    span: tuple  # unit-coordinate hull (lo, hi)
    accordion_span: Optional[tuple] = None  # leaf-coordinate interval


class EngineState:
    """Working state of the greedy combination phase over a unit sequence.

    Tracks the live sequence, the trace so far, which (leaf, circle)
    negative pairings are spent, the most recent circle each unit was
    combined into, and the top-level trees of the forest the signed unit
    levels realise.

    It also keeps, between steps, what the accordion search reads: the
    elements by unit position (live units with sign +1 for a square and 0
    for an opaque unit, the available negatives with sign -1), the set of
    negative positions, and one summary per alternating segment that holds
    a negative (see ``_segment``).  Each step marks the hull of the unit
    positions it touched, and a scan recomputes only the segments whose
    reach meets that hull.
    """

    def __init__(self, units: Sequence[Unit], allocator=None):
        self.units = tuple(units)
        u = len(self.units)
        if u % 2 == 0:
            raise Infeasible(f"exact-ternary combination needs an odd count, got {u}")
        if allocator is None:
            allocator = itertools.count(u).__next__
        self._alloc = allocator
        self.live: List[_Live] = [
            _Live(unit.ref, unit.weight, i, i, unit.is_square, i)
            for i, unit in enumerate(self.units)
        ]
        self.steps: List[CombinationStep] = []
        self._unit_at = {unit.ref: i for i, unit in enumerate(self.units)}
        self._levels = [0] * u  # signed level per unit position
        # per live circle, its (unit position, sign) occurrences, nested ones
        # included: consuming the circle deepens every one of them by one
        self._under: Dict[int, List[tuple]] = {}
        # the first unit position of each top-level tree of the realised
        # forest, and the leaf centre of its root triple (None for a bare
        # unit or a combined centre); no level has changed since they were
        # parsed while _changed is None, else it holds the hull (lo, hi) of
        # the unit positions the steps since then touched
        self._tree_starts = list(range(u))
        self._tree_centres: List[Optional[int]] = [None] * u
        self._changed: Optional[Tuple[int, int]] = None
        # per unit position, whether it holds a live square
        self._live_square = [unit.is_square for unit in self.units]
        # (pos, weight, sign, ref) by position, and the positions of sign -1
        self._elems = [
            (i, unit.weight, 1 if unit.is_square else 0, unit.ref)
            for i, unit in enumerate(self.units)
        ]
        self._negs: Set[int] = set()
        # segment summaries by first position, and the hull (lo, hi) of the
        # positions changed since they were last brought up to date, which
        # available_negatives passes on from _changed (None when none did)
        self._segs: Dict[int, tuple] = {}
        self._dirty: Optional[Tuple[int, int]] = None
        self.spent: Set[tuple] = set()
        self.last_consumer: Dict[int, int] = {}
        self.stats = {"candidates": 0, "queue_steps": 0}

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
        if len(self._elems) > len(self._negs):  # a live unit remains
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
        """Only circles remain: combine the three oldest, in creation order."""
        oldest = sorted(self.live, key=lambda nd: nd.ref)[:3]
        a, b, c = sorted(oldest, key=lambda nd: (nd.lo, nd.hi))
        self.stats["candidates"] += 1
        return self._plain_candidate(a, b, c, a.weight + b.weight + c.weight)

    # -- candidate search ---------------------------------------------------

    def _window_arrays(self):
        """One backward pass over the live sequence.  Per live index j:
        ``cap[j]``, the last index a window starting at j may reach (the
        first unit after j, or the end); ``pair[j] = w_j + min_to_blk[j +
        1]``, where ``min_to_blk[k]`` is the minimum weight from k through
        the first unit at or after k (or the end); and ``need[j]``, the
        minimum of ``pair`` from j through the first unit at or after j (or
        m - 2).  Units (leaves and opaque subproblem roots) block
        compatibility; only combination circles are transparent."""
        live = self.live
        m = len(live)
        cap = [m - 1] * m
        pair = [0] * (m - 1)
        need = [0] * (m - 1)
        nxt = m - 1
        to_blk = live[-1].weight  # min_to_blk[j + 1]
        for j in range(m - 2, -1, -1):
            nd = live[j]
            cap[j] = nxt
            w = nd.weight
            pair[j] = q = w + to_blk
            if nd.pos is not None:
                need[j] = q
                to_blk = w
                nxt = j
            else:
                need[j] = q if j == m - 2 or q < need[j + 1] else need[j + 1]
                if w < to_blk:
                    to_blk = w
        return cap, pair, need

    def _segments(self):
        """The summaries of the alternating segments that hold a negative,
        by first position, brought up to date.  A summary reads only the
        elements and the live nodes' span ends from the element before its
        segment through the element after it (its reach), so one whose
        reach misses the hull of the positions changed since the last call
        still holds; the others are dropped, and the segments around the
        negatives in that hull, widened by the dropped segments, are
        summarised again."""
        segs = self._segs
        if self._dirty is None:
            return segs
        lo, hi = wlo, whi = self._dirty
        self._dirty = None
        for first, (last, reach_lo, reach_hi, _count, _hit) in list(segs.items()):
            if reach_lo <= hi and lo <= reach_hi:
                del segs[first]
                wlo, whi = min(wlo, first), max(whi, last)
        elems = self._elems
        p = len(elems)
        by_hi = None  # the live nodes by (hi, lo), sorted once if needed
        end = 0  # past the last segment found
        for t in range(bisect_left(elems, (wlo,)), bisect_left(elems, (whi + 1,))):
            if t < end or elems[t][2] >= 0:
                continue
            start = t
            while start > 0 and elems[start - 1][2] not in (0, elems[start][2]):
                start -= 1
            end = t + 1
            while end < p and elems[end][2] not in (0, elems[end - 1][2]):
                end += 1
            if elems[start][0] not in segs:
                # only a segment with two positives has a slice to flank
                if by_hi is None and end - start - (elems[start][2] < 0) >= 3:
                    by_hi = sorted(self.live, key=_hi_lo)  # nearly sorted already
                segs[elems[start][0]] = self._segment(start, end, by_hi)
        return segs

    def _segment(self, start: int, end: int, by_hi) -> tuple:
        """The summary of the alternating segment ``_elems[start:end]``:
        ``(last, reach_lo, reach_hi, count, hit)``, with the position of its
        last element; its reach, the positions of the elements before and
        after it (-1 and the unit count past either end); the number of its
        slices; and ``hit = (key, left, right)`` for its accordion candidate
        with the least key, or None when no slice has an outer node on both
        sides.  Blockers (sign 0) and equal adjacent signs bound a segment.

        A slice runs from a positive element a to a later positive b, and
        signs alternate, so the positives sit two apart.  Its left outer is
        the lightest node whose span ends before position a, at or after
        the element before a, found by bisection in ``by_hi``, the live
        nodes ordered by (hi, lo); ties go to the least (lo, hi), and among
        equal spans to the first of the stable sort.  Its right outer is
        the lightest node whose span starts after position b, at or before
        the element after b, found by bisection in ``live``; ties go to the
        leftmost ``hi``, then the first in live order.  A circle ending
        (starting) exactly on a live unit's position may not skip over
        it."""
        elems = self._elems
        live = self.live
        p = len(elems)
        tops = range(start if elems[start][2] > 0 else start + 1, end, 2)
        lefts = []
        for a in tops[:-1]:
            k = 0
            edge = None  # a live unit's position a circle may not end on
            if a > 0:
                prev, _w, sign, _r = elems[a - 1]
                k = bisect_left(by_hi, prev, key=_hi)
                edge = prev if sign >= 0 else None
            best = None
            for nd in by_hi[k : bisect_left(by_hi, elems[a][0], k, key=_hi)]:
                if nd.pos is None and nd.hi == edge:
                    continue
                if best is None or (nd.weight, nd.lo, nd.hi) < (best.weight, best.lo, best.hi):
                    best = nd
            lefts.append(best)
        rights = []
        for b in tops[1:]:
            k = bisect_right(live, elems[b][0], key=_lo)
            stop = len(live)
            edge = None
            if b + 1 < p:
                nxt, _w, sign, _r = elems[b + 1]
                stop = bisect_right(live, nxt, k, key=_lo)
                edge = nxt if sign >= 0 else None
            best = None
            for nd in live[k:stop]:
                if nd.pos is None and nd.lo == edge:
                    continue
                if best is None or (nd.weight, nd.hi) < (best.weight, best.hi):
                    best = nd
            rights.append(best)
        hit = None
        least = math.inf
        for i, left in enumerate(lefts):
            if left is None:
                continue
            a = tops[i]
            acc = left.weight + elems[a][1]  # left outer and elements a..b
            for b, right in zip(tops[i + 1 :], rights[i:]):
                acc += elems[b][1] - elems[b - 1][1]
                if right is None or acc + right.weight > least:
                    continue
                key = (acc + right.weight, left.lo, b - a + 1, right.hi, elems[a][0])
                if hit is None or key < hit[0]:
                    hit = (key, left, right)
                    least = key[0]
        reach_lo = elems[start - 1][0] if start > 0 else -1
        reach_hi = elems[end][0] if end < p else len(self.units)
        count = len(tops) * (len(tops) - 1) // 2
        return elems[end - 1][0], reach_lo, reach_hi, count, hit

    def _scan(self) -> Candidate:
        """One pass over every plain window (i, j), and the accordion
        segment summaries brought up to date; returns the step to take, the
        least candidate by ``key``.

        A window (i, j) takes any third member k in j+1 .. cap[j], so its
        cheapest completion is ``pair[j]``; a start i takes j in i+1 ..
        min(cap[i], m - 2), so its cheapest window costs ``w_i + need[i +
        1]``.  Each segment summary holds the key of its least accordion
        candidate, which starts with its weight.  The scan counts every
        window and slice in ``stats``, compares the keys of the plain
        windows at the least weight without building them, and builds one
        ``Candidate``, the step it returns."""
        live = self.live
        m = len(live)
        cap, pair, need = self._window_arrays()
        cheapest = [nd.weight + q for nd, q in zip(live, need[1:])]  # per start i
        best = min(cheapest)
        # the windows scanned: min(cap[i], m - 2) - i per start i < m - 2,
        # where only a cap of m - 1 exceeds m - 2
        head = cap[: m - 2]
        scanned = sum(head) - head.count(m - 1) - (m - 2) * (m - 3) // 2
        available_negatives(self)
        hit = None  # the least of the segments' hits by key
        for _last, _reach_lo, _reach_hi, count, seg_hit in self._segments().values():
            scanned += count
            if seg_hit is not None and (hit is None or seg_hit[0] < hit[0]):
                hit = seg_hit
        self.stats["candidates"] += scanned
        if hit is not None and hit[0][0] < best:
            return self._hit_candidate(hit)
        # the first least plain key (best, a.lo, 1, c.hi, b.lo) over the
        # windows at the least weight, in (i, j, k) order
        least = None
        for i, w in enumerate(cheapest):
            if w != best:
                continue
            for j in range(i + 1, min(cap[i], m - 2) + 1):
                if pair[j] != need[i + 1]:
                    continue
                third = pair[j] - live[j].weight
                for k in range(j + 1, cap[j] + 1):
                    if live[k].weight == third:
                        key = (best, live[i].lo, 1, live[k].hi, live[j].lo)
                        if least is None or key < least[0]:
                            least = key, i, j, k
        key, i, j, k = least
        if hit is not None and hit[0] < key:
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

    def _hit_candidate(self, hit) -> Candidate:
        """The accordion candidate of a segment summary's ``hit``."""
        (w, _lo, size, _hi, first), left, right = hit
        i = bisect_left(self._elems, (first,))
        return self._accordion_candidate(left, right, self._elems[i : i + size], w)

    def _accordion_candidate(self, left: _Live, right: _Live, elems, w: int) -> Candidate:
        """Blockers (sign 0) bound every slice, so the elements are original
        leaves and their refs are leaf indexes."""
        return Candidate(
            weight=w,
            key=(w, left.lo, len(elems), right.hi, elems[0][0]),
            participants=(
                Participant(left.ref, 1, ROLE_OUTER),
                *(Participant(ref, sign, ROLE_ACCORDION) for _p, _w, sign, ref in elems),
                Participant(right.ref, 1, ROLE_OUTER),
            ),
            span=(left.lo, right.hi),
            accordion_span=(elems[0][3], elems[-1][3]),
        )

    # -- applying a step -----------------------------------------------------

    def _apply(self, cand: Candidate) -> None:
        circle = self._alloc()
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
            target = self._unit_at.get(p.ref)
            if target is None:  # a circle, always taken positively
                nested = self._under.pop(p.ref)
                for t, sign in nested:
                    levels[t] += sign
                under.extend(nested)
            else:
                levels[target] += p.sign
                under.append((target, p.sign))
                if p.sign > 0:
                    owned.append(target)
                else:
                    negatives.append(target)
        self._under[circle] = under
        for pos in negatives:
            owner = self.last_consumer.get(pos)
            if owner is None or (pos, owner) in self.spent:
                raise EngineError(f"negative use of unit {pos} without a fresh pairing")
            self.spent.add((pos, owner))
        elems, live_square = self._elems, self._live_square
        for pos in owned:
            self.last_consumer[pos] = circle
            live_square[pos] = False
            del elems[bisect_left(elems, (pos,))]
        for pos in negatives:  # live squares again
            live_square[pos] = True
            self._negs.discard(pos)
            unit = self.units[pos]
            elems[bisect_left(elems, (pos,))] = (pos, unit.weight, 1, unit.ref)
        # the levels that changed are those of the positions under the new
        # circle
        lo, hi = min(under)[0], max(under)[0]
        if self._changed is not None:
            lo, hi = min(lo, self._changed[0]), max(hi, self._changed[1])
        self._changed = (lo, hi)
        # every consumed node's lo lies in the span (a plain middle's hi may
        # lie past it); new nodes go after equal keys, where a stable sort
        # would put them
        lo, hi = cand.span
        live = self.live
        a, b = bisect_left(live, lo, key=_lo), bisect_right(live, hi, key=_lo)
        live[a:b] = [nd for nd in live[a:b] if nd.ref not in consumed]
        insort(live, _Live(circle, cand.weight, lo, hi, False, None), key=_lo_hi)
        for pos in negatives:
            unit = self.units[pos]
            insort(live, _Live(unit.ref, unit.weight, pos, pos, True, pos), key=_lo_hi)


def _unrealisable(levels, exc: StructureError) -> EngineError:
    return EngineError(f"cannot realise forest for unit levels {list(levels)}: {exc}")


def available_negatives(state: EngineState) -> Set[int]:
    """The unit positions usable with negative weight: original leaves
    sitting as the centre child of a top-level triple of the realised
    forest, each paired with the circle that last consumed it.  Returns the
    engine's own set, brought up to date together with the negatives among
    its accordion elements.  Where the re-parsed trees' negatives changed,
    they are replaced, and their old and new positions widen the engine's
    hull of changed positions.

    The forest's top-level triples come from the stack pass over the unit
    levels, and only what the steps since the last call changed is parsed
    again: from the start of the tree that holds the lowest changed
    position, up to the first tree end at or past the highest one that an
    old tree start follows (or the end of the sequence).  The trees before
    and after that stretch are unchanged, since each top-level tree parses
    on its own, and so are their negatives.  When the levels realise a
    forest, the first tree end at or past the highest changed position is
    such a point: the unchanged rest is whole new trees, its leaves'
    3^-level sum to a whole number, so it cannot start inside an old tree.
    Where no old start follows, the rest does not parse into whole trees,
    and the parse runs on to the error the whole pass raises.

    A centre leaf that is not a live square was consumed positively, so
    ``last_consumer`` holds its owner; a leaf used negatively is a live
    square again until a new circle consumes it and becomes its owner, so a
    spent pairing cannot show up here either.  ``EngineState._apply``
    refuses a missing or spent pairing all the same."""
    negs = state._negs
    if state._changed is None:
        return negs
    lo, hi = state._changed
    starts, centres = state._tree_starts, state._tree_centres
    k = j = bisect_right(starts, lo) - 1
    new_starts, new_centres = [], []
    try:
        for first, last, centre in pure_top_trees(state._levels, starts[k]):
            new_starts.append(first)
            new_centres.append(centre)
            if last >= hi:
                j = bisect_right(starts, last, j)
                if j < len(starts) and starts[j] == last + 1:
                    break
        else:
            j = len(starts)
    except InvalidLevelSequence as exc:
        raise _unrealisable(state._levels, exc) from exc
    units, live_square = state.units, state._live_square
    old = [c for c in centres[k:j] if c in negs]
    new = [c for c in new_centres if c is not None and units[c].is_square and not live_square[c]]
    starts[k:j] = new_starts
    centres[k:j] = new_centres
    state._changed = None
    if old != new:
        elems = state._elems
        for c in old:
            del elems[bisect_left(elems, (c,))]
        for c in new:
            insort(elems, (c, units[c].weight, -1, units[c].ref))
        negs.difference_update(old)
        negs.update(new)
        lo, hi = min(lo, *old, *new), max(hi, *old, *new)
    if state._dirty is not None:
        lo, hi = min(lo, state._dirty[0]), max(hi, state._dirty[1])
    state._dirty = (lo, hi)
    return negs


# ---------------------------------------------------------------------------
# Entry points over raw leaves


def _solve_pure_ternary(weights: Sequence[int]) -> Tuple[SolveReport, dict]:
    """``solve_pure_ternary`` plus the engine's ``stats`` counters."""
    ws = validate_weights(weights)
    state = EngineState([Unit(w, i, True) for i, w in enumerate(ws)])
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
    weight: int  # total leaf weight
    steps: tuple  # CombinationStep records, creation order
    ref: int  # node id of the subtree root

    @property
    def cost(self) -> int:  # each step adds its circle's weight
        return sum(s.weight for s in self.steps)


class _GeneralSolver:
    # Above this many single-vs-two-root choice vectors, fall back to the
    # one-action enumeration (all single-root, or exactly one fix).  The
    # cap is a heuristic, kept because the full product is out of reach:
    # over the top-level runs it is 1 536, 18 432 and 768 on the first
    # three 100-leaf draws from random.Random(700) (weights 0..100), and
    # 2 592, 82 944 and 36 864 at n=150 (random.Random(1050)).  The
    # optimum stop in solve_tree never fires where the greedy misses the
    # optimum, so an exact search would run one engine per vector there.
    # No benchmark workload reaches it: on fuzz-general (n 13..20, weights
    # 0..100) the largest product is 48, over 1 279 span solves at seed 1
    # and 1 369 at seed 2.  test_general_solve_past_vector_cap pins its
    # outputs.
    VECTOR_CAP = 512

    def __init__(self, weights):
        self.w = weights
        self._alloc = itertools.count(len(weights)).__next__
        self._memo: Dict[tuple, _Sol] = {}
        self._optimum = None  # the (2, 3) DP cost table, built when first read

    def solve_tree(self, lo: int, hi: int) -> _Sol:
        key = (lo, hi)
        if key in self._memo:
            return self._memo[key]
        if lo == hi:
            sol = _Sol(self.w[lo], (), lo)
        elif hi == lo + 1:  # the binary pair, or a two-leaf run or run half
            pair = (Participant(lo, 1, ROLE_PLAIN), Participant(hi, 1, ROLE_PLAIN))
            step = CombinationStep(self._alloc(), self.w[lo] + self.w[hi], pair)
            sol = _Sol(step.weight, (step,), step.circle)
        else:
            sol = None
            for spans in self._plans(lo, hi):
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

    def _plans(self, lo: int, hi: int):
        """Plans to try for leaves lo..hi (at least three), yielded one at a
        time, so none is built past the one ``solve_tree`` stops at; each a
        sorted list of leaf spans, one per unit: a leaf outside every top-level
        permanent run, a whole run (one root), one of the two halves of a
        split run (two roots), or the binary pair.  Every combination of
        single-root vs split is tried (parity never forces one choice:
        either can win on cost).  When that leaves an even unit count, two
        adjacent leaves outside every run merge into the two-leaf span
        (i, i + 1), the one binary pair (a split half of length 1 is never
        paired).  Every such pair is tried: the one binary node of an
        optimal tree is usually, but not always, a minimum-weight pair, so
        the cheaper completion decides.  Ordered by split count, then by
        (run, cut), then by pair position, so ties resolve leftmost.

        Some plan always exists: splitting one run flips the parity, and
        with no runs an even span has the pair (lo, lo + 1).  No run is
        the whole span, so every plan has at least three units."""
        runs = [(p.lo + lo, p.hi + lo) for p in detect_pcns(self.w[lo : hi + 1])]
        if math.prod(b - a + 1 for a, b in runs) > self.VECTOR_CAP:
            single = (None,) * len(runs)
            vectors = [single]
            vectors.extend(
                single[:k] + (cut,) + single[k + 1 :]
                for k, (a, b) in enumerate(runs)
                for cut in range(a, b)
            )
        else:
            vectors = sorted(
                itertools.product(*([None, *range(a, b)] for a, b in runs)),
                key=lambda v: (
                    len(v) - v.count(None),
                    [(k, cut) for k, cut in enumerate(v) if cut is not None],
                ),
            )
        inside = {i for a, b in runs for i in range(a, b + 1)}
        leaves = [(i, i) for i in range(lo, hi + 1) if i not in inside]
        pairs = [i for i in range(lo, hi) if i not in inside and i + 1 not in inside]
        for vec in vectors:
            spans = list(leaves)
            for (a, b), cut in zip(runs, vec):
                spans.extend([(a, b)] if cut is None else [(a, cut), (cut + 1, b)])
            spans.sort()
            if len(spans) % 2 == 1:
                yield spans
                continue
            for i in pairs:
                k = spans.index((i, i))  # (i + 1, i + 1) follows it
                yield spans[:k] + [(i, i + 1)] + spans[k + 2 :]

    def _run_plan(self, spans) -> _Sol:
        """Solve each unit's span with ``solve_tree``, left to right, then
        combine the units with the ternary engine."""
        units = []
        steps = []
        for lo, hi in spans:
            sub = self.solve_tree(lo, hi)
            steps.extend(sub.steps)
            units.append(Unit(sub.weight, sub.ref, lo == hi))
        state = EngineState(units, allocator=self._alloc)
        state.run()
        levels = state.unit_levels()
        try:
            pure_centre_leaves(levels)  # the final unit levels form one tree
        except InvalidLevelSequence as exc:
            raise _unrealisable(levels, exc) from exc
        weight = sum(u.weight for u in units)
        return _Sol(weight, (*steps, *state.steps), state.live[0].ref)

    def solve(self) -> CombinationTrace:
        n = len(self.w)
        remap = {}
        steps = []
        for k, s in enumerate(self.solve_tree(0, n - 1).steps):
            remap[s.circle] = n + k
            steps.append(
                CombinationStep(
                    circle=n + k,
                    weight=s.weight,
                    participants=tuple(
                        Participant(remap.get(p.ref, p.ref), p.sign, p.role)
                        for p in s.participants
                    ),
                    accordion_span=s.accordion_span,
                )
            )
        return CombinationTrace(n, tuple(steps))


def general_solve(weights: Sequence[int]) -> SolveReport:
    """Optimal-tree search for arbitrary inputs.  A plan splits the leaves
    into spans: single leaves, permanent runs solved as one- or two-root
    subproblems, and, when parity needs it, one two-leaf binary pair.  Each
    span is solved once (memoised), then the greedy ternary combination
    runs over the units; the cheapest completion wins, the first in plan
    order among equals.  A span stops trying plans once its best
    completion costs its mixed-arity DP optimum, which no later plan can
    beat.  The report is the replay of the final trace, which checks the
    replayed tree's cost against the trace's increments."""
    ws = validate_weights(weights)
    return report_from_trace("ternary", _GeneralSolver(ws).solve(), ws)
