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
from bisect import bisect_left, bisect_right
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
    negative pairings are spent, and the most recent circle each unit was
    combined into.
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
        self.spent: Set[tuple] = set()
        self.last_consumer: Dict[int, int] = {}
        self.stats = {"candidates": 0, "queue_steps": 0}

    # -- derived views ----------------------------------------------------

    @property
    def done(self) -> bool:
        return len(self.live) <= 1

    def live_square_positions(self) -> Set[int]:
        return {nd.pos for nd in self.live if nd.is_square}

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
        if any(nd.pos is not None for nd in self.live):
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
        """Per live index i: ``cap[i]``, the last index a window starting at
        i may reach (the first unit after i, or the end), and
        ``min_to_blk[i]``, the minimum weight from i through the first unit
        at or after i (or the end).  Units (leaves and opaque subproblem
        roots) block compatibility; only combination circles are
        transparent."""
        live = self.live
        m = len(live)
        cap = [m - 1] * m
        min_to_blk = [0] * m
        nxt = m - 1
        for i in range(m - 1, -1, -1):
            nd = live[i]
            cap[i] = nxt
            if nd.pos is not None or i == m - 1:
                min_to_blk[i] = nd.weight
            else:
                min_to_blk[i] = min(nd.weight, min_to_blk[i + 1])
            if nd.pos is not None:
                nxt = i
        return cap, min_to_blk

    def _merged_elements(self):
        """Live squares (sign +1), available negatives (sign -1), and live
        opaque units (sign 0, pure blockers), by unit position."""
        elems = [
            (nd.pos, nd.weight, 1 if nd.is_square else 0, nd.ref)
            for nd in self.live
            if nd.pos is not None
        ]
        for pos, w, _owner in available_negatives(self):
            elems.append((pos, w, -1, self.units[pos].ref))
        elems.sort()
        return elems

    def _accordion_slices(self, elems):
        """Yield (a, b, slice_weight) for every alternation-respecting slice
        that starts and ends on a positive element, length >= 2.  Blockers
        (sign 0) and equal adjacent signs bound the usable segments."""
        p = len(elems)
        out = []
        seg_start = 0
        for e in range(p + 1):
            boundary = e == p or elems[e][2] == 0 or (
                e > 0 and (elems[e][2] == elems[e - 1][2] or elems[e - 1][2] == 0)
            )
            if not boundary:
                continue
            seg = range(seg_start, e)
            for a in seg:
                if elems[a][2] != 1:
                    continue
                acc = elems[a][1]
                b = a + 1
                while b < e:
                    acc += elems[b][2] * elems[b][1]
                    if elems[b][2] > 0:
                        out.append((a, b, acc))
                    b += 1
            seg_start = e
        return out

    def _gap_outers(self, elems):
        """The outer nodes the candidate key picks for each gap.

        left[a]: the lightest node whose span ends before position a, at or
        after position a-1 (the left outer of a slice starting at element
        a); ties go to the first in live order, which has the leftmost
        ``lo``.  right[b]: the lightest node for slices ending at element b,
        ties to the leftmost ``hi``.  None where no node fits.
        """
        positions = [p for p, _w, _s, _r in elems]
        p = len(positions)
        left = [None] * p
        right = [None] * p
        blocker_pos = {pos for pos, _w, s, _r in elems if s >= 0}
        for nd in self.live:
            a = bisect_right(positions, nd.hi)
            if a < p:
                # a circle ending exactly on a live unit's position may not
                # skip over it
                blocked = (
                    nd.pos is None
                    and a > 0
                    and positions[a - 1] == nd.hi
                    and positions[a - 1] in blocker_pos
                )
                if not blocked and (left[a] is None or nd.weight < left[a].weight):
                    left[a] = nd
            b = bisect_left(positions, nd.lo) - 1
            if b >= 0:
                blocked = (
                    nd.pos is None
                    and b + 1 < p
                    and positions[b + 1] == nd.lo
                    and positions[b + 1] in blocker_pos
                )
                cur = right[b]
                if not blocked and (cur is None or (nd.weight, nd.hi) < (cur.weight, cur.hi)):
                    right[b] = nd
        return left, right

    def _scan(self) -> Candidate:
        """One pass over every plain window (i, j) and accordion slice
        (a, b), with the available negatives found once; returns the step
        to take, the least candidate by ``key``.

        It keeps the windows and slices whose cheapest completion reaches
        the running minimum, counts what it scanned in ``stats``, and builds
        only the candidates at the minimum weight, one per accordion slice.
        A window (i, j) takes any third member k in j+1 .. cap[j], so its
        cheapest completion is ``pair[j] = w_j + min_to_blk[j + 1]``."""
        live = self.live
        m = len(live)
        cap, min_to_blk = self._window_arrays()
        elems = self._merged_elements()
        pair = [live[j].weight + min_to_blk[j + 1] for j in range(m - 1)]
        best = None
        windows = []  # (i, j), scan order
        hits = []  # (a, b), scan order
        scanned = 0
        for i in range(m - 2):
            # j runs to cap[i], but j = m - 1 leaves no room for a third
            stop = min(cap[i], m - 2) + 1
            scanned += stop - i - 1
            need = min(pair[i + 1 : stop])
            w = live[i].weight + need
            if best is None or w < best:
                best, windows = w, []
            if w == best:
                windows.extend((i, j) for j in range(i + 1, stop) if pair[j] == need)
        slices = self._accordion_slices(elems)
        if slices:
            left, right = self._gap_outers(elems)
            for a, b, acc in slices:
                scanned += 1
                if left[a] is None or right[b] is None:
                    continue
                w = left[a].weight + acc + right[b].weight
                if best is None or w < best:
                    best, windows, hits = w, [], []
                if w == best:
                    hits.append((a, b))
        self.stats["candidates"] += scanned
        if best is None:
            raise EngineError("no compatible triple available")
        plain = (
            self._plain_candidate(live[i], live[j], live[k], best)
            for i, j in windows
            for k in range(j + 1, cap[j] + 1)
            if live[k].weight == min_to_blk[j + 1]
        )
        accordions = (
            self._accordion_candidate(left[a], right[b], elems[a : b + 1], best)
            for a, b in hits
        )
        return min(itertools.chain(plain, accordions), key=lambda c: c.key)

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
        for pos in owned:
            self.last_consumer[pos] = circle
        kept = [nd for nd in self.live if nd.ref not in consumed]
        kept.append(
            _Live(circle, cand.weight, cand.span[0], cand.span[1], False, None)
        )
        for pos in negatives:
            unit = self.units[pos]
            kept.append(_Live(unit.ref, unit.weight, pos, pos, True, pos))
        kept.sort(key=lambda nd: (nd.lo, nd.hi))
        self.live = kept


def _unrealisable(levels, exc: StructureError) -> EngineError:
    return EngineError(f"cannot realise forest for unit levels {list(levels)}: {exc}")


def available_negatives(state: EngineState):
    """Units currently usable with negative weight: original leaves sitting
    as the centre child of a top-level triple of the realised forest, paired
    with the circle that last consumed them.  The forest's top-level triples
    come from one stack pass over the unit levels; no tree is built.

    A centre leaf that is not a live square was consumed positively, so
    ``last_consumer`` holds its owner; a leaf used negatively is a live
    square again until a new circle consumes it and becomes its owner, so a
    spent pairing cannot show up here either.  ``EngineState._apply``
    refuses a missing or spent pairing all the same."""
    if not state.steps:
        return []
    levels = state.unit_levels()
    try:
        centres = pure_centre_leaves(levels)
    except InvalidLevelSequence as exc:
        raise _unrealisable(levels, exc) from exc
    live_squares = state.live_square_positions()
    out = []
    for pos in centres:
        if not state.units[pos].is_square or pos in live_squares:
            continue
        out.append((pos, state.units[pos].weight, state.last_consumer.get(pos)))
    return out


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
    cost: int  # internal cost of the subtree
    weight: int  # total leaf weight
    steps: tuple  # CombinationStep records, creation order
    ref: int  # node id of the subtree root


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
            sol = _Sol(0, self.w[lo], (), lo)
        else:
            sol = None
            for spans, pair in self._plans(lo, hi):
                if sol is not None and sol.cost == self._optimum_of(lo, hi):
                    break
                cand = self._run_plan(spans, pair)
                if sol is None or cand.cost < sol.cost:
                    sol = cand
        self._memo[key] = sol
        return sol

    def _optimum_of(self, lo: int, hi: int) -> int:
        """The mixed-arity DP optimum over leaves lo..hi.  Every completion
        of every plan is a tree over those leaves with internal arities 2
        and 3, so none costs less; and a later plan wins only on a strictly
        lower cost.  Once the best completion reaches this value, no plan
        left can replace it.  The table is built on the first read, so a
        solve that tries one plan per span never builds it."""
        if self._optimum is None:
            self._optimum = _dp_tables(self.w, frozenset((2, 3)))[0]
        return self._optimum[lo][hi]

    def _plans(self, lo: int, hi: int) -> list:
        """Plans ``(spans, pair)`` to try for leaves lo..hi.  ``spans`` is the
        sorted list of leaf spans, one per unit: a leaf outside every
        top-level permanent run, a whole run (one root) or one of the two
        halves of a split run (two roots).  Every combination of single-root
        vs split is tried (parity never forces one choice: either can win on
        cost).  When the unit count is even, ``pair`` is the left leaf of the
        one binary pair, two adjacent leaves outside every run (a split half
        of length 1 is never paired); otherwise it is None.  Every such pair
        is tried: the one binary node of an optimal tree is usually, but not
        always, a minimum-weight pair, so the cheaper completion decides.
        Ordered by split count, then by (run, cut), then by pair position,
        so ties resolve leftmost."""
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
        plans = []
        for vec in vectors:
            spans = list(leaves)
            for (a, b), cut in zip(runs, vec):
                spans.extend([(a, b)] if cut is None else [(a, cut), (cut + 1, b)])
            spans.sort()
            if len(spans) % 2 == 1:
                plans.append((spans, None))
            else:
                plans.extend((spans, i) for i in pairs)
        if not plans:
            raise EngineError("no feasible unit sequence for this span")
        return plans

    def _run_plan(self, spans, pair) -> _Sol:
        """Solve each unit of a plan left to right, the binary pair (leaves
        pair and pair + 1) as one circle, then combine the units with the
        ternary engine."""
        units = []
        own_steps = []
        own_cost = 0
        spans = iter(spans)
        for lo, hi in spans:
            if lo == pair:
                next(spans)  # the pair's right leaf
                circle = self._alloc()
                w = self.w[lo] + self.w[lo + 1]
                own_steps.append(
                    CombinationStep(
                        circle=circle,
                        weight=w,
                        participants=(
                            Participant(lo, 1, ROLE_PLAIN),
                            Participant(lo + 1, 1, ROLE_PLAIN),
                        ),
                    )
                )
                own_cost += w
                units.append(Unit(w, circle, False))
            elif lo == hi:
                units.append(Unit(self.w[lo], lo, True))
            else:
                sub = self.solve_tree(lo, hi)
                own_steps.extend(sub.steps)
                own_cost += sub.cost
                units.append(Unit(sub.weight, sub.ref, False))
        if len(units) == 1:
            unit = units[0]
            return _Sol(own_cost, unit.weight, tuple(own_steps), unit.ref)
        state = EngineState(units, allocator=self._alloc)
        state.run()
        levels = state.unit_levels()
        try:
            pure_centre_leaves(levels)  # the final unit levels form one tree
        except InvalidLevelSequence as exc:
            raise _unrealisable(levels, exc) from exc
        steps = tuple(own_steps) + tuple(state.steps)
        cost = own_cost + sum(s.weight for s in state.steps)
        weight = sum(u.weight for u in units)
        return _Sol(cost, weight, steps, state.live[0].ref)

    def solve(self) -> tuple:
        n = len(self.w)
        sol = self.solve_tree(0, n - 1)
        remap = {}
        steps = []
        for k, s in enumerate(sol.steps):
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
        return sol, CombinationTrace(n, tuple(steps))


def general_solve(weights: Sequence[int]) -> SolveReport:
    """Optimal-tree search for arbitrary inputs: resolve permanent runs as
    one- or two-root subproblems, fix parity with a single binary pair when
    needed, then run the greedy ternary combination over the units; the
    cheapest completion wins, the first in plan order among equals.  A span
    stops trying plans once its best completion costs its mixed-arity DP
    optimum, which no later plan can beat.  The tree is the replay of the
    final trace."""
    ws = validate_weights(weights)
    sol, trace = _GeneralSolver(ws).solve()
    report = report_from_trace("ternary", trace, ws)
    if sol.cost != report.cost:
        raise EngineError(f"cost mismatch: plan {sol.cost}, increments {report.cost}")
    return report
