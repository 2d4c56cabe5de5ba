import dataclasses
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from alphatree.core import (
    ROLE_ACCORDION,
    CombinationTrace,
    Infeasible,
    Participant,
    is_alphabetic,
    leaf_levels,
    tree_cost,
)
from alphatree.harness import check_report
from alphatree.levels import (
    InvalidLevelSequence,
    pure_centre_leaves,
    signed_levels,
    top_trees,
)
from alphatree.oracle import dp_optimal
from alphatree.ternary import (
    EngineError,
    EngineState,
    Unit,
    _GeneralSolver,
    _solve_pure_ternary,
    available_negatives,
    detect_pcns,
    general_solve,
    is_interior_pair_pcn_free,
    solve_pure_ternary,
)
from tests.conftest import FIFTEEN_WEIGHTS, SEVEN_WEIGHTS
from tests import test_levels
from tests.test_levels import _past_cap_inputs

# the crossing-circle crash on a pair-PCN-free input, on its 13-leaf shrink
# with permanent runs, and the 20-leaf general_solve reproducer (importing
# the class itself would collect its tests here a second time)
CRASH_15, CRASH_13 = test_levels.TestPinnedSolverOutputs.KNOWN_FAILURES[:2]
REPRODUCER = test_levels.TestPinnedSolverOutputs.REPRODUCER


def engine_for(weights, steps=0):
    state = EngineState([Unit(w, True) for w in weights])
    for _ in range(steps):
        state.advance()
    return state


def accordion_size(cand):
    """Number of accordion elements in a step, 0 for a plain triple."""
    return sum(p.role == ROLE_ACCORDION for p in cand.participants)


def accordion_block_weights(rng, n):
    """n weights in blocks shaped like the worked examples: a moderate pair,
    then light leaves alternating with heavier ones (m, m, l, h, l, h, l ...),
    so light-heavy-light triples close first and their centres come back as
    negatives."""
    ws = []
    while len(ws) < n:
        m = rng.randint(4, 10)
        ws += [m, m, rng.randint(0, 2)]
        for _ in range(rng.randint(1, 3)):
            ws += [rng.randint(m + 1, 2 * m - 1), rng.randint(0, 2)]
    return ws[:n]


def rebuild_inputs():
    """Accordion block inputs and random ones with odd n up to 41."""
    rng = random.Random(61)
    inputs = [
        accordion_block_weights(rng, rng.choice(range(11, 42, 2))) for _ in range(30)
    ]
    for _ in range(60):
        n = rng.choice(range(1, 42, 2))
        inputs.append([rng.randint(0, rng.choice([3, 25, 100])) for _ in range(n)])
    return inputs


def live_square_positions(state):
    return {nd.pos for nd in state.live if nd.pos is not None and state.units[nd.pos].is_square}


def negatives_from_stack_pass(state, levels):
    """The available negatives the stack pass over ``levels`` implies: the
    leaf centres of the top-level triples that are not live squares."""
    live_squares = live_square_positions(state)
    return [
        c for c in pure_centre_leaves(levels)
        if state.units[c].is_square and c not in live_squares
    ]


def negative_positions(state):
    """The engine's available negatives: its sign -1 elements' positions."""
    return [pos for pos, _w, sign in state._elems if sign < 0]


def negative_pairings(state):
    """The engine's available negatives as (position, weight, owner)."""
    return [
        (pos, state.units[pos].weight, state.last_consumer.get(pos))
        for pos in negative_positions(state)
    ]


def reparsed(before, after, changed):
    """The top-level centres and tree starts an engine finds for the levels
    ``after`` when it last parsed ``before`` and ``available_negatives`` gets
    the hull ``changed`` of the positions that differ (an odd count of
    each).  No unit is live, so every centre is an available negative."""
    state = engine_for([1] * len(before))
    state._elems.clear()
    state._levels[:] = before
    available_negatives(state, 0, len(before) - 1)
    state._levels[:] = after
    available_negatives(state, *changed)
    return negative_positions(state), state._tree_starts


def negatives_from_forest(state):
    """Reference for ``available_negatives``: realise the whole forest and
    read the centre leaves of its top-level triples."""
    forest = state.forest()
    live_squares = live_square_positions(state)
    out = []
    for r in forest.roots:
        nd = forest.nodes[r]
        if len(nd.children) != 3 or not forest.nodes[nd.children[1]].is_leaf:
            continue
        pos = forest.nodes[nd.children[1]].leaf_index
        owner = state.last_consumer.get(pos)
        if not state.units[pos].is_square or pos in live_squares or owner is None:
            continue
        if (pos, owner) not in state.spent:
            out.append((pos, state.units[pos].weight, owner))
    return sorted(out)


def gap_buckets(state, elems, a, b):
    """The live nodes that may flank the accordion slice elems[a..b]: a left
    outer's span ends in the gap before element a (at or after element a-1),
    a right outer's span starts in the gap after element b (at or before
    element b+1).  A circle ending (starting) exactly on a live unit there
    would skip over it, so it may not flank that gap."""
    pos = [e[0] for e in elems]

    def skips_unit(nd, k, at):
        return nd.pos is None and 0 <= k < len(elems) and pos[k] == at and elems[k][2] >= 0

    lefts = [
        nd for nd in state.live
        if (a == 0 or pos[a - 1] <= nd.hi) and nd.hi < pos[a]
        and not skips_unit(nd, a - 1, nd.hi)
    ]
    rights = [
        nd for nd in state.live
        if pos[b] < nd.lo and (b + 1 == len(pos) or nd.lo <= pos[b + 1])
        and not skips_unit(nd, b + 1, nd.lo)
    ]
    return lefts, rights


def merged_elements(state):
    """Reference for the engine's kept elements: the live units by position
    (sign +1 for a square, 0 for an opaque unit) and the negatives the whole
    realised forest offers (sign -1)."""
    elems = [
        (nd.pos, nd.weight, 1 if state.units[nd.pos].is_square else 0)
        for nd in state.live
        if nd.pos is not None
    ]
    elems += [(pos, w, -1) for pos, w, _o in negatives_from_forest(state)]
    return sorted(elems)


def accordion_slices(elems):
    """Every alternation-respecting slice (a, b, slice_weight) that starts
    and ends on a positive element, length >= 2, found by expanding every
    segment of the whole sequence.  Blockers (sign 0) and equal adjacent
    signs bound the segments."""
    p = len(elems)
    out = []
    seg_start = 0
    for e in range(p + 1):
        boundary = e == p or elems[e][2] == 0 or (
            e > 0 and (elems[e][2] == elems[e - 1][2] or elems[e - 1][2] == 0)
        )
        if not boundary:
            continue
        for a in range(seg_start, e):
            if elems[a][2] != 1:
                continue
            acc = elems[a][1]
            for b in range(a + 1, e):
                acc += elems[b][2] * elems[b][1]
                if elems[b][2] > 0:
                    out.append((a, b, acc))
        seg_start = e
    return out


def segment_summaries(state):
    """Reference for the engine's segment summaries: for each alternating
    segment that holds a negative, by its first position, its slice count
    and its least accordion candidate by key (None when no slice has outer
    nodes on both sides), from the whole-sequence slices and every outer
    node in their gap buckets; equal keys keep the first in live order."""
    elems = merged_elements(state)
    starts = []  # the first element of each element's segment
    for e, (_p, _w, sign) in enumerate(elems):
        joined = e > 0 and sign != 0 and elems[e - 1][2] not in (0, sign)
        starts.append(starts[-1] if joined else e)
    out = {elems[starts[e]][0]: [0, None] for e, el in enumerate(elems) if el[2] < 0}
    for a, b, acc in accordion_slices(elems):
        summary = out[elems[starts[a]][0]]
        summary[0] += 1
        lefts, rights = gap_buckets(state, elems, a, b)
        for left in lefts:
            for right in rights:
                w = left.weight + acc + right.weight
                cand = state._accordion_candidate(left, right, elems[a : b + 1], w)
                if summary[1] is None or cand.key < summary[1].key:
                    summary[1] = cand
    return {first: tuple(summary) for first, summary in out.items()}


def kept_summaries(state):
    """The engine's segment summaries as slice count and least accordion
    candidate."""
    return {
        seg[0]: (seg[4], None if seg[6] is None else state._hit_candidate(seg))
        for seg in state._segs
    }


def engine_bound(state):
    """The engine's exact sentinel: twice the total unit weight plus one."""
    return 2 * sum(unit.weight for unit in state.units) + 1


def window_arrays(state):
    """Reference for the window quantities the engine keeps: one backward
    pass over the whole live sequence.  Per live index j: the offset from j
    to ``cap[j]``, the last index a window starting at j may reach (the
    first unit after j, or the end); ``pair[j] = w_j + min_to_blk[j + 1]``,
    where ``min_to_blk[k]`` is the minimum weight from k through the first
    unit at or after k (or the end); ``need[j]``, the minimum of ``pair``
    from j through the first unit at or after j (or m - 2); the weight of
    the cheapest window starting at j, ``w_j + need[j + 1]``; and the number
    of windows starting at j, ``min(cap[j], m - 2) - j``.  Pair, need and
    the cheapest window at m - 1 hold the engine's bound, twice the total
    weight plus one, and the cheapest window at m - 2 its weight plus the
    bound; indexes with no window count 0."""
    live = state.live
    m = len(live)
    bound = engine_bound(state)
    cap = [m - 1] * m
    pair = [bound] * m
    need = [bound] * m
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
    cheap = [nd.weight + q for nd, q in zip(live, need[1:])] + [bound]
    count = [min(cap[i], m - 2) - i for i in range(m - 2)] + [0, 0]
    return [c - j for j, c in enumerate(cap)], pair, need, cheap, count


def scans_next(state):
    """Whether the next step scans: a unit is still live."""
    return not state.done and any(sign >= 0 for _p, _w, sign in state._elems)


def assert_kept_scan_state(state):
    """The window quantities, the live nodes' (hi, lo) order and the segment
    summaries with their hit keys that the engine kept from earlier steps
    equal a recomputation from scratch.  Returns the number of candidates
    the next scan counts: every window and every slice."""
    kept = (state._cap, state._pair, state._need, state._cheap, state._count)
    windows = window_arrays(state)
    assert list(map(list, kept)) == list(windows)
    by_hi = sorted(state.live, key=lambda nd: (nd.hi, nd.lo))  # stable
    assert [id(e[3]) for e in state._by_hi] == [id(nd) for nd in by_hi]
    assert all(e[:3] == (e[3].hi, e[3].lo, e[3].ref) for e in state._by_hi)
    summaries = segment_summaries(state)
    assert kept_summaries(state) == summaries
    assert [s[5] for s in state._segs] == [
        (engine_bound(state),) if hit is None else hit.key
        for _count, hit in summaries.values()
    ]
    return sum(windows[4]) + sum(count for count, _hit in summaries.values())


def enumerate_candidates(state):
    """Every legal combination available right now, best first: each plain
    triple of each window, and each accordion slice with each pair of outer
    nodes from its gap buckets.  The reference for ``EngineState._scan``,
    which returns the one candidate it takes."""
    if state.done:
        return []
    if not any(nd.pos is not None for nd in state.live):
        return [state._queue_candidate()]
    live = state.live
    m = len(live)
    # a window starting at i reaches the first unit after i, or the end
    cap = [next((k for k in range(i + 1, m) if live[k].pos is not None), m - 1) for i in range(m)]
    out = []
    for i in range(m - 2):
        for j in range(i + 1, min(cap[i], m - 2) + 1):
            for k in range(j + 1, cap[j] + 1):
                a, b, c = live[i], live[j], live[k]
                out.append(state._plain_candidate(a, b, c, a.weight + b.weight + c.weight))
    elems = merged_elements(state)
    for a, b, acc in accordion_slices(elems):
        lefts, rights = gap_buckets(state, elems, a, b)
        for left in lefts:
            for right in rights:
                w = left.weight + acc + right.weight
                out.append(state._accordion_candidate(left, right, elems[a : b + 1], w))
    return sorted(out, key=lambda c: c.key)


def brute_force_pcn_spans(ws):
    """Check every subspan directly against the two-sided inequality."""
    n = len(ws)
    spans = []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) == (0, n - 1):
                continue
            total = sum(ws[i : j + 1])
            left_ok = i == 0 or ws[i - 1] > total
            right_ok = j == n - 1 or ws[j + 1] > total
            if left_ok and right_ok:
                spans.append((i, j))
    return sorted(spans)


def outermost(spans):
    """The spans that no other span contains."""
    return [
        s for s in spans
        if not any(t != s and t[0] <= s[0] and s[1] <= t[1] for t in spans)
    ]


def reference_plans(ws, lo, hi):
    """Reference for ``_GeneralSolver._choices``: every single-vs-split choice
    vector over the outermost runs, listed in full and sorted by split count
    and then by the list of (run, cut) pairs; past ``VECTOR_CAP`` vectors,
    the all-single vector, then each run split on its own at each cut."""
    runs = [(a + lo, b + lo) for a, b in outermost(brute_force_pcn_spans(ws[lo : hi + 1]))]
    if math.prod(b - a + 1 for a, b in runs) > _GeneralSolver.VECTOR_CAP:
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
            plans.append(spans)
            continue
        for i in pairs:
            k = spans.index((i, i))
            plans.append(spans[:k] + [(i, i + 1)] + spans[k + 2 :])
    return plans


def steps_reference(steps, n):
    """From the steps alone: the circle that last took each leaf positively,
    and the live refs (circles no later step consumed, and leaves never
    consumed or last used negatively)."""
    last_consumer, last_sign, consumed = {}, {}, set()
    for s in steps:
        for p in s.participants:
            if p.ref < n:
                last_sign[p.ref] = p.sign
                if p.sign > 0:
                    last_consumer[p.ref] = s.circle
            elif p.sign > 0:
                consumed.add(p.ref)
    live = [s.circle for s in steps if s.circle not in consumed]
    live += [i for i in range(n) if last_sign.get(i, -1) < 0]
    return last_consumer, sorted(live)


class TestDetectPcns:
    def test_light_boundary_pairs(self):
        assert list(detect_pcns((1, 1, 100, 1, 1))) == [(0, 1), (3, 4)]

    def test_seven_node_has_none(self):
        ws = SEVEN_WEIGHTS
        assert detect_pcns(ws) == ()
        assert brute_force_pcn_spans(ws) == []

    def test_two_heavy_centre(self):
        assert list(detect_pcns((1, 1, 100, 100, 1, 1))) == [
            (0, 1),
            (4, 5),
        ]

    def test_nested_spans(self):
        # only the outermost run; the nested one shows on that run's own span
        assert list(detect_pcns((20, 5, 1, 1, 5, 20))) == [(1, 4)]
        assert list(detect_pcns((5, 1, 1, 5))) == [(1, 2)]

    def test_matches_brute_force_on_random_inputs(self):
        # zeros and stretches of equal weights stop a start's scan on ties
        rng = random.Random(3)
        for k in range(400):
            n = rng.randint(1, 40)
            hi = (0, 1, 3, 12, 100)[k % 5]
            ws = [rng.randint(0, hi) for _ in range(n)]
            for _ in range(rng.randint(0, 2)):
                a, b = sorted(rng.sample(range(n + 1), 2))
                ws[a:b] = [rng.randint(0, hi)] * (b - a)
            ws = tuple(ws)
            assert list(detect_pcns(ws)) == outermost(brute_force_pcn_spans(ws))

    def test_invariant_weight_below_neighbours(self):
        ws = (9, 2, 3, 8, 1, 1, 9)
        assert detect_pcns(ws) == ((1, 2), (4, 5))
        for lo, hi in detect_pcns(ws):
            total = sum(ws[lo : hi + 1])
            if lo > 0:
                assert ws[lo - 1] > total
            if hi < len(ws) - 1:
                assert ws[hi + 1] > total


class TestPcnFreeFilter:
    def test_boundary_pairs_never_block(self):
        assert is_interior_pair_pcn_free((1, 1, 100))
        assert is_interior_pair_pcn_free(SEVEN_WEIGHTS)

    def test_interior_light_pair_blocks(self):
        assert not is_interior_pair_pcn_free((100, 1, 1, 100))


class TestAvailableNegatives:
    def test_seven_node_after_first_combination(self):
        state = engine_for(SEVEN_WEIGHTS, steps=1)
        assert negative_pairings(state) == [(3, 10, 7)]

    def test_fifteen_node_after_two(self):
        state = engine_for(FIFTEEN_WEIGHTS, steps=2)
        assert negative_pairings(state) == [(5, 10, 15), (9, 10, 16)]

    def test_fifteen_node_after_three(self):
        state = engine_for(FIFTEEN_WEIGHTS, steps=3)
        assert negative_pairings(state) == [(3, 6, 17), (7, 11, 17), (11, 6, 17)]

    def test_spent_pairing_not_reissued(self):
        state = engine_for(SEVEN_WEIGHTS, steps=2)
        # step two took leaf 3 negatively from circle 7: the leaf is a live
        # square again, so it cannot be offered as a negative ...
        assert (3, 7) in state.spent
        assert 3 in live_square_positions(state)
        # ... and a step that reuses the pairing anyway is refused
        cand = state._scan()
        reuse = dataclasses.replace(
            cand, participants=cand.participants + (Participant(3, -1, ROLE_ACCORDION),)
        )
        with pytest.raises(EngineError, match="without a fresh pairing"):
            state._apply(reuse)


class TestEnumerateCandidates:
    def test_seven_node_best_is_accordion(self):
        state = engine_for(SEVEN_WEIGHTS, steps=1)
        best = enumerate_candidates(state)[0]
        assert best.weight == 14
        assert accordion_size(best) == 3
        signed = [(p.ref, p.sign) for p in best.participants]
        assert signed == [(0, 1), (1, 1), (3, -1), (5, 1), (6, 1)]

    def test_fifteen_node_best_weights(self):
        state = engine_for(FIFTEEN_WEIGHTS, steps=2)
        best = enumerate_candidates(state)[0]
        assert best.weight == 15
        acc_sum = sum(
            p.sign * FIFTEEN_WEIGHTS[p.ref]
            for p in best.participants
            if p.role == "accordion-element"
        )
        assert acc_sum == 3
        state.advance()
        best = enumerate_candidates(state)[0]
        assert best.weight == 17
        acc_sum = sum(
            p.sign * FIFTEEN_WEIGHTS[p.ref]
            for p in best.participants
            if p.role == "accordion-element"
        )
        assert acc_sum == 7

    def test_chosen_step_is_first_candidate(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.choice([3, 5, 7, 9])
            ws = tuple(rng.randint(0, 20) for _ in range(n))
            state = engine_for(ws)
            while not state.done:
                expected = enumerate_candidates(state)[0]
                chosen = state.advance()
                assert chosen == expected

    # weights 0..3 tie the lightest outer nodes of one gap; on these inputs,
    # found by a search over such weights, the tie rule decides a step (the
    # first two on the left side, the last two on the right)
    TIED_OUTERS = (
        (1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0),
        (1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1),
        (1, 2, 2, 0, 3, 0, 1, 2, 0, 0, 0, 0, 2),
        (2, 0, 0, 1, 1, 1, 1, 2, 1, 0, 2, 0, 1, 1, 0, 0, 0, 0, 1, 1, 2),
    )

    def test_chosen_step_is_first_candidate_accordion_heavy(self):
        # On accordion block inputs the step's one-pass minimum must pick the
        # head of the full enumeration whenever accordions compete with plain
        # windows; tie-heavy inputs check which of equally light outer nodes
        # it takes.  Before every step, the elements and segment summaries
        # the engine kept from earlier steps must equal a recomputation from
        # scratch.
        rng = random.Random(37)
        inputs = [
            accordion_block_weights(rng, rng.choice(range(11, 42, 2))) for _ in range(60)
        ]
        inputs += [
            [rng.randint(0, 3) for _ in range(rng.choice(range(11, 42, 2)))]
            for _ in range(40)
        ]
        inputs += self.TIED_OUTERS
        accordions = multi_negative = 0
        for ws in inputs:
            state = engine_for(ws)
            while not state.done:
                expected = enumerate_candidates(state)[0]
                if scans_next(state):
                    assert kept_summaries(state) == segment_summaries(state)
                    assert state._elems == merged_elements(state)
                chosen = state.advance()
                assert chosen == expected
                if scans_next(state):  # live in span order
                    spans = [(nd.lo, nd.hi) for nd in state.live]
                    assert spans == sorted(spans)
                else:  # the queue endgame: live in creation order
                    refs = [nd.ref for nd in state.live]
                    assert refs == sorted(refs)
                accordions += accordion_size(chosen) > 0
                multi_negative += accordion_size(chosen) > 3
        assert accordions >= 30 and multi_negative >= 1


class TestKeptScanState:
    """The engine keeps what its scan reads from one step to the next, and a
    step recomputes only the stretch it touched; before every scan, what it
    kept equals a full pass."""

    def test_tracks_the_full_pass(self):
        rng = random.Random(73)
        inputs = [
            draw(random.Random(n))[:n]
            for draw, *_pinned in TestPureTernaryPhase1.FAMILIES.values()
            for n in (41, 61, 81)
        ]
        inputs += [accordion_block_weights(rng, rng.choice(range(41, 82, 2))) for _ in range(40)]
        inputs += TestEnumerateCandidates.TIED_OUTERS
        scans = accordions = 0
        for ws in inputs:
            state = engine_for(ws)
            while not state.done:
                if scans_next(state):
                    counted = assert_kept_scan_state(state)
                    scans += 1
                else:
                    counted = 1  # a queue step counts its one triple
                before = state.stats["candidates"]
                accordions += accordion_size(state.advance()) > 0
                assert state.stats["candidates"] - before == counted
        assert scans > 1200 and accordions > 60

    def test_tracks_the_full_pass_inside_general_solve(self, monkeypatch):
        # the units of a plan include opaque subproblem roots, with sign 0:
        # they block windows and bound segments
        checked = {"scans": 0, "opaque": 0}
        advance = EngineState.advance

        def checked_advance(state):
            if not scans_next(state):
                return advance(state)
            counted = state.stats["candidates"] + assert_kept_scan_state(state)
            checked["scans"] += 1
            checked["opaque"] += not all(u.is_square for u in state.units)
            step = advance(state)
            assert state.stats["candidates"] == counted
            return step

        monkeypatch.setattr(EngineState, "advance", checked_advance)
        # 90 draws: the pair-loop skip leaves fewer engine runs per input
        rng = random.Random(79)
        for _ in range(90):
            ws = [rng.randint(0, rng.choice([3, 25, 100])) for _ in range(rng.randint(8, 20))]
            try:
                general_solve(ws)
            except EngineError:
                pass
        assert checked["scans"] > 1500 and checked["opaque"] > 1400

    def test_queue_takes_the_three_oldest_circles(self):
        # once only circles remain, live holds them in creation order, and
        # each step combines live[:3], the three with the least refs, the
        # oldest, and appends the new circle
        rng = random.Random(83)
        queue_steps = 0
        for _ in range(30):
            state = engine_for([rng.randint(0, 100) for _ in range(rng.choice(range(21, 62, 2)))])
            while not state.done:
                if scans_next(state):
                    state.advance()
                    continue
                refs = [nd.ref for nd in state.live]
                assert refs == sorted(refs)
                step = state.advance()
                assert sorted(p.ref for p in step.participants) == refs[:3]
                assert [nd.ref for nd in state.live] == refs[3:] + [state.steps[-1].circle]
                queue_steps += 1
        assert queue_steps > 140


class TestPureTernaryPhase1:
    def test_seven_node_increments(self, seven_trace):
        trace = solve_pure_ternary(SEVEN_WEIGHTS).trace
        assert trace.increments() == (12, 14, 36)
        assert trace == seven_trace

    def test_single_triple(self):
        assert solve_pure_ternary((1, 2, 3)).trace.increments() == (6,)

    def test_fifteen_node_matches_reference(self, fifteen_trace):
        trace = solve_pure_ternary(FIFTEEN_WEIGHTS).trace
        assert trace.increments() == (12, 12, 15, 17, 23, 39, 79)
        assert trace == fifteen_trace

    def test_queue_endgame_structure(self, fifteen_trace):
        # once only circles remain they combine in creation order:
        # (12, 12, 15) then (17, 23, 39)
        queue_steps = fifteen_trace.steps[5:]
        assert {p.ref for p in queue_steps[0].participants} == {15, 16, 17}
        assert {p.ref for p in queue_steps[1].participants} == {18, 19, 20}
        assert [s.weight for s in queue_steps] == [39, 79]

    def test_even_count_rejected(self):
        with pytest.raises(Infeasible):
            solve_pure_ternary((1, 2))

    def test_single_leaf(self):
        assert solve_pure_ternary((5,)).trace.increments() == ()

    def test_solve_report_consistency(self):
        report = solve_pure_ternary(SEVEN_WEIGHTS)
        assert report.cost == 62
        assert report.levels == (2, 2, 2, 1, 2, 2, 2)
        assert report.cost == dp_optimal(SEVEN_WEIGHTS, (3,))[0]

    # per weight family at n=201 (random.Random(201) draws the uniform ones):
    # the trace's sha256, the candidates scanned and the queue steps; ties,
    # monotone and sawtooth weights are families no benchmark workload draws
    FAMILIES = {
        "uniform-50-99": (
            lambda r: [r.randint(50, 99) for _ in range(201)],
            "e73100b950d5c578233f8f02a2cee359e22d3daa31c8197ff41b9f1c2a963c27", 15623, 33,
        ),
        "uniform-0-3": (
            lambda r: [r.randint(0, 3) for _ in range(201)],
            "5b0a686e45fa2a9b558ca1cc358e5e95716a67d44b2ee3f8769f626cffbe316e", 19162, 22,
        ),
        "powers-of-2": (
            lambda r: [2 ** (i % 20) for i in range(201)],
            "8527a5fa0d30a170a4abe5c3bc44fba63643fd9630111067a022bb97d00cc25b", 11828, 3,
        ),
        "increasing": (
            lambda r: list(range(1, 202)),
            "89f9ce39312129e8f70c3282b3ef1f35e09c236cba41dacfd2ee369f06c2415b", 40501, 24,
        ),
        "all-equal": (
            lambda r: [1] * 201,
            "0aca43e8cb792713f965f6d0fa96a4e82206396ae2e06ac1992bd1af6f465d72", 56849, 33,
        ),
        "sawtooth": (
            lambda r: [9 if i % 2 == 0 else 1 for i in range(201)],
            "0ee08f7ba4fd67f8917de3faa16cd575ebdbad7ea12f04e6f936f2904a7166c8", 50918, 33,
        ),
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_weight_family_trace_and_candidates(self, family):
        draw, digest, candidates, queue_steps = self.FAMILIES[family]
        report, stats = _solve_pure_ternary(draw(random.Random(201)))
        assert hashlib.sha256(repr(report.trace.to_json_obj()).encode()).hexdigest() == digest
        assert stats["candidates"] == candidates
        assert stats["queue_steps"] == queue_steps

    def test_one_plain_candidate_per_step(self, monkeypatch):
        # all-equal weights tie hundreds of plain windows on every scan; the
        # scan compares their keys and builds only the step it takes
        built = [0]
        plain_candidate = EngineState._plain_candidate

        def counted(state, *args):
            built[0] += 1
            return plain_candidate(state, *args)

        monkeypatch.setattr(EngineState, "_plain_candidate", counted)
        report, _stats = _solve_pure_ternary([1] * 201)
        assert 0 < built[0] <= len(report.trace.steps) == 100

    def test_misses_the_optimum_without_permanent_runs(self):
        # weights 50..99 have no permanent runs, yet at n=201 the greedy is
        # one above the optimum; pinned exactly, so a change either way fails
        rng = random.Random(2011)
        ws = [rng.randint(50, 99) for _ in range(201)]
        assert detect_pcns(ws) == ()
        assert solve_pure_ternary(ws).cost == 74912
        assert dp_optimal(ws, (3,))[0] == 74911


class TestGeneralSolve:
    def test_heavy_centre_example(self):
        report = general_solve((1, 1, 100, 1, 1))
        assert report.cost == 108
        assert report.tree.to_nested() == [[1, 1], 100, [1, 1]]
        assert report.cost == dp_optimal((1, 1, 100, 1, 1), (2, 3))[0]

    def test_two_heavy_centre(self):
        report = general_solve((1, 1, 100, 100, 1, 1))
        assert report.cost == 308
        assert report.tree.to_nested() == [[1, 1, 100], 100, [1, 1]]
        assert report.cost == dp_optimal((1, 1, 100, 100, 1, 1), (2, 3))[0]

    def test_triple_light_prefix(self):
        report = general_solve((1, 1, 1, 100, 1, 1))
        assert report.tree.to_nested() == [[1, 1, 1], 100, [1, 1]]
        assert report.cost == dp_optimal((1, 1, 1, 100, 1, 1), (2, 3))[0]

    def test_seven_node(self):
        report = general_solve(SEVEN_WEIGHTS)
        assert report.cost == 62
        assert report.levels == (2, 2, 2, 1, 2, 2, 2)

    def test_monotone_quadruple(self):
        report = general_solve((1, 2, 3, 4))
        assert report.tree.to_nested() == [[1, 2], 3, 4]
        assert report.cost == 13

    def test_trivial_sizes(self):
        assert general_solve((5,)).cost == 0
        assert general_solve((3, 4)).cost == 7
        assert general_solve((3, 4)).tree.to_nested() == [3, 4]

    def test_single_binary_node_for_monotone_even_lengths(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.choice([4, 6, 8])
            ws = tuple(sorted(rng.sample(range(1, 500), n)))
            report = general_solve(ws)
            pairs = [nd for nd in report.tree.nodes if len(nd.children) == 2]
            assert len(pairs) == 1
            # the one pair combines the two lightest leaves
            kids = [report.tree.nodes[c].leaf_index for c in pairs[0].children]
            assert kids == [0, 1]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=9))
    def test_valid_and_never_better_than_oracle(self, ws):
        ws = tuple(ws)
        report = general_solve(ws)
        assert is_alphabetic(report.tree)
        assert tree_cost(report.tree, ws) == report.cost == report.trace.total()
        assert leaf_levels(report.tree) == report.levels == signed_levels(report.trace)
        assert report.cost >= dp_optimal(ws, (2, 3))[0]

    def test_binary_parity_invariant(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(1, 12)
            ws = tuple(rng.randint(0, 40) for _ in range(n))
            report = general_solve(ws)
            binary = sum(1 for a in report.tree.arities() if a == 2)
            assert binary % 2 == (n - 1) % 2

    def test_every_binary_step_pairs_adjacent_leaves(self):
        # the binary pair of a plan, top-level or inside a subproblem, is
        # the two-leaf span (i, i + 1) combined as one plain step
        rng = random.Random(43)
        several = 0
        for k in range(300):
            n = rng.randint(2, 24)
            ws = tuple(rng.randint(0, (3, 10, 100)[k % 3]) for _ in range(n))
            try:
                steps = general_solve(ws).trace.steps
            except EngineError:
                continue
            binary = [s for s in steps if s.arity == 2]
            for s in binary:
                (i, si), (j, sj) = ((p.ref, p.sign) for p in s.participants)
                assert (j, si, sj) == (i + 1, 1, 1) and j < n
            several += len(binary) > 1
        assert several > 0


def solve_outcome(ws):
    """The whole general_solve output, or the error's type and text."""
    try:
        r = general_solve(ws)
        return (r.cost, r.tree.nodes, r.tree.roots, r.levels, r.trace)
    except RuntimeError as exc:
        return (type(exc).__name__, str(exc))


def try_every_plan(monkeypatch):
    """The plan search without its stop or its pair-loop skip: no span's
    best ever reaches -1, nor falls to it."""
    monkeypatch.setattr(_GeneralSolver, "_optimum_of", lambda self, lo, hi: -1)
    monkeypatch.setattr(_GeneralSolver, "_pair_bound", lambda self, units: -1)


def solver_plans(ws, lo, hi):
    """Every plan ``_GeneralSolver._choices`` yields for leaves lo..hi, in
    order."""
    return [spans for _, plans in _GeneralSolver(ws)._choices(lo, hi) for spans in plans]


class TestPlanOrder:
    def test_matches_the_sorted_enumeration(self):
        rng = random.Random(1103)
        for k in range(600):
            ws = tuple(rng.randint(0, (3, 10, 100)[k % 3]) for _ in range(rng.randint(3, 30)))
            lo = rng.randrange(len(ws) - 2)
            hi = rng.randrange(lo + 2, len(ws))
            assert solver_plans(ws, lo, hi) == reference_plans(ws, lo, hi)

    def test_matches_past_the_vector_cap(self):
        for ws in _past_cap_inputs(504, 30):
            hi = len(ws) - 1
            assert solver_plans(ws, 0, hi) == reference_plans(ws, 0, hi)

    def test_matches_with_a_long_run_at_the_vector_cap(self):
        # runs (1, 2), (4, 5) and (7, 134): 2 * 2 * 128 = 512 choices, right
        # at the cap, so every choice is tried; most ways to pick cuts from
        # the three runs cut the long run twice, and none of those is a plan
        ws = (1000, 1, 1, 1000, 1, 1, 1000, *[1] * 128, 1000)
        assert detect_pcns(ws) == ((1, 2), (4, 5), (7, 134))
        hi = len(ws) - 1
        assert solver_plans(ws, 0, hi) == reference_plans(ws, 0, hi)


class TestPlanSearchStop:
    """A span's plan search stops once its best completion costs the span's
    mixed-arity DP optimum, and skips an even choice's pair plans once the
    choice's pair bound is no lower than the best completion; no skipped plan
    can cost less, so no output changes, except that skipped plans no longer
    get to raise."""

    def test_outputs_match_trying_every_plan(self, monkeypatch):
        rng = random.Random(1101)
        inputs = [
            tuple(rng.randint(0, hi) for _ in range(rng.randint(3, 20)))
            for hi in (3, 10, 100)
            for _ in range(100)
        ]
        inputs += _past_cap_inputs(504, 30)
        stopped = [solve_outcome(ws) for ws in inputs]
        try_every_plan(monkeypatch)
        assert [solve_outcome(ws) for ws in inputs] == stopped

    def test_engine_runs(self, monkeypatch):
        # 257 engine runs when every plan is tried, as before the stop and
        # the pair-loop skip, and 113 with both (123 with the stop alone)
        rng = random.Random(1102)
        inputs = [tuple(rng.randint(0, 100) for _ in range(rng.randint(8, 16))) for _ in range(20)]
        runs = [0]
        run = EngineState.run

        def counted(state):
            runs[0] += 1
            run(state)

        monkeypatch.setattr(EngineState, "run", counted)
        for ws in inputs:
            general_solve(ws)
        assert runs[0] == 113
        try_every_plan(monkeypatch)
        runs[0] = 0
        for ws in inputs:
            general_solve(ws)
        assert runs[0] == 257

    def test_pair_plans_cost_at_least_the_pair_bound(self):
        # every even choice's pair plans, on seeded spans and on spans past
        # VECTOR_CAP: the past-cap inputs get a heavy first leaf, so leaves
        # 0 and 1 lie outside every run and make a pair
        rng = random.Random(1104)
        spans = []
        for hi in (3, 10, 100):
            for _ in range(40):
                ws = tuple(rng.randint(0, hi) for _ in range(rng.randint(4, 20)))
                lo = rng.randrange(len(ws) - 2)
                spans += [(ws, lo, rng.randrange(lo + 2, len(ws))), (ws, 0, len(ws) - 1)]
        for ws in _past_cap_inputs(504, 10):
            ws = (rng.randint(60, 100),) + ws
            vectors = math.prod(b - a + 1 for a, b in detect_pcns(ws))
            assert vectors > _GeneralSolver.VECTOR_CAP
            spans.append((ws, 0, len(ws) - 1))
        checked = tight = 0
        for ws, lo, hi in spans:
            solver = _GeneralSolver(ws)
            for units, plans in solver._choices(lo, hi):
                if len(units) % 2 == 1:
                    continue
                bound = solver._pair_bound(units)
                for plan in plans:
                    cost = solver._run_plan(plan).cost
                    assert cost >= bound
                    checked += 1
                    tight += cost == bound
        assert checked > 2000 and tight > 100

    def test_single_plan_inputs_build_no_table(self, monkeypatch):
        def no_table(ws, allowed):
            raise AssertionError("the DP table was built for a one-plan solve")

        monkeypatch.setattr("alphatree.ternary._dp_tables", no_table)
        assert general_solve(SEVEN_WEIGHTS).cost == 62
        assert general_solve(FIFTEEN_WEIGHTS).cost == 197

    def test_thirteen_leaf_crash_input_reaches_the_optimum(self, monkeypatch):
        # the fourth of its 16 plans reaches the optimum; the last, every
        # run split, has the 13 raw leaves as units and raises just as
        # solve_pure_ternary does on them
        report = general_solve(CRASH_13)
        assert report.cost == 422 == dp_optimal(CRASH_13, (2, 3))[0]
        assert check_report(report) == []
        try_every_plan(monkeypatch)
        with pytest.raises(EngineError, match="cannot realise forest"):
            general_solve(CRASH_13)


CRASHES = [
    pytest.param(solve_pure_ternary, CRASH_15, id="pure-15"),
    pytest.param(solve_pure_ternary, CRASH_13, id="pure-13"),
    pytest.param(general_solve, CRASH_15, id="general-15"),
    pytest.param(general_solve, REPRODUCER, id="general-20"),
]


@pytest.mark.xfail(strict=True, raises=EngineError, reason="crossing-circle crash")
@pytest.mark.parametrize("solver, ws", CRASHES)
def test_crossing_circle_inputs_solve(solver, ws):
    assert check_report(solver(ws)) == []


class TestStepwiseForest:
    def test_forest_cost_tracks_increment_sum(self):
        # after every combination the realised forest costs exactly the
        # running sum of increments
        rng = random.Random(59)
        for _ in range(40):
            n = rng.choice([3, 5, 7, 9, 11])
            ws = tuple(rng.randint(0, 25) for _ in range(n))
            state = engine_for(ws)
            running = 0
            while not state.done:
                running += state.advance().weight
                forest = state.forest()
                assert sum(nd.weight for nd in forest.nodes if not nd.is_leaf) == running

    def test_incremental_levels_and_negatives_track_full_rebuild(self):
        # after every step the incrementally kept levels equal the levels the
        # trace so far implies, the stack pass finds the same available
        # negatives as realising the whole forest, and the owners, the live
        # refs and the accordion span agree with what the steps alone imply
        accordions = 0
        for ws in rebuild_inputs():
            state = engine_for(ws)
            while not state.done:
                state.advance()
                step = state.steps[-1]
                trace = CombinationTrace(len(ws), tuple(state.steps))
                assert state.unit_levels() == signed_levels(trace)
                if scans_next(state):  # the queue endgame reads no negative
                    assert negative_pairings(state) == negatives_from_forest(state)
                assert state._live_units == sum(e[2] >= 0 for e in state._elems)
                squares = {e[0] for e in state._elems if e[2] > 0}
                assert squares == live_square_positions(state)
                last_consumer, live = steps_reference(state.steps, len(ws))
                assert state.last_consumer == last_consumer
                assert sorted(nd.ref for nd in state.live) == live
                refs = [p.ref for p in step.participants if p.role == ROLE_ACCORDION]
                if refs:
                    accordions += 1
                    assert step.accordion_span == (refs[0], refs[-1])
                else:
                    assert step.accordion_span is None
        assert accordions >= 20

    def test_top_level_centres_track_the_full_pass(self):
        # each step that leaves a unit live parses again only the top-level
        # trees it changed; the kept tree starts then equal those of the
        # whole stack pass, and the kept negatives equal its centres that
        # are not live squares
        rng = random.Random(67)
        inputs = rebuild_inputs()
        inputs += [[rng.randint(0, 3) for _ in range(rng.choice(range(11, 42, 2)))] for _ in range(40)]
        parses = 0
        for ws in inputs:
            state = engine_for(ws)
            while not state.done:
                state.advance()
                if scans_next(state):
                    parses += 1
                    levels = state.unit_levels()
                    starts = [first for first, _l, _r, _c in top_trees(levels)]
                    assert state._tree_starts == starts
                    assert negative_positions(state) == negatives_from_stack_pass(state, levels)
        assert parses > 1000

    def test_one_step_merges_three_trees(self):
        # a circle, a bare leaf and a circle become one triple with leaf
        # centre 3; the parse stops at 6, where the old tree 7..9 starts
        before = (1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0)
        after = (2, 2, 2, 1, 2, 2, 2, 1, 1, 1, 0)
        assert pure_centre_leaves(before) == [1, 5, 8]
        assert reparsed(before, after, (0, 6)) == ([3, 8], [0, 7, 10])
        # a wider hull than the positions that changed parses more, to the
        # same trees
        assert reparsed(before, after, (0, 8)) == ([3, 8], [0, 7, 10])

    def test_parse_runs_past_tree_ends_that_no_old_start_follows(self):
        # the new trees end at 6 and 9, where no old tree starts (old starts
        # 0, 3, 8, 11, 12); the unchanged rest then cannot parse into whole
        # trees, and the parse runs on to the stuck leaf 10 and raises the
        # whole pass's text
        before = (1, 1, 1, 1, 2, 2, 2, 1, 1, 1, 1, 0, 0)
        after = (2, 2, 2, 1, 2, 2, 2, 1, 1, 1, 1, 0, 0)
        with pytest.raises(InvalidLevelSequence) as full:
            pure_centre_leaves(after)
        assert "stuck with 1 node(s)" in str(full.value)
        with pytest.raises(EngineError) as err:
            reparsed(before, after, (0, 2))
        assert str(err.value) == f"cannot realise forest for unit levels {list(after)}: {full.value}"

    def test_changed_stretches_match_the_full_pass(self):
        # any stretch of a whole forest's levels rewritten, valid or not:
        # the same centres, or the same error text
        rng = random.Random(71)
        blocks = test_levels.FOREST_BLOCKS
        valid = 0
        for _ in range(3000):
            # an odd number of odd-length blocks: an engine needs an odd count
            before = [l for _ in range(rng.choice([1, 3, 5])) for l in rng.choice(blocks)]
            lo = rng.randrange(len(before))
            hi = rng.randrange(lo, len(before))
            after = list(before)
            for i in range(lo, hi + 1):
                after[i] = rng.choice([-1, 0, 1, 1, 2, 2, 3])
            try:
                want = pure_centre_leaves(after)
            except InvalidLevelSequence as exc:
                with pytest.raises(EngineError) as err:
                    reparsed(before, after, (lo, hi))
                assert str(err.value) == f"cannot realise forest for unit levels {after}: {exc}"
                continue
            valid += 1
            assert reparsed(before, after, (lo, hi))[0] == want
        assert valid > 250

    @pytest.mark.parametrize("ws", [CRASH_15, CRASH_13], ids=["crash-15", "crash-13"])
    def test_crash_text_is_the_full_pass_text(self, ws):
        state = engine_for(ws)
        with pytest.raises(EngineError) as err:
            state.run()
        levels = state.unit_levels()
        with pytest.raises(InvalidLevelSequence) as full:
            pure_centre_leaves(levels)
        assert str(err.value) == f"cannot realise forest for unit levels {list(levels)}: {full.value}"


HUGE = 10**400  # past the float range: 2**1024 is about 1.8e308


@pytest.mark.parametrize(
    "solver, ws, arities, levels",
    [
        (solve_pure_ternary, [HUGE] * 5, (3,), (2, 2, 2, 1, 1)),
        (solve_pure_ternary, [HUGE, 1, HUGE, 1, HUGE], (3,), (1, 2, 2, 2, 1)),
        (general_solve, [1, 2, HUGE, 3, 4, 5, 6], (2, 3), (2, 2, 1, 3, 3, 2, 2)),
        (general_solve, [HUGE] * 6, (2, 3), (2, 2, 2, 2, 2, 1)),
    ],
    ids=["pure-equal", "pure-alternating", "general-one-huge", "general-equal"],
)
def test_weights_past_the_float_range_stay_exact(solver, ws, arities, levels):
    # the engine's sentinels are exact integers, so no weight meets a float
    report = solver(ws)
    assert report.levels == levels
    assert report.cost == dp_optimal(ws, arities)[0]
    assert check_report(report) == []
