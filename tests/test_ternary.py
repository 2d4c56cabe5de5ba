import dataclasses
import hashlib
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
from alphatree.levels import InvalidLevelSequence, pure_centre_leaves, signed_levels
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
    state = EngineState([Unit(w, i, True) for i, w in enumerate(weights)])
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
    return {nd.pos for nd in state.live if nd.is_square}


def top_level_centres(state):
    """The leaf centres of the realised forest's top-level triples, left to
    right, as the engine keeps them once ``available_negatives`` has parsed
    the trees the steps since its last call changed."""
    available_negatives(state)
    return [c for c in state._tree_centres if c is not None]


def negative_pairings(state):
    """The engine's available negatives as (position, weight, owner)."""
    return sorted(
        (pos, state.units[pos].weight, state.last_consumer.get(pos))
        for pos in available_negatives(state)
    )


def reparsed(before, after, changed):
    """The top-level centres and tree starts an engine finds for the levels
    ``after`` when it last parsed ``before`` and the positions in the hull
    ``changed`` are the ones that differ (an odd count of each)."""
    state = engine_for([1] * len(before))
    state._levels[:] = before
    state._changed = (0, len(before) - 1)
    top_level_centres(state)
    state._levels[:] = after
    state._changed = changed
    return top_level_centres(state), state._tree_starts


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
        (nd.pos, nd.weight, 1 if nd.is_square else 0, nd.ref)
        for nd in state.live
        if nd.pos is not None
    ]
    elems += [(pos, w, -1, state.units[pos].ref) for pos, w, _o in negatives_from_forest(state)]
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
    for e, (_p, _w, sign, _r) in enumerate(elems):
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
    """The engine's segment summaries, brought up to date, as slice count
    and least accordion candidate."""
    available_negatives(state)
    return {
        first: (count, None if hit is None else state._hit_candidate(hit))
        for first, (_last, _rlo, _rhi, count, hit) in state._segments().items()
    }


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
        assert [(p.lo, p.hi) for p in detect_pcns((1, 1, 100, 1, 1))] == [(0, 1), (3, 4)]

    def test_seven_node_has_none(self):
        ws = SEVEN_WEIGHTS
        assert detect_pcns(ws) == ()
        assert brute_force_pcn_spans(ws) == []

    def test_two_heavy_centre(self):
        assert [(p.lo, p.hi) for p in detect_pcns((1, 1, 100, 100, 1, 1))] == [
            (0, 1),
            (4, 5),
        ]

    def test_nested_spans(self):
        # only the outermost run; the nested one shows on that run's own span
        assert [(p.lo, p.hi) for p in detect_pcns((20, 5, 1, 1, 5, 20))] == [(1, 4)]
        assert [(p.lo, p.hi) for p in detect_pcns((5, 1, 1, 5))] == [(1, 2)]

    def test_matches_brute_force_on_random_inputs(self):
        rng = random.Random(3)
        for _ in range(300):
            ws = tuple(rng.randint(0, 12) for _ in range(rng.randint(1, 12)))
            spans = [(p.lo, p.hi) for p in detect_pcns(ws)]
            assert spans == outermost(brute_force_pcn_spans(ws))

    def test_invariant_weight_below_neighbours(self):
        for p in detect_pcns((9, 2, 3, 8, 1, 1, 9)):
            ws = (9, 2, 3, 8, 1, 1, 9)
            assert p.weight == sum(ws[p.lo : p.hi + 1])
            if p.lo > 0:
                assert ws[p.lo - 1] > p.weight
            if p.hi < len(ws) - 1:
                assert ws[p.hi + 1] > p.weight


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
                assert kept_summaries(state) == segment_summaries(state)
                assert state._elems == merged_elements(state)
                chosen = state.advance()
                assert chosen == expected
                spans = [(nd.lo, nd.hi) for nd in state.live]
                assert spans == sorted(spans)
                accordions += accordion_size(chosen) > 0
                multi_negative += accordion_size(chosen) > 3
        assert accordions >= 30 and multi_negative >= 1


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
    # the trace's sha256 and the candidates scanned; ties, monotone and
    # sawtooth weights are families no benchmark workload draws
    FAMILIES = {
        "uniform-50-99": (
            lambda r: [r.randint(50, 99) for _ in range(201)],
            "e73100b950d5c578233f8f02a2cee359e22d3daa31c8197ff41b9f1c2a963c27", 15623,
        ),
        "uniform-0-3": (
            lambda r: [r.randint(0, 3) for _ in range(201)],
            "5b0a686e45fa2a9b558ca1cc358e5e95716a67d44b2ee3f8769f626cffbe316e", 19162,
        ),
        "powers-of-2": (
            lambda r: [2 ** (i % 20) for i in range(201)],
            "8527a5fa0d30a170a4abe5c3bc44fba63643fd9630111067a022bb97d00cc25b", 11828,
        ),
        "increasing": (
            lambda r: list(range(1, 202)),
            "89f9ce39312129e8f70c3282b3ef1f35e09c236cba41dacfd2ee369f06c2415b", 40501,
        ),
        "all-equal": (
            lambda r: [1] * 201,
            "0aca43e8cb792713f965f6d0fa96a4e82206396ae2e06ac1992bd1af6f465d72", 56849,
        ),
        "sawtooth": (
            lambda r: [9 if i % 2 == 0 else 1 for i in range(201)],
            "0ee08f7ba4fd67f8917de3faa16cd575ebdbad7ea12f04e6f936f2904a7166c8", 50918,
        ),
    }

    @pytest.mark.parametrize("family", FAMILIES)
    def test_weight_family_trace_and_candidates(self, family):
        draw, digest, candidates = self.FAMILIES[family]
        report, stats = _solve_pure_ternary(draw(random.Random(201)))
        assert hashlib.sha256(repr(report.trace.to_json_obj()).encode()).hexdigest() == digest
        assert stats["candidates"] == candidates

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
    """The plan search without its stop: no span's best ever reaches -1."""
    monkeypatch.setattr(_GeneralSolver, "_optimum_of", lambda self, lo, hi: -1)


class TestPlanSearchStop:
    """A span's plan search stops once its best completion costs the span's
    mixed-arity DP optimum; no later plan can cost less, so no output
    changes, except that plans after the stop no longer get to raise."""

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
        # 257 engine runs when every plan is tried, as before the stop, and
        # 123 with it
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
        assert runs[0] == 123
        try_every_plan(monkeypatch)
        runs[0] = 0
        for ws in inputs:
            general_solve(ws)
        assert runs[0] == 257

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
                assert negative_pairings(state) == negatives_from_forest(state)
                assert [e[0] for e in state._elems if e[2] < 0] == sorted(state._negs)
                flags = {pos for pos, live in enumerate(state._live_square) if live}
                assert flags == live_square_positions(state)
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
        # the engine parses again only the top-level trees that the steps
        # since its last parse changed; its centres always equal those of
        # the whole stack pass, whether it parses after every step or after
        # several
        rng = random.Random(67)
        inputs = rebuild_inputs()
        inputs += [[rng.randint(0, 3) for _ in range(rng.choice(range(11, 42, 2)))] for _ in range(40)]
        parses = after_several = 0
        for ws in inputs:
            state = engine_for(ws)
            steps = 0
            while not state.done:
                state.advance()
                steps += 1
                if rng.random() < 0.5:
                    parses += 1
                    after_several += steps > 1
                    steps = 0
                    assert top_level_centres(state) == pure_centre_leaves(state.unit_levels())
        assert parses > 500 and after_several > 100

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
