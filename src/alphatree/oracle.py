"""Independent ground-truth optima.

``dp_optimal`` is the interval dynamic program of Knuth's "Optimum binary
search trees" (1971; TAOCP Vol. 3 section 6.2.2) over the allowed arities.
A table of the cheapest two-tree forest over each span makes a ternary root
one scan over its first split.  Knuth's root monotonicity bounds every scan
for binary and for exact-ternary trees, which run in O(n^2); mixed arity
stays O(n^3).
``exhaustive_optimal`` literally enumerates every tree shape for tiny inputs,
keeping the cost of each shape over each span below the full one, and is used
to check the DP itself.  Both work in exact integers only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import add
from typing import Sequence, Tuple

from .core import AlphaTree, Infeasible, TreeBuilder, validate_weights

EXHAUSTIVE_MAX_N = 11


class RefusedSize(ValueError):
    """Input too large for literal enumeration."""


def _arity_set(arities) -> frozenset:
    s = frozenset(arities)
    if not s or not s <= {2, 3}:
        raise ValueError(f"arity set must be a nonempty subset of {{2, 3}}, got {set(arities)}")
    return s


def dp_optimal(weights: Sequence[int], arities=(2, 3)) -> Tuple[int, AlphaTree]:
    """Minimum weighted path length and one optimal tree.

    ``arities`` selects the allowed internal arities: {2} binary, {2, 3}
    mixed, {3} exact-ternary (odd leaf counts only).  Ties are broken toward
    the leftmost split points, binary splits first, so the returned tree is
    deterministic; the cost never depends on that choice.

    O(n^2) space.  Besides the optimal cost of each span it keeps the
    cheapest forest of two trees over each span: a binary root costs that
    forest, and a ternary root over i..j costs the tree over i..m1 plus the
    forest over m1+1..j, so no root tries every (m1, m2) pair.

    Time is O(n^2) for {2} and {3} and O(n^3) for {2, 3}.  For {2} and {3}
    each leftmost split lies between those of the two spans one step
    shorter (Knuth 1971), with step 1 for {2} and 2 for {3}, where every
    tree spans an odd and every forest an even number of leaves: the
    forest split over a..j lies between those over a..j-step and
    a+step..j, and the ternary first split m1 over i..j between those over
    i..j-2 and i+2..j.  Only that range is scanned, and over the spans of
    one length the ranges telescope to O(n).  The mixed DP breaks these
    bounds on about a quarter of its spans, so it scans every split.

    Why the bounds hold.  Write c for the cost table, P for the forest
    table, W(a, e) for the weight of a..e, and QI(t) for the quadrangle
    inequality t(a, d) + t(b, e) <= t(a, e) + t(b, d), a <= b <= d <= e,
    taken for {3} with a, b of one parity and d, e of one parity, so the
    four spans are all odd (c) or all even (P).  A scan over a..e
    minimises s_k(a, e) = c(a, k) + t(k+1, e) over the splits k, with
    t = c for the forest and t = P for the first split.  For k < k',
    QI(t) on k+1, k'+1, d, e gives s_k'(a, e) - s_k(a, e) <=
    s_k'(a, d) - s_k(a, d): a split beaten strictly by a later one over
    a..d stays beaten over a..e, so the leftmost minimum does not move left
    as the right end grows.  QI(c) on a, b, k, k' gives s_k(a, e) -
    s_k'(a, e) <= s_k(b, e) - s_k'(b, e): a split no worse than every
    later one over b..e stays so over a..e, so the leftmost minimum over
    a..e is not right of that over b..e (Yao 1980, Lemma 2, argued for
    the leftmost minimum).  For {2}, QI(c) is Yao's Lemma 1, from QI(W),
    an equality, and W monotone, as the weights are nonnegative.  For {3}:

    1. O: c(a, d) + c(d, e) <= c(a, e), all three of one parity, and Q:
       P(a, d) + P(d, e) + w_d <= c(a, e) for even a..d and d..e, both by
       induction on the length of a..e, on the children A = a..m1,
       B = m1+1..m2 and C of its optimal root.  O, d in A: the root over
       d..e with children d..m1, B and C bounds c(d, e), then O on A and
       W(d, e) <= W(a, e) give it; d in B: d cuts B into even spans, so
       c(a, d) <= W(a, d) + c(A) + P(m1+1, d) and c(d, e) <= W(d, e) +
       P(d, m2) + c(C), and Q on B gives it.  Q, d in A: Q on A, and
       P(d, e) <= P(d, m1) + W(x+1, e) + c(B) + c(C) by the root with
       children x+1..m1, B and C, where x is P(d, m1)'s split; d in B:
       split P(a, d) and P(d, e) at B's ends, then O on B.  C mirrors A.
    2. QI(P) and QI(c), by induction on a..e.  P is a min-plus product of
       c with itself: with k the split of P(a, e) and k' that of P(b, d),
       use k on a..d and k' on b..e if k <= k', else the other way round,
       and what is left is QI(c) on k+1, k'+1, d, e or on a, b, k', k.
       c(i, j) is W(i, j) plus the product of c and P over m1, so the same
       step gives QI(c) from QI(c) and QI(P), except when b = d, where a
       leaf is no product: that case is O.
    """
    ws = validate_weights(weights)
    allowed = _arity_set(arities)
    n = len(ws)
    if allowed == {3} and n % 2 == 0:
        raise Infeasible("exact-ternary trees need an odd number of leaves")
    cost, choice, _ = _dp_tables(ws, allowed)

    # Build in post-order with an explicit stack, children left to right
    # before their parent, so node ids are those of the recursive build and
    # a deep tree needs no deep recursion.  built holds the finished
    # subtrees whose parent is not built yet, left to right.
    builder = TreeBuilder(ws)
    built = []
    stack = [(0, n - 1, False)]
    while stack:
        i, j, children_built = stack.pop()
        if i == j:
            built.append(i)
        elif children_built:
            arity = len(choice[i][j]) + 1
            built[-arity:] = [builder.internal(built[-arity:])]
        else:
            stack.append((i, j, True))
            ends = (i - 1,) + choice[i][j] + (j,)
            stack.extend((lo + 1, hi, False) for lo, hi in reversed(list(zip(ends, ends[1:]))))
    return cost[0][n - 1], builder.finish(built)


@lru_cache(maxsize=1)
def _dp_tables(ws: tuple, allowed: frozenset) -> tuple:
    """``_fill_tables`` with its last table set cached, so
    ``general_solve``'s plan-search stop and a ``dp_optimal`` call on the
    same weights and arities (the fuzz harness, ``alphatree verify`` and the
    benchmark's check make both) share one build.  Callers treat the tables
    as read-only.  The cached set stays alive until a call with other
    arguments replaces it."""
    return _fill_tables(ws, allowed)


def _fill_tables(ws: tuple, allowed: frozenset) -> tuple:
    """The DP tables over validated weights: ``cost[i][j]``, the optimal
    cost of a tree over leaves i..j with internal arities in ``allowed``,
    ``choice[i][j]``, the leftmost optimal split points of its root, and
    ``pair[j][a]``, the cheapest two-tree forest over leaves a..j, indexed
    by its right end.  With ``allowed == {3}`` only odd spans of ``cost``
    and even spans of ``pair`` are filled.  Uncached: a caller that fills
    tables over other weights (``_merged_pair_optima``, over a plan's unit
    weights) leaves ``_dp_tables``' cached set alone."""
    pure = allowed == {3}
    n = len(ws)
    prefix = [0]
    for w in ws:
        prefix.append(prefix[-1] + w)

    # cost[i][j]: the optimal tree over leaves i..j.  pair[j][a]: the
    # cheapest two-tree forest over leaves a..j, split after leaf
    # pair_at[j][a], the leftmost such split.  The tables indexed by the
    # right end j hold columns, so every scan below adds two list slices;
    # cost_to[j][i] repeats cost[i][j] for the same reason.
    cost = [[0] * n for _ in range(n)]
    cost_to = [[0] * n for _ in range(n)]
    pair = [[0] * n for _ in range(n)]
    pair_at = [[0] * n for _ in range(n)]
    choice = [[None] * n for _ in range(n)]
    # Pure-ternary trees exist only over odd spans, and odd spans split only
    # into odd spans, so a pure forest of two trees covers an even span:
    # pair is filled only on even spans and cost only on odd ones, splits
    # step by 2, and no other entry is ever read.
    step = 2 if pure else 1
    # {2} and {3} scan only between the splits of the two spans one step
    # shorter (see dp_optimal); those exist once the forest spans more than
    # two leaves and the tree more than three
    bounded = allowed != {2, 3}
    for length in range(2, n + 1):
        if not pure or length % 2 == 0:
            for a in range(n - length + 1):
                j = a + length - 1
                if bounded and length > 2:
                    lo, hi = pair_at[j - step][a], pair_at[j][a + step] + 1
                else:
                    lo, hi = a, j
                sums = list(map(add, cost[a][lo:hi:step], cost_to[j][lo + 1 : hi + 1 : step]))
                best = min(sums)
                pair[j][a] = best
                pair_at[j][a] = lo + step * sums.index(best)
        if not pure or length % 2 == 1:
            for i in range(n - length + 1):
                j = i + length - 1
                best = pick = None
                if 2 in allowed:
                    best, pick = pair[j][i], (pair_at[j][i],)
                if 3 in allowed and length >= 3:
                    # a ternary root is a left tree and a two-tree forest;
                    # the first minimum is the leftmost m1, and its forest's
                    # split is the leftmost m2, so (m1, m2) is the
                    # lexicographically first
                    if bounded and length > 3:
                        lo, hi = choice[i][j - 2][0], choice[i + 2][j][0] + 1
                    else:
                        lo, hi = i, j - 1
                    sums = list(map(add, cost[i][lo:hi:step], pair[j][lo + 1 : hi + 1 : step]))
                    c = min(sums)
                    if best is None or c < best:
                        m1 = lo + step * sums.index(c)
                        best, pick = c, (m1, pair_at[j][m1 + 1])
                cost[i][j] = cost_to[j][i] = best + (prefix[j + 1] - prefix[i])
                choice[i][j] = pick
    return cost, choice, pair


def _merged_pair_optima(ws: tuple) -> list:
    """For an even number m of validated weights, entry i is the optimal
    exact-ternary cost over ``ws`` with leaves i and i + 1 merged into one
    leaf of weight ws[i] + ws[i + 1], for every i < m - 1 at once, in
    O(m^3).

    An inside–outside pass over the exact-ternary tables.  Out(a, b), for
    an even span a..b, is the optimal cost over ``ws`` with a..b merged
    into one leaf; entry i is Out(i, i + 1).  The merged leaf is one of the
    three children of a parent over an even span p..q, whose two other
    children are trees over odd spans, and Up(p, q) (``up``) is Out(p, q)
    plus the parent's own weight.  So Out(a, b) is the least of:

    - left child: Up(a, q) plus the forest over b+1..q;
    - right child: Up(p, b) plus the forest over p..a-1;
    - middle child: Up(p, q) plus the trees over p..a-1 and b+1..q.
      Mid(p, b) (``mid_to``), for odd p..b, is the least Up(p, q) plus the
      tree over b+1..q over every q, which leaves one scan over p per span.

    Every parent is longer than its child, so the spans are filled longest
    first, from Out(0, m - 1) = 0, and Mid over odd spans of one length
    once the even spans one longer are.  ``_fill_tables(ws, {3})`` supplies
    the trees (``cost``) and forests (``pair``); the tables indexed by the
    right end hold columns, as there."""
    m = len(ws)
    cost, _, pair = _fill_tables(ws, frozenset((3,)))
    prefix = [0]
    for w in ws:
        prefix.append(prefix[-1] + w)
    # rows and columns of each table, so every scan adds two list slices
    cost_to = [list(col) for col in zip(*cost)]
    pair_from = [list(row) for row in zip(*pair)]
    up = [[0] * m for _ in range(m)]
    up_to = [[0] * m for _ in range(m)]
    mid_to = [[0] * m for _ in range(m)]
    out = [0] * (m - 1)
    for length in range(m, 1, -2):
        # odd spans p..b one longer, with a parent p..q, q - b odd
        for p in range(m - length - 1):
            b = p + length
            mid_to[b][p] = min(map(add, up[p][b + 1 :: 2], cost[b + 1][b + 1 :: 2]))
        for a in range(m - length + 1):
            b = a + length - 1
            sums = [0] if length == m else []
            if b < m - 2:  # left child of a..q, q - b even
                sums += map(add, up[a][b + 2 :: 2], pair_from[b + 1][b + 2 :: 2])
            if a >= 2:  # right child of p..b, a - p even
                sums += map(add, up_to[b][a % 2 : a - 1 : 2], pair[a - 1][a % 2 : a - 1 : 2])
            if a and b < m - 1:  # middle child of p..q, a - p odd
                p = (a - 1) % 2
                sums += map(add, mid_to[b][p:a:2], cost_to[a - 1][p:a:2])
            best = min(sums)
            if length == 2:
                out[a] = best
            up[a][b] = up_to[b][a] = best + (prefix[b + 1] - prefix[a])
    return out


def exhaustive_optimal(weights: Sequence[int], arities=(2, 3)) -> Tuple[int, int]:
    """Brute force over every tree shape: (minimum cost, number of optimal
    shapes).  Refuses n above EXHAUSTIVE_MAX_N.

    ``shapes[(i, j)]`` lists the cost of every tree shape over leaves i..j,
    one entry per shape: each entry is one entry from each child span's list,
    summed, plus the span weight.  The child lists are multiplied shortest
    first, which keeps every intermediate product no longer than the last.
    The full span's combinations are folded into its minimum and count
    instead of one list.  No minimum is taken below the root."""
    ws = validate_weights(weights)
    allowed = _arity_set(arities)
    n = len(ws)
    if n > EXHAUSTIVE_MAX_N:
        raise RefusedSize(f"{n} leaves is past the enumeration limit {EXHAUSTIVE_MAX_N}")
    if n == 1:
        return 0, 1
    shapes = {(i, i): [0] for i in range(n)}
    best = count = None
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            span = sum(ws[i : j + 1])
            costs = []
            for arity in sorted(allowed):
                # the first leaf of each child after the first
                for starts in combinations(range(i + 1, j + 1), arity - 1):
                    ends = zip((i, *starts), (*starts, j + 1))
                    parts = sorted((shapes[(lo, end - 1)] for lo, end in ends), key=len)
                    sums = [span + c for c in parts[0]]
                    for part in parts[1:]:
                        sums = [s + c for s in sums for c in part]
                    if length < n:
                        costs.extend(sums)
                    elif sums:
                        low = min(sums)
                        if best is None or low < best:
                            best, count = low, sums.count(low)
                        elif low == best:
                            count += sums.count(low)
            shapes[(i, j)] = costs
    if best is None:
        raise Infeasible("no tree shape satisfies the arity constraints")
    return best, count
