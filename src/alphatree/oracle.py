"""Independent ground-truth optima.

``dp_optimal`` is the interval dynamic program of Knuth's "Optimum binary
search trees" (1971; TAOCP Vol. 3 section 6.2.2) over the allowed arities.
A table of the cheapest two-tree forest over each span makes a ternary root
one scan over its first split.  Knuth's root monotonicity bounds every scan
for binary and for exact-ternary trees, which run in O(n^2); mixed arity
stays O(n^3).  Three tables hold costs only, each span once: trees by left
end and by right end, forests by right end, all grown span by span as the
right end advances, so a scan adds one row to one reversed column with no
copy.  One reader, ``_splits``, lists a span's optimal splits from the
costs, lazily and left to right: the returned tree takes the first of each
node's, and the plan search's test of its plans reads them all.
``_merged_pair_optima``, the plan search's pair bound, runs an outside pass
over the exact-ternary tables in lists grown the same way.
``exhaustive_optimal`` literally enumerates every tree shape for tiny inputs,
keeping the cost of each shape over each span below the full one, and is used
to check the DP itself.  Both work in exact integers only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, compress, repeat
from operator import add, eq
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

    O(n^2) space: about 1.5n^2 table entries (3n^2 / 8 for {3}), costs
    only.  Besides the optimal cost of each span it keeps the cheapest
    forest of two trees over each span: a binary root costs that forest,
    and a ternary root over i..j costs the tree over i..m1 plus the forest
    over m1+1..j, so no root tries every (m1, m2) pair.  ``_fill_tables``
    keeps the trees both as rows, by left end, and as columns, by right
    end, and the forests as columns only, which is all a scan reads.
    No split is stored: ``_root_splits`` finds each node's splits again,
    node by node down the returned tree, as the first splits whose costs
    reach the node's optimum, so the tree costs O(n^2) at worst beyond
    the fill.

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
    tables = _dp_tables(ws, allowed)
    prefix = list(accumulate(ws, initial=0))

    # Build in post-order with an explicit stack, children left to right
    # before their parent, so node ids are those of the recursive build and
    # a deep tree needs no deep recursion.  built holds the finished
    # subtrees whose parent is not built yet, left to right; a span's arity
    # is 0 until its children are pushed.
    builder = TreeBuilder(ws)
    built = []
    stack = [(0, n - 1, 0)]
    while stack:
        i, j, arity = stack.pop()
        if i == j:
            built.append(i)
        elif arity:
            built[-arity:] = [builder.internal(built[-arity:])]
        else:
            ends = (i - 1, *_root_splits(tables, allowed, prefix[j + 1] - prefix[i], i, j), j)
            stack.append((i, j, len(ends) - 1))
            stack.extend((lo + 1, hi, 0) for lo, hi in reversed(list(zip(ends, ends[1:]))))
    return tables[0][0][-1], builder.finish(built)


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
    """The DP's cost tables over validated weights, filled right end by
    right end: ``(rows, cols, pair_cols)``.  With ``step`` 2 for
    ``allowed == {3}`` and 1 otherwise, ``rows[i][k]`` is the optimal cost
    of a tree over leaves i..i + step*k and ``cols[j][k]`` that over
    j - step*k..j, with internal arities in ``allowed``; ``pair_cols[j][k]``
    is the cheapest two-tree forest over j - 1 - step*k..j.  So each table
    holds each of its spans once, about n^2 / 2 entries (n^2 / 8 for {3},
    where trees span odd and forests even leaf counts), 1.5n^2 in all
    (3n^2 / 8), and no split is kept: ``_root_splits`` recovers a root's
    splits from the costs.  No scan reads forests by left end, so no table
    keeps them.

    For each right end j the left ends run right to left, and each span's
    cost is appended to its left end's row and to j's column.  So when a
    span i..j is filled, ``rows[i]`` holds the trees over i..m for every
    split m, and ``cols[j]`` those over m+1..j, last first: the forest over
    i..j is the least of ``map(add, rows[i], reversed(cols[j]))``, whose
    two operands are exactly its split range, and a ternary root the least
    of ``map(add, rows[i], reversed(pair_cols[j]))``, where the row is one
    longer and ``map`` stops at the column's end.  {2} and {3} scan only
    between the Knuth bounds (see ``dp_optimal``), which they read from
    the leftmost split of each span with the same left end and the latest
    right end, one entry per left end.  Uncached: a caller that fills
    tables over other weights (``_merged_pair_optima``, over a plan's unit
    weights) leaves ``_dp_tables``' cached set alone."""
    pure = allowed == {3}
    step = 2 if pure else 1
    bounded = allowed != {2, 3}
    n = len(ws)
    prefix = list(accumulate(ws, initial=0))
    rows = [[] for _ in range(n)]
    cols, pair_cols = [], []
    # {2} and {3} only: forest_at[a] and first_at[a], the row index of the
    # leftmost forest split and exact-ternary first split over a..j, for the
    # last j filled with left end a, which is j - step while the span a..j
    # is being filled, and j once it is
    forest_at = [0] * n
    first_at = [0] * n
    for j in range(n):
        rows[j].append(0)
        col, pair_col = [0], []
        cols.append(col)
        pair_cols.append(pair_col)
        total = prefix[j + 1]
        for i in range(j - 1, -1, -1):
            row = rows[i]
            # exact-ternary trees span odd and forests even leaf counts
            tree = not pure or (j - i) % 2 == 0
            if bounded:
                # one scan: a forest, which is also a {2} root, or a {3} root;
                # the bounds exist once the span has over step + 1 leaves
                other, at = (pair_col, first_at) if pure and tree else (col, forest_at)
                top = len(other) - 1
                k, hi = (at[i], at[i + step] + 1) if j - i > step else (0, 0)
                best, at[i] = row[k] + other[top - k], k
                while k < hi:
                    k += 1
                    c = row[k] + other[top - k]
                    if c < best:
                        best, at[i] = c, k
                pair = best
            else:
                pair = min(map(add, row, reversed(col)))
                best = min(pair, min(map(add, row, reversed(pair_col)), default=pair))
            if tree:
                best += total - prefix[i]
                row.append(best)
                col.append(best)
            if not pure or not tree:
                pair_col.append(pair)
    return rows, cols, pair_cols


def _root_splits(tables: tuple, allowed: frozenset, weight: int, i: int, j: int) -> tuple:
    """The split points of the root of the optimal tree over leaves i..j,
    whose weight is ``weight``, from ``_fill_tables``' costs: each child but
    the last ends at one.  The tie rule is the fill's: a binary root when
    its forest is no dearer than every ternary root, else the leftmost
    optimal first split, each forest split leftmost.  Each split is the
    first that ``_splits`` yields, so the splits of every node of one tree
    cost at most the sum of its spans' lengths, O(n^2)."""
    rows, _cols, pair_cols = tables
    step = 2 if allowed == {3} else 1
    if 2 in allowed and pair_cols[j][(j - 1 - i) // step] == rows[i][(j - i) // step] - weight:
        return (next(_splits(tables, step, i, j)),)
    m1 = next(_splits(tables, step, i, j, weight))
    return m1, next(_splits(tables, step, m1 + 1, j))


def _splits(tables: tuple, step: int, i: int, j: int, weight=None):
    """Every split of an optimal two-tree forest over leaves i..j, each m
    with F(i..j) = c(i..m) + c(m+1..j), where c is the optimal tree and F
    the optimal two-tree forest cost; or, given the span's weight, every
    first split of an optimal ternary root over i..j, each m1 with c(i..j)
    = weight + c(i..m1) + F(m1+1..j).  Lazily, in increasing order, from
    ``_fill_tables``' costs with their ``step``: one row added to one
    reversed column, compared with the span's optimum as it goes."""
    rows, cols, pair_cols = tables
    if weight is None:
        target, other = pair_cols[j][(j - 1 - i) // step], cols[j][(j - 1 - i) // step :: -1]
    else:
        target, other = rows[i][(j - i) // step] - weight, pair_cols[j][(j - 2 - i) // step :: -1]
    return compress(range(i, j, step), map(eq, map(add, rows[i], other), repeat(target)))


def _merged_pair_optima(ws: tuple) -> list:
    """For an even number m of validated weights, entry i is the optimal
    exact-ternary cost over ``ws`` with leaves i and i + 1 merged into one
    leaf of weight ws[i] + ws[i + 1], for every i < m - 1 at once, in
    O(m^3).

    An inside–outside pass over the exact-ternary tables.  Out(a, b), for
    an even span a..b, is the optimal cost over ``ws`` with a..b merged
    into one leaf; entry i is Out(i, i + 1).  The merged leaf is one of the
    three children of a parent over an even span p..q, whose two other
    children are trees over odd spans, and Up(p, q) is Out(p, q) plus the
    parent's own weight.  Mid(p, m2), for odd p..m2, is the least Up(p, q)
    plus the tree over m2+1..q over every q.  So Out(a, b) is the least of:

    - left child: Up(a, q) plus the forest over b+1..q, whose trees end at
      some m2; over every q and m2 that is Mid(a, m2) plus the tree over
      b+1..m2;
    - right child: Up(p, b) plus the forest over p..a-1;
    - middle child: Mid(p, b) plus the tree over p..a-1.

    Every parent is longer than its child, so the spans are filled longest
    first, from Out(0, m - 1) = 0, and Mid over odd spans of one length
    once the even spans one longer are.  Up and Mid are grown as the fill's
    tables are: each value is appended to its left end's row and its right
    end's column, about m^2 / 2 entries in all beside the fill's 3m^2 / 8.
    When a span is filled, the rows and columns of Up and Mid hold exactly
    the spans longer than it, so a reversed row runs from the shortest span
    that starts there, and a reversed column from the latest left end that
    ends there.  Each scan adds one of them to one whole row or column of
    ``_fill_tables(ws, {3})``: the trees that start at b + 1 or end at
    a - 1, or the forests that end at a - 1, with no copy and no stepped
    slice."""
    m = len(ws)
    rows, cols, pair_cols = _fill_tables(ws, frozenset((3,)))
    prefix = list(accumulate(ws, initial=0))
    up_rows, up_cols, mid_rows, mid_cols = ([[] for _ in range(m)] for _ in range(4))
    out = []
    for length in range(m, 1, -2):
        # odd spans p..b one longer, with a parent p..q, q - b odd
        for p in range(m - length - 1):
            b = p + length
            mid = min(map(add, reversed(up_rows[p]), rows[b + 1]))
            mid_rows[p].append(mid)
            mid_cols[b].append(mid)
        for a in range(m - length + 1):
            b = a + length - 1
            sums = [0] if length == m else []
            if b < m - 1:  # left child of a..q, through Mid(a, m2), m2 - b odd
                sums += map(add, reversed(mid_rows[a]), rows[b + 1])
            if a:  # right child of p..b, a - p even, and middle child of p..q
                sums += map(add, reversed(up_cols[b]), pair_cols[a - 1])
                sums += map(add, reversed(mid_cols[b]), cols[a - 1])
            best = min(sums)
            if length == 2:
                out.append(best)
            best += prefix[b + 1] - prefix[a]
            up_rows[a].append(best)
            up_cols[b].append(best)
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
