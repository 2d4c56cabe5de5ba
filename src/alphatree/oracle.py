"""Independent ground-truth optima.

``dp_optimal`` is the interval dynamic program of Knuth's "Optimum binary
search trees" (1971; TAOCP Vol. 3 section 6.2.2) over the allowed arities.
A table of the cheapest two-tree forest over each span makes a ternary root
one scan over its first split, so the DP is O(n^3) for every arity set.
``exhaustive_optimal`` literally enumerates every tree shape for tiny inputs,
keeping the cost of each shape over each span, and is used to check the DP
itself.  Both work in exact integers only.
"""

from __future__ import annotations

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

    O(n^3) time and O(n^2) space.  Besides the optimal cost of each span it
    keeps the cheapest forest of two trees over each span: a binary root
    costs that forest, and a ternary root over i..j costs the tree over
    i..m1 plus the forest over m1+1..j, so no root tries every (m1, m2)
    pair.
    """
    ws = validate_weights(weights)
    allowed = _arity_set(arities)
    n = len(ws)
    if allowed == {3} and n % 2 == 0:
        raise Infeasible("exact-ternary trees need an odd number of leaves")
    cost, choice = _dp_tables(ws, allowed)

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


def _dp_tables(ws: tuple, allowed: frozenset) -> tuple:
    """The DP tables over validated weights: ``cost[i][j]``, the optimal
    cost of a tree over leaves i..j with internal arities in ``allowed``,
    and ``choice[i][j]``, the leftmost optimal split points of its root.
    With ``allowed == {3}`` only odd spans are filled."""
    pure = allowed == {3}
    n = len(ws)
    prefix = [0]
    for w in ws:
        prefix.append(prefix[-1] + w)

    # cost[i][j]: the optimal tree over leaves i..j.  pair[j][a]: the
    # cheapest two-tree forest over leaves a..j, split after leaf
    # pair_at[j][a], the leftmost such split.  The tables indexed by the
    # right end j hold columns, so every scan below zips two list slices;
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
    for length in range(2, n + 1):
        if not pure or length % 2 == 0:
            for a in range(n - length + 1):
                j = a + length - 1
                sums = [x + y for x, y in zip(cost[a][a:j:step], cost_to[j][a + 1 : j + 1 : step])]
                best = min(sums)
                pair[j][a] = best
                pair_at[j][a] = a + step * sums.index(best)
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
                    sums = [x + y for x, y in zip(cost[i][i : j - 1 : step], pair[j][i + 1 : j : step])]
                    c = min(sums)
                    if best is None or c < best:
                        m1 = i + step * sums.index(c)
                        best, pick = c, (m1, pair_at[j][m1 + 1])
                cost[i][j] = cost_to[j][i] = best + (prefix[j + 1] - prefix[i])
                choice[i][j] = pick
    return cost, choice


def _compositions(n, k):
    if k == 1:
        yield (n,)
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def exhaustive_optimal(weights: Sequence[int], arities=(2, 3)) -> Tuple[int, int]:
    """Brute force over every tree shape: (minimum cost, number of optimal
    shapes).  Refuses n above EXHAUSTIVE_MAX_N.

    ``shapes[(i, j)]`` lists the cost of every tree shape over leaves i..j,
    one entry per shape: each entry is one entry from each child span's list,
    summed, plus the span weight.  No minimum is taken below the root."""
    ws = validate_weights(weights)
    allowed = _arity_set(arities)
    n = len(ws)
    if n > EXHAUSTIVE_MAX_N:
        raise RefusedSize(f"{n} leaves is past the enumeration limit {EXHAUSTIVE_MAX_N}")
    shapes = {(i, i): [0] for i in range(n)}
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            span = sum(ws[i : j + 1])
            costs = []
            for arity in sorted(allowed):
                for split in _compositions(length, arity):
                    sums = [span]
                    lo = i
                    for k in split:
                        part = shapes[(lo, lo + k - 1)]
                        sums = [s + c for s in sums for c in part]
                        lo += k
                    costs.extend(sums)
            shapes[(i, j)] = costs
    costs = shapes[(0, n - 1)]
    if not costs:
        raise Infeasible("no tree shape satisfies the arity constraints")
    best = min(costs)
    return best, costs.count(best)
