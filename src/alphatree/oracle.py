"""Independent ground-truth optima.

``dp_optimal`` is an interval dynamic program over the allowed arities;
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
    """
    ws = validate_weights(weights)
    allowed = _arity_set(arities)
    pure = allowed == {3}
    n = len(ws)
    if pure and n % 2 == 0:
        raise Infeasible("exact-ternary trees need an odd number of leaves")
    prefix = [0]
    for w in ws:
        prefix.append(prefix[-1] + w)

    cost = [[0] * n for _ in range(n)]
    choice = [[None] * n for _ in range(n)]
    above_any_cost = prefix[n] * n + 1
    # Pure-ternary trees exist only over odd spans, and odd spans split only
    # into odd spans, so even spans are skipped and never read.
    step = 2 if pure else 1
    for length in range(1 + step, n + 1, step):
        for i in range(n - length + 1):
            j = i + length - 1
            best = above_any_cost
            pick = None
            if 2 in allowed:
                for m in range(i, j):
                    c = cost[i][m] + cost[m + 1][j]
                    if c < best:
                        best, pick = c, (m,)
            if 3 in allowed and length >= 3:
                for m1 in range(i, j - 1):
                    if pure and (m1 - i) % 2 == 1:
                        continue
                    left = cost[i][m1]
                    for m2 in range(m1 + 1, j):
                        if pure and (m2 - m1) % 2 == 0:
                            continue
                        c = left + cost[m1 + 1][m2] + cost[m2 + 1][j]
                        if c < best:
                            best, pick = c, (m1, m2)
            cost[i][j] = best + (prefix[j + 1] - prefix[i])
            choice[i][j] = pick

    builder = TreeBuilder(ws)

    def build(i, j):
        if i == j:
            return i
        pick = choice[i][j]
        if len(pick) == 1:
            (m,) = pick
            return builder.internal((build(i, m), build(m + 1, j)))
        m1, m2 = pick
        return builder.internal((build(i, m1), build(m1 + 1, m2), build(m2 + 1, j)))

    root = build(0, n - 1)
    return cost[0][n - 1], builder.finish([root])


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
