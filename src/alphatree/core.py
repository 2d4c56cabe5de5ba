"""Core domain types shared by every solver.

Exact nonnegative integer weights, ordered leaf-labelled trees, per-leaf
level sequences, and combination traces.  Everything here is immutable and
float-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


class StructureError(ValueError):
    """A tree, weight sequence, or level sequence is malformed."""


class TraceError(StructureError):
    """A combination trace is internally inconsistent."""


class Infeasible(ValueError):
    """The requested mode cannot produce a tree (e.g. exact-ternary with an even leaf count)."""


# ---------------------------------------------------------------------------
# Weights


def validate_weights(weights: Iterable[int]) -> tuple:
    """Check a solver input sequence: at least one exact nonnegative int."""
    ws = tuple(weights)
    if not ws:
        raise StructureError("weight sequence must be nonempty")
    for w in ws:
        if isinstance(w, bool) or not isinstance(w, int):
            raise StructureError(f"weight {w!r} is not an exact integer")
        if w < 0:
            raise StructureError(f"weight {w} is negative")
    return ws


# ---------------------------------------------------------------------------
# Trees


@dataclass(frozen=True)
class Node:
    """One record in a tree's node table."""

    children: tuple  # node ids, empty for leaves, length 2 or 3 otherwise
    leaf_index: Optional[int]  # position in the weight sequence, leaves only
    weight: int  # subtree weight

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class AlphaTree:
    """An ordered tree (or forest) over a weight sequence.

    Leaves occupy ids 0..n-1; internal nodes follow.  ``roots`` lists the
    top-level node ids in sequence order, so the same type also represents
    the intermediate forests that partial combination runs produce.
    """

    nodes: tuple
    roots: tuple

    @property
    def root(self) -> int:
        if len(self.roots) != 1:
            raise StructureError(f"expected a single root, found {len(self.roots)}")
        return self.roots[0]

    def in_order_leaves(self) -> Iterator[int]:
        """Yield leaf ids left to right."""
        for r in self.roots:
            stack = [r]
            while stack:
                nid = stack.pop()
                nd = self.nodes[nid]
                if nd.is_leaf:
                    yield nid
                else:
                    stack.extend(reversed(nd.children))

    def internal_weights(self) -> tuple:
        return tuple(nd.weight for nd in self.nodes if not nd.is_leaf)

    def arities(self) -> tuple:
        return tuple(len(nd.children) for nd in self.nodes if not nd.is_leaf)

    def to_nested(self):
        """Nested-array form: a leaf is its weight, an internal node a list."""

        def rec(nid):
            nd = self.nodes[nid]
            if nd.is_leaf:
                return nd.weight
            return [rec(c) for c in nd.children]

        return rec(self.root)

    @classmethod
    def from_nested(cls, nested) -> "AlphaTree":
        """Rebuild a single-root tree from its nested-array form."""

        def count(node):
            if isinstance(node, int):
                return 1
            if isinstance(node, (list, tuple)) and len(node) in (2, 3):
                return sum(count(c) for c in node)
            raise StructureError(f"bad nested tree node: {node!r}")

        n = count(nested)
        builder = TreeBuilder([0] * n)
        next_leaf = 0

        def rec(node):
            nonlocal next_leaf
            if isinstance(node, int):
                validate_weights([node])
                lid = next_leaf
                next_leaf += 1
                builder.set_leaf_weight(lid, node)
                return lid
            return builder.internal([rec(c) for c in node])

        root = rec(nested)
        return builder.finish([root])


class TreeBuilder:
    """Mutable helper used while assembling an AlphaTree bottom-up."""

    def __init__(self, leaf_weights: Sequence[int]):
        self._nodes = [Node((), i, w) for i, w in enumerate(leaf_weights)]

    def set_leaf_weight(self, leaf_id: int, weight: int):
        self._nodes[leaf_id] = Node((), leaf_id, weight)

    def internal(self, children: Sequence[int]) -> int:
        kids = tuple(children)
        if len(kids) not in (2, 3):
            raise StructureError(f"internal node arity {len(kids)} not in (2, 3)")
        w = sum(self._nodes[c].weight for c in kids)
        self._nodes.append(Node(kids, None, w))
        return len(self._nodes) - 1

    def finish(self, roots: Sequence[int]) -> AlphaTree:
        return AlphaTree(tuple(self._nodes), tuple(roots))


def leaf_levels(tree: AlphaTree) -> tuple:
    """Root distance of every leaf, in leaf order.  Forest roots count as 0."""
    levels = {}
    for r in tree.roots:
        stack = [(r, 0)]
        while stack:
            nid, d = stack.pop()
            nd = tree.nodes[nid]
            if nd.is_leaf:
                levels[nd.leaf_index] = d
            else:
                stack.extend((c, d + 1) for c in nd.children)
    n = len(levels)
    if sorted(levels) != list(range(n)):
        raise StructureError("leaf indexes do not cover 0..n-1")
    return tuple(levels[i] for i in range(n))


def is_alphabetic(tree: AlphaTree) -> bool:
    """True iff the in-order leaves carry leaf indexes 0..n-1 ascending."""
    seen = [tree.nodes[lid].leaf_index for lid in tree.in_order_leaves()]
    return seen == list(range(len(seen)))


def tree_cost(tree: AlphaTree, weights: Sequence[int]) -> int:
    """Total weighted path length, sum of w_i * level_i (exact)."""
    ws = validate_weights(weights)
    levels = leaf_levels(tree)
    if len(levels) != len(ws):
        raise StructureError(
            f"tree has {len(levels)} leaves but {len(ws)} weights were given"
        )
    for lid in tree.in_order_leaves():
        nd = tree.nodes[lid]
        if nd.weight != ws[nd.leaf_index]:
            raise StructureError(
                f"leaf {nd.leaf_index} stores weight {nd.weight}, expected {ws[nd.leaf_index]}"
            )
    return sum(w * l for w, l in zip(ws, levels))


# ---------------------------------------------------------------------------
# Combination traces

ROLE_PLAIN = "plain"
ROLE_OUTER = "outer"
ROLE_ACCORDION = "accordion-element"
_ROLES = (ROLE_PLAIN, ROLE_OUTER, ROLE_ACCORDION)


@dataclass(frozen=True)
class Participant:
    ref: int  # leaf id (< n) or circle id (>= n)
    sign: int  # +1 or -1; -1 only ever on leaves
    role: str  # plain / outer / accordion-element


@dataclass(frozen=True)
class CombinationStep:
    circle: int
    weight: int
    participants: tuple
    accordion_span: Optional[tuple] = None

    @property
    def arity(self) -> int:
        return len(self.participants)

    def positive_refs(self) -> tuple:
        return tuple(p.ref for p in self.participants if p.sign > 0)


@dataclass(frozen=True)
class CombinationTrace:
    """Ordered log of combinations.  Circle ids start at ``n_leaves`` and
    increase in creation order."""

    n_leaves: int
    steps: tuple

    def increments(self) -> tuple:
        return tuple(s.weight for s in self.steps)

    def total(self) -> int:
        return sum(self.increments())

    def prefix(self, k: int) -> "CombinationTrace":
        return CombinationTrace(self.n_leaves, self.steps[:k])

    def pair_steps(self) -> tuple:
        """Leaf spans of every two-participant (binary) step."""
        pairs = []
        for s in self.steps:
            if s.arity == 2 and all(p.ref < self.n_leaves for p in s.participants):
                pairs.append(tuple(sorted(p.ref for p in s.participants)))
        return tuple(pairs)

    def to_json_obj(self) -> list:
        out = []
        for k, s in enumerate(self.steps):
            out.append(
                {
                    "step": k,
                    "circle": s.circle,
                    "weight": s.weight,
                    "participants": [
                        {"index": p.ref, "sign": p.sign, "role": p.role}
                        for p in s.participants
                    ],
                    "accordion_span": list(s.accordion_span)
                    if s.accordion_span
                    else None,
                }
            )
        return out

    @classmethod
    def from_json_obj(cls, obj, n_leaves: Optional[int] = None) -> "CombinationTrace":
        if n_leaves is None:
            if not obj:
                raise TraceError("cannot infer leaf count of an empty trace")
            n_leaves = obj[0]["circle"]
        steps = []
        for entry in obj:
            span = entry.get("accordion_span")
            steps.append(
                CombinationStep(
                    circle=entry["circle"],
                    weight=entry["weight"],
                    participants=tuple(
                        Participant(p["index"], p["sign"], p["role"])
                        for p in entry["participants"]
                    ),
                    accordion_span=tuple(span) if span else None,
                )
            )
        return cls(n_leaves, tuple(steps))

    def validate(self, weights: Sequence[int]) -> None:
        """Raise TraceError unless every step is internally consistent."""
        ws = validate_weights(weights)
        n = self.n_leaves
        if len(ws) != n:
            raise TraceError("weight count does not match trace leaf count")
        circle_weight = {}
        consumed = set()
        for k, s in enumerate(self.steps):
            if s.circle != n + k:
                raise TraceError(f"step {k} creates circle {s.circle}, expected {n + k}")
            total = 0
            for p in s.participants:
                if p.role not in _ROLES:
                    raise TraceError(f"unknown participant role {p.role!r}")
                if p.sign not in (1, -1):
                    raise TraceError(f"bad participant sign {p.sign}")
                if p.ref >= n + k:
                    raise TraceError(f"step {k} references unborn node {p.ref}")
                if p.ref < n:
                    total += p.sign * ws[p.ref]
                else:
                    if p.sign < 0:
                        raise TraceError("negative participants must be original leaves")
                    if p.ref in consumed:
                        raise TraceError(f"circle {p.ref} consumed twice")
                    consumed.add(p.ref)
                    total += circle_weight[p.ref]
            if total != s.weight:
                raise TraceError(
                    f"step {k} weight {s.weight} != signed participant sum {total}"
                )
            circle_weight[s.circle] = s.weight


# ---------------------------------------------------------------------------
# Solve reports


@dataclass(frozen=True)
class SolveReport:
    """Bundle returned by every solver entry point."""

    algorithm: str
    weights: tuple
    cost: int
    levels: tuple
    tree: AlphaTree
    trace: CombinationTrace

    def to_json_obj(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "weights": list(self.weights),
            "cost": self.cost,
            "levels": list(self.levels),
            "tree": self.tree.to_nested(),
            "trace": self.trace.to_json_obj(),
        }
