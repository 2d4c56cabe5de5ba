"""Core domain types shared by every solver.

Exact nonnegative integer weights, ordered leaf-labelled trees, per-leaf
level sequences, and combination traces.  Everything here is immutable and
float-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


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

    def internal_weights(self) -> tuple:
        return tuple(nd.weight for nd in self.nodes if not nd.is_leaf)

    def arities(self) -> tuple:
        return tuple(len(nd.children) for nd in self.nodes if not nd.is_leaf)

    def to_nested(self):
        """Nested-array form: a leaf is its weight, an internal node a list.

        Built in post-order with an explicit stack, so a deep tree needs no
        deep recursion: done holds the finished values whose parent is not
        built yet, left to right."""
        done = []
        stack = [(self.root, False)]
        while stack:
            nid, children_done = stack.pop()
            nd = self.nodes[nid]
            if nd.is_leaf:
                done.append(nd.weight)
            elif children_done:
                k = len(nd.children)
                done[-k:] = [done[-k:]]
            else:
                stack.append((nid, True))
                stack.extend((c, False) for c in reversed(nd.children))
        return done[0]

    @classmethod
    def from_nested(cls, nested) -> "AlphaTree":
        """Rebuild a single-root tree from its nested-array form.

        One explicit-stack pass lists the leaf weights and, in post-order,
        each node's arity (0 for a leaf), checking each node before its
        children; the tree is then built from that list, leaves numbered
        left to right and internal nodes in post-order."""
        weights, arities = [], []
        stack = [(nested, False)]
        while stack:
            node, children_done = stack.pop()
            if children_done:
                arities.append(len(node))
            elif isinstance(node, int):
                weights.append(node)
                arities.append(0)
            elif isinstance(node, (list, tuple)) and len(node) in (2, 3):
                stack.append((node, True))
                stack.extend((child, False) for child in reversed(node))
            else:
                raise StructureError(f"bad nested tree node: {node!r}")
        builder = TreeBuilder(validate_weights(weights))
        built, leaf = [], 0
        for k in arities:
            if k:
                built[-k:] = [builder.internal(built[-k:])]
            else:
                built.append(leaf)
                leaf += 1
        return builder.finish(built)


class TreeBuilder:
    """Mutable helper used while assembling an AlphaTree bottom-up."""

    def __init__(self, leaf_weights: Sequence[int]):
        self._nodes = [Node((), i, w) for i, w in enumerate(leaf_weights)]

    def internal(self, children: Sequence[int]) -> int:
        kids = tuple(children)
        if len(kids) not in (2, 3):
            raise StructureError(f"internal node arity {len(kids)} not in (2, 3)")
        w = sum(self._nodes[c].weight for c in kids)
        self._nodes.append(Node(kids, None, w))
        return len(self._nodes) - 1

    def finish(self, roots: Sequence[int]) -> AlphaTree:
        return AlphaTree(tuple(self._nodes), tuple(roots))


def _leaves(tree: AlphaTree) -> list:
    """Every leaf node with its root distance, left to right: one
    explicit-stack pass over the roots in order.  Forest roots count as 0."""
    nodes = tree.nodes
    out = []
    stack = [(r, 0) for r in reversed(tree.roots)]
    while stack:
        nid, d = stack.pop()
        nd = nodes[nid]
        if nd.children:
            d += 1
            stack.extend([(c, d) for c in reversed(nd.children)])
        else:
            out.append((nd, d))
    return out


def _levels(leaves: list) -> tuple:
    """The depths of ``_leaves``' output in leaf-index order, refused unless
    its leaf indexes are 0..n-1, each once."""
    levels = {nd.leaf_index: d for nd, d in leaves}
    n = len(leaves)
    if sorted(levels) != list(range(n)):  # a repeated index leaves fewer keys
        raise StructureError("leaf indexes do not cover 0..n-1")
    return tuple(levels[i] for i in range(n))


def leaf_levels(tree: AlphaTree) -> tuple:
    """Root distance of every leaf, in leaf order.  Forest roots count as 0."""
    return _levels(_leaves(tree))


def _alphabetic(leaves: list) -> bool:
    """True iff ``_leaves``' output carries leaf indexes 0..n-1 ascending."""
    return [nd.leaf_index for nd, _d in leaves] == list(range(len(leaves)))


def is_alphabetic(tree: AlphaTree) -> bool:
    """True iff the in-order leaves carry leaf indexes 0..n-1 ascending."""
    return _alphabetic(_leaves(tree))


def _levels_and_cost(leaves: list, ws: tuple) -> tuple:
    """``(levels, cost)``: ``_levels`` of ``_leaves``' output, and the
    weighted path length over the validated weights ``ws``; refused unless
    the leaves are one per weight and each stores its weight."""
    levels = _levels(leaves)
    if len(levels) != len(ws):
        raise StructureError(
            f"tree has {len(levels)} leaves but {len(ws)} weights were given"
        )
    for nd, _d in leaves:
        if nd.weight != ws[nd.leaf_index]:
            raise StructureError(
                f"leaf {nd.leaf_index} stores weight {nd.weight}, expected {ws[nd.leaf_index]}"
            )
    return levels, sum(w * l for w, l in zip(ws, levels))


def tree_cost(tree: AlphaTree, weights: Sequence[int]) -> int:
    """Total weighted path length, sum of w_i * level_i (exact)."""
    ws = validate_weights(weights)
    return _levels_and_cost(_leaves(tree), ws)[1]


# ---------------------------------------------------------------------------
# Combination traces

ROLE_PLAIN = "plain"
ROLE_OUTER = "outer"
ROLE_ACCORDION = "accordion-element"


@dataclass(frozen=True)
class Participant:
    ref: int  # leaf id (< n) or circle id (>= n)
    sign: int  # +1 or -1; -1 only ever on leaves


@dataclass(frozen=True)
class CombinationStep:
    """One combination: the circle it creates, its weight, and its signed
    participants in sequence order.

    A step of two or three participants is a plain group.  A longer one is
    an accordion: its first and last participants are the outer nodes, and
    every one between them is an accordion element.  So each participant's
    role, and the accordion's first and last element, follow from the
    participants and are not stored."""

    circle: int
    weight: int
    participants: tuple

    @property
    def arity(self) -> int:
        return len(self.participants)

    @property
    def roles(self) -> tuple:
        """Each participant's role, in participant order."""
        k = len(self.participants)
        if k <= 3:
            return (ROLE_PLAIN,) * k
        return (ROLE_OUTER,) + (ROLE_ACCORDION,) * (k - 2) + (ROLE_OUTER,)

    @property
    def accordion_span(self) -> Optional[tuple]:
        """The refs of an accordion's first and last element, None for a
        plain group."""
        if len(self.participants) <= 3:
            return None
        return self.participants[1].ref, self.participants[-2].ref


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
        """Leaf spans of every two-participant (binary) step.  Participants
        are in sequence order, so a circle's first leaf is found by
        following first participants down to a leaf, and its last leaf by
        following last ones; a binary step's own two may come in either
        order."""
        n = self.n_leaves

        def leaf(ref: int, side: int) -> int:
            while ref >= n:
                ref = self.steps[ref - n].participants[side].ref
            return ref

        return tuple(
            (min(leaf(p.ref, 0) for p in s.participants), max(leaf(p.ref, -1) for p in s.participants))
            for s in self.steps
            if s.arity == 2
        )

    def to_json_obj(self) -> list:
        out = []
        for k, s in enumerate(self.steps):
            span = s.accordion_span
            out.append(
                {
                    "step": k,
                    "circle": s.circle,
                    "weight": s.weight,
                    "participants": [
                        {"index": p.ref, "sign": p.sign, "role": role}
                        for p, role in zip(s.participants, s.roles)
                    ],
                    "accordion_span": list(span) if span else None,
                }
            )
        return out

    @classmethod
    def from_json_obj(cls, obj, n_leaves: Optional[int] = None) -> "CombinationTrace":
        """Read back the form ``to_json_obj`` writes.  The roles and the
        accordion span are derived from the participants, so an entry whose
        stored ones differ is refused, as is an entry that lacks a field."""
        steps = []
        for k, entry in enumerate(obj):
            try:
                step = CombinationStep(
                    entry["circle"],
                    entry["weight"],
                    tuple(Participant(p["index"], p["sign"]) for p in entry["participants"]),
                )
                roles = [p["role"] for p in entry["participants"]]
            except KeyError as exc:
                raise TraceError(f"step {k} lacks the field {exc}") from exc
            derived = list(step.roles), step.accordion_span and list(step.accordion_span)
            stored = roles, entry.get("accordion_span")
            if stored != derived:
                raise TraceError(f"step {k} roles and span {stored} differ from the derived {derived}")
            steps.append(step)
        if n_leaves is None:
            if not steps:
                raise TraceError("cannot infer leaf count of an empty trace")
            n_leaves = steps[0].circle
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
