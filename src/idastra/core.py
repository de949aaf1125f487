"""Cost-bounded depth-first search and serial iterative deepening.

A search problem is any object with:

    initial_state() -> state
    initial_h() -> int
    is_goal(state) -> bool
    expand(state, prev_op, h) -> list of (state, op, cost, h) tuples

Expansion handles operator pruning (e.g. not undoing the parent move)
internally; prev_op is -1 at the root.  Children come back in the
problem's natural operator order and may be reordered by an ordering
policy before being pushed.

A search node is the plain tuple (state, g, h, op, parent): op is the
operator that produced it (-1 at the root), parent the parent node
(None at the root), and f is g + h.  make_root builds the root.  The
serial pass and the parallel engine both stack these nodes, test one
for the goal only where its h is 0, and rebuild a goal's path from its
parents with path_to.  The goal gate relies on the heuristic's
contract: h >= 0 everywhere and h == 0 at every goal.  Manhattan
distance meets it, and so do the artificial trees, which give a goal
h 0 and clamp every other h at 0.

Iterative deepening exists once, as _deepen's stream of passes:
serial_idastar runs it to the goal, and features.shallow_search runs it
under a node budget with per-pass statistics.
"""

import sys
import time
from dataclasses import dataclass, field

from idastra.errors import SpaceExhausted


def make_root(problem):
    return (problem.initial_state(), 0, problem.initial_h(), -1, None)


def path_to(node):
    """The operators from the root to node, read along its parents."""
    ops = []
    while node[4] is not None:
        ops.append(node[3])
        node = node[4]
    return tuple(reversed(ops))


@dataclass(slots=True)
class PassStats:
    """Leaf and subtree bookkeeping for one cost-bounded pass.

    A leaf is a node the pass actually disposed of: a pruned child, a
    dead-end expansion, or the goal.  Nodes left on the stack when a
    budget truncates the pass are not leaves.  Subtrees are keyed by the
    first operator on a node's path; `sub` is None for the root itself.
    """

    subtree_expanded: dict = field(default_factory=dict)
    subtree_min_leaf_f: dict = field(default_factory=dict)
    subtree_min_leaf_h: dict = field(default_factory=dict)
    min_leaf_f: int | None = None
    fertile_expanded: int = 0
    root_children: int = 0

    def record_leaf(self, sub, g, h):
        f = g + h
        if self.min_leaf_f is None or f < self.min_leaf_f:
            self.min_leaf_f = f
        if sub is not None:
            if f < self.subtree_min_leaf_f.get(sub, f + 1):
                self.subtree_min_leaf_f[sub] = f
            if h < self.subtree_min_leaf_h.get(sub, h + 1):
                self.subtree_min_leaf_h[sub] = h

    def record_expansion(self, sub, n_children):
        if sub is not None:
            self.subtree_expanded[sub] = self.subtree_expanded.get(sub, 0) + 1
        if n_children:
            self.fertile_expanded += 1


@dataclass(slots=True)
class PassResult:
    threshold: int
    solution: tuple | None          # (path, cost) or None
    min_exceeding_f: int | None
    nodes_expanded: int
    nodes_generated: int
    truncated: bool
    stats: PassStats | None = None


def cost_bounded_dfs(problem, root, threshold, order=None, budget=None,
                     collect_stats=False):
    """One depth-first pass from make_root's node expanding only nodes
    with f <= threshold.

    The stack holds search nodes, root first.  Children over the
    threshold are recorded (their minimum f feeds the next threshold)
    but never pushed.  A popped node with h 0 is goal-tested, so
    finding the goal counts as expanding it.  With a budget, the pass
    stops once nodes_expanded reaches it and reports truncated when
    work remained on the stack.  Statistics key a node's subtree by the
    operator of the root child it descends from: a depth-first pass
    finishes one root child's subtree before it pops the next.
    """
    stats = PassStats() if collect_stats else None
    expanded = generated = 0
    min_exceed = solution = None

    _state, g, h, _op, _parent = root
    if g + h > threshold:
        if stats is not None:
            stats.record_leaf(None, g, h)
        return PassResult(threshold, None, g + h, 0, 0, False, stats)

    limit = sys.maxsize if budget is None else budget
    is_goal = problem.is_goal
    expand = problem.expand
    arrange = None if order is None else order.arrange
    sub = None
    stack = [root]
    pop = stack.pop
    push = stack.append
    while stack and expanded < limit:
        node = pop()
        state, g, h, op, parent = node
        if parent is root:
            sub = op
        expanded += 1
        if not h and is_goal(state):
            solution = (path_to(node), g)
            if stats is not None:
                stats.record_expansion(sub, 0)
                stats.record_leaf(sub, g, h)
            break
        raw = expand(state, op, h)
        # fewer than two children are in every order already
        if arrange is not None and len(raw) > 1:
            raw = arrange(raw, parent is None)
        generated += len(raw)
        # push in reverse so the first child is popped first
        for child, cop, cost, ch in reversed(raw):
            cg = g + cost
            cf = cg + ch
            if cf > threshold:
                if min_exceed is None or cf < min_exceed:
                    min_exceed = cf
            else:
                push((child, cg, ch, cop, node))
        if stats is not None:
            stats.record_expansion(sub, len(raw))
            if parent is None:
                stats.root_children = len(raw)
            if not raw:
                stats.record_leaf(sub, g, h)
            for child, cop, cost, ch in raw:
                cg = g + cost
                if cg + ch > threshold:
                    stats.record_leaf(cop if sub is None else sub, cg, ch)

    # work left on the stack and no goal: the budget cut the pass short
    return PassResult(threshold, solution, min_exceed, expanded, generated,
                      solution is None and bool(stack), stats)


def next_threshold(result):
    """Smallest f that exceeded the previous threshold.

    Raises SpaceExhausted when the pass covered everything and pruned
    nothing, since no deeper pass can ever succeed.
    """
    if result.min_exceeding_f is None:
        raise SpaceExhausted(
            f"no node exceeded threshold {result.threshold}; the space "
            "holds no goal")
    return result.min_exceeding_f


def _deepen(problem, order=None, budget=None, collect_stats=False):
    """Iterative deepening as a stream of cost-bounded passes.

    Yields each pass's PassResult: the first at the root's f, each later
    one at next_threshold of the pass before.  A budget counts expansions
    across passes, each pass getting what the earlier ones left.  The
    stream ends after the pass that finds the goal, after a pass the
    budget truncates, or once the budget is used up, so every pass but
    the last is complete.  Without a budget it ends only at the goal
    (next_threshold raises SpaceExhausted when there is none).
    """
    root = make_root(problem)
    _state, g, h, _op, _parent = root
    threshold = g + h
    while True:
        res = cost_bounded_dfs(problem, root, threshold, order=order,
                               budget=budget, collect_stats=collect_stats)
        yield res
        if res.solution is not None or res.truncated:
            return
        if budget is not None:
            budget -= res.nodes_expanded
            if budget <= 0:
                return
        threshold = next_threshold(res)


@dataclass(slots=True)
class SearchOutcome:
    path: tuple
    cost: int
    iterations: list          # (threshold, nodes_expanded) per pass
    total_expanded: int
    total_generated: int
    wall_s: float = field(default=0.0, compare=False, repr=False)


def serial_idastar(problem, order=None):
    """Iterative deepening: repeat cost-bounded passes, raising the
    threshold to the minimum exceeding f, until the goal is found.

    The outcome carries the search's own wall time (wall_s), the baseline
    of threads-mode speedups."""
    start = time.perf_counter()
    passes = list(_deepen(problem, order))
    path, cost = passes[-1].solution
    return SearchOutcome(path, cost,
                         [(p.threshold, p.nodes_expanded) for p in passes],
                         sum(p.nodes_expanded for p in passes),
                         sum(p.nodes_generated for p in passes),
                         time.perf_counter() - start)
