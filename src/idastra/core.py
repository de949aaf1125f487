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
(None at the root), and f is g + h.  make_root builds the root; the
parallel engine chains children to their parents this way and walks
the chain back only to rebuild the path of a goal it reports.

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

    Children over the threshold are recorded (their minimum f feeds the
    next threshold) but never pushed.  The goal test runs when a node is
    popped, so finding the goal counts as expanding it.  With a budget,
    the pass stops once nodes_expanded reaches it and reports truncated
    when work remained on the stack.

    The stack holds (state, g, h, op, depth) tuples, and one shared list
    is the path: path[0] is the root's prev_op and path[1:depth + 1] the
    operators leading to the node popped last.  Popping a node at depth
    d cuts the list back to d entries and appends the node's operator.
    """
    stats = PassStats() if collect_stats else None
    expanded = 0
    generated = 0
    min_exceed = None
    solution = None
    truncated = False

    state, g, h, op, _parent = root
    if g + h > threshold:
        min_exceed = g + h
        if stats is not None:
            stats.record_leaf(None, g, h)
        return PassResult(threshold, None, min_exceed, 0, 0, False, stats)

    limit = sys.maxsize if budget is None else budget
    is_goal = problem.is_goal
    expand = problem.expand
    arrange = None if order is None else order.arrange
    path = []
    stack = [(state, g, h, op, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        if expanded >= limit:
            truncated = True
            break
        state, g, h, op, depth = pop()
        del path[depth:]
        path.append(op)
        expanded += 1
        if is_goal(state):
            solution = (tuple(path[1:]), g)
            if stats is not None:
                sub = path[1] if depth else None
                stats.record_expansion(sub, 0)
                stats.record_leaf(sub, g, h)
            break
        raw = expand(state, op, h)
        if arrange is not None:
            raw = arrange(raw, not depth)
        generated += len(raw)
        child_depth = depth + 1
        # push in reverse so the first child is popped first
        for child, cop, cost, ch in reversed(raw):
            cg = g + cost
            cf = cg + ch
            if cf > threshold:
                if min_exceed is None or cf < min_exceed:
                    min_exceed = cf
            else:
                push((child, cg, ch, cop, child_depth))
        if stats is not None:
            sub = path[1] if depth else None
            stats.record_expansion(sub, len(raw))
            if not depth:
                stats.root_children = len(raw)
            if not raw:
                stats.record_leaf(sub, g, h)
            for child, cop, cost, ch in raw:
                cg = g + cost
                if cg + ch > threshold:
                    stats.record_leaf(cop if sub is None else sub, cg, ch)

    return PassResult(threshold, solution, min_exceed, expanded, generated,
                      truncated, stats)


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
