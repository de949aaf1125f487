"""Cost-bounded depth-first search and serial iterative deepening.

A search node is the plain tuple (state, g, h, op, parent): op is the
operator that produced it (-1 at the root), parent the parent node
(None at the root), and f is g + h.  make_root builds the root.

A search problem is any object with:

    initial_state() -> state
    initial_h() -> int
    expand(node, threshold, push, prune) -> GOAL or the operators walked

A search reads problem.expand once per pass (cost_bounded_dfs, and
PassStats through it) or once per sim or threads run (_SimEngine), and
calls what it got for every expansion of that pass or run.  So expand
may be any callable read off the problem: each domain's is its kernel
itself, with the problem's tables bound, looked up at that read (see
idastra._backend.KernelExpand).

expand first goal-tests node itself: at a goal it returns the sentinel
GOAL, an empty tuple, and pushes and prunes nothing, at every
threshold.  Otherwise it builds each child of node directly as a search
node.  It calls push(child) for every child with f <= threshold, last
operator first, and prune(f) for every other child, whose state it
never builds.  It returns the tuple of operators (or move-table
entries) it walked, which already exists: its length is the number of
children generated.  The domains also offer is_goal(state) as a plain
predicate; no search loop calls it.  Expansion handles operator pruning
(e.g. not undoing the parent move) internally, reading the node's op
(-1 at the root).  The children's natural order is their operator
order: pushed last operator first, they pop first operator first.  The
serial pass hands expand its stack's append as push, and a sim worker
its open list's appendleft, so kept children go straight onto the
stack or the list.  An ordering policy's arrange takes the kept
children as pushed and returns them in its own stack order, so under
one the serial pass and a worker hand expand a fresh list's append and
move the arranged list onto the stack's top or the list's head.  Both
loops skip arrange for fewer than two children, and for an identity
policy, whose order is the natural one.

The serial pass and the parallel engine both stack these nodes, learn
that one is the goal from its expansion (expand returns GOAL), and
rebuild a goal's path from its parents with path_to.  The serial pass's
loop has one body, whose expand is the domain's or PassStats' wrapper
with its signature, which records the goal as a childless expansion.
Two contracts hold in every domain.  The goal gate relies on the
heuristic's: h >= 0 everywhere and h == 0 at every goal, so expand need
test only a node with h 0.  Manhattan distance meets it, and so do the
artificial trees, which give a goal h 0 and clamp every other h at 0.
And every operator costs 1, so a child's g is its parent's g plus 1: a
profiling pass relies on it to read a pruned child's g and h from its f
alone.

Iterative deepening exists once, as _deepen's stream of passes:
serial_idastar runs it to the goal, and features.shallow_search runs it
under a node budget with per-pass statistics.
"""

import sys
import time
from dataclasses import dataclass, field

from idastra.errors import SpaceExhausted


class _Goal(tuple):
    """The type of GOAL: an empty tuple, so a caller that takes len() of
    whatever expand returns counts a goal's expansion as childless."""

    __slots__ = ()

    def __repr__(self):
        return "GOAL"


# what expand returns at a goal; callers test it with `is`
GOAL = _Goal()


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

    A leaf is a node the pass actually disposed of: a pruned child, or
    a childless expansion, the goal's included.  Nodes left on the stack
    when a budget truncates the pass are not leaves.  Subtrees are keyed
    by the first operator on a node's path; `sub` is None for the root
    itself.  root_ops lists those keys, the root's children's operators,
    sorted.

    expand wraps domain_expand.  During the pass, sub and g are the
    subtree key and the g of the node being expanded, and pruned is the
    pass's set of pruned f values.  prune is the pass's prune sink below
    the root: every operator costs 1, so a child pruned at f is a leaf
    at g + 1 with h f - g - 1.
    """

    subtree_expanded: dict = field(default_factory=dict)
    subtree_min_leaf_f: dict = field(default_factory=dict)
    subtree_min_leaf_h: dict = field(default_factory=dict)
    min_leaf_f: int | None = None
    fertile_expanded: int = 0
    root_ops: list = field(default_factory=list)
    domain_expand: object = field(default=None, repr=False, compare=False)
    sub: int | None = field(default=None, repr=False, compare=False)
    g: int = field(default=0, repr=False, compare=False)
    pruned: set = field(default_factory=set, repr=False, compare=False)

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

    def prune(self, f):
        self.pruned.add(f)
        g = self.g + 1
        self.record_leaf(self.sub, g, f - g)

    def _enter(self, node):
        """Make node the one being disposed of: take its g, and its
        operator as the subtree key when its parent is the root."""
        _state, self.g, _h, op, parent = node
        if parent is not None and parent[4] is None:
            self.sub = op

    def expand(self, node, threshold, push, prune):
        """The domain's expand, recording node's expansion and its
        pruned children as leaves (prune is this object's).  A childless
        node is a leaf too, and GOAL is an empty tuple, so the goal is
        recorded as a childless expansion.  prune gets no operator, so
        the root alone asks the domain for every child and keys each
        pruned one by its own operator."""
        self._enter(node)
        if node[4] is None:
            kids = []
            ops = self.domain_expand(node, sys.maxsize, kids.append, None)
            self.root_ops = sorted(kid[3] for kid in kids)
            for kid in kids:
                _state, cg, ch, op, _parent = kid
                if cg + ch > threshold:
                    self.pruned.add(cg + ch)
                    self.record_leaf(op, cg, ch)
                else:
                    push(kid)
        else:
            ops = self.domain_expand(node, threshold, push, prune)
        self.record_expansion(self.sub, len(ops))
        if not ops:
            self.record_leaf(self.sub, node[1], node[2])
        return ops


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

    The stack holds search nodes, root first, and expand pushes each
    kept child straight onto it; under an ordering expand pushes to a
    fresh list, which arrange puts in stack order before it joins the
    stack.  Children over the threshold are recorded
    (their minimum f feeds the next threshold) but never pushed.  Every
    popped node is expanded, and expand returns GOAL at the goal, so
    finding the goal counts as expanding it.  With a budget, the pass
    stops once nodes_expanded reaches it and reports truncated when work
    remained on the stack.
    The loop has one body.  With statistics, its expand and prune are
    PassStats', the first wrapping the domain's expand; they record
    every expansion and leaf.  Statistics key a node's subtree by the
    operator of the root child it descends from: a depth-first pass
    finishes one root child's subtree before it pops the next.
    """
    pruned = set()
    expand, prune, stats = problem.expand, pruned.add, None
    if collect_stats:
        stats = PassStats(pruned=pruned, domain_expand=expand)
        expand, prune = stats.expand, stats.prune
    expanded = generated = 0
    solution = None

    _state, g, h, _op, _parent = root
    if g + h > threshold:
        if stats is not None:
            stats.record_leaf(None, g, h)
        return PassResult(threshold, None, g + h, 0, 0, False, stats)

    limit = sys.maxsize if budget is None else budget
    arrange = (None if order is None or order.is_identity()
               else order.arrange)
    stack = [root]
    pop = stack.pop
    push = stack.append
    while stack and expanded < limit:
        node = pop()
        expanded += 1
        if arrange is None:
            ops = expand(node, threshold, push, prune)
        else:
            kids = []
            ops = expand(node, threshold, kids.append, prune)
            # fewer than two children are in every order already
            if len(kids) > 1:
                kids = arrange(kids, node[4] is None)
            stack += kids
        if ops is GOAL:
            solution = (path_to(node), node[1])
            break
        generated += len(ops)

    # work left on the stack and no goal: the budget cut the pass short
    return PassResult(threshold, solution, min(pruned) if pruned else None,
                      expanded, generated, solution is None and bool(stack),
                      stats)


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
