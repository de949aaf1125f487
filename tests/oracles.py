"""Independent reference implementations used to pin expected values.

Everything here is deliberately written from the domain contracts, not
from the package's internals: a heap-based A*, a recursive bounded DFS
with the same counting conventions, a from-scratch tree enumerator for
the artificial space, and a table-free Manhattan distance.  The one
exception is the plain-loop sim engine, which keeps the worker protocol
and drops the tick loop's shortcuts.  It also holds the feature
stability report the acceptance gates read.
"""

import heapq
import math
import sys
from fractions import Fraction
from functools import partial

from idastra import _kernels_py
from idastra.core import GOAL
from idastra.engine.sim import _SimEngine
from idastra.errors import InsufficientData
from idastra.features import FEATURES

_TAG_ERROR = 1
_TAG_GOAL = 2
_TWO64 = 1 << 64


def is_solvable(tiles):
    """Parity test against the blank-first goal: a blank move is a
    transposition of the 16 cells and moves the blank one step, so the
    permutation's parity and the blank's taxicab parity agree exactly
    for the states that reach the goal."""
    inversions = sum(1 for i, a in enumerate(tiles) for b in tiles[i + 1:]
                     if a > b)
    blank = tiles.index(0)
    return inversions % 2 == (blank // 4 + blank % 4) % 2


def manhattan_reference(tiles):
    """Manhattan distance without the precomputed table."""
    total = 0
    for pos, tile in enumerate(tiles):
        if tile == 0:
            continue
        total += abs(pos // 4 - tile // 4) + abs(pos % 4 - tile % 4)
    return total


def apply_op_reference(tiles, op):
    """The (tiles, blank) after moving the blank by op (0=Up, 1=Left,
    2=Right, 3=Down), or None when the move leaves the board."""
    blank = tiles.index(0)
    row, col = divmod(blank, 4)
    row += (-1, 0, 0, 1)[op]
    col += (0, -1, 1, 0)[op]
    if not (0 <= row < 4 and 0 <= col < 4):
        return None
    dest = row * 4 + col
    cells = list(tiles)
    cells[blank], cells[dest] = cells[dest], 0
    return bytes(cells), dest


def expand_all(problem, node):
    """Every child node (state, g, h, op, parent) of a search node, first
    operator first: expand at a threshold no f exceeds pushes them all,
    last operator first."""
    children = []
    problem.expand(node, sys.maxsize, children.append, None)
    children.reverse()
    return children


def expansion(expand, node, threshold):
    """What one call of expand does: its return, whether that is GOAL,
    and the children pushed and the fs pruned, in call order."""
    pushed, pruned = [], []
    ops = expand(node, threshold, pushed.append, pruned.append)
    return ops, ops is GOAL, pushed, pruned


def class_expand(problem):
    """problem's expand as perfbench/tracing.py wraps it: the attribute
    in its class's __dict__, called with the problem first."""
    return partial(type(problem).__dict__["expand"], problem)


def astar_cost(problem, limit=2_000_000):
    """Optimal solution cost by best-first search; None if the space is
    exhausted, raises if the node limit trips (test sizing guard)."""
    start = problem.initial_state()
    open_heap = [(problem.initial_h(), 0, 0, start, -1)]
    best_g = {start: 0}
    counter = 0
    popped = 0
    while open_heap:
        f, _, g, state, prev_op = heapq.heappop(open_heap)
        popped += 1
        if popped > limit:
            raise RuntimeError("astar oracle exceeded its node limit")
        if g > best_g.get(state, math.inf):
            continue
        if problem.is_goal(state):
            return g
        for child, cg, h, _op, _parent in expand_all(
                problem, (state, g, f - g, prev_op, None)):
            if cg < best_g.get(child, math.inf):
                best_g[child] = cg
                counter += 1
                heapq.heappush(open_heap, (cg + h, counter, cg, child, _op))
    return None


def bounded_dfs_reference(problem, threshold, order=None):
    """Recursive twin of the engine's cost-bounded pass.

    Counting conventions: visiting a node counts it as expanded (the
    goal node included); children over the bound are pruned where they
    are generated and feed the minimum-exceeding-f value.  An ordering
    policy, when given, arranges each sibling list before it is walked.
    Returns (expanded, generated, min_exceed, solution).
    """
    h0 = problem.initial_h()
    if h0 > threshold:
        return 0, 0, h0, None
    tally = {"expanded": 0, "generated": 0, "min_exceed": None}

    def visit(state, g, h, prev_op, path):
        tally["expanded"] += 1
        if problem.is_goal(state):
            return (path, g)
        children = expand_all(problem, (state, g, h, prev_op, None))
        if order is not None:
            # arrange takes and returns siblings in stack order, last
            # child first; this walk takes them first operator first
            children = order.arrange(children[::-1], not path)[::-1]
        # a whole sibling list comes into existence when its parent is
        # expanded, even if the pass stops at a goal among them
        tally["generated"] += len(children)
        for child, cg, ch, op, _parent in children:
            cf = cg + ch
            if cf > threshold:
                me = tally["min_exceed"]
                if me is None or cf < me:
                    tally["min_exceed"] = cf
            else:
                found = visit(child, cg, ch, op, path + (op,))
                if found is not None:
                    return found
        return None

    solution = visit(problem.initial_state(), 0, h0, -1, ())
    return (tally["expanded"], tally["generated"], tally["min_exceed"],
            solution)


def ida_reference(problem, order=None):
    """Serial iterative deepening built on the recursive pass.

    Returns (cost, path, thresholds, per-pass expansions, total).
    """
    threshold = problem.initial_h()
    thresholds = []
    per_pass = []
    total = 0
    while True:
        expanded, _gen, min_exceed, solution = bounded_dfs_reference(
            problem, threshold, order)
        thresholds.append(threshold)
        per_pass.append(expanded)
        total += expanded
        if solution is not None:
            path, cost = solution
            return cost, path, thresholds, per_pass, total
        if min_exceed is None:
            return None, None, thresholds, per_pass, total
        threshold = min_exceed


# ------------------------------------------------------ sim engine

def live_nodes(cluster):
    """The nodes of a sim cluster's running pass: those on its members'
    open lists and those in donations of the pass's epoch still queued
    in their inboxes."""
    return sum(len(w.open) + sum(len(payload)
                                 for _due, epoch, kind, payload in w.inbox
                                 if kind == "don" and epoch == cluster.epoch)
               for w in cluster.members)


class PlainLoopSim(_SimEngine):
    """The sim engine's tick loop in its plainest form: no awake list,
    every worker stepped every tick in id order, and each step that
    expands nothing counted as an idle tick of its worker.  It also
    counts the expansions of nodes whose g + h exceeds the threshold of
    the stepping worker's cluster.  The report carries these counts in
    place of the idle ticks run_sim reads off the clock and of its
    over_threshold_expansions, which is always 0.

    It counts each pass's live nodes itself, around every expansion
    that is not the goal's, and records in dry_ticks each tick at
    which one leaves its cluster's pass with none: the ticks at which
    the pass must end."""

    def __init__(self, *args):
        super().__init__(*args)
        self.idle_counted = [0] * len(self.workers)
        self.over_threshold = 0
        self.stepping = None
        self.dry_ticks = []
        expand = self._expand_node

        def checked_expand(node, threshold, push, prune):
            cluster = self.stepping.cluster
            _state, g, h, _op, _parent = node
            if g + h > cluster.threshold:
                self.over_threshold += 1
            # node is off its list already, and a kept child may go to
            # a fresh list first, so count the kept children as pushed
            left = live_nodes(cluster)
            kept = []

            def counted_push(child):
                kept.append(child)
                push(child)

            ops = expand(node, threshold, counted_push, prune)
            if ops is not GOAL and left + len(kept) == 0:
                self.dry_ticks.append(self.tick)
            return ops

        self._expand_node = checked_expand

    def _tick(self):
        for w in self.workers:
            before = w.stats.nodes_expanded
            self.stepping = w
            self._step(w)
            if w.stats.nodes_expanded == before:
                self.idle_counted[w.wid] += 1
            if self.coord.accepted is not None:
                return w
        return None

    def _finish(self, makespan, speedup, mode):
        for w, idle in zip(self.workers, self.idle_counted):
            w.stats.idle_ticks = idle
        report = super()._finish(makespan, speedup, mode)
        report.over_threshold_expansions = self.over_threshold
        return report


# ------------------------------------------------- artificial space

def child_indices(problem, state):
    """The surviving child indices of an artificial problem's state, in
    index order."""
    return [op for _s, _g, _h, op, _p in
            expand_all(problem, (state, 0, 0, -1, None))]


def count_nodes(problem):
    """Nodes of an artificial problem's tree, root included, counted
    through expand; exponential, so test-sized trees only."""
    total = 0
    frontier = [(problem.initial_state(), 0, 0, -1, None)]
    while frontier:
        total += len(frontier)
        frontier = [child for node in frontier
                    for child in expand_all(problem, node)]
    return total


def goal_digits_reference(g, b, d):
    """First d base-b digits of the fraction g (g = 1 -> all b-1)."""
    if g >= 1.0:
        return tuple([b - 1] * d)
    digits = []
    x = g
    for _ in range(d):
        digit = min(int(x * b), b - 1)
        digits.append(digit)
        x = x * b - digit
    return tuple(digits)


class SpaceModel:
    """From-scratch enumerator for an artificial instance.

    Rebuilds the generator's conventions directly from its parameter
    contract: per-child-index depth limits ceil(d*(1 - imb*i/(b-1)))
    with the designated goal path exempt, density goals drawn from the
    hash stream, the exact-distance heuristic with the remaining-depth
    cap active only when density goals are possible, and hash-derived
    error subtraction.  Only the hash primitive is shared (its own
    parity suite covers it).
    """

    def __init__(self, spec):
        self.spec = spec
        self.goal = goal_digits_reference(spec.g, spec.b, spec.d)
        self.limits = [math.ceil(spec.d * (1.0 - spec.imbalance * i
                                           / (spec.b - 1)))
                       for i in range(spec.b)]
        self.density_threshold = int(spec.density * _TWO64)

    def children(self, path):
        k = len(path)
        if k >= self.spec.d:
            return []
        on_goal = tuple(path) == self.goal[:k]
        out = []
        for i in range(self.spec.b):
            if k < self.limits[i] or (on_goal and i == self.goal[k]):
                out.append(path + (i,))
        return out

    def shared_prefix(self, path):
        """Length of the common prefix of path and the goal path."""
        shared = 0
        for a, g in zip(path, self.goal):
            if a != g:
                break
            shared += 1
        return shared

    def is_goal(self, path):
        if len(path) != self.spec.d:
            return False
        if tuple(path) == self.goal:
            return True
        if self.density_threshold == 0:
            return False
        key = _kernels_py.path_hash(self.spec.seed, _TAG_GOAL, bytes(path))
        return key < self.density_threshold

    def heuristic(self, path):
        if self.is_goal(path):
            return 0
        shared = self.shared_prefix(path)
        dist = (len(path) - shared) + (self.spec.d - shared)
        if self.density_threshold > 0:
            dist = min(dist, self.spec.d - len(path))
        err = 0
        if self.spec.herror > 0:
            err = _kernels_py.path_hash(self.spec.seed, _TAG_ERROR,
                                        bytes(path)) % (self.spec.herror + 1)
        return max(0, dist - err)

    def all_nodes(self):
        nodes = []
        frontier = [()]
        while frontier:
            nodes.extend(frontier)
            frontier = [c for p in frontier for c in self.children(p)]
        return nodes

    def goal_nodes(self):
        return [p for p in self.all_nodes() if self.is_goal(p)]

    def true_remaining_cost(self, path):
        """Exact cheapest path-to-goal cost below `path` by DFS, or None
        when no goal is reachable from it (tree: no revisits)."""
        best = None
        stack = [(path, 0)]
        while stack:
            p, depth = stack.pop()
            if best is not None and depth >= best:
                continue
            if self.is_goal(p):
                best = depth if best is None else min(best, depth)
                continue
            for c in self.children(p):
                stack.append((c, depth + 1))
        return best


def uniform_tree_size(b, depth):
    """Nodes in a complete b-ary tree of the given depth, root included."""
    return (b ** (depth + 1) - 1) // (b - 1)


def geometric_sum(b, lo, hi):
    """Sum of b**i for lo <= i <= hi as an exact integer (0 if empty)."""
    return sum(b ** i for i in range(lo, hi + 1))


def eq1_brute(P, b, d, x):
    """Eq. 1 by literal term-by-term summation with exact rationals."""
    num = Fraction(sum(b ** i for i in range(1, d + 1)))
    den = Fraction(sum(b ** i for i in range(x + 1, d + 1)))
    return float(P * num / den + Fraction(1, 2 * b ** x))


def ideal_dts_reference(P, b, d, a, ratio=None):
    """Ideal DTS speedup by literal summation: one exact cost per
    iteration and one exact share per processor (ratio None means
    balanced shares), the owner found by walking the intervals."""
    costs = [Fraction(sum(b ** i for i in range(1, j + 1)))
             for j in range(1, d + 1)]
    r = None if ratio is None else Fraction(ratio)
    weights = [Fraction(1) if r is None else r ** i for i in range(P)]
    shares = [w / sum(weights) for w in weights]
    a = Fraction(a)
    serial = sum(costs[:-1]) + a * costs[-1]
    if serial == 0:
        return 1.0
    owner_left = 1 - shares[-1]
    acc = Fraction(0)
    for share in shares:
        if a < acc + share:
            owner_left = acc
            break
        acc += share
    parallel = max(shares) * sum(costs[:-1]) + (a - owner_left) * costs[-1]
    return float("inf") if parallel == 0 else float(serial / parallel)


def spearman(xs, ys):
    """Spearman rank correlation with average ranks for ties."""
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and \
                    vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)


def stability_report(samples):
    """Within- vs between-problem feature variation.

    samples: one list of ProblemFeatures per problem, measured at
    different lookahead budgets.  Returns {"within": {...}, "between":
    {...}} mapping each feature to a standard deviation.
    """
    if len(samples) < 2:
        raise InsufficientData("need at least 2 problems")
    for group in samples:
        if len(group) < 2:
            raise InsufficientData("need at least 2 budget levels per problem")
    within = {}
    between = {}
    for name in FEATURES:
        per_problem_sd = []
        per_problem_mean = []
        for group in samples:
            vals = [getattr(fs, name) for fs in group]
            m = sum(vals) / len(vals)
            sd = math.sqrt(sum((v - m) ** 2 for v in vals) / (len(vals) - 1))
            per_problem_sd.append(sd)
            per_problem_mean.append(m)
        within[name] = sum(per_problem_sd) / len(per_problem_sd)
        mm = sum(per_problem_mean) / len(per_problem_mean)
        between[name] = math.sqrt(
            sum((v - mm) ** 2 for v in per_problem_mean)
            / (len(per_problem_mean) - 1))
    return {"within": within, "between": between}
