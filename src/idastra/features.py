"""Problem characterisation by shallow lookahead.

A short, node-budgeted run of iterative deepening yields a trace from
which five features are measured: branching factor (b), lookahead
heuristic error (herror), tree imbalance (imb), goal location (loc) and
the heuristic branching factor (hbf).  These drive strategy selection.
"""

import math
from dataclasses import asdict, astuple, dataclass, fields

from idastra.core import _deepen
from idastra.errors import DataError, DegenerateTrace

DEFAULT_BUDGET = 200000


@dataclass(slots=True)
class ShallowTrace:
    iterations: list                 # {threshold, nodes_expanded, complete}
    root_h: int
    root_ops: list                   # the root's children's operators, sorted
    subtree_expanded: dict
    subtree_min_leaf_f: dict
    subtree_min_leaf_h: dict
    min_leaf_f: int | None
    total_expanded: int
    total_generated: int
    fertile_expanded: int
    truncated: bool
    goal_found: tuple | None         # (path, cost)


@dataclass(frozen=True)
class ProblemFeatures:
    b: float
    herror: float
    imb: float
    loc: float
    hbf: float

    def csv_row(self):
        return ",".join(repr(float(v)) for v in astuple(self))

    def as_dict(self):
        return asdict(self)


# the feature names in field order: store lines, CSV rows and the
# decision tree's split candidates all follow it
FEATURES = tuple(f.name for f in fields(ProblemFeatures))


def shallow_search(problem, budget=DEFAULT_BUDGET, order=None):
    """Run serial iterative deepening under a cross-iteration node budget.

    Stops at the goal or when the budget runs out, whichever first.  The
    in-progress expansion always completes, so generated counts may pass
    the budget but expanded never does.  Every pass but the last is
    complete; subtree statistics come from the last pass unless the
    budget cut it short and an earlier pass exists (a partial sweep
    would bias the imbalance measurement).
    """
    if budget < 1:
        raise DataError(f"budget must be >= 1, got {budget}")
    passes = list(_deepen(problem, order, budget, collect_stats=True))
    last = passes[-1]
    stats = (passes[-2] if len(passes) > 1 and last.truncated
             else last).stats
    return ShallowTrace(
        iterations=[{"threshold": p.threshold,
                     "nodes_expanded": p.nodes_expanded,
                     "complete": not p.truncated and p.solution is None}
                    for p in passes],
        # the root's g is 0, so the first threshold is its h
        root_h=passes[0].threshold,
        # every pass expands the root first, with the same children
        root_ops=passes[0].stats.root_ops,
        subtree_expanded=stats.subtree_expanded,
        subtree_min_leaf_f=stats.subtree_min_leaf_f,
        subtree_min_leaf_h=stats.subtree_min_leaf_h,
        min_leaf_f=stats.min_leaf_f,
        total_expanded=sum(p.nodes_expanded for p in passes),
        total_generated=sum(p.nodes_generated for p in passes),
        fertile_expanded=sum(p.stats.fertile_expanded for p in passes),
        truncated=last.solution is None,
        goal_found=last.solution,
    )


def extract_features(trace):
    """Measure the five features from a shallow trace."""
    if trace.total_expanded == 0:
        raise DegenerateTrace("trace holds no expansions")

    # b: children generated per expansion that produced any; dead ends
    # and the goal would otherwise drag the estimate down
    if trace.fertile_expanded:
        b = trace.total_generated / trace.fertile_expanded
    else:
        b = 0.0

    # herror: how far the deepest lookahead pushed past the root estimate
    if trace.min_leaf_f is None:
        herror = 0.0
    else:
        herror = float(max(0, trace.min_leaf_f - trace.root_h))

    imb = _imbalance(trace)
    loc = _location(trace)
    hbf = _heuristic_branching(trace, b)
    return ProblemFeatures(b=b, herror=herror, imb=imb, loc=loc, hbf=hbf)


def _imbalance(trace):
    """Population coefficient of variation of root-subtree expansion
    counts, the root's k children taken in operator order, scaled by its
    maximum sqrt(k-1) and clamped to [0, 1]."""
    counts = [trace.subtree_expanded.get(op, 0) for op in trace.root_ops]
    k = len(counts)
    if k < 2:
        return 0.0
    mean = sum(counts) / k
    if mean == 0:
        return 0.0
    var = sum((c - mean) ** 2 for c in counts) / k
    cov = math.sqrt(var) / mean
    return min(1.0, max(0.0, cov / math.sqrt(k - 1)))


def _location(trace):
    """Centre of the root subtree holding the most promising leaf
    (lowest min leaf h), as a fraction of the root's children taken in
    operator order; the first such subtree on a tie."""
    min_h = trace.subtree_min_leaf_h
    leaves = [(min_h[op], i) for i, op in enumerate(trace.root_ops)
              if op in min_h]
    if not leaves:
        return 0.5
    return (min(leaves)[1] + 0.5) / len(trace.root_ops)


def _heuristic_branching(trace, fallback):
    """Geometric mean growth between consecutive completed iterations;
    falls back to plain b when fewer than two completed."""
    done = [it["nodes_expanded"] for it in trace.iterations
            if it["complete"] and it["nodes_expanded"] > 0]
    if len(done) < 2:
        return fallback
    ratios = [done[i + 1] / done[i] for i in range(len(done) - 1)]
    log_sum = sum(math.log(r) for r in ratios)
    return math.exp(log_sum / len(ratios))

