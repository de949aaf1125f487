"""Child ordering policies.

Fixed applies one operator permutation everywhere.  Local sorts children
by heuristic value.  Toida sorts the root's children by scores learned
from a profiling trace (smaller score first) and falls back to Local
below the root.  All ties break on operator index so ordering is
deterministic.
"""

from dataclasses import dataclass, field

from idastra.errors import EmptyTrace, InvalidConfig, MissingScores

_INF = float("inf")


@dataclass(frozen=True)
class OrderPolicy:
    kind: str                       # "Fixed" | "Local" | "Toida"
    permutation: tuple | None = None
    scores: dict | None = None
    # a Fixed permutation's rank per operator, built once
    _rank: dict | None = field(default=None, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        if self.permutation is not None:
            object.__setattr__(self, "_rank", {
                op: i for i, op in enumerate(self.permutation)})

    @staticmethod
    def fixed(permutation=None):
        if permutation is not None:
            permutation = tuple(permutation)
            if sorted(permutation) != list(range(len(permutation))):
                raise InvalidConfig(
                    f"not a permutation: {permutation}")
        return OrderPolicy("Fixed", permutation=permutation)

    @staticmethod
    def local():
        return OrderPolicy("Local")

    @staticmethod
    def toida(scores):
        if scores is None:
            raise MissingScores("Toida ordering needs a score table")
        return OrderPolicy("Toida", scores=dict(scores))

    def is_identity(self):
        if self.kind != "Fixed":
            return False
        p = self.permutation
        return p is None or p == tuple(range(len(p)))

    def arrange(self, children, at_root):
        """Return children (state, op, cost, h) in policy order; at_root
        says whether they are the root's children."""
        if self.kind == "Fixed":
            rank = self._rank
            if rank is None:
                return children
            bound = len(rank)
            return sorted(children,
                          key=lambda c: (rank.get(c[1], bound), c[1]))
        if self.kind == "Local":
            return sorted(children, key=lambda c: (c[3], c[1]))
        # Toida: learned scores steer only the top of the tree
        if self.scores is None:
            raise MissingScores("Toida ordering needs a score table")
        if at_root:
            return sorted(children,
                          key=lambda c: (self.scores.get(c[1], _INF), c[1]))
        return sorted(children, key=lambda c: (c[3], c[1]))

    def token(self):
        """Short text form used in strategy configuration strings."""
        if self.kind == "Fixed":
            if self.permutation is None:
                return "Fixed"
            return "Fixed:" + "".join(str(i) for i in self.permutation)
        return self.kind

    @staticmethod
    def from_token(token):
        """Parse token()'s text.  A Toida policy comes back without
        scores; the caller fills them from the instance's profiling
        trace."""
        if token == "Fixed":
            return OrderPolicy.fixed()
        if token.startswith("Fixed:"):
            return OrderPolicy.fixed(tuple(int(c) for c in token[6:]))
        if token in ("Local", "Toida"):
            return OrderPolicy(token)
        raise InvalidConfig(f"unknown ordering {token!r}")


def toida_scores_from_trace(trace):
    """Score each root subtree by the lowest leaf f seen in a trace.

    Subtrees that held the most promising leaves (for instance a goal at
    f = 9) get the lowest scores and are searched first.
    """
    if not trace.subtree_min_leaf_f:
        raise EmptyTrace("trace recorded no subtree leaves")
    return dict(sorted(trace.subtree_min_leaf_f.items()))
