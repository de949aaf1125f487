"""Parameterised artificial search trees.

A tree of branching factor b is cut off at depth d.  One designated
root-to-goal path is derived from goal_position; extra goals can be
sprinkled across depth-d nodes with solution_density.  imbalance skews
subtree depths (higher child indices get shallower limits), and
heuristic_error subtracts a seeded pseudo-random amount from the exact
distance-to-designated-goal heuristic.  Everything is a pure function of
(spec, path), so runs are reproducible byte for byte.

A node's state is the tuple (path, shared, err_key, goal_key): the
bytes string of child indices from the root, its common-prefix length
with the designated goal path, and its error-stream and goal-stream hash
keys.  Every field is a function of the path, so the path alone still
identifies the node; the other three are carried so that a child's
heuristic and goal test cost one hash step each, not a rehash of the
whole path.
"""

import math
from dataclasses import dataclass

from idastra._backend import kernels
from idastra.errors import DataError

_TAG_ERROR = 1
_TAG_GOAL = 2
_TWO64 = 1 << 64

_FIELDS = ("d", "g", "b", "imbalance", "density", "herror", "seed")
_INT_FIELDS = {"d", "b", "herror", "seed"}


@dataclass(frozen=True)
class ArtificialSpec:
    d: int              # tree depth
    g: float            # goal position in [0, 1]
    b: int              # branching factor
    imbalance: float    # subtree depth skew in [0, 1]
    density: float      # extra-goal fraction at depth d, in [0, 1]
    herror: int         # max heuristic error, >= 0
    seed: int

    def validate(self):
        if self.d < 1:
            raise DataError(f"d must be >= 1, got {self.d}")
        if self.b < 2:
            raise DataError(f"b must be >= 2, got {self.b}")
        if not 0.0 <= self.g <= 1.0:
            raise DataError(f"g must be in [0, 1], got {self.g}")
        if not 0.0 <= self.imbalance <= 1.0:
            raise DataError(
                f"imbalance must be in [0, 1], got {self.imbalance}")
        if not 0.0 <= self.density <= 1.0:
            raise DataError(f"density must be in [0, 1], got {self.density}")
        if self.herror < 0:
            raise DataError(f"herror must be >= 0, got {self.herror}")
        return self

    def to_text(self):
        lines = []
        for name in _FIELDS:
            lines.append(f"{name} = {getattr(self, name)!r}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text):
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"line {lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in _FIELDS:
                raise DataError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise DataError(f"line {lineno}: duplicate key {key!r}")
            try:
                values[key] = int(val) if key in _INT_FIELDS else float(val)
            except ValueError:
                raise DataError(
                    f"line {lineno}: bad value {val!r} for {key}") from None
        missing = [k for k in _FIELDS if k not in values]
        if missing:
            raise DataError(f"missing keys: {', '.join(missing)}")
        return ArtificialSpec(**values).validate()

    def to_file(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @staticmethod
    def from_file(path):
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from None
        return ArtificialSpec.from_text(text)


def goal_path_digits(g, b, d):
    """First d base-b digits of g; g = 1.0 maps to the all-(b-1) path."""
    if g >= 1.0:
        return bytes([b - 1] * d)
    digits = bytearray()
    x = g
    for _ in range(d):
        digit = int(x * b)
        if digit >= b:             # float roundoff at the top edge
            digit = b - 1
        digits.append(digit)
        x = x * b - digit
    return bytes(digits)


class ArtificialProblem:
    """Search-problem adapter over an ArtificialSpec.

    err_key and goal_key are path_hash(seed, tag, path) in the error and
    goal streams; expand extends each by one hash_step per child.
    """

    def __init__(self, spec):
        spec.validate()
        self.spec = spec
        d, b = spec.d, spec.b
        self.goal_path = goal_path_digits(spec.g, b, d)
        # child i of a parent at depth k survives iff k < depth_limit[i];
        # the designated goal path is exempt
        self.depth_limit = tuple(
            math.ceil(d * (1.0 - spec.imbalance * i / (b - 1)))
            for i in range(b))
        # surviving child indices per parent depth, for parents on and
        # off the goal path; depth d has none
        self._off_path_children = tuple(
            tuple(i for i in range(b) if k < self.depth_limit[i])
            for k in range(d)) + ((),)
        self._on_path_children = tuple(
            tuple(i for i in range(b)
                  if k < self.depth_limit[i] or i == self.goal_path[k])
            for k in range(d)) + ((),)
        self.density_threshold = int(spec.density * _TWO64)
        self._seed = spec.seed
        self._emod = spec.herror + 1

    def state_at(self, path):
        """The state of the node at path, its keys hashed from scratch."""
        path = bytes(path)
        shared = 0
        for a, g in zip(path, self.goal_path):
            if a != g:
                break
            shared += 1
        return (path, shared,
                kernels.path_hash(self._seed, _TAG_ERROR, path),
                kernels.path_hash(self._seed, _TAG_GOAL, path))

    def initial_state(self):
        return self.state_at(b"")

    def initial_h(self):
        return self.heuristic(self.initial_state())

    def is_goal(self, state):
        path, shared, _err_key, goal_key = state
        d = self.spec.d
        return len(path) == d and (shared == d
                                   or goal_key < self.density_threshold)

    def heuristic(self, state):
        path, shared, err_key, goal_key = state
        return self._h(len(path), shared, err_key, goal_key)

    def _h(self, depth, shared, err_key, goal_key):
        """The heuristic of the node these fields describe."""
        d = self.spec.d
        if depth == d and (shared == d or goal_key < self.density_threshold):
            return 0                # is_goal's test
        # exact distance to the designated goal: back out of the
        # non-shared suffix, then down the rest of the goal path
        dist = (depth - shared) + (d - shared)
        if self.density_threshold > 0:
            # any depth-d node may be a goal, so cap at remaining depth
            dist = min(dist, d - depth)
        # herror = 0 makes _emod 1 and the error 0
        return max(0, dist - err_key % self._emod)

    def child_indices(self, state):
        path, shared = state[0], state[1]
        k = len(path)
        if shared == k:
            return self._on_path_children[k]
        return self._off_path_children[k]

    def expand(self, state, prev_op, h):
        path, shared, err_key, goal_key = state
        depth = len(path) + 1
        # the child that stays on the goal path, if any
        goal_next = (self.goal_path[shared]
                     if shared == depth - 1 < self.spec.d else -1)
        step = kernels.hash_step
        child_h = self._h
        out = []
        for i in self.child_indices(state):
            c_shared = shared + 1 if i == goal_next else shared
            c_err = step(err_key, i)
            c_goal = step(goal_key, i)
            out.append(((path + bytes((i,)), c_shared, c_err, c_goal), i, 1,
                        child_h(depth, c_shared, c_err, c_goal)))
        return out

    def count_nodes(self):
        """Total tree size (root included); exponential, test-sized only."""
        total = 0
        frontier = [self.initial_state()]
        while frontier:
            total += len(frontier)
            frontier = [child for state in frontier
                        for child, _i, _c, _h in self.expand(state, -1, 0)]
        return total
