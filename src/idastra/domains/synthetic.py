"""Parameterised artificial search trees.

A tree of branching factor b is cut off at depth d.  One designated
root-to-goal path is derived from goal_position; extra goals can be
sprinkled across depth-d nodes with solution_density.  imbalance skews
subtree depths (higher child indices get shallower limits), and
heuristic_error subtracts a seeded pseudo-random amount from the exact
distance-to-designated-goal heuristic.  Everything is a pure function of
(spec, path), so runs are reproducible byte for byte.

Node identity is the path itself: a bytes string of child indices.
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
    """Search-problem adapter over an ArtificialSpec."""

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
        self.density_threshold = int(spec.density * _TWO64)
        self._seed = spec.seed
        self._emod = spec.herror + 1

    def initial_state(self):
        return b""

    def initial_h(self):
        return self.heuristic(b"")

    def _is_goal_prefix(self, path):
        return self.goal_path[:len(path)] == path

    def is_goal(self, path):
        if len(path) != self.spec.d:
            return False
        if path == self.goal_path:
            return True
        if self.density_threshold == 0:
            return False
        return kernels.path_hash(self._seed, _TAG_GOAL,
                                 path) < self.density_threshold

    def heuristic(self, path):
        if self.is_goal(path):
            return 0
        # exact distance to the designated goal: back out of the
        # non-shared suffix, then down the rest of the goal path
        gp = self.goal_path
        c = 0
        for a, bch in zip(path, gp):
            if a != bch:
                break
            c += 1
        dist = (len(path) - c) + (self.spec.d - c)
        if self.density_threshold > 0:
            # any depth-d node may be a goal, so cap at remaining depth
            dist = min(dist, self.spec.d - len(path))
        err = 0
        if self.spec.herror > 0:
            err = kernels.path_hash(self._seed, _TAG_ERROR, path) % self._emod
        return max(0, dist - err)

    def child_indices(self, path):
        k = len(path)
        if k >= self.spec.d:
            return ()
        limits = self.depth_limit
        on_goal = self._is_goal_prefix(path)
        goal_next = self.goal_path[k] if on_goal else -1
        return tuple(i for i in range(self.spec.b)
                     if k < limits[i] or i == goal_next)

    def expand(self, path, prev_op, h):
        out = []
        for i in self.child_indices(path):
            child = path + bytes([i])
            out.append((child, i, 1, self.heuristic(child)))
        return out

    def count_nodes(self):
        """Total tree size (root included); exponential, test-sized only."""
        total = 0
        frontier = [b""]
        while frontier:
            total += len(frontier)
            nxt = []
            for path in frontier:
                for i in self.child_indices(path):
                    nxt.append(path + bytes([i]))
            frontier = nxt
        return total
