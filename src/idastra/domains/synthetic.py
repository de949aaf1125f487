"""Parameterised artificial search trees.

A tree of branching factor b is cut off at depth d.  One designated
root-to-goal path is derived from goal_position; extra goals can be
sprinkled across depth-d nodes with solution_density.  imbalance skews
subtree depths (higher child indices get shallower limits), and
heuristic_error subtracts a seeded pseudo-random amount from the exact
distance-to-designated-goal heuristic.  Everything is a pure function of
(spec, path), so runs are reproducible byte for byte.

A node's state is the tuple (path, shared, key): the bytes string of
child indices from the root, its common-prefix length with the
designated goal path, and its packed hash key.  The key holds the
node's two path_hash values in two 64-bit lanes, the error stream in
bits 0-63 and the goal stream in bits 128-191:
path_hash(seed, 1, path) | path_hash(seed, 2, path) << 128.  Every field
is a function of the path, so the path alone still identifies the node;
the other two are carried so that a child's heuristic and goal test
cost its share of one packed hash pass over its parent's children (see
idastra._kernels_py), not a rehash of the whole path.
"""

import math
from dataclasses import dataclass, fields

from idastra._backend import kernels
from idastra.errors import DataError, MalformedLine, parse_file

_TAG_ERROR = 1
_TAG_GOAL = 2
_TWO64 = 1 << 64
_LOW64 = _TWO64 - 1            # a packed key's error lane
MAX_DEPTH = 2 ** 12


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
        # a node holds its path of up to d bytes and its parent, so one
        # root-to-leaf chain holds d^2 / 2 bytes (8 MB at this bound), and
        # ArtificialProblem keeps 2 d tables of up to b child indices
        # (and at most PASS_TABLE_CAP packed passes of 32 b bytes each)
        if not 1 <= self.d <= MAX_DEPTH:
            raise DataError(f"d must be in [1, {MAX_DEPTH}], got {self.d}")
        # a child index is one byte of a path
        if not 2 <= self.b <= 256:
            raise DataError(f"b must be in [2, 256], got {self.b}")
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
        for name in SPEC_FIELDS:
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
                raise MalformedLine(lineno, "expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in SPEC_FIELDS:
                raise MalformedLine(lineno, f"unknown key {key!r}")
            if key in values:
                raise MalformedLine(lineno, f"duplicate key {key!r}")
            try:
                values[key] = SPEC_FIELDS[key](val)
            except ValueError:
                raise MalformedLine(
                    lineno, f"bad value {val!r} for {key}") from None
        missing = [k for k in SPEC_FIELDS if k not in values]
        if missing:
            raise DataError(f"missing keys: {', '.join(missing)}")
        return ArtificialSpec(**values).validate()

    def to_file(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @staticmethod
    def from_file(path):
        try:
            return parse_file(path, ArtificialSpec.from_text)
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from None


# each spec field's name and type, in .spec file order: the type (int or
# float) parses the field's text
SPEC_FIELDS = {f.name: f.type for f in fields(ArtificialSpec)}


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

    A state's key packs path_hash(seed, tag, path) for the error and goal
    streams (err | goal << 128); expand's kernel steps it for all of a
    node's children in one packed pass and computes each child's h as _h
    does.

    The problem keeps each node's packed pass in a table keyed by the
    node's path, so that every later expansion of the node, in this
    search or another on the same problem, skips the pass.  The path
    fixes the node's key, depth and place on or off the goal path, so a
    stored pass is exactly the one the kernel would compute.  The table
    keeps the first PASS_TABLE_CAP (1,024) nodes' passes, the top of
    the tree, and then stops growing.
    """

    def __init__(self, spec):
        spec.validate()
        self.spec = spec
        d, b = spec.d, spec.b
        self._d = d
        self.goal_path = goal_path_digits(spec.g, b, d)
        # child i of a parent at depth k survives iff k < depth_limit[i];
        # the designated goal path is exempt
        self.depth_limit = tuple(
            math.ceil(d * (1.0 - spec.imbalance * i / (b - 1)))
            for i in range(b))
        # surviving child indices per parent depth below d, last index
        # first, for parents on and off the goal path (a depth-d node is
        # a leaf); synthetic_expand reads each as synthetic_slots' entry,
        # shared by every depth with equal indices
        off_path = tuple(
            tuple(i for i in reversed(range(b)) if k < self.depth_limit[i])
            for k in range(d))
        on_path = tuple(
            tuple(i for i in reversed(range(b))
                  if k < self.depth_limit[i] or i == self.goal_path[k])
            for k in range(d))
        self.density_threshold = int(spec.density * _TWO64)
        self._seed = spec.seed
        self._emod = spec.herror + 1
        slots = {t: kernels.synthetic_slots(t)
                 for t in {*on_path, *off_path}}
        # everything synthetic_expand reads besides the state; a key is
        # below the shifted threshold exactly when its goal lane is, and
        # the last entry is the table of packed passes it fills
        self._tables = (tuple(slots[t] for t in on_path),
                        tuple(slots[t] for t in off_path), self.goal_path,
                        d, self.density_threshold << 128, self._emod, {})

    def state_at(self, path):
        """The state of the node at path, its key hashed from scratch."""
        path = bytes(path)
        shared = 0
        for a, g in zip(path, self.goal_path):
            if a != g:
                break
            shared += 1
        return (path, shared,
                kernels.path_hash(self._seed, _TAG_ERROR, path)
                | kernels.path_hash(self._seed, _TAG_GOAL, path) << 128)

    def initial_state(self):
        return self.state_at(b"")

    def initial_h(self):
        return self.heuristic(self.initial_state())

    def is_goal(self, state):
        """The goal test expand makes of its own node, as a predicate."""
        path, shared, key = state
        d = self._d
        return len(path) == d and (shared == d
                                   or key >> 128 < self.density_threshold)

    def heuristic(self, state):
        path, shared, key = state
        return self._h(len(path), shared, key)

    def _h(self, depth, shared, key):
        """The heuristic of the node these fields describe.  It is 0 at
        every goal without a goal test: the designated goal's distance
        is 0, and an extra goal exists only with density > 0, which caps
        every depth-d distance at 0."""
        d = self._d
        # exact distance to the designated goal: back out of the
        # non-shared suffix, then down the rest of the goal path
        dist = (depth - shared) + (d - shared)
        if self.density_threshold > 0:
            # any depth-d node may be a goal, so cap at remaining depth
            dist = min(dist, d - depth)
        # herror = 0 makes _emod 1 and the error 0
        return max(0, dist - (key & _LOW64) % self._emod)

    def expand(self, node, threshold, push, prune):
        return kernels.synthetic_expand(node, threshold, push, prune,
                                        self._tables)
