"""Fifteen puzzle with Manhattan distance.

States are (tiles, blank) pairs where tiles is bytes(16) in row-major
order, 0 marks the blank, and the goal places tile t at index t.
Operators move the blank: 0=Up, 1=Left, 2=Right, 3=Down; the reverse of
op is 3 - op.
"""

import random

from idastra._backend import kernels
from idastra._kernels_py import DELTA, GOAL_TILES, legal
from idastra.errors import MalformedLine, UnsolvableInstance


def manhattan(tiles):
    return kernels.manhattan(bytes(tiles))


def apply_op(state, op):
    tiles, blank = state
    dest = blank + DELTA[op]
    child = bytearray(tiles)
    child[blank] = tiles[dest]
    child[dest] = 0
    return (bytes(child), dest)


def _parities(tiles):
    """(inversion parity, blank taxicab parity) of a tile permutation."""
    inversions = sum(1 for i in range(16) for j in range(i + 1, 16)
                     if tiles[i] > tiles[j])
    blank = tiles.index(0)
    return inversions % 2, (blank // 4 + blank % 4) % 2


def is_solvable(tiles):
    """Parity test against the blank-first goal.

    Every blank move is a transposition and changes the blank's taxicab
    parity, so (permutation parity == blank displacement parity) is
    invariant and holds at the goal.
    """
    inversion_parity, blank_parity = _parities(tiles)
    return inversion_parity == blank_parity


def scramble(depth, seed):
    """Random walk from the goal without immediate backtracking."""
    rng = random.Random(seed)
    state = (GOAL_TILES, 0)
    prev = -1
    for _ in range(depth):
        ops = [op for op in range(4)
               if legal(state[1], op) and (prev < 0 or op != 3 - prev)]
        op = rng.choice(ops)
        state = apply_op(state, op)
        prev = op
    return state


def parse_korf_set(text):
    """Parse instances given as 16 whitespace-separated tile numbers per
    line (0 is the blank).  Blank lines and #-comments are skipped."""
    states = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 16:
            raise MalformedLine(lineno, f"expected 16 fields, got {len(parts)}")
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise MalformedLine(lineno, "non-integer field") from None
        if sorted(values) != list(range(16)):
            raise MalformedLine(lineno, "not a permutation of 0..15")
        tiles = bytes(values)
        inversion_parity, blank_parity = _parities(tiles)
        if inversion_parity != blank_parity:
            raise UnsolvableInstance(
                lineno, f"inversion parity {inversion_parity} != blank "
                        f"parity {blank_parity}")
        states.append((tiles, tiles.index(0)))
    return states


class PuzzleProblem:
    """Search-problem adapter for one puzzle instance."""

    def __init__(self, state):
        tiles, blank = state
        self.start = (bytes(tiles), blank)

    def initial_state(self):
        return self.start

    def initial_h(self):
        return kernels.manhattan(self.start[0])

    def is_goal(self, state):
        return state[0] == GOAL_TILES

    def heuristic(self, state):
        return kernels.manhattan(state[0])

    def expand(self, state, prev_op, h):
        tiles, blank = state
        return kernels.puzzle_expand(tiles, blank, h, prev_op)
