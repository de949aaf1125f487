"""Fifteen puzzle with Manhattan distance.

States are (tiles, blank) pairs where tiles is bytes(16) in row-major
order, 0 marks the blank, and the goal places tile t at index t.
Operators move the blank: 0=Up, 1=Left, 2=Right, 3=Down; the reverse of
op is 3 - op.
"""

import random

from idastra._backend import KernelExpand, kernels
from idastra._kernels_py import _MOVES, _SWAP, GOAL_TILES
from idastra.errors import MalformedLine, UnsolvableInstance


def _parities(tiles):
    """(inversion parity, blank taxicab parity) of a tile permutation.

    Every blank move is a transposition and changes the blank's taxicab
    parity, so the two are equal exactly for the states that reach the
    blank-first goal.
    """
    inversions = sum(1 for i in range(16) for j in range(i + 1, 16)
                     if tiles[i] > tiles[j])
    blank = tiles.index(0)
    return inversions % 2, (blank // 4 + blank % 4) % 2


def scramble(depth, seed):
    """Random walk from the goal without immediate backtracking: each
    step picks one of the legal moves that do not undo the last one, in
    operator order, from the kernels' move table.  The walk calls no
    kernel, so a wrapper counting kernel calls sees the search's calls
    only."""
    rng = random.Random(seed)
    tiles, blank, prev_op = GOAL_TILES, 0, -1
    for _ in range(depth):
        # the table lists moves last operator first
        op, dest, _dh = rng.choice(_MOVES[blank][prev_op + 1][::-1])
        tiles = tiles.translate(_SWAP[tiles[dest]])
        blank, prev_op = dest, op
    return (tiles, blank)


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
    """Search-problem adapter for one puzzle instance.

    Its expand, read through an instance, is kernels.puzzle_expand
    itself, looked up at that read (see idastra._backend.KernelExpand):
    a search reads it once per pass or run, and each expansion calls the
    kernel directly.
    """

    def __init__(self, state):
        tiles, blank = state
        self.start = (bytes(tiles), blank)

    def initial_state(self):
        return self.start

    def initial_h(self):
        return kernels.manhattan(self.start[0])

    def is_goal(self, state):
        """The goal test expand makes of its own node, as a predicate."""
        return state[0] == GOAL_TILES

    def heuristic(self, state):
        return kernels.manhattan(state[0])

    expand = KernelExpand("puzzle_expand")
