"""Pure-Python hot kernels.

path_hash's results are frozen (the artificial space's goal and error
draws depend on them bit for bit), so its arithmetic is done on 64-bit
masked integers.  It is a left fold of hash_step, so a child's hash is
one step of its parent's.
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

BACKEND = "python"

# Fifteen puzzle: goal places tile t at index t, blank (0) at index 0.
GOAL_TILES = bytes(range(16))

# Manhattan distance of tile t at position p from its goal cell t.
_MD = [
    [abs(p // 4 - t // 4) + abs(p % 4 - t % 4) for p in range(16)]
    for t in range(16)
]

# Blank displacement per operator: 0=Up, 1=Left, 2=Right, 3=Down.
DELTA = (-4, -1, 1, 4)


def legal(blank, op):
    """Whether operator op can move the blank out of cell blank."""
    if op == 0:
        return blank >= 4
    if op == 1:
        return blank % 4 != 0
    if op == 2:
        return blank % 4 != 3
    return blank < 12


def _swap_table(t):
    table = bytearray(range(256))
    table[0], table[t] = t, 0
    return bytes(table)


# bytes.translate table exchanging tile t and the blank: applied to the
# parent's tiles it moves tile t into the blank's cell
_SWAP = tuple(_swap_table(t) for t in range(16))


def _move_table():
    """Moves in operator order, indexed [blank][prev_op + 1].

    Each entry is a tuple of (op, dest, dh) where dest is the blank's new
    cell and dh[t] the change in Manhattan distance when tile t slides
    from dest into the old blank cell.  The move undoing prev_op is left
    out.
    """
    table = []
    for blank in range(16):
        moves = [(op, blank + DELTA[op],
                  tuple(_MD[t][blank] - _MD[t][blank + DELTA[op]]
                        for t in range(16)))
                 for op in range(4) if legal(blank, op)]
        table.append(tuple(
            tuple(m for m in moves if prev_op < 0 or m[0] != 3 - prev_op)
            for prev_op in range(-1, 4)))
    return tuple(table)


_MOVES = _move_table()


def manhattan(tiles):
    """Sum of tile distances from home; the blank does not count."""
    total = 0
    for pos in range(16):
        t = tiles[pos]
        if t:
            total += _MD[t][pos]
    return total


def puzzle_expand(tiles, blank, h, prev_op):
    """Expand a puzzle state.

    tiles: bytes(16); blank: index of the 0 tile; h: Manhattan distance of
    tiles; prev_op: operator that produced this state (-1 at the root).
    The operator reversing prev_op is skipped.  Returns a list of
    ((tiles, blank), op, 1, h) tuples in operator order, the child state,
    its operator, its cost and its Manhattan distance (maintained
    incrementally): exactly the (state, op, cost, h) children a search
    problem's expand returns.  Other orders are the ordering policy's job.
    """
    # a plain loop: for two or three children a comprehension's own
    # call costs more than the appends it saves
    out = []
    for op, dest, dh in _MOVES[blank][prev_op + 1]:
        t = tiles[dest]
        out.append(((tiles.translate(_SWAP[t]), dest), op, 1, h + dh[t]))
    return out


def hash_step(h, c):
    """One step of path_hash's left fold: the hash of a path extended by
    byte c, given the hash h of the path."""
    z = (h + _GAMMA * (c + 1)) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def path_hash(seed, tag, path):
    """Seeded 64-bit hash of a byte path, with independent tag streams:
    hash_step folded over the tag, then over the path's bytes."""
    h = hash_step(seed, tag)
    for c in path:
        h = hash_step(h, c)
    return h
