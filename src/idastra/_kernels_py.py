"""Pure-Python hot kernels.

puzzle_expand and synthetic_expand return exactly the (state, op, cost,
h) children a domain's expand hands the search loop.

path_hash's results are frozen (the artificial space's goal and error
draws depend on them bit for bit), so its arithmetic is done on 64-bit
masked integers.  It is a left fold of hash_step, so a child's hash is
one step of its parent's.

synthetic_expand steps both of a node's hash streams at once.  A
synthetic state packs its two path_hash values into one key, the error
stream in bits 0-63 and the goal stream in bits 128-191
(err | goal << 128).  _LANES masks those two 64-bit lanes.  Bits 64-127
are a gap: the error lane's carries and the high halves of its products
land there, the goal lane's above bit 191.  Every add, shift and
multiply of hash_step is applied to the packed key and followed by
& _LANES, and each product is taken of a masked value, so no bit of one
lane ever reaches the other: an error-lane product stays below bit 128,
and a right shift moves goal-lane bits no lower than the gap.

synthetic_expand computes only what its children need.  A node at the
tree's depth d is a leaf and returns at once.  With extra goals about
(density > 0), every child of a node is the remaining depth away from a
possible goal, so a child at depth d gets h 0 with no goal test and no
error draw; its key is still the full two-lane step, since a child is
the state its path gives.  With density 0, a child at depth d is a goal
only where it ends the goal path.
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# hash_step's two mixing multipliers
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

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
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def path_hash(seed, tag, path):
    """Seeded 64-bit hash of a byte path, with independent tag streams:
    hash_step folded over the tag, then over the path's bytes."""
    h = hash_step(seed, tag)
    for c in path:
        h = hash_step(h, c)
    return h


# both lanes of a packed key (see the module docstring)
_LANES = _MASK | _MASK << 128
# hash_step's additive constant per byte, in both lanes, and each byte as
# a bytes object
_STEP_ADD2 = tuple((_GAMMA * (c + 1) & _MASK) * ((1 << 128) + 1)
                   for c in range(256))
_BYTE = tuple(bytes((c,)) for c in range(256))


def synthetic_expand(state, tables):
    """Expand an artificial-tree node.

    state is (path, shared, key): the node's child-index bytes, its
    common-prefix length with the goal path and its packed error- and
    goal-stream hash key.  tables is ArtificialProblem's (on_path,
    off_path, goal_path, d, density_threshold, emod): the surviving
    child indices per parent depth on and off the goal path, the goal
    path, and the spec's d, density threshold and herror + 1.  Returns a
    list of ((path, shared, key), i, 1, h) tuples, each child's key one
    hash_step of its parent's in both lanes and h as
    ArtificialProblem._h computes it: exactly the (state, op, cost, h)
    children ArtificialProblem.expand returns.

    A node at depth d is a leaf and returns [] before any table lookup.
    A child's h is its distance to the designated goal less its error
    draw, clamped at 0.  The goal path's next step is the remaining depth
    d - depth away and every other child further; when density > 0 any
    depth-d node may be a goal, so every child's distance is capped at,
    and so equals, the remaining depth.  A child at distance 0 gets h 0 with no
    error draw, and no child is goal-tested: below depth d no distance is
    0, and at depth d a distance of 0 is the goal path's end when
    density is 0 (the only goal then) and every child when density > 0
    (h 0 whether or not its goal stream makes it a goal).
    """
    path, shared, key = state
    on_path, off_path, goal_path, d, density_threshold, emod = tables
    depth = len(path)
    if depth == d:
        return []
    if shared == depth:
        # on the goal path: its next step survives every depth limit
        indices = on_path[depth]
        goal_next = goal_path[depth]
    else:
        indices = off_path[depth]
        goal_next = -1
    depth += 1
    # distances to the designated goal, on and off the goal path
    on = d - depth
    off = on if density_threshold > 0 else depth + d - 2 * shared
    out = []
    for i in indices:
        z = (key + _STEP_ADD2[i]) & _LANES
        z = ((z ^ (z >> 30)) & _LANES) * _MIX1 & _LANES
        z = ((z ^ (z >> 27)) & _LANES) * _MIX2 & _LANES
        z ^= (z >> 31) & _LANES
        if i == goal_next:
            c_shared = shared + 1
            h = on
        else:
            c_shared = shared
            h = off
        if h:
            h -= (z & _MASK) % emod
            if h < 0:
                h = 0
        out.append(((path + _BYTE[i], c_shared, z), i, 1, h))
    return out
