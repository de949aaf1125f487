"""Pure-Python hot kernels.

puzzle_expand and synthetic_expand are a domain's expand (see the
protocol in idastra.core): each returns GOAL at a goal, and otherwise
builds a child as a search node (state, g, h, op, parent) only where
its f is within the threshold, passes every other child's f alone to
prune, and walks its move or index table last operator first.

path_hash's results are frozen (the artificial space's goal and error
draws depend on them bit for bit), so its arithmetic is done on 64-bit
masked integers.  It is a left fold of hash_step, so a child's hash is
one step of its parent's.

synthetic_expand is the reference the compiled kernel in _ckernels.c
is held to.  A synthetic state carries its two path_hash values, the
error and goal streams, as two ints, and each of a child's is one
hash_step of its parent's.

synthetic_expand computes only what its children need.  A node at the
tree's depth d is a leaf and returns GOAL or () at once.  With
density > 0 every child of a node at depth d - 1 has h 0, with no goal
test and no error draw, and f = g + 1.  The kernel tells these leaf
children by off, the distance of a child off the goal path, being 0
(with density 0 it is depth + d - 2 * shared, which is at least 2), and
where their f is over the threshold it prunes them all and steps no
hash.
"""

from idastra.core import GOAL

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
    """Moves last operator first, indexed [blank][prev_op + 1].

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
                 for op in reversed(range(4)) if legal(blank, op)]
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


def puzzle_expand(node, threshold, push, prune):
    """Expand a puzzle search node.

    node is ((tiles, blank), g, h, prev_op, parent): tiles is bytes(16),
    blank the index of the 0 tile, h the Manhattan distance of tiles
    and prev_op the operator that produced the state (-1 at the root).
    At the goal tiles, the only tiles with h 0, it returns GOAL.  The
    operator reversing prev_op is skipped.  Each child costs 1 and its h
    is maintained incrementally.  A child with f <= threshold is passed
    to push as the node ((tiles, blank), g + 1, h, op, node); any other
    child's f alone is passed to prune, and its tiles are never built.
    Children come last operator first.  Returns the move tuple walked,
    whose length is the number of children generated.
    """
    (tiles, blank), g, h, prev_op, _parent = node
    if not h and tiles == GOAL_TILES:
        return GOAL
    g += 1
    moves = _MOVES[blank][prev_op + 1]
    for op, dest, dh in moves:
        t = tiles[dest]
        ch = h + dh[t]
        if g + ch > threshold:
            prune(g + ch)
        else:
            push(((tiles.translate(_SWAP[t]), dest), g, ch, op, node))
    return moves


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


# each byte as a bytes object
_BYTE = tuple(bytes((c,)) for c in range(256))


def synthetic_expand(node, threshold, push, prune, tables):
    """Expand an artificial-tree search node.

    node is ((path, shared, err, goal), g, h, op, parent); its state
    holds the node's child-index bytes, its common-prefix length with the
    goal path and its error- and goal-stream hashes.  tables is
    ArtificialProblem's (on_path, off_path, goal_path, d,
    density_threshold, emod): per parent depth on and off the goal path,
    the tuple of surviving child indices, last index first; the goal
    path; the spec's d; the bound a goal hash must fall below; and
    herror + 1.  Each child costs 1, each of its hashes is one hash_step
    of its parent's, and its h is as ArtificialProblem.heuristic computes
    it.  A child i with f <= threshold is passed to push as the node
    ((path + bytes((i,)), its shared, its err, its goal), g + 1, h, i,
    node); any other child's f alone is passed to prune, and its path and
    state are never built.  Children come last index first.  Returns the
    index tuple walked, whose length is the number of children generated.

    A node at depth d is a leaf.  It is the goal where it ends the goal
    path or its goal hash falls below the density threshold, as
    ArtificialProblem.is_goal tests, and returns GOAL there and ()
    elsewhere, before any index table is read.  A child's h is its
    distance to the designated goal less its error draw, clamped at 0.
    The goal path's next step is the remaining depth d - depth away and
    every other child further; when density > 0 any depth-d node may be
    a goal, so every child's distance is capped at, and so equals, the
    remaining depth.  A child at distance 0 gets h 0 with no error draw,
    and no child is goal-tested as it is built: below depth d no
    distance is 0, and at depth d a distance of 0 is the goal path's end
    when density is 0 (the only goal then) and every child when
    density > 0 (h 0 whether or not its goal hash makes it a goal).
    """
    (path, shared, err, goal), g, _h, _op, _parent = node
    depth = len(path)
    if depth == tables[3]:
        # a leaf: d and the density threshold are all its goal test reads
        if shared == depth or goal < tables[4]:
            return GOAL
        return ()
    on_path, off_path, goal_path, d, density_threshold, emod = tables
    if shared == depth:
        # on the goal path: its next step survives every depth limit
        indices = on_path[depth]
        goal_next = goal_path[depth]
    else:
        indices = off_path[depth]
        goal_next = -1
    depth += 1
    g += 1
    # distances to the designated goal, on and off the goal path
    on = d - depth
    off = on if density_threshold > 0 else depth + d - 2 * shared
    if not off and g > threshold:
        # leaf children with density > 0: h 0 and f g for every child
        for _i in indices:
            prune(g)
        return indices
    for i in indices:
        c_err = hash_step(err, i)
        if i == goal_next:
            c_shared = shared + 1
            h = on
        else:
            c_shared = shared
            h = off
        if h:
            # the error draw, from the child's error hash
            h -= c_err % emod
            if h < 0:
                h = 0
        if g + h > threshold:
            prune(g + h)
        else:
            push(((path + _BYTE[i], c_shared, c_err, hash_step(goal, i)),
                  g, h, i, node))
    return indices
