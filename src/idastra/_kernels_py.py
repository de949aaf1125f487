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

synthetic_expand steps all of a node's children's hash streams in one
pass.  A synthetic state packs its two path_hash values into one key,
the error stream in bits 0-63 and the goal stream in bits 128-191
(err | goal << 128); _LANES masks those two 64-bit lanes.  The pass
works on one integer with a 256-bit slot per child: child j, counted in
walk order, has bits 256j to 256j+255, laid out as a key is, its error
lane at 256j and its goal lane at 256j+128.  key * spread + add copies
the parent key into every slot and adds each child's step constant, and
hash_step's three mixing rounds then run once over all slots, with the
all-slot mask lanes in place of _LANES (synthetic_slots builds spread,
add and lanes for an index tuple).  Child j's key is then z & _LANES
after j shifts of z by 256.

No bit of one lane reaches another.  The 64 bits above each lane are a
gap.  Every value multiplied or added is masked to the lanes first, so
a lane's sum or product stays below 2^128 and fits the lane and its gap;
a right shift by 27 to 31 moves a lane's bits no lower than the gap
below it.  Each add, shift and multiply is followed by & lanes, which
clears the gaps, save the last shift, whose gap bits the & _LANES that
takes a key out of its slot clears.

A node's packed pass is a function of its path alone: the path fixes
the node's key, its depth and whether it is on the goal path, and so
the index table entry the pass reads.  Each ArtificialProblem therefore
keeps a table, a dict from a node's path to the pass's result z, which
synthetic_expand looks up before hashing: a hit skips the pass and
returns exactly the z the pass would compute, and a miss runs the pass
and stores z while the table holds fewer than PASS_TABLE_CAP entries.
IDA* re-expands the top of the tree on every pass, and a sweep runs
several searches on each instance, so most expansions hit.

synthetic_expand computes only what its children need.  A node at the
tree's depth d is a leaf: it returns GOAL or () at once.  With extra
goals about (density > 0), every child of a node is the remaining depth
away from a possible goal, so a child at depth d gets h 0 with no goal
test and no error draw; its key is still stepped, since a child is the
state its path gives.  With density 0, a child at depth d is a goal
only where it ends the goal path.

Those leaf children under density > 0 take a path of their own.  Every
one has h 0 and f = g + 1, so no distance is computed and no error
stream read: when f is over the threshold each child's f goes to prune
and the packed pass is skipped, since no key is read; otherwise the
packed pass runs and each child is pushed with h 0.  The kernel tells
them by off, the distance of a child off the goal path, being 0: with
density > 0 it is the remaining depth, and with density 0 it is
depth + d - 2 * shared, which is at least 2.
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


# both lanes of a packed key (see the module docstring)
_LANES = _MASK | _MASK << 128
# bits per child in a packed pass
_SLOT = 256
# hash_step's additive constant per byte, in both lanes, and each byte as
# a bytes object
_STEP_ADD2 = tuple((_GAMMA * (c + 1) & _MASK) * ((1 << 128) + 1)
                   for c in range(256))
_BYTE = tuple(bytes((c,)) for c in range(256))
# most nodes whose packed pass an ArtificialProblem keeps (see the module
# docstring).  A stored pass is 32 bytes per child, so the cap holds one
# problem's table to about 0.25 MB at b = 3 and 8.5 MB at b = 256, and
# the first passes made, the top of the tree that every IDA* pass
# re-expands, are the ones kept.
PASS_TABLE_CAP = 1024


def synthetic_slots(indices):
    """synthetic_expand's table entry for a node whose surviving child
    indices, last index first, are the tuple indices: (indices, spread,
    add, lanes).  Child j of indices has slot j of a packed pass (see the
    module docstring); key * spread holds key in every slot, add holds
    child j's hash_step constant in both lanes of slot j, and lanes masks
    both lanes of every slot."""
    spread = add = lanes = 0
    for j, i in enumerate(indices):
        shift = _SLOT * j
        spread |= 1 << shift
        add |= _STEP_ADD2[i] << shift
        lanes |= _LANES << shift
    return indices, spread, add, lanes


def synthetic_expand(node, threshold, push, prune, tables):
    """Expand an artificial-tree search node.

    node is ((path, shared, key), g, h, op, parent); its state holds the
    node's child-index bytes, its common-prefix length with the goal
    path and its packed error- and goal-stream hash key.  tables is
    ArtificialProblem's (on_path, off_path, goal_path, d, goal_below,
    emod, passes): per parent depth on and off the goal path,
    synthetic_slots' entry (indices, spread, add, lanes) for the
    surviving child indices, last index first; the goal path; the
    spec's d; its density threshold shifted into the goal lane
    (threshold << 128), so that a key is below it exactly when its goal
    stream is below the threshold; herror + 1; and the problem's table
    of packed passes, a dict from a node's path to its pass's result,
    which the kernel reads and fills up to PASS_TABLE_CAP entries (see
    the module docstring).  Each child costs 1, its key is one
    hash_step of its parent's in both lanes, taken for all children at
    once in one packed pass or read from passes, and its h is as
    ArtificialProblem._h computes it.  A child i with
    f <= threshold is passed to push as the node
    ((path + bytes((i,)), its shared, its key), g + 1, h, i, node); any
    other child's f alone is passed to prune, and its path and state are
    never built.  Children come last index first.  Returns the index tuple
    walked, whose length is the number of children generated.

    A node at depth d is a leaf.  It is the goal where it ends the goal
    path or its goal stream falls below the density threshold, as
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
    density > 0 (h 0 whether or not its goal stream makes it a goal).
    """
    (path, shared, key), g, _h, _op, _parent = node
    depth = len(path)
    if depth == tables[3]:
        # a leaf: d and goal_below are all its goal test reads; the
        # error lane under the goal lane never lifts a key past it
        if shared == depth or key < tables[4]:
            return GOAL
        return ()
    on_path, off_path, goal_path, d, goal_below, emod, passes = tables
    if shared == depth:
        # on the goal path: its next step survives every depth limit
        indices, spread, add, lanes = on_path[depth]
        goal_next = goal_path[depth]
    else:
        indices, spread, add, lanes = off_path[depth]
        goal_next = -1
    depth += 1
    g += 1
    # distances to the designated goal, on and off the goal path
    on = d - depth
    off = on if goal_below > 0 else depth + d - 2 * shared
    if not off and g > threshold:
        # leaf children with density > 0: h 0 and f g for every child
        for _i in indices:
            prune(g)
        return indices
    # every child's key in one pass, child j's in slot j, or the pass an
    # earlier expansion of this node stored
    z = passes.get(path)
    if z is None:
        z = (key * spread + add) & lanes
        z = ((z ^ (z >> 30)) & lanes) * _MIX1 & lanes
        z = ((z ^ (z >> 27)) & lanes) * _MIX2 & lanes
        z ^= z >> 31
        if len(passes) < PASS_TABLE_CAP:
            passes[path] = z
    if not off:
        for i in indices:
            push(((path + _BYTE[i], shared + (i == goal_next), z & _LANES),
                  g, 0, i, node))
            z >>= _SLOT
        return indices
    for i in indices:
        if i == goal_next:
            c_shared = shared + 1
            h = on
        else:
            c_shared = shared
            h = off
        if h:
            # the error lane is bits 0-63 of the child's slot
            h -= (z & _MASK) % emod
            if h < 0:
                h = 0
        if g + h > threshold:
            prune(g + h)
        else:
            push(((path + _BYTE[i], c_shared, z & _LANES), g, h, i, node))
        z >>= _SLOT
    return indices
