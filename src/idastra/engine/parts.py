"""Pure load-balancing primitives.

These are the unit-testable pieces the engine composes: donation
slicing and poll-target selection.
"""

import math


def donate(open_list, fraction, end):
    """Split an open list into (kept, donated).

    Donates ceil(fraction * n) nodes from the chosen end ("HeadOfList" =
    deep nodes, "TailOfList" = near-root nodes), but a donor always keeps
    at least one node, even at fraction 1: a last node given away could
    pass between two members forever, since a worker answers requests
    before it expands.  So a donor with one node refuses.  An empty
    donation means refusal (the requester re-polls).
    """
    n = len(open_list)
    want = min(math.ceil(fraction * n), n - 1)
    if want <= 0:
        return list(open_list), []
    items = list(open_list)
    if end == "HeadOfList":
        return items[want:], items[:want]
    return items[:-want], items[-want:]


def poll_target(position, members, flip, rng, policy):
    """Pick the cluster member to beg for work.

    position: index of the requester within members.  Neighbor polling
    alternates right then left on the cluster ring (flip carries the
    alternation state; returns the new value).  Random polling draws
    uniformly from the other members.  Returns (target member or None,
    flip): an element of members itself, not an id.
    """
    k = len(members)
    if k < 2:
        return None, flip
    if policy == "Random":
        others = [m for i, m in enumerate(members) if i != position]
        return rng.choice(others), flip
    if flip:
        target = members[(position + 1) % k]
    else:
        target = members[(position - 1) % k]
    return target, not flip
