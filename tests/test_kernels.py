"""Kernels against the reference implementations, plus frozen hash
anchors."""

import random
import sys
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idastra import _kernels_py
from idastra.core import GOAL, make_root, serial_idastar
from idastra.domains.puzzle import GOAL_TILES, scramble
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
from idastra.engine import DEFAULT_CONFIG, run_sim
from idastra.features import shallow_search
from idastra.ordering import OrderPolicy
from oracles import apply_op_reference, expand_all, manhattan_reference


def _puzzle_children(tiles, blank, h, prev_op):
    """Every child node of a puzzle state at g 0, first operator first."""
    children = []
    _kernels_py.puzzle_expand(((tiles, blank), 0, h, prev_op, None),
                              sys.maxsize, children.append, None)
    return children[::-1]


def test_manhattan_matches_reference():
    rng = random.Random(0)
    for _ in range(200):
        tiles, _blank = scramble(rng.randrange(0, 60), rng.randrange(10**9))
        assert _kernels_py.manhattan(tiles) == manhattan_reference(tiles)


def test_manhattan_goal_is_zero():
    assert _kernels_py.manhattan(bytes(range(16))) == 0


def test_expand_skips_reverse_operator():
    tiles, blank = scramble(10, 4)
    for prev in range(4):
        children = _puzzle_children(tiles, blank,
                                    _kernels_py.manhattan(tiles), prev)
        assert all(op != 3 - prev for _state, _g, _h, op, _p in children)


def test_expand_maintains_incremental_h():
    rng = random.Random(1)
    for _ in range(100):
        tiles, blank = scramble(rng.randrange(0, 50), rng.randrange(10**9))
        h = _kernels_py.manhattan(tiles)
        for (ct, cb), cost, ch, _op, _p in _puzzle_children(
                tiles, blank, h, -1):
            assert ch == manhattan_reference(ct)
            assert abs(ch - h) == 1    # one tile moved one step
            assert cb == ct.index(0)
            assert cost == 1


def test_expand_children_match_apply_op():
    # the move tables and swap tables against a direct tile move
    rng = random.Random(5)
    for _ in range(100):
        tiles, blank = scramble(rng.randrange(0, 60), rng.randrange(10**9))
        h = _kernels_py.manhattan(tiles)
        prev = rng.choice([-1, 0, 1, 2, 3])
        if tiles == GOAL_TILES:
            # expand goal-tests its own node: the goal tiles have none
            assert _kernels_py.puzzle_expand(
                ((tiles, blank), 0, h, prev, None), sys.maxsize, None,
                None) is GOAL
            continue
        children = _puzzle_children(tiles, blank, h, prev)
        expected = [op for op in range(4)
                    if op != 3 - prev and apply_op_reference(tiles, op)]
        assert [op for _s, _g, _h, op, _p in children] == expected
        for (ct, cb), _g, _h, op, _p in children:
            assert (ct, cb) == apply_op_reference(tiles, op)


def test_path_hash_streams_differ():
    # the error stream and the goal stream must be independent
    seen = set()
    for tag in (1, 2):
        for path in (b"", b"\x00", b"\x01\x02"):
            seen.add(_kernels_py.path_hash(7, tag, path))
    assert len(seen) == 6


def test_path_hash_frozen_anchors():
    # pinned values guard the hash against accidental change; the
    # artificial space's goal/error draws depend on them bit-for-bit
    assert _kernels_py.path_hash(0, 1, b"") == 7960286522194355700
    assert _kernels_py.path_hash(0, 2, b"") == 487617019471545679
    assert _kernels_py.path_hash(12345, 1, bytes([1, 2, 3])) \
        == 3424170429835106644


def test_path_hash_prefix_sensitivity():
    a = _kernels_py.path_hash(3, 1, bytes([0, 1]))
    b = _kernels_py.path_hash(3, 1, bytes([1, 0]))
    assert a != b


@given(seed=st.integers(0, (1 << 64) - 1), tag=st.integers(0, 3),
       path=st.binary(max_size=40))
def test_hash_step_extends_path_hash_by_one_byte(seed, tag, path):
    # the artificial space derives a child's keys from its parent's
    h = _kernels_py.hash_step(seed, tag)
    assert h == _kernels_py.path_hash(seed, tag, b"")
    for i, c in enumerate(path):
        h = _kernels_py.hash_step(h, c)
        assert h == _kernels_py.path_hash(seed, tag, path[:i + 1])


_TOP = (1 << 64) - 1


@example(err=0, goal=_TOP)
@example(err=_TOP, goal=0)
@example(err=_TOP, goal=_TOP)
@example(err=0, goal=0)
@given(err=st.integers(0, _TOP), goal=st.integers(0, _TOP))
def test_packed_step_advances_each_lane_alone(err, goal):
    # synthetic_expand's packed pass is hash_step in each lane of every
    # child's slot; a lane mask left out lets carries or shifted bits
    # cross between lanes or slots
    key = err | goal << 128
    walks = [(c,) for c in range(256)] + [tuple(reversed(range(256)))]
    for indices in walks:
        # the children of the root of a depth-1 tree
        entry = _kernels_py.synthetic_slots(indices)
        tables = ((entry,), (entry,), bytes(indices[:1]), 1, 0, 1, {})
        children = []
        _kernels_py.synthetic_expand(((b"", 0, key), 0, 0, -1, None),
                                     sys.maxsize, children.append, None,
                                     tables)
        assert tuple(op for _s, _g, _h, op, _p in children) == indices
        for (_path, _shared, stepped), _g, _h, c, _parent in children:
            assert stepped & _TOP == _kernels_py.hash_step(err, c)
            assert stepped >> 128 & _TOP == _kernels_py.hash_step(goal, c)
            # both gaps stay clear
            assert stepped >> 64 & _TOP == 0
            assert stepped >> 192 == 0


@settings(max_examples=80, deadline=None)
@given(b=st.integers(2, 5), d=st.integers(1, 9),
       g=st.floats(0.0, 1.0), herror=st.integers(0, 6),
       density=st.sampled_from((0.0, 1e-9, 0.05, 1.0)),
       imbalance=st.sampled_from((0.0, 0.6)),
       seed=st.integers(0, 2**32), data=st.data())
def test_synthetic_expand_matches_states_built_from_scratch(
        b, d, g, herror, density, imbalance, seed, data):
    # walk down from the root; every child the kernel returns is the
    # state, h and goal flag its path gives when computed from nothing
    problem = ArtificialProblem(ArtificialSpec(
        d=d, g=g, b=b, imbalance=imbalance, density=density,
        herror=herror, seed=seed))
    node = make_root(problem)
    while True:
        children = expand_all(problem, node)
        if not children:
            break
        path = node[0][0]
        for child, g, h, i, parent in children:
            assert g == node[1] + 1 and parent is node
            assert child[0] == path + bytes((i,))
            assert child == problem.state_at(child[0])
            assert h == problem._h(len(child[0]), *child[1:]) \
                == problem.heuristic(child)
            if problem.is_goal(child):
                assert h == 0
        node = data.draw(st.sampled_from(children))


def test_synthetic_expand_on_every_node_of_small_trees():
    # the exhaustive companion of the test above: every node of full
    # small trees, leaves included, against states built from scratch
    for d, b, density, imbalance, herror in product(
            range(1, 7), (2, 3, 4), (0.0, 1e-9, 0.05, 1.0), (0.0, 0.6),
            (0, 5)):
        problem = ArtificialProblem(ArtificialSpec(
            d=d, g=(d + b) % 4 / 3, b=b, imbalance=imbalance,
            density=density, herror=herror, seed=10 * d + b))
        goals = 0
        stack = [make_root(problem)]
        while stack:
            node = stack.pop()
            path = node[0][0]
            children = expand_all(problem, node)
            if len(path) == d:
                assert children == []
            for child, g, h, i, _parent in children:
                assert g == node[1] + 1
                assert child == problem.state_at(path + bytes((i,)))
                assert h == problem._h(len(child[0]), *child[1:]) \
                    == problem.heuristic(child)
                if problem.is_goal(child):
                    assert h == 0
                    goals += 1
            stack.extend(children)
        # the designated goal path survives every depth limit
        assert goals >= 1, (d, b, density, imbalance, herror)


def test_synthetic_expand_at_every_tight_threshold():
    # every node of full small trees, expanded at each threshold from
    # just below its own f to just above the deepest f: the children
    # with f within the threshold are pushed, as built from scratch, and
    # every other child's f goes to prune once, in walk order
    for d, b, density, imbalance, herror in product(
            range(1, 6), (2, 3, 4), (0.0, 1e-9, 0.05, 1.0), (0.0, 0.6),
            (0, 3)):
        problem = ArtificialProblem(ArtificialSpec(
            d=d, g=(d + b) % 4 / 3, b=b, imbalance=imbalance,
            density=density, herror=herror, seed=10 * d + b))
        stack = [make_root(problem)]
        while stack:
            node = stack.pop()
            path, g, h = node[0][0], node[1], node[2]
            walked = []
            want_ops = problem.expand(node, sys.maxsize, walked.append,
                                      None)
            for child in walked:
                assert child[0] == problem.state_at(path + bytes((child[3],)))
            for threshold in range(g + h - 1, d + 2):
                pushed, pruned = [], []
                ops = problem.expand(node, threshold, pushed.append,
                                     pruned.append)
                assert ops == want_ops
                assert pushed == [c for c in walked
                                  if c[1] + c[2] <= threshold]
                assert pruned == [c[1] + c[2] for c in walked
                                  if c[1] + c[2] > threshold]
            stack.extend(walked)


def _expanded_paths(problem):
    """Wrap problem's expand to collect the path of every node it is
    given; returns the set it fills."""
    paths = set()
    expand = problem.expand

    def recording(node, threshold, push, prune):
        paths.add(node[0][0])
        return expand(node, threshold, push, prune)

    problem.expand = recording
    return paths


def _stored_pass(problem, path):
    """The packed pass synthetic_expand stores for the node at path when
    it expands that node first, on an empty table."""
    tables = problem._tables[:-1] + ({},)
    _kernels_py.synthetic_expand((problem.state_at(path), 0, 0, -1, None),
                                 sys.maxsize, lambda _c: None, None, tables)
    (z,) = tables[-1].values()
    return z


def _searches(permutation):
    """Every search whose result the pass table must leave unchanged, as
    functions of a problem."""
    searches = [lambda p, o=order: serial_idastar(p, order=o)
                for order in (OrderPolicy.fixed(), OrderPolicy.local(),
                              OrderPolicy.fixed(permutation))]
    searches.append(lambda p: shallow_search(p, budget=300))
    for distribution in ("KumarRao", "BreadthFirst"):
        config = DEFAULT_CONFIG.with_value("distribution", distribution)
        searches.append(lambda p, c=config: run_sim(p, c, 4, seed=1))
    return searches


# A problem's table of packed passes is invisible to every result: a
# search gives the same outcome on a fresh problem, on one whose table
# other searches filled first, and on one whose table stops at 3 nodes.
# Every entry is a path the searches expanded, holding the pass the
# kernel computes for that node.
@settings(max_examples=2 * settings.default.max_examples, deadline=None)
@given(d=st.integers(1, 7), b=st.integers(2, 4), g=st.floats(0.0, 1.0),
       density=st.sampled_from((0.0, 1e-9, 0.05)),
       imbalance=st.sampled_from((0.0, 0.6)), herror=st.integers(0, 4),
       seed=st.integers(0, 2**32), data=st.data())
def test_the_pass_table_leaves_every_result_unchanged(
        d, b, g, density, imbalance, herror, seed, data):
    spec = ArtificialSpec(d=d, g=g, b=b, imbalance=imbalance,
                          density=density, herror=herror, seed=seed)
    permutation = data.draw(st.permutations(range(b)))
    searches = _searches(permutation)
    fresh = [search(ArtificialProblem(spec)) for search in searches]

    warm = ArtificialProblem(spec)
    expanded = _expanded_paths(warm)
    serial_idastar(warm, order=OrderPolicy.fixed(permutation[::-1]))
    run_sim(warm, DEFAULT_CONFIG.with_value("ordering", "Local"), 3)
    assert [search(warm) for search in searches] == fresh

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels_py, "PASS_TABLE_CAP", 3)
        capped = ArtificialProblem(spec)
        assert [search(capped) for search in searches] == fresh
        assert len(capped._tables[-1]) <= 3

    table = warm._tables[-1]
    assert table.keys() <= expanded
    for path, z in table.items():
        assert z == _stored_pass(warm, path)


def test_the_pass_table_stops_at_its_cap():
    # a search over more internal nodes than the cap fills the table to
    # exactly the cap, with passes of nodes it expanded
    # with density > 0 every node's f is at most d, so the pass at
    # threshold d walks the whole tree of 3,280 internal nodes
    spec = ArtificialSpec(d=8, g=0.9, b=3, imbalance=0.0, density=1e-12,
                          herror=0, seed=2)
    problem = ArtificialProblem(spec)
    expanded = _expanded_paths(problem)
    serial_idastar(problem)
    internal = {path for path in expanded if len(path) < spec.d}
    assert len(internal) > _kernels_py.PASS_TABLE_CAP
    table = problem._tables[-1]
    assert len(table) == _kernels_py.PASS_TABLE_CAP
    assert table.keys() <= internal
