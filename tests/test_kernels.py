"""Kernels against the reference implementations, plus frozen hash
anchors."""

import random
import sys
from itertools import product

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from idastra import _kernels_py
from idastra.core import GOAL, make_root
from idastra.domains.puzzle import GOAL_TILES, scramble
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
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


# every synthetic-kernel test below runs each loaded kernel through the
# synthetic_kernels fixture (see tests/conftest.py)
_EACH_KERNEL = [HealthCheck.function_scoped_fixture]


@settings(suppress_health_check=_EACH_KERNEL)
@example(err=0, goal=_TOP)
@example(err=_TOP, goal=0)
@example(err=_TOP, goal=_TOP)
@example(err=0, goal=0)
@given(err=st.integers(0, _TOP), goal=st.integers(0, _TOP))
def test_each_child_key_is_one_hash_step_per_lane(err, goal,
                                                  synthetic_kernels):
    # each child's error and goal hashes are hash_step of its parent's,
    # each from its own lane alone
    walks = [(c,) for c in range(256)] + [tuple(reversed(range(256)))]
    for kernel, indices in product(synthetic_kernels(), walks):
        # the children of the root of a depth-1 tree
        tables = ((indices,), (indices,), bytes(indices[:1]), 1, 0, 1)
        children = []
        kernel(((b"", 0, err, goal), 0, 0, -1, None), sys.maxsize,
               children.append, None, tables)
        assert tuple(op for _s, _g, _h, op, _p in children) == indices
        for (_path, _shared, c_err, c_goal), _g, _h, c, _p in children:
            assert c_err == _kernels_py.hash_step(err, c)
            assert c_goal == _kernels_py.hash_step(goal, c)


@settings(max_examples=80, deadline=None,
          suppress_health_check=_EACH_KERNEL)
@given(b=st.integers(2, 5), d=st.integers(1, 9),
       g=st.floats(0.0, 1.0), herror=st.integers(0, 6),
       density=st.sampled_from((0.0, 1e-9, 0.05, 1.0)),
       imbalance=st.sampled_from((0.0, 0.6)),
       seed=st.integers(0, 2**32), data=st.data())
def test_synthetic_expand_matches_states_built_from_scratch(
        b, d, g, herror, density, imbalance, seed, data, synthetic_kernels):
    # walk down from the root; every child the kernel returns is the
    # state, h and goal flag its path gives when computed from nothing.
    # Every kernel expands each node of the walk alike
    problem = ArtificialProblem(ArtificialSpec(
        d=d, g=g, b=b, imbalance=imbalance, density=density,
        herror=herror, seed=seed))
    node = make_root(problem)
    while True:
        children, *others = [expand_all(problem, node)
                             for _kernel in synthetic_kernels()]
        assert all(other == children for other in others)
        if not children:
            break
        path = node[0][0]
        for child, g, h, i, parent in children:
            assert g == node[1] + 1 and parent is node
            assert child[0] == path + bytes((i,))
            assert child == problem.state_at(child[0])
            assert h == problem.heuristic(child)
            if problem.is_goal(child):
                assert h == 0
        node = data.draw(st.sampled_from(children))


def test_synthetic_expand_on_every_node_of_small_trees(synthetic_kernels):
    # the exhaustive companion of the test above: every node of full
    # small trees, leaves included, against states built from scratch
    for _kernel in synthetic_kernels():
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
                    assert h == problem.heuristic(child)
                    if problem.is_goal(child):
                        assert h == 0
                        goals += 1
                stack.extend(children)
            # the designated goal path survives every depth limit
            assert goals >= 1, (d, b, density, imbalance, herror)


def test_synthetic_expand_at_every_tight_threshold(synthetic_kernels):
    # every node of full small trees, expanded at each threshold from
    # just below its own f to just above the deepest f: the children
    # with f within the threshold are pushed, as built from scratch, and
    # every other child's f goes to prune once, in walk order
    for _kernel in synthetic_kernels():
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
                    assert child[0] == problem.state_at(
                        path + bytes((child[3],)))
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
