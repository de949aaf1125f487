"""Kernels against the reference implementations, plus frozen hash
anchors."""

import random
from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from idastra import _kernels_py
from idastra.domains.puzzle import scramble
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec
from oracles import apply_op_reference, manhattan_reference


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
        children = _kernels_py.puzzle_expand(tiles, blank,
                                             _kernels_py.manhattan(tiles),
                                             prev)
        assert all(op != 3 - prev for _state, op, _cost, _h in children)


def test_expand_maintains_incremental_h():
    rng = random.Random(1)
    for _ in range(100):
        tiles, blank = scramble(rng.randrange(0, 50), rng.randrange(10**9))
        h = _kernels_py.manhattan(tiles)
        for (ct, cb), _op, cost, ch in _kernels_py.puzzle_expand(
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
        children = _kernels_py.puzzle_expand(tiles, blank, h, prev)
        expected = [op for op in range(4)
                    if op != 3 - prev and apply_op_reference(tiles, op)]
        assert [op for _s, op, _c, _h in children] == expected
        for (ct, cb), op, _cost, _h in children:
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
    # one two-lane step of synthetic_expand is hash_step in each lane; a
    # lane mask left out lets carries or shifted bits cross between them
    key = err | goal << 128
    for c in range(256):
        # one child, c, of the root of a depth-2 tree
        tables = (((c,), ()), ((c,), ()), bytes((c,)), 2, 0, 1)
        [(child, _op, _cost, _h)] = _kernels_py.synthetic_expand(
            (b"", 0, key), tables)
        stepped = child[2]
        assert stepped & _TOP == _kernels_py.hash_step(err, c)
        assert stepped >> 128 == _kernels_py.hash_step(goal, c)
        assert stepped >> 64 & _TOP == 0      # the gap stays clear


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
    state = problem.initial_state()
    while True:
        children = problem.expand(state, -1, 0)
        if not children:
            break
        path = state[0]
        for child, i, cost, h in children:
            assert cost == 1
            assert child[0] == path + bytes((i,))
            assert child == problem.state_at(child[0])
            assert h == problem._h(len(child[0]), *child[1:]) \
                == problem.heuristic(child)
            if problem.is_goal(child):
                assert h == 0
        state = data.draw(st.sampled_from(children))[0]


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
        stack = [problem.initial_state()]
        while stack:
            state = stack.pop()
            path = state[0]
            children = problem.expand(state, -1, 0)
            if len(path) == d:
                assert children == []
            for child, i, cost, h in children:
                assert cost == 1
                assert child == problem.state_at(path + bytes((i,)))
                assert h == problem._h(len(child[0]), *child[1:]) \
                    == problem.heuristic(child)
                if problem.is_goal(child):
                    assert h == 0
                    goals += 1
                stack.append(child)
        # the designated goal path survives every depth limit
        assert goals >= 1, (d, b, density, imbalance, herror)
