"""Kernels against the reference implementations, plus frozen hash
anchors."""

import random

from hypothesis import given
from hypothesis import strategies as st

from idastra import _kernels_py
from idastra.domains.puzzle import scramble
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
